//! Tag 8 (`HeartbeatAck`) is retired: a peer still sending one costs only
//! that frame.

use arm_proto::{Envelope, Message};
use arm_util::{NodeId, SimTime};
use arm_wire::{DecodeError, FrameDecoder, WirePayload};

/// An n2 → n1 `HeartbeatAck` frame and an n1 → n2 heartbeat, both encoded before the retirement.
const STREAM_HEX: &str = "41524d570108000057000000817c7c3f7b22456e76656c6f7065223a7b2266726f6d223a322c22746f223a312c226d7367223a7b2248656172746265617441636b223a7b2266726f6d223a322c2270726f62655f73656e745f6174223a3132353030307d7d7d7d41524d57010700004e00000097dd42947b22456e76656c6f7065223a7b2266726f6d223a312c22746f223a322c226d7367223a7b22486561727462656174223a7b2266726f6d223a312c2273656e745f6174223a3132353030307d7d7d7d";

#[test]
fn a_retired_heartbeat_ack_is_a_frame_local_error() {
    let byte = |i: usize| u8::from_str_radix(&STREAM_HEX[i..i + 2], 16).unwrap();
    let stream: Vec<u8> = (0..STREAM_HEX.len()).step_by(2).map(byte).collect();
    assert_eq!(stream[5], 8, "the first frame carries the retired tag");
    let mut dec = FrameDecoder::new();
    dec.push(&stream);
    assert!(matches!(dec.next_frame(), Err(DecodeError::Payload(_))));
    assert!(!dec.is_poisoned());
    let (from, sent_at) = (NodeId::new(1), SimTime::from_millis(125));
    let heartbeat = Envelope::untraced(from, NodeId::new(2), Message::Heartbeat { from, sent_at });
    assert_eq!(
        dec.next_frame().unwrap(),
        Some(WirePayload::Envelope(heartbeat))
    );
}
