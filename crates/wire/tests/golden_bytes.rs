//! Golden bytes: the exact frames `arm_wire::encode` produced at the commit
//! before the framing moved into `arm_util::framing`. Any drift in the
//! header layout, CRC, message tag or JSON payload fails here by byte.

use arm_proto::{Envelope, Message};
use arm_util::{NodeId, SimTime};
use arm_wire::{encode, FrameDecoder, Hello, WirePayload};

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn heartbeat() -> WirePayload {
    WirePayload::Envelope(Envelope::untraced(
        NodeId::new(1),
        NodeId::new(2),
        Message::Heartbeat {
            from: NodeId::new(1),
            sent_at: SimTime::from_millis(125),
        },
    ))
}

fn hello() -> WirePayload {
    WirePayload::Hello(Hello {
        node: NodeId::new(9),
        listen: Some("127.0.0.1:19000".into()),
        peers: vec![(NodeId::new(1), "127.0.0.1:19001".into())],
    })
}

const HEARTBEAT_HEX: &str = "41524d57010700004e00000097dd42947b22456e76656c6f7065223a7b2266726f6d223a312c22746f223a322c226d7367223a7b22486561727462656174223a7b2266726f6d223a312c2273656e745f6174223a3132353030307d7d7d7d";
const HELLO_HEX: &str = "41524d57010100004f000000b306bfd77b2248656c6c6f223a7b226e6f6465223a392c226c697374656e223a223132372e302e302e313a3139303030222c227065657273223a5b5b312c223132372e302e302e313a3139303031225d5d7d7d";

#[test]
fn encoded_frames_match_the_pinned_bytes() {
    assert_eq!(encode(&heartbeat()), unhex(HEARTBEAT_HEX));
    assert_eq!(encode(&hello()), unhex(HELLO_HEX));
}

#[test]
fn pinned_bytes_decode_to_the_same_payloads() {
    let mut dec = FrameDecoder::new();
    dec.push(&unhex(HEARTBEAT_HEX));
    dec.push(&unhex(HELLO_HEX));
    assert_eq!(dec.next_frame().unwrap(), Some(heartbeat()));
    assert_eq!(dec.next_frame().unwrap(), Some(hello()));
    assert_eq!(dec.next_frame().unwrap(), None);
}
