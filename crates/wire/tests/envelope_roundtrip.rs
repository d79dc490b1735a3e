//! Satellite: the traced envelope must round-trip for every `Message`
//! variant, and legacy frames (no `trace` field) must still decode.
//!
//! "Every variant" is `common::exemplars`, which holds itself to the
//! vocabulary table in `arm-proto`.

mod common;

use arm_proto::{Envelope, Message, TraceCtx};
use arm_util::{NodeId, SimTime};
use arm_wire::{encode, FrameDecoder, WirePayload};
use common::exemplars;

fn roundtrip(payload: &WirePayload) -> WirePayload {
    let bytes = encode(payload);
    let mut dec = FrameDecoder::new();
    dec.push(&bytes);
    dec.next_frame()
        .expect("frame decodes")
        .expect("one whole frame")
}

#[test]
fn every_variant_round_trips_with_trace_context() {
    for (i, msg) in exemplars().into_iter().enumerate() {
        let ctx = TraceCtx {
            trace_id: (7u64 << 32) | (i as u64 + 1),
            parent_span: (3u64 << 32) | (i as u64),
            flags: 1,
        };
        let mut env = Envelope::untraced(NodeId::new(1), NodeId::new(2), msg);
        env.trace = ctx;
        let payload = WirePayload::Envelope(env);
        let got = roundtrip(&payload);
        assert_eq!(got, payload);
        match got {
            WirePayload::Envelope(env) => assert_eq!(env.trace, ctx),
            other => panic!("decoded to non-envelope {other:?}"),
        }
    }
}

#[test]
fn untraced_envelopes_omit_the_field_and_legacy_json_still_decodes() {
    // An untraced envelope serializes without a `trace` key — byte-for-byte
    // what a pre-tracing peer would emit...
    let env = Envelope::untraced(
        NodeId::new(1),
        NodeId::new(2),
        Message::Heartbeat {
            from: NodeId::new(1),
            sent_at: SimTime::from_millis(5),
        },
    );
    let json = serde_json::to_string(&env).expect("envelope serializes");
    assert!(
        !json.contains("trace"),
        "untraced envelope leaked a trace field: {json}"
    );
    // ...and that legacy shape decodes with TraceCtx defaulting to NONE.
    let back: Envelope = serde_json::from_str(&json).expect("legacy envelope decodes");
    assert_eq!(back.trace, TraceCtx::NONE);
    assert_eq!(back, env);
}
