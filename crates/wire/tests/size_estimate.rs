//! Satellite: reconcile `Message::size_bytes` with reality.
//!
//! The bandwidth model and the E5/E10/E12 overhead experiments charge
//! message costs from `Message::size_bytes`. Now that messages actually
//! cross a wire, the estimate must stay honest: for every variant the
//! estimate must be within 2× of the actual encoded frame size (in both
//! directions).

mod common;

use arm_proto::{Envelope, Message};
use arm_util::NodeId;
use arm_wire::{encode, WirePayload};
use common::{exemplars, summary};

fn frame_len(msg: &Message) -> usize {
    encode(&WirePayload::Envelope(Envelope::untraced(
        NodeId::new(1),
        NodeId::new(2),
        msg.clone(),
    )))
    .len()
}

#[test]
fn every_variant_estimate_within_2x_of_encoded_frame() {
    let mut failures = Vec::new();
    for msg in &exemplars() {
        let estimate = msg.size_bytes();
        let actual = frame_len(msg);
        if estimate * 2 < actual || actual * 2 < estimate {
            failures.push(format!(
                "{}: estimate {estimate} vs actual {actual} ({:.2}x)",
                msg.kind(),
                actual as f64 / estimate as f64
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "size_bytes drifted beyond 2x:\n  {}",
        failures.join("\n  ")
    );
}

#[test]
fn estimate_tracks_content_growth() {
    // The estimator must scale with content, not just sit inside the 2x
    // window for one exemplar size.
    let small = Message::GossipDigest {
        summaries: vec![summary(1)],
    };
    let large = Message::GossipDigest {
        summaries: (0..8).map(summary).collect(),
    };
    assert!(large.size_bytes() > small.size_bytes() * 4);
    assert!(frame_len(&large) > frame_len(&small) * 4);
}
