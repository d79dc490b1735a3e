//! Satellite: property-based codec coverage.
//!
//! * arbitrary `Message` values encode → decode identically;
//! * the decoder never panics on arbitrary byte streams, truncated frames,
//!   or bit-flipped frames — and a corrupted frame never silently decodes
//!   to a *different* payload (the CRC catches payload damage).

use arm_model::{MediaFormat, QosSpec, TaskSpec};
use arm_profiler::LoadReport;
use arm_proto::{DomainSummary, Envelope, Message, NackReason, RmCandidacy, TaskReplyKind};
use arm_util::{BloomFilter, DomainId, NodeId, SessionId, SimDuration, SimTime, TaskId};
use arm_wire::{encode, FrameDecoder, WirePayload};
use proptest::prelude::*;

fn arb_node() -> impl Strategy<Value = NodeId> {
    (0u64..10_000).prop_map(NodeId::new)
}

fn arb_time() -> impl Strategy<Value = SimTime> {
    (0u64..1 << 40).prop_map(SimTime::from_micros)
}

fn arb_candidacy() -> impl Strategy<Value = RmCandidacy> {
    (arb_node(), 0.0f64..1000.0, 0u32..100_000, 0.0f64..100_000.0).prop_map(
        |(node, capacity, bandwidth_kbps, uptime_secs)| RmCandidacy {
            node,
            capacity,
            bandwidth_kbps,
            uptime_secs,
        },
    )
}

fn arb_summary() -> impl Strategy<Value = DomainSummary> {
    (
        0u64..100,
        arb_node(),
        proptest::collection::vec(0u64..1_000_000, 0..64),
        0.0f64..1.0,
        0u64..1000,
    )
        .prop_map(|(domain, rm, keys, mean_utilization, version)| {
            let mut objects = BloomFilter::with_capacity(64, 0.01);
            let mut services = BloomFilter::with_capacity(32, 0.05);
            for k in keys {
                objects.insert_u64(k);
                services.insert_u64(k.wrapping_mul(31));
            }
            DomainSummary {
                domain: DomainId::new(domain),
                rm,
                objects,
                services,
                mean_utilization,
                version,
            }
        })
}

fn arb_task() -> impl Strategy<Value = TaskSpec> {
    (0u64..1000, arb_node(), 0u64..1 << 30, 0.0f64..10_000.0).prop_map(
        |(id, requester, deadline_us, session_secs)| TaskSpec {
            id: TaskId::new(id),
            name: format!("movie-{id}"),
            requester,
            initial_format: MediaFormat::paper_source(),
            acceptable_formats: vec![MediaFormat::paper_target()],
            qos: QosSpec::with_deadline(SimDuration::from_micros(deadline_us)),
            submitted_at: SimTime::ZERO,
            session_secs,
        },
    )
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof!(
        arb_candidacy().prop_map(|candidacy| Message::JoinRequest { candidacy }),
        arb_node().prop_map(|to| Message::JoinRedirect { to }),
        (0u64..100, arb_node(), any::<bool>()).prop_map(|(d, rm, as_new_rm)| {
            Message::JoinAccept {
                domain: DomainId::new(d),
                rm,
                as_new_rm,
                new_domain: as_new_rm.then_some(DomainId::new(d + 1)),
                known_rms: vec![(DomainId::new(d), rm)],
            }
        }),
        arb_node().prop_map(|node| Message::Leave { node }),
        (arb_node(), arb_time()).prop_map(|(from, sent_at)| Message::Heartbeat { from, sent_at }),
        (arb_node(), 0u64..100, 0u64..1000).prop_map(|(new_rm, d, version)| {
            Message::PromoteAnnounce {
                new_rm,
                domain: DomainId::new(d),
                version,
            }
        }),
        (
            arb_node(),
            arb_time(),
            0.0f64..500.0,
            0u32..100_000,
            0u64..64
        )
            .prop_map(|(node, at, load, bw, queue_len)| {
                Message::LoadReport(LoadReport {
                    node,
                    at,
                    load,
                    capacity: load + 1.0,
                    bandwidth_used_kbps: bw / 2,
                    bandwidth_capacity_kbps: bw,
                    queue_len: queue_len as usize,
                })
            }),
        proptest::collection::vec(arb_summary(), 0..4)
            .prop_map(|summaries| Message::GossipDigest { summaries }),
        arb_task().prop_map(|task| Message::TaskQuery { task }),
        (arb_task(), 0u64..10).prop_map(|(task, n)| Message::TaskRedirect {
            task,
            tried_domains: (0..n).map(DomainId::new).collect(),
        }),
        (0u64..1000, any::<bool>()).prop_map(|(t, hard)| Message::TaskReply {
            task: TaskId::new(t),
            reply: TaskReplyKind::Rejected {
                reason: if hard {
                    "no path".into()
                } else {
                    String::new()
                },
            },
        }),
        (0u64..1000, 0u64..8, arb_node()).prop_map(|(s, hop, from)| Message::ComposeAck {
            session: SessionId::new(s),
            hop: hop as usize,
            from,
        }),
        (0u64..1000, 0u64..8, arb_node(), any::<bool>()).prop_map(|(s, hop, from, limit)| {
            Message::ComposeNack {
                session: SessionId::new(s),
                hop: hop as usize,
                from,
                reason: if limit {
                    NackReason::ConnectionLimit
                } else {
                    NackReason::Overloaded
                },
            }
        }),
        (0u64..1000).prop_map(|s| Message::SessionEnd {
            session: SessionId::new(s),
        }),
        (0u64..1000, 0u64..1 << 30).prop_map(|(t, us)| Message::RenegotiateQos {
            task: TaskId::new(t),
            new_qos: QosSpec::with_deadline(SimDuration::from_micros(us)),
        }),
    )
}

fn envelope(msg: Message) -> WirePayload {
    WirePayload::Envelope(Envelope::untraced(NodeId::new(1), NodeId::new(2), msg))
}

/// Drains every decodable frame, tolerating (and counting) errors; panics
/// in the decoder are the failure this helper exists to surface.
fn drain(dec: &mut FrameDecoder) -> (Vec<WirePayload>, usize) {
    let mut frames = Vec::new();
    let mut errors = 0;
    loop {
        match dec.next_frame() {
            Ok(Some(p)) => frames.push(p),
            Ok(None) => break,
            Err(_) => {
                errors += 1;
                if errors > 64 {
                    break; // poisoned decoders error forever
                }
            }
        }
    }
    (frames, errors)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn arbitrary_messages_round_trip(msg in arb_message()) {
        let payload = envelope(msg);
        let bytes = encode(&payload);
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        let decoded = dec.next_frame().expect("valid frame").expect("complete frame");
        prop_assert_eq!(decoded, payload);
        prop_assert_eq!(dec.next_frame().expect("clean tail"), None);
    }

    #[test]
    fn round_trip_survives_arbitrary_chunking(
        msgs in proptest::collection::vec(arb_message(), 1..4),
        chunk in 1usize..64,
    ) {
        let payloads: Vec<WirePayload> = msgs.into_iter().map(envelope).collect();
        let stream: Vec<u8> = payloads.iter().flat_map(encode).collect();
        let mut dec = FrameDecoder::new();
        let mut decoded = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.push(piece);
            let (frames, errors) = drain(&mut dec);
            decoded.extend(frames);
            prop_assert_eq!(errors, 0);
        }
        prop_assert_eq!(decoded, payloads);
    }

    #[test]
    fn decoder_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        chunk in 1usize..97,
    ) {
        let mut dec = FrameDecoder::new();
        for piece in bytes.chunks(chunk) {
            dec.push(piece);
            let _ = drain(&mut dec);
        }
    }

    #[test]
    fn decoder_never_panics_on_truncated_frames(msg in arb_message(), keep in 0.0f64..1.0) {
        let bytes = encode(&envelope(msg));
        let cut = ((bytes.len() - 1) as f64 * keep) as usize;
        let mut dec = FrameDecoder::new();
        dec.push(&bytes[..cut]);
        // A prefix of a valid frame is never an error: the decoder waits.
        prop_assert_eq!(dec.next_frame().expect("prefix never errors"), None);
        // Feeding the remainder completes the frame.
        dec.push(&bytes[cut..]);
        prop_assert!(dec.next_frame().expect("completed frame").is_some());
    }

    #[test]
    fn bit_flips_never_panic_or_corrupt(
        msg in arb_message(),
        pos in 0.0f64..1.0,
        mask in 1u16..256,
    ) {
        let payload = envelope(msg);
        let mut bytes = encode(&payload);
        let idx = ((bytes.len() - 1) as f64 * pos) as usize;
        bytes[idx] ^= mask as u8;
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        let (frames, _errors) = drain(&mut dec);
        // Whatever the flip hit — magic, version, length, CRC, payload — the
        // decoder must not panic, and must never hand back a frame that
        // differs from what was sent (flips in the ignored flags/reserved
        // header bytes may still decode; the payload is then untouched).
        for frame in frames {
            prop_assert_eq!(frame, payload.clone());
        }
    }
}
