//! Satellite: status-protocol version-skew coverage.
//!
//! The series/health extension rides `StatusRequest`/`StatusReport` as
//! `#[serde(default)]` fields, so mixed-version clusters must keep
//! working in both directions:
//!
//! * a *pre-pulse* node's report (no `series`/`health` keys at all)
//!   decodes on a new observer as empty series — never an error;
//! * a *new* node's report decodes on this version even when the frame
//!   carries unknown future fields (forward skew), without poisoning the
//!   frame decoder for subsequent frames on the same connection;
//! * an old observer's cursor-less request decodes as `series_cursor:
//!   None`.

use arm_telemetry::{Labels, MetricsRegistry, SeriesBatch, SeriesStore};
use arm_util::{DomainId, NodeId, SimTime};
use arm_wire::frame::{crc32, message_tag, HEADER_LEN, MAGIC, PROTOCOL_VERSION};
use arm_wire::{encode, FrameDecoder, Hello, StatusReport, StatusRequest, WirePayload};
use proptest::prelude::*;

/// One exemplar per [`WirePayload`] variant (`Hello`, `Envelope`,
/// `StatusRequest`, `StatusReport`); `exemplars_cover_every_payload_tag`
/// counts their distinct frame tags.
fn exemplars() -> Vec<WirePayload> {
    vec![
        WirePayload::Hello(Hello {
            node: NodeId::new(1),
            listen: Some("127.0.0.1:19000".into()),
            peers: vec![(NodeId::new(2), "127.0.0.1:19001".into())],
        }),
        WirePayload::Envelope(arm_proto::Envelope::untraced(
            NodeId::new(1),
            NodeId::new(2),
            arm_proto::Message::Heartbeat {
                from: NodeId::new(1),
                sent_at: SimTime::from_millis(5),
            },
        )),
        WirePayload::StatusRequest(StatusRequest {
            observer: NodeId::new(3),
            include_trace: false,
            series_cursor: Some(7),
        }),
        WirePayload::StatusReport(Box::new(report(NodeId::new(4), sample_batch(3)))),
    ]
}

fn report(node: NodeId, series: SeriesBatch) -> StatusReport {
    StatusReport {
        node,
        role: "member".into(),
        domain: Some(DomainId::new(1)),
        rm: Some(NodeId::new(1)),
        domain_size: None,
        sessions: None,
        load: 1.5,
        active_hops: 0,
        open_spans: 0,
        traces_dropped: 0,
        metrics: Default::default(),
        transport: Default::default(),
        trace: None,
        health: Vec::new(),
        series,
        peers: Vec::new(),
    }
}

/// A real batch sampled from a registry (not hand-rolled JSON), so the
/// skew tests exercise exactly what a pulse-enabled node would ship.
fn sample_batch(ticks: u64) -> SeriesBatch {
    let mut reg = MetricsRegistry::new();
    let mut store = SeriesStore::new(64);
    for i in 0..ticks {
        reg.add("msgs", Labels::kind("gossip"), i + 1);
        reg.set_gauge("load", Labels::NONE, i as f64 * 0.25);
        store.sample(SimTime::from_secs(i), &reg);
    }
    store.collect_since(0)
}

/// Frames a raw JSON body exactly like `encode` does, letting tests ship
/// payload shapes this codec version would never produce itself.
fn frame_raw(tag: u8, body: &str) -> Vec<u8> {
    let body = body.as_bytes();
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(&MAGIC);
    out.push(PROTOCOL_VERSION);
    out.push(tag);
    out.extend_from_slice(&[0, 0]);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Serialises a report and strips / injects top-level keys to fake another
/// codec version's bytes. `strip` removes the series extension (old node);
/// `extra` appends unknown future keys (newer node).
fn skewed_report_json(rep: &StatusReport, strip: bool, extra: Option<&str>) -> String {
    let payload = WirePayload::StatusReport(Box::new(rep.clone()));
    let mut json = serde_json::to_string(&payload).expect("reports serialize");
    if strip {
        // An empty batch/health vec is skip-serialized, producing exactly
        // the pre-pulse byte shape — assert that rather than re-encode.
        assert!(!json.contains("\"series\""));
    }
    if let Some(ext) = extra {
        // Inject after the opening of the report object:
        // {"StatusReport":{  →  {"StatusReport":{<ext>,
        let marker = "{\"StatusReport\":{";
        json = json.replacen(marker, &format!("{marker}{ext},"), 1);
    }
    json
}

#[test]
fn exemplars_cover_every_payload_tag() {
    let mut tags: Vec<u8> = exemplars().iter().map(message_tag).collect();
    tags.sort_unstable();
    tags.dedup();
    assert_eq!(tags.len(), 4, "one exemplar per WirePayload variant");
    for payload in exemplars() {
        let bytes = encode(&payload);
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        assert_eq!(dec.next_frame().unwrap(), Some(payload));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn old_report_without_series_decodes_to_empty(node in 0u64..10_000) {
        // Pre-pulse nodes never emit series/health keys; their bytes must
        // decode to the defaults on a new observer.
        let rep = report(NodeId::new(node), SeriesBatch::default());
        let json = skewed_report_json(&rep, true, None);
        let mut dec = FrameDecoder::new();
        dec.push(&frame_raw(23, &json));
        let Some(WirePayload::StatusReport(back)) = dec.next_frame().unwrap() else {
            panic!("expected a status report frame");
        };
        prop_assert!(back.series.is_empty());
        prop_assert_eq!(back.series.next_cursor, 0);
        prop_assert!(back.health.is_empty());
        prop_assert_eq!(back.node, NodeId::new(node));
    }

    #[test]
    fn unknown_future_fields_are_ignored_not_poisonous(
        node in 0u64..10_000,
        ticks in 1u64..6,
        ext_val in 0u64..1_000_000,
    ) {
        // A report from a *newer* codec with fields this version has never
        // heard of must decode (ignoring them) and leave the decoder
        // healthy for the next frame on the same stream.
        let rep = report(NodeId::new(node), sample_batch(ticks));
        let ext = format!(
            "\"series_v2\":{{\"compression\":\"zstd\",\"points\":{ext_val}}},\
             \"future_flag\":true"
        );
        let json = skewed_report_json(&rep, false, Some(&ext));
        let mut dec = FrameDecoder::new();
        dec.push(&frame_raw(23, &json));
        let Some(WirePayload::StatusReport(back)) = dec.next_frame().unwrap() else {
            panic!("expected a status report frame");
        };
        prop_assert_eq!(*back, rep);
        prop_assert!(!dec.is_poisoned());
        // The stream keeps decoding frames afterwards.
        let follow = exemplars().remove(0);
        dec.push(&encode(&follow));
        prop_assert_eq!(dec.next_frame().unwrap(), Some(follow));
    }

    #[test]
    fn cursorless_requests_decode_with_no_cursor(observer in 0u64..10_000, trace in any::<bool>()) {
        // An old observer's request predates `series_cursor` entirely.
        let json = format!(
            "{{\"StatusRequest\":{{\"observer\":{observer},\"include_trace\":{trace}}}}}"
        );
        let mut dec = FrameDecoder::new();
        dec.push(&frame_raw(22, &json));
        let Some(WirePayload::StatusRequest(req)) = dec.next_frame().unwrap() else {
            panic!("expected a status request frame");
        };
        prop_assert_eq!(req.series_cursor, None);
        prop_assert_eq!(req.observer, NodeId::new(observer));
        prop_assert_eq!(req.include_trace, trace);
    }

    #[test]
    fn series_batches_round_trip_the_codec(ticks in 1u64..8) {
        let rep = report(NodeId::new(9), sample_batch(ticks));
        let payload = WirePayload::StatusReport(Box::new(rep));
        let bytes = encode(&payload);
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        prop_assert_eq!(dec.next_frame().unwrap(), Some(payload));
    }
}
