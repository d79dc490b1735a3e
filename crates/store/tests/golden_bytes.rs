//! Golden bytes: the exact records the store codec produced at the commit
//! before the framing moved into `arm_util::framing` (and the snapshot as
//! written once it stopped listing sessions outside `rm_state`). A state
//! dir written by an older node must stay readable, so any drift fails
//! here by byte.

use arm_store::codec::{encode_record, RecordReader};
use arm_store::snapshot::{decode_snapshot, encode_snapshot, StoreSnapshot};
use arm_store::{RecordKind, SNAPSHOT_FORMAT};
use arm_util::{DomainId, NodeId, SessionId};

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

const INTENT_PAYLOAD: &[u8] = b"{\"golden\":\"intent\"}";
const INTENT_HEX: &str = "41524d5301010000130000004d65172d7b22676f6c64656e223a22696e74656e74227d";
/// Written by the older format: session 7 listed beside a null `rm_state`.
const SNAPSHOT_HEX: &str = "41524d530102000097000000775a307b7b22666f726d6174223a312c226e6f6465223a332c227068617365223a322c22646f6d61696e223a312c22726d223a312c22726d5f7374617465223a6e756c6c2c2273657373696f6e73223a5b5b372c325d5d2c2270756c73655f637572736f72223a31312c2277616c5f736571223a342c22636c65616e223a747275652c227772697474656e5f61745f7573223a313030303030307d";
/// The same snapshot written now, with no session list.
const SNAPSHOT_NO_LIST_HEX: &str = "41524d5301020000840000006b09fa9d7b22666f726d6174223a312c226e6f6465223a332c227068617365223a322c22646f6d61696e223a312c22726d223a312c22726d5f7374617465223a6e756c6c2c2270756c73655f637572736f72223a31312c2277616c5f736571223a342c22636c65616e223a747275652c227772697474656e5f61745f7573223a313030303030307d";

fn snapshot() -> StoreSnapshot {
    StoreSnapshot {
        format: SNAPSHOT_FORMAT,
        node: NodeId::new(3),
        phase: 2,
        domain: Some(DomainId::new(1)),
        rm: Some(NodeId::new(1)),
        rm_state: None,
        sessions: Vec::new(),
        pulse_cursor: 11,
        wal_seq: 4,
        clean: true,
        written_at_us: 1_000_000,
    }
}

#[test]
fn encoded_records_match_the_pinned_bytes() {
    let intent = encode_record(RecordKind::Intent, INTENT_PAYLOAD).unwrap();
    assert_eq!(intent, unhex(INTENT_HEX));
    assert_eq!(
        encode_snapshot(&snapshot()).unwrap(),
        unhex(SNAPSHOT_NO_LIST_HEX)
    );
}

#[test]
fn pinned_bytes_decode_to_the_same_records() {
    let mut buf = unhex(INTENT_HEX);
    buf.extend_from_slice(&unhex(SNAPSHOT_HEX));
    let mut reader = RecordReader::new(&buf);
    let rec = reader.next_record().unwrap().unwrap();
    assert_eq!(rec.kind, Some(RecordKind::Intent));
    assert_eq!(rec.payload, INTENT_PAYLOAD);
    // The snapshot decoder skips the leading intent record. With no
    // `rm_state` to hold it, the older list is session 7's record and stays.
    let sessions = vec![(SessionId::new(7), 2)];
    let listed = StoreSnapshot {
        sessions,
        ..snapshot()
    };
    assert_eq!(decode_snapshot(&buf).unwrap(), Some(listed));
}
