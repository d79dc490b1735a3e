//! Compacted snapshots of a peer's durable state.
//!
//! A snapshot is one [`RecordKind::Snapshot`](crate::codec::RecordKind)
//! record in its own file (`snapshot.arms`), written to a temp file,
//! synced, then atomically renamed over the previous snapshot — a crash
//! mid-write leaves the old snapshot intact. Recovery is
//! `load snapshot → replay WAL intents newer than it`, so the snapshot
//! carries everything the intent stream alone cannot rebuild: the RM
//! information base ([`RmSnapshot`]), the resource-graph epoch, the live
//! sessions, and the pulse cursor.
//!
//! Phases cross the disk boundary as small integer tags ([`NodePhase::tag`]
//! / [`NodePhase::from_tag`]), declared in one list with the enum itself,
//! so a phase cannot be written without being readable. An unknown node
//! phase tag (from a newer node) reads as `Idle` rather than being
//! rejected, each live session's tag ([`SessionPhase`](crate::SessionPhase))
//! is written but not read, and unknown JSON fields are ignored by
//! construction, so mixed-version restarts degrade softly instead of
//! refusing to boot.

use crate::codec::{self, CodecError, RecordKind, RecordReader};
use crate::controller::NodePhase;
use arm_proto::RmSnapshot;
use arm_util::{DomainId, NodeId, SessionId};
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

/// File name of the current snapshot inside the state dir.
pub const SNAPSHOT_FILE: &str = "snapshot.arms";
/// Temp file the snapshot is staged in before the atomic rename.
pub const SNAPSHOT_TMP: &str = "snapshot.arms.tmp";
/// Snapshot body format, independent of the record framing version.
pub const SNAPSHOT_FORMAT: u32 = 1;

/// Everything a peer persists besides the intent log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreSnapshot {
    /// Snapshot body format ([`SNAPSHOT_FORMAT`]).
    pub format: u32,
    /// The node this snapshot belongs to.
    pub node: NodeId,
    /// Node lifecycle phase tag ([`NodePhase::tag`]).
    pub phase: u8,
    /// Domain, once known.
    #[serde(default)]
    pub domain: Option<DomainId>,
    /// The RM this node followed (itself when `phase == Rm`).
    #[serde(default)]
    pub rm: Option<NodeId>,
    /// The RM information base, present only when the node was an RM:
    /// member inventories, resource graph, sessions, backup candidates
    /// and the monotone version (the epoch recovery reconciles on).
    #[serde(default)]
    pub rm_state: Option<RmSnapshot>,
    /// Live sessions and their phase tags
    /// ([`SessionPhase`](crate::SessionPhase)).
    #[serde(default)]
    pub sessions: Vec<(SessionId, u8)>,
    /// Highest retained-pulse sequence number already published, so a
    /// recovered node resumes its metrics series instead of restarting
    /// at zero.
    #[serde(default)]
    pub pulse_cursor: u64,
    /// Count of WAL intents already folded into this snapshot. Replay
    /// skips this many records; the log is reset on the next append.
    #[serde(default)]
    pub wal_seq: u64,
    /// True when written by a graceful shutdown (the final flush); false
    /// for periodic snapshots. Recovery after `clean == false` means the
    /// process crashed.
    #[serde(default)]
    pub clean: bool,
    /// Wall-clock microseconds when written; informational only (never
    /// fed back into protocol time).
    #[serde(default)]
    pub written_at_us: u64,
}

impl StoreSnapshot {
    /// The image of a node that has persisted nothing yet: `Idle`, no RM,
    /// no sessions. Recovery replays a WAL over it when a node crashed
    /// before its first snapshot.
    pub fn blank(node: NodeId) -> Self {
        Self {
            format: SNAPSHOT_FORMAT,
            node,
            phase: NodePhase::Idle.tag(),
            domain: None,
            rm: None,
            rm_state: None,
            sessions: Vec::new(),
            pulse_cursor: 0,
            wal_seq: 0,
            clean: false,
            written_at_us: 0,
        }
    }

    /// The sessions listed as live. Their phase tags are not read: a
    /// listed session is live whatever its tag says.
    pub fn live_sessions(&self) -> impl Iterator<Item = SessionId> + '_ {
        self.sessions.iter().map(|(s, _)| *s)
    }

    /// The node phase, defaulting to `Idle` if the tag is from the
    /// future (a safe phase: recovery then re-runs the join handshake).
    pub fn node_phase(&self) -> NodePhase {
        NodePhase::from_tag(self.phase).unwrap_or(NodePhase::Idle)
    }
}

/// Serializes and frames a snapshot record (no I/O).
pub fn encode_snapshot(snap: &StoreSnapshot) -> Result<Vec<u8>, CodecError> {
    let json = serde_json::to_string(snap).map_err(|e| CodecError::Payload(e.to_string()))?;
    codec::encode_record(RecordKind::Snapshot, json.as_bytes())
}

/// Decodes the first snapshot record found in `buf`. Returns `Ok(None)`
/// for an empty buffer (no snapshot yet), `Err` for corruption.
pub fn decode_snapshot(buf: &[u8]) -> Result<Option<StoreSnapshot>, CodecError> {
    let mut reader = RecordReader::new(buf);
    while let Some(rec) = reader.next_record() {
        let rec = rec?;
        match rec.kind {
            Some(RecordKind::Snapshot) => {
                let json = std::str::from_utf8(rec.payload)
                    .map_err(|e| CodecError::Payload(e.to_string()))?;
                let snap: StoreSnapshot =
                    serde_json::from_str(json).map_err(|e| CodecError::Payload(e.to_string()))?;
                return Ok(Some(snap));
            }
            // Intent records or future kinds in the snapshot file are
            // skipped; only the snapshot record matters here.
            Some(RecordKind::Intent) | None => {}
        }
    }
    Ok(None)
}

/// Writes `snap` durably into `dir`: stage in a temp file, flush + sync,
/// then atomically rename over [`SNAPSHOT_FILE`]. A crash at any point
/// leaves either the old snapshot or the new one, never a torn mix.
pub fn write_snapshot(dir: &Path, snap: &StoreSnapshot) -> io::Result<()> {
    let bytes = encode_snapshot(snap)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    fs::create_dir_all(dir)?;
    let tmp = dir.join(SNAPSHOT_TMP);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, dir.join(SNAPSHOT_FILE))?;
    Ok(())
}

/// Loads the snapshot from `dir`, tolerating absence and corruption.
/// Returns the snapshot (if any) plus a human-readable note when a
/// corrupt snapshot was discarded.
pub fn load_snapshot(dir: &Path) -> (Option<StoreSnapshot>, Option<String>) {
    let path = dir.join(SNAPSHOT_FILE);
    let buf = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return (None, None),
        Err(e) => return (None, Some(format!("snapshot unreadable: {e}"))),
    };
    match decode_snapshot(&buf) {
        Ok(found) => (found, None),
        Err(e) => (None, Some(format!("snapshot discarded: {e}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::controller::SessionPhase;

    fn sample() -> StoreSnapshot {
        StoreSnapshot {
            format: SNAPSHOT_FORMAT,
            node: NodeId::new(3),
            phase: NodePhase::Rm.tag(),
            domain: Some(DomainId::new(1)),
            rm: Some(NodeId::new(3)),
            rm_state: None,
            sessions: vec![
                (SessionId::new(10), SessionPhase::Streaming.tag()),
                (SessionId::new(11), SessionPhase::Composing.tag()),
            ],
            pulse_cursor: 42,
            wal_seq: 7,
            clean: false,
            written_at_us: 1_000_000,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let snap = sample();
        let bytes = encode_snapshot(&snap).unwrap();
        let back = decode_snapshot(&bytes).unwrap().unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.node_phase(), NodePhase::Rm);
        assert_eq!(
            back.live_sessions().collect::<Vec<_>>(),
            vec![SessionId::new(10), SessionId::new(11)]
        );
    }

    #[test]
    fn phase_tags_roundtrip_and_reject_future() {
        for &p in NodePhase::ALL {
            assert_eq!(NodePhase::from_tag(p.tag()), Some(p));
        }
        for &p in SessionPhase::ALL {
            assert_eq!(SessionPhase::from_tag(p.tag()), Some(p));
        }
        assert_eq!(NodePhase::from_tag(200), None);
        assert_eq!(SessionPhase::from_tag(200), None);
    }

    #[test]
    fn session_tags_are_not_read() {
        let mut snap = sample();
        snap.sessions.push((SessionId::new(99), 250));
        let bytes = encode_snapshot(&snap).unwrap();
        let back = decode_snapshot(&bytes).unwrap().unwrap();
        assert_eq!(back.live_sessions().count(), 3);
    }

    #[test]
    fn atomic_write_and_load() {
        let dir = std::env::temp_dir().join(format!("arm-store-snap-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let snap = sample();
        write_snapshot(&dir, &snap).unwrap();
        let (found, note) = load_snapshot(&dir);
        assert_eq!(found, Some(snap.clone()));
        assert!(note.is_none());
        // Overwrite with a newer snapshot: rename replaces atomically.
        let mut newer = snap;
        newer.wal_seq = 100;
        newer.clean = true;
        write_snapshot(&dir, &newer).unwrap();
        let (found, _) = load_snapshot(&dir);
        assert_eq!(found.map(|s| (s.wal_seq, s.clean)), Some((100, true)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_is_discarded_with_note() {
        let dir = std::env::temp_dir().join(format!("arm-store-snapc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let mut bytes = encode_snapshot(&sample()).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(dir.join(SNAPSHOT_FILE), &bytes).unwrap();
        let (found, note) = load_snapshot(&dir);
        assert!(found.is_none());
        assert!(note.unwrap().contains("discarded"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_dir_is_no_snapshot() {
        let dir = std::env::temp_dir().join("arm-store-definitely-missing-dir");
        let (found, note) = load_snapshot(&dir);
        assert!(found.is_none());
        assert!(note.is_none());
    }
}
