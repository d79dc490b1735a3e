//! # arm-store — crash-safe peer lifecycle
//!
//! The paper's middleware assumes long-lived processors; this crate is
//! what makes that credible on real machines. It has three parts:
//!
//! * [`controller`] — the lifecycle **state controller**: the node phase
//!   as an exhaustive enum, the [`Intent`] records a node logs, and the
//!   idempotent fold that replays them into the phase, RM, epoch and
//!   live-session set recovery reads.
//! * [`codec`] — CRC-framed, versioned record encoding shared by the
//!   log and the snapshot (the framing itself is `arm_util::framing`,
//!   shared with the wire).
//! * [`log`] / [`snapshot`] — the **write-ahead intent log** and the
//!   periodic **compacted snapshot**, both under `--state-dir`, with
//!   atomic rename-on-commit and corruption-tolerant replay.
//!
//! [`Store`] is the façade a driver (the threaded runtime, the CLI)
//! uses: open → [`Store::recover`] → feed the recovered state into the
//! peer → append intents as they happen → [`Store::install_snapshot`]
//! on the periodic tick and at graceful shutdown.
//!
//! Everything here is dependency-free (std only), deterministic (no
//! clocks, no hashing with random state — this crate's `clippy.toml`) and
//! panic-free outside tests (the attribute below).

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

pub mod codec;
pub mod controller;
pub mod log;
pub mod snapshot;

pub use codec::{CodecError, RecordKind, STORE_VERSION};
pub use controller::{Intent, NodePhase, StateController};
pub use log::{encode_intent, IntentLog, ReplayReport, LOG_FILE};
pub use snapshot::{load_snapshot, write_snapshot, StoreSnapshot, SNAPSHOT_FILE, SNAPSHOT_FORMAT};

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure underneath the log or snapshot.
    Io(io::Error),
    /// Record framing failure while encoding.
    Codec(CodecError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o: {e}"),
            StoreError::Codec(e) => write!(f, "store codec: {e}"),
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

/// Everything recovery found on disk.
#[derive(Debug)]
pub struct Recovered {
    /// The last committed snapshot, if one exists and is intact.
    pub snapshot: Option<StoreSnapshot>,
    /// Intents appended after the snapshot (the good WAL prefix, minus
    /// the `wal_seq` records the snapshot already folded in).
    pub intents: Vec<Intent>,
    /// What replay saw: counts, truncation point, discarded-snapshot
    /// note.
    pub report: ReplayReport,
    /// Human-readable note when a corrupt snapshot was discarded.
    pub snapshot_note: Option<String>,
}

/// An open state directory: one snapshot file plus one intent log.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    log: IntentLog,
}

impl Store {
    /// Opens `dir` (creating it if needed) and recovers its contents.
    /// The log is truncated to its good prefix; intents already folded
    /// into the snapshot (per its `wal_seq`) are dropped from replay.
    pub fn open(dir: &Path) -> Result<(Store, Recovered), StoreError> {
        let (snapshot, snapshot_note) = snapshot::load_snapshot(dir);
        let (log, mut intents, report) = IntentLog::open(dir)?;
        if let Some(snap) = &snapshot {
            let already = snap.wal_seq.min(intents.len() as u64) as usize;
            intents.drain(..already);
        }
        Ok((
            Store {
                dir: dir.to_path_buf(),
                log,
            },
            Recovered {
                snapshot,
                intents,
                report,
                snapshot_note,
            },
        ))
    }

    /// The state directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one intent to the write-ahead log.
    pub fn append(&mut self, intent: &Intent) -> Result<u64, StoreError> {
        Ok(self.log.append(intent)?)
    }

    /// Commits a snapshot and compacts: the WAL is synced, the snapshot
    /// (stamped with the current log sequence) is atomically installed,
    /// and the log is reset. A crash between the rename and the reset
    /// only means some intents replay as no-ops — the controller's fold
    /// is idempotent by design.
    pub fn install_snapshot(&mut self, snap: &mut StoreSnapshot) -> Result<(), StoreError> {
        self.log.sync()?;
        snap.wal_seq = 0;
        snapshot::write_snapshot(&self.dir, snap)?;
        self.log.reset()?;
        Ok(())
    }
}

impl Store {
    /// Constructor used by tests and benches to open a store in a fresh
    /// directory, discarding any prior contents.
    pub fn fresh(dir: &Path) -> Result<Store, StoreError> {
        let _ = std::fs::remove_dir_all(dir);
        let (store, _) = Store::open(dir)?;
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm_util::{DomainId, NodeId, SessionId, TaskId};

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("arm-store-{name}-{}", std::process::id()))
    }

    fn snap_for(node: u64) -> StoreSnapshot {
        StoreSnapshot {
            phase: NodePhase::Member.tag(),
            domain: Some(DomainId::new(1)),
            rm: Some(NodeId::new(1)),
            ..StoreSnapshot::blank(NodeId::new(node))
        }
    }

    #[test]
    fn open_append_recover_cycle() {
        let dir = tmp("cycle");
        let _ = std::fs::remove_dir_all(&dir);
        let (mut store, rec) = Store::open(&dir).unwrap();
        assert!(rec.snapshot.is_none());
        assert!(rec.intents.is_empty());
        store
            .append(&Intent::NodeStarted { bootstrap: None })
            .unwrap();
        store
            .append(&Intent::SessionAllocated {
                session: SessionId::new(1),
                task: TaskId::new(1),
            })
            .unwrap();
        drop(store);
        let (_, rec) = Store::open(&dir).unwrap();
        assert_eq!(rec.intents.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_compacts_the_log() {
        let dir = tmp("compact");
        let _ = std::fs::remove_dir_all(&dir);
        let (mut store, _) = Store::open(&dir).unwrap();
        store
            .append(&Intent::NodeStarted { bootstrap: None })
            .unwrap();
        store.append(&Intent::EpochAdvanced { version: 3 }).unwrap();
        let mut snap = snap_for(7);
        store.install_snapshot(&mut snap).unwrap();
        // Post-snapshot intents are the only thing replay returns.
        store.append(&Intent::EpochAdvanced { version: 4 }).unwrap();
        drop(store);
        let (_, rec) = Store::open(&dir).unwrap();
        assert_eq!(rec.snapshot.as_ref().map(|s| s.node), Some(NodeId::new(7)));
        assert_eq!(rec.intents, vec![Intent::EpochAdvanced { version: 4 }]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_feeds_a_controller_back_to_the_same_state() {
        let dir = tmp("rebuild");
        let _ = std::fs::remove_dir_all(&dir);
        let (mut store, _) = Store::open(&dir).unwrap();
        let script = [
            Intent::NodeStarted { bootstrap: None },
            Intent::DomainFounded {
                domain: DomainId::new(1),
            },
            Intent::SessionAllocated {
                session: SessionId::new(1),
                task: TaskId::new(1),
            },
            Intent::SessionAllocated {
                session: SessionId::new(2),
                task: TaskId::new(2),
            },
            Intent::SessionClosed {
                session: SessionId::new(2),
            },
        ];
        for i in &script {
            store.append(i).unwrap();
        }
        drop(store);
        let mut live = StateController::new();
        live.replay(&script);
        let (_, rec) = Store::open(&dir).unwrap();
        let mut recovered = StateController::new();
        recovered.replay(&rec.intents);
        assert_eq!(recovered, live);
        assert_eq!(live.node_phase(), NodePhase::Rm);
        assert_eq!(
            live.live_sessions().iter().collect::<Vec<_>>(),
            [&SessionId::new(1)]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
