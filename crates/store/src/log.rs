//! The write-ahead intent log.
//!
//! An append-only file of [`RecordKind::Intent`](crate::codec::RecordKind)
//! records in `intents.arms`. Appends are flushed per record (the WAL is
//! the durability story between snapshots) and the file is truncated to
//! its good prefix on open, so a record torn by a crash disappears
//! instead of poisoning every later replay. Compaction is external:
//! after a snapshot commits, [`IntentLog::reset`] empties the log and
//! replay resumes from the snapshot's `wal_seq`.

use crate::codec::{self, CodecError, RecordKind, RecordReader};
use crate::controller::Intent;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// File name of the intent log inside the state dir.
pub const LOG_FILE: &str = "intents.arms";

/// What replay found in the log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Intents decoded from the good prefix.
    pub replayed: usize,
    /// Records skipped (unknown kind tags from a newer format).
    pub skipped: usize,
    /// Byte length of the good prefix.
    pub good_bytes: usize,
    /// Set when the log was cut short: offset and reason of the first
    /// bad record (torn tail after a crash is the expected case).
    pub truncated: Option<(usize, String)>,
}

/// Serializes and frames one intent record (no I/O): the bytes
/// [`IntentLog::append`] writes.
pub fn encode_intent(intent: &Intent) -> Result<Vec<u8>, CodecError> {
    let json = serde_json::to_string(intent).map_err(|e| CodecError::Payload(e.to_string()))?;
    codec::encode_record(RecordKind::Intent, json.as_bytes())
}

/// Decodes the good prefix of a log buffer into intents (no I/O).
///
/// Never panics and never yields a half-committed intent: decoding stops
/// at the first defective record, and everything before it passed the
/// per-record checksum.
pub fn replay_intents(buf: &[u8]) -> (Vec<Intent>, ReplayReport) {
    let mut intents = Vec::new();
    let mut report = ReplayReport::default();
    let mut reader = RecordReader::new(buf);
    loop {
        let offset = reader.offset();
        match reader.next_record() {
            None => break,
            Some(Err(e)) => {
                report.truncated = Some((offset, e.to_string()));
                break;
            }
            Some(Ok(rec)) => match rec.kind {
                Some(RecordKind::Intent) => {
                    match std::str::from_utf8(rec.payload)
                        .ok()
                        .and_then(|json| serde_json::from_str::<Intent>(json).ok())
                    {
                        Some(intent) => {
                            intents.push(intent);
                            report.replayed += 1;
                        }
                        // Checksum passed but the body is foreign (an
                        // intent variant from a newer node): skip it.
                        None => report.skipped += 1,
                    }
                }
                Some(RecordKind::Snapshot) | None => report.skipped += 1,
            },
        }
    }
    report.good_bytes = reader.offset();
    (intents, report)
}

/// An open, append-mode intent log.
#[derive(Debug)]
pub struct IntentLog {
    path: PathBuf,
    file: File,
    /// Records appended since the log was last reset (or, after open,
    /// since its creation — the replayed count seeds this).
    seq: u64,
}

impl IntentLog {
    /// Opens (creating if absent) the log in `dir`, first truncating it
    /// to its good prefix so a torn tail from a crash never survives
    /// into new appends.
    pub fn open(dir: &Path) -> io::Result<(IntentLog, Vec<Intent>, ReplayReport)> {
        fs::create_dir_all(dir)?;
        let path = dir.join(LOG_FILE);
        let buf = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let (intents, report) = replay_intents(&buf);
        if report.good_bytes < buf.len() {
            // Cut the defective tail before appending anything new.
            let file = OpenOptions::new().write(true).open(&path)?;
            file.set_len(report.good_bytes as u64)?;
            file.sync_all()?;
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let seq = (report.replayed + report.skipped) as u64;
        Ok((IntentLog { path, file, seq }, intents, report))
    }

    /// Appends one intent, flushed to the OS before returning. Returns
    /// the log sequence number of the appended record.
    pub fn append(&mut self, intent: &Intent) -> io::Result<u64> {
        let bytes = encode_intent(intent)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.file.write_all(&bytes)?;
        self.file.flush()?;
        self.seq += 1;
        Ok(self.seq)
    }

    /// Forces appended records to stable storage (called at snapshot
    /// boundaries; per-append fsync would dominate the hot path).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }

    /// Empties the log after its contents were folded into a snapshot.
    pub fn reset(&mut self) -> io::Result<()> {
        self.file = OpenOptions::new()
            .write(true)
            .truncate(true)
            .open(&self.path)?;
        self.file.sync_all()?;
        // Reopen in append mode so later writes extend, not overwrite.
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.seq = 0;
        Ok(())
    }

    /// Records appended (or replayed) since the last reset.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm_util::{SessionId, TaskId};

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("arm-store-log-{name}-{}", std::process::id()))
    }

    fn intents() -> Vec<Intent> {
        vec![
            Intent::NodeStarted { bootstrap: None },
            Intent::SessionAllocated {
                session: SessionId::new(1),
                task: TaskId::new(1),
            },
            Intent::EpochAdvanced { version: 2 },
            Intent::SessionClosed {
                session: SessionId::new(1),
            },
        ]
    }

    #[test]
    fn append_then_reopen_replays_identically() {
        let dir = tmp("roundtrip");
        let _ = fs::remove_dir_all(&dir);
        let (mut log, replayed, _) = IntentLog::open(&dir).unwrap();
        assert!(replayed.is_empty());
        for i in intents() {
            log.append(&i).unwrap();
        }
        assert_eq!(log.seq(), 4);
        drop(log);
        let (log, replayed, report) = IntentLog::open(&dir).unwrap();
        assert_eq!(replayed, intents());
        assert_eq!(report.replayed, 4);
        assert!(report.truncated.is_none());
        assert_eq!(log.seq(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmp("torn");
        let _ = fs::remove_dir_all(&dir);
        let (mut log, _, _) = IntentLog::open(&dir).unwrap();
        for i in intents() {
            log.append(&i).unwrap();
        }
        drop(log);
        // Simulate a crash mid-append: chop bytes off the tail.
        let path = dir.join(LOG_FILE);
        let len = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let (mut log, replayed, report) = IntentLog::open(&dir).unwrap();
        assert_eq!(replayed.len(), 3, "last record was torn away");
        assert!(report.truncated.is_some());
        // New appends after the truncation replay cleanly.
        log.append(&Intent::EpochAdvanced { version: 8 }).unwrap();
        drop(log);
        let (_, replayed, report) = IntentLog::open(&dir).unwrap();
        assert_eq!(replayed.len(), 4);
        assert!(report.truncated.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reset_empties_the_log() {
        let dir = tmp("reset");
        let _ = fs::remove_dir_all(&dir);
        let (mut log, _, _) = IntentLog::open(&dir).unwrap();
        for i in intents() {
            log.append(&i).unwrap();
        }
        log.reset().unwrap();
        assert_eq!(log.seq(), 0);
        log.append(&Intent::EpochAdvanced { version: 1 }).unwrap();
        drop(log);
        let (_, replayed, _) = IntentLog::open(&dir).unwrap();
        assert_eq!(replayed, vec![Intent::EpochAdvanced { version: 1 }]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_mid_log_keeps_only_prefix() {
        let dir = tmp("flip");
        let _ = fs::remove_dir_all(&dir);
        let (mut log, _, _) = IntentLog::open(&dir).unwrap();
        for i in intents() {
            log.append(&i).unwrap();
        }
        drop(log);
        let path = dir.join(LOG_FILE);
        let mut buf = fs::read(&path).unwrap();
        // Flip a bit inside the second record's payload.
        let first_json = serde_json::to_string(&intents()[0]).unwrap();
        let first = codec::encode_record(RecordKind::Intent, first_json.as_bytes())
            .unwrap()
            .len();
        buf[first + codec::HEADER_LEN + 2] ^= 0x01;
        fs::write(&path, &buf).unwrap();
        let (_, replayed, report) = IntentLog::open(&dir).unwrap();
        assert_eq!(replayed.len(), 1, "only the intact prefix survives");
        let (off, why) = report.truncated.unwrap();
        assert_eq!(off, first);
        assert!(why.contains("checksum"));
        let _ = fs::remove_dir_all(&dir);
    }
}
