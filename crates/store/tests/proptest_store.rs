//! Satellite: property-based crash-safety coverage for arm-store.
//!
//! Three families of properties:
//!
//! * **Round-trip identity** — arbitrary intent logs and snapshots encode
//!   → decode to exactly what was written.
//! * **Corruption tolerance** — truncated or bit-flipped logs never
//!   panic, never yield a half-committed intent, and never resurrect an
//!   intent that was not appended: replay is always an in-order
//!   subsequence (a clean prefix, for pure truncation) of the original.
//! * **State-controller model** — merging per-session intent chains in
//!   *any* interleaving (per-chain order preserved, as concurrency
//!   delivers them) folds to the same state, whose live set is exactly
//!   the sessions allocated and never closed. This is the property
//!   recovery replay leans on.

use arm_store::codec::{self, RecordKind};
use arm_store::log::replay_intents;
use arm_store::snapshot::{decode_snapshot, encode_snapshot};
use arm_store::{Intent, StateController, StoreSnapshot, SNAPSHOT_FORMAT};
use arm_util::{DomainId, NodeId, SessionId, TaskId};
use proptest::prelude::*;
use std::collections::BTreeSet;

// ------------------------------------------------------------- strategies

fn arb_intent() -> impl Strategy<Value = Intent> {
    prop_oneof![
        (0u64..50).prop_map(|n| Intent::NodeStarted {
            bootstrap: if n % 2 == 0 {
                None
            } else {
                Some(NodeId::new(n))
            },
        }),
        (0u64..50).prop_map(|d| Intent::DomainFounded {
            domain: DomainId::new(d),
        }),
        (0u64..50, 0u64..50).prop_map(|(d, r)| Intent::JoinAccepted {
            domain: DomainId::new(d),
            rm: NodeId::new(r),
        }),
        (0u64..50, 0u64..1000).prop_map(|(d, v)| Intent::RmAssumed {
            domain: DomainId::new(d),
            version: v,
        }),
        (0u64..50).prop_map(|n| Intent::RmYielded { to: NodeId::new(n) }),
        any::<bool>().prop_map(|graceful| Intent::ShutdownRequested { graceful }),
        (0u64..100, 0u64..100).prop_map(|(s, t)| Intent::SessionAllocated {
            session: SessionId::new(s),
            task: TaskId::new(t),
        }),
        (0u64..100, any::<bool>()).prop_map(|(s, ok)| Intent::RepairFinished {
            session: SessionId::new(s),
            ok,
        }),
        (0u64..100).prop_map(|s| Intent::SessionClosed {
            session: SessionId::new(s),
        }),
        (0u64..10_000).prop_map(|v| Intent::EpochAdvanced { version: v }),
    ]
}

fn arb_snapshot() -> impl Strategy<Value = StoreSnapshot> {
    (
        // node id, raw phase tag (including unknown future tags),
        // domain/rm presence
        (0u64..100, 0u8..10, any::<bool>(), 0u64..50, 0u64..50),
        // sessions: (id, raw phase tag) — unknown tags must survive the
        // codec untouched
        proptest::collection::vec((0u64..100, 0u8..10), 0..8),
        (0u64..1000, 0u64..1000, any::<bool>(), 0u64..1_000_000),
    )
        .prop_map(
            |((node, phase, with_refs, domain, rm), sessions, (pulse, wal, clean, at))| {
                StoreSnapshot {
                    format: SNAPSHOT_FORMAT,
                    node: NodeId::new(node),
                    phase,
                    domain: with_refs.then(|| DomainId::new(domain)),
                    rm: with_refs.then(|| NodeId::new(rm)),
                    rm_state: None,
                    sessions: sessions
                        .into_iter()
                        .map(|(s, tag)| (SessionId::new(s), tag))
                        .collect(),
                    pulse_cursor: pulse,
                    wal_seq: wal,
                    clean,
                    written_at_us: at,
                }
            },
        )
}

// --------------------------------------------------------------- helpers

/// Frames `intents` exactly like `IntentLog::append` does (no I/O).
fn encode_log(intents: &[Intent]) -> Vec<u8> {
    let mut buf = Vec::new();
    for intent in intents {
        let json = serde_json::to_string(intent).expect("intent serializes");
        let rec = codec::encode_record(RecordKind::Intent, json.as_bytes()).expect("record fits");
        buf.extend_from_slice(&rec);
    }
    buf
}

/// Is `sub` an in-order subsequence of `all`?
fn is_subsequence(sub: &[Intent], all: &[Intent]) -> bool {
    let mut rest = all.iter();
    sub.iter().all(|x| rest.any(|y| y == x))
}

/// Merges per-source chains into one stream: `picks` chooses which
/// still-nonempty chain yields its next intent; leftovers drain in chain
/// order. Per-chain order is always preserved — this models concurrent
/// sources racing into one WAL.
fn merge_chains(chains: &[Vec<Intent>], picks: &[u64]) -> Vec<Intent> {
    let mut idx = vec![0usize; chains.len()];
    let mut out = Vec::new();
    for &p in picks {
        let live: Vec<usize> = (0..chains.len())
            .filter(|&c| idx[c] < chains[c].len())
            .collect();
        if live.is_empty() {
            break;
        }
        let c = live[p as usize % live.len()];
        out.push(chains[c][idx[c]].clone());
        idx[c] += 1;
    }
    for (c, chain) in chains.iter().enumerate() {
        out.extend(chain[idx[c]..].iter().cloned());
    }
    out
}

/// Builds the per-case chain set from raw sampled parameters: a node
/// prelude, one lifecycle chain per session, and free-floating epoch
/// advances. Each chain is internally ordered; cross-chain order is the
/// interleaving under test. A session's `end` is 0 (still live), 1
/// (`SessionClosed`) or 2 (an older node's repair records: one repaired,
/// then one that failed).
fn build_chains(prelude_kind: u8, ends: &[u8], epochs: &[u64]) -> Vec<Vec<Intent>> {
    let mut chains = Vec::new();
    let prelude = match prelude_kind % 3 {
        0 => vec![
            Intent::NodeStarted { bootstrap: None },
            Intent::DomainFounded {
                domain: DomainId::new(1),
            },
        ],
        1 => vec![
            Intent::NodeStarted {
                bootstrap: Some(NodeId::new(9)),
            },
            Intent::JoinAccepted {
                domain: DomainId::new(1),
                rm: NodeId::new(9),
            },
        ],
        _ => vec![
            Intent::NodeStarted {
                bootstrap: Some(NodeId::new(9)),
            },
            Intent::JoinAccepted {
                domain: DomainId::new(1),
                rm: NodeId::new(9),
            },
            Intent::RmAssumed {
                domain: DomainId::new(1),
                version: 3,
            },
        ],
    };
    chains.push(prelude);
    for (i, end) in ends.iter().enumerate() {
        let session = SessionId::new(100 + i as u64);
        let mut chain = vec![Intent::SessionAllocated {
            session,
            task: TaskId::new(100 + i as u64),
        }];
        match end % 3 {
            0 => {}
            1 => chain.push(Intent::SessionClosed { session }),
            _ => chain.extend([true, false].map(|ok| Intent::RepairFinished { session, ok })),
        }
        chains.push(chain);
    }
    for &v in epochs {
        chains.push(vec![Intent::EpochAdvanced { version: v }]);
    }
    chains
}

// ------------------------------------------------------------ properties

proptest! {
    /// WAL round-trip identity: whatever is appended replays verbatim,
    /// with a clean report.
    #[test]
    fn log_roundtrip_is_identity(
        intents in proptest::collection::vec(arb_intent(), 0..40),
    ) {
        let buf = encode_log(&intents);
        let (replayed, report) = replay_intents(&buf);
        prop_assert_eq!(&replayed, &intents);
        prop_assert_eq!(report.replayed, intents.len());
        prop_assert_eq!(report.skipped, 0);
        prop_assert_eq!(report.good_bytes, buf.len());
        prop_assert!(report.truncated.is_none());
    }

    /// Snapshot round-trip identity, including raw phase tags from the
    /// future — the codec carries them; only `live_sessions` filters.
    #[test]
    fn snapshot_roundtrip_is_identity(snap in arb_snapshot()) {
        let bytes = encode_snapshot(&snap).expect("snapshot encodes");
        let back = decode_snapshot(&bytes).expect("snapshot decodes");
        prop_assert_eq!(back, Some(snap));
    }

    /// Truncating the log at any byte offset — the torn-write crash case
    /// — never panics and replays exactly the committed prefix: a record
    /// cut anywhere (even mid-header) vanishes entirely.
    #[test]
    fn truncated_replay_is_a_committed_prefix(
        intents in proptest::collection::vec(arb_intent(), 1..30),
        cut in 0u64..10_000,
    ) {
        let buf = encode_log(&intents);
        let cut = cut as usize % (buf.len() + 1);
        let (replayed, report) = replay_intents(&buf[..cut]);
        prop_assert!(replayed.len() <= intents.len());
        prop_assert_eq!(&replayed[..], &intents[..replayed.len()]);
        // A mid-record cut is reported as truncation, never as success
        // with a mangled intent.
        if cut < buf.len() {
            prop_assert!(report.good_bytes <= cut);
        }
        let _ = report;
    }

    /// Flipping any single bit anywhere in the log never panics and never
    /// fabricates an intent: everything replayed is an in-order
    /// subsequence of what was appended (CRC framing truncates or skips
    /// the damaged record; it cannot rewrite one).
    #[test]
    fn bit_flip_never_resurrects_foreign_intents(
        intents in proptest::collection::vec(arb_intent(), 1..30),
        pos in 0u64..1_000_000,
        bit in 0u8..8,
    ) {
        let mut buf = encode_log(&intents);
        let pos = pos as usize % buf.len();
        buf[pos] ^= 1 << bit;
        let (replayed, report) = replay_intents(&buf);
        prop_assert!(
            is_subsequence(&replayed, &intents),
            "replay fabricated an intent: {:?} from {:?}",
            replayed,
            intents
        );
        // Feeding the damaged replay into a fresh controller must also be
        // safe (this is exactly what recovery does), and no session it
        // calls live was missing from what was appended.
        let mut damaged = StateController::new();
        damaged.replay(&replayed);
        let allocated: BTreeSet<SessionId> = intents
            .iter()
            .filter_map(|i| match i {
                Intent::SessionAllocated { session, .. } => Some(*session),
                _ => None,
            })
            .collect();
        prop_assert!(damaged.live_sessions().is_subset(&allocated));
        let _ = report;
    }

    /// The state-controller model property: any two interleavings of the
    /// per-source chains (node prelude, one chain per session, epoch
    /// advances) fold to the same state, and its live set is the sessions
    /// whose chain did not end.
    #[test]
    fn interleavings_converge_to_the_sequential_state(
        prelude_kind in 0u8..3,
        ends in proptest::collection::vec(0u8..3, 1..5),
        picks_a in proptest::collection::vec(0u64..1_000, 0..60),
        picks_b in proptest::collection::vec(0u64..1_000, 0..60),
        epochs in proptest::collection::vec(0u64..100, 0..4),
    ) {
        let chains = build_chains(prelude_kind, &ends, &epochs);
        let mut reference = StateController::new();
        reference.replay(&merge_chains(&chains, &picks_a));
        let mut other = StateController::new();
        other.replay(&merge_chains(&chains, &picks_b));
        prop_assert_eq!(&other, &reference);
        let live: BTreeSet<SessionId> = (0..ends.len())
            .filter(|i| ends[*i] % 3 == 0)
            .map(|i| SessionId::new(100 + i as u64))
            .collect();
        prop_assert_eq!(reference.live_sessions(), &live);
    }
}
