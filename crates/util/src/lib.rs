//! Foundation utilities for the adaptive P2P resource-management middleware.
//!
//! This crate is dependency-light and shared by every other crate in the
//! workspace. It provides:
//!
//! * strongly-typed identifiers ([`id`]),
//! * a microsecond-resolution virtual clock ([`time`]),
//! * deterministic, splittable random-number streams ([`rng`]),
//! * streaming statistics — EWMA and exact small-sample summaries
//!   ([`stats`]),
//! * Jain's fairness index, the load-balance metric of the paper's §4.2
//!   ([`fairness`]),
//! * Bloom filters used for inter-domain object/service summaries, the
//!   paper's §3.1 ([`bloom`]),
//! * the checksummed record framing the wire codec and the on-disk store
//!   share ([`framing`]),
//! * the workspace's one lock type, [`Lock`], which asserts in debug
//!   builds that no thread holds two at once ([`sync`]).
//!
//! Everything here is deterministic: no wall-clock reads, no global state,
//! no ambient randomness. Experiments are reproducible from their seeds.
//! The one piece of global state is debug-only: the thread-local flag
//! with which [`Lock`] checks that every lock is a leaf.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bloom;
pub mod fairness;
pub mod framing;
pub mod id;
pub mod rng;
pub mod stats;
pub mod sync;
pub mod time;

pub use bloom::BloomFilter;
pub use fairness::{fairness_index, fairness_upper_bound, FairnessTracker};
pub use id::{DomainId, NodeId, ObjectId, ServiceId, SessionId, TaskId};
pub use rng::DetRng;
pub use stats::Ewma;
pub use sync::Lock;
pub use time::{SimDuration, SimTime};
