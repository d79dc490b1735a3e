//! The fixture the live-cluster integration tests share: the library's
//! demo overlay (`runtime::demo`) plus a long-lived demo task and a bounded
//! wait.
#![allow(dead_code, reason = "each test binary uses a subset")]

use adaptive_p2p_rm::model::TaskSpec;
use adaptive_p2p_rm::runtime::{demo, Telemetry};
use adaptive_p2p_rm::util::NodeId;
use std::time::{Duration, Instant};

/// The demo task with a session long enough to outlive the test, so the RM
/// has a live session while faults are injected.
pub fn demo_task(id: u64, requester: NodeId) -> TaskSpec {
    TaskSpec {
        session_secs: 60.0,
        ..demo::demo_task(id, requester)
    }
}

pub fn count_kind(telemetry: &Telemetry, want: &str) -> usize {
    telemetry
        .traces
        .iter()
        .filter(|ev| ev.kind.name() == want)
        .count()
}

/// Polls `check` until it returns true or `deadline` expires, so a wedged
/// cluster fails the test instead of hanging CI.
pub fn wait_for(deadline: Instant, what: &str, mut check: impl FnMut() -> bool) {
    while !check() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(25));
    }
}
