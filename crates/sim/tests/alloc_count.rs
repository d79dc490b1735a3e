//! Heap allocations per simulated event, counted exactly.
//!
//! A counting global allocator (this test binary's own choice) tallies the
//! allocations the simulating thread makes while a `sim_des`-shaped run
//! executes: 2 clusters of 32 peers for 60 simulated seconds, ten requests
//! a second, a fifth of the peers churning, the default protocol — the
//! benchmark's `sim_des` scenario at its smoke size. The event count
//! repeats exactly per seed; the allocation count does too on one build,
//! and the bound leaves about 10 % for a capacity tweak.

use arm_net::churn::ChurnParams;
use arm_sim::{ScenarioConfig, Simulation};
use arm_util::SimTime;
use arm_workload::WorkloadConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left; nothing to count then.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through this allocator, with
        // `layout`; the caller's guarantees are passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The `sim_des` scenario with 2 clusters and a 60 s horizon.
fn scenario(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        clusters: 2,
        peers_per_cluster: 32,
        horizon: SimTime::from_secs(60),
        workload: WorkloadConfig {
            arrival_rate: 10.0,
            ..WorkloadConfig::default()
        },
        churn: Some(ChurnParams {
            mean_uptime_secs: 300.0,
            mean_downtime_secs: 30.0,
            churning_fraction: 0.2,
            ..ChurnParams::default()
        }),
        ..ScenarioConfig::default()
    }
}

#[test]
fn sim_des_allocations_per_event_stay_bounded() {
    let sim = Simulation::new(scenario(1));
    let before = ALLOCATIONS.with(Cell::get);
    let report = sim.run();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let events = report.events_processed;
    let per_event = allocations as f64 / events as f64;
    println!("{events} events, {allocations} allocations, {per_event:.3} per event");
    assert_eq!(events, EVENTS, "the seed's event count moved");
    assert!(
        per_event <= MAX_PER_EVENT,
        "{per_event:.3} allocations per event, above {MAX_PER_EVENT}"
    );
}

/// Events of seed 1.
const EVENTS: u64 = 17_990;
/// Seed 1 makes 45,866 allocations, 2.55 per event; this leaves about 10 %.
const MAX_PER_EVENT: f64 = 2.8;
