//! The event-list simulator.

use arm_util::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Opaque handle to a scheduled event, usable for cancellation: the slab
/// slot that holds its payload and the sequence number it was scheduled
/// under, which the slot keeps only while the event is pending.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId {
    seq: u64,
    slot: usize,
}

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
    /// `(time, seq, slot)` keys, earliest first; `seq` is unique, so equal
    /// instants pop in scheduling order and `slot` never decides.
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    /// The payload slab: a slot holds `(seq, payload)` while that event is
    /// pending. A key whose slot is empty or holds another `seq` is stale.
    slots: Vec<Option<(u64, E)>>,
    /// Empty slots, reused before the slab grows.
    free: Vec<usize>,
    /// Events scheduled and neither delivered nor cancelled.
    pending: usize,
    next_seq: u64,
    processed: u64,
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
        Self::with_capacity(0)
    }

    /// Creates an empty simulator with pre-allocated event-list capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            now: SimTime::ZERO,
            heap: BinaryHeap::with_capacity(cap),
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            pending: 0,
            next_seq: 0,
            processed: 0,
            max_queue_depth: 0,
        }
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
        let slot = self.free.pop().unwrap_or(self.slots.len());
        match self.slots.get_mut(slot) {
            Some(empty) => *empty = Some((seq, event)),
            None => self.slots.push(Some((seq, event))),
        }
        self.heap.push(Reverse((at, seq, slot)));
        self.pending += 1;
        self.max_queue_depth = self.max_queue_depth.max(self.heap.len());
        EventId { seq, slot }
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
        self.take(id).is_some()
    }

    /// Empties `id`'s slot if its event is still pending.
    fn take(&mut self, id: EventId) -> Option<E> {
        let slot = self.slots.get_mut(id.slot)?;
        let (_, event) = slot.take_if(|(seq, _)| *seq == id.seq)?;
        self.free.push(id.slot);
        self.pending -= 1;
        Some(event)
    }

    /// Pops the next event, advancing virtual time to its timestamp.
    /// Returns `None` when the event list is exhausted.
    pub fn step(&mut self) -> Option<Scheduled<E>> {
        while let Some(Reverse((time, seq, slot))) = self.heap.pop() {
            let id = EventId { seq, slot };
            if let Some(event) = self.take(id) {
                debug_assert!(time >= self.now, "event list went backwards");
                self.now = time;
                self.processed += 1;
                return Some(Scheduled { time, id, event });
            }
        }
        None
    }

    /// Pops the next event only if it fires at or before `deadline`.
    /// If the next event is later (or the list is empty), advances time to
    /// `deadline` and returns `None`.
    pub fn step_until(&mut self, deadline: SimTime) -> Option<Scheduled<E>> {
        match self.peek_time() {
            Some(time) if time <= deadline => self.step(),
            _ => {
                self.now = self.now.max(deadline);
                None
            }
        }
    }

    /// The timestamp of the next pending (non-cancelled) event, after
    /// dropping the stale keys above it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((time, seq, slot))) = self.heap.peek() {
            if matches!(self.slots.get(slot), Some(Some((s, _))) if *s == seq) {
                return Some(time);
            }
            self.heap.pop();
        }
        None
    }

    /// Number of pending events: scheduled, not yet delivered, not
    /// cancelled.
    pub fn pending(&self) -> usize {
        self.pending
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
        self.next_seq
    }

    /// High-water mark of the event-list depth — pending events plus the
    /// keys of cancelled ones not yet popped — the kernel's memory pressure
    /// proxy, maintained in O(1) on schedule.
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
        assert_eq!(sim.pending(), 2);
        assert!(!sim.cancel(b), "double cancel");
        assert_eq!(sim.pending(), 2);
        let order: Vec<u32> = std::iter::from_fn(|| sim.step().map(|s| s.event)).collect();
        assert_eq!(order, vec![1, 3]);
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn cancel_unknown_is_false() {
        let mut sim: Simulator<u32> = Simulator::new();
        assert!(!sim.cancel(EventId { seq: 99, slot: 0 }));
    }

    #[test]
    fn cancel_after_fire_is_false() {
        let mut sim: Simulator<u32> = Simulator::new();
        let a = sim.schedule_at(SimTime::from_secs(1), 1);
        assert_eq!(sim.step().map(|s| s.event), Some(1));
        assert!(!sim.cancel(a), "a fired event cannot be cancelled");
        assert_eq!(sim.pending(), 0);
        // `b` reuses `a`'s slot; the stale id must not reach it.
        let b = sim.schedule_at(SimTime::from_secs(2), 2);
        assert!(!sim.cancel(a));
        assert_eq!(sim.pending(), 1);
        assert!(sim.cancel(b));
        assert_eq!(sim.pending(), 0);
        assert!(sim.step().is_none());
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
    use std::collections::BTreeSet;

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
            // Payloads for which cancel() returned true. Only those never
            // delivered count as cancelled at the end, so the check does
            // not lean on what a cancel after firing answers.
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

#[cfg(test)]
mod reference_model {
    use super::*;
    use proptest::prelude::*;

    /// One call on the kernel; offsets are relative to `now`.
    #[derive(Debug, Clone)]
    enum Op {
        Schedule(u64),
        Step,
        StepUntil(u64),
        PeekTime,
        /// Cancels the n-th id ever issued (mod the count): pending,
        /// fired or already cancelled.
        Cancel(usize),
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            prop_oneof![
                (0u64..10_000).prop_map(Op::Schedule),
                (0u64..10_000).prop_map(Op::Schedule),
                (0u64..10_000).prop_map(Op::Schedule),
                Just(Op::Step),
                (0u64..10_000).prop_map(Op::StepUntil),
                Just(Op::PeekTime),
                any::<usize>().prop_map(Op::Cancel),
            ],
            1..2_000,
        )
    }

    /// The reference event list: every key the kernel's heap holds, sorted
    /// by `(time, seq)`, with a flag for the ones still pending.
    #[derive(Default)]
    struct Model {
        keys: Vec<(SimTime, u64, usize, bool)>,
        now: SimTime,
        processed: u64,
        max_depth: usize,
    }

    impl Model {
        fn schedule(&mut self, at: SimTime, seq: u64, payload: usize) {
            let i = self.keys.partition_point(|k| (k.0, k.1) < (at, seq));
            self.keys.insert(i, (at, seq, payload, true));
            self.max_depth = self.max_depth.max(self.keys.len());
        }

        /// Drops cancelled keys above the earliest pending one, as the
        /// kernel does whenever it looks at the top of its heap.
        fn top(&mut self) -> Option<(SimTime, u64, usize)> {
            while self.keys.first().is_some_and(|k| !k.3) {
                self.keys.remove(0);
            }
            self.keys.first().map(|k| (k.0, k.1, k.2))
        }

        fn step(&mut self, deadline: Option<SimTime>) -> Option<(SimTime, u64, usize)> {
            let top = self.top();
            match top {
                Some((time, ..)) if deadline.is_none_or(|d| time <= d) => {
                    self.keys.remove(0);
                    self.now = time;
                    self.processed += 1;
                    top
                }
                _ => {
                    if let Some(d) = deadline {
                        self.now = self.now.max(d);
                    }
                    None
                }
            }
        }

        fn cancel(&mut self, seq: u64) -> bool {
            match self.keys.iter_mut().find(|k| k.1 == seq && k.3) {
                Some(k) => {
                    k.3 = false;
                    true
                }
                None => false,
            }
        }

        fn pending(&self) -> usize {
            self.keys.iter().filter(|k| k.3).count()
        }
    }

    proptest! {
        /// The slab kernel against a sorted `Vec`: same deliveries in the
        /// same order under the same ids, same cancel answers, same
        /// counters. A schedule that would take the queue past `cap`
        /// pending events steps instead: a shallow cap reuses slots
        /// constantly, a deep one grows the heap to hundreds of keys.
        /// Offsets are taken modulo `span`; a short span makes many
        /// equal instants.
        #[test]
        fn kernel_matches_a_sorted_reference(
            cap in 1usize..301,
            span in prop_oneof![Just(50u64), Just(10_000)],
            ops in ops(),
        ) {
            let mut sim: Simulator<usize> = Simulator::new();
            let mut model = Model::default();
            let mut ids: Vec<EventId> = Vec::new();
            // Seq `n` is the n-th schedule, its payload `n` and its id `ids[n]`.
            let expect = |want: Option<(SimTime, u64, usize)>, ids: &[EventId]| {
                want.map(|(t, seq, p)| (t, ids[seq as usize], p))
            };
            for op in ops {
                match op {
                    Op::Schedule(offset) if model.pending() < cap => {
                        let at = sim.now() + SimDuration::from_micros(offset % span);
                        let payload = ids.len();
                        ids.push(sim.schedule_at(at, payload));
                        model.schedule(at, ids.len() as u64 - 1, payload);
                    }
                    Op::Schedule(_) | Op::Step => {
                        let got = sim.step().map(|s| (s.time, s.id, s.event));
                        prop_assert_eq!(got, expect(model.step(None), &ids));
                    }
                    Op::StepUntil(offset) => {
                        let deadline = sim.now() + SimDuration::from_micros(offset % span);
                        let got = sim.step_until(deadline).map(|s| (s.time, s.id, s.event));
                        prop_assert_eq!(got, expect(model.step(Some(deadline)), &ids));
                    }
                    Op::PeekTime => {
                        prop_assert_eq!(sim.peek_time(), model.top().map(|k| k.0));
                    }
                    Op::Cancel(n) if !ids.is_empty() => {
                        let n = n % ids.len();
                        prop_assert_eq!(sim.cancel(ids[n]), model.cancel(n as u64));
                    }
                    Op::Cancel(_) => {}
                }
                prop_assert_eq!(sim.now(), model.now);
                prop_assert_eq!(sim.pending(), model.pending());
                prop_assert_eq!(sim.processed(), model.processed);
                prop_assert_eq!(sim.max_queue_depth(), model.max_depth);
            }
            // Drain the rest in the model's order.
            loop {
                let got = sim.step().map(|s| (s.time, s.id, s.event));
                prop_assert_eq!(got, expect(model.step(None), &ids));
                if got.is_none() {
                    break;
                }
            }
            prop_assert_eq!(sim.pending(), 0);
            prop_assert_eq!(sim.processed(), model.processed);
            prop_assert_eq!(sim.scheduled_total(), ids.len() as u64);
        }
    }
}
