//! The event-list simulator.

use arm_util::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An event popped from the simulator: when it fired and its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// The virtual instant the event fired at.
    pub time: SimTime,
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
    /// The payload slab: a slot holds its event's payload from schedule
    /// to delivery, and exactly one heap key names each full slot.
    slots: Vec<Option<E>>,
    /// Empty slots, reused before the slab grows.
    free: Vec<usize>,
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
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        let slot = self.free.pop().unwrap_or(self.slots.len());
        match self.slots.get_mut(slot) {
            Some(empty) => *empty = Some(event),
            None => self.slots.push(Some(event)),
        }
        self.heap.push(Reverse((at, seq, slot)));
        self.max_queue_depth = self.max_queue_depth.max(self.heap.len());
    }

    /// Schedules `event` after a relative delay.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        let at = self.now.saturating_add(delay);
        self.schedule_at(at, event)
    }

    /// Pops the next event, advancing virtual time to its timestamp.
    /// Returns `None` when the event list is exhausted.
    pub fn step(&mut self) -> Option<Scheduled<E>> {
        let Reverse((time, _, slot)) = self.heap.pop()?;
        let event = self
            .slots
            .get_mut(slot)
            .and_then(Option::take)
            .expect("every heap key names a full slot");
        self.free.push(slot);
        debug_assert!(time >= self.now, "event list went backwards");
        self.now = time;
        self.processed = self.processed.wrapping_add(1);
        Some(Scheduled { time, event })
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

    /// The timestamp of the next pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse((time, ..))| time)
    }

    /// Number of pending events: scheduled, not yet delivered.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// True if no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events delivered so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// High-water mark of the pending-event count, the kernel's memory
    /// pressure proxy, maintained in O(1) on schedule.
    pub fn max_queue_depth(&self) -> usize {
        self.max_queue_depth
    }
}

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
    fn empty_simulator() {
        let mut sim: Simulator<()> = Simulator::new();
        assert!(sim.is_empty());
        assert!(sim.step().is_none());
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(sim.pending(), 0);
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
                last = ev.time;
                count += 1;
            }
            prop_assert_eq!(count, times.len());
        }
    }
}

#[cfg(test)]
mod more_proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Interleaved schedule/step operations never violate the
    /// timestamp-order guarantee and deliver every event exactly once.
    #[derive(Debug, Clone)]
    enum Op {
        Schedule(u64),
        Step,
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            prop_oneof![(0u64..10_000).prop_map(Op::Schedule), Just(Op::Step)],
            1..300,
        )
    }

    proptest! {
        #[test]
        fn interleaved_ops_preserve_invariants(ops in ops()) {
            let mut sim: Simulator<usize> = Simulator::new();
            let mut scheduled = 0usize;
            let mut delivered: BTreeSet<usize> = BTreeSet::new();
            let mut last_time = SimTime::ZERO;
            for op in ops {
                match op {
                    Op::Schedule(offset) => {
                        sim.schedule_at(sim.now() + SimDuration::from_micros(offset), scheduled);
                        scheduled += 1;
                    }
                    Op::Step => {
                        if let Some(ev) = sim.step() {
                            prop_assert!(ev.time >= last_time, "time went backwards");
                            last_time = ev.time;
                            prop_assert!(delivered.insert(ev.event), "double delivery");
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
            prop_assert_eq!(delivered.len(), scheduled,
                "every scheduled event is delivered exactly once");
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
            ],
            1..2_000,
        )
    }

    /// The reference event list: every pending `(time, payload)`, sorted
    /// by time and then by scheduling order.
    #[derive(Default)]
    struct Model {
        keys: Vec<(SimTime, usize)>,
        now: SimTime,
        processed: u64,
        max_depth: usize,
    }

    impl Model {
        fn schedule(&mut self, at: SimTime, payload: usize) {
            // Payloads count up, so the order of `(time, payload)` is the
            // order of `(time, scheduling sequence)`.
            let i = self.keys.partition_point(|&k| k < (at, payload));
            self.keys.insert(i, (at, payload));
            self.max_depth = self.max_depth.max(self.keys.len());
        }

        fn step(&mut self, deadline: Option<SimTime>) -> Option<(SimTime, usize)> {
            match self.keys.first() {
                Some(&(time, payload)) if deadline.is_none_or(|d| time <= d) => {
                    self.keys.remove(0);
                    self.now = time;
                    self.processed += 1;
                    Some((time, payload))
                }
                _ => {
                    if let Some(d) = deadline {
                        self.now = self.now.max(d);
                    }
                    None
                }
            }
        }
    }

    proptest! {
        /// The slab kernel against a sorted `Vec`: same deliveries in the
        /// same order, same counters. A schedule that would take the
        /// queue past `cap` pending events steps instead: a shallow cap
        /// reuses slots constantly, a deep one grows the heap to hundreds
        /// of keys. Offsets are taken modulo `span`; a short span makes
        /// many equal instants.
        #[test]
        fn kernel_matches_a_sorted_reference(
            cap in 1usize..301,
            span in prop_oneof![Just(50u64), Just(10_000)],
            ops in ops(),
        ) {
            let mut sim: Simulator<usize> = Simulator::new();
            let mut model = Model::default();
            let mut scheduled = 0usize;
            for op in ops {
                match op {
                    Op::Schedule(offset) if model.keys.len() < cap => {
                        let at = sim.now() + SimDuration::from_micros(offset % span);
                        sim.schedule_at(at, scheduled);
                        model.schedule(at, scheduled);
                        scheduled += 1;
                    }
                    Op::Schedule(_) | Op::Step => {
                        let got = sim.step().map(|s| (s.time, s.event));
                        prop_assert_eq!(got, model.step(None));
                    }
                    Op::StepUntil(offset) => {
                        let deadline = sim.now() + SimDuration::from_micros(offset % span);
                        let got = sim.step_until(deadline).map(|s| (s.time, s.event));
                        prop_assert_eq!(got, model.step(Some(deadline)));
                    }
                    Op::PeekTime => {
                        prop_assert_eq!(sim.peek_time(), model.keys.first().map(|k| k.0));
                    }
                }
                prop_assert_eq!(sim.now(), model.now);
                prop_assert_eq!(sim.pending(), model.keys.len());
                prop_assert_eq!(sim.processed(), model.processed);
                prop_assert_eq!(sim.max_queue_depth(), model.max_depth);
            }
            // Drain the rest in the model's order.
            loop {
                let got = sim.step().map(|s| (s.time, s.event));
                prop_assert_eq!(got, model.step(None));
                if got.is_none() {
                    break;
                }
            }
            prop_assert_eq!(sim.pending(), 0);
            prop_assert_eq!(sim.processed(), model.processed);
        }
    }
}
