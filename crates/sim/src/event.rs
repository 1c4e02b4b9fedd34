//! The deterministic future-event list.
//!
//! Events pop in `(time, seq)` order, where the monotonically increasing
//! sequence number makes simultaneous events fire in insertion order.
//! That FIFO tie-break is what makes whole-system runs exactly
//! reproducible (the paper's experiments are all comparative, so
//! run-to-run determinism is a feature, not a nicety).
//!
//! [`CalendarQueue`] is a binary heap plus one sorted run. A run arms
//! most of its events before the first pop — the fault plan, every
//! planned release of an open-arrival workload, the t = 0 wake-ups —
//! and afterwards keeps only a few pending (about one per client and up
//! to three per shard). The events scheduled before the first pop are
//! sorted once and then popped off the end of that run in O(1); the
//! rest go through the heap.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A pending event: fires at `at`, carrying a caller-defined payload.
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Scheduled<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other.key().cmp(&self.key())
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic priority queue of timestamped events.
///
/// Events scheduled for the same instant are delivered in the order they
/// were scheduled (FIFO tie-breaking), whether they wait in the sorted
/// run or in the heap.
///
/// # Example
/// ```
/// use skipper_sim::{CalendarQueue, SimTime};
///
/// let mut q = CalendarQueue::new();
/// q.schedule(SimTime::from_secs(5), "later");
/// q.schedule(SimTime::from_secs(1), "first");
/// q.schedule(SimTime::from_secs(1), "second");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "first")));
/// q.schedule(SimTime::from_secs(1), "third");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "second")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "third")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(5), "later")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct CalendarQueue<E> {
    /// Events scheduled after the first pop.
    heap: BinaryHeap<Scheduled<E>>,
    /// Events scheduled before the first pop; the first pop sorts them
    /// descending by `(time, seq)`, so the earliest is the last entry.
    run: Vec<Scheduled<E>>,
    /// Whether `pop` has been called (and `run` sorted).
    popped: bool,
    next_seq: u64,
    /// Highest timestamp ever popped; used to catch time-travel bugs.
    last_popped: SimTime,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            heap: BinaryHeap::new(),
            run: Vec::new(),
            popped: false,
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedules `payload` to fire at instant `at`.
    ///
    /// # Panics
    /// Panics if `at` lies before the last popped event: a discrete-event
    /// simulation must never schedule into its own past.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.last_popped,
            "scheduled event at {at:?} before current simulation time {:?}",
            self.last_popped
        );
        let ev = Scheduled {
            at,
            seq: self.next_seq,
            payload,
        };
        self.next_seq += 1;
        if self.popped {
            self.heap.push(ev);
        } else {
            self.run.push(ev);
        }
    }

    /// Removes and returns the earliest event, or `None` when the
    /// simulation has run dry.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if !self.popped {
            self.popped = true;
            self.run.sort_unstable_by_key(|ev| Reverse(ev.key()));
        }
        let from_run = match (self.run.last(), self.heap.peek()) {
            (Some(r), Some(h)) => r.key() < h.key(),
            (run, _) => run.is_some(),
        };
        let ev = if from_run {
            self.run.pop()
        } else {
            self.heap.pop()
        }?;
        debug_assert!(ev.at >= self.last_popped);
        self.last_popped = ev.at;
        Some((ev.at, ev.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current simulation time (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.last_popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::splitmix64;
    use crate::time::SimDuration;

    /// One step of a schedule: schedule an event this long after the
    /// current time, or pop one.
    #[derive(Clone, Copy)]
    enum Op {
        After(SimDuration),
        Pop,
    }

    /// The reference: a plain list from which `pop` removes the minimum
    /// `(time, seq)`.
    #[derive(Default)]
    struct Model {
        pending: Vec<(SimTime, u64)>,
        next_seq: u64,
        now: SimTime,
    }

    impl Model {
        fn schedule(&mut self, at: SimTime) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.pending.push((at, seq));
            seq
        }

        fn pop(&mut self) -> Option<(SimTime, u64)> {
            let (i, _) = self.pending.iter().enumerate().min_by_key(|(_, k)| **k)?;
            let ev = self.pending.swap_remove(i);
            self.now = ev.0;
            Some(ev)
        }
    }

    /// Runs `ops` on a queue and on the model in lockstep, then drains
    /// both; every pop, `len` and `now` must agree. Payloads are the
    /// model's seqs. Returns every popped event in order.
    fn matches_model(ops: impl IntoIterator<Item = Op>) -> Vec<(SimTime, u64)> {
        let mut q = CalendarQueue::new();
        let mut model = Model::default();
        let mut popped = Vec::new();
        for op in ops {
            match op {
                Op::After(offset) => {
                    let at = model.now + offset;
                    q.schedule(at, model.schedule(at));
                }
                Op::Pop => {
                    let ev = model.pop();
                    assert_eq!(q.pop(), ev, "pop diverged");
                    popped.extend(ev);
                }
            }
            assert_eq!(q.len(), model.pending.len(), "len diverged");
            assert_eq!(q.now(), model.now, "now diverged");
        }
        while let Some(ev) = model.pop() {
            assert_eq!(q.pop(), Some(ev), "drain diverged");
            popped.push(ev);
        }
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
        popped
    }

    fn secs(s: u64) -> Op {
        Op::After(SimDuration::from_secs(s))
    }

    #[test]
    fn pops_in_time_order() {
        // Everything scheduled before the first pop: the sorted run.
        let mut q = CalendarQueue::new();
        for secs in [9u64, 3, 7, 1, 5] {
            q.schedule(SimTime::from_secs(secs), secs);
        }
        let mut out = Vec::new();
        while let Some((_, v)) = q.pop() {
            out.push(v);
        }
        assert_eq!(out, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn calendar_pops_in_time_order() {
        // Events scheduled on both sides of the first pop interleave.
        let mut q = CalendarQueue::new();
        for secs in [9u64, 3, 7] {
            q.schedule(SimTime::from_secs(secs), secs);
        }
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), 3)));
        for secs in [8u64, 4, 10] {
            q.schedule(SimTime::from_secs(secs), secs);
        }
        assert_eq!(q.len(), 5);
        let mut out = Vec::new();
        while let Some((_, v)) = q.pop() {
            out.push(v);
        }
        assert_eq!(out, vec![4, 7, 8, 9, 10]);
        assert!(q.is_empty());
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = CalendarQueue::new();
        let t = SimTime::from_secs(2);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn calendar_simultaneous_events_are_fifo() {
        // Same-instant ties across the run and the heap pop by seq.
        let mut q = CalendarQueue::new();
        let t = SimTime::from_secs(2);
        for i in 0..50 {
            q.schedule(t, i);
        }
        assert_eq!(q.pop(), Some((t, 0)));
        for i in 50..100 {
            q.schedule(t, i);
        }
        for i in 1..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn tracks_now() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(SimTime::from_secs(4), ());
        q.schedule(SimTime::from_secs(6), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(4));
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(6));
        // Running dry leaves the clock where it was.
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), SimTime::from_secs(6));
    }

    #[test]
    fn calendar_tracks_now_and_zero_delay() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(SimTime::from_secs(4), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(4));
        // Scheduling at exactly `now` is allowed (zero-delay follow-ups).
        q.schedule(q.now(), ());
        assert_eq!(q.pop(), Some((SimTime::from_secs(4), ())));
    }

    #[test]
    #[should_panic(expected = "before current simulation time")]
    fn rejects_scheduling_into_the_past() {
        // The last pop came from the run.
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        q.pop();
        q.schedule(SimTime::from_secs(10) - SimDuration::from_secs(1), ());
    }

    #[test]
    #[should_panic(expected = "before current simulation time")]
    fn calendar_rejects_scheduling_into_the_past() {
        // The last pop came from the heap.
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        q.pop();
        q.schedule(SimTime::from_secs(20), ());
        q.pop();
        q.schedule(SimTime::from_secs(15), ());
    }

    #[test]
    fn calendar_survives_sparse_schedules() {
        // Events days of virtual time apart, first all in the run, then
        // a second ladder through the heap.
        let day = 86_400;
        let mut ops: Vec<Op> = (0..50).map(|i| secs(i * day)).collect();
        ops.push(Op::Pop);
        ops.extend((0..50).map(|i| secs(i * day + 1)));
        let got = matches_model(ops);
        let mut want: Vec<_> = (0..50)
            .map(|i| (SimTime::from_secs(i * day), i))
            .chain((0..50).map(|i| (SimTime::from_secs(i * day + 1), 50 + i)))
            .collect();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn calendar_survives_growth_and_shrink() {
        // Push 1 000 dense events, drain 900, refill with a sparse tail.
        let mut ops: Vec<Op> = (0..1000u64)
            .map(|i| Op::After(SimDuration::from_micros(i * 17 % 4096)))
            .collect();
        ops.extend(std::iter::repeat_n(Op::Pop, 900));
        ops.extend((0..32).map(secs));
        let got = matches_model(ops);
        assert_eq!(got.len(), 1032);
        assert!(got.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn calendar_same_instant_waves_pop_fifo() {
        // 200 simultaneous events, a partial drain, a second wave at the
        // same instant into the heap, then a later burst.
        let mut ops: Vec<Op> = std::iter::repeat_n(secs(3), 200).collect();
        ops.extend(std::iter::repeat_n(Op::Pop, 50));
        ops.extend(std::iter::repeat_n(secs(0), 200));
        ops.extend(std::iter::repeat_n(Op::Pop, 350));
        ops.extend(std::iter::repeat_n(secs(4000 - 3), 100));
        let got = matches_model(ops);
        let t = SimTime::from_secs(3);
        let t2 = SimTime::from_secs(4000);
        let want: Vec<_> = (0..400)
            .map(|i| (t, i))
            .chain((400..500).map(|i| (t2, i)))
            .collect();
        assert_eq!(got, want);
    }

    /// The differential sweep: random interleavings of schedule and pop
    /// — a random prefix before the first pop, bursts of simultaneous
    /// events, ties with pending events (run or heap) and sparse leaps —
    /// must pop exactly as the model does.
    #[test]
    fn calendar_matches_model_differentially() {
        // The offset scale is randomized per event so dense and sparse
        // regimes interleave.
        fn random_offset(state: &mut u64) -> SimDuration {
            let scale = [1u64, 1000, 1_000_000, 3_600_000_000][(splitmix64(state) % 4) as usize];
            SimDuration::from_micros((splitmix64(state) % 50) * scale)
        }
        for case in 0..40u64 {
            let mut state = 0x5EED_0000 + case;
            let mut q: CalendarQueue<u64> = CalendarQueue::new();
            let mut model = Model::default();
            for _ in 0..splitmix64(&mut state) % 200 {
                let at = model.now + random_offset(&mut state);
                q.schedule(at, model.schedule(at));
            }
            for _round in 0..400 {
                let r = splitmix64(&mut state);
                match r % 6 {
                    // Schedule 1-4 events at now + random offset.
                    0..=2 => {
                        for _ in 0..1 + splitmix64(&mut state) % 4 {
                            let at = model.now + random_offset(&mut state);
                            q.schedule(at, model.schedule(at));
                        }
                    }
                    // Duplicate-time burst: everything at one instant.
                    3 => {
                        let at = model.now + SimDuration::from_secs(splitmix64(&mut state) % 3);
                        for _ in 0..3 {
                            q.schedule(at, model.schedule(at));
                        }
                    }
                    // A tie with some pending event, wherever it waits.
                    4 if !model.pending.is_empty() => {
                        let i = (splitmix64(&mut state) % model.pending.len() as u64) as usize;
                        let at = model.pending[i].0;
                        q.schedule(at, model.schedule(at));
                    }
                    // Pop a few.
                    _ => {
                        for _ in 0..1 + splitmix64(&mut state) % 6 {
                            assert_eq!(q.pop(), model.pop(), "case {case}: pop diverged");
                            assert_eq!(q.now(), model.now);
                        }
                    }
                }
                assert_eq!(q.len(), model.pending.len(), "case {case}: len diverged");
            }
            // Drain: the tails must agree too.
            loop {
                let want = model.pop();
                assert_eq!(q.pop(), want, "case {case}: drain diverged");
                if want.is_none() {
                    break;
                }
            }
        }
    }
}
