//! Deterministic future-event lists.
//!
//! Two implementations of one contract — events pop in `(time, seq)`
//! order, where the monotonically increasing sequence number makes
//! simultaneous events fire in insertion order. That FIFO tie-break is
//! what makes whole-system runs exactly reproducible (the paper's
//! experiments are all comparative, so run-to-run determinism is a
//! feature, not a nicety):
//!
//! * [`EventQueue`] — the original thin wrapper over a binary heap:
//!   O(log n) per schedule/pop. It survives as the *reference
//!   implementation* the differential tests diff the calendar queue
//!   against, mirroring the `NaiveQueue` pattern in `skipper-csd`.
//! * [`CalendarQueue`] — a bucketed timer wheel (Brown's calendar
//!   queue) with O(1) amortized schedule/pop, the production queue of
//!   the runtime event loop. The wheel adapts its bucket width and
//!   bucket count to the observed event density, so it stays O(1) on
//!   both microsecond-dense and multi-second-sparse schedules.
//!
//! Both expose the same inherent `schedule`/`pop`/`len`/`now` surface;
//! the runtime drives the calendar queue directly. Determinism contract:
//! for any interleaving of `schedule` and `pop` calls, the two
//! implementations produce identical pop sequences (pinned by the
//! differential sweep in this module's tests).

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A pending event: fires at `at`, carrying a caller-defined payload.
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
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
/// were scheduled (FIFO tie-breaking).
///
/// # Example
/// ```
/// use skipper_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(5), "later");
/// q.schedule(SimTime::from_secs(1), "first");
/// q.schedule(SimTime::from_secs(1), "second");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "first")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "second")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(5), "later")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    /// Highest timestamp ever popped; used to catch time-travel bugs.
    last_popped: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
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
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, payload });
    }

    /// Removes and returns the earliest event, or `None` when the
    /// simulation has run dry.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let ev = self.heap.pop()?;
        debug_assert!(ev.at >= self.last_popped);
        self.last_popped = ev.at;
        Some((ev.at, ev.payload))
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|ev| ev.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The current simulation time (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.last_popped
    }
}

/// Smallest wheel size; also the size the wheel shrinks back to.
const MIN_BUCKETS: usize = 16;
/// Largest wheel size the retune will grow to.
const MAX_BUCKETS: usize = 1 << 16;
/// Consecutive empty buckets a pop walks before jumping straight to the
/// earliest populated epoch (an O(len + buckets) scan).
const MISS_LIMIT: u64 = 32;
/// Jump-scans tolerated before the wheel re-derives its bucket width
/// from the actual event spread (the schedule got sparser or denser
/// than the wheel was tuned for).
const JUMP_RETUNE: u32 = 8;
/// Same-epoch events in one bucket beyond which a pop extracts and
/// sorts them into the stash instead of re-scanning the bucket per pop
/// (the burst escape hatch: N simultaneous events would otherwise cost
/// O(N) per pop, O(N²) to drain).
const STASH_THRESHOLD: usize = 64;

/// A calendar queue (bucketed timer wheel): O(1) amortized schedule and
/// pop, with pop order identical to [`EventQueue`].
///
/// Events hash into `buckets.len()` rotating buckets by their *epoch*
/// (`time >> shift`, i.e. their bucket-width-aligned time slot); a pop
/// scans the epoch of the current virtual time and walks forward. The
/// wheel retunes itself — bucket count tracks the pending-event count,
/// bucket width tracks the observed event spacing — whenever it grows
/// out of shape, so the common schedule/pop pair touches O(1) entries
/// no matter the time scale of the workload.
///
/// Determinism: among the events of the earliest populated epoch the
/// pop selects the minimum `(time, seq)`, and epochs are scanned in
/// time order, so the pop sequence is exactly the reference
/// [`EventQueue`]'s (pinned by the differential sweep in the tests).
pub struct CalendarQueue<E> {
    buckets: Vec<Vec<Scheduled<E>>>,
    /// Bucket width is `1 << shift` microseconds.
    shift: u32,
    len: usize,
    next_seq: u64,
    last_popped: SimTime,
    /// Jump-scans since the last retune (wheel-shape health signal).
    jumps: u32,
    /// Epoch whose events the stash holds (meaningful when non-empty).
    stash_epoch: u64,
    /// Burst overflow for the epoch being drained, sorted *descending*
    /// by `(time, seq)` so the next event is an O(1) `Vec::pop`. Events
    /// move here when a pop finds more than [`STASH_THRESHOLD`]
    /// same-epoch entries in one bucket — e.g. thousands of clients
    /// released at the same instant — turning an O(N²) drain into
    /// O(N log N).
    stash: Vec<Scheduled<E>>,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    /// Creates an empty wheel (16 buckets of ~1 s until the first
    /// retune observes the real event density).
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            shift: 20,
            len: 0,
            next_seq: 0,
            last_popped: SimTime::ZERO,
            jumps: 0,
            stash_epoch: 0,
            stash: Vec::new(),
        }
    }

    #[inline]
    fn epoch(&self, at: SimTime) -> u64 {
        at.as_micros() >> self.shift
    }

    #[inline]
    fn bucket_of(&self, epoch: u64) -> usize {
        (epoch % self.buckets.len() as u64) as usize
    }

    /// Schedules `payload` to fire at instant `at`.
    ///
    /// # Panics
    /// Panics if `at` lies before the last popped event.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.last_popped,
            "scheduled event at {at:?} before current simulation time {:?}",
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let b = self.bucket_of(self.epoch(at));
        self.buckets[b].push(Scheduled { at, seq, payload });
        self.len += 1;
        if self.len > self.buckets.len() * 2 && self.buckets.len() < MAX_BUCKETS {
            self.retune();
        }
    }

    /// Removes and returns the earliest event, or `None` when the
    /// simulation has run dry.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        // The scan cursor is pop-local: it always restarts at the epoch
        // of the current virtual time, so events scheduled between pops
        // can never land behind it.
        let mut cursor = self.epoch(self.last_popped);
        let mut misses = 0u64;
        loop {
            let b = self.bucket_of(cursor);
            // Minimum (time, seq) among this epoch's bucket events. An
            // epoch maps to exactly one bucket, so a miss here (with an
            // empty stash) proves the whole epoch is empty.
            let mut best: Option<(usize, (u64, u64))> = None;
            let mut epoch_count = 0usize;
            for (i, ev) in self.buckets[b].iter().enumerate() {
                if ev.at.as_micros() >> self.shift == cursor {
                    epoch_count += 1;
                    let key = (ev.at.as_micros(), ev.seq);
                    if best.is_none_or(|(_, k)| key < k) {
                        best = Some((i, key));
                    }
                }
            }
            if epoch_count > STASH_THRESHOLD {
                // Burst: move every event of this epoch out of the
                // bucket into the sorted stash; draining then costs
                // O(1) per pop instead of a bucket rescan.
                self.stash_burst(cursor);
                best = None;
            }
            let stash_best = if self.stash_epoch == cursor {
                self.stash.last().map(|ev| (ev.at.as_micros(), ev.seq))
            } else {
                None
            };
            let take_stash = match (best, stash_best) {
                (Some((_, bk)), Some(sk)) => sk < bk,
                (None, Some(_)) => true,
                _ => false,
            };
            if take_stash {
                let ev = self.stash.pop().expect("stash candidate exists");
                return Some(self.finish_pop(ev));
            }
            if let Some((i, _)) = best {
                let ev = self.buckets[b].swap_remove(i);
                return Some(self.finish_pop(ev));
            }
            misses += 1;
            cursor += 1;
            if misses >= MISS_LIMIT.min(self.buckets.len() as u64) {
                // Long empty stretch: jump straight to the earliest
                // populated epoch instead of walking bucket by bucket.
                cursor = self.min_epoch();
                misses = 0;
                self.jumps += 1;
                if self.jumps >= JUMP_RETUNE {
                    // The wheel shape no longer matches the schedule's
                    // density; re-derive width and size, then restart
                    // the scan (retune may change the epoch mapping).
                    self.retune();
                    cursor = self.min_epoch();
                }
            }
        }
    }

    /// Books a removed event: counters, time, shrink check.
    fn finish_pop(&mut self, ev: Scheduled<E>) -> (SimTime, E) {
        self.len -= 1;
        debug_assert!(ev.at >= self.last_popped);
        self.last_popped = ev.at;
        if self.len * 8 < self.buckets.len() && self.buckets.len() > MIN_BUCKETS {
            self.retune();
        }
        (ev.at, ev.payload)
    }

    /// Moves every `epoch` event out of its bucket into the stash,
    /// keeping the stash sorted descending by `(time, seq)`. Each event
    /// is sorted in at most once per merge wave (new same-epoch
    /// arrivals trigger another merge only after they exceed the
    /// threshold again).
    fn stash_burst(&mut self, epoch: u64) {
        let b = self.bucket_of(epoch);
        let bucket = &mut self.buckets[b];
        let mut extracted: Vec<Scheduled<E>> = Vec::with_capacity(bucket.len());
        let mut i = 0;
        while i < bucket.len() {
            if bucket[i].at.as_micros() >> self.shift == epoch {
                extracted.push(bucket.swap_remove(i));
            } else {
                i += 1;
            }
        }
        extracted.sort_unstable_by_key(|ev| Reverse((ev.at, ev.seq)));
        debug_assert!(self.stash.is_empty() || self.stash_epoch == epoch);
        if self.stash.is_empty() {
            self.stash = extracted;
        } else {
            // Merge two descending runs (the existing stash and the new
            // arrivals) into one descending run.
            let old = std::mem::take(&mut self.stash);
            let mut merged = Vec::with_capacity(old.len() + extracted.len());
            let (mut a, mut b) = (old.into_iter().peekable(), extracted.into_iter().peekable());
            loop {
                let take_a = match (a.peek(), b.peek()) {
                    (Some(x), Some(y)) => (x.at, x.seq) > (y.at, y.seq),
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => break,
                };
                merged.push(if take_a {
                    a.next().expect("peeked")
                } else {
                    b.next().expect("peeked")
                });
            }
            self.stash = merged;
        }
        self.stash_epoch = epoch;
    }

    /// The earliest populated epoch (O(len + buckets); `len > 0`).
    fn min_epoch(&self) -> u64 {
        self.buckets
            .iter()
            .flatten()
            .map(|ev| ev.at.as_micros() >> self.shift)
            .chain((!self.stash.is_empty()).then_some(self.stash_epoch))
            .min()
            .expect("min_epoch on an empty wheel")
    }

    /// Rebuilds the wheel around the current contents: bucket count
    /// tracks the event count, bucket width tracks the mean event
    /// spacing (×4 so a bucket usually holds the next few events).
    /// O(len + buckets), amortized against the growth/shrink/jump
    /// activity that triggered it. Fully deterministic.
    fn retune(&mut self) {
        let mut events: Vec<Scheduled<E>> =
            self.buckets.iter_mut().flat_map(std::mem::take).collect();
        events.append(&mut self.stash);
        self.jumps = 0;
        let n_buckets = events
            .len()
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        if self.buckets.len() != n_buckets {
            self.buckets.resize_with(n_buckets, Vec::new);
        }
        if !events.is_empty() {
            let lo = events.iter().map(|e| e.at.as_micros()).min().unwrap();
            let hi = events.iter().map(|e| e.at.as_micros()).max().unwrap();
            let span = hi - lo;
            let width = (span / events.len() as u64) * 4 + 1;
            // shift = floor(log2(width)), clamped to [0, 40] (a 2^40 µs
            // bucket is ~13 days — effectively "everything in one epoch").
            self.shift = (63 - width.leading_zeros()).min(40);
        }
        for ev in events.drain(..) {
            let b = self.bucket_of(ev.at.as_micros() >> self.shift);
            self.buckets[b].push(ev);
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The current simulation time (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.last_popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
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
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(2);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn tracks_now() {
        let mut q = EventQueue::new();
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
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        q.pop();
        q.schedule(SimTime::from_secs(10) - SimDuration::from_secs(1), ());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), "a");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    // ---- CalendarQueue ----

    #[test]
    fn calendar_pops_in_time_order() {
        let mut q = CalendarQueue::new();
        for secs in [9u64, 3, 7, 1, 5] {
            q.schedule(SimTime::from_secs(secs), secs);
        }
        let mut out = Vec::new();
        while let Some((_, v)) = q.pop() {
            out.push(v);
        }
        assert_eq!(out, vec![1, 3, 5, 7, 9]);
        assert!(q.is_empty());
    }

    #[test]
    fn calendar_simultaneous_events_are_fifo() {
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
    fn calendar_tracks_now_and_zero_delay() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(SimTime::from_secs(4), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(4));
        q.schedule(q.now(), ());
        assert_eq!(q.pop(), Some((SimTime::from_secs(4), ())));
    }

    #[test]
    #[should_panic(expected = "before current simulation time")]
    fn calendar_rejects_scheduling_into_the_past() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        q.pop();
        q.schedule(SimTime::from_secs(10) - SimDuration::from_secs(1), ());
    }

    #[test]
    fn calendar_survives_sparse_schedules() {
        // Events days of virtual time apart force the jump + retune
        // paths; order must survive.
        let mut q = CalendarQueue::new();
        let mut expect = Vec::new();
        for i in 0..50u64 {
            let at = SimTime::from_secs(i * 86_400); // one per day
            q.schedule(at, i);
            expect.push((at, i));
        }
        let mut got = Vec::new();
        while let Some(ev) = q.pop() {
            got.push(ev);
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn calendar_survives_growth_and_shrink() {
        // Push far past the resize threshold, drain halfway, refill —
        // both retune directions fire.
        let mut q = CalendarQueue::new();
        for i in 0..1000u64 {
            q.schedule(SimTime::from_micros(i * 17 % 4096), i);
        }
        let mut last = (SimTime::ZERO, 0u64);
        for _ in 0..900 {
            let (at, _) = q.pop().unwrap();
            assert!(at >= last.0);
            last.0 = at;
        }
        assert_eq!(q.len(), 100);
        for i in 0..32u64 {
            q.schedule(q.now() + SimDuration::from_secs(i), 10_000 + i);
        }
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 132);
    }

    #[test]
    fn calendar_burst_stash_merges_waves() {
        // > STASH_THRESHOLD simultaneous events trigger the sorted
        // stash; a second same-instant wave after a partial drain
        // triggers the stash merge path. FIFO order must survive both.
        let mut q = CalendarQueue::new();
        let t = SimTime::from_secs(3);
        for i in 0..200u64 {
            q.schedule(t, i);
        }
        for i in 0..50u64 {
            assert_eq!(q.pop(), Some((t, i)));
        }
        for i in 200..400u64 {
            q.schedule(t, i);
        }
        for i in 50..400u64 {
            assert_eq!(q.pop(), Some((t, i)));
        }
        assert!(q.is_empty());
        // A later burst at a different epoch reuses the emptied stash.
        let t2 = SimTime::from_secs(4000);
        for i in 0..100u64 {
            q.schedule(t2, i);
        }
        for i in 0..100u64 {
            assert_eq!(q.pop(), Some((t2, i)));
        }
    }

    /// The differential sweep: random interleavings of schedule/pop —
    /// including bursts of simultaneous events and sparse leaps — must
    /// produce identical pop sequences on both implementations.
    #[test]
    fn calendar_matches_heap_reference_differentially() {
        use crate::rng::splitmix64;
        for case in 0..40u64 {
            let mut state = 0x5EED_0000 + case;
            let mut heap: EventQueue<u64> = EventQueue::new();
            let mut wheel: CalendarQueue<u64> = CalendarQueue::new();
            let mut payload = 0u64;
            for _round in 0..400 {
                let r = splitmix64(&mut state);
                match r % 5 {
                    // Schedule 1-4 events at now + random offset; the
                    // offset scale itself is randomized per event so
                    // dense and sparse regimes interleave.
                    0..=2 => {
                        let n = 1 + (splitmix64(&mut state) % 4);
                        for _ in 0..n {
                            let scale = [1u64, 1000, 1_000_000, 3_600_000_000]
                                [(splitmix64(&mut state) % 4) as usize];
                            let offset = (splitmix64(&mut state) % 50) * scale;
                            let at = heap.now() + SimDuration::from_micros(offset);
                            heap.schedule(at, payload);
                            wheel.schedule(at, payload);
                            payload += 1;
                        }
                    }
                    // Duplicate-time burst: everything at one instant.
                    3 => {
                        let at = heap.now() + SimDuration::from_secs(splitmix64(&mut state) % 3);
                        for _ in 0..3 {
                            heap.schedule(at, payload);
                            wheel.schedule(at, payload);
                            payload += 1;
                        }
                    }
                    // Pop a few.
                    _ => {
                        for _ in 0..(1 + splitmix64(&mut state) % 6) {
                            let a = heap.pop();
                            let b = wheel.pop();
                            assert_eq!(a, b, "case {case}: pop diverged");
                            assert_eq!(heap.now(), wheel.now());
                        }
                    }
                }
                assert_eq!(heap.len(), wheel.len(), "case {case}: len diverged");
            }
            // Drain: the tails must agree too.
            loop {
                let a = heap.pop();
                let b = wheel.pop();
                assert_eq!(a, b, "case {case}: drain diverged");
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
