//! Device activity traces and blocked-time attribution.
//!
//! Figure 9 and Table 3 of the paper decompose end-to-end query time into
//! *group-switch stalls*, *data-transfer stalls*, and *useful processing*.
//! The CSD model records what it is doing at every instant as a sequence of
//! [`Activity`] spans; the time a client spends blocked is split across
//! the spans of every device it could be waiting on.
//!
//! The runtime splits it online: a fleet-wide [`StallClock`] folds in
//! each trace's running span as it is recorded and keeps cumulative
//! switching and transfer microseconds, so a blocked interval's split
//! is the difference of two readings — O(1) per interval, whatever the
//! span count.
//!
//! Two memory regimes ([`TraceMode`]):
//!
//! * [`TraceMode::Full`] (default) — every span is kept, for timeline
//!   rendering and the span-level queries below. Memory is
//!   O(state changes) over the run: one 24-byte [`Span`] per switch
//!   episode and per transfer, adjacent spans of one activity
//!   coalesced.
//! * [`TraceMode::Counters`] — the span log stays empty; the device's
//!   own counters (`DeviceMetrics`) still count switches and transfer
//!   time. This is the bounded-memory mode for multi-million-request
//!   runs, where an O(events) span log would dwarf the simulation state
//!   itself. The stall clock works unchanged — a trace keeps its
//!   running span in both modes — but the span-level queries see no
//!   spans and charge the whole interval as idle.
//!
//! [`MergedTimeline`] flattens a fleet's span lists with one k-way
//! merge. It has no runtime caller: the property tests diff the clock
//! against it, and it against `skipper-testkit`'s `attribute_union`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// What the storage device is doing during a span of virtual time.
/// A device records no span while it has no pending work: time no span
/// covers is idle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Activity {
    /// Spinning a disk group down/up (the paper's "group switch").
    Switching,
    /// Streaming an object to the given client.
    Transferring {
        /// Client receiving the object (a `u32` keeps a [`Span`] at 24
        /// bytes).
        client: u32,
    },
}

/// A half-open span `[start, end)` tagged with a device activity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Span start (inclusive).
    pub start: SimTime,
    /// Span end (exclusive).
    pub end: SimTime,
    /// Device activity during the span.
    pub activity: Activity,
}

/// Blocked-time attribution: how much of a wait interval the device spent
/// switching, transferring, or idle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Time attributable to group switches.
    pub switching: SimDuration,
    /// Time attributable to object transfers (to any client).
    pub transfer: SimDuration,
    /// Time the device was idle (e.g. client was the bottleneck).
    pub idle: SimDuration,
}

impl Attribution {
    /// Total attributed time.
    pub fn total(&self) -> SimDuration {
        self.switching + self.transfer + self.idle
    }

    /// Merges another attribution into this one.
    pub fn merge(&mut self, other: Attribution) {
        self.switching += other.switching;
        self.transfer += other.transfer;
        self.idle += other.idle;
    }
}

/// How an [`ActivityTrace`] stores what it observes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceMode {
    /// Keep every span (timelines and span-level queries work; O(spans)
    /// memory).
    #[default]
    Full,
    /// Keep no spans (bounded memory for very large runs); only the
    /// running span is kept, for the overlap guard and the
    /// [`StallClock`].
    Counters,
}

/// An append-only log of device activity spans, ordered by time.
///
/// The device appends one span per state change; spans never overlap
/// (checked in both [`TraceMode`]s). Span-level attribution queries
/// binary-search the log, so offline analysis of a whole experiment is
/// `O(clients · log spans)`.
#[derive(Default)]
pub struct ActivityTrace {
    spans: Vec<Span>,
    mode: TraceMode,
    /// Start of the last recorded (coalesced) span.
    last_start: SimTime,
    /// End of the last recorded span (also the overlap guard when the
    /// span log itself is not kept).
    last_end: SimTime,
    /// Activity of the last recorded span (coalescing test; with
    /// `last_end`, what a [`StallClock`] folds in).
    last_activity: Option<Activity>,
}

impl ActivityTrace {
    /// Creates an empty trace keeping the full span log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty trace in the given [`TraceMode`].
    pub fn with_mode(mode: TraceMode) -> Self {
        ActivityTrace {
            mode,
            ..Self::default()
        }
    }

    /// Rebuilds a trace from previously exported spans (see
    /// [`ActivityTrace::spans`]); spans must be in time order and
    /// non-overlapping.
    pub fn from_spans(spans: impl IntoIterator<Item = Span>) -> Self {
        let mut tr = ActivityTrace::new();
        for s in spans {
            tr.record(s.start, s.end, s.activity);
        }
        tr
    }

    /// Appends a span. Zero-length spans are dropped.
    ///
    /// # Panics
    /// Panics if the span starts before the previous span ended (the
    /// device records strictly sequential activity) or if `end < start`.
    pub fn record(&mut self, start: SimTime, end: SimTime, activity: Activity) {
        assert!(end >= start, "span ends before it starts");
        if end == start {
            return;
        }
        assert!(
            start >= self.last_end,
            "span at {start:?} overlaps previous span ending {:?}",
            self.last_end
        );
        // Coalesce adjacent spans with identical activity to keep the log
        // small over long experiments (one span per switch episode).
        let continues = start == self.last_end && self.last_activity == Some(activity);
        if !continues {
            self.last_start = start;
        }
        self.last_end = end;
        self.last_activity = Some(activity);
        if self.mode == TraceMode::Full {
            if continues {
                let last = self.spans.last_mut().expect("continuation has a span");
                last.end = end;
            } else {
                self.spans.push(Span {
                    start,
                    end,
                    activity,
                });
            }
        }
    }

    /// Ends the trace at `at`: a last span still running past `at` — a
    /// transfer or switch a crash aborted — is cut there, and the
    /// overlap guard moves back to `at`, in both [`TraceMode`]s. A span
    /// that starts at `at` is dropped whole. No-op when every span ended
    /// by `at`.
    ///
    /// # Panics
    /// Panics when the last span starts after `at`: only the span in
    /// progress at `at` can be cut.
    pub fn cut(&mut self, at: SimTime) {
        if self.last_end <= at {
            return;
        }
        assert!(
            self.last_start <= at,
            "cut at {at:?} inside a span starting {:?}",
            self.last_start
        );
        self.last_end = at;
        let full = self.mode == TraceMode::Full;
        if self.last_start == at {
            self.last_activity = None;
            if full {
                self.spans.pop();
            }
        } else if full {
            self.spans.last_mut().expect("a span runs past the cut").end = at;
        }
    }

    /// All recorded spans, in time order (empty in
    /// [`TraceMode::Counters`]).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Takes the recorded spans out of the trace, leaving it empty
    /// (end-of-run result assembly: move instead of clone).
    pub fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }

    /// Slices the interval `[from, to)` across the recorded spans and sums
    /// the overlap per activity class. Portions of the interval not covered
    /// by any span count as idle (the device had not started / had shut
    /// down).
    pub fn attribute(&self, from: SimTime, to: SimTime) -> Attribution {
        attribute_spans(&self.spans, from, to)
    }
}

/// Slices `[from, to)` across a time-ordered, non-overlapping span
/// slice and sums the overlap per activity class; uncovered portions
/// count as idle. The slice-level form of [`ActivityTrace::attribute`],
/// usable on borrowed span lists (e.g. a `ShardResult`) without
/// rebuilding a trace.
pub(crate) fn attribute_spans(spans: &[Span], from: SimTime, to: SimTime) -> Attribution {
    let mut out = Attribution::default();
    if to <= from {
        return out;
    }
    // First span that could overlap: the last span with start <= from,
    // found via partition point.
    let idx = spans.partition_point(|s| s.end <= from);
    let mut covered = SimDuration::ZERO;
    for span in &spans[idx..] {
        if span.start >= to {
            break;
        }
        let lo = span.start.max(from);
        let hi = span.end.min(to);
        if hi <= lo {
            continue;
        }
        let dur = hi.since(lo);
        covered += dur;
        match span.activity {
            Activity::Switching => out.switching += dur,
            Activity::Transferring { .. } => out.transfer += dur,
        }
    }
    out.idle += to.since(from).saturating_sub(covered);
    out
}

/// Cumulative fleet-wide stall time up to some instant, in
/// microseconds: one [`StallClock`] reading.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StallReading {
    /// Time some trace was switching and none was transferring.
    pub switching: u64,
    /// Time some trace was transferring.
    pub transfer: u64,
}

impl StallReading {
    /// The split of a blocked interval `len` long that opened at reading
    /// `from` and closes at this one: the two counters' growth, the rest
    /// idle.
    pub fn since(self, from: StallReading, len: SimDuration) -> Attribution {
        let switching = SimDuration::from_micros(self.switching - from.switching);
        let transfer = SimDuration::from_micros(self.transfer - from.transfer);
        Attribution {
            switching,
            transfer,
            idle: len.saturating_sub(switching + transfer),
        }
    }
}

/// Online stall attribution over the union of many traces (a sharded,
/// multi-stream fleet): transfer beats switching beats idle at every
/// instant, as in `skipper-testkit`'s `attribute_union`, in O(1) per reading.
///
/// It relies on the device's recording discipline: every span starts at
/// the instant it is recorded, and only [`ActivityTrace::cut`] ends one
/// early. So from the last fold instant `at` onward, the union's
/// coverage is two prefixes — transfer over `[at, transfer_until)` and
/// switching over `[at, switch_until)` — and a reading at a later
/// instant adds the transfer prefix, then the switching rest, and
/// leaves the remainder idle. The owner folds a trace in after every
/// instant it records at ([`StallClock::observe`]) and re-derives both
/// ends after a cut ([`StallClock::rederive`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct StallClock {
    /// Instant the totals are folded up to.
    at: SimTime,
    /// Latest end of a running transfer span.
    transfer_until: SimTime,
    /// Latest end of a running switch span.
    switch_until: SimTime,
    /// Cumulative stalls over `[0, at)`.
    totals: StallReading,
}

impl StallClock {
    /// The cumulative stalls up to `now` (an instant no earlier than
    /// the last fold).
    pub fn read(&self, now: SimTime) -> StallReading {
        let transfer_end = now.min(self.transfer_until).max(self.at);
        let switch_end = now.min(self.switch_until).max(transfer_end);
        StallReading {
            switching: self.totals.switching + switch_end.since(transfer_end).as_micros(),
            transfer: self.totals.transfer + transfer_end.since(self.at).as_micros(),
        }
    }

    /// Advances the totals to `now`, then folds in the running spans of
    /// `traces`, which may have recorded at `now`.
    pub fn observe(&mut self, now: SimTime, traces: &[ActivityTrace]) {
        self.advance(now);
        traces.iter().for_each(|trace| self.fold(trace));
    }

    /// Advances the totals to `now`, then re-derives both ends from
    /// every trace: a cut at `now` may have ended the latest span early.
    pub fn rederive<'a>(
        &mut self,
        now: SimTime,
        traces: impl IntoIterator<Item = &'a ActivityTrace>,
    ) {
        self.advance(now);
        self.transfer_until = now;
        self.switch_until = now;
        traces.into_iter().for_each(|trace| self.fold(trace));
    }

    fn advance(&mut self, now: SimTime) {
        self.totals = self.read(now);
        self.at = now;
    }

    fn fold(&mut self, trace: &ActivityTrace) {
        let until = match trace.last_activity {
            Some(Activity::Transferring { .. }) => &mut self.transfer_until,
            Some(Activity::Switching) => &mut self.switch_until,
            None => return,
        };
        *until = (*until).max(trace.last_end);
    }
}

/// A fleet's span lists flattened into one classified timeline.
///
/// Built with a k-way merge over the shard/stream span lists —
/// O(total spans · log k) — the timeline answers
/// [`MergedTimeline::attribute`] queries in O(log cuts) each, with
/// *identical* results to `attribute_union` (transfer beats switching
/// beats idle at every instant; uncovered time is idle). It is an
/// offline reference: the runtime attributes stalls with a
/// [`StallClock`] as it runs, and the property tests and the
/// benchmark's probe diff or time against this timeline.
pub struct MergedTimeline {
    /// Cut instants `t_0 < t_1 < … < t_n`: every span boundary of every
    /// input list. Between consecutive cuts the fleet classification is
    /// constant.
    cuts: Vec<SimTime>,
    /// Cumulative switching microseconds over `[t_0, t_i)`.
    cum_switch: Vec<u64>,
    /// Cumulative transfer microseconds over `[t_0, t_i)`.
    cum_transfer: Vec<u64>,
}

impl MergedTimeline {
    /// Builds the timeline from per-shard (or per-stream) span lists,
    /// each time-ordered and non-overlapping; lists may overlap each
    /// other freely.
    pub fn build(lists: &[&[Span]]) -> Self {
        // Each list yields a sorted stream of ±edges (span start/end);
        // merge the k streams through a small heap keyed by
        // (time, list, position).
        #[derive(Clone, Copy)]
        struct Cursor {
            list: usize,
            /// Next edge: span `pos >> 1`, start if `pos & 1 == 0`.
            pos: usize,
        }
        let edge_time = |lists: &[&[Span]], c: Cursor| -> Option<SimTime> {
            let span = lists[c.list].get(c.pos >> 1)?;
            Some(if c.pos & 1 == 0 { span.start } else { span.end })
        };
        let mut heap: BinaryHeap<Reverse<(SimTime, usize, usize)>> = BinaryHeap::new();
        for (i, list) in lists.iter().enumerate() {
            if !list.is_empty() {
                heap.push(Reverse((list[0].start, i, 0)));
            }
        }
        let mut cuts: Vec<SimTime> = Vec::new();
        let mut cum_switch: Vec<u64> = Vec::new();
        let mut cum_transfer: Vec<u64> = Vec::new();
        let (mut active_transfer, mut active_switch) = (0usize, 0usize);
        let (mut acc_switch, mut acc_transfer) = (0u64, 0u64);
        while let Some(&Reverse((t, _, _))) = heap.peek() {
            // Close the elementary interval ending at `t`.
            if let Some(&prev) = cuts.last() {
                if t > prev {
                    let dur = t.since(prev).as_micros();
                    if active_transfer > 0 {
                        acc_transfer += dur;
                    } else if active_switch > 0 {
                        acc_switch += dur;
                    }
                    cuts.push(t);
                    cum_switch.push(acc_switch);
                    cum_transfer.push(acc_transfer);
                }
            } else {
                cuts.push(t);
                cum_switch.push(0);
                cum_transfer.push(0);
            }
            // Apply every edge at `t` before moving on.
            while let Some(&Reverse((et, list, pos))) = heap.peek() {
                if et != t {
                    break;
                }
                heap.pop();
                let span = lists[list][pos >> 1];
                let opening = pos & 1 == 0;
                let delta: isize = if opening { 1 } else { -1 };
                match span.activity {
                    Activity::Transferring { .. } => {
                        active_transfer = active_transfer.checked_add_signed(delta).unwrap();
                    }
                    Activity::Switching => {
                        active_switch = active_switch.checked_add_signed(delta).unwrap();
                    }
                }
                let next = Cursor { list, pos: pos + 1 };
                if let Some(nt) = edge_time(lists, next) {
                    heap.push(Reverse((nt, list, next.pos)));
                }
            }
        }
        MergedTimeline {
            cuts,
            cum_switch,
            cum_transfer,
        }
    }

    /// Cumulative `(switching, transfer)` microseconds from the first
    /// cut up to instant `x` (clamped to the covered range; within an
    /// elementary interval the classification is constant, so the
    /// partial interval interpolates exactly).
    fn cum_at(&self, x: SimTime) -> (u64, u64) {
        if self.cuts.is_empty() || x <= self.cuts[0] {
            return (0, 0);
        }
        let last = *self.cuts.last().expect("non-empty");
        if x >= last {
            return (
                *self.cum_switch.last().expect("non-empty"),
                *self.cum_transfer.last().expect("non-empty"),
            );
        }
        // cuts[i] <= x < cuts[i+1]
        let i = self.cuts.partition_point(|&t| t <= x) - 1;
        let (s0, t0) = (self.cum_switch[i], self.cum_transfer[i]);
        let ds = self.cum_switch[i + 1] - s0;
        let dt = self.cum_transfer[i + 1] - t0;
        let off = x.since(self.cuts[i]).as_micros();
        if dt > 0 {
            (s0, t0 + off)
        } else if ds > 0 {
            (s0 + off, t0)
        } else {
            (s0, t0)
        }
    }

    /// Attribution of `[from, to)` against the merged fleet timeline;
    /// equals `attribute_union` over the source traces, in O(log
    /// cuts).
    pub fn attribute(&self, from: SimTime, to: SimTime) -> Attribution {
        let mut out = Attribution::default();
        if to <= from {
            return out;
        }
        let (s_to, t_to) = self.cum_at(to);
        let (s_from, t_from) = self.cum_at(from);
        out.switching = SimDuration::from_micros(s_to - s_from);
        out.transfer = SimDuration::from_micros(t_to - t_from);
        out.idle = to.since(from).saturating_sub(out.switching + out.transfer);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }
    fn d(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn sample_trace() -> ActivityTrace {
        let mut tr = ActivityTrace::new();
        tr.record(t(0), t(10), Activity::Switching);
        tr.record(t(10), t(15), Activity::Transferring { client: 0 });
        tr.record(t(15), t(25), Activity::Switching);
        tr.record(t(25), t(30), Activity::Transferring { client: 1 });
        tr
    }

    #[test]
    fn attributes_full_interval() {
        let tr = sample_trace();
        // [30, 32) is a gap: idle.
        let a = tr.attribute(t(0), t(32));
        assert_eq!(a.switching, d(20));
        assert_eq!(a.transfer, d(10));
        assert_eq!(a.idle, d(2));
        assert_eq!(a.total(), d(32));
    }

    #[test]
    fn attributes_partial_overlap() {
        let tr = sample_trace();
        // [5, 12): 5 s of the first switch + 2 s of the first transfer.
        let a = tr.attribute(t(5), t(12));
        assert_eq!(a.switching, d(5));
        assert_eq!(a.transfer, d(2));
        assert_eq!(a.idle, SimDuration::ZERO);
    }

    #[test]
    fn uncovered_time_counts_as_idle() {
        let tr = sample_trace();
        let a = tr.attribute(t(30), t(40));
        assert_eq!(a.idle, d(10));
        assert_eq!(a.switching, SimDuration::ZERO);
    }

    #[test]
    fn empty_interval_is_zero() {
        let tr = sample_trace();
        assert_eq!(tr.attribute(t(5), t(5)), Attribution::default());
        assert_eq!(tr.attribute(t(9), t(3)), Attribution::default());
    }

    #[test]
    fn span_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Span>(), 24);
    }

    #[test]
    fn coalesces_adjacent_same_activity() {
        let mut tr = ActivityTrace::new();
        tr.record(t(0), t(5), Activity::Switching);
        tr.record(t(5), t(9), Activity::Switching);
        assert_eq!(tr.spans().len(), 1);
    }

    #[test]
    fn distinct_transfers_not_coalesced() {
        let mut tr = ActivityTrace::new();
        tr.record(t(0), t(5), Activity::Transferring { client: 0 });
        tr.record(t(5), t(9), Activity::Transferring { client: 1 });
        assert_eq!(tr.spans().len(), 2);
    }

    #[test]
    fn zero_length_spans_dropped() {
        let mut tr = ActivityTrace::new();
        tr.record(t(3), t(3), Activity::Switching);
        assert!(tr.spans().is_empty());
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_spans_rejected() {
        let mut tr = ActivityTrace::new();
        tr.record(t(0), t(5), Activity::Switching);
        tr.record(t(4), t(6), Activity::Switching);
    }

    #[test]
    fn switch_counting() {
        // One span per switch episode.
        let tr = sample_trace();
        let switches: Vec<_> = tr
            .spans()
            .iter()
            .filter(|s| s.activity == Activity::Switching)
            .collect();
        assert_eq!(switches.len(), 2);
        assert_eq!(tr.attribute(t(0), t(32)).switching, d(20));
    }

    #[test]
    fn counters_mode_matches_full_mode_totals() {
        let full = sample_trace();
        let mut lean = ActivityTrace::with_mode(TraceMode::Counters);
        for s in full.spans() {
            lean.record(s.start, s.end, s.activity);
        }
        assert!(lean.spans().is_empty(), "counters mode keeps no spans");
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn counters_mode_still_rejects_overlap() {
        let mut lean = ActivityTrace::with_mode(TraceMode::Counters);
        lean.record(t(0), t(5), Activity::Switching);
        lean.record(t(4), t(6), Activity::Switching);
    }

    #[test]
    fn cut_ends_the_running_span_in_both_modes() {
        for mode in [TraceMode::Full, TraceMode::Counters] {
            let mut tr = ActivityTrace::with_mode(mode);
            tr.record(t(0), t(10), Activity::Switching);
            tr.record(t(10), t(20), Activity::Transferring { client: 0 });
            tr.cut(t(14));
            tr.cut(t(30)); // nothing runs past it
                           // The overlap guard moved back to the cut.
            tr.record(t(14), t(16), Activity::Switching);
            // A span starting at the cut vanishes whole.
            tr.cut(t(14));
            if mode == TraceMode::Full {
                assert_eq!(
                    tr.spans(),
                    &[
                        Span {
                            start: t(0),
                            end: t(10),
                            activity: Activity::Switching
                        },
                        Span {
                            start: t(10),
                            end: t(14),
                            activity: Activity::Transferring { client: 0 }
                        },
                    ]
                );
            } else {
                assert!(tr.spans().is_empty());
            }
        }
    }

    #[test]
    #[should_panic(expected = "inside a span")]
    fn cut_before_the_running_span_started_is_rejected() {
        let mut tr = ActivityTrace::new();
        tr.record(t(10), t(20), Activity::Switching);
        tr.cut(t(5));
    }

    // ---- StallClock ----

    #[test]
    fn stall_clock_splits_transfer_over_switching_over_idle() {
        // Stream A switches [0,10); stream B transfers [4,8), recorded
        // at 4.
        let mut a = ActivityTrace::new();
        let mut b = ActivityTrace::new();
        let mut clock = StallClock::default();
        a.record(t(0), t(10), Activity::Switching);
        clock.observe(t(0), std::slice::from_ref(&a));
        let at_start = clock.read(t(0));
        b.record(t(4), t(8), Activity::Transferring { client: 1 });
        clock.observe(t(4), std::slice::from_ref(&b));
        let attr = clock.read(t(12)).since(at_start, d(12));
        assert_eq!(
            (attr.transfer, attr.switching, attr.idle),
            (d(4), d(6), d(2))
        );
        // A cut at 9 ends the switch early: [9,12) reads idle.
        a.cut(t(9));
        clock.rederive(t(9), [&a, &b]);
        let attr = clock.read(t(12)).since(at_start, d(12));
        assert_eq!(
            (attr.transfer, attr.switching, attr.idle),
            (d(4), d(5), d(3))
        );
    }

    /// Random span streams on K streams under the device's discipline:
    /// every span starts at the instant it is recorded, adjacent spans
    /// of one activity coalesce, and cuts land mid-span and at a span's
    /// own start. The clock folds each stream in after it records and
    /// re-derives after each cut; every pair of its readings must split
    /// like the merged timeline of the final span lists.
    #[test]
    fn stall_clock_matches_merged_timeline_under_the_device_discipline() {
        use crate::rng::splitmix64;
        let (mut coalesced, mut mid_cuts, mut start_cuts) = (0u32, 0u32, 0u32);
        for seed in 0..300u64 {
            let mut state = seed;
            let mut draw = |n: u64| splitmix64(&mut state) % n;
            let k = 1 + draw(4) as usize;
            let mut traces: Vec<ActivityTrace> = (0..k).map(|_| ActivityTrace::new()).collect();
            let mut clock = StallClock::default();
            let mut readings = Vec::new();
            let mut now = t(0);
            for _ in 0..60 {
                now += d(draw(4));
                if draw(2) == 0 {
                    readings.push((now, clock.read(now)));
                }
                for trace in traces.iter_mut() {
                    if trace.last_end > now || draw(3) == 0 {
                        continue;
                    }
                    let activity = match draw(3) {
                        0 => Activity::Switching,
                        _ => Activity::Transferring {
                            client: draw(2) as u32,
                        },
                    };
                    let spans = trace.spans().len();
                    trace.record(now, now + d(1 + draw(6)), activity);
                    coalesced += u32::from(trace.spans().len() == spans);
                    clock.observe(now, std::slice::from_ref(trace));
                }
                if draw(5) == 0 {
                    let trace = &mut traces[draw(k as u64) as usize];
                    if trace.last_end > now {
                        if trace.last_start == now {
                            start_cuts += 1;
                        } else {
                            mid_cuts += 1;
                        }
                    }
                    trace.cut(now);
                    clock.rederive(now, &traces);
                }
                if draw(2) == 0 {
                    readings.push((now, clock.read(now)));
                }
            }
            let end = now + d(10);
            readings.push((end, clock.read(end)));
            let lists: Vec<&[Span]> = traces.iter().map(|tr| tr.spans()).collect();
            let timeline = MergedTimeline::build(&lists);
            for (i, &(from, opened)) in readings.iter().enumerate() {
                for &(to, closed) in &readings[i..] {
                    assert_eq!(
                        closed.since(opened, to.since(from)),
                        timeline.attribute(from, to),
                        "seed {seed}: [{from:?}, {to:?})"
                    );
                }
            }
        }
        assert!(
            coalesced >= 100 && mid_cuts >= 100 && start_cuts >= 100,
            "{coalesced} coalesced, {mid_cuts} mid-span cuts, {start_cuts} start cuts"
        );
    }

    // ---- MergedTimeline ----

    #[test]
    fn merged_timeline_matches_single_trace() {
        let tr = sample_trace();
        let tl = MergedTimeline::build(&[tr.spans()]);
        for (a, b) in [(0, 32), (5, 12), (30, 40), (0, 100), (13, 26)] {
            assert_eq!(
                tl.attribute(t(a), t(b)),
                tr.attribute(t(a), t(b)),
                "[{a}, {b})"
            );
        }
        assert_eq!(tl.attribute(t(5), t(5)), Attribution::default());
        assert_eq!(tl.attribute(t(9), t(3)), Attribution::default());
    }

    #[test]
    fn merged_timeline_of_nothing_is_all_idle() {
        let tl = MergedTimeline::build(&[]);
        let attr = tl.attribute(t(3), t(7));
        assert_eq!(attr.idle, d(4));
        assert_eq!(attr.total(), d(4));
        let tl2 = MergedTimeline::build(&[&[][..], &[][..]]);
        assert_eq!(tl2.attribute(t(0), t(5)).idle, d(5));
    }
}
