//! The per-interval stall split that `skipper_sim::trace`'s stall clock
//! and merged timeline are diffed against.

use skipper_sim::trace::{Activity, ActivityTrace, Attribution};
use skipper_sim::SimTime;

/// Attributes the interval `[from, to)` against the *union* of several
/// device traces (a sharded fleet): at each instant the classification is
/// the most-progressing activity any device shows — transfer beats
/// switching beats idle — so a client blocked on a busy fleet is never
/// charged idle time just because one shard was quiet.
///
/// With a single trace this reduces exactly to
/// [`ActivityTrace::attribute`]. The result always totals `to - from`.
///
/// This is the per-interval reference: each call re-scans the
/// overlapping spans of every trace. `MergedTimeline` answers the same
/// queries after one merge, and `StallClock` online; the property
/// suites pin all three equal.
pub fn attribute_union(traces: &[&ActivityTrace], from: SimTime, to: SimTime) -> Attribution {
    if traces.len() == 1 {
        return traces[0].attribute(from, to);
    }
    let mut out = Attribution::default();
    if to <= from || traces.is_empty() {
        if to > from {
            out.idle = to.since(from);
        }
        return out;
    }
    // Elementary intervals: every span boundary inside [from, to).
    // Spans are time-sorted and non-overlapping per trace, so only the
    // slice overlapping the interval needs scanning.
    let mut cuts: Vec<SimTime> = vec![from, to];
    for tr in traces {
        let spans = tr.spans();
        let idx = spans.partition_point(|s| s.end <= from);
        for s in &spans[idx..] {
            if s.start >= to {
                break;
            }
            for t in [s.start, s.end] {
                if t > from && t < to {
                    cuts.push(t);
                }
            }
        }
    }
    cuts.sort_unstable();
    cuts.dedup();
    // One forward cursor per trace: each elementary interval lies within
    // a single span (or gap) of every trace, so classification is O(1)
    // amortized per (interval, trace).
    let mut cursors: Vec<usize> = traces
        .iter()
        .map(|tr| tr.spans().partition_point(|s| s.end <= from))
        .collect();
    for pair in cuts.windows(2) {
        let (lo, hi) = (pair[0], pair[1]);
        let dur = hi.since(lo);
        let mut any_transfer = false;
        let mut any_switch = false;
        for (tr, cursor) in traces.iter().zip(cursors.iter_mut()) {
            let spans = tr.spans();
            while *cursor < spans.len() && spans[*cursor].end <= lo {
                *cursor += 1;
            }
            match spans.get(*cursor) {
                Some(s) if s.start < hi => match s.activity {
                    Activity::Transferring { .. } => any_transfer = true,
                    Activity::Switching => any_switch = true,
                },
                _ => {}
            }
        }
        if any_transfer {
            out.transfer += dur;
        } else if any_switch {
            out.switching += dur;
        } else {
            out.idle += dur;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipper_sim::trace::{MergedTimeline, Span};
    use skipper_sim::SimDuration;

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
    fn union_of_one_trace_matches_plain_attribution() {
        let tr = sample_trace();
        assert_eq!(
            attribute_union(&[&tr], t(0), t(32)),
            tr.attribute(t(0), t(32))
        );
        assert_eq!(
            attribute_union(&[&tr], t(5), t(12)),
            tr.attribute(t(5), t(12))
        );
    }

    #[test]
    fn union_prefers_transfer_over_switch_over_idle() {
        // Shard A switches [0,10); shard B transfers [4,8).
        let mut a = ActivityTrace::new();
        a.record(t(0), t(10), Activity::Switching);
        let mut b = ActivityTrace::new();
        b.record(t(4), t(8), Activity::Transferring { client: 1 });
        let attr = attribute_union(&[&a, &b], t(0), t(12));
        assert_eq!(attr.transfer, d(4)); // [4,8): B transferring wins
        assert_eq!(attr.switching, d(6)); // [0,4) and [8,10)
        assert_eq!(attr.idle, d(2)); // [10,12): both quiet
        assert_eq!(attr.total(), d(12));
    }

    #[test]
    fn union_of_no_traces_is_all_idle() {
        let attr = attribute_union(&[], t(3), t(7));
        assert_eq!(attr.idle, d(4));
        assert_eq!(attr.total(), d(4));
    }

    #[test]
    fn union_empty_interval_is_zero() {
        let tr = sample_trace();
        assert_eq!(
            attribute_union(&[&tr, &tr], t(5), t(5)),
            Attribution::default()
        );
    }

    #[test]
    fn merged_timeline_matches_union_on_overlapping_shards() {
        let mut a = ActivityTrace::new();
        a.record(t(0), t(10), Activity::Switching);
        a.record(t(10), t(14), Activity::Transferring { client: 0 });
        let mut b = ActivityTrace::new();
        b.record(t(4), t(8), Activity::Transferring { client: 1 });
        b.record(t(8), t(18), Activity::Switching);
        let traces = [&a, &b];
        let tl = MergedTimeline::build(&[a.spans(), b.spans()]);
        for from in 0..28 {
            for to in from..28 {
                assert_eq!(
                    tl.attribute(t(from), t(to)),
                    attribute_union(&traces, t(from), t(to)),
                    "[{from}, {to})"
                );
            }
        }
    }

    #[test]
    fn merged_timeline_randomized_against_union() {
        use skipper_sim::rng::splitmix64;
        let mut state = 0xD1FF_u64;
        for case in 0..30 {
            // 1-4 shard traces with random span ladders.
            let k = 1 + (splitmix64(&mut state) % 4) as usize;
            let mut traces: Vec<ActivityTrace> = Vec::new();
            for _ in 0..k {
                let mut tr = ActivityTrace::new();
                let mut at = splitmix64(&mut state) % 5;
                for _ in 0..(splitmix64(&mut state) % 12) {
                    let gap = splitmix64(&mut state) % 4;
                    let len = 1 + splitmix64(&mut state) % 7;
                    // One draw in three leaves an idle gap.
                    let act = match splitmix64(&mut state) % 3 {
                        0 => Some(Activity::Switching),
                        1 => Some(Activity::Transferring {
                            client: (splitmix64(&mut state) % 3) as u32,
                        }),
                        _ => None,
                    };
                    if let Some(act) = act {
                        tr.record(t(at + gap), t(at + gap + len), act);
                    }
                    at += gap + len;
                }
                traces.push(tr);
            }
            let refs: Vec<&ActivityTrace> = traces.iter().collect();
            let lists: Vec<&[Span]> = traces.iter().map(|tr| tr.spans()).collect();
            let tl = MergedTimeline::build(&lists);
            for _ in 0..40 {
                let a = splitmix64(&mut state) % 90;
                let b = splitmix64(&mut state) % 90;
                let (lo, hi) = (a.min(b), a.max(b));
                assert_eq!(
                    tl.attribute(t(lo), t(hi)),
                    attribute_union(&refs, t(lo), t(hi)),
                    "case {case}: [{lo}, {hi})"
                );
            }
        }
    }
}
