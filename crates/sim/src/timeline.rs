//! ASCII timelines for device activity traces.
//!
//! Renders an [`ActivityTrace`] as a
//! fixed-width Gantt strip — `S` for group switches, client digits for
//! transfers, `.` for idle — so a scenario's device behaviour can be
//! eyeballed in a terminal or a test failure message. The examples use it
//! to show *why* pull-based execution ping-pongs where Skipper batches.

use crate::trace::{attribute_spans, Activity, ActivityTrace, Span};
use crate::SimTime;

/// Renders the trace between `from` and `to` as `width` cells (see
/// [`render_spans`]).
pub fn render(trace: &ActivityTrace, from: SimTime, to: SimTime, width: usize) -> String {
    render_spans(trace.spans(), from, to, width)
}

/// Renders a borrowed span slice between `from` and `to` as `width`
/// cells, without rebuilding an [`ActivityTrace`] (results borrow their
/// span lists; copying every span just to draw ASCII would be O(run)).
///
/// Each cell shows the activity covering the majority of its time slice:
/// `S` = switching, `0`-`9` = transferring to that client (`#` for
/// clients ≥ 10), `.` = idle. Returns an empty string for degenerate
/// intervals.
pub fn render_spans(spans: &[Span], from: SimTime, to: SimTime, width: usize) -> String {
    if to <= from || width == 0 {
        return String::new();
    }
    let total = to.since(from).as_micros();
    let mut out = String::with_capacity(width);
    for i in 0..width {
        let a = from + crate::SimDuration::from_micros(total * i as u64 / width as u64);
        let b = from + crate::SimDuration::from_micros(total * (i as u64 + 1) / width as u64);
        if b <= a {
            out.push('.');
            continue;
        }
        // Majority activity in [a, b): sample the covering spans.
        let attr = attribute_spans(spans, a, b);
        let cell = if attr.switching >= attr.transfer && attr.switching >= attr.idle {
            'S'
        } else if attr.transfer >= attr.idle {
            // Find which client dominates the transfers in this slice.
            dominant_client(spans, a, b)
                .map(|c| {
                    if c < 10 {
                        char::from_digit(c as u32, 10).unwrap()
                    } else {
                        '#'
                    }
                })
                .unwrap_or('?')
        } else {
            '.'
        };
        out.push(cell);
    }
    out
}

fn dominant_client(spans: &[Span], from: SimTime, to: SimTime) -> Option<usize> {
    let mut best: Option<(usize, u64)> = None;
    for span in spans {
        if span.start >= to {
            break;
        }
        if span.end <= from {
            continue;
        }
        if let Activity::Transferring { client } = span.activity {
            let lo = span.start.max(from);
            let hi = span.end.min(to);
            let dur = hi.since(lo).as_micros();
            if best.is_none_or(|(_, d)| dur > d) {
                best = Some((client as usize, dur));
            }
        }
    }
    best.map(|(c, _)| c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Activity;
    use crate::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn sample() -> ActivityTrace {
        let mut tr = ActivityTrace::new();
        tr.record(t(0), t(10), Activity::Switching);
        tr.record(t(10), t(20), Activity::Transferring { client: 0 });
        tr.record(t(20), t(30), Activity::Transferring { client: 1 });
        // [30, 40) is a gap: idle.
        tr
    }

    #[test]
    fn renders_majority_activity_per_cell() {
        let s = render(&sample(), t(0), t(40), 4);
        assert_eq!(s, "S01.");
    }

    #[test]
    fn finer_width_preserves_order() {
        let s = render(&sample(), t(0), t(40), 8);
        assert_eq!(s, "SS0011..");
    }

    #[test]
    fn window_can_zoom() {
        let s = render(&sample(), t(10), t(30), 2);
        assert_eq!(s, "01");
    }

    #[test]
    fn degenerate_inputs_are_empty() {
        assert_eq!(render(&sample(), t(5), t(5), 10), "");
        assert_eq!(render(&sample(), t(9), t(3), 10), "");
        assert_eq!(render(&sample(), t(0), t(10), 0), "");
    }

    #[test]
    fn uncovered_time_renders_idle() {
        let tr = ActivityTrace::new();
        assert_eq!(render(&tr, t(0), t(10), 5), ".....");
    }

    #[test]
    fn client_ten_plus_renders_hash() {
        let mut tr = ActivityTrace::new();
        tr.record(t(0), t(10), Activity::Transferring { client: 12 });
        assert_eq!(render(&tr, t(0), t(10), 2), "##");
    }

    #[test]
    fn sub_cell_spans_still_visible_by_majority() {
        let mut tr = ActivityTrace::new();
        // 1 s switch, then 9 s transfer: one 10 s cell → transfer wins.
        tr.record(t(0), t(1), Activity::Switching);
        tr.record(t(1), t(10), Activity::Transferring { client: 3 });
        assert_eq!(render(&tr, t(0), t(10), 1), "3");
        // Sub-second resolution shows the switch.
        let fine = render(&tr, t(0), t(10), 10);
        assert!(fine.starts_with('S'));
        let _ = SimDuration::ZERO;
    }
}
