//! The Max-Queries policy: efficiency without fairness.
//!
//! Prabhakar et al. showed that, for tertiary storage, always loading the
//! medium with the largest number of pending requests performs within 2 %
//! of the optimal switch-minimizing schedule. The paper adopts the
//! query-granularity version — pick the group with the most distinct
//! pending *queries* — as its efficiency yardstick ("maxquery" in
//! Figure 12). Its known failure mode is starvation: a steady stream of
//! requests to popular groups can postpone a lone query on another group
//! indefinitely, which is exactly what the rank-based policy fixes.

use crate::object::GroupId;
use crate::sched::{takes_lead, Decision, GroupScheduler, InFlight, QueueView};

/// Most-pending-queries-first group selection.
#[derive(Debug, Default)]
pub struct MaxQueries;

impl MaxQueries {
    /// Creates the policy.
    pub fn new() -> Self {
        MaxQueries
    }

    fn best_group(queue: &dyn QueueView) -> Option<GroupId> {
        // Max query count over the per-group aggregates (maintained
        // incrementally by the queue, visited in ascending group id);
        // ties broken by oldest request (smaller seq wins). A single
        // allocation-free fold over the group lenses — this runs once
        // per drained-residency decision.
        let mut best: Option<(GroupId, usize)> = None;
        queue.for_each_group(&mut |g, lens| {
            let count = lens.queries.len();
            if best.is_none_or(|(bg, bcount)| takes_lead(queue, g, bg, count.cmp(&bcount))) {
                best = Some((g, count));
            }
        });
        best.map(|(g, _)| g)
    }
}

impl GroupScheduler for MaxQueries {
    fn name(&self) -> &'static str {
        "maxquery"
    }

    fn decide(
        &mut self,
        queue: &dyn QueueView,
        active: Option<GroupId>,
        pipe: InFlight,
    ) -> Decision {
        // Non-preemptive: drain the residency snapshot before
        // reconsidering (new arrivals wait for the next decision point).
        if let Some(g) = active {
            if queue.resident_len(g) > 0 {
                return Decision::ServeActive;
            }
        }
        match Self::best_group(queue) {
            None => Decision::Idle,
            Some(g) if Some(g) == active => Decision::ServeActive,
            // Query counts shift with every arrival, so while transfers
            // still drain out of the pipeline the policy declines to
            // commit a switch: it re-decides at the next completion
            // with complete information. The switch still starts at the
            // drain instant — the device kicks the scheduler exactly
            // then — so no service time is lost by declining.
            Some(_) if pipe.draining() => Decision::Idle,
            Some(g) => Decision::SwitchTo(g),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::testutil::{armed_queue, queue_of, req};
    use crate::sched::{RequestIndex, ServeScope};

    #[test]
    fn picks_group_with_most_queries() {
        let mut p = MaxQueries::new();
        // Group 1: two queries; group 2: one query with three requests.
        let q = queue_of(&[
            req(1, 0, 0, 0, 0),
            req(1, 1, 0, 0, 1),
            req(2, 2, 0, 0, 2),
            req(2, 2, 0, 1, 3),
            req(2, 2, 0, 2, 4),
        ]);
        assert_eq!(p.decide(&q, None, InFlight::NONE), Decision::SwitchTo(1));
    }

    #[test]
    fn request_count_does_not_trump_query_count() {
        let mut p = MaxQueries::new();
        // Queries, not requests, drive the choice (a single query's many
        // objects count once).
        let q = queue_of(&[
            req(5, 0, 0, 0, 0),
            req(5, 0, 0, 1, 1),
            req(5, 0, 0, 2, 2),
            req(6, 1, 0, 0, 3),
            req(6, 2, 0, 0, 4),
        ]);
        assert_eq!(p.decide(&q, None, InFlight::NONE), Decision::SwitchTo(6));
    }

    #[test]
    fn non_preemptive_drains_active_group() {
        let mut p = MaxQueries::new();
        // Group 2 has more queries, but group 1 is loaded with an armed
        // residency that still holds work: finish it first (the "when to
        // switch" rule of §4.4).
        let mut q = armed_queue(
            &[req(1, 0, 0, 0, 0), req(2, 1, 0, 0, 1), req(2, 2, 0, 0, 2)],
            1,
        );
        assert_eq!(p.decide(&q, Some(1), InFlight::NONE), Decision::ServeActive);
        // Once group 1 drains, switch.
        q.remove(0);
        assert_eq!(p.decide(&q, Some(1), InFlight::NONE), Decision::SwitchTo(2));
    }

    #[test]
    fn tie_broken_by_oldest_request() {
        let mut p = MaxQueries::new();
        let q = queue_of(&[req(3, 0, 0, 0, 9), req(2, 1, 0, 0, 1)]);
        // Both groups have one query; group 2's request is older.
        assert_eq!(p.decide(&q, None, InFlight::NONE), Decision::SwitchTo(2));
    }

    #[test]
    fn idle_when_empty() {
        assert_eq!(
            MaxQueries::new().decide(&queue_of(&[]), Some(3), InFlight::NONE),
            Decision::Idle
        );
    }

    #[test]
    fn whole_residency_in_scope() {
        let p = MaxQueries::new();
        let mut q = armed_queue(
            &[req(1, 0, 0, 0, 0), req(1, 1, 0, 0, 1), req(2, 2, 0, 0, 2)],
            1,
        );
        assert_eq!(p.serve_scope(), ServeScope::Residency);
        assert_eq!(q.select(p.serve_scope(), 1), Some(0));
        q.remove(0);
        assert_eq!(q.select(p.serve_scope(), 1), Some(1));
        q.remove(1);
        assert_eq!(q.select(p.serve_scope(), 1), None);
    }
}
