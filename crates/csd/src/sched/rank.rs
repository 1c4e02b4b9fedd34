//! The paper's rank-based, query-aware scheduling algorithm (§4.4).
//!
//! Every group `g` gets a rank
//!
//! ```text
//! R(g) = N_g + K · Σ_{q on g} W_q(g)
//! ```
//!
//! where `N_g` is the number of distinct queries with pending data on
//! `g`, and `W_q` is the *waiting time* of query `q`: the number of group
//! switches since `q` was last serviced (0 for queries serviced by the
//! loaded group). The first term alone is Max-Queries (pure efficiency);
//! the second term grows the rank of neglected groups so no tenant
//! starves. The paper derives `K = 1` as the choice that maximizes
//! fairness while preserving the efficiency tipping point (`K < 1/s`
//! favours efficiency as the arrival gap `s → ∞`); `K` is configurable
//! here for the ablation benchmarks.
//!
//! Rank maintenance is incremental: `N_g` and the per-group query sets
//! come from the queue's aggregates (updated O(1) amortized per
//! request), and
//! the waiting counters update once per *switch* — O(distinct pending
//! queries) at each switch point instead of a full queue rescan per
//! decision.

use std::collections::HashMap;

use crate::object::{GroupId, QueryId};
use crate::sched::{takes_lead, Decision, GroupLens, GroupScheduler, InFlight, QueueView};
use crate::store::FastBuild;

/// Rank-based group selection balancing efficiency and fairness.
#[derive(Debug)]
pub struct RankBased {
    /// The fairness weight `K`; the paper sets 1.
    k: f64,
    /// Waiting time per query, in group switches since last serviced,
    /// stamped with the switch generation that last saw the query
    /// pending. The stamp lets `on_switch_complete` garbage-collect
    /// departed queries with an in-place `retain` instead of rebuilding
    /// a presence map per switch — the map reaches the steady
    /// query-population size once and never touches the allocator
    /// again. Probed once per (group, query) per decision and once per
    /// query per switch, hence the cheap deterministic hasher.
    waiting: HashMap<QueryId, (u64, u64), FastBuild>,
    /// Current switch generation (bumped once per completed switch).
    generation: u64,
}

impl Default for RankBased {
    fn default() -> Self {
        Self::new()
    }
}

impl RankBased {
    /// Creates the policy with the paper's `K = 1`.
    pub fn new() -> Self {
        Self::with_k(1.0)
    }

    /// Creates the policy with a custom fairness weight (for ablations;
    /// `K = 0` degenerates to Max-Queries).
    pub fn with_k(k: f64) -> Self {
        RankBased {
            k,
            waiting: HashMap::default(),
            generation: 0,
        }
    }

    /// Current waiting time of `q` (0 if unknown — new queries have not
    /// waited for any switch yet).
    pub fn waiting_of(&self, q: QueryId) -> u64 {
        self.waiting.get(&q).map_or(0, |&(w, _)| w)
    }

    /// `R(g) = N_g + K·ΣW_q(g)` over one group's lens.
    fn rank(&self, lens: &GroupLens<'_>) -> f64 {
        let w: u64 = lens.queries.iter().map(|&q| self.waiting_of(q)).sum();
        lens.queries.len() as f64 + self.k * w as f64
    }

    /// The rank `R(g)` of each group with pending data, in ascending
    /// group id. For tests and the scheduling example; the policy
    /// itself folds the ranks without collecting them.
    pub fn ranks(&self, queue: &dyn QueueView) -> Vec<(GroupId, f64)> {
        let mut out = Vec::new();
        queue.for_each_group(&mut |g, lens| out.push((g, self.rank(lens))));
        out
    }

    fn best_group(&self, queue: &dyn QueueView) -> Option<GroupId> {
        // Highest rank; ties broken by oldest pending request — all
        // deterministic. One allocation-free fold over the queue's
        // group lenses (this runs on every decision where the active
        // residency is drained, so it must not touch the heap).
        let mut best: Option<(GroupId, f64)> = None;
        queue.for_each_group(&mut |g, lens| {
            let rank = self.rank(lens);
            if best.is_none_or(|(bg, brank)| takes_lead(queue, g, bg, rank.total_cmp(&brank))) {
                best = Some((g, rank));
            }
        });
        best.map(|(g, _)| g)
    }
}

impl GroupScheduler for RankBased {
    fn name(&self) -> &'static str {
        "ranking"
    }

    fn decide(
        &mut self,
        queue: &dyn QueueView,
        active: Option<GroupId>,
        pipe: InFlight,
    ) -> Decision {
        // Non-preemptive: drain the residency snapshot first.
        if let Some(g) = active {
            if queue.resident_len(g) > 0 {
                return Decision::ServeActive;
            }
        }
        match self.best_group(queue) {
            None => Decision::Idle,
            Some(g) if Some(g) == active => Decision::ServeActive,
            // Ranks move with every arrival and every switch, so while
            // the pipeline drains the policy declines to commit: the
            // device re-asks at the next completion, and the final
            // decision — made the instant the last transfer retires —
            // sees every arrival the drain overlapped with. Declining
            // costs nothing: the switch cannot start before drain
            // anyway.
            Some(_) if pipe.draining() => Decision::Idle,
            Some(g) => Decision::SwitchTo(g),
        }
    }

    fn on_switch_complete(&mut self, queue: &dyn QueueView, loaded: GroupId) {
        // Queries serviced by the loaded group reset to 0; every other
        // waiting query ages by one switch. Queries that disappeared
        // from the pending queue are garbage-collected: every visited
        // entry gets the new generation stamp, and the retain sweeps
        // whatever kept the old one. One pass over the distinct pending
        // queries per switch — not over the requests — with no presence
        // map materialized.
        self.generation += 1;
        let generation = self.generation;
        let waiting = &mut self.waiting;
        queue.for_each_query_presence(loaded, &mut |q, on_loaded| {
            let e = waiting.entry(q).or_insert((0, generation));
            e.1 = generation;
            e.0 = if on_loaded { 0 } else { e.0 + 1 };
        });
        self.waiting
            .retain(|_, &mut (_, stamp)| stamp == generation);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::testutil::{queue_of, req};

    #[test]
    fn k_zero_degenerates_to_max_queries() {
        let mut p = RankBased::with_k(0.0);
        let q = queue_of(&[req(1, 0, 0, 0, 0), req(1, 1, 0, 0, 1), req(2, 2, 0, 0, 2)]);
        assert_eq!(p.decide(&q, None, InFlight::NONE), Decision::SwitchTo(1));
        // Age group 2 arbitrarily: with K=0 waiting cannot help it.
        for _ in 0..100 {
            p.on_switch_complete(&q, 1);
        }
        assert_eq!(p.decide(&q, None, InFlight::NONE), Decision::SwitchTo(1));
    }

    #[test]
    fn waiting_time_promotes_starved_group() {
        // The Figure 12 narrative: groups 1 and 2 hold two queries each,
        // group 3 holds one. Rank starts at R(1)=R(2)=2, R(3)=1. Each
        // switch to 1 or 2 ages the lone query; after two switches away
        // from it, R(3) = 1 + 2 = 3 > 2 and group 3 outranks the rest.
        let pending = vec![
            req(1, 0, 0, 0, 0),
            req(1, 1, 0, 0, 1),
            req(2, 2, 0, 0, 2),
            req(2, 3, 0, 0, 3),
            req(3, 4, 0, 0, 4),
        ];
        let mut p = RankBased::new();
        let q = queue_of(&pending);
        assert_eq!(p.decide(&q, None, InFlight::NONE), Decision::SwitchTo(1));
        p.on_switch_complete(&q, 1);
        assert_eq!(p.waiting_of(crate::object::QueryId::new(4, 0)), 1);
        // Group 1 drained; among 2 and 3: queries on group 2 also waited
        // one switch: R(2) = 2 + (1+1) = 4, R(3) = 1 + 1 = 2. Efficiency
        // still wins.
        let rest = queue_of(&pending[2..]);
        assert_eq!(
            p.decide(&rest, Some(1), InFlight::NONE),
            Decision::SwitchTo(2)
        );
        p.on_switch_complete(&rest, 2);
        // Now only group 3 remains waiting; W = 2.
        let lone = queue_of(&pending[4..]);
        assert_eq!(p.waiting_of(crate::object::QueryId::new(4, 0)), 2);
        assert_eq!(
            p.decide(&lone, Some(2), InFlight::NONE),
            Decision::SwitchTo(3)
        );
    }

    #[test]
    fn rank_formula_matches_paper() {
        let pending = vec![req(1, 0, 0, 0, 0), req(1, 1, 0, 0, 1), req(2, 2, 0, 0, 2)];
        let mut p = RankBased::new();
        let q = queue_of(&pending);
        // Before any switch: R = N_g.
        assert_eq!(p.ranks(&q), vec![(1, 2.0), (2, 1.0)]);
        p.on_switch_complete(&q, 1);
        // Queries on group 1 reset to 0; query on group 2 aged to 1:
        // R(1) = 2, R(2) = 1 + 1 = 2.
        assert_eq!(p.ranks(&q), vec![(1, 2.0), (2, 2.0)]);
        p.on_switch_complete(&q, 1);
        assert_eq!(p.ranks(&q), vec![(1, 2.0), (2, 3.0)]);
    }

    #[test]
    fn starvation_is_bounded() {
        // Property sketch (full sweep in the integration suite): with
        // K=1, a group with one query and N other queries on one other
        // group gets served after at most N switches.
        let n_other = 7u16;
        let mut p = RankBased::new();
        let mut pending: Vec<_> = (0..n_other).map(|t| req(1, t, 0, 0, t as u64)).collect();
        pending.push(req(2, 99, 0, 0, 99));
        let q = queue_of(&pending);
        let mut switches = 0;
        loop {
            match p.decide(&q, Some(0), InFlight::NONE) {
                Decision::SwitchTo(g) => {
                    switches += 1;
                    p.on_switch_complete(&q, g);
                    if g == 2 {
                        break;
                    }
                    // Serving group 1 does not remove requests here (the
                    // clients re-issue), modelling a steady stream.
                }
                other => panic!("unexpected decision {other:?}"),
            }
            assert!(switches <= n_other as u64 + 1, "lone query starved");
        }
        assert!(switches <= n_other as u64 + 1);
    }

    #[test]
    fn non_preemptive_on_active_group() {
        use crate::sched::testutil::armed_queue;
        let mut p = RankBased::new();
        let q = armed_queue(
            &[req(1, 0, 0, 0, 0), req(2, 1, 0, 0, 1), req(2, 2, 0, 0, 2)],
            1,
        );
        assert_eq!(p.decide(&q, Some(1), InFlight::NONE), Decision::ServeActive);
    }

    #[test]
    fn gc_forgets_departed_queries() {
        use crate::object::QueryId;
        let mut p = RankBased::new();
        let q = queue_of(&[req(1, 0, 0, 0, 0), req(2, 1, 0, 0, 1)]);
        p.on_switch_complete(&q, 1);
        assert_eq!(p.waiting_of(QueryId::new(1, 0)), 1);
        // Query (1,0) completes and disappears.
        let rest = queue_of(&[req(1, 0, 0, 0, 0)]);
        p.on_switch_complete(&rest, 1);
        assert_eq!(p.waiting_of(QueryId::new(1, 0)), 0); // forgotten
    }

    #[test]
    fn idle_when_empty() {
        assert_eq!(
            RankBased::new().decide(&queue_of(&[]), None, InFlight::NONE),
            Decision::Idle
        );
    }
}
