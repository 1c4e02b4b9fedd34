//! The paper's rank-based, query-aware scheduling algorithm (§4.4),
//! and Max-Queries as its `K = 0` case.
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
//! loaded group). The first term alone is Max-Queries, the paper's
//! efficiency yardstick ("maxquery" in Figure 12): most pending queries
//! first, within 2 % of the switch-optimal schedule on tertiary storage
//! (Prabhakar et al.), but a steady stream to popular groups can starve
//! a lone query elsewhere. The second term grows the rank of neglected
//! groups so no tenant starves. The paper derives `K = 1` as the choice
//! that maximizes fairness while preserving the efficiency tipping
//! point (`K < 1/s` favours efficiency as the arrival gap `s → ∞`).
//! [`RankBased::new`] builds `K = 1`, [`RankBased::max_queries`] `K = 0`.
//!
//! Rank maintenance is incremental: `N_g` and the per-group query sets
//! come from the queue's aggregates (updated O(1) amortized per
//! request), and the waiting times are one column sorted by query id,
//! rebuilt once per *switch* by a merge with the queue's ascending
//! query presence — O(distinct pending queries) per switch instead of
//! a full queue rescan per decision.
//!
//! A decision reads that column with a forward cursor, not a search per
//! query. The rank fold visits groups in ascending id and each group
//! lists its queries in ascending id, so where groups and queries rise
//! together (one group per tenant, say) every `W_q` is found a step or
//! two past the previous one. A query that lies behind the cursor (an
//! earlier group already walked past it) falls back to a binary search
//! of the part the cursor has passed, and the cursor never moves back:
//! one fold costs at most one walk of the column plus a search per
//! out-of-order query.

use crate::object::{GroupId, QueryId};
use crate::sched::{Decision, GroupScheduler, InFlight, QueueView};

/// Rank-based group selection balancing efficiency and fairness.
#[derive(Debug)]
pub struct RankBased {
    /// The fairness weight `K`: 1 for the paper's policy, 0 for
    /// Max-Queries.
    k: u64,
    /// Waiting time of each pending query, in group switches since it
    /// was last serviced, in ascending query id. A query missing from
    /// it has waited for no switch yet. Empty when `K = 0`.
    waiting: Vec<(QueryId, u64)>,
    /// The buffer the next switch rebuilds `waiting` into. The two swap
    /// after every switch, so a warm table never touches the allocator.
    spare: Vec<(QueryId, u64)>,
}

impl Default for RankBased {
    fn default() -> Self {
        Self::new()
    }
}

impl RankBased {
    /// Creates the policy with the paper's `K = 1`.
    pub fn new() -> Self {
        RankBased {
            k: 1,
            waiting: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Creates Max-Queries: the rank with `K = 0`, most pending queries
    /// first. It keeps no waiting times.
    pub(crate) fn max_queries() -> Self {
        RankBased {
            k: 0,
            ..Self::new()
        }
    }

    /// Current waiting time of `q` (0 if unknown — new queries have not
    /// waited for any switch yet).
    pub fn waiting_of(&self, q: QueryId) -> u64 {
        self.waiting
            .binary_search_by_key(&q, |&(q, _)| q)
            .map_or(0, |at| self.waiting[at].1)
    }

    /// `W_q` through one fold's forward cursor `at` (see the module
    /// docs): the column entries before `at` all have ids below the
    /// furthest query looked up so far, and the entry at `at` does not.
    fn waiting_from(&self, at: &mut usize, q: QueryId) -> u64 {
        let column = &self.waiting;
        if *at > 0 && column[*at - 1].0 >= q {
            // Behind the cursor: search the passed part, stay put.
            return column[..*at]
                .binary_search_by_key(&q, |&(q, _)| q)
                .map_or(0, |i| column[i].1);
        }
        while column.get(*at).is_some_and(|&(o, _)| o < q) {
            *at += 1;
        }
        match column.get(*at) {
            Some(&(o, w)) if o == q => w,
            _ => 0,
        }
    }

    /// Visits `(g, R(g))` for every group with pending data, in
    /// ascending group id, with `R(g) = N_g + K·ΣW_q(g)`. The one
    /// statement of the rank: [`RankBased::ranks`] collects it and the
    /// policy folds it without collecting, so it must not allocate.
    fn for_each_rank(&self, queue: &dyn QueueView, mut visit: impl FnMut(GroupId, u64)) {
        let mut at = 0;
        queue.for_each_group(&mut |g, lens| {
            let w: u64 = lens
                .queries
                .iter()
                .map(|&q| self.waiting_from(&mut at, q))
                .sum();
            visit(g, lens.queries.len() as u64 + self.k * w);
        });
    }

    /// The rank `R(g)` of each group with pending data, in ascending
    /// group id. For tests and the scheduling example; the policy
    /// itself folds the ranks without collecting them.
    pub fn ranks(&self, queue: &dyn QueueView) -> Vec<(GroupId, u64)> {
        let mut out = Vec::new();
        self.for_each_rank(queue, |g, rank| out.push((g, rank)));
        out
    }

    fn best_group(&self, queue: &dyn QueueView) -> Option<GroupId> {
        // Highest rank; equal ranks go to the group holding the older
        // request ([`QueueView::oldest_seq_on`], consulted only on a
        // tie). Seqs are unique across groups, so no further tie-break
        // is reachable. One allocation-free fold over the queue's group
        // lenses (this runs on every decision where the active
        // residency is drained, so it must not touch the heap).
        let mut best: Option<(GroupId, u64)> = None;
        self.for_each_rank(queue, |g, rank| {
            let leads = best.is_none_or(|(bg, brank)| {
                rank.cmp(&brank)
                    .then_with(|| queue.oldest_seq_on(bg).cmp(&queue.oldest_seq_on(g)))
                    .is_gt()
            });
            if leads {
                best = Some((g, rank));
            }
        });
        best.map(|(g, _)| g)
    }
}

impl GroupScheduler for RankBased {
    fn name(&self) -> &'static str {
        if self.k == 0 {
            "maxquery"
        } else {
            "ranking"
        }
    }

    fn decide(
        &mut self,
        queue: &dyn QueueView,
        active: Option<GroupId>,
        pipe: InFlight,
    ) -> Decision {
        // Non-preemptive: drain the residency snapshot first (new
        // arrivals wait for the next decision point).
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
        if self.k == 0 {
            return;
        }
        // Queries serviced by the loaded group reset to 0; every other
        // pending query ages by one switch. One merge of the old column
        // with the queue's ascending presence walk: queries that left
        // the queue are skipped, so they drop out of the new column.
        let mut old = self.waiting.iter().peekable();
        let next = &mut self.spare;
        next.clear();
        queue.for_each_query_presence(loaded, &mut |q, on_loaded| {
            while old.next_if(|&&(o, _)| o < q).is_some() {}
            let waited = old.next_if(|&&(o, _)| o == q).map_or(0, |&(_, w)| w);
            next.push((q, if on_loaded { 0 } else { waited + 1 }));
        });
        std::mem::swap(&mut self.waiting, &mut self.spare);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::testutil::{queue_of, req};

    #[test]
    fn k_zero_degenerates_to_max_queries() {
        let mut p = RankBased::max_queries();
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
        assert_eq!(p.ranks(&q), vec![(1, 2), (2, 1)]);
        p.on_switch_complete(&q, 1);
        // Queries on group 1 reset to 0; query on group 2 aged to 1:
        // R(1) = 2, R(2) = 1 + 1 = 2.
        assert_eq!(p.ranks(&q), vec![(1, 2), (2, 2)]);
        p.on_switch_complete(&q, 1);
        assert_eq!(p.ranks(&q), vec![(1, 2), (2, 3)]);
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

    /// Max-Queries: the rank with `K = 0`.
    mod max_queries {
        use super::*;
        use crate::sched::testutil::armed_queue;
        use crate::sched::{RequestIndex, ServeScope};

        #[test]
        fn picks_group_with_most_queries() {
            let mut p = RankBased::max_queries();
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
            let mut p = RankBased::max_queries();
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
            let mut p = RankBased::max_queries();
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
            let mut p = RankBased::max_queries();
            let q = queue_of(&[req(3, 0, 0, 0, 9), req(2, 1, 0, 0, 1)]);
            // Both groups have one query; group 2's request is older.
            assert_eq!(p.decide(&q, None, InFlight::NONE), Decision::SwitchTo(2));
        }

        #[test]
        fn idle_when_empty() {
            assert_eq!(
                RankBased::max_queries().decide(&queue_of(&[]), Some(3), InFlight::NONE),
                Decision::Idle
            );
        }

        #[test]
        fn whole_residency_in_scope() {
            let p = RankBased::max_queries();
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
}
