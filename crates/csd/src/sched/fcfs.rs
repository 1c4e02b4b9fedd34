//! First-come-first-served policies.
//!
//! [`FcfsObject`] is how stock cold storage devices schedule (§4.4):
//! requests are served strictly in arrival order, so two adjacent
//! requests on different groups force a switch even when more work exists
//! on the loaded group. Being query-agnostic, it "produces many
//! unwarranted group switches in an attempt to enforce fairness".
//!
//! [`FcfsQuery`] lifts FCFS to query granularity using the client proxy's
//! query tags: the oldest query is served to completion (across all
//! groups holding its data) before the next. This is the "fairness"
//! baseline of Figure 12 — fair, but unable to merge requests across
//! queries, so it still switches more than necessary.

use crate::object::GroupId;
use crate::sched::{Decision, GroupScheduler, InFlight, QueueView, ServeScope};

/// Strict object-level FCFS.
#[derive(Debug, Default)]
pub struct FcfsObject;

impl FcfsObject {
    /// Creates the policy.
    pub(crate) fn new() -> Self {
        FcfsObject
    }
}

impl GroupScheduler for FcfsObject {
    fn name(&self) -> &'static str {
        "fcfs-object"
    }

    // In-flight context unused: the target group is the oldest pending
    // request's, which new arrivals cannot change (they get larger
    // seqs), so committing a switch early — the device arms it while
    // the pipe drains — is identical to re-deciding at drain time.
    fn decide(&mut self, queue: &dyn QueueView, active: Option<GroupId>, _: InFlight) -> Decision {
        match queue.oldest() {
            None => Decision::Idle,
            Some(r) if Some(r.group) == active => Decision::ServeActive,
            Some(r) => Decision::SwitchTo(r.group),
        }
    }

    /// Only the globally oldest request may be served — a window of
    /// one: strict arrival order, re-evaluated after every service.
    fn serve_scope(&self) -> ServeScope {
        ServeScope::Window(1)
    }
}

/// Query-level FCFS ("fairness" in Figure 12).
#[derive(Debug, Default)]
pub struct FcfsQuery;

impl FcfsQuery {
    /// Creates the policy.
    pub(crate) fn new() -> Self {
        FcfsQuery
    }
}

impl GroupScheduler for FcfsQuery {
    fn name(&self) -> &'static str {
        "fairness"
    }

    fn decide(
        &mut self,
        queue: &dyn QueueView,
        active: Option<GroupId>,
        pipe: InFlight,
    ) -> Decision {
        // The oldest query is the one whose earliest request arrived
        // first (by sequence number, which encodes arrival order).
        let Some(oldest) = queue.oldest() else {
            return Decision::Idle;
        };
        // Serve the oldest query's requests; prefer its data on the
        // active group to avoid gratuitous switches, otherwise go to the
        // group holding its oldest request — which, the query being the
        // oldest, is the globally oldest request.
        if active.is_some_and(|g| queue.group_has_query(g, oldest.query)) {
            Decision::ServeActive
        } else if pipe.draining() {
            // Unlike object-FCFS, this decision is NOT fixed by arrival
            // order alone: "which query is oldest" and "does it have
            // data on the active group" can both flip when a mid-drain
            // delivery makes a pull-based client refill the active
            // group. Decline instead of arming a possibly-stale switch;
            // the device re-asks the instant the pipe drains.
            Decision::Idle
        } else {
            Decision::SwitchTo(oldest.group)
        }
    }

    /// Only the oldest query's requests on the loaded group are in scope —
    /// no request merging across queries.
    fn serve_scope(&self) -> ServeScope {
        ServeScope::OldestQuery
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::testutil::{queue_of, req};
    use crate::sched::RequestIndex;

    #[test]
    fn object_fcfs_follows_arrival_order() {
        let mut p = FcfsObject::new();
        let q = queue_of(&[req(2, 0, 0, 0, 5), req(1, 1, 0, 0, 2)]);
        // Oldest (seq 2) is on group 1.
        assert_eq!(p.decide(&q, None, InFlight::NONE), Decision::SwitchTo(1));
        assert_eq!(p.decide(&q, Some(1), InFlight::NONE), Decision::ServeActive);
        assert_eq!(q.select(p.serve_scope(), 1), Some(2));
        // Even though group 2 might hold more data later, only the oldest
        // request is in scope.
        assert_eq!(q.select(p.serve_scope(), 2), None);
    }

    #[test]
    fn object_fcfs_switches_even_with_active_work() {
        // Active group 1 still has a request (seq 7), but the oldest
        // pending (seq 3) is on group 2: strict FCFS must switch.
        let mut p = FcfsObject::new();
        let q = queue_of(&[req(1, 0, 0, 0, 7), req(2, 1, 0, 0, 3)]);
        assert_eq!(p.decide(&q, Some(1), InFlight::NONE), Decision::SwitchTo(2));
    }

    #[test]
    fn query_fcfs_serves_oldest_query_completely() {
        let mut p = FcfsQuery::new();
        // Query (0,0) arrived first, spanning groups 1 and 2; query (1,0)
        // is younger on group 1.
        let q = queue_of(&[req(1, 0, 0, 0, 0), req(2, 0, 0, 1, 1), req(1, 1, 0, 0, 2)]);
        assert_eq!(p.decide(&q, None, InFlight::NONE), Decision::SwitchTo(1));
        // On group 1 only query (0,0)'s request is in scope, not (1,0)'s.
        assert_eq!(q.select(p.serve_scope(), 1), Some(0));
        // After group 1 is done for query 0, its remaining data is on 2.
        let rest = queue_of(&[req(2, 0, 0, 1, 1), req(1, 1, 0, 0, 2)]);
        assert_eq!(
            p.decide(&rest, Some(1), InFlight::NONE),
            Decision::SwitchTo(2)
        );
    }

    #[test]
    fn query_fcfs_prefers_active_group_of_oldest_query() {
        let mut p = FcfsQuery::new();
        // Oldest query has data on groups 1 and 2; active is 2 → serve 2
        // first (no gratuitous switch), even though its oldest request is
        // on group 1.
        let q = queue_of(&[req(1, 0, 0, 0, 0), req(2, 0, 0, 1, 1)]);
        assert_eq!(p.decide(&q, Some(2), InFlight::NONE), Decision::ServeActive);
        assert_eq!(q.select(p.serve_scope(), 2), Some(1));
    }

    #[test]
    fn query_fcfs_declines_while_the_pipe_drains() {
        // Oldest queued query's data is on group 2, active is 1, and a
        // transfer is still in flight: the policy must decline (Idle)
        // rather than arm a switch that a mid-drain refill on group 1
        // could invalidate. With the pipe empty it switches as before.
        let mut p = FcfsQuery::new();
        let q = queue_of(&[req(2, 0, 0, 0, 4)]);
        let draining = InFlight { transfers: 1 };
        assert_eq!(p.decide(&q, Some(1), draining), Decision::Idle);
        assert_eq!(p.decide(&q, Some(1), InFlight::NONE), Decision::SwitchTo(2));
    }

    #[test]
    fn idle_when_empty() {
        let empty = queue_of(&[]);
        assert_eq!(
            FcfsObject::new().decide(&empty, Some(0), InFlight::NONE),
            Decision::Idle
        );
        assert_eq!(
            FcfsQuery::new().decide(&empty, None, InFlight::NONE),
            Decision::Idle
        );
        assert_eq!(empty.select(FcfsQuery::new().serve_scope(), 0), None);
    }
}
