//! FCFS with parameterized slack — how shipping CSDs actually schedule.
//!
//! §4.4: "Current CSD solve this problem by scheduling object requests in
//! a First-Come-First-Served (FCFS) order to provide fairness with some
//! parameterized slack that occasionally violates the strict FCFS
//! ordering by reordering and grouping requests on the same disk group to
//! improve performance" (Pelican's scheduler works this way).
//!
//! The policy looks at the oldest `slack` pending requests; the oldest
//! request dictates the target group, and every request *within the
//! window* on that group may be served during the residency. `slack = 1`
//! degenerates to strict object-FCFS; `slack = ∞` approaches per-group
//! batching while keeping arrival order between groups.

use crate::object::GroupId;
use crate::sched::{Decision, GroupScheduler, InFlight, QueueView, ServeScope};

/// First-come-first-served with a reordering window.
#[derive(Debug)]
pub struct FcfsSlack {
    /// Window size: how many oldest requests may be reordered/grouped.
    slack: usize,
}

impl FcfsSlack {
    /// Creates the policy with the given reordering window (≥ 1).
    pub(crate) fn new(slack: usize) -> Self {
        assert!(slack >= 1, "slack window must hold at least one request");
        FcfsSlack { slack }
    }
}

impl GroupScheduler for FcfsSlack {
    fn name(&self) -> &'static str {
        "fcfs-slack"
    }

    fn decide(
        &mut self,
        queue: &dyn QueueView,
        active: Option<GroupId>,
        pipe: InFlight,
    ) -> Decision {
        // One allocation-free pass over the slack window: the oldest
        // request dictates the target group, and any window request on
        // the active group keeps the residency (the "grouping requests
        // on the same disk group" reordering).
        let mut oldest: Option<GroupId> = None;
        let mut active_in_window = false;
        queue.for_each_window(self.slack, &mut |r| {
            if oldest.is_none() {
                oldest = Some(r.group);
            }
            active_in_window |= Some(r.group) == active;
        });
        let Some(oldest) = oldest else {
            return Decision::Idle;
        };
        if active.is_some() && active_in_window {
            return Decision::ServeActive;
        }
        if Some(oldest) == active {
            Decision::ServeActive
        } else if pipe.draining() {
            // The "active group has window work" predicate above can
            // flip when a mid-drain arrival lands on the active group,
            // so an armed switch could go stale. Decline and re-decide
            // the instant the pipe drains (no time is lost: the switch
            // could not start earlier anyway).
            Decision::Idle
        } else {
            Decision::SwitchTo(oldest)
        }
    }

    /// Scope: requests on the active group within the slack window.
    fn serve_scope(&self) -> ServeScope {
        ServeScope::Window(self.slack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::testutil::{queue_of, req};
    use crate::sched::RequestIndex;

    #[test]
    fn slack_one_is_strict_fcfs() {
        let mut p = FcfsSlack::new(1);
        // Oldest (seq 3) on group 2; active group 1 has pending work at
        // seq 7, but the window of one only sees seq 3.
        let q = queue_of(&[req(1, 0, 0, 0, 7), req(2, 1, 0, 0, 3)]);
        assert_eq!(p.decide(&q, Some(1), InFlight::NONE), Decision::SwitchTo(2));
    }

    #[test]
    fn slack_window_groups_same_group_requests() {
        let mut p = FcfsSlack::new(4);
        // Arrival order: g2, g1, g2, g2. Strict FCFS would switch
        // g2→g1→g2; with slack 4 and g2 loaded, the window's g2 requests
        // are served first (in arrival order here).
        let mut q = queue_of(&[
            req(2, 0, 0, 0, 0),
            req(1, 1, 0, 0, 1),
            req(2, 2, 0, 1, 2),
            req(2, 3, 0, 2, 3),
        ]);
        assert_eq!(p.decide(&q, Some(2), InFlight::NONE), Decision::ServeActive);
        for expect in [0u64, 2, 3] {
            assert_eq!(q.select(p.serve_scope(), 2), Some(expect));
            q.remove(expect);
        }
        // Once g2's window work drains, the oldest remaining (g1) wins.
        assert_eq!(p.decide(&q, Some(2), InFlight::NONE), Decision::SwitchTo(1));
    }

    #[test]
    fn requests_beyond_the_window_cannot_jump_the_queue() {
        let mut p = FcfsSlack::new(2);
        // Window = seqs {0, 1} (groups 1, 2); a later request on the
        // active group 3 (seq 5) is outside the window and must wait.
        let q = queue_of(&[req(1, 0, 0, 0, 0), req(2, 1, 0, 0, 1), req(3, 2, 0, 0, 5)]);
        assert_eq!(p.decide(&q, Some(3), InFlight::NONE), Decision::SwitchTo(1));
        assert_eq!(q.select(p.serve_scope(), 3), None);
    }

    #[test]
    fn slack_declines_while_the_pipe_drains() {
        // The whole window sits on group 2 while group 1 is active with
        // a transfer in flight: decline (a mid-drain arrival on group 1
        // would re-enter the window's grouping scope), then switch once
        // the pipe is empty.
        let mut p = FcfsSlack::new(2);
        let q = queue_of(&[req(2, 0, 0, 0, 3), req(2, 1, 0, 1, 4)]);
        let draining = InFlight { transfers: 1 };
        assert_eq!(p.decide(&q, Some(1), draining), Decision::Idle);
        assert_eq!(p.decide(&q, Some(1), InFlight::NONE), Decision::SwitchTo(2));
    }

    #[test]
    fn fewer_switches_than_strict_fcfs_on_interleaved_arrivals() {
        use crate::device::{CsdConfig, CsdDevice, IntraGroupOrder};
        use crate::object::{ObjectId, QueryId};
        use crate::sched::GroupScheduler;
        use crate::store::ObjectStore;
        use skipper_sim::{SimDuration, SimTime};

        let run = |sched: Box<dyn GroupScheduler>| {
            let mut store = ObjectStore::new();
            for t in 0..2u16 {
                for s in 0..3u32 {
                    store.put(ObjectId::new(t, 0, s), 1 << 20, t as u32, ());
                }
            }
            let mut dev: CsdDevice<()> = CsdDevice::new(
                CsdConfig {
                    switch_latency: SimDuration::from_secs(10),
                    bandwidth_bytes_per_sec: (1 << 20) as f64,
                    parallel_streams: 1,
                    ..CsdConfig::default()
                },
                store,
                sched,
                IntraGroupOrder::ArrivalOrder,
            );
            // Interleaved arrivals: t0/s0, t1/s0, t0/s1, t1/s1, ...
            let mut now = SimTime::ZERO;
            for s in 0..3u32 {
                for t in 0..2u16 {
                    dev.submit(
                        now,
                        t as usize,
                        QueryId::new(t, 0),
                        &[ObjectId::new(t, 0, s)],
                    );
                }
            }
            let mut done = Vec::new();
            while let Some(until) = dev.kick(now) {
                now = until;
                done.clear();
                dev.complete_into(now, &mut done);
            }
            dev.metrics().group_switches
        };
        let strict = run(Box::new(crate::sched::FcfsObject::new()));
        let slack = run(Box::new(FcfsSlack::new(6)));
        assert_eq!(strict, 5, "strict FCFS ping-pongs");
        assert_eq!(slack, 1, "slack grouping batches per group");
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn zero_slack_rejected() {
        FcfsSlack::new(0);
    }
}
