//! Group-switch scheduling.
//!
//! At any instant the CSD holds a set of pending GET requests, tagged with
//! query identifiers by the Skipper client proxy, spread across disk
//! groups. The scheduler answers the three questions of §4.4:
//!
//! 1. **Which group to switch to?** — policy-specific: [`FcfsObject`],
//!    [`FcfsSlack`], [`FcfsQuery`], and [`RankBased`], whose `K = 0`
//!    case (`RankBased::max_queries`) is Max-Queries.
//! 2. **When to switch?** — no preemption: the group-centric policies
//!    serve every pending request on the loaded group before switching
//!    (shown optimal for tertiary storage by Prabhakar et al.); the FCFS
//!    policies serve only their fairness scope, which is precisely why
//!    they cause extra switches.
//! 3. **What ordering within a group?** — the device's
//!    [`IntraGroupOrder`](crate::device::IntraGroupOrder) policy
//!    (semantically-smart round-robin across tables vs naive per-table).
//!
//! The scheduler is a pure decision function over the pending-request
//! queue plus whatever internal fairness state it keeps (the rank-based
//! policy tracks per-query waiting times, measured in group switches).
//! Its one other input is [`InFlight`]: how many transfers are still
//! draining on the active group.
//!
//! # The queue view
//!
//! Policies do not scan the raw request list. They consume a
//! [`QueueView`], which holds only what the policies read:
//! - the globally-oldest request (object- and query-FCFS's target);
//! - whether a group holds a query (query-FCFS stays on the active group);
//! - each group's distinct queries and request count, borrowed as a
//!   [`GroupLens`] (the rank `R(g)` and its `N_g`), with the
//!   oldest seq on a group as the tie-break ([`QueueView::oldest_seq_on`]);
//! - the *k*-oldest window (slack FCFS);
//! - every pending query in ascending id and whether it is on the loaded
//!   group (the rank policy's waiting times);
//! - the residency snapshot's size on the active group.
//!
//! The production [`RequestQueue`] maintains all of it incrementally at
//! O(1) amortized per insert and serve. The pre-indexing full-rescan
//! semantics survive as `NaiveQueue` (in `skipper-testkit`), the
//! reference implementation the differential tests run against.
//!
//! Instead of returning request indices, a policy describes *which*
//! requests may be served during the current residency as a declarative
//! [`ServeScope`]; the queue resolves the scope plus the device's
//! intra-group order to a concrete request without rescanning.

mod fcfs;
pub(crate) mod queue;
mod rank;
mod slack;

pub use fcfs::{FcfsObject, FcfsQuery};
pub use queue::{RequestIndex, RequestQueue};
pub use rank::RankBased;
pub use slack::FcfsSlack;

use crate::object::{GroupId, ObjectId, QueryId};

/// One queued GET request as seen by the scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PendingRequest {
    /// Requested object.
    pub object: ObjectId,
    /// The query this GET belongs to (client-proxy tag).
    pub query: QueryId,
    /// Issuing client index.
    pub client: usize,
    /// Disk group housing the object.
    pub group: GroupId,
    /// Logical object size, captured from the store at submit so the
    /// dispatch path never re-probes the store per event.
    pub bytes: u64,
    /// The object's slot in the device's
    /// [`ObjectStore`](crate::store::ObjectStore), resolved at submit
    /// alongside `group` and `bytes` so the completion reads the payload
    /// by index instead of probing the store again. Valid only on the
    /// device that resolved it: a request re-routed to another shard is
    /// resubmitted by object id and resolved afresh there.
    pub slot: u32,
    /// Device arrival sequence number: arrival order, and the FIFO
    /// tie-break. No policy reads an arrival *time*, so none is kept.
    pub seq: u64,
}

/// A scheduling decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Serve a request on the active group; the device resolves the
    /// policy's [`ServeScope`] plus its intra-group ordering to the
    /// concrete request.
    ServeActive,
    /// Spin down the active group and load this one. If transfers are
    /// still in flight the device *arms* the switch: it starts the
    /// instant the last one completes (no idle gap, no new transfers).
    SwitchTo(GroupId),
    /// Nothing to start right now. With transfers in flight this is a
    /// *decline*: the device keeps draining and asks again at the next
    /// completion, when the policy has strictly more information.
    Idle,
}

/// The device's service-pipeline occupancy at decision time.
///
/// The multi-stream device consults the scheduler once per idle
/// transfer slot, so — unlike the historical one-op state machine —
/// decisions are routinely made *while transfers are still in flight*.
/// Requests leave the pending queue at dispatch, not at completion, so
/// the queue view alone under-reports what the device is committed to;
/// this context restores the full picture. All in-flight transfers are
/// on the active group (serving never crosses a group switch), so
/// [`InFlight::transfers`] is exactly the active group's occupancy.
///
/// Policies may use it to *decline to switch while the pipe drains*
/// (return [`Decision::Idle`] and re-decide at drain time with
/// complete information — the group-centric policies and the
/// query/slack FCFS variants do this, since their decisions depend on
/// queue state that mid-drain arrivals can flip) or to commit early
/// and let the device arm the switch (strict object-FCFS: its target
/// is the globally-oldest request, which new arrivals — always
/// younger — cannot change, so early commitment is provably identical
/// to re-deciding at drain).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InFlight {
    /// Transfers currently occupying pipeline slots (all of them on the
    /// active group).
    pub transfers: usize,
}

impl InFlight {
    /// The serial baseline: nothing in flight. Every decision of the
    /// historical one-op device was made in this state.
    pub const NONE: InFlight = InFlight { transfers: 0 };

    /// True while old-group transfers are still draining out of the
    /// pipeline.
    pub(crate) fn draining(self) -> bool {
        self.transfers > 0
    }
}

impl Default for InFlight {
    fn default() -> Self {
        InFlight::NONE
    }
}

/// Which pending requests on the active group may be served during the
/// current residency. Policies return a declarative scope; the request
/// queue resolves it — together with the device's
/// [`IntraGroupOrder`](crate::device::IntraGroupOrder) — to a single
/// request without materializing index lists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeScope {
    /// Every request of the residency snapshot still pending on the
    /// active group (the default group-centric, non-preemptive scope).
    Residency,
    /// The oldest query's requests on the active group — query-level
    /// FCFS, no merging across queries.
    OldestQuery,
    /// Requests on the active group among the `k` oldest pending
    /// requests — FCFS with a reordering window; `Window(1)` is strict
    /// object-level FCFS.
    Window(usize),
}

/// Read access to the pending-request queue: per-group aggregates plus
/// the ordered lookups the policies decide over.
///
/// Two implementations exist: the incrementally-indexed
/// [`RequestQueue`] (production, O(1) amortized updates)
/// and the full-rescan `NaiveQueue` in `skipper-testkit` (the pre-index
/// reference the differential suite diffs against).
pub trait QueueView {
    /// Number of pending requests.
    fn len(&self) -> usize;

    /// True when nothing is pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The pending request with the smallest arrival sequence number.
    fn oldest(&self) -> Option<PendingRequest>;

    /// True when query `q` has at least one pending request on `g`.
    fn group_has_query(&self, g: GroupId, q: QueryId) -> bool;

    /// The smallest arrival sequence number pending on `g` (`None` when
    /// nothing is). The group-centric policies' deterministic
    /// tie-break: asked only for groups whose scores actually tie, so
    /// it is a lookup of its own instead of a per-group aggregate every
    /// decision would pay for.
    fn oldest_seq_on(&self, g: GroupId) -> Option<u64>;

    /// Number of requests of the current residency snapshot still
    /// pending on `g`. Only meaningful for the group the snapshot was
    /// armed on (the active group).
    fn resident_len(&self, g: GroupId) -> usize;

    /// Visits every group with pending requests in ascending group id,
    /// handing each a borrowed [`GroupLens`]. This is the hot decision
    /// path: the indexed queue implements it without touching the
    /// allocator (the lens borrows the incrementally-maintained
    /// aggregates in place), which is what keeps scheduler decisions
    /// allocation-free no matter how often the fleet re-decides.
    fn for_each_group(&self, visit: &mut dyn FnMut(GroupId, &GroupLens<'_>));

    /// Visits the `k` oldest pending requests by arrival sequence,
    /// oldest first (the slack-window decision path, allocation-free
    /// on the indexed queue).
    fn for_each_window(&self, k: usize, visit: &mut dyn FnMut(&PendingRequest));

    /// Visits every distinct query with pending data in ascending query
    /// id, each flagged with whether it has data on group `on`. The rank
    /// policy merges its sorted waiting column against this order.
    fn for_each_query_presence(&self, on: GroupId, visit: &mut dyn FnMut(QueryId, bool));
}

/// One group's aggregates as borrowed during
/// [`QueueView::for_each_group`]. Nothing is copied out of the queue —
/// the query list is the queue's own per-group key array — so a policy
/// folding over every group (the rank) costs zero heap traffic
/// and no indirect call per query.
pub struct GroupLens<'a> {
    /// Distinct queries with pending data on this group, ascending.
    pub queries: &'a [QueryId],
    /// Pending request count.
    pub requests: usize,
}

/// A group-switch scheduling policy.
///
/// `Send` is a supertrait so a boxed policy — and with it a whole
/// device — may be handed to another thread. The runtime is one
/// single-threaded event loop, so nothing in the tree relies on the
/// bound today; it stays because policies are plain state machines (it
/// costs them nothing) and re-adding it later would break every policy
/// written outside this crate.
pub trait GroupScheduler: Send {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Decides the next action given the queue view, the currently
    /// loaded group (`None` before the first load), and the pipeline
    /// occupancy (`pipe`). Returning [`Decision::ServeActive`] for the
    /// already loaded group after its residency drained makes the
    /// device re-arm a fresh snapshot without paying a switch;
    /// returning [`Decision::SwitchTo`] while `pipe` is draining arms
    /// the switch to begin at drain; returning [`Decision::Idle`]
    /// while draining declines the decision until the next completion.
    fn decide(
        &mut self,
        queue: &dyn QueueView,
        active: Option<GroupId>,
        pipe: InFlight,
    ) -> Decision;

    /// Which requests on the active group may be served during the
    /// current residency. The default (group-centric, non-preemptive)
    /// scope is every request of the residency snapshot still pending.
    fn serve_scope(&self) -> ServeScope {
        ServeScope::Residency
    }

    /// Notifies the policy that a switch to `loaded` completed; fairness
    /// state (waiting counters) updates here.
    fn on_switch_complete(&mut self, _queue: &dyn QueueView, _loaded: GroupId) {}
}

/// The canned policies, for configuration plumbing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Strict object-level FCFS.
    FcfsObject,
    /// FCFS with a reordering window — how stock CSDs (Pelican) schedule
    /// (§4.4). The payload is the slack window size.
    FcfsSlack(usize),
    /// Query-level FCFS ("fairness" in Figure 12).
    FcfsQuery,
    /// Most-pending-queries-first ("maxquery" in Figure 12): the rank
    /// with `K = 0`.
    MaxQueries,
    /// The paper's rank-based policy ("ranking" in Figure 12).
    RankBased,
}

impl SchedPolicy {
    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn GroupScheduler> {
        match self {
            SchedPolicy::FcfsObject => Box::new(FcfsObject::new()),
            SchedPolicy::FcfsSlack(window) => Box::new(FcfsSlack::new(window)),
            SchedPolicy::FcfsQuery => Box::new(FcfsQuery::new()),
            SchedPolicy::MaxQueries => Box::new(RankBased::max_queries()),
            SchedPolicy::RankBased => Box::new(RankBased::new()),
        }
    }

    /// Label used in Figure 12.
    pub fn label(self) -> &'static str {
        match self {
            SchedPolicy::FcfsObject => "fcfs-object",
            SchedPolicy::FcfsSlack(_) => "fcfs-slack",
            SchedPolicy::FcfsQuery => "fairness",
            SchedPolicy::MaxQueries => "maxquery",
            SchedPolicy::RankBased => "ranking",
        }
    }

    /// Every canned policy (slack window 4), for sweeps.
    pub fn all() -> [SchedPolicy; 5] {
        [
            SchedPolicy::FcfsObject,
            SchedPolicy::FcfsSlack(4),
            SchedPolicy::FcfsQuery,
            SchedPolicy::MaxQueries,
            SchedPolicy::RankBased,
        ]
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::device::IntraGroupOrder;

    /// Builds a pending request with compact syntax for scheduler tests.
    pub(crate) fn req(
        group: GroupId,
        tenant: u16,
        qseq: u32,
        seg: u32,
        seq: u64,
    ) -> PendingRequest {
        PendingRequest {
            object: ObjectId::new(tenant, 0, seg),
            query: QueryId::new(tenant, qseq),
            client: tenant as usize,
            group,
            bytes: 0,
            slot: 0,
            seq,
        }
    }

    /// An indexed queue over `pending`, arrival-ordered intra-group.
    pub(crate) fn queue_of(pending: &[PendingRequest]) -> queue::RequestQueue {
        queue_with(IntraGroupOrder::ArrivalOrder, pending)
    }

    /// An indexed queue over `pending`, preloaded in seq order, with
    /// the given intra order.
    pub(crate) fn queue_with(
        intra: IntraGroupOrder,
        pending: &[PendingRequest],
    ) -> queue::RequestQueue {
        queue::RequestQueue::from_requests(intra, pending.iter().copied())
    }

    /// A queue whose current contents are all resident on `group` —
    /// the "everything in scope" setup the old slice-based tests
    /// modelled with a saturated seq set.
    pub(crate) fn armed_queue(pending: &[PendingRequest], group: GroupId) -> queue::RequestQueue {
        let mut q = queue_of(pending);
        q.arm_residency(group);
        q
    }

    /// One group's aggregates as the differential tests compare them:
    /// group, distinct queries (ascending), request count, oldest seq.
    pub(crate) type Aggregate = (GroupId, Vec<QueryId>, usize, Option<u64>);

    /// Every group's [`Aggregate`], in ascending group id.
    pub(crate) fn aggregates(view: &dyn QueueView) -> Vec<Aggregate> {
        let mut out = Vec::new();
        view.for_each_group(&mut |g, lens| {
            out.push((
                g,
                lens.queries.to_vec(),
                lens.requests,
                view.oldest_seq_on(g),
            ));
        });
        out
    }

    /// The `k` oldest pending requests, oldest first.
    pub(crate) fn window(view: &dyn QueueView, k: usize) -> Vec<PendingRequest> {
        let mut out = Vec::new();
        view.for_each_window(k, &mut |r| out.push(*r));
        out
    }

    /// Query `q`'s oldest pending request.
    pub(crate) fn oldest_of_query(view: &dyn QueueView, q: QueryId) -> Option<PendingRequest> {
        window(view, usize::MAX).into_iter().find(|r| r.query == q)
    }

    /// Every query with pending data and whether it has data on `on`,
    /// in visit order, which must be ascending query id.
    pub(crate) fn presence(view: &dyn QueueView, on: GroupId) -> Vec<(QueryId, bool)> {
        let mut out = Vec::new();
        view.for_each_query_presence(on, &mut |q, p| out.push((q, p)));
        assert!(
            out.is_sorted_by(|a, b| a.0 < b.0),
            "query presence out of order"
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{self, req};
    use super::*;

    #[test]
    fn group_stats_aggregates() {
        let queue = testutil::queue_of(&[
            req(1, 0, 0, 0, 3),
            req(1, 0, 0, 1, 1),
            req(2, 1, 0, 0, 2),
            req(1, 2, 0, 0, 4),
        ]);
        let (q0, q1, q2) = (QueryId::new(0, 0), QueryId::new(1, 0), QueryId::new(2, 0));
        assert_eq!(
            testutil::aggregates(&queue),
            vec![(1, vec![q0, q2], 3, Some(1)), (2, vec![q1], 1, Some(2))]
        );
    }

    #[test]
    fn default_serve_scope_is_residency() {
        struct Dummy;
        impl GroupScheduler for Dummy {
            fn name(&self) -> &'static str {
                "dummy"
            }
            fn decide(&mut self, _: &dyn QueueView, _: Option<GroupId>, _: InFlight) -> Decision {
                Decision::Idle
            }
        }
        assert_eq!(Dummy.serve_scope(), ServeScope::Residency);
    }

    #[test]
    fn in_flight_defaults_to_the_serial_baseline() {
        let pipe = InFlight::default();
        assert_eq!(pipe, InFlight::NONE);
        assert!(!pipe.draining());
        assert!(InFlight { transfers: 2 }.draining());
    }

    #[test]
    fn policy_labels() {
        assert_eq!(SchedPolicy::FcfsQuery.label(), "fairness");
        assert_eq!(SchedPolicy::MaxQueries.label(), "maxquery");
        assert_eq!(SchedPolicy::RankBased.label(), "ranking");
        assert_eq!(SchedPolicy::RankBased.build().name(), "ranking");
        assert_eq!(SchedPolicy::MaxQueries.build().name(), "maxquery");
    }
}
