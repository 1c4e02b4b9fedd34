//! The full-rescan reference queue — the pre-index implementation.
//!
//! Before the indexed [`RequestQueue`](skipper_csd::sched::RequestQueue)
//! landed, the device kept a flat `Vec<PendingRequest>` and every
//! scheduling decision re-derived its facts with O(n) scans: per-group
//! aggregates rebuilt request by request, residency as a `HashSet<u64>`
//! probed per request, intra-group selection as a `min_by_key` of the
//! intra-group key over the whole scope. That made a run O(n²) in queue
//! depth.
//!
//! [`NaiveQueue`] preserves those scans behind the same
//! [`QueueView`]/[`RequestIndex`] interface as the differential
//! reference: the equivalence suite drives identical devices over both
//! queues and asserts identical decision sequences and delivery orders
//! (`crates/csd/tests/equivalence.rs`). It states each scope by its
//! definition — query-FCFS's scope, for one, is every request of the
//! oldest query on the active group — so the indexed queue's shortcuts
//! are checked against the rule they implement.
//!
//! Do not "optimize" this module: its value is being a faithful record
//! of the pre-index semantics.

use std::collections::{BTreeMap, HashSet};

use skipper_csd::sched::{GroupLens, PendingRequest, QueueView, RequestIndex, ServeScope};
use skipper_csd::{GroupId, IntraGroupOrder, QueryId};

/// The set of request sequence numbers captured when the active group
/// was loaded (or re-picked). Group-centric policies serve exactly this
/// *residency snapshot* before re-deciding — the §4.4 non-preemption
/// rule applied to "the set of active requests", so a steady stream of
/// new arrivals cannot pin the device to one group forever. (The
/// indexed queue keeps no such set: a request is resident iff its seq
/// is below its group's arm-time boundary.)
type Residency = HashSet<u64>;

/// Flat-`Vec` pending queue with full-rescan lookups (see module docs).
#[derive(Debug)]
pub struct NaiveQueue {
    intra: IntraGroupOrder,
    pending: Vec<PendingRequest>,
    /// Seqs captured when the active group's residency was armed.
    residency: Residency,
}

impl NaiveQueue {
    /// A naive queue pre-loaded with `pending` (testing/adapters).
    pub fn from_requests(
        intra: IntraGroupOrder,
        pending: impl IntoIterator<Item = PendingRequest>,
    ) -> Self {
        let mut q = <Self as RequestIndex>::new(intra);
        for r in pending {
            q.insert(r);
        }
        q
    }

    /// The oldest `k` pending requests by arrival sequence — the
    /// historical slack-window computation: sort everything, truncate.
    fn window_refs(&self, k: usize) -> Vec<&PendingRequest> {
        let mut sorted: Vec<&PendingRequest> = self.pending.iter().collect();
        sorted.sort_unstable_by_key(|r| r.seq);
        sorted.truncate(k);
        sorted
    }
}

impl RequestIndex for NaiveQueue {
    fn new(intra: IntraGroupOrder) -> Self {
        NaiveQueue {
            intra,
            pending: Vec::new(),
            residency: Residency::new(),
        }
    }

    fn insert(&mut self, request: PendingRequest) {
        self.pending.push(request);
    }

    fn remove(&mut self, seq: u64) -> PendingRequest {
        let idx = self
            .pending
            .iter()
            .position(|r| r.seq == seq)
            .unwrap_or_else(|| panic!("removing unknown request seq {seq}"));
        self.pending.swap_remove(idx)
    }

    fn arm_residency(&mut self, group: GroupId) {
        self.residency = self
            .pending
            .iter()
            .filter(|r| r.group == group)
            .map(|r| r.seq)
            .collect();
    }

    fn select(&self, scope: ServeScope, active: GroupId) -> Option<u64> {
        let scope_indices: Vec<usize> = match scope {
            ServeScope::Residency => self
                .pending
                .iter()
                .enumerate()
                .filter(|(_, r)| r.group == active && self.residency.contains(&r.seq))
                .map(|(i, _)| i)
                .collect(),
            ServeScope::OldestQuery => {
                let q = self.pending.iter().min_by_key(|r| r.seq)?.query;
                self.pending
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.query == q && r.group == active)
                    .map(|(i, _)| i)
                    .collect()
            }
            ServeScope::Window(k) => {
                let window_seqs: Vec<u64> = self.window_refs(k).iter().map(|r| r.seq).collect();
                self.pending
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.group == active && window_seqs.contains(&r.seq))
                    .map(|(i, _)| i)
                    .collect()
            }
        };
        scope_indices
            .into_iter()
            .map(|i| &self.pending[i])
            .min_by_key(|r| self.intra.key(r))
            .map(|r| r.seq)
    }

    fn cancel_query(&mut self, q: QueryId, on_removed: &mut dyn FnMut(&PendingRequest)) -> usize {
        let mut seqs: Vec<u64> = self
            .pending
            .iter()
            .filter(|r| r.query == q)
            .map(|r| r.seq)
            .collect();
        seqs.sort_unstable();
        for &seq in &seqs {
            on_removed(&self.remove(seq));
        }
        seqs.len()
    }
}

impl QueueView for NaiveQueue {
    fn len(&self) -> usize {
        self.pending.len()
    }

    fn oldest(&self) -> Option<PendingRequest> {
        self.pending.iter().min_by_key(|r| r.seq).copied()
    }

    fn group_has_query(&self, g: GroupId, q: QueryId) -> bool {
        self.pending.iter().any(|r| r.group == g && r.query == q)
    }

    fn oldest_seq_on(&self, g: GroupId) -> Option<u64> {
        self.pending
            .iter()
            .filter(|r| r.group == g)
            .map(|r| r.seq)
            .min()
    }

    fn resident_len(&self, g: GroupId) -> usize {
        self.pending
            .iter()
            .filter(|r| r.group == g && self.residency.contains(&r.seq))
            .count()
    }

    fn for_each_group(&self, visit: &mut dyn FnMut(GroupId, &GroupLens<'_>)) {
        // The pre-index per-group loop, including its linear
        // distinct-query membership scan. The rescan builds a full
        // aggregate map per call (allocating, by design) and only then
        // visits.
        let mut map: BTreeMap<GroupId, (Vec<QueryId>, usize)> = BTreeMap::new();
        for r in &self.pending {
            let (queries, requests) = map.entry(r.group).or_default();
            if !queries.contains(&r.query) {
                queries.push(r.query);
            }
            *requests += 1;
        }
        for (&g, (queries, requests)) in &mut map {
            // The lens promises ascending queries.
            queries.sort_unstable();
            visit(
                g,
                &GroupLens {
                    queries,
                    requests: *requests,
                },
            );
        }
    }

    fn for_each_window(&self, k: usize, visit: &mut dyn FnMut(&PendingRequest)) {
        for r in self.window_refs(k) {
            visit(r);
        }
    }

    fn for_each_query_presence(&self, on: GroupId, visit: &mut dyn FnMut(QueryId, bool)) {
        let mut present: BTreeMap<QueryId, bool> = BTreeMap::new();
        for r in &self.pending {
            let on_loaded = present.entry(r.query).or_insert(false);
            *on_loaded |= r.group == on;
        }
        for (q, p) in present {
            visit(q, p);
        }
    }
}
