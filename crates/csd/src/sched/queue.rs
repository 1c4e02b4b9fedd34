//! The incrementally-indexed pending-request queue.
//!
//! The scheduling hot path used to re-derive every decision from flat
//! `Vec<PendingRequest>` rescans — O(n) per served object, O(n²) per
//! run. [`RequestQueue`] maintains every fact the policies consult as a
//! persistent index updated in O(log n) (mostly O(1) amortized) per
//! submit/serve:
//!
//! * a **request slab** (`slab`) — a pooled ring of request nodes
//!   indexed directly by the device's dense, monotone sequence numbers:
//!   insert/remove/lookup and "globally oldest" are all O(1), and a
//!   node's storage is recycled in place instead of churning allocator
//!   nodes per request;
//! * **per-group sub-queues** ordered by the device's intra-group
//!   service key as *lazy-deletion min-heaps*, split into the *resident*
//!   snapshot (the §4.4 non-preemption scope) and *fresh* post-snapshot
//!   arrivals. Residency membership is a sequence-number boundary
//!   (`seq < boundary` ∧ pending ⟺ resident — sound because the device
//!   assigns seqs monotonically, so everything pending at arm time has
//!   a smaller seq than anything arriving later), making `arm_residency`
//!   a counter update plus one heap meld instead of a per-request set
//!   move;
//! * **per-group aggregates** (the sorted distinct-query list, request
//!   counts) kept exact on every mutation, plus a lazy oldest-seq heap —
//!   a push per insert, with stale entries skipped (and compacted,
//!   amortized O(1)) only when a switch decision actually needs the
//!   tie-break. No arrival-time aggregate is maintained: no policy reads
//!   one, so [`QueueView::group_aggregates`] derives it from a scan;
//! * a **per-query index** answering "this query's oldest request" and
//!   "which queries are present" for query-FCFS and the rank policy's
//!   waiting-time bookkeeping, with the same lazy-heap trick.
//!
//! Both keyed indexes are `PooledMap`s: a sorted key array over a
//! *handle-addressed payload arena*. A group (or query) that appears
//! and drains — once per GET under a pull-based client — moves one key
//! and one 4-byte handle; its heaps stay where they are and go back on
//! a free list with their capacity intact. Together with the slab this
//! is what makes the steady state allocate nothing per request
//! (`crates/csd/tests/alloc_steady.rs` pins it at zero).
//!
//! Lazy deletion trades the old BTree-set removals (three ordered-set
//! operations per served request) for heap pushes and amortized stale
//! skipping: every entry is pushed once and popped at most once, and a
//! heap is compacted when stale entries outnumber live ones 4:1, so the
//! per-event cost is O(1) amortized heap work plus the O(log) pushes.
//!
//! Contract: the device assigns strictly increasing sequence numbers
//! and non-decreasing arrival times (test adapters may pre-load
//! out-of-order seqs *before* arming a residency; the boundary
//! representation requires post-arm inserts to carry newer seqs, which
//! the device guarantees by construction).

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::device::IntraGroupOrder;
use crate::object::{GroupId, ObjectId, QueryId};
use crate::sched::{GroupLens, PendingRequest, QueueView, ServeScope};

/// The intra-group service key: the device's [`IntraGroupOrder`]
/// components followed by the arrival sequence number, so keys are
/// unique and ties break exactly like the historical `min_by_key` scan.
type OrderKey = (u32, u32, u32, u64);

fn seq_of(key: &OrderKey) -> u64 {
    key.3
}

/// Lazy-deletion min-heap threshold: compact once the heap holds more
/// than this many entries *and* is mostly stale.
const HEAP_COMPACT_MIN: usize = 16;

/// A recyclable index payload: reset to the empty state while keeping
/// every backing allocation (heap arrays, nested pools) for reuse.
trait Recycle: Default {
    fn recycle(&mut self);
}

/// A sorted-key map over a handle-addressed arena of recycled payloads.
///
/// `keys` is the live key set in ascending order and `handles[i]` names
/// the arena slot holding `keys[i]`'s payload, so a lookup is a binary
/// search over a dense key array and an insert or remove shifts keys
/// and 4-byte handles only. Payloads — a few hundred bytes of heap
/// headers each — never move: a drained entry's slot is reset in place
/// ([`Recycle`], every backing allocation kept) and its handle parked
/// on `free` for the next insert. Every arena slot is therefore named
/// by exactly one entry of `handles` or exactly one entry of `free`.
///
/// The maps hold one entry per *distinct pending* group or query. A
/// pull-based client creates and drains such an entry once per GET, on
/// shards that can convoy dozens of one-request groups deep, which is
/// why neither step may touch the allocator or move a payload.
#[derive(Debug)]
struct PooledMap<K: Ord + Copy, V: Recycle> {
    keys: Vec<K>,
    handles: Vec<u32>,
    arena: Vec<V>,
    free: Vec<u32>,
}

impl<K: Ord + Copy, V: Recycle> Default for PooledMap<K, V> {
    fn default() -> Self {
        PooledMap {
            keys: Vec::new(),
            handles: Vec::new(),
            arena: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<K: Ord + Copy, V: Recycle> PooledMap<K, V> {
    /// The position of `key` in key order, if present. Positions stay
    /// valid until the next insert or remove.
    fn position(&self, key: &K) -> Option<usize> {
        self.keys.binary_search(key).ok()
    }

    fn at(&self, pos: usize) -> &V {
        &self.arena[self.handles[pos] as usize]
    }

    fn at_mut(&mut self, pos: usize) -> &mut V {
        &mut self.arena[self.handles[pos] as usize]
    }

    fn get(&self, key: &K) -> Option<&V> {
        self.position(key).map(|pos| self.at(pos))
    }

    fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.position(key).map(|pos| self.at_mut(pos))
    }

    /// The entry for `key`, inserting an empty (pool-recycled) payload
    /// if absent.
    fn entry_or_default(&mut self, key: K) -> &mut V {
        let pos = match self.keys.binary_search(&key) {
            Ok(pos) => pos,
            Err(pos) => {
                let handle = self.free.pop().unwrap_or_else(|| {
                    self.arena.push(V::default());
                    u32::try_from(self.arena.len() - 1).expect("arena outgrew its u32 handles")
                });
                self.keys.insert(pos, key);
                self.handles.insert(pos, handle);
                pos
            }
        };
        self.at_mut(pos)
    }

    /// Removes the entry at `pos`, recycling its payload into the pool.
    fn remove_at(&mut self, pos: usize) {
        self.keys.remove(pos);
        let handle = self.handles.remove(pos);
        self.arena[handle as usize].recycle();
        self.free.push(handle);
    }

    /// Recycles every entry into the pool (used when a whole map is
    /// itself pooled inside an outer payload).
    fn recycle_all(&mut self) {
        self.keys.clear();
        for handle in self.handles.drain(..) {
            self.arena[handle as usize].recycle();
            self.free.push(handle);
        }
    }

    /// Entries in key order.
    fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.keys
            .iter()
            .zip(&self.handles)
            .map(|(&k, &h)| (k, &self.arena[h as usize]))
    }

    /// Live keys, ascending.
    fn keys(&self) -> &[K] {
        &self.keys
    }

    /// Test self-check: keys strictly ascending, one handle per key,
    /// and every arena slot named exactly once across `handles` and
    /// `free`.
    #[cfg(test)]
    fn check_handles(&self) {
        assert!(self.keys.windows(2).all(|w| w[0] < w[1]), "keys unsorted");
        assert_eq!(self.keys.len(), self.handles.len());
        let mut named: Vec<u32> = self.handles.iter().chain(&self.free).copied().collect();
        named.sort_unstable();
        assert!(
            named.iter().copied().eq(0..self.arena.len() as u32),
            "arena slots leaked or double-booked: live {:?} free {:?} of {}",
            self.handles,
            self.free,
            self.arena.len()
        );
    }
}

/// A pooled slab of pending-request nodes, indexed by sequence number.
///
/// Device sequence numbers are dense and monotone, so `seq - base` maps
/// straight into a ring buffer: insert, remove, point lookup, and the
/// globally-oldest request are all O(1), with node storage recycled in
/// place. Holes left by out-of-order serves are skipped lazily; the
/// front is kept trimmed so `front()` never scans.
#[derive(Debug, Default)]
struct Slab {
    nodes: VecDeque<Option<PendingRequest>>,
    /// Sequence number of `nodes[0]`.
    base: u64,
    live: usize,
}

impl Slab {
    fn insert(&mut self, r: PendingRequest) {
        if self.nodes.is_empty() {
            self.base = r.seq;
        } else if r.seq < self.base {
            // Out-of-order low seq (test adapters); grow the front.
            for _ in 0..(self.base - r.seq) {
                self.nodes.push_front(None);
            }
            self.base = r.seq;
        }
        let idx = (r.seq - self.base) as usize;
        if idx >= self.nodes.len() {
            self.nodes.resize(idx + 1, None);
        }
        let prev = self.nodes[idx].replace(r);
        assert!(prev.is_none(), "duplicate request seq {}", r.seq);
        self.live += 1;
    }

    fn remove(&mut self, seq: u64) -> PendingRequest {
        let r = self
            .get_mut(seq)
            .and_then(Option::take)
            .unwrap_or_else(|| panic!("removing unknown request seq {seq}"));
        self.live -= 1;
        if self.live == 0 {
            self.nodes.clear();
        } else {
            // Keep the front live so `front()`/iteration never rescan
            // trimmed holes (each hole is popped exactly once).
            while let Some(None) = self.nodes.front() {
                self.nodes.pop_front();
                self.base += 1;
            }
        }
        r
    }

    fn get_mut(&mut self, seq: u64) -> Option<&mut Option<PendingRequest>> {
        let idx = seq.checked_sub(self.base)? as usize;
        self.nodes.get_mut(idx)
    }

    fn get(&self, seq: u64) -> Option<&PendingRequest> {
        let idx = seq.checked_sub(self.base)? as usize;
        self.nodes.get(idx)?.as_ref()
    }

    fn contains(&self, seq: u64) -> bool {
        self.get(seq).is_some()
    }

    /// One past the largest seq ever stored (0 when empty): the
    /// residency boundary at arm time.
    fn upper_seq(&self) -> u64 {
        self.base + self.nodes.len() as u64
    }

    /// The live request with the smallest seq (O(1): the front is
    /// trimmed on every remove).
    fn front(&self) -> Option<&PendingRequest> {
        debug_assert!(self.live == 0 || self.nodes.front().is_some_and(Option::is_some));
        self.nodes.front()?.as_ref()
    }

    /// Live requests in seq order (front-trimmed; interior holes are
    /// skipped).
    fn iter(&self) -> impl Iterator<Item = &PendingRequest> {
        self.nodes.iter().filter_map(Option::as_ref)
    }

    fn len(&self) -> usize {
        self.live
    }
}

/// A lazy-deletion min-heap over keys whose liveness the owner checks
/// at read time. Pushes are O(log n) with no matching remove cost;
/// stale tops are popped (and the whole heap compacted when mostly
/// stale) only when the minimum is actually read — which for the
/// aggregates below happens at switch decision points, not per event.
#[derive(Debug, Default)]
struct LazyMinHeap<K: Ord + Copy> {
    heap: RefCell<BinaryHeap<Reverse<K>>>,
}

impl<K: Ord + Copy> LazyMinHeap<K> {
    fn push(&mut self, key: K) {
        self.heap.get_mut().push(Reverse(key));
    }

    /// The smallest key for which `live` holds, discarding stale tops.
    fn min_live(&self, live: impl Fn(K) -> bool) -> Option<K> {
        let mut heap = self.heap.borrow_mut();
        while let Some(&Reverse(k)) = heap.peek() {
            if live(k) {
                return Some(k);
            }
            heap.pop();
        }
        None
    }

    /// Melds `other`'s entries into this heap (the residency arm).
    fn append(&mut self, other: &mut Self) {
        self.heap.get_mut().append(other.heap.get_mut());
    }

    /// Empties the heap, keeping its backing array for reuse.
    fn clear(&mut self) {
        self.heap.get_mut().clear();
    }

    /// Drops stale entries once they dominate the heap (amortized O(1)
    /// per push; call on the mutation path with the live count).
    /// Compacts *in place* (`BinaryHeap::retain`): collecting into a
    /// fresh heap would reset the backing capacity to the live count,
    /// and the regrowth back to the stale watermark would hit the
    /// allocator again on every compaction cycle — the exact
    /// steady-state allocs/event churn the pooled maps exist to avoid.
    fn maybe_compact(&mut self, live_count: usize, live: impl Fn(K) -> bool) {
        let heap = self.heap.get_mut();
        if heap.len() > HEAP_COMPACT_MIN && heap.len() > live_count.saturating_mul(4) {
            heap.retain(|&Reverse(k)| live(k));
        }
    }
}

/// One disk group's sub-queue and aggregates.
#[derive(Debug, Default)]
struct GroupQueue {
    /// Intra-order heap of the residency snapshot (plus lazily-skipped
    /// served leftovers). Only the active group's heap is consulted;
    /// other groups keep leftovers from an earlier residency, exactly
    /// like the historical per-group snapshot sets.
    resident: LazyMinHeap<OrderKey>,
    /// Intra-order heap of post-snapshot arrivals.
    fresh: LazyMinHeap<OrderKey>,
    /// Residency boundary: a pending request is resident iff its seq is
    /// below this (set to the slab's upper seq at arm time).
    boundary: u64,
    /// Live residents (`count` at arm, decremented by sub-boundary
    /// removals).
    resident_count: usize,
    /// Pending request count on this group.
    count: usize,
    /// Lazy oldest-seq aggregate.
    min_seq: LazyMinHeap<u64>,
    /// Per-query presence count and intra-order heap (distinct-query
    /// aggregates and the query-FCFS serve scope); its key array is the
    /// sorted distinct-query list a [`GroupLens`] borrows.
    by_query: PooledMap<QueryId, QueryHeap>,
}

impl Recycle for GroupQueue {
    fn recycle(&mut self) {
        self.resident.clear();
        self.fresh.clear();
        self.boundary = 0;
        self.resident_count = 0;
        self.count = 0;
        self.min_seq.clear();
        self.by_query.recycle_all();
    }
}

/// One (group, query) sub-index.
#[derive(Debug, Default)]
struct QueryHeap {
    count: usize,
    heap: LazyMinHeap<OrderKey>,
}

impl Recycle for QueryHeap {
    fn recycle(&mut self) {
        self.count = 0;
        self.heap.clear();
    }
}

/// One query's global presence index.
#[derive(Debug, Default)]
struct QueryEntry {
    /// Pending request count for this query (across groups).
    count: usize,
    /// Lazy oldest-seq aggregate for [`QueueView::oldest_of_query`].
    min_seq: LazyMinHeap<u64>,
}

impl Recycle for QueryEntry {
    fn recycle(&mut self) {
        self.count = 0;
        self.min_seq.clear();
    }
}

/// The mutating half of the queue abstraction: what the device needs on
/// top of [`QueueView`] to run its submit/serve/switch lifecycle.
///
/// Implemented by [`RequestQueue`] (indexed, production) and
/// [`NaiveQueue`](super::naive::NaiveQueue) (full rescans, the pre-index
/// reference kept for differential tests).
pub trait RequestIndex: QueueView {
    /// An empty queue resolving intra-group ties with `intra`.
    fn new(intra: IntraGroupOrder) -> Self
    where
        Self: Sized;

    /// Enqueues a request. Sequence numbers must be distinct and
    /// monotonically assigned by the device.
    fn insert(&mut self, request: PendingRequest);

    /// Dequeues the request with sequence number `seq`.
    ///
    /// # Panics
    /// Panics if no such request is pending.
    fn remove(&mut self, seq: u64) -> PendingRequest;

    /// Captures the residency snapshot: every currently pending request
    /// on `group` becomes resident.
    fn arm_residency(&mut self, group: GroupId);

    /// Resolves a [`ServeScope`] on the active group to the request the
    /// device should serve next under its intra-group order, or `None`
    /// when the scope is empty.
    fn select(&self, scope: ServeScope, active: GroupId) -> Option<u64>;

    /// Dequeues every pending request of query `q`, oldest first,
    /// handing each removed request to `on_removed`; returns the number
    /// dequeued. The protection plane's cancel path (deadline misses,
    /// retry exhaustion): the default drains via the per-query index so
    /// both queue implementations keep their aggregates exact.
    fn cancel_query(&mut self, q: QueryId, on_removed: &mut dyn FnMut(&PendingRequest)) -> usize {
        let mut removed = 0;
        while let Some(r) = self.oldest_of_query(q) {
            let r = self.remove(r.seq);
            on_removed(&r);
            removed += 1;
        }
        removed
    }

    /// Dequeues query `q`'s oldest pending request for `object`, if one
    /// is queued — the hedge-loser cancel: once the winning replica's
    /// copy is consumed, the duplicate must not occupy the losing
    /// shard's service pipeline.
    fn cancel_object(&mut self, q: QueryId, object: ObjectId) -> Option<PendingRequest> {
        let mut seq = None;
        self.for_each_window(usize::MAX, &mut |r| {
            if seq.is_none() && r.query == q && r.object == object {
                seq = Some(r.seq);
            }
        });
        seq.map(|s| self.remove(s))
    }
}

/// The production indexed queue. See the module docs for the index
/// layout and the complexity contract.
#[derive(Debug)]
pub struct RequestQueue {
    intra: IntraGroupOrder,
    /// Pooled request nodes, seq-addressed (O(1) everything).
    slab: Slab,
    /// Per-group sub-queues, sorted by group id (pooled sorted-vec:
    /// contiguous for the aggregate scans, recycled on drain).
    groups: PooledMap<GroupId, GroupQueue>,
    /// Per-query presence (oldest-of-query, query iteration).
    queries: PooledMap<QueryId, QueryEntry>,
}

impl RequestQueue {
    /// An indexed queue pre-loaded with `pending` (testing/adapters; the
    /// device inserts incrementally).
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

    fn key(&self, r: &PendingRequest) -> OrderKey {
        self.intra.key(r)
    }

    /// Test self-check: rebuilds every maintained count — total,
    /// per-group pending and resident, per-(group, query) and per-query
    /// — from a slab scan, asserts the indexes agree, and checks the
    /// handle bookkeeping of every arena (pooled payloads included:
    /// they must have been reset).
    #[cfg(test)]
    pub(crate) fn recount(&self) {
        use std::collections::BTreeMap;
        #[derive(Default)]
        struct Group {
            count: usize,
            resident: usize,
            by_query: BTreeMap<QueryId, usize>,
        }
        let mut groups: BTreeMap<GroupId, Group> = BTreeMap::new();
        let mut queries: BTreeMap<QueryId, usize> = BTreeMap::new();
        for r in self.slab.iter() {
            let boundary = self.groups.get(&r.group).map_or(0, |gq| gq.boundary);
            let g = groups.entry(r.group).or_default();
            g.count += 1;
            g.resident += usize::from(r.seq < boundary);
            *g.by_query.entry(r.query).or_default() += 1;
            *queries.entry(r.query).or_default() += 1;
        }
        assert_eq!(self.slab.len(), self.slab.iter().count());
        assert!(self.groups.keys().iter().eq(groups.keys()), "group keys");
        for ((g, gq), want) in self.groups.iter().zip(groups.values()) {
            assert_eq!(gq.count, want.count, "count of group {g}");
            assert_eq!(gq.resident_count, want.resident, "residents of group {g}");
            assert!(
                gq.by_query.keys().iter().eq(want.by_query.keys()),
                "query keys of group {g}"
            );
            for ((q, per_query), &n) in gq.by_query.iter().zip(want.by_query.values()) {
                assert_eq!(per_query.count, n, "count of {q} on group {g}");
            }
        }
        assert!(self.queries.keys().iter().eq(queries.keys()), "query keys");
        for ((q, entry), &n) in self.queries.iter().zip(queries.values()) {
            assert_eq!(entry.count, n, "count of {q}");
        }
        self.groups.check_handles();
        self.queries.check_handles();
        for gq in &self.groups.arena {
            gq.by_query.check_handles();
            assert!(
                gq.count > 0 || gq.by_query.keys().is_empty(),
                "pooled group not reset"
            );
        }
    }
}

impl RequestIndex for RequestQueue {
    fn new(intra: IntraGroupOrder) -> Self {
        RequestQueue {
            intra,
            slab: Slab::default(),
            groups: PooledMap::default(),
            queries: PooledMap::default(),
        }
    }

    fn insert(&mut self, request: PendingRequest) {
        let key = self.key(&request);
        self.slab.insert(request);
        let group = self.groups.entry_or_default(request.group);
        // The boundary representation of residency needs post-arm
        // arrivals to carry newer seqs — the device's monotone
        // assignment guarantees it.
        debug_assert!(
            request.seq >= group.boundary,
            "request seq {} re-enters an armed residency (boundary {})",
            request.seq,
            group.boundary
        );
        group.fresh.push(key);
        group.count += 1;
        group.min_seq.push(request.seq);
        let per_query = group.by_query.entry_or_default(request.query);
        per_query.count += 1;
        per_query.heap.push(key);
        let query = self.queries.entry_or_default(request.query);
        query.count += 1;
        query.min_seq.push(request.seq);
    }

    fn remove(&mut self, seq: u64) -> PendingRequest {
        let request = self.slab.remove(seq);
        // Liveness for the amortized stale-entry cleanup is slab
        // presence (sequence numbers are never reused).
        let slab = &self.slab;
        let gpos = self
            .groups
            .position(&request.group)
            .expect("group index out of sync");
        let group = self.groups.at_mut(gpos);
        group.count -= 1;
        if seq < group.boundary {
            group.resident_count -= 1;
        }
        if group.count == 0 {
            self.groups.remove_at(gpos);
        } else {
            let qpos = group
                .by_query
                .position(&request.query)
                .expect("per-query index out of sync");
            let per_query = group.by_query.at_mut(qpos);
            per_query.count -= 1;
            if per_query.count == 0 {
                group.by_query.remove_at(qpos);
            } else {
                per_query
                    .heap
                    .maybe_compact(per_query.count, |k| slab.contains(seq_of(&k)));
            }
            let fresh_live = group.count - group.resident_count;
            group
                .resident
                .maybe_compact(group.resident_count, |k| slab.contains(seq_of(&k)));
            group
                .fresh
                .maybe_compact(fresh_live, |k| slab.contains(seq_of(&k)));
            group
                .min_seq
                .maybe_compact(group.count, |s| slab.contains(s));
        }
        let qpos = self
            .queries
            .position(&request.query)
            .expect("query index out of sync");
        let query = self.queries.at_mut(qpos);
        query.count -= 1;
        if query.count == 0 {
            self.queries.remove_at(qpos);
        } else {
            query
                .min_seq
                .maybe_compact(query.count, |s| slab.contains(s));
        }
        request
    }

    fn arm_residency(&mut self, group: GroupId) {
        if let Some(g) = self.groups.get_mut(&group) {
            // Everything currently pending becomes resident: the
            // boundary moves past every assigned seq and the fresh heap
            // melds into the resident heap (each entry melds at most
            // once — fresh drains wholesale).
            g.boundary = self.slab.upper_seq();
            g.resident_count = g.count;
            let mut fresh = std::mem::take(&mut g.fresh);
            g.resident.append(&mut fresh);
            g.fresh = fresh;
        }
    }

    fn select(&self, scope: ServeScope, active: GroupId) -> Option<u64> {
        match scope {
            ServeScope::Residency => {
                let g = self.groups.get(&active)?;
                g.resident
                    .min_live(|k| self.slab.contains(seq_of(&k)))
                    .map(|k| seq_of(&k))
            }
            ServeScope::OldestObject => {
                let r = self.slab.front()?;
                (r.group == active).then_some(r.seq)
            }
            ServeScope::OldestQuery => {
                let oldest_query = self.slab.front()?.query;
                self.groups
                    .get(&active)?
                    .by_query
                    .get(&oldest_query)?
                    .heap
                    .min_live(|k| self.slab.contains(seq_of(&k)))
                    .map(|k| seq_of(&k))
            }
            ServeScope::Window(k) => self
                .slab
                .iter()
                .take(k)
                .filter(|r| r.group == active)
                .min_by_key(|r| self.key(r))
                .map(|r| r.seq),
        }
    }
}

impl QueueView for RequestQueue {
    fn len(&self) -> usize {
        self.slab.len()
    }

    fn oldest(&self) -> Option<PendingRequest> {
        self.slab.front().copied()
    }

    fn oldest_of_query(&self, q: QueryId) -> Option<PendingRequest> {
        let seq = self
            .queries
            .get(&q)?
            .min_seq
            .min_live(|s| self.slab.contains(s))?;
        self.slab.get(seq).copied()
    }

    fn group_has_query(&self, g: GroupId, q: QueryId) -> bool {
        self.groups
            .get(&g)
            .is_some_and(|gq| gq.by_query.position(&q).is_some())
    }

    fn oldest_seq_on(&self, g: GroupId) -> Option<u64> {
        self.groups
            .get(&g)?
            .min_seq
            .min_live(|s| self.slab.contains(s))
    }

    fn resident_len(&self, g: GroupId) -> usize {
        self.groups.get(&g).map_or(0, |gq| gq.resident_count)
    }

    fn for_each_group(&self, visit: &mut dyn FnMut(GroupId, &GroupLens<'_>)) {
        // The decision hot path: the lens borrows the group's sorted
        // query keys in place — no Vec is materialized per group or
        // per call, so policies folding over the whole fleet's groups
        // stay allocation-free.
        for (g, gq) in self.groups.iter() {
            visit(
                g,
                &GroupLens {
                    queries: gq.by_query.keys(),
                    requests: gq.count,
                },
            );
        }
    }

    fn for_each_window(&self, k: usize, visit: &mut dyn FnMut(&PendingRequest)) {
        for r in self.slab.iter().take(k) {
            visit(r);
        }
    }

    fn for_each_query_presence(&self, on: GroupId, visit: &mut dyn FnMut(QueryId, bool)) {
        // `on` is resolved once; its query keys and the global query
        // keys are both ascending, so presence is one merge walk.
        let mut on_group = self
            .groups
            .get(&on)
            .map_or(&[][..], |gq| gq.by_query.keys())
            .iter()
            .peekable();
        for &q in self.queries.keys() {
            visit(q, on_group.next_if_eq(&&q).is_some());
        }
    }
}

#[cfg(test)]
mod tests {
    use skipper_sim::SimTime;

    use super::*;
    use crate::sched::testutil::req;

    fn queue(pending: &[PendingRequest]) -> RequestQueue {
        RequestQueue::from_requests(IntraGroupOrder::SemanticRoundRobin, pending.iter().copied())
    }

    #[test]
    fn indexes_track_insert_and_remove() {
        let mut q = queue(&[
            req(1, 0, 0, 2, 0, 0),
            req(1, 1, 0, 1, 1, 1),
            req(2, 2, 0, 0, 2, 2),
        ]);
        assert_eq!(q.len(), 3);
        assert_eq!(q.oldest().unwrap().seq, 0);
        assert_eq!(q.oldest_of_query(QueryId::new(1, 0)).unwrap().seq, 1);
        assert!(q.group_has_query(1, QueryId::new(0, 0)));
        assert!(!q.group_has_query(2, QueryId::new(0, 0)));
        let r = q.remove(0);
        assert_eq!(r.object.segment, 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.oldest().unwrap().seq, 1);
        assert!(!q.group_has_query(1, QueryId::new(0, 0)));
        q.remove(1);
        // Group 1 fully drained: no aggregate entry remains.
        assert_eq!(q.group_aggregates().len(), 1);
        assert_eq!(q.group_aggregates()[0].0, 2);
    }

    #[test]
    fn residency_splits_snapshot_from_fresh_arrivals() {
        let mut q = queue(&[req(1, 0, 0, 0, 0, 0), req(1, 0, 0, 1, 0, 1)]);
        assert_eq!(q.resident_len(1), 0);
        q.arm_residency(1);
        assert_eq!(q.resident_len(1), 2);
        // A post-snapshot arrival is not resident...
        q.insert(req(1, 0, 0, 2, 1, 2));
        assert_eq!(q.resident_len(1), 2);
        assert_eq!(q.len(), 3);
        // ...and select(Residency) never returns it.
        assert_eq!(q.select(ServeScope::Residency, 1), Some(0));
        q.remove(0);
        assert_eq!(q.select(ServeScope::Residency, 1), Some(1));
        q.remove(1);
        assert_eq!(q.select(ServeScope::Residency, 1), None);
        // Re-arming folds the fresh arrival in.
        q.arm_residency(1);
        assert_eq!(q.select(ServeScope::Residency, 1), Some(2));
    }

    #[test]
    fn select_respects_intra_group_order() {
        // Semantic order is segment-major: A.0, B.0, A.1 — not seq order.
        let mut q = RequestQueue::from_requests(
            IntraGroupOrder::SemanticRoundRobin,
            [
                req(1, 0, 0, 1, 0, 0), // table 0 seg 1
                req(1, 0, 0, 0, 0, 1), // table 0 seg 0
            ],
        );
        q.arm_residency(1);
        assert_eq!(q.select(ServeScope::Residency, 1), Some(1));
    }

    #[test]
    fn scope_lookups_match_their_definitions() {
        let q = queue(&[
            req(1, 0, 0, 0, 0, 0),
            req(2, 1, 0, 0, 0, 1),
            req(1, 1, 0, 1, 0, 2),
            req(1, 0, 0, 1, 0, 3),
        ]);
        // Oldest object (seq 0) is on group 1 only.
        assert_eq!(q.select(ServeScope::OldestObject, 1), Some(0));
        assert_eq!(q.select(ServeScope::OldestObject, 2), None);
        // Oldest query is (0,0); on group 1 its semantically-first
        // request is seq 0 (segment 0).
        assert_eq!(q.select(ServeScope::OldestQuery, 1), Some(0));
        assert_eq!(q.select(ServeScope::OldestQuery, 2), None);
        // A window of 2 only sees seqs {0, 1}.
        assert_eq!(q.select(ServeScope::Window(2), 1), Some(0));
        assert_eq!(q.select(ServeScope::Window(2), 2), Some(1));
        assert_eq!(q.window(2).len(), 2);
    }

    #[test]
    fn aggregates_match_slice_grouping() {
        let pending = vec![
            req(1, 0, 0, 0, 10, 3),
            req(1, 0, 0, 1, 5, 1),
            req(2, 1, 0, 0, 7, 2),
            req(1, 2, 0, 0, 20, 4),
        ];
        let q = queue(&pending);
        let agg = q.group_aggregates();
        assert_eq!(agg, crate::sched::group_stats(&pending));
        assert_eq!(agg[0].1.requests, 3);
        assert_eq!(agg[0].1.oldest_seq, 1);
        assert_eq!(agg[0].1.oldest_arrival, Some(SimTime::from_secs(5)));
    }

    #[test]
    fn queries_with_presence_flags_loaded_group() {
        let q = queue(&[req(1, 0, 0, 0, 0, 0), req(2, 1, 0, 0, 0, 1)]);
        let mut present = q.queries_with_presence(1);
        present.sort_unstable();
        assert_eq!(
            present,
            vec![(QueryId::new(0, 0), true), (QueryId::new(1, 0), false)]
        );
    }

    #[test]
    fn lazy_aggregates_survive_churn() {
        // Drive enough insert/remove churn through one group that the
        // lazy heaps go through several compactions, and check the
        // aggregates stay exact throughout.
        let mut q = RequestQueue::from_requests(IntraGroupOrder::ArrivalOrder, []);
        let mut live: Vec<u64> = Vec::new();
        let mut next_seq = 0u64;
        for wave in 0..50u64 {
            for _ in 0..8 {
                q.insert(req(1, 0, 0, next_seq as u32, wave, next_seq));
                q.recount();
                live.push(next_seq);
                next_seq += 1;
            }
            // Remove from the middle/newest end so stale heap entries
            // accumulate at the top.
            for _ in 0..7 {
                let victim = live.remove(live.len() / 2);
                q.remove(victim);
                q.recount();
            }
            let agg = q.group_aggregates();
            assert_eq!(agg.len(), 1);
            let (_, stats) = &agg[0];
            assert_eq!(stats.requests, live.len());
            assert_eq!(stats.oldest_seq, *live.iter().min().unwrap());
            assert_eq!(q.oldest().unwrap().seq, *live.iter().min().unwrap());
            assert_eq!(
                q.oldest_of_query(QueryId::new(0, 0)).unwrap().seq,
                *live.iter().min().unwrap()
            );
        }
    }

    #[test]
    fn residency_counter_tracks_out_of_order_serves() {
        // Serve residents from the middle of the snapshot (the slack /
        // oldest-query scopes do this) and check resident_len and
        // select(Residency) stay exact past heap compactions.
        let mut q = RequestQueue::from_requests(IntraGroupOrder::ArrivalOrder, []);
        for seq in 0..40u64 {
            q.insert(req(1, 0, 0, seq as u32, seq, seq));
            q.recount();
        }
        q.arm_residency(1);
        q.recount();
        assert_eq!(q.resident_len(1), 40);
        // Remove every other resident, newest first.
        for seq in (0..40u64).rev().step_by(2) {
            q.remove(seq);
            q.recount();
        }
        assert_eq!(q.resident_len(1), 20);
        assert_eq!(q.select(ServeScope::Residency, 1), Some(0));
        // Post-arm arrivals stay fresh.
        q.insert(req(1, 0, 0, 99, 99, 99));
        q.recount();
        assert_eq!(q.resident_len(1), 20);
        assert_eq!(q.select(ServeScope::Residency, 1), Some(0));
    }

    #[test]
    fn many_groups_create_drain_and_recycle() {
        // The pull-convoy shape: 48 groups, a few tenants each, most
        // holding one request; every round arms a residency on one
        // group, drains it, and refills groups that drained earlier, so
        // group, (group, query) and query entries are created, recycled
        // and re-created in the middle of deep key arrays. The indexes
        // must match a recount after every single mutation.
        let mut q = RequestQueue::from_requests(IntraGroupOrder::SemanticRoundRobin, []);
        let (groups, tenants) = (48u32, 7u16);
        let mut next_seq = 0u64;
        let mut live: Vec<PendingRequest> = Vec::new();
        let mut submit = |q: &mut RequestQueue, live: &mut Vec<PendingRequest>, group: u32| {
            let tenant = (next_seq % tenants as u64) as u16;
            let r = req(
                group,
                tenant,
                group % 3,
                next_seq as u32,
                next_seq,
                next_seq,
            );
            next_seq += 1;
            q.insert(r);
            q.recount();
            live.push(r);
        };
        for g in 0..groups {
            submit(&mut q, &mut live, g);
        }
        for round in 0..200u32 {
            // Visit groups in a stride coprime to the count so drains
            // hit the front, middle and back of the sorted key array.
            let g = (round * 29) % groups;
            q.arm_residency(g);
            q.recount();
            while let Some(seq) = q.select(ServeScope::Residency, g) {
                let r = q.remove(seq);
                q.recount();
                live.retain(|l| l.seq != r.seq);
                assert_eq!(r.group, g);
            }
            assert_eq!(q.resident_len(g), 0);
            assert!(live.iter().all(|r| r.group != g), "group {g} not drained");
            // Refill: the drained group and two others get new work.
            for target in [g, (g + 5) % groups, (g + 31) % groups] {
                submit(&mut q, &mut live, target);
            }
            assert_eq!(q.len(), live.len());
            assert_eq!(q.oldest().map(|r| r.seq), live.iter().map(|r| r.seq).min());
        }
        // The arenas stopped growing once every key had been seen:
        // payloads recycle through the free list instead.
        assert!(q.groups.arena.len() <= groups as usize);
        assert_eq!(q.group_aggregates(), crate::sched::group_stats(&live));
    }

    #[test]
    fn slab_tolerates_out_of_order_preload() {
        // Test adapters insert descending seqs; the slab grows its
        // front and still answers oldest()/window() correctly.
        let mut q = RequestQueue::from_requests(IntraGroupOrder::ArrivalOrder, []);
        for seq in [5u64, 2, 9, 0, 7] {
            q.insert(req(1, 0, 0, seq as u32, seq, seq));
        }
        assert_eq!(q.oldest().unwrap().seq, 0);
        let w: Vec<u64> = q.window(3).iter().map(|r| r.seq).collect();
        assert_eq!(w, vec![0, 2, 5]);
        q.remove(0);
        assert_eq!(q.oldest().unwrap().seq, 2);
    }

    #[test]
    fn cancel_query_and_object_agree_with_naive() {
        use crate::sched::naive::NaiveQueue;
        let pending = [
            req(1, 0, 0, 0, 0, 0),
            req(2, 0, 0, 1, 0, 1),
            req(1, 1, 0, 0, 0, 2),
            req(1, 0, 1, 2, 0, 3),
        ];
        let mut indexed = queue(&pending);
        let mut naive = NaiveQueue::from_requests(IntraGroupOrder::SemanticRoundRobin, pending);
        // Object-level cancel removes exactly the (query, object) copy.
        let victim = QueryId::new(0, 0);
        let obj = pending[1].object;
        assert_eq!(indexed.cancel_object(victim, obj).unwrap().seq, 1);
        assert_eq!(naive.cancel_object(victim, obj).unwrap().seq, 1);
        assert!(indexed.cancel_object(victim, obj).is_none());
        // Query-level cancel drains the remaining requests of the query,
        // oldest first, leaving other queries untouched.
        let mut seqs = Vec::new();
        let n = indexed.cancel_query(victim, &mut |r| seqs.push(r.seq));
        assert_eq!((n, seqs.as_slice()), (1, &[0u64][..]));
        let mut naive_seqs = Vec::new();
        assert_eq!(
            naive.cancel_query(victim, &mut |r| naive_seqs.push(r.seq)),
            1
        );
        assert_eq!(naive_seqs, seqs);
        assert_eq!(indexed.len(), 2);
        assert_eq!(indexed.oldest_of_query(victim), None);
        assert!(indexed.oldest_of_query(QueryId::new(1, 0)).is_some());
        assert!(indexed.oldest_of_query(QueryId::new(0, 1)).is_some());
    }

    #[test]
    #[should_panic(expected = "duplicate request seq")]
    fn duplicate_seq_rejected() {
        let mut q = RequestQueue::from_requests(IntraGroupOrder::ArrivalOrder, []);
        q.insert(req(1, 0, 0, 0, 0, 7));
        q.insert(req(2, 1, 0, 1, 1, 7));
    }

    #[test]
    #[should_panic(expected = "unknown request")]
    fn removing_unknown_seq_panics() {
        let mut q = queue(&[]);
        q.remove(7);
    }
}
