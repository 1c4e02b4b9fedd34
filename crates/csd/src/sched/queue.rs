//! The incrementally-indexed pending-request queue.
//!
//! The scheduling hot path used to re-derive every decision from flat
//! `Vec<PendingRequest>` rescans — O(n) per served object, O(n²) per
//! run. [`RequestQueue`] maintains every fact the policies consult as a
//! persistent index, resolved once per request at insert and updated in
//! O(1) amortized per serve (plus one search and shift of a sorted key
//! array when a serve drains a group or query entry):
//!
//! * a **request slab** (`slab`) — a pooled ring of request nodes
//!   indexed directly by the device's dense, monotone sequence numbers:
//!   insert/remove/lookup and "globally oldest" are all O(1), and a
//!   node's storage is recycled in place instead of churning allocator
//!   nodes per request. Each node also carries the arena handles of its
//!   group, (group, query) and query index entries, so a serve updates
//!   them directly and searches a sorted key array only when an entry
//!   drains;
//! * **per-group sub-queues** keyed by the device's intra-group service
//!   key, split into the *residency run* (the §4.4 non-preemption
//!   scope) and the *fresh* post-snapshot arrivals. Residency membership
//!   is a sequence-number boundary (`seq < boundary` ∧ pending ⟺
//!   resident — sound because the device assigns seqs monotonically, so
//!   everything pending at arm time has a smaller seq than anything
//!   arriving later). An insert appends its key to `fresh`;
//!   `arm_residency` moves the live leftovers and the fresh keys into
//!   one sorted run, and the residency is then served front to back by
//!   a cursor that steps past entries already served through another
//!   scope or cancelled. This is the one-pass drain of a mounted
//!   cartridge: the order is paid for once per arm (`sort_unstable`,
//!   in place, near-linear on the mostly-sorted input), not per GET;
//! * **per-group aggregates** (the sorted distinct-query list, request
//!   counts) kept exact on every mutation, plus an ascending seq FIFO
//!   whose live front is the group's oldest request — the device's seqs
//!   are monotone, so an insert is an append. No arrival-time aggregate
//!   is maintained: no policy reads one, so
//!   [`QueueView::group_aggregates`] derives it from a scan;
//! * a **per-query index** answering "this query's oldest request"
//!   (the same seq FIFO) and "which queries are present" for query-FCFS
//!   and the rank policy's waiting-time bookkeeping. Each (group, query)
//!   entry keeps a lazy-deletion min-heap of its keys for query-FCFS's
//!   serve scope, the only heap left on the path.
//!
//! Both keyed indexes are `PooledMap`s: a sorted key array over a
//! *handle-addressed payload arena*. A group (or query) that appears
//! and drains — once per GET under a pull-based client — moves one key
//! and one 4-byte handle; its vectors stay where they are and go back on
//! a free list with their capacity intact. Together with the slab this
//! is what makes the steady state allocate nothing per request
//! (`crates/csd/tests/alloc_steady.rs` pins it at zero).
//!
//! Dead entries (served or cancelled requests whose keys or seqs are
//! still stored) are skipped when they reach a front, and a fresh list,
//! seq FIFO or heap is compacted in place once stale entries outnumber
//! live ones 4:1, so every entry is stored once and dropped at most
//! once.
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

/// Stale-entry threshold: compact a fresh list, seq FIFO or heap once it
/// holds more than this many entries *and* is mostly stale.
const COMPACT_MIN: usize = 16;

/// True when a store of `len` entries, `live` of them live, is due for
/// compaction.
fn mostly_stale(len: usize, live: usize) -> bool {
    len > COMPACT_MIN && len > live.saturating_mul(4)
}

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
/// and 4-byte handles only. Payloads never move, so a handle stays
/// valid for as long as its entry is live: the request nodes store them
/// and reach their entries without a search. A drained entry's slot is
/// reset in place ([`Recycle`], every backing allocation kept) and its
/// handle parked on `free` for the next insert. Every arena slot is
/// therefore named by exactly one entry of `handles` or exactly one
/// entry of `free`.
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
    /// The arena handle of `key`'s entry, if present.
    fn handle(&self, key: &K) -> Option<u32> {
        let pos = self.keys.binary_search(key).ok()?;
        Some(self.handles[pos])
    }

    fn by_handle(&self, handle: u32) -> &V {
        &self.arena[handle as usize]
    }

    fn by_handle_mut(&mut self, handle: u32) -> &mut V {
        &mut self.arena[handle as usize]
    }

    fn get(&self, key: &K) -> Option<&V> {
        self.handle(key).map(|h| self.by_handle(h))
    }

    /// The handle of `key`'s entry, inserting an empty (pool-recycled)
    /// payload if absent.
    fn handle_or_insert(&mut self, key: K) -> u32 {
        match self.keys.binary_search(&key) {
            Ok(pos) => self.handles[pos],
            Err(pos) => {
                let handle = self.free.pop().unwrap_or_else(|| {
                    self.arena.push(V::default());
                    u32::try_from(self.arena.len() - 1).expect("arena outgrew its u32 handles")
                });
                self.keys.insert(pos, key);
                self.handles.insert(pos, handle);
                handle
            }
        }
    }

    /// Removes `key`'s entry, recycling its payload into the pool.
    fn remove(&mut self, key: &K) {
        let pos = self
            .keys
            .binary_search(key)
            .expect("index out of sync at drain");
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

/// One pending request plus the arena handles of the index entries it
/// counts in, resolved at insert.
#[derive(Clone, Copy, Debug)]
struct Node {
    request: PendingRequest,
    /// Its entry in [`RequestQueue::groups`].
    group: u32,
    /// Its entry in that group's `by_query`.
    group_query: u32,
    /// Its entry in [`RequestQueue::queries`].
    query: u32,
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
    nodes: VecDeque<Option<Node>>,
    /// Sequence number of `nodes[0]`.
    base: u64,
    live: usize,
}

impl Slab {
    fn insert(&mut self, node: Node) {
        let seq = node.request.seq;
        if self.nodes.is_empty() {
            self.base = seq;
        } else if seq < self.base {
            // Out-of-order low seq (test adapters); grow the front.
            for _ in 0..(self.base - seq) {
                self.nodes.push_front(None);
            }
            self.base = seq;
        }
        let idx = (seq - self.base) as usize;
        if idx >= self.nodes.len() {
            self.nodes.resize(idx + 1, None);
        }
        let prev = self.nodes[idx].replace(node);
        assert!(prev.is_none(), "duplicate request seq {seq}");
        self.live += 1;
    }

    fn remove(&mut self, seq: u64) -> Node {
        let node = seq
            .checked_sub(self.base)
            .and_then(|idx| self.nodes.get_mut(idx as usize))
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
        node
    }

    fn get(&self, seq: u64) -> Option<&PendingRequest> {
        let idx = seq.checked_sub(self.base)? as usize;
        self.nodes.get(idx)?.as_ref().map(|n| &n.request)
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
        self.nodes.front()?.as_ref().map(|n| &n.request)
    }

    /// Live nodes in seq order (front-trimmed; interior holes are
    /// skipped).
    fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter_map(Option::as_ref)
    }

    /// Live requests in seq order.
    fn iter(&self) -> impl Iterator<Item = &PendingRequest> {
        self.nodes().map(|n| &n.request)
    }

    fn len(&self) -> usize {
        self.live
    }
}

/// The ascending seqs of one index entry's requests, with served ones
/// dropped lazily: the front is always live, so it is the entry's
/// oldest request. Device seqs are monotone, so a push is an append;
/// only out-of-order test preloads take the sorted insert.
#[derive(Debug, Default)]
struct SeqFifo(VecDeque<u64>);

impl SeqFifo {
    fn push(&mut self, seq: u64) {
        if self.0.back().is_some_and(|&last| last > seq) {
            let at = self.0.partition_point(|&s| s < seq);
            self.0.insert(at, seq);
        } else {
            self.0.push_back(seq);
        }
    }

    fn front(&self) -> Option<u64> {
        self.0.front().copied()
    }

    /// Drops `seq`, which just left the queue (`live` no longer holds
    /// for it), with `live_count` entries left: trims the front past
    /// dead seqs, or compacts in place once dead ones dominate.
    fn served(&mut self, seq: u64, live_count: usize, live: impl Fn(u64) -> bool) {
        if self.front() == Some(seq) {
            while self.front().is_some_and(|s| !live(s)) {
                self.0.pop_front();
            }
        } else if mostly_stale(self.0.len(), live_count) {
            self.0.retain(|&s| live(s));
        }
    }

    fn clear(&mut self) {
        self.0.clear();
    }
}

/// A lazy-deletion min-heap over keys whose liveness the owner checks
/// at read time. Pushes are O(log n) with no matching remove cost;
/// stale tops are popped (and the whole heap compacted when mostly
/// stale) only when the minimum is actually read.
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
        if mostly_stale(heap.len(), live_count) {
            heap.retain(|&Reverse(k)| live(k));
        }
    }
}

/// One disk group's sub-queue and aggregates.
#[derive(Debug, Default)]
struct GroupQueue {
    /// The residency run: the snapshot's keys in intra-group order,
    /// served from `cursor`. Invariant: `run[cursor]` (when in range)
    /// is live, so it is the next request of the residency. Only the
    /// active group's run is consulted; other groups keep leftovers
    /// from an earlier residency, exactly like the historical
    /// per-group snapshot sets.
    run: Vec<OrderKey>,
    /// First entry of `run` not yet served.
    cursor: usize,
    /// Keys of post-snapshot arrivals, in arrival order (stale entries
    /// dropped at arm or by compaction).
    fresh: Vec<OrderKey>,
    /// Residency boundary: a pending request is resident iff its seq is
    /// below this (set to the slab's upper seq at arm time).
    boundary: u64,
    /// Live residents (`count` at arm, decremented by sub-boundary
    /// removals).
    resident_count: usize,
    /// Pending request count on this group.
    count: usize,
    /// Oldest-seq aggregate.
    seqs: SeqFifo,
    /// Per-query presence count and intra-order heap (distinct-query
    /// aggregates and the query-FCFS serve scope); its key array is the
    /// sorted distinct-query list a [`GroupLens`] borrows.
    by_query: PooledMap<QueryId, QueryHeap>,
}

impl GroupQueue {
    /// Rebuilds the run from the live leftovers past the cursor plus
    /// every live fresh arrival, sorted, with the cursor reset. Both
    /// vectors keep their capacity and `sort_unstable` sorts in place,
    /// so a warm re-arm never touches the allocator.
    fn rebuild_run(&mut self, live: impl Fn(u64) -> bool) {
        let served = self.cursor;
        self.run.append(&mut self.fresh);
        let mut at = 0;
        self.run.retain(|k| {
            at += 1;
            at > served && live(seq_of(k))
        });
        self.run.sort_unstable();
        self.cursor = 0;
    }

    /// Keeps `run[cursor]` live after a resident left the queue.
    fn skip_served(&mut self, live: impl Fn(u64) -> bool) {
        while self.run.get(self.cursor).is_some_and(|k| !live(seq_of(k))) {
            self.cursor += 1;
        }
    }
}

impl Recycle for GroupQueue {
    fn recycle(&mut self) {
        self.run.clear();
        self.cursor = 0;
        self.fresh.clear();
        self.boundary = 0;
        self.resident_count = 0;
        self.count = 0;
        self.seqs.clear();
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
    /// Oldest-seq aggregate for [`QueueView::oldest_of_query`].
    seqs: SeqFifo,
}

impl Recycle for QueryEntry {
    fn recycle(&mut self) {
        self.count = 0;
        self.seqs.clear();
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
    /// The group the last residency was armed on and its arena handle,
    /// while that entry is live: `select` and `resident_len` on the
    /// active group skip the group search.
    armed: Option<(GroupId, u32)>,
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

    /// Group `g`'s sub-queue, through the armed handle when `g` is the
    /// armed group.
    fn group(&self, g: GroupId) -> Option<&GroupQueue> {
        match self.armed {
            Some((armed, handle)) if armed == g => Some(self.groups.by_handle(handle)),
            _ => self.groups.get(&g),
        }
    }

    /// Test self-check: rebuilds every maintained count — total,
    /// per-group pending and resident, per-(group, query) and per-query
    /// — from a slab scan, asserts the indexes agree (node handles,
    /// residency runs, fresh lists and seq FIFOs included), and checks
    /// the handle bookkeeping of every arena (pooled payloads included:
    /// they must have been reset).
    #[cfg(test)]
    pub(crate) fn recount(&self) {
        use std::collections::BTreeMap;
        #[derive(Default)]
        struct Group {
            count: usize,
            resident: usize,
            by_query: BTreeMap<QueryId, usize>,
            resident_keys: Vec<OrderKey>,
            fresh_keys: Vec<OrderKey>,
            seqs: Vec<u64>,
        }
        let mut groups: BTreeMap<GroupId, Group> = BTreeMap::new();
        let mut queries: BTreeMap<QueryId, Vec<u64>> = BTreeMap::new();
        for node in self.slab.nodes() {
            let r = &node.request;
            assert_eq!(
                self.groups.handle(&r.group),
                Some(node.group),
                "group handle"
            );
            let gq = self.groups.by_handle(node.group);
            assert_eq!(gq.by_query.handle(&r.query), Some(node.group_query));
            assert_eq!(self.queries.handle(&r.query), Some(node.query));
            let g = groups.entry(r.group).or_default();
            g.count += 1;
            if r.seq < gq.boundary {
                g.resident += 1;
                g.resident_keys.push(self.key(r));
            } else {
                g.fresh_keys.push(self.key(r));
            }
            g.seqs.push(r.seq);
            *g.by_query.entry(r.query).or_default() += 1;
            queries.entry(r.query).or_default().push(r.seq);
        }
        let live = |s: u64| self.slab.contains(s);
        let live_seqs = |fifo: &SeqFifo| -> Vec<u64> {
            assert!(fifo.0.iter().is_sorted(), "seq FIFO out of order");
            assert!(fifo.front().is_none_or(live), "seq FIFO front is stale");
            fifo.0.iter().copied().filter(|&s| live(s)).collect()
        };
        assert_eq!(self.slab.len(), self.slab.iter().count());
        assert!(self.groups.keys().iter().eq(groups.keys()), "group keys");
        for ((g, gq), want) in self.groups.iter().zip(groups.values_mut()) {
            assert_eq!(gq.count, want.count, "count of group {g}");
            assert_eq!(gq.resident_count, want.resident, "residents of group {g}");
            let run = &gq.run[gq.cursor..];
            assert!(run.is_sorted(), "run of group {g} unsorted");
            assert!(
                run.first().is_none_or(|k| live(seq_of(k))),
                "run cursor of group {g} on a served entry"
            );
            let run_live: Vec<OrderKey> = run.iter().copied().filter(|k| live(seq_of(k))).collect();
            want.resident_keys.sort_unstable();
            assert_eq!(run_live, want.resident_keys, "run of group {g}");
            let mut fresh_live: Vec<OrderKey> = gq
                .fresh
                .iter()
                .copied()
                .filter(|k| live(seq_of(k)))
                .collect();
            fresh_live.sort_unstable();
            want.fresh_keys.sort_unstable();
            assert_eq!(fresh_live, want.fresh_keys, "fresh keys of group {g}");
            assert_eq!(live_seqs(&gq.seqs), want.seqs, "seqs of group {g}");
            assert!(
                gq.by_query.keys().iter().eq(want.by_query.keys()),
                "query keys of group {g}"
            );
            for ((q, per_query), &n) in gq.by_query.iter().zip(want.by_query.values()) {
                assert_eq!(per_query.count, n, "count of {q} on group {g}");
            }
        }
        assert!(self.queries.keys().iter().eq(queries.keys()), "query keys");
        for ((q, entry), seqs) in self.queries.iter().zip(queries.values()) {
            assert_eq!(entry.count, seqs.len(), "count of {q}");
            assert_eq!(&live_seqs(&entry.seqs), seqs, "seqs of {q}");
        }
        if let Some((g, handle)) = self.armed {
            assert_eq!(self.groups.handle(&g), Some(handle), "stale armed handle");
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
            armed: None,
        }
    }

    fn insert(&mut self, request: PendingRequest) {
        let key = self.key(&request);
        let group_handle = self.groups.handle_or_insert(request.group);
        let group = self.groups.by_handle_mut(group_handle);
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
        group.seqs.push(request.seq);
        let group_query = group.by_query.handle_or_insert(request.query);
        let per_query = group.by_query.by_handle_mut(group_query);
        per_query.count += 1;
        per_query.heap.push(key);
        let query_handle = self.queries.handle_or_insert(request.query);
        let query = self.queries.by_handle_mut(query_handle);
        query.count += 1;
        query.seqs.push(request.seq);
        self.slab.insert(Node {
            request,
            group: group_handle,
            group_query,
            query: query_handle,
        });
    }

    fn remove(&mut self, seq: u64) -> PendingRequest {
        let node = self.slab.remove(seq);
        let request = node.request;
        // Liveness for the stale-entry skips is slab presence
        // (sequence numbers are never reused).
        let slab = &self.slab;
        let live = |s: u64| slab.contains(s);
        let group = self.groups.by_handle_mut(node.group);
        group.count -= 1;
        if group.count == 0 {
            self.groups.remove(&request.group);
            if self.armed.is_some_and(|(_, h)| h == node.group) {
                self.armed = None;
            }
        } else {
            if seq < group.boundary {
                group.resident_count -= 1;
                group.skip_served(live);
            } else if mostly_stale(group.fresh.len(), group.count - group.resident_count) {
                group.fresh.retain(|k| live(seq_of(k)));
            }
            group.seqs.served(seq, group.count, live);
            let per_query = group.by_query.by_handle_mut(node.group_query);
            per_query.count -= 1;
            if per_query.count == 0 {
                group.by_query.remove(&request.query);
            } else {
                per_query
                    .heap
                    .maybe_compact(per_query.count, |k| live(seq_of(&k)));
            }
        }
        let query = self.queries.by_handle_mut(node.query);
        query.count -= 1;
        if query.count == 0 {
            self.queries.remove(&request.query);
        } else {
            query.seqs.served(seq, query.count, live);
        }
        request
    }

    fn arm_residency(&mut self, group: GroupId) {
        // Everything currently pending becomes resident: the boundary
        // moves past every assigned seq and the fresh keys fold into a
        // new sorted run (each key is folded in at most once — fresh
        // drains wholesale).
        self.armed = self.groups.handle(&group).map(|h| (group, h));
        if let Some((_, handle)) = self.armed {
            let slab = &self.slab;
            let g = self.groups.by_handle_mut(handle);
            g.boundary = slab.upper_seq();
            g.resident_count = g.count;
            g.rebuild_run(|s| slab.contains(s));
            debug_assert_eq!(g.run.len(), g.count, "residency run lost a request");
        }
    }

    fn select(&self, scope: ServeScope, active: GroupId) -> Option<u64> {
        match scope {
            ServeScope::Residency => {
                let g = self.group(active)?;
                g.run.get(g.cursor).map(seq_of)
            }
            ServeScope::OldestObject => {
                let r = self.slab.front()?;
                (r.group == active).then_some(r.seq)
            }
            ServeScope::OldestQuery => {
                let oldest_query = self.slab.front()?.query;
                self.group(active)?
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
        let seq = self.queries.get(&q)?.seqs.front()?;
        self.slab.get(seq).copied()
    }

    fn group_has_query(&self, g: GroupId, q: QueryId) -> bool {
        self.groups
            .get(&g)
            .is_some_and(|gq| gq.by_query.handle(&q).is_some())
    }

    fn oldest_seq_on(&self, g: GroupId) -> Option<u64> {
        self.groups.get(&g)?.seqs.front()
    }

    fn resident_len(&self, g: GroupId) -> usize {
        self.group(g).map_or(0, |gq| gq.resident_count)
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
        // seq FIFOs, fresh list and heaps go through several
        // compactions, and check the aggregates stay exact throughout.
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
        // select(Residency) stay exact as the run's cursor skips them.
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
    fn random_serves_and_cancels_agree_with_naive() {
        // A seeded op mix over four groups — inserts, arms, residency
        // serves, serves through the other scopes, query and object
        // cancels — applied to both queues. Every answer must agree and
        // the indexes must match a recount after every op. Cancels are
        // classified as they land, and the run must have cancelled
        // residents of the armed group (the run's dead-entry skip),
        // fresh arrivals on it (dropped at the next arm) and requests
        // on other groups.
        use crate::sched::naive::NaiveQueue;
        use skipper_sim::rng::splitmix64;
        let mut state = 0x5EED_u64;
        let mut draw = |n: u64| splitmix64(&mut state) % n;
        let intra = IntraGroupOrder::SemanticRoundRobin;
        let mut indexed = queue(&[]);
        let mut naive = NaiveQueue::from_requests(intra, []);
        let (mut next_seq, mut armed, mut boundary) = (0u64, None, 0u64);
        let mut cancelled = [0usize; 3]; // resident, fresh, other group
        for _ in 0..4_000 {
            match draw(10) {
                0..=3 => {
                    let r = req(
                        draw(4) as u32,
                        draw(3) as u16,
                        draw(2) as u32,
                        draw(6) as u32,
                        next_seq,
                        next_seq,
                    );
                    next_seq += 1;
                    indexed.insert(r);
                    naive.insert(r);
                }
                4 => {
                    let g = draw(4) as u32;
                    indexed.arm_residency(g);
                    naive.arm_residency(g);
                    (armed, boundary) = (Some(g), next_seq);
                }
                5 | 6 => {
                    let scope = [
                        ServeScope::Residency,
                        ServeScope::Residency,
                        ServeScope::OldestObject,
                        ServeScope::OldestQuery,
                        ServeScope::Window(3),
                    ][draw(5) as usize];
                    let g = armed.unwrap_or(0);
                    let seq = indexed.select(scope, g);
                    assert_eq!(seq, naive.select(scope, g), "{scope:?} on {g}");
                    if let Some(seq) = seq {
                        assert_eq!(indexed.remove(seq), naive.remove(seq));
                    }
                }
                _ => {
                    let q = QueryId::new(draw(3) as u16, draw(2) as u32);
                    let mut removed = Vec::new();
                    if draw(2) == 0 {
                        let n = indexed.cancel_query(q, &mut |r| removed.push(*r));
                        let mut want = Vec::new();
                        assert_eq!(naive.cancel_query(q, &mut |r| want.push(*r)), n);
                        assert_eq!(removed, want);
                    } else {
                        let object = ObjectId::new(q.tenant, 0, draw(6) as u32);
                        removed.extend(indexed.cancel_object(q, object));
                        assert_eq!(removed.first(), naive.cancel_object(q, object).as_ref());
                    }
                    for r in removed {
                        let class = match armed {
                            Some(g) if r.group == g && r.seq < boundary => 0,
                            Some(g) if r.group == g => 1,
                            _ => 2,
                        };
                        cancelled[class] += 1;
                    }
                }
            }
            indexed.recount();
            assert_eq!(indexed.len(), naive.len());
            assert_eq!(indexed.oldest(), naive.oldest());
            assert_eq!(indexed.group_aggregates(), naive.group_aggregates());
            if let Some(g) = armed {
                assert_eq!(indexed.resident_len(g), naive.resident_len(g));
                let scope = ServeScope::Residency;
                assert_eq!(indexed.select(scope, g), naive.select(scope, g));
            }
            for tenant in 0..3 {
                for qseq in 0..2 {
                    let q = QueryId::new(tenant, qseq);
                    assert_eq!(indexed.oldest_of_query(q), naive.oldest_of_query(q));
                }
            }
        }
        assert!(
            cancelled.iter().all(|&n| n > 20),
            "cancel coverage (resident, fresh, other group): {cancelled:?}"
        );
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
