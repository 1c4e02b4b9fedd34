//! The device pump: tracks the device's earliest pending completion.
//!
//! The CSD model is passive — it must be `kick`ed whenever it might
//! have work and completed exactly at the earliest instant it
//! reported. With the multi-stream service pipeline that instant is the
//! *earliest of K completions*, and it can move **earlier** whenever new
//! work fills an idle slot — so the historical "one armed wake-up, poke
//! is a no-op while armed" protocol is re-derived as *re-arm on every
//! mutation*:
//!
//! * [`DevicePump::poke`] kicks the device and, when the earliest
//!   completion differs from the armed instant, arms a fresh wake-up at
//!   the new time. The superseded wake-up event stays in the caller's
//!   queue — events cannot be unscheduled — and is recognized as stale
//!   when it fires.
//! * [`DevicePump::on_wakeup_into`] fires a wake-up: a stale one (the
//!   armed instant moved) is ignored and appends no deliveries; a live
//!   one completes *everything* due at that instant and appends the
//!   batch to the caller's reusable buffer. Callers must poke again
//!   afterwards.
//!
//! A pump only re-kicks when *its* device mutated since the last poke
//! (a submit or a live wake-up — tracked by a dirty flag): the fleet
//! pokes every shard after every event, and nothing can move an
//! untouched shard's earliest completion, so clean shards stay O(1) on
//! the hot path instead of re-running a scheduler decision.
//!
//! With one stream the earliest completion never changes while armed
//! (the single slot is busy), so no wake-up is ever superseded and the
//! protocol reduces exactly to the historical one-armed-flag behaviour —
//! same events, same order.
//!
//! The pump is the per-shard unit of the
//! [`DeviceFleet`](super::fleet::DeviceFleet): a fleet is N pumps, each
//! running this protocol independently against its own device.
//!
//! ## Fault plane
//!
//! The pump is also where per-shard fault state lives:
//!
//! * **Crash** ([`DevicePump::fail`]) — in-flight transfers abort and
//!   the queue evacuates into the caller's buffer (the fleet re-routes
//!   or parks them); the pump rejects submits and kicks until
//!   [`DevicePump::recover`].
//! * **Brown-out** ([`DevicePump::set_bandwidth_factor`]) — forwarded
//!   to the device; only newly dispatched transfers see the factor.
//! * **Dropped wake-up** ([`DevicePump::plan_drop`]) — the `nth` live
//!   wake-up's deliveries are parked instead of routed (the transfers
//!   *did* complete on time inside the device — only the notification
//!   is lost) and a watchdog redelivers them a fixed delay later.
//!
//! ## Shard cache
//!
//! With a [`CacheConfig`] installed ([`DevicePump::set_cache`]) the
//! pump fronts the device with DRAM/SSD tiers: `submit` consults the
//! cache first, schedules hits as *cache completions* at tier
//! bandwidth (a pending min-heap, armed through
//! [`DevicePump::take_cache_arm`] exactly like the watchdog), and
//! forwards only the misses to the device — a hit never touches the
//! CSD queue, the scheduler, or a group switch. Miss deliveries fill
//! the tiers at consumption time, and a crash invalidates the whole
//! cache (pending hits are displaced like
//! aborted transfers and re-routed by the fleet — a dead shard can
//! never serve a stale hit). No cache installed (or zero capacity)
//! leaves every structure `None`: the machine is byte-exactly the
//! uncached one. Residency is metadata-only: a hit hands back the
//! object id, and the engine reads the bytes from its tenant's
//! dataset like any other delivery.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use skipper_csd::cache::{CacheConfig, CacheStats, ShardCache};
use skipper_csd::sched::PendingRequest;
use skipper_csd::{CsdDevice, Delivery, GroupId, LedgerMode, ObjectId, QueryId};
use skipper_relational::segment::Segment;
use skipper_sim::{SimDuration, SimTime};

/// One cache hit awaiting its tier-bandwidth completion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CachePending {
    /// Delivery-ready instant (tier pipe reservation).
    ready: SimTime,
    /// Per-shard issue sequence (deterministic tie-break).
    seq: u64,
    client: usize,
    query: QueryId,
    object: ObjectId,
    group: GroupId,
    bytes: u64,
}

impl Ord for CachePending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.ready, self.seq).cmp(&(other.ready, other.seq))
    }
}

impl PartialOrd for CachePending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Everything the pump keeps per installed shard cache. Boxed behind
/// an `Option` so the uncached pump pays one pointer-null test per
/// operation and nothing else.
struct CacheState {
    cache: ShardCache,
    config: CacheConfig,
    /// Hits in flight on the tier pipes, earliest-ready first.
    pending: BinaryHeap<Reverse<CachePending>>,
    /// Issue counter (heap tie-break).
    seq: u64,
    /// The pending-hit instant a wake-up is armed for (re-armed when a
    /// new hit becomes the earliest, like the device protocol).
    armed: Option<SimTime>,
    /// Reusable submit-partition scratch (the miss batch).
    miss_scratch: Vec<ObjectId>,
    /// Cache-served deliveries `(client, query, object)`, recorded
    /// only under `LedgerMode::Full` (mirrors the device ledger).
    served_log: Vec<(usize, QueryId, ObjectId)>,
    ledger: bool,
}

/// Wrapper pairing the device with its armed-wake-up instant.
///
/// Generic over the device's payload `P`, like the [`CsdDevice`] it
/// wraps. The runtime drives `P = ()`: the device only decides *when*
/// a GET completes, and the engine borrows the bytes from its tenant's
/// dataset. The default `Arc<Segment>` keeps callers that name the bare
/// type (the benchmark's replay mirror) carrying the payload.
pub struct DevicePump<P = Arc<Segment>> {
    device: CsdDevice<P>,
    /// The earliest pending completion a wake-up is armed for.
    /// Invariant: `Some(t)` ⇔ the device reported `t` as its earliest
    /// completion and no `on_wakeup_into(t)` has consumed it yet.
    armed_at: Option<SimTime>,
    /// Set on every device mutation (submit / live wake-up), cleared
    /// by `poke`. Only a mutation can move the device's earliest
    /// completion, so a clean pump skips the kick entirely — the fleet
    /// pokes every shard after every event, and untouched shards must
    /// stay O(1) on that hot path.
    dirty: bool,
    /// Fault plane: the shard is crashed — no submits, no kicks.
    down: bool,
    /// Remaining drop-wakeup injections, in ordinal order:
    /// `(nth live wake-up, redelivery delay)`.
    drops: VecDeque<(u64, SimDuration)>,
    /// Live wake-ups handled so far (drop-ordinal matching).
    wakeup_count: u64,
    /// Deliveries withheld by a dropped wake-up, awaiting the watchdog.
    parked: Vec<Delivery<P>>,
    /// Watchdog redelivery instant for the parked batch.
    redeliver_at: Option<SimTime>,
    /// Whether the redelivery wake-up event has been scheduled.
    redeliver_armed: bool,
    /// Shard cache tiers, `None` when uncached (the byte-exact legacy
    /// machine).
    cache: Option<Box<CacheState>>,
}

impl<P: Clone> DevicePump<P> {
    /// Wraps `device`.
    pub fn new(device: CsdDevice<P>) -> Self {
        DevicePump {
            device,
            armed_at: None,
            dirty: true,
            down: false,
            drops: VecDeque::new(),
            wakeup_count: 0,
            parked: Vec::new(),
            redeliver_at: None,
            redeliver_armed: false,
            cache: None,
        }
    }

    /// Installs the shard cache tiers (assembly time, before the run).
    /// A disabled config installs nothing — the pump stays byte-exactly
    /// the uncached machine.
    pub fn set_cache(&mut self, config: CacheConfig) {
        self.cache = ShardCache::new(config).map(|cache| {
            Box::new(CacheState {
                cache,
                config,
                pending: BinaryHeap::new(),
                seq: 0,
                armed: None,
                miss_scratch: Vec::new(),
                served_log: Vec::new(),
                ledger: self.device.ledger_mode() == LedgerMode::Full,
            })
        });
    }

    /// Submits GET requests from `client` tagged with `query`. With a
    /// cache installed the batch is partitioned first: hits are
    /// scheduled as cache completions at tier bandwidth (the fast path
    /// — no CSD queue, no scheduler, no switch) and only misses reach
    /// the device.
    pub fn submit(&mut self, now: SimTime, client: usize, query: QueryId, objects: &[ObjectId]) {
        assert!(
            !self.down,
            "submit landed on a crashed shard (fleet routing bug)"
        );
        let Some(state) = self.cache.as_deref_mut() else {
            self.dirty = true;
            self.device.submit(now, client, query, objects);
            return;
        };
        state.miss_scratch.clear();
        for &object in objects {
            let meta = self
                .device
                .store()
                .meta(object)
                .unwrap_or_else(|| panic!("unknown object {object} submitted to shard cache"));
            let (bytes, group) = (meta.logical_bytes, meta.group);
            match state.cache.lookup(now, object, bytes, group) {
                Some(ready) => {
                    state.seq += 1;
                    state.pending.push(Reverse(CachePending {
                        ready,
                        seq: state.seq,
                        client,
                        query,
                        object,
                        group,
                        bytes,
                    }));
                }
                None => state.miss_scratch.push(object),
            }
        }
        if !state.miss_scratch.is_empty() {
            self.dirty = true;
            let misses = std::mem::take(&mut state.miss_scratch);
            self.device.submit(now, client, query, &misses);
            self.cache
                .as_deref_mut()
                .expect("cache installed")
                .miss_scratch = misses;
        }
    }

    /// Kicks the device (filling idle pipeline slots) and re-arms the
    /// wake-up if the earliest pending completion changed. Returns the
    /// instant to schedule, or `None` when the armed wake-up is still
    /// accurate (or the device has nothing to do). A pump untouched
    /// since its last poke is a no-op: nothing can have moved its
    /// earliest completion.
    pub fn poke(&mut self, now: SimTime) -> Option<SimTime> {
        if !self.dirty {
            return None;
        }
        if self.down {
            // Crashed: the device was failed empty and the fleet routes
            // around it; nothing to kick until recovery.
            return None;
        }
        self.dirty = false;
        match self.device.kick(now) {
            Some(at) if self.armed_at == Some(at) => None,
            Some(at) => {
                // Either nothing was armed, or new work moved the
                // earliest completion: arm (or re-arm) at the new
                // instant. A superseded event becomes stale.
                self.armed_at = Some(at);
                Some(at)
            }
            None => {
                debug_assert!(
                    self.armed_at.is_none(),
                    "armed wake-up with nothing in flight"
                );
                self.armed_at = None;
                None
            }
        }
    }

    /// Handles a wake-up firing at `now`, appending the finished
    /// transfers to `out` — a caller-owned scratch buffer the event
    /// loop reuses across wake-ups, so the steady state allocates
    /// nothing. Appends nothing for a switch completion or a stale,
    /// superseded wake-up. Callers must [`DevicePump::poke`] again
    /// afterwards.
    pub fn on_wakeup_into(&mut self, now: SimTime, out: &mut Vec<Delivery<P>>) {
        // Cache completions fire first, ahead of same-instant device
        // deliveries.
        self.pop_cache_ready(now, out);
        if self.redeliver_at == Some(now) {
            // The watchdog fires: release the batch withheld by the
            // dropped wake-up. The device completed these transfers on
            // time internally — only their *notification* was lost —
            // so nothing is kicked and nothing is re-served. The cache
            // fills at notification time, like every delivery.
            self.redeliver_at = None;
            self.redeliver_armed = false;
            let start = out.len();
            out.append(&mut self.parked);
            self.fill_from(now, out, start);
            // Fall through: the device's own completion may be due at
            // the same instant (two events, first one handles both,
            // the second fires stale).
        }
        if self.armed_at != Some(now) {
            // Stale: this wake-up was superseded by a re-arm at an
            // earlier instant (whose firing already completed the
            // device past this point), or nothing is armed at all.
            // The device is untouched, so the pump stays clean.
            return;
        }
        self.armed_at = None;
        self.dirty = true;
        self.wakeup_count += 1;
        let start = out.len();
        self.device.complete_into(now, out);
        if self
            .drops
            .front()
            .is_some_and(|&(nth, _)| nth == self.wakeup_count)
        {
            // This live wake-up's notification is lost: the device
            // completed (above, on time), but its deliveries go to the
            // parked buffer until the watchdog redelivers them. They
            // fill the cache when the watchdog *delivers* them, so
            // nothing fills here.
            let (_, delay) = self.drops.pop_front().expect("front checked");
            debug_assert!(
                self.parked.is_empty() && self.redeliver_at.is_none(),
                "overlapping drop-wakeup episodes on one shard"
            );
            self.parked.extend(out.drain(start..));
            self.redeliver_at = Some(now + delay);
            self.redeliver_armed = false;
        }
        self.fill_from(now, out, start);
    }

    /// Delivers every pending cache hit due at `now` (no-op while the
    /// cache wake-up armed for this instant is absent or superseded).
    /// Payloads clone out of the device store — `()` in the runtime,
    /// whose engines borrow the bytes from the dataset — so the hit
    /// path allocates nothing once the heap and ledger are warm.
    fn pop_cache_ready(&mut self, now: SimTime, out: &mut Vec<Delivery<P>>) {
        let Some(state) = self.cache.as_deref_mut() else {
            return;
        };
        if state.armed != Some(now) {
            return;
        }
        state.armed = None;
        while state.pending.peek().is_some_and(|p| p.0.ready == now) {
            let Reverse(p) = state.pending.pop().expect("peeked entry");
            let payload = self
                .device
                .store()
                .get(p.object)
                .expect("cache-resident object lives in the shard store")
                .clone();
            if state.ledger {
                state.served_log.push((p.client, p.query, p.object));
            }
            out.push(Delivery {
                client: p.client,
                query: p.query,
                object: p.object,
                payload,
            });
        }
    }

    /// Fills the cache tiers from the miss deliveries in `out[start..]`
    /// (no-op when uncached). Runs at delivery-consumption time.
    fn fill_from(&mut self, now: SimTime, out: &[Delivery<P>], start: usize) {
        let Some(state) = self.cache.as_deref_mut() else {
            return;
        };
        for d in &out[start..] {
            let meta = self
                .device
                .store()
                .meta(d.object)
                .expect("delivered object has store metadata");
            state
                .cache
                .fill(now, d.object, meta.logical_bytes, meta.group);
        }
    }

    /// The earliest-pending cache completion to schedule, handed out
    /// once per distinct instant (re-armed when a new hit becomes the
    /// earliest; the superseded event fires stale). The fleet polls
    /// this on every poke pass, alongside the device and watchdog
    /// wake-ups.
    pub fn take_cache_arm(&mut self) -> Option<SimTime> {
        let state = self.cache.as_deref_mut()?;
        let next = state.pending.peek()?.0.ready;
        if state.armed == Some(next) {
            None
        } else {
            state.armed = Some(next);
            Some(next)
        }
    }

    /// The watchdog redelivery instant to schedule, handed out exactly
    /// once per dropped batch (the fleet polls this on every poke
    /// pass, alongside the device wake-up from [`DevicePump::poke`]).
    pub fn take_redelivery_arm(&mut self) -> Option<SimTime> {
        match self.redeliver_at {
            Some(at) if !self.redeliver_armed => {
                self.redeliver_armed = true;
                Some(at)
            }
            _ => None,
        }
    }

    /// Installs a drop-wakeup injection: the `nth` live wake-up
    /// (1-based, from run start) is dropped and redelivered
    /// `redeliver_after` later. Must be installed in increasing
    /// ordinal order before the run starts.
    pub fn plan_drop(&mut self, nth: u64, redeliver_after: SimDuration) {
        assert!(
            self.drops.back().is_none_or(|&(last, _)| last < nth),
            "DropWakeup ordinals on one shard must be distinct and increasing"
        );
        self.drops.push_back((nth, redeliver_after));
    }

    /// Crashes the shard: aborts in-flight transfers and evacuates the
    /// queue into `displaced` (in slot order, then arrival order),
    /// flushes any watchdog-parked deliveries into `completed` (their
    /// transfers finished before the crash — crash detection reveals
    /// them), and marks the pump down. Returns the number of aborted
    /// in-flight transfers. The spun-up group is lost: the first load
    /// after recovery pays a full switch even under `initial_load_free`.
    pub fn fail(
        &mut self,
        now: SimTime,
        displaced: &mut Vec<PendingRequest>,
        completed: &mut Vec<Delivery<P>>,
    ) -> usize {
        assert!(!self.down, "shard crashed while already down");
        self.down = true;
        // Any armed wake-up event becomes stale; the watchdog event
        // (if armed) goes stale too — the crash flushes its batch now.
        self.armed_at = None;
        self.redeliver_at = None;
        self.redeliver_armed = false;
        completed.append(&mut self.parked);
        self.dirty = true;
        let mut aborted = self.device.fail(now, displaced);
        if let Some(state) = self.cache.as_deref_mut() {
            // The crash wipes the tiers — nothing survives a failover,
            // so no stale hit can ever be served — and every pending
            // hit is displaced like an aborted in-flight transfer (in
            // ready order, after the device's evacuation) for the
            // fleet to re-route to a live replica.
            state.armed = None;
            while let Some(Reverse(p)) = state.pending.pop() {
                aborted += 1;
                let (slot, _) = self
                    .device
                    .store()
                    .resolve(p.object)
                    .expect("cache hit on an object the shard stores");
                displaced.push(PendingRequest {
                    object: p.object,
                    query: p.query,
                    client: p.client,
                    group: p.group,
                    bytes: p.bytes,
                    slot,
                    arrival: now,
                    seq: p.seq,
                });
            }
            state.cache.invalidate_all();
        }
        aborted
    }

    /// Recovers a crashed shard: the pump accepts submits and kicks
    /// again (cold — see [`DevicePump::fail`] on the lost group).
    pub fn recover(&mut self, _now: SimTime) {
        assert!(self.down, "recovering a shard that is not down");
        self.down = false;
        self.dirty = true;
    }

    /// Protection plane: dequeues every still-queued request of `query`
    /// (a deadline cancel or exhausted retry). In-flight transfers are
    /// left to complete — their deliveries arrive stale and are dropped
    /// at routing — and pending cache hits likewise deliver-and-drop,
    /// so the wake-up protocol is untouched. Returns the number of
    /// requests removed.
    pub fn cancel_query(&mut self, query: QueryId) -> usize {
        if self.down {
            return 0; // failed empty: nothing queued on a crashed shard
        }
        let n = self.device.cancel_query(query);
        if n > 0 {
            self.dirty = true;
        }
        n
    }

    /// Protection plane: dequeues one still-queued `(query, object)`
    /// request (a hedge loser whose winning replica delivered first).
    /// Returns whether a copy was found and removed; an in-flight or
    /// already-served copy delivers stale instead.
    pub fn cancel_object(&mut self, query: QueryId, object: ObjectId) -> bool {
        if self.down {
            return false;
        }
        let removed = self.device.cancel_object(query, object);
        if removed {
            self.dirty = true;
        }
        removed
    }

    /// Scales the device's effective per-stream bandwidth (fault-plane
    /// brown-outs); transfers dispatched from now on see the factor,
    /// committed in-flight completion instants do not move.
    pub fn set_bandwidth_factor(&mut self, factor: f64) {
        self.device.set_bandwidth_factor(factor);
    }

    /// True when the device is idle with an empty queue and the fault
    /// plane holds nothing back (no parked batch, no pending watchdog,
    /// no cache hit awaiting delivery).
    pub fn is_quiescent(&self) -> bool {
        self.device.is_quiescent()
            && self.parked.is_empty()
            && self.redeliver_at.is_none()
            && self.cache.as_ref().is_none_or(|s| s.pending.is_empty())
    }

    /// Counter snapshot of the shard cache (zeros when uncached).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
            .as_ref()
            .map(|s| s.cache.stats())
            .unwrap_or_default()
    }

    /// The installed cache configuration, if any (economics reporting).
    pub fn cache_config(&self) -> Option<CacheConfig> {
        self.cache.as_ref().map(|s| s.config)
    }

    /// Takes the cache-served delivery ledger (end-of-run assembly;
    /// empty when uncached or under `LedgerMode::Counters`).
    pub fn take_cache_served_log(&mut self) -> Vec<(usize, QueryId, ObjectId)> {
        self.cache
            .as_deref_mut()
            .map(|s| std::mem::take(&mut s.served_log))
            .unwrap_or_default()
    }

    /// Read access to the wrapped device (metrics, trace, scheduler).
    pub fn device(&self) -> &CsdDevice<P> {
        &self.device
    }

    /// Unwraps the device (end-of-run result assembly: the runtime takes
    /// spans and ledgers by move instead of cloning).
    pub fn into_device(self) -> CsdDevice<P> {
        self.device
    }
}
