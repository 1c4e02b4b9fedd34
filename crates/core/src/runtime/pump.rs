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
//! (a submit, a cancel or a live wake-up — tracked by a dirty flag):
//! nothing else can move its earliest completion. The fleet pokes only
//! the shards an event touched, and a touched pump that stayed clean (a
//! stale wake-up) skips the kick instead of re-running a scheduler
//! decision.
//!
//! With one stream the earliest completion never changes while armed
//! (the single slot is busy), so no wake-up is ever superseded and the
//! protocol reduces exactly to the historical one-armed-flag behaviour —
//! same events, same order.
//!
//! The pump is the per-shard unit of the
//! [`DeviceFleet`](super::fleet::DeviceFleet): a fleet is N pumps, each
//! running this protocol independently against its own device. Two
//! planes can ride on a pump, each in one optional box that its owner
//! module installs and drives: the dropped-wake-up watchdog
//! ([`fault`](super::fault)) and the shard-cache tiers (`tiers`).
//! Without them every hook below is one null test.

use std::sync::Arc;

use skipper_csd::{CsdDevice, Delivery, ObjectId, QueryId};
use skipper_relational::segment::Segment;
use skipper_sim::SimTime;

use super::fault::Watchdog;
use super::tiers::CacheState;

/// Wrapper pairing the device with its armed-wake-up instant.
///
/// Generic over the device's payload `P`, like the [`CsdDevice`] it
/// wraps. The runtime drives `P = ()`: the device only decides *when*
/// a GET completes, and the engine borrows the bytes from its tenant's
/// dataset. The default `Arc<Segment>` keeps callers that name the bare
/// type (the benchmark's replay mirror) carrying the payload.
pub struct DevicePump<P = Arc<Segment>> {
    pub(super) device: CsdDevice<P>,
    /// The earliest pending completion a wake-up is armed for.
    /// Invariant: `Some(t)` ⇔ the device reported `t` as its earliest
    /// completion and no `on_wakeup_into(t)` has consumed it yet.
    pub(super) armed_at: Option<SimTime>,
    /// Set on every device mutation (submit / cancel / live wake-up),
    /// cleared by `poke`. Only a mutation can move the device's earliest
    /// completion, so a clean pump skips the kick entirely.
    pub(super) dirty: bool,
    /// The fault plane's watchdog, on shards with a planned drop only.
    pub(super) watchdog: Option<Box<Watchdog<P>>>,
    /// The shard-cache tiers, only with a config that has capacity.
    pub(super) cache: Option<Box<CacheState>>,
}

impl<P: Clone> DevicePump<P> {
    /// Wraps `device`.
    pub fn new(device: CsdDevice<P>) -> Self {
        DevicePump {
            device,
            armed_at: None,
            dirty: true,
            watchdog: None,
            cache: None,
        }
    }

    /// Submits GET requests from `client` tagged with `query`. With
    /// cache tiers installed, hits complete at tier bandwidth and only
    /// the misses reach the device.
    pub fn submit(&mut self, now: SimTime, client: usize, query: QueryId, objects: &[ObjectId]) {
        let misses = match self.cache.as_deref_mut() {
            Some(tiers) => {
                match tiers.partition(now, client, query, objects, self.device.store()) {
                    [] => return, // all hits: the device is untouched
                    misses => misses,
                }
            }
            None => objects,
        };
        self.dirty = true;
        self.device.submit(now, client, query, misses);
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
    /// superseded wake-up. Returns whether the wake-up did anything: a
    /// cache hit, a watchdog release or a live device completion.
    /// Callers must [`DevicePump::poke`] again afterwards.
    pub fn on_wakeup_into(&mut self, now: SimTime, out: &mut Vec<Delivery<P>>) -> bool {
        // Cache completions fire first, ahead of same-instant device
        // deliveries; then the watchdog's release, which fills the
        // cache like every delivery.
        let mut live = match self.cache.as_deref_mut() {
            Some(tiers) => tiers.pop_ready(now, out, self.device.store()),
            None => false,
        };
        if let Some(watchdog) = self.watchdog.as_deref_mut() {
            let start = out.len();
            if watchdog.release(now, out) {
                live = true;
                self.fill(now, &out[start..]);
            }
        }
        if self.armed_at != Some(now) {
            // Stale: this wake-up was superseded by a re-arm at an
            // earlier instant (whose firing already completed the
            // device past this point), or nothing is armed at all.
            // The device is untouched, so the pump stays clean.
            return live;
        }
        self.armed_at = None;
        self.dirty = true;
        let start = out.len();
        self.device.complete_into(now, out);
        if let Some(watchdog) = self.watchdog.as_deref_mut() {
            watchdog.on_live_wakeup(now, out, start);
        }
        self.fill(now, &out[start..]);
        true
    }

    /// Fills the cache tiers, if any, from delivered misses.
    fn fill(&mut self, now: SimTime, delivered: &[Delivery<P>]) {
        if let Some(tiers) = self.cache.as_deref_mut() {
            tiers.fill(now, delivered, self.device.store());
        }
    }

    /// Protection plane: dequeues every still-queued request of `query`
    /// (a deadline cancel or exhausted retry). In-flight transfers are
    /// left to complete — their deliveries arrive stale and are dropped
    /// at routing — and pending cache hits likewise deliver-and-drop,
    /// so the wake-up protocol is untouched. Returns the number of
    /// requests removed.
    pub fn cancel_query(&mut self, query: QueryId) -> usize {
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
        let removed = self.device.cancel_object(query, object);
        if removed {
            self.dirty = true;
        }
        removed
    }

    /// True when a poke would do something: kick a mutated device, or
    /// hand out a watchdog release or cache completion not yet armed.
    /// The fleet's touched set must cover every such pump.
    pub(super) fn needs_poke(&self) -> bool {
        self.dirty
            || self.watchdog.as_ref().is_some_and(|w| w.arm_pending())
            || self.cache.as_ref().is_some_and(|c| c.arm_pending())
    }

    /// True when the device is idle with an empty queue and neither
    /// plane holds anything back (no watchdog batch, no pending hit).
    pub fn is_quiescent(&self) -> bool {
        self.device.is_quiescent()
            && self.watchdog.as_ref().is_none_or(|w| w.is_idle())
            && self.cache.as_ref().is_none_or(|c| c.is_idle())
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
