//! The device pump: one shard's device and the wake-ups it needs.
//!
//! The CSD model is passive — it must be `kick`ed whenever it might
//! have work and completed exactly at the earliest instant it
//! reported. With the multi-stream service pipeline that instant is the
//! *earliest of K completions*, and it can move **earlier** whenever new
//! work fills an idle slot.
//!
//! # The timer rule
//!
//! A pump has three alarms: the device's earliest completion, the
//! earliest pending cache hit and the watchdog's release. Each follows
//! one next-due instant under one rule, owned by the private `Alarm`:
//!
//! * **Arm on move.** When a due instant moves, its alarm arms the new
//!   one and hands it out to be scheduled ([`DevicePump::poke`] for the
//!   device; the fleet's poke arms release, then hit, then device). The
//!   superseded event stays in the caller's queue — events cannot be
//!   unscheduled — and fires stale.
//! * **Retire at the armed instant.** [`DevicePump::on_wakeup_into`]
//!   retires and disarms every alarm armed at `now`, in the order
//!   hits → release → device, so the first calendar event at an
//!   instant retires every alarm due then. Callers poke again after it.
//! * **A fully stale wake-up touches nothing:** no plane state changes,
//!   nothing is delivered, and the fleet does not mark the shard.
//!
//! A crash (`DevicePump::fail`) disarms all three at once. The device
//! is re-kicked only when it mutated since the last poke (a submit, a
//! cancel or a live device wake-up — tracked by a dirty flag): nothing
//! else can move its earliest completion. With one stream that instant
//! never changes while armed (the single slot is busy), so no wake-up
//! is ever superseded — the historical one-armed-flag schedule exactly.
//!
//! The pump is the per-shard unit of the
//! [`DeviceFleet`](super::fleet::DeviceFleet): a fleet is N pumps, each
//! running this protocol independently against its own device. Two
//! planes can ride on a pump, each in one optional box that its owner
//! module installs and drives: the dropped-wake-up watchdog
//! (`fault`) and the shard-cache tiers (`tiers`).
//! Without them every hook below is one null test.

use std::sync::Arc;

use skipper_csd::{CsdDevice, Delivery, ObjectId, QueryId};
use skipper_relational::segment::Segment;
use skipper_sim::SimTime;

use super::fault::Watchdog;
use super::tiers::CacheState;

/// One wake-up's armed instant, under the timer rule of the module
/// docs. It is the only place an armed instant meets `now`.
#[derive(Default)]
struct Alarm(Option<SimTime>);

impl Alarm {
    /// Arms `next`, returning it only when the armed instant moved.
    fn follow(&mut self, next: Option<SimTime>) -> Option<SimTime> {
        if self.0 == next {
            return None;
        }
        self.0 = next;
        next
    }

    /// True, and disarmed, only at the armed instant.
    fn fire(&mut self, now: SimTime) -> bool {
        self.0.take_if(|at| *at == now).is_some()
    }

    /// True when [`follow`](Self::follow)ing `next` would arm it.
    fn moves(&self, next: Option<SimTime>) -> bool {
        self.0 != next
    }
}

/// Wrapper pairing the device with its three alarms.
///
/// Generic over the device's payload `P`, like the [`CsdDevice`] it
/// wraps. The runtime drives `P = ()`: the device only decides *when*
/// a GET completes, and the engine borrows the bytes from its tenant's
/// dataset. The default `Arc<Segment>` keeps callers that name the bare
/// type (the benchmark's replay mirror) carrying the payload.
pub struct DevicePump<P = Arc<Segment>> {
    pub(super) device: CsdDevice<P>,
    /// Armed at the device's earliest pending completion.
    device_alarm: Alarm,
    /// Armed at the earliest pending cache hit.
    hit_alarm: Alarm,
    /// Armed at the watchdog's release.
    release_alarm: Alarm,
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
            device_alarm: Alarm::default(),
            hit_alarm: Alarm::default(),
            release_alarm: Alarm::default(),
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

    /// Kicks the device (filling idle pipeline slots) and arms its
    /// alarm at the earliest pending completion. Returns the instant to
    /// schedule, or `None` when the armed wake-up is still accurate (or
    /// the device has nothing to do). A pump untouched since its last
    /// poke is a no-op: nothing can have moved its earliest completion.
    pub fn poke(&mut self, now: SimTime) -> Option<SimTime> {
        if !self.dirty {
            return None;
        }
        self.dirty = false;
        let next = self.device.kick(now);
        debug_assert!(
            next.is_some() || !self.device_alarm.moves(None),
            "armed wake-up with nothing in flight"
        );
        self.device_alarm.follow(next)
    }

    /// Arms every alarm whose due instant moved, passing each new
    /// instant to `armed`: the watchdog's release, then the next cache
    /// hit, then the device through [`poke`](Self::poke).
    pub(super) fn arm(&mut self, now: SimTime, mut armed: impl FnMut(SimTime)) {
        if let Some(watchdog) = self.watchdog.as_deref() {
            if let Some(at) = self.release_alarm.follow(watchdog.release_at) {
                armed(at);
            }
        }
        if let Some(tiers) = self.cache.as_deref() {
            if let Some(at) = self.hit_alarm.follow(tiers.next_ready()) {
                armed(at);
            }
        }
        if let Some(at) = self.poke(now) {
            armed(at);
        }
    }

    /// Handles a wake-up firing at `now`, retiring every alarm armed
    /// at `now` (see the module docs) and appending the finished
    /// transfers to `out` — a caller-owned scratch buffer the event
    /// loop reuses across wake-ups, so the steady state allocates
    /// nothing. Returns whether any alarm fired: a cache hit, a
    /// watchdog release or a device completion (which may be a switch
    /// that delivers nothing). Callers must [`DevicePump::poke`] again
    /// afterwards.
    pub fn on_wakeup_into(&mut self, now: SimTime, out: &mut Vec<Delivery<P>>) -> bool {
        // An alarm is armed only over its installed plane.
        let hits = self.hit_alarm.fire(now);
        if let Some(tiers) = self.cache.as_deref_mut().filter(|_| hits) {
            tiers.pop_ready(now, out, self.device.store());
        }
        let release = self.release_alarm.fire(now);
        if let Some(watchdog) = self.watchdog.as_deref_mut().filter(|_| release) {
            // The released batch fills the cache like every delivery.
            let start = out.len();
            watchdog.flush(out);
            self.fill(now, &out[start..]);
        }
        if !self.device_alarm.fire(now) {
            return hits || release;
        }
        self.dirty = true;
        let start = out.len();
        self.device.complete_into(now, out);
        if let Some(watchdog) = self.watchdog.as_deref_mut() {
            watchdog.on_live_wakeup(now, out, start);
        }
        self.fill(now, &out[start..]);
        true
    }

    /// Disarms all three alarms (a crash): every armed wake-up goes
    /// stale.
    pub(super) fn disarm(&mut self) {
        self.device_alarm = Alarm::default();
        self.hit_alarm = Alarm::default();
        self.release_alarm = Alarm::default();
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
    pub(crate) fn cancel_query(&mut self, query: QueryId) -> usize {
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
    pub(crate) fn cancel_object(&mut self, query: QueryId, object: ObjectId) -> bool {
        let removed = self.device.cancel_object(query, object);
        if removed {
            self.dirty = true;
        }
        removed
    }

    /// True when a poke would do something: kick a mutated device, or
    /// arm a watchdog release or cache hit whose instant moved. The
    /// fleet's touched set must cover every such pump.
    pub(super) fn needs_poke(&self) -> bool {
        self.dirty
            || self
                .watchdog
                .as_ref()
                .is_some_and(|w| self.release_alarm.moves(w.release_at))
            || self
                .cache
                .as_ref()
                .is_some_and(|c| self.hit_alarm.moves(c.next_ready()))
    }

    /// True when the device is idle with an empty queue and neither
    /// plane holds anything back (no watchdog batch, no pending hit).
    pub(crate) fn is_quiescent(&self) -> bool {
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
    pub(crate) fn into_device(self) -> CsdDevice<P> {
        self.device
    }
}
