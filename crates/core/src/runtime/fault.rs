//! The deterministic fault plane: seeded shard failures, brown-outs,
//! and lost-wakeup injection.
//!
//! A production cold-storage fleet loses devices. [`FaultPlan`] is the
//! `Scenario`-level description of *when and how*: explicit episodes
//! plus seeded stochastic outage streams, expanded **at assembly time**
//! — exactly like [`ArrivalProcess`](super::ArrivalProcess) — into a
//! sorted list of concrete, timestamped [`FaultEpisode`]s. Nothing is
//! drawn during the run: the driver schedules every fault instant as a
//! first-class calendar event up front, so repeated runs see identical
//! fault timings.
//!
//! Three episode kinds:
//!
//! * [`FaultEpisode::ShardDown`] — the shard crashes at `at` and
//!   recovers at `until`: its queue is evacuated (re-routed to
//!   surviving replicas or parked), in-flight transfers are aborted
//!   and retried, and the spun-up group is lost (the first load after
//!   recovery pays a full switch even under `initial_load_free`).
//! * [`FaultEpisode::Degraded`] — a brown-out: transfers *dispatched*
//!   inside `[at, until)` run at `bandwidth_factor` × the configured
//!   per-stream bandwidth (in-flight completion instants are already
//!   committed), so schedulers see honest completion times.
//! * [`FaultEpisode::DropWakeup`] — the shard's `nth` live wake-up
//!   notification is lost: the device's transfers still complete on
//!   time internally, but their deliveries are parked in the pump until
//!   a watchdog redelivers them `redeliver_after` later.
//!
//! Intervals on the same shard must not overlap (loud assembly-time
//! panic).
//!
//! # The plane at run time
//!
//! This module also owns the plane's run-time state, in two optional
//! boxes, and every routine that acts on it. `FleetFaults` on the
//! [`DeviceFleet`] holds the timed schedule, the per-shard down flags
//! and counters, and the parking lot; a `Watchdog` sits on each
//! [`DevicePump`] with a planned drop. An empty plan installs neither,
//! and every kernel hook is one null test.
//!
//! A crash ([`DeviceFleet::fail_shard`]) evacuates the shard: the
//! pump's parked batch is flushed to its clients (those transfers
//! finished before the crash), in-flight transfers abort and the queue
//! drains (slot order, then oldest first), pending cache hits follow in
//! ready order, and the empty pump is not kicked again until it
//! recovers, cold. Each displaced request re-routes to the *first live
//! replica* at the tail of its queue — failover is a requeue, not a
//! splice — or, with no replica live, parks at the fleet until a
//! recovery ([`DeviceFleet::recover_shard`]) re-submits it in arrival
//! order. Aborted transfers log nothing, so every query object is
//! served exactly once. A dropped wake-up parks its completed batch
//! (only the notification is lost) until the watchdog releases it; a
//! drop onto a parked batch joins it, and the batch leaves at the later
//! of the two deadlines.

use std::collections::VecDeque;

use skipper_csd::sched::PendingRequest;
use skipper_csd::{Delivery, ObjectId, QueryId};
use skipper_sim::rng::derive_seed;
use skipper_sim::{SimDuration, SimTime};

use super::collector::{AvailabilitySummary, ShardFaultStats};
use super::driver::{Event, Runtime};
use super::fleet::DeviceFleet;
use super::pump::DevicePump;
use super::workload::exponential_gap;

/// A concrete, timestamped fault episode — the expanded form a
/// [`FaultPlan`] produces at assembly time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultEpisode {
    /// Shard `shard` is down over `[at, until)`: queued requests are
    /// evacuated to surviving replicas (or parked until recovery when
    /// none is live), in-flight transfers are aborted and retried.
    ShardDown {
        /// Failing shard index.
        shard: usize,
        /// Crash instant.
        at: SimTime,
        /// Recovery instant (exclusive end of the outage).
        until: SimTime,
    },
    /// Shard `shard` serves at `bandwidth_factor` × its configured
    /// per-stream bandwidth over `[at, until)`.
    Degraded {
        /// Degraded shard index.
        shard: usize,
        /// Brown-out start.
        at: SimTime,
        /// Brown-out end.
        until: SimTime,
        /// Effective-bandwidth multiplier in `(0, 1]`.
        bandwidth_factor: f64,
    },
    /// The shard's `nth` live wake-up notification (1-based, counted
    /// from run start) is lost; its deliveries are redelivered by a
    /// watchdog `redeliver_after` later.
    DropWakeup {
        /// Shard whose wake-up is dropped.
        shard: usize,
        /// 1-based ordinal of the live wake-up to drop.
        nth: u64,
        /// Watchdog redelivery delay.
        redeliver_after: SimDuration,
    },
}

impl FaultEpisode {
    fn shard(&self) -> usize {
        match *self {
            FaultEpisode::ShardDown { shard, .. }
            | FaultEpisode::Degraded { shard, .. }
            | FaultEpisode::DropWakeup { shard, .. } => shard,
        }
    }

    /// The episode's active interval, if it occupies one.
    fn interval(&self) -> Option<(SimTime, SimTime)> {
        match *self {
            FaultEpisode::ShardDown { at, until, .. }
            | FaultEpisode::Degraded { at, until, .. } => Some((at, until)),
            FaultEpisode::DropWakeup { .. } => None,
        }
    }
}

/// A seeded stochastic outage stream, expanded at assembly time from a
/// labeled SplitMix64 stream (one label per shard, so adding a stream
/// never perturbs another's draws).
#[derive(Clone, Debug, PartialEq)]
enum FaultProcess {
    /// Crash/repair cycles: exponential up-times (mean `mtbf`) and
    /// exponential repair times (mean `mttr`) over `[0, horizon)`.
    Crashes {
        shard: usize,
        mtbf: SimDuration,
        mttr: SimDuration,
        horizon: SimTime,
        seed: u64,
    },
    /// Brown-out cycles: exponential healthy periods (mean `mtbf`) and
    /// exponential degraded periods (mean `duration`) at
    /// `bandwidth_factor` over `[0, horizon)`.
    Brownouts {
        shard: usize,
        mtbf: SimDuration,
        duration: SimDuration,
        bandwidth_factor: f64,
        horizon: SimTime,
        seed: u64,
    },
}

/// The `Scenario`-level fault schedule: explicit episodes plus seeded
/// stochastic outage streams. See the module docs for semantics.
///
/// The default plan is empty and injects nothing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    episodes: Vec<FaultEpisode>,
    random: Vec<FaultProcess>,
}

/// Default watchdog redelivery delay for [`FaultPlan::drop_wakeup`].
pub const DEFAULT_REDELIVERY: SimDuration = SimDuration::from_secs(1);

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.episodes.is_empty() && self.random.is_empty()
    }

    /// Adds an explicit outage: `shard` is down over `[at, until)`.
    pub fn shard_down(mut self, shard: usize, at: SimTime, until: SimTime) -> Self {
        self.episodes
            .push(FaultEpisode::ShardDown { shard, at, until });
        self
    }

    /// Adds an explicit brown-out: `shard` serves at `bandwidth_factor`
    /// × its configured bandwidth over `[at, until)`.
    pub fn degraded(
        mut self,
        shard: usize,
        at: SimTime,
        until: SimTime,
        bandwidth_factor: f64,
    ) -> Self {
        self.episodes.push(FaultEpisode::Degraded {
            shard,
            at,
            until,
            bandwidth_factor,
        });
        self
    }

    /// Drops the shard's `nth` live wake-up (1-based), redelivered
    /// after [`DEFAULT_REDELIVERY`].
    pub fn drop_wakeup(self, shard: usize, nth: u64) -> Self {
        self.drop_wakeup_after(shard, nth, DEFAULT_REDELIVERY)
    }

    /// Drops the shard's `nth` live wake-up (1-based), redelivered
    /// `redeliver_after` later by the watchdog. A drop that lands while
    /// an earlier dropped batch is still parked joins that batch, which
    /// is then released at the later of the two deadlines; a crash
    /// releases a parked batch at once.
    pub fn drop_wakeup_after(
        mut self,
        shard: usize,
        nth: u64,
        redeliver_after: SimDuration,
    ) -> Self {
        self.episodes.push(FaultEpisode::DropWakeup {
            shard,
            nth,
            redeliver_after,
        });
        self
    }

    /// Adds a seeded crash/repair stream on `shard`: exponential
    /// up-times (mean `mtbf`) alternating with exponential outages
    /// (mean `mttr`), drawn from the labeled stream
    /// `fault-crashes/{shard}` until `horizon`.
    pub fn seeded_crashes(
        mut self,
        shard: usize,
        mtbf: SimDuration,
        mttr: SimDuration,
        horizon: SimTime,
        seed: u64,
    ) -> Self {
        self.random.push(FaultProcess::Crashes {
            shard,
            mtbf,
            mttr,
            horizon,
            seed,
        });
        self
    }

    /// Adds a seeded brown-out stream on `shard`: exponential healthy
    /// periods (mean `mtbf`) alternating with exponential degraded
    /// episodes (mean `duration`, at `bandwidth_factor`), drawn from
    /// the labeled stream `fault-brownouts/{shard}` until `horizon`.
    pub fn seeded_brownouts(
        mut self,
        shard: usize,
        mtbf: SimDuration,
        duration: SimDuration,
        bandwidth_factor: f64,
        horizon: SimTime,
        seed: u64,
    ) -> Self {
        self.random.push(FaultProcess::Brownouts {
            shard,
            mtbf,
            duration,
            bandwidth_factor,
            horizon,
            seed,
        });
        self
    }

    /// Expands the plan into concrete episodes for a `shards`-wide
    /// fleet, drawing every stochastic stream to completion. The result
    /// is deterministically ordered (by start instant, then shard) and
    /// validated: in-range shards, well-formed intervals, factors in
    /// `(0, 1]`, and no overlapping intervals on the same shard.
    ///
    /// # Panics
    /// Panics with a descriptive message on any malformed episode.
    pub fn expand(&self, shards: usize) -> Vec<FaultEpisode> {
        let mut out = self.episodes.clone();
        for process in &self.random {
            match *process {
                FaultProcess::Crashes {
                    shard,
                    mtbf,
                    mttr,
                    horizon,
                    seed,
                } => {
                    let mut state = derive_seed(seed, &format!("fault-crashes/{shard}"));
                    let mut at = SimTime::ZERO + exponential_gap(&mut state, mtbf);
                    while at < horizon {
                        let until = at + exponential_gap(&mut state, mttr);
                        out.push(FaultEpisode::ShardDown { shard, at, until });
                        at = until + exponential_gap(&mut state, mtbf);
                    }
                }
                FaultProcess::Brownouts {
                    shard,
                    mtbf,
                    duration,
                    bandwidth_factor,
                    horizon,
                    seed,
                } => {
                    let mut state = derive_seed(seed, &format!("fault-brownouts/{shard}"));
                    let mut at = SimTime::ZERO + exponential_gap(&mut state, mtbf);
                    while at < horizon {
                        let until = at + exponential_gap(&mut state, duration);
                        out.push(FaultEpisode::Degraded {
                            shard,
                            at,
                            until,
                            bandwidth_factor,
                        });
                        at = until + exponential_gap(&mut state, mtbf);
                    }
                }
            }
        }
        // Deterministic order: start instant, then shard, then a stable
        // kind rank (DropWakeup episodes sort by ordinal at time zero).
        out.sort_by_key(|e| {
            let (at, rank, tie) = match *e {
                FaultEpisode::ShardDown { at, .. } => (at, 0u8, 0),
                FaultEpisode::Degraded { at, .. } => (at, 1, 0),
                FaultEpisode::DropWakeup { nth, .. } => (SimTime::ZERO, 2, nth),
            };
            (at, e.shard(), rank, tie)
        });
        validate(&out, shards);
        out
    }
}

/// One shard-state flip the driver schedules as a calendar event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum FaultAction {
    /// The shard crashes: evacuate its queue, abort in-flight transfers.
    Down,
    /// The shard comes back (cold: the first load pays a full switch).
    Recover,
    /// Effective per-stream bandwidth drops to the carried factor.
    Degrade(f64),
    /// Bandwidth returns to the configured nominal.
    Restore,
}

/// A concrete `(instant, shard, action)` triple ready for the calendar.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct TimedFault {
    pub at: SimTime,
    pub shard: usize,
    pub action: FaultAction,
}

/// Flattens expanded episodes into calendar-ready actions, ordered by
/// `(instant, shard, ends-before-starts)` — an interval ending at `t`
/// applies before an adjacent one starting at `t` on the same shard,
/// matching the disjoint-interval validation.
pub(crate) fn timed_actions(episodes: &[FaultEpisode]) -> Vec<TimedFault> {
    let mut out = Vec::new();
    for e in episodes {
        match *e {
            FaultEpisode::ShardDown { shard, at, until } => {
                out.push(TimedFault {
                    at,
                    shard,
                    action: FaultAction::Down,
                });
                out.push(TimedFault {
                    at: until,
                    shard,
                    action: FaultAction::Recover,
                });
            }
            FaultEpisode::Degraded {
                shard,
                at,
                until,
                bandwidth_factor,
            } => {
                out.push(TimedFault {
                    at,
                    shard,
                    action: FaultAction::Degrade(bandwidth_factor),
                });
                out.push(TimedFault {
                    at: until,
                    shard,
                    action: FaultAction::Restore,
                });
            }
            FaultEpisode::DropWakeup { .. } => {}
        }
    }
    out.sort_by_key(|f| {
        let rank = match f.action {
            FaultAction::Recover | FaultAction::Restore => 0u8,
            FaultAction::Down | FaultAction::Degrade(_) => 1,
        };
        (f.at, f.shard, rank)
    });
    out
}

/// The fleet's fault-plane state (see the module docs).
pub(crate) struct FleetFaults {
    /// The timed crash/brown-out actions, in firing order:
    /// `Event::Fault(i)` applies entry `i`.
    schedule: Vec<TimedFault>,
    /// Crash instant of each down shard, `None` while it is up — the
    /// only record of which shards are down (and of their downtime).
    down_since: Vec<Option<SimTime>>,
    /// Per-shard fault counters for the run result.
    stats: Vec<ShardFaultStats>,
    /// Requests with no live replica, awaiting a recovery, in arrival
    /// order: `(client, query, object)`.
    parked: VecDeque<(usize, QueryId, ObjectId)>,
    /// Requests ever parked (availability summary).
    parked_total: u64,
    /// Reusable evacuation scratch for `fail_shard`.
    displaced: Vec<PendingRequest>,
}

impl FleetFaults {
    /// Counts a request `shard` serves in place of its preferred
    /// replica (down, or skipped by an open breaker).
    pub(super) fn note_failover(&mut self, shard: usize) {
        self.stats[shard].failover_receipts += 1;
    }

    /// Parks a request until a recovery gives it a live replica.
    pub(super) fn park(&mut self, client: usize, query: QueryId, object: ObjectId) {
        self.parked_total += 1;
        self.parked.push_back((client, query, object));
    }

    /// Forgets every parked request of a cancelled `query`.
    pub(super) fn cancel(&mut self, query: QueryId) {
        self.parked.retain(|&(_, q, _)| q != query);
    }

    /// True when nothing is parked.
    pub(super) fn is_idle(&self) -> bool {
        self.parked.is_empty()
    }
}

impl<P: Clone> DeviceFleet<P> {
    /// Installs `plan` (assembly time): expands it — seeded streams and
    /// all — into timestamped episodes, gives every shard with a
    /// dropped wake-up its watchdog, and keeps the timed crash and
    /// brown-out actions for the runtime to arm as calendar events. A
    /// plan that expands to nothing installs nothing.
    ///
    /// # Panics
    /// Panics on a malformed plan (see [`FaultPlan::expand`]).
    pub(crate) fn install_faults(&mut self, plan: &FaultPlan) {
        let episodes = plan.expand(self.pumps.len());
        if episodes.is_empty() {
            return;
        }
        for e in &episodes {
            let FaultEpisode::DropWakeup {
                shard,
                nth,
                redeliver_after,
            } = *e
            else {
                continue;
            };
            let watchdog = self.pumps[shard].watchdog.get_or_insert_with(|| {
                Box::new(Watchdog {
                    drops: VecDeque::new(),
                    wakeups: 0,
                    parked: Vec::new(),
                    release_at: None,
                    armed: false,
                })
            });
            assert!(
                watchdog.drops.back().is_none_or(|&(last, _)| last < nth),
                "DropWakeup ordinals on one shard must be distinct"
            );
            watchdog.drops.push_back((nth, redeliver_after));
        }
        self.faults_mut().schedule = timed_actions(&episodes);
    }

    /// The fault plane's state, installed on first use (a direct
    /// `fail_shard`, or a breaker's first failover receipt).
    pub(super) fn faults_mut(&mut self) -> &mut FleetFaults {
        let shards = self.pumps.len();
        self.faults.get_or_insert_with(|| {
            Box::new(FleetFaults {
                schedule: Vec::new(),
                down_since: vec![None; shards],
                stats: vec![ShardFaultStats::default(); shards],
                parked: VecDeque::new(),
                parked_total: 0,
                displaced: Vec::new(),
            })
        })
    }

    /// True while `shard` is down.
    pub(super) fn is_down(&self, shard: usize) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.down_since[shard].is_some())
    }

    /// Crashes shard `shard` (a `ShardDown` start): aborts its in-flight
    /// transfers, evacuates its queue, and re-routes every displaced
    /// request to the first live replica (or parks it). Transfers that
    /// completed but whose wake-up notification was dropped are flushed
    /// into `completed` — the driver routes them like any retired batch
    /// (the data already arrived).
    pub fn fail_shard(&mut self, shard: usize, now: SimTime, completed: &mut Vec<Delivery<P>>) {
        let faults = self.faults_mut();
        let since = faults.down_since[shard].replace(now);
        assert!(since.is_none(), "shard {shard} crashed while already down");
        faults.stats[shard].downs += 1;
        let mut displaced = std::mem::take(&mut faults.displaced);
        let aborted = self.pumps[shard].fail(now, &mut displaced, completed);
        let stats = &mut self.faults_mut().stats[shard];
        stats.aborted_transfers += aborted as u64;
        stats.evacuated_requests += (displaced.len() - aborted) as u64;
        // Re-route in evacuation order. Each re-submission is a fresh
        // single-object batch — a requeue at the destination's tail.
        for req in displaced.drain(..) {
            match self.route(now, req.object) {
                Some(live) => self.submit_to(live, now, req.client, req.query, req.object),
                None => self.park_or_defer(req.client, req.query, req.object),
            }
        }
        self.faults_mut().displaced = displaced;
    }

    /// Recovers shard `shard` (a `ShardDown` end): accrues its
    /// downtime, reopens it for routing, and re-submits every parked
    /// request that now has a live replica, in arrival order.
    pub fn recover_shard(&mut self, shard: usize, now: SimTime) {
        let faults = self.faults_mut();
        let Some(since) = faults.down_since[shard].take() else {
            panic!("shard {shard} recovered while up");
        };
        faults.stats[shard].downtime_micros += now.since(since).as_micros();
        self.pumps[shard].recover();
        for _ in 0..self.faults_mut().parked.len() {
            let (client, query, obj) = self.faults_mut().parked.pop_front().expect("len checked");
            match self.route(now, obj) {
                Some(live) => self.submit_to(live, now, client, query, obj),
                None => self.faults_mut().parked.push_back((client, query, obj)),
            }
        }
    }

    /// Requests that ever parked for lack of a live replica.
    pub fn parked_total(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.parked_total)
    }

    /// Applies one timed action at `now`; a crash's flushed watchdog
    /// batch lands in `completed`.
    fn apply(&mut self, fault: TimedFault, now: SimTime, completed: &mut Vec<Delivery<P>>) {
        let shard = fault.shard;
        let factor = match fault.action {
            FaultAction::Down => return self.fail_shard(shard, now, completed),
            FaultAction::Recover => return self.recover_shard(shard, now),
            FaultAction::Degrade(factor) => factor,
            FaultAction::Restore => 1.0,
        };
        // Only transfers dispatched from now on see the factor. With a
        // breaker installed, a factor below its `brownout_below`
        // threshold opens the shard's breaker until service returns.
        self.pumps[shard].device.set_bandwidth_factor(factor);
        if let Some(b) = &mut self.breaker {
            b.set_bandwidth_factor(shard, factor);
        }
    }

    /// Closes the run at `end`: per-shard fault counters, in shard
    /// order (outages still open accrue downtime up to `end`), and the
    /// fleet's availability summary.
    pub(crate) fn fault_summary(
        &self,
        end: SimTime,
    ) -> (Vec<ShardFaultStats>, AvailabilitySummary) {
        let (stats, actions, parked) = match self.faults.as_deref() {
            Some(f) => {
                let mut stats = f.stats.clone();
                for (stats, since) in stats.iter_mut().zip(&f.down_since) {
                    if let Some(since) = *since {
                        stats.downtime_micros += end.since(since).as_micros();
                    }
                }
                (stats, f.schedule.len(), f.parked_total)
            }
            None => (vec![ShardFaultStats::default(); self.pumps.len()], 0, 0),
        };
        let summary = AvailabilitySummary::from_shards(&stats, actions as u64, parked, end);
        (stats, summary)
    }
}

/// A pump's dropped-wake-up watchdog (see the module docs).
pub(crate) struct Watchdog<P> {
    /// Remaining drop injections, in ordinal order:
    /// `(nth live wake-up, redelivery delay)`.
    drops: VecDeque<(u64, SimDuration)>,
    /// Live wake-ups handled so far (drop-ordinal matching).
    wakeups: u64,
    /// Deliveries withheld by dropped wake-ups, awaiting release.
    parked: Vec<Delivery<P>>,
    /// Release instant of the parked batch.
    release_at: Option<SimTime>,
    /// Whether the wake-up for `release_at` has been handed out.
    armed: bool,
}

impl<P> Watchdog<P> {
    /// Releases the parked batch into `out` when `now` is its release
    /// instant; false for a superseded or flushed watchdog event.
    pub(super) fn release(&mut self, now: SimTime, out: &mut Vec<Delivery<P>>) -> bool {
        if self.release_at != Some(now) {
            return false;
        }
        self.flush(out);
        true
    }

    /// Hands the parked batch to `out` at once; an armed release goes
    /// stale.
    fn flush(&mut self, out: &mut Vec<Delivery<P>>) {
        self.release_at = None;
        self.armed = false;
        out.append(&mut self.parked);
    }

    /// Counts a live wake-up whose deliveries are `out[start..]` and,
    /// when it is the next planned drop, parks them instead: the device
    /// completed them on time, only the notification is lost. They fill
    /// the cache when the watchdog *delivers* them. A drop onto a parked
    /// batch joins it; the wake-up re-arms only when the release
    /// instant moves.
    pub(super) fn on_live_wakeup(
        &mut self,
        now: SimTime,
        out: &mut Vec<Delivery<P>>,
        start: usize,
    ) {
        self.wakeups += 1;
        if self
            .drops
            .front()
            .is_none_or(|&(nth, _)| nth != self.wakeups)
        {
            return;
        }
        let (_, delay) = self.drops.pop_front().expect("front checked");
        self.parked.extend(out.drain(start..));
        let at = self
            .release_at
            .map_or(now + delay, |at| at.max(now + delay));
        if self.release_at != Some(at) {
            self.release_at = Some(at);
            self.armed = false;
        }
    }

    /// The release instant to schedule, handed out once per move.
    fn take_arm(&mut self) -> Option<SimTime> {
        match self.release_at {
            Some(at) if !self.armed => {
                self.armed = true;
                Some(at)
            }
            _ => None,
        }
    }

    /// True when nothing is parked or awaiting release.
    pub(super) fn is_idle(&self) -> bool {
        self.parked.is_empty() && self.release_at.is_none()
    }
}

impl<P: Clone> DevicePump<P> {
    /// The watchdog release to schedule, handed out once per parked
    /// batch (the fleet polls this on every poke pass, alongside the
    /// device wake-up from [`DevicePump::poke`]).
    pub fn take_redelivery_arm(&mut self) -> Option<SimTime> {
        self.watchdog.as_deref_mut()?.take_arm()
    }

    /// Crashes the shard, in the order the module docs give: the
    /// watchdog's parked batch goes to `completed`, the device's
    /// aborted transfers and queue and then the pending cache hits go to
    /// `displaced`. Returns how many of those were in flight (aborted
    /// transfers and hits). Every armed wake-up goes stale, and the
    /// empty pump stays clean — nothing kicks it — until
    /// [`DevicePump::recover`].
    pub fn fail(
        &mut self,
        now: SimTime,
        displaced: &mut Vec<PendingRequest>,
        completed: &mut Vec<Delivery<P>>,
    ) -> usize {
        self.armed_at = None;
        self.dirty = false;
        if let Some(watchdog) = self.watchdog.as_deref_mut() {
            watchdog.flush(completed);
        }
        let mut aborted = self.device.fail(now, displaced);
        if let Some(tiers) = self.cache.as_deref_mut() {
            aborted += tiers.fail(now, displaced, self.device.store());
        }
        aborted
    }

    /// Recovers a crashed shard: the pump is kicked again (cold — see
    /// [`DevicePump::fail`] on the lost group).
    pub fn recover(&mut self) {
        self.dirty = true;
    }
}

impl Runtime {
    /// Arms every timed fault action as a calendar event (run start,
    /// ahead of the releases: at equal instants a crash or recovery
    /// applies before a release routes its query).
    pub(super) fn arm_faults(&mut self) {
        let Some(faults) = self.fleet.faults.as_deref() else {
            return;
        };
        for (i, f) in faults.schedule.iter().enumerate() {
            self.events.schedule(f.at, Event::Fault(i));
        }
    }

    /// The `i`-th timed fault action fires: apply it, route a crash's
    /// flushed watchdog batch like any retired batch, and hand a retry
    /// tenant's displaced requests with no live replica to the
    /// protection plane.
    pub(super) fn fault_fired(&mut self, i: usize, now: SimTime) {
        let faults = self.fleet.faults.as_deref();
        let fault = faults.expect("fault event without a fault plan").schedule[i];
        self.route_batch(fault.shard, now, |fleet, completed| {
            fleet.apply(fault, now, completed)
        });
        if self.protection.is_some() {
            self.drain_unroutable(now, 1);
        }
        self.poke_fleet(now);
    }
}

fn validate(episodes: &[FaultEpisode], shards: usize) {
    let mut intervals: Vec<(usize, SimTime, SimTime)> = Vec::new();
    for e in episodes {
        assert!(
            e.shard() < shards,
            "fault episode targets shard {} but the fleet has {shards}",
            e.shard()
        );
        match *e {
            FaultEpisode::ShardDown { at, until, .. } => {
                assert!(
                    until > at,
                    "ShardDown interval is empty ({at:?} >= {until:?})"
                );
            }
            FaultEpisode::Degraded {
                at,
                until,
                bandwidth_factor,
                ..
            } => {
                assert!(
                    until > at,
                    "Degraded interval is empty ({at:?} >= {until:?})"
                );
                assert!(
                    bandwidth_factor > 0.0 && bandwidth_factor <= 1.0,
                    "Degraded bandwidth_factor {bandwidth_factor} outside (0, 1]"
                );
            }
            FaultEpisode::DropWakeup { nth, .. } => {
                assert!(nth >= 1, "DropWakeup ordinals are 1-based");
            }
        }
        if let Some((at, until)) = e.interval() {
            intervals.push((e.shard(), at, until));
        }
    }
    // Intervals on the same shard must be pairwise disjoint: the
    // fleet's down/degraded state machine is a simple toggle per shard.
    intervals.sort_unstable();
    for pair in intervals.windows(2) {
        let (s0, _, end0) = pair[0];
        let (s1, start1, _) = pair[1];
        assert!(
            s0 != s1 || start1 >= end0,
            "fault episodes overlap on shard {s0} ({end0:?} > {start1:?})"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn empty_plan_expands_to_nothing() {
        assert!(FaultPlan::new().is_empty());
        assert!(FaultPlan::new().expand(4).is_empty());
    }

    #[test]
    fn explicit_episodes_survive_expansion_sorted() {
        let plan = FaultPlan::new()
            .degraded(1, secs(50), secs(60), 0.5)
            .shard_down(0, secs(10), secs(20))
            .drop_wakeup(2, 3);
        let episodes = plan.expand(4);
        assert_eq!(
            episodes,
            vec![
                FaultEpisode::DropWakeup {
                    shard: 2,
                    nth: 3,
                    redeliver_after: DEFAULT_REDELIVERY,
                },
                FaultEpisode::ShardDown {
                    shard: 0,
                    at: secs(10),
                    until: secs(20),
                },
                FaultEpisode::Degraded {
                    shard: 1,
                    at: secs(50),
                    until: secs(60),
                    bandwidth_factor: 0.5,
                },
            ]
        );
    }

    #[test]
    fn seeded_crashes_are_deterministic_and_alternating() {
        let plan = FaultPlan::new().seeded_crashes(
            1,
            SimDuration::from_secs(100),
            SimDuration::from_secs(10),
            secs(1000),
            7,
        );
        let a = plan.expand(2);
        let b = plan.expand(2);
        assert_eq!(a, b, "same seed, same episodes");
        assert!(!a.is_empty(), "a 1000 s horizon at 100 s MTBF should crash");
        let mut last_end = SimTime::ZERO;
        for e in &a {
            let FaultEpisode::ShardDown { shard, at, until } = *e else {
                panic!("crash stream produced {e:?}");
            };
            assert_eq!(shard, 1);
            assert!(at >= last_end && until > at);
            last_end = until;
        }
        // A different seed draws a different schedule.
        let other = FaultPlan::new()
            .seeded_crashes(
                1,
                SimDuration::from_secs(100),
                SimDuration::from_secs(10),
                secs(1000),
                8,
            )
            .expand(2);
        assert_ne!(a, other);
    }

    #[test]
    fn seeded_brownouts_carry_the_factor() {
        let episodes = FaultPlan::new()
            .seeded_brownouts(
                0,
                SimDuration::from_secs(200),
                SimDuration::from_secs(20),
                0.25,
                secs(2000),
                9,
            )
            .expand(1);
        assert!(!episodes.is_empty());
        for e in &episodes {
            let FaultEpisode::Degraded {
                bandwidth_factor, ..
            } = *e
            else {
                panic!("brownout stream produced {e:?}");
            };
            assert_eq!(bandwidth_factor, 0.25);
        }
    }

    #[test]
    #[should_panic(expected = "targets shard 3")]
    fn out_of_range_shard_rejected() {
        FaultPlan::new().shard_down(3, secs(1), secs(2)).expand(2);
    }

    #[test]
    #[should_panic(expected = "interval is empty")]
    fn empty_interval_rejected() {
        FaultPlan::new().shard_down(0, secs(5), secs(5)).expand(1);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn bad_bandwidth_factor_rejected() {
        FaultPlan::new()
            .degraded(0, secs(1), secs(2), 1.5)
            .expand(1);
    }

    #[test]
    #[should_panic(expected = "overlap on shard 0")]
    fn overlapping_intervals_rejected() {
        FaultPlan::new()
            .shard_down(0, secs(10), secs(30))
            .degraded(0, secs(20), secs(40), 0.5)
            .expand(1);
    }

    #[test]
    #[should_panic(expected = "overlap on shard 0")]
    fn overlapping_downtime_windows_on_one_shard_rejected() {
        // Two ShardDown windows on the same shard must not compose
        // silently (a shard cannot crash while already down): validation
        // rejects the plan loudly at assembly time, exactly like the
        // down-vs-degraded overlap above.
        FaultPlan::new()
            .shard_down(0, secs(10), secs(100))
            .shard_down(0, secs(50), secs(150))
            .expand(2);
    }

    #[test]
    fn overlapping_downtime_on_different_shards_composes() {
        // Overlap is only illegal per shard: concurrent outages on
        // different shards are a first-class chaos shape.
        let episodes = FaultPlan::new()
            .shard_down(0, secs(10), secs(100))
            .shard_down(1, secs(50), secs(150))
            .expand(2);
        assert_eq!(episodes.len(), 2);
    }

    #[test]
    fn timed_actions_order_recovery_before_adjacent_start() {
        let episodes = FaultPlan::new()
            .shard_down(0, secs(10), secs(20))
            .degraded(0, secs(20), secs(30), 0.5)
            .expand(1);
        let actions = timed_actions(&episodes);
        assert_eq!(actions.len(), 4);
        assert_eq!(
            (actions[1].at, actions[1].action),
            (secs(20), FaultAction::Recover)
        );
        assert_eq!(
            (actions[2].at, actions[2].action),
            (secs(20), FaultAction::Degrade(0.5))
        );
        // DropWakeups flatten separately (into their shard's watchdog).
        let dropped = FaultPlan::new().drop_wakeup(1, 2).expand(2);
        assert!(timed_actions(&dropped).is_empty());
        assert_eq!(
            dropped,
            vec![FaultEpisode::DropWakeup {
                shard: 1,
                nth: 2,
                redeliver_after: DEFAULT_REDELIVERY
            }]
        );
    }

    #[test]
    fn adjacent_intervals_are_fine() {
        let episodes = FaultPlan::new()
            .shard_down(0, secs(10), secs(20))
            .degraded(0, secs(20), secs(30), 0.5)
            .expand(1);
        assert_eq!(episodes.len(), 2);
    }
}
