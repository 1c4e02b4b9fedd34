//! The deterministic fault plane: seeded shard failures, brown-outs,
//! and lost-wakeup injection.
//!
//! A production cold-storage fleet loses devices. [`FaultPlan`] is the
//! `Scenario`-level description of *when and how*, kept as its four
//! builders were given it and turned **at assembly time** — exactly
//! like [`ArrivalProcess`](super::ArrivalProcess) — into concrete
//! instants. Nothing is drawn during the run: the driver schedules
//! every fault instant as a first-class calendar event up front, so
//! repeated runs see identical fault timings.
//!
//! * [`FaultPlan::shard_down`] — the shard crashes at `at` and
//!   recovers at `until`: its queue is evacuated (re-routed to
//!   surviving replicas or parked), in-flight transfers are aborted
//!   and retried, and the spun-up group is lost (the first load after
//!   recovery pays a full switch, though an array's very first load is
//!   free).
//! * [`FaultPlan::seeded_crashes`] — a seeded stream of such outages.
//! * [`FaultPlan::degraded`] — a brown-out: transfers *dispatched*
//!   inside `[at, until)` run at `bandwidth_factor` × the configured
//!   per-stream bandwidth (in-flight completion instants are already
//!   committed), so schedulers see honest completion times.
//! * [`FaultPlan::drop_wakeup_after`] — the shard's `nth` live wake-up
//!   notification is lost: the device's transfers still complete on
//!   time internally, but their deliveries are parked in the pump until
//!   a watchdog redelivers them `redeliver_after` later.
//!
//! A malformed plan panics loudly at assembly: a shard out of range,
//! an empty interval, a factor outside `(0, 1]`, intervals that overlap
//! on one shard, or a 0th or repeated drop ordinal on one shard.
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
//! of the two deadlines. A dropped wake-up that retired nothing (a
//! switch completion) has nothing to withhold: the drop is used up.

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

/// A seeded crash/repair stream: exponential up-times (mean `mtbf`) and
/// exponential repair times (mean `mttr`) over `[0, horizon)`, drawn
/// at assembly time from a labeled SplitMix64 stream (one label per
/// shard, so adding a stream never perturbs another's draws).
#[derive(Clone, Debug, PartialEq)]
struct CrashStream {
    shard: usize,
    mtbf: SimDuration,
    mttr: SimDuration,
    horizon: SimTime,
    seed: u64,
}

/// The `Scenario`-level fault schedule, as its builders were given it.
/// See the module docs for semantics.
///
/// The default plan is empty and injects nothing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Explicit intervals `(shard, at, until, start flip)`; the flip is
    /// a `Down` or a `Degrade`.
    intervals: Vec<(usize, SimTime, SimTime, FaultAction)>,
    /// Dropped wake-ups `(shard, nth, redeliver_after)`.
    drops: Vec<(usize, u64, SimDuration)>,
    crashes: Vec<CrashStream>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds an explicit outage: `shard` is down over `[at, until)`.
    pub fn shard_down(mut self, shard: usize, at: SimTime, until: SimTime) -> Self {
        self.intervals.push((shard, at, until, FaultAction::Down));
        self
    }

    /// Adds an explicit brown-out: `shard` serves at `bandwidth_factor`
    /// (in `(0, 1]`) × its configured bandwidth over `[at, until)`.
    pub fn degraded(
        mut self,
        shard: usize,
        at: SimTime,
        until: SimTime,
        bandwidth_factor: f64,
    ) -> Self {
        let start = FaultAction::Degrade(bandwidth_factor);
        self.intervals.push((shard, at, until, start));
        self
    }

    /// Drops the shard's `nth` live wake-up (1-based, counted from run
    /// start), redelivered `redeliver_after` later by the watchdog. A
    /// drop that lands while an earlier dropped batch is still parked
    /// joins that batch, which is then released at the later of the two
    /// deadlines; a crash releases a parked batch at once. A drop on a
    /// wake-up that retired nothing (a switch completion) is used up
    /// without a redelivery.
    pub fn drop_wakeup_after(
        mut self,
        shard: usize,
        nth: u64,
        redeliver_after: SimDuration,
    ) -> Self {
        self.drops.push((shard, nth, redeliver_after));
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
        self.crashes.push(CrashStream {
            shard,
            mtbf,
            mttr,
            horizon,
            seed,
        });
        self
    }

    /// The plan's timed flips on a `shards`-wide fleet: every crash
    /// stream drawn to its horizon and every interval checked and
    /// flattened into its start and end flip, ordered by `(instant,
    /// shard, ends-before-starts)` — an interval ending at `t` applies
    /// before an adjacent one starting at `t` on the same shard.
    ///
    /// # Panics
    /// Panics on a shard out of range, an empty interval, a factor
    /// outside `(0, 1]`, or intervals that overlap on one shard.
    pub(crate) fn schedule(&self, shards: usize) -> Vec<TimedFault> {
        let mut intervals = self.intervals.clone();
        for &CrashStream {
            shard,
            mtbf,
            mttr,
            horizon,
            seed,
        } in &self.crashes
        {
            let mut state = derive_seed(seed, &format!("fault-crashes/{shard}"));
            let mut at = SimTime::ZERO + exponential_gap(&mut state, mtbf);
            while at < horizon {
                let until = at + exponential_gap(&mut state, mttr);
                intervals.push((shard, at, until, FaultAction::Down));
                at = until + exponential_gap(&mut state, mtbf);
            }
        }
        let mut out = Vec::with_capacity(2 * intervals.len());
        for (shard, at, until, start) in intervals {
            assert!(
                shard < shards,
                "fault interval targets shard {shard} but the fleet has {shards}"
            );
            assert!(until > at, "fault interval is empty ({at:?} >= {until:?})");
            let end = match start {
                FaultAction::Degrade(f) => {
                    assert!(
                        f > 0.0 && f <= 1.0,
                        "brown-out bandwidth_factor {f} outside (0, 1]"
                    );
                    FaultAction::Restore
                }
                _ => FaultAction::Recover,
            };
            out.push(TimedFault {
                at,
                shard,
                action: start,
            });
            out.push(TimedFault {
                at: until,
                shard,
                action: end,
            });
        }
        out.sort_by_key(|f| (f.at, f.shard, f.action.starts()));
        // A shard's down/degraded state is a toggle: no interval may
        // start on a shard while another one is open there.
        let mut open = Vec::new();
        for f in &out {
            if f.action.starts() {
                assert!(
                    !open.contains(&f.shard),
                    "fault intervals overlap on shard {} at {:?}",
                    f.shard,
                    f.at
                );
                open.push(f.shard);
            } else {
                open.retain(|&s| s != f.shard);
            }
        }
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

impl FaultAction {
    /// True for an interval's start flip.
    fn starts(self) -> bool {
        matches!(self, FaultAction::Down | FaultAction::Degrade(_))
    }
}

/// A concrete `(instant, shard, action)` triple ready for the calendar.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct TimedFault {
    pub at: SimTime,
    pub shard: usize,
    pub action: FaultAction,
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
    /// Installs `plan` (assembly time): keeps its timed crash and
    /// brown-out flips (`FaultPlan::schedule`) for the runtime to arm as
    /// calendar events, and gives each dropped wake-up, in ordinal
    /// order, to its shard's watchdog. A plan with neither installs
    /// nothing.
    ///
    /// # Panics
    /// Panics on a malformed plan (see the module docs).
    pub(crate) fn install_faults(&mut self, plan: &FaultPlan) {
        let shards = self.pumps.len();
        let schedule = plan.schedule(shards);
        if schedule.is_empty() && plan.drops.is_empty() {
            return;
        }
        let mut drops = plan.drops.clone();
        drops.sort_unstable_by_key(|&(shard, nth, _)| (shard, nth));
        for (shard, nth, redeliver_after) in drops {
            assert!(
                shard < shards,
                "dropped wake-up targets shard {shard} but the fleet has {shards}"
            );
            assert!(nth >= 1, "dropped wake-up ordinals are 1-based");
            let watchdog = self.pump_mut(shard).watchdog.get_or_insert_with(|| {
                Box::new(Watchdog {
                    drops: VecDeque::new(),
                    wakeups: 0,
                    parked: Vec::new(),
                    release_at: None,
                })
            });
            assert!(
                watchdog.drops.back().is_none_or(|&(last, _)| last < nth),
                "shard {shard} drops its live wake-up {nth} twice"
            );
            watchdog.drops.push_back((nth, redeliver_after));
        }
        self.faults_mut().schedule = schedule;
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
    pub(crate) fn fail_shard(
        &mut self,
        shard: usize,
        now: SimTime,
        completed: &mut Vec<Delivery<P>>,
    ) {
        let faults = self.faults_mut();
        let since = faults.down_since[shard].replace(now);
        assert!(since.is_none(), "shard {shard} crashed while already down");
        faults.stats[shard].downs += 1;
        let mut displaced = std::mem::take(&mut faults.displaced);
        let aborted = self.pump_mut(shard).fail(now, &mut displaced, completed);
        if let Some(clock) = &mut self.stall_clock {
            // The crash cut the shard's running spans short.
            clock.rederive(now, self.pumps.iter().flat_map(|p| p.device().traces()));
        }
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
    pub(crate) fn recover_shard(&mut self, shard: usize, now: SimTime) {
        let faults = self.faults_mut();
        let Some(since) = faults.down_since[shard].take() else {
            panic!("shard {shard} recovered while up");
        };
        faults.stats[shard].downtime_micros += now.since(since).as_micros();
        self.pump_mut(shard).recover();
        for _ in 0..self.faults_mut().parked.len() {
            let (client, query, obj) = self.faults_mut().parked.pop_front().expect("len checked");
            match self.route(now, obj) {
                Some(live) => self.submit_to(live, now, client, query, obj),
                None => self.faults_mut().parked.push_back((client, query, obj)),
            }
        }
    }

    /// Requests that ever parked for lack of a live replica.
    #[cfg(test)]
    pub(crate) fn parked_total(&self) -> u64 {
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
        self.pump_mut(shard).device.set_bandwidth_factor(factor);
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
    /// Release instant of the parked batch, which the pump's release
    /// alarm follows (see the [`pump`](super::pump) module docs).
    pub(super) release_at: Option<SimTime>,
}

impl<P> Watchdog<P> {
    /// Hands the parked batch to `out`: at its release instant, when
    /// the pump's release alarm fires, or at once on a crash.
    pub(super) fn flush(&mut self, out: &mut Vec<Delivery<P>>) {
        self.release_at = None;
        out.append(&mut self.parked);
    }

    /// Counts a live wake-up whose deliveries are `out[start..]` and,
    /// when it is the next planned drop, parks them instead: the device
    /// completed them on time, only the notification is lost. They fill
    /// the cache when the watchdog *delivers* them. A drop onto a parked
    /// batch joins it and may move the release to its own, later
    /// deadline. A drop on a wake-up that retired nothing is used up: it
    /// parks nothing and moves no release.
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
        if out.len() == start {
            return;
        }
        self.parked.extend(out.drain(start..));
        let at = self
            .release_at
            .map_or(now + delay, |at| at.max(now + delay));
        self.release_at = Some(at);
    }

    /// True when nothing is parked or awaiting release.
    pub(super) fn is_idle(&self) -> bool {
        self.parked.is_empty() && self.release_at.is_none()
    }
}

impl<P: Clone> DevicePump<P> {
    /// Crashes the shard, in the order the module docs give: the
    /// watchdog's parked batch goes to `completed`, the device's
    /// aborted transfers and queue and then the pending cache hits go to
    /// `displaced`. Returns how many of those were in flight (aborted
    /// transfers and hits). All three alarms disarm in one place, so
    /// every armed wake-up goes stale (see the [`pump`](super::pump)
    /// module docs), and the empty pump stays clean — nothing kicks it —
    /// until [`DevicePump::recover`].
    pub(crate) fn fail(
        &mut self,
        now: SimTime,
        displaced: &mut Vec<PendingRequest>,
        completed: &mut Vec<Delivery<P>>,
    ) -> usize {
        self.disarm();
        self.dirty = false;
        if let Some(watchdog) = self.watchdog.as_deref_mut() {
            watchdog.flush(completed);
        }
        let mut aborted = self.device.fail(now, displaced);
        if let Some(tiers) = self.cache.as_deref_mut() {
            aborted += tiers.fail(displaced);
        }
        aborted
    }

    /// Recovers a crashed shard: the pump is kicked again (cold — see
    /// [`DevicePump::fail`] on the lost group).
    pub(crate) fn recover(&mut self) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use skipper_csd::{CsdConfig, CsdDevice, IntraGroupOrder, ObjectStore, SchedPolicy};

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn empty_plan_expands_to_nothing() {
        assert!(FaultPlan::new().schedule(4).is_empty());
    }

    /// A flip at `s` seconds.
    fn flip(s: u64, shard: usize, action: FaultAction) -> TimedFault {
        TimedFault {
            at: secs(s),
            shard,
            action,
        }
    }

    #[test]
    fn explicit_episodes_survive_expansion_sorted() {
        let plan = FaultPlan::new()
            .degraded(1, secs(50), secs(60), 0.5)
            .shard_down(0, secs(10), secs(20))
            .drop_wakeup_after(2, 3, SimDuration::from_secs(1));
        // Drops go to their shard's watchdog, not the schedule.
        assert_eq!(
            plan.schedule(4),
            vec![
                flip(10, 0, FaultAction::Down),
                flip(20, 0, FaultAction::Recover),
                flip(50, 1, FaultAction::Degrade(0.5)),
                flip(60, 1, FaultAction::Restore),
            ]
        );
    }

    #[test]
    fn seeded_crashes_are_deterministic_and_alternating() {
        let crashes = |seed| {
            FaultPlan::new()
                .seeded_crashes(
                    1,
                    SimDuration::from_secs(100),
                    SimDuration::from_secs(10),
                    secs(1000),
                    seed,
                )
                .schedule(2)
        };
        let a = crashes(7);
        assert_eq!(a, crashes(7), "same seed, same flips");
        assert!(!a.is_empty(), "a 1000 s horizon at 100 s MTBF should crash");
        for (i, f) in a.iter().enumerate() {
            let want = [FaultAction::Down, FaultAction::Recover][i % 2];
            assert_eq!((f.shard, f.action), (1, want), "flip {i}");
        }
        assert!(a.windows(2).all(|w| w[0].at < w[1].at));
        // A different seed draws a different schedule.
        assert_ne!(a, crashes(8));
    }

    #[test]
    #[should_panic(expected = "targets shard 3")]
    fn out_of_range_shard_rejected() {
        FaultPlan::new().shard_down(3, secs(1), secs(2)).schedule(2);
    }

    #[test]
    #[should_panic(expected = "interval is empty")]
    fn empty_interval_rejected() {
        FaultPlan::new().shard_down(0, secs(5), secs(5)).schedule(1);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn bad_bandwidth_factor_rejected() {
        FaultPlan::new()
            .degraded(0, secs(1), secs(2), 1.5)
            .schedule(1);
    }

    #[test]
    #[should_panic(expected = "overlap on shard 0")]
    fn overlapping_intervals_rejected() {
        FaultPlan::new()
            .shard_down(0, secs(10), secs(30))
            .degraded(0, secs(20), secs(40), 0.5)
            .schedule(1);
    }

    #[test]
    #[should_panic(expected = "overlap on shard 0")]
    fn overlapping_downtime_windows_on_one_shard_rejected() {
        // Two ShardDown windows on the same shard must not compose
        // silently (a shard cannot crash while already down): the
        // schedule rejects the plan loudly at assembly time, exactly
        // like the down-vs-degraded overlap above.
        FaultPlan::new()
            .shard_down(0, secs(10), secs(100))
            .shard_down(0, secs(50), secs(150))
            .schedule(2);
    }

    #[test]
    fn overlapping_downtime_on_different_shards_composes() {
        // Overlap is only illegal per shard: concurrent outages on
        // different shards are a first-class chaos shape.
        let flips = FaultPlan::new()
            .shard_down(0, secs(10), secs(100))
            .shard_down(1, secs(50), secs(150))
            .schedule(2);
        assert_eq!(flips.len(), 4);
    }

    #[test]
    fn timed_actions_order_recovery_before_adjacent_start() {
        // Adjacent intervals on one shard are fine; the recovery at the
        // shared instant applies first.
        let flips = FaultPlan::new()
            .degraded(0, secs(20), secs(30), 0.5)
            .shard_down(0, secs(10), secs(20))
            .schedule(1);
        assert_eq!(
            flips,
            vec![
                flip(10, 0, FaultAction::Down),
                flip(20, 0, FaultAction::Recover),
                flip(20, 0, FaultAction::Degrade(0.5)),
                flip(30, 0, FaultAction::Restore),
            ]
        );
        // Drops alone schedule nothing.
        let dropped = FaultPlan::new().drop_wakeup_after(1, 2, SimDuration::from_secs(1));
        assert!(dropped.schedule(2).is_empty());
    }

    // -----------------------------------------------------------------
    // Differential test: the plane's schedule and per-shard drop order
    // against a model of the two-stage expansion — episodes drawn,
    // sorted and validated, then flattened into flips and sorted again.

    /// One `FaultPlan` builder call (times in seconds).
    #[derive(Clone, Copy, Debug)]
    enum Call {
        Down(usize, u64, u64),
        Degraded(usize, u64, u64, f64),
        Drop(usize, u64, u64),
        /// `(shard, horizon, seed)` at a 100 s MTBF and a 10 s MTTR.
        Crashes(usize, u64, u64),
    }

    #[derive(Clone, Copy, Debug)]
    enum Episode {
        Down(usize, SimTime, SimTime),
        Degraded(usize, SimTime, SimTime, f64),
        Drop(usize, u64, SimDuration),
    }

    impl Episode {
        fn shard(&self) -> usize {
            match *self {
                Episode::Down(s, ..) | Episode::Degraded(s, ..) | Episode::Drop(s, ..) => s,
            }
        }
    }

    /// What installing a plan leaves behind: the timed flips, each
    /// shard's planned drops in order, and whether any state installed.
    type Installed = (Vec<TimedFault>, Vec<Vec<(u64, SimDuration)>>, bool);

    fn model_expand(calls: &[Call], shards: usize) -> Vec<Episode> {
        let mut out = Vec::new();
        let mut streams = Vec::new();
        for &call in calls {
            match call {
                Call::Down(s, at, until) => out.push(Episode::Down(s, secs(at), secs(until))),
                Call::Degraded(s, at, until, f) => {
                    out.push(Episode::Degraded(s, secs(at), secs(until), f))
                }
                Call::Drop(s, nth, delay) => {
                    out.push(Episode::Drop(s, nth, SimDuration::from_secs(delay)))
                }
                Call::Crashes(s, horizon, seed) => streams.push((s, secs(horizon), seed)),
            }
        }
        let (mtbf, mttr) = (SimDuration::from_secs(100), SimDuration::from_secs(10));
        for (shard, horizon, seed) in streams {
            let mut state = derive_seed(seed, &format!("fault-crashes/{shard}"));
            let mut at = SimTime::ZERO + exponential_gap(&mut state, mtbf);
            while at < horizon {
                let until = at + exponential_gap(&mut state, mttr);
                out.push(Episode::Down(shard, at, until));
                at = until + exponential_gap(&mut state, mtbf);
            }
        }
        out.sort_by_key(|e| {
            let (at, rank, tie) = match *e {
                Episode::Down(_, at, _) => (at, 0u8, 0),
                Episode::Degraded(_, at, ..) => (at, 1, 0),
                Episode::Drop(_, nth, _) => (SimTime::ZERO, 2, nth),
            };
            (at, e.shard(), rank, tie)
        });
        let mut intervals = Vec::new();
        for e in &out {
            assert!(e.shard() < shards, "shard out of range");
            match *e {
                Episode::Down(s, at, until) => {
                    assert!(until > at, "empty interval");
                    intervals.push((s, at, until));
                }
                Episode::Degraded(s, at, until, f) => {
                    assert!(until > at, "empty interval");
                    assert!(f > 0.0 && f <= 1.0, "factor outside (0, 1]");
                    intervals.push((s, at, until));
                }
                Episode::Drop(_, nth, _) => assert!(nth >= 1, "0th drop"),
            }
        }
        intervals.sort_unstable();
        for pair in intervals.windows(2) {
            let ((s0, _, end0), (s1, start1, _)) = (pair[0], pair[1]);
            assert!(s0 != s1 || start1 >= end0, "overlap");
        }
        out
    }

    fn model(calls: &[Call], shards: usize) -> Installed {
        let episodes = model_expand(calls, shards);
        let mut actions = Vec::new();
        let mut drops = vec![Vec::new(); shards];
        for &e in &episodes {
            let (shard, at, until, start, end) = match e {
                Episode::Down(s, at, until) => {
                    (s, at, until, FaultAction::Down, FaultAction::Recover)
                }
                Episode::Degraded(s, at, until, f) => {
                    (s, at, until, FaultAction::Degrade(f), FaultAction::Restore)
                }
                Episode::Drop(s, nth, delay) => {
                    let last = drops[s].last().map_or(0, |&(last, _)| last);
                    assert!(last < nth, "repeated drop ordinal");
                    drops[s].push((nth, delay));
                    continue;
                }
            };
            actions.push(TimedFault {
                at,
                shard,
                action: start,
            });
            actions.push(TimedFault {
                at: until,
                shard,
                action: end,
            });
        }
        actions.sort_by_key(|f| {
            let starts = matches!(f.action, FaultAction::Down | FaultAction::Degrade(_));
            (f.at, f.shard, starts)
        });
        (actions, drops, !episodes.is_empty())
    }

    fn plane(calls: &[Call], shards: usize) -> Installed {
        let plan = calls
            .iter()
            .fold(FaultPlan::new(), |plan, &call| match call {
                Call::Down(s, at, until) => plan.shard_down(s, secs(at), secs(until)),
                Call::Degraded(s, at, until, f) => plan.degraded(s, secs(at), secs(until), f),
                Call::Drop(s, nth, delay) => {
                    plan.drop_wakeup_after(s, nth, SimDuration::from_secs(delay))
                }
                Call::Crashes(s, horizon, seed) => plan.seeded_crashes(
                    s,
                    SimDuration::from_secs(100),
                    SimDuration::from_secs(10),
                    secs(horizon),
                    seed,
                ),
            });
        let actions = plan.schedule(shards);
        let devices = (0..shards)
            .map(|_| {
                CsdDevice::new(
                    CsdConfig::default(),
                    ObjectStore::<()>::new(),
                    SchedPolicy::RankBased.build(),
                    IntraGroupOrder::SemanticRoundRobin,
                )
            })
            .collect();
        let mut fleet = DeviceFleet::new(devices, Default::default());
        fleet.install_faults(&plan);
        if let Some(faults) = fleet.faults.as_deref() {
            assert_eq!(faults.schedule, actions, "install kept another schedule");
        }
        let drops = fleet
            .pumps
            .iter()
            .map(|p| {
                p.watchdog
                    .as_ref()
                    .map_or(Vec::new(), |w| w.drops.iter().copied().collect())
            })
            .collect();
        (actions, drops, fleet.faults.is_some())
    }

    fn draw(state: &mut u64, n: u64) -> u64 {
        skipper_sim::rng::splitmix64(state) % n
    }

    /// A random plan over 1–4 shards on a 10 s grid, so adjacent
    /// intervals and equal instants on different shards are common;
    /// builder calls are shuffled, and one plan in five gets one defect.
    fn random_plan(state: &mut u64) -> (usize, Vec<Call>) {
        let shards = 1 + draw(state, 4) as usize;
        let mut calls = Vec::new();
        for shard in 0..shards {
            // A crash stream gets its shard to itself: its draws would
            // overlap explicit intervals.
            if draw(state, 4) == 0 {
                calls.push(Call::Crashes(
                    shard,
                    100 + draw(state, 900),
                    draw(state, 1 << 32),
                ));
            } else {
                let mut cursor = 10 * draw(state, 3);
                for _ in 0..draw(state, 4) {
                    let until = cursor + 10 * (1 + draw(state, 3));
                    calls.push(if draw(state, 2) == 0 {
                        Call::Down(shard, cursor, until)
                    } else {
                        Call::Degraded(
                            shard,
                            cursor,
                            until,
                            [0.25, 0.5, 1.0][draw(state, 3) as usize],
                        )
                    });
                    cursor = until + 10 * draw(state, 2);
                }
            }
            let mut nth = 0;
            for _ in 0..draw(state, 3) {
                nth += 1 + draw(state, 3);
                calls.push(Call::Drop(shard, nth, 1 + draw(state, 5)));
            }
        }
        for i in (1..calls.len()).rev() {
            calls.swap(i, draw(state, i as u64 + 1) as usize);
        }
        if draw(state, 5) == 0 {
            let s = draw(state, shards as u64) as usize;
            calls.extend(match draw(state, 8) {
                0 => vec![Call::Down(shards, 0, 10)],
                1 => vec![Call::Down(s, 30, 30)],
                2 => vec![Call::Degraded(s, 50, 40, 0.5)],
                3 => vec![Call::Degraded(
                    s,
                    0,
                    10,
                    [0.0, 1.5, -0.5, f64::NAN][draw(state, 4) as usize],
                )],
                4 => vec![Call::Down(s, 5, 5_000)],
                5 => vec![Call::Drop(s, 0, 1)],
                6 => vec![Call::Drop(s, 9, 1), Call::Drop(s, 9, 2)],
                _ => vec![Call::Drop(shards, 1, 1)],
            });
        }
        (shards, calls)
    }

    #[test]
    fn schedule_matches_the_two_stage_expansion_model() {
        let mut state = 40;
        let (mut valid, mut malformed, mut adjacent, mut shared) = (0, 0, 0, 0);
        for i in 0..400 {
            let (shards, calls) = random_plan(&mut state);
            let want = std::panic::catch_unwind(|| model(&calls, shards));
            let got = std::panic::catch_unwind(|| plane(&calls, shards));
            match (got, want) {
                (Ok(got), Ok(want)) => {
                    assert_eq!(got, want, "plan {i} on {shards} shards: {calls:?}");
                    valid += 1;
                    let flips = &got.0;
                    let meets = |a: &TimedFault, b: &TimedFault| a.at == b.at && a.shard == b.shard;
                    adjacent += flips.windows(2).any(|w| meets(&w[0], &w[1])) as u32;
                    shared += flips
                        .windows(2)
                        .any(|w| w[0].at == w[1].at && w[0].shard != w[1].shard)
                        as u32;
                }
                (Err(_), Err(_)) => malformed += 1,
                (got, want) => panic!(
                    "plan {i} on {shards} shards ({calls:?}): plane ok {}, model ok {}",
                    got.is_ok(),
                    want.is_ok()
                ),
            }
        }
        assert!(
            valid >= 250 && malformed >= 40,
            "{valid} valid, {malformed} malformed"
        );
        assert!(
            adjacent >= 20 && shared >= 20,
            "{adjacent} adjacent, {shared} shared"
        );
    }
}
