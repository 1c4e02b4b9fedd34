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
//! panic); an empty plan expands to nothing and leaves every run
//! byte-identical to a fault-free scenario.

use skipper_sim::rng::derive_seed;
use skipper_sim::{SimDuration, SimTime};

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
    /// `redeliver_after` later by the watchdog.
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

/// The drop-wakeup injections of an expanded plan, per shard in
/// ordinal order: `(shard, nth, redeliver_after)`.
pub(crate) fn drop_plans(episodes: &[FaultEpisode]) -> Vec<(usize, u64, SimDuration)> {
    episodes
        .iter()
        .filter_map(|e| match *e {
            FaultEpisode::DropWakeup {
                shard,
                nth,
                redeliver_after,
            } => Some((shard, nth, redeliver_after)),
            _ => None,
        })
        .collect()
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
        // DropWakeups flatten separately.
        let dropped = FaultPlan::new().drop_wakeup(1, 2).expand(2);
        assert!(timed_actions(&dropped).is_empty());
        assert_eq!(drop_plans(&dropped), vec![(1, 2, DEFAULT_REDELIVERY)]);
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
