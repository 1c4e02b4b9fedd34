//! The workload layer: what each tenant runs and when.
//!
//! A [`Workload`] describes one tenant end to end — its dataset, its
//! query sequence, which engine executes it (via a per-tenant
//! [`EngineFactory`]), and the *arrival process* releasing its queries
//! onto the device:
//!
//! * [`ArrivalProcess::Closed`] — the paper's closed loop: the next
//!   query is submitted the instant the previous one completes.
//! * A start offset ([`Workload::start_at`]) — staggered fleets, the
//!   arrival-gap setup of the §4.4 `K` derivation.
//! * [`ArrivalProcess::Poisson`] — fixed-seed open arrivals: query `k`
//!   is released at the `k`-th event of a Poisson process; a release
//!   while the tenant is still busy queues behind the running query.
//! * [`ArrivalProcess::OnOff`] — bursty MMPP-style traffic: Poisson
//!   arrivals during exponentially-distributed ON phases, silence
//!   during OFF phases (flash crowds, batch submission fronts).
//! * [`ArrivalProcess::Diurnal`] — a sinusoidal rate modulation over a
//!   Poisson base via Lewis–Shedler thinning (day/night cycles).
//! * [`ArrivalProcess::TraceReplay`] — explicit release instants
//!   replayed from a recorded trace.
//!
//! All randomness is sampled at scenario-assembly time from a seed
//! (expansion happens in [`ArrivalProcess::release_times`] before the
//! event loop starts), so runs stay bit-for-bit reproducible.

use std::sync::Arc;

use skipper_datagen::Dataset;
use skipper_relational::query::QuerySpec;
use skipper_sim::rng::{derive_seed, splitmix64};
use skipper_sim::{SimDuration, SimTime};

use super::engines::{EngineFactory, SkipperFactory};
use super::protect::RetryPolicy;

/// How a tenant's queries are released over time.
///
/// Every stochastic shape expands deterministically from a seeded
/// SplitMix64 stream at assembly time: a fixed seed fixes the release
/// instants forever, independent of shard layout.
#[derive(Clone, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Closed loop: each query starts when the previous finishes (the
    /// first at the workload's start offset).
    Closed,
    /// Open arrivals: queries are released at the events of a Poisson
    /// process with the given mean inter-arrival time, sampled
    /// deterministically from `seed`. Releases that land while the
    /// tenant is busy queue up and run back-to-back.
    Poisson {
        /// Mean inter-arrival gap (1/λ).
        mean: SimDuration,
        /// Stream seed; fixed seed ⇒ fixed arrival times, forever.
        seed: u64,
    },
    /// Bursty ON/OFF traffic (a two-state MMPP): during an ON phase
    /// queries arrive as a Poisson process at mean gap `on_mean`;
    /// during an OFF phase nothing arrives. Phase lengths are
    /// exponential with means `on_duration` / `off_duration`, so the
    /// process is Markov-modulated and burst shapes vary across the
    /// run while staying seed-deterministic.
    OnOff {
        /// Mean inter-arrival gap while the source is ON.
        on_mean: SimDuration,
        /// Mean length of an ON phase.
        on_duration: SimDuration,
        /// Mean length of an OFF phase (silence).
        off_duration: SimDuration,
        /// Stream seed for gaps and phase boundaries alike.
        seed: u64,
    },
    /// Diurnal traffic: a non-homogeneous Poisson process whose rate
    /// follows a raised cosine over `period` — peak rate `1/peak_mean`
    /// at the start of each period, dipping to `trough` × peak at
    /// half-period. Sampled by Lewis–Shedler thinning of a homogeneous
    /// peak-rate process, so the expansion stays a pure function of
    /// `seed`.
    Diurnal {
        /// Mean inter-arrival gap at the peak of the cycle (1/λ_max).
        peak_mean: SimDuration,
        /// Length of one full day/night cycle.
        period: SimDuration,
        /// Trough rate as a fraction of peak, in [0, 1]. 1.0 collapses
        /// to plain Poisson; 0.0 goes fully silent at half-period.
        trough: f64,
        /// Stream seed.
        seed: u64,
    },
    /// Replays explicit release instants from a recorded trace. Each
    /// instant is offset by the workload's start; instants are sorted
    /// before use. The trace must contain at least as many instants as
    /// the workload has queries (checked at expansion time).
    TraceReplay(Vec<SimTime>),
}

impl ArrivalProcess {
    /// Expands the process into one release instant per query (`None`
    /// = closed-loop: start when the predecessor finishes).
    ///
    /// `tenant` salts the stochastic streams so identical workloads on
    /// different tenants do not share arrival times; `start` offsets
    /// the whole schedule (staggered fleets).
    pub fn release_times(
        &self,
        queries: usize,
        tenant: usize,
        start: SimDuration,
    ) -> Vec<Option<SimTime>> {
        match self {
            ArrivalProcess::Closed => {
                let mut out = vec![None; queries];
                if let (Some(first), false) = (out.first_mut(), start.is_zero()) {
                    *first = Some(SimTime::ZERO + start);
                }
                out
            }
            ArrivalProcess::Poisson { mean, seed } => {
                let mut state = derive_seed(*seed, &format!("poisson-arrivals/{tenant}"));
                let mut at = SimTime::ZERO + start;
                (0..queries)
                    .map(|_| {
                        at += exponential_gap(&mut state, *mean);
                        Some(at)
                    })
                    .collect()
            }
            ArrivalProcess::OnOff {
                on_mean,
                on_duration,
                off_duration,
                seed,
            } => {
                let mut state = derive_seed(*seed, &format!("onoff-arrivals/{tenant}"));
                let mut at = SimTime::ZERO + start;
                // Phase boundary relative to `at`; the source starts ON.
                let mut phase_left = exponential_gap(&mut state, *on_duration);
                (0..queries)
                    .map(|_| {
                        let mut gap = exponential_gap(&mut state, *on_mean);
                        // Burn whole OFF phases until the gap lands
                        // inside an ON phase. The exponential gap is
                        // memoryless, so redrawing it after a phase
                        // switch preserves the MMPP law.
                        while gap >= phase_left {
                            at += phase_left;
                            at += exponential_gap(&mut state, *off_duration);
                            phase_left = exponential_gap(&mut state, *on_duration);
                            gap = exponential_gap(&mut state, *on_mean);
                        }
                        at += gap;
                        phase_left -= gap;
                        Some(at)
                    })
                    .collect()
            }
            ArrivalProcess::Diurnal {
                peak_mean,
                period,
                trough,
                seed,
            } => {
                assert!(!period.is_zero(), "Diurnal arrivals need a non-zero period");
                assert!(
                    (0.0..=1.0).contains(trough),
                    "Diurnal trough must be in [0, 1] (got {trough})"
                );
                let mut state = derive_seed(*seed, &format!("diurnal-arrivals/{tenant}"));
                let origin = SimTime::ZERO + start;
                let mut at = origin;
                let period_secs = period.as_secs_f64();
                (0..queries)
                    .map(|_| {
                        // Lewis–Shedler: candidate events at the peak
                        // rate, accepted with probability λ(t)/λ_max.
                        // λ(t)/λ_max = trough + (1−trough)·½(1+cos(2πt/T)):
                        // 1 at t = 0, `trough` at t = T/2.
                        loop {
                            at += exponential_gap(&mut state, *peak_mean);
                            let t = at.saturating_since(origin).as_secs_f64();
                            let phase = 2.0 * std::f64::consts::PI * (t / period_secs);
                            let accept = trough + (1.0 - trough) * 0.5 * (1.0 + phase.cos());
                            if uniform_unit(&mut state) < accept {
                                return Some(at);
                            }
                        }
                    })
                    .collect()
            }
            ArrivalProcess::TraceReplay(instants) => {
                assert!(
                    instants.len() >= queries,
                    "TraceReplay has {} instants for {} queries",
                    instants.len(),
                    queries
                );
                let mut sorted = instants.clone();
                sorted.sort();
                sorted
                    .into_iter()
                    .take(queries)
                    .map(|t| Some(t + start))
                    .collect()
            }
        }
    }
}

/// One tenant: dataset + query mix + engine + arrival process.
#[derive(Clone)]
pub struct Workload {
    /// The tenant's dataset (its private copy on the device).
    pub dataset: Arc<Dataset>,
    /// The query sequence.
    pub queries: Vec<QuerySpec>,
    /// Engine builder for this tenant.
    pub engine: Arc<dyn EngineFactory>,
    /// Query release process.
    pub arrival: ArrivalProcess,
    /// Offset of the tenant's first release (staggered starts).
    pub start: SimDuration,
    /// Response-time SLO target for this tenant's queries, if any;
    /// feeds the per-tenant attainment counters in the run's
    /// [`LatencySummary`](super::collector::LatencySummary).
    pub slo: Option<SimDuration>,
    /// Ideal (single-tenant) execution time of this tenant's queries,
    /// if known; enables streaming stretch quantiles in the run's
    /// latency summary.
    pub ideal: Option<SimDuration>,
    /// Response-time deadline: a query not finished this long after its
    /// release (queue-wait included) is cancelled and counted as a
    /// miss. `None` (default) disables cancellation for this tenant.
    pub deadline: Option<SimDuration>,
    /// Re-submission policy for this tenant's cancelled or
    /// replica-less requests. [`RetryPolicy::None`] (default) keeps the
    /// historical park-until-recovery behavior byte-identical.
    pub retry: RetryPolicy,
    /// Hedge delay: this long after submission, still-undelivered reads
    /// are re-issued to the next live replica (first completion wins).
    /// `None` (default) disables hedging. Only meaningful under
    /// replicated placement.
    pub hedge: Option<SimDuration>,
    /// Admission priority (0 = lowest): under admission control, a
    /// tenant of priority `p` is admitted until `limit × (p + 1)`, so
    /// saturation sheds the lowest-priority arrivals first.
    pub priority: u32,
}

impl Workload {
    /// A workload over `dataset` with paper defaults: Skipper engine
    /// (30 GiB cache), closed-loop arrivals, start at t = 0, no queries
    /// yet.
    pub fn new(dataset: impl Into<Arc<Dataset>>) -> Self {
        Workload {
            dataset: dataset.into(),
            queries: Vec::new(),
            engine: Arc::new(SkipperFactory::default()),
            arrival: ArrivalProcess::Closed,
            start: SimDuration::ZERO,
            slo: None,
            ideal: None,
            deadline: None,
            retry: RetryPolicy::None,
            hedge: None,
            priority: 0,
        }
    }

    /// Sets the query sequence.
    pub fn queries(mut self, queries: Vec<QuerySpec>) -> Self {
        self.queries = queries;
        self
    }

    /// Runs `query` `times` times.
    pub fn repeat_query(mut self, query: QuerySpec, times: usize) -> Self {
        self.queries = std::iter::repeat_with(|| query.clone())
            .take(times)
            .collect();
        self
    }

    /// Sets the engine factory.
    pub fn engine(mut self, factory: impl EngineFactory + 'static) -> Self {
        self.engine = Arc::new(factory);
        self
    }

    /// Sets a shared engine factory (avoids re-wrapping when several
    /// tenants use one configuration).
    pub fn engine_arc(mut self, factory: Arc<dyn EngineFactory>) -> Self {
        self.engine = factory;
        self
    }

    /// Sets the arrival process.
    pub fn arrival(mut self, arrival: ArrivalProcess) -> Self {
        self.arrival = arrival;
        self
    }

    /// Sets the first-release offset (staggered starts).
    pub fn start_at(mut self, offset: SimDuration) -> Self {
        self.start = offset;
        self
    }

    /// Declares a response-time SLO target for this tenant (release →
    /// completion, queue-wait included).
    pub fn slo_target(mut self, target: SimDuration) -> Self {
        self.slo = Some(target);
        self
    }

    /// Declares the ideal (single-tenant) execution time of this
    /// tenant's queries, enabling streaming stretch quantiles.
    pub fn ideal_time(mut self, ideal: SimDuration) -> Self {
        self.ideal = Some(ideal);
        self
    }

    /// Sets a response-time deadline: a query not finished this long
    /// after its release is cancelled and counted as a miss.
    pub fn deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the re-submission policy for cancelled or replica-less
    /// requests.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the hedge delay: this long after submission, undelivered
    /// reads are re-issued to the next live replica.
    pub fn hedge_after(mut self, delay: SimDuration) -> Self {
        self.hedge = Some(delay);
        self
    }

    /// Sets the admission priority (0 = lowest, shed first).
    pub fn priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }

    /// Expands the arrival process into one release instant per query
    /// (`None` = closed-loop: start when the predecessor finishes).
    ///
    /// `tenant` salts the stochastic streams so identical workloads on
    /// different tenants do not share arrival times.
    pub fn release_times(&self, tenant: usize) -> Vec<Option<SimTime>> {
        self.arrival
            .release_times(self.queries.len(), tenant, self.start)
    }
}

/// One exponential inter-arrival gap with the given mean, drawn from a
/// SplitMix64 stream (inverse-CDF method).
///
/// Clamped to ≥ 1 µs: `u = 0` would otherwise yield a zero gap and two
/// releases at the same instant with unpinned tie order (the simulated
/// clock's resolution is the microsecond, so 1 µs is the smallest
/// representable strictly-positive gap).
pub(crate) fn exponential_gap(state: &mut u64, mean: SimDuration) -> SimDuration {
    // 53 uniform mantissa bits in [0, 1).
    let u = (splitmix64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    SimDuration::from_secs_f64(-mean.as_secs_f64() * (1.0 - u).ln())
        .max(SimDuration::from_micros(1))
}

/// One uniform draw in [0, 1) from a SplitMix64 stream (53 mantissa
/// bits) — the acceptance coin of the diurnal thinning sampler.
fn uniform_unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipper_datagen::{tpch, GenConfig};

    fn ds() -> Dataset {
        tpch::dataset(&GenConfig::new(21, 4).with_phys_divisor(100_000))
    }

    #[test]
    fn closed_releases_are_all_none_at_zero_offset() {
        let d = ds();
        let q = tpch::q12(&d);
        let w = Workload::new(d).repeat_query(q, 3);
        assert_eq!(w.release_times(0), vec![None, None, None]);
    }

    #[test]
    fn start_offset_pins_only_the_first_release() {
        let d = ds();
        let q = tpch::q12(&d);
        let w = Workload::new(d)
            .repeat_query(q, 3)
            .start_at(SimDuration::from_secs(500));
        let rel = w.release_times(2);
        assert_eq!(rel[0], Some(SimTime::from_secs(500)));
        assert_eq!(&rel[1..], &[None, None]);
    }

    #[test]
    fn poisson_releases_are_deterministic_increasing_and_tenant_salted() {
        let d = ds();
        let q = tpch::q12(&d);
        let w = Workload::new(d)
            .repeat_query(q, 8)
            .arrival(ArrivalProcess::Poisson {
                mean: SimDuration::from_secs(100),
                seed: 7,
            });
        let a = w.release_times(0);
        let b = w.release_times(0);
        assert_eq!(a, b, "fixed seed must fix the arrival times");
        let times: Vec<SimTime> = a.iter().map(|t| t.unwrap()).collect();
        assert!(
            times.windows(2).all(|p| p[0] <= p[1]),
            "non-monotone arrivals"
        );
        let other = w.release_times(1);
        assert_ne!(a, other, "tenants must not share a Poisson stream");
        // Mean gap lands in the right ballpark (8 samples, loose bound).
        let span = times.last().unwrap().as_secs_f64();
        assert!(span > 50.0 && span < 4000.0, "total span {span}s");
    }

    #[test]
    fn exponential_gaps_have_the_requested_mean() {
        let mut state = 42u64;
        let mean = SimDuration::from_secs(20);
        let n = 4000;
        let total: f64 = (0..n)
            .map(|_| exponential_gap(&mut state, mean).as_secs_f64())
            .sum();
        let avg = total / n as f64;
        assert!((15.0..25.0).contains(&avg), "mean gap {avg}s");
    }

    #[test]
    fn exponential_gap_never_returns_zero() {
        // At a 1 µs mean nearly every raw draw rounds to zero; the
        // clamp must keep each gap strictly positive so no two
        // releases share an instant with unpinned tie order.
        let mut state = 7u64;
        let mean = SimDuration::from_micros(1);
        for _ in 0..1000 {
            let gap = exponential_gap(&mut state, mean);
            assert!(gap >= SimDuration::from_micros(1), "zero gap drawn");
        }
    }

    #[test]
    fn onoff_releases_are_deterministic_increasing_and_bursty() {
        let d = ds();
        let q = tpch::q12(&d);
        let arrival = ArrivalProcess::OnOff {
            on_mean: SimDuration::from_secs(10),
            on_duration: SimDuration::from_secs(120),
            off_duration: SimDuration::from_secs(1200),
            seed: 11,
        };
        let w = Workload::new(d).repeat_query(q, 64).arrival(arrival);
        let a = w.release_times(0);
        assert_eq!(a, w.release_times(0), "fixed seed must fix releases");
        assert_ne!(a, w.release_times(1), "tenants must not share a stream");
        let times: Vec<SimTime> = a.iter().map(|t| t.unwrap()).collect();
        assert!(times.windows(2).all(|p| p[0] < p[1]), "non-monotone");
        // Burstiness: with OFF phases 10× the ON phases and 12 expected
        // arrivals per ON phase, the largest gap (an OFF phase) dwarfs
        // the median gap (an in-burst exponential).
        let mut gaps: Vec<f64> = times
            .windows(2)
            .map(|p| p[1].since(p[0]).as_secs_f64())
            .collect();
        gaps.sort_by(f64::total_cmp);
        let median = gaps[gaps.len() / 2];
        let max = *gaps.last().unwrap();
        assert!(
            max > 10.0 * median,
            "no burst structure: median gap {median}s, max gap {max}s"
        );
    }

    #[test]
    fn diurnal_rate_tracks_the_cycle() {
        let d = ds();
        let q = tpch::q12(&d);
        let period = SimDuration::from_secs(86_400);
        let arrival = ArrivalProcess::Diurnal {
            peak_mean: SimDuration::from_secs(60),
            period,
            trough: 0.1,
            seed: 3,
        };
        // ~790 accepted arrivals per simulated day at these settings:
        // 1600 queries span two full cycles, so peak and trough windows
        // are sampled evenly.
        let w = Workload::new(d).repeat_query(q, 1600).arrival(arrival);
        let a = w.release_times(0);
        assert_eq!(a, w.release_times(0), "fixed seed must fix releases");
        let times: Vec<SimTime> = a.iter().map(|t| t.unwrap()).collect();
        assert!(times.windows(2).all(|p| p[0] < p[1]), "non-monotone");
        // Count arrivals near the peak (first/last quarter of each
        // cycle) vs near the trough (middle half): the raised cosine
        // with trough 0.1 concentrates mass near the peak (expected
        // rate ratio ≈ 3.2× between the equal-width windows).
        let (mut near_peak, mut near_trough) = (0u32, 0u32);
        for t in &times {
            let frac = (t.as_secs_f64() % 86_400.0) / 86_400.0;
            if (0.25..0.75).contains(&frac) {
                near_trough += 1;
            } else {
                near_peak += 1;
            }
        }
        assert!(
            near_peak > 2 * near_trough,
            "no diurnal shape: {near_peak} near peak vs {near_trough} near trough"
        );
    }

    #[test]
    fn trace_replay_sorts_offsets_and_checks_length() {
        let d = ds();
        let q = tpch::q12(&d);
        let trace = vec![
            SimTime::from_secs(30),
            SimTime::from_secs(10),
            SimTime::from_secs(20),
        ];
        let w = Workload::new(d)
            .repeat_query(q, 3)
            .arrival(ArrivalProcess::TraceReplay(trace))
            .start_at(SimDuration::from_secs(5));
        assert_eq!(
            w.release_times(0),
            vec![
                Some(SimTime::from_secs(15)),
                Some(SimTime::from_secs(25)),
                Some(SimTime::from_secs(35)),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "TraceReplay has 1 instants for 2 queries")]
    fn trace_replay_panics_when_short() {
        let d = ds();
        let q = tpch::q12(&d);
        Workload::new(d)
            .repeat_query(q, 2)
            .arrival(ArrivalProcess::TraceReplay(vec![SimTime::from_secs(1)]))
            .release_times(0);
    }
}
