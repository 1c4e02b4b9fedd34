//! The five workloads: how each is generated from a seed and turned
//! into a [`Scenario`].
//!
//! Everything here is *set-up* in the benchmark's sense — dataset
//! generation, [`Workload`] construction, [`Scenario`] construction —
//! and is timed as `setup_s`. The program under test receives only the
//! generated workloads; the seed never reaches it except through
//! [`Scenario::seed`], which the protection plane documents as its
//! jitter root.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use skipper_core::runtime::{
    AdmissionPolicy, AdmissionResponse, ArrivalProcess, BreakerPolicy, CacheConfig, EngineFactory,
    FaultPlan, LedgerMode, PlacementPolicy, RecordMode, RetryPolicy, Scenario, SkipperFactory,
    TraceMode, VanillaFactory, Workload,
};
use skipper_csd::{BasePlacement, SchedPolicy};
use skipper_datagen::{tpch, Dataset, GenConfig};
use skipper_relational::catalog::{Catalog, TableDef};
use skipper_relational::schema::{DataType, Schema};
use skipper_relational::segment::Segment;
use skipper_relational::tuple::Row;
use skipper_relational::value::Value;
use skipper_sim::rng::{derive_seed, splitmix64};
use skipper_sim::{SimDuration, SimTime};

use crate::engines::{synthetic_query, BatchFactory, EngineLog, PullFactory, TimedFactory};

const GIB: u64 = 1 << 30;

/// Seed used when `--seed` is not given (the paper's year).
pub const DEFAULT_SEED: u64 = 2016;

// ---- calibrated constants (re-measured values are in README.md) ----

/// Tenants of the two closed-loop workloads.
const CLOSED_TENANTS: usize = 64;
/// Closed-loop queries per tenant.
const CLOSED_QUERIES: usize = 32;
/// Mean working set (objects per query) of a closed-loop tenant; the
/// seed spreads tenants ±10 % around it with the total held fixed.
const CLOSED_OBJECTS: u32 = 500;
/// Physical rows generated per synthetic object. The payload is never
/// read; it makes set-up generate data as a real tenant's would.
const SYNTHETIC_ROWS_PER_OBJECT: u64 = 4;

/// TPC-H scale factor and miniaturisation of `tpch_mjoin`.
const TPCH_SF: u32 = 50;
const TPCH_PHYS_DIVISOR: u64 = 2_000;
/// MJoin cache of the Skipper tenants: small enough against SF-50 Q5
/// that objects are evicted and re-fetched (Figure 11b's regime).
const TPCH_CACHE_BYTES: u64 = 15 * GIB;
const TPCH_SKIPPER_TENANTS: usize = 6;
const TPCH_VANILLA_TENANTS: usize = 2;

/// Open-loop tenant mix: hot tenants have a small dataset and bursty
/// arrivals, cold tenants a large dataset and Poisson arrivals.
const HOT_TENANTS: usize = 16;
const HOT_OBJECTS: u32 = 8;
const HOT_QUERIES: usize = 2_800;
const COLD_TENANTS: usize = 48;
const COLD_OBJECTS: u32 = 64;
const COLD_QUERIES: usize = 280;
/// Response-time target of every open-loop tenant.
pub const OPEN_SLO: SimDuration = SimDuration::from_secs(120);
/// Virtual seconds over which a tenant's releases spread at rate 1.0 —
/// the one calibrated rate constant. Every arrival gap is derived from
/// it, so the load ladder scales all tenants together.
const OPEN_HORIZON_SECS: f64 = 2_000_000.0;
/// Share of time a hot tenant's on/off source spends ON, and the mean
/// length of one ON phase.
const HOT_ON_SHARE: f64 = 0.2;
const HOT_ON_PHASE_SECS: f64 = 200.0;

/// `open_planes` knobs. The cache tiers are 10 % of the 800 GiB a
/// shard stores under two-way replication: the hot tenants' objects
/// fit, the cold tenants' scans do not.
const PLANES_DRAM_PER_SHARD: u64 = 32 * GIB;
const PLANES_SSD_PER_SHARD: u64 = 48 * GIB;
/// An uncontended hot query takes ≈ 19 s (one switch, one transfer) and
/// a cold one ≈ 29 s (one switch, two transfer rounds on 4 streams):
/// hedges fire just past that, deadlines a little later.
const PLANES_HOT_HEDGE: SimDuration = SimDuration::from_secs(22);
const PLANES_COLD_HEDGE: SimDuration = SimDuration::from_secs(45);
const PLANES_HOT_DEADLINE: SimDuration = SimDuration::from_secs(30);
const PLANES_COLD_DEADLINE: SimDuration = SimDuration::from_secs(75);
/// Admission sheds a cold arrival when a live shard already queues
/// two cold queries' worth of requests (hot tenants get twice that).
const PLANES_MAX_QUEUE_DEPTH: usize = 16;

/// One of the five workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Batch tenants, closed loop, deep queues.
    BatchClosed,
    /// Pull tenants, closed loop, one GET outstanding each.
    PullClosed,
    /// The paper's single device running TPC-H Q5 and Q12.
    TpchMjoin,
    /// Open arrivals with every plane off.
    OpenPlain,
    /// The same arrivals with cache, faults and protection on.
    OpenPlanes,
}

impl Kind {
    /// Every workload, in reporting order.
    pub const ALL: [Kind; 5] = [
        Kind::BatchClosed,
        Kind::PullClosed,
        Kind::TpchMjoin,
        Kind::OpenPlain,
        Kind::OpenPlanes,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::BatchClosed => "batch_closed",
            Kind::PullClosed => "pull_closed",
            Kind::TpchMjoin => "tpch_mjoin",
            Kind::OpenPlain => "open_plain",
            Kind::OpenPlanes => "open_planes",
        }
    }

    /// Inverse of [`Kind::name`].
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// True for the two open-arrival workloads (the load ladder runs on
    /// these).
    pub fn is_open(self) -> bool {
        matches!(self, Kind::OpenPlain | Kind::OpenPlanes)
    }

    /// True when a stacked replay exists: synthetic engines and no
    /// plane, so the mirror loop can reproduce the run from outside.
    pub fn has_replay(self) -> bool {
        matches!(self, Kind::BatchClosed | Kind::PullClosed | Kind::OpenPlain)
    }

    /// True when no fault, cache or protection knob is set: the run
    /// must report a quiet protection summary, availability 1.0 and
    /// zero cache lookups.
    pub fn planes_off(self) -> bool {
        self != Kind::OpenPlanes
    }
}

/// Observability regime of a run (span log, delivery ledger and query
/// records together).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Observe {
    /// `TraceMode`/`LedgerMode`/`RecordMode::Full`.
    Full,
    /// The three `Counters` modes.
    Counters,
}

impl Observe {
    /// The runtime's three mode knobs for this regime.
    pub fn modes(self) -> (TraceMode, LedgerMode, RecordMode) {
        match self {
            Observe::Full => (TraceMode::Full, LedgerMode::Full, RecordMode::Full),
            Observe::Counters => (
                TraceMode::Counters,
                LedgerMode::Counters,
                RecordMode::Counters,
            ),
        }
    }
}

/// Inputs of one set-up.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Root seed: datasets, arrivals, fault streams and retry jitter
    /// all derive from it.
    pub seed: u64,
    /// Size divisor: 1 is the full workload; tests run 16 and 64.
    pub shrink: u32,
    /// Open-arrival rate multiplier (the load ladder runs 0.5 and 1.5).
    pub rate: f64,
    /// Overrides the workload's own observability regime (the
    /// Full-vs-Counters probe).
    pub observe: Option<Observe>,
}

impl Params {
    /// Full size, calibrated rate, the workload's own observability.
    pub fn new(seed: u64) -> Params {
        Params {
            seed,
            shrink: 1,
            rate: 1.0,
            observe: None,
        }
    }

    /// The same workload `1/shrink` as large.
    #[cfg(test)]
    pub fn shrunk(mut self, shrink: u32) -> Params {
        assert!(shrink >= 1, "shrink divides; it cannot be 0");
        self.shrink = shrink;
        self
    }

    /// The same workload at `rate` × its arrival rate.
    pub fn at_rate(mut self, rate: f64) -> Params {
        self.rate = rate;
        self
    }

    /// The same workload under another observability regime.
    pub fn observed(mut self, observe: Observe) -> Params {
        self.observe = Some(observe);
        self
    }
}

/// The device layer a workload runs on. The scenario and the replay's
/// own fleet construction are both built from this, so they agree.
#[derive(Clone, Copy, Debug)]
pub struct FleetSpec {
    /// CSD shards.
    pub shards: usize,
    /// Transfer streams per shard.
    pub streams: u32,
    /// Object → shard placement.
    pub placement: PlacementPolicy,
    /// Explicit scheduler, or `None` for the fleet-appropriate default.
    pub sched: Option<SchedPolicy>,
    /// Observability regime.
    pub observe: Observe,
}

/// Knobs only `open_planes` sets.
#[derive(Clone, Debug)]
pub struct Planes {
    /// Per-shard cache tiers.
    pub cache: CacheConfig,
    /// Fault plan (every episode kind).
    pub faults: FaultPlan,
    /// Admission control and breaker.
    pub admission: AdmissionPolicy,
}

/// What dataset generation cost during one set-up.
#[derive(Clone, Copy, Debug, Default)]
pub struct DatagenCost {
    /// Host seconds inside the generators.
    pub secs: f64,
    /// Physical rows generated.
    pub rows: u64,
}

/// A generated workload, ready to become a [`Scenario`].
pub struct Prepared {
    /// Which workload this is.
    pub kind: Kind,
    /// The tenants, in client order.
    pub tenants: Vec<Workload>,
    /// The device layer.
    pub fleet: FleetSpec,
    /// Scenario-wide SLO target.
    pub slo: Option<SimDuration>,
    /// Plane knobs (`open_planes` only).
    pub planes: Option<Planes>,
    /// Root seed (becomes `Scenario::seed`).
    pub seed: u64,
    /// Dataset generation share of the set-up.
    pub datagen: DatagenCost,
}

impl Prepared {
    /// Wraps every tenant's engine factory in a [`TimedFactory`]
    /// writing to `log` (traced pass only).
    pub fn with_timed_engines(mut self, log: &Rc<RefCell<EngineLog>>) -> Prepared {
        self.tenants = self
            .tenants
            .into_iter()
            .map(|w| {
                let inner = Arc::clone(&w.engine);
                w.engine(TimedFactory::new(inner, Rc::clone(log)))
            })
            .collect();
        self
    }

    /// Builds the scenario through the public facade.
    pub fn into_scenario(self) -> Scenario {
        let (trace, ledger, record) = self.fleet.observe.modes();
        let mut scenario = Scenario::from_workloads(self.tenants)
            .shards(self.fleet.shards)
            .placement(self.fleet.placement)
            .streams(self.fleet.streams)
            .trace_mode(trace)
            .ledger_mode(ledger)
            .record_mode(record)
            .seed(self.seed);
        if let Some(policy) = self.fleet.sched {
            scenario = scenario.scheduler(policy);
        }
        if let Some(target) = self.slo {
            scenario = scenario.slo_target(target);
        }
        if let Some(planes) = self.planes {
            scenario = scenario
                .shard_cache(planes.cache)
                .faults(planes.faults)
                .admission(planes.admission);
        }
        scenario
    }
}

/// Generates `kind` from `params`. Deterministic: equal inputs give
/// equal workloads.
pub fn setup(kind: Kind, params: Params) -> Prepared {
    match kind {
        Kind::BatchClosed => closed_loop(kind, params, Arc::new(BatchFactory)),
        Kind::PullClosed => closed_loop(kind, params, Arc::new(PullFactory)),
        Kind::TpchMjoin => tpch_mjoin(params),
        Kind::OpenPlain => open_loop(kind, params),
        Kind::OpenPlanes => {
            let mut prepared = open_loop(kind, params);
            add_planes(&mut prepared, params);
            prepared
        }
    }
}

/// A dataset of `objects` objects in a single table named `objects`,
/// one segment each. Every object of the tenant has the same logical
/// size, drawn from the seed within ±10 % of 1 GiB: tenants differ, as
/// real ones do, and no virtual-time metric is pinned to one transfer
/// time on every seed.
pub fn synthetic_dataset(name: &str, objects: u32, seed: u64) -> Dataset {
    let mut state = derive_seed(seed, name);
    let bytes = GIB / 1_000 * (900 + splitmix64(&mut state) % 201);
    let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
    let mut catalog = Catalog::new();
    catalog.register(TableDef {
        name: "objects".to_string(),
        schema: schema.clone(),
        segment_count: objects,
        logical_bytes_per_segment: bytes,
        logical_rows_per_segment: 1_000_000,
    });
    let segments = (0..objects as u64)
        .map(|object| {
            let rows = (0..SYNTHETIC_ROWS_PER_OBJECT)
                .map(|row| {
                    let key = object * SYNTHETIC_ROWS_PER_OBJECT + row;
                    Row::new(vec![
                        Value::Int(key as i64),
                        Value::Int((splitmix64(&mut state) >> 1) as i64),
                    ])
                })
                .collect();
            Arc::new(Segment::new_unchecked(schema.clone(), rows))
        })
        .collect();
    Dataset {
        name: name.to_string(),
        catalog,
        segments: vec![segments],
    }
}

/// Times one dataset generation into `cost`.
fn generate(cost: &mut DatagenCost, make: impl FnOnce() -> Dataset) -> Arc<Dataset> {
    let begin = Instant::now();
    let dataset = make();
    cost.secs += begin.elapsed().as_secs_f64();
    cost.rows += dataset.total_phys_rows();
    Arc::new(dataset)
}

/// Splits `total` objects over `tenants` working sets, each within
/// ±10 % of the mean, from the seed. The sum is exact, so every seed
/// issues the same number of GETs.
fn working_set_sizes(seed: u64, tenants: usize, mean: u32) -> Vec<u32> {
    let mut state = derive_seed(seed, "working-set-sizes");
    let swing = (mean / 10).max(1) as u64;
    let mut sizes: Vec<u32> = (0..tenants)
        .map(|_| mean - swing as u32 + (splitmix64(&mut state) % (2 * swing + 1)) as u32)
        .collect();
    // Settle the excess on the tenants in turn, staying inside the band.
    let band = (mean as i64 - swing as i64).max(1)..=mean as i64 + swing as i64;
    let mut excess = sizes.iter().map(|&s| s as i64).sum::<i64>() - mean as i64 * tenants as i64;
    let mut i = 0;
    while excess != 0 {
        let settled = sizes[i] as i64 - excess.signum();
        if band.contains(&settled) {
            sizes[i] = settled as u32;
            excess -= excess.signum();
        }
        i = (i + 1) % tenants;
    }
    sizes
}

/// `queries / shrink` (at least 1), and the working-set divisor left
/// over when `shrink` exceeds `queries`.
fn shrink_queries(queries: usize, shrink: u32) -> (usize, u32) {
    let shrink = shrink as usize;
    if shrink <= queries {
        (queries / shrink, 1)
    } else {
        (1, (shrink / queries) as u32)
    }
}

fn closed_loop(kind: Kind, params: Params, engine: Arc<dyn EngineFactory>) -> Prepared {
    let (queries, object_div) = shrink_queries(CLOSED_QUERIES, params.shrink);
    let mean = (CLOSED_OBJECTS / object_div).max(2);
    let mut datagen = DatagenCost::default();
    let tenants = working_set_sizes(params.seed, CLOSED_TENANTS, mean)
        .into_iter()
        .enumerate()
        .map(|(t, objects)| {
            let dataset = generate(&mut datagen, || {
                synthetic_dataset(&format!("closed-{t}"), objects, params.seed)
            });
            Workload::new(dataset)
                .repeat_query(synthetic_query("objects"), queries)
                .engine_arc(Arc::clone(&engine))
        })
        .collect();
    Prepared {
        kind,
        tenants,
        fleet: FleetSpec {
            shards: 8,
            streams: 1,
            placement: PlacementPolicy::RoundRobin,
            sched: Some(SchedPolicy::RankBased),
            observe: params.observe.unwrap_or(Observe::Counters),
        },
        slo: None,
        planes: None,
        seed: params.seed,
        datagen,
    }
}

fn tpch_mjoin(params: Params) -> Prepared {
    let sf = (TPCH_SF / params.shrink).max(2);
    // The MJoin cache shrinks with the data so the reissue regime
    // survives at test sizes; Q5 joins six relations and the engine
    // needs room for one object of each.
    let cache = (TPCH_CACHE_BYTES * sf as u64 / TPCH_SF as u64).max(8 * GIB);
    let mut datagen = DatagenCost::default();
    let data = generate(&mut datagen, || {
        tpch::dataset(&GenConfig::new(params.seed, sf).with_phys_divisor(TPCH_PHYS_DIVISOR))
    });
    let queries = vec![tpch::q5(&data), tpch::q12(&data)];
    let tenants = (0..TPCH_SKIPPER_TENANTS + TPCH_VANILLA_TENANTS)
        .map(|t| {
            let w = Workload::new(Arc::clone(&data)).queries(queries.clone());
            if t < TPCH_SKIPPER_TENANTS {
                w.engine(SkipperFactory::default().cache_bytes(cache))
            } else {
                w.engine(VanillaFactory)
            }
        })
        .collect();
    Prepared {
        kind: Kind::TpchMjoin,
        tenants,
        fleet: FleetSpec {
            shards: 1,
            streams: 1,
            placement: PlacementPolicy::RoundRobin,
            sched: None,
            observe: params.observe.unwrap_or(Observe::Full),
        },
        slo: None,
        planes: None,
        seed: params.seed,
        datagen,
    }
}

/// Tenants `0..HOT_TENANTS` are hot, the rest cold.
fn is_hot_tenant(tenant: usize) -> bool {
    tenant < HOT_TENANTS
}

fn open_loop(kind: Kind, params: Params) -> Prepared {
    let (hot_queries, _) = shrink_queries(HOT_QUERIES, params.shrink);
    let (cold_queries, _) = shrink_queries(COLD_QUERIES, params.shrink);
    // Shrinking cuts the horizon with the query counts, so the offered
    // rate — and with it the utilisation — stays what was calibrated.
    let horizon = OPEN_HORIZON_SECS / params.shrink as f64 / params.rate;
    let hot_on_mean = horizon * HOT_ON_SHARE / hot_queries as f64;
    let on_phase = HOT_ON_PHASE_SECS / params.rate;
    let off_phase = on_phase * (1.0 - HOT_ON_SHARE) / HOT_ON_SHARE;
    let cold_mean = horizon / cold_queries as f64;
    let arrival_seed = derive_seed(params.seed, "arrivals");

    let mut datagen = DatagenCost::default();
    let tenants = (0..HOT_TENANTS + COLD_TENANTS)
        .map(|t| {
            let hot = is_hot_tenant(t);
            let objects = if hot { HOT_OBJECTS } else { COLD_OBJECTS };
            let dataset = generate(&mut datagen, || {
                synthetic_dataset(&format!("open-{t}"), objects, params.seed)
            });
            let (queries, arrival) = if hot {
                (
                    hot_queries,
                    ArrivalProcess::OnOff {
                        on_mean: SimDuration::from_secs_f64(hot_on_mean),
                        on_duration: SimDuration::from_secs_f64(on_phase),
                        off_duration: SimDuration::from_secs_f64(off_phase),
                        seed: arrival_seed,
                    },
                )
            } else {
                (
                    cold_queries,
                    ArrivalProcess::Poisson {
                        mean: SimDuration::from_secs_f64(cold_mean),
                        seed: arrival_seed,
                    },
                )
            };
            Workload::new(dataset)
                .repeat_query(synthetic_query("objects"), queries)
                .engine(BatchFactory)
                .arrival(arrival)
        })
        .collect();
    Prepared {
        kind,
        tenants,
        fleet: FleetSpec {
            shards: 8,
            streams: 4,
            placement: PlacementPolicy::RoundRobin,
            sched: Some(SchedPolicy::RankBased),
            observe: params.observe.unwrap_or(Observe::Full),
        },
        slo: Some(OPEN_SLO),
        planes: None,
        seed: params.seed,
        datagen,
    }
}

/// The instant of the last planned release — the horizon the fault
/// plan is laid out against, taken from the public
/// [`Workload::release_times`] so it follows the seed and the size.
pub fn last_release(tenants: &[Workload]) -> SimTime {
    tenants
        .iter()
        .enumerate()
        .flat_map(|(t, w)| w.release_times(t))
        .flatten()
        .max()
        .unwrap_or(SimTime::ZERO)
}

fn add_planes(prepared: &mut Prepared, params: Params) {
    prepared.fleet.placement = PlacementPolicy::Replicated {
        k: 2,
        base: BasePlacement::RoundRobin,
    };
    let horizon = last_release(&prepared.tenants);
    let at = |share: f64| SimTime::from_micros((horizon.as_micros() as f64 * share) as u64);
    let span = |share: f64| SimDuration::from_micros((horizon.as_micros() as f64 * share) as u64);
    // One episode of every kind, each on its own shard (episodes on one
    // shard may not overlap), placed as shares of the horizon so they
    // land inside the run at every size.
    let faults = FaultPlan::new()
        .shard_down(2, at(0.20), at(0.23))
        .degraded(5, at(0.45), at(0.52), 0.25)
        .drop_wakeup_after(6, 40, SimDuration::from_secs(30))
        .seeded_crashes(
            0,
            span(0.25),
            span(0.01),
            horizon,
            derive_seed(params.seed, "faults"),
        );
    for (t, w) in prepared.tenants.iter_mut().enumerate() {
        if is_hot_tenant(t) {
            w.deadline = Some(PLANES_HOT_DEADLINE);
            w.retry = RetryPolicy::Backoff {
                base: SimDuration::from_secs(30),
                cap: SimDuration::from_secs(240),
                max_attempts: 2,
            };
            w.priority = 1;
            w.hedge = Some(PLANES_HOT_HEDGE);
        } else {
            w.hedge = Some(PLANES_COLD_HEDGE);
            w.deadline = Some(PLANES_COLD_DEADLINE);
        }
    }
    prepared.planes = Some(Planes {
        cache: CacheConfig::two_tier(PLANES_DRAM_PER_SHARD, PLANES_SSD_PER_SHARD),
        faults,
        admission: AdmissionPolicy {
            max_queue_depth: PLANES_MAX_QUEUE_DEPTH,
            max_queued_bytes: u64::MAX,
            response: AdmissionResponse::Shed,
            breaker: Some(BreakerPolicy {
                brownout_below: 0.5,
                trip_timeouts: 3,
                cooldown: SimDuration::from_secs(600),
            }),
        },
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Expect;

    #[test]
    fn working_set_sizes_keep_the_total_and_the_band() {
        for seed in [1, 7, DEFAULT_SEED] {
            let sizes = working_set_sizes(seed, 64, 500);
            assert_eq!(sizes.iter().sum::<u32>(), 64 * 500);
            assert!(sizes.iter().all(|&s| (449..=551).contains(&s)), "{sizes:?}");
        }
        assert_ne!(
            working_set_sizes(1, 64, 500),
            working_set_sizes(2, 64, 500),
            "the seed must change the inputs"
        );
        assert_eq!(working_set_sizes(3, 64, 7).iter().sum::<u32>(), 64 * 7);
    }

    #[test]
    fn full_size_request_counts_are_the_documented_ones() {
        assert_eq!(
            CLOSED_TENANTS * CLOSED_QUERIES * CLOSED_OBJECTS as usize,
            1_024_000
        );
        let queries = HOT_TENANTS * HOT_QUERIES + COLD_TENANTS * COLD_QUERIES;
        let gets = HOT_TENANTS * HOT_QUERIES * HOT_OBJECTS as usize
            + COLD_TENANTS * COLD_QUERIES * COLD_OBJECTS as usize;
        assert_eq!((queries, gets), (58_240, 1_218_560));
    }

    #[test]
    fn setup_is_a_function_of_the_seed() {
        let releases = |seed| {
            let p = setup(Kind::OpenPlain, Params::new(seed).shrunk(64));
            (Expect::of(&p).offered(), last_release(&p.tenants))
        };
        assert_eq!(releases(5), releases(5));
        assert_ne!(releases(5).1, releases(6).1);
        assert_eq!(releases(5).0, releases(6).0);
    }

    #[test]
    fn shrinking_divides_queries_then_objects() {
        assert_eq!(shrink_queries(32, 1), (32, 1));
        assert_eq!(shrink_queries(32, 16), (2, 1));
        assert_eq!(shrink_queries(32, 64), (1, 2));
        let p = setup(Kind::BatchClosed, Params::new(1).shrunk(64));
        assert_eq!(Expect::of(&p).offered(), 64);
        let objects: u32 = p.tenants.iter().map(|w| w.dataset.total_objects()).sum();
        assert_eq!(objects, 64 * 250);
    }
}
