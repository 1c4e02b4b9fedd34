//! The end-to-end pass: timed repeats of set-up and `Scenario::run()`
//! with every decorator off.

use std::time::Instant;

use skipper_core::runtime::RunResult;

use crate::check::{self, Expect};
use crate::metrics::{Values, END_TO_END};
use crate::stats::{quartiles, Quartiles};
use crate::workloads::{setup, Kind, Params};

/// Timed repeats never go below this, whatever `--seconds` says.
pub const MIN_REPEATS: usize = 7;
/// Upper limit, so a tiny test-size workload does not spin for ever.
const MAX_REPEATS: usize = 64;

/// One set-up plus one run, timed apart.
pub struct Run {
    /// What the workload offered (for the oracles).
    pub expect: Expect,
    /// Everything the run measured.
    pub result: RunResult,
    /// Host seconds of dataset generation and workload and scenario
    /// construction.
    pub setup_s: f64,
    /// Host seconds of `Scenario::run()`: assembly, event loop and
    /// result assembly (it consumes the scenario, so they cannot be
    /// timed apart from outside).
    pub run_s: f64,
    /// Heap allocations during `run()`.
    pub allocations: u64,
}

/// Sets `kind` up from `params` and runs it once.
pub fn run_once(kind: Kind, params: Params) -> Run {
    let begin = Instant::now();
    let prepared = setup(kind, params);
    let expect = Expect::of(&prepared);
    let scenario = prepared.into_scenario();
    let setup_s = begin.elapsed().as_secs_f64();
    let allocations = crate::allocations();
    let begin = Instant::now();
    let result = scenario.run();
    let run_s = begin.elapsed().as_secs_f64();
    Run {
        expect,
        result,
        setup_s,
        run_s,
        allocations: crate::allocations() - allocations,
    }
}

/// Virtual-time outcome of a run: the product metrics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimOutcome {
    /// `RunResult::makespan`.
    pub makespan_s: f64,
    /// Fleet-wide median response time (release → completion).
    pub p50_response_s: f64,
    /// Fleet-wide 99th-percentile response time.
    pub p99_response_s: f64,
    /// `economics.dollars_per_query`.
    pub dollars_per_query: f64,
    /// Completed ÷ offered queries.
    pub completed_share: f64,
    /// Queries that met their SLO target ÷ queries *offered*, where
    /// tenants declare a target: a query that was shed or cancelled
    /// missed whatever limit it had.
    pub slo_attainment: Option<f64>,
    /// Completed queries (the response-time sample count).
    pub completed: u64,
}

impl SimOutcome {
    /// Reads the product metrics out of a result.
    pub fn of(expect: &Expect, result: &RunResult) -> SimOutcome {
        let response = result.latency.fleet.response;
        let completed = check::completed(result);
        SimOutcome {
            makespan_s: result.makespan.as_secs_f64(),
            p50_response_s: response.map_or(f64::NAN, |q| q.p50),
            p99_response_s: response.map_or(f64::NAN, |q| q.p99),
            dollars_per_query: result.economics.dollars_per_query,
            completed_share: completed as f64 / expect.offered() as f64,
            slo_attainment: result
                .latency
                .fleet
                .slo
                .map(|s| s.met as f64 / expect.offered() as f64),
            completed,
        }
    }
}

/// Result of the end-to-end pass on one workload.
pub struct EndToEnd {
    /// Timed repeats behind the medians.
    pub repeats: usize,
    /// GETs the fleet accepted in one run.
    pub requests: u64,
    /// Queries offered in one run.
    pub offered: u64,
    /// `run()` wall seconds.
    pub run: Quartiles,
    /// Set-up wall seconds.
    pub setup: Quartiles,
    /// Every timed `run()`, in order (seconds).
    pub run_samples: Vec<f64>,
    /// Every timed set-up, in order (seconds).
    pub setup_samples: Vec<f64>,
    /// Virtual-time metrics (identical on every repeat).
    pub sim: SimOutcome,
    /// The eight declared metrics.
    pub metrics: Values,
    /// Remarks a reader needs next to the numbers.
    pub notes: Vec<String>,
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Runs the end-to-end pass: one untimed warm-up whose result becomes
/// the reference, then timed repeats for `seconds` (at least
/// [`MIN_REPEATS`]). Every repeat must reproduce the reference exactly.
/// Returns the oracle violations instead when there are any.
pub fn end_to_end(kind: Kind, params: Params, seconds: f64) -> Result<EndToEnd, Vec<String>> {
    let reference = run_once(kind, params);
    let violations = check::verify(&reference.expect, &reference.result);
    if !violations.is_empty() {
        return Err(violations);
    }
    let mut run_s = Vec::new();
    let mut setup_s = Vec::new();
    let clock = Instant::now();
    while run_s.len() < MAX_REPEATS
        && (run_s.len() < MIN_REPEATS || clock.elapsed().as_secs_f64() < seconds)
    {
        let repeat = run_once(kind, params);
        if repeat.result != reference.result {
            return Err(vec![format!(
                "determinism: repeat {} differs from the warm-up run (makespan {} vs {})",
                run_s.len() + 1,
                repeat.result.makespan.as_secs_f64(),
                reference.result.makespan.as_secs_f64()
            )]);
        }
        run_s.push(repeat.run_s);
        setup_s.push(repeat.setup_s);
    }
    let run = quartiles(&run_s);
    let setup = quartiles(&setup_s);
    let requests = check::fleet_requests(&reference.result);
    let sim = SimOutcome::of(&reference.expect, &reference.result);

    let mut metrics = Values::new(&END_TO_END);
    metrics.set("host_requests_per_s", requests as f64 / run.median);
    metrics.set("host_peak_rss_mb", peak_rss_mib());
    metrics.set("setup_s", setup.median);
    metrics.set("sim_makespan_s", sim.makespan_s);
    metrics.set("sim_p50_response_s", sim.p50_response_s);
    metrics.set("sim_p99_response_s", sim.p99_response_s);
    metrics.set("sim_dollars_per_query", sim.dollars_per_query);
    metrics.set("sim_completed_share", sim.completed_share);

    let mut notes = vec![
        "host_* is host time; sim_* is virtual time and repeats exactly for a seed".to_string(),
        "open-loop lateness is 0 by construction: release instants are expanded at assembly, \
         and response time is release-anchored"
            .to_string(),
        "host_peak_rss_mb includes one retained reference RunResult (the determinism oracle)"
            .to_string(),
        "virtual-time results are unvalidated against hardware: the repository holds no \
         device measurements"
            .to_string(),
    ];
    if sim.completed < 2_048 {
        notes.push(format!(
            "only {} queries complete, so sim_p99_response_s is in effect the maximum",
            sim.completed
        ));
    }
    if kind == Kind::OpenPlanes {
        let zero: Vec<&str> = check::plane_counters(&reference.result)
            .into_iter()
            .filter(|&(_, n)| n == 0)
            .map(|(name, _)| name)
            .collect();
        if !zero.is_empty() {
            notes.push(format!(
                "plane counters that stayed zero on this seed: {}",
                zero.join(", ")
            ));
        }
    }
    Ok(EndToEnd {
        repeats: run_s.len(),
        requests,
        offered: reference.expect.offered(),
        run,
        setup,
        run_samples: run_s,
        setup_samples: setup_s,
        sim,
        metrics,
        notes,
    })
}
