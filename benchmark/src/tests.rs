//! Whole-benchmark tests at reduced size: the oracles on a held-out
//! seed, the replay against the runtime, and the declared names
//! against `BENCHMARK.json`.

use std::collections::BTreeSet;

use crate::check;
use crate::cli::result_line;
use crate::json::Json;
use crate::layers;
use crate::measure::{end_to_end, run_once, SimOutcome, MIN_REPEATS};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::quartiles;
use crate::workloads::{Kind, Params, DEFAULT_SEED};

/// Never used while the constants in `workloads.rs` were calibrated.
const HELD_OUT_SEED: u64 = 7;

#[test]
fn every_workload_passes_its_oracles_on_a_held_out_seed() {
    for kind in Kind::ALL {
        let run = run_once(kind, Params::new(HELD_OUT_SEED).shrunk(16));
        let violations = check::verify(&run.expect, &run.result);
        assert!(violations.is_empty(), "{}: {violations:?}", kind.name());
        let again = run_once(kind, Params::new(HELD_OUT_SEED).shrunk(16));
        assert!(
            again.result == run.result,
            "{}: two runs of one seed differ",
            kind.name()
        );
        if kind == Kind::OpenPlanes {
            // Calibration must not be fitted to the default seed: every
            // plane has to act here too, and lose some queries.
            for (name, count) in check::plane_counters(&run.result) {
                assert!(count > 0, "open_planes: no {name} on the held-out seed");
            }
            let sim = SimOutcome::of(&run.expect, &run.result);
            assert!(
                (0.85..=0.99).contains(&sim.completed_share),
                "open_planes completes {} of its queries on the held-out seed",
                sim.completed_share
            );
        }
    }
}

#[test]
fn the_seed_changes_every_workload() {
    for kind in Kind::ALL {
        let makespan = |seed| run_once(kind, Params::new(seed).shrunk(64)).result.makespan;
        assert_ne!(
            makespan(HELD_OUT_SEED),
            makespan(HELD_OUT_SEED + 1),
            "{}: two seeds gave one makespan",
            kind.name()
        );
    }
}

#[test]
fn replay_matches_the_runtime_and_the_budget_sums() {
    for kind in [Kind::BatchClosed, Kind::PullClosed, Kind::OpenPlain] {
        let name = kind.name();
        let traced = layers::traced(kind, Params::new(HELD_OUT_SEED).shrunk(64), 0.0)
            .unwrap_or_else(|violations| panic!("{name}: {violations:?}"));
        let metric = |m: &str| traced.metrics.get(m);
        assert_eq!(metric("fleet.replay_matches"), Some(1.0), "{name}");
        assert!(
            !traced
                .notes
                .iter()
                .any(|n| n.contains("pump- or device-level")),
            "{name}: {:?}",
            traced.notes
        );
        // The budget sums to the traced run by construction.
        let (total, run) = (traced.budget.total_s(), traced.budget.traced_run_s);
        assert!(
            (total - run).abs() <= 0.02 * run,
            "{name}: {total} vs {run}"
        );
        assert_eq!(metric("runtime.traced_run_s"), Some(run), "{name}");
        // Planes off: their layers are absent, the model counters exact.
        assert_eq!(metric("fault.availability"), Some(1.0), "{name}");
        assert_eq!(metric("protect.failed_queries"), Some(0.0), "{name}");
        assert_eq!(metric("protect.sheds"), None, "{name}");
        assert_eq!(metric("csd.cache.hit_rate"), None, "{name}");
        assert!(
            metric("csd.sched.decisions").is_some_and(|n| n > 0.0),
            "{name}"
        );
        if kind == Kind::PullClosed {
            // One outstanding GET per tenant: a switch per delivery.
            assert!(
                metric("csd.switches_per_request").is_some_and(|r| r >= 0.95),
                "{name}"
            );
        }
        // The trace is one JSON document with the spans the README
        // names.
        let trace = Json::parse(&traced.recorder.to_json(name).encode()).expect("trace parses");
        let spans = trace.get("spans").and_then(Json::as_array).expect("spans");
        for wanted in [
            "setup",
            "run",
            "run.untraced",
            "assembly",
            "replay.fleet",
            "replay.pump",
            "replay.device",
            "probe.calendar",
        ] {
            assert!(
                spans
                    .iter()
                    .any(|s| s.get("name").and_then(Json::as_str) == Some(wanted)),
                "{name}: no '{wanted}' span"
            );
        }
    }
}

#[test]
fn workloads_without_a_replay_still_get_a_budget() {
    let traced = layers::traced(Kind::TpchMjoin, Params::new(HELD_OUT_SEED).shrunk(16), 0.0)
        .unwrap_or_else(|violations| panic!("{violations:?}"));
    let metric = |m: &str| traced.metrics.get(m);
    assert_eq!(metric("fleet.replay_s"), None);
    assert!(metric("relational.probe_ops").is_some_and(|n| n > 0.0));
    assert!(metric("engine.share").is_some_and(|s| s > 0.5));
    let (total, run) = (traced.budget.total_s(), traced.budget.traced_run_s);
    assert!((total - run).abs() <= 0.02 * run, "{total} vs {run}");
}

#[test]
fn the_result_line_has_exactly_the_contract_keys() {
    let kind = Kind::BatchClosed;
    let e2e = end_to_end(kind, Params::new(HELD_OUT_SEED).shrunk(64), 0.0)
        .unwrap_or_else(|violations| panic!("{violations:?}"));
    assert_eq!(e2e.repeats, MIN_REPEATS);
    assert_eq!(e2e.run_samples.len(), MIN_REPEATS);
    assert_eq!(quartiles(&e2e.run_samples), e2e.run);
    let line = result_line(e2e.offered * e2e.repeats as u64, &e2e.metrics);
    assert!(!line.contains('\n'));
    let doc = Json::parse(&line).expect("result line parses");
    let keys: Vec<&str> = doc
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(doc
        .get("attempted")
        .and_then(Json::as_f64)
        .is_some_and(|n| n >= 1.0));
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics");
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let declared: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    assert_eq!(names, declared);
    for (name, metric) in metrics {
        let value = metric.get("value").and_then(Json::as_f64);
        assert!(value.is_some_and(|v| v != 0.0), "{name} is zero or absent");
        assert!(
            metric.get("unit").and_then(Json::as_str).is_some(),
            "{name}"
        );
    }
}

/// `BENCHMARK.json` at the root of the checkout this test was built in.
fn declared_benchmark() -> Json {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared_metrics<'a>(doc: &'a Json, list: &str) -> Vec<&'a Json> {
    doc.get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"))
        .iter()
        .collect()
}

fn assert_same_metrics(declared: &[&Json], registry: &[MetricDef], list: &str) {
    let field = |m: &Json, key: &str| {
        m.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{list}: metric without {key}"))
            .to_string()
    };
    let declared_names: BTreeSet<String> = declared.iter().map(|m| field(m, "name")).collect();
    let registry_names: BTreeSet<String> = registry.iter().map(|d| d.name.to_string()).collect();
    assert_eq!(declared_names, registry_names, "{list} names differ");
    assert_eq!(declared.len(), registry.len(), "{list} has a duplicate");
    for metric in declared {
        let name = field(metric, "name");
        let def = registry
            .iter()
            .find(|d| d.name == name)
            .expect("same names");
        assert_eq!(field(metric, "unit"), def.unit, "{name} unit");
        assert_eq!(
            field(metric, "better"),
            def.better.label(),
            "{name} direction"
        );
        assert_eq!(
            metric.get("bound").and_then(Json::as_f64),
            def.bound,
            "{name} bound"
        );
    }
}

#[test]
fn benchmark_json_declares_what_the_program_emits() {
    let doc = declared_benchmark();
    assert_same_metrics(
        &declared_metrics(&doc, "end_to_end"),
        &END_TO_END,
        "end_to_end",
    );
    assert_same_metrics(
        &declared_metrics(&doc, "per_layer"),
        &PER_LAYER,
        "per_layer",
    );

    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    let own: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(workloads, own);
    for name in &own {
        assert_eq!(Kind::parse(name).map(Kind::name), Some(*name));
        assert!(name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
    }

    // The command builds and runs this package and nothing else.
    let command: Vec<&str> = doc
        .get("command")
        .and_then(Json::as_array)
        .expect("command")
        .iter()
        .map(|c| c.as_str().expect("command strings"))
        .collect();
    assert!(command.contains(&"benchmark/Cargo.toml") && command.contains(&"--offline"));
    assert_eq!(command.last(), Some(&"run"));
    assert_eq!(
        doc.get("paths").and_then(Json::as_array).map(|p| p.len()),
        Some(1)
    );
}

/// Slow (every workload at full size on ten seeds, release build):
/// `cargo test --release -- --ignored`. Holds the calibration to the
/// declared bounds: across seeds, no virtual-time metric may spread by
/// more than half its bound, and `open_plain` must sit at its knee.
#[test]
#[ignore = "ten full-size runs per workload; run with --release -- --ignored"]
fn virtual_time_metrics_spread_less_than_their_bounds_across_seeds() {
    for kind in Kind::ALL {
        let mut columns: Vec<Vec<f64>> = vec![Vec::new(); 5];
        for seed in 1..=10 {
            let run = run_once(kind, Params::new(seed));
            let sim = SimOutcome::of(&run.expect, &run.result);
            for (column, value) in columns.iter_mut().zip([
                sim.makespan_s,
                sim.p50_response_s,
                sim.p99_response_s,
                sim.dollars_per_query,
                sim.completed_share,
            ]) {
                column.push(value);
            }
        }
        for (def, column) in END_TO_END[3..].iter().zip(&columns) {
            let spread = quartiles(column).spread();
            let bound = def.bound.expect("end-to-end bound");
            println!(
                "{} {}: spread {:.2} % of the median",
                kind.name(),
                def.name,
                100.0 * spread
            );
            assert!(
                spread <= bound / 2.0,
                "{} {} spreads {spread:.3} across seeds, bound {bound}",
                kind.name(),
                def.name
            );
            if def.unit == "s" {
                let distinct: BTreeSet<u64> = column.iter().map(|v| v.to_bits()).collect();
                assert!(
                    distinct.len() > 1,
                    "{} {} ignores the seed",
                    kind.name(),
                    def.name
                );
            }
        }
    }
    let run = run_once(Kind::OpenPlain, Params::new(DEFAULT_SEED));
    let attainment = SimOutcome::of(&run.expect, &run.result)
        .slo_attainment
        .expect("open_plain declares an SLO");
    assert!(
        (0.80..=0.97).contains(&attainment),
        "attainment {attainment}"
    );
    let run = run_once(Kind::OpenPlanes, Params::new(DEFAULT_SEED));
    let share = SimOutcome::of(&run.expect, &run.result).completed_share;
    assert!(
        (0.85..=0.99).contains(&share),
        "open_planes completes {share}"
    );
    for (name, count) in check::plane_counters(&run.result) {
        assert!(count > 0, "open_planes: no {name} on the default seed");
    }
}
