//! Command line: `run` (one workload, this process), `all` (every
//! workload, one child process each) and `compare`.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use crate::compare;
use crate::json::Json;
use crate::layers::{self, Traced};
use crate::measure::{self, EndToEnd};
use crate::metrics::Values;
use crate::stats::Quartiles;
use crate::workloads::{Kind, Params, DEFAULT_SEED};

/// `--seconds` when `all` is not told otherwise: 9 repeats of the
/// slowest workload fit on the host the constants were calibrated on.
const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str = "usage:
  skipper-benchmark run --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
  skipper-benchmark all [--seed <n>] [--seconds <s>] [--traced] [--out <file>]
  skipper-benchmark compare <a.json> <b.json>
workloads: batch_closed pull_closed tpch_mjoin open_plain open_planes";

/// Dispatches on the first argument; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("all") => all(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        // The driver's form: flags only, `run` implied.
        Some(flag) if flag.starts_with("--") => run(args),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            2
        }
    }
}

/// Where result and trace files go: `out/` next to this package's
/// manifest, inside the checkout the binary was built from.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Flags shared by `run` and `all`, checked where they enter.
struct Flags {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("missing value for {flag}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                flags.workload = Some(
                    Kind::parse(name)
                        .ok_or_else(|| format!("unknown workload '{name}'\n{USAGE}"))?,
                );
            }
            "--seed" => {
                let text = value()?;
                flags.seed = text
                    .parse()
                    .map_err(|_| format!("--seed wants a whole number, got '{text}'"))?;
            }
            "--seconds" => {
                let text = value()?;
                flags.seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0 && *s <= 3_600.0)
                    .ok_or_else(|| format!("--seconds wants 0..3600, got '{text}'"))?;
            }
            "--trace" => {
                flags.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got '{other}'")),
                };
            }
            "--traced" => flags.traced = true,
            "--out" => flags.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    Ok(flags)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Per-run detail file `all` merges into `results.json`.
fn detail_path(kind: Kind, traced: bool) -> PathBuf {
    out_dir().join(format!(
        "run-{}-trace{}.json",
        kind.name(),
        u8::from(traced)
    ))
}

/// The metrics of a detail file: value and unit, plus quartiles and
/// sample count where the value is a median. Absent layers are `null`.
fn metrics_detail(values: &Values, spreads: &[(&str, Quartiles)]) -> Json {
    let mut out = Json::object();
    for (def, value) in values.iter() {
        let mut metric = Json::object()
            .set("value", Json::num(value))
            .set("unit", Json::Str(def.unit.to_string()));
        if let Some((_, q)) = spreads.iter().find(|(name, _)| *name == def.name) {
            metric = metric
                .set("q1", Json::Num(q.q1))
                .set("q3", Json::Num(q.q3))
                .set("samples", Json::Num(q.samples as f64));
        }
        out = out.set(def.name, metric);
    }
    out
}

/// The one JSON line the driver reads. A run that fails an oracle
/// prints no line at all, so a printed line is always `correct`.
pub fn result_line(attempted: u64, values: &Values) -> String {
    Json::object()
        .set("correct", Json::Bool(true))
        // Operations are the queries the simulator was asked to
        // simulate; one fails when an oracle cannot account for it, and
        // then the run prints no result at all. Queries the *model*
        // sheds or cancels are results (`sim_completed_share`,
        // `protect.failed_queries`), not failures of the program.
        .set("attempted", Json::Num(attempted as f64))
        .set("failed", Json::Num(0.0))
        .set("metrics", values.result_line())
        .encode()
}

fn run(args: &[String]) -> Result<i32, String> {
    let flags = parse_flags(args)?;
    let kind = flags
        .workload
        .ok_or_else(|| format!("run needs --workload\n{USAGE}"))?;
    let params = Params::new(flags.seed);
    let clock = Instant::now();
    let header = Json::object()
        .set("workload", Json::Str(kind.name().to_string()))
        .set("seed", Json::Num(flags.seed as f64))
        .set("seconds", Json::Num(flags.seconds))
        .set("trace", Json::Num(f64::from(u8::from(flags.traced))))
        .set("correct", Json::Bool(true));
    let measured = if flags.traced {
        layers::traced(kind, params, flags.seconds).map(|t| report_traced(kind, header, &t))
    } else {
        measure::end_to_end(kind, params, flags.seconds)
            .map(|e| Ok(report_end_to_end(kind, header, &e)))
    };
    let (detail, line) = match measured {
        Ok(report) => report?,
        Err(violations) => return Ok(report_violations(kind.name(), &violations)),
    };
    let wall_s = clock.elapsed().as_secs_f64();
    write_file(
        &detail_path(kind, flags.traced),
        &detail.set("wall_s", Json::Num(wall_s)).encode(),
    )?;
    println!(
        "total wall time{}: {wall_s:.1} s",
        if flags.traced {
            " of the traced pass"
        } else {
            ""
        }
    );
    println!("{line}");
    Ok(0)
}

/// Prints the notes and returns them for the detail file.
fn emit_notes(notes: &[String]) -> Json {
    for note in notes {
        println!("note: {note}");
    }
    Json::Arr(notes.iter().cloned().map(Json::Str).collect())
}

/// Prints the traced pass for people and writes the trace file;
/// returns the detail document (started in `header`) and the result
/// line.
fn report_traced(kind: Kind, header: Json, traced: &Traced) -> Result<(Json, String), String> {
    let name = kind.name();
    println!(
        "workload {name}, traced pass: {} round(s), {} queries offered per run",
        traced.rounds, traced.offered
    );
    print!("{}", traced.metrics.render());
    print!("{}", traced.budget.render(name));
    let notes = emit_notes(&traced.notes);
    let trace_path = out_dir().join(format!("trace-{name}.json"));
    let trace = traced
        .recorder
        .to_json(name)
        .set("budget", traced.budget.to_json());
    write_file(&trace_path, &trace.encode())?;
    println!(
        "trace: {} spans in {}",
        traced.recorder.spans().len(),
        trace_path.display()
    );
    let detail = header
        .set("rounds", Json::Num(traced.rounds as f64))
        .set("metrics", metrics_detail(&traced.metrics, &[]))
        .set("budget", traced.budget.to_json())
        .set("notes", notes);
    let line = result_line(traced.offered * traced.rounds as u64, &traced.metrics);
    Ok((detail, line))
}

/// Prints the end-to-end pass for people; returns the detail document
/// (started in `header`) and the result line.
fn report_end_to_end(kind: Kind, header: Json, e2e: &EndToEnd) -> (Json, String) {
    println!(
        "workload {}: {} timed repeats after 1 warm-up, {} GETs and {} queries per run",
        kind.name(),
        e2e.repeats,
        e2e.requests,
        e2e.offered
    );
    print!("{}", e2e.metrics.render());
    for (label, q) in [("run_s  ", &e2e.run), ("setup_s", &e2e.setup)] {
        println!(
            "  {label} median {:.4} quartiles [{:.4}, {:.4}] spread {:.1} %",
            q.median,
            q.q1,
            q.q3,
            100.0 * q.spread()
        );
    }
    let failed = e2e.offered - e2e.sim.completed;
    println!(
        "  ops_attempted {} ops_failed {failed} (modelled: shed, deadline-missed or \
         retry-exhausted)",
        e2e.offered
    );
    if let Some(attainment) = e2e.sim.slo_attainment {
        println!("  sim SLO attainment {attainment:.4} of the queries offered");
    }
    // Throughput is requests over run time, so its quartiles are the
    // run-time quartiles swapped.
    let requests = e2e.requests as f64;
    let throughput = Quartiles {
        q1: requests / e2e.run.q3,
        median: requests / e2e.run.median,
        q3: requests / e2e.run.q1,
        samples: e2e.run.samples,
    };
    let detail = header
        .set("repeats", Json::Num(e2e.repeats as f64))
        .set("requests", Json::Num(requests))
        .set("ops_attempted", Json::Num(e2e.offered as f64))
        .set("ops_failed", Json::Num(failed as f64))
        .set(
            "metrics",
            metrics_detail(
                &e2e.metrics,
                &[("host_requests_per_s", throughput), ("setup_s", e2e.setup)],
            ),
        )
        .set("run_s_samples", samples_json(&e2e.run_samples))
        .set("setup_s_samples", samples_json(&e2e.setup_samples))
        .set("notes", emit_notes(&e2e.notes));
    let line = result_line(e2e.offered * e2e.repeats as u64, &e2e.metrics);
    (detail, line)
}

fn samples_json(samples: &[f64]) -> Json {
    Json::Arr(samples.iter().map(|&s| Json::Num(s)).collect())
}

/// An oracle failed: say why on stderr, print no result, exit non-zero.
fn report_violations(name: &str, violations: &[String]) -> i32 {
    eprintln!("workload {name} FAILED its correctness oracles; no result is reported:");
    for violation in violations {
        eprintln!("  {violation}");
    }
    1
}

fn all(args: &[String]) -> Result<i32, String> {
    let flags = parse_flags(args)?;
    if flags.workload.is_some() {
        return Err(format!("all runs every workload; drop --workload\n{USAGE}"));
    }
    let clock = Instant::now();
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut workloads = Json::object();
    // One child per workload, one after the other: each gets a clean
    // allocator and its own peak-RSS high-water mark.
    for kind in Kind::ALL {
        let mut entry = Json::object();
        for traced in [false, true] {
            if traced && !flags.traced {
                continue;
            }
            let status = Command::new(&exe)
                .arg("run")
                .args(["--workload", kind.name()])
                .args(["--seed", &flags.seed.to_string()])
                .args(["--seconds", &flags.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!("workload {} failed ({status})", kind.name()));
            }
            let path = detail_path(kind, traced);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            let detail =
                Json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
            entry = entry.set(if traced { "per_layer" } else { "end_to_end" }, detail);
            println!();
        }
        workloads = workloads.set(kind.name(), entry);
    }
    let wall_s = clock.elapsed().as_secs_f64();
    let results = Json::object()
        .set("schema", Json::Str("skipper-benchmark/v1".to_string()))
        .set("seed", Json::Num(flags.seed as f64))
        .set("seconds", Json::Num(flags.seconds))
        .set("traced", Json::Bool(flags.traced))
        .set("wall_s", Json::Num(wall_s))
        .set("workloads", workloads);
    let path = flags.out.unwrap_or_else(|| out_dir().join("results.json"));
    write_file(&path, &results.encode())?;
    println!("results: {}", path.display());
    println!(
        "total wall time{}: {wall_s:.1} s",
        if flags.traced { " with --traced" } else { "" }
    );
    Ok(0)
}
