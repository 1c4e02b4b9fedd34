//! `compare A.json B.json`: do two result files agree within the
//! benchmark's own bounds?
//!
//! One row per workload; each end-to-end metric is `agrees`, `differs`
//! (B is worse or better than A by more than the bound — two runs of
//! one program should be neither) or `unresolved` (a run-to-run
//! quartile spread wider than the bound, so the bound cannot be
//! checked). Every ratio is printed with its base. Virtual-time metrics
//! and model counters must be identical, not merely close.

use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};

/// Per-layer metrics that are counts made by the program: for one seed
/// they repeat exactly, so any difference is a model change.
const EXACT_LAYER_PREFIXES: [&str; 11] = [
    "csd.switches",
    "csd.transfer_utilisation",
    "csd.cache.",
    "csd.energy_wh",
    "csd.queue.peak_depth",
    "csd.sched.decisions",
    "engine.calls",
    "relational.",
    "fault.",
    "protect.",
    "sim.calendar.events",
];

/// The allocation count repeats only almost exactly: the runtime keeps
/// `std` hash maps with per-process random keys, and whether a removal
/// leaves a tombstone — and so when a map next re-allocates — depends
/// on where the keys happened to land. Two runs differ by a handful of
/// allocations in hundreds of thousands.
const ALLOCS: &str = "runtime.allocs_per_request";
const ALLOCS_TOLERANCE: f64 = 1e-3;

/// Verdict on one `(workload, metric)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (identical, for virtual-time metrics).
    Agrees,
    /// Outside the bound.
    Differs,
    /// The spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Agrees => "agrees",
            Verdict::Differs => "differs",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric of one result file.
struct Sample {
    value: f64,
    /// `(q3 − q1) / median`, when the file carries quartiles.
    spread: Option<f64>,
}

fn sample(detail: &Json, name: &str) -> Option<Sample> {
    let metric = detail.get("metrics")?.get(name)?;
    let value = metric.get("value")?.as_f64()?;
    let spread = match (
        metric.get("q1").and_then(Json::as_f64),
        metric.get("q3").and_then(Json::as_f64),
    ) {
        (Some(q1), Some(q3)) if value != 0.0 => Some((q3 - q1).abs() / value.abs()),
        _ => None,
    };
    Some(Sample { value, spread })
}

/// Judges one end-to-end metric: `a` is the base.
fn judge(def: &MetricDef, a: &Sample, b: &Sample) -> Verdict {
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    if def.name.starts_with("sim_") {
        return if a.value == b.value {
            Verdict::Agrees
        } else {
            Verdict::Differs
        };
    }
    if a.spread.is_some_and(|s| s > bound) || b.spread.is_some_and(|s| s > bound) {
        return Verdict::Unresolved;
    }
    if ((b.value - a.value) / a.value).abs() > bound {
        Verdict::Differs
    } else {
        Verdict::Agrees
    }
}

/// Compares two parsed result files; returns the report and whether
/// every metric agreed.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let workloads = a
        .get("workloads")
        .and_then(Json::as_object)
        .ok_or("first file has no \"workloads\" object")?;
    let mut report = String::new();
    let mut all_agree = true;
    for (name, entry_a) in workloads {
        let entry_b = b
            .get("workloads")
            .and_then(|w| w.get(name))
            .ok_or_else(|| format!("second file has no workload '{name}'"))?;
        let (Some(e2e_a), Some(e2e_b)) = (entry_a.get("end_to_end"), entry_b.get("end_to_end"))
        else {
            return Err(format!("workload '{name}' lacks an end_to_end block"));
        };
        let mut row = format!("{name}:");
        for def in &END_TO_END {
            let (Some(sa), Some(sb)) = (sample(e2e_a, def.name), sample(e2e_b, def.name)) else {
                return Err(format!("workload '{name}' lacks metric '{}'", def.name));
            };
            let verdict = judge(def, &sa, &sb);
            all_agree &= verdict == Verdict::Agrees;
            let spread = match (sa.spread, sb.spread) {
                (Some(x), Some(y)) => format!(", spreads {:.1} %/{:.1} %", 100.0 * x, 100.0 * y),
                _ => String::new(),
            };
            row.push_str(&format!(
                " {} {} [{} vs base {} {}: {:+.2} % of {}, bound {:.0} %{spread}];",
                def.name,
                verdict.label(),
                sb.value,
                sa.value,
                def.unit,
                100.0 * (sb.value - sa.value) / sa.value,
                sa.value,
                100.0 * def.bound.unwrap_or(0.0),
            ));
        }
        // Model counters of the traced pass, when both files have one.
        if let (Some(layer_a), Some(layer_b)) = (entry_a.get("per_layer"), entry_b.get("per_layer"))
        {
            let mut same = 0usize;
            let mut changed = Vec::new();
            for def in PER_LAYER
                .iter()
                .filter(|d| EXACT_LAYER_PREFIXES.iter().any(|p| d.name.starts_with(p)))
            {
                let value = |detail: &Json| {
                    detail
                        .get("metrics")
                        .and_then(|m| m.get(def.name))
                        .and_then(|m| m.get("value"))
                        .cloned()
                };
                if value(layer_a) == value(layer_b) {
                    same += 1;
                } else {
                    changed.push(def.name);
                }
            }
            let allocs = |detail: &Json| sample(detail, ALLOCS).map(|s| s.value);
            if let (Some(x), Some(y)) = (allocs(layer_a), allocs(layer_b)) {
                if (y - x).abs() <= ALLOCS_TOLERANCE * x.abs() {
                    same += 1;
                } else {
                    changed.push(ALLOCS);
                }
            }
            all_agree &= changed.is_empty();
            row.push_str(&format!(" model counters: {same} identical"));
            if !changed.is_empty() {
                row.push_str(&format!(
                    ", {} DIFFER ({})",
                    changed.len(),
                    changed.join(" ")
                ));
            }
            row.push(';');
        }
        report.push_str(&row);
        report.push('\n');
    }
    Ok((report, all_agree))
}

/// The `compare` subcommand: exit code 0 when everything agrees, 1
/// otherwise.
pub fn main(args: &[String]) -> Result<i32, String> {
    let [a_path, b_path] = args else {
        return Err("compare wants exactly two result files".to_string());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))
    };
    let (report, all_agree) = compare(&load(a_path)?, &load(b_path)?)?;
    print!("{report}");
    println!(
        "{}",
        if all_agree {
            "every metric agrees within its bound"
        } else {
            "NOT every metric agrees: see the differs/unresolved entries above"
        }
    );
    Ok(i32::from(!all_agree))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A results file with one workload whose host throughput is
    /// `throughput` with quartiles ±`half_spread`, and makespan
    /// `makespan`.
    fn results(throughput: f64, half_spread: f64, makespan: f64) -> Json {
        let mut metrics = Json::object();
        for def in &END_TO_END {
            let value = match def.name {
                "host_requests_per_s" => throughput,
                "sim_makespan_s" => makespan,
                _ => 1.0,
            };
            let mut metric = Json::object()
                .set("value", Json::Num(value))
                .set("unit", Json::Str(def.unit.to_string()));
            if def.name == "host_requests_per_s" {
                metric = metric
                    .set("q1", Json::Num(value * (1.0 - half_spread)))
                    .set("q3", Json::Num(value * (1.0 + half_spread)));
            }
            metrics = metrics.set(def.name, metric);
        }
        Json::object().set(
            "workloads",
            Json::object().set(
                "w",
                Json::object().set("end_to_end", Json::object().set("metrics", metrics)),
            ),
        )
    }

    #[test]
    fn small_host_time_differences_agree_and_large_ones_differ() {
        let base = results(1_000_000.0, 0.01, 500.0);
        let (report, ok) = compare(&base, &results(1_030_000.0, 0.01, 500.0)).unwrap();
        assert!(ok, "{report}");
        assert!(report.starts_with("w:") && report.contains("host_requests_per_s agrees"));
        assert!(report.contains("+3.00 % of 1000000"), "{report}");
        let (report, ok) = compare(&base, &results(1_300_000.0, 0.01, 500.0)).unwrap();
        assert!(
            !ok && report.contains("host_requests_per_s differs"),
            "{report}"
        );
    }

    #[test]
    fn wide_spread_is_unresolved_and_sim_metrics_must_be_identical() {
        let base = results(1_000_000.0, 0.01, 500.0);
        let (report, ok) = compare(&base, &results(1_000_000.0, 0.2, 500.0)).unwrap();
        assert!(
            !ok && report.contains("host_requests_per_s unresolved"),
            "{report}"
        );
        let (report, ok) = compare(&base, &results(1_000_000.0, 0.01, 500.001)).unwrap();
        assert!(!ok && report.contains("sim_makespan_s differs"), "{report}");
    }

    #[test]
    fn malformed_files_are_errors_not_panics() {
        let base = results(1.0, 0.0, 1.0);
        assert!(compare(&Json::object(), &base).is_err());
        assert!(compare(&base, &Json::object()).is_err());
    }
}
