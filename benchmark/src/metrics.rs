//! The metric registry: every name the benchmark emits, with its unit,
//! direction and (end-to-end only) regression bound.
//!
//! `BENCHMARK.json` lists the same names; a unit test holds the two
//! together, so a metric cannot be emitted without being declared.
//! `host_*` metrics are host time, `sim_*` metrics are virtual time.

use crate::json::Json;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Emitted name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the simulator sees, on every workload. The bounds are
/// justified by the measured spreads in README.md.
pub const END_TO_END: [MetricDef; 8] = [
    e2e("host_requests_per_s", "GET/s", Higher, 0.25),
    e2e("host_peak_rss_mb", "MiB", Lower, 0.10),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("sim_makespan_s", "s", Lower, 0.10),
    e2e("sim_p50_response_s", "s", Lower, 0.15),
    e2e("sim_p99_response_s", "s", Lower, 0.25),
    e2e("sim_dollars_per_query", "usd", Lower, 0.10),
    e2e("sim_completed_share", "ratio", Higher, 0.05),
];

/// Single-layer metrics from the traced pass, grouped by module.
pub const PER_LAYER: [MetricDef; 57] = [
    layer("datagen.gen_s", "s", Lower),
    layer("datagen.rows_per_s", "1/s", Higher),
    layer("scenario.assembly_s", "s", Lower),
    layer("engine.busy_s", "s", Lower),
    layer("engine.share", "ratio", Lower),
    layer("engine.calls", "count", Lower),
    layer("engine.on_object_ns", "ns", Lower),
    layer("engine.build_ns", "ns", Lower),
    layer("engine.ns_per_probe", "ns", Lower),
    layer("engine.subplans", "count", Lower),
    layer("engine.reissue_ratio", "ratio", Lower),
    layer("relational.probe_ops", "count", Lower),
    layer("relational.scanned_tuples", "count", Lower),
    layer("fleet.replay_s", "s", Lower),
    layer("fleet.self_ns_per_request", "ns", Lower),
    layer("fleet.replay_matches", "count", Higher),
    layer("pump.replay_s", "s", Lower),
    layer("pump.self_ns_per_request", "ns", Lower),
    layer("csd.device.replay_s", "s", Lower),
    layer("csd.device.self_ns_per_request", "ns", Lower),
    layer("csd.sched.decisions", "count", Lower),
    layer("csd.sched.decide_ns", "ns", Lower),
    layer("csd.sched.switch_complete_ns", "ns", Lower),
    layer("csd.queue.peak_depth", "count", Lower),
    layer("csd.switches", "count", Lower),
    layer("csd.switches_per_request", "ratio", Lower),
    layer("csd.transfer_utilisation", "ratio", Higher),
    layer("csd.cache.hit_rate", "ratio", Higher),
    layer("csd.cache.demotions", "count", Lower),
    layer("csd.cache.evictions", "count", Lower),
    layer("csd.energy_wh", "Wh", Lower),
    layer("sim.calendar.events", "count", Lower),
    layer("sim.calendar.ns_per_event", "ns", Lower),
    layer("sim.sketch.ns_per_observation", "ns", Lower),
    layer("sim.slo_attainment", "ratio", Higher),
    layer("collector.stall_attribution_s", "s", Lower),
    layer("collector.full_mode_overhead", "ratio", Lower),
    layer("driver.excess_s", "s", Lower),
    layer("driver.excess_ns_per_request", "ns", Lower),
    layer("runtime.allocs_per_request", "count", Lower),
    layer("runtime.traced_run_s", "s", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("fault.availability", "ratio", Higher),
    layer("fault.failovers", "count", Lower),
    layer("fault.evacuated_requests", "count", Lower),
    layer("fault.parked_requests", "count", Lower),
    layer("protect.deadline_misses", "count", Lower),
    layer("protect.sheds", "count", Lower),
    layer("protect.retries", "count", Lower),
    layer("protect.hedges_fired", "count", Lower),
    layer("protect.hedge_win_ratio", "ratio", Higher),
    layer("protect.breaker_trips", "count", Lower),
    layer("protect.failed_queries", "count", Lower),
    layer("planes.host_ns_per_request_delta", "ns", Lower),
    layer("load.p99_at_0.5x_s", "s", Lower),
    layer("load.p99_at_1.5x_s", "s", Lower),
    layer("load.max_rate_meeting_slo", "ratio", Higher),
];

/// Measured values for one list of declared metrics.
#[derive(Clone, Debug)]
pub struct Values {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl Values {
    /// All-absent values for `defs`.
    pub fn new(defs: &'static [MetricDef]) -> Values {
        Values {
            defs,
            values: vec![None; defs.len()],
        }
    }

    /// Records `name`; a non-finite value counts as absent.
    ///
    /// # Panics
    /// Panics on an undeclared name — the registry is the contract.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric '{name}' is not declared in the registry"));
        self.values[slot] = value.is_finite().then_some(value);
    }

    /// [`Values::set`] when the layer produced a value at all.
    pub fn set_opt(&mut self, name: &str, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        }
    }

    /// The recorded value of `name`.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.defs
            .iter()
            .position(|d| d.name == name)
            .and_then(|slot| self.values[slot])
    }

    /// Declared metrics with their values, in registry order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, Option<f64>)> + '_ {
        self.defs.iter().zip(self.values.iter().copied())
    }

    /// The `metrics` object of the result line: every declared metric
    /// as `{"value", "unit"}`. A layer the workload does not exercise
    /// did no work, so it reads 0 here (`null` in `results.json`).
    pub fn result_line(&self) -> Json {
        let mut metrics = Json::object();
        for (def, value) in self.iter() {
            metrics = metrics.set(
                def.name,
                Json::object()
                    .set("value", Json::Num(value.unwrap_or(0.0)))
                    .set("unit", Json::Str(def.unit.to_string())),
            );
        }
        metrics
    }

    /// One `name value unit` line per metric, for people.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (def, value) in self.iter() {
            let shown = value.map_or("n/a (layer not exercised)".to_string(), |v| format!("{v}"));
            out.push_str(&format!(
                "  {:<34} {shown} {} ({} is better)\n",
                def.name,
                def.unit,
                def.better.label()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_declared_alphabets() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(def.name), "bad metric name {}", def.name);
            assert!(unit_ok(def.unit), "bad unit {} on {}", def.unit, def.name);
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
        }
        for def in &END_TO_END {
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", def.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
    }

    #[test]
    fn values_reject_undeclared_names_and_render_absent_layers() {
        let mut v = Values::new(&PER_LAYER);
        v.set("engine.busy_s", 0.25);
        v.set("engine.share", f64::NAN);
        assert_eq!(v.get("engine.busy_s"), Some(0.25));
        assert_eq!(v.get("engine.share"), None);
        let line = v.result_line();
        assert_eq!(
            line.get("engine.busy_s").and_then(|m| m.get("value")),
            Some(&Json::Num(0.25))
        );
        assert_eq!(
            line.get("fleet.replay_s").and_then(|m| m.get("value")),
            Some(&Json::Num(0.0))
        );
        assert!(std::panic::catch_unwind(move || v.set("no.such.metric", 1.0)).is_err());
    }
}
