//! In-memory spans for the traced pass, written out when it ends.
//!
//! Spans are recorded from the benchmark's own files around calls into
//! each layer: `{name, start_ns, end_ns, parent, id}`. Engine calls
//! would be millions of spans, so they are aggregated to one span per
//! engine instance that carries its call count and busy time; such a
//! span covers `busy_ns` of its parent, not its whole interval (the
//! intervals of concurrent tenants overlap).

use std::time::Instant;

use crate::json::Json;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index in the recorder (also the span's id).
    pub id: u32,
    /// Enclosing span.
    pub parent: Option<u32>,
    /// Layer-qualified name, e.g. `replay.fleet`.
    pub name: String,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Time actually spent inside, when less than the interval
    /// (aggregated spans only).
    pub busy_ns: Option<u64>,
    /// Extra numbers carried by the span (call counts and the like).
    pub attrs: Vec<(String, f64)>,
}

impl Span {
    /// What the span covers of its parent: `busy_ns` for aggregated
    /// spans, the interval otherwise.
    pub fn cover_ns(&self) -> u64 {
        self.busy_ns.unwrap_or(self.end_ns - self.start_ns)
    }
}

/// Collects spans; open spans nest.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant `start_ns`/`end_ns` count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `body` inside a new span named `name`, child of whichever
    /// span is open; returns `body`'s value and the span's seconds.
    pub fn scope<T>(&mut self, name: &str, body: impl FnOnce(&mut Recorder) -> T) -> (T, f64) {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            busy_ns: None,
            attrs: Vec::new(),
        });
        self.open.push(id);
        let value = body(self);
        let end_ns = self.now_ns();
        self.open.pop();
        self.spans[id as usize].end_ns = end_ns;
        (value, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// Attaches a number to the innermost open span.
    pub fn attr(&mut self, key: &str, value: f64) {
        if let Some(&id) = self.open.last() {
            self.spans[id as usize].attrs.push((key.to_string(), value));
        }
    }

    /// Adds an already-measured aggregated span under `parent`.
    pub fn aggregated(
        &mut self,
        parent: u32,
        name: String,
        interval: (u64, u64),
        busy_ns: u64,
        attrs: Vec<(String, f64)>,
    ) {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: Some(parent),
            name,
            start_ns: interval.0,
            end_ns: interval.1.max(interval.0),
            busy_ns: Some(busy_ns),
            attrs,
        });
    }

    /// Id of the most recently opened span named `name`.
    pub fn find(&self, name: &str) -> Option<u32> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map(|s| s.id)
    }

    /// Every span, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus what its children cover.
    pub fn self_ns(&self, id: u32) -> u64 {
        let span = &self.spans[id as usize];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::cover_ns)
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    /// The trace file: every span plus the workload it belongs to.
    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let mut span = Json::object()
                    .set("id", Json::Num(s.id as f64))
                    .set(
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    )
                    .set("name", Json::Str(s.name.clone()))
                    .set("start_ns", Json::Num(s.start_ns as f64))
                    .set("end_ns", Json::Num(s.end_ns as f64))
                    .set("self_ns", Json::Num(self.self_ns(s.id) as f64));
                if let Some(busy) = s.busy_ns {
                    span = span.set("busy_ns", Json::Num(busy as f64));
                }
                for (key, value) in &s.attrs {
                    span = span.set(key, Json::Num(*value));
                }
                span
            })
            .collect();
        Json::object()
            .set("workload", Json::Str(workload.to_string()))
            .set(
                "clock",
                Json::Str("host monotonic, ns since trace start".into()),
            )
            .set("spans", Json::Arr(spans))
    }
}

/// One line of the per-layer budget.
#[derive(Clone, Debug)]
pub struct BudgetLine {
    /// Layer name (module path style).
    pub layer: &'static str,
    /// Self seconds attributed to the layer.
    pub self_s: f64,
}

/// The per-workload budget: layer self times that sum to the traced
/// run by construction (`driver` is the residual).
#[derive(Clone, Debug)]
pub struct Budget {
    /// Host seconds of the traced `run()` the lines add up to.
    pub traced_run_s: f64,
    /// GETs the run issued (the per-request divisor).
    pub requests: u64,
    /// One line per layer, in stack order.
    pub lines: Vec<BudgetLine>,
}

impl Budget {
    /// Sum of the lines (equals `traced_run_s` up to float rounding).
    pub fn total_s(&self) -> f64 {
        self.lines.iter().map(|l| l.self_s).sum()
    }

    /// The table: layer, self seconds, share of the run, ns/request.
    pub fn render(&self, workload: &str) -> String {
        let mut out = format!(
            "budget {workload}: traced run {:.4} s over {} GETs\n  {:<24} {:>10} {:>8} {:>12}\n",
            self.traced_run_s, self.requests, "layer", "self s", "share", "ns/request"
        );
        for line in &self.lines {
            out.push_str(&format!(
                "  {:<24} {:>10.4} {:>7.1}% {:>12.1}\n",
                line.layer,
                line.self_s,
                100.0 * line.self_s / self.traced_run_s,
                1e9 * line.self_s / self.requests.max(1) as f64
            ));
        }
        out.push_str(&format!(
            "  {:<24} {:>10.4} {:>7.1}%\n",
            "sum",
            self.total_s(),
            100.0 * self.total_s() / self.traced_run_s
        ));
        out
    }

    /// The same table as JSON (for `results.json` and the trace file).
    pub fn to_json(&self) -> Json {
        Json::object()
            .set("traced_run_s", Json::Num(self.traced_run_s))
            .set("requests", Json::Num(self.requests as f64))
            .set(
                "lines",
                Json::Arr(
                    self.lines
                        .iter()
                        .map(|l| {
                            Json::object()
                                .set("layer", Json::Str(l.layer.to_string()))
                                .set("self_s", Json::Num(l.self_s))
                                .set("share", Json::Num(l.self_s / self.traced_run_s))
                        })
                        .collect(),
                ),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut rec = Recorder::new();
        let ((), outer_s) = rec.scope("outer", |rec| {
            rec.scope("inner", |rec| {
                rec.attr("calls", 3.0);
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].attrs, vec![("calls".to_string(), 3.0)]);
        assert!(outer_s >= 0.002);
        let inner = spans[1].end_ns - spans[1].start_ns;
        let outer = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(rec.self_ns(0), outer - inner);
        assert_eq!(rec.find("inner"), Some(1));
    }

    #[test]
    fn aggregated_spans_cover_their_busy_time_only() {
        let mut rec = Recorder::new();
        rec.scope("run", |_| {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let run = rec.find("run").unwrap();
        let end = rec.spans()[0].end_ns;
        rec.aggregated(run, "engine t0".into(), (0, end), 1_000, vec![]);
        rec.aggregated(run, "engine t1".into(), (0, end), 2_000, vec![]);
        let duration = rec.spans()[0].end_ns - rec.spans()[0].start_ns;
        assert_eq!(rec.self_ns(run), duration - 3_000);
        let doc = Json::parse(&rec.to_json("w").encode()).unwrap();
        assert_eq!(doc.get("spans").and_then(Json::as_array).unwrap().len(), 3);
    }

    #[test]
    fn budget_renders_every_line_and_the_sum() {
        let budget = Budget {
            traced_run_s: 2.0,
            requests: 1_000_000,
            lines: vec![
                BudgetLine {
                    layer: "engine",
                    self_s: 0.5,
                },
                BudgetLine {
                    layer: "driver",
                    self_s: 1.5,
                },
            ],
        };
        assert_eq!(budget.total_s(), 2.0);
        let table = budget.render("w");
        assert!(table.contains("engine") && table.contains("driver") && table.contains("sum"));
        assert!(table.contains("25.0%") && table.contains("100.0%"));
    }
}
