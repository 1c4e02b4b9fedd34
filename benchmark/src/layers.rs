//! The traced pass: per-layer metrics, spans and the budget table.
//!
//! Runs apart from the end-to-end pass (those numbers are always
//! measured with decorators off). Everything is measured from the
//! benchmark's own files, around calls into each layer's public
//! functions:
//!
//! * `engine` — in situ, through the [`TimedFactory`] decorator;
//! * `fleet` / `pump` / `csd` — by stacked replay (see [`replay`]);
//! * `sim`, `collector` — by probes that re-drive the run's own event
//!   sequence, response times and spans through the public types;
//! * `driver` — the residual, so the budget sums to the traced run.
//!
//! The plane hooks are crate-private, so `open_planes` and
//! `tpch_mjoin` have no replay: their device stack stays inside the
//! `driver` residual until the runtime records spans itself.
//!
//! [`TimedFactory`]: crate::engines::TimedFactory

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use skipper_core::runtime::RunResult;
use skipper_sim::trace::Span as DeviceSpan;
use skipper_sim::{MergedTimeline, QuantileSketch, SimTime};

use crate::check;
use crate::engines::{timer_cost_ns, EngineLog};
use crate::measure::{run_once, Run, SimOutcome};
use crate::metrics::{Values, PER_LAYER};
use crate::replay::{self, assemble, calendar_probe, Keep, SchedCost};
use crate::stats::median;
use crate::trace::{Budget, BudgetLine, Recorder};
use crate::workloads::{last_release, setup, DatagenCost, Kind, Observe, Params, OPEN_SLO};

/// Rounds never exceed this, however long `--seconds` is.
const MAX_ROUNDS: usize = 9;
/// Rate multipliers of the load ladder (1.0 is the traced run itself).
const LADDER: [f64; 2] = [0.5, 1.5];

/// Result of the traced pass on one workload.
pub struct Traced {
    /// The declared per-layer metrics.
    pub metrics: Values,
    /// Layer self times summing to the traced run.
    pub budget: Budget,
    /// Every span recorded.
    pub recorder: Recorder,
    /// Measurement rounds behind the medians.
    pub rounds: usize,
    /// Queries offered in one run.
    pub offered: u64,
    /// Remarks a reader needs next to the numbers.
    pub notes: Vec<String>,
}

/// Engine-layer totals of one traced run.
#[derive(Clone, Copy, Debug, Default)]
struct EngineTotals {
    engines: u64,
    calls: u64,
    on_object_ns: u64,
    build_ns: u64,
    probe_ops: u64,
    scanned_tuples: u64,
    subplans: u64,
    reissues: u64,
    gets_issued: u64,
}

impl EngineTotals {
    /// Seconds inside the engines, less what the clock reads around
    /// every timed call (`on_object`, `build`, `start`) measure of
    /// themselves.
    fn busy_s(&self, timer_ns: f64) -> f64 {
        let measured = (self.on_object_ns + self.build_ns) as f64;
        let timer = timer_ns * (self.calls + 2 * self.engines) as f64;
        (measured - timer).max(0.0) * 1e-9
    }

    /// Mean nanoseconds of one `on_object`, clock reads removed.
    fn on_object_ns(&self, timer_ns: f64) -> f64 {
        (self.on_object_ns as f64 / self.calls as f64 - timer_ns).max(0.0)
    }

    /// Mean nanoseconds of one `build` + `start`, clock reads removed.
    fn build_ns(&self, timer_ns: f64) -> f64 {
        (self.build_ns as f64 / self.engines as f64 - 2.0 * timer_ns).max(0.0)
    }
}

/// Host seconds of the three replay levels plus what only the
/// instrumented device-level replay yields.
struct ReplayRound {
    fleet_s: f64,
    pump_s: f64,
    device_s: f64,
    calendar_ops: u64,
    calendar_s: f64,
    sched: SchedCost,
    peak_depth: usize,
    fleet_matches: bool,
    lower_levels_agree: bool,
}

/// Everything one round measured.
struct Round {
    datagen: DatagenCost,
    traced_run_s: f64,
    untraced_run_s: f64,
    allocations: u64,
    engine: EngineTotals,
    assembly_s: f64,
    replay: Option<ReplayRound>,
    sketch_ns_per_observation: f64,
    stall_s: Option<f64>,
}

/// Runs the traced pass for about `seconds` (whole rounds; at least
/// one). Returns the oracle violations instead when there are any.
pub fn traced(kind: Kind, params: Params, seconds: f64) -> Result<Traced, Vec<String>> {
    let mut rec = Recorder::new();
    // An untimed warm-up, as in the end-to-end pass: the first run of a
    // process pays for page faults and allocator growth. Its result is
    // the reference every round must reproduce.
    let (warm_up, _) = rec.scope("warm-up", |_| run_once(kind, params));
    let (expect, mut result) = (warm_up.expect, warm_up.result);
    let violations = check::verify(&expect, &result);
    if !violations.is_empty() {
        return Err(violations);
    }
    let mut rounds: Vec<Round> = Vec::new();
    let clock = Instant::now();
    loop {
        let begin = clock.elapsed().as_secs_f64();
        let index = rounds.len();
        let (round, _) = rec.scope(&format!("round.{index}"), |rec| {
            one_round(kind, params, rec, &mut result)
        });
        rounds.push(round?);
        // Start another round only when the budget has room for it.
        let spent = clock.elapsed().as_secs_f64();
        if rounds.len() >= MAX_ROUNDS || spent + (spent - begin) > seconds {
            break;
        }
    }
    let requests = check::fleet_requests(&result);
    let per_request_ns = |secs: f64| 1e9 * secs / requests as f64;
    let med = |pick: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(pick).collect::<Vec<_>>());
    let last = rounds.last().expect("at least one round");

    let mut m = Values::new(&PER_LAYER);
    let mut notes = Vec::new();

    // datagen, scenario
    let gen_s = med(&|r| r.datagen.secs);
    m.set("datagen.gen_s", gen_s);
    m.set("datagen.rows_per_s", last.datagen.rows as f64 / gen_s);
    let assembly_s = med(&|r| r.assembly_s);
    m.set("scenario.assembly_s", assembly_s);

    // engine, relational
    let traced_run_s = med(&|r| r.traced_run_s);
    let untraced_run_s = med(&|r| r.untraced_run_s);
    let timer_ns = timer_cost_ns();
    let engine_busy_s = med(&|r| r.engine.busy_s(timer_ns));
    let e = last.engine;
    m.set("engine.busy_s", engine_busy_s);
    m.set("engine.share", engine_busy_s / traced_run_s);
    m.set("engine.calls", e.calls as f64);
    m.set(
        "engine.on_object_ns",
        med(&|r| r.engine.on_object_ns(timer_ns)),
    );
    m.set("engine.build_ns", med(&|r| r.engine.build_ns(timer_ns)));
    notes.push(format!(
        "engine.* has {timer_ns:.1} ns per timed call taken off: what an empty pair of clock \
         reads measures here"
    ));
    if e.probe_ops > 0 {
        m.set(
            "engine.ns_per_probe",
            1e9 * engine_busy_s / e.probe_ops as f64,
        );
        m.set("engine.subplans", e.subplans as f64);
        m.set(
            "engine.reissue_ratio",
            e.reissues as f64 / e.gets_issued as f64,
        );
        m.set("relational.probe_ops", e.probe_ops as f64);
        m.set("relational.scanned_tuples", e.scanned_tuples as f64);
    }

    // fleet, pump, csd by stacked replay
    let mut replay_lines = None;
    if let Some(r) = &last.replay {
        let of = |pick: &dyn Fn(&ReplayRound) -> f64| {
            med(&|round| pick(round.replay.as_ref().expect("replay ran every round")))
        };
        let (fleet_s, pump_s, device_s, calendar_s) = (
            of(&|r| r.fleet_s),
            of(&|r| r.pump_s),
            of(&|r| r.device_s),
            of(&|r| r.calendar_s),
        );
        m.set("fleet.replay_s", fleet_s);
        m.set(
            "fleet.self_ns_per_request",
            per_request_ns(fleet_s - pump_s),
        );
        m.set("fleet.replay_matches", f64::from(u8::from(r.fleet_matches)));
        m.set("pump.replay_s", pump_s);
        m.set(
            "pump.self_ns_per_request",
            per_request_ns(pump_s - device_s),
        );
        m.set("csd.device.replay_s", device_s);
        m.set(
            "csd.device.self_ns_per_request",
            per_request_ns(device_s - calendar_s),
        );
        m.set("csd.sched.decisions", r.sched.decisions as f64);
        m.set(
            "csd.sched.decide_ns",
            of(&|r| r.sched.decide_ns as f64) / r.sched.decisions as f64,
        );
        m.set(
            "csd.sched.switch_complete_ns",
            of(&|r| r.sched.switch_complete_ns as f64) / r.sched.switch_completes as f64,
        );
        m.set("csd.queue.peak_depth", r.peak_depth as f64);
        m.set("sim.calendar.events", r.calendar_ops as f64);
        m.set(
            "sim.calendar.ns_per_event",
            1e9 * calendar_s / r.calendar_ops as f64,
        );
        if !r.fleet_matches {
            notes.push(
                "fleet.replay_matches is 0: the mirror loop no longer describes the run".into(),
            );
        }
        if !r.lower_levels_agree {
            notes.push(
                "pump- or device-level replay delivered a different request count, or its \
                 switch count is off by more than 1 %"
                    .into(),
            );
        }
        replay_lines = Some((fleet_s, pump_s, device_s, calendar_s));
    }

    // csd model counters (free, exact)
    let shards = result.shards.len() as f64;
    m.set("csd.switches", result.device.group_switches as f64);
    m.set(
        "csd.switches_per_request",
        result.device.group_switches as f64 / requests as f64,
    );
    m.set(
        "csd.transfer_utilisation",
        result.device.transfer_busy_micros as f64 / (result.makespan.as_micros() as f64 * shards),
    );
    if result.cache.lookups() > 0 {
        m.set("csd.cache.hit_rate", result.cache.hit_rate());
        m.set("csd.cache.demotions", result.cache.demotions as f64);
        m.set("csd.cache.evictions", result.cache.evictions as f64);
    }
    m.set("csd.energy_wh", result.energy.maid_wh);

    // sim, collector
    m.set(
        "sim.sketch.ns_per_observation",
        med(&|r| r.sketch_ns_per_observation),
    );
    let sim = SimOutcome::of(&expect, &result);
    m.set_opt("sim.slo_attainment", sim.slo_attainment);
    let stall_s = last
        .stall_s
        .map(|_| med(&|r| r.stall_s.expect("stall probe ran every round")));
    m.set_opt("collector.stall_attribution_s", stall_s);
    if matches!(kind, Kind::BatchClosed | Kind::OpenPlain) {
        let own = expect.observe();
        let other = match own {
            Observe::Full => Observe::Counters,
            Observe::Counters => Observe::Full,
        };
        let (other_run, _) = rec.scope("probe.observe", |rec| {
            rec.attr("full", f64::from(u8::from(other == Observe::Full)));
            run_once(kind, params.observed(other))
        });
        let (full_s, counters_s) = match own {
            Observe::Full => (untraced_run_s, other_run.run_s),
            Observe::Counters => (other_run.run_s, untraced_run_s),
        };
        m.set("collector.full_mode_overhead", full_s / counters_s);
        notes.push(format!(
            "collector.full_mode_overhead = {full_s:.4} s Full / {counters_s:.4} s Counters"
        ));
    }

    // driver (the residual), runtime, trace
    let excess_s = traced_run_s
        - engine_busy_s
        - replay_lines.map_or(0.0, |(fleet_s, ..)| fleet_s)
        - assembly_s
        - stall_s.unwrap_or(0.0);
    m.set("driver.excess_s", excess_s);
    m.set("driver.excess_ns_per_request", per_request_ns(excess_s));
    m.set(
        "runtime.allocs_per_request",
        last.allocations as f64 / requests as f64,
    );
    m.set("runtime.traced_run_s", traced_run_s);
    m.set("trace.overhead_ratio", traced_run_s / untraced_run_s);
    notes.push(format!(
        "trace.overhead_ratio = {traced_run_s:.4} s traced / {untraced_run_s:.4} s untraced"
    ));
    if excess_s < -0.10 * traced_run_s {
        notes.push(
            "driver.excess_s is negative beyond single-round noise: the replay does work the \
             runtime does not"
                .into(),
        );
    }
    if replay_lines.is_none() {
        notes.push(
            "no stacked replay on this workload (engines or planes cannot be mirrored from \
             outside): fleet, pump and csd time is inside the driver residual"
                .into(),
        );
    }

    // fault, protect
    let p = &result.protection;
    m.set("fault.availability", result.availability.availability);
    m.set(
        "protect.failed_queries",
        (expect.offered() - sim.completed) as f64,
    );
    if !kind.planes_off() {
        m.set("fault.failovers", result.availability.failovers as f64);
        m.set(
            "fault.evacuated_requests",
            result.availability.evacuated_requests as f64,
        );
        m.set(
            "fault.parked_requests",
            result.availability.parked_requests as f64,
        );
        m.set("protect.deadline_misses", p.deadline_misses as f64);
        m.set("protect.sheds", p.sheds as f64);
        m.set("protect.retries", p.retries as f64);
        m.set("protect.hedges_fired", p.hedges_fired as f64);
        if p.hedges_fired > 0 {
            m.set(
                "protect.hedge_win_ratio",
                p.hedge_wins as f64 / p.hedges_fired as f64,
            );
        }
        m.set("protect.breaker_trips", p.breaker_trips as f64);
    }
    if kind == Kind::OpenPlanes {
        let (plain, _) = rec.scope("probe.planes_off", |_| run_once(Kind::OpenPlain, params));
        let plain_requests = check::fleet_requests(&plain.result);
        let own_ns = per_request_ns(untraced_run_s);
        let plain_ns = 1e9 * plain.run_s / plain_requests as f64;
        m.set("planes.host_ns_per_request_delta", own_ns - plain_ns);
        notes.push(format!(
            "planes.host_ns_per_request_delta = {own_ns:.1} ns/GET over {requests} GETs \
             (open_planes) - {plain_ns:.1} ns/GET over {plain_requests} GETs (open_plain)"
        ));
    }

    // load ladder
    if kind.is_open() {
        let mut best = if holds_slo(kind, params, &sim) {
            1.0
        } else {
            0.0
        };
        for rate in LADDER {
            let at = params.at_rate(rate);
            let (run, _) = rec.scope(&format!("ladder.{rate}x"), |_| run_once(kind, at));
            let step = SimOutcome::of(&run.expect, &run.result);
            m.set(&format!("load.p99_at_{rate}x_s"), step.p99_response_s);
            if holds_slo(kind, at, &step) {
                best = f64::max(best, rate);
            }
        }
        m.set("load.max_rate_meeting_slo", best);
    }

    // The budget: self times that sum to the traced run by construction.
    let mut lines = vec![
        BudgetLine {
            layer: "scenario (assembly)",
            self_s: assembly_s,
        },
        BudgetLine {
            layer: "engine + relational",
            self_s: engine_busy_s,
        },
    ];
    if let Some((fleet_s, pump_s, device_s, calendar_s)) = replay_lines {
        lines.extend([
            BudgetLine {
                layer: "fleet",
                self_s: fleet_s - pump_s,
            },
            BudgetLine {
                layer: "pump",
                self_s: pump_s - device_s,
            },
            BudgetLine {
                layer: "csd (device+queue+sched)",
                self_s: device_s - calendar_s,
            },
            BudgetLine {
                layer: "sim (calendar)",
                self_s: calendar_s,
            },
        ]);
    }
    lines.extend([
        BudgetLine {
            layer: "collector (stalls)",
            self_s: stall_s.unwrap_or(0.0),
        },
        BudgetLine {
            layer: if replay_lines.is_some() {
                "driver (residual)"
            } else {
                "driver+fleet+csd (resid.)"
            },
            self_s: excess_s,
        },
    ]);
    Ok(Traced {
        metrics: m,
        budget: Budget {
            traced_run_s,
            requests,
            lines,
        },
        recorder: rec,
        rounds: rounds.len(),
        offered: expect.offered(),
        notes,
    })
}

/// The ladder's pass rule: SLO attainment ≥ 0.9 and no growing backlog
/// (the run ends within 5 % of the last release plus the SLO target).
fn holds_slo(kind: Kind, params: Params, sim: &SimOutcome) -> bool {
    let last = last_release(&setup(kind, params).tenants);
    let drained_by = 1.05 * (last + OPEN_SLO).as_secs_f64();
    sim.slo_attainment.is_some_and(|a| a >= 0.9) && sim.makespan_s <= drained_by
}

/// One measurement round. `reference` is the run every other run must
/// reproduce; the round leaves its own traced result there, so that
/// never more than two results are alive at once (a Full-mode result
/// is hundreds of megabytes, and touching fresh memory is slow and
/// erratic on a virtual machine).
fn one_round(
    kind: Kind,
    params: Params,
    rec: &mut Recorder,
    reference: &mut RunResult,
) -> Result<Round, Vec<String>> {
    // The run with every decorator off: the tracing overhead base, the
    // allocation count, and a determinism check.
    let (untraced, _) = rec.scope("run.untraced", |rec| {
        let run = run_once(kind, params);
        rec.attr("run_s", run.run_s);
        run
    });
    let Run {
        result: untraced_result,
        run_s: untraced_run_s,
        allocations,
        ..
    } = untraced;
    if untraced_result != *reference {
        return Err(vec![
            "determinism: an untraced run differs from the warm-up run".to_string(),
        ]);
    }
    drop(untraced_result);

    // The traced run: engines decorated, everything else as shipped.
    // It must change nothing but the timing.
    let log = EngineLog::new(rec.epoch());
    let ((scenario, datagen), _) = rec.scope("setup", |_| {
        let prepared = setup(kind, params);
        let datagen = prepared.datagen;
        (prepared.with_timed_engines(&log).into_scenario(), datagen)
    });
    let (result, traced_run_s) = rec.scope("run", |_| scenario.run());
    let engine = engine_spans(rec, &log.borrow());
    if result != *reference {
        return Err(vec![
            "tracing: the run with timed engines differs from the run without".to_string(),
        ]);
    }
    *reference = result;
    let result = &*reference;

    // The benchmark's own fleet construction, then the replays.
    let fresh = || {
        let prepared = setup(kind, params);
        (prepared.tenants, prepared.fleet)
    };
    let (tenants, fleet) = fresh();
    let keep_blocked = fleet.observe == Observe::Full;
    let ((level, clients), assembly_s) =
        rec.scope("assembly", |_| assemble(tenants, &fleet, None).into_fleet());
    let mut responses: Option<Vec<f64>> = None;
    let mut blocked: Option<Vec<(SimTime, SimTime)>> = None;
    let replay = if kind.has_replay() {
        let keep = Keep {
            blocked: keep_blocked,
            calendar_log: false,
        };
        let ((fleet_outcome, _), _) =
            rec.scope("replay.fleet", |_| replay::replay(level, clients, keep));

        let (tenants, fleet) = fresh();
        let (level, clients) = assemble(tenants, &fleet, None).into_pumps();
        let ((pump_outcome, _), _) =
            rec.scope("replay.pump", |_| replay::replay(level, clients, keep));

        let (tenants, fleet) = fresh();
        let (level, clients) = assemble(tenants, &fleet, None).into_devices();
        let ((device_outcome, _), _) =
            rec.scope("replay.device", |_| replay::replay(level, clients, keep));

        // Once more at device level with the scheduler decorated and
        // the calendar logged; its wall time is not used, only what
        // the decorator counted and the log it leaves.
        let sink = Arc::new(Mutex::new(SchedCost::default()));
        let (tenants, fleet) = fresh();
        let (level, clients) = assemble(tenants, &fleet, Some(&sink)).into_devices();
        let logged = Keep {
            blocked: false,
            calendar_log: true,
        };
        let ((instrumented, level), _) = rec.scope("replay.device.instrumented", |_| {
            replay::replay(level, clients, logged)
        });
        let peak_depth = level.peak_depth;
        // The decorators add into the sink as their devices drop.
        drop(level);
        let sched = *sink.lock().unwrap_or_else(|e| e.into_inner());

        let ((calendar_ops, calendar_s), _) = rec.scope("probe.calendar", |_| {
            calendar_probe(&instrumented.calendar_log)
        });
        let served = result.device.objects_served;
        let switches = result.device.group_switches;
        let close_to = |n: u64| n.abs_diff(switches) * 100 <= switches;
        let round = ReplayRound {
            fleet_s: fleet_outcome.wall_s,
            pump_s: pump_outcome.wall_s,
            device_s: device_outcome.wall_s,
            calendar_ops,
            calendar_s,
            sched,
            peak_depth,
            fleet_matches: fleet_outcome.makespan == result.makespan
                && fleet_outcome.switches == switches
                && fleet_outcome.delivered == served
                && fleet_outcome.requests == check::fleet_requests(result),
            lower_levels_agree: pump_outcome.delivered == served
                && device_outcome.delivered == served
                && close_to(pump_outcome.switches)
                && close_to(device_outcome.switches),
        };
        responses = Some(fleet_outcome.responses);
        blocked = keep_blocked.then_some(fleet_outcome.blocked);
        Some(round)
    } else {
        drop((level, clients));
        None
    };

    // Probes over the run's own response times and spans.
    let responses = responses.unwrap_or_else(|| {
        result
            .records()
            .map(|r| r.response_time().as_secs_f64())
            .collect()
    });
    let (sketch_s, _) = rec.scope("probe.sketch", |rec| {
        rec.attr("observations", responses.len() as f64);
        let begin = Instant::now();
        let mut sketch = QuantileSketch::default_epsilon();
        for &secs in &responses {
            sketch.push(secs);
        }
        std::hint::black_box(sketch.quantile(0.99));
        begin.elapsed().as_secs_f64()
    });
    let stall_s = keep_blocked.then(|| {
        // Without a replay the blocked intervals are not visible from
        // outside; one interval per record is then a lower bound.
        let intervals =
            blocked.unwrap_or_else(|| result.records().map(|r| (r.start, r.end)).collect());
        let (_, secs) = rec.scope("probe.stall_attribution", |rec| {
            rec.attr("intervals", intervals.len() as f64);
            let lists: Vec<&[DeviceSpan]> = result
                .shards
                .iter()
                .flat_map(|s| s.stream_span_lists())
                .collect();
            let timeline = MergedTimeline::build(&lists);
            let mut total = skipper_sim::Attribution::default();
            for &(from, to) in &intervals {
                total.merge(timeline.attribute(from, to));
            }
            std::hint::black_box(total);
        });
        secs
    });

    let round = Round {
        datagen,
        traced_run_s,
        untraced_run_s,
        allocations,
        engine,
        assembly_s,
        replay,
        sketch_ns_per_observation: 1e9 * sketch_s / responses.len().max(1) as f64,
        stall_s,
    };
    Ok(round)
}

/// The engine instances of one `(tenant, query name)`, folded.
#[derive(Default)]
struct EngineGroup {
    from_ns: u64,
    to_ns: u64,
    busy_ns: u64,
    calls: u64,
    engines: u64,
}

/// Sums the engine log and hangs one aggregated span per `(tenant,
/// query name)` under the round's `run` span: two per tenant on
/// `tpch_mjoin`, one per tenant on the synthetic workloads however many
/// thousand queries they run, so the trace stays bounded.
fn engine_spans(rec: &mut Recorder, log: &EngineLog) -> EngineTotals {
    let run = rec.find("run").expect("the run span was just recorded");
    let mut totals = EngineTotals::default();
    let mut groups: BTreeMap<(u16, &str), EngineGroup> = BTreeMap::new();
    for span in &log.spans {
        totals.engines += 1;
        totals.calls += span.calls;
        totals.on_object_ns += span.on_object_ns;
        totals.build_ns += span.build_ns;
        totals.probe_ops += span.stats.probe_ops;
        totals.scanned_tuples += span.stats.scanned_tuples;
        totals.subplans += span.stats.subplans_executed;
        totals.reissues += span.stats.reissues;
        totals.gets_issued += span.stats.gets_issued;
        let group = groups
            .entry((span.tenant, span.query.as_str()))
            .or_insert(EngineGroup {
                from_ns: u64::MAX,
                ..EngineGroup::default()
            });
        group.from_ns = group.from_ns.min(span.start_ns);
        group.to_ns = group.to_ns.max(span.end_ns);
        group.busy_ns += span.on_object_ns + span.build_ns;
        group.calls += span.calls;
        group.engines += 1;
    }
    for ((tenant, query), group) in groups {
        rec.aggregated(
            run,
            format!("engine t{tenant} {query}"),
            (group.from_ns, group.to_ns),
            group.busy_ns,
            vec![
                ("calls".to_string(), group.calls as f64),
                ("engines".to_string(), group.engines as f64),
            ],
        );
    }
    totals
}
