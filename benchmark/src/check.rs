//! Correctness oracles, run before any number is printed.
//!
//! Every oracle reads only the public [`RunResult`] and what the
//! benchmark itself generated ([`Expect`], captured from the
//! [`Prepared`] workload before the scenario consumes it). A violated
//! oracle fails the whole workload: a fast wrong simulation is not a
//! result.

use std::collections::BTreeMap;

use skipper_core::runtime::RunResult;
use skipper_csd::{ObjectId, QueryId};
use skipper_relational::query::results_approx_eq;

use crate::workloads::{Kind, Observe, Prepared};

/// What the benchmark knows about one tenant it generated.
#[derive(Clone, Debug)]
struct TenantExpect {
    /// Queries offered.
    queries: u64,
    /// Objects in the tenant's dataset (= one synthetic query's GETs).
    objects: u32,
    /// Whether a retry policy is set (misses may re-plan, not drop).
    retries: bool,
    /// Engine label the records must carry.
    engine: &'static str,
}

/// The generated inputs an oracle needs, captured before `run()`.
#[derive(Clone, Debug)]
pub struct Expect {
    kind: Kind,
    observe: Observe,
    tenants: Vec<TenantExpect>,
}

impl Expect {
    /// Captures what `prepared` will offer.
    pub fn of(prepared: &Prepared) -> Expect {
        Expect {
            kind: prepared.kind,
            observe: prepared.fleet.observe,
            tenants: prepared
                .tenants
                .iter()
                .map(|w| TenantExpect {
                    queries: w.queries.len() as u64,
                    objects: w.dataset.total_objects(),
                    retries: w.retry.enabled(),
                    engine: w.engine.label(),
                })
                .collect(),
        }
    }

    /// The observability regime the workload runs under.
    pub fn observe(&self) -> Observe {
        self.observe
    }

    /// Queries offered across all tenants.
    pub fn offered(&self) -> u64 {
        self.tenants.iter().map(|t| t.queries).sum()
    }
}

/// Queries that ran to completion.
pub fn completed(result: &RunResult) -> u64 {
    result
        .protection
        .per_tenant
        .iter()
        .map(|t| t.completed)
        .sum()
}

/// GETs the fleet accepted: every request either hit a shard cache or
/// was queued on a device (failover, hedge and retry re-submissions
/// count again — each is work the simulator did).
pub fn fleet_requests(result: &RunResult) -> u64 {
    result.device.requests_submitted + result.cache.hits()
}

/// The plane counters `open_planes` is calibrated to make non-zero.
pub fn plane_counters(result: &RunResult) -> Vec<(&'static str, u64)> {
    let p = &result.protection;
    vec![
        ("cache hits", result.cache.hits()),
        ("cache demotions", result.cache.demotions),
        ("failovers", result.availability.failovers),
        ("deadline misses", p.deadline_misses),
        ("sheds", p.sheds),
        ("retries", p.retries),
        ("hedges fired", p.hedges_fired),
        ("hedge wins", p.hedge_wins),
        ("breaker trips", p.breaker_trips),
    ]
}

/// Runs every oracle that applies to `expect.kind`; returns one line
/// per violation (empty = correct).
pub fn verify(expect: &Expect, result: &RunResult) -> Vec<String> {
    let mut bad = Vec::new();
    accounting(expect, result, &mut bad);
    match expect.observe {
        Observe::Counters => counter_conservation(expect, result, &mut bad),
        Observe::Full => ledger_conservation(expect, result, &mut bad),
    }
    if expect.kind.planes_off() {
        planes_quiet(result, &mut bad);
    }
    if expect.kind == Kind::TpchMjoin {
        engines_agree(result, &mut bad);
    }
    bad
}

/// Every offered query is accounted for: it completed, was shed, or was
/// dropped after a deadline miss or an exhausted retry budget.
fn accounting(expect: &Expect, result: &RunResult, bad: &mut Vec<String>) {
    let p = &result.protection;
    if p.per_tenant.len() != expect.tenants.len() {
        bad.push(format!(
            "accounting: {} tenants in the ledger, {} offered",
            p.per_tenant.len(),
            expect.tenants.len()
        ));
        return;
    }
    let mut dropped_total = 0u64;
    for (t, (ledger, want)) in p.per_tenant.iter().zip(&expect.tenants).enumerate() {
        if ledger.offered != want.queries {
            bad.push(format!(
                "accounting: tenant {t} ledger offered {} but the workload offered {}",
                ledger.offered, want.queries
            ));
        }
        let Some(dropped) = want.queries.checked_sub(ledger.completed + ledger.shed) else {
            bad.push(format!(
                "accounting: tenant {t} completed {} + shed {} exceeds offered {}",
                ledger.completed, ledger.shed, want.queries
            ));
            continue;
        };
        dropped_total += dropped;
        // Without a retry policy every miss drops exactly one query and
        // nothing else can.
        if !want.retries && dropped != ledger.deadline_misses {
            bad.push(format!(
                "accounting: tenant {t} lost {dropped} queries but missed {} deadlines",
                ledger.deadline_misses
            ));
        }
    }
    // With retries a miss either drops its query or re-plans it, and an
    // exhausted object-retry budget drops one too.
    let floor = p.deadline_misses.saturating_sub(p.retries);
    let ceiling = p.deadline_misses + p.retry_exhausted;
    if dropped_total < floor || dropped_total > ceiling {
        bad.push(format!(
            "accounting: {dropped_total} queries unaccounted for outside [{floor}, {ceiling}] \
             (misses {}, retries {}, exhausted {})",
            p.deadline_misses, p.retries, p.retry_exhausted
        ));
    }
    let done = completed(result);
    if result.latency.fleet.count != done {
        bad.push(format!(
            "accounting: {} response times observed for {done} completed queries",
            result.latency.fleet.count
        ));
    }
    if expect.observe == Observe::Full {
        let records = result.records().count() as u64;
        if records != done {
            bad.push(format!(
                "accounting: {records} records for {done} completed queries"
            ));
        }
        for rec in result.records() {
            if rec.engine != expect.tenants[rec.client].engine {
                bad.push(format!(
                    "accounting: client {} ran engine '{}', generated '{}'",
                    rec.client, rec.engine, expect.tenants[rec.client].engine
                ));
                break;
            }
        }
    }
}

/// Counters-mode conservation: what was requested was served, nothing
/// more. Only planes-off synthetic workloads run in Counters mode, so
/// the GET count is known by construction.
fn counter_conservation(expect: &Expect, result: &RunResult, bad: &mut Vec<String>) {
    let want: u64 = expect
        .tenants
        .iter()
        .map(|t| t.queries * t.objects as u64)
        .sum();
    let served = result.device.objects_served + result.cache.hits();
    if served != want || fleet_requests(result) != want {
        bad.push(format!(
            "conservation: {want} GETs generated, {} accepted, {served} served",
            fleet_requests(result)
        ));
    }
}

/// Full-ledger conservation. Synthetic tenants: each completed query's
/// deliveries are exactly its tenant's working set, once each
/// (consumption under hedging, where the losing replica may also
/// deliver). TPC-H tenants: as many deliveries per query as the engine
/// says it issued GETs.
fn ledger_conservation(expect: &Expect, result: &RunResult, bad: &mut Vec<String>) {
    let hedged = !result.consumed.is_empty();
    let ledger = if hedged {
        result.consumed_multiset()
    } else {
        result.delivery_multiset()
    };
    if expect.kind == Kind::TpchMjoin {
        let mut per_query: BTreeMap<(usize, u32), u64> = BTreeMap::new();
        for &(client, query, _) in &ledger {
            *per_query.entry((client, query.seq)).or_default() += 1;
        }
        for rec in result.records() {
            let delivered = per_query.remove(&(rec.client, rec.seq)).unwrap_or(0);
            if delivered != rec.stats.gets_issued {
                bad.push(format!(
                    "conservation: client {} query {} issued {} GETs, ledger has {delivered}",
                    rec.client, rec.seq, rec.stats.gets_issued
                ));
            }
        }
        if !per_query.is_empty() {
            bad.push(format!(
                "conservation: {} queries in the ledger have no record",
                per_query.len()
            ));
        }
        return;
    }
    if expect.kind.planes_off() {
        // Everything completes, so the ledger is known in full.
        let want = requested_multiset(expect);
        if ledger != want {
            bad.push(format!(
                "conservation: ledger has {} deliveries, the workload requested {}{}",
                ledger.len(),
                want.len(),
                if ledger.len() == want.len() {
                    " (same count, different content)"
                } else {
                    ""
                }
            ));
        }
        return;
    }
    // Planes on: cancelled queries leave partial entries; completed
    // ones must be whole, and nothing is ever consumed twice.
    if ledger.windows(2).any(|w| w[0] == w[1]) {
        bad.push("conservation: an object was consumed twice by one query".to_string());
    }
    let mut per_query: BTreeMap<(usize, u32), u32> = BTreeMap::new();
    for &(client, query, object) in &ledger {
        if object.tenant as usize != client {
            bad.push(format!("conservation: client {client} consumed {object}"));
            return;
        }
        *per_query.entry((client, query.seq)).or_default() += 1;
    }
    for rec in result.records() {
        let consumed = per_query.get(&(rec.client, rec.seq)).copied().unwrap_or(0);
        if consumed != expect.tenants[rec.client].objects {
            bad.push(format!(
                "conservation: client {} query {} completed on {consumed} of {} objects",
                rec.client, rec.seq, expect.tenants[rec.client].objects
            ));
            return;
        }
    }
}

/// The sorted `(client, query, object)` multiset a planes-off synthetic
/// workload requests: every query of every tenant, every object once.
fn requested_multiset(expect: &Expect) -> Vec<(usize, QueryId, ObjectId)> {
    let mut want = Vec::new();
    for (t, tenant) in expect.tenants.iter().enumerate() {
        for q in 0..tenant.queries as u32 {
            for s in 0..tenant.objects {
                want.push((t, QueryId::new(t as u16, q), ObjectId::new(t as u16, 0, s)));
            }
        }
    }
    want.sort_unstable();
    want
}

/// Knobs off costs nothing *and does nothing*.
fn planes_quiet(result: &RunResult, bad: &mut Vec<String>) {
    if !result.protection.is_quiet() {
        bad.push("planes off: the protection summary is not quiet".to_string());
    }
    if result.availability.availability != 1.0 || result.availability.fault_events != 0 {
        bad.push(format!(
            "planes off: availability {} after {} fault events",
            result.availability.availability, result.availability.fault_events
        ));
    }
    if result.cache.lookups() != 0 {
        bad.push(format!(
            "planes off: {} shard-cache lookups",
            result.cache.lookups()
        ));
    }
}

/// Skipper and Vanilla tenants share one dataset and one query list, so
/// for each query every Skipper result must equal a Vanilla result.
fn engines_agree(result: &RunResult, bad: &mut Vec<String>) {
    let vanilla: Vec<_> = result.records().filter(|r| r.engine == "vanilla").collect();
    if vanilla.is_empty() {
        bad.push("engines: no vanilla record to compare against".to_string());
        return;
    }
    for rec in result.records().filter(|r| r.engine == "skipper") {
        let Some(reference) = vanilla.iter().find(|v| v.query == rec.query) else {
            bad.push(format!("engines: no vanilla run of {}", rec.query));
            continue;
        };
        if rec.result.is_empty() || !results_approx_eq(&rec.result, &reference.result, 1e-6) {
            bad.push(format!(
                "engines: client {} {} rows differ from vanilla client {}",
                rec.client, rec.query, reference.client
            ));
        }
    }
}
