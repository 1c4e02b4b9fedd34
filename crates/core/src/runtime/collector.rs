//! The record/metrics collector: per-query measurement drafts, finished
//! records, and the [`RunResult`] returned by every scenario.
//!
//! During the run each client accumulates a [`RecordDraft`] (start time,
//! charged processing, blocked intervals); when a query finishes the
//! draft becomes a [`PendingRecord`]. Stall attribution is post-hoc:
//! once the run is over, every blocked interval is matched against the
//! device's activity trace to split waiting into switch vs transfer vs
//! idle stalls (the Figure 9 breakdown).

use skipper_cost::CostReport;
use skipper_csd::cache::CacheStats;
use skipper_csd::metrics::DeviceMetrics;
use skipper_csd::{EnergyReport, ObjectId, QueryId};
use skipper_relational::tuple::Row;
use skipper_relational::value::Value;
use skipper_sim::trace::Span;
use skipper_sim::{Attribution, MergedTimeline, QuantileSketch, SimDuration, SimTime};

use crate::engine::EngineStats;

use super::protect::ProtectionSummary;

/// One query's measurements.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryRecord {
    /// Query name.
    pub query: String,
    /// Client index.
    pub client: usize,
    /// Per-client query sequence number.
    pub seq: u32,
    /// Engine label ("skipper" / "vanilla" / custom factory label).
    pub engine: &'static str,
    /// Arrival-process release instant, when the query came from an
    /// open arrival process (`None` for closed-loop queries, which by
    /// definition release the moment the tenant frees up). A release
    /// landing while the tenant is busy precedes `start` — the gap is
    /// queue-wait, and it counts toward [`QueryRecord::response_time`].
    pub release: Option<SimTime>,
    /// Query start (submission of the first GET batch).
    pub start: SimTime,
    /// Query completion (final processing finished).
    pub end: SimTime,
    /// Charged CPU (processing) time.
    pub processing: SimDuration,
    /// GETs in the initial batch issued at query start — the whole
    /// working set for Skipper's issue-everything-upfront strategy, one
    /// for a pull-based engine.
    pub upfront_gets: u64,
    /// Blocked time attributed against the device trace: switch stalls,
    /// transfer stalls, device-idle waits.
    pub stalls: Attribution,
    /// Engine work counters (GETs, reissues, tuples, subplans).
    pub stats: EngineStats,
    /// The query result, sorted by group key.
    pub result: Vec<(Row, Vec<Value>)>,
}

impl QueryRecord {
    /// End-to-end execution time (first GET batch → completion).
    /// Excludes queue-wait; the open-system latency a client observes
    /// is [`QueryRecord::response_time`].
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }

    /// Open-system response time: release → completion, queue-wait
    /// included. Equals [`QueryRecord::duration`] for closed-loop
    /// queries (no release instant ⇒ no queueing to account for).
    pub fn response_time(&self) -> SimDuration {
        self.end.since(self.release.unwrap_or(self.start))
    }

    /// Time spent queued behind the tenant's earlier queries: release
    /// → first GET batch. Zero for closed-loop queries.
    pub fn queue_wait(&self) -> SimDuration {
        match self.release {
            Some(release) => self.start.saturating_since(release),
            None => SimDuration::ZERO,
        }
    }
}

/// In-flight measurement state for one query.
#[derive(Default)]
pub struct RecordDraft {
    /// Query name.
    pub query_name: String,
    /// Release instant, for open-arrival queries.
    pub release: Option<SimTime>,
    /// Submission instant.
    pub start: SimTime,
    /// Charged processing so far.
    pub processing: SimDuration,
    /// Size of the initial GET batch.
    pub upfront_gets: u64,
    /// Start of the current blocked interval, if blocked.
    pub blocked_from: Option<SimTime>,
    /// Completed blocked intervals.
    pub blocked: Vec<(SimTime, SimTime)>,
}

impl RecordDraft {
    /// Opens a draft at query submission. `release` is the arrival
    /// instant for open-arrival queries (`None` for closed-loop), which
    /// the finished record keeps so queue-wait survives into
    /// [`QueryRecord::response_time`].
    pub fn begin(query_name: String, release: Option<SimTime>, now: SimTime) -> Self {
        RecordDraft {
            query_name,
            release,
            start: now,
            processing: SimDuration::ZERO,
            upfront_gets: 0,
            blocked_from: Some(now),
            blocked: Vec::new(),
        }
    }

    /// Closes the current blocked interval (delivery arrived).
    pub fn unblock(&mut self, now: SimTime) {
        if let Some(from) = self.blocked_from.take() {
            if now > from {
                self.blocked.push((from, now));
            }
        }
    }
}

/// A finished record awaiting post-hoc stall attribution.
pub struct PendingRecord {
    /// The record (with `stalls` still zeroed).
    pub record: QueryRecord,
    /// The raw blocked intervals to attribute.
    pub blocked_intervals: Vec<(SimTime, SimTime)>,
}

/// Fleet-aware stall attribution against the run's [`MergedTimeline`]:
/// blocked intervals are sliced against the *union* of every shard's
/// activity trace (transfer beats switch beats idle at each instant),
/// so the Figure 9 breakdown stays exact — `processing + stalls ==
/// duration` — on any shard count. The runtime flattens the shard span
/// lists once per run (a single k-way merge) and reuses the timeline
/// for every client's records, so whole-run attribution costs
/// O((spans + intervals)·log) total; the property suite pins the result
/// equal to the per-interval `attribute_union` reference.
pub fn attribute_stalls_merged(
    timeline: &MergedTimeline,
    records: Vec<PendingRecord>,
) -> Vec<QueryRecord> {
    records
        .into_iter()
        .map(|mut rec| {
            let mut attr = Attribution::default();
            for &(a, b) in &rec.blocked_intervals {
                attr.merge(timeline.attribute(a, b));
            }
            rec.record.stalls = attr;
            rec.record
        })
        .collect()
}

/// Per-shard fault-plane counters: what the deterministic fault
/// schedule did to one shard over the run. All-zero on fault-free runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardFaultStats {
    /// Crash episodes applied to this shard.
    pub downs: u64,
    /// Total virtual time spent down, in microseconds (outages still
    /// open at run end accrue up to the makespan).
    pub downtime_micros: u64,
    /// Queued requests evacuated from this shard by its crashes
    /// (re-routed to surviving replicas or parked until recovery).
    pub evacuated_requests: u64,
    /// In-flight transfers aborted on this shard by its crashes (the
    /// bytes never arrived; the requests were re-served elsewhere).
    pub aborted_transfers: u64,
    /// Requests this shard served *as a failover target* — routed here
    /// because the preferred replica was down.
    pub failover_receipts: u64,
}

/// Fleet-wide fault-plane summary of a run. On a fault-free run every
/// counter is zero and [`AvailabilitySummary::availability`] is 1.0.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AvailabilitySummary {
    /// Fault-plane calendar actions applied (crashes, recoveries,
    /// brown-out starts and ends).
    pub fault_events: u64,
    /// Σ per-shard downtime, in microseconds.
    pub downtime_micros: u64,
    /// Σ per-shard evacuated requests.
    pub evacuated_requests: u64,
    /// Σ per-shard aborted in-flight transfers.
    pub aborted_transfers: u64,
    /// Σ per-shard failover receipts (requests served by a non-preferred
    /// replica).
    pub failovers: u64,
    /// Requests that ever parked at the fleet for lack of any live
    /// replica (k = 1 outages, or every replica down at once).
    pub parked_requests: u64,
    /// Fraction of shard-time the fleet was up:
    /// `1 − downtime / (shards × makespan)` (1.0 on an empty run).
    pub availability: f64,
}

impl AvailabilitySummary {
    /// Rolls per-shard fault counters up into the fleet summary.
    pub fn from_shards(
        stats: &[ShardFaultStats],
        fault_events: u64,
        parked_requests: u64,
        makespan: SimTime,
    ) -> AvailabilitySummary {
        let downtime_micros: u64 = stats.iter().map(|s| s.downtime_micros).sum();
        let shard_time = (stats.len() as u64).saturating_mul(makespan.as_micros());
        AvailabilitySummary {
            fault_events,
            downtime_micros,
            evacuated_requests: stats.iter().map(|s| s.evacuated_requests).sum(),
            aborted_transfers: stats.iter().map(|s| s.aborted_transfers).sum(),
            failovers: stats.iter().map(|s| s.failover_receipts).sum(),
            parked_requests,
            availability: if shard_time == 0 {
                1.0
            } else {
                1.0 - downtime_micros as f64 / shard_time as f64
            },
        }
    }
}

/// One CSD shard's share of a run: its own counters, per-stream
/// activity spans, scheduler, and delivery ledger.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardResult {
    /// Shard index within the fleet.
    pub shard: usize,
    /// This shard's device counters.
    pub metrics: DeviceMetrics,
    /// This shard's fault-plane counters (all-zero without faults).
    pub fault: ShardFaultStats,
    /// The control stream's activity spans, in time order: every switch
    /// plus stream 0's transfers. For a serial (1-stream) device this
    /// is the whole activity log, exactly as it always was.
    pub spans: Vec<Span>,
    /// The remaining streams' transfer spans (stream `k+1` at index
    /// `k`), each list sequential in time; spans overlap *across* lists
    /// while transfers run in parallel. Empty for a serial device.
    pub extra_stream_spans: Vec<Vec<Span>>,
    /// Scheduler deployed on this shard.
    pub scheduler: &'static str,
    /// Completed transfers in service order: `(client, query, object)`.
    pub deliveries: Vec<(usize, QueryId, ObjectId)>,
    /// Shard-cache counters (all-zero when the shard runs uncached).
    pub cache: CacheStats,
    /// GETs served from the cache tiers, in service order (recorded
    /// under `LedgerMode::Full`, like [`ShardResult::deliveries`]).
    pub cache_deliveries: Vec<(usize, QueryId, ObjectId)>,
}

impl ShardResult {
    /// Every stream's span list, control stream first.
    pub fn stream_span_lists(&self) -> impl Iterator<Item = &[Span]> {
        std::iter::once(self.spans.as_slice())
            .chain(self.extra_stream_spans.iter().map(|s| s.as_slice()))
    }

    /// This shard's transfer overlap/utilization rollup.
    pub fn stream_rollup(&self) -> StreamRollup {
        let mut rollup = StreamRollup {
            streams: 1 + self.extra_stream_spans.len(),
            peak_streams: self.metrics.peak_concurrent_streams.max(1),
            // Stream-occupancy time comes from the device's own
            // accounting (one source of truth); the spans below only
            // contribute the wall-clock union and the switch wall.
            transfer_stream_secs: self.metrics.transfer_busy_micros as f64 / 1e6,
            ..StreamRollup::default()
        };
        let mut transfers: Vec<(SimTime, SimTime)> = Vec::new();
        for list in self.stream_span_lists() {
            for span in list {
                match span.activity {
                    skipper_sim::Activity::Transferring { .. } => {
                        transfers.push((span.start, span.end));
                    }
                    skipper_sim::Activity::Switching => {
                        rollup.switching_secs += span.end.since(span.start).as_secs_f64();
                    }
                    skipper_sim::Activity::Idle => {}
                }
            }
        }
        // Union of the transfer intervals across streams: the wall-clock
        // time at least one stream was busy.
        transfers.sort_unstable();
        let mut cursor: Option<(SimTime, SimTime)> = None;
        for (start, end) in transfers {
            match &mut cursor {
                Some((_, open_end)) if start <= *open_end => *open_end = (*open_end).max(end),
                _ => {
                    if let Some((s, e)) = cursor.take() {
                        rollup.transfer_wall_secs += e.since(s).as_secs_f64();
                    }
                    cursor = Some((start, end));
                }
            }
        }
        if let Some((s, e)) = cursor {
            rollup.transfer_wall_secs += e.since(s).as_secs_f64();
        }
        rollup
    }
}

/// The §5.2.1 overlap/utilization rollup: how much intra-group transfer
/// work overlapped in time. `transfer_stream_secs` is stream-occupancy
/// time (Σ per-transfer durations); `transfer_wall_secs` is the
/// wall-clock time at least one stream was transferring. Their ratio —
/// [`StreamRollup::overlap`] — is 1.0 for the serialized middleware and
/// approaches the stream count as the pipeline saturates, which is
/// exactly the "parallelize servicing within a group" win: the same
/// stream-seconds of work compressed into `1/overlap` of the wall time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StreamRollup {
    /// Configured transfer slots (for a fleet: the max over shards).
    pub streams: usize,
    /// Peak simultaneously busy streams observed.
    pub peak_streams: u32,
    /// Stream-occupancy transfer time in seconds (Σ over transfers).
    pub transfer_stream_secs: f64,
    /// Wall-clock seconds with ≥ 1 stream transferring (per shard,
    /// summed across shards for the run-level rollup).
    pub transfer_wall_secs: f64,
    /// Wall-clock seconds spent switching groups (summed across shards).
    pub switching_secs: f64,
}

impl StreamRollup {
    /// Mean transfer concurrency while transferring:
    /// `transfer_stream_secs / transfer_wall_secs` (1.0 when idle).
    pub fn overlap(&self) -> f64 {
        if self.transfer_wall_secs > 0.0 {
            self.transfer_stream_secs / self.transfer_wall_secs
        } else {
            1.0
        }
    }

    /// Fraction of the available stream-slots actually busy while the
    /// device was transferring: `overlap / streams`.
    pub fn utilization(&self) -> f64 {
        if self.streams > 0 {
            self.overlap() / self.streams as f64
        } else {
            0.0
        }
    }

    /// Merges another shard's rollup into this one.
    pub fn absorb(&mut self, other: &StreamRollup) {
        self.streams = self.streams.max(other.streams);
        self.peak_streams = self.peak_streams.max(other.peak_streams);
        self.transfer_stream_secs += other.transfer_stream_secs;
        self.transfer_wall_secs += other.transfer_wall_secs;
        self.switching_secs += other.switching_secs;
    }
}

/// Whether finished [`QueryRecord`]s are retained in the run result.
///
/// The streaming [`LatencySummary`] is computed either way, so
/// `Counters` keeps tail-latency observability on runs too large to
/// hold per-query records (pairs with `TraceMode::Counters` /
/// `LedgerMode::Counters` for a fully bounded-memory drive).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecordMode {
    /// Keep every per-query record (the default; required by stall
    /// attribution and the golden comparisons).
    #[default]
    Full,
    /// Drop records as they finish; [`RunResult::clients`] comes back
    /// with empty per-client lists and only the streaming summaries
    /// (latency, device counters, makespan) survive.
    Counters,
}

/// The four tail percentiles reported throughout the latency summary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
}

impl Quantiles {
    fn from_sketch(sketch: &QuantileSketch) -> Option<Quantiles> {
        Some(Quantiles {
            p50: sketch.quantile(0.50)?,
            p95: sketch.quantile(0.95)?,
            p99: sketch.quantile(0.99)?,
            p999: sketch.quantile(0.999)?,
        })
    }
}

/// SLO attainment for one scope: how many queries finished within the
/// declared response-time target.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SloReport {
    /// The target in seconds. `None` on the fleet scope when tenants
    /// declare different targets (the counters still aggregate).
    pub target_secs: Option<f64>,
    /// Queries that met their target.
    pub met: u64,
    /// Queries measured against a target.
    pub total: u64,
}

impl SloReport {
    /// Fraction of measured queries within target (1.0 when none were
    /// measured — an empty scope violates nothing).
    pub fn attainment(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.met as f64 / self.total as f64
        }
    }
}

/// Latency digest of one scope (one tenant, or the whole fleet).
///
/// Response time is release → completion (queue-wait included; equals
/// execution time for closed-loop queries). Stretch is response time
/// over the declared ideal, present only when the scope declared one
/// via [`Workload::ideal_time`](super::workload::Workload::ideal_time).
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyScope {
    /// Queries observed.
    pub count: u64,
    /// Mean response time in seconds.
    pub mean_secs: f64,
    /// Worst response time in seconds.
    pub max_secs: f64,
    /// Response-time percentiles (`None` when the scope saw nothing).
    pub response: Option<Quantiles>,
    /// Stretch percentiles (`None` without a declared ideal).
    pub stretch: Option<Quantiles>,
    /// SLO attainment (`None` without a declared target anywhere in
    /// the scope).
    pub slo: Option<SloReport>,
}

/// Streaming tail-latency report of a run: response-time and stretch
/// percentiles plus SLO attainment, fleet-wide and per tenant.
///
/// Built from [`QuantileSketch`]es fed as queries finish, so it is
/// O(1) memory per tenant in the observation count and fully populated
/// even in [`RecordMode::Counters`] / `LedgerMode::Counters` where no
/// per-query records survive. Quantile values carry the sketch
/// guarantee: true rank within `epsilon`·n of the requested rank.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencySummary {
    /// Rank-error bound of every percentile in this summary.
    pub epsilon: f64,
    /// All queries of the run.
    pub fleet: LatencyScope,
    /// One scope per tenant, in client order.
    pub tenants: Vec<LatencyScope>,
}

impl LatencySummary {
    /// An empty summary (zero tenants, nothing observed).
    pub fn empty() -> LatencySummary {
        LatencySummary {
            epsilon: QuantileSketch::DEFAULT_EPSILON,
            fleet: ScopeAcc::new(None, None).finish(),
            tenants: Vec::new(),
        }
    }
}

/// One scope's streaming state inside [`LatencyAccumulator`].
struct ScopeAcc {
    slo: Option<SimDuration>,
    ideal: Option<SimDuration>,
    response: QuantileSketch,
    stretch: Option<QuantileSketch>,
    sum_secs: f64,
    max_secs: f64,
    slo_met: u64,
    slo_total: u64,
}

impl ScopeAcc {
    fn new(slo: Option<SimDuration>, ideal: Option<SimDuration>) -> ScopeAcc {
        ScopeAcc {
            slo,
            ideal,
            response: QuantileSketch::default_epsilon(),
            stretch: ideal.map(|_| QuantileSketch::default_epsilon()),
            sum_secs: 0.0,
            max_secs: 0.0,
            slo_met: 0,
            slo_total: 0,
        }
    }

    /// Folds in one query of a tenant whose SLO target is `slo` and
    /// ideal time `ideal`. Both the tenant's scope and the fleet scope
    /// are fed the tenant's values (the fleet's own are unset).
    fn observe(
        &mut self,
        response: SimDuration,
        slo: Option<SimDuration>,
        ideal: Option<SimDuration>,
    ) {
        let secs = response.as_secs_f64();
        self.response.push(secs);
        self.sum_secs += secs;
        self.max_secs = self.max_secs.max(secs);
        if let Some(target) = slo {
            self.slo_total += 1;
            if response <= target {
                self.slo_met += 1;
            }
        }
        if let (Some(sketch), Some(ideal)) = (&mut self.stretch, ideal) {
            sketch.push(skipper_sim::stats::stretch(response, ideal));
        }
    }

    fn finish(&self) -> LatencyScope {
        let count = self.response.count();
        LatencyScope {
            count,
            mean_secs: if count == 0 {
                0.0
            } else {
                self.sum_secs / count as f64
            },
            max_secs: self.max_secs,
            response: Quantiles::from_sketch(&self.response),
            stretch: self.stretch.as_ref().and_then(Quantiles::from_sketch),
            slo: (self.slo_total > 0).then_some(SloReport {
                target_secs: self.slo.map(|t| t.as_secs_f64()),
                met: self.slo_met,
                total: self.slo_total,
            }),
        }
    }
}

/// Streaming builder of a [`LatencySummary`]: one sketch pair per
/// tenant plus one fleet-wide pair, fed by the driver as each query
/// completes. Memory is bounded by the sketch (O((1/ε)·log(εn)) per
/// scope), independent of how many queries the run retires — this is
/// what keeps tail latency observable on million-request counter-mode
/// drives.
pub struct LatencyAccumulator {
    fleet: ScopeAcc,
    tenants: Vec<ScopeAcc>,
}

impl LatencyAccumulator {
    /// One scope per tenant, each with its optional SLO target and
    /// ideal time (for stretch). The fleet scope aggregates SLO
    /// counters across every tenant that declared a target and tracks
    /// stretch when at least one tenant declared an ideal.
    pub fn new(tenants: &[(Option<SimDuration>, Option<SimDuration>)]) -> LatencyAccumulator {
        let any_ideal = tenants.iter().any(|(_, ideal)| ideal.is_some());
        let mut fleet = ScopeAcc::new(None, None);
        if any_ideal {
            fleet.stretch = Some(QuantileSketch::default_epsilon());
        }
        LatencyAccumulator {
            fleet,
            tenants: tenants
                .iter()
                .map(|&(slo, ideal)| ScopeAcc::new(slo, ideal))
                .collect(),
        }
    }

    /// Records one finished query's response time (release →
    /// completion) for `tenant`.
    pub fn observe(&mut self, tenant: usize, response: SimDuration) {
        let scope = &mut self.tenants[tenant];
        let (slo, ideal) = (scope.slo, scope.ideal);
        scope.observe(response, slo, ideal);
        self.fleet.observe(response, slo, ideal);
    }

    /// Closes the accumulator into the run's summary.
    pub fn finish(&self) -> LatencySummary {
        LatencySummary {
            epsilon: QuantileSketch::DEFAULT_EPSILON,
            fleet: self.fleet.finish(),
            tenants: self.tenants.iter().map(ScopeAcc::finish).collect(),
        }
    }
}

/// Everything measured by one scenario run.
///
/// `PartialEq`/`Debug` cover every field, so a whole run can be
/// compared byte-for-byte — the determinism tests assert repeated
/// runs of one scenario produce equal `RunResult`s.
#[derive(Debug, PartialEq)]
pub struct RunResult {
    /// Per-client query records, in execution order.
    pub clients: Vec<Vec<QueryRecord>>,
    /// Device counters, rolled up across every shard of the fleet
    /// (identical to shard 0's counters for a single-device run).
    pub device: DeviceMetrics,
    /// Per-shard breakdowns, in shard order (length = fleet size).
    pub shards: Vec<ShardResult>,
    /// Virtual time at which the last event fired.
    pub makespan: SimTime,
    /// Scheduler label used (shard 0's scheduler for a fleet).
    pub scheduler: &'static str,
    /// Streaming tail-latency report: response-time / stretch
    /// percentiles and SLO attainment, fleet-wide and per tenant.
    /// Populated in every [`RecordMode`] (the sketches stream).
    pub latency: LatencySummary,
    /// Fault-plane summary: downtime, evacuations, failovers, and the
    /// fleet's availability fraction (1.0 on fault-free runs).
    pub availability: AvailabilitySummary,
    /// Shard-cache counters rolled up across the fleet (all-zero on an
    /// uncached run).
    pub cache: CacheStats,
    /// MAID energy estimate for the run (watt-hours vs the always-on
    /// baseline), under the default `PowerModel`.
    pub energy: EnergyReport,
    /// Dollar breakdown of the run — amortized tier capex plus energy,
    /// per completed query — at the default `FleetPricing`.
    pub economics: CostReport,
    /// Protection-plane counters: deadline misses, sheds, retries,
    /// hedges, breaker trips, and per-tenant goodput vs offered load.
    /// All-zero (`ProtectionSummary::is_quiet`) when every protection
    /// knob is disabled.
    pub protection: ProtectionSummary,
    /// Consumed-delivery ledger under hedging: one `(client, query,
    /// object)` entry per delivery a client actually consumed
    /// (duplicates from the losing replica are excluded at routing).
    /// Recorded only when hedging is enabled and records are
    /// [`RecordMode::Full`]; empty otherwise.
    pub consumed: Vec<(usize, QueryId, ObjectId)>,
}

impl RunResult {
    /// Iterator over every query record.
    pub fn records(&self) -> impl Iterator<Item = &QueryRecord> {
        self.clients.iter().flatten()
    }

    /// Shard 0's activity spans (the whole device's spans for a
    /// single-device run; see [`RunResult::shards`] for the rest).
    /// Borrows the shard breakdown instead of keeping a duplicate copy.
    pub fn device_spans(&self) -> &[Span] {
        &self.shards[0].spans
    }

    /// Mean per-query execution time in seconds (the paper's
    /// "average execution time" y-axis).
    pub fn mean_query_secs(&self) -> f64 {
        let (mut total, mut n) = (0.0, 0u32);
        for r in self.records() {
            total += r.duration().as_secs_f64();
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    }

    /// Sum of all query execution times in seconds ("cumulative
    /// execution time").
    pub fn cumulative_secs(&self) -> f64 {
        self.records().map(|r| r.duration().as_secs_f64()).sum()
    }

    /// Total GETs issued across all queries (the Figure 11 right axis).
    pub fn total_gets(&self) -> u64 {
        self.records().map(|r| r.stats.gets_issued).sum()
    }

    /// Per-query stretches against one uniform ideal (single-tenant)
    /// time. Only meaningful for homogeneous query mixes — for
    /// heterogeneous mixes a single divisor mis-ranks queries, so use
    /// [`RunResult::stretches_with`] with per-query ideals instead.
    pub fn stretches(&self, ideal: SimDuration) -> Vec<f64> {
        self.stretches_with(|_| ideal)
    }

    /// Per-query stretches with a per-record ideal: `ideal(record)`
    /// returns the single-tenant execution time the record is measured
    /// against (typically keyed on `record.query` or `record.client`).
    pub fn stretches_with(&self, ideal: impl Fn(&QueryRecord) -> SimDuration) -> Vec<f64> {
        self.records()
            .map(|r| skipper_sim::stats::stretch(r.duration(), ideal(r)))
            .collect()
    }

    /// An ASCII Gantt strip of shard 0's activity over the whole run:
    /// `S` = group switch, digits = transfer to that client, `.` = idle.
    /// Renders straight off the borrowed span list — no trace rebuild,
    /// no span copies. For fleets, see [`RunResult::shard_timeline`].
    pub fn timeline(&self, width: usize) -> String {
        skipper_sim::timeline::render_spans(
            self.device_spans(),
            SimTime::ZERO,
            self.makespan,
            width,
        )
    }

    /// The ASCII Gantt strip of one shard's activity.
    pub fn shard_timeline(&self, shard: usize, width: usize) -> String {
        skipper_sim::timeline::render_spans(
            &self.shards[shard].spans,
            SimTime::ZERO,
            self.makespan,
            width,
        )
    }

    /// The fleet-wide transfer overlap/utilization rollup (§5.2.1):
    /// stream-seconds vs wall-seconds of intra-group transfer across
    /// every shard. `overlap()` reads 1.0 for the paper's serialized
    /// middleware and approaches the stream count as the service
    /// pipeline saturates.
    pub fn stream_rollup(&self) -> StreamRollup {
        let mut total = StreamRollup::default();
        for shard in &self.shards {
            total.absorb(&shard.stream_rollup());
        }
        total
    }

    /// The fleet's delivery ledger as a sorted multiset of
    /// `(client, query, object)` triples: the work-conservation
    /// invariant — a sharded run must produce exactly the multiset of
    /// the equivalent 1-shard run.
    pub fn delivery_multiset(&self) -> Vec<(usize, QueryId, ObjectId)> {
        let mut all: Vec<(usize, QueryId, ObjectId)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.deliveries
                    .iter()
                    .chain(s.cache_deliveries.iter())
                    .copied()
            })
            .collect();
        all.sort_unstable();
        all
    }

    /// The *consumed* multiset under hedging, sorted: conservation is
    /// re-pinned on consumption — each requested object is consumed at
    /// most once per query, with duplicate (losing-replica) deliveries
    /// discarded at routing. A hedged run's consumed multiset equals
    /// the unhedged run's delivery multiset. Empty unless hedging was
    /// enabled with [`RecordMode::Full`].
    pub fn consumed_multiset(&self) -> Vec<(usize, QueryId, ObjectId)> {
        let mut all = self.consumed.clone();
        all.sort_unstable();
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipper_sim::{Activity, ActivityTrace};

    #[test]
    fn draft_tracks_blocked_intervals() {
        let mut d = RecordDraft::begin("q".into(), None, SimTime::from_secs(5));
        assert_eq!(d.start, SimTime::from_secs(5));
        d.unblock(SimTime::from_secs(8));
        assert_eq!(
            d.blocked,
            vec![(SimTime::from_secs(5), SimTime::from_secs(8))]
        );
        // Zero-length blocks are dropped.
        d.blocked_from = Some(SimTime::from_secs(9));
        d.unblock(SimTime::from_secs(9));
        assert_eq!(d.blocked.len(), 1);
        // Unblocking while not blocked is a no-op.
        d.unblock(SimTime::from_secs(10));
        assert_eq!(d.blocked.len(), 1);
    }

    #[test]
    fn attribution_splits_by_trace() {
        let mut trace = ActivityTrace::new();
        trace.record(SimTime::ZERO, SimTime::from_secs(10), Activity::Switching);
        trace.record(
            SimTime::from_secs(10),
            SimTime::from_secs(14),
            Activity::Transferring { client: 0 },
        );
        let rec = PendingRecord {
            record: QueryRecord {
                query: "q".into(),
                client: 0,
                seq: 0,
                engine: "skipper",
                release: None,
                start: SimTime::ZERO,
                end: SimTime::from_secs(14),
                processing: SimDuration::ZERO,
                upfront_gets: 1,
                stalls: Attribution::default(),
                stats: EngineStats::default(),
                result: Vec::new(),
            },
            blocked_intervals: vec![(SimTime::ZERO, SimTime::from_secs(14))],
        };
        let timeline = MergedTimeline::build(&[trace.spans()]);
        let out = attribute_stalls_merged(&timeline, vec![rec]);
        assert_eq!(out[0].stalls.switching, SimDuration::from_secs(10));
        assert_eq!(out[0].stalls.transfer, SimDuration::from_secs(4));
    }

    fn record_with_release(release: Option<SimTime>, start: u64, end: u64) -> QueryRecord {
        QueryRecord {
            query: "q".into(),
            client: 0,
            seq: 0,
            engine: "skipper",
            release,
            start: SimTime::from_secs(start),
            end: SimTime::from_secs(end),
            processing: SimDuration::ZERO,
            upfront_gets: 0,
            stalls: Attribution::default(),
            stats: EngineStats::default(),
            result: Vec::new(),
        }
    }

    #[test]
    fn response_time_includes_queue_wait() {
        // Released at t=10, started at t=25 (queued 15s), done at t=40.
        let rec = record_with_release(Some(SimTime::from_secs(10)), 25, 40);
        assert_eq!(rec.duration(), SimDuration::from_secs(15));
        assert_eq!(rec.queue_wait(), SimDuration::from_secs(15));
        assert_eq!(rec.response_time(), SimDuration::from_secs(30));
        // Closed-loop: response == duration, no queue-wait.
        let closed = record_with_release(None, 25, 40);
        assert_eq!(closed.response_time(), closed.duration());
        assert_eq!(closed.queue_wait(), SimDuration::ZERO);
    }

    #[test]
    fn latency_accumulator_scopes_and_slo() {
        // Tenant 0: SLO 20s, ideal 10s. Tenant 1: neither.
        let mut acc = LatencyAccumulator::new(&[
            (
                Some(SimDuration::from_secs(20)),
                Some(SimDuration::from_secs(10)),
            ),
            (None, None),
        ]);
        acc.observe(0, SimDuration::from_secs(10)); // met, stretch 1.0
        acc.observe(0, SimDuration::from_secs(30)); // missed, stretch 3.0
        acc.observe(1, SimDuration::from_secs(50));
        let summary = acc.finish();
        assert_eq!(summary.fleet.count, 3);
        assert_eq!(summary.tenants[0].count, 2);
        let slo0 = summary.tenants[0].slo.unwrap();
        assert_eq!((slo0.met, slo0.total), (1, 2));
        assert_eq!(slo0.target_secs, Some(20.0));
        assert_eq!(slo0.attainment(), 0.5);
        // Fleet aggregates only the two queries that had a target.
        let fleet_slo = summary.fleet.slo.unwrap();
        assert_eq!((fleet_slo.met, fleet_slo.total), (1, 2));
        assert_eq!(fleet_slo.target_secs, None);
        // Stretch only where an ideal was declared.
        let st = summary.tenants[0].stretch.unwrap();
        assert_eq!((st.p50, st.p999), (1.0, 3.0));
        assert!(summary.tenants[1].stretch.is_none());
        assert!(summary.fleet.stretch.is_some());
        // Small scopes answer exactly.
        let resp = summary.fleet.response.unwrap();
        assert_eq!((resp.p50, resp.p999), (30.0, 50.0));
        assert_eq!(summary.fleet.max_secs, 50.0);
        assert!((summary.fleet.mean_secs - 30.0).abs() < 1e-12);
    }

    #[test]
    fn empty_scopes_report_nothing() {
        let acc = LatencyAccumulator::new(&[(None, None)]);
        let summary = acc.finish();
        assert_eq!(summary.fleet.count, 0);
        assert!(summary.fleet.response.is_none());
        assert!(summary.fleet.slo.is_none());
        assert_eq!(summary.fleet.mean_secs, 0.0);
        assert_eq!(LatencySummary::empty().tenants.len(), 0);
    }
}
