//! Intra-group parallel servicing: the §5.2.1 stream sweep.
//!
//! The paper's prototype middleware serialized request servicing and
//! §5.2.1 observes that "by parallelizing the servicing of requests
//! within a group, we can reduce transfer time substantially" — the
//! spun-up Pelican group sustains 1-2 GB/s while a single stream sees
//! ~110 MB/s. This experiment quantifies that claim on the mixed-tenant
//! fleet: 1→8 service-pipeline streams × 1→4 CSD shards, reporting the
//! makespan, the intra-group transfer *wall* time (the quantity §5.2.1
//! says parallelism compresses), the stream-seconds of transfer work
//! (invariant across stream counts — same bytes, same per-stream rate),
//! and the overlap/utilization rollup. As streams grow, the transfer
//! wall approaches `stream_secs / streams` and the makespan approaches
//! the *switch-limited bound* (switch wall + residual serial work).
//!
//! Modelling the same improvement as a flat bandwidth constant — one
//! serial stream at `n ×` the per-stream rate — rides along as the
//! `"multiplier"` A/B rows at each stream count: it reaches similar
//! makespans on saturated queues but reports no overlap (it *is*
//! serial), which is why the device models concurrency instead.

use std::sync::Arc;

use skipper_core::runtime::{RunResult, Scenario, SkipperFactory, VanillaFactory, Workload};
use skipper_csd::CsdConfig;

use crate::ctx::Ctx;
use crate::experiments::mixed;
use crate::experiments::params::GIB;
use crate::report::{secs, Table};

/// One (streams, shards, model) cell of the sweep.
#[derive(Clone, Debug)]
pub struct StreamsRow {
    /// Transfer streams per shard.
    pub streams: u32,
    /// Fleet size.
    pub shards: usize,
    /// `"pipeline"`, `"multiplier"` (the serial `n ×` bandwidth A/B) or
    /// `"pull-ctrl"`.
    pub model: &'static str,
    /// Virtual makespan of the whole fleet run.
    pub makespan_secs: f64,
    /// Mean per-query execution time.
    pub mean_query_secs: f64,
    /// Wall-clock seconds with ≥ 1 stream transferring (summed over
    /// shards) — the intra-group transfer time §5.2.1 compresses.
    pub transfer_wall_secs: f64,
    /// Stream-seconds of transfer work (invariant in stream count).
    pub transfer_stream_secs: f64,
    /// Mean transfer concurrency (`stream_secs / wall_secs`).
    pub overlap: f64,
    /// Wall-clock seconds spent switching (summed over shards).
    pub switching_secs: f64,
    /// Total paid group switches across all shards.
    pub total_switches: u64,
}

impl StreamsRow {
    fn measure(streams: u32, shards: usize, model: &'static str, res: &RunResult) -> Self {
        let rollup = res.stream_rollup();
        StreamsRow {
            streams,
            shards,
            model,
            makespan_secs: res.makespan.as_secs_f64(),
            mean_query_secs: res.mean_query_secs(),
            transfer_wall_secs: rollup.transfer_wall_secs,
            transfer_stream_secs: rollup.transfer_stream_secs,
            overlap: rollup.overlap(),
            switching_secs: rollup.switching_secs,
            total_switches: res.device.group_switches,
        }
    }
}

/// Runs the mixed-tenant fleet (the four Figure 8 benchmark tenants,
/// all on Skipper) at one configuration. All-Skipper is the §5.2.1
/// setting: Skipper issues its working set upfront, so the middleware
/// is what serializes servicing — a pull-based tenant serializes at
/// the *client* protocol and no amount of device streams can help it
/// (see [`vanilla_pull_cells`] for that control). `multiplier` runs the
/// A/B instead of the pipeline: one serial stream at `streams ×` the
/// default bandwidth.
fn run_cell(
    tenants: &[(
        &'static str,
        Arc<skipper_datagen::Dataset>,
        skipper_relational::query::QuerySpec,
    )],
    reps: usize,
    streams: u32,
    shards: usize,
    multiplier: bool,
) -> StreamsRow {
    let workloads: Vec<Workload> = tenants
        .iter()
        .map(|(_, ds, q)| {
            Workload::new(Arc::clone(ds))
                .repeat_query(q.clone(), reps)
                .engine(SkipperFactory::default().cache_bytes(30 * GIB))
        })
        .collect();
    let scenario = Scenario::from_workloads(workloads).shards(shards);
    let res = if multiplier {
        let per_stream = CsdConfig::default().bandwidth_bytes_per_sec;
        scenario.streams(1).bandwidth(streams as f64 * per_stream)
    } else {
        scenario.streams(streams)
    }
    .run();
    let model = if multiplier { "multiplier" } else { "pipeline" };
    StreamsRow::measure(streams, shards, model, &res)
}

/// Control cells: the same tenants pull-based (Vanilla). The client
/// protocol admits one outstanding GET per tenant, so device streams
/// barely move the needle — isolating how much of the §5.2.1 win
/// depends on Skipper's issue-everything-upfront batches.
fn vanilla_pull_cells(
    tenants: &[(
        &'static str,
        Arc<skipper_datagen::Dataset>,
        skipper_relational::query::QuerySpec,
    )],
    reps: usize,
) -> Vec<StreamsRow> {
    [1u32, 8]
        .into_iter()
        .map(|streams| {
            let workloads: Vec<Workload> = tenants
                .iter()
                .map(|(_, ds, q)| {
                    Workload::new(Arc::clone(ds))
                        .repeat_query(q.clone(), reps)
                        .engine(VanillaFactory)
                })
                .collect();
            let res = Scenario::from_workloads(workloads).streams(streams).run();
            StreamsRow::measure(streams, 1, "pull-ctrl", &res)
        })
        .collect()
}

/// The full sweep: pipeline at 1→8 streams × 1→4 shards, the
/// bandwidth-multiplier A/B at each stream count on one shard, and the
/// pull-based control pair.
pub fn streams_rows(ctx: &mut Ctx, reps: usize) -> Vec<StreamsRow> {
    let tenants = mixed::tenants(ctx);
    let mut rows = Vec::new();
    for shards in [1usize, 2, 4] {
        for streams in [1u32, 2, 4, 8] {
            rows.push(run_cell(&tenants, reps, streams, shards, false));
        }
    }
    for streams in [2u32, 4, 8] {
        rows.push(run_cell(&tenants, reps, streams, 1, true));
    }
    rows.extend(vanilla_pull_cells(&tenants, reps));
    rows
}

/// The `streams` subcommand: the sweep at 5 runs per tenant as a
/// printable table plus its `BENCH_streams.json` document.
pub fn streams(ctx: &mut Ctx) -> (Table, String) {
    let rows = streams_rows(ctx, 5);
    (table(&rows), to_json(&rows))
}

/// Renders already-computed sweep rows.
pub fn table(rows: &[StreamsRow]) -> Table {
    let mut t = Table::new(
        "Intra-group parallel servicing (§5.2.1): mixed-tenant fleet, 1-8 streams x 1-4 shards (5 runs per tenant)",
        &[
            "shards",
            "streams",
            "model",
            "makespan(s)",
            "mean query(s)",
            "transfer wall(s)",
            "stream secs",
            "overlap",
            "switch wall(s)",
            "switches",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.shards.to_string(),
            r.streams.to_string(),
            r.model.into(),
            secs(r.makespan_secs),
            secs(r.mean_query_secs),
            secs(r.transfer_wall_secs),
            secs(r.transfer_stream_secs),
            format!("{:.2}", r.overlap),
            secs(r.switching_secs),
            r.total_switches.to_string(),
        ]);
    }
    t
}

/// Serializes the sweep as the `BENCH_streams.json` document (schema
/// `BENCH_streams/v1`); hand-rolled JSON, no serde in this workspace.
pub fn to_json(rows: &[StreamsRow]) -> String {
    let mut out = String::from("{\n  \"schema\": \"BENCH_streams/v1\",\n  \"rows\": [\n");
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"shards\": {}, \"streams\": {}, \"model\": \"{}\", \"makespan_secs\": {:.3}, \"mean_query_secs\": {:.3}, \"transfer_wall_secs\": {:.3}, \"transfer_stream_secs\": {:.3}, \"overlap\": {:.3}, \"switching_secs\": {:.3}, \"switches\": {}}}",
                r.shards,
                r.streams,
                r.model,
                r.makespan_secs,
                r.mean_query_secs,
                r.transfer_wall_secs,
                r.transfer_stream_secs,
                r.overlap,
                r.switching_secs,
                r.total_switches,
            )
        })
        .collect();
    out.push_str(&body.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipper_csd::SchedPolicy;

    #[test]
    fn four_streams_halve_the_intra_group_transfer_wall() {
        // Miniature acceptance check for the §5.2.1 claim (the real
        // sweep records the SF-50 numbers in EXPERIMENTS.md): on a
        // transfer-bound two-tenant mix, 4 streams must cut the
        // intra-group transfer wall time by ≥ 2× while conserving the
        // delivery multiset and the stream-seconds of work.
        let mut ctx = Ctx::new();
        let tpch_ds = ctx.tpch(2, 200_000);
        let mr_ds = ctx.mrbench(2, 200_000);
        let mk = |streams: u32| {
            Scenario::from_workloads(vec![
                Workload::new(Arc::clone(&tpch_ds))
                    .repeat_query(skipper_datagen::tpch::q12(&tpch_ds), 2)
                    .engine(SkipperFactory::default().cache_bytes(20 * GIB)),
                Workload::new(Arc::clone(&mr_ds))
                    .repeat_query(skipper_datagen::mrbench::join_task(&mr_ds), 2)
                    .engine(SkipperFactory::default().cache_bytes(20 * GIB)),
            ])
            .scheduler(SchedPolicy::RankBased)
            .streams(streams)
            .run()
        };
        let serial = mk(1);
        let parallel = mk(4);
        assert_eq!(serial.delivery_multiset(), parallel.delivery_multiset());
        let s = serial.stream_rollup();
        let p = parallel.stream_rollup();
        assert!((s.transfer_stream_secs - p.transfer_stream_secs).abs() < 1e-6);
        assert!(
            p.transfer_wall_secs <= s.transfer_wall_secs / 2.0,
            "4 streams only cut transfer wall from {:.0}s to {:.0}s",
            s.transfer_wall_secs,
            p.transfer_wall_secs
        );
        assert!(parallel.makespan < serial.makespan);
    }

    #[test]
    fn json_schema_and_multiplier_ab_rows() {
        let rows = vec![
            StreamsRow {
                streams: 4,
                shards: 1,
                model: "pipeline",
                makespan_secs: 100.0,
                mean_query_secs: 10.0,
                transfer_wall_secs: 25.0,
                transfer_stream_secs: 100.0,
                overlap: 4.0,
                switching_secs: 30.0,
                total_switches: 3,
            },
            StreamsRow {
                streams: 4,
                shards: 1,
                model: "multiplier",
                makespan_secs: 100.0,
                mean_query_secs: 10.0,
                transfer_wall_secs: 25.0,
                transfer_stream_secs: 25.0,
                overlap: 1.0,
                switching_secs: 30.0,
                total_switches: 3,
            },
        ];
        let json = to_json(&rows);
        assert!(json.contains("\"schema\": \"BENCH_streams/v1\""));
        assert!(json.contains("\"model\": \"pipeline\""));
        assert!(json.contains("\"model\": \"multiplier\""));
    }
}
