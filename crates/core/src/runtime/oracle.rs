//! The run invariants, stated once: every test battery, bench gate and
//! example that asserts a run is sound calls [`check_run`] and
//! [`check_same_work`] instead of restating the checks. Each returns
//! the violations it found, one line each; an empty vector means the
//! run is sound.

use skipper_csd::cache::CacheStats;
use skipper_csd::metrics::DeviceMetrics;

use super::RunResult;

/// Checks the invariants of a single run:
///
/// * the device and cache counters equal the sum over shards;
/// * every device request ends served, cancelled, evacuated or aborted,
///   and whenever the cache saw lookups every miss is one device
///   request — so `cache.misses == device.objects_served` on a run that
///   cancelled, evacuated and aborted nothing;
/// * only the protection plane cancels device requests: a run whose
///   [`ProtectionSummary`](super::ProtectionSummary) stayed quiet
///   cancelled none;
/// * under `LedgerMode::Full`, the delivery ledger holds
///   `objects_served + cache.hits()` entries (a run whose ledgers are
///   all empty is taken for a `LedgerMode::Counters` run);
/// * `processing + stalls == duration` for every query record;
/// * no `(client, query, object)` is consumed twice, when the
///   consumption log is present. This assumes every query requests
///   each object once: an engine that re-requests an object it already
///   consumed (a Skipper reissue under a small MJoin cache) consumes it
///   again, and this rule reports it.
pub fn check_run(run: &RunResult) -> Vec<String> {
    let mut bad = Vec::new();
    if run.device != DeviceMetrics::rolled_up(run.shards.iter().map(|s| &s.metrics)) {
        bad.push("device counters differ from the sum over shards".to_string());
    }
    let mut cache = CacheStats::default();
    for shard in &run.shards {
        cache.absorb(&shard.cache);
    }
    if run.cache != cache {
        bad.push("cache counters differ from the sum over shards".to_string());
    }
    let d = &run.device;
    if run.cache.lookups() > 0 && run.cache.misses != d.requests_submitted {
        bad.push(format!(
            "{} cache misses but {} device requests",
            run.cache.misses, d.requests_submitted
        ));
    }
    let ended =
        d.objects_served + d.requests_cancelled + d.requests_evacuated + d.transfers_aborted;
    if d.requests_submitted != ended {
        bad.push(format!(
            "{} device requests but {} served + {} cancelled + {} evacuated + {} aborted",
            d.requests_submitted,
            d.objects_served,
            d.requests_cancelled,
            d.requests_evacuated,
            d.transfers_aborted
        ));
    }
    if run.protection.is_quiet() && d.requests_cancelled > 0 {
        bad.push(format!(
            "{} device requests cancelled with the protection plane quiet",
            d.requests_cancelled
        ));
    }
    let logged: usize = run
        .shards
        .iter()
        .map(|s| s.deliveries.len() + s.cache_deliveries.len())
        .sum();
    let delivered = run.device.objects_served + run.cache.hits();
    if logged > 0 && logged as u64 != delivered {
        bad.push(format!(
            "delivery ledger holds {logged} entries for {} served + {} hits",
            run.device.objects_served,
            run.cache.hits()
        ));
    }
    for rec in run.records() {
        let accounted = rec.processing + rec.stalls.total();
        if accounted != rec.duration() {
            bad.push(format!(
                "client {} query {}: processing + stalls = {} µs, duration {} µs",
                rec.client,
                rec.seq,
                accounted.as_micros(),
                rec.duration().as_micros()
            ));
        }
    }
    let consumed = run.consumed_multiset();
    if let Some(twice) = consumed.windows(2).find(|w| w[0] == w[1]) {
        let (client, query, object) = twice[0];
        bad.push(format!(
            "client {client} consumed {object} twice in {query}"
        ));
    }
    bad
}

/// Checks that `run` did `reference`'s work: its consumed multiset when
/// it hedged (the consumption log is present), otherwise its delivery
/// multiset, equals the reference's delivery multiset.
pub fn check_same_work(run: &RunResult, reference: &RunResult) -> Vec<String> {
    let (what, got) = if run.consumed.is_empty() {
        ("delivered", run.delivery_multiset())
    } else {
        ("consumed", run.consumed_multiset())
    };
    let want = reference.delivery_multiset();
    if got == want {
        return Vec::new();
    }
    let first = got.iter().zip(&want).position(|(a, b)| a != b);
    vec![format!(
        "{what} multiset ({} entries) differs from the reference ({} entries){}",
        got.len(),
        want.len(),
        first.map_or(String::new(), |i| format!(
            ", first at {i}: {:?} vs {:?}",
            got[i], want[i]
        ))
    )]
}
