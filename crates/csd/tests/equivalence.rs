//! Differential equivalence: the indexed queue vs the naive reference.
//!
//! The indexed [`RequestQueue`] must be *observationally identical* to
//! the pre-index full-rescan [`NaiveQueue`]: for any submit schedule,
//! both queues plugged into the same device must produce the same
//! decision sequence (operation kinds and completion times), the same
//! delivery order, and the same counters. The sweep is randomized but
//! seeded — every case is a pure function of its loop indices — and
//! covers every `SchedPolicy` × `IntraGroupOrder` × {1, 2, 4} shards ×
//! {1, 2, 4} parallel streams, with mid-run arrivals racing active
//! residencies and (at streams > 1) armed switches draining multi-slot
//! pipelines. Each workload runs open (the schedule alone) and, for
//! policies × {1, 4} streams, closed-loop: a query's last delivery
//! submits its next round, so the queue's decisions feed back into what
//! it is offered next. A separate pull-convoy case drives dozens of
//! one-tenant groups with one GET outstanding per tenant, so group and
//! query index entries are created, drained and recycled once per GET.
//! A cancellation sweep replays the same workloads with query and
//! object cancels landing between kicks — on residents of an armed
//! residency, on fresh arrivals not yet armed, and on other groups — the
//! protection plane's deadline, retry and hedge-loser paths.
//!
//! Shard counts enter through a miniature fleet driver (round-robin
//! object → shard placement, one independent device per shard), which
//! also pins two work-conservation contracts: every shard count and
//! every stream count delivers the same `(client, query, object)`
//! multiset.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skipper_csd::sched::{NaiveQueue, RequestIndex, RequestQueue};
use skipper_csd::{
    CsdConfig, CsdDevice, IntraGroupOrder, ObjectId, ObjectStore, QueryId, SchedPolicy,
};
use skipper_sim::{SimDuration, SimTime};

const MB: u64 = 1 << 20;

/// One randomized workload: the object universe plus a time-ordered
/// submit schedule.
struct Workload {
    tenants: u16,
    segs_per_tenant: u32,
    groups: u32,
    /// `(time, client, query, objects)` sorted by time.
    schedule: Vec<(SimTime, usize, QueryId, Vec<ObjectId>)>,
    /// Closed-loop feedback: the delivery that completes a scheduled
    /// query resubmits its objects as a follow-up query, this many
    /// times over (0 = the schedule alone).
    followup_rounds: u32,
    /// `(time, cancel)` sorted by time. A cancel runs after the
    /// same-instant submissions and before the kick that follows them.
    cancels: Vec<(SimTime, Cancel)>,
}

/// A protection-plane cancel, applied to every shard's device.
#[derive(Clone, Copy, Debug)]
enum Cancel {
    /// `CsdDevice::cancel_query` (deadline miss, retry exhaustion).
    Query(QueryId),
    /// `CsdDevice::cancel_object` (hedge loser).
    Object(QueryId, ObjectId),
}

fn workload(seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let tenants = rng.gen_range(2u16..6);
    let segs_per_tenant = rng.gen_range(3u32..9);
    let groups = rng.gen_range(1u32..4);
    let batches = rng.gen_range(4usize..12);
    let mut schedule = Vec::new();
    let mut t = 0u64;
    for b in 0..batches {
        // Batches arrive at increasing instants; several may collide on
        // the same second to race the residency snapshot.
        t += rng.gen_range(0u64..15);
        let tenant = rng.gen_range(0..tenants);
        let query = QueryId::new(tenant, b as u32);
        let n = rng.gen_range(1usize..=segs_per_tenant as usize);
        let objects: Vec<ObjectId> = (0..n)
            .map(|_| ObjectId::new(tenant, 0, rng.gen_range(0..segs_per_tenant)))
            .collect();
        schedule.push((SimTime::from_secs(t), tenant as usize, query, objects));
    }
    Workload {
        tenants,
        segs_per_tenant,
        groups,
        schedule,
        followup_rounds: 0,
        cancels: Vec::new(),
    }
}

/// `workload(seed)` plus cancels for about half of its queries. A
/// cancel lands at its query's own submit instant (the requests are
/// fresh arrivals: no arm runs before the next kick) or up to 30 s
/// later (by then some are resident, some served, some on groups not
/// yet loaded); half of them cancel the whole query, half one object.
fn workload_with_cancels(seed: u64) -> Workload {
    let mut w = workload(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xCA9CE1);
    for (at, _, query, objects) in &w.schedule {
        if rng.gen_range(0u32..2) == 0 {
            continue;
        }
        let delay = match rng.gen_range(0u32..3) {
            0 => 0,
            _ => rng.gen_range(1u64..30),
        };
        let cancel = if rng.gen_range(0u32..2) == 0 {
            Cancel::Query(*query)
        } else {
            Cancel::Object(*query, objects[rng.gen_range(0..objects.len())])
        };
        w.cancels
            .push((*at + SimDuration::from_secs(delay), cancel));
    }
    w.cancels.sort_by_key(|&(at, _)| at);
    w
}

/// One shard event: completion time plus the delivered triple (`None`
/// for switch completions). Multi-stream wake-ups append one entry per
/// retired transfer, in the device's deterministic slot order.
type ShardEvent = (SimTime, Option<(usize, QueryId, ObjectId)>);

/// The observable outcome of one fleet run: per-shard event log plus
/// the counters the paper's figures derive from.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    events: Vec<Vec<ShardEvent>>,
    switches: Vec<u64>,
    served: Vec<u64>,
    cancelled: Vec<u64>,
}

impl Outcome {
    fn delivery_multiset(&self) -> Vec<(usize, QueryId, ObjectId)> {
        let mut all: Vec<_> = self
            .events
            .iter()
            .flatten()
            .filter_map(|(_, d)| *d)
            .collect();
        all.sort_unstable();
        all
    }
}

/// Runs `w` against a fleet of `shards` devices using queue impl `Q`
/// with `streams` pipeline slots each. Objects land on shard
/// `segment % shards`; tenant data lives in group `tenant % groups`.
/// 100 MB objects at 100 MB/s per stream, 10 s switches.
fn run_fleet<Q: RequestIndex>(
    w: &Workload,
    policy: SchedPolicy,
    intra: IntraGroupOrder,
    shards: usize,
    streams: u32,
) -> Outcome {
    let mut devices: Vec<CsdDevice<(), Q>> = (0..shards)
        .map(|shard| {
            let mut store = ObjectStore::new();
            for tenant in 0..w.tenants {
                for seg in 0..w.segs_per_tenant {
                    if seg as usize % shards == shard {
                        store.put(
                            ObjectId::new(tenant, 0, seg),
                            100 * MB,
                            tenant as u32 % w.groups,
                            (),
                        );
                    }
                }
            }
            CsdDevice::new(
                CsdConfig {
                    switch_latency: SimDuration::from_secs(10),
                    bandwidth_bytes_per_sec: (100 * MB) as f64,
                    initial_load_free: true,
                    parallel_streams: streams,
                    ..CsdConfig::default()
                },
                store,
                policy.build(),
                intra,
            )
        })
        .collect();

    let mut next: Vec<Option<SimTime>> = vec![None; shards];
    let mut events: Vec<Vec<ShardEvent>> = vec![Vec::new(); shards];
    let (mut si, mut ci) = (0, 0);
    // Per query in flight: its schedule entry and the deliveries it is
    // still owed. Each follow-up round steps the query seq by the
    // schedule length, which keeps ids unique and `seq / batches` the
    // round number.
    let mut live: BTreeMap<QueryId, (usize, usize)> = w
        .schedule
        .iter()
        .enumerate()
        .map(|(entry, e)| (e.2, (entry, e.3.len())))
        .collect();
    let batches = w.schedule.len() as u32;
    loop {
        let due = next
            .iter()
            .enumerate()
            .filter_map(|(s, t)| t.map(|t| (t, s)))
            .min();
        let upcoming = match (w.schedule.get(si), w.cancels.get(ci)) {
            (Some(s), Some(c)) => Some(s.0.min(c.0)),
            (s, c) => s.map(|s| s.0).or(c.map(|c| c.0)),
        };
        // Device completions run before same-instant arrivals, like the
        // runtime's event queue (insertion order).
        let device_first = match (due, upcoming) {
            (None, None) => break,
            (Some((t, _)), Some(st)) => t <= st,
            (Some(_), None) => true,
            (None, Some(_)) => false,
        };
        if device_first {
            let (t, s) = due.expect("device event due");
            let mut batch = Vec::new();
            devices[s].complete_into(t, &mut batch);
            if batch.is_empty() {
                events[s].push((t, None)); // switch completion
            }
            let mut resubmitted = false;
            for d in batch {
                events[s].push((t, Some((d.client, d.query, d.object))));
                let (entry, owed) = live.get_mut(&d.query).expect("query in flight");
                *owed -= 1;
                if *owed == 0 && d.query.seq / batches < w.followup_rounds {
                    let entry = *entry;
                    let objects = &w.schedule[entry].3;
                    let query = QueryId::new(d.query.tenant, d.query.seq + batches);
                    for &obj in objects {
                        devices[obj.segment as usize % shards].submit(t, d.client, query, &[obj]);
                    }
                    live.insert(query, (entry, objects.len()));
                    resubmitted = true;
                }
            }
            if resubmitted {
                for (s, slot) in next.iter_mut().enumerate() {
                    *slot = devices[s].kick(t);
                }
            } else {
                next[s] = devices[s].kick(t);
            }
        } else {
            let st = upcoming.expect("submission due");
            while si < w.schedule.len() && w.schedule[si].0 == st {
                let (at, client, query, ref objects) = w.schedule[si];
                for &obj in objects {
                    let s = obj.segment as usize % shards;
                    devices[s].submit(at, client, query, &[obj]);
                }
                si += 1;
            }
            while ci < w.cancels.len() && w.cancels[ci].0 == st {
                match w.cancels[ci].1 {
                    Cancel::Query(q) => {
                        for d in &mut devices {
                            d.cancel_query(q);
                        }
                    }
                    Cancel::Object(q, obj) => {
                        devices[obj.segment as usize % shards].cancel_object(q, obj);
                    }
                }
                ci += 1;
            }
            // Re-arm on every mutation: a submission can open idle
            // pipeline slots, moving a shard's earliest completion
            // *earlier*, so every shard re-kicks unconditionally.
            for (s, slot) in next.iter_mut().enumerate() {
                *slot = devices[s].kick(st);
            }
        }
    }
    outcome(&devices, events)
}

fn outcome<Q: RequestIndex>(devices: &[CsdDevice<(), Q>], events: Vec<Vec<ShardEvent>>) -> Outcome {
    Outcome {
        switches: devices.iter().map(|d| d.metrics().group_switches).collect(),
        served: devices.iter().map(|d| d.metrics().objects_served).collect(),
        cancelled: devices
            .iter()
            .map(|d| d.metrics().requests_cancelled)
            .collect(),
        events,
    }
}

const INTRA_ORDERS: [IntraGroupOrder; 3] = [
    IntraGroupOrder::SemanticRoundRobin,
    IntraGroupOrder::TableOrder,
    IntraGroupOrder::ArrivalOrder,
];

/// The sweep: every policy × intra order × shard count × stream count,
/// several seeds each — the indexed queue reproduces the naive queue's
/// decision sequence and delivery order exactly, and every shard/stream
/// combination conserves the delivery multiset.
#[test]
fn indexed_queue_matches_naive_reference() {
    for seed in 0..6u64 {
        let w = workload(seed);
        for policy in SchedPolicy::all() {
            for intra in INTRA_ORDERS {
                let mut multisets = Vec::new();
                for shards in [1usize, 2, 4] {
                    for streams in [1u32, 2, 4] {
                        let label =
                            format!("seed {seed} {policy:?}/{intra:?}/{shards}sh/{streams}st");
                        let indexed = run_fleet::<RequestQueue>(&w, policy, intra, shards, streams);
                        let naive = run_fleet::<NaiveQueue>(&w, policy, intra, shards, streams);
                        assert_eq!(indexed, naive, "{label}: queue implementations diverged");
                        multisets.push(indexed.delivery_multiset());
                    }
                }
                assert!(
                    multisets.windows(2).all(|p| p[0] == p[1]),
                    "seed {seed} {policy:?}/{intra:?}: sharding or streaming broke work conservation"
                );
            }
            let closed = Workload {
                followup_rounds: 3,
                ..workload(seed)
            };
            let deliveries: usize = closed.schedule.iter().map(|e| 4 * e.3.len()).sum();
            for streams in [1u32, 4] {
                let intra = IntraGroupOrder::SemanticRoundRobin;
                let indexed = run_fleet::<RequestQueue>(&closed, policy, intra, 2, streams);
                let naive = run_fleet::<NaiveQueue>(&closed, policy, intra, 2, streams);
                assert_eq!(
                    indexed, naive,
                    "seed {seed} {policy:?}/{streams}st: queue implementations diverged closed-loop"
                );
                assert_eq!(indexed.delivery_multiset().len(), deliveries);
            }
        }
    }
}

/// The sweep again with cancels between kicks: every policy × intra
/// order × shard count × stream count, each seed's workload with about
/// half of its queries cancelled whole or by one object. The decision
/// sequence, the delivery order and every counter — cancellations
/// included — must match the naive reference. Which requests a cancel
/// still finds queued depends on timing, so the delivered multiset is
/// not compared across shard and stream counts here.
#[test]
fn indexed_queue_matches_naive_under_cancellation() {
    let mut cancelled = 0;
    for seed in 0..6u64 {
        let w = workload_with_cancels(seed);
        assert!(!w.cancels.is_empty(), "seed {seed} draws no cancel");
        for policy in SchedPolicy::all() {
            for intra in INTRA_ORDERS {
                for shards in [1usize, 2, 4] {
                    for streams in [1u32, 2, 4] {
                        let indexed = run_fleet::<RequestQueue>(&w, policy, intra, shards, streams);
                        let naive = run_fleet::<NaiveQueue>(&w, policy, intra, shards, streams);
                        assert_eq!(
                            indexed, naive,
                            "seed {seed} {policy:?}/{intra:?}/{shards}sh/{streams}st: \
                             queue implementations diverged under cancellation"
                        );
                        cancelled += indexed.cancelled.iter().sum::<u64>();
                    }
                }
            }
        }
    }
    assert!(cancelled > 1_000, "only {cancelled} requests cancelled");
}

/// Deep-queue stress: one heavily contended device, every request
/// submitted upfront — the regime where the indexed queue's residency
/// runs do all the work. Equivalence must hold at depth and at full
/// pipeline occupancy too.
#[test]
fn indexed_queue_matches_naive_on_deep_queues() {
    let mut rng = StdRng::seed_from_u64(0xC5D);
    let tenants = 8u16;
    let segs = 24u32;
    let mut schedule = Vec::new();
    for b in 0..tenants {
        let objects: Vec<ObjectId> = (0..segs)
            .map(|s| ObjectId::new(b, 0, s))
            .filter(|_| rng.gen_range(0u32..4) > 0)
            .collect();
        if !objects.is_empty() {
            schedule.push((SimTime::ZERO, b as usize, QueryId::new(b, 0), objects));
        }
    }
    let w = Workload {
        tenants,
        segs_per_tenant: segs,
        groups: 3,
        schedule,
        followup_rounds: 0,
        cancels: Vec::new(),
    };
    for policy in SchedPolicy::all() {
        for streams in [1u32, 4] {
            let indexed = run_fleet::<RequestQueue>(
                &w,
                policy,
                IntraGroupOrder::SemanticRoundRobin,
                1,
                streams,
            );
            let naive = run_fleet::<NaiveQueue>(
                &w,
                policy,
                IntraGroupOrder::SemanticRoundRobin,
                1,
                streams,
            );
            assert_eq!(
                indexed, naive,
                "{policy:?}/{streams} streams diverged on a deep queue"
            );
            assert!(indexed.served.iter().sum::<u64>() > 100);
        }
    }
}

/// The pull-based baseline of §3.2 at convoy depth: `tenants`
/// one-tenant groups, one GET outstanding per tenant, every delivery
/// submitting the tenant's next segment under the same query id.
/// Segment `s` lives on shard `s % shards`, so every tenant starts on
/// shard 0 and the whole convoy queues there one group deep each. Each
/// GET creates a group entry and (once the tenant has moved on) drains
/// it again — the create-drain-recycle path of the indexed queue.
fn run_pull_convoy<Q: RequestIndex>(
    policy: SchedPolicy,
    tenants: u16,
    rounds: u32,
    shards: usize,
    streams: u32,
) -> Outcome {
    let mut devices: Vec<CsdDevice<(), Q>> = (0..shards)
        .map(|shard| {
            let mut store = ObjectStore::new();
            for tenant in 0..tenants {
                for seg in (0..rounds).filter(|&seg| seg as usize % shards == shard) {
                    // Sizes differ per tenant so transfers retire at
                    // distinct instants and the convoy spreads out.
                    let bytes = (90 + tenant as u64 % 20) * MB;
                    store.put(ObjectId::new(tenant, 0, seg), bytes, tenant as u32, ());
                }
            }
            CsdDevice::new(
                CsdConfig {
                    switch_latency: SimDuration::from_secs(10),
                    bandwidth_bytes_per_sec: (100 * MB) as f64,
                    parallel_streams: streams,
                    ..CsdConfig::default()
                },
                store,
                policy.build(),
                IntraGroupOrder::SemanticRoundRobin,
            )
        })
        .collect();
    let mut events: Vec<Vec<ShardEvent>> = vec![Vec::new(); shards];
    for tenant in 0..tenants {
        let first = ObjectId::new(tenant, 0, 0);
        devices[0].submit(
            SimTime::ZERO,
            tenant as usize,
            QueryId::new(tenant, 0),
            &[first],
        );
    }
    let mut next: Vec<Option<SimTime>> =
        devices.iter_mut().map(|d| d.kick(SimTime::ZERO)).collect();
    while let Some((t, s)) = next
        .iter()
        .enumerate()
        .filter_map(|(s, t)| t.map(|t| (t, s)))
        .min()
    {
        let mut batch = Vec::new();
        devices[s].complete_into(t, &mut batch);
        if batch.is_empty() {
            events[s].push((t, None)); // switch completion
        }
        for d in batch {
            events[s].push((t, Some((d.client, d.query, d.object))));
            let seg = d.object.segment + 1;
            if seg < rounds {
                let object = ObjectId::new(d.object.tenant, 0, seg);
                devices[seg as usize % shards].submit(t, d.client, d.query, &[object]);
            }
        }
        for (s, slot) in next.iter_mut().enumerate() {
            *slot = devices[s].kick(t);
        }
    }
    outcome(&devices, events)
}

/// Pull convoy: 48 one-tenant groups × 24 closed-loop rounds, every
/// policy × {1, 4} streams × {1, 4} shards. Far past the 8 tenants × 3
/// groups of the sweeps above, this is the regime where a group lives
/// for exactly one GET; decisions, completion instants, delivery order
/// and counters must still match the naive reference exactly.
#[test]
fn indexed_queue_matches_naive_on_a_pull_convoy() {
    let (tenants, rounds) = (48u16, 24u32);
    for policy in SchedPolicy::all() {
        for shards in [1usize, 4] {
            for streams in [1u32, 4] {
                let indexed =
                    run_pull_convoy::<RequestQueue>(policy, tenants, rounds, shards, streams);
                let naive = run_pull_convoy::<NaiveQueue>(policy, tenants, rounds, shards, streams);
                assert_eq!(
                    indexed, naive,
                    "{policy:?}/{shards}sh/{streams}st diverged on the pull convoy"
                );
                assert_eq!(
                    indexed.served.iter().sum::<u64>(),
                    tenants as u64 * rounds as u64
                );
                // One-tenant groups, one GET outstanding: no residency
                // ever holds a second request, so every object after a
                // shard's (free) first load pays its own group switch —
                // the pull-based baseline of §3.2, under every policy.
                for (switches, served) in indexed.switches.iter().zip(&indexed.served) {
                    assert_eq!(switches + 1, *served, "{policy:?}/{shards}sh/{streams}st");
                }
            }
        }
    }
}
