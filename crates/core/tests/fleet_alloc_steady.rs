//! Steady-state allocation pin for the fleet hot path.
//!
//! The fleet twin of `skipper-csd`'s `tests/alloc_steady.rs`: a warmed
//! 8-shard `DeviceFleet<()>` serving a pull convoy through
//! `submit → poke_all → on_wakeup_into`, the loop the runtime runs per
//! event, allocates nothing per GET. This pins that the fleet's routing
//! index, pooled fan-out buffers and touched-shard set stay off the
//! allocator, with this test binary's own counting allocator. The
//! counter is per thread, so the harness's other threads do not count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

use skipper_core::runtime::DeviceFleet;
use skipper_csd::{
    CsdConfig, CsdDevice, Delivery, IntraGroupOrder, LedgerMode, ObjectId, ObjectStore, QueryId,
    SchedPolicy,
};
use skipper_sim::{CalendarQueue, SimTime, TraceMode};

/// Counts every allocation (alloc + realloc) made by the current
/// thread, on top of the system allocator.
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so the allocator may
    // touch it at any point of a thread's life.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made by this thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: delegates directly to `System`, which upholds the GlobalAlloc
// contract; the counter bump has no effect on allocation semantics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const SHARDS: usize = 8;
const TENANTS: u16 = 64;
const SEGMENTS: u32 = 32;

/// Segment `s` of every tenant lives on shard `s mod 8`, so each
/// tenant's consecutive GETs walk the whole fleet.
fn shard_of(object: ObjectId) -> usize {
    object.segment as usize % SHARDS
}

/// The fleet's event loop over shard wake-ups: every delivery submits
/// its tenant's next segment, then the fleet is poked once per event,
/// until `gets` GETs are served.
fn pull(
    fleet: &mut DeviceFleet<()>,
    events: &mut CalendarQueue<usize>,
    out: &mut Vec<Delivery<()>>,
    gets: u32,
) {
    let mut served = 0;
    while served < gets {
        let (now, shard) = events.pop().expect("a pull convoy always has work");
        fleet.on_wakeup_into(shard, now, out);
        for d in out.drain(..) {
            served += 1;
            let next = ObjectId::new(d.object.tenant, 0, (d.object.segment + 1) % SEGMENTS);
            fleet.submit(now, d.client, d.query, &[next]);
        }
        fleet.poke_all(now, |s, at| events.schedule(at, s));
    }
}

#[test]
fn fleet_pull_convoy_allocates_nothing_once_warm() {
    let mut stores: Vec<ObjectStore<()>> = (0..SHARDS).map(|_| ObjectStore::new()).collect();
    let mut placement = HashMap::new();
    for tenant in 0..TENANTS {
        for seg in 0..SEGMENTS {
            let object = ObjectId::new(tenant, 0, seg);
            stores[shard_of(object)].put(object, 1 << 30, tenant as u32, ());
            placement.insert(object, shard_of(object));
        }
    }
    // Counters modes: the span log and the delivery ledger grow with
    // the run by design and are not part of the claim.
    let devices = stores
        .into_iter()
        .map(|store| {
            CsdDevice::new(
                CsdConfig {
                    trace_mode: TraceMode::Counters,
                    ledger_mode: LedgerMode::Counters,
                    ..CsdConfig::default()
                },
                store,
                SchedPolicy::RankBased.build(),
                IntraGroupOrder::SemanticRoundRobin,
            )
        })
        .collect();
    let mut fleet = DeviceFleet::new(devices, placement);
    let mut events = CalendarQueue::new();
    let now = SimTime::ZERO;
    for tenant in 0..TENANTS {
        let first = ObjectId::new(tenant, 0, 0);
        fleet.submit(now, tenant as usize, QueryId::new(tenant, 0), &[first]);
    }
    fleet.poke_all(now, |s, at| events.schedule(at, s));
    let mut out = Vec::new();
    // Warm-up: every tenant walks all 32 segments once, so every shard
    // has served every tenant and every pool and the calendar's heap
    // hold their steady-state population.
    pull(&mut fleet, &mut events, &mut out, TENANTS as u32 * SEGMENTS);
    let before = allocations();
    pull(&mut fleet, &mut events, &mut out, 10_000);
    let allocated = allocations() - before;
    assert_eq!(
        allocated, 0,
        "{allocated} allocations over 10 000 steady-state GETs"
    );
    let served: u64 = fleet
        .pumps()
        .iter()
        .map(|p| p.device().metrics().objects_served)
        .sum();
    assert_eq!(served, (TENANTS as u32 * SEGMENTS) as u64 + 10_000);
}
