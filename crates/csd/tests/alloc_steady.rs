//! Steady-state allocation pin for the device hot path.
//!
//! `sched/queue.rs` promises that a warmed-up device allocates nothing
//! per request: request nodes, group and query index payloads and their
//! heaps are all recycled in place. The full-stack benchmark cannot see
//! that — its pull engine allocates one `Vec` per delivery on its own
//! side — so the claim is pinned here, at the layer that makes it, with
//! this test binary's own counting allocator.
//!
//! One test only: the counter is process-wide, and a second test
//! running on another harness thread would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use skipper_csd::{
    CsdConfig, CsdDevice, Delivery, IntraGroupOrder, LedgerMode, ObjectId, ObjectStore, QueryId,
    SchedPolicy,
};
use skipper_sim::{SimTime, TraceMode};

/// Counts every allocation (alloc + realloc) on top of the system
/// allocator.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`, which upholds the GlobalAlloc
// contract; the counter bump has no effect on allocation semantics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const TENANTS: u16 = 64;
const SEGMENTS: u32 = 32;

/// Serves `gets` GETs in the pull pattern: every delivery submits its
/// tenant's next segment, so each of the 64 one-tenant groups holds at
/// most one request and is created and drained once per GET.
fn pull(dev: &mut CsdDevice<()>, now: &mut SimTime, out: &mut Vec<Delivery<()>>, gets: u32) {
    let mut served = 0;
    while served < gets {
        *now = dev.kick(*now).expect("a pull convoy always has work");
        dev.complete_into(*now, out);
        for d in out.drain(..) {
            served += 1;
            let next = ObjectId::new(d.object.tenant, 0, (d.object.segment + 1) % SEGMENTS);
            dev.submit(*now, d.client, d.query, &[next]);
        }
    }
}

#[test]
fn pull_convoy_allocates_nothing_once_warm() {
    let mut store = ObjectStore::new();
    for tenant in 0..TENANTS {
        for seg in 0..SEGMENTS {
            store.put(ObjectId::new(tenant, 0, seg), 1 << 30, tenant as u32, ());
        }
    }
    // Counters modes: the span log and the delivery ledger grow with
    // the run by design and are not part of the claim.
    let mut dev: CsdDevice<()> = CsdDevice::new(
        CsdConfig {
            trace_mode: TraceMode::Counters,
            ledger_mode: LedgerMode::Counters,
            ..CsdConfig::default()
        },
        store,
        SchedPolicy::RankBased.build(),
        IntraGroupOrder::SemanticRoundRobin,
    );
    let mut now = SimTime::ZERO;
    for tenant in 0..TENANTS {
        let first = ObjectId::new(tenant, 0, 0);
        dev.submit(now, tenant as usize, QueryId::new(tenant, 0), &[first]);
    }
    let mut out = Vec::new();
    // One warm-up round: every group has drained and refilled once, so
    // every pool holds its steady-state population.
    pull(&mut dev, &mut now, &mut out, TENANTS as u32);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    pull(&mut dev, &mut now, &mut out, 10_000);
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "{allocated} allocations over 10 000 steady-state GETs"
    );
    assert_eq!(dev.metrics().objects_served, TENANTS as u64 + 10_000);
}
