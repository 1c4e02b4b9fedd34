//! Steady-state allocation pin for the device hot path.
//!
//! `sched/queue.rs` promises that a warmed-up device allocates nothing
//! per request: request nodes, group and query index payloads, their
//! residency runs, fresh lists, seq FIFOs and heaps are all recycled in
//! place. The full-stack benchmark cannot see that — its pull engine
//! allocates one `Vec` per delivery on its own side — so the claim is
//! pinned here, at the layer that makes it, with this test binary's own
//! counting allocator. Two shapes are pinned: the pull convoy (a group
//! created and drained per GET) and the deep batch queue (64 groups of
//! ≈ 60-request queries, residencies re-armed over and over).
//!
//! The counter is per thread, so the two tests may run side by side on
//! the harness's threads without counting each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use skipper_csd::{
    CsdConfig, CsdDevice, Delivery, IntraGroupOrder, LedgerMode, ObjectId, ObjectStore, QueryId,
    SchedPolicy,
};
use skipper_sim::{SimTime, TraceMode};

/// Counts every allocation (alloc + realloc) made by the current
/// thread, on top of the system allocator.
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so the allocator may
    // touch it at any point of a thread's life.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

/// Allocations made by this thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: delegates directly to `System`, which upholds the GlobalAlloc
// contract; the counter bump has no effect on allocation semantics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
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
    let before = allocations();
    pull(&mut dev, &mut now, &mut out, 10_000);
    let allocated = allocations() - before;
    assert_eq!(
        allocated, 0,
        "{allocated} allocations over 10 000 steady-state GETs"
    );
    assert_eq!(dev.metrics().objects_served, TENANTS as u64 + 10_000);
}

/// Tenants of the batch shape: four per group on the 64 groups, so a
/// residency holds four queries — ≈ 240 keys, past the length up to
/// which a stable sort would still sort out of a stack buffer.
const BATCH_TENANTS: u16 = 4 * TENANTS;

/// Requests per query in the batch shape: 56–63, varying by tenant so
/// queries complete at different instants.
fn batch_len(tenant: u16) -> u32 {
    56 + tenant as u32 % 8
}

/// The batch shape's client side: the next query number per tenant, the
/// GETs it still owes, and a reusable submit buffer.
struct Batches {
    qseq: Vec<u32>,
    owed: Vec<u32>,
    objects: Vec<ObjectId>,
}

impl Batches {
    /// Submits tenant `tenant`'s next query: its whole batch at once,
    /// in segment order, onto its group.
    fn submit(&mut self, dev: &mut CsdDevice<()>, now: SimTime, tenant: u16) {
        let t = tenant as usize;
        self.objects.clear();
        self.objects
            .extend((0..batch_len(tenant)).map(|seg| ObjectId::new(tenant, 0, seg)));
        dev.submit(now, t, QueryId::new(tenant, self.qseq[t]), &self.objects);
        self.qseq[t] += 1;
        self.owed[t] = batch_len(tenant);
    }

    /// Serves `gets` GETs: the delivery that completes a query submits
    /// the tenant's next batch, which lands on its group — often while
    /// a group-mate's query is still being served there — as fresh
    /// arrivals for a later residency.
    fn serve(
        &mut self,
        dev: &mut CsdDevice<()>,
        now: &mut SimTime,
        out: &mut Vec<Delivery<()>>,
        gets: u32,
    ) {
        let mut served = 0;
        while served < gets {
            *now = dev.kick(*now).expect("the batch loop always has work");
            dev.complete_into(*now, out);
            for d in out.drain(..) {
                served += 1;
                self.owed[d.client] -= 1;
                if self.owed[d.client] == 0 {
                    self.submit(dev, *now, d.object.tenant);
                }
            }
        }
    }
}

#[test]
fn deep_batch_queue_allocates_nothing_once_warm() {
    let mut store = ObjectStore::new();
    for tenant in 0..BATCH_TENANTS {
        for seg in 0..batch_len(tenant) {
            let group = (tenant % TENANTS) as u32;
            store.put(ObjectId::new(tenant, 0, seg), 1 << 30, group, ());
        }
    }
    let mut dev: CsdDevice<()> = CsdDevice::new(
        CsdConfig {
            trace_mode: TraceMode::Counters,
            ledger_mode: LedgerMode::Counters,
            parallel_streams: 4,
            ..CsdConfig::default()
        },
        store,
        SchedPolicy::RankBased.build(),
        IntraGroupOrder::SemanticRoundRobin,
    );
    let mut batches = Batches {
        qseq: vec![0; BATCH_TENANTS as usize],
        owed: vec![0; BATCH_TENANTS as usize],
        objects: Vec::with_capacity(64),
    };
    let mut now = SimTime::ZERO;
    for tenant in 0..BATCH_TENANTS {
        batches.submit(&mut dev, now, tenant);
    }
    let mut out = Vec::new();
    // Every tenant's batch served twice over: each group has been armed,
    // drained and refilled, so every pooled vector holds its
    // steady-state capacity.
    let round: u32 = (0..BATCH_TENANTS).map(batch_len).sum();
    batches.serve(&mut dev, &mut now, &mut out, 2 * round);
    let switches = dev.metrics().group_switches;
    let before = allocations();
    batches.serve(&mut dev, &mut now, &mut out, 3 * round);
    let allocated = allocations() - before;
    assert_eq!(
        allocated,
        0,
        "{allocated} allocations over {} steady-state GETs",
        3 * round
    );
    // The measured stretch re-armed deep residencies on every group.
    assert!(dev.metrics().group_switches - switches >= 2 * TENANTS as u64);
    assert!(dev.pending_len() > 5_000, "the queue stayed deep");
}
