//! Full-stack `Runtime` benchmark for the Skipper cold-storage
//! simulator.
//!
//! ```text
//! skipper-benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! skipper-benchmark all [--seed <n>] [--seconds <s>] [--traced]
//! skipper-benchmark compare <a.json> <b.json>
//! ```
//!
//! `run` measures one workload in this process and prints every metric
//! by name, then one JSON result line. `all` runs every workload in a
//! child process of its own (clean peak-RSS, clean allocator) and
//! writes `out/results.json`. `compare` checks two result files
//! against the declared bounds. See README.md.
//!
//! The binary installs a counting `#[global_allocator]`: the library
//! crates forbid `unsafe`, so the allocation probe lives here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

mod check;
mod cli;
mod compare;
mod engines;
mod json;
mod layers;
mod measure;
mod metrics;
mod replay;
mod stats;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

/// Counts every allocation (alloc + realloc) on top of the system
/// allocator. Deallocation is not counted: the gauge is how often the
/// run hits the allocator, not net memory.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates directly to `System`, which upholds
// the `GlobalAlloc` contract; the relaxed counter bump publishes no
// other data and has no effect on allocation semantics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` through this
        // allocator with the same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System` through this
        // allocator with the same `layout`; the caller guarantees
        // `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Heap allocations made by this process so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(cli::main(&args));
}
