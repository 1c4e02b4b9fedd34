//! `skipper-bench <name> [flags]` — the one front end over the
//! experiment registry (`skipper-bench list` names every subcommand).
//!
//! The binary owns the counting `#[global_allocator]` behind the gate
//! runs' allocations-per-delivery gauge: the library forbids `unsafe`,
//! so it only ever sees the probe as a plain `fn() -> u64`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation (alloc + realloc) on top of the system
/// allocator. Deallocation is not counted: the gauge is allocator
/// traffic, not net memory.
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

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn main() -> ExitCode {
    let args = std::env::args().skip(1).collect();
    match skipper_bench::registry::run(args, Some(allocation_count)) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(usage) => {
            eprintln!("{}", usage.0);
            ExitCode::from(2)
        }
    }
}
