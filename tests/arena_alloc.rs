//! Steady-state arena operations must not allocate.
//!
//! The arena's hot-path claim: after warm-up, a client thread's
//! acquire/release cycle over SPLIT, the Moir–Anderson grid or the
//! LevelArray — including the SPLIT → MA chain — performs **zero heap
//! allocations**. Every machine holds only per-operation locals and
//! borrows its shape from the core: SPLIT's acquisition path lives inline
//! in the machine (`split::PathVec`), MA's and the LevelArray's machines
//! are scalars, and the admission gate's uncontended path is a single
//! CAS.
//!
//! This is its own test binary because it installs a counting global
//! allocator, and the count is only meaningful single-threaded — hence
//! exactly one `#[test]` (the harness would interleave others).
//!
//! FILTER is the documented exception (see `llr_core::arena`): each
//! acquire allocates exactly one vector, its per-tree progress, and no
//! per-tree vectors. The test pins that count too — one allocation per
//! cycle — so the exception cannot silently grow.

use llr_core::arena::NameArena;
use llr_core::chain::Chain;
use llr_core::filter::Filter;
use llr_core::levelarray::LevelArray;
use llr_core::ma::MaGrid;
use llr_core::split::Split;
use llr_core::traits::{Renaming, RenamingHandle};
use llr_gf::FilterParams;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

// Tracking is per-thread (const-initialized TLS, so reading it never
// allocates): the test harness's own threads may allocate while the
// measured phase runs, and those must not count against the hot path.
thread_local! {
    static TRACKING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn tracking() -> bool {
    TRACKING.try_with(std::cell::Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if tracking() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if tracking() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `ops` acquire/release cycles on a fresh client of `arena` after a
/// short warm-up, returning the number of allocations in the measured
/// phase.
fn allocs_per_steady_state<R: Renaming>(arena: &NameArena<R>, pid: u64, ops: u64) -> u64 {
    let mut c = arena.client(pid);
    for _ in 0..8 {
        std::hint::black_box(c.acquire());
        c.release();
    }
    ALLOCS.store(0, Ordering::SeqCst);
    TRACKING.with(|t| t.set(true));
    for _ in 0..ops {
        std::hint::black_box(c.acquire());
        c.release();
    }
    TRACKING.with(|t| t.set(false));
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn steady_state_acquire_release_does_not_allocate() {
    let split = NameArena::new(Split::new(4));
    assert_eq!(
        allocs_per_steady_state(&split, 0xDEAD_BEEF, 1_000),
        0,
        "SPLIT arena steady state allocated"
    );

    let ma = NameArena::new(MaGrid::new(3, 32));
    assert_eq!(
        allocs_per_steady_state(&ma, 7, 1_000),
        0,
        "MA arena steady state allocated"
    );

    let chain = NameArena::new(Chain::split_ma(3).unwrap());
    assert_eq!(
        allocs_per_steady_state(&chain, 0xBEEF_CAFE, 1_000),
        0,
        "SPLIT→MA chain arena steady state allocated"
    );

    let levelarray = NameArena::new(LevelArray::new(8));
    assert_eq!(
        allocs_per_steady_state(&levelarray, 0x1EAF_CAFE, 10_000),
        0,
        "LevelArray arena steady state allocated"
    );

    let filter =
        NameArena::new(Filter::new(FilterParams::new(3, 25, 1, 5).unwrap(), &[1, 6, 11]).unwrap());
    assert_eq!(
        allocs_per_steady_state(&filter, 6, 1_000),
        1_000,
        "FILTER arena steady state: exactly one allocation (the progress vector) per cycle"
    );
}
