//! Unweighted percentile queries allocate nothing: the first query sorts
//! the records in place, and later queries read them as they are.
//!
//! A counting global allocator tallies the bytes each thread asks for,
//! so the test harness's own threads cannot disturb the count. This file
//! holds a single test to keep the binary's allocator to itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hyscale_metrics::Summary;
use hyscale_sim::SimRng;

struct Counting;

thread_local! {
    /// Bytes allocated on this thread.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with` because a thread may still allocate while its locals
    // are being torn down.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes));
}

// SAFETY: both methods forward their arguments unchanged to the system
// allocator, and the counter bumped first never allocates. The default
// `alloc_zeroed` and `realloc` go through `alloc`, so they count too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocated() -> usize {
    ALLOCATED.with(Cell::get)
}

/// Bytes `f` allocates on this thread, and its result.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = allocated();
    let out = f();
    (allocated() - before, out)
}

#[test]
fn unweighted_percentile_queries_allocate_nothing() {
    const RECORDS: usize = 1_000_000;
    let mut rng = SimRng::seed_from(7);
    let mut s = Summary::new();
    let mut expected = Vec::with_capacity(RECORDS);
    for _ in 0..RECORDS {
        let v = rng.uniform_range(0.001, 30.0);
        s.record(v);
        expected.push(v);
    }
    expected.sort_unstable_by(f64::total_cmp);
    let grid = [0.0, 25.0, 50.0, 95.0, 99.0, 100.0];

    // The first query sorts a million unsorted records.
    let (bytes, p99) = allocations_of(|| s.percentile(99.0));
    assert_eq!(bytes, 0, "first query allocated {bytes} bytes");
    let rank = 0.99 * (RECORDS - 1) as f64;
    let (lo, frac) = (rank.floor() as usize, rank.fract());
    let exact = expected[lo] * (1.0 - frac) + expected[lo + 1] * frac;
    assert_eq!(p99.to_bits(), exact.to_bits());

    // Repeated queries read the records as they are.
    let (bytes, _) = allocations_of(|| grid.map(|p| s.percentile(p)));
    assert_eq!(bytes, 0, "repeated queries allocated {bytes} bytes");

    // After an out-of-order record (whose push may grow the column),
    // the next query sorts again, still in place.
    s.record(-1.0);
    let (bytes, min) = allocations_of(|| s.percentile(0.0));
    assert_eq!(bytes, 0, "re-sorting query allocated {bytes} bytes");
    assert_eq!(min, -1.0);
}
