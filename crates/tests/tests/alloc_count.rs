//! Allocation-count pin for the flat candidate arena (ISSUE 3 acceptance:
//! "no per-candidate heap allocation remains in `materialize_candidates`").
//!
//! This file intentionally holds a **single** test: each integration-test
//! file is its own binary and process, so nothing else can race the counter
//! and the measurement needs no locking discipline beyond the atomic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// `System` wrapped with an allocation counter. Counts calls, not bytes —
/// the property under test is "O(k) allocations, not O(|C|)".
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

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
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn materialization_allocates_o_k_not_o_candidates() {
    use kanon_core::distcache::PairwiseDistances;
    use kanon_core::govern::Budget;
    use kanon_core::greedy::CandidateArena;
    use kanon_core::Dataset;

    // n = 26, k = 3: C(26,3) + C(26,4) + C(26,5) = 2_600 + 14_950 + 65_780
    // = 83_330 candidates. The retired Vec-per-candidate layout allocated
    // at least once per candidate; the arena allocates two slabs per size
    // class plus walker scratch.
    let ds = Dataset::from_fn(26, 4, |i, j| ((i * 7 + j * 3) % 5) as u32);
    let cache = PairwiseDistances::build(&ds, Some(1), &Budget::unlimited()).unwrap();
    let budget = Budget::unlimited();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let arena = CandidateArena::try_materialize(&cache, 3, 1, &budget).unwrap();
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(arena.len(), 83_330);
    let allocated = after - before;
    assert!(
        allocated < 100,
        "materializing 83_330 candidates performed {allocated} allocations; \
         the arena layout should need O(k), not O(candidates)"
    );
}
