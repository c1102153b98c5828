//! Byte-counting pin for the scratch-buffer recycling added in ISSUE 8:
//! once the thread-local pools are warm, rebuilding a same-shaped
//! [`PairwiseDistances`] cache (triangle buffer + packed column block)
//! and re-materializing shard sub-tables through a recycled flat buffer
//! must not go back to the allocator for the big buffers.
//!
//! This file intentionally holds a **single** test: each integration-test
//! file is its own binary and process, so nothing else can race the
//! counters and the measurement needs no locking discipline beyond the
//! atomics. Bytes are counted (not calls) because buffer reuse keeps the
//! call count identical while eliminating the large allocations.

use kanon_core::Budget;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warm_rebuilds_recycle_the_large_buffers() {
    use kanon_core::distcache::PairwiseDistances;
    use kanon_core::Dataset;

    // n < 128 keeps the cache build on the sequential path regardless of
    // RAYON_NUM_THREADS, so the buffers cycle through one thread's pool.
    let n = 127;
    let ds = Dataset::from_fn(n, 16, |i, j| ((i * 13 + j * 7) % 50) as u32);
    let tri_bytes = n * (n - 1) / 2 * std::mem::size_of::<u32>();

    // Warm the pools: the first build allocates the triangle buffer and
    // the packed column block, both returned to the pool on drop.
    drop(PairwiseDistances::build(&ds, Some(1), &Budget::unlimited()).unwrap());

    let rebuilds: usize = 6;
    let before = BYTES.load(Ordering::Relaxed);
    for _ in 0..rebuilds {
        let cache = PairwiseDistances::build(&ds, Some(1), &Budget::unlimited()).unwrap();
        assert_eq!(cache.n(), n);
        drop(cache); // hands the buffers back for the next iteration
    }
    let rebuild_bytes = BYTES.load(Ordering::Relaxed) - before;
    assert!(
        rebuild_bytes < tri_bytes,
        "{rebuilds} warm cache rebuilds allocated {rebuild_bytes} bytes; \
         recycling should stay under one triangle buffer ({tri_bytes} bytes)"
    );

    // Sub-table materialization through a recycled flat buffer: after the
    // first selection sizes the buffer, re-selecting same-sized row sets
    // must not touch the allocator for row data at all.
    let rows: Vec<u32> = (0..64u32).collect();
    let mut buf = ds
        .select_rows_into(&rows, Vec::new())
        .unwrap()
        .into_flat_buffer();
    let before = BYTES.load(Ordering::Relaxed);
    for round in 0..rebuilds {
        let shifted: Vec<u32> = rows.iter().map(|r| r + round as u32).collect();
        let sub = ds.select_rows_into(&shifted, buf).unwrap();
        assert_eq!(sub.n_rows(), rows.len());
        buf = sub.into_flat_buffer();
    }
    let reselect_bytes = BYTES.load(Ordering::Relaxed) - before;
    // Only the small `shifted` index vectors may allocate.
    let index_bytes = rebuilds * rows.len() * std::mem::size_of::<u32>();
    assert!(
        reselect_bytes <= 2 * index_bytes,
        "{rebuilds} warm re-selections allocated {reselect_bytes} bytes; \
         the row buffer should be recycled (index vectors are {index_bytes})"
    );
}
