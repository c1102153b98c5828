//! Thread-local scratch buffers: allocation reuse across shards.
//!
//! The pipeline's worker threads solve hundreds of same-shaped shards in a
//! row, and each solve used to allocate (and immediately free) the same
//! few large buffers: the triangular distance cache and the packed column
//! words. This module keeps those buffers in small per-thread pools so a
//! worker's steady state is **zero** large allocations per shard — pinned
//! by the counting-allocator test in `crates/tests/tests/alloc_reuse.rs`.
//!
//! Design notes:
//!
//! * Pools are `thread_local!`, so there is no cross-thread contention and
//!   no synchronisation: a buffer taken on a worker thread is returned to
//!   that worker's pool when the owning value drops (the pipeline's
//!   workers both build and drop their caches, so buffers stay put).
//! * [`take_u32`] / [`take_u64`] return a **zeroed** `Vec` of exactly the
//!   requested length — same contract as `vec![0; len]`, which is what
//!   every call site previously wrote.
//! * Pools are bounded (`MAX_POOLED` buffers per type); give-backs
//!   beyond the cap just drop. Memory *budgeting* is unaffected: callers
//!   still charge their `Budget` for the full planned size — the pool
//!   changes who calls `malloc`, not how much memory the plan admits.

use std::cell::RefCell;

/// Upper bound on pooled buffers per element type per thread. A worker
/// needs at most a handful in flight (distance triangle, packed words);
/// anything beyond that is churn.
const MAX_POOLED: usize = 8;

thread_local! {
    static POOL_U32: RefCell<Vec<Vec<u32>>> = const { RefCell::new(Vec::new()) };
    static POOL_U64: RefCell<Vec<Vec<u64>>> = const { RefCell::new(Vec::new()) };
}

/// Takes a zeroed `Vec<u32>` of exactly `len` elements, reusing a pooled
/// buffer when one with enough capacity exists.
#[must_use]
pub fn take_u32(len: usize) -> Vec<u32> {
    POOL_U32.with(|p| take_from(&mut p.borrow_mut(), len))
}

/// Returns a buffer to the thread's pool (dropping it if the pool is full
/// or the buffer is trivially small).
pub fn give_u32(buf: Vec<u32>) {
    POOL_U32.with(|p| give_to(&mut p.borrow_mut(), buf));
}

/// `u64` sibling of [`take_u32`].
#[must_use]
pub fn take_u64(len: usize) -> Vec<u64> {
    POOL_U64.with(|p| take_from(&mut p.borrow_mut(), len))
}

/// `u64` sibling of [`give_u32`].
pub fn give_u64(buf: Vec<u64>) {
    POOL_U64.with(|p| give_to(&mut p.borrow_mut(), buf));
}

fn take_from<T: Copy + Default>(pool: &mut Vec<Vec<T>>, len: usize) -> Vec<T> {
    // Prefer the smallest pooled buffer that fits, so one huge buffer
    // isn't burned on a tiny request.
    let mut best: Option<usize> = None;
    for (i, b) in pool.iter().enumerate() {
        if b.capacity() >= len && best.is_none_or(|j| b.capacity() < pool[j].capacity()) {
            best = Some(i);
        }
    }
    match best {
        Some(i) => {
            let mut buf = pool.swap_remove(i);
            buf.clear();
            buf.resize(len, T::default());
            buf
        }
        None => vec![T::default(); len],
    }
}

fn give_to<T>(pool: &mut Vec<Vec<T>>, buf: Vec<T>) {
    if buf.capacity() >= 64 && pool.len() < MAX_POOLED {
        pool.push(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_exact_length() {
        let mut a = take_u32(100);
        assert_eq!(a.len(), 100);
        assert!(a.iter().all(|&x| x == 0));
        a[17] = 99;
        let cap = a.capacity();
        give_u32(a);
        // Reuse: same capacity comes back, contents re-zeroed.
        let b = take_u32(50);
        assert_eq!(b.capacity(), cap);
        assert_eq!(b.len(), 50);
        assert!(b.iter().all(|&x| x == 0));
        give_u32(b);
    }

    #[test]
    fn smallest_fitting_buffer_is_preferred() {
        give_u64(Vec::with_capacity(1_000));
        give_u64(Vec::with_capacity(200));
        let b = take_u64(150);
        assert!(b.capacity() < 1_000, "should reuse the 200-cap buffer");
        give_u64(b);
        let big = take_u64(800);
        assert!(big.capacity() >= 1_000, "should reuse the 1000-cap buffer");
        give_u64(big);
    }

    #[test]
    fn pool_is_bounded() {
        for _ in 0..50 {
            give_u32(Vec::with_capacity(128));
        }
        POOL_U32.with(|p| assert!(p.borrow().len() <= MAX_POOLED));
    }
}
