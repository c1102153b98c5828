//! Phase 1 of Theorem 4.1: greedy set cover over **all** small subsets.
//!
//! The candidate collection `C` is every subset of `V` with cardinality in
//! `[k, 2k−1]`; the weight of a set is its diameter. The classic greedy
//! heuristic repeatedly picks the set minimizing
//! `weight / |newly covered rows|`, which is a `(1 + ln 2k−1) ≈ (1 + ln k)`
//! approximation to the k-minimum diameter sum over covers [Johnson 1974].
//!
//! Because `|C| = Σ_{s=k}^{2k−1} C(n, s)`, the runtime is `O(n^{2k})` — the
//! exponential-in-k cost the paper accepts for the better ratio. A size
//! guard rejects instances whose candidate collection would be unreasonably
//! large.
//!
//! The implementation uses *lazy greedy* selection: a candidate's uncovered
//! count only shrinks over time, so its ratio only grows, and a popped entry
//! whose cached count is still current is globally optimal. The priority
//! queue behind it is a bucket queue over the (tiny) set of distinct ratio
//! values — see the comment in
//! [`full_greedy_cover`].
//!
//! ## Incremental prefix diameters
//!
//! Materialization walks each size class in lexicographic order while
//! carrying a per-depth stack of **prefix diameters**: `diam[d]` is the
//! diameter of `combo[0..=d]`. Advancing the walk at position `i` only
//! invalidates depths `i..s`, and each refreshed depth folds the recurrence
//!
//! ```text
//! diam(P ∪ {e}) = max(diam(P), max_{p ∈ P} d(p, e))
//! ```
//!
//! into the walk itself — `O(s)` cache probes per emitted candidate
//! (the innermost position is the one that moves almost every step),
//! instead of the `O(s²)` of a from-scratch `diameter_ids` recompute.
//! Probes always go through `PairwiseDistances::get_lt`: combination
//! elements are strictly ascending, so the ordering branch of `get` is dead
//! weight on this path.
//!
//! ## Candidate arena
//!
//! Candidates live in a flat, size-partitioned
//! [`CandidateArena`] — one contiguous row slab and
//! diameter array per size class — rather than one heap-allocated
//! `Vec<u32>` per candidate. See the arena module docs for the layout and
//! the allocation-count test that pins the "no per-candidate allocation"
//! property.
//!
//! ## Parallel enumeration
//!
//! Candidate materialization — enumerate `Σ C(n, s)` subsets and compute
//! each diameter — dominates the runtime and is embarrassingly parallel.
//! With [`FullCoverConfig::parallel`] on, each size class `s` is partitioned
//! by the combination's **first element**: the block of combinations
//! starting with `f` has exactly `C(n−1−f, s−1)` members and is contiguous
//! in lexicographic order, so first-elements are grouped into contiguous
//! chunks of roughly equal total count and every worker fills a pre-sized
//! **disjoint slab range** of the arena (diameters served by the shared
//! [`PairwiseDistances`] cache). There is no per-worker buffer and no merge
//! step; the resulting candidate array — and therefore every candidate's
//! heap index — is **byte-identical** to the sequential enumeration.
//!
//! ## Deterministic tie-break contract
//!
//! Lazy-greedy selection orders entries by `(ratio, candidate index)` where
//! the ratio is an exact rational (no floating point) and the index is the
//! candidate's position in the lexicographic enumeration: sizes ascending,
//! then lexicographic subset order within a size. Ties in ratio therefore
//! always resolve to the lexicographically smallest subset, independent of
//! thread count or scheduling — parallel and sequential runs return
//! identical covers, not merely equal-cost ones.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::arena::CandidateArena;
use super::Ratio;
use crate::cover::Cover;
use crate::dataset::Dataset;
use crate::distcache::{resolve_threads, PairwiseDistances};
use crate::error::{Error, Result};
use crate::govern::Budget;

/// Tuning knobs for the exhaustive greedy cover.
#[derive(Clone, Debug)]
pub struct FullCoverConfig {
    /// Upper bound on `|C|`; instances that would enumerate more candidate
    /// subsets are rejected with [`Error::InstanceTooLarge`].
    pub max_candidates: usize,
    /// Enumerate candidates (and build the distance cache) across OS
    /// threads. The cover produced is byte-identical either way; see the
    /// module docs for the determinism argument.
    pub parallel: bool,
    /// Worker count when `parallel` is on. `None` defers to
    /// [`resolve_threads`] (the `RAYON_NUM_THREADS` environment variable,
    /// then available parallelism).
    pub num_threads: Option<usize>,
}

impl Default for FullCoverConfig {
    fn default() -> Self {
        FullCoverConfig {
            max_candidates: 2_000_000,
            parallel: true,
            num_threads: None,
        }
    }
}

impl FullCoverConfig {
    /// The effective worker count: 1 when `parallel` is off.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        if self.parallel {
            resolve_threads(self.num_threads)
        } else {
            1
        }
    }
}

/// `C(n, r)` via checked arithmetic; `None` when the exact count does not
/// fit a `usize`. Intermediates run in `u128` because the running product
/// `C(n, t)` can exceed the final `C(n, r)` when `r > n/2`.
fn binomial_checked(n: usize, r: usize) -> Option<usize> {
    if r > n {
        return Some(0);
    }
    let mut c = 1u128;
    for t in 0..r {
        c = c.checked_mul((n - t) as u128)? / (t + 1) as u128;
    }
    usize::try_from(c).ok()
}

/// `C(n, r)` with saturation at `usize::MAX` — only for layout and
/// work-splitting arithmetic whose exactness [`candidate_count`] has
/// already validated.
fn binomial(n: usize, r: usize) -> usize {
    binomial_checked(n, r).unwrap_or(usize::MAX)
}

/// Counts `Σ_{s=k}^{min(2k−1, n)} C(n, s)` exactly.
///
/// # Errors
/// [`Error::Overflow`] when the count exceeds `usize::MAX` on adversarial
/// `n`/`k` — previously this saturated silently and downstream capacity
/// arithmetic could wrap in release builds.
pub(crate) fn candidate_count(n: usize, k: usize) -> Result<usize> {
    let mut total = 0usize;
    for s in k..=(2 * k - 1).min(n) {
        let b = binomial_checked(n, s).ok_or(Error::Overflow {
            what: "binomial C(n, s) in the candidate count",
        })?;
        total = total.checked_add(b).ok_or(Error::Overflow {
            what: "candidate count sum over sizes k..=2k-1",
        })?;
    }
    Ok(total)
}

/// Refreshes the prefix-diameter stack entries `from..s` after the
/// lexicographic walk changed `combo[from..]`. Each depth applies the
/// recurrence `diam(P∪{e}) = max(diam(P), max_{p∈P} d(p, e))`; prefix
/// elements are strictly below `e`, so every probe takes the branch-free
/// [`PairwiseDistances::get_lt`] path.
#[inline]
fn refresh_prefix_diams(cache: &PairwiseDistances, combo: &[u32], diam: &mut [u32], from: usize) {
    for d in from..combo.len() {
        let e = combo[d] as usize;
        let mut best = if d == 0 { 0 } else { diam[d - 1] };
        for &p in &combo[..d] {
            best = best.max(cache.get_lt(p as usize, e));
        }
        diam[d] = best;
    }
}

/// Enumerates all size-`s` combinations of `0..n` in lexicographic order,
/// invoking `f(combo, diameter)` on each with the combination's diameter
/// maintained incrementally (see the module docs); stops early when `f`
/// errors (budget polls ride on this).
fn for_each_weighted_combination_until(
    cache: &PairwiseDistances,
    n: usize,
    s: usize,
    f: &mut impl FnMut(&[u32], u32) -> Result<()>,
) -> Result<()> {
    if s == 0 || s > n {
        return Ok(());
    }
    let mut combo: Vec<u32> = (0..s as u32).collect();
    let mut diam: Vec<u32> = vec![0; s];
    refresh_prefix_diams(cache, &combo, &mut diam, 0);
    loop {
        f(&combo, diam[s - 1])?;
        // Advance to the next combination in lexicographic order.
        let mut i = s;
        loop {
            if i == 0 {
                return Ok(());
            }
            i -= 1;
            if combo[i] < (n - s + i) as u32 {
                combo[i] += 1;
                for j in i + 1..s {
                    combo[j] = combo[j - 1] + 1;
                }
                refresh_prefix_diams(cache, &combo, &mut diam, i);
                break;
            }
        }
    }
}

/// Enumerates, in lexicographic order with incrementally maintained
/// diameters, the size-`s` combinations of `0..n` whose first element is
/// exactly `first`; stops early when `f` errors. The unit of work handed
/// to each parallel enumeration worker.
fn for_each_weighted_combination_with_first_until(
    cache: &PairwiseDistances,
    n: usize,
    s: usize,
    first: usize,
    f: &mut impl FnMut(&[u32], u32) -> Result<()>,
) -> Result<()> {
    debug_assert!(s >= 1 && first < n);
    if s == 1 {
        return f(&[first as u32], 0);
    }
    if first + s > n {
        return Ok(());
    }
    let mut combo: Vec<u32> = (first as u32..(first + s) as u32).collect();
    let mut diam: Vec<u32> = vec![0; s];
    refresh_prefix_diams(cache, &combo, &mut diam, 0);
    loop {
        f(&combo, diam[s - 1])?;
        let mut i = s;
        loop {
            if i == 1 {
                // Position 0 is pinned to `first`; the block is exhausted.
                return Ok(());
            }
            i -= 1;
            if combo[i] < (n - s + i) as u32 {
                combo[i] += 1;
                for j in i + 1..s {
                    combo[j] = combo[j - 1] + 1;
                }
                refresh_prefix_diams(cache, &combo, &mut diam, i);
                break;
            }
        }
    }
}

/// Unweighted lexicographic enumeration, kept as the differential reference
/// for the weighted walkers (and for the stitching tests).
#[cfg(test)]
fn for_each_combination(n: usize, s: usize, f: &mut impl FnMut(&[u32])) {
    if s == 0 || s > n {
        return;
    }
    let mut combo: Vec<u32> = (0..s as u32).collect();
    loop {
        f(&combo);
        let mut i = s;
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            if combo[i] < (n - s + i) as u32 {
                combo[i] += 1;
                for j in i + 1..s {
                    combo[j] = combo[j - 1] + 1;
                }
                break;
            }
        }
    }
}

/// Materializes the candidate collection — every subset of size `k..=2k−1`
/// paired with its incrementally computed diameter — into a
/// [`CandidateArena`], in lexicographic enumeration order, fanning each
/// size class out over `threads` workers that fill disjoint slab ranges.
///
/// Governed: the arena's projected storage (derived from the layout via
/// `size_of`, see [`CandidateArena::planned_bytes`]) is charged against the
/// budget's memory cap up front, and every enumeration loop (sequential,
/// and each parallel worker with its own ticker) polls the budget per
/// [`crate::govern::POLL_INTERVAL`] combinations.
pub(crate) fn materialize_candidates(
    cache: &PairwiseDistances,
    k: usize,
    count: usize,
    threads: usize,
    budget: &Budget,
) -> Result<CandidateArena> {
    let n = cache.n();

    // Exact per-class layout: `candidate_count` already validated that the
    // total — and therefore each per-class count — fits a `usize`.
    let layout: Vec<(usize, usize)> = (k..=(2 * k - 1).min(n))
        .map(|s| (s, binomial(n, s)))
        .collect();
    budget.try_charge_memory(CandidateArena::planned_bytes(&layout))?;
    let mut arena = CandidateArena::with_layout(&layout);
    debug_assert_eq!(arena.len(), count);

    // Below this, thread spawn overhead beats the parallel win.
    const PARALLEL_FLOOR: usize = 4_096;
    if threads <= 1 || count < PARALLEL_FLOOR {
        let mut ticker = budget.ticker();
        for class in &mut arena.classes {
            let s = class.size;
            let mut w = 0usize;
            let rows = &mut class.rows;
            let diams = &mut class.diams;
            for_each_weighted_combination_until(cache, n, s, &mut |combo, d| {
                ticker.tick()?;
                rows[w * s..(w + 1) * s].copy_from_slice(combo);
                diams[w] = d;
                w += 1;
                Ok(())
            })?;
            debug_assert_eq!(w, diams.len());
        }
        return Ok(arena);
    }

    for class in &mut arena.classes {
        let s = class.size;
        // Combinations starting with f form a contiguous lexicographic block
        // of C(n−1−f, s−1) members; chunk first-elements so each worker gets
        // a roughly equal share of the (heavily front-loaded) total, and
        // carve its exact slab range out of the class up front.
        let per_chunk = class.len().div_ceil(threads).max(1);
        let mut chunks: Vec<(usize, usize, usize)> = Vec::new(); // (first, end, count)
        let mut f = 0usize;
        while f + s <= n {
            let start = f;
            let mut acc = 0usize;
            while f + s <= n && acc < per_chunk {
                acc += binomial(n - 1 - f, s - 1);
                f += 1;
            }
            chunks.push((start, f, acc));
        }

        let outcomes: Vec<Result<()>> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            let mut rows_rest: &mut [u32] = &mut class.rows;
            let mut diams_rest: &mut [u32] = &mut class.diams;
            for &(start, end, chunk_count) in &chunks {
                let (rows_chunk, rt) = rows_rest.split_at_mut(chunk_count * s);
                rows_rest = rt;
                let (diams_chunk, dt) = diams_rest.split_at_mut(chunk_count);
                diams_rest = dt;
                handles.push(scope.spawn(move || -> Result<()> {
                    let mut ticker = budget.ticker();
                    let mut w = 0usize;
                    for first in start..end {
                        for_each_weighted_combination_with_first_until(
                            cache,
                            n,
                            s,
                            first,
                            &mut |combo, d| {
                                ticker.tick()?;
                                rows_chunk[w * s..(w + 1) * s].copy_from_slice(combo);
                                diams_chunk[w] = d;
                                w += 1;
                                Ok(())
                            },
                        )?;
                    }
                    debug_assert_eq!(w, diams_chunk.len());
                    Ok(())
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("enumeration worker never panics"))
                .collect()
        });
        for outcome in outcomes {
            outcome?;
        }
    }
    Ok(arena)
}

/// Runs Phase 1 of Theorem 4.1, returning a `(k, 2k−1)`-cover.
///
/// `cache` is a caller-supplied distance cache shared with other solvers;
/// with `None` a [`PairwiseDistances`] is built here. The cache build,
/// candidate enumeration (every parallel worker) and the lazy-greedy cover
/// loop poll `budget` at bounded intervals and stop with
/// [`Error::BudgetExceeded`] when a limit trips; the output does not depend
/// on the budget when it suffices.
///
/// # Errors
/// * [`Error::KZero`] / [`Error::KExceedsRows`] on a bad `k`;
/// * [`Error::InstanceTooLarge`] when `Σ C(n, s)` exceeds
///   `config.max_candidates`;
/// * [`Error::InvalidPartition`] if `cache` covers a different row count;
/// * [`Error::BudgetExceeded`] / [`Error::Overflow`] from `budget`.
pub fn full_greedy_cover(
    ds: &Dataset,
    k: usize,
    config: &FullCoverConfig,
    cache: Option<&PairwiseDistances>,
    budget: &Budget,
) -> Result<Cover> {
    ds.check_k(k)?;
    budget.check()?;
    let owned;
    let cache = match cache {
        Some(cache) => cache,
        None => {
            owned = PairwiseDistances::build(ds, Some(config.effective_threads()), budget)?;
            &owned
        }
    };
    let n = ds.n_rows();
    if cache.n() != n {
        return Err(Error::InvalidPartition(format!(
            "distance cache covers {} rows but the dataset has {n}",
            cache.n()
        )));
    }
    let count = candidate_count(n, k)?;
    if count > config.max_candidates {
        return Err(Error::InstanceTooLarge {
            solver: "full_greedy_cover",
            limit: format!(
                "candidate collection has {count} subsets, above the limit of {}",
                config.max_candidates
            ),
        });
    }
    budget.check_candidates(count as u64)?;

    // Candidate ids ride in `u32` bucket slots; `max_candidates` would have
    // to be raised past 4 G candidates (≥ 48 GiB of arena) to get here.
    if count > u32::MAX as usize {
        return Err(Error::InstanceTooLarge {
            solver: "full_greedy_cover",
            limit: format!("candidate collection has {count} subsets, above the u32 id space"),
        });
    }

    let arena = materialize_candidates(cache, k, count, config.effective_threads(), budget)?;

    let uncovered_in = |set: &[u32], covered: &[bool]| -> u64 {
        set.iter().filter(|&&r| !covered[r as usize]).count() as u64
    };

    // ## Bucket-queue lazy greedy
    //
    // Every selection key is a ratio `diameter / fresh` with the numerator
    // bounded by the column count and the denominator by `2k−1`, so the
    // distinct key *values* form a tiny set computable up front. Instead of
    // a binary heap of per-candidate entries, candidates sit in one bucket
    // per distinct ratio value: a base array filled in enumeration order
    // (so it is already sorted by candidate id — the deterministic
    // tie-break) plus a small overflow heap for lazily re-keyed entries.
    // Popping walks buckets in ascending ratio order and merges base and
    // overflow by id, which reproduces the binary heap's exact
    // `(ratio, index)` pop order: re-keys always move an entry to a
    // strictly later bucket because uncovered counts only shrink.
    let fracs: Vec<Ratio> = {
        let max_d = arena
            .classes
            .iter()
            .filter_map(|c| c.diams.iter().copied().max())
            .max()
            .unwrap_or(0);
        let mut have_d = vec![false; max_d as usize + 1];
        for class in &arena.classes {
            for &d in class.diams.iter() {
                have_d[d as usize] = true;
            }
        }
        let max_den = ((2 * k - 1).min(n)) as u64;
        let mut fracs = Vec::new();
        for (d, present) in have_d.iter().enumerate() {
            if *present {
                for den in 1..=max_den {
                    fracs.push(Ratio::new(d as u64, den));
                }
            }
        }
        fracs.sort_unstable();
        // Equal values with different representations (1/2, 2/4) must share
        // a bucket; the derived `PartialEq` is structural, so dedup by
        // `Ord`, which compares values.
        fracs.dedup_by(|a, b| (*a).cmp(&*b).is_eq());
        fracs
    };
    let bucket_of = |num: u64, den: u64| -> usize {
        fracs
            .binary_search_by(|f| f.cmp(&Ratio::new(num, den)))
            .expect("every reachable ratio value is enumerated")
    };

    /// One distinct ratio value's worth of pending candidates.
    #[derive(Default)]
    struct Bucket {
        /// Ids placed at build time, ascending (enumeration order).
        base: Vec<u32>,
        /// Read position in `base`.
        cursor: usize,
        /// Ids re-keyed into this bucket after a stale pop.
        overflow: BinaryHeap<Reverse<u32>>,
    }

    impl Bucket {
        /// The smallest pending id across `base` and `overflow`, if any.
        fn pop_min(&mut self) -> Option<u32> {
            let base_next = self.base.get(self.cursor).copied();
            let over_next = self.overflow.peek().map(|r| r.0);
            match (base_next, over_next) {
                (Some(a), Some(b)) if b < a => self.overflow.pop().map(|r| r.0),
                (Some(a), _) => {
                    self.cursor += 1;
                    Some(a)
                }
                (None, _) => self.overflow.pop().map(|r| r.0),
            }
        }
    }

    // One base slot per candidate plus at most one in-flight overflow slot
    // each; derived from the slot type so governance accounting tracks the
    // representation (this replaces both the retired binary heap's
    // hard-coded 24-byte entry charge and the heap itself).
    let slot_bytes = std::mem::size_of::<u32>() as u64;
    budget.try_charge_memory((count as u64).saturating_mul(2 * slot_bytes))?;

    // Counting pass, then exact-capacity fill: two sequential sweeps over
    // the diameter arrays beat one sweep with reallocation copies.
    let mut counts = vec![0usize; fracs.len()];
    for class in &arena.classes {
        let den = class.size as u64;
        for &d in class.diams.iter() {
            counts[bucket_of(u64::from(d), den)] += 1;
        }
    }
    let mut buckets: Vec<Bucket> = counts
        .iter()
        .map(|&c| Bucket {
            base: Vec::with_capacity(c),
            ..Bucket::default()
        })
        .collect();
    for class in &arena.classes {
        let den = class.size as u64;
        for (i, &d) in class.diams.iter().enumerate() {
            buckets[bucket_of(u64::from(d), den)]
                .base
                .push((class.start + i) as u32);
        }
    }

    let mut covered = vec![false; n];
    let mut remaining = n;
    let mut ticker = budget.ticker();
    let mut chosen: Vec<usize> = Vec::new();
    let mut b = 0usize;
    while remaining > 0 {
        ticker.tick()?;
        let id = loop {
            if b == buckets.len() {
                return Err(Error::InvalidPartition(
                    "greedy ran out of candidates before covering V".into(),
                ));
            }
            match buckets[b].pop_min() {
                Some(id) => break id as usize,
                None => b += 1,
            }
        };
        let set = arena.rows(id);
        let fresh = uncovered_in(set, &covered);
        if fresh == 0 {
            continue;
        }
        let current = bucket_of(arena.diameter(id), fresh);
        if current != b {
            // Stale: ratios only grow, so this lands in a later bucket.
            debug_assert!(current > b);
            buckets[current].overflow.push(Reverse(id as u32));
            continue;
        }
        for &r in set {
            if !covered[r as usize] {
                covered[r as usize] = true;
                remaining -= 1;
            }
        }
        chosen.push(id);
    }

    Cover::from_slices(chosen.iter().map(|&id| arena.rows(id)), n, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diameter::diameter;

    /// Sequential config: the baseline the parallel path must match.
    fn sequential() -> FullCoverConfig {
        FullCoverConfig {
            parallel: false,
            ..Default::default()
        }
    }

    /// Collects the weighted enumeration as owned `(combo, diameter)` pairs.
    fn collect_weighted(cache: &PairwiseDistances, n: usize, s: usize) -> Vec<(Vec<u32>, u32)> {
        let mut out = Vec::new();
        for_each_weighted_combination_until(cache, n, s, &mut |c, d| {
            out.push((c.to_vec(), d));
            Ok(())
        })
        .unwrap();
        out
    }

    #[test]
    fn combination_enumeration_is_complete() {
        let mut seen = Vec::new();
        for_each_combination(5, 3, &mut |c| seen.push(c.to_vec()));
        assert_eq!(seen.len(), 10);
        assert_eq!(seen.first().unwrap(), &vec![0, 1, 2]);
        assert_eq!(seen.last().unwrap(), &vec![2, 3, 4]);
        let mut dedup = seen.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 10);
    }

    #[test]
    fn combination_edge_cases() {
        let ds = Dataset::from_fn(4, 2, |i, _| i as u32);
        let cache = PairwiseDistances::build(&ds, Some(1), &Budget::unlimited()).unwrap();
        assert_eq!(collect_weighted(&cache, 4, 4).len(), 1);
        assert_eq!(collect_weighted(&cache, 4, 5).len(), 0);
        assert_eq!(collect_weighted(&cache, 4, 0).len(), 0);
    }

    #[test]
    fn weighted_walk_matches_plain_enumeration_and_fresh_diameters() {
        let ds = Dataset::from_fn(9, 4, |i, j| ((i * 7 + j * 5) % 3) as u32);
        let cache = PairwiseDistances::build(&ds, Some(1), &Budget::unlimited()).unwrap();
        for s in 1..=5 {
            let mut plain = Vec::new();
            for_each_combination(9, s, &mut |c| plain.push(c.to_vec()));
            let weighted = collect_weighted(&cache, 9, s);
            assert_eq!(plain.len(), weighted.len(), "s = {s}");
            for (p, (c, d)) in plain.iter().zip(&weighted) {
                assert_eq!(p, c, "s = {s}");
                assert_eq!(*d as usize, cache.diameter_ids(c), "s = {s} combo {c:?}");
            }
        }
    }

    #[test]
    fn first_element_blocks_reassemble_the_full_weighted_enumeration() {
        let ds = Dataset::from_fn(9, 3, |i, j| ((i * 11 + j) % 4) as u32);
        let cache = PairwiseDistances::build(&ds, Some(1), &Budget::unlimited()).unwrap();
        for (n, s) in [(7, 3), (6, 1), (5, 5), (9, 4)] {
            let whole = collect_weighted(&cache, n, s);
            let mut stitched = Vec::new();
            for first in 0..=(n - s) {
                for_each_weighted_combination_with_first_until(&cache, n, s, first, &mut |c, d| {
                    stitched.push((c.to_vec(), d));
                    Ok(())
                })
                .unwrap();
            }
            assert_eq!(whole, stitched, "n={n} s={s}");
        }
    }

    #[test]
    fn candidate_count_matches_binomials() {
        // k = 2 over n = 5: C(5,2) + C(5,3) = 10 + 10.
        assert_eq!(candidate_count(5, 2).unwrap(), 20);
        // k = 3 over n = 6: C(6,3) + C(6,4) + C(6,5) = 20 + 15 + 6.
        assert_eq!(candidate_count(6, 3).unwrap(), 41);
        // Truncated at n.
        assert_eq!(candidate_count(3, 2).unwrap(), 3 + 1);
    }

    #[test]
    fn candidate_count_overflows_cleanly_on_adversarial_n() {
        // C(10_000, 40) vastly exceeds usize::MAX; the old saturating path
        // reported usize::MAX, the checked path names the overflow.
        assert!(matches!(
            candidate_count(10_000, 40),
            Err(Error::Overflow { .. })
        ));
        // The saturating helper used for work-splitting still saturates.
        assert_eq!(binomial(10_000, 40), usize::MAX);
    }

    #[test]
    fn parallel_materialization_is_byte_identical() {
        let ds = Dataset::from_fn(18, 4, |i, j| ((i * 11 + j * 5) % 4) as u32);
        let cache = PairwiseDistances::build(&ds, Some(1), &Budget::unlimited()).unwrap();
        let count = candidate_count(18, 3).unwrap();
        assert!(count >= 4_096, "instance must clear the parallel floor");
        let unlimited = Budget::unlimited();
        let seq = materialize_candidates(&cache, 3, count, 1, &unlimited).unwrap();
        assert_eq!(seq.len(), count);
        for threads in [2, 3, 4, 7] {
            let par = materialize_candidates(&cache, 3, count, threads, &unlimited).unwrap();
            assert_eq!(seq, par, "threads = {threads}");
        }
        // Spot-check diameters against the row-scanning reference.
        for (set, d) in seq.iter().step_by(997) {
            let rows: Vec<usize> = set.iter().map(|&r| r as usize).collect();
            assert_eq!(d as usize, diameter(&ds, &rows));
        }
    }

    #[test]
    fn arena_ids_resolve_to_enumeration_order() {
        let ds = Dataset::from_fn(10, 3, |i, j| ((i * 5 + j) % 4) as u32);
        let cache = PairwiseDistances::build(&ds, Some(1), &Budget::unlimited()).unwrap();
        let arena = CandidateArena::try_materialize(&cache, 2, 1, &Budget::unlimited()).unwrap();
        // Reference order: sizes ascending, lexicographic within a size.
        let mut expected: Vec<Vec<u32>> = Vec::new();
        for s in 2..=3 {
            for_each_combination(10, s, &mut |c| expected.push(c.to_vec()));
        }
        assert_eq!(arena.len(), expected.len());
        for (id, exp) in expected.iter().enumerate() {
            assert_eq!(arena.rows(id), exp.as_slice(), "id {id}");
            assert_eq!(arena.diameter(id), cache.diameter_ids(exp) as u64);
        }
        // The iterator visits the same order as the per-id lookups.
        for (id, (rows, d)) in arena.iter().enumerate() {
            assert_eq!(rows, arena.rows(id));
            assert_eq!(d, arena.diameter(id));
        }
    }

    #[test]
    fn parallel_cover_matches_sequential_cover() {
        let ds = Dataset::from_fn(16, 5, |i, j| ((i * 7 + j * 13) % 3) as u32);
        for k in [2, 3] {
            let base =
                full_greedy_cover(&ds, k, &sequential(), None, &Budget::unlimited()).unwrap();
            for threads in [1, 2, 4, 8] {
                let config = FullCoverConfig {
                    parallel: true,
                    num_threads: Some(threads),
                    ..Default::default()
                };
                let par = full_greedy_cover(&ds, k, &config, None, &Budget::unlimited()).unwrap();
                assert_eq!(base, par, "k={k} threads={threads}");
            }
        }
    }

    #[test]
    fn duplicates_get_zero_cost_groups() {
        let ds = Dataset::from_rows(vec![vec![1, 1], vec![1, 1], vec![2, 2], vec![2, 2]]).unwrap();
        let cover = full_greedy_cover(
            &ds,
            2,
            &FullCoverConfig::default(),
            None,
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(cover.diameter_sum(&ds), 0);
    }

    #[test]
    fn covers_every_row_with_legal_sizes() {
        let ds = Dataset::from_rows(vec![
            vec![0, 0, 0],
            vec![0, 0, 1],
            vec![5, 5, 5],
            vec![5, 5, 6],
            vec![9, 9, 9],
        ])
        .unwrap();
        let cover = full_greedy_cover(
            &ds,
            2,
            &FullCoverConfig::default(),
            None,
            &Budget::unlimited(),
        )
        .unwrap();
        // Cover::new inside already validated coverage and sizes. The two
        // near-duplicate pairs cost 1 each; the isolated row 4 must share a
        // set with some far row (distance 3), so 5 is optimal here.
        assert_eq!(cover.diameter_sum(&ds), 5);
        for s in cover.sets() {
            assert!(s.len() >= 2 && s.len() <= 3);
        }
    }

    #[test]
    fn size_guard_triggers() {
        let ds = Dataset::from_fn(40, 2, |i, _| i as u32);
        let config = FullCoverConfig {
            max_candidates: 100,
            ..Default::default()
        };
        let err = full_greedy_cover(&ds, 3, &config, None, &Budget::unlimited()).unwrap_err();
        assert!(matches!(err, Error::InstanceTooLarge { .. }));
    }

    #[test]
    fn governed_unlimited_matches_ungoverned() {
        let roomy = Budget::builder()
            .deadline(std::time::Duration::from_secs(3600))
            .build();
        let ds = Dataset::from_fn(14, 4, |i, j| ((i * 5 + j * 3) % 3) as u32);
        for k in [2, 3] {
            let plain = full_greedy_cover(
                &ds,
                k,
                &FullCoverConfig::default(),
                None,
                &Budget::unlimited(),
            )
            .unwrap();
            let governed =
                full_greedy_cover(&ds, k, &FullCoverConfig::default(), None, &roomy).unwrap();
            assert_eq!(plain, governed, "k = {k}");
        }
    }

    #[test]
    fn governed_budget_limits_trip() {
        let ds = Dataset::from_fn(16, 4, |i, j| ((i * 7 + j) % 4) as u32);
        let config = FullCoverConfig::default();

        // Candidate cap below Σ C(16, 2..=3) = 680.
        let capped = Budget::builder().max_candidates(100).build();
        assert!(matches!(
            full_greedy_cover(&ds, 2, &config, None, &capped),
            Err(Error::BudgetExceeded {
                resource: crate::govern::Resource::Candidates,
                ..
            })
        ));

        // Memory cap that the distance cache alone exceeds.
        let starved = Budget::builder().max_memory_bytes(16).build();
        assert!(matches!(
            full_greedy_cover(&ds, 2, &config, None, &starved),
            Err(Error::BudgetExceeded {
                resource: crate::govern::Resource::Memory,
                ..
            })
        ));

        // Cancellation is observed before any work.
        let cancelled = Budget::unlimited();
        cancelled.cancel();
        assert!(full_greedy_cover(&ds, 2, &config, None, &cancelled).is_err());
    }

    #[test]
    fn mismatched_cache_rejected() {
        let ds = Dataset::from_fn(6, 2, |i, _| i as u32);
        let other = Dataset::from_fn(5, 2, |i, _| i as u32);
        let cache = PairwiseDistances::build(&other, Some(1), &Budget::unlimited()).unwrap();
        assert!(full_greedy_cover(
            &ds,
            2,
            &FullCoverConfig::default(),
            Some(&cache),
            &Budget::unlimited()
        )
        .is_err());
    }

    #[test]
    fn k_equals_n_single_group() {
        let ds = Dataset::from_rows(vec![vec![0], vec![1], vec![2]]).unwrap();
        let cover = full_greedy_cover(
            &ds,
            3,
            &FullCoverConfig::default(),
            None,
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(cover.n_sets(), 1);
        assert_eq!(cover.sets()[0], vec![0, 1, 2]);
    }

    #[test]
    fn k_one_yields_zero_diameter() {
        let ds = Dataset::from_rows(vec![vec![0], vec![1], vec![2]]).unwrap();
        let cover = full_greedy_cover(
            &ds,
            1,
            &FullCoverConfig::default(),
            None,
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(cover.diameter_sum(&ds), 0);
    }

    #[test]
    fn bad_k_rejected() {
        let ds = Dataset::from_rows(vec![vec![0], vec![1]]).unwrap();
        assert!(full_greedy_cover(
            &ds,
            0,
            &FullCoverConfig::default(),
            None,
            &Budget::unlimited()
        )
        .is_err());
        assert!(full_greedy_cover(
            &ds,
            3,
            &FullCoverConfig::default(),
            None,
            &Budget::unlimited()
        )
        .is_err());
    }

    #[test]
    fn empty_dataset_empty_cover() {
        let ds = Dataset::from_rows(vec![]).unwrap();
        // check_k rejects k > n = 0... k must be 0 < k <= 0: impossible, so
        // any k errors. That is the documented behaviour.
        assert!(full_greedy_cover(
            &ds,
            1,
            &FullCoverConfig::default(),
            None,
            &Budget::unlimited()
        )
        .is_err());
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Satellite pin: the incremental prefix diameters agree with a
        /// fresh `diameter_ids` recompute on **every** emitted combination,
        /// for every size class of every `k ∈ 1..=4`, on random datasets.
        #[test]
        fn incremental_prefix_diameters_agree_with_fresh_recompute(
            flat in proptest::collection::vec(0u32..6, 10 * 3),
            n in 4usize..11,
            k in 1usize..=4,
        ) {
            let ds = Dataset::from_fn(n, 3, |i, j| flat[i * 3 + j]);
            let cache = PairwiseDistances::build(&ds, Some(1), &Budget::unlimited()).unwrap();
            let k = k.min(n);
            for s in k..=(2 * k - 1).min(n) {
                for_each_weighted_combination_until(&cache, n, s, &mut |combo, d| {
                    // Plain assert: proptest reports the panic as a failure.
                    assert_eq!(
                        d as usize,
                        cache.diameter_ids(combo),
                        "n={n} k={k} s={s} combo={combo:?}"
                    );
                    Ok(())
                }).unwrap();
            }
        }

        /// Satellite pin: arena ids → slices reproduce the lexicographic
        /// enumeration order exactly (round-trip through materialization).
        #[test]
        fn arena_round_trips_enumeration_order(
            flat in proptest::collection::vec(0u32..6, 10 * 3),
            n in 4usize..11,
            k in 1usize..=3,
        ) {
            let ds = Dataset::from_fn(n, 3, |i, j| flat[i * 3 + j]);
            let cache = PairwiseDistances::build(&ds, Some(1), &Budget::unlimited()).unwrap();
            let k = k.min(n);
            let arena =
                CandidateArena::try_materialize(&cache, k, 1, &Budget::unlimited()).unwrap();
            let mut expected: Vec<Vec<u32>> = Vec::new();
            for s in k..=(2 * k - 1).min(n) {
                for_each_combination(n, s, &mut |c| expected.push(c.to_vec()));
            }
            prop_assert_eq!(arena.len(), expected.len());
            for (id, exp) in expected.iter().enumerate() {
                prop_assert_eq!(arena.rows(id), exp.as_slice());
            }
        }
    }
}
