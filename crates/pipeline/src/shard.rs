//! Deterministic row-to-shard planning.
//!
//! k-anonymity composes under disjoint union: if every shard's rows are
//! suppressed into groups of at least `k` identical quasi-identifier
//! vectors, the concatenation of those groups is a k-anonymous partition of
//! the whole table (Lemma 4.1 applies per block regardless of which shard
//! produced it). The sharder's job is therefore only to (a) keep every
//! shard inside the solver's comfort zone and (b) never emit a piece with
//! fewer than `k` rows — undersized buckets go to the **residue**, which
//! the merge stage solves as one extra group.

use kanon_core::Dataset;

use crate::config::{PipelineConfig, ShardStrategy};
use crate::error::Result;

/// The output of [`plan_shards`]: a disjoint cover of `0..n` by shard row
/// lists plus an optional residue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    /// Row indices per shard. Every shard has between `k` and
    /// `config.shard_size` rows (the shard that absorbed a small residue
    /// may exceed the target by up to `k - 1` rows).
    pub shards: Vec<Vec<u32>>,
    /// Rows from buckets too small to shard on their own. Either empty or
    /// at least `k` rows (a smaller residue is folded into a shard), except
    /// when the whole table is residue (then `n >= k` rows).
    pub residue: Vec<u32>,
    /// How many hash buckets the plan used (1 for [`ShardStrategy::Sorted`],
    /// which has a single global order instead of buckets). The engine sizes
    /// residue chunks from this, and the delta engine pins it via
    /// [`PipelineConfig::n_buckets`] so its bucketing matches a batch run.
    pub n_buckets: usize,
}

impl ShardPlan {
    /// Total rows covered by the plan.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.shards.iter().map(Vec::len).sum::<usize>() + self.residue.len()
    }
}

/// FNV-1a over a row's encoded quasi-identifier values. Stable across
/// platforms and worker counts (it reads only the table contents). The
/// delta engine routes updates with the same hash, so a row keeps its
/// bucket for as long as its codes are unchanged.
pub(crate) fn fnv1a_row<'a>(row: impl IntoIterator<Item = &'a u32>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &v in row {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        // Column separator so (1, 23) and (12, 3) differ.
        h ^= 0xff;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Splits `rows` into `ceil(len / target)` near-equal consecutive pieces.
///
/// With `target >= 2k - 1` and `len >= k`, every piece has at least `k`
/// rows: for `q >= 2` pieces, `len >= (q-1)*target + 1` gives
/// `floor(len/q) >= (2k-1) - (2k-2)/q >= k`.
pub(crate) fn chunk_near_equal<T: Copy>(rows: &[T], target: usize) -> Vec<Vec<T>> {
    let q = rows.len().div_ceil(target).max(1);
    let base = rows.len() / q;
    let extra = rows.len() % q; // first `extra` pieces get one more row
    let mut out = Vec::with_capacity(q);
    let mut at = 0;
    for i in 0..q {
        let size = base + usize::from(i < extra);
        out.push(rows[at..at + size].to_vec());
        at += size;
    }
    out
}

/// The unit plan over ordered buckets, shared by [`plan_shards`] and the
/// delta engine.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Units<T> {
    /// `(bucket index, chunks)` for every bucket of at least `k` rows, in
    /// bucket order.
    pub(crate) buckets: Vec<(usize, Vec<Vec<T>>)>,
    /// Rows of the sub-`k` buckets, sorted. Either empty or at least `k`
    /// rows, unless there is no chunk to fold a smaller residue into.
    pub(crate) residue: Vec<T>,
}

/// The one sharding rule. Each bucket of at least `k` rows is cut into
/// near-equal chunks of at most `target` rows ([`chunk_near_equal`]);
/// smaller buckets pool into a sorted residue. A residue below `k` rows
/// cannot be solved on its own, so it is appended to the end of the
/// globally smallest chunk (lowest index on ties) — that chunk still fits
/// the solver, at most `target + k - 1` rows.
pub(crate) fn plan_units<T: Copy + Ord>(
    buckets: impl IntoIterator<Item = Vec<T>>,
    k: usize,
    target: usize,
) -> Units<T> {
    let mut planned = Vec::new();
    let mut residue = Vec::new();
    for (b, rows) in buckets.into_iter().enumerate() {
        if rows.len() < k {
            residue.extend(rows);
        } else {
            planned.push((b, chunk_near_equal(&rows, target)));
        }
    }
    residue.sort_unstable();
    if residue.len() < k {
        let smallest = planned
            .iter_mut()
            .flat_map(|(_, chunks)| chunks.iter_mut())
            .enumerate()
            .min_by_key(|(i, chunk)| (chunk.len(), *i));
        if let Some((_, chunk)) = smallest {
            chunk.append(&mut residue);
        }
    }
    Units {
        buckets: planned,
        residue,
    }
}

/// Plans a deterministic sharding of `ds` for anonymity parameter `k`:
/// bucket the rows by strategy, apply `plan_units`, and flatten the
/// chunks into shards.
///
/// # Errors
/// `k` validation errors from [`Dataset::check_k`], and
/// [`Error::Config`](crate::Error::Config) when `config.shard_size < 2k - 1`.
pub fn plan_shards(ds: &Dataset, k: usize, config: &PipelineConfig) -> Result<ShardPlan> {
    plan_columns(ds, &(0..ds.n_cols()).collect::<Vec<_>>(), k, config)
}

/// [`plan_shards`] over the projection of `ds` onto `cols`, read in place.
pub(crate) fn plan_columns(
    ds: &Dataset,
    cols: &[usize],
    k: usize,
    config: &PipelineConfig,
) -> Result<ShardPlan> {
    ds.check_k(k)?;
    config.validate(k)?;
    let n = ds.n_rows();
    let qi = |i: u32| {
        let row = ds.row(i as usize);
        cols.iter().map(move |&j| &row[j])
    };

    // Bucket rows by strategy. Buckets preserve the strategy's row order:
    // ascending row id for hashing, sort position for range sharding.
    let buckets: Vec<Vec<u32>> = match config.strategy {
        ShardStrategy::HashQuasi => {
            let n_buckets = config
                .n_buckets
                .unwrap_or_else(|| n.div_ceil(config.shard_size))
                .max(1);
            let mut buckets = vec![Vec::new(); n_buckets];
            for i in 0..n as u32 {
                let b = (fnv1a_row(qi(i)) % n_buckets as u64) as usize;
                buckets[b].push(i);
            }
            buckets
        }
        ShardStrategy::Sorted => {
            let mut order: Vec<u32> = (0..n as u32).collect();
            // Lexicographic by row values, row id as tiebreak, so the order
            // is a deterministic total order.
            order.sort_unstable_by(|&a, &b| qi(a).cmp(qi(b)).then(a.cmp(&b)));
            vec![order]
        }
    };

    let n_buckets = buckets.len();
    let units = plan_units(buckets, k, config.shard_size);
    let shards: Vec<Vec<u32>> = units.buckets.into_iter().flat_map(|(_, c)| c).collect();
    debug_assert_eq!(
        shards.iter().map(Vec::len).sum::<usize>() + units.residue.len(),
        n
    );
    Ok(ShardPlan {
        shards,
        residue: units.residue,
        n_buckets,
    })
}

/// The chunk size the engine cuts the residue into: the plan's average
/// bucket size, clamped into `[2k - 1, shard_size]`. With many small
/// buckets (the delta engine's regime) the residue can hold thousands of
/// rows; solving it as one oversized shard would blow the solver's
/// `O(s²)` comfort zone and force a full residue re-solve on every
/// update. Chunking it like any other bucket keeps both runs — batch and
/// incremental — on the same work, which is what keeps them equivalent.
pub(crate) fn residue_chunk_target(
    n: usize,
    n_buckets: usize,
    k: usize,
    shard_size: usize,
) -> usize {
    let avg = n.div_ceil(n_buckets.max(1));
    avg.clamp((2 * k.max(1) - 1).min(shard_size), shard_size)
}

/// Checked `Σ C(n, s)` for `s` in `k..=min(2k-1, n)` — the exhaustive
/// greedy's candidate-family size. `None` means the sum overflowed `u64`
/// (treat as "too many").
#[must_use]
pub fn full_cover_candidates(n: usize, k: usize) -> Option<u64> {
    if k == 0 {
        return Some(0);
    }
    let hi = (2 * k - 1).min(n);
    let mut total: u64 = 0;
    for s in k..=hi {
        // C(n, s) with overflow checks; multiply-then-divide stays exact
        // because C(n, i) * (n - i) is divisible by i + 1.
        let mut c: u64 = 1;
        for i in 0..s {
            c = c.checked_mul((n - i) as u64)?.checked_div((i + 1) as u64)?;
        }
        total = total.checked_add(c)?;
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;

    fn dataset(n: usize) -> Dataset {
        Dataset::from_fn(n, 3, |i, j| ((i * 7 + j * 5) % 11) as u32)
    }

    fn assert_covers(plan: &ShardPlan, n: usize, k: usize, target: usize) {
        let mut seen = vec![false; n];
        for shard in &plan.shards {
            assert!(shard.len() >= k, "shard below k: {}", shard.len());
            assert!(
                shard.len() < target + k,
                "shard above target+k-1: {}",
                shard.len()
            );
            for &r in shard {
                assert!(!seen[r as usize], "row {r} covered twice");
                seen[r as usize] = true;
            }
        }
        for &r in &plan.residue {
            assert!(!seen[r as usize], "row {r} covered twice");
            seen[r as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some row uncovered");
        assert!(plan.residue.is_empty() || plan.residue.len() >= k || plan.shards.is_empty());
    }

    #[test]
    fn hash_plan_covers_every_row_exactly_once() {
        let ds = dataset(100);
        let config = PipelineConfig {
            shard_size: 16,
            ..PipelineConfig::default()
        };
        let plan = plan_shards(&ds, 3, &config).unwrap();
        assert_covers(&plan, 100, 3, 16);
        assert!(plan.shards.len() > 1);
        // Deterministic: same inputs, same plan.
        assert_eq!(plan, plan_shards(&ds, 3, &config).unwrap());
    }

    #[test]
    fn sorted_plan_is_consecutive_in_sort_order() {
        let ds = dataset(50);
        let config = PipelineConfig {
            shard_size: 10,
            strategy: ShardStrategy::Sorted,
            ..PipelineConfig::default()
        };
        let plan = plan_shards(&ds, 3, &config).unwrap();
        assert_covers(&plan, 50, 3, 10);
        assert!(plan.residue.is_empty());
        // Rows within a shard are sorted: each shard's rows are a
        // consecutive run of the global sort order.
        let mut order: Vec<u32> = (0..50).collect();
        order.sort_unstable_by(|&a, &b| ds.row(a as usize).cmp(ds.row(b as usize)).then(a.cmp(&b)));
        let flat: Vec<u32> = plan.shards.iter().flatten().copied().collect();
        assert_eq!(flat, order);
    }

    #[test]
    fn hash_shards_never_cross_bucket_boundaries() {
        // Distinct row patterns may *collide* into one bucket, but a shard
        // must never span two buckets (identical rows always share a
        // bucket, so alignment suppression never crosses a shard edge).
        let ds = dataset(80);
        let config = PipelineConfig {
            shard_size: 8,
            ..PipelineConfig::default()
        };
        let plan = plan_shards(&ds, 2, &config).unwrap();
        assert_covers(&plan, 80, 2, 8);
        let n_buckets = 80usize.div_ceil(8);
        for shard in &plan.shards {
            let bucket = (fnv1a_row(ds.row(shard[0] as usize)) % n_buckets as u64) as usize;
            assert!(
                shard.iter().all(|&r| {
                    (fnv1a_row(ds.row(r as usize)) % n_buckets as u64) as usize == bucket
                }),
                "a hash shard spans two buckets"
            );
        }
    }

    #[test]
    fn pinned_bucket_count_overrides_the_derived_one() {
        let ds = dataset(100);
        let derived = plan_shards(&ds, 3, &PipelineConfig::default()).unwrap();
        assert_eq!(derived.n_buckets, 1); // 100 rows, target 512
        let config = PipelineConfig {
            n_buckets: Some(13),
            ..PipelineConfig::default()
        };
        let plan = plan_shards(&ds, 3, &config).unwrap();
        assert_eq!(plan.n_buckets, 13);
        assert_covers(&plan, 100, 3, 512);
        for shard in &plan.shards {
            let bucket = (fnv1a_row(ds.row(shard[0] as usize)) % 13) as usize;
            // Rows of one shard share a bucket under the pinned modulus
            // (the shard that absorbed a sub-k residue is the exception,
            // so only check shards no larger than the biggest bucket).
            let uniform = shard
                .iter()
                .all(|&r| (fnv1a_row(ds.row(r as usize)) % 13) as usize == bucket);
            assert!(uniform || plan.residue.is_empty());
        }
        // Same pinned count, same plan — independent of derivation.
        assert_eq!(plan, plan_shards(&ds, 3, &config).unwrap());
    }

    #[test]
    fn one_fold_rule_for_every_residue() {
        // A sub-k residue pooled from two buckets is sorted, then appended
        // to the globally smallest chunk. Chunks 1 and 2 tie at 3 rows;
        // the lower index wins.
        let units = plan_units(
            vec![
                vec![10, 11, 12, 13, 14, 15, 16],
                vec![7],
                vec![20, 21, 22],
                vec![],
                vec![2],
            ],
            3,
            5,
        );
        assert_eq!(
            units,
            Units {
                buckets: vec![
                    (0, vec![vec![10, 11, 12, 13], vec![14, 15, 16, 2, 7]]),
                    (2, vec![vec![20, 21, 22]]),
                ],
                residue: vec![],
            }
        );
        // A residue of at least k rows stands alone, sorted.
        let units = plan_units(vec![vec![5u64, 6, 7], vec![9], vec![1]], 2, 3);
        assert_eq!(units.buckets, vec![(0, vec![vec![5, 6, 7]])]);
        assert_eq!(units.residue, vec![1, 9]);
        // A table that is all residue has no chunks.
        let units = plan_units(vec![vec![4u32, 1], vec![0], vec![3, 2]], 3, 5);
        assert!(units.buckets.is_empty());
        assert_eq!(units.residue, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn residue_chunk_target_tracks_bucket_size_within_the_band() {
        // Average bucket of 8 rows: chunks match it once 2k-1 allows.
        assert_eq!(residue_chunk_target(80, 10, 3, 512), 8);
        // Floor: never below 2k-1.
        assert_eq!(residue_chunk_target(80, 40, 4, 512), 7);
        // Ceiling: never above the configured shard size.
        assert_eq!(residue_chunk_target(10_000, 2, 3, 512), 512);
        // Degenerate inputs stay in range.
        assert_eq!(residue_chunk_target(5, 0, 3, 512), 5);
    }

    #[test]
    fn small_table_is_a_single_shard() {
        let ds = dataset(5);
        let plan = plan_shards(&ds, 3, &PipelineConfig::default()).unwrap();
        assert_eq!(plan.n_rows(), 5);
        assert!(plan.residue.len() >= 3 || plan.shards.len() == 1);
        assert_covers(&plan, 5, 3, 512);
    }

    #[test]
    fn shard_size_below_band_floor_is_rejected() {
        let ds = dataset(20);
        let config = PipelineConfig {
            shard_size: 4,
            ..PipelineConfig::default()
        };
        assert!(matches!(
            plan_shards(&ds, 3, &config),
            Err(Error::Config(_))
        ));
    }

    #[test]
    fn chunking_respects_the_k_floor() {
        // Exhaustive check of the chunking lemma over a small grid.
        for k in 1..=6usize {
            let target = 2 * k - 1;
            for len in k..200 {
                let rows: Vec<u32> = (0..len as u32).collect();
                for t in [target, target + 1, target + 3, 64] {
                    if t < target {
                        continue;
                    }
                    let pieces = chunk_near_equal(&rows, t);
                    assert_eq!(pieces.iter().map(Vec::len).sum::<usize>(), len);
                    for p in &pieces {
                        assert!(p.len() >= k, "k={k} t={t} len={len} piece={}", p.len());
                        assert!(p.len() <= t, "k={k} t={t} len={len} piece={}", p.len());
                    }
                }
            }
        }
    }

    #[test]
    fn candidate_count_matches_hand_computation() {
        // n=18, k=3: C(18,3)+C(18,4)+C(18,5) = 816 + 3060 + 8568.
        assert_eq!(full_cover_candidates(18, 3), Some(816 + 3060 + 8568));
        // n < k contributes nothing above C(n, n).
        assert_eq!(full_cover_candidates(4, 3), Some(4 + 1));
        // Overflow is reported as None, not a panic.
        assert_eq!(full_cover_candidates(10_000, 30), None);
    }
}
