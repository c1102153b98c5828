//! Phase 1 of Theorem 4.2: greedy set cover over center/radius balls.
//!
//! Instead of all `O(n^{2k−1})` small subsets, the candidate family is
//! `D = { S_{c,i} = {v : d(c,v) ≤ i} : c ∈ V, i ∈ {1..m}, |S_{c,i}| ≥ k }`
//! (or, alternatively, `S_{c,c'} = {v : d(c,v) ≤ d(c,c')}` over row pairs —
//! the paper advises using whichever family is smaller). By Lemma 4.2 a ball
//! of radius `i` has diameter at most `2i`, and by Lemma 4.3 restricting to
//! centered sets at most doubles the optimal cover diameter sum. Running the
//! greedy with the radius as the weight therefore loses a factor
//! `2·(1 + ln m)` against the unrestricted optimum, which Corollary 4.1
//! turns into the `6k(1 + ln m)` anonymization guarantee.
//!
//! **Implementation note.** For a fixed center `c`, `S_{c,i}` only changes
//! at *realized* distances `i = d(c, v)`; between realized radii the
//! membership is identical but the weight is larger, so the greedy would
//! never prefer the non-realized radius. Scanning, for every center, the
//! rows in ascending distance order therefore optimizes over both candidate
//! families at once, in `O(n)` per center per round after an `O(m·n²)`
//! preprocessing step — giving the paper's `O(m·n² + n³)` total.

//!
//! **Performance note.** The preprocessing stores, per center, the rows
//! sorted by distance *and* the sorted distances themselves, in two flat
//! `n×n` tables. Distances are bounded by the column count `m`, so each
//! center's order is built by a **stable counting sort** over `m+1`
//! buckets — `O(n + m)` per center instead of `O(n log n)` comparisons,
//! and provably the same permutation as the stable `sort_by_key` it
//! replaced (ties keep ascending row id in both). The distance row is
//! filled by one [`PackedColumns`] one-to-many sweep when the active
//! kernel packs, and every center scan then reads radii from the
//! contiguous table instead of probing the triangular cache per step.
//!
//! **Lazy selection.** A naive greedy rescans every center each round —
//! `O(n²)` per selected ball. Instead, selection runs Minoux-style lazy
//! evaluation over a min-heap of per-center keys `(ratio, center,
//! prefix)`. The heap keys are *lower bounds*: a candidate ball's radius
//! and prefix are static, its `fresh` count (uncovered members) only
//! shrinks as coverage grows, so its exact ratio `radius / fresh` only
//! worsens, and candidates only ever *leave* the eligible set (`fresh`
//! hitting 0 is permanent). Popping the smallest cached key, rescanning
//! just that center, and accepting when the rescanned key is ≤ the next
//! cached key therefore selects the **identical ball sequence** the full
//! rescan would — the accepted key is ≤ every other center's lower bound,
//! hence ≤ every current key, and the full `(ratio, center, prefix)`
//! tuple makes the minimum unique. Each round costs one `O(n)` rescan
//! plus however many stale heads it pops, instead of `n` scans.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::Ratio;
use crate::cover::Cover;
use crate::dataset::Dataset;
use crate::distcache::PairwiseDistances;
use crate::error::{Error, Result};
use crate::govern::Budget;
use crate::metric::PackedColumns;
use crate::scratch;

/// Tuning knobs for the center-based greedy cover.
#[derive(Clone, Debug)]
pub struct CenterConfig {
    /// Row-count guard: the algorithm stores a triangular pairwise-distance
    /// cache plus flat per-center order and radius tables (`≈ 10n²` bytes
    /// combined); instances above the guard are rejected rather than
    /// silently exhausting memory.
    pub max_rows: usize,
    /// Whether a ball of radius 0 (exact duplicates of the center) may be
    /// selected when it already has ≥ k members. Radius-0 balls have weight
    /// 0 and are always safe; disabling them reproduces the paper's literal
    /// `i ∈ {1..m}` family (an ablation knob — see bench `ablations`).
    pub include_zero_radius: bool,
    /// OS threads for the distance-matrix build and the per-round center
    /// scan. `1` (the default) is fully sequential; any value produces the
    /// **same cover** — ties are broken by the deterministic key
    /// `(ratio, center, prefix)` regardless of scan order.
    pub threads: usize,
}

impl Default for CenterConfig {
    fn default() -> Self {
        CenterConfig {
            max_rows: 8_000,
            include_zero_radius: true,
            threads: 1,
        }
    }
}

/// Runs Phase 1 of Theorem 4.2, returning a `(k, ·)`-cover of ball-shaped
/// sets (sizes may exceed `2k−1`; `Reduce` + block splitting handle that).
///
/// `cache` is a caller-supplied triangular distance cache to reuse; with
/// `None` the cover packs the table column-major instead and only builds
/// a cache of its own when packing is unavailable (forced scalar, wide
/// alphabet, or a refused memory charge). The cache build, the per-center
/// order construction and every round's center scan poll `budget` at
/// bounded intervals; the output does not depend on the budget when it
/// suffices.
///
/// ```
/// use kanon_core::{Budget, Dataset, greedy::{center_greedy_cover, reduce, CenterConfig}};
/// let ds = Dataset::from_rows(vec![
///     vec![0, 0], vec![0, 1],   // one tight pair
///     vec![9, 9], vec![9, 8],   // another
/// ]).unwrap();
/// let cover =
///     center_greedy_cover(&ds, 2, &CenterConfig::default(), None, &Budget::unlimited()).unwrap();
/// let partition = reduce(&cover, 2).unwrap();
/// assert_eq!(partition.anonymization_cost(&ds), 4); // pairs, never cross-cluster
/// ```
///
/// # Errors
/// * [`Error::KZero`] / [`Error::KExceedsRows`] on a bad `k`;
/// * [`Error::InstanceTooLarge`] when `n` exceeds `config.max_rows`;
/// * [`Error::InvalidPartition`] if `cache` covers a different row count;
/// * [`Error::BudgetExceeded`] / [`Error::Overflow`] from `budget`.
pub fn center_greedy_cover(
    ds: &Dataset,
    k: usize,
    config: &CenterConfig,
    cache: Option<&PairwiseDistances>,
    budget: &Budget,
) -> Result<Cover> {
    ds.check_k(k)?;
    budget.check()?;
    let n = ds.n_rows();
    if n > config.max_rows {
        return Err(Error::InstanceTooLarge {
            solver: "center_greedy_cover",
            limit: format!("n = {n} exceeds max_rows = {}", config.max_rows),
        });
    }
    if let Some(cache) = cache {
        if cache.n() != n {
            return Err(Error::InvalidPartition(format!(
                "distance cache covers {} rows but the dataset has {n}",
                cache.n()
            )));
        }
    }

    // The flat order and radius tables are the dominant allocation: 2·n²
    // u32 entries plus one n-entry distance row.
    budget.try_charge_memory(
        (n as u64)
            .saturating_mul(n as u64)
            .saturating_mul(8)
            .saturating_add((n as u64).saturating_mul(4)),
    )?;

    // Column-major packed codec for the per-center distance rows: charged
    // like any planned allocation, degrading to triangular-cache probes
    // (identical distances) when refused, unsupported, or forced scalar.
    let m = ds.n_cols();
    let packed = if crate::kernel::packing_enabled()
        && budget
            .try_charge_memory(PackedColumns::storage_bytes(n, m))
            .is_ok()
    {
        PackedColumns::try_build(ds)
    } else {
        None
    };

    // Distance source when the table doesn't pack: the caller's cache, or
    // a triangular cache built (and budget-charged) here.
    let owned_dm;
    let dm = match (&packed, cache) {
        (Some(_), _) | (None, Some(_)) => cache,
        (None, None) => {
            owned_dm = PairwiseDistances::build(ds, Some(config.threads.max(1)), budget)?;
            Some(&owned_dm)
        }
    };

    // orders[c·n..][..n] = all rows sorted by distance from c (c itself
    // first); radii[c·n + p] = that sorted distance. Distances are ≤ m, so
    // a stable counting sort over m+1 buckets builds each order in O(n+m);
    // iterating rows in ascending id keeps ties in ascending id, exactly
    // the permutation the stable `sort_by_key` produced.
    let mut order_ticker = budget.ticker();
    let mut orders = scratch::take_u32(n * n);
    let mut radii = scratch::take_u32(n * n);
    let mut dist = scratch::take_u32(n);
    let mut starts = vec![0usize; m + 2];
    for c in 0..n {
        order_ticker.tick_many(n as u64)?;
        if let Some(p) = &packed {
            p.distances_one_to_many(c, &mut dist);
        } else {
            let dm = dm.expect("a distance source exists when packing is off");
            for (r, d) in dist.iter_mut().enumerate() {
                *d = dm.get(c, r);
            }
        }
        starts[..=m].fill(0);
        for &d in dist.iter() {
            starts[d as usize] += 1;
        }
        let mut sum = 0usize;
        for s in &mut starts[..=m] {
            let class = *s;
            *s = sum;
            sum += class;
        }
        let ord_row = &mut orders[c * n..(c + 1) * n];
        let rad_row = &mut radii[c * n..(c + 1) * n];
        for (r, &d) in dist.iter().enumerate() {
            let pos = starts[d as usize];
            starts[d as usize] += 1;
            ord_row[pos] = r as u32;
            rad_row[pos] = d;
        }
    }

    let mut covered = vec![false; n];
    let mut remaining = n;
    let mut chosen: Vec<Vec<u32>> = Vec::new();

    let outcome = (|| -> Result<()> {
        // Round 0: every center's exact best key, banded across threads.
        // These seed the lazy-evaluation heap; see the module doc for why
        // stale heap entries stay valid lower bounds.
        let mut keys: Vec<Option<Key>> = vec![None; n];
        scan_all_centers(&radii, n, &covered, k, config, budget, &mut keys)?;
        let mut heap: BinaryHeap<Reverse<Key>> = keys.into_iter().flatten().map(Reverse).collect();

        let mut ticker = budget.ticker();
        while remaining > 0 {
            let Some(Reverse((_, c, _))) = heap.pop() else {
                // Every remaining candidate is a zero-radius ball that was
                // excluded by configuration; fall back to including them so
                // the cover always completes.
                return Err(Error::InvalidPartition(
                    "center greedy found no eligible ball; \
                     enable include_zero_radius or check the instance"
                        .into(),
                ));
            };
            // Rescan the popped center against the current coverage.
            ticker.tick_many(n as u64)?;
            let Some(key) = best_for_center(
                &orders,
                &radii,
                n,
                &covered,
                k,
                config.include_zero_radius,
                c,
            ) else {
                continue; // center exhausted — permanently ineligible
            };
            if heap.peek().is_some_and(|&Reverse(next)| next < key) {
                // Another center's lower bound beats the fresh key; requeue.
                heap.push(Reverse(key));
                continue;
            }
            let (_, _, p) = key;
            let members: Vec<u32> = orders[c * n..][..=p].to_vec();
            for &r in &members {
                if !covered[r as usize] {
                    covered[r as usize] = true;
                    remaining -= 1;
                }
            }
            chosen.push(members);
            // The selecting center may hold further balls; its pre-selection
            // key is still a valid lower bound after the coverage update.
            heap.push(Reverse(key));
        }
        Ok(())
    })();

    // Recycle the flat tables whether the cover completed or not.
    scratch::give_u32(orders);
    scratch::give_u32(radii);
    scratch::give_u32(dist);
    outcome?;

    Cover::new(chosen, n, k)
}

/// The deterministic selection key: `(ratio, center, prefix length)`,
/// minimized lexicographically. Unique per candidate ball, so the greedy
/// minimum is unambiguous.
type Key = (Ratio, usize, usize);

/// The round-0 scan: every center's exact best key under the (empty)
/// coverage, split across `config.threads` bands when asked to; every
/// worker polls the budget. `orders`/`radii` are the flat `n×n` tables
/// (row `c` at `c·n..`).
#[allow(clippy::too_many_arguments)]
fn scan_all_centers(
    radii: &[u32],
    n: usize,
    covered: &[bool],
    k: usize,
    config: &CenterConfig,
    budget: &Budget,
    keys: &mut [Option<Key>],
) -> Result<()> {
    debug_assert!(
        covered.iter().all(|&c| !c),
        "round-0 scan expects no coverage"
    );
    let scan_band = |band_start: usize, band: &mut [Option<Key>]| -> Result<()> {
        let mut ticker = budget.ticker();
        for (i, slot) in band.iter_mut().enumerate() {
            let c = band_start + i;
            ticker.tick_many(n as u64)?;
            // Nothing is covered yet, so every prefix is all-fresh
            // (`fresh = prefix length`) and the scan reduces to walking
            // the ≤ m+1 radius classes — no per-row coverage gather.
            let rad_row = &radii[c * n..(c + 1) * n];
            let mut best: Option<Key> = None;
            let mut p = 0usize;
            while p < n {
                let radius = rad_row[p];
                let end = p + rad_row[p..].partition_point(|&d| d == radius);
                if end >= k && (radius != 0 || config.include_zero_radius) {
                    let key = (Ratio::new(u64::from(radius), end as u64), c, end - 1);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
                p = end;
            }
            *slot = best;
        }
        Ok(())
    };
    if config.threads <= 1 || n < 64 {
        return scan_band(0, keys);
    }
    let band = n.div_ceil(config.threads);
    let outcomes: Vec<Result<()>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (b, chunk) in keys.chunks_mut(band).enumerate() {
            let scan_band = &scan_band;
            handles.push(scope.spawn(move || scan_band(b * band, chunk)));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("scan thread never panics"))
            .collect()
    });
    outcomes.into_iter().collect()
}

/// One center's best ball under the current coverage. Radii come from the
/// contiguous sorted-radius table — the scan touches two streaming `u32`
/// rows and never probes the triangular cache. The caller accounts the
/// `n` steps on its ticker.
fn best_for_center(
    orders: &[u32],
    radii: &[u32],
    n: usize,
    covered: &[bool],
    k: usize,
    include_zero_radius: bool,
    c: usize,
) -> Option<Key> {
    let order = &orders[c * n..(c + 1) * n];
    let rad_row = &radii[c * n..(c + 1) * n];
    let mut fresh = 0u64;
    let mut best: Option<Key> = None;
    // Only prefixes ending at the last row of a radius class are candidate
    // balls (a prefix cut inside a class is not S_{c,radius}), so walk the
    // ≤ m+1 classes: gather the class's fresh count in one tight loop,
    // then evaluate the single candidate at the class boundary.
    let mut p = 0usize;
    while p < n {
        let radius = rad_row[p];
        let end = p + rad_row[p..].partition_point(|&d| d == radius);
        for &r in &order[p..end] {
            fresh += u64::from(!covered[r as usize]);
        }
        if end >= k && fresh > 0 && (radius != 0 || include_zero_radius) {
            let key = (Ratio::new(u64::from(radius), fresh), c, end - 1);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        p = end;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::reduce::reduce;

    fn clustered() -> Dataset {
        // Three tight clusters of three rows each; within a cluster rows
        // differ in at most 1 column, across clusters in all 4.
        Dataset::from_rows(vec![
            vec![0, 0, 0, 0],
            vec![0, 0, 0, 1],
            vec![0, 0, 0, 2],
            vec![5, 5, 5, 5],
            vec![5, 5, 5, 6],
            vec![5, 5, 5, 7],
            vec![9, 9, 9, 9],
            vec![9, 9, 9, 8],
            vec![9, 9, 9, 7],
        ])
        .unwrap()
    }

    #[test]
    fn finds_the_planted_clusters() {
        let ds = clustered();
        let cover =
            center_greedy_cover(&ds, 3, &CenterConfig::default(), None, &Budget::unlimited())
                .unwrap();
        // Each cluster is a radius-1 ball around any of its members; the
        // greedy should never pay a cross-cluster diameter.
        assert_eq!(cover.diameter_sum(&ds), 3);
        let p = reduce(&cover, 3).unwrap();
        assert_eq!(p.n_blocks(), 3);
        assert_eq!(p.anonymization_cost(&ds), 9);
    }

    #[test]
    fn zero_radius_balls_capture_duplicates() {
        let ds = Dataset::from_rows(vec![
            vec![1, 1],
            vec![1, 1],
            vec![1, 1],
            vec![7, 8],
            vec![7, 9],
            vec![7, 7],
        ])
        .unwrap();
        let cover =
            center_greedy_cover(&ds, 3, &CenterConfig::default(), None, &Budget::unlimited())
                .unwrap();
        // The duplicate triple costs 0; the other three form a radius-1 ball.
        assert_eq!(cover.diameter_sum(&ds), 1);
    }

    #[test]
    fn disabling_zero_radius_still_covers() {
        let ds = Dataset::from_rows(vec![vec![1, 1], vec![1, 1], vec![2, 1], vec![2, 2]]).unwrap();
        let config = CenterConfig {
            include_zero_radius: false,
            ..Default::default()
        };
        let cover = center_greedy_cover(&ds, 2, &config, None, &Budget::unlimited()).unwrap();
        let p = reduce(&cover, 2).unwrap();
        assert!(p.min_block_size().unwrap() >= 2);
    }

    #[test]
    fn all_identical_rows_are_free() {
        let ds = Dataset::from_fn(10, 3, |_, _| 42);
        let cover =
            center_greedy_cover(&ds, 4, &CenterConfig::default(), None, &Budget::unlimited())
                .unwrap();
        assert_eq!(cover.diameter_sum(&ds), 0);
    }

    #[test]
    fn row_guard_triggers() {
        let ds = Dataset::from_fn(20, 1, |i, _| i as u32);
        let config = CenterConfig {
            max_rows: 10,
            ..Default::default()
        };
        assert!(matches!(
            center_greedy_cover(&ds, 2, &config, None, &Budget::unlimited()),
            Err(Error::InstanceTooLarge { .. })
        ));
    }

    #[test]
    fn k_equals_n() {
        let ds = Dataset::from_rows(vec![vec![0, 0], vec![1, 1], vec![2, 2]]).unwrap();
        let cover =
            center_greedy_cover(&ds, 3, &CenterConfig::default(), None, &Budget::unlimited())
                .unwrap();
        assert_eq!(cover.n_sets(), 1);
        assert_eq!(cover.sets()[0].len(), 3);
    }

    #[test]
    fn bad_k_rejected() {
        let ds = Dataset::from_rows(vec![vec![0], vec![1]]).unwrap();
        assert!(
            center_greedy_cover(&ds, 0, &CenterConfig::default(), None, &Budget::unlimited())
                .is_err()
        );
        assert!(
            center_greedy_cover(&ds, 5, &CenterConfig::default(), None, &Budget::unlimited())
                .is_err()
        );
    }

    #[test]
    fn parallel_scan_matches_sequential() {
        let ds = Dataset::from_fn(90, 5, |i, j| ((i * 13 + j * 29) % 6) as u32);
        let seq = center_greedy_cover(&ds, 4, &CenterConfig::default(), None, &Budget::unlimited())
            .unwrap();
        for threads in [2, 3, 8] {
            let config = CenterConfig {
                threads,
                ..Default::default()
            };
            let par = center_greedy_cover(&ds, 4, &config, None, &Budget::unlimited()).unwrap();
            assert_eq!(seq, par, "threads = {threads}");
        }
    }

    #[test]
    fn governed_unlimited_matches_ungoverned() {
        let roomy = Budget::builder()
            .deadline(std::time::Duration::from_secs(3600))
            .build();
        let ds = Dataset::from_fn(70, 4, |i, j| ((i * 17 + j * 5) % 7) as u32);
        for threads in [1, 4] {
            let config = CenterConfig {
                threads,
                ..Default::default()
            };
            let plain = center_greedy_cover(&ds, 3, &config, None, &Budget::unlimited()).unwrap();
            let governed = center_greedy_cover(&ds, 3, &config, None, &roomy).unwrap();
            assert_eq!(plain, governed, "threads = {threads}");
        }
    }

    #[test]
    fn governed_budget_limits_trip() {
        let ds = Dataset::from_fn(70, 4, |i, j| ((i * 17 + j * 5) % 7) as u32);
        let config = CenterConfig::default();
        let starved = Budget::builder().max_memory_bytes(64).build();
        assert!(matches!(
            center_greedy_cover(&ds, 3, &config, None, &starved),
            Err(Error::BudgetExceeded {
                resource: crate::govern::Resource::Memory,
                ..
            })
        ));
        let cancelled = Budget::unlimited();
        cancelled.cancel();
        assert!(center_greedy_cover(&ds, 3, &config, None, &cancelled).is_err());
    }

    #[test]
    fn cover_then_reduce_is_feasible_on_awkward_instance() {
        // Rows arranged so balls overlap heavily.
        let ds = Dataset::from_rows(vec![
            vec![0, 0, 0],
            vec![0, 0, 1],
            vec![0, 1, 1],
            vec![1, 1, 1],
            vec![1, 1, 0],
            vec![1, 0, 0],
            vec![2, 2, 2],
        ])
        .unwrap();
        let cover =
            center_greedy_cover(&ds, 2, &CenterConfig::default(), None, &Budget::unlimited())
                .unwrap();
        let p = reduce(&cover, 2).unwrap();
        assert!(p.min_block_size().unwrap() >= 2);
        let total: usize = p.blocks().iter().map(Vec::len).sum();
        assert_eq!(total, 7);
    }
}
