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
//! never prefer the non-realized radius. Distances are at most `m`, so a
//! histogram of `c`'s distance row over the `≤ m+1` radius classes, counting
//! each class's rows and still-uncovered rows, prices every candidate of
//! both families in one `O(n)` pass. The chosen ball is the rows at distance
//! `≤ radius`, in `(distance, row id)` order. Scratch is one distance row
//! and its histogram per thread — nothing of size `n²` is stored. Rows come
//! from a [`PackedColumns`] one-to-many sweep when the active kernel packs,
//! else from the caller's cache, else from scalar [`hamming`]; all three
//! are exact, so the source never changes the cover.
//!
//! **Lazy selection.** A naive greedy rescans every center each round —
//! `O(n²)` per selected ball. Instead, selection runs Minoux-style lazy
//! evaluation over a min-heap of per-center keys `(ratio, center,
//! prefix)`. The heap keys are *lower bounds*: a candidate ball's radius
//! and size are static, its `fresh` count (uncovered members) only
//! shrinks as coverage grows, so its exact ratio `radius / fresh` only
//! worsens, and candidates only ever *leave* the eligible set (`fresh`
//! hitting 0 is permanent). Popping the smallest cached key, rescanning
//! just that center, and accepting when the rescanned key is ≤ the next
//! cached key therefore selects the **identical ball sequence** the full
//! rescan would — the accepted key is ≤ every other center's lower bound,
//! hence ≤ every current key, and the full `(ratio, center, prefix)`
//! tuple makes the minimum unique. Each round rescans only the heads it
//! pops, instead of all `n` centers.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::Ratio;
use crate::cover::Cover;
use crate::dataset::Dataset;
use crate::distcache::PairwiseDistances;
use crate::error::{Error, Result};
use crate::govern::Budget;
use crate::metric::{hamming, PackedColumns};

/// Tuning knobs for the center-based greedy cover.
#[derive(Clone, Debug)]
pub struct CenterConfig {
    /// Row-count guard. Memory is `O(n + m)` per thread, but round 0 alone
    /// computes `n` distance rows, so instances above the guard are
    /// rejected rather than left running for minutes.
    pub max_rows: usize,
    /// Whether a ball of radius 0 (exact duplicates of the center) may be
    /// selected when it already has ≥ k members. Radius-0 balls have weight
    /// 0 and are always safe; disabling them reproduces the paper's literal
    /// `i ∈ {1..m}` family (an ablation knob — see bench `ablations`).
    pub include_zero_radius: bool,
    /// OS threads for the round-0 scan of every center. `1` (the default)
    /// is fully sequential; any value produces the **same cover** — ties
    /// are broken by the deterministic key `(ratio, center, prefix)`
    /// regardless of scan order.
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
/// `cache` is a caller-supplied triangular distance cache, read when the
/// table does not pack (forced scalar, wide alphabet, or a refused memory
/// charge); without one those rows come from scalar Hamming distances. The
/// round-0 scan and every rescan poll `budget` at bounded intervals; the
/// output does not depend on the budget when it suffices.
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

    // The whole scratch: a coverage flag per row, and per scanning thread
    // one distance row plus its histograms.
    let m = ds.n_cols();
    let threads = if n < 64 {
        1
    } else {
        config.threads.clamp(1, n)
    };
    let per_thread = 4 * n as u64 + 8 * (LANES * (m + 1)) as u64;
    budget.try_charge_memory(per_thread * threads as u64 + n as u64)?;

    // Column-major packed codec for the distance rows: charged like any
    // planned allocation, degrading to the cache or scalar Hamming
    // (identical distances) when refused, unsupported, or forced scalar.
    let packed = if crate::kernel::packing_enabled()
        && budget
            .try_charge_memory(PackedColumns::storage_bytes(n, m))
            .is_ok()
    {
        PackedColumns::try_build(ds)
    } else {
        None
    };
    let fill = |c: usize, dist: &mut [u32]| match (&packed, cache) {
        (Some(p), _) => p.distances_one_to_many(c, dist),
        (None, Some(dm)) => dist
            .iter_mut()
            .enumerate()
            .for_each(|(r, d)| *d = dm.get(c, r)),
        (None, None) => {
            let center = ds.row(c);
            for (r, d) in dist.iter_mut().enumerate() {
                *d = hamming(center, ds.row(r)) as u32;
            }
        }
    };

    // Round 0: every center's exact best key under empty coverage, banded
    // across threads. These seed the lazy-evaluation heap; see the module
    // doc for why stale heap entries stay valid lower bounds.
    let mut covered = vec![false; n];
    let mut keys: Vec<Option<Key>> = vec![None; n];
    let scan_band = |first: usize, band: &mut [Option<Key>]| -> Result<()> {
        let (mut scan, mut ticker) = (Scan::new(n, m), budget.ticker());
        for (c, slot) in (first..).zip(band) {
            ticker.tick_many(n as u64)?;
            *slot = scan.best(&fill, &covered, k, config.include_zero_radius, c);
        }
        Ok(())
    };
    let band = n.div_ceil(threads);
    let (own, rest) = keys.split_at_mut(band);
    std::thread::scope(|scope| {
        let scan_band = &scan_band;
        let handles: Vec<_> = rest
            .chunks_mut(band)
            .enumerate()
            .map(|(b, chunk)| scope.spawn(move || scan_band((b + 1) * band, chunk)))
            .collect();
        let own = scan_band(0, own);
        handles
            .into_iter()
            .map(|h| h.join().expect("scan thread never panics"))
            .fold(own, Result::and)
    })?;
    let mut heap: BinaryHeap<Reverse<Key>> = keys.into_iter().flatten().map(Reverse).collect();

    let (mut scan, mut ticker) = (Scan::new(n, m), budget.ticker());
    let mut remaining = n;
    let mut chosen: Vec<Vec<u32>> = Vec::new();
    while remaining > 0 {
        let Some(Reverse((_, c, _))) = heap.pop() else {
            // Every remaining candidate is a zero-radius ball that was
            // excluded by configuration.
            return Err(Error::InvalidPartition(
                "center greedy found no eligible ball; \
                 enable include_zero_radius or check the instance"
                    .into(),
            ));
        };
        // Rescan the popped center against the current coverage.
        ticker.tick_many(n as u64)?;
        let Some(key) = scan.best(&fill, &covered, k, config.include_zero_radius, c) else {
            continue; // center exhausted — permanently ineligible
        };
        if heap.peek().is_some_and(|&Reverse(next)| next < key) {
            // Another center's lower bound beats the fresh key; requeue.
            heap.push(Reverse(key));
            continue;
        }
        let members = scan.members(key.2 + 1);
        for &r in &members {
            remaining -= usize::from(!covered[r as usize]);
            covered[r as usize] = true;
        }
        chosen.push(members);
        // The selecting center may hold further balls; its pre-selection
        // key is still a valid lower bound after the coverage update.
        heap.push(Reverse(key));
    }

    Cover::new(chosen, n, k)
}

/// The deterministic selection key: `(ratio, center, prefix)`, minimized
/// lexicographically, where `prefix` is the ball's size minus one. Unique
/// per candidate ball, so the greedy minimum is unambiguous.
type Key = (Ratio, usize, usize);

/// Interleaved histogram copies: consecutive rows count into different
/// copies, so runs of equal distances do not serialize on one counter.
const LANES: usize = 4;

/// One thread's scan scratch: the last scanned center's distance row and
/// its class histogram. An entry packs two counts, rows in the low 32 bits
/// and uncovered rows in the high 32 (`n < 2³²`, so neither overflows).
struct Scan {
    dist: Vec<u32>,
    hist: Vec<u64>,
}

impl Scan {
    fn new(n: usize, m: usize) -> Self {
        Scan {
            dist: vec![0; n],
            hist: vec![0; LANES * (m + 1)],
        }
    }

    /// Center `c`'s best ball under the current coverage: one candidate
    /// per realized radius class (a prefix cut inside a class is not
    /// `S_{c,radius}`). The caller accounts the `n` steps on its ticker.
    fn best(
        &mut self,
        fill: &impl Fn(usize, &mut [u32]),
        covered: &[bool],
        k: usize,
        include_zero_radius: bool,
        c: usize,
    ) -> Option<Key> {
        fill(c, &mut self.dist);
        let classes = self.hist.len() / LANES;
        self.hist.fill(0);
        for (r, (&d, &done)) in self.dist.iter().zip(covered).enumerate() {
            self.hist[r % LANES * classes + d as usize] += 1 | (u64::from(!done) << 32);
        }
        let (mut size, mut fresh, mut best) = (0, 0, None);
        for radius in 0..classes {
            let both: u64 = (0..LANES).map(|l| self.hist[l * classes + radius]).sum();
            self.hist[radius] = both; // lane 0 keeps the merged class counts
            size += both & u64::from(u32::MAX);
            fresh += both >> 32;
            if both != 0 && size >= k as u64 && fresh > 0 && (radius != 0 || include_zero_radius) {
                let key = (Ratio::new(radius as u64, fresh), c, size as usize - 1);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        best
    }

    /// The first `size` rows of the last scanned center in `(distance, id)`
    /// order — a ball [`Scan::best`] returned, which ends on a class
    /// boundary — by a stable counting sort over the classes it spans.
    fn members(&self, size: usize) -> Vec<u32> {
        let (mut starts, mut end) = (Vec::new(), 0);
        for &both in &self.hist {
            if end == size {
                break;
            }
            starts.push(end);
            end += (both & u64::from(u32::MAX)) as usize;
        }
        let mut members = vec![0u32; size];
        for (r, &d) in self.dist.iter().enumerate() {
            if let Some(at) = starts.get_mut(d as usize) {
                members[*at] = r as u32;
                *at += 1;
            }
        }
        members
    }
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
