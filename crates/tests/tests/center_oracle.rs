//! Differential suite: the center greedy against its `n×n`-table form.
//!
//! `center_greedy_cover` keys every center from a histogram of its
//! distance row and refills one distance row per lazy rescan. The oracle
//! below is the earlier formulation of the same Theorem 4.2 greedy: it
//! materializes, per center, every row sorted by `(distance, id)` and the
//! sorted distances in two flat `n×n` tables, then runs the same lazy
//! heap over prefix scans of those tables. Both must select the same
//! balls in the same order with the same member order, so the suite
//! compares whole [`Cover`]s, not costs:
//!
//! * `include_zero_radius` on and off;
//! * 1 to 4 round-0 threads, on tables large enough to band;
//! * duplicate-heavy tables (rows drawn from a small pool);
//! * the caller-cache path and the scalar-Hamming path, forced on every
//!   kernel by codes too wide to pack.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use kanon_core::distcache::PairwiseDistances;
use kanon_core::greedy::{center_greedy_cover, CenterConfig};
use kanon_core::metric::row_distance;
use kanon_core::{Budget, Cover, Dataset};
use proptest::prelude::*;

/// `num / den`, compared exactly by cross-multiplication.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Ratio(u64, u64);

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> Ordering {
        (u128::from(self.0) * u128::from(other.1)).cmp(&(u128::from(other.0) * u128::from(self.1)))
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

type Key = (Ratio, usize, usize);

/// One center's best ball from its rows of the sorted tables.
fn table_key(
    order: &[u32],
    radii: &[u32],
    covered: &[bool],
    k: usize,
    include_zero_radius: bool,
    c: usize,
) -> Option<Key> {
    let mut fresh = 0u64;
    let mut best: Option<Key> = None;
    let mut p = 0;
    while p < order.len() {
        let radius = radii[p];
        let end = p + radii[p..].partition_point(|&d| d == radius);
        fresh += order[p..end]
            .iter()
            .filter(|&&r| !covered[r as usize])
            .count() as u64;
        if end >= k && fresh > 0 && (radius != 0 || include_zero_radius) {
            let key = (Ratio(u64::from(radius), fresh), c, end - 1);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        p = end;
    }
    best
}

/// The `n×n`-table center greedy. `None` when no eligible ball is left
/// before every row is covered.
fn table_cover(ds: &Dataset, k: usize, include_zero_radius: bool) -> Option<Cover> {
    let n = ds.n_rows();
    let mut orders = vec![0u32; n * n];
    let mut radii = vec![0u32; n * n];
    for c in 0..n {
        let mut rows: Vec<(u32, u32)> = (0..n)
            .map(|r| (row_distance(ds, c, r) as u32, r as u32))
            .collect();
        rows.sort_unstable();
        for (p, (d, r)) in rows.into_iter().enumerate() {
            orders[c * n + p] = r;
            radii[c * n + p] = d;
        }
    }
    let row = |c: usize| c * n..(c + 1) * n;

    let mut covered = vec![false; n];
    let mut heap: BinaryHeap<Reverse<Key>> = (0..n)
        .filter_map(|c| {
            table_key(
                &orders[row(c)],
                &radii[row(c)],
                &covered,
                k,
                include_zero_radius,
                c,
            )
        })
        .map(Reverse)
        .collect();
    let mut remaining = n;
    let mut chosen = Vec::new();
    while remaining > 0 {
        let Reverse((_, c, _)) = heap.pop()?;
        let Some(key) = table_key(
            &orders[row(c)],
            &radii[row(c)],
            &covered,
            k,
            include_zero_radius,
            c,
        ) else {
            continue;
        };
        if heap.peek().is_some_and(|&Reverse(next)| next < key) {
            heap.push(Reverse(key));
            continue;
        }
        let members = orders[row(c)][..=key.2].to_vec();
        for &r in &members {
            if !covered[r as usize] {
                covered[r as usize] = true;
                remaining -= 1;
            }
        }
        chosen.push(members);
        heap.push(Reverse(key));
    }
    Some(Cover::new(chosen, n, k).unwrap())
}

/// Rows drawn from a pool of `pool` distinct base rows, so duplicates and
/// zero-radius balls are common; `wide` lifts every code past the packed
/// kernels' 16-bit lanes.
fn pooled_dataset(
    flat: &[u32],
    picks: &[usize],
    n: usize,
    m: usize,
    pool: usize,
    wide: bool,
) -> Dataset {
    let lift = if wide { 70_000 } else { 0 };
    Dataset::from_fn(n, m, |i, j| {
        let base = picks[i] % pool;
        flat[base * m + j] % (2 + (j as u32 % 3)) + lift
    })
}

fn greedy(
    ds: &Dataset,
    k: usize,
    config: &CenterConfig,
    cache: Option<&PairwiseDistances>,
) -> Option<Cover> {
    center_greedy_cover(ds, k, config, cache, &Budget::unlimited()).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn histogram_cover_equals_table_cover(
        flat in proptest::collection::vec(0u32..8, 96 * 6),
        picks in proptest::collection::vec(0usize..96, 96),
        n in 4usize..97,
        m in 1usize..7,
        pool in 1usize..97,
        k in 2usize..6,
        include_zero_radius in proptest::bool::ANY,
        wide in proptest::bool::ANY,
    ) {
        let ds = pooled_dataset(&flat, &picks, n, m, pool, wide);
        let k = k.min(n);
        let oracle = table_cover(&ds, k, include_zero_radius);
        let cache = PairwiseDistances::build(&ds, Some(1), &Budget::unlimited()).unwrap();
        for threads in 1..=4 {
            let config = CenterConfig { include_zero_radius, threads, ..Default::default() };
            prop_assert_eq!(&greedy(&ds, k, &config, None), &oracle, "threads = {}", threads);
            prop_assert_eq!(
                &greedy(&ds, k, &config, Some(&cache)),
                &oracle,
                "threads = {} with a cache",
                threads
            );
        }
    }
}

/// The banded round-0 scan only engages from 64 rows up; pin a table well
/// past that, with duplicates, at every thread count.
#[test]
fn banded_round_zero_matches_the_oracle() {
    let ds = Dataset::from_fn(300, 5, |i, j| ((i / 3 * 7 + j * 11) % 5) as u32);
    for include_zero_radius in [true, false] {
        let oracle = table_cover(&ds, 4, include_zero_radius);
        assert!(oracle.is_some());
        for threads in 1..=4 {
            let config = CenterConfig {
                include_zero_radius,
                threads,
                ..Default::default()
            };
            assert_eq!(greedy(&ds, 4, &config, None), oracle, "threads = {threads}");
        }
    }
}
