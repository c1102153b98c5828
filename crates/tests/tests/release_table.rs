//! Differential suite for the released table.
//!
//! [`AnonymizedTable`] holds the codes plus the suppressor's star bitmap
//! and reads cells through a row view. `CellTable` below is the layout it
//! replaced — every cell materialized as a [`Cell`], rows compared and
//! hashed as `&[Cell]` slices — kept here as the oracle. On random tables
//! and suppressors both must agree on every verdict and every rendering:
//! k-anonymity, the k-groups in first-occurrence order, violations, the
//! anonymity level, the star count, `render`, and the three consumers
//! outside `kanon-core` that read a release cell by cell.

use std::collections::hash_map::{Entry, HashMap};

use kanon_core::stats::{release_stats, ReleaseStats};
use kanon_core::suppression::{AnonymizedTable, Cell};
use kanon_core::{Dataset, Suppressor};
use kanon_hypergraph::generate::planted_matching;
use kanon_reductions::EntryReduction;
use kanon_relation::Codec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The `Vec<Cell>` released table, as first written.
struct CellTable {
    n: usize,
    m: usize,
    cells: Vec<Cell>,
}

impl CellTable {
    fn new(ds: &Dataset, s: &Suppressor) -> Self {
        let mut cells = Vec::with_capacity(ds.n_rows() * ds.n_cols());
        for i in 0..ds.n_rows() {
            for j in 0..ds.n_cols() {
                cells.push(if s.is_suppressed(i, j) {
                    Cell::Star
                } else {
                    Cell::Value(ds.get(i, j))
                });
            }
        }
        CellTable {
            n: ds.n_rows(),
            m: ds.n_cols(),
            cells,
        }
    }

    fn rows(&self) -> impl Iterator<Item = &[Cell]> {
        self.cells.chunks_exact(self.m.max(1)).take(self.n)
    }

    fn group_sizes(&self) -> Vec<(usize, usize)> {
        let mut groups: HashMap<&[Cell], (usize, usize)> = HashMap::new();
        let mut order: Vec<&[Cell]> = Vec::new();
        for (i, row) in self.rows().enumerate() {
            match groups.entry(row) {
                Entry::Occupied(mut e) => e.get_mut().1 += 1,
                Entry::Vacant(e) => {
                    e.insert((i, 1));
                    order.push(row);
                }
            }
        }
        order.iter().map(|r| groups[r]).collect()
    }

    fn is_k_anonymous(&self, k: usize) -> bool {
        k != 0 && self.group_sizes().iter().all(|&(_, size)| size >= k)
    }

    fn violations(&self, k: usize) -> Vec<(usize, usize)> {
        let mut v: Vec<_> = self
            .group_sizes()
            .into_iter()
            .filter(|&(_, size)| size < k)
            .collect();
        v.sort_unstable();
        v
    }

    fn stars(&self) -> usize {
        self.cells.iter().filter(|c| **c == Cell::Star).count()
    }

    fn render(&self) -> String {
        let mut out = String::new();
        for row in self.rows() {
            let mut first = true;
            for cell in row {
                if !first {
                    out.push(' ');
                }
                first = false;
                out.push_str(&cell.to_string());
            }
            out.push('\n');
        }
        out
    }

    fn decode(&self, codec: &Codec) -> String {
        let mut out = codec.header().join(",");
        out.push('\n');
        for row in self.rows() {
            let cells: Vec<&str> = row
                .iter()
                .enumerate()
                .map(|(j, cell)| match cell {
                    Cell::Star => "*",
                    Cell::Value(code) => codec.value(j, *code).unwrap(),
                })
                .collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    fn stats(&self, k: usize) -> ReleaseStats {
        let groups = self.group_sizes();
        let cells = self.n * self.m;
        let stars = self.stars();
        ReleaseStats {
            n_rows: self.n,
            stars,
            suppression_rate: if cells == 0 {
                0.0
            } else {
                stars as f64 / cells as f64
            },
            n_groups: groups.len(),
            anonymity_level: groups.iter().map(|&(_, s)| s).min().unwrap_or(0),
            discernibility: groups.iter().map(|&(_, s)| (s * s) as u64).sum(),
            normalized_avg_group: if groups.is_empty() || k == 0 {
                0.0
            } else {
                (self.n as f64 / groups.len() as f64) / k as f64
            },
        }
    }

    /// `EntryReduction::extract_matching` on the cell layout: each row
    /// must keep exactly one coordinate, a zero; its column is an edge.
    fn extract_matching(&self) -> Result<Vec<usize>, String> {
        let mut edges = Vec::new();
        for (i, row) in self.rows().enumerate() {
            let kept: Vec<(usize, Cell)> = row
                .iter()
                .copied()
                .enumerate()
                .filter(|(_, c)| *c != Cell::Star)
                .collect();
            match kept.as_slice() {
                [(j, Cell::Value(0))] => edges.push(*j),
                [_] => {
                    return Err(format!(
                        "row {i} keeps a non-zero coordinate; no identical partners exist"
                    ))
                }
                _ => {
                    return Err(format!(
                        "row {i} keeps {} coordinates; a threshold solution keeps exactly 1",
                        kept.len()
                    ))
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        Ok(edges)
    }
}

/// A random `n × m` table over `0..alphabet` with each cell starred with
/// probability `density`; duplicate rows are common at small alphabets,
/// so groups of every size appear.
fn random_release(
    rng: &mut StdRng,
    n: usize,
    m: usize,
    alphabet: u32,
    density: f64,
) -> (Dataset, Suppressor) {
    let ds = Dataset::from_fn(n, m, |_, _| rng.gen_range(0..alphabet));
    let mut s = Suppressor::identity(n, m);
    for i in 0..n {
        for j in 0..m {
            if rng.gen_bool(density) {
                s.suppress(i, j);
            }
        }
    }
    (ds, s)
}

fn codec_for(m: usize, alphabet: u32) -> Codec {
    let header = (0..m).map(|j| format!("c{j}")).collect();
    let columns = (0..m)
        .map(|j| (0..alphabet).map(|v| format!("c{j}v{v}")).collect())
        .collect();
    Codec::from_parts(header, columns).unwrap()
}

fn assert_same(table: &AnonymizedTable, oracle: &CellTable) {
    assert_eq!(table.n_rows(), oracle.n);
    assert_eq!(table.n_cols(), oracle.m);
    assert_eq!(table.group_sizes(), oracle.group_sizes());
    for k in [0, 1, 2, 5] {
        assert_eq!(table.is_k_anonymous(k), oracle.is_k_anonymous(k), "k = {k}");
        assert_eq!(table.violations(k), oracle.violations(k), "k = {k}");
        assert_eq!(release_stats(table, k), oracle.stats(k), "k = {k}");
    }
    assert_eq!(
        table.anonymity_level(),
        oracle.group_sizes().iter().map(|&(_, s)| s).min()
    );
    assert_eq!(table.suppressed_cells(), oracle.stars());
    assert_eq!(table.render(), oracle.render());
    for (row, want) in table.rows().zip(oracle.rows()) {
        assert_eq!(row.iter().collect::<Vec<_>>(), want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every verdict and rendering of the bitmap-backed table matches the
    /// `Vec<Cell>` oracle, from sparse to fully starred releases.
    #[test]
    fn the_bitmap_table_matches_the_cell_table(
        seed in 0u64..u64::MAX,
        n in 0usize..40,
        m in 1usize..70,
        alphabet in 1u32..4,
        density_pct in 0u32..=100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (ds, s) = random_release(&mut rng, n, m, alphabet, f64::from(density_pct) / 100.0);
        let table = s.apply(&ds).unwrap();
        let oracle = CellTable::new(&ds, &s);
        assert_same(&table, &oracle);
        let codec = codec_for(m, alphabet);
        prop_assert_eq!(codec.decode(&table).unwrap(), oracle.decode(&codec));
    }

    /// `extract_matching` reads the release the same way through the row
    /// view: the proof's own suppressor yields the planted matching, and a
    /// perturbed one fails with the same row named.
    #[test]
    fn extract_matching_agrees_with_the_cell_table(
        seed in 0u64..u64::MAX,
        flips in 0usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (h, matching) = planted_matching(&mut rng, 9, 3, 4).unwrap();
        let red = EntryReduction::new(&h, 3).unwrap();
        let ds = red.dataset();
        let mut s = red.suppressor_from_matching(&h, &matching).unwrap();
        for _ in 0..flips {
            let (i, j) = (rng.gen_range(0..ds.n_rows()), rng.gen_range(0..ds.n_cols()));
            s.suppress(i, j);
        }
        let table = s.apply(ds).unwrap();
        let oracle = CellTable::new(ds, &s);
        assert_same(&table, &oracle);
        match (red.extract_matching(&table), oracle.extract_matching()) {
            (Ok(got), Ok(want)) => prop_assert_eq!(got, want),
            (Err(got), Err(want)) => {
                prop_assert!(got.to_string().contains(&want), "{got} vs {want}");
            }
            (got, want) => prop_assert!(false, "{got:?} vs {want:?}"),
        }
    }
}

#[test]
fn zero_width_release_counts_its_rows() {
    // An `n × 0` release is n identical empty records: one group of n.
    let ds = Dataset::from_flat(3, 0, Vec::new()).unwrap();
    let table = Suppressor::identity(3, 0).apply(&ds).unwrap();
    assert_eq!(table.group_sizes(), vec![(0, 3)]);
    assert!(table.is_k_anonymous(3));
    assert!(!table.is_k_anonymous(4));
    assert_eq!(table.render(), "\n\n\n");
}
