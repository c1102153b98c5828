//! Theorem 3.1: perfect matching ≤ₚ optimal k-anonymity (entry suppression).
//!
//! Given a simple k-uniform hypergraph `H = (U, E)` with `n = |U|` vertices
//! and `m = |E|` edges, build one record per vertex over the alphabet
//! `Σ = {0, 1, …, n}`:
//!
//! ```text
//! v_i[j] = 0        if u_i ∈ e_j
//! v_i[j] = i + 1    otherwise
//! ```
//!
//! Two records can only agree in a coordinate where both are 0, i.e. on a
//! shared edge — the non-incidence fillers are pairwise distinct by row
//! (this is where the large alphabet is spent; the transcription's
//! "1 otherwise" cannot be literal, since the proof immediately asserts
//! "any two v_i vectors can match only in coordinates that are 0").
//!
//! **Decision equivalence** (for the hypergraph's uniformity `k ≥ 3`):
//! `H` has a perfect matching **iff** `OPT(V) ≤ n·(m−1)` — iff every record
//! can keep exactly one coordinate, namely the 0 of its matching edge.

use kanon_core::error::{Error as CoreError, Result as CoreResult};
use kanon_core::suppression::AnonymizedTable;
use kanon_core::suppression::Cell;
use kanon_core::{Dataset, Partition, Suppressor};
use kanon_hypergraph::Hypergraph;

/// The Theorem 3.1 instance produced from a hypergraph.
///
/// ```
/// use kanon_hypergraph::Hypergraph;
/// use kanon_reductions::EntryReduction;
/// let h = Hypergraph::new(6, vec![vec![0, 1, 2], vec![3, 4, 5], vec![1, 2, 3]]).unwrap();
/// let red = EntryReduction::new(&h, 3).unwrap();
/// assert_eq!(red.dataset().n_rows(), 6);      // one record per vertex
/// assert_eq!(red.dataset().n_cols(), 3);      // one attribute per edge
/// assert_eq!(red.threshold(), 6 * (3 - 1));   // OPT <= n(m-1) iff PM exists
/// ```
#[derive(Clone, Debug)]
pub struct EntryReduction {
    dataset: Dataset,
    k: usize,
    n: usize,
    m: usize,
}

impl EntryReduction {
    /// Builds the reduction from a simple `k`-uniform hypergraph.
    ///
    /// # Errors
    /// Propagates uniformity/simplicity violations (as
    /// [`CoreError::InvalidPartition`] wrapping the message) and rejects
    /// `k < 3` (`k = 2` perfect matching is polynomial, and the theorem's
    /// equivalence argument needs `k ≥ 3`) and edgeless/vertexless inputs.
    pub fn new(h: &Hypergraph, k: usize) -> CoreResult<Self> {
        if k < 3 {
            return Err(CoreError::InvalidPartition(format!(
                "Theorem 3.1 requires k >= 3, got {k}"
            )));
        }
        h.check_uniform(k)
            .and_then(|()| h.check_simple())
            .map_err(|e| CoreError::InvalidPartition(e.to_string()))?;
        let n = h.n_vertices();
        let m = h.n_edges();
        if n == 0 || m == 0 {
            return Err(CoreError::EmptyDataset);
        }
        let dataset = Dataset::from_fn(n, m, |i, j| {
            if h.incident(i as u32, j) {
                0
            } else {
                (i + 1) as u32
            }
        });
        Ok(EntryReduction { dataset, k, n, m })
    }

    /// The produced k-anonymity instance.
    #[must_use]
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The privacy parameter (the hypergraph's uniformity).
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The decision threshold `ℓ = n·(m−1)`: `OPT ≤ ℓ` iff `H` has a
    /// perfect matching.
    #[must_use]
    pub fn threshold(&self) -> usize {
        self.n * (self.m - 1)
    }

    /// Forward direction of the proof: a perfect matching (edge indices)
    /// yields a partition whose rounding costs exactly `n·(m−1)` stars.
    ///
    /// # Errors
    /// [`CoreError::InvalidPartition`] if `matching` is not a perfect
    /// matching of the source hypergraph.
    pub fn partition_from_matching(
        &self,
        h: &Hypergraph,
        matching: &[usize],
    ) -> CoreResult<Partition> {
        if !h.is_perfect_matching(matching) {
            return Err(CoreError::InvalidPartition(
                "provided edge set is not a perfect matching".into(),
            ));
        }
        let blocks: Vec<Vec<u32>> = matching.iter().map(|&e| h.edge(e).to_vec()).collect();
        Partition::new(blocks, self.n, self.k)
    }

    /// The suppressor the proof constructs from a matching: each record
    /// keeps only the coordinate of its matching edge.
    ///
    /// # Errors
    /// Same as [`Self::partition_from_matching`].
    pub fn suppressor_from_matching(
        &self,
        h: &Hypergraph,
        matching: &[usize],
    ) -> CoreResult<Suppressor> {
        if !h.is_perfect_matching(matching) {
            return Err(CoreError::InvalidPartition(
                "provided edge set is not a perfect matching".into(),
            ));
        }
        let mut s = Suppressor::identity(self.n, self.m);
        for &e in matching {
            for &v in h.edge(e) {
                for j in 0..self.m {
                    if j != e {
                        s.suppress(v as usize, j);
                    }
                }
            }
        }
        Ok(s)
    }

    /// Converse direction of the proof: from a k-anonymous released table
    /// with at most `n·(m−1)` stars, extract a perfect matching. Each row
    /// must expose exactly one surviving coordinate, which must be a 0; its
    /// column is the row's matching edge.
    ///
    /// # Errors
    /// [`CoreError::InvalidPartition`] if the table does not have the shape
    /// the proof guarantees (e.g. its cost exceeds the threshold).
    pub fn extract_matching(&self, table: &AnonymizedTable) -> CoreResult<Vec<usize>> {
        if table.n_rows() != self.n || table.n_cols() != self.m {
            return Err(CoreError::InvalidPartition(format!(
                "table shaped {}x{} does not match reduction instance {}x{}",
                table.n_rows(),
                table.n_cols(),
                self.n,
                self.m
            )));
        }
        let mut edges = Vec::with_capacity(self.n / self.k);
        for i in 0..self.n {
            let survivors: Vec<(usize, Cell)> = table
                .row(i)
                .iter()
                .enumerate()
                .filter(|(_, c)| !matches!(c, Cell::Star))
                .collect();
            let [(j, cell)] = survivors.as_slice() else {
                return Err(CoreError::InvalidPartition(format!(
                    "row {i} keeps {} coordinates; a threshold solution keeps exactly 1",
                    survivors.len()
                )));
            };
            if *cell != Cell::Value(0) {
                return Err(CoreError::InvalidPartition(format!(
                    "row {i} keeps a non-zero coordinate; no identical partners exist"
                )));
            }
            edges.push(*j);
        }
        edges.sort_unstable();
        edges.dedup();
        Ok(edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kanon_core::exact;
    use kanon_core::rounding::suppressor_for_partition;
    use kanon_hypergraph::generate::{certified_no_matching, planted_matching};
    use kanon_hypergraph::matching::{find_perfect_matching, MatchingConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_triangles() -> Hypergraph {
        Hypergraph::new(6, vec![vec![0, 1, 2], vec![3, 4, 5], vec![1, 2, 3]]).unwrap()
    }

    #[test]
    fn construction_matches_paper() {
        let h = two_triangles();
        let red = EntryReduction::new(&h, 3).unwrap();
        let ds = red.dataset();
        assert_eq!(ds.n_rows(), 6);
        assert_eq!(ds.n_cols(), 3);
        // Vertex 0 is on edge 0 only.
        assert_eq!(ds.row(0), &[0, 1, 1]);
        // Vertex 3 is on edges 1 and 2.
        assert_eq!(ds.row(3), &[4, 0, 0]);
        assert_eq!(red.threshold(), 6 * 2);
    }

    #[test]
    fn rejects_small_k_and_nonuniform() {
        let h = two_triangles();
        assert!(EntryReduction::new(&h, 2).is_err());
        let bad = Hypergraph::new(4, vec![vec![0, 1], vec![1, 2, 3]]).unwrap();
        assert!(EntryReduction::new(&bad, 3).is_err());
        let dup = Hypergraph::new(3, vec![vec![0, 1, 2], vec![2, 1, 0]]).unwrap();
        assert!(EntryReduction::new(&dup, 3).is_err());
    }

    #[test]
    fn forward_direction_costs_threshold() {
        let h = two_triangles();
        let red = EntryReduction::new(&h, 3).unwrap();
        let matching = vec![0, 1];
        let s = red.suppressor_from_matching(&h, &matching).unwrap();
        assert_eq!(s.cost(), red.threshold());
        let table = s.apply(red.dataset()).unwrap();
        assert!(table.is_k_anonymous(3));
        // The partition route costs the same.
        let p = red.partition_from_matching(&h, &matching).unwrap();
        assert_eq!(p.anonymization_cost(red.dataset()), red.threshold());
    }

    #[test]
    fn forward_rejects_non_matching() {
        let h = two_triangles();
        let red = EntryReduction::new(&h, 3).unwrap();
        assert!(red.suppressor_from_matching(&h, &[0, 2]).is_err());
        assert!(red.partition_from_matching(&h, &[0]).is_err());
    }

    #[test]
    fn converse_direction_extracts_matching() {
        let h = two_triangles();
        let red = EntryReduction::new(&h, 3).unwrap();
        let s = red.suppressor_from_matching(&h, &[0, 1]).unwrap();
        let table = s.apply(red.dataset()).unwrap();
        let extracted = red.extract_matching(&table).unwrap();
        assert!(h.is_perfect_matching(&extracted));
        assert_eq!(extracted, vec![0, 1]);
    }

    #[test]
    fn extract_rejects_wrong_shapes() {
        let h = two_triangles();
        let red = EntryReduction::new(&h, 3).unwrap();
        // Identity suppressor: every row keeps 3 coordinates.
        let table = Suppressor::identity(6, 3).apply(red.dataset()).unwrap();
        assert!(red.extract_matching(&table).is_err());
    }

    /// End-to-end both directions on generated instances, with the exact
    /// solver in the middle — the executable statement of Theorem 3.1.
    #[test]
    fn decision_equivalence_yes_instances() {
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (h, _) = planted_matching(&mut rng, 9, 3, 3).unwrap();
            let red = EntryReduction::new(&h, 3).unwrap();
            let opt = exact::optimal(red.dataset(), 3).unwrap();
            assert!(
                opt.cost <= red.threshold(),
                "seed {seed}: planted matching but OPT = {} > threshold {}",
                opt.cost,
                red.threshold()
            );
            // And the optimal anonymization yields a matching back.
            let s = suppressor_for_partition(red.dataset(), &opt.partition).unwrap();
            let table = s.apply(red.dataset()).unwrap();
            let extracted = red.extract_matching(&table).unwrap();
            assert!(h.is_perfect_matching(&extracted), "seed {seed}");
        }
    }

    #[test]
    fn decision_equivalence_no_instances() {
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let h = certified_no_matching(&mut rng, 9, 3, 1, 500).unwrap();
            let red = EntryReduction::new(&h, 3).unwrap();
            let opt = exact::optimal(red.dataset(), 3).unwrap();
            assert!(
                opt.cost > red.threshold(),
                "seed {seed}: no matching but OPT = {} <= threshold {}",
                opt.cost,
                red.threshold()
            );
        }
    }

    #[test]
    fn solver_matching_survives_roundtrip() {
        let mut rng = StdRng::seed_from_u64(77);
        let (h, _) = planted_matching(&mut rng, 12, 3, 6).unwrap();
        let red = EntryReduction::new(&h, 3).unwrap();
        let m = find_perfect_matching(&h, &MatchingConfig::default())
            .unwrap()
            .unwrap();
        let s = red.suppressor_from_matching(&h, &m).unwrap();
        let table = s.apply(red.dataset()).unwrap();
        let back = red.extract_matching(&table).unwrap();
        let mut m_sorted = m;
        m_sorted.sort_unstable();
        assert_eq!(back, m_sorted);
    }
}
