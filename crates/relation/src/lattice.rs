//! Full-domain generalization: the lattice of per-attribute levels.
//!
//! A lattice node assigns every attribute a generalization level; applying
//! it maps the whole column through its [`Hierarchy`] (this is *full-domain*
//! generalization, as in the original Samarati–Sweeney proposals the paper
//! builds on). Because each hierarchy is a coarsening chain, k-anonymity is
//! **monotone**: raising any level can only merge groups, never split them.
//! The minimality search exploits this by scanning level-sum strata bottom
//! up — the first k-anonymous node met has minimum total generalization.

use crate::error::{Error, Result};
use crate::hierarchy::Hierarchy;
use crate::table::Table;

use kanon_core::govern::{Budget, PollTicker};

use std::collections::HashMap;

/// Budget instrumentation threaded through the lattice search: one
/// candidate charge per node evaluated, one amortized poll per generalized
/// row. Against [`Budget::unlimited`] its checks are branch-cheap.
struct Governor<'a> {
    budget: &'a Budget,
    ticker: PollTicker<'a>,
    nodes_evaluated: u64,
}

impl<'a> Governor<'a> {
    fn new(budget: &'a Budget) -> Self {
        Governor {
            budget,
            ticker: budget.ticker(),
            nodes_evaluated: 0,
        }
    }

    /// Charges one lattice node against the candidate cap and performs a
    /// real deadline/cancellation check — a node costs a full pass over the
    /// table, so an unamortized check here is cheap relative to the work it
    /// gates and guarantees cancellation is observed between nodes even on
    /// tiny tables.
    fn node(&mut self) -> Result<()> {
        self.nodes_evaluated += 1;
        self.budget.check_candidates(self.nodes_evaluated)?;
        self.budget.check()?;
        Ok(())
    }

    /// Accounts one generalized row (deadline/cancellation poll).
    fn row(&mut self) -> Result<()> {
        self.ticker.tick()?;
        Ok(())
    }
}

/// A choice of generalization level per attribute.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatticeNode {
    /// `levels[j]` ∈ `0..=hierarchies[j].height()`.
    pub levels: Vec<usize>,
}

/// A table paired with one hierarchy per attribute.
#[derive(Clone, Debug)]
pub struct GeneralizationLattice<'a> {
    table: &'a Table,
    hierarchies: Vec<Hierarchy>,
}

impl<'a> GeneralizationLattice<'a> {
    /// Binds hierarchies to a table.
    ///
    /// # Errors
    /// [`Error::Hierarchy`] if the count does not match the arity or any
    /// hierarchy is internally inconsistent.
    pub fn new(table: &'a Table, hierarchies: Vec<Hierarchy>) -> Result<Self> {
        if hierarchies.len() != table.arity() {
            return Err(Error::Hierarchy(format!(
                "{} hierarchies for {} attributes",
                hierarchies.len(),
                table.arity()
            )));
        }
        for h in &hierarchies {
            h.validate()?;
        }
        Ok(GeneralizationLattice { table, hierarchies })
    }

    /// The per-attribute heights (the lattice's top node).
    #[must_use]
    pub fn heights(&self) -> Vec<usize> {
        self.hierarchies.iter().map(Hierarchy::height).collect()
    }

    /// Applies a node, producing the generalized table.
    ///
    /// # Errors
    /// [`Error::Hierarchy`] on an out-of-range level or a value missing
    /// from an explicit taxonomy.
    pub fn generalize(&self, node: &LatticeNode) -> Result<Table> {
        self.check_node(node)?;
        let rows: Result<Vec<Vec<String>>> = self
            .table
            .rows()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(j, v)| self.hierarchies[j].generalize(v, node.levels[j]))
                    .collect()
            })
            .collect();
        Table::with_rows(self.table.schema().clone(), rows?)
    }

    /// Whether the node's generalized table is k-anonymous (every distinct
    /// generalized record occurs at least `k` times).
    ///
    /// # Errors
    /// Propagates generalization errors.
    pub fn is_k_anonymous(&self, node: &LatticeNode, k: usize) -> Result<bool> {
        let unlimited = Budget::unlimited();
        self.is_k_anonymous_with(node, k, &mut Governor::new(&unlimited))
    }

    fn is_k_anonymous_with(
        &self,
        node: &LatticeNode,
        k: usize,
        gov: &mut Governor,
    ) -> Result<bool> {
        if k == 0 {
            return Ok(false);
        }
        self.check_node(node)?;
        gov.node()?;
        let mut counts: HashMap<Vec<String>, usize> = HashMap::new();
        for row in self.table.rows() {
            gov.row()?;
            let gen_row: Result<Vec<String>> = row
                .iter()
                .enumerate()
                .map(|(j, v)| self.hierarchies[j].generalize(v, node.levels[j]))
                .collect();
            *counts.entry(gen_row?).or_insert(0) += 1;
        }
        Ok(counts.values().all(|&c| c >= k))
    }

    /// Finds a k-anonymous node of minimum total level sum (ties broken by
    /// enumeration order), or `None` if even the top node fails.
    ///
    /// Enumerates level-sum strata bottom-up — worst case the whole lattice
    /// (`∏ (height_j + 1)` nodes) — which is exact and fine for the handful
    /// of quasi-identifier attributes typical in practice. Polls `budget`'s
    /// deadline/cancellation flag roughly once per generalized row and
    /// charges each lattice node evaluated against its candidate cap, so a
    /// large lattice respects `--deadline-ms` instead of running to
    /// completion.
    ///
    /// # Errors
    /// Propagates generalization errors; [`Error::Core`] wrapping
    /// `BudgetExceeded` when the budget trips.
    pub fn search_minimal(&self, k: usize, budget: &Budget) -> Result<Option<LatticeNode>> {
        let gov = &mut Governor::new(budget);
        let heights = self.heights();
        let max_sum: usize = heights.iter().sum();
        for target in 0..=max_sum {
            let mut levels = vec![0usize; heights.len()];
            if let Some(node) = self.scan_stratum(&heights, &mut levels, 0, target, k, gov)? {
                return Ok(Some(node));
            }
        }
        Ok(None)
    }

    fn scan_stratum(
        &self,
        heights: &[usize],
        levels: &mut Vec<usize>,
        j: usize,
        remaining: usize,
        k: usize,
        gov: &mut Governor,
    ) -> Result<Option<LatticeNode>> {
        if j == heights.len() {
            if remaining != 0 {
                return Ok(None);
            }
            let node = LatticeNode {
                levels: levels.clone(),
            };
            if self.is_k_anonymous_with(&node, k, gov)? {
                return Ok(Some(node));
            }
            return Ok(None);
        }
        // Feasibility: the rest of the attributes can absorb `remaining - l`.
        let rest_capacity: usize = heights[j + 1..].iter().sum();
        for l in 0..=heights[j].min(remaining) {
            if remaining - l > rest_capacity {
                continue;
            }
            levels[j] = l;
            if let Some(found) = self.scan_stratum(heights, levels, j + 1, remaining - l, k, gov)? {
                return Ok(Some(found));
            }
        }
        levels[j] = 0;
        Ok(None)
    }

    /// Samarati's precision loss `Prec`: the mean of `level_j / height_j`
    /// over all attributes and rows (levels are uniform per column in
    /// full-domain generalization, so rows drop out). 0 = untouched,
    /// 1 = everything at the top.
    ///
    /// # Errors
    /// [`Error::Hierarchy`] on an out-of-range node.
    pub fn precision_loss(&self, node: &LatticeNode) -> Result<f64> {
        self.check_node(node)?;
        let m = self.hierarchies.len() as f64;
        let total: f64 = node
            .levels
            .iter()
            .zip(&self.hierarchies)
            .map(|(&l, h)| l as f64 / h.height() as f64)
            .sum();
        Ok(total / m)
    }

    fn check_node(&self, node: &LatticeNode) -> Result<()> {
        if node.levels.len() != self.hierarchies.len() {
            return Err(Error::Hierarchy(format!(
                "node has {} levels for {} attributes",
                node.levels.len(),
                self.hierarchies.len()
            )));
        }
        for (j, (&l, h)) in node.levels.iter().zip(&self.hierarchies).enumerate() {
            if l > h.height() {
                return Err(Error::Hierarchy(format!(
                    "level {l} exceeds height {} at attribute {j}",
                    h.height()
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    /// The paper's hospital table with age and name hierarchies.
    fn hospital() -> Table {
        let mut t = Table::new(Schema::new(vec!["first", "last", "age", "race"]).unwrap());
        t.push_str_row(&["Harry", "Stone", "34", "Afr-Am"]).unwrap();
        t.push_str_row(&["John", "Reyser", "36", "Cauc"]).unwrap();
        t.push_str_row(&["Beatrice", "Stone", "47", "Afr-Am"])
            .unwrap();
        t.push_str_row(&["John", "Ramos", "22", "Hisp"]).unwrap();
        t
    }

    fn hierarchies() -> Vec<Hierarchy> {
        vec![
            Hierarchy::SuppressOnly,             // first
            Hierarchy::PrefixMask { height: 8 }, // last: Reyser -> R*******
            Hierarchy::Intervals {
                widths: vec![20, 60],
            }, // age: 34 -> 20-39 -> 0-59
            Hierarchy::SuppressOnly,             // race
        ]
    }

    #[test]
    fn generalize_applies_hierarchies() {
        let t = hospital();
        let lat = GeneralizationLattice::new(&t, hierarchies()).unwrap();
        let node = LatticeNode {
            levels: vec![1, 5, 1, 0],
        };
        let g = lat.generalize(&node).unwrap();
        assert_eq!(g.row(1), &["*", "R*****", "20-39", "Cauc"]);
    }

    #[test]
    fn bottom_node_not_anonymous_top_is() {
        let t = hospital();
        let lat = GeneralizationLattice::new(&t, hierarchies()).unwrap();
        let bottom = LatticeNode {
            levels: vec![0, 0, 0, 0],
        };
        assert!(!lat.is_k_anonymous(&bottom, 2).unwrap());
        let top = LatticeNode {
            levels: lat.heights(),
        };
        assert!(lat.is_k_anonymous(&top, 4).unwrap());
    }

    #[test]
    fn search_finds_minimal_node() {
        let t = hospital();
        let lat = GeneralizationLattice::new(&t, hierarchies()).unwrap();
        let node = lat
            .search_minimal(2, &Budget::unlimited())
            .unwrap()
            .expect("top node works");
        assert!(lat.is_k_anonymous(&node, 2).unwrap());
        // Minimality: no node with a strictly smaller sum is anonymous —
        // guaranteed by the stratum scan; spot-check that the bottom fails.
        let sum: usize = node.levels.iter().sum();
        assert!(sum > 0);
    }

    #[test]
    fn monotonicity_spot_check() {
        let t = hospital();
        let lat = GeneralizationLattice::new(&t, hierarchies()).unwrap();
        let node = lat
            .search_minimal(2, &Budget::unlimited())
            .unwrap()
            .unwrap();
        // Raising every level to the top preserves anonymity.
        let top = LatticeNode {
            levels: lat.heights(),
        };
        assert!(lat.is_k_anonymous(&top, 2).unwrap());
        let _ = node;
    }

    #[test]
    fn governed_twins_match_ungoverned_under_unlimited_budget() {
        let t = hospital();
        let lat = GeneralizationLattice::new(&t, hierarchies()).unwrap();
        // A budget with room to spare answers exactly as an unlimited one.
        let roomy = Budget::builder()
            .deadline(std::time::Duration::from_secs(3600))
            .max_candidates(1_000_000)
            .build();
        assert_eq!(
            lat.search_minimal(2, &roomy).unwrap(),
            lat.search_minimal(2, &Budget::unlimited()).unwrap()
        );
    }

    #[test]
    fn governed_search_trips_candidate_cap() {
        let t = hospital();
        let lat = GeneralizationLattice::new(&t, hierarchies()).unwrap();
        // One candidate = one lattice node; the bottom node alone is not
        // anonymous, so the search must trip before finding an answer.
        let budget = Budget::builder().max_candidates(1).build();
        let err = lat.search_minimal(2, &budget).unwrap_err();
        assert!(
            matches!(err, Error::Core(kanon_core::Error::BudgetExceeded { .. })),
            "{err}"
        );
    }

    #[test]
    fn governed_search_observes_cancellation_and_deadline() {
        let t = hospital();
        let lat = GeneralizationLattice::new(&t, hierarchies()).unwrap();
        // Cancellation is checked per node, so even a tiny lattice trips
        // before evaluating its first node.
        let cancelled = Budget::unlimited();
        cancelled.cancel();
        let err = lat.search_minimal(2, &cancelled).unwrap_err();
        assert!(
            matches!(
                err,
                Error::Core(kanon_core::Error::BudgetExceeded {
                    resource: kanon_core::govern::Resource::Cancelled,
                    ..
                })
            ),
            "{err}"
        );
        // An already-expired deadline trips the same way.
        let expired = Budget::builder()
            .deadline(std::time::Duration::ZERO)
            .build();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let err = lat.search_minimal(2, &expired).unwrap_err();
        assert!(
            matches!(
                err,
                Error::Core(kanon_core::Error::BudgetExceeded {
                    resource: kanon_core::govern::Resource::WallClock,
                    ..
                })
            ),
            "{err}"
        );
    }

    #[test]
    fn search_none_when_unreachable() {
        // Two rows that stay distinct even fully generalized: PrefixMask of
        // height 1 on different-length values.
        let mut t = Table::new(Schema::new(vec!["code"]).unwrap());
        t.push_str_row(&["ab"]).unwrap();
        t.push_str_row(&["xyz"]).unwrap();
        let lat =
            GeneralizationLattice::new(&t, vec![Hierarchy::PrefixMask { height: 1 }]).unwrap();
        assert_eq!(lat.search_minimal(2, &Budget::unlimited()).unwrap(), None);
    }

    #[test]
    fn precision_loss_extremes() {
        let t = hospital();
        let lat = GeneralizationLattice::new(&t, hierarchies()).unwrap();
        let bottom = LatticeNode {
            levels: vec![0, 0, 0, 0],
        };
        assert_eq!(lat.precision_loss(&bottom).unwrap(), 0.0);
        let top = LatticeNode {
            levels: lat.heights(),
        };
        assert!((lat.precision_loss(&top).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let t = hospital();
        assert!(GeneralizationLattice::new(&t, vec![Hierarchy::SuppressOnly]).is_err());
        let lat = GeneralizationLattice::new(&t, hierarchies()).unwrap();
        assert!(lat.generalize(&LatticeNode { levels: vec![0, 0] }).is_err());
        assert!(lat
            .generalize(&LatticeNode {
                levels: vec![9, 0, 0, 0]
            })
            .is_err());
    }
}
