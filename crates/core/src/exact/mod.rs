//! Exact optimal k-anonymity solvers.
//!
//! The paper proves optimal k-anonymity NP-hard, so exact solvers are
//! necessarily exponential; they exist here as the *OPT oracle* against
//! which the approximation ratios of Theorems 4.1 and 4.2 are measured
//! (experiments E1/E2), and as the decision oracle inside the hardness
//! reduction verifiers (experiments E5/E6).
//!
//! Four engines with different sweet spots, each a single function taking
//! `budget: &Budget` last:
//!
//! * [`fpt`] — fixed-parameter search over *distinct row patterns* with
//!   multiplicities; exact for any `n` when the table carries few distinct
//!   rows (small degree × small alphabet, the regime of the hardness
//!   gadgets). The preferred engine whenever it applies.
//! * [`subset_dp`] — dynamic programming over row bitmasks,
//!   `O(3^n)`-ish but exact and allocation-light; the default for `n ≤ 20`.
//! * [`branch_and_bound`] — partition search with admissible lower bounds
//!   (per-row k-NN distance and open-block deficits); handles larger
//!   clustered instances and can run anytime (returns the best found with a
//!   proof flag).
//! * [`pattern_bb`] — searches over per-row suppression *patterns* instead
//!   of partitions, exploiting repeated rows; strongest when the alphabet
//!   and arity are small (the regime of Sweeney's exact algorithm \[8\]).
//!   Where most rows are distinct it beats [`fpt`] by orders of magnitude:
//!   about 1 ms against 5–20 s on experiment E9's 20-row slices (one core
//!   of a 2-vCPU Xeon, release build), some of which `fpt` cannot finish
//!   within its node cap.
//!
//! All engines agree on every instance (cross-checked by tests), and all
//! exploit the §4.1 observation that optimal solutions may be assumed to
//! use groups of size at most `2k − 1`.

mod branch_and_bound;
mod fpt;
mod pattern_bb;
mod subset_dp;

pub use branch_and_bound::{branch_and_bound, BranchBoundConfig, BranchBoundResult};
pub use fpt::{fpt, FptConfig};
pub use pattern_bb::{pattern_bb, PatternConfig};
pub use subset_dp::{min_diameter_sum, subset_dp, SubsetDpConfig};

use crate::dataset::Dataset;
use crate::error::Result;
use crate::govern::Budget;
use crate::partition::Partition;

/// An exact optimum: the minimum objective value and a partition achieving
/// it. For the anonymity solvers the objective is the suppressed-cell
/// count; for [`min_diameter_sum`] it is the partition's diameter sum.
#[derive(Clone, Debug)]
pub struct Optimal {
    /// Minimum objective value.
    pub cost: usize,
    /// A partition achieving `cost`.
    pub partition: Partition,
}

/// Solves the instance exactly with the most appropriate engine: the
/// pattern-collapsed `fpt` search when the table has few distinct rows
/// (exact at any `n`), else `subset_dp` when `n` fits, otherwise
/// `branch_and_bound` with its proof flag required.
///
/// # Errors
/// Propagates engine errors; fails if no engine can certify optimality
/// within its limits.
pub fn optimal(ds: &Dataset, k: usize) -> Result<Optimal> {
    ds.check_k(k)?;
    let fpt_config = FptConfig::default();
    if fpt::pattern_count_within(ds, fpt_config.max_patterns) {
        match fpt(ds, k, &fpt_config, &Budget::unlimited()) {
            Ok(opt) => return Ok(opt),
            // Node/depth exhaustion: fall through to the other engines.
            Err(crate::error::Error::InstanceTooLarge { .. }) => {}
            Err(e) => return Err(e),
        }
    }
    if ds.n_rows() <= SubsetDpConfig::default().max_rows {
        return subset_dp(ds, k, &SubsetDpConfig::default(), &Budget::unlimited());
    }
    let res = branch_and_bound(ds, k, &BranchBoundConfig::default(), &Budget::unlimited())?;
    if !res.proven_optimal {
        return Err(crate::error::Error::InstanceTooLarge {
            solver: "optimal",
            limit: format!(
                "branch and bound exhausted its node budget after {} nodes",
                res.nodes
            ),
        });
    }
    Ok(Optimal {
        cost: res.cost,
        partition: res.partition,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_dispatches_to_dp_for_small_instances() {
        let ds = Dataset::from_rows(vec![vec![0, 0], vec![0, 1], vec![5, 5], vec![5, 5]]).unwrap();
        let opt = optimal(&ds, 2).unwrap();
        assert_eq!(opt.cost, 2);
        assert_eq!(opt.partition.n_blocks(), 2);
    }
}
