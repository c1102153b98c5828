//! Constraint repair: greedy merging that takes a k-feasible partition
//! and merges blocks until every block satisfies the requested
//! [`PrivacyModel`], preserving the ≥ k floor throughout (a union of
//! blocks of size ≥ k has size ≥ k).
//!
//! This absorbs the former `kanon-core::diversity` stub and generalizes
//! it: the same merge loop now drives distinct l-diversity, entropy
//! l-diversity, and t-closeness, differing only in how a candidate
//! merge's "improvement" is scored. Global feasibility is checked up
//! front — a table whose sensitive column cannot possibly satisfy the
//! constraint fails fast with [`Error::Unreachable`] instead of merging
//! everything into one block and failing late.

use std::collections::HashMap;

use kanon_core::dataset::Dataset;
use kanon_core::diameter::diameter;
use kanon_core::Partition;

use crate::check::{self, entropy_of_counts, verify, ConstraintReport};
use crate::error::{Error, Result};
use crate::spec::PrivacyModel;

/// Outcome of [`fn@enforce`].
#[derive(Clone, Debug)]
pub struct EnforceOutcome {
    /// The repaired partition (k-feasible, constraint-satisfying).
    pub partition: Partition,
    /// Number of merges performed (0 when the input already satisfied).
    pub merges: usize,
    /// Suppression cost before repair.
    pub cost_before: usize,
    /// Suppression cost after repair (≥ before; stronger privacy is not
    /// free).
    pub cost_after: usize,
    /// The verification report of the *input* partition — what the repair
    /// had to fix.
    pub report_before: ConstraintReport,
}

/// How one block scores against the model: higher is better for the
/// diversity models, so closeness distances are negated to share the
/// "improvement means the score rose" convention.
fn block_score(
    model: PrivacyModel,
    sensitive: &[u32],
    block: &[u32],
    index: &HashMap<u32, usize>,
    global_probs: &[f64],
) -> f64 {
    let counts = || {
        let mut c: HashMap<u32, usize> = HashMap::new();
        for &r in block {
            *c.entry(sensitive[r as usize]).or_insert(0) += 1;
        }
        c
    };
    match model {
        PrivacyModel::KOnly => 0.0,
        PrivacyModel::Distinct { .. } => counts().len() as f64,
        PrivacyModel::Entropy { .. } => entropy_of_counts(&counts()),
        PrivacyModel::Closeness { metric, .. } => {
            -check::block_distance(sensitive, block, index, global_probs, metric)
        }
    }
}

/// Checks that *some* partition of this table can satisfy the model —
/// merging everything into one block realizes the global distribution, so
/// the global column decides feasibility.
fn check_reachable(model: PrivacyModel, sensitive: &[u32]) -> Result<()> {
    let mut counts: HashMap<u32, usize> = HashMap::new();
    for &v in sensitive {
        *counts.entry(v).or_insert(0) += 1;
    }
    match model {
        PrivacyModel::KOnly | PrivacyModel::Closeness { .. } => Ok(()),
        PrivacyModel::Distinct { l } => {
            if counts.len() < l {
                return Err(Error::Unreachable(format!(
                    "table has only {} distinct sensitive values; l = {l} is unreachable",
                    counts.len()
                )));
            }
            Ok(())
        }
        PrivacyModel::Entropy { l } => {
            let h = entropy_of_counts(&counts);
            if h + 1e-12 < l.ln() {
                return Err(Error::Unreachable(format!(
                    "table's sensitive entropy {h:.4} is below ln({l}) = {:.4}; \
                     entropy-l = {l} is unreachable",
                    l.ln()
                )));
            }
            Ok(())
        }
    }
}

/// Greedily repairs a k-feasible partition until every block satisfies
/// `model`: each violating block merges with the quasi-identifier-nearest
/// partner whose union improves the block's constraint score, falling
/// back to the overall nearest when no single merge improves — repeated
/// merging must eventually reach the (pre-checked reachable) global
/// distribution.
///
/// # Errors
/// * [`Error::SensitiveMismatch`] on a sensitive-column arity mismatch;
/// * [`Error::Unreachable`] when no partition of this table satisfies the
///   model (checked before any merging).
pub fn enforce(
    ds: &Dataset,
    partition: &Partition,
    sensitive: &[u32],
    model: PrivacyModel,
) -> Result<EnforceOutcome> {
    let report_before = verify(model, partition, sensitive)?;
    let cost_before = partition.anonymization_cost(ds);
    if report_before.ok() {
        return Ok(EnforceOutcome {
            partition: partition.clone(),
            merges: 0,
            cost_before,
            cost_after: cost_before,
            report_before,
        });
    }
    check_reachable(model, sensitive)?;

    // Fixed domain order for the closeness metrics.
    let mut domain: Vec<u32> = sensitive.to_vec();
    domain.sort_unstable();
    domain.dedup();
    let index: HashMap<u32, usize> = domain.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let n = sensitive.len() as f64;
    let mut global_counts = vec![0usize; domain.len()];
    for &v in sensitive {
        global_counts[index[&v]] += 1;
    }
    let global_probs: Vec<f64> = global_counts.iter().map(|&c| c as f64 / n).collect();

    let mut blocks: Vec<Vec<u32>> = partition.blocks().to_vec();
    let mut merges = 0usize;

    loop {
        let current = Partition::new_unchecked(blocks.clone(), ds.n_rows());
        let report = verify(model, &current, sensitive)?;
        let Some(violation) = report.violations.first() else {
            break;
        };
        let violator = violation.block;
        if blocks.len() < 2 {
            // Unreachable in practice: feasibility was pre-checked and a
            // single block realizes the global distribution.
            return Err(Error::Unreachable(
                "cannot repair: only one block remains".into(),
            ));
        }
        let base = block_score(model, sensitive, &blocks[violator], &index, &global_probs);
        let mut best: Option<(bool, usize, usize)> = None; // (improves, diameter, idx)
        for (i, other) in blocks.iter().enumerate() {
            if i == violator {
                continue;
            }
            let union: Vec<u32> = blocks[violator].iter().chain(other).copied().collect();
            let union_rows: Vec<usize> = {
                let mut u: Vec<usize> = union.iter().map(|&r| r as usize).collect();
                u.sort_unstable();
                u
            };
            let d = diameter(ds, &union_rows);
            let improves =
                block_score(model, sensitive, &union, &index, &global_probs) > base + 1e-12;
            let better = match best {
                None => true,
                Some((bi, bd, _)) => (improves && !bi) || (improves == bi && d < bd),
            };
            if better {
                best = Some((improves, d, i));
            }
        }
        let (_, _, partner) = best.expect("at least two blocks");
        // Remove the higher index via swap_remove so the lower stays
        // valid, then fold the absorbed block into the survivor.
        let (hi, lo) = if partner > violator {
            (partner, violator)
        } else {
            (violator, partner)
        };
        let absorbed = blocks.swap_remove(hi);
        blocks[lo].extend(absorbed);
        merges += 1;
    }

    let repaired = Partition::new_unchecked(blocks, ds.n_rows());
    let cost_after = repaired.anonymization_cost(ds);
    Ok(EnforceOutcome {
        partition: repaired,
        merges,
        cost_before,
        cost_after,
        report_before,
    })
}

/// Outcome of [`enforce_l_diversity`] — the API shape the former
/// `kanon-core::diversity` module exposed, preserved for its callers.
#[derive(Clone, Debug)]
pub struct DiversityResult {
    /// The repaired partition (k-feasible, l-diverse).
    pub partition: Partition,
    /// Number of merges performed.
    pub merges: usize,
    /// Suppression cost before repair.
    pub cost_before: usize,
    /// Suppression cost after repair.
    pub cost_after: usize,
}

/// Distinct-l-diversity repair (compatibility wrapper over [`fn@enforce`]).
///
/// # Errors
/// As [`fn@enforce`] for [`PrivacyModel::Distinct`].
pub fn enforce_l_diversity(
    ds: &Dataset,
    partition: &Partition,
    sensitive: &[u32],
    l: usize,
) -> Result<DiversityResult> {
    let outcome = enforce(ds, partition, sensitive, PrivacyModel::Distinct { l })?;
    Ok(DiversityResult {
        partition: outcome.partition,
        merges: outcome.merges,
        cost_before: outcome.cost_before,
        cost_after: outcome.cost_after,
    })
}

/// Whether every block carries ≥ `l` distinct sensitive values
/// (compatibility wrapper over [`crate::check::verify_l_diversity`]).
///
/// # Errors
/// [`Error::SensitiveMismatch`] if `sensitive` does not cover every row.
pub fn is_l_diverse(partition: &Partition, sensitive: &[u32], l: usize) -> Result<bool> {
    Ok(check::verify_l_diversity(partition, sensitive, l)?.ok())
}

/// Indices of blocks with fewer than `l` distinct sensitive values
/// (compatibility wrapper).
///
/// # Errors
/// [`Error::SensitiveMismatch`] if `sensitive` does not cover every row.
pub fn diversity_violations(
    partition: &Partition,
    sensitive: &[u32],
    l: usize,
) -> Result<Vec<usize>> {
    Ok(check::verify_l_diversity(partition, sensitive, l)?
        .violations
        .into_iter()
        .map(|v| v.block)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ClosenessMetric;
    use kanon_core::algo;
    use kanon_core::Budget;

    /// Two QI clusters; sensitive values chosen so one group is uniform.
    fn setup() -> (Dataset, Partition, Vec<u32>) {
        let ds = Dataset::from_rows(vec![vec![0, 0], vec![0, 1], vec![9, 9], vec![9, 8]]).unwrap();
        let p = Partition::new(vec![vec![0, 1], vec![2, 3]], 4, 2).unwrap();
        // Group {0,1} shares sensitive value 5: k-anonymous but not 2-diverse.
        let sensitive = vec![5, 5, 1, 2];
        (ds, p, sensitive)
    }

    #[test]
    fn repair_merges_until_diverse() {
        let (ds, p, sensitive) = setup();
        let result = enforce_l_diversity(&ds, &p, &sensitive, 2).unwrap();
        assert!(is_l_diverse(&result.partition, &sensitive, 2).unwrap());
        assert!(result.merges >= 1);
        assert!(result.cost_after >= result.cost_before);
        assert!(result.partition.min_block_size().unwrap() >= 2);
        let total: usize = result.partition.blocks().iter().map(Vec::len).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn already_diverse_is_untouched() {
        let ds = Dataset::from_rows(vec![vec![0], vec![0], vec![1], vec![1]]).unwrap();
        let p = Partition::new(vec![vec![0, 1], vec![2, 3]], 4, 2).unwrap();
        let sensitive = vec![1, 2, 3, 4];
        let result = enforce_l_diversity(&ds, &p, &sensitive, 2).unwrap();
        assert_eq!(result.merges, 0);
        assert_eq!(result.cost_after, result.cost_before);
    }

    #[test]
    fn unreachable_l_is_an_error() {
        let (ds, p, _) = setup();
        let uniform_sensitive = vec![7, 7, 7, 7];
        assert!(matches!(
            enforce_l_diversity(&ds, &p, &uniform_sensitive, 2),
            Err(Error::Unreachable(_))
        ));
        // Entropy feasibility: a table of entropy ln 2 cannot reach
        // entropy-l = 3.
        assert!(matches!(
            enforce(&ds, &p, &[1, 1, 2, 2], PrivacyModel::Entropy { l: 3.0 }),
            Err(Error::Unreachable(_))
        ));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let (ds, p, _) = setup();
        assert!(is_l_diverse(&p, &[1, 2], 2).is_err());
        assert!(enforce_l_diversity(&ds, &p, &[1, 2], 2).is_err());
    }

    #[test]
    fn closeness_repair_converges() {
        let (ds, p, sensitive) = setup();
        // Block {0,1} is pure 5s against a 50/25/25 table: far from close.
        let model = PrivacyModel::Closeness {
            t: 0.25,
            metric: ClosenessMetric::Variational,
        };
        let outcome = enforce(&ds, &p, &sensitive, model).unwrap();
        assert!(!outcome.report_before.ok());
        let report = verify(model, &outcome.partition, &sensitive).unwrap();
        assert!(report.ok(), "{report:?}");
        assert!(outcome.merges >= 1);
        assert!(outcome.cost_after >= outcome.cost_before);
    }

    #[test]
    fn entropy_repair_converges() {
        let ds = Dataset::from_fn(8, 2, |i, _| (i / 2) as u32);
        let p = Partition::new(vec![vec![0, 1], vec![2, 3], vec![4, 5], vec![6, 7]], 8, 2).unwrap();
        // Pairs share a value: distinct-1 blocks everywhere.
        let sensitive = vec![0, 0, 1, 1, 2, 2, 3, 3];
        let model = PrivacyModel::Entropy { l: 2.0 };
        let outcome = enforce(&ds, &p, &sensitive, model).unwrap();
        let report = verify(model, &outcome.partition, &sensitive).unwrap();
        assert!(report.ok(), "{report:?}");
        for b in outcome.partition.blocks() {
            assert!(b.len() >= 2);
        }
    }

    #[test]
    fn end_to_end_with_greedy_partition() {
        // Census-flavoured: anonymize QI, then enforce diversity on a
        // synthetic sensitive column engineered to violate it.
        let ds = Dataset::from_fn(12, 3, |i, j| ((i / 3) * 10 + j) as u32);
        let partition =
            algo::center_greedy(&ds, 3, &Default::default(), &Budget::unlimited()).unwrap();
        // Sensitive: constant within each natural cluster of 3.
        let sensitive: Vec<u32> = (0..12).map(|i| (i / 3) as u32).collect();
        let repaired = enforce_l_diversity(&ds, &partition, &sensitive, 2).unwrap();
        assert!(is_l_diverse(&repaired.partition, &sensitive, 2).unwrap());
        assert!(repaired.partition.min_block_size().unwrap() >= 3);
    }

    #[test]
    fn detects_uniform_sensitive_groups() {
        let (_, p, sensitive) = setup();
        assert!(!is_l_diverse(&p, &sensitive, 2).unwrap());
        assert_eq!(diversity_violations(&p, &sensitive, 2).unwrap(), vec![0]);
        assert!(is_l_diverse(&p, &sensitive, 1).unwrap());
    }
}
