//! Mondrian-style top-down median partitioning.
//!
//! LeFevre, DeWitt & Ramakrishnan's Mondrian (ICDE 2006) recursively splits
//! the record set at the median of the "widest" attribute until blocks drop
//! below `2k`. It post-dates the paper but is the de facto practical
//! comparator, so experiment E8 includes it. Dictionary codes are treated
//! as ordered values (Mondrian is defined for ordered domains; for purely
//! categorical data the order is arbitrary but fixed, which is the standard
//! adaptation).

use kanon_core::error::Result;
use kanon_core::govern::{Budget, PollTicker};
use kanon_core::{Dataset, Partition};

/// Builds a partition by recursive median splits. The splitter polls
/// `budget` once per row scanned while choosing and applying each cut.
///
/// ```
/// use kanon_core::{Budget, Dataset};
/// let ds = Dataset::from_rows(vec![
///     vec![0, 0], vec![0, 1], vec![9, 9], vec![9, 8],
/// ]).unwrap();
/// let p = kanon_baselines::mondrian(&ds, 2, &Budget::unlimited()).unwrap();
/// assert_eq!(p.n_blocks(), 2); // splits on the wide first column
/// ```
///
/// # Errors
/// Standard `k` validation errors, or
/// [`kanon_core::Error::BudgetExceeded`] when the budget trips.
pub fn mondrian(ds: &Dataset, k: usize, budget: &Budget) -> Result<Partition> {
    ds.check_k(k)?;
    budget.check()?;
    let n = ds.n_rows();
    let all: Vec<u32> = (0..n as u32).collect();
    let mut blocks = Vec::new();
    let mut ticker = budget.ticker();
    split(ds, k, all, &mut blocks, &mut ticker)?;
    Partition::new(blocks, n, k)
}

fn split(
    ds: &Dataset,
    k: usize,
    rows: Vec<u32>,
    out: &mut Vec<Vec<u32>>,
    ticker: &mut PollTicker<'_>,
) -> Result<()> {
    if rows.len() < 2 * k {
        out.push(rows);
        return Ok(());
    }
    // Rank columns by number of distinct values within this block, widest
    // first (Mondrian's "choose dimension" heuristic for categorical data).
    let m = ds.n_cols();
    let mut col_spread: Vec<(usize, usize)> = Vec::with_capacity(m);
    for j in 0..m {
        let mut vals = Vec::with_capacity(rows.len());
        for &r in &rows {
            ticker.tick()?;
            vals.push(ds.get(r as usize, j));
        }
        vals.sort_unstable();
        vals.dedup();
        col_spread.push((vals.len(), j));
    }
    col_spread.sort_unstable_by(|a, b| b.cmp(a));

    for &(spread, j) in &col_spread {
        if spread < 2 {
            break; // No column can split this block.
        }
        // Median split on column j's values.
        let mut vals = Vec::with_capacity(rows.len());
        for &r in &rows {
            ticker.tick()?;
            vals.push(ds.get(r as usize, j));
        }
        vals.sort_unstable();
        let median = vals[vals.len() / 2];
        // "Strict" Mondrian: left gets < median... but with heavy ties that
        // can be empty. Use <= of the *lower* median neighbour: put values
        // strictly below the median left, the rest right, and fall back to
        // <= median if that leaves the left side empty.
        let mut left: Vec<u32> = rows
            .iter()
            .copied()
            .filter(|&r| ds.get(r as usize, j) < median)
            .collect();
        let mut right: Vec<u32> = rows
            .iter()
            .copied()
            .filter(|&r| ds.get(r as usize, j) >= median)
            .collect();
        if left.len() < k || right.len() < k {
            // Try the other cut direction before giving up on this column.
            left = rows
                .iter()
                .copied()
                .filter(|&r| ds.get(r as usize, j) <= median)
                .collect();
            right = rows
                .iter()
                .copied()
                .filter(|&r| ds.get(r as usize, j) > median)
                .collect();
        }
        if left.len() >= k && right.len() >= k {
            split(ds, k, left, out, ticker)?;
            split(ds, k, right, out, ticker)?;
            return Ok(());
        }
    }
    // No feasible cut: emit as one block.
    out.push(rows);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_two_obvious_clusters() {
        let ds = Dataset::from_rows(vec![vec![0, 0], vec![0, 1], vec![9, 9], vec![9, 8]]).unwrap();
        let p = mondrian(&ds, 2, &Budget::unlimited()).unwrap();
        assert_eq!(p.n_blocks(), 2);
        assert_eq!(p.anonymization_cost(&ds), 4);
    }

    #[test]
    fn constant_table_single_block() {
        let ds = Dataset::from_fn(10, 3, |_, _| 7);
        let p = mondrian(&ds, 2, &Budget::unlimited()).unwrap();
        assert_eq!(p.n_blocks(), 1);
        assert_eq!(p.anonymization_cost(&ds), 0);
    }

    #[test]
    fn block_sizes_at_least_k() {
        let ds = Dataset::from_fn(31, 4, |i, j| ((i * 13 + j * 5) % 7) as u32);
        for k in [2, 3, 5] {
            let p = mondrian(&ds, k, &Budget::unlimited()).unwrap();
            assert!(p.min_block_size().unwrap() >= k, "k = {k}");
            let total: usize = p.blocks().iter().map(Vec::len).sum();
            assert_eq!(total, 31);
        }
    }

    #[test]
    fn skewed_values_still_split() {
        // 9 copies of value 0 and 3 of value 1: median is 0; strict < cut
        // yields an empty left, so the <= fallback must fire.
        let ds = Dataset::from_fn(12, 1, |i, _| u32::from(i >= 9));
        let p = mondrian(&ds, 3, &Budget::unlimited()).unwrap();
        assert_eq!(p.n_blocks(), 2);
        assert_eq!(p.anonymization_cost(&ds), 0);
    }

    #[test]
    fn bad_k() {
        let ds = Dataset::from_fn(3, 1, |i, _| i as u32);
        assert!(mondrian(&ds, 0, &Budget::unlimited()).is_err());
        assert!(mondrian(&ds, 4, &Budget::unlimited()).is_err());
    }

    #[test]
    fn governed_unlimited_matches_ungoverned() {
        let roomy = Budget::builder()
            .deadline(std::time::Duration::from_secs(3600))
            .build();
        let ds = Dataset::from_fn(31, 4, |i, j| ((i * 13 + j * 5) % 7) as u32);
        let a = mondrian(&ds, 3, &Budget::unlimited()).unwrap();
        let b = mondrian(&ds, 3, &roomy).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn governed_cancellation_trips() {
        let ds = Dataset::from_fn(31, 4, |i, j| ((i * 13 + j * 5) % 7) as u32);
        let budget = Budget::unlimited();
        budget.cancel();
        assert!(mondrian(&ds, 3, &budget).is_err());
    }
}
