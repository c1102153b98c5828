//! Pipeline configuration: shard strategy, target shard size, worker count,
//! and the global resource budget the shards divide among themselves.

use kanon_baselines::ladder::Rung;
use kanon_core::govern::Budget;
use kanon_core::greedy::{CenterConfig, FullCoverConfig};

use crate::error::{Error, Result};

/// How rows are assigned to shards.
///
/// Both strategies are deterministic functions of the table contents, so a
/// pipeline run is reproducible independent of worker count (given enough
/// budget for every shard's solver to finish).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShardStrategy {
    /// Hash the full quasi-identifier of each row (FNV-1a over the encoded
    /// values) into `ceil(n / shard_size)` buckets. Identical rows always
    /// land in the same shard, so the suppression the solver needs to align
    /// them is never spent crossing a shard boundary.
    #[default]
    HashQuasi,
    /// Sort rows lexicographically by quasi-identifier and cut the sorted
    /// order into consecutive ranges. Near-identical rows become shard
    /// neighbours, which keeps per-block diameters small on data with
    /// ordered structure (ages, zip codes).
    Sorted,
}

impl ShardStrategy {
    /// Short stable name (used in CLI flags, JSON reports, and bench CSVs).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ShardStrategy::HashQuasi => "hash",
            ShardStrategy::Sorted => "sorted",
        }
    }

    /// Parses a CLI-facing strategy name.
    ///
    /// # Errors
    /// [`Error::Config`] on anything other than `hash` or `sorted`.
    pub fn from_name(name: &str) -> Result<Self> {
        match name {
            "hash" => Ok(ShardStrategy::HashQuasi),
            "sorted" => Ok(ShardStrategy::Sorted),
            other => Err(Error::Config(format!(
                "unknown shard strategy `{other}` (expected `hash` or `sorted`)"
            ))),
        }
    }
}

impl std::fmt::Display for ShardStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration for [`crate::run_pipeline`].
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Target rows per shard. Shards never exceed this; the sharder splits
    /// oversized buckets into near-equal pieces, each still at least `k`
    /// rows. Must be at least `2k - 1` so that near-equal splitting cannot
    /// produce an undersized piece.
    pub shard_size: usize,
    /// Row-to-shard assignment strategy.
    pub strategy: ShardStrategy,
    /// Fixed bucket count for [`ShardStrategy::HashQuasi`]. `None` derives
    /// `ceil(n / shard_size)` from the table size — right for one-shot
    /// batch runs. The delta engine pins this instead: bucket assignment
    /// must not move when rows arrive or depart, or every shard would go
    /// dirty on every update. A batch run given the same pinned count
    /// reproduces the incremental run's sharding exactly, which is what the
    /// differential equivalence suite leans on.
    pub n_buckets: Option<usize>,
    /// Worker threads solving shards concurrently. `None` defers to
    /// [`kanon_core::distcache::resolve_threads`] (the `RAYON_NUM_THREADS`
    /// environment variable, then available parallelism).
    pub workers: Option<usize>,
    /// The global budget divided among shards (deadline proportional to
    /// rows, memory cap split evenly across workers). Unlimited by default.
    pub budget: Budget,
    /// First ladder rung to attempt per shard. `None` picks automatically:
    /// [`Rung::FullGreedyCover`] only when the shard's `Σ C(s, k..=2k-1)`
    /// candidate family fits under `full.max_candidates`, otherwise
    /// [`Rung::CenterGreedy`] — skipping a guard rejection per shard.
    pub start: Option<Rung>,
    /// Configuration for per-shard [`Rung::FullGreedyCover`] attempts.
    pub full: FullCoverConfig,
    /// Configuration for per-shard [`Rung::CenterGreedy`] attempts.
    pub center: CenterConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            shard_size: 512,
            strategy: ShardStrategy::default(),
            n_buckets: None,
            workers: None,
            budget: Budget::unlimited(),
            start: None,
            full: FullCoverConfig::default(),
            // Shard solvers run single-threaded: parallelism comes from
            // solving many shards at once, not from threads inside one
            // shard's solver.
            center: CenterConfig {
                threads: 1,
                ..CenterConfig::default()
            },
        }
    }
}

impl PipelineConfig {
    /// Validates the configuration against the anonymity parameter.
    ///
    /// # Errors
    /// [`Error::Config`] when `shard_size < 2k - 1` (near-equal splitting
    /// could then leave a piece below `k` rows) or `shard_size == 0`.
    pub fn validate(&self, k: usize) -> Result<()> {
        let floor = 2 * k.max(1) - 1;
        if self.shard_size < floor {
            return Err(Error::Config(format!(
                "shard size {} is below 2k-1 = {} (a shard must fit at \
                 least one (k, 2k-1) band group)",
                self.shard_size, floor
            )));
        }
        if let Some(0) = self.workers {
            return Err(Error::Config("worker count must be at least 1".into()));
        }
        if let Some(0) = self.n_buckets {
            return Err(Error::Config("bucket count must be at least 1".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_names_round_trip() {
        for s in [ShardStrategy::HashQuasi, ShardStrategy::Sorted] {
            assert_eq!(ShardStrategy::from_name(s.name()).unwrap(), s);
            assert_eq!(s.to_string(), s.name());
        }
        assert!(ShardStrategy::from_name("range").is_err());
    }

    #[test]
    fn validate_enforces_the_band_floor() {
        let config = PipelineConfig {
            shard_size: 4,
            ..PipelineConfig::default()
        };
        assert!(config.validate(2).is_ok()); // 2k-1 = 3 <= 4
        assert!(config.validate(3).is_err()); // 2k-1 = 5 > 4
        let zero_workers = PipelineConfig {
            workers: Some(0),
            ..PipelineConfig::default()
        };
        assert!(zero_workers.validate(2).is_err());
        let zero_buckets = PipelineConfig {
            n_buckets: Some(0),
            ..PipelineConfig::default()
        };
        assert!(zero_buckets.validate(2).is_err());
        let pinned = PipelineConfig {
            n_buckets: Some(7),
            ..PipelineConfig::default()
        };
        assert!(pinned.validate(2).is_ok());
    }
}
