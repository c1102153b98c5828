//! `kanon-pipeline`: a sharded, streaming, out-of-core anonymization
//! engine for tables far beyond the solvers' single-instance comfort zone.
//!
//! The paper's approximation algorithms (and this workspace's
//! implementations of them) hold all-pairs state: the §4.2 greedy covers
//! build an O(n²) distance cache, so a million-row table is out of reach
//! no matter the deadline. But k-anonymity **composes under disjoint row
//! union**: a partition of each shard into groups of `k..=2k-1` rows,
//! suppressed per group, is — concatenated — a valid whole-table
//! k-anonymous partition. Suppression cost is per-block, so the merged
//! cost is exactly the sum of the per-shard costs.
//!
//! The pipeline exploits this in four stages:
//!
//! 1. **Ingest** ([`ingest_csv`]) — CSV scanned in place from any
//!    `io::Read`, dictionary-encoding borrowed fields as they stream by.
//! 2. **Shard** ([`plan_shards`]) — deterministic row buckets by
//!    quasi-identifier hash or sort order, cut into near-equal pieces of
//!    at most `shard_size` (and at least `k`) rows; undersized buckets
//!    pool in the residue.
//! 3. **Solve** ([`run_pipeline`]) — a worker pool runs the
//!    [`kanon_baselines::ladder`] degradation ladder per shard, each under
//!    a proportional slice of the global [`kanon_core::govern::Budget`];
//!    shards whose ladder trips fall back to the O(s·m) suppress-and-split
//!    partition, so the run always completes.
//! 4. **Merge** — local partitions concatenate (with checked index
//!    offsetting) into the whole-table partition, which is validated
//!    against the (k, 2k-1) band before the final
//!    [`kanon_core::Anonymization`] is assembled.
//!
//! A fifth stage, in the same CSV path ([`run_csv_private_with_progress`]),
//! holds the merged release to a [`kanon_privacy::PrivacyModel`] beyond
//! k-anonymity: the sensitive column is kept out of the quasi-identifier
//! (it never keys the shard hash), violating blocks are greedily merged
//! post-merge, and the result is independently re-verified before it is
//! reported. Under plain k the stage is a no-op, and [`run_csv`] is that
//! path with no sensitive column.
//!
//! Solver memory scales with `shard_size` (`shard_size²` on the fallback
//! rungs), never with `n`; the table is held encoded (4 bytes per cell)
//! and the release adds 4 bytes and a star bit per quasi cell: a
//! 500,000 × 8 zipf run (13.1 MB of CSV) peaks at 49–53 MB resident.
//! Sharding costs approximation quality —
//! groups can only form within a shard — which is the price of scale; the
//! hash strategy keeps identical rows together so the loss concentrates on
//! rare rows, and the sorted strategy keeps near rows adjacent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod delta;
pub mod engine;
pub mod error;
pub mod generalize;
pub mod ingest;
pub mod json;
pub mod privacy;
pub mod release;
pub mod report;
pub mod shard;

pub use config::{PipelineConfig, ShardStrategy};
pub use delta::{ApplyReport, DeltaConfig, DeltaOp, DeltaStatus, DeltaStore};
pub use engine::{run_pipeline, Progress};
pub use error::{Error, Result};
pub use generalize::{run_csv_auto, AutoConfig, AutoOutcome, AutoRun, Generalized};
pub use ingest::{ingest_csv, ingest_csv_with_delimiter, run_csv, CsvRun};
pub use privacy::run_csv_private_with_progress;
pub use release::{attack_release, attack_tables, write_generalized_release, write_release};
pub use report::{
    json_escape, GeneralizationReport, PipelineReport, PrivacyReport, ShardReport, SolvedBy,
};
pub use shard::{full_cover_candidates, plan_shards, ShardPlan};
