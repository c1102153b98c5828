//! The pipeline engine: solve every shard under a budget slice, then merge.
//!
//! ## Executor
//!
//! `solve_units` is the one solve loop, shared by [`run_pipeline`] and
//! the delta engine's refresh. Workers take shard ids from one shared
//! counter, in shard order, and solve each shard whole: a single worker
//! runs on the calling thread, more run as scoped `std::thread`s while the
//! calling thread collects their results and reports progress. What each
//! solver sees is fixed by the plan ([`crate::shard`]), never by worker
//! count or timing, so the output table is the same at every worker count.
//! A unit's error stops dispatch and is returned; a panic in a unit's
//! solve is re-raised on the calling thread.
//!
//! Workers gather each unit's rows over the quasi-identifier columns into
//! a worker-local flat buffer recycled from unit to unit (`gather`), so
//! at most one materialized sub-table exists per worker and steady-state
//! dispatch performs no per-unit row-buffer allocation.
//!
//! ## Budget slicing
//!
//! Each shard's deadline allowance is computed in shard-id order *before*
//! any worker starts (so scheduling cannot influence it): `remaining ×
//! shard_rows × workers / unsliced_rows`, proportional to its size and
//! scaled up because `workers` shards run concurrently. The shard's
//! [`Budget::child_with_memory`] slice is cut when a worker takes it, so
//! its clock starts then, capped at the parent's remaining time; its
//! memory cap is `global_cap / workers`, so the pool's aggregate planned
//! allocations respect the global cap. The residue group is solved last,
//! alone, with everything that remains.
//!
//! ## Fallback
//!
//! When a shard's whole ladder trips its budget, the pipeline falls one
//! rung further than [`kanon_baselines::ladder::run_ladder`] can: the
//! O(s·m) suppress-and-split partition (one block covering the shard,
//! split into the (k, 2k-1) band). It has no approximation guarantee but
//! always finishes, so a pipeline run completes — possibly degraded, never
//! wedged — whatever the budget.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use kanon_baselines::ladder::{run_ladder, LadderConfig, Rung};
use kanon_core::algo::anonymization_of_codes;
use kanon_core::distcache::resolve_threads;
use kanon_core::govern::Budget;
use kanon_core::{Algorithm, Anonymization, Dataset, Partition, Resource, Value};

use crate::config::PipelineConfig;
use crate::error::{Error, Result};
use crate::report::{PipelineReport, ShardReport, SolvedBy};
use crate::shard::{chunk_near_equal, full_cover_candidates, plan_columns, residue_chunk_target};

/// Live progress of a pipeline run, emitted through the callback of
/// [`crate::run_csv_private_with_progress`] so callers that own long-running jobs
/// (the `kanon-service` job store) can surface status while the run is in
/// flight. Events arrive on the calling thread, in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Progress {
    /// The shard plan is fixed; `units` shards (the residue group, when
    /// present, counts as one) will be solved.
    Planned {
        /// Total work units: shards plus the residue group if any.
        units: usize,
        /// Rows pooled into the residue group.
        residue_rows: usize,
    },
    /// One more work unit finished.
    UnitSolved {
        /// Units finished so far (1-based running count).
        done: usize,
        /// Total work units, as in [`Progress::Planned`].
        units: usize,
        /// Whether this unit degraded below its first attempted rung.
        degraded: bool,
    },
    /// Every unit is solved; the merge + validation step started.
    Merging,
}

/// A solved shard: its local partition (indices into the shard's sub-table,
/// already inside the (k, 2k-1) band) and its report entry. The delta
/// engine caches these per bucket, which is why the fields are
/// crate-visible.
pub(crate) struct Solved {
    pub(crate) partition: Partition,
    pub(crate) report: ShardReport,
}

/// The first rung worth attempting for a shard of `s` rows: the exhaustive
/// greedy only when its candidate family fits the configured cap, otherwise
/// the center greedy (skipping a guaranteed guard rejection).
pub(crate) fn choose_start(s: usize, k: usize, config: &PipelineConfig) -> Rung {
    if let Some(start) = config.start {
        return start;
    }
    match full_cover_candidates(s, k) {
        Some(c) if c <= config.full.max_candidates as u64 => Rung::FullGreedyCover,
        _ => Rung::CenterGreedy,
    }
}

pub(crate) fn solve_shard(
    id: usize,
    sub: &Dataset,
    k: usize,
    config: &PipelineConfig,
    budget: Budget,
) -> Result<Solved> {
    let started = Instant::now();
    let start = choose_start(sub.n_rows(), k, config);
    let ladder = LadderConfig {
        budget,
        start,
        full: config.full.clone(),
        center: config.center.clone(),
    };
    match run_ladder(sub, k, &ladder) {
        Ok((partition, run)) => {
            // Normalize into the (k, 2k-1) band so the merged partition
            // passes the whole-table validator: agglomerative blocks may
            // be larger. `split_large` can only lower a block's
            // suppression, so the shard is priced after the split.
            let partition = partition.split_large(k);
            let cost = partition.anonymization_cost(sub);
            Ok(Solved {
                partition,
                report: ShardReport {
                    id,
                    rows: sub.n_rows(),
                    solved_by: SolvedBy::Rung(run.rung),
                    degraded: run.degraded(),
                    attempts: run.attempts.len(),
                    cost,
                    elapsed: started.elapsed(),
                    note: None,
                },
            })
        }
        Err(err) if err.is_recoverable() => {
            let s = sub.n_rows();
            let partition =
                Partition::new_unchecked(vec![(0..s as u32).collect()], s).split_large(k);
            let cost = partition.anonymization_cost(sub);
            Ok(Solved {
                partition,
                report: ShardReport {
                    id,
                    rows: s,
                    solved_by: SolvedBy::Fallback,
                    degraded: true,
                    attempts: Rung::ALL.len() - start.position(),
                    cost,
                    elapsed: started.elapsed(),
                    note: Some(err.to_string()),
                },
            })
        }
        Err(err) => Err(Error::Core(err)),
    }
}

/// A shard's deadline allowance: its share of the parent's remaining time,
/// proportional to its share of the unsliced rows and scaled by the worker
/// count (`workers` slices run concurrently). `None` without a deadline.
fn slice_allowance(
    parent: &Budget,
    shard_rows: usize,
    rows_left: u64,
    workers: usize,
) -> Option<Duration> {
    parent.remaining().map(|rem| {
        let nanos = rem
            .as_nanos()
            .saturating_mul(shard_rows as u128)
            .saturating_mul(workers as u128)
            / u128::from(rows_left.max(1));
        Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX)).min(rem)
    })
}

/// Combines the solved pieces of one logical unit (residue chunks, or a
/// delta bucket's chunks, in order) into a single [`Solved`]: the
/// concatenated partition plus one report entry whose `solved_by` is the
/// weakest piece's guarantee — a degraded piece is never hidden behind a
/// stronger sibling. `elapsed` is the *sum* of piece times (CPU cost, not
/// wall time — pieces may have run concurrently).
pub(crate) fn combine_solved(id: usize, pieces: Vec<Solved>) -> Result<Solved> {
    debug_assert!(!pieces.is_empty(), "a shard always has at least one unit");
    if pieces.len() == 1 {
        return Ok(pieces.into_iter().next().expect("one piece"));
    }
    let mut parts = Vec::with_capacity(pieces.len());
    let mut rows = 0;
    let mut cost = 0;
    let mut attempts = 0;
    let mut degraded = false;
    let mut elapsed = Duration::ZERO;
    let mut worst: Option<SolvedBy> = None;
    let mut note = None;
    for s in pieces {
        rows += s.report.rows;
        cost += s.report.cost;
        attempts += s.report.attempts;
        degraded |= s.report.degraded;
        elapsed += s.report.elapsed;
        if note.is_none() {
            note = s.report.note;
        }
        worst = Some(match worst {
            None => s.report.solved_by,
            Some(w) => weaker_solver(w, s.report.solved_by),
        });
        parts.push(s.partition);
    }
    let partition = Partition::concat_disjoint(parts).map_err(Error::Core)?;
    Ok(Solved {
        partition,
        report: ShardReport {
            id,
            rows,
            solved_by: worst.expect("at least one piece"),
            degraded,
            attempts,
            cost,
            elapsed,
            note,
        },
    })
}

/// Solves the residue pool as a sequence of near-equal chunks of `target`
/// rows, combined into one [`Solved`] unit (one report entry, one progress
/// tick — the residue stays a single logical shard to callers).
///
/// Chunks are consecutive ranges of the residue's row order, so the
/// concatenated chunk partitions line up with the residue sub-table's
/// indices without any remapping. Each chunk gets everything that remains
/// of the parent budget, like the single-shard residue always did.
pub(crate) fn solve_residue(
    id: usize,
    sub: &Dataset,
    k: usize,
    target: usize,
    config: &PipelineConfig,
    parent: &Budget,
) -> Result<Solved> {
    let started = Instant::now();
    let rows: Vec<u32> = (0..sub.n_rows() as u32).collect();
    let chunks = chunk_near_equal(&rows, target.max(2 * k.max(1) - 1));
    if chunks.len() == 1 {
        return solve_shard(id, sub, k, config, parent.child(None));
    }
    let mut buf: Vec<Value> = Vec::new();
    let mut pieces = Vec::with_capacity(chunks.len());
    for chunk in &chunks {
        let piece = sub
            .select_rows_into(chunk, std::mem::take(&mut buf))
            .expect("residue chunks index the residue sub-table");
        pieces.push(solve_shard(id, &piece, k, config, parent.child(None))?);
        buf = piece.into_flat_buffer();
    }
    let mut s = combine_solved(id, pieces)?;
    // The residue runs alone on the caller's thread; wall time is the
    // honest figure here, matching the pre-chunking single-solve report.
    s.report.elapsed = started.elapsed();
    Ok(s)
}

/// Of two chunk outcomes, the one with the weaker guarantee — that is what
/// the combined residue entry reports, so a degraded chunk is never hidden
/// behind a stronger sibling.
fn weaker_solver(a: SolvedBy, b: SolvedBy) -> SolvedBy {
    let rank = |s: &SolvedBy| match s {
        // Rungs are ordered strongest-first in `Rung::ALL`.
        SolvedBy::Rung(r) => r.position(),
        SolvedBy::Fallback => Rung::ALL.len(),
    };
    if rank(&b) > rank(&a) {
        b
    } else {
        a
    }
}

/// The sub-table of `rows` over `cols`, built in the recycled `buf`.
pub(crate) fn gather<'a>(
    rows: impl ExactSizeIterator<Item = &'a [Value]>,
    cols: &[usize],
    buf: &mut Vec<Value>,
) -> Dataset {
    let n = rows.len();
    let mut data = std::mem::take(buf);
    data.clear();
    for row in rows {
        data.extend(cols.iter().map(|&j| row[j]));
    }
    Dataset::from_flat(n, cols.len(), data).expect("one code per row and column")
}

/// The merge step shared by the batch engine and the delta engine:
/// concatenate per-shard partitions (in `parts` order), remap the
/// concatenated indices through `perm` (the shard rows in the same order)
/// back to table rows in place, then re-validate the (k, 2k-1) band and
/// assemble the final [`Anonymization`] over the projection of `ds` onto
/// `cols` — the release's own codes.
pub(crate) fn finalize_merge(
    ds: &Dataset,
    cols: &[usize],
    k: usize,
    perm: &[u32],
    parts: Vec<Partition>,
) -> Result<Anonymization> {
    let concat = Partition::concat_disjoint(parts).map_err(Error::Core)?;
    let mut blocks = concat.into_blocks();
    for r in blocks.iter_mut().flatten() {
        *r = perm[*r as usize];
    }
    let partition = Partition::new(blocks, ds.n_rows(), k).map_err(Error::Core)?;
    partition.validate_group_sizes(k).map_err(Error::Core)?;
    let codes = ds.project_columns(cols).map_err(Error::Core)?;
    anonymization_of_codes(codes, partition, k, Algorithm::External("pipeline"))
        .map_err(Error::Core)
}

/// The one solve loop. Solves shard units `0..shard_rows.len()` (their
/// row counts, in shard order) on up to `config.workers` threads, then —
/// when `residue_rows > 0` — the residue as unit `shard_rows.len()` on the
/// calling thread with what remains of `config.budget`.
///
/// `solve(unit, buf, budget)` solves one unit; `buf` is the worker's
/// recycled row buffer for materializing the unit's sub-table. Progress
/// ticks once per unit, on the calling thread, in completion order.
/// Returns the solved units in unit order and the worker count used,
/// `min(workers, shards)` (at least 1).
///
/// # Errors
/// The first unit error. Dispatch stops there; units already in flight
/// finish, and `config.budget` is left uncancelled (the caller may share
/// its flag).
///
/// # Panics
/// Re-raises, on the calling thread, a panic from any unit's solve.
pub(crate) fn solve_units<F>(
    config: &PipelineConfig,
    shard_rows: &[usize],
    residue_rows: usize,
    on_progress: &(dyn Fn(Progress) + Sync),
    solve: F,
) -> Result<(Vec<Solved>, usize)>
where
    F: Fn(usize, &mut Vec<Value>, Budget) -> Result<Solved> + Sync,
{
    let n = shard_rows.len();
    let units = n + usize::from(residue_rows > 0);
    let workers = resolve_threads(config.workers).max(1).min(n.max(1));
    let mem_slice = config.budget.memory_limit().map(|m| m / workers as u64);
    let mut rows_left = (shard_rows.iter().sum::<usize>() + residue_rows) as u64;
    let allowances: Vec<Option<Duration>> = shard_rows
        .iter()
        .map(|&rows| {
            let allowance = slice_allowance(&config.budget, rows, rows_left, workers);
            rows_left -= rows as u64;
            allowance
        })
        .collect();

    // Takes the next shard and solves it; `None` once dispatch is over.
    let next = AtomicUsize::new(0);
    let work = |buf: &mut Vec<Value>| {
        let i = next.fetch_add(1, Ordering::Relaxed);
        (i < n).then(|| {
            let budget = config.budget.child_with_memory(allowances[i], mem_slice);
            (
                i,
                panic::catch_unwind(AssertUnwindSafe(|| solve(i, buf, budget))),
            )
        })
    };
    let mut solved: Vec<Option<Solved>> = (0..n).map(|_| None).collect();
    let mut done = 0;
    let mut collect = |(i, out): (usize, std::thread::Result<Result<Solved>>)| match out {
        Ok(Ok(s)) => {
            done += 1;
            on_progress(Progress::UnitSolved {
                done,
                units,
                degraded: s.report.degraded,
            });
            solved[i] = Some(s);
            Ok(())
        }
        // Stop dispatch: every later fetch lands past the end.
        Ok(Err(e)) => {
            next.store(n, Ordering::Relaxed);
            Err(e)
        }
        Err(payload) => {
            next.store(n, Ordering::Relaxed);
            panic::resume_unwind(payload)
        }
    };
    // One worker solves on the calling thread. More run as scoped threads
    // while the calling thread only collects, so its thread-local scratch
    // pools stay as small as the worker count implies.
    let spawned = if workers > 1 { workers } else { 0 };
    let mut buf = Vec::new();
    std::thread::scope(|scope| -> Result<()> {
        let (tx, rx) = mpsc::channel();
        for _ in 0..spawned {
            let (tx, work) = (tx.clone(), &work);
            scope.spawn(move || {
                let mut buf = Vec::new();
                while let Some(out) = work(&mut buf) {
                    if tx.send(out).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        if spawned == 0 {
            while let Some(out) = work(&mut buf) {
                collect(out)?;
            }
        }
        rx.into_iter().try_for_each(collect)
    })?;

    let mut solved: Vec<Solved> = solved
        .into_iter()
        .map(|s| s.expect("every unit was solved or the error returned"))
        .collect();
    if residue_rows > 0 {
        let s = solve(n, &mut buf, config.budget.clone())?;
        on_progress(Progress::UnitSolved {
            done: units,
            units,
            degraded: s.report.degraded,
        });
        solved.push(s);
    }
    Ok((solved, workers))
}

/// Runs the sharded pipeline over an already-encoded table: plan shards,
/// solve each under a budget slice (in parallel when `config.workers`
/// allows), solve the residue, and merge into a whole-table anonymization.
///
/// The returned [`Anonymization`] covers all of `ds` and satisfies
/// k-anonymity; the [`PipelineReport`] records which solver answered each
/// shard, per-shard costs and timings, and end-to-end throughput.
///
/// # Errors
/// `k` validation errors, [`Error::Config`] for an invalid shard size or
/// worker count, and non-recoverable solver errors. Budget exhaustion is
/// *not* an error: shards whose ladder trips fall back to suppress-and-split
/// (reported as degraded).
pub fn run_pipeline(
    ds: &Dataset,
    k: usize,
    config: &PipelineConfig,
) -> Result<(Anonymization, PipelineReport)> {
    let all: Vec<usize> = (0..ds.n_cols()).collect();
    run_columns(ds, &all, k, config, &|_| {})
}

/// [`run_pipeline`] over the projection of `ds` onto the in-range columns
/// `cols`, read in place: each shard gathers its own sub-table, and the
/// projection is built once, as the release's codes. `on_progress` hears,
/// on the calling thread, the plan, each finished unit and the merge.
pub(crate) fn run_columns(
    ds: &Dataset,
    cols: &[usize],
    k: usize,
    config: &PipelineConfig,
    on_progress: &(dyn Fn(Progress) + Sync),
) -> Result<(Anonymization, PipelineReport)> {
    let started = Instant::now();
    let plan = plan_columns(ds, cols, k, config)?;
    let (n_shards, residue_rows) = (plan.shards.len(), plan.residue.len());
    let units = n_shards + usize::from(residue_rows > 0);
    on_progress(Progress::Planned {
        units,
        residue_rows,
    });
    // A cancelled budget aborts up front. An already-expired *deadline*
    // does not: the run proceeds and every shard degrades to the fallback,
    // because completion-under-any-budget is the pipeline's contract.
    if config.budget.is_cancelled() {
        return Err(Error::Core(kanon_core::Error::BudgetExceeded {
            resource: Resource::Cancelled,
            spent: 0,
            limit: 0,
        }));
    }

    let shard_rows: Vec<usize> = plan.shards.iter().map(Vec::len).collect();
    let residue_target = residue_chunk_target(ds.n_rows(), plan.n_buckets, k, config.shard_size);
    let (solved, workers) = solve_units(
        config,
        &shard_rows,
        residue_rows,
        on_progress,
        |i, buf, budget| {
            let rows = plan.shards.get(i).unwrap_or(&plan.residue);
            let sub = gather(rows.iter().map(|&r| ds.row(r as usize)), cols, buf);
            let out = if i < n_shards {
                solve_shard(i, &sub, k, config, budget)
            } else {
                solve_residue(i, &sub, k, residue_target, config, &budget)
            };
            *buf = sub.into_flat_buffer();
            out
        },
    )?;
    on_progress(Progress::Merging);

    // Merge: concatenate local partitions in unit order, then remap the
    // concatenated row indices through the permutation (shard rows in
    // order, residue last) back to original table rows.
    let mut perm: Vec<u32> = Vec::with_capacity(ds.n_rows());
    let mut parts = Vec::with_capacity(solved.len());
    let mut shard_reports = Vec::with_capacity(solved.len());
    for (rows, s) in plan.shards.into_iter().chain([plan.residue]).zip(solved) {
        perm.extend_from_slice(&rows);
        parts.push(s.partition);
        shard_reports.push(s.report);
    }
    let anon = finalize_merge(ds, cols, k, &perm, parts)?;
    // Per-block suppression is position-independent, so the merged cost is
    // exactly the sum of the per-shard costs.
    debug_assert_eq!(
        anon.cost,
        shard_reports.iter().map(|r| r.cost).sum::<usize>()
    );

    let report = PipelineReport {
        n_rows: ds.n_rows(),
        n_cols: cols.len(),
        k,
        shard_size: config.shard_size,
        strategy: config.strategy.name(),
        workers,
        shards: shard_reports,
        residue_rows,
        total_cost: anon.cost,
        elapsed: started.elapsed(),
        generalization: None,
        privacy: None,
    };
    Ok((anon, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShardStrategy;
    use std::sync::Mutex;

    fn dataset(n: usize) -> Dataset {
        Dataset::from_fn(n, 4, |i, j| ((i * 13 + j * 7) % 6) as u32)
    }

    #[test]
    fn pipeline_output_is_k_anonymous_and_costs_add_up() {
        let ds = dataset(120);
        let config = PipelineConfig {
            shard_size: 24,
            ..PipelineConfig::default()
        };
        let (anon, report) = run_pipeline(&ds, 3, &config).unwrap();
        assert!(anon.table.is_k_anonymous(3));
        assert_eq!(anon.partition.n_rows(), 120);
        anon.partition.validate_group_sizes(3).unwrap();
        assert_eq!(report.n_rows, 120);
        assert_eq!(
            report.total_cost,
            report.shards.iter().map(|s| s.cost).sum::<usize>()
        );
        assert_eq!(report.shards.iter().map(|s| s.rows).sum::<usize>(), 120);
        assert_eq!(anon.cost, report.total_cost);
    }

    #[test]
    fn sorted_strategy_also_merges_validly() {
        let ds = dataset(90);
        let config = PipelineConfig {
            shard_size: 16,
            strategy: ShardStrategy::Sorted,
            ..PipelineConfig::default()
        };
        let (anon, report) = run_pipeline(&ds, 4, &config).unwrap();
        assert!(anon.table.is_k_anonymous(4));
        anon.partition.validate_group_sizes(4).unwrap();
        assert_eq!(report.residue_rows, 0);
    }

    #[test]
    fn worker_count_does_not_change_the_answer() {
        let ds = dataset(100);
        let mut outputs = Vec::new();
        for workers in [1, 2, 4] {
            let config = PipelineConfig {
                shard_size: 16,
                workers: Some(workers),
                ..PipelineConfig::default()
            };
            let (anon, report) = run_pipeline(&ds, 3, &config).unwrap();
            assert!(report.workers <= workers.max(1));
            outputs.push((anon.partition, anon.cost));
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0], outputs[2]);
    }

    #[test]
    fn exhausted_budget_degrades_but_completes() {
        let ds = dataset(150);
        let config = PipelineConfig {
            shard_size: 16,
            budget: Budget::builder().deadline(Duration::from_millis(0)).build(),
            ..PipelineConfig::default()
        };
        let (anon, report) = run_pipeline(&ds, 3, &config).unwrap();
        assert!(anon.table.is_k_anonymous(3));
        assert!(report.degraded_shards() > 0);
        assert!(report
            .shards
            .iter()
            .any(|s| s.solved_by == SolvedBy::Fallback));
    }

    #[test]
    fn tiny_table_is_one_shard_or_residue() {
        let ds = dataset(7);
        let (anon, report) = run_pipeline(&ds, 3, &PipelineConfig::default()).unwrap();
        assert!(anon.table.is_k_anonymous(3));
        assert_eq!(report.shards.len(), 1);
    }

    #[test]
    fn cancelled_budget_still_yields_a_valid_table() {
        let ds = dataset(40);
        let config = PipelineConfig {
            shard_size: 8,
            ..PipelineConfig::default()
        };
        config.budget.cancel();
        // Cancellation before the run starts is reported as an error (the
        // up-front check), not a degraded run.
        assert!(run_pipeline(&ds, 3, &config).is_err());
    }

    #[test]
    fn progress_events_cover_every_unit_in_order() {
        let ds = dataset(100);
        for workers in [1, 3] {
            let config = PipelineConfig {
                shard_size: 16,
                workers: Some(workers),
                ..PipelineConfig::default()
            };
            let events = Mutex::new(Vec::new());
            let (_, report) = run_columns(&ds, &[0, 1, 2, 3], 3, &config, &|p| {
                events.lock().unwrap().push(p)
            })
            .unwrap();
            let events = events.into_inner().unwrap();
            let units = report.shards.len();
            assert_eq!(events.len(), units + 2, "{events:?}");
            assert_eq!(
                events[0],
                Progress::Planned {
                    units,
                    residue_rows: report.residue_rows,
                }
            );
            for (i, event) in events[1..=units].iter().enumerate() {
                match *event {
                    Progress::UnitSolved { done, units: u, .. } => {
                        assert_eq!(done, i + 1);
                        assert_eq!(u, units);
                    }
                    other => panic!("expected UnitSolved, got {other:?}"),
                }
            }
            assert_eq!(events[units + 1], Progress::Merging);
        }
    }

    /// Solves six 16-row units of `dataset(100)` (plus a 4-row residue)
    /// through the executor, failing unit 1 with `fail`.
    fn run_units_failing_unit_1(
        workers: usize,
        fail: fn() -> Result<Solved>,
    ) -> (Result<(Vec<Solved>, usize)>, Budget) {
        let ds = dataset(100);
        let config = PipelineConfig {
            workers: Some(workers),
            ..PipelineConfig::default()
        };
        let out = solve_units(&config, &[16; 6], 4, &|_| {}, |i, buf, budget| {
            if i == 1 {
                return fail();
            }
            let rows: Vec<u32> = (16 * i as u32..(16 * i as u32 + 16).min(100)).collect();
            let sub = ds.select_rows_into(&rows, std::mem::take(buf)).unwrap();
            let out = solve_shard(i, &sub, 3, &config, budget);
            *buf = sub.into_flat_buffer();
            out
        });
        (out, config.budget)
    }

    #[test]
    fn a_panicking_unit_reaches_the_caller_at_every_worker_count() {
        for workers in [1, 2] {
            // The run happens on its own thread so a hang fails the test
            // (via the timeout below) instead of wedging the suite.
            let (tx, rx) = mpsc::channel();
            std::thread::spawn(move || {
                let caught = panic::catch_unwind(|| {
                    run_units_failing_unit_1(workers, || panic!("injected panic in unit 1"))
                });
                let message = caught.err().and_then(|p| p.downcast::<&str>().ok());
                let _ = tx.send(message.map(|m| *m));
            });
            let message = rx
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| {
                    panic!("{workers} worker(s): the panic never reached the caller")
                });
            assert_eq!(
                message,
                Some("injected panic in unit 1"),
                "{workers} worker(s)"
            );
        }
    }

    #[test]
    fn a_unit_error_is_returned_without_cancelling_the_budget() {
        for workers in [1, 2] {
            let (out, budget) =
                run_units_failing_unit_1(workers, || Err(Error::Config("unit 1 fails".into())));
            assert!(
                matches!(out, Err(Error::Config(ref m)) if m == "unit 1 fails"),
                "{workers} worker(s)"
            );
            // The caller may share the budget's flag; an error must not
            // poison it for later runs.
            assert!(!budget.is_cancelled(), "{workers} worker(s)");
        }
    }

    #[test]
    fn start_rung_override_is_respected() {
        let ds = dataset(60);
        let config = PipelineConfig {
            shard_size: 12,
            start: Some(Rung::Agglomerative),
            ..PipelineConfig::default()
        };
        let (anon, report) = run_pipeline(&ds, 3, &config).unwrap();
        assert!(anon.table.is_k_anonymous(3));
        for shard in &report.shards {
            assert_eq!(shard.solved_by, SolvedBy::Rung(Rung::Agglomerative));
        }
    }

    /// Every start rung under a spent deadline falls back on every unit,
    /// having attempted exactly the rungs from the start down.
    #[test]
    fn every_start_rung_falls_back_under_a_spent_deadline() {
        let ds = Dataset::from_fn(60, 3, |i, j| ((i * 13 + j * 7) % 6) as u32);
        for start in Rung::ALL {
            let config = PipelineConfig {
                shard_size: 12,
                start: Some(start),
                budget: Budget::builder().deadline(Duration::ZERO).build(),
                ..PipelineConfig::default()
            };
            let (anon, report) = run_pipeline(&ds, 3, &config).unwrap();
            assert!(anon.table.is_k_anonymous(3), "{start}");
            assert!(!report.shards.is_empty());
            for shard in &report.shards {
                assert_eq!(shard.solved_by, SolvedBy::Fallback, "{start}");
                assert_eq!(
                    shard.attempts,
                    Rung::ALL.len() - start.position(),
                    "{start}"
                );
            }
        }
    }
}
