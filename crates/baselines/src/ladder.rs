//! Graceful-degradation ladder: spend the budget on the best algorithm that
//! can afford to finish.
//!
//! The paper's approximation algorithms trade quality for cost: the §4.2.1
//! exhaustive greedy (`3k(1+ln k)` guarantee) enumerates `O(n^{2k})`
//! candidates, the §4.2.2 center greedy (`6k(1+ln m)`) is strongly
//! polynomial, and the agglomerative baseline is a fast heuristic with no
//! worst-case guarantee at all. A serving system with a deadline wants the
//! *best guarantee it can afford*, not an error — so [`run_ladder`] tries
//! the rungs in guarantee order, hands each rung a [`Budget::child`] slice
//! of the remaining allowance, and falls one rung down whenever a rung's
//! budget trips (or its static size guard rejects the instance).
//!
//! Every rung is a partitioner, and so is the ladder: it returns the
//! winning rung's [`Partition`] as that rung produced it (the two greedy
//! rungs inside the `(k, 2k − 1)` band, agglomerative blocks possibly
//! larger) and prices each success with [`Partition::anonymization_cost`].
//! Rounding the partition into a release is left to the caller, who
//! does it once (`kanon_core::algo::anonymization_from_partition`).
//!
//! Budget slicing: at the moment a rung starts, the deadline actually
//! remaining (recomputed from elapsed wall-clock time, never from a
//! schedule drawn up before the run) is divided equally among the rungs
//! still to try — with three rungs left the first receives a third, and a
//! rung that returns early (instantly-failing guard, trivially small
//! shard) hands its unused time straight to its successors instead of
//! stranding them with slices from a stale schedule. The final rung always
//! receives everything that is left. Memory and candidate caps are
//! inherited per rung with a fresh memory counter — an abandoned rung's
//! (freed) allocations do not starve its successor. Cancellation is
//! shared: cancelling the parent budget aborts whichever rung is running
//! *and* every rung after it.

use std::time::{Duration, Instant};

use kanon_core::algo::{center_greedy, exhaustive_greedy};
use kanon_core::error::{Error, Result};
use kanon_core::govern::Budget;
use kanon_core::greedy::{CenterConfig, FullCoverConfig};
use kanon_core::{Dataset, Partition};

use crate::agglomerative::agglomerative;

/// One rung of the degradation ladder, in descending guarantee order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Rung {
    /// Theorem 4.1 exhaustive greedy cover: `3k(1+ln k)`-approximate,
    /// exponential in `k`.
    #[default]
    FullGreedyCover,
    /// Theorem 4.2 center greedy cover: `6k(1+ln m)`-approximate, strongly
    /// polynomial.
    CenterGreedy,
    /// Agglomerative merging: fast heuristic, no worst-case guarantee.
    Agglomerative,
}

impl Rung {
    /// Every rung, best guarantee first: the order [`run_ladder`] tries
    /// them in.
    pub const ALL: [Rung; 3] = [
        Rung::FullGreedyCover,
        Rung::CenterGreedy,
        Rung::Agglomerative,
    ];

    /// This rung's index in [`Rung::ALL`] (the variants are declared in
    /// that order): how many rungs rank above it.
    #[must_use]
    pub fn position(self) -> usize {
        self as usize
    }

    /// Short stable name (used in CLI notes and bench CSVs).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rung::FullGreedyCover => "full-greedy-cover",
            Rung::CenterGreedy => "center-greedy",
            Rung::Agglomerative => "agglomerative",
        }
    }

    /// The approximation guarantee that survives when this rung answers.
    #[must_use]
    pub fn guarantee(self) -> &'static str {
        match self {
            Rung::FullGreedyCover => "3k(1+ln k)",
            Rung::CenterGreedy => "6k(1+ln m)",
            Rung::Agglomerative => "heuristic (no worst-case guarantee)",
        }
    }
}

impl std::fmt::Display for Rung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What happened when a rung was attempted.
#[derive(Clone, Debug)]
pub enum RungOutcome {
    /// The rung finished inside its budget slice with this suppression cost.
    Succeeded {
        /// Suppression cost of the rung's partition (Corollary 4.1).
        cost: usize,
    },
    /// The rung could not answer (budget trip, size guard, overflow guard);
    /// the ladder fell to the next rung.
    Failed {
        /// Rendered error explaining why the rung was abandoned.
        reason: String,
    },
}

/// Per-rung account of one ladder run.
#[derive(Clone, Debug)]
pub struct RungReport {
    /// Which rung was attempted.
    pub rung: Rung,
    /// Wall-clock time the attempt consumed.
    pub elapsed: Duration,
    /// How the attempt ended.
    pub outcome: RungOutcome,
}

/// Summary of a completed [`run_ladder`] call.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The rung that produced the returned partition.
    pub rung: Rung,
    /// The approximation guarantee that survives (the winning rung's).
    pub guarantee: &'static str,
    /// Every attempt in order, including the failed ones.
    pub attempts: Vec<RungReport>,
}

impl RunReport {
    /// True when the ladder fell below its first attempted rung (which is
    /// [`LadderConfig::start`], the top rung by default).
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.attempts.first().is_some_and(|a| a.rung != self.rung)
    }
}

/// Configuration for [`run_ladder`].
#[derive(Clone, Debug, Default)]
pub struct LadderConfig {
    /// The overall budget the ladder divides among its rungs. Unlimited by
    /// default — the ladder then simply runs the top rung to completion.
    pub budget: Budget,
    /// The first rung to attempt (default: the top,
    /// [`Rung::FullGreedyCover`]); rungs above it are skipped entirely.
    ///
    /// Callers that already know the top rungs cannot answer — e.g. the
    /// sharded pipeline, whose shards sit far past the exhaustive greedy's
    /// candidate guard — start lower and save the (cheap but per-shard
    /// repeated) guard checks and attempt bookkeeping.
    pub start: Rung,
    /// Configuration for the [`Rung::FullGreedyCover`] attempt.
    pub full: FullCoverConfig,
    /// Configuration for the [`Rung::CenterGreedy`] attempt.
    pub center: CenterConfig,
}

fn attempt(
    ds: &Dataset,
    k: usize,
    config: &LadderConfig,
    rung: Rung,
    budget: &Budget,
) -> Result<Partition> {
    match rung {
        Rung::FullGreedyCover => exhaustive_greedy(ds, k, &config.full, budget),
        Rung::CenterGreedy => center_greedy(ds, k, &config.center, budget),
        Rung::Agglomerative => agglomerative(ds, k, budget),
    }
}

/// Runs the degradation ladder: best-guarantee algorithm first, falling one
/// rung per recoverable failure, inside `config.budget`.
///
/// Returns the partition of the first rung that finishes, together with a
/// [`RunReport`] naming the winning rung, its surviving guarantee, and
/// every attempt's cost/time.
///
/// # Errors
/// Standard `k` validation errors up front. [`Error::BudgetExceeded`] when
/// no rung could finish (the last rung's error is returned); cancellation
/// surfaces the same way. Errors that are not
/// [recoverable](Error::is_recoverable) propagate immediately.
pub fn run_ladder(ds: &Dataset, k: usize, config: &LadderConfig) -> Result<(Partition, RunReport)> {
    run_ladder_with(ds, k, config, attempt)
}

/// The ladder loop, generic over the rung runner so tests can inject mock
/// rungs (instantly-failing, deliberately slow) and observe the slices the
/// real scheduling hands out.
fn run_ladder_with(
    ds: &Dataset,
    k: usize,
    config: &LadderConfig,
    mut run_rung: impl FnMut(&Dataset, usize, &LadderConfig, Rung, &Budget) -> Result<Partition>,
) -> Result<(Partition, RunReport)> {
    ds.check_k(k)?;
    let rungs = &Rung::ALL[config.start.position()..];
    let mut attempts = Vec::with_capacity(rungs.len());
    let mut last_err: Option<Error> = None;

    for (idx, &rung) in rungs.iter().enumerate() {
        let is_last = idx + 1 == rungs.len();
        // Slices are recomputed from the *actual* remaining deadline at the
        // moment each rung starts (never from a schedule fixed up front):
        // the time left is divided equally among the rungs still to try, so
        // a rung that returns early — instantly-tripping guard, trivially
        // small shard — passes its unused allowance on instead of leaving
        // its successors with stale, starved slices. The final rung gets
        // everything left. `child` clamps to the parent's remaining time
        // and shares the cancellation flag.
        let slice = if is_last {
            config.budget.child(None)
        } else {
            let rungs_left = (rungs.len() - idx) as u32;
            config
                .budget
                .child(config.budget.remaining().map(|r| r / rungs_left))
        };
        let started = Instant::now();
        match run_rung(ds, k, config, rung, &slice) {
            Ok(partition) => {
                let cost = partition.anonymization_cost(ds);
                attempts.push(RungReport {
                    rung,
                    elapsed: started.elapsed(),
                    outcome: RungOutcome::Succeeded { cost },
                });
                let report = RunReport {
                    rung,
                    guarantee: rung.guarantee(),
                    attempts,
                };
                return Ok((partition, report));
            }
            Err(err) if err.is_recoverable() => {
                attempts.push(RungReport {
                    rung,
                    elapsed: started.elapsed(),
                    outcome: RungOutcome::Failed {
                        reason: err.to_string(),
                    },
                });
                last_err = Some(err);
            }
            Err(err) => return Err(err),
        }
    }
    Err(last_err.expect("ladder has at least one rung"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kanon_core::rounding::suppressor_for_partition;

    fn dataset() -> Dataset {
        Dataset::from_fn(18, 3, |i, j| ((i * 7 + j * 3) % 5) as u32)
    }

    /// Whether `partition` rounds (Corollary 4.1) to a k-anonymous release
    /// of `ds`.
    fn k_anonymous(ds: &Dataset, partition: &Partition, k: usize) -> bool {
        let stars = suppressor_for_partition(ds, partition).unwrap();
        stars.apply(ds).unwrap().is_k_anonymous(k)
    }

    #[test]
    fn unlimited_budget_uses_top_rung_and_matches_pipeline() {
        let ds = dataset();
        let (partition, report) = run_ladder(&ds, 3, &LadderConfig::default()).unwrap();
        assert_eq!(report.rung, Rung::FullGreedyCover);
        assert!(!report.degraded());
        assert_eq!(report.guarantee, "3k(1+ln k)");
        assert_eq!(report.attempts.len(), 1);
        // Byte-identical to the Theorem 4.1 solver run directly.
        let direct =
            exhaustive_greedy(&ds, 3, &FullCoverConfig::default(), &Budget::unlimited()).unwrap();
        assert_eq!(partition, direct);
        assert!(matches!(
            report.attempts[0].outcome,
            RungOutcome::Succeeded { cost } if cost == direct.anonymization_cost(&ds)
        ));
        assert!(k_anonymous(&ds, &partition, 3));
    }

    #[test]
    fn candidate_cap_degrades_to_center_greedy() {
        let ds = dataset();
        let config = LadderConfig {
            // Far below the Σ C(18, 3..=5) candidate family.
            budget: Budget::builder().max_candidates(10).build(),
            ..Default::default()
        };
        let (partition, report) = run_ladder(&ds, 3, &config).unwrap();
        assert_eq!(report.rung, Rung::CenterGreedy);
        assert!(report.degraded());
        assert_eq!(report.guarantee, "6k(1+ln m)");
        assert_eq!(report.attempts.len(), 2);
        assert!(matches!(
            report.attempts[0].outcome,
            RungOutcome::Failed { .. }
        ));
        assert!(k_anonymous(&ds, &partition, 3));
    }

    #[test]
    fn start_rung_skips_the_rungs_above_it() {
        let ds = dataset();
        let config = LadderConfig {
            start: Rung::CenterGreedy,
            ..Default::default()
        };
        let (partition, report) = run_ladder(&ds, 3, &config).unwrap();
        assert_eq!(report.rung, Rung::CenterGreedy);
        // The skipped top rung is not an attempt, so nothing "degraded".
        assert_eq!(report.attempts.len(), 1);
        assert!(!report.degraded());
        assert!(k_anonymous(&ds, &partition, 3));
        // Byte-identical to a ladder that fell to the same rung.
        let fell = run_ladder(
            &ds,
            3,
            &LadderConfig {
                budget: Budget::builder().max_candidates(10).build(),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(partition, fell.0);
        // Starting on the last rung leaves exactly one attempt possible.
        let last = LadderConfig {
            start: Rung::Agglomerative,
            ..Default::default()
        };
        let (partition, report) = run_ladder(&ds, 3, &last).unwrap();
        assert_eq!(report.rung, Rung::Agglomerative);
        assert!(k_anonymous(&ds, &partition, 3));
    }

    #[test]
    fn tiny_memory_cap_fails_every_rung() {
        let ds = dataset();
        let config = LadderConfig {
            // Too small even for the distance cache every rung needs.
            budget: Budget::builder().max_memory_bytes(8).build(),
            ..Default::default()
        };
        let err = run_ladder(&ds, 3, &config).unwrap_err();
        assert!(matches!(err, Error::BudgetExceeded { .. }), "{err}");
    }

    #[test]
    fn cancellation_aborts_the_whole_ladder() {
        let ds = dataset();
        let config = LadderConfig::default();
        config.budget.cancel();
        let err = run_ladder(&ds, 3, &config).unwrap_err();
        assert!(matches!(err, Error::BudgetExceeded { .. }), "{err}");
    }

    #[test]
    fn bad_k_is_not_absorbed() {
        let ds = dataset();
        assert!(run_ladder(&ds, 0, &LadderConfig::default()).is_err());
        assert!(run_ladder(&ds, 19, &LadderConfig::default()).is_err());
    }

    /// A mock rung failure that the ladder treats as recoverable.
    fn budget_trip() -> Error {
        Error::BudgetExceeded {
            resource: kanon_core::Resource::WallClock,
            spent: 0,
            limit: 0,
        }
    }

    /// Regression (deadline-slice starvation): a first rung that returns
    /// *instantly* must not strand the later rungs with slices from a
    /// stale, up-front schedule. With a 3-rung ladder and deadline `D`, the
    /// first rung's slice is `D/3`; when it fails in ~0 time the second
    /// rung's slice must be recomputed from the time actually left — about
    /// `D/2` — not the `D/3` a pre-drawn schedule would hand it.
    #[test]
    fn instant_first_rung_passes_its_time_to_later_rungs() {
        let ds = dataset();
        let deadline = Duration::from_millis(400);
        let config = LadderConfig {
            budget: Budget::builder().deadline(deadline).build(),
            ..Default::default()
        };
        let mut observed: Vec<(Rung, Duration)> = Vec::new();
        let (partition, report) = run_ladder_with(&ds, 3, &config, |ds, k, config, rung, slice| {
            observed.push((rung, slice.remaining().expect("deadline set")));
            match rung {
                Rung::FullGreedyCover => Err(budget_trip()),
                other => attempt(ds, k, config, other, slice),
            }
        })
        .unwrap();
        assert_eq!(report.rung, Rung::CenterGreedy);
        assert!(k_anonymous(&ds, &partition, 3));
        let first = observed[0].1;
        let second = observed[1].1;
        // First slice: an equal third of the deadline, not half.
        assert!(
            first <= deadline / 3 && first > deadline / 4,
            "first rung slice {first:.2?} is not ~D/3"
        );
        // Second slice: recomputed from the ~full remaining time (about
        // D/2). A stale schedule would leave it the original D/3 = 133 ms;
        // anything comfortably above that proves the recomputation.
        assert!(
            second > deadline * 2 / 5,
            "second rung slice {second:.2?} was not recomputed from the \
             actual elapsed time (stale schedule would give {:.2?})",
            deadline / 3
        );
    }

    /// Regression (mock-slow first rung): when the first rung consumes its
    /// entire slice, the rungs after it still receive fresh, equal shares
    /// of whatever genuinely remains — and the final rung inherits all of
    /// it, so the ladder answers inside the original deadline.
    #[test]
    fn slow_first_rung_does_not_starve_the_final_rung() {
        let ds = dataset();
        let deadline = Duration::from_millis(300);
        let started = Instant::now();
        let config = LadderConfig {
            budget: Budget::builder().deadline(deadline).build(),
            ..Default::default()
        };
        let mut observed: Vec<(Rung, Duration)> = Vec::new();
        let (partition, report) = run_ladder_with(&ds, 3, &config, |ds, k, config, rung, slice| {
            observed.push((rung, slice.remaining().expect("deadline set")));
            match rung {
                // Mock-slow: burn the whole slice, then trip.
                Rung::FullGreedyCover => loop {
                    slice.check()?;
                    std::thread::sleep(Duration::from_millis(1));
                },
                // Fail instantly so the *last* rung's slice is observable.
                Rung::CenterGreedy => Err(budget_trip()),
                Rung::Agglomerative => attempt(ds, k, config, rung, slice),
            }
        })
        .unwrap();
        assert_eq!(report.rung, Rung::Agglomerative);
        assert!(k_anonymous(&ds, &partition, 3));
        assert!(
            started.elapsed() < deadline + Duration::from_millis(100),
            "ladder overran the deadline: {:.2?}",
            started.elapsed()
        );
        // The slow rung held ~D/3 = 100 ms; the final rung must get all of
        // the ~200 ms actually left. The old compounding-halving schedule
        // (D/2 to the first rung, half of the rest to the second) left the
        // final rung only ~D/2; require comfortably more than that.
        let last = observed[2].1;
        assert!(
            last > deadline / 2 + Duration::from_millis(25),
            "final rung got {last:.2?} of a {deadline:.2?} deadline — starved"
        );
    }

    #[test]
    fn rung_metadata() {
        assert_eq!(Rung::FullGreedyCover.to_string(), "full-greedy-cover");
        assert_eq!(Rung::CenterGreedy.name(), "center-greedy");
        assert!(Rung::Agglomerative.guarantee().contains("heuristic"));
        for (i, rung) in Rung::ALL.into_iter().enumerate() {
            assert_eq!(rung.position(), i);
        }
    }
}
