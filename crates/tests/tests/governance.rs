//! Governance suite: resource budgets must be *inert* when unlimited and
//! *prompt* when tripped.
//!
//! Three contracts from DESIGN.md's govern section are locked down here:
//!
//! 1. **Promptness** — a cancelled budget or an expired deadline surfaces
//!    as `Error::BudgetExceeded` from every solver entry point, and a
//!    cancellation raised mid-run (at a fixed budget poll) unwinds the
//!    solver without finishing its work.
//! 2. **Transparency** — a budget that never trips changes nothing: every
//!    solver answers byte-identically under `Budget::unlimited()` and under
//!    a live budget with room to spare.
//! 3. **Ladder totality** — whenever *some* rung is affordable, the
//!    degradation ladder returns a valid k-anonymous table and a report
//!    naming the rung that answered.
//!
//! The fixed-seed acceptance scenario from the PR issue lives at the
//! bottom: an instance whose full §4.2 greedy cover cannot finish inside a
//! 200 ms deadline must still answer — via a lower rung — within twice the
//! deadline, while the same instance under an unlimited budget reproduces
//! the ungoverned cover exactly.

use std::time::Duration;

use kanon_baselines::{agglomerative, knn_greedy, mondrian, run_ladder, LadderConfig, Rung};
use kanon_core::distcache::PairwiseDistances;
use kanon_core::exact::{
    branch_and_bound, min_diameter_sum, pattern_bb, subset_dp, BranchBoundConfig, PatternConfig,
    SubsetDpConfig,
};
use kanon_core::exact::{fpt, FptConfig};
use kanon_core::govern::{Budget, Resource};
use kanon_core::greedy::{
    center_greedy_cover, full_greedy_cover, reduce, CenterConfig, FullCoverConfig,
};
use kanon_core::local_search::{improve, LocalSearchConfig};
use kanon_core::{algo, Algorithm, Anonymization, Dataset, Error, Partition};
use kanon_relation::{GeneralizationLattice, Hierarchy};
use proptest::prelude::*;

/// Builds a dataset with per-column alphabet sizes in `2..=5`, mixing the
/// sizes across columns so ties and duplicate rows both occur (same idiom
/// as the parallel differential suite).
fn build_dataset(flat: &[u32], n: usize, m: usize, aseed: usize) -> Dataset {
    Dataset::from_fn(n, m, |i, j| {
        let alphabet = 2 + ((j + aseed) % 4) as u32;
        flat[i * m + j] % alphabet
    })
}

/// A deterministic mid-sized dataset for the plain (non-proptest) checks.
fn fixed_dataset(n: usize, m: usize) -> Dataset {
    Dataset::from_fn(n, m, |i, j| {
        let alphabet = 2 + ((i + j) % 3) as u32;
        ((i as u32)
            .wrapping_mul(2_654_435_761)
            .wrapping_add(j as u32 * 97)
            >> 7)
            % alphabet
    })
}

/// `FullCoverConfig` pinned to the sequential path (deterministic timing).
fn sequential() -> FullCoverConfig {
    FullCoverConfig {
        parallel: false,
        ..Default::default()
    }
}

/// Rounds the ladder's partition into its release.
fn release(ds: &Dataset, partition: Partition, k: usize) -> Anonymization {
    algo::anonymization_from_partition(ds, partition, k, Algorithm::External("ladder")).unwrap()
}

/// A budget with room to spare on every instance in this suite: it is live
/// (deadline, memory and candidate accounting all run) but never trips.
fn roomy() -> Budget {
    Budget::builder()
        .deadline(Duration::from_secs(3600))
        .max_memory_bytes(1 << 40)
        .max_candidates(1 << 40)
        .build()
}

fn assert_tripped(what: &str, resource: Resource, result: Result<(), Error>) {
    match result {
        Err(Error::BudgetExceeded { resource: r, .. }) if r == resource => {}
        other => panic!("{what}: expected BudgetExceeded/{resource:?}, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// 1. Promptness: a tripped budget stops every solver entry point.
// ---------------------------------------------------------------------------

/// Runs every solver entry point on one fixed instance under `budget`,
/// keeping only whether each succeeded.
fn every_entry_point(budget: &Budget) -> Vec<(&'static str, Result<(), Error>)> {
    let ds = fixed_dataset(14, 3);
    let k = 3;
    let unlimited = Budget::unlimited();
    let seed = mondrian(&ds, k, &unlimited).unwrap();
    let table = kanon_relation::csv::parse("a,b\n1,x\n1,y\n2,x\n2,y\n").unwrap();
    let lattice = GeneralizationLattice::new(&table, vec![Hierarchy::SuppressOnly; 2]).unwrap();
    let ladder = LadderConfig {
        budget: budget.clone(),
        full: sequential(),
        ..Default::default()
    };
    vec![
        (
            "distcache",
            PairwiseDistances::build(&ds, Some(1), budget).map(drop),
        ),
        (
            "full cover",
            full_greedy_cover(&ds, k, &sequential(), None, budget).map(drop),
        ),
        (
            "center cover",
            center_greedy_cover(&ds, k, &CenterConfig::default(), None, budget).map(drop),
        ),
        (
            "exhaustive pipeline",
            algo::exhaustive_greedy(&ds, k, &sequential(), budget).map(drop),
        ),
        (
            "center pipeline",
            algo::center_greedy(&ds, k, &CenterConfig::default(), budget).map(drop),
        ),
        (
            "branch and bound",
            branch_and_bound(&ds, k, &BranchBoundConfig::default(), budget).map(drop),
        ),
        (
            "pattern bb",
            pattern_bb(&ds, k, &PatternConfig::default(), budget).map(drop),
        ),
        ("fpt", fpt(&ds, k, &FptConfig::default(), budget).map(drop)),
        (
            "subset dp",
            subset_dp(&ds, k, &SubsetDpConfig::default(), budget).map(drop),
        ),
        (
            "min diameter sum",
            min_diameter_sum(&ds, k, &SubsetDpConfig::default(), budget).map(drop),
        ),
        ("agglomerative", agglomerative(&ds, k, budget).map(drop)),
        ("knn greedy", knn_greedy(&ds, k, budget).map(drop)),
        ("mondrian", mondrian(&ds, k, budget).map(drop)),
        (
            "local search",
            improve(&ds, &seed, k, &LocalSearchConfig::default(), budget).map(drop),
        ),
        (
            "lattice search",
            lattice
                .search_minimal(2, budget)
                .map(drop)
                .map_err(|e| match e {
                    kanon_relation::Error::Core(e) => e,
                    other => panic!("lattice search: expected a core error, got {other}"),
                }),
        ),
        // The ladder does not absorb a tripped parent budget: it aborts
        // wholesale.
        ("ladder", run_ladder(&ds, k, &ladder).map(drop)),
    ]
}

#[test]
fn pre_cancelled_budget_trips_every_governed_entry_point() {
    let budget = Budget::unlimited();
    budget.cancel();
    for (what, result) in every_entry_point(&budget) {
        assert_tripped(what, Resource::Cancelled, result);
    }
}

#[test]
fn expired_deadline_trips_every_governed_entry_point() {
    let budget = Budget::builder().deadline(Duration::ZERO).build();
    std::thread::sleep(Duration::from_millis(2));
    for (what, result) in every_entry_point(&budget) {
        assert_tripped(what, Resource::WallClock, result);
    }
}

/// Cancellation raised mid-run unwinds the solver: the governed call must
/// return `Cancelled` rather than finishing. The cancel is raised at a
/// fixed budget poll, well past the entry check and well before the end
/// of the run, so neither the outcome nor the test depends on timing.
#[test]
fn mid_run_cancellation_unwinds_the_solver() {
    // The sequential full cover polls thousands of times at n = 44 (its
    // ~1.2M candidates alone take over a thousand polls); the candidate
    // guard (2M) is not hit.
    let ds = fixed_dataset(44, 4);
    let budget = Budget::builder().cancel_at_poll(64).build();
    match full_greedy_cover(&ds, 3, &sequential(), None, &budget) {
        Err(Error::BudgetExceeded {
            resource: Resource::Cancelled,
            ..
        }) => {}
        Ok(_) => panic!("solver finished before its 64th budget poll — instance too small"),
        Err(other) => panic!("expected Cancelled, got {other:?}"),
    }
    assert!(budget.is_cancelled());
}

// ---------------------------------------------------------------------------
// 2. Transparency: a budget that never trips changes nothing.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every solver answers byte-identically under `Budget::unlimited()` and
    /// under a live budget that never trips.
    #[test]
    fn unlimited_budget_is_invisible(
        flat in proptest::collection::vec(0u32..8, 14 * 4),
        n in 6usize..15,
        m in 2usize..5,
        k in 2usize..5,
        aseed in 0usize..4,
    ) {
        let ds = build_dataset(&flat, n, m, aseed);
        let k = k.min(n / 2).max(2);
        let (unlimited, roomy) = (Budget::unlimited(), roomy());

        let cover = full_greedy_cover(&ds, k, &sequential(), None, &unlimited).unwrap();
        let governed = full_greedy_cover(&ds, k, &sequential(), None, &roomy).unwrap();
        prop_assert_eq!(&cover, &governed);

        let center = CenterConfig::default();
        prop_assert_eq!(
            center_greedy_cover(&ds, k, &center, None, &unlimited).unwrap(),
            center_greedy_cover(&ds, k, &center, None, &roomy).unwrap()
        );
        prop_assert_eq!(
            agglomerative(&ds, k, &unlimited).unwrap(),
            agglomerative(&ds, k, &roomy).unwrap()
        );
        prop_assert_eq!(
            knn_greedy(&ds, k, &unlimited).unwrap(),
            knn_greedy(&ds, k, &roomy).unwrap()
        );
        prop_assert_eq!(
            mondrian(&ds, k, &unlimited).unwrap(),
            mondrian(&ds, k, &roomy).unwrap()
        );

        let seed = reduce(&cover, k).unwrap().split_large(k);
        let search = LocalSearchConfig::default();
        let plain = improve(&ds, &seed, k, &search, &unlimited).unwrap();
        let governed = improve(&ds, &seed, k, &search, &roomy).unwrap();
        prop_assert_eq!(plain.partition, governed.partition);
        prop_assert_eq!(plain.final_cost, governed.final_cost);
    }
}

// ---------------------------------------------------------------------------
// 3. Ladder totality: any affordable rung ⇒ a valid k-anonymous answer.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With only a candidate cap (no deadline, no memory cap) the
    /// agglomerative rung is always affordable, so the ladder must succeed
    /// — whatever rung answers — and the output must be k-anonymous.
    #[test]
    fn ladder_answers_whenever_a_rung_is_affordable(
        flat in proptest::collection::vec(0u32..8, 14 * 4),
        n in 6usize..15,
        m in 2usize..5,
        k in 2usize..5,
        aseed in 0usize..4,
        cap in 1u64..5_000,
    ) {
        let ds = build_dataset(&flat, n, m, aseed);
        let k = k.min(n / 2).max(2);
        let config = LadderConfig {
            budget: Budget::builder().max_candidates(cap).build(),
            full: sequential(),
            ..Default::default()
        };
        let (partition, report) = run_ladder(&ds, k, &config).unwrap();
        let anon = release(&ds, partition, k);
        prop_assert!(anon.table.is_k_anonymous(k), "rung {} not k-anonymous", report.rung);
        // The winning rung is the last attempt, and it succeeded.
        let last = report.attempts.last().unwrap();
        prop_assert_eq!(last.rung, report.rung);
    }
}

// ---------------------------------------------------------------------------
// Acceptance scenario (PR issue): deadline-driven degradation.
// ---------------------------------------------------------------------------

/// The fixed-seed acceptance instance: n = 48, k = 3, so the §4.2 cover
/// enumerates Σ C(48, 3..=5) = 1 924 180 candidate subsets — inside the
/// 2M candidate guard, but far more sequential work than a 200 ms deadline
/// affords (the top rung's slice is an equal share — a third — of the
/// remaining deadline).
fn acceptance_instance() -> (Dataset, usize) {
    (fixed_dataset(48, 4), 3)
}

/// Unlimited budget: the ladder answers on the top rung, byte-identical to
/// the ungoverned PR-1 pipeline.
#[test]
fn acceptance_unlimited_ladder_matches_ungoverned_cover() {
    let (ds, k) = acceptance_instance();
    let config = LadderConfig {
        budget: Budget::unlimited(),
        full: sequential(),
        ..Default::default()
    };
    let (partition, report) = run_ladder(&ds, k, &config).unwrap();
    let anon = release(&ds, partition, k);
    assert_eq!(report.rung, Rung::FullGreedyCover);

    let cover = full_greedy_cover(&ds, k, &sequential(), None, &Budget::unlimited()).unwrap();
    let partition = reduce(&cover, k).unwrap().split_large(k);
    let reference = release(&ds, partition, k);
    assert_eq!(anon.cost, reference.cost);
    assert_eq!(anon.table, reference.table);
}

/// A 200 ms deadline: the top rung cannot finish its slice, the ladder
/// degrades, and the whole run completes within twice the deadline with a
/// valid k-anonymous answer and a report naming the rung. The deadline is
/// kept on a poll clock (1 ms per budget check), so it expires at the same
/// poll on every host and the test holds in debug builds too.
#[test]
fn acceptance_deadline_degrades_within_twice_the_deadline() {
    let (ds, k) = acceptance_instance();
    let deadline = Duration::from_millis(200);
    let config = LadderConfig {
        budget: Budget::builder()
            .deadline(deadline)
            .poll_clock(Duration::from_millis(1))
            .build(),
        full: sequential(),
        ..Default::default()
    };
    let (partition, report) = run_ladder(&ds, k, &config).unwrap();
    let anon = release(&ds, partition, k);

    // Each check is 1 ms on the budget's clock: the run made fewer than
    // twice the deadline's worth of checks.
    let polls = config.budget.elapsed();
    assert!(
        polls <= deadline * 2,
        "ladder took {polls:.2?} of poll clock, more than 2x the {deadline:.2?} deadline"
    );
    assert!(anon.table.is_k_anonymous(k));
    assert!(
        report.degraded(),
        "expected degradation below the top rung, got {}",
        report.rung
    );
    assert!(
        report
            .attempts
            .iter()
            .any(|a| a.rung == Rung::FullGreedyCover),
        "top rung was never attempted"
    );
    // The report names a real rung with its paper guarantee.
    assert!(!report.guarantee.is_empty());
    assert!(Rung::ALL.contains(&report.rung));
}
