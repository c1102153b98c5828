//! End-to-end pipelines spanning the relation, workloads, core, baselines,
//! and CLI crates.

use kanon_baselines::{agglomerative, knn_greedy, mondrian};
use kanon_cli::args::{Algorithm, Anonymize, Verify};
use kanon_cli::Command;
use kanon_core::{algo, Anonymization, Budget, Dataset};
use kanon_relation::csv;
use kanon_workloads::{census_table, knn_lower_bound, CensusParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The center greedy's partition, rounded into its release.
fn center(ds: &Dataset, k: usize) -> Anonymization {
    let p = algo::center_greedy(ds, k, &Default::default(), &Budget::unlimited()).unwrap();
    algo::anonymization_from_partition(ds, p, k, kanon_core::Algorithm::CenterGreedy).unwrap()
}

#[test]
fn census_to_released_csv_and_back() {
    let mut rng = StdRng::seed_from_u64(1);
    let table = census_table(&mut rng, &CensusParams { n: 80, regions: 5 });
    let (ds, codec) = table.encode();
    let k = 4;

    let result = center(&ds, k);
    assert!(result.table.is_k_anonymous(k));

    // Decode to CSV and re-parse: shape and stars must survive.
    let released_csv = codec.decode(&result.table).unwrap();
    let released = csv::parse(&released_csv).unwrap();
    assert_eq!(released.n_rows(), 80);
    assert_eq!(released.arity(), 8);
    let stars: usize = released
        .rows()
        .flat_map(|r| r.iter())
        .filter(|v| v.as_str() == "*")
        .count();
    assert_eq!(stars, result.cost);

    // Re-grouping the released strings reproduces k-anonymity.
    let mut counts = std::collections::HashMap::new();
    for row in released.rows() {
        *counts.entry(row.to_vec()).or_insert(0usize) += 1;
    }
    assert!(counts.values().all(|&c| c >= k));
}

#[test]
fn all_solvers_dominate_the_lower_bound_and_exact_dominates_all() {
    let mut rng = StdRng::seed_from_u64(2);
    let table = census_table(&mut rng, &CensusParams { n: 14, regions: 3 });
    let (ds, _) = table.encode();
    let k = 3;

    let exact = kanon_core::exact::optimal(&ds, k).unwrap().cost;
    let center = center(&ds, k).cost;
    let exhaustive = algo::exhaustive_greedy(&ds, k, &Default::default(), &Budget::unlimited())
        .unwrap()
        .anonymization_cost(&ds);
    let knn = knn_greedy(&ds, k, &Budget::unlimited())
        .unwrap()
        .anonymization_cost(&ds);
    let agg = agglomerative(&ds, k, &Budget::unlimited())
        .unwrap()
        .anonymization_cost(&ds);
    let mon = mondrian(&ds, k, &Budget::unlimited())
        .unwrap()
        .anonymization_cost(&ds);
    let lb = knn_lower_bound(&ds, k);

    for (name, cost) in [
        ("exact", exact),
        ("center", center),
        ("exhaustive", exhaustive),
        ("knn", knn),
        ("agglomerative", agg),
        ("mondrian", mon),
    ] {
        assert!(cost >= lb, "{name} cost {cost} below lower bound {lb}");
        assert!(cost >= exact, "{name} cost {cost} beats exact {exact}");
    }
}

#[test]
fn cli_anonymize_verify_roundtrip_through_files() {
    let dir = std::env::temp_dir().join(format!("kanon-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("in.csv");
    let output = dir.join("out.csv");

    let mut rng = StdRng::seed_from_u64(3);
    let table = census_table(&mut rng, &CensusParams { n: 30, regions: 3 });
    std::fs::write(&input, csv::to_string(&table)).unwrap();

    let quasi = vec!["age".to_string(), "sex".to_string(), "zip".to_string()];
    let outcome = kanon_cli::commands::execute(&Command::Anonymize(Anonymize {
        k: 3,
        input: input.to_string_lossy().into_owned(),
        output: Some(output.to_string_lossy().into_owned()),
        algorithm: Algorithm::Center,
        quasi: Some(quasi.clone()),
        threads: 2,
        emit_mask: None,
        deadline_ms: None,
        max_memory_mb: None,
        json: false,
    }))
    .unwrap();
    assert!(outcome.notes.iter().any(|n| n.contains("suppressed")));

    let verify = kanon_cli::commands::execute(&Command::Verify(Verify {
        k: 3,
        input: output.to_string_lossy().into_owned(),
        quasi: Some(quasi),
    }))
    .unwrap();
    assert!(verify.stdout.contains("anonymity level"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicate_rows_survive_every_solver_for_free() {
    // A table that is already 3-anonymous must cost 0 everywhere.
    let rows: Vec<Vec<u32>> = (0..4)
        .flat_map(|g: u32| std::iter::repeat_n(vec![g, g * 2, g * 3], 3))
        .collect();
    let ds = Dataset::from_rows(rows).unwrap();
    assert_eq!(kanon_core::exact::optimal(&ds, 3).unwrap().cost, 0);
    assert_eq!(center(&ds, 3).cost, 0);
    assert_eq!(
        algo::exhaustive_greedy(&ds, 3, &Default::default(), &Budget::unlimited())
            .unwrap()
            .anonymization_cost(&ds),
        0
    );
    assert_eq!(
        knn_greedy(&ds, 3, &Budget::unlimited())
            .unwrap()
            .anonymization_cost(&ds),
        0
    );
}

#[test]
fn generalization_and_suppression_agree_on_anonymity() {
    use kanon_relation::{GeneralizationLattice, Hierarchy, Schema, Table};
    let mut rng = StdRng::seed_from_u64(4);
    let census = census_table(&mut rng, &CensusParams { n: 40, regions: 3 });
    // Project to (age, zip) and run both models.
    let schema = Schema::new(vec!["age", "zip"]).unwrap();
    let mut t = Table::new(schema);
    for row in census.rows() {
        t.push_row(vec![row[0].clone(), row[7].clone()]).unwrap();
    }
    let lattice = GeneralizationLattice::new(
        &t,
        vec![
            // Ages run 18..=90, so the top band must span past 90 for the
            // lattice's top node to merge every row into one class.
            Hierarchy::Intervals {
                widths: vec![10, 20, 40, 160],
            },
            Hierarchy::PrefixMask { height: 5 },
        ],
    )
    .unwrap();
    let node = lattice
        .search_minimal(3, &Budget::unlimited())
        .unwrap()
        .expect("top node merges everything");
    assert!(lattice.is_k_anonymous(&node, 3).unwrap());

    let (ds, _) = t.encode();
    let suppressed = center(&ds, 3);
    assert!(suppressed.table.is_k_anonymous(3));
}
