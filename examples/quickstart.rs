//! Quickstart: anonymize a tiny table in a few lines.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use kanon_core::{algo, Algorithm, Budget, Dataset};

fn main() {
    // Six records, four dictionary-coded attributes.
    let dataset = Dataset::from_rows(vec![
        vec![0, 10, 1, 3],
        vec![0, 10, 1, 4],
        vec![1, 20, 2, 3],
        vec![1, 20, 2, 5],
        vec![0, 10, 1, 3],
        vec![1, 20, 2, 5],
    ])
    .expect("rectangular rows");

    // Group the rows with the strongly polynomial algorithm (Theorem 4.2),
    // then suppress each group's disagreeing cells (Corollary 4.1).
    let partition = algo::center_greedy(&dataset, 2, &Default::default(), &Budget::unlimited())
        .expect("k <= n and instance within guards");
    let result =
        algo::anonymization_from_partition(&dataset, partition, 2, Algorithm::CenterGreedy)
            .expect("a solver's groups have at least k rows");

    println!("released table ('*' = suppressed):");
    print!("{}", result.table.render());
    println!(
        "suppressed {} of {} cells ({:.1}%), {} groups",
        result.cost,
        dataset.n_cells(),
        100.0 * result.suppression_rate(),
        result.partition.n_blocks()
    );

    assert!(result.table.is_k_anonymous(2));
    println!("verified: every record matches at least one other record exactly.");
}
