//! Beyond suppression: the generalization hierarchies of the paper's §1
//! example ("the database has been augmented to permit the proper values
//! for attributes"). Reproduces `age 34 → 20-40`-style releases via a
//! full-domain lattice search, then contrasts the result with pure
//! suppression.
//!
//! ```text
//! cargo run --example generalization
//! ```

use kanon_core::{algo, exact, Algorithm, Budget};
use kanon_relation::{csv, GeneralizationLattice, Hierarchy, Schema, Table};

fn main() {
    let schema = Schema::new(vec!["first", "last", "age", "race"]).expect("valid schema");
    let mut table = Table::new(schema);
    for row in [
        ["Harry", "Stone", "34", "Afr-Am"],
        ["John", "Reyser", "36", "Cauc"],
        ["Beatrice", "Stone", "47", "Afr-Am"],
        ["John", "Ramos", "22", "Hisp"],
    ] {
        table.push_str_row(&row).expect("arity matches");
    }

    // Admissible generalizations, per attribute (given "prior to the
    // input", as the paper requires).
    let hierarchies = vec![
        Hierarchy::SuppressOnly,             // first name: all or nothing
        Hierarchy::PrefixMask { height: 8 }, // last name: Reyser -> R*****
        Hierarchy::Intervals {
            widths: vec![20, 60],
        }, // age: 34 -> 20-39 -> 0-59
        Hierarchy::SuppressOnly,             // race
    ];
    let lattice =
        GeneralizationLattice::new(&table, hierarchies).expect("one hierarchy per column");

    let node = lattice
        .search_minimal(2, &Budget::unlimited())
        .expect("hierarchies apply cleanly")
        .expect("the top node is 2-anonymous");
    let released = lattice.generalize(&node).expect("node is in range");

    println!("minimal 2-anonymous full-domain generalization:");
    println!("  levels per column: {:?}", node.levels);
    println!(
        "  precision loss (Prec): {:.3}",
        lattice.precision_loss(&node).expect("node is in range")
    );
    println!("{}", csv::to_string(&released));
    println!(
        "note: full-domain generalization applies one level to a whole column, so it\n\
         is coarser than the paper's per-cell table; per-cell suppression (below) is\n\
         exactly the paper's model.\n"
    );

    // Cell-level generalization (the shape of the paper's actual example
    // table: each group generalizes only as far as it must).
    let cell = kanon_relation::anonymize_cells(
        &table,
        &[
            Hierarchy::SuppressOnly,
            Hierarchy::PrefixMask { height: 8 },
            Hierarchy::Intervals {
                widths: vec![20, 60],
            },
            Hierarchy::SuppressOnly,
        ],
        2,
        &Default::default(),
    )
    .expect("hierarchies apply");
    println!(
        "cell-level generalization (per-group levels), Prec = {:.3}:",
        cell.precision_loss
    );
    println!("{}", csv::to_string(&cell.released));

    // Contrast: pure suppression on the same table.
    let (dataset, codec) = table.encode();
    let optimum = exact::optimal(&dataset, 2).expect("4 rows fits").partition;
    let suppressed = algo::anonymization_from_partition(&dataset, optimum, 2, Algorithm::Exact)
        .expect("the optimum's groups have at least k rows");
    println!(
        "pure suppression (paper's model) needs {} stars:",
        suppressed.cost
    );
    print!("{}", codec.decode(&suppressed.table).expect("same codec"));
}
