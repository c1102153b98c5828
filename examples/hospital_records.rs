//! The paper's §1 hospital example, end to end.
//!
//! "Who had an X-ray at this hospital yesterday?" — four named records must
//! be released 2-anonymously. The paper shows a suppression that keeps
//! (last = Stone, race = Afr-Am) for two records and (first = John) for the
//! other two. This example runs all three solvers on the same table and
//! prints what each of them releases.
//!
//! ```text
//! cargo run --example hospital_records
//! ```

use kanon_core::{algo, exact, Algorithm, Budget};
use kanon_relation::{Schema, Table};

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

    let (dataset, codec) = table.encode();
    println!("original table:");
    println!("{}", kanon_relation::csv::to_string(&table));

    let optimum = exact::optimal(&dataset, 2).map(|opt| opt.partition);
    for (name, run, tag) in [
        (
            "exhaustive greedy (Thm 4.1)",
            algo::exhaustive_greedy(&dataset, 2, &Default::default(), &Budget::unlimited()),
            Algorithm::ExhaustiveGreedy,
        ),
        (
            "center greedy (Thm 4.2)",
            algo::center_greedy(&dataset, 2, &Default::default(), &Budget::unlimited()),
            Algorithm::CenterGreedy,
        ),
        ("exact optimum", optimum, Algorithm::Exact),
    ] {
        let partition = run.expect("4-row instance is within every guard");
        let result = algo::anonymization_from_partition(&dataset, partition, 2, tag)
            .expect("a solver's groups have at least k rows");
        println!("--- {name}: {} stars ---", result.cost);
        print!("{}", codec.decode(&result.table).expect("same codec"));
        assert!(result.table.is_k_anonymous(2));
        println!();
    }

    // The paper's hand-built solution uses 10 stars; the optimum can only
    // be at most that.
    let optimum = exact::optimal(&dataset, 2).expect("fits");
    assert!(optimum.cost <= 10);
    println!(
        "paper's hand-built 2-anonymization: 10 stars; computed optimum: {} stars",
        optimum.cost
    );
}
