//! E15 — extension: the three release models side by side.
//!
//! The paper's §1 example is a *generalized* table ("0-40", "R*"), but its
//! formal results cover only suppression. This experiment quantifies what
//! that modelling choice costs, comparing on census microdata:
//!
//! * **suppression** (the paper's model, Theorem 4.2 algorithm) — loss =
//!   suppressed-cell fraction (a star loses the whole cell);
//! * **full-domain generalization** (Samarati-style lattice minimum) — one
//!   level per column;
//! * **cell-level generalization** (per-group levels, the §1 table's
//!   actual shape) — the most precise of the three.
//!
//! All three are normalized to per-cell precision loss in `[0, 1]`, so the
//! expected ordering is cell-level ≤ full-domain and cell-level ≤
//! suppression.

use crate::report::{self, Table as Report};
use crate::Ctx;
use kanon_core::algo;
use kanon_core::Budget;
use kanon_relation::cellgen::{anonymize_cells, is_table_k_anonymous};
use kanon_relation::{GeneralizationLattice, Hierarchy, Schema, Table};
use kanon_workloads::{census_table, CensusParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn qi_projection(census: &Table) -> Table {
    let schema = Schema::new(vec!["age", "zip", "hours"]).expect("distinct names");
    let mut t = Table::new(schema);
    for row in census.rows() {
        t.push_row(vec![row[0].clone(), row[7].clone(), row[6].clone()])
            .expect("arity 3");
    }
    t
}

fn hierarchies() -> Vec<Hierarchy> {
    vec![
        Hierarchy::Intervals {
            widths: vec![5, 10, 20, 40, 80],
        }, // age
        Hierarchy::PrefixMask { height: 5 }, // zip
        Hierarchy::Intervals {
            widths: vec![5, 10, 20, 40],
        }, // hours
    ]
}

/// Runs E15.
#[must_use]
pub fn run(ctx: &Ctx) -> String {
    let n = if ctx.quick { 40 } else { 150 };
    let ks: &[usize] = if ctx.quick { &[3] } else { &[2, 3, 5, 10] };
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xE15);
    let census = census_table(&mut rng, &CensusParams { n, regions: 5 });
    let table = qi_projection(&census);
    let hs = hierarchies();

    let mut out = String::new();
    out.push_str("E15  release models: suppression vs full-domain vs cell-level\n");
    out.push_str("     (all numbers are per-cell precision loss in [0, 1])\n\n");
    let mut rep = Report::new(&[
        "k",
        "suppression (paper)",
        "full-domain",
        "cell-level",
        "ordering ok",
    ]);
    let mut violations = 0usize;

    for &k in ks {
        // Suppression model: star fraction.
        let (ds, _) = table.encode();
        let suppressed = algo::center_greedy(&ds, k, &Default::default(), &Budget::unlimited())
            .expect("within guards")
            .anonymization_cost(&ds);
        let supp_loss = suppressed as f64 / ds.n_cells() as f64;

        // Full-domain lattice minimum.
        let lattice = GeneralizationLattice::new(&table, hs.clone()).expect("arity matches");
        let fd_loss = match lattice
            .search_minimal(k, &Budget::unlimited())
            .expect("hierarchies apply")
        {
            Some(node) => lattice.precision_loss(&node).expect("node in range"),
            None => 1.0,
        };

        // Cell-level generalization.
        let cell = anonymize_cells(&table, &hs, k, &Default::default()).expect("valid");
        assert!(
            is_table_k_anonymous(&cell.released, k),
            "cellgen must be feasible"
        );

        let ok = cell.precision_loss <= fd_loss + 1e-9;
        if !ok {
            violations += 1;
        }
        rep.row(vec![
            k.to_string(),
            report::f(supp_loss, 3),
            report::f(fd_loss, 3),
            report::f(cell.precision_loss, 3),
            if ok { "yes".into() } else { "VIOLATED".into() },
        ]);
    }
    out.push_str(&rep.render());
    out.push_str(&format!(
        "\ncell-level <= full-domain violations: {violations} (expected 0). \
         Suppression's loss is not directly comparable cell-for-cell (a star \
         loses everything, a band only part), but the column shows why the \
         generalization-augmented model of Sec 1 releases more information.\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_level_never_worse_than_full_domain() {
        let report = run(&Ctx {
            quick: true,
            ..Default::default()
        });
        assert!(report.contains("violations: 0"), "{report}");
    }
}
