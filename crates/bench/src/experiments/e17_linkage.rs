//! E17 — the paper's motivation, measured: how much re-identification does
//! k-anonymity actually prevent?
//!
//! §1's threat model is an attacker joining a released table against public
//! information on quasi-identifier attributes. This experiment synthesizes
//! census microdata, gives the attacker a public directory of (age, sex,
//! zip) for every individual, and measures the unique-linkage rate against
//! (a) the raw release and (b) k-anonymized releases for increasing k.
//! k-anonymity's defining guarantee — every record has `k−1` released
//! twins — implies the candidate set of any attacked individual who matches
//! at all has at least `k` members, so unique re-identification must drop
//! to **zero** for k ≥ 2.

use crate::report::{self, Table as Report};
use crate::Ctx;
use kanon_core::{algo, Algorithm, Budget};
use kanon_relation::{linkage_attack, Schema, Table};
use kanon_workloads::{census_table, CensusParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

const QI: [&str; 3] = ["age", "sex", "zip"];

/// Project the census table onto the quasi-identifiers.
fn qi_table(census: &Table) -> Table {
    let mut t = Table::new(Schema::new(QI.to_vec()).expect("distinct"));
    for row in census.rows() {
        let projected: Vec<String> = QI
            .iter()
            .map(|name| {
                let j = census.schema().index_of(name).expect("known");
                row[j].clone()
            })
            .collect();
        t.push_row(projected).expect("arity");
    }
    t
}

/// Runs E17.
#[must_use]
pub fn run(ctx: &Ctx) -> String {
    let n = if ctx.quick { 60 } else { 200 };
    let ks: &[usize] = if ctx.quick { &[2] } else { &[2, 5, 10] };
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xE17);
    let census = census_table(&mut rng, &CensusParams { n, regions: 6 });
    // The attacker's public directory: everyone's true QI values.
    let external = qi_table(&census);
    let pairs: Vec<(&str, &str)> = QI.iter().map(|&q| (q, q)).collect();

    let mut out = String::new();
    out.push_str("E17  linkage attack: re-identification before/after anonymization\n\n");
    let mut rep = Report::new(&[
        "release",
        "re-identified",
        "rate",
        "min candidates",
        "mean candidates",
    ]);

    // Raw release.
    let raw = linkage_attack(&external, &external, &pairs).expect("columns exist");
    rep.row(vec![
        "raw".into(),
        format!("{}/{}", raw.unique_matches, raw.attacked),
        format!("{:.1}%", 100.0 * raw.reidentification_rate()),
        raw.min_candidates.to_string(),
        report::f(raw.mean_candidates, 2),
    ]);

    let mut guarantee_violated = false;
    for &k in ks {
        let (ds, codec) = external.encode();
        let partition = algo::center_greedy(&ds, k, &Default::default(), &Budget::unlimited())
            .expect("within guards");
        let result = algo::anonymization_from_partition(&ds, partition, k, Algorithm::CenterGreedy)
            .expect("a solver's partition rounds");
        let released_csv = codec.decode(&result.table).expect("same codec");
        let released = kanon_relation::csv::parse(&released_csv).expect("own output");
        let attacked = linkage_attack(&released, &external, &pairs).expect("columns exist");
        if attacked.unique_matches > 0
            || (attacked.min_candidates > 0 && attacked.min_candidates < k)
        {
            guarantee_violated = true;
        }
        rep.row(vec![
            format!("k = {k}"),
            format!("{}/{}", attacked.unique_matches, attacked.attacked),
            format!("{:.1}%", 100.0 * attacked.reidentification_rate()),
            attacked.min_candidates.to_string(),
            report::f(attacked.mean_candidates, 2),
        ]);
    }

    out.push_str(&rep.render());
    out.push_str(&format!(
        "\nattacker joins on (age, sex, zip); n = {n}. guarantee violations: {} \
         (k-anonymity forces every non-empty candidate set to >= k).\n",
        if guarantee_violated {
            "YES — BUG"
        } else {
            "none"
        }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anonymization_eliminates_unique_linkage() {
        let report = run(&Ctx {
            quick: true,
            ..Default::default()
        });
        assert!(report.contains("guarantee violations: none"), "{report}");
        // The raw release must re-identify at least someone.
        let raw_line = report.lines().find(|l| l.starts_with("raw")).unwrap();
        assert!(!raw_line.contains(" 0/"), "{report}");
    }
}
