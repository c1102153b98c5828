//! Adversarial linkage-attack harness: measures what the privacy knobs
//! actually buy against the paper's §1 attacker.
//!
//! One zipf-skewed table (last column sensitive, the rest
//! quasi-identifying) is anonymized under a ladder of settings — k
//! tightening with no model, then l-diversity and t-closeness tightening
//! at fixed k — and every release is attacked with
//! [`kanon_pipeline::attack_release`], using the table's own rows as the
//! external side. Each run reports:
//!
//! - **expected_success**: the probability a uniformly-guessing attacker
//!   names the right released row (falls strictly as constraints tighten,
//!   unlike the re-identification count, which saturates at 0 for k ≥ 2);
//! - **information loss**: the suppression rate over quasi-identifier
//!   cells, on the same `[0, 1]` scale for every run, so privacy bought
//!   and utility paid sit on one curve.
//!
//! `--gate` turns the monotonicity claims into hard failures for CI:
//! within each ladder expected success must strictly decrease, every
//! k ≥ 2 release must re-identify nobody, and every constrained release
//! must pass its independent re-verification.
//!
//! ```text
//! cargo run --release -p kanon-bench --bin bench_attack -- [--quick] \
//!     [--rows N] [--out PATH] [--gate]
//! ```

use std::time::Instant;

use kanon_pipeline::{attack_release, run_csv_private_with_progress, PipelineConfig};
use kanon_privacy::PrivacyModel;
use kanon_workloads::{write_zipf_csv, ZipfParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One rung of the sweep: a label for the report, the anonymity
/// parameter, and the privacy spec (`"k"` for no model beyond k).
struct Rung {
    label: &'static str,
    k: usize,
    spec: &'static str,
}

/// The sweep, in report order. The three ladders below index into this.
const RUNGS: &[Rung] = &[
    Rung {
        label: "k=1",
        k: 1,
        spec: "k",
    },
    Rung {
        label: "k=2",
        k: 2,
        spec: "k",
    },
    Rung {
        label: "k=5",
        k: 5,
        spec: "k",
    },
    Rung {
        label: "k=10",
        k: 10,
        spec: "k",
    },
    Rung {
        label: "k=5,l=2",
        k: 5,
        spec: "l=2",
    },
    Rung {
        label: "k=5,l=4",
        k: 5,
        spec: "l=4",
    },
    Rung {
        label: "k=5,t=0.4",
        k: 5,
        spec: "t=0.4",
    },
    Rung {
        label: "k=5,t=0.2",
        k: 5,
        spec: "t=0.2",
    },
];

/// Ladders along which expected attacker success must strictly fall:
/// k alone, then l tightening at k=5, then t tightening at k=5.
const LADDERS: &[&[&str]] = &[
    &["k=1", "k=2", "k=5", "k=10"],
    &["k=5", "k=5,l=2", "k=5,l=4"],
    &["k=5", "k=5,t=0.4", "k=5,t=0.2"],
];

struct Outcome {
    label: &'static str,
    k: usize,
    spec: &'static str,
    expected_success: f64,
    reidentification: f64,
    unique_matches: usize,
    mean_candidates: f64,
    information_loss: f64,
    cost: usize,
    merges: usize,
    verified: Option<bool>,
    elapsed_ms: f64,
}

fn main() {
    let mut quick = false;
    let mut rows: Option<usize> = None;
    let mut gate = false;
    let mut out = String::from("BENCH_attack.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--gate" => gate = true,
            "--rows" => {
                rows = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--rows needs a positive integer"),
                );
            }
            "--out" => out = args.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_attack [--quick] [--rows N] [--out PATH] [--gate]");
                std::process::exit(2);
            }
        }
    }
    let rows = rows.unwrap_or(if quick { 2_000 } else { 10_000 });

    // Five columns: c0..c3 quasi-identifying, c4 sensitive. The small
    // alphabet and strong skew keep real duplicate mass in the
    // quasi-identifier (so suppression stays partial and the k rungs
    // separate), while value 0's dominance in c4 means small blocks
    // really do go sensitive-uniform and the l/t rungs have violations
    // to repair.
    let params = ZipfParams {
        n: rows,
        m: 5,
        alphabet: 6,
        exponent: 1.6,
    };
    eprintln!(
        "generating zipf CSV ({rows} rows, {} cols, c4 sensitive)...",
        params.m
    );
    let mut csv = Vec::new();
    let mut rng = StdRng::seed_from_u64(0xA77AC);
    write_zipf_csv(&mut rng, &params, &mut csv).expect("in-memory write");

    let n_quasi = params.m - 1;
    let mut outcomes: Vec<Outcome> = Vec::new();
    for rung in RUNGS {
        let model = PrivacyModel::parse(rung.spec).expect("rung specs are valid");
        let t = Instant::now();
        let run = run_csv_private_with_progress(
            csv.as_slice(),
            rung.k,
            None,
            Some("c4"),
            model,
            &PipelineConfig::default(),
            &|_| {},
        )
        .expect("sweep rung completes");
        let elapsed_ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(
            run.anonymization.table.is_k_anonymous(rung.k),
            "{}: release is not {}-anonymous",
            rung.label,
            rung.k
        );
        let report = attack_release(&run, usize::MAX).expect("attack runs");
        // Suppression rate over the quasi projection: cells starred out of
        // cells released, the unified [0, 1] utility axis.
        let information_loss = run.anonymization.cost as f64 / (rows * n_quasi) as f64;
        let (merges, verified) = match run.report.privacy.as_deref() {
            Some(p) => (p.merges, Some(p.verified)),
            None => (0, None),
        };
        eprintln!(
            "  {:>9}: success {:.4}, reident {:.4}, loss {:.4}, cost {:>6}, merges {:>3}{}",
            rung.label,
            report.expected_success,
            report.reidentification_rate(),
            information_loss,
            run.anonymization.cost,
            merges,
            match verified {
                Some(true) => ", verified",
                Some(false) => ", NOT VERIFIED",
                None => "",
            },
        );
        outcomes.push(Outcome {
            label: rung.label,
            k: rung.k,
            spec: rung.spec,
            expected_success: report.expected_success,
            reidentification: report.reidentification_rate(),
            unique_matches: report.unique_matches,
            mean_candidates: report.mean_candidates,
            information_loss,
            cost: run.anonymization.cost,
            merges,
            verified,
            elapsed_ms,
        });
    }

    let mut failures: Vec<String> = Vec::new();
    for ladder in LADDERS {
        let series: Vec<(&str, f64)> = ladder
            .iter()
            .map(|label| {
                let o = outcomes
                    .iter()
                    .find(|o| o.label == *label)
                    .expect("ladder labels come from RUNGS");
                (o.label, o.expected_success)
            })
            .collect();
        for pair in series.windows(2) {
            if pair[1].1 >= pair[0].1 {
                failures.push(format!(
                    "expected success did not fall from {} ({:.4}) to {} ({:.4})",
                    pair[0].0, pair[0].1, pair[1].0, pair[1].1
                ));
            }
        }
    }
    for o in &outcomes {
        if o.k >= 2 && o.unique_matches > 0 {
            failures.push(format!(
                "{}: {} rows re-identified from a k={} release",
                o.label, o.unique_matches, o.k
            ));
        }
        if o.verified == Some(false) {
            failures.push(format!("{}: release failed its re-verification", o.label));
        }
    }

    // Hand-rolled JSON: the workspace deliberately vendors no serde.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"harness\": \"bench_attack\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    json.push_str(&format!(
        "  \"rows\": {rows}, \"quasi_cols\": {n_quasi}, \"alphabet\": {}, \"exponent\": {}, \
         \"sensitive\": \"c4\",\n",
        params.alphabet, params.exponent
    ));
    json.push_str("  \"runs\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"label\": \"{}\", \"k\": {}, \"privacy\": \"{}\", \
             \"expected_success\": {:.6}, \"reidentification_rate\": {:.6}, \
             \"unique_matches\": {}, \"mean_candidates\": {:.2}, \
             \"information_loss\": {:.6}, \"cost\": {}, \"merges\": {}, \
             \"verified\": {}, \"elapsed_ms\": {:.1}}}{}\n",
            o.label,
            o.k,
            o.spec,
            o.expected_success,
            o.reidentification,
            o.unique_matches,
            o.mean_candidates,
            o.information_loss,
            o.cost,
            o.merges,
            match o.verified {
                Some(v) => v.to_string(),
                None => "null".to_string(),
            },
            o.elapsed_ms,
            if i + 1 == outcomes.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"gate\": {{\"checked\": {gate}, \"failures\": [{}]}}\n",
        failures
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str("}\n");
    std::fs::write(&out, &json).expect("write benchmark JSON");
    eprintln!("wrote {out}");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("ATTACK GATE{}: {f}", if gate { " FAILED" } else { "" });
        }
        if gate {
            std::process::exit(1);
        }
    }
}
