//! Every workload in its smoke shape, untraced and traced: each run must
//! pass its own correctness checks and print exactly the metrics
//! `BENCHMARK.json` declares for that mode.

use std::process::Command;

/// Metric names declared in `BENCHMARK.json`: (end-to-end, per-layer).
fn declared() -> (Vec<String>, Vec<String>) {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits beside the benchmark directory");
    let names = |section: &str| -> Vec<String> {
        section
            .split("\"name\":")
            .skip(1)
            .map(|rest| {
                let rest = rest.trim_start().trim_start_matches('"');
                rest[..rest.find('"').expect("closing quote")].to_string()
            })
            .collect()
    };
    let e2e = text.find("\"end_to_end\"").expect("end_to_end section");
    let layers = text.find("\"per_layer\"").expect("per_layer section");
    assert!(e2e < layers, "end_to_end is expected before per_layer");
    (names(&text[e2e..layers]), names(&text[layers..]))
}

fn result_line(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_kanonbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_checks_out_in_smoke_mode() {
    let (e2e, layers) = declared();
    for workload in [
        "batch-zipf",
        "batch-messy-auto",
        "serve-jobs",
        "table-append",
    ] {
        for (trace, names) in [("0", &e2e), ("1", &layers)] {
            let line = result_line(workload, trace);
            assert!(line.starts_with("{\"correct\":true,"), "{workload}: {line}");
            assert_eq!(
                line.matches("\"unit\":").count(),
                names.len(),
                "{workload} --trace {trace} reports other metrics than declared: {line}"
            );
            for name in names {
                assert!(
                    line.contains(&format!("\"{name}\":{{\"value\":")),
                    "{workload} --trace {trace} lacks {name}: {line}"
                );
            }
        }
    }
}

/// An unknown workload is refused before anything runs.
#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_kanonbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
        ])
        .output()
        .expect("the benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
