//! Golden-file tests pinning the `--json` output shape of `anonymize` and
//! `pipeline`.
//!
//! Timing fields (`elapsed_ms`, `rows_per_sec`) are scrubbed to `0` before
//! comparison; everything else — key order included — must match the files
//! under `tests/golden/` byte for byte. Regenerate a golden by running the
//! test with `UPDATE_GOLDEN=1`.

use kanon_cli::run;

mod common;

fn assert_matches_golden(actual: &str, name: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let actual = common::scrub_timing(actual);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, format!("{actual}\n")).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden `{path}`: {e}; run with UPDATE_GOLDEN=1"));
    assert_eq!(
        actual,
        expected.trim_end_matches('\n'),
        "JSON shape drifted from {name}; rerun with UPDATE_GOLDEN=1 if intentional"
    );
}

fn args(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| (*s).to_string()).collect()
}

const SMALL: &str = "age,zip\n34,02139\n35,02139\n47,02144\n48,02144\n";

/// Twelve rows over two tiny columns: enough for two hash shards at
/// `--shard-size 5` (with `k = 2` the floor is `2k - 1 = 3`), fully
/// deterministic because both the FNV hash and the solvers are.
const MEDIUM: &str = "a,b\n\
    x,1\ny,1\nx,1\ny,2\nx,2\ny,2\n\
    x,1\ny,1\nx,2\ny,2\nx,1\ny,1\n";

#[test]
fn anonymize_json_shape_is_stable() {
    let dir = std::env::temp_dir().join(format!("kanon-golden-a-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("in.csv");
    std::fs::write(&input, SMALL).unwrap();
    let outcome = run(&args(&[
        "anonymize",
        "-k",
        "2",
        "--input",
        input.to_str().unwrap(),
        "--algorithm",
        "ladder",
        "--json",
    ]))
    .unwrap();
    assert_matches_golden(&outcome.stdout, "anonymize.json");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pipeline_json_shape_is_stable() {
    let dir = std::env::temp_dir().join(format!("kanon-golden-p-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("in.csv");
    std::fs::write(&input, MEDIUM).unwrap();
    let outcome = run(&args(&[
        "pipeline",
        "-k",
        "2",
        "--input",
        input.to_str().unwrap(),
        "--quasi",
        "a,b",
        "--shard-size",
        "5",
        "--workers",
        "1",
        "--json",
    ]))
    .unwrap();
    assert_matches_golden(&outcome.stdout, "pipeline.json");
    std::fs::remove_dir_all(&dir).ok();
}

/// Without `--quasi` the pipeline takes the schema-driven auto path; its
/// JSON keeps the `"command":"pipeline"` envelope and adds `"mode"` plus a
/// `"generalization"` block inside the report.
#[test]
fn pipeline_auto_json_shape_is_stable() {
    let dir = std::env::temp_dir().join(format!("kanon-golden-g-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("in.csv");
    std::fs::write(&input, MEDIUM).unwrap();
    let outcome = run(&args(&[
        "pipeline",
        "-k",
        "2",
        "--input",
        input.to_str().unwrap(),
        "--shard-size",
        "5",
        "--workers",
        "1",
        "--json",
    ]))
    .unwrap();
    assert_matches_golden(&outcome.stdout, "pipeline_auto.json");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn json_mode_with_output_file_moves_csv_out_of_stdout() {
    let dir = std::env::temp_dir().join(format!("kanon-golden-f-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("in.csv");
    let output = dir.join("out.csv");
    std::fs::write(&input, SMALL).unwrap();
    let outcome = run(&args(&[
        "anonymize",
        "-k",
        "2",
        "--input",
        input.to_str().unwrap(),
        "--output",
        output.to_str().unwrap(),
        "--json",
    ]))
    .unwrap();
    assert!(!outcome.stdout.contains("\"csv\""), "{}", outcome.stdout);
    let released = std::fs::read_to_string(&output).unwrap();
    assert!(released.starts_with("age,zip\n"), "{released}");
    std::fs::remove_dir_all(&dir).ok();
}
