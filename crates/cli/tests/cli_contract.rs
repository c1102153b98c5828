//! The `kanon` CLI contract, pinned end to end.
//!
//! Each case runs one argv through [`kanon_cli::run`] and records what a
//! caller observes: stdout, the notes destined for stderr, the error class
//! and message (class `Usage` exits 2, every other class exits 1), and the
//! bytes of every file the case wrote. The transcript must match
//! `tests/golden/cli_contract.txt` byte for byte. Regenerate it with
//! `UPDATE_GOLDEN=1`.
//!
//! Scrubbing: the scratch directory prints as `$D`, and wall-clock values
//! (`elapsed_ms`, `rows_per_sec`, the `time:`/`throughput:` notes and the
//! ladder's per-rung durations) print as `0` or `<t>`. Inside an error
//! message, the full usage text prints as `{usage}`; the `help` case pins
//! that text once.

use std::fmt::Write as _;
use std::path::Path;

use kanon_cli::{run, CliError};

mod common;

/// Four people; every algorithm answers at k = 2 in microseconds.
const PEOPLE: &str = "first,last,age,race\n\
    Harry,Stone,34,Afr-Am\n\
    John,Reyser,36,Cauc\n\
    Beatrice,Stone,47,Afr-Am\n\
    John,Ramos,22,Hisp\n";

/// A 2-anonymous release of a two-column table.
const RELEASED: &str = "age,zip\n34,021*\n34,021*\n*,02144\n*,02144\n";

/// The attacker's side information for [`RELEASED`].
const EXTERNAL: &str = "name,age,zip\nHarry,34,0213\nBea,47,02144\nJo,35,02144\n";

/// Twelve rows over two tiny columns: two hash shards at `--shard-size 5`.
const MEDIUM: &str = "a,b\n\
    x,1\ny,1\nx,1\ny,2\nx,2\ny,2\n\
    x,1\ny,1\nx,2\ny,2\nx,1\ny,1\n";

/// One atomic delta batch over [`MEDIUM`]'s store.
const OPS: &str = "op,id,a,b\ninsert,,x,1\ninsert,,y,2\ndelete,0,,\nupdate,3,x,2\n";

/// Every argv the contract pins, in order. `$D` is the scratch directory.
/// The delta cases share one store and must run in this order.
const CASES: &[&str] = &[
    // help and usage errors
    "",
    "help",
    "-h",
    "--help",
    "bogus",
    "bench-serve",
    "bench-serve --requests 64 --table",
    "anonymize --input x",
    "anonymize -k 0 --input x",
    "anonymize -k 2",
    "anonymize -k 2 --input x --algorithm turbo",
    "anonymize -k 2 --input - --algorithm forest --deadline-ms 100",
    "anonymize -k 2 --input - --algorithm exact --deadline-ms 100",
    "anonymize -k 2 --input - --deadline-ms 0",
    "anonymize -k 2 --input - --deadline-ms soon",
    "anonymize -k 2 --input - --max-memory-mb -5",
    "anonymize -k 2 --input - --threads 0",
    "anonymize -k 2 --input - stray",
    "verify -k 2 --input x --bogus y",
    "generate --rows abc",
    "generate --workload weibull",
    "pipeline --input -",
    "pipeline -k 3",
    "pipeline -k 3 --input - --strategy range",
    "pipeline -k 3 --input - --shard-size 0",
    "pipeline -k 3 --input - --buckets 0",
    "pipeline -k 3 --input - --workers 0",
    "pipeline -k 3 --input - --bogus x",
    "pipeline -k 3 --input - --privacy l=1",
    "pipeline -k 3 --input - --privacy bogus",
    "schema",
    "schema guess --input x",
    "schema probe",
    "schema verify --input x",
    "schema infer --input x --bogus y",
    "delta",
    "delta compact --dir store",
    "delta init -k 3 --input t.csv",
    "delta init --dir store --input t.csv",
    "delta init --dir store -k 3",
    "delta init --dir store -k 3 --input t.csv --buckets 0",
    "delta apply --dir store",
    "delta apply --ops o.csv",
    "delta status --dir store --bogus x",
    "delta release --output out.csv",
    "attack --released r.csv",
    "serve --workers 0",
    "serve --bogus x",
    // argv defects: a value flag with no value, and a repeated flag
    "anonymize -k 3 --input $D/people.csv --output",
    "anonymize -k 3 --input $D/people.csv --deadline-ms",
    "verify -k 2 -k 99 --input $D/released.csv",
    // anonymize: every algorithm, plain / --json / --output / --emit-mask
    "anonymize -k 2 --input $D/people.csv",
    "anonymize -k 2 --input $D/people.csv --json",
    "anonymize -k 2 --input $D/people.csv --output $D/out/a.csv",
    "anonymize -k 2 --input $D/people.csv --output $D/out/a.csv --json",
    "anonymize -k 2 --input $D/people.csv --emit-mask $D/out/mask.txt",
    "anonymize -k 2 --input $D/people.csv --algorithm exhaustive",
    "anonymize -k 2 --input $D/people.csv --algorithm exhaustive --json",
    "anonymize -k 2 --input $D/people.csv --algorithm exhaustive --output $D/out/a.csv",
    "anonymize -k 2 --input $D/people.csv --algorithm exhaustive --emit-mask $D/out/mask.txt",
    "anonymize -k 2 --input $D/people.csv --algorithm forest",
    "anonymize -k 2 --input $D/people.csv --algorithm forest --json",
    "anonymize -k 2 --input $D/people.csv --algorithm forest --output $D/out/a.csv",
    "anonymize -k 2 --input $D/people.csv --algorithm forest --emit-mask $D/out/mask.txt",
    "anonymize -k 2 --input $D/people.csv --algorithm exact",
    "anonymize -k 2 --input $D/people.csv --algorithm exact --json",
    "anonymize -k 2 --input $D/people.csv --algorithm exact --output $D/out/a.csv",
    "anonymize -k 2 --input $D/people.csv --algorithm exact --emit-mask $D/out/mask.txt",
    "anonymize -k 2 --input $D/people.csv --algorithm ladder",
    "anonymize -k 2 --input $D/people.csv --algorithm ladder --json",
    "anonymize -k 2 --input $D/people.csv --algorithm ladder --output $D/out/a.csv",
    "anonymize -k 2 --input $D/people.csv --algorithm ladder --emit-mask $D/out/mask.txt",
    "anonymize -k 2 --input $D/people.csv --output $D/out/a.csv --emit-mask $D/out/mask.txt --json",
    "anonymize -k 2 --input $D/people.csv --quasi last,age --threads 2",
    "anonymize -k 2 --input $D/people.csv --quasi age,first",
    "anonymize -k 2 --input $D/people.csv --deadline-ms 60000",
    "anonymize -k 3 --input $D/big.csv --algorithm center --max-memory-mb 1",
    "anonymize -k 3 --input $D/census.csv --algorithm ladder --json",
    // anonymize: input and argument failures
    "anonymize -k 2 --input $D/people.csv --quasi bogus",
    "anonymize -k 2 --input $D/people.csv --quasi age,age",
    "anonymize -k 5 --input $D/people.csv",
    "anonymize -k 2 --input $D/header_only.csv",
    "anonymize -k 2 --input $D/zero_bytes.csv",
    "anonymize -k 2 --input $D/ragged.csv",
    "anonymize -k 2 --input $D/missing.csv",
    "anonymize -k 2 --input $D/out --output $D/out/a.csv",
    "anonymize -k 2 --input $D/people.csv --output $D/no/such/dir.csv",
    // verify
    "verify -k 2 --input $D/released.csv",
    "verify -k 2 --input $D/released.csv --quasi age",
    "verify -k 2 --input $D/people.csv",
    "verify -k 2 --input $D/header_only.csv",
    "verify -k 2 --input $D/zero_bytes.csv",
    "verify -k 2 --input $D/people.csv --quasi bogus",
    // pipeline: explicit quasi, auto, privacy
    "pipeline -k 2 --input $D/medium.csv --quasi a,b --shard-size 5 --workers 1",
    "pipeline -k 2 --input $D/medium.csv --quasi a,b --shard-size 5 --workers 1 --json",
    "pipeline -k 2 --input $D/medium.csv --quasi a,b --shard-size 5 --workers 1 --output $D/out/p.csv",
    "pipeline -k 2 --input $D/medium.csv --quasi a,b --shard-size 5 --workers 1 --output $D/out/p.csv --json",
    "pipeline -k 2 --input $D/medium.csv --quasi a --strategy sorted --buckets 2 --workers 1",
    "pipeline -k 2 --input $D/medium.csv --shard-size 5 --workers 1",
    "pipeline -k 2 --input $D/medium.csv --shard-size 5 --workers 1 --json",
    "pipeline -k 2 --input $D/medium.csv --shard-size 5 --workers 1 --output $D/out/p.csv",
    "pipeline -k 2 --input $D/medium.csv --shard-size 5 --workers 1 --compare",
    "pipeline -k 2 --input $D/census.csv --workers 1 --quasi age,sex,zip --privacy l=2 --sensitive occupation",
    "pipeline -k 2 --input $D/census.csv --workers 1 --privacy l=2 --sensitive occupation --json",
    "pipeline -k 2 --input $D/medium.csv --quasi a --compare",
    "pipeline -k 2 --input $D/medium.csv --privacy l=2 --sensitive b --hierarchies h.json",
    "pipeline -k 2 --input $D/medium.csv --quasi bogus --workers 1",
    "pipeline -k 20 --input $D/medium.csv --quasi a --workers 1",
    "pipeline -k 2 --input $D/header_only.csv --quasi a --workers 1",
    "pipeline -k 2 --input $D/missing.csv --quasi a --workers 1",
    // attack
    "attack --released $D/released.csv --external $D/external.csv --join age,zip",
    "attack --released $D/released.csv --external $D/external.csv --join bogus",
    "attack --released $D/header_only.csv --external $D/external.csv --join a",
    // generate
    "generate --rows 5 --seed 7 --regions 3",
    "generate --rows 5 --seed 7 --output $D/out/g.csv",
    "generate --workload zipf --rows 5 --cols 3 --alphabet 4 --exponent 1.5 --seed 2",
    "generate --workload zipf --rows 5 --seed 2 --output $D/out/g.csv",
    "generate --messy --rows 5 --seed 3",
    "generate --messy --rows 5 --seed 3 --output $D/out/g.csv",
    "generate --regions 0",
    "generate --messy --regions 901",
    "generate --workload zipf --exponent -1",
    "generate --workload zipf --exponent abc",
    // schema
    "schema probe --input $D/messy.csv",
    "schema infer --input $D/messy.csv",
    "schema infer --input $D/messy.csv --output $D/out/t.schema",
    "schema verify --schema $D/messy.schema --input $D/messy.csv",
    "schema verify --schema $D/messy.schema --input $D/people.csv",
    "schema verify --schema $D/people.csv --input $D/messy.csv",
    "schema probe --input $D/missing.csv",
    // delta, in store order
    "delta init --dir $D/store -k 2 --input $D/medium.csv --shard-size 5 --quasi a,b",
    "delta status --dir $D/store",
    "delta status --dir $D/store --json",
    "delta release --dir $D/store",
    "delta apply --dir $D/store --ops $D/ops.csv --json",
    "delta release --dir $D/store --output $D/out/r.csv",
    "delta apply --dir $D/store --ops $D/ops.csv --output $D/out/r.csv",
    "delta status --dir $D/missing-store",
    "delta init --dir $D/store2 -k 2 --input $D/header_only.csv --json",
];

/// Writes the input files every case reads.
fn write_fixtures(dir: &Path) {
    let census = |rows: &str, seed: &str, regions: &str, path: &Path| {
        let argv = [
            "generate",
            "--rows",
            rows,
            "--seed",
            seed,
            "--regions",
            regions,
        ];
        let text = run(&argv.map(String::from)).unwrap().stdout;
        std::fs::write(path, text).unwrap();
    };
    std::fs::create_dir_all(dir.join("out")).unwrap();
    std::fs::write(dir.join("people.csv"), PEOPLE).unwrap();
    std::fs::write(dir.join("released.csv"), RELEASED).unwrap();
    std::fs::write(dir.join("external.csv"), EXTERNAL).unwrap();
    std::fs::write(dir.join("medium.csv"), MEDIUM).unwrap();
    std::fs::write(dir.join("ops.csv"), OPS).unwrap();
    std::fs::write(dir.join("header_only.csv"), "a,b\n").unwrap();
    std::fs::write(dir.join("zero_bytes.csv"), "").unwrap();
    std::fs::write(dir.join("ragged.csv"), "a,b\n1,2\n3\n").unwrap();
    // 60 rows at k = 3 put the full greedy cover past its candidate guard,
    // so the ladder falls back to center greedy deterministically.
    census("60", "0", "8", &dir.join("census.csv"));
    // 600 rows: the center greedy's O(n) scratch fits a 1 MiB cap, so the
    // capped run releases the uncapped table.
    census("600", "11", "5", &dir.join("big.csv"));
    let messy = ["generate", "--messy", "--rows", "40", "--seed", "4"].map(String::from);
    std::fs::write(dir.join("messy.csv"), run(&messy).unwrap().stdout).unwrap();
    let infer = ["schema", "infer", "--input"]
        .iter()
        .map(ToString::to_string)
        .chain([dir.join("messy.csv").to_string_lossy().into_owned()])
        .collect::<Vec<_>>();
    std::fs::write(dir.join("messy.schema"), run(&infer).unwrap().stdout).unwrap();
}

/// Replaces the text between `marker` and the next `until` (or the end of
/// the line) with `<t>`.
fn scrub_between(s: &str, marker: &str, until: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find(marker) {
        let after = i + marker.len();
        out.push_str(&rest[..after]);
        out.push_str("<t>");
        let tail = &rest[after..];
        let end = tail
            .find(until)
            .or_else(|| tail.find('\n'))
            .unwrap_or(tail.len());
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

fn scrub(s: &str, dir: &str) -> String {
    let s = s.replace(dir, "$D");
    let s = common::scrub_timing(&s);
    let s = scrub_between(&s, "time: ", "\n");
    let s = scrub_between(&s, "throughput: ", "\n");
    scrub_between(&s, " abandoned after ", ":")
}

/// Runs one case and renders what a caller sees.
fn transcript(case: &str, dir: &Path) -> String {
    let dir_str = dir.to_string_lossy().into_owned();
    let argv: Vec<String> = case
        .split_whitespace()
        .map(|a| a.replace("$D", &dir_str))
        .collect();
    let mut t = format!("=== kanon {case}\n");
    match run(&argv) {
        Ok(outcome) => {
            writeln!(t, "--- stdout\n{}", outcome.stdout).unwrap();
            writeln!(t, "--- notes").unwrap();
            for note in &outcome.notes {
                writeln!(t, "{note}").unwrap();
            }
            writeln!(t, "--- exit 0").unwrap();
        }
        Err(err) => {
            let class = match &err {
                CliError::Usage(_) => "Usage, exit 2",
                CliError::Failed(_) => "Failed, exit 1",
                CliError::EmptyInput => "EmptyInput, exit 1",
                CliError::BadK { .. } => "BadK, exit 1",
            };
            let usage = kanon_cli::args::usage();
            let message = err.to_string().replace(&usage, "{usage}");
            writeln!(t, "--- error ({class})\n{message}").unwrap();
        }
    }
    // Every file the case wrote, then a clean slate for the next case.
    let out = dir.join("out");
    let mut written: Vec<_> = std::fs::read_dir(&out)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    written.sort();
    for path in written {
        let bytes = std::fs::read(&path).unwrap();
        let name = path.file_name().unwrap().to_string_lossy();
        writeln!(t, "--- file {name}\n{}", String::from_utf8_lossy(&bytes)).unwrap();
        std::fs::remove_file(&path).unwrap();
    }
    scrub(&t, &dir_str)
}

#[test]
fn every_case_matches_the_contract() {
    let dir = std::env::temp_dir().join(format!("kanon-contract-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    write_fixtures(&dir);
    let actual: Vec<String> = CASES.iter().map(|case| transcript(case, &dir)).collect();
    std::fs::remove_dir_all(&dir).ok();

    let path = format!(
        "{}/tests/golden/cli_contract.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let usage = format!("=== usage\n{}\n", kanon_cli::args::usage());
        std::fs::write(&path, usage + &actual.concat()).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden `{path}`: {e}; run with UPDATE_GOLDEN=1"));
    let mut blocks = expected.split_inclusive("\n=== ").map(|b| {
        // Re-attach each block's `=== ` prefix so it reads like `actual`.
        let b = b.strip_suffix("=== ").unwrap_or(b);
        if b.starts_with("=== ") {
            b.to_string()
        } else {
            format!("=== {b}")
        }
    });
    let usage = blocks.next().expect("the golden opens with the usage text");
    assert_eq!(
        usage,
        format!("=== usage\n{}\n", kanon_cli::args::usage()),
        "usage text drifted; rerun with UPDATE_GOLDEN=1 if intentional"
    );
    let expected: Vec<String> = blocks.collect();
    assert_eq!(actual.len(), expected.len(), "case count drifted");
    for (a, e) in actual.iter().zip(&expected) {
        assert_eq!(
            a, e,
            "CLI contract drifted; rerun with UPDATE_GOLDEN=1 if intentional"
        );
    }
}
