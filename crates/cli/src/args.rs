//! Hand-rolled argument parsing (no external parser dependency).

use crate::CliError;

/// Which solver `anonymize` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// Theorem 4.2 center greedy (default; strongly polynomial).
    #[default]
    Center,
    /// Theorem 4.1 exhaustive greedy (small instances only).
    Exhaustive,
    /// The k-forest construction from the follow-up literature.
    Forest,
    /// Exact optimum (tiny instances only).
    Exact,
    /// Degradation ladder: exhaustive → center → agglomerative, best
    /// guarantee the budget affords (auto-selected when a budget flag is
    /// given without an explicit `--algorithm`).
    Ladder,
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `kanon anonymize`.
    Anonymize {
        /// Privacy parameter.
        k: usize,
        /// Input CSV path (`-` reads stdin).
        input: String,
        /// Output CSV path (`None` = stdout).
        output: Option<String>,
        /// Solver.
        algorithm: Algorithm,
        /// Quasi-identifier column names (`None` = all columns).
        quasi: Option<Vec<String>>,
        /// Worker threads for the center greedy (1 = sequential).
        threads: usize,
        /// Optional path for the 0/1 suppression-mask audit artifact.
        emit_mask: Option<String>,
        /// Wall-clock budget in milliseconds (`None` = unlimited).
        deadline_ms: Option<u64>,
        /// Planned-allocation memory budget in MiB (`None` = unlimited).
        max_memory_mb: Option<u64>,
        /// Emit a machine-readable JSON report instead of notes + CSV.
        json: bool,
    },
    /// `kanon pipeline`: the sharded out-of-core engine for large tables.
    Pipeline {
        /// Privacy parameter.
        k: usize,
        /// Input CSV path (`-` reads stdin).
        input: String,
        /// Output CSV path (`None` = stdout).
        output: Option<String>,
        /// Target rows per shard.
        shard_size: usize,
        /// Row-to-shard assignment strategy.
        strategy: kanon_pipeline::ShardStrategy,
        /// Pinned hash-bucket count (`None` = derived from the table).
        buckets: Option<usize>,
        /// Worker threads (`None` = auto).
        workers: Option<usize>,
        /// Quasi-identifier column names. `None` selects the schema-driven
        /// auto path: infer the schema, rank a quasi-identifier, and try
        /// the generalization rung before degrading to suppression.
        quasi: Option<Vec<String>>,
        /// Hierarchy-override JSON file for the auto path (`None` derives
        /// every hierarchy from the inferred schema).
        hierarchies: Option<String>,
        /// On the auto path, also run the suppression pipeline and report
        /// both information losses side by side.
        compare: bool,
        /// Privacy model beyond k-anonymity, as a validated spec string
        /// (`l=2`, `entropy-l=2.5`, `t=0.2`, `emd-t=0.15`; `None` = plain
        /// `k`). Parsed once here for the early usage error, re-parsed at
        /// run time ([`kanon_privacy::PrivacyModel`] holds an `f64`, so it
        /// cannot ride in this `Eq` enum).
        privacy: Option<String>,
        /// Sensitive column held to the privacy model; kept out of the
        /// quasi-identifier (and the shard hash) on the solve path.
        sensitive: Option<String>,
        /// Wall-clock budget in milliseconds (`None` = unlimited).
        deadline_ms: Option<u64>,
        /// Planned-allocation memory budget in MiB (`None` = unlimited).
        max_memory_mb: Option<u64>,
        /// Emit a machine-readable JSON report instead of notes + CSV.
        json: bool,
    },
    /// `kanon delta`: incremental anonymization over a durable store.
    Delta(DeltaAction),
    /// `kanon schema`: probe/infer/verify for messy CSVs.
    Schema(SchemaAction),
    /// `kanon verify`.
    Verify {
        /// Privacy parameter to check.
        k: usize,
        /// Input CSV path (`-` reads stdin).
        input: String,
        /// Quasi-identifier column names (`None` = all columns).
        quasi: Option<Vec<String>>,
    },
    /// `kanon attack`: linkage attack a released CSV with external data.
    Attack {
        /// Released CSV path (stars/bands allowed).
        released: String,
        /// External (attacker) CSV path with raw values.
        external: String,
        /// Join columns, same names on both sides.
        join: Vec<String>,
    },
    /// `kanon generate` (synthetic sample data).
    Generate {
        /// Number of records.
        rows: usize,
        /// RNG seed.
        seed: u64,
        /// Zip-code regions (census workload only).
        regions: usize,
        /// Workload family: `census` (typed microdata) or `zipf` (skewed
        /// categorical, streamed — suited to very large `--rows`).
        workload: String,
        /// Columns (zipf workload only).
        cols: usize,
        /// Distinct values per column (zipf workload only).
        alphabet: u32,
        /// Skew exponent, parsed as f64 at execution (zipf workload only).
        exponent: String,
        /// Messy mode: semicolon delimiter, mixed column types, injected
        /// null markers — exercise for the schema toolchain.
        messy: bool,
        /// Output CSV path (`None` = stdout). The zipf workload streams
        /// row-by-row when writing to a file.
        output: Option<String>,
    },
    /// `kanon serve`: the long-running anonymization server.
    Serve {
        /// Listen address (`host:port`; port 0 picks a free port).
        addr: String,
        /// Job-solver worker threads.
        workers: usize,
        /// Bounded queue depth beyond the running jobs.
        queue_depth: usize,
        /// Global memory pool in MiB that per-job budgets lease from.
        pool_memory_mb: u64,
        /// Directory for durable tenant tables (`None` disables the
        /// `/v1/tables` endpoints).
        data_dir: Option<String>,
    },
    /// `kanon help`.
    Help,
}

/// The `kanon schema` sub-actions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaAction {
    /// `kanon schema probe`: structural detection only (delimiter,
    /// quoting, field count, record consistency).
    Probe {
        /// Input CSV path (`-` reads stdin).
        input: String,
    },
    /// `kanon schema infer`: full inference, rendering the versioned
    /// `.schema` file.
    Infer {
        /// Input CSV path (`-` reads stdin).
        input: String,
        /// `.schema` output path (`None` = stdout).
        output: Option<String>,
    },
    /// `kanon schema verify`: re-infer and diff against a stored `.schema`
    /// file; exits nonzero on drift.
    Verify {
        /// Stored `.schema` file path.
        schema: String,
        /// Input CSV path (`-` reads stdin).
        input: String,
    },
}

/// The `kanon delta` sub-actions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaAction {
    /// `kanon delta init`: create a store from a CSV table.
    Init {
        /// Store directory.
        dir: String,
        /// Privacy parameter, fixed for the store's lifetime.
        k: usize,
        /// Input CSV path (`-` reads stdin).
        input: String,
        /// Target rows per shard.
        shard_size: usize,
        /// Pinned hash-bucket count (`None` = derived from the table).
        buckets: Option<usize>,
        /// Quasi-identifier column names (`None` = all columns).
        quasi: Option<Vec<String>>,
        /// Wall-clock budget in milliseconds (`None` = unlimited).
        deadline_ms: Option<u64>,
        /// Planned-allocation memory budget in MiB (`None` = unlimited).
        max_memory_mb: Option<u64>,
        /// Emit a machine-readable JSON report instead of notes.
        json: bool,
    },
    /// `kanon delta apply`: apply an ops CSV as one atomic batch.
    Apply {
        /// Store directory.
        dir: String,
        /// Ops CSV path (`-` reads stdin).
        ops: String,
        /// Released-CSV output path (`None` = no release written).
        output: Option<String>,
        /// Wall-clock budget in milliseconds (`None` = unlimited).
        deadline_ms: Option<u64>,
        /// Planned-allocation memory budget in MiB (`None` = unlimited).
        max_memory_mb: Option<u64>,
        /// Emit a machine-readable JSON report instead of notes.
        json: bool,
    },
    /// `kanon delta status`: report store health without solving.
    Status {
        /// Store directory.
        dir: String,
        /// Emit a machine-readable JSON report instead of notes.
        json: bool,
    },
    /// `kanon delta release`: write the current released CSV.
    Release {
        /// Store directory.
        dir: String,
        /// Released-CSV output path (`None` = stdout).
        output: Option<String>,
        /// Wall-clock budget in milliseconds (`None` = unlimited).
        deadline_ms: Option<u64>,
        /// Planned-allocation memory budget in MiB (`None` = unlimited).
        max_memory_mb: Option<u64>,
    },
}

/// The usage text.
#[must_use]
pub fn usage() -> String {
    "kanon — optimal k-anonymity by entry suppression (Meyerson-Williams, PODS 2004)

USAGE:
    kanon anonymize -k <K> --input <FILE|-> [--output <FILE>]
                    [--algorithm center|exhaustive|forest|exact|ladder]
                    [--quasi col1,col2,...] [--threads N]
                    [--emit-mask <FILE>] [--json]
                    [--deadline-ms MS] [--max-memory-mb MB]
    kanon pipeline  -k <K> --input <FILE|-> [--output <FILE>]
                    [--shard-size N] [--strategy hash|sorted] [--buckets N]
                    [--workers N]
                    [--quasi col1,col2,...] [--hierarchies <FILE>]
                    [--privacy k|l=N|entropy-l=X|t=X|emd-t=X]
                    [--sensitive COL]
                    [--compare] [--json]
                    [--deadline-ms MS] [--max-memory-mb MB]
    kanon schema probe  --input <FILE|->
    kanon schema infer  --input <FILE|-> [--output <FILE.schema>]
    kanon schema verify --schema <FILE.schema> --input <FILE|->
    kanon delta init    --dir <DIR> -k <K> --input <FILE|->
                    [--shard-size N] [--buckets N] [--quasi col1,col2,...]
                    [--deadline-ms MS] [--max-memory-mb MB] [--json]
    kanon delta apply   --dir <DIR> --ops <FILE|-> [--output <FILE>]
                    [--deadline-ms MS] [--max-memory-mb MB] [--json]
    kanon delta status  --dir <DIR> [--json]
    kanon delta release --dir <DIR> [--output <FILE>]
                    [--deadline-ms MS] [--max-memory-mb MB]
    kanon verify    -k <K> --input <FILE|-> [--quasi col1,col2,...]
    kanon attack    --released <FILE> --external <FILE> --join col1,col2,...
    kanon generate  [--rows N] [--seed S] [--output <FILE>]
                    [--workload census|zipf] [--regions R] [--messy]
                    [--cols M] [--alphabet A] [--exponent E]
    kanon serve     [--addr HOST:PORT] [--workers N] [--queue-depth N]
                    [--pool-memory-mb MB] [--data-dir DIR]
    kanon help

COMMANDS:
    anonymize   Suppress a minimum of entries so every record matches
                k-1 others on the quasi-identifier columns.
    pipeline    Shard the table, solve each shard under a slice of the
                budget, and merge — scales to millions of rows (solver
                memory is bounded by --shard-size, not the table).
                Worker count precedence: --workers, then the
                RAYON_NUM_THREADS environment variable, then all available
                CPU cores. Workers take whole shards in shard order, so
                the output is the same at every worker count; --shard-size
                sets how many rows one solver sees.
                Without --quasi the run takes the schema-driven auto path:
                the delimiter and column types are inferred, a ranked
                quasi-identifier is chosen, and full-domain generalization
                (auto-derived hierarchies; override with --hierarchies
                JSON) is tried first, degrading to sharded suppression
                when the lattice cannot reach k in budget. --compare also
                runs suppression and reports both information losses.
                --privacy holds the release to a model beyond k on the
                --sensitive column (l=N distinct l-diversity,
                entropy-l=X, t=X variational t-closeness, emd-t=X ordered
                EMD); the sensitive column stays out of the
                quasi-identifier and the release is re-verified after the
                post-merge repair.
    schema      The probe -> infer -> verify toolchain for messy CSVs.
                `probe` reports delimiter/quoting/field-count structure;
                `infer` renders the versioned .schema file (column types,
                null rates, quasi-identifier ranking, snapshot hash);
                `verify` re-infers and diffs against a stored .schema,
                exiting nonzero on drift.
    delta       Incremental anonymization over a durable store (WAL +
                snapshot). `init` ingests and solves a table once;
                `apply` replays an ops CSV (header `op,id,<columns...>`,
                ops insert/delete/update) as one atomic batch, re-solving
                only the buckets it touched; `status` reports store
                health; `release` writes the current anonymized CSV —
                byte-identical to a fresh `pipeline` run on the same
                table with the store's pinned --buckets.
    verify      Check that a released CSV (with * for suppressed cells)
                is k-anonymous; reports the actual anonymity level.
    attack      Play the adversary: join a released CSV against external
                data and report how many records are uniquely linkable.
    generate    Emit a synthetic CSV for experimentation: census-like
                typed microdata, or zipf-skewed categorical data that
                streams to --output for very large --rows. --messy roughs
                the census workload up for the schema toolchain:
                semicolon delimiter, mixed types, injected null markers.
    serve       Run the anonymization server: POST /v1/anonymize submits
                a job (202 + id, or 429 + Retry-After when the queue or
                memory pool is full), GET /v1/jobs/<id> polls it, and
                GET /metrics exposes Prometheus counters. With --data-dir
                it also serves durable tables at /v1/tables/<name>
                (PUT creates from CSV, POST <name>/ops appends an atomic
                batch, GET <name>/release streams the anonymized CSV);
                on restart every table's WAL is replayed — corrupt
                tables are quarantined (503 + degraded /healthz), not
                fatal.

BUDGETS:
    --deadline-ms and --max-memory-mb bound the solver's wall-clock time and
    planned allocations. Given without --algorithm they select the `ladder`
    runner, which tries exhaustive greedy, then center greedy, then the
    agglomerative heuristic — answering with the best approximation
    guarantee the budget affords. With `center` or `exhaustive` the chosen
    solver runs governed and fails cleanly when the budget trips; `forest`
    and `exact` do not support budgets.

ENVIRONMENT:
    RAYON_NUM_THREADS   Default worker/thread count when --workers or
                        --threads is not given.
    KANON_FORCE_KERNEL  Distance-kernel override: `scalar`, `swar`, or
                        `simd` (a ceiling — falls back to swar when the
                        CPU lacks AVX2/NEON). Unset picks the best
                        kernel the CPU supports at startup.
"
    .to_string()
}

fn parse_k(value: Option<&String>) -> Result<usize, CliError> {
    value
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&k| k >= 1)
        .ok_or_else(|| CliError::Usage(format!("-k needs a positive integer\n\n{}", usage())))
}

/// Parses argv (program name excluded).
///
/// # Errors
/// [`CliError::Usage`] with usage text on any problem.
pub fn parse(argv: &[String]) -> Result<Command, CliError> {
    let mut it = argv.iter();
    let Some(cmd) = it.next() else {
        return Err(CliError::Usage(usage()));
    };
    let rest: Vec<&String> = it.collect();
    let flag = |name: &str| -> Option<&String> {
        rest.iter()
            .position(|a| *a == name)
            .and_then(|i| rest.get(i + 1).copied())
    };
    let unexpected = |allowed: &[&str], switches: &[&str]| -> Result<(), CliError> {
        let mut i = 0;
        while i < rest.len() {
            let a = rest[i].as_str();
            if switches.contains(&a) {
                i += 1; // valueless flag
            } else if allowed.contains(&a) {
                i += 2; // flag + value
            } else {
                return Err(CliError::Usage(format!(
                    "unexpected argument `{a}`\n\n{}",
                    usage()
                )));
            }
        }
        Ok(())
    };
    let has_switch = |name: &str| rest.iter().any(|a| *a == name);
    let quasi = |raw: Option<&String>| -> Option<Vec<String>> {
        raw.map(|s| {
            s.split(',')
                .map(str::trim)
                .map(ToString::to_string)
                .collect()
        })
    };

    match cmd.as_str() {
        "anonymize" => {
            unexpected(
                &[
                    "-k",
                    "--input",
                    "--output",
                    "--algorithm",
                    "--quasi",
                    "--threads",
                    "--emit-mask",
                    "--deadline-ms",
                    "--max-memory-mb",
                ],
                &["--json"],
            )?;
            let k = parse_k(flag("-k"))?;
            let input = flag("--input")
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("--input is required\n\n{}", usage())))?;
            let budget_flag = |name: &str| -> Result<Option<u64>, CliError> {
                match flag(name) {
                    None => Ok(None),
                    Some(v) => v
                        .parse::<u64>()
                        .ok()
                        .filter(|&x| x >= 1)
                        .map(Some)
                        .ok_or_else(|| {
                            CliError::Usage(format!(
                                "{name} needs a positive integer\n\n{}",
                                usage()
                            ))
                        }),
                }
            };
            let deadline_ms = budget_flag("--deadline-ms")?;
            let max_memory_mb = budget_flag("--max-memory-mb")?;
            let budgeted = deadline_ms.is_some() || max_memory_mb.is_some();
            let algorithm = match flag("--algorithm").map(String::as_str) {
                // A budget without an explicit algorithm selects the
                // degradation ladder: best guarantee the budget affords.
                None if budgeted => Algorithm::Ladder,
                None | Some("center") => Algorithm::Center,
                Some("exhaustive") => Algorithm::Exhaustive,
                Some("forest") => Algorithm::Forest,
                Some("exact") => Algorithm::Exact,
                Some("ladder") => Algorithm::Ladder,
                Some(other) => {
                    return Err(CliError::Usage(format!(
                        "unknown algorithm `{other}` (center | exhaustive | forest | exact | ladder)\n\n{}",
                        usage()
                    )))
                }
            };
            if budgeted && matches!(algorithm, Algorithm::Forest | Algorithm::Exact) {
                return Err(CliError::Usage(format!(
                    "--deadline-ms/--max-memory-mb are not supported with `forest` or `exact`; \
                     use center, exhaustive, or ladder\n\n{}",
                    usage()
                )));
            }
            let threads = match flag("--threads") {
                None => 1,
                Some(v) => v.parse::<usize>().ok().filter(|&t| t >= 1).ok_or_else(|| {
                    CliError::Usage(format!("--threads needs a positive integer\n\n{}", usage()))
                })?,
            };
            Ok(Command::Anonymize {
                k,
                input,
                output: flag("--output").cloned(),
                algorithm,
                quasi: quasi(flag("--quasi")),
                threads,
                emit_mask: flag("--emit-mask").cloned(),
                deadline_ms,
                max_memory_mb,
                json: has_switch("--json"),
            })
        }
        "pipeline" => {
            unexpected(
                &[
                    "-k",
                    "--input",
                    "--output",
                    "--shard-size",
                    "--strategy",
                    "--buckets",
                    "--workers",
                    "--quasi",
                    "--hierarchies",
                    "--privacy",
                    "--sensitive",
                    "--deadline-ms",
                    "--max-memory-mb",
                ],
                &["--json", "--compare"],
            )?;
            let k = parse_k(flag("-k"))?;
            let input = flag("--input")
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("--input is required\n\n{}", usage())))?;
            let positive = |name: &str| -> Result<Option<usize>, CliError> {
                match flag(name) {
                    None => Ok(None),
                    Some(v) => v
                        .parse::<usize>()
                        .ok()
                        .filter(|&x| x >= 1)
                        .map(Some)
                        .ok_or_else(|| {
                            CliError::Usage(format!(
                                "{name} needs a positive integer\n\n{}",
                                usage()
                            ))
                        }),
                }
            };
            let budget_flag = |name: &str| -> Result<Option<u64>, CliError> {
                Ok(positive(name)?.map(|x| x as u64))
            };
            let strategy = match flag("--strategy") {
                None => kanon_pipeline::ShardStrategy::default(),
                Some(name) => kanon_pipeline::ShardStrategy::from_name(name)
                    .map_err(|e| CliError::Usage(format!("{e}\n\n{}", usage())))?,
            };
            let privacy = match flag("--privacy") {
                None => None,
                Some(spec) => {
                    kanon_privacy::PrivacyModel::parse(spec)
                        .map_err(|e| CliError::Usage(format!("{e}\n\n{}", usage())))?;
                    Some(spec.clone())
                }
            };
            Ok(Command::Pipeline {
                k,
                input,
                output: flag("--output").cloned(),
                shard_size: positive("--shard-size")?.unwrap_or(512),
                strategy,
                buckets: positive("--buckets")?,
                workers: positive("--workers")?,
                quasi: quasi(flag("--quasi")),
                hierarchies: flag("--hierarchies").cloned(),
                compare: has_switch("--compare"),
                privacy,
                sensitive: flag("--sensitive").cloned(),
                deadline_ms: budget_flag("--deadline-ms")?,
                max_memory_mb: budget_flag("--max-memory-mb")?,
                json: has_switch("--json"),
            })
        }
        "schema" => {
            let Some(action) = rest.first().map(|s| s.as_str()) else {
                return Err(CliError::Usage(format!(
                    "schema needs an action (probe | infer | verify)\n\n{}",
                    usage()
                )));
            };
            let rest = &rest[1..];
            let flag = |name: &str| -> Option<&String> {
                rest.iter()
                    .position(|a| **a == name)
                    .and_then(|i| rest.get(i + 1).copied())
            };
            let unexpected = |allowed: &[&str]| -> Result<(), CliError> {
                let mut i = 0;
                while i < rest.len() {
                    let a = rest[i].as_str();
                    if allowed.contains(&a) {
                        i += 2;
                    } else {
                        return Err(CliError::Usage(format!(
                            "unexpected argument `{a}`\n\n{}",
                            usage()
                        )));
                    }
                }
                Ok(())
            };
            let input = || -> Result<String, CliError> {
                flag("--input")
                    .cloned()
                    .ok_or_else(|| CliError::Usage(format!("--input is required\n\n{}", usage())))
            };
            match action {
                "probe" => {
                    unexpected(&["--input"])?;
                    Ok(Command::Schema(SchemaAction::Probe { input: input()? }))
                }
                "infer" => {
                    unexpected(&["--input", "--output"])?;
                    Ok(Command::Schema(SchemaAction::Infer {
                        input: input()?,
                        output: flag("--output").cloned(),
                    }))
                }
                "verify" => {
                    unexpected(&["--schema", "--input"])?;
                    let schema = flag("--schema").cloned().ok_or_else(|| {
                        CliError::Usage(format!("--schema is required\n\n{}", usage()))
                    })?;
                    Ok(Command::Schema(SchemaAction::Verify {
                        schema,
                        input: input()?,
                    }))
                }
                other => Err(CliError::Usage(format!(
                    "unknown schema action `{other}` (probe | infer | verify)\n\n{}",
                    usage()
                ))),
            }
        }
        "delta" => {
            let Some(action) = rest.first().map(|s| s.as_str()) else {
                return Err(CliError::Usage(format!(
                    "delta needs an action (init | apply | status | release)\n\n{}",
                    usage()
                )));
            };
            // Local flag helpers over the args *after* the action word.
            let rest = &rest[1..];
            let flag = |name: &str| -> Option<&String> {
                rest.iter()
                    .position(|a| **a == name)
                    .and_then(|i| rest.get(i + 1).copied())
            };
            let has_switch = |name: &str| rest.iter().any(|a| **a == name);
            let unexpected = |allowed: &[&str], switches: &[&str]| -> Result<(), CliError> {
                let mut i = 0;
                while i < rest.len() {
                    let a = rest[i].as_str();
                    if switches.contains(&a) {
                        i += 1;
                    } else if allowed.contains(&a) {
                        i += 2;
                    } else {
                        return Err(CliError::Usage(format!(
                            "unexpected argument `{a}`\n\n{}",
                            usage()
                        )));
                    }
                }
                Ok(())
            };
            let positive = |name: &str| -> Result<Option<usize>, CliError> {
                match flag(name) {
                    None => Ok(None),
                    Some(v) => v
                        .parse::<usize>()
                        .ok()
                        .filter(|&x| x >= 1)
                        .map(Some)
                        .ok_or_else(|| {
                            CliError::Usage(format!(
                                "{name} needs a positive integer\n\n{}",
                                usage()
                            ))
                        }),
                }
            };
            let budget_flag = |name: &str| -> Result<Option<u64>, CliError> {
                Ok(positive(name)?.map(|x| x as u64))
            };
            let dir = || -> Result<String, CliError> {
                flag("--dir")
                    .cloned()
                    .ok_or_else(|| CliError::Usage(format!("--dir is required\n\n{}", usage())))
            };
            match action {
                "init" => {
                    unexpected(
                        &[
                            "--dir",
                            "-k",
                            "--input",
                            "--shard-size",
                            "--buckets",
                            "--quasi",
                            "--deadline-ms",
                            "--max-memory-mb",
                        ],
                        &["--json"],
                    )?;
                    let k = parse_k(flag("-k"))?;
                    let input = flag("--input").cloned().ok_or_else(|| {
                        CliError::Usage(format!("--input is required\n\n{}", usage()))
                    })?;
                    Ok(Command::Delta(DeltaAction::Init {
                        dir: dir()?,
                        k,
                        input,
                        shard_size: positive("--shard-size")?.unwrap_or(512),
                        buckets: positive("--buckets")?,
                        quasi: quasi(flag("--quasi")),
                        deadline_ms: budget_flag("--deadline-ms")?,
                        max_memory_mb: budget_flag("--max-memory-mb")?,
                        json: has_switch("--json"),
                    }))
                }
                "apply" => {
                    unexpected(
                        &[
                            "--dir",
                            "--ops",
                            "--output",
                            "--deadline-ms",
                            "--max-memory-mb",
                        ],
                        &["--json"],
                    )?;
                    let ops = flag("--ops").cloned().ok_or_else(|| {
                        CliError::Usage(format!("--ops is required\n\n{}", usage()))
                    })?;
                    Ok(Command::Delta(DeltaAction::Apply {
                        dir: dir()?,
                        ops,
                        output: flag("--output").cloned(),
                        deadline_ms: budget_flag("--deadline-ms")?,
                        max_memory_mb: budget_flag("--max-memory-mb")?,
                        json: has_switch("--json"),
                    }))
                }
                "status" => {
                    unexpected(&["--dir"], &["--json"])?;
                    Ok(Command::Delta(DeltaAction::Status {
                        dir: dir()?,
                        json: has_switch("--json"),
                    }))
                }
                "release" => {
                    unexpected(
                        &["--dir", "--output", "--deadline-ms", "--max-memory-mb"],
                        &[],
                    )?;
                    Ok(Command::Delta(DeltaAction::Release {
                        dir: dir()?,
                        output: flag("--output").cloned(),
                        deadline_ms: budget_flag("--deadline-ms")?,
                        max_memory_mb: budget_flag("--max-memory-mb")?,
                    }))
                }
                other => Err(CliError::Usage(format!(
                    "unknown delta action `{other}` (init | apply | status | release)\n\n{}",
                    usage()
                ))),
            }
        }
        "verify" => {
            unexpected(&["-k", "--input", "--quasi"], &[])?;
            let k = parse_k(flag("-k"))?;
            let input = flag("--input")
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("--input is required\n\n{}", usage())))?;
            Ok(Command::Verify {
                k,
                input,
                quasi: quasi(flag("--quasi")),
            })
        }
        "attack" => {
            unexpected(&["--released", "--external", "--join"], &[])?;
            let released = flag("--released")
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("--released is required\n\n{}", usage())))?;
            let external = flag("--external")
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("--external is required\n\n{}", usage())))?;
            let join = quasi(flag("--join"))
                .ok_or_else(|| CliError::Usage(format!("--join is required\n\n{}", usage())))?;
            Ok(Command::Attack {
                released,
                external,
                join,
            })
        }
        "generate" => {
            unexpected(
                &[
                    "--rows",
                    "--seed",
                    "--regions",
                    "--workload",
                    "--cols",
                    "--alphabet",
                    "--exponent",
                    "--output",
                ],
                &["--messy"],
            )?;
            let parse_or = |name: &str, default: u64| -> Result<u64, CliError> {
                match flag(name) {
                    None => Ok(default),
                    Some(v) => v.parse::<u64>().map_err(|_| {
                        CliError::Usage(format!("{name} needs an integer\n\n{}", usage()))
                    }),
                }
            };
            let workload = flag("--workload")
                .cloned()
                .unwrap_or_else(|| "census".into());
            if !matches!(workload.as_str(), "census" | "zipf") {
                return Err(CliError::Usage(format!(
                    "unknown workload `{workload}` (census | zipf)\n\n{}",
                    usage()
                )));
            }
            Ok(Command::Generate {
                rows: parse_or("--rows", 100)? as usize,
                seed: parse_or("--seed", 0)?,
                regions: parse_or("--regions", 8)? as usize,
                workload,
                cols: parse_or("--cols", 8)? as usize,
                alphabet: parse_or("--alphabet", 50)? as u32,
                exponent: flag("--exponent").cloned().unwrap_or_else(|| "1.0".into()),
                messy: has_switch("--messy"),
                output: flag("--output").cloned(),
            })
        }
        "serve" => {
            unexpected(
                &[
                    "--addr",
                    "--workers",
                    "--queue-depth",
                    "--pool-memory-mb",
                    "--data-dir",
                ],
                &[],
            )?;
            let positive = |name: &str, default: u64| -> Result<u64, CliError> {
                match flag(name) {
                    None => Ok(default),
                    Some(v) => v.parse::<u64>().ok().filter(|&x| x >= 1).ok_or_else(|| {
                        CliError::Usage(format!("{name} needs a positive integer\n\n{}", usage()))
                    }),
                }
            };
            Ok(Command::Serve {
                addr: flag("--addr")
                    .cloned()
                    .unwrap_or_else(|| "127.0.0.1:8672".into()),
                workers: positive("--workers", 4)? as usize,
                queue_depth: positive("--queue-depth", 64)? as usize,
                pool_memory_mb: positive("--pool-memory-mb", 256)?,
                data_dir: flag("--data-dir").cloned(),
            })
        }
        "help" | "-h" | "--help" => Ok(Command::Help),
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`\n\n{}",
            usage()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(ToString::to_string).collect()
    }

    #[test]
    fn parse_anonymize_full() {
        let cmd = parse(&argv(
            "anonymize -k 3 --input a.csv --output b.csv --algorithm exact --quasi age,zip",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Anonymize {
                k: 3,
                input: "a.csv".into(),
                output: Some("b.csv".into()),
                algorithm: Algorithm::Exact,
                quasi: Some(vec!["age".into(), "zip".into()]),
                threads: 1,
                emit_mask: None,
                deadline_ms: None,
                max_memory_mb: None,
                json: false,
            }
        );
    }

    #[test]
    fn parse_defaults() {
        let cmd = parse(&argv("anonymize -k 2 --input -")).unwrap();
        assert_eq!(
            cmd,
            Command::Anonymize {
                k: 2,
                input: "-".into(),
                output: None,
                algorithm: Algorithm::Center,
                quasi: None,
                threads: 1,
                emit_mask: None,
                deadline_ms: None,
                max_memory_mb: None,
                json: false,
            }
        );
        assert_eq!(
            parse(&argv("generate")).unwrap(),
            Command::Generate {
                rows: 100,
                seed: 0,
                regions: 8,
                workload: "census".into(),
                cols: 8,
                alphabet: 50,
                exponent: "1.0".into(),
                messy: false,
                output: None,
            }
        );
    }

    #[test]
    fn parse_pipeline() {
        let cmd = parse(&argv(
            "pipeline -k 5 --input big.csv --output out.csv --shard-size 1024 \
             --strategy sorted --workers 4 --quasi age,zip \
             --deadline-ms 30000 --json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Pipeline {
                k: 5,
                input: "big.csv".into(),
                output: Some("out.csv".into()),
                shard_size: 1024,
                strategy: kanon_pipeline::ShardStrategy::Sorted,
                buckets: None,
                workers: Some(4),
                quasi: Some(vec!["age".into(), "zip".into()]),
                hierarchies: None,
                compare: false,
                privacy: None,
                sensitive: None,
                deadline_ms: Some(30_000),
                max_memory_mb: None,
                json: true,
            }
        );
        // Defaults.
        let cmd = parse(&argv("pipeline -k 3 --input -")).unwrap();
        assert_eq!(
            cmd,
            Command::Pipeline {
                k: 3,
                input: "-".into(),
                output: None,
                shard_size: 512,
                strategy: kanon_pipeline::ShardStrategy::HashQuasi,
                buckets: None,
                workers: None,
                quasi: None,
                hierarchies: None,
                compare: false,
                privacy: None,
                sensitive: None,
                deadline_ms: None,
                max_memory_mb: None,
                json: false,
            }
        );
        // The auto path's knobs.
        let cmd = parse(&argv(
            "pipeline -k 3 --input messy.csv --hierarchies h.json --compare",
        ))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Pipeline {
                quasi: None,
                hierarchies: Some(ref h),
                compare: true,
                ..
            } if h == "h.json"
        ));
        // The privacy knob.
        let cmd = parse(&argv(
            "pipeline -k 3 --input t.csv --quasi age,zip --privacy l=2 --sensitive diagnosis",
        ))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Pipeline {
                privacy: Some(ref p),
                sensitive: Some(ref s),
                ..
            } if p == "l=2" && s == "diagnosis"
        ));
        let cmd = parse(&argv(
            "pipeline -k 3 --input t.csv --privacy emd-t=0.2 --sensitive d",
        ))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Pipeline {
                privacy: Some(ref p),
                ..
            } if p == "emd-t=0.2"
        ));
        // Errors.
        for bad in [
            "pipeline --input -",
            "pipeline -k 3",
            "pipeline -k 3 --input - --strategy range",
            "pipeline -k 3 --input - --shard-size 0",
            "pipeline -k 3 --input - --buckets 0",
            "pipeline -k 3 --input - --workers 0",
            "pipeline -k 3 --input - --bogus x",
            "pipeline -k 3 --input - --privacy l=1",
            "pipeline -k 3 --input - --privacy bogus",
        ] {
            assert!(
                matches!(parse(&argv(bad)), Err(CliError::Usage(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn parse_generate_zipf() {
        let cmd = parse(&argv(
            "generate --workload zipf --rows 1000 --cols 6 --alphabet 30 \
             --exponent 1.2 --seed 9 --output data.csv",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                rows: 1000,
                seed: 9,
                regions: 8,
                workload: "zipf".into(),
                cols: 6,
                alphabet: 30,
                exponent: "1.2".into(),
                messy: false,
                output: Some("data.csv".into()),
            }
        );
        assert!(matches!(
            parse(&argv("generate --workload weibull")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parse_generate_messy() {
        let cmd = parse(&argv("generate --messy --rows 500 --seed 3")).unwrap();
        assert!(matches!(
            cmd,
            Command::Generate {
                messy: true,
                rows: 500,
                seed: 3,
                ..
            }
        ));
    }

    #[test]
    fn parse_schema_actions() {
        assert_eq!(
            parse(&argv("schema probe --input messy.csv")).unwrap(),
            Command::Schema(SchemaAction::Probe {
                input: "messy.csv".into(),
            })
        );
        assert_eq!(
            parse(&argv("schema infer --input messy.csv --output t.schema")).unwrap(),
            Command::Schema(SchemaAction::Infer {
                input: "messy.csv".into(),
                output: Some("t.schema".into()),
            })
        );
        assert_eq!(
            parse(&argv("schema verify --schema t.schema --input messy.csv")).unwrap(),
            Command::Schema(SchemaAction::Verify {
                schema: "t.schema".into(),
                input: "messy.csv".into(),
            })
        );
        for bad in [
            "schema",
            "schema guess --input x",
            "schema probe",            // --input missing
            "schema verify --input x", // --schema missing
            "schema infer --input x --bogus y",
        ] {
            assert!(
                matches!(parse(&argv(bad)), Err(CliError::Usage(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(parse(&[]), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv("bogus")), Err(CliError::Usage(_))));
        assert!(matches!(
            parse(&argv("anonymize --input x")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("anonymize -k 0 --input x")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("anonymize -k 2")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("anonymize -k 2 --input x --algorithm turbo")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("verify -k 2 --input x --bogus y")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("generate --rows abc")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn budget_flags_select_the_ladder() {
        // A budget flag with no --algorithm promotes the run to the ladder.
        let cmd = parse(&argv("anonymize -k 3 --input - --deadline-ms 500")).unwrap();
        assert!(matches!(
            cmd,
            Command::Anonymize {
                algorithm: Algorithm::Ladder,
                deadline_ms: Some(500),
                max_memory_mb: None,
                ..
            }
        ));
        // An explicit governed algorithm keeps its choice.
        let cmd = parse(&argv(
            "anonymize -k 3 --input - --algorithm center --max-memory-mb 64",
        ))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Anonymize {
                algorithm: Algorithm::Center,
                max_memory_mb: Some(64),
                ..
            }
        ));
        // `ladder` is spellable without budget flags (unlimited ladder).
        let cmd = parse(&argv("anonymize -k 3 --input - --algorithm ladder")).unwrap();
        assert!(matches!(
            cmd,
            Command::Anonymize {
                algorithm: Algorithm::Ladder,
                deadline_ms: None,
                ..
            }
        ));
    }

    #[test]
    fn budget_flag_errors() {
        // Ungoverned solvers reject budget flags.
        for algo in ["forest", "exact"] {
            let err = parse(&argv(&format!(
                "anonymize -k 2 --input - --algorithm {algo} --deadline-ms 100"
            )))
            .unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{algo}");
        }
        // Budget values must be positive integers.
        for bad in [
            "anonymize -k 2 --input - --deadline-ms 0",
            "anonymize -k 2 --input - --deadline-ms soon",
            "anonymize -k 2 --input - --max-memory-mb -5",
        ] {
            assert!(
                matches!(parse(&argv(bad)), Err(CliError::Usage(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn parse_attack() {
        let cmd = parse(&argv(
            "attack --released r.csv --external e.csv --join age,zip",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Attack {
                released: "r.csv".into(),
                external: "e.csv".into(),
                join: vec!["age".into(), "zip".into()],
            }
        );
        assert!(matches!(
            parse(&argv("attack --released r.csv")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parse_serve_and_bench_serve() {
        assert_eq!(
            parse(&argv("serve")).unwrap(),
            Command::Serve {
                addr: "127.0.0.1:8672".into(),
                workers: 4,
                queue_depth: 64,
                pool_memory_mb: 256,
                data_dir: None,
            }
        );
        assert_eq!(
            parse(&argv(
                "serve --addr 0.0.0.0:9000 --workers 8 --queue-depth 16 --pool-memory-mb 512 \
                 --data-dir /tmp/tables"
            ))
            .unwrap(),
            Command::Serve {
                addr: "0.0.0.0:9000".into(),
                workers: 8,
                queue_depth: 16,
                pool_memory_mb: 512,
                data_dir: Some("/tmp/tables".into()),
            }
        );
        for bad in ["serve --workers 0", "serve --bogus x"] {
            assert!(
                matches!(parse(&argv(bad)), Err(CliError::Usage(_))),
                "{bad}"
            );
        }
        for gone in ["bench-serve", "bench-serve --requests 64 --table"] {
            assert!(
                matches!(
                    parse(&argv(gone)),
                    Err(CliError::Usage(msg)) if msg.starts_with("unknown command `bench-serve`")
                ),
                "{gone}"
            );
        }
    }

    #[test]
    fn pinned_buckets_parse_on_pipeline() {
        let cmd = parse(&argv("pipeline -k 3 --input - --buckets 250")).unwrap();
        assert!(matches!(
            cmd,
            Command::Pipeline {
                buckets: Some(250),
                ..
            }
        ));
    }

    #[test]
    fn parse_delta_actions() {
        assert_eq!(
            parse(&argv(
                "delta init --dir store -k 3 --input t.csv --shard-size 256 \
                 --buckets 100 --quasi age,zip --deadline-ms 5000 --json"
            ))
            .unwrap(),
            Command::Delta(DeltaAction::Init {
                dir: "store".into(),
                k: 3,
                input: "t.csv".into(),
                shard_size: 256,
                buckets: Some(100),
                quasi: Some(vec!["age".into(), "zip".into()]),
                deadline_ms: Some(5000),
                max_memory_mb: None,
                json: true,
            })
        );
        assert_eq!(
            parse(&argv(
                "delta apply --dir store --ops ops.csv --output out.csv"
            ))
            .unwrap(),
            Command::Delta(DeltaAction::Apply {
                dir: "store".into(),
                ops: "ops.csv".into(),
                output: Some("out.csv".into()),
                deadline_ms: None,
                max_memory_mb: None,
                json: false,
            })
        );
        assert_eq!(
            parse(&argv("delta status --dir store --json")).unwrap(),
            Command::Delta(DeltaAction::Status {
                dir: "store".into(),
                json: true,
            })
        );
        assert_eq!(
            parse(&argv("delta release --dir store")).unwrap(),
            Command::Delta(DeltaAction::Release {
                dir: "store".into(),
                output: None,
                deadline_ms: None,
                max_memory_mb: None,
            })
        );
    }

    #[test]
    fn delta_parse_errors() {
        for bad in [
            "delta",
            "delta compact --dir store",
            "delta init -k 3 --input t.csv",        // --dir missing
            "delta init --dir store --input t.csv", // -k missing
            "delta init --dir store -k 3",          // --input missing
            "delta init --dir store -k 3 --input t.csv --buckets 0",
            "delta apply --dir store", // --ops missing
            "delta apply --ops o.csv", // --dir missing
            "delta status --dir store --bogus x",
            "delta release --output out.csv",
        ] {
            assert!(
                matches!(parse(&argv(bad)), Err(CliError::Usage(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn help_variants() {
        for h in ["help", "-h", "--help"] {
            assert_eq!(parse(&argv(h)).unwrap(), Command::Help);
        }
    }
}
