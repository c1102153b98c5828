//! Command execution for the `kanon` binary.

use std::io::{Read, Write};

use kanon_core::{algo, Dataset};
use kanon_relation::{csv, Codec, Table};
use kanon_workloads::{census_table, CensusParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::args::{usage, usage_error, Algorithm, Anonymize, Command, Generate, Pipeline, Serve};
use crate::args::{DeltaApply, DeltaInit, DeltaRelease};
use crate::{CliError, Outcome};

/// Executes a parsed command.
///
/// # Errors
/// [`CliError::Failed`] on I/O or solver failures; [`CliError::Usage`] on
/// semantic argument problems (e.g. unknown quasi-identifier column).
pub fn execute(cmd: &Command) -> Result<Outcome, CliError> {
    match cmd {
        Command::Help => Ok(Outcome {
            stdout: usage(),
            notes: Vec::new(),
        }),
        Command::Generate(args) => generate(args),
        Command::Attack(args) => attack(
            &read_input(&args.released)?,
            &read_input(&args.external)?,
            &args.join,
        ),
        Command::Verify(args) => verify(&read_input(&args.input)?, args.k, args.quasi.as_deref()),
        Command::Anonymize(args) => anonymize(&read_input(&args.input)?, args),
        Command::Pipeline(args) => pipeline(args),
        Command::SchemaProbe(args) => schema_probe(&args.input),
        Command::SchemaInfer(args) => schema_infer(&args.input, args.output.as_deref()),
        Command::SchemaVerify(args) => schema_verify(&args.schema, &args.input),
        Command::DeltaInit(args) => delta_init(args),
        Command::DeltaApply(args) => delta_apply(args),
        Command::DeltaStatus(args) => delta_status(&args.dir, args.json),
        Command::DeltaRelease(args) => delta_release(args),
        Command::Serve(args) => serve(args),
    }
}

/// Boots the anonymization service and blocks forever. The bound address
/// is printed before blocking so scripts can wait on it.
fn serve(args: &Serve) -> Result<Outcome, CliError> {
    let pool_memory_bytes = args.pool_memory_mb * 1024 * 1024;
    let config = kanon_service::ServiceConfig {
        addr: args.addr.clone(),
        workers: args.workers,
        queue_depth: args.queue_depth,
        pool_memory_bytes,
        default_job_memory_bytes: (pool_memory_bytes / args.workers.max(1) as u64).max(1),
        data_dir: args.data_dir.as_ref().map(std::path::PathBuf::from),
        ..kanon_service::ServiceConfig::default()
    };
    let server = kanon_service::Server::start(config)
        .map_err(|e| CliError::Failed(format!("cannot start service: {e}")))?;
    // `execute` normally returns an Outcome to print, but a server has no
    // end state: announce the address on stdout directly and park.
    println!("kanon-service listening on {}", server.addr());
    loop {
        std::thread::park();
    }
}

/// Parses CSV input, rejecting tables with no data rows up front
/// ([`CliError::EmptyInput`]) so solvers never see a degenerate instance.
fn parse_table(text: &str) -> Result<Table, CliError> {
    csv::parse_non_empty(text).map_err(|e| match e {
        kanon_relation::Error::EmptyTable => CliError::EmptyInput,
        other => CliError::Failed(other.to_string()),
    })
}

/// Encodes CSV input to ingest codes, with the error classes and messages
/// [`parse_table`] gives for the same text.
fn ingest(text: &str) -> Result<(Dataset, Codec), CliError> {
    kanon_pipeline::ingest_csv(text.as_bytes()).map_err(|e| match e {
        // `ingest_csv` reports a missing header record as an empty table.
        kanon_pipeline::Error::Relation(kanon_relation::Error::EmptyTable)
            if matches!(csv::Reader::new(text.as_bytes()).read_record(), Ok(None)) =>
        {
            CliError::Failed("CSV error at line 1: missing header record".into())
        }
        kanon_pipeline::Error::Relation(kanon_relation::Error::EmptyTable) => CliError::EmptyInput,
        kanon_pipeline::Error::Relation(e) => CliError::Failed(e.to_string()),
        other => CliError::Failed(other.to_string()),
    })
}

fn read_input(path: &str) -> Result<String, CliError> {
    let mut text = String::new();
    open_input(path)?.read_to_string(&mut text).map_err(|e| {
        let source = if path == "-" {
            "stdin".into()
        } else {
            format!("`{path}`")
        };
        CliError::Failed(format!("cannot read {source}: {e}"))
    })?;
    Ok(text)
}

/// Opens an input path for streaming; `-` is stdin.
fn open_input(path: &str) -> Result<Box<dyn Read>, CliError> {
    if path == "-" {
        return Ok(Box::new(std::io::stdin().lock()));
    }
    let file = std::fs::File::open(path)
        .map_err(|e| CliError::Failed(format!("cannot read `{path}`: {e}")))?;
    Ok(Box::new(std::io::BufReader::new(file)))
}

/// Sends one payload to `--output` or back for stdout. With a path,
/// `render` streams into a `BufWriter<File>`, so a large release is never
/// held as a string; a `wrote <path>` note is added and `None` returned.
/// Without one, the rendered text is returned.
fn emit(
    output: Option<&str>,
    notes: &mut Vec<String>,
    render: impl FnOnce(&mut dyn Write) -> std::io::Result<()>,
) -> Result<Option<String>, CliError> {
    let Some(path) = output else {
        let mut buf = Vec::new();
        render(&mut buf).expect("writing to a Vec cannot fail");
        return Ok(Some(
            String::from_utf8(buf).expect("every renderer writes UTF-8"),
        ));
    };
    let cannot = |e: std::io::Error| CliError::Failed(format!("cannot write `{path}`: {e}"));
    let mut w = std::io::BufWriter::new(std::fs::File::create(path).map_err(cannot)?);
    render(&mut w).and_then(|()| w.flush()).map_err(cannot)?;
    notes.push(format!("wrote {path}"));
    Ok(None)
}

/// Emits a synthetic table: census-like microdata, its messy variant for
/// the schema toolchain, or zipf-skewed categorical rows. The messy and
/// zipf rows stream straight to `--output` however large `--rows` is.
fn generate(args: &Generate) -> Result<Outcome, CliError> {
    let (rows, seed, regions, cols) = (args.rows, args.seed, args.regions, args.cols);
    if (args.messy || args.workload == "census") && !(1..=900).contains(&regions) {
        let messy = if args.messy {
            " for the messy workload"
        } else {
            ""
        };
        return Err(usage_error(format!("--regions must be in 1..=900{messy}")));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let output = args.output.as_deref();
    let mut notes = Vec::new();
    let stdout = if args.messy {
        let params = kanon_workloads::MessyParams {
            n: rows,
            regions,
            ..kanon_workloads::MessyParams::default()
        };
        notes.push(format!(
            "generated {rows} messy rows ({regions} region(s), seed {seed})"
        ));
        emit(output, &mut notes, |mut w| {
            kanon_workloads::write_messy_csv(&mut rng, &params, &mut w)
        })?
    } else if args.workload == "zipf" {
        let exponent: f64 =
            (args.exponent.parse()).map_err(|_| usage_error("--exponent needs a number"))?;
        let alphabet = u32::try_from(args.alphabet)
            .map_err(|_| usage_error("--alphabet must be at most 4294967295"))?;
        if exponent < 0.0 || cols == 0 || alphabet == 0 {
            return Err(usage_error(
                "--exponent must be >= 0, --cols and --alphabet >= 1",
            ));
        }
        let params = kanon_workloads::ZipfParams {
            n: rows,
            m: cols,
            alphabet,
            exponent,
        };
        notes.push(format!(
            "generated {rows} zipf rows ({cols} cols, alphabet {alphabet}, exponent {exponent}, seed {seed})"
        ));
        emit(output, &mut notes, |mut w| {
            kanon_workloads::write_zipf_csv(&mut rng, &params, &mut w)
        })?
    } else {
        let table = census_table(&mut rng, &CensusParams { n: rows, regions });
        notes.push(format!(
            "generated {rows} census-like records (seed {seed})"
        ));
        let text = csv::to_string(&table);
        emit(output, &mut notes, |w| w.write_all(text.as_bytes()))?
    };
    Ok(Outcome {
        stdout: stdout.unwrap_or_default(),
        notes,
    })
}

/// Resolves quasi-identifier names to column indices (default: all).
fn quasi_indices(header: &[String], quasi: Option<&[String]>) -> Result<Vec<usize>, CliError> {
    match quasi {
        None => Ok((0..header.len()).collect()),
        Some(names) => names
            .iter()
            .map(|n| {
                header.iter().position(|h| h == n).ok_or_else(|| {
                    CliError::Usage(format!("unknown quasi-identifier column `{n}`"))
                })
            })
            .collect(),
    }
}

fn attack(released_text: &str, external_text: &str, join: &[String]) -> Result<Outcome, CliError> {
    let released = parse_table(released_text)?;
    let external = parse_table(external_text)?;
    let pairs: Vec<(&str, &str)> = join.iter().map(|c| (c.as_str(), c.as_str())).collect();
    let report = kanon_relation::linkage_attack(&released, &external, &pairs)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let stdout = format!(
        "attacked records: {}\nuniquely re-identified: {} ({:.1}%)\nno candidates: {}\nsmallest candidate set: {}\nmean candidate set: {:.2}\n",
        report.attacked,
        report.unique_matches,
        100.0 * report.reidentification_rate(),
        report.no_match,
        report.min_candidates,
        report.mean_candidates,
    );
    Ok(Outcome {
        stdout,
        notes: vec![format!(
            "joined on {} column(s): {}",
            join.len(),
            join.join(",")
        )],
    })
}

fn verify(text: &str, k: usize, quasi: Option<&[String]>) -> Result<Outcome, CliError> {
    let table = parse_table(text)?;
    if k == 0 {
        return Err(CliError::BadK {
            k,
            n: table.n_rows(),
        });
    }
    let cols = quasi_indices(table.schema().names(), quasi)?;
    let mut counts: std::collections::HashMap<Vec<&str>, usize> = std::collections::HashMap::new();
    for row in table.rows() {
        let key: Vec<&str> = cols.iter().map(|&j| row[j].as_str()).collect();
        *counts.entry(key).or_insert(0) += 1;
    }
    let level = counts.values().copied().min().unwrap_or(0);
    let stars = table
        .rows()
        .flat_map(|r| cols.iter().map(move |&j| &r[j]))
        .filter(|v| v.as_str() == "*")
        .count();
    let report = format!(
        "rows: {}\nquasi-identifier columns: {}\nanonymity level: {}\nsuppressed cells: {}\n",
        table.n_rows(),
        cols.len(),
        level,
        stars
    );
    if table.n_rows() > 0 && level < k {
        // Name the first few offending rows so the failure is actionable:
        // the first row of each under-sized group, in table order.
        let mut seen: std::collections::HashSet<Vec<&str>> = std::collections::HashSet::new();
        let mut offenders: Vec<usize> = Vec::new();
        for (i, row) in table.rows().enumerate() {
            let key: Vec<&str> = cols.iter().map(|&j| row[j].as_str()).collect();
            if counts[&key] < k && seen.insert(key) {
                offenders.push(i);
                if offenders.len() == 5 {
                    break;
                }
            }
        }
        return Err(CliError::Failed(format!(
            "{report}NOT {k}-anonymous (smallest group has {level} rows; \
             first offending rows: {offenders:?})"
        )));
    }
    Ok(Outcome {
        stdout: report,
        notes: vec![format!("{k}-anonymity holds")],
    })
}

/// Translates `--deadline-ms`/`--max-memory-mb` into a [`Budget`]. Without
/// them the budget is unlimited, which changes no solver's output.
fn build_budget(
    deadline_ms: Option<u64>,
    max_memory_mb: Option<u64>,
) -> kanon_core::govern::Budget {
    let mut b = kanon_core::govern::Budget::builder();
    if let Some(ms) = deadline_ms {
        b = b.deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(mb) = max_memory_mb {
        b = b.max_memory_bytes(mb.saturating_mul(1024 * 1024));
    }
    b.build()
}

/// One whole-table solve on ingest codes, with the solver `--algorithm`
/// names. Unlike `pipeline`, `center` and `exhaustive` fail when their
/// budget trips rather than degrading.
#[allow(clippy::too_many_lines)]
fn anonymize(text: &str, args: &Anonymize) -> Result<Outcome, CliError> {
    let (table, codec) = ingest(text)?;
    let cols = quasi_indices(codec.header(), args.quasi.as_deref())?;
    let k = args.k;
    if k == 0 || k > table.n_rows() {
        return Err(CliError::BadK {
            k,
            n: table.n_rows(),
        });
    }
    // The projection's names must be distinct, as a schema's are.
    kanon_relation::Schema::new(cols.iter().map(|&j| codec.header()[j].clone()).collect())
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let ds = table
        .project_columns(&cols)
        .expect("quasi columns come from the header");

    let started = std::time::Instant::now();
    let center_config = kanon_core::greedy::CenterConfig {
        threads: args.threads,
        ..Default::default()
    };
    let budget = build_budget(args.deadline_ms, args.max_memory_mb);
    let mut ladder_report: Option<kanon_baselines::RunReport> = None;
    let partition = match args.algorithm {
        Algorithm::Center => algo::center_greedy(&ds, k, &center_config, &budget),
        Algorithm::Exhaustive => algo::exhaustive_greedy(&ds, k, &Default::default(), &budget),
        Algorithm::Ladder => {
            let config = kanon_baselines::LadderConfig {
                budget: budget.clone(),
                center: center_config.clone(),
                ..Default::default()
            };
            kanon_baselines::run_ladder(&ds, k, &config).map(|(partition, report)| {
                ladder_report = Some(report);
                partition
            })
        }
        Algorithm::Forest => kanon_baselines::forest::forest(&ds, k, &Default::default()),
        Algorithm::Exact => kanon_core::exact::optimal(&ds, k).map(|opt| opt.partition),
    };
    let tag = kanon_core::Algorithm::External(args.algorithm.name());
    let result = partition
        .and_then(|partition| algo::anonymization_from_partition(&ds, partition, k, tag))
        .map_err(|e| {
            CliError::Failed(format!(
                "anonymization failed: {e}\nhint: `center` handles the largest instances; \
                 --deadline-ms runs the degradation ladder"
            ))
        })?;
    let elapsed = started.elapsed();

    let algo_name = match args.algorithm {
        Algorithm::Center => "center greedy (Thm 4.2)",
        Algorithm::Exhaustive => "exhaustive greedy (Thm 4.1)",
        Algorithm::Forest => "k-forest (follow-up literature)",
        Algorithm::Exact => "exact optimum",
        Algorithm::Ladder => "degradation ladder",
    };
    let mut notes = vec![
        format!("algorithm: {algo_name}"),
        format!(
            "suppressed {} of {} quasi-identifier cells ({:.1}%)",
            result.cost,
            ds.n_cells(),
            100.0 * result.suppression_rate()
        ),
        format!("groups: {}", result.partition.n_blocks()),
        format!("time: {elapsed:.2?}"),
    ];
    if let Some(report) = &ladder_report {
        for attempt in &report.attempts {
            if let kanon_baselines::RungOutcome::Failed { reason } = &attempt.outcome {
                notes.push(format!(
                    "rung {} abandoned after {:.2?}: {reason}",
                    attempt.rung, attempt.elapsed
                ));
            }
        }
        notes.push(format!(
            "ladder answered on rung {} (guarantee: {})",
            report.rung, report.guarantee
        ));
    }
    if let Some(path) = &args.emit_mask {
        std::fs::write(path, result.suppressor.to_mask_string())
            .map_err(|e| CliError::Failed(format!("cannot write `{path}`: {e}")))?;
        notes.push(format!("wrote suppression mask to {path}"));
    }
    let csv = emit(args.output.as_deref(), &mut notes, |w| {
        kanon_pipeline::write_release(&table, &codec, &cols, &result.suppressor, w)
    })?;
    if !args.json {
        return Ok(Outcome {
            stdout: csv.unwrap_or_default(),
            notes,
        });
    }
    let mut obj = kanon_pipeline::json::JsonObject::new();
    obj.string("command", "anonymize")
        .number("k", k as u128)
        .string("algorithm", args.algorithm.name())
        .number("n_rows", ds.n_rows() as u128)
        .number("quasi_cols", ds.n_cols() as u128)
        .number("groups", result.partition.n_blocks() as u128)
        .number("cost", result.cost as u128)
        .number("cells", ds.n_cells() as u128)
        .raw(
            "suppression_rate",
            &format!("{:.4}", result.suppression_rate()),
        )
        .number("elapsed_ms", elapsed.as_millis());
    if let Some(report) = &ladder_report {
        let attempts: Vec<String> = (report.attempts.iter())
            .map(|a| {
                let mut att = kanon_pipeline::json::JsonObject::new();
                att.string("rung", a.rung.name())
                    .number("elapsed_ms", a.elapsed.as_millis());
                match &a.outcome {
                    kanon_baselines::RungOutcome::Succeeded { cost } => {
                        att.string("outcome", "succeeded")
                            .number("cost", *cost as u128);
                    }
                    kanon_baselines::RungOutcome::Failed { reason } => {
                        att.string("outcome", "failed").string("reason", reason);
                    }
                }
                att.finish()
            })
            .collect();
        let mut ladder = kanon_pipeline::json::JsonObject::new();
        ladder
            .string("rung", report.rung.name())
            .string("guarantee", report.guarantee)
            .boolean("degraded", report.degraded())
            .raw("attempts", &format!("[{}]", attempts.join(",")));
        obj.raw("ladder", &ladder.finish());
    }
    if let Some(csv) = &csv {
        obj.string("csv", csv);
    }
    Ok(Outcome {
        stdout: obj.finish(),
        notes,
    })
}

/// Runs the sharded out-of-core engine: streams the input CSV, solves
/// shards under the budget, and writes the released CSV to `--output`
/// (streamed) or stdout. Without `--quasi` the run takes the schema-driven
/// auto path: infer the schema, pick a quasi-identifier, try the
/// generalization rung.
fn pipeline(args: &Pipeline) -> Result<Outcome, CliError> {
    // Already checked at arg-parse time; re-parsed here because the
    // model's f64 parameters cannot ride in the `Eq` Command enum.
    let privacy = (args.privacy.as_deref())
        .map_or(
            Ok(kanon_privacy::PrivacyModel::KOnly),
            kanon_privacy::PrivacyModel::parse,
        )
        .map_err(|e| CliError::Usage(e.to_string()))?;
    let k = args.k;
    let config = kanon_pipeline::PipelineConfig {
        shard_size: args.shard_size,
        strategy: args.strategy,
        n_buckets: args.buckets,
        workers: args.workers,
        budget: build_budget(args.deadline_ms, args.max_memory_mb),
        ..Default::default()
    };
    // With no --quasi, no privacy model beyond k and no sensitive column,
    // the run takes the schema-driven auto path. Otherwise it takes the
    // suppression path, with any sensitive column carved out of the
    // quasi-identifier.
    let private = privacy.requires_sensitive() || args.sensitive.is_some();
    if !private && args.quasi.is_none() {
        return pipeline_auto(args, &config);
    }
    if args.hierarchies.is_some() || args.compare {
        let fix = if private {
            "they cannot combine with --privacy/--sensitive"
        } else {
            "drop --quasi to use them"
        };
        return Err(usage_error(format!(
            "--hierarchies and --compare belong to the schema-driven auto \
             path; {fix}"
        )));
    }
    let run = kanon_pipeline::run_csv_private_with_progress(
        open_input(&args.input)?,
        k,
        args.quasi.as_deref(),
        args.sensitive.as_deref(),
        privacy,
        &config,
        &|_| {},
    )
    .map_err(|e| map_pipeline_error(e, k))?;
    let mut notes = vec![
        format!(
            "pipeline: {} rows in {} shard(s) (+{} residue rows), strategy {}, {} worker(s)",
            run.report.n_rows,
            run.report.n_shards(),
            run.report.residue_rows,
            run.report.strategy,
            run.report.workers,
        ),
        format!(
            "suppressed {} of {} quasi-identifier cells ({:.1}%)",
            run.report.total_cost,
            run.anonymization.table.n_rows() * run.anonymization.table.n_cols(),
            100.0 * run.anonymization.suppression_rate(),
        ),
        format!(
            "degraded shards: {} of {}",
            run.report.degraded_shards(),
            run.report.shards.len(),
        ),
        format!(
            "throughput: {:.0} rows/s in {:.2?}",
            run.report.rows_per_sec(),
            run.report.elapsed,
        ),
    ];
    if let Some(p) = &run.report.privacy {
        notes.push(format!(
            "privacy: {} on `{}` {} ({} violating block(s) before, {} merge(s), cost {} -> {})",
            p.spec,
            p.sensitive,
            if p.verified {
                "verified"
            } else {
                "NOT verified"
            },
            p.violations_before,
            p.merges,
            p.cost_before,
            p.cost_after,
        ));
    }
    let csv = emit(args.output.as_deref(), &mut notes, |w| {
        kanon_pipeline::write_release(
            &run.dataset,
            &run.codec,
            &run.quasi,
            &run.anonymization.suppressor,
            w,
        )
    })?;
    let stdout = pipeline_stdout(args.json, None, &run.report, csv);
    Ok(Outcome { stdout, notes })
}

/// The `pipeline` stdout: the released CSV, or with `--json` the engine's
/// report (plus which rung released, on the auto path) and the released
/// CSV when no `--output` captured it.
fn pipeline_stdout(
    json: bool,
    mode: Option<&str>,
    report: &kanon_pipeline::PipelineReport,
    csv: Option<String>,
) -> String {
    if !json {
        return csv.unwrap_or_default();
    }
    let mut obj = kanon_pipeline::json::JsonObject::new();
    obj.string("command", "pipeline");
    if let Some(mode) = mode {
        obj.string("mode", mode);
    }
    obj.raw("report", &report.to_json());
    if let Some(csv) = &csv {
        obj.string("csv", csv);
    }
    obj.finish()
}

/// The schema-driven auto path: probe the delimiter, infer the schema and
/// quasi-identifier, try the generalization rung, degrade to suppression.
fn pipeline_auto(
    args: &Pipeline,
    config: &kanon_pipeline::PipelineConfig,
) -> Result<Outcome, CliError> {
    let overrides = args.hierarchies.as_deref().map(read_input).transpose()?;
    let auto = kanon_pipeline::AutoConfig {
        overrides,
        compare: args.compare,
    };
    let run = kanon_pipeline::run_csv_auto(open_input(&args.input)?, args.k, config, &auto)
        .map_err(|e| map_pipeline_error(e, args.k))?;

    let quasi_names: Vec<&str> = run
        .quasi
        .iter()
        .map(|&j| run.codec.header()[j].as_str())
        .collect();
    let mut notes = vec![format!(
        "schema: delimiter `{}`, {} column(s), quasi-identifier: {}",
        char::from(run.schema.delimiter),
        run.schema.columns.len(),
        quasi_names.join(","),
    )];
    let mode = match &run.outcome {
        kanon_pipeline::AutoOutcome::Generalized(g) => {
            let gen = run
                .report
                .generalization
                .as_ref()
                .expect("generalized runs carry a generalization report");
            notes.push(format!(
                "generalization rung answered at levels {:?} of heights {:?} \
                 (precision loss {:.4})",
                gen.levels, gen.heights, g.precision_loss,
            ));
            if let Some(supp) = gen.suppression_loss {
                notes.push(format!(
                    "information loss: generalization {:.4} vs suppression {:.4}",
                    run.report.information_loss(),
                    supp,
                ));
            }
            "generalization"
        }
        kanon_pipeline::AutoOutcome::Suppressed {
            anonymization,
            reason,
        } => {
            notes.push(format!("generalization rung declined: {reason}"));
            notes.push(format!(
                "suppressed {} of {} quasi-identifier cells ({:.1}%)",
                anonymization.cost,
                anonymization.table.n_rows() * anonymization.table.n_cols(),
                100.0 * anonymization.suppression_rate(),
            ));
            "suppression"
        }
    };
    let csv = emit(args.output.as_deref(), &mut notes, |w| run.write_release(w))?;
    let stdout = pipeline_stdout(args.json, Some(mode), &run.report, csv);
    Ok(Outcome { stdout, notes })
}

/// Samples an input for the schema toolchain. It works on a bounded byte
/// sample, so even `probe` on a multi-gigabyte file reads at most
/// `SAMPLE_BYTES`; the flag says whether the sample was cut there.
fn sample_of(path: &str) -> Result<(Vec<u8>, bool), CliError> {
    let sample = kanon_schema::read_sample(&mut open_input(path)?)
        .map_err(|e| CliError::Failed(format!("cannot read `{path}`: {e}")))?;
    let truncated = sample.len() == kanon_schema::probe::SAMPLE_BYTES;
    Ok((sample, truncated))
}

fn infer_schema(path: &str) -> Result<kanon_schema::InferredSchema, CliError> {
    let (sample, truncated) = sample_of(path)?;
    kanon_schema::infer_bytes(&sample, truncated, kanon_schema::infer::DEFAULT_SAMPLE_ROWS)
        .map_err(|e| CliError::Failed(format!("schema inference failed: {e}")))
}

/// `kanon schema probe`: delimiter, quoting and field-count structure.
fn schema_probe(input: &str) -> Result<Outcome, CliError> {
    let (sample, truncated) = sample_of(input)?;
    let probe = kanon_schema::probe_bytes(&sample, truncated)
        .map_err(|e| CliError::Failed(format!("probe failed: {e}")))?;
    let stdout = format!(
        "delimiter: {}\nfields per record: {}\nlines sampled: {}\n\
         consistency: {:.3}\nquoted fields: {}\n",
        probe.delimiter_name(),
        probe.n_fields,
        probe.lines_sampled,
        probe.consistency,
        if probe.quoted { "yes" } else { "no" },
    );
    Ok(Outcome {
        stdout,
        notes: Vec::new(),
    })
}

/// `kanon schema infer`: renders the versioned `.schema` file.
fn schema_infer(input: &str, output: Option<&str>) -> Result<Outcome, CliError> {
    let schema = infer_schema(input)?;
    let text = kanon_schema::render_schema_file(&schema);
    let suggestion = schema.quasi_suggestion();
    let mut notes = vec![format!(
        "inferred {} column(s) from {} sampled row(s) ({} ragged)",
        schema.columns.len(),
        schema.rows_sampled,
        schema.ragged_rows,
    )];
    notes.push(if suggestion.is_empty() {
        "no quasi-identifier suggestion (no column carries signal)".to_string()
    } else {
        format!(
            "suggested quasi-identifier (ranked): {}",
            suggestion.join(",")
        )
    });
    let screening = schema.sensitive_screening();
    notes.push(if screening.is_empty() {
        "no sensitive-column candidate (no repeating column supports l >= 2)".to_string()
    } else {
        format!(
            "sensitive-column candidates (ranked, distinct l / entropy l): {}",
            screening
                .iter()
                .map(|c| format!("{} ({} / {:.1})", c.name, c.max_distinct_l, c.effective_l))
                .collect::<Vec<_>>()
                .join(", ")
        )
    });
    let stdout = emit(output, &mut notes, |w| w.write_all(text.as_bytes()))?;
    Ok(Outcome {
        stdout: stdout.unwrap_or_default(),
        notes,
    })
}

/// `kanon schema verify`: re-infers and diffs against a stored `.schema`.
fn schema_verify(schema: &str, input: &str) -> Result<Outcome, CliError> {
    let stored_text = read_input(schema)?;
    let stored = kanon_schema::parse_schema_file(&stored_text)
        .map_err(|e| CliError::Failed(format!("bad schema file `{schema}`: {e}")))?;
    let current = infer_schema(input)?;
    match kanon_schema::verify(&stored.schema, &current) {
        Ok(kanon_schema::VerifyReport::Exact) => Ok(Outcome {
            stdout: "schema verified: exact match\n".to_string(),
            notes: Vec::new(),
        }),
        Ok(kanon_schema::VerifyReport::StatsChanged(changes)) => Ok(Outcome {
            stdout: format!(
                "schema verified: structure unchanged, {} stat(s) moved\n{}\n",
                changes.len(),
                changes.join("\n"),
            ),
            notes: Vec::new(),
        }),
        // Drift exits nonzero so CI and cron jobs can gate on it.
        Err(kanon_schema::Error::Drift(reasons)) => Err(CliError::Failed(format!(
            "schema drift detected:\n{}",
            reasons.join("\n"),
        ))),
        Err(e) => Err(CliError::Failed(format!("verify failed: {e}"))),
    }
}

/// Maps pipeline-layer errors onto CLI exit classes; shared by the
/// `pipeline` and `delta` commands.
fn map_pipeline_error(e: kanon_pipeline::Error, k: usize) -> CliError {
    match e {
        kanon_pipeline::Error::Relation(kanon_relation::Error::EmptyTable) => CliError::EmptyInput,
        kanon_pipeline::Error::Relation(kanon_relation::Error::UnknownAttribute(name)) => {
            CliError::Usage(format!("unknown quasi-identifier column `{name}`"))
        }
        kanon_pipeline::Error::Core(kanon_core::Error::KZero) => CliError::BadK { k, n: 0 },
        kanon_pipeline::Error::Core(kanon_core::Error::KExceedsRows { k, n }) => {
            CliError::BadK { k, n }
        }
        kanon_pipeline::Error::Config(msg) => CliError::Usage(msg),
        kanon_pipeline::Error::Delta(msg) => CliError::Failed(format!("delta rejected: {msg}")),
        e @ kanon_pipeline::Error::UnknownColumn { .. } => CliError::Usage(e.to_string()),
        kanon_pipeline::Error::Privacy(e) => match e {
            // Both are user declarations to fix, not run failures.
            kanon_privacy::Error::SensitiveIsQuasi { .. } | kanon_privacy::Error::Spec(_) => {
                CliError::Usage(e.to_string())
            }
            other => CliError::Failed(format!("privacy constraint failed: {other}")),
        },
        kanon_pipeline::Error::Schema(kanon_schema::Error::Override(msg)) => {
            CliError::Usage(format!("bad --hierarchies override: {msg}"))
        }
        kanon_pipeline::Error::Schema(e) => {
            CliError::Failed(format!("schema inference failed: {e}"))
        }
        other => CliError::Failed(format!("pipeline failed: {other}")),
    }
}

fn open_store(
    dir: &str,
    deadline_ms: Option<u64>,
    max_memory_mb: Option<u64>,
) -> Result<kanon_pipeline::DeltaStore, CliError> {
    kanon_pipeline::DeltaStore::open(dir, build_budget(deadline_ms, max_memory_mb))
        .map_err(|e| map_pipeline_error(e, 0))
}

/// `kanon delta init`: ingests and solves a table into a new store.
fn delta_init(args: &DeltaInit) -> Result<Outcome, CliError> {
    let config = kanon_pipeline::DeltaConfig {
        k: args.k,
        shard_size: args.shard_size,
        n_buckets: args.buckets,
        quasi: args.quasi.clone(),
        budget: build_budget(args.deadline_ms, args.max_memory_mb),
    };
    let store = kanon_pipeline::DeltaStore::init(&args.dir, open_input(&args.input)?, &config)
        .map_err(|e| map_pipeline_error(e, args.k))?;
    let status = store.status();
    let notes = vec![format!(
        "initialized delta store at {}: {} rows, k={}, {} bucket(s), shard size {}",
        args.dir, status.n_rows, status.k, status.n_buckets, status.shard_size,
    )];
    let stdout = if args.json {
        status.to_json()
    } else {
        String::new()
    };
    Ok(Outcome { stdout, notes })
}

/// `kanon delta apply`: replays an ops CSV as one atomic batch.
fn delta_apply(args: &DeltaApply) -> Result<Outcome, CliError> {
    let mut store = open_store(&args.dir, args.deadline_ms, args.max_memory_mb)?;
    let k = store.k();
    let parsed = (store.parse_ops(open_input(&args.ops)?)).map_err(|e| map_pipeline_error(e, k))?;
    let report = store.apply(&parsed).map_err(|e| map_pipeline_error(e, k))?;
    let mut notes = vec![
        format!(
            "batch {}: +{} -{} ~{} → {} rows",
            report.seq, report.inserted, report.deleted, report.updated, report.n_rows,
        ),
        format!(
            "re-solved {} unit(s) / {} row(s) of {} ({:.1}%), total cost {}",
            report.resolved_units,
            report.resolved_rows,
            report.n_rows,
            100.0 * report.resolved_rows as f64 / report.n_rows.max(1) as f64,
            report.total_cost,
        ),
    ];
    if args.output.is_some() {
        let release = store.release().map_err(|e| map_pipeline_error(e, k))?;
        emit(args.output.as_deref(), &mut notes, |w| release.write_csv(w))?;
    }
    let stdout = if args.json {
        report.to_json()
    } else {
        String::new()
    };
    Ok(Outcome { stdout, notes })
}

/// `kanon delta status`: store health, without solving.
fn delta_status(dir: &str, json: bool) -> Result<Outcome, CliError> {
    let status = open_store(dir, None, None)?.status();
    let stdout = if json {
        status.to_json()
    } else {
        let cost = status
            .total_cost
            .map_or_else(|| "unknown (dirty)".to_string(), |c| c.to_string());
        format!(
            "{} rows, k={}, seq {}, {} bucket(s), {} cached / {} dirty unit(s), \
             wal {} B, total cost {cost}",
            status.n_rows,
            status.k,
            status.seq,
            status.n_buckets,
            status.cached_units,
            status.dirty_units,
            status.wal_bytes,
        )
    };
    Ok(Outcome {
        stdout,
        notes: Vec::new(),
    })
}

/// `kanon delta release`: writes the current anonymized CSV.
fn delta_release(args: &DeltaRelease) -> Result<Outcome, CliError> {
    let mut store = open_store(&args.dir, args.deadline_ms, args.max_memory_mb)?;
    let k = store.k();
    let release = store.release().map_err(|e| map_pipeline_error(e, k))?;
    let mut notes = Vec::new();
    let stdout = emit(args.output.as_deref(), &mut notes, |w| release.write_csv(w))?;
    Ok(Outcome {
        stdout: stdout.unwrap_or_default(),
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plain `anonymize` run on in-memory text: CSV on stdout, no files.
    fn anonymize_plain(
        text: &str,
        k: usize,
        algorithm: Algorithm,
        quasi: Option<&[String]>,
        threads: usize,
        deadline_ms: Option<u64>,
        max_memory_mb: Option<u64>,
    ) -> Result<Outcome, CliError> {
        let args = Anonymize {
            k,
            input: "-".into(),
            output: None,
            algorithm,
            quasi: quasi.map(<[String]>::to_vec),
            threads,
            emit_mask: None,
            deadline_ms,
            max_memory_mb,
            json: false,
        };
        anonymize(text, &args)
    }

    /// The census workload at the given size, seed and region count.
    fn generate_census(rows: usize, seed: u64, regions: usize) -> Result<Outcome, CliError> {
        generate(&Generate {
            rows,
            seed,
            regions,
            workload: "census".into(),
            cols: 8,
            alphabet: 50,
            exponent: "1.0".into(),
            messy: false,
            output: None,
        })
    }

    const SAMPLE: &str = "first,last,age,race\n\
        Harry,Stone,34,Afr-Am\n\
        John,Reyser,36,Cauc\n\
        Beatrice,Stone,47,Afr-Am\n\
        John,Ramos,22,Hisp\n";

    #[test]
    fn anonymize_then_verify_roundtrip() {
        let out = anonymize_plain(SAMPLE, 2, Algorithm::Exact, None, 1, None, None).unwrap();
        assert!(out.stdout.contains('*'));
        let verified = verify(&out.stdout, 2, None).unwrap();
        assert!(verified.stdout.contains("anonymity level: 2"));
    }

    #[test]
    fn quasi_columns_keep_sensitive_data() {
        let quasi: Vec<String> = vec!["first".into(), "last".into(), "age".into()];
        let out =
            anonymize_plain(SAMPLE, 2, Algorithm::Center, Some(&quasi), 1, None, None).unwrap();
        // Race column survives untouched.
        for race in ["Afr-Am", "Cauc", "Hisp"] {
            assert!(out.stdout.contains(race), "{}", out.stdout);
        }
        let verified = verify(&out.stdout, 2, Some(&quasi)).unwrap();
        assert!(verified.stdout.contains("anonymity level:"));
    }

    #[test]
    fn verify_rejects_raw_table() {
        let err = verify(SAMPLE, 2, None).unwrap_err();
        assert!(matches!(err, CliError::Failed(_)));
        assert!(err.to_string().contains("NOT 2-anonymous"));
        // The diagnostic names the offending rows (all four are unique).
        assert!(
            err.to_string()
                .contains("first offending rows: [0, 1, 2, 3]"),
            "{err}"
        );
    }

    #[test]
    fn emit_mask_roundtrips_through_execute() {
        let dir = std::env::temp_dir().join(format!("kanon-mask-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.csv");
        let mask_path = dir.join("mask.txt");
        std::fs::write(&input, SAMPLE).unwrap();
        let outcome = execute(&Command::Anonymize(Anonymize {
            k: 2,
            input: input.to_string_lossy().into_owned(),
            output: None,
            algorithm: Algorithm::Exact,
            quasi: None,
            threads: 1,
            emit_mask: Some(mask_path.to_string_lossy().into_owned()),
            deadline_ms: None,
            max_memory_mb: None,
            json: false,
        }))
        .unwrap();
        assert!(outcome.notes.iter().any(|n| n.contains("suppression mask")));
        let mask_text = std::fs::read_to_string(&mask_path).unwrap();
        let mask = kanon_core::Suppressor::from_mask_string(&mask_text).unwrap();
        assert_eq!(mask.n_rows(), 4);
        // Re-applying the stored mask to the original data reproduces a
        // 2-anonymous release with the same star count.
        let table = csv::parse(SAMPLE).unwrap();
        let (ds, _) = {
            let mut qi = Table::new(table.schema().clone());
            for row in table.rows() {
                qi.push_row(row.to_vec()).unwrap();
            }
            qi.encode()
        };
        let released = mask.apply(&ds).unwrap();
        assert!(released.is_k_anonymous(2));
        assert_eq!(released.suppressed_cells(), mask.cost());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_quasi_column_is_usage_error() {
        let quasi: Vec<String> = vec!["bogus".into()];
        let err =
            anonymize_plain(SAMPLE, 2, Algorithm::Center, Some(&quasi), 1, None, None).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn too_few_rows_is_bad_k() {
        let err = anonymize_plain("a\nx\n", 3, Algorithm::Center, None, 1, None, None).unwrap_err();
        assert_eq!(err, CliError::BadK { k: 3, n: 1 });
        assert!(err.to_string().contains("k = 3 is infeasible"));
    }

    #[test]
    fn empty_table_is_rejected_everywhere() {
        let header_only = "a,b\n";
        let err =
            anonymize_plain(header_only, 2, Algorithm::Center, None, 1, None, None).unwrap_err();
        assert_eq!(err, CliError::EmptyInput);
        assert_eq!(
            verify(header_only, 2, None).unwrap_err(),
            CliError::EmptyInput
        );
        assert_eq!(
            attack(header_only, "a,b\n1,2\n", &["a".into()]).unwrap_err(),
            CliError::EmptyInput
        );
        // Zero bytes carry no header record, and both paths say so.
        let no_header = CliError::Failed("CSV error at line 1: missing header record".into());
        let err = anonymize_plain("", 2, Algorithm::Center, None, 1, None, None).unwrap_err();
        assert_eq!(err, no_header);
        assert_eq!(verify("", 2, None).unwrap_err(), no_header);
    }

    #[test]
    fn ladder_with_unlimited_budget_matches_exhaustive() {
        let ladder_out =
            anonymize_plain(SAMPLE, 2, Algorithm::Ladder, None, 1, None, None).unwrap();
        let direct_out =
            anonymize_plain(SAMPLE, 2, Algorithm::Exhaustive, None, 1, None, None).unwrap();
        assert_eq!(ladder_out.stdout, direct_out.stdout);
        assert!(ladder_out
            .notes
            .iter()
            .any(|n| n.contains("rung full-greedy-cover")));
    }

    #[test]
    fn governed_center_with_roomy_deadline_succeeds() {
        let out =
            anonymize_plain(SAMPLE, 2, Algorithm::Center, None, 1, Some(60_000), None).unwrap();
        assert!(verify(&out.stdout, 2, None).is_ok());
    }

    #[test]
    fn tiny_memory_budget_fails_deterministically() {
        // 40 rows, k = 3: the exhaustive greedy's ~759k candidates pass its
        // 2M-candidate guard, but their planned arena (tens of MiB) cannot
        // fit in the smallest spellable cap of 1 MiB, so the governed run
        // must fail with a structured budget error — no timing involved.
        let data = generate_census(40, 11, 5).unwrap().stdout;
        let err =
            anonymize_plain(&data, 3, Algorithm::Exhaustive, None, 1, None, Some(1)).unwrap_err();
        assert!(
            err.to_string().contains("budget exceeded") && err.to_string().contains("memory"),
            "{err}"
        );
    }

    #[test]
    fn generate_emits_parseable_csv() {
        let out = generate_census(25, 7, 4).unwrap();
        let parsed = csv::parse(&out.stdout).unwrap();
        assert_eq!(parsed.n_rows(), 25);
        assert_eq!(parsed.arity(), 8);
        assert!(generate_census(1, 0, 0).is_err());
    }

    #[test]
    fn generated_data_anonymizes_end_to_end() {
        let data = generate_census(40, 3, 3).unwrap().stdout;
        let quasi: Vec<String> = vec!["age".into(), "sex".into(), "race".into(), "zip".into()];
        let out =
            anonymize_plain(&data, 3, Algorithm::Center, Some(&quasi), 2, None, None).unwrap();
        assert!(verify(&out.stdout, 3, Some(&quasi)).is_ok());
    }

    #[test]
    fn execute_help_and_generate() {
        let help = execute(&Command::Help).unwrap();
        assert!(help.stdout.contains("USAGE"));
        let gen = execute(&Command::Generate(Generate {
            rows: 5,
            seed: 1,
            regions: 2,
            workload: "census".into(),
            cols: 8,
            alphabet: 50,
            exponent: "1.0".into(),
            messy: false,
            output: None,
        }))
        .unwrap();
        assert!(gen.stdout.starts_with("age,sex"));
    }

    #[test]
    fn attack_reports_unique_linkage() {
        let released = "age,zip\n34,02139\n47,02144\n";
        let external = "name,age,zip\nHarry,34,02139\nBea,47,02144\n";
        let out = attack(released, external, &["age".into(), "zip".into()]).unwrap();
        assert!(
            out.stdout.contains("uniquely re-identified: 2 (100.0%)"),
            "{}",
            out.stdout
        );
        // Anonymized release: both rows identical.
        let anon = "age,zip\n30-39,021**\n30-39,021**\n";
        let out = attack(anon, external, &["age".into(), "zip".into()]).unwrap();
        assert!(
            out.stdout.contains("uniquely re-identified: 0"),
            "{}",
            out.stdout
        );
        // Bad join column.
        assert!(attack(released, external, &["bogus".into()]).is_err());
    }

    #[test]
    fn missing_file_fails_cleanly() {
        let err = read_input("/definitely/not/here.csv").unwrap_err();
        assert!(matches!(err, CliError::Failed(_)));
    }
}
