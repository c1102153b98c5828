//! Command execution for the `kanon` binary.

use std::io::Read;

use kanon_core::algo;
use kanon_relation::csv;
use kanon_relation::{Schema, Table};
use kanon_workloads::{census_table, CensusParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::args::{usage, Algorithm, Command, SchemaAction};
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
        Command::Generate {
            rows,
            seed,
            regions,
            workload,
            cols,
            alphabet,
            exponent,
            messy,
            output,
        } => {
            let streams_itself = workload == "zipf" || *messy;
            let mut outcome = if *messy {
                generate_messy(*rows, *seed, *regions, output.as_deref())?
            } else {
                match workload.as_str() {
                    "zipf" => {
                        generate_zipf(*rows, *seed, *cols, *alphabet, exponent, output.as_deref())?
                    }
                    _ => generate(*rows, *seed, *regions)?,
                }
            };
            // The zipf and messy generators stream to the file themselves;
            // census output (small by design) is written here.
            if let Some(path) = output {
                if !streams_itself {
                    std::fs::write(path, &outcome.stdout)
                        .map_err(|e| CliError::Failed(format!("cannot write `{path}`: {e}")))?;
                    outcome.stdout = String::new();
                }
                outcome.notes.push(format!("wrote {path}"));
            }
            Ok(outcome)
        }
        Command::Attack {
            released,
            external,
            join,
        } => {
            let released_text = read_input(released)?;
            let external_text = read_input(external)?;
            attack(&released_text, &external_text, join)
        }
        Command::Verify { k, input, quasi } => {
            let text = read_input(input)?;
            verify(&text, *k, quasi.as_deref())
        }
        Command::Anonymize {
            k,
            input,
            output,
            algorithm,
            quasi,
            threads,
            emit_mask,
            deadline_ms,
            max_memory_mb,
            json,
        } => {
            let text = read_input(input)?;
            let (mut outcome, mask, csv_for_file) = anonymize(
                &text,
                *k,
                *algorithm,
                quasi.as_deref(),
                *threads,
                *deadline_ms,
                *max_memory_mb,
                *json,
                output.is_some(),
            )?;
            if let Some(path) = emit_mask {
                std::fs::write(path, mask)
                    .map_err(|e| CliError::Failed(format!("cannot write `{path}`: {e}")))?;
                outcome
                    .notes
                    .push(format!("wrote suppression mask to {path}"));
            }
            if let Some(path) = output {
                // In JSON mode stdout carries the report, so the released
                // CSV travels in the side channel; otherwise stdout *is*
                // the CSV and moves to the file wholesale.
                let payload = csv_for_file.as_deref().unwrap_or(outcome.stdout.as_str());
                std::fs::write(path, payload)
                    .map_err(|e| CliError::Failed(format!("cannot write `{path}`: {e}")))?;
                outcome.notes.push(format!("wrote {path}"));
                if csv_for_file.is_none() {
                    outcome.stdout = String::new();
                }
            }
            Ok(outcome)
        }
        Command::Pipeline {
            k,
            input,
            output,
            shard_size,
            strategy,
            buckets,
            workers,
            quasi,
            hierarchies,
            compare,
            privacy,
            sensitive,
            deadline_ms,
            max_memory_mb,
            json,
        } => pipeline(
            *k,
            input,
            output.as_deref(),
            *shard_size,
            *strategy,
            *buckets,
            *workers,
            quasi.as_deref(),
            hierarchies.as_deref(),
            *compare,
            privacy.as_deref(),
            sensitive.as_deref(),
            *deadline_ms,
            *max_memory_mb,
            *json,
        ),
        Command::Schema(action) => schema_cmd(action),
        Command::Delta(action) => delta(action),
        Command::Serve {
            addr,
            workers,
            queue_depth,
            pool_memory_mb,
            data_dir,
        } => serve(
            addr,
            *workers,
            *queue_depth,
            *pool_memory_mb,
            data_dir.as_deref(),
        ),
    }
}

/// Boots the anonymization service and blocks forever. The bound address
/// is printed before blocking so scripts can wait on it.
fn serve(
    addr: &str,
    workers: usize,
    queue_depth: usize,
    pool_memory_mb: u64,
    data_dir: Option<&str>,
) -> Result<Outcome, CliError> {
    let pool_memory_bytes = pool_memory_mb * 1024 * 1024;
    let config = kanon_service::ServiceConfig {
        addr: addr.to_string(),
        workers,
        queue_depth,
        pool_memory_bytes,
        default_job_memory_bytes: (pool_memory_bytes / workers.max(1) as u64).max(1),
        data_dir: data_dir.map(std::path::PathBuf::from),
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

fn read_input(path: &str) -> Result<String, CliError> {
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| CliError::Failed(format!("cannot read stdin: {e}")))?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path)
            .map_err(|e| CliError::Failed(format!("cannot read `{path}`: {e}")))
    }
}

fn generate(rows: usize, seed: u64, regions: usize) -> Result<Outcome, CliError> {
    if regions == 0 || regions > 900 {
        return Err(CliError::Usage(format!(
            "--regions must be in 1..=900\n\n{}",
            usage()
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let table = census_table(&mut rng, &CensusParams { n: rows, regions });
    Ok(Outcome {
        stdout: csv::to_string(&table),
        notes: vec![format!(
            "generated {rows} census-like records (seed {seed})"
        )],
    })
}

/// Resolves quasi-identifier names to column indices (default: all).
fn quasi_indices(schema: &Schema, quasi: Option<&[String]>) -> Result<Vec<usize>, CliError> {
    match quasi {
        None => Ok((0..schema.arity()).collect()),
        Some(names) => names
            .iter()
            .map(|n| {
                schema
                    .index_of(n)
                    .map_err(|_| CliError::Usage(format!("unknown quasi-identifier column `{n}`")))
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
    let cols = quasi_indices(table.schema(), quasi)?;
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

#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn anonymize(
    text: &str,
    k: usize,
    algorithm: Algorithm,
    quasi: Option<&[String]>,
    threads: usize,
    deadline_ms: Option<u64>,
    max_memory_mb: Option<u64>,
    json: bool,
    to_file: bool,
) -> Result<(Outcome, String, Option<String>), CliError> {
    let table = parse_table(text)?;
    let cols = quasi_indices(table.schema(), quasi)?;
    if k == 0 || k > table.n_rows() {
        return Err(CliError::BadK {
            k,
            n: table.n_rows(),
        });
    }

    // Project onto the quasi-identifier columns and encode.
    let qi_names: Vec<&str> = cols
        .iter()
        .map(|&j| table.schema().names()[j].as_str())
        .collect();
    let qi_schema = Schema::new(qi_names.clone()).map_err(|e| CliError::Failed(e.to_string()))?;
    let mut qi_table = Table::new(qi_schema);
    for row in table.rows() {
        qi_table
            .push_row(cols.iter().map(|&j| row[j].clone()).collect())
            .map_err(|e| CliError::Failed(e.to_string()))?;
    }
    let (ds, _codec) = qi_table.encode();

    let started = std::time::Instant::now();
    let center_config = kanon_core::greedy::CenterConfig {
        threads,
        ..Default::default()
    };
    let budget = build_budget(deadline_ms, max_memory_mb);
    let mut ladder_notes: Vec<String> = Vec::new();
    let mut ladder_report: Option<kanon_baselines::RunReport> = None;
    let result = match algorithm {
        Algorithm::Center => algo::center_greedy(&ds, k, &center_config, &budget),
        Algorithm::Exhaustive => algo::exhaustive_greedy(&ds, k, &Default::default(), &budget),
        Algorithm::Ladder => {
            let config = kanon_baselines::LadderConfig {
                budget: budget.clone(),
                center: center_config.clone(),
                ..Default::default()
            };
            kanon_baselines::run_ladder(&ds, k, &config).map(|(anon, report)| {
                for attempt in &report.attempts {
                    if let kanon_baselines::RungOutcome::Failed { reason } = &attempt.outcome {
                        ladder_notes.push(format!(
                            "rung {} abandoned after {:.2?}: {reason}",
                            attempt.rung, attempt.elapsed
                        ));
                    }
                }
                ladder_notes.push(format!(
                    "ladder answered on rung {} (guarantee: {})",
                    report.rung, report.guarantee
                ));
                ladder_report = Some(report);
                anon
            })
        }
        Algorithm::Forest => {
            kanon_baselines::forest::forest(&ds, k, &Default::default()).and_then(|partition| {
                algo::anonymization_from_partition(
                    &ds,
                    partition,
                    k,
                    kanon_core::Algorithm::External("k-forest"),
                )
            })
        }
        Algorithm::Exact => algo::exact_optimal(&ds, k),
    }
    .map_err(|e| {
        CliError::Failed(format!(
            "anonymization failed: {e}\nhint: `center` handles the largest instances; \
             --deadline-ms runs the degradation ladder"
        ))
    })?;
    let elapsed = started.elapsed();

    // Reassemble the full table, starring suppressed quasi cells.
    let mut out = Table::new(table.schema().clone());
    for (i, row) in table.rows().enumerate() {
        let mut new_row: Vec<String> = row.to_vec();
        for (qi_pos, &j) in cols.iter().enumerate() {
            if result.suppressor.is_suppressed(i, qi_pos) {
                new_row[j] = "*".to_string();
            }
        }
        out.push_row(new_row)
            .map_err(|e| CliError::Failed(e.to_string()))?;
    }

    let algo_name = match algorithm {
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
    notes.extend(ladder_notes);
    let released = csv::to_string(&out);
    let (stdout, csv_for_file) = if json {
        let short_name = match algorithm {
            Algorithm::Center => "center",
            Algorithm::Exhaustive => "exhaustive",
            Algorithm::Forest => "forest",
            Algorithm::Exact => "exact",
            Algorithm::Ladder => "ladder",
        };
        let mut obj = kanon_pipeline::json::JsonObject::new();
        obj.string("command", "anonymize")
            .number("k", k as u128)
            .string("algorithm", short_name)
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
            let mut attempts = String::from("[");
            for (i, a) in report.attempts.iter().enumerate() {
                if i > 0 {
                    attempts.push(',');
                }
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
                attempts.push_str(&att.finish());
            }
            attempts.push(']');
            let mut ladder = kanon_pipeline::json::JsonObject::new();
            ladder
                .string("rung", report.rung.name())
                .string("guarantee", report.guarantee)
                .boolean("degraded", report.degraded())
                .raw("attempts", &attempts);
            obj.raw("ladder", &ladder.finish());
        }
        if to_file {
            (obj.finish(), Some(released))
        } else {
            obj.string("csv", &released);
            (obj.finish(), None)
        }
    } else {
        (released, None)
    };
    Ok((
        Outcome { stdout, notes },
        result.suppressor.to_mask_string(),
        csv_for_file,
    ))
}

/// Runs the sharded out-of-core engine: streams the input CSV (never
/// holding the raw text in memory when reading a file), solves shards
/// under the budget, and writes the released CSV to `output` (streamed) or
/// stdout. Without `--quasi` the run takes the schema-driven auto path:
/// infer the schema, pick a quasi-identifier, try the generalization rung.
#[allow(clippy::too_many_arguments)]
fn pipeline(
    k: usize,
    input: &str,
    output: Option<&str>,
    shard_size: usize,
    strategy: kanon_pipeline::ShardStrategy,
    buckets: Option<usize>,
    workers: Option<usize>,
    quasi: Option<&[String]>,
    hierarchies: Option<&str>,
    compare: bool,
    privacy: Option<&str>,
    sensitive: Option<&str>,
    deadline_ms: Option<u64>,
    max_memory_mb: Option<u64>,
    json: bool,
) -> Result<Outcome, CliError> {
    // Already validated at arg-parse time; re-parsed here because the
    // model's f64 parameters cannot ride in the `Eq` Command enum.
    let privacy = match privacy {
        None => kanon_privacy::PrivacyModel::KOnly,
        Some(spec) => {
            kanon_privacy::PrivacyModel::parse(spec).map_err(|e| CliError::Usage(e.to_string()))?
        }
    };
    let config = kanon_pipeline::PipelineConfig {
        shard_size,
        strategy,
        n_buckets: buckets,
        workers,
        budget: build_budget(deadline_ms, max_memory_mb),
        ..Default::default()
    };
    // With no --quasi, no privacy model beyond k and no sensitive column,
    // the run takes the schema-driven auto path. Otherwise it takes the
    // suppression path, with any sensitive column carved out of the
    // quasi-identifier.
    let private = privacy.requires_sensitive() || sensitive.is_some();
    if !private && quasi.is_none() {
        return pipeline_auto(k, input, output, &config, hierarchies, compare, json);
    }
    if hierarchies.is_some() || compare {
        let fix = if private {
            "they cannot combine with --privacy/--sensitive"
        } else {
            "drop --quasi to use them"
        };
        return Err(CliError::Usage(format!(
            "--hierarchies and --compare belong to the schema-driven auto \
             path; {fix}\n\n{}",
            usage()
        )));
    }
    let reader: Box<dyn Read> = if input == "-" {
        Box::new(std::io::stdin().lock())
    } else {
        let file = std::fs::File::open(input)
            .map_err(|e| CliError::Failed(format!("cannot read `{input}`: {e}")))?;
        Box::new(std::io::BufReader::new(file))
    };
    let run = kanon_pipeline::run_csv_private_with_progress(
        reader,
        k,
        quasi,
        sensitive,
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

    let stdout = if let Some(path) = output {
        let file = std::fs::File::create(path)
            .map_err(|e| CliError::Failed(format!("cannot write `{path}`: {e}")))?;
        kanon_pipeline::write_release(
            &run.dataset,
            &run.codec,
            &run.quasi,
            &run.anonymization.suppressor,
            std::io::BufWriter::new(file),
        )
        .map_err(|e| CliError::Failed(format!("cannot write `{path}`: {e}")))?;
        notes.push(format!("wrote {path}"));
        if json {
            pipeline_json(&run, None)
        } else {
            String::new()
        }
    } else {
        let mut buf = Vec::new();
        kanon_pipeline::write_release(
            &run.dataset,
            &run.codec,
            &run.quasi,
            &run.anonymization.suppressor,
            &mut buf,
        )
        .map_err(|e| CliError::Failed(format!("cannot render release: {e}")))?;
        let released = String::from_utf8(buf)
            .map_err(|e| CliError::Failed(format!("cannot render release: {e}")))?;
        if json {
            pipeline_json(&run, Some(&released))
        } else {
            released
        }
    };
    Ok(Outcome { stdout, notes })
}

/// The `pipeline --json` stdout object: the engine's report plus (when no
/// `--output` captures it) the released CSV.
fn pipeline_json(run: &kanon_pipeline::CsvRun, csv: Option<&str>) -> String {
    let mut obj = kanon_pipeline::json::JsonObject::new();
    obj.string("command", "pipeline")
        .raw("report", &run.report.to_json());
    if let Some(csv) = csv {
        obj.string("csv", csv);
    }
    obj.finish()
}

/// The schema-driven auto path: probe the delimiter, infer the schema and
/// quasi-identifier, try the generalization rung, degrade to suppression.
fn pipeline_auto(
    k: usize,
    input: &str,
    output: Option<&str>,
    config: &kanon_pipeline::PipelineConfig,
    hierarchies: Option<&str>,
    compare: bool,
    json: bool,
) -> Result<Outcome, CliError> {
    let overrides = hierarchies.map(read_input).transpose()?;
    let auto = kanon_pipeline::AutoConfig { overrides, compare };
    let run = if input == "-" {
        kanon_pipeline::run_csv_auto(std::io::stdin().lock(), k, config, &auto)
    } else {
        let file = std::fs::File::open(input)
            .map_err(|e| CliError::Failed(format!("cannot read `{input}`: {e}")))?;
        kanon_pipeline::run_csv_auto(std::io::BufReader::new(file), k, config, &auto)
    }
    .map_err(|e| map_pipeline_error(e, k))?;

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
    match &run.outcome {
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
        }
    }

    let stdout = if let Some(path) = output {
        let file = std::fs::File::create(path)
            .map_err(|e| CliError::Failed(format!("cannot write `{path}`: {e}")))?;
        run.write_release(std::io::BufWriter::new(file))
            .map_err(|e| CliError::Failed(format!("cannot write `{path}`: {e}")))?;
        notes.push(format!("wrote {path}"));
        if json {
            auto_json(&run, None)
        } else {
            String::new()
        }
    } else {
        let mut buf = Vec::new();
        run.write_release(&mut buf)
            .map_err(|e| CliError::Failed(format!("cannot render release: {e}")))?;
        let released = String::from_utf8(buf)
            .map_err(|e| CliError::Failed(format!("cannot render release: {e}")))?;
        if json {
            auto_json(&run, Some(&released))
        } else {
            released
        }
    };
    Ok(Outcome { stdout, notes })
}

/// The auto path's `--json` object: same `"command":"pipeline"` envelope as
/// the explicit-quasi path, plus which rung released.
fn auto_json(run: &kanon_pipeline::AutoRun, csv: Option<&str>) -> String {
    let mode = match run.outcome {
        kanon_pipeline::AutoOutcome::Generalized(_) => "generalization",
        kanon_pipeline::AutoOutcome::Suppressed { .. } => "suppression",
    };
    let mut obj = kanon_pipeline::json::JsonObject::new();
    obj.string("command", "pipeline")
        .string("mode", mode)
        .raw("report", &run.report.to_json());
    if let Some(csv) = csv {
        obj.string("csv", csv);
    }
    obj.finish()
}

/// Runs a `kanon schema` action: probe, infer, or verify.
fn schema_cmd(action: &SchemaAction) -> Result<Outcome, CliError> {
    // The toolchain works on a bounded byte sample, so even `probe` on a
    // multi-gigabyte file reads at most SAMPLE_BYTES.
    let sample_of = |path: &str| -> Result<(Vec<u8>, bool), CliError> {
        let sample = if path == "-" {
            kanon_schema::read_sample(&mut std::io::stdin().lock())
        } else {
            let file = std::fs::File::open(path)
                .map_err(|e| CliError::Failed(format!("cannot read `{path}`: {e}")))?;
            kanon_schema::read_sample(&mut std::io::BufReader::new(file))
        }
        .map_err(|e| CliError::Failed(format!("cannot read `{path}`: {e}")))?;
        let truncated = sample.len() == kanon_schema::probe::SAMPLE_BYTES;
        Ok((sample, truncated))
    };
    let infer = |path: &str| -> Result<kanon_schema::InferredSchema, CliError> {
        let (sample, truncated) = sample_of(path)?;
        kanon_schema::infer_bytes(&sample, truncated, kanon_schema::infer::DEFAULT_SAMPLE_ROWS)
            .map_err(|e| CliError::Failed(format!("schema inference failed: {e}")))
    };
    match action {
        SchemaAction::Probe { input } => {
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
        SchemaAction::Infer { input, output } => {
            let schema = infer(input)?;
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
                        .map(|c| format!(
                            "{} ({} / {:.1})",
                            c.name, c.max_distinct_l, c.effective_l
                        ))
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            });
            match output {
                Some(path) => {
                    std::fs::write(path, &text)
                        .map_err(|e| CliError::Failed(format!("cannot write `{path}`: {e}")))?;
                    notes.push(format!("wrote {path}"));
                    Ok(Outcome {
                        stdout: String::new(),
                        notes,
                    })
                }
                None => Ok(Outcome {
                    stdout: text,
                    notes,
                }),
            }
        }
        SchemaAction::Verify { schema, input } => {
            let stored_text = read_input(schema)?;
            let stored = kanon_schema::parse_schema_file(&stored_text)
                .map_err(|e| CliError::Failed(format!("bad schema file `{schema}`: {e}")))?;
            let current = infer(input)?;
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

/// Runs a `kanon delta` action against the durable store.
fn delta(action: &crate::args::DeltaAction) -> Result<Outcome, CliError> {
    use crate::args::DeltaAction;
    use kanon_pipeline::DeltaStore;

    let open = |dir: &str, deadline_ms: Option<u64>, max_memory_mb: Option<u64>| {
        DeltaStore::open(dir, build_budget(deadline_ms, max_memory_mb))
            .map_err(|e| map_pipeline_error(e, 0))
    };
    let write_output = |path: &str, csv: &str| -> Result<(), CliError> {
        std::fs::write(path, csv)
            .map_err(|e| CliError::Failed(format!("cannot write `{path}`: {e}")))
    };

    match action {
        DeltaAction::Init {
            dir,
            k,
            input,
            shard_size,
            buckets,
            quasi,
            deadline_ms,
            max_memory_mb,
            json,
        } => {
            let config = kanon_pipeline::DeltaConfig {
                k: *k,
                shard_size: *shard_size,
                n_buckets: *buckets,
                quasi: quasi.clone(),
                budget: build_budget(*deadline_ms, *max_memory_mb),
            };
            let store = if input == "-" {
                DeltaStore::init(dir, std::io::stdin().lock(), &config)
            } else {
                let file = std::fs::File::open(input)
                    .map_err(|e| CliError::Failed(format!("cannot read `{input}`: {e}")))?;
                DeltaStore::init(dir, std::io::BufReader::new(file), &config)
            }
            .map_err(|e| map_pipeline_error(e, *k))?;
            let status = store.status();
            let notes = vec![format!(
                "initialized delta store at {dir}: {} rows, k={}, {} bucket(s), shard size {}",
                status.n_rows, status.k, status.n_buckets, status.shard_size,
            )];
            let stdout = if *json {
                status.to_json()
            } else {
                String::new()
            };
            Ok(Outcome { stdout, notes })
        }
        DeltaAction::Apply {
            dir,
            ops,
            output,
            deadline_ms,
            max_memory_mb,
            json,
        } => {
            let mut store = open(dir, *deadline_ms, *max_memory_mb)?;
            let parsed = if ops == "-" {
                store.parse_ops(std::io::stdin().lock())
            } else {
                let file = std::fs::File::open(ops)
                    .map_err(|e| CliError::Failed(format!("cannot read `{ops}`: {e}")))?;
                store.parse_ops(std::io::BufReader::new(file))
            }
            .map_err(|e| map_pipeline_error(e, store.k()))?;
            let k = store.k();
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
            if let Some(path) = output {
                let release = store.release().map_err(|e| map_pipeline_error(e, k))?;
                write_output(path, &release.to_csv_string())?;
                notes.push(format!("wrote {path}"));
            }
            let stdout = if *json {
                report.to_json()
            } else {
                String::new()
            };
            Ok(Outcome { stdout, notes })
        }
        DeltaAction::Status { dir, json } => {
            let store = open(dir, None, None)?;
            let status = store.status();
            let stdout = if *json {
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
        DeltaAction::Release {
            dir,
            output,
            deadline_ms,
            max_memory_mb,
        } => {
            let mut store = open(dir, *deadline_ms, *max_memory_mb)?;
            let k = store.k();
            let release = store.release().map_err(|e| map_pipeline_error(e, k))?;
            let csv = release.to_csv_string();
            match output {
                Some(path) => {
                    write_output(path, &csv)?;
                    Ok(Outcome {
                        stdout: String::new(),
                        notes: vec![format!("wrote {path}")],
                    })
                }
                None => Ok(Outcome {
                    stdout: csv,
                    notes: Vec::new(),
                }),
            }
        }
    }
}

/// Streams a zipf-skewed categorical CSV; with `--output` the rows go
/// straight to the file (O(1) memory however large `--rows` is).
fn generate_zipf(
    rows: usize,
    seed: u64,
    cols: usize,
    alphabet: u32,
    exponent: &str,
    output: Option<&str>,
) -> Result<Outcome, CliError> {
    let exponent: f64 = exponent
        .parse()
        .map_err(|_| CliError::Usage(format!("--exponent needs a number\n\n{}", usage())))?;
    if exponent < 0.0 || cols == 0 || alphabet == 0 {
        return Err(CliError::Usage(format!(
            "--exponent must be >= 0, --cols and --alphabet >= 1\n\n{}",
            usage()
        )));
    }
    let params = kanon_workloads::ZipfParams {
        n: rows,
        m: cols,
        alphabet,
        exponent,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let note = format!(
        "generated {rows} zipf rows ({cols} cols, alphabet {alphabet}, exponent {exponent}, seed {seed})"
    );
    match output {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| CliError::Failed(format!("cannot write `{path}`: {e}")))?;
            let mut w = std::io::BufWriter::new(file);
            kanon_workloads::write_zipf_csv(&mut rng, &params, &mut w)
                .and_then(|()| std::io::Write::flush(&mut w))
                .map_err(|e| CliError::Failed(format!("cannot write `{path}`: {e}")))?;
            Ok(Outcome {
                stdout: String::new(),
                notes: vec![note],
            })
        }
        None => {
            let mut buf = Vec::new();
            kanon_workloads::write_zipf_csv(&mut rng, &params, &mut buf)
                .map_err(|e| CliError::Failed(format!("cannot render workload: {e}")))?;
            let stdout = String::from_utf8(buf)
                .map_err(|e| CliError::Failed(format!("cannot render workload: {e}")))?;
            Ok(Outcome {
                stdout,
                notes: vec![note],
            })
        }
    }
}

/// Streams the messy schema-inference workload: `;`-delimited, mixed
/// types, null markers, quoted fields. With `--output` the rows go
/// straight to the file.
fn generate_messy(
    rows: usize,
    seed: u64,
    regions: usize,
    output: Option<&str>,
) -> Result<Outcome, CliError> {
    if regions == 0 || regions > 900 {
        return Err(CliError::Usage(format!(
            "--regions must be in 1..=900 for the messy workload\n\n{}",
            usage()
        )));
    }
    let params = kanon_workloads::MessyParams {
        n: rows,
        regions,
        ..kanon_workloads::MessyParams::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let note = format!("generated {rows} messy rows ({regions} region(s), seed {seed})");
    match output {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| CliError::Failed(format!("cannot write `{path}`: {e}")))?;
            let mut w = std::io::BufWriter::new(file);
            kanon_workloads::write_messy_csv(&mut rng, &params, &mut w)
                .and_then(|()| std::io::Write::flush(&mut w))
                .map_err(|e| CliError::Failed(format!("cannot write `{path}`: {e}")))?;
            Ok(Outcome {
                stdout: String::new(),
                notes: vec![note],
            })
        }
        None => {
            let mut buf = Vec::new();
            kanon_workloads::write_messy_csv(&mut rng, &params, &mut buf)
                .map_err(|e| CliError::Failed(format!("cannot render workload: {e}")))?;
            let stdout = String::from_utf8(buf)
                .map_err(|e| CliError::Failed(format!("cannot render workload: {e}")))?;
            Ok(Outcome {
                stdout,
                notes: vec![note],
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-`--json` calling convention most tests want: CSV stdout, no
    /// side-channel file payload.
    fn anonymize_plain(
        text: &str,
        k: usize,
        algorithm: Algorithm,
        quasi: Option<&[String]>,
        threads: usize,
        deadline_ms: Option<u64>,
        max_memory_mb: Option<u64>,
    ) -> Result<(Outcome, String), CliError> {
        anonymize(
            text,
            k,
            algorithm,
            quasi,
            threads,
            deadline_ms,
            max_memory_mb,
            false,
            false,
        )
        .map(|(o, m, _)| (o, m))
    }

    const SAMPLE: &str = "first,last,age,race\n\
        Harry,Stone,34,Afr-Am\n\
        John,Reyser,36,Cauc\n\
        Beatrice,Stone,47,Afr-Am\n\
        John,Ramos,22,Hisp\n";

    #[test]
    fn anonymize_then_verify_roundtrip() {
        let (out, mask) =
            anonymize_plain(SAMPLE, 2, Algorithm::Exact, None, 1, None, None).unwrap();
        assert!(mask.lines().count() == 4);
        assert!(out.stdout.contains('*'));
        let verified = verify(&out.stdout, 2, None).unwrap();
        assert!(verified.stdout.contains("anonymity level: 2"));
    }

    #[test]
    fn quasi_columns_keep_sensitive_data() {
        let quasi: Vec<String> = vec!["first".into(), "last".into(), "age".into()];
        let (out, _) =
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
        let outcome = execute(&Command::Anonymize {
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
        })
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
    }

    #[test]
    fn ladder_with_unlimited_budget_matches_exhaustive() {
        let (ladder_out, _) =
            anonymize_plain(SAMPLE, 2, Algorithm::Ladder, None, 1, None, None).unwrap();
        let (direct_out, _) =
            anonymize_plain(SAMPLE, 2, Algorithm::Exhaustive, None, 1, None, None).unwrap();
        assert_eq!(ladder_out.stdout, direct_out.stdout);
        assert!(ladder_out
            .notes
            .iter()
            .any(|n| n.contains("rung full-greedy-cover")));
    }

    #[test]
    fn governed_center_with_roomy_deadline_succeeds() {
        let (out, _) =
            anonymize_plain(SAMPLE, 2, Algorithm::Center, None, 1, Some(60_000), None).unwrap();
        assert!(verify(&out.stdout, 2, None).is_ok());
    }

    #[test]
    fn tiny_memory_budget_fails_deterministically() {
        // 600 rows: the center greedy's planned allocations (distance cache
        // ~0.7 MiB plus n²-sized order tables ~1.4 MiB) cannot fit in the
        // smallest spellable cap of 1 MiB, so the governed run must fail
        // with a structured budget error — no timing involved.
        let data = generate(600, 11, 5).unwrap().stdout;
        let err = anonymize_plain(&data, 3, Algorithm::Center, None, 1, None, Some(1)).unwrap_err();
        assert!(
            err.to_string().contains("budget exceeded") && err.to_string().contains("memory"),
            "{err}"
        );
    }

    #[test]
    fn generate_emits_parseable_csv() {
        let out = generate(25, 7, 4).unwrap();
        let parsed = csv::parse(&out.stdout).unwrap();
        assert_eq!(parsed.n_rows(), 25);
        assert_eq!(parsed.arity(), 8);
        assert!(generate(1, 0, 0).is_err());
    }

    #[test]
    fn generated_data_anonymizes_end_to_end() {
        let data = generate(40, 3, 3).unwrap().stdout;
        let quasi: Vec<String> = vec!["age".into(), "sex".into(), "race".into(), "zip".into()];
        let (out, _) =
            anonymize_plain(&data, 3, Algorithm::Center, Some(&quasi), 2, None, None).unwrap();
        assert!(verify(&out.stdout, 3, Some(&quasi)).is_ok());
    }

    #[test]
    fn execute_help_and_generate() {
        let help = execute(&Command::Help).unwrap();
        assert!(help.stdout.contains("USAGE"));
        let gen = execute(&Command::Generate {
            rows: 5,
            seed: 1,
            regions: 2,
            workload: "census".into(),
            cols: 8,
            alphabet: 50,
            exponent: "1.0".into(),
            messy: false,
            output: None,
        })
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
