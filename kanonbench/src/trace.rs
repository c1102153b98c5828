//! The traced run: the same seeded inputs, replayed through each layer's
//! public functions with a span around every call, giving the per-layer
//! split.
//!
//! Every traced run walks all four sections, its own workload's first, so
//! each run reports every per-layer metric. The spans are recorded here, in
//! the benchmark, around calls into the program; the program itself is not
//! instrumented. Spans stay in memory and are summarized when the run ends.

use std::fs::File;
use std::io::{BufReader, BufWriter, Cursor, Read};
use std::time::{Duration, Instant};

use kanon_core::govern::Budget;
use kanon_pipeline::delta::{DeltaConfig, DeltaStore};
use kanon_pipeline::generalize::try_generalize;
use kanon_pipeline::{
    attack_tables, ingest_csv, ingest_csv_with_delimiter, plan_shards, run_csv, run_pipeline,
    write_generalized_release, write_release, CsvRun, PipelineConfig,
};
use kanon_privacy::PrivacyModel;
use kanon_relation::Hierarchy;

use crate::check::{inspect_release, median};
use crate::e2e::{check_release, messy_batch, zipf_batch, Batch, Fingerprint};
use crate::proc::Server;
use crate::service::{append_loop, create_table, job_loop, reconcile_jobs, JobTiming, Until};
use crate::{inputs, Ctx, Report, K, WORKLOADS};

/// Rows the service's post-job linkage attack samples (its
/// `ATTACK_SAMPLE_CAP`).
const ATTACK_SAMPLE_CAP: usize = 20_000;

/// Fewest share of the program's untraced wall time the spans around its
/// calls must cover; anything less means a layer is missing from the split.
const MIN_COVERAGE: f64 = 0.9;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

struct Span {
    name: &'static str,
    start: Duration,
    duration: Duration,
}

/// One section's spans, relative to the moment the section started.
struct Spans {
    section: &'static str,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new(section: &'static str) -> Spans {
        Spans {
            section,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.spans.push(Span {
            name,
            start: started - self.origin,
            duration: started.elapsed(),
        });
        out
    }

    /// Seconds since the section started.
    fn wall(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// A position to measure later spans from.
    fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Seconds spent in spans recorded since `mark` (named `name`, or all).
    fn since(&self, mark: usize, name: Option<&str>) -> f64 {
        self.spans[mark..]
            .iter()
            .filter(|s| name.is_none_or(|n| s.name == n))
            .map(|s| s.duration.as_secs_f64())
            .sum()
    }

    fn total(&self, name: &str) -> f64 {
        self.since(0, Some(name))
    }

    /// Writes one summary line per span name into the run's notes.
    fn write_out(&self, report: &mut Report) {
        let mut names: Vec<&str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            let of: Vec<&Span> = self.spans.iter().filter(|s| s.name == name).collect();
            let durations: Vec<f64> = of.iter().map(|s| s.duration.as_secs_f64()).collect();
            report.notes.push(format!(
                "span {}/{name}: n={} first_start={:.6} s total={:.6} s median={:.6} s",
                self.section,
                of.len(),
                of[0].start.as_secs_f64(),
                durations.iter().sum::<f64>(),
                median(&durations)
            ));
        }
    }
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let mut order = vec![ctx.workload];
    order.extend(WORKLOADS.iter().filter(|&&w| w != ctx.workload));
    for section in order {
        match section {
            "batch-zipf" => zipf(ctx, report)?,
            "batch-messy-auto" => messy(ctx, report)?,
            "serve-jobs" => serve(ctx, report)?,
            "table-append" => table(ctx, report)?,
            other => return Err(format!("unknown workload {other}")),
        }
    }
    Ok(())
}

/// The untraced reference: the same argv through `kanon_cli::run` in this
/// process, its release re-checked. Returns the wall time and the figures
/// the traced replay must reproduce.
fn untraced(b: &Batch, report: &mut Report) -> Result<(f64, Option<Fingerprint>), String> {
    let started = Instant::now();
    let outcome = kanon_cli::run(&b.argv).map_err(|e| format!("kanon pipeline failed: {e}"))?;
    let wall = started.elapsed().as_secs_f64();
    match check_release(b, &outcome.stdout) {
        Ok(fingerprint) => {
            report.op(Ok(()));
            Ok((wall, Some(fingerprint)))
        }
        Err(problem) => {
            report.op(Err(problem));
            Ok((wall, None))
        }
    }
}

/// Checks that the spans around the calls the program itself makes
/// (`program`) account for the program's own wall time: the untraced
/// `kanon_cli::run` of the same argv in the same (warmed) process, run once
/// before and once after the traced replay. Spans around calls the program never makes as such are
/// left out of the coverage. Reports the coverage and the tracing overhead
/// (the replay of the program's calls over the untraced wall).
fn coverage(
    spans: &Spans,
    wall: f64,
    program: &[&str],
    untraced: [f64; 2],
    tag: &str,
    report: &mut Report,
) {
    let program_s: f64 = program.iter().map(|name| spans.total(name)).sum();
    let replay_only = spans.since(0, None) - program_s;
    let reference = (untraced[0] + untraced[1]) / 2.0;
    let covered = program_s / reference;
    report.notes.push(format!(
        "{}: untraced kanon_cli::run {:.4} s before and {:.4} s after the replay; \
         spans of the program's calls {program_s:.4} s, replay-only spans {replay_only:.4} s",
        spans.section, untraced[0], untraced[1]
    ));
    if covered < MIN_COVERAGE {
        report.fail(format!(
            "{} spans cover {covered:.3} of the untraced wall time (need {MIN_COVERAGE})",
            spans.section
        ));
    }
    report.metric(&format!("trace.coverage_{tag}"), covered, "ratio");
    report.metric(
        &format!("trace.overhead_{tag}"),
        (wall - replay_only) / reference,
        "ratio",
    );
}

/// `batch-zipf`: ingest, shard plan, engine, k-verify, release.
fn zipf(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let b = zipf_batch(ctx, "throughput", ctx.sizes.zipf_rows)?;
    // The process's first run pays for its heap; it is checked, not timed.
    untraced(&b, report)?;
    let (before, reference) = untraced(&b, report)?;
    let reference_cost = reference.as_ref().map(|fp| fp.cover_cost.clone());

    let config = PipelineConfig {
        shard_size: 512,
        workers: Some(ctx.workers),
        ..PipelineConfig::default()
    };
    let traced_release = ctx.work.file("zipf.traced.csv");
    let mut spans = Spans::new("batch-zipf");
    let (dataset, codec, quasi, qi) = spans.time("ingest", || -> Result<_, String> {
        let file = File::open(&b.input).map_err(err)?;
        let (dataset, codec) = ingest_csv(BufReader::new(file)).map_err(err)?;
        let quasi: Vec<usize> = (0..codec.arity()).collect();
        let qi = dataset.project_columns(&quasi).map_err(err)?;
        Ok((dataset, codec, quasi, qi))
    })?;
    let plan = spans
        .time("shard", || plan_shards(&qi, K, &config))
        .map_err(err)?;
    let (anon, pipeline) = spans
        .time("engine", || run_pipeline(&qi, K, &config))
        .map_err(err)?;
    let k_anonymous = spans.time("verify", || anon.table.is_k_anonymous(K));
    spans.time("release", || -> Result<(), String> {
        let file = File::create(&traced_release).map_err(err)?;
        write_release(
            &dataset,
            &codec,
            &quasi,
            &anon.suppressor,
            BufWriter::new(file),
        )
        .map_err(err)
    })?;
    let wall = spans.wall();
    let (after, again) = untraced(&b, report)?;
    if again != reference {
        report.fail(format!(
            "untraced releases differ: {reference:?} vs {again:?}"
        ));
    }

    let release = std::fs::read(&traced_release).map_err(err)?;
    report.op(if !k_anonymous {
        Err("traced batch-zipf anonymization is not k-anonymous".into())
    } else if reference_cost.as_deref() != Some(pipeline.total_cost.to_string().as_str()) {
        Err(format!(
            "engine.cover_cost {} differs from the untraced run's {reference_cost:?}",
            pipeline.total_cost
        ))
    } else {
        Ok(())
    });
    let names: Vec<String> = quasi.iter().map(|&j| codec.header()[j].clone()).collect();
    if inspect_release(&release, &names)?.smallest_group < K {
        report.fail("traced batch-zipf release is not k-anonymous".into());
    }

    let ingest = spans.total("ingest");
    let plan_s = spans.total("shard");
    // `run_pipeline` plans again before it solves; the engine's own time is
    // its span minus the plan.
    let solve_wall = spans.total("engine") - plan_s;
    let solve_cpu: f64 = pipeline
        .shards
        .iter()
        .map(|s| s.elapsed.as_secs_f64())
        .sum();
    let solved_by = |name: &str| {
        pipeline
            .shards
            .iter()
            .filter(|s| s.solved_by.name() == name)
            .count() as f64
    };
    report.metric("ingest.encode_s", ingest, "s");
    report.metric(
        "ingest.rows_per_s",
        dataset.n_rows() as f64 / ingest,
        "rows/s",
    );
    report.metric("shard.plan_s", plan_s, "s");
    report.metric(
        "shard.units",
        (plan.shards.len() + usize::from(!plan.residue.is_empty())) as f64,
        "count",
    );
    report.metric("shard.residue_rows", plan.residue.len() as f64, "count");
    report.metric("engine.solve_wall_s", solve_wall, "s");
    report.metric("engine.solve_cpu_s", solve_cpu, "s");
    report.metric(
        "engine.parallel_efficiency",
        solve_cpu / (solve_wall * pipeline.workers as f64),
        "ratio",
    );
    report.metric(
        "engine.units_center_greedy",
        solved_by("center-greedy"),
        "count",
    );
    report.metric(
        "engine.units_full_cover",
        solved_by("full-greedy-cover"),
        "count",
    );
    report.metric(
        "engine.units_degraded",
        pipeline.degraded_shards() as f64,
        "count",
    );
    report.metric("engine.cover_cost", pipeline.total_cost as f64, "cells");
    report.metric("verify.k_s", spans.total("verify"), "s");
    report.metric("release.write_s", spans.total("release"), "s");
    report.metric("release.bytes", release.len() as f64, "bytes");
    // `kanon pipeline` makes neither a separate plan (the engine plans
    // inside its span) nor a separate k-anonymity check.
    coverage(
        &spans,
        wall,
        &["ingest", "engine", "release"],
        [before, after],
        "zipf",
        report,
    );
    spans.write_out(report);

    // Scaling with workers <= cores: the same solve on one worker must give
    // the same cover, and the ratio is the speed-up the extra workers buy.
    let started = Instant::now();
    let single = run_pipeline(
        &qi,
        K,
        &PipelineConfig {
            workers: Some(1),
            ..config
        },
    )
    .map_err(err)?;
    let one_worker = started.elapsed().as_secs_f64();
    report.op(if single.1.total_cost == pipeline.total_cost {
        Ok(())
    } else {
        Err(format!(
            "one worker covers at cost {}, {} workers at {}",
            single.1.total_cost, pipeline.workers, pipeline.total_cost
        ))
    });
    report.metric(
        "engine.speedup_vs_one_worker",
        one_worker / spans.total("engine"),
        "ratio",
    );
    Ok(())
}

/// `batch-messy-auto`: schema inference, ingest, the generalization
/// lattice, generalized release.
fn messy(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let b = messy_batch(ctx, "throughput", ctx.sizes.messy_rows)?;
    untraced(&b, report)?;
    let (before, reference) = untraced(&b, report)?;
    let reference_loss = reference.as_ref().and_then(|fp| fp.precision_loss.clone());

    let traced_release = ctx.work.file("messy.traced.csv");
    let mut spans = Spans::new("batch-messy-auto");
    let (file, sample, schema, hierarchies) = spans.time("schema", || -> Result<_, String> {
        let mut file = BufReader::new(File::open(&b.input).map_err(err)?);
        let sample = kanon_schema::read_sample(&mut file).map_err(err)?;
        let truncated = sample.len() == kanon_schema::probe::SAMPLE_BYTES;
        let schema =
            kanon_schema::infer_bytes(&sample, truncated, kanon_schema::infer::DEFAULT_SAMPLE_ROWS)
                .map_err(err)?;
        let hierarchies = kanon_schema::derive_hierarchies(&schema, None).map_err(err)?;
        Ok((file, sample, schema, hierarchies))
    })?;
    let (dataset, codec) = spans
        .time("ingest", || {
            ingest_csv_with_delimiter(Cursor::new(sample).chain(file), schema.delimiter)
        })
        .map_err(err)?;
    // The quasi-identifier and its hierarchies, chosen as the auto path does.
    let (quasi, qi_hierarchies) = spans.time("schema", || {
        let mut quasi: Vec<usize> = schema
            .quasi_suggestion()
            .iter()
            .filter_map(|name| codec.header().iter().position(|h| h == name))
            .collect();
        quasi.sort_unstable();
        if quasi.is_empty() {
            quasi = (0..codec.arity()).collect();
        }
        let qi_hierarchies: Vec<Hierarchy> = quasi
            .iter()
            .map(|&j| {
                schema
                    .columns
                    .iter()
                    .position(|c| c.name == codec.header()[j])
                    .map_or(Hierarchy::SuppressOnly, |i| hierarchies[i].clone())
            })
            .collect();
        (quasi, qi_hierarchies)
    });
    let generalized = spans
        .time("generalize", || {
            try_generalize(
                &dataset,
                &codec,
                &quasi,
                &qi_hierarchies,
                K,
                &Budget::unlimited(),
            )
        })
        .map_err(err)?;
    let Some(generalized) = generalized else {
        report.fail(
            "the generalization rung declined; batch-messy-auto no longer measures it".into(),
        );
        return Ok(());
    };
    spans.time("release", || -> Result<(), String> {
        let file = File::create(&traced_release).map_err(err)?;
        write_generalized_release(
            &dataset,
            &codec,
            &quasi,
            &generalized.rendered,
            BufWriter::new(file),
        )
        .map_err(err)
    })?;
    let wall = spans.wall();
    let (after, again) = untraced(&b, report)?;
    if again != reference {
        report.fail(format!(
            "untraced releases differ: {reference:?} vs {again:?}"
        ));
    }

    let loss = format!("{:.6}", generalized.precision_loss);
    report.op(if reference_loss.as_deref() == Some(loss.as_str()) {
        Ok(())
    } else {
        Err(format!(
            "generalize.precision_loss {loss} differs from the untraced run's {reference_loss:?}"
        ))
    });
    let release = std::fs::read(&traced_release).map_err(err)?;
    let names: Vec<String> = quasi.iter().map(|&j| codec.header()[j].clone()).collect();
    if inspect_release(&release, &names)?.smallest_group < K {
        report.fail("traced batch-messy-auto release is not k-anonymous".into());
    }

    let lattice_nodes: usize = qi_hierarchies.iter().map(|h| h.height() + 1).product();
    report.metric("schema.infer_s", spans.total("schema"), "s");
    report.metric("ingest.auto_encode_s", spans.total("ingest"), "s");
    report.metric("generalize.search_s", spans.total("generalize"), "s");
    report.metric("generalize.lattice_nodes", lattice_nodes as f64, "count");
    report.metric(
        "generalize.precision_loss",
        generalized.precision_loss,
        "ratio",
    );
    report.metric("release.generalized_write_s", spans.total("release"), "s");
    report.metric("release.generalized_bytes", release.len() as f64, "bytes");
    coverage(
        &spans,
        wall,
        &["schema", "ingest", "generalize", "release"],
        [before, after],
        "messy",
        report,
    );
    spans.write_out(report);
    Ok(())
}

/// What replaying one job in process cost (seconds, except the counts).
struct Replay {
    total: f64,
    attack: f64,
    enforce: f64,
    privacy_verify: f64,
    merges: f64,
    pairs: f64,
}

/// `serve-jobs`: jobs over HTTP for the service layers, then each job body
/// replayed in process through ingest, engine, privacy and linkage.
fn serve(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    // A few bodies suffice here: every one is also replayed in process.
    let mut bodies = inputs::job_bodies(ctx);
    bodies.truncate(4);
    let server = Server::spawn(ctx.workers, None)?;
    let run = job_loop(
        server.addr,
        &bodies,
        ctx.clients,
        Until::Count(ctx.sizes.trace_jobs),
        report,
    );
    reconcile_jobs(server.addr, run.jobs.len(), report)?;
    // The replay must not share the cores with an idle server's threads.
    drop(server);

    let mut spans = Spans::new("serve-jobs");
    let mut replays = Vec::new();
    for body in &bodies {
        for private in [false, true] {
            replays.push(replay_job(ctx, body, private, &mut spans, report)?);
        }
    }
    let private: Vec<&Replay> = replays.iter().skip(1).step_by(2).collect();
    let all: Vec<&Replay> = replays.iter().collect();
    let of = |f: fn(&Replay) -> f64, set: &[&Replay]| {
        median(&set.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let pick = |f: fn(&JobTiming) -> f64| median(&run.jobs.iter().map(f).collect::<Vec<_>>());
    let latency = pick(|j| j.latency);
    let jobs = run.jobs.len().max(1) as f64;
    report.metric("http.submit_s", pick(|j| j.submit), "s");
    report.metric("queue.wait_s", pick(|j| j.queue_wait), "s");
    report.metric(
        "queue.rejected_per_job",
        run.jobs.iter().map(|j| f64::from(j.rejected)).sum::<f64>() / jobs,
        "ratio",
    );
    report.metric("server.job_s", pick(|j| j.server), "s");
    report.metric("service.job_latency_p50_s", latency, "s");
    report.metric("service.replay_s", of(|r| r.total, &all), "s");
    report.metric("service.overhead_s", latency - of(|r| r.total, &all), "s");
    report.metric("privacy.enforce_s", of(|r| r.enforce, &private), "s");
    report.metric("privacy.verify_s", of(|r| r.privacy_verify, &private), "s");
    report.metric("privacy.blocks_merged", of(|r| r.merges, &private), "count");
    report.metric("linkage.attack_s", of(|r| r.attack, &all), "s");
    report.metric("linkage.pairs_compared", of(|r| r.pairs, &all), "count");
    report.metric(
        "linkage.share_of_job",
        of(|r| r.attack / r.total, &all),
        "ratio",
    );
    spans.write_out(report);
    Ok(())
}

/// One job through the layers the service's worker calls, in its order:
/// ingest, engine, (privacy enforce + re-verify), k-verify, linkage attack.
fn replay_job(
    ctx: &Ctx,
    body: &[u8],
    private: bool,
    spans: &mut Spans,
    report: &mut Report,
) -> Result<Replay, String> {
    let mark = spans.mark();
    // The service hands each job its share of the cores.
    let config = PipelineConfig {
        shard_size: 512,
        workers: Some((ctx.nproc / ctx.workers).max(1)),
        ..PipelineConfig::default()
    };
    let (dataset, codec) = spans.time("job.ingest", || ingest_csv(body)).map_err(err)?;
    let sensitive = if private {
        Some(
            codec
                .header()
                .iter()
                .position(|h| h == "c5")
                .ok_or("job body has no c5 column")?,
        )
    } else {
        None
    };
    let quasi: Vec<usize> = (0..codec.arity())
        .filter(|&j| Some(j) != sensitive)
        .collect();
    let qi = spans
        .time("job.ingest", || dataset.project_columns(&quasi))
        .map_err(err)?;
    let (mut anon, pipeline) = spans
        .time("job.engine", || run_pipeline(&qi, K, &config))
        .map_err(err)?;
    let mut merges = 0;
    if let Some(col) = sensitive {
        let model = PrivacyModel::parse("l=2").map_err(err)?;
        let values: Vec<u32> = (0..dataset.n_rows()).map(|i| dataset.row(i)[col]).collect();
        let outcome = spans
            .time("privacy.enforce", || {
                kanon_privacy::enforce(&qi, &anon.partition, &values, model)
            })
            .map_err(err)?;
        merges = outcome.merges;
        if merges > 0 {
            anon = spans
                .time("privacy.enforce", || {
                    kanon_core::algo::anonymization_from_partition(
                        &qi,
                        outcome.partition,
                        K,
                        kanon_core::Algorithm::External("pipeline+privacy"),
                    )
                })
                .map_err(err)?;
        }
        let verified = spans
            .time("privacy.verify", || {
                kanon_privacy::verify(model, &anon.partition, &values)
            })
            .map_err(err)?
            .ok();
        if !verified {
            report.fail("replayed privacy job failed its l-diversity re-check".into());
        }
    }
    let k_anonymous = spans.time("job.verify", || anon.table.is_k_anonymous(K));
    report.op(if k_anonymous {
        Ok(())
    } else {
        Err("replayed job is not k-anonymous".into())
    });
    let run = CsvRun {
        dataset,
        codec,
        quasi,
        anonymization: anon,
        report: pipeline,
    };
    let before_attack = spans.mark();
    let (released, external) = spans
        .time("linkage", || attack_tables(&run, ATTACK_SAMPLE_CAP))
        .map_err(err)?;
    let names: Vec<&str> = run
        .quasi
        .iter()
        .map(|&j| run.codec.header()[j].as_str())
        .collect();
    let pairs: Vec<(&str, &str)> = names.iter().map(|&n| (n, n)).collect();
    spans
        .time("linkage", || {
            kanon_relation::linkage_attack(&released, &external, &pairs)
        })
        .map_err(err)?;
    // Every external row is compared with every released row that has a
    // starred cell; exact rows are looked up by key.
    let starred = (0..released.n_rows())
        .filter(|&i| released.row(i).iter().any(|v| v == "*"))
        .count();
    Ok(Replay {
        total: spans.since(mark, None),
        attack: spans.since(before_attack, None),
        enforce: spans.since(mark, Some("privacy.enforce")),
        privacy_verify: spans.since(mark, Some("privacy.verify")),
        merges: merges as f64,
        pairs: (external.n_rows() * starred) as f64,
    })
}

/// `table-append`: appends over HTTP for the service layers, then the same
/// table through `DeltaStore` and the WAL in process.
fn table(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let inputs = inputs::table(ctx);
    let per_batch = ctx.sizes.inserts_per_batch;
    let appends = ctx.sizes.trace_appends;
    let server = Server::spawn(ctx.workers, Some(&ctx.work.file("trace-data")))?;
    let init_http = create_table(server.addr, &inputs)?;
    report.op(Ok(()));
    let run = append_loop(
        server.addr,
        &inputs,
        per_batch,
        Until::Count(appends),
        report,
    )?;
    drop(server);

    let mut spans = Spans::new("table-append");
    let config = DeltaConfig::new(K);
    let mut store = spans
        .time("delta.init", || {
            DeltaStore::init(ctx.work.file("trace-delta"), &inputs.seed_csv[..], &config)
        })
        .map_err(err)?;
    // The batch pipeline on the same rows with the store's pinned buckets:
    // what init costs without the store around it. It must agree exactly.
    let batch_config = PipelineConfig {
        shard_size: config.shard_size,
        n_buckets: Some(store.n_buckets()),
        workers: Some(1),
        ..PipelineConfig::default()
    };
    let started = Instant::now();
    let batch = run_csv(&inputs.seed_csv[..], K, None, &batch_config).map_err(err)?;
    let batch_s = started.elapsed().as_secs_f64();
    // And the batch pipeline's own sharding (buckets of `shard_size` rows),
    // the figure an operator compares init against.
    let started = Instant::now();
    let default_config = PipelineConfig {
        workers: Some(1),
        ..PipelineConfig::default()
    };
    run_csv(&inputs.seed_csv[..], K, None, &default_config).map_err(err)?;
    let default_batch_s = started.elapsed().as_secs_f64();
    if store.status().total_cost != Some(batch.report.total_cost) {
        report.fail(format!(
            "delta init cost {:?} differs from the batch run's {}",
            store.status().total_cost,
            batch.report.total_cost
        ));
    }

    let (mut resolved, mut inserted, mut compactions) = (0usize, 0usize, 0usize);
    let (mut wal_growth, mut user_bytes) = (0u64, 0usize);
    let mut wal_before = store.wal_bytes();
    for i in 0..appends {
        let body = inputs.batch(i, per_batch);
        let applied = spans
            .time("delta.apply", || {
                let ops = store.parse_ops(&body[..])?;
                store.apply(&ops)
            })
            .map_err(err)?;
        if applied.compacted {
            compactions += 1;
        } else {
            wal_growth += applied.wal_bytes.saturating_sub(wal_before);
            user_bytes += body.len();
        }
        wal_before = applied.wal_bytes;
        resolved += applied.resolved_rows;
        inserted += applied.inserted;
        spans.time("delta.release", || -> Result<(), String> {
            // Rendered into memory, as the server caches it.
            let mut bytes = Vec::new();
            store
                .release()
                .map_err(err)?
                .write_csv(&mut bytes)
                .map_err(err)
        })?;
    }
    // The WAL alone: one batch-sized record per append, fsync included.
    let mut wal = kanon_store::Wal::open(ctx.work.file("trace.wal")).map_err(err)?;
    for i in 0..appends {
        let body = inputs.batch(i, per_batch);
        spans
            .time("store.wal_append", || wal.append(&body))
            .map_err(err)?;
    }

    let per = |name: &str| {
        median(
            &spans
                .spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration.as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let acks: Vec<f64> = run.appends.iter().map(|a| a.ack).collect();
    let reads: Vec<f64> = run.appends.iter().map(|a| a.read).collect();
    let read_bytes: Vec<f64> = run.appends.iter().map(|a| a.read_bytes as f64).collect();
    let init = spans.total("delta.init");
    report.metric("tables.init_s", init_http, "s");
    report.metric("tables.ack_p50_s", median(&acks), "s");
    report.metric(
        "tables.ack_overhead_s",
        median(&acks) - per("delta.apply") - per("delta.release"),
        "s",
    );
    report.metric("tables.release_read_s", median(&reads), "s");
    report.metric("tables.release_read_bytes", median(&read_bytes), "bytes");
    report.metric("delta.init_s", init, "s");
    report.metric("delta.init_vs_batch", init / batch_s, "ratio");
    report.metric(
        "delta.init_vs_default_batch",
        init / default_batch_s,
        "ratio",
    );
    report.metric("delta.apply_s", per("delta.apply"), "s");
    report.metric(
        "delta.resolved_rows_per_insert",
        resolved as f64 / inserted.max(1) as f64,
        "ratio",
    );
    report.metric("delta.release_s", per("delta.release"), "s");
    report.metric("store.wal_append_s", per("store.wal_append"), "s");
    report.metric(
        "store.wal_bytes_per_user_byte",
        wal_growth as f64 / user_bytes.max(1) as f64,
        "ratio",
    );
    report.metric("store.compactions", compactions as f64, "count");
    spans.write_out(report);
    Ok(())
}
