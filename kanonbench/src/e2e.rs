//! The timed (untraced) runs: each workload through the user-facing
//! surfaces only, reporting the end-to-end metrics.
//!
//! Every workload reports the same five metrics, each read the way a user
//! of that path meets it:
//!
//! | metric          | batch-*                         | serve-jobs                 | table-append              |
//! |-----------------|---------------------------------|----------------------------|---------------------------|
//! | `setup_s`       | spawn to exit on a tiny input   | spawn to `/readyz` 200     | spawn to `/readyz` 200    |
//! | `rows_per_s`    | big input rows / median wall    | job rows completed / loop  | rows inserted / loop      |
//! | `latency_p50_s` | invocation wall, latency input  | submit to `completed`      | `POST .../ops` to ack     |
//! | `latency_p90_s` | as above                        | as above                   | as above                  |
//! | `peak_rss_mb`   | `VmHWM` of a big invocation     | `VmHWM` of the server      | `VmHWM` of the server     |
//!
//! Each set-up time is the median of several. A batch run takes its
//! latencies on a smaller input than its throughput, so that a p90 has at
//! least ten samples beyond it, and the two figures are separate
//! measurements. The service throughputs are what the loop completed over
//! its window, so `429` back-offs and queueing gaps show in them.

use std::path::PathBuf;

use crate::check::{inspect_release, json_raw, median, quantile};
use crate::proc::{invoke_kanon, spawn_measured};
use crate::service::{append_loop, create_table, job_loop, reconcile_jobs, Until};
use crate::{inputs, Ctx, Report, K};

/// Times each set-up this many times and reports the median.
const SETUP_TRIALS: usize = 31;

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    match ctx.workload {
        "batch-zipf" => batch(
            ctx,
            zipf_batch,
            [ctx.sizes.zipf_latency_rows, ctx.sizes.zipf_rows],
            report,
        ),
        "batch-messy-auto" => batch(
            ctx,
            messy_batch,
            [ctx.sizes.messy_latency_rows, ctx.sizes.messy_rows],
            report,
        ),
        "serve-jobs" => serve_jobs(ctx, report),
        "table-append" => table_append(ctx, report),
        other => Err(format!("unknown workload {other}")),
    }
}

/// One batch workload: its `kanon` argv and what its release must satisfy.
pub struct Batch {
    pub input: PathBuf,
    pub output: PathBuf,
    pub argv: Vec<String>,
    pub rows: usize,
    /// Columns the release is grouped on when re-checked.
    pub quasi: Vec<String>,
}

/// `kanon pipeline -k 5 --quasi <all 8> --shard-size 512 --workers W` on a
/// zipf table of `rows` rows; `name` keeps its files apart from other sizes'.
pub fn zipf_batch(ctx: &Ctx, name: &str, rows: usize) -> Result<Batch, String> {
    let input = ctx.work.file(&format!("zipf-{name}.csv"));
    let csv = inputs::batch_zipf(ctx, rows);
    std::fs::write(&input, &csv).map_err(|e| format!("cannot write the input: {e}"))?;
    let quasi: Vec<String> = (0..8).map(|j| format!("c{j}")).collect();
    let output = ctx.work.file(&format!("zipf-{name}.release.csv"));
    let argv = [
        "pipeline",
        "-k",
        &K.to_string(),
        "--quasi",
        &quasi.join(","),
        "--shard-size",
        "512",
        "--workers",
        &ctx.workers.to_string(),
        "--input",
        &input.to_string_lossy(),
        "--output",
        &output.to_string_lossy(),
        "--json",
    ]
    .map(str::to_string)
    .to_vec();
    Ok(Batch {
        input,
        output,
        argv,
        rows,
        quasi,
    })
}

/// `kanon pipeline -k 5` with no `--quasi` on a messy table of `rows` rows:
/// the schema-driven auto path.
pub fn messy_batch(ctx: &Ctx, name: &str, rows: usize) -> Result<Batch, String> {
    let input = ctx.work.file(&format!("messy-{name}.csv"));
    let csv = inputs::batch_messy(ctx, rows);
    std::fs::write(&input, &csv).map_err(|e| format!("cannot write the input: {e}"))?;
    // The release is re-checked on the quasi-identifier the schema suggests
    // for this input: the auto path's own choice, re-derived here.
    let sample = &csv[..csv.len().min(kanon_schema::probe::SAMPLE_BYTES)];
    let truncated = sample.len() == kanon_schema::probe::SAMPLE_BYTES;
    let schema =
        kanon_schema::infer_bytes(sample, truncated, kanon_schema::infer::DEFAULT_SAMPLE_ROWS)
            .map_err(|e| format!("schema inference failed on the input: {e}"))?;
    let mut quasi = schema.quasi_suggestion();
    if quasi.is_empty() {
        quasi = schema.columns.iter().map(|c| c.name.clone()).collect();
    }
    let output = ctx.work.file(&format!("messy-{name}.release.csv"));
    let argv = [
        "pipeline",
        "-k",
        &K.to_string(),
        "--input",
        &input.to_string_lossy(),
        "--output",
        &output.to_string_lossy(),
        "--json",
    ]
    .map(str::to_string)
    .to_vec();
    Ok(Batch {
        input,
        output,
        argv,
        rows,
        quasi,
    })
}

/// The figures a batch release must repeat exactly on every invocation.
#[derive(PartialEq, Debug)]
pub struct Fingerprint {
    pub digest: u64,
    pub cover_cost: String,
    pub precision_loss: Option<String>,
}

/// Re-checks one batch invocation's release from its CSV: every row is
/// there, every quasi-identifier group has at least k rows, and (for a
/// suppression release) the stars add up to the reported cover cost.
pub fn check_release(b: &Batch, report_json: &str) -> Result<Fingerprint, String> {
    let bytes = std::fs::read(&b.output).map_err(|e| format!("no release written: {e}"))?;
    std::fs::remove_file(&b.output).map_err(|e| format!("cannot clear the release: {e}"))?;
    let facts = inspect_release(&bytes, &b.quasi)?;
    if facts.rows != b.rows {
        return Err(format!("release has {} rows, input {}", facts.rows, b.rows));
    }
    if facts.smallest_group < K {
        return Err(format!(
            "release is not {K}-anonymous: smallest group {}",
            facts.smallest_group
        ));
    }
    let cover_cost = json_raw(report_json, "total_cost")
        .ok_or("report has no total_cost")?
        .to_string();
    let precision_loss = json_raw(report_json, "precision_loss").map(str::to_string);
    if precision_loss.is_none() && cover_cost != facts.stars.to_string() {
        return Err(format!(
            "release stars {} cells, the report claims cost {cover_cost}",
            facts.stars
        ));
    }
    Ok(Fingerprint {
        digest: facts.digest,
        cover_cost,
        precision_loss,
    })
}

/// Invocations of one batch input, every release checked and required to
/// repeat the first exactly.
struct Invoker<'a> {
    batch: &'a Batch,
    first: Option<Fingerprint>,
}

impl Invoker<'_> {
    /// One invocation: its wall time (spawn to exit) and peak RSS in MB.
    fn invoke(&mut self, report: &mut Report) -> Result<(f64, f64), String> {
        let inv = invoke_kanon(&self.batch.argv)?;
        let verdict = if inv.success {
            check_release(self.batch, &inv.stdout).and_then(|fp| match &self.first {
                None => {
                    self.first = Some(fp);
                    Ok(())
                }
                Some(prev) if *prev == fp => Ok(()),
                Some(prev) => Err(format!(
                    "release differs between invocations: {prev:?} vs {fp:?}"
                )),
            })
        } else {
            Err(format!("kanon pipeline failed: {}", inv.stderr.trim()))
        };
        report.op(verdict);
        let rss_mb = inv.peak_kb.unwrap_or(0) as f64 / 1024.0;
        Ok((inv.wall.as_secs_f64(), rss_mb))
    }

    /// Invokes until `window` seconds of invocations were timed and at
    /// least `min` were made; returns their walls and peak RSS.
    fn sample(
        &mut self,
        window: f64,
        min: usize,
        report: &mut Report,
    ) -> Result<(Vec<f64>, Vec<f64>), String> {
        let (mut walls, mut rss) = (Vec::new(), Vec::new());
        while walls.iter().sum::<f64>() < window || walls.len() < min {
            let (wall, mb) = self.invoke(report)?;
            walls.push(wall);
            rss.push(mb);
        }
        Ok((walls, rss))
    }
}

/// One batch workload: set-up on a tiny input, then half the window of
/// latency samples on the latency input, then half of throughput samples on
/// the big one. `rows` is `[latency, throughput]`.
fn batch(
    ctx: &Ctx,
    make: fn(&Ctx, &str, usize) -> Result<Batch, String>,
    rows: [usize; 2],
    report: &mut Report,
) -> Result<(), String> {
    let tiny = make(ctx, "setup", ctx.sizes.setup_rows)?;
    let small = make(ctx, "latency", rows[0])?;
    let big = make(ctx, "throughput", rows[1])?;
    let half = ctx.seconds.as_secs_f64() / 2.0;

    // Set-up: what an invocation costs before it has any real work.
    let mut setup = Invoker {
        batch: &tiny,
        first: None,
    };
    let (setups, _) = setup.sample(0.0, SETUP_TRIALS, report)?;
    let mut latency = Invoker {
        batch: &small,
        first: None,
    };
    let (latencies, _) = latency.sample(half, ctx.sizes.min_latency_samples, report)?;
    // The big input's first invocation warms the page cache and the
    // allocator; it is checked but not timed.
    let mut throughput = Invoker {
        batch: &big,
        first: None,
    };
    throughput.invoke(report)?;
    let (walls, rss) = throughput.sample(half, ctx.sizes.min_batch_runs, report)?;

    report.notes.push(format!(
        "set-up median of {} invocations of {} rows; {} latency invocations of {} rows; \
         {} timed throughput invocations of {} rows (median {:.3} s); input {}",
        setups.len(),
        tiny.rows,
        latencies.len(),
        small.rows,
        walls.len(),
        big.rows,
        median(&walls),
        big.input.display()
    ));
    report.metric("setup_s", median(&setups), "s");
    report.metric("rows_per_s", big.rows as f64 / median(&walls), "rows/s");
    report.metric("latency_p50_s", median(&latencies), "s");
    report.metric("latency_p90_s", quantile(&latencies, 0.9), "s");
    report.metric("peak_rss_mb", median(&rss), "MB");
    Ok(())
}

fn serve_jobs(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let bodies = inputs::job_bodies(ctx);
    let (server, setup) = spawn_measured(ctx.workers, SETUP_TRIALS, |_| None)?;
    let run = job_loop(
        server.addr,
        &bodies,
        ctx.clients,
        Until::Elapsed {
            window: ctx.seconds,
            min: ctx.sizes.min_latency_samples,
        },
        report,
    );
    reconcile_jobs(server.addr, run.jobs.len(), report)?;
    let latencies: Vec<f64> = run.jobs.iter().map(|j| j.latency).collect();
    report.notes.push(format!(
        "{} jobs of {} rows in {:.3} s ({:.3} jobs/s, {} refused with 429 first), \
         {} client(s), {} server worker(s)",
        run.jobs.len(),
        ctx.sizes.job_rows,
        run.window,
        run.jobs.len() as f64 / run.window,
        run.jobs.iter().map(|j| j.rejected).sum::<u32>(),
        ctx.clients,
        ctx.workers
    ));
    report.metric("setup_s", setup, "s");
    report.metric(
        "rows_per_s",
        (run.jobs.len() * ctx.sizes.job_rows) as f64 / run.window,
        "rows/s",
    );
    report.metric("latency_p50_s", median(&latencies), "s");
    report.metric("latency_p90_s", quantile(&latencies, 0.9), "s");
    report.metric(
        "peak_rss_mb",
        server.peak_kb().unwrap_or(0) as f64 / 1024.0,
        "MB",
    );
    Ok(())
}

fn table_append(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let inputs = inputs::table(ctx);
    let (server, setup) = spawn_measured(ctx.workers, SETUP_TRIALS, |i| {
        Some(ctx.work.file(&format!("data-{i}")))
    })?;
    let init = create_table(server.addr, &inputs)?;
    let init_peak_mb = server.peak_kb().unwrap_or(0) as f64 / 1024.0;
    report.op(Ok(()));
    let run = append_loop(
        server.addr,
        &inputs,
        ctx.sizes.inserts_per_batch,
        Until::Elapsed {
            window: ctx.seconds,
            min: ctx.sizes.min_latency_samples,
        },
        report,
    )?;
    let acks: Vec<f64> = run.appends.iter().map(|a| a.ack).collect();
    let reads: Vec<f64> = run.appends.iter().map(|a| a.read).collect();
    report.notes.push(format!(
        "{} acked batches of {} inserts on a {}-row table in {:.3} s, \
         table_init_s {init:.4} (peak RSS {init_peak_mb:.1} MB by then), \
         release_read_p50_s {:.5}",
        run.appends.len(),
        ctx.sizes.inserts_per_batch,
        inputs.seed_rows(),
        run.window,
        median(&reads)
    ));
    report.metric("setup_s", setup, "s");
    report.metric("rows_per_s", run.inserted as f64 / run.window, "rows/s");
    report.metric("latency_p50_s", median(&acks), "s");
    report.metric("latency_p90_s", quantile(&acks, 0.9), "s");
    report.metric(
        "peak_rss_mb",
        server.peak_kb().unwrap_or(0) as f64 / 1024.0,
        "MB",
    );
    Ok(())
}
