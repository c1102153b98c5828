//! `kanonbench`: the repository's benchmark.
//!
//! ```text
//! kanonbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! With `--trace 0` one workload runs against the user-facing surfaces (the
//! `kanon` argv and the HTTP API of a `kanon serve` in its own process) and
//! the end-to-end metrics are printed. With `--trace 1` the same seeded
//! inputs are replayed through each layer's public functions, with a span
//! around every call, and the per-layer split is printed instead. Either
//! way every output is checked, and the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod check;
mod e2e;
mod inputs;
mod proc;
mod service;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

/// The workloads, in the order `README.md` describes them.
const WORKLOADS: [&str; 4] = [
    "batch-zipf",
    "batch-messy-auto",
    "serve-jobs",
    "table-append",
];

/// A second seed, never used while the benchmark was tuned: any later speed
/// claim must also hold on it.
const HELD_OUT_SEED: u64 = 7919;

/// The anonymity parameter every workload runs at.
const K: usize = 5;

const USAGE: &str =
    "usage: kanonbench --workload <batch-zipf|batch-messy-auto|serve-jobs|table-append> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke]";

/// Input sizes: the full benchmark shape, or a tiny one that runs every
/// path in seconds.
#[derive(Clone, Copy, Debug)]
struct Sizes {
    /// Rows of the batch inputs the throughput is taken on.
    zipf_rows: usize,
    messy_rows: usize,
    /// Rows of the batch inputs each latency sample runs on.
    zipf_latency_rows: usize,
    messy_latency_rows: usize,
    /// Rows of the tiny batch input the set-up time is taken on.
    setup_rows: usize,
    job_rows: usize,
    table_rows: usize,
    /// Rows the table workload's insert pool holds (cycled if exhausted).
    insert_pool: usize,
    inserts_per_batch: usize,
    /// Jobs and appends the traced run replays.
    trace_jobs: usize,
    trace_appends: usize,
    /// Fewest timed throughput invocations a batch run makes, however long
    /// they take.
    min_batch_runs: usize,
    /// Fewest latency samples a run takes: a p90 needs ten beyond it.
    min_latency_samples: usize,
}

impl Sizes {
    const FULL: Sizes = Sizes {
        zipf_rows: 500_000,
        messy_rows: 20_000,
        zipf_latency_rows: 20_000,
        messy_latency_rows: 1_000,
        setup_rows: 100,
        job_rows: 3_000,
        table_rows: 20_000,
        insert_pool: 40_000,
        inserts_per_batch: 50,
        trace_jobs: 24,
        trace_appends: 20,
        min_batch_runs: 3,
        min_latency_samples: 100,
    };
    const SMOKE: Sizes = Sizes {
        zipf_rows: 3_000,
        messy_rows: 600,
        zipf_latency_rows: 500,
        messy_latency_rows: 300,
        setup_rows: 100,
        job_rows: 300,
        table_rows: 600,
        insert_pool: 200,
        inserts_per_batch: 10,
        trace_jobs: 4,
        trace_appends: 4,
        min_batch_runs: 2,
        min_latency_samples: 10,
    };
}

/// Everything one run needs.
struct Ctx {
    workload: &'static str,
    seed: u64,
    seconds: Duration,
    sizes: Sizes,
    /// Pipeline workers for batch runs and job workers for the server:
    /// `min(2, nproc)`.
    workers: usize,
    /// Concurrent HTTP clients of the job workload: `min(2, nproc)`.
    clients: usize,
    nproc: usize,
    work: proc::WorkDir,
}

/// A run's verdict and numbers; the final stdout line.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed (prefixed `# `) before the result.
    notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Counts one attempted operation; an `Err` (it failed, was refused, or
    /// failed a check) counts against it.
    fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(problem) = outcome {
            self.fail(problem);
        }
    }

    /// Records a failed check that belongs to no single operation.
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        // The result format requires `attempted >= 1`; a run that
        // attempted nothing is already incorrect.
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

struct Opts {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{flag} needs a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("kanon") {
        return proc::kanon_child(&args[1..]);
    }
    let opts = match parse_opts(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("kanonbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // Neither a worker pool nor the job clients' connections outnumber the
    // cores, or the run would measure oversubscription instead of the
    // program; both are capped at `nproc` by construction.
    let workers = 2.min(nproc);
    let clients = 2.min(nproc);
    let work = match proc::WorkDir::create(opts.workload) {
        Ok(work) => work,
        Err(e) => {
            eprintln!("kanonbench: cannot create the work directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ctx = Ctx {
        workload: opts.workload,
        seed: opts.seed,
        seconds: Duration::from_secs(opts.seconds),
        sizes: if opts.smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        },
        workers,
        clients,
        nproc,
        work,
    };

    println!(
        "# host nproc={nproc} kernel={} cpu_features={} workers={workers} clients={clients}",
        kanon_core::kernel::kernel().name(),
        kanon_core::kernel::cpu_features(),
    );
    println!(
        "# run workload={} seed={} held_out_seed={HELD_OUT_SEED} seconds={} trace={} smoke={}",
        ctx.workload,
        ctx.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.smoke
    );

    let mut report = Report::default();
    let outcome = if opts.trace {
        trace::run(&ctx, &mut report)
    } else {
        e2e::run(&ctx, &mut report)
    };
    if let Err(e) = outcome {
        report.fail(format!("run aborted: {e}"));
    }

    for note in &report.notes {
        println!("# {note}");
    }
    for (name, value, unit) in &report.metrics {
        println!("# {name} = {value} {unit}");
    }
    println!(
        "# error_rate = {} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for problem in &report.problems {
        eprintln!("kanonbench: check failed: {problem}");
    }
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
