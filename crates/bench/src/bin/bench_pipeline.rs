//! Throughput benchmark for the sharded out-of-core pipeline: generates a
//! zipf-skewed CSV, ingests it once, runs the solve+merge path at several
//! shard sizes, verifies every merged release is k-anonymous, and writes
//! `BENCH_pipeline.json` with rows/sec per configuration.
//!
//! Ingestion is hoisted out of the sweep and timed separately, so the
//! shard-size numbers isolate solve+merge effects: tiny shards pay
//! per-shard overhead, huge shards pay the solver's superlinear cost, and
//! the default (512) should sit near the plateau between them.
//!
//! A second phase benchmarks the **delta engine**: init a durable store
//! from scratch, then append 1% more rows as one batch and compare the
//! apply time against the from-scratch init. The store's dirty-bucket
//! re-solving should make the append an order of magnitude cheaper;
//! `--delta-max-ratio` turns that into a hard gate (nonzero exit) for CI.
//!
//! Every report records the distance kernel that actually ran (see
//! `KANON_FORCE_KERNEL`), the CPU features detected at startup, and the
//! worker count each run resolved to — so a regression hunt can tell a
//! kernel change from a scheduling change from different hardware.
//!
//! ```text
//! cargo run --release -p kanon-bench --bin bench_pipeline -- [--quick] \
//!     [--rows N] [--workers N] [--delta-rows N] [--delta-max-ratio R] \
//!     [--out PATH]
//! ```

use std::time::Instant;

use kanon_core::kernel;
use kanon_pipeline::{run_pipeline, DeltaConfig, DeltaOp, DeltaStore, PipelineConfig};
use kanon_workloads::{write_zipf_csv, ZipfParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Run {
    shard_size: usize,
    n_shards: usize,
    degraded: usize,
    total_cost: usize,
    elapsed_ms: f64,
    rows_per_sec: f64,
    workers: usize,
}

fn main() {
    let mut quick = false;
    let mut rows: Option<usize> = None;
    let mut workers: Option<usize> = None;
    let mut delta_rows: Option<usize> = None;
    let mut delta_max_ratio: Option<f64> = None;
    let mut out = String::from("BENCH_pipeline.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--rows" => {
                rows = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--rows needs a positive integer"),
                );
            }
            "--workers" => {
                workers = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--workers needs a positive integer"),
                );
            }
            "--delta-rows" => {
                delta_rows = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--delta-rows needs a positive integer"),
                );
            }
            "--delta-max-ratio" => {
                delta_max_ratio = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--delta-max-ratio needs a number"),
                );
            }
            "--out" => out = args.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: bench_pipeline [--quick] [--rows N] [--workers N] \
                     [--delta-rows N] [--delta-max-ratio R] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    let rows = rows.unwrap_or(if quick { 20_000 } else { 200_000 });
    let delta_rows = delta_rows.unwrap_or(if quick { 20_000 } else { 1_000_000 });
    let k = 5usize;
    let params = ZipfParams {
        n: rows,
        m: 8,
        alphabet: 32,
        exponent: 1.0,
    };

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    eprintln!(
        "kernel {} (cpu features: {}), {cores} core(s)",
        kernel::kernel(),
        kernel::cpu_features(),
    );
    eprintln!("generating zipf CSV ({rows} rows, {} cols)...", params.m);
    let mut csv = Vec::new();
    let mut rng = StdRng::seed_from_u64(0x5EED);
    write_zipf_csv(&mut rng, &params, &mut csv).expect("in-memory write");

    // Ingest once; the sweep then isolates shard-size effects on the
    // solve+merge path. (Ingest itself is timed separately below.)
    let t = Instant::now();
    let (ds, _codec) = kanon_pipeline::ingest_csv(csv.as_slice()).expect("generated CSV parses");
    let ingest_ms = t.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "  ingest: {ingest_ms:.1} ms ({:.0} rows/s)",
        rows as f64 / (ingest_ms / 1e3)
    );

    let shard_sizes: &[usize] = &[128, 512, 2048];
    let mut runs: Vec<Run> = Vec::new();
    for &shard_size in shard_sizes {
        let config = PipelineConfig {
            shard_size,
            workers,
            ..Default::default()
        };
        let (anon, report) = run_pipeline(&ds, k, &config).expect("pipeline completes");
        assert!(
            anon.table.is_k_anonymous(k),
            "shard_size {shard_size}: merged release is not {k}-anonymous"
        );
        assert_eq!(anon.cost, report.total_cost, "report/cost mismatch");
        let elapsed_ms = report.elapsed.as_secs_f64() * 1e3;
        eprintln!(
            "  shard_size {shard_size:>5}: {:>4} shards, {:>8.0} rows/s, cost {}, degraded {}",
            report.n_shards(),
            report.rows_per_sec(),
            report.total_cost,
            report.degraded_shards(),
        );
        runs.push(Run {
            shard_size,
            n_shards: report.n_shards(),
            degraded: report.degraded_shards(),
            total_cost: report.total_cost,
            elapsed_ms,
            rows_per_sec: report.rows_per_sec(),
            workers: report.workers,
        });
    }

    // ------------------------------------------------------------------
    // Delta phase: from-scratch init vs a 1% append on a durable store.
    // ------------------------------------------------------------------
    let delta_k = 3usize;
    let delta = {
        let params = ZipfParams {
            n: delta_rows,
            m: 8,
            alphabet: 32,
            exponent: 1.0,
        };
        eprintln!("delta: generating zipf CSV ({delta_rows} rows)...");
        let mut table = Vec::new();
        let mut rng = StdRng::seed_from_u64(0x5EED);
        write_zipf_csv(&mut rng, &params, &mut table).expect("in-memory write");

        // The 1% append, drawn from the same distribution (fresh seed).
        let append_rows = (delta_rows / 100).max(1);
        let mut appendix = Vec::new();
        let mut rng = StdRng::seed_from_u64(0xA11D);
        write_zipf_csv(
            &mut rng,
            &ZipfParams {
                n: append_rows,
                ..params
            },
            &mut appendix,
        )
        .expect("in-memory write");
        let ops: Vec<DeltaOp> = String::from_utf8(appendix)
            .expect("generated CSV is UTF-8")
            .lines()
            .skip(1) // header
            .map(|line| DeltaOp::Insert {
                fields: line.split(',').map(str::to_string).collect(),
            })
            .collect();
        assert_eq!(ops.len(), append_rows);

        let dir = std::env::temp_dir().join(format!("kanon-bench-delta-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let t = Instant::now();
        let mut store = DeltaStore::init(&dir, table.as_slice(), &DeltaConfig::new(delta_k))
            .expect("delta init");
        let init_ms = t.elapsed().as_secs_f64() * 1e3;
        eprintln!(
            "  init:  {init_ms:>9.1} ms ({} rows, {} buckets)",
            store.n_rows(),
            store.n_buckets(),
        );

        let t = Instant::now();
        let report = store.apply(&ops).expect("delta apply");
        let apply_ms = t.elapsed().as_secs_f64() * 1e3;
        let ratio = apply_ms / init_ms;
        eprintln!(
            "  apply: {apply_ms:>9.1} ms (+{} rows, re-solved {} of {} rows, ratio {:.3})",
            report.inserted, report.resolved_rows, report.n_rows, ratio,
        );
        assert!(
            store.status().total_cost.is_some(),
            "store left dirty after apply"
        );
        let _ = std::fs::remove_dir_all(&dir);

        if let Some(max) = delta_max_ratio {
            if ratio > max {
                eprintln!("DELTA GATE FAILED: apply/init ratio {ratio:.3} > {max:.3}");
                std::process::exit(1);
            }
            eprintln!("  delta gate: ratio {ratio:.3} <= {max:.3}, ok");
        }
        (init_ms, apply_ms, ratio, report)
    };

    // Hand-rolled JSON: the workspace deliberately vendors no serde.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"harness\": \"bench_pipeline\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    json.push_str(&format!(
        "  \"rows\": {rows}, \"cols\": {}, \"alphabet\": {}, \"exponent\": {}, \"k\": {k},\n",
        params.m, params.alphabet, params.exponent
    ));
    json.push_str(&format!(
        "  \"kernel\": \"{}\", \"cpu_features\": \"{}\", \"cores\": {cores},\n",
        kernel::kernel(),
        kernel::cpu_features(),
    ));
    json.push_str(&format!("  \"ingest_ms\": {ingest_ms:.1},\n"));
    let fmt_run = |r: &Run, last: bool| {
        format!(
            "    {{\"shard_size\": {}, \"n_shards\": {}, \"degraded\": {}, \"total_cost\": {}, \"elapsed_ms\": {:.1}, \"rows_per_sec\": {:.1}, \"kernel\": \"{}\", \"workers\": {}}}{}\n",
            r.shard_size,
            r.n_shards,
            r.degraded,
            r.total_cost,
            r.elapsed_ms,
            r.rows_per_sec,
            kernel::kernel(),
            r.workers,
            if last { "" } else { "," }
        )
    };
    json.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        json.push_str(&fmt_run(r, i + 1 == runs.len()));
    }
    json.push_str("  ],\n");
    let (init_ms, apply_ms, ratio, report) = &delta;
    json.push_str(&format!(
        "  \"delta\": {{\"rows\": {delta_rows}, \"append_rows\": {}, \"k\": {delta_k}, \
         \"init_ms\": {init_ms:.1}, \"apply_ms\": {apply_ms:.1}, \"ratio\": {ratio:.4}, \
         \"resolved_rows\": {}, \"resolved_units\": {}, \"total_cost\": {}}}\n",
        report.inserted, report.resolved_rows, report.resolved_units, report.total_cost,
    ));
    json.push_str("}\n");

    std::fs::write(&out, &json).expect("write benchmark JSON");
    eprintln!("wrote {out}");
}
