//! Live service counters and their Prometheus text exposition.
//!
//! The registry is append-only atomics (plus two small mutexed maps for
//! labelled families), so recording from connection handlers and job
//! workers never contends beyond a cache line. Scraping renders the
//! classic text format: `# HELP` / `# TYPE` preambles, counters suffixed
//! `_total`, and a fixed-bucket latency histogram — fixed so that two
//! scrapes are always bucket-compatible, no matter what traffic arrived
//! in between.
//!
//! The designed invariant, asserted end-to-end by the `server_integration`
//! tests: every admitted job ends in exactly one of `completed` or
//! `failed`, so after a drain `accepted_total == completed_total +
//! failed_total`, and `accepted + rejected` equals the submissions the
//! clients made. `panicked_total` counts the failed jobs whose solve
//! panicked.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use kanon_pipeline::PipelineReport;

use crate::lock::recover;

/// Upper bounds (seconds) of the request-latency histogram buckets; the
/// rendered histogram appends the implicit `+Inf` bucket.
const LATENCY_BUCKETS: &[(&str, f64)] = &[
    ("0.001", 0.001),
    ("0.0025", 0.0025),
    ("0.005", 0.005),
    ("0.01", 0.01),
    ("0.025", 0.025),
    ("0.05", 0.05),
    ("0.1", 0.1),
    ("0.25", 0.25),
    ("0.5", 0.5),
    ("1", 1.0),
    ("2.5", 2.5),
    ("5", 5.0),
    ("10", 10.0),
];

/// Per-table counters and gauges for the durable-table subsystem.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TableStats {
    /// Current WAL size in bytes (gauge; 0 right after a compaction).
    pub wal_bytes: u64,
    /// Ops batches applied since this process started (counter). The
    /// durable truth across restarts is the table's `seq`, which lives in
    /// the WAL — this counter is the in-process view.
    pub batches_applied: u64,
    /// Individual ops (inserts + deletes + updates) applied (counter).
    pub ops_applied: u64,
    /// Dirty units re-solved across refreshes (counter).
    pub resolved_units: u64,
    /// Wall-clock seconds the startup recovery replay took (gauge; 0 for
    /// tables created in this process).
    pub recovery_seconds: f64,
    /// Whether the table is quarantined (gauge).
    pub quarantined: bool,
    /// Writers answered `409` because another writer held the table's
    /// single-writer lock (counter).
    pub write_conflicts: u64,
}

/// The job counters, `kanon_jobs_<name>_total`, with their help texts.
const JOB_COUNTERS: [(&str, &str); 6] = [
    ("accepted", "Jobs admitted to the queue."),
    (
        "rejected",
        "Jobs rejected at admission (queue full or pool exhausted).",
    ),
    ("completed", "Jobs that produced a k-anonymous result."),
    ("failed", "Jobs that errored after admission."),
    (
        "panicked",
        "Failed jobs whose solve panicked (also counted as failed).",
    ),
    (
        "degraded",
        "Completed jobs where at least one shard degraded below its first rung.",
    ),
];

/// The service's metric registry. One instance lives for the server's
/// whole lifetime; counters only ever increase.
#[derive(Debug, Default)]
pub struct Metrics {
    jobs_accepted: AtomicU64,
    jobs_rejected: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_panicked: AtomicU64,
    jobs_degraded: AtomicU64,
    shards_by_solver: Mutex<BTreeMap<&'static str, u64>>,
    http_responses: Mutex<BTreeMap<u16, u64>>,
    tables: Mutex<BTreeMap<String, TableStats>>,
    latency_counts: [AtomicU64; LATENCY_BUCKETS.len() + 1],
    latency_sum_micros: AtomicU64,
    latency_count: AtomicU64,
}

impl Metrics {
    /// A fresh registry with every counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records an admission decision for a submitted job.
    pub fn record_admission(&self, accepted: bool) {
        if accepted {
            self.jobs_accepted.fetch_add(1, Ordering::Relaxed);
        } else {
            self.jobs_rejected.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a job that finished with a report: completion, degradation,
    /// and which solver answered each shard (ladder rungs and the
    /// suppress-and-split fallback).
    pub fn record_completed(&self, report: &PipelineReport) {
        self.jobs_completed.fetch_add(1, Ordering::Relaxed);
        if report.degraded_shards() > 0 {
            self.jobs_degraded.fetch_add(1, Ordering::Relaxed);
        }
        let mut by_solver = recover(self.shards_by_solver.lock());
        for shard in &report.shards {
            *by_solver.entry(shard.solved_by.name()).or_insert(0) += 1;
        }
    }

    /// Records a job that ended in an error after admission; `panicked`
    /// when the error is a panic its solve raised.
    pub fn record_failed(&self, panicked: bool) {
        self.jobs_failed.fetch_add(1, Ordering::Relaxed);
        if panicked {
            self.jobs_panicked.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one HTTP response and its end-to-end handling latency.
    pub fn record_response(&self, status: u16, latency: Duration) {
        *recover(self.http_responses.lock())
            .entry(status)
            .or_insert(0) += 1;
        let secs = latency.as_secs_f64();
        let bucket = LATENCY_BUCKETS
            .iter()
            .position(|(_, bound)| secs <= *bound)
            .unwrap_or(LATENCY_BUCKETS.len());
        self.latency_counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.latency_sum_micros.fetch_add(
            u64::try_from(latency.as_micros()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        self.latency_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Updates (creating on first touch) the stats of one durable table.
    pub fn table(&self, name: &str, update: impl FnOnce(&mut TableStats)) {
        let mut tables = recover(self.tables.lock());
        update(tables.entry(name.to_string()).or_default());
    }

    /// Drops a deleted table's stats so the scrape stops reporting it.
    pub fn remove_table(&self, name: &str) {
        recover(self.tables.lock()).remove(name);
    }

    /// A snapshot of one table's stats, if the table is known.
    #[must_use]
    pub fn table_stats(&self, name: &str) -> Option<TableStats> {
        recover(self.tables.lock()).get(name).cloned()
    }

    /// Renders the Prometheus text exposition. Gauges that live outside
    /// the registry (queue depth, pool occupancy) are passed in so the
    /// scrape is one consistent snapshot.
    #[must_use]
    pub fn render(&self, queue_depth: usize, pool_total: u64, pool_leased: u64) -> String {
        let mut out = String::with_capacity(2048);
        let counts = [
            &self.jobs_accepted,
            &self.jobs_rejected,
            &self.jobs_completed,
            &self.jobs_failed,
            &self.jobs_panicked,
            &self.jobs_degraded,
        ];
        for ((what, help), count) in JOB_COUNTERS.into_iter().zip(counts) {
            let (name, value) = (
                format!("kanon_jobs_{what}_total"),
                count.load(Ordering::Relaxed),
            );
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        }

        out.push_str("# HELP kanon_shards_solved_total Shards answered, by solver.\n");
        out.push_str("# TYPE kanon_shards_solved_total counter\n");
        for (solver, count) in recover(self.shards_by_solver.lock()).iter() {
            out.push_str(&format!(
                "kanon_shards_solved_total{{solver=\"{solver}\"}} {count}\n"
            ));
        }

        out.push_str("# HELP kanon_http_responses_total HTTP responses sent, by status code.\n");
        out.push_str("# TYPE kanon_http_responses_total counter\n");
        for (code, count) in recover(self.http_responses.lock()).iter() {
            out.push_str(&format!(
                "kanon_http_responses_total{{code=\"{code}\"}} {count}\n"
            ));
        }

        {
            let tables = recover(self.tables.lock());
            if !tables.is_empty() {
                let mut family =
                    |name: &str, kind: &str, help: &str, value: &dyn Fn(&TableStats) -> String| {
                        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
                        for (table, stats) in tables.iter() {
                            out.push_str(&format!(
                                "{name}{{table=\"{table}\"}} {}\n",
                                value(stats)
                            ));
                        }
                    };
                family(
                    "kanon_table_wal_bytes",
                    "gauge",
                    "Current WAL size of a durable table.",
                    &|t| t.wal_bytes.to_string(),
                );
                family(
                    "kanon_table_batches_applied_total",
                    "counter",
                    "Ops batches applied to a durable table (this process).",
                    &|t| t.batches_applied.to_string(),
                );
                family(
                    "kanon_table_ops_applied_total",
                    "counter",
                    "Individual ops applied to a durable table (this process).",
                    &|t| t.ops_applied.to_string(),
                );
                family(
                    "kanon_table_resolved_units_total",
                    "counter",
                    "Dirty units re-solved across refreshes (this process).",
                    &|t| t.resolved_units.to_string(),
                );
                family(
                    "kanon_table_recovery_seconds",
                    "gauge",
                    "Wall-clock duration of the startup WAL replay.",
                    &|t| format!("{:.6}", t.recovery_seconds),
                );
                family(
                    "kanon_table_quarantined",
                    "gauge",
                    "1 when the table is quarantined after an integrity failure.",
                    &|t| u8::from(t.quarantined).to_string(),
                );
                family(
                    "kanon_table_write_conflicts_total",
                    "counter",
                    "Writers answered 409 because the single-writer lock was held.",
                    &|t| t.write_conflicts.to_string(),
                );
            }
        }

        out.push_str("# HELP kanon_queue_depth Jobs waiting in the admission queue.\n");
        out.push_str("# TYPE kanon_queue_depth gauge\n");
        out.push_str(&format!("kanon_queue_depth {queue_depth}\n"));

        out.push_str("# HELP kanon_pool_memory_bytes Global memory pool occupancy.\n");
        out.push_str("# TYPE kanon_pool_memory_bytes gauge\n");
        out.push_str(&format!(
            "kanon_pool_memory_bytes{{state=\"total\"}} {pool_total}\n"
        ));
        out.push_str(&format!(
            "kanon_pool_memory_bytes{{state=\"leased\"}} {pool_leased}\n"
        ));

        out.push_str(
            "# HELP kanon_request_latency_seconds HTTP request handling latency.\n\
             # TYPE kanon_request_latency_seconds histogram\n",
        );
        let mut cumulative = 0u64;
        for (i, (label, _)) in LATENCY_BUCKETS.iter().enumerate() {
            cumulative += self.latency_counts[i].load(Ordering::Relaxed);
            out.push_str(&format!(
                "kanon_request_latency_seconds_bucket{{le=\"{label}\"}} {cumulative}\n"
            ));
        }
        cumulative += self.latency_counts[LATENCY_BUCKETS.len()].load(Ordering::Relaxed);
        out.push_str(&format!(
            "kanon_request_latency_seconds_bucket{{le=\"+Inf\"}} {cumulative}\n"
        ));
        let sum_secs = self.latency_sum_micros.load(Ordering::Relaxed) as f64 / 1e6;
        out.push_str(&format!(
            "kanon_request_latency_seconds_sum {sum_secs:.6}\n"
        ));
        out.push_str(&format!(
            "kanon_request_latency_seconds_count {}\n",
            self.latency_count.load(Ordering::Relaxed)
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pulls `name value` (or `name{labels} value`) pairs out of a
    /// Prometheus text page.
    fn parse_exposition(text: &str) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some((name, value)) = line.rsplit_once(' ') {
                if let Ok(value) = value.parse::<f64>() {
                    out.insert(name.to_string(), value);
                }
            }
        }
        out
    }

    #[test]
    fn render_and_parse_round_trip() {
        let m = Metrics::new();
        m.record_admission(true);
        m.record_admission(true);
        m.record_admission(false);
        m.record_failed(true);
        m.record_failed(false);
        m.record_response(202, Duration::from_millis(3));
        m.record_response(429, Duration::from_secs(20));

        let page = m.render(5, 1024, 512);
        let parsed = parse_exposition(&page);
        assert_eq!(parsed["kanon_jobs_accepted_total"], 2.0);
        assert_eq!(parsed["kanon_jobs_rejected_total"], 1.0);
        assert_eq!(parsed["kanon_jobs_failed_total"], 2.0);
        assert_eq!(parsed["kanon_jobs_panicked_total"], 1.0);
        assert_eq!(parsed["kanon_queue_depth"], 5.0);
        assert_eq!(parsed["kanon_pool_memory_bytes{state=\"total\"}"], 1024.0);
        assert_eq!(parsed["kanon_pool_memory_bytes{state=\"leased\"}"], 512.0);
        assert_eq!(parsed["kanon_http_responses_total{code=\"202\"}"], 1.0);
        assert_eq!(parsed["kanon_http_responses_total{code=\"429\"}"], 1.0);
        // Histogram: 3ms falls in le=0.005; the 20s response only in +Inf.
        assert_eq!(
            parsed["kanon_request_latency_seconds_bucket{le=\"0.005\"}"],
            1.0
        );
        assert_eq!(
            parsed["kanon_request_latency_seconds_bucket{le=\"10\"}"],
            1.0
        );
        assert_eq!(
            parsed["kanon_request_latency_seconds_bucket{le=\"+Inf\"}"],
            2.0
        );
        assert_eq!(parsed["kanon_request_latency_seconds_count"], 2.0);
    }

    #[test]
    fn table_families_render_per_table() {
        let m = Metrics::new();
        m.table("orders", |t| {
            t.wal_bytes = 512;
            t.batches_applied = 3;
            t.ops_applied = 9;
            t.resolved_units = 4;
            t.recovery_seconds = 0.25;
        });
        m.table("people", |t| {
            t.quarantined = true;
            t.write_conflicts = 2;
        });
        let parsed = parse_exposition(&m.render(0, 0, 0));
        assert_eq!(parsed["kanon_table_wal_bytes{table=\"orders\"}"], 512.0);
        assert_eq!(
            parsed["kanon_table_batches_applied_total{table=\"orders\"}"],
            3.0
        );
        assert_eq!(
            parsed["kanon_table_ops_applied_total{table=\"orders\"}"],
            9.0
        );
        assert_eq!(
            parsed["kanon_table_resolved_units_total{table=\"orders\"}"],
            4.0
        );
        assert_eq!(
            parsed["kanon_table_recovery_seconds{table=\"orders\"}"],
            0.25
        );
        assert_eq!(parsed["kanon_table_quarantined{table=\"people\"}"], 1.0);
        assert_eq!(parsed["kanon_table_quarantined{table=\"orders\"}"], 0.0);
        assert_eq!(
            parsed["kanon_table_write_conflicts_total{table=\"people\"}"],
            2.0
        );
        m.remove_table("people");
        let parsed = parse_exposition(&m.render(0, 0, 0));
        assert!(!parsed.contains_key("kanon_table_quarantined{table=\"people\"}"));
        assert_eq!(m.table_stats("orders").unwrap().batches_applied, 3);
        assert!(m.table_stats("people").is_none());
    }

    #[test]
    fn buckets_are_cumulative_and_monotone() {
        let m = Metrics::new();
        for ms in [1u64, 2, 40, 400, 4000] {
            m.record_response(200, Duration::from_millis(ms));
        }
        let parsed = parse_exposition(&m.render(0, 0, 0));
        let mut last = 0.0;
        for (label, _) in LATENCY_BUCKETS {
            let v = parsed[&format!("kanon_request_latency_seconds_bucket{{le=\"{label}\"}}")];
            assert!(v >= last, "bucket {label} shrank");
            last = v;
        }
        assert_eq!(
            parsed["kanon_request_latency_seconds_bucket{le=\"+Inf\"}"],
            5.0
        );
    }
}
