//! The HTTP load generators: closed-loop job clients and the single table
//! writer. Both are shared by the timed runs and the traced run.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::check::{inspect_release, json_number, parse_exposition};
use crate::inputs::TableInputs;
use crate::proc::request;
use crate::{Report, K};

/// How long a loop runs: for a wall-clock window (extended until at least
/// `min` operations were issued), or for a fixed count.
#[derive(Clone, Copy)]
pub enum Until {
    Elapsed { window: Duration, min: usize },
    Count(usize),
}

impl Until {
    fn done(self, started: Instant, issued: usize) -> bool {
        match self {
            Until::Elapsed { window, min } => started.elapsed() >= window && issued >= min,
            Until::Count(n) => issued >= n,
        }
    }
}

/// Job status polling interval; queue wait is measured at this resolution.
const POLL: Duration = Duration::from_millis(5);

/// One job, timed on the client side (seconds).
pub struct JobTiming {
    /// Submit until the client saw `completed`.
    pub latency: f64,
    /// `POST` until its `202`.
    pub submit: f64,
    /// `202` until the first poll that no longer saw `queued`.
    pub queue_wait: f64,
    /// The job's own `elapsed_ms` (admission to completion), in seconds.
    pub server: f64,
    /// `429`s answered before the job was admitted.
    pub rejected: u32,
}

/// Every job a loop finished, and the loop's wall time.
pub struct JobRun {
    pub jobs: Vec<JobTiming>,
    pub window: f64,
}

/// Closed loop: each of `clients` threads submits a job, polls it to a
/// terminal state, then submits the next. Jobs rotate through `bodies` and
/// alternate between plain k and `l=2` diversity on column `c5`.
pub fn job_loop(
    addr: SocketAddr,
    bodies: &[Vec<u8>],
    clients: usize,
    until: Until,
    report: &mut Report,
) -> JobRun {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let outcomes: Vec<Result<JobTiming, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if until.done(started, index) {
                            return mine;
                        }
                        let body = &bodies[index % bodies.len()];
                        mine.push(run_job(addr, body, index % 2 == 1));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("job client panicked"))
            .collect()
    });
    let window = started.elapsed().as_secs_f64();
    let mut jobs = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        match outcome {
            Ok(job) => {
                jobs.push(job);
                report.op(Ok(()));
            }
            Err(problem) => report.op(Err(problem)),
        }
    }
    JobRun { jobs, window }
}

fn run_job(addr: SocketAddr, body: &[u8], private: bool) -> Result<JobTiming, String> {
    let mut target = format!("/v1/anonymize?k={K}&shard_size=512");
    if private {
        target.push_str("&privacy=l=2&sensitive=c5");
    }
    let started = Instant::now();
    let mut rejected = 0u32;
    let id = loop {
        let response = request(addr, "POST", &target, body)?;
        match response.status {
            202 => {
                break json_number(&response.text(), "id")
                    .ok_or_else(|| format!("202 without an id: {}", response.text()))?
            }
            429 if rejected < 100 => {
                rejected += 1;
                std::thread::sleep(Duration::from_secs(response.retry_after.unwrap_or(1)));
            }
            status => return Err(format!("submit answered {status}: {}", response.text())),
        }
    };
    let submit = started.elapsed().as_secs_f64();
    let poll_target = format!("/v1/jobs/{id}");
    let mut queue_wait = None;
    loop {
        let response = request(addr, "GET", &poll_target, b"")?;
        let text = response.text();
        if response.status != 200 {
            return Err(format!(
                "job {id} status answered {}: {text}",
                response.status
            ));
        }
        if queue_wait.is_none() && !text.contains("\"state\":\"queued\"") {
            queue_wait = Some(started.elapsed().as_secs_f64() - submit);
        }
        if text.contains("\"state\":\"completed\"") {
            let latency = started.elapsed().as_secs_f64();
            if !text.contains("\"k_anonymous\":true") {
                return Err(format!("job {id} completed without k_anonymous:true"));
            }
            if private && !text.contains("\"privacy_verified\":true") {
                return Err(format!(
                    "privacy job {id} completed without privacy_verified:true"
                ));
            }
            let server = json_number(&text, "elapsed_ms")
                .ok_or_else(|| format!("job {id} reports no elapsed_ms"))?
                / 1000.0;
            return Ok(JobTiming {
                latency,
                submit,
                queue_wait: queue_wait.unwrap_or(0.0),
                server,
                rejected,
            });
        }
        if text.contains("\"state\":\"failed\"") {
            return Err(format!("job {id} failed: {text}"));
        }
        std::thread::sleep(POLL);
    }
}

/// The server's job counters must reconcile with each other and with what
/// the clients saw: `accepted == completed + failed`, and every job the
/// clients finished is counted completed.
pub fn reconcile_jobs(
    addr: SocketAddr,
    completed: usize,
    report: &mut Report,
) -> Result<(), String> {
    let page = request(addr, "GET", "/metrics", b"")?;
    let counters = parse_exposition(&page.text());
    let get = |name: &str| counters.get(name).copied().unwrap_or(-1.0);
    let accepted = get("kanon_jobs_accepted_total");
    let done = get("kanon_jobs_completed_total");
    let failed = get("kanon_jobs_failed_total");
    if accepted != done + failed {
        report.fail(format!(
            "/metrics: accepted {accepted} != completed {done} + failed {failed}"
        ));
    }
    if done != completed as f64 {
        report.fail(format!(
            "/metrics counts {done} completed jobs, the clients finished {completed}"
        ));
    }
    Ok(())
}

/// `PUT /v1/tables/t` with the seed table; returns the seconds it took.
pub fn create_table(addr: SocketAddr, inputs: &TableInputs) -> Result<f64, String> {
    let started = Instant::now();
    let response = request(
        addr,
        "PUT",
        &format!("/v1/tables/t?k={K}"),
        &inputs.seed_csv,
    )?;
    if response.status != 201 {
        return Err(format!(
            "table create answered {}: {}",
            response.status,
            response.text()
        ));
    }
    Ok(started.elapsed().as_secs_f64())
}

/// One ops batch and the release read after it (seconds, bytes).
pub struct Append {
    pub ack: f64,
    pub read: f64,
    pub read_bytes: usize,
}

pub struct AppendRun {
    pub appends: Vec<Append>,
    pub window: f64,
    /// Rows inserted by acknowledged batches.
    pub inserted: usize,
}

/// One writer: `POST .../ops` with `per_batch` inserts, then
/// `GET .../release`, until `until`. Each release must stream exactly the
/// rows the preceding ack reported; at the end the table's `seq` must equal
/// the acks, its row count the rows sent, and the last release must be
/// k-anonymous.
pub fn append_loop(
    addr: SocketAddr,
    inputs: &TableInputs,
    per_batch: usize,
    until: Until,
    report: &mut Report,
) -> Result<AppendRun, String> {
    let started = Instant::now();
    let mut appends = Vec::new();
    let mut inserted = 0;
    let mut last_release = Vec::new();
    let mut i = 0;
    while !until.done(started, i) {
        let body = inputs.batch(i, per_batch);
        i += 1;
        let op_started = Instant::now();
        let ack = request(addr, "POST", "/v1/tables/t/ops", &body)?;
        let ack_s = op_started.elapsed().as_secs_f64();
        if ack.status != 200 {
            report.op(Err(format!("ops answered {}: {}", ack.status, ack.text())));
            continue;
        }
        inserted += per_batch;
        let n_rows = json_number(&ack.text(), "n_rows").unwrap_or(-1.0);
        let read_started = Instant::now();
        let release = request(addr, "GET", "/v1/tables/t/release", b"")?;
        let read_s = read_started.elapsed().as_secs_f64();
        let streamed = release.body.iter().filter(|&&b| b == b'\n').count() as f64 - 1.0;
        report.op(if release.status != 200 {
            Err(format!("release answered {}", release.status))
        } else if streamed != n_rows {
            Err(format!(
                "release streams {streamed} rows, the ack reported {n_rows}"
            ))
        } else {
            Ok(())
        });
        appends.push(Append {
            ack: ack_s,
            read: read_s,
            read_bytes: release.body.len(),
        });
        last_release = release.body;
    }
    let window = started.elapsed().as_secs_f64();

    let status = request(addr, "GET", "/v1/tables/t", b"")?;
    let text = status.text();
    let seq = json_number(&text, "seq").unwrap_or(-1.0);
    let n_rows = json_number(&text, "n_rows").unwrap_or(-1.0);
    if seq != appends.len() as f64 {
        report.fail(format!(
            "table seq is {seq}, the writer got {} acks",
            appends.len()
        ));
    }
    let expected_rows = (inputs.seed_rows() + inserted) as f64;
    if n_rows != expected_rows {
        report.fail(format!(
            "table holds {n_rows} rows, {expected_rows} were sent"
        ));
    }
    let columns: Vec<String> = inputs.header.split(',').map(str::to_string).collect();
    let facts = inspect_release(&last_release, &columns)?;
    if facts.rows as f64 != n_rows || facts.smallest_group < K {
        report.fail(format!(
            "final release has {} rows (table {n_rows}) and smallest group {} (k = {K})",
            facts.rows, facts.smallest_group
        ));
    }
    let counters = parse_exposition(&request(addr, "GET", "/metrics", b"")?.text());
    let applied = counters
        .get("kanon_table_batches_applied_total{table=\"t\"}")
        .copied()
        .unwrap_or(-1.0);
    if applied != appends.len() as f64 {
        report.fail(format!(
            "/metrics counts {applied} applied batches, the writer got {} acks",
            appends.len()
        ));
    }
    Ok(AppendRun {
        appends,
        window,
        inserted,
    })
}
