//! The server proper: accept loop, connection handlers, job workers, and
//! the admission decision that ties the queue and the memory pool
//! together.
//!
//! Threading model: one owner thread runs a `std::thread::scope`
//! containing the acceptor (the scope's main flow), `http_threads`
//! connection handlers fed over a bounded channel, and `workers` job
//! solvers feeding from the [`JobQueue`]. Scoped threads mean shutdown is
//! structural — the owner thread cannot return while any handler or
//! worker is alive, so a joined [`Server`] has provably no stragglers.
//!
//! Admission is two gates, both non-blocking: a [`BudgetPool`] lease for
//! the job's memory cap, then a bounded queue slot. Either refusal
//! answers `429` with `Retry-After` *before* the job exists anywhere, so
//! a rejected submission leaves no record, no lease, and no queue entry.

use std::io::{BufReader, Read};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use kanon_core::BudgetPool;
use kanon_pipeline::json::JsonObject;
use kanon_pipeline::{run_csv_private_with_progress, CsvRun};
use kanon_pipeline::{PipelineConfig, Progress};
use kanon_privacy::PrivacyModel;

use crate::config::ServiceConfig;
use crate::error::Result;
use crate::http::{read_request, write_response, Reject, Request, Response};
use crate::job::{AttackSummary, JobId, JobStore};
use crate::lock::recover;
use crate::metrics::Metrics;
use crate::queue::{JobQueue, PushError};
use crate::router::{route, Route, SubmitParams};
use crate::tables::{self, TableRegistry};

/// Where a job's CSV comes from.
#[derive(Debug)]
enum JobSource {
    /// The request body, held in memory.
    Inline(Vec<u8>),
    /// A server-side file path (out-of-core submissions).
    Path(String),
}

/// An admitted job waiting for a worker. Dropping it releases its pool
/// lease (and cancels its budget), so a job can never leak reserved
/// memory, whatever path it exits through.
pub struct QueuedJob {
    id: JobId,
    params: SubmitParams,
    source: JobSource,
    lease: kanon_core::BudgetLease,
}

/// Shared state every thread in the server sees.
pub struct ServiceState {
    /// The configuration the server started with.
    pub config: ServiceConfig,
    /// Live counters served at `/metrics`.
    pub metrics: Metrics,
    /// Every admitted job's record, served at `/v1/jobs/{id}`.
    pub jobs: JobStore,
    /// The bounded admission queue.
    pub queue: JobQueue<QueuedJob>,
    /// The global memory pool jobs lease from.
    pub pool: BudgetPool,
    /// Durable tenant tables, when the server was started with a data
    /// directory (`None` disables the `/v1/tables` endpoints).
    pub tables: Option<TableRegistry>,
}

/// A running server. Dropping it (or calling [`Server::shutdown`]) stops
/// the accept loop, drains queued jobs, and joins every thread.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    owner: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the thread pool, and returns once the server accepts
    /// connections.
    ///
    /// # Errors
    /// [`crate::Error::Config`] for an invalid configuration,
    /// [`crate::Error::Io`] when the listen address cannot be bound.
    pub fn start(config: ServiceConfig) -> Result<Server> {
        config.validate()?;
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let tables = match &config.data_dir {
            Some(dir) => Some(TableRegistry::open(dir)?),
            None => None,
        };
        let state = Arc::new(ServiceState {
            metrics: Metrics::new(),
            jobs: JobStore::new(),
            queue: JobQueue::new(config.queue_depth),
            pool: BudgetPool::new(config.pool_memory_bytes),
            tables,
            config,
        });
        let stop = Arc::new(AtomicBool::new(false));
        let owner = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || serve(&listener, &state, &stop))
        };
        Ok(Server {
            addr,
            stop,
            owner: Some(owner),
        })
    }

    /// The bound listen address (resolves port `0` requests).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains queued jobs, and joins every thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(owner) = self.owner.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // The acceptor blocks in accept(); a throwaway connection wakes it
        // so it can observe the stop flag.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(IpAddr::V4(Ipv4Addr::LOCALHOST));
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
        let _ = owner.join();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// The owner thread's body: everything lives inside one scope, so
/// returning from here means every handler and worker has exited.
fn serve(listener: &TcpListener, state: &Arc<ServiceState>, stop: &AtomicBool) {
    std::thread::scope(|scope| {
        // Recovery replays every table's WAL concurrently with serving:
        // the listener is already accepting, and tables answer 503 with
        // Retry-After until their replay lands (or quarantines them).
        if let Some(tables) = &state.tables {
            if tables.recovering() {
                scope.spawn(|| tables.recover(state));
            }
        }

        for _ in 0..state.config.workers {
            scope.spawn(|| {
                while let Some(job) = state.queue.pop() {
                    run_job(state, job);
                }
            });
        }

        let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(state.config.http_threads * 2);
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        for _ in 0..state.config.http_threads {
            let conn_rx = Arc::clone(&conn_rx);
            scope.spawn(move || loop {
                let next = recover(conn_rx.lock()).recv();
                match next {
                    Ok(stream) => handle_connection(state, &stream),
                    Err(_) => break,
                }
            });
        }

        for stream in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            if let Ok(stream) = stream {
                if conn_tx.send(stream).is_err() {
                    break;
                }
            }
        }
        // Dropping the sender stops the handlers; closing the queue lets
        // the workers drain what was admitted, then exit.
        drop(conn_tx);
        state.queue.close();
    });
}

/// Handles exactly one request on `stream` and closes it.
fn handle_connection(state: &ServiceState, stream: &TcpStream) {
    let started = Instant::now();
    let _ = stream.set_read_timeout(Some(state.config.io_timeout));
    let _ = stream.set_write_timeout(Some(state.config.io_timeout));
    let mut reader = BufReader::new(stream);
    let parsed = read_request(
        &mut reader,
        state.config.max_head_bytes,
        state.config.max_body_bytes,
    );
    let response = match parsed {
        // Transport failure (client vanished, socket timeout): nothing to
        // answer, nothing to record.
        Err(_) => return,
        Ok(Err(reject)) => reject_response(&reject),
        // A panicking handler answers 500 and keeps its thread. A table
        // writer that panicked leaves its lock poisoned, which quarantines
        // the table on its next use.
        Ok(Ok(request)) => catch_unwind(AssertUnwindSafe(|| dispatch(state, request)))
            .unwrap_or_else(|payload| {
                let mut obj = JsonObject::new();
                obj.string(
                    "error",
                    &format!("request handler panicked: {}", panic_message(&*payload)),
                );
                Response::json(500, obj.finish())
            }),
    };
    let mut writer = stream;
    let _ = write_response(&mut writer, &response);
    state
        .metrics
        .record_response(response.status, started.elapsed());
}

/// The message a panic was raised with, or `""` for a non-string payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or_default()
}

fn reject_response(reject: &Reject) -> Response {
    let mut obj = JsonObject::new();
    obj.string("error", &reject.reason);
    Response::json(reject.status, obj.finish())
}

fn dispatch(state: &ServiceState, request: Request) -> Response {
    match route(&request) {
        Err(reject) => reject_response(&reject),
        Ok(Route::Health) => health_response(state),
        Ok(Route::Ready) => ready_response(state),
        Ok(Route::Metrics) => Response::text(
            200,
            state
                .metrics
                .render(state.queue.depth(), state.pool.total(), state.pool.leased()),
        ),
        Ok(Route::JobStatus(id)) => match state.jobs.render(id) {
            Some(json) => Response::json(200, json),
            None => reject_response(&Reject {
                status: 404,
                reason: format!("unknown job {id}"),
            }),
        },
        Ok(Route::Submit(params)) => admit(state, params, request.body),
        Ok(Route::TableCreate(name, params)) => {
            tables::handle_create(state, &name, &params, &request.body)
        }
        Ok(Route::TableOps(name, params)) => {
            tables::handle_ops(state, &name, &params, &request.body)
        }
        Ok(Route::TableRelease(name)) => tables::handle_release(state, &name),
        Ok(Route::TableStatus(name)) => tables::handle_status(state, &name),
        Ok(Route::TableDelete(name)) => tables::handle_delete(state, &name),
    }
}

/// Liveness: always `200` while the process serves requests, but the
/// status string flips to `"degraded"` (and the quarantined tables are
/// named) when recovery is still replaying or any table refused its WAL.
fn health_response(state: &ServiceState) -> Response {
    let (body, _) = health_body(state);
    Response::json(200, body)
}

/// Readiness: `503` while recovery is replaying or any table is
/// quarantined, so load balancers stop routing before clients see the
/// per-table `503`s; `200 ok` otherwise.
fn ready_response(state: &ServiceState) -> Response {
    let (body, degraded) = health_body(state);
    if degraded {
        let mut response = Response::json(503, body);
        response
            .extra_headers
            .push(("Retry-After".to_string(), "1".to_string()));
        return response;
    }
    Response::json(200, body)
}

fn health_body(state: &ServiceState) -> (String, bool) {
    let mut obj = JsonObject::new();
    let mut degraded = false;
    if let Some(tables) = &state.tables {
        let recovering = tables.recovering();
        let quarantined = tables.quarantined_names();
        degraded = recovering || !quarantined.is_empty();
        obj.boolean("recovering", recovering);
        let listed: Vec<String> = quarantined.iter().map(|n| format!("\"{n}\"")).collect();
        obj.raw("quarantined", &format!("[{}]", listed.join(",")));
        obj.number("tables", tables.len() as u128);
    }
    obj.string("status", if degraded { "degraded" } else { "ok" })
        .number("queue_depth", state.queue.depth() as u128)
        .number("workers", state.config.workers as u128)
        .number("pool_available_bytes", u128::from(state.pool.available()));
    (obj.finish(), degraded)
}

/// The admission decision: validate, lease memory, take a queue slot.
fn admit(state: &ServiceState, params: SubmitParams, body: Vec<u8>) -> Response {
    let k = params.k;
    let shard_size = params
        .shard_size
        .unwrap_or_else(|| PipelineConfig::default().shard_size);
    let band_floor = 2 * k - 1;
    if shard_size < band_floor {
        return reject_response(&Reject {
            status: 400,
            reason: format!(
                "shard_size {shard_size} is below 2k-1 = {band_floor}; no shard could \
                 hold a (k, 2k-1) band group"
            ),
        });
    }
    let source = match &params.path {
        Some(path) => JobSource::Path(path.clone()),
        None if body.is_empty() => {
            return reject_response(&Reject {
                status: 400,
                reason: "empty body (send CSV, or pass path= for a server-side file)".into(),
            })
        }
        None => JobSource::Inline(body),
    };
    let memory_bytes = match params.max_memory_mb {
        Some(mb) => mb.saturating_mul(1024 * 1024),
        None => state.config.default_job_memory_bytes,
    };
    if memory_bytes > state.pool.total() {
        return reject_response(&Reject {
            status: 400,
            reason: format!(
                "max_memory_mb asks for {memory_bytes} bytes but the whole pool is \
                 {} bytes; this job could never be admitted",
                state.pool.total()
            ),
        });
    }
    let deadline = params
        .deadline_ms
        .map(Duration::from_millis)
        .or(state.config.default_deadline);

    // Gate 1: lease the job's memory cap from the global pool.
    let lease = match state.pool.try_lease(memory_bytes, deadline) {
        Ok(lease) => lease,
        Err(_) => {
            state.metrics.record_admission(false);
            return too_busy("memory pool exhausted");
        }
    };
    // Gate 2: take a queue slot. The record is created first because the
    // queued job carries its id; a refused push removes it again, so a
    // 429 leaves no trace.
    let id = state.jobs.create(k);
    let job = QueuedJob {
        id,
        params,
        source,
        lease,
    };
    match state.queue.try_push(job) {
        Ok(()) => {
            state.metrics.record_admission(true);
            let mut obj = JsonObject::new();
            obj.number("id", u128::from(id)).string("state", "queued");
            let mut response = Response::json(202, obj.finish());
            response
                .extra_headers
                .push(("Location".to_string(), format!("/v1/jobs/{id}")));
            response
        }
        Err(PushError::Full(job) | PushError::Closed(job)) => {
            state.jobs.remove(job.id);
            drop(job); // releases the lease
            state.metrics.record_admission(false);
            too_busy("job queue full")
        }
    }
}

fn too_busy(reason: &str) -> Response {
    let mut obj = JsonObject::new();
    obj.string("error", reason);
    let mut response = Response::json(429, obj.finish());
    response
        .extra_headers
        .push(("Retry-After".to_string(), "1".to_string()));
    response
}

/// Executes one admitted job on a worker thread.
fn run_job(state: &ServiceState, job: QueuedJob) {
    let QueuedJob {
        id,
        params,
        source,
        lease,
    } = job;
    state.jobs.set_running(id);
    let config = PipelineConfig {
        shard_size: params
            .shard_size
            .unwrap_or_else(|| PipelineConfig::default().shard_size),
        strategy: params.strategy.unwrap_or_default(),
        // The configured pin, or the machine's cores split across the job
        // slots so concurrent jobs cannot oversubscribe the box while a
        // lone job on a multi-core machine still gets real parallelism.
        workers: Some(state.config.pipeline_workers_per_job()),
        budget: lease.budget().clone(),
        ..PipelineConfig::default()
    };
    let on_progress = |event: Progress| match event {
        Progress::Planned { units, .. } => state.jobs.set_progress(id, 0, units),
        Progress::UnitSolved { done, units, .. } => state.jobs.set_progress(id, done, units),
        Progress::Merging => {}
    };
    // A panic in the solve fails this job and spares its worker, which
    // goes back to the queue: the solve holds no service lock while its
    // own code runs, so nothing is left poisoned.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(test)]
        tests::inject_panic(&params, tests::PANIC_IN_SOLVE);
        match source {
            JobSource::Inline(bytes) => {
                run_source(bytes.as_slice(), &params, &config, &on_progress)
            }
            JobSource::Path(path) => match std::fs::File::open(&path) {
                Ok(file) => run_source(
                    BufReader::new(LimitedRead {
                        inner: file,
                        left: state.config.max_body_bytes,
                    }),
                    &params,
                    &config,
                    &on_progress,
                ),
                Err(e) => Err(kanon_pipeline::Error::Relation(kanon_relation::Error::Io(
                    e.to_string(),
                ))),
            },
        }
    }));
    let panicked = outcome.is_err();
    let outcome = outcome
        .map_err(|payload| format!("job panicked: {}", panic_message(&*payload)))
        .and_then(|solved| solved.map_err(|e| e.to_string()));
    // Return the job's memory to the pool before its outcome is published,
    // so a client that resubmits as soon as it sees `completed` or `failed`
    // finds the reservation free again.
    drop(lease);
    match outcome {
        Ok(run) => {
            let privacy_verified = run.report.privacy.as_ref().map(|p| p.verified);
            // The measurement is advisory: a panic in it leaves `attack`
            // absent and the job completed.
            let attack = catch_unwind(AssertUnwindSafe(|| {
                #[cfg(test)]
                tests::inject_panic(&params, tests::PANIC_IN_ATTACK);
                measure_attack(&run)
            }))
            .ok()
            .flatten();
            state.metrics.record_completed(&run.report);
            state
                .jobs
                .complete(id, run.report, privacy_verified, attack);
        }
        Err(error) => {
            state.metrics.record_failed(panicked);
            state.jobs.fail(id, error);
        }
    }
}

/// Runs one CSV source through the pipeline, held to the submission's
/// privacy model; a named sensitive column stays out of the
/// quasi-identifier even under plain k.
fn run_source<R: Read>(
    reader: R,
    params: &SubmitParams,
    config: &PipelineConfig,
    on_progress: &(dyn Fn(Progress) + Sync),
) -> kanon_pipeline::Result<CsvRun> {
    // The router validated the spec string at admission; re-parsing here
    // cannot fail for routed traffic, but in-process callers get the
    // structured error instead of a panic.
    let model = match params.privacy.as_deref() {
        Some(spec) => PrivacyModel::parse(spec).map_err(kanon_pipeline::Error::Privacy)?,
        None => PrivacyModel::KOnly,
    };
    run_csv_private_with_progress(
        reader,
        params.k,
        params.quasi.as_deref(),
        params.sensitive.as_deref(),
        model,
        config,
        on_progress,
    )
}

/// Rows the post-completion linkage attack samples. The attack joins the
/// sample against the distinct released keys, so the cap keeps it a
/// bounded epilogue on huge jobs rather than a second job's worth of work.
const ATTACK_SAMPLE_CAP: usize = 20_000;

/// Measures the release the job just produced: its own original rows (up
/// to [`ATTACK_SAMPLE_CAP`]) play the attacker's external table, joined on
/// every quasi-identifier column, so the job status answers "what would a
/// linking attacker get back out of this release?". Returns `None` if the
/// replay fails in any way — the measurement is advisory and must never
/// turn a completed job into a failed one.
fn measure_attack(run: &CsvRun) -> Option<AttackSummary> {
    let report = kanon_pipeline::attack_release(run, ATTACK_SAMPLE_CAP).ok()?;
    Some(AttackSummary {
        attacked: report.attacked,
        unique_matches: report.unique_matches,
        expected_success: report.expected_success,
    })
}

/// Caps how much of a server-side file a job may read, mirroring the
/// inline body limit so `path=` is not a bigger hammer than an upload.
struct LimitedRead<R> {
    inner: R,
    left: usize,
}

impl<R: Read> Read for LimitedRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.left == 0 {
            // Distinguish "exactly at the limit" (EOF follows: fine) from
            // "file keeps going" (reject).
            let mut probe = [0u8; 1];
            return match self.inner.read(&mut probe)? {
                0 => Ok(0),
                _ => Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "server-side file exceeds the body size limit",
                )),
            };
        }
        let cap = buf.len().min(self.left);
        let n = self.inner.read(&mut buf[..cap])?;
        self.left -= n;
        Ok(n)
    }
}

#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod http_client;

#[cfg(test)]
mod tests {
    use super::http_client::{await_job, extract_number, http};
    use super::*;
    use crate::config::ServiceConfig;

    /// A job whose quasi-identifier names this column panics in its solve.
    pub(super) const PANIC_IN_SOLVE: &str = "panic_in_solve";
    /// A job whose quasi-identifier names this column panics in its attack
    /// measurement, after a successful solve.
    pub(super) const PANIC_IN_ATTACK: &str = "panic_in_attack";

    /// The fault injection point `run_job` calls before each stage. It
    /// exists in test builds only; no request can reach it otherwise.
    pub(super) fn inject_panic(params: &SubmitParams, stage: &str) {
        if params.quasi.iter().flatten().any(|c| c == stage) {
            panic!("injected panic in {stage}");
        }
    }

    /// Submits a job and polls it to a terminal state; returns its JSON.
    fn run(addr: SocketAddr, query: &str, csv: &str) -> String {
        let target = format!("/v1/anonymize?{query}");
        let (status, _, body) = http(addr, "POST", &target, csv.as_bytes());
        assert_eq!(status, 202, "{body}");
        await_job(addr, extract_number(&body, "\"id\":").expect("job id"))
    }

    #[test]
    fn a_panicking_job_fails_and_its_worker_serves_the_next() {
        let server = Server::start(ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..ServiceConfig::default()
        })
        .expect("server starts");
        let addr = server.addr();
        let csv = "panic_in_solve,panic_in_attack,zip\n1,a,90210\n1,a,90210\n\
                   2,b,90211\n2,b,90211\n";

        let (_, _, page) = http(addr, "GET", "/metrics", &[]);
        let counter = |page: &str, name: &str| extract_number(page, &format!("\n{name} "));
        assert_eq!(counter(&page, "kanon_jobs_panicked_total"), Some(0));

        let failed = run(addr, "k=2&quasi=panic_in_solve", csv);
        assert!(failed.contains("\"state\":\"failed\""), "{failed}");
        assert!(
            failed.contains("\"error\":\"job panicked: injected panic in panic_in_solve\""),
            "{failed}"
        );
        // The panic is counted, as a failure too, and the books balance.
        let (_, _, page) = http(addr, "GET", "/metrics", &[]);
        assert_eq!(counter(&page, "kanon_jobs_panicked_total"), Some(1));
        assert_eq!(counter(&page, "kanon_jobs_accepted_total"), Some(1));
        assert_eq!(counter(&page, "kanon_jobs_completed_total"), Some(0));
        assert_eq!(counter(&page, "kanon_jobs_failed_total"), Some(1));

        // The one worker survived: it completes the next job, and a panic
        // in the advisory attack only drops the measurement.
        let unmeasured = run(addr, "k=2&quasi=panic_in_attack,zip", csv);
        assert!(
            unmeasured.contains("\"state\":\"completed\""),
            "{unmeasured}"
        );
        assert!(!unmeasured.contains("\"attack\""), "{unmeasured}");
        let (_, _, page) = http(addr, "GET", "/metrics", &[]);
        assert_eq!(counter(&page, "kanon_jobs_panicked_total"), Some(1));
        let measured = run(addr, "k=2&quasi=zip", csv);
        assert!(measured.contains("\"state\":\"completed\""), "{measured}");
        assert!(
            measured.contains("\"attack\":{\"attacked\":4"),
            "{measured}"
        );

        // Every admitted job ended once: accepted == completed + failed.
        let (_, _, page) = http(addr, "GET", "/metrics", &[]);
        assert_eq!(counter(&page, "kanon_jobs_accepted_total"), Some(3));
        assert_eq!(counter(&page, "kanon_jobs_completed_total"), Some(2));
        assert_eq!(counter(&page, "kanon_jobs_failed_total"), Some(1));
        assert_eq!(counter(&page, "kanon_jobs_panicked_total"), Some(1));
    }

    /// A panic inside a request handler (here a table batch's apply)
    /// answers a structured 500 and leaves the one handler thread serving;
    /// the writer's poisoned lock then quarantines the table.
    #[test]
    fn a_panicking_handler_answers_500_and_keeps_its_thread() {
        let dir = std::env::temp_dir().join(format!("kanon-handler-panic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            http_threads: 1,
            data_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        })
        .expect("server starts");
        let addr = server.addr();
        // The table name is the injection point's key.
        let table = "/v1/tables/panic_in_apply";
        let seed = "age,zip\n1,a\n1,a\n2,b\n2,b\n";
        let (status, _, body) = http(addr, "PUT", &format!("{table}?k=2"), seed.as_bytes());
        assert_eq!(status, 201, "{body}");

        let ops = format!("{table}/ops");
        let batch = b"op,id,age,zip\ninsert,,3,c\n";
        let (status, _, body) = http(addr, "POST", &ops, batch);
        assert_eq!(status, 500, "{body}");
        assert_eq!(
            body,
            "{\"error\":\"request handler panicked: injected panic in panic_in_apply\"}"
        );
        let (status, _, body) = http(addr, "POST", &ops, batch);
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("\"error\":\"table quarantined\""), "{body}");
        let (_, _, health) = http(addr, "GET", "/healthz", &[]);
        assert!(
            health.contains("\"quarantined\":[\"panic_in_apply\"]"),
            "{health}"
        );
        let (status, _, body) = http(addr, "DELETE", table, &[]);
        assert_eq!(status, 200, "{body}");

        let (_, _, page) = http(addr, "GET", "/metrics", &[]);
        let count = extract_number(&page, "kanon_http_responses_total{code=\"500\"} ");
        assert_eq!(count, Some(1), "{page}");
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
