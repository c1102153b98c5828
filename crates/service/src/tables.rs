//! Durable multi-tenant tables: the [`kanon_pipeline::delta::DeltaStore`]
//! mounted behind HTTP.
//!
//! Each table lives in its own subdirectory of the service's data
//! directory and is owned by a [`TableEntry`] whose `state` mutex is the
//! **single-writer lock**: mutating requests (`PUT`, `POST .../ops`,
//! `DELETE`) take it with `try_lock`, and a concurrent writer is answered
//! `409` + `Retry-After` instead of queueing — admission stays
//! non-blocking, exactly like the job path. Readers never take that lock
//! on the hot path: every successful init/apply refreshes a cached copy of
//! the current release under the writer lock, and `GET .../release`
//! serves the cache through an `RwLock` read guard, so a long re-solve
//! never blocks snapshot readers and a reader never blocks the writer.
//!
//! ## Recovery and quarantine
//!
//! Startup scans the data directory and registers every table as
//! `Loading`, then a recovery thread replays each store's WAL in the
//! background while the server is already accepting traffic. A torn WAL
//! tail is truncated silently (the batch never happened); a CRC failure
//! inside the committed prefix — or any other open failure — moves the
//! table to `Quarantined` instead of killing the server: the table
//! answers `503` with a structured error, `/healthz` reports `degraded`
//! with the quarantined names, and healthy tables keep serving. The only
//! exit from quarantine is `DELETE` (operator decision), because serving
//! bytes the checksums disown would be worse than refusing.
//!
//! ## WAL as the job log
//!
//! A `200` on `POST .../ops` is issued only after the batch's single WAL
//! record is fsynced, and the response carries the batch's sequence
//! number. The WAL therefore *is* the job log: after any crash,
//! `GET /v1/tables/{name}` reports a `seq` equal to exactly the number of
//! acknowledged batches — `accepted == applied` reconciles across
//! restarts with no separate bookkeeping to drift.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, TryLockError};
use std::time::Instant;

use kanon_core::govern::Budget;
use kanon_core::BudgetLease;
use kanon_pipeline::delta::{DeltaConfig, DeltaStore};
use kanon_pipeline::json::JsonObject;

use crate::http::{Reject, Response};
use crate::lock::recover;
use crate::router::{TableOpsParams, TableParams};
use crate::server::ServiceState;

/// What a table is currently able to do.
enum TableState {
    /// Recovery replay (or initial creation) has not finished yet.
    Loading,
    /// Open and serving. The store owns the directory's single-writer
    /// lock for as long as it lives here.
    Ready(Box<DeltaStore>),
    /// Durable state failed an integrity check; the reason is served with
    /// every `503` until an operator deletes the table.
    Quarantined(String),
}

/// One table's slot in the registry.
pub struct TableEntry {
    name: String,
    /// The single-writer lock. Writers `try_lock`; contention is `409`.
    state: Mutex<TableState>,
    /// Cached bytes of the last released CSV, refreshed after every
    /// successful init/apply. Readers serve this without `state`.
    release: RwLock<Option<Arc<Vec<u8>>>>,
    /// Lock-free mirrors for status under writer contention.
    seq: AtomicU64,
    n_rows: AtomicU64,
    quarantined: AtomicBool,
}

impl TableEntry {
    fn new(name: &str) -> Self {
        TableEntry {
            name: name.to_string(),
            state: Mutex::new(TableState::Loading),
            release: RwLock::new(None),
            seq: AtomicU64::new(0),
            n_rows: AtomicU64::new(0),
            quarantined: AtomicBool::new(false),
        }
    }

    /// Updates the lock-free mirrors and release cache from a ready store.
    /// Called with the writer lock held.
    fn publish(&self, store: &mut DeltaStore) -> Result<(), kanon_pipeline::Error> {
        let release = store.release()?;
        let mut bytes = Vec::new();
        release
            .write_csv(&mut bytes)
            .map_err(|e| kanon_pipeline::Error::Store(kanon_store::Error::Io(e)))?;
        *recover(self.release.write()) = Some(Arc::new(bytes));
        self.seq.store(store.seq(), Ordering::Relaxed);
        self.n_rows.store(store.n_rows() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// The writer lock, taken blocking. A writer that panicked holding it
    /// may have left the store half-applied, so a poisoned lock comes back
    /// with the table quarantined (see [`crate::lock`]).
    fn lock_state(&self, state: &ServiceState) -> MutexGuard<'_, TableState> {
        let guard = recover(self.state.lock());
        self.quarantine_if_poisoned(guard, state)
    }

    /// As [`Self::lock_state`], without blocking: `None` while another
    /// writer holds the lock.
    fn try_lock_state(&self, state: &ServiceState) -> Option<MutexGuard<'_, TableState>> {
        let guard = match self.state.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => return None,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        };
        Some(self.quarantine_if_poisoned(guard, state))
    }

    fn quarantine_if_poisoned<'a>(
        &'a self,
        mut guard: MutexGuard<'a, TableState>,
        state: &ServiceState,
    ) -> MutexGuard<'a, TableState> {
        if self.state.is_poisoned() {
            let reason =
                "a writer panicked mid-operation; the table's in-memory state is untrusted";
            self.quarantine(&mut guard, reason.to_string(), state);
            self.state.clear_poison();
        }
        guard
    }

    fn quarantine(
        &self,
        guard: &mut MutexGuard<'_, TableState>,
        reason: String,
        state: &ServiceState,
    ) {
        **guard = TableState::Quarantined(reason);
        self.quarantined.store(true, Ordering::Relaxed);
        *recover(self.release.write()) = None;
        state.metrics.table(&self.name, |t| t.quarantined = true);
    }
}

/// The registry of durable tables, mounted when the service is started
/// with a data directory.
pub struct TableRegistry {
    data_dir: PathBuf,
    tables: RwLock<BTreeMap<String, Arc<TableEntry>>>,
    recovering: AtomicBool,
}

impl TableRegistry {
    /// Opens (creating if absent) the registry over `data_dir` and
    /// registers every existing table directory as `Loading`. The actual
    /// WAL replay happens on the recovery thread ([`Self::recover`]) so
    /// binding the listen socket is never delayed by a long replay.
    ///
    /// # Errors
    /// I/O errors scanning or creating the data directory.
    pub fn open(data_dir: impl Into<PathBuf>) -> std::io::Result<TableRegistry> {
        let data_dir = data_dir.into();
        std::fs::create_dir_all(&data_dir)?;
        let mut tables = BTreeMap::new();
        for dir_entry in std::fs::read_dir(&data_dir)? {
            let dir_entry = dir_entry?;
            if !dir_entry.file_type()?.is_dir() {
                continue;
            }
            let Ok(name) = dir_entry.file_name().into_string() else {
                continue;
            };
            if validate_table_name(&name).is_err() {
                continue;
            }
            if dir_entry.path().join("state.snap").exists() {
                tables.insert(name.clone(), Arc::new(TableEntry::new(&name)));
            }
        }
        let recovering = !tables.is_empty();
        Ok(TableRegistry {
            data_dir,
            tables: RwLock::new(tables),
            recovering: AtomicBool::new(recovering),
        })
    }

    /// Replays every registered table's WAL, moving it to `Ready` or
    /// `Quarantined`. Runs on a background thread inside the server's
    /// scope; tables answer `503` + `Retry-After` until their replay
    /// lands. Recovery is charged to the operator (an unlimited budget),
    /// not to a tenant lease: the work restores state tenants already
    /// paid to write.
    pub fn recover(&self, state: &ServiceState) {
        let entries: Vec<Arc<TableEntry>> = recover(self.tables.read()).values().cloned().collect();
        for entry in entries {
            let started = Instant::now();
            let opened = DeltaStore::open(self.table_dir(&entry.name), Budget::unlimited());
            let mut guard = entry.lock_state(state);
            match opened {
                Ok(mut store) => match entry.publish(&mut store) {
                    Ok(()) => {
                        let status = store.status();
                        state.metrics.table(&entry.name, |t| {
                            t.wal_bytes = status.wal_bytes;
                            t.recovery_seconds = started.elapsed().as_secs_f64();
                        });
                        *guard = TableState::Ready(Box::new(store));
                    }
                    Err(e) => {
                        entry.quarantine(&mut guard, e.to_string(), state);
                        state.metrics.table(&entry.name, |t| {
                            t.recovery_seconds = started.elapsed().as_secs_f64()
                        });
                    }
                },
                Err(e) => {
                    entry.quarantine(&mut guard, e.to_string(), state);
                    state.metrics.table(&entry.name, |t| {
                        t.recovery_seconds = started.elapsed().as_secs_f64()
                    });
                }
            }
        }
        self.recovering.store(false, Ordering::SeqCst);
    }

    /// True while the startup recovery pass is still replaying WALs.
    #[must_use]
    pub fn recovering(&self) -> bool {
        self.recovering.load(Ordering::SeqCst)
    }

    /// Names of quarantined tables, for `/healthz` and `/readyz`.
    #[must_use]
    pub fn quarantined_names(&self) -> Vec<String> {
        recover(self.tables.read())
            .values()
            .filter(|e| e.quarantined.load(Ordering::Relaxed))
            .map(|e| e.name.clone())
            .collect()
    }

    /// Registered table count.
    #[must_use]
    pub fn len(&self) -> usize {
        recover(self.tables.read()).len()
    }

    /// True when no tables are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn table_dir(&self, name: &str) -> PathBuf {
        self.data_dir.join(name)
    }

    fn entry(&self, name: &str) -> Option<Arc<TableEntry>> {
        recover(self.tables.read()).get(name).cloned()
    }
}

/// Rejects any table name that could escape the data directory or
/// confuse the filesystem: ASCII alphanumerics, `-`, and `_` only, at
/// most 64 bytes.
pub fn validate_table_name(name: &str) -> Result<(), Reject> {
    let ok = !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_');
    if ok {
        Ok(())
    } else {
        Err(Reject {
            status: 400,
            reason: format!("bad table name {name:?} (use 1-64 ASCII alphanumerics, '-', '_')"),
        })
    }
}

// ---------------------------------------------------------------------
// HTTP handlers
// ---------------------------------------------------------------------

fn error_json(status: u16, reason: &str) -> Response {
    let mut obj = JsonObject::new();
    obj.string("error", reason);
    Response::json(status, obj.finish())
}

fn retryable(status: u16, reason: &str) -> Response {
    let mut response = error_json(status, reason);
    response
        .extra_headers
        .push(("Retry-After".to_string(), "1".to_string()));
    response
}

/// The `503` a quarantined table answers with: structured, with the
/// integrity failure spelled out so the operator can decide.
fn quarantined_response(name: &str, reason: &str) -> Response {
    let mut obj = JsonObject::new();
    obj.string("error", "table quarantined")
        .string("table", name)
        .string("detail", reason);
    Response::json(503, obj.finish())
}

fn no_registry() -> Response {
    error_json(
        503,
        "table serving is disabled (start the server with --data-dir)",
    )
}

fn unknown_table(name: &str) -> Response {
    error_json(404, &format!("unknown table {name:?}"))
}

/// Leases a tenant budget for one table operation. `Err` is the `429`.
fn lease_for(
    state: &ServiceState,
    max_memory_mb: Option<u64>,
    deadline_ms: Option<u64>,
) -> Result<BudgetLease, Response> {
    let memory_bytes = match max_memory_mb {
        Some(mb) => mb.saturating_mul(1024 * 1024),
        None => state.config.default_job_memory_bytes,
    };
    if memory_bytes > state.pool.total() {
        return Err(error_json(
            400,
            &format!(
                "max_memory_mb asks for {memory_bytes} bytes but the whole pool is {} bytes",
                state.pool.total()
            ),
        ));
    }
    let deadline = deadline_ms
        .map(std::time::Duration::from_millis)
        .or(state.config.default_deadline);
    state
        .pool
        .try_lease(memory_bytes, deadline)
        .map_err(|_| retryable(429, "memory pool exhausted"))
}

/// `PUT /v1/tables/{name}` — initialize a table from the CSV body.
pub fn handle_create(
    state: &ServiceState,
    name: &str,
    params: &TableParams,
    body: &[u8],
) -> Response {
    let Some(registry) = &state.tables else {
        return no_registry();
    };
    if body.is_empty() {
        return error_json(400, "empty body (send the initial table as CSV)");
    }
    // Reserve the name atomically; a lost race is a hard conflict, not a
    // retry — the other creator's table now exists.
    let entry = {
        let mut tables = recover(registry.tables.write());
        if tables.contains_key(name) {
            return error_json(409, &format!("table {name:?} already exists"));
        }
        let entry = Arc::new(TableEntry::new(name));
        tables.insert(name.to_string(), Arc::clone(&entry));
        entry
    };
    let mut guard = entry.lock_state(state);

    let cleanup = |registry: &TableRegistry| {
        recover(registry.tables.write()).remove(name);
        let _ = std::fs::remove_dir_all(registry.table_dir(name));
    };
    let lease = match lease_for(state, params.max_memory_mb, params.deadline_ms) {
        Ok(lease) => lease,
        Err(response) => {
            cleanup(registry);
            return response;
        }
    };
    let config = DeltaConfig {
        k: params.k,
        shard_size: params
            .shard_size
            .unwrap_or_else(|| DeltaConfig::new(params.k).shard_size),
        n_buckets: params.buckets,
        quasi: params.quasi.clone(),
        budget: lease.budget().clone(),
    };
    match DeltaStore::init(registry.table_dir(name), body, &config) {
        Ok(mut store) => {
            // The lease dies with this request; the store must not keep a
            // budget that cancellation would poison.
            store.set_budget(Budget::unlimited());
            if let Err(e) = entry.publish(&mut store) {
                drop(store);
                cleanup(registry);
                return error_json(500, &format!("init release failed: {e}"));
            }
            let status = store.status();
            state.metrics.table(name, |t| {
                t.wal_bytes = status.wal_bytes;
            });
            *guard = TableState::Ready(Box::new(store));
            let mut obj = JsonObject::new();
            obj.string("table", name)
                .string("state", "ready")
                .raw("status", &status.to_json());
            let mut response = Response::json(201, obj.finish());
            response
                .extra_headers
                .push(("Location".to_string(), format!("/v1/tables/{name}")));
            response
        }
        Err(e) => {
            cleanup(registry);
            match &e {
                kanon_pipeline::Error::Store(_) => error_json(500, &e.to_string()),
                // Bad CSV, bad k, bad quasi columns: the client's fault.
                _ => error_json(400, &e.to_string()),
            }
        }
    }
}

/// `POST /v1/tables/{name}/ops` — apply one atomic batch of delta ops.
pub fn handle_ops(
    state: &ServiceState,
    name: &str,
    params: &TableOpsParams,
    body: &[u8],
) -> Response {
    let Some(registry) = &state.tables else {
        return no_registry();
    };
    let Some(entry) = registry.entry(name) else {
        return unknown_table(name);
    };
    let Some(mut guard) = entry.try_lock_state(state) else {
        state.metrics.table(name, |t| t.write_conflicts += 1);
        return retryable(409, &format!("table {name:?} has a writer in flight"));
    };
    match &mut *guard {
        TableState::Loading => retryable(503, &format!("table {name:?} is recovering")),
        TableState::Quarantined(reason) => quarantined_response(name, reason),
        TableState::Ready(store) => {
            let lease = match lease_for(state, params.max_memory_mb, params.deadline_ms) {
                Ok(lease) => lease,
                Err(response) => return response,
            };
            // All work this request does — re-solves, replay buffers, and
            // any WAL rotation `apply` triggers — bills this lease.
            store.set_budget(lease.budget().clone());
            let ops = match store.parse_ops(body) {
                Ok(ops) => ops,
                Err(e) => {
                    store.set_budget(Budget::unlimited());
                    return error_json(400, &e.to_string());
                }
            };
            #[cfg(test)]
            tests::inject_panic(name);
            let applied = store.apply(&ops);
            let response = match applied {
                Ok(report) => match entry.publish(store) {
                    Ok(()) => {
                        state.metrics.table(name, |t| {
                            t.batches_applied += 1;
                            t.ops_applied +=
                                (report.inserted + report.deleted + report.updated) as u64;
                            t.resolved_units += report.resolved_units as u64;
                            t.wal_bytes = report.wal_bytes;
                        });
                        Response::json(200, report.to_json())
                    }
                    Err(e) => {
                        // The batch is durable (the WAL append succeeded)
                        // but the merged release could not be built; drop
                        // the stale cache rather than serve old bytes.
                        *recover(entry.release.write()) = None;
                        entry.seq.store(store.seq(), Ordering::Relaxed);
                        error_json(
                            500,
                            &format!("batch {} persisted but release failed: {e}", report.seq),
                        )
                    }
                },
                Err(e) if e.is_corruption() => {
                    let reason = e.to_string();
                    entry.quarantine(&mut guard, reason.clone(), state);
                    return quarantined_response(name, &reason);
                }
                Err(e @ kanon_pipeline::Error::Delta(_)) => error_json(400, &e.to_string()),
                Err(e) => error_json(500, &e.to_string()),
            };
            // The lease dies with this request; never leave the store
            // holding a budget its cancellation would poison.
            if let TableState::Ready(store) = &mut *guard {
                store.set_budget(Budget::unlimited());
            }
            response
        }
    }
}

/// `GET /v1/tables/{name}/release` — the current anonymized CSV.
pub fn handle_release(state: &ServiceState, name: &str) -> Response {
    let Some(registry) = &state.tables else {
        return no_registry();
    };
    let Some(entry) = registry.entry(name) else {
        return unknown_table(name);
    };
    if entry.quarantined.load(Ordering::Relaxed) {
        // Never serve bytes whose durable backing failed its checksums,
        // even from cache.
        let reason = match &*entry.lock_state(state) {
            TableState::Quarantined(reason) => reason.clone(),
            _ => "quarantined".to_string(),
        };
        return quarantined_response(name, &reason);
    }
    let cached = recover(entry.release.read()).clone();
    if let Some(bytes) = cached {
        return Response {
            status: 200,
            content_type: "text/csv; charset=utf-8",
            extra_headers: Vec::new(),
            body: bytes.as_ref().clone(),
        };
    }
    // No cache (recovery finished without a release, or a failed publish
    // invalidated it): compute one, but never behind a live writer.
    let Some(mut guard) = entry.try_lock_state(state) else {
        return retryable(
            503,
            &format!("table {name:?} has no cached release yet and a writer is in flight"),
        );
    };
    match &mut *guard {
        TableState::Loading => retryable(503, &format!("table {name:?} is recovering")),
        TableState::Quarantined(reason) => quarantined_response(name, reason),
        TableState::Ready(store) => {
            let lease = match lease_for(state, None, None) {
                Ok(lease) => lease,
                Err(response) => return response,
            };
            store.set_budget(lease.budget().clone());
            let published = entry.publish(store);
            store.set_budget(Budget::unlimited());
            match published {
                Ok(()) => {
                    let bytes = recover(entry.release.read())
                        .clone()
                        .expect("publish filled the cache");
                    Response {
                        status: 200,
                        content_type: "text/csv; charset=utf-8",
                        extra_headers: Vec::new(),
                        body: bytes.as_ref().clone(),
                    }
                }
                Err(e) if e.is_corruption() => {
                    let reason = e.to_string();
                    entry.quarantine(&mut guard, reason.clone(), state);
                    quarantined_response(name, &reason)
                }
                Err(e) => error_json(500, &e.to_string()),
            }
        }
    }
}

/// `GET /v1/tables/{name}` — status. Never blocks on the writer lock:
/// under contention it serves the lock-free mirrors.
pub fn handle_status(state: &ServiceState, name: &str) -> Response {
    let Some(registry) = &state.tables else {
        return no_registry();
    };
    let Some(entry) = registry.entry(name) else {
        return unknown_table(name);
    };
    let response = match entry.try_lock_state(state) {
        Some(guard) => match &*guard {
            TableState::Loading => retryable(503, &format!("table {name:?} is recovering")),
            TableState::Quarantined(reason) => quarantined_response(name, reason),
            TableState::Ready(store) => {
                let mut obj = JsonObject::new();
                obj.string("table", name)
                    .string("state", "ready")
                    .raw("status", &store.status().to_json());
                Response::json(200, obj.finish())
            }
        },
        None => {
            let mut obj = JsonObject::new();
            obj.string("table", name)
                .string("state", "busy")
                .number("seq", u128::from(entry.seq.load(Ordering::Relaxed)))
                .number("n_rows", u128::from(entry.n_rows.load(Ordering::Relaxed)));
            Response::json(200, obj.finish())
        }
    };
    response
}

/// `DELETE /v1/tables/{name}` — drop the table and its durable state.
/// This is also the operator's way out of quarantine.
pub fn handle_delete(state: &ServiceState, name: &str) -> Response {
    let Some(registry) = &state.tables else {
        return no_registry();
    };
    let Some(entry) = registry.entry(name) else {
        return unknown_table(name);
    };
    let Some(mut guard) = entry.try_lock_state(state) else {
        state.metrics.table(name, |t| t.write_conflicts += 1);
        return retryable(409, &format!("table {name:?} has a writer in flight"));
    };
    if matches!(&*guard, TableState::Loading) {
        return retryable(503, &format!("table {name:?} is recovering"));
    }
    // Drop the store first so its directory lock is released before the
    // directory goes away.
    let previous = std::mem::replace(&mut *guard, TableState::Quarantined("deleted".to_string()));
    drop(previous);
    recover(registry.tables.write()).remove(name);
    state.metrics.remove_table(name);
    if let Err(e) = remove_table_dir(&registry.table_dir(name)) {
        return error_json(
            500,
            &format!("table removed from serving but its directory could not be deleted: {e}"),
        );
    }
    let mut obj = JsonObject::new();
    obj.string("deleted", name);
    Response::json(200, obj.finish())
}

fn remove_table_dir(dir: &Path) -> std::io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceConfig;
    use crate::job::JobStore;
    use crate::metrics::Metrics;
    use crate::queue::JobQueue;
    use kanon_core::BudgetPool;

    /// A batch applied to the table of this name panics mid-apply.
    const PANIC_IN_APPLY: &str = "panic_in_apply";

    /// The fault injection point `handle_ops` calls before it applies a
    /// batch. It exists in test builds only; no request can reach it
    /// otherwise.
    pub(super) fn inject_panic(table: &str) {
        if table == PANIC_IN_APPLY {
            panic!("injected panic in {table}");
        }
    }

    #[test]
    fn a_writer_panic_quarantines_the_table_instead_of_poisoning_it() {
        let state = ServiceState {
            config: ServiceConfig::default(),
            metrics: Metrics::new(),
            jobs: JobStore::new(),
            queue: JobQueue::new(1),
            pool: BudgetPool::new(1 << 20),
            tables: None,
        };
        let entry = Arc::new(TableEntry::new("t"));
        *recover(entry.release.write()) = Some(Arc::new(b"stale".to_vec()));
        let writer = Arc::clone(&entry);
        let joined = std::thread::spawn(move || {
            let _guard = writer.state.lock().unwrap();
            panic!("injected panic in a table writer");
        })
        .join();
        assert!(joined.is_err());
        assert!(entry.state.is_poisoned());

        let guard = entry.try_lock_state(&state).expect("no live writer");
        assert!(matches!(&*guard, TableState::Quarantined(r) if r.contains("panicked")));
        drop(guard);
        // Quarantine is reported and sticks; the lock itself is healthy
        // again, so DELETE (the operator's exit) can take it.
        assert!(!entry.state.is_poisoned());
        assert!(entry.quarantined.load(Ordering::Relaxed));
        assert!(recover(entry.release.read()).is_none());
        assert!(state
            .metrics
            .table_stats("t")
            .is_some_and(|t| t.quarantined));
        assert!(matches!(
            &*entry.lock_state(&state),
            TableState::Quarantined(_)
        ));
    }

    #[test]
    fn table_names_are_strictly_validated() {
        for good in ["t", "orders-2024", "a_b_c", "X9"] {
            assert!(validate_table_name(good).is_ok(), "{good}");
        }
        for bad in ["", ".", "..", "a/b", "a.b", "a b", "naïve", &"x".repeat(65)] {
            assert!(validate_table_name(bad).is_err(), "{bad}");
        }
    }
}
