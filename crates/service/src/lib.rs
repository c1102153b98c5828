//! `kanon-service`: a multi-tenant anonymization server with admission
//! control and live observability — std-only, no async runtime, no HTTP
//! framework.
//!
//! The solvers in this workspace answer one instance at a time under one
//! [`kanon_core::govern::Budget`]. A shared deployment has a different
//! problem: many tenants submitting tables concurrently, each expecting
//! an explicit yes-or-no *now* rather than an unbounded wait, and an
//! operator who needs to see queue pressure and degradation as it
//! happens. This crate is that serving layer:
//!
//! - **Admission control** ([`server`]) — a submission either gets a job
//!   id (`202`) or a `429` with `Retry-After`, decided without blocking:
//!   jobs lease their memory cap from a global
//!   [`kanon_core::BudgetPool`] and take a slot in a bounded
//!   [`queue::JobQueue`]. Overload degrades service *latency* for nobody
//!   — it shrinks admission instead.
//! - **Execution** — a `std::thread::scope` worker pool drives each job
//!   through [`kanon_pipeline`] under its leased budget; per-job
//!   pipelines are single-threaded, so one tenant's giant table cannot
//!   crowd out the rest.
//! - **Observability** ([`metrics`]) — Prometheus text at `/metrics`
//!   whose counters reconcile exactly: after a drain, accepted equals
//!   completed plus failed, a property the `server_integration` and
//!   `table_service` tests assert end-to-end.
//!
//! - **Durable tables** ([`tables`]) — when started with a data
//!   directory, the server mounts one
//!   [`kanon_pipeline::delta::DeltaStore`] per tenant table behind
//!   `/v1/tables/{name}`: crash-safe batch appends whose WAL doubles as
//!   the job log, startup recovery that replays every table (quarantining
//!   corrupt ones instead of dying), and streamed releases served from a
//!   cache readers never block writers for.
//!
//! Endpoints: `POST /v1/anonymize` (CSV body or `path=`; query `k`,
//! `shard_size`, `deadline_ms`, `max_memory_mb`, `strategy`, `quasi`),
//! `GET /v1/jobs/{id}`, `PUT`/`GET`/`DELETE /v1/tables/{name}`,
//! `POST /v1/tables/{name}/ops`, `GET /v1/tables/{name}/release`,
//! `GET /healthz`, `GET /readyz`, `GET /metrics`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod http;
pub mod job;
mod lock;
pub mod metrics;
pub mod queue;
pub mod router;
pub mod server;
pub mod tables;

pub use config::ServiceConfig;
pub use error::{Error, Result};
pub use server::{Server, ServiceState};
