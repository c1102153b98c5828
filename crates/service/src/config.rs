//! Server configuration: listen address, worker pool sizing, queue depth,
//! and the global memory pool that admission control carves per-job
//! budgets from.

use std::path::PathBuf;
use std::time::Duration;

use crate::error::{Error, Result};

/// Configuration for [`crate::server::Server::start`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Listen address (`host:port`). Port `0` asks the OS for a free port;
    /// the bound address is reported by [`crate::server::Server::addr`].
    pub addr: String,
    /// Job-solver threads. Each runs one job at a time end to end, so this
    /// is the service's concurrency limit for solver work.
    pub workers: usize,
    /// Pipeline worker threads each job may use. `None` splits the
    /// machine's cores evenly across the `workers` job slots (never below
    /// one), so concurrent jobs cannot oversubscribe the box; `Some(n)`
    /// pins every job to `n` workers whatever the host, which makes the
    /// `workers` figure in a job's report reproducible. See
    /// [`ServiceConfig::pipeline_workers_per_job`].
    pub job_pipeline_workers: Option<usize>,
    /// Jobs that may wait in the queue beyond the ones running. Submissions
    /// past this depth are rejected with `429` at admission.
    pub queue_depth: usize,
    /// Global memory pool (bytes). Every accepted job leases its memory cap
    /// from this pool up front; admission rejects with `429` when the pool
    /// cannot cover the request.
    pub pool_memory_bytes: u64,
    /// Connection-handler threads reading and answering HTTP requests.
    pub http_threads: usize,
    /// Largest accepted request body; larger uploads get `413`.
    pub max_body_bytes: usize,
    /// Largest accepted request head (request line + headers); larger gets
    /// `400`.
    pub max_head_bytes: usize,
    /// Per-job memory cap when the request does not pass `max_memory_mb`:
    /// an even worker's share of the pool.
    pub default_job_memory_bytes: u64,
    /// Per-job deadline when the request does not pass `deadline_ms`.
    /// `None` means no deadline.
    pub default_deadline: Option<Duration>,
    /// Socket read/write timeout for request handling, so a stalled client
    /// cannot pin a connection handler forever.
    pub io_timeout: Duration,
    /// Directory holding durable tenant tables (one subdirectory per
    /// table). `None` disables the `/v1/tables` endpoints entirely; the
    /// job endpoints are unaffected either way.
    pub data_dir: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let workers = 4;
        let pool_memory_bytes = 256 * 1024 * 1024;
        ServiceConfig {
            addr: "127.0.0.1:8672".to_string(),
            workers,
            job_pipeline_workers: None,
            queue_depth: 64,
            pool_memory_bytes,
            http_threads: 4,
            max_body_bytes: 64 * 1024 * 1024,
            max_head_bytes: 8 * 1024,
            default_job_memory_bytes: pool_memory_bytes / workers as u64,
            default_deadline: None,
            io_timeout: Duration::from_secs(10),
            data_dir: None,
        }
    }
}

impl ServiceConfig {
    /// Validates the configuration before the server starts.
    ///
    /// # Errors
    /// [`Error::Config`] on zero workers, per-job pipeline workers, queue
    /// depth, HTTP threads, pool bytes, or head/body limits, and when the
    /// default per-job memory cap exceeds the pool (such a job could never
    /// be admitted).
    pub fn validate(&self) -> Result<()> {
        if self.workers == 0 {
            return Err(Error::Config("worker count must be at least 1".into()));
        }
        if self.job_pipeline_workers == Some(0) {
            return Err(Error::Config(
                "per-job pipeline worker count must be at least 1".into(),
            ));
        }
        if self.queue_depth == 0 {
            return Err(Error::Config("queue depth must be at least 1".into()));
        }
        if self.http_threads == 0 {
            return Err(Error::Config("http thread count must be at least 1".into()));
        }
        if self.pool_memory_bytes == 0 {
            return Err(Error::Config("memory pool must be non-empty".into()));
        }
        if self.max_head_bytes == 0 || self.max_body_bytes == 0 {
            return Err(Error::Config("head/body limits must be non-zero".into()));
        }
        if self.default_job_memory_bytes == 0 {
            return Err(Error::Config(
                "default per-job memory cap must be non-zero".into(),
            ));
        }
        if self.default_job_memory_bytes > self.pool_memory_bytes {
            return Err(Error::Config(format!(
                "default per-job memory cap ({} bytes) exceeds the pool \
                 ({} bytes); no job could ever be admitted",
                self.default_job_memory_bytes, self.pool_memory_bytes
            )));
        }
        Ok(())
    }

    /// Pipeline worker threads each job runs with: `job_pipeline_workers`
    /// when set, otherwise the machine's cores divided evenly across the
    /// `workers` job slots, never below one. With as many job slots as
    /// cores the split gives 1 (one core per job); a service with fewer
    /// slots than cores hands each job its share of the spare cores
    /// instead of pinning it to one thread.
    #[must_use]
    pub fn pipeline_workers_per_job(&self) -> usize {
        self.job_pipeline_workers.unwrap_or_else(|| {
            let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
            split_cores(cores, self.workers)
        })
    }
}

/// `cores / job_slots`, never below one.
fn split_cores(cores: usize, job_slots: usize) -> usize {
    (cores / job_slots.max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert!(ServiceConfig::default().validate().is_ok());
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        for broken in [
            ServiceConfig {
                workers: 0,
                ..ServiceConfig::default()
            },
            ServiceConfig {
                job_pipeline_workers: Some(0),
                ..ServiceConfig::default()
            },
            ServiceConfig {
                queue_depth: 0,
                ..ServiceConfig::default()
            },
            ServiceConfig {
                http_threads: 0,
                ..ServiceConfig::default()
            },
            ServiceConfig {
                pool_memory_bytes: 0,
                ..ServiceConfig::default()
            },
            ServiceConfig {
                max_head_bytes: 0,
                ..ServiceConfig::default()
            },
            ServiceConfig {
                default_job_memory_bytes: 0,
                ..ServiceConfig::default()
            },
            ServiceConfig {
                default_job_memory_bytes: u64::MAX,
                ..ServiceConfig::default()
            },
        ] {
            assert!(broken.validate().is_err());
        }
    }

    #[test]
    fn pinned_pipeline_workers_ignore_the_host() {
        for n in [1, 3, 64] {
            for workers in [1, 4] {
                let config = ServiceConfig {
                    workers,
                    job_pipeline_workers: Some(n),
                    ..ServiceConfig::default()
                };
                assert_eq!(config.pipeline_workers_per_job(), n);
            }
        }
    }

    #[test]
    fn unpinned_pipeline_workers_split_the_cores_across_job_slots() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        for workers in [1, 2, 3, 4, 64] {
            let config = ServiceConfig {
                workers,
                ..ServiceConfig::default()
            };
            assert_eq!(config.job_pipeline_workers, None);
            assert_eq!(
                config.pipeline_workers_per_job(),
                (cores / workers).max(1),
                "{cores} cores over {workers} job slots"
            );
        }
        // The split itself, on hosts this one may not be.
        assert_eq!(split_cores(8, 1), 8);
        assert_eq!(split_cores(8, 3), 2);
        assert_eq!(split_cores(2, 4), 1);
        assert_eq!(split_cores(1, 1), 1);
    }
}
