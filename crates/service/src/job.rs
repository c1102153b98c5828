//! Job records and their JSON projection for `GET /v1/jobs/{id}`.
//!
//! A job moves `queued → running → completed | failed`; progress inside
//! `running` comes from the pipeline's [`kanon_pipeline::Progress`]
//! events. The store keeps every finished record for the server's
//! lifetime — the service is an operator tool, not a public API, and a
//! bounded bench run never produces enough records to matter.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use kanon_pipeline::json::JsonObject;
use kanon_pipeline::PipelineReport;

use crate::lock::recover;

/// Opaque job identifier, allocated sequentially from 1.
pub type JobId = u64;

/// Measured linkage attack against a completed job's release: the job's
/// own (capped sample of) original rows play the external table, so the
/// numbers answer "could the uploader's population be re-identified from
/// what we just released?".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AttackSummary {
    /// Rows attacked (at most the sampling cap).
    pub attacked: usize,
    /// Rows re-identified outright — candidate set of size one. Zero for
    /// any correct k ≥ 2 release.
    pub unique_matches: usize,
    /// Mean probability a uniformly-guessing attacker names the right
    /// released row; at most `1/k` for a k-anonymous release.
    pub expected_success: f64,
}

/// Lifecycle state of one job.
#[derive(Debug)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is solving it; `done` of `units` pipeline work units
    /// (shards plus residue) are finished.
    Running {
        /// Work units solved so far.
        done: usize,
        /// Total work units (0 until the pipeline has planned shards).
        units: usize,
    },
    /// Finished with a valid anonymization.
    Completed {
        /// The pipeline's run report.
        report: PipelineReport,
        /// Whether the service's independent re-check of the requested
        /// privacy model passed; `None` when the job ran plain k.
        privacy_verified: Option<bool>,
        /// Linkage-attack measurement of the release, when one ran.
        attack: Option<AttackSummary>,
        /// End-to-end milliseconds from admission to completion.
        elapsed_ms: u128,
    },
    /// Errored after admission (bad CSV, budget exhaustion, solver error).
    Failed {
        /// Rendered error message.
        error: String,
        /// End-to-end milliseconds from admission to failure.
        elapsed_ms: u128,
    },
}

impl JobState {
    fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running { .. } => "running",
            JobState::Completed { .. } => "completed",
            JobState::Failed { .. } => "failed",
        }
    }
}

/// One job's record.
#[derive(Debug)]
pub struct JobRecord {
    /// The job's id.
    pub id: JobId,
    /// The anonymity parameter it runs under.
    pub k: usize,
    /// When the job was admitted.
    pub submitted: Instant,
    /// Current lifecycle state.
    pub state: JobState,
}

impl JobRecord {
    /// Renders the job as the stable-shape JSON the status endpoint
    /// serves. Keys appear in a fixed order; state-specific keys are
    /// present exactly when that state holds.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.number("id", u128::from(self.id))
            .number("k", self.k as u128)
            .string("state", self.state.name());
        match &self.state {
            JobState::Queued => {}
            JobState::Running { done, units } => {
                let mut progress = JsonObject::new();
                progress
                    .number("done", *done as u128)
                    .number("units", *units as u128);
                obj.raw("progress", &progress.finish());
            }
            JobState::Completed {
                report,
                privacy_verified,
                attack,
                elapsed_ms,
            } => {
                // A run completes only after the pipeline's finisher
                // verified the release k-anonymous, so a completed job
                // carries that verdict.
                obj.boolean("k_anonymous", true);
                if let Some(verified) = privacy_verified {
                    obj.boolean("privacy_verified", *verified);
                }
                if let Some(attack) = attack {
                    let mut inner = JsonObject::new();
                    inner
                        .number("attacked", attack.attacked as u128)
                        .number("unique_matches", attack.unique_matches as u128)
                        .raw(
                            "expected_success",
                            &format!("{:.6}", attack.expected_success),
                        );
                    obj.raw("attack", &inner.finish());
                }
                obj.number("elapsed_ms", *elapsed_ms)
                    .raw("report", &report.to_json());
            }
            JobState::Failed { error, elapsed_ms } => {
                obj.string("error", error).number("elapsed_ms", *elapsed_ms);
            }
        }
        obj.finish()
    }
}

/// Concurrent map of every job the server has admitted.
#[derive(Debug, Default)]
pub struct JobStore {
    jobs: Mutex<HashMap<JobId, JobRecord>>,
    next_id: AtomicU64,
}

impl JobStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        JobStore::default()
    }

    /// Admits a new job in `Queued` state and returns its id.
    pub fn create(&self, k: usize) -> JobId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let record = JobRecord {
            id,
            k,
            submitted: Instant::now(),
            state: JobState::Queued,
        };
        recover(self.jobs.lock()).insert(id, record);
        id
    }

    fn update(&self, id: JobId, f: impl FnOnce(&mut JobRecord)) {
        if let Some(record) = recover(self.jobs.lock()).get_mut(&id) {
            f(record);
        }
    }

    /// Marks the job running (a worker claimed it).
    pub fn set_running(&self, id: JobId) {
        self.update(id, |r| {
            r.state = JobState::Running { done: 0, units: 0 };
        });
    }

    /// Publishes pipeline progress for a running job.
    pub fn set_progress(&self, id: JobId, done: usize, units: usize) {
        self.update(id, |r| {
            if matches!(r.state, JobState::Running { .. }) {
                r.state = JobState::Running { done, units };
            }
        });
    }

    /// Marks the job completed with its report, the privacy verdict, and
    /// the attack measurement (when one ran).
    pub fn complete(
        &self,
        id: JobId,
        report: PipelineReport,
        privacy_verified: Option<bool>,
        attack: Option<AttackSummary>,
    ) {
        self.update(id, |r| {
            r.state = JobState::Completed {
                report,
                privacy_verified,
                attack,
                elapsed_ms: r.submitted.elapsed().as_millis(),
            };
        });
    }

    /// Marks the job failed with a rendered error.
    pub fn fail(&self, id: JobId, error: String) {
        self.update(id, |r| {
            r.state = JobState::Failed {
                error,
                elapsed_ms: r.submitted.elapsed().as_millis(),
            };
        });
    }

    /// Removes a record, undoing [`JobStore::create`] when admission
    /// fails after the id was allocated (the refused job must leave no
    /// trace).
    pub fn remove(&self, id: JobId) {
        recover(self.jobs.lock()).remove(&id);
    }

    /// Renders the job's status JSON, or `None` for an unknown id.
    #[must_use]
    pub fn render(&self, id: JobId) -> Option<String> {
        recover(self.jobs.lock()).get(&id).map(JobRecord::to_json)
    }

    /// True when the job exists and has reached a terminal state.
    #[must_use]
    pub fn is_finished(&self, id: JobId) -> bool {
        recover(self.jobs.lock()).get(&id).is_some_and(|r| {
            matches!(
                r.state,
                JobState::Completed { .. } | JobState::Failed { .. }
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_renders_state_specific_keys() {
        let store = JobStore::new();
        let id = store.create(3);
        assert_eq!(id, 1);
        let queued = store.render(id).unwrap();
        assert!(queued.starts_with("{\"id\":1,\"k\":3,\"state\":\"queued\"}"));

        store.set_running(id);
        store.set_progress(id, 2, 5);
        let running = store.render(id).unwrap();
        assert!(running.contains("\"state\":\"running\""));
        assert!(running.contains("\"progress\":{\"done\":2,\"units\":5}"));

        store.fail(id, "budget \"wall-clock\" exceeded".into());
        let failed = store.render(id).unwrap();
        assert!(failed.contains("\"state\":\"failed\""));
        assert!(failed.contains("\\\"wall-clock\\\""));
        assert!(failed.contains("\"elapsed_ms\":"));
        assert!(store.is_finished(id));

        // Progress updates after a terminal state are ignored.
        store.set_progress(id, 9, 9);
        assert!(!store.render(id).unwrap().contains("\"progress\""));

        assert!(store.render(99).is_none());
        assert!(!store.is_finished(99));
    }

    #[test]
    fn completed_job_renders_privacy_and_attack_sections() {
        let report = || PipelineReport {
            n_rows: 4,
            n_cols: 2,
            k: 2,
            shard_size: 64,
            strategy: "hash",
            workers: 1,
            shards: Vec::new(),
            residue_rows: 0,
            total_cost: 2,
            elapsed: std::time::Duration::from_millis(5),
            generalization: None,
            privacy: None,
        };
        let store = JobStore::new();

        let private = store.create(2);
        store.complete(
            private,
            report(),
            Some(true),
            Some(AttackSummary {
                attacked: 4,
                unique_matches: 0,
                expected_success: 0.5,
            }),
        );
        let json = store.render(private).unwrap();
        assert!(json.contains("\"k_anonymous\":true"));
        assert!(json.contains("\"privacy_verified\":true"));
        assert!(json.contains(
            "\"attack\":{\"attacked\":4,\"unique_matches\":0,\"expected_success\":0.500000}"
        ));

        // A plain-k job renders neither of the new keys.
        let plain = store.create(2);
        store.complete(plain, report(), None, None);
        let json = store.render(plain).unwrap();
        assert!(!json.contains("privacy_verified"));
        assert!(!json.contains("\"attack\""));
    }

    #[test]
    fn ids_are_unique_under_contention() {
        let store = JobStore::new();
        let ids: Vec<JobId> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| (0..50).map(|_| store.create(2)).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
    }
}
