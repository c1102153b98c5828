//! Resource-governed execution: deadlines, cancellation, and memory budgets.
//!
//! The paper's headline algorithms are deliberately expensive — the §4.2.1
//! exhaustive greedy enumerates `O(n^{2k})` candidate subsets, and the exact
//! solvers are worst-case exponential. A static size guard
//! ([`crate::error::Error::InstanceTooLarge`]) rejects instances that are
//! *obviously* hopeless, but many instances pass the guard and still run for
//! minutes, or allocate gigabytes, on inputs a serving system must answer in
//! milliseconds. This module is the safety valve: a cheap, shareable
//! [`Budget`] that every long-running loop polls at bounded intervals, so a
//! solver stops with a structured [`Error::BudgetExceeded`] instead of
//! hanging or exhausting the machine.
//!
//! ## The poll-interval contract
//!
//! Every governed hot loop in this workspace ticks a [`PollTicker`] once per
//! iteration; the ticker performs the real (atomic-load + clock-read) check
//! every [`POLL_INTERVAL`] ticks. The contract — relied upon by the
//! cancellation tests and documented in DESIGN.md — is:
//!
//! > No governed hot loop runs more than ~1k constant-time steps between
//! > budget polls.
//!
//! Consequently a cancellation or an elapsed deadline is observed within one
//! poll interval, i.e. within microseconds of real work, and an
//! already-exceeded budget is reported before any significant work starts
//! (every solver entry point calls [`Budget::check`] up front).
//!
//! ## What the memory budget measures
//!
//! [`Budget::try_charge_memory`] is *planned-allocation accounting*, not
//! RSS: before a solver allocates a large structure (distance cache,
//! candidate array, DP table) it charges the structure's projected size and
//! fails fast if the budget cannot afford it. Charges accumulate for the
//! lifetime of the budget — sibling solvers sharing one budget compete for
//! the same allowance, which is exactly the semantics a per-request serving
//! budget wants. The [`DegradationLadder`](https://docs.rs/kanon-baselines)
//! gives each rung a fresh counter via [`Budget::child`] so an abandoned
//! rung's (freed) allocations do not starve its successor.
//!
//! ## Determinism
//!
//! Governance never changes *what* a solver computes, only *whether it is
//! allowed to finish*: every solver has one entry point taking a
//! `&Budget` last, and a run under a budget that never trips is
//! byte-identical to a run under [`Budget::unlimited`]. The differential
//! suite in `crates/tests/tests/governance.rs` pins this.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{Error, Result};

/// Number of [`PollTicker::tick`]s between real budget checks. Hot loops
/// tick once per constant-time step, so this bounds the number of steps a
/// governed loop can run past an exhausted budget.
pub const POLL_INTERVAL: u32 = 1024;

/// The resource dimension a [`Budget`] ran out of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Resource {
    /// Wall-clock deadline; `spent`/`limit` are milliseconds.
    WallClock,
    /// Planned-allocation memory accounting; `spent`/`limit` are bytes.
    Memory,
    /// Candidate-collection cap; `spent`/`limit` count candidate subsets.
    Candidates,
    /// Explicit cancellation (e.g. a client disconnected); `spent` and
    /// `limit` are both 0.
    Cancelled,
}

impl std::fmt::Display for Resource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Resource::WallClock => write!(f, "wall-clock ms"),
            Resource::Memory => write!(f, "memory bytes"),
            Resource::Candidates => write!(f, "candidates"),
            Resource::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// A shareable execution budget: wall-clock deadline, memory and candidate
/// caps, and an atomic cancellation token.
///
/// Cloning is cheap (two `Arc` bumps); clones share the cancellation flag
/// and the memory counter, so a budget handed to parallel workers governs
/// them collectively. Use [`Budget::child`] for a *derived* budget (tighter
/// deadline, fresh memory counter) that still honors the parent's
/// cancellation — the degradation ladder's per-rung slices are children.
///
/// ```
/// use std::time::Duration;
/// use kanon_core::govern::Budget;
///
/// let b = Budget::builder().deadline(Duration::from_millis(50)).build();
/// assert!(b.check().is_ok());
/// b.cancel();
/// assert!(b.check().is_err());
/// ```
#[derive(Clone, Debug)]
pub struct Budget {
    started: Instant,
    allowance: Option<Duration>,
    max_memory: Option<u64>,
    max_candidates: Option<u64>,
    memory: Arc<AtomicU64>,
    cancel: Arc<AtomicBool>,
    cancel_at: Option<Arc<AtomicU64>>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    /// A budget with no limits. Polling it is a single relaxed atomic load
    /// (the cancellation flag), so callers that want no limit pass this to
    /// any solver at negligible cost.
    #[must_use]
    pub fn unlimited() -> Self {
        BudgetBuilder::default().build()
    }

    /// Starts building a limited budget.
    #[must_use]
    pub fn builder() -> BudgetBuilder {
        BudgetBuilder::default()
    }

    /// Flags the budget as cancelled; every holder of this budget (or of a
    /// [`Budget::child`]) observes it within one poll interval.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether [`Budget::cancel`] has been called.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Wall-clock time remaining, `None` when no deadline is set. Zero once
    /// the deadline has passed.
    #[must_use]
    pub fn remaining(&self) -> Option<Duration> {
        self.allowance
            .map(|a| a.saturating_sub(self.started.elapsed()))
    }

    /// Milliseconds elapsed since the budget started.
    fn elapsed_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// The cheap poll: cancellation flag, then (only when a deadline is set)
    /// the clock.
    ///
    /// # Errors
    /// [`Error::BudgetExceeded`] with [`Resource::Cancelled`] or
    /// [`Resource::WallClock`].
    pub fn check(&self) -> Result<()> {
        if let Some(polls) = &self.cancel_at {
            if polls.fetch_sub(1, Ordering::Relaxed) == 1 {
                self.cancel();
            }
        }
        if self.is_cancelled() {
            return Err(Error::BudgetExceeded {
                resource: Resource::Cancelled,
                spent: 0,
                limit: 0,
            });
        }
        if let Some(allowance) = self.allowance {
            if self.started.elapsed() > allowance {
                return Err(Error::BudgetExceeded {
                    resource: Resource::WallClock,
                    spent: self.elapsed_ms(),
                    limit: u64::try_from(allowance.as_millis()).unwrap_or(u64::MAX),
                });
            }
        }
        Ok(())
    }

    /// Records a planned allocation of `bytes` against the memory cap.
    ///
    /// # Errors
    /// [`Error::BudgetExceeded`] with [`Resource::Memory`] when the running
    /// total would exceed the cap (the charge is not applied in that case).
    pub fn try_charge_memory(&self, bytes: u64) -> Result<()> {
        let Some(limit) = self.max_memory else {
            return Ok(());
        };
        let prior = self.memory.fetch_add(bytes, Ordering::Relaxed);
        let total = prior.saturating_add(bytes);
        if total > limit {
            // Roll back so a later, smaller request can still succeed.
            self.memory.fetch_sub(bytes, Ordering::Relaxed);
            return Err(Error::BudgetExceeded {
                resource: Resource::Memory,
                spent: total,
                limit,
            });
        }
        Ok(())
    }

    /// Total bytes charged so far (0 when no cap is set — uncapped budgets
    /// skip the accounting entirely).
    #[must_use]
    pub fn memory_charged(&self) -> u64 {
        self.memory.load(Ordering::Relaxed)
    }

    /// As [`Budget::try_charge_memory`], but scoped: the returned guard
    /// refunds the charge when dropped. Use for transient buffers (WAL
    /// replay records, staging areas) whose memory is returned to the pool
    /// as soon as the scope ends, unlike the fire-and-forget charges solvers
    /// make for allocations that live for the rest of the run.
    ///
    /// # Errors
    /// [`Error::BudgetExceeded`] with [`Resource::Memory`]; nothing is
    /// charged in that case.
    pub fn try_charge_memory_scoped(&self, bytes: u64) -> Result<MemoryCharge<'_>> {
        // Uncapped budgets skip the counter in `try_charge_memory`, so the
        // guard must remember a zero charge to stay symmetric on drop.
        let charged = if self.max_memory.is_some() { bytes } else { 0 };
        self.try_charge_memory(bytes)?;
        Ok(MemoryCharge {
            budget: self,
            bytes: charged,
        })
    }

    /// The planned-allocation memory cap, `None` when uncapped. Callers that
    /// divide a budget among concurrent workers (the sharded pipeline) read
    /// this to compute per-worker [`Budget::child_with_memory`] slices.
    #[must_use]
    pub fn memory_limit(&self) -> Option<u64> {
        self.max_memory
    }

    /// Checks a candidate-collection size against the candidate cap.
    ///
    /// # Errors
    /// [`Error::BudgetExceeded`] with [`Resource::Candidates`].
    pub fn check_candidates(&self, count: u64) -> Result<()> {
        match self.max_candidates {
            Some(limit) if count > limit => Err(Error::BudgetExceeded {
                resource: Resource::Candidates,
                spent: count,
                limit,
            }),
            _ => Ok(()),
        }
    }

    /// A derived budget: same memory/candidate caps, a **fresh** memory
    /// counter, the given deadline (measured from now), and the *shared*
    /// cancellation flag — cancelling the parent cancels every child.
    ///
    /// The child's deadline is clamped to the parent's remaining time, so a
    /// child can never outlive its parent.
    #[must_use]
    pub fn child(&self, allowance: Option<Duration>) -> Budget {
        self.child_with_memory(allowance, self.max_memory)
    }

    /// As [`Budget::child`], but with an explicit memory cap for the child
    /// instead of inheriting the parent's.
    ///
    /// This is the slicing primitive of the sharded pipeline: a worker pool
    /// running `W` shards concurrently hands each shard a child capped at
    /// `global_cap / W`, so the pool's aggregate planned allocations stay
    /// within the global cap even though each child counts from zero. The
    /// cap is clamped to the parent's (a child may narrow the allowance,
    /// never widen it), and `None` falls back to the parent's cap.
    #[must_use]
    pub fn child_with_memory(
        &self,
        allowance: Option<Duration>,
        max_memory: Option<u64>,
    ) -> Budget {
        let clamped = match (allowance, self.remaining()) {
            (Some(a), Some(r)) => Some(a.min(r)),
            (Some(a), None) => Some(a),
            (None, r) => r,
        };
        let memory_cap = match (max_memory, self.max_memory) {
            (Some(child), Some(parent)) => Some(child.min(parent)),
            (Some(child), None) => Some(child),
            (None, parent) => parent,
        };
        Budget {
            started: Instant::now(),
            allowance: clamped,
            max_memory: memory_cap,
            max_candidates: self.max_candidates,
            memory: Arc::new(AtomicU64::new(0)),
            cancel: Arc::clone(&self.cancel),
            cancel_at: self.cancel_at.clone(),
        }
    }

    /// A ticker that amortizes [`Budget::check`] to every
    /// [`POLL_INTERVAL`]-th tick. Each worker thread should carry its own.
    #[must_use]
    pub fn ticker(&self) -> PollTicker<'_> {
        PollTicker {
            budget: self,
            countdown: POLL_INTERVAL,
        }
    }
}

/// A planned-allocation charge that refunds itself on drop. Created by
/// [`Budget::try_charge_memory_scoped`].
#[derive(Debug)]
#[must_use = "dropping the guard immediately refunds the charge"]
pub struct MemoryCharge<'a> {
    budget: &'a Budget,
    bytes: u64,
}

impl Drop for MemoryCharge<'_> {
    fn drop(&mut self) {
        if self.bytes > 0 {
            self.budget.memory.fetch_sub(self.bytes, Ordering::Relaxed);
        }
    }
}

/// A fleet-wide memory pool that leases per-job [`Budget`]s and reclaims
/// them when the job is done.
///
/// [`Budget::child_with_memory`] narrows a *single* child's cap but gives
/// every child a fresh counter — `N` children capped at `C` bytes each can
/// collectively plan `N × C` bytes, and nothing stops a caller from minting
/// children faster than they finish. That is fine inside one job (the
/// sharded pipeline bounds its own concurrency), but a *server* admitting
/// many independent jobs needs a single owner of the aggregate arithmetic.
/// `BudgetPool` is that owner: [`BudgetPool::try_lease`] reserves the
/// lease's whole allowance up front (checked, atomically) and the returned
/// [`BudgetLease`] gives it back on drop — so the sum of live leases can
/// never exceed the pool, whatever the interleaving.
///
/// A failed lease is an *admission* signal (the caller should shed load,
/// e.g. answer `429`), not a solver error, but it reuses
/// [`Error::BudgetExceeded`] with [`Resource::Memory`] so the layers above
/// need only one vocabulary.
///
/// ```
/// use std::time::Duration;
/// use kanon_core::govern::BudgetPool;
///
/// let pool = BudgetPool::new(1024);
/// let lease = pool.try_lease(64, Some(Duration::from_millis(50))).unwrap();
/// assert_eq!(pool.leased(), 64);
/// assert!(pool.try_lease(1024, None).is_err()); // only 960 left
/// drop(lease);
/// assert_eq!(pool.leased(), 0);
/// ```
#[derive(Debug)]
pub struct BudgetPool {
    total: u64,
    leased: Arc<AtomicU64>,
}

impl BudgetPool {
    /// A pool of `total_bytes` of planned-allocation allowance.
    #[must_use]
    pub fn new(total_bytes: u64) -> Self {
        BudgetPool {
            total: total_bytes,
            leased: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The pool's total allowance in bytes.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Bytes currently reserved by live leases.
    #[must_use]
    pub fn leased(&self) -> u64 {
        self.leased.load(Ordering::Relaxed)
    }

    /// Bytes a new lease could still reserve.
    #[must_use]
    pub fn available(&self) -> u64 {
        self.total.saturating_sub(self.leased())
    }

    /// Reserves `bytes` from the pool and returns a lease whose budget is
    /// memory-capped at exactly that reservation (optionally with a
    /// deadline). The reservation is returned to the pool when the lease is
    /// dropped; the lease's budget is cancelled at the same time, so clones
    /// still held by a runaway solver stop within one poll interval.
    ///
    /// # Errors
    /// [`Error::Overflow`] when `bytes` is zero or absurd enough that the
    /// reservation arithmetic cannot be carried out exactly;
    /// [`Error::BudgetExceeded`] with [`Resource::Memory`] when the pool
    /// cannot afford the reservation (`spent` is what the total would have
    /// become, `limit` the pool size).
    pub fn try_lease(&self, bytes: u64, allowance: Option<Duration>) -> Result<BudgetLease> {
        if bytes == 0 {
            return Err(Error::Overflow {
                what: "zero-byte pool lease",
            });
        }
        // CAS loop: reserve atomically so concurrent leases cannot race the
        // total past the pool, and overflow is checked, never wrapped.
        let mut current = self.leased.load(Ordering::Relaxed);
        loop {
            let proposed = current.checked_add(bytes).ok_or(Error::Overflow {
                what: "pool lease accounting",
            })?;
            if proposed > self.total {
                return Err(Error::BudgetExceeded {
                    resource: Resource::Memory,
                    spent: proposed,
                    limit: self.total,
                });
            }
            match self.leased.compare_exchange_weak(
                current,
                proposed,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(observed) => current = observed,
            }
        }
        let mut builder = Budget::builder().max_memory_bytes(bytes);
        if let Some(allowance) = allowance {
            builder = builder.deadline(allowance);
        }
        Ok(BudgetLease {
            leased: Arc::clone(&self.leased),
            bytes,
            budget: builder.build(),
        })
    }
}

/// A live reservation from a [`BudgetPool`]: carries the job's [`Budget`]
/// and returns the reserved bytes to the pool on drop.
#[derive(Debug)]
pub struct BudgetLease {
    leased: Arc<AtomicU64>,
    bytes: u64,
    budget: Budget,
}

impl BudgetLease {
    /// The budget governing the leased job. Clone it freely; all clones
    /// share the lease's memory counter and cancellation flag.
    #[must_use]
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Bytes this lease reserved from the pool.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for BudgetLease {
    fn drop(&mut self) {
        // Cancel first so any straggler holding a clone of the budget stops
        // planning allocations against a reservation that no longer exists.
        self.budget.cancel();
        self.leased.fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

/// Builder for [`Budget`]; every limit is optional.
#[derive(Clone, Debug, Default)]
pub struct BudgetBuilder {
    allowance: Option<Duration>,
    max_memory: Option<u64>,
    max_candidates: Option<u64>,
    cancel_at: Option<u64>,
}

impl BudgetBuilder {
    /// Wall-clock allowance, measured from [`BudgetBuilder::build`].
    #[must_use]
    pub fn deadline(mut self, allowance: Duration) -> Self {
        self.allowance = Some(allowance);
        self
    }

    /// Planned-allocation memory cap in bytes.
    #[must_use]
    pub fn max_memory_bytes(mut self, bytes: u64) -> Self {
        self.max_memory = Some(bytes);
        self
    }

    /// Cap on candidate-collection sizes (the exhaustive greedy's
    /// `Σ C(n, s)`); a finer-grained sibling of
    /// [`crate::greedy::FullCoverConfig::max_candidates`].
    #[must_use]
    pub fn max_candidates(mut self, count: u64) -> Self {
        self.max_candidates = Some(count);
        self
    }

    /// Raises cancellation at the `polls`-th [`Budget::check`] of this
    /// budget and its children (the solver's up-front check counts), as if
    /// another holder had called [`Budget::cancel`] at exactly that point:
    /// a mid-run cancellation that does not depend on timing.
    #[must_use]
    pub fn cancel_at_poll(mut self, polls: u64) -> Self {
        self.cancel_at = Some(polls);
        self
    }

    /// Finalizes the budget; the deadline clock starts now.
    #[must_use]
    pub fn build(self) -> Budget {
        Budget {
            started: Instant::now(),
            allowance: self.allowance,
            max_memory: self.max_memory,
            max_candidates: self.max_candidates,
            memory: Arc::new(AtomicU64::new(0)),
            cancel: Arc::new(AtomicBool::new(false)),
            cancel_at: self.cancel_at.map(|polls| Arc::new(AtomicU64::new(polls))),
        }
    }
}

/// Amortized budget poller: `tick()` is a decrement-and-branch on the fast
/// path and a real [`Budget::check`] every [`POLL_INTERVAL`] ticks.
#[derive(Debug)]
pub struct PollTicker<'a> {
    budget: &'a Budget,
    countdown: u32,
}

impl PollTicker<'_> {
    /// One hot-loop step. Cheap: a counter decrement except on every
    /// [`POLL_INTERVAL`]-th call.
    ///
    /// # Errors
    /// Propagates [`Budget::check`] failures.
    #[inline]
    pub fn tick(&mut self) -> Result<()> {
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = POLL_INTERVAL;
            return self.budget.check();
        }
        Ok(())
    }

    /// Accounts for `steps` hot-loop steps at once: performs exactly the
    /// real checks `steps` individual [`PollTicker::tick`] calls would
    /// have performed (`⌊(steps + drift)/POLL_INTERVAL⌋` of them), without
    /// the per-step decrement. Batched kernels — which do thousands of
    /// lane comparisons per call — use this to keep the poll-interval
    /// contract while removing the per-entry branch from the inner loop.
    ///
    /// Callers must keep individual batches ≤ ~[`POLL_INTERVAL`] steps (or
    /// tick *before* long batches) for the "cancellation observed within
    /// ~1k steps" bound to stay honest; the distance-cache fill ticks once
    /// per ≤ `POLL_INTERVAL`-entry segment.
    ///
    /// # Errors
    /// Propagates [`Budget::check`] failures.
    #[inline]
    pub fn tick_many(&mut self, steps: u64) -> Result<()> {
        let mut left = steps;
        while left >= u64::from(self.countdown) {
            left -= u64::from(self.countdown);
            self.countdown = POLL_INTERVAL;
            self.budget.check()?;
        }
        // `left < countdown ≤ POLL_INTERVAL`, so the invariant
        // `0 < countdown ≤ POLL_INTERVAL` is preserved.
        self.countdown -= left as u32;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_always_passes() {
        let b = Budget::unlimited();
        assert!(b.check().is_ok());
        assert!(b.try_charge_memory(u64::MAX).is_ok());
        assert!(b.check_candidates(u64::MAX).is_ok());
        assert_eq!(b.remaining(), None);
    }

    #[test]
    fn cancellation_is_shared_across_clones_and_children() {
        let b = Budget::builder()
            .deadline(Duration::from_secs(3600))
            .build();
        let clone = b.clone();
        let child = b.child(Some(Duration::from_secs(1)));
        b.cancel();
        for budget in [&b, &clone, &child] {
            let err = budget.check().unwrap_err();
            assert!(
                matches!(
                    err,
                    Error::BudgetExceeded {
                        resource: Resource::Cancelled,
                        ..
                    }
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn deadline_expires() {
        let b = Budget::builder().deadline(Duration::ZERO).build();
        std::thread::sleep(Duration::from_millis(2));
        let err = b.check().unwrap_err();
        assert!(matches!(
            err,
            Error::BudgetExceeded {
                resource: Resource::WallClock,
                ..
            }
        ));
        assert_eq!(b.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn memory_accounting_enforces_cap_and_rolls_back() {
        let b = Budget::builder().max_memory_bytes(100).build();
        assert!(b.try_charge_memory(60).is_ok());
        let err = b.try_charge_memory(50).unwrap_err();
        match err {
            Error::BudgetExceeded {
                resource: Resource::Memory,
                spent,
                limit,
            } => {
                assert_eq!(spent, 110);
                assert_eq!(limit, 100);
            }
            other => panic!("unexpected error {other:?}"),
        }
        // The failed charge rolled back, so a smaller one still fits.
        assert_eq!(b.memory_charged(), 60);
        assert!(b.try_charge_memory(40).is_ok());
    }

    #[test]
    fn scoped_charges_refund_on_drop() {
        let b = Budget::builder().max_memory_bytes(100).build();
        {
            let _guard = b.try_charge_memory_scoped(80).unwrap();
            assert_eq!(b.memory_charged(), 80);
            // While the guard lives, the remaining headroom is 20 bytes.
            assert!(b.try_charge_memory_scoped(30).is_err());
        }
        // The guard's drop refunded the 80 bytes.
        assert_eq!(b.memory_charged(), 0);
        assert!(b.try_charge_memory_scoped(100).is_ok());

        // A failed scoped charge leaves the counter untouched.
        let err = b.try_charge_memory_scoped(101);
        assert!(err.is_err());
        assert_eq!(b.memory_charged(), 0);

        // Uncapped budgets skip the accounting, and the guard must not
        // underflow the counter on drop.
        let free = Budget::unlimited();
        drop(free.try_charge_memory_scoped(u64::MAX).unwrap());
        assert_eq!(free.memory_charged(), 0);
    }

    #[test]
    fn children_get_fresh_memory_counters_and_clamped_deadlines() {
        let b = Budget::builder()
            .deadline(Duration::from_millis(10))
            .max_memory_bytes(100)
            .build();
        b.try_charge_memory(90).unwrap();
        let child = b.child(Some(Duration::from_secs(60)));
        // Fresh counter: the parent's 90 bytes do not count here.
        assert!(child.try_charge_memory(90).is_ok());
        // Clamped: the child cannot outlive the parent's 10 ms.
        assert!(child.remaining().unwrap() <= Duration::from_millis(10));
    }

    #[test]
    fn child_with_memory_slices_and_clamps_the_cap() {
        let b = Budget::builder().max_memory_bytes(100).build();
        // A slice of the parent's cap.
        let slice = b.child_with_memory(None, Some(25));
        assert!(slice.try_charge_memory(25).is_ok());
        assert!(matches!(
            slice.try_charge_memory(1),
            Err(Error::BudgetExceeded {
                resource: Resource::Memory,
                ..
            })
        ));
        // A child cannot widen the parent's cap.
        let wide = b.child_with_memory(None, Some(1000));
        assert!(wide.try_charge_memory(101).is_err());
        // None inherits the parent's cap (same as `child`).
        let inherit = b.child_with_memory(None, None);
        assert!(inherit.try_charge_memory(100).is_ok());
        assert!(inherit.try_charge_memory(1).is_err());
        // An explicit cap on an uncapped parent takes effect.
        let capped = Budget::unlimited().child_with_memory(None, Some(10));
        assert!(capped.try_charge_memory(11).is_err());
        // Cancellation still reaches memory-sliced children.
        b.cancel();
        assert!(slice.check().is_err());
    }

    #[test]
    fn candidate_cap() {
        let b = Budget::builder().max_candidates(1000).build();
        assert!(b.check_candidates(1000).is_ok());
        assert!(matches!(
            b.check_candidates(1001),
            Err(Error::BudgetExceeded {
                resource: Resource::Candidates,
                spent: 1001,
                limit: 1000,
            })
        ));
    }

    #[test]
    fn cancel_at_poll_fires_on_that_check_for_children_too() {
        let b = Budget::builder().cancel_at_poll(3).build();
        let child = b.child(None);
        assert!(b.check().is_ok());
        assert!(child.check().is_ok());
        assert!(!b.is_cancelled());
        assert!(matches!(
            child.check(),
            Err(Error::BudgetExceeded {
                resource: Resource::Cancelled,
                ..
            })
        ));
        assert!(b.is_cancelled() && b.check().is_err());
    }

    #[test]
    fn ticker_polls_every_interval() {
        let b = Budget::builder()
            .deadline(Duration::from_secs(3600))
            .build();
        let mut ticker = b.ticker();
        for _ in 0..(POLL_INTERVAL * 3) {
            ticker.tick().unwrap();
        }
        b.cancel();
        // Within one poll interval the cancellation must surface.
        let mut seen = Err(());
        for _ in 0..POLL_INTERVAL {
            if ticker.tick().is_err() {
                seen = Ok(());
                break;
            }
        }
        seen.expect("cancellation observed within POLL_INTERVAL ticks");
    }

    #[test]
    fn tick_many_matches_individual_ticks() {
        // Count real checks via the candidate counter: each tick_many(n)
        // must schedule exactly the checks n tick()s would have.
        let b = Budget::builder()
            .deadline(Duration::from_secs(3600))
            .build();
        let mut a = b.ticker();
        let mut m = b.ticker();
        for steps in [0u64, 1, 1023, 1024, 1025, 5000, 3] {
            m.tick_many(steps).unwrap();
            for _ in 0..steps {
                a.tick().unwrap();
            }
            assert_eq!(a.countdown, m.countdown, "after batch of {steps}");
        }
        // Cancellation surfaces on the next real check, same as tick().
        b.cancel();
        assert!(m.tick_many(u64::from(POLL_INTERVAL)).is_err());
    }

    #[test]
    fn pool_leases_and_reclaims() {
        let pool = BudgetPool::new(100);
        assert_eq!(pool.total(), 100);
        assert_eq!(pool.available(), 100);
        let a = pool.try_lease(60, None).unwrap();
        assert_eq!(pool.leased(), 60);
        assert_eq!(pool.available(), 40);
        assert_eq!(a.bytes(), 60);
        // The leased budget enforces exactly its reservation.
        assert!(a.budget().try_charge_memory(60).is_ok());
        assert!(a.budget().try_charge_memory(1).is_err());
        // The pool cannot over-subscribe.
        let err = pool.try_lease(41, None).unwrap_err();
        assert!(matches!(
            err,
            Error::BudgetExceeded {
                resource: Resource::Memory,
                spent: 101,
                limit: 100,
            }
        ));
        // A smaller lease still fits, and dropping reclaims.
        let b = pool.try_lease(40, None).unwrap();
        assert_eq!(pool.available(), 0);
        drop(a);
        assert_eq!(pool.leased(), 40);
        drop(b);
        assert_eq!(pool.leased(), 0);
    }

    #[test]
    fn pool_lease_deadline_and_cancellation_on_drop() {
        let pool = BudgetPool::new(1 << 20);
        let lease = pool
            .try_lease(1024, Some(Duration::from_secs(3600)))
            .unwrap();
        assert!(lease.budget().remaining().unwrap() <= Duration::from_secs(3600));
        let escaped = lease.budget().clone();
        assert!(escaped.check().is_ok());
        drop(lease);
        // A clone that outlived the lease observes the cancellation.
        assert!(matches!(
            escaped.check(),
            Err(Error::BudgetExceeded {
                resource: Resource::Cancelled,
                ..
            })
        ));
    }

    #[test]
    fn pool_rejects_degenerate_and_overflowing_leases() {
        let pool = BudgetPool::new(u64::MAX);
        assert!(matches!(
            pool.try_lease(0, None),
            Err(Error::Overflow { .. })
        ));
        let _hold = pool.try_lease(u64::MAX, None).unwrap();
        // leased + bytes would wrap: checked, not wrapped.
        assert!(matches!(
            pool.try_lease(u64::MAX, None),
            Err(Error::Overflow { .. })
        ));
    }

    #[test]
    fn resource_display() {
        for (r, needle) in [
            (Resource::WallClock, "wall-clock"),
            (Resource::Memory, "memory"),
            (Resource::Candidates, "candidates"),
            (Resource::Cancelled, "cancelled"),
        ] {
            assert!(r.to_string().contains(needle));
        }
    }
}
