//! Poisoned-lock recovery.
//!
//! A `std` lock is *poisoned* when a thread panics while holding it, and
//! every later `lock()` returns an error. Unwrapping that error would turn
//! one panicking job into a panic on every thread that touches the same
//! lock — the HTTP threads, the job workers, the recovery thread — and
//! break `accepted == completed + failed`. The service instead recovers
//! every guard through [`recover`], on purpose, because each state it
//! guards is consistent at every point a panic can leave it:
//!
//! - **queue** ([`crate::queue::JobQueue`]): a push, a pop and the `closed`
//!   flag are each one `VecDeque` or `bool` update; a panicking holder has
//!   either made its update or not.
//! - **jobs** ([`crate::job::JobStore`]): inserts and removes are single
//!   map operations, and an update assigns a whole new `JobState` whose
//!   value is built before the assignment, so every record always holds a
//!   complete state.
//! - **tables**: the registry map only sees whole inserts and removes, and
//!   each release cache only whole `Option<Arc<…>>` assignments.
//! - **pool**: the HTTP threads share one connection receiver; holding it
//!   only waits in `recv`, which mutates nothing of ours.
//! - **metrics** ([`crate::metrics::Metrics`]): counters and gauges that
//!   are advisory; a half-finished update leaves valid numbers.
//!
//! The one guarded state a panic can leave inconsistent is a table's open
//! store: a writer that panics inside `apply` may have appended to the WAL
//! without finishing its in-memory update. The table's writer lock is
//! recovered too, but the table is quarantined in the same step, so it
//! answers `503` with a structured error until an operator deletes it,
//! and `/healthz` reports it (see `tables.rs`).

use std::sync::{LockResult, PoisonError};

/// The guard of a lock result, recovered when the lock is poisoned. See
/// the module docs for why that is sound for every lock in the service.
pub(crate) fn recover<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Condvar, Mutex, RwLock};

    #[test]
    fn a_mutex_poisoned_on_another_thread_still_locks() {
        let shared = Arc::new(Mutex::new(vec![1, 2]));
        let poisoner = Arc::clone(&shared);
        let joined = std::thread::spawn(move || {
            let mut guard = poisoner.lock().unwrap();
            guard.push(3);
            panic!("injected panic while holding the lock");
        })
        .join();
        assert!(joined.is_err(), "the poisoning thread panicked");
        assert!(shared.is_poisoned());
        let mut guard = recover(shared.lock());
        // The update made before the panic is there, and the guard works.
        assert_eq!(*guard, vec![1, 2, 3]);
        guard.push(4);
        drop(guard);
        assert_eq!(recover(shared.lock()).len(), 4);
    }

    #[test]
    fn condvar_and_rwlock_guards_recover_too() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let poisoner = Arc::clone(&pair);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.0.lock().unwrap();
            panic!("injected panic while holding the lock");
        })
        .join();
        let (lock, ready) = &*pair;
        let guard = recover(lock.lock());
        let (guard, timeout) = recover(ready.wait_timeout(guard, std::time::Duration::ZERO));
        assert!(timeout.timed_out());
        assert!(!*guard);

        let cache = Arc::new(RwLock::new(Some(7)));
        let poisoner = Arc::clone(&cache);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.write().unwrap();
            panic!("injected panic while holding the lock");
        })
        .join();
        assert_eq!(*recover(cache.read()), Some(7));
        *recover(cache.write()) = None;
        assert_eq!(*recover(cache.read()), None);
    }
}
