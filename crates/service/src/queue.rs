//! A bounded MPMC job queue with non-blocking admission and blocking
//! consumption: submitters never wait (a full queue is an admission
//! decision, answered `429`), workers park on a condvar until a job or
//! shutdown arrives.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use crate::lock::recover;

/// Why [`JobQueue::try_push`] refused an item.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the item is handed back.
    Full(T),
    /// The queue is shut down; the item is handed back.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Bounded FIFO queue shared between connection handlers (producers) and
/// job workers (consumers).
pub struct JobQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> JobQueue<T> {
    /// An empty queue holding at most `capacity` items.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        JobQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues without blocking.
    ///
    /// # Errors
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`JobQueue::close`]; both return the item.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = recover(self.inner.lock());
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until an item is available or the queue closes. `None` means
    /// closed *and* drained — workers exit on it.
    pub fn pop(&self) -> Option<T> {
        let mut inner = recover(self.inner.lock());
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = recover(self.ready.wait(inner));
        }
    }

    /// Items currently waiting (excludes jobs already claimed by workers).
    #[must_use]
    pub fn depth(&self) -> usize {
        recover(self.inner.lock()).items.len()
    }

    /// Closes the queue: future pushes fail, and once drained every blocked
    /// and future [`JobQueue::pop`] returns `None`.
    pub fn close(&self) {
        recover(self.inner.lock()).closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_fifo_and_capacity() {
        let q = JobQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn close_drains_then_wakes_blocked_consumers() {
        let q = Arc::new(JobQueue::new(4));
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8), Err(PushError::Closed(8)));
        // The queued item is still delivered; only then does pop report
        // closure.
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), None);

        let q2 = Arc::new(JobQueue::<u32>::new(1));
        let waiter = {
            let q2 = Arc::clone(&q2);
            std::thread::spawn(move || q2.pop())
        };
        // Give the waiter a moment to park, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q2.close();
        assert_eq!(waiter.join().unwrap(), None);
    }

    #[test]
    fn contended_producers_and_consumers_preserve_every_item() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let q = JobQueue::new(8);
        let total: usize = 200;
        let pushed = AtomicUsize::new(0);
        let consumed: Vec<usize> = std::thread::scope(|scope| {
            for t in 0..4usize {
                let (q, pushed) = (&q, &pushed);
                scope.spawn(move || {
                    for i in 0..total / 4 {
                        let mut item = t * 1000 + i;
                        loop {
                            match q.try_push(item) {
                                Ok(()) => break,
                                Err(PushError::Full(back)) => {
                                    item = back;
                                    std::thread::yield_now();
                                }
                                Err(PushError::Closed(_)) => panic!("closed early"),
                            }
                        }
                        pushed.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    let q = &q;
                    scope.spawn(move || {
                        let mut seen = Vec::new();
                        while let Some(item) = q.pop() {
                            seen.push(item);
                        }
                        seen
                    })
                })
                .collect();
            // Close only after every producer has accounted for its items.
            while pushed.load(Ordering::Relaxed) < total {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            q.close();
            consumers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect()
        });
        let mut consumed = consumed;
        consumed.sort_unstable();
        consumed.dedup();
        assert_eq!(consumed.len(), total);
    }
}
