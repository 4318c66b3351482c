//! Bounded MPMC job queue with explicit rejection.
//!
//! The serving admission path must never buffer unboundedly: when workers
//! fall behind, callers get an immediate `QueueFull` and the request is
//! shed with a 503-style record instead of growing the heap. The vendored
//! crossbeam shim only provides unbounded channels, so the bounded queue is
//! hand-built on `Mutex<VecDeque>` + `Condvar` — adequate for the batch
//! sizes here, where workers drain whole batches per wakeup and the lock is
//! taken once per batch rather than once per item.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Rejection returned by [`BoundedQueue::try_push`]; carries the item back
/// so the caller can answer the request with a shed response.
#[derive(Debug)]
pub struct QueueFull<T>(pub T);

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Rejections of pushes that found the queue at capacity — the counter
    /// behind the CI gate's "no shed without queue-full" proof. Kept apart
    /// from `rejected_closed` so a shutdown race can never masquerade as
    /// legitimate overload shedding.
    rejected_full: u64,
    /// Rejections of pushes that arrived after [`BoundedQueue::close`]
    /// (read through [`BoundedQueue::rejections`]).
    rejected_closed: u64,
}

/// A fixed-capacity multi-producer multi-consumer queue.
pub struct BoundedQueue<T> {
    cap: usize,
    state: Mutex<State<T>>,
    nonempty: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `cap` items (`cap ≥ 1`).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "queue capacity must be at least 1");
        BoundedQueue {
            cap,
            state: Mutex::new(State {
                items: VecDeque::with_capacity(cap.min(1024)),
                closed: false,
                rejected_full: 0,
                rejected_closed: 0,
            }),
            nonempty: Condvar::new(),
        }
    }

    /// Enqueue without blocking.
    ///
    /// # Errors
    /// Returns the item back when the queue is at capacity or closed.
    pub fn try_push(&self, item: T) -> Result<(), QueueFull<T>> {
        let mut s = self.state.lock().expect("queue poisoned");
        if s.closed {
            s.rejected_closed += 1;
            return Err(QueueFull(item));
        }
        if s.items.len() >= self.cap {
            s.rejected_full += 1;
            return Err(QueueFull(item));
        }
        s.items.push_back(item);
        drop(s);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Block until at least one item is available, then drain up to `max`
    /// items in FIFO order. Returns `None` once the queue is closed *and*
    /// empty — the worker-loop exit condition.
    pub fn pop_batch(&self, max: usize) -> Option<Vec<T>> {
        let mut s = self.state.lock().expect("queue poisoned");
        while s.items.is_empty() {
            if s.closed {
                return None;
            }
            s = self.nonempty.wait(s).expect("queue poisoned");
        }
        let take = max.max(1).min(s.items.len());
        Some(s.items.drain(..take).collect())
    }

    /// Close the queue: future pushes are rejected, blocked consumers drain
    /// what remains and then observe `None`.
    pub fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.nonempty.notify_all();
    }

    /// Items currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue poisoned").items.len()
    }

    /// Whether the queue is currently empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `try_push` rejections that found the queue at capacity.
    #[must_use]
    pub fn rejected_full(&self) -> u64 {
        self.state.lock().expect("queue poisoned").rejected_full
    }

    /// Total `try_push` rejections so far (full + closed).
    #[must_use]
    pub fn rejections(&self) -> u64 {
        let s = self.state.lock().expect("queue poisoned");
        s.rejected_full + s.rejected_closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_fifo() {
        let q = BoundedQueue::new(4);
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop_batch(3).unwrap(), vec![0, 1, 2]);
        assert_eq!(q.pop_batch(3).unwrap(), vec![3]);
    }

    #[test]
    fn full_queue_rejects_and_counts() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let QueueFull(back) = q.try_push(3).unwrap_err();
        assert_eq!(back, 3);
        assert_eq!(q.rejected_full(), 1);
        assert_eq!(q.rejections(), 1, "nothing was rejected as closed");
        // Draining frees capacity again.
        q.pop_batch(1).unwrap();
        q.try_push(3).unwrap();
        assert_eq!(q.rejected_full(), 1);
    }

    #[test]
    fn closed_rejections_count_separately_from_full() {
        let q = BoundedQueue::new(1);
        q.try_push(1).unwrap();
        assert!(q.try_push(2).is_err()); // full
        q.close();
        assert!(q.try_push(3).is_err()); // closed (queue still holds 1 item)
        assert_eq!(q.rejected_full(), 1);
        assert_eq!(q.rejections(), 2, "one full rejection and one closed");
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.try_push(7).unwrap();
        q.close();
        assert!(q.try_push(8).is_err());
        assert_eq!(q.pop_batch(8).unwrap(), vec![7]);
        assert!(q.pop_batch(8).is_none());
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop_batch(1));
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert_eq!(h.join().unwrap(), None);
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        let q = Arc::new(BoundedQueue::new(64));
        let total = std::sync::atomic::AtomicU64::new(0);
        let popped = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let q = Arc::clone(&q);
                let total = &total;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        let v = t * 1000 + i;
                        loop {
                            match q.try_push(v) {
                                Ok(()) => {
                                    total.fetch_add(v, std::sync::atomic::Ordering::Relaxed);
                                    break;
                                }
                                Err(_) => std::thread::yield_now(),
                            }
                        }
                    }
                });
            }
            for _ in 0..2 {
                let q = Arc::clone(&q);
                let popped = &popped;
                s.spawn(move || {
                    while let Some(batch) = q.pop_batch(16) {
                        for v in batch {
                            popped.fetch_add(v, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                });
            }
            // Give producers time to finish, then close.
            loop {
                if total.load(std::sync::atomic::Ordering::Relaxed) == (0..4000u64).sum::<u64>() {
                    break;
                }
                std::thread::yield_now();
            }
            q.close();
        });
        assert_eq!(
            popped.load(std::sync::atomic::Ordering::Relaxed),
            (0..4000u64).sum::<u64>()
        );
    }
}
