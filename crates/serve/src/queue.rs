//! A bounded MPMC work queue on `std` primitives only.
//!
//! `push` blocks while the queue is full (backpressure: a producer cannot
//! race ahead of the pool), `pop` blocks while it is empty, and `close`
//! wakes everyone up so the pool can drain the remainder and exit. No
//! external channel crate — a `Mutex<VecDeque>` plus two condvars is all
//! the service needs.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a non-blocking push ([`FairQueue::try_push`](crate::FairQueue::try_push))
/// did not enqueue; the item comes back so the caller can respond to its
/// submitter (the edge turns these into typed rejections instead of
/// blocking the socket reader).
#[derive(Debug, PartialEq, Eq)]
pub enum TryPushError<T> {
    /// The queue was at capacity.
    Full(T),
    /// The queue was closed.
    Closed(T),
}

/// A bounded blocking FIFO shared by reference across threads.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    capacity: usize,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    /// An open queue holding at most `capacity` items (at least 1).
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                capacity: capacity.max(1),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Enqueues `item`, blocking while the queue is full. Returns the item
    /// back if the queue was closed before space appeared.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut inner = self.inner.lock().expect("queue lock never poisoned");
        loop {
            if inner.closed {
                return Err(item);
            }
            if inner.items.len() < inner.capacity {
                inner.items.push_back(item);
                self.not_empty.notify_one();
                return Ok(());
            }
            inner = self
                .not_full
                .wait(inner)
                .expect("queue lock never poisoned");
        }
    }

    /// Dequeues the oldest item, blocking while the queue is empty.
    /// Returns `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue lock never poisoned");
        loop {
            if let Some(item) = inner.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .not_empty
                .wait(inner)
                .expect("queue lock never poisoned");
        }
    }

    /// Closes the queue: future pushes fail, pops drain what remains and
    /// then return `None`.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("queue lock never poisoned");
        inner.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("queue lock never poisoned")
            .items
            .len()
    }

    /// Whether nothing is queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let q = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.push(3).unwrap();
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert!(q.is_empty());
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.push(7).unwrap();
        q.close();
        assert_eq!(q.push(8), Err(8), "closed queue rejects pushes");
        assert_eq!(q.pop(), Some(7), "remainder drains");
        assert_eq!(q.pop(), None, "then the end is signalled");
    }

    #[test]
    fn push_blocks_until_pop_frees_a_slot() {
        let q = BoundedQueue::new(1);
        q.push(1).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| q.push(2).unwrap());
            // The consumer frees the slot; the blocked producer proceeds.
            assert_eq!(q.pop(), Some(1));
            assert_eq!(q.pop(), Some(2));
        });
    }

    /// Many producers and consumers racing through a tiny queue: every
    /// item pushed is popped exactly once and no consumer hangs — a
    /// lost `not_empty` wakeup would deadlock the scope, a lost
    /// `not_full` wakeup would deadlock a producer.
    #[test]
    fn barrier_race_no_lost_wakeups_or_items() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Barrier;
        const PRODUCERS: usize = 8;
        const CONSUMERS: usize = 8;
        const PER_PRODUCER: u64 = 500;
        let q = BoundedQueue::new(2);
        let barrier = Barrier::new(PRODUCERS + CONSUMERS);
        let popped_count = AtomicU64::new(0);
        let popped_sum = AtomicU64::new(0);
        std::thread::scope(|s| {
            for p in 0..PRODUCERS as u64 {
                let (q, barrier) = (&q, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    for i in 0..PER_PRODUCER {
                        q.push(p * PER_PRODUCER + i).expect("queue open");
                    }
                });
            }
            for _ in 0..CONSUMERS {
                let (q, barrier) = (&q, &barrier);
                let (count, sum) = (&popped_count, &popped_sum);
                s.spawn(move || {
                    barrier.wait();
                    while let Some(v) = q.pop() {
                        count.fetch_add(1, Ordering::Relaxed);
                        sum.fetch_add(v, Ordering::Relaxed);
                    }
                });
            }
            // A watcher closes the queue once every item has been
            // consumed (by then every push has returned), releasing the
            // consumers from their final blocking pop.
            let (q, count) = (&q, &popped_count);
            s.spawn(move || {
                let total = (PRODUCERS as u64) * PER_PRODUCER;
                while count.load(Ordering::Relaxed) < total {
                    std::thread::yield_now();
                }
                q.close();
            });
        });
        let total = (PRODUCERS as u64) * PER_PRODUCER;
        assert_eq!(
            popped_count.load(std::sync::atomic::Ordering::Relaxed),
            total
        );
        // Sum pins exactly-once delivery: values are distinct 0..total.
        assert_eq!(
            popped_sum.load(std::sync::atomic::Ordering::Relaxed),
            total * (total - 1) / 2
        );
        assert!(q.is_empty());
    }

    /// Closing while producers and consumers race: nothing is silently
    /// dropped. Every item is either consumed or handed back to its
    /// producer by the failed `push`, and the two tallies account for
    /// all of them.
    #[test]
    fn barrier_race_close_drops_nothing() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Barrier;
        const PRODUCERS: usize = 6;
        const PER_PRODUCER: u64 = 400;
        let q = BoundedQueue::new(4);
        let barrier = Barrier::new(PRODUCERS + 2);
        let consumed = AtomicU64::new(0);
        let returned = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..PRODUCERS {
                let (q, barrier, returned) = (&q, &barrier, &returned);
                s.spawn(move || {
                    barrier.wait();
                    for i in 0..PER_PRODUCER {
                        if q.push(i).is_err() {
                            // Closed: the item came back; count it and
                            // every remaining one we never attempted.
                            returned.fetch_add(PER_PRODUCER - i, Ordering::Relaxed);
                            return;
                        }
                    }
                });
            }
            {
                let (q, barrier, consumed) = (&q, &barrier, &consumed);
                s.spawn(move || {
                    barrier.wait();
                    while q.pop().is_some() {
                        consumed.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            let (q, barrier) = (&q, &barrier);
            s.spawn(move || {
                barrier.wait();
                // Let the race develop, then slam the door mid-traffic.
                std::thread::sleep(std::time::Duration::from_millis(2));
                q.close();
            });
        });
        let total = (PRODUCERS as u64) * PER_PRODUCER;
        assert_eq!(
            consumed.load(Ordering::Relaxed) + returned.load(Ordering::Relaxed),
            total,
            "every item was either consumed or returned to its producer"
        );
        assert_eq!(q.pop(), None, "closed and fully drained");
    }

    /// All producers blocked at a barrier push into an already-closed
    /// queue: each gets its own item back, none are lost or mixed up.
    #[test]
    fn barrier_race_push_after_close_returns_the_item() {
        use std::sync::Barrier;
        const PRODUCERS: u64 = 8;
        let q = BoundedQueue::new(2);
        let barrier = Barrier::new(PRODUCERS as usize);
        q.close();
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let (q, barrier) = (&q, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    assert_eq!(q.push(p), Err(p), "own item handed back");
                });
            }
        });
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_blocks_until_push_or_close() {
        let q = BoundedQueue::new(1);
        std::thread::scope(|s| {
            let h = s.spawn(|| q.pop());
            q.push(42).unwrap();
            assert_eq!(h.join().unwrap(), Some(42));
            let h = s.spawn(|| q.pop());
            q.close();
            assert_eq!(h.join().unwrap(), None);
        });
    }
}
