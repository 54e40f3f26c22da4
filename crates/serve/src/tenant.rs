//! Multi-tenant admission: per-tenant quotas and fair dequeue.
//!
//! The edge serves many tenants over one bounded queue. Two mechanisms
//! keep a noisy tenant from starving the rest:
//!
//! - a [`QuotaLedger`] caps each tenant's *in-flight* requests (admitted
//!   but not yet answered) — admission beyond the cap is shed with a
//!   typed rejection, never queued;
//! - a [`FairQueue`] holds one FIFO per tenant and dequeues round-robin
//!   across tenants with pending work, so a tenant that filled its whole
//!   quota still only gets one dispatch slot per rotation.
//!
//! Both are wall-domain scheduling devices: they decide *which* requests
//! run and in what order, never what any request computes. Within one
//! tenant, FIFO order is preserved.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Condvar, Mutex};

/// Why [`FairQueue::try_push`] did not enqueue; the item comes back so
/// the caller can respond to its submitter (the edge turns these into
/// typed rejections instead of blocking the socket reader).
#[derive(Debug, PartialEq, Eq)]
pub enum TryPushError<T> {
    /// The queue was at capacity.
    Full(T),
    /// The queue was closed.
    Closed(T),
}

/// Caps each tenant's in-flight requests. `admit` and `release` bracket
/// a request's whole edge lifetime (admission to response write).
#[derive(Debug)]
pub struct QuotaLedger {
    max_in_flight: usize,
    in_flight: Mutex<HashMap<u32, usize>>,
}

impl QuotaLedger {
    /// A ledger allowing each tenant at most `max_in_flight` admitted,
    /// unanswered requests (at least 1).
    pub fn new(max_in_flight: usize) -> QuotaLedger {
        QuotaLedger {
            max_in_flight: max_in_flight.max(1),
            in_flight: Mutex::new(HashMap::new()),
        }
    }

    /// Tries to charge one slot to `tenant`. `false` means over quota —
    /// the caller sheds the request and must *not* call `release`.
    pub fn admit(&self, tenant: u32) -> bool {
        let mut m = self.in_flight.lock().expect("ledger lock never poisoned");
        let n = m.entry(tenant).or_insert(0);
        if *n >= self.max_in_flight {
            return false;
        }
        *n += 1;
        true
    }

    /// Returns `tenant`'s slot after its request was answered (completed
    /// or shed post-admission).
    pub fn release(&self, tenant: u32) {
        let mut m = self.in_flight.lock().expect("ledger lock never poisoned");
        match m.get_mut(&tenant) {
            Some(n) if *n > 0 => *n -= 1,
            _ => debug_assert!(false, "release without matching admit"),
        }
    }

    /// `tenant`'s current in-flight count.
    pub fn in_flight(&self, tenant: u32) -> usize {
        *self
            .in_flight
            .lock()
            .expect("ledger lock never poisoned")
            .get(&tenant)
            .unwrap_or(&0)
    }
}

/// A bounded MPMC queue that is FIFO *per tenant* and round-robin
/// *across* tenants. Push never blocks (overload is the caller's signal
/// to shed); pop blocks until an item or close.
#[derive(Debug)]
pub struct FairQueue<T> {
    inner: Mutex<FairInner<T>>,
    not_empty: Condvar,
}

#[derive(Debug)]
struct FairInner<T> {
    /// Per-tenant FIFOs (only tenants with pending items have entries).
    queues: BTreeMap<u32, VecDeque<T>>,
    /// Dequeue rotation: tenants with pending work, oldest turn first.
    rotation: VecDeque<u32>,
    len: usize,
    capacity: usize,
    closed: bool,
}

impl<T> FairQueue<T> {
    /// An open queue holding at most `capacity` items across all tenants.
    pub fn new(capacity: usize) -> FairQueue<T> {
        FairQueue {
            inner: Mutex::new(FairInner {
                queues: BTreeMap::new(),
                rotation: VecDeque::new(),
                len: 0,
                capacity: capacity.max(1),
                closed: false,
            }),
            not_empty: Condvar::new(),
        }
    }

    /// Enqueues `item` for `tenant` if the queue has room, never
    /// blocking — a full queue is [`TryPushError::Full`], the caller's
    /// cue to shed with a typed rejection.
    pub fn try_push(&self, tenant: u32, item: T) -> Result<(), TryPushError<T>> {
        let mut inner = self.inner.lock().expect("queue lock never poisoned");
        if inner.closed {
            return Err(TryPushError::Closed(item));
        }
        if inner.len >= inner.capacity {
            return Err(TryPushError::Full(item));
        }
        let q = inner.queues.entry(tenant).or_default();
        let newly_pending = q.is_empty();
        q.push_back(item);
        inner.len += 1;
        if newly_pending {
            inner.rotation.push_back(tenant);
        }
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the next item fairly: the tenant at the head of the
    /// rotation yields one item and goes to the back (if it still has
    /// work). Blocks while empty; `None` once closed *and* drained.
    pub fn pop(&self) -> Option<(u32, T)> {
        let mut inner = self.inner.lock().expect("queue lock never poisoned");
        loop {
            if let Some(tenant) = inner.rotation.pop_front() {
                let q = inner
                    .queues
                    .get_mut(&tenant)
                    .expect("rotation tenant has a queue");
                let item = q.pop_front().expect("rotation tenant has an item");
                if q.is_empty() {
                    inner.queues.remove(&tenant);
                } else {
                    inner.rotation.push_back(tenant);
                }
                inner.len -= 1;
                return Some((tenant, item));
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

    /// Closes the queue: future pushes fail, pops drain the remainder
    /// (still fairly) and then return `None`.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("queue lock never poisoned");
        inner.closed = true;
        self.not_empty.notify_all();
    }

    /// Items currently queued across all tenants.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue lock never poisoned").len
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
    fn ledger_caps_in_flight_per_tenant() {
        let l = QuotaLedger::new(2);
        assert!(l.admit(7));
        assert!(l.admit(7));
        assert!(!l.admit(7), "third concurrent request is over quota");
        assert!(l.admit(9), "other tenants unaffected");
        l.release(7);
        assert!(l.admit(7), "slot freed by the response");
        assert_eq!(l.in_flight(7), 2);
        assert_eq!(l.in_flight(9), 1);
        assert_eq!(l.in_flight(1), 0);
    }

    #[test]
    fn fair_queue_is_fifo_per_tenant_round_robin_across() {
        let q = FairQueue::new(16);
        // Tenant 1 floods; tenant 2 trickles in behind the flood.
        for i in 0..4 {
            q.try_push(1, (1, i)).unwrap();
        }
        q.try_push(2, (2, 0)).unwrap();
        q.try_push(2, (2, 1)).unwrap();
        let order: Vec<(u32, (u32, u32))> =
            std::iter::from_fn(|| if q.is_empty() { None } else { q.pop() }).collect();
        assert_eq!(
            order,
            vec![
                (1, (1, 0)),
                (2, (2, 0)),
                (1, (1, 1)),
                (2, (2, 1)),
                (1, (1, 2)),
                (1, (1, 3)),
            ],
            "tenants alternate; within a tenant, FIFO"
        );
    }

    #[test]
    fn fair_queue_sheds_on_full_and_closed() {
        let q = FairQueue::new(2);
        q.try_push(1, "a").unwrap();
        q.try_push(2, "b").unwrap();
        assert_eq!(q.try_push(3, "c"), Err(TryPushError::Full("c")));
        q.close();
        assert_eq!(q.try_push(1, "d"), Err(TryPushError::Closed("d")));
        assert_eq!(q.pop(), Some((1, "a")), "drains fairly after close");
        assert_eq!(q.pop(), Some((2, "b")));
        assert_eq!(q.pop(), None);
    }

    /// Many producers and consumers racing through a tiny queue: every
    /// item pushed is popped exactly once and no consumer hangs — a lost
    /// `not_empty` wakeup would deadlock the scope. Producers retry on
    /// `Full`, the way a caller that must not shed would.
    #[test]
    fn barrier_race_no_lost_wakeups_or_items() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Barrier;
        const PRODUCERS: usize = 8;
        const CONSUMERS: usize = 8;
        const PER_PRODUCER: u64 = 500;
        let q = FairQueue::new(2);
        let barrier = Barrier::new(PRODUCERS + CONSUMERS);
        let popped_count = AtomicU64::new(0);
        let popped_sum = AtomicU64::new(0);
        let total = (PRODUCERS as u64) * PER_PRODUCER;
        std::thread::scope(|s| {
            for p in 0..PRODUCERS as u64 {
                let (q, barrier) = (&q, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    for i in 0..PER_PRODUCER {
                        let mut item = p * PER_PRODUCER + i;
                        loop {
                            match q.try_push(p as u32, item) {
                                Ok(()) => break,
                                Err(TryPushError::Full(back)) => {
                                    item = back;
                                    std::thread::yield_now();
                                }
                                Err(TryPushError::Closed(_)) => panic!("queue open"),
                            }
                        }
                    }
                });
            }
            for _ in 0..CONSUMERS {
                let (q, barrier) = (&q, &barrier);
                let (count, sum) = (&popped_count, &popped_sum);
                s.spawn(move || {
                    barrier.wait();
                    while let Some((_, v)) = q.pop() {
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
                while count.load(Ordering::Relaxed) < total {
                    std::thread::yield_now();
                }
                q.close();
            });
        });
        assert_eq!(popped_count.load(Ordering::Relaxed), total);
        // Sum pins exactly-once delivery: values are distinct 0..total.
        assert_eq!(popped_sum.load(Ordering::Relaxed), total * (total - 1) / 2);
        assert!(q.is_empty());
    }

    /// Closing while producers and consumers race: nothing is silently
    /// dropped. Every item is either consumed or handed back to its
    /// producer through `TryPushError::Closed`, and the two tallies
    /// account for all of them.
    #[test]
    fn barrier_race_close_drops_nothing() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Barrier;
        const PRODUCERS: usize = 6;
        const PER_PRODUCER: u64 = 400;
        let q = FairQueue::new(4);
        let barrier = Barrier::new(PRODUCERS + 2);
        let consumed = AtomicU64::new(0);
        let returned = AtomicU64::new(0);
        std::thread::scope(|s| {
            for p in 0..PRODUCERS as u32 {
                let (q, barrier, returned) = (&q, &barrier, &returned);
                s.spawn(move || {
                    barrier.wait();
                    let mut i = 0;
                    while i < PER_PRODUCER {
                        match q.try_push(p, i) {
                            Ok(()) => i += 1,
                            Err(TryPushError::Full(_)) => std::thread::yield_now(),
                            Err(TryPushError::Closed(back)) => {
                                assert_eq!(back, i, "own item handed back");
                                // Count it and every remaining one we
                                // never attempted.
                                returned.fetch_add(PER_PRODUCER - i, Ordering::Relaxed);
                                return;
                            }
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
        const PRODUCERS: u32 = 8;
        let q = FairQueue::new(2);
        let barrier = Barrier::new(PRODUCERS as usize);
        q.close();
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let (q, barrier) = (&q, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    assert_eq!(
                        q.try_push(p, p),
                        Err(TryPushError::Closed(p)),
                        "own item handed back"
                    );
                });
            }
        });
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fair_queue_pop_blocks_until_push_or_close() {
        let q = FairQueue::new(4);
        std::thread::scope(|s| {
            let h = s.spawn(|| q.pop());
            q.try_push(5, 42).unwrap();
            assert_eq!(h.join().unwrap(), Some((5, 42)));
            let h = s.spawn(|| q.pop());
            q.close();
            assert_eq!(h.join().unwrap(), None);
        });
    }
}
