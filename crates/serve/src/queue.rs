//! The bounded churn queue between connection threads and the analysis
//! worker.
//!
//! Producers [`push`](ChurnQueue::push) one [`SessionOp`] each and get a
//! [`Ticket`] back; the single consumer drains up to `batch_max` ops at
//! a time with [`take_batch`](ChurnQueue::take_batch) and fulfills every
//! drained ticket with the shared [`BatchSummary`]. Two properties the
//! daemon's guarantees rest on:
//!
//! * **Backpressure, not loss** — a full queue blocks the producer (up
//!   to its deadline) instead of dropping; an op is either rejected
//!   *before* acceptance (queue full past the deadline, queue closed) or
//!   applied. There is no accepted-then-dropped state.
//! * **Close-then-drain** — [`close`](ChurnQueue::close) stops new
//!   pushes immediately but leaves everything already accepted for the
//!   consumer, which sees `None` only once the queue is both closed and
//!   empty. Shutdown therefore loses nothing.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use separ_core::SessionOp;

/// What the analysis worker reports back for one drained batch.
#[derive(Debug, Clone)]
pub enum BatchOutcome {
    /// The batch was analyzed and its delta published.
    Done(Arc<BatchSummary>),
    /// Analysis failed; no op in the batch took effect.
    Failed(Arc<str>),
}

/// Summary of one coalesced analysis pass, shared by every ticket in the
/// batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSummary {
    /// Ops folded into this pass.
    pub ops: usize,
    /// Policies added by the pass.
    pub added: usize,
    /// Policies retired by the pass.
    pub removed: usize,
    /// Signatures re-synthesized.
    pub signatures_rerun: usize,
    /// Policy-set size after the pass.
    pub policies: usize,
}

/// A producer's handle on its enqueued op's outcome.
#[derive(Debug, Clone)]
pub struct Ticket(Arc<(Mutex<Option<BatchOutcome>>, Condvar)>);

impl Ticket {
    fn new() -> Ticket {
        Ticket(Arc::new((Mutex::new(None), Condvar::new())))
    }

    fn fulfill(&self, outcome: BatchOutcome) {
        let (slot, cv) = &*self.0;
        *slot.lock().expect("ticket lock") = Some(outcome);
        cv.notify_all();
    }

    /// Waits until the op's batch has been analyzed, or until `deadline`
    /// elapses. `None` means the wait timed out — the op is still
    /// accepted and **will** be applied; only the confirmation is
    /// forfeited.
    pub fn wait(&self, deadline: Duration) -> Option<BatchOutcome> {
        let (slot, cv) = &*self.0;
        let mut guard = slot.lock().expect("ticket lock");
        let start = Instant::now();
        while guard.is_none() {
            let remaining = deadline.checked_sub(start.elapsed())?;
            let (g, timeout) = cv.wait_timeout(guard, remaining).expect("ticket wait");
            guard = g;
            if timeout.timed_out() && guard.is_none() {
                return None;
            }
        }
        guard.clone()
    }
}

/// Why a push was rejected (the op was **not** accepted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PushError {
    /// The queue stayed full past the producer's deadline.
    Backpressure,
    /// The queue is closed (daemon shutting down).
    Closed,
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Backpressure => f.write_str("queue full (backpressure deadline elapsed)"),
            PushError::Closed => f.write_str("service shutting down"),
        }
    }
}

struct Inner {
    ops: VecDeque<(SessionOp, Ticket)>,
    closed: bool,
}

/// The bounded multi-producer single-consumer churn queue.
pub struct ChurnQueue {
    inner: Mutex<Inner>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    backpressure_waits: AtomicU64,
}

impl ChurnQueue {
    /// A queue admitting at most `capacity` pending ops.
    pub fn new(capacity: usize) -> ChurnQueue {
        ChurnQueue {
            inner: Mutex::new(Inner {
                ops: VecDeque::with_capacity(capacity.max(1)),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            backpressure_waits: AtomicU64::new(0),
        }
    }

    /// Current number of pending (accepted, not yet drained) ops.
    pub fn depth(&self) -> usize {
        self.inner.lock().expect("queue lock").ops.len()
    }

    /// Pushes that found the queue full and had to wait, since
    /// construction (whether or not the wait ended in acceptance).
    pub fn backpressure_waits(&self) -> u64 {
        self.backpressure_waits.load(Ordering::Relaxed)
    }

    /// Enqueues `op`, blocking while the queue is full for at most
    /// `deadline`.
    ///
    /// # Errors
    ///
    /// [`PushError::Backpressure`] if the queue stayed full past the
    /// deadline, [`PushError::Closed`] if the daemon is shutting down.
    /// In both cases the op was not accepted.
    pub fn push(&self, op: SessionOp, deadline: Duration) -> Result<Ticket, PushError> {
        let mut inner = self.inner.lock().expect("queue lock");
        let start = Instant::now();
        let mut waited = false;
        loop {
            if inner.closed {
                return Err(PushError::Closed);
            }
            if inner.ops.len() < self.capacity {
                break;
            }
            if !waited {
                waited = true;
                self.backpressure_waits.fetch_add(1, Ordering::Relaxed);
            }
            let Some(remaining) = deadline.checked_sub(start.elapsed()) else {
                return Err(PushError::Backpressure);
            };
            let (guard, timeout) = self
                .not_full
                .wait_timeout(inner, remaining)
                .expect("queue wait");
            inner = guard;
            if timeout.timed_out() && inner.ops.len() >= self.capacity {
                return Err(if inner.closed {
                    PushError::Closed
                } else {
                    PushError::Backpressure
                });
            }
        }
        let ticket = Ticket::new();
        inner.ops.push_back((op, ticket.clone()));
        self.not_empty.notify_one();
        Ok(ticket)
    }

    /// Blocks until at least one op is pending, then drains up to `max`
    /// of them, returned as the ops (for the analysis pass to consume)
    /// and their tickets, in the same order. Returns `None` only when the
    /// queue is closed **and** empty — the drain contract shutdown relies
    /// on.
    pub fn take_batch(&self, max: usize) -> Option<(Vec<SessionOp>, Vec<Ticket>)> {
        let mut inner = self.inner.lock().expect("queue lock");
        while inner.ops.is_empty() {
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).expect("queue wait");
        }
        let n = inner.ops.len().min(max.max(1));
        let batch = inner.ops.drain(..n).unzip();
        self.not_full.notify_all();
        Some(batch)
    }

    /// Rejects all future pushes; already-accepted ops stay queued for
    /// the consumer to drain.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("queue lock");
        inner.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Fulfills every ticket of a drained batch with the shared outcome.
pub fn fulfill_batch(tickets: &[Ticket], outcome: &BatchOutcome) {
    for ticket in tickets {
        ticket.fulfill(outcome.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn op(package: &str) -> SessionOp {
        SessionOp::Uninstall(package.to_string())
    }

    #[test]
    fn push_take_fulfill_round_trip() {
        let q = ChurnQueue::new(4);
        let t1 = q.push(op("a"), Duration::from_secs(1)).expect("accepted");
        let t2 = q.push(op("b"), Duration::from_secs(1)).expect("accepted");
        assert_eq!(q.depth(), 2);
        let (ops, tickets) = q.take_batch(16).expect("batch");
        assert_eq!((ops.len(), tickets.len()), (2, 2));
        let summary = Arc::new(BatchSummary {
            ops: 2,
            added: 0,
            removed: 0,
            signatures_rerun: 0,
            policies: 0,
        });
        fulfill_batch(&tickets, &BatchOutcome::Done(Arc::clone(&summary)));
        for t in [t1, t2] {
            match t.wait(Duration::from_secs(1)) {
                Some(BatchOutcome::Done(s)) => assert_eq!(*s, *summary),
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
    }

    #[test]
    fn full_queue_applies_backpressure_until_drained() {
        let q = Arc::new(ChurnQueue::new(1));
        q.push(op("a"), Duration::from_secs(1)).expect("accepted");
        assert_eq!(q.backpressure_waits(), 0);
        // Immediate deadline: rejected, not dropped-after-accept.
        assert_eq!(
            q.push(op("b"), Duration::ZERO).unwrap_err(),
            PushError::Backpressure
        );
        assert_eq!(q.backpressure_waits(), 1);
        // A consumer draining concurrently unblocks the producer.
        let q2 = Arc::clone(&q);
        let drainer = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            q2.take_batch(1).expect("batch")
        });
        q.push(op("c"), Duration::from_secs(5)).expect("unblocked");
        drainer.join().expect("drainer");
        assert_eq!(q.depth(), 1);
        // One count per push that waited, however often it woke.
        assert!(q.backpressure_waits() <= 2);
    }

    #[test]
    fn close_rejects_new_pushes_but_drains_accepted_ones() {
        let q = ChurnQueue::new(4);
        q.push(op("a"), Duration::from_secs(1)).expect("accepted");
        q.close();
        assert_eq!(
            q.push(op("b"), Duration::from_secs(1)).unwrap_err(),
            PushError::Closed
        );
        // The accepted op is still there...
        let (ops, _) = q.take_batch(16).expect("accepted op survives close");
        assert_eq!(ops.len(), 1);
        // ...and only then does the consumer see end-of-queue.
        assert!(q.take_batch(16).is_none());
    }

    #[test]
    fn ticket_wait_times_out_without_losing_the_op() {
        let q = ChurnQueue::new(4);
        let t = q.push(op("a"), Duration::from_secs(1)).expect("accepted");
        assert!(t.wait(Duration::from_millis(10)).is_none());
        // The op is still queued; a late fulfillment still lands.
        let (_, tickets) = q.take_batch(16).expect("batch");
        fulfill_batch(
            &tickets,
            &BatchOutcome::Done(Arc::new(BatchSummary {
                ops: 1,
                added: 0,
                removed: 0,
                signatures_rerun: 0,
                policies: 0,
            })),
        );
        assert!(matches!(
            t.wait(Duration::from_secs(1)),
            Some(BatchOutcome::Done(_))
        ));
    }
}
