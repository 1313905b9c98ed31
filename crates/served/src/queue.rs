//! The dynamic micro-batching queue.
//!
//! [`Batcher`] is the deterministic core: a bounded FIFO of pending jobs
//! with a *flush-at-N-tokens-or-T-ms* policy, whose N is the engine's
//! micro-batch budget ([`BatchConfig`]). It never looks at a wall
//! clock itself — every operation takes `now: Instant` — so the flush
//! policy is unit-testable without sleeping. The daemon wraps it in a
//! `Mutex`/`Condvar` pair ([`SharedBatcher`]): connection threads push and
//! notify, one dispatcher thread waits until a batch is due (budget reached
//! or the oldest job's deadline expired) and drains it.
//!
//! Batches preserve arrival order, and a drain cuts at the budget boundary
//! (leaving the overflow queued) so a burst becomes a train of full batches
//! rather than one unbounded one.

use doduo_serve::BatchConfig;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Flush deadline and bound of the batching queue (its flush budget is
/// the engine's, see [`Batcher::new`]).
#[derive(Clone, Debug)]
pub struct BatchPolicy {
    /// Flush when the oldest pending job has waited this long, even if no
    /// budget is met — the latency bound for isolated requests.
    pub max_delay: Duration,
    /// Upper bound on queued jobs; pushes beyond it are rejected
    /// (backpressure → HTTP 503).
    pub max_queue_jobs: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy { max_delay: Duration::from_millis(2), max_queue_jobs: 1024 }
    }
}

/// One queued job.
#[derive(Debug)]
struct Pending<T> {
    payload: T,
    seqs: usize,
    tokens: usize,
    arrived: Instant,
}

/// Why a batch was released.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushReason {
    /// A token or sequence budget was reached.
    Budget,
    /// The oldest job's deadline expired.
    Deadline,
    /// The queue was drained for shutdown.
    Shutdown,
}

/// The deterministic batching core (see module docs).
#[derive(Debug)]
pub struct Batcher<T> {
    policy: BatchPolicy,
    /// Flush once this many sequences are pending (tables in table-wise
    /// mode; a multi-table request contributes all of its sequences)...
    max_seqs: usize,
    /// ...or this many tokens.
    max_tokens: usize,
    pending: VecDeque<Pending<T>>,
    seqs: usize,
    tokens: usize,
}

impl<T> Batcher<T> {
    /// An empty queue under `policy` that flushes at `engine`'s
    /// micro-batch budget (`max_batch` sequences, `max_batch_tokens`
    /// tokens): the engine cuts its forward passes there anyway, so
    /// queuing more per flush would only add latency.
    pub fn new(policy: BatchPolicy, engine: &BatchConfig) -> Self {
        let (max_seqs, max_tokens) = (engine.max_batch, engine.max_batch_tokens);
        Batcher { policy, max_seqs, max_tokens, pending: VecDeque::new(), seqs: 0, tokens: 0 }
    }

    /// Queued job count.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Total queued tokens.
    pub fn tokens(&self) -> usize {
        self.tokens
    }

    /// Enqueues a job of `seqs` sequences / `tokens` total tokens. Returns
    /// the job back as `Err` when the queue is full.
    pub fn push(&mut self, payload: T, seqs: usize, tokens: usize, now: Instant) -> Result<(), T> {
        if self.pending.len() >= self.policy.max_queue_jobs {
            return Err(payload);
        }
        self.pending.push_back(Pending { payload, seqs, tokens, arrived: now });
        self.seqs += seqs;
        self.tokens += tokens;
        Ok(())
    }

    /// True when a budget is already met and a batch should flush now.
    pub fn budget_reached(&self) -> bool {
        self.seqs >= self.max_seqs || self.tokens >= self.max_tokens
    }

    /// The instant the oldest pending job must flush by (its arrival plus
    /// `max_delay`); `None` when empty.
    pub fn deadline(&self) -> Option<Instant> {
        self.pending.front().map(|p| p.arrived + self.policy.max_delay)
    }

    /// Releases the next batch if one is due at `now` (budget reached or
    /// deadline expired). The batch is cut at the budget boundary: jobs are
    /// taken in arrival order until sequence/token budgets are met, always
    /// at least one.
    pub fn take_due(&mut self, now: Instant) -> Option<(Vec<T>, FlushReason)> {
        if self.pending.is_empty() {
            return None;
        }
        let reason = if self.budget_reached() {
            FlushReason::Budget
        } else if self.deadline().is_some_and(|d| d <= now) {
            FlushReason::Deadline
        } else {
            return None;
        };
        Some((self.cut_batch(), reason))
    }

    /// Drains one batch unconditionally (shutdown path); `None` when empty.
    pub fn take_for_shutdown(&mut self) -> Option<(Vec<T>, FlushReason)> {
        if self.pending.is_empty() {
            return None;
        }
        Some((self.cut_batch(), FlushReason::Shutdown))
    }

    fn cut_batch(&mut self) -> Vec<T> {
        let mut out = Vec::new();
        let (mut seqs, mut tokens) = (0usize, 0usize);
        while let Some(front) = self.pending.front() {
            if !out.is_empty()
                && (seqs + front.seqs > self.max_seqs || tokens + front.tokens > self.max_tokens)
            {
                break;
            }
            let p = self.pending.pop_front().expect("front exists");
            seqs += p.seqs;
            tokens += p.tokens;
            self.seqs -= p.seqs;
            self.tokens -= p.tokens;
            out.push(p.payload);
        }
        out
    }
}

/// Why [`SharedBatcher::push`] rejected a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushRejected {
    /// The queue is at `max_queue_jobs` (backpressure).
    Full,
    /// The queue was closed for shutdown; nothing will drain new jobs.
    Closed,
}

/// [`Batcher`] behind a `Mutex`/`Condvar`: the runtime wrapper the daemon's
/// connection and dispatcher threads share. The `bool` beside the batcher
/// is the closed flag: read and written under the one lock, so no push
/// slips past a close and no close goes unseen by a waiting dispatcher.
pub struct SharedBatcher<T> {
    inner: Mutex<(Batcher<T>, bool)>,
    wake: Condvar,
}

impl<T> SharedBatcher<T> {
    /// Wraps an empty [`Batcher::new`] queue.
    pub fn new(policy: BatchPolicy, engine: &BatchConfig) -> Self {
        SharedBatcher {
            inner: Mutex::new((Batcher::new(policy, engine), false)),
            wake: Condvar::new(),
        }
    }

    /// Enqueues a job and wakes the dispatcher. A rejected push hands the
    /// payload back so callers under backpressure can retry it without
    /// rebuilding (or cloning) the job.
    pub fn push(&self, payload: T, seqs: usize, tokens: usize) -> Result<(), (PushRejected, T)> {
        let mut guard = self.inner.lock().expect("queue lock");
        // Checked under the queue lock, where the dispatcher also reads
        // it: a push that gets past this check is seen by the dispatcher's
        // final drain — no job is queued after it and left unanswered.
        let (queue, closed) = &mut *guard;
        if *closed {
            return Err((PushRejected::Closed, payload));
        }
        let r = queue.push(payload, seqs, tokens, Instant::now());
        drop(guard);
        match r {
            Ok(()) => {
                self.wake.notify_one();
                Ok(())
            }
            Err(payload) => Err((PushRejected::Full, payload)),
        }
    }

    /// Closes the queue: subsequent pushes are rejected with
    /// [`PushRejected::Closed`], and the dispatcher drains what was
    /// accepted without waiting for budgets or deadlines.
    pub fn close(&self) {
        self.inner.lock().expect("queue lock").1 = true;
        self.wake.notify_all();
    }

    /// Queued job count (for `/stats`).
    pub fn depth(&self) -> usize {
        self.inner.lock().expect("queue lock").0.len()
    }

    /// Dispatcher side: blocks until a batch is due or the queue is
    /// closed. Returns `None` once the queue is closed and — after a final
    /// drain — empty.
    pub fn wait_for_batch(&self) -> Option<(Vec<T>, FlushReason)> {
        let mut guard = self.inner.lock().expect("queue lock");
        loop {
            let (queue, closed) = &mut *guard;
            if *closed {
                return queue.take_for_shutdown();
            }
            let now = Instant::now();
            if let Some(batch) = queue.take_due(now) {
                return Some(batch);
            }
            guard = match queue.deadline() {
                // Nothing queued: sleep until a push or the close wakes us.
                None => self.wake.wait(guard).expect("lock"),
                Some(deadline) => {
                    let wait = deadline.saturating_duration_since(now);
                    self.wake.wait_timeout(guard, wait).expect("lock").0
                }
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batcher<T>(seqs: usize, tokens: usize, delay_ms: u64) -> Batcher<T> {
        let policy = BatchPolicy { max_delay: Duration::from_millis(delay_ms), max_queue_jobs: 8 };
        let engine =
            BatchConfig { max_batch: seqs, max_batch_tokens: tokens, ..Default::default() };
        Batcher::new(policy, &engine)
    }

    #[test]
    fn flushes_on_token_budget() {
        let t0 = Instant::now();
        let mut b: Batcher<u32> = batcher(100, 50, 1000);
        b.push(1, 1, 20, t0).unwrap();
        assert!(!b.budget_reached());
        assert_eq!(b.take_due(t0), None, "under budget and before deadline");
        b.push(2, 1, 20, t0).unwrap();
        assert_eq!(b.take_due(t0), None);
        b.push(3, 1, 20, t0).unwrap();
        assert!(b.budget_reached(), "60 tokens >= 50");
        let (batch, reason) = b.take_due(t0).expect("due");
        assert_eq!(reason, FlushReason::Budget);
        // The cut stops before the job that would overflow the budget, but
        // budget_reached uses totals, so all three jobs (20+20 <= 50, +20
        // crosses) split as [1, 2] then [3] on the next due check.
        assert_eq!(batch, vec![1, 2]);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn flushes_on_sequence_budget() {
        let t0 = Instant::now();
        let mut b: Batcher<u32> = batcher(4, 10_000, 1000);
        for i in 0..3 {
            b.push(i, 1, 5, t0).unwrap();
            assert_eq!(b.take_due(t0), None, "3 sequences < 4");
        }
        b.push(3, 2, 5, t0).unwrap();
        let (batch, reason) = b.take_due(t0).expect("due");
        assert_eq!(reason, FlushReason::Budget);
        assert_eq!(batch, vec![0, 1, 2]);
        assert_eq!(b.take_for_shutdown().expect("rest").0, vec![3]);
    }

    #[test]
    fn flushes_on_deadline() {
        let t0 = Instant::now();
        let mut b: Batcher<u32> = batcher(100, 1000, 10);
        b.push(1, 1, 5, t0).unwrap();
        b.push(2, 1, 5, t0 + Duration::from_millis(4)).unwrap();
        assert_eq!(b.deadline(), Some(t0 + Duration::from_millis(10)));
        assert_eq!(b.take_due(t0 + Duration::from_millis(9)), None, "before deadline");
        let (batch, reason) = b.take_due(t0 + Duration::from_millis(10)).expect("due");
        assert_eq!(reason, FlushReason::Deadline);
        assert_eq!(batch, vec![1, 2], "deadline flush takes everything under budget");
        assert!(b.is_empty());
    }

    #[test]
    fn oversized_job_flushes_alone() {
        let t0 = Instant::now();
        let mut b: Batcher<u32> = batcher(8, 50, 1000);
        b.push(1, 1, 500, t0).unwrap();
        let (batch, reason) = b.take_due(t0).expect("due");
        assert_eq!(reason, FlushReason::Budget);
        assert_eq!(batch, vec![1], "a job over budget still ships, alone");
    }

    #[test]
    fn preserves_arrival_order_under_interleaving() {
        let t0 = Instant::now();
        let mut b: Batcher<(u32, u32)> = batcher(100, 60, 1000);
        // Two "connections" interleave pushes; arrival order must be kept
        // within and across batches.
        for (i, conn) in [(0, 0), (1, 1), (2, 0), (3, 1), (4, 0), (5, 1)] {
            b.push((conn, i), 1, 10, t0 + Duration::from_micros(i as u64)).unwrap();
        }
        let mut order = Vec::new();
        while let Some((batch, _)) = b.take_for_shutdown() {
            assert!(batch.len() <= 6);
            order.extend(batch);
        }
        assert_eq!(order, vec![(0, 0), (1, 1), (0, 2), (1, 3), (0, 4), (1, 5)]);
    }

    #[test]
    fn bounded_queue_rejects_overflow() {
        let t0 = Instant::now();
        let mut b: Batcher<u32> = batcher(1000, 100_000, 1000);
        for i in 0..8 {
            b.push(i, 1, 1, t0).unwrap();
        }
        assert_eq!(b.push(99, 1, 1, t0), Err(99), "9th job bounces");
        assert_eq!(b.len(), 8);
    }

    #[test]
    fn dispatcher_takes_a_job_at_its_deadline_and_returns_on_close() {
        let delay = Duration::from_millis(20);
        let policy = BatchPolicy { max_delay: delay, max_queue_jobs: 8 };
        let queue = std::sync::Arc::new(SharedBatcher::new(policy, &BatchConfig::default()));
        let (tx, rx) = std::sync::mpsc::channel();
        let dispatcher = std::sync::Arc::clone(&queue);
        let handle = std::thread::spawn(move || {
            while let Some(batch) = dispatcher.wait_for_batch() {
                tx.send(Some((batch, Instant::now()))).expect("send");
            }
            tx.send(None).expect("send");
        });
        let within = Duration::from_secs(5);

        // Both checks hold whichever thread gets to the lock first; the
        // pauses make the dispatcher's blocked wait the likely case, which
        // is the one a lost wake-up would hang.
        std::thread::sleep(Duration::from_millis(30));
        let pushed = Instant::now();
        assert!(queue.push(7u32, 1, 1).is_ok());
        let ((batch, reason), taken) = rx.recv_timeout(within).expect("taken").expect("a batch");
        assert_eq!((batch, reason), (vec![7], FlushReason::Deadline));
        assert!(taken >= pushed + delay, "taken {:?} after the push", taken - pushed);

        std::thread::sleep(Duration::from_millis(30));
        let closed = Instant::now();
        queue.close();
        assert!(rx.recv_timeout(within).expect("returned").is_none(), "no batch after close");
        assert!(
            closed.elapsed() < Duration::from_secs(1),
            "returned {:?} after close",
            closed.elapsed()
        );
        assert!(matches!(queue.push(8, 1, 1), Err((PushRejected::Closed, 8))));
        handle.join().expect("dispatcher thread");
    }

    #[test]
    fn burst_becomes_budgeted_batch_train() {
        let t0 = Instant::now();
        let mut b: Batcher<u32> = batcher(2, 10_000, 0);
        for i in 0..7 {
            b.push(i, 1, 1, t0).unwrap();
        }
        let mut sizes = Vec::new();
        while let Some((batch, _)) = b.take_due(t0) {
            sizes.push(batch.len());
        }
        assert_eq!(sizes, vec![2, 2, 2, 1]);
    }
}
