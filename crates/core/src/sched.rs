//! The off-path housekeeping scheduler.
//!
//! Puts never execute compaction or dump work inline: flush threads and
//! readers *enqueue* jobs on a bounded queue drained by a small worker
//! pool (`housekeeping_threads`). The queue being bounded is the
//! backpressure contract — a full queue stalls the (background) submitter
//! and bumps `core.housekeeping.stalls`, it never stalls a put. Reader
//! nudges are strictly best-effort: on a full queue they are dropped and
//! counted (`core.housekeeping.sync_dropped`), which is safe because the
//! flush path syncs every index anyway.

use cachekv_obs::{Counter, Gauge};
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One unit of background work.
pub(crate) enum Job {
    /// Bring `core`'s sub-skiplist up to date — only if the core still
    /// runs the sealed generation (`epoch`) the nudge was issued for.
    SyncCore { core: usize, epoch: u64 },
    /// One housekeeping round: SC fold + (maybe) the L0 dump.
    Round,
    /// Worker shutdown.
    Stop,
}

/// Bounded job queue + dedupe state shared between submitters and the
/// worker pool.
pub(crate) struct Scheduler {
    tx: Sender<Job>,
    rx: Receiver<Job>,
    /// At most one `Round` queued at a time: flush completions arrive in
    /// bursts and one round covers them all.
    round_pending: AtomicBool,
    queue_depth: Arc<Gauge>,
    stalls: Arc<Counter>,
    sync_dropped: Arc<Counter>,
}

impl Scheduler {
    pub(crate) fn new(
        cap: usize,
        queue_depth: Arc<Gauge>,
        stalls: Arc<Counter>,
        sync_dropped: Arc<Counter>,
    ) -> Scheduler {
        let (tx, rx) = bounded(cap.max(1));
        Scheduler {
            tx,
            rx,
            round_pending: AtomicBool::new(false),
            queue_depth,
            stalls,
            sync_dropped,
        }
    }

    /// A receiver handle for one worker.
    pub(crate) fn receiver(&self) -> Receiver<Job> {
        self.rx.clone()
    }

    /// Queue a housekeeping round, deduped. Called from flush threads and
    /// stalled writers; may block on a full queue (that is backpressure on
    /// the *flush* pipeline, by design — never on a put's hot path).
    pub(crate) fn submit_round(&self) {
        if self.round_pending.swap(true, Ordering::AcqRel) {
            return;
        }
        match self.tx.try_send(Job::Round) {
            Ok(()) => self.queue_depth.inc(),
            Err(TrySendError::Full(job)) => {
                self.stalls.inc();
                if self.tx.send(job).is_ok() {
                    self.queue_depth.inc();
                }
            }
            Err(TrySendError::Disconnected(_)) => {}
        }
    }

    /// A worker dequeued a `Round` and is about to run it; clear the latch
    /// *before* the round so a flush landing mid-round queues the next one.
    pub(crate) fn take_round(&self) {
        self.round_pending.store(false, Ordering::Release);
    }

    /// Queue a per-core index sync. Never blocks (callers sit on put/get
    /// hot paths); returns false when the nudge was dropped.
    pub(crate) fn submit_sync(&self, core: usize, epoch: u64) -> bool {
        match self.tx.try_send(Job::SyncCore { core, epoch }) {
            Ok(()) => {
                self.queue_depth.inc();
                true
            }
            Err(TrySendError::Full(_)) => {
                self.sync_dropped.inc();
                false
            }
            Err(TrySendError::Disconnected(_)) => false,
        }
    }

    /// A worker dequeued a countable job.
    pub(crate) fn note_dequeue(&self) {
        self.queue_depth.dec();
    }

    /// Shut the pool down: one `Stop` per worker (uncounted in the depth
    /// gauge; workers drain the queue ahead of them first).
    pub(crate) fn stop(&self, workers: usize) {
        for _ in 0..workers {
            let _ = self.tx.send(Job::Stop);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachekv_obs::Registry;

    fn sched(cap: usize) -> (Scheduler, Registry) {
        let reg = Registry::new();
        let s = Scheduler::new(
            cap,
            reg.gauge("q"),
            reg.counter("stalls"),
            reg.counter("dropped"),
        );
        (s, reg)
    }

    #[test]
    fn round_submissions_dedupe() {
        let (s, _reg) = sched(16);
        s.submit_round();
        s.submit_round();
        s.submit_round();
        let rx = s.receiver();
        assert!(matches!(rx.try_recv(), Ok(Job::Round)));
        s.note_dequeue();
        s.take_round();
        assert!(rx.try_recv().is_err(), "duplicate rounds were queued");
        // After take_round a new round can queue again.
        s.submit_round();
        assert!(matches!(rx.try_recv(), Ok(Job::Round)));
    }

    #[test]
    fn sync_nudges_drop_on_full_queue() {
        let (s, reg) = sched(2);
        assert!(s.submit_sync(0, 1));
        assert!(s.submit_sync(1, 1));
        assert!(!s.submit_sync(2, 1), "queue full: nudge must drop");
        assert_eq!(reg.export().counters["dropped"], 1);
        assert_eq!(reg.export().gauges["q"], 2);
    }

    #[test]
    fn stop_delivers_one_per_worker() {
        let (s, _reg) = sched(8);
        s.stop(2);
        let rx = s.receiver();
        assert!(matches!(rx.try_recv(), Ok(Job::Stop)));
        assert!(matches!(rx.try_recv(), Ok(Job::Stop)));
        assert!(rx.try_recv().is_err());
    }
}
