//! Live/ready task accounting shared by both back-ends.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts of live (created, not completed) and ready (runnable, not
/// scheduled) tasks. Both back-ends drive their throttle and barrier
/// decisions off this one tracker, so the thresholds mean the same thing
/// in wall-clock and virtual time.
#[derive(Default)]
pub struct ReadyTracker {
    live: AtomicUsize,
    ready: AtomicUsize,
    created_total: AtomicUsize,
    live_hwm: AtomicUsize,
    ready_hwm: AtomicUsize,
}

impl ReadyTracker {
    pub fn new() -> Self {
        ReadyTracker::default()
    }

    /// `n` tasks were created (discovery or re-instancing).
    ///
    /// Relaxed: the increment is published to eventual completers through
    /// the ready-queue transfer of the tasks themselves (or, for a node
    /// counted just before its seal, through the seal's AcqRel token
    /// drop), and counter atomicity alone guarantees `live` cannot read 0
    /// while any created task has not completed — which is all
    /// `quiescent` relies on. A task must be counted before any thread
    /// can complete it; [`super::GraphInstance`] documents when that is.
    pub fn created(&self, n: usize) {
        self.created_total.fetch_add(n, Ordering::Relaxed);
        let live = self.live.fetch_add(n, Ordering::Relaxed) + n;
        raise_mark(&self.live_hwm, live);
    }

    /// A task became ready. (Relaxed: `ready` only steers throttling
    /// heuristics and statistics, never a safety decision.)
    pub fn became_ready(&self) {
        self.became_ready_n(1);
    }

    /// `n` tasks became ready at once: one RMW for a published batch.
    pub fn became_ready_n(&self, n: usize) {
        let ready = self.ready.fetch_add(n, Ordering::Relaxed) + n;
        raise_mark(&self.ready_hwm, ready);
    }

    /// A ready task was handed to a core.
    pub fn scheduled(&self) {
        self.ready.fetch_sub(1, Ordering::Relaxed);
    }

    /// A task finished; returns `true` if it was the last live task.
    ///
    /// AcqRel: the Release half publishes this task's side effects on the
    /// counter; because atomic RMWs extend release sequences, the thread
    /// that observes `live == 0` with an Acquire load synchronizes with
    /// *every* completing task, not just the final one — the guarantee
    /// `wait_all`/`taskwait` callers need before reading task outputs.
    /// The Acquire half orders successive completions among themselves.
    pub fn completed(&self) -> bool {
        let live = self.live.fetch_sub(1, Ordering::AcqRel);
        // A completion with nothing live means some creation was never
        // counted: the count would wrap and no barrier could end.
        debug_assert!(live != 0, "live task count wrapped below zero");
        live == 1
    }

    /// Current live count. (Acquire: pairs with the Release decrements in
    /// [`ReadyTracker::completed`]; see there.)
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Acquire)
    }

    /// Current ready count.
    pub fn ready(&self) -> usize {
        self.ready.load(Ordering::Relaxed)
    }

    /// No live tasks remain. Observing this synchronizes with every
    /// completed task (see [`ReadyTracker::completed`]).
    pub fn quiescent(&self) -> bool {
        self.live() == 0
    }

    /// Tasks ever created through this tracker.
    pub fn created_total(&self) -> usize {
        self.created_total.load(Ordering::Relaxed)
    }

    /// High-water mark of concurrently live tasks.
    pub fn live_hwm(&self) -> usize {
        self.live_hwm.load(Ordering::Relaxed)
    }

    /// High-water mark of concurrently ready (queued) tasks.
    pub fn ready_hwm(&self) -> usize {
        self.ready_hwm.load(Ordering::Relaxed)
    }
}

/// Raise the high-water mark `hwm` to `value`, paying the RMW only when
/// the mark would move. Exact: the mark only grows, so a load that
/// already reads `value` or more means it covers `value`; otherwise
/// `fetch_max` settles races between concurrent raisers.
fn raise_mark(hwm: &AtomicUsize, value: usize) {
    if hwm.load(Ordering::Relaxed) < value {
        hwm.fetch_max(value, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_counts() {
        let t = ReadyTracker::new();
        t.created(3);
        assert_eq!(t.live(), 3);
        t.became_ready();
        t.became_ready();
        assert_eq!(t.ready(), 2);
        t.scheduled();
        assert_eq!(t.ready(), 1);
        assert!(!t.completed());
        assert!(!t.completed());
        t.scheduled();
        assert!(t.completed());
        assert!(t.quiescent());
        assert_eq!(t.live_hwm(), 3);
        assert_eq!(t.ready_hwm(), 2);
        // Below the marks, nothing moves them; past them, they follow.
        t.created(2);
        t.became_ready();
        assert_eq!((t.live_hwm(), t.ready_hwm()), (3, 2));
        t.created(2);
        t.became_ready();
        t.became_ready();
        assert_eq!((t.live_hwm(), t.ready_hwm()), (4, 3));
        assert_eq!(t.created_total(), 7);
    }

    #[test]
    fn marks_are_exact_under_concurrent_raisers() {
        let t = ReadyTracker::new();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        t.created(1);
                        t.became_ready();
                    }
                });
            }
        });
        // Nothing completed: every creation raised the live count.
        assert_eq!(t.live_hwm(), 2000);
        assert_eq!(t.ready_hwm(), 2000);
    }
}
