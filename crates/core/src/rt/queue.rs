//! Ready-task queues implementing the paper's two scheduling heuristics.
//!
//! The *placement and steal order* — depth-first locality vs
//! breadth-first discovery order — is the policy; the storage behind it
//! is a Chase–Lev [`WorkDeque`] per core plus a segmented lock-free
//! [`Injector`] FIFO. Owner push/pop never contends, thieves and
//! producers are lock-free.
//!
//! Both back-ends run on these lanes. The DES simulator stays
//! deterministic because its driver is single-threaded: with one thread,
//! pop order is a pure function of the push/pop sequence (pinned by the
//! unit tests below and by the sequential-model proptest in
//! `tests/scheduler_stress.rs`).

use super::deque::{Steal, WorkDeque};
use super::injector::Injector;
use super::probe::RtProbe;
use crate::task::TaskId;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Queue elements that can name the task they carry, so
/// [`ReadyQueues::pop_with`] can narrate scheduling through a probe.
/// The thread executor queues [`super::NodeRef`]s; the simulator queues
/// raw node indices.
pub trait TaskKey {
    fn task_id(&self) -> TaskId;
}

impl TaskKey for super::NodeRef {
    fn task_id(&self) -> TaskId {
        self.id
    }
}

impl TaskKey for u32 {
    fn task_id(&self) -> TaskId {
        TaskId(*self)
    }
}

/// Scheduling heuristic for ready tasks (paper §2.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Newly-ready successors go to the completing core's local LIFO deque
    /// (data-reuse locality); other cores steal from the FIFO end.
    #[default]
    DepthFirst,
    /// One global FIFO queue: tasks run roughly in discovery order.
    BreadthFirst,
}

/// Per-core local deques plus a global queue, policy-driven. The thread
/// executor stores pooled [`super::NodeRef`]s; the simulator stores node indices —
/// the *placement and steal order* is the shared policy, the element type
/// is not.
///
/// # Ownership contract
///
/// `push(item, Some(c))` under depth-first targets core `c`'s Chase–Lev
/// deque, whose bottom end is single-owner: it must only be called from
/// the thread that also issues `pop(Some(c))`. The executor satisfies
/// this by construction — local pushes happen exclusively inside
/// `run_task` on the completing worker itself; producers, the hold gate
/// and persistent publishing all push with `local = None` (the
/// injector, which is MPMC). The simulator's single-threaded driver
/// satisfies it trivially.
pub struct ReadyQueues<T> {
    policy: SchedPolicy,
    injector: Injector<T>,
    local: Vec<WorkDeque<T>>,
    /// Cached element count so `len`/`is_empty` diagnostics and the
    /// throttle/wait loops never sweep the lanes. Incremented
    /// *before* the push and decremented *after* a successful pop, so
    /// the count may transiently over-report but never under-reports a
    /// queued task — idle loops that see 0 here can trust it.
    count: AtomicUsize,
    /// Steal telemetry (Relaxed: monotone stats, no ordering role).
    steal_attempts: AtomicU64,
    steal_successes: AtomicU64,
}

impl<T> ReadyQueues<T> {
    /// Queues for `n_cores` cores under `policy`.
    pub fn new_lock_free(policy: SchedPolicy, n_cores: usize) -> Self {
        ReadyQueues {
            policy,
            injector: Injector::new(),
            local: (0..n_cores).map(|_| WorkDeque::new()).collect(),
            count: AtomicUsize::new(0),
            steal_attempts: AtomicU64::new(0),
            steal_successes: AtomicU64::new(0),
        }
    }

    pub fn policy(&self) -> SchedPolicy {
        self.policy
    }

    fn n_cores(&self) -> usize {
        self.local.len()
    }

    /// Enqueue a ready task. Under depth-first, a task made ready by core
    /// `local` lands on that core's deque (LIFO side); everything else —
    /// breadth-first, or producer-made-ready tasks — goes to the global
    /// FIFO. See the ownership contract in the type docs.
    pub fn push(&self, item: T, local: Option<usize>) {
        // Count up before the element is visible: a concurrent observer
        // may over-count, never under-count (see `count` docs). Relaxed:
        // the increment reaches any popper through the queue transfer
        // itself (it precedes the push in program order, and the pop that
        // later decrements happens-after the push), so the counter can
        // never go negative; no other ordering is relied on.
        self.count.fetch_add(1, Ordering::Relaxed);
        match (self.policy, local) {
            (SchedPolicy::DepthFirst, Some(c)) if c < self.n_cores() => self.local[c].push(item),
            _ => self.injector.push(item),
        }
    }

    /// Enqueue a batch of producer-made-ready tasks into the global FIFO,
    /// in order: one count bump for the batch, then the injector pushes
    /// back to back. Same ordering argument as [`ReadyQueues::push`] —
    /// the count rises before any element of the batch is visible.
    pub fn push_batch(&self, items: impl ExactSizeIterator<Item = T>) {
        self.count.fetch_add(items.len(), Ordering::Relaxed);
        for item in items {
            self.injector.push(item);
        }
    }

    /// Dequeue for core `worker`. Returns the task and whether it was
    /// *stolen* from another core's deque (the simulator charges a steal
    /// penalty). Depth-first order: own deque LIFO, then global FIFO, then
    /// round-robin steal from other cores' FIFO ends.
    pub fn pop(&self, worker: Option<usize>) -> Option<(T, bool)> {
        let popped = self.pop_inner(worker);
        if popped.is_some() {
            self.count.fetch_sub(1, Ordering::Relaxed);
        }
        popped
    }

    fn pop_inner(&self, worker: Option<usize>) -> Option<(T, bool)> {
        if self.policy == SchedPolicy::DepthFirst {
            if let Some(w) = worker {
                if w < self.n_cores() {
                    if let Some(item) = self.local[w].pop() {
                        return Some((item, false));
                    }
                }
            }
        }
        if let Some(item) = self.injector.pop() {
            return Some((item, false));
        }
        if self.policy == SchedPolicy::DepthFirst {
            let n = self.n_cores();
            let start = worker.map_or(0, |w| w + 1);
            for i in 0..n {
                let victim = (start + i) % n;
                if Some(victim) == worker {
                    continue;
                }
                // Retry the victim while the steal aborts on a CAS race —
                // an abort means someone else took an element, so the
                // deque may still hold more.
                loop {
                    self.steal_attempts.fetch_add(1, Ordering::Relaxed);
                    match self.local[victim].steal() {
                        Steal::Success(item) => {
                            self.steal_successes.fetch_add(1, Ordering::Relaxed);
                            return Some((item, true));
                        }
                        Steal::Abort => continue,
                        Steal::Empty => break,
                    }
                }
            }
        }
        None
    }

    /// [`ReadyQueues::pop`] narrated through a probe: emits
    /// `task_scheduled` for the dequeued task. A `None` worker (the
    /// producer helping out) reports core `n_cores` — the producer lane.
    pub fn pop_with(
        &self,
        worker: Option<usize>,
        probe: &dyn RtProbe,
        now_ns: u64,
    ) -> Option<(T, bool)>
    where
        T: TaskKey,
    {
        let popped = self.pop(worker)?;
        if probe.lifecycle_enabled() {
            let core = worker.unwrap_or(self.n_cores());
            probe.task_scheduled(popped.0.task_id(), core, now_ns);
        }
        Some(popped)
    }

    /// Total queued tasks (diagnostics). O(1): reads the cached count.
    /// May transiently over-report while a push is in flight; a zero is
    /// authoritative.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(steal_attempts, steal_successes)` since construction.
    pub fn steal_stats(&self) -> (u64, u64) {
        (
            self.steal_attempts.load(Ordering::Relaxed),
            self.steal_successes.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_first_local_is_lifo() {
        let q = ReadyQueues::new_lock_free(SchedPolicy::DepthFirst, 2);
        q.push(1, Some(0));
        q.push(2, Some(0));
        assert_eq!(q.pop(Some(0)), Some((2, false)));
        assert_eq!(q.pop(Some(0)), Some((1, false)));
        assert_eq!(q.pop(Some(0)), None);
    }

    #[test]
    fn depth_first_steals_fifo_side() {
        let q = ReadyQueues::new_lock_free(SchedPolicy::DepthFirst, 2);
        q.push(1, Some(0));
        q.push(2, Some(0));
        assert_eq!(q.pop(Some(1)), Some((1, true)), "steal oldest");
        let (attempts, successes) = q.steal_stats();
        assert!(attempts >= 1);
        assert_eq!(successes, 1);
    }

    #[test]
    fn global_before_steal() {
        let q = ReadyQueues::new_lock_free(SchedPolicy::DepthFirst, 2);
        q.push(1, Some(0));
        q.push(9, None);
        assert_eq!(q.pop(Some(1)), Some((9, false)), "global FIFO first");
        assert_eq!(q.pop(Some(1)), Some((1, true)));
    }

    #[test]
    fn breadth_first_is_one_fifo() {
        let q = ReadyQueues::new_lock_free(SchedPolicy::BreadthFirst, 4);
        q.push(1, Some(3));
        q.push(2, Some(0));
        q.push(3, None);
        assert_eq!(q.pop(Some(2)), Some((1, false)));
        assert_eq!(q.pop(None), Some((2, false)));
        assert_eq!(q.pop(Some(0)), Some((3, false)));
    }

    #[test]
    fn cached_len_tracks_pushes_and_pops() {
        let q = ReadyQueues::new_lock_free(SchedPolicy::DepthFirst, 2);
        assert!(q.is_empty());
        q.push(1, Some(0));
        q.push(2, None);
        q.push(3, Some(1));
        assert_eq!(q.len(), 3);
        q.pop(Some(0));
        assert_eq!(q.len(), 2);
        while q.pop(Some(0)).is_some() {}
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn push_batch_is_fifo_and_counted() {
        for policy in [SchedPolicy::DepthFirst, SchedPolicy::BreadthFirst] {
            let q = ReadyQueues::new_lock_free(policy, 2);
            q.push(1, None);
            q.push_batch([2, 3, 4].into_iter());
            assert_eq!(q.len(), 4);
            let order: Vec<_> = std::iter::from_fn(|| q.pop(Some(1)).map(|(v, _)| v)).collect();
            assert_eq!(order, vec![1, 2, 3, 4], "{policy:?}");
            assert!(q.is_empty());
        }
    }

    #[test]
    fn producer_pop_drains_all_lanes() {
        let q = ReadyQueues::new_lock_free(SchedPolicy::DepthFirst, 3);
        q.push(1, Some(0));
        q.push(2, Some(2));
        q.push(3, None);
        let mut got = Vec::new();
        while let Some((v, _)) = q.pop(None) {
            got.push(v);
        }
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3]);
    }
}
