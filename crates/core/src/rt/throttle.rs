//! Task throttling (paper §5, "Task Throttling").
//!
//! Throttling bounds tasking memory/operational overheads by making the
//! producer stop producing and start *consuming* once a threshold is hit.
//! GCC and LLVM bound the number of **ready** tasks; the paper's runtime
//! additionally bounds the **total live** tasks (ready or not), which is the
//! meaningful bound for dependent tasks where many discovered tasks are not
//! yet ready. A tight ready-task bound cripples the depth-first scheduler's
//! vision of the graph — the ablation harness measures exactly that.

use super::ReadyTracker;

/// Throttling thresholds for an executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThrottleConfig {
    /// Maximum tasks in the ready state before the producer helps
    /// (GCC/LLVM-style). `None` = unbounded.
    pub max_ready: Option<usize>,
    /// Maximum live tasks — discovered but not yet completed — before the
    /// producer helps (MPC-OMP-style; paper default 10,000,000).
    pub max_live: Option<usize>,
}

impl ThrottleConfig {
    /// No throttling at all.
    pub fn unbounded() -> Self {
        ThrottleConfig {
            max_ready: None,
            max_live: None,
        }
    }

    /// The paper's MPC-OMP default: total-task bound of 10 million, no
    /// ready bound.
    pub fn mpc_default() -> Self {
        ThrottleConfig {
            max_ready: None,
            max_live: Some(10_000_000),
        }
    }

    /// A production-runtime-like tight ready bound (LLVM/GCC behaviour
    /// studied in §5); `bound` is typically a small multiple of the thread
    /// count.
    pub fn ready_bound(bound: usize) -> Self {
        ThrottleConfig {
            max_ready: Some(bound),
            max_live: None,
        }
    }

    /// Whether the producer must help given current counts.
    pub fn should_help(&self, ready: usize, live: usize) -> bool {
        self.max_ready.is_some_and(|m| ready > m) || self.max_live.is_some_and(|m| live > m)
    }
}

impl Default for ThrottleConfig {
    fn default() -> Self {
        ThrottleConfig::mpc_default()
    }
}

/// A [`ThrottleConfig`] bound to a [`ReadyTracker`]: the producer-side
/// decision point both back-ends consult before discovering more tasks.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThrottleGate {
    cfg: ThrottleConfig,
}

impl ThrottleGate {
    pub fn new(cfg: ThrottleConfig) -> Self {
        ThrottleGate { cfg }
    }

    /// The configured thresholds.
    pub fn config(&self) -> ThrottleConfig {
        self.cfg
    }

    /// Whether the producer must consume instead of produce right now.
    pub fn should_help(&self, tracker: &ReadyTracker) -> bool {
        self.cfg.should_help(tracker.ready(), tracker.live())
    }

    /// [`ThrottleGate::should_help`] for a producer that also holds
    /// `staged` ready tasks it has not yet published, `uncounted` of them
    /// not yet counted as created: the bounds apply to them as if they
    /// were published. Reads only the counters a bound is set for.
    pub fn should_help_staged(
        &self,
        tracker: &ReadyTracker,
        staged: usize,
        uncounted: usize,
    ) -> bool {
        self.cfg
            .max_ready
            .is_some_and(|m| tracker.ready() + staged > m)
            || self
                .cfg
                .max_live
                .is_some_and(|m| tracker.live() + uncounted > m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_helps() {
        let t = ThrottleConfig::unbounded();
        assert!(!t.should_help(usize::MAX, usize::MAX));
    }

    #[test]
    fn ready_bound_triggers_on_ready_only() {
        let t = ThrottleConfig::ready_bound(4);
        assert!(!t.should_help(4, 1_000_000));
        assert!(t.should_help(5, 0));
    }

    #[test]
    fn live_bound_triggers_on_live() {
        let t = ThrottleConfig {
            max_ready: None,
            max_live: Some(100),
        };
        assert!(!t.should_help(1_000, 100));
        assert!(t.should_help(0, 101));
    }

    #[test]
    fn mpc_default_matches_paper() {
        let t = ThrottleConfig::default();
        assert_eq!(t.max_live, Some(10_000_000));
        assert_eq!(t.max_ready, None);
    }

    #[test]
    fn gate_reads_tracker() {
        let gate = ThrottleGate::new(ThrottleConfig::ready_bound(1));
        let tracker = ReadyTracker::new();
        assert!(!gate.should_help(&tracker));
        tracker.created(2);
        tracker.became_ready();
        tracker.became_ready();
        assert!(gate.should_help(&tracker));
    }

    #[test]
    fn staged_tasks_count_against_the_bounds() {
        let tracker = ReadyTracker::new();
        tracker.created(2);
        tracker.became_ready();
        let ready = ThrottleGate::new(ThrottleConfig::ready_bound(2));
        assert!(!ready.should_help_staged(&tracker, 1, 1));
        assert!(ready.should_help_staged(&tracker, 2, 0));
        let live = ThrottleGate::new(ThrottleConfig {
            max_ready: None,
            max_live: Some(3),
        });
        assert!(!live.should_help_staged(&tracker, 5, 1));
        assert!(live.should_help_staged(&tracker, 0, 2));
    }
}
