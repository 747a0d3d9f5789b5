//! Aggregated kernel counters.
//!
//! One flat struct of saturating totals both back-ends fill from the same
//! kernel sources: discovery statistics from the engine, queue-depth
//! high-water marks from the [`crate::rt::ReadyTracker`], hold-gate and
//! throttle stalls, persistent-graph reuse, and communication posts. Where
//! the paper reports a mechanism (Fig. 2 edge counts, §5 throttling,
//! Table 1 non-overlapped holds, §4 re-instancing), there is a counter
//! here that measures it.

use crate::graph::DiscoveryStats;

/// Kernel counters of one run (or one rank of one run).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RtCounters {
    /// Tasks materialized (discovery + persistent re-instancing).
    pub tasks_created: u64,
    /// Tasks completed.
    pub tasks_completed: u64,
    /// High-water mark of the ready count (queue depth).
    pub ready_hwm: u64,
    /// High-water mark of the live (created, not completed) count.
    pub live_hwm: u64,
    /// Edges materialized by discovery.
    pub edges_created: u64,
    /// Edges pruned against completed predecessors.
    pub edges_pruned: u64,
    /// Duplicate-edge probes (optimization (b) lookups).
    pub dup_probes: u64,
    /// Duplicate edges elided by optimization (b).
    pub dup_skipped: u64,
    /// Redirect nodes inserted by optimization (c).
    pub redirect_nodes: u64,
    /// `depend` items processed.
    pub depend_items: u64,
    /// Times the producer hit a throttle bound (and stalled or helped).
    pub throttle_stalls: u64,
    /// Nanoseconds the producer spent stalled or helping under throttle.
    pub throttle_stall_ns: u64,
    /// Ready tasks withheld by the non-overlapped hold gate.
    pub gate_held: u64,
    /// Persistent-graph re-instancings served from the captured template
    /// (iterations that paid no discovery).
    pub persistent_reuses: u64,
    /// Communication operations posted.
    pub comms_posted: u64,
    /// Communication requests that completed (matched / reduced). Equal
    /// to `comms_posted` on a well-formed run; forced completions from
    /// deadlock resolution still count, the accompanying `CommError` is
    /// the signal that they were not real matches.
    pub comms_completed: u64,
    /// Total nanoseconds between posting a request and its completion,
    /// summed over requests (post-to-match latency mass).
    pub comm_wait_ns: u64,
    /// Messages that arrived before their receive was posted and had to
    /// be parked in the unexpected-message queue. Backend-specific
    /// diagnostic: the threads engine also routes collective round
    /// messages through the mailboxes, the DES network does not, so this
    /// is *not* part of the cross-backend equivalence contract.
    pub unexpected_msgs: u64,
    /// Steal probes against other cores' deques (thread back-end: the
    /// lock-free steal loop; simulator: victim scans).
    pub steal_attempts: u64,
    /// Steal probes that came back with a task.
    pub steal_successes: u64,
    /// Times an idle thread blocked on the scheduler eventcount
    /// (thread back-end only; the simulator never parks).
    pub parks: u64,
    /// Times a parked thread woke.
    pub unparks: u64,
    /// Lifecycle events captured by the recorder.
    pub events_recorded: u64,
    /// Events dropped on ring overflow (0 in a trustworthy trace).
    pub events_dropped: u64,
    /// Self-measured recorder overhead estimate, nanoseconds.
    pub trace_overhead_ns: u64,
}

impl RtCounters {
    /// Absorb discovery statistics: the edge, probe, redirect and
    /// depend-item counters. `tasks_created` stays the tracker's, which
    /// counts every created task (discovered and re-instanced).
    pub fn absorb_discovery(&mut self, d: &DiscoveryStats) {
        self.edges_created += d.edges_created;
        self.edges_pruned += d.edges_pruned;
        self.dup_probes += d.dup_probes;
        self.dup_skipped += d.dup_skipped;
        self.redirect_nodes += d.redirect_nodes;
        self.depend_items += d.depend_items;
    }

    /// Merge another counter set (sums; `max` for high-water marks).
    pub fn merge(&mut self, o: &RtCounters) {
        self.tasks_created += o.tasks_created;
        self.tasks_completed += o.tasks_completed;
        self.ready_hwm = self.ready_hwm.max(o.ready_hwm);
        self.live_hwm = self.live_hwm.max(o.live_hwm);
        self.edges_created += o.edges_created;
        self.edges_pruned += o.edges_pruned;
        self.dup_probes += o.dup_probes;
        self.dup_skipped += o.dup_skipped;
        self.redirect_nodes += o.redirect_nodes;
        self.depend_items += o.depend_items;
        self.throttle_stalls += o.throttle_stalls;
        self.throttle_stall_ns += o.throttle_stall_ns;
        self.gate_held += o.gate_held;
        self.persistent_reuses += o.persistent_reuses;
        self.comms_posted += o.comms_posted;
        self.comms_completed += o.comms_completed;
        self.comm_wait_ns += o.comm_wait_ns;
        self.unexpected_msgs += o.unexpected_msgs;
        self.steal_attempts += o.steal_attempts;
        self.steal_successes += o.steal_successes;
        self.parks += o.parks;
        self.unparks += o.unparks;
        self.events_recorded += o.events_recorded;
        self.events_dropped += o.events_dropped;
        self.trace_overhead_ns += o.trace_overhead_ns;
    }

    /// All counters as `(name, value)` pairs in a stable order (the
    /// exporters' uniform surface).
    pub fn pairs(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("tasks_created", self.tasks_created),
            ("tasks_completed", self.tasks_completed),
            ("ready_hwm", self.ready_hwm),
            ("live_hwm", self.live_hwm),
            ("edges_created", self.edges_created),
            ("edges_pruned", self.edges_pruned),
            ("dup_probes", self.dup_probes),
            ("dup_skipped", self.dup_skipped),
            ("redirect_nodes", self.redirect_nodes),
            ("depend_items", self.depend_items),
            ("throttle_stalls", self.throttle_stalls),
            ("throttle_stall_ns", self.throttle_stall_ns),
            ("gate_held", self.gate_held),
            ("persistent_reuses", self.persistent_reuses),
            ("comms_posted", self.comms_posted),
            ("comms_completed", self.comms_completed),
            ("comm_wait_ns", self.comm_wait_ns),
            ("unexpected_msgs", self.unexpected_msgs),
            ("steal_attempts", self.steal_attempts),
            ("steal_successes", self.steal_successes),
            ("parks", self.parks),
            ("unparks", self.unparks),
            ("events_recorded", self.events_recorded),
            ("events_dropped", self.events_dropped),
            ("trace_overhead_ns", self.trace_overhead_ns),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = RtCounters {
            tasks_created: 10,
            ready_hwm: 4,
            live_hwm: 9,
            throttle_stalls: 1,
            ..Default::default()
        };
        let b = RtCounters {
            tasks_created: 5,
            ready_hwm: 7,
            live_hwm: 3,
            comms_posted: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.tasks_created, 15);
        assert_eq!(a.ready_hwm, 7, "hwm merges by max");
        assert_eq!(a.live_hwm, 9);
        assert_eq!(a.comms_posted, 2);
        assert_eq!(a.throttle_stalls, 1);
    }

    #[test]
    fn discovery_stats_are_absorbed() {
        let mut c = RtCounters::default();
        c.absorb_discovery(&DiscoveryStats {
            tasks: 100,
            redirect_nodes: 3,
            depend_items: 250,
            edges_created: 180,
            edges_pruned: 7,
            dup_probes: 90,
            dup_skipped: 12,
        });
        assert_eq!(c.tasks_created, 0, "the tracker's to count");
        assert_eq!(c.edges_created, 180);
        assert_eq!(c.dup_skipped, 12);
        assert_eq!(c.pairs().len(), 25, "every field is exported");
    }
}
