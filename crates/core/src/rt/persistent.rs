//! Persistent graph re-instancing — optimization (p), shared kernel side.
//!
//! A [`PersistentInstance`] materializes a captured [`GraphTemplate`] into
//! live [`RtNode`]s exactly once; every later iteration reuses the same
//! nodes and the same successor lists. `begin_iteration` re-arms each node
//! to `indegree + 1` — the extra unit is a *visibility token* — and
//! [`PersistentInstance::publish`] drops tokens in whatever batching the
//! back-end chooses: the thread executor publishes everything at once, the
//! simulator publishes [`REINSTANCE_BATCH`]-sized chunks so re-instance
//! cost is paid incrementally in virtual time.
//!
//! The re-arm is a **bulk sweep**: one dense pass zipping the node table
//! with the template's precomputed in-degree array, two plain stores per
//! node and no lock (instanced persistent nodes never receive streaming
//! edges, so the links lock guards nothing here — see
//! [`RtNode::rearm_persistent`]). This is the paper's "later iterations
//! cost a memcpy" story made literal.

use super::arena::{NodeArena, NodeRef};
use super::probe::{NullProbe, RtProbe};
use super::{ReadyTracker, RtNode};
use crate::graph::GraphTemplate;
use crate::task::TaskId;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Batch size back-ends use when paying re-instance cost incrementally.
pub const REINSTANCE_BATCH: usize = 16;

/// A captured graph, instanced once, re-armed per iteration.
pub struct PersistentInstance {
    template: Arc<GraphTemplate>,
    /// Keeps the arena chunks alive; nodes are referenced via `nodes`.
    _arena: NodeArena,
    nodes: Vec<NodeRef>,
    reuses: AtomicU64,
}

impl PersistentInstance {
    /// Instance every template node and wire the persistent successor
    /// lists. This is the only allocation the persistent path ever does,
    /// and it is paid by the first replay: the thread executor's
    /// [`crate::exec::PersistentRegion`] builds the instance when it first
    /// re-instances a capture, never on the capturing iteration itself.
    pub fn new(template: Arc<GraphTemplate>, keep_work: bool) -> Self {
        let mut arena = NodeArena::new();
        arena.reserve(template.n_nodes());
        let nodes: Vec<NodeRef> = template
            .ids()
            .map(|id| arena.alloc(RtNode::from_template(id, template.node(id), keep_work)))
            .collect();
        for id in template.ids() {
            let succs: Vec<NodeRef> = template
                .successors(id)
                .map(|s| nodes[s.index()].clone())
                .collect();
            nodes[id.index()].set_persistent_succs(succs);
        }
        PersistentInstance {
            template,
            _arena: arena,
            nodes,
            reuses: AtomicU64::new(0),
        }
    }

    /// The captured template.
    pub fn template(&self) -> &Arc<GraphTemplate> {
        &self.template
    }

    /// All instanced nodes.
    pub fn nodes(&self) -> &[NodeRef] {
        &self.nodes
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node for `id`.
    pub fn node(&self, id: TaskId) -> &NodeRef {
        &self.nodes[id.index()]
    }

    /// Re-arm every node for `iter` (counters to `indegree + 1`, the
    /// firstprivate rewrite) and account the whole graph as live. No node
    /// is visible to scheduling until its token is dropped by `publish`.
    pub fn begin_iteration(&self, iter: u64, tracker: &ReadyTracker) {
        self.begin_iteration_with(iter, tracker, &NullProbe, 0);
    }

    /// [`PersistentInstance::begin_iteration`] narrated through a probe:
    /// the re-instanced nodes count as *created* again — same lifecycle
    /// narration as streaming discovery, so both probe streams align.
    pub fn begin_iteration_with(
        &self,
        iter: u64,
        tracker: &ReadyTracker,
        probe: &dyn RtProbe,
        now_ns: u64,
    ) {
        // Bulk re-arm: dense sweep over (node, indegree) pairs. Safe to
        // skip the per-node lock — see RtNode::rearm_persistent.
        for (node, &indeg) in self.nodes.iter().zip(self.template.indegrees()) {
            node.rearm_persistent(indeg, iter);
        }
        tracker.created(self.nodes.len());
        // Relaxed: statistic, read between iterations.
        self.reuses.fetch_add(1, Ordering::Relaxed);
        if probe.lifecycle_enabled() {
            for node in &self.nodes {
                probe.task_created(node.id, now_ns);
            }
        }
    }

    /// Drop the visibility tokens of `range`, returning the nodes that
    /// became ready (roots of the template, once all their — zero —
    /// predecessors plus the token are gone).
    pub fn publish(&self, range: Range<usize>) -> Vec<NodeRef> {
        self.publish_with(range, &NullProbe, 0)
    }

    /// [`PersistentInstance::publish`] narrated through a probe: emits
    /// `task_ready` for each node whose token drop made it ready.
    pub fn publish_with(
        &self,
        range: Range<usize>,
        probe: &dyn RtProbe,
        now_ns: u64,
    ) -> Vec<NodeRef> {
        let mut ready = Vec::new();
        self.publish_into(range, probe, now_ns, &mut ready);
        ready
    }

    /// [`PersistentInstance::publish_with`] into a caller-recycled buffer
    /// — the steady-state replay path: the buffer reaches the template's
    /// root-count high-water mark once and never grows again.
    pub fn publish_into(
        &self,
        range: Range<usize>,
        probe: &dyn RtProbe,
        now_ns: u64,
        ready: &mut Vec<NodeRef>,
    ) {
        for node in &self.nodes[range] {
            if node.seal() {
                if probe.lifecycle_enabled() {
                    probe.task_ready(node.id, now_ns);
                }
                ready.push(node.clone());
            }
        }
    }

    /// Number of iterations re-instanced through this template.
    pub fn reuses(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DiscoveryEngine, TemplateRecorder};
    use crate::opts::OptConfig;
    use crate::task::TaskSpec;
    use crate::{AccessMode, HandleSpace};

    fn diamond_template() -> GraphTemplate {
        // w -> (a, b) -> r
        let mut space = HandleSpace::new();
        let x = space.region("x", 4096);
        let y = space.region("y", 4096);
        let mut engine = DiscoveryEngine::new(OptConfig::none());
        let mut rec = TemplateRecorder::new(false);
        for spec in [
            TaskSpec::new("w").depend(x, AccessMode::Out),
            TaskSpec::new("a")
                .depend(x, AccessMode::In)
                .depend(y, AccessMode::Out),
            TaskSpec::new("b").depend(x, AccessMode::InOutSet),
            TaskSpec::new("r")
                .depend(x, AccessMode::In)
                .depend(y, AccessMode::In),
        ] {
            engine.submit(&mut rec, &spec);
        }
        rec.finish()
    }

    #[test]
    fn reinstance_runs_two_iterations() {
        let tmpl = Arc::new(diamond_template());
        let n = tmpl.n_nodes();
        let pinst = PersistentInstance::new(Arc::clone(&tmpl), false);
        let tracker = ReadyTracker::new();

        for iter in 1..=2u64 {
            pinst.begin_iteration(iter, &tracker);
            assert_eq!(tracker.live(), n);
            let mut frontier = pinst.publish(0..n);
            assert!(!frontier.is_empty(), "template has roots");
            let mut executed = 0usize;
            while let Some(node) = frontier.pop() {
                executed += 1;
                tracker.completed();
                frontier.extend(node.complete().ready);
            }
            assert_eq!(executed, n, "all nodes run each iteration");
            assert!(tracker.quiescent());
        }
    }

    #[test]
    fn unpublished_nodes_stay_invisible() {
        let tmpl = Arc::new(diamond_template());
        let pinst = PersistentInstance::new(Arc::clone(&tmpl), false);
        let tracker = ReadyTracker::new();
        pinst.begin_iteration(1, &tracker);
        // Completing a published prefix cannot ready an unpublished node:
        // its visibility token is still held.
        let frontier = pinst.publish(0..1);
        assert_eq!(frontier.len(), 1, "node 0 is the template's first root");
        assert!(
            frontier[0].complete().ready.is_empty(),
            "released successors still hold their visibility token"
        );
        let rest = pinst.publish(1..pinst.len());
        assert!(!rest.is_empty(), "successors become ready on publish");
    }

    #[test]
    fn publish_into_recycles_and_matches_publish() {
        let tmpl = Arc::new(diamond_template());
        let n = tmpl.n_nodes();
        let pinst = PersistentInstance::new(Arc::clone(&tmpl), false);
        let tracker = ReadyTracker::new();
        let mut buf = Vec::new();
        for iter in 1..=3u64 {
            pinst.begin_iteration(iter, &tracker);
            buf.clear();
            let cap_before = buf.capacity();
            pinst.publish_into(0..n, &NullProbe, 0, &mut buf);
            if iter > 1 {
                assert_eq!(buf.capacity(), cap_before, "warm buffer never regrows");
            }
            let mut frontier: Vec<NodeRef> = buf.clone();
            while let Some(node) = frontier.pop() {
                tracker.completed();
                frontier.extend(node.complete().ready);
            }
            assert!(tracker.quiescent());
        }
        assert_eq!(pinst.reuses(), 3);
    }
}
