//! A live graph instance: the one [`GraphSink`] both back-ends feed to the
//! [`crate::graph::DiscoveryEngine`].
//!
//! `GraphInstance` owns the node table, applies edges (including pruning
//! against already-completed predecessors), tracks creation counts, and —
//! when capturing for a persistent region — mirrors every node and edge
//! into a [`TemplateRecorder`]. Back-ends never materialize nodes or
//! edges themselves; they only *route* the ready tasks this instance
//! hands them.
//!
//! Nodes come from the instance's [`NodeArena`]: after a
//! [`GraphInstance::reserve`] (or once chunk allocation has warmed up),
//! submitting a task performs **zero** heap allocations — the zero-alloc
//! invariant of DESIGN.md §4.4.

use super::arena::{NodeArena, NodeRef};
use super::probe::{NullProbe, RtProbe};
use super::{ReadyTracker, RtNode};
use crate::graph::{GraphSink, GraphTemplate, TemplateRecorder};
use crate::task::{SpecView, TaskId};
use std::sync::Arc;

/// Options for a [`GraphInstance`].
#[derive(Clone, Copy, Debug)]
pub struct InstanceOptions {
    /// Retain task bodies (real execution). `false` for cost-model-only
    /// back-ends — discovery then skips closure allocation entirely.
    pub want_bodies: bool,
    /// Retain [`crate::WorkDesc`]s on nodes (cost models need them; the
    /// wall-clock executor does not). `false` also keeps footprints out
    /// of the capture mirror.
    pub keep_work: bool,
    /// Mirror discovery into a [`TemplateRecorder`] for persistent
    /// re-instancing. Capture disables pruning *reporting*: the recorder
    /// must keep every edge for later iterations, so `add_edge` claims
    /// success even when the live edge was pruned.
    pub capture: bool,
}

impl Default for InstanceOptions {
    fn default() -> Self {
        InstanceOptions {
            want_bodies: true,
            keep_work: false,
            capture: false,
        }
    }
}

/// The streaming node table one discovery stream writes into.
pub struct GraphInstance {
    arena: NodeArena,
    nodes: Vec<NodeRef>,
    newly_ready: Vec<NodeRef>,
    tracker: Arc<ReadyTracker>,
    capture: Option<TemplateRecorder>,
    opts: InstanceOptions,
    iter: u64,
    probe: Arc<dyn RtProbe>,
    /// Timestamp stamped on lifecycle events emitted during discovery;
    /// the back-end advances it before each submission batch (discovery
    /// itself has no clock).
    now_ns: u64,
}

impl GraphInstance {
    /// A fresh instance accounting into `tracker`.
    pub fn new(tracker: Arc<ReadyTracker>, opts: InstanceOptions) -> Self {
        GraphInstance {
            arena: NodeArena::new(),
            nodes: Vec::new(),
            newly_ready: Vec::new(),
            tracker,
            capture: opts.capture.then(|| {
                if opts.keep_work {
                    TemplateRecorder::new(opts.want_bodies)
                } else {
                    TemplateRecorder::without_footprints(opts.want_bodies)
                }
            }),
            opts,
            iter: 0,
            probe: Arc::new(NullProbe),
            now_ns: 0,
        }
    }

    /// Pre-size the node table, the arena, and the ready buffer for
    /// `extra` more tasks, so the next `extra` submissions allocate
    /// nothing.
    pub fn reserve(&mut self, extra: usize) {
        self.arena.reserve(extra);
        self.nodes.reserve(extra);
        self.newly_ready.reserve(extra);
    }

    /// Iteration stamped onto subsequently created nodes.
    pub fn set_iter(&mut self, iter: u64) {
        self.iter = iter;
    }

    /// Attach the lifecycle probe (creation and root-readiness events are
    /// emitted from here — the discovery-side emit site).
    pub fn set_probe(&mut self, probe: Arc<dyn RtProbe>) {
        self.probe = probe;
    }

    /// Advance the clock lifecycle events are stamped with.
    pub fn set_now_ns(&mut self, now_ns: u64) {
        self.now_ns = now_ns;
    }

    /// The node for `id`.
    pub fn node(&self, id: TaskId) -> &NodeRef {
        &self.nodes[id.index()]
    }

    /// Number of nodes created so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Tasks that became ready since the last drain, in seal order. The
    /// back-end routes them (hold gate, queues) — the instance only
    /// detects readiness.
    pub fn drain_ready(&mut self) -> Vec<NodeRef> {
        std::mem::take(&mut self.newly_ready)
    }

    /// [`GraphInstance::drain_ready`] into a caller-recycled buffer: the
    /// instance's internal ready list keeps its capacity and `out` grows
    /// at most to the high-water mark — after warm-up, no allocation on
    /// either side.
    pub fn drain_ready_into(&mut self, out: &mut Vec<NodeRef>) {
        out.append(&mut self.newly_ready);
    }

    /// Finish a capture, yielding the persistent template. Panics if the
    /// instance was not created with `capture`.
    pub fn finish_capture(&mut self) -> GraphTemplate {
        self.capture
            .take()
            .expect("finish_capture requires InstanceOptions::capture")
            .finish()
    }
}

impl GraphSink for GraphInstance {
    fn add_task(&mut self, view: &SpecView<'_>) -> TaskId {
        let id = TaskId::from_index(self.nodes.len());
        self.tracker.created(1);
        let node = RtNode::from_view(
            id,
            view,
            self.iter,
            self.opts.want_bodies,
            self.opts.keep_work,
        );
        self.nodes.push(self.arena.alloc(node));
        if let Some(cap) = &mut self.capture {
            let mirror = cap.add_task(view);
            debug_assert_eq!(mirror, id, "capture mirrors node ids");
        }
        if self.probe.lifecycle_enabled() {
            self.probe.task_created(id, self.now_ns);
        }
        id
    }

    fn add_redirect(&mut self) -> TaskId {
        let id = TaskId::from_index(self.nodes.len());
        self.tracker.created(1);
        self.nodes
            .push(self.arena.alloc(RtNode::redirect(id, self.iter)));
        if let Some(cap) = &mut self.capture {
            let mirror = cap.add_redirect();
            debug_assert_eq!(mirror, id, "capture mirrors node ids");
        }
        if self.probe.lifecycle_enabled() {
            self.probe.task_created(id, self.now_ns);
        }
        id
    }

    fn add_edge(&mut self, pred: TaskId, succ: TaskId) -> bool {
        let attached = self.nodes[pred.index()].attach_succ(&self.nodes[succ.index()]);
        if let Some(cap) = &mut self.capture {
            cap.add_edge(pred, succ);
            // The template keeps the edge either way; report success so the
            // engine's dedup table stays consistent with the template.
            return true;
        }
        attached
    }

    fn seal(&mut self, task: TaskId) {
        let node = &self.nodes[task.index()];
        if node.seal() {
            if self.probe.lifecycle_enabled() {
                self.probe.task_ready(node.id, self.now_ns);
            }
            self.newly_ready.push(node.clone());
        }
    }

    fn wants_bodies(&self) -> bool {
        self.opts.want_bodies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DiscoveryEngine;
    use crate::opts::OptConfig;
    use crate::task::TaskSpec;
    use crate::{AccessMode, HandleSpace};

    fn chain_specs(space: &mut HandleSpace) -> Vec<TaskSpec> {
        let x = space.region("x", 4096);
        vec![
            TaskSpec::new("w").depend(x, AccessMode::Out),
            TaskSpec::new("r1").depend(x, AccessMode::In),
            TaskSpec::new("r2").depend(x, AccessMode::In),
        ]
    }

    #[test]
    fn discovery_builds_nodes_and_readiness() {
        let mut space = HandleSpace::new();
        let tracker = Arc::new(ReadyTracker::new());
        let mut inst = GraphInstance::new(Arc::clone(&tracker), InstanceOptions::default());
        let mut engine = DiscoveryEngine::new(OptConfig::all());
        for spec in chain_specs(&mut space) {
            engine.submit(&mut inst, &spec);
        }
        assert_eq!(inst.len(), 3);
        assert_eq!(tracker.live(), 3);
        let ready = inst.drain_ready();
        assert_eq!(ready.len(), 1, "only the writer is ready");
        assert_eq!(ready[0].name, "w");
        let done = ready[0].complete();
        assert_eq!(done.ready.len(), 2, "both readers released");
    }

    #[test]
    fn drain_ready_into_recycles_buffers() {
        let mut space = HandleSpace::new();
        let tracker = Arc::new(ReadyTracker::new());
        let mut inst = GraphInstance::new(tracker, InstanceOptions::default());
        let mut engine = DiscoveryEngine::new(OptConfig::all());
        let mut buf = Vec::new();
        for spec in chain_specs(&mut space) {
            engine.submit(&mut inst, &spec);
            inst.drain_ready_into(&mut buf);
        }
        assert_eq!(buf.len(), 1);
        assert_eq!(buf[0].name, "w");
        buf.clear();
        let cap = buf.capacity();
        // subsequent drains refill within the retained capacity
        let y = space.region("y", 64);
        engine.submit(&mut inst, &TaskSpec::new("w2").depend(y, AccessMode::Out));
        inst.drain_ready_into(&mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn capture_mirrors_the_stream() {
        let mut space = HandleSpace::new();
        let tracker = Arc::new(ReadyTracker::new());
        let mut inst = GraphInstance::new(
            tracker,
            InstanceOptions {
                capture: true,
                ..InstanceOptions::default()
            },
        );
        let mut engine = DiscoveryEngine::new(OptConfig::all());
        for spec in chain_specs(&mut space) {
            engine.submit(&mut inst, &spec);
        }
        let tmpl = inst.finish_capture();
        assert_eq!(tmpl.n_tasks(), 3);
        assert_eq!(tmpl.n_edges(), 2);
    }

    #[test]
    fn reserve_is_accepted_before_any_submission() {
        let tracker = Arc::new(ReadyTracker::new());
        let mut inst = GraphInstance::new(tracker, InstanceOptions::default());
        inst.reserve(100);
        let mut space = HandleSpace::new();
        let mut engine = DiscoveryEngine::new(OptConfig::all());
        for spec in chain_specs(&mut space) {
            engine.submit(&mut inst, &spec);
        }
        assert_eq!(inst.len(), 3);
    }
}
