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
//! # When a creation is counted
//!
//! A node enters [`ReadyTracker::created`] just before its seal drops the
//! creation token — from then on a worker completing its last
//! predecessor can release, run and complete it. After
//! [`GraphInstance::defer_ready_counts`], a node that is ready at its own
//! seal (only the creation token left, [`RtNode::only_token_left`]) is
//! instead counted when it is published: no other thread can reach it
//! before the back-end routes it. [`GraphInstance::drain_ready`] counts
//! such nodes at the drain; [`GraphInstance::take_ready_into`] hands
//! their count to a back-end that publishes later (the thread executor's
//! staging buffer).
//!
//! Either way `live` includes every node some thread could complete, so
//! no completion can drive it below zero, and the quiescence argument of
//! [`ReadyTracker::completed`] holds unchanged.
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
    /// Nodes in `newly_ready` that were ready at their own seal and whose
    /// creation is not yet counted (see the module docs).
    uncounted: usize,
    /// Leave ready-at-seal nodes' creation counts to their publication.
    defer_ready_counts: bool,
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
            uncounted: 0,
            defer_ready_counts: false,
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

    /// Count a node that is ready at its own seal when it is drained
    /// rather than at its seal (see "When a creation is counted" in the
    /// module docs). For back-ends that publish ready nodes in batches:
    /// the count then joins the batch's one update instead of costing an
    /// RMW per node. By default every node is counted by the time its
    /// seal returns, so `live` covers every discovered node even before
    /// a drain.
    pub fn defer_ready_counts(&mut self) {
        self.defer_ready_counts = true;
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

    /// Tasks that became ready since the last drain, in seal order, with
    /// every creation counted. The back-end routes them (hold gate,
    /// queues) — the instance only detects readiness.
    pub fn drain_ready(&mut self) -> Vec<NodeRef> {
        self.count_ready();
        std::mem::take(&mut self.newly_ready)
    }

    /// [`GraphInstance::drain_ready`] into a caller-recycled buffer: the
    /// instance's internal ready list keeps its capacity and `out` grows
    /// at most to the high-water mark — after warm-up, no allocation on
    /// either side.
    pub fn drain_ready_into(&mut self, out: &mut Vec<NodeRef>) {
        self.count_ready();
        out.append(&mut self.newly_ready);
    }

    /// [`GraphInstance::drain_ready_into`] without counting: returns how
    /// many of the drained nodes were ready at their own seal and are not
    /// yet in [`ReadyTracker::created`]. The caller must count them
    /// before any of them can reach another thread.
    #[must_use = "the returned creations must be counted at publication"]
    pub fn take_ready_into(&mut self, out: &mut Vec<NodeRef>) -> usize {
        out.append(&mut self.newly_ready);
        std::mem::take(&mut self.uncounted)
    }

    /// Whether a drain would return anything.
    pub fn has_ready(&self) -> bool {
        !self.newly_ready.is_empty()
    }

    fn count_ready(&mut self) {
        let n = std::mem::take(&mut self.uncounted);
        if n != 0 {
            self.tracker.created(n);
        }
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
        // See "When a creation is counted" in the module docs.
        let private = self.defer_ready_counts && node.only_token_left();
        if !private {
            self.tracker.created(1);
        }
        if node.seal() {
            if self.probe.lifecycle_enabled() {
                self.probe.task_ready(node.id, self.now_ns);
            }
            self.uncounted += usize::from(private);
            self.newly_ready.push(node.clone());
        } else {
            debug_assert!(!private, "a node with only its token left seals ready");
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

    fn deferred(tracker: &Arc<ReadyTracker>) -> GraphInstance {
        let mut inst = GraphInstance::new(Arc::clone(tracker), InstanceOptions::default());
        inst.defer_ready_counts();
        inst
    }

    #[test]
    fn ready_at_seal_node_is_counted_when_published() {
        let mut space = HandleSpace::new();
        let tracker = Arc::new(ReadyTracker::new());
        let mut inst = deferred(&tracker);
        let mut engine = DiscoveryEngine::new(OptConfig::all());
        let x = space.region("x", 64);
        engine.submit(&mut inst, &TaskSpec::new("w").depend(x, AccessMode::Out));
        assert!(inst.has_ready());
        assert_eq!(tracker.live(), 0, "not counted before publication");
        let mut out = Vec::new();
        assert_eq!(inst.take_ready_into(&mut out), 1);
        assert_eq!(tracker.live(), 0, "the taker counts at publication");
        tracker.created(1);
        // `drain_ready` counts at the drain.
        let y = space.region("y", 64);
        engine.submit(&mut inst, &TaskSpec::new("v").depend(y, AccessMode::Out));
        assert_eq!(tracker.live(), 1);
        assert_eq!(inst.drain_ready().len(), 1);
        assert_eq!(tracker.live(), 2);
        assert_eq!(tracker.created_total(), 2);
    }

    #[test]
    fn node_with_an_outstanding_edge_is_counted_before_its_seal() {
        let tracker = Arc::new(ReadyTracker::new());
        let mut inst = deferred(&tracker);
        let w = inst.add_task(&TaskSpec::new("w").view());
        inst.seal(w);
        let r = inst.add_task(&TaskSpec::new("r").view());
        assert!(inst.add_edge(w, r));
        assert_eq!(tracker.live(), 0);
        inst.seal(r);
        assert_eq!(
            tracker.live(),
            1,
            "r is reachable from w: counted at its seal"
        );
        let mut out = Vec::new();
        assert_eq!(inst.take_ready_into(&mut out), 1, "only w is uncounted");
        assert_eq!(out.len(), 1);
        tracker.created(1);
        let done = out[0].complete();
        assert!(!tracker.completed());
        assert_eq!(done.ready.len(), 1, "w released r");
        assert!(done.ready[0].complete().ready.is_empty());
        assert!(tracker.completed());
    }

    /// A worker completes predecessors while the producer seals their
    /// successors: whichever way each race goes, every node is counted
    /// before a completion can reach it, so `live` never wraps (a debug
    /// assertion in `ReadyTracker::completed` fires if it does) and ends
    /// at zero.
    #[test]
    fn live_never_wraps_while_a_worker_completes_predecessors() {
        const TASKS: usize = 4000;
        const HANDLES: usize = 4;
        let tracker = Arc::new(ReadyTracker::new());
        let (tx, rx) = std::sync::mpsc::channel::<Vec<NodeRef>>();
        std::thread::scope(|scope| {
            let t = Arc::clone(&tracker);
            scope.spawn(move || {
                let mut work = Vec::new();
                for batch in rx {
                    work.extend(batch);
                    while let Some(node) = work.pop() {
                        work.extend(node.complete().ready);
                        t.completed();
                        assert!(t.live() <= TASKS, "live wrapped: {}", t.live());
                    }
                }
            });
            let mut space = HandleSpace::new();
            let handles: Vec<_> = (0..HANDLES).map(|_| space.region("h", 64)).collect();
            let mut inst = deferred(&tracker);
            let mut engine = DiscoveryEngine::new(OptConfig::all());
            for k in 0..TASKS {
                let spec = TaskSpec::new("t")
                    .depend(handles[k % HANDLES], AccessMode::InOut)
                    .depend(handles[(k + 1) % HANDLES], AccessMode::In);
                engine.submit(&mut inst, &spec);
                let mut batch = Vec::new();
                let uncounted = inst.take_ready_into(&mut batch);
                tracker.created(uncounted);
                if !batch.is_empty() {
                    tx.send(batch).unwrap();
                }
            }
            drop(tx);
        });
        assert_eq!(tracker.created_total(), TASKS);
        assert!(tracker.quiescent());
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
