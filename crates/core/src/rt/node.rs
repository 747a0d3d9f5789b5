//! Live task nodes: the kernel's readiness state machine.
//!
//! An [`RtNode`] is one instantiated task. Its `pending` counter holds the
//! number of unsatisfied predecessors **plus one creation token** owned by
//! the producer until the node is sealed (all its edges added). The
//! decrement-on-complete transition — the heart of dependent-task
//! readiness — lives *only* here; back-ends never touch in-degree
//! counters themselves.
//!
//! Nodes live in a [`super::NodeArena`] and are shared as [`NodeRef`]s —
//! pooled references whose clone/drop never touch the allocator. The
//! per-node successor list is an [`InlineVec`]: typical stencil fan-outs
//! ([`SUCC_INLINE`] successors or fewer) stay inline in the node; larger
//! fan-outs spill once and keep their capacity across completions.

use super::arena::{NodeArena, NodeRef};
use super::probe::RtProbe;
use crate::task::{SpecView, TaskBody, TaskId};
use crate::util::InlineVec;
use crate::workdesc::{CommOp, WorkDesc};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Successors kept inline in the node before spilling to the heap.
///
/// Sized for the bundled apps: a LULESH/HPCG slice writer feeds its own
/// and adjacent slices' consumers (≤ 3–6 edges after dedup), and a
/// Cholesky tile writer feeds the panel below it; redirect nodes absorb
/// the wide `inoutset` fan-outs. 8 keeps those inline with slack.
pub const SUCC_INLINE: usize = 8;

/// Ready-list entries kept inline in a [`Completion`].
pub const READY_INLINE: usize = 8;

/// Result of completing a node.
#[derive(Default)]
pub struct Completion {
    /// Successors that became ready (their last predecessor was this node).
    pub ready: InlineVec<NodeRef, READY_INLINE>,
    /// Total successor releases performed (streaming + persistent) — the
    /// quantity cost models charge per completion.
    pub released: usize,
}

/// A live task instance, shared by the thread executor and the DES
/// simulator.
pub struct RtNode {
    /// Dense id within its graph instance.
    pub id: TaskId,
    /// Task name (profiling).
    pub name: &'static str,
    /// Body to run (None for redirect or cost-model-only nodes).
    pub body: Option<TaskBody>,
    /// Communication side effect (detached-task semantics).
    pub comm: Option<CommOp>,
    /// Cost-model description, kept when the instance is configured to
    /// retain it (virtual-time back-end).
    pub work: Option<WorkDesc>,
    /// Firstprivate payload size (the persistent re-instance memcpy).
    pub fp_bytes: u32,
    /// Whether this is an optimization-(c) redirect node.
    pub is_redirect: bool,
    /// Predecessors not yet completed, plus one creation/visibility token.
    pending: AtomicU32,
    /// Whether the task has completed. Set once, inside the `succs`
    /// critical section, so an edge requested after completion is pruned;
    /// read without the lock first by [`RtNode::attach_succ`], which makes
    /// a pruned edge — nearly every edge of a discovery-bound stream — a
    /// single load (DESIGN.md §4.3).
    completed: AtomicBool,
    /// Streaming successors to release on completion (taken exactly once).
    /// The lock serializes the completion against the producer attaching
    /// new successor edges — the race that makes edge *pruning*
    /// well-defined.
    succs: Mutex<InlineVec<NodeRef, SUCC_INLINE>>,
    /// Current iteration (the firstprivate payload a persistent
    /// re-instance rewrites).
    pub iter: AtomicU64,
    /// Successor list of an instanced persistent node. Set once when the
    /// captured template is instanced; unlike streaming edges these
    /// survive completion, so re-instancing allocates nothing.
    persistent_succs: OnceLock<Vec<NodeRef>>,
}

impl RtNode {
    /// A new application-task node value holding its creation token;
    /// the caller moves it into an arena.
    pub fn from_view(
        id: TaskId,
        view: &SpecView<'_>,
        iter: u64,
        want_bodies: bool,
        keep_work: bool,
    ) -> RtNode {
        RtNode {
            id,
            name: view.name,
            body: if want_bodies {
                view.body.cloned()
            } else {
                None
            },
            comm: view.comm,
            work: keep_work.then(|| WorkDesc {
                flops: view.flops,
                footprint: view.footprint.to_vec(),
            }),
            fp_bytes: view.fp_bytes,
            is_redirect: false,
            pending: AtomicU32::new(1), // creation token
            completed: AtomicBool::new(false),
            succs: Mutex::new(InlineVec::new()),
            iter: AtomicU64::new(iter),
            persistent_succs: OnceLock::new(),
        }
    }

    /// A bare node backed by its own one-slot arena (redirect-free tests
    /// and standalone uses; graph instances allocate through their arena).
    pub fn bare(id: TaskId, name: &'static str, body: Option<TaskBody>, iter: u64) -> NodeRef {
        NodeArena::singleton(RtNode::bare_value_named(id, name, body, iter))
    }

    fn bare_value_named(
        id: TaskId,
        name: &'static str,
        body: Option<TaskBody>,
        iter: u64,
    ) -> RtNode {
        RtNode {
            id,
            name,
            body,
            comm: None,
            work: None,
            fp_bytes: 0,
            is_redirect: false,
            pending: AtomicU32::new(1),
            completed: AtomicBool::new(false),
            succs: Mutex::new(InlineVec::new()),
            iter: AtomicU64::new(iter),
            persistent_succs: OnceLock::new(),
        }
    }

    /// A bare node *value* (arena tests fill blocks with these directly).
    #[cfg(test)]
    pub(crate) fn bare_value(id: TaskId, iter: u64) -> RtNode {
        RtNode::bare_value_named(id, "t", None, iter)
    }

    /// Attach a body (arena drop-count tests).
    #[cfg(test)]
    pub(crate) fn with_test_body<F: Fn(&crate::task::TaskCtx) + Send + Sync + 'static>(
        mut self,
        f: F,
    ) -> RtNode {
        self.body = Some(std::sync::Arc::new(f));
        self
    }

    /// A node value instanced from a captured template node (persistent
    /// graphs).
    pub(crate) fn from_template(
        id: TaskId,
        tn: &crate::graph::TemplateNode,
        keep_work: bool,
    ) -> RtNode {
        RtNode {
            id,
            name: tn.name,
            body: tn.body.clone(),
            comm: tn.comm,
            work: keep_work.then(|| tn.work.clone()),
            fp_bytes: tn.fp_bytes,
            is_redirect: tn.is_redirect,
            pending: AtomicU32::new(1),
            completed: AtomicBool::new(false),
            succs: Mutex::new(InlineVec::new()),
            iter: AtomicU64::new(0),
            persistent_succs: OnceLock::new(),
        }
    }

    /// An empty redirect node value (optimization (c)).
    pub fn redirect(id: TaskId, iter: u64) -> RtNode {
        let mut n = RtNode::bare_value_named(id, "<redirect>", None, iter);
        n.is_redirect = true;
        n
    }

    fn succs(&self) -> MutexGuard<'_, InlineVec<NodeRef, SUCC_INLINE>> {
        // A poisoned lock means a panic inside the short critical section
        // below, never inside a task body; the state is still consistent.
        self.succs.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Current pending count (tests / diagnostics; Relaxed — a racy
    /// snapshot is all this can ever be).
    pub fn pending(&self) -> u32 {
        self.pending.load(Ordering::Relaxed)
    }

    /// Whether only the creation token is left: every edge attached so
    /// far has been released. Exact for the token holder before its
    /// [`RtNode::seal`]: the only increments are its own attaches, which
    /// this Relaxed load sees in program order, so a 1 can be moved only
    /// by the holder's seal. A node for which this holds is unreachable
    /// from every other thread until the holder publishes it.
    pub fn only_token_left(&self) -> bool {
        self.pending.load(Ordering::Relaxed) == 1
    }

    /// Set the persistent successor list (once, at template instancing).
    pub(crate) fn set_persistent_succs(&self, succs: Vec<NodeRef>) {
        assert!(
            self.persistent_succs.set(succs).is_ok(),
            "persistent successors are instanced once"
        );
    }

    /// Count of successors a completion would release right now.
    pub fn succ_count(&self) -> usize {
        let streaming = self.succs().len();
        streaming + self.persistent_succs.get().map_or(0, |s| s.len())
    }

    /// Reset an instanced persistent node for a new iteration: restore its
    /// dependence counter (plus one *visibility token*, dropped by
    /// [`super::PersistentInstance::publish`]).
    ///
    /// This is valid **only** for instanced persistent nodes: their
    /// successor edges live in `persistent_succs` (never in `succs`),
    /// and `attach_succ` is never called on them, so the `completed` flag —
    /// which exists solely to define streaming-edge pruning — is dead state
    /// and need not be cleared. Skipping the successor lock turns the
    /// per-iteration re-arm into two plain stores per node, which is what
    /// lets `begin_iteration` be a single dense sweep (DESIGN.md §4.4).
    /// Relaxed stores: re-instancing runs strictly between iterations —
    /// after the previous barrier's quiescence synchronization and before
    /// the nodes are re-published through the ready queues, which is the
    /// happens-before edge that carries these values to the workers.
    pub(crate) fn rearm_persistent(&self, indegree: u32, iter: u64) {
        debug_assert!(
            self.persistent_succs.get().is_some() || self.succs().is_empty(),
            "fast re-arm is reserved for instanced persistent nodes"
        );
        self.pending.store(indegree + 1, Ordering::Relaxed);
        self.iter.store(iter, Ordering::Relaxed);
    }

    /// Attach an edge `self -> succ`, unless `self` already completed.
    /// Returns whether the edge was created.
    ///
    /// The completion flag is checked without the lock first. Acquire: a
    /// pruned edge lets `succ` run without waiting on `self`, so `self`'s
    /// body writes must reach `succ` through this load — it synchronizes
    /// with the `Release` store in [`RtNode::complete_with`], and the
    /// producer's later queue push carries that on to the worker that
    /// runs `succ`. A `false` read may be stale; the locked re-check
    /// below decides.
    pub fn attach_succ(&self, succ: &NodeRef) -> bool {
        if self.completed.load(Ordering::Acquire) {
            return false; // pruned
        }
        let mut succs = self.succs();
        // Relaxed: the lock orders this load after a completion that
        // stored the flag inside its own critical section.
        if self.completed.load(Ordering::Relaxed) {
            return false; // pruned
        }
        // Relaxed: the producer holds the creation token, so this add can
        // never race the counter to zero; `seal`'s AcqRel decrement is
        // what orders readiness.
        succ.pending.fetch_add(1, Ordering::Relaxed);
        succs.push(succ.clone());
        true
    }

    /// Drop the creation (or visibility) token; returns `true` if the node
    /// became ready.
    ///
    /// AcqRel — the kernel's pivotal ordering site. Release: everything
    /// the caller did before (a predecessor's task-body writes, the
    /// producer's node initialization) is published on `pending`.
    /// Acquire + release sequences over the RMW chain: the decrementer
    /// that hits zero synchronizes with *every* earlier decrementer, so
    /// whoever enqueues (and eventually runs) this node sees the effects
    /// of all its predecessors, not just the last one.
    pub fn seal(&self) -> bool {
        self.pending.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Mark completed and release every successor — streaming edges
    /// (consumed) then persistent ones (reusable). Returns the successors
    /// that became ready, plus the number of releases performed.
    pub fn complete(&self) -> Completion {
        self.complete_with(&crate::rt::NullProbe, 0, 0)
    }

    /// [`RtNode::complete`] narrated through a probe: emits
    /// `task_completed` on `core` and one `task_ready` per successor this
    /// completion released — the kernel-side emit site both back-ends
    /// share, so their lifecycle streams cannot diverge. (`comm_posted` /
    /// `comm_completed` are emitted by the back-ends' network layers at
    /// post and match time; for a detached comm task this completion runs
    /// from the progress path, after the request matched.)
    pub fn complete_with(&self, probe: &dyn RtProbe, core: usize, now_ns: u64) -> Completion {
        let taken = {
            let mut succs = self.succs();
            // Release: publishes the task body's writes to a producer
            // that prunes against the flag without taking the lock.
            self.completed.store(true, Ordering::Release);
            std::mem::take(&mut *succs)
        };
        let mut out = Completion {
            ready: InlineVec::new(),
            released: taken.len(),
        };
        for succ in taken {
            if succ.seal() {
                out.ready.push(succ);
            }
        }
        if let Some(persistent) = self.persistent_succs.get() {
            out.released += persistent.len();
            for succ in persistent {
                if succ.seal() {
                    out.ready.push(succ.clone());
                }
            }
        }
        if probe.lifecycle_enabled() {
            probe.task_completed(self.id, core, now_ns);
            for succ in &out.ready {
                probe.task_ready(succ.id, now_ns);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creation_token_prevents_premature_ready() {
        let a = RtNode::bare(TaskId(0), "a", None, 0);
        let b = RtNode::bare(TaskId(1), "b", None, 0);
        assert!(a.attach_succ(&b));
        // b has token + 1 pred = 2 pending; sealing only drops the token.
        assert!(!b.seal());
        let done = a.complete();
        assert_eq!(done.released, 1);
        assert_eq!(done.ready.len(), 1, "b ready after its only pred");
        assert_eq!(done.ready[0].id, TaskId(1));
    }

    #[test]
    fn edge_to_completed_node_is_pruned() {
        let a = RtNode::bare(TaskId(0), "a", None, 0);
        let b = RtNode::bare(TaskId(1), "b", None, 0);
        a.complete();
        assert!(!a.attach_succ(&b));
        assert!(b.seal(), "b is a root: ready on seal");
    }

    #[test]
    fn root_ready_on_seal() {
        let a = RtNode::bare(TaskId(0), "a", None, 0);
        assert!(a.seal());
    }

    #[test]
    fn multiple_preds_release_in_any_order() {
        let p1 = RtNode::bare(TaskId(0), "p1", None, 0);
        let p2 = RtNode::bare(TaskId(1), "p2", None, 0);
        let s = RtNode::bare(TaskId(2), "s", None, 0);
        p1.attach_succ(&s);
        p2.attach_succ(&s);
        assert!(!s.seal());
        assert!(p2.complete().ready.is_empty());
        let done = p1.complete();
        assert_eq!(done.ready.len(), 1);
    }

    #[test]
    fn duplicate_edges_require_duplicate_releases() {
        // Without optimization (b), the same (pred, succ) pair may carry
        // two edges; correctness demands both be released.
        let p = RtNode::bare(TaskId(0), "p", None, 0);
        let s = RtNode::bare(TaskId(1), "s", None, 0);
        p.attach_succ(&s);
        p.attach_succ(&s);
        s.seal();
        let done = p.complete();
        assert_eq!(done.released, 2);
        assert_eq!(
            done.ready.len(),
            1,
            "ready exactly once, on the last release"
        );
    }

    #[test]
    fn wide_fanout_spills_and_still_releases_every_successor() {
        let p = RtNode::bare(TaskId(0), "p", None, 0);
        let succs: Vec<NodeRef> = (1..=2 * SUCC_INLINE as u32)
            .map(|i| RtNode::bare(TaskId(i), "s", None, 0))
            .collect();
        for s in &succs {
            assert!(p.attach_succ(s));
            s.seal();
        }
        let done = p.complete();
        assert_eq!(done.released, 2 * SUCC_INLINE);
        assert_eq!(done.ready.len(), 2 * SUCC_INLINE);
    }

    #[test]
    fn persistent_succs_survive_completion() {
        let p = RtNode::bare(TaskId(0), "p", None, 0);
        let s = RtNode::bare(TaskId(1), "s", None, 0);
        p.set_persistent_succs(vec![s.clone()]);
        p.rearm_persistent(0, 1);
        s.rearm_persistent(1, 1);
        // publish: drop visibility tokens
        assert!(p.seal());
        assert!(!s.seal());
        let d1 = p.complete();
        assert_eq!(d1.ready.len(), 1);
        // next iteration: same links, no reallocation
        p.rearm_persistent(0, 2);
        s.rearm_persistent(1, 2);
        assert!(p.seal());
        assert!(!s.seal());
        let d2 = p.complete();
        assert_eq!(d2.ready.len(), 1);
    }

    #[test]
    fn fast_rearm_matches_full_reset_for_persistent_nodes() {
        let p = RtNode::bare(TaskId(0), "p", None, 0);
        let s = RtNode::bare(TaskId(1), "s", None, 0);
        p.set_persistent_succs(vec![s.clone()]);
        s.set_persistent_succs(vec![]);
        p.rearm_persistent(0, 1);
        s.rearm_persistent(1, 1);
        assert_eq!(p.pending(), 1);
        assert_eq!(s.pending(), 2);
        assert!(p.seal());
        assert!(!s.seal());
        let d = p.complete();
        assert_eq!(d.ready.len(), 1);
        assert_eq!(p.iter.load(Ordering::Relaxed), 1);
        // and again, after the completion above
        p.rearm_persistent(0, 2);
        s.rearm_persistent(1, 2);
        assert!(p.seal());
        assert!(!s.seal());
        assert_eq!(p.complete().ready.len(), 1);
    }
}
