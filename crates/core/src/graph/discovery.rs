//! The per-handle dependence state machine.

use super::{DiscoveryStats, GraphSink};
use crate::access::AccessMode;
use crate::opts::OptConfig;
use crate::task::{SpecView, TaskId, TaskSpec};
use crate::util::InlineVec;

const NO_SUCC: u32 = u32::MAX;

/// Inline capacity of the writer/group lists: a handle usually has one
/// writer; `inoutset` groups beyond 4 members spill once and keep their
/// capacity across [`DiscoveryEngine::reset_handle_state`].
const WRITERS_INLINE: usize = 4;
/// Inline capacity of the per-handle reader list: slice handles see a
/// handful of readers between writes in the bundled apps.
const READERS_INLINE: usize = 8;

/// Dependence state of one data region during sequential discovery.
#[derive(Clone, Debug, Default)]
struct HandleState {
    /// The task(s) whose write this region last saw: a single writer for
    /// `out`/`inout`, or every member of the current `inoutset` group.
    last_writers: InlineVec<TaskId, WRITERS_INLINE>,
    /// Whether `last_writers` is an `inoutset` group.
    writers_are_set: bool,
    /// Whether the group can still accept members (no other-mode access has
    /// been seen on this region since the group opened).
    group_open: bool,
    /// Redirect node materialized for this group by optimization (c).
    redirect: Option<TaskId>,
    /// Predecessors each *new member* of the open group must depend on,
    /// less those already in `group_pruned`.
    group_base: InlineVec<TaskId, WRITERS_INLINE>,
    /// Base predecessors a member's edge was already pruned against. The
    /// sink's completion is monotone, so every later member's edge would
    /// be pruned too: joins skip the sink for them (DESIGN.md §4.4).
    group_pruned: InlineVec<TaskId, WRITERS_INLINE>,
    /// Readers since the last write.
    readers: InlineVec<TaskId, READERS_INLINE>,
}

/// Sequential task-dependency-graph discovery.
///
/// One engine instance embodies one producer thread's discovery of one
/// graph (or one iteration of a persistent region). It owns the per-handle
/// dependence state and the duplicate-edge probe table, and emits nodes and
/// edges into a [`GraphSink`].
#[derive(Debug)]
pub struct DiscoveryEngine {
    opts: OptConfig,
    handles: Vec<HandleState>,
    /// `last_succ[pred]` = most recent successor attached to `pred`; the
    /// O(1) duplicate probe of optimization (b). Valid because submission
    /// is sequential: duplicate edges from one task's depend list are
    /// attached consecutively.
    last_succ: Vec<u32>,
    stats: DiscoveryStats,
    scratch_preds: Vec<TaskId>,
    /// Scratch for redirect materialization: the group members being
    /// funneled into the redirect node (recycled — never cloned from the
    /// handle state).
    scratch_members: Vec<TaskId>,
    /// Join groups through the pre-memo loop (the reference the
    /// completed-base memo is checked against).
    #[cfg(test)]
    reference_join: bool,
}

impl DiscoveryEngine {
    /// New engine with the given optimization switches.
    pub fn new(opts: OptConfig) -> Self {
        DiscoveryEngine {
            opts,
            handles: Vec::new(),
            last_succ: Vec::new(),
            stats: DiscoveryStats::default(),
            scratch_preds: Vec::new(),
            scratch_members: Vec::new(),
            #[cfg(test)]
            reference_join: false,
        }
    }

    /// The optimization configuration in use.
    pub fn opts(&self) -> OptConfig {
        self.opts
    }

    /// Pre-size the engine's tables so discovering up to `nodes` more
    /// nodes over up to `handles` registered regions allocates nothing
    /// (the inline per-handle lists may still spill on first use; see
    /// DESIGN.md §4.4 for the warm-up protocol).
    pub fn reserve(&mut self, nodes: usize, handles: usize) {
        self.last_succ.reserve(nodes);
        if handles > self.handles.len() {
            self.handles.resize_with(handles, HandleState::default);
        }
        self.scratch_preds.reserve(16);
        self.scratch_members.reserve(16);
    }

    /// Counters so far.
    pub fn stats(&self) -> DiscoveryStats {
        self.stats
    }

    /// Reset the per-handle dependence state (e.g. at an iteration barrier)
    /// while keeping cumulative statistics.
    ///
    /// The persistent-region implementation calls this between iterations:
    /// the implicit barrier guarantees every task completed, so carrying
    /// dependence state across the barrier would only create the
    /// inter-iteration edges that the paper notes are removed (§3.3).
    pub fn reset_handle_state(&mut self) {
        for h in &mut self.handles {
            h.last_writers.clear();
            h.writers_are_set = false;
            h.group_open = false;
            h.redirect = None;
            h.group_base.clear();
            h.group_pruned.clear();
            h.readers.clear();
        }
        // The duplicate-edge probe table must reset too: if the sink's ids
        // restart (a fresh graph instance after the barrier), a stale
        // `last_succ[pred] == succ` entry from the previous graph would
        // wrongly suppress the first real `pred -> succ` edge of the new
        // one.
        self.last_succ.fill(NO_SUCC);
    }

    fn handle_mut(&mut self, idx: usize) -> &mut HandleState {
        if idx >= self.handles.len() {
            self.handles.resize_with(idx + 1, HandleState::default);
        }
        &mut self.handles[idx]
    }

    fn note_node(&mut self, id: TaskId) {
        let idx = id.index();
        if idx >= self.last_succ.len() {
            self.last_succ.resize(idx + 1, NO_SUCC);
        }
    }

    /// Self-edge suppression and the optimization-(b) duplicate probe:
    /// whether the edge `pred -> succ` still has to be requested.
    fn probe(&mut self, pred: TaskId, succ: TaskId) -> bool {
        if pred == succ {
            // A task reading and writing the same region does not depend on
            // itself (OpenMP orders *distinct* sibling tasks).
            return false;
        }
        if self.opts.dedup_edges {
            self.stats.dup_probes += 1;
            let slot = &mut self.last_succ[pred.index()];
            if *slot == succ.0 {
                self.stats.dup_skipped += 1;
                return false;
            }
            *slot = succ.0;
        }
        true
    }

    /// Add edge `pred -> succ` after the [`DiscoveryEngine::probe`].
    /// Returns whether the sink pruned it.
    fn edge(&mut self, sink: &mut dyn GraphSink, pred: TaskId, succ: TaskId) -> bool {
        if !self.probe(pred, succ) {
            return false;
        }
        if sink.add_edge(pred, succ) {
            self.stats.edges_created += 1;
            false
        } else {
            self.stats.edges_pruned += 1;
            true
        }
    }

    /// Join task `id` to the open `inoutset` group of handle `hidx`: an
    /// edge from every base predecessor, none against fellow members.
    ///
    /// Base predecessors an earlier member was pruned against are known
    /// complete, so their edges are counted as pruned without asking the
    /// sink — still after the duplicate probe, so every counter reads as
    /// if each edge had been requested. The rest are requested, and those
    /// the sink prunes join the memo.
    fn join_group(&mut self, sink: &mut dyn GraphSink, hidx: usize, id: TaskId) {
        #[cfg(test)]
        if self.reference_join {
            self.join_group_reference(sink, hidx, id);
            return;
        }
        let mut pruned = std::mem::take(&mut self.handles[hidx].group_pruned);
        for &p in &pruned {
            if self.probe(p, id) {
                self.stats.edges_pruned += 1;
            }
        }
        let mut base = std::mem::take(&mut self.handles[hidx].group_base);
        base.retain(|&p| {
            let was_pruned = self.edge(sink, p, id);
            if was_pruned {
                pruned.push(p);
            }
            !was_pruned
        });
        let st = &mut self.handles[hidx];
        st.group_base = base;
        st.group_pruned = pruned;
        st.last_writers.push(id);
    }

    /// The pre-memo join: every member requests every base edge.
    #[cfg(test)]
    fn join_group_reference(&mut self, sink: &mut dyn GraphSink, hidx: usize, id: TaskId) {
        let base = std::mem::take(&mut self.handles[hidx].group_base);
        for p in &base {
            self.edge(sink, *p, id);
        }
        self.handles[hidx].group_base = base;
        self.handles[hidx].last_writers.push(id);
    }

    /// Resolve the predecessors representing "the last write" of handle
    /// `hidx`, materializing the optimization-(c) redirect node when
    /// profitable. The result is left in `self.scratch_preds`.
    fn writer_preds(&mut self, sink: &mut dyn GraphSink, hidx: usize) {
        self.scratch_preds.clear();
        let st = &self.handles[hidx];
        if st.last_writers.is_empty() {
            return;
        }
        if st.writers_are_set && st.last_writers.len() >= 2 && self.opts.inoutset_redirect {
            if let Some(r) = st.redirect {
                self.scratch_preds.push(r);
                return;
            }
            // Materialize R: members -> R, successors will attach to R.
            // The member list is staged through a recycled scratch buffer
            // (a borrow-splitting move, not a clone: `edge` needs `&mut
            // self` while the members live in `self.handles`).
            let mut members = std::mem::take(&mut self.scratch_members);
            members.clear();
            members.extend_from_slice(&st.last_writers);
            let r = sink.add_redirect();
            self.stats.redirect_nodes += 1;
            self.note_node(r);
            for &m in &members {
                self.edge(sink, m, r);
            }
            self.scratch_members = members;
            sink.seal(r);
            self.handles[hidx].redirect = Some(r);
            self.scratch_preds.push(r);
        } else {
            self.scratch_preds.extend_from_slice(&st.last_writers);
        }
    }

    /// Submit one task from an owned [`TaskSpec`] (convenience wrapper
    /// over [`DiscoveryEngine::submit_view`]).
    pub fn submit(&mut self, sink: &mut dyn GraphSink, spec: &TaskSpec) -> TaskId {
        self.submit_view(sink, &spec.view())
    }

    /// Submit one task: create its node, resolve its `depend` clause into
    /// edges, and seal it. Returns the new task's id.
    ///
    /// This is the allocation-free entry point: the view borrows its
    /// depend list and footprint (typically from a recycled
    /// [`crate::builder::SpecBuf`]), and the engine stages everything
    /// through its own recycled scratch buffers.
    pub fn submit_view(&mut self, sink: &mut dyn GraphSink, view: &SpecView<'_>) -> TaskId {
        let id = sink.add_task(view);
        self.note_node(id);
        self.stats.tasks += 1;
        self.stats.depend_items += view.depends.len() as u64;

        for d in view.depends {
            let hidx = d.handle.index();
            self.handle_mut(hidx); // ensure exists
            match d.mode {
                AccessMode::In => {
                    self.writer_preds(sink, hidx);
                    let preds = std::mem::take(&mut self.scratch_preds);
                    for p in &preds {
                        self.edge(sink, *p, id);
                    }
                    self.scratch_preds = preds;
                    let st = &mut self.handles[hidx];
                    st.group_open = false;
                    st.readers.push(id);
                }
                AccessMode::Out | AccessMode::InOut => {
                    if self.handles[hidx].readers.is_empty() {
                        self.writer_preds(sink, hidx);
                    } else {
                        self.scratch_preds.clear();
                        let readers = std::mem::take(&mut self.handles[hidx].readers);
                        self.scratch_preds.extend_from_slice(&readers);
                        self.handles[hidx].readers = readers;
                    }
                    let preds = std::mem::take(&mut self.scratch_preds);
                    for p in &preds {
                        self.edge(sink, *p, id);
                    }
                    self.scratch_preds = preds;
                    let st = &mut self.handles[hidx];
                    st.last_writers.clear();
                    st.last_writers.push(id);
                    st.writers_are_set = false;
                    st.group_open = false;
                    st.redirect = None;
                    st.group_base.clear();
                    st.group_pruned.clear();
                    st.readers.clear();
                }
                AccessMode::InOutSet => {
                    let joinable = {
                        let st = &self.handles[hidx];
                        st.writers_are_set && st.group_open && st.readers.is_empty()
                    };
                    if joinable {
                        self.join_group(sink, hidx, id);
                    } else {
                        // Open a new group.
                        if self.handles[hidx].readers.is_empty() {
                            self.writer_preds(sink, hidx);
                        } else {
                            self.scratch_preds.clear();
                            let readers = std::mem::take(&mut self.handles[hidx].readers);
                            self.scratch_preds.extend_from_slice(&readers);
                            self.handles[hidx].readers = readers;
                        }
                        let preds = std::mem::take(&mut self.scratch_preds);
                        for p in &preds {
                            self.edge(sink, *p, id);
                        }
                        let st = &mut self.handles[hidx];
                        st.group_base.clear();
                        st.group_base.extend_from_slice(&preds);
                        st.group_pruned.clear();
                        self.scratch_preds = preds;
                        st.last_writers.clear();
                        st.last_writers.push(id);
                        st.writers_are_set = true;
                        st.group_open = true;
                        st.redirect = None;
                        st.readers.clear();
                    }
                }
            }
        }
        sink.seal(id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::HandleSpace;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// A sink that records the graph in memory; `consumed` simulates tasks
    /// already executed (for pruning tests).
    #[derive(Default)]
    struct MemSink {
        n_nodes: u32,
        redirects: HashSet<u32>,
        edges: Vec<(u32, u32)>,
        consumed: HashSet<u32>,
        sealed: Vec<u32>,
    }

    impl GraphSink for MemSink {
        fn add_task(&mut self, _spec: &SpecView<'_>) -> TaskId {
            let id = self.n_nodes;
            self.n_nodes += 1;
            TaskId(id)
        }
        fn add_redirect(&mut self) -> TaskId {
            let id = self.n_nodes;
            self.n_nodes += 1;
            self.redirects.insert(id);
            TaskId(id)
        }
        fn add_edge(&mut self, pred: TaskId, succ: TaskId) -> bool {
            if self.consumed.contains(&pred.0) {
                return false;
            }
            self.edges.push((pred.0, succ.0));
            true
        }
        fn seal(&mut self, task: TaskId) {
            self.sealed.push(task.0);
        }
    }

    fn space2() -> (
        HandleSpace,
        crate::handle::DataHandle,
        crate::handle::DataHandle,
    ) {
        let mut s = HandleSpace::new();
        let x = s.region("x", 64);
        let y = s.region("y", 64);
        (s, x, y)
    }

    #[test]
    fn write_then_read_creates_one_edge() {
        let (_s, x, _y) = space2();
        let mut eng = DiscoveryEngine::new(OptConfig::all());
        let mut sink = MemSink::default();
        let w = eng.submit(&mut sink, &TaskSpec::new("w").depend(x, AccessMode::Out));
        let r = eng.submit(&mut sink, &TaskSpec::new("r").depend(x, AccessMode::In));
        assert_eq!(sink.edges, vec![(w.0, r.0)]);
        assert_eq!(eng.stats().edges_created, 1);
    }

    #[test]
    fn independent_reads_share_no_edges() {
        let (_s, x, _y) = space2();
        let mut eng = DiscoveryEngine::new(OptConfig::all());
        let mut sink = MemSink::default();
        eng.submit(&mut sink, &TaskSpec::new("w").depend(x, AccessMode::Out));
        eng.submit(&mut sink, &TaskSpec::new("r1").depend(x, AccessMode::In));
        eng.submit(&mut sink, &TaskSpec::new("r2").depend(x, AccessMode::In));
        // two reader edges, no edge between readers
        assert_eq!(sink.edges.len(), 2);
        assert!(sink.edges.iter().all(|&(p, _)| p == 0));
    }

    #[test]
    fn write_after_reads_depends_on_all_readers() {
        let (_s, x, _y) = space2();
        let mut eng = DiscoveryEngine::new(OptConfig::all());
        let mut sink = MemSink::default();
        eng.submit(&mut sink, &TaskSpec::new("w0").depend(x, AccessMode::Out));
        eng.submit(&mut sink, &TaskSpec::new("r1").depend(x, AccessMode::In));
        eng.submit(&mut sink, &TaskSpec::new("r2").depend(x, AccessMode::In));
        let w = eng.submit(&mut sink, &TaskSpec::new("w1").depend(x, AccessMode::Out));
        // w1 depends on r1, r2 (not directly on w0: transitive through readers)
        let to_w: Vec<u32> = sink
            .edges
            .iter()
            .filter(|&&(_, s)| s == w.0)
            .map(|&(p, _)| p)
            .collect();
        assert_eq!(to_w, vec![1, 2]);
    }

    #[test]
    fn write_after_write_chains() {
        let (_s, x, _y) = space2();
        let mut eng = DiscoveryEngine::new(OptConfig::all());
        let mut sink = MemSink::default();
        eng.submit(&mut sink, &TaskSpec::new("w0").depend(x, AccessMode::Out));
        eng.submit(&mut sink, &TaskSpec::new("w1").depend(x, AccessMode::InOut));
        eng.submit(&mut sink, &TaskSpec::new("w2").depend(x, AccessMode::Out));
        assert_eq!(sink.edges, vec![(0, 1), (1, 2)]);
    }

    /// Paper Fig. 3: a task writing (x, y) followed by a task reading
    /// (x, y). Without optimizations this is two edges; (b) elides the
    /// duplicate; user-side (a) would avoid even the probes.
    #[test]
    fn opt_b_elides_duplicate_edges_fig3() {
        let (_s, x, y) = space2();
        let run = |opts: OptConfig| {
            let mut eng = DiscoveryEngine::new(opts);
            let mut sink = MemSink::default();
            eng.submit(
                &mut sink,
                &TaskSpec::new("w")
                    .depend(x, AccessMode::Out)
                    .depend(y, AccessMode::Out),
            );
            eng.submit(
                &mut sink,
                &TaskSpec::new("r")
                    .depend(x, AccessMode::In)
                    .depend(y, AccessMode::In),
            );
            (sink.edges.len(), eng.stats())
        };
        let (edges_none, stats_none) = run(OptConfig::none());
        let (edges_b, stats_b) = run(OptConfig::dedup_only());
        assert_eq!(edges_none, 2, "duplicate edge materialized without (b)");
        assert_eq!(edges_b, 1, "(b) elides the duplicate");
        assert_eq!(stats_none.dup_probes, 0);
        assert_eq!(stats_b.dup_probes, 2);
        assert_eq!(stats_b.dup_skipped, 1);
    }

    /// Paper Fig. 4: m inoutset writers then n readers — m·n edges without
    /// (c), m+n with (c).
    #[test]
    fn opt_c_redirect_reduces_mn_to_m_plus_n_fig4() {
        let (m, n) = (5usize, 7usize);
        let run = |opts: OptConfig| {
            let mut s = HandleSpace::new();
            let x = s.region("x", 64);
            let mut eng = DiscoveryEngine::new(opts);
            let mut sink = MemSink::default();
            for _ in 0..m {
                eng.submit(
                    &mut sink,
                    &TaskSpec::new("X").depend(x, AccessMode::InOutSet),
                );
            }
            for _ in 0..n {
                eng.submit(&mut sink, &TaskSpec::new("Y").depend(x, AccessMode::In));
            }
            (sink.edges.len(), sink.redirects.len(), eng.stats())
        };
        let (edges_plain, r_plain, _) = run(OptConfig::none());
        let (edges_c, r_c, stats_c) = run(OptConfig::redirect_only());
        assert_eq!(edges_plain, m * n);
        assert_eq!(r_plain, 0);
        assert_eq!(edges_c, m + n);
        assert_eq!(r_c, 1);
        assert_eq!(stats_c.redirect_nodes, 1);
    }

    #[test]
    fn inoutset_members_do_not_order_against_each_other() {
        let (_s, x, _y) = space2();
        let mut eng = DiscoveryEngine::new(OptConfig::all());
        let mut sink = MemSink::default();
        let w = eng.submit(&mut sink, &TaskSpec::new("w").depend(x, AccessMode::Out));
        let a = eng.submit(
            &mut sink,
            &TaskSpec::new("a").depend(x, AccessMode::InOutSet),
        );
        let b = eng.submit(
            &mut sink,
            &TaskSpec::new("b").depend(x, AccessMode::InOutSet),
        );
        // a and b each depend on w only.
        assert_eq!(sink.edges, vec![(w.0, a.0), (w.0, b.0)]);
    }

    #[test]
    fn single_member_set_needs_no_redirect() {
        let (_s, x, _y) = space2();
        let mut eng = DiscoveryEngine::new(OptConfig::all());
        let mut sink = MemSink::default();
        let a = eng.submit(
            &mut sink,
            &TaskSpec::new("a").depend(x, AccessMode::InOutSet),
        );
        let r = eng.submit(&mut sink, &TaskSpec::new("r").depend(x, AccessMode::In));
        assert_eq!(sink.edges, vec![(a.0, r.0)]);
        assert_eq!(eng.stats().redirect_nodes, 0);
    }

    #[test]
    fn redirect_is_shared_by_all_successors() {
        let mut s = HandleSpace::new();
        let x = s.region("x", 64);
        let mut eng = DiscoveryEngine::new(OptConfig::all());
        let mut sink = MemSink::default();
        for _ in 0..3 {
            eng.submit(
                &mut sink,
                &TaskSpec::new("X").depend(x, AccessMode::InOutSet),
            );
        }
        eng.submit(&mut sink, &TaskSpec::new("r1").depend(x, AccessMode::In));
        eng.submit(&mut sink, &TaskSpec::new("r2").depend(x, AccessMode::In));
        let w = eng.submit(&mut sink, &TaskSpec::new("w").depend(x, AccessMode::Out));
        // one redirect only; w depends on the readers. Ids: X=0,1,2, r1=3,
        // redirect R=4 (materialized while resolving r1's deps), r2=5.
        assert_eq!(eng.stats().redirect_nodes, 1);
        let to_w: Vec<u32> = sink
            .edges
            .iter()
            .filter(|&&(_, su)| su == w.0)
            .map(|&(p, _)| p)
            .collect();
        assert_eq!(to_w, vec![3, 5]);
        // both readers attach to the single redirect node 4
        let from_r: Vec<u32> = sink
            .edges
            .iter()
            .filter(|&&(p, _)| p == 4)
            .map(|&(_, su)| su)
            .collect();
        assert_eq!(from_r, vec![3, 5]);
    }

    #[test]
    fn readers_split_inoutset_groups() {
        let mut s = HandleSpace::new();
        let x = s.region("x", 64);
        let mut eng = DiscoveryEngine::new(OptConfig::none());
        let mut sink = MemSink::default();
        let a = eng.submit(
            &mut sink,
            &TaskSpec::new("a").depend(x, AccessMode::InOutSet),
        );
        let r = eng.submit(&mut sink, &TaskSpec::new("r").depend(x, AccessMode::In));
        let b = eng.submit(
            &mut sink,
            &TaskSpec::new("b").depend(x, AccessMode::InOutSet),
        );
        // b opens a NEW group ordered after reader r, not joining a's group.
        assert!(sink.edges.contains(&(a.0, r.0)));
        assert!(sink.edges.contains(&(r.0, b.0)));
        assert!(!sink.edges.contains(&(a.0, b.0)));
    }

    #[test]
    fn pruning_skips_consumed_predecessors() {
        let (_s, x, _y) = space2();
        let mut eng = DiscoveryEngine::new(OptConfig::all());
        let mut sink = MemSink::default();
        let w = eng.submit(&mut sink, &TaskSpec::new("w").depend(x, AccessMode::Out));
        sink.consumed.insert(w.0); // w completed before r was discovered
        eng.submit(&mut sink, &TaskSpec::new("r").depend(x, AccessMode::In));
        assert!(sink.edges.is_empty());
        assert_eq!(eng.stats().edges_pruned, 1);
        assert_eq!(eng.stats().edges_created, 0);
    }

    #[test]
    fn no_self_edges() {
        let (_s, x, _y) = space2();
        let mut eng = DiscoveryEngine::new(OptConfig::none());
        let mut sink = MemSink::default();
        eng.submit(
            &mut sink,
            &TaskSpec::new("rw")
                .depend(x, AccessMode::In)
                .depend(x, AccessMode::Out),
        );
        assert!(sink.edges.is_empty());
    }

    #[test]
    fn reset_handle_state_cuts_inter_iteration_edges() {
        let (_s, x, _y) = space2();
        let mut eng = DiscoveryEngine::new(OptConfig::all());
        let mut sink = MemSink::default();
        eng.submit(&mut sink, &TaskSpec::new("w").depend(x, AccessMode::Out));
        eng.reset_handle_state();
        eng.submit(&mut sink, &TaskSpec::new("r").depend(x, AccessMode::In));
        assert!(
            sink.edges.is_empty(),
            "barrier reset removes inter-iteration edges"
        );
    }

    #[test]
    fn reset_clears_duplicate_probe_table() {
        // With dedup on, discover `w -> r` (edge 0 -> 1), then reset and
        // replay the same pattern into a fresh sink whose ids restart at 0.
        // A stale `last_succ[0] == 1` entry would suppress the new graph's
        // only real edge.
        let (_s, x, _y) = space2();
        let mut eng = DiscoveryEngine::new(OptConfig::all());
        let mut sink = MemSink::default();
        eng.submit(&mut sink, &TaskSpec::new("w").depend(x, AccessMode::Out));
        eng.submit(&mut sink, &TaskSpec::new("r").depend(x, AccessMode::In));
        assert_eq!(sink.edges, vec![(0, 1)]);

        eng.reset_handle_state();
        let mut sink2 = MemSink::default();
        eng.submit(&mut sink2, &TaskSpec::new("w").depend(x, AccessMode::Out));
        eng.submit(&mut sink2, &TaskSpec::new("r").depend(x, AccessMode::In));
        assert_eq!(
            sink2.edges,
            vec![(0, 1)],
            "probe table from the previous graph must not prune a real edge"
        );
    }

    #[test]
    fn every_task_is_sealed_exactly_once() {
        let (_s, x, y) = space2();
        let mut eng = DiscoveryEngine::new(OptConfig::all());
        let mut sink = MemSink::default();
        for i in 0..10 {
            let mode = if i % 3 == 0 {
                AccessMode::Out
            } else {
                AccessMode::In
            };
            eng.submit(
                &mut sink,
                &TaskSpec::new("t").depend(x, mode).depend(y, AccessMode::In),
            );
        }
        let mut sealed = sink.sealed.clone();
        sealed.sort_unstable();
        sealed.dedup();
        assert_eq!(sealed.len(), sink.n_nodes as usize);
    }

    #[test]
    fn stats_edge_accounting_is_consistent() {
        let (_s, x, y) = space2();
        let mut eng = DiscoveryEngine::new(OptConfig::dedup_only());
        let mut sink = MemSink::default();
        eng.submit(
            &mut sink,
            &TaskSpec::new("w")
                .depend(x, AccessMode::Out)
                .depend(y, AccessMode::Out),
        );
        eng.submit(
            &mut sink,
            &TaskSpec::new("r")
                .depend(x, AccessMode::In)
                .depend(y, AccessMode::In),
        );
        let st = eng.stats();
        assert_eq!(st.edges_attempted(), 2);
        assert_eq!(st.edges_created, 1);
        assert_eq!(st.dup_skipped, 1);
        assert_eq!(st.tasks, 2);
        assert_eq!(st.depend_items, 4);
        assert_eq!(st.nodes(), 2);
    }

    /// A sink whose nodes finish on a fixed schedule: node `p` is complete
    /// once `delays[p]` further nodes exist (never for [`NEVER`]). The
    /// clock is the node count, which the memo does not change, so a
    /// memo engine and a reference engine fed the same stream see the
    /// same completions at every request. Completion is monotone, as on a
    /// live graph.
    struct ScheduleSink {
        delays: Vec<u32>,
        n_nodes: u32,
        edges: Vec<(u32, u32)>,
        add_edge_calls: u64,
    }

    const NEVER: u32 = u32::MAX;

    impl ScheduleSink {
        fn new(delays: Vec<u32>) -> Self {
            ScheduleSink {
                delays,
                n_nodes: 0,
                edges: Vec::new(),
                add_edge_calls: 0,
            }
        }
    }

    impl GraphSink for ScheduleSink {
        fn add_task(&mut self, _spec: &SpecView<'_>) -> TaskId {
            self.add_redirect()
        }
        fn add_redirect(&mut self) -> TaskId {
            self.n_nodes += 1;
            TaskId(self.n_nodes - 1)
        }
        fn add_edge(&mut self, pred: TaskId, succ: TaskId) -> bool {
            self.add_edge_calls += 1;
            let delay = self.delays[pred.index() % self.delays.len()];
            if delay != NEVER && pred.0 + delay < self.n_nodes {
                return false;
            }
            self.edges.push((pred.0, succ.0));
            true
        }
        fn seal(&mut self, _task: TaskId) {}
    }

    /// Discover `program` (per task: `(handle, mode)` items) once through
    /// the memo and once through the pre-memo join loop.
    fn memo_and_reference(
        program: &[Vec<(usize, AccessMode)>],
        delays: &[u32],
        opts: OptConfig,
    ) -> [(DiscoveryStats, ScheduleSink); 2] {
        let mut s = HandleSpace::new();
        let handles: Vec<_> = (0..4).map(|_| s.region("h", 64)).collect();
        [false, true].map(|reference_join| {
            let mut eng = DiscoveryEngine::new(opts);
            eng.reference_join = reference_join;
            let mut sink = ScheduleSink::new(delays.to_vec());
            for deps in program {
                let mut spec = TaskSpec::new("t");
                for &(h, mode) in deps {
                    spec = spec.depend(handles[h], mode);
                }
                eng.submit(&mut sink, &spec);
            }
            (eng.stats(), sink)
        })
    }

    fn assert_memo_exact(program: &[Vec<(usize, AccessMode)>], delays: &[u32], opts: OptConfig) {
        let [(stats, memo), (ref_stats, reference)] = memo_and_reference(program, delays, opts);
        assert_eq!(stats, ref_stats, "every counter as without the memo");
        assert_eq!(memo.edges, reference.edges, "same edges, same order");
        assert!(memo.add_edge_calls <= reference.add_edge_calls);
    }

    /// Members whose own depend list also reaches a finished base
    /// predecessor: the duplicate probe still runs against memoized
    /// predecessors, so `dup_skipped` and `edges_pruned` split exactly as
    /// before, in either depend-list order.
    #[test]
    fn memo_keeps_duplicate_probes_on_pruned_bases() {
        use AccessMode::*;
        let mut program = vec![vec![(0, In), (1, Out)], vec![(0, InOutSet)]];
        for k in 0..6 {
            program.push(if k % 2 == 0 {
                vec![(1, In), (0, InOutSet)]
            } else {
                vec![(0, InOutSet), (1, In)]
            });
        }
        // Task 0 (the base) finishes at once; nothing else ever does.
        let delays: Vec<u32> = (0..64).map(|i| if i == 0 { 0 } else { NEVER }).collect();
        for opts in [OptConfig::all(), OptConfig::none()] {
            assert_memo_exact(&program, &delays, opts);
        }
        let [(stats, memo), (_, reference)] =
            memo_and_reference(&program, &delays, OptConfig::all());
        assert_eq!(stats.dup_skipped, 6);
        assert!(
            memo.add_edge_calls < reference.add_edge_calls,
            "later members skip the sink for the finished base"
        );
    }

    /// Fig. 4's group behind n finished readers: only the opener and the
    /// first joiner ask the sink about them — 2n calls instead of m·n.
    #[test]
    fn memo_asks_about_a_finished_base_twice_per_group() {
        let (n, m) = (5usize, 7usize);
        let mut program = vec![vec![(0, AccessMode::Out)]];
        program.extend((0..n).map(|_| vec![(0, AccessMode::In)]));
        program.extend((0..m).map(|_| vec![(0, AccessMode::InOutSet)]));
        let delays = vec![0u32; 64];
        let [(stats, memo), (ref_stats, reference)] =
            memo_and_reference(&program, &delays, OptConfig::all());
        assert_eq!(stats, ref_stats);
        // n reader edges, then the group: the opener plus m − 1 joiners.
        assert_eq!(stats.edges_pruned as usize, n + m * n);
        assert_eq!(reference.add_edge_calls as usize, n + m * n);
        assert_eq!(memo.add_edge_calls as usize, n + 2 * n);
    }

    fn program_strategy() -> impl Strategy<Value = Vec<Vec<(usize, AccessMode)>>> {
        // InOutSet carries half the weight so groups grow long enough to
        // see bases finish mid-group.
        let item = (0usize..3, 0u8..6).prop_map(|(h, m)| {
            let mode = match m {
                0 => AccessMode::In,
                1 => AccessMode::Out,
                2 => AccessMode::InOut,
                _ => AccessMode::InOutSet,
            };
            (h, mode)
        });
        prop::collection::vec(prop::collection::vec(item, 1..=4), 1..=60)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The memo is exact: against a random monotone completion
        /// schedule, every `DiscoveryStats` field and the created-edge
        /// list equal the pre-memo join loop's, under every optimization
        /// switch.
        #[test]
        fn memo_matches_the_reference_join(
            program in program_strategy(),
            delays in prop::collection::vec(0u32..12, 128),
        ) {
            let delays: Vec<u32> = delays
                .into_iter()
                .map(|d| if d >= 9 { NEVER } else { d })
                .collect();
            for opts in [
                OptConfig::all(),
                OptConfig::none(),
                OptConfig::dedup_only(),
                OptConfig::redirect_only(),
            ] {
                let [(stats, memo), (ref_stats, reference)] =
                    memo_and_reference(&program, &delays, opts);
                prop_assert_eq!(stats, ref_stats);
                prop_assert_eq!(&memo.edges, &reference.edges);
                prop_assert!(memo.add_edge_calls <= reference.add_edge_calls);
            }
        }
    }
}
