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
    /// Whether `last_writers` is an `inoutset` group. The group accepts
    /// members while no reader has followed it (`readers` is empty).
    writers_are_set: bool,
    /// Redirect node materialized for this group by optimization (c).
    redirect: Option<TaskId>,
    /// Predecessors each member of the `inoutset` group depends on: those
    /// of its opener.
    group_base: InlineVec<TaskId, WRITERS_INLINE>,
    /// Every `group_base` entry carries its completion-memo bit, and the
    /// task that found so is not in the base: a later member joins in one
    /// counting pass ([`Wiring::join_finished`]). Cleared when the base
    /// is rebuilt.
    base_finished: bool,
    /// Readers since the last write.
    readers: InlineVec<TaskId, READERS_INLINE>,
}

impl HandleState {
    /// Make `id` the region's last write: a plain writer, or the opener
    /// of an `inoutset` group (`set`).
    fn open_write(&mut self, id: TaskId, set: bool) {
        self.last_writers.clear();
        self.last_writers.push(id);
        self.writers_are_set = set;
        self.redirect = None;
        self.readers.clear();
    }
}

/// The producer-private edge bookkeeping: everything an edge request
/// touches besides the sink. It is kept apart from the per-handle state
/// so a handle's predecessor lists are walked in place while edges are
/// wired, never copied into a scratch buffer.
#[derive(Debug)]
struct Wiring {
    opts: OptConfig,
    /// `last_succ[pred]` = most recent successor attached to `pred`; the
    /// O(1) duplicate probe of optimization (b). Valid because submission
    /// is sequential: duplicate edges from one task's depend list are
    /// attached consecutively.
    last_succ: Vec<u32>,
    /// Completion memo, one bit per node: set once the sink pruned an
    /// edge from that node. Pruning is monotone per predecessor (see
    /// [`GraphSink::add_edge`]), so every later edge from a marked node
    /// is counted as pruned without asking the sink (DESIGN.md §4.4).
    finished: Vec<u64>,
    stats: DiscoveryStats,
    /// Group-base entries walked through [`Wiring::edge`] (opener and
    /// member walks): pins that a join against a finished base skips it.
    #[cfg(test)]
    base_walked: u64,
}

impl Wiring {
    /// Size the per-node tables for node `id`.
    fn note_node(&mut self, id: TaskId) {
        let idx = id.index();
        if idx >= self.last_succ.len() {
            self.last_succ.resize(idx + 1, NO_SUCC);
            self.finished.resize((idx + 1).div_ceil(64), 0);
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

    /// Whether the completion memo marks `p` finished.
    fn is_finished(&self, p: TaskId) -> bool {
        self.finished[p.index() / 64] & (1u64 << (p.index() % 64)) != 0
    }

    /// Request edge `pred -> succ` after the [`Wiring::probe`]. A
    /// predecessor the memo knows finished is counted as pruned without
    /// a sink call, so every counter reads as if each edge had been
    /// requested.
    fn edge(&mut self, sink: &mut dyn GraphSink, pred: TaskId, succ: TaskId) {
        if !self.probe(pred, succ) {
            return;
        }
        let (word, bit) = (pred.index() / 64, 1u64 << (pred.index() % 64));
        if self.finished[word] & bit != 0 {
            self.stats.edges_pruned += 1;
        } else if sink.add_edge(pred, succ) {
            self.stats.edges_created += 1;
        } else {
            self.stats.edges_pruned += 1;
            self.finished[word] |= bit;
        }
    }

    /// Request an edge from every group-base entry to `succ`; returns
    /// whether the base is now known finished (every entry memoized, and
    /// `succ`, whose self-edge the probe skipped, not among them).
    fn walk_base(&mut self, sink: &mut dyn GraphSink, base: &[TaskId], succ: TaskId) -> bool {
        #[cfg(test)]
        {
            self.base_walked += base.len() as u64;
        }
        let mut finished = true;
        for &p in base {
            self.edge(sink, p, succ);
            finished &= p != succ && self.is_finished(p);
        }
        finished
    }

    /// Join `succ` to a group whose base is known finished: the counters
    /// and `last_succ` writes of [`Wiring::walk_base`], with no sink call.
    /// Every edge is pruned except the duplicates the probe skips.
    fn join_finished(&mut self, base: &[TaskId], succ: TaskId) {
        let n = base.len() as u64;
        if !self.opts.dedup_edges {
            self.stats.edges_pruned += n;
            return;
        }
        let mut skipped = 0;
        for &p in base {
            debug_assert_ne!(p, succ, "a finished base holds no live task");
            let slot = &mut self.last_succ[p.index()];
            skipped += u64::from(*slot == succ.0);
            *slot = succ.0;
        }
        self.stats.dup_probes += n;
        self.stats.dup_skipped += skipped;
        self.stats.edges_pruned += n - skipped;
    }

    /// The predecessors standing for the last write of `st`: its writers,
    /// or the optimization-(c) redirect node funnelling an `inoutset`
    /// group, materialized on first use.
    fn last_write<'s>(
        &mut self,
        sink: &mut dyn GraphSink,
        st: &'s mut HandleState,
    ) -> &'s [TaskId] {
        if !(st.writers_are_set && st.last_writers.len() >= 2 && self.opts.inoutset_redirect) {
            return &st.last_writers;
        }
        if st.redirect.is_none() {
            // Materialize R: members -> R; successors attach to R.
            let r = sink.add_redirect();
            self.stats.redirect_nodes += 1;
            self.note_node(r);
            for &m in &st.last_writers {
                self.edge(sink, m, r);
            }
            sink.seal(r);
            st.redirect = Some(r);
        }
        st.redirect.as_slice()
    }
}

/// Sequential task-dependency-graph discovery.
///
/// One engine instance embodies one producer thread's discovery of one
/// graph (or one iteration of a persistent region). It owns the per-handle
/// dependence state, the duplicate-edge probe table and the completion
/// memo, and emits nodes and edges into a [`GraphSink`].
#[derive(Debug)]
pub struct DiscoveryEngine {
    handles: Vec<HandleState>,
    wire: Wiring,
}

impl DiscoveryEngine {
    /// New engine with the given optimization switches.
    pub fn new(opts: OptConfig) -> Self {
        DiscoveryEngine {
            handles: Vec::new(),
            wire: Wiring {
                opts,
                last_succ: Vec::new(),
                finished: Vec::new(),
                stats: DiscoveryStats::default(),
                #[cfg(test)]
                base_walked: 0,
            },
        }
    }

    /// The optimization configuration in use.
    pub fn opts(&self) -> OptConfig {
        self.wire.opts
    }

    /// Pre-size the engine's tables so discovering up to `nodes` more
    /// nodes over up to `handles` registered regions allocates nothing
    /// (the inline per-handle lists may still spill on first use; see
    /// DESIGN.md §4.4 for the warm-up protocol).
    pub fn reserve(&mut self, nodes: usize, handles: usize) {
        self.wire.last_succ.reserve(nodes);
        self.wire.finished.reserve(nodes.div_ceil(64));
        if handles > self.handles.len() {
            self.handles.resize_with(handles, HandleState::default);
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> DiscoveryStats {
        self.wire.stats
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
            h.redirect = None;
            h.group_base.clear();
            h.base_finished = false;
            h.readers.clear();
        }
        // The per-node tables must reset too: if the sink's ids restart (a
        // fresh graph instance after the barrier), a stale
        // `last_succ[pred] == succ` entry or completion bit from the
        // previous graph would wrongly suppress or prune a real edge of
        // the new one.
        self.wire.last_succ.fill(NO_SUCC);
        self.wire.finished.fill(0);
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
    /// [`crate::builder::SpecBuf`]), and the engine walks each handle's
    /// predecessor lists in place.
    pub fn submit_view(&mut self, sink: &mut dyn GraphSink, view: &SpecView<'_>) -> TaskId {
        let id = sink.add_task(view);
        let wire = &mut self.wire;
        wire.note_node(id);
        wire.stats.tasks += 1;
        wire.stats.depend_items += view.depends.len() as u64;

        for d in view.depends {
            let hidx = d.handle.index();
            if hidx >= self.handles.len() {
                self.handles.resize_with(hidx + 1, HandleState::default);
            }
            let st = &mut self.handles[hidx];
            match d.mode {
                AccessMode::In => {
                    for &p in wire.last_write(sink, st) {
                        wire.edge(sink, p, id);
                    }
                    st.readers.push(id);
                }
                AccessMode::Out | AccessMode::InOut => {
                    if st.readers.is_empty() {
                        for &p in wire.last_write(sink, st) {
                            wire.edge(sink, p, id);
                        }
                    } else {
                        for &p in &st.readers {
                            wire.edge(sink, p, id);
                        }
                    }
                    st.open_write(id, false);
                }
                AccessMode::InOutSet if st.writers_are_set && st.readers.is_empty() => {
                    // Join the open group: an edge from every base
                    // predecessor, none against fellow members.
                    if st.base_finished {
                        wire.join_finished(&st.group_base, id);
                    } else {
                        st.base_finished = wire.walk_base(sink, &st.group_base, id);
                    }
                    st.last_writers.push(id);
                }
                AccessMode::InOutSet => {
                    // Open a new group; its base is what a write would
                    // depend on here.
                    let mut base = std::mem::take(&mut st.group_base);
                    base.clear();
                    if st.readers.is_empty() {
                        base.extend_from_slice(wire.last_write(sink, st));
                    } else {
                        base.extend_from_slice(&st.readers);
                    }
                    st.base_finished = wire.walk_base(sink, &base, id);
                    st.group_base = base;
                    st.open_write(id, true);
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
    use crate::graph::TemplateRecorder;
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
    /// once `delays[p]` further nodes exist (never for [`NEVER`]), so
    /// completion is monotone, as on a live graph. The clock is the node
    /// count, which the sink's answers do not change: every run of one
    /// program meets the same clock at the same request.
    struct ScheduleSink {
        delays: Vec<u32>,
        n_nodes: u32,
        /// Every `add_edge` call: `(pred, succ, node count at the call)`.
        requests: Vec<(u32, u32, u32)>,
        edges: Vec<(u32, u32)>,
        /// Predecessors an edge was pruned from.
        pruned: HashSet<u32>,
        /// Calls about a predecessor that was already pruned.
        asked_again: u64,
    }

    const NEVER: u32 = u32::MAX;

    impl ScheduleSink {
        fn new(delays: Vec<u32>) -> Self {
            ScheduleSink {
                delays,
                n_nodes: 0,
                requests: Vec::new(),
                edges: Vec::new(),
                pruned: HashSet::new(),
                asked_again: 0,
            }
        }

        /// Whether node `p` has finished when `now` nodes exist.
        fn finished(&self, p: u32, now: u32) -> bool {
            let delay = self.delays[p as usize % self.delays.len()];
            delay != NEVER && p + delay < now
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
            self.requests.push((pred.0, succ.0, self.n_nodes));
            if self.pruned.contains(&pred.0) {
                self.asked_again += 1;
            }
            if self.finished(pred.0, self.n_nodes) {
                self.pruned.insert(pred.0);
                return false;
            }
            self.edges.push((pred.0, succ.0));
            true
        }
        fn seal(&mut self, _task: TaskId) {}
    }

    /// Per task: its `(handle, mode)` depend items over handles `0..4`.
    type Program = [Vec<(usize, AccessMode)>];

    fn specs(program: &Program) -> Vec<TaskSpec> {
        let mut s = HandleSpace::new();
        let handles: Vec<_> = (0..4).map(|_| s.region("h", 64)).collect();
        program
            .iter()
            .map(|deps| {
                deps.iter().fold(TaskSpec::new("t"), |spec, &(h, mode)| {
                    spec.depend(handles[h], mode)
                })
            })
            .collect()
    }

    fn run_engine(
        program: &Program,
        delays: Vec<u32>,
        opts: OptConfig,
    ) -> (DiscoveryEngine, ScheduleSink) {
        let mut eng = DiscoveryEngine::new(opts);
        let mut sink = ScheduleSink::new(delays);
        for spec in specs(program) {
            eng.submit(&mut sink, &spec);
        }
        (eng, sink)
    }

    fn discover(
        program: &Program,
        delays: Vec<u32>,
        opts: OptConfig,
    ) -> (DiscoveryStats, ScheduleSink) {
        let (eng, sink) = run_engine(program, delays, opts);
        (eng.stats(), sink)
    }

    fn all_opts() -> [OptConfig; 4] {
        [
            OptConfig::all(),
            OptConfig::none(),
            OptConfig::dedup_only(),
            OptConfig::redirect_only(),
        ]
    }

    /// The completion memo against an oracle that needs nothing from the
    /// engine: run `program` once into a never-pruning sink, which records
    /// every edge request with its clock, and once under `delays`. The
    /// second run must create exactly the recorded requests whose
    /// predecessor was still live, count the rest as pruned, leave every
    /// other counter as it was, and ask about a finished predecessor at
    /// most once. Returns both runs' stats and sinks.
    fn check_memo(
        program: &Program,
        delays: &[u32],
        opts: OptConfig,
    ) -> Result<[(DiscoveryStats, ScheduleSink); 2], TestCaseError> {
        let (all_stats, all) = discover(program, vec![NEVER], opts);
        let (stats, run) = discover(program, delays.to_vec(), opts);
        let live: Vec<(u32, u32)> = all
            .requests
            .iter()
            .filter(|&&(p, _, now)| !run.finished(p, now))
            .map(|&(p, s, _)| (p, s))
            .collect();
        prop_assert_eq!(&run.edges, &live);
        prop_assert_eq!(stats.edges_created, live.len() as u64);
        prop_assert_eq!(
            stats.edges_created + stats.edges_pruned,
            all_stats.edges_created
        );
        let structural = |s: DiscoveryStats| DiscoveryStats {
            edges_created: 0,
            edges_pruned: 0,
            ..s
        };
        prop_assert_eq!(structural(stats), structural(all_stats));
        prop_assert_eq!(run.asked_again, 0);
        Ok([(all_stats, all), (stats, run)])
    }

    #[test]
    fn reset_clears_completion_memo() {
        // Discover `w -> r` into a sink where `w` already finished, so the
        // memo marks node 0; then reset and replay the same pattern into a
        // fresh sink whose ids restart at 0. A stale completion bit would
        // count the new graph's only real edge as pruned.
        let (_s, x, _y) = space2();
        let mut eng = DiscoveryEngine::new(OptConfig::all());
        let mut sink = MemSink::default();
        sink.consumed.insert(0);
        eng.submit(&mut sink, &TaskSpec::new("w").depend(x, AccessMode::Out));
        eng.submit(&mut sink, &TaskSpec::new("r").depend(x, AccessMode::In));
        assert!(sink.edges.is_empty());

        eng.reset_handle_state();
        let mut sink2 = MemSink::default();
        eng.submit(&mut sink2, &TaskSpec::new("w").depend(x, AccessMode::Out));
        eng.submit(&mut sink2, &TaskSpec::new("r").depend(x, AccessMode::In));
        assert_eq!(
            sink2.edges,
            vec![(0, 1)],
            "completion memo from the previous graph must not prune a real edge"
        );
    }

    /// Members whose own depend list also reaches a finished base
    /// predecessor: the duplicate probe still runs against memoized
    /// predecessors, so `dup_skipped` and `edges_pruned` split exactly as
    /// when every edge is requested, in either depend-list order.
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
            check_memo(&program, &delays, opts).unwrap();
        }
        let [(_, all), (stats, run)] = check_memo(&program, &delays, OptConfig::all()).unwrap();
        assert_eq!(stats.dup_skipped, 6);
        assert!(
            run.requests.len() < all.requests.len(),
            "later members skip the sink for the finished base"
        );
    }

    /// Fig. 4's group behind n finished readers of a finished writer: each
    /// finished node is asked about once — n + 1 calls instead of the
    /// n + m·n the edges would take.
    #[test]
    fn memo_asks_about_each_finished_node_once() {
        let (n, m) = (5usize, 7usize);
        let mut program = vec![vec![(0, AccessMode::Out)]];
        program.extend((0..n).map(|_| vec![(0, AccessMode::In)]));
        program.extend((0..m).map(|_| vec![(0, AccessMode::InOutSet)]));
        let delays = vec![0u32; 64];
        let [(_, all), (stats, run)] = check_memo(&program, &delays, OptConfig::all()).unwrap();
        // n reader edges, then the group: the opener plus m − 1 joiners.
        assert_eq!(stats.edges_pruned as usize, n + m * n);
        assert_eq!(all.requests.len(), n + m * n);
        assert_eq!(run.requests.len(), 1 + n);
    }

    /// Fig. 4's group behind n readers: the opener walks the n-entry
    /// base through [`Wiring::edge`]. Once it finds every entry finished,
    /// no later member walks the base, and the counters are those of
    /// requesting every edge. A base that is still live is walked by
    /// every member.
    #[test]
    fn joins_against_a_finished_base_walk_it_once() {
        let (n, m) = (5u64, 7u64);
        let mut program = vec![vec![(0, AccessMode::Out)]];
        program.extend((0..n).map(|_| vec![(0, AccessMode::In)]));
        program.extend((0..m).map(|_| vec![(0, AccessMode::InOutSet)]));
        let specs = specs(&program);
        let (readers, members) = specs.split_at(1 + n as usize);
        for opts in all_opts() {
            for (delay, walked_later) in [(0, 0), (NEVER, n)] {
                let mut eng = DiscoveryEngine::new(opts);
                let mut sink = ScheduleSink::new(vec![delay]);
                for spec in readers {
                    eng.submit(&mut sink, spec);
                }
                let walked: Vec<u64> = members
                    .iter()
                    .map(|spec| {
                        let before = eng.wire.base_walked;
                        eng.submit(&mut sink, spec);
                        eng.wire.base_walked - before
                    })
                    .collect();
                let mut expected = vec![walked_later; m as usize];
                expected[0] = n;
                assert_eq!(walked, expected, "{opts:?}, delay {delay}");
                let edges = n + m * n;
                let (created, pruned) = if delay == NEVER {
                    (edges, 0)
                } else {
                    (0, edges)
                };
                assert_eq!(
                    eng.stats(),
                    DiscoveryStats {
                        tasks: 1 + n + m,
                        redirect_nodes: 0,
                        depend_items: 1 + n + m,
                        edges_created: created,
                        edges_pruned: pruned,
                        dup_probes: if opts.dedup_edges { edges } else { 0 },
                        dup_skipped: 0,
                    },
                    "{opts:?}, delay {delay}"
                );
            }
        }
    }

    /// The depend semantics spelled out naively: the predecessors an
    /// access of `mode` needs, found by rescanning `history`, every
    /// earlier `(task, mode)` access to the same region in submission
    /// order. Self-edges are left in; the caller drops them.
    fn naive_preds(history: &[(u32, AccessMode)], mode: AccessMode) -> Vec<u32> {
        use AccessMode::*;
        let tasks = |h: &[(u32, AccessMode)]| h.iter().map(|a| a.0).collect::<Vec<_>>();
        // Start of the trailing run of accesses with mode `m`.
        let run_start = |h: &[(u32, AccessMode)], m: AccessMode| {
            h.iter().rposition(|a| a.1 != m).map_or(0, |i| i + 1)
        };
        // The last write: one `out`/`inout` task or a whole `inoutset` run.
        let writers = |h: &[(u32, AccessMode)]| match h.iter().rposition(|a| a.1 != In) {
            None => vec![],
            Some(w) if h[w].1 == InOutSet => tasks(&h[run_start(&h[..=w], InOutSet)..=w]),
            Some(w) => vec![h[w].0],
        };
        // What a write depends on: the readers since the last write, or
        // the last write itself when none read it.
        let write_preds = |h: &[(u32, AccessMode)]| {
            let readers = &h[run_start(h, In)..];
            if readers.is_empty() {
                writers(h)
            } else {
                tasks(readers)
            }
        };
        match mode {
            In => writers(history),
            Out | InOut => write_preds(history),
            // A member depends on what its group's opener did: the group
            // is the trailing `inoutset` run, empty for an opener.
            InOutSet => write_preds(&history[..run_start(history, InOutSet)]),
        }
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

    /// Streams built to reach the bulk join: depend lists of up to six
    /// items over three handles, half of them `inoutset`, so one list
    /// repeats a handle, joins groups several times and materializes a
    /// redirect after joining. Most tasks finish within a few nodes, so
    /// group bases are found finished mid-group.
    fn bulk_join_program_strategy() -> impl Strategy<Value = Vec<Vec<(usize, AccessMode)>>> {
        let item = (0usize..3, 0u8..8).prop_map(|(h, m)| {
            let mode = match m {
                0 | 1 => AccessMode::In,
                2 => AccessMode::Out,
                3 => AccessMode::InOut,
                _ => AccessMode::InOutSet,
            };
            (h, mode)
        });
        prop::collection::vec(prop::collection::vec(item, 1..=6), 8..=60)
    }

    /// The bulk join is exact: on streams that join groups against
    /// finished bases, every counter and the created-edge list are those
    /// of the never-pruning run, under every optimization switch. The
    /// bulk path must have skipped a non-empty base walk in at least
    /// `MIN_FIRED` of the cases, so the property cannot hold vacuously.
    #[test]
    fn bulk_joins_match_the_never_pruning_run() {
        const CASES: u32 = 256;
        const MIN_FIRED: u32 = CASES * 3 / 4;
        let programs = bulk_join_program_strategy();
        let schedules = prop::collection::vec(0u32..8, 128);
        let mut fired = 0;
        let name = "bulk_joins_match_the_never_pruning_run";
        proptest::TestRunner::new(ProptestConfig::with_cases(CASES), name).run(name, |rng| {
            let program = programs.generate(rng);
            let delays: Vec<u32> = schedules
                .generate(rng)
                .into_iter()
                .map(|d| if d == 7 { NEVER } else { d })
                .collect();
            let walked = |delays: &[u32], opts| {
                run_engine(&program, delays.to_vec(), opts)
                    .0
                    .wire
                    .base_walked
            };
            let mut hit = false;
            for opts in all_opts() {
                check_memo(&program, &delays, opts)?;
                hit |= walked(&delays, opts) < walked(&[NEVER], opts);
            }
            fired += u32::from(hit);
            Ok(())
        });
        assert!(
            fired >= MIN_FIRED,
            "the bulk join fired in {fired} of {CASES} cases"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The memo is exact: against a random monotone completion
        /// schedule, the created edges are the live requests of a run that
        /// asks about every edge, and every other counter is unchanged,
        /// under every optimization switch.
        #[test]
        fn memo_matches_the_never_pruning_run(
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
                check_memo(&program, &delays, opts)?;
            }
        }

        /// Without (b) and (c), discovery into a template requests exactly
        /// the edges the naive semantics name, duplicates included.
        #[test]
        fn unoptimized_discovery_matches_the_naive_semantics(program in program_strategy()) {
            let mut eng = DiscoveryEngine::new(OptConfig::none());
            let mut rec = TemplateRecorder::new(false);
            let mut expected = Vec::new();
            let mut history: Vec<Vec<(u32, AccessMode)>> = vec![Vec::new(); 4];
            for (t, (spec, deps)) in specs(&program).iter().zip(&program).enumerate() {
                let t = t as u32;
                prop_assert_eq!(eng.submit(&mut rec, spec), TaskId(t));
                for &(h, mode) in deps {
                    for p in naive_preds(&history[h], mode) {
                        if p != t {
                            expected.push((p, t));
                        }
                    }
                    history[h].push((t, mode));
                }
            }
            let graph = rec.finish();
            let mut edges: Vec<(u32, u32)> = graph
                .ids()
                .flat_map(|p| graph.successors(p).map(move |s| (p.0, s.0)))
                .collect();
            edges.sort_unstable();
            expected.sort_unstable();
            prop_assert_eq!(graph.n_nodes(), program.len());
            prop_assert_eq!(edges, expected);
        }
    }
}
