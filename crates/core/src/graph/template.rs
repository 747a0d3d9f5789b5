//! Persistent graph capture — optimization (p).
//!
//! A [`TemplateRecorder`] is a [`GraphSink`] that never prunes: it records
//! every node and edge of one iteration's discovery. The finished
//! [`GraphTemplate`] is a compact CSR graph that executors can re-instance
//! per iteration for the cost of resetting counters and re-copying
//! firstprivate data — no descriptor allocation, no `depend` processing, no
//! edge insertion.

use super::GraphSink;
use crate::task::{SpecView, TaskBody, TaskId};
use crate::workdesc::{CommOp, WorkDesc};

/// A captured task node.
#[derive(Clone)]
pub struct TemplateNode {
    /// Profiling name.
    pub name: &'static str,
    /// Body, if the recorder wanted bodies.
    pub body: Option<TaskBody>,
    /// Communication side effect.
    pub comm: Option<CommOp>,
    /// Cost-model description.
    pub work: WorkDesc,
    /// Firstprivate payload size (the per-iteration memcpy).
    pub fp_bytes: u32,
    /// Whether this is an optimization-(c) redirect node.
    pub is_redirect: bool,
}

impl std::fmt::Debug for TemplateNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TemplateNode")
            .field("name", &self.name)
            .field("is_redirect", &self.is_redirect)
            .field("fp_bytes", &self.fp_bytes)
            .finish()
    }
}

/// Records one iteration's discovery into a [`GraphTemplate`].
pub struct TemplateRecorder {
    nodes: Vec<TemplateNode>,
    edges: Vec<(u32, u32)>,
    want_bodies: bool,
}

impl TemplateRecorder {
    /// A recorder; `want_bodies = false` skips closure retention for
    /// cost-model-only consumers.
    pub fn new(want_bodies: bool) -> Self {
        TemplateRecorder {
            nodes: Vec::new(),
            edges: Vec::new(),
            want_bodies,
        }
    }

    /// Finish recording and build the CSR template.
    pub fn finish(self) -> GraphTemplate {
        GraphTemplate::from_parts(self.nodes, &self.edges)
    }
}

impl GraphSink for TemplateRecorder {
    fn add_task(&mut self, spec: &SpecView<'_>) -> TaskId {
        let id = TaskId::from_index(self.nodes.len());
        // Capture owns its data: clone out of the view (this allocation
        // is capture-only — the streaming hot path never records).
        self.nodes.push(TemplateNode {
            name: spec.name,
            body: if self.want_bodies {
                spec.body.cloned()
            } else {
                None
            },
            comm: spec.comm,
            work: WorkDesc {
                flops: spec.flops,
                footprint: spec.footprint.to_vec(),
            },
            fp_bytes: spec.fp_bytes,
            is_redirect: false,
        });
        id
    }

    fn add_redirect(&mut self) -> TaskId {
        let id = TaskId::from_index(self.nodes.len());
        self.nodes.push(TemplateNode {
            name: "<redirect>",
            body: None,
            comm: None,
            work: WorkDesc::default(),
            fp_bytes: 0,
            is_redirect: true,
        });
        id
    }

    fn add_edge(&mut self, pred: TaskId, succ: TaskId) -> bool {
        // Persistent capture never prunes: every edge must exist for the
        // graph to be correct on later iterations (paper §3.2).
        self.edges.push((pred.0, succ.0));
        true
    }

    fn seal(&mut self, _task: TaskId) {}

    fn wants_bodies(&self) -> bool {
        self.want_bodies
    }
}

/// A captured, re-instantiable task dependency graph (CSR form).
#[derive(Clone, Debug)]
pub struct GraphTemplate {
    nodes: Vec<TemplateNode>,
    /// CSR offsets into `succs`; length `nodes.len() + 1`.
    succ_off: Vec<u32>,
    succs: Vec<u32>,
    indegree: Vec<u32>,
    n_edges: u64,
    /// Application tasks (excluding redirects) — cached at build time;
    /// counters and cost models query it per iteration.
    n_tasks: usize,
    /// Zero-indegree nodes, precomputed at build time: `roots()` is
    /// consulted every persistent iteration and must not rescan.
    roots: Vec<u32>,
}

impl GraphTemplate {
    fn from_parts(nodes: Vec<TemplateNode>, edges: &[(u32, u32)]) -> Self {
        let n = nodes.len();
        let mut succ_off = vec![0u32; n + 1];
        let mut indegree = vec![0u32; n];
        for &(p, s) in edges {
            succ_off[p as usize + 1] += 1;
            indegree[s as usize] += 1;
        }
        for i in 0..n {
            succ_off[i + 1] += succ_off[i];
        }
        let mut cursor = succ_off.clone();
        let mut succs = vec![0u32; edges.len()];
        for &(p, s) in edges {
            succs[cursor[p as usize] as usize] = s;
            cursor[p as usize] += 1;
        }
        let n_tasks = nodes.iter().filter(|n| !n.is_redirect).count();
        let roots = (0..n as u32)
            .filter(|&i| indegree[i as usize] == 0)
            .collect();
        GraphTemplate {
            nodes,
            succ_off,
            succs,
            indegree,
            n_edges: edges.len() as u64,
            n_tasks,
            roots,
        }
    }

    /// Number of nodes (tasks + redirects).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of application tasks (excluding redirects; cached — O(1)).
    pub fn n_tasks(&self) -> usize {
        self.n_tasks
    }

    /// Number of edges.
    pub fn n_edges(&self) -> u64 {
        self.n_edges
    }

    /// Node metadata.
    pub fn node(&self, id: TaskId) -> &TemplateNode {
        &self.nodes[id.index()]
    }

    /// All node ids.
    pub fn ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.nodes.len() as u32).map(TaskId)
    }

    /// Successors of `id`.
    pub fn successors(&self, id: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        let lo = self.succ_off[id.index()] as usize;
        let hi = self.succ_off[id.index() + 1] as usize;
        self.succs[lo..hi].iter().map(|&s| TaskId(s))
    }

    /// In-degree of `id` (the pending-predecessor reset value).
    pub fn indegree(&self, id: TaskId) -> u32 {
        self.indegree[id.index()]
    }

    /// The dense in-degree array, indexed by node id — the source the
    /// persistent bulk re-arm sweeps (DESIGN.md §4.4).
    pub fn indegrees(&self) -> &[u32] {
        &self.indegree
    }

    /// Nodes with no predecessors — ready at the start of each iteration
    /// (precomputed at build time).
    pub fn roots(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.roots.iter().map(|&i| TaskId(i))
    }

    /// Total firstprivate bytes: what one persistent re-instance memcpys.
    pub fn firstprivate_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.fp_bytes as u64).sum()
    }

    /// Whether every edge goes from a lower to a higher id. Holds for
    /// redirect-free graphs (sequential discovery); an optimization-(c)
    /// redirect node is materialized while resolving its *successor's*
    /// depend list, so it can carry a higher id than that successor.
    pub fn is_topologically_ordered(&self) -> bool {
        self.ids().all(|p| self.successors(p).all(|s| s.0 > p.0))
    }

    /// Export the graph in Graphviz DOT format, one node per task
    /// (redirect nodes drawn as points), for the kind of TDG inspection
    /// tooling the paper notes is missing from the ecosystem.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph tdg {\n  rankdir=TB;\n");
        for id in self.ids() {
            let n = self.node(id);
            if n.is_redirect {
                out.push_str(&format!("  t{} [shape=point, label=\"\"];\n", id.0));
            } else {
                out.push_str(&format!(
                    "  t{} [shape=box, label=\"{}#{}\"];\n",
                    id.0, n.name, id.0
                ));
            }
        }
        for p in self.ids() {
            for s in self.successors(p) {
                out.push_str(&format!("  t{} -> t{};\n", p.0, s.0));
            }
        }
        out.push_str("}\n");
        out
    }

    /// Whether the graph is acyclic (Kahn's algorithm) — the invariant
    /// that holds for *every* discovered graph, redirects included.
    pub fn is_acyclic(&self) -> bool {
        let n = self.n_nodes();
        let mut indeg: Vec<u32> = (0..n).map(|i| self.indegree(TaskId(i as u32))).collect();
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0usize;
        while let Some(u) = queue.pop() {
            seen += 1;
            for v in self.successors(TaskId(u as u32)) {
                indeg[v.index()] -= 1;
                if indeg[v.index()] == 0 {
                    queue.push(v.index());
                }
            }
        }
        seen == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessMode;
    use crate::graph::DiscoveryEngine;
    use crate::handle::HandleSpace;
    use crate::opts::OptConfig;
    use crate::task::TaskSpec;

    fn diamond() -> GraphTemplate {
        // w -> (r1, r2) -> w2
        let mut s = HandleSpace::new();
        let x = s.region("x", 64);
        let mut eng = DiscoveryEngine::new(OptConfig::all());
        let mut rec = TemplateRecorder::new(false);
        eng.submit(&mut rec, &TaskSpec::new("w").depend(x, AccessMode::Out));
        eng.submit(&mut rec, &TaskSpec::new("r1").depend(x, AccessMode::In));
        eng.submit(&mut rec, &TaskSpec::new("r2").depend(x, AccessMode::In));
        eng.submit(&mut rec, &TaskSpec::new("w2").depend(x, AccessMode::Out));
        rec.finish()
    }

    #[test]
    fn csr_structure_matches_diamond() {
        let t = diamond();
        assert_eq!(t.n_nodes(), 4);
        assert_eq!(t.n_tasks(), 4);
        assert_eq!(t.n_edges(), 4);
        assert_eq!(
            t.successors(TaskId(0)).collect::<Vec<_>>(),
            vec![TaskId(1), TaskId(2)]
        );
        assert_eq!(t.successors(TaskId(1)).collect::<Vec<_>>(), vec![TaskId(3)]);
        assert_eq!(t.indegree(TaskId(0)), 0);
        assert_eq!(t.indegree(TaskId(3)), 2);
        assert_eq!(t.roots().collect::<Vec<_>>(), vec![TaskId(0)]);
    }

    #[test]
    fn template_is_topologically_ordered() {
        assert!(diamond().is_topologically_ordered());
        assert!(diamond().is_acyclic());
    }

    #[test]
    fn redirect_graphs_are_acyclic_but_not_id_ordered() {
        let mut s = HandleSpace::new();
        let x = s.region("x", 64);
        let mut eng = DiscoveryEngine::new(OptConfig::all());
        let mut rec = TemplateRecorder::new(false);
        eng.submit(
            &mut rec,
            &TaskSpec::new("a").depend(x, AccessMode::InOutSet),
        );
        eng.submit(
            &mut rec,
            &TaskSpec::new("b").depend(x, AccessMode::InOutSet),
        );
        eng.submit(&mut rec, &TaskSpec::new("r").depend(x, AccessMode::In));
        let t = rec.finish();
        assert!(t.is_acyclic());
        assert!(
            !t.is_topologically_ordered(),
            "the redirect (id 3) precedes the reader (id 2)"
        );
    }

    #[test]
    fn recorder_never_prunes() {
        use crate::graph::GraphSink;
        let mut rec = TemplateRecorder::new(false);
        let a = rec.add_task(&TaskSpec::new("a").view());
        let b = rec.add_task(&TaskSpec::new("b").view());
        assert!(rec.add_edge(a, b));
        let t = rec.finish();
        assert_eq!(t.n_edges(), 1);
    }

    #[test]
    fn redirect_nodes_are_marked_and_not_counted_as_tasks() {
        let mut s = HandleSpace::new();
        let x = s.region("x", 64);
        let mut eng = DiscoveryEngine::new(OptConfig::all());
        let mut rec = TemplateRecorder::new(false);
        for _ in 0..3 {
            eng.submit(
                &mut rec,
                &TaskSpec::new("X").depend(x, AccessMode::InOutSet),
            );
        }
        eng.submit(&mut rec, &TaskSpec::new("Y").depend(x, AccessMode::In));
        let t = rec.finish();
        assert_eq!(t.n_nodes(), 5);
        assert_eq!(t.n_tasks(), 4);
        let redirects: Vec<_> = t.ids().filter(|&id| t.node(id).is_redirect).collect();
        assert_eq!(redirects.len(), 1);
        // 3 member->R edges + 1 R->Y edge
        assert_eq!(t.n_edges(), 4);
    }

    #[test]
    fn dot_export_contains_all_nodes_and_edges() {
        let t = diamond();
        let dot = t.to_dot();
        assert!(dot.starts_with("digraph tdg {"));
        for id in 0..4 {
            assert!(dot.contains(&format!("t{id} [")));
        }
        assert_eq!(dot.matches(" -> ").count(), t.n_edges() as usize);
        assert!(dot.contains("w#0"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn dot_marks_redirects_as_points() {
        let mut s = HandleSpace::new();
        let x = s.region("x", 64);
        let mut eng = DiscoveryEngine::new(OptConfig::all());
        let mut rec = TemplateRecorder::new(false);
        for _ in 0..2 {
            eng.submit(
                &mut rec,
                &TaskSpec::new("X").depend(x, AccessMode::InOutSet),
            );
        }
        eng.submit(&mut rec, &TaskSpec::new("Y").depend(x, AccessMode::In));
        let dot = rec.finish().to_dot();
        assert!(dot.contains("shape=point"));
    }

    #[test]
    fn firstprivate_bytes_sum() {
        let mut rec = TemplateRecorder::new(false);
        use crate::graph::GraphSink;
        rec.add_task(&TaskSpec::new("a").firstprivate_bytes(8).view());
        rec.add_task(&TaskSpec::new("b").firstprivate_bytes(100).view());
        rec.add_redirect();
        let t = rec.finish();
        assert_eq!(t.firstprivate_bytes(), 108);
    }

    #[test]
    fn bodies_dropped_when_not_wanted() {
        use crate::graph::GraphSink;
        let mut rec = TemplateRecorder::new(false);
        assert!(!rec.wants_bodies());
        rec.add_task(&TaskSpec::new("a").body(|_| {}).view());
        let t = rec.finish();
        assert!(t.node(TaskId(0)).body.is_none());

        let mut rec = TemplateRecorder::new(true);
        assert!(rec.wants_bodies());
        rec.add_task(&TaskSpec::new("a").body(|_| {}).view());
        let t = rec.finish();
        assert!(t.node(TaskId(0)).body.is_some());
    }
}
