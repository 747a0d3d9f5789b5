//! Task-dependency-graph discovery.
//!
//! Discovery is the sequential, producer-thread process that turns a stream
//! of submitted [`crate::TaskSpec`]s into graph nodes and precedence edges — the
//! activity whose *speed* the paper identifies as the limiting factor of
//! task-based applications. The logic is factored as:
//!
//! * [`DiscoveryEngine`] — the per-handle dependence state machine with the
//!   edge optimizations (b) and (c). It is back-end agnostic and writes to a
//!   [`GraphSink`].
//! * [`GraphSink`] — implemented by the live thread executor
//!   ([`crate::exec`]), by the virtual-time executor in `ptdg-simrt`, and by
//!   [`TemplateRecorder`] which captures a persistent [`GraphTemplate`].
//!
//! ```
//! use ptdg_core::graph::{DiscoveryEngine, TemplateRecorder};
//! use ptdg_core::{AccessMode, HandleSpace, OptConfig, TaskSpec};
//!
//! let mut space = HandleSpace::new();
//! let x = space.region("x", 4096);
//!
//! let mut engine = DiscoveryEngine::new(OptConfig::all());
//! let mut recorder = TemplateRecorder::new(false);
//! engine.submit(&mut recorder, &TaskSpec::new("w").depend(x, AccessMode::Out));
//! engine.submit(&mut recorder, &TaskSpec::new("r1").depend(x, AccessMode::In));
//! engine.submit(&mut recorder, &TaskSpec::new("r2").depend(x, AccessMode::In));
//!
//! let graph = recorder.finish();
//! assert_eq!(graph.n_tasks(), 3);
//! assert_eq!(graph.n_edges(), 2); // w -> r1, w -> r2
//! assert!(graph.is_acyclic());
//! ```

mod discovery;
mod template;

pub use discovery::DiscoveryEngine;
pub use template::{GraphTemplate, TemplateNode, TemplateRecorder};

use crate::task::{SpecView, TaskId};

/// Where discovery writes nodes and edges.
///
/// `add_edge` returns `false` when the edge was *pruned*: the predecessor
/// has already been consumed, so no precedence constraint is needed. This
/// matches production OpenMP runtimes, where a slow discovery racing with a
/// fast execution produces fewer edges (paper §2.3.3) — and where persistent
/// capture must disable pruning to keep the graph reusable.
pub trait GraphSink {
    /// Materialize a task node from a borrowed view (the allocation-free
    /// submission currency; sinks that must retain the data clone what
    /// they need). Edges follow, then [`GraphSink::seal`].
    fn add_task(&mut self, spec: &SpecView<'_>) -> TaskId;

    /// Materialize an empty redirect node (optimization (c)).
    fn add_redirect(&mut self) -> TaskId;

    /// Add a precedence edge; returns `false` if pruned.
    ///
    /// Pruning must be monotone per predecessor: once an edge from `pred`
    /// is pruned, every later edge from `pred` would be too (completion
    /// is final). The engine relies on this to stop asking about finished
    /// `inoutset` base predecessors (DESIGN.md §4.4).
    fn add_edge(&mut self, pred: TaskId, succ: TaskId) -> bool;

    /// All edges of `task` have been added; it may become ready.
    fn seal(&mut self, task: TaskId);

    /// Whether task bodies are wanted (`false` lets cost-model-only
    /// back-ends skip closure allocation).
    fn wants_bodies(&self) -> bool {
        true
    }
}

/// Counters accumulated by a [`DiscoveryEngine`].
///
/// These are the quantities the paper reports in Fig. 2(a) and Table 2, and
/// the inputs to the simulated discovery cost model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiscoveryStats {
    /// Application tasks submitted.
    pub tasks: u64,
    /// Redirect nodes inserted by optimization (c).
    pub redirect_nodes: u64,
    /// `depend` items processed.
    pub depend_items: u64,
    /// Edges materialized in the sink.
    pub edges_created: u64,
    /// Edges skipped because the predecessor was already consumed.
    pub edges_pruned: u64,
    /// Duplicate-edge probes performed (optimization (b) bookkeeping).
    pub dup_probes: u64,
    /// Duplicate edges elided by optimization (b).
    pub dup_skipped: u64,
}

impl DiscoveryStats {
    /// Edges that would exist with no pruning and no dedup: a structural
    /// upper bound used in tests.
    pub fn edges_attempted(&self) -> u64 {
        self.edges_created + self.edges_pruned + self.dup_skipped
    }

    /// Total nodes including redirects.
    pub fn nodes(&self) -> u64 {
        self.tasks + self.redirect_nodes
    }

    /// Merge counters (e.g. across iterations).
    pub fn merge(&mut self, o: &DiscoveryStats) {
        self.tasks += o.tasks;
        self.redirect_nodes += o.redirect_nodes;
        self.depend_items += o.depend_items;
        self.edges_created += o.edges_created;
        self.edges_pruned += o.edges_pruned;
        self.dup_probes += o.dup_probes;
        self.dup_skipped += o.dup_skipped;
    }
}
