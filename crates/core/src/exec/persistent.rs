//! Persistent task sub-graph (optimization (p)) on the thread executor.

use super::executor::Executor;
use crate::builder::TaskSubmitter;
use crate::graph::{DiscoveryStats, GraphTemplate};
use crate::opts::OptConfig;
use crate::rt::{NodeRef, PersistentInstance};
use crate::task::TaskId;
use std::sync::Arc;

/// The `#pragma omp ptsg` region of the paper (Fig. 5).
///
/// The first call to [`PersistentRegion::run`] discovers the iteration's
/// graph normally — concurrently with its execution — while capturing every
/// node and edge (no pruning) into a [`GraphTemplate`]. The capture stores
/// only that template. The first replay instances it once into a kernel
/// [`PersistentInstance`], and every replay re-instances it: per node,
/// reset the dependence counter and rewrite the firstprivate payload. A
/// replay processes no `depend` clause and creates no edge, and after the
/// first one it allocates nothing. Instancing is moved, not saved: a
/// capture that is replayed pays it on its first replay instead. Only a
/// capture that is never replayed (followed directly by
/// [`PersistentRegion::invalidate`] or by the region's drop) skips it.
/// An implicit barrier ends every iteration (tasks of iteration *n+1*
/// cannot start before all of *n* completed — the behaviour visible in
/// the paper's Gantt chart, Fig. 8).
pub struct PersistentRegion<'e> {
    exec: &'e Executor,
    opts: OptConfig,
    /// The latest capture; `None` before the first run and after
    /// [`PersistentRegion::invalidate`].
    template: Option<Arc<GraphTemplate>>,
    /// `template` instanced into live nodes, built by its first replay.
    instance: Option<PersistentInstance>,
    /// Recycled publish buffer: reaches the template's root count once
    /// and never regrows, so re-instanced iterations allocate nothing.
    ready_buf: Vec<NodeRef>,
    capture_stats: DiscoveryStats,
    iterations_run: u64,
}

impl<'e> PersistentRegion<'e> {
    pub(crate) fn new(exec: &'e Executor, opts: OptConfig) -> Self {
        PersistentRegion {
            exec,
            opts,
            template: None,
            instance: None,
            ready_buf: Vec::new(),
            capture_stats: DiscoveryStats::default(),
            iterations_run: 0,
        }
    }

    /// Run one iteration. `build` is only invoked on *capturing* calls
    /// (the first one, and the first after [`PersistentRegion::invalidate`]);
    /// otherwise the captured graph is re-instanced and `build` is not
    /// called at all (its task stream is required to be identical, which
    /// the caller promises by using a persistent region).
    ///
    /// Task bodies observe the current iteration via
    /// [`crate::task::TaskCtx::iter`].
    pub fn run<F: FnOnce(&mut dyn TaskSubmitter)>(&mut self, iter: u64, build: F) {
        match &self.template {
            None => {
                let mut session = self.exec.session_capturing(self.opts);
                session.set_iter(iter);
                build(&mut session);
                let (template, stats) = session.finish_capture();
                self.capture_stats = stats;
                self.template = Some(Arc::new(template));
            }
            Some(_) => self.run_instanced(iter),
        }
        self.iterations_run += 1;
    }

    /// Drop the captured graph so the next [`PersistentRegion::run`]
    /// rediscovers and recaptures it. Clones of the template taken through
    /// [`PersistentRegion::template`] stay valid.
    ///
    /// This is the hook for adaptive applications (the paper's §3.2
    /// "Applicability"): when the mesh changes — e.g. an AMR step — the
    /// dependency scheme changes with it, and the capture cost is paid
    /// again, amortized over the iterations until the next adaptation.
    pub fn invalidate(&mut self) {
        self.instance = None;
        self.template = None;
    }

    /// Re-instance and execute one iteration from the template.
    fn run_instanced(&mut self, iter: u64) {
        let Self {
            exec,
            template,
            instance,
            ready_buf,
            ..
        } = self;
        let pinst = instance.get_or_insert_with(|| {
            let template = template.as_ref().expect("replay follows a capture");
            PersistentInstance::new(Arc::clone(template), false)
        });
        let pool = Arc::clone(exec.pool());
        // The producer's whole per-iteration discovery work: counter reset
        // plus the firstprivate "memcpy" (the iteration payload). The
        // thread back-end publishes the whole graph at once; only the
        // template's roots come back ready.
        let now = pool.now_ns();
        pinst.begin_iteration_with(iter, &pool.tracker, &*pool.recorder, now);
        pinst.publish_into(0..pinst.len(), &*pool.recorder, now, ready_buf);
        // Every node was counted by `begin_iteration_with`.
        pool.publish(ready_buf, 0, exec.n_workers());
        // Implicit end-of-iteration barrier (help, then park — never
        // sleep-poll).
        pool.barrier();
    }

    /// The captured template, if a capture has run since the last
    /// [`PersistentRegion::invalidate`].
    pub fn template(&self) -> Option<&Arc<GraphTemplate>> {
        self.template.as_ref()
    }

    /// Discovery statistics of the latest capturing iteration: the first
    /// one, or the first after the latest [`PersistentRegion::invalidate`].
    pub fn first_iteration_stats(&self) -> DiscoveryStats {
        self.capture_stats
    }

    /// Iterations executed so far.
    pub fn iterations_run(&self) -> u64 {
        self.iterations_run
    }

    /// Iterations served by re-instancing the current template (paid no
    /// discovery); `0` right after a capture.
    pub fn reuses(&self) -> u64 {
        self.instance.as_ref().map_or(0, |i| i.reuses())
    }

    /// Ids of all captured tasks (for inspection).
    pub fn task_ids(&self) -> Vec<TaskId> {
        self.template
            .as_ref()
            .map(|t| t.ids().collect())
            .unwrap_or_default()
    }
}
