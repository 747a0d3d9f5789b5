//! Back-end-agnostic task submission.
//!
//! Applications describe one iteration of their computation as a stream of
//! task submissions pushed into a [`TaskSubmitter`]. The same description
//! runs on the real thread executor (`crate::exec`), on the virtual-time
//! executor (`ptdg-simrt`), or into a [`crate::graph::TemplateRecorder`] —
//! the analogue of the same OpenMP pragmas executing on different runtimes.
//!
//! The native submission currency is a borrowed [`SpecView`]; owned
//! [`TaskSpec`]s are a convenience wrapper over it. Hot loops build each
//! task into a recycled [`SpecBuf`] so a whole iteration's submissions
//! reuse two small buffers instead of allocating a fresh depend list and
//! footprint per task (DESIGN.md §4.4).

use crate::access::{AccessMode, Depend};
use crate::handle::DataHandle;
use crate::task::{SpecView, TaskBody, TaskCtx, TaskId, TaskSpec};
use crate::workdesc::{CommOp, HandleSlice};
use std::sync::Arc;

/// Receives the producer thread's sequential task stream.
pub trait TaskSubmitter {
    /// Submit one task from a borrowed view — the allocation-free path.
    /// Sinks that must retain the data clone what they need (e.g. via
    /// [`TaskSpec::from_view`]).
    fn submit_view(&mut self, view: &SpecView<'_>) -> TaskId;

    /// Submit one owned task (convenience wrapper).
    fn submit(&mut self, spec: TaskSpec) -> TaskId {
        self.submit_view(&spec.view())
    }

    /// Whether closures are needed — cost-model-only back-ends return
    /// `false` so applications can skip building bodies.
    fn wants_bodies(&self) -> bool {
        true
    }

    /// Whether cost-model data is read: the footprint slices of
    /// [`SpecView::footprint`]. The thread executor's
    /// [`crate::exec::Session`] returns `false` — wall-clock execution
    /// runs bodies and never models memory — so applications can skip
    /// building footprints (a [`SpecBuf::for_sink`] then ignores
    /// [`SpecBuf::touch`]). The default `true` suits the simulator and
    /// every recording or forwarding sink.
    fn wants_work(&self) -> bool {
        true
    }
}

/// An application kernel that can generate its task graph iteration by
/// iteration (the body of the paper's annotated `ptsg` loop).
///
/// Implementations must generate tasks **in the same order and with the
/// same dependency scheme on every iteration** — the precondition of the
/// persistent-graph optimization (paper Fig. 5). Bodies must read the
/// iteration number from [`crate::task::TaskCtx::iter`], never capture it.
pub trait IterationBuilder {
    /// Generate all tasks of iteration `iter`.
    fn build_iteration(&self, sub: &mut dyn TaskSubmitter, iter: u64);

    /// Number of iterations this program wants to run.
    fn iterations(&self) -> u64;
}

/// A recycled task-construction buffer: the allocation-free counterpart
/// of building a fresh [`TaskSpec`] per task.
///
/// One `SpecBuf` lives across a whole submission loop; each task does
/// [`SpecBuf::begin`] (clears the depend list and footprint, keeping
/// their capacity), chains builder calls, then [`SpecBuf::submit`]s the
/// borrowed [`SpecView`]. After the first few tasks warm the two buffers
/// up to the stream's widest depend list, no submission allocates. A
/// buffer made by [`SpecBuf::for_sink`] for a sink that reads no cost
/// model records no footprint at all.
///
/// ```
/// use ptdg_core::builder::{CountingSubmitter, SpecBuf};
/// use ptdg_core::{AccessMode, HandleSpace};
///
/// let mut space = HandleSpace::new();
/// let x = space.region("x", 4096);
/// let mut sub = CountingSubmitter::default();
/// let mut buf = SpecBuf::new();
/// for _ in 0..3 {
///     buf.begin("stencil")
///         .dep(x, AccessMode::InOut)
///         .flops(1e6)
///         .submit(&mut sub);
/// }
/// assert_eq!(sub.tasks, 3);
/// ```
pub struct SpecBuf {
    name: &'static str,
    depends: Vec<Depend>,
    flops: f64,
    footprint: Vec<HandleSlice>,
    comm: Option<CommOp>,
    body: Option<TaskBody>,
    fp_bytes: u32,
    /// [`SpecBuf::touch`] records footprint slices.
    keep_work: bool,
}

impl SpecBuf {
    /// An empty buffer; the first few tasks size its storage.
    pub fn new() -> Self {
        SpecBuf {
            name: "",
            depends: Vec::new(),
            flops: 0.0,
            footprint: Vec::new(),
            comm: None,
            body: None,
            fp_bytes: 16,
            keep_work: true,
        }
    }

    /// An empty buffer for `sub`: when the sink reads no cost model
    /// ([`TaskSubmitter::wants_work`] is `false`), [`SpecBuf::touch`] is
    /// a no-op and every submitted footprint is empty.
    pub fn for_sink(sub: &dyn TaskSubmitter) -> Self {
        SpecBuf {
            keep_work: sub.wants_work(),
            ..SpecBuf::new()
        }
    }

    /// Whether [`SpecBuf::touch`] records slices — callers that compute
    /// footprints in loops can skip the loop when it does not.
    pub fn keeps_work(&self) -> bool {
        self.keep_work
    }

    /// Pre-size for tasks with up to `deps` depend items.
    pub fn with_capacity(deps: usize) -> Self {
        let mut buf = SpecBuf::new();
        buf.depends.reserve(deps);
        buf
    }

    /// Start describing a new task: resets every field, keeping the
    /// depend-list and footprint capacity.
    pub fn begin(&mut self, name: &'static str) -> &mut Self {
        self.name = name;
        self.depends.clear();
        self.flops = 0.0;
        self.footprint.clear();
        self.comm = None;
        self.body = None;
        self.fp_bytes = 16;
        self
    }

    /// Add one depend item.
    pub fn dep(&mut self, handle: DataHandle, mode: AccessMode) -> &mut Self {
        self.depends.push(Depend::new(handle, mode));
        self
    }

    /// Add many depend items.
    pub fn deps(&mut self, items: impl IntoIterator<Item = Depend>) -> &mut Self {
        self.depends.extend(items);
        self
    }

    /// Copy a pre-built depend slice (e.g. a per-phase constant list).
    pub fn deps_slice(&mut self, items: &[Depend]) -> &mut Self {
        self.depends.extend_from_slice(items);
        self
    }

    /// Set the cost-model flop count.
    pub fn flops(&mut self, flops: f64) -> &mut Self {
        self.flops = flops;
        self
    }

    /// Add one cost-model footprint slice (ignored by a buffer whose sink
    /// reads no cost model, see [`SpecBuf::for_sink`]).
    pub fn touch(&mut self, slice: HandleSlice) -> &mut Self {
        if self.keep_work {
            self.footprint.push(slice);
        }
        self
    }

    /// Attach a communication operation (detached-task semantics).
    pub fn comm(&mut self, op: CommOp) -> &mut Self {
        self.comm = Some(op);
        self
    }

    /// Attach a computational body (allocates the closure's `Arc`; pass a
    /// pre-built body via [`SpecBuf::body_arc`] to avoid it).
    pub fn body<F: Fn(&TaskCtx) + Send + Sync + 'static>(&mut self, f: F) -> &mut Self {
        self.body = Some(Arc::new(f));
        self
    }

    /// Attach an already-built body (refcount bump only).
    pub fn body_arc(&mut self, body: TaskBody) -> &mut Self {
        self.body = Some(body);
        self
    }

    /// Set the firstprivate payload size.
    pub fn fp_bytes(&mut self, bytes: u32) -> &mut Self {
        self.fp_bytes = bytes;
        self
    }

    /// Borrow the task described since [`SpecBuf::begin`].
    pub fn view(&self) -> SpecView<'_> {
        SpecView {
            name: self.name,
            depends: &self.depends,
            flops: self.flops,
            footprint: &self.footprint,
            comm: self.comm,
            body: self.body.as_ref(),
            fp_bytes: self.fp_bytes,
        }
    }

    /// Submit the described task.
    pub fn submit(&mut self, sub: &mut dyn TaskSubmitter) -> TaskId {
        sub.submit_view(&self.view())
    }
}

impl Default for SpecBuf {
    fn default() -> Self {
        SpecBuf::new()
    }
}

/// A submitter that simply counts tasks — useful for sizing and tests.
#[derive(Debug, Default)]
pub struct CountingSubmitter {
    /// Tasks seen.
    pub tasks: u64,
    /// Depend items seen.
    pub depend_items: u64,
}

impl TaskSubmitter for CountingSubmitter {
    fn submit_view(&mut self, view: &SpecView<'_>) -> TaskId {
        let id = TaskId(self.tasks as u32);
        self.tasks += 1;
        self.depend_items += view.depends.len() as u64;
        id
    }

    fn wants_bodies(&self) -> bool {
        false
    }
}

/// A submitter that records full specs (testing aid).
#[derive(Default)]
pub struct RecordingSubmitter {
    /// Every submitted spec, in order.
    pub specs: Vec<TaskSpec>,
}

impl TaskSubmitter for RecordingSubmitter {
    fn submit_view(&mut self, view: &SpecView<'_>) -> TaskId {
        let id = TaskId(self.specs.len() as u32);
        self.specs.push(TaskSpec::from_view(view));
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessMode;
    use crate::handle::HandleSpace;

    #[test]
    fn counting_submitter_counts() {
        let mut s = HandleSpace::new();
        let x = s.region("x", 8);
        let mut c = CountingSubmitter::default();
        let id0 = c.submit(TaskSpec::new("a").depend(x, AccessMode::Out));
        let id1 = c.submit(TaskSpec::new("b").depend(x, AccessMode::In));
        assert_eq!(id0, TaskId(0));
        assert_eq!(id1, TaskId(1));
        assert_eq!(c.tasks, 2);
        assert_eq!(c.depend_items, 2);
        assert!(!c.wants_bodies());
    }

    #[test]
    fn recording_submitter_preserves_order_and_bodies() {
        let mut r = RecordingSubmitter::default();
        assert!(r.wants_bodies());
        r.submit(TaskSpec::new("first").body(|_| {}));
        r.submit(TaskSpec::new("second"));
        assert_eq!(r.specs.len(), 2);
        assert_eq!(r.specs[0].name, "first");
        assert!(r.specs[0].body.is_some());
        assert!(r.specs[1].body.is_none());
    }

    #[test]
    fn spec_buf_is_equivalent_to_task_spec() {
        let mut s = HandleSpace::new();
        let x = s.region("x", 8);
        let y = s.region("y", 8);
        let mut r = RecordingSubmitter::default();
        let mut buf = SpecBuf::new();
        buf.begin("k")
            .dep(x, AccessMode::Out)
            .deps([Depend::read(y)])
            .flops(9.0)
            .touch(HandleSlice::whole(x, 8))
            .comm(CommOp::Iallreduce { bytes: 8 })
            .fp_bytes(40)
            .body(|_| {})
            .submit(&mut r);
        let via_spec = TaskSpec::new("k")
            .depend(x, AccessMode::Out)
            .depends([Depend::read(y)])
            .work(crate::workdesc::WorkDesc::compute(9.0).touching(HandleSlice::whole(x, 8)))
            .comm(CommOp::Iallreduce { bytes: 8 })
            .firstprivate_bytes(40);
        let got = &r.specs[0];
        assert_eq!(got.name, via_spec.name);
        assert_eq!(got.depends, via_spec.depends);
        assert_eq!(got.work.flops, via_spec.work.flops);
        assert_eq!(got.work.footprint.len(), 1);
        assert!(got.comm.is_some());
        assert!(got.body.is_some());
        assert_eq!(got.fp_bytes, 40);
    }

    /// Records each submission's footprint length and reads no cost model.
    struct NoWork(Vec<usize>);

    impl TaskSubmitter for NoWork {
        fn submit_view(&mut self, view: &SpecView<'_>) -> TaskId {
            self.0.push(view.footprint.len());
            TaskId::from_index(self.0.len() - 1)
        }

        fn wants_work(&self) -> bool {
            false
        }
    }

    #[test]
    fn spec_buf_for_sink_follows_wants_work() {
        let mut s = HandleSpace::new();
        let x = s.region("x", 8);
        let mut r = RecordingSubmitter::default();
        assert!(r.wants_work(), "the default keeps today's footprints");
        let mut buf = SpecBuf::for_sink(&r);
        assert!(buf.keeps_work());
        buf.begin("k")
            .touch(HandleSlice::whole(x, 8))
            .submit(&mut r);
        assert_eq!(r.specs[0].work.footprint.len(), 1);

        let mut n = NoWork(Vec::new());
        let mut buf = SpecBuf::for_sink(&n);
        assert!(!buf.keeps_work());
        for _ in 0..2 {
            buf.begin("k")
                .dep(x, AccessMode::InOut)
                .touch(HandleSlice::whole(x, 8))
                .submit(&mut n);
        }
        assert_eq!(n.0, vec![0, 0]);
        assert_eq!(buf.footprint.capacity(), 0, "never grows a footprint");
        assert!(SpecBuf::default().keeps_work());
    }

    #[test]
    fn spec_buf_recycles_capacity_between_tasks() {
        let mut s = HandleSpace::new();
        let x = s.region("x", 8);
        let mut c = CountingSubmitter::default();
        let mut buf = SpecBuf::new();
        buf.begin("warm");
        for _ in 0..16 {
            buf.dep(x, AccessMode::In);
        }
        buf.submit(&mut c);
        let cap = buf.depends.capacity();
        for _ in 0..10 {
            buf.begin("steady").dep(x, AccessMode::InOut).submit(&mut c);
            assert_eq!(buf.depends.capacity(), cap, "begin keeps capacity");
        }
        assert_eq!(c.tasks, 11);
    }
}
