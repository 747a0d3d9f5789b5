//! Task identity, specification and bodies.

use crate::access::{AccessMode, Depend};
use crate::handle::DataHandle;
use crate::workdesc::{CommOp, WorkDesc};
use std::fmt;
use std::sync::Arc;

/// Identifier of a task within one discovery session / template.
///
/// Ids are dense and assigned in submission order, which the discovery
/// engine exploits for its O(1) duplicate-edge probe.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The id of the node at `index` of a dense node table.
    ///
    /// Panics once `index` reaches `u32::MAX`: an id must never wrap
    /// onto a live node's (the discovery engine keys its duplicate probe
    /// and completion memo by id), and `u32::MAX` itself is the probe's
    /// empty marker.
    pub fn from_index(index: usize) -> TaskId {
        match u32::try_from(index) {
            Ok(id) if id != u32::MAX => TaskId(id),
            _ => panic!(
                "task id overflow: node {index} exceeds the {} ids a graph may hold",
                u32::MAX
            ),
        }
    }

    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Execution context passed to task bodies.
///
/// With a persistent graph, the same body closure runs once per iteration;
/// `iter` is the firstprivate data that the runtime re-instances — bodies
/// must read the iteration from here, never capture it by value at
/// discovery time.
#[derive(Clone, Copy, Debug)]
pub struct TaskCtx {
    /// The task being executed.
    pub task: TaskId,
    /// Current iteration of the enclosing (persistent) region; 0 for
    /// non-iterative submission.
    pub iter: u64,
    /// Worker executing the task.
    pub worker: usize,
}

/// A task body: the actual computation.
pub type TaskBody = Arc<dyn Fn(&TaskCtx) + Send + Sync + 'static>;

/// Full description of one task, as submitted by the producer thread.
#[derive(Clone)]
pub struct TaskSpec {
    /// Debug/profiling name (also used to group Gantt rows).
    pub name: &'static str,
    /// The `depend` clause.
    pub depends: Vec<Depend>,
    /// Cost-model description (used by the virtual executor).
    pub work: WorkDesc,
    /// Optional communication side effect (detached semantics).
    pub comm: Option<CommOp>,
    /// Optional real computation (used by the thread executor).
    pub body: Option<TaskBody>,
    /// Size of the task's firstprivate payload in bytes; this is what a
    /// persistent re-instance must memcpy (paper: 8–100 B for LULESH).
    pub fp_bytes: u32,
}

impl TaskSpec {
    /// A new task with no dependences, unit-less work, and no body.
    pub fn new(name: &'static str) -> Self {
        TaskSpec {
            name,
            depends: Vec::new(),
            work: WorkDesc::default(),
            comm: None,
            body: None,
            fp_bytes: 16,
        }
    }

    /// Add one depend item.
    pub fn depend(mut self, handle: DataHandle, mode: AccessMode) -> Self {
        self.depends.push(Depend::new(handle, mode));
        self
    }

    /// Add many depend items.
    pub fn depends(mut self, items: impl IntoIterator<Item = Depend>) -> Self {
        self.depends.extend(items);
        self
    }

    /// Set the work descriptor.
    pub fn work(mut self, work: WorkDesc) -> Self {
        self.work = work;
        self
    }

    /// Attach a communication operation (detached-task semantics).
    pub fn comm(mut self, op: CommOp) -> Self {
        self.comm = Some(op);
        self
    }

    /// Attach the computational body.
    pub fn body<F: Fn(&TaskCtx) + Send + Sync + 'static>(mut self, f: F) -> Self {
        self.body = Some(Arc::new(f));
        self
    }

    /// Set the firstprivate payload size.
    pub fn firstprivate_bytes(mut self, bytes: u32) -> Self {
        self.fp_bytes = bytes;
        self
    }
}

impl TaskSpec {
    /// Borrow this spec as a [`SpecView`] — the form the discovery hot
    /// path consumes.
    pub fn view(&self) -> SpecView<'_> {
        SpecView {
            name: self.name,
            depends: &self.depends,
            flops: self.work.flops,
            footprint: &self.work.footprint,
            comm: self.comm,
            body: self.body.as_ref(),
            fp_bytes: self.fp_bytes,
        }
    }

    /// Materialize an owned spec from a view (allocates; used by sinks
    /// that must retain the data, e.g. the recording submitter).
    pub fn from_view(view: &SpecView<'_>) -> TaskSpec {
        TaskSpec {
            name: view.name,
            depends: view.depends.to_vec(),
            work: WorkDesc {
                flops: view.flops,
                footprint: view.footprint.to_vec(),
            },
            comm: view.comm,
            body: view.body.cloned(),
            fp_bytes: view.fp_bytes,
        }
    }
}

/// A borrowed view of one task submission — what [`TaskSpec`] describes,
/// without owning any of it.
///
/// This is the currency of the allocation-free submission path
/// (DESIGN.md §4.4): the depend list and footprint are slices into a
/// recycled buffer ([`crate::builder::SpecBuf`]), so submitting a task
/// creates no `Vec`s. `WorkDesc` is decomposed into `flops` +
/// `footprint` because its owned footprint vector is exactly the
/// allocation this type exists to avoid.
#[derive(Clone, Copy)]
pub struct SpecView<'a> {
    /// Debug/profiling name.
    pub name: &'static str,
    /// The `depend` clause.
    pub depends: &'a [Depend],
    /// Cost-model flop count.
    pub flops: f64,
    /// Cost-model memory footprint.
    pub footprint: &'a [crate::workdesc::HandleSlice],
    /// Optional communication side effect.
    pub comm: Option<CommOp>,
    /// Optional real computation (cloned — a refcount bump — by sinks
    /// that keep it).
    pub body: Option<&'a TaskBody>,
    /// Firstprivate payload size in bytes.
    pub fp_bytes: u32,
}

impl fmt::Debug for SpecView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpecView")
            .field("name", &self.name)
            .field("depends", &self.depends)
            .field("flops", &self.flops)
            .field("comm", &self.comm)
            .field("has_body", &self.body.is_some())
            .field("fp_bytes", &self.fp_bytes)
            .finish()
    }
}

impl fmt::Debug for TaskSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskSpec")
            .field("name", &self.name)
            .field("depends", &self.depends)
            .field("flops", &self.work.flops)
            .field("comm", &self.comm)
            .field("has_body", &self.body.is_some())
            .field("fp_bytes", &self.fp_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::HandleSpace;
    use crate::workdesc::HandleSlice;

    #[test]
    fn builder_accumulates() {
        let mut s = HandleSpace::new();
        let x = s.region("x", 8);
        let y = s.region("y", 8);
        let spec = TaskSpec::new("demo")
            .depend(x, AccessMode::Out)
            .depends([Depend::read(y)])
            .work(WorkDesc::compute(42.0))
            .comm(CommOp::Iallreduce { bytes: 8 })
            .firstprivate_bytes(24)
            .body(|_| {});
        assert_eq!(spec.depends.len(), 2);
        assert_eq!(spec.work.flops, 42.0);
        assert!(spec.comm.is_some());
        assert!(spec.body.is_some());
        assert_eq!(spec.fp_bytes, 24);
        assert!(format!("{spec:?}").contains("demo"));
    }

    #[test]
    fn view_round_trips() {
        let mut s = HandleSpace::new();
        let x = s.region("x", 8);
        let spec = TaskSpec::new("rt")
            .depend(x, AccessMode::InOut)
            .work(WorkDesc::compute(3.0).touching(HandleSlice::whole(x, 8)))
            .firstprivate_bytes(32)
            .body(|_| {});
        let back = TaskSpec::from_view(&spec.view());
        assert_eq!(back.name, spec.name);
        assert_eq!(back.depends, spec.depends);
        assert_eq!(back.work.flops, spec.work.flops);
        assert_eq!(back.work.footprint.len(), 1);
        assert!(back.body.is_some());
        assert_eq!(back.fp_bytes, 32);
        assert!(format!("{:?}", spec.view()).contains("rt"));
    }

    #[test]
    fn task_ids_order_by_index() {
        assert!(TaskId(1) < TaskId(2));
        assert_eq!(TaskId(7).index(), 7);
        assert_eq!(format!("{:?}", TaskId(3)), "t3");
    }

    #[test]
    fn from_index_keeps_every_id_below_the_marker() {
        assert_eq!(TaskId::from_index(0), TaskId(0));
        let last = u32::MAX as usize - 1;
        assert_eq!(TaskId::from_index(last).index(), last);
    }

    #[test]
    #[should_panic(expected = "task id overflow")]
    fn from_index_rejects_the_probe_marker() {
        TaskId::from_index(u32::MAX as usize);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "task id overflow")]
    fn from_index_never_wraps() {
        // The index `as u32` would alias node 0.
        TaskId::from_index(u32::MAX as usize + 1);
    }
}
