//! Unified profiling hooks for the runtime kernel.
//!
//! Both back-ends report the same task-lifecycle events through one
//! [`RtProbe`]; the wall-clock executor timestamps them itself, the
//! simulator stamps them with virtual time. The emit sites live in this
//! module's siblings — [`super::GraphInstance`] (creation, root
//! readiness), [`super::RtNode::complete_with`] (completion, successor
//! readiness), [`super::ReadyQueues::pop_with`] (scheduling) and
//! [`super::PersistentInstance`] (re-instanced creation and publication)
//! — so a back-end cannot diverge from the shared narration. The two
//! comm hooks are the one exception: posting and request completion
//! happen inside each back-end's network layer (`crate::comm::CommWorld`
//! post/progress paths on threads, the DES network in `ptdg-simrt`), so
//! those layers emit them, with a shared request id correlating the
//! pair. The result feeds one analysis pipeline
//! ([`crate::profile::Trace`], [`crate::obs`]).

use crate::profile::Span;
use crate::task::TaskId;

/// Observer of kernel-level task events. All hooks default to no-ops so a
/// backend only implements what it measures. Timestamps are nanoseconds
/// on the back-end's clock (wall offset or virtual time).
pub trait RtProbe: Send + Sync {
    /// A task was created by discovery or re-instancing.
    fn task_created(&self, _id: TaskId, _t_ns: u64) {}
    /// A task's last dependence was satisfied.
    fn task_ready(&self, _id: TaskId, _t_ns: u64) {}
    /// A task was handed to a core.
    fn task_scheduled(&self, _id: TaskId, _core: usize, _t_ns: u64) {}
    /// A task finished.
    fn task_completed(&self, _id: TaskId, _core: usize, _t_ns: u64) {}
    /// A communication request was posted (detached task releases its
    /// core). `req` is the back-end's request id, shared with the
    /// matching [`RtProbe::comm_completed`].
    fn comm_posted(&self, _id: TaskId, _req: u64, _core: usize, _t_ns: u64) {}
    /// A posted communication request completed (matched / reduced);
    /// the detached task now completes off-core.
    fn comm_completed(&self, _id: TaskId, _req: u64, _core: usize, _t_ns: u64) {}
    /// A timed span was measured on a lane.
    fn span(&self, _span: Span) {}
    /// Whether the lifecycle hooks observe anything. Emit sites check
    /// this before reading their clock, so a disabled probe costs
    /// nothing but one predictable branch.
    fn lifecycle_enabled(&self) -> bool {
        false
    }
}

/// The probe that measures nothing.
#[derive(Default, Clone, Copy)]
pub struct NullProbe;

impl RtProbe for NullProbe {}
