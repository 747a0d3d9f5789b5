//! A forwarding submitter that splits producer time between the
//! application and the runtime, from outside both.

use ptdg_core::builder::TaskSubmitter;
use ptdg_core::task::{SpecView, TaskId};
use std::time::Instant;

/// Forwards every task unchanged to `inner` and times each
/// `submit_view` call into it. Wrapped around a live
/// [`ptdg_core::Session`], the time of a whole `build_iteration` call
/// minus [`TimingSubmitter::submit_ns`] is what the application spent
/// building tasks.
pub struct TimingSubmitter<'a> {
    inner: &'a mut dyn TaskSubmitter,
    /// Tasks forwarded.
    pub tasks: u64,
    /// Nanoseconds spent inside `inner.submit_view`.
    pub submit_ns: u64,
}

impl<'a> TimingSubmitter<'a> {
    pub fn new(inner: &'a mut dyn TaskSubmitter) -> Self {
        TimingSubmitter {
            inner,
            tasks: 0,
            submit_ns: 0,
        }
    }
}

impl TaskSubmitter for TimingSubmitter<'_> {
    fn submit_view(&mut self, view: &SpecView<'_>) -> TaskId {
        let t0 = Instant::now();
        let id = self.inner.submit_view(view);
        self.submit_ns += t0.elapsed().as_nanos() as u64;
        self.tasks += 1;
        id
    }

    fn wants_bodies(&self) -> bool {
        self.inner.wants_bodies()
    }
}
