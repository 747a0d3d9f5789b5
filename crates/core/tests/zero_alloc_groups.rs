//! Allocation accounting for `inoutset` group joins (DESIGN.md §4.4).
//!
//! Discovery alone, into a sink that prunes every edge: the engine's
//! memo of finished base predecessors must reach its high-water capacity
//! during warm-up and then be recycled, like every per-handle list.

mod alloc_counter;

use alloc_counter::alloc_calls;
use ptdg_core::access::AccessMode;
use ptdg_core::builder::SpecBuf;
use ptdg_core::graph::{DiscoveryEngine, GraphSink};
use ptdg_core::handle::HandleSpace;
use ptdg_core::opts::OptConfig;
use ptdg_core::task::{SpecView, TaskId};

/// A sink whose every predecessor has already finished: each edge is
/// pruned, which is what fills the engine's completed-base memo.
struct AllFinished(u32);

impl GraphSink for AllFinished {
    fn add_task(&mut self, _view: &SpecView<'_>) -> TaskId {
        self.add_redirect()
    }
    fn add_redirect(&mut self) -> TaskId {
        self.0 += 1;
        TaskId(self.0 - 1)
    }
    fn add_edge(&mut self, _pred: TaskId, _succ: TaskId) -> bool {
        false
    }
    fn seal(&mut self, _task: TaskId) {}
}

/// `inoutset` groups behind finished readers: the memo of pruned base
/// predecessors reaches its high-water capacity in the first iterations
/// and is recycled, not reallocated, by every later group.
#[test]
fn group_joins_against_finished_bases_are_allocation_free() {
    const READERS: usize = 32;
    const MEMBERS: usize = 32;
    const WARM_ITERS: usize = 2;
    const MEASURED_ITERS: usize = 4;
    const PER_ITER: usize = READERS + MEMBERS + 1;

    let mut space = HandleSpace::new();
    let q = space.region("q", 64);
    let mut engine = DiscoveryEngine::new(OptConfig::all());
    let mut sink = AllFinished(0);
    // Tasks plus one redirect per group.
    engine.reserve((WARM_ITERS + MEASURED_ITERS) * (PER_ITER + 1), 1);
    let mut buf = SpecBuf::new();
    let mut iteration = |engine: &mut DiscoveryEngine, sink: &mut AllFinished| {
        for _ in 0..READERS {
            engine.submit_view(sink, &buf.begin("read").dep(q, AccessMode::In).view());
        }
        for _ in 0..MEMBERS {
            engine.submit_view(sink, &buf.begin("set").dep(q, AccessMode::InOutSet).view());
        }
        engine.submit_view(sink, &buf.begin("write").dep(q, AccessMode::InOut).view());
    };
    for _ in 0..WARM_ITERS {
        iteration(&mut engine, &mut sink);
    }

    let before = alloc_calls();
    for _ in 0..MEASURED_ITERS {
        iteration(&mut engine, &mut sink);
    }
    let after = alloc_calls();

    assert_eq!(
        after - before,
        0,
        "group joins must not allocate \
         ({MEASURED_ITERS} iterations cost {} allocations)",
        after - before
    );
    assert_eq!(engine.stats().edges_created, 0);
}
