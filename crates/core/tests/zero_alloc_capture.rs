//! Allocation accounting for a capturing iteration (DESIGN.md §4.4): the
//! thread executor's capture mirror stores no cost-model footprint, so
//! recording an iteration costs the amortized growth of a few tables,
//! not one allocation per task. One window per test binary (see
//! `alloc_counter`).

mod alloc_counter;

use alloc_counter::{alloc_calls, quiet_executor};
use ptdg_core::access::AccessMode;
use ptdg_core::builder::SpecBuf;
use ptdg_core::handle::HandleSpace;
use ptdg_core::opts::OptConfig;
use ptdg_core::task::TaskBody;
use ptdg_core::workdesc::HandleSlice;
use std::sync::Arc;

/// A whole capturing iteration of 4096 tasks, three footprint slices
/// each, through a persistent region: discovery, the template mirror,
/// execution and the template build. The buffer is a plain
/// [`SpecBuf::new`], which records footprints whatever the sink reads,
/// so only the mirror itself can keep them out of the template.
///
/// What remains grows with the stream but not per task: the node arena
/// takes one chunk per 64 nodes, and the node, template and edge tables
/// grow by doubling (about 140 calls in all here). A copy per task
/// would cost 4096 more.
#[test]
fn capture_allocates_far_fewer_times_than_it_has_tasks() {
    const TASKS: usize = 4096;
    const N_HANDLES: usize = 8;
    const BYTES: u64 = 4096;
    const MAX_ALLOCS: u64 = TASKS as u64 / 16;

    let exec = quiet_executor(1);
    let mut space = HandleSpace::new();
    let handles: Vec<_> = (0..N_HANDLES).map(|_| space.region("h", BYTES)).collect();
    // One shared body: a per-task closure `Arc` is the application's
    // allocation, not the capture's.
    let body: TaskBody = Arc::new(|_| {});
    let mut region = exec.persistent_region(OptConfig::all());

    let before = alloc_calls();
    region.run(0, |sub| {
        let mut buf = SpecBuf::new();
        for k in 0..TASKS {
            let (w, r) = (handles[k % N_HANDLES], handles[(k + 1) % N_HANDLES]);
            buf.begin("captured")
                .dep(w, AccessMode::InOut)
                .dep(r, AccessMode::In)
                .flops(1.0)
                .touch(HandleSlice::whole(w, BYTES))
                .touch(HandleSlice::whole(r, BYTES))
                .touch(HandleSlice {
                    handle: w,
                    offset: 64,
                    len: 64,
                })
                .body_arc(Arc::clone(&body))
                .submit(sub);
        }
    });
    let after = alloc_calls();

    let template = region.template().expect("the first run captures");
    assert_eq!(template.n_tasks(), TASKS);
    assert!(
        after - before < MAX_ALLOCS,
        "capturing {TASKS} tasks cost {} allocations (limit {MAX_ALLOCS})",
        after - before
    );
}
