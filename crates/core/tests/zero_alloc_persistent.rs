//! Allocation accounting for persistent replay (DESIGN.md §4.4): once
//! the template is captured and the replay machinery is warm, a
//! re-instanced iteration allocates nothing — on the producer or on the
//! workers, which is why `alloc_counter` counts the whole process.

mod alloc_counter;

use alloc_counter::{alloc_calls, quiet_executor};
use ptdg_core::access::AccessMode;
use ptdg_core::builder::SpecBuf;
use ptdg_core::handle::HandleSpace;
use ptdg_core::opts::OptConfig;

/// Persistent re-instancing: once the template is captured and the replay
/// machinery (publish buffer, injector segment pool, worker deques) has
/// reached its high-water mark, whole re-instanced iterations — bulk
/// re-arm, root publication, execution, barrier — allocate nothing.
#[test]
fn persistent_replay_is_allocation_free_in_steady_state() {
    const CHAIN: usize = 64;
    const WARM_ITERS: u64 = 8;
    const MEASURED_ITERS: u64 = 16;

    let exec = quiet_executor(1);
    let mut space = HandleSpace::new();
    let h = space.region("chain", 64);

    let mut region = exec.persistent_region(OptConfig::all());
    // Capturing first iteration, then warm replays.
    for iter in 0..WARM_ITERS {
        region.run(iter, |sub| {
            let mut buf = SpecBuf::new();
            for _ in 0..CHAIN {
                buf.begin("link")
                    .dep(h, AccessMode::InOut)
                    .flops(1.0)
                    .submit(sub);
            }
        });
    }

    let before = alloc_calls();
    for iter in WARM_ITERS..WARM_ITERS + MEASURED_ITERS {
        region.run(iter, |_: &mut dyn ptdg_core::builder::TaskSubmitter| {
            unreachable!("replayed iterations never rebuild")
        });
    }
    let after = alloc_calls();

    assert_eq!(
        after - before,
        0,
        "re-instanced iterations must not allocate \
         ({MEASURED_ITERS} iterations cost {} allocations)",
        after - before
    );
    assert_eq!(
        region.reuses(),
        WARM_ITERS + MEASURED_ITERS - 1,
        "all but the capturing iteration replayed the template"
    );
}
