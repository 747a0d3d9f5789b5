//! Allocation accounting for the discovery hot path (DESIGN.md §4.4).
//!
//! A counting global allocator wraps the system allocator; the test warms
//! the producer-side buffers up to their high-water mark, snapshots the
//! allocation counter, drives the steady-state path, and asserts the
//! counter did not move. This pins the tentpole claim — *zero* heap
//! allocations per task — rather than "few": any regression that
//! reintroduces a per-task `Vec`, `Arc`, or boxed node shows up as a
//! nonzero delta, not as a slow drift in a benchmark.
//!
//! The window runs with profiling off and no task bodies, on the
//! unbounded throttle, so the only code measured is submission itself:
//! depend resolution, node arming, edge wiring, and readiness routing.
//! Re-instanced persistent iterations are pinned the same way in
//! `zero_alloc_persistent.rs`, and `inoutset` group joins in
//! `zero_alloc_groups.rs`: one window per test binary (see
//! `alloc_counter`).

mod alloc_counter;

use alloc_counter::{alloc_calls, quiet_executor};

use ptdg_core::access::AccessMode;
use ptdg_core::builder::SpecBuf;
use ptdg_core::handle::HandleSpace;
use ptdg_core::opts::OptConfig;

/// Streaming discovery: after [`ptdg_core::exec::Session::reserve`] and a
/// warmup burst, every further `SpecBuf` submission must perform zero heap
/// allocations end to end. Non-overlapped session: all ready tasks land in
/// the (reserved) hold gate and the workers stay parked, so the measured
/// window is single-threaded by construction.
#[test]
fn streaming_submission_is_allocation_free_in_steady_state() {
    const N_HANDLES: usize = 8;
    const WARM: usize = 512;
    const MEASURED: usize = 512;

    let exec = quiet_executor(2);
    let mut space = HandleSpace::new();
    let handles: Vec<_> = (0..N_HANDLES).map(|_| space.region("h", 256)).collect();

    let mut s = exec.session_non_overlapped(OptConfig::all());
    // Generous node headroom: redirect nodes ride on top of the task count.
    s.reserve(2 * (WARM + MEASURED), N_HANDLES);
    let mut buf = SpecBuf::new();

    // Rotating writer/reader stencil: every handle keeps a short, bounded
    // reader window between writers, so per-handle discovery state stays
    // within its inline capacity the way real iterative codes do.
    for k in 0..WARM {
        buf.begin("warm")
            .dep(handles[k % N_HANDLES], AccessMode::InOut)
            .dep(handles[(k + 1) % N_HANDLES], AccessMode::In)
            .flops(1.0)
            .submit(&mut s);
    }

    let before = alloc_calls();
    for k in WARM..WARM + MEASURED {
        buf.begin("steady")
            .dep(handles[k % N_HANDLES], AccessMode::InOut)
            .dep(handles[(k + 1) % N_HANDLES], AccessMode::In)
            .flops(1.0)
            .submit(&mut s);
    }
    let after = alloc_calls();

    s.wait_all();
    assert_eq!(
        after - before,
        0,
        "steady-state streaming submission must not allocate \
         ({MEASURED} tasks cost {} allocations)",
        after - before
    );
}
