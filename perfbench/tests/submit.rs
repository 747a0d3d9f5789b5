//! The forwarding timing submitter must not change the task stream.

use ptdg_core::builder::{CountingSubmitter, TaskSubmitter};
use ptdg_core::exec::{ExecConfig, Executor, SchedPolicy};
use ptdg_core::graph::DiscoveryStats;
use ptdg_core::program::RankProgram;
use ptdg_core::{OptConfig, ThrottleConfig};
use ptdg_perfbench::app::LuleshApp;
use ptdg_perfbench::submit::TimingSubmitter;

const ITERS: u64 = 3;

/// Run `ITERS` LULESH iterations through a non-overlapped session: no
/// task runs before the final `wait_all`, so discovery never races
/// execution and its statistics are exact.
fn run(timed: bool) -> (DiscoveryStats, u64, u64) {
    let app = LuleshApp::new(5, 16, 7);
    let prog = app.real();
    let exec = Executor::new(ExecConfig {
        n_workers: 1,
        policy: SchedPolicy::DepthFirst,
        throttle: ThrottleConfig::unbounded(),
        profile: false,
        record_events: false,
    });
    let mut session = exec.session_non_overlapped(OptConfig::all());
    let mut forwarded = 0;
    for iter in 0..ITERS {
        session.set_iter(iter);
        if timed {
            let mut ts = TimingSubmitter::new(&mut session);
            prog.build_iteration(0, iter, &mut ts);
            forwarded += ts.tasks;
            assert!(ts.submit_ns > 0);
        } else {
            prog.build_iteration(0, iter, &mut session);
        }
    }
    session.wait_all();
    let stats = session.stats();
    drop(session);
    drop(exec);
    app.verify(&prog, ITERS).expect("LULESH output verifies");
    (stats, prog.state.as_ref().unwrap().digest(), forwarded)
}

#[test]
fn timing_submitter_forwards_every_task_unchanged() {
    let (direct, direct_digest, _) = run(false);
    let (timed, timed_digest, forwarded) = run(true);
    assert_eq!(direct, timed);
    assert_eq!(direct_digest, timed_digest);
    assert_eq!(forwarded, direct.tasks);
}

#[test]
fn timing_submitter_forwards_wants_bodies() {
    let mut counting = CountingSubmitter::default();
    let ts = TimingSubmitter::new(&mut counting);
    assert!(!ts.wants_bodies());
    let app = LuleshApp::new(4, 8, 1);
    let mut counting = CountingSubmitter::default();
    let mut ts = TimingSubmitter::new(&mut counting);
    app.bare().build_iteration(0, 0, &mut ts);
    let forwarded = ts.tasks;
    assert_eq!(forwarded, counting.tasks);
    assert!(forwarded > 0);
}
