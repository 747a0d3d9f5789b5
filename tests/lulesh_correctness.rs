//! End-to-end LULESH correctness: the task versions executed on the real
//! work-stealing executor must reproduce the sequential reference
//! *bitwise*, across schedulers, TPL values, optimization sets, and
//! persistent re-instancing.

use ptdg::core::exec::{ExecConfig, Executor, SchedPolicy};
use ptdg::core::opts::OptConfig;
use ptdg::core::ThrottleConfig;
use ptdg::lulesh::sequential::run_sequential;
use ptdg::lulesh::{LuleshConfig, LuleshTask};
use ptdg::simrt::RankProgram;

fn executor(workers: usize, policy: SchedPolicy) -> Executor {
    Executor::new(ExecConfig {
        n_workers: workers,
        policy,
        throttle: ThrottleConfig::unbounded(),
        profile: false,
        record_events: false,
    })
}

/// Run the task version on the thread executor, one session per
/// iteration-stream (streaming discovery, as in the paper's normal mode).
fn run_tasks(cfg: LuleshConfig, workers: usize, policy: SchedPolicy, opts: OptConfig) -> u64 {
    let prog = LuleshTask::with_state(cfg.clone());
    let exec = executor(workers, policy);
    let mut session = exec.session(opts);
    for iter in 0..cfg.iterations {
        prog.build_iteration(0, iter, &mut session);
    }
    session.wait_all();
    prog.state.as_ref().unwrap().digest()
}

/// Same but through a persistent region (optimization (p)).
fn run_tasks_persistent(cfg: LuleshConfig, workers: usize, opts: OptConfig) -> u64 {
    let prog = LuleshTask::with_state(cfg.clone());
    let exec = executor(workers, SchedPolicy::DepthFirst);
    let mut region = exec.persistent_region(opts);
    for iter in 0..cfg.iterations {
        region.run(iter, |sub| prog.build_iteration(0, iter, sub));
    }
    prog.state.as_ref().unwrap().digest()
}

const S: usize = 6;
const ITERS: u64 = 8;
const TPL: usize = 12;

fn reference_digest() -> u64 {
    run_sequential(S, ITERS, TPL).digest()
}

#[test]
fn task_version_matches_sequential_bitwise() {
    let cfg = LuleshConfig::single(S, ITERS, TPL);
    let got = run_tasks(cfg, 3, SchedPolicy::DepthFirst, OptConfig::all());
    assert_eq!(got, reference_digest());
}

#[test]
fn breadth_first_scheduling_does_not_change_physics() {
    let cfg = LuleshConfig::single(S, ITERS, TPL);
    let got = run_tasks(cfg, 3, SchedPolicy::BreadthFirst, OptConfig::all());
    assert_eq!(got, reference_digest());
}

#[test]
fn optimizations_do_not_change_physics() {
    let cfg = LuleshConfig::single(S, ITERS, TPL);
    for opts in [
        OptConfig::none(),
        OptConfig::dedup_only(),
        OptConfig::redirect_only(),
        OptConfig::all(),
    ] {
        let got = run_tasks(cfg.clone(), 2, SchedPolicy::DepthFirst, opts);
        assert_eq!(got, reference_digest(), "opts {opts:?} diverged");
    }
}

#[test]
fn unfused_dependencies_match_too() {
    let cfg = LuleshConfig {
        fused_deps: false,
        ..LuleshConfig::single(S, ITERS, TPL)
    };
    let got = run_tasks(cfg, 3, SchedPolicy::DepthFirst, OptConfig::none());
    assert_eq!(got, reference_digest());
}

#[test]
fn persistent_region_matches_sequential_bitwise() {
    let cfg = LuleshConfig::single(S, ITERS, TPL);
    let got = run_tasks_persistent(cfg, 3, OptConfig::all());
    assert_eq!(got, reference_digest());
}

#[test]
fn worker_count_does_not_change_physics() {
    let cfg = LuleshConfig::single(S, ITERS, TPL);
    for workers in [1, 2, 4] {
        let got = run_tasks(
            cfg.clone(),
            workers,
            SchedPolicy::DepthFirst,
            OptConfig::all(),
        );
        assert_eq!(got, reference_digest(), "{workers} workers diverged");
    }
}

#[test]
fn tpl_does_not_change_physics() {
    // Different TPL slices the dt reduction differently but the global min
    // is invariant; energies must agree to roundoff-free equality because
    // all kernels are elementwise.
    let a = run_tasks(
        LuleshConfig::single(S, ITERS, 4),
        2,
        SchedPolicy::DepthFirst,
        OptConfig::all(),
    );
    let b = run_sequential(S, ITERS, 4).digest();
    assert_eq!(a, b);
}

#[test]
fn throttled_execution_matches() {
    let cfg = LuleshConfig::single(S, ITERS, TPL);
    let prog = LuleshTask::with_state(cfg.clone());
    let exec = Executor::new(ExecConfig {
        n_workers: 2,
        policy: SchedPolicy::DepthFirst,
        throttle: ThrottleConfig::ready_bound(4),
        profile: false,
        record_events: false,
    });
    let mut session = exec.session(OptConfig::all());
    for iter in 0..cfg.iterations {
        prog.build_iteration(0, iter, &mut session);
    }
    session.wait_all();
    assert_eq!(prog.state.as_ref().unwrap().digest(), reference_digest());
}

#[test]
fn non_overlapped_session_matches() {
    let cfg = LuleshConfig::single(S, 4, TPL);
    let prog = LuleshTask::with_state(cfg.clone());
    let exec = executor(2, SchedPolicy::DepthFirst);
    // Non-overlapped sessions gate *all* tasks until wait_all, so the
    // cross-iteration dt dependency requires one session per iteration.
    for iter in 0..cfg.iterations {
        let mut session = exec.session_non_overlapped(OptConfig::all());
        prog.build_iteration(0, iter, &mut session);
        session.wait_all();
    }
    assert_eq!(
        prog.state.as_ref().unwrap().digest(),
        run_sequential(S, 4, TPL).digest()
    );
}

#[test]
fn energy_is_conserved_to_tolerance() {
    // The simplified hydro is not exactly conservative (q dissipates), but
    // total energy must stay bounded near the deposit over a long run.
    let st = run_sequential(8, 50, 16);
    let e = st.total_energy();
    assert!(e.is_finite());
    assert!(e > 0.1 && e < 30.0, "energy drifted wildly: {e}");
}
