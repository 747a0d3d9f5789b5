//! End-to-end HPCG correctness on the real executor.

use ptdg::core::exec::{ExecConfig, Executor, SchedPolicy};
use ptdg::core::opts::OptConfig;
use ptdg::core::ThrottleConfig;
use ptdg::hpcg::{HpcgConfig, HpcgState, HpcgTask};
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

const NX: usize = 6;
const ITERS: u64 = 15;
const TPL: usize = 8;

fn reference() -> HpcgState {
    let cfg = HpcgConfig::single(NX, ITERS, TPL);
    let st = HpcgState::new(&cfg);
    for _ in 0..ITERS {
        st.sequential_iteration(cfg.blocks());
    }
    st
}

fn run_tasks(workers: usize, policy: SchedPolicy, opts: OptConfig) -> HpcgState {
    let cfg = HpcgConfig::single(NX, ITERS, TPL);
    let prog = HpcgTask::with_state(cfg.clone());
    let exec = executor(workers, policy);
    let mut session = exec.session(opts);
    for iter in 0..cfg.iterations {
        prog.build_iteration(0, iter, &mut session);
    }
    session.wait_all();
    prog.state.clone().unwrap()
}

#[test]
fn task_cg_matches_sequential_bitwise() {
    let got = run_tasks(3, SchedPolicy::DepthFirst, OptConfig::all());
    assert_eq!(got.digest(), reference().digest());
}

#[test]
fn task_cg_converges() {
    let st = run_tasks(2, SchedPolicy::DepthFirst, OptConfig::all());
    let r = st.residual();
    let tr = st.true_residual();
    assert!(r < 1e-4, "CG must converge on the task runtime: {r}");
    assert!((r - tr).abs() < 1e-6 * (1.0 + tr));
}

#[test]
fn scheduler_and_opts_invariance() {
    let reference_digest = reference().digest();
    for policy in [SchedPolicy::DepthFirst, SchedPolicy::BreadthFirst] {
        for opts in [OptConfig::none(), OptConfig::all()] {
            let got = run_tasks(2, policy, opts);
            assert_eq!(
                got.digest(),
                reference_digest,
                "{policy:?} {opts:?} diverged"
            );
        }
    }
}

#[test]
fn persistent_region_matches() {
    let cfg = HpcgConfig::single(NX, ITERS, TPL);
    let prog = HpcgTask::with_state(cfg.clone());
    let exec = executor(3, SchedPolicy::DepthFirst);
    let mut region = exec.persistent_region(OptConfig::all());
    for iter in 0..cfg.iterations {
        region.run(iter, |sub| prog.build_iteration(0, iter, sub));
    }
    assert_eq!(prog.state.as_ref().unwrap().digest(), reference().digest());
    // the template captured one iteration: 6 sliced loops + 2 reduces
    assert_eq!(region.template().unwrap().n_tasks(), 6 * TPL + 2);
}

#[test]
fn inoutset_scratch_is_race_free_under_stress() {
    // Many workers + tiny blocks: the inoutset partial-dot tasks hammer
    // the scratch concurrently; results must stay exact.
    let cfg = HpcgConfig::single(5, 10, 25);
    let prog = HpcgTask::with_state(cfg.clone());
    let exec = executor(4, SchedPolicy::DepthFirst);
    let mut session = exec.session(OptConfig::all());
    for iter in 0..cfg.iterations {
        prog.build_iteration(0, iter, &mut session);
    }
    session.wait_all();
    let st = HpcgState::new(&cfg);
    for _ in 0..10 {
        st.sequential_iteration(cfg.blocks());
    }
    assert_eq!(prog.state.as_ref().unwrap().digest(), st.digest());
}
