//! End-to-end tile-Cholesky correctness on the real executor.

use ptdg::cholesky::{CholeskyConfig, CholeskyTask, TileMatrix};
use ptdg::core::exec::{ExecConfig, Executor, SchedPolicy};
use ptdg::core::opts::OptConfig;
use ptdg::core::ThrottleConfig;
use ptdg::simrt::RankProgram;

fn executor(workers: usize) -> Executor {
    Executor::new(ExecConfig {
        n_workers: workers,
        policy: SchedPolicy::DepthFirst,
        throttle: ThrottleConfig::unbounded(),
        profile: false,
        record_events: false,
    })
}

#[test]
fn task_factorization_is_numerically_correct() {
    let cfg = CholeskyConfig::single(5, 6, 1);
    let prog = CholeskyTask::with_matrix(cfg.clone(), 42);
    let exec = executor(3);
    let mut session = exec.session(OptConfig::all());
    prog.build_iteration(0, 0, &mut session);
    session.wait_all();
    let err = prog.matrix.as_ref().unwrap().factorization_error();
    assert!(err < 1e-9, "L·Lᵀ must equal A: {err}");
}

#[test]
fn task_factorization_matches_sequential_bitwise() {
    let cfg = CholeskyConfig::single(4, 5, 1);
    let prog = CholeskyTask::with_matrix(cfg.clone(), 7);
    let exec = executor(4);
    let mut session = exec.session(OptConfig::all());
    prog.build_iteration(0, 0, &mut session);
    session.wait_all();
    let reference = TileMatrix::new_spd(4, 5, 7);
    reference.factor_sequential();
    assert_eq!(prog.matrix.as_ref().unwrap().digest(), reference.digest());
}

#[test]
fn repeated_factorizations_via_persistent_region() {
    let cfg = CholeskyConfig::single(4, 4, 6);
    let prog = CholeskyTask::with_matrix(cfg.clone(), 3);
    let exec = executor(3);
    let mut region = exec.persistent_region(OptConfig::all());
    for iter in 0..cfg.iterations {
        region.run(iter, |sub| prog.build_iteration(0, iter, sub));
    }
    // every re-instanced factorization produced the same correct factor
    let err = prog.matrix.as_ref().unwrap().factorization_error();
    assert!(err < 1e-9, "persistent re-factorization broke: {err}");
    let reference = TileMatrix::new_spd(4, 4, 3);
    reference.factor_sequential();
    assert_eq!(prog.matrix.as_ref().unwrap().digest(), reference.digest());
    // reset + kernels captured once
    assert_eq!(
        region.template().unwrap().n_tasks(),
        cfg.n_tiles() + cfg.kernel_tasks()
    );
}

#[test]
fn streaming_iterations_also_match() {
    let cfg = CholeskyConfig::single(4, 4, 3);
    let prog = CholeskyTask::with_matrix(cfg.clone(), 11);
    let exec = executor(2);
    let mut session = exec.session(OptConfig::all());
    for iter in 0..cfg.iterations {
        prog.build_iteration(0, iter, &mut session);
    }
    session.wait_all();
    let reference = TileMatrix::new_spd(4, 4, 11);
    reference.factor_sequential();
    assert_eq!(prog.matrix.as_ref().unwrap().digest(), reference.digest());
}

#[test]
fn optimizations_are_neutral_for_cholesky_edges() {
    // Paper §4.4: (b)/(c) do not change the dense regular scheme.
    use ptdg::core::builder::RecordingSubmitter;
    use ptdg::core::graph::{DiscoveryEngine, TemplateRecorder};
    let cfg = CholeskyConfig::single(6, 4, 1);
    let prog = CholeskyTask::new(cfg);
    let mut rec = RecordingSubmitter::default();
    prog.build_iteration(0, 0, &mut rec);
    let count_edges = |opts: OptConfig| {
        let mut eng = DiscoveryEngine::new(opts);
        let mut sink = TemplateRecorder::new(false);
        for spec in &rec.specs {
            eng.submit(&mut sink, spec);
        }
        (eng.stats().edges_created, eng.stats().redirect_nodes)
    };
    let (e_none, r_none) = count_edges(OptConfig::none());
    let (e_all, r_all) = count_edges(OptConfig::all());
    assert_eq!(e_none, e_all, "no duplicate or inoutset edges to remove");
    assert_eq!(r_none, 0);
    assert_eq!(r_all, 0, "no redirect nodes in a dense regular scheme");
}
