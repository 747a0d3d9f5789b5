//! Application-level benchmarks on the *real* thread executor: a LULESH
//! time step, an HPCG CG iteration, and a tile-Cholesky factorization,
//! each with real numerics.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ptdg_cholesky::{CholeskyConfig, CholeskyTask};
use ptdg_core::exec::{ExecConfig, Executor, SchedPolicy};
use ptdg_core::opts::OptConfig;
use ptdg_core::ThrottleConfig;
use ptdg_hpcg::{HpcgConfig, HpcgTask};
use ptdg_lulesh::{LuleshConfig, LuleshTask};
use ptdg_simrt::RankProgram;
use std::hint::black_box;

fn executor() -> Executor {
    Executor::new(ExecConfig {
        n_workers: 2,
        policy: SchedPolicy::DepthFirst,
        throttle: ThrottleConfig::mpc_default(),
        profile: false,
        record_events: false,
    })
}

fn bench_lulesh_step(c: &mut Criterion) {
    let cfg = LuleshConfig::single(10, u64::MAX, 16);
    let prog = LuleshTask::with_state(cfg);
    let exec = executor();
    let mut region = exec.persistent_region(OptConfig::all());
    let mut iter = 0u64;
    region.run(0, |sub| prog.build_iteration(0, 0, sub));
    let mut group = c.benchmark_group("apps");
    group.sample_size(20);
    group.throughput(Throughput::Elements(
        prog.cfg.compute_tasks_per_iteration() as u64
    ));
    group.bench_function("lulesh_step_s10_tpl16", |b| {
        b.iter(|| {
            iter += 1;
            region.run(iter, |_| unreachable!());
            black_box(prog.state.as_ref().unwrap().total_energy())
        })
    });
    group.finish();
}

fn bench_hpcg_iteration(c: &mut Criterion) {
    let mut group = c.benchmark_group("apps");
    group.sample_size(20);
    group.bench_function("hpcg_cg_iteration_nx8_tpl8", |b| {
        // CG converges; bench a fixed number of iterations per fresh state
        b.iter(|| {
            let cfg = HpcgConfig::single(8, 4, 8);
            let prog = HpcgTask::with_state(cfg.clone());
            let exec = executor();
            let mut session = exec.session(OptConfig::all());
            for iter in 0..cfg.iterations {
                prog.build_iteration(0, iter, &mut session);
            }
            session.wait_all();
            black_box(prog.state.as_ref().unwrap().residual())
        })
    });
    group.finish();
}

fn bench_cholesky_factorization(c: &mut Criterion) {
    let cfg = CholeskyConfig::single(4, 16, u64::MAX);
    let prog = CholeskyTask::with_matrix(cfg, 1);
    let exec = executor();
    let mut region = exec.persistent_region(OptConfig::all());
    let mut iter = 0u64;
    region.run(0, |sub| prog.build_iteration(0, 0, sub));
    let mut group = c.benchmark_group("apps");
    group.sample_size(20);
    group.bench_function("cholesky_factor_nt4_b16", |b| {
        b.iter(|| {
            iter += 1;
            region.run(iter, |_| unreachable!());
            black_box(prog.matrix.as_ref().unwrap().digest())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_lulesh_step,
    bench_hpcg_iteration,
    bench_cholesky_factorization
);
criterion_main!(benches);
