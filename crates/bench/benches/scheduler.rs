//! Thread-executor micro-benchmarks: end-to-end graph execution under
//! both scheduling policies, and persistent re-instancing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ptdg_core::access::AccessMode;
use ptdg_core::exec::{ExecConfig, Executor, SchedPolicy};
use ptdg_core::handle::HandleSpace;
use ptdg_core::opts::OptConfig;
use ptdg_core::task::TaskSpec;
use ptdg_core::ThrottleConfig;
use std::hint::black_box;

const N_TASKS: usize = 1_000;

fn bench_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("executor_e2e");
    group.throughput(Throughput::Elements(N_TASKS as u64));
    group.sample_size(10);
    for policy in [SchedPolicy::DepthFirst, SchedPolicy::BreadthFirst] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{policy:?}")),
            &policy,
            |b, &policy| {
                let mut space = HandleSpace::new();
                let handles: Vec<_> = (0..32).map(|_| space.region("h", 64)).collect();
                let exec = Executor::new(ExecConfig {
                    n_workers: 2,
                    policy,
                    throttle: ThrottleConfig::unbounded(),
                    profile: false,
                    record_events: false,
                });
                b.iter(|| {
                    let mut session = exec.session(OptConfig::all());
                    for i in 0..N_TASKS {
                        session.submit(
                            TaskSpec::new("t")
                                .depend(handles[i % 32], AccessMode::InOut)
                                .body(|ctx| {
                                    black_box(ctx.task);
                                }),
                        );
                    }
                    session.wait_all();
                })
            },
        );
    }
    group.finish();
}

fn bench_persistent_region(c: &mut Criterion) {
    let mut group = c.benchmark_group("persistent_region");
    group.throughput(Throughput::Elements(N_TASKS as u64));
    group.sample_size(10);
    group.bench_function("reinstance_iteration", |b| {
        let mut space = HandleSpace::new();
        let handles: Vec<_> = (0..32).map(|_| space.region("h", 64)).collect();
        let exec = Executor::new(ExecConfig {
            n_workers: 2,
            policy: SchedPolicy::DepthFirst,
            throttle: ThrottleConfig::unbounded(),
            profile: false,
            record_events: false,
        });
        let mut region = exec.persistent_region(OptConfig::all());
        let mut iter = 0u64;
        // capture on the first iteration (outside the timed loop)
        region.run(0, |sub| {
            for i in 0..N_TASKS {
                sub.submit(
                    TaskSpec::new("t")
                        .depend(handles[i % 32], AccessMode::InOut)
                        .body(|ctx| {
                            black_box(ctx.iter);
                        }),
                );
            }
        });
        b.iter(|| {
            iter += 1;
            region.run(iter, |_| unreachable!("template already captured"));
        })
    });
    group.finish();
}

criterion_group!(benches, bench_policies, bench_persistent_region);
criterion_main!(benches);
