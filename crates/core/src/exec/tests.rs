//! Behavioural tests for the thread executor.

use super::*;
use crate::access::AccessMode;
use crate::handle::HandleSpace;
use crate::opts::OptConfig;
use crate::rt::ThrottleConfig;
use crate::task::TaskSpec;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

fn exec(workers: usize) -> Executor {
    Executor::new(ExecConfig {
        n_workers: workers,
        policy: SchedPolicy::DepthFirst,
        throttle: ThrottleConfig::unbounded(),
        profile: false,
        record_events: false,
    })
}

#[test]
fn chain_executes_in_order() {
    let mut space = HandleSpace::new();
    let x = space.region("x", 8);
    let e = exec(2);
    let log = Arc::new(AtomicU64::new(0));
    let mut s = e.session(OptConfig::all());
    for i in 1..=10u64 {
        let log = log.clone();
        s.submit(
            TaskSpec::new("step")
                .depend(x, AccessMode::InOut)
                .body(move |_| {
                    // each step sees exactly the previous value
                    let prev = log.load(Ordering::SeqCst);
                    assert_eq!(prev, i - 1);
                    log.store(i, Ordering::SeqCst);
                }),
        );
    }
    s.wait_all();
    assert_eq!(log.load(Ordering::SeqCst), 10);
}

#[test]
fn fan_out_fan_in_runs_all() {
    let mut space = HandleSpace::new();
    let x = space.region("x", 8);
    let slices: Vec<_> = (0..32).map(|_| space.region("s", 64)).collect();
    let e = exec(4);
    let count = Arc::new(AtomicUsize::new(0));
    let sum = Arc::new(AtomicU64::new(0));
    let mut s = e.session(OptConfig::all());
    s.submit(TaskSpec::new("init").depend(x, AccessMode::Out).body({
        let c = count.clone();
        move |_| {
            c.fetch_add(1, Ordering::SeqCst);
        }
    }));
    for (i, &sl) in slices.iter().enumerate() {
        let c = count.clone();
        let sum = sum.clone();
        s.submit(
            TaskSpec::new("mid")
                .depend(x, AccessMode::In)
                .depend(sl, AccessMode::Out)
                .body(move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                    sum.fetch_add(i as u64, Ordering::SeqCst);
                }),
        );
    }
    let deps: Vec<_> = slices
        .iter()
        .map(|&sl| crate::access::Depend::read(sl))
        .collect();
    s.submit(TaskSpec::new("join").depends(deps).body({
        let c = count.clone();
        let sum = sum.clone();
        move |_| {
            // all 32 middles done before the join
            assert_eq!(sum.load(Ordering::SeqCst), (0..32).sum::<u64>());
            c.fetch_add(1, Ordering::SeqCst);
        }
    }));
    s.wait_all();
    assert_eq!(count.load(Ordering::SeqCst), 34);
}

#[test]
fn inoutset_members_all_run_before_reader() {
    let mut space = HandleSpace::new();
    let x = space.region("x", 8);
    let e = exec(4);
    let members = Arc::new(AtomicUsize::new(0));
    let mut s = e.session(OptConfig::all());
    for _ in 0..8 {
        let m = members.clone();
        s.submit(
            TaskSpec::new("member")
                .depend(x, AccessMode::InOutSet)
                .body(move |_| {
                    m.fetch_add(1, Ordering::SeqCst);
                }),
        );
    }
    let m = members.clone();
    s.submit(
        TaskSpec::new("reader")
            .depend(x, AccessMode::In)
            .body(move |_| {
                assert_eq!(m.load(Ordering::SeqCst), 8, "reader after all members");
            }),
    );
    s.wait_all();
    assert_eq!(members.load(Ordering::SeqCst), 8);
}

#[test]
fn inoutset_without_redirect_optimization_is_equally_correct() {
    let mut space = HandleSpace::new();
    let x = space.region("x", 8);
    let e = exec(3);
    let members = Arc::new(AtomicUsize::new(0));
    let mut s = e.session(OptConfig::none());
    for _ in 0..8 {
        let m = members.clone();
        s.submit(
            TaskSpec::new("member")
                .depend(x, AccessMode::InOutSet)
                .body(move |_| {
                    m.fetch_add(1, Ordering::SeqCst);
                }),
        );
    }
    for _ in 0..4 {
        let m = members.clone();
        s.submit(
            TaskSpec::new("reader")
                .depend(x, AccessMode::In)
                .body(move |_| {
                    assert_eq!(m.load(Ordering::SeqCst), 8);
                }),
        );
    }
    s.wait_all();
}

#[test]
fn breadth_first_policy_completes() {
    let mut space = HandleSpace::new();
    let x = space.region("x", 8);
    let e = Executor::new(ExecConfig {
        n_workers: 2,
        policy: SchedPolicy::BreadthFirst,
        throttle: ThrottleConfig::unbounded(),
        profile: false,
        record_events: false,
    });
    let n = Arc::new(AtomicUsize::new(0));
    let mut s = e.session(OptConfig::all());
    for i in 0..50 {
        let n = n.clone();
        let mode = if i % 10 == 0 {
            AccessMode::InOut
        } else {
            AccessMode::In
        };
        s.submit(TaskSpec::new("t").depend(x, mode).body(move |_| {
            n.fetch_add(1, Ordering::SeqCst);
        }));
    }
    s.wait_all();
    assert_eq!(n.load(Ordering::SeqCst), 50);
}

#[test]
fn non_overlapped_session_discovers_before_executing() {
    let mut space = HandleSpace::new();
    let x = space.region("x", 8);
    let e = exec(2);
    let ran = Arc::new(AtomicUsize::new(0));
    let mut s = e.session_non_overlapped(OptConfig::all());
    for _ in 0..20 {
        let r = ran.clone();
        s.submit(
            TaskSpec::new("t")
                .depend(x, AccessMode::InOut)
                .body(move |_| {
                    r.fetch_add(1, Ordering::SeqCst);
                }),
        );
        // While discovering, nothing may run.
        assert_eq!(ran.load(Ordering::SeqCst), 0);
    }
    // Non-overlapped discovery prunes nothing: every edge exists.
    assert_eq!(s.stats().edges_created, 19);
    s.wait_all();
    assert_eq!(ran.load(Ordering::SeqCst), 20);
}

#[test]
fn overlapped_session_can_prune_edges() {
    // With a slow producer and an eager pool, predecessors are often
    // consumed before their successors are discovered -> pruned edges.
    let mut space = HandleSpace::new();
    let x = space.region("x", 8);
    let e = exec(2);
    let mut s = e.session(OptConfig::all());
    for i in 0..20 {
        s.submit(
            TaskSpec::new("t")
                .depend(x, AccessMode::InOut)
                .firstprivate_bytes(i as u32)
                .body(|_| {}),
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let st = s.stats();
    s.wait_all();
    assert_eq!(st.edges_created + st.edges_pruned, 19);
    assert!(
        st.edges_pruned > 0,
        "a 1ms-per-task producer against empty tasks must prune; got {st:?}"
    );
}

#[test]
fn throttling_bounds_live_tasks() {
    let mut space = HandleSpace::new();
    let x = space.region("x", 8);
    let e = Executor::new(ExecConfig {
        n_workers: 1,
        policy: SchedPolicy::DepthFirst,
        throttle: ThrottleConfig {
            max_ready: None,
            max_live: Some(8),
        },
        profile: false,
        record_events: false,
    });
    let peak = Arc::new(AtomicUsize::new(0));
    let mut s = e.session(OptConfig::all());
    for _ in 0..200 {
        let pool_live_peak = peak.clone();
        let tracker = Arc::clone(&e.pool().tracker);
        s.submit(TaskSpec::new("t").depend(x, AccessMode::In).body(move |_| {
            pool_live_peak.fetch_max(tracker.live(), Ordering::SeqCst);
        }));
    }
    s.wait_all();
    // max_live=8 plus the one task the producer may be mid-submitting.
    assert!(
        peak.load(Ordering::SeqCst) <= 16,
        "throttle failed: peak live {}",
        peak.load(Ordering::SeqCst)
    );
}

#[test]
fn persistent_region_runs_every_iteration_with_correct_iter() {
    let mut space = HandleSpace::new();
    let x = space.region("x", 8);
    let e = exec(2);
    let sums: Arc<Vec<AtomicU64>> = Arc::new((0..4).map(|_| AtomicU64::new(0)).collect());
    let mut region = e.persistent_region(OptConfig::all());
    for iter in 0..4u64 {
        let sums = sums.clone();
        region.run(iter, |sub| {
            // 3-task chain: w -> r -> r2; bodies record ctx.iter.
            for (k, mode) in [
                (0usize, AccessMode::Out),
                (1, AccessMode::In),
                (2, AccessMode::In),
            ] {
                let sums = sums.clone();
                sub.submit(TaskSpec::new("t").depend(x, mode).body(move |ctx| {
                    sums[ctx.iter as usize].fetch_add(1 + k as u64, Ordering::SeqCst);
                }));
            }
        });
    }
    assert_eq!(region.iterations_run(), 4);
    for iter in 0..4 {
        assert_eq!(
            sums[iter].load(Ordering::SeqCst),
            6,
            "iteration {iter} must run all 3 tasks exactly once"
        );
    }
    let t = region.template().unwrap();
    assert_eq!(t.n_tasks(), 3);
    assert_eq!(t.n_edges(), 2);
}

#[test]
fn persistent_region_respects_dependencies_every_iteration() {
    let mut space = HandleSpace::new();
    let x = space.region("x", 8);
    let e = exec(4);
    let val = Arc::new(AtomicU64::new(0));
    let mut region = e.persistent_region(OptConfig::all());
    for iter in 0..16u64 {
        let val = val.clone();
        region.run(iter, move |sub| {
            let v1 = val.clone();
            sub.submit(
                TaskSpec::new("w")
                    .depend(x, AccessMode::Out)
                    .body(move |ctx| {
                        v1.store(ctx.iter * 100, Ordering::SeqCst);
                    }),
            );
            for _ in 0..8 {
                let v = val.clone();
                sub.submit(
                    TaskSpec::new("r")
                        .depend(x, AccessMode::In)
                        .body(move |ctx| {
                            assert_eq!(v.load(Ordering::SeqCst), ctx.iter * 100);
                        }),
                );
            }
        });
    }
    assert_eq!(region.iterations_run(), 16);
}

#[test]
fn persistent_template_counts_unpruned_edges() {
    // Even at full execution speed, the capture must record every edge.
    let mut space = HandleSpace::new();
    let x = space.region("x", 8);
    let e = exec(4);
    let mut region = e.persistent_region(OptConfig::all());
    region.run(0, |sub| {
        for _ in 0..64 {
            sub.submit(TaskSpec::new("t").depend(x, AccessMode::InOut).body(|_| {}));
        }
    });
    assert_eq!(region.template().unwrap().n_edges(), 63);
}

#[test]
fn trace_records_work_spans() {
    let mut space = HandleSpace::new();
    let x = space.region("x", 8);
    let e = Executor::new(ExecConfig {
        n_workers: 2,
        policy: SchedPolicy::DepthFirst,
        throttle: ThrottleConfig::unbounded(),
        profile: true,
        record_events: false,
    });
    let mut s = e.session(OptConfig::all());
    for _ in 0..10 {
        s.submit(
            TaskSpec::new("traced")
                .depend(x, AccessMode::InOut)
                .body(|_| {
                    std::thread::sleep(std::time::Duration::from_micros(100));
                }),
        );
    }
    s.wait_all();
    let trace = e.take_trace();
    assert_eq!(trace.n_tasks_run(), 10);
    assert!(trace.span_ns > 0);
    assert!(trace.mean_task_grain_ns() >= 100_000.0 * 0.5);
    // take_trace drains
    assert_eq!(e.take_trace().n_tasks_run(), 0);
}

#[test]
fn many_independent_tasks_all_run() {
    let mut space = HandleSpace::new();
    let hs: Vec<_> = (0..256).map(|_| space.region("h", 8)).collect();
    let e = exec(4);
    let n = Arc::new(AtomicUsize::new(0));
    let mut s = e.session(OptConfig::all());
    for &h in &hs {
        let n = n.clone();
        s.submit(
            TaskSpec::new("t")
                .depend(h, AccessMode::Out)
                .body(move |_| {
                    n.fetch_add(1, Ordering::SeqCst);
                }),
        );
    }
    s.wait_all();
    assert_eq!(n.load(Ordering::SeqCst), 256);
}

#[test]
fn sequential_sessions_on_one_executor() {
    let mut space = HandleSpace::new();
    let x = space.region("x", 8);
    let e = exec(2);
    for round in 0..3 {
        let n = Arc::new(AtomicUsize::new(0));
        let mut s = e.session(OptConfig::all());
        for _ in 0..10 {
            let n = n.clone();
            s.submit(TaskSpec::new("t").depend(x, AccessMode::In).body(move |_| {
                n.fetch_add(1, Ordering::SeqCst);
            }));
        }
        s.wait_all();
        assert_eq!(n.load(Ordering::SeqCst), 10, "round {round}");
    }
}

#[test]
fn tasks_without_dependences_are_roots() {
    let e = exec(2);
    let n = Arc::new(AtomicUsize::new(0));
    let mut s = e.session(OptConfig::all());
    for _ in 0..5 {
        let n = n.clone();
        s.submit(TaskSpec::new("root").body(move |_| {
            n.fetch_add(1, Ordering::SeqCst);
        }));
    }
    s.wait_all();
    assert_eq!(n.load(Ordering::SeqCst), 5);
}

#[test]
fn taskwait_blocks_until_prior_tasks_complete() {
    let mut space = HandleSpace::new();
    let x = space.region("x", 8);
    let e = exec(3);
    let n = Arc::new(AtomicUsize::new(0));
    let mut s = e.session(OptConfig::all());
    for _ in 0..16 {
        let n = n.clone();
        s.submit(
            TaskSpec::new("pre")
                .depend(x, AccessMode::In)
                .body(move |_| {
                    std::thread::sleep(std::time::Duration::from_micros(100));
                    n.fetch_add(1, Ordering::SeqCst);
                }),
        );
    }
    s.taskwait();
    assert_eq!(n.load(Ordering::SeqCst), 16, "taskwait drains prior tasks");
    // the session continues to work afterwards
    let n2 = n.clone();
    s.submit(
        TaskSpec::new("post")
            .depend(x, AccessMode::Out)
            .body(move |_| {
                n2.fetch_add(100, Ordering::SeqCst);
            }),
    );
    s.wait_all();
    assert_eq!(n.load(Ordering::SeqCst), 116);
}

#[test]
fn persistent_region_invalidate_recaptures() {
    // Models an AMR step: the graph changes shape mid-run.
    let mut space = HandleSpace::new();
    let x = space.region("x", 8);
    let e = exec(2);
    let count = Arc::new(AtomicUsize::new(0));
    let mut region = e.persistent_region(OptConfig::all());
    let build = |width: usize, count: Arc<AtomicUsize>| {
        move |sub: &mut dyn crate::builder::TaskSubmitter| {
            for _ in 0..width {
                let c = count.clone();
                sub.submit(TaskSpec::new("t").depend(x, AccessMode::In).body(move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                }));
            }
        }
    };
    for iter in 0..3u64 {
        region.run(iter, build(4, count.clone()));
    }
    assert_eq!(region.template().unwrap().n_tasks(), 4);
    assert_eq!(count.load(Ordering::SeqCst), 12);
    // "mesh adaptation": the next capture has 6 tasks per iteration
    region.invalidate();
    for iter in 3..6u64 {
        region.run(iter, build(6, count.clone()));
    }
    assert_eq!(region.template().unwrap().n_tasks(), 6);
    assert_eq!(count.load(Ordering::SeqCst), 12 + 18);
    assert_eq!(region.iterations_run(), 6);
}

/// One writer of `x` then eight readers, each reader checking that it
/// sees its own iteration's write; `bad` counts violations (a body never
/// panics here: it would not fail the test, only wedge the pool).
fn writer_then_readers(
    x: crate::handle::DataHandle,
    val: &Arc<AtomicU64>,
    bad: &Arc<AtomicUsize>,
) -> impl FnOnce(&mut dyn crate::builder::TaskSubmitter) {
    let (val, bad) = (val.clone(), bad.clone());
    move |sub| {
        let v = val.clone();
        sub.submit(
            TaskSpec::new("w")
                .depend(x, AccessMode::Out)
                .body(move |ctx| v.store(ctx.iter * 100, Ordering::SeqCst)),
        );
        for _ in 0..8 {
            let (v, bad) = (val.clone(), bad.clone());
            sub.submit(
                TaskSpec::new("r")
                    .depend(x, AccessMode::In)
                    .body(move |ctx| {
                        if v.load(Ordering::SeqCst) != ctx.iter * 100 {
                            bad.fetch_add(1, Ordering::SeqCst);
                        }
                    }),
            );
        }
    }
}

#[test]
fn persistent_region_instances_on_first_replay() {
    let mut space = HandleSpace::new();
    let x = space.region("x", 8);
    let e = exec(2);
    let (val, bad) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicUsize::new(0)));
    let mut region = e.persistent_region(OptConfig::all());
    region.run(0, writer_then_readers(x, &val, &bad));
    assert_eq!(
        Arc::strong_count(region.template().unwrap()),
        1,
        "a capture stores only the template"
    );
    assert_eq!(region.reuses(), 0);
    assert_eq!(region.task_ids().len(), 9);
    region.run(1, writer_then_readers(x, &val, &bad));
    assert_eq!(
        Arc::strong_count(region.template().unwrap()),
        2,
        "the first replay instances it"
    );
    assert_eq!(region.reuses(), 1);
    region.run(2, writer_then_readers(x, &val, &bad));
    assert_eq!(Arc::strong_count(region.template().unwrap()), 2);
    assert_eq!(region.reuses(), 2);
    assert_eq!(bad.load(Ordering::SeqCst), 0);
}

#[test]
fn repeated_captures_never_instance() {
    let mut space = HandleSpace::new();
    let x = space.region("x", 8);
    let e = exec(2);
    let (val, bad) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicUsize::new(0)));
    let mut region = e.persistent_region(OptConfig::all());
    for iter in 0..5u64 {
        region.invalidate();
        region.run(iter, writer_then_readers(x, &val, &bad));
        assert_eq!(region.reuses(), 0, "iteration {iter} was a capture");
        assert_eq!(Arc::strong_count(region.template().unwrap()), 1);
        assert_eq!(region.first_iteration_stats().tasks, 9);
    }
    assert_eq!(region.iterations_run(), 5);
    assert_eq!(bad.load(Ordering::SeqCst), 0);
}

#[test]
fn template_clone_outlives_invalidate() {
    let mut space = HandleSpace::new();
    let x = space.region("x", 8);
    let e = exec(2);
    let (val, bad) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicUsize::new(0)));
    let mut region = e.persistent_region(OptConfig::all());
    region.run(0, writer_then_readers(x, &val, &bad));
    let kept = Arc::clone(region.template().unwrap());
    region.run(1, writer_then_readers(x, &val, &bad));
    assert_eq!(Arc::strong_count(&kept), 3, "region, instance and clone");
    region.invalidate();
    assert!(region.template().is_none());
    assert!(region.task_ids().is_empty());
    assert_eq!(region.reuses(), 0);
    assert_eq!(Arc::strong_count(&kept), 1);
    assert_eq!(kept.n_tasks(), 9);
    assert_eq!(kept.n_edges(), 8);
    assert_eq!(kept.successors(crate::task::TaskId(0)).count(), 8);
    assert!(kept.is_acyclic());
}

#[test]
fn recapture_then_replay_respects_dependencies_and_iter() {
    let mut space = HandleSpace::new();
    let (x, y) = (space.region("x", 8), space.region("y", 8));
    let e = exec(2);
    let (val, bad) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicUsize::new(0)));
    let mut region = e.persistent_region(OptConfig::all());
    region.run(0, writer_then_readers(x, &val, &bad));
    region.invalidate();
    // The recapture has a different shape: a second chain on `y`.
    let val_y = Arc::new(AtomicU64::new(0));
    for iter in 1..6u64 {
        let on_x = writer_then_readers(x, &val, &bad);
        let on_y = writer_then_readers(y, &val_y, &bad);
        region.run(iter, |sub| {
            on_x(sub);
            on_y(sub);
        });
    }
    assert_eq!(region.iterations_run(), 6);
    assert_eq!(region.reuses(), 4);
    assert_eq!(region.template().unwrap().n_tasks(), 18);
    assert_eq!(
        val.load(Ordering::SeqCst),
        500,
        "the last replay ran iteration 5"
    );
    assert_eq!(val_y.load(Ordering::SeqCst), 500);
    assert_eq!(bad.load(Ordering::SeqCst), 0);
}

#[test]
fn capture_iteration_stamps_requested_iter() {
    let mut space = HandleSpace::new();
    let x = space.region("x", 8);
    let e = exec(2);
    let seen = Arc::new(AtomicU64::new(u64::MAX));
    let mut region = e.persistent_region(OptConfig::all());
    // start the region at iteration 7 (e.g. after a restart)
    let s7 = seen.clone();
    region.run(7, move |sub| {
        let s = s7.clone();
        sub.submit(
            TaskSpec::new("t")
                .depend(x, AccessMode::In)
                .body(move |ctx| {
                    s.store(ctx.iter, Ordering::SeqCst);
                }),
        );
    });
    assert_eq!(seen.load(Ordering::SeqCst), 7, "capture run sees iter 7");
    region.run(8, |_| unreachable!());
    assert_eq!(seen.load(Ordering::SeqCst), 8);
}

#[test]
fn deep_redirect_chain_does_not_overflow_stack() {
    // make_ready walks redirect completions with an explicit worklist;
    // a chain this deep overflows the test thread's stack if anyone
    // reintroduces recursion there.
    use crate::rt::{NodeArena, RtNode};
    use crate::task::TaskId;
    const DEPTH: usize = 200_000;
    let e = exec(2);
    let pool = Arc::clone(e.pool());
    let mut arena = NodeArena::new();
    arena.reserve(DEPTH);
    let chain: Vec<_> = (0..DEPTH)
        .map(|i| arena.alloc(RtNode::redirect(TaskId(i as u32), 0)))
        .collect();
    for w in chain.windows(2) {
        assert!(w[0].attach_succ(&w[1]));
    }
    let ran = Arc::new(AtomicUsize::new(0));
    let tail = RtNode::bare(
        TaskId(DEPTH as u32),
        "tail",
        Some(Arc::new({
            let ran = Arc::clone(&ran);
            move |_: &crate::task::TaskCtx| {
                ran.fetch_add(1, Ordering::SeqCst);
            }
        })),
        0,
    );
    assert!(chain.last().unwrap().attach_succ(&tail));
    // Drop every creation token; non-head nodes keep their 1 predecessor.
    for n in chain.iter().skip(1) {
        assert!(!n.seal());
    }
    assert!(!tail.seal());
    pool.tracker.created(DEPTH + 1);
    assert!(chain[0].seal(), "head has only its token");
    pool.make_ready(chain[0].clone(), None);
    pool.barrier();
    assert_eq!(ran.load(Ordering::SeqCst), 1, "tail task ran exactly once");
}

#[test]
fn unrecorded_discovery_window_spans_the_stream() {
    let mut space = HandleSpace::new();
    let x = space.region("x", 8);
    let e = exec(1);
    let mut s = e.session(OptConfig::all());
    assert_eq!(s.discovery_ns(), 0, "no submission, no window");
    let t0 = std::time::Instant::now();
    for _ in 0..64 {
        s.submit(TaskSpec::new("t").depend(x, AccessMode::InOut));
    }
    // The window ends at this query, inside the stream's wall time.
    let d = s.discovery_ns();
    let wall = t0.elapsed().as_nanos() as u64;
    assert!(d > 0, "64 submissions take time");
    assert!(d <= wall, "window {d} ns exceeds the stream's {wall} ns");
    // A closed window stays put until more tasks arrive.
    assert_eq!(s.discovery_ns(), d);
    s.submit(TaskSpec::new("t").depend(x, AccessMode::InOut));
    s.wait_all();
    let total = t0.elapsed().as_nanos() as u64;
    let after = s.discovery_ns();
    assert!(after >= d && after <= total);
}

#[test]
fn sessions_read_no_cost_model() {
    use crate::builder::TaskSubmitter;
    let e = exec(1);
    let s = e.session(OptConfig::all());
    assert!(!s.wants_work());
    assert!(s.wants_bodies());
}

#[test]
fn submit_that_readies_a_comm_task_publishes_the_staging_buffer() {
    use crate::workdesc::CommOp;
    let mut space = HandleSpace::new();
    let (x, y) = (space.region("x", 8), space.region("y", 8));
    let e = exec(1);
    let mut s = e.session(OptConfig::all());
    // A detached send to this very rank; the recv below matches it.
    s.submit(
        TaskSpec::new("send")
            .depend(x, AccessMode::InOut)
            .comm(CommOp::Isend {
                peer: 0,
                bytes: 64,
                tag: 3,
            }),
    );
    assert_eq!(e.pool().staged_len(), 0, "a ready comm task posts at once");
    s.submit(TaskSpec::new("plain").depend(y, AccessMode::InOut));
    s.submit(
        TaskSpec::new("recv")
            .depend(y, AccessMode::InOut)
            .comm(CommOp::Irecv {
                peer: 0,
                bytes: 64,
                tag: 3,
            }),
    );
    s.wait_all();
    assert_eq!(e.pool().staged_len(), 0);
    assert!(e.comm_error().is_none());
    assert!(e.pool().tracker.quiescent());
}

/// The deadlock detector must not declare a rank idle while it holds
/// staged tasks: rank 0 stages a task whose successor sends what rank 1
/// waits for, and a stall report from rank 0 lands while the task is
/// still staged (before rank 0's worker spins out and claims it).
#[test]
fn staged_tasks_keep_a_rank_busy_for_the_deadlock_detector() {
    use crate::comm::{CommConfig, CommWorld};
    use crate::workdesc::CommOp;
    let world = Arc::new(CommWorld::new(2, CommConfig::default()));
    let cfg = ExecConfig {
        n_workers: 1,
        policy: SchedPolicy::DepthFirst,
        throttle: ThrottleConfig::unbounded(),
        profile: false,
        record_events: false,
    };
    let mut space = HandleSpace::new();
    let (buf, msg) = (space.region("buf", 8), space.region("msg", 8));
    let e0 = Executor::with_comm_world(cfg.clone(), Arc::clone(&world), 0);
    std::thread::scope(|scope| {
        let w1 = Arc::clone(&world);
        let cfg1 = cfg.clone();
        let rank1 =
            scope.spawn(move || {
                let e1 = Executor::with_comm_world(cfg1, w1, 1);
                let mut s = e1.session(OptConfig::all());
                s.submit(TaskSpec::new("recv").depend(msg, AccessMode::InOut).comm(
                    CommOp::Irecv {
                        peer: 0,
                        bytes: 64,
                        tag: 9,
                    },
                ));
                s.wait_all();
                e1.comm_error()
            });
        // Let rank 1 post its recv, find nothing to do and report a stall.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let mut s = e0.session(OptConfig::all());
        s.submit(TaskSpec::new("produce").depend(buf, AccessMode::Out));
        s.submit(
            TaskSpec::new("send")
                .depend(buf, AccessMode::In)
                .comm(CommOp::Isend {
                    peer: 1,
                    bytes: 64,
                    tag: 9,
                }),
        );
        assert!(
            !world.note_stall(0),
            "a rank holding staged work was declared idle"
        );
        s.wait_all();
        assert_eq!(rank1.join().unwrap(), None, "rank 1's recv matched");
    });
    assert!(e0.comm_error().is_none());
}
