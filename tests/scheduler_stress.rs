//! Stress tests for the lock-free scheduler fast path: shutdown/drain
//! races, prompt shutdown, parking wakeups (also across the idle spin's
//! hand-over to the parker), the lock-free completion check against a
//! racing completion, and a property pinning the lock-free pop order to
//! a sequential `VecDeque` model of the scheduling policy.
//!
//! The executor rounds are intentionally repeated (`STRESS_ROUNDS`, or
//! the `PTDG_STRESS_ROUNDS` env var — CI's release stress job raises
//! it) so scheduling races get many chances to fire.

use proptest::prelude::*;
use ptdg::core::exec::{ExecConfig, Executor, SchedPolicy};
use ptdg::core::handle::HandleSpace;
use ptdg::core::opts::OptConfig;
use ptdg::core::rt::{NodeRef, ReadyQueues, RtNode};
use ptdg::core::task::{TaskId, TaskSpec};
use ptdg::core::AccessMode;
use ptdg::core::ThrottleConfig;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const STRESS_ROUNDS: usize = 20;

fn rounds() -> usize {
    std::env::var("PTDG_STRESS_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(STRESS_ROUNDS)
}

fn cfg(workers: usize) -> ExecConfig {
    ExecConfig {
        n_workers: workers,
        policy: SchedPolicy::DepthFirst,
        throttle: ThrottleConfig::unbounded(),
        profile: false,
        record_events: false,
    }
}

/// SplitMix64: one seeded stream per round, so a failing round replays.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn spin(iters: u64) {
    for _ in 0..iters {
        std::hint::spin_loop();
    }
}

/// Polls of [`start_line`] before it starts yielding its core.
const START_SPIN_POLLS: u32 = 1000;

/// A spinning two-party start line: unlike a blocking barrier, neither
/// side sleeps, so the seeded offsets below decide the interleaving. On
/// several cores both sides arrive within the spin budget and leave
/// together; past it the waiter yields, so on one core the other side
/// gets to run instead of waiting out a time slice.
fn start_line(arrived: &AtomicUsize) {
    arrived.fetch_add(1, Ordering::AcqRel);
    let mut polls = 0u32;
    while arrived.load(Ordering::Acquire) < 2 {
        if polls < START_SPIN_POLLS {
            polls += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// `attach_succ` reads the completion flag without the lock. Racing it
/// against `complete` on the same node, at seeded offsets: an attach
/// either reports the edge pruned — and then sees the predecessor's
/// body write — or creates it, and the completion releases that
/// successor. Either way each successor becomes ready exactly once, and
/// its `pending` ends at zero (a double release would wrap it).
#[test]
fn lock_free_completion_check_races_complete() {
    const SUCCS: u32 = 16;
    for round in 0..25 * rounds() as u64 {
        let mut rng = round;
        let complete_after = splitmix(&mut rng) % 3000;
        let attach_gaps: Vec<u64> = (0..SUCCS).map(|_| splitmix(&mut rng) % 200).collect();
        let pred = RtNode::bare(TaskId(0), "pred", None, 0);
        let succs: Vec<NodeRef> = (1..=SUCCS)
            .map(|i| RtNode::bare(TaskId(i), "succ", None, 0))
            .collect();
        let body_write = AtomicU64::new(0);
        let arrived = AtomicUsize::new(0);

        let ((releases, released), sealed_ready, pruned) = std::thread::scope(|sc| {
            let completer = sc.spawn(|| {
                start_line(&arrived);
                spin(complete_after);
                body_write.store(round + 1, Ordering::Relaxed);
                let done = pred.complete();
                let ready: Vec<u32> = done.ready.iter().map(|n| n.id.0).collect();
                (done.released, ready)
            });
            start_line(&arrived);
            let mut sealed_ready = Vec::new();
            let mut pruned = 0;
            for (s, &gap) in succs.iter().zip(&attach_gaps) {
                spin(gap);
                if !pred.attach_succ(s) {
                    pruned += 1;
                    assert_eq!(
                        body_write.load(Ordering::Relaxed),
                        round + 1,
                        "round {round}: a pruned edge must see the predecessor's writes"
                    );
                }
                if s.seal() {
                    sealed_ready.push(s.id.0);
                }
            }
            (completer.join().unwrap(), sealed_ready, pruned)
        });

        let mut ready: Vec<u32> = released.iter().chain(&sealed_ready).copied().collect();
        ready.sort_unstable();
        assert_eq!(
            ready,
            (1..=SUCCS).collect::<Vec<_>>(),
            "round {round}: every successor ready exactly once ({pruned} pruned)"
        );
        assert_eq!(
            releases + pruned,
            SUCCS as usize,
            "round {round}: the completion releases exactly the attached edges"
        );
        for s in &succs {
            assert_eq!(s.pending(), 0, "round {round}: task {} pending", s.id.0);
        }
    }
}

/// Dropping the executor right after submission (no `wait_all`) must
/// still run every task exactly once: shutdown drains, never discards.
#[test]
fn drop_shutdown_loses_no_tasks() {
    for round in 0..rounds() {
        const TASKS: usize = 400;
        let runs: Arc<Vec<AtomicUsize>> =
            Arc::new((0..TASKS).map(|_| AtomicUsize::new(0)).collect());
        {
            let e = Executor::new(cfg(4));
            let mut space = HandleSpace::new();
            // A few shared handles so chains, fan-outs and independent
            // tasks all occur.
            let handles: Vec<_> = (0..8).map(|_| space.region("h", 64)).collect();
            let mut s = e.session(OptConfig::all());
            for i in 0..TASKS {
                let runs = Arc::clone(&runs);
                let h = handles[i % handles.len()];
                let mode = match i % 3 {
                    0 => AccessMode::InOut,
                    1 => AccessMode::In,
                    _ => AccessMode::Out,
                };
                s.submit(TaskSpec::new("t").depend(h, mode).body(move |_| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                }));
            }
            // Session and Executor dropped here, racing the workers.
        }
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(
                r.load(Ordering::Relaxed),
                1,
                "round {round}: task {i} must run exactly once across shutdown"
            );
        }
    }
}

/// Workers that have gone idle (parked) must wake for work submitted
/// much later — the eventcount may not miss a push.
#[test]
fn parked_workers_wake_for_late_submissions() {
    let e = Executor::new(cfg(4));
    let mut space = HandleSpace::new();
    let h = space.region("h", 64);
    for burst in 0..10 {
        let ran = Arc::new(AtomicUsize::new(0));
        // Let the pool go fully idle so workers are parked, not spinning.
        std::thread::sleep(std::time::Duration::from_millis(2));
        let mut s = e.session(OptConfig::all());
        for _ in 0..64 {
            let ran = Arc::clone(&ran);
            s.submit(
                TaskSpec::new("late")
                    .depend(h, AccessMode::In)
                    .body(move |_| {
                        ran.fetch_add(1, Ordering::Relaxed);
                    }),
            );
        }
        s.wait_all();
        assert_eq!(ran.load(Ordering::Relaxed), 64, "burst {burst}");
    }
}

/// Run `f` on a helper thread and fail, rather than hang the suite, if
/// it has not returned within `limit`.
fn returns_within(limit: Duration, what: &str, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    assert!(
        rx.recv_timeout(limit).is_ok(),
        "{what} did not return within {limit:?}"
    );
}

/// Dropping an executor must end its workers promptly, whether they are
/// still spinning for work or already parked: a worker that sees
/// `shutdown` while it spins has to reach the drained-pool exit, not
/// keep polling. Covers a pool dropped the moment it starts and one
/// dropped right after a `wait_all`, with 1 and 4 workers.
#[test]
fn executor_drop_returns_promptly() {
    const LIMIT: Duration = Duration::from_secs(10);
    for round in 0..rounds() {
        for workers in [1, 4] {
            returns_within(
                LIMIT,
                &format!("round {round}: drop of a fresh {workers}-worker executor"),
                move || drop(Executor::new(cfg(workers))),
            );
            returns_within(
                LIMIT,
                &format!("round {round}: drop of a {workers}-worker executor after wait_all"),
                move || {
                    let e = Executor::new(cfg(workers));
                    let mut space = HandleSpace::new();
                    let h = space.region("h", 64);
                    let ran = Arc::new(AtomicUsize::new(0));
                    let mut s = e.session(OptConfig::all());
                    for _ in 0..16 {
                        let ran = Arc::clone(&ran);
                        s.submit(
                            TaskSpec::new("t")
                                .depend(h, AccessMode::InOut)
                                .body(move |_| {
                                    ran.fetch_add(1, Ordering::Relaxed);
                                }),
                        );
                    }
                    s.wait_all();
                    drop(s);
                    drop(e);
                    assert_eq!(ran.load(Ordering::Relaxed), 16);
                },
            );
        }
    }
}

/// Idle workers spin for a bounded while before they park. Chains
/// submitted after gaps shorter than that spin, around it, and far
/// beyond it must each be picked up at once: a push racing a worker's
/// move from spinning to parking may not be lost. A lost wakeup would
/// leave the chain until the parker's 100 ms timeout; the assert sits
/// well below it. The producer waits without helping, so only a worker
/// can run the chain. The spin lasts 75–90 µs on a 2-vCPU KVM guest;
/// gaps are seeded, so a failing run replays.
#[test]
fn no_lost_wakeup_across_spin_park_boundary() {
    const CHAIN: usize = 3;
    /// Gap classes, in µs: (shortest, span) of a seeded uniform draw.
    const GAPS_US: [(u64, u64); 3] = [(0, 40), (40, 200), (400, 2000)];
    const LATENCY_LIMIT: Duration = Duration::from_millis(50);
    let chains = rounds() * GAPS_US.len();
    for workers in [1, 4] {
        let e = Executor::new(cfg(workers));
        let mut space = HandleSpace::new();
        let h = space.region("chain", 64);
        let runs: Arc<Vec<AtomicUsize>> =
            Arc::new((0..chains * CHAIN).map(|_| AtomicUsize::new(0)).collect());
        let done = Arc::new(AtomicUsize::new(0));
        let mut s = e.session(OptConfig::all());
        let mut rng = workers as u64;
        for c in 0..chains {
            let (lo, span) = GAPS_US[c % GAPS_US.len()];
            let gap = Duration::from_micros(lo + splitmix(&mut rng) % span);
            let t = Instant::now();
            while t.elapsed() < gap {
                std::hint::spin_loop();
            }
            let t0 = Instant::now();
            for k in 0..CHAIN {
                let (runs, done) = (Arc::clone(&runs), Arc::clone(&done));
                let i = c * CHAIN + k;
                s.submit(
                    TaskSpec::new("link")
                        .depend(h, AccessMode::InOut)
                        .body(move |_| {
                            runs[i].fetch_add(1, Ordering::Relaxed);
                            done.fetch_add(1, Ordering::Release);
                        }),
                );
            }
            while done.load(Ordering::Acquire) < (c + 1) * CHAIN {
                assert!(
                    t0.elapsed() < 10 * LATENCY_LIMIT,
                    "{workers} workers, chain {c} (gap {gap:?}) never ran"
                );
                std::thread::yield_now();
            }
            let latency = t0.elapsed();
            assert!(
                latency < LATENCY_LIMIT,
                "{workers} workers, chain {c} (gap {gap:?}) took {latency:?}: lost wakeup"
            );
        }
        s.wait_all();
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(
                r.load(Ordering::Relaxed),
                1,
                "{workers} workers: task {i} must run exactly once"
            );
        }
    }
}

/// Staged work is published work: a producer that stages fewer ready
/// tasks than a batch and then blocks outside the runtime (no wait
/// point, no further submission) must still see them run, because an
/// idle worker claims the staging buffer once it has spun out its
/// budget. Same latency bound as the chains above.
#[test]
fn staged_tasks_run_while_the_producer_blocks_outside_the_runtime() {
    /// Fewer than a staging batch, each on its own handle: all are
    /// ready at their seal, so all are staged.
    const TASKS: usize = 5;
    const LATENCY_LIMIT: Duration = Duration::from_millis(50);
    let bursts = rounds() * 3;
    for workers in [1, 4] {
        let e = Executor::new(cfg(workers));
        let mut space = HandleSpace::new();
        let handles: Vec<_> = (0..TASKS).map(|_| space.region("own", 64)).collect();
        let runs: Arc<Vec<AtomicUsize>> =
            Arc::new((0..bursts * TASKS).map(|_| AtomicUsize::new(0)).collect());
        let done = Arc::new(AtomicUsize::new(0));
        let mut s = e.session(OptConfig::all());
        for b in 0..bursts {
            let t0 = Instant::now();
            for (k, &h) in handles.iter().enumerate() {
                let (runs, done) = (Arc::clone(&runs), Arc::clone(&done));
                let i = b * TASKS + k;
                s.submit(
                    TaskSpec::new("staged")
                        .depend(h, AccessMode::InOut)
                        .body(move |_| {
                            runs[i].fetch_add(1, Ordering::Relaxed);
                            done.fetch_add(1, Ordering::Release);
                        }),
                );
            }
            while done.load(Ordering::Acquire) < (b + 1) * TASKS {
                assert!(
                    t0.elapsed() < 10 * LATENCY_LIMIT,
                    "{workers} workers, burst {b}: staged tasks never ran"
                );
                std::thread::yield_now();
            }
            let latency = t0.elapsed();
            assert!(
                latency < LATENCY_LIMIT,
                "{workers} workers, burst {b} took {latency:?}: staged tasks stranded"
            );
        }
        s.wait_all();
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(
                r.load(Ordering::Relaxed),
                1,
                "{workers} workers: task {i} must run exactly once"
            );
        }
    }
}

/// Persistent-region iteration barriers under parking: every iteration
/// runs the full graph, no iteration deadlocks.
#[test]
fn persistent_region_barriers_survive_parking() {
    let e = Executor::new(cfg(3));
    let mut space = HandleSpace::new();
    let x = space.region("x", 64);
    let slices: Vec<_> = (0..16).map(|_| space.region("s", 64)).collect();
    let count = Arc::new(AtomicUsize::new(0));
    let mut region = e.persistent_region(OptConfig::all());
    for iter in 0..20u64 {
        region.run(iter, |s| {
            s.submit(TaskSpec::new("w").depend(x, AccessMode::Out).body({
                let c = Arc::clone(&count);
                move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                }
            }));
            for &sl in &slices {
                s.submit(
                    TaskSpec::new("r")
                        .depend(x, AccessMode::In)
                        .depend(sl, AccessMode::Out)
                        .body({
                            let c = Arc::clone(&count);
                            move |_| {
                                c.fetch_add(1, Ordering::Relaxed);
                            }
                        }),
                );
            }
        });
    }
    assert_eq!(count.load(Ordering::Relaxed), 20 * 17);
    assert_eq!(region.reuses(), 19);
}

/// Steal/park observability: a threaded run fills the new counters
/// consistently (successes never exceed attempts; parks match unparks
/// once quiescent... workers still parked at `take_obs` keep the two
/// apart, so only the ordering inequality is asserted).
#[test]
fn steal_and_park_counters_are_consistent() {
    let e = Executor::new(cfg(4));
    let mut space = HandleSpace::new();
    let x = space.region("x", 64);
    let slices: Vec<_> = (0..64).map(|_| space.region("s", 64)).collect();
    let mut s = e.session(OptConfig::all());
    s.submit(TaskSpec::new("w").depend(x, AccessMode::Out).body(|_| {}));
    for &sl in &slices {
        s.submit(
            TaskSpec::new("r")
                .depend(x, AccessMode::In)
                .depend(sl, AccessMode::Out)
                .body(|_| {}),
        );
    }
    s.wait_all();
    drop(s);
    let obs = e.take_obs();
    assert!(obs.counters.steal_successes <= obs.counters.steal_attempts);
    assert!(obs.counters.unparks <= obs.counters.parks);
}

/// Sequential reference for `ReadyQueues`' single-threaded pop order,
/// written out from the policy (paper §2.2) with plain `VecDeque` lanes.
struct QueueModel {
    policy: SchedPolicy,
    global: VecDeque<u32>,
    local: Vec<VecDeque<u32>>,
}

impl QueueModel {
    fn new(policy: SchedPolicy, cores: usize) -> QueueModel {
        QueueModel {
            policy,
            global: VecDeque::new(),
            local: vec![VecDeque::new(); cores],
        }
    }

    /// Depth-first: a core-made-ready task goes to that core's lane;
    /// everything else to the global FIFO.
    fn push(&mut self, item: u32, local: Option<usize>) {
        match (self.policy, local) {
            (SchedPolicy::DepthFirst, Some(c)) => self.local[c].push_back(item),
            _ => self.global.push_back(item),
        }
    }

    /// Own lane LIFO, then global FIFO, then steal FIFO-side round-robin
    /// from `worker + 1` (from core 0 for the producer).
    fn pop(&mut self, worker: Option<usize>) -> Option<(u32, bool)> {
        let depth_first = self.policy == SchedPolicy::DepthFirst;
        if depth_first {
            if let Some(item) = worker.and_then(|w| self.local[w].pop_back()) {
                return Some((item, false));
            }
        }
        if let Some(item) = self.global.pop_front() {
            return Some((item, false));
        }
        if depth_first {
            let n = self.local.len();
            let start = worker.map_or(0, |w| w + 1);
            for victim in (0..n).map(|i| (start + i) % n) {
                if Some(victim) != worker {
                    if let Some(item) = self.local[victim].pop_front() {
                        return Some((item, true));
                    }
                }
            }
        }
        None
    }

    fn len(&self) -> usize {
        self.global.len() + self.local.iter().map(VecDeque::len).sum::<usize>()
    }
}

/// One op sequence applied to `ReadyQueues` and to [`QueueModel`] on a
/// single thread: identical pop results (value and stolen flag),
/// identical lengths throughout. Pins the lock-free structures to the
/// sequential order the simulator's determinism rests on.
#[derive(Clone, Debug)]
enum Op {
    Push { local: Option<usize> },
    Pop { worker: Option<usize> },
}

fn op_strategy(cores: usize) -> impl Strategy<Value = Op> {
    (0usize..2, 0..=cores).prop_map(move |(kind, c)| {
        let lane = (c < cores).then_some(c);
        if kind == 0 {
            Op::Push { local: lane }
        } else {
            Op::Pop { worker: lane }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lock_free_pop_order_matches_sequential_model(
        cores in 1usize..5,
        ops in prop::collection::vec(op_strategy(4), 1..120),
        breadth in 0u8..2,
    ) {
        let policy = if breadth == 1 { SchedPolicy::BreadthFirst } else { SchedPolicy::DepthFirst };
        let mut model = QueueModel::new(policy, cores);
        let lockfree = ReadyQueues::new_lock_free(policy, cores);
        let mut next = 0u32;
        for op in &ops {
            match *op {
                Op::Push { local } => {
                    let local = local.filter(|&c| c < cores);
                    model.push(next, local);
                    lockfree.push(next, local);
                    next += 1;
                }
                Op::Pop { worker } => {
                    let worker = worker.filter(|&c| c < cores);
                    let a = model.pop(worker);
                    let b = lockfree.pop(worker);
                    prop_assert_eq!(a, b);
                }
            }
            prop_assert_eq!(model.len(), lockfree.len());
        }
        // Drain: both must hand back the remaining tasks in the same order.
        loop {
            let a = model.pop(Some(0));
            let b = lockfree.pop(Some(0));
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
