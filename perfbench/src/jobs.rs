//! One job: set the program up, run its measured iterations, verify the
//! output. A run repeats jobs and reports medians over them.

use crate::app::LuleshApp;
use crate::submit::TimingSubmitter;
use ptdg_core::builder::{CountingSubmitter, TaskSubmitter};
use ptdg_core::exec::{ExecConfig, Executor, SchedPolicy};
use ptdg_core::graph::DiscoveryStats;
use ptdg_core::obs::{critical_path, RtCounters};
use ptdg_core::profile::{Breakdown, SpanKind, Trace};
use ptdg_core::program::RankProgram;
use ptdg_core::{OptConfig, ThrottleConfig};
use ptdg_lulesh::LuleshTask;
use ptdg_memsim::AccessStats;
use ptdg_simrt::{simulate_tasks, MachineConfig, SimConfig};
use std::time::{Duration, Instant};

/// How the thread executor runs the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// One overlapped session: every iteration is discovered while
    /// earlier ones execute.
    Stream,
    /// A persistent region invalidated before every iteration: each
    /// iteration is a capturing one, discovered and recorded as a
    /// template while it executes, and ends in the capture's `wait_all`.
    Capture,
}

/// Iterations a thread-executor job runs inside set-up.
pub const WARMUP: u64 = 2;

/// Ranks of the simulator job: a 2×2×2 cube, so that `simmpi` carries
/// LULESH's 26-neighbour exchange and its reduction.
pub const SIM_RANKS: usize = 8;

/// Iterations inside one simulated run.
pub const SIM_ITERATIONS: u64 = 1;

/// Measured `simulate_tasks` calls of a simulator job, after its warm-up
/// call.
pub const SIM_CALLS: u64 = 2;

/// What one job measured. Counters cover the measured phase only (the
/// high-water marks cover the whole job).
#[derive(Clone, Debug, Default)]
pub struct JobOut {
    pub setup_s: f64,
    pub makespan_s: f64,
    /// Application tasks completed in the measured phase.
    pub tasks: u64,
    /// Wall time of each measured iteration, ms.
    pub iter_ms: Vec<f64>,
    /// Why the output failed verification; `None` when it verified.
    pub failure: Option<String>,
    pub counters: RtCounters,
    /// Discovery statistics of the live run: the streaming session's
    /// measured phase, or the last capture.
    pub disc: DiscoveryStats,
    /// Present on traced jobs.
    pub producer: Option<ProducerTrace>,
    /// Present on simulator jobs.
    pub sim: Option<SimOut>,
}

/// The producer's timeline and the workers' breakdown of a traced job.
///
/// Submissions are timed over the measured phase.
#[derive(Clone, Debug, Default)]
pub struct ProducerTrace {
    /// Time in `build_iteration` outside `submit_view`, ns.
    pub build_ns: u64,
    /// Time inside `submit_view`, ns.
    pub submit_ns: u64,
    /// Tasks that went through the timed `submit_view`.
    pub submitted: u64,
    /// Measured-phase time in `wait_all`: the stream's final one, or the
    /// capture's inside each `PersistentRegion::run`, ns.
    pub wait_ns: u64,
    /// Measured-phase producer time the timeline accounts for: build +
    /// submit + wait.
    pub accounted_ns: u64,
    /// Wall time of the measured phase, ns.
    pub measured_ns: u64,
    /// Work, overhead and idle over the worker lanes (not the producer's).
    pub breakdown: Breakdown,
    /// Producer time inside discovery (`Discovery` spans), ns.
    pub discovery_ns: u64,
    /// Critical path of one traced iteration, ns.
    pub critical_path_ns: u64,
    pub events_dropped: u64,
}

/// Simulator figures of one job.
#[derive(Clone, Debug, Default)]
pub struct SimOut {
    /// Virtual makespan of one simulated run, s (identical every call).
    pub virtual_s: f64,
    pub cache: AccessStats,
    /// Communication requests posted, summed over ranks, per simulated run
    /// (each verified call completed all of them).
    pub comms_posted: u64,
    /// Core-lane time the simulator's own accounting leaves out, summed
    /// over ranks, virtual ns: `n_cores × span − (work + overhead +
    /// idle)`. The simulator adds up each of the three as it happens, so
    /// this is a real remainder, not a residual.
    pub lanes_remainder_ns: i64,
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `b − a` for the monotone counters; high-water marks from `b`.
fn counter_delta(a: &RtCounters, b: &RtCounters) -> RtCounters {
    RtCounters {
        tasks_created: b.tasks_created - a.tasks_created,
        tasks_completed: b.tasks_completed - a.tasks_completed,
        ready_hwm: b.ready_hwm,
        live_hwm: b.live_hwm,
        throttle_stalls: b.throttle_stalls - a.throttle_stalls,
        throttle_stall_ns: b.throttle_stall_ns - a.throttle_stall_ns,
        steal_attempts: b.steal_attempts - a.steal_attempts,
        steal_successes: b.steal_successes - a.steal_successes,
        parks: b.parks - a.parks,
        unparks: b.unparks - a.unparks,
        ..Default::default()
    }
}

/// `b − a`, field by field.
fn stats_delta(a: &DiscoveryStats, b: &DiscoveryStats) -> DiscoveryStats {
    DiscoveryStats {
        tasks: b.tasks - a.tasks,
        redirect_nodes: b.redirect_nodes - a.redirect_nodes,
        depend_items: b.depend_items - a.depend_items,
        edges_created: b.edges_created - a.edges_created,
        edges_pruned: b.edges_pruned - a.edges_pruned,
        dup_probes: b.dup_probes - a.dup_probes,
        dup_skipped: b.dup_skipped - a.dup_skipped,
    }
}

/// The executor every thread workload uses: the paper's MPC-OMP
/// throttling defaults, depth-first scheduling.
pub fn executor(n_workers: usize, traced: bool) -> Executor {
    Executor::new(ExecConfig {
        n_workers,
        policy: SchedPolicy::DepthFirst,
        throttle: ThrottleConfig::mpc_default(),
        profile: traced,
        record_events: traced,
    })
}

/// Run one thread-executor job of `app`: [`WARMUP`] iterations, then
/// `measured` ones. A traced job also records the producer timeline, the
/// span breakdown and one iteration's critical path; it runs one extra
/// iteration for the latter.
pub fn thread_job(
    app: &LuleshApp,
    mode: Mode,
    measured: u64,
    n_workers: usize,
    traced: bool,
) -> JobOut {
    let t0 = Instant::now();
    let prog = app.real();
    let exec = executor(n_workers, traced);
    let (mut out, iterations) = match mode {
        Mode::Stream => stream_phases(&prog, &exec, measured, traced, t0),
        Mode::Capture => capture_phases(&prog, &exec, measured, traced, t0),
    };
    drop(exec);
    out.failure = app.verify(&prog, iterations).err();
    out
}

fn stream_phases(
    prog: &LuleshTask,
    exec: &Executor,
    measured: u64,
    traced: bool,
    t0: Instant,
) -> (JobOut, u64) {
    let mut session = exec.session(OptConfig::all());
    for iter in 0..WARMUP {
        session.set_iter(iter);
        build(prog, iter, &mut session);
    }
    session.wait_all();
    let mut out = JobOut {
        setup_s: t0.elapsed().as_secs_f64(),
        ..Default::default()
    };
    let d0 = session.stats();
    let c0 = exec.take_obs().counters;

    let mut p = ProducerTrace::default();
    let tm = Instant::now();
    for k in 0..measured {
        let iter = WARMUP + k;
        session.set_iter(iter);
        let ti = Instant::now();
        if traced {
            let mut ts = TimingSubmitter::new(&mut session);
            build(prog, iter, &mut ts);
            p.submit_ns += ts.submit_ns;
            p.submitted += ts.tasks;
        } else {
            build(prog, iter, &mut session);
        }
        let dt = ti.elapsed();
        p.build_ns += ns(dt);
        out.iter_ms.push(ms(dt));
    }
    let tw = Instant::now();
    session.wait_all();
    p.wait_ns = ns(tw.elapsed());
    let phase = tm.elapsed();
    out.makespan_s = phase.as_secs_f64();
    out.disc = stats_delta(&d0, &session.stats());
    out.tasks = out.disc.tasks;
    drop(session);
    let obs = exec.take_obs();
    out.counters = counter_delta(&c0, &obs.counters);
    let mut iterations = WARMUP + measured;

    if traced {
        p.accounted_ns = p.build_ns + p.wait_ns;
        p.build_ns -= p.submit_ns;
        p.measured_ns = ns(phase);
        fill_breakdown(&mut p, &obs, exec.n_workers());
        // One more iteration through a capturing session: the critical
        // path needs the executed graph.
        let mut cap = exec.session_capturing(OptConfig::all());
        cap.set_iter(iterations);
        build(prog, iterations, &mut cap);
        let (graph, _) = cap.finish_capture();
        iterations += 1;
        let obs = exec.take_obs();
        p.critical_path_ns =
            critical_path(&graph, &obs.events, obs.trace.span_ns, exec.n_workers() + 1).cp_ns;
        out.producer = Some(p);
    }
    (out, iterations)
}

fn capture_phases(
    prog: &LuleshTask,
    exec: &Executor,
    measured: u64,
    traced: bool,
    t0: Instant,
) -> (JobOut, u64) {
    let mut region = exec.persistent_region(OptConfig::all());
    for iter in 0..WARMUP {
        region.invalidate();
        region.run(iter, |sub| build(prog, iter, sub));
    }
    let mut out = JobOut {
        setup_s: t0.elapsed().as_secs_f64(),
        ..Default::default()
    };
    let c0 = exec.take_obs().counters;

    let mut p = ProducerTrace::default();
    let tm = Instant::now();
    for k in 0..measured {
        let iter = WARMUP + k;
        // Dropping the previous capture: in the makespan, outside the
        // producer timeline.
        region.invalidate();
        let tr = Instant::now();
        let mut build_ns = 0;
        region.run(iter, |sub| {
            let tb = Instant::now();
            if traced {
                let mut ts = TimingSubmitter::new(sub);
                build(prog, iter, &mut ts);
                p.submit_ns += ts.submit_ns;
                p.submitted += ts.tasks;
            } else {
                build(prog, iter, sub);
            }
            build_ns = ns(tb.elapsed());
        });
        p.accounted_ns += ns(tr.elapsed());
        p.build_ns += build_ns;
        // As on a stream, an iteration is the producer's `build_iteration`
        // call; the capture's closing `wait_all` waits on the worker, and
        // shows in the makespan only.
        out.iter_ms.push(build_ns as f64 * 1e-6);
        let d = region.first_iteration_stats();
        out.tasks += d.tasks;
        out.disc = d;
    }
    let phase = tm.elapsed();
    out.makespan_s = phase.as_secs_f64();
    let obs = exec.take_obs();
    out.counters = counter_delta(&c0, &obs.counters);
    let mut iterations = WARMUP + measured;

    if traced {
        // Each `run` is the build (submit inside it), then the capture's
        // `wait_all` and template hand-over: the rest of the run.
        p.wait_ns = p.accounted_ns - p.build_ns;
        p.build_ns -= p.submit_ns;
        p.measured_ns = ns(phase);
        fill_breakdown(&mut p, &obs, exec.n_workers());
        region.invalidate();
        region.run(iterations, |sub| build(prog, iterations, sub));
        iterations += 1;
        let obs = exec.take_obs();
        let graph = region.template().expect("captured by the last run");
        p.critical_path_ns =
            critical_path(graph, &obs.events, obs.trace.span_ns, exec.n_workers() + 1).cp_ns;
        out.producer = Some(p);
    }
    (out, iterations)
}

/// The breakdown over the worker lanes only. The producer's lane is left
/// out: its discovery and submit time is not worker idle time.
fn fill_breakdown(p: &mut ProducerTrace, obs: &ptdg_core::obs::ObsReport, n_workers: usize) {
    let t = &obs.trace;
    let workers = Trace {
        spans: t
            .spans
            .iter()
            .filter(|s| (s.worker as usize) < n_workers)
            .copied()
            .collect(),
        n_workers,
        discovery_ns: t.discovery_ns,
        span_ns: t.span_ns,
    };
    p.breakdown = Breakdown::from_trace(&workers);
    p.discovery_ns = t.total_ns(SpanKind::Discovery);
    p.events_dropped = obs.counters.events_dropped;
}

/// Submit rank 0's iteration `iter` into `sub`.
fn build(prog: &LuleshTask, iter: u64, sub: &mut dyn TaskSubmitter) {
    prog.build_iteration(0, iter, sub);
}

/// Tasks a program submits over all ranks and iterations.
fn count_tasks(prog: &LuleshTask) -> u64 {
    let mut c = CountingSubmitter::default();
    for rank in 0..prog.n_ranks() {
        for iter in 0..prog.n_iterations() {
            prog.build_iteration(rank, iter, &mut c);
        }
    }
    c.tasks
}

/// Run one simulator job on the paper's 16-core EPYC node model with
/// seeded work jitter: build the program, one warm-up call inside set-up,
/// then [`SIM_CALLS`] measured calls. Every call must report no
/// communication error, discover every task of the program, complete
/// every request it posted, and give the warm-up call's virtual makespan.
pub fn sim_job(app: &LuleshApp, seed: u64) -> JobOut {
    let t0 = Instant::now();
    let program = app.sim_program(SIM_RANKS, SIM_ITERATIONS);
    let space = &program.space;
    let expected = count_tasks(&program);
    let machine = MachineConfig::epyc_16();
    let cfg = SimConfig {
        n_ranks: SIM_RANKS as u32,
        seed,
        work_jitter: 0.05,
        ..SimConfig::default()
    };
    let check = |r: &ptdg_simrt::SimReport| -> Result<(), String> {
        if let Some(e) = &r.comm_error {
            return Err(format!(
                "simulated run reported a communication error: {e:?}"
            ));
        }
        let executed: u64 = r.ranks.iter().map(|k| k.disc.tasks).sum();
        if executed != expected {
            return Err(format!(
                "{executed} tasks discovered, program has {expected}"
            ));
        }
        let posted: u64 = r.ranks.iter().map(|k| k.counters.comms_posted).sum();
        let done: u64 = r.ranks.iter().map(|k| k.counters.comms_completed).sum();
        if posted != done {
            return Err(format!("{posted} requests posted, {done} completed"));
        }
        Ok(())
    };
    let warm = simulate_tasks(&machine, &cfg, space, &program);
    let mut out = JobOut {
        setup_s: t0.elapsed().as_secs_f64(),
        failure: check(&warm).err(),
        ..Default::default()
    };
    let pin = warm.total_time_s();
    let tm = Instant::now();
    for _ in 0..SIM_CALLS {
        let ti = Instant::now();
        let r = simulate_tasks(&machine, &cfg, space, &program);
        out.iter_ms.push(ms(ti.elapsed()));
        out.tasks += r.ranks.iter().map(|k| k.tasks_executed).sum::<u64>();
        if out.failure.is_none() {
            out.failure = check(&r).err();
        }
        if out.failure.is_none() && r.total_time_s().to_bits() != pin.to_bits() {
            out.failure = Some(format!(
                "virtual makespan {} differs from the warm-up call's {pin}",
                r.total_time_s()
            ));
        }
    }
    out.makespan_s = tm.elapsed().as_secs_f64();
    let mut cache = AccessStats::default();
    for k in &warm.ranks {
        cache.merge(k.cache);
    }
    out.sim = Some(SimOut {
        virtual_s: pin,
        cache,
        comms_posted: warm.ranks.iter().map(|k| k.counters.comms_posted).sum(),
        lanes_remainder_ns: warm
            .ranks
            .iter()
            .map(|k| {
                let capacity = k.span_ns as i64 * k.n_cores as i64;
                capacity - (k.work_ns + k.overhead_ns + k.idle_ns) as i64
            })
            .sum(),
    });
    out
}
