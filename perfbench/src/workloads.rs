//! The two workloads, and the runs that turn repeated jobs into the
//! end-to-end and per-layer metrics.

use crate::app::LuleshApp;
use crate::jobs::{sim_job, thread_job, JobOut, Mode, SIM_ITERATIONS, SIM_RANKS};
use crate::layers;
use crate::stats::{median, percentile, percentile_reportable, relative_iqr};
use ptdg_simrt::MachineConfig;
use std::time::{Duration, Instant};

/// One workload: LULESH at one per-rank size, and how the thread
/// executor runs it.
pub struct Workload {
    pub name: &'static str,
    /// Elements per edge per rank.
    pub s: usize,
    /// Tasks per loop.
    pub tpl: usize,
    pub mode: Mode,
}

/// The benchmark's workloads.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            // Fine-grain LULESH streamed through one session: discovery-bound,
            // the paper's Fig. 1 regime.
            name: "lulesh-stream",
            s: 24,
            tpl: 512,
            mode: Mode::Stream,
        },
        Workload {
            // The same program captured into a persistent region every
            // iteration: the paper's costly first iteration, as an
            // adaptive application pays it after each invalidation.
            name: "lulesh-capture",
            s: 24,
            tpl: 512,
            mode: Mode::Capture,
        },
    ]
}

impl Workload {
    /// The workload's application with the run's seed.
    pub fn app(&self, seed: u64) -> LuleshApp {
        LuleshApp::new(self.s, self.tpl, seed)
    }
}

/// The workload called `name`.
pub fn find(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// Fewest jobs a run makes, however short `--seconds` is.
pub const MIN_JOBS: usize = 3;

/// Measured iterations of an end-to-end job: enough that its p90 has
/// 10 samples beyond it.
pub const MEASURED: u64 = 100;

/// Measured iterations of the traced run's thread jobs.
pub const TRACED_ITERATIONS: u64 = 20;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Lines printed before the result: diagnostics and verification pins.
    pub notes: Vec<String>,
}

impl RunResult {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Count a job, log it, and keep it only if its output verified.
    fn take(&mut self, label: &str, job: JobOut, kept: &mut Vec<JobOut>) {
        self.attempted += 1;
        let line = format!(
            "{label} {}: setup {:.6} s, measured {:.6} s, {} tasks, {} iterations",
            self.attempted,
            job.setup_s,
            job.makespan_s,
            job.tasks,
            job.iter_ms.len()
        );
        match &job.failure {
            None => {
                self.notes.push(format!("{line}, verified"));
                kept.push(job);
            }
            Some(e) => {
                self.failed += 1;
                self.notes.push(format!("{line}, FAILED: {e}"));
            }
        }
    }
}

fn med(jobs: &[JobOut], f: impl Fn(&JobOut) -> f64) -> f64 {
    median(&jobs.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

/// The untraced run: repeat the workload's job for `seconds` (at least
/// [`MIN_JOBS`] times) and report the end-to-end metrics over the jobs
/// whose output verified.
pub fn run_end_to_end(w: &Workload, seed: u64, seconds: u64, n_workers: usize) -> RunResult {
    let app = w.app(seed);
    let mut r = RunResult::default();
    let mut jobs = Vec::new();
    let start = Instant::now();
    while (r.attempted as usize) < MIN_JOBS || start.elapsed() < Duration::from_secs(seconds) {
        let job = thread_job(&app, w.mode, MEASURED, n_workers, false);
        r.take("job", job, &mut jobs);
    }
    if jobs.is_empty() {
        return r;
    }
    r.push("setup_s", med(&jobs, |j| j.setup_s), "s");
    r.push("makespan_s", med(&jobs, |j| j.makespan_s), "s");
    r.push(
        "tasks_per_s",
        med(&jobs, |j| j.tasks as f64 / j.makespan_s),
        "1/s",
    );
    // Each job's percentile over its own iterations, then the median over
    // jobs: a burst of host noise that hits a few jobs moves none of it.
    let job_percentile = |p: f64| med(&jobs, |j| percentile(&j.iter_ms, p).unwrap_or(f64::NAN));
    r.push("iter_ms_p50", job_percentile(50.0), "ms");
    let per_job = jobs[0].iter_ms.len();
    if percentile_reportable(per_job, 90.0) {
        r.push("iter_ms_p90", job_percentile(90.0), "ms");
    } else {
        r.notes.push(format!(
            "iter_ms_p90 not reported: {per_job} iterations per job leave fewer than 10 beyond p90"
        ));
    }
    let iters: usize = jobs.iter().map(|j| j.iter_ms.len()).sum();
    let makespans: Vec<f64> = jobs.iter().map(|j| j.makespan_s).collect();
    r.notes.push(format!(
        "{} verified jobs, {iters} iteration samples; makespan IQR/median over jobs {:.4}",
        jobs.len(),
        relative_iqr(&makespans).unwrap_or(0.0)
    ));
    r
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The traced run: alternate untraced and traced thread jobs, then run
/// simulator jobs, then the per-layer probes, and report every per-layer
/// metric.
pub fn run_traced(w: &Workload, seed: u64, seconds: u64, n_workers: usize) -> RunResult {
    let app = w.app(seed);
    let mut r = RunResult::default();
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();

    // Thread layers: at least two pairs of untraced/traced jobs, for 60%
    // of the budget; then simulator jobs, at least one, for the rest.
    // A traced job keeps every span and event in memory, so both jobs of
    // a pair run a shorter measured phase than the end-to-end job.
    let (mut plain, mut traced, mut sims) = (Vec::new(), Vec::new(), Vec::new());
    while r.attempted < 4 || start.elapsed() < budget.mul_f64(0.6) {
        let job = thread_job(&app, w.mode, TRACED_ITERATIONS, n_workers, false);
        r.take("untraced job", job, &mut plain);
        let job = thread_job(&app, w.mode, TRACED_ITERATIONS, n_workers, true);
        r.take("traced job", job, &mut traced);
    }
    loop {
        let job = sim_job(&app, seed);
        r.take("simulator job", job, &mut sims);
        if start.elapsed() >= budget {
            break;
        }
    }
    if plain.is_empty() || traced.is_empty() || sims.is_empty() {
        return r;
    }

    let prod = |f: &dyn Fn(&crate::jobs::ProducerTrace) -> f64| {
        med(&traced, |j| {
            f(j.producer.as_ref().expect("traced jobs carry a trace"))
        })
    };
    r.push(
        "app.build_ns_per_task",
        prod(&|p| ratio(p.build_ns, p.submitted)),
        "ns",
    );
    r.push("app.kernel_ms_per_iter", app.kernel_ms_per_iter(10), "ms");

    let bare = app.bare();
    let specs = layers::record_stream(&bare, 0, 0);
    r.push(
        "graph.discover_ns_per_task",
        layers::discover_ns_per_task(&specs),
        "ns",
    );
    let d = |f: &dyn Fn(&ptdg_core::graph::DiscoveryStats) -> f64| med(&plain, |j| f(&j.disc));
    r.push(
        "graph.edges_per_task",
        d(&|s| ratio(s.edges_created, s.tasks)),
        "count",
    );
    r.push(
        "graph.depend_items_per_task",
        d(&|s| ratio(s.depend_items, s.tasks)),
        "count",
    );
    r.push(
        "graph.redirects_per_task",
        d(&|s| ratio(s.redirect_nodes, s.tasks)),
        "count",
    );
    r.push(
        "graph.dup_skip_ratio",
        d(&|s| ratio(s.dup_skipped, s.dup_probes)),
        "ratio",
    );
    r.push(
        "graph.prune_ratio",
        d(&|s| ratio(s.edges_pruned, s.edges_created + s.edges_pruned)),
        "ratio",
    );

    r.push(
        "exec.submit_ns_per_task",
        prod(&|p| ratio(p.submit_ns, p.submitted)),
        "ns",
    );
    r.push("exec.wait_ms", prod(&|p| p.wait_ns as f64 * 1e-6), "ms");
    let probe_iters = (30_000 / specs.len()).clamp(2, 50);
    r.push(
        "exec.empty_ns_per_task",
        layers::empty_ns_per_task(&specs, n_workers, probe_iters),
        "ns",
    );
    r.push(
        "rt.rearm_ns_per_task",
        layers::rearm_ns_per_task(&specs, n_workers, probe_iters),
        "ns",
    );
    r.push(
        "rt.queue_push_pop_ns",
        layers::queue_push_pop_ns(n_workers, 1 << 20),
        "ns",
    );
    let c = |f: &dyn Fn(&JobOut) -> f64| med(&plain, f);
    r.push(
        "rt.parks_per_ktask",
        c(&|j| 1e3 * ratio(j.counters.parks, j.tasks)),
        "count",
    );
    r.push(
        "rt.unparks_per_ktask",
        c(&|j| 1e3 * ratio(j.counters.unparks, j.tasks)),
        "count",
    );
    r.push(
        "rt.steal_success_ratio",
        c(&|j| ratio(j.counters.steal_successes, j.counters.steal_attempts)),
        "ratio",
    );
    r.push(
        "rt.throttle_stalls",
        c(&|j| j.counters.throttle_stalls as f64),
        "count",
    );
    r.push(
        "rt.throttle_stall_ms",
        c(&|j| j.counters.throttle_stall_ns as f64 * 1e-6),
        "ms",
    );
    r.push("rt.ready_hwm", c(&|j| j.counters.ready_hwm as f64), "count");
    r.push("rt.live_hwm", c(&|j| j.counters.live_hwm as f64), "count");

    r.push("exec.work_s", prod(&|p| p.breakdown.total_work_s()), "s");
    r.push(
        "exec.overhead_s",
        prod(&|p| p.breakdown.total_overhead_s()),
        "s",
    );
    r.push("exec.idle_s", prod(&|p| p.breakdown.total_idle_s()), "s");
    r.push(
        "exec.discovery_s",
        prod(&|p| p.discovery_ns as f64 * 1e-9),
        "s",
    );
    r.push(
        "exec.critical_path_ms",
        prod(&|p| p.critical_path_ns as f64 * 1e-6),
        "ms",
    );
    r.push("comm.progress_ns", layers::comm_progress_ns(1 << 20), "ns");

    let plain_ms = med(&plain, |j| j.makespan_s);
    let traced_ms = med(&traced, |j| j.makespan_s);
    r.push(
        "obs.trace_overhead_pct",
        100.0 * (traced_ms / plain_ms - 1.0),
        "%",
    );
    r.push(
        "obs.events_dropped",
        prod(&|p| p.events_dropped as f64),
        "count",
    );

    // Layer sums. The producer timeline must cover the measured phase.
    r.push(
        "check.producer_remainder_ms",
        prod(&|p| (p.measured_ns as f64 - p.accounted_ns as f64) * 1e-6),
        "ms",
    );
    r.notes.push(
        "exec.overhead_s is 0 and the lanes check is made on the simulator: the thread \
         executor's trace holds only Work spans, so Breakdown::from_trace takes a worker \
         lane's idle time to be the rest of its span, and work + overhead + idle equals \
         workers x span by construction there"
            .into(),
    );

    let sim_prog = app.sim_program(SIM_RANKS, SIM_ITERATIONS);
    let sim_specs = layers::record_stream(&sim_prog, 0, 0);
    let per_call = |j: &JobOut| j.tasks as f64 / j.iter_ms.len() as f64;
    r.push(
        "sim.wall_ns_per_task",
        med(&sims, |j| {
            let call_ms = median(&j.iter_ms).unwrap_or(f64::NAN);
            call_ms * 1e6 / per_call(j)
        }),
        "ns",
    );
    r.push(
        "sim.discover_ns_per_task",
        layers::discover_ns_per_task(&sim_specs),
        "ns",
    );
    let machine = MachineConfig::epyc_16();
    r.push(
        "memsim.touch_ns_per_block",
        layers::touch_ns_per_block(&sim_prog.space, &sim_specs, &machine.mem, machine.n_cores),
        "ns",
    );
    let s = sims[0].sim.as_ref().expect("simulator jobs carry figures");
    r.push(
        "memsim.l1_hit_ratio",
        1.0 - ratio(s.cache.l1_misses, s.cache.accesses),
        "ratio",
    );
    r.push(
        "memsim.l3_miss_ratio",
        ratio(s.cache.l3_misses, s.cache.accesses),
        "ratio",
    );
    r.push(
        "simmpi.msgs_per_iter",
        s.comms_posted as f64 / SIM_ITERATIONS as f64,
        "count",
    );
    // The simulator adds up work, overhead and idle per core as they
    // happen; their sum must fill cores x span on every rank.
    r.push(
        "check.sim_lanes_remainder_ms",
        s.lanes_remainder_ns as f64 * 1e-6,
        "ms",
    );
    r.notes.push(format!(
        "simulator: {} requests posted and completed per run; virtual makespan {:.9} s",
        s.comms_posted, s.virtual_s
    ));
    r
}
