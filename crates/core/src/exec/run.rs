//! Whole-program entry point for the thread back-end.
//!
//! Runs a [`RankProgram`] — the same value `ptdg_simrt::simulate_tasks`
//! accepts — on real threads. Each rank gets its own worker pool, all
//! ranks run *concurrently* (scoped threads), and they exchange messages
//! through a shared in-process [`CommWorld`]: `Isend`/`Irecv`/
//! `Iallreduce` tasks post real requests, detach, and complete off-core
//! when the request matches — the same contract the simulator models.

use super::executor::{ExecConfig, Executor};
use crate::comm::{CommConfig, CommError, CommWorld};
use crate::graph::{DiscoveryStats, GraphTemplate};
use crate::obs::{RtCounters, RtEvent};
use crate::opts::OptConfig;
use crate::profile::Trace;
use crate::program::RankProgram;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of a [`run_program`] call.
#[derive(Clone, Debug, Default)]
pub struct ThreadsConfig {
    /// Worker-pool configuration (applied per rank; profiling and event
    /// recording are honoured on rank 0, mirroring the simulator's
    /// `record_trace_rank`).
    pub exec: ExecConfig,
    /// Discovery optimizations.
    pub opts: OptConfig,
    /// In-process network tuning (eager/rendezvous threshold).
    pub comm: CommConfig,
    /// Use a persistent region per rank (optimization (p)) instead of
    /// streaming discovery every iteration.
    pub persistent: bool,
    /// Discover each rank's full stream before executing any task
    /// (paper Table 1, non-overlapped).
    pub non_overlapped: bool,
    /// Capture the discovered graph per rank (equivalence checks). In
    /// persistent mode the capture is the first-iteration template; in
    /// streaming mode it spans every iteration.
    pub capture_graph: bool,
}

/// What [`run_program`] reports.
#[derive(Clone, Debug, Default)]
pub struct ThreadsReport {
    /// Ranks executed.
    pub n_ranks: u32,
    /// Discovery statistics per rank.
    pub per_rank_stats: Vec<DiscoveryStats>,
    /// Producer-side discovery span per rank, nanoseconds.
    pub discovery_ns: Vec<u64>,
    /// Captured graph per rank (empty unless
    /// [`ThreadsConfig::capture_graph`]).
    pub graphs: Vec<GraphTemplate>,
    /// Wall-clock for the whole run, nanoseconds.
    pub elapsed_ns: u64,
    /// Per-worker span trace of rank 0 (present when
    /// [`ExecConfig::profile`]).
    pub trace: Option<Trace>,
    /// Rank 0's lifecycle event stream (empty unless profiling or
    /// [`ExecConfig::record_events`]).
    pub events: Vec<RtEvent>,
    /// Kernel counters, merged over ranks (always filled).
    pub counters: RtCounters,
    /// Kernel counters per rank.
    pub per_rank_counters: Vec<RtCounters>,
    /// Communication error: unmatched requests, either force-completed by
    /// the deadlock detector mid-run or left over at the end (an eager
    /// send nobody received). `None` on a well-formed run.
    pub comm_error: Option<CommError>,
}

impl ThreadsReport {
    /// Discovery statistics merged over ranks.
    pub fn stats(&self) -> DiscoveryStats {
        let mut total = DiscoveryStats::default();
        for s in &self.per_rank_stats {
            total.merge(s);
        }
        total
    }
}

/// One rank's slice of the run, produced on that rank's producer thread.
struct RankOutput {
    stats: DiscoveryStats,
    discovery_ns: u64,
    graph: Option<GraphTemplate>,
    counters: RtCounters,
    events: Vec<RtEvent>,
    trace: Option<Trace>,
}

fn run_rank<P: RankProgram + Sync + ?Sized>(
    program: &P,
    cfg: &ThreadsConfig,
    world: Arc<CommWorld>,
    rank: u32,
) -> RankOutput {
    // Only rank 0 records spans/events (the simulator records one rank
    // too); counters come from atomics and are always collected.
    let mut exec_cfg = cfg.exec.clone();
    if rank != 0 {
        exec_cfg.profile = false;
        exec_cfg.record_events = false;
    }
    let exec = Executor::with_comm_world(exec_cfg, world, rank);
    let mut out = RankOutput {
        stats: DiscoveryStats::default(),
        discovery_ns: 0,
        graph: None,
        counters: RtCounters::default(),
        events: Vec::new(),
        trace: None,
    };
    let mut persistent_reuses = 0u64;
    if cfg.persistent {
        let mut region = exec.persistent_region(cfg.opts);
        for iter in 0..program.n_iterations() {
            region.run(iter, |sub| program.build_iteration(rank, iter, sub));
        }
        persistent_reuses = region.reuses();
        out.stats = region.first_iteration_stats();
        if cfg.capture_graph {
            if let Some(t) = region.template() {
                out.graph = Some((**t).clone());
            }
        }
    } else {
        let mut session = if cfg.capture_graph {
            exec.session_capturing(cfg.opts)
        } else if cfg.non_overlapped {
            exec.session_non_overlapped(cfg.opts)
        } else {
            exec.session(cfg.opts)
        };
        for iter in 0..program.n_iterations() {
            session.set_iter(iter);
            program.build_iteration(rank, iter, &mut session);
        }
        out.stats = session.stats();
        out.discovery_ns = session.discovery_ns();
        if cfg.capture_graph {
            let (graph, _) = session.finish_capture();
            out.graph = Some(graph);
        } else {
            session.wait_all();
        }
    }
    // This rank will post nothing more — tell the world, so peers blocked
    // on "done or stalled" can resolve.
    exec.comm_world().note_done(rank);
    let obs = exec.take_obs();
    out.counters = obs.counters;
    out.counters.absorb_discovery(&out.stats);
    out.counters.persistent_reuses = persistent_reuses;
    out.events = obs.events;
    if cfg.exec.profile && rank == 0 {
        out.trace = Some(obs.trace);
    }
    out
}

/// Execute `program` on the thread back-end: one executor pool per rank,
/// ranks concurrent, communication through a shared in-process world.
pub fn run_program<P: RankProgram + Sync + ?Sized>(
    program: &P,
    cfg: &ThreadsConfig,
) -> ThreadsReport {
    let n_ranks = program.n_ranks();
    let world = Arc::new(CommWorld::new(n_ranks, cfg.comm));
    let t0 = Instant::now();
    let outputs: Vec<RankOutput> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_ranks)
            .map(|rank| {
                let world = Arc::clone(&world);
                scope.spawn(move || run_rank(program, cfg, world, rank))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    });
    let mut report = ThreadsReport {
        n_ranks,
        elapsed_ns: t0.elapsed().as_nanos() as u64,
        comm_error: world.finish(),
        ..Default::default()
    };
    for (rank, mut out) in (0..).zip(outputs) {
        // `finish` matched what was still in flight; the census is only
        // complete now.
        out.counters.unexpected_msgs = world.unexpected_count(rank);
        report.per_rank_stats.push(out.stats);
        report.discovery_ns.push(out.discovery_ns);
        if let Some(g) = out.graph {
            report.graphs.push(g);
        }
        report.counters.merge(&out.counters);
        report.per_rank_counters.push(out.counters);
        if !out.events.is_empty() {
            report.events = out.events;
        }
        if out.trace.is_some() {
            report.trace = out.trace;
        }
    }
    report
}
