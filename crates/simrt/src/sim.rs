//! The virtual-time task executor.
//!
//! One discrete-event simulation drives `n_ranks` virtual nodes, each with
//! `n_cores` cores. Core 0 of every rank doubles as the **producer**: it
//! discovers the TDG sequentially at the modeled cost (per task, per depend
//! item, per edge, per duplicate probe — or per re-instanced task in
//! persistent mode) and joins the worker pool when discovery is done, or
//! temporarily when throttling bounds are exceeded. Workers execute ready
//! tasks with the depth-first (local LIFO + steal) or breadth-first policy,
//! their work time coming from the `ptdg-memsim` cache model under shared
//! DRAM contention; communication tasks post into the `ptdg-simmpi` network
//! with detached-completion semantics.
//!
//! Graph state is **not** simulated here: nodes, in-degree counters,
//! readiness, hold gate, throttling and persistent re-instancing all come
//! from the shared runtime kernel ([`ptdg_core::rt`]) — the same code the
//! thread executor runs. This file is purely the *DES cost-model policy*:
//! it decides what each kernel transition costs in virtual time and which
//! simulated core performs it.

use crate::machine::MachineConfig;
use crate::program::RankProgram;
use crate::report::{RankReport, SimReport};
use ptdg_core::builder::RecordingSubmitter;
use ptdg_core::comm::CommError;
use ptdg_core::graph::{DiscoveryEngine, DiscoveryStats};
use ptdg_core::handle::HandleSpace;
use ptdg_core::obs::{EventRecorder, EVENT_RING_CAPACITY};
use ptdg_core::opts::OptConfig;
use ptdg_core::profile::{Span, SpanKind, Trace};
use ptdg_core::rt::{
    GraphInstance, HoldGate, InstanceOptions, NodeRef, PersistentInstance, ReadyQueues,
    ReadyTracker, RtProbe, SchedPolicy, ThrottleGate, REINSTANCE_BATCH,
};
use ptdg_core::task::{TaskId, TaskSpec};
use ptdg_core::workdesc::{CommOp, WorkDesc};
use ptdg_core::ThrottleConfig;
use ptdg_memsim::{BlockRange, DramContention, MemoryHierarchy};
use ptdg_simcore::{EventQueue, SimTime, SplitRng};
use ptdg_simmpi::{Network, ReqId};
use std::collections::HashMap;
use std::sync::Arc;

/// Producer retry period while throttled with nothing to help with.
const THROTTLE_RETRY: SimTime = SimTime(5_000);

/// Simulation configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of MPI ranks.
    pub n_ranks: u32,
    /// Runtime discovery optimizations (b)/(c).
    pub opts: OptConfig,
    /// Scheduling policy.
    pub policy: SchedPolicy,
    /// Optimization (p): persistent task sub-graph across iterations.
    pub persistent: bool,
    /// Paper Table 1 "non overlapped": discover everything first.
    pub non_overlapped: bool,
    /// Producer throttling.
    pub throttle: ThrottleConfig,
    /// Interconnect parameters.
    pub net: ptdg_simmpi::NetConfig,
    /// Record a full span trace on this rank (Gantt export).
    pub record_trace_rank: Option<u32>,
    /// Relative amplitude of deterministic per-task work-time jitter
    /// (models system noise and data-dependent imbalance; the source of
    /// collective skew in distributed runs). 0.0 = none.
    pub work_jitter: f64,
    /// Seed of the jitter streams.
    pub seed: u64,
    /// Capture the discovered graph per rank into
    /// [`SimReport::graphs`] (cross-backend equivalence checks). Capture
    /// disables edge pruning, like persistent capture does.
    pub capture_graph: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            n_ranks: 1,
            opts: OptConfig::all(),
            policy: SchedPolicy::DepthFirst,
            persistent: false,
            non_overlapped: false,
            throttle: ThrottleConfig::unbounded(),
            net: ptdg_simmpi::NetConfig::default(),
            record_trace_rank: None,
            work_jitter: 0.0,
            seed: 0x5EED,
            capture_graph: false,
        }
    }
}

#[derive(Debug)]
enum Ev {
    /// Producer does its next unit of discovery work.
    Producer(u32),
    /// A core is free and looks for a task.
    CoreFree { rank: u32, core: u32 },
    /// A compute task finishes.
    TaskDone {
        rank: u32,
        core: u32,
        node: u32,
        work_ns: u64,
        demand: Option<ptdg_memsim::DemandId>,
    },
    /// A communication request completes.
    ReqDone(ReqId),
}

enum Prod {
    StartIter(u64),
    Discover {
        iter: u64,
        specs: std::collections::VecDeque<TaskSpec>,
    },
    Reinstance {
        iter: u64,
        next: usize,
    },
    Barrier {
        next_iter: u64,
    },
    Worker,
}

struct RankState {
    engine: DiscoveryEngine,
    /// Streaming graph state (kernel).
    instance: GraphInstance,
    tracker: Arc<ReadyTracker>,
    queues: ReadyQueues<u32>,
    gate: HoldGate<u32>,
    throttle: ThrottleGate,
    /// Instanced persistent graph after iteration 0 (kernel).
    pinst: Option<PersistentInstance>,
    /// Recycled publish buffer for re-instanced iterations.
    publish_buf: Vec<NodeRef>,
    /// Memory footprint per node id, resolved once at creation (the
    /// cost-model side table the kernel is agnostic of).
    blocks: Vec<Vec<BlockRange>>,
    prod: Prod,
    producer_helping: bool,
    producer_done: bool,
    idle_since: Vec<Option<SimTime>>,
    hier: MemoryHierarchy,
    contention: DramContention,
    in_template_iter: bool, // executing a re-instanced iteration
    // accounting
    work_ns: u64,
    overhead_ns: u64,
    idle_ns: u64,
    tasks_executed: u64,
    last_event: SimTime,
    stalls: ptdg_memsim::StallCycles,
    /// Cumulative producer time spent discovering / re-instancing (the
    /// paper's Table 2 "discovery" column: busy time, excluding barriers
    /// and helping).
    disc_busy_ns: u64,
    disc_first_iter_ns: u64,
    // overlap accounting
    open_tracked: u32,
    running_work: u32,
    overlap_last: SimTime,
    overlapped_ns: u64,
    // trace
    trace: Option<Vec<Span>>,
    /// Lifecycle-event sink the kernel emit sites narrate through;
    /// enabled on the `record_trace_rank` rank only (spans stay in the
    /// per-rank vector above — the recorder only carries events here).
    probe: Arc<EventRecorder>,
    throttle_stalls: u64,
    throttle_stall_ns: u64,
    comms_posted: u64,
    comms_completed: u64,
    comm_wait_ns: u64,
    rng: SplitRng,
}

impl RankState {
    /// The live node for `id` in the current execution mode.
    fn node(&self, id: u32) -> &NodeRef {
        if self.in_template_iter {
            self.pinst
                .as_ref()
                .expect("template iteration")
                .node(TaskId(id))
        } else {
            self.instance.node(TaskId(id))
        }
    }

    fn acc_overlap(&mut self, now: SimTime) {
        // start_exec pre-advances the accounting clock to the task's start
        // time; an event landing inside that window contributes nothing.
        if now <= self.overlap_last {
            return;
        }
        if self.open_tracked > 0 {
            self.overlapped_ns +=
                (now.as_ns() - self.overlap_last.as_ns()) * self.running_work as u64;
        }
        self.overlap_last = now;
    }

    fn span(
        &mut self,
        worker: u32,
        start: SimTime,
        end: SimTime,
        kind: SpanKind,
        name: &'static str,
        iter: u64,
    ) {
        if let Some(tr) = &mut self.trace {
            tr.push(Span {
                worker,
                start_ns: start.as_ns(),
                end_ns: end.as_ns(),
                kind,
                name,
                iter,
            });
        }
    }
}

/// Resolve a work description's footprint to memory-model block ranges.
fn resolve_blocks(space: &HandleSpace, work: &WorkDesc) -> Vec<BlockRange> {
    let bb = space.block_bytes();
    work.footprint
        .iter()
        .filter(|s| s.len > 0)
        .map(|s| {
            let info = space.info(s.handle);
            let first = info.base_block + s.offset / bb;
            let last = info.base_block + (s.offset + s.len - 1) / bb;
            BlockRange::new(first, (last - first + 1) as u32)
        })
        .collect()
}

/// The simulation driver.
pub struct TaskSim<'p> {
    machine: MachineConfig,
    cfg: SimConfig,
    space: HandleSpace,
    program: &'p dyn RankProgram,
    evq: EventQueue<Ev>,
    ranks: Vec<RankState>,
    net: Network,
    req_map: HashMap<ReqId, (u32, u32)>,
}

/// Simulate a task-based program and return its measurements.
pub fn simulate_tasks(
    machine: &MachineConfig,
    cfg: &SimConfig,
    space: &HandleSpace,
    program: &dyn RankProgram,
) -> SimReport {
    assert!(
        !(cfg.persistent && cfg.non_overlapped),
        "persistent + non-overlapped is not a studied configuration"
    );
    let mut sim = TaskSim::new(machine.clone(), cfg.clone(), space.clone(), program);
    sim.run()
}

impl<'p> TaskSim<'p> {
    fn new(
        machine: MachineConfig,
        cfg: SimConfig,
        space: HandleSpace,
        program: &'p dyn RankProgram,
    ) -> Self {
        assert_eq!(
            machine.mem.block_bytes,
            space.block_bytes(),
            "HandleSpace block size must match the memory model"
        );
        let n_cores = machine.n_cores;
        let ranks = (0..cfg.n_ranks)
            .map(|r| {
                let tracker = Arc::new(ReadyTracker::new());
                let probe = Arc::new(EventRecorder::with_capacity(
                    1,
                    cfg.record_trace_rank == Some(r),
                    0,
                    EVENT_RING_CAPACITY,
                ));
                let mut instance = GraphInstance::new(
                    Arc::clone(&tracker),
                    InstanceOptions {
                        want_bodies: false,
                        keep_work: true,
                        capture: cfg.persistent || cfg.capture_graph,
                    },
                );
                instance.set_probe(Arc::clone(&probe) as Arc<dyn RtProbe>);
                RankState {
                    engine: DiscoveryEngine::new(cfg.opts),
                    instance,
                    tracker,
                    queues: ReadyQueues::new_lock_free(cfg.policy, n_cores),
                    gate: HoldGate::new(cfg.non_overlapped),
                    throttle: ThrottleGate::new(cfg.throttle),
                    pinst: None,
                    publish_buf: Vec::new(),
                    blocks: Vec::new(),
                    prod: Prod::StartIter(0),
                    producer_helping: false,
                    producer_done: false,
                    idle_since: vec![None; n_cores],
                    hier: MemoryHierarchy::new(machine.mem.clone(), n_cores),
                    contention: DramContention::new(machine.mem.dram_bw_bytes_per_s),
                    in_template_iter: false,
                    work_ns: 0,
                    overhead_ns: 0,
                    idle_ns: 0,
                    tasks_executed: 0,
                    last_event: SimTime::ZERO,
                    stalls: Default::default(),
                    disc_busy_ns: 0,
                    disc_first_iter_ns: 0,
                    open_tracked: 0,
                    running_work: 0,
                    overlap_last: SimTime::ZERO,
                    overlapped_ns: 0,
                    trace: (cfg.record_trace_rank == Some(r)).then(Vec::new),
                    probe,
                    throttle_stalls: 0,
                    throttle_stall_ns: 0,
                    comms_posted: 0,
                    comms_completed: 0,
                    comm_wait_ns: 0,
                    rng: SplitRng::new(cfg.seed.wrapping_add(r as u64 * 0x9E37_79B9)),
                }
            })
            .collect();
        let net = Network::new(cfg.net.clone(), cfg.n_ranks);
        TaskSim {
            machine,
            cfg,
            space,
            program,
            evq: EventQueue::new(),
            ranks,
            net,
            req_map: HashMap::new(),
        }
    }

    fn run(&mut self) -> SimReport {
        for r in 0..self.cfg.n_ranks {
            self.evq.push(SimTime::ZERO, Ev::Producer(r));
            // Cores 1.. start idle; core 0 is the producer.
            for c in 1..self.machine.n_cores {
                self.ranks[r as usize].idle_since[c] = Some(SimTime::ZERO);
            }
        }
        while let Some(ev) = self.evq.pop() {
            let now = ev.time;
            match ev.payload {
                Ev::Producer(rank) => self.producer_step(rank, now),
                Ev::CoreFree { rank, core } => self.core_free(rank, core, now),
                Ev::TaskDone {
                    rank,
                    core,
                    node,
                    work_ns,
                    demand,
                } => self.task_done(rank, core, node, work_ns, demand, now),
                Ev::ReqDone(req) => self.req_done(req, now),
            }
        }
        self.finalize()
    }

    // ---- producer -------------------------------------------------------

    fn note_rank_time(&mut self, rank: u32, now: SimTime) {
        let st = &mut self.ranks[rank as usize];
        if now > st.last_event {
            st.last_event = now;
        }
    }

    fn producer_step(&mut self, rank: u32, now: SimTime) {
        self.note_rank_time(rank, now);
        let st = &mut self.ranks[rank as usize];
        match std::mem::replace(&mut st.prod, Prod::Worker) {
            Prod::StartIter(iter) => {
                if iter >= self.program.n_iterations() {
                    st.prod = Prod::Worker;
                    self.finish_discovery(rank, now);
                } else if self.cfg.persistent && iter > 0 {
                    // Kernel-side re-arm is bookkeeping; the *time* is
                    // charged by the paced Reinstance steps below, which
                    // drop the visibility tokens batch by batch.
                    let pinst = st.pinst.as_ref().expect("template frozen after iter 0");
                    pinst.begin_iteration_with(iter, &st.tracker, st.probe.as_ref(), now.as_ns());
                    st.in_template_iter = true;
                    st.prod = Prod::Reinstance { iter, next: 0 };
                    self.evq.push(now, Ev::Producer(rank));
                } else {
                    let mut rec = RecordingSubmitter::default();
                    self.program.build_iteration(rank, iter, &mut rec);
                    st.instance.set_iter(iter);
                    st.prod = Prod::Discover {
                        iter,
                        specs: rec.specs.into(),
                    };
                    self.evq.push(now, Ev::Producer(rank));
                }
            }
            Prod::Discover { iter, mut specs } => {
                // Throttling: the producer helps execute when bounds are hit.
                if st.throttle.should_help(&st.tracker) {
                    st.prod = Prod::Discover { iter, specs };
                    self.producer_help(rank, now);
                    return;
                }
                match specs.pop_front() {
                    None => {
                        if self.cfg.persistent {
                            // iteration 0 ends: freeze the template
                            debug_assert_eq!(iter, 0);
                            self.freeze_template(rank);
                            let st = &mut self.ranks[rank as usize];
                            st.disc_first_iter_ns = st.disc_busy_ns;
                            st.prod = Prod::Barrier {
                                next_iter: iter + 1,
                            };
                            if st.tracker.quiescent() {
                                self.evq.push(now, Ev::Producer(rank));
                            }
                        } else {
                            st.prod = Prod::StartIter(iter + 1);
                            self.evq.push(now, Ev::Producer(rank));
                        }
                    }
                    Some(spec) => {
                        let before = st.engine.stats();
                        let n_before = st.instance.len();
                        let RankState {
                            engine, instance, ..
                        } = st;
                        instance.set_now_ns(now.as_ns());
                        engine.submit(instance, &spec);
                        // Resolve the cost-model footprint of the nodes
                        // this submission created.
                        for id in n_before..st.instance.len() {
                            let w = st.instance.node(TaskId(id as u32)).work.as_ref();
                            st.blocks
                                .push(w.map_or_else(Vec::new, |w| resolve_blocks(&self.space, w)));
                        }
                        let cost =
                            self.discovery_cost(&before, &self.ranks[rank as usize].engine.stats());
                        let t_end = now + cost;
                        let st = &mut self.ranks[rank as usize];
                        st.overhead_ns += cost.as_ns();
                        st.disc_busy_ns += cost.as_ns();
                        st.span(0, now, t_end, SpanKind::Discovery, "<discovery>", iter);
                        st.prod = Prod::Discover { iter, specs };
                        for node in st.instance.drain_ready() {
                            self.activate(rank, node.id.0, None, t_end);
                        }
                        self.evq.push(t_end, Ev::Producer(rank));
                    }
                }
            }
            Prod::Reinstance { iter, next } => {
                let pinst = st.pinst.as_ref().expect("reinstance needs a template");
                let n0 = pinst.len();
                let hi = (next + REINSTANCE_BATCH).min(n0);
                let mut cost = SimTime::ZERO;
                for k in next..hi {
                    let fp = pinst.node(TaskId(k as u32)).fp_bytes as u64;
                    cost += self.machine.discovery.per_reinstance_task
                        + self.machine.discovery.per_fp_byte.scaled(fp);
                }
                let t_end = now + cost;
                st.overhead_ns += cost.as_ns();
                st.disc_busy_ns += cost.as_ns();
                st.span(0, now, t_end, SpanKind::Discovery, "<reinstance>", iter);
                let mut ready = std::mem::take(&mut st.publish_buf);
                st.pinst.as_ref().unwrap().publish_into(
                    next..hi,
                    st.probe.as_ref(),
                    t_end.as_ns(),
                    &mut ready,
                );
                for node in ready.drain(..) {
                    self.activate(rank, node.id.0, None, t_end);
                }
                self.ranks[rank as usize].publish_buf = ready;
                let st = &mut self.ranks[rank as usize];
                if hi >= n0 {
                    st.prod = Prod::Barrier {
                        next_iter: iter + 1,
                    };
                    if st.tracker.quiescent() {
                        self.evq.push(t_end, Ev::Producer(rank));
                    }
                } else {
                    st.prod = Prod::Reinstance { iter, next: hi };
                    self.evq.push(t_end, Ev::Producer(rank));
                }
            }
            Prod::Barrier { next_iter } => {
                if st.tracker.quiescent() {
                    st.in_template_iter = false;
                    st.prod = Prod::StartIter(next_iter);
                    self.evq.push(now, Ev::Producer(rank));
                } else {
                    st.prod = Prod::Barrier { next_iter };
                }
            }
            Prod::Worker => { /* stale event after discovery finished */ }
        }
    }

    fn discovery_cost(&self, before: &DiscoveryStats, after: &DiscoveryStats) -> SimTime {
        let d = self.machine.discovery.clone();
        let tasks = after.tasks - before.tasks;
        let redirects = after.redirect_nodes - before.redirect_nodes;
        let deps = after.depend_items - before.depend_items;
        let created = after.edges_created - before.edges_created;
        let pruned = after.edges_pruned - before.edges_pruned;
        let probes = after.dup_probes - before.dup_probes;
        d.per_task.scaled(tasks)
            + d.per_redirect.scaled(redirects)
            + d.per_depend.scaled(deps)
            + d.per_edge.scaled(created)
            + d.per_pruned_edge.scaled(pruned)
            + d.per_dup_probe.scaled(probes)
    }

    /// End of the capturing iteration: instance the persistent graph from
    /// the kernel template (optimization (p)).
    fn freeze_template(&mut self, rank: u32) {
        let st = &mut self.ranks[rank as usize];
        let template = Arc::new(st.instance.finish_capture());
        st.pinst = Some(PersistentInstance::new(template, true));
    }

    fn finish_discovery(&mut self, rank: u32, now: SimTime) {
        let st = &mut self.ranks[rank as usize];
        st.producer_done = true;
        // Non-overlapped mode: everything was held back; release it now.
        for n in st.gate.release() {
            self.enqueue(rank, n, None, now);
        }
        // Core 0 joins the worker pool.
        self.evq.push(now, Ev::CoreFree { rank, core: 0 });
    }

    fn producer_help(&mut self, rank: u32, now: SimTime) {
        if let Some((node, stolen)) = self.pick_task(rank, 0, now) {
            self.ranks[rank as usize].producer_helping = true;
            self.start_exec(rank, 0, node, stolen, now);
        } else {
            // Throttled with nothing to help with: a genuine stall.
            let st = &mut self.ranks[rank as usize];
            st.throttle_stalls += 1;
            st.throttle_stall_ns += THROTTLE_RETRY.as_ns();
            self.evq.push(now + THROTTLE_RETRY, Ev::Producer(rank));
        }
    }

    // ---- readiness & queues ---------------------------------------------

    /// A node's dependences are all satisfied: route it.
    fn activate(&mut self, rank: u32, node: u32, by_core: Option<u32>, at: SimTime) {
        let st = &mut self.ranks[rank as usize];
        if st.node(node).is_redirect {
            // Redirect nodes are empty: they complete the moment they are
            // ready, costing nothing at execution time.
            self.complete_node(rank, node, by_core, at);
            return;
        }
        // `None` means the gate held the node until discovery finishes
        // (non-overlapped mode).
        if let Some(node) = st.gate.offer(node) {
            self.enqueue(rank, node, by_core, at)
        }
    }

    fn enqueue(&mut self, rank: u32, node: u32, by_core: Option<u32>, at: SimTime) {
        let st = &mut self.ranks[rank as usize];
        st.tracker.became_ready();
        st.queues.push(node, by_core.map(|c| c as usize));
        // Wake one idle core, if any.
        if let Some(core) = st.idle_since.iter().position(|s| s.is_some()) {
            let since = st.idle_since[core].take().unwrap();
            st.idle_ns += at.as_ns().saturating_sub(since.as_ns());
            st.span(core as u32, since, at, SpanKind::Idle, "", 0);
            self.evq.push(
                at + self.machine.sched.wakeup,
                Ev::CoreFree {
                    rank,
                    core: core as u32,
                },
            );
        }
    }

    fn pick_task(&mut self, rank: u32, core: u32, now: SimTime) -> Option<(u32, bool)> {
        let st = &mut self.ranks[rank as usize];
        let picked = st
            .queues
            .pop_with(Some(core as usize), st.probe.as_ref(), now.as_ns());
        if picked.is_some() {
            st.tracker.scheduled();
        }
        picked
    }

    // ---- execution --------------------------------------------------------

    fn core_free(&mut self, rank: u32, core: u32, now: SimTime) {
        self.note_rank_time(rank, now);
        if core == 0 && !self.ranks[rank as usize].producer_done {
            // Stale wakeup for the producer core while it is discovering.
            return;
        }
        if let Some((node, stolen)) = self.pick_task(rank, core, now) {
            self.start_exec(rank, core, node, stolen, now);
        } else {
            let st = &mut self.ranks[rank as usize];
            if st.idle_since[core as usize].is_none() {
                st.idle_since[core as usize] = Some(now);
            }
        }
    }

    fn start_exec(&mut self, rank: u32, core: u32, node: u32, stolen: bool, now: SimTime) {
        let sched = &self.machine.sched;
        let overhead = sched.per_schedule
            + if stolen {
                sched.steal_penalty
            } else {
                SimTime::ZERO
            };
        let t1 = now + overhead;
        {
            let st = &mut self.ranks[rank as usize];
            st.overhead_ns += overhead.as_ns();
            st.span(core, now, t1, SpanKind::Overhead, "", 0);
        }
        let comm = self.ranks[rank as usize].node(node).comm;
        match comm {
            Some(op) => self.post_comm(rank, core, node, op, t1),
            None => {
                let (dur, demand) = self.compute_duration(rank, core, node);
                let t_done = t1 + dur;
                let st = &mut self.ranks[rank as usize];
                st.acc_overlap(t1);
                st.running_work += 1;
                let (name, iter) = {
                    let n = st.node(node);
                    (n.name, n.iter.load(std::sync::atomic::Ordering::Relaxed))
                };
                st.span(core, t1, t_done, SpanKind::Work, name, iter);
                self.evq.push(
                    t_done,
                    Ev::TaskDone {
                        rank,
                        core,
                        node,
                        work_ns: dur.as_ns(),
                        demand,
                    },
                );
            }
        }
    }

    fn compute_duration(
        &mut self,
        rank: u32,
        core: u32,
        node: u32,
    ) -> (SimTime, Option<ptdg_memsim::DemandId>) {
        let mem = &self.machine.mem;
        let st = &mut self.ranks[rank as usize];
        let flops = st.node(node).work.as_ref().map_or(0.0, |w| w.flops);
        let blocks = std::mem::take(&mut st.blocks[node as usize]);
        let stats = st.hier.touch_footprint(core as usize, &blocks);
        st.blocks[node as usize] = blocks;
        let stall = stats.stall_cycles(mem);
        st.stalls.l1 += stall.l1;
        st.stalls.l2 += stall.l2;
        st.stalls.l3 += stall.l3;
        let compute_s = flops / mem.flops_per_s;
        let fast_stall_s = mem.cycles_to_secs(stall.l1 + stall.l2);
        let dram_s = mem.cycles_to_secs(stall.l3);
        let nominal_s = (compute_s + fast_stall_s + dram_s).max(1e-12);
        let demand = if dram_s > 0.0 {
            let id = st
                .contention
                .register(stats.dram_bytes(mem) as f64 / nominal_s);
            Some(id)
        } else {
            None
        };
        let factor = st.contention.factor();
        let mut dur_s = compute_s + fast_stall_s + dram_s * factor;
        if self.cfg.work_jitter > 0.0 {
            dur_s *= 1.0 + self.cfg.work_jitter * (2.0 * st.rng.next_f64() - 1.0);
        }
        (SimTime::from_secs_f64(dur_s), demand)
    }

    fn task_done(
        &mut self,
        rank: u32,
        core: u32,
        node: u32,
        work_ns: u64,
        demand: Option<ptdg_memsim::DemandId>,
        now: SimTime,
    ) {
        self.note_rank_time(rank, now);
        {
            let st = &mut self.ranks[rank as usize];
            if let Some(id) = demand {
                st.contention.unregister(id);
            }
            st.acc_overlap(now);
            st.running_work -= 1;
            st.work_ns += work_ns;
            st.tasks_executed += 1;
        }
        let released = self.complete_node(rank, node, Some(core), now);
        let release = self.machine.sched.per_release.scaled(released as u64);
        self.ranks[rank as usize].overhead_ns += release.as_ns();
        let t_next = now + release;
        let st = &mut self.ranks[rank as usize];
        if core == 0 && !st.producer_done {
            st.producer_helping = false;
            self.evq.push(t_next, Ev::Producer(rank));
        } else {
            self.evq.push(t_next, Ev::CoreFree { rank, core });
        }
    }

    /// Complete a node through the kernel, routing the successors it made
    /// ready. Returns the number of successor releases performed (the
    /// quantity `per_release` is charged on).
    fn complete_node(&mut self, rank: u32, node: u32, by_core: Option<u32>, now: SimTime) -> usize {
        let rt_node = self.ranks[rank as usize].node(node).clone();
        let probe = Arc::clone(&self.ranks[rank as usize].probe);
        let done =
            rt_node.complete_with(probe.as_ref(), by_core.unwrap_or(0) as usize, now.as_ns());
        for succ in &done.ready {
            self.activate(rank, succ.id.0, by_core, now);
        }
        let st = &mut self.ranks[rank as usize];
        st.tracker.completed();
        if st.tracker.quiescent() {
            if let Prod::Barrier { .. } = st.prod {
                self.evq.push(now, Ev::Producer(rank));
            }
        }
        done.released
    }

    // ---- communication ----------------------------------------------------

    fn post_comm(&mut self, rank: u32, core: u32, node: u32, op: CommOp, t1: SimTime) {
        let (req, comps) = match op {
            CommOp::Isend { peer, bytes, tag } => self.net.post_isend(t1, rank, peer, tag, bytes),
            CommOp::Irecv { peer, bytes, tag } => self.net.post_irecv(t1, peer, rank, tag, bytes),
            CommOp::Iallreduce { bytes } => self.net.post_iallreduce(t1, rank, bytes),
        };
        self.req_map.insert(req, (rank, node));
        let tracked = !matches!(op, CommOp::Irecv { .. });
        let st = &mut self.ranks[rank as usize];
        st.comms_posted += 1;
        let id = st.node(node).id;
        st.probe.comm_posted(id, req.0, core as usize, t1.as_ns());
        if tracked {
            st.acc_overlap(t1);
            st.open_tracked += 1;
        }
        let post_end = t1 + self.cfg.net.post_cost;
        let (name, iter) = {
            let n = st.node(node);
            (n.name, n.iter.load(std::sync::atomic::Ordering::Relaxed))
        };
        st.span(core, t1, post_end, SpanKind::Work, name, iter);
        for c in comps {
            self.evq.push(c.at, Ev::ReqDone(c.req));
        }
        // The core is free as soon as the request is posted (detach).
        let st = &mut self.ranks[rank as usize];
        if core == 0 && !st.producer_done {
            st.producer_helping = false;
            self.evq.push(post_end, Ev::Producer(rank));
        } else {
            self.evq.push(post_end, Ev::CoreFree { rank, core });
        }
    }

    fn req_done(&mut self, req: ReqId, now: SimTime) {
        let (rank, node) = *self
            .req_map
            .get(&req)
            .expect("completion for unknown request");
        self.note_rank_time(rank, now);
        let tracked = self.net.request(req).is_tracked();
        if tracked {
            let st = &mut self.ranks[rank as usize];
            st.acc_overlap(now);
            st.open_tracked -= 1;
        }
        let posted_at = self.net.request(req).posted_at;
        let st = &mut self.ranks[rank as usize];
        st.tasks_executed += 1;
        st.comms_completed += 1;
        st.comm_wait_ns += now.as_ns().saturating_sub(posted_at.as_ns());
        // Completion happens off-core (the DES analogue of the thread
        // engine's progress path): no core column in the event.
        let id = st.node(node).id;
        st.probe.comm_completed(id, req.0, usize::MAX, now.as_ns());
        self.complete_node(rank, node, None, now);
    }

    // ---- finalization -----------------------------------------------------

    fn finalize(&mut self) -> SimReport {
        let n_iters = self.program.n_iterations();
        let mut report = SimReport::default();
        // Anything still parked in the network explains non-quiescent
        // ranks; surface it as the same structured error the thread
        // engine reports instead of aborting the process.
        let unmatched = self.net.unmatched();
        for (r, st) in self.ranks.iter_mut().enumerate() {
            assert!(
                st.tracker.quiescent() || !unmatched.is_empty(),
                "rank {r}: deadlock — {} tasks never completed, yet no \
                 unmatched communication (kernel bug)",
                st.tracker.live()
            );
            let span_end = st.last_event;
            for c in 0..st.idle_since.len() {
                if let Some(since) = st.idle_since[c].take() {
                    st.idle_ns += span_end.as_ns().saturating_sub(since.as_ns());
                    if st.trace.is_some() {
                        st.span(c as u32, since, span_end, SpanKind::Idle, "", 0);
                    }
                }
            }
            let disc_ns = st.disc_busy_ns;
            let edges_existing = if self.cfg.persistent {
                st.pinst.as_ref().map_or(0, |p| p.template().n_edges()) * n_iters
            } else {
                st.engine.stats().edges_created
            };
            // Kernel counters: drain the lifecycle recorder (virtual time
            // is already zero-based — no rebase) and fold in the kernel's
            // tallies, mirroring the thread back-end's surface.
            let obs = st.probe.finish(false, self.machine.n_cores, disc_ns);
            let mut counters = obs.counters;
            counters.absorb_discovery(&st.engine.stats());
            counters.tasks_created = st.tracker.created_total() as u64;
            counters.tasks_completed = counters.tasks_created - st.tracker.live() as u64;
            counters.ready_hwm = st.tracker.ready_hwm() as u64;
            counters.live_hwm = st.tracker.live_hwm() as u64;
            counters.gate_held = st.gate.held_total();
            counters.throttle_stalls = st.throttle_stalls;
            counters.throttle_stall_ns = st.throttle_stall_ns;
            counters.persistent_reuses = st.pinst.as_ref().map_or(0, |p| p.reuses());
            counters.comms_posted = st.comms_posted;
            counters.comms_completed = st.comms_completed;
            counters.comm_wait_ns = st.comm_wait_ns;
            counters.unexpected_msgs = self.net.unexpected_count(r as u32);
            if !obs.events.is_empty() {
                report.events = obs.events;
            }
            report.ranks.push(RankReport {
                n_cores: self.machine.n_cores,
                work_ns: st.work_ns,
                overhead_ns: st.overhead_ns,
                idle_ns: st.idle_ns,
                span_ns: span_end.as_ns(),
                discovery_ns: disc_ns,
                discovery_first_iter_ns: if self.cfg.persistent {
                    st.disc_first_iter_ns
                } else {
                    disc_ns
                },
                disc: st.engine.stats(),
                cache: st.hier.totals(),
                stalls: st.stalls,
                tasks_executed: st.tasks_executed,
                edges_existing,
                comm_ns: self.net.tracked_comm_time(r as u32).as_ns(),
                comm_coll_ns: self.net.tracked_comm_split(r as u32).0.as_ns(),
                comm_p2p_ns: self.net.tracked_comm_split(r as u32).1.as_ns(),
                overlapped_ns: st.overlapped_ns,
                counters,
            });
            if self.cfg.persistent {
                if let Some(p) = &st.pinst {
                    if self.cfg.capture_graph {
                        report.graphs.push((**p.template()).clone());
                    }
                }
            } else if self.cfg.capture_graph {
                report.graphs.push(st.instance.finish_capture());
            }
            if let Some(spans) = st.trace.take() {
                let span_ns = span_end.as_ns();
                report.trace = Some(Trace {
                    spans,
                    n_workers: self.machine.n_cores,
                    discovery_ns: disc_ns,
                    span_ns,
                });
            }
        }
        report.comm_error = CommError::from_unmatched(unmatched);
        report
    }
}
