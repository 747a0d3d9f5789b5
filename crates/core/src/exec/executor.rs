//! Worker pool: the *thread-pool policy* over the runtime kernel.
//!
//! Everything semantic — readiness, queue placement/steal order, hold
//! gate, throttling, profiling — lives in [`crate::rt`]; this file only
//! decides *which OS thread* consumes the queues and when the producer
//! helps.

use super::persistent::PersistentRegion;
use super::session::Session;
use crate::comm::{CommConfig, CommError, CommWorld};
use crate::obs::{EventRecorder, ObsReport};
use crate::opts::OptConfig;
use crate::profile::{Span, SpanKind, Trace};
use crate::rt::{HoldGate, NodeRef, Parker, ReadyQueues, ReadyTracker, RtProbe};
use crate::rt::{ThrottleConfig, ThrottleGate};
use crate::task::TaskCtx;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub use crate::rt::SchedPolicy;

/// Polls an idle thread makes before it takes a park ticket (see
/// [`Pool::spin_for_work`]). On the fine-grain streaming LULESH a lone
/// worker runs out of work about every third task and the producer
/// pushes the next one within microseconds, so parking there costs a
/// futex wake per push (a VM exit under virtualisation). 2000 polls
/// (75–90 µs with the yields on a 2-vCPU Sapphire Rapids KVM guest)
/// cover those gaps: parks fell from ~240–315 to ~0.2 per 1000 tasks.
/// In a sweep, 1000–8000 polls gave the same makespan within noise and
/// 250 still left ~5 parks per 1000 tasks. A constant, not a setting:
/// the spin is advisory, so its size only trades CPU burn against wake
/// latency, never correctness, and one measured value serves every
/// caller.
const SPIN_POLLS: u32 = 2000;

/// Yield the CPU instead of pausing every this many spin polls. When
/// threads outnumber vCPUs (more workers than [`default_workers`]) a
/// pure spin holds the core the producer needs to push the very task
/// being waited for.
const SPIN_YIELD_EVERY: u32 = 64;

/// Worker threads that, with the producer thread beside them, fill the
/// machine exactly: `nproc − 1`, at least 1. The default of
/// [`ExecConfig::n_workers`] and of the app CLIs' worker counts.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .saturating_sub(1)
        .max(1)
}

/// Executor configuration.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    /// Worker threads. The producer thread is additional and busy:
    /// discovery runs on it concurrently with the workers, and it also
    /// executes tasks during throttling and `wait_all`.
    pub n_workers: usize,
    /// Scheduling policy.
    pub policy: SchedPolicy,
    /// Producer throttling thresholds.
    pub throttle: ThrottleConfig,
    /// Record per-task spans for post-mortem analysis.
    pub profile: bool,
    /// Record the lifecycle event stream even without span profiling
    /// (events are cheap; spans cost two clock reads per task).
    pub record_events: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            n_workers: default_workers(),
            policy: SchedPolicy::DepthFirst,
            throttle: ThrottleConfig::default(),
            profile: false,
            record_events: false,
        }
    }
}

/// The pool's slot in a [`CommWorld`]: which world, and as which rank.
pub(crate) struct CommCtx {
    pub world: Arc<CommWorld>,
    pub rank: u32,
}

pub(crate) struct Pool {
    pub queues: ReadyQueues<NodeRef>,
    pub tracker: Arc<ReadyTracker>,
    /// Non-overlapped mode: buffer ready tasks until released.
    pub gate: HoldGate<NodeRef>,
    pub throttle: ThrottleGate,
    pub shutdown: AtomicBool,
    /// Eventcount all idle threads (workers and the waiting producer)
    /// block on instead of sleep-polling. An idle thread first spins
    /// ([`Pool::spin_for_work`]), then takes a ticket, re-checks every
    /// wake condition and parks. The spin is outside the protocol (it
    /// only decides whether to enter it), yields the CPU now and then so
    /// an oversubscribed pool still lets the pusher run, and has a fixed
    /// budget because it trades only CPU burn for wake latency. Wake
    /// discipline: `notify_one` per task pushed, `notify_all` on
    /// one-to-many events — gate release, reaching quiescence, shutdown,
    /// and (via the registered waker) comm deliveries from peer ranks.
    /// `Arc` so the comm world can hold it past this pool's lifetime.
    pub parker: Arc<Parker>,
    /// Park/unpark telemetry (Relaxed: stats only).
    pub parks: AtomicU64,
    pub unparks: AtomicU64,
    pub profile: bool,
    /// Lifecycle events are being recorded (`profile || record_events`):
    /// the clock must be read even where spans are off.
    pub record: bool,
    /// Lock-free span/event sink; one lane per worker plus one for the
    /// producer (last). Implements [`RtProbe`], so it is also the probe
    /// the kernel emit sites narrate through.
    pub recorder: Arc<EventRecorder>,
    pub start: Instant,
    pub last_discovery_ns: AtomicU64,
    /// Producer throttle stalls (count and helping time, ns).
    pub throttle_stalls: AtomicU64,
    pub throttle_stall_ns: AtomicU64,
    /// Communication tasks whose side effect was posted.
    pub comms_posted: AtomicU64,
    /// Detached requests whose completion was drained by this pool.
    pub comms_completed: AtomicU64,
    /// Summed post-to-completion latency, nanoseconds.
    pub comm_wait_ns: AtomicU64,
    /// Tasks between queue pop and completion, plus progress sweeps
    /// holding popped comm completions. Incremented *before* the pop
    /// (SeqCst on both sides): the deadlock sweep reads queue emptiness
    /// first and this second, so a task in motion is never invisible to
    /// both.
    pub in_flight: AtomicU32,
    /// This pool's slot in the communication world (a private 1-rank
    /// world unless built via [`Executor::with_comm_world`]).
    pub comm: CommCtx,
    n_workers: usize,
}

impl Pool {
    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Clock read for lifecycle narration: free when nothing records.
    /// Gated on `record`, not `profile` — event-only tracing must still
    /// see real timestamps (the old `profile`-only gate stamped every
    /// event 0 when spans were off).
    fn probe_now(&self) -> u64 {
        if self.record {
            self.now_ns()
        } else {
            0
        }
    }

    /// Publish a task that just became ready; `local` is the core whose
    /// deque should receive it under depth-first (`None` = producer).
    ///
    /// Redirect nodes (optimization (c)) never queue: they carry no body,
    /// so they complete inline, immediately releasing their successors —
    /// the same shortcut the simulator takes, which keeps both back-ends'
    /// lifecycle streams identical (`Created → Ready → Completed`, no
    /// `Scheduled`, gate bypassed: a redirect "runs" the moment its
    /// predecessors are done even in non-overlapped mode, because its
    /// successors are still held by the gate).
    ///
    /// Iterative, not recursive: a chain of redirect nodes completing
    /// into one another is walked with an explicit worklist, so graphs
    /// with arbitrarily deep redirect chains cannot overflow the stack.
    /// The common case — one non-redirect node — allocates nothing.
    pub fn make_ready(&self, node: NodeRef, local: Option<usize>) {
        let mut next = Some(node);
        let mut worklist: Vec<NodeRef> = Vec::new();
        while let Some(node) = next.take().or_else(|| worklist.pop()) {
            if node.is_redirect {
                let core = local.unwrap_or(self.n_workers);
                let done = node.complete_with(&*self.recorder, core, self.probe_now());
                if self.tracker.completed() {
                    self.parker.notify_all();
                }
                worklist.extend(done.ready);
            } else if let Some(node) = self.gate.offer(node) {
                self.tracker.became_ready();
                self.queues.push(node, local);
                self.parker.notify_one();
            }
        }
    }

    /// Open the gate, flushing buffered ready tasks in discovery order.
    pub fn release_gate(&self) {
        let mut flushed = false;
        for node in self.gate.release() {
            self.tracker.became_ready();
            self.queues.push(node, None);
            flushed = true;
        }
        if flushed {
            self.parker.notify_all();
        }
    }

    /// Find a ready task from the perspective of worker `idx`
    /// (`None` = the producer). A successful find transfers an
    /// `in_flight` token to the caller; [`Pool::run_task`] releases it.
    pub fn find_task(&self, idx: Option<usize>) -> Option<NodeRef> {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        let found = self.queues.pop_with(idx, &*self.recorder, self.probe_now());
        if found.is_some() {
            self.tracker.scheduled();
        } else {
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
        found.map(|(node, _stolen)| node)
    }

    /// Execute one task on behalf of `worker_idx` (the producer uses index
    /// `n_workers`); `local` is the deque for newly-ready successors.
    ///
    /// A task carrying a [`crate::workdesc::CommOp`] detaches (paper
    /// Listing 1): its body runs, the request is posted to the comm
    /// world, and the core is released immediately — the node completes
    /// later, from [`Pool::progress_comm`], when the request matches.
    pub fn run_task(&self, node: NodeRef, local: Option<usize>, worker_idx: usize) {
        let ctx = TaskCtx {
            task: node.id,
            // Relaxed: `iter` is stamped before the node is published to a
            // queue; the queue transfer (Release push → Acquire pop/steal)
            // is the happens-before edge that makes it visible.
            iter: node.iter.load(Ordering::Relaxed),
            worker: worker_idx,
        };
        let t0 = self.probe_now();
        if let Some(body) = &node.body {
            body(&ctx);
        }
        let t1 = self.probe_now();
        if self.profile {
            self.recorder.span(Span {
                worker: worker_idx as u32,
                start_ns: t0,
                end_ns: t1,
                kind: SpanKind::Work,
                name: node.name,
                iter: ctx.iter,
            });
        }
        if let Some(op) = node.comm {
            // Relaxed: statistic, read after the run quiesces.
            self.comms_posted.fetch_add(1, Ordering::Relaxed);
            let req = self.comm.world.alloc_req();
            // Narrate the post before handing the node over: the request
            // can match the instant it is posted, and CommCompleted must
            // not beat CommPosted into the event stream.
            self.recorder.comm_posted(node.id, req, worker_idx, t1);
            self.comm
                .world
                .post(self.comm.rank, node, op, self.now_ns(), req);
            // Post happened-before this release: the posted envelope's
            // epoch bump is visible to any deadlock sweep that sees us
            // go idle.
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        for succ in node.complete_with(&*self.recorder, worker_idx, t1).ready {
            self.make_ready(succ, local);
        }
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        if self.tracker.completed() {
            // Last live task: wake everything blocked on quiescence (the
            // producer in `wait_all`/`taskwait`/persistent barriers, and
            // workers waiting out a shutdown drain).
            self.parker.notify_all();
        }
    }

    /// Drive the communication engine from an idle path: match arrived
    /// envelopes, then complete every detached node whose request is
    /// done. Returns whether anything moved. `local` is the deque for
    /// successors the completions release (`None` = producer).
    pub fn progress_comm(&self, local: Option<usize>) -> bool {
        // Nothing delivered: the sweep below would find nothing either,
        // and holds nothing the bracket would have to cover, so skip its
        // two SeqCst RMWs. A delivery racing past this check is no
        // different from one landing just after a full sweep — it wakes
        // the rank through the registered waker.
        if !self.comm.world.has_deliveries(self.comm.rank) {
            return false;
        }
        // The in-flight bracket spans pop-to-completion: a completion in
        // hand is invisible to the deadlock sweep's queue-emptiness
        // check, so the busy token has to cover it.
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        let mut any = self.comm.world.progress(self.comm.rank);
        while let Some(done) = self.comm.world.pop_completion(self.comm.rank) {
            any = true;
            self.comms_completed.fetch_add(1, Ordering::Relaxed);
            self.comm_wait_ns.fetch_add(
                self.now_ns().saturating_sub(done.posted_ns),
                Ordering::Relaxed,
            );
            // Off-core completion: no worker "ran" this transition, so
            // the event carries no core; the request id ties it back to
            // its CommPosted.
            self.recorder
                .comm_completed(done.node.id, done.req, usize::MAX, self.probe_now());
            let core = local.unwrap_or(self.n_workers);
            for succ in done
                .node
                .complete_with(&*self.recorder, core, self.probe_now())
                .ready
            {
                self.make_ready(succ, local);
            }
            if self.tracker.completed() {
                self.parker.notify_all();
            }
        }
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        any
    }

    /// Bounded busy-wait an idle thread runs before the park protocol:
    /// polls until a task is queued or a comm delivery waits (returns
    /// true), or until `exit` holds or [`SPIN_POLLS`] polls pass (returns
    /// false). Advisory only: a false return leads to the full
    /// `prepare` → re-check → `park` sequence, which alone carries the
    /// lost-wakeup argument, and a true return to a fresh pop attempt.
    /// Each poll is a few loads — the queues' cached count never
    /// under-reports a queued task, so a zero is safe to keep spinning
    /// on — and nothing is written, so a spinner does not bounce the
    /// cache lines the producer pushes through. Allocation-free.
    fn spin_for_work(&self, exit: impl Fn() -> bool) -> bool {
        for poll in 1..=SPIN_POLLS {
            if !self.queues.is_empty() || self.comm.world.has_deliveries(self.comm.rank) {
                return true;
            }
            if exit() {
                return false;
            }
            if poll % SPIN_YIELD_EVERY == 0 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        false
    }

    /// Report this rank fully idle to the deadlock detector. Only
    /// meaningful right after `find_task` and `progress_comm` both came
    /// up empty with no task in flight. Returns true if the report
    /// completed a deadlock declaration (forced completions are queued;
    /// the caller should drain instead of parking).
    pub fn comm_stall(&self) -> bool {
        self.in_flight.load(Ordering::SeqCst) == 0 && self.comm.world.note_stall(self.comm.rank)
    }

    /// Try to execute one task from outside the worker pool (producer
    /// helping). Returns whether a task was run.
    pub fn help_once(&self) -> bool {
        if let Some(node) = self.find_task(None) {
            self.run_task(node, None, self.n_workers);
            true
        } else {
            false
        }
    }

    /// Help execute until the tracker reports quiescence, parking — not
    /// sleep-polling — when no work is available. The producer-side
    /// implicit barrier behind `wait_all`, `taskwait`, and persistent
    /// iteration boundaries.
    ///
    /// This is also where the rank reports comm stalls: quiescence can be
    /// unreachable when detached requests wait on peers, so when the
    /// barrier is fully idle (no task found, no comm progress, nothing in
    /// flight) it tells the world — if every rank is in the same state,
    /// the detector fires and force-drains, letting the barrier exit with
    /// a [`CommError`] instead of hanging.
    pub fn barrier(&self) {
        let mut reported = false;
        loop {
            if self.help_once() || self.progress_comm(None) {
                continue;
            }
            if self.tracker.quiescent() {
                break;
            }
            if self.spin_for_work(|| self.tracker.quiescent()) {
                continue;
            }
            // Two-phase park (see `worker_loop`): re-check quiescence
            // and the queues after taking the ticket, so neither the
            // completion nor a push racing with us can be missed — the
            // notify it performs invalidates our ticket.
            let ticket = self.parker.prepare();
            if self.tracker.quiescent() {
                break;
            }
            if self.help_once() || self.progress_comm(None) {
                continue;
            }
            reported = true;
            if self.comm_stall() {
                continue; // detector fired: drain the forced completions
            }
            self.parks.fetch_add(1, Ordering::Relaxed);
            self.parker.park(ticket);
            self.unparks.fetch_add(1, Ordering::Relaxed);
        }
        if reported {
            // Leaving the barrier for more discovery: clear the stall
            // flag eagerly (stale reports are also invalidated by the
            // epoch, this just keeps the detector's view tidy).
            self.comm.world.note_active(self.comm.rank);
        }
    }
}

fn worker_loop(pool: Arc<Pool>, idx: usize) {
    loop {
        if let Some(node) = pool.find_task(Some(idx)) {
            pool.run_task(node, Some(idx), idx);
            continue;
        }
        if pool.progress_comm(Some(idx)) {
            continue;
        }
        // Spin first. Seeing `shutdown` ends the spin but is not work:
        // fall through to the exit check below rather than `continue`,
        // or a drained pool would spin on shutdown forever.
        if pool.spin_for_work(|| pool.shutdown.load(Ordering::Relaxed)) {
            continue;
        }
        // Two-phase park: take a ticket, re-check every wake condition,
        // then sleep. Any notify between `prepare` and `park` makes
        // `park` return immediately, so a task pushed (or shutdown
        // raised) in that window cannot be missed. Comm deliveries
        // notify through the waker the pool registered with the world.
        let ticket = pool.parker.prepare();
        if let Some(node) = pool.find_task(Some(idx)) {
            pool.run_task(node, Some(idx), idx);
            continue;
        }
        if pool.progress_comm(Some(idx)) {
            continue;
        }
        // Exit only once the pool is both shutting down *and* drained:
        // `quiescent` (not just an empty queue) means no in-flight task
        // can spawn more work, so nothing is abandoned by leaving.
        // Acquire pairs with the Release store in `Executor::drop`.
        if pool.shutdown.load(Ordering::Acquire) {
            if pool.tracker.quiescent() {
                return;
            }
            // Shutting down but not quiescent: only detached requests
            // can be outstanding (the producer is gone). Report the
            // stall so an unmatched request becomes a CommError drain
            // instead of a hung join.
            if pool.comm_stall() {
                continue;
            }
        }
        pool.parks.fetch_add(1, Ordering::Relaxed);
        pool.parker.park(ticket);
        pool.unparks.fetch_add(1, Ordering::Relaxed);
    }
}

/// The work-stealing executor: a pool of worker threads plus entry points
/// for sessions and persistent regions.
pub struct Executor {
    pool: Arc<Pool>,
    cfg: ExecConfig,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Executor {
    /// Spawn an executor with `cfg.n_workers` worker threads over the
    /// kernel's ready queues (Chase–Lev deques + injector).
    ///
    /// The executor is rank 0 of its own private 1-rank [`CommWorld`], so
    /// detach semantics hold unconditionally: a comm task always releases
    /// its core at post time, even on a lone executor.
    pub fn new(cfg: ExecConfig) -> Executor {
        let world = Arc::new(CommWorld::new(1, CommConfig::default()));
        Self::with_comm_world(cfg, world, 0)
    }

    /// Spawn an executor as rank `rank` of a shared [`CommWorld`] — one
    /// pool per rank, all inside this process, exchanging messages
    /// through the world's mailboxes (the thread back-end's multi-rank
    /// mode).
    pub fn with_comm_world(cfg: ExecConfig, world: Arc<CommWorld>, rank: u32) -> Executor {
        assert!(cfg.n_workers >= 1, "need at least one worker");
        assert!(rank < world.n_ranks(), "rank out of range for comm world");
        let record = cfg.profile || cfg.record_events;
        let pool = Arc::new(Pool {
            queues: ReadyQueues::new_lock_free(cfg.policy, cfg.n_workers),
            tracker: Arc::new(ReadyTracker::new()),
            gate: HoldGate::new(false),
            throttle: ThrottleGate::new(cfg.throttle),
            shutdown: AtomicBool::new(false),
            parker: Arc::new(Parker::new()),
            parks: AtomicU64::new(0),
            unparks: AtomicU64::new(0),
            profile: cfg.profile,
            record,
            recorder: Arc::new(EventRecorder::new(cfg.n_workers + 1, record)),
            start: Instant::now(),
            last_discovery_ns: AtomicU64::new(0),
            throttle_stalls: AtomicU64::new(0),
            throttle_stall_ns: AtomicU64::new(0),
            comms_posted: AtomicU64::new(0),
            comms_completed: AtomicU64::new(0),
            comm_wait_ns: AtomicU64::new(0),
            in_flight: AtomicU32::new(0),
            comm: CommCtx {
                world: Arc::clone(&world),
                rank,
            },
            n_workers: cfg.n_workers,
        });
        // Busy probe via Weak: the pool owns an Arc to the world, so the
        // world must not own one back (the closure outlives the pool on
        // shared worlds; an upgrade failure just means "not busy").
        let weak = Arc::downgrade(&pool);
        world.register_rank(rank, Arc::clone(&pool.parker), move || {
            weak.upgrade()
                .is_some_and(|p| p.in_flight.load(Ordering::SeqCst) != 0 || p.tracker.ready() != 0)
        });
        let workers = (0..cfg.n_workers)
            .map(|idx| {
                let pool = Arc::clone(&pool);
                std::thread::Builder::new()
                    .name(format!("ptdg-worker-{idx}"))
                    .spawn(move || worker_loop(pool, idx))
                    .expect("spawn worker")
            })
            .collect();
        Executor { pool, cfg, workers }
    }

    /// Number of worker threads.
    pub fn n_workers(&self) -> usize {
        self.cfg.n_workers
    }

    /// The configuration this executor was built with.
    pub fn config(&self) -> &ExecConfig {
        &self.cfg
    }

    pub(crate) fn pool(&self) -> &Arc<Pool> {
        &self.pool
    }

    /// The communication world this executor posts into.
    pub fn comm_world(&self) -> &Arc<CommWorld> {
        &self.pool.comm.world
    }

    /// This executor's rank within its communication world.
    pub fn comm_rank(&self) -> u32 {
        self.pool.comm.rank
    }

    /// The error recorded by the world's deadlock detector, if it fired
    /// (unmatched requests were force-completed to let the run drain).
    pub fn comm_error(&self) -> Option<CommError> {
        self.pool.comm.world.take_error()
    }

    /// Start a discovery/execution session (overlapped: tasks run while
    /// later tasks are still being discovered).
    pub fn session(&self, opts: OptConfig) -> Session<'_> {
        Session::new(self, opts, false, false)
    }

    /// Start a *non-overlapped* session (paper Table 1): all ready tasks
    /// are held until `wait_all`, so the graph is fully discovered before
    /// execution starts.
    pub fn session_non_overlapped(&self, opts: OptConfig) -> Session<'_> {
        Session::new(self, opts, true, false)
    }

    /// Start a capturing session: streams and executes normally while a
    /// [`crate::graph::TemplateRecorder`] mirrors every node and edge.
    /// Used by persistent regions, graph equivalence checks, and
    /// post-mortem critical-path analysis (which needs the executed DAG).
    pub fn session_capturing(&self, opts: OptConfig) -> Session<'_> {
        Session::new(self, opts, false, true)
    }

    /// Start a persistent region (optimization (p)).
    pub fn persistent_region(&self, opts: OptConfig) -> PersistentRegion<'_> {
        PersistentRegion::new(self, opts)
    }

    /// Collect and clear the recorded trace (requires `cfg.profile`).
    pub fn take_trace(&self) -> Trace {
        self.take_obs().trace
    }

    /// Collect and clear everything observability recorded — spans,
    /// lifecycle events, and the kernel counters this executor can fill
    /// on its own (discovery statistics are the session's to add via
    /// [`crate::obs::RtCounters::absorb_discovery`]). Wall-clock
    /// timestamps are rebased to the earliest record.
    pub fn take_obs(&self) -> ObsReport {
        // Relaxed loads throughout: these are post-quiescence statistics;
        // the `wait_all` barrier that preceded this call is the
        // synchronization point.
        let mut obs = self.pool.recorder.finish(
            true,
            self.cfg.n_workers + 1,
            self.pool.last_discovery_ns.load(Ordering::Relaxed),
        );
        let c = &mut obs.counters;
        let created = self.pool.tracker.created_total() as u64;
        c.tasks_created = created;
        c.tasks_completed = created - self.pool.tracker.live() as u64;
        c.ready_hwm = self.pool.tracker.ready_hwm() as u64;
        c.live_hwm = self.pool.tracker.live_hwm() as u64;
        c.gate_held = self.pool.gate.held_total();
        c.throttle_stalls = self.pool.throttle_stalls.load(Ordering::Relaxed);
        c.throttle_stall_ns = self.pool.throttle_stall_ns.load(Ordering::Relaxed);
        c.comms_posted = self.pool.comms_posted.load(Ordering::Relaxed);
        c.comms_completed = self.pool.comms_completed.load(Ordering::Relaxed);
        c.comm_wait_ns = self.pool.comm_wait_ns.load(Ordering::Relaxed);
        c.unexpected_msgs = self.pool.comm.world.unexpected_count(self.pool.comm.rank);
        let (attempts, successes) = self.pool.queues.steal_stats();
        c.steal_attempts = attempts;
        c.steal_successes = successes;
        c.parks = self.pool.parks.load(Ordering::Relaxed);
        c.unparks = self.pool.unparks.load(Ordering::Relaxed);
        obs
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.pool.release_gate();
        // Release pairs with the Acquire load in `worker_loop`; the
        // `notify_all` epoch bump (SeqCst) makes the store visible to
        // already-parked workers when they wake.
        self.pool.shutdown.store(true, Ordering::Release);
        self.pool.parker.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}
