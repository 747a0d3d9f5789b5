//! A discovery/execution session on the thread executor.

use super::executor::Executor;
use crate::builder::TaskSubmitter;
use crate::graph::{DiscoveryEngine, DiscoveryStats, GraphTemplate};
use crate::opts::OptConfig;
use crate::profile::{Span, SpanKind};
use crate::rt::{GraphInstance, InstanceOptions, RtProbe};
use crate::task::{SpecView, TaskId, TaskSpec};
use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// One sequential discovery stream plus the right to wait for its tasks.
///
/// Obtained from [`Executor::session`] (overlapped),
/// [`Executor::session_non_overlapped`] (paper Table 1 configuration), or
/// internally by a persistent region's capturing iterations. Discovery writes
/// into a kernel [`GraphInstance`]; this type only routes the tasks the
/// instance reports ready and decides when the producer helps execute.
///
/// Ready tasks are staged in the pool and published in batches (see
/// `Pool::stage`): when the batch fills, when it holds a comm task, at
/// every wait point ([`Session::taskwait`], [`Session::wait_all`],
/// [`Session::finish_capture`], throttled help, drop), and whenever an
/// idle worker has spun out its budget and claims them.
///
/// [`Session::submit_view`] is the native, allocation-free submission
/// path; [`Session::submit`] wraps an owned [`TaskSpec`] around it. After
/// [`Session::reserve`], a steady-state submission performs zero heap
/// allocations end to end (DESIGN.md §4.4). When the executor records
/// nothing, a submission reads no clock either: the discovery window
/// opens at the first submission and closes when the stream is next
/// queried or waited on (see [`Session::discovery_ns`]).
pub struct Session<'e> {
    exec: &'e Executor,
    engine: DiscoveryEngine,
    instance: GraphInstance,
    /// Staged counts `(tasks, uncounted creations)` as of this session's
    /// last staging. An idle worker may have claimed them since, so they
    /// can only over-report, which costs at most a needless flush before
    /// the throttle re-checks.
    staged: (usize, usize),
    discovery_t0_ns: Option<u64>,
    /// End of the discovery window. Stamped after every submission when
    /// the executor records; otherwise read lazily by
    /// [`Session::close_window`], hence the `Cell`s.
    discovery_t1_ns: Cell<u64>,
    /// A non-recording submission ran since the window was last closed.
    window_open: Cell<bool>,
    iter: u64,
}

impl<'e> Session<'e> {
    pub(crate) fn new(
        exec: &'e Executor,
        opts: OptConfig,
        non_overlapped: bool,
        capture: bool,
    ) -> Session<'e> {
        if non_overlapped {
            exec.pool().gate.close();
        }
        let mut instance = GraphInstance::new(
            Arc::clone(&exec.pool().tracker),
            InstanceOptions {
                want_bodies: true,
                keep_work: false,
                capture,
            },
        );
        // Discovery narrates creation/readiness through the pool's
        // recorder (a no-op unless the executor profiles).
        instance.set_probe(Arc::clone(&exec.pool().recorder) as Arc<dyn RtProbe>);
        // Ready-at-seal tasks are counted when their batch publishes.
        instance.defer_ready_counts();
        Session {
            exec,
            engine: DiscoveryEngine::new(opts),
            instance,
            staged: (0, 0),
            discovery_t0_ns: None,
            discovery_t1_ns: Cell::new(0),
            window_open: Cell::new(false),
            iter: 0,
        }
    }

    /// Pre-size every producer-side buffer for a stream of about `tasks`
    /// tasks over `handles` distinct data handles, so steady-state
    /// submissions allocate nothing: arena chunks, node table, engine
    /// per-handle state, staging buffer, and — for non-overlapped
    /// sessions — the hold gate.
    pub fn reserve(&mut self, tasks: usize, handles: usize) {
        self.instance.reserve(tasks);
        self.engine.reserve(tasks, handles);
        self.exec.pool().reserve_staging(tasks.min(64));
        self.exec.pool().gate.reserve(tasks);
    }

    /// Submit one task from a borrowed view — the allocation-free hot
    /// path; may execute tasks inline if throttling thresholds are
    /// exceeded.
    pub fn submit_view(&mut self, view: &SpecView<'_>) -> TaskId {
        // A borrow through `&'e Executor`, not an `Arc` clone: it lives
        // for `'e` beside the `&mut self` field borrows below and costs
        // no atomic RMW per task.
        let pool = self.exec.pool();
        let id = if pool.record {
            // Lifecycle events and the Discovery span need this task's
            // own timestamps.
            let now = pool.now_ns();
            self.discovery_t0_ns.get_or_insert(now);
            self.instance.set_now_ns(now);
            let id = self.engine.submit_view(&mut self.instance, view);
            let end = pool.now_ns();
            self.discovery_t1_ns.set(end);
            if pool.profile {
                pool.recorder.span(Span {
                    worker: self.exec.n_workers() as u32,
                    start_ns: now,
                    end_ns: end,
                    kind: SpanKind::Discovery,
                    name: "<discovery>",
                    iter: self.iter,
                });
            }
            id
        } else {
            // Nothing records: one clock read opens the window, and
            // `close_window` reads its end once, when it is asked for.
            if self.discovery_t0_ns.is_none() {
                self.discovery_t0_ns = Some(pool.now_ns());
            }
            self.window_open.set(true);
            self.engine.submit_view(&mut self.instance, view)
        };
        if self.instance.has_ready() {
            self.staged = pool.stage(&mut self.instance);
        }
        let (staged, uncounted) = self.staged;
        if pool
            .throttle
            .should_help_staged(&pool.tracker, staged, uncounted)
        {
            // Throttled help is a wait point: publish first, so the
            // bounds read the tracker alone.
            self.flush();
            if pool.throttle.should_help(&pool.tracker) {
                // Relaxed: producer-written statistics, read
                // post-quiescence.
                pool.throttle_stalls.fetch_add(1, Ordering::Relaxed);
                let h0 = Instant::now();
                while pool.throttle.should_help(&pool.tracker) {
                    if !pool.help_once() {
                        break;
                    }
                }
                pool.throttle_stall_ns
                    .fetch_add(h0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        }
        id
    }

    /// Publish every staged task now.
    fn flush(&mut self) {
        self.exec.pool().flush_staged(self.exec.n_workers());
        self.staged = (0, 0);
    }

    /// Submit one owned task spec (convenience wrapper over
    /// [`Session::submit_view`]).
    pub fn submit(&mut self, spec: TaskSpec) -> TaskId {
        self.submit_view(&spec.view())
    }

    /// Set the iteration number stamped on subsequently created tasks
    /// (what their bodies observe as [`crate::task::TaskCtx::iter`]).
    pub fn set_iter(&mut self, iter: u64) {
        self.iter = iter;
        self.instance.set_iter(iter);
    }

    /// Block until every task submitted *so far* has completed, without
    /// ending the session — the analogue of `#pragma omp taskwait` at the
    /// submission point (used by codes that fence their communication
    /// sequences, §4.1 of the paper).
    pub fn taskwait(&mut self) {
        self.close_window();
        self.flush();
        let pool = self.exec.pool();
        pool.release_gate();
        pool.barrier();
    }

    /// Discovery statistics so far.
    pub fn stats(&self) -> DiscoveryStats {
        self.engine.stats()
    }

    /// Producer-side discovery window, ns: from the first submission to
    /// the end of the last one when the executor records, else to the
    /// first query or wait (this call, [`Session::taskwait`],
    /// [`Session::wait_all`] or [`Session::finish_capture`]) after the
    /// last one.
    pub fn discovery_ns(&self) -> u64 {
        self.close_window();
        match self.discovery_t0_ns {
            Some(t0) => self.discovery_t1_ns.get().saturating_sub(t0),
            None => 0,
        }
    }

    /// End a non-recording stream's discovery window now, if submissions
    /// ran since it was last ended.
    fn close_window(&self) {
        if self.window_open.replace(false) {
            self.discovery_t1_ns.set(self.exec.pool().now_ns());
        }
    }

    /// Release any held tasks and run until every submitted task has
    /// completed (the producer helps execute).
    pub fn wait_all(&mut self) {
        self.flush();
        let pool = self.exec.pool();
        pool.release_gate();
        // Relaxed: producer-written, read by `take_obs` after this call.
        pool.last_discovery_ns
            .store(self.discovery_ns(), Ordering::Relaxed);
        pool.barrier();
    }

    /// Wait for completion, then return the captured template and the
    /// discovery statistics (capturing sessions only).
    pub fn finish_capture(mut self) -> (GraphTemplate, DiscoveryStats) {
        self.wait_all();
        let stats = self.engine.stats();
        (self.instance.finish_capture(), stats)
    }
}

impl TaskSubmitter for Session<'_> {
    fn submit_view(&mut self, view: &SpecView<'_>) -> TaskId {
        Session::submit_view(self, view)
    }

    fn submit(&mut self, spec: TaskSpec) -> TaskId {
        Session::submit(self, spec)
    }

    /// Wall-clock execution reads no cost model.
    fn wants_work(&self) -> bool {
        false
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        // Never strand staged tasks or leave the gate closed: a dropped
        // session must not wedge the executor.
        self.flush();
        self.exec.pool().release_gate();
    }
}
