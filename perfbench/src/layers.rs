//! Per-layer probes: each times calls into one layer's public functions
//! on the workload's own task stream, from outside the layer.

use crate::jobs::executor;
use crate::stats::median;
use ptdg_core::builder::RecordingSubmitter;
use ptdg_core::comm::{CommConfig, CommWorld};
use ptdg_core::graph::{DiscoveryEngine, TemplateRecorder};
use ptdg_core::handle::HandleSpace;
use ptdg_core::program::RankProgram;
use ptdg_core::rt::{ReadyQueues, SchedPolicy};
use ptdg_core::task::TaskSpec;
use ptdg_core::OptConfig;
use ptdg_lulesh::LuleshTask;
use ptdg_memsim::{BlockRange, MemConfig, MemoryHierarchy};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of every probe; each probe reports the median.
const PROBE_REPS: usize = 5;

fn median_of(mut sample: impl FnMut() -> f64) -> f64 {
    let xs: Vec<f64> = (0..PROBE_REPS).map(|_| sample()).collect();
    median(&xs).unwrap_or(0.0)
}

/// Rank `rank`'s task stream of iteration `iter`, recorded once so every
/// probe replays exactly the same tasks.
pub fn record_stream(prog: &LuleshTask, rank: u32, iter: u64) -> Vec<TaskSpec> {
    let mut rec = RecordingSubmitter::default();
    prog.build_iteration(rank, iter, &mut rec);
    rec.specs
}

/// `graph.discover_ns_per_task`: `DiscoveryEngine::submit_view` into a
/// `TemplateRecorder`, no executor.
pub fn discover_ns_per_task(specs: &[TaskSpec]) -> f64 {
    median_of(|| {
        let mut engine = DiscoveryEngine::new(OptConfig::all());
        let mut rec = TemplateRecorder::new(false);
        let t0 = Instant::now();
        for s in specs {
            engine.submit_view(&mut rec, &s.view());
        }
        let dt = t0.elapsed().as_nanos() as f64;
        black_box(rec.finish());
        dt / specs.len() as f64
    })
}

/// `exec.empty_ns_per_task`: the stream's tasks without bodies through a
/// streaming session on the workloads' executor configuration, until
/// quiescence.
pub fn empty_ns_per_task(specs: &[TaskSpec], n_workers: usize, iters: usize) -> f64 {
    let exec = executor(n_workers, false);
    median_of(|| {
        let mut session = exec.session(OptConfig::all());
        let t0 = Instant::now();
        for it in 0..iters {
            session.set_iter(it as u64);
            for s in specs {
                session.submit_view(&s.view());
            }
        }
        session.wait_all();
        t0.elapsed().as_nanos() as f64 / (iters * specs.len()) as f64
    })
}

/// `rt.rearm_ns_per_task`: re-instanced `PersistentRegion::run` of the
/// stream's tasks without bodies, per task.
pub fn rearm_ns_per_task(specs: &[TaskSpec], n_workers: usize, iters: usize) -> f64 {
    let exec = executor(n_workers, false);
    let mut region = exec.persistent_region(OptConfig::all());
    region.run(0, |sub| {
        for s in specs {
            sub.submit_view(&s.view());
        }
    });
    let mut iter = 1;
    median_of(|| {
        let t0 = Instant::now();
        for _ in 0..iters {
            region.run(iter, |_| unreachable!("re-instanced runs do not build"));
            iter += 1;
        }
        t0.elapsed().as_nanos() as f64 / (iters * specs.len()) as f64
    })
}

/// `rt.queue_push_pop_ns`: one `ReadyQueues::push` to the owner's
/// deque plus one `pop` by the owner, single-threaded, lock-free backend.
pub fn queue_push_pop_ns(n_workers: usize, ops: u32) -> f64 {
    let q: ReadyQueues<u32> = ReadyQueues::new_lock_free(SchedPolicy::DepthFirst, n_workers);
    median_of(|| {
        let t0 = Instant::now();
        for i in 0..ops {
            q.push(black_box(i), Some(0));
            black_box(q.pop(Some(0)));
        }
        t0.elapsed().as_nanos() as f64 / ops as f64
    })
}

/// `comm.progress_ns`: `CommWorld::progress` plus `pop_completion` on an
/// idle 1-rank world — what every worker idle loop pays.
pub fn comm_progress_ns(ops: u32) -> f64 {
    let world = CommWorld::new(1, CommConfig::default());
    median_of(|| {
        let t0 = Instant::now();
        for _ in 0..ops {
            black_box(world.progress(black_box(0)));
            black_box(world.pop_completion(black_box(0)));
        }
        t0.elapsed().as_nanos() as f64 / ops as f64
    })
}

/// Memory-model blocks a task's footprint covers, resolved through each
/// region's `RegionInfo::base_block`.
fn footprint_blocks(space: &HandleSpace, spec: &TaskSpec) -> Vec<BlockRange> {
    let bb = space.block_bytes();
    spec.work
        .footprint
        .iter()
        .filter(|s| s.len > 0)
        .map(|s| {
            let base = space.info(s.handle).base_block;
            let first = base + s.offset / bb;
            let last = base + (s.offset + s.len - 1) / bb;
            BlockRange::new(first, (last - first + 1) as u32)
        })
        .collect()
}

/// `memsim.touch_ns_per_block`: one iteration's footprints replayed
/// through `MemoryHierarchy::touch_footprint`, tasks dealt round-robin
/// over the modelled cores.
pub fn touch_ns_per_block(
    space: &HandleSpace,
    specs: &[TaskSpec],
    mem: &MemConfig,
    cores: usize,
) -> f64 {
    let fps: Vec<Vec<BlockRange>> = specs.iter().map(|s| footprint_blocks(space, s)).collect();
    let mut hier = MemoryHierarchy::new(mem.clone(), cores);
    median_of(|| {
        let t0 = Instant::now();
        let mut blocks = 0u64;
        for (i, fp) in fps.iter().enumerate() {
            blocks += hier.touch_footprint(i % cores, fp).accesses;
        }
        t0.elapsed().as_nanos() as f64 / blocks.max(1) as f64
    })
}
