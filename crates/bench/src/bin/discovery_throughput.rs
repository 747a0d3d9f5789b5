//! Discovery throughput of the zero-allocation hot path (node arena +
//! inline successor/depend buffers + recycled `SpecBuf`) over a fig. 1/2
//! style workload: a multi-phase 1-D stencil whose phase width is the
//! tasks-per-loop (TPL) knob. As TPL refines, tasks shrink and the
//! producer's discovery rate (tasks/s materialized into the graph) becomes
//! the bound.
//!
//! A second section measures the persistent-graph replay path: whole
//! re-instanced iterations (bulk re-arm + root publication) against full
//! rediscovery of the same graph every iteration.
//!
//! ```sh
//! cargo run --release -p ptdg-bench --bin discovery_throughput [--json out.json]
//! ```

use ptdg_bench::{arr, emit_json, obj, quick, rule, Json};
use ptdg_core::builder::SpecBuf;
use ptdg_core::graph::{DiscoveryEngine, TemplateRecorder};
use ptdg_core::handle::{DataHandle, HandleSpace};
use ptdg_core::opts::OptConfig;
use ptdg_core::rt::{
    GraphInstance, InstanceOptions, NodeRef, NullProbe, PersistentInstance, ReadyTracker,
};
use ptdg_core::workdesc::HandleSlice;
use ptdg_core::AccessMode;
use std::sync::Arc;
use std::time::Instant;

const REPS: usize = 3;

// ---- workload ------------------------------------------------------------

/// Ping-pong slice arrays for a 1-D three-point stencil: phase `p` writes
/// one array from the other, task `t` reading slices `t-1..=t+1`.
struct Stencil {
    a: Vec<DataHandle>,
    b: Vec<DataHandle>,
}

fn stencil(tpl: usize) -> Stencil {
    let mut space = HandleSpace::new();
    Stencil {
        a: (0..tpl).map(|_| space.region("a", 4096)).collect(),
        b: (0..tpl).map(|_| space.region("b", 4096)).collect(),
    }
}

/// Describe task `t` of phase `p` into `buf` — dep order and a cost-model
/// footprint over the same slices, as the apps declare them.
#[allow(clippy::needless_range_loop)] // j is the stencil slice index
fn describe(buf: &mut SpecBuf, st: &Stencil, p: usize, t: usize, tpl: usize) {
    let (src, dst) = if p.is_multiple_of(2) {
        (&st.a, &st.b)
    } else {
        (&st.b, &st.a)
    };
    buf.begin("stencil");
    for j in t.saturating_sub(1)..=(t + 1).min(tpl - 1) {
        buf.dep(src[j], AccessMode::In)
            .touch(HandleSlice::whole(src[j], 4096));
    }
    buf.dep(dst[t], AccessMode::Out)
        .touch(HandleSlice::whole(dst[t], 4096))
        .flops(4096.0);
}

// ---- streaming discovery -----------------------------------------------

/// Arena path: recycled `SpecBuf` into the kernel's `GraphInstance`.
fn arena_tasks_per_s(tpl: usize, phases: usize) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..REPS {
        let st = stencil(tpl);
        let mut engine = DiscoveryEngine::new(OptConfig::all());
        engine.reserve(2 * tpl * phases, 2 * tpl);
        let tracker = Arc::new(ReadyTracker::new());
        let mut inst = GraphInstance::new(
            Arc::clone(&tracker),
            InstanceOptions {
                want_bodies: false,
                keep_work: false,
                capture: false,
            },
        );
        inst.reserve(2 * tpl * phases);
        let mut buf = SpecBuf::new();
        let mut ready: Vec<NodeRef> = Vec::new();
        let t0 = Instant::now();
        for p in 0..phases {
            for t in 0..tpl {
                describe(&mut buf, &st, p, t, tpl);
                engine.submit_view(&mut inst, &buf.view());
                inst.drain_ready_into(&mut ready);
                ready.clear();
            }
        }
        best = best.max((tpl * phases) as f64 / t0.elapsed().as_secs_f64());
    }
    best
}

// ---- persistent replay ---------------------------------------------------

/// (rediscover_tasks_per_s, replay_tasks_per_s) for `iters` iterations of
/// the same `tpl × phases` stencil graph.
fn replay_tasks_per_s(tpl: usize, phases: usize, iters: u64) -> (f64, f64) {
    let st = stencil(tpl);
    let total = tpl * phases;

    // Rediscovery: pay full streaming discovery (engine + instance +
    // nodes + edges) every iteration, as a non-persistent runtime does.
    let mut redisc = 0.0f64;
    for _ in 0..REPS {
        let mut buf = SpecBuf::new();
        let mut ready: Vec<NodeRef> = Vec::new();
        let t0 = Instant::now();
        for _ in 0..iters {
            let mut engine = DiscoveryEngine::new(OptConfig::all());
            let mut inst = GraphInstance::new(
                Arc::new(ReadyTracker::new()),
                InstanceOptions {
                    want_bodies: false,
                    keep_work: false,
                    capture: false,
                },
            );
            for p in 0..phases {
                for t in 0..tpl {
                    describe(&mut buf, &st, p, t, tpl);
                    engine.submit_view(&mut inst, &buf.view());
                    inst.drain_ready_into(&mut ready);
                    ready.clear();
                }
            }
        }
        redisc = redisc.max((total as u64 * iters) as f64 / t0.elapsed().as_secs_f64());
    }

    // Replay: capture once, then per iteration only the bulk re-arm and
    // the root publication sweep.
    let template = {
        let mut engine = DiscoveryEngine::new(OptConfig::all());
        let mut rec = TemplateRecorder::new(false);
        let mut buf = SpecBuf::new();
        for p in 0..phases {
            for t in 0..tpl {
                describe(&mut buf, &st, p, t, tpl);
                engine.submit_view(&mut rec, &buf.view());
            }
        }
        Arc::new(rec.finish())
    };
    let mut replay = 0.0f64;
    for _ in 0..REPS {
        let pinst = PersistentInstance::new(Arc::clone(&template), false);
        let tracker = ReadyTracker::new();
        let mut ready: Vec<NodeRef> = Vec::new();
        let t0 = Instant::now();
        for iter in 0..iters {
            pinst.begin_iteration_with(iter, &tracker, &NullProbe, 0);
            pinst.publish_into(0..pinst.len(), &NullProbe, 0, &mut ready);
            ready.clear();
        }
        replay = replay.max((total as u64 * iters) as f64 / t0.elapsed().as_secs_f64());
    }
    (redisc, replay)
}

fn main() {
    let quick = quick();
    let total_tasks: usize = if quick { 16_384 } else { 98_304 };
    let replay_iters: u64 = if quick { 24 } else { 128 };
    let tpl_sweep: &[usize] = &[64, 128, 256, 512, 1024];

    println!("discovery throughput — arena/SpecBuf hot path");
    println!("three-point stencil, {total_tasks} tasks per measurement, best of {REPS}\n");
    println!("{:>8} {:>8} {:>15}", "TPL", "phases", "arena(t/s)");
    rule(34);

    let mut rows: Vec<Json> = Vec::new();
    let mut fine_rate = 0.0f64;
    for &tpl in tpl_sweep {
        let phases = (total_tasks / tpl).max(2);
        let arena = arena_tasks_per_s(tpl, phases);
        fine_rate = arena;
        println!("{tpl:>8} {phases:>8} {arena:>15.0}");
        rows.push(obj([
            ("tpl", (tpl as u64).into()),
            ("phases", (phases as u64).into()),
            ("arena_tasks_per_s", arena.into()),
        ]));
    }
    rule(34);
    println!(
        "arena tasks/s at finest TPL ({}): {fine_rate:.0}",
        tpl_sweep.last().unwrap()
    );

    // Persistent replay at a representative fine-TPL point.
    let (tpl, phases) = (512usize, (total_tasks / 512).max(2));
    let (redisc, replay) = replay_tasks_per_s(tpl, phases, replay_iters);
    let replay_speedup = replay / redisc;
    println!("\npersistent replay, TPL {tpl} x {phases} phases x {replay_iters} iterations:");
    println!("  rediscover every iteration: {redisc:>14.0} tasks/s");
    println!("  bulk re-arm + publish:      {replay:>14.0} tasks/s  ({replay_speedup:.1}x)");

    emit_json(
        "discovery_throughput",
        obj([
            ("total_tasks", (total_tasks as u64).into()),
            ("rows", arr(rows)),
            (
                "replay",
                obj([
                    ("tpl", (tpl as u64).into()),
                    ("phases", (phases as u64).into()),
                    ("iters", replay_iters.into()),
                    ("rediscover_tasks_per_s", redisc.into()),
                    ("replay_tasks_per_s", replay.into()),
                    ("speedup", replay_speedup.into()),
                ]),
            ),
        ]),
    );
}
