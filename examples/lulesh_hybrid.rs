//! LULESH three ways: sequential reference, real task execution, and a
//! simulated distributed MPI+tasks run with communication overlap.
//!
//! ```sh
//! cargo run --release --example lulesh_hybrid
//! ```

use ptdg::core::exec::{ExecConfig, Executor, SchedPolicy};
use ptdg::core::opts::OptConfig;
use ptdg::core::ThrottleConfig;
use ptdg::lulesh::sequential::run_sequential;
use ptdg::lulesh::{LuleshBsp, LuleshConfig, LuleshTask, RankGrid};
use ptdg::simrt::{simulate_bsp, simulate_tasks, MachineConfig, RankProgram, SimConfig};

fn main() {
    // --- 1. real execution: task version vs sequential reference -------
    let (s, iters, tpl) = (10usize, 10u64, 24usize);
    let reference = run_sequential(s, iters, tpl);

    let cfg = LuleshConfig::single(s, iters, tpl);
    let prog = LuleshTask::with_state(cfg.clone());
    let exec = Executor::new(ExecConfig {
        n_workers: 4,
        policy: SchedPolicy::DepthFirst,
        throttle: ThrottleConfig::mpc_default(),
        profile: false,
        record_events: false,
    });
    let mut region = exec.persistent_region(OptConfig::all());
    for iter in 0..iters {
        region.run(iter, |sub| prog.build_iteration(0, iter, sub));
    }
    let st = prog.state.as_ref().unwrap();
    println!("LULESH -s {s} -i {iters} (tasks per loop = {tpl})");
    println!(
        "  task runtime vs sequential reference: bitwise {}",
        if st.digest() == reference.digest() {
            "IDENTICAL"
        } else {
            "DIFFERENT (bug!)"
        }
    );
    println!("  total energy: {:.6}", st.total_energy());
    let t = region.template().unwrap();
    println!(
        "  persistent graph: {} tasks, {} edges per iteration",
        t.n_tasks(),
        t.n_edges()
    );

    // --- 2. simulated intra-node study: tasks vs parallel-for ----------
    let m = MachineConfig::skylake_24();
    let s = 96;
    let bsp_prog = LuleshBsp::new(LuleshConfig::single(s, 2, 1));
    let bsp = simulate_bsp(&m, &SimConfig::default(), &bsp_prog.space, &bsp_prog);
    let task_prog = LuleshTask::new(LuleshConfig::single(s, 2, 128));
    let tasks = simulate_tasks(&m, &SimConfig::default(), &task_prog.space, &task_prog);
    println!("\nsimulated 24-core node, -s {s} -i 2:");
    println!(
        "  parallel-for: {:.3}s   ({} ML3 misses)",
        bsp.total_time_s(),
        bsp.rank(0).cache.l3_misses / 1_000_000
    );
    println!(
        "  tasks TPL=128: {:.3}s   ({} ML3 misses)  => {:.2}x",
        tasks.total_time_s(),
        tasks.rank(0).cache.l3_misses / 1_000_000,
        bsp.total_time_s() / tasks.total_time_s()
    );

    // --- 3. simulated distributed run: 8 ranks, overlap ----------------
    // The optimized task configuration of the paper: persistent TDG so
    // discovery does not bound the 16-core ranks.
    let cfg = LuleshConfig {
        grid: RankGrid::cube(8),
        ..LuleshConfig::single(96, 2, 128)
    };
    let sim = SimConfig {
        n_ranks: 8,
        persistent: true,
        ..Default::default()
    };
    let em = MachineConfig::epyc_16();
    let tp = LuleshTask::new(cfg.clone());
    let dist = simulate_tasks(&em, &sim, &tp.space, &tp);
    let bp = LuleshBsp::new(cfg);
    let dist_bsp = simulate_bsp(&em, &sim, &bp.space, &bp);
    println!("\nsimulated 8 ranks × 16 cores, -s 96/rank (persistent TDG):");
    println!(
        "  tasks: {:.3}s, overlap ratio {:.0}% (comm {:.1} ms/rank)",
        dist.total_time_s(),
        100.0 * dist.mean_over_ranks(|r| r.overlap_ratio()),
        1e3 * dist.mean_over_ranks(|r| r.comm_s())
    );
    println!(
        "  parallel-for: {:.3}s, overlap ratio 0% by construction",
        dist_bsp.total_time_s()
    );
}
