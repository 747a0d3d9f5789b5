//! HPCG: solve a 27-point-stencil system with task-based CG, verify the
//! solution, and reproduce the TPL trade-off of the paper's Fig. 9 at
//! small scale.
//!
//! ```sh
//! cargo run --release --example hpcg_solve
//! ```

use ptdg::core::exec::{ExecConfig, Executor, SchedPolicy};
use ptdg::core::opts::OptConfig;
use ptdg::core::ThrottleConfig;
use ptdg::hpcg::{HpcgConfig, HpcgTask};
use ptdg::simrt::{simulate_tasks, MachineConfig, RankProgram, SimConfig};

fn main() {
    // --- real task-based CG solve --------------------------------------
    let cfg = HpcgConfig::single(10, 25, 16);
    let prog = HpcgTask::with_state(cfg.clone());
    let exec = Executor::new(ExecConfig {
        n_workers: 4,
        policy: SchedPolicy::DepthFirst,
        throttle: ThrottleConfig::mpc_default(),
        profile: false,
        record_events: false,
    });
    let mut session = exec.session(OptConfig::all());
    for iter in 0..cfg.iterations {
        prog.build_iteration(0, iter, &mut session);
    }
    session.wait_all();
    let st = prog.state.as_ref().unwrap();
    println!(
        "CG on {}³ grid, {} iterations, {} vector blocks:",
        cfg.nx, cfg.iterations, cfg.tpl
    );
    println!("  residual (bookkeeping): {:.3e}", st.residual());
    println!("  residual (recomputed) : {:.3e}", st.true_residual());
    let err = (0..st.x.len())
        .map(|i| (st.x.get(i) - 1.0).abs())
        .fold(0.0, f64::max);
    println!("  max |x - 1|           : {err:.3e}  (exact solution is all-ones)");
    println!("  discovery stats       : {:?}", session.stats());

    // --- simulated TPL sweep (Fig. 9 in miniature) ----------------------
    // edges/task is the *structural* count (attempted edges): at fine
    // grain the runtime prunes most of them because predecessors complete
    // before their successors are discovered.
    println!("\nsimulated 24-core-node TPL sweep (nx=96, 4 CG iterations):");
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "TPL", "total(s)", "work(s)", "disc(s)", "edges/task", "grain(us)"
    );
    let m = MachineConfig::skylake_24();
    for tpl in [24, 96, 240, 480, 960] {
        let cfg = HpcgConfig::single(96, 4, tpl);
        let prog = HpcgTask::new(cfg);
        let r = simulate_tasks(&m, &SimConfig::default(), &prog.space, &prog);
        let rank = r.rank(0);
        println!(
            "{:>6} {:>10.4} {:>10.4} {:>10.4} {:>12.1} {:>12.1}",
            tpl,
            r.total_time_s(),
            rank.avg_work_s(),
            rank.discovery_s(),
            rank.disc.edges_attempted() as f64 / rank.disc.tasks as f64,
            rank.mean_grain_s() * 1e6
        );
    }
}
