//! Tile Cholesky: factor a real SPD matrix with dependent tasks, verify
//! `L·Lᵀ = A`, and measure the persistent-graph discovery speedup across
//! repeated factorizations (paper §4.4).
//!
//! ```sh
//! cargo run --release --example cholesky_tiled
//! ```

use ptdg::cholesky::{CholeskyConfig, CholeskyTask};
use ptdg::core::exec::{ExecConfig, Executor, SchedPolicy};
use ptdg::core::opts::OptConfig;
use ptdg::core::ThrottleConfig;
use ptdg::simrt::{simulate_tasks, MachineConfig, RankProgram, SimConfig};

fn main() {
    // --- real factorization ---------------------------------------------
    let cfg = CholeskyConfig::single(6, 8, 3);
    let prog = CholeskyTask::with_matrix(cfg.clone(), 2024);
    let exec = Executor::new(ExecConfig {
        n_workers: 4,
        policy: SchedPolicy::DepthFirst,
        throttle: ThrottleConfig::mpc_default(),
        profile: false,
        record_events: false,
    });
    let mut region = exec.persistent_region(OptConfig::all());
    for iter in 0..cfg.iterations {
        region.run(iter, |sub| prog.build_iteration(0, iter, sub));
    }
    let m = prog.matrix.as_ref().unwrap();
    println!(
        "factored a {}×{} SPD matrix ({}×{} tiles of {}×{}) {} times",
        cfg.n(),
        cfg.n(),
        cfg.nt,
        cfg.nt,
        cfg.b,
        cfg.b,
        cfg.iterations
    );
    println!("  max |L·Lᵀ − A| = {:.3e}", m.factorization_error());
    let t = region.template().unwrap();
    println!(
        "  persistent graph: {} tasks, {} edges per factorization",
        t.n_tasks(),
        t.n_edges()
    );

    // --- simulated discovery speedup vs iteration count ------------------
    println!("\nsimulated discovery time, streaming vs persistent (nt=24, b=128):");
    println!(
        "{:>6} {:>16} {:>16} {:>9}",
        "iters", "streaming (ms)", "persistent (ms)", "speedup"
    );
    let machine = MachineConfig::skylake_24();
    for iters in [1u64, 2, 4, 8, 16] {
        let cfg = CholeskyConfig::single(24, 128, iters);
        let prog = CholeskyTask::new(cfg);
        let base = simulate_tasks(&machine, &SimConfig::default(), &prog.space, &prog);
        let pers = simulate_tasks(
            &machine,
            &SimConfig {
                persistent: true,
                ..Default::default()
            },
            &prog.space,
            &prog,
        );
        let b_ms = base.rank(0).discovery_ns as f64 / 1e6;
        let p_ms = pers.rank(0).discovery_ns as f64 / 1e6;
        println!(
            "{:>6} {:>16.2} {:>16.2} {:>8.1}x",
            iters,
            b_ms,
            p_ms,
            b_ms / p_ms
        );
    }
    println!("\n(the asymptotic speedup is the paper's ~5x; total time is");
    println!(" unaffected because coarse tiles make discovery <2% of the run)");
}
