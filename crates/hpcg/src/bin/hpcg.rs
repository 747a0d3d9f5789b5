//! HPCG-style command line: solve the 27-point-stencil system with
//! task-based CG and report the residual trajectory.
//!
//! ```sh
//! cargo run --release -p ptdg-hpcg --bin hpcg -- --nx 12 --iters 30 --tpl 16
//! ```

use ptdg_core::exec::{
    default_workers, run_program, ExecConfig, Executor, SchedPolicy, ThreadsConfig,
};
use ptdg_core::obs::{chrome_trace, critical_path};
use ptdg_core::opts::OptConfig;
use ptdg_core::ThrottleConfig;
use ptdg_hpcg::{HpcgConfig, HpcgTask};
use ptdg_simrt::RankProgram;
use std::path::PathBuf;

fn main() {
    let mut nx = 10usize;
    let mut iters = 25u64;
    let mut tpl = 16usize;
    let mut workers = default_workers();
    let mut ranks = 1usize;
    let mut trace: Option<PathBuf> = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut k = 0;
    while k < argv.len() {
        let val = argv.get(k + 1).and_then(|v| v.parse::<usize>().ok());
        match (argv[k].as_str(), val) {
            ("--nx", Some(v)) => nx = v,
            ("--iters", Some(v)) => iters = v as u64,
            ("--tpl", Some(v)) => tpl = v,
            ("--workers", Some(v)) => workers = v,
            ("--ranks", Some(v)) => ranks = v,
            ("--trace", _) => match argv.get(k + 1) {
                Some(p) => trace = Some(PathBuf::from(p)),
                None => {
                    eprintln!("missing path after --trace");
                    std::process::exit(2);
                }
            },
            ("-h", _) | ("--help", _) => {
                eprintln!(
                    "usage: hpcg [--nx N] [--iters I] [--tpl B] [--workers W] [--ranks P³] \
                     [--trace out.json]"
                );
                return;
            }
            (flag, _) => {
                eprintln!("bad flag/value: {flag} (try --help)");
                std::process::exit(2);
            }
        }
        k += 2;
    }

    if ranks > 1 {
        // Cost-model mode: concurrent rank pools over the in-process
        // network (halo exchanges + dot-product all-reduces), no numeric
        // state.
        let px = (ranks as f64).cbrt().round() as usize;
        if px * px * px != ranks {
            eprintln!("--ranks {ranks} is not a perfect cube");
            std::process::exit(2);
        }
        let cfg = HpcgConfig {
            px,
            ..HpcgConfig::single(nx, iters, tpl)
        };
        let prog = HpcgTask::new(cfg);
        let t0 = std::time::Instant::now();
        let report = run_program(
            &prog,
            &ThreadsConfig {
                exec: ExecConfig {
                    n_workers: workers,
                    policy: SchedPolicy::DepthFirst,
                    throttle: ThrottleConfig::mpc_default(),
                    profile: false,
                    record_events: false,
                },
                opts: OptConfig::all(),
                ..Default::default()
            },
        );
        println!(
            "CG {nx}\u{b3}/rank, {iters} iterations on {} ranks x {workers} workers \
             (cost model): {} tasks, {} comms posted / {} completed, {:.3}s",
            report.n_ranks,
            report.counters.tasks_completed,
            report.counters.comms_posted,
            report.counters.comms_completed,
            t0.elapsed().as_secs_f64()
        );
        for (r, c) in report.per_rank_counters.iter().enumerate() {
            println!(
                "  rank {r}: {} tasks, {} posted / {} completed, {} unexpected",
                c.tasks_completed, c.comms_posted, c.comms_completed, c.unexpected_msgs
            );
        }
        if let Some(err) = &report.comm_error {
            eprintln!("{err}");
            std::process::exit(1);
        }
        return;
    }
    let cfg = HpcgConfig::single(nx, iters, tpl);
    let prog = HpcgTask::with_state(cfg.clone());
    let exec = Executor::new(ExecConfig {
        n_workers: workers,
        policy: SchedPolicy::DepthFirst,
        throttle: ThrottleConfig::mpc_default(),
        profile: trace.is_some(),
        record_events: false,
    });
    let t0 = std::time::Instant::now();
    // with --trace, capture the streamed graph for the critical-path walk
    let mut session = if trace.is_some() {
        exec.session_capturing(OptConfig::all())
    } else {
        exec.session(OptConfig::all())
    };
    for iter in 0..cfg.iterations {
        prog.build_iteration(0, iter, &mut session);
        if iter % 5 == 4 {
            session.taskwait();
            println!(
                "iter {:>4}: residual {:.6e}",
                iter + 1,
                prog.state.as_ref().unwrap().residual()
            );
        }
    }
    if let Some(path) = &trace {
        let (g, stats) = session.finish_capture();
        let mut obs = exec.take_obs();
        let created = obs.counters.tasks_created;
        obs.counters.absorb_discovery(&stats);
        obs.counters.tasks_created = created;
        let doc = chrome_trace(&obs.trace, &obs.events, &obs.counters);
        if let Err(e) = std::fs::write(path, doc.render() + "\n") {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!(
            "chrome trace written to {} (load at https://ui.perfetto.dev)",
            path.display()
        );
        println!(
            "{}",
            critical_path(&g, &obs.events, obs.trace.span_ns, workers).render(5)
        );
    } else {
        session.wait_all();
    }
    let st = prog.state.as_ref().unwrap();
    println!(
        "CG {}³ grid, {} iterations, {} blocks on {} workers: residual {:.3e} \
         (true {:.3e}) in {:.3}s",
        nx,
        iters,
        cfg.blocks(),
        workers,
        st.residual(),
        st.true_residual(),
        t0.elapsed().as_secs_f64()
    );
}
