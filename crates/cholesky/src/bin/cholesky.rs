//! Tile-Cholesky command line: factor a seeded SPD matrix with dependent
//! tasks and verify the factorization.
//!
//! ```sh
//! cargo run --release -p ptdg-cholesky --bin cholesky -- --nt 6 --b 16 --repeats 4
//! ```

use ptdg_cholesky::{CholeskyConfig, CholeskyTask};
use ptdg_core::exec::{
    default_workers, run_program, ExecConfig, Executor, SchedPolicy, ThreadsConfig,
};
use ptdg_core::obs::{chrome_trace, critical_path};
use ptdg_core::opts::OptConfig;
use ptdg_core::ThrottleConfig;
use ptdg_simrt::RankProgram;
use std::path::PathBuf;

fn main() {
    let mut nt = 6usize;
    let mut b = 16usize;
    let mut repeats = 3u64;
    let mut seed = 42u64;
    let mut workers = default_workers();
    let mut ranks = 1u32;
    let mut trace: Option<PathBuf> = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut k = 0;
    while k < argv.len() {
        let val = argv.get(k + 1).and_then(|v| v.parse::<u64>().ok());
        match (argv[k].as_str(), val) {
            ("--nt", Some(v)) => nt = v as usize,
            ("--b", Some(v)) => b = v as usize,
            ("--repeats", Some(v)) => repeats = v,
            ("--seed", Some(v)) => seed = v,
            ("--workers", Some(v)) => workers = v as usize,
            ("--ranks", Some(v)) => ranks = v as u32,
            ("--trace", _) => match argv.get(k + 1) {
                Some(p) => trace = Some(PathBuf::from(p)),
                None => {
                    eprintln!("missing path after --trace");
                    std::process::exit(2);
                }
            },
            ("-h", _) | ("--help", _) => {
                eprintln!(
                    "usage: cholesky [--nt T] [--b B] [--repeats R] [--seed S] [--workers W] \
                     [--ranks N] [--trace out.json]"
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
        // Cost-model mode: the 1-D cyclic panel distribution on concurrent
        // rank pools, panel broadcasts through the in-process network.
        let cfg = CholeskyConfig {
            n_ranks: ranks,
            ..CholeskyConfig::single(nt, b, repeats)
        };
        let prog = CholeskyTask::new(cfg);
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
            "Cholesky {n}x{n} ({nt}x{nt} tiles), {repeats} repeats on {r} ranks x \
             {workers} workers (cost model): {} tasks, {} comms posted / {} completed, {:.3}s",
            report.counters.tasks_completed,
            report.counters.comms_posted,
            report.counters.comms_completed,
            t0.elapsed().as_secs_f64(),
            n = nt * b,
            r = report.n_ranks,
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
    let cfg = CholeskyConfig::single(nt, b, repeats);
    let prog = CholeskyTask::with_matrix(cfg.clone(), seed);
    let exec = Executor::new(ExecConfig {
        n_workers: workers,
        policy: SchedPolicy::DepthFirst,
        throttle: ThrottleConfig::mpc_default(),
        profile: trace.is_some(),
        record_events: false,
    });
    let t0 = std::time::Instant::now();
    let mut region = exec.persistent_region(OptConfig::all());
    for iter in 0..repeats {
        region.run(iter, |sub| prog.build_iteration(0, iter, sub));
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let err = prog.matrix.as_ref().unwrap().factorization_error();
    let t = region.template().unwrap();
    println!(
        "Cholesky {}x{} ({}x{} tiles of {}x{}), {} repeats on {} workers:",
        nt * b,
        nt * b,
        nt,
        nt,
        b,
        b,
        repeats,
        workers
    );
    println!(
        "  max |L·Lᵀ − A| = {err:.3e}   {} tasks / {} edges per factorization   {elapsed:.3}s",
        t.n_tasks(),
        t.n_edges()
    );
    if let Some(path) = &trace {
        let mut obs = exec.take_obs();
        let created = obs.counters.tasks_created;
        obs.counters
            .absorb_discovery(&region.first_iteration_stats());
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
            critical_path(t, &obs.events, obs.trace.span_ns, workers).render(5)
        );
    }
    assert!(err < 1e-8, "factorization failed verification");
}
