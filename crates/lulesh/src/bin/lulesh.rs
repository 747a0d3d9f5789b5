//! A LULESH-style command line for the proxy app, mirroring the original
//! flags (`-s`, `-i`) plus the task-version knobs of the paper's port
//! (`-tel` tasks-per-loop, `--parallel-for`, `--persistent`).
//!
//! ```sh
//! cargo run --release -p ptdg-lulesh --bin lulesh -- -s 12 -i 20 -tel 32
//! ```

use ptdg_core::exec::{
    default_workers, run_program, ExecConfig, Executor, SchedPolicy, ThreadsConfig,
};
use ptdg_core::obs::{chrome_trace, critical_path};
use ptdg_core::opts::OptConfig;
use ptdg_core::ThrottleConfig;
use ptdg_lulesh::sequential::run_sequential;
use ptdg_lulesh::{LuleshConfig, LuleshTask, RankGrid};
use ptdg_simrt::RankProgram;
use std::path::PathBuf;

struct Args {
    s: usize,
    i: u64,
    tel: usize,
    workers: usize,
    ranks: usize,
    parallel_for: bool,
    persistent: bool,
    trace: Option<PathBuf>,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        s: 10,
        i: 10,
        tel: 24,
        workers: default_workers(),
        ranks: 1,
        parallel_for: false,
        persistent: true,
        trace: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut k = 0;
    let next = |k: &mut usize| -> Result<usize, String> {
        *k += 1;
        argv.get(*k)
            .ok_or_else(|| format!("missing value after {}", argv[*k - 1]))?
            .parse::<usize>()
            .map_err(|e| format!("bad number after {}: {e}", argv[*k - 1]))
    };
    while k < argv.len() {
        match argv[k].as_str() {
            "-s" => args.s = next(&mut k)?,
            "-i" => args.i = next(&mut k)? as u64,
            "-tel" => args.tel = next(&mut k)?,
            "-t" | "--workers" => args.workers = next(&mut k)?,
            "--ranks" => args.ranks = next(&mut k)?,
            "--parallel-for" => args.parallel_for = true,
            "--no-persistent" => args.persistent = false,
            "--trace" => {
                k += 1;
                args.trace = Some(PathBuf::from(
                    argv.get(k).ok_or("missing path after --trace")?,
                ));
            }
            "-h" | "--help" => {
                return Err("usage: lulesh [-s edge] [-i iters] [-tel tasks-per-loop] \
                     [-t workers-per-rank] [--ranks P³] [--parallel-for] [--no-persistent] \
                     [--trace out.json]"
                    .into())
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
        k += 1;
    }
    Ok(args)
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let t0 = std::time::Instant::now();
    if args.parallel_for {
        // the fork-join reference: plain sequential loops here stand in
        // for the statically-chunked version (identical numerics)
        let st = run_sequential(args.s, args.i, args.tel);
        println!(
            "parallel-for LULESH -s {} -i {}: energy {:.6}, dt {:.3e}, {:.3}s",
            args.s,
            args.i,
            st.total_energy(),
            *st.dt.get(0),
            t0.elapsed().as_secs_f64()
        );
        return;
    }
    if args.ranks > 1 {
        // Cost-model mode: every rank's task stream runs concurrently on
        // its own worker pool, halo exchanges go through the in-process
        // network with detached completion. No numeric state — task
        // bodies carry work descriptors only, like the simulator's.
        let px = (args.ranks as f64).cbrt().round() as usize;
        if px * px * px != args.ranks {
            eprintln!("--ranks {} is not a perfect cube", args.ranks);
            std::process::exit(2);
        }
        let cfg = LuleshConfig {
            grid: RankGrid::cube(args.ranks),
            ..LuleshConfig::single(args.s, args.i, args.tel)
        };
        let prog = LuleshTask::new(cfg);
        let report = run_program(
            &prog,
            &ThreadsConfig {
                exec: ExecConfig {
                    n_workers: args.workers,
                    policy: SchedPolicy::DepthFirst,
                    throttle: ThrottleConfig::mpc_default(),
                    profile: args.trace.is_some(),
                    record_events: false,
                },
                opts: OptConfig::all(),
                persistent: args.persistent,
                ..Default::default()
            },
        );
        println!(
            "task LULESH -s {} -i {} -tel {} on {} ranks x {} workers (cost model): \
             {} tasks, {} comms posted / {} completed, {:.3}s",
            args.s,
            args.i,
            args.tel,
            report.n_ranks,
            args.workers,
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
        if let (Some(path), Some(trace)) = (&args.trace, &report.trace) {
            let doc = chrome_trace(trace, &report.events, &report.counters);
            if let Err(e) = std::fs::write(path, doc.render() + "\n") {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
            println!(
                "chrome trace of rank 0 written to {} (load at https://ui.perfetto.dev)",
                path.display()
            );
        }
        if let Some(err) = &report.comm_error {
            eprintln!("{err}");
            std::process::exit(1);
        }
        return;
    }
    let cfg = LuleshConfig::single(args.s, args.i, args.tel);
    let prog = LuleshTask::with_state(cfg.clone());
    let exec = Executor::new(ExecConfig {
        n_workers: args.workers,
        policy: SchedPolicy::DepthFirst,
        throttle: ThrottleConfig::mpc_default(),
        profile: args.trace.is_some(),
        record_events: false,
    });
    let (graph, stats) = if args.persistent {
        let mut region = exec.persistent_region(OptConfig::all());
        for iter in 0..cfg.iterations {
            region.run(iter, |sub| prog.build_iteration(0, iter, sub));
        }
        let t = region.template().unwrap();
        println!(
            "persistent TDG: {} tasks, {} edges per iteration",
            t.n_tasks(),
            t.n_edges()
        );
        (Some((**t).clone()), region.first_iteration_stats())
    } else if args.trace.is_some() {
        // capture the full streamed graph so the critical-path report can
        // walk it
        let mut session = exec.session_capturing(OptConfig::all());
        for iter in 0..cfg.iterations {
            prog.build_iteration(0, iter, &mut session);
        }
        let (g, stats) = session.finish_capture();
        println!("streaming discovery: {stats:?}");
        (Some(g), stats)
    } else {
        let mut session = exec.session(OptConfig::all());
        for iter in 0..cfg.iterations {
            prog.build_iteration(0, iter, &mut session);
        }
        session.wait_all();
        println!("streaming discovery: {:?}", session.stats());
        (None, session.stats())
    };
    if let Some(path) = &args.trace {
        let mut obs = exec.take_obs();
        obs.counters.absorb_discovery(&stats);
        let doc = chrome_trace(&obs.trace, &obs.events, &obs.counters);
        if let Err(e) = std::fs::write(path, doc.render() + "\n") {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!(
            "chrome trace written to {} (load at https://ui.perfetto.dev)",
            path.display()
        );
        if let Some(g) = &graph {
            println!(
                "{}",
                critical_path(g, &obs.events, obs.trace.span_ns, args.workers).render(5)
            );
        }
    }
    let st = prog.state.as_ref().unwrap();
    let reference = run_sequential(args.s, args.i, args.tel.min(args.s.pow(3)));
    println!(
        "task LULESH -s {} -i {} -tel {} on {} workers: energy {:.6}, dt {:.3e}, {:.3}s ({})",
        args.s,
        args.i,
        args.tel,
        args.workers,
        st.total_energy(),
        *st.dt.get(0),
        t0.elapsed().as_secs_f64(),
        if st.digest() == reference.digest() {
            "verified vs sequential"
        } else {
            "MISMATCH vs sequential"
        }
    );
}
