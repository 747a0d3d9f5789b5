//! Command line of the benchmark:
//!
//! ```text
//! ptdg-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints the environment stamp, one line per job and diagnostics, then,
//! as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits 0 only when every job's output verified.

use ptdg_perfbench::env::{cpu_loop_ms, thread_workers, EnvStamp};
use ptdg_perfbench::workloads::{self, RunResult};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10u64, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&seconds) {
                    return Err("--seconds must be within 1..=600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn json_str(s: &str) -> String {
    format!("{s:?}")
}

fn result_json(correct: bool, r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; `correct` is false then anyway.
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(m.name),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
            eprintln!("error: {e}");
            eprintln!(
                "usage: ptdg-perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = workloads::find(&args.workload) else {
        eprintln!("error: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let n_workers = thread_workers();
    let env = EnvStamp::collect(n_workers);
    // Thread jobs run the producer plus `n_workers`; the simulator jobs of
    // the traced run are single-threaded.
    println!(
        "env: workload={} seed={} seconds={} trace={} nproc={} n_workers={} \
         threads={} sim_threads=1 profile={} rustc=\"{}\" git_rev={} src_fnv={}",
        w.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        env.nproc,
        env.n_workers,
        1 + n_workers,
        env.profile,
        env.rustc,
        env.git_rev,
        env.src_fnv
    );
    let cpu_before = cpu_loop_ms();
    let r = if args.trace {
        workloads::run_traced(&w, args.seed, args.seconds, n_workers)
    } else {
        workloads::run_end_to_end(&w, args.seed, args.seconds, n_workers)
    };
    let cpu_after = cpu_loop_ms();
    for line in &r.notes {
        println!("{line}");
    }
    for m in &r.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!("diagnostic cpu_loop_ms: before {cpu_before:.3}, after {cpu_after:.3}");
    let correct = r.failed == 0
        && r.attempted > 0
        && !r.metrics.is_empty()
        && r.metrics.iter().all(|m| m.value.is_finite());
    println!("{}", result_json(correct, &r));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
