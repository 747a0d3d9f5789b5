//! The environment stamp every run prints, and the machine-speed probe.

use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Hardware threads this process may use (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads for the thread workloads: the producer plus the
/// workers fill the machine exactly, never more.
pub fn thread_workers() -> usize {
    nproc().saturating_sub(1).max(1)
}

/// Where and with what a run was made.
#[derive(Clone, Debug)]
pub struct EnvStamp {
    pub nproc: usize,
    pub n_workers: usize,
    pub profile: &'static str,
    pub rustc: &'static str,
    pub git_rev: String,
    /// FNV digest of the sources under `crates/` and `perfbench/`: names
    /// the code even in a checkout that is not a git repository.
    pub src_fnv: String,
}

impl EnvStamp {
    /// Stamp for a workload that runs `n_workers` worker threads.
    pub fn collect(n_workers: usize) -> EnvStamp {
        EnvStamp {
            nproc: nproc(),
            n_workers,
            profile: env!("PERFBENCH_PROFILE"),
            rustc: env!("PERFBENCH_RUSTC"),
            git_rev: git_rev(),
            src_fnv: format!("{:016x}", source_digest(&["crates", "perfbench"])),
        }
    }
}

/// `git rev-parse HEAD` when the working directory is a git checkout.
fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "none".into();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if matches!(
            p.extension().and_then(|x| x.to_str()),
            Some("rs") | Some("toml")
        ) {
            out.push(p);
        }
    }
}

/// FNV-1a over the paths and bytes of every `.rs`/`.toml` file under
/// `roots`, in sorted path order.
fn source_digest(roots: &[&str]) -> u64 {
    let mut files = Vec::new();
    for r in roots {
        collect_sources(Path::new(r), &mut files);
    }
    files.sort();
    let mut h = 0xcbf29ce484222325u64;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for f in &files {
        mix(f.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(f) {
            mix(&bytes);
        }
    }
    h
}

/// Wall time of a fixed single-threaded integer loop, in milliseconds.
///
/// Run before and after each measurement: a change between two sets of
/// runs that this probe also shows is machine drift, not a program change.
pub fn cpu_loop_ms() -> f64 {
    const ROUNDS: u64 = 20_000_000;
    let t0 = Instant::now();
    let mut x = black_box(0x9e3779b97f4a7c15u64);
    for _ in 0..ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}
