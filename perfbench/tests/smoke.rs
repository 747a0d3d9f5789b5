//! Tiny-size runs of every workload: outputs verify, and the runs print
//! exactly the metrics `BENCHMARK.json` declares.

use ptdg_perfbench::app::LuleshApp;
use ptdg_perfbench::jobs::{sim_job, thread_job, Mode, SIM_CALLS};
use ptdg_perfbench::workloads::{self, run_end_to_end, run_traced, Workload, MEASURED};

const SEED: u64 = 11;

/// The same workload shape (executor mode) at a size that runs in
/// milliseconds.
fn tiny(w: &Workload) -> Workload {
    Workload {
        name: w.name,
        s: 4,
        tpl: 8,
        mode: w.mode,
    }
}

/// `"name": "<x>"` entries of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| {
            s.trim()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap()
                .to_string()
        })
        .collect()
}

fn names(r: &workloads::RunResult) -> Vec<String> {
    r.metrics.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn every_workload_job_verifies_at_tiny_size() {
    for w in workloads::all() {
        let t = tiny(&w);
        let job = thread_job(&t.app(SEED), t.mode, MEASURED, 1, false);
        assert_eq!(job.failure, None, "{}", w.name);
        assert!(job.tasks > 0 && job.makespan_s > 0.0, "{}", w.name);
        assert_eq!(job.iter_ms.len() as u64, MEASURED, "{}", w.name);
    }
}

#[test]
fn the_traced_runs_simulator_job_verifies_at_tiny_size() {
    let job = sim_job(&LuleshApp::new(4, 8, SEED), SEED);
    assert_eq!(job.failure, None);
    assert_eq!(job.iter_ms.len() as u64, SIM_CALLS);
    let s = job.sim.expect("simulator jobs carry figures");
    assert!(s.comms_posted > 0);
    assert!(s.virtual_s > 0.0);
}

#[test]
fn traced_jobs_verify_and_account_for_the_producer() {
    for mode in [Mode::Stream, Mode::Capture] {
        let app = LuleshApp::new(4, 8, SEED);
        let job = thread_job(&app, mode, 5, 1, true);
        assert_eq!(job.failure, None, "{mode:?}");
        let p = job.producer.expect("traced jobs carry a producer trace");
        assert!(p.submitted > 0, "{mode:?}");
        assert!(p.accounted_ns <= p.measured_ns, "{mode:?}");
        assert!(p.accounted_ns > 0, "{mode:?}");
        // A stream's timeline leaves only loop bookkeeping unaccounted; a
        // capture job's also leaves out each `invalidate()`.
        if mode == Mode::Stream {
            assert!(p.measured_ns - p.accounted_ns < p.measured_ns / 10);
        }
        assert!(p.critical_path_ns > 0, "{mode:?}");
        // The breakdown covers the one worker lane, not the producer's.
        assert_eq!(p.breakdown.n_workers, 1, "{mode:?}");
    }
}

#[test]
fn a_wrong_output_fails_verification() {
    let app = LuleshApp::new(4, 8, SEED);
    let other = LuleshApp::new(4, 8, SEED + 1);
    let job = thread_job(&app, Mode::Stream, 3, 1, false);
    assert_eq!(job.failure, None);
    // Another seed's input is another problem: its reference differs.
    let prog = other.real();
    assert!(app.verify(&prog, 0).is_err());
}

#[test]
fn runs_print_exactly_the_declared_metrics() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for w in workloads::all() {
        let t = tiny(&w);
        let r = run_end_to_end(&t, SEED, 1, 1);
        assert_eq!(r.failed, 0, "{}: {:?}", w.name, r.notes);
        assert_eq!(names(&r), end_to_end, "{}", w.name);
        assert!(r.metrics.iter().all(|m| m.value > 0.0), "{}", w.name);
        let r = run_traced(&t, SEED, 1, 1);
        assert_eq!(r.failed, 0, "{}: {:?}", w.name, r.notes);
        assert_eq!(names(&r), per_layer, "{}", w.name);
        assert!(r.metrics.iter().all(|m| m.value.is_finite()), "{}", w.name);
    }
}

#[test]
fn declared_workloads_exist() {
    for name in declared("workloads") {
        assert!(workloads::find(&name).is_some(), "{name}");
    }
    assert!(workloads::find("no-such-workload").is_none());
}
