//! Cross-backend equivalence: one `RankProgram` value, run unmodified
//! through `ptdg::run` on the thread executor and on the DES simulator,
//! must discover the *identical* dependency graph — same task count, same
//! edge count, same per-task predecessor sets — because both back-ends sit
//! on the same runtime kernel. Where real state exists (single-rank apps
//! on threads), the numeric results must be bitwise identical across run
//! modes too.

use proptest::prelude::*;
use ptdg::cholesky::{CholeskyConfig, CholeskyTask};
use ptdg::core::access::AccessMode;
use ptdg::core::builder::SpecBuf;
use ptdg::core::exec::{ExecConfig, ThreadsConfig};
use ptdg::core::graph::GraphTemplate;
use ptdg::core::handle::HandleSpace;
use ptdg::core::opts::OptConfig;
use ptdg::core::program::{Rank, RankProgram};
use ptdg::core::task::TaskSpec;
use ptdg::hpcg::{HpcgConfig, HpcgTask};
use ptdg::lulesh::{LuleshConfig, LuleshTask, RankGrid};
use ptdg::simrt::{MachineConfig, SimConfig};
use ptdg::{run, Backend};

/// Order-independent structural signature of a template: per node, its
/// name, redirect flag, and sorted predecessor list.
fn signature(g: &GraphTemplate) -> Vec<(String, bool, Vec<u32>)> {
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); g.n_nodes()];
    for id in g.ids() {
        for s in g.successors(id) {
            preds[s.index()].push(id.0);
        }
    }
    g.ids()
        .map(|id| {
            let n = g.node(id);
            let mut p = std::mem::take(&mut preds[id.index()]);
            p.sort_unstable();
            (n.name.to_string(), n.is_redirect, p)
        })
        .collect()
}

fn threads_backend(opts: OptConfig, persistent: bool) -> Backend {
    Backend::Threads(ThreadsConfig {
        exec: ExecConfig {
            n_workers: 2,
            ..Default::default()
        },
        opts,
        persistent,
        capture_graph: true,
        ..Default::default()
    })
}

fn sim_backend(opts: OptConfig, persistent: bool, n_ranks: u32) -> Backend {
    Backend::Sim {
        machine: MachineConfig::tiny(4),
        cfg: SimConfig {
            n_ranks,
            opts,
            persistent,
            capture_graph: true,
            ..Default::default()
        },
    }
}

/// Run `prog` on both back-ends and assert the captured graphs match rank
/// by rank (plus basic task/edge counters from discovery).
fn assert_same_graphs(
    space: &HandleSpace,
    prog: &(dyn RankProgram + Sync),
    opts: OptConfig,
    persistent: bool,
) {
    let t = run(space, prog, threads_backend(opts, persistent));
    let s = run(space, prog, sim_backend(opts, persistent, prog.n_ranks()));
    assert_eq!(
        t.graphs().len(),
        s.graphs().len(),
        "both back-ends capture one graph per rank"
    );
    for (rank, (gt, gs)) in t.graphs().iter().zip(s.graphs()).enumerate() {
        assert_eq!(gt.n_tasks(), gs.n_tasks(), "rank {rank}: task count");
        assert_eq!(gt.n_edges(), gs.n_edges(), "rank {rank}: edge count");
        assert_eq!(
            signature(gt),
            signature(gs),
            "rank {rank}: per-task predecessor sets"
        );
    }
    let (ts, ss) = (t.stats(), s.stats());
    assert_eq!(ts.tasks, ss.tasks, "discovered task counters");
    assert_eq!(ts.depend_items, ss.depend_items, "depend-item counters");
}

#[test]
fn lulesh_graphs_match_across_backends() {
    let prog = LuleshTask::new(LuleshConfig::single(6, 2, 8));
    for opts in [OptConfig::none(), OptConfig::all()] {
        assert_same_graphs(&prog.space, &prog, opts, false);
    }
    assert_same_graphs(&prog.space, &prog, OptConfig::all(), true);
}

#[test]
fn lulesh_multirank_graphs_match_across_backends() {
    let cfg = LuleshConfig {
        grid: RankGrid::cube(8),
        ..LuleshConfig::single(6, 1, 8)
    };
    let prog = LuleshTask::new(cfg);
    assert_same_graphs(&prog.space, &prog, OptConfig::all(), false);
}

#[test]
fn hpcg_graphs_match_across_backends() {
    let prog = HpcgTask::new(HpcgConfig::single(8, 2, 4));
    for opts in [OptConfig::none(), OptConfig::all()] {
        assert_same_graphs(&prog.space, &prog, opts, false);
    }
    assert_same_graphs(&prog.space, &prog, OptConfig::all(), true);
}

#[test]
fn cholesky_graphs_match_across_backends() {
    let prog = CholeskyTask::new(CholeskyConfig::single(5, 8, 2));
    for opts in [OptConfig::none(), OptConfig::all()] {
        assert_same_graphs(&prog.space, &prog, opts, false);
    }
    assert_same_graphs(&prog.space, &prog, OptConfig::all(), true);
}

#[test]
fn numeric_results_identical_across_run_modes() {
    // Where real state exists, `ptdg::run` must leave it bitwise identical
    // whichever thread-side mode executed the graph.
    let digest_stream = {
        let prog = LuleshTask::with_state(LuleshConfig::single(6, 4, 8));
        run(&prog.space, &prog, threads_backend(OptConfig::all(), false));
        prog.state.as_ref().unwrap().digest()
    };
    let digest_persistent = {
        let prog = LuleshTask::with_state(LuleshConfig::single(6, 4, 8));
        run(&prog.space, &prog, threads_backend(OptConfig::all(), true));
        prog.state.as_ref().unwrap().digest()
    };
    assert_eq!(digest_stream, digest_persistent, "lulesh digests");
    let reference = ptdg::lulesh::sequential::run_sequential(6, 4, 8).digest();
    assert_eq!(digest_stream, reference, "lulesh matches sequential");

    let hpcg_stream = {
        let prog = HpcgTask::with_state(HpcgConfig::single(8, 3, 4));
        run(&prog.space, &prog, threads_backend(OptConfig::all(), false));
        prog.state.as_ref().unwrap().digest()
    };
    let hpcg_persistent = {
        let prog = HpcgTask::with_state(HpcgConfig::single(8, 3, 4));
        run(&prog.space, &prog, threads_backend(OptConfig::all(), true));
        prog.state.as_ref().unwrap().digest()
    };
    assert_eq!(hpcg_stream, hpcg_persistent, "hpcg digests");

    let chol_stream = {
        let prog = CholeskyTask::with_matrix(CholeskyConfig::single(4, 8, 2), 42);
        run(&prog.space, &prog, threads_backend(OptConfig::all(), false));
        prog.matrix.as_ref().unwrap().digest()
    };
    let chol_persistent = {
        let prog = CholeskyTask::with_matrix(CholeskyConfig::single(4, 8, 2), 42);
        run(&prog.space, &prog, threads_backend(OptConfig::all(), true));
        prog.matrix.as_ref().unwrap().digest()
    };
    assert_eq!(chol_stream, chol_persistent, "cholesky digests");
}

#[test]
fn breakdowns_are_well_formed_on_both_backends() {
    // Wall clock and virtual clock cannot agree numerically, but the
    // work/overhead/idle decomposition of §2.3.1 must be well-formed on
    // both: positive work, and the three parts exactly conserving
    // worker capacity (span × workers).
    use ptdg::core::profile::Breakdown;

    let prog = LuleshTask::new(LuleshConfig::single(6, 2, 8));

    let threads = run(
        &prog.space,
        &prog,
        Backend::Threads(ThreadsConfig {
            exec: ExecConfig {
                n_workers: 2,
                profile: true,
                ..Default::default()
            },
            opts: OptConfig::all(),
            ..Default::default()
        }),
    );
    let sim = run(
        &prog.space,
        &prog,
        Backend::Sim {
            machine: MachineConfig::tiny(4),
            cfg: SimConfig {
                opts: OptConfig::all(),
                record_trace_rank: Some(0),
                ..Default::default()
            },
        },
    );

    for (label, outcome) in [("threads", &threads), ("sim", &sim)] {
        let trace = outcome.trace().unwrap_or_else(|| panic!("{label}: trace"));
        let b = Breakdown::from_trace(trace);
        assert!(b.work_ns > 0, "{label}: tasks did run");
        assert!(b.span_ns > 0, "{label}: non-empty span");
        assert!(b.n_workers > 0, "{label}: workers recorded");
        let capacity = b.span_ns * b.n_workers as u64;
        assert_eq!(
            b.work_ns + b.overhead_ns + b.idle_ns,
            capacity,
            "{label}: breakdown conserves capacity"
        );
    }
    // The simulator emits explicit overhead spans; the thread profiler's
    // work-only trace folds non-work into idle by design.
    let sb = Breakdown::from_trace(sim.trace().unwrap());
    assert!(sb.overhead_ns > 0, "sim: explicit overhead spans");
}

// ---- random-DAG programs ------------------------------------------------

const N_HANDLES: usize = 6;

/// A random dependent-task program: per task, 1..=3 `(handle, mode)`
/// depend items, replayed identically each iteration. `via_buf` selects
/// the submission path: owned `TaskSpec` per task, or the recycled
/// `SpecBuf` the zero-allocation hot path is built on — both must land
/// byte-for-byte the same depend stream on the discovery engine.
#[derive(Clone, Debug)]
struct RandomProgram {
    space: HandleSpace,
    handles: Vec<ptdg::core::handle::DataHandle>,
    tasks: Vec<Vec<(usize, u8)>>,
    iters: u64,
    via_buf: bool,
}

impl RandomProgram {
    fn new(tasks: Vec<Vec<(usize, u8)>>, iters: u64) -> RandomProgram {
        let mut space = HandleSpace::new();
        let handles = (0..N_HANDLES).map(|_| space.region("h", 64)).collect();
        RandomProgram {
            space,
            handles,
            tasks,
            iters,
            via_buf: false,
        }
    }

    fn via_buf(tasks: Vec<Vec<(usize, u8)>>, iters: u64) -> RandomProgram {
        RandomProgram {
            via_buf: true,
            ..RandomProgram::new(tasks, iters)
        }
    }
}

fn mode_of(m: u8) -> AccessMode {
    match m {
        0 => AccessMode::In,
        1 => AccessMode::Out,
        2 => AccessMode::InOut,
        _ => AccessMode::InOutSet,
    }
}

impl RankProgram for RandomProgram {
    fn n_iterations(&self) -> u64 {
        self.iters
    }
    fn build_iteration(
        &self,
        _rank: Rank,
        _iter: u64,
        sub: &mut dyn ptdg::core::builder::TaskSubmitter,
    ) {
        let mut buf = SpecBuf::new();
        for deps in &self.tasks {
            let mut seen = Vec::new();
            if self.via_buf {
                buf.begin("t");
                for &(h, m) in deps {
                    if seen.contains(&h) {
                        continue; // one access per handle per task
                    }
                    seen.push(h);
                    buf.dep(self.handles[h], mode_of(m));
                }
                buf.submit(sub);
            } else {
                let mut spec = TaskSpec::new("t");
                for &(h, m) in deps {
                    if seen.contains(&h) {
                        continue;
                    }
                    seen.push(h);
                    spec = spec.depend(self.handles[h], mode_of(m));
                }
                sub.submit(spec);
            }
        }
    }
}

/// Run the same task stream through both submission paths on one backend
/// and assert the discovered graphs are identical.
fn assert_submission_paths_equivalent(
    tasks: Vec<Vec<(usize, u8)>>,
    iters: u64,
    opts: OptConfig,
    persistent: bool,
) {
    let spec_prog = RandomProgram::new(tasks.clone(), iters);
    let buf_prog = RandomProgram::via_buf(tasks, iters);
    for backend in ["threads", "sim"] {
        let (a, b) = match backend {
            "threads" => (
                run(
                    &spec_prog.space,
                    &spec_prog,
                    threads_backend(opts, persistent),
                ),
                run(
                    &buf_prog.space,
                    &buf_prog,
                    threads_backend(opts, persistent),
                ),
            ),
            _ => (
                run(
                    &spec_prog.space,
                    &spec_prog,
                    sim_backend(opts, persistent, 1),
                ),
                run(&buf_prog.space, &buf_prog, sim_backend(opts, persistent, 1)),
            ),
        };
        assert_eq!(a.graphs().len(), b.graphs().len(), "{backend}: graph count");
        for (rank, (gs, gb)) in a.graphs().iter().zip(b.graphs()).enumerate() {
            assert_eq!(
                signature(gs),
                signature(gb),
                "{backend} rank {rank}: TaskSpec and SpecBuf paths diverged"
            );
        }
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!(sa.tasks, sb.tasks, "{backend}: task counters");
        assert_eq!(sa.depend_items, sb.depend_items, "{backend}: depend items");
    }
}

// ---- comm-heavy random programs -----------------------------------------

/// A random *symmetric exchange* program: per round `(d, tag, bytes)`,
/// every rank sends to `(r + d) % n` and receives from `(r - d) % n` with
/// the same tag, so every request matches by construction whatever the
/// interleaving; an optional all-reduce rides along. Sizes straddle the
/// eager threshold so both completion paths are exercised. The thread
/// back-end's network and the DES network must agree on every comm
/// counter, globally and per rank.
struct CommRandom {
    space: HandleSpace,
    n_ranks: u32,
    iters: u64,
    rounds: Vec<(u32, u32, u64)>,
    allreduce: bool,
    send: Vec<Vec<ptdg::core::handle::DataHandle>>,
    recv: Vec<Vec<ptdg::core::handle::DataHandle>>,
    red: Vec<ptdg::core::handle::DataHandle>,
    work: Vec<ptdg::core::handle::DataHandle>,
}

impl CommRandom {
    fn new(n_ranks: u32, iters: u64, mut rounds: Vec<(u32, u32, u64)>, allreduce: bool) -> Self {
        for (d, _, _) in &mut rounds {
            *d = 1 + (*d - 1) % (n_ranks - 1); // a valid nonzero ring offset
        }
        let mut space = HandleSpace::new();
        let per_rank_round = |space: &mut HandleSpace, name| {
            (0..n_ranks)
                .map(|_| (0..rounds.len()).map(|_| space.region(name, 64)).collect())
                .collect()
        };
        CommRandom {
            send: per_rank_round(&mut space, "send"),
            recv: per_rank_round(&mut space, "recv"),
            red: (0..n_ranks).map(|_| space.region("red", 64)).collect(),
            work: (0..n_ranks).map(|_| space.region("work", 64)).collect(),
            space,
            n_ranks,
            iters,
            rounds,
            allreduce,
        }
    }
}

impl RankProgram for CommRandom {
    fn n_ranks(&self) -> Rank {
        self.n_ranks
    }
    fn n_iterations(&self) -> u64 {
        self.iters
    }
    fn build_iteration(
        &self,
        rank: Rank,
        _iter: u64,
        sub: &mut dyn ptdg::core::builder::TaskSubmitter,
    ) {
        use ptdg::core::workdesc::CommOp;
        let (r, n) = (rank as usize, self.n_ranks);
        sub.submit(TaskSpec::new("work").depend(self.work[r], AccessMode::InOut));
        for (k, &(d, tag, bytes)) in self.rounds.iter().enumerate() {
            sub.submit(
                TaskSpec::new("send")
                    .depend(self.send[r][k], AccessMode::InOut)
                    .comm(CommOp::Isend {
                        peer: (rank + d) % n,
                        bytes,
                        tag,
                    }),
            );
            sub.submit(
                TaskSpec::new("recv")
                    .depend(self.recv[r][k], AccessMode::InOut)
                    .comm(CommOp::Irecv {
                        peer: (rank + n - d) % n,
                        bytes,
                        tag,
                    }),
            );
            sub.submit(
                TaskSpec::new("consume")
                    .depend(self.recv[r][k], AccessMode::In)
                    .depend(self.work[r], AccessMode::InOut),
            );
        }
        if self.allreduce {
            sub.submit(
                TaskSpec::new("reduce")
                    .depend(self.red[r], AccessMode::InOut)
                    .comm(CommOp::Iallreduce { bytes: 8 }),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn comm_heavy_random_programs_agree_across_backends(
        n_ranks in 2..=4u32,
        iters in 1..=2u64,
        rounds in prop::collection::vec(
            (1..=3u32, 0..=3u32, prop_oneof![Just(64u64), Just(40_000u64)]),
            1..=4,
        ),
        all_opts in 0..2u8,
    ) {
        let opts = if all_opts == 1 { OptConfig::all() } else { OptConfig::none() };
        let n_rounds = rounds.len() as u64;
        let prog = CommRandom::new(n_ranks, iters, rounds, true);
        let t = run(
            &prog.space,
            &prog,
            Backend::Threads(ThreadsConfig {
                exec: ExecConfig { n_workers: 2, ..Default::default() },
                opts,
                ..Default::default()
            }),
        );
        let s = run(&prog.space, &prog, sim_backend(opts, false, n_ranks));
        assert!(t.comm_error().is_none(), "threads: {:?}", t.comm_error());
        assert!(s.comm_error().is_none(), "sim: {:?}", s.comm_error());
        let (tc, sc) = (t.counters(), s.counters());
        // 2 p2p requests per round plus the all-reduce, per rank per iter.
        let expect = (2 * n_rounds + 1) * n_ranks as u64 * iters;
        assert_eq!(tc.comms_posted, expect);
        assert_eq!(tc.comms_posted, sc.comms_posted, "posted");
        assert_eq!(tc.comms_completed, sc.comms_completed, "completed");
        assert_eq!(tc.comms_posted, tc.comms_completed, "threads drained");
        let (tr, sr) = (t.per_rank_counters(), s.per_rank_counters());
        assert_eq!(tr.len(), n_ranks as usize);
        assert_eq!(sr.len(), n_ranks as usize);
        for (r, (a, b)) in tr.iter().zip(&sr).enumerate() {
            assert_eq!(a.tasks_created, b.tasks_created, "rank {r} created");
            assert_eq!(a.tasks_completed, b.tasks_completed, "rank {r} completed");
            assert_eq!(a.comms_posted, b.comms_posted, "rank {r} posted");
            assert_eq!(a.comms_completed, b.comms_completed, "rank {r} comm-completed");
            assert_eq!(a.comms_posted, a.comms_completed, "rank {r} drained");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_programs_discover_identical_graphs(
        tasks in prop::collection::vec(
            prop::collection::vec((0..N_HANDLES, 0..4u8), 1..=3),
            1..=24,
        ),
        iters in 1..=2u64,
        all_opts in 0..2u8,
    ) {
        let opts = if all_opts == 1 { OptConfig::all() } else { OptConfig::none() };
        let prog = RandomProgram::new(tasks, iters);
        assert_same_graphs(&prog.space, &prog, opts, false);
    }

    #[test]
    fn random_persistent_programs_discover_identical_graphs(
        tasks in prop::collection::vec(
            prop::collection::vec((0..N_HANDLES, 0..4u8), 1..=3),
            1..=16,
        ),
    ) {
        let prog = RandomProgram::new(tasks, 2);
        assert_same_graphs(&prog.space, &prog, OptConfig::all(), true);
    }

    #[test]
    fn specbuf_and_taskspec_paths_discover_identical_graphs(
        tasks in prop::collection::vec(
            prop::collection::vec((0..N_HANDLES, 0..4u8), 1..=3),
            1..=24,
        ),
        iters in 1..=2u64,
        all_opts in 0..2u8,
    ) {
        let opts = if all_opts == 1 { OptConfig::all() } else { OptConfig::none() };
        assert_submission_paths_equivalent(tasks, iters, opts, false);
    }

    #[test]
    fn specbuf_and_taskspec_persistent_paths_discover_identical_graphs(
        tasks in prop::collection::vec(
            prop::collection::vec((0..N_HANDLES, 0..4u8), 1..=3),
            1..=16,
        ),
    ) {
        assert_submission_paths_equivalent(tasks, 2, OptConfig::all(), true);
    }
}

// ---- malformed comm programs ---------------------------------------------

/// A lopsided comm program: each rank runs one local task, then posts its
/// scripted requests one after another (each request's task depends on
/// the previous one, so a request posts only once the one before it has
/// completed). Scripts can leave requests unmatched on purpose; both
/// back-ends must then name the same leftovers in the same structured
/// error.
struct Scripted {
    space: HandleSpace,
    scripts: Vec<Vec<ptdg::core::workdesc::CommOp>>,
    chain: Vec<ptdg::core::handle::DataHandle>,
    work: Vec<ptdg::core::handle::DataHandle>,
}

impl Scripted {
    fn new(scripts: Vec<Vec<ptdg::core::workdesc::CommOp>>) -> Scripted {
        let mut space = HandleSpace::new();
        let n = scripts.len();
        Scripted {
            chain: (0..n).map(|_| space.region("chain", 64)).collect(),
            work: (0..n).map(|_| space.region("work", 64)).collect(),
            space,
            scripts,
        }
    }
}

impl RankProgram for Scripted {
    fn n_ranks(&self) -> Rank {
        self.scripts.len() as Rank
    }
    fn n_iterations(&self) -> u64 {
        1
    }
    fn build_iteration(
        &self,
        rank: Rank,
        _iter: u64,
        sub: &mut dyn ptdg::core::builder::TaskSubmitter,
    ) {
        let r = rank as usize;
        sub.submit(TaskSpec::new("work").depend(self.work[r], AccessMode::InOut));
        for &op in &self.scripts[r] {
            sub.submit(
                TaskSpec::new("comm")
                    .depend(self.chain[r], AccessMode::InOut)
                    .comm(op),
            );
        }
    }
}

/// Run `scripts` on both back-ends; assert one shared `CommError` (which
/// must exist) and, for p2p-only scripts, that both back-ends count
/// `census` as the per-rank `unexpected_msgs`. Returns the error for
/// case-specific checks.
fn assert_same_comm_error(
    scripts: Vec<Vec<ptdg::core::workdesc::CommOp>>,
    census: Option<&[u64]>,
) -> ptdg::core::comm::CommError {
    let prog = Scripted::new(scripts);
    let n_ranks = prog.n_ranks();
    let t = run(
        &prog.space,
        &prog,
        Backend::Threads(ThreadsConfig {
            exec: ExecConfig {
                n_workers: 2,
                ..Default::default()
            },
            ..Default::default()
        }),
    );
    let s = run(
        &prog.space,
        &prog,
        sim_backend(OptConfig::all(), false, n_ranks),
    );
    let te = t
        .comm_error()
        .expect("threads reports the malformed program");
    let se = s.comm_error().expect("sim reports the malformed program");
    assert_eq!(te, se, "both back-ends name the same leftovers");
    if let Some(census) = census {
        for (label, o) in [("threads", &t), ("sim", &s)] {
            let got: Vec<u64> = o
                .per_rank_counters()
                .iter()
                .map(|c| c.unexpected_msgs)
                .collect();
            assert_eq!(got, census, "{label}: per-rank unexpected_msgs");
        }
    }
    te.clone()
}

fn isend(peer: u32, bytes: u64, tag: u32) -> ptdg::core::workdesc::CommOp {
    ptdg::core::workdesc::CommOp::Isend { peer, bytes, tag }
}

fn irecv(peer: u32, tag: u32) -> ptdg::core::workdesc::CommOp {
    ptdg::core::workdesc::CommOp::Irecv {
        peer,
        bytes: 64,
        tag,
    }
}

fn triples(e: &ptdg::core::comm::CommError) -> Vec<(u32, u32, u32, &'static str)> {
    e.unmatched
        .iter()
        .map(|u| (u.rank, u.peer, u.tag, u.op))
        .collect()
}

#[test]
fn orphan_irecv_is_the_same_error_on_both_backends() {
    let e = assert_same_comm_error(vec![vec![irecv(1, 9)], vec![]], Some(&[0, 0]));
    assert_eq!(triples(&e), vec![(0, 1, 9, "Irecv")]);
}

#[test]
fn orphan_eager_isend_is_the_same_error_and_census_on_both_backends() {
    let e = assert_same_comm_error(vec![vec![isend(1, 64, 4)], vec![]], Some(&[0, 1]));
    assert_eq!(triples(&e), vec![(0, 1, 4, "Isend")]);
}

#[test]
fn orphan_rendezvous_isend_is_the_same_error_and_census_on_both_backends() {
    let e = assert_same_comm_error(vec![vec![isend(1, 40_000, 4)], vec![]], Some(&[0, 1]));
    assert_eq!(triples(&e), vec![(0, 1, 4, "Isend")]);
}

#[test]
fn orphan_self_send_is_the_same_error_and_census_on_both_backends() {
    let e = assert_same_comm_error(vec![vec![isend(0, 64, 3)], vec![]], Some(&[1, 0]));
    assert_eq!(triples(&e), vec![(0, 0, 3, "Isend")]);
}

#[test]
fn out_of_range_peer_is_the_same_error_on_both_backends() {
    let e = assert_same_comm_error(vec![vec![isend(7, 64, 1)], vec![]], Some(&[0, 0]));
    assert_eq!(triples(&e), vec![(0, 7, 1, "Isend")]);
    let e = assert_same_comm_error(vec![vec![], vec![irecv(7, 2)]], Some(&[0, 0]));
    assert_eq!(triples(&e), vec![(1, 7, 2, "Irecv")]);
}

#[test]
fn surplus_send_on_one_key_is_the_same_error_and_census_on_both_backends() {
    // On one rank, so program order alone puts both (eager) sends before
    // the receive on both back-ends: both park unexpected, the receive
    // takes the older one and the other is left. Across ranks, which
    // sends arrive before the receive posts would be a race on threads.
    let e = assert_same_comm_error(
        vec![vec![isend(0, 64, 2), isend(0, 64, 2), irecv(0, 2)]],
        Some(&[2]),
    );
    assert_eq!(triples(&e), vec![(0, 0, 2, "Isend")]);
}

#[test]
fn allreduce_one_rank_never_joins_is_the_same_error_on_both_backends() {
    let allreduce = ptdg::core::workdesc::CommOp::Iallreduce { bytes: 8 };
    let e = assert_same_comm_error(
        vec![vec![allreduce], vec![allreduce], vec![allreduce], vec![]],
        None,
    );
    // The tag of a collective entry is its index in the rank's posting
    // order: every rank stuck in its first `Iallreduce` reports 0.
    assert_eq!(
        triples(&e),
        (0..3)
            .map(|r| (r, ptdg::core::comm::NO_PEER, 0, "Iallreduce"))
            .collect::<Vec<_>>()
    );
}
