//! Property-based tests of the application kernels and their task
//! programs: geometric invariants, operator properties, and graph
//! self-consistency under randomized parameters.

use proptest::prelude::*;
use ptdg::cholesky::TileMatrix;
use ptdg::core::builder::{CountingSubmitter, RecordingSubmitter};
use ptdg::core::graph::{DiscoveryEngine, DiscoveryStats, GraphSink};
use ptdg::core::opts::OptConfig;
use ptdg::core::task::{SpecView, TaskId};
use ptdg::core::workdesc::CommOp;
use ptdg::hpcg::{HpcgConfig, HpcgState, HpcgTask};
use ptdg::lulesh::mesh::{overlapping_slices, slices, RankGrid};
use ptdg::lulesh::{LuleshConfig, LuleshTask};
use ptdg::simrt::RankProgram;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Slicing covers the index space exactly, in order, balanced.
    #[test]
    fn slices_partition_exactly(n in 1usize..10_000, k in 1usize..512) {
        let r = slices(n, k);
        prop_assert_eq!(r[0].0, 0);
        prop_assert_eq!(r.last().unwrap().1, n);
        for w in r.windows(2) {
            prop_assert_eq!(w[0].1, w[1].0);
        }
        let (mut lo, mut hi) = (usize::MAX, 0usize);
        for &(a, b) in &r {
            prop_assert!(b > a);
            lo = lo.min(b - a);
            hi = hi.max(b - a);
        }
        prop_assert!(hi - lo <= 1, "balanced to within one item");
    }

    /// `overlapping_slices` returns exactly the slices intersecting the
    /// query range.
    #[test]
    fn overlap_query_is_exact(n in 10usize..5_000, k in 1usize..64, q in 0usize..4_999) {
        let r = slices(n, k);
        let lo = q % n;
        let hi = (lo + 1 + q % 37).min(n).max(lo + 1);
        let (first, last) = overlapping_slices(&r, lo, hi);
        for (i, &(a, b)) in r.iter().enumerate() {
            let intersects = a < hi && b > lo;
            if intersects {
                prop_assert!((first..=last).contains(&i), "slice {i} [{a},{b}) missing");
            }
        }
        // the returned endpoints really do intersect
        prop_assert!(r[first].1 > lo || first == last);
        prop_assert!(r[last].0 < hi);
    }

    /// Rank-grid neighbor relations are symmetric with opposite
    /// directions and consistent message classes, for any cube size.
    #[test]
    fn rank_grid_symmetry(px in 1usize..5) {
        let g = RankGrid::cube(px * px * px);
        for r in 0..g.n_ranks() as u32 {
            for nb in g.neighbors(r) {
                let back = g
                    .neighbors(nb.rank)
                    .into_iter()
                    .find(|x| x.rank == r)
                    .expect("symmetric");
                prop_assert_eq!(back.dir, RankGrid::opposite(nb.dir));
                prop_assert_eq!(back.axes, nb.axes);
            }
        }
    }

    /// LULESH task streams: every rank's sends match the peers' recvs in
    /// tag and size, for random cube sizes and TPL.
    #[test]
    fn lulesh_comm_matches_for_any_grid(px in 2usize..4, s in 4usize..10, tpl in 1usize..32) {
        let cfg = LuleshConfig {
            grid: RankGrid::cube(px * px * px),
            ..LuleshConfig::single(s, 1, tpl)
        };
        let prog = LuleshTask::new(cfg.clone());
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for r in 0..cfg.n_ranks() {
            let mut c = RecordingSubmitter::default();
            prog.build_iteration(r, 0, &mut c);
            for spec in &c.specs {
                match spec.comm {
                    Some(CommOp::Isend { peer, bytes, tag }) => sends.push((r, peer, tag, bytes)),
                    Some(CommOp::Irecv { peer, bytes, tag }) => recvs.push((peer, r, tag, bytes)),
                    _ => {}
                }
            }
        }
        sends.sort_unstable();
        recvs.sort_unstable();
        prop_assert_eq!(sends, recvs);
    }

    /// The LULESH task count formula holds for arbitrary (s, TPL).
    #[test]
    fn lulesh_task_count_formula(s in 3usize..12, tpl in 1usize..64) {
        let cfg = LuleshConfig::single(s, 1, tpl);
        let prog = LuleshTask::new(cfg.clone());
        let mut c = CountingSubmitter::default();
        prog.build_iteration(0, 0, &mut c);
        prop_assert_eq!(c.tasks as usize, cfg.compute_tasks_per_iteration());
    }

    /// The HPCG operator is symmetric positive definite: x'Ax > 0 for
    /// random non-zero x (using the SpMV kernel directly).
    #[test]
    fn hpcg_operator_is_spd(nx in 3usize..7, seed in 1u64..1000) {
        let cfg = HpcgConfig::single(nx, 1, 2);
        let st = HpcgState::new(&cfg);
        let n = cfg.n_rows();
        // pseudo-random x
        let mut x = seed;
        let mut norm = 0.0;
        for i in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = ((x >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
            st.p.set(i, v);
            norm += v * v;
        }
        prop_assume!(norm > 1e-9);
        st.k_spmv(0..n);
        let xtax: f64 = (0..n).map(|i| st.p.get(i) * st.ap.get(i)).sum();
        prop_assert!(xtax > 0.0, "x'Ax = {xtax} must be positive");
    }

    /// HPCG task streams also pair up for any 2x2x2.. process grid.
    #[test]
    fn hpcg_comm_matches(px in 2usize..4, nx in 4usize..8) {
        let cfg = HpcgConfig {
            px,
            ..HpcgConfig::single(nx, 1, 4)
        };
        let prog = HpcgTask::new(cfg.clone());
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for r in 0..cfg.n_ranks() {
            let mut c = RecordingSubmitter::default();
            prog.build_iteration(r, 0, &mut c);
            for spec in &c.specs {
                match spec.comm {
                    Some(CommOp::Isend { peer, bytes, tag }) => sends.push((r, peer, tag, bytes)),
                    Some(CommOp::Irecv { peer, bytes, tag }) => recvs.push((peer, r, tag, bytes)),
                    _ => {}
                }
            }
        }
        sends.sort_unstable();
        recvs.sort_unstable();
        prop_assert_eq!(sends, recvs);
    }

    /// Cholesky factorization is correct for any seed and small shape.
    #[test]
    fn cholesky_factors_random_spd(nt in 2usize..5, b in 2usize..6, seed in 0u64..500) {
        let m = TileMatrix::new_spd(nt, b, seed);
        m.factor_sequential();
        prop_assert!(m.factorization_error() < 1e-8);
    }
}

/// A discovery-only sink that counts `add_edge` calls and answers every
/// one the same way: `prune` stands for "every predecessor has already
/// finished", the discovery-bound regime where almost every edge is
/// pruned (paper §3.3).
struct UniformSink {
    nodes: u32,
    prune: bool,
    add_edge_calls: u64,
}

impl GraphSink for UniformSink {
    fn add_task(&mut self, _view: &SpecView<'_>) -> TaskId {
        self.add_redirect()
    }
    fn add_redirect(&mut self) -> TaskId {
        self.nodes += 1;
        TaskId(self.nodes - 1)
    }
    fn add_edge(&mut self, _pred: TaskId, _succ: TaskId) -> bool {
        self.add_edge_calls += 1;
        !self.prune
    }
    fn seal(&mut self, _task: TaskId) {}
}

/// Streams `iters` LULESH iterations through one engine into a
/// [`UniformSink`]; per iteration: (its `add_edge` calls, the engine's
/// cumulative stats).
fn lulesh_stream_counts(prune: bool, iters: u64) -> Vec<(u64, DiscoveryStats)> {
    let prog = LuleshTask::new(LuleshConfig::single(8, iters, 64));
    let mut engine = DiscoveryEngine::new(OptConfig::all());
    let mut sink = UniformSink {
        nodes: 0,
        prune,
        add_edge_calls: 0,
    };
    let mut out = Vec::new();
    for iter in 0..iters {
        let calls0 = sink.add_edge_calls;
        let mut rec = RecordingSubmitter::default();
        prog.build_iteration(0, iter, &mut rec);
        for spec in &rec.specs {
            engine.submit(&mut sink, spec);
        }
        out.push((sink.add_edge_calls - calls0, engine.stats()));
    }
    out
}

/// The completed-base memo on LULESH (s=8, TPL=64), with every edge
/// pruned: the `CalcMonotonicQGradientsForElems` `inoutset` group's TPL
/// members each depended on the TPL finished Q-region readers of the
/// previous iteration, and each member used to ask the sink about every
/// one of them (TPL² calls per iteration). Now only the opener and the
/// first joiner ask; the counters read exactly as before.
#[test]
fn pruned_group_joins_skip_the_sink_with_unchanged_counters() {
    const TPL: u64 = 64;
    let pruned = lulesh_stream_counts(true, 3);
    let kept = lulesh_stream_counts(false, 3);
    let mut kept_calls_so_far = 0;
    for ((_, p), (kept_calls, k)) in pruned.iter().zip(&kept) {
        // The pruned stream's counters are the structural ones with
        // created and pruned swapped: the memo changes no counter.
        assert_eq!(
            *p,
            DiscoveryStats {
                edges_created: 0,
                edges_pruned: k.edges_created,
                ..*k
            }
        );
        assert_eq!(k.edges_pruned, 0);
        // Without the memo every non-duplicate edge is one sink call.
        kept_calls_so_far += kept_calls;
        assert_eq!(kept_calls_so_far, k.edges_created);
    }
    // The counters after 3 iterations, pinned.
    assert_eq!(
        kept[2].1,
        DiscoveryStats {
            tasks: 3 * 833,
            redirect_nodes: 65 + 2 * 66,
            depend_items: 3 * 6784,
            edges_created: 6460 + 2 * 16253,
            edges_pruned: 0,
            dup_probes: 6524 + 2 * 16317,
            dup_skipped: 3 * 64,
        }
    );
    let excess_before = kept[2].0 - kept[0].0;
    let excess_now = pruned[2].0 - pruned[0].0;
    assert!(
        excess_before.saturating_sub(excess_now) >= (TPL - 2) * TPL,
        "iteration 3 still pays the group's n·m term: \
         {excess_now} extra sink calls over iteration 1 (was {excess_before})"
    );
    assert_eq!((pruned[0].0, pruned[2].0), (6336, 12161));
}
