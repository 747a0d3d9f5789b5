//! The dependent-task tile Cholesky.

use crate::config::CholeskyConfig;
use crate::tiles::TileMatrix;
use ptdg_core::access::AccessMode;
use ptdg_core::builder::{SpecBuf, TaskSubmitter};
use ptdg_core::handle::{DataHandle, HandleSpace};
use ptdg_core::workdesc::{CommOp, HandleSlice};
use ptdg_simrt::{Rank, RankProgram};

/// The task-based factorization program (one dependency handle per tile).
pub struct CholeskyTask {
    /// Run configuration.
    pub cfg: CholeskyConfig,
    /// Per-tile handles, indexed like [`TileMatrix::t`].
    pub tile_handles: Vec<DataHandle>,
    /// The handle space for the simulator.
    pub space: HandleSpace,
    /// Real tiles (single-rank thread execution).
    pub matrix: Option<TileMatrix>,
}

impl CholeskyTask {
    /// Cost-model-only program.
    pub fn new(cfg: CholeskyConfig) -> CholeskyTask {
        let mut space = HandleSpace::new();
        let bytes = (cfg.b * cfg.b * 8) as u64;
        let tile_handles = (0..cfg.n_tiles())
            .map(|_| space.region("tile", bytes))
            .collect();
        CholeskyTask {
            cfg,
            tile_handles,
            space,
            matrix: None,
        }
    }

    /// Program with a real seeded SPD matrix (single rank).
    pub fn with_matrix(cfg: CholeskyConfig, seed: u64) -> CholeskyTask {
        assert_eq!(cfg.n_ranks, 1, "real execution is single-rank");
        let matrix = TileMatrix::new_spd(cfg.nt, cfg.b, seed);
        let mut t = CholeskyTask::new(cfg);
        t.matrix = Some(matrix);
        t
    }

    fn h(&self, i: usize, j: usize) -> DataHandle {
        self.tile_handles[i * (i + 1) / 2 + j]
    }

    fn tile_fp(&self, i: usize, j: usize) -> HandleSlice {
        let h = self.h(i, j);
        HandleSlice::whole(h, self.space.info(h).bytes)
    }

    /// Whether `rank` owns any panel in `(k, nt)` — i.e. participates in
    /// trailing updates of step `k`.
    fn has_trailing_panel(&self, rank: Rank, k: usize) -> bool {
        ((k + 1)..self.cfg.nt).any(|j| self.cfg.owner(j) == rank)
    }
}

impl RankProgram for CholeskyTask {
    fn n_iterations(&self) -> u64 {
        self.cfg.iterations
    }

    fn n_ranks(&self) -> Rank {
        self.cfg.n_ranks
    }

    fn build_iteration(&self, rank: Rank, _iter: u64, sub: &mut dyn TaskSubmitter) {
        use AccessMode::*;
        let cfg = &self.cfg;
        let nt = cfg.nt;
        let b = cfg.b as f64;
        let tile_bytes = (cfg.b * cfg.b * 8) as u64;
        let want = sub.wants_bodies() && self.matrix.is_some();
        let multi = cfg.n_ranks > 1;
        // One recycled construction buffer for the whole factorization;
        // it drops footprints for a sink that reads no cost model.
        let mut buf = SpecBuf::for_sink(sub);

        // Re-initialize every local tile (WAR edges order these after the
        // previous factorization's consumers).
        for i in 0..nt {
            for j in 0..=i {
                buf.begin("ResetTile")
                    .dep(self.h(i, j), Out)
                    .flops(b * b)
                    .touch(self.tile_fp(i, j));
                if want {
                    let m = self.matrix.clone().unwrap();
                    let idx = i * (i + 1) / 2 + j;
                    buf.body(move |_| m.k_reset(idx));
                }
                buf.submit(sub);
            }
        }

        for k in 0..nt {
            let panel_owner = cfg.owner(k);
            if panel_owner == rank {
                // potrf
                buf.begin("potrf")
                    .dep(self.h(k, k), InOut)
                    .flops(b * b * b / 3.0)
                    .touch(self.tile_fp(k, k));
                if want {
                    let m = self.matrix.clone().unwrap();
                    buf.body(move |_| m.k_potrf(k));
                }
                buf.submit(sub);
                // trsm per sub-diagonal tile of the panel
                for i in (k + 1)..nt {
                    buf.begin("trsm")
                        .dep(self.h(k, k), In)
                        .dep(self.h(i, k), InOut)
                        .flops(b * b * b)
                        .touch(self.tile_fp(k, k))
                        .touch(self.tile_fp(i, k));
                    if want {
                        let m = self.matrix.clone().unwrap();
                        buf.body(move |_| m.k_trsm(i, k));
                    }
                    buf.submit(sub);
                }
                // broadcast the panel to ranks holding trailing panels
                if multi {
                    for i in (k + 1)..nt {
                        for peer in 0..cfg.n_ranks {
                            if peer == rank || !self.has_trailing_panel(peer, k) {
                                continue;
                            }
                            buf.begin("MPI_Isend")
                                .dep(self.h(i, k), In)
                                .comm(CommOp::Isend {
                                    peer,
                                    bytes: tile_bytes,
                                    tag: (k * nt + i) as u32,
                                })
                                .submit(sub);
                        }
                    }
                }
            } else if multi && self.has_trailing_panel(rank, k) {
                // receive the panel tiles into the local ghosts
                for i in (k + 1)..nt {
                    buf.begin("MPI_Irecv")
                        .dep(self.h(i, k), Out)
                        .comm(CommOp::Irecv {
                            peer: panel_owner,
                            bytes: tile_bytes,
                            tag: (k * nt + i) as u32,
                        })
                        .submit(sub);
                }
            }

            // trailing updates: rank owning panel j updates its column
            for j in (k + 1)..nt {
                if cfg.owner(j) != rank {
                    continue;
                }
                for i in j..nt {
                    // syrk takes A(i,k) once; gemm takes both panel tiles.
                    let name = if i == j { "syrk" } else { "gemm" };
                    buf.begin(name).dep(self.h(i, k), In);
                    if i != j {
                        buf.dep(self.h(j, k), In);
                    }
                    buf.dep(self.h(i, j), InOut)
                        .flops(if i == j { b * b * b } else { 2.0 * b * b * b })
                        .touch(self.tile_fp(i, k))
                        .touch(self.tile_fp(i, j));
                    if i != j {
                        buf.touch(self.tile_fp(j, k));
                    }
                    if want {
                        let m = self.matrix.clone().unwrap();
                        buf.body(move |_| m.k_update(i, j, k));
                    }
                    buf.submit(sub);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptdg_core::builder::{CountingSubmitter, RecordingSubmitter};

    #[test]
    fn each_body_holds_one_matrix_reference() {
        let cfg = CholeskyConfig::single(4, 4, 1);
        let prog = CholeskyTask::with_matrix(cfg.clone(), 5);
        let m = prog.matrix.as_ref().unwrap();
        let before = std::sync::Arc::strong_count(&m.0);
        let mut rec = RecordingSubmitter::default();
        prog.build_iteration(0, 0, &mut rec);
        let bodies = rec.specs.iter().filter(|s| s.body.is_some()).count();
        assert_eq!(bodies, cfg.n_tiles() + cfg.kernel_tasks());
        assert_eq!(std::sync::Arc::strong_count(&m.0) - before, bodies);
    }

    #[test]
    fn single_rank_task_count() {
        let cfg = CholeskyConfig::single(5, 4, 1);
        let prog = CholeskyTask::new(cfg.clone());
        let mut c = CountingSubmitter::default();
        prog.build_iteration(0, 0, &mut c);
        assert_eq!(c.tasks as usize, cfg.n_tiles() + cfg.kernel_tasks());
    }

    #[test]
    fn distributed_sends_match_recvs() {
        let cfg = CholeskyConfig {
            n_ranks: 3,
            ..CholeskyConfig::single(6, 4, 1)
        };
        let prog = CholeskyTask::new(cfg.clone());
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        let mut kernels = 0usize;
        for r in 0..3u32 {
            let mut c = RecordingSubmitter::default();
            prog.build_iteration(r, 0, &mut c);
            for s in &c.specs {
                match s.comm {
                    Some(CommOp::Isend { peer, bytes, tag }) => sends.push((r, peer, tag, bytes)),
                    Some(CommOp::Irecv { peer, bytes, tag }) => recvs.push((peer, r, tag, bytes)),
                    None => {
                        if matches!(s.name, "potrf" | "trsm" | "syrk" | "gemm") {
                            kernels += 1;
                        }
                    }
                    _ => {}
                }
            }
        }
        sends.sort_unstable();
        recvs.sort_unstable();
        assert_eq!(sends, recvs, "panel broadcast must pair up");
        assert_eq!(
            kernels,
            cfg.kernel_tasks(),
            "work is partitioned, not duplicated"
        );
    }

    #[test]
    fn dense_regular_scheme_has_no_inoutset_or_duplicates() {
        // The reason (a)/(b)/(c) are neutral on Cholesky (paper §4.4).
        let cfg = CholeskyConfig::single(4, 4, 1);
        let prog = CholeskyTask::new(cfg);
        let mut c = RecordingSubmitter::default();
        prog.build_iteration(0, 0, &mut c);
        for s in &c.specs {
            assert!(s.depends.iter().all(|d| d.mode != AccessMode::InOutSet));
            // no task names the same handle twice
            let mut hs: Vec<_> = s.depends.iter().map(|d| d.handle).collect();
            hs.sort_unstable();
            hs.dedup();
            assert_eq!(hs.len(), s.depends.len());
        }
    }
}
