//! The dependent-task CG iteration.

use crate::config::*;
use crate::handles::HpcgHandles;
use crate::state::HpcgState;
use ptdg_core::access::AccessMode;
use ptdg_core::builder::{SpecBuf, TaskSubmitter};
use ptdg_core::handle::HandleSpace;
use ptdg_core::workdesc::{CommOp, HandleSlice};
use ptdg_simrt::{Rank, RankProgram};

/// The task-based HPCG program.
pub struct HpcgTask {
    /// Run configuration.
    pub cfg: HpcgConfig,
    /// Block handles.
    pub handles: HpcgHandles,
    /// Handle space for the simulator.
    pub space: HandleSpace,
    /// Real vectors (single-rank thread execution) or `None` (simulation).
    pub state: Option<HpcgState>,
}

impl HpcgTask {
    /// Cost-model-only program.
    pub fn new(cfg: HpcgConfig) -> HpcgTask {
        let mut space = HandleSpace::new();
        let handles = HpcgHandles::build(&mut space, &cfg);
        HpcgTask {
            cfg,
            handles,
            space,
            state: None,
        }
    }

    /// Program with real vectors (requires a single rank).
    pub fn with_state(cfg: HpcgConfig) -> HpcgTask {
        assert_eq!(cfg.n_ranks(), 1, "real execution is single-rank");
        let state = HpcgState::new(&cfg);
        let mut t = HpcgTask::new(cfg);
        t.state = Some(state);
        t
    }

    /// Six face-neighbor ranks of `rank` in the cubic grid (dir: 0..6 for
    /// -x,+x,-y,+y,-z,+z).
    fn face_neighbors(&self, rank: Rank) -> Vec<(usize, Rank)> {
        let p = self.cfg.px;
        let r = rank as usize;
        let (x, y, z) = (r % p, (r / p) % p, r / (p * p));
        let mut v = Vec::new();
        let idx = |x: usize, y: usize, z: usize| ((z * p + y) * p + x) as Rank;
        if x > 0 {
            v.push((0, idx(x - 1, y, z)));
        }
        if x + 1 < p {
            v.push((1, idx(x + 1, y, z)));
        }
        if y > 0 {
            v.push((2, idx(x, y - 1, z)));
        }
        if y + 1 < p {
            v.push((3, idx(x, y + 1, z)));
        }
        if z > 0 {
            v.push((4, idx(x, y, z - 1)));
        }
        if z + 1 < p {
            v.push((5, idx(x, y, z + 1)));
        }
        v
    }
}

impl RankProgram for HpcgTask {
    fn n_iterations(&self) -> u64 {
        self.cfg.iterations
    }

    fn n_ranks(&self) -> Rank {
        self.cfg.n_ranks()
    }

    fn build_iteration(&self, rank: Rank, _iter: u64, sub: &mut dyn TaskSubmitter) {
        use AccessMode::*;
        let h = &self.handles;
        let cfg = &self.cfg;
        let space = &self.space;
        let nx = cfg.nx;
        let want = sub.wants_bodies() && self.state.is_some();
        let multi = cfg.n_ranks() > 1;
        let whole = |hd| HandleSlice::whole(hd, space.info(hd).bytes);
        // One recycled construction buffer for the whole iteration: after
        // the widest task warms it up, submissions build no Vecs. It
        // drops footprints for a sink that reads no cost model.
        let mut buf = SpecBuf::for_sink(sub);

        // Halo exchange of p with the 6 face neighbors, before the SpMV.
        if multi {
            for (dir, peer) in self.face_neighbors(rank) {
                let bytes = space.info(h.sbuf[dir]).bytes;
                // frontier blocks: the first/last plane of rows for z
                // faces, everything for x/y faces (blocked by flat row
                // index, like the LULESH slabs).
                let n = cfg.n_rows();
                let plane = nx * nx;
                let (fa, fb) = match dir {
                    4 => (0, plane),
                    5 => (n - plane, n),
                    _ => (0, n),
                };
                let (s0, s1) = h.blocks_overlapping(fa, fb.max(fa + 1));
                buf.begin("MPI_Irecv")
                    .dep(h.rbuf[dir], Out)
                    .comm(CommOp::Irecv {
                        peer,
                        bytes,
                        tag: (dir ^ 1) as u32,
                    })
                    .submit(sub);
                buf.begin("PackHalo");
                for i in s0..=s1 {
                    buf.dep(h.p[i], In);
                }
                buf.dep(h.sbuf[dir], Out)
                    .flops(bytes as f64 / 8.0)
                    .touch(whole(h.sbuf[dir]))
                    .submit(sub);
                buf.begin("MPI_Isend")
                    .dep(h.sbuf[dir], In)
                    .comm(CommOp::Isend {
                        peer,
                        bytes,
                        tag: dir as u32,
                    })
                    .submit(sub);
                buf.begin("UnpackHalo").dep(h.rbuf[dir], In);
                for i in s0..=s1 {
                    buf.dep(h.p[i], InOut);
                }
                buf.flops(bytes as f64 / 8.0)
                    .touch(whole(h.rbuf[dir]))
                    .submit(sub);
            }
        }

        // SpMV: row block i reads the neighbouring p blocks.
        for (i, &(a, b)) in h.blocks.iter().enumerate() {
            let (p0, p1) = h.spmv_reads(a, b, nx);
            buf.begin("SpMV");
            for j in p0..=p1 {
                buf.dep(h.p[j], In).touch(whole(h.p[j]));
            }
            buf.dep(h.ap[i], Out)
                .touch(whole(h.ap[i]))
                .touch(HandleSlice {
                    handle: h.matrix,
                    offset: a as u64 * 324,
                    len: (b - a) as u64 * 324,
                })
                .flops((b - a) as f64 * F_SPMV);
            if want {
                let st = self.state.clone().unwrap();
                buf.body(move |_| st.k_spmv(a..b));
            }
            buf.submit(sub);
        }

        // Partial p·Ap into the scratch vector (concurrent writes).
        for (i, &(a, b)) in h.blocks.iter().enumerate() {
            buf.begin("DotPAp")
                .dep(h.p[i], In)
                .dep(h.ap[i], In)
                .dep(h.pap_scratch, InOutSet)
                .flops((b - a) as f64 * F_DOT)
                .touch(whole(h.p[i]))
                .touch(whole(h.ap[i]))
                .touch(HandleSlice {
                    handle: h.pap_scratch,
                    offset: i as u64 * 8,
                    len: 8,
                });
            if want {
                let st = self.state.clone().unwrap();
                buf.body(move |_| st.k_dot_pap(a..b, i));
            }
            buf.submit(sub);
        }

        // Reduce + alpha (carries the collective).
        {
            buf.begin("ReduceAlpha")
                .dep(h.pap_scratch, In)
                .dep(h.alpha, AccessMode::InOut)
                .flops(h.blocks.len() as f64)
                .touch(whole(h.pap_scratch))
                .touch(whole(h.alpha));
            if multi {
                buf.comm(CommOp::Iallreduce { bytes: 8 });
            }
            if want {
                let st = self.state.clone().unwrap();
                buf.body(move |_| st.k_alpha());
            }
            buf.submit(sub);
        }

        // x += alpha p ; r -= alpha ap.
        for (i, &(a, b)) in h.blocks.iter().enumerate() {
            buf.begin("AxpyX")
                .dep(h.alpha, In)
                .dep(h.p[i], In)
                .dep(h.x[i], AccessMode::InOut)
                .flops((b - a) as f64 * F_AXPY)
                .touch(whole(h.p[i]))
                .touch(whole(h.x[i]));
            if want {
                let st = self.state.clone().unwrap();
                buf.body(move |_| st.k_axpy_x(a..b));
            }
            buf.submit(sub);
        }
        for (i, &(a, b)) in h.blocks.iter().enumerate() {
            buf.begin("AxpyR")
                .dep(h.alpha, In)
                .dep(h.ap[i], In)
                .dep(h.r[i], AccessMode::InOut)
                .flops((b - a) as f64 * F_AXPY)
                .touch(whole(h.ap[i]))
                .touch(whole(h.r[i]));
            if want {
                let st = self.state.clone().unwrap();
                buf.body(move |_| st.k_axpy_r(a..b));
            }
            buf.submit(sub);
        }

        // Partial r·r.
        for (i, &(a, b)) in h.blocks.iter().enumerate() {
            buf.begin("DotRR")
                .dep(h.r[i], In)
                .dep(h.rr_scratch, InOutSet)
                .flops((b - a) as f64 * F_DOT)
                .touch(whole(h.r[i]))
                .touch(HandleSlice {
                    handle: h.rr_scratch,
                    offset: i as u64 * 8,
                    len: 8,
                });
            if want {
                let st = self.state.clone().unwrap();
                buf.body(move |_| st.k_dot_rr(a..b, i));
            }
            buf.submit(sub);
        }

        // Reduce + beta (second collective; also reads/writes rr via alpha
        // handle's region ordering: beta depends on alpha to serialize the
        // scalar updates).
        {
            buf.begin("ReduceBeta")
                .dep(h.rr_scratch, In)
                .dep(h.alpha, In)
                .dep(h.beta, AccessMode::InOut)
                .flops(h.blocks.len() as f64)
                .touch(whole(h.rr_scratch))
                .touch(whole(h.beta));
            if multi {
                buf.comm(CommOp::Iallreduce { bytes: 8 });
            }
            if want {
                let st = self.state.clone().unwrap();
                buf.body(move |_| st.k_beta());
            }
            buf.submit(sub);
        }

        // p = r + beta p.
        for (i, &(a, b)) in h.blocks.iter().enumerate() {
            buf.begin("UpdateP")
                .dep(h.beta, In)
                .dep(h.r[i], In)
                .dep(h.p[i], AccessMode::InOut)
                .flops((b - a) as f64 * F_AXPY)
                .touch(whole(h.r[i]))
                .touch(whole(h.p[i]));
            if want {
                let st = self.state.clone().unwrap();
                buf.body(move |_| st.k_update_p(a..b));
            }
            buf.submit(sub);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptdg_core::builder::{CountingSubmitter, RecordingSubmitter};

    #[test]
    fn each_body_holds_one_state_reference() {
        let prog = HpcgTask::with_state(HpcgConfig::single(6, 1, 4));
        let st = prog.state.as_ref().unwrap();
        let before = std::sync::Arc::strong_count(&st.0);
        let mut rec = RecordingSubmitter::default();
        prog.build_iteration(0, 0, &mut rec);
        let bodies = rec.specs.iter().filter(|s| s.body.is_some()).count();
        assert_eq!(bodies, 6 * 4 + 2, "every task carries a body");
        assert_eq!(std::sync::Arc::strong_count(&st.0) - before, bodies);
    }

    #[test]
    fn task_count_per_iteration() {
        let cfg = HpcgConfig::single(8, 1, 16);
        let prog = HpcgTask::new(cfg);
        let mut c = CountingSubmitter::default();
        prog.build_iteration(0, 0, &mut c);
        // 6 sliced loops × 16 + 2 reduces
        assert_eq!(c.tasks, 6 * 16 + 2);
    }

    #[test]
    fn multi_rank_adds_halo_and_collectives() {
        let cfg = HpcgConfig {
            px: 2,
            ..HpcgConfig::single(8, 1, 8)
        };
        let prog = HpcgTask::new(cfg);
        let mut c = RecordingSubmitter::default();
        prog.build_iteration(0, 0, &mut c);
        // rank 0 of a 2³ grid has 3 face neighbors × 4 tasks
        let halo = c
            .specs
            .iter()
            .filter(|s| s.name.contains("Halo") || s.name.starts_with("MPI_"))
            .count();
        assert_eq!(halo, 12);
        let colls = c
            .specs
            .iter()
            .filter(|s| matches!(s.comm, Some(CommOp::Iallreduce { .. })))
            .count();
        assert_eq!(colls, 2);
    }

    #[test]
    fn halo_tags_pair_up() {
        let cfg = HpcgConfig {
            px: 2,
            ..HpcgConfig::single(4, 1, 4)
        };
        let prog = HpcgTask::new(cfg.clone());
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for r in 0..cfg.n_ranks() {
            let mut c = RecordingSubmitter::default();
            prog.build_iteration(r, 0, &mut c);
            for s in &c.specs {
                match s.comm {
                    Some(CommOp::Isend { peer, bytes, tag }) => sends.push((r, peer, tag, bytes)),
                    Some(CommOp::Irecv { peer, bytes, tag }) => recvs.push((peer, r, tag, bytes)),
                    _ => {}
                }
            }
        }
        sends.sort_unstable();
        recvs.sort_unstable();
        assert_eq!(sends, recvs);
        assert_eq!(sends.len(), 8 * 3);
    }
}
