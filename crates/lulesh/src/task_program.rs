//! The dependent-task LULESH (paper Listing 1).
//!
//! Every mesh-wide loop becomes `TPL` tasks over contiguous slices, with
//! dependences inferred from the slice handles. MPI communications are
//! tasks in the graph with detached completion, posted as soon as their
//! frontier predecessors complete. The structure follows the Ferat et al.
//! port studied by the paper: a `dt` reduction task, seven sliced compute
//! loops, and a 26-neighbor exchange of frontier nodes.

use crate::config::*;
use crate::handles::LuleshHandles;
use crate::mesh::{overlapping_slices, Mesh, RankGrid};
use crate::state::LuleshState;
use ptdg_core::access::AccessMode;
use ptdg_core::builder::{SpecBuf, TaskSubmitter};
use ptdg_core::handle::{DataHandle, HandleSpace};
use ptdg_core::workdesc::{CommOp, HandleSlice};
use ptdg_simrt::{Rank, RankProgram};

/// The task-based LULESH program for one job (all ranks share the
/// structure; each rank builds its own identical-shaped local graph).
pub struct LuleshTask {
    /// Run configuration.
    pub cfg: LuleshConfig,
    /// Slice handles.
    pub handles: LuleshHandles,
    /// The handle space (needed for region sizes; also what the simulator
    /// must be given).
    pub space: HandleSpace,
    /// Real arrays — present when running on the thread executor
    /// (single-rank only); `None` for cost-model simulation.
    pub state: Option<LuleshState>,
}

impl LuleshTask {
    /// Build the program (no real arrays: simulation use).
    pub fn new(cfg: LuleshConfig) -> LuleshTask {
        let mut space = HandleSpace::new();
        let handles = LuleshHandles::build(&mut space, &cfg);
        LuleshTask {
            cfg,
            handles,
            space,
            state: None,
        }
    }

    /// Attach real arrays for execution on the thread executor.
    ///
    /// Only single-rank configurations can be executed for real (the
    /// multi-rank exchange exists as graph structure for the simulator).
    pub fn with_state(cfg: LuleshConfig) -> LuleshTask {
        assert_eq!(
            cfg.n_ranks(),
            1,
            "real execution supports single-rank runs; multi-rank is simulated"
        );
        let state = LuleshState::new(Mesh::new(cfg.s), cfg.tpl.min(cfg.s * cfg.s * cfg.s));
        let mut t = LuleshTask::new(cfg);
        t.state = Some(state);
        t
    }

    fn mesh(&self) -> Mesh {
        Mesh::new(self.cfg.s)
    }

    /// Elem-slice indices whose `sig` a force task over nodes `[a, b)`
    /// reads: the elements adjacent to those nodes.
    fn elem_slices_for_nodes(&self, a: usize, b: usize) -> (usize, usize) {
        let mesh = self.mesh();
        let np2 = mesh.np() * mesh.np();
        let s2 = mesh.s * mesh.s;
        let za = a / np2;
        let zb = (b - 1) / np2;
        let lo = za.saturating_sub(1) * s2;
        let hi = ((zb + 1).min(mesh.s)) * s2;
        let hi = hi.max(lo + 1).min(mesh.n_elems());
        overlapping_slices(&self.handles.elem_slices, lo, hi)
    }

    /// Node-slice indices a kinematics task over elems `[a, b)` reads.
    fn node_slices_for_elems(&self, a: usize, b: usize) -> (usize, usize) {
        let mesh = self.mesh();
        let np2 = mesh.np() * mesh.np();
        let s2 = mesh.s * mesh.s;
        let za = a / s2;
        let zb = (b - 1) / s2;
        let lo = za * np2;
        let hi = ((zb + 2) * np2).min(mesh.n_nodes());
        overlapping_slices(&self.handles.node_slices, lo, hi)
    }

    /// Node flat range of the frontier toward `dir`.
    fn frontier_range(&self, dir: usize) -> (usize, usize) {
        let mesh = self.mesh();
        let np2 = mesh.np() * mesh.np();
        let (_, _, dz) = RankGrid::directions()[dir];
        match dz {
            -1 => (0, np2),
            1 => (mesh.s * np2, mesh.n_nodes()),
            _ => (0, mesh.n_nodes()),
        }
    }

    /// Append one depend item per handle of a group to the buffer.
    fn dep_group(buf: &mut SpecBuf, handles: &[DataHandle], mode: AccessMode) {
        for &h in handles {
            buf.dep(h, mode);
        }
    }
}

impl RankProgram for LuleshTask {
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
        let fused = cfg.fused_deps;
        let want = sub.wants_bodies() && self.state.is_some();
        let multi = cfg.n_ranks() > 1;
        // One recycled construction buffer for the whole iteration: after
        // the widest task warms it up, submissions build no Vecs. A sink
        // that reads no cost model gets no footprints, and the footprint
        // helpers below return at once.
        let mut buf = SpecBuf::for_sink(sub);
        let work = buf.keeps_work();
        let dg = Self::dep_group;
        let tg = |buf: &mut SpecBuf, hs: &[DataHandle]| {
            if !work {
                return;
            }
            for &hd in hs {
                buf.touch(HandleSlice::whole(hd, space.info(hd).bytes));
            }
        };
        let tmp = |buf: &mut SpecBuf, handle: DataHandle, total: usize, arrays, a: usize, b| {
            if !work {
                return;
            }
            for k in 0..arrays as u64 {
                buf.touch(HandleSlice {
                    handle,
                    offset: k * total as u64 * 8 + a as u64 * 8,
                    len: (b - a) as u64 * 8,
                });
            }
        };
        let qg = |buf: &mut SpecBuf, a: usize, b: usize| {
            if !work {
                return;
            }
            let (a, b) = (a as u64, b as u64);
            if fused {
                for k in 0..2u64 {
                    buf.touch(HandleSlice {
                        handle: h.qgrad[0],
                        offset: k * h.n_elems as u64 * 8 + a * 8,
                        len: (b - a) * 8,
                    });
                }
            } else {
                for &hd in &h.qgrad {
                    buf.touch(HandleSlice {
                        handle: hd,
                        offset: a * 8,
                        len: (b - a) * 8,
                    });
                }
            }
        };

        // 1. dynamic time step: reads every courant slot, reduced globally.
        {
            buf.begin("CalcTimeStep")
                .dep(h.scratch, In)
                .dep(h.dt, Out)
                .flops(h.elem_slices.len() as f64 * 2.0)
                .touch(HandleSlice::whole(h.scratch, space.info(h.scratch).bytes))
                .touch(HandleSlice::whole(h.dt, 8))
                .fp_bytes(16);
            if multi {
                buf.comm(CommOp::Iallreduce { bytes: 8 });
            }
            if want {
                let st = self.state.clone().unwrap();
                buf.body(move |_| st.k_dt());
            }
            buf.submit(sub);
        }

        // 2. stress: σ from the EOS fields of the same slice.
        for (i, &(a, b)) in h.elem_slices.iter().enumerate() {
            buf.begin("CalcStressForElems");
            dg(&mut buf, &h.eos[i], In);
            buf.dep(h.sig[i], Out).flops((b - a) as f64 * F_STRESS);
            tg(&mut buf, &h.eos[i]);
            buf.touch(HandleSlice::whole(h.sig[i], space.info(h.sig[i]).bytes));
            if want {
                let st = self.state.clone().unwrap();
                buf.body(move |_| st.k_stress(a..b));
            }
            buf.submit(sub);
        }

        // 3. CalcForceForNodes: zero the nodal force slices before the
        // gather (the group opener the hourglass inoutset members follow).
        for (i, &(a, b)) in h.node_slices.iter().enumerate() {
            buf.begin("CalcForceForNodes");
            dg(&mut buf, &h.force[i], Out);
            buf.flops((b - a) as f64 * F_ZEROF);
            tg(&mut buf, &h.force[i]);
            buf.submit(sub);
        }

        // 4. force gather: task i computes the forces of node slab i from
        // the adjacent sig slices. Because its elements also touch nodes
        // of the neighbouring slabs, the *declared* writes cover slices
        // i−1..i+1 with `inoutset` — the concurrent-write groups of the
        // paper's Fig. 4 (the body writes only its own slab, so members
        // are race-free, as in the real port).
        let n_ns = h.node_slices.len();
        for (i, &(a, b)) in h.node_slices.iter().enumerate() {
            let (e0, e1) = self.elem_slices_for_nodes(a, b);
            buf.begin("CalcFBHourglassForceForElems");
            for j in e0..=e1 {
                buf.dep(h.sig[j], In);
            }
            let j0 = i.saturating_sub(1);
            let j1 = (i + 1).min(n_ns - 1);
            for j in j0..=j1 {
                dg(&mut buf, &h.force[j], InOutSet);
            }
            // the hourglass control reads the nodal coordinates too
            dg(&mut buf, &h.pos[i], In);
            buf.flops((b - a) as f64 * F_FORCE);
            for j in e0..=e1 {
                buf.touch(HandleSlice::whole(h.sig[j], space.info(h.sig[j]).bytes));
            }
            tg(&mut buf, &h.force[i]);
            tg(&mut buf, &h.pos[i]);
            tmp(
                &mut buf,
                h.tmp_elem,
                h.n_elems,
                4,
                a.min(h.n_elems - 1),
                b.min(h.n_elems),
            );
            tmp(&mut buf, h.tmp_node, h.n_nodes, 2, a, b);
            if want {
                let st = self.state.clone().unwrap();
                buf.body(move |_| st.k_force(a..b));
            }
            buf.submit(sub);
        }

        // 5. acceleration solve: F/m plus the symmetry boundary
        // conditions, into the acceleration arrays.
        for (i, &(a, b)) in h.node_slices.iter().enumerate() {
            buf.begin("CalcAccelerationForNodes");
            dg(&mut buf, &h.force[i], In);
            buf.dep(h.dt, In);
            dg(&mut buf, &h.acc[i], Out);
            buf.flops((b - a) as f64 * F_ACCSOLVE);
            tg(&mut buf, &h.force[i]);
            tg(&mut buf, &h.acc[i]);
            buf.touch(HandleSlice {
                handle: h.mass,
                offset: a as u64 * 8,
                len: (b - a) as u64 * 8,
            });
            buf.submit(sub);
        }

        // 6. velocity integration (carries the real k_accel body: its
        // force reads are ordered transitively through the acceleration
        // slice).
        for (i, &(a, b)) in h.node_slices.iter().enumerate() {
            buf.begin("CalcVelocityForNodes");
            dg(&mut buf, &h.acc[i], In);
            dg(&mut buf, &h.vel[i], InOut);
            buf.flops((b - a) as f64 * F_ACCEL);
            tg(&mut buf, &h.acc[i]);
            tg(&mut buf, &h.vel[i]);
            if want {
                let st = self.state.clone().unwrap();
                buf.body(move |_| st.k_accel(a..b));
            }
            buf.submit(sub);
        }

        // 5. positions.
        for (i, &(a, b)) in h.node_slices.iter().enumerate() {
            buf.begin("CalcPositionForNodes");
            dg(&mut buf, &h.vel[i], In);
            buf.dep(h.dt, In);
            dg(&mut buf, &h.pos[i], InOut);
            buf.flops((b - a) as f64 * F_POS);
            tg(&mut buf, &h.vel[i]);
            tg(&mut buf, &h.pos[i]);
            if want {
                let st = self.state.clone().unwrap();
                buf.body(move |_| st.k_pos(a..b));
            }
            buf.submit(sub);
        }

        // Optional taskwait fence before the communication sequence.
        if cfg.taskwait_fenced {
            buf.begin("taskwait").dep(h.fence, InOut);
            for i in 0..h.node_slices.len() {
                dg(&mut buf, &h.pos[i], InOut);
                dg(&mut buf, &h.vel[i], InOut);
            }
            buf.submit(sub);
        }

        // Frontier exchange with the 26 neighbors.
        if multi {
            for nb in cfg.grid.neighbors(rank) {
                let bytes = RankGrid::message_bytes(cfg.s, nb.axes, EXCHANGE_FIELDS);
                let dir = nb.dir;
                let (fa, fb) = self.frontier_range(dir);
                let (s0, s1) = overlapping_slices(&h.node_slices, fa, fb);
                // Receive: the buffer write-dependence orders it after the
                // previous iteration's unpack (WAR through rbuf).
                buf.begin("MPI_Irecv")
                    .dep(h.rbuf[dir], Out)
                    .comm(CommOp::Irecv {
                        peer: nb.rank,
                        bytes,
                        tag: RankGrid::opposite(dir) as u32,
                    })
                    .submit(sub);
                // Pack frontier values (positions, velocities and the
                // boundary forces — the second reader of the force
                // inoutset groups, where optimization (c) pays off).
                buf.begin("Pack");
                for i in s0..=s1 {
                    dg(&mut buf, &h.pos[i], In);
                    dg(&mut buf, &h.vel[i], In);
                    dg(&mut buf, &h.force[i], In);
                }
                buf.dep(h.sbuf[dir], Out)
                    .flops(bytes as f64 / 8.0 * 2.0)
                    .touch(HandleSlice::whole(h.sbuf[dir], bytes))
                    .fp_bytes(48)
                    .submit(sub);
                buf.begin("MPI_Isend")
                    .dep(h.sbuf[dir], In)
                    .comm(CommOp::Isend {
                        peer: nb.rank,
                        bytes,
                        tag: dir as u32,
                    })
                    .submit(sub);
                // Unpack into the frontier slices.
                buf.begin("Unpack").dep(h.rbuf[dir], In);
                for i in s0..=s1 {
                    dg(&mut buf, &h.pos[i], InOut);
                    dg(&mut buf, &h.vel[i], InOut);
                }
                buf.flops(bytes as f64 / 8.0 * 2.0)
                    .touch(HandleSlice::whole(h.rbuf[dir], bytes))
                    .fp_bytes(48)
                    .submit(sub);
            }
        }

        if cfg.taskwait_fenced {
            buf.begin("taskwait").dep(h.fence, InOut);
            for i in 0..h.node_slices.len() {
                dg(&mut buf, &h.pos[i], InOut);
                dg(&mut buf, &h.vel[i], InOut);
            }
            buf.submit(sub);
        }

        // 6. kinematics: element volumes from the updated positions.
        for (i, &(a, b)) in h.elem_slices.iter().enumerate() {
            let (n0, n1) = self.node_slices_for_elems(a, b);
            buf.begin("CalcLagrangeElements");
            for j in n0..=n1 {
                dg(&mut buf, &h.pos[j], In);
            }
            dg(&mut buf, &h.kin[i], Out);
            for j in n0..=n1 {
                dg(&mut buf, &h.vel[j], In);
            }
            buf.flops((b - a) as f64 * F_KIN);
            for j in n0..=n1 {
                tg(&mut buf, &h.pos[j]);
                tg(&mut buf, &h.vel[j]);
            }
            tg(&mut buf, &h.kin[i]);
            tmp(&mut buf, h.tmp_elem, h.n_elems, 1, a, b);
            if want {
                let st = self.state.clone().unwrap();
                buf.body(move |_| st.k_kin(a..b));
            }
            buf.submit(sub);
        }

        // 9. monotonic Q gradient: writes the gradient arrays through the
        // mesh indirection, so the whole arrays are declared `inoutset` —
        // the m writers of the Fig. 4 pattern.
        for (i, &(a, b)) in h.elem_slices.iter().enumerate() {
            let (n0, n1) = self.node_slices_for_elems(a, b);
            buf.begin("CalcMonotonicQGradientsForElems");
            for j in n0..=n1 {
                dg(&mut buf, &h.pos[j], In);
                dg(&mut buf, &h.vel[j], In);
            }
            dg(&mut buf, &h.kin[i], In);
            dg(&mut buf, &h.qgrad, InOutSet);
            buf.flops((b - a) as f64 * F_QGRAD);
            for j in n0..=n1 {
                tg(&mut buf, &h.pos[j]);
                tg(&mut buf, &h.vel[j]);
            }
            tg(&mut buf, &h.kin[i]);
            qg(&mut buf, a, b);
            tmp(&mut buf, h.tmp_elem, h.n_elems, 1, a, b);
            buf.submit(sub);
        }

        // 10. monotonic Q region: reads neighbour gradients through the
        // same indirection — the n readers of the m·n pattern (without
        // optimization (c) this costs TPL² edges).
        for (i, &(a, b)) in h.elem_slices.iter().enumerate() {
            buf.begin("CalcMonotonicQRegionForElems");
            dg(&mut buf, &h.qgrad, In);
            dg(&mut buf, &h.qq[i], Out);
            buf.flops((b - a) as f64 * F_QREGION);
            qg(&mut buf, a.saturating_sub(1), (b + 1).min(h.n_elems));
            tg(&mut buf, &h.qq[i]);
            buf.submit(sub);
        }

        // 11. first energy pass.
        for (i, &(a, b)) in h.elem_slices.iter().enumerate() {
            buf.begin("CalcEnergyForElems");
            dg(&mut buf, &h.kin[i], In);
            dg(&mut buf, &h.qq[i], In);
            dg(&mut buf, &h.epass[i], Out);
            buf.flops((b - a) as f64 * F_EPASS);
            tg(&mut buf, &h.kin[i]);
            tg(&mut buf, &h.qq[i]);
            tg(&mut buf, &h.epass[i]);
            tmp(&mut buf, h.tmp_elem, h.n_elems, 1, a, b);
            buf.submit(sub);
        }

        // 12. EOS (the real material update body).
        for (i, &(a, b)) in h.elem_slices.iter().enumerate() {
            buf.begin("EvalEOSForElems");
            dg(&mut buf, &h.kin[i], In);
            dg(&mut buf, &h.qq[i], In);
            dg(&mut buf, &h.epass[i], In);
            dg(&mut buf, &h.eos[i], InOut);
            buf.flops((b - a) as f64 * F_EOS);
            tg(&mut buf, &h.kin[i]);
            tg(&mut buf, &h.qq[i]);
            tg(&mut buf, &h.epass[i]);
            tg(&mut buf, &h.eos[i]);
            tmp(&mut buf, h.tmp_elem, h.n_elems, 2, a, b);
            if want {
                let st = self.state.clone().unwrap();
                buf.body(move |_| st.k_eos(a..b));
            }
            buf.submit(sub);
        }

        // 13. UpdateVolumesForElems.
        for (i, &(a, b)) in h.elem_slices.iter().enumerate() {
            buf.begin("UpdateVolumesForElems");
            dg(&mut buf, &h.eos[i], In);
            dg(&mut buf, &h.kin[i], InOut);
            buf.flops((b - a) as f64 * F_UPDVOL);
            tg(&mut buf, &h.eos[i]);
            tg(&mut buf, &h.kin[i]);
            buf.submit(sub);
        }

        // 8. courant: concurrent writes into the scratch vector.
        for (i, &(a, b)) in h.elem_slices.iter().enumerate() {
            buf.begin("CalcCourantConstraintForElems");
            dg(&mut buf, &h.eos[i], In);
            buf.dep(h.scratch, InOutSet)
                .flops((b - a) as f64 * F_COURANT);
            tg(&mut buf, &h.eos[i]);
            buf.touch(HandleSlice {
                handle: h.scratch,
                offset: i as u64 * 8,
                len: 8,
            });
            if want {
                let st = self.state.clone().unwrap();
                buf.body(move |ctx| {
                    let _ = ctx;
                    st.k_courant(a..b, i)
                });
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
        let prog = LuleshTask::with_state(LuleshConfig::single(6, 1, 4));
        let st = prog.state.as_ref().unwrap();
        let before = std::sync::Arc::strong_count(&st.0);
        let mut rec = RecordingSubmitter::default();
        prog.build_iteration(0, 0, &mut rec);
        let bodies = rec.specs.iter().filter(|s| s.body.is_some()).count();
        assert!(bodies > 0);
        assert_eq!(std::sync::Arc::strong_count(&st.0) - before, bodies);
        drop(rec);
        assert_eq!(std::sync::Arc::strong_count(&st.0), before);
    }

    #[test]
    fn task_count_matches_config() {
        let cfg = LuleshConfig::single(8, 2, 16);
        let prog = LuleshTask::new(cfg.clone());
        let mut c = CountingSubmitter::default();
        prog.build_iteration(0, 0, &mut c);
        assert_eq!(c.tasks as usize, cfg.compute_tasks_per_iteration());
    }

    #[test]
    fn multi_rank_adds_comm_tasks() {
        let cfg = LuleshConfig {
            grid: RankGrid::cube(8),
            ..LuleshConfig::single(8, 1, 16)
        };
        let prog = LuleshTask::new(cfg.clone());
        let mut c = RecordingSubmitter::default();
        // rank 0 is a corner: 7 neighbors × 4 tasks each
        prog.build_iteration(0, 0, &mut c);
        let comm_tasks = c
            .specs
            .iter()
            .filter(|s| s.name.starts_with("MPI_") || s.name == "Pack" || s.name == "Unpack")
            .count();
        assert_eq!(comm_tasks, 7 * 4);
        // the dt task became a collective
        assert!(c.specs[0].comm.is_some());
        let isends = c
            .specs
            .iter()
            .filter(|s| matches!(s.comm, Some(CommOp::Isend { .. })))
            .count();
        assert_eq!(isends, 7);
    }

    #[test]
    fn taskwait_fence_adds_two_fence_tasks() {
        let cfg = LuleshConfig {
            taskwait_fenced: true,
            grid: RankGrid::cube(8),
            ..LuleshConfig::single(8, 1, 8)
        };
        let prog = LuleshTask::new(cfg);
        let mut c = RecordingSubmitter::default();
        prog.build_iteration(0, 0, &mut c);
        assert_eq!(c.specs.iter().filter(|s| s.name == "taskwait").count(), 2);
    }

    #[test]
    fn send_recv_tags_pair_up() {
        let cfg = LuleshConfig {
            grid: RankGrid::cube(27),
            ..LuleshConfig::single(6, 1, 8)
        };
        let prog = LuleshTask::new(cfg.clone());
        // For every (sender, dir) Isend there must be a matching Irecv on
        // the peer with the same tag and size.
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for rank in 0..27u32 {
            let mut c = RecordingSubmitter::default();
            prog.build_iteration(rank, 0, &mut c);
            for s in &c.specs {
                match s.comm {
                    Some(CommOp::Isend { peer, bytes, tag }) => {
                        sends.push((rank, peer, tag, bytes))
                    }
                    Some(CommOp::Irecv { peer, bytes, tag }) => {
                        recvs.push((peer, rank, tag, bytes))
                    }
                    _ => {}
                }
            }
        }
        sends.sort_unstable();
        recvs.sort_unstable();
        assert_eq!(sends, recvs, "every send must have a matching recv");
        assert!(!sends.is_empty());
    }

    #[test]
    fn fused_deps_reduce_depend_items() {
        let cfg_f = LuleshConfig::single(8, 1, 16);
        let cfg_u = LuleshConfig {
            fused_deps: false,
            ..cfg_f.clone()
        };
        let mut cf = CountingSubmitter::default();
        LuleshTask::new(cfg_f).build_iteration(0, 0, &mut cf);
        let mut cu = CountingSubmitter::default();
        LuleshTask::new(cfg_u).build_iteration(0, 0, &mut cu);
        assert_eq!(cf.tasks, cu.tasks);
        assert!(
            cf.depend_items * 2 < cu.depend_items,
            "(a) must cut depend items: fused {} vs unfused {}",
            cf.depend_items,
            cu.depend_items
        );
    }
}
