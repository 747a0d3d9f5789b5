//! Mesh state arrays and the numeric kernels.
//!
//! The physics is a simplified explicit shock-hydro step that preserves
//! what matters for the paper's study: the *loop sequence*, the per-loop
//! data-flow (element↔node gathers), real floating-point work per item,
//! and a dynamic time step reduced globally each iteration. Kernels are
//! elementwise-deterministic, so the task versions are bitwise equal to
//! the sequential reference regardless of scheduling — the property the
//! integration tests verify.

use crate::mesh::Mesh;
use ptdg_core::data::SharedVec;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// Adiabatic index of the ideal-gas EOS.
const GAMMA: f64 = 1.4;
/// Artificial-viscosity coefficient.
const QCOEF: f64 = 2.0;
/// CFL factor for the dynamic time step.
const CFL: f64 = 0.05;
/// Floors to keep the simplified scheme defined.
const V_MIN: f64 = 1e-3;
const SS_MIN: f64 = 1e-3;

/// All mesh fields of one rank, shared across task bodies.
///
/// A handle to one shared [`LuleshFields`]: cloning it (one per task
/// body) bumps a single reference count, and field reads go through
/// [`Deref`].
#[derive(Clone)]
pub struct LuleshState(pub(crate) Arc<LuleshFields>);

/// The fields behind a [`LuleshState`].
pub struct LuleshFields {
    /// Mesh geometry.
    pub mesh: Mesh,
    /// Nodal positions.
    pub x: SharedVec<f64>,
    /// Nodal positions.
    pub y: SharedVec<f64>,
    /// Nodal positions.
    pub z: SharedVec<f64>,
    /// Nodal velocities.
    pub xd: SharedVec<f64>,
    /// Nodal velocities.
    pub yd: SharedVec<f64>,
    /// Nodal velocities.
    pub zd: SharedVec<f64>,
    /// Nodal forces.
    pub fx: SharedVec<f64>,
    /// Nodal forces.
    pub fy: SharedVec<f64>,
    /// Nodal forces.
    pub fz: SharedVec<f64>,
    /// Nodal mass.
    pub mass: SharedVec<f64>,
    /// Element stress.
    pub sig: SharedVec<f64>,
    /// Element internal energy.
    pub e: SharedVec<f64>,
    /// Element pressure.
    pub p: SharedVec<f64>,
    /// Element artificial viscosity.
    pub q: SharedVec<f64>,
    /// Element relative volume.
    pub v: SharedVec<f64>,
    /// Element volume change this step.
    pub delv: SharedVec<f64>,
    /// Element sound speed.
    pub ss: SharedVec<f64>,
    /// Per-slice minimum time-step scratch (one slot per courant task).
    pub scratch: SharedVec<f64>,
    /// The global time step (length 1).
    pub dt: SharedVec<f64>,
}

impl Deref for LuleshState {
    type Target = LuleshFields;

    fn deref(&self) -> &LuleshFields {
        &self.0
    }
}

impl LuleshState {
    /// Initialize a Sedov-like problem: unit cube, energy deposited in the
    /// origin-corner element, everything else cold and at rest.
    pub fn new(mesh: Mesh, tpl: usize) -> LuleshState {
        let nn = mesh.n_nodes();
        let ne = mesh.n_elems();
        let np = mesh.np() as f64;
        let mut x = vec![0.0f64; nn];
        let mut y = vec![0.0f64; nn];
        let mut z = vec![0.0f64; nn];
        for n in 0..nn {
            let (nx, ny, nz) = mesh.node_coords(n);
            x[n] = nx as f64 / (np - 1.0);
            y[n] = ny as f64 / (np - 1.0);
            z[n] = nz as f64 / (np - 1.0);
        }
        let mut e = vec![1e-6f64; ne];
        e[0] = 3.0; // the Sedov energy deposit
        let h = 1.0 / mesh.s as f64;
        let ss0 = (GAMMA * (GAMMA - 1.0) * 1e-6f64).sqrt().max(SS_MIN);
        let st = LuleshState(Arc::new(LuleshFields {
            mesh,
            x: SharedVec::from_vec(x),
            y: SharedVec::from_vec(y),
            z: SharedVec::from_vec(z),
            xd: SharedVec::new(nn, 0.0),
            yd: SharedVec::new(nn, 0.0),
            zd: SharedVec::new(nn, 0.0),
            fx: SharedVec::new(nn, 0.0),
            fy: SharedVec::new(nn, 0.0),
            fz: SharedVec::new(nn, 0.0),
            mass: SharedVec::new(nn, h * h * h),
            sig: SharedVec::new(ne, 0.0),
            e: SharedVec::from_vec(e),
            p: SharedVec::new(ne, 0.0),
            q: SharedVec::new(ne, 0.0),
            v: SharedVec::new(ne, h * h * h),
            delv: SharedVec::new(ne, 0.0),
            ss: SharedVec::new(ne, ss0),
            scratch: SharedVec::new(tpl.max(1), h / ss0),
            dt: SharedVec::new(1, 0.0),
        }));
        // Prime pressure from the initial energy so step 0 produces
        // forces, and the courant scratch so the first dt is CFL-safe.
        st.k_eos_init();
        let nslots = st.scratch.len();
        let ne_per = ne.div_ceil(nslots);
        for slot in 0..nslots {
            let lo = slot * ne_per;
            let hi = ((slot + 1) * ne_per).min(ne);
            if lo < hi {
                st.k_courant(lo..hi, slot);
            }
        }
        st
    }

    fn k_eos_init(&self) {
        let ne = self.mesh.n_elems();
        let (e, p, v, ss) = (
            self.e.slice(0..ne),
            self.p.slice_mut(0..ne),
            self.v.slice(0..ne),
            self.ss.slice_mut(0..ne),
        );
        for i in 0..ne {
            p[i] = (GAMMA - 1.0) * e[i] / v[i].max(V_MIN);
            ss[i] = (GAMMA * p[i].max(0.0)).sqrt().max(SS_MIN);
        }
    }

    /// Loop 1 (`CalcTimeConstraints` + reduce): dt = CFL · min(scratch).
    pub fn k_dt(&self) {
        let s = self.scratch.slice(0..self.scratch.len());
        let m = s.iter().cloned().fold(f64::INFINITY, f64::min);
        self.dt.set(0, (CFL * m).min(1e-3));
    }

    /// Loop 2 (`CalcStressForElems`): σ = −(p + q).
    pub fn k_stress(&self, elems: Range<usize>) {
        let p = self.p.slice(elems.clone());
        let q = self.q.slice(elems.clone());
        let sig = self.sig.slice_mut(elems);
        for i in 0..sig.len() {
            sig[i] = -(p[i] + q[i]);
        }
    }

    /// Loop 3 (`CalcFBHourglassForceForElems`-like): gather the pressure
    /// gradient from the (up to 8) elements adjacent to each node.
    pub fn k_force(&self, nodes: Range<usize>) {
        let mesh = self.mesh;
        let s = mesh.s;
        let ne = mesh.n_elems();
        let sig = self.sig.slice(0..ne);
        let fx = self.fx.slice_mut(nodes.clone());
        let fy = self.fy.slice_mut(nodes.clone());
        let fz = self.fz.slice_mut(nodes.clone());
        let hh = 1.0 / s as f64;
        let h2 = hh * hh / 4.0; // element face area shared by 4 nodes
        for (k, n) in nodes.clone().enumerate() {
            let (nx, ny, nz) = mesh.node_coords(n);
            let (mut gx, mut gy, mut gz) = (0.0, 0.0, 0.0);
            for dz in 0..2usize {
                for dy in 0..2usize {
                    for dx in 0..2usize {
                        // element at (nx-1+dx, ny-1+dy, nz-1+dz) if it exists
                        let (ex, ey, ez) = (
                            nx as i64 - 1 + dx as i64,
                            ny as i64 - 1 + dy as i64,
                            nz as i64 - 1 + dz as i64,
                        );
                        if ex < 0 || ey < 0 || ez < 0 {
                            continue;
                        }
                        let (ex, ey, ez) = (ex as usize, ey as usize, ez as usize);
                        if ex >= s || ey >= s || ez >= s {
                            continue;
                        }
                        // σ = −p: a pressurized element on the low side
                        // pushes the node toward +axis, and vice versa.
                        let sv = sig[mesh.elem_idx(ex, ey, ez)];
                        gx += sv * if dx == 0 { -1.0 } else { 1.0 };
                        gy += sv * if dy == 0 { -1.0 } else { 1.0 };
                        gz += sv * if dz == 0 { -1.0 } else { 1.0 };
                    }
                }
            }
            fx[k] = gx * h2;
            fy[k] = gy * h2;
            fz[k] = gz * h2;
        }
    }

    /// Loops 4+5 (`CalcAccelerationForNodes` + velocity): v += dt·F/m,
    /// with LULESH's symmetry boundary conditions on the 0-planes.
    pub fn k_accel(&self, nodes: Range<usize>) {
        let dt = *self.dt.get(0);
        let mesh = self.mesh;
        let fx = self.fx.slice(nodes.clone());
        let fy = self.fy.slice(nodes.clone());
        let fz = self.fz.slice(nodes.clone());
        let m = self.mass.slice(nodes.clone());
        let xd = self.xd.slice_mut(nodes.clone());
        let yd = self.yd.slice_mut(nodes.clone());
        let zd = self.zd.slice_mut(nodes.clone());
        for (i, n) in nodes.enumerate() {
            let (nx, ny, nz) = mesh.node_coords(n);
            if nx != 0 {
                xd[i] += dt * fx[i] / m[i];
            }
            if ny != 0 {
                yd[i] += dt * fy[i] / m[i];
            }
            if nz != 0 {
                zd[i] += dt * fz[i] / m[i];
            }
        }
    }

    /// Loop 6 (`CalcPositionForNodes`): x += dt·v.
    pub fn k_pos(&self, nodes: Range<usize>) {
        let dt = *self.dt.get(0);
        let xd = self.xd.slice(nodes.clone());
        let yd = self.yd.slice(nodes.clone());
        let zd = self.zd.slice(nodes.clone());
        let x = self.x.slice_mut(nodes.clone());
        let y = self.y.slice_mut(nodes.clone());
        let z = self.z.slice_mut(nodes);
        for i in 0..x.len() {
            x[i] += dt * xd[i];
            y[i] += dt * yd[i];
            z[i] += dt * zd[i];
        }
    }

    /// Loop 7 (`CalcLagrangeElements`): element volume from its main
    /// diagonal corners; records the volume change.
    pub fn k_kin(&self, elems: Range<usize>) {
        let mesh = self.mesh;
        let nn = mesh.n_nodes();
        let x = self.x.slice(0..nn);
        let y = self.y.slice(0..nn);
        let z = self.z.slice(0..nn);
        let v = self.v.slice_mut(elems.clone());
        let delv = self.delv.slice_mut(elems.clone());
        for (k, eidx) in elems.enumerate() {
            let (ex, ey, ez) = mesh.elem_coords(eidx);
            let c0 = mesh.node_idx(ex, ey, ez);
            let c7 = mesh.node_idx(ex + 1, ey + 1, ez + 1);
            let vol = ((x[c7] - x[c0]) * (y[c7] - y[c0]) * (z[c7] - z[c0]))
                .abs()
                .max(V_MIN * V_MIN);
            delv[k] = vol - v[k];
            v[k] = vol;
        }
    }

    /// Loop 8 (`EvalEOSForElems`): viscosity, energy, pressure, sound speed.
    pub fn k_eos(&self, elems: Range<usize>) {
        let e = self.e.slice_mut(elems.clone());
        let p = self.p.slice_mut(elems.clone());
        let q = self.q.slice_mut(elems.clone());
        let v = self.v.slice(elems.clone());
        let delv = self.delv.slice(elems.clone());
        let ss = self.ss.slice_mut(elems);
        for i in 0..e.len() {
            q[i] = if delv[i] < 0.0 {
                QCOEF * delv[i] * delv[i] / v[i].max(V_MIN)
            } else {
                0.0
            };
            e[i] = (e[i] - 0.5 * delv[i] * (p[i] + q[i])).max(0.0);
            p[i] = (GAMMA - 1.0) * e[i] / v[i].max(V_MIN);
            ss[i] = (GAMMA * p[i].max(0.0)).sqrt().max(SS_MIN);
        }
    }

    /// Loop 9 (`CalcCourantConstraintForElems`): per-slice dt bound into
    /// this task's scratch slot.
    pub fn k_courant(&self, elems: Range<usize>, slot: usize) {
        let h = 1.0 / self.mesh.s as f64;
        let ss = self.ss.slice(elems);
        let m = ss
            .iter()
            .map(|&c| h / c.max(SS_MIN))
            .fold(f64::INFINITY, f64::min);
        self.scratch.set(slot, m);
    }

    /// Total internal + kinetic energy (verification aid).
    pub fn total_energy(&self) -> f64 {
        let ne = self.mesh.n_elems();
        let nn = self.mesh.n_nodes();
        let internal: f64 = self.e.slice(0..ne).iter().sum();
        let xd = self.xd.slice(0..nn);
        let yd = self.yd.slice(0..nn);
        let zd = self.zd.slice(0..nn);
        let m = self.mass.slice(0..nn);
        let kinetic: f64 = (0..nn)
            .map(|i| 0.5 * m[i] * (xd[i] * xd[i] + yd[i] * yd[i] + zd[i] * zd[i]))
            .sum();
        internal + kinetic
    }

    /// Whether every field is finite (stability check).
    pub fn all_finite(&self) -> bool {
        let ne = self.mesh.n_elems();
        let nn = self.mesh.n_nodes();
        self.e.slice(0..ne).iter().all(|v| v.is_finite())
            && self.p.slice(0..ne).iter().all(|v| v.is_finite())
            && self.v.slice(0..ne).iter().all(|v| v.is_finite())
            && self.x.slice(0..nn).iter().all(|v| v.is_finite())
            && self.xd.slice(0..nn).iter().all(|v| v.is_finite())
            && self.dt.get(0).is_finite()
    }

    /// A digest of the full state for bitwise-equality tests.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        let mut mix = |v: f64| {
            h ^= v.to_bits();
            h = h.wrapping_mul(0x100000001b3);
        };
        let ne = self.mesh.n_elems();
        let nn = self.mesh.n_nodes();
        for &v in self.e.slice(0..ne) {
            mix(v);
        }
        for &v in self.p.slice(0..ne) {
            mix(v);
        }
        for &v in self.x.slice(0..nn) {
            mix(v);
        }
        for &v in self.xd.slice(0..nn) {
            mix(v);
        }
        mix(*self.dt.get(0));
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::slices;

    fn step_sequential(st: &LuleshState, tpl: usize) {
        let ne = st.mesh.n_elems();
        let nn = st.mesh.n_nodes();
        st.k_dt();
        for &(a, b) in &slices(ne, tpl) {
            st.k_stress(a..b);
        }
        for &(a, b) in &slices(nn, tpl) {
            st.k_force(a..b);
        }
        for &(a, b) in &slices(nn, tpl) {
            st.k_accel(a..b);
        }
        for &(a, b) in &slices(nn, tpl) {
            st.k_pos(a..b);
        }
        for &(a, b) in &slices(ne, tpl) {
            st.k_kin(a..b);
        }
        for &(a, b) in &slices(ne, tpl) {
            st.k_eos(a..b);
        }
        for (slot, &(a, b)) in slices(ne, tpl).iter().enumerate() {
            st.k_courant(a..b, slot);
        }
    }

    #[test]
    fn initial_state_is_sane() {
        let st = LuleshState::new(Mesh::new(6), 4);
        assert!(st.all_finite());
        assert!(st.total_energy() > 2.9);
        assert!(*st.p.get(0) > 0.0, "Sedov element must be pressurized");
    }

    #[test]
    fn simulation_stays_finite_and_energy_spreads() {
        let st = LuleshState::new(Mesh::new(6), 4);
        for _ in 0..20 {
            step_sequential(&st, 4);
            assert!(st.all_finite());
        }
        // the shock moved energy into neighbouring elements
        let e1 = *st.e.get(1);
        assert!(e1 > 1e-6, "energy must propagate: e[1] = {e1}");
        // nodes near the deposit moved
        assert!(st.xd.slice(0..8).iter().any(|&v| v != 0.0));
        assert!(*st.dt.get(0) > 0.0);
    }

    #[test]
    fn sequential_is_deterministic() {
        let run = || {
            let st = LuleshState::new(Mesh::new(5), 3);
            for _ in 0..10 {
                step_sequential(&st, 3);
            }
            st.digest()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn force_gather_is_antisymmetric_around_uniform_field() {
        // With uniform sig, interior nodes feel zero net force.
        let st = LuleshState::new(Mesh::new(4), 2);
        let ne = st.mesh.n_elems();
        for i in 0..ne {
            st.sig.set(i, -1.0);
        }
        st.k_force(0..st.mesh.n_nodes());
        let interior = st.mesh.node_idx(2, 2, 2);
        assert_eq!(*st.fx.get(interior), 0.0);
        assert_eq!(*st.fy.get(interior), 0.0);
        // boundary nodes feel the unbalanced surface term
        let corner = st.mesh.node_idx(0, 0, 0);
        assert_ne!(*st.fx.get(corner), 0.0);
    }

    #[test]
    fn dt_respects_cfl() {
        let st = LuleshState::new(Mesh::new(4), 2);
        st.k_dt();
        let dt = *st.dt.get(0);
        assert!(dt > 0.0 && dt <= 1e-2);
    }

    #[test]
    fn kinematics_tracks_volume_change() {
        let st = LuleshState::new(Mesh::new(4), 2);
        // compress element 0 by moving node (1,1,1) toward the origin
        let n = st.mesh.node_idx(1, 1, 1);
        st.x.set(n, *st.x.get(n) * 0.5);
        st.k_kin(0..1);
        assert!(*st.delv.get(0) < 0.0, "compression must be negative delv");
    }

    #[test]
    fn eos_generates_viscosity_only_under_compression() {
        let st = LuleshState::new(Mesh::new(4), 2);
        st.delv.set(0, -0.1);
        st.delv.set(1, 0.1);
        st.k_eos(0..2);
        assert!(*st.q.get(0) > 0.0);
        assert_eq!(*st.q.get(1), 0.0);
    }
}
