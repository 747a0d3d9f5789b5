//! CG vectors and kernels over the 27-point stencil operator.
//!
//! The operator is the standard HPCG matrix: `A[i][i] = 26`, `A[i][j] =
//! -1` for the up-to-26 grid neighbours of `i` (rows at the local
//! boundary simply have fewer off-diagonals — the single-rank problem).
//! `b = A·1`, `x₀ = 0`, so the solver converges toward the all-ones
//! vector and every quantity is analytically checkable.

use crate::config::HpcgConfig;
use ptdg_core::data::SharedVec;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// Solver state of one rank.
///
/// A handle to one shared [`HpcgFields`]: cloning it (one per task body)
/// bumps a single reference count, and field reads go through [`Deref`].
#[derive(Clone)]
pub struct HpcgState(pub(crate) Arc<HpcgFields>);

/// The vectors and scalars behind an [`HpcgState`].
pub struct HpcgFields {
    /// Grid points per edge.
    pub nx: usize,
    /// Solution vector.
    pub x: SharedVec<f64>,
    /// Residual.
    pub r: SharedVec<f64>,
    /// Search direction.
    pub p: SharedVec<f64>,
    /// A·p.
    pub ap: SharedVec<f64>,
    /// Right-hand side.
    pub b: SharedVec<f64>,
    /// Partial dot products p·Ap (one slot per block).
    pub pap_scratch: SharedVec<f64>,
    /// Partial dot products r·r (one slot per block).
    pub rr_scratch: SharedVec<f64>,
    /// Scalars: [rr, alpha, beta, pap].
    pub scalars: SharedVec<f64>,
}

/// Indices into [`HpcgFields::scalars`].
pub const S_RR: usize = 0;
/// alpha.
pub const S_ALPHA: usize = 1;
/// beta.
pub const S_BETA: usize = 2;
/// p·Ap.
pub const S_PAP: usize = 3;

impl Deref for HpcgState {
    type Target = HpcgFields;

    fn deref(&self) -> &HpcgFields {
        &self.0
    }
}

impl HpcgState {
    /// Build the `b = A·1` problem with `x₀ = 0`.
    pub fn new(cfg: &HpcgConfig) -> HpcgState {
        let n = cfg.n_rows();
        let blocks = cfg.blocks();
        let st = HpcgState(Arc::new(HpcgFields {
            nx: cfg.nx,
            x: SharedVec::new(n, 0.0),
            r: SharedVec::new(n, 0.0),
            p: SharedVec::new(n, 0.0),
            ap: SharedVec::new(n, 0.0),
            b: SharedVec::new(n, 0.0),
            pap_scratch: SharedVec::new(blocks, 0.0),
            rr_scratch: SharedVec::new(blocks, 0.0),
            scalars: SharedVec::new(4, 0.0),
        }));
        // b = A·ones — computed via the SpMV kernel itself.
        for i in 0..n {
            st.p.set(i, 1.0);
        }
        st.k_spmv(0..n);
        for i in 0..n {
            st.b.set(i, *st.ap.get(i));
            // x0 = 0 -> r0 = b, p0 = r0
            st.r.set(i, *st.b.get(i));
            st.p.set(i, *st.b.get(i));
            st.ap.set(i, 0.0);
        }
        // rr = r·r
        let rr: f64 = (0..n).map(|i| st.r.get(i) * st.r.get(i)).sum();
        st.scalars.set(S_RR, rr);
        st
    }

    /// SpMV rows `[a, b)`: `ap = A·p` over the 27-point stencil.
    pub fn k_spmv(&self, rows: Range<usize>) {
        let nx = self.nx;
        let n = nx * nx * nx;
        let p = self.p.slice(0..n);
        let ap = self.ap.slice_mut(rows.clone());
        for (k, row) in rows.enumerate() {
            let ix = row % nx;
            let iy = (row / nx) % nx;
            let iz = row / (nx * nx);
            let mut sum = 27.0 * p[row]; // 26 (diag) + 1 to offset the self-neighbor below
            for dz in -1i64..=1 {
                for dy in -1i64..=1 {
                    for dx in -1i64..=1 {
                        let (jx, jy, jz) = (ix as i64 + dx, iy as i64 + dy, iz as i64 + dz);
                        if jx < 0 || jy < 0 || jz < 0 {
                            continue;
                        }
                        let (jx, jy, jz) = (jx as usize, jy as usize, jz as usize);
                        if jx >= nx || jy >= nx || jz >= nx {
                            continue;
                        }
                        sum -= p[(jz * nx + jy) * nx + jx];
                    }
                }
            }
            ap[k] = sum;
        }
    }

    /// Partial dot `p·ap` over `[a, b)` into scratch `slot`.
    pub fn k_dot_pap(&self, rows: Range<usize>, slot: usize) {
        let p = self.p.slice(rows.clone());
        let ap = self.ap.slice(rows);
        let s: f64 = p.iter().zip(ap).map(|(a, b)| a * b).sum();
        self.pap_scratch.set(slot, s);
    }

    /// Reduce pap, compute `alpha = rr / pap`.
    pub fn k_alpha(&self) {
        let n = self.pap_scratch.len();
        let pap: f64 = self.pap_scratch.slice(0..n).iter().sum();
        self.scalars.set(S_PAP, pap);
        let rr = *self.scalars.get(S_RR);
        self.scalars.set(S_ALPHA, rr / pap.max(1e-300));
    }

    /// `x += alpha·p` over `[a, b)`.
    pub fn k_axpy_x(&self, rows: Range<usize>) {
        let alpha = *self.scalars.get(S_ALPHA);
        let p = self.p.slice(rows.clone());
        let x = self.x.slice_mut(rows);
        for i in 0..x.len() {
            x[i] += alpha * p[i];
        }
    }

    /// `r -= alpha·ap` over `[a, b)`.
    pub fn k_axpy_r(&self, rows: Range<usize>) {
        let alpha = *self.scalars.get(S_ALPHA);
        let ap = self.ap.slice(rows.clone());
        let r = self.r.slice_mut(rows);
        for i in 0..r.len() {
            r[i] -= alpha * ap[i];
        }
    }

    /// Partial dot `r·r` over `[a, b)` into scratch `slot`.
    pub fn k_dot_rr(&self, rows: Range<usize>, slot: usize) {
        let r = self.r.slice(rows);
        let s: f64 = r.iter().map(|v| v * v).sum();
        self.rr_scratch.set(slot, s);
    }

    /// Reduce rr_new, compute `beta = rr_new / rr`, store `rr = rr_new`.
    pub fn k_beta(&self) {
        let n = self.rr_scratch.len();
        let rr_new: f64 = self.rr_scratch.slice(0..n).iter().sum();
        let rr = *self.scalars.get(S_RR);
        self.scalars.set(S_BETA, rr_new / rr.max(1e-300));
        self.scalars.set(S_RR, rr_new);
    }

    /// `p = r + beta·p` over `[a, b)`.
    pub fn k_update_p(&self, rows: Range<usize>) {
        let beta = *self.scalars.get(S_BETA);
        let r = self.r.slice(rows.clone());
        let p = self.p.slice_mut(rows);
        for i in 0..p.len() {
            p[i] = r[i] + beta * p[i];
        }
    }

    /// One full sequential CG iteration at `blocks` granularity.
    pub fn sequential_iteration(&self, blocks: usize) {
        let n = self.x.len();
        let ranges: Vec<(usize, usize)> = (0..blocks)
            .map(|i| (n * i / blocks, n * (i + 1) / blocks))
            .collect();
        for &(a, b) in &ranges {
            self.k_spmv(a..b);
        }
        for (slot, &(a, b)) in ranges.iter().enumerate() {
            self.k_dot_pap(a..b, slot);
        }
        self.k_alpha();
        for &(a, b) in &ranges {
            self.k_axpy_x(a..b);
        }
        for &(a, b) in &ranges {
            self.k_axpy_r(a..b);
        }
        for (slot, &(a, b)) in ranges.iter().enumerate() {
            self.k_dot_rr(a..b, slot);
        }
        self.k_beta();
        for &(a, b) in &ranges {
            self.k_update_p(a..b);
        }
    }

    /// Current residual norm `√(r·r)` from the bookkeeping scalar.
    pub fn residual(&self) -> f64 {
        self.scalars.get(S_RR).sqrt()
    }

    /// True residual `‖b − A·x‖` recomputed from scratch (uses `p`/`ap`
    /// as temporaries — call only at quiescent points).
    pub fn true_residual(&self) -> f64 {
        let n = self.x.len();
        let saved_p = self.p.snapshot();
        let saved_ap = self.ap.snapshot();
        for i in 0..n {
            self.p.set(i, *self.x.get(i));
        }
        self.k_spmv(0..n);
        let mut s = 0.0;
        for i in 0..n {
            let d = self.b.get(i) - self.ap.get(i);
            s += d * d;
        }
        for i in 0..n {
            self.p.set(i, saved_p[i]);
            self.ap.set(i, saved_ap[i]);
        }
        s.sqrt()
    }

    /// FNV digest of the solver state (bitwise-equality tests).
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        let mut mix = |v: f64| {
            h ^= v.to_bits();
            h = h.wrapping_mul(0x100000001b3);
        };
        let n = self.x.len();
        for &v in self.x.slice(0..n) {
            mix(v);
        }
        for &v in self.r.slice(0..n) {
            mix(v);
        }
        for &v in self.p.slice(0..n) {
            mix(v);
        }
        for &v in self.scalars.slice(0..4) {
            mix(v);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spmv_of_ones_is_row_sum() {
        // A·1: interior rows sum to 27 - 27 = ... diag 26, minus 26
        // neighbors -> 0? No: 26 - 26·1·(-1)·... A·1 = 26 - (#neighbors).
        let cfg = HpcgConfig::single(4, 1, 2);
        let st = HpcgState::new(&cfg);
        // interior row (1..2 each axis has full 26 neighbors): b = 0
        let nx = 4;
        let interior = (nx + 1) * nx + 1;
        assert_eq!(*st.b.get(interior), 0.0);
        // corner row has 7 neighbors: b = 26 - 7 = 19
        assert_eq!(*st.b.get(0), 19.0);
    }

    #[test]
    fn cg_converges_on_small_problem() {
        let cfg = HpcgConfig::single(6, 30, 4);
        let st = HpcgState::new(&cfg);
        let r0 = st.residual();
        for _ in 0..30 {
            st.sequential_iteration(4);
        }
        let r_end = st.residual();
        assert!(r_end < r0 * 1e-6, "CG must converge: {r0} -> {r_end}");
        // bookkeeping matches the true residual
        let tr = st.true_residual();
        assert!((tr - r_end).abs() < 1e-6 * r0.max(1.0));
        // solution approaches all-ones
        let err: f64 = (0..st.x.len())
            .map(|i| (st.x.get(i) - 1.0).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-6, "x must approach ones: max err {err}");
    }

    #[test]
    fn block_count_does_not_change_results_bitwise_for_same_blocks() {
        let run = |blocks: usize| {
            let cfg = HpcgConfig::single(5, 10, blocks);
            let st = HpcgState::new(&cfg);
            for _ in 0..10 {
                st.sequential_iteration(blocks);
            }
            st.residual()
        };
        // different blockings change summation order (allowed); results
        // agree to tolerance
        let a = run(1);
        let b = run(8);
        assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0));
    }

    #[test]
    fn residual_is_monotone_for_spd_system() {
        let cfg = HpcgConfig::single(5, 12, 4);
        let st = HpcgState::new(&cfg);
        let mut prev = st.residual();
        for _ in 0..12 {
            st.sequential_iteration(4);
            let r = st.residual();
            assert!(r <= prev * 1.0001, "residual must not grow: {prev} -> {r}");
            prev = r;
        }
    }
}
