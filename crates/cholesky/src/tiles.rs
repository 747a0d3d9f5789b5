//! Tile storage and the four dense kernels.
//!
//! Naive `O(b³)` loops — clarity over BLAS speed; correctness tests
//! factor small matrices and verify `L·Lᵀ = A` directly.

use ptdg_core::data::SharedVec;
use ptdg_simcore::SplitRng;
use std::ops::Deref;
use std::sync::Arc;

/// The lower-triangular tiles of an SPD matrix, plus a pristine copy used
/// to re-initialize between repeated factorizations.
///
/// A handle to one shared [`TileFields`]: cloning it (one per task body)
/// bumps a single reference count instead of copying the pristine tiles,
/// and field reads go through [`Deref`].
#[derive(Clone)]
pub struct TileMatrix(pub(crate) Arc<TileFields>);

/// The tiles behind a [`TileMatrix`].
pub struct TileFields {
    /// Tiles per edge.
    pub nt: usize,
    /// Tile edge.
    pub b: usize,
    /// Working tiles, row-major within each `b×b` tile; indexed by
    /// [`TileMatrix::t`] for `i ≥ j`.
    pub tiles: Vec<SharedVec<f64>>,
    /// The original matrix content (for resets and verification).
    pub original: Vec<Vec<f64>>,
}

impl Deref for TileMatrix {
    type Target = TileFields;

    fn deref(&self) -> &TileFields {
        &self.0
    }
}

impl TileMatrix {
    /// Linear index of tile `(i, j)`, `i ≥ j`.
    pub fn t(&self, i: usize, j: usize) -> usize {
        debug_assert!(i >= j && i < self.nt);
        i * (i + 1) / 2 + j
    }

    /// Generate a random SPD matrix `A = M·Mᵀ + n·I` with a fixed seed.
    pub fn new_spd(nt: usize, b: usize, seed: u64) -> TileMatrix {
        let n = nt * b;
        let mut rng = SplitRng::new(seed);
        let m: Vec<f64> = (0..n * n).map(|_| 2.0 * rng.next_f64() - 1.0).collect();
        // A = M Mᵀ + n I (dense, then tiled)
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut s = 0.0;
                for k in 0..n {
                    s += m[i * n + k] * m[j * n + k];
                }
                a[i * n + j] = s + if i == j { n as f64 } else { 0.0 };
            }
        }
        let mut tiles = Vec::new();
        let mut original = Vec::new();
        for ti in 0..nt {
            for tj in 0..=ti {
                let mut tile = vec![0.0f64; b * b];
                for r in 0..b {
                    for c in 0..b {
                        let (gi, gj) = (ti * b + r, tj * b + c);
                        if gi >= gj {
                            tile[r * b + c] = a[gi * n + gj];
                        }
                    }
                }
                original.push(tile.clone());
                tiles.push(SharedVec::from_vec(tile));
            }
        }
        TileMatrix(Arc::new(TileFields {
            nt,
            b,
            tiles,
            original,
        }))
    }

    /// Reset one tile to its original content.
    pub fn k_reset(&self, idx: usize) {
        let b2 = self.b * self.b;
        let dst = self.tiles[idx].slice_mut(0..b2);
        dst.copy_from_slice(&self.original[idx]);
    }

    /// `potrf`: in-place Cholesky of the diagonal tile `(k, k)`.
    pub fn k_potrf(&self, k: usize) {
        let b = self.b;
        let a = self.tiles[self.t(k, k)].slice_mut(0..b * b);
        for j in 0..b {
            let mut d = a[j * b + j];
            for p in 0..j {
                d -= a[j * b + p] * a[j * b + p];
            }
            assert!(d > 0.0, "matrix is not positive definite at ({k},{j})");
            let d = d.sqrt();
            a[j * b + j] = d;
            for i in (j + 1)..b {
                let mut s = a[i * b + j];
                for p in 0..j {
                    s -= a[i * b + p] * a[j * b + p];
                }
                a[i * b + j] = s / d;
            }
            for i in 0..j {
                a[i * b + j] = 0.0; // zero the upper triangle for clean L
            }
        }
    }

    /// `trsm`: `A(i,k) ← A(i,k) · L(k,k)⁻ᵀ`.
    pub fn k_trsm(&self, i: usize, k: usize) {
        let b = self.b;
        let lkk = self.tiles[self.t(k, k)].slice(0..b * b);
        let aik = self.tiles[self.t(i, k)].slice_mut(0..b * b);
        for r in 0..b {
            for c in 0..b {
                let mut s = aik[r * b + c];
                for p in 0..c {
                    s -= aik[r * b + p] * lkk[c * b + p];
                }
                aik[r * b + c] = s / lkk[c * b + c];
            }
        }
    }

    /// `syrk`/`gemm`: `A(i,j) ← A(i,j) − A(i,k)·A(j,k)ᵀ`.
    pub fn k_update(&self, i: usize, j: usize, k: usize) {
        let b = self.b;
        let aik = self.tiles[self.t(i, k)].slice(0..b * b);
        let ajk = self.tiles[self.t(j, k)].slice(0..b * b);
        let aij = self.tiles[self.t(i, j)].slice_mut(0..b * b);
        for r in 0..b {
            for c in 0..b {
                let mut s = 0.0;
                for p in 0..b {
                    s += aik[r * b + p] * ajk[c * b + p];
                }
                aij[r * b + c] -= s;
            }
        }
    }

    /// Sequential right-looking factorization (reference).
    pub fn factor_sequential(&self) {
        for k in 0..self.nt {
            self.k_potrf(k);
            for i in (k + 1)..self.nt {
                self.k_trsm(i, k);
            }
            for i in (k + 1)..self.nt {
                for j in (k + 1)..=i {
                    self.k_update(i, j, k);
                }
            }
        }
    }

    /// Maximum absolute error of `L·Lᵀ` against the original matrix
    /// (lower triangle).
    pub fn factorization_error(&self) -> f64 {
        let (nt, b) = (self.nt, self.b);
        let n = nt * b;
        // reconstruct dense L
        let mut l = vec![0.0f64; n * n];
        for ti in 0..nt {
            for tj in 0..=ti {
                let tile = self.tiles[self.t(ti, tj)].slice(0..b * b);
                for r in 0..b {
                    for c in 0..b {
                        let (gi, gj) = (ti * b + r, tj * b + c);
                        if gi >= gj {
                            l[gi * n + gj] = tile[r * b + c];
                        }
                    }
                }
            }
        }
        // compare L·Lᵀ with the original
        let mut max_err = 0.0f64;
        for ti in 0..nt {
            for tj in 0..=ti {
                let orig = &self.original[self.t(ti, tj)];
                for r in 0..b {
                    for c in 0..b {
                        let (gi, gj) = (ti * b + r, tj * b + c);
                        if gi < gj {
                            continue;
                        }
                        let mut s = 0.0;
                        for p in 0..=gj {
                            s += l[gi * n + p] * l[gj * n + p];
                        }
                        max_err = max_err.max((s - orig[r * b + c]).abs());
                    }
                }
            }
        }
        max_err
    }

    /// FNV digest of all tiles.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        let b2 = self.b * self.b;
        for t in &self.tiles {
            for &v in t.slice(0..b2) {
                h ^= v.to_bits();
                h = h.wrapping_mul(0x100000001b3);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_factorization_is_correct() {
        let m = TileMatrix::new_spd(4, 6, 42);
        m.factor_sequential();
        let err = m.factorization_error();
        assert!(err < 1e-9, "L·Lᵀ must equal A: max err {err}");
    }

    #[test]
    fn reset_restores_original() {
        let m = TileMatrix::new_spd(3, 4, 7);
        let before = m.digest();
        m.factor_sequential();
        assert_ne!(m.digest(), before);
        for idx in 0..m.tiles.len() {
            m.k_reset(idx);
        }
        assert_eq!(m.digest(), before);
    }

    #[test]
    fn repeated_factorizations_are_identical() {
        let m = TileMatrix::new_spd(3, 5, 9);
        m.factor_sequential();
        let d1 = m.digest();
        for idx in 0..m.tiles.len() {
            m.k_reset(idx);
        }
        m.factor_sequential();
        assert_eq!(m.digest(), d1);
    }

    #[test]
    fn generator_is_seeded() {
        let a = TileMatrix::new_spd(2, 4, 1).digest();
        let b = TileMatrix::new_spd(2, 4, 1).digest();
        let c = TileMatrix::new_spd(2, 4, 2).digest();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn tile_indexing() {
        let m = TileMatrix::new_spd(4, 2, 0);
        assert_eq!(m.t(0, 0), 0);
        assert_eq!(m.t(1, 0), 1);
        assert_eq!(m.t(1, 1), 2);
        assert_eq!(m.t(3, 3), 9);
    }
}
