//! # ptdg-cholesky — tile-based Cholesky factorization
//!
//! The classic dependent-task showcase (paper §4.4): a right-looking
//! blocked factorization `A = L·Lᵀ` over an `nt × nt` grid of `b × b`
//! tiles, with the standard four kernels (`potrf`, `trsm`, `syrk`,
//! `gemm`) and one dependency handle per tile. The dependency scheme is
//! *dense and regular* — which is precisely why the paper finds that the
//! edge optimizations (a)/(b)/(c) change nothing here, while the
//! persistent graph (p) accelerates discovery ~5× asymptotically across
//! repeated factorizations without moving end-to-end time (discovery is
//! <2% of total with such coarse tasks).
//!
//! Each "iteration" factors a fresh copy of the same SPD matrix
//! (re-initialized by per-tile reset tasks), matching the paper's
//! "iteratively decomposing matrices of same dimensions and tile size".

pub mod config;
pub mod program;
pub mod tiles;

pub use config::CholeskyConfig;
pub use program::CholeskyTask;
pub use tiles::{TileFields, TileMatrix};
