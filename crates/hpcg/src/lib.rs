//! # ptdg-hpcg — the High Performance Conjugate Gradient benchmark
//!
//! A from-scratch conjugate-gradient solver over the standard HPCG
//! operator: the 27-point stencil on an `n³` grid (diagonal 26,
//! off-diagonals −1 — symmetric positive definite), with the paper's two
//! parallelizations (§4.3):
//!
//! * [`HpcgTask`] — the dependent-task version: vector-wise loops sliced
//!   into TPL blocks, SpMV row-blocks depending on the neighbouring
//!   vector blocks, partial dot-products concurrently writing a scratch
//!   vector (`inoutset`) reduced by a single task carrying the MPI
//!   `Iallreduce`, and 6-face halo exchanges of the search direction;
//! * [`HpcgBsp`] — the reference `parallel for` version with barriers and
//!   blocking communication.
//!
//! Like the LULESH crate, the task program runs with real arrays on the
//! thread executor (single rank, bitwise equal to the sequential
//! reference) or as a cost model on the virtual executor (any rank
//! count).

pub mod bsp_program;
pub mod config;
pub mod handles;
pub mod state;
pub mod task_program;

pub use bsp_program::HpcgBsp;
pub use config::HpcgConfig;
pub use handles::HpcgHandles;
pub use state::{HpcgFields, HpcgState};
pub use task_program::HpcgTask;
