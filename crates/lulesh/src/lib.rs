//! # ptdg-lulesh — a LULESH-like hydrodynamics proxy application
//!
//! Reproduces the structure of the Livermore Unstructured Lagrangian
//! Explicit Shock Hydrodynamics proxy app as used by the paper: an `s³`
//! hexahedral mesh per MPI rank, a sequence of mesh-wide loops per time
//! step, 26-neighbor frontier exchanges (face/edge/corner messages of
//! O(s²)/O(s)/O(1) bytes), and a global reduction of the dynamic time
//! step. Three versions are provided:
//!
//! * [`sequential::run_sequential`] — the verification reference;
//! * [`LuleshTask`] — the dependent-task version (paper Listing 1):
//!   `taskloop`-style slicing with a TPL parameter, `inoutset` force
//!   accumulation, communication tasks with detached completion, optional
//!   `taskwait` fencing, and optimization (a) as the `fused_deps` flag.
//!   With [`LuleshTask::with_state`] it carries real arrays and runs on
//!   the `ptdg-core` thread executor producing bitwise-reproducible
//!   physics; without, it is a cost-model program for `ptdg-simrt`;
//! * [`LuleshBsp`] — the fork-join `parallel for` reference version.
//!
//! The physics is simplified (documented in `DESIGN.md`); the loop count,
//! dependency shape, footprints and message sizes — the quantities the
//! paper's study depends on — follow the original.

pub mod bsp_program;
pub mod config;
pub mod handles;
pub mod mesh;
pub mod sequential;
pub mod state;
pub mod task_program;

pub use bsp_program::LuleshBsp;
pub use config::LuleshConfig;
pub use handles::LuleshHandles;
pub use mesh::{Mesh, RankGrid};
pub use state::{LuleshFields, LuleshState};
pub use task_program::LuleshTask;
