//! # ptdg-core — a dependent-task runtime with optimized & persistent TDG discovery
//!
//! This crate is a from-scratch Rust analogue of the MPC-OMP tasking runtime
//! studied in *"Investigating Dependency Graph Discovery Impact on Task-based
//! MPI+OpenMP Applications Performances"* (Pereira, Roussel, Carribault,
//! Gautier — ICPP 2023). It provides:
//!
//! * **Dependent tasks** with OpenMP 5.1 access modes: `in`, `out`, `inout`
//!   and `inoutset` ([`AccessMode`]), declared against registered memory
//!   regions ([`DataHandle`]).
//! * **Sequential TDG discovery** ([`graph::DiscoveryEngine`]) — the
//!   single-producer unrolling of the task dependency graph — with the
//!   paper's edge-reduction optimizations:
//!   - **(b)** O(1) duplicate-edge elimination exploiting sequential
//!     submission ([`OptConfig::dedup_edges`]),
//!   - **(c)** `inoutset` redirect nodes turning `m·n` edges into `m+n`
//!     ([`OptConfig::inoutset_redirect`]),
//!   - automatic **edge pruning** to already-consumed predecessors (the
//!     default behaviour of non-persistent OpenMP runtimes).
//!
//!   Optimization **(a)** — minimizing the `depend` lists in user code — is
//!   by nature application-side; the bundled applications expose it as a
//!   `fused_deps` flag.
//! * A **persistent task dependency graph** — optimization **(p)** — that
//!   captures the graph of an iteration once ([`graph::GraphTemplate`]) and
//!   re-instances it on later iterations for the cost of a firstprivate
//!   `memcpy`, the paper's headline 15× discovery speedup.
//! * A **work-stealing executor** on real threads ([`exec::Executor`]) with
//!   the depth-first (LIFO local deque, FIFO steal) scheduling heuristic the
//!   paper relies on for cache reuse, plus a breadth-first mode, ready/live
//!   **task throttling** ([`ThrottleConfig`]), and a non-overlapped mode
//!   that fully unrolls the graph before execution (paper Table 1).
//! * A **task-level profiler** ([`profile`]) recording creation, schedule
//!   and completion events, with the work/overhead/idle breakdown of the
//!   paper (§2.3.1) and Gantt export.
//! * End-to-end **observability** ([`obs`]): a lock-free lifecycle event
//!   recorder fed by the kernel's [`rt::RtProbe`] hooks, kernel counters,
//!   a Chrome/Perfetto trace exporter, and critical-path analysis — the
//!   same signals from both back-ends.
//!
//! Performance *studies* (virtual 24-core nodes, cache hierarchy, MPI) run
//! on `ptdg-simrt`, which reuses this crate's discovery engine with a timed
//! cost model; this crate alone is a complete, usable shared-memory tasking
//! library.
//!
//! ## Quick example
//!
//! ```
//! use ptdg_core::prelude::*;
//! use std::sync::Arc;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let mut space = HandleSpace::new();
//! let x = space.region("x", 8);
//!
//! let exec = Executor::new(ExecConfig { n_workers: 2, ..Default::default() });
//! let acc = Arc::new(AtomicU64::new(0));
//!
//! let mut session = exec.session(OptConfig::all());
//! // producer: t1 writes x, t2 reads it — t2 runs strictly after t1
//! let a = acc.clone();
//! session.submit(
//!     TaskSpec::new("t1")
//!         .depend(x, AccessMode::Out)
//!         .body(move |_ctx| { a.fetch_add(1, Ordering::SeqCst); }),
//! );
//! let a = acc.clone();
//! session.submit(
//!     TaskSpec::new("t2")
//!         .depend(x, AccessMode::In)
//!         .body(move |_ctx| {
//!             assert_eq!(a.load(Ordering::SeqCst), 1);
//!             a.fetch_add(10, Ordering::SeqCst);
//!         }),
//! );
//! session.wait_all();
//! assert_eq!(acc.load(Ordering::SeqCst), 11);
//! ```

pub mod access;
pub mod builder;
pub mod comm;
pub mod data;
pub mod exec;
pub mod graph;
pub mod handle;
pub mod obs;
pub mod opts;
pub mod profile;
pub mod program;
pub mod rt;
pub mod task;
pub mod util;
pub mod workdesc;

pub use access::{AccessMode, Depend};
pub use builder::{IterationBuilder, SpecBuf, TaskSubmitter};
pub use comm::{CommConfig, CommError, CommWorld, UnmatchedComm};
pub use exec::{ExecConfig, Executor, SchedPolicy, Session};
pub use handle::{DataHandle, HandleSpace};
pub use opts::OptConfig;
pub use program::{Rank, RankProgram};
pub use rt::{ThrottleConfig, ThrottleGate};
pub use task::{SpecView, TaskBody, TaskCtx, TaskId, TaskSpec};
pub use workdesc::{CommOp, HandleSlice, WorkDesc};

/// Convenience re-exports for application code.
pub mod prelude {
    pub use crate::access::{AccessMode, Depend};
    pub use crate::builder::{IterationBuilder, SpecBuf, TaskSubmitter};
    pub use crate::data::SharedVec;
    pub use crate::exec::{ExecConfig, Executor, SchedPolicy, Session};
    pub use crate::graph::{DiscoveryEngine, DiscoveryStats, GraphTemplate};
    pub use crate::handle::{DataHandle, HandleSpace};
    pub use crate::opts::OptConfig;
    pub use crate::program::{Rank, RankProgram};
    pub use crate::rt::ThrottleConfig;
    pub use crate::task::{TaskCtx, TaskId, TaskSpec};
    pub use crate::workdesc::{CommOp, HandleSlice, WorkDesc};
}
