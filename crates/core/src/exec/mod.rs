//! The shared-memory work-stealing executor.
//!
//! This is the *thread-pool policy layer* over the runtime kernel
//! ([`crate::rt`]) — the "runtime" half of the paper's study, on real
//! threads:
//!
//! * one **producer** (the thread owning a [`Session`]) discovers the TDG
//!   sequentially through [`crate::graph::DiscoveryEngine`], concurrently
//!   with execution — exactly the single-producer discovery whose speed the
//!   paper measures. Discovery writes into a kernel
//!   [`crate::rt::GraphInstance`];
//! * `n_workers` **workers** execute ready tasks off the kernel's
//!   [`crate::rt::ReadyQueues`]. The default scheduling policy is the
//!   paper's depth-first heuristic: a completing worker pushes newly-ready
//!   successors onto its own LIFO deque, so the tasks that reuse
//!   just-produced data run next on the same core; other workers steal
//!   from the opposite (FIFO) end. A breadth-first mode (global FIFO
//!   queue) is provided for comparison;
//! * **throttling** ([`crate::rt::ThrottleConfig`]) can turn the
//!   producer into a consumer when ready/live bounds are exceeded;
//! * the kernel's **hold gate** supports the paper's *non-overlapped*
//!   configuration (Table 1): the whole graph is discovered before any
//!   task runs;
//! * [`PersistentRegion`] implements optimization **(p)** over the
//!   kernel's [`crate::rt::PersistentInstance`]: iteration 0 is discovered
//!   once (concurrently with its execution) while a
//!   [`crate::graph::TemplateRecorder`] captures every node and edge;
//!   the first replay instances the captured graph once, and every replay
//!   re-instances it by resetting dependence counters and re-writing
//!   firstprivate data — no depend processing, no edge creation, and no
//!   allocation after that first replay;
//! * [`run_program`] runs a whole [`crate::program::RankProgram`] — the
//!   same value the DES back-end in `ptdg-simrt` accepts.

mod executor;
mod persistent;
mod run;
mod session;
#[cfg(test)]
mod tests;

pub use executor::{default_workers, ExecConfig, Executor, SchedPolicy};
pub use persistent::PersistentRegion;
pub use run::{run_program, ThreadsConfig, ThreadsReport};
pub use session::Session;
