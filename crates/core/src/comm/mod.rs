//! In-process, shared-memory multi-rank communication for the Threads
//! backend.
//!
//! This is what makes `CommOp`'s detach contract real on wall-clock
//! threads: a comm task's body runs, the request is *posted* into a
//! [`CommWorld`] at body end, the core is released immediately, and the
//! task's `RtNode` completes (releasing successors) only when the request
//! matches — mirroring the OpenMP `detach(event)` + `MPI_Test` progress
//! loop of the paper's Listing 1, with the progress engine polled from
//! the executor's idle paths instead of a dedicated thread.
//!
//! Layout: [`CommWorld`] (engine.rs) owns one endpoint per rank — a
//! lock-free envelope inbox, a lock-free completion queue back to the
//! owning pool, and a mutex-guarded mailbox (mailbox.rs) holding the
//! rank's [`MatchTable`] (matching.rs), the clock-free (peer, tag)
//! matching core the simulator's network drives too. `Iallreduce` runs a
//! dissemination algorithm over the same mailboxes. Unmatchable programs
//! surface as a structured [`CommError`] (error.rs) shared with the DES
//! backend, via a timeout-free distributed-termination detector.

mod engine;
mod error;
mod mailbox;
mod matching;

pub use engine::{CommConfig, CommWorld};
pub use error::{CommError, UnmatchedComm, NO_PEER};
pub use mailbox::CommCompletion;
pub use matching::{is_rendezvous, MatchTable, Parked, EAGER_THRESHOLD};
