//! # ptdg-simmpi — a simulated MPI layer in virtual time
//!
//! Stands in for Open MPI 4.1.4 over the BXI interconnect used by the
//! paper's distributed experiments (substitution documented in DESIGN.md).
//! It models exactly the protocol behaviours the paper's analysis depends
//! on:
//!
//! * **Non-blocking point-to-point** with an **eager / rendezvous**
//!   protocol switch on message size: LULESH's O(1) node and O(s) edge
//!   messages go eager, its O(s²) face messages go rendezvous (paper §4.1)
//!   — a rendezvous send cannot complete before the matching receive is
//!   posted, so *earlier posting* (what fast TDG discovery enables) directly
//!   shortens communication time.
//! * **`Iallreduce`** as a recursive-doubling tree: the operation completes
//!   `⌈log₂ P⌉` stages after the *last* rank joins, so one laggard rank
//!   (e.g. one whose discovery stalled, or one waiting on a persistent-TDG
//!   iteration barrier) inflates everyone's collective time — the effect
//!   visible in the paper's Fig. 8 Gantt charts.
//! * **Per-request communication metrics** matching the paper's PMPI
//!   methodology: `c(r)` = posting to completion, reduced per rank over
//!   send and collective requests only.
//!
//! The network is a passive state machine driven by the discrete-event
//! scheduler of `ptdg-simrt`: posting calls return [`Completion`]s that the
//! caller turns into future events.
//! (peer, tag) matching, the unexpected-message census and the unmatched
//! report come from [`ptdg_core::comm::MatchTable`], the clock-free core
//! the Threads engine drives too; this crate adds only time.

mod collective;
mod config;
mod network;
mod request;

pub use collective::CollectiveState;
pub use config::NetConfig;
pub use network::{Completion, Network};
pub use request::{ReqId, ReqKind, Request};

/// Rank index within the simulated job.
pub type Rank = u32;
