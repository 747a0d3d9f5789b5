//! The backend-agnostic runtime kernel.
//!
//! Everything semantic about executing a discovered task graph lives in
//! this module, shared verbatim by the wall-clock thread executor
//! ([`crate::exec`]) and the discrete-event simulator (`ptdg-simrt`):
//!
//! * [`RtNode`] / [`Completion`] — task state machine; the **only** place
//!   in the codebase that decrements dependence counters;
//! * [`GraphInstance`] — the [`crate::graph::GraphSink`] discovery writes
//!   into, with optional persistent capture;
//! * [`ReadyTracker`] — live/ready accounting;
//! * [`ThrottleGate`] / [`ThrottleConfig`] — producer throttling (§5);
//! * [`HoldGate`] — the *non-overlapped* configuration (Table 1);
//! * [`ReadyQueues`] / [`SchedPolicy`] — depth-first vs breadth-first
//!   ready-task placement and steal order;
//! * [`PersistentInstance`] — optimization (p) re-instancing with
//!   visibility tokens;
//! * [`RtProbe`] — unified profiling hooks.
//!
//! Back-ends are reduced to *policy*: when to run discovery, which core
//! consumes which queue, and what time means (wall-clock vs simulated).

mod arena;
mod deque;
mod gate;
mod injector;
mod instance;
mod node;
mod park;
mod persistent;
mod probe;
mod queue;
mod ready;
pub mod throttle;

pub use arena::{NodeArena, NodeRef};
pub use deque::{Steal, WorkDeque};
pub use gate::HoldGate;
pub use injector::Injector;
pub use instance::{GraphInstance, InstanceOptions};
pub use node::{Completion, RtNode};
pub use park::{ParkTicket, Parker};
pub use persistent::{PersistentInstance, REINSTANCE_BATCH};
pub use probe::{NullProbe, RtProbe};
pub use queue::{ReadyQueues, SchedPolicy, TaskKey};
pub use ready::ReadyTracker;
pub use throttle::{ThrottleConfig, ThrottleGate};
