//! Per-rank mailbox state: message envelopes, collective rounds and the
//! rank's [`MatchTable`].
//!
//! Cross-rank delivery is lock-free — senders push [`Envelope`]s into the
//! destination rank's [`crate::rt::Injector`] inbox — but *matching* is
//! owner-local: only threads of the owning rank drain the inbox, under
//! that rank's [`MatchState`] mutex, so per-(source, tag) FIFO order (MPI
//! non-overtaking) holds without any cross-rank locking.

use std::collections::HashMap;

use super::error::{UnmatchedComm, NO_PEER};
use super::matching::{MatchTable, Parked};
use crate::rt::NodeRef;

/// Tag bit reserved for collective round messages. User-visible p2p tags
/// must stay below `1 << 31`.
pub(crate) const COLL_TAG_BIT: u32 = 1 << 31;

/// Encode a collective round message tag. `seq` is the per-rank collective
/// sequence number (all ranks post collectives in the same order, the same
/// matching assumption the DES network makes), `round` the dissemination
/// round. The sequence is truncated; collisions would need 2^26 collectives
/// simultaneously in flight.
pub(crate) fn coll_tag(seq: u64, round: u32) -> u32 {
    debug_assert!(round < 32);
    COLL_TAG_BIT | (((seq as u32) & 0x03FF_FFFF) << 5) | round
}

/// Deferred completion of a comm task: everything the owning rank's pool
/// needs to finally complete the detached `RtNode` off-core.
pub struct CommCompletion {
    /// The detached task's node; `complete_with` is called on it by the
    /// owning rank's progress path, never by the matching thread.
    pub node: NodeRef,
    /// Engine-assigned request id (ties CommPosted/CommCompleted trace
    /// events together).
    pub req: u64,
    /// Post timestamp on the owning rank's clock (for `comm_wait_ns`).
    pub posted_ns: u64,
    /// True if this completion was forced by deadlock resolution rather
    /// than a real match.
    pub forced: bool,
}

/// A message in flight from `src` to the inbox owner.
pub(crate) struct Envelope {
    pub src: u32,
    pub tag: u32,
    /// Completion to route back to the sender when this message is
    /// consumed. `Some` only for rendezvous sends — eager senders complete
    /// at post time; collective round messages are always eager.
    pub sender_done: Option<CommCompletion>,
}

/// A receive posted into a rank's [`MatchTable`].
pub(crate) enum Waiter {
    /// A user `Irecv`, completed when its message arrives.
    Recv(CommCompletion),
    /// Collective `seq` waiting for its current round's message.
    Coll(u64),
}

/// A dissemination all-reduce in flight on one rank.
pub(crate) struct CollState {
    /// Completion for this rank's `Iallreduce` node.
    pub done: CommCompletion,
    /// Next round whose message this rank still waits for.
    pub round: u32,
}

/// All matching state of one rank, guarded by the endpoint mutex.
#[derive(Default)]
pub(crate) struct MatchState {
    /// Envelopes addressed to this rank, the receives (user `Irecv`s and
    /// collective rounds) waiting for them, requests naming a peer
    /// outside the world, and the census.
    pub table: MatchTable<Envelope, Waiter>,
    /// In-flight collectives keyed by sequence number.
    pub colls: HashMap<u64, CollState>,
    /// Next collective sequence number (posting order on this rank).
    pub next_coll_seq: u64,
}

impl MatchState {
    /// True if no request or message is parked in this rank's state.
    pub fn is_clean(&self) -> bool {
        self.table.is_empty() && self.colls.is_empty()
    }

    /// Drain every parked request/message for deadlock or end-of-run
    /// reporting: returns unmatched descriptions plus the completions to
    /// force, each tagged with the rank whose completion queue must
    /// receive it (a rendezvous sender's completion belongs to the
    /// *sender*, not to `rank`, the owner of this state).
    pub fn drain_pending(&mut self, rank: u32) -> (Vec<UnmatchedComm>, Vec<(u32, CommCompletion)>) {
        let mut unmatched = Vec::new();
        let mut forced = Vec::new();
        for (u, offer) in self.table.drain(rank) {
            match offer {
                Parked::Recv(Waiter::Recv(done)) => forced.push((rank, done)),
                Parked::Send(Envelope {
                    src,
                    sender_done: Some(done),
                    ..
                }) => forced.push((src, done)),
                _ => {}
            }
            // A collective's round waits and messages are implied by the
            // collective's own entry below.
            if u.tag & COLL_TAG_BIT == 0 {
                unmatched.push(u);
            }
        }
        for (seq, coll) in self.colls.drain() {
            unmatched.push(UnmatchedComm {
                rank,
                peer: NO_PEER,
                tag: seq as u32,
                op: "Iallreduce",
            });
            forced.push((rank, coll.done));
        }
        (unmatched, forced)
    }
}
