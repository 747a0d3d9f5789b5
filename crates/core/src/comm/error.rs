//! Structured error for communication that can never complete.
//!
//! Shared by both back-ends: the Threads comm engine ([`super::CommWorld`])
//! reports it when its deadlock detector fires or when a run finishes with
//! unconsumed messages, and the simulator's network reports what is still
//! parked at the end of a run. Both build it with
//! [`CommError::from_unmatched`], so the entries come in one order.

use std::fmt;

/// Sentinel peer for operations with no single peer (collectives).
pub const NO_PEER: u32 = u32::MAX;

/// One communication request (or message) that could not be matched.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnmatchedComm {
    /// Rank that owns the request (the poster; for an orphaned message,
    /// the sender).
    pub rank: u32,
    /// The peer the request names ([`NO_PEER`] for collectives).
    pub peer: u32,
    /// Match tag (for collectives: the collective's index in this rank's
    /// posting order, from 0).
    pub tag: u32,
    /// Operation kind, e.g. `"Isend"`, `"Irecv"`, `"Iallreduce"`.
    pub op: &'static str,
}

impl fmt::Display for UnmatchedComm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.peer == NO_PEER {
            write!(
                f,
                "rank {} {} (collective {})",
                self.rank, self.op, self.tag
            )
        } else {
            write!(
                f,
                "rank {} {} peer {} tag {}",
                self.rank, self.op, self.peer, self.tag
            )
        }
    }
}

/// A program posted communication requests that can never complete: the
/// run either deadlocked waiting on them (every rank idle with requests
/// pending) or finished with messages nobody received.
///
/// The triples name every endpoint the engine could still see: pending
/// receives, unmatched (rendezvous or undelivered) sends, and collectives
/// that never completed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommError {
    /// Every unmatched request/message, sorted by (rank, peer, tag, op).
    pub unmatched: Vec<UnmatchedComm>,
}

impl CommError {
    /// The error naming `unmatched` in report order, or `None` if the
    /// list is empty.
    pub fn from_unmatched(mut unmatched: Vec<UnmatchedComm>) -> Option<CommError> {
        unmatched.sort_by_key(|u| (u.rank, u.peer, u.tag, u.op));
        (!unmatched.is_empty()).then_some(CommError { unmatched })
    }
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unmatched communication requests ({}): ",
            self.unmatched.len()
        )?;
        for (i, u) in self.unmatched.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{u}")?;
        }
        Ok(())
    }
}

impl std::error::Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_triples() {
        let e = CommError {
            unmatched: vec![
                UnmatchedComm {
                    rank: 0,
                    peer: 1,
                    tag: 7,
                    op: "Irecv",
                },
                UnmatchedComm {
                    rank: 2,
                    peer: NO_PEER,
                    tag: 1,
                    op: "Iallreduce",
                },
            ],
        };
        let s = e.to_string();
        assert!(s.contains("rank 0 Irecv peer 1 tag 7"), "{s}");
        assert!(s.contains("rank 2 Iallreduce (collective 1)"), "{s}");
        assert!(s.starts_with("unmatched communication requests (2)"), "{s}");
    }
}
