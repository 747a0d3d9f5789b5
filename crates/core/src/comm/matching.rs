//! The clock-free (peer, tag) matching core both back-ends drive.
//!
//! One [`MatchTable`] belongs to one receiving rank. It pairs sends
//! (messages addressed to that rank) with posted receives by
//! `(peer, tag)`, oldest first on each side, which is MPI's
//! non-overtaking order. It knows nothing of time or threads: the
//! Threads engine keeps one per rank behind the endpoint mutex and feeds
//! it envelopes; the simulator's `Network` keeps one per rank and works
//! out completion times from what a match returns. Each back-end picks
//! the types it parks (`S` for sends, `R` for receives).

use std::collections::{HashMap, VecDeque};

use super::error::UnmatchedComm;

/// Default eager threshold of both back-ends: messages of at most this
/// many bytes complete their sender at post time, larger ones use the
/// rendezvous protocol (see [`is_rendezvous`]).
pub const EAGER_THRESHOLD: u64 = 16 * 1024;

/// Whether a message of `bytes` uses the rendezvous protocol under
/// `eager_threshold`: the sender completes only once a receive takes it.
pub fn is_rendezvous(bytes: u64, eager_threshold: u64) -> bool {
    bytes > eager_threshold
}

/// An offer the table holds, as [`MatchTable::drain`] hands it back.
#[derive(Debug, PartialEq, Eq)]
pub enum Parked<S, R> {
    /// A message (or, if unmatchable, a send this rank posted).
    Send(S),
    /// A posted receive.
    Recv(R),
}

type Fifos<T> = HashMap<(u32, u32), VecDeque<T>>;

/// One receiving rank's matching state: FIFOs of parked sends and of
/// posted receives per `(peer, tag)`, the offers this rank posted to a
/// peer outside the job, and the unexpected-message census.
#[derive(Debug)]
pub struct MatchTable<S, R> {
    sends: Fifos<S>,
    recvs: Fifos<R>,
    unmatchable: Vec<(u32, u32, Parked<S, R>)>,
    unexpected: u64,
}

impl<S, R> Default for MatchTable<S, R> {
    fn default() -> Self {
        MatchTable {
            sends: HashMap::new(),
            recvs: HashMap::new(),
            unmatchable: Vec::new(),
            unexpected: 0,
        }
    }
}

impl<S, R> MatchTable<S, R> {
    /// Offer a message from `peer` with `tag`: returns it with the oldest
    /// receive waiting on that key, or parks it. A parked message counts
    /// as unexpected (no receive was waiting for it).
    pub fn offer_send(&mut self, peer: u32, tag: u32, send: S) -> Option<(S, R)> {
        match pop_oldest(&mut self.recvs, (peer, tag)) {
            Some(recv) => Some((send, recv)),
            None => {
                self.unexpected += 1;
                self.sends.entry((peer, tag)).or_default().push_back(send);
                None
            }
        }
    }

    /// Offer a receive for a message from `peer` with `tag`: returns the
    /// oldest parked message on that key with the receive, or parks it.
    pub fn offer_recv(&mut self, peer: u32, tag: u32, recv: R) -> Option<(S, R)> {
        match pop_oldest(&mut self.sends, (peer, tag)) {
            Some(send) => Some((send, recv)),
            None => {
                self.recvs.entry((peer, tag)).or_default().push_back(recv);
                None
            }
        }
    }

    /// Keep an offer this rank posted naming a `peer` outside the job:
    /// it can never match, only be drained.
    pub fn park_unmatchable(&mut self, peer: u32, tag: u32, offer: Parked<S, R>) {
        self.unmatchable.push((peer, tag, offer));
    }

    /// Messages parked so far because no receive was waiting for them
    /// (the `unexpected_msgs` counter); draining does not reset it.
    pub fn unexpected(&self) -> u64 {
        self.unexpected
    }

    /// True if nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.recvs.is_empty() && self.unmatchable.is_empty()
    }

    /// Empty the table of rank `owner` for the unmatched report: each
    /// offer with the entry naming it. Receives come first, then
    /// messages (owned by their sender), each by `(peer, tag)` and
    /// oldest first within a key; then the unmatchable offers in posting
    /// order.
    pub fn drain(&mut self, owner: u32) -> Vec<(UnmatchedComm, Parked<S, R>)> {
        let recvs = drain_sorted(&mut self.recvs).map(|(p, t, r)| (owner, p, t, Parked::Recv(r)));
        let sends = drain_sorted(&mut self.sends).map(|(p, t, s)| (p, owner, t, Parked::Send(s)));
        let unmatchable = self.unmatchable.drain(..).map(|(p, t, o)| (owner, p, t, o));
        let entry = |(rank, peer, tag, offer)| {
            let op = match offer {
                Parked::Send(_) => "Isend",
                Parked::Recv(_) => "Irecv",
            };
            let u = UnmatchedComm {
                rank,
                peer,
                tag,
                op,
            };
            (u, offer)
        };
        recvs.chain(sends).chain(unmatchable).map(entry).collect()
    }
}

fn pop_oldest<T>(fifos: &mut Fifos<T>, key: (u32, u32)) -> Option<T> {
    let q = fifos.get_mut(&key)?;
    let item = q.pop_front();
    if q.is_empty() {
        fifos.remove(&key);
    }
    item
}

fn drain_sorted<T>(fifos: &mut Fifos<T>) -> impl Iterator<Item = (u32, u32, T)> {
    let mut keyed: Vec<_> = fifos.drain().collect();
    keyed.sort_unstable_by_key(|&(key, _)| key);
    keyed
        .into_iter()
        .flat_map(|((peer, tag), q)| q.into_iter().map(move |item| (peer, tag, item)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matching_is_fifo_per_key_on_both_sides() {
        let mut t: MatchTable<&str, &str> = MatchTable::default();
        assert!(t.offer_send(0, 7, "s1").is_none());
        assert!(t.offer_send(0, 7, "s2").is_none());
        assert_eq!(t.offer_recv(0, 7, "r1"), Some(("s1", "r1")));
        assert_eq!(t.offer_recv(0, 7, "r2"), Some(("s2", "r2")));
        assert!(t.offer_recv(0, 7, "r3").is_none());
        assert!(t.offer_recv(0, 7, "r4").is_none());
        assert_eq!(t.offer_send(0, 7, "s3"), Some(("s3", "r3")));
        assert_eq!(t.offer_send(0, 7, "s4"), Some(("s4", "r4")));
        assert!(t.is_empty());
        assert_eq!(t.unexpected(), 2, "only s1 and s2 waited for a receive");
    }

    #[test]
    fn peer_and_tag_both_key_the_match() {
        let mut t: MatchTable<u32, u32> = MatchTable::default();
        assert!(t.offer_send(0, 1, 10).is_none());
        assert!(t.offer_recv(0, 2, 20).is_none(), "tag differs");
        assert!(t.offer_recv(1, 1, 30).is_none(), "peer differs");
        assert_eq!(t.offer_recv(0, 1, 40), Some((10, 40)));
        assert!(!t.is_empty());
    }

    #[test]
    fn drain_reports_in_key_order_and_keeps_the_census() {
        let mut t: MatchTable<u32, u32> = MatchTable::default();
        t.offer_send(2, 0, 1);
        t.offer_send(0, 5, 2);
        t.offer_send(0, 5, 3);
        t.offer_recv(1, 9, 4);
        t.offer_recv(0, 9, 5);
        t.park_unmatchable(7, 1, Parked::Send(6));
        t.park_unmatchable(8, 2, Parked::Recv(7));
        let drained: Vec<_> = t
            .drain(3)
            .into_iter()
            .map(|(u, p)| ((u.rank, u.peer, u.tag, u.op), p))
            .collect();
        assert_eq!(
            drained,
            vec![
                ((3, 0, 9, "Irecv"), Parked::Recv(5)),
                ((3, 1, 9, "Irecv"), Parked::Recv(4)),
                ((0, 3, 5, "Isend"), Parked::Send(2)),
                ((0, 3, 5, "Isend"), Parked::Send(3)),
                ((2, 3, 0, "Isend"), Parked::Send(1)),
                ((3, 7, 1, "Isend"), Parked::Send(6)),
                ((3, 8, 2, "Irecv"), Parked::Recv(7)),
            ]
        );
        assert!(t.is_empty());
        assert_eq!(t.unexpected(), 3, "unmatchable offers are not unexpected");
    }

    #[test]
    fn protocol_switches_above_the_threshold() {
        assert!(!is_rendezvous(EAGER_THRESHOLD, EAGER_THRESHOLD));
        assert!(is_rendezvous(EAGER_THRESHOLD + 1, EAGER_THRESHOLD));
    }
}
