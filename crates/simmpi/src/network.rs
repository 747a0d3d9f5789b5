//! The message-matching network state machine.
//!
//! Matching itself is the clock-free core shared with the Threads
//! engine ([`MatchTable`], one per destination rank); this module adds
//! time: eager/rendezvous completion arithmetic and collective rounds.

use crate::collective::CollectiveState;
use crate::config::NetConfig;
use crate::request::{ReqId, ReqKind, Request};
use crate::Rank;
use ptdg_core::comm::{MatchTable, Parked, UnmatchedComm, NO_PEER};
use ptdg_simcore::SimTime;

/// A determined future completion: the caller (the discrete-event
/// executor) schedules an event at `at` and then delivers the completion
/// to whatever task detached on `req`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// The request that completes.
    pub req: ReqId,
    /// When it completes (poll delay already included).
    pub at: SimTime,
}

/// The simulated interconnect: P2P matching plus collective rounds.
#[derive(Debug)]
pub struct Network {
    cfg: NetConfig,
    n_ranks: u32,
    requests: Vec<Request>,
    /// Per destination rank: parked send and receive requests keyed by
    /// (source, tag), that rank's requests naming a rank outside the job
    /// (they never complete), and its unexpected-message census.
    tables: Vec<MatchTable<ReqId, ReqId>>,
    round_of_rank: Vec<u32>,
    rounds: Vec<CollectiveState>,
}

impl Network {
    /// A network joining `n_ranks` ranks.
    pub fn new(cfg: NetConfig, n_ranks: u32) -> Self {
        assert!(n_ranks >= 1);
        Network {
            cfg,
            n_ranks,
            requests: Vec::new(),
            tables: (0..n_ranks).map(|_| MatchTable::default()).collect(),
            round_of_rank: vec![0; n_ranks as usize],
            rounds: Vec::new(),
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Number of ranks.
    pub fn n_ranks(&self) -> u32 {
        self.n_ranks
    }

    fn new_request(&mut self, rank: Rank, kind: ReqKind, bytes: u64, now: SimTime) -> ReqId {
        let id = ReqId(self.requests.len() as u64);
        self.requests.push(Request {
            id,
            rank,
            kind,
            bytes,
            posted_at: now,
            completed_at: None,
        });
        id
    }

    fn finish(&mut self, req: ReqId, at: SimTime, out: &mut Vec<Completion>) {
        let at = at + self.cfg.poll_delay;
        let r = &mut self.requests[req.0 as usize];
        debug_assert!(r.completed_at.is_none(), "request completed twice");
        r.completed_at = Some(at);
        out.push(Completion { req, at });
    }

    /// When `req` was fully posted (its post cost paid).
    fn posted(&self, req: ReqId) -> SimTime {
        self.requests[req.0 as usize].posted_at + self.cfg.post_cost
    }

    /// Complete what the match of `send` with `recv` completes.
    fn complete_match(&mut self, send: ReqId, recv: ReqId, out: &mut Vec<Completion>) {
        let (sent, posted) = (self.posted(send), self.posted(recv));
        let bytes = self.requests[send.0 as usize].bytes;
        let wire = self.cfg.latency + self.cfg.transfer_time(bytes);
        if self.cfg.is_rendezvous(bytes) {
            // Rendezvous: handshake once both sides are posted, then
            // transfer; both sides complete together.
            let done = sent.max(posted) + self.cfg.rendezvous_rtt + wire;
            self.finish(send, done, out);
            self.finish(recv, done, out);
        } else {
            // Eager: the data is in flight (or already here) since the
            // send was posted.
            self.finish(recv, (sent + wire).max(posted), out);
        }
    }

    /// Post a non-blocking send from `src` to `dst`.
    pub fn post_isend(
        &mut self,
        now: SimTime,
        src: Rank,
        dst: Rank,
        tag: u32,
        bytes: u64,
    ) -> (ReqId, Vec<Completion>) {
        let req = self.new_request(src, ReqKind::Send, bytes, now);
        let mut out = Vec::new();
        if dst >= self.n_ranks {
            self.tables[src as usize].park_unmatchable(dst, tag, Parked::Send(req));
            return (req, out);
        }
        if !self.cfg.is_rendezvous(bytes) {
            // Eager: the send buffers locally and completes regardless
            // of the receiver.
            let done = self.posted(req) + self.cfg.transfer_time(bytes);
            self.finish(req, done, &mut out);
        }
        // A rendezvous send with no receive yet stalls until one is
        // posted — the cost of late posting.
        if let Some((_, recv)) = self.tables[dst as usize].offer_send(src, tag, req) {
            self.complete_match(req, recv, &mut out);
        }
        (req, out)
    }

    /// Post a non-blocking receive on `dst` for a message from `src`.
    pub fn post_irecv(
        &mut self,
        now: SimTime,
        src: Rank,
        dst: Rank,
        tag: u32,
        bytes: u64,
    ) -> (ReqId, Vec<Completion>) {
        let req = self.new_request(dst, ReqKind::Recv, bytes, now);
        let mut out = Vec::new();
        if src >= self.n_ranks {
            self.tables[dst as usize].park_unmatchable(src, tag, Parked::Recv(req));
        } else if let Some((send, _)) = self.tables[dst as usize].offer_recv(src, tag, req) {
            self.complete_match(send, req, &mut out);
        }
        (req, out)
    }

    /// Join this rank's next all-reduce round.
    pub fn post_iallreduce(
        &mut self,
        now: SimTime,
        rank: Rank,
        bytes: u64,
    ) -> (ReqId, Vec<Completion>) {
        let req = self.new_request(rank, ReqKind::Allreduce, bytes, now);
        let mut out = Vec::new();
        let now = now + self.cfg.post_cost;
        let round = self.round_of_rank[rank as usize] as usize;
        self.round_of_rank[rank as usize] += 1;
        while self.rounds.len() <= round {
            self.rounds.push(CollectiveState::new(self.n_ranks));
        }
        if self.rounds[round].join(rank, req, bytes, now) {
            let done =
                self.rounds[round].last_join() + self.cfg.collective_tree_time(self.n_ranks, bytes);
            let reqs: Vec<ReqId> = self.rounds[round].requests().collect();
            for r in reqs {
                self.finish(r, done, &mut out);
            }
        }
        (req, out)
    }

    /// Inspect one request.
    pub fn request(&self, id: ReqId) -> &Request {
        &self.requests[id.0 as usize]
    }

    /// All requests, in posting order.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Whether every posted request has completed (end-of-run sanity).
    pub fn all_complete(&self) -> bool {
        self.requests.iter().all(|r| r.completed_at.is_some())
    }

    /// Unexpected-message count observed by `rank` so far: sends that
    /// parked because no receive was waiting for them.
    pub fn unexpected_count(&self, rank: Rank) -> u64 {
        self.tables[rank as usize].unexpected()
    }

    /// Empty the matching state at the end of a run and name everything
    /// still in it: unmatched sends (owned by the sender) and receives,
    /// requests naming an out-of-range peer, and one `Iallreduce` entry
    /// (tag = the collective's index in posting order) per joined rank of
    /// every collective still missing participants. A parked *eager*
    /// send appears here even though its request completed — the message
    /// was still never received. Unsorted;
    /// [`ptdg_core::comm::CommError::from_unmatched`] orders it.
    pub fn unmatched(&mut self) -> Vec<UnmatchedComm> {
        let mut out = Vec::new();
        for (rank, table) in (0..).zip(&mut self.tables) {
            out.extend(table.drain(rank).into_iter().map(|(u, _)| u));
        }
        for (round, coll) in self.rounds.iter().enumerate() {
            if coll.n_joined > 0 && (coll.n_joined as usize) < coll.joined.len() {
                for (rank, slot) in coll.joined.iter().enumerate() {
                    if slot.is_some() {
                        out.push(UnmatchedComm {
                            rank: rank as Rank,
                            peer: NO_PEER,
                            tag: round as u32,
                            op: "Iallreduce",
                        });
                    }
                }
            }
        }
        out
    }

    /// Total communication time on `rank` over tracked requests (send and
    /// collective — the paper's `C` metric).
    pub fn tracked_comm_time(&self, rank: Rank) -> SimTime {
        let ns: u64 = self
            .requests
            .iter()
            .filter(|r| r.rank == rank && r.is_tracked())
            .filter_map(|r| r.comm_time())
            .map(|t| t.as_ns())
            .sum();
        SimTime::from_ns(ns)
    }

    /// Split of tracked communication time into (collective, p2p-send).
    pub fn tracked_comm_split(&self, rank: Rank) -> (SimTime, SimTime) {
        let mut coll = 0u64;
        let mut p2p = 0u64;
        for r in self.requests.iter().filter(|r| r.rank == rank) {
            if let Some(t) = r.comm_time() {
                match r.kind {
                    ReqKind::Allreduce => coll += t.as_ns(),
                    ReqKind::Send => p2p += t.as_ns(),
                    ReqKind::Recv => {}
                }
            }
        }
        (SimTime::from_ns(coll), SimTime::from_ns(p2p))
    }

    /// Number of tracked requests on `rank`.
    pub fn tracked_request_count(&self, rank: Rank) -> usize {
        self.requests
            .iter()
            .filter(|r| r.rank == rank && r.is_tracked())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        Network::new(
            NetConfig {
                eager_threshold: 1000,
                latency: SimTime::from_ns(100),
                bw_bytes_per_s: 1e9, // 1 ns per byte
                rendezvous_rtt: SimTime::from_ns(200),
                collective_stage_latency: SimTime::from_ns(50),
                post_cost: SimTime::ZERO,
                poll_delay: SimTime::ZERO,
            },
            4,
        )
    }

    #[test]
    fn eager_send_completes_without_receiver() {
        let mut n = net();
        let (req, comps) = n.post_isend(SimTime::from_ns(0), 0, 1, 7, 500);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].req, req);
        assert_eq!(comps[0].at.as_ns(), 500); // local buffering at 1 B/ns
    }

    #[test]
    fn eager_recv_after_send_completes_at_arrival() {
        let mut n = net();
        n.post_isend(SimTime::from_ns(0), 0, 1, 7, 500);
        let (rreq, comps) = n.post_irecv(SimTime::from_ns(50), 0, 1, 7, 500);
        // arrival = 0 + 100 + 500 = 600 > post time 50
        assert_eq!(
            comps,
            vec![Completion {
                req: rreq,
                at: SimTime::from_ns(600)
            }]
        );
    }

    #[test]
    fn eager_recv_posted_long_after_arrival_completes_immediately() {
        let mut n = net();
        n.post_isend(SimTime::from_ns(0), 0, 1, 7, 500);
        let (rreq, comps) = n.post_irecv(SimTime::from_ns(10_000), 0, 1, 7, 500);
        assert_eq!(comps[0].req, rreq);
        assert_eq!(comps[0].at.as_ns(), 10_000);
    }

    #[test]
    fn rendezvous_send_stalls_until_recv_posted() {
        let mut n = net();
        let (sreq, comps) = n.post_isend(SimTime::from_ns(0), 0, 1, 7, 2000);
        assert!(comps.is_empty(), "rendezvous send must wait for the recv");
        let (rreq, comps) = n.post_irecv(SimTime::from_ns(5_000), 0, 1, 7, 2000);
        // done = max(0, 5000) + 200 + 100 + 2000 = 7300, both sides
        assert_eq!(comps.len(), 2);
        let done = SimTime::from_ns(7_300);
        assert!(comps.contains(&Completion {
            req: sreq,
            at: done
        }));
        assert!(comps.contains(&Completion {
            req: rreq,
            at: done
        }));
        // Early posting shortens c(send): here c = 7300 (late recv).
        assert_eq!(n.request(sreq).comm_time().unwrap().as_ns(), 7_300);
    }

    #[test]
    fn rendezvous_with_early_recv_is_fast() {
        let mut n = net();
        n.post_irecv(SimTime::from_ns(0), 0, 1, 7, 2000);
        let (sreq, comps) = n.post_isend(SimTime::from_ns(1_000), 0, 1, 7, 2000);
        // done = max(1000, 0) + 200 + 100 + 2000 = 3300
        assert_eq!(comps.len(), 2);
        assert_eq!(n.request(sreq).comm_time().unwrap().as_ns(), 2_300);
    }

    #[test]
    fn matching_is_fifo_per_key() {
        let mut n = net();
        let (s1, _) = n.post_isend(SimTime::from_ns(0), 0, 1, 7, 10);
        let (s2, _) = n.post_isend(SimTime::from_ns(1), 0, 1, 7, 10);
        let (r1, c1) = n.post_irecv(SimTime::from_ns(2), 0, 1, 7, 10);
        let (r2, c2) = n.post_irecv(SimTime::from_ns(3), 0, 1, 7, 10);
        // r1 matches s1 (arrival 0+100+10=110), r2 matches s2 (111)
        assert_eq!(c1[0].req, r1);
        assert_eq!(c1[0].at.as_ns(), 110);
        assert_eq!(c2[0].req, r2);
        assert_eq!(c2[0].at.as_ns(), 111);
        let _ = (s1, s2);
    }

    #[test]
    fn different_tags_do_not_match() {
        let mut n = net();
        n.post_isend(SimTime::ZERO, 0, 1, 7, 10);
        let (_, comps) = n.post_irecv(SimTime::ZERO, 0, 1, 8, 10);
        assert!(comps.is_empty());
        assert!(!n.all_complete());
    }

    #[test]
    fn allreduce_completes_when_last_rank_joins() {
        let mut n = net();
        let mut all = Vec::new();
        for (rank, t) in [(0u32, 10u64), (1, 40), (2, 20), (3, 30)] {
            let (_, comps) = n.post_iallreduce(SimTime::from_ns(t), rank, 8);
            all.extend(comps);
        }
        assert_eq!(all.len(), 4);
        // last join 40; tree = 2 stages * (50 + 8) = 116 -> done 156
        for c in &all {
            assert_eq!(c.at.as_ns(), 156);
        }
        // the straggler (rank 1) sees the shortest c(r)
        let times: Vec<u64> = n
            .requests()
            .iter()
            .map(|r| r.comm_time().unwrap().as_ns())
            .collect();
        assert_eq!(times, vec![146, 116, 136, 126]);
    }

    #[test]
    fn collective_rounds_match_in_program_order() {
        let mut n = Network::new(NetConfig::default(), 2);
        // rank 0 joins rounds 0 and 1; rank 1 then joins round 0 and 1.
        let (_, c) = n.post_iallreduce(SimTime::from_ns(0), 0, 8);
        assert!(c.is_empty());
        let (_, c) = n.post_iallreduce(SimTime::from_ns(1), 0, 8);
        assert!(c.is_empty());
        let (_, c) = n.post_iallreduce(SimTime::from_ns(2), 1, 8);
        assert_eq!(c.len(), 2, "round 0 full");
        let (_, c) = n.post_iallreduce(SimTime::from_ns(3), 1, 8);
        assert_eq!(c.len(), 2, "round 1 full");
        assert!(n.all_complete());
    }

    #[test]
    fn tracked_metrics_exclude_recvs() {
        let mut n = net();
        n.post_isend(SimTime::ZERO, 0, 1, 7, 500);
        n.post_irecv(SimTime::ZERO, 0, 1, 7, 500);
        assert_eq!(n.tracked_request_count(0), 1); // the send, owned by rank 0
        assert_eq!(n.tracked_request_count(1), 0); // recv not tracked
        assert!(n.tracked_comm_time(0) > SimTime::ZERO);
        assert_eq!(n.tracked_comm_time(1), SimTime::ZERO);
        let (coll, p2p) = n.tracked_comm_split(0);
        assert_eq!(coll, SimTime::ZERO);
        assert!(p2p > SimTime::ZERO);
    }

    #[test]
    fn poll_delay_shifts_completions() {
        let mut cfg = NetConfig {
            eager_threshold: 1000,
            latency: SimTime::from_ns(100),
            bw_bytes_per_s: 1e9,
            rendezvous_rtt: SimTime::from_ns(200),
            collective_stage_latency: SimTime::from_ns(50),
            post_cost: SimTime::ZERO,
            poll_delay: SimTime::from_ns(42),
        };
        let mut n = Network::new(cfg.clone(), 2);
        let (_, comps) = n.post_isend(SimTime::ZERO, 0, 1, 0, 100);
        assert_eq!(comps[0].at.as_ns(), 100 + 42);
        cfg.poll_delay = SimTime::ZERO;
        let mut n = Network::new(cfg, 2);
        let (_, comps) = n.post_isend(SimTime::ZERO, 0, 1, 0, 100);
        assert_eq!(comps[0].at.as_ns(), 100);
    }
}
