//! The in-process multi-rank communication world.
//!
//! N ranks run as N executor pools inside one process; this world is the
//! shared-memory "network" between them. Posting is wait-free for the
//! poster's peers (envelopes go through lock-free [`Injector`] inboxes),
//! matching is owner-local (only threads of the destination rank match,
//! under that rank's mailbox mutex), and completions are handed back to
//! the owning rank through a second lock-free queue so the detached
//! `RtNode` is always completed by its own pool's progress path — never
//! by the thread that happened to match the message.
//!
//! ## Request state machine and memory ordering
//!
//! A request moves `posted -> (matched) -> completion queued -> completed`.
//! The orderings that carry the protocol (full table in DESIGN.md §4.5):
//!
//! | transition                | ordering  | why                              |
//! |---------------------------|-----------|----------------------------------|
//! | envelope/completion push  | Release   | inside `Injector` slot publish   |
//! | envelope/completion pop   | Acquire   | inside `Injector` slot consume   |
//! | `epoch` bump after push   | `SeqCst`  | deadlock-detector ordering fence |
//! | stall-report epoch read   | `SeqCst`  | must precede emptiness checks    |
//! | `poisoned` set/read       | `SeqCst`  | posts after a fire self-complete |
//!
//! ## Deadlock detection
//!
//! There is no timeout anywhere. A rank *reports a stall* (from its pool's
//! idle/park path) only when it has no runnable task, no in-flight task,
//! and a progress sweep found nothing; the report records the world
//! `epoch`, which every message/completion push bumps. The world declares
//! deadlock only when every rank is done or stalled *at the current
//! epoch*, every inbox and completion queue is empty, no rank's busy
//! probe fires, the epoch has not moved during the validation sweep, and
//! at least one request is parked in a mailbox. Only then does it commit:
//! it stores a [`CommError`] naming every unmatched (rank, peer, tag),
//! poisons the world (later posts self-complete immediately), and
//! force-completes every parked request so barriers drain and the error
//! can actually be returned instead of hanging.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use super::error::CommError;
use super::mailbox::{
    coll_tag, CollState, CommCompletion, Envelope, MatchState, Waiter, COLL_TAG_BIT,
};
use super::matching::{is_rendezvous, Parked, EAGER_THRESHOLD};
use crate::rt::{Injector, NodeRef, Parker};
use crate::workdesc::CommOp;

/// Tuning knobs for the in-process network.
#[derive(Clone, Copy, Debug)]
pub struct CommConfig {
    /// Sends at or below this size complete at post time (eager); larger
    /// sends complete only when the matching recv consumes them
    /// (rendezvous). Defaults to [`EAGER_THRESHOLD`], as the DES
    /// `NetConfig` does.
    pub eager_threshold: u64,
}

impl Default for CommConfig {
    fn default() -> Self {
        CommConfig {
            eager_threshold: EAGER_THRESHOLD,
        }
    }
}

/// Callback a pool registers so the deadlock sweep can ask "might this
/// rank still produce work on its own?" (in-flight or ready tasks).
type BusyProbe = Box<dyn Fn() -> bool + Send + Sync>;

struct Endpoint {
    /// Cross-rank message delivery (lock-free; senders push).
    inbox: Injector<Envelope>,
    /// Completions owed to this rank's detached nodes (lock-free; any
    /// matching thread pushes, only this rank's pool pops).
    completions: Injector<CommCompletion>,
    /// Owner-local matching state.
    state: Mutex<MatchState>,
    /// Hooks registered by the owning pool.
    hooks: Mutex<RankHooks>,
}

#[derive(Default)]
struct RankHooks {
    waker: Option<Arc<Parker>>,
    busy: Option<BusyProbe>,
}

struct WorldStatus {
    /// `Some(epoch)` while the rank is stalled (reported at that epoch).
    stalled: Vec<Option<u64>>,
    /// Rank finished its program and will post nothing more.
    done: Vec<bool>,
    /// Error recorded when the detector fired.
    error: Option<CommError>,
    fired: bool,
}

/// The shared-memory multi-rank communication engine.
pub struct CommWorld {
    n_ranks: u32,
    cfg: CommConfig,
    endpoints: Vec<Endpoint>,
    /// Monotone request ids, world-wide (trace correlation).
    next_req: AtomicU64,
    /// Bumped (SeqCst) after every envelope or completion push; the
    /// deadlock detector's notion of "something happened".
    epoch: AtomicU64,
    /// Set once deadlock resolution fired; posts self-complete from then
    /// on so the forced drain terminates.
    poisoned: AtomicBool,
    status: Mutex<WorldStatus>,
}

impl CommWorld {
    /// A world of `n_ranks` in-process ranks. `n_ranks == 1` is the
    /// degenerate (but fully functional) single-rank network used by
    /// every default-constructed executor.
    pub fn new(n_ranks: u32, cfg: CommConfig) -> CommWorld {
        assert!(n_ranks >= 1, "a comm world needs at least one rank");
        let endpoints = (0..n_ranks)
            .map(|_| Endpoint {
                inbox: Injector::new(),
                completions: Injector::new(),
                state: Mutex::new(MatchState::default()),
                hooks: Mutex::new(RankHooks::default()),
            })
            .collect();
        CommWorld {
            n_ranks,
            cfg,
            endpoints,
            next_req: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            status: Mutex::new(WorldStatus {
                stalled: vec![None; n_ranks as usize],
                done: vec![false; n_ranks as usize],
                error: None,
                fired: false,
            }),
        }
    }

    /// Number of ranks in this world.
    pub fn n_ranks(&self) -> u32 {
        self.n_ranks
    }

    /// Register the owning pool's parker (so cross-rank deliveries can
    /// wake parked threads) and busy probe (so the deadlock sweep can see
    /// in-flight/ready work the stall flags cannot).
    pub fn register_rank(
        &self,
        rank: u32,
        waker: Arc<Parker>,
        busy: impl Fn() -> bool + Send + Sync + 'static,
    ) {
        let mut hooks = self.endpoints[rank as usize].hooks.lock().unwrap();
        hooks.waker = Some(waker);
        hooks.busy = Some(Box::new(busy));
    }

    fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    fn wake(&self, rank: u32) {
        let hooks = self.endpoints[rank as usize].hooks.lock().unwrap();
        if let Some(p) = &hooks.waker {
            p.notify_all();
        }
    }

    /// Queue `done` on its owner's completion queue and wake the owner.
    /// Push-then-bump order is what the stall protocol relies on.
    fn deliver(&self, owner: u32, mut done: CommCompletion, forced: bool) {
        done.forced = forced;
        self.endpoints[owner as usize].completions.push(done);
        self.bump_epoch();
        self.wake(owner);
    }

    fn send_envelope(&self, dst: u32, env: Envelope) {
        self.endpoints[dst as usize].inbox.push(env);
        self.bump_epoch();
        self.wake(dst);
    }

    /// Reserve a request id. Posters take the id *before* calling
    /// [`CommWorld::post`] so they can narrate `CommPosted` first — a
    /// request may match the instant it is posted, and the completion
    /// event must not beat the post event into the stream.
    pub fn alloc_req(&self) -> u64 {
        self.next_req.fetch_add(1, Ordering::Relaxed)
    }

    /// Post a communication request for `node` from `rank` under a
    /// pre-reserved id from [`CommWorld::alloc_req`]. The node's completion
    /// is *never* performed here — it is queued (possibly immediately, for
    /// eager sends or self-matching recvs) on the owning rank's completion
    /// queue, to be drained by [`CommWorld::pop_completion`].
    pub fn post(&self, rank: u32, node: NodeRef, op: CommOp, posted_ns: u64, req: u64) {
        let done = CommCompletion {
            node,
            req,
            posted_ns,
            forced: false,
        };
        if self.poisoned.load(Ordering::SeqCst) {
            self.deliver(rank, done, true);
            return;
        }
        match op {
            CommOp::Isend { peer, bytes, tag } => self.post_isend(rank, peer, bytes, tag, done),
            CommOp::Irecv { peer, tag, .. } => self.post_irecv(rank, peer, tag, done),
            CommOp::Iallreduce { .. } => self.post_iallreduce(rank, done),
        }
    }

    fn post_isend(&self, src: u32, dst: u32, bytes: u64, tag: u32, done: CommCompletion) {
        debug_assert!(tag & COLL_TAG_BIT == 0, "p2p tags must be < 2^31");
        let unmatchable = dst >= self.n_ranks;
        // Rendezvous: the send completes only when the matching recv
        // consumes the envelope; the completion rides along (and, to a
        // peer outside the world, waits for the end-of-run report). Eager:
        // the payload is "copied out" at post time, so the sender's
        // request completes immediately — still off-core, through the
        // completion queue.
        let (sender_done, eager_done) =
            if unmatchable || is_rendezvous(bytes, self.cfg.eager_threshold) {
                (Some(done), None)
            } else {
                (None, Some(done))
            };
        let env = Envelope {
            src,
            tag,
            sender_done,
        };
        if unmatchable {
            self.park_unmatchable(src, dst, tag, Parked::Send(env));
        } else {
            self.send_envelope(dst, env);
        }
        if let Some(done) = eager_done {
            self.deliver(src, done, false);
        }
    }

    /// Park a request from `rank` naming a `peer` outside the world.
    fn park_unmatchable(&self, rank: u32, peer: u32, tag: u32, offer: Parked<Envelope, Waiter>) {
        let mut st = self.endpoints[rank as usize].state.lock().unwrap();
        st.table.park_unmatchable(peer, tag, offer);
    }

    fn post_irecv(&self, dst: u32, src: u32, tag: u32, done: CommCompletion) {
        debug_assert!(tag & COLL_TAG_BIT == 0, "p2p tags must be < 2^31");
        if src >= self.n_ranks {
            self.park_unmatchable(dst, src, tag, Parked::Recv(Waiter::Recv(done)));
            return;
        }
        let mut st = self.endpoints[dst as usize].state.lock().unwrap();
        // Match what has already arrived first: a receive must not
        // overtake a message delivered before it was posted.
        self.drain_inbox(dst, &mut st);
        if let Some((env, Waiter::Recv(done))) = st.table.offer_recv(src, tag, Waiter::Recv(done)) {
            self.complete_match(dst, env, done);
        }
    }

    /// Deliver both sides of a matched user receive.
    fn complete_match(&self, rank: u32, env: Envelope, done: CommCompletion) {
        if let Some(sd) = env.sender_done {
            self.deliver(env.src, sd, false);
        }
        self.deliver(rank, done, false);
    }

    fn post_iallreduce(&self, rank: u32, done: CommCompletion) {
        if self.n_ranks == 1 {
            self.deliver(rank, done, false);
            return;
        }
        let finished = {
            let mut st = self.endpoints[rank as usize].state.lock().unwrap();
            let seq = st.next_coll_seq;
            st.next_coll_seq += 1;
            st.colls.insert(seq, CollState { done, round: 0 });
            // Sending while holding our own mailbox mutex is fine (peer
            // delivery is lock-free) and keeps round bookkeeping atomic.
            self.coll_send(rank, seq, 0);
            self.coll_progress(rank, &mut st, seq, false)
        };
        if let Some(done) = finished {
            self.deliver(rank, done, false);
        }
    }

    /// Send this rank's round-`round` dissemination message.
    fn coll_send(&self, rank: u32, seq: u64, round: u32) {
        let dst = (rank as u64 + (1u64 << round)) % self.n_ranks as u64;
        self.send_envelope(
            dst as u32,
            Envelope {
                src: rank,
                tag: coll_tag(seq, round),
                sender_done: None,
            },
        );
    }

    /// Peer this rank receives from in dissemination round `round`.
    fn coll_recv_peer(&self, rank: u32, round: u32) -> u32 {
        let n = self.n_ranks as u64;
        ((rank as u64 + n - (1u64 << round) % n) % n) as u32
    }

    /// Drive collective `seq`; `have` says the message of its current
    /// round is in hand. Takes every round message already parked,
    /// sending each next round, and returns the completion once the last
    /// round is in — or leaves a wait for the first missing message as a
    /// posted receive in the table.
    fn coll_progress(
        &self,
        rank: u32,
        st: &mut MatchState,
        seq: u64,
        mut have: bool,
    ) -> Option<CommCompletion> {
        loop {
            let c = st.colls.get_mut(&seq).expect("collective in flight");
            if have {
                c.round += 1;
                if c.round == Self::ceil_log2(self.n_ranks) {
                    return st.colls.remove(&seq).map(|c| c.done);
                }
                self.coll_send(rank, seq, c.round);
            }
            let round = c.round;
            let from = self.coll_recv_peer(rank, round);
            have = st
                .table
                .offer_recv(from, coll_tag(seq, round), Waiter::Coll(seq))
                .is_some();
            if !have {
                return None;
            }
        }
    }

    fn ceil_log2(n: u32) -> u32 {
        debug_assert!(n >= 1);
        n.next_power_of_two().trailing_zeros()
    }

    /// Drain and match this rank's inbox. Returns true if any envelope was
    /// consumed. Only threads of the owning rank should call this; if the
    /// mailbox mutex is contended (a sibling thread is already matching),
    /// returns false immediately.
    pub fn progress(&self, rank: u32) -> bool {
        let ep = &self.endpoints[rank as usize];
        if ep.inbox.is_empty() {
            return false;
        }
        let Ok(mut st) = ep.state.try_lock() else {
            return false;
        };
        self.drain_inbox(rank, &mut st)
    }

    /// Match every envelope in `rank`'s inbox, under its mailbox lock
    /// (`st`). Returns true if there was any.
    fn drain_inbox(&self, rank: u32, st: &mut MatchState) -> bool {
        let mut any = false;
        while let Some(env) = self.endpoints[rank as usize].inbox.pop() {
            any = true;
            match st.table.offer_send(env.src, env.tag, env) {
                Some((env, Waiter::Recv(done))) => self.complete_match(rank, env, done),
                Some((_, Waiter::Coll(seq))) => {
                    if let Some(done) = self.coll_progress(rank, st, seq, true) {
                        self.deliver(rank, done, false);
                    }
                }
                None => {}
            }
        }
        any
    }

    /// Whether `rank` has an envelope to match or a completion to drain:
    /// false means a progress sweep on that rank would find nothing right
    /// now. Lock-free (two queue-emptiness loads), so idle paths can ask
    /// before paying for a sweep.
    pub fn has_deliveries(&self, rank: u32) -> bool {
        let ep = &self.endpoints[rank as usize];
        !ep.inbox.is_empty() || !ep.completions.is_empty()
    }

    /// Pop one queued completion for this rank's detached nodes.
    pub fn pop_completion(&self, rank: u32) -> Option<CommCompletion> {
        self.endpoints[rank as usize].completions.pop()
    }

    /// Unexpected-message count (envelopes that arrived before their recv
    /// was posted, collective rounds included) observed by this rank so
    /// far.
    pub fn unexpected_count(&self, rank: u32) -> u64 {
        self.endpoints[rank as usize]
            .state
            .lock()
            .unwrap()
            .table
            .unexpected()
    }

    /// Clear this rank's stall flag. Must be called before a thread starts
    /// a progress sweep from an idle path (and whenever new local work is
    /// found) so the detector never fires across an in-flight delivery.
    pub fn note_active(&self, rank: u32) {
        let mut st = self.status.lock().unwrap();
        st.stalled[rank as usize] = None;
    }

    /// Rank finished its program; it will post nothing more.
    pub fn note_done(&self, rank: u32) {
        let mut st = self.status.lock().unwrap();
        st.done[rank as usize] = true;
        drop(st);
        // A rank retiring can be the last event other stalled ranks wait
        // for; let their next sweep observe it.
        self.bump_epoch();
        for r in 0..self.n_ranks {
            if r != rank {
                self.wake(r);
            }
        }
    }

    /// Report that `rank` is fully idle: no runnable or in-flight task and
    /// a just-completed progress sweep found nothing. Returns true if this
    /// report completed a deadlock declaration (forced completions have
    /// been queued; the caller should keep draining).
    pub fn note_stall(&self, rank: u32) -> bool {
        // Epoch first: any delivery that lands after this read moves the
        // epoch past what we record, invalidating the report.
        let observed = self.epoch.load(Ordering::SeqCst);
        let mut st = self.status.lock().unwrap();
        st.stalled[rank as usize] = Some(observed);
        if st.fired {
            return false;
        }
        let cur = self.epoch.load(Ordering::SeqCst);
        let all_idle = (0..self.n_ranks as usize).all(|r| st.done[r] || st.stalled[r] == Some(cur));
        if !all_idle {
            return false;
        }
        // Validation sweep, with the status lock held so nobody can clear
        // a stall flag under us. Taking each mailbox mutex blockingly also
        // serializes against any matching still running on that rank.
        // The only mutation is the matching a finished rank no longer
        // does for itself, so bailing out is always safe.
        let mut any_pending = false;
        for (r, ep) in self.endpoints.iter().enumerate() {
            let mut mbox = ep.state.lock().unwrap();
            if st.done[r] {
                // Nobody sweeps a finished rank's inbox any more: match
                // what reached it here, so a message it will never
                // receive parks (and is reported) instead of blocking
                // the verdict forever.
                self.drain_inbox(r as u32, &mut mbox);
            }
            if !ep.inbox.is_empty() || !ep.completions.is_empty() {
                return false;
            }
            any_pending |= !mbox.is_clean();
            drop(mbox);
            if !st.done[r] {
                let hooks = ep.hooks.lock().unwrap();
                if let Some(busy) = &hooks.busy {
                    if busy() {
                        return false;
                    }
                }
            }
        }
        if !any_pending || self.epoch.load(Ordering::SeqCst) != cur {
            // Either something moved mid-sweep (a delivery will re-wake
            // the rank it targets), or nothing is actually parked — then
            // this is not a comm deadlock and firing would be wrong.
            return false;
        }
        // Commit: from here on the world is poisoned, so even a post that
        // races past the validation self-completes and cannot hang.
        st.fired = true;
        self.poisoned.store(true, Ordering::SeqCst);
        // Forced completions wake their ranks, but none can report back
        // before the error is stored: that needs the status lock we hold.
        st.error = self.drain_all();
        true
    }

    /// The error recorded by the deadlock detector, if it fired.
    pub fn take_error(&self) -> Option<CommError> {
        self.status.lock().unwrap().error.clone()
    }

    /// End-of-run check, to be called after every rank finished: reports
    /// the deadlock error if one fired, otherwise any leftover messages or
    /// requests (e.g. an eager send nobody ever received — the sender
    /// completed, so no deadlock, but the program was still malformed).
    pub fn finish(&self) -> Option<CommError> {
        self.take_error().or_else(|| self.drain_all())
    }

    /// Match what is still in every inbox, then empty every mailbox:
    /// force-complete the parked requests (a rendezvous sender's
    /// completion goes to the sender) and return the error naming them.
    fn drain_all(&self) -> Option<CommError> {
        let mut unmatched = Vec::new();
        let mut forced = Vec::new();
        for (r, ep) in self.endpoints.iter().enumerate() {
            let mut st = ep.state.lock().unwrap();
            self.drain_inbox(r as u32, &mut st);
            let (mut u, mut f) = st.drain_pending(r as u32);
            unmatched.append(&mut u);
            forced.append(&mut f);
        }
        for (owner, done) in forced {
            self.deliver(owner, done, true);
        }
        CommError::from_unmatched(unmatched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rt::RtNode;
    use crate::task::TaskId;

    fn node(id: u32) -> NodeRef {
        RtNode::bare(TaskId(id), "comm", None, 0)
    }

    fn world(n: u32) -> CommWorld {
        CommWorld::new(n, CommConfig::default())
    }

    /// Post `op` for a fresh node and return the request id used.
    fn post(w: &CommWorld, rank: u32, id: u32, op: CommOp) -> u64 {
        let req = w.alloc_req();
        w.post(rank, node(id), op, 0, req);
        req
    }

    /// One progress sweep then one completion pop for `rank`.
    fn drain(w: &CommWorld, rank: u32) -> Option<CommCompletion> {
        w.progress(rank);
        w.pop_completion(rank)
    }

    #[test]
    fn eager_send_completes_sender_at_post() {
        let w = world(2);
        let rr = post(
            &w,
            1,
            10,
            CommOp::Irecv {
                peer: 0,
                bytes: 64,
                tag: 3,
            },
        );
        let rs = post(
            &w,
            0,
            11,
            CommOp::Isend {
                peer: 1,
                bytes: 64,
                tag: 3,
            },
        );
        // The sender's completion is queued before any receiver progress.
        let sc = w.pop_completion(0).expect("eager sender done at post");
        assert_eq!(sc.req, rs);
        assert!(!sc.forced);
        let rc = drain(&w, 1).expect("recv matched");
        assert_eq!(rc.req, rr);
        assert_eq!(w.unexpected_count(1), 0, "recv was pre-posted");
        assert!(w.finish().is_none(), "clean world");
    }

    #[test]
    fn late_recv_matches_parked_unexpected_envelope() {
        let w = world(2);
        post(
            &w,
            0,
            20,
            CommOp::Isend {
                peer: 1,
                bytes: 64,
                tag: 5,
            },
        );
        w.pop_completion(0).expect("eager sender done");
        // The envelope parks in the unexpected queue before its recv exists.
        w.progress(1);
        assert_eq!(w.unexpected_count(1), 1);
        let rr = post(
            &w,
            1,
            21,
            CommOp::Irecv {
                peer: 0,
                bytes: 64,
                tag: 5,
            },
        );
        // Matching a parked envelope completes the recv at post time.
        let rc = w.pop_completion(1).expect("late recv matched");
        assert_eq!(rc.req, rr);
        assert!(w.finish().is_none());
    }

    #[test]
    fn rendezvous_send_completes_only_on_match() {
        let w = world(2);
        let big = 64 * 1024; // above the default eager threshold
        let rs = post(
            &w,
            0,
            30,
            CommOp::Isend {
                peer: 1,
                bytes: big,
                tag: 0,
            },
        );
        assert!(
            w.pop_completion(0).is_none(),
            "rendezvous sender must wait for the match"
        );
        let rr = post(
            &w,
            1,
            31,
            CommOp::Irecv {
                peer: 0,
                bytes: big,
                tag: 0,
            },
        );
        let rc = drain(&w, 1).expect("recv matched");
        assert_eq!(rc.req, rr);
        let sc = w.pop_completion(0).expect("sender done rides the match");
        assert_eq!(sc.req, rs);
        assert!(w.finish().is_none());
    }

    #[test]
    fn tag_mismatch_does_not_match() {
        let w = world(2);
        post(
            &w,
            1,
            40,
            CommOp::Irecv {
                peer: 0,
                bytes: 64,
                tag: 1,
            },
        );
        post(
            &w,
            0,
            41,
            CommOp::Isend {
                peer: 1,
                bytes: 64,
                tag: 2,
            },
        );
        w.progress(1);
        assert!(w.pop_completion(1).is_none(), "tags differ: no match");
        assert_eq!(w.unexpected_count(1), 1, "wrong-tag envelope parked");
        let err = w.finish().expect("both sides left over");
        assert!(err.unmatched.iter().any(|u| u.op == "Irecv" && u.tag == 1));
        assert!(err.unmatched.iter().any(|u| u.op == "Isend" && u.tag == 2));
    }

    #[test]
    fn allreduce_completes_every_rank() {
        for n in 1..=4u32 {
            let w = world(n);
            let reqs: Vec<u64> = (0..n)
                .map(|r| post(&w, r, 100 + r, CommOp::Iallreduce { bytes: 8 }))
                .collect();
            let mut done = vec![false; n as usize];
            for _ in 0..10_000 {
                for r in 0..n {
                    w.progress(r);
                    while let Some(c) = w.pop_completion(r) {
                        assert_eq!(c.req, reqs[r as usize]);
                        assert!(!done[r as usize], "exactly one completion per rank");
                        done[r as usize] = true;
                    }
                }
                if done.iter().all(|&d| d) {
                    break;
                }
            }
            assert!(done.iter().all(|&d| d), "n={n}: allreduce converged");
            assert!(w.finish().is_none(), "n={n}: clean world");
        }
    }

    #[test]
    fn invalid_peer_is_reported_at_finish() {
        let w = world(2);
        post(
            &w,
            0,
            50,
            CommOp::Isend {
                peer: 7,
                bytes: 64,
                tag: 1,
            },
        );
        assert!(w.pop_completion(0).is_none(), "invalid peer never matches");
        let err = w.finish().expect("invalid peer surfaces");
        assert_eq!(err.unmatched.len(), 1);
        let u = &err.unmatched[0];
        assert_eq!((u.rank, u.peer, u.tag, u.op), (0, 7, 1, "Isend"));
        // The parked node's completion is force-delivered for the ledger.
        let fc = w.pop_completion(0).expect("forced completion queued");
        assert!(fc.forced);
    }

    #[test]
    fn unreceived_eager_send_is_reported_at_finish() {
        let w = world(2);
        post(
            &w,
            0,
            60,
            CommOp::Isend {
                peer: 1,
                bytes: 64,
                tag: 7,
            },
        );
        // The sender completed (eager), yet the program is malformed:
        // finish() must still name the leftover message.
        w.pop_completion(0).expect("eager sender done");
        let err = w.finish().expect("leftover envelope surfaces");
        assert_eq!(err.unmatched.len(), 1);
        let u = &err.unmatched[0];
        assert_eq!((u.rank, u.peer, u.tag, u.op), (0, 1, 7, "Isend"));
    }

    #[test]
    fn stall_detector_fires_on_unmatched_recv_and_forces_completion() {
        let w = world(2);
        let rr = post(
            &w,
            0,
            70,
            CommOp::Irecv {
                peer: 1,
                bytes: 64,
                tag: 9,
            },
        );
        // Rank 1 retires without ever sending; rank 0 then reports a
        // fully-idle sweep. That completes the termination detection.
        w.note_done(1);
        assert!(w.note_stall(0), "detector fires");
        let err = w.take_error().expect("structured error recorded");
        assert_eq!(err.unmatched.len(), 1);
        let u = &err.unmatched[0];
        assert_eq!((u.rank, u.peer, u.tag, u.op), (0, 1, 9, "Irecv"));
        // The parked recv is force-completed so the run can drain.
        let fc = w.pop_completion(0).expect("forced completion");
        assert_eq!(fc.req, rr);
        assert!(fc.forced);
        // Posts after poisoning self-complete instead of hanging.
        let late = post(
            &w,
            0,
            71,
            CommOp::Irecv {
                peer: 1,
                bytes: 64,
                tag: 10,
            },
        );
        let lc = w.pop_completion(0).expect("post-poison self-completion");
        assert_eq!(lc.req, late);
        assert!(lc.forced);
        assert_eq!(
            w.finish()
                .expect("finish repeats the recorded error")
                .unmatched,
            err.unmatched
        );
    }

    #[test]
    fn stall_detector_matches_a_finished_ranks_inbox() {
        let w = world(2);
        let rs = post(
            &w,
            0,
            90,
            CommOp::Isend {
                peer: 1,
                bytes: 64 * 1024,
                tag: 4,
            },
        );
        // Rank 1 retires without ever sweeping its inbox, so only the
        // detector can see that the rendezvous envelope there will never
        // be received.
        w.note_done(1);
        assert!(w.note_stall(0), "detector fires");
        let err = w.take_error().expect("structured error recorded");
        assert_eq!(err.unmatched.len(), 1);
        let u = &err.unmatched[0];
        assert_eq!((u.rank, u.peer, u.tag, u.op), (0, 1, 4, "Isend"));
        let fc = w.pop_completion(0).expect("sender force-completed");
        assert_eq!(fc.req, rs);
        assert!(fc.forced);
        assert_eq!(w.unexpected_count(1), 1, "the envelope parked unexpected");
    }

    #[test]
    fn allreduce_entry_names_the_collective_not_the_round() {
        let w = world(4);
        // Ranks 0–2 post two all-reduces each; rank 3 never joins, so
        // every rank's first one stalls after its first round.
        for r in 0..3 {
            for k in 0..2 {
                post(&w, r, 200 + 2 * r + k, CommOp::Iallreduce { bytes: 8 });
            }
        }
        for r in 0..4 {
            w.progress(r);
        }
        let err = w.finish().expect("stuck collectives surface");
        let got: Vec<_> = err.unmatched.iter().map(|u| (u.rank, u.tag)).collect();
        assert_eq!(got, vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]);
    }

    #[test]
    fn stall_report_with_pending_inbox_does_not_fire() {
        let w = world(2);
        post(
            &w,
            0,
            80,
            CommOp::Isend {
                peer: 1,
                bytes: 64,
                tag: 0,
            },
        );
        w.pop_completion(0).expect("eager sender done");
        w.note_done(0);
        // Rank 1 stalls but its inbox still holds the envelope — the
        // detector must refuse (a progress sweep will consume it).
        assert!(!w.note_stall(1), "undelivered envelope blocks firing");
        assert!(w.take_error().is_none());
    }
}
