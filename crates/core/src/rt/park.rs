//! Worker parking: an eventcount so idle workers block instead of
//! sleep-polling.
//!
//! The old idle loops slept 20µs between queue polls, paying both idle
//! CPU burn and up-to-20µs wakeup latency every time a dependency chain
//! serialised the run. The eventcount turns the poll into a blocking
//! wait with a race-free re-check. An idle thread of the executor goes
//! through four steps:
//!
//! ```text
//! waiter:  spin until work_available or budget spent  // advisory only
//!          ticket = prepare();          // SeqCst load of epoch
//!          if work_available { return } // re-check AFTER prepare
//!          park(ticket);                // sleeps unless epoch moved
//! waker:   publish work (Release push); notify(); // SeqCst epoch bump
//! ```
//!
//! Lost-wakeup freedom: `prepare`'s epoch load and `notify`'s
//! `fetch_add` are both SeqCst, so they are totally ordered. If the
//! waiter's load comes first, the waker's bump lands after the ticket was
//! taken and `park` returns immediately (ticket != epoch under the
//! lock). If the bump comes first, then in the SC total order the
//! waiter's subsequent queue re-check observes the item published before
//! `notify` — SeqCst on both sides gives the needed reads-from edge —
//! and the waiter never parks. Either way a push cannot vanish while a
//! worker sleeps.
//!
//! The spin (`Pool::spin_for_work` in `exec/executor.rs`) sits before
//! the ticket, outside this protocol. It only decides whether to try a
//! pop again or to enter the protocol at all, so whatever it reads —
//! even a stale `Relaxed` count — cannot make a wakeup go missing: the
//! argument above starts at `prepare` and holds as written. It exists
//! because parking is dear where work comes back within microseconds:
//! each park makes the next `notify` take the mutex and issue a futex
//! wake (a VM exit under virtualisation). It yields the CPU every few
//! dozen polls, because when threads outnumber cores the spinner may be
//! holding the core the waker needs. Its budget is a constant rather
//! than a setting: it trades CPU burn against wake latency and nothing
//! else, and one measured value serves every caller.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// How long a parked worker sleeps before re-checking on its own, as a
/// belt-and-braces bound (the protocol above makes wakeups reliable; the
/// timeout only bounds the damage of a future protocol bug).
const PARK_TIMEOUT: std::time::Duration = std::time::Duration::from_millis(100);

/// A ticket returned by [`Parker::prepare`]; consumed by [`Parker::park`].
#[derive(Clone, Copy, Debug)]
pub struct ParkTicket(u64);

/// Condvar-backed eventcount shared by all workers of a pool.
pub struct Parker {
    /// Generation counter bumped by every notify. SeqCst (see module
    /// docs: totally ordered against `prepare`'s load).
    epoch: AtomicU64,
    /// Number of threads inside `park` (between registering under the
    /// lock and waking). Lets `notify` skip the mutex entirely on the
    /// hot path when nobody sleeps. Updated under `mutex`, read racily —
    /// a stale non-zero only costs an uncontended lock round-trip, and a
    /// stale zero is impossible because the waiter increments it before
    /// releasing the lock it will sleep on (see `notify`).
    waiters: AtomicUsize,
    mutex: Mutex<()>,
    condvar: Condvar,
}

impl Parker {
    pub fn new() -> Parker {
        Parker {
            epoch: AtomicU64::new(0),
            waiters: AtomicUsize::new(0),
            mutex: Mutex::new(()),
            condvar: Condvar::new(),
        }
    }

    /// First phase of the wait: capture the current epoch. The caller
    /// must re-check its wake condition (queues, shutdown, quiescence)
    /// *after* this call and before [`Parker::park`].
    pub fn prepare(&self) -> ParkTicket {
        ParkTicket(self.epoch.load(Ordering::SeqCst))
    }

    /// Second phase: block until the epoch moves past the ticket.
    /// Returns immediately if a notify landed since [`Parker::prepare`].
    pub fn park(&self, ticket: ParkTicket) {
        let mut guard = self.mutex.lock().unwrap();
        // Registered before sleeping: any notifier that observes
        // `waiters == 0` after this point also observes the epoch bump
        // ordering below.
        self.waiters.fetch_add(1, Ordering::SeqCst);
        loop {
            if self.epoch.load(Ordering::SeqCst) != ticket.0 {
                break;
            }
            let (g, _timeout) = self.condvar.wait_timeout(guard, PARK_TIMEOUT).unwrap();
            guard = g;
            // Timeout or spurious wake: if the epoch moved we are done,
            // otherwise the caller's loop re-checks its condition anyway
            // once we return — but returning on every spurious wake
            // would degrade to polling, so only exit on epoch movement
            // or timeout.
            if self.epoch.load(Ordering::SeqCst) != ticket.0 {
                break;
            }
            if _timeout.timed_out() {
                break;
            }
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        drop(guard);
    }

    /// Wake at least one parked thread (all current waiters re-check, but
    /// only one is signalled). Call after publishing one unit of work.
    pub fn notify_one(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            // Take the lock so the wake cannot slot between a waiter's
            // epoch check and its `condvar.wait` (the waiter holds the
            // lock across that window).
            drop(self.mutex.lock().unwrap());
            self.condvar.notify_one();
        }
    }

    /// Wake every parked thread. Call on state changes that may satisfy
    /// many waiters at once: shutdown, gate release, last completion.
    pub fn notify_all(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            drop(self.mutex.lock().unwrap());
            self.condvar.notify_all();
        }
    }
}

impl Default for Parker {
    fn default() -> Self {
        Parker::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn notify_before_park_prevents_sleep() {
        let p = Parker::new();
        let ticket = p.prepare();
        p.notify_one();
        let t0 = std::time::Instant::now();
        p.park(ticket); // must return immediately, not after the timeout
        assert!(t0.elapsed() < PARK_TIMEOUT / 2);
    }

    #[test]
    fn park_blocks_until_notified() {
        let p = Arc::new(Parker::new());
        let woke = Arc::new(AtomicBool::new(false));
        let th = {
            let p = Arc::clone(&p);
            let woke = Arc::clone(&woke);
            std::thread::spawn(move || {
                let ticket = p.prepare();
                p.park(ticket);
                woke.store(true, Ordering::SeqCst);
            })
        };
        // Give the thread a moment to actually park.
        while p.waiters.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        assert!(!woke.load(Ordering::SeqCst));
        p.notify_one();
        th.join().unwrap();
        assert!(woke.load(Ordering::SeqCst));
    }

    #[test]
    fn notify_all_wakes_every_waiter() {
        let p = Arc::new(Parker::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    let ticket = p.prepare();
                    p.park(ticket);
                })
            })
            .collect();
        while p.waiters.load(Ordering::SeqCst) < 4 {
            std::thread::yield_now();
        }
        p.notify_all();
        for th in threads {
            th.join().unwrap();
        }
    }

    /// Hammer the prepare/check/park vs publish/notify protocol: no
    /// iteration may hang (a lost wakeup would stall until the timeout;
    /// we assert well under it).
    #[test]
    fn no_lost_wakeups_under_races() {
        let p = Arc::new(Parker::new());
        let flag = Arc::new(AtomicBool::new(false));
        for _ in 0..200 {
            flag.store(false, Ordering::SeqCst);
            let waiter = {
                let p = Arc::clone(&p);
                let flag = Arc::clone(&flag);
                std::thread::spawn(move || loop {
                    let ticket = p.prepare();
                    if flag.load(Ordering::SeqCst) {
                        return;
                    }
                    p.park(ticket);
                })
            };
            flag.store(true, Ordering::SeqCst);
            p.notify_one();
            let t0 = std::time::Instant::now();
            waiter.join().unwrap();
            assert!(t0.elapsed() < PARK_TIMEOUT, "waiter stalled: lost wakeup");
        }
    }
}
