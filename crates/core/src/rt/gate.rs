//! Hold gate for the paper's *non-overlapped* configuration (Table 1):
//! ready tasks are withheld until the whole graph is discovered.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// While closed, items offered to the gate are held; [`HoldGate::release`]
/// opens it and hands back everything held. Once open, offers pass
/// through untouched.
pub struct HoldGate<T> {
    closed: AtomicBool,
    held: Mutex<Vec<T>>,
    held_total: AtomicU64,
}

impl<T> HoldGate<T> {
    /// A gate in the given initial state.
    pub fn new(closed: bool) -> Self {
        HoldGate {
            closed: AtomicBool::new(closed),
            held: Mutex::new(Vec::new()),
            held_total: AtomicU64::new(0),
        }
    }

    fn held(&self) -> std::sync::MutexGuard<'_, Vec<T>> {
        self.held.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether the gate is currently holding items back.
    ///
    /// Relaxed: the flag alone never gates data. The fast path in
    /// [`HoldGate::offer`] may race a concurrent `close`/`release`, and
    /// either answer is acceptable there precisely because the slow path
    /// re-checks under `held`'s mutex — the mutex, not this load, is the
    /// synchronization.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Relaxed)
    }

    /// Close the gate: subsequent offers are held until `release`.
    pub fn close(&self) {
        let _held = self.held();
        self.closed.store(true, Ordering::Relaxed);
    }

    /// Pre-size the held buffer for `extra` more items, so a closed-gate
    /// submission burst of that size holds items without reallocating.
    pub fn reserve(&self, extra: usize) {
        self.held().reserve(extra);
    }

    /// Offer an item: returns it back if the gate is open, or holds it and
    /// returns `None`. The closed flag is re-checked under the lock so an
    /// item can never be stranded behind a concurrent `release`.
    pub fn offer(&self, item: T) -> Option<T> {
        if !self.is_closed() {
            return Some(item);
        }
        let mut held = self.held();
        if self.is_closed() {
            held.push(item);
            // Relaxed: statistic, read post-quiescence.
            self.held_total.fetch_add(1, Ordering::Relaxed);
            None
        } else {
            Some(item)
        }
    }

    /// Open the gate and take everything held.
    pub fn release(&self) -> Vec<T> {
        let mut out = Vec::new();
        self.release_with(|held| out.append(held));
        out
    }

    /// Open the gate and hand everything held to `take`, in offer order.
    /// `take` must drain the buffer it is given; the buffer keeps its
    /// capacity for the next closed stretch, so a gate sized once by
    /// [`HoldGate::reserve`] stays sized. `take` runs under the held
    /// lock with the gate already open: it may offer to this gate (the
    /// open fast path takes no lock) but must not close it.
    pub fn release_with(&self, take: impl FnOnce(&mut Vec<T>)) {
        let mut held = self.held();
        self.closed.store(false, Ordering::Relaxed);
        take(&mut held);
        debug_assert!(held.is_empty(), "release_with must drain the held items");
    }

    /// Total items ever held back (observability counter).
    pub fn held_total(&self) -> u64 {
        self.held_total.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_gate_passes_through() {
        let g: HoldGate<u32> = HoldGate::new(false);
        assert_eq!(g.offer(7), Some(7));
        assert!(g.release().is_empty());
    }

    #[test]
    fn closed_gate_holds_until_release() {
        let g: HoldGate<u32> = HoldGate::new(true);
        assert_eq!(g.offer(1), None);
        assert_eq!(g.offer(2), None);
        assert_eq!(g.release(), vec![1, 2]);
        assert_eq!(g.offer(3), Some(3), "stays open after release");
    }

    #[test]
    fn release_keeps_the_held_capacity() {
        let g: HoldGate<u32> = HoldGate::new(true);
        g.reserve(16);
        let cap = g.held().capacity();
        assert_eq!(g.offer(1), None);
        let mut got = Vec::new();
        g.release_with(|held| got.append(held));
        assert_eq!(got, vec![1]);
        assert_eq!(
            g.held().capacity(),
            cap,
            "release hands back items, not capacity"
        );
        g.close();
        assert_eq!(g.offer(2), None);
        assert_eq!(g.release(), vec![2]);
        assert_eq!(g.held().capacity(), cap);
    }
}
