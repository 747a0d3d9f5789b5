//! Chase–Lev work-stealing deque: the lock-free per-worker lane of the
//! scheduler fast path.
//!
//! One [`WorkDeque`] belongs to one worker (the *owner*), which pushes and
//! pops at the bottom end (LIFO — the depth-first policy's data-reuse
//! order). Any other thread may [`WorkDeque::steal`] from the top end
//! (FIFO — thieves take the *oldest* task). The algorithm is the
//! weak-memory-model formulation of Lê, Pop, Cohen & Zappa Nardelli,
//! *Correct and Efficient Work-Stealing for Weak Memory Models* (PPoPP'13);
//! the memory orderings below follow that paper and are individually
//! justified in the §4.3 invariant table of `DESIGN.md`.
//!
//! # Ownership protocol (the invariant that makes this safe)
//!
//! `push` and `pop` may only be called by one thread at a time — the
//! owner. `steal` may be called by any number of threads concurrently.
//! The executor upholds this by construction: worker *i* is the only
//! thread that ever pushes to or pops from deque *i* (the producer routes
//! its tasks through the global injector instead). A fully
//! single-threaded caller (the DES simulator's model tests) trivially
//! satisfies the protocol.
//!
//! # Reclamation
//!
//! Growing replaces the ring buffer; a concurrent thief may still be
//! reading the old one. Instead of an epoch/hazard scheme, retired
//! buffers are parked in a side list and freed when the deque drops:
//! capacity doubles on every grow, so the retired memory is bounded by
//! twice the peak buffer size — a deliberate simplicity/space trade.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicIsize, AtomicPtr, Ordering};
use std::sync::Mutex;

/// Result of a steal attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum Steal<T> {
    /// The deque was observed empty.
    Empty,
    /// Lost a race with the owner or another thief; the deque may still
    /// hold tasks — callers should retry (possibly elsewhere) rather than
    /// conclude emptiness.
    Abort,
    /// Stole the oldest task.
    Success(T),
}

/// Fixed-capacity ring of possibly-uninitialized slots. Which slots are
/// live is tracked solely by the deque's `top`/`bottom` indices.
struct Buffer<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
}

impl<T> Buffer<T> {
    fn new(cap: usize) -> Buffer<T> {
        debug_assert!(cap.is_power_of_two());
        Buffer {
            slots: (0..cap)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            mask: cap - 1,
        }
    }

    fn cap(&self) -> usize {
        self.slots.len()
    }

    /// Write `value` at ring index `i`. Caller must own the slot.
    unsafe fn write(&self, i: isize, value: T) {
        (*self.slots[i as usize & self.mask].get()).write(value);
    }

    /// Read the value at ring index `i` as an owned bit-copy. The caller
    /// must either own the slot (owner pop, successful steal CAS) or
    /// `mem::forget` the copy (failed steal CAS) so it is never dropped
    /// twice.
    unsafe fn read(&self, i: isize) -> T {
        (*self.slots[i as usize & self.mask].get()).assume_init_read()
    }
}

/// A lock-free single-owner, multi-thief deque.
pub struct WorkDeque<T> {
    /// Steal end. Only ever advances (monotone), via CAS.
    top: AtomicIsize,
    /// Owner end. Only the owner writes it.
    bottom: AtomicIsize,
    buffer: AtomicPtr<Buffer<T>>,
    /// Buffers replaced by grow, kept alive for late thieves (freed on
    /// drop). Locked only on the grow path — never on push/pop/steal.
    retired: Mutex<Vec<*mut Buffer<T>>>,
}

// SAFETY: the deque hands each element to exactly one consumer; `T` only
// needs to cross threads, not be shared (`&T` is never exposed).
unsafe impl<T: Send> Send for WorkDeque<T> {}
unsafe impl<T: Send> Sync for WorkDeque<T> {}

const INITIAL_CAP: usize = 64;

impl<T> WorkDeque<T> {
    pub fn new() -> WorkDeque<T> {
        WorkDeque {
            top: AtomicIsize::new(0),
            bottom: AtomicIsize::new(0),
            buffer: AtomicPtr::new(Box::into_raw(Box::new(Buffer::new(INITIAL_CAP)))),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// Double the buffer, copying the live range `[top, bottom)`. Owner
    /// only (called from `push`). The old buffer is retired, not freed: a
    /// concurrent thief may be mid-read in it, and its bits for indices
    /// `< top` stay valid forever.
    fn grow(&self, top: isize, bottom: isize) -> *mut Buffer<T> {
        let old = self.buffer.load(Ordering::Relaxed);
        // SAFETY: only the owner calls grow, and `old` is the current
        // buffer it installed (or the initial one).
        let new = unsafe {
            let new = Box::into_raw(Box::new(Buffer::new((*old).cap() * 2)));
            for i in top..bottom {
                (*new).write(i, (*old).read(i));
            }
            new
        };
        // Publish the new buffer before the push that needed it bumps
        // `bottom`: thieves load the buffer with `Acquire` and the slot
        // copies above must be visible to them.
        self.buffer.store(new, Ordering::Release);
        self.retired
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(old);
        new
    }

    /// Owner: push `value` on the LIFO end.
    pub fn push(&self, value: T) {
        let b = self.bottom.load(Ordering::Relaxed);
        // `Acquire` pairs with thieves' CAS on `top`: seeing their
        // increment means the stolen slot is reusable.
        let t = self.top.load(Ordering::Acquire);
        let mut buf = self.buffer.load(Ordering::Relaxed);
        // SAFETY: owner-only access to bottom and the buffer.
        unsafe {
            if b - t >= (*buf).cap() as isize {
                buf = self.grow(t, b);
            }
            (*buf).write(b, value);
        }
        // `Release` publishes the slot write to thieves that `Acquire`
        // load `bottom`.
        self.bottom.store(b + 1, Ordering::Release);
    }

    /// Owner: pop from the LIFO end.
    pub fn pop(&self) -> Option<T> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        let buf = self.buffer.load(Ordering::Relaxed);
        self.bottom.store(b, Ordering::Relaxed);
        // The SeqCst fence orders the `bottom` store above against the
        // `top` load below — the heart of the algorithm: either a racing
        // thief sees the reserved (decremented) bottom, or we see its
        // `top` increment. Without it both sides could take the last task.
        fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t <= b {
            if t == b {
                // Single task left: race the thieves for it via `top`.
                if self
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_err()
                {
                    // A thief won the last task.
                    self.bottom.store(b + 1, Ordering::Relaxed);
                    return None;
                }
                self.bottom.store(b + 1, Ordering::Relaxed);
            }
            // SAFETY: index b is owned — either b > top (no thief can
            // reach it) or the CAS above claimed it.
            Some(unsafe { (*buf).read(b) })
        } else {
            // Was empty; undo the reservation.
            self.bottom.store(b + 1, Ordering::Relaxed);
            None
        }
    }

    /// Thief: steal from the FIFO end. Safe to call from any thread.
    pub fn steal(&self) -> Steal<T> {
        // `Acquire` on `top` pairs with other thieves' `SeqCst` CAS.
        let t = self.top.load(Ordering::Acquire);
        // Order the `top` load before the `bottom` load (mirrors the
        // owner-side fence in `pop`).
        fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        // `Acquire` pairs with `grow`'s `Release` store: the copied slots
        // are visible in whichever buffer we see.
        let buf = self.buffer.load(Ordering::Acquire);
        // SAFETY: speculative bit-copy of slot `t`; ownership is only
        // assumed if the CAS below claims it, otherwise the copy is
        // forgotten (never dropped). Retired buffers outlive all thieves,
        // so the read is in-bounds even if the owner grew concurrently.
        let value = unsafe { (*buf).read(t) };
        if self
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            std::mem::forget(value);
            return Steal::Abort;
        }
        Steal::Success(value)
    }

    /// Owner-perspective emptiness (diagnostics; racy under concurrency).
    pub fn is_empty(&self) -> bool {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        t >= b
    }
}

impl<T> Default for WorkDeque<T> {
    fn default() -> Self {
        WorkDeque::new()
    }
}

impl<T> Drop for WorkDeque<T> {
    fn drop(&mut self) {
        let buf = *self.buffer.get_mut();
        let t = *self.top.get_mut();
        let b = *self.bottom.get_mut();
        // SAFETY: exclusive access (`&mut self`); `[top, bottom)` are the
        // initialized, un-consumed slots.
        unsafe {
            for i in t..b {
                drop((*buf).read(i));
            }
            drop(Box::from_raw(buf));
            for retired in self
                .retired
                .get_mut()
                .unwrap_or_else(|e| e.into_inner())
                .drain(..)
            {
                // Retired buffers hold only bit-copies of values that were
                // moved out (live range was copied forward on grow), so
                // nothing in them is dropped.
                drop(Box::from_raw(retired));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn owner_lifo_thief_fifo() {
        let d = WorkDeque::new();
        d.push(1);
        d.push(2);
        d.push(3);
        assert_eq!(d.steal(), Steal::Success(1), "thief takes the oldest");
        assert_eq!(d.pop(), Some(3), "owner takes the newest");
        assert_eq!(d.pop(), Some(2));
        assert_eq!(d.pop(), None);
        assert_eq!(d.steal(), Steal::Empty);
    }

    #[test]
    fn grow_preserves_order() {
        let d = WorkDeque::new();
        for i in 0..(INITIAL_CAP * 4) {
            d.push(i);
        }
        for i in 0..(INITIAL_CAP * 2) {
            assert_eq!(d.steal(), Steal::Success(i));
        }
        for i in (INITIAL_CAP * 2..INITIAL_CAP * 4).rev() {
            assert_eq!(d.pop(), Some(i));
        }
        assert_eq!(d.pop(), None);
    }

    #[test]
    fn drop_releases_unconsumed_elements() {
        struct Counting(Arc<AtomicUsize>);
        impl Drop for Counting {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let d = WorkDeque::new();
        for _ in 0..100 {
            d.push(Counting(Arc::clone(&drops)));
        }
        drop(d.pop());
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        drop(d);
        assert_eq!(drops.load(Ordering::SeqCst), 100, "no leak, no double-drop");
    }

    /// Owner pops + many thieves: every pushed value is consumed exactly
    /// once across all threads.
    #[test]
    fn concurrent_steal_consumes_each_value_once() {
        const N: usize = 50_000;
        const THIEVES: usize = 3;
        let d: Arc<WorkDeque<usize>> = Arc::new(WorkDeque::new());
        let seen: Arc<Vec<AtomicUsize>> = Arc::new((0..N).map(|_| AtomicUsize::new(0)).collect());
        let done = Arc::new(AtomicUsize::new(0));
        let thieves: Vec<_> = (0..THIEVES)
            .map(|_| {
                let d = Arc::clone(&d);
                let seen = Arc::clone(&seen);
                let done = Arc::clone(&done);
                std::thread::spawn(move || loop {
                    match d.steal() {
                        Steal::Success(v) => {
                            seen[v].fetch_add(1, Ordering::SeqCst);
                        }
                        Steal::Abort => std::hint::spin_loop(),
                        Steal::Empty => {
                            if done.load(Ordering::SeqCst) == 1 {
                                return;
                            }
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();
        // Owner: interleave pushes and pops.
        for i in 0..N {
            d.push(i);
            if i % 3 == 0 {
                if let Some(v) = d.pop() {
                    seen[v].fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        while let Some(v) = d.pop() {
            seen[v].fetch_add(1, Ordering::SeqCst);
        }
        done.store(1, Ordering::SeqCst);
        for th in thieves {
            th.join().unwrap();
        }
        for (i, s) in seen.iter().enumerate() {
            assert_eq!(
                s.load(Ordering::SeqCst),
                1,
                "value {i} consumed exactly once"
            );
        }
    }
}
