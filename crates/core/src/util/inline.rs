//! A small-vector with inline storage — the allocation-free buffer the
//! discovery hot path is built on (DESIGN.md §4.4).
//!
//! The first `N` elements live inline in the owning struct; pushing past
//! `N` *spills* to a heap `Vec` once and stays spilled from then on —
//! [`InlineVec::clear`] keeps the heap capacity, so a buffer that spilled
//! during warm-up never allocates again in steady state. This is exactly
//! the amortization the zero-alloc invariant relies on: per-node
//! successor lists and per-handle reader lists either fit inline
//! (typical stencil fan-outs) or reach a high-water capacity after the
//! first iteration.

use std::fmt;
use std::mem::MaybeUninit;
use std::ops::{Deref, DerefMut};

/// A growable vector whose first `N` elements need no heap allocation.
pub struct InlineVec<T, const N: usize> {
    /// Number of live elements in `inline` (meaningless once spilled).
    len: usize,
    /// Inline storage; `inline[..len]` is initialized when not spilled.
    inline: [MaybeUninit<T>; N],
    /// Heap storage; holds *all* elements once spilled.
    heap: Vec<T>,
    /// Sticky: once true, all elements live in `heap` (even across
    /// `clear`, to retain its capacity).
    spilled: bool,
}

impl<T, const N: usize> InlineVec<T, N> {
    /// An empty vector (no heap allocation).
    pub const fn new() -> Self {
        InlineVec {
            len: 0,
            // SAFETY: an array of MaybeUninit needs no initialization.
            inline: unsafe { MaybeUninit::uninit().assume_init() },
            heap: Vec::new(),
            spilled: false,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        if self.spilled {
            self.heap.len()
        } else {
            self.len
        }
    }

    /// Whether the vector is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the contents have spilled to the heap.
    #[inline]
    pub fn spilled(&self) -> bool {
        self.spilled
    }

    /// Move the inline elements to the heap. Called once, on the first
    /// push past `N`; afterwards the vector behaves like a plain `Vec`
    /// whose capacity only grows.
    #[cold]
    fn spill(&mut self) {
        debug_assert!(!self.spilled);
        self.heap.reserve(N + N);
        for slot in &mut self.inline[..self.len] {
            // SAFETY: inline[..len] is initialized; we move each value
            // out exactly once and then forget the region by len = 0.
            self.heap.push(unsafe { slot.as_ptr().read() });
        }
        self.len = 0;
        self.spilled = true;
    }

    /// Append an element.
    #[inline]
    pub fn push(&mut self, value: T) {
        if !self.spilled {
            if self.len < N {
                self.inline[self.len].write(value);
                self.len += 1;
                return;
            }
            self.spill();
        }
        self.heap.push(value);
    }

    /// Remove and return the last element.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        if self.spilled {
            return self.heap.pop();
        }
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        // SAFETY: inline[len] was initialized and is now forgotten.
        Some(unsafe { self.inline[self.len].as_ptr().read() })
    }

    /// Drop all elements. Heap capacity (if any) is retained — the
    /// steady-state zero-allocation invariant depends on this.
    pub fn clear(&mut self) {
        self.truncate(0);
    }

    /// Drop the elements past `len` (no-op when already that short).
    /// Heap capacity is retained, as for [`InlineVec::clear`].
    pub fn truncate(&mut self, len: usize) {
        if self.spilled {
            self.heap.truncate(len);
        } else if len < self.len {
            let live = self.len;
            self.len = len;
            for slot in &mut self.inline[len..live] {
                // SAFETY: slots [len..live] were initialized; len is
                // already lowered so a panic in a Drop impl cannot
                // double-drop.
                unsafe { slot.as_mut_ptr().drop_in_place() };
            }
        }
    }

    /// Keep only the elements `keep` returns `true` for, in their order.
    /// Heap capacity is retained.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let items = self.as_mut_slice();
        let mut kept = 0;
        for i in 0..items.len() {
            if keep(&items[i]) {
                items.swap(kept, i);
                kept += 1;
            }
        }
        self.truncate(kept);
    }

    /// View as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        if self.spilled {
            &self.heap
        } else {
            // SAFETY: inline[..len] is initialized.
            unsafe { std::slice::from_raw_parts(self.inline.as_ptr().cast::<T>(), self.len) }
        }
    }

    /// View as a mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        if self.spilled {
            &mut self.heap
        } else {
            // SAFETY: inline[..len] is initialized.
            unsafe {
                std::slice::from_raw_parts_mut(self.inline.as_mut_ptr().cast::<T>(), self.len)
            }
        }
    }

    /// Ensure room for `extra` more elements without allocating later.
    /// Spills eagerly if the total would exceed the inline capacity.
    pub fn reserve(&mut self, extra: usize) {
        if !self.spilled {
            if self.len + extra <= N {
                return;
            }
            self.spill();
        }
        self.heap.reserve(extra);
    }
}

impl<T, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> Drop for InlineVec<T, N> {
    fn drop(&mut self) {
        self.clear();
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T, const N: usize> DerefMut for InlineVec<T, N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Clone, const N: usize> Clone for InlineVec<T, N> {
    fn clone(&self) -> Self {
        let mut out = InlineVec::new();
        out.extend_from_slice(self.as_slice());
        out
    }
}

impl<T: Clone, const N: usize> InlineVec<T, N> {
    /// Append a clone of every element of `items`.
    pub fn extend_from_slice(&mut self, items: &[T]) {
        self.reserve(items.len());
        for it in items {
            self.push(it.clone());
        }
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for it in iter {
            self.push(it);
        }
    }
}

impl<T, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = InlineVec::new();
        out.extend(iter);
        out
    }
}

/// Consuming iterator over an [`InlineVec`].
pub struct IntoIter<T, const N: usize> {
    vec: InlineVec<T, N>,
    front: usize,
}

impl<T, const N: usize> Iterator for IntoIter<T, N> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        if self.vec.spilled {
            if self.front < self.vec.heap.len() {
                // SAFETY: each heap element is read exactly once; the
                // Drop impl skips [..front], and `heap.set_len(0)` in
                // Drop prevents Vec from double-dropping.
                let v = unsafe { self.vec.heap.as_ptr().add(self.front).read() };
                self.front += 1;
                Some(v)
            } else {
                None
            }
        } else if self.front < self.vec.len {
            // SAFETY: same single-read protocol as the heap arm.
            let v = unsafe { self.vec.inline[self.front].as_ptr().read() };
            self.front += 1;
            Some(v)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.vec.len() - self.front;
        (rem, Some(rem))
    }
}

impl<T, const N: usize> Drop for IntoIter<T, N> {
    fn drop(&mut self) {
        // Drop the elements not yet yielded, then defuse the vector so
        // its own Drop does not double-drop what we already moved out.
        if self.vec.spilled {
            let len = self.vec.heap.len();
            // SAFETY: elements [..front] were moved out by next();
            // [front..len] are still live and dropped exactly once here.
            unsafe {
                self.vec.heap.set_len(0);
                for i in self.front..len {
                    std::ptr::drop_in_place(self.vec.heap.as_mut_ptr().add(i));
                }
            }
        } else {
            let len = self.vec.len;
            self.vec.len = 0;
            for slot in &mut self.vec.inline[self.front..len] {
                // SAFETY: slots [front..len] are live; len is already 0.
                unsafe { slot.as_mut_ptr().drop_in_place() };
            }
        }
    }
}

impl<T, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = IntoIter<T, N>;
    fn into_iter(self) -> IntoIter<T, N> {
        IntoIter {
            vec: self,
            front: 0,
        }
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    #[test]
    fn inline_then_spill() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        assert!(v.is_empty());
        for i in 0..4 {
            v.push(i);
        }
        assert!(!v.spilled());
        assert_eq!(v.as_slice(), &[0, 1, 2, 3]);
        v.push(4);
        assert!(v.spilled());
        assert_eq!(v.as_slice(), &[0, 1, 2, 3, 4]);
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn clear_keeps_heap_capacity() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        for i in 0..100 {
            v.push(i);
        }
        let cap = v.heap.capacity();
        v.clear();
        assert!(v.is_empty());
        assert!(v.spilled());
        assert_eq!(v.heap.capacity(), cap);
        // refilling within capacity must not grow
        for i in 0..100 {
            v.push(i);
        }
        assert_eq!(v.heap.capacity(), cap);
    }

    #[test]
    fn pop_both_regimes() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        v.push(1);
        v.push(2);
        assert_eq!(v.pop(), Some(2));
        v.push(2);
        v.push(3); // spills
        assert_eq!(v.pop(), Some(3));
        assert_eq!(v.pop(), Some(2));
        assert_eq!(v.pop(), Some(1));
        assert_eq!(v.pop(), None);
    }

    #[test]
    fn drop_counts_are_exact() {
        let token = Rc::new(());
        {
            let mut v: InlineVec<Rc<()>, 2> = InlineVec::new();
            for _ in 0..5 {
                v.push(token.clone());
            }
            assert_eq!(Rc::strong_count(&token), 6);
        }
        assert_eq!(Rc::strong_count(&token), 1);
    }

    #[test]
    fn into_iter_inline_and_spilled() {
        let v: InlineVec<u32, 4> = (0..3).collect();
        assert_eq!(v.into_iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        let v: InlineVec<u32, 2> = (0..6).collect();
        assert_eq!(v.into_iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn partial_into_iter_drops_rest() {
        let token = Rc::new(());
        let mut v: InlineVec<Rc<()>, 2> = InlineVec::new();
        for _ in 0..5 {
            v.push(token.clone());
        }
        let mut it = v.into_iter();
        let first = it.next().unwrap();
        drop(it);
        assert_eq!(Rc::strong_count(&token), 2);
        drop(first);
        assert_eq!(Rc::strong_count(&token), 1);
    }

    #[test]
    fn clone_and_eq() {
        let v: InlineVec<u32, 2> = (0..5).collect();
        let w = v.clone();
        assert_eq!(v, w);
        assert_eq!(format!("{v:?}"), "[0, 1, 2, 3, 4]");
    }

    #[test]
    fn retain_keeps_order_and_drops_the_rest_in_both_regimes() {
        for n in [3usize, 9] {
            let token = Rc::new(());
            let mut v: InlineVec<(u32, Rc<()>), 4> = InlineVec::new();
            for i in 0..n as u32 {
                v.push((i, token.clone()));
            }
            v.retain(|(i, _)| i % 3 != 1);
            let kept: Vec<u32> = v.iter().map(|(i, _)| *i).collect();
            let want: Vec<u32> = (0..n as u32).filter(|i| i % 3 != 1).collect();
            assert_eq!(kept, want);
            assert_eq!(Rc::strong_count(&token), 1 + want.len());
            v.truncate(1);
            assert_eq!(v.len(), 1);
            assert_eq!(Rc::strong_count(&token), 2);
        }
    }

    #[test]
    fn reserve_keeps_small_sets_inline() {
        let mut v: InlineVec<u32, 8> = InlineVec::new();
        v.reserve(8);
        assert!(!v.spilled());
        v.reserve(9);
        assert!(v.spilled());
    }
}
