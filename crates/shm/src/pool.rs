//! Typed slot pools on the heap, over the engine's free list.
//!
//! The engine keeps its descriptors in fixed in-region arrays threaded on
//! [`FreeHead`]s; a [`Pool`] is the same arrangement in process memory —
//! slots, a parallel link array and one [`FreeHead`] — for code that
//! wants a typed pool with `u32` handles (the substrate probes).
//!
//! # Ownership discipline
//!
//! `alloc` transfers logical ownership of a slot to the caller; `free`
//! returns it.  Slots are never deinitialized: `T` is required to be
//! `Default` and slot types use interior mutability (atomics) for their
//! fields, with the owning protocol providing exclusion.  `get` hands out
//! `&T` to any caller; it is the layer above that guarantees only the
//! owner mutates a live slot.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::freelist::{FreeHead, NIL};

/// A fixed-capacity pool of `T` slots with index handles: the slots, a
/// parallel link array and one [`FreeHead`] over it.
#[derive(Debug)]
pub struct Pool<T> {
    slots: Box<[T]>,
    links: Box<[AtomicU32]>,
    free: FreeHead,
}

impl<T: Default> Pool<T> {
    /// Creates a pool with `capacity` default-initialized slots, all free.
    pub fn new(capacity: u32) -> Self {
        let slots: Box<[T]> = (0..capacity).map(|_| T::default()).collect();
        let links: Box<[AtomicU32]> = (0..capacity).map(|_| AtomicU32::new(NIL)).collect();
        let free = FreeHead::empty();
        free.thread(capacity, |i, n| {
            links[i as usize].store(n, Ordering::Relaxed)
        });
        Self { slots, links, free }
    }
}

impl<T> Pool<T> {
    /// Total slots.
    pub fn capacity(&self) -> u32 {
        self.slots.len() as u32
    }

    /// Free slots, by walking the list: exact when quiescent, approximate
    /// while other threads allocate and free.
    pub fn available(&self) -> u32 {
        let next = |i| self.link(i).load(Ordering::Relaxed);
        self.free.len(self.capacity(), next)
    }

    /// Takes a free slot, returning its index, or `None` when exhausted
    /// (the paper's fixed shared-memory budget is a hard limit too).
    pub fn alloc(&self) -> Option<u32> {
        self.free.pop(|i| self.link(i).load(Ordering::Acquire))
    }

    /// Returns slot `idx` to the free list.
    ///
    /// Logic error (list corruption) if `idx` is not currently allocated;
    /// panics if out of range.
    pub fn free(&self, idx: u32) {
        assert!((idx as usize) < self.links.len(), "index out of range");
        self.free
            .push(idx, |i, n| self.link(i).store(n, Ordering::Release));
    }

    fn link(&self, i: u32) -> &AtomicU32 {
        &self.links[i as usize]
    }

    /// Shared access to slot `idx`.  Panics if out of range.
    #[inline]
    pub fn get(&self, idx: u32) -> &T {
        &self.slots[idx as usize]
    }

    /// Iterates over every slot (allocated or free) with its index.
    /// Used by diagnostics and the close-time sweeps.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.slots.iter().enumerate().map(|(i, t)| (i as u32, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::thread;

    #[derive(Default)]
    struct Slot {
        value: AtomicU64,
    }

    #[test]
    fn alloc_until_exhausted() {
        let p: Pool<Slot> = Pool::new(3);
        let a = p.alloc().unwrap();
        let b = p.alloc().unwrap();
        let c = p.alloc().unwrap();
        assert_eq!(p.alloc(), None);
        assert_eq!(p.capacity() - p.available(), 3);
        p.free(b);
        assert_eq!(p.alloc(), Some(b));
        let mut all = [a, b, c];
        all.sort_unstable();
        assert_eq!(all, [0, 1, 2]);
    }

    #[test]
    fn slot_state_persists_across_realloc() {
        let p: Pool<Slot> = Pool::new(1);
        let i = p.alloc().unwrap();
        p.get(i).value.store(99, Ordering::Relaxed);
        p.free(i);
        let j = p.alloc().unwrap();
        assert_eq!(i, j);
        // Slots are not reinitialized; owners must reset on alloc.
        assert_eq!(p.get(j).value.load(Ordering::Relaxed), 99);
    }

    #[test]
    fn counters_track_usage() {
        let p: Pool<Slot> = Pool::new(8);
        assert_eq!(p.available(), 8);
        let i = p.alloc().unwrap();
        assert_eq!(p.capacity() - p.available(), 1);
        p.free(i);
        assert_eq!(p.capacity() - p.available(), 0);
    }

    #[test]
    fn concurrent_alloc_free_never_double_allocates() {
        let p: Pool<Slot> = Pool::new(64);
        thread::scope(|s| {
            for t in 0..8u64 {
                let p = &p;
                s.spawn(move || {
                    for round in 0..5_000u64 {
                        if let Some(idx) = p.alloc() {
                            let slot = p.get(idx);
                            let tag = (t << 32) | round;
                            slot.value.store(tag, Ordering::SeqCst);
                            // If another thread owned this slot concurrently
                            // it would have overwritten our tag.
                            assert_eq!(slot.value.load(Ordering::SeqCst), tag);
                            p.free(idx);
                        }
                    }
                });
            }
        });
        assert_eq!(p.capacity() - p.available(), 0);
    }

    #[test]
    fn zero_capacity_and_lifo_order() {
        let empty: Pool<Slot> = Pool::new(0);
        assert_eq!(
            (empty.alloc(), empty.capacity(), empty.available()),
            (None, 0, 0)
        );
        let p: Pool<Slot> = Pool::new(8);
        let all: Vec<u32> = std::iter::from_fn(|| p.alloc()).collect();
        assert_eq!(
            all,
            (0..8).collect::<Vec<_>>(),
            "every index once, low first"
        );
        for &i in &all {
            p.free(i);
        }
        for want in all.into_iter().rev() {
            assert_eq!(p.alloc(), Some(want), "last freed, first reused");
        }
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn freeing_out_of_range_panics() {
        Pool::<Slot>::new(4).free(4);
    }

    #[test]
    fn iter_visits_all_slots() {
        let p: Pool<Slot> = Pool::new(5);
        assert_eq!(p.iter().count(), 5);
        let indices: Vec<u32> = p.iter().map(|(i, _)| i).collect();
        assert_eq!(indices, vec![0, 1, 2, 3, 4]);
    }
}
