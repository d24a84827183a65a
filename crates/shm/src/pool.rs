//! Typed slot pools backed by a lock-free free list.
//!
//! All MPF descriptors (message headers, LNVC descriptors, send/receive
//! connection descriptors) live in fixed arrays inside the shared region,
//! sized at `init()` time from `max_lnvcs`/`max_processes` exactly as the
//! paper's §2 describes ("used to estimate the amount of shared memory
//! necessary").  A slot is referenced by its `u32` index — never by
//! pointer — keeping every structure position independent.
//!
//! # Ownership discipline
//!
//! `alloc` transfers logical ownership of a slot to the caller; `free`
//! returns it.  Slots are never deinitialized: `T` is required to be
//! `Default` and slot types use interior mutability (atomics) for their
//! fields, with the owning protocol (usually a per-LNVC lock in `mpf-core`)
//! providing exclusion.  `get` hands out `&T` to any caller; it is the
//! layer above that guarantees only the owner mutates a live slot.

use crate::idxstack::{IndexStack, NIL};

/// A fixed-capacity pool of `T` slots with index handles.
#[derive(Debug)]
pub struct Pool<T> {
    slots: Box<[T]>,
    free: IndexStack,
}

impl<T: Default> Pool<T> {
    /// Creates a pool with `capacity` default-initialized slots, all free.
    pub fn new(capacity: u32) -> Self {
        let slots: Box<[T]> = (0..capacity).map(|_| T::default()).collect();
        Self {
            slots,
            free: IndexStack::new(capacity, true),
        }
    }
}

impl<T> Pool<T> {
    /// Total slots.
    pub fn capacity(&self) -> u32 {
        self.slots.len() as u32
    }

    /// Approximate number of free slots.
    pub fn available(&self) -> u32 {
        self.free.len()
    }

    /// Takes a free slot, returning its index, or `None` when exhausted
    /// (the paper's fixed shared-memory budget is a hard limit too).
    pub fn alloc(&self) -> Option<u32> {
        crate::hooks::yield_point(crate::hooks::SyncEvent::Alloc(self as *const Self as usize));
        self.free.pop()
    }

    /// Returns slot `idx` to the free list.
    ///
    /// Logic error (list corruption) if `idx` is not currently allocated;
    /// panics if out of range.
    pub fn free(&self, idx: u32) {
        debug_assert!(idx != NIL);
        crate::hooks::yield_point(crate::hooks::SyncEvent::Free(self as *const Self as usize));
        self.free.push(idx);
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
    fn iter_visits_all_slots() {
        let p: Pool<Slot> = Pool::new(5);
        assert_eq!(p.iter().count(), 5);
        let indices: Vec<u32> = p.iter().map(|(i, _)| i).collect();
        assert_eq!(indices, vec![0, 1, 2, 3, 4]);
    }
}
