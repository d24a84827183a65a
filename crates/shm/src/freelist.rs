//! The lock-free free list over slot indices (a Treiber stack with an ABA
//! tag), shared by the protocol engine's in-region pools and [`Pool`].
//!
//! The paper's §3.1: "message blocks … are linked into free lists when not
//! in use."  MPF protected those lists with its global lock; we make them
//! lock-free so allocation never serializes senders — the same observation
//! the paper makes in §5 about removing locking where the protocol allows.
//!
//! Links are stored out-of-band, in a link field the caller reads and
//! writes through closures (a parallel array, or a field of the slot), so
//! the list itself is one `#[repr(C)]` word that can sit in a region.
//!
//! [`Pool`]: crate::pool::Pool

use std::sync::atomic::{AtomicU64, Ordering};

use crate::hooks::{self, SyncEvent};

/// Null link for all index chains.
pub const NIL: u32 = u32::MAX;

/// A Treiber free-list head over pool indices: `(aba_tag << 32) | index`.
///
/// The unit of allocation is a **chain**: [`Self::pop_chain`] takes the
/// top `n` slots, [`Self::push_chain`] returns an already-linked chain,
/// each with one successful CAS on this word (DESIGN.md "Free lists" has
/// the argument).  A chain keeps using the list's own link field while it
/// is out and comes back in the order it left, so the list is a LIFO
/// stack of whole chains.  [`Self::pop`]/[`Self::push`] are `n = 1`.
///
/// Lock-free, so a process dying mid-allocation or mid-free can never
/// strand the list in a locked state (at worst it leaks the one chain it
/// had just popped or was about to push).
///
/// The head word is read and swapped `SeqCst`, so a push can pair with
/// the freer's following load of a waiter count, and a pop that finds the
/// list short with the waiter's preceding increment of it (the engine's
/// pool signal, a store-buffering pair; DESIGN.md "wait/notify map").
///
/// Every pop reports [`SyncEvent::Alloc`] and every push
/// [`SyncEvent::Free`] to the sync hook, before touching the word.
#[repr(C)]
#[derive(Debug)]
pub struct FreeHead {
    word: AtomicU64,
}

#[inline]
fn pack(tag: u32, idx: u32) -> u64 {
    ((tag as u64) << 32) | idx as u64
}

impl FreeHead {
    /// An empty list.
    pub const fn empty() -> Self {
        Self {
            word: AtomicU64::new(NIL as u64),
        }
    }

    /// Makes the list hold slots `0..n`, slot 0 on top: plain stores and
    /// one head store, no CAS per element.  Init-time only — the carver is
    /// alone in the region until it releases the init barrier, which also
    /// publishes these stores.
    pub fn thread(&self, n: u32, set_next: impl Fn(u32, u32)) {
        assert!(n < NIL, "capacity must leave room for the NIL sentinel");
        for i in 0..n {
            set_next(i, if i + 1 < n { i + 1 } else { NIL });
        }
        let top = if n == 0 { NIL } else { 0 };
        self.word.store(pack(0, top), Ordering::Release);
    }

    /// Pushes the chain `head ..= tail` — already linked head to tail
    /// through the list's link field — with one CAS; `set_next` stores the
    /// link field of a slot (only `tail`'s is written).
    pub fn push_chain(&self, head: u32, tail: u32, set_next: impl Fn(u32, u32)) {
        hooks::yield_point(SyncEvent::Free(self as *const Self as usize));
        let mut cur = self.word.load(Ordering::Acquire);
        loop {
            let (tag, top) = ((cur >> 32) as u32, cur as u32);
            set_next(tail, top);
            match self.word.compare_exchange_weak(
                cur,
                pack(tag.wrapping_add(1), head),
                Ordering::SeqCst,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Pushes the single slot `idx`.
    pub fn push(&self, idx: u32, set_next: impl Fn(u32, u32)) {
        self.push_chain(idx, idx, set_next);
    }

    /// Slots on the list, by walking it (at most `capacity` steps, so a
    /// torn list cannot loop).  A quiescent diagnostic, not a counter.
    pub fn len(&self, capacity: u32, next_of: impl Fn(u32) -> u32) -> u32 {
        let mut n = 0;
        let mut cur = self.peek().1;
        while cur != NIL && n < capacity {
            n += 1;
            cur = next_of(cur);
        }
        n
    }

    /// Pops the top `n` (≥ 1) slots as one chain `(head, tail)` with one
    /// CAS; `next_of` reads the link field of a slot.  The chain stays
    /// linked head to tail, and `tail`'s link — still pointing into the
    /// list — is the caller's to overwrite.  All or nothing: with fewer
    /// than `n` slots free the result is `None` and the list untouched.
    pub fn pop_chain(&self, n: u32, next_of: impl Fn(u32) -> u32) -> Option<(u32, u32)> {
        debug_assert!(n >= 1);
        hooks::yield_point(SyncEvent::Alloc(self as *const Self as usize));
        let mut cur = self.word.load(Ordering::SeqCst);
        loop {
            let (tag, head) = ((cur >> 32) as u32, cur as u32);
            // At most `n` links: a walk that strays onto slots a racing
            // pop already took cannot loop, and its CAS below will fail.
            let (mut tail, mut rest, mut walked) = (NIL, head, 0);
            while walked < n && rest != NIL {
                let (k, next) = stretch(rest, n - walked, &next_of);
                (tail, rest, walked) = (rest + k - 1, next, walked + k);
            }
            if walked < n {
                // The end of the list — or of a chain a racing pop cut
                // loose.  Only an unchanged head word means a shortage.
                let seen = self.word.load(Ordering::SeqCst);
                if seen == cur {
                    return None;
                }
                cur = seen;
                continue;
            }
            match self.word.compare_exchange_weak(
                cur,
                pack(tag.wrapping_add(1), rest),
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return Some((head, tail)),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Pops a single slot index.
    pub fn pop(&self, next_of: impl Fn(u32) -> u32) -> Option<u32> {
        self.pop_chain(1, next_of).map(|(head, _)| head)
    }

    /// `(tag, top)` right now: the count of successful CASes so far
    /// (modulo 2³²; a chain of any length is one) and the slot on top of
    /// the list ([`NIL`] when empty).  For audits and tests.
    #[inline]
    pub fn peek(&self) -> (u32, u32) {
        let word = self.word.load(Ordering::Acquire);
        ((word >> 32) as u32, word as u32)
    }
}

/// Every chain walk's step: reads the links of `from`, `from + 1`, … (at
/// most `max` ≥ 1) up to the first not naming the next slot; returns how
/// many it read and the last.  It steps by index, only comparing the loaded
/// link, so a stretch's loads overlap where a pointer chase's would wait.
#[inline(always)]
pub fn stretch(from: u32, max: u32, next_of: impl Fn(u32) -> u32) -> (u32, u32) {
    let mut k = 0;
    loop {
        let (want, next) = (from + k + 1, next_of(from + k));
        k += 1;
        if k == max || next != want {
            return (k, next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn links(n: usize) -> Vec<AtomicU32> {
        (0..n).map(|_| AtomicU32::new(NIL)).collect()
    }

    #[test]
    fn push_pop_lifo() {
        let links = links(8);
        let next = |i: u32| links[i as usize].load(Ordering::Acquire);
        let set = |i: u32, n: u32| links[i as usize].store(n, Ordering::Release);
        let head = FreeHead::empty();
        assert_eq!(head.pop(next), None, "a new list is empty");
        head.thread(0, |_, _| unreachable!("no slots to link"));
        assert_eq!(head.pop(next), None);
        for i in 0..8u32 {
            head.push(i, set);
        }
        for want in (0..8u32).rev() {
            assert_eq!(head.pop(next), Some(want));
        }
        assert_eq!(head.pop(next), None);
    }

    #[test]
    fn thread_hands_out_low_indices_first() {
        let links: Vec<AtomicU32> = (0..5).map(|_| AtomicU32::new(7)).collect();
        let head = FreeHead::empty();
        head.thread(5, |slot, next| {
            links[slot as usize].store(next, Ordering::Relaxed)
        });
        for want in 0..5u32 {
            let got = head.pop(|i| links[i as usize].load(Ordering::Acquire));
            assert_eq!(got, Some(want));
        }
        assert!(head
            .pop(|i| links[i as usize].load(Ordering::Acquire))
            .is_none());
    }

    /// All or nothing, one CAS per chain, and a stack of chains that keep
    /// their allocation order.
    #[test]
    fn chains_pop_and_push_whole() {
        let links = links(8);
        let head = FreeHead::empty();
        let next = |i: u32| links[i as usize].load(Ordering::Acquire);
        let set = |i: u32, n: u32| links[i as usize].store(n, Ordering::Release);
        head.thread(8, set);
        assert_eq!(head.pop_chain(1, next), Some((0, 0)));
        assert_eq!(head.pop(next), Some(1));
        let a = head.pop_chain(3, next).unwrap();
        let b = head.pop_chain(2, next).unwrap();
        assert_eq!((a, b, head.peek()), ((2, 4), (5, 6), (4, 7)));
        assert_eq!(head.pop_chain(2, next), None, "one free, two asked");
        assert_eq!(head.peek(), (4, 7), "a shortage leaves tag and top alone");
        head.push_chain(a.0, a.1, set);
        head.push_chain(b.0, b.1, set);
        head.push(0, set);
        assert_eq!(head.peek(), (7, 0), "three pushes, three CASes");
        // The last chain freed is on top, each in the order it left.
        let order: Vec<u32> = std::iter::from_fn(|| head.pop(next)).collect();
        assert_eq!(order, [0, 5, 6, 2, 3, 4, 7]);
    }

    /// Two pushers and two poppers on one list: every slot is held by
    /// exactly one side at any time, and all of them come back.
    #[test]
    fn concurrent_pushers_and_poppers_conserve_slots() {
        const CAP: u32 = 64;
        let links = links(CAP as usize);
        let next = |i: u32| links[i as usize].load(Ordering::Acquire);
        let set = |i: u32, n: u32| links[i as usize].store(n, Ordering::Release);
        let head = FreeHead::empty();
        head.thread(CAP, set);
        let drained: Vec<u32> = std::iter::from_fn(|| head.pop(next)).collect();
        assert_eq!(drained.len(), CAP as usize);
        std::thread::scope(|s| {
            for half in drained.chunks(CAP as usize / 2) {
                let head = &head;
                s.spawn(move || half.iter().for_each(|&i| head.push(i, set)));
                s.spawn(move || {
                    for _ in 0..1_000 {
                        if let Some((h, t)) = head.pop_chain(2, next) {
                            head.push_chain(h, t, set);
                        }
                    }
                });
            }
        });
        let mut back: Vec<u32> = std::iter::from_fn(|| head.pop(next)).collect();
        back.sort_unstable();
        assert_eq!(back, (0..CAP).collect::<Vec<_>>());
    }
}
