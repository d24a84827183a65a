//! io_uring-style submission/completion rings for batched message passing.
//!
//! The paper's primitives are strictly synchronous: every `message_send`
//! takes the LNVC lock and notifies receivers once per message.  At small
//! message sizes that per-message lock/notify traffic dominates (the same
//! observation behind Figure 3's asymptote — and behind modern batched
//! I/O interfaces).  An [`AioRing`] amortises it: a submitter fills a
//! cache-line-padded ring of 32-byte descriptors and rings **one doorbell
//! per batch** (a count, nothing sleeps on it); a drainer completes the
//! batch into a companion completion ring under a single lock hold.
//!
//! The ring is `#[repr(C)]`, offset-addressed and valid for any zeroed
//! bit pattern, so the facility carves one submission ring and one
//! completion ring per process slot directly into the shared region
//! (`RegionLayout` segments "aio sq rings" / "aio cq rings").
//!
//! # Discipline
//!
//! Single-producer / single-consumer: one side owns `tail` (push), the
//! other owns `head` (pop); the only synchronization is one
//! release/acquire pair per side, exactly like
//! [`crate::waitq::FutexSeq`]'s sequence protocol and the one-to-one
//! channel.  A ring belongs to one process slot: that
//! process pushes submissions and pops completions; whoever drains
//! (usually the same process, inline) pops submissions and pushes
//! completions.  Each counter has the same one writer as the cursor it
//! mirrors (the doorbell count: the producer), so it is a load and a
//! store, not an RMW.  Observers ([`AioRing::depth`], the region
//! inspector) may read counters from anywhere.
//!
//! Push/pop report [`crate::hooks::SyncEvent::StackPush`]/`StackPop`
//! yield points, so the `mpf-check` harness can permute ring operations
//! against the rest of the facility.

use std::sync::atomic::{AtomicI32, AtomicU32, AtomicU64, Ordering};

use crate::hooks::{self, SyncEvent};
use crate::telemetry::bump;

/// Descriptor slots per ring.  A power of two, fixed so the region layout
/// stays a pure function of the facility configuration.
pub const AIO_RING_SLOTS: usize = 64;
/// Bytes per ring descriptor.
pub const AIO_RING_ENTRY_BYTES: usize = 32;
/// Bytes of the ring header (three padded cache lines: producer cursor,
/// consumer cursor, counters).
pub const AIO_RING_HEADER_BYTES: usize = 192;
/// Total bytes of one ring.
pub const AIO_RING_BYTES: usize = AIO_RING_HEADER_BYTES + AIO_RING_SLOTS * AIO_RING_ENTRY_BYTES;

/// One descriptor, by value.  The meaning of the fields is the caller's:
/// the facilities put the LNVC id in `lnvc`, a pool index in `arg0`, the
/// payload length in `arg1`, and a caller-supplied token in `user_data`;
/// `status` carries an `MpfError` status code on completions (0 = ok).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingEntry {
    /// Caller-owned token, returned untouched on the completion.
    pub user_data: u64,
    /// Causal trace id of the staged message (0 = untraced); carried from
    /// submission to completion so batched sends keep their chains.
    pub trace: u64,
    /// Conversation the descriptor concerns.
    pub lnvc: u32,
    /// First operand (facility-defined; message header index here).
    pub arg0: u32,
    /// Second operand (facility-defined; payload length here).
    pub arg1: u32,
    /// Completion status (0 = success, else an error status code).
    pub status: i32,
}

/// One in-ring descriptor slot.  All-atomic so the struct is valid for
/// any bit pattern and safely shareable across process mappings; the
/// release publish on `tail` (resp. `head`) orders the relaxed field
/// stores.
#[derive(Debug, Default)]
#[repr(C)]
struct Slot {
    user_data: AtomicU64,
    trace: AtomicU64,
    lnvc: AtomicU32,
    arg0: AtomicU32,
    arg1: AtomicU32,
    status: AtomicI32,
}

/// A bounded SPSC descriptor ring with counters.
#[derive(Debug)]
#[repr(C)]
pub struct AioRing {
    /// Producer cursor: descriptors pushed since reset.  Own line.
    tail: AtomicU32,
    _pad_tail: [u32; 15],
    /// Consumer cursor: descriptors popped since reset.  Own line.
    head: AtomicU32,
    _pad_head: [u32; 15],
    /// Padding that keeps the counters at the offsets the layout fixes.
    _pad_bell: u64,
    /// Times the doorbell was rung (batches, not descriptors).
    doorbells: AtomicU64,
    /// Descriptors ever pushed (monotonic; `tail` mirrors it).
    enqueued: AtomicU64,
    /// Descriptors ever popped (monotonic; `head` mirrors it).
    dequeued: AtomicU64,
    _pad_tail2: [u64; 4],
    entries: [Slot; AIO_RING_SLOTS],
}

impl Default for AioRing {
    fn default() -> Self {
        Self::new()
    }
}

impl AioRing {
    /// A fresh, empty ring.
    pub fn new() -> Self {
        Self {
            tail: AtomicU32::new(0),
            _pad_tail: [0; 15],
            head: AtomicU32::new(0),
            _pad_head: [0; 15],
            _pad_bell: 0,
            doorbells: AtomicU64::new(0),
            enqueued: AtomicU64::new(0),
            dequeued: AtomicU64::new(0),
            _pad_tail2: [0; 4],
            entries: std::array::from_fn(|_| Slot::default()),
        }
    }

    /// Resets cursors and counters (region reuse; not for live rings).
    pub fn reset(&self) {
        self.tail.store(0, Ordering::Relaxed);
        self.head.store(0, Ordering::Relaxed);
        self.doorbells.store(0, Ordering::Relaxed);
        self.enqueued.store(0, Ordering::Relaxed);
        self.dequeued.store(0, Ordering::Relaxed);
    }

    /// Descriptor capacity.
    pub const fn capacity(&self) -> usize {
        AIO_RING_SLOTS
    }

    /// Descriptors currently queued (push-side view).
    pub fn depth(&self) -> usize {
        let tail = self.tail.load(Ordering::Acquire);
        let head = self.head.load(Ordering::Acquire);
        tail.wrapping_sub(head) as usize
    }

    /// Attempts to push `e`; `false` when the ring is full.  Does **not**
    /// ring the doorbell — submitters push a whole batch, then call
    /// [`AioRing::ring_doorbell`] once.
    pub fn try_push(&self, e: RingEntry) -> bool {
        hooks::yield_point(SyncEvent::StackPush(self as *const Self as usize));
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) as usize >= AIO_RING_SLOTS {
            return false;
        }
        let slot = &self.entries[tail as usize % AIO_RING_SLOTS];
        slot.user_data.store(e.user_data, Ordering::Relaxed);
        slot.trace.store(e.trace, Ordering::Relaxed);
        slot.lnvc.store(e.lnvc, Ordering::Relaxed);
        slot.arg0.store(e.arg0, Ordering::Relaxed);
        slot.arg1.store(e.arg1, Ordering::Relaxed);
        slot.status.store(e.status, Ordering::Relaxed);
        // The release publish transfers the slot's relaxed stores to the
        // consumer's acquire load of `tail`.
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        bump(&self.enqueued, 1);
        true
    }

    /// Attempts to pop the oldest descriptor; `None` when empty.
    pub fn try_pop(&self) -> Option<RingEntry> {
        hooks::yield_point(SyncEvent::StackPop(self as *const Self as usize));
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if tail == head {
            return None;
        }
        let slot = &self.entries[head as usize % AIO_RING_SLOTS];
        let e = RingEntry {
            user_data: slot.user_data.load(Ordering::Relaxed),
            trace: slot.trace.load(Ordering::Relaxed),
            lnvc: slot.lnvc.load(Ordering::Relaxed),
            arg0: slot.arg0.load(Ordering::Relaxed),
            arg1: slot.arg1.load(Ordering::Relaxed),
            status: slot.status.load(Ordering::Relaxed),
        };
        // Release returns slot ownership to the producer.
        self.head.store(head.wrapping_add(1), Ordering::Release);
        bump(&self.dequeued, 1);
        Some(e)
    }

    /// Rings the doorbell: counts one batch pushed since the last ring.
    pub fn ring_doorbell(&self) {
        bump(&self.doorbells, 1);
    }

    /// Times the doorbell has been rung.
    pub fn doorbell_count(&self) -> u64 {
        self.doorbells.load(Ordering::Relaxed)
    }

    /// Descriptors ever pushed.
    pub fn total_enqueued(&self) -> u64 {
        self.enqueued.load(Ordering::Relaxed)
    }

    /// Descriptors ever popped.
    pub fn total_dequeued(&self) -> u64 {
        self.dequeued.load(Ordering::Relaxed)
    }
}

// Compile-time layout contract: the byte constants above are what
// `RegionLayout` carves; a drifted struct must fail the build, not corrupt
// a region.
const _: () = assert!(std::mem::size_of::<Slot>() == AIO_RING_ENTRY_BYTES);
const _: () = assert!(std::mem::size_of::<AioRing>() == AIO_RING_BYTES);
const _: () = assert!(std::mem::align_of::<AioRing>() <= 8);
const _: () = assert!(AIO_RING_SLOTS.is_power_of_two());
const _: () = assert!(AIO_RING_BYTES.is_multiple_of(64));

#[cfg(test)]
mod tests {
    use super::*;

    fn e(n: u64) -> RingEntry {
        RingEntry {
            user_data: n,
            trace: n.wrapping_mul(7),
            lnvc: n as u32,
            arg0: (n * 2) as u32,
            arg1: (n * 3) as u32,
            status: 0,
        }
    }

    #[test]
    fn fifo_roundtrip() {
        let r = AioRing::new();
        assert_eq!(r.depth(), 0);
        for i in 0..10 {
            assert!(r.try_push(e(i)));
        }
        assert_eq!(r.depth(), 10);
        for i in 0..10 {
            assert_eq!(r.try_pop(), Some(e(i)));
        }
        assert_eq!(r.try_pop(), None);
        assert_eq!(r.total_enqueued(), 10);
        assert_eq!(r.total_dequeued(), 10);
    }

    #[test]
    fn push_fails_when_full() {
        let r = AioRing::new();
        for i in 0..AIO_RING_SLOTS as u64 {
            assert!(r.try_push(e(i)));
        }
        assert_eq!(r.depth(), r.capacity());
        assert!(!r.try_push(e(999)), "65th push must fail");
        assert_eq!(r.try_pop(), Some(e(0)));
        assert!(r.try_push(e(999)), "space after a pop");
    }

    #[test]
    fn cursors_survive_wraparound() {
        let r = AioRing::new();
        for round in 0..10_000u64 {
            assert!(r.try_push(e(round)));
            assert_eq!(r.try_pop(), Some(e(round)));
        }
        assert_eq!(r.depth(), 0);
        assert_eq!(r.total_enqueued(), 10_000);
    }

    #[test]
    fn doorbell_counts_batches_not_entries() {
        let r = AioRing::new();
        for i in 0..8 {
            assert!(r.try_push(e(i)));
        }
        r.ring_doorbell();
        assert_eq!(r.doorbell_count(), 1);
    }

    #[test]
    fn reset_clears_state() {
        let r = AioRing::new();
        r.try_push(e(1));
        r.ring_doorbell();
        r.try_pop();
        r.reset();
        assert_eq!(r.depth(), 0);
        assert_eq!(r.doorbell_count(), 0);
        assert_eq!(r.total_enqueued(), 0);
        assert_eq!(r.total_dequeued(), 0);
    }

    #[test]
    fn spsc_cross_thread_stream() {
        let r = AioRing::new();
        const N: u64 = 100_000;
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..N {
                    while !r.try_push(e(i)) {
                        std::hint::spin_loop();
                    }
                }
            });
            for i in 0..N {
                let got = loop {
                    if let Some(g) = r.try_pop() {
                        break g;
                    }
                    std::hint::spin_loop();
                };
                assert_eq!(got, e(i), "order and integrity at {i}");
            }
        });
        assert_eq!(r.depth(), 0);
    }
}
