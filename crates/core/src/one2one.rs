//! One-to-one, lock-free message passing — the paper's second §5 variant.
//!
//! "Furthermore, if only one-to-one communication is implemented, all
//! locking associated with message handling is removed."
//!
//! [`one2one`] builds a bounded single-producer/single-consumer byte ring:
//! variable-length messages are framed (4-byte little-endian length +
//! payload) into a power-of-two circular buffer; the producer owns the
//! tail, the consumer owns the head, and the only synchronization is one
//! release/acquire pair per side.  Exclusive roles are enforced at compile
//! time: the halves are separate types whose transfer methods take
//! `&mut self`.
//!
//! Ablation bench A5 compares this against a two-party FCFS LNVC.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mpf_shm::backoff::Backoff;
use mpf_shm::hooks::{self, SyncEvent};
use mpf_shm::pad::CachePadded;

use crate::error::{MpfError, Result};

const FRAME_HEADER: usize = 4;

#[derive(Debug)]
struct Ring {
    buf: Box<[UnsafeCell<u8>]>,
    mask: usize,
    /// Consumer cursor (bytes consumed since creation).
    head: CachePadded<AtomicUsize>,
    /// Producer cursor (bytes produced since creation).
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: producer writes only `buf[head..tail+new)`, consumer reads only
// `buf[head..tail)`; the release/acquire pair on `tail` (resp. `head`)
// transfers ownership of the byte ranges between the two roles.
unsafe impl Sync for Ring {}
unsafe impl Send for Ring {}

impl Ring {
    /// Two-segment copy in: logical position `pos` may wrap.
    unsafe fn write(&self, pos: usize, src: &[u8]) {
        let cap = self.buf.len();
        let start = pos & self.mask;
        let first = src.len().min(cap - start);
        let base = self.buf.as_ptr() as *mut u8;
        std::ptr::copy_nonoverlapping(src.as_ptr(), base.add(start), first);
        if first < src.len() {
            std::ptr::copy_nonoverlapping(src.as_ptr().add(first), base, src.len() - first);
        }
    }

    /// Two-segment copy out.
    unsafe fn read(&self, pos: usize, dst: &mut [u8]) {
        let cap = self.buf.len();
        let start = pos & self.mask;
        let first = dst.len().min(cap - start);
        let base = self.buf.as_ptr() as *const u8;
        std::ptr::copy_nonoverlapping(base.add(start), dst.as_mut_ptr(), first);
        if first < dst.len() {
            std::ptr::copy_nonoverlapping(base, dst.as_mut_ptr().add(first), dst.len() - first);
        }
    }
}

/// Producer half of a one-to-one channel.
#[derive(Debug)]
pub struct O2OSender {
    ring: Arc<Ring>,
}

/// Consumer half of a one-to-one channel.
#[derive(Debug)]
pub struct O2OReceiver {
    ring: Arc<Ring>,
}

/// Creates a one-to-one channel with at least `capacity` bytes of buffer
/// (rounded up to a power of two; messages occupy `len + 4` bytes each).
///
/// ```
/// let (mut tx, mut rx) = mpf::one2one::one2one(256);
/// tx.send(b"no locks were taken").unwrap();
/// let mut buf = [0u8; 32];
/// let n = rx.recv(&mut buf).unwrap();
/// assert_eq!(&buf[..n], b"no locks were taken");
/// ```
pub fn one2one(capacity: usize) -> (O2OSender, O2OReceiver) {
    let cap = capacity.max(FRAME_HEADER + 1).next_power_of_two();
    let ring = Arc::new(Ring {
        buf: (0..cap).map(|_| UnsafeCell::new(0)).collect(),
        mask: cap - 1,
        head: CachePadded::new(AtomicUsize::new(0)),
        tail: CachePadded::new(AtomicUsize::new(0)),
    });
    (
        O2OSender {
            ring: Arc::clone(&ring),
        },
        O2OReceiver { ring },
    )
}

impl O2OSender {
    /// Attempts to enqueue `buf`; `Ok(false)` when the ring is full.
    pub fn try_send(&mut self, buf: &[u8]) -> Result<bool> {
        let need = FRAME_HEADER + buf.len();
        let ring = &*self.ring;
        if need > ring.buf.len() {
            return Err(MpfError::MessageTooLarge {
                len: buf.len(),
                max: ring.buf.len() - FRAME_HEADER,
            });
        }
        // Schedule-exploration seam: the only racy step on this side is
        // the cursor handshake, so one decision point before it lets the
        // harness permute producer and consumer at message granularity.
        hooks::yield_point(SyncEvent::StackPush(&ring.tail as *const _ as usize));
        let tail = ring.tail.load(Ordering::Relaxed);
        let head = ring.head.load(Ordering::Acquire);
        if ring.buf.len() - (tail - head) < need {
            return Ok(false);
        }
        let header = (buf.len() as u32).to_le_bytes();
        // SAFETY: `[tail, tail+need)` is unpublished space owned by the
        // producer (checked against `head` above).
        unsafe {
            ring.write(tail, &header);
            ring.write(tail + FRAME_HEADER, buf);
        }
        ring.tail.store(tail + need, Ordering::Release);
        hooks::notify(&ring.tail as *const _ as usize);
        Ok(true)
    }

    /// Enqueues `buf`, spinning (with backoff) while the ring is full.
    pub fn send(&mut self, buf: &[u8]) -> Result<()> {
        let mut backoff = Backoff::new();
        while !self.try_send(buf)? {
            let ring = Arc::clone(&self.ring);
            let need = FRAME_HEADER + buf.len();
            // Under the harness, park until the consumer frees enough
            // space instead of spinning through the decision budget.
            if !hooks::wait(&ring.head as *const _ as usize, &mut || {
                let tail = ring.tail.load(Ordering::Relaxed);
                let head = ring.head.load(Ordering::Acquire);
                ring.buf.len() - (tail - head) >= need
            }) {
                backoff.snooze();
            }
        }
        Ok(())
    }
}

impl O2OReceiver {
    /// Length of the next queued message, or `None` if empty.
    pub fn peek_len(&self) -> Option<usize> {
        let ring = &*self.ring;
        let head = ring.head.load(Ordering::Relaxed);
        let tail = ring.tail.load(Ordering::Acquire);
        if tail == head {
            return None;
        }
        let mut header = [0u8; FRAME_HEADER];
        // SAFETY: `[head, tail)` is published, consumer-owned data.
        unsafe { ring.read(head, &mut header) };
        Some(u32::from_le_bytes(header) as usize)
    }

    /// Attempts to dequeue into `buf`; `Ok(None)` when empty.
    pub fn try_recv(&mut self, buf: &mut [u8]) -> Result<Option<usize>> {
        // Mirror of the producer's yield point (see `try_send`).
        hooks::yield_point(SyncEvent::StackPop(&self.ring.head as *const _ as usize));
        let Some(len) = self.peek_len() else {
            return Ok(None);
        };
        if buf.len() < len {
            return Err(MpfError::BufferTooSmall { needed: len });
        }
        let ring = &*self.ring;
        let head = ring.head.load(Ordering::Relaxed);
        // SAFETY: published region; we are the only consumer.
        unsafe { ring.read(head + FRAME_HEADER, &mut buf[..len]) };
        ring.head
            .store(head + FRAME_HEADER + len, Ordering::Release);
        hooks::notify(&ring.head as *const _ as usize);
        Ok(Some(len))
    }

    /// Dequeues into `buf`, spinning (with backoff) while empty.
    pub fn recv(&mut self, buf: &mut [u8]) -> Result<usize> {
        let mut backoff = Backoff::new();
        loop {
            if let Some(n) = self.try_recv(buf)? {
                return Ok(n);
            }
            let ring = Arc::clone(&self.ring);
            // Hooked wait: parked until the producer publishes a frame.
            if !hooks::wait(&ring.tail as *const _ as usize, &mut || {
                let head = ring.head.load(Ordering::Relaxed);
                ring.tail.load(Ordering::Acquire) != head
            }) {
                backoff.snooze();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_sizes() {
        let (mut tx, mut rx) = one2one(256);
        let mut buf = [0u8; 128];
        for len in [0usize, 1, 3, 60, 120] {
            let msg: Vec<u8> = (0..len).map(|i| i as u8).collect();
            tx.send(&msg).unwrap();
            let n = rx.recv(&mut buf).unwrap();
            assert_eq!(&buf[..n], &msg[..], "len {len}");
        }
    }

    #[test]
    fn fifo_order_and_wraparound() {
        let (mut tx, mut rx) = one2one(64);
        let mut buf = [0u8; 32];
        // Many small messages force the cursors to wrap repeatedly.
        for i in 0..1000u32 {
            tx.send(&i.to_le_bytes()).unwrap();
            let n = rx.recv(&mut buf).unwrap();
            assert_eq!(u32::from_le_bytes(buf[..n].try_into().unwrap()), i);
        }
    }

    #[test]
    fn try_send_full_try_recv_empty() {
        let (mut tx, mut rx) = one2one(16);
        let mut buf = [0u8; 16];
        assert_eq!(rx.try_recv(&mut buf).unwrap(), None);
        assert!(tx.try_send(&[1u8; 8]).unwrap()); // 12 of 16 bytes
        assert!(!tx.try_send(&[2u8; 8]).unwrap(), "ring full");
        assert_eq!(rx.try_recv(&mut buf).unwrap(), Some(8));
        assert!(tx.try_send(&[2u8; 8]).unwrap());
    }

    #[test]
    fn oversized_message_rejected() {
        let (mut tx, _rx) = one2one(16);
        assert!(matches!(
            tx.try_send(&[0u8; 100]).unwrap_err(),
            MpfError::MessageTooLarge { .. }
        ));
    }

    #[test]
    fn buffer_too_small_leaves_message() {
        let (mut tx, mut rx) = one2one(64);
        tx.send(&[7u8; 10]).unwrap();
        let mut tiny = [0u8; 4];
        assert_eq!(
            rx.try_recv(&mut tiny).unwrap_err(),
            MpfError::BufferTooSmall { needed: 10 }
        );
        assert_eq!(rx.peek_len(), Some(10), "message still queued");
        let mut big = [0u8; 16];
        assert_eq!(rx.recv(&mut big).unwrap(), 10);
    }

    #[test]
    fn cross_thread_stream_integrity() {
        const N: u32 = 50_000;
        let (mut tx, mut rx) = one2one(1024);
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..N {
                    let payload = [i.to_le_bytes(), (i ^ 0xDEAD_BEEF).to_le_bytes()].concat();
                    tx.send(&payload).unwrap();
                }
            });
            let mut buf = [0u8; 8];
            for i in 0..N {
                let n = rx.recv(&mut buf).unwrap();
                assert_eq!(n, 8);
                let a = u32::from_le_bytes(buf[..4].try_into().unwrap());
                let b = u32::from_le_bytes(buf[4..].try_into().unwrap());
                assert_eq!(a, i, "messages must arrive in order");
                assert_eq!(b, i ^ 0xDEAD_BEEF, "payload integrity");
            }
        });
    }
}
