//! Per-process crash-persistent trace rings: the facility's one event
//! stream.
//!
//! A ring answers both "what were the last things this process did" and
//! "what happened to *this message*".  Message records carry the
//! message's 64-bit **trace id** (root id assigned at the first send of a
//! causal chain, inherited with an incremented hop count by every send
//! that follows a receive) and its global **stamp** (the region-wide send
//! serial, the message's logical identity), so an offline reader can
//! stitch per-process streams back into causal chains and check the
//! paper's §3 delivery semantics without any cooperation from the —
//! possibly dead — writers.  Marker records (`trace == 0`: connection
//! opens and closes, blocking, lock contention, dead-peer sweeps,
//! poisonings, injected faults) are never sampled out.
//!
//! Each ring is strictly single-writer: the owning process appends,
//! wait-free (Torquati's SPSC discipline; see PAPERS.md).  Publication is
//! a seqlock: the writer zeroes `seq`, fills the payload, then publishes
//! `seq = pos + 1`.  A reader (`mpf-trace`, live or post-mortem)
//! validates `seq` before and after copying the payload and skips torn
//! slots; a writer SIGKILLed mid-append leaves `seq == 0` and loses
//! exactly that slot.  Rings are KB-sized (512 records × 48 B) because
//! causal reconstruction needs depth.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Records per trace ring.  512 × 48 B keeps the ring at ~24 KB per
/// process — deep enough to hold whole benchmark runs at default sampling.
pub const TRACE_RING_SLOTS: usize = 512;

/// Bytes per trace record (layout contract with [`TraceRecord`]).
pub const TRACE_RECORD_BYTES: usize = 48;

/// Bytes per trace ring: one 64-byte header plus the slot array.
pub const TRACE_RING_BYTES: usize = 64 + TRACE_RING_SLOTS * TRACE_RECORD_BYTES;

// -- event kinds -------------------------------------------------------

/// Message published on a conversation queue (`arg` = payload length,
/// `arg2` = `needs_fcfs << 16 | n_bcast` — the delivery obligations fixed
/// at send time, which the conformance checker audits against).
pub const TR_SEND: u32 = 1;
/// A blocked receiver woke with a delivery (`trace` = the chain that woke
/// it).
pub const TR_WAKEUP: u32 = 3;
/// FCFS delivery (`arg` = payload length).
pub const TR_RECV: u32 = 4;
/// BROADCAST delivery (`arg` = payload length).
pub const TR_RECV_B: u32 = 5;
/// Message descriptor and block chain returned to the pools (`arg` =
/// message index).
pub const TR_RECLAIM: u32 = 6;
/// Receiver joined (`arg` = protocol code) — population change marker for
/// the conformance checker.
pub const TR_OPEN_RECV: u32 = 7;
/// Receiver left (`arg` = protocol code).
pub const TR_CLOSE_RECV: u32 = 8;
/// Conversation poisoned by a peer death (`arg` = dead MPF pid).
pub const TR_POISON: u32 = 9;
/// Injected fault acted on by the fault plane (`arg` =
/// [`crate::faultplane::FaultSite::code`], `arg2` = magnitude of the
/// typed error status the fault surfaced as — nonzero for error-class
/// faults, which is the pairing `mpf-trace --check` audits).
pub const TR_FAULT: u32 = 10;
/// Sender joined.
pub const TR_OPEN_SEND: u32 = 11;
/// Sender left.
pub const TR_CLOSE_SEND: u32 = 12;
/// A receive found nothing and is about to block (once per blocking
/// call, not per nap).
pub const TR_RECV_BLOCK: u32 = 13;
/// A send hit pool exhaustion and is about to sweep or wait.
pub const TR_SEND_BLOCK: u32 = 14;
/// An LNVC descriptor lock was found held.
pub const TR_LOCK_CONTEND: u32 = 15;
/// A dead peer's connections were swept (`arg` = the dead OS pid).
pub const TR_SWEEP_DEAD: u32 = 16;

/// Human-readable name of a `TR_*` kind.
pub fn trace_event_name(kind: u32) -> &'static str {
    match kind {
        TR_SEND => "send",
        TR_WAKEUP => "wakeup",
        TR_RECV => "recv",
        TR_RECV_B => "recv_bcast",
        TR_RECLAIM => "reclaim",
        TR_OPEN_RECV => "open_recv",
        TR_CLOSE_RECV => "close_recv",
        TR_POISON => "poison",
        TR_FAULT => "fault",
        TR_OPEN_SEND => "open_send",
        TR_CLOSE_SEND => "close_send",
        TR_RECV_BLOCK => "recv_block",
        TR_SEND_BLOCK => "send_block",
        TR_LOCK_CONTEND => "lock_contend",
        TR_SWEEP_DEAD => "sweep_dead",
        _ => "unknown",
    }
}

/// One in-region trace record.  All-atomic so concurrent reads of a live
/// ring are defined behavior; the seqlock makes them consistent.
#[repr(C)]
#[derive(Debug)]
struct TraceRecord {
    /// Seqlock word: 0 = invalid/mid-write, else `position + 1`.
    seq: AtomicU64,
    /// Wall-clock nanoseconds ([`crate::clock::now_nanos`]).
    tstamp: AtomicU64,
    /// Trace id (0 = untraced); bit 63 is the sampling flag.
    trace: AtomicU64,
    /// Global message stamp (logical identity across processes).
    stamp: AtomicU64,
    /// Event argument (see the `TR_*` docs).
    arg: AtomicU32,
    /// Kind in the low 16 bits, hop count in the high 16.
    kind_hop: AtomicU32,
    /// LNVC index (`u32::MAX` when none).
    lnvc: AtomicU32,
    /// Second argument (`TR_SEND`: delivery obligations).
    arg2: AtomicU32,
}

impl Default for TraceRecord {
    fn default() -> Self {
        Self {
            seq: AtomicU64::new(0),
            tstamp: AtomicU64::new(0),
            trace: AtomicU64::new(0),
            stamp: AtomicU64::new(0),
            arg: AtomicU32::new(0),
            kind_hop: AtomicU32::new(0),
            lnvc: AtomicU32::new(0),
            arg2: AtomicU32::new(0),
        }
    }
}

/// A validated record read out of a trace ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// 1-based logical position in the writer's event stream.
    pub seq: u64,
    /// Wall-clock nanoseconds at record time.
    pub tstamp: u64,
    /// Trace id (sampling bit already stripped; 0 = untraced).
    pub trace: u64,
    /// Global message stamp.
    pub stamp: u64,
    /// Event argument.
    pub arg: u32,
    /// Event kind (`TR_*`).
    pub kind: u32,
    /// Hop count within the causal chain (0 = root send).
    pub hop: u32,
    /// LNVC index (`u32::MAX` when none).
    pub lnvc: u32,
    /// Second event argument.
    pub arg2: u32,
}

/// Per-process single-writer causal trace ring (see module docs).
#[repr(C)]
#[derive(Debug)]
pub struct TraceRing {
    head: AtomicU64,
    /// Events not recorded because the chain fell outside the 1-in-N
    /// trace sample — occupancy math for `mpf-trace`'s ring table.
    skipped: AtomicU64,
    writer_pid: AtomicU32,
    _pad: [u8; 44],
    slots: [TraceRecord; TRACE_RING_SLOTS],
}

impl Default for TraceRing {
    fn default() -> Self {
        Self {
            head: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            writer_pid: AtomicU32::new(0),
            _pad: [0; 44],
            slots: std::array::from_fn(|_| TraceRecord::default()),
        }
    }
}

impl TraceRing {
    /// Tags the ring with its writer's OS pid (for inspectors).
    pub fn set_writer_pid(&self, pid: u32) {
        self.writer_pid.store(pid, Ordering::Relaxed);
    }

    /// OS pid of the process that owned this ring (0 = never used).
    pub fn writer_pid(&self) -> u32 {
        self.writer_pid.load(Ordering::Relaxed)
    }

    /// Total records ever written; `head - TRACE_RING_SLOTS` of them
    /// (saturating) have been overwritten.
    pub fn head(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Events skipped by sampling.
    pub fn skipped(&self) -> u64 {
        self.skipped.load(Ordering::Relaxed)
    }

    /// Books one sampling skip.
    #[inline]
    pub fn note_skipped(&self) {
        self.skipped.fetch_add(1, Ordering::Relaxed);
    }

    /// Appends one record.  **Single-writer**: only the owning process may
    /// call this; wait-free.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn record_at(
        &self,
        tstamp: u64,
        trace: u64,
        stamp: u64,
        kind: u32,
        hop: u32,
        lnvc: u32,
        arg: u32,
        arg2: u32,
    ) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h as usize) % TRACE_RING_SLOTS];
        slot.seq.store(0, Ordering::Release);
        slot.tstamp.store(tstamp, Ordering::Relaxed);
        slot.trace.store(trace, Ordering::Relaxed);
        slot.stamp.store(stamp, Ordering::Relaxed);
        slot.arg.store(arg, Ordering::Relaxed);
        slot.kind_hop
            .store((kind & 0xffff) | (hop << 16), Ordering::Relaxed);
        slot.lnvc.store(lnvc, Ordering::Relaxed);
        slot.arg2.store(arg2, Ordering::Relaxed);
        slot.seq.store(h + 1, Ordering::Release);
        self.head.store(h + 1, Ordering::Release);
    }

    /// Reads the surviving tail of the ring, oldest first, skipping torn
    /// or never-written slots.  Safe against a live writer (seqlock) and
    /// against a writer that died mid-append (`seq` stays 0).
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let head = self.head.load(Ordering::Acquire);
        let start = head.saturating_sub(TRACE_RING_SLOTS as u64);
        let mut out = Vec::new();
        for pos in start..head {
            let slot = &self.slots[(pos as usize) % TRACE_RING_SLOTS];
            let seq1 = slot.seq.load(Ordering::Acquire);
            if seq1 != pos + 1 {
                continue; // torn, mid-write, or already overwritten
            }
            let kind_hop = slot.kind_hop.load(Ordering::Relaxed);
            let ev = TraceEvent {
                seq: seq1,
                tstamp: slot.tstamp.load(Ordering::Relaxed),
                trace: slot.trace.load(Ordering::Relaxed) & !(1u64 << 63),
                stamp: slot.stamp.load(Ordering::Relaxed),
                arg: slot.arg.load(Ordering::Relaxed),
                kind: kind_hop & 0xffff,
                hop: kind_hop >> 16,
                lnvc: slot.lnvc.load(Ordering::Relaxed),
                arg2: slot.arg2.load(Ordering::Relaxed),
            };
            let seq2 = slot.seq.load(Ordering::Acquire);
            if seq2 == seq1 {
                out.push(ev);
            }
        }
        out
    }
}

const _: () = {
    assert!(std::mem::size_of::<TraceRecord>() == TRACE_RECORD_BYTES);
    assert!(std::mem::size_of::<TraceRing>() == TRACE_RING_BYTES);
    assert!(TRACE_RING_BYTES.is_multiple_of(64));
    assert!(std::mem::align_of::<TraceRing>() == 8);
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip() {
        let ring = TraceRing::default();
        ring.record_at(100, 7, 42, TR_SEND, 3, 5, 2048, (1 << 16) | 2);
        let evs = ring.snapshot();
        assert_eq!(evs.len(), 1);
        let e = evs[0];
        assert_eq!(
            (e.tstamp, e.trace, e.stamp, e.kind, e.hop, e.lnvc, e.arg, e.arg2),
            (100, 7, 42, TR_SEND, 3, 5, 2048, (1 << 16) | 2)
        );
    }

    #[test]
    fn sampling_bit_is_stripped_on_read() {
        let ring = TraceRing::default();
        ring.record_at(1, (1 << 63) | 9, 0, TR_RECV, 0, 0, 0, 0);
        assert_eq!(ring.snapshot()[0].trace, 9);
    }

    #[test]
    fn wraparound_keeps_latest_records() {
        let ring = TraceRing::default();
        let total = TRACE_RING_SLOTS as u64 + 10;
        for i in 0..total {
            ring.record_at(i, i, i, TR_SEND, 0, 0, 0, 0);
        }
        let evs = ring.snapshot();
        assert_eq!(evs.len(), TRACE_RING_SLOTS);
        assert_eq!(evs.first().unwrap().stamp, 10);
        assert_eq!(evs.last().unwrap().stamp, total - 1);
    }

    #[test]
    fn torn_slot_is_skipped() {
        let ring = TraceRing::default();
        ring.record_at(1, 1, 1, TR_SEND, 0, 0, 0, 0);
        ring.record_at(2, 2, 2, TR_RECV, 0, 0, 0, 0);
        // Simulate a writer that died mid-append on slot 1.
        ring.slots[1].seq.store(0, Ordering::Release);
        let evs = ring.snapshot();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].stamp, 1);
    }

    #[test]
    fn every_kind_has_its_own_name() {
        // Kind 2 marked a send staged in a submission ring; it is retired.
        let kinds = || (TR_SEND..=TR_SWEEP_DEAD).filter(|&k| k != 2);
        let names: std::collections::HashSet<_> = kinds().map(trace_event_name).collect();
        assert_eq!(names.len(), kinds().count());
        assert!(!names.contains("unknown"));
        assert_eq!(trace_event_name(0), "unknown");
        assert_eq!(trace_event_name(2), "unknown");
    }

    #[test]
    fn skip_counter_accumulates() {
        let ring = TraceRing::default();
        ring.note_skipped();
        ring.note_skipped();
        assert_eq!(ring.skipped(), 2);
        assert_eq!(ring.head(), 0);
    }
}
