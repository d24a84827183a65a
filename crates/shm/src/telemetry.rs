//! In-region telemetry: shared counters and log2-bucket histograms.
//!
//! Everything here is `#[repr(C)]`, offset-addressed, and built from plain
//! atomics so it can live *inside* the shared region carved by
//! `RegionLayout` — cross-process readable, crash-persistent, and safe to
//! inspect read-only from a process that never took part in the session
//! (`mpf-trace stat`).  Design rules:
//!
//! * **Per-message quantities are counted once, per conversation**
//!   ([`LnvcTelemetry`]: sends, receives, bytes, reclaims, sizes,
//!   latencies), by whoever holds that conversation's lock — so each
//!   update is a relaxed load + store ([`bump`],
//!   [`Histogram::record_locked`]), never a locked RMW.  Facility totals
//!   are *derived*: [`facility_snapshot`] sums the conversations and adds
//!   what deleted ones left behind ([`FacilityTelemetry::retire`]).
//! * **Cold, genuinely multi-writer counters** (waits, lock contention,
//!   sweeps, conversations created/deleted) are one relaxed `fetch_add` on
//!   the caller's per-process [`FacilityTelemetry`] shard, each in its own
//!   64-byte cell ([`PadCell`]).
//! * **Histograms** ([`Histogram`]) use power-of-two buckets: value `v`
//!   lands in bucket `64 - v.leading_zeros()` (capped).  Percentiles are
//!   computed from a snapshot, never in-region.
//!
//! Events (as opposed to counts) live in [`crate::tracering`].  None of
//! this module knows about LNVCs or facilities; it is the raw
//! instrumentation substrate that `mpf-core` and `mpf-ipc` place via their
//! region layouts.

use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};

/// Number of power-of-two histogram buckets.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Bytes of one [`Histogram`]: count + sum + max + 32 buckets.
pub const HISTOGRAM_BYTES: usize = 8 * 3 + 8 * HISTOGRAM_BUCKETS;

/// Bytes of one [`FacilityTelemetry`].
pub const FACILITY_TELEMETRY_BYTES: usize = 1344;

/// Bytes of one [`LnvcTelemetry`].
pub const LNVC_TELEMETRY_BYTES: usize = 640;

/// Wall-clock nanoseconds since the Unix epoch.  Used for trace-record
/// timestamps and send→receive latency because it is the one clock every
/// process attached to the region shares.  Delegates to the calibrated
/// cycle-counter clock ([`crate::clock`]), which falls back to
/// `SystemTime` when the hardware counter is unstable or absent.
#[inline]
pub fn now_nanos() -> u64 {
    crate::clock::now_nanos()
}

// ---------------------------------------------------------------------------
// PadCell: one counter per cache line
// ---------------------------------------------------------------------------

/// A single `AtomicU64` padded to its own 64-byte line.
///
/// It has **align 8** and explicit tail padding, so it can be placed at
/// any 64-byte region offset without over-alignment constraints the
/// region carver cannot honour.
#[repr(C)]
#[derive(Debug, Default)]
pub struct PadCell {
    value: AtomicU64,
    _pad: [u64; 7],
}

impl PadCell {
    /// Adds one, relaxed.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`, relaxed.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value, relaxed.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Log2-bucket histogram: bucket `b >= 1` counts values in
/// `[2^(b-1), 2^b - 1]`; bucket 0 counts zeros.  Values past the last
/// bucket are clamped into it (the tracked `max` keeps the true extreme).
#[repr(C)]
#[derive(Debug, Default)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

/// Adds `n` to `c` with a plain load+store instead of a locked RMW.
///
/// Sound only while the caller is the sole writer of `c` — in practice,
/// while holding the LNVC descriptor lock that serialises updates to a
/// [`LnvcTelemetry`] block.  Readers still see untorn 64-bit values; they
/// just race the increment, exactly as they would a `fetch_add`.
#[inline]
pub fn bump(c: &AtomicU64, n: u64) {
    c.store(c.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
}

/// Bucket index for `v` (shared by writer and snapshot percentile math).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Largest value bucket `b` can represent (before clamping).
fn bucket_upper_bound(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl Histogram {
    /// Records one observation with plain load + store ([`bump`]): sound
    /// because every in-region histogram is written only under the lock of
    /// the conversation it belongs to.  A concurrent lock-free snapshot may
    /// be momentarily inconsistent across fields, never corrupt.
    #[inline]
    pub fn record_locked(&self, v: u64) {
        bump(&self.count, 1);
        bump(&self.sum, v);
        if v > self.max.load(Ordering::Relaxed) {
            self.max.store(v, Ordering::Relaxed);
        }
        bump(&self.buckets[bucket_index(v)], 1);
    }

    /// Moves everything recorded here into `into`, leaving this histogram
    /// empty.  Caller serialises writers of both.
    fn drain_into(&self, into: &Histogram) {
        bump(&into.count, self.count.swap(0, Ordering::Relaxed));
        bump(&into.sum, self.sum.swap(0, Ordering::Relaxed));
        let max = self.max.swap(0, Ordering::Relaxed);
        if max > into.max.load(Ordering::Relaxed) {
            into.max.store(max, Ordering::Relaxed);
        }
        for (from, to) in self.buckets.iter().zip(&into.buckets) {
            bump(to, from.swap(0, Ordering::Relaxed));
        }
    }

    /// Copies the current state out of the region.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// Point-in-time copy of a [`Histogram`], with percentile math.
#[derive(Clone, Copy, Debug, Default)]
pub struct HistSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Largest observation.
    pub max: u64,
    /// Per-bucket counts (see [`bucket_index`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistSnapshot {
    /// Value at quantile `q` in `[0, 1]`, reported as the upper bound of
    /// the bucket containing that rank (clamped to the observed max).
    /// Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper_bound(b).min(self.max);
            }
        }
        self.max
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Adds `other` into `self` (summing per-process telemetry shards).
    pub fn absorb(&mut self, other: &HistSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        for (b, &c) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += c;
        }
    }

    /// Counts accumulated since `earlier` (monotone counters; `max` is
    /// kept from `self` since a running maximum cannot be differenced).
    pub fn diff(&self, earlier: &HistSnapshot) -> HistSnapshot {
        HistSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
        }
    }
}

// ---------------------------------------------------------------------------
// Facility + per-LNVC telemetry blocks
// ---------------------------------------------------------------------------

/// One process's shard of the region-global counters, one cache line
/// each.  Two kinds of field share the struct:
///
/// * **live** — `recv_waits`, `send_waits`, `lnvcs_created`,
///   `lnvcs_deleted`, `lock_contended`, `sweeps`, `peers_died`: bumped by
///   the owning process as things happen (cold paths, relaxed RMWs);
/// * **retired** — `sends`, `receives`, `bytes_in`, `bytes_out`,
///   `reclaims`, `size_hist`, `latency_hist`: what conversations this
///   process deleted had counted by then ([`Self::retire`]).  Nothing on
///   the message path writes them.
///
/// A facility total is `Σ shards (live + retired) + Σ LNVC slots`
/// ([`facility_snapshot`]).
#[repr(C)]
#[derive(Debug, Default)]
pub struct FacilityTelemetry {
    /// Retired `message_send` completions.
    pub sends: PadCell,
    /// Retired `message_receive` deliveries.
    pub receives: PadCell,
    /// Retired payload bytes accepted from senders.
    pub bytes_in: PadCell,
    /// Retired payload bytes copied out to receivers.
    pub bytes_out: PadCell,
    /// Times a receive blocked (once per blocking call, not per nap).
    pub recv_waits: PadCell,
    /// Times a send waited on pool exhaustion.
    pub send_waits: PadCell,
    /// Retired reclaimed messages (prefix + sweep reclamation).
    pub reclaims: PadCell,
    /// Conversations created.
    pub lnvcs_created: PadCell,
    /// Conversations deleted.
    pub lnvcs_deleted: PadCell,
    /// LNVC descriptor lock acquisitions that found the lock held.
    pub lock_contended: PadCell,
    /// Dead-peer sweeps that found at least one corpse.
    pub sweeps: PadCell,
    /// Peers detected dead and swept.
    pub peers_died: PadCell,
    /// Retired payload sizes of accepted sends.
    pub size_hist: Histogram,
    /// Retired send→receive latencies in nanoseconds (stamped at send,
    /// observed at delivery).
    pub latency_hist: Histogram,
    _pad: [u8; 16],
}

impl FacilityTelemetry {
    /// Folds a deleted conversation's numbers into this shard's retired
    /// accumulators and zeroes `lnvc` for the slot's next tenant.  `seq`
    /// is the region's fold sequence: odd while counts are in flight
    /// between the two blocks, so [`facility_snapshot`] neither misses nor
    /// doubles them.  Caller holds the registry lock — which serialises
    /// folds region-wide, so `seq` needs no RMW — and the conversation's.
    pub fn retire(&self, lnvc: &LnvcTelemetry, seq: &AtomicU32) {
        // `| 1`: a folder that died mid-fold left the word odd.
        let odd = seq.load(Ordering::Relaxed) | 1;
        seq.store(odd, Ordering::Relaxed);
        fence(Ordering::Release);
        self.sends.add(lnvc.sends.swap(0, Ordering::Relaxed));
        self.receives.add(lnvc.receives.swap(0, Ordering::Relaxed));
        self.bytes_in.add(lnvc.bytes_in.swap(0, Ordering::Relaxed));
        self.bytes_out
            .add(lnvc.bytes_out.swap(0, Ordering::Relaxed));
        self.reclaims.add(lnvc.reclaims.swap(0, Ordering::Relaxed));
        lnvc.sizes.drain_into(&self.size_hist);
        lnvc.latency.drain_into(&self.latency_hist);
        // Not part of any total (the facility's are the live cells above).
        lnvc.recv_waits.store(0, Ordering::Relaxed);
        lnvc.depth_hwm.store(0, Ordering::Relaxed);
        seq.store(odd.wrapping_add(1), Ordering::Release);
    }

    /// Copies this shard out of the region.
    pub fn snapshot(&self) -> TelSnapshot {
        TelSnapshot {
            sends: self.sends.get(),
            receives: self.receives.get(),
            bytes_in: self.bytes_in.get(),
            bytes_out: self.bytes_out.get(),
            recv_waits: self.recv_waits.get(),
            send_waits: self.send_waits.get(),
            reclaims: self.reclaims.get(),
            lnvcs_created: self.lnvcs_created.get(),
            lnvcs_deleted: self.lnvcs_deleted.get(),
            lock_contended: self.lock_contended.get(),
            sweeps: self.sweeps.get(),
            peers_died: self.peers_died.get(),
            size_hist: self.size_hist.snapshot(),
            latency_hist: self.latency_hist.snapshot(),
        }
    }
}

/// The facility-wide totals: every process shard plus every LNVC slot
/// (slots of deleted conversations read zero — [`FacilityTelemetry::retire`]
/// moved their counts into a shard).  Lock-free; a fold racing the read
/// shows as a changed or odd `fold_seq` and the read is retried, so totals
/// never go backwards or double.  The retries are bounded: a reader that
/// holds the registry lock never needs one, and a read-only inspector of a
/// region whose folder died mid-fold must still return (best effort).
pub fn facility_snapshot<'a>(
    fold_seq: &AtomicU32,
    shards: impl Iterator<Item = &'a FacilityTelemetry> + Clone,
    lnvcs: impl Iterator<Item = &'a LnvcTelemetry> + Clone,
) -> TelSnapshot {
    let mut sum = TelSnapshot::default();
    for _ in 0..64 {
        let before = fold_seq.load(Ordering::Acquire);
        sum = TelSnapshot::default();
        shards.clone().for_each(|s| sum.absorb(&s.snapshot()));
        lnvcs.clone().for_each(|l| sum.absorb_lnvc(&l.snapshot()));
        fence(Ordering::Acquire);
        if before & 1 == 0 && fold_seq.load(Ordering::Relaxed) == before {
            break;
        }
        std::thread::yield_now();
    }
    sum
}

/// Point-in-time copy of [`FacilityTelemetry`].
#[derive(Clone, Copy, Debug, Default)]
pub struct TelSnapshot {
    /// See [`FacilityTelemetry::sends`].
    pub sends: u64,
    /// See [`FacilityTelemetry::receives`].
    pub receives: u64,
    /// See [`FacilityTelemetry::bytes_in`].
    pub bytes_in: u64,
    /// See [`FacilityTelemetry::bytes_out`].
    pub bytes_out: u64,
    /// See [`FacilityTelemetry::recv_waits`].
    pub recv_waits: u64,
    /// See [`FacilityTelemetry::send_waits`].
    pub send_waits: u64,
    /// See [`FacilityTelemetry::reclaims`].
    pub reclaims: u64,
    /// See [`FacilityTelemetry::lnvcs_created`].
    pub lnvcs_created: u64,
    /// See [`FacilityTelemetry::lnvcs_deleted`].
    pub lnvcs_deleted: u64,
    /// See [`FacilityTelemetry::lock_contended`].
    pub lock_contended: u64,
    /// See [`FacilityTelemetry::sweeps`].
    pub sweeps: u64,
    /// See [`FacilityTelemetry::peers_died`].
    pub peers_died: u64,
    /// See [`FacilityTelemetry::size_hist`].
    pub size_hist: HistSnapshot,
    /// See [`FacilityTelemetry::latency_hist`].
    pub latency_hist: HistSnapshot,
}

impl TelSnapshot {
    /// Adds `other` into `self` — used to sum the per-process facility
    /// telemetry shards into one facility-wide view.
    pub fn absorb(&mut self, other: &TelSnapshot) {
        self.sends += other.sends;
        self.receives += other.receives;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.recv_waits += other.recv_waits;
        self.send_waits += other.send_waits;
        self.reclaims += other.reclaims;
        self.lnvcs_created += other.lnvcs_created;
        self.lnvcs_deleted += other.lnvcs_deleted;
        self.lock_contended += other.lock_contended;
        self.sweeps += other.sweeps;
        self.peers_died += other.peers_died;
        self.size_hist.absorb(&other.size_hist);
        self.latency_hist.absorb(&other.latency_hist);
    }

    /// Adds one conversation's per-message counts into the totals.
    fn absorb_lnvc(&mut self, lnvc: &LnvcTelSnapshot) {
        self.sends += lnvc.sends;
        self.receives += lnvc.receives;
        self.bytes_in += lnvc.bytes_in;
        self.bytes_out += lnvc.bytes_out;
        self.reclaims += lnvc.reclaims;
        self.size_hist.absorb(&lnvc.sizes);
        self.latency_hist.absorb(&lnvc.latency);
    }

    /// Activity between `earlier` and `self` (counter-wise saturating
    /// difference; histogram handled by [`HistSnapshot::diff`]).
    pub fn diff(&self, earlier: &TelSnapshot) -> TelSnapshot {
        TelSnapshot {
            sends: self.sends.saturating_sub(earlier.sends),
            receives: self.receives.saturating_sub(earlier.receives),
            bytes_in: self.bytes_in.saturating_sub(earlier.bytes_in),
            bytes_out: self.bytes_out.saturating_sub(earlier.bytes_out),
            recv_waits: self.recv_waits.saturating_sub(earlier.recv_waits),
            send_waits: self.send_waits.saturating_sub(earlier.send_waits),
            reclaims: self.reclaims.saturating_sub(earlier.reclaims),
            lnvcs_created: self.lnvcs_created.saturating_sub(earlier.lnvcs_created),
            lnvcs_deleted: self.lnvcs_deleted.saturating_sub(earlier.lnvcs_deleted),
            lock_contended: self.lock_contended.saturating_sub(earlier.lock_contended),
            sweeps: self.sweeps.saturating_sub(earlier.sweeps),
            peers_died: self.peers_died.saturating_sub(earlier.peers_died),
            size_hist: self.size_hist.diff(&earlier.size_hist),
            latency_hist: self.latency_hist.diff(&earlier.latency_hist),
        }
    }
}

/// Per-conversation counters and histograms: the only place per-message
/// quantities are counted.  **Every write except `recv_waits` happens
/// under this LNVC's lock**, which is what lets them be load + store;
/// readers (snapshots, the inspector) take no lock, so everything stays
/// atomic.  Zeroed when the conversation is deleted
/// ([`FacilityTelemetry::retire`]).
#[repr(C)]
#[derive(Debug, Default)]
pub struct LnvcTelemetry {
    /// Messages enqueued on this conversation.
    pub sends: AtomicU64,
    /// Deliveries made from this conversation.
    pub receives: AtomicU64,
    /// Payload bytes enqueued.
    pub bytes_in: AtomicU64,
    /// Payload bytes delivered.
    pub bytes_out: AtomicU64,
    /// Blocking receives on this conversation (booked before the wait,
    /// outside the lock: the one RMW-written field).
    pub recv_waits: AtomicU64,
    /// Messages reclaimed from this conversation's queue.
    pub reclaims: AtomicU64,
    /// High-water mark of queued messages.
    pub depth_hwm: AtomicU64,
    _pad0: [u8; 8],
    /// Send→receive latency in nanoseconds.
    pub latency: Histogram,
    /// Payload sizes of accepted sends.
    pub sizes: Histogram,
    _pad1: [u8; 16],
}

impl LnvcTelemetry {
    /// Raises the queue-depth high-water mark to at least `depth`.
    /// Caller holds the LNVC lock, so load+store suffices.
    #[inline]
    pub fn note_depth(&self, depth: u64) {
        if depth > self.depth_hwm.load(Ordering::Relaxed) {
            self.depth_hwm.store(depth, Ordering::Relaxed);
        }
    }

    /// Copies the current state out of the region.
    pub fn snapshot(&self) -> LnvcTelSnapshot {
        LnvcTelSnapshot {
            sends: self.sends.load(Ordering::Relaxed),
            receives: self.receives.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            recv_waits: self.recv_waits.load(Ordering::Relaxed),
            reclaims: self.reclaims.load(Ordering::Relaxed),
            depth_hwm: self.depth_hwm.load(Ordering::Relaxed),
            latency: self.latency.snapshot(),
            sizes: self.sizes.snapshot(),
        }
    }
}

/// Point-in-time copy of [`LnvcTelemetry`].
#[derive(Clone, Copy, Debug, Default)]
pub struct LnvcTelSnapshot {
    /// See [`LnvcTelemetry::sends`].
    pub sends: u64,
    /// See [`LnvcTelemetry::receives`].
    pub receives: u64,
    /// See [`LnvcTelemetry::bytes_in`].
    pub bytes_in: u64,
    /// See [`LnvcTelemetry::bytes_out`].
    pub bytes_out: u64,
    /// See [`LnvcTelemetry::recv_waits`].
    pub recv_waits: u64,
    /// See [`LnvcTelemetry::reclaims`].
    pub reclaims: u64,
    /// See [`LnvcTelemetry::depth_hwm`].
    pub depth_hwm: u64,
    /// See [`LnvcTelemetry::latency`].
    pub latency: HistSnapshot,
    /// See [`LnvcTelemetry::sizes`].
    pub sizes: HistSnapshot,
}

// ---------------------------------------------------------------------------
// Layout checks
// ---------------------------------------------------------------------------

const _: () = {
    assert!(std::mem::size_of::<PadCell>() == 64);
    assert!(std::mem::align_of::<PadCell>() == 8);
    assert!(std::mem::size_of::<Histogram>() == HISTOGRAM_BYTES);
    assert!(std::mem::size_of::<FacilityTelemetry>() == FACILITY_TELEMETRY_BYTES);
    assert!(FACILITY_TELEMETRY_BYTES.is_multiple_of(64));
    assert!(std::mem::size_of::<LnvcTelemetry>() == LNVC_TELEMETRY_BYTES);
    assert!(LNVC_TELEMETRY_BYTES.is_multiple_of(64));
    assert!(std::mem::align_of::<FacilityTelemetry>() == 8);
    assert!(std::mem::align_of::<LnvcTelemetry>() == 8);
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2_plus_one() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_cover_their_indices() {
        for v in [0u64, 1, 2, 3, 5, 100, 4096, 1 << 30] {
            let b = bucket_index(v);
            assert!(v <= bucket_upper_bound(b), "v={v} b={b}");
            if b > 0 && b < HISTOGRAM_BUCKETS - 1 {
                assert!(v > bucket_upper_bound(b - 1), "v={v} b={b}");
            }
        }
    }

    #[test]
    fn histogram_counts_and_percentiles() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.record_locked(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.max, 100);
        assert_eq!(s.mean(), 50.5);
        // Rank 50 of 1..=100 lands in bucket 6 ([32,63]): buckets 1..=5
        // hold 31 values, bucket 6 the next 32.
        assert_eq!(s.percentile(0.50), 63);
        assert_eq!(s.percentile(1.0), 100);
        assert_eq!(s.percentile(0.0), 1, "lowest rank lands in bucket 1");
    }

    #[test]
    fn empty_histogram_percentile_is_zero() {
        let s = Histogram::default().snapshot();
        assert_eq!(s.percentile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn percentile_clamps_to_observed_max() {
        let h = Histogram::default();
        h.record_locked(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.percentile(0.99), 1_000_000);
    }

    #[test]
    fn histogram_diff_subtracts_buckets() {
        let h = Histogram::default();
        h.record_locked(10);
        let early = h.snapshot();
        h.record_locked(10);
        h.record_locked(20);
        let late = h.snapshot();
        let d = late.diff(&early);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 30);
        assert_eq!(d.buckets[bucket_index(10)], 1);
        assert_eq!(d.buckets[bucket_index(20)], 1);
    }

    #[test]
    fn facility_snapshot_diff() {
        let t = FacilityTelemetry::default();
        t.sends.inc();
        t.bytes_in.add(100);
        t.size_hist.record_locked(100);
        let a = t.snapshot();
        t.sends.inc();
        t.receives.inc();
        let b = t.snapshot();
        let d = b.diff(&a);
        assert_eq!(d.sends, 1);
        assert_eq!(d.receives, 1);
        assert_eq!(d.bytes_in, 0);
    }

    #[test]
    fn retire_moves_a_conversation_into_the_shard_and_totals_hold() {
        let (shard, lnvc) = (FacilityTelemetry::default(), LnvcTelemetry::default());
        // A folder that died mid-fold left the sequence odd.
        let seq = AtomicU32::new(5);
        shard.recv_waits.inc();
        bump(&lnvc.sends, 4);
        bump(&lnvc.reclaims, 3);
        lnvc.note_depth(9);
        lnvc.sizes.record_locked(100);
        lnvc.latency.record_locked(1234);
        let total = || facility_snapshot(&seq, [&shard].into_iter(), [&lnvc].into_iter());
        let before = total();
        assert_eq!(
            (before.sends, before.reclaims, before.recv_waits),
            (4, 3, 1)
        );
        assert_eq!((before.size_hist.sum, before.latency_hist.max), (100, 1234));
        shard.retire(&lnvc, &seq);
        assert_eq!(seq.load(Ordering::Relaxed), 6, "repaired, and even again");
        let (after, emptied) = (total(), lnvc.snapshot());
        assert_eq!((after.sends, after.reclaims, after.recv_waits), (4, 3, 1));
        assert_eq!(after.size_hist.buckets, before.size_hist.buckets);
        assert_eq!(
            (after.latency_hist.count, after.latency_hist.max),
            (1, 1234)
        );
        assert_eq!(
            (emptied.sends, emptied.depth_hwm, emptied.sizes.count),
            (0, 0, 0)
        );
        assert_eq!(shard.snapshot().sends, 4);
    }
}
