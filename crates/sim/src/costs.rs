//! The MPF cost model: how many cycles each piece of the library costs on
//! the simulated machine.
//!
//! Constants are derived from machine parameters where possible and
//! calibrated against the paper's §4 measurements otherwise.  The
//! calibration anchors (all from the paper's text and figures):
//!
//! 1. **Figure 3** (`base`, loop-back send+receive, 10-byte blocks):
//!    small messages run at only a few KB/s (high *fixed* per-message
//!    cost: call overhead, header handling, the blocking-receive wake
//!    path — ≈ 40 k cycles ≈ 4 ms per primitive on the 10 MHz CPU), and
//!    the curve saturates near 25,000 bytes/s at 2 KB.  A 2 KB round trip
//!    is ≈ 82 ms ≈ 820 k cycles; with the fixed ends subtracted, the
//!    marginal cost is ≈ 400 cycles/byte for the round trip: two copies
//!    at ≈ 150 cycles/byte plus ≈ 80 cycles/byte of 10-byte-block
//!    bookkeeping (800 cycles per block allocation/link).
//! 2. **Figure 4** (`fcfs`): 1024-byte throughput ≈ 40–50 KB/s roughly
//!    independent of receiver count — the sender's pipeline (alloc +
//!    copy-in) is the bottleneck once receive copies are offloaded;
//!    16-byte and 128-byte curves *decline* with receivers — every send
//!    wakes the pack, whose serialized critical sections and lock-poll
//!    bus traffic stretch the sender's own lock acquisitions.
//! 3. **Figure 5** (`broadcast`): 687,245 bytes/s effective at 16
//!    receivers × 1024 bytes — receive copies proceed concurrently and
//!    aggregate delivered bandwidth approaches (but does not reach) the
//!    ideal 16× single-stream rate.
//!
//! The numbers are *model inputs*, not claims about the NS32032's exact
//! microarchitecture; EXPERIMENTS.md compares the resulting curves with
//! the paper's.

use crate::machine::MachineConfig;

/// Cycle costs for MPF operations on the simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Payload bytes per message block (the paper used 10).
    pub block_payload: usize,
    /// Fixed cost of entering `message_send` (argument checks, free-list
    /// pops for the header).
    pub send_setup: u64,
    /// Per-block cost on the send side: free-list pop, link store, bounds
    /// arithmetic.
    pub per_block_alloc: u64,
    /// Per-byte CPU cost of a payload copy (each side).
    pub copy_cycles_per_byte: u64,
    /// Peak bus throughput in bytes per cycle (from the machine config);
    /// a copy of `n` bytes occupies the bus for `2n / bus_bytes_per_cycle`
    /// cycles (each byte crosses twice: read, then write-through write).
    pub bus_bytes_per_cycle: u64,
    /// Lock acquire/release bus transaction (interlocked RMW).
    pub lock_rmw: u64,
    /// Critical-section cost of linking a message into the FIFO.
    pub crit_send: u64,
    /// Per-broadcast-receiver head-pointer update inside the send
    /// critical section.
    pub per_head_update: u64,
    /// Fixed receive-side cost paid *outside* the lock (call overhead,
    /// buffer staging) before the scan/claim.
    pub recv_setup: u64,
    /// Latency from a sender's notify to a blocked receiver re-entering
    /// the lock path.
    pub wake_latency: u64,
    /// Critical-section cost of a successful receive-side scan/claim.
    pub crit_recv: u64,
    /// Critical-section cost of a woken receiver finding nothing (short
    /// scan, exit) — the thundering-herd re-check path.
    pub crit_check: u64,
    /// Critical-section cost of the post-copy reclaim pass.
    pub crit_reclaim: u64,
    /// How often a spinning waiter re-polls the lock word, in cycles.
    pub spin_poll_interval: u64,
    /// Bus occupancy of one spin poll (the TTAS re-read that misses).
    pub spin_poll_bus: u64,
    /// Cost of one page fault (Dynix fault handling + disk/backing-store
    /// latency amortized by prefetch), in cycles.
    pub page_fault: u64,
    /// Page size (from the machine config).
    pub page_bytes: u64,
}

impl CostModel {
    /// Derives the calibrated cost model for `machine` with the paper's
    /// 10-byte blocks.
    pub fn calibrated(machine: &MachineConfig) -> Self {
        Self::calibrated_with_block(machine, 10)
    }

    /// Derivation with an explicit block size (ablation A1 sweeps this).
    pub fn calibrated_with_block(machine: &MachineConfig, block_payload: usize) -> Self {
        Self {
            block_payload,
            send_setup: 12_000,
            per_block_alloc: 800,
            copy_cycles_per_byte: 150,
            bus_bytes_per_cycle: (machine.bus_bytes_per_sec / machine.cpu_hz).max(1),
            lock_rmw: 100,
            crit_send: 6_000,
            per_head_update: 60,
            recv_setup: 8_000,
            wake_latency: 2_000,
            crit_recv: 4_000,
            crit_check: 1_500,
            crit_reclaim: 6_000,
            spin_poll_interval: 1_000,
            spin_poll_bus: 12,
            // ~4 ms at 10 MHz: Dynix fault service plus amortized backing
            // store traffic (scaled up under thrash, see PagingModel).
            page_fault: 40_000,
            page_bytes: machine.page_bytes,
        }
    }

    /// Blocks needed for a payload.
    pub fn blocks_for(&self, len: usize) -> u64 {
        len.div_ceil(self.block_payload) as u64
    }

    /// CPU cycles for the send-side work outside the critical section
    /// (header setup, block allocation; the copy is charged separately
    /// because it also occupies the bus).
    pub fn send_precopy_cycles(&self, len: usize) -> u64 {
        self.send_setup + self.blocks_for(len) * self.per_block_alloc
    }

    /// CPU cycles of one payload copy (either direction).
    pub fn copy_cpu_cycles(&self, len: usize) -> u64 {
        len as u64 * self.copy_cycles_per_byte
    }

    /// Bus occupancy of one payload copy (each byte crosses twice).
    pub fn copy_bus_cycles(&self, len: usize) -> u64 {
        (2 * len as u64).div_ceil(self.bus_bytes_per_cycle)
    }

    /// Pages touched by a payload of `len` bytes.
    pub fn pages_touched(&self, len: usize) -> u64 {
        (len as u64).div_ceil(self.page_bytes).max(1)
    }

    /// Page-window footprint of one outstanding message: with tiny linked
    /// blocks recycled LIFO from a shared free list, each block of a
    /// message can land on a different page, so a 1 KB message claims up
    /// to ~103 pages of residency — the amplification behind Figure 6's
    /// paging cliff.
    pub fn window_bytes(&self, len: usize) -> u64 {
        if len == 0 {
            0
        } else {
            self.blocks_for(len) * self.page_bytes
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::calibrated(&MachineConfig::balance21000())
    }

    #[test]
    fn paper_block_size_default() {
        assert_eq!(model().block_payload, 10);
        assert_eq!(model().blocks_for(1024), 103);
        assert_eq!(model().blocks_for(0), 0);
    }

    #[test]
    fn base_roundtrip_calibration_anchor() {
        // Anchor 1: a 2 KB loop-back round trip should land near the
        // paper's ~25 KB/s asymptote.  Round trip ≈ send precopy + copy-in
        // + crit sections + copy-out.
        let c = model();
        let len = 2048usize;
        let cycles = c.send_precopy_cycles(len)
            + 2 * c.copy_cpu_cycles(len)
            + c.crit_send
            + c.recv_setup
            + c.crit_recv
            + c.crit_reclaim
            + 6 * c.lock_rmw;
        let secs = cycles as f64 / 10_000_000.0;
        let throughput = len as f64 / secs;
        assert!(
            (18_000.0..35_000.0).contains(&throughput),
            "2 KB loop-back throughput {throughput:.0} B/s should be near the paper's ~25 KB/s"
        );
    }

    #[test]
    fn single_stream_receive_rate_anchor() {
        // Anchor 3: one receiver copying 1024-byte messages should manage
        // ~40-60 KB/s, so 16 broadcast receivers can aggregate to the
        // paper's ~687 KB/s.
        let c = model();
        let len = 1024usize;
        let cycles =
            c.recv_setup + c.copy_cpu_cycles(len) + c.crit_recv + c.crit_reclaim + 4 * c.lock_rmw;
        let throughput = len as f64 / (cycles as f64 / 10_000_000.0);
        assert!(
            (40_000.0..120_000.0).contains(&throughput),
            "per-receiver copy rate {throughput:.0} B/s out of range"
        );
    }

    #[test]
    fn bus_cost_reflects_write_through() {
        let c = model();
        // 8 bytes/cycle peak; two crossings per byte → 1 cycle per 4 bytes.
        assert_eq!(c.bus_bytes_per_cycle, 8);
        assert_eq!(c.copy_bus_cycles(8), 2);
        assert_eq!(c.copy_bus_cycles(1024), 256);
        assert_eq!(c.copy_bus_cycles(1), 1, "partial transfers round up");
    }

    #[test]
    fn pages_touched_rounds_up() {
        let c = model();
        assert_eq!(c.pages_touched(1), 1);
        assert_eq!(c.pages_touched(512), 1);
        assert_eq!(c.pages_touched(513), 2);
    }
}
