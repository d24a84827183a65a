//! Facility configuration — the paper's `init(maxLNVC's, max_processes)`
//! plus the knobs its implementation fixes implicitly.
//!
//! The paper: "The parameters maxLNVC's and max_processes … are used to
//! estimate the amount of shared memory necessary."  [`MpfConfig::new`]
//! performs that estimate; every derived quantity can be overridden with
//! the builder methods (the ablation benches sweep them).

use mpf_shm::waitq::WaitStrategy;

use crate::types::MAX_LNVC_INDEX;

/// Configuration for [`crate::Mpf::init`].
#[derive(Debug, Clone)]
pub struct MpfConfig {
    /// Maximum simultaneously existing LNVCs (paper: `maxLNVC's`).
    pub max_lnvcs: u32,
    /// Maximum participating processes (paper: `max_processes`).
    pub max_processes: u32,
    /// Payload bytes per message block.  The paper used 10-byte blocks in
    /// all experiments (§3.1 footnote 4).
    pub block_payload: usize,
    /// Number of message blocks in the shared region.
    pub total_blocks: u32,
    /// Number of message headers in the shared region.
    pub max_messages: u32,
    /// Number of send-connection descriptors.
    pub max_send_conns: u32,
    /// Number of receive-connection descriptors.
    pub max_recv_conns: u32,
    /// Whether the facility records in-region telemetry (counters and
    /// histograms).  On by default — a per-message counter is a plain
    /// load and store under the conversation lock the operation already
    /// holds; the off switch exists so benchmarks can measure exactly
    /// that cost.  The telemetry segments are always carved (the
    /// layout does not depend on this flag); disabling only stops writes.
    pub telemetry: bool,
    /// Latency sampling period N, a power of two (default 32): a
    /// conversation's messages whose sequence number is a multiple of N
    /// are *timed*.  Only a send or receive that handles a timed message
    /// reads the calibrated cycle counter (~17 ns; no syscall); that one
    /// reading is the latency sample's origin or end and dates the call's
    /// trace records.  The other N−1 read no clock at all, with tracing on
    /// or off: they skip the latency histogram and write their trace
    /// records undated (`tstamp` 0), and every counter still updates.
    /// 1 times every message.
    pub latency_sample_every: u32,
    /// Causal-trace sampling period: record 1-in-N causal chains in the
    /// per-process trace rings (1 = trace every chain, the default;
    /// 0 disables trace recording entirely).  The decision is made at the
    /// chain's **root** send and inherited by every downstream hop, so
    /// sampled chains are always complete — N thins the population of
    /// chains, never the events within one.
    pub trace_sample_every: u32,
}

/// The paper's experimental block payload: 10 bytes.
pub const PAPER_BLOCK_PAYLOAD: usize = 10;

impl MpfConfig {
    /// The paper-style constructor: estimates pool sizes from the two
    /// parameters.  Defaults favour practicality (64-byte blocks); use
    /// [`MpfConfig::paper_faithful`] for the 10-byte experimental setup.
    pub fn new(max_lnvcs: u32, max_processes: u32) -> Self {
        assert!((1..=MAX_LNVC_INDEX + 1).contains(&max_lnvcs));
        assert!(max_processes >= 1);
        let conns = (max_processes * 8).max(max_lnvcs * 2).max(64);
        Self {
            max_lnvcs,
            max_processes,
            block_payload: 64,
            total_blocks: 8192,
            max_messages: 2048,
            max_send_conns: conns,
            max_recv_conns: conns,
            telemetry: true,
            latency_sample_every: 32,
            trace_sample_every: 1,
        }
    }

    /// The configuration the paper's experiments ran with: 10-byte message
    /// blocks.
    pub fn paper_faithful(max_lnvcs: u32, max_processes: u32) -> Self {
        Self::new(max_lnvcs, max_processes).with_block_payload(PAPER_BLOCK_PAYLOAD)
    }

    /// Sets the per-block payload size (≥ 1 byte).
    pub fn with_block_payload(mut self, bytes: usize) -> Self {
        assert!(bytes >= 1, "block payload must be at least one byte");
        self.block_payload = bytes;
        self
    }

    /// Sets the total number of message blocks.
    pub fn with_total_blocks(mut self, blocks: u32) -> Self {
        self.total_blocks = blocks;
        self
    }

    /// Sets the number of message headers.
    pub fn with_max_messages(mut self, messages: u32) -> Self {
        self.max_messages = messages;
        self
    }

    /// Sets the connection descriptor counts (both directions).
    pub fn with_max_connections(mut self, conns: u32) -> Self {
        self.max_send_conns = conns;
        self.max_recv_conns = conns;
        self
    }

    /// Does nothing: every blocked call sleeps on an in-region futex word,
    /// whatever is asked for here.  Kept only because the repo benchmark's
    /// harness calls it and a PR may not edit the harness it is measured
    /// by; it goes with the next `benchmark/` change (ROADMAP).
    pub fn with_wait_strategy(self, _strategy: WaitStrategy) -> Self {
        self
    }

    /// Enables or disables in-region telemetry recording (on by default).
    pub fn with_telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Times 1-in-`every` messages of each conversation (a power of two;
    /// 32 by default): only those read the clock, for the latency sample
    /// and the dates of their trace records, so the other messages' sends
    /// and receives make no clock read, traced or not.  1 times every
    /// message.
    pub fn latency_sample_rate(mut self, every: u32) -> Self {
        assert!(
            every.is_power_of_two(),
            "latency sample period must be a power of two, got {every}"
        );
        self.latency_sample_every = every;
        self
    }

    /// Traces 1-in-`every` causal chains in the per-process trace rings
    /// (1 = every chain, the default; 0 disables trace recording).
    pub fn trace_sample_rate(mut self, every: u32) -> Self {
        self.trace_sample_every = every;
        self
    }

    /// Largest single message payload the configured region can hold
    /// (every block devoted to one message).
    pub fn max_message_bytes(&self) -> usize {
        self.block_payload * self.total_blocks as usize
    }

    /// The paper's "estimate [of] the amount of shared memory necessary",
    /// made exact: bytes of the region this configuration carves
    /// ([`crate::layout::RegionLayout`]).
    pub fn estimated_shared_bytes(&self) -> usize {
        crate::layout::RegionLayout::for_config(self).total_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_faithful_uses_ten_byte_blocks() {
        let cfg = MpfConfig::paper_faithful(16, 20);
        assert_eq!(cfg.block_payload, PAPER_BLOCK_PAYLOAD);
    }

    #[test]
    fn builders_override_defaults() {
        let cfg = MpfConfig::new(4, 4)
            .with_block_payload(128)
            .with_total_blocks(100)
            .with_max_messages(10)
            .with_max_connections(7)
            .with_wait_strategy(WaitStrategy::Park)
            .with_telemetry(false)
            .latency_sample_rate(16)
            .trace_sample_rate(8);
        assert!(!cfg.telemetry);
        assert_eq!(cfg.latency_sample_every, 16);
        assert_eq!(cfg.trace_sample_every, 8);
        assert_eq!(cfg.block_payload, 128);
        assert_eq!(cfg.total_blocks, 100);
        assert_eq!(cfg.max_messages, 10);
        assert_eq!(cfg.max_send_conns, 7);
        assert_eq!(cfg.max_recv_conns, 7);
    }

    #[test]
    fn max_message_bytes_is_block_capacity() {
        let cfg = MpfConfig::new(4, 4)
            .with_block_payload(10)
            .with_total_blocks(100);
        assert_eq!(cfg.max_message_bytes(), 1000);
    }

    #[test]
    fn estimate_grows_with_everything() {
        let small = MpfConfig::new(4, 4);
        let big = MpfConfig::new(64, 64).with_total_blocks(small.total_blocks * 2);
        assert!(big.estimated_shared_bytes() > small.estimated_shared_bytes());
    }

    #[test]
    #[should_panic]
    fn zero_lnvcs_rejected() {
        let _ = MpfConfig::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one byte")]
    fn zero_block_payload_rejected() {
        let _ = MpfConfig::new(1, 1).with_block_payload(0);
    }

    #[test]
    #[should_panic(expected = "sample period")]
    fn zero_sample_period_rejected() {
        let _ = MpfConfig::new(1, 1).latency_sample_rate(0);
    }
}
