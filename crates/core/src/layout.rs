//! The shared-region memory map.
//!
//! The paper's `init()` allocates one shared region and carves it up; the
//! parameters "are used to estimate the amount of shared memory
//! necessary" (§2).  [`RegionLayout`] is that estimate made exact: the
//! byte offset and size of every segment a given [`MpfConfig`] implies,
//! in allocation order.
//!
//! The engine ([`crate::engine`]) performs this carve literally, on a
//! named `/dev/shm` mapping or on the anonymous one behind [`crate::Mpf`]:
//! a region header and per-process heartbeat slots first, every segment
//! aligned to a cache line, and the `#[repr(C)]` in-region structs of
//! [`crate::shmem`] compile-time asserted to match the byte constants
//! here.  [`LAYOUT_VERSION`] is the cross-binary contract: a process may
//! only attach a region whose header echoes the version (and
//! configuration) it was carved with.

use crate::config::MpfConfig;

/// Version of the region byte layout.  Bump on ANY change to the segment
/// order, the constants below, or the in-region struct layouts; attach
/// refuses regions with a different version ([`crate::MpfError::LayoutMismatch`]).
pub const LAYOUT_VERSION: u32 = 11;

/// Magic at byte 0 of every MPF region ("MPFREGN1" little-endian).
pub const REGION_MAGIC: u64 = u64::from_le_bytes(*b"MPFREGN1");

/// One carved segment of the region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// What lives here.
    pub name: &'static str,
    /// Byte offset from the region base.
    pub offset: usize,
    /// Segment size in bytes.
    pub bytes: usize,
    /// Number of fixed-size slots (0 for raw byte areas).
    pub slots: usize,
}

/// The full region map for a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionLayout {
    /// Segments in allocation order.
    pub segments: Vec<Segment>,
}

/// Bytes per LNVC descriptor: lock, queue head/tail, connection lists,
/// counts, stamp, watcher count, mode — no wait word: a blocked receiver
/// sleeps on its process doorbell.
/// `crate::shmem` const-asserts its `#[repr(C)]` struct against this.
pub const LNVC_DESC_BYTES: usize = 192;
/// Bytes per message header: len, chain, next, pending, flags, hop,
/// stamp, send timestamp (latency histogram), causal trace id.
pub const MSG_HEADER_BYTES: usize = 56;
/// Slots of a conversation's one-to-one ring: two full submission runs.
pub const RING_SLOTS: usize = 128;
/// Bytes per one-to-one ring: a cache line per end, then the slots.
pub const LNVC_RING_BYTES: usize = 128 + 4 * RING_SLOTS;
/// Bytes per send-connection descriptor: pid, next.
pub const SEND_DESC_BYTES: usize = 8;
/// Bytes per receive-connection descriptor: pid, next, protocol (with the
/// holder's watch count in its spare bits), head.
pub const RECV_DESC_BYTES: usize = 16;
/// Bytes per block link: next index.
pub const BLOCK_LINK_BYTES: usize = 4;
/// Bytes per registry entry: 32-byte name + index + state.
pub const REGISTRY_ENTRY_BYTES: usize = 40;
/// Bytes reserved for the region header (magic, version, config echo,
/// init barrier, registry lock, pool free lists, pool signal).
pub const REGION_HEADER_BYTES: usize = 512;
/// Bytes per process slot: one cache line of identity
/// and heartbeat (os pid, attach generation, liveness), one for the
/// doorbell the process sleeps on.
pub const PROCESS_SLOT_BYTES: usize = 128;
/// Bytes of one process's facility telemetry shard (cache-line counters +
/// size/latency histograms); see `mpf_shm::telemetry::FacilityTelemetry`.
pub const FACILITY_TELEMETRY_BYTES: usize = mpf_shm::telemetry::FACILITY_TELEMETRY_BYTES;
/// Bytes per LNVC telemetry slot (counters + latency and size histograms).
pub const LNVC_TELEMETRY_BYTES: usize = mpf_shm::telemetry::LNVC_TELEMETRY_BYTES;
/// Bytes per process causal trace ring (single-writer, seqlock-published,
/// KB-sized); see `mpf_shm::tracering::TraceRing`.
pub const TRACE_RING_BYTES: usize = mpf_shm::tracering::TRACE_RING_BYTES;

impl RegionLayout {
    /// Computes the layout for `cfg`: the region header and per-process
    /// heartbeat slots, then the pools, every segment aligned to a 64-byte
    /// cache line (descriptor pools in a live region are written by
    /// different processes; ragged segment starts would let the last slot
    /// of one pool share a line with the first slot of the next).
    pub fn for_config(cfg: &MpfConfig) -> Self {
        let mut segments = Vec::new();
        let mut cursor = 0usize;
        let mut push = |name, bytes: usize, slots: usize| {
            let aligned = bytes.div_ceil(64) * 64;
            segments.push(Segment {
                name,
                offset: cursor,
                bytes: aligned,
                slots,
            });
            cursor += aligned;
        };
        push("region header", REGION_HEADER_BYTES, 1);
        push(
            "process slots",
            cfg.max_processes as usize * PROCESS_SLOT_BYTES,
            cfg.max_processes as usize,
        );
        push(
            "lnvc descriptors",
            cfg.max_lnvcs as usize * LNVC_DESC_BYTES,
            cfg.max_lnvcs as usize,
        );
        push(
            "name registry",
            cfg.max_lnvcs as usize * REGISTRY_ENTRY_BYTES,
            cfg.max_lnvcs as usize,
        );
        push(
            "message headers",
            cfg.max_messages as usize * MSG_HEADER_BYTES,
            cfg.max_messages as usize,
        );
        push(
            "send descriptors",
            cfg.max_send_conns as usize * SEND_DESC_BYTES,
            cfg.max_send_conns as usize,
        );
        push(
            "receive descriptors",
            cfg.max_recv_conns as usize * RECV_DESC_BYTES,
            cfg.max_recv_conns as usize,
        );
        push(
            "block links",
            cfg.total_blocks as usize * BLOCK_LINK_BYTES,
            cfg.total_blocks as usize,
        );
        push(
            "block payloads",
            cfg.total_blocks as usize * cfg.block_payload,
            cfg.total_blocks as usize,
        );
        // Facility telemetry is sharded per process slot: each process
        // writes only its own shard (cold counters, and what conversations
        // it deleted had counted); snapshots sum the shards and the
        // per-LNVC blocks, where the message path counts.
        push(
            "facility telemetry",
            cfg.max_processes as usize * FACILITY_TELEMETRY_BYTES,
            cfg.max_processes as usize,
        );
        push(
            "lnvc telemetry",
            cfg.max_lnvcs as usize * LNVC_TELEMETRY_BYTES,
            cfg.max_lnvcs as usize,
        );
        // One single-writer trace ring per process slot, so a crashed
        // process's last events survive in the region: the substrate of
        // `mpf-trace`'s last-events view (`stat`) and its post-mortem
        // reconstruction.
        push(
            "trace rings",
            cfg.max_processes as usize * TRACE_RING_BYTES,
            cfg.max_processes as usize,
        );
        // Last, so the segments before keep their offsets: one ring per
        // conversation, touched only while it is in use.
        push(
            "lnvc rings",
            cfg.max_lnvcs as usize * LNVC_RING_BYTES,
            cfg.max_lnvcs as usize,
        );
        Self { segments }
    }

    /// Total region bytes.
    pub fn total_bytes(&self) -> usize {
        self.segments.last().map_or(0, |s| s.offset + s.bytes)
    }

    /// Looks a segment up by name.
    pub fn segment(&self, name: &str) -> Option<&Segment> {
        self.segments.iter().find(|s| s.name == name)
    }

    /// Renders the map as an `init()`-time banner.
    pub fn render(&self) -> String {
        let mut out = String::from("shared region map:\n");
        for s in &self.segments {
            out.push_str(&format!(
                "  {:>8} .. {:>8}  {:<20} ({} slots)\n",
                s.offset,
                s.offset + s.bytes,
                s.name,
                s.slots
            ));
        }
        out.push_str(&format!("  total: {} bytes\n", self.total_bytes()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> RegionLayout {
        RegionLayout::for_config(&MpfConfig::paper_faithful(16, 20))
    }

    #[test]
    fn segments_are_contiguous_and_cache_line_aligned() {
        let cfg = MpfConfig::paper_faithful(16, 20);
        let l = RegionLayout::for_config(&cfg);
        let mut cursor = 0;
        for s in &l.segments {
            assert_eq!(s.offset, cursor, "{} not contiguous", s.name);
            assert_eq!(s.offset % 64, 0, "{} not line-aligned", s.name);
            cursor += s.bytes;
        }
        assert_eq!(l.total_bytes(), cursor);
        let header = l.segment("region header").unwrap();
        assert_eq!(header.offset, 0);
        assert!(header.bytes >= REGION_HEADER_BYTES);
        let slots = l.segment("process slots").unwrap();
        assert_eq!(slots.slots, cfg.max_processes as usize);
        let traces = l.segment("trace rings").unwrap();
        assert_eq!(traces.slots, cfg.max_processes as usize);
        assert_eq!(traces.bytes, cfg.max_processes as usize * TRACE_RING_BYTES);
    }

    #[test]
    fn block_payloads_match_config() {
        let cfg = MpfConfig::paper_faithful(16, 20);
        let l = RegionLayout::for_config(&cfg);
        let payloads = l.segment("block payloads").unwrap();
        assert_eq!(payloads.slots, cfg.total_blocks as usize);
        assert!(payloads.bytes >= cfg.total_blocks as usize * cfg.block_payload);
    }

    #[test]
    fn layout_grows_with_configuration() {
        let small = RegionLayout::for_config(&MpfConfig::new(4, 4));
        let big = RegionLayout::for_config(&MpfConfig::new(64, 64));
        assert!(big.total_bytes() > small.total_bytes());
    }

    #[test]
    fn render_names_every_segment() {
        let text = layout().render();
        for name in [
            "region header",
            "process slots",
            "lnvc descriptors",
            "name registry",
            "message headers",
            "send descriptors",
            "receive descriptors",
            "block links",
            "block payloads",
            "facility telemetry",
            "lnvc telemetry",
            "trace rings",
            "lnvc rings",
            "total:",
        ] {
            assert!(text.contains(name), "missing {name}");
        }
    }
}
