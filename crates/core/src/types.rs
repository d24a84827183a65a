//! Core vocabulary types: protocols, LNVC names, LNVC identifiers, and the
//! plain-value types the batch layer and flow control hand to callers.

use mpf_shm::ring::AioRing;

use crate::error::{MpfError, Result};

/// Maximum LNVC name length in bytes (fixed-size storage in the shared
/// region — the paper's "mutually selected names" must fit the descriptor).
pub const MAX_NAME_LEN: usize = 31;

/// Receiver protocol declared at `open_receive` (paper §1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// First-come, first-served: each message is delivered to exactly one
    /// FCFS receiver.
    Fcfs,
    /// Every broadcast receiver sees every message.
    Broadcast,
}

impl Protocol {
    /// Encoding used in shared-region descriptors and the C API.
    pub fn to_raw(self) -> u8 {
        match self {
            Protocol::Fcfs => 0,
            Protocol::Broadcast => 1,
        }
    }

    /// Encoding used in the ipc backend's receive descriptors and in both
    /// backends' `TR_OPEN_RECV`/`TR_CLOSE_RECV` trace markers (0 is left
    /// to mean "no protocol" in a zeroed region).
    pub fn code(self) -> u32 {
        match self {
            Protocol::Fcfs => 1,
            Protocol::Broadcast => 2,
        }
    }

    /// Decodes a raw protocol value.
    pub fn from_raw(raw: u8) -> Option<Self> {
        match raw {
            0 => Some(Protocol::Fcfs),
            1 => Some(Protocol::Broadcast),
            _ => None,
        }
    }
}

/// A fixed-capacity, heap-free LNVC name (lives in descriptor tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LnvcName {
    bytes: [u8; MAX_NAME_LEN],
    len: u8,
}

impl LnvcName {
    /// Validates and stores a name.  Names must be non-empty and at most
    /// [`MAX_NAME_LEN`] bytes.
    pub fn new(name: &str) -> Result<Self> {
        let raw = name.as_bytes();
        if raw.is_empty() || raw.len() > MAX_NAME_LEN {
            return Err(MpfError::InvalidName {
                len: raw.len(),
                max: MAX_NAME_LEN,
            });
        }
        let mut bytes = [0u8; MAX_NAME_LEN];
        bytes[..raw.len()].copy_from_slice(raw);
        Ok(Self {
            bytes,
            len: raw.len() as u8,
        })
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        // Construction from &str guarantees valid UTF-8 on these bytes.
        std::str::from_utf8(&self.bytes[..self.len as usize]).expect("name is valid UTF-8")
    }
}

impl std::fmt::Display for LnvcName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for LnvcName {
    type Err = MpfError;
    fn from_str(s: &str) -> Result<Self> {
        Self::new(s)
    }
}

/// MPF's internal LNVC identifier, returned by `open_send`/`open_receive`
/// and required by the transfer and close primitives (paper §2).
///
/// Like the paper's `int`, it fits a non-negative `i32`.  It packs a slot index (low 16 bits) and a 15-bit generation
/// so a stale identifier for a deleted-and-recycled LNVC is detected rather
/// than silently addressing the wrong conversation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LnvcId(u32);

/// Maximum LNVC slot index representable in an [`LnvcId`].
pub const MAX_LNVC_INDEX: u32 = u16::MAX as u32;
const GEN_MASK: u32 = 0x7FFF;

impl LnvcId {
    /// Packs a slot index and generation.
    pub(crate) fn from_parts(index: u32, generation: u32) -> Self {
        debug_assert!(index <= MAX_LNVC_INDEX);
        Self(((generation & GEN_MASK) << 16) | index)
    }

    /// The LNVC slot index.
    pub(crate) fn index(self) -> u32 {
        self.0 & 0xFFFF
    }

    /// The generation tag this identifier was minted with.
    pub(crate) fn generation(self) -> u32 {
        (self.0 >> 16) & GEN_MASK
    }

    /// Whether this identifier was minted under `slot_generation`.  The
    /// id carries only [`GEN_MASK`] bits, so the slot's full counter must
    /// be masked before comparing (a slot recycled 2^15 times must not
    /// invalidate fresh identifiers).
    pub(crate) fn matches_generation(self, slot_generation: u32) -> bool {
        (slot_generation & GEN_MASK) == self.generation()
    }
}

impl std::fmt::Display for LnvcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lnvc#{}@{}", self.index(), self.generation())
    }
}

/// Pool occupancy held by **corpses**: queued messages that are fully
/// consumed and unpinned, awaiting a reclamation sweep.  Flow control uses
/// this to distinguish "pool full of live messages" (back-pressure is
/// real) from "pool full of corpses" (a sweep would free room).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Reclaimable {
    /// Message headers a sweep would free.
    pub messages: u32,
    /// Payload blocks a sweep would free.
    pub blocks: u64,
}

/// One reaped completion-queue entry of the batch layer (DESIGN.md "aio";
/// the rings themselves are [`mpf_shm::ring::AioRing`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AioCompletion {
    /// The submitter's token: for `submit_sends`/`send_batch`, the index
    /// of the payload within the submitted batch.
    pub user_data: u64,
    /// Causal trace id the send carried (0 = untraced), so async callers
    /// can continue the chain without touching the descriptor again.
    pub trace: u64,
    /// The conversation, as its LNVC descriptor index.
    pub lnvc: u32,
    /// Payload length of the completed send.
    pub len: u32,
    /// 0 on success, else the `MpfError::status_code` of the failure.
    pub status: i32,
}

impl AioCompletion {
    /// Whether the submission completed successfully.
    pub fn ok(&self) -> bool {
        self.status == 0
    }
}

/// Point-in-time counters of one process's submission/completion ring
/// pair (also surfaced by the region inspector and `mpfstat`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AioStats {
    /// Descriptors currently staged in the submission ring.
    pub sq_depth: usize,
    /// Completions currently waiting to be reaped.
    pub cq_depth: usize,
    /// Submission-ring doorbell rings (batches, not descriptors).
    pub sq_doorbells: u64,
    /// Completion-ring doorbell rings.
    pub cq_doorbells: u64,
    /// Descriptors ever submitted.
    pub submitted: u64,
    /// Descriptors ever drained out of the submission ring.
    pub drained: u64,
    /// Completions ever pushed.
    pub completed: u64,
    /// Completions ever reaped by the submitter.
    pub reaped: u64,
}

impl AioStats {
    /// Builds the snapshot from a ring pair.
    pub fn from_rings(sq: &AioRing, cq: &AioRing) -> Self {
        Self {
            sq_depth: sq.depth(),
            cq_depth: cq.depth(),
            sq_doorbells: sq.doorbell_count(),
            cq_doorbells: cq.doorbell_count(),
            submitted: sq.total_enqueued(),
            drained: sq.total_dequeued(),
            completed: cq.total_enqueued(),
            reaped: cq.total_dequeued(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_raw_roundtrip() {
        for p in [Protocol::Fcfs, Protocol::Broadcast] {
            assert_eq!(Protocol::from_raw(p.to_raw()), Some(p));
        }
        assert_eq!(Protocol::from_raw(2), None);
    }

    #[test]
    fn name_accepts_max_len() {
        let s = "x".repeat(MAX_NAME_LEN);
        let n = LnvcName::new(&s).unwrap();
        assert_eq!(n.as_str(), s);
    }

    #[test]
    fn name_rejects_empty_and_too_long() {
        assert!(LnvcName::new("").is_err());
        assert!(LnvcName::new(&"x".repeat(MAX_NAME_LEN + 1)).is_err());
    }

    #[test]
    fn name_equality_ignores_padding() {
        let a = LnvcName::new("pivot").unwrap();
        let b = LnvcName::new("pivot").unwrap();
        let c = LnvcName::new("pivotx").unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn name_display_and_fromstr() {
        let n: LnvcName = "edge:3->4".parse().unwrap();
        assert_eq!(n.to_string(), "edge:3->4");
    }

    #[test]
    fn id_pack_unpack() {
        let id = LnvcId::from_parts(513, 77);
        assert_eq!(id.index(), 513);
        assert_eq!(id.generation(), 77);
    }

    #[test]
    fn generation_wraps_in_mask() {
        let id = LnvcId::from_parts(1, GEN_MASK + 5);
        assert_eq!(id.generation(), 4);
        assert!(id.matches_generation(GEN_MASK + 5));
        assert!(!id.matches_generation(GEN_MASK + 6));
    }
}
