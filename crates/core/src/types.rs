//! Core vocabulary types: protocols, LNVC names, LNVC identifiers, and the
//! plain-value types the batch layer and flow control hand to callers.

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
    /// Encoding used in the ipc backend's receive descriptors and in both
    /// backends' `TR_OPEN_RECV`/`TR_CLOSE_RECV` trace markers (0 is left
    /// to mean "no protocol" in a zeroed region).
    pub fn code(self) -> u32 {
        match self {
            Protocol::Fcfs => 1,
            Protocol::Broadcast => 2,
        }
    }

    /// Decodes the C ABI's `protocol` argument (0 = FCFS, 1 = BROADCAST).
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

/// MPF's internal LNVC identifier, returned by `open_send`/`open_receive`
/// and required by the transfer and close primitives (paper §2): the
/// descriptor index and the generation it was minted under
/// (`generation << 32 | index`).  A handle to a deleted conversation stays
/// stale however often its descriptor is recycled — it is detected, never
/// dereferenced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LnvcId(u64);

/// Maximum LNVC slot index a region may carve (`MpfConfig::new`, the
/// region header check and `mpf_create` enforce it).
pub const MAX_LNVC_INDEX: u32 = u16::MAX as u32;

impl LnvcId {
    pub(crate) fn new(generation: u32, index: u32) -> Self {
        Self(((generation as u64) << 32) | index as u64)
    }

    /// The LNVC descriptor index.
    pub fn index(self) -> u32 {
        self.0 as u32
    }

    /// The descriptor generation this handle was minted under.
    pub fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// Raw transport form (for FFI).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a handle from its raw form.
    pub fn from_raw(raw: u64) -> Self {
        Self(raw)
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

/// The completion of one batched send: returned by `send_batch`, or
/// reaped after `submit_sends` + `drain_sends` (DESIGN.md "Deferred
/// sends").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AioCompletion {
    /// The sender's token: the index of the payload within the batch
    /// handed to `send_batch` / `send_batch_deadline` / `submit_sends`.
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

/// Point-in-time counters of one view's deferred sends
/// (`submit_sends` / `drain_sends` / `reap_completions`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AioStats {
    /// Sends currently submitted and not yet drained.
    pub sq_depth: usize,
    /// Completions currently waiting to be reaped.
    pub cq_depth: usize,
    /// Non-empty submits (batches, not sends).
    pub sq_doorbells: u64,
    /// Drains that completed anything.
    pub cq_doorbells: u64,
    /// Sends ever submitted.
    pub submitted: u64,
    /// Sends ever drained.
    pub drained: u64,
    /// Completions ever pushed.
    pub completed: u64,
    /// Completions ever reaped by the submitter.
    pub reaped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_decodes_the_c_encoding() {
        assert_eq!(Protocol::from_raw(0), Some(Protocol::Fcfs));
        assert_eq!(Protocol::from_raw(1), Some(Protocol::Broadcast));
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
}
