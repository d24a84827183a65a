//! The `#[repr(C)]` structures that live *inside* the shared region.
//!
//! Every struct here is overlaid directly onto the mmap'd bytes at the
//! offsets [`crate::layout::RegionLayout::for_config`] computes, so three
//! invariants are compile-time enforced at the bottom of this file:
//!
//! 1. sizes match the byte constants in [`crate::layout`] (the carve's
//!    slot strides);
//! 2. every field shared between processes is an atomic (the region is
//!    mapped writable in many address spaces at once — plain fields are
//!    only written during single-owner initialization);
//! 3. no struct contains a pointer — all links are `u32` slot indices
//!    ([`NIL`]-terminated), because the region maps at a different base
//!    address in every process (the Balance 21000 discipline).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

pub use mpf_shm::freelist::{FreeHead, NIL};
use mpf_shm::waitq::FutexSeq;
use mpf_shm::IpcLock;

use crate::config::MpfConfig;
use crate::layout::{
    LNVC_DESC_BYTES, MSG_HEADER_BYTES, PROCESS_SLOT_BYTES, RECV_DESC_BYTES, REGION_HEADER_BYTES,
    REGISTRY_ENTRY_BYTES, SEND_DESC_BYTES,
};

/// Configuration echo stored in the header so `attach` can verify it
/// speaks the same carve as `create`.
#[repr(C)]
#[derive(Debug)]
pub struct ConfigEcho {
    /// `max_lnvcs` the region was carved with.
    pub max_lnvcs: AtomicU32,
    /// `max_processes` (= number of process slots).
    pub max_processes: AtomicU32,
    /// Payload bytes per block.
    pub block_payload: AtomicU32,
    /// Total message blocks.
    pub total_blocks: AtomicU32,
    /// Message header pool size.
    pub max_messages: AtomicU32,
    /// Send-connection pool size.
    pub max_send_conns: AtomicU32,
    /// Receive-connection pool size.
    pub max_recv_conns: AtomicU32,
    /// 1 when the creator enabled telemetry recording; the segments are
    /// carved either way, this only tells attachers whether to write them.
    pub telemetry: AtomicU32,
    /// Latency sampling period N: a conversation's messages with a seq
    /// that is a multiple of N are timed (1 = every message).  Echoed so
    /// sender and receiver agree on which messages those are.
    pub latency_sample_every: AtomicU32,
    /// Causal-trace sampling period: 1-in-N causal chains are recorded in
    /// the trace rings (1 = every chain, 0 = tracing off).  Echoed so
    /// every attacher traces at the creator's rate.
    pub trace_sample_every: AtomicU32,
}

impl ConfigEcho {
    /// Rebuilds the creator's [`MpfConfig`] from the echo,
    /// range-checking every field first: a corrupt or truncated region can
    /// present a READY header whose echo holds garbage, and
    /// `MpfConfig::new` asserts (panics) on zeros while huge values would
    /// overflow the layout arithmetic.  `None` means "this echo cannot
    /// have come from a real carve" — attachers and inspectors surface it
    /// as a layout mismatch instead of crashing.
    pub fn decode(&self) -> Option<MpfConfig> {
        let max_lnvcs = self.max_lnvcs.load(Ordering::Acquire);
        let max_processes = self.max_processes.load(Ordering::Acquire);
        let block_payload = self.block_payload.load(Ordering::Acquire);
        let total_blocks = self.total_blocks.load(Ordering::Acquire);
        let max_messages = self.max_messages.load(Ordering::Acquire);
        let max_send_conns = self.max_send_conns.load(Ordering::Acquire);
        let max_recv_conns = self.max_recv_conns.load(Ordering::Acquire);
        let in_range = |v: u32, hi: u32| (1..=hi).contains(&v);
        if !in_range(max_lnvcs, crate::types::MAX_LNVC_INDEX + 1)
            || !in_range(max_processes, 1 << 16)
            || !in_range(block_payload, 1 << 24)
            || !in_range(total_blocks, 1 << 28)
            || !in_range(max_messages, 1 << 28)
            || !in_range(max_send_conns, 1 << 24)
            || !in_range(max_recv_conns, 1 << 24)
        {
            return None;
        }
        let mut cfg = MpfConfig::new(max_lnvcs, max_processes)
            .with_block_payload(block_payload as usize)
            .with_total_blocks(total_blocks)
            .with_max_messages(max_messages);
        cfg.max_send_conns = max_send_conns;
        cfg.max_recv_conns = max_recv_conns;
        cfg.telemetry = self.telemetry.load(Ordering::Acquire) != 0;
        cfg.latency_sample_every = self.latency_sample_every.load(Ordering::Acquire).max(1);
        // 0 is legal here: tracing off.
        cfg.trace_sample_every = self.trace_sample_every.load(Ordering::Acquire);
        Some(cfg)
    }
}

/// Region state machine values for [`RegionHeader::state`].
pub mod region_state {
    /// `create` is still carving and threading free lists.
    pub const BUILDING: u32 = 0;
    /// Header and pools are ready; attach may proceed.
    pub const READY: u32 = 1;
}

/// First bytes of the region: identification, config echo, init barrier,
/// the registry lock, the four pool free lists, and the pool signal.
#[repr(C)]
#[derive(Debug)]
pub struct RegionHeader {
    /// [`crate::layout::REGION_MAGIC`]; written before `state` flips
    /// to `READY`.
    pub magic: AtomicU64,
    /// [`crate::layout::LAYOUT_VERSION`] of the creator.
    pub layout_version: AtomicU32,
    /// Init barrier: [`region_state::BUILDING`] → [`region_state::READY`].
    pub state: AtomicU32,
    /// Total carved bytes (attach cross-checks the file length).
    pub total_bytes: AtomicU64,
    /// Configuration the carve was computed from.  The 40-byte echo ends
    /// 8-aligned, so the 8-aligned lock follows with no padding hole.
    pub cfg: ConfigEcho,
    /// Guards the name registry and LNVC slot allocation (lock order:
    /// registry, then LNVC descriptor).
    pub registry_lock: IpcLock,
    /// Free message headers.
    pub msg_free: FreeHead,
    /// Free payload blocks.
    pub block_free: FreeHead,
    /// Free send-connection descriptors.
    pub send_free: FreeHead,
    /// Free receive-connection descriptors.
    pub recv_free: FreeHead,
    /// Global send stamp (total order over all sends in the region).
    pub next_stamp: AtomicU64,
    /// Liveness-sweep epoch (diagnostic; bumped per completed sweep).
    pub sweep_epoch: AtomicU32,
    /// Registrations waiting for pool memory, region-wide (the sum of
    /// every [`ProcessSlot::mem_wait`]).  Shares the free lists' cache
    /// line on purpose: the reclaim that just pushed onto one of them
    /// reads this from a line it already owns.
    pub pool_waiters: AtomicU32,
    /// The pool signal: bumped by a reclaim only while `pool_waiters` is
    /// non-zero.  On its own line — waiters poll it, reclaims with nobody
    /// waiting never touch it.
    pub pool_seq: AtomicU32,
    /// Telemetry fold sequence: odd while a deleted conversation's counts
    /// move into a process shard (`FacilityTelemetry::retire`).  Written
    /// under the registry lock only; lock-free snapshots retry on it.
    pub tel_fold_seq: AtomicU32,
    _pad: [u8; REGION_HEADER_BYTES - 136],
}

/// Process-slot state values.
pub mod slot_state {
    /// Never attached (or cleanly detached).
    pub const FREE: u32 = 0;
    /// A live process owns this slot.
    pub const ATTACHED: u32 = 1;
    /// The liveness sweep found the owner dead.
    pub const DEAD: u32 = 2;
}

/// One per-process slot; the slot index *is* the MPF process id.  Two
/// cache lines: the first is written by its owner on every primitive
/// (heartbeat), the second holds the one word the owner sleeps on and
/// its peers write, so neither side's hot state shares a line with it.
#[repr(C)]
#[derive(Debug)]
pub struct ProcessSlot {
    /// [`slot_state`] value, CAS-claimed on attach.
    pub state: AtomicU32,
    /// OS pid of the owner (valid while `state != FREE`).
    pub os_pid: AtomicU32,
    /// Incarnation count: bumped each time the slot is (re)claimed, so a
    /// recycled slot is distinguishable from its dead predecessor.
    pub generation: AtomicU32,
    _pad0: u32,
    /// Bumped on every primitive the owner executes.
    pub heartbeat: AtomicU64,
    _pad_line0: [u8; 64 - 24],
    /// The word every multi-source or memory wait of this process sleeps
    /// on.  Rung by an enqueue, poison or close on a conversation the
    /// process watches, by a reclaim while it waits for pool memory, and
    /// by its own `close_receive` of a watched connection.
    pub doorbell: FutexSeq,
    /// Registrations of this process in [`RegionHeader::pool_waiters`]
    /// (per slot, so the sweep can retire a dead waiter's share).
    pub mem_wait: AtomicU32,
    _pad: [u8; PROCESS_SLOT_BYTES - 64 - 12],
}

impl ProcessSlot {
    /// True when this slot's owner should be treated as alive: the slot
    /// is claimed and its OS process still exists.
    pub fn owner_alive(&self) -> bool {
        self.state.load(Ordering::Acquire) == slot_state::ATTACHED
            && mpf_shm::futex::process_alive(self.os_pid.load(Ordering::Acquire))
    }
}

/// One name-registry entry (guarded by [`RegionHeader::registry_lock`]).
#[repr(C)]
#[derive(Debug)]
pub struct RegistryEntry {
    /// Zero-padded LNVC name (`MAX_NAME_LEN` = 31 guarantees a NUL).
    pub name: [AtomicU32; 8],
    /// 0 free, 1 used.
    pub used: AtomicU32,
    /// Descriptor index the name maps to.
    pub lnvc: AtomicU32,
}

impl RegistryEntry {
    /// Stores `bytes` (≤ 32, zero-padded) into the name words.
    pub fn set_name(&self, bytes: &[u8]) {
        let mut padded = [0u8; 32];
        padded[..bytes.len()].copy_from_slice(bytes);
        for (i, w) in self.name.iter().enumerate() {
            w.store(
                u32::from_le_bytes(padded[i * 4..i * 4 + 4].try_into().unwrap()),
                Ordering::Release,
            );
        }
    }

    /// Loads the zero-padded name bytes.
    pub fn get_name(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, w) in self.name.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.load(Ordering::Acquire).to_le_bytes());
        }
        out
    }
}

/// Message flag bits ([`MsgDesc::flags`]).
pub mod msg_flags {
    /// The message owes one FCFS delivery.
    pub const NEEDS_FCFS: u32 = 1;
    /// The FCFS delivery happened.
    pub const FCFS_TAKEN: u32 = 2;
}

/// One in-region message header.
#[repr(C)]
#[derive(Debug)]
pub struct MsgDesc {
    /// Next message in the LNVC queue (or free-list link), [`NIL`]-ended.
    pub next: AtomicU32,
    /// First payload block index ([`NIL`] for empty payloads).
    pub head_block: AtomicU32,
    /// Number of chained blocks.
    pub n_blocks: AtomicU32,
    /// Payload length in bytes.
    pub len: AtomicU32,
    /// Per-LNVC sequence number (broadcast cursors compare against it).
    pub seq: AtomicU32,
    /// Broadcast deliveries still owed.
    pub bcast_pending: AtomicU32,
    /// [`msg_flags`] bits.
    pub flags: AtomicU32,
    /// Hop count of the causal chain this message continues (0 = root).
    pub hop: AtomicU32,
    /// Global send stamp (total order / tracing).
    pub stamp: AtomicU64,
    /// Wall-clock nanoseconds at send of a timed message (0 otherwise),
    /// feeding the telemetry send→receive latency histogram.
    pub sent_at: AtomicU64,
    /// Causal trace id (0 = untraced; bit 63 = sampled flag).  Stamped at
    /// send, read at delivery to continue the chain, cleared at reclaim.
    pub trace: AtomicU64,
}

impl MsgDesc {
    /// Whether the message still owes its one FCFS delivery.
    pub fn fcfs_owed(&self) -> bool {
        let flags = self.flags.load(Ordering::Acquire);
        flags & msg_flags::NEEDS_FCFS != 0 && flags & msg_flags::FCFS_TAKEN == 0
    }

    /// The §3 reclaim rule: every delivery fixed at send time has been
    /// made (or waived) — no FCFS delivery owed, no BROADCAST claim left —
    /// so the message may leave its queue.
    pub fn fully_delivered(&self) -> bool {
        !self.fcfs_owed() && self.bcast_pending.load(Ordering::Acquire) == 0
    }
}

/// One send-connection descriptor.
#[repr(C)]
#[derive(Debug)]
pub struct SendDesc {
    /// MPF process id of the holder.
    pub pid: AtomicU32,
    /// Next send descriptor on the LNVC (or free-list link).
    pub next: AtomicU32,
}

/// One receive-connection descriptor.
#[repr(C)]
#[derive(Debug)]
pub struct RecvDesc {
    /// MPF process id of the holder.
    pub pid: AtomicU32,
    /// Next receive descriptor on the LNVC (or free-list link).
    pub next: AtomicU32,
    /// Low byte: `Protocol::code()` (1/2; 0 would be ambiguous with zeroed
    /// slots).  Upper 24 bits: how many waits of the holder are watching
    /// the conversation right now — the stride has no spare word.  Both
    /// halves change only under the LNVC lock.
    pub protocol: AtomicU32,
    /// Broadcast cursor: the smallest [`MsgDesc::seq`] this receiver is
    /// owed (set to the LNVC's `next_seq` at open, per the paper's
    /// "new messages only" BROADCAST join rule).
    pub cursor: AtomicU32,
}

impl RecvDesc {
    /// One watch, in `protocol`'s units.
    pub const WATCH_ONE: u32 = 1 << 8;

    /// The connection's `Protocol::code()`.
    pub fn protocol_code(&self) -> u32 {
        self.protocol.load(Ordering::Acquire) & (Self::WATCH_ONE - 1)
    }

    /// Waits of the holder currently watching the conversation.
    pub fn watches(&self) -> u32 {
        self.protocol.load(Ordering::Acquire) >> 8
    }
}

/// One LNVC descriptor: the paper's per-conversation structure.
#[repr(C)]
#[derive(Debug)]
pub struct LnvcDesc {
    /// Per-conversation mutex with dead-holder recovery.
    pub lock: IpcLock,
    /// Blocked receivers wait here (cross-process futex sequence).
    pub waitq: FutexSeq,
    /// 0 free, 1 active.
    pub active: AtomicU32,
    /// Bumped on every activation; the high half of public LNVC ids, so
    /// stale ids from a deleted conversation are detectable.
    pub generation: AtomicU32,
    /// Back-link to the registry entry holding this conversation's name.
    pub registry_idx: AtomicU32,
    /// Message queue head (oldest), [`NIL`] when empty.
    pub q_head: AtomicU32,
    /// Message queue tail (newest).
    pub q_tail: AtomicU32,
    /// Queued message count.
    pub msg_count: AtomicU32,
    /// Send-connection list head.
    pub send_head: AtomicU32,
    /// Receive-connection list head.
    pub recv_head: AtomicU32,
    /// Live send connections.
    pub n_senders: AtomicU32,
    /// Live FCFS receive connections.
    pub n_fcfs: AtomicU32,
    /// Live BROADCAST receive connections.
    pub n_bcast: AtomicU32,
    /// Next per-LNVC message sequence number.
    pub next_seq: AtomicU32,
    /// 1 once a peer died mid-conversation; survivors get `PeerDied`.
    pub poisoned: AtomicU32,
    /// MPF pid of the peer whose death poisoned the conversation.
    pub dead_pid: AtomicU32,
    /// Stamp of the most recent send (diagnostic).
    pub last_stamp: AtomicU64,
    /// Watches armed on this conversation (the sum of its receive
    /// connections' [`RecvDesc::watches`]).  A sender that reads zero —
    /// one load of a line it just wrote — rings no doorbell.
    pub watchers: AtomicU32,
    _pad: [u8; LNVC_DESC_BYTES - 92],
}

impl LnvcDesc {
    /// Total live connections.
    pub fn total_connections(&self) -> u32 {
        self.n_senders.load(Ordering::Acquire)
            + self.n_fcfs.load(Ordering::Acquire)
            + self.n_bcast.load(Ordering::Acquire)
    }
}

// ---------------------------------------------------------------------
// The carve contract: struct sizes must equal the layout's slot strides,
// and alignments must divide the 64-byte segment alignment `for_config`
// guarantees.  A drifting field breaks the build, not a live region.
// ---------------------------------------------------------------------
const _: () = assert!(std::mem::size_of::<RegionHeader>() == REGION_HEADER_BYTES);
const _: () = assert!(std::mem::align_of::<RegionHeader>() == 8);
const _: () = assert!(std::mem::size_of::<ProcessSlot>() == PROCESS_SLOT_BYTES);
const _: () = assert!(std::mem::align_of::<ProcessSlot>() == 8);
const _: () = assert!(std::mem::size_of::<RegistryEntry>() == REGISTRY_ENTRY_BYTES);
const _: () = assert!(std::mem::align_of::<RegistryEntry>() == 4);
const _: () = assert!(std::mem::size_of::<LnvcDesc>() == LNVC_DESC_BYTES);
const _: () = assert!(std::mem::align_of::<LnvcDesc>() == 8);
const _: () = assert!(std::mem::size_of::<MsgDesc>() == MSG_HEADER_BYTES);
const _: () = assert!(std::mem::align_of::<MsgDesc>() == 8);
const _: () = assert!(std::mem::size_of::<SendDesc>() == SEND_DESC_BYTES);
const _: () = assert!(std::mem::size_of::<RecvDesc>() == RECV_DESC_BYTES);
// Slot strides must preserve each struct's alignment within a segment.
const _: () = assert!(LNVC_DESC_BYTES.is_multiple_of(std::mem::align_of::<LnvcDesc>()));
const _: () = assert!(MSG_HEADER_BYTES.is_multiple_of(std::mem::align_of::<MsgDesc>()));
const _: () = assert!(REGISTRY_ENTRY_BYTES.is_multiple_of(std::mem::align_of::<RegistryEntry>()));
const _: () = assert!(PROCESS_SLOT_BYTES.is_multiple_of(std::mem::align_of::<ProcessSlot>()));

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_entry_name_roundtrip() {
        let e = RegistryEntry {
            name: Default::default(),
            used: AtomicU32::new(0),
            lnvc: AtomicU32::new(0),
        };
        e.set_name(b"conversation:pivot");
        let got = e.get_name();
        assert_eq!(&got[..18], b"conversation:pivot");
        assert!(got[18..].iter().all(|&b| b == 0));
    }
}
