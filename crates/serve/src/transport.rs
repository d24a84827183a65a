//! The transport seam: one trait the server, workers, and clients speak,
//! with the production implementation and a deterministic fake.
//!
//! * [`ViewTransport`] — the production shape: wraps
//!   [`mpf_aio::AsyncIpc`], driving its futures with
//!   [`mpf_aio::block_on_deadline`] so every blocking operation is
//!   timeout-capable (the reactor multiplexes the actual waiting).  The
//!   crate exports it under two names: `IpcTransport` for a process's
//!   handle on a named region, `ThreadTransport` for a logical process of
//!   an in-process `Mpf` (`AsyncMpf::new`) — unit tests and the threads
//!   soak variant.
//! * [`SyncTransport`] — a deliberately timeout-free synchronous shape
//!   over `mpf::Mpf`'s blocking primitives, for `mpf-check` schedule
//!   exploration: every block goes through the hooked waitqs the
//!   cooperative scheduler models, and no reactor thread or wall clock
//!   is involved.
//!
//! Deadline semantics: `None` means block indefinitely.  A transport
//! that cannot honor deadlines ([`SyncTransport`]) treats every deadline
//! as `None`; callers built for determinism pass `None` anyway.

use std::fmt::Debug;
use std::sync::Arc;
use std::time::Instant;

use mpf::{IpcLnvcId, LnvcId, Mpf, MpfError, ProcessId, Protocol, Result};
use mpf_aio::{block_on, block_on_deadline, AsyncIpc};

/// What the service layer needs from a backend.
pub trait Transport: Send + Sync + 'static {
    /// Conversation handle.
    type Id: Copy + PartialEq + Eq + Debug + Send + Sync + 'static;

    fn open_send(&self, name: &str) -> Result<Self::Id>;
    fn open_receive(&self, name: &str, protocol: Protocol) -> Result<Self::Id>;
    fn close_send(&self, id: Self::Id) -> Result<()>;
    fn close_receive(&self, id: Self::Id) -> Result<()>;

    /// Sends, blocking under region exhaustion until `deadline`.
    /// `Ok(false)` means the deadline passed with the message **not**
    /// enqueued (safe to retry or drop).
    fn send_deadline(
        &self,
        id: Self::Id,
        payload: &[u8],
        deadline: Option<Instant>,
    ) -> Result<bool>;

    /// Receives, blocking until `deadline`; `Ok(None)` on timeout.
    fn recv_deadline(&self, id: Self::Id, deadline: Option<Instant>) -> Result<Option<Vec<u8>>>;

    /// Receives from whichever of `ids` delivers first; `Ok(None)` on
    /// timeout.
    fn recv_any_deadline(
        &self,
        ids: &[Self::Id],
        deadline: Option<Instant>,
    ) -> Result<Option<(Self::Id, Vec<u8>)>>;

    /// Non-blocking receive.
    fn try_recv(&self, id: Self::Id) -> Result<Option<Vec<u8>>>;

    /// Non-blocking batched receive (drains up to `max` under one lock
    /// hold where the backend supports it).
    fn try_recv_batch(&self, id: Self::Id, max: usize) -> Result<Vec<Vec<u8>>>;

    /// Whether a conversation with this name exists right now (a racy
    /// hint; used for epoch discovery without the create-on-open side
    /// effect).
    fn lnvc_exists(&self, name: &str) -> bool;

    /// Current queue depth (racy hint; drain residual check).
    fn queue_depth(&self, id: Self::Id) -> Result<u32>;

    /// Whether the conversation is poisoned by a dead peer — or gone
    /// entirely, which calls for the same re-anchor reaction.
    fn is_poisoned(&self, id: Self::Id) -> bool;

    /// Looks for dead peers, poisoning what they touched; returns how
    /// many corpses were found.
    fn sweep_dead(&self) -> u32;
}

// ----------------------------------------------------------------------
// The production transport
// ----------------------------------------------------------------------

/// Production transport: [`AsyncIpc`] futures driven to completion (or
/// deadline) on the calling thread.
pub struct ViewTransport(pub AsyncIpc);

impl Transport for ViewTransport {
    type Id = IpcLnvcId;

    fn open_send(&self, name: &str) -> Result<IpcLnvcId> {
        self.0.open_send(name)
    }

    fn open_receive(&self, name: &str, protocol: Protocol) -> Result<IpcLnvcId> {
        self.0.open_receive(name, protocol)
    }

    fn close_send(&self, id: IpcLnvcId) -> Result<()> {
        self.0.close_send(id)
    }

    fn close_receive(&self, id: IpcLnvcId) -> Result<()> {
        self.0.close_receive(id)
    }

    fn send_deadline(
        &self,
        id: IpcLnvcId,
        payload: &[u8],
        deadline: Option<Instant>,
    ) -> Result<bool> {
        match deadline {
            None => block_on(self.0.send(id, payload.to_vec())).map(|()| true),
            Some(dl) => match block_on_deadline(self.0.send(id, payload.to_vec()), dl) {
                Some(r) => r.map(|()| true),
                None => Ok(false),
            },
        }
    }

    fn recv_deadline(&self, id: IpcLnvcId, deadline: Option<Instant>) -> Result<Option<Vec<u8>>> {
        match deadline {
            None => block_on(self.0.recv(id)).map(Some),
            Some(dl) => block_on_deadline(self.0.recv(id), dl).transpose(),
        }
    }

    fn recv_any_deadline(
        &self,
        ids: &[IpcLnvcId],
        deadline: Option<Instant>,
    ) -> Result<Option<(IpcLnvcId, Vec<u8>)>> {
        match deadline {
            None => block_on(self.0.select_any(ids)).map(Some),
            Some(dl) => block_on_deadline(self.0.select_any(ids), dl).transpose(),
        }
    }

    fn try_recv(&self, id: IpcLnvcId) -> Result<Option<Vec<u8>>> {
        self.0.facility().try_message_receive_vec(id)
    }

    fn try_recv_batch(&self, id: IpcLnvcId, max: usize) -> Result<Vec<Vec<u8>>> {
        self.0.facility().try_recv_batch(id, max)
    }

    fn lnvc_exists(&self, name: &str) -> bool {
        self.0.facility().lnvc_exists(name)
    }

    fn queue_depth(&self, id: IpcLnvcId) -> Result<u32> {
        self.0.facility().queue_depth(id)
    }

    fn is_poisoned(&self, id: IpcLnvcId) -> bool {
        // UnknownLnvc means the conversation vanished under us — the
        // reaction (re-anchor) is the same as for poison.
        self.0.facility().lnvc_poisoned(id).unwrap_or(true)
    }

    fn sweep_dead(&self) -> u32 {
        self.0.facility().sweep_dead_peers()
    }
}

// ----------------------------------------------------------------------
// Synchronous (deterministic) transport
// ----------------------------------------------------------------------

/// Timeout-free synchronous transport over `Mpf`'s blocking primitives,
/// for `mpf-check` scenarios.  Deadlines are ignored — every wait parks on
/// the hooked futex words the cooperative scheduler controls, and nothing
/// here spawns a thread.  Nobody dies in those scenarios, so the dead-peer
/// probes answer "no".
pub struct SyncTransport {
    pub mpf: Arc<Mpf>,
    pub pid: ProcessId,
}

impl Transport for SyncTransport {
    type Id = LnvcId;

    fn open_send(&self, name: &str) -> Result<LnvcId> {
        self.mpf.open_send(self.pid, name)
    }

    fn open_receive(&self, name: &str, protocol: Protocol) -> Result<LnvcId> {
        self.mpf.open_receive(self.pid, name, protocol)
    }

    fn close_send(&self, id: LnvcId) -> Result<()> {
        self.mpf.close_send(self.pid, id)
    }

    fn close_receive(&self, id: LnvcId) -> Result<()> {
        self.mpf.close_receive(self.pid, id)
    }

    fn send_deadline(
        &self,
        id: LnvcId,
        payload: &[u8],
        _deadline: Option<Instant>,
    ) -> Result<bool> {
        self.mpf.message_send(self.pid, id, payload).map(|()| true)
    }

    fn recv_deadline(&self, id: LnvcId, _deadline: Option<Instant>) -> Result<Option<Vec<u8>>> {
        self.mpf.message_receive_vec(self.pid, id).map(Some)
    }

    fn recv_any_deadline(
        &self,
        ids: &[LnvcId],
        _deadline: Option<Instant>,
    ) -> Result<Option<(LnvcId, Vec<u8>)>> {
        // `wait_any` names a conversation with a pending message, but an
        // FCFS rival may take it between the wait and our try — loop.
        loop {
            let ready = self.mpf.wait_any(self.pid, ids)?;
            match self.mpf.try_message_receive_vec(self.pid, ready)? {
                Some(msg) => return Ok(Some((ready, msg))),
                None => continue,
            }
        }
    }

    fn try_recv(&self, id: LnvcId) -> Result<Option<Vec<u8>>> {
        self.mpf.try_message_receive_vec(self.pid, id)
    }

    fn try_recv_batch(&self, id: LnvcId, max: usize) -> Result<Vec<Vec<u8>>> {
        self.mpf.try_recv_batch(self.pid, id, max)
    }

    fn lnvc_exists(&self, name: &str) -> bool {
        self.mpf.lnvc_exists(name)
    }

    fn queue_depth(&self, id: LnvcId) -> Result<u32> {
        self.mpf.queue_depth(id)
    }

    fn is_poisoned(&self, _id: LnvcId) -> bool {
        false
    }

    fn sweep_dead(&self) -> u32 {
        0
    }
}

/// Maps a transport error to "is this the service-is-gone class" —
/// poison or a vanished conversation, both cured by re-anchoring.
pub fn is_failover(e: &MpfError) -> bool {
    matches!(e, MpfError::PeerDied { .. } | MpfError::UnknownLnvc)
}
