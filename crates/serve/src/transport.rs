//! The transport seam: what the server, workers, and clients ask of the
//! facility, and the one implementation of it.
//!
//! [`ViewTransport`] calls the engine's deadline-bounded waits on the
//! calling thread: a participant blocked in `recv_deadline`, in
//! `recv_any_deadline` or in a `send_deadline` under pool exhaustion
//! sleeps on its process doorbell — the paper's `message_receive`
//! blocking the calling process, with a bound.  No second thread does the waiting, so `mpf-check` schedules
//! exactly the code that ships.  [`ViewTransport::new`] takes any view: a
//! process's handle on a named region, or `Mpf::view(pid)` for a logical
//! process of an in-process `Mpf`.  The crate exports the type under two
//! names, `IpcTransport` and `ThreadTransport`.
//!
//! Deadline semantics: `None` means block indefinitely; expiry is
//! `Ok(false)` / `Ok(None)`, never an error.

use std::fmt::Debug;
use std::sync::Arc;
use std::time::Instant;

use mpf::{IpcMpf, LnvcId, MpfError, Protocol, Result};
use mpf_aio::AsyncIpc;

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

/// The transport: an engine view's own blocking calls.  The field is an
/// [`AsyncIpc`], which only holds the view, because the repo benchmark
/// still builds the tuple; everything else calls [`ViewTransport::new`].
pub struct ViewTransport(pub AsyncIpc);

impl ViewTransport {
    /// The transport over one engine view.
    pub fn new(ipc: Arc<IpcMpf>) -> Self {
        ViewTransport(AsyncIpc::new(ipc))
    }
}

/// `Ok(None)` for a wait that ran out of time.
fn timed<T>(r: Result<T>) -> Result<Option<T>> {
    match r {
        Ok(v) => Ok(Some(v)),
        Err(MpfError::TimedOut) => Ok(None),
        Err(e) => Err(e),
    }
}

impl Transport for ViewTransport {
    type Id = LnvcId;

    fn open_send(&self, name: &str) -> Result<LnvcId> {
        self.0.facility().open_send(name)
    }

    fn open_receive(&self, name: &str, protocol: Protocol) -> Result<LnvcId> {
        self.0.facility().open_receive(name, protocol)
    }

    fn close_send(&self, id: LnvcId) -> Result<()> {
        self.0.facility().close_send(id)
    }

    fn close_receive(&self, id: LnvcId) -> Result<()> {
        self.0.facility().close_receive(id)
    }

    fn send_deadline(&self, id: LnvcId, payload: &[u8], deadline: Option<Instant>) -> Result<bool> {
        let sent = self.0.facility().send_deadline(id, payload, deadline);
        Ok(timed(sent)?.is_some())
    }

    fn recv_deadline(&self, id: LnvcId, deadline: Option<Instant>) -> Result<Option<Vec<u8>>> {
        let batch = self.0.facility().recv_batch_deadline(id, 1, deadline);
        Ok(timed(batch)?.and_then(|mut b| b.pop()))
    }

    fn recv_any_deadline(
        &self,
        ids: &[LnvcId],
        deadline: Option<Instant>,
    ) -> Result<Option<(LnvcId, Vec<u8>)>> {
        let ipc = self.0.facility();
        // `wait_any_deadline` names a conversation with a pending message,
        // but an FCFS rival may take it between the wait and our try —
        // wait again.
        loop {
            let Some(ready) = timed(ipc.wait_any_deadline(ids, deadline))? else {
                return Ok(None);
            };
            if let Some(msg) = ipc.try_message_receive_vec(ready)? {
                return Ok(Some((ready, msg)));
            }
        }
    }

    fn try_recv(&self, id: LnvcId) -> Result<Option<Vec<u8>>> {
        self.0.facility().try_message_receive_vec(id)
    }

    fn try_recv_batch(&self, id: LnvcId, max: usize) -> Result<Vec<Vec<u8>>> {
        self.0.facility().try_recv_batch(id, max)
    }

    fn lnvc_exists(&self, name: &str) -> bool {
        self.0.facility().lnvc_exists(name)
    }

    fn queue_depth(&self, id: LnvcId) -> Result<u32> {
        self.0.facility().queue_depth(id)
    }

    fn is_poisoned(&self, id: LnvcId) -> bool {
        // UnknownLnvc means the conversation vanished under us — the
        // reaction (re-anchor) is the same as for poison.
        self.0.facility().lnvc_poisoned(id).unwrap_or(true)
    }

    fn sweep_dead(&self) -> u32 {
        self.0.facility().sweep_dead_peers()
    }
}

/// Maps a transport error to "is this the service-is-gone class" —
/// poison or a vanished conversation, both cured by re-anchoring.
pub fn is_failover(e: &MpfError) -> bool {
    matches!(e, MpfError::PeerDied { .. } | MpfError::UnknownLnvc)
}
