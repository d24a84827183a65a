//! # mpf-aio — the two constructors the repo benchmark spells
//!
//! Waiting has one home, the engine: a receive, a multi-conversation wait
//! and a send under pool exhaustion each sleep on the caller's own thread
//! (`IpcMpf::recv_deadline`, `wait_any_deadline`, `send_deadline`), and
//! batched sends and receives live on the engine view itself
//! (`IpcMpf::send_batch` and friends).  What is left here is an
//! [`AsyncIpc`] that holds one engine view and [`AsyncMpf::new`], which
//! builds one for a logical process of an in-process [`Mpf`].  Both exist
//! only until the harness names `mpf_serve::ViewTransport::new` instead;
//! then this crate goes.

use std::sync::Arc;

use mpf::{IpcMpf, Mpf, ProcessId};

/// One engine view: a process's handle on a named region, or a logical
/// process of an [`Mpf`].
pub struct AsyncIpc(Arc<IpcMpf>);

impl AsyncIpc {
    /// Wraps a view.
    pub fn new(ipc: Arc<IpcMpf>) -> Self {
        AsyncIpc(ipc)
    }

    /// The wrapped view: every primitive is called on it.
    pub fn facility(&self) -> &Arc<IpcMpf> {
        &self.0
    }
}

/// The in-process spelling of [`AsyncIpc::new`].
pub struct AsyncMpf;

impl AsyncMpf {
    /// [`AsyncIpc`] over `mpf`'s view of logical process `pid`.
    ///
    /// # Panics
    /// If `pid` is not one of `mpf`'s `max_processes` processes.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(mpf: Arc<Mpf>, pid: ProcessId) -> AsyncIpc {
        let view = mpf
            .view(pid)
            .expect("pid within the facility's max_processes");
        AsyncIpc::new(Arc::clone(view))
    }
}
