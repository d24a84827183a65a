//! mpf-serve: a request-reply **service layer** over MPF conversations,
//! plus the soak/chaos harness that beats on it (`mpf-soak`).
//!
//! The facilities below this crate move bytes between named LNVCs; this
//! crate adds the first *service* shape on top of them:
//!
//! * a [`Server`] that anchors one service — a shared FCFS request
//!   queue, a BROADCAST control plane (pause / resume / drain /
//!   shutdown), and an ack channel tracking the worker pool;
//! * [`run_worker`] — the pull-serve-reply loop, batch-draining the
//!   request queue and replying on each client's private queue;
//! * a [`Client`] with timeout/retry, duplicate suppression, and
//!   `PeerDied`-aware failover.
//!
//! Everything is written against the [`Transport`] seam, whose one
//! implementation calls the engine's deadline-bounded waits on an engine
//! view — a process's handle on a named region ([`IpcTransport`]) or a
//! logical process of an in-process `Mpf` ([`ThreadTransport`]; the same
//! type, two names).  Blocking is the engine's job: a participant sleeps
//! on its process doorbell itself, so the code `mpf-check` explores is
//! the code that ships.
//!
//! ## Delivery contract
//!
//! At-least-once with client-side de-duplication: a call is retried
//! under the same serial until a matching reply arrives, so handlers
//! must tolerate re-execution; clients never surface a duplicate reply.
//! Crash recovery is by **epoch**: a SIGKILLed participant poisons the
//! conversations it touched (poison is sticky), so the server retires
//! the epoch wholesale and re-anchors under fresh names; workers and
//! clients rediscover the service by name probing.  See the module docs
//! of [`server`], [`worker`], [`client`], and [`wire`] for the detailed
//! rationale.

pub mod client;
pub mod server;
pub mod soak;
pub mod transport;
pub mod wire;
pub mod worker;

pub use client::{Client, ClientCfg, ClientStats};
pub use server::{
    discover_epoch, scan_epoch, DrainReport, Server, ServerStats, ShutdownReport, WorkerEntry,
};
pub use transport::ViewTransport as IpcTransport;
pub use transport::ViewTransport as ThreadTransport;
pub use transport::{is_failover, Transport};
pub use worker::{run_worker, WorkerCfg, WorkerStats};

use mpf::MpfError;

/// Service-layer errors: either the facility failed in a way the
/// layer's retry/failover machinery does not absorb, or the layer's own
/// budgets ran out.
#[derive(Debug)]
pub enum ServeError {
    /// A non-recoverable facility error.
    Mpf(MpfError),
    /// The retry budget ran out without a reply.
    TimedOut,
    /// The call's total wall-clock budget ([`ClientCfg::call_budget`])
    /// expired — across however many retries, failovers, and epoch
    /// rediscoveries were under way.  Distinct from
    /// [`ServeError::TimedOut`] (attempt *count* exhausted): this is the
    /// bound that holds even when every attempt keeps finding new ways
    /// to fail over.
    DeadlineExceeded,
    /// No live epoch of the service was found within the discovery
    /// budget (server not started, or gone for good).
    Unavailable,
}

impl From<MpfError> for ServeError {
    fn from(e: MpfError) -> Self {
        ServeError::Mpf(e)
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Mpf(e) => write!(f, "facility error: {e}"),
            ServeError::TimedOut => write!(f, "call timed out (retry budget exhausted)"),
            ServeError::DeadlineExceeded => {
                write!(f, "call deadline exceeded (total wall-clock budget)")
            }
            ServeError::Unavailable => write!(f, "service unavailable (no live epoch found)"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Mpf(e) => Some(e),
            _ => None,
        }
    }
}

/// Result alias for service-layer operations.
pub type ServeResult<V> = std::result::Result<V, ServeError>;
