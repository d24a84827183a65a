//! The async wrapper over an engine view.
//!
//! [`AsyncIpc`] wraps one `IpcMpf` — a process's handle on a named region,
//! or one logical process's view of an `mpf::Mpf` ([`AsyncMpf::new`]) —
//! and hands out three futures, [`RecvFuture`], [`SendFuture`] and
//! [`SelectAny`].  From its first pending future on it owns one
//! [`Reactor`] thread that multiplexes every pending future in one
//! notified wait (see the reactor module for the lost-wakeup-free ticket
//! protocol); a facade whose operations all complete on their first poll —
//! or that is only used through [`AsyncIpc::facility`] — never starts it.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use mpf::{IpcMpf, LnvcId, Mpf, MpfError, ProcessId, Result};

use crate::reactor::{Interest, Reactor};

// ----------------------------------------------------------------------
// Reactor lifetime
// ----------------------------------------------------------------------

/// Dropping the last clone of a facility stops and joins its reactor
/// thread (pending futures hold the reactor itself, not this).
struct Driver {
    reactor: Arc<Reactor>,
}

impl Drop for Driver {
    fn drop(&mut self) {
        self.reactor.stop();
    }
}

// ----------------------------------------------------------------------
// Futures
// ----------------------------------------------------------------------

/// Resolves to the next message on one conversation.
pub struct RecvFuture {
    interest: Interest,
    id: LnvcId,
}

impl Future for RecvFuture {
    type Output = Result<Vec<u8>>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        this.interest.retire();
        let ipc = &this.interest.reactor.ipc;
        // Ticket before the try: traffic landing in between has already
        // moved the sequence, so the reactor fires us on its next scan.
        let ticket = match ipc.recv_signal_ticket(this.id) {
            Ok(t) => t,
            Err(e) => return Poll::Ready(Err(e)),
        };
        match ipc.try_message_receive_vec(this.id) {
            Ok(Some(msg)) => Poll::Ready(Ok(msg)),
            Ok(None) => {
                this.interest.recv(&[(this.id, ticket)], cx.waker());
                Poll::Pending
            }
            Err(e) => Poll::Ready(Err(e)),
        }
    }
}

/// Resolves when the owned payload has been enqueued on the
/// conversation; pends (with flow control) while the region's message
/// or block pool is exhausted.
pub struct SendFuture {
    interest: Interest,
    id: LnvcId,
    payload: Vec<u8>,
    /// Whether this future is registered for the pool signal
    /// (`IpcMpf::pool_wait_begin`), which fires only while somebody is.
    mem_waiting: bool,
}

impl Future for SendFuture {
    type Output = Result<()>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        this.interest.retire();
        let ipc = &this.interest.reactor.ipc;
        loop {
            let ticket = ipc.mem_signal_ticket();
            match ipc.try_message_send(this.id, &this.payload) {
                Ok(false) if !this.mem_waiting => {
                    // First exhaustion: register for the memory signal,
                    // then go round again — capacity freed before the
                    // registration is found by the retry, capacity freed
                    // after it moves the ticket taken on the way in.
                    ipc.pool_wait_begin();
                    this.mem_waiting = true;
                }
                Ok(false) => {
                    this.interest.send(ticket, cx.waker());
                    return Poll::Pending;
                }
                // Sent or failed; the registration goes with the future.
                done => return Poll::Ready(done.map(|_| ())),
            }
        }
    }
}

impl Drop for SendFuture {
    fn drop(&mut self) {
        if self.mem_waiting {
            self.interest.reactor.ipc.pool_wait_end();
        }
    }
}

/// A future bounded by a wall-clock deadline: resolves to the inner
/// result if it completes first, or [`MpfError::TimedOut`] once the
/// deadline passes.  Built by the `.deadline(at)` combinator on
/// [`RecvFuture`], [`SendFuture`] and [`SelectAny`]; the reactor holds
/// the expiry as a timer registration, so the wake needs no extra
/// thread and no polling executor — plain [`crate::block_on`] works.
///
/// The inner future is polled *before* the clock check, so a completion
/// racing the deadline resolves, not times out.
pub struct Deadline<F> {
    interest: Interest,
    inner: F,
    at: Instant,
}

impl<T, F> Future for Deadline<F>
where
    F: Future<Output = Result<T>> + Unpin,
{
    type Output = Result<T>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        this.interest.retire();
        match Pin::new(&mut this.inner).poll(cx) {
            Poll::Ready(r) => Poll::Ready(r),
            Poll::Pending => {
                if Instant::now() >= this.at {
                    return Poll::Ready(Err(MpfError::TimedOut));
                }
                this.interest.timer(this.at, cx.waker());
                Poll::Pending
            }
        }
    }
}

macro_rules! deadline_combinator {
    ($future:ident) => {
        impl $future {
            /// Bounds this future by a wall-clock deadline
            /// ([`MpfError::TimedOut`] once it passes).
            pub fn deadline(self, at: Instant) -> Deadline<Self> {
                Deadline {
                    interest: Interest::new(Arc::clone(&self.interest.reactor)),
                    inner: self,
                    at,
                }
            }

            /// [`deadline`](Self::deadline) with a relative timeout.
            pub fn timeout(self, after: Duration) -> Deadline<Self> {
                self.deadline(Instant::now() + after)
            }
        }
    };
}

deadline_combinator!(RecvFuture);
deadline_combinator!(SendFuture);
deadline_combinator!(SelectAny);

/// Resolves to `(conversation, message)` for whichever registered
/// conversation delivers first.
pub struct SelectAny {
    interest: Interest,
    ids: Vec<LnvcId>,
}

impl Future for SelectAny {
    type Output = Result<(LnvcId, Vec<u8>)>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        this.interest.retire();
        let ipc = &this.interest.reactor.ipc;
        // All tickets first, then all tries: a message arriving at any
        // conversation after its ticket was sampled re-wakes us.
        let mut signals = Vec::with_capacity(this.ids.len());
        for &id in &this.ids {
            match ipc.recv_signal_ticket(id) {
                Ok(t) => signals.push((id, t)),
                Err(e) => return Poll::Ready(Err(e)),
            }
        }
        for &id in &this.ids {
            match ipc.try_message_receive_vec(id) {
                Ok(Some(msg)) => return Poll::Ready(Ok((id, msg))),
                Ok(None) => {}
                Err(e) => return Poll::Ready(Err(e)),
            }
        }
        this.interest.recv(&signals, cx.waker());
        Poll::Pending
    }
}

// ----------------------------------------------------------------------
// Public facade
// ----------------------------------------------------------------------

/// Async facade over one engine view.  Clones share the reactor.
#[derive(Clone)]
pub struct AsyncIpc {
    ipc: Arc<IpcMpf>,
    driver: Arc<Driver>,
}

impl AsyncIpc {
    /// Wraps a region view.  Spawns nothing: the reactor thread starts
    /// when a future first returns `Pending`.
    pub fn new(ipc: Arc<IpcMpf>) -> Self {
        let reactor = Reactor::new(Arc::clone(&ipc));
        AsyncIpc {
            ipc,
            driver: Arc::new(Driver { reactor }),
        }
    }

    /// The wrapped region view: connections are opened and closed on it,
    /// like every other synchronous primitive.
    pub fn facility(&self) -> &Arc<IpcMpf> {
        &self.ipc
    }

    /// Receives the next message on `id`.
    pub fn recv(&self, id: LnvcId) -> RecvFuture {
        RecvFuture {
            interest: Interest::new(Arc::clone(&self.driver.reactor)),
            id,
        }
    }

    /// Sends `payload` on `id`, pending while the region is full.
    pub fn send(&self, id: LnvcId, payload: Vec<u8>) -> SendFuture {
        SendFuture {
            interest: Interest::new(Arc::clone(&self.driver.reactor)),
            id,
            payload,
            mem_waiting: false,
        }
    }

    /// Receives from whichever of `ids` delivers first.
    pub fn select_any(&self, ids: &[LnvcId]) -> SelectAny {
        assert!(
            !ids.is_empty(),
            "select_any needs at least one conversation"
        );
        SelectAny {
            interest: Interest::new(Arc::clone(&self.driver.reactor)),
            ids: ids.to_vec(),
        }
    }
}

/// The in-process spelling of [`AsyncIpc::new`]: a logical process of an
/// [`Mpf`] *is* an engine view, so its async facade is an [`AsyncIpc`].
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_on;
    use mpf::{MpfConfig, Protocol};

    /// A long-lived service's shape: every round a `select_any` over a
    /// busy and a quiet conversation pends once, then completes on the
    /// busy one.  The quiet conversation's registration and the unexpired
    /// timer must go with the future, not pile up in the reactor.
    #[test]
    fn completed_futures_leave_no_registrations_behind() {
        let m = Arc::new(Mpf::init(MpfConfig::new(8, 4)).unwrap());
        let a = AsyncMpf::new(m, ProcessId::from_index(0));
        let tx = a.facility().open_send("busy").unwrap();
        let busy = a.facility().open_receive("busy", Protocol::Fcfs).unwrap();
        let quiet = a.facility().open_receive("quiet", Protocol::Fcfs).unwrap();
        for round in 0..10_000u32 {
            let mut fut = a
                .select_any(&[busy, quiet])
                .timeout(Duration::from_secs(60));
            block_on(std::future::poll_fn(|cx| {
                assert!(Pin::new(&mut fut).poll(cx).is_pending());
                Poll::Ready(())
            }));
            let (recv, _, timers) = a.driver.reactor.registrations();
            assert_eq!((recv, timers), (2, 1), "round {round}: one future pending");
            a.facility().message_send(tx, &round.to_le_bytes()).unwrap();
            let (id, msg) = block_on(fut).unwrap();
            assert_eq!((id, msg), (busy, round.to_le_bytes().to_vec()));
        }
        assert_eq!(a.driver.reactor.registrations(), (0, 0, 0));
    }
}
