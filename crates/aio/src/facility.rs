//! Async wrappers over the two MPF backends.
//!
//! [`AsyncMpf`] wraps the in-process facility (`mpf::Mpf`), [`AsyncIpc`]
//! the multi-process one (`mpf_ipc::IpcMpf`).  Both hand out the same
//! three futures — [`RecvFuture`], [`SendFuture`], [`SelectAny`] — and
//! own one [`Reactor`] thread that multiplexes every pending future in
//! one notified wait (see the reactor module for the lost-wakeup-free
//! ticket protocol).

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mpf::{LnvcId, Mpf, MpfError, ProcessId, Protocol, Result};
use mpf_ipc::{IpcLnvcId, IpcMpf};
use mpf_shm::waitq::WaitQueue;

use crate::reactor::{Backend, Interest, Reactor};

// ----------------------------------------------------------------------
// Backends
// ----------------------------------------------------------------------

/// In-process (thread) backend: signals are heap wait queues, so the
/// reactor's wait is a single `wait_many` over every registered
/// conversation plus the memory queue plus its own wake channel.
pub struct ThreadBackend {
    mpf: Arc<Mpf>,
    pid: ProcessId,
}

impl Backend for ThreadBackend {
    type Id = LnvcId;

    fn try_recv(&self, id: LnvcId) -> Result<Option<Vec<u8>>> {
        self.mpf.try_message_receive_vec(self.pid, id)
    }

    fn try_send(&self, id: LnvcId, payload: &[u8]) -> Result<bool> {
        self.mpf.try_message_send(self.pid, id, payload)
    }

    fn recv_ticket(&self, id: LnvcId) -> Result<u32> {
        self.mpf.recv_signal_ticket(id)
    }

    fn mem_ticket(&self) -> u32 {
        self.mpf.mem_signal_ticket()
    }

    fn wait(
        &self,
        recv: &[(LnvcId, u32)],
        mem: Option<u32>,
        wake: (&WaitQueue, u32),
        until: Option<Instant>,
    ) {
        self.mpf.wait_signals_deadline(recv, mem, Some(wake), until);
    }
}

/// Multi-process backend: every signal the reactor waits for arrives on
/// one in-region word, this process's doorbell.  `IpcMpf::wait_signals`
/// watches the registered conversations, so an enqueue or poison on any
/// of them rings it; a reclaim rings it while a send future is registered
/// for the pool signal; the reactor's own wake queue is followed by a
/// [`Backend::kick`].  The only timer is the dead-peer sweep cadence.
pub struct IpcBackend {
    ipc: Arc<IpcMpf>,
}

impl Backend for IpcBackend {
    type Id = IpcLnvcId;

    fn try_recv(&self, id: IpcLnvcId) -> Result<Option<Vec<u8>>> {
        self.ipc.try_message_receive_vec(id)
    }

    fn try_send(&self, id: IpcLnvcId, payload: &[u8]) -> Result<bool> {
        self.ipc.try_message_send(id, payload)
    }

    fn recv_ticket(&self, id: IpcLnvcId) -> Result<u32> {
        self.ipc.recv_signal_ticket(id)
    }

    fn mem_ticket(&self) -> u32 {
        self.ipc.mem_signal_ticket()
    }

    fn mem_wait(&self, begin: bool) {
        if begin {
            self.ipc.pool_wait_begin();
        } else {
            self.ipc.pool_wait_end();
        }
    }

    fn wait(
        &self,
        recv: &[(IpcLnvcId, u32)],
        mem: Option<u32>,
        wake: (&WaitQueue, u32),
        until: Option<Instant>,
    ) {
        self.ipc
            .wait_signals(recv, mem, &|| wake.0.ticket() != wake.1, until);
    }

    fn kick(&self) {
        self.ipc.ring_doorbell();
    }
}

// ----------------------------------------------------------------------
// Reactor lifetime
// ----------------------------------------------------------------------

/// Owns the reactor thread; dropping the last clone of a facility stops
/// and joins it.
struct Driver<B: Backend> {
    reactor: Arc<Reactor<B>>,
    thread: Option<JoinHandle<()>>,
}

impl<B: Backend> Driver<B> {
    fn start(backend: Arc<B>) -> Self {
        let (reactor, thread) = Reactor::start(backend);
        Driver {
            reactor,
            thread: Some(thread),
        }
    }
}

impl<B: Backend> Drop for Driver<B> {
    fn drop(&mut self) {
        self.reactor.stop();
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

// ----------------------------------------------------------------------
// Futures
// ----------------------------------------------------------------------

/// Resolves to the next message on one conversation.
pub struct RecvFuture<B: Backend> {
    interest: Interest<B>,
    id: B::Id,
}

impl<B: Backend> Future for RecvFuture<B> {
    type Output = Result<Vec<u8>>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        this.interest.retire();
        let backend = &this.interest.reactor.backend;
        // Ticket before the try: traffic landing in between has already
        // moved the sequence, so the reactor fires us on its next scan.
        let ticket = match backend.recv_ticket(this.id) {
            Ok(t) => t,
            Err(e) => return Poll::Ready(Err(e)),
        };
        match backend.try_recv(this.id) {
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
pub struct SendFuture<B: Backend> {
    interest: Interest<B>,
    id: B::Id,
    payload: Vec<u8>,
    /// Whether this future holds a [`Backend::mem_wait`] registration.
    mem_waiting: bool,
}

impl<B: Backend> Future for SendFuture<B> {
    type Output = Result<()>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        this.interest.retire();
        let backend = &this.interest.reactor.backend;
        loop {
            let ticket = backend.mem_ticket();
            match backend.try_send(this.id, &this.payload) {
                Ok(false) if !this.mem_waiting => {
                    // First exhaustion: register for the memory signal,
                    // then go round again — capacity freed before the
                    // registration is found by the retry, capacity freed
                    // after it moves the ticket taken on the way in.
                    backend.mem_wait(true);
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

impl<B: Backend> Drop for SendFuture<B> {
    fn drop(&mut self) {
        if self.mem_waiting {
            self.interest.reactor.backend.mem_wait(false);
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
pub struct Deadline<B: Backend, F> {
    interest: Interest<B>,
    inner: F,
    at: Instant,
}

impl<B: Backend, T, F> Future for Deadline<B, F>
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
        impl<B: Backend> $future<B> {
            /// Bounds this future by a wall-clock deadline
            /// ([`MpfError::TimedOut`] once it passes).
            pub fn deadline(self, at: Instant) -> Deadline<B, Self> {
                Deadline {
                    interest: Interest::new(Arc::clone(&self.interest.reactor)),
                    inner: self,
                    at,
                }
            }

            /// [`deadline`](Self::deadline) with a relative timeout.
            pub fn timeout(self, after: Duration) -> Deadline<B, Self> {
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
pub struct SelectAny<B: Backend> {
    interest: Interest<B>,
    ids: Vec<B::Id>,
}

impl<B: Backend> Future for SelectAny<B> {
    type Output = Result<(B::Id, Vec<u8>)>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        this.interest.retire();
        let backend = &this.interest.reactor.backend;
        // All tickets first, then all tries: a message arriving at any
        // conversation after its ticket was sampled re-wakes us.
        let mut signals = Vec::with_capacity(this.ids.len());
        for &id in &this.ids {
            match backend.recv_ticket(id) {
                Ok(t) => signals.push((id, t)),
                Err(e) => return Poll::Ready(Err(e)),
            }
        }
        for &id in &this.ids {
            match backend.try_recv(id) {
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
// Public facades
// ----------------------------------------------------------------------

macro_rules! future_ctors {
    ($backend:ty, $id:ty) => {
        /// Receives the next message on `id`.
        pub fn recv(&self, id: $id) -> RecvFuture<$backend> {
            RecvFuture {
                interest: Interest::new(Arc::clone(&self.driver.reactor)),
                id,
            }
        }

        /// Sends `payload` on `id`, pending while the region is full.
        pub fn send(&self, id: $id, payload: Vec<u8>) -> SendFuture<$backend> {
            SendFuture {
                interest: Interest::new(Arc::clone(&self.driver.reactor)),
                id,
                payload,
                mem_waiting: false,
            }
        }

        /// Receives from whichever of `ids` delivers first.
        pub fn select_any(&self, ids: &[$id]) -> SelectAny<$backend> {
            assert!(
                !ids.is_empty(),
                "select_any needs at least one conversation"
            );
            SelectAny {
                interest: Interest::new(Arc::clone(&self.driver.reactor)),
                ids: ids.to_vec(),
            }
        }
    };
}

/// Async facade over the in-process facility, bound to one logical
/// process.  Clones share the reactor thread.
#[derive(Clone)]
pub struct AsyncMpf {
    mpf: Arc<Mpf>,
    pid: ProcessId,
    driver: Arc<Driver<ThreadBackend>>,
}

impl AsyncMpf {
    /// Wraps `mpf` for logical process `pid`, starting the reactor.
    pub fn new(mpf: Arc<Mpf>, pid: ProcessId) -> Self {
        let backend = Arc::new(ThreadBackend {
            mpf: Arc::clone(&mpf),
            pid,
        });
        AsyncMpf {
            mpf,
            pid,
            driver: Arc::new(Driver::start(backend)),
        }
    }

    /// The wrapped facility, for the sync primitives.
    pub fn facility(&self) -> &Arc<Mpf> {
        &self.mpf
    }

    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    pub fn open_send(&self, name: &str) -> Result<LnvcId> {
        self.mpf.open_send(self.pid, name)
    }

    pub fn open_receive(&self, name: &str, protocol: Protocol) -> Result<LnvcId> {
        self.mpf.open_receive(self.pid, name, protocol)
    }

    pub fn close_send(&self, id: LnvcId) -> Result<()> {
        self.mpf.close_send(self.pid, id)
    }

    pub fn close_receive(&self, id: LnvcId) -> Result<()> {
        self.mpf.close_receive(self.pid, id)
    }

    future_ctors!(ThreadBackend, LnvcId);
}

/// Async facade over the multi-process facility.  Clones share the
/// reactor thread.
#[derive(Clone)]
pub struct AsyncIpc {
    ipc: Arc<IpcMpf>,
    driver: Arc<Driver<IpcBackend>>,
}

impl AsyncIpc {
    /// Wraps an attached region view, starting the reactor.
    pub fn new(ipc: Arc<IpcMpf>) -> Self {
        let backend = Arc::new(IpcBackend {
            ipc: Arc::clone(&ipc),
        });
        AsyncIpc {
            ipc,
            driver: Arc::new(Driver::start(backend)),
        }
    }

    /// The wrapped region view, for the sync primitives.
    pub fn facility(&self) -> &Arc<IpcMpf> {
        &self.ipc
    }

    pub fn open_send(&self, name: &str) -> Result<IpcLnvcId> {
        self.ipc.open_send(name)
    }

    pub fn open_receive(&self, name: &str, protocol: Protocol) -> Result<IpcLnvcId> {
        self.ipc.open_receive(name, protocol)
    }

    pub fn close_send(&self, id: IpcLnvcId) -> Result<()> {
        self.ipc.close_send(id)
    }

    pub fn close_receive(&self, id: IpcLnvcId) -> Result<()> {
        self.ipc.close_receive(id)
    }

    future_ctors!(IpcBackend, IpcLnvcId);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_on;
    use mpf::MpfConfig;

    /// A long-lived service's shape: every round a `select_any` over a
    /// busy and a quiet conversation pends once, then completes on the
    /// busy one.  The quiet conversation's registration and the unexpired
    /// timer must go with the future, not pile up in the reactor.
    #[test]
    fn completed_futures_leave_no_registrations_behind() {
        let m = Arc::new(Mpf::init(MpfConfig::new(8, 4)).unwrap());
        let pid = ProcessId::from_index(0);
        let a = AsyncMpf::new(Arc::clone(&m), pid);
        let tx = a.open_send("busy").unwrap();
        let busy = a.open_receive("busy", Protocol::Fcfs).unwrap();
        let quiet = a.open_receive("quiet", Protocol::Fcfs).unwrap();
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
            m.message_send(pid, tx, &round.to_le_bytes()).unwrap();
            let (id, msg) = block_on(fut).unwrap();
            assert_eq!((id, msg), (busy, round.to_le_bytes().to_vec()));
        }
        assert_eq!(a.driver.reactor.registrations(), (0, 0, 0));
    }
}
