//! The reactor: one thread per async facility whose single waiter
//! multiplexes every registered interest in one notified wait
//! ([`Backend::wait`]: parked on every queue on the thread backend,
//! asleep on the process doorbell on ipc).  The loop is the same for
//! both.
//!
//! ## Lost-wakeup-free protocol
//!
//! A future takes the signal's sequence **ticket before** attempting the
//! non-blocking operation.  If the operation would block it registers
//! `(interest, ticket, waker)` here.  Traffic that lands between the try
//! and the registration has already moved the sequence past the stored
//! ticket, so the reactor's next scan fires the waker immediately
//! instead of sleeping on it.  Registration bumps the reactor's own wake
//! queue (and [`Backend::kick`]s a backend that sleeps elsewhere), and
//! the reactor samples that queue's ticket before each scan — the same
//! protocol one level up — so a registration landing mid-scan cuts the
//! following wait short.
//!
//! Wakes are allowed to be spurious (futures re-poll and re-register);
//! they are never allowed to be lost.
//!
//! ## Registration lifetime
//!
//! Every registration is filed under its future's [`Interest`] key.  A
//! future retires whatever it filed at the start of its next poll — the
//! one that completes it included — and when it is dropped; otherwise
//! each `Pending` poll of a `select_any` would leave the quiet
//! conversations' entries (and an unexpired timer) behind for the
//! reactor to scan forever.  Retiring before re-filing loses no wake:
//! the poll doing it takes fresh tickets before it tries again.

use std::fmt::Debug;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::Waker;
use std::thread::JoinHandle;
use std::time::Instant;

use mpf::Result;
use mpf_shm::waitq::WaitQueue;

/// What the reactor needs from a facility.  Implemented for the thread
/// backend (`mpf::Mpf`) and the multi-process backend
/// (`mpf_ipc::IpcMpf`).
pub trait Backend: Send + Sync + 'static {
    /// Conversation handle (`LnvcId` or `IpcLnvcId`).
    type Id: Copy + PartialEq + Send + Sync + Unpin + Debug + 'static;

    /// Non-blocking receive; `Ok(None)` when nothing is deliverable.
    fn try_recv(&self, id: Self::Id) -> Result<Option<Vec<u8>>>;
    /// Non-blocking send; `Ok(false)` when the region is exhausted and
    /// the caller should retry after capacity frees.
    fn try_send(&self, id: Self::Id, payload: &[u8]) -> Result<bool>;
    /// Current sequence of `id`'s receive signal.
    fn recv_ticket(&self, id: Self::Id) -> Result<u32>;
    /// Current sequence of the sender flow-control (memory) signal.
    fn mem_ticket(&self) -> u32;
    /// Brackets the time a send future spends pending on exhaustion, for
    /// a backend whose memory signal fires only while somebody is
    /// registered for it.  Strictly paired.
    fn mem_wait(&self, _begin: bool) {}
    /// Blocks until any of the signals may have fired: a listed receive
    /// queue moves past its ticket, the memory signal moves past `mem`,
    /// or the reactor's `wake` queue moves past its ticket.  Bounded
    /// waits (returning early with nothing fired) are fine.  `until` is
    /// the earliest registered timer deadline: the wait must return by
    /// then (give or take scheduler latency) so the reactor can fire it.
    fn wait(
        &self,
        recv: &[(Self::Id, u32)],
        mem: Option<u32>,
        wake: (&WaitQueue, u32),
        until: Option<Instant>,
    );
    /// Called after every bump of the reactor's `wake` queue, for a
    /// backend whose [`Backend::wait`] sleeps on a word of its own and
    /// only reads `wake` as a predicate.
    fn kick(&self) {}
}

/// Registrations, each tagged with the key of the [`Interest`] that
/// filed it.
struct State<Id> {
    recv: Vec<(u64, Id, u32, Waker)>,
    send: Vec<(u64, u32, Waker)>,
    /// Deadline registrations from `Deadline`-wrapped futures: fired (and
    /// dropped) once `Instant::now()` passes the stored instant.
    timers: Vec<(u64, Instant, Waker)>,
}

pub(crate) struct Reactor<B: Backend> {
    pub(crate) backend: Arc<B>,
    state: Mutex<State<B::Id>>,
    wake: WaitQueue,
    shutdown: AtomicBool,
    next_key: AtomicU64,
}

/// One future's claim on its reactor (see the module docs).
pub(crate) struct Interest<B: Backend> {
    pub(crate) reactor: Arc<Reactor<B>>,
    key: u64,
    /// Whether anything may still be filed under `key`.
    filed: bool,
}

impl<B: Backend> Interest<B> {
    pub(crate) fn new(reactor: Arc<Reactor<B>>) -> Self {
        let key = reactor.next_key.fetch_add(1, Ordering::Relaxed);
        Interest {
            reactor,
            key,
            filed: false,
        }
    }

    /// Files interest in each listed receive signal moving past its
    /// ticket.
    pub(crate) fn recv(&mut self, signals: &[(B::Id, u32)], waker: &Waker) {
        let key = self.key;
        self.file(|st| {
            st.recv
                .extend(signals.iter().map(|&(id, t)| (key, id, t, waker.clone())))
        });
    }

    /// Files interest in the memory signal moving past `ticket`.
    pub(crate) fn send(&mut self, ticket: u32, waker: &Waker) {
        let key = self.key;
        self.file(|st| st.send.push((key, ticket, waker.clone())));
    }

    /// Files a wake at `at` (a `Deadline` future's expiry).  The wake is
    /// allowed to be late by one scheduler quantum and, like every
    /// reactor wake, allowed to be spurious — the wrapped future
    /// re-checks the clock on poll.
    pub(crate) fn timer(&mut self, at: Instant, waker: &Waker) {
        let key = self.key;
        self.file(|st| st.timers.push((key, at, waker.clone())));
    }

    /// Applies one registration and makes the reactor rescan.
    fn file(&mut self, add: impl FnOnce(&mut State<B::Id>)) {
        self.filed = true;
        let mut st = self.reactor.state.lock().unwrap_or_else(|e| e.into_inner());
        add(&mut st);
        drop(st);
        self.reactor.wake.notify_all();
        self.reactor.backend.kick();
    }

    /// Withdraws everything filed under this interest.
    pub(crate) fn retire(&mut self) {
        if std::mem::take(&mut self.filed) {
            let key = self.key;
            let mut st = self.reactor.state.lock().unwrap_or_else(|e| e.into_inner());
            st.recv.retain(|r| r.0 != key);
            st.send.retain(|r| r.0 != key);
            st.timers.retain(|r| r.0 != key);
        }
    }
}

impl<B: Backend> Drop for Interest<B> {
    fn drop(&mut self) {
        self.retire();
    }
}

impl<B: Backend> Reactor<B> {
    pub(crate) fn start(backend: Arc<B>) -> (Arc<Self>, JoinHandle<()>) {
        let reactor = Arc::new(Reactor {
            backend,
            state: Mutex::new(State {
                recv: Vec::new(),
                send: Vec::new(),
                timers: Vec::new(),
            }),
            wake: WaitQueue::new(),
            shutdown: AtomicBool::new(false),
            next_key: AtomicU64::new(0),
        });
        let r = Arc::clone(&reactor);
        let thread = std::thread::Builder::new()
            .name("mpf-aio-reactor".into())
            .spawn(move || r.run())
            .expect("spawn mpf-aio reactor thread");
        (reactor, thread)
    }

    /// Registrations currently held: `(recv, send, timers)`.
    #[cfg(test)]
    pub(crate) fn registrations(&self) -> (usize, usize, usize) {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        (st.recv.len(), st.send.len(), st.timers.len())
    }

    pub(crate) fn stop(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.wake.notify_all();
        self.backend.kick();
    }

    fn run(&self) {
        while !self.shutdown.load(Ordering::Acquire) {
            // Sampled before the scan so a registration landing mid-scan
            // makes the wait below return immediately.
            let wake_ticket = self.wake.ticket();
            let mut fired: Vec<Waker> = Vec::new();
            let (recv_wait, mem_wait, next_timer) = {
                let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
                st.recv.retain(|(_, id, ticket, waker)| {
                    match self.backend.recv_ticket(*id) {
                        Ok(cur) if cur == *ticket => true,
                        // Moved — or the conversation is gone, in which
                        // case the future surfaces the error on re-poll.
                        _ => {
                            fired.push(waker.clone());
                            false
                        }
                    }
                });
                let mem_now = self.backend.mem_ticket();
                st.send.retain(|(_, ticket, waker)| {
                    if mem_now == *ticket {
                        true
                    } else {
                        fired.push(waker.clone());
                        false
                    }
                });
                // Fire expired timers; the earliest survivor bounds the
                // wait below.
                let now = Instant::now();
                st.timers.retain(|(_, at, waker)| {
                    if now >= *at {
                        fired.push(waker.clone());
                        false
                    } else {
                        true
                    }
                });
                (
                    st.recv
                        .iter()
                        .map(|&(_, id, ticket, _)| (id, ticket))
                        .collect::<Vec<_>>(),
                    st.send.first().map(|&(_, ticket, _)| ticket),
                    st.timers.iter().map(|&(_, at, _)| at).min(),
                )
            };
            let woke_any = !fired.is_empty();
            for w in fired {
                w.wake();
            }
            if woke_any {
                continue;
            }
            self.backend
                .wait(&recv_wait, mem_wait, (&self.wake, wake_ticket), next_timer);
        }
    }
}
