//! The reactor: one thread per async facility — started by the first
//! registration, so a facade whose operations never pend owns none —
//! whose single waiter multiplexes every registered interest in one
//! notified wait
//! (`IpcMpf::wait_signals`, asleep on the process doorbell: it watches
//! the registered conversations, so an enqueue or poison on any of them
//! rings it; a reclaim rings it while a send future is registered for the
//! pool signal; the only timer is the dead-peer sweep cadence).
//!
//! ## Lost-wakeup-free protocol
//!
//! A future takes the signal's sequence **ticket before** attempting the
//! non-blocking operation.  If the operation would block it registers
//! `(interest, ticket, waker)` here.  Traffic that lands between the try
//! and the registration has already moved the sequence past the stored
//! ticket, so the reactor's next scan fires the waker immediately
//! instead of sleeping on it.  Registration bumps the reactor's own wake
//! queue and rings the doorbell the reactor sleeps on, and the reactor
//! samples that queue's ticket before each scan — the same protocol one
//! level up — so a registration landing mid-scan cuts the following wait
//! short.
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

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::Waker;
use std::thread::JoinHandle;
use std::time::Instant;

use mpf::{IpcMpf, LnvcId};
use mpf_shm::waitq::WaitQueue;

/// Registrations, each tagged with the key of the [`Interest`] that
/// filed it.
struct State {
    recv: Vec<(u64, LnvcId, u32, Waker)>,
    send: Vec<(u64, u32, Waker)>,
    /// Deadline registrations from `Deadline`-wrapped futures: fired (and
    /// dropped) once `Instant::now()` passes the stored instant.
    timers: Vec<(u64, Instant, Waker)>,
    /// The reactor thread, from the first registration until
    /// [`Reactor::stop`] joins it.
    thread: Option<JoinHandle<()>>,
}

pub(crate) struct Reactor {
    /// The view whose doorbell the reactor sleeps on.
    pub(crate) ipc: Arc<IpcMpf>,
    state: Mutex<State>,
    wake: WaitQueue,
    shutdown: AtomicBool,
    next_key: AtomicU64,
}

/// One future's claim on its reactor (see the module docs).
pub(crate) struct Interest {
    pub(crate) reactor: Arc<Reactor>,
    key: u64,
    /// Whether anything may still be filed under `key`.
    filed: bool,
}

impl Interest {
    pub(crate) fn new(reactor: Arc<Reactor>) -> Self {
        let key = reactor.next_key.fetch_add(1, Ordering::Relaxed);
        Interest {
            reactor,
            key,
            filed: false,
        }
    }

    /// Files interest in each listed receive signal moving past its
    /// ticket.
    pub(crate) fn recv(&mut self, signals: &[(LnvcId, u32)], waker: &Waker) {
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

    /// Applies one registration and makes the reactor rescan — starting
    /// it if this is the facade's first.
    fn file(&mut self, add: impl FnOnce(&mut State)) {
        self.filed = true;
        let mut st = self.reactor.state.lock().unwrap_or_else(|e| e.into_inner());
        add(&mut st);
        // Not after `stop`: the facade is gone and nobody would join it.
        if st.thread.is_none() && !self.reactor.shutdown.load(Ordering::Acquire) {
            let r = Arc::clone(&self.reactor);
            st.thread = Some(
                std::thread::Builder::new()
                    .name("mpf-aio-reactor".into())
                    .spawn(move || r.run())
                    .expect("spawn mpf-aio reactor thread"),
            );
        }
        drop(st);
        self.reactor.wake.notify_all();
        self.reactor.ipc.ring_doorbell();
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

impl Drop for Interest {
    fn drop(&mut self) {
        self.retire();
    }
}

impl Reactor {
    pub(crate) fn new(ipc: Arc<IpcMpf>) -> Arc<Self> {
        Arc::new(Reactor {
            ipc,
            state: Mutex::new(State {
                recv: Vec::new(),
                send: Vec::new(),
                timers: Vec::new(),
                thread: None,
            }),
            wake: WaitQueue::new(),
            shutdown: AtomicBool::new(false),
            next_key: AtomicU64::new(0),
        })
    }

    /// Registrations currently held: `(recv, send, timers)`.
    #[cfg(test)]
    pub(crate) fn registrations(&self) -> (usize, usize, usize) {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        (st.recv.len(), st.send.len(), st.timers.len())
    }

    /// Stops and joins the reactor thread, if a registration ever started
    /// one.  The flag is raised under the state lock, so a registration
    /// racing this either started the thread joined here or starts none.
    pub(crate) fn stop(&self) {
        let thread = {
            let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            self.shutdown.store(true, Ordering::Release);
            st.thread.take()
        };
        if let Some(h) = thread {
            self.wake.notify_all();
            self.ipc.ring_doorbell();
            let _ = h.join();
        }
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
                    match self.ipc.recv_signal_ticket(*id) {
                        Ok(cur) if cur == *ticket => true,
                        // Moved — or the conversation is gone, in which
                        // case the future surfaces the error on re-poll.
                        _ => {
                            fired.push(waker.clone());
                            false
                        }
                    }
                });
                let mem_now = self.ipc.mem_signal_ticket();
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
            self.ipc.wait_signals(
                &recv_wait,
                mem_wait,
                &|| self.wake.ticket() != wake_ticket,
                next_timer,
            );
        }
    }
}
