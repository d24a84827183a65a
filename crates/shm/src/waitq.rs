//! Wait/notify for blocking `message_receive()`.
//!
//! The paper's `message_receive()` "is blocking; it returns only after a
//! message has been received."  On the Balance the natural realization was
//! busy-waiting; a modern port parks the thread.  [`WaitQueue`] offers both
//! (plus a yield middle ground) behind one sequence-count protocol, selected
//! at facility-init time (DESIGN.md ablation A3).
//!
//! # Protocol
//!
//! A waiter, *while still holding the lock under which it observed "no
//! message"*, reads a ticket with [`WaitQueue::ticket`], drops the lock,
//! and calls [`WaitQueue::wait`].  A notifier makes its state change under
//! the same lock and then calls [`WaitQueue::notify_all`], which bumps the
//! sequence before waking.  `wait` returns as soon as the sequence differs
//! from the ticket, so a notification between ticket-read and wait is never
//! lost.  Spurious returns are allowed; callers re-check their predicate.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use crate::backoff::Backoff;
use crate::futex;

/// How a blocked receiver waits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WaitStrategy {
    /// Busy-wait with exponential backoff — the 1987 idiom.
    Spin,
    /// Spin briefly, then `yield_now` — tolerant of oversubscription
    /// (the paper runs 20 processes plus an arbiter on 20 CPUs).
    #[default]
    Yield,
    /// Park the OS thread until notified.
    Park,
    /// Sleep in the kernel on the sequence word itself.  The only
    /// strategy that can block across address spaces; the multi-process
    /// backend always uses it (with a spin/yield fallback on hosts
    /// without futexes).
    Futex,
}

/// A notify-all wait queue with a monotonically increasing sequence.
#[derive(Debug)]
pub struct WaitQueue {
    seq: AtomicU32,
    /// Number of waiters currently inside a futex sleep; lets
    /// `notify_all` skip the wake syscall when nobody kernel-sleeps.
    futex_waiters: AtomicU32,
    parked: Mutex<Vec<Thread>>,
}

impl Default for WaitQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl WaitQueue {
    /// New queue with sequence 0 and no waiters.
    pub fn new() -> Self {
        Self {
            seq: AtomicU32::new(0),
            futex_waiters: AtomicU32::new(0),
            parked: Mutex::new(Vec::new()),
        }
    }

    /// Snapshot of the sequence.  Must be taken before releasing the lock
    /// that protects the waited-on predicate.
    #[inline]
    pub fn ticket(&self) -> u32 {
        self.seq.load(Ordering::Acquire)
    }

    /// Blocks until the sequence moves past `ticket` (or spuriously).
    pub fn wait(&self, ticket: u32, strategy: WaitStrategy) {
        self.wait_deadline(ticket, strategy, None);
    }

    /// Blocks until the sequence moves past `ticket`, the deadline
    /// passes, or spuriously.  Returns `true` if the sequence moved,
    /// `false` on deadline expiry with the sequence unmoved.  A hooked
    /// wait (schedule exploration) ignores the deadline — the harness
    /// runs no wall clock, and scenarios built for determinism pass
    /// `None`.
    pub fn wait_deadline(
        &self,
        ticket: u32,
        strategy: WaitStrategy,
        deadline: Option<Instant>,
    ) -> bool {
        if crate::hooks::wait(self as *const Self as usize, &mut || {
            self.seq.load(Ordering::Acquire) != ticket
        }) {
            return true;
        }
        let expired = || deadline.is_some_and(|d| Instant::now() >= d);
        // Remaining time, clamped to `cap` — the recurring bound for the
        // strategies that sleep in bounded naps.
        let nap = |cap: Duration| match deadline {
            None => Some(cap),
            Some(d) => Some(d.saturating_duration_since(Instant::now()).min(cap)),
        };
        match strategy {
            WaitStrategy::Spin => {
                let mut backoff = Backoff::new();
                while self.seq.load(Ordering::Acquire) == ticket {
                    if expired() {
                        return false;
                    }
                    backoff.spin();
                }
            }
            WaitStrategy::Yield => {
                let mut backoff = Backoff::new();
                while self.seq.load(Ordering::Acquire) == ticket {
                    if expired() {
                        return false;
                    }
                    backoff.snooze();
                }
            }
            WaitStrategy::Park => {
                loop {
                    if self.seq.load(Ordering::Acquire) != ticket {
                        return true;
                    }
                    if expired() {
                        return false;
                    }
                    self.parked
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(thread::current());
                    if self.seq.load(Ordering::Acquire) != ticket {
                        // Notification raced with registration; our stale
                        // handle will at worst receive a harmless unpark.
                        return true;
                    }
                    // A liveness bound no wake depends on: notify_all
                    // unparks every registered thread.
                    thread::park_timeout(nap(Duration::from_millis(2)).unwrap());
                }
            }
            WaitStrategy::Futex => {
                self.futex_waiters.fetch_add(1, Ordering::SeqCst);
                while self.seq.load(Ordering::Acquire) == ticket {
                    if expired() {
                        self.futex_waiters.fetch_sub(1, Ordering::SeqCst);
                        return false;
                    }
                    // The futex atomically re-checks `seq == ticket` at
                    // sleep time, so a notify between our check and the
                    // syscall is never lost; the timeout is only a
                    // liveness bound on fallback hosts (and the deadline
                    // clamp).
                    futex::futex_wait(&self.seq, ticket, nap(Duration::from_millis(50)));
                }
                self.futex_waiters.fetch_sub(1, Ordering::SeqCst);
            }
        }
        true
    }

    /// Bumps the sequence and wakes every parked waiter.  Call after the
    /// state change is visible under the predicate's lock.
    pub fn notify_all(&self) {
        self.seq.fetch_add(1, Ordering::Release);
        // An injected notify-drop swallows the wake syscalls but never
        // the sequence bump: waiters recover via their bounded naps, so
        // the fault delays delivery without ever losing it.
        if !crate::faultplane::inject(crate::faultplane::FaultSite::NotifyDrop) {
            if self.futex_waiters.load(Ordering::SeqCst) != 0 {
                futex::futex_wake_all(&self.seq);
            }
            let mut parked = self.parked.lock().unwrap_or_else(|e| e.into_inner());
            for t in parked.drain(..) {
                t.unpark();
            }
        }
        crate::hooks::notify(self as *const Self as usize);
    }

    /// Blocks until *any* of `entries`' sequences moves past its ticket
    /// (or spuriously) — the multiplexed wait behind
    /// `Mpf::wait_any`.  Each `(queue, ticket)` pair must have had its
    /// ticket taken before the caller last checked its predicate, exactly
    /// as for [`WaitQueue::wait`].  Returns immediately for an empty
    /// slice (there is nothing to wait on; callers reject that case
    /// before blocking forever).
    pub fn wait_many(entries: &[(&WaitQueue, u32)], strategy: WaitStrategy) {
        Self::wait_many_deadline(entries, strategy, None);
    }

    /// [`WaitQueue::wait_many`] with a deadline.  Returns `true` if some
    /// sequence moved (or spuriously), `false` on expiry with every
    /// sequence unmoved.  Hooked waits ignore the deadline, as for
    /// [`WaitQueue::wait_deadline`].
    pub fn wait_many_deadline(
        entries: &[(&WaitQueue, u32)],
        strategy: WaitStrategy,
        deadline: Option<Instant>,
    ) -> bool {
        if entries.is_empty() {
            return true;
        }
        let moved = || {
            entries
                .iter()
                .any(|&(q, t)| q.seq.load(Ordering::Acquire) != t)
        };
        let resources: Vec<usize> = entries
            .iter()
            .map(|&(q, _)| q as *const WaitQueue as usize)
            .collect();
        if crate::hooks::wait_multi(&resources, &mut || moved()) {
            return true;
        }
        let expired = || deadline.is_some_and(|d| Instant::now() >= d);
        let nap = |cap: Duration| match deadline {
            None => cap,
            Some(d) => d.saturating_duration_since(Instant::now()).min(cap),
        };
        match strategy {
            WaitStrategy::Spin => {
                let mut backoff = Backoff::new();
                while !moved() {
                    if expired() {
                        return false;
                    }
                    backoff.spin();
                }
            }
            WaitStrategy::Yield => {
                let mut backoff = Backoff::new();
                while !moved() {
                    if expired() {
                        return false;
                    }
                    backoff.snooze();
                }
            }
            // A futex sleeps on one address, so a multi-queue wait parks
            // instead, whatever the strategy: heap queues keep a parked
            // list and every `notify_all` drains it.
            WaitStrategy::Park | WaitStrategy::Futex => {
                loop {
                    if moved() {
                        return true;
                    }
                    if expired() {
                        return false;
                    }
                    // Register with every queue; whichever notifies first
                    // unparks us, and the stale registrations at worst
                    // deliver a harmless extra unpark later.
                    for &(q, _) in entries {
                        q.parked
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push(thread::current());
                    }
                    if moved() {
                        return true;
                    }
                    // A liveness bound no wake depends on.
                    thread::park_timeout(nap(Duration::from_millis(2)));
                }
            }
        }
        true
    }
}

/// The in-region counterpart of [`WaitQueue`]: the same sequence-count
/// protocol, reduced to a shared sequence word that waiters futex-sleep
/// on plus a count of the threads asleep on it.  `#[repr(C)]`,
/// position-independent, valid for any bit pattern — safe to place at a
/// fixed offset inside a mapped region and use from any number of
/// processes.
///
/// # The sleeper gate
///
/// `notify_all` enters the kernel only when `sleepers` is non-zero.  The
/// two sides form a store-buffering pair, all `SeqCst`:
///
/// ```text
/// waiter:   sleepers += 1 ; compare seq   (FUTEX_WAIT's own, in-kernel)
/// notifier: seq += 1      ; load sleepers (wake if non-zero)
/// ```
///
/// In the single total order of those four operations either the
/// waiter's increment precedes the notifier's load (the notifier wakes)
/// or the notifier's bump precedes the compare (`FUTEX_WAIT` refuses to
/// sleep).
///
/// SAFETY (liveness, not memory): a sleeper killed inside the wait never
/// decrements, which leaves the count high and only degrades this word
/// to waking on every notify.  Owners of a recycled word call
/// [`FutexSeq::reset_sleepers`]; a straggler that decrements after such a
/// reset can at worst hide one later sleeper from one notify, and every
/// in-region wait is bounded (the dead-peer sweep cadence), so that costs
/// one bound, never a hang.
#[derive(Debug, Default)]
#[repr(C)]
pub struct FutexSeq {
    seq: AtomicU32,
    sleepers: AtomicU32,
}

impl FutexSeq {
    /// New queue with sequence 0 and nobody asleep.
    pub const fn new() -> Self {
        Self {
            seq: AtomicU32::new(0),
            sleepers: AtomicU32::new(0),
        }
    }

    /// Snapshot of the sequence.  Must be taken before releasing the lock
    /// that protects the waited-on predicate.
    #[inline]
    pub fn ticket(&self) -> u32 {
        self.seq.load(Ordering::Acquire)
    }

    /// Threads currently inside [`FutexSeq::wait`] (diagnostic; see the
    /// type docs for why it can read high after a kill).
    pub fn sleepers(&self) -> u32 {
        self.sleepers.load(Ordering::Relaxed)
    }

    /// Forgets sleepers a dead predecessor left behind.  For the owner of
    /// a word being recycled (LNVC activation, process-slot claim).
    pub fn reset_sleepers(&self) {
        self.sleepers.store(0, Ordering::SeqCst);
    }

    /// Blocks until the sequence moves past `ticket`, the timeout
    /// elapses, or spuriously.  Returns `true` if the sequence moved.
    /// Callers re-check their predicate either way; bounded timeouts are
    /// how the multi-process backend interleaves dead-peer sweeps with
    /// blocking receives.
    pub fn wait(&self, ticket: u32, timeout: Option<Duration>) -> bool {
        if self.seq.load(Ordering::Acquire) != ticket {
            return true;
        }
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        crate::hooks::yield_point(crate::hooks::SyncEvent::Sleeper(
            self as *const Self as usize,
        ));
        // A hooked wait blocks until the sequence moves (the harness runs
        // every peer in-process, so timeout-driven dead-peer sweeps are
        // moot there).  Its ready-check stands in for the futex compare.
        let hooked = crate::hooks::wait(self as *const Self as usize, &mut || {
            self.seq.load(Ordering::SeqCst) != ticket
        });
        if !hooked {
            futex::futex_wait(&self.seq, ticket, timeout);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        self.seq.load(Ordering::Acquire) != ticket
    }

    /// Bumps the sequence and wakes every sleeping waiter, in every
    /// attached process.  With nobody asleep this is two atomics and no
    /// syscall.
    pub fn notify_all(&self) {
        self.seq.fetch_add(1, Ordering::SeqCst);
        // See `WaitQueue::notify_all`: a dropped wake is recovered by
        // the bounded futex naps every in-region waiter already uses.
        let dropped = crate::faultplane::inject(crate::faultplane::FaultSite::NotifyDrop);
        if self.sleepers.load(Ordering::SeqCst) != 0 {
            if !dropped {
                futex::futex_wake_all(&self.seq);
            }
            // Gated like the syscall, so a schedule explorer that parks
            // hooked waiters sees a broken gate as a lost wake.
            crate::hooks::notify(self as *const Self as usize);
        }
    }
}

// Compile-time layout contract: `FutexSeq` sits inside in-region structs
// whose byte layout is fixed by `mpf-core`'s layout module.
const _: () = assert!(std::mem::size_of::<FutexSeq>() == 8);
const _: () = assert!(std::mem::align_of::<FutexSeq>() == 4);

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    fn wakeup_smoke(strategy: WaitStrategy) {
        let q = Arc::new(WaitQueue::new());
        let hits = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let q = Arc::clone(&q);
            let hits = Arc::clone(&hits);
            handles.push(thread::spawn(move || {
                let t = q.ticket();
                q.wait(t, strategy);
                hits.fetch_add(1, Ordering::SeqCst);
            }));
        }
        // Give waiters a moment to block, then notify.
        thread::sleep(Duration::from_millis(20));
        q.notify_all();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(hits.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn spin_wakeup() {
        wakeup_smoke(WaitStrategy::Spin);
    }

    #[test]
    fn yield_wakeup() {
        wakeup_smoke(WaitStrategy::Yield);
    }

    #[test]
    fn park_wakeup() {
        wakeup_smoke(WaitStrategy::Park);
    }

    #[test]
    fn futex_wakeup() {
        wakeup_smoke(WaitStrategy::Futex);
    }

    #[test]
    fn futex_seq_roundtrip() {
        let q = Arc::new(FutexSeq::new());
        let hits = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let q = Arc::clone(&q);
            let hits = Arc::clone(&hits);
            handles.push(thread::spawn(move || {
                let t = q.ticket();
                while !q.wait(t, Some(Duration::from_millis(50))) {}
                hits.fetch_add(1, Ordering::SeqCst);
            }));
        }
        thread::sleep(Duration::from_millis(20));
        q.notify_all();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(hits.load(Ordering::SeqCst), 4);
    }

    /// The sleeper gate: a waiter is counted while (and only while) it is
    /// inside `wait`, so `notify_all` knows whether a wake is needed.
    #[test]
    fn futex_seq_counts_its_sleepers() {
        let q = Arc::new(FutexSeq::new());
        assert_eq!(q.sleepers(), 0);
        let waiter = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let t = q.ticket();
                while !q.wait(t, Some(Duration::from_secs(5))) {}
            })
        };
        while q.sleepers() == 0 {
            thread::yield_now();
        }
        q.notify_all();
        waiter.join().unwrap();
        assert_eq!(q.sleepers(), 0);
        // A count a dead sleeper left behind is forgotten on recycling.
        q.sleepers.store(3, Ordering::SeqCst);
        q.reset_sleepers();
        assert_eq!(q.sleepers(), 0);
    }

    #[test]
    fn futex_seq_notify_before_wait_not_lost() {
        let q = FutexSeq::new();
        let t = q.ticket();
        q.notify_all();
        assert!(q.wait(t, None), "sequence already moved");
    }

    fn wait_many_smoke(strategy: WaitStrategy) {
        let a = Arc::new(WaitQueue::new());
        let b = Arc::new(WaitQueue::new());
        let woken_by = {
            let a = Arc::clone(&a);
            let b = Arc::clone(&b);
            thread::spawn(move || {
                let entries = [(&*a, a.ticket()), (&*b, b.ticket())];
                WaitQueue::wait_many(&entries, strategy);
                // Exactly one queue was notified; report which moved.
                usize::from(entries[0].0.ticket() == entries[0].1)
            })
        };
        thread::sleep(Duration::from_millis(20));
        b.notify_all();
        assert_eq!(woken_by.join().unwrap(), 1, "queue b moved, not a");
    }

    #[test]
    fn wait_many_wakes_on_second_queue_park() {
        wait_many_smoke(WaitStrategy::Park);
    }

    #[test]
    fn wait_many_wakes_on_second_queue_futex() {
        wait_many_smoke(WaitStrategy::Futex);
    }

    #[test]
    fn wait_many_wakes_on_second_queue_yield() {
        wait_many_smoke(WaitStrategy::Yield);
    }

    #[test]
    fn wait_many_empty_returns_immediately() {
        WaitQueue::wait_many(&[], WaitStrategy::Park);
    }

    #[test]
    fn wait_many_returns_immediately_if_already_notified() {
        let q = WaitQueue::new();
        let t = q.ticket();
        q.notify_all();
        WaitQueue::wait_many(&[(&q, t)], WaitStrategy::Park);
    }

    #[test]
    fn notify_before_wait_is_not_lost() {
        let q = WaitQueue::new();
        let t = q.ticket();
        q.notify_all();
        // Must return immediately: sequence already moved past the ticket.
        q.wait(t, WaitStrategy::Park);
    }

    #[test]
    fn ticket_reflects_notifications() {
        let q = WaitQueue::new();
        let t0 = q.ticket();
        q.notify_all();
        q.notify_all();
        assert_ne!(q.ticket(), t0);
    }

    #[test]
    fn wait_deadline_expires_without_notify() {
        for strategy in [
            WaitStrategy::Spin,
            WaitStrategy::Yield,
            WaitStrategy::Park,
            WaitStrategy::Futex,
        ] {
            let q = WaitQueue::new();
            let t = q.ticket();
            let dl = Instant::now() + Duration::from_millis(15);
            assert!(!q.wait_deadline(t, strategy, Some(dl)), "{strategy:?}");
            assert!(Instant::now() >= dl, "{strategy:?} returned early");
        }
    }

    #[test]
    fn wait_deadline_notified_returns_true() {
        let q = Arc::new(WaitQueue::new());
        let t = q.ticket();
        let notifier = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(10));
                q.notify_all();
            })
        };
        let dl = Instant::now() + Duration::from_secs(5);
        assert!(q.wait_deadline(t, WaitStrategy::Futex, Some(dl)));
        notifier.join().unwrap();
    }

    #[test]
    fn wait_many_deadline_expires() {
        let a = WaitQueue::new();
        let b = WaitQueue::new();
        let entries = [(&a, a.ticket()), (&b, b.ticket())];
        let dl = Instant::now() + Duration::from_millis(15);
        assert!(!WaitQueue::wait_many_deadline(
            &entries,
            WaitStrategy::Park,
            Some(dl)
        ));
        assert!(Instant::now() >= dl);
    }

    #[test]
    fn producer_consumer_handshake() {
        let q = Arc::new(WaitQueue::new());
        let value = Arc::new(AtomicUsize::new(0));
        let consumer = {
            let q = Arc::clone(&q);
            let value = Arc::clone(&value);
            thread::spawn(move || loop {
                let t = q.ticket();
                if value.load(Ordering::Acquire) == 42 {
                    return;
                }
                q.wait(t, WaitStrategy::Park);
            })
        };
        thread::sleep(Duration::from_millis(10));
        value.store(42, Ordering::Release);
        q.notify_all();
        consumer.join().unwrap();
    }
}
