//! Wait/notify for blocking `message_receive()`.
//!
//! The paper's `message_receive()` "is blocking; it returns only after a
//! message has been received."  [`FutexSeq`] is the one sequence-count
//! protocol the facility's waits sleep on; [`WaitQueue`] is that word on
//! the heap, waited on by the strategy the caller picks: busy-waiting (the
//! natural realization on the Balance), yielding, or sleeping on the futex
//! (DESIGN.md ablation A3).
//!
//! # Protocol
//!
//! A waiter, *while still holding the lock under which it observed "no
//! message"*, reads a ticket with [`FutexSeq::ticket`], drops the lock,
//! and waits.  A notifier makes its state change under the same lock and
//! then calls [`FutexSeq::notify_all`], which bumps the sequence before
//! waking.  A wait returns as soon as the sequence differs from the
//! ticket, so a notification between ticket-read and wait is never lost.
//! Spurious returns are allowed; callers re-check their predicate.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

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
    /// Sleep on the futex word until notified.
    Park,
}

/// A notify-all wait queue: a [`FutexSeq`] plus the strategy chosen at
/// each wait.
#[derive(Debug, Default)]
pub struct WaitQueue {
    seq: FutexSeq,
}

impl WaitQueue {
    /// New queue with sequence 0 and no waiters.
    pub const fn new() -> Self {
        Self {
            seq: FutexSeq::new(),
        }
    }

    /// Snapshot of the sequence.  Must be taken before releasing the lock
    /// that protects the waited-on predicate.
    #[inline]
    pub fn ticket(&self) -> u32 {
        self.seq.ticket()
    }

    /// Blocks until the sequence moves past `ticket` (or spuriously).
    /// `Park` sleeps on the futex word with no timeout (an injected
    /// `NotifyDrop` would strand it); `Spin` and `Yield` poll it.  Under
    /// a schedule hook every strategy sleeps on the word: it counts itself
    /// asleep there, so [`FutexSeq::notify_all`] reports the notify the
    /// hook's modeled block is waiting for.
    pub fn wait(&self, ticket: u32, strategy: WaitStrategy) {
        if strategy == WaitStrategy::Park || crate::hooks::enabled() {
            self.seq.wait(ticket, None);
            return;
        }
        let mut backoff = Backoff::new();
        while self.seq.ticket() == ticket {
            if strategy == WaitStrategy::Spin {
                backoff.spin();
            } else {
                backoff.snooze();
            }
        }
    }

    /// Bumps the sequence and wakes every sleeping waiter.  Call after the
    /// state change is visible under the predicate's lock.
    pub fn notify_all(&self) {
        self.seq.notify_all();
    }
}

/// The sequence-count wait word: a shared sequence that waiters
/// futex-sleep on plus a count of the threads asleep on it.  `#[repr(C)]`,
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
    /// a word being recycled (a process slot's doorbell, at its claim).
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
        // An injected notify-drop swallows the wake syscall but never the
        // sequence bump: the bounded futex naps every in-region waiter
        // already uses recover it, so the fault delays delivery only.
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
    use std::thread;

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

    #[test]
    fn notify_before_wait_is_not_lost() {
        let q = WaitQueue::new();
        for strategy in [WaitStrategy::Spin, WaitStrategy::Yield, WaitStrategy::Park] {
            let t = q.ticket();
            q.notify_all();
            assert_ne!(q.ticket(), t);
            // Must return at once: the sequence already moved past the ticket.
            q.wait(t, strategy);
        }
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
