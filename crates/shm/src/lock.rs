//! Mutual-exclusion primitives for the shared region.
//!
//! The paper's §3.1: "a synchronization lock for mutual exclusive access to
//! the LNVC descriptor".  On the Balance 21000 this was a busy-wait lock on
//! the bus's atomic lock memory.  The engine's lock is [`IpcLock`], a
//! futex mutex — kernel-assisted, so it blocks efficiently *across
//! processes* (the futex is keyed by the physical page) — with holder
//! identity and a generation counter, the hooks the multi-process
//! backend's dead-peer recovery needs (a crashed holder's lock can be
//! detected, broken, and the protected structure poisoned instead of
//! deadlocking every survivor).
//!
//! [`ShmLock`] keeps the 1987 busy-wait realizations beside it for
//! ablation A2: [`SpinLock`] (test-and-test-and-set with exponential
//! backoff; the closest analogue of the 1987 primitive) and
//! [`TicketLock`] (FIFO-fair; trades throughput for fairness, which
//! matters for the FCFS receiver pools in Figure 4 style workloads).
//! Both count contended acquisitions so benchmarks can report how much of
//! a throughput dip is lock contention (the paper attributes the
//! 16/128-byte declines in Figure 4 to "increased LNVC contention").
//!
//! All lock types are `#[repr(C)]` over atomics, so any of them may be
//! placed inside a shared-memory region and used from several address
//! spaces.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

use crate::backoff::Backoff;
use crate::futex;

/// Which lock implementation to use for region-internal mutual exclusion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LockKind {
    /// Test-and-test-and-set spin lock with exponential backoff (default;
    /// closest to the 1987 substrate).
    #[default]
    Spin,
    /// FIFO ticket lock.
    Ticket,
}

/// Test-and-test-and-set spin lock with exponential backoff.
#[derive(Debug, Default)]
#[repr(C)]
pub struct SpinLock {
    locked: AtomicBool,
    contended: AtomicU64,
}

impl SpinLock {
    /// New, unlocked.
    pub const fn new() -> Self {
        Self {
            locked: AtomicBool::new(false),
            contended: AtomicU64::new(0),
        }
    }

    /// Attempts to acquire without waiting.
    #[inline]
    pub fn try_lock(&self) -> bool {
        self.locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Acquires, spinning with backoff.  The read-only inner loop keeps the
    /// lock word in-cache so retries do not occupy the bus.
    pub fn lock(&self) {
        if crate::hooks::lock_acquire(self as *const Self as usize, &mut || self.try_lock()) {
            return;
        }
        if self.try_lock() {
            return;
        }
        self.contended.fetch_add(1, Ordering::Relaxed);
        let mut backoff = Backoff::new();
        loop {
            while self.locked.load(Ordering::Relaxed) {
                backoff.snooze();
            }
            if self.try_lock() {
                return;
            }
        }
    }

    /// Releases.  Caller must hold the lock.
    #[inline]
    pub fn unlock(&self) {
        self.locked.store(false, Ordering::Release);
        crate::hooks::lock_release(self as *const Self as usize);
    }

    /// Number of acquisitions that did not succeed on the first attempt.
    fn contended_count(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }
}

/// FIFO ticket lock: acquirers take a ticket and wait for it to be served.
#[derive(Debug, Default)]
#[repr(C)]
pub struct TicketLock {
    next: AtomicU32,
    serving: AtomicU32,
    contended: AtomicU64,
}

impl TicketLock {
    /// New, unlocked.
    pub const fn new() -> Self {
        Self {
            next: AtomicU32::new(0),
            serving: AtomicU32::new(0),
            contended: AtomicU64::new(0),
        }
    }

    /// Attempts to acquire without waiting.
    pub fn try_lock(&self) -> bool {
        let serving = self.serving.load(Ordering::Relaxed);
        self.next
            .compare_exchange(
                serving,
                serving.wrapping_add(1),
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    /// Acquires in FIFO order.
    ///
    /// Under a schedule-exploration hook the acquisition goes through
    /// [`TicketLock::try_lock`] instead, so FIFO hand-off degenerates to
    /// whatever order the harness scheduler picks — acceptable, since the
    /// harness's whole point is to permute acquisition order.
    pub fn lock(&self) {
        if crate::hooks::lock_acquire(self as *const Self as usize, &mut || self.try_lock()) {
            return;
        }
        let ticket = self.next.fetch_add(1, Ordering::Relaxed);
        if self.serving.load(Ordering::Acquire) == ticket {
            return;
        }
        self.contended.fetch_add(1, Ordering::Relaxed);
        let mut backoff = Backoff::new();
        while self.serving.load(Ordering::Acquire) != ticket {
            backoff.snooze();
        }
    }

    /// Releases.  Caller must hold the lock.
    pub fn unlock(&self) {
        let serving = self.serving.load(Ordering::Relaxed);
        self.serving
            .store(serving.wrapping_add(1), Ordering::Release);
        crate::hooks::lock_release(self as *const Self as usize);
    }

    /// Number of acquisitions that had to wait.
    fn contended_count(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }
}

/// Outcome of an [`IpcLock`] acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpcAcquire {
    /// Acquired a healthy lock.
    Clean,
    /// Acquired, but the lock is poisoned: a previous holder died inside
    /// the critical section, so the protected structure may be torn.
    Poisoned,
}

/// The in-region lock of the multi-process backend: Drepper's three-state
/// futex mutex (`state` 0 free, 1 held, 2 held with possible sleepers)
/// plus holder identity, a break generation, and a poison flag.
///
/// Deadlock robustness: an acquirer that waits longer than its patience
/// asks a caller-supplied liveness oracle about the recorded holder.  If
/// the holder is dead, the acquirer *breaks* the lock — poisons it,
/// bumps the generation, force-releases — and acquisition proceeds.  The
/// poison flag tells every later acquirer that the protected state may
/// be mid-update (the facility layer then fails the conversation with a
/// peer-death error instead of computing garbage).
#[derive(Debug, Default)]
#[repr(C)]
pub struct IpcLock {
    state: AtomicU32,
    /// MPF process id (raw, non-zero) of the current holder; 0 when free.
    owner: AtomicU32,
    /// Bumped each time the lock is forcibly broken.
    generation: AtomicU32,
    /// Sticky: set when a holder died inside the critical section.
    poisoned: AtomicU32,
}

/// How long an [`IpcLock`] acquirer waits between liveness probes.
pub const IPC_LOCK_PATIENCE: Duration = Duration::from_millis(20);

impl IpcLock {
    /// New, unlocked, unpoisoned.
    pub const fn new() -> Self {
        Self {
            state: AtomicU32::new(0),
            owner: AtomicU32::new(0),
            generation: AtomicU32::new(0),
            poisoned: AtomicU32::new(0),
        }
    }

    /// Attempts to acquire without waiting; records `me` as holder.
    pub fn try_lock(&self, me: u32) -> bool {
        if self
            .state
            .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            self.owner.store(me, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Acquires as process `me`.  `is_alive` maps a recorded holder id to
    /// liveness; it is consulted only after [`IPC_LOCK_PATIENCE`] of
    /// fruitless waiting.  Returns whether the lock was clean.
    pub fn lock(&self, me: u32, is_alive: impl Fn(u32) -> bool) -> IpcAcquire {
        self.lock_traced(me, is_alive).0
    }

    /// Like [`Self::lock`], additionally reporting whether the acquirer
    /// found the lock held (`true` = contended) — the telemetry layer's
    /// contention signal.  The lock itself carries no counter: its 16-byte
    /// `#[repr(C)]` layout is part of the frozen region ABI.  Under a
    /// schedule-exploration hook, blocking is modeled by the scheduler and
    /// reported as uncontended.
    pub fn lock_traced(&self, me: u32, is_alive: impl Fn(u32) -> bool) -> (IpcAcquire, bool) {
        // Under a schedule-exploration hook, peers are threads of one
        // process but can still *model* death: the harness marks a
        // victim's slot dead, so the oracle is consulted on every failed
        // try (no wall-clock patience — the scheduler already controls
        // when this retry runs).
        if crate::hooks::lock_acquire(self as *const Self as usize, &mut || {
            if self.try_lock(me) {
                return true;
            }
            let holder = self.owner.load(Ordering::Relaxed);
            if holder != 0 && holder != me && !is_alive(holder) {
                self.break_dead_holder(holder);
                return self.try_lock(me);
            }
            false
        }) {
            return (
                if self.is_poisoned() {
                    IpcAcquire::Poisoned
                } else {
                    IpcAcquire::Clean
                },
                false,
            );
        }
        if crate::faultplane::inject(crate::faultplane::FaultSite::LockStall) {
            // Injected acquire stall: long enough that peers observe a
            // slow holder, far shorter than IPC_LOCK_PATIENCE so a live
            // staller is never mistaken for a corpse.
            std::thread::sleep(IPC_LOCK_PATIENCE / 10);
        }
        let mut contended = false;
        if !self.try_lock(me) {
            contended = true;
            loop {
                if self.state.swap(2, Ordering::Acquire) == 0 {
                    self.owner.store(me, Ordering::Relaxed);
                    break;
                }
                futex::futex_wait(&self.state, 2, Some(IPC_LOCK_PATIENCE));
                let holder = self.owner.load(Ordering::Relaxed);
                if holder != 0 && holder != me && !is_alive(holder) {
                    self.break_dead_holder(holder);
                }
            }
        }
        (
            if self.is_poisoned() {
                IpcAcquire::Poisoned
            } else {
                IpcAcquire::Clean
            },
            contended,
        )
    }

    /// Breaks a lock whose recorded holder is known dead: poison, bump
    /// generation, force-release, wake everyone.  Idempotent — exactly
    /// one concurrent breaker wins the owner CAS.
    fn break_dead_holder(&self, holder: u32) {
        if self
            .owner
            .compare_exchange(holder, 0, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            // The poison word doubles as the culprit record: any nonzero
            // value means poisoned, and a value other than `u32::MAX`
            // names the dead holder's owner id.
            self.poisoned.store(holder, Ordering::Release);
            self.generation.fetch_add(1, Ordering::Release);
            self.state.store(0, Ordering::Release);
            futex::futex_wake_all(&self.state);
        }
    }

    /// Releases.  Caller must hold the lock.
    pub fn unlock(&self) {
        self.owner.store(0, Ordering::Relaxed);
        if self.state.swap(0, Ordering::Release) == 2 {
            futex::futex_wake_one(&self.state);
        }
        crate::hooks::lock_release(self as *const Self as usize);
    }

    /// Marks the protected structure as possibly torn (also set by
    /// [`IpcLock::lock`] when it breaks a dead holder's lock).
    pub fn poison(&self) {
        self.poisoned.store(u32::MAX, Ordering::Release);
    }

    /// Returns the lock to its pristine free state (clears poison; keeps
    /// the break generation, which is monotonic).  Only sound while no
    /// other process can reach the protected structure — e.g. when a
    /// deleted descriptor slot is reactivated under the allocation lock.
    pub fn reset(&self) {
        self.owner.store(0, Ordering::Relaxed);
        self.poisoned.store(0, Ordering::Relaxed);
        self.state.store(0, Ordering::Release);
    }

    /// Whether a holder ever died inside the critical section.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire) != 0
    }

    /// Owner id of the dead holder whose lock was broken, when known
    /// (`None` if unpoisoned or poisoned via [`IpcLock::poison`]).
    pub fn poison_culprit(&self) -> Option<u32> {
        match self.poisoned.load(Ordering::Acquire) {
            0 | u32::MAX => None,
            holder => Some(holder),
        }
    }

    /// Times the lock has been forcibly broken.
    pub fn generation(&self) -> u32 {
        self.generation.load(Ordering::Acquire)
    }

    /// Recorded holder (0 when free) — diagnostic.
    pub fn holder(&self) -> u32 {
        self.owner.load(Ordering::Relaxed)
    }
}

/// A region lock with a run-time-selected implementation.
///
/// LNVC descriptors embed one of these; the kind is fixed at
/// [`ShmLock::new`] time from the facility configuration.
pub enum ShmLock {
    /// TTAS spin lock.
    Spin(SpinLock),
    /// FIFO ticket lock.
    Ticket(TicketLock),
}

impl std::fmt::Debug for ShmLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self {
            ShmLock::Spin(_) => "Spin",
            ShmLock::Ticket(_) => "Ticket",
        };
        f.debug_struct("ShmLock")
            .field("kind", &kind)
            .field("contended", &self.contended_count())
            .finish()
    }
}

impl Default for ShmLock {
    fn default() -> Self {
        ShmLock::Spin(SpinLock::new())
    }
}

impl ShmLock {
    /// Creates an unlocked lock of the requested kind.
    pub fn new(kind: LockKind) -> Self {
        match kind {
            LockKind::Spin => ShmLock::Spin(SpinLock::new()),
            LockKind::Ticket => ShmLock::Ticket(TicketLock::new()),
        }
    }

    /// Acquires; the guard releases on drop.
    pub fn lock(&self) -> ShmLockGuard<'_> {
        match self {
            ShmLock::Spin(l) => l.lock(),
            ShmLock::Ticket(l) => l.lock(),
        }
        ShmLockGuard { lock: self }
    }

    /// Attempts to acquire without waiting.
    pub fn try_lock(&self) -> Option<ShmLockGuard<'_>> {
        let ok = match self {
            ShmLock::Spin(l) => l.try_lock(),
            ShmLock::Ticket(l) => l.try_lock(),
        };
        // `then` (not `then_some`): the guard must only exist — and thus
        // only ever unlock on drop — if the acquisition succeeded.
        ok.then(|| ShmLockGuard { lock: self })
    }

    /// Number of acquisitions that had to wait.
    fn contended_count(&self) -> u64 {
        match self {
            ShmLock::Spin(l) => l.contended_count(),
            ShmLock::Ticket(l) => l.contended_count(),
        }
    }

    fn unlock(&self) {
        match self {
            ShmLock::Spin(l) => l.unlock(),
            ShmLock::Ticket(l) => l.unlock(),
        }
    }
}

/// RAII guard; releases the [`ShmLock`] on drop.
#[derive(Debug)]
pub struct ShmLockGuard<'a> {
    lock: &'a ShmLock,
}

impl Drop for ShmLockGuard<'_> {
    fn drop(&mut self) {
        self.lock.unlock();
    }
}

// Compile-time layout contracts.  These types are placed inside shared
// regions at offsets computed from these exact sizes and alignments; a
// refactor that changed them would silently corrupt every cross-process
// layout (and could reintroduce false sharing the carve was sized
// against), so the build fails instead.
const _: () = assert!(std::mem::size_of::<SpinLock>() == 16);
const _: () = assert!(std::mem::align_of::<SpinLock>() == 8);
const _: () = assert!(std::mem::size_of::<TicketLock>() == 16);
const _: () = assert!(std::mem::align_of::<TicketLock>() == 8);
const _: () = assert!(std::mem::size_of::<IpcLock>() == 16);
const _: () = assert!(std::mem::align_of::<IpcLock>() == 4);

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    struct Wrap(std::cell::UnsafeCell<usize>);
    unsafe impl Sync for Wrap {}
    impl Wrap {
        fn ptr(&self) -> *mut usize {
            self.0.get()
        }
    }

    fn hammer(lock: &ShmLock, threads: usize, iters: usize) -> usize {
        let counter = AtomicUsize::new(0);
        let wrap = Wrap(std::cell::UnsafeCell::new(0usize));
        thread::scope(|s| {
            for _ in 0..threads {
                let wrap = &wrap;
                let counter = &counter;
                s.spawn(move || {
                    for _ in 0..iters {
                        let _g = lock.lock();
                        // SAFETY: mutual exclusion provided by the lock.
                        unsafe { *wrap.ptr() += 1 };
                        counter.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        unsafe { *wrap.ptr() }
    }

    #[test]
    fn spin_lock_mutual_exclusion() {
        let lock = ShmLock::new(LockKind::Spin);
        assert_eq!(hammer(&lock, 4, 5_000), 20_000);
    }

    #[test]
    fn ticket_lock_mutual_exclusion() {
        let lock = ShmLock::new(LockKind::Ticket);
        assert_eq!(hammer(&lock, 4, 5_000), 20_000);
    }

    #[test]
    fn try_lock_fails_while_held() {
        for kind in [LockKind::Spin, LockKind::Ticket] {
            let lock = ShmLock::new(kind);
            let g = lock.lock();
            assert!(lock.try_lock().is_none(), "{kind:?}");
            drop(g);
            assert!(lock.try_lock().is_some(), "{kind:?}");
        }
    }

    #[test]
    fn guard_releases_on_drop() {
        let lock = ShmLock::new(LockKind::Spin);
        drop(lock.lock());
        drop(lock.lock());
    }

    #[test]
    fn contention_counter_counts_forced_contention() {
        for kind in [LockKind::Spin, LockKind::Ticket] {
            let lock = ShmLock::new(kind);
            let entered = AtomicUsize::new(0);
            thread::scope(|s| {
                let g = lock.lock();
                let handle = s.spawn(|| {
                    entered.fetch_add(1, Ordering::SeqCst);
                    let _g = lock.lock(); // must contend: main holds it
                });
                while entered.load(Ordering::SeqCst) == 0 {
                    std::hint::spin_loop();
                }
                thread::sleep(std::time::Duration::from_millis(10));
                drop(g);
                handle.join().unwrap();
            });
            assert!(lock.contended_count() > 0, "{kind:?}");
        }
    }

    #[test]
    fn raw_spin_try_lock_semantics() {
        let l = SpinLock::new();
        assert!(l.try_lock());
        assert!(!l.try_lock());
        l.unlock();
        assert!(l.try_lock());
        l.unlock();
    }

    #[test]
    fn ipc_lock_mutual_exclusion() {
        let lock = IpcLock::new();
        let counter = AtomicUsize::new(0);
        let wrap = Wrap(std::cell::UnsafeCell::new(0usize));
        thread::scope(|s| {
            for t in 0..4u32 {
                let wrap = &wrap;
                let counter = &counter;
                let lock = &lock;
                s.spawn(move || {
                    for _ in 0..5_000 {
                        assert_eq!(lock.lock(t + 1, |_| true), IpcAcquire::Clean);
                        // SAFETY: mutual exclusion provided by the lock.
                        unsafe { *wrap.ptr() += 1 };
                        counter.fetch_add(1, Ordering::Relaxed);
                        lock.unlock();
                    }
                });
            }
        });
        assert_eq!(unsafe { *wrap.ptr() }, 20_000);
        assert!(!lock.is_poisoned());
    }

    #[test]
    fn ipc_lock_breaks_dead_holder_and_poisons() {
        let lock = IpcLock::new();
        // "Process 7" acquires and then dies without unlocking.
        assert!(lock.try_lock(7));
        assert_eq!(lock.holder(), 7);
        let gen_before = lock.generation();
        // Survivor (process 2) acquires with an oracle that knows 7 died.
        let acq = lock.lock(2, |pid| pid != 7);
        assert_eq!(acq, IpcAcquire::Poisoned);
        assert_eq!(lock.holder(), 2);
        assert!(lock.is_poisoned());
        assert_eq!(lock.poison_culprit(), Some(7));
        assert_eq!(lock.generation(), gen_before + 1);
        lock.unlock();
        // Poison is sticky for later acquirers.
        assert_eq!(lock.lock(3, |_| true), IpcAcquire::Poisoned);
        lock.unlock();
    }

    #[test]
    fn ipc_lock_live_holder_is_waited_for() {
        let lock = IpcLock::new();
        let released = AtomicUsize::new(0);
        thread::scope(|s| {
            assert!(lock.try_lock(1));
            let handle = s.spawn(|| {
                // Holder is alive: must block until the real unlock, well
                // past several patience windows.
                assert_eq!(lock.lock(2, |_| true), IpcAcquire::Clean);
                assert_eq!(released.load(Ordering::SeqCst), 1);
                lock.unlock();
            });
            thread::sleep(IPC_LOCK_PATIENCE * 3);
            released.store(1, Ordering::SeqCst);
            lock.unlock();
            handle.join().unwrap();
        });
        assert!(!lock.is_poisoned());
    }

    #[test]
    fn raw_ticket_try_lock_semantics() {
        let l = TicketLock::new();
        assert!(l.try_lock());
        assert!(!l.try_lock());
        l.unlock();
        assert!(l.try_lock());
        l.unlock();
    }

    #[test]
    fn ticket_lock_is_fifo_under_sequential_use() {
        let l = TicketLock::new();
        for _ in 0..1000 {
            l.lock();
            l.unlock();
        }
        assert_eq!(l.contended_count(), 0);
    }
}
