//! Sync-event hooks: the instrumentation seam for deterministic schedule
//! exploration (the `mpf-check` harness).
//!
//! Every blocking or racy primitive in this crate — lock acquire/release,
//! wait-queue wait/notify, free-list pop/push, ring push/pop — consults a
//! thread-local [`SyncHook`] before touching the real synchronization
//! machinery.  A test harness installs a hook on each "logical process"
//! thread; the hook serializes execution, turning every call site into a
//! scheduling decision it can permute, and models blocking (a hooked wait
//! parks the logical process until the matching notify) so exploration
//! never burns CPU in spin loops.
//!
//! Production cost is one relaxed atomic load per call site
//! ([`enabled`]): the thread-local is only consulted while at least one
//! hook is installed anywhere in the process.
//!
//! Resources are identified by the address of the primitive (`self as
//! *const _ as usize`) — stable for the primitive's lifetime and unique
//! per instance.  The one wrinkle is multiply-mapped shared regions: the
//! same in-region primitive has a different address in every mapping, so
//! [`ShmRegion`](crate::region::ShmRegion) registers its mappings here and
//! the entry points below rewrite in-region addresses to a
//! mapping-independent `(region, offset)` id before the hook sees them.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};

/// A non-blocking instrumentation point: something racy happened (or is
/// about to).  Carries the address of the structure involved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncEvent {
    /// A free-list pop: a pool slot (or chain) allocation attempt.
    Alloc(usize),
    /// A free-list push: a pool slot (or chain) free.
    Free(usize),
    /// A lock-free ring push.
    StackPush(usize),
    /// A lock-free ring pop.
    StackPop(usize),
    /// A waiter counted itself as a sleeper on an in-region wait queue
    /// and has not yet re-checked the sequence: the window the sleeper
    /// gate's ordering argument is about (and where a kill leaves the
    /// count high).
    Sleeper(usize),
}

impl SyncEvent {
    /// The address of the structure the event concerns.
    pub fn resource(&self) -> usize {
        match *self {
            SyncEvent::Alloc(r)
            | SyncEvent::Free(r)
            | SyncEvent::StackPush(r)
            | SyncEvent::StackPop(r)
            | SyncEvent::Sleeper(r) => r,
        }
    }

    /// The same event with its resource rewritten to the canonical id.
    fn canonicalized(self) -> Self {
        match self {
            SyncEvent::Alloc(r) => SyncEvent::Alloc(canon(r)),
            SyncEvent::Free(r) => SyncEvent::Free(canon(r)),
            SyncEvent::StackPush(r) => SyncEvent::StackPush(canon(r)),
            SyncEvent::StackPop(r) => SyncEvent::StackPop(canon(r)),
            SyncEvent::Sleeper(r) => SyncEvent::Sleeper(canon(r)),
        }
    }
}

// --- Multi-mapping resource canonicalization ------------------------------
//
// Address-as-identity breaks when one shared region is mapped more than
// once in the same process (`ShmRegion::attach_again`, which backs
// `IpcMpf::attach_view`): the same in-region lock or futex sequence word
// has a different virtual address in every mapping, so a notify issued
// through one view would never match a waiter parked through another and
// a harness would report a bogus deadlock.  `ShmRegion` registers every
// live mapping here, keyed by the backing file's identity; the entry
// points below rewrite any address inside a registered mapping to a
// synthetic id — tag bit 63 (never set in a user-space address), a
// per-region token, and the offset within the region — identical across
// all mappings of that region.

struct RegionSpan {
    base: usize,
    len: usize,
    key: u64,
    token: u64,
}

static REGION_SPANS: Mutex<Vec<RegionSpan>> = Mutex::new(Vec::new());
static NEXT_REGION_TOKEN: AtomicU64 = AtomicU64::new(1);

/// Registers a live mapping of a shared region.  All mappings of the same
/// underlying region must pass the same `key` (e.g. the backing file's
/// device/inode pair); `base`/`len` describe this particular mapping.
pub fn register_region(base: *const u8, len: usize, key: u64) {
    let mut spans = REGION_SPANS.lock().unwrap_or_else(|e| e.into_inner());
    let token = spans
        .iter()
        .find(|s| s.key == key)
        .map(|s| s.token)
        .unwrap_or_else(|| NEXT_REGION_TOKEN.fetch_add(1, Ordering::Relaxed));
    spans.push(RegionSpan {
        base: base as usize,
        len,
        key,
        token,
    });
}

/// Unregisters the mapping at `base`; call before unmapping so a reused
/// address range cannot inherit the old region's identity.
pub fn unregister_region(base: *const u8) {
    let mut spans = REGION_SPANS.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(i) = spans.iter().position(|s| s.base == base as usize) {
        spans.swap_remove(i);
    }
}

/// Rewrites an in-region address to its mapping-independent id; addresses
/// outside every registered mapping (heap primitives) pass through
/// unchanged.  Offsets get 40 bits (regions are nowhere near 1 TiB) and
/// the token the 23 bits above, under the always-set tag bit.
fn canon(resource: usize) -> usize {
    let spans = REGION_SPANS.lock().unwrap_or_else(|e| e.into_inner());
    for s in spans.iter() {
        if resource >= s.base && resource - s.base < s.len {
            return (1 << 63) | ((s.token as usize & 0x7F_FFFF) << 40) | (resource - s.base);
        }
    }
    resource
}

/// The scheduler interface a harness implements.
///
/// Contract for implementations:
///
/// * `lock_acquire` must call `try_lock` until it returns `true` and only
///   then return; between failed attempts it should deschedule the calling
///   logical process until `lock_release` fires for the same resource.
/// * `wait` must return only once `ready` returns `true`, descheduling
///   the caller between checks until `notify` fires for the resource.  `ready` is re-checked after every wake, so the
///   sequence-count protocol's "no lost wakeups" property is preserved.
/// * `yield_point`, `lock_release` and `notify` are preemption
///   opportunities; the hook may switch to another logical process before
///   returning.
pub trait SyncHook {
    /// A potential preemption point with no blocking semantics.
    fn yield_point(&self, ev: SyncEvent);
    /// Acquire the lock at `resource` by retrying `try_lock`.
    fn lock_acquire(&self, resource: usize, try_lock: &mut dyn FnMut() -> bool);
    /// The lock at `resource` was just released.
    fn lock_release(&self, resource: usize);
    /// Block until `ready` holds for the wait queue at `resource`.
    fn wait(&self, resource: usize, ready: &mut dyn FnMut() -> bool);
    /// The wait queue at `resource` was notified.
    fn notify(&self, resource: usize);
}

/// Number of hooks installed process-wide; the fast-path gate.
static INSTALLED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static TLS_HOOK: RefCell<Option<Rc<dyn SyncHook>>> = const { RefCell::new(None) };
}

/// True while any thread has a hook installed.  Call sites check this
/// before paying for the thread-local lookup.
#[inline(always)]
pub fn enabled() -> bool {
    INSTALLED.load(Ordering::Relaxed) != 0
}

/// Installs `hook` on the current thread; the returned guard uninstalls it
/// on drop (including on panic, so an aborted exploration run cannot leave
/// a dangling hook behind).
#[must_use = "the hook is uninstalled when the guard drops"]
pub fn install(hook: Rc<dyn SyncHook>) -> HookGuard {
    TLS_HOOK.with(|h| {
        let prev = h.borrow_mut().replace(hook);
        assert!(prev.is_none(), "a sync hook is already installed here");
    });
    INSTALLED.fetch_add(1, Ordering::Relaxed);
    HookGuard { _priv: () }
}

/// Uninstalls the current thread's hook when dropped.
#[derive(Debug)]
pub struct HookGuard {
    _priv: (),
}

impl Drop for HookGuard {
    fn drop(&mut self) {
        let prev = TLS_HOOK.with(|h| h.borrow_mut().take());
        if prev.is_some() {
            INSTALLED.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

#[inline]
fn current() -> Option<Rc<dyn SyncHook>> {
    TLS_HOOK.try_with(|h| h.borrow().clone()).ok().flatten()
}

/// Reports `ev` to the current thread's hook, if any.  Only the gate is
/// inlined: with no hook installed a call site costs one relaxed load.
#[inline(always)]
pub fn yield_point(ev: SyncEvent) {
    if enabled() {
        report(ev);
    }
}

#[cold]
#[inline(never)]
fn report(ev: SyncEvent) {
    if let Some(h) = current() {
        h.yield_point(ev.canonicalized());
    }
}

/// Routes a lock acquisition through the hook.  Returns `true` if a hook
/// handled it (the lock is then held); `false` means the caller must run
/// its normal acquisition path.
#[inline]
pub fn lock_acquire(resource: usize, try_lock: &mut dyn FnMut() -> bool) -> bool {
    if enabled() {
        if let Some(h) = current() {
            h.lock_acquire(canon(resource), try_lock);
            return true;
        }
    }
    false
}

/// Reports a lock release to the hook, if any.
#[inline]
pub fn lock_release(resource: usize) {
    if enabled() {
        if let Some(h) = current() {
            h.lock_release(canon(resource));
        }
    }
}

/// Routes a blocking wait through the hook.  Returns `true` if a hook
/// handled it (`ready` then holds); `false` means the caller must run its
/// normal waiting path.
#[inline]
pub fn wait(resource: usize, ready: &mut dyn FnMut() -> bool) -> bool {
    if enabled() {
        if let Some(h) = current() {
            h.wait(canon(resource), ready);
            return true;
        }
    }
    false
}

/// Reports a notify to the hook, if any.
#[inline]
pub fn notify(resource: usize) {
    if enabled() {
        if let Some(h) = current() {
            h.notify(canon(resource));
        }
    }
}

/// A `std::sync::Mutex` that participates in hook scheduling.
///
/// The facility's name registry is an in-process `Mutex`; under the
/// harness an uninstrumented mutex would let a descheduled logical
/// process hold it while the scheduled one blocks on it in the OS —
/// wedging the whole exploration.  This wrapper routes acquisition
/// through [`lock_acquire`] (via `try_lock`) so the harness can model
/// the blocking, and reports the release from its guard.
#[derive(Debug, Default)]
pub struct HookedMutex<T> {
    inner: Mutex<T>,
}

impl<T> HookedMutex<T> {
    /// Creates a new hooked mutex holding `value`.
    pub fn new(value: T) -> Self {
        Self {
            inner: Mutex::new(value),
        }
    }

    /// Acquires the mutex.  Poisoning is shrugged off (callers keep their
    /// data consistent per-operation, as with [`crate::lock::ShmLock`]).
    pub fn lock(&self) -> HookedMutexGuard<'_, T> {
        let resource = self as *const Self as usize;
        if enabled() {
            if let Some(h) = current() {
                let mut slot = None;
                h.lock_acquire(resource, &mut || match self.inner.try_lock() {
                    Ok(g) => {
                        slot = Some(g);
                        true
                    }
                    Err(TryLockError::Poisoned(p)) => {
                        slot = Some(p.into_inner());
                        true
                    }
                    Err(TryLockError::WouldBlock) => false,
                });
                let guard = slot.expect("hook returned without acquiring");
                return HookedMutexGuard {
                    inner: Some(guard),
                    resource,
                };
            }
        }
        HookedMutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
            resource,
        }
    }
}

/// RAII guard for [`HookedMutex`]; reports the release to the hook layer
/// after the underlying mutex is unlocked.
#[derive(Debug)]
pub struct HookedMutexGuard<'a, T> {
    inner: Option<MutexGuard<'a, T>>,
    resource: usize,
}

impl<T> std::ops::Deref for HookedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard already released")
    }
}

impl<T> std::ops::DerefMut for HookedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard already released")
    }
}

impl<T> Drop for HookedMutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real mutex before telling the hook, so the logical
        // process scheduled next can actually take it.
        drop(self.inner.take());
        lock_release(self.resource);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// A recording hook that never deschedules (single-thread smoke).
    struct Recorder {
        events: RefCell<Vec<String>>,
    }

    impl SyncHook for Recorder {
        fn yield_point(&self, ev: SyncEvent) {
            self.events.borrow_mut().push(format!("{ev:?}"));
        }
        fn lock_acquire(&self, _resource: usize, try_lock: &mut dyn FnMut() -> bool) {
            self.events.borrow_mut().push("acquire".into());
            while !try_lock() {
                std::thread::yield_now();
            }
        }
        fn lock_release(&self, _resource: usize) {
            self.events.borrow_mut().push("release".into());
        }
        fn wait(&self, _resource: usize, ready: &mut dyn FnMut() -> bool) {
            self.events.borrow_mut().push("wait".into());
            while !ready() {
                std::thread::yield_now();
            }
        }
        fn notify(&self, _resource: usize) {
            self.events.borrow_mut().push("notify".into());
        }
    }

    #[test]
    fn install_gates_and_uninstalls_on_drop() {
        assert!(!enabled() || INSTALLED.load(Ordering::Relaxed) > 0);
        let hook = Rc::new(Recorder {
            events: RefCell::new(Vec::new()),
        });
        {
            let _g = install(hook.clone());
            assert!(enabled());
            yield_point(SyncEvent::Alloc(1));
            assert_eq!(hook.events.borrow().len(), 1);
        }
        yield_point(SyncEvent::Alloc(2));
        assert_eq!(hook.events.borrow().len(), 1, "uninstalled after drop");
    }

    #[test]
    fn hook_routes_primitives() {
        let hook = Rc::new(Recorder {
            events: RefCell::new(Vec::new()),
        });
        let _g = install(hook.clone());
        let lock = crate::lock::ShmLock::new(crate::lock::LockKind::Spin);
        drop(lock.lock());
        let pool: crate::pool::Pool<u32> = crate::pool::Pool::new(1);
        pool.free(pool.alloc().unwrap());
        // The word reports a notify only while a waiter counts itself
        // asleep: an unhooked peer wakes this thread, then sleeps itself.
        let q = std::sync::Arc::new(crate::waitq::FutexSeq::new());
        let asleep = |q: &crate::waitq::FutexSeq| {
            while q.sleepers() == 0 {
                std::thread::yield_now();
            }
        };
        let peer = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || {
                asleep(&q);
                q.notify_all();
                let t = q.ticket();
                while !q.wait(t, Some(std::time::Duration::from_secs(5))) {}
            })
        };
        q.wait(q.ticket(), None);
        asleep(&q);
        q.notify_all();
        peer.join().unwrap();
        let evs = hook.events.borrow().clone();
        for want in ["acquire", "release", "wait", "notify"] {
            assert!(evs.iter().any(|e| e == want), "{want}: {evs:?}");
        }
        for want in ["Alloc(", "Free(", "Sleeper("] {
            assert!(evs.iter().any(|e| e.starts_with(want)), "{want}: {evs:?}");
        }
    }

    /// Two registered mappings of the same region key resolve an address
    /// at the same offset to the same canonical id; unregistered
    /// addresses pass through untouched.
    #[test]
    fn aliased_mappings_share_resource_ids() {
        struct Capture {
            seen: RefCell<Vec<usize>>,
        }
        impl SyncHook for Capture {
            fn yield_point(&self, _ev: SyncEvent) {}
            fn lock_acquire(&self, _r: usize, try_lock: &mut dyn FnMut() -> bool) {
                while !try_lock() {}
            }
            fn lock_release(&self, _r: usize) {}
            fn wait(&self, _r: usize, ready: &mut dyn FnMut() -> bool) {
                while !ready() {}
            }
            fn notify(&self, resource: usize) {
                self.seen.borrow_mut().push(resource);
            }
        }
        let a = vec![0u8; 128].into_boxed_slice();
        let b = vec![0u8; 128].into_boxed_slice();
        register_region(a.as_ptr(), 128, 0xD00D_F00D);
        register_region(b.as_ptr(), 128, 0xD00D_F00D);
        let hook = Rc::new(Capture {
            seen: RefCell::new(Vec::new()),
        });
        {
            let _g = install(hook.clone());
            notify(a.as_ptr() as usize + 40);
            notify(b.as_ptr() as usize + 40);
            notify(0x1000);
        }
        unregister_region(a.as_ptr());
        unregister_region(b.as_ptr());
        let seen = hook.seen.borrow();
        assert_eq!(seen[0], seen[1], "same offset, same region → same id");
        assert_ne!(seen[0], a.as_ptr() as usize + 40, "rewritten, not raw");
        assert_ne!(seen[0] & (1 << 63), 0, "canonical ids carry the tag bit");
        assert_eq!(seen[2], 0x1000, "non-region addresses pass through");
    }

    #[test]
    fn hooked_mutex_roundtrip_without_hook() {
        let m = HookedMutex::new(AtomicU32::new(0));
        m.lock().store(7, Ordering::Relaxed);
        assert_eq!(m.lock().load(Ordering::Relaxed), 7);
    }

    #[test]
    fn hooked_mutex_routes_through_hook() {
        let hook = Rc::new(Recorder {
            events: RefCell::new(Vec::new()),
        });
        let _g = install(hook.clone());
        let m = HookedMutex::new(3u32);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 4);
        let evs = hook.events.borrow().clone();
        assert!(evs.iter().filter(|e| *e == "acquire").count() >= 2);
        assert!(evs.iter().filter(|e| *e == "release").count() >= 1);
    }
}
