//! # mpf-shm — shared-memory multiprocessor substrate
//!
//! MPF (Malony, Reed, McGuire; ICPP 1987) is "completely portable between
//! shared memory multiprocessors that provide locking and memory sharing
//! between concurrently executing processes."  This crate is that substrate,
//! built from scratch in safe-by-construction Rust:
//!
//! * [`arena::StridedArena`] — a fixed shared byte region carved into
//!   equal-size slots, addressed by **index, not pointer**.  On the Sequent
//!   Balance 21000 the MPF shared region was a range of physical memory
//!   mapped into each Unix process at a potentially different virtual
//!   address, so every internal link had to be position independent.  We
//!   keep that discipline: all cross-"process" references in this workspace
//!   are `u32` slot indices.
//! * [`pool::Pool`] — typed slot pools with a lock-free free list, the
//!   "free list of linked message blocks … created in shared memory" of the
//!   paper's §3.1.
//! * [`idxstack::IndexStack`] — the free list itself: a Treiber stack over
//!   slot indices with an ABA tag.
//! * [`lock::ShmLock`] — the synchronization primitive: test-and-test-and-set
//!   spin lock with exponential backoff (the Balance's ALM atomic-lock-memory
//!   equivalent), a FIFO ticket lock, and an OS mutex, selectable at run time
//!   (ablation A2 in DESIGN.md).
//! * [`waitq::WaitQueue`] — wait/notify used by the blocking
//!   `message_receive()`; spin, yield, park and futex strategies
//!   (ablation A3).
//! * [`hooks`] — the sync-event hook layer: every lock, wait queue, pool
//!   and free list reports to an optional thread-local [`hooks::SyncHook`],
//!   the seam the `mpf-check` schedule-exploration harness drives.
//! * [`process`] — the paper's "group of Unix processes" realized as scoped
//!   OS threads carrying [`process::ProcessId`]s.
//! * [`barrier::SpinBarrier`] — sense-reversing barrier used by the
//!   shared-memory baseline applications and the benchmark harness.
//!
//! The genuine multi-process substrate lives here too:
//!
//! * [`sys`] — a four-syscall layer (`mmap`/`munmap`/`futex`/`kill`) with
//!   portable fallbacks; the workspace builds with no external crates.
//! * [`region::ShmRegion`] — a named, `mmap`ed OS shared-memory region
//!   any process can attach.
//! * [`futex`] — cross-process wait/notify on shared words.
//! * [`lock::FutexLock`] / [`lock::IpcLock`] — `#[repr(C)]` in-region
//!   locks; `IpcLock` adds holder identity and dead-peer recovery.
//! * [`waitq::FutexSeq`] — the in-region wait queue.
//! * [`ring::AioRing`] — io_uring-style SPSC descriptor ring with a futex
//!   doorbell, the substrate of the batched/async `mpf-aio` layer.
//!
//! Nothing in this crate knows about messages or LNVCs; it only provides
//! "shared memory allocation and synchronization", the two facilities the
//! paper names as its portability boundary.

pub mod arena;
pub mod backoff;
pub mod barrier;
pub mod clock;
pub mod faultplane;
pub mod futex;
pub mod hooks;
pub mod idxstack;
pub mod lock;
pub mod pad;
pub mod pool;
pub mod process;
pub mod region;
pub mod ring;
pub mod rng;
pub mod sys;
pub mod telemetry;
pub mod tracering;
pub mod waitq;

pub use arena::StridedArena;
pub use backoff::Backoff;
pub use barrier::SpinBarrier;
pub use faultplane::{FaultConfig, FaultGuard, FaultSite, FaultStats};
pub use hooks::{HookGuard, HookedMutex, SyncEvent, SyncHook};
pub use idxstack::{IndexStack, NIL};
pub use lock::{FutexLock, IpcAcquire, IpcLock, LockKind, ShmLock, ShmLockGuard};
pub use pad::CachePadded;
pub use pool::Pool;
pub use process::{run_processes, run_processes_collect, ProcessId};
pub use region::ShmRegion;
pub use ring::{AioRing, RingEntry, AIO_RING_BYTES, AIO_RING_ENTRY_BYTES, AIO_RING_SLOTS};
pub use rng::SmallRng;
pub use telemetry::{
    FacilityTelemetry, HistSnapshot, Histogram, LnvcTelSnapshot, LnvcTelemetry, TelSnapshot,
};
pub use tracering::{TraceEvent, TraceRing, TRACE_RING_BYTES, TRACE_RING_SLOTS};
pub use waitq::{FutexSeq, WaitQueue, WaitStrategy};
