//! # mpf-shm — shared-memory multiprocessor substrate
//!
//! MPF (Malony, Reed, McGuire; ICPP 1987) is "completely portable between
//! shared memory multiprocessors that provide locking and memory sharing
//! between concurrently executing processes."  This crate is that substrate,
//! built from scratch in safe-by-construction Rust:
//!
//! * [`region::ShmRegion`] — the shared region itself: a named, `mmap`ed
//!   OS shared-memory file any process can attach, or anonymous pages for
//!   the threads of one process.  On the Sequent Balance 21000 the MPF
//!   shared region was a range of physical memory mapped into each Unix
//!   process at a potentially different virtual address, so every internal
//!   link had to be position independent.  We keep that discipline: all
//!   cross-"process" references in this workspace are `u32` slot indices.
//! * The three protocols the engine runs on, each implemented once:
//!   [`freelist::FreeHead`] (a Treiber free list of index chains with an
//!   ABA tag), [`lock::IpcLock`] (a futex mutex with holder identity and
//!   dead-holder recovery) and [`waitq::FutexSeq`] (a sequence-count wait
//!   word with a sleeper gate); [`futex`] is the cross-process
//!   wait/notify beneath the last two.
//! * Thin shims over them for heap users: [`pool::Pool`] (typed slots
//!   over a [`freelist::FreeHead`]) and [`waitq::WaitQueue`] (a
//!   [`waitq::FutexSeq`] waited on by spinning, yielding or sleeping —
//!   ablation A3; the restricted §5 channels use it).
//! * [`lock::ShmLock`] — the 1987 substrate's busy-wait locks side by
//!   side: test-and-test-and-set with exponential backoff (the Balance's
//!   ALM atomic-lock-memory equivalent) and a FIFO ticket lock, selectable
//!   at run time (ablation A2 times them against [`lock::IpcLock`]).
//! * [`hooks`] — the sync-event hook layer: every lock, wait queue, pool
//!   and free list reports to an optional thread-local [`hooks::SyncHook`],
//!   the seam the `mpf-check` schedule-exploration harness drives.
//! * [`process`] — the paper's "group of Unix processes" realized as scoped
//!   OS threads carrying [`process::ProcessId`]s.
//! * [`barrier::SpinBarrier`] — sense-reversing barrier used by the
//!   shared-memory baseline applications and the benchmark harness.
//!
//! * [`sys`] — a four-syscall layer (`mmap`/`munmap`/`futex`/`kill`) with
//!   portable fallbacks; the workspace builds with no external crates.
//! * [`ring::AioRing`] — io_uring-style SPSC descriptor ring with a batch
//!   counter, the substrate of the engine's batched sends and receives.
//!
//! Nothing in this crate knows about messages or LNVCs; it only provides
//! "shared memory allocation and synchronization", the two facilities the
//! paper names as its portability boundary.

pub mod backoff;
pub mod barrier;
pub mod clock;
pub mod faultplane;
pub mod freelist;
pub mod futex;
pub mod hooks;
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

pub use backoff::Backoff;
pub use barrier::SpinBarrier;
pub use faultplane::{FaultConfig, FaultGuard, FaultSite, FaultStats};
pub use freelist::{FreeHead, NIL};
pub use hooks::{HookGuard, HookedMutex, SyncEvent, SyncHook};
pub use lock::{IpcAcquire, IpcLock, LockKind, ShmLock, ShmLockGuard};
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
