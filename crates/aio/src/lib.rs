//! # mpf-aio — waker-based async API for MPF
//!
//! The paper's primitives block the calling process; a 2020s program
//! wants to `await` them.  This crate adds that surface without touching
//! the facilities' internals and without any external dependency:
//!
//! * [`AsyncIpc`] wraps an engine view — a process's `IpcMpf`, or one
//!   logical process of an `mpf::Mpf` ([`AsyncMpf::new`]) — with
//!   [`AsyncIpc::recv`], [`AsyncIpc::send`], and [`AsyncIpc::select_any`]
//!   futures;
//! * from its first pending future on, each facade owns one **reactor**
//!   thread whose single waiter multiplexes every registered conversation
//!   over the existing futex/waitq layer — futures take a signal ticket
//!   *before* their non-blocking attempt, so a message landing between the
//!   attempt and the registration can delay a wake but never lose one.  A
//!   facade that never pends (`mpf-serve`'s transport blocks in the engine
//!   itself) owns no thread;
//! * [`block_on`] and [`Executor`] are a tiny std-only driver pair —
//!   enough to run the futures without pulling in an async runtime.
//!
//! Batched submission/completion rings (the other half of the amortised
//! I/O story) live on the engine view itself: `IpcMpf::send_batch` and
//! friends (`Mpf::send_batch` is the same call on `mpf.view(pid)?`).
//!
//! ```
//! use std::sync::Arc;
//! use mpf::{Mpf, MpfConfig, ProcessId, Protocol};
//! use mpf_aio::{block_on, AsyncMpf};
//!
//! let m = Arc::new(Mpf::init(MpfConfig::new(8, 4)).unwrap());
//! let a = AsyncMpf::new(Arc::clone(&m), ProcessId::from_index(0));
//! let b = AsyncMpf::new(m, ProcessId::from_index(1));
//!
//! let tx = a.facility().open_send("chat").unwrap();
//! let rx = b.facility().open_receive("chat", Protocol::Fcfs).unwrap();
//!
//! block_on(async {
//!     a.send(tx, b"hello".to_vec()).await.unwrap();
//!     assert_eq!(b.recv(rx).await.unwrap(), b"hello");
//! });
//! ```

pub mod exec;
pub mod facility;
pub mod reactor;

pub use exec::{block_on, Executor, JoinHandle};
pub use facility::{AsyncIpc, AsyncMpf, Deadline, RecvFuture, SelectAny, SendFuture};
