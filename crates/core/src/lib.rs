//! # MPF — a portable message passing facility for shared memory multiprocessors
//!
//! Reproduction of *Malony, Reed, McGuire, "MPF: A Portable Message Passing
//! Facility for Shared Memory Multiprocessors", ICPP 1987*.
//!
//! MPF's communication abstraction is the **logical, named virtual circuit**
//! (LNVC): a named conversation that parallel processes join and leave at
//! will.  Messages are directed *to the conversation*, not to individual
//! participants.  Each receiver declares a protocol when it joins:
//!
//! * **FCFS** — first-come, first-served: every message is delivered to
//!   exactly one FCFS receiver (a work queue).
//! * **BROADCAST** — every broadcast receiver sees every message, in the
//!   single time-order the LNVC imposes (a lecture).
//!
//! Both kinds may coexist on one LNVC: a message then goes to *all*
//! broadcast receivers and exactly *one* FCFS receiver (paper §1, Figure 1).
//!
//! ## The eight primitives
//!
//! The paper's C interface maps 1:1 onto [`Mpf`] methods (and onto the
//! `mpf_*` C ABI the `mpf-ipc` crate exports over the same engine).  Each
//! is `mpf.view(pid)?` — the engine's handle for that process, an
//! [`IpcMpf`] — calling its method of the same name, with the same result:
//!
//! | paper | here | waits? |
//! |---|---|---|
//! | `init(maxLNVCs, maxProcesses)` | [`Mpf::init`] / [`MpfConfig::new`] | — |
//! | `open_send(pid, name)` | [`Mpf::open_send`] | no |
//! | `open_receive(pid, name, protocol)` | [`Mpf::open_receive`] | no |
//! | `close_send(pid, id)` | [`Mpf::close_send`] | no |
//! | `close_receive(pid, id)` | [`Mpf::close_receive`] | no |
//! | `message_send(pid, id, buf, len)` | [`Mpf::message_send`] | no: a full region is `MessagesExhausted` / `BlocksExhausted` |
//! | `message_receive(pid, id, buf, len)` | [`Mpf::message_receive`] | yes, for a message |
//! | `check_receive(pid, id)` | [`Mpf::check_receive`] | no |
//!
//! `message_send` is asynchronous (the sender continues before delivery);
//! `message_receive` blocks until a message arrives.  The send that waits
//! for room is the view's `send_deadline(id, buf, None)`; deadlines,
//! try-forms, multi-conversation waits and zero-copy scans are the view's
//! too.  A higher-level RAII API lives in [`handle`]; its `Sender::send`
//! waits for room.
//!
//! ## Implementation shape (paper §3)
//!
//! All shared state lives in fixed pools sized at `init` time: message
//! headers, linked *message blocks* (default payload 10 bytes, the paper's
//! experimental value), LNVC descriptors, and send/receive connection
//! descriptors, all linked into free lists when not in use.  An LNVC
//! descriptor holds a FIFO message queue, a tail pointer for senders, a
//! *shared* head pointer for FCFS receivers, an *individual* head pointer
//! per broadcast receiver, the connection lists, and a lock (Figure 2).
//!
//! ## Beyond the paper's §4
//!
//! §5 sketches restricted, faster variants.  [`sync_channel::Rendezvous`]
//! is the synchronous, single-copy one.  One-to-one is a state of a
//! conversation: while it has one sender and one FCFS receiver, messages
//! pass through a ring in the region and neither end takes its lock.
//!
//! ## Quick start
//!
//! ```
//! use mpf::{Mpf, MpfConfig, Protocol, ProcessId};
//!
//! let mpf = Mpf::init(MpfConfig::new(8, 4)).unwrap();
//! let p1 = ProcessId::from_index(0);
//! let p2 = ProcessId::from_index(1);
//!
//! let lnvc = mpf.open_send(p1, "greetings").unwrap();
//! let rx = mpf.open_receive(p2, "greetings", Protocol::Fcfs).unwrap();
//!
//! mpf.message_send(p1, lnvc, b"hello, conversation").unwrap();
//! let mut buf = [0u8; 64];
//! let n = mpf.message_receive(p2, rx, &mut buf).unwrap();
//! assert_eq!(&buf[..n], b"hello, conversation");
//!
//! mpf.close_send(p1, lnvc).unwrap();
//! mpf.close_receive(p2, rx).unwrap();
//! ```

pub mod config;
pub mod engine;
pub mod error;
pub mod facility;
pub mod handle;
pub mod inspect;
pub mod layout;
pub mod shmem;
pub mod spec;
pub mod sync_channel;
pub mod types;

pub use config::MpfConfig;
pub use engine::{AttachError, IpcMpf};
pub use error::{MpfError, Result};
pub use facility::Mpf;
pub use handle::{Receiver, Sender};
pub use types::{AioCompletion, AioStats, LnvcId, LnvcName, Protocol, Reclaimable, MAX_NAME_LEN};

pub use mpf_shm::process::ProcessId;
