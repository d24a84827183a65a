//! # mpf-ipc — MPF over a genuine OS shared-memory region
//!
//! The paper ran MPF as "a group of Unix processes" sharing one region of
//! physical memory on the Sequent Balance 21000.  The protocol engine
//! lives in `mpf-core` ([`mpf::engine`]; `mpf::Mpf` runs it for threads on
//! an anonymous region); this crate is its multi-process face — the named
//! create/attach surface re-exported and a C ABI:
//!
//! * [`IpcMpf::create`] mmaps a named region (`/dev/shm/mpf-region-<name>`)
//!   and carves it per [`mpf::layout::RegionLayout::for_config`] — a
//!   header with magic/layout-version/config echo, per-process heartbeat
//!   slots, then the descriptor pools and block store, all addressed by
//!   `u32` index so the region works at any base address;
//! * any other process [`IpcMpf::attach`]es by name (an init barrier in
//!   the header orders attach after the carve) and the eight primitives
//!   operate directly on the shared bytes, with
//!   [`mpf_shm::IpcLock`]/[`mpf_shm::waitq::FutexSeq`] providing
//!   cross-process mutual exclusion and blocking receive;
//! * a peer that dies mid-conversation is detected (its heartbeat slot
//!   names an OS pid that no longer exists), its held locks are broken,
//!   its connections swept, and the conversations it touched poisoned —
//!   survivors get [`mpf::MpfError::PeerDied`], never a deadlock.
//!
//! [`ffi`] exports the same surface with a C ABI so separately compiled
//! binaries can join a conversation knowing only the region name;
//! `mpf::inspect::RegionInspector` (and the `mpf-trace` binary over it)
//! reads a live or post-mortem region without joining it.

pub mod ffi;
pub use mpf::engine::{AttachError, IpcLnvcId, IpcMpf};
pub use mpf::shmem;
