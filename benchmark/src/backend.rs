//! The two backends behind one harness-side seam, so each workload and
//! probe is written once and run on both.
//!
//! * `thread` — one `mpf::Mpf`, a peer is a `ProcessId`;
//! * `ipc` — one `IpcMpf::create`d region, a peer is an `attach_view` of
//!   it in this same process (a second mapping and a second process slot,
//!   which is what a second OS process would hold).
//!
//! Only public library API is called.  The seam adds nothing but the
//! `pid` argument the thread backend wants.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mpf::{AioCompletion, AioStats, LnvcId, Mpf, MpfConfig, ProcessId, Protocol, Result};
use mpf_aio::{AsyncIpc, AsyncMpf};
use mpf_ipc::{IpcLnvcId, IpcMpf};
use mpf_serve::{IpcTransport, ThreadTransport, Transport};
use mpf_shm::telemetry::TelSnapshot;
use mpf_shm::waitq::WaitStrategy;

/// The pools every workload runs on: 256-byte blocks (a 16 KiB message is
/// a 64-block chain), room for a 32-message batch of any workload size,
/// and eight process slots.  Observability is whatever `MpfConfig::new`
/// defaults to, because that is what a user gets.
pub fn config() -> MpfConfig {
    MpfConfig::new(32, 8)
        .with_block_payload(256)
        .with_total_blocks(4096)
        .with_max_messages(512)
        .with_max_connections(64)
        .with_wait_strategy(WaitStrategy::Park)
}

/// The same pools with telemetry and causal tracing off, for the
/// `obs.*.on_off_ratio` probe.
pub fn config_obs_off() -> MpfConfig {
    config().with_telemetry(false).trace_sample_rate(0)
}

/// Span names of one backend's layers.
pub struct Names {
    pub send: &'static str,
    pub recv: &'static str,
    pub send_batch: &'static str,
    pub recv_batch: &'static str,
    pub submit: &'static str,
    pub drain: &'static str,
    pub reap: &'static str,
    pub call: &'static str,
}

/// One participant: what a process holds on either backend.
pub trait Peer: Send + Sync + 'static {
    type Id: Copy + Send + Sync + 'static;

    fn open_send(&self, name: &str) -> Result<Self::Id>;
    fn open_receive(&self, name: &str, protocol: Protocol) -> Result<Self::Id>;
    fn close_send(&self, id: Self::Id) -> Result<()>;
    fn close_receive(&self, id: Self::Id) -> Result<()>;
    fn send(&self, id: Self::Id, buf: &[u8]) -> Result<()>;
    fn recv(&self, id: Self::Id, buf: &mut [u8]) -> Result<usize>;
    fn check_receive(&self, id: Self::Id) -> Result<bool>;
    fn send_batch(&self, id: Self::Id, payloads: &[&[u8]]) -> Result<Vec<AioCompletion>>;
    fn send_batch_deadline(
        &self,
        id: Self::Id,
        payloads: &[&[u8]],
        deadline: Instant,
    ) -> Result<Vec<AioCompletion>>;
    fn recv_batch(&self, id: Self::Id, max: usize) -> Result<Vec<Vec<u8>>>;
    fn submit_sends(&self, id: Self::Id, payloads: &[&[u8]]) -> Result<usize>;
    fn drain_sends(&self) -> Result<usize>;
    fn reap_completions(&self, out: &mut Vec<AioCompletion>) -> Result<usize>;
    fn aio_stats(&self) -> Result<AioStats>;
}

/// One facility instance and its peers.
pub trait Backend: Sized + 'static {
    type P: Peer;
    type T: Transport;

    /// `thread` / `ipc`: prefix of the end-to-end metrics.
    const TAG: &'static str;
    /// `core` / `ipc`: the module that implements the protocol.
    const LAYER: &'static str;
    const NAMES: Names;

    /// Builds the facility and `peers` participants.
    fn build(cfg: &MpfConfig, peers: usize) -> (Self, Vec<Arc<Self::P>>);
    /// Wraps a peer for `mpf-serve` (starts its reactor thread).
    fn transport(peer: &Arc<Self::P>) -> Arc<Self::T>;
    /// Facility-wide telemetry counters.
    fn telemetry(&self) -> TelSnapshot;
    /// After every connection is closed: nothing may be left behind.
    fn conservation(&self) -> std::result::Result<(), String>;
}

// ----------------------------------------------------------------------
// thread
// ----------------------------------------------------------------------

pub struct ThreadPeer {
    mpf: Arc<Mpf>,
    pid: ProcessId,
}

impl Peer for ThreadPeer {
    type Id = LnvcId;

    fn open_send(&self, name: &str) -> Result<LnvcId> {
        self.mpf.open_send(self.pid, name)
    }
    fn open_receive(&self, name: &str, protocol: Protocol) -> Result<LnvcId> {
        self.mpf.open_receive(self.pid, name, protocol)
    }
    fn close_send(&self, id: LnvcId) -> Result<()> {
        self.mpf.close_send(self.pid, id)
    }
    fn close_receive(&self, id: LnvcId) -> Result<()> {
        self.mpf.close_receive(self.pid, id)
    }
    #[inline]
    fn send(&self, id: LnvcId, buf: &[u8]) -> Result<()> {
        self.mpf.message_send(self.pid, id, buf)
    }
    #[inline]
    fn recv(&self, id: LnvcId, buf: &mut [u8]) -> Result<usize> {
        self.mpf.message_receive(self.pid, id, buf)
    }
    fn check_receive(&self, id: LnvcId) -> Result<bool> {
        self.mpf.check_receive(self.pid, id)
    }
    fn send_batch(&self, id: LnvcId, payloads: &[&[u8]]) -> Result<Vec<AioCompletion>> {
        self.mpf.send_batch(self.pid, id, payloads)
    }
    fn send_batch_deadline(
        &self,
        id: LnvcId,
        payloads: &[&[u8]],
        deadline: Instant,
    ) -> Result<Vec<AioCompletion>> {
        self.mpf
            .send_batch_deadline(self.pid, id, payloads, Some(deadline))
    }
    fn recv_batch(&self, id: LnvcId, max: usize) -> Result<Vec<Vec<u8>>> {
        self.mpf.recv_batch(self.pid, id, max)
    }
    fn submit_sends(&self, id: LnvcId, payloads: &[&[u8]]) -> Result<usize> {
        self.mpf.submit_sends(self.pid, id, payloads)
    }
    fn drain_sends(&self) -> Result<usize> {
        self.mpf.drain_sends(self.pid)
    }
    fn reap_completions(&self, out: &mut Vec<AioCompletion>) -> Result<usize> {
        self.mpf.reap_completions(self.pid, out)
    }
    fn aio_stats(&self) -> Result<AioStats> {
        self.mpf.aio_stats(self.pid)
    }
}

pub struct ThreadWorld {
    mpf: Arc<Mpf>,
}

impl Backend for ThreadWorld {
    type P = ThreadPeer;
    type T = ThreadTransport;

    const TAG: &'static str = "thread";
    const LAYER: &'static str = "core";
    const NAMES: Names = Names {
        send: "core.send",
        recv: "core.recv",
        send_batch: "aio.thread.send_batch",
        recv_batch: "aio.thread.recv_batch",
        submit: "aio.thread.submit",
        drain: "aio.thread.drain",
        reap: "aio.thread.reap",
        call: "serve.thread.call",
    };

    fn build(cfg: &MpfConfig, peers: usize) -> (Self, Vec<Arc<ThreadPeer>>) {
        let mpf = Arc::new(Mpf::init(cfg.clone()).expect("Mpf::init"));
        let peers = (0..peers)
            .map(|i| {
                Arc::new(ThreadPeer {
                    mpf: Arc::clone(&mpf),
                    pid: ProcessId::from_index(i),
                })
            })
            .collect();
        (ThreadWorld { mpf }, peers)
    }

    fn transport(peer: &Arc<ThreadPeer>) -> Arc<ThreadTransport> {
        Arc::new(ThreadTransport(AsyncMpf::new(
            Arc::clone(&peer.mpf),
            peer.pid,
        )))
    }

    fn telemetry(&self) -> TelSnapshot {
        self.mpf.telemetry_snapshot()
    }

    fn conservation(&self) -> std::result::Result<(), String> {
        let (live, free, total) = (
            self.mpf.live_lnvcs(),
            self.mpf.free_blocks(),
            self.mpf.config().total_blocks,
        );
        let rec = self.mpf.reclaimable();
        if live != 0 || free != total || rec.messages != 0 || rec.blocks != 0 {
            return Err(format!(
                "thread: live_lnvcs={live} free_blocks={free}/{total} reclaimable={rec:?}"
            ));
        }
        self.mpf.check_invariants()
    }
}

// ----------------------------------------------------------------------
// ipc
// ----------------------------------------------------------------------

pub struct IpcPeer(Arc<IpcMpf>);

impl Peer for IpcPeer {
    type Id = IpcLnvcId;

    fn open_send(&self, name: &str) -> Result<IpcLnvcId> {
        self.0.open_send(name)
    }
    fn open_receive(&self, name: &str, protocol: Protocol) -> Result<IpcLnvcId> {
        self.0.open_receive(name, protocol)
    }
    fn close_send(&self, id: IpcLnvcId) -> Result<()> {
        self.0.close_send(id)
    }
    fn close_receive(&self, id: IpcLnvcId) -> Result<()> {
        self.0.close_receive(id)
    }
    #[inline]
    fn send(&self, id: IpcLnvcId, buf: &[u8]) -> Result<()> {
        self.0.message_send(id, buf)
    }
    #[inline]
    fn recv(&self, id: IpcLnvcId, buf: &mut [u8]) -> Result<usize> {
        self.0.message_receive(id, buf)
    }
    fn check_receive(&self, id: IpcLnvcId) -> Result<bool> {
        self.0.check_receive(id)
    }
    fn send_batch(&self, id: IpcLnvcId, payloads: &[&[u8]]) -> Result<Vec<AioCompletion>> {
        self.0.send_batch(id, payloads)
    }
    fn send_batch_deadline(
        &self,
        id: IpcLnvcId,
        payloads: &[&[u8]],
        deadline: Instant,
    ) -> Result<Vec<AioCompletion>> {
        self.0.send_batch_deadline(id, payloads, Some(deadline))
    }
    fn recv_batch(&self, id: IpcLnvcId, max: usize) -> Result<Vec<Vec<u8>>> {
        self.0.recv_batch(id, max)
    }
    fn submit_sends(&self, id: IpcLnvcId, payloads: &[&[u8]]) -> Result<usize> {
        self.0.submit_sends(id, payloads)
    }
    fn drain_sends(&self) -> Result<usize> {
        Ok(self.0.drain_sends())
    }
    fn reap_completions(&self, out: &mut Vec<AioCompletion>) -> Result<usize> {
        Ok(self.0.reap_completions(out))
    }
    fn aio_stats(&self) -> Result<AioStats> {
        Ok(self.0.aio_stats())
    }
}

/// Names of the regions this process created and has not dropped yet, so
/// that a panic can still unlink them (see [`unlink_regions`]).
static REGIONS: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Removes every region file this process still has registered.  The
/// creator's `Drop` already unlinks on a normal exit; this covers a panic
/// on a thread that does not own the creator.
pub fn unlink_regions() {
    let names = std::mem::take(&mut *REGIONS.lock().unwrap_or_else(|e| e.into_inner()));
    for name in names {
        let _ = std::fs::remove_file(mpf_shm::region::region_path(&name));
    }
}

pub struct IpcWorld {
    /// The creator's view: owns the region name and unlinks it on drop.
    creator: Arc<IpcMpf>,
    name: String,
    total_blocks: u32,
}

impl Backend for IpcWorld {
    type P = IpcPeer;
    type T = IpcTransport;

    const TAG: &'static str = "ipc";
    const LAYER: &'static str = "ipc";
    const NAMES: Names = Names {
        send: "ipc.send",
        recv: "ipc.recv",
        send_batch: "aio.ipc.send_batch",
        recv_batch: "aio.ipc.recv_batch",
        submit: "aio.ipc.submit",
        drain: "aio.ipc.drain",
        reap: "aio.ipc.reap",
        call: "serve.ipc.call",
    };

    fn build(cfg: &MpfConfig, peers: usize) -> (Self, Vec<Arc<IpcPeer>>) {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        // The harness pid makes the name ours; the serial keeps the
        // several worlds of one run apart.
        let name = format!(
            "bench-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        );
        let creator = Arc::new(IpcMpf::create(&name, cfg).expect("IpcMpf::create"));
        REGIONS
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(name.clone());
        let mut out = vec![Arc::new(IpcPeer(Arc::clone(&creator)))];
        for _ in 1..peers {
            let view = creator.attach_view().expect("attach_view");
            out.push(Arc::new(IpcPeer(Arc::new(view))));
        }
        let world = IpcWorld {
            creator,
            name,
            total_blocks: cfg.total_blocks,
        };
        (world, out)
    }

    fn transport(peer: &Arc<IpcPeer>) -> Arc<IpcTransport> {
        Arc::new(IpcTransport(AsyncIpc::new(Arc::clone(&peer.0))))
    }

    fn telemetry(&self) -> TelSnapshot {
        self.creator.telemetry_snapshot()
    }

    fn conservation(&self) -> std::result::Result<(), String> {
        let (live, free) = (self.creator.live_lnvcs(), self.creator.free_blocks());
        let rec = self.creator.reclaimable();
        if live != 0 || free != self.total_blocks || rec.messages != 0 || rec.blocks != 0 {
            return Err(format!(
                "ipc: live_lnvcs={live} free_blocks={free}/{} reclaimable={rec:?}",
                self.total_blocks
            ));
        }
        Ok(())
    }
}

impl Drop for IpcWorld {
    fn drop(&mut self) {
        // The creator's own drop unlinks when the last Arc goes; the file
        // is removed here regardless, in case a peer outlives the world.
        let _ = std::fs::remove_file(mpf_shm::region::region_path(&self.name));
        REGIONS
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|n| n != &self.name);
    }
}
