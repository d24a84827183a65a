//! `Mpf`: the paper's eight primitives for a group of *threads*.
//!
//! The protocol lives in [`crate::engine`] and runs on a carved region.
//! `Mpf` is the engine on an anonymous, process-private region
//! ([`IpcMpf::anon`]) with every process slot claimed up front: a table of
//! views, one per [`ProcessId`], so `mpf.message_send(pid, id, buf)` is
//! `mpf.view(pid)?.message_send(id, buf)` — the same handle, the same
//! result.  Nothing here queues, pools, locks or waits.  `Mpf` spells the
//! paper's primitives and the names the repo benchmark calls; everything
//! else the engine offers (deadlines, try-forms, multi-conversation waits,
//! zero-copy scans, per-conversation telemetry) is on the view.

use std::sync::Arc;
use std::time::Instant;

use mpf_shm::process::ProcessId;
use mpf_shm::telemetry::TelSnapshot;

use crate::config::MpfConfig;
use crate::engine::{AttachError, IpcMpf};
use crate::error::{MpfError, Result};
use crate::types::{AioCompletion, AioStats, LnvcId, Protocol, Reclaimable, MAX_LNVC_INDEX};

/// The message passing facility.  One instance is one shared region;
/// share it among "processes" with `Arc` or scoped borrows.
#[derive(Debug)]
pub struct Mpf {
    cfg: MpfConfig,
    /// `views[i]` holds process slot `i` of the region.
    views: Box<[Arc<IpcMpf>]>,
}

impl Mpf {
    /// The paper's `init()`: allocates and carves the shared region —
    /// every pool and free list — and returns the facility.
    pub fn init(cfg: MpfConfig) -> Result<Self> {
        if cfg.max_lnvcs == 0 || cfg.max_lnvcs > MAX_LNVC_INDEX + 1 || cfg.max_processes == 0 {
            return Err(MpfError::BadInit);
        }
        let attached = |r: std::result::Result<IpcMpf, AttachError>| match r {
            Ok(view) => Ok(Arc::new(view)),
            Err(AttachError::Mpf(e)) => Err(e),
            Err(AttachError::Io(_)) => Err(MpfError::BadInit),
        };
        let mut views = Vec::with_capacity(cfg.max_processes as usize);
        views.push(attached(IpcMpf::anon(&cfg))?);
        for _ in 1..cfg.max_processes {
            let next = attached(views[0].attach_view())?;
            views.push(next);
        }
        debug_assert!(views.iter().enumerate().all(|(i, v)| v.pid() as usize == i));
        Ok(Self {
            cfg,
            views: views.into(),
        })
    }

    /// The configuration this facility was initialized with.
    pub fn config(&self) -> &MpfConfig {
        &self.cfg
    }

    /// The engine's handle for logical process `pid`: every method below
    /// is this view's method of the same name, and the rest of the
    /// engine's surface is reached through it.
    pub fn view(&self, pid: ProcessId) -> Result<&Arc<IpcMpf>> {
        self.views.get(pid.index()).ok_or(MpfError::InvalidProcess)
    }

    /// `open_send(process_id, lnvc_name)`: establishes a send connection,
    /// creating the conversation if needed.  Returns MPF's internal LNVC
    /// identifier for use in `message_send` and `close_send`.
    pub fn open_send(&self, pid: ProcessId, name: &str) -> Result<LnvcId> {
        self.view(pid)?.open_send(name)
    }

    /// `open_receive(process_id, lnvc_name, protocol)`: establishes a
    /// receive connection with the given protocol, creating the
    /// conversation if needed.
    ///
    /// Per the paper's footnote 3, one process cannot hold both FCFS and
    /// BROADCAST receive connections on an LNVC — a second `open_receive`
    /// by the same process fails (with [`MpfError::ProtocolConflict`] if
    /// the protocols differ, [`MpfError::AlreadyConnected`] otherwise).
    pub fn open_receive(&self, pid: ProcessId, name: &str, protocol: Protocol) -> Result<LnvcId> {
        self.view(pid)?.open_receive(name, protocol)
    }

    /// `close_send(process_id, lnvc_id)`: removes the process's send
    /// connection.  The last connection out deletes the conversation:
    /// "the LNVC is deleted and all unread messages are discarded" (§2).
    pub fn close_send(&self, pid: ProcessId, id: LnvcId) -> Result<()> {
        self.view(pid)?.close_send(id)
    }

    /// `close_receive(process_id, lnvc_id)`: removes the process's receive
    /// connection.  For a BROADCAST receiver with unread messages this
    /// performs the paper's §3.2 sweep, releasing the receiver's claim on
    /// every message from its cursor to the tail.
    pub fn close_receive(&self, pid: ProcessId, id: LnvcId) -> Result<()> {
        self.view(pid)?.close_receive(id)
    }

    /// `message_send(process_id, lnvc_id, send_buffer, buffer_length)`:
    /// asynchronous send.  A full region fails at once with
    /// [`MpfError::MessagesExhausted`] / [`MpfError::BlocksExhausted`] and
    /// nothing enqueued; `view(pid)?.send_deadline(id, buf, None)` is the
    /// send that waits for a consumer to free room.
    pub fn message_send(&self, pid: ProcessId, id: LnvcId, buf: &[u8]) -> Result<()> {
        self.view(pid)?.message_send(id, buf)
    }

    /// `message_receive(process_id, lnvc_id, receive_buffer,
    /// buffer_length)`: blocking receive.  Returns the number of bytes
    /// transferred ("buffer_length is set to the number of bytes
    /// transferred").
    pub fn message_receive(&self, pid: ProcessId, id: LnvcId, buf: &mut [u8]) -> Result<usize> {
        self.view(pid)?.message_receive(id, buf)
    }

    /// `check_receive(process_id, lnvc_id)`: true if a message is waiting
    /// for this process.  For BROADCAST the message is then guaranteed to
    /// be present at the next `message_receive`; for FCFS another receiver
    /// may still take it first (the paper's §2 caution).
    pub fn check_receive(&self, pid: ProcessId, id: LnvcId) -> Result<bool> {
        self.view(pid)?.check_receive(id)
    }

    // ------------------------------------------------------------------
    // Batched submission (aio): SQ/CQ rings, one doorbell per batch.
    // ------------------------------------------------------------------

    /// Submit + drain + reap in one pass: one doorbell, one lock hold and
    /// one receiver wake for what the ring and the pools take; a pool or
    /// ring that takes nothing is the typed error
    /// ([`IpcMpf::send_batch`]).  `send_batch_deadline(.., None)` is the
    /// form that waits until the whole batch is sent.
    pub fn send_batch(
        &self,
        pid: ProcessId,
        id: LnvcId,
        payloads: &[&[u8]],
    ) -> Result<Vec<AioCompletion>> {
        self.view(pid)?.send_batch(id, payloads)
    }

    /// [`Self::send_batch`] that resubmits until the whole batch is sent
    /// or `deadline` passes ([`IpcMpf::send_batch_deadline`]).
    pub fn send_batch_deadline(
        &self,
        pid: ProcessId,
        id: LnvcId,
        payloads: &[&[u8]],
        deadline: Option<Instant>,
    ) -> Result<Vec<AioCompletion>> {
        self.view(pid)?.send_batch_deadline(id, payloads, deadline)
    }

    /// Batched blocking receive: waits for traffic, then drains up to
    /// `max` messages under one lock hold with one reclamation pass.
    /// `max == 0` returns an empty batch immediately.
    pub fn recv_batch(&self, pid: ProcessId, id: LnvcId, max: usize) -> Result<Vec<Vec<u8>>> {
        self.view(pid)?.recv_batch(id, max)
    }

    /// Stages up to `payloads.len()` send descriptors in `pid`'s
    /// submission ring and rings its doorbell once
    /// ([`IpcMpf::submit_sends`]): a partial submit when the ring or a
    /// pool runs short, [`MpfError::WouldBlock`] when the ring has no
    /// room at all, the pool's error when it has none.
    pub fn submit_sends(&self, pid: ProcessId, id: LnvcId, payloads: &[&[u8]]) -> Result<usize> {
        self.view(pid)?.submit_sends(id, payloads)
    }

    /// Drains `pid`'s submission ring into the conversations and its
    /// completion ring ([`IpcMpf::drain_sends`]); returns the number
    /// completed.
    pub fn drain_sends(&self, pid: ProcessId) -> Result<usize> {
        Ok(self.view(pid)?.drain_sends())
    }

    /// Reaps every pending completion from `pid`'s CQ into `out`; returns
    /// how many were appended.
    pub fn reap_completions(&self, pid: ProcessId, out: &mut Vec<AioCompletion>) -> Result<usize> {
        Ok(self.view(pid)?.reap_completions(out))
    }

    /// Counters of `pid`'s submission/completion ring pair.
    pub fn aio_stats(&self, pid: ProcessId) -> Result<AioStats> {
        Ok(self.view(pid)?.aio_stats())
    }

    // ------------------------------------------------------------------
    // Region-wide diagnostics: every view answers alike; slot 0's does.
    // ------------------------------------------------------------------

    /// Point-in-time copy of the region telemetry (stays zero when
    /// [`MpfConfig::with_telemetry`] turned recording off).
    pub fn telemetry_snapshot(&self) -> TelSnapshot {
        self.views[0].telemetry_snapshot()
    }

    /// Pool occupancy held by corpses: queued messages that are fully
    /// consumed, awaiting a reclamation sweep.  Locks each descriptor, so
    /// call it at quiescent points.
    pub fn reclaimable(&self) -> Reclaimable {
        self.views[0].reclaimable()
    }

    /// Number of currently existing conversations.
    pub fn live_lnvcs(&self) -> usize {
        self.views[0].live_lnvcs()
    }

    /// Free message blocks (walks the free list: a diagnostic, not a
    /// hot-path flow-control hint).
    pub fn free_blocks(&self) -> u32 {
        self.views[0].free_blocks()
    }

    /// Audits every structural invariant of the facility
    /// ([`IpcMpf::check_invariants`]).  For **quiescent points** only.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        self.views[0].check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facility() -> Mpf {
        Mpf::init(
            MpfConfig::new(8, 8)
                .with_total_blocks(256)
                .with_max_messages(64),
        )
        .unwrap()
    }

    fn p(i: usize) -> ProcessId {
        ProcessId::from_index(i)
    }

    /// Process `i`'s view: where everything past the paper's primitives is.
    fn v(mpf: &Mpf, i: usize) -> &IpcMpf {
        mpf.view(p(i)).unwrap()
    }

    /// A blocking receive into a fresh `Vec`: a batch of one.
    fn recv_vec(mpf: &Mpf, pid: ProcessId, id: LnvcId) -> Vec<u8> {
        mpf.recv_batch(pid, id, 1).unwrap().pop().unwrap()
    }

    #[test]
    fn loopback_send_receive() {
        // The paper's `base` benchmark shape: one process, loop-back LNVC.
        let mpf = facility();
        let tx = mpf.open_send(p(0), "loop").unwrap();
        let rx = mpf.open_receive(p(0), "loop", Protocol::Fcfs).unwrap();
        assert_eq!(tx, rx, "same conversation, same id");
        mpf.message_send(p(0), tx, b"ping").unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(mpf.message_receive(p(0), rx, &mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"ping");
    }

    #[test]
    fn open_creates_close_deletes() {
        let mpf = facility();
        assert_eq!(mpf.live_lnvcs(), 0);
        let id = mpf.open_send(p(0), "chat").unwrap();
        assert_eq!(mpf.live_lnvcs(), 1);
        mpf.close_send(p(0), id).unwrap();
        assert_eq!(mpf.live_lnvcs(), 0);
        // Stale id now rejected.
        assert_eq!(
            mpf.message_send(p(0), id, b"x").unwrap_err(),
            MpfError::UnknownLnvc
        );
    }

    #[test]
    fn unread_messages_discarded_on_delete() {
        let mpf = facility();
        let id = mpf.open_send(p(0), "chat").unwrap();
        mpf.message_send(p(0), id, &[1u8; 100]).unwrap();
        let before = mpf.free_blocks();
        assert!(before < 256);
        mpf.close_send(p(0), id).unwrap();
        assert_eq!(mpf.free_blocks(), 256, "deletion frees all blocks");
    }

    #[test]
    fn fcfs_delivers_each_message_once() {
        let mpf = facility();
        let tx = mpf.open_send(p(0), "q").unwrap();
        let r1 = mpf.open_receive(p(1), "q", Protocol::Fcfs).unwrap();
        let r2 = mpf.open_receive(p(2), "q", Protocol::Fcfs).unwrap();
        mpf.message_send(p(0), tx, b"a").unwrap();
        mpf.message_send(p(0), tx, b"b").unwrap();
        let mut buf = [0u8; 4];
        let n1 = mpf.message_receive(p(1), r1, &mut buf).unwrap();
        let first = buf[..n1].to_vec();
        let n2 = mpf.message_receive(p(2), r2, &mut buf).unwrap();
        let second = buf[..n2].to_vec();
        let mut got = vec![first, second];
        got.sort();
        assert_eq!(got, vec![b"a".to_vec(), b"b".to_vec()]);
        assert!(!mpf.check_receive(p(1), r1).unwrap());
    }

    #[test]
    fn broadcast_delivers_to_all() {
        let mpf = facility();
        let tx = mpf.open_send(p(0), "news").unwrap();
        let r1 = mpf.open_receive(p(1), "news", Protocol::Broadcast).unwrap();
        let r2 = mpf.open_receive(p(2), "news", Protocol::Broadcast).unwrap();
        mpf.message_send(p(0), tx, b"extra extra").unwrap();
        for (pid, rx) in [(p(1), r1), (p(2), r2)] {
            let v = recv_vec(&mpf, pid, rx);
            assert_eq!(v, b"extra extra");
        }
        // Fully consumed: blocks back on the free list.
        assert_eq!(mpf.free_blocks(), 256);
    }

    #[test]
    fn mixed_protocols_fan_out_correctly() {
        let mpf = facility();
        let tx = mpf.open_send(p(0), "mix").unwrap();
        let rf = mpf.open_receive(p(1), "mix", Protocol::Fcfs).unwrap();
        let rb1 = mpf.open_receive(p(2), "mix", Protocol::Broadcast).unwrap();
        let rb2 = mpf.open_receive(p(3), "mix", Protocol::Broadcast).unwrap();
        mpf.message_send(p(0), tx, b"both").unwrap();
        assert_eq!(recv_vec(&mpf, p(1), rf), b"both");
        assert_eq!(recv_vec(&mpf, p(2), rb1), b"both");
        assert_eq!(recv_vec(&mpf, p(3), rb2), b"both");
        assert!(!mpf.check_receive(p(1), rf).unwrap());
    }

    #[test]
    fn check_receive_semantics() {
        let mpf = facility();
        let tx = mpf.open_send(p(0), "c").unwrap();
        let rx = mpf.open_receive(p(1), "c", Protocol::Broadcast).unwrap();
        assert!(!mpf.check_receive(p(1), rx).unwrap());
        mpf.message_send(p(0), tx, b"x").unwrap();
        assert!(mpf.check_receive(p(1), rx).unwrap());
    }

    #[test]
    fn buffer_too_small_leaves_message_queued() {
        let mpf = facility();
        let tx = mpf.open_send(p(0), "big").unwrap();
        let rx = mpf.open_receive(p(1), "big", Protocol::Fcfs).unwrap();
        mpf.message_send(p(0), tx, &[7u8; 100]).unwrap();
        let mut small = [0u8; 10];
        assert_eq!(
            v(&mpf, 1).try_message_receive(rx, &mut small).unwrap_err(),
            MpfError::BufferTooSmall { needed: 100 }
        );
        // Still there; a big enough buffer gets it.
        let v = recv_vec(&mpf, p(1), rx);
        assert_eq!(v.len(), 100);
    }

    #[test]
    fn double_open_rules() {
        let mpf = facility();
        let _tx = mpf.open_send(p(0), "dup").unwrap();
        assert_eq!(
            mpf.open_send(p(0), "dup").unwrap_err(),
            MpfError::AlreadyConnected
        );
        let _rx = mpf.open_receive(p(0), "dup", Protocol::Fcfs).unwrap();
        assert_eq!(
            mpf.open_receive(p(0), "dup", Protocol::Broadcast)
                .unwrap_err(),
            MpfError::ProtocolConflict,
            "paper footnote 3: no process may use both protocols"
        );
        assert_eq!(
            mpf.open_receive(p(0), "dup", Protocol::Fcfs).unwrap_err(),
            MpfError::AlreadyConnected
        );
    }

    #[test]
    fn send_without_connection_rejected() {
        let mpf = facility();
        let tx = mpf.open_send(p(0), "only-mine").unwrap();
        assert_eq!(
            mpf.message_send(p(1), tx, b"x").unwrap_err(),
            MpfError::NotConnected
        );
        let mut buf = [0u8; 4];
        assert_eq!(
            v(&mpf, 0).try_message_receive(tx, &mut buf).unwrap_err(),
            MpfError::NotConnected
        );
    }

    #[test]
    fn invalid_process_rejected() {
        let mpf = facility();
        let too_big = ProcessId::from_index(99);
        assert_eq!(
            mpf.open_send(too_big, "x").unwrap_err(),
            MpfError::InvalidProcess
        );
    }

    #[test]
    fn messages_sent_before_receiver_joins_are_kept_for_fcfs() {
        // §3.2: messages are lost only at LNVC deletion, not merely because
        // no receiver was connected at send time.
        let mpf = facility();
        let tx = mpf.open_send(p(0), "early").unwrap();
        mpf.message_send(p(0), tx, b"waiting for you").unwrap();
        let rx = mpf.open_receive(p(1), "early", Protocol::Fcfs).unwrap();
        assert_eq!(recv_vec(&mpf, p(1), rx), b"waiting for you");
    }

    #[test]
    fn late_broadcast_receiver_misses_earlier_messages() {
        let mpf = facility();
        let tx = mpf.open_send(p(0), "talk").unwrap();
        let _r1 = mpf.open_receive(p(1), "talk", Protocol::Broadcast).unwrap();
        mpf.message_send(p(0), tx, b"before").unwrap();
        let r2 = mpf.open_receive(p(2), "talk", Protocol::Broadcast).unwrap();
        assert!(!mpf.check_receive(p(2), r2).unwrap());
        mpf.message_send(p(0), tx, b"after").unwrap();
        assert_eq!(recv_vec(&mpf, p(2), r2), b"after");
    }

    #[test]
    fn broadcast_close_with_unread_messages_reclaims() {
        let mpf = facility();
        let tx = mpf.open_send(p(0), "v").unwrap();
        let r1 = mpf.open_receive(p(1), "v", Protocol::Broadcast).unwrap();
        let r2 = mpf.open_receive(p(2), "v", Protocol::Broadcast).unwrap();
        for _ in 0..3 {
            mpf.message_send(p(0), tx, &[1u8; 64]).unwrap();
        }
        // r1 reads everything; r2 reads nothing and closes.
        for _ in 0..3 {
            recv_vec(&mpf, p(1), r1);
        }
        assert!(mpf.free_blocks() < 256, "r2's claims pin the messages");
        mpf.close_receive(p(2), r2).unwrap();
        assert_eq!(
            mpf.free_blocks(),
            256,
            "the vexing-problem sweep frees them"
        );
        assert_eq!(mpf.reclaimable(), Reclaimable::default());
        mpf.check_invariants().unwrap();
    }

    #[test]
    fn name_reuse_after_delete_is_fresh() {
        let mpf = facility();
        let id1 = mpf.open_send(p(0), "temp").unwrap();
        mpf.message_send(p(0), id1, b"old").unwrap();
        mpf.close_send(p(0), id1).unwrap();
        let id2 = mpf.open_receive(p(1), "temp", Protocol::Fcfs).unwrap();
        assert_ne!(id1, id2);
        assert!(
            !mpf.check_receive(p(1), id2).unwrap(),
            "old message is gone"
        );
        assert_eq!(
            mpf.close_send(p(0), id1).unwrap_err(),
            MpfError::UnknownLnvc
        );
        mpf.close_receive(p(1), id2).unwrap();
    }

    #[test]
    fn zero_length_messages_flow() {
        let mpf = facility();
        let tx = mpf.open_send(p(0), "z").unwrap();
        let rx = mpf.open_receive(p(1), "z", Protocol::Fcfs).unwrap();
        mpf.message_send(p(0), tx, b"").unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(mpf.message_receive(p(1), rx, &mut buf).unwrap(), 0);
    }

    #[test]
    fn exhaustion_is_a_typed_error() {
        let mpf = Mpf::init(
            MpfConfig::new(2, 2)
                .with_total_blocks(4)
                .with_block_payload(10)
                .with_max_messages(2),
        )
        .unwrap();
        let tx = mpf.open_send(p(0), "full").unwrap();
        mpf.message_send(p(0), tx, &[0u8; 40]).unwrap();
        assert_eq!(
            mpf.message_send(p(0), tx, &[0u8; 10]).unwrap_err(),
            MpfError::BlocksExhausted
        );
        assert_eq!(
            mpf.message_send(p(0), tx, &[0u8; 1000]).unwrap_err(),
            MpfError::MessageTooLarge { len: 1000, max: 40 }
        );
        // Blocks to spare, headers none: the other pool's error.
        let rx = mpf.open_receive(p(1), "full", Protocol::Fcfs).unwrap();
        assert_eq!(recv_vec(&mpf, p(1), rx).len(), 40);
        for _ in 0..2 {
            mpf.message_send(p(0), tx, b"x").unwrap();
        }
        assert_eq!(
            mpf.message_send(p(0), tx, b"x").unwrap_err(),
            MpfError::MessagesExhausted
        );
        mpf.check_invariants().unwrap();
    }

    #[test]
    fn flow_control_unblocks_sender() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let mpf = Mpf::init(
            MpfConfig::new(2, 2)
                .with_total_blocks(4)
                .with_block_payload(10),
        )
        .unwrap();
        let tx = mpf.open_send(p(0), "fc").unwrap();
        let rx = mpf.open_receive(p(1), "fc", Protocol::Fcfs).unwrap();
        mpf.message_send(p(0), tx, &[1u8; 40]).unwrap(); // region full
        let sent_second = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                // The send that waits for room (the plain one fails).
                v(&mpf, 0).send_deadline(tx, &[2u8; 20], None).unwrap();
                sent_second.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(std::time::Duration::from_millis(30));
            assert!(!sent_second.load(Ordering::SeqCst), "sender must block");
            let v = recv_vec(&mpf, p(1), rx);
            assert_eq!(v.len(), 40);
        });
        assert!(sent_second.load(Ordering::SeqCst));
        let v = recv_vec(&mpf, p(1), rx);
        assert_eq!(v, vec![2u8; 20]);
        mpf.check_invariants().unwrap();
    }

    #[test]
    fn blocking_receive_wakes_on_send() {
        let mpf = facility();
        let tx = mpf.open_send(p(0), "wake").unwrap();
        let rx = mpf.open_receive(p(1), "wake", Protocol::Fcfs).unwrap();
        std::thread::scope(|s| {
            let h = s.spawn(|| recv_vec(&mpf, p(1), rx));
            std::thread::sleep(std::time::Duration::from_millis(20));
            mpf.message_send(p(0), tx, b"good morning").unwrap();
            assert_eq!(h.join().unwrap(), b"good morning");
        });
        mpf.check_invariants().unwrap();
    }

    #[test]
    fn telemetry_tracks_traffic_and_latency() {
        let mpf = facility();
        let tx = mpf.open_send(p(0), "tel").unwrap();
        let rx = mpf.open_receive(p(1), "tel", Protocol::Fcfs).unwrap();
        mpf.message_send(p(0), tx, &[0u8; 50]).unwrap();
        mpf.message_send(p(0), tx, &[0u8; 70]).unwrap();
        recv_vec(&mpf, p(1), rx);
        recv_vec(&mpf, p(1), rx);
        let t = mpf.telemetry_snapshot();
        assert_eq!(t.sends, 2);
        assert_eq!(t.receives, 2);
        assert_eq!(t.bytes_in, 120);
        assert_eq!(t.bytes_out, 120);
        assert_eq!(t.lnvcs_created, 1);
        assert_eq!(t.size_hist.count, 2);
        assert_eq!(t.size_hist.sum, 120);
        assert_eq!(t.size_hist.max, 70);
        assert_eq!(t.latency_hist.count, 2, "every delivery samples latency");
        assert!(t.latency_hist.percentile(0.99) >= t.latency_hist.percentile(0.50));
        let lt = v(&mpf, 0).lnvc_telemetry(rx).unwrap();
        assert_eq!(lt.sends, 2);
        assert_eq!(lt.receives, 2);
        assert_eq!(lt.bytes_in, 120);
        assert_eq!(lt.depth_hwm, 2, "both messages were queued at once");
        assert_eq!(lt.latency.count, 2);
    }

    #[test]
    fn telemetry_off_records_nothing() {
        let mpf = Mpf::init(
            MpfConfig::new(4, 4)
                .with_total_blocks(64)
                .with_telemetry(false),
        )
        .unwrap();
        let tx = mpf.open_send(p(0), "quiet").unwrap();
        let rx = mpf.open_receive(p(1), "quiet", Protocol::Fcfs).unwrap();
        mpf.message_send(p(0), tx, &[7u8; 50]).unwrap();
        // The message is delivered all the same; only the books stay shut.
        assert_eq!(recv_vec(&mpf, p(1), rx), vec![7u8; 50]);
        let t = mpf.telemetry_snapshot();
        assert_eq!(t.sends, 0);
        assert_eq!(t.receives, 0);
        assert_eq!(t.lnvcs_created, 0);
        assert_eq!(t.latency_hist.count, 0);
        assert_eq!(v(&mpf, 0).lnvc_telemetry(rx).unwrap().sends, 0);
    }

    #[test]
    fn telemetry_resets_when_slot_recycled() {
        let mpf = facility();
        let id1 = mpf.open_send(p(0), "cycle").unwrap();
        mpf.message_send(p(0), id1, b"old").unwrap();
        mpf.close_send(p(0), id1).unwrap();
        let id2 = mpf.open_send(p(0), "cycle").unwrap();
        let lt = v(&mpf, 0).lnvc_telemetry(id2).unwrap();
        assert_eq!(lt.sends, 0, "new conversation starts from zero");
        assert_eq!(lt.depth_hwm, 0);
    }

    #[test]
    fn reclaimable_reports_corpses_then_sweep_clears() {
        // Same shape as broadcast_close_with_unread_messages_reclaims, but
        // watching the metric: while r2's claims pin the queue the messages
        // are *live* (not reclaimable); the close converts them to freed
        // memory, never leaving corpses behind.
        let mpf = facility();
        let tx = mpf.open_send(p(0), "rec").unwrap();
        let r1 = mpf.open_receive(p(1), "rec", Protocol::Broadcast).unwrap();
        let r2 = mpf.open_receive(p(2), "rec", Protocol::Broadcast).unwrap();
        for _ in 0..3 {
            mpf.message_send(p(0), tx, &[1u8; 64]).unwrap();
        }
        for _ in 0..3 {
            recv_vec(&mpf, p(1), r1);
        }
        assert_eq!(
            mpf.reclaimable(),
            Reclaimable::default(),
            "messages pinned by r2's claims are live, not corpses"
        );
        mpf.close_receive(p(2), r2).unwrap();
        assert_eq!(mpf.reclaimable(), Reclaimable::default());
        assert_eq!(mpf.free_blocks(), 256);
        mpf.check_invariants().unwrap();
    }

    #[test]
    fn fifo_order_preserved_for_single_fcfs_receiver() {
        let mpf = facility();
        let tx = mpf.open_send(p(0), "fifo").unwrap();
        let rx = mpf.open_receive(p(1), "fifo", Protocol::Fcfs).unwrap();
        for i in 0..20u8 {
            mpf.message_send(p(0), tx, &[i]).unwrap();
        }
        for i in 0..20u8 {
            assert_eq!(recv_vec(&mpf, p(1), rx), vec![i]);
        }
    }

    #[test]
    fn wait_any_selects_across_conversations() {
        let mpf = facility();
        let a_tx = mpf.open_send(p(0), "sel:a").unwrap();
        let b_tx = mpf.open_send(p(0), "sel:b").unwrap();
        let a_rx = mpf.open_receive(p(1), "sel:a", Protocol::Fcfs).unwrap();
        let b_rx = mpf.open_receive(p(1), "sel:b", Protocol::Fcfs).unwrap();
        let wait_any = |ids: &[LnvcId]| v(&mpf, 1).wait_any_deadline(ids, None).unwrap();

        mpf.message_send(p(0), b_tx, b"second conversation")
            .unwrap();
        assert_eq!(wait_any(&[a_rx, b_rx]), b_rx);

        // Argument order breaks ties.
        mpf.message_send(p(0), a_tx, b"first too").unwrap();
        assert_eq!(wait_any(&[a_rx, b_rx]), a_rx);

        // A cross-thread wake: wait_any sees a message sent later.
        assert_eq!(recv_vec(&mpf, p(1), a_rx), b"first too");
        assert_eq!(recv_vec(&mpf, p(1), b_rx), b"second conversation");
        std::thread::scope(|s| {
            let h = s.spawn(|| wait_any(&[a_rx, b_rx]));
            std::thread::sleep(std::time::Duration::from_millis(15));
            mpf.message_send(p(0), a_tx, b"wake").unwrap();
            assert_eq!(h.join().unwrap(), a_rx);
        });
        mpf.check_invariants().unwrap();
    }

    #[test]
    fn zero_copy_scan_sees_contiguous_runs() {
        let mpf = Mpf::init(
            MpfConfig::new(4, 4)
                .with_block_payload(10)
                .with_total_blocks(64),
        )
        .unwrap();
        let tx = mpf.open_send(p(0), "scan").unwrap();
        let rx = mpf.open_receive(p(1), "scan", Protocol::Fcfs).unwrap();
        let payload: Vec<u8> = (0..35u8).collect();
        let scan = || {
            let mut pieces = Vec::new();
            let n = v(&mpf, 1).message_receive_scan(rx, |piece| pieces.push(piece.to_vec()));
            assert_eq!((n, pieces.concat()), (Ok(35), payload.clone()));
            pieces.len()
        };
        // A fresh pool hands out blocks 0, 1, 2, 3: one run.
        mpf.message_send(p(0), tx, &payload).unwrap();
        assert_eq!(scan(), 1, "adjacent blocks are one piece");
        // Four one-block messages take blocks 0..4; receiving them in
        // order stacks the blocks 3, 2, 1, 0 — no step of the next chain
        // goes to the adjacent block above.
        for i in 0..4u8 {
            mpf.message_send(p(0), tx, &[i; 10]).unwrap();
        }
        for i in 0..4u8 {
            assert_eq!(recv_vec(&mpf, p(1), rx), vec![i; 10]);
        }
        mpf.message_send(p(0), tx, &payload).unwrap();
        assert_eq!(scan(), 4, "35 bytes over 10-byte blocks, no two adjacent");
        // Consumed: nothing left, blocks reclaimed.
        assert!(!mpf.check_receive(p(1), rx).unwrap());
        assert_eq!(mpf.free_blocks(), 64);
    }

    #[test]
    fn zero_copy_scan_broadcast_consumes_once_per_receiver() {
        let mpf = facility();
        let tx = mpf.open_send(p(0), "scanb").unwrap();
        let r1 = mpf
            .open_receive(p(1), "scanb", Protocol::Broadcast)
            .unwrap();
        let r2 = mpf
            .open_receive(p(2), "scanb", Protocol::Broadcast)
            .unwrap();
        mpf.message_send(p(0), tx, b"to everyone").unwrap();
        for (pid, rx) in [(p(1), r1), (p(2), r2)] {
            let mut got = Vec::new();
            mpf.view(pid)
                .unwrap()
                .message_receive_scan(rx, |c| got.extend_from_slice(c))
                .unwrap();
            assert_eq!(got, b"to everyone");
        }
        assert_eq!(mpf.free_blocks(), 256);
    }

    #[test]
    fn fcfs_obligation_released_when_last_fcfs_receiver_leaves() {
        // The obligation-leak regression: messages queued while an FCFS
        // receiver was connected carry needs_fcfs.  If that receiver closes
        // without reading while broadcast receivers keep the LNVC alive,
        // the obligation could never be satisfied and the messages pinned
        // pool memory forever.
        let mpf = facility();
        let tx = mpf.open_send(p(0), "leak").unwrap();
        let rf = mpf.open_receive(p(1), "leak", Protocol::Fcfs).unwrap();
        let rb = mpf.open_receive(p(2), "leak", Protocol::Broadcast).unwrap();
        for _ in 0..3 {
            mpf.message_send(p(0), tx, &[9u8; 30]).unwrap();
        }
        mpf.close_receive(p(1), rf).unwrap(); // never read anything
        for _ in 0..3 {
            assert_eq!(recv_vec(&mpf, p(2), rb), vec![9u8; 30]);
        }
        assert_eq!(
            mpf.free_blocks(),
            256,
            "obligation re-evaluation must free the backlog"
        );
        mpf.check_invariants().unwrap();
        mpf.close_receive(p(2), rb).unwrap();
        mpf.close_send(p(0), tx).unwrap();
        mpf.check_invariants().unwrap();
    }

    #[test]
    fn fcfs_obligation_released_after_broadcast_already_read() {
        // Same leak, other interleaving: the broadcast receiver consumed
        // everything first, so the close-time sweep itself must reclaim.
        let mpf = facility();
        let tx = mpf.open_send(p(0), "leak2").unwrap();
        let rf = mpf.open_receive(p(1), "leak2", Protocol::Fcfs).unwrap();
        let rb = mpf
            .open_receive(p(2), "leak2", Protocol::Broadcast)
            .unwrap();
        for _ in 0..3 {
            mpf.message_send(p(0), tx, &[5u8; 30]).unwrap();
        }
        for _ in 0..3 {
            recv_vec(&mpf, p(2), rb);
        }
        assert!(mpf.free_blocks() < 256, "FCFS obligation pins the queue");
        assert_eq!(
            mpf.reclaimable(),
            Reclaimable::default(),
            "obligated messages are live, not corpses"
        );
        mpf.close_receive(p(1), rf).unwrap();
        assert_eq!(mpf.free_blocks(), 256, "close sweep reclaims in place");
        assert_eq!(mpf.reclaimable(), Reclaimable::default());
        mpf.check_invariants().unwrap();
    }

    #[test]
    fn blocked_sender_unwedges_when_last_fcfs_receiver_leaves() {
        // Flow-control face of the same bug: the sender is parked on
        // region exhaustion and the only event that can free memory is the
        // FCFS receiver abandoning its obligations.
        let mpf = Mpf::init(
            MpfConfig::new(2, 4)
                .with_total_blocks(4)
                .with_block_payload(10),
        )
        .unwrap();
        let tx = mpf.open_send(p(0), "wedge").unwrap();
        let rf = mpf.open_receive(p(1), "wedge", Protocol::Fcfs).unwrap();
        let rb = mpf
            .open_receive(p(2), "wedge", Protocol::Broadcast)
            .unwrap();
        mpf.message_send(p(0), tx, &[1u8; 40]).unwrap(); // region full
        recv_vec(&mpf, p(2), rb); // bcast claim released
        std::thread::scope(|s| {
            let h = s.spawn(|| v(&mpf, 0).send_deadline(tx, &[2u8; 10], None));
            std::thread::sleep(std::time::Duration::from_millis(30));
            // Pre-fix the sender waits forever: the queued message is owed
            // an FCFS delivery nobody will make.
            mpf.close_receive(p(1), rf).unwrap();
            h.join().unwrap().unwrap();
        });
        assert_eq!(recv_vec(&mpf, p(2), rb), vec![2u8; 10]);
        mpf.check_invariants().unwrap();
    }

    #[test]
    fn backlog_dropped_when_first_receiver_is_broadcast() {
        // Backlog sent before any receiver exists is owed to a future FCFS
        // receiver; if the first receiver to show up is BROADCAST it starts
        // at the tail, so the obligation is dropped and memory reclaimed.
        let mpf = facility();
        let tx = mpf.open_send(p(0), "drop").unwrap();
        mpf.message_send(p(0), tx, &[3u8; 60]).unwrap();
        assert!(mpf.free_blocks() < 256);
        let rb = mpf.open_receive(p(1), "drop", Protocol::Broadcast).unwrap();
        assert_eq!(mpf.free_blocks(), 256, "backlog freed at first join");
        assert!(!mpf.check_receive(p(1), rb).unwrap());
        // A later FCFS joiner also misses the dropped backlog but gets new
        // traffic.
        let rf = mpf.open_receive(p(2), "drop", Protocol::Fcfs).unwrap();
        assert!(!mpf.check_receive(p(2), rf).unwrap());
        mpf.message_send(p(0), tx, b"fresh").unwrap();
        assert_eq!(recv_vec(&mpf, p(2), rf), b"fresh");
        mpf.check_invariants().unwrap();
    }

    #[test]
    fn wait_any_rejects_empty_set() {
        let mpf = facility();
        assert_eq!(
            v(&mpf, 0).wait_any_deadline(&[], None).unwrap_err(),
            MpfError::EmptyWaitSet,
            "waiting on nothing would block forever"
        );
    }

    #[test]
    fn wait_any_parks_until_send() {
        // Regression for the busy-poll bug: wait_any must genuinely park
        // (Park strategy) across several conversations' wait queues and
        // wake when any of them gets traffic.
        let mpf =
            Mpf::init(MpfConfig::new(8, 8).with_wait_strategy(mpf_shm::waitq::WaitStrategy::Park))
                .unwrap();
        let a_tx = mpf.open_send(p(0), "park:a").unwrap();
        let a_rx = mpf.open_receive(p(1), "park:a", Protocol::Fcfs).unwrap();
        let b_rx = mpf.open_receive(p(1), "park:b", Protocol::Fcfs).unwrap();
        std::thread::scope(|s| {
            let h = s.spawn(|| v(&mpf, 1).wait_any_deadline(&[b_rx, a_rx], None).unwrap());
            std::thread::sleep(std::time::Duration::from_millis(40));
            mpf.message_send(p(0), a_tx, b"wake").unwrap();
            assert_eq!(h.join().unwrap(), a_rx);
        });
        mpf.check_invariants().unwrap();
    }

    #[test]
    fn slot_recycling_survives_generation_mask_wrap() {
        // Found by the open_close_send microbenchmark: after 2^15 recycles
        // of one slot a 15-bit generation wraps; a fresh id must still
        // validate, and no earlier generation's id — neither the previous
        // one nor round 0's, whose low 15 bits round 2^15 shares — may
        // reach the conversation living there now.
        let mpf = Mpf::init(MpfConfig::new(1, 2)).unwrap();
        let first = mpf.open_send(p(0), "churn").unwrap();
        mpf.close_send(p(0), first).unwrap();
        let mut prev = first;
        for round in 1..((1 << 15) + 5) {
            let id = mpf.open_send(p(0), "churn").unwrap();
            assert_ne!(prev, id, "round {round}");
            assert_eq!(
                mpf.message_send(p(0), first, b"stale"),
                Err(MpfError::UnknownLnvc),
                "round 0's id through Mpf (round {round})"
            );
            assert_eq!(
                v(&mpf, 0).message_send(first, b"stale"),
                Err(MpfError::UnknownLnvc),
                "round 0's id through the view (round {round})"
            );
            assert_eq!(v(&mpf, 0).queue_depth(id), Ok(0), "round {round}");
            mpf.message_send(p(0), id, b"x")
                .expect("fresh id must validate");
            mpf.close_send(p(0), id).unwrap();
            assert!(
                mpf.message_send(p(0), id, b"x").is_err(),
                "closed id must be stale (round {round})"
            );
            prev = id;
        }
    }

    #[test]
    fn lnvcs_exhausted_when_all_slots_live() {
        let mpf = Mpf::init(MpfConfig::new(2, 4)).unwrap();
        let _a = mpf.open_send(p(0), "a").unwrap();
        let _b = mpf.open_send(p(0), "b").unwrap();
        assert_eq!(
            mpf.open_send(p(0), "c").unwrap_err(),
            MpfError::LnvcsExhausted
        );
    }

    #[test]
    fn send_batch_delivers_in_order_with_one_doorbell() {
        let mpf = facility();
        let tx = mpf.open_send(p(0), "batch").unwrap();
        let rx = mpf.open_receive(p(1), "batch", Protocol::Fcfs).unwrap();
        let payloads: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 3]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let completions = mpf.send_batch(p(0), tx, &refs).unwrap();
        assert_eq!(completions.len(), 8);
        for (i, c) in completions.iter().enumerate() {
            assert!(c.ok(), "completion {i} failed: {}", c.status);
            assert_eq!(c.user_data, i as u64, "tokens come back in order");
            assert_eq!(c.len, 3);
        }
        let st = mpf.aio_stats(p(0)).unwrap();
        assert_eq!(st.submitted, 8);
        assert_eq!(st.drained, 8);
        assert_eq!(st.completed, 8);
        assert_eq!(st.reaped, 8);
        assert_eq!(st.sq_doorbells, 1, "one doorbell for the whole batch");
        assert_eq!((st.sq_depth, st.cq_depth), (0, 0));
        let got = mpf.recv_batch(p(1), rx, 64).unwrap();
        assert_eq!(got, payloads, "FIFO order survives batching");
        mpf.check_invariants().unwrap();
    }

    #[test]
    fn recv_batch_respects_max_and_broadcast() {
        let mpf = facility();
        let tx = mpf.open_send(p(0), "bcastb").unwrap();
        let r1 = mpf
            .open_receive(p(1), "bcastb", Protocol::Broadcast)
            .unwrap();
        let r2 = mpf
            .open_receive(p(2), "bcastb", Protocol::Broadcast)
            .unwrap();
        for i in 0..6u8 {
            mpf.message_send(p(0), tx, &[i]).unwrap();
        }
        let first = mpf.recv_batch(p(1), r1, 4).unwrap();
        assert_eq!(first, (0..4u8).map(|i| vec![i]).collect::<Vec<_>>());
        let rest = mpf.recv_batch(p(1), r1, 4).unwrap();
        assert_eq!(rest, (4..6u8).map(|i| vec![i]).collect::<Vec<_>>());
        // The second broadcast receiver still sees all six.
        assert_eq!(mpf.recv_batch(p(2), r2, 64).unwrap().len(), 6);
        assert_eq!(mpf.free_blocks(), 256, "everything reclaimed");
        mpf.check_invariants().unwrap();
    }

    #[test]
    fn zero_length_batches_are_noops() {
        let mpf = facility();
        let tx = mpf.open_send(p(0), "zb").unwrap();
        let rx = mpf.open_receive(p(0), "zb", Protocol::Fcfs).unwrap();
        assert_eq!(mpf.submit_sends(p(0), tx, &[]).unwrap(), 0);
        assert!(mpf.send_batch(p(0), tx, &[]).unwrap().is_empty());
        assert!(mpf.recv_batch(p(0), rx, 0).unwrap().is_empty());
        let st = mpf.aio_stats(p(0)).unwrap();
        assert_eq!(st.submitted, 0);
        assert_eq!(st.sq_doorbells, 0, "empty batch rings no doorbell");
        mpf.check_invariants().unwrap();
    }

    #[test]
    fn batch_larger_than_ring_capacity_partially_submits() {
        use mpf_shm::ring::AIO_RING_SLOTS;
        // Headroom above the ring: 70 staged-but-unreceived messages must
        // not trip flow control (headers are held until delivery).
        let mpf = Mpf::init(
            MpfConfig::new(8, 8)
                .with_total_blocks(256)
                .with_max_messages(128),
        )
        .unwrap();
        let tx = mpf.open_send(p(0), "over").unwrap();
        let rx = mpf.open_receive(p(1), "over", Protocol::Fcfs).unwrap();
        let payloads: Vec<Vec<u8>> = (0..AIO_RING_SLOTS + 6).map(|i| vec![i as u8]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let n = mpf.submit_sends(p(0), tx, &refs).unwrap();
        assert_eq!(n, AIO_RING_SLOTS, "ring capacity bounds one submit");
        // A full ring refuses even the first descriptor of the remainder.
        assert_eq!(
            mpf.submit_sends(p(0), tx, &refs[n..]).unwrap_err(),
            MpfError::WouldBlock
        );
        assert_eq!(mpf.drain_sends(p(0)).unwrap(), AIO_RING_SLOTS);
        let rest = mpf.submit_sends(p(0), tx, &refs[n..]).unwrap();
        assert_eq!(rest, 6);
        // The CQ is still full of unreaped completions, so a drain would
        // drop them if it proceeded — it must hold off instead.
        assert_eq!(mpf.drain_sends(p(0)).unwrap(), 0, "CQ backpressure");
        let mut completions = Vec::new();
        mpf.reap_completions(p(0), &mut completions).unwrap();
        assert_eq!(completions.len(), AIO_RING_SLOTS);
        assert_eq!(mpf.drain_sends(p(0)).unwrap(), 6);
        mpf.reap_completions(p(0), &mut completions).unwrap();
        assert_eq!(completions.len(), AIO_RING_SLOTS + 6);
        let mut got = Vec::new();
        while got.len() < payloads.len() {
            got.extend(mpf.recv_batch(p(1), rx, 16).unwrap());
        }
        assert_eq!(got, payloads);
        let st = mpf.aio_stats(p(0)).unwrap();
        assert_eq!(st.submitted, st.drained, "every descriptor drained");
        assert_eq!(st.completed, st.reaped, "every completion reaped");
        mpf.check_invariants().unwrap();
    }

    #[test]
    fn drain_completes_with_error_when_conversation_vanishes() {
        let mpf = facility();
        let tx = mpf.open_send(p(0), "gone").unwrap();
        let _rx = mpf.open_receive(p(1), "gone", Protocol::Fcfs).unwrap();
        assert_eq!(mpf.submit_sends(p(0), tx, &[b"x".as_slice()]).unwrap(), 1);
        // The conversation disappears between submit and drain.
        mpf.close_send(p(0), tx).unwrap();
        assert_eq!(mpf.drain_sends(p(0)).unwrap(), 1);
        let mut completions = Vec::new();
        mpf.reap_completions(p(0), &mut completions).unwrap();
        assert_eq!(completions.len(), 1);
        assert!(!completions[0].ok());
        assert_eq!(
            completions[0].status,
            MpfError::NotConnected.status_code(),
            "stale descriptor surfaces the close, resources reclaimed"
        );
        assert_eq!(mpf.free_blocks(), 256);
        mpf.check_invariants().unwrap();
    }

    #[test]
    fn try_receive_vec_reports_would_block() {
        let mpf = Mpf::init(
            MpfConfig::new(2, 2)
                .with_total_blocks(4)
                .with_block_payload(10),
        )
        .unwrap();
        let tx = mpf.open_send(p(0), "nb").unwrap();
        let rx = mpf.open_receive(p(1), "nb", Protocol::Fcfs).unwrap();
        assert_eq!(v(&mpf, 1).try_message_receive_vec(rx).unwrap(), None);
        mpf.message_send(p(0), tx, &[1u8; 40]).unwrap();
        assert_eq!(
            mpf.message_send(p(0), tx, &[2u8; 10]),
            Err(MpfError::BlocksExhausted),
            "region full: the send declines instead of parking"
        );
        assert_eq!(
            v(&mpf, 1).try_message_receive_vec(rx).unwrap().unwrap(),
            vec![1u8; 40]
        );
        mpf.message_send(p(0), tx, &[2u8; 10]).unwrap();
        mpf.check_invariants().unwrap();
    }

    #[test]
    fn latency_sampling_stamps_one_in_n() {
        let mpf = Mpf::init(
            MpfConfig::new(8, 8)
                .with_total_blocks(256)
                .with_max_messages(64)
                .latency_sample_rate(4),
        )
        .unwrap();
        let tx = mpf.open_send(p(0), "sampled").unwrap();
        let rx = mpf.open_receive(p(1), "sampled", Protocol::Fcfs).unwrap();
        for _ in 0..8 {
            mpf.message_send(p(0), tx, &[0u8; 20]).unwrap();
        }
        for _ in 0..8 {
            recv_vec(&mpf, p(1), rx);
        }
        let t = mpf.telemetry_snapshot();
        assert_eq!(t.sends, 8, "all traffic still counted");
        assert_eq!(t.receives, 8);
        assert_eq!(t.latency_hist.count, 2, "1-in-4 of 8 sends sampled");
        assert_eq!(v(&mpf, 0).lnvc_telemetry(rx).unwrap().latency.count, 2);
        mpf.check_invariants().unwrap();
    }

    #[test]
    fn stale_id_rejected_after_slot_recycled_through_the_facade() {
        // One slot, so the second conversation reuses the first one's
        // descriptor under the next generation.
        let mpf = Mpf::init(MpfConfig::new(1, 2)).unwrap();
        let old = mpf.open_send(p(0), "first").unwrap();
        mpf.close_send(p(0), old).unwrap();
        let new = mpf.open_send(p(0), "second").unwrap();
        let _rx = mpf.open_receive(p(1), "second", Protocol::Fcfs).unwrap();
        assert_eq!(old.index(), new.index(), "same descriptor slot");
        assert_ne!(old, new, "another generation");
        assert_eq!(
            mpf.message_send(p(0), old, b"to a stranger").unwrap_err(),
            MpfError::UnknownLnvc
        );
        assert_eq!(
            mpf.close_send(p(0), old).unwrap_err(),
            MpfError::UnknownLnvc
        );
        assert_eq!(
            v(&mpf, 0).queue_depth(old).unwrap_err(),
            MpfError::UnknownLnvc
        );
        assert_eq!(
            v(&mpf, 1).wait_any_deadline(&[old], None).unwrap_err(),
            MpfError::UnknownLnvc
        );
        mpf.message_send(p(0), new, b"x").unwrap();
        assert_eq!(v(&mpf, 0).queue_depth(new), Ok(1), "nothing went astray");
    }

    #[test]
    fn init_names_nothing_in_the_file_system() {
        let regions = || {
            let mut names = Vec::new();
            for dir in ["/dev/shm".into(), std::env::temp_dir()] {
                for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
                    let name = entry.file_name().to_string_lossy().into_owned();
                    if name.starts_with("mpf-region-") {
                        names.push(name);
                    }
                }
            }
            names.sort();
            names
        };
        let before = regions();
        let mpf = facility();
        let tx = mpf.open_send(p(0), "private").unwrap();
        mpf.message_send(p(0), tx, b"still works").unwrap();
        assert_eq!(regions(), before, "an anonymous region has no file");
    }

    #[test]
    fn two_threads_sharing_a_pid_keep_conservation() {
        // A view is shared by every thread of its process, and each may
        // act as the same `pid`.  Here one thread of process 0 sends
        // while another receives the echoes, process 1 echoing in between.
        const ROUNDS: u32 = 2000;
        let mpf = facility();
        let out = mpf.open_send(p(0), "out").unwrap();
        let back = mpf.open_receive(p(0), "back", Protocol::Fcfs).unwrap();
        let out_rx = mpf.open_receive(p(1), "out", Protocol::Fcfs).unwrap();
        let back_tx = mpf.open_send(p(1), "back").unwrap();
        // The sender stays within a window of the echoes received, so the
        // one header pool all three share cannot fill with unechoed sends.
        let echoed = std::sync::atomic::AtomicU32::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..ROUNDS {
                    while i - echoed.load(std::sync::atomic::Ordering::Acquire) >= 16 {
                        std::thread::yield_now();
                    }
                    mpf.message_send(p(0), out, &i.to_le_bytes()).unwrap();
                }
            });
            s.spawn(|| {
                for _ in 0..ROUNDS {
                    let m = recv_vec(&mpf, p(1), out_rx);
                    mpf.message_send(p(1), back_tx, &m).unwrap();
                }
            });
            for i in 0..ROUNDS {
                let m = recv_vec(&mpf, p(0), back);
                assert_eq!(m, i.to_le_bytes(), "one sender, one echo: FIFO");
                echoed.store(i + 1, std::sync::atomic::Ordering::Release);
            }
        });
        let t = mpf.telemetry_snapshot();
        assert_eq!(
            (t.sends, t.receives),
            (2 * ROUNDS as u64, 2 * ROUNDS as u64)
        );
        mpf.check_invariants().unwrap();
        mpf.close_send(p(0), out).unwrap();
        mpf.close_receive(p(0), back).unwrap();
        mpf.close_receive(p(1), out_rx).unwrap();
        mpf.close_send(p(1), back_tx).unwrap();
        assert_eq!(mpf.live_lnvcs(), 0);
        assert_eq!(mpf.free_blocks(), 256);
        assert_eq!(mpf.reclaimable(), Reclaimable::default());
        mpf.check_invariants().unwrap();
    }
}
