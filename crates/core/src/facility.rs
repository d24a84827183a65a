//! The MPF facility: the paper's eight programming primitives.
//!
//! Locking discipline (deadlock freedom):
//!
//! 1. `open_*`/`close_*` take the **registry lock first**, then the LNVC
//!    descriptor lock, so name resolution and conversation lifetime can
//!    never disagree.
//! 2. `message_send`/`message_receive`/`check_receive` take only the
//!    descriptor lock (identified by index from the [`LnvcId`]), keeping
//!    the global lock off the data path.
//! 3. Pool free lists are lock-free; wait-queue tickets are taken while
//!    the descriptor lock is held, so wakeups are never lost.
//!
//! Payload copies happen **outside** the descriptor lock: a sender fills
//! its block chain before linking it; a receiver pins the message
//! ([`crate::message::MsgSlot::begin_copy`]), drops the lock, copies, then
//! re-locks to finish delivery bookkeeping.  This is what lets multiple
//! BROADCAST receivers copy one message concurrently — the effect behind
//! the paper's Figure 5.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

use mpf_shm::faultplane::{self, FaultSite};
use mpf_shm::idxstack::NIL;
use mpf_shm::pool::Pool;
use mpf_shm::process::ProcessId;
use mpf_shm::ring::{AioRing, RingEntry};
use mpf_shm::telemetry::{
    now_nanos, FacilityTelemetry, LnvcTelSnapshot, LnvcTelemetry, TelSnapshot,
};
use mpf_shm::tracering::{
    TraceEvent, TraceRing, TR_CLOSE_RECV, TR_CLOSE_SEND, TR_ENQUEUE, TR_FAULT, TR_OPEN_RECV,
    TR_OPEN_SEND, TR_RECV, TR_RECV_B, TR_RECV_BLOCK, TR_SEND, TR_SEND_BLOCK, TR_WAKEUP,
};
use mpf_shm::waitq::WaitQueue;

use crate::aio::{AioCompletion, AioStats};
use crate::block::{BlockPool, Chain};
use crate::config::{ExhaustPolicy, MpfConfig};
use crate::conn::{RecvConn, SendConn};
use crate::error::{MpfError, Result};
use crate::lnvc::{Ctx, LnvcSlot};
use crate::message::MsgSlot;
use crate::registry::Registry;
use crate::stats::Reclaimable;
use crate::types::{LnvcId, LnvcName, Protocol, MAX_LNVC_INDEX};

/// The message passing facility.  One instance is one shared region;
/// share it among "processes" with `Arc` or scoped borrows.
#[derive(Debug)]
pub struct Mpf {
    cfg: MpfConfig,
    lnvcs: Pool<LnvcSlot>,
    msgs: Pool<MsgSlot>,
    blocks: BlockPool,
    sends: Pool<SendConn>,
    recvs: Pool<RecvConn>,
    registry: Registry,
    /// Senders blocked on region exhaustion wait here (flow control).
    mem_waitq: WaitQueue,
    /// Region-global telemetry block.  This backend keeps it on the heap;
    /// [`crate::layout`] carves the identical `#[repr(C)]` struct into the
    /// shared region for the IPC backend, so the recording code paths are
    /// the same shape in both.
    tel: FacilityTelemetry,
    /// Per-conversation telemetry, indexed like the LNVC pool.
    lnvc_tel: Box<[LnvcTelemetry]>,
    /// Batched-submission rings, one SQ per process slot (layout segment
    /// "aio sq rings"; heap-held here like every other pool).
    aio_sq: Box<[AioRing]>,
    /// Completion rings, one CQ per process slot ("aio cq rings").
    aio_cq: Box<[AioRing]>,
    /// Monotonic send tick driving 1-in-N latency sampling
    /// ([`MpfConfig::latency_sample_rate`]).
    latency_tick: AtomicU64,
    /// Facility-global send stamp: one serial per published message,
    /// region-wide (mirrors the IPC header's `next_stamp`).  The stamp is
    /// a message's logical identity in telemetry and causal traces.
    next_stamp: AtomicU64,
    /// Per-process causal trace rings (layout segment "trace rings";
    /// heap-held here like the aio rings, carved into the region by the
    /// IPC backend).
    trace_rings: Box<[TraceRing]>,
    /// Per-process causal context: the chain of the process's last
    /// delivery, which its next send continues.
    trace_ctx: Box<[TraceCtx]>,
    /// Monotonic root-chain counter: drives 1-in-N chain sampling
    /// ([`MpfConfig::trace_sample_rate`]) and makes root ids unique.
    trace_tick: AtomicU64,
}

/// One process's causal context: set by every delivery, consumed (with an
/// incremented hop) by the process's next send.  An untraced delivery
/// clears it, so unsampled chains never splice into sampled ones.
#[derive(Debug, Default)]
struct TraceCtx {
    trace: AtomicU64,
    hop: AtomicU32,
}

impl Mpf {
    /// The paper's `init()`: allocates the shared region — every pool and
    /// free list — and returns the facility.
    pub fn init(cfg: MpfConfig) -> Result<Self> {
        if cfg.max_lnvcs == 0 || cfg.max_lnvcs > MAX_LNVC_INDEX + 1 || cfg.max_processes == 0 {
            return Err(MpfError::BadInit);
        }
        // Pay the cycle-counter calibration cost once, up front, instead of
        // on the first timestamped event (see mpf_shm::clock).
        mpf_shm::clock::calibrate();
        let lock_kind = cfg.lock_kind;
        Ok(Self {
            lnvcs: Pool::new_with(cfg.max_lnvcs, |_| LnvcSlot::new(lock_kind)),
            msgs: Pool::new(cfg.max_messages),
            blocks: BlockPool::new(cfg.total_blocks, cfg.block_payload),
            sends: Pool::new(cfg.max_send_conns),
            recvs: Pool::new(cfg.max_recv_conns),
            registry: Registry::new(cfg.max_lnvcs as usize),
            mem_waitq: WaitQueue::new(),
            tel: FacilityTelemetry::default(),
            lnvc_tel: (0..cfg.max_lnvcs)
                .map(|_| LnvcTelemetry::default())
                .collect(),
            aio_sq: (0..cfg.max_processes).map(|_| AioRing::new()).collect(),
            aio_cq: (0..cfg.max_processes).map(|_| AioRing::new()).collect(),
            latency_tick: AtomicU64::new(0),
            next_stamp: AtomicU64::new(0),
            trace_rings: (0..cfg.max_processes)
                .map(|_| TraceRing::default())
                .collect(),
            trace_ctx: (0..cfg.max_processes)
                .map(|_| TraceCtx::default())
                .collect(),
            trace_tick: AtomicU64::new(0),
            cfg,
        })
    }

    /// The configuration this facility was initialized with.
    pub fn config(&self) -> &MpfConfig {
        &self.cfg
    }

    /// The shared-region memory map implied by the configuration (what a
    /// literal one-`mmap` port would carve; see [`crate::layout`]).
    pub fn region_layout(&self) -> crate::layout::RegionLayout {
        crate::layout::RegionLayout::for_config(&self.cfg)
    }

    /// Point-in-time copy of the region telemetry block (stays zero when
    /// [`MpfConfig::with_telemetry`] turned recording off).
    pub fn telemetry_snapshot(&self) -> TelSnapshot {
        self.tel.snapshot()
    }

    /// Point-in-time copy of one conversation's telemetry.
    pub fn lnvc_telemetry(&self, id: LnvcId) -> Result<LnvcTelSnapshot> {
        let slot = self.slot(id)?;
        let _guard = slot.lock.lock();
        Self::validate(slot, id)?;
        Ok(self.lnvc_tel[id.index() as usize].snapshot())
    }

    /// Pool occupancy held by corpses: queued messages that are fully
    /// consumed and unpinned, awaiting a reclamation sweep.  Distinguishes
    /// "pool full of live messages" from "pool full of garbage a sweep
    /// would free".  Locks registry then each descriptor, like
    /// [`Self::check_invariants`], so call it at quiescent points.
    pub fn reclaimable(&self) -> Reclaimable {
        let reg = self.registry.lock();
        let mut out = Reclaimable::default();
        for &idx in reg.values() {
            let slot = self.lnvcs.get(idx);
            let _guard = slot.lock.lock();
            if !slot.is_active() {
                continue;
            }
            let (messages, blocks) = self.ctx(slot).count_reclaimable();
            out.messages += messages;
            out.blocks += blocks;
        }
        out
    }

    /// The facility telemetry block, when recording is enabled.
    #[inline]
    fn tel(&self) -> Option<&FacilityTelemetry> {
        self.cfg.telemetry.then_some(&self.tel)
    }

    /// One conversation's telemetry block, when recording is enabled.
    #[inline]
    fn ltel(&self, idx: u32) -> Option<&LnvcTelemetry> {
        self.cfg.telemetry.then(|| &self.lnvc_tel[idx as usize])
    }

    /// Whether this send's latency is sampled.  With the default period of
    /// 1 no counter is touched; otherwise one relaxed increment replaces
    /// the two per-message `clock_gettime` calls on unsampled sends.
    #[inline]
    fn sample_latency(&self) -> bool {
        let every = self.cfg.latency_sample_every;
        every <= 1
            || self
                .latency_tick
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(u64::from(every))
    }

    /// Telemetry for one completed delivery: receive counters, bytes, the
    /// send→receive latency sample, and any piggybacked reclamation.
    fn note_delivery(&self, idx: u32, len: usize, sent_at: u64, freed: u32) {
        let Some(t) = self.tel() else { return };
        t.receives.inc();
        t.bytes_out.add(len as u64);
        if freed > 0 {
            t.reclaims.add(freed as u64);
        }
        let lt = &self.lnvc_tel[idx as usize];
        lt.receives.fetch_add(1, Ordering::Relaxed);
        lt.bytes_out.fetch_add(len as u64, Ordering::Relaxed);
        if freed > 0 {
            lt.reclaims.fetch_add(freed as u64, Ordering::Relaxed);
        }
        if sent_at != 0 {
            let lat = now_nanos().saturating_sub(sent_at);
            t.latency_hist.record(lat);
            lt.latency.record(lat);
        }
    }

    /// Books one blocked receive wait by `pid` on conversation `idx`.
    fn note_recv_wait(&self, pid: ProcessId, idx: u32) {
        if let Some(t) = self.tel() {
            t.recv_waits.inc();
            self.lnvc_tel[idx as usize]
                .recv_waits
                .fetch_add(1, Ordering::Relaxed);
        }
        self.trace_pop(pid, TR_RECV_BLOCK, idx, 0);
    }

    /// Books one send by `pid` that found the pools exhausted and is about
    /// to wait on conversation `idx`'s behalf.
    fn note_send_wait(&self, pid: ProcessId, idx: u32) {
        if let Some(t) = self.tel() {
            t.send_waits.inc();
        }
        self.trace_pop(pid, TR_SEND_BLOCK, idx, 0);
    }

    /// Books `freed` messages reclaimed from conversation `idx` by a sweep
    /// (deliveries book their own through [`Self::note_delivery`]) and
    /// wakes senders waiting for the memory.
    fn note_reclaim(&self, idx: u32, freed: u32) {
        if freed == 0 {
            return;
        }
        if let Some(t) = self.tel() {
            t.reclaims.add(freed as u64);
            self.lnvc_tel[idx as usize]
                .reclaims
                .fetch_add(freed as u64, Ordering::Relaxed);
        }
        self.mem_waitq.notify_all();
    }

    /// Number of currently existing conversations.
    pub fn live_lnvcs(&self) -> usize {
        self.registry.len()
    }

    /// Approximate free message blocks (diagnostic / flow-control hints).
    pub fn free_blocks(&self) -> u32 {
        self.blocks.available()
    }

    /// Whether a conversation named `name` exists right now.  A hint only:
    /// the answer can be stale the moment the registry lock is released.
    /// Service layers poll this to discover rendezvous points (e.g. an
    /// epoch-suffixed request queue) without creating them as a side
    /// effect the way `open_*` would.
    pub fn lnvc_exists(&self, name: &str) -> bool {
        match LnvcName::new(name) {
            Ok(n) => self.registry.lock().contains_key(&n),
            Err(_) => false,
        }
    }

    /// Queued (undelivered or partially-delivered) message count of a
    /// conversation.  Racy diagnostic: drain protocols use it to decide
    /// whether a queue has quiesced after pausing intake.
    pub fn queue_depth(&self, id: LnvcId) -> Result<u32> {
        let slot = self.slot(id)?;
        Self::validate(slot, id)?;
        Ok(slot.msg_count())
    }

    fn check_pid(&self, pid: ProcessId) -> Result<()> {
        if pid.index() < self.cfg.max_processes as usize {
            Ok(())
        } else {
            Err(MpfError::InvalidProcess)
        }
    }

    fn ctx<'a>(&'a self, lnvc: &'a LnvcSlot) -> Ctx<'a> {
        Ctx {
            lnvc,
            msgs: &self.msgs,
            blocks: &self.blocks,
            sends: &self.sends,
            recvs: &self.recvs,
            tring: None,
            stamps: &self.next_stamp,
        }
    }

    /// [`Self::ctx`] with `pid`'s trace ring attached, so reclaims of
    /// traced messages performed under this borrow are recorded.
    fn ctx_t<'a>(&'a self, lnvc: &'a LnvcSlot, pid: ProcessId) -> Ctx<'a> {
        Ctx {
            tring: self.tracing().then(|| &self.trace_rings[pid.index()]),
            ..self.ctx(lnvc)
        }
    }

    /// Whether causal tracing is enabled at all
    /// ([`MpfConfig::trace_sample_rate`]`(0)` turns it off).
    #[inline]
    fn tracing(&self) -> bool {
        self.cfg.trace_sample_every != 0
    }

    /// Decides the (trace id, hop) of a send by `pid`: continues the chain
    /// of the process's last delivery when there is one, else mints a root
    /// id — sampled 1-in-N, with the owner in bits 40..63, a serial in the
    /// low 40 bits, and the sampled flag in bit 63.  `(0, 0)` = untraced.
    fn trace_for_send(&self, pid: ProcessId) -> (u64, u32) {
        if !self.tracing() {
            return (0, 0);
        }
        let ctx = &self.trace_ctx[pid.index()];
        let inherited = ctx.trace.load(Ordering::Relaxed);
        if inherited != 0 {
            return (inherited, ctx.hop.load(Ordering::Relaxed) + 1);
        }
        let n = self.trace_tick.fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(u64::from(self.cfg.trace_sample_every)) {
            self.trace_rings[pid.index()].note_skipped();
            return (0, 0);
        }
        let root = (1u64 << 63) | ((pid.index() as u64 + 1) << 40) | (n & ((1u64 << 40) - 1));
        (root, 0)
    }

    /// Appends one record to `pid`'s trace ring; a no-op for untraced
    /// chains, so callers thread the gate through `trace == 0`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn trace_rec(
        &self,
        pid: ProcessId,
        kind: u32,
        hop: u32,
        trace: u64,
        lnvc: u32,
        stamp: u64,
        arg: u32,
        arg2: u32,
    ) {
        if trace != 0 {
            self.trace_rings[pid.index()].record_at(
                now_nanos(),
                trace,
                stamp,
                kind,
                hop,
                lnvc,
                arg,
                arg2,
            );
        }
    }

    /// Records an injected fault this process acted on (`TR_FAULT`):
    /// `arg` names the site, `arg2` the magnitude of the typed error it
    /// surfaced as — the pairing the offline conformance checker audits.
    fn trace_fault(&self, pid: ProcessId, site: FaultSite, err: MpfError) {
        if self.tracing() {
            self.trace_rings[pid.index()].record_at(
                now_nanos(),
                0,
                0,
                TR_FAULT,
                0,
                u32::MAX,
                site.code(),
                err.status_code().unsigned_abs(),
            );
        }
    }

    /// Records a marker event (connection open/close, blocking).  Not
    /// sampled: the conformance checker needs the receiver-population
    /// timeline, and a post-mortem reader the last things a process did,
    /// even across untraced gaps.
    fn trace_pop(&self, pid: ProcessId, kind: u32, lnvc: u32, arg: u32) {
        if self.tracing() {
            self.trace_rings[pid.index()].record_at(now_nanos(), 0, 0, kind, 0, lnvc, arg, 0);
        }
    }

    /// Adopts a delivered message's chain as `pid`'s causal context; an
    /// untraced delivery clears it.
    #[inline]
    fn adopt_trace(&self, pid: ProcessId, trace: u64, hop: u32) {
        if self.tracing() {
            let ctx = &self.trace_ctx[pid.index()];
            ctx.trace.store(trace, Ordering::Relaxed);
            ctx.hop.store(hop, Ordering::Relaxed);
        }
    }

    /// The surviving contents of `pid`'s causal trace ring, oldest first
    /// (the `mpf-trace` crate reconstructs chains from these).
    pub fn trace_events(&self, pid: ProcessId) -> Result<Vec<TraceEvent>> {
        self.check_pid(pid)?;
        Ok(self.trace_rings[pid.index()].snapshot())
    }

    /// Occupancy of `pid`'s trace ring: `(records ever written, chains
    /// skipped by sampling)`.
    pub fn trace_ring_stats(&self, pid: ProcessId) -> Result<(u64, u64)> {
        self.check_pid(pid)?;
        let ring = &self.trace_rings[pid.index()];
        Ok((ring.head(), ring.skipped()))
    }

    /// Resolves an id to its slot, without liveness validation (that
    /// happens under the descriptor lock via [`Self::validate`]).
    fn slot(&self, id: LnvcId) -> Result<&LnvcSlot> {
        if id.index() < self.lnvcs.capacity() {
            Ok(self.lnvcs.get(id.index()))
        } else {
            Err(MpfError::UnknownLnvc)
        }
    }

    /// Liveness + generation check; call with the descriptor lock held.
    fn validate(slot: &LnvcSlot, id: LnvcId) -> Result<()> {
        if slot.is_active() && id.matches_generation(slot.generation()) {
            Ok(())
        } else {
            Err(MpfError::UnknownLnvc)
        }
    }

    /// Looks up `name`, creating the conversation if absent (both
    /// `open_send` and `open_receive` create on first use, §2).  Returns
    /// `(index, created)`.  Caller holds the registry lock.
    fn find_or_create(
        &self,
        reg: &mut std::collections::HashMap<LnvcName, u32>,
        name: LnvcName,
    ) -> Result<(u32, bool)> {
        if let Some(&idx) = reg.get(&name) {
            return Ok((idx, false));
        }
        let Some(idx) = self.lnvcs.alloc() else {
            return Err(MpfError::LnvcsExhausted);
        };
        self.lnvcs.get(idx).activate();
        reg.insert(name, idx);
        if let Some(t) = self.tel() {
            t.lnvcs_created.inc();
            // A recycled slot must not inherit its predecessor's numbers.
            self.lnvc_tel[idx as usize].reset();
        }
        Ok((idx, true))
    }

    /// Rolls back a just-created conversation after a failed open.
    fn rollback_create(
        &self,
        reg: &mut std::collections::HashMap<LnvcName, u32>,
        name: LnvcName,
        idx: u32,
    ) {
        reg.remove(&name);
        let slot = self.lnvcs.get(idx);
        slot.deactivate();
        self.lnvcs.free(idx);
        if let Some(t) = self.tel() {
            t.lnvcs_deleted.inc();
        }
    }

    /// `open_send(process_id, lnvc_name)`: establishes a send connection,
    /// creating the conversation if needed.  Returns MPF's internal LNVC
    /// identifier for use in `message_send` and `close_send`.
    pub fn open_send(&self, pid: ProcessId, name: &str) -> Result<LnvcId> {
        self.check_pid(pid)?;
        let name = LnvcName::new(name)?;
        let mut reg = self.registry.lock();
        let (idx, created) = self.find_or_create(&mut reg, name)?;
        let slot = self.lnvcs.get(idx);
        let result = (|| {
            let _guard = slot.lock.lock();
            let ctx = self.ctx(slot);
            if ctx.find_send(pid).is_some() {
                return Err(MpfError::AlreadyConnected);
            }
            let Some(conn) = self.sends.alloc() else {
                return Err(MpfError::ConnectionsExhausted);
            };
            self.sends.get(conn).reset(pid.raw(), NIL);
            ctx.link_send(conn);
            Ok(LnvcId::from_parts(idx, slot.generation()))
        })();
        if result.is_err() && created {
            self.rollback_create(&mut reg, name, idx);
        }
        if result.is_ok() {
            self.trace_pop(pid, TR_OPEN_SEND, idx, 0);
        }
        result
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
        self.check_pid(pid)?;
        let name = LnvcName::new(name)?;
        let mut reg = self.registry.lock();
        let (idx, created) = self.find_or_create(&mut reg, name)?;
        let slot = self.lnvcs.get(idx);
        let mut freed = 0;
        let result = (|| {
            let _guard = slot.lock.lock();
            let ctx = self.ctx_t(slot, pid);
            if let Some(existing) = ctx.find_recv(pid) {
                return Err(if self.recvs.get(existing).protocol() != protocol {
                    MpfError::ProtocolConflict
                } else {
                    MpfError::AlreadyConnected
                });
            }
            let Some(conn) = self.recvs.alloc() else {
                return Err(MpfError::ConnectionsExhausted);
            };
            let first_receiver = slot.n_fcfs() + slot.n_bcast() == 0;
            self.recvs.get(conn).reset(pid.raw(), protocol, NIL);
            ctx.link_recv(conn, protocol);
            // Obligation re-evaluation (DESIGN.md): backlog sent before any
            // receiver joined is owed to a *future FCFS receiver*.  If the
            // first receiver ever to join is BROADCAST, it starts at the
            // tail and never sees the backlog; the only receiver that could
            // have taken it chose a protocol that will not.  Drop the
            // obligations so the backlog does not pin pool memory forever.
            if first_receiver && protocol == Protocol::Broadcast {
                ctx.clear_fcfs_obligations();
                freed = ctx.reclaim_consumed();
            }
            Ok(LnvcId::from_parts(idx, slot.generation()))
        })();
        if result.is_err() && created {
            self.rollback_create(&mut reg, name, idx);
        }
        drop(reg);
        self.note_reclaim(idx, freed);
        if result.is_ok() {
            self.trace_pop(pid, TR_OPEN_RECV, idx, protocol.code());
        }
        result
    }

    /// Deletes the conversation once its last connection closes: "the LNVC
    /// is deleted and all unread messages are discarded" (§2).  Caller
    /// holds the registry lock and the descriptor lock.
    fn maybe_delete(
        &self,
        reg: &mut std::collections::HashMap<LnvcName, u32>,
        idx: u32,
        slot: &LnvcSlot,
    ) -> bool {
        if slot.total_connections() > 0 {
            return false;
        }
        let ctx = self.ctx(slot);
        ctx.discard_all_messages();
        reg.retain(|_, &mut v| v != idx);
        slot.deactivate();
        self.lnvcs.free(idx);
        if let Some(t) = self.tel() {
            t.lnvcs_deleted.inc();
        }
        true
    }

    /// `close_send(process_id, lnvc_id)`: removes the process's send
    /// connection.
    pub fn close_send(&self, pid: ProcessId, id: LnvcId) -> Result<()> {
        self.check_pid(pid)?;
        let mut reg = self.registry.lock();
        let slot = self.slot(id)?;
        {
            let _guard = slot.lock.lock();
            Self::validate(slot, id)?;
            let ctx = self.ctx(slot);
            let conn = ctx.unlink_send(pid).ok_or(MpfError::NotConnected)?;
            self.sends.free(conn);
            self.maybe_delete(&mut reg, id.index(), slot);
        }
        drop(reg);
        // Wake receivers so any blocked on a now-deleted conversation can
        // observe UnknownLnvc; wake memory waiters (messages may be freed).
        slot.waitq.notify_all();
        self.mem_waitq.notify_all();
        self.trace_pop(pid, TR_CLOSE_SEND, id.index(), 0);
        Ok(())
    }

    /// `close_receive(process_id, lnvc_id)`: removes the process's receive
    /// connection.  For a BROADCAST receiver with unread messages this
    /// performs the paper's §3.2 sweep, releasing the receiver's claim on
    /// every message from its head pointer to the tail.
    pub fn close_receive(&self, pid: ProcessId, id: LnvcId) -> Result<()> {
        self.check_pid(pid)?;
        let mut reg = self.registry.lock();
        let slot = self.slot(id)?;
        let mut reclaimed = 0;
        let closed_protocol;
        {
            let _guard = slot.lock.lock();
            Self::validate(slot, id)?;
            let ctx = self.ctx_t(slot, pid);
            let (conn, protocol, head) = ctx.unlink_recv(pid).ok_or(MpfError::NotConnected)?;
            closed_protocol = protocol;
            self.recvs.free(conn);
            if protocol == Protocol::Broadcast && head != NIL {
                reclaimed = ctx.release_bcast_claims(head);
            }
            // Obligation re-evaluation (DESIGN.md): when the last FCFS
            // receiver leaves while BROADCAST receivers keep the
            // conversation alive, the queued FCFS deliveries are dropped —
            // the close discards the departing receiver's undelivered
            // backlog exactly as the paper's §3.2 close-time sweep discards
            // a broadcast receiver's unread claims.  Without this the
            // messages are unreclaimable (no one in the current connection
            // set will ever take them, and broadcast joiners never see
            // backlog) and senders eventually wedge on exhaustion.
            if protocol == Protocol::Fcfs && slot.n_fcfs() == 0 && slot.n_bcast() > 0 {
                ctx.clear_fcfs_obligations();
            }
            // Close is the slow path: sweep the whole queue, not just the
            // prefix, so interior messages freed by the sweeps above (or
            // consumed behind a still-owed head) are returned too.
            reclaimed += ctx.reclaim_consumed();
            self.maybe_delete(&mut reg, id.index(), slot);
        }
        drop(reg);
        self.note_reclaim(id.index(), reclaimed);
        slot.waitq.notify_all();
        self.mem_waitq.notify_all();
        self.trace_pop(pid, TR_CLOSE_RECV, id.index(), closed_protocol.code());
        Ok(())
    }

    /// Under memory pressure, sweeps conversation `idx`'s whole queue for
    /// consumed interior messages the prefix reclaimer could not reach
    /// (e.g. behind a message still owed a delivery).  Returns messages
    /// freed.
    fn sweep_consumed(&self, idx: u32) -> u32 {
        let slot = self.lnvcs.get(idx);
        let _guard = slot.lock.lock();
        let freed = self.ctx(slot).reclaim_consumed();
        drop(_guard);
        self.note_reclaim(idx, freed);
        freed
    }

    /// Allocates a header and a populated block chain, honouring the
    /// exhaustion policy.  Before waiting (or erroring), tries a full-queue
    /// sweep of the destination conversation — the sender-side slow path of
    /// non-prefix reclamation.  Returns `(msg_idx, chain)`.  Under
    /// [`ExhaustPolicy::Wait`] the exhaustion wait is bounded by
    /// `deadline` and times out with [`MpfError::TimedOut`] and nothing
    /// allocated.  `idx` is an in-range conversation index (callers
    /// resolved the id).
    fn alloc_message(
        &self,
        pid: ProcessId,
        idx: u32,
        buf: &[u8],
        deadline: Option<Instant>,
    ) -> Result<(u32, Chain)> {
        // An injected pool-exhaustion fault behaves exactly like a real
        // one-shot exhaustion: typed error under `ExhaustPolicy::Error`,
        // one bounded wait round under `Wait`.
        let mut injected = faultplane::inject(FaultSite::PoolExhaust);
        loop {
            let ticket = self.mem_waitq.ticket();
            let attempt = if injected {
                Err(MpfError::BlocksExhausted)
            } else {
                self.blocks.alloc_chain(buf)
            };
            match attempt {
                Ok(chain) => match self.msgs.alloc() {
                    Some(msg) => return Ok((msg, chain)),
                    None => {
                        // Release the chain before waiting: holding blocks
                        // while blocked on headers could deadlock the
                        // region.
                        self.blocks.free_chain(chain);
                        if self.sweep_consumed(idx) > 0 {
                            continue;
                        }
                        if self.cfg.exhaust_policy == ExhaustPolicy::Error {
                            return Err(MpfError::MessagesExhausted);
                        }
                        self.note_send_wait(pid, idx);
                        if !self
                            .mem_waitq
                            .wait_deadline(ticket, self.cfg.wait_strategy, deadline)
                        {
                            return Err(MpfError::TimedOut);
                        }
                    }
                },
                Err(MpfError::BlocksExhausted) => {
                    if injected {
                        injected = false;
                        if self.cfg.exhaust_policy == ExhaustPolicy::Error {
                            self.trace_fault(
                                pid,
                                FaultSite::PoolExhaust,
                                MpfError::BlocksExhausted,
                            );
                            return Err(MpfError::BlocksExhausted);
                        }
                        // Wait policy: the fault costs one bounded nap
                        // (nothing will notify — memory was never truly
                        // exhausted), then allocation proceeds normally
                        // unless the caller's real deadline expired.
                        self.note_send_wait(pid, idx);
                        let nap = Instant::now() + std::time::Duration::from_millis(2);
                        self.mem_waitq.wait_deadline(
                            ticket,
                            self.cfg.wait_strategy,
                            Some(deadline.map_or(nap, |d| d.min(nap))),
                        );
                        if deadline.is_some_and(|d| Instant::now() >= d) {
                            self.trace_fault(pid, FaultSite::PoolExhaust, MpfError::TimedOut);
                            return Err(MpfError::TimedOut);
                        }
                        continue;
                    }
                    if self.sweep_consumed(idx) > 0 {
                        continue;
                    }
                    if self.cfg.exhaust_policy == ExhaustPolicy::Error {
                        return Err(MpfError::BlocksExhausted);
                    }
                    self.note_send_wait(pid, idx);
                    if !self
                        .mem_waitq
                        .wait_deadline(ticket, self.cfg.wait_strategy, deadline)
                    {
                        return Err(MpfError::TimedOut);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// `message_send(process_id, lnvc_id, send_buffer, buffer_length)`:
    /// asynchronous send.  The payload is copied into linked message
    /// blocks *before* the descriptor lock is taken, then the message is
    /// linked at the FIFO tail and waiting receivers are woken.
    pub fn message_send(&self, pid: ProcessId, id: LnvcId, buf: &[u8]) -> Result<()> {
        self.check_pid(pid)?;
        let slot = self.slot(id)?;
        // Cheap stale-id rejection before paying for allocation; the
        // authoritative check repeats under the lock.
        Self::validate(slot, id)?;
        let (msg_idx, chain) = self.alloc_message(pid, id.index(), buf, None)?;
        self.publish_message(pid, id, msg_idx, chain, buf)
    }

    /// [`Self::message_send`] bounded by `deadline`: under region
    /// exhaustion with [`ExhaustPolicy::Wait`] the sender blocks only
    /// until the deadline, then fails with [`MpfError::TimedOut`] and
    /// **nothing enqueued** (safe to retry or drop).  `None` blocks
    /// indefinitely, exactly like `message_send`.
    pub fn send_deadline(
        &self,
        pid: ProcessId,
        id: LnvcId,
        buf: &[u8],
        deadline: Option<Instant>,
    ) -> Result<()> {
        self.check_pid(pid)?;
        let slot = self.slot(id)?;
        Self::validate(slot, id)?;
        let (msg_idx, chain) = self.alloc_message(pid, id.index(), buf, deadline)?;
        self.publish_message(pid, id, msg_idx, chain, buf)
    }

    /// Non-blocking send: `Ok(false)` when the region is exhausted right
    /// now (the async layer retries after a memory wakeup instead of
    /// parking the thread).  Connection/validity errors still fail.
    pub fn try_message_send(&self, pid: ProcessId, id: LnvcId, buf: &[u8]) -> Result<bool> {
        self.check_pid(pid)?;
        let slot = self.slot(id)?;
        Self::validate(slot, id)?;
        match self.try_alloc_message(id.index(), buf)? {
            Some((msg_idx, chain)) => {
                self.publish_message(pid, id, msg_idx, chain, buf)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// One non-blocking pass of [`Self::alloc_message`]: tries the pools,
    /// sweeps the destination queue once on exhaustion, and reports
    /// `Ok(None)` instead of waiting.
    fn try_alloc_message(&self, idx: u32, buf: &[u8]) -> Result<Option<(u32, Chain)>> {
        let mut swept = false;
        loop {
            match self.blocks.alloc_chain(buf) {
                Ok(chain) => match self.msgs.alloc() {
                    Some(msg) => return Ok(Some((msg, chain))),
                    None => {
                        self.blocks.free_chain(chain);
                        if !swept && self.sweep_consumed(idx) > 0 {
                            swept = true;
                            continue;
                        }
                        return Ok(None);
                    }
                },
                Err(MpfError::BlocksExhausted) => {
                    if !swept && self.sweep_consumed(idx) > 0 {
                        swept = true;
                        continue;
                    }
                    return Ok(None);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Publishes an allocated message: links it at the FIFO tail under the
    /// descriptor lock, wakes receivers, and records send bookkeeping.
    /// Frees the allocation if the conversation vanished in between.
    fn publish_message(
        &self,
        pid: ProcessId,
        id: LnvcId,
        msg_idx: u32,
        chain: Chain,
        buf: &[u8],
    ) -> Result<()> {
        let slot = self.slot(id)?;
        {
            let _guard = slot.lock.lock();
            let ctx = self.ctx(slot);
            let valid = Self::validate(slot, id)
                .and_then(|()| ctx.find_send(pid).map(|_| ()).ok_or(MpfError::NotConnected));
            if let Err(e) = valid {
                drop(_guard);
                self.blocks.free_chain(chain);
                self.msgs.free(msg_idx);
                self.mem_waitq.notify_all();
                return Err(e);
            }
            let stamp = ctx.enqueue(msg_idx, buf.len(), chain);
            // Causal id stamped under the lock, before receivers can see
            // the message; obligations are fixed at this instant, so the
            // packed arg2 is what the conformance checker audits against.
            let (trace, hop) = self.trace_for_send(pid);
            let obligations = {
                let n_bcast = slot.n_bcast();
                let needs_fcfs = slot.n_fcfs() > 0 || n_bcast == 0;
                (u32::from(needs_fcfs) << 16) | n_bcast
            };
            if trace != 0 {
                self.msgs.get(msg_idx).set_trace(trace, hop);
            }
            if let Some(lt) = self.ltel(id.index()) {
                // Stamped under the lock, before receivers can see the
                // message, so `sent_at` is final once the lock drops.  An
                // unsampled message is stamped 0 (the pooled header may
                // carry a stale timestamp) and skips latency recording.
                let sent_at = if self.sample_latency() {
                    now_nanos()
                } else {
                    0
                };
                self.msgs.get(msg_idx).set_sent_at(sent_at);
                lt.sends.fetch_add(1, Ordering::Relaxed);
                lt.bytes_in.fetch_add(buf.len() as u64, Ordering::Relaxed);
                lt.note_depth(u64::from(slot.msg_count()));
            }
            drop(_guard);
            self.trace_rec(
                pid,
                TR_SEND,
                hop,
                trace,
                id.index(),
                stamp,
                buf.len() as u32,
                obligations,
            );
        }
        slot.waitq.notify_all();
        if let Some(t) = self.tel() {
            t.sends.inc();
            t.bytes_in.add(buf.len() as u64);
            t.size_hist.record(buf.len() as u64);
        }
        Ok(())
    }

    /// Core receive step.  With the descriptor locked, finds the next
    /// message for `pid` (per its protocol), copies it out with the lock
    /// *dropped*, completes delivery bookkeeping, and reclaims.  Returns
    /// `Ok(Some(len))`, `Ok(None)` for "nothing available", or an error.
    fn recv_once(&self, pid: ProcessId, id: LnvcId, buf: &mut [u8]) -> Result<Option<usize>> {
        let slot = self.slot(id)?;
        let guard = slot.lock.lock();
        Self::validate(slot, id)?;
        let ctx = self.ctx(slot);
        let Some(conn_idx) = ctx.find_recv(pid) else {
            return Err(MpfError::NotConnected);
        };
        let conn = self.recvs.get(conn_idx);
        let protocol = conn.protocol();
        let found = match protocol {
            Protocol::Fcfs => ctx.fcfs_peek(),
            Protocol::Broadcast => {
                let h = conn.head();
                (h != NIL).then_some(h)
            }
        };
        let Some(msg_idx) = found else {
            return Ok(None);
        };
        let msg = self.msgs.get(msg_idx);
        let len = msg.len();
        if buf.len() < len {
            // Message is left queued (not consumed).
            return Err(MpfError::BufferTooSmall { needed: len });
        }
        match protocol {
            Protocol::Fcfs => msg.set_fcfs_taken(),
            Protocol::Broadcast => conn.set_head(msg.next()),
        }
        msg.begin_copy();
        let head_block = msg.head_block();
        let stamp = msg.stamp();
        let sent_at = msg.sent_at();
        let (trace, hop) = (msg.trace(), msg.hop());
        drop(guard);

        self.blocks.read_chain(head_block, len, &mut buf[..len]);
        msg.end_copy();

        // Delivery is claimed; record it before the reclamation sweep can
        // append this message's TR_RECLAIM, so ring order matches logic.
        self.adopt_trace(pid, trace, hop);
        let kind = match protocol {
            Protocol::Fcfs => TR_RECV,
            Protocol::Broadcast => TR_RECV_B,
        };
        self.trace_rec(pid, kind, hop, trace, id.index(), stamp, len as u32, 0);

        let _guard = slot.lock.lock();
        if protocol == Protocol::Broadcast {
            msg.dec_bcast_pending();
        }
        let ctx = self.ctx_t(slot, pid);
        let freed = ctx.reclaim_prefix();
        drop(_guard);
        if freed > 0 {
            self.mem_waitq.notify_all();
        }
        self.note_delivery(id.index(), len, sent_at, freed);
        Ok(Some(len))
    }

    /// `message_receive(process_id, lnvc_id, receive_buffer,
    /// buffer_length)`: blocking receive.  Returns the number of bytes
    /// transferred ("buffer_length is set to the number of bytes
    /// transferred").
    pub fn message_receive(&self, pid: ProcessId, id: LnvcId, buf: &mut [u8]) -> Result<usize> {
        self.check_pid(pid)?;
        let mut waited = false;
        loop {
            // Ticket before the check: a send between our check and our
            // wait bumps the sequence and the wait returns immediately.
            let slot = self.slot(id)?;
            let ticket = slot.waitq.ticket();
            if let Some(len) = self.recv_once(pid, id, buf)? {
                if waited && self.tracing() {
                    // The delivery that ended the block; its chain is the
                    // context recv_once just adopted.
                    let ctx = &self.trace_ctx[pid.index()];
                    self.trace_rec(
                        pid,
                        TR_WAKEUP,
                        ctx.hop.load(Ordering::Relaxed),
                        ctx.trace.load(Ordering::Relaxed),
                        id.index(),
                        0,
                        len as u32,
                        0,
                    );
                }
                return Ok(len);
            }
            waited = true;
            self.note_recv_wait(pid, id.index());
            slot.waitq.wait(ticket, self.cfg.wait_strategy);
        }
    }

    /// [`Self::message_receive`] bounded by `deadline`: blocks until a
    /// message is delivered or the deadline passes, then fails with
    /// [`MpfError::TimedOut`] and nothing consumed.  A delivery racing
    /// the deadline wins — the queue is always re-checked after the
    /// final wait.  `None` blocks indefinitely.
    pub fn recv_deadline(
        &self,
        pid: ProcessId,
        id: LnvcId,
        buf: &mut [u8],
        deadline: Option<Instant>,
    ) -> Result<usize> {
        self.check_pid(pid)?;
        loop {
            let slot = self.slot(id)?;
            let ticket = slot.waitq.ticket();
            if let Some(len) = self.recv_once(pid, id, buf)? {
                return Ok(len);
            }
            self.note_recv_wait(pid, id.index());
            if !slot
                .waitq
                .wait_deadline(ticket, self.cfg.wait_strategy, deadline)
            {
                // Deadline: one final non-blocking look so a delivery
                // that raced the expiry is delivered, not timed out.
                if let Some(len) = self.recv_once(pid, id, buf)? {
                    return Ok(len);
                }
                return Err(MpfError::TimedOut);
            }
        }
    }

    /// Non-blocking variant of [`Self::message_receive`]; `Ok(None)` when
    /// no message is available.
    pub fn try_message_receive(
        &self,
        pid: ProcessId,
        id: LnvcId,
        buf: &mut [u8],
    ) -> Result<Option<usize>> {
        self.check_pid(pid)?;
        self.recv_once(pid, id, buf)
    }

    /// Zero-copy blocking receive: the next message's payload is visited
    /// as a sequence of block-sized slices, borrowed straight from the
    /// shared region, with no intermediate copy into a user buffer —
    /// the paper's §5 "direct data transfer" idea applied to the receive
    /// side.  Returns the message length.
    ///
    /// The message is consumed exactly as by [`Self::message_receive`];
    /// the visitor runs outside the descriptor lock (the message is
    /// pinned), so other receivers proceed concurrently.
    pub fn message_receive_scan(
        &self,
        pid: ProcessId,
        id: LnvcId,
        mut visit: impl FnMut(&[u8]),
    ) -> Result<usize> {
        self.check_pid(pid)?;
        loop {
            let slot = self.slot(id)?;
            let ticket = slot.waitq.ticket();
            let guard = slot.lock.lock();
            Self::validate(slot, id)?;
            let ctx = self.ctx(slot);
            let Some(conn_idx) = ctx.find_recv(pid) else {
                return Err(MpfError::NotConnected);
            };
            let conn = self.recvs.get(conn_idx);
            let protocol = conn.protocol();
            let found = match protocol {
                Protocol::Fcfs => ctx.fcfs_peek(),
                Protocol::Broadcast => {
                    let h = conn.head();
                    (h != NIL).then_some(h)
                }
            };
            let Some(msg_idx) = found else {
                drop(guard);
                self.note_recv_wait(pid, id.index());
                slot.waitq.wait(ticket, self.cfg.wait_strategy);
                continue;
            };
            let msg = self.msgs.get(msg_idx);
            let len = msg.len();
            match protocol {
                Protocol::Fcfs => msg.set_fcfs_taken(),
                Protocol::Broadcast => conn.set_head(msg.next()),
            }
            msg.begin_copy();
            let head_block = msg.head_block();
            let stamp = msg.stamp();
            let sent_at = msg.sent_at();
            let (trace, hop) = (msg.trace(), msg.hop());
            drop(guard);

            // SAFETY: the message is published and pinned; blocks of a
            // published message are never written, and reclamation skips
            // pinned messages.
            unsafe { self.blocks.scan_chain(head_block, len, &mut visit) };
            msg.end_copy();

            self.adopt_trace(pid, trace, hop);
            let kind = match protocol {
                Protocol::Fcfs => TR_RECV,
                Protocol::Broadcast => TR_RECV_B,
            };
            self.trace_rec(pid, kind, hop, trace, id.index(), stamp, len as u32, 0);

            let _guard = slot.lock.lock();
            if protocol == Protocol::Broadcast {
                msg.dec_bcast_pending();
            }
            let ctx = self.ctx_t(slot, pid);
            let freed = ctx.reclaim_prefix();
            drop(_guard);
            if freed > 0 {
                self.mem_waitq.notify_all();
            }
            self.note_delivery(id.index(), len, sent_at, freed);
            return Ok(len);
        }
    }

    /// Blocking receive into a freshly sized `Vec` (convenience; not in
    /// the paper's C interface).
    pub fn message_receive_vec(&self, pid: ProcessId, id: LnvcId) -> Result<Vec<u8>> {
        self.check_pid(pid)?;
        let mut buf = Vec::new();
        loop {
            let slot = self.slot(id)?;
            let ticket = slot.waitq.ticket();
            match self.pending_len(pid, id)? {
                Some(len) => {
                    buf.resize(len.max(1), 0);
                    match self.recv_once(pid, id, &mut buf) {
                        Ok(Some(n)) => {
                            buf.truncate(n);
                            return Ok(buf);
                        }
                        // Another FCFS receiver raced us to it, or a
                        // longer message is now at the head; retry.
                        Ok(None) | Err(MpfError::BufferTooSmall { .. }) => continue,
                        Err(e) => return Err(e),
                    }
                }
                None => {
                    self.note_recv_wait(pid, id.index());
                    slot.waitq.wait(ticket, self.cfg.wait_strategy);
                }
            }
        }
    }

    /// Length of the next message `pid` would receive, if any.
    fn pending_len(&self, pid: ProcessId, id: LnvcId) -> Result<Option<usize>> {
        let slot = self.slot(id)?;
        let _guard = slot.lock.lock();
        Self::validate(slot, id)?;
        let ctx = self.ctx(slot);
        let Some(conn_idx) = ctx.find_recv(pid) else {
            return Err(MpfError::NotConnected);
        };
        let conn = self.recvs.get(conn_idx);
        let found = match conn.protocol() {
            Protocol::Fcfs => ctx.fcfs_peek(),
            Protocol::Broadcast => {
                let h = conn.head();
                (h != NIL).then_some(h)
            }
        };
        Ok(found.map(|m| self.msgs.get(m).len()))
    }

    /// `check_receive(process_id, lnvc_id)`: true if a message is waiting
    /// for this process.  For BROADCAST the message is then guaranteed to
    /// be present at the next `message_receive`; for FCFS another receiver
    /// may still take it first (the paper's §2 caution).
    pub fn check_receive(&self, pid: ProcessId, id: LnvcId) -> Result<bool> {
        self.check_pid(pid)?;
        Ok(self.pending_len(pid, id)?.is_some())
    }

    /// Polls several conversations; returns the first (in argument order)
    /// with a message waiting for `pid`.  The FCFS caveat of
    /// [`Self::check_receive`] applies per conversation.
    pub fn check_any(&self, pid: ProcessId, ids: &[LnvcId]) -> Result<Option<LnvcId>> {
        self.check_pid(pid)?;
        for &id in ids {
            if self.pending_len(pid, id)?.is_some() {
                return Ok(Some(id));
            }
        }
        Ok(None)
    }

    /// Blocks until one of the conversations has a message for `pid`;
    /// returns which.  Not a paper primitive — 1987 programs built this
    /// select loop out of `check_receive` (the SOR solver's monitor is the
    /// use case) — but ours parks properly: tickets are taken on every
    /// conversation's wait queue *before* the scan, so a send (or close)
    /// landing after the scan bumps a sequence and the multi-queue wait
    /// returns immediately instead of being lost.
    ///
    /// An empty `ids` slice is rejected with [`MpfError::EmptyWaitSet`]:
    /// waiting on no conversations could never wake.
    pub fn wait_any(&self, pid: ProcessId, ids: &[LnvcId]) -> Result<LnvcId> {
        self.check_pid(pid)?;
        if ids.is_empty() {
            return Err(MpfError::EmptyWaitSet);
        }
        loop {
            let mut entries = Vec::with_capacity(ids.len());
            for &id in ids {
                let slot = self.slot(id)?;
                entries.push((&slot.waitq, slot.waitq.ticket()));
            }
            if let Some(id) = self.check_any(pid, ids)? {
                return Ok(id);
            }
            if let Some(t) = self.tel() {
                t.recv_waits.inc();
            }
            WaitQueue::wait_many(&entries, self.cfg.wait_strategy);
        }
    }

    /// [`Self::wait_any`] bounded by `deadline`: [`MpfError::TimedOut`]
    /// if no conversation has a message for `pid` by then.  A message
    /// arriving as the deadline expires is reported, not timed out (the
    /// set is re-polled after the final wait).
    pub fn wait_any_deadline(
        &self,
        pid: ProcessId,
        ids: &[LnvcId],
        deadline: Option<Instant>,
    ) -> Result<LnvcId> {
        self.check_pid(pid)?;
        if ids.is_empty() {
            return Err(MpfError::EmptyWaitSet);
        }
        loop {
            let mut entries = Vec::with_capacity(ids.len());
            for &id in ids {
                let slot = self.slot(id)?;
                entries.push((&slot.waitq, slot.waitq.ticket()));
            }
            if let Some(id) = self.check_any(pid, ids)? {
                return Ok(id);
            }
            if let Some(t) = self.tel() {
                t.recv_waits.inc();
            }
            if !WaitQueue::wait_many_deadline(&entries, self.cfg.wait_strategy, deadline) {
                if let Some(id) = self.check_any(pid, ids)? {
                    return Ok(id);
                }
                return Err(MpfError::TimedOut);
            }
        }
    }

    // ------------------------------------------------------------------
    // Batched submission (aio): SQ/CQ rings, one doorbell per batch.
    // ------------------------------------------------------------------

    /// Stages up to `payloads.len()` send descriptors in `pid`'s
    /// submission ring and rings the doorbell **once**.  Each descriptor's
    /// `user_data` token is its index within `payloads`.
    ///
    /// Returns the number staged: allocation follows the exhaustion policy
    /// (it may block under [`ExhaustPolicy::Wait`]), and a full ring stops
    /// the batch early — a partial submit.  An empty batch is `Ok(0)` with
    /// no doorbell; a ring with no room for even the first descriptor is
    /// [`MpfError::WouldBlock`] (drain, then resubmit the rest).
    pub fn submit_sends(&self, pid: ProcessId, id: LnvcId, payloads: &[&[u8]]) -> Result<usize> {
        self.submit_sends_deadline(pid, id, payloads, None)
    }

    /// [`Self::submit_sends`] bounded by `deadline`: exhaustion waits
    /// under [`ExhaustPolicy::Wait`] time out, surfacing
    /// [`MpfError::TimedOut`] when nothing was staged (partial progress
    /// still wins otherwise).
    pub fn submit_sends_deadline(
        &self,
        pid: ProcessId,
        id: LnvcId,
        payloads: &[&[u8]],
        deadline: Option<Instant>,
    ) -> Result<usize> {
        self.check_pid(pid)?;
        let slot = self.slot(id)?;
        Self::validate(slot, id)?;
        if payloads.is_empty() {
            return Ok(0);
        }
        let sq = &self.aio_sq[pid.index()];
        let mut submitted = 0usize;
        for (i, buf) in payloads.iter().enumerate() {
            if sq.is_full() {
                break;
            }
            let (msg_idx, chain) = match self.alloc_message(pid, id.index(), buf, deadline) {
                Ok(alloc) => alloc,
                // Keep what was already staged; surface the error only
                // when nothing was (callers see partial progress first).
                Err(e) if submitted == 0 => return Err(e),
                Err(_) => break,
            };
            // The payload chain is filled but unpublished; the descriptor
            // carries everything the drain needs to link it: the chain
            // head rides the low half of user_data, the batch token the
            // high half.  The causal id is decided here — staging is the
            // send's causal point — and the hop count rides the status
            // field, which carries no meaning until completion.
            let (trace, hop) = self.trace_for_send(pid);
            let pushed = sq.try_push(RingEntry {
                user_data: (u64::from(u32::try_from(i).unwrap_or(u32::MAX)) << 32)
                    | u64::from(chain.head),
                trace,
                lnvc: id.as_i32() as u32,
                arg0: msg_idx,
                arg1: buf.len() as u32,
                status: hop as i32,
            });
            debug_assert!(pushed, "single-submitter ring had room");
            self.trace_rec(
                pid,
                TR_ENQUEUE,
                hop,
                trace,
                id.index(),
                0,
                buf.len() as u32,
                i as u32,
            );
            submitted += 1;
        }
        if submitted == 0 {
            return Err(MpfError::WouldBlock);
        }
        sq.ring_doorbell();
        Ok(submitted)
    }

    /// Drains `pid`'s submission ring: links every staged message under
    /// one descriptor-lock hold per run of same-conversation descriptors,
    /// wakes receivers **once** per run, and pushes one completion per
    /// descriptor into the CQ (doorbell rung once).  Stops early if the
    /// CQ lacks space, so no completion is ever dropped.  Returns the
    /// number completed.
    pub fn drain_sends(&self, pid: ProcessId) -> Result<usize> {
        self.check_pid(pid)?;
        let sq = &self.aio_sq[pid.index()];
        let cq = &self.aio_cq[pid.index()];
        // Reap-side space only grows (we are the only CQ producer), so
        // this bound is conservative and conservation holds.
        let budget = cq.capacity() - cq.depth();
        let mut entries = Vec::with_capacity(budget.min(sq.depth()));
        while entries.len() < budget {
            let Some(e) = sq.try_pop() else { break };
            entries.push(e);
        }
        if entries.is_empty() {
            return Ok(0);
        }
        let mut done = 0usize;
        while done < entries.len() {
            let lnvc_raw = entries[done].lnvc;
            let run_end = entries[done..]
                .iter()
                .position(|e| e.lnvc != lnvc_raw)
                .map_or(entries.len(), |p| done + p);
            self.drain_run(pid, &entries[done..run_end], cq);
            done = run_end;
        }
        cq.ring_doorbell();
        Ok(entries.len())
    }

    /// Completes one run of same-conversation submission descriptors:
    /// a single lock hold, a single receiver wake, one CQ push each.
    fn drain_run(&self, pid: ProcessId, run: &[RingEntry], cq: &AioRing) {
        let id = LnvcId::from_i32(run[0].lnvc as i32).expect("submit staged a valid id");
        let complete = |e: &RingEntry, status: i32| {
            let pushed = cq.try_push(RingEntry {
                user_data: e.user_data >> 32,
                trace: e.trace,
                lnvc: e.lnvc,
                arg0: 0,
                arg1: e.arg1,
                status,
            });
            debug_assert!(pushed, "drain reserved CQ space");
        };
        let release = |e: &RingEntry| {
            let len = e.arg1 as usize;
            self.blocks.free_chain(Chain {
                head: (e.user_data & u64::from(u32::MAX)) as u32,
                blocks: self.blocks.blocks_needed(len),
            });
            self.msgs.free(e.arg0);
        };
        let slot = match self.slot(id) {
            Ok(slot) => slot,
            Err(e) => {
                for entry in run {
                    release(entry);
                    complete(entry, e.status_code());
                }
                self.mem_waitq.notify_all();
                return;
            }
        };
        let mut sent = 0usize;
        let mut bytes = 0u64;
        {
            let guard = slot.lock.lock();
            let ctx = self.ctx(slot);
            let valid = Self::validate(slot, id)
                .and_then(|()| ctx.find_send(pid).map(|_| ()).ok_or(MpfError::NotConnected));
            if let Err(e) = valid {
                drop(guard);
                for entry in run {
                    release(entry);
                    complete(entry, e.status_code());
                }
                self.mem_waitq.notify_all();
                return;
            }
            // Obligations are fixed per-send, but the connection set cannot
            // change while we hold the lock — one computation covers the run.
            let obligations = {
                let n_bcast = slot.n_bcast();
                let needs_fcfs = slot.n_fcfs() > 0 || n_bcast == 0;
                (u32::from(needs_fcfs) << 16) | n_bcast
            };
            for entry in run {
                let len = entry.arg1 as usize;
                let chain = Chain {
                    head: (entry.user_data & u64::from(u32::MAX)) as u32,
                    blocks: self.blocks.blocks_needed(len),
                };
                let stamp = ctx.enqueue(entry.arg0, len, chain);
                // The staged hop rode the (pre-completion) status field.
                let hop = entry.status as u32;
                if entry.trace != 0 {
                    self.msgs.get(entry.arg0).set_trace(entry.trace, hop);
                }
                self.trace_rec(
                    pid,
                    TR_SEND,
                    hop,
                    entry.trace,
                    id.index(),
                    stamp,
                    len as u32,
                    obligations,
                );
                if let Some(lt) = self.ltel(id.index()) {
                    let sent_at = if self.sample_latency() {
                        now_nanos()
                    } else {
                        0
                    };
                    self.msgs.get(entry.arg0).set_sent_at(sent_at);
                    lt.sends.fetch_add(1, Ordering::Relaxed);
                    lt.bytes_in.fetch_add(len as u64, Ordering::Relaxed);
                }
                sent += 1;
                bytes += len as u64;
            }
            if let Some(lt) = self.ltel(id.index()) {
                lt.note_depth(u64::from(slot.msg_count()));
            }
        }
        // One wake for the whole run — the amortisation the rings buy.
        slot.waitq.notify_all();
        if let Some(t) = self.tel() {
            t.sends.add(sent as u64);
            t.bytes_in.add(bytes);
            for entry in run {
                t.size_hist.record(u64::from(entry.arg1));
            }
        }
        for entry in run {
            complete(entry, 0);
        }
    }

    /// Reaps every pending completion from `pid`'s CQ into `out`; returns
    /// how many were appended.
    pub fn reap_completions(&self, pid: ProcessId, out: &mut Vec<AioCompletion>) -> Result<usize> {
        self.check_pid(pid)?;
        let cq = &self.aio_cq[pid.index()];
        let mut n = 0usize;
        while let Some(e) = cq.try_pop() {
            out.push(AioCompletion {
                user_data: e.user_data,
                trace: e.trace,
                lnvc: e.lnvc,
                len: e.arg1,
                status: e.status,
            });
            n += 1;
        }
        Ok(n)
    }

    /// Submit + drain + reap in one call: sends the whole batch with one
    /// doorbell, one lock hold, and one receiver wake, returning the
    /// completions (tokens are indices into `payloads`).  May also return
    /// completions left over from earlier partial cycles on this ring.
    pub fn send_batch(
        &self,
        pid: ProcessId,
        id: LnvcId,
        payloads: &[&[u8]],
    ) -> Result<Vec<AioCompletion>> {
        if payloads.is_empty() {
            return Ok(Vec::new());
        }
        let submitted = self.submit_sends(pid, id, payloads)?;
        self.drain_sends(pid)?;
        let mut out = Vec::with_capacity(submitted);
        self.reap_completions(pid, &mut out)?;
        Ok(out)
    }

    /// [`Self::send_batch`] bounded by `deadline`: allocation waits time
    /// out with [`MpfError::TimedOut`] when nothing could be staged by
    /// the deadline; a partially staged batch is drained and returned.
    pub fn send_batch_deadline(
        &self,
        pid: ProcessId,
        id: LnvcId,
        payloads: &[&[u8]],
        deadline: Option<Instant>,
    ) -> Result<Vec<AioCompletion>> {
        if payloads.is_empty() {
            return Ok(Vec::new());
        }
        let submitted = self.submit_sends_deadline(pid, id, payloads, deadline)?;
        self.drain_sends(pid)?;
        let mut out = Vec::with_capacity(submitted);
        self.reap_completions(pid, &mut out)?;
        Ok(out)
    }

    /// Collects up to `max` deliverable messages under one lock hold,
    /// copies them outside the lock, then finishes delivery bookkeeping
    /// and prefix reclamation under a second single hold.  Appends to
    /// `out`; returns the number received.
    fn recv_many(
        &self,
        pid: ProcessId,
        id: LnvcId,
        max: usize,
        out: &mut Vec<Vec<u8>>,
    ) -> Result<usize> {
        let slot = self.slot(id)?;
        let guard = slot.lock.lock();
        Self::validate(slot, id)?;
        let ctx = self.ctx(slot);
        let Some(conn_idx) = ctx.find_recv(pid) else {
            return Err(MpfError::NotConnected);
        };
        let conn = self.recvs.get(conn_idx);
        let protocol = conn.protocol();
        // (msg_idx, len, head_block, stamp, sent_at, trace, hop) per
        // claimed message.
        #[allow(clippy::type_complexity)]
        let mut picked: Vec<(u32, usize, u32, u64, u64, u64, u32)> = Vec::new();
        while picked.len() < max {
            let found = match protocol {
                Protocol::Fcfs => ctx.fcfs_peek(),
                Protocol::Broadcast => {
                    let h = conn.head();
                    (h != NIL).then_some(h)
                }
            };
            let Some(msg_idx) = found else { break };
            let msg = self.msgs.get(msg_idx);
            match protocol {
                Protocol::Fcfs => msg.set_fcfs_taken(),
                Protocol::Broadcast => conn.set_head(msg.next()),
            }
            msg.begin_copy();
            picked.push((
                msg_idx,
                msg.len(),
                msg.head_block(),
                msg.stamp(),
                msg.sent_at(),
                msg.trace(),
                msg.hop(),
            ));
        }
        drop(guard);
        if picked.is_empty() {
            return Ok(0);
        }

        for &(_, len, head_block, ..) in &picked {
            let mut buf = vec![0u8; len];
            self.blocks.read_chain(head_block, len, &mut buf);
            out.push(buf);
        }

        // Deliveries are claimed; record them (and adopt the last chain as
        // this process's context) before reclamation can log TR_RECLAIMs.
        let recv_kind = match protocol {
            Protocol::Fcfs => TR_RECV,
            Protocol::Broadcast => TR_RECV_B,
        };
        for &(_, len, _, stamp, _, trace, hop) in &picked {
            self.trace_rec(pid, recv_kind, hop, trace, id.index(), stamp, len as u32, 0);
        }
        if let Some(&(.., trace, hop)) = picked.last() {
            self.adopt_trace(pid, trace, hop);
        }

        let guard = slot.lock.lock();
        for &(msg_idx, ..) in &picked {
            let msg = self.msgs.get(msg_idx);
            msg.end_copy();
            if protocol == Protocol::Broadcast {
                msg.dec_bcast_pending();
            }
        }
        let freed = self.ctx_t(slot, pid).reclaim_prefix();
        drop(guard);

        let received = picked.len() as u64;
        let bytes: u64 = picked.iter().map(|&(_, len, ..)| len as u64).sum();
        if freed > 0 {
            self.mem_waitq.notify_all();
        }
        if let Some(t) = self.tel() {
            t.receives.add(received);
            t.bytes_out.add(bytes);
            if freed > 0 {
                t.reclaims.add(freed as u64);
            }
            let lt = &self.lnvc_tel[id.index() as usize];
            lt.receives.fetch_add(received, Ordering::Relaxed);
            lt.bytes_out.fetch_add(bytes, Ordering::Relaxed);
            if freed > 0 {
                lt.reclaims.fetch_add(freed as u64, Ordering::Relaxed);
            }
            // One clock read covers every sampled message in the batch.
            if picked.iter().any(|&(_, _, _, _, sent_at, ..)| sent_at != 0) {
                let now = now_nanos();
                for &(_, _, _, _, sent_at, ..) in &picked {
                    if sent_at != 0 {
                        let lat = now.saturating_sub(sent_at);
                        t.latency_hist.record(lat);
                        lt.latency.record(lat);
                    }
                }
            }
        }
        Ok(picked.len())
    }

    /// Batched blocking receive: waits for traffic, then drains up to
    /// `max` messages with two lock holds and one reclamation pass total.
    /// `max == 0` returns an empty batch immediately.
    pub fn recv_batch(&self, pid: ProcessId, id: LnvcId, max: usize) -> Result<Vec<Vec<u8>>> {
        self.check_pid(pid)?;
        let mut out = Vec::new();
        if max == 0 {
            return Ok(out);
        }
        loop {
            let slot = self.slot(id)?;
            let ticket = slot.waitq.ticket();
            if self.recv_many(pid, id, max, &mut out)? > 0 {
                return Ok(out);
            }
            self.note_recv_wait(pid, id.index());
            slot.waitq.wait(ticket, self.cfg.wait_strategy);
        }
    }

    /// [`Self::recv_batch`] bounded by `deadline`: [`MpfError::TimedOut`]
    /// if nothing was deliverable by then (a batch racing the deadline is
    /// delivered — the queue is drained once more after the final wait).
    pub fn recv_batch_deadline(
        &self,
        pid: ProcessId,
        id: LnvcId,
        max: usize,
        deadline: Option<Instant>,
    ) -> Result<Vec<Vec<u8>>> {
        self.check_pid(pid)?;
        let mut out = Vec::new();
        if max == 0 {
            return Ok(out);
        }
        loop {
            let slot = self.slot(id)?;
            let ticket = slot.waitq.ticket();
            if self.recv_many(pid, id, max, &mut out)? > 0 {
                return Ok(out);
            }
            self.note_recv_wait(pid, id.index());
            if !slot
                .waitq
                .wait_deadline(ticket, self.cfg.wait_strategy, deadline)
            {
                if self.recv_many(pid, id, max, &mut out)? > 0 {
                    return Ok(out);
                }
                return Err(MpfError::TimedOut);
            }
        }
    }

    /// Non-blocking [`Self::recv_batch`]: drains whatever is deliverable
    /// right now (possibly nothing).
    pub fn try_recv_batch(&self, pid: ProcessId, id: LnvcId, max: usize) -> Result<Vec<Vec<u8>>> {
        self.check_pid(pid)?;
        let mut out = Vec::new();
        if max > 0 {
            self.recv_many(pid, id, max, &mut out)?;
        }
        Ok(out)
    }

    /// Counters of `pid`'s submission/completion ring pair.
    pub fn aio_stats(&self, pid: ProcessId) -> Result<AioStats> {
        self.check_pid(pid)?;
        Ok(AioStats::from_rings(
            &self.aio_sq[pid.index()],
            &self.aio_cq[pid.index()],
        ))
    }

    // ------------------------------------------------------------------
    // Reactor support: registered-waker multiplexing over the waitq layer.
    // ------------------------------------------------------------------

    /// Non-blocking receive into a fresh `Vec`; `Ok(None)` when nothing is
    /// deliverable.
    pub fn try_message_receive_vec(&self, pid: ProcessId, id: LnvcId) -> Result<Option<Vec<u8>>> {
        self.check_pid(pid)?;
        let mut buf = Vec::new();
        loop {
            match self.pending_len(pid, id)? {
                Some(len) => {
                    buf.resize(len.max(1), 0);
                    match self.recv_once(pid, id, &mut buf) {
                        Ok(Some(n)) => {
                            buf.truncate(n);
                            return Ok(Some(buf));
                        }
                        // Raced by another FCFS receiver or a longer head;
                        // re-examine.
                        Ok(None) | Err(MpfError::BufferTooSmall { .. }) => continue,
                        Err(e) => return Err(e),
                    }
                }
                None => return Ok(None),
            }
        }
    }

    /// Current wait-queue ticket for `id`'s conversation.  Take it
    /// *before* a failed try-operation: if the sequence has moved past it
    /// by the time a waiter checks again, traffic arrived in between (the
    /// lost-wakeup guard the blocking primitives use, exposed for the
    /// async reactor).
    pub fn recv_signal_ticket(&self, id: LnvcId) -> Result<u32> {
        Ok(self.slot(id)?.waitq.ticket())
    }

    /// Current ticket of the region-exhaustion wait queue (senders'
    /// flow-control signal).
    pub fn mem_signal_ticket(&self) -> u32 {
        self.mem_waitq.ticket()
    }

    /// Blocks until any of the given signals fires: a conversation's wait
    /// queue moves past its ticket, the memory queue moves past `mem`, or
    /// the caller-owned `extra` queue moves past its ticket (the reactor's
    /// own wake channel).  Conversations that no longer resolve are
    /// skipped (their futures will surface the error on the next poll).
    /// Returns immediately when no signal could ever fire.
    pub fn wait_signals(
        &self,
        recv: &[(LnvcId, u32)],
        mem: Option<u32>,
        extra: Option<(&WaitQueue, u32)>,
    ) {
        self.wait_signals_deadline(recv, mem, extra, None);
    }

    /// [`wait_signals`](Self::wait_signals) bounded by a deadline: also
    /// returns (with nothing fired) once `deadline` passes, the seam the
    /// async reactor uses to fire expired timer registrations.
    pub fn wait_signals_deadline(
        &self,
        recv: &[(LnvcId, u32)],
        mem: Option<u32>,
        extra: Option<(&WaitQueue, u32)>,
        deadline: Option<Instant>,
    ) {
        let mut entries: Vec<(&WaitQueue, u32)> = Vec::with_capacity(recv.len() + 2);
        for &(id, ticket) in recv {
            if let Ok(slot) = self.slot(id) {
                entries.push((&slot.waitq, ticket));
            }
        }
        if let Some(ticket) = mem {
            entries.push((&self.mem_waitq, ticket));
        }
        if let Some(entry) = extra {
            entries.push(entry);
        }
        if entries.is_empty() {
            return;
        }
        WaitQueue::wait_many_deadline(&entries, self.cfg.wait_strategy, deadline);
    }

    /// Audits every structural invariant of the facility.  Intended for
    /// **quiescent points** — moments when no operation is under way (test
    /// boundaries, scheduler-serialized checks in `mpf-check`) — because
    /// unfinished receives legitimately hold partial state (e.g. a broadcast
    /// head advanced before `bcast_pending` is decremented).
    ///
    /// Checks, per live conversation (registry lock, then descriptor lock —
    /// the open/close order):
    ///
    /// * queue is acyclic; `msg_count`, `q_tail`, FIFO stamps agree with a
    ///   full walk;
    /// * connection lists match `n_senders`/`n_fcfs`/`n_bcast`;
    /// * every `bcast_pending` equals the number of broadcast receivers
    ///   whose cursor has not passed the message;
    /// * the shared FCFS cursor has not skipped an owed message;
    /// * no queued message waits on an FCFS delivery the current connection
    ///   set can never produce (the obligation-leak class of bug);
    /// * the queue head is not a fully-consumed, unpinned message (prefix
    ///   reclamation keeps up);
    ///
    /// and globally that pool occupancy (messages, blocks, connections,
    /// LNVC slots) is exactly accounted for by the walks.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        let reg = self.registry.lock();
        if reg.len() != self.lnvcs.in_use() as usize {
            return Err(format!(
                "registry has {} names but {} LNVC slots are allocated",
                reg.len(),
                self.lnvcs.in_use()
            ));
        }
        let mut messages = 0u32;
        let mut blocks = 0u64;
        let mut senders = 0u32;
        let mut receivers = 0u32;
        for (name, &idx) in reg.iter() {
            if idx >= self.lnvcs.capacity() {
                return Err(format!("registry entry '{name}' points at bad slot {idx}"));
            }
            let slot = self.lnvcs.get(idx);
            let _guard = slot.lock.lock();
            if !slot.is_active() {
                return Err(format!("registry entry '{name}' points at dead slot {idx}"));
            }
            let audit = self
                .ctx(slot)
                .audit()
                .map_err(|e| format!("LNVC '{name}' (slot {idx}): {e}"))?;
            messages += audit.messages;
            blocks += audit.blocks;
            senders += audit.senders;
            receivers += audit.receivers;
        }
        let msgs_in_use = self.msgs.in_use();
        if messages != msgs_in_use {
            return Err(format!(
                "message headers leaked: queues hold {messages}, pool has {msgs_in_use} allocated"
            ));
        }
        let blocks_in_use = (self.blocks.capacity() - self.blocks.available()) as u64;
        if blocks != blocks_in_use {
            return Err(format!(
                "blocks leaked: queues hold {blocks}, pool has {blocks_in_use} allocated"
            ));
        }
        let sends_in_use = self.sends.in_use();
        if senders != sends_in_use {
            return Err(format!(
                "send connections leaked: lists hold {senders}, pool has {sends_in_use} allocated"
            ));
        }
        let recvs_in_use = self.recvs.in_use();
        if receivers != recvs_in_use {
            return Err(format!(
                "receive connections leaked: lists hold {receivers}, \
                 pool has {recvs_in_use} allocated"
            ));
        }
        Ok(())
    }

    /// Panics with the violation description if [`Self::check_invariants`]
    /// fails.  Convenient at the end of tests.
    pub fn assert_invariants(&self) {
        if let Err(e) = self.check_invariants() {
            panic!("MPF invariant violated: {e}");
        }
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
            let v = mpf.message_receive_vec(pid, rx).unwrap();
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
        assert_eq!(mpf.message_receive_vec(p(1), rf).unwrap(), b"both");
        assert_eq!(mpf.message_receive_vec(p(2), rb1).unwrap(), b"both");
        assert_eq!(mpf.message_receive_vec(p(3), rb2).unwrap(), b"both");
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
            mpf.try_message_receive(p(1), rx, &mut small).unwrap_err(),
            MpfError::BufferTooSmall { needed: 100 }
        );
        // Still there; a big enough buffer gets it.
        let v = mpf.message_receive_vec(p(1), rx).unwrap();
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
            mpf.try_message_receive(p(0), tx, &mut buf).unwrap_err(),
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
        assert_eq!(
            mpf.message_receive_vec(p(1), rx).unwrap(),
            b"waiting for you"
        );
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
        assert_eq!(mpf.message_receive_vec(p(2), r2).unwrap(), b"after");
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
            mpf.message_receive_vec(p(1), r1).unwrap();
        }
        assert!(mpf.free_blocks() < 256, "r2's claims pin the messages");
        mpf.close_receive(p(2), r2).unwrap();
        assert_eq!(
            mpf.free_blocks(),
            256,
            "the vexing-problem sweep frees them"
        );
        assert_eq!(mpf.reclaimable(), Reclaimable::default());
        mpf.assert_invariants();
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
    fn exhaust_error_policy_reports() {
        let mpf = Mpf::init(
            MpfConfig::new(2, 2)
                .with_total_blocks(4)
                .with_block_payload(10)
                .with_exhaust_policy(ExhaustPolicy::Error),
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
                mpf.message_send(p(0), tx, &[2u8; 20]).unwrap(); // blocks
                sent_second.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(std::time::Duration::from_millis(30));
            assert!(!sent_second.load(Ordering::SeqCst), "sender must block");
            let v = mpf.message_receive_vec(p(1), rx).unwrap();
            assert_eq!(v.len(), 40);
        });
        assert!(sent_second.load(Ordering::SeqCst));
        let v = mpf.message_receive_vec(p(1), rx).unwrap();
        assert_eq!(v, vec![2u8; 20]);
        mpf.assert_invariants();
    }

    #[test]
    fn blocking_receive_wakes_on_send() {
        let mpf = facility();
        let tx = mpf.open_send(p(0), "wake").unwrap();
        let rx = mpf.open_receive(p(1), "wake", Protocol::Fcfs).unwrap();
        std::thread::scope(|s| {
            let h = s.spawn(|| mpf.message_receive_vec(p(1), rx).unwrap());
            std::thread::sleep(std::time::Duration::from_millis(20));
            mpf.message_send(p(0), tx, b"good morning").unwrap();
            assert_eq!(h.join().unwrap(), b"good morning");
        });
        mpf.assert_invariants();
    }

    #[test]
    fn telemetry_tracks_traffic_and_latency() {
        let mpf = facility();
        let tx = mpf.open_send(p(0), "tel").unwrap();
        let rx = mpf.open_receive(p(1), "tel", Protocol::Fcfs).unwrap();
        mpf.message_send(p(0), tx, &[0u8; 50]).unwrap();
        mpf.message_send(p(0), tx, &[0u8; 70]).unwrap();
        mpf.message_receive_vec(p(1), rx).unwrap();
        mpf.message_receive_vec(p(1), rx).unwrap();
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
        let lt = mpf.lnvc_telemetry(rx).unwrap();
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
        assert_eq!(mpf.message_receive_vec(p(1), rx).unwrap(), vec![7u8; 50]);
        let t = mpf.telemetry_snapshot();
        assert_eq!(t.sends, 0);
        assert_eq!(t.receives, 0);
        assert_eq!(t.lnvcs_created, 0);
        assert_eq!(t.latency_hist.count, 0);
        assert_eq!(mpf.lnvc_telemetry(rx).unwrap().sends, 0);
    }

    #[test]
    fn telemetry_resets_when_slot_recycled() {
        let mpf = facility();
        let id1 = mpf.open_send(p(0), "cycle").unwrap();
        mpf.message_send(p(0), id1, b"old").unwrap();
        mpf.close_send(p(0), id1).unwrap();
        let id2 = mpf.open_send(p(0), "cycle").unwrap();
        let lt = mpf.lnvc_telemetry(id2).unwrap();
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
            mpf.message_receive_vec(p(1), r1).unwrap();
        }
        assert_eq!(
            mpf.reclaimable(),
            Reclaimable::default(),
            "messages pinned by r2's claims are live, not corpses"
        );
        mpf.close_receive(p(2), r2).unwrap();
        assert_eq!(mpf.reclaimable(), Reclaimable::default());
        assert_eq!(mpf.free_blocks(), 256);
        mpf.assert_invariants();
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
            assert_eq!(mpf.message_receive_vec(p(1), rx).unwrap(), vec![i]);
        }
    }

    #[test]
    fn check_any_and_wait_any_select_across_conversations() {
        let mpf = facility();
        let a_tx = mpf.open_send(p(0), "sel:a").unwrap();
        let b_tx = mpf.open_send(p(0), "sel:b").unwrap();
        let a_rx = mpf.open_receive(p(1), "sel:a", Protocol::Fcfs).unwrap();
        let b_rx = mpf.open_receive(p(1), "sel:b", Protocol::Fcfs).unwrap();

        assert_eq!(mpf.check_any(p(1), &[a_rx, b_rx]).unwrap(), None);
        mpf.message_send(p(0), b_tx, b"second conversation")
            .unwrap();
        assert_eq!(mpf.check_any(p(1), &[a_rx, b_rx]).unwrap(), Some(b_rx));
        assert_eq!(mpf.wait_any(p(1), &[a_rx, b_rx]).unwrap(), b_rx);

        // Argument order breaks ties.
        mpf.message_send(p(0), a_tx, b"first too").unwrap();
        assert_eq!(mpf.check_any(p(1), &[a_rx, b_rx]).unwrap(), Some(a_rx));

        // A cross-thread wake: wait_any sees a message sent later.
        let v = mpf.message_receive_vec(p(1), a_rx).unwrap();
        assert_eq!(v, b"first too");
        let v = mpf.message_receive_vec(p(1), b_rx).unwrap();
        assert_eq!(v, b"second conversation");
        std::thread::scope(|s| {
            let h = s.spawn(|| mpf.wait_any(p(1), &[a_rx, b_rx]).unwrap());
            std::thread::sleep(std::time::Duration::from_millis(15));
            mpf.message_send(p(0), a_tx, b"wake").unwrap();
            assert_eq!(h.join().unwrap(), a_rx);
        });
        mpf.assert_invariants();
    }

    #[test]
    fn zero_copy_scan_sees_block_sized_pieces() {
        let mpf = Mpf::init(
            MpfConfig::new(4, 4)
                .with_block_payload(10)
                .with_total_blocks(64),
        )
        .unwrap();
        let tx = mpf.open_send(p(0), "scan").unwrap();
        let rx = mpf.open_receive(p(1), "scan", Protocol::Fcfs).unwrap();
        let payload: Vec<u8> = (0..35u8).collect();
        mpf.message_send(p(0), tx, &payload).unwrap();
        let mut gathered = Vec::new();
        let mut pieces = 0;
        let n = mpf
            .message_receive_scan(p(1), rx, |chunk| {
                pieces += 1;
                gathered.extend_from_slice(chunk);
            })
            .unwrap();
        assert_eq!(n, 35);
        assert_eq!(gathered, payload);
        assert_eq!(pieces, 4, "35 bytes over 10-byte blocks = 4 pieces");
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
            mpf.message_receive_scan(pid, rx, |c| got.extend_from_slice(c))
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
            assert_eq!(mpf.message_receive_vec(p(2), rb).unwrap(), vec![9u8; 30]);
        }
        assert_eq!(
            mpf.free_blocks(),
            256,
            "obligation re-evaluation must free the backlog"
        );
        mpf.assert_invariants();
        mpf.close_receive(p(2), rb).unwrap();
        mpf.close_send(p(0), tx).unwrap();
        mpf.assert_invariants();
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
            mpf.message_receive_vec(p(2), rb).unwrap();
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
        mpf.assert_invariants();
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
        mpf.message_receive_vec(p(2), rb).unwrap(); // bcast claim released
        std::thread::scope(|s| {
            let h = s.spawn(|| mpf.message_send(p(0), tx, &[2u8; 10]));
            std::thread::sleep(std::time::Duration::from_millis(30));
            // Pre-fix the sender waits forever: the queued message is owed
            // an FCFS delivery nobody will make.
            mpf.close_receive(p(1), rf).unwrap();
            h.join().unwrap().unwrap();
        });
        assert_eq!(mpf.message_receive_vec(p(2), rb).unwrap(), vec![2u8; 10]);
        mpf.assert_invariants();
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
        assert_eq!(mpf.message_receive_vec(p(2), rf).unwrap(), b"fresh");
        mpf.assert_invariants();
    }

    #[test]
    fn wait_any_rejects_empty_set() {
        let mpf = facility();
        assert_eq!(
            mpf.wait_any(p(0), &[]).unwrap_err(),
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
            let h = s.spawn(|| mpf.wait_any(p(1), &[b_rx, a_rx]).unwrap());
            std::thread::sleep(std::time::Duration::from_millis(40));
            mpf.message_send(p(0), a_tx, b"wake").unwrap();
            assert_eq!(h.join().unwrap(), a_rx);
        });
        mpf.assert_invariants();
    }

    #[test]
    fn slot_recycling_survives_generation_mask_wrap() {
        // Found by the open_close_send microbenchmark: after 2^15 recycles
        // of one slot the id's 15-bit generation wraps; a fresh id must
        // still validate (and the previous generation's id must not).
        let mpf = Mpf::init(MpfConfig::new(1, 2)).unwrap();
        let mut prev = None;
        for round in 0..((1 << 15) + 5) {
            let id = mpf.open_send(p(0), "churn").unwrap();
            if let Some(prev) = prev {
                assert_ne!(prev, id, "round {round}");
            }
            mpf.message_send(p(0), id, b"x")
                .expect("fresh id must validate");
            mpf.close_send(p(0), id).unwrap();
            assert!(
                mpf.message_send(p(0), id, b"x").is_err(),
                "closed id must be stale (round {round})"
            );
            prev = Some(id);
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
        mpf.assert_invariants();
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
        mpf.assert_invariants();
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
        mpf.assert_invariants();
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
        mpf.assert_invariants();
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
        mpf.assert_invariants();
    }

    #[test]
    fn try_send_and_try_receive_vec_report_would_block() {
        let mpf = Mpf::init(
            MpfConfig::new(2, 2)
                .with_total_blocks(4)
                .with_block_payload(10),
        )
        .unwrap();
        let tx = mpf.open_send(p(0), "nb").unwrap();
        let rx = mpf.open_receive(p(1), "nb", Protocol::Fcfs).unwrap();
        assert_eq!(mpf.try_message_receive_vec(p(1), rx).unwrap(), None);
        assert!(mpf.try_message_send(p(0), tx, &[1u8; 40]).unwrap());
        assert!(
            !mpf.try_message_send(p(0), tx, &[2u8; 10]).unwrap(),
            "region full: try-send declines instead of parking"
        );
        assert_eq!(
            mpf.try_message_receive_vec(p(1), rx).unwrap().unwrap(),
            vec![1u8; 40]
        );
        assert!(mpf.try_message_send(p(0), tx, &[2u8; 10]).unwrap());
        mpf.assert_invariants();
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
            mpf.message_receive_vec(p(1), rx).unwrap();
        }
        let t = mpf.telemetry_snapshot();
        assert_eq!(t.sends, 8, "all traffic still counted");
        assert_eq!(t.receives, 8);
        assert_eq!(t.latency_hist.count, 2, "1-in-4 of 8 sends sampled");
        assert_eq!(mpf.lnvc_telemetry(rx).unwrap().latency.count, 2);
        mpf.assert_invariants();
    }

    #[test]
    fn wait_signals_wakes_on_any_registered_source() {
        let mpf = facility();
        let tx = mpf.open_send(p(0), "sig").unwrap();
        let rx = mpf.open_receive(p(1), "sig", Protocol::Fcfs).unwrap();
        let ticket = mpf.recv_signal_ticket(rx).unwrap();
        std::thread::scope(|s| {
            let h = s.spawn(|| mpf.wait_signals(&[(rx, ticket)], None, None));
            std::thread::sleep(std::time::Duration::from_millis(15));
            mpf.message_send(p(0), tx, b"wake").unwrap();
            h.join().unwrap();
        });
        // The extra (caller-owned) queue alone also wakes it.
        let wake = WaitQueue::new();
        let ticket = mpf.recv_signal_ticket(rx).unwrap();
        std::thread::scope(|s| {
            let h =
                s.spawn(|| mpf.wait_signals(&[(rx, ticket)], None, Some((&wake, wake.ticket()))));
            std::thread::sleep(std::time::Duration::from_millis(15));
            wake.notify_all();
            h.join().unwrap();
        });
        mpf.assert_invariants();
    }
}
