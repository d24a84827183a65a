//! The protocol engine: the paper's eight primitives (§3) executed
//! directly against one carved shared-memory region.
//!
//! This is the only implementation of the LNVC protocol in the workspace.
//! Every descriptor is a `#[repr(C)]` struct ([`crate::shmem`]) overlaid
//! on region bytes at the offsets of [`RegionLayout::for_config`], every
//! link a `u32` index, every blocking wait a futex on an in-region word.
//! The region is either a named `/dev/shm` mapping that any process on the
//! machine can [`IpcMpf::attach`] ([`IpcMpf::create`]), or a process-private
//! anonymous one ([`IpcMpf::anon`]) whose participants are threads — the
//! shape [`crate::Mpf`] wraps, one [`IpcMpf::attach_view`] per
//! `ProcessId`.
//!
//! Dead-peer robustness (the part the 1987 paper never needed, because a
//! hung Balance process took the whole job down with it): every attached
//! process owns a heartbeat slot carrying its OS pid.  Lock acquisition
//! probes holders that stall past a patience threshold and breaks locks
//! whose holders died ([`mpf_shm::IpcLock`]); the liveness sweep
//! ([`IpcMpf::sweep_dead_peers`]) detects dead peers, unlinks their
//! connections, and **poisons** the conversations they touched so
//! survivors unblock with [`MpfError::PeerDied`] instead of deadlocking.

use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::config::MpfConfig;
use crate::error::{MpfError, Result};
use crate::layout::{RegionLayout, LAYOUT_VERSION, REGION_MAGIC};
use crate::types::{AioCompletion, AioStats, LnvcId, LnvcName, Protocol, Reclaimable};
use mpf_shm::faultplane::{self, FaultSite};
use mpf_shm::freelist::stretch;
use mpf_shm::ring::{AioRing, RingEntry, AIO_RING_SLOTS};
use mpf_shm::telemetry::{
    bump, facility_snapshot, now_nanos, FacilityTelemetry, LnvcTelSnapshot, LnvcTelemetry,
    TelSnapshot,
};
use mpf_shm::tracering::{
    TraceEvent, TraceRing, TR_CLOSE_RECV, TR_CLOSE_SEND, TR_ENQUEUE, TR_FAULT, TR_LOCK_CONTEND,
    TR_OPEN_RECV, TR_OPEN_SEND, TR_POISON, TR_RECLAIM, TR_RECV, TR_RECV_B, TR_RECV_BLOCK, TR_SEND,
    TR_SEND_BLOCK, TR_SWEEP_DEAD, TR_WAKEUP,
};
use mpf_shm::waitq::FutexSeq;
use mpf_shm::ShmRegion;

use crate::shmem::{
    msg_flags, region_state, slot_state, LnvcDesc, MsgDesc, ProcessSlot, RecvDesc, RegionHeader,
    RegistryEntry, SendDesc, NIL,
};

/// How long any blocked call sleeps between liveness sweeps: the bound
/// within which a dead peer is noticed, and the only timer on a wait
/// path that is not the caller's own deadline.
const RECV_SWEEP_INTERVAL: Duration = Duration::from_millis(50);
/// How long `attach` waits for the creator to finish carving.
const ATTACH_BARRIER_TIMEOUT: Duration = Duration::from_secs(10);

/// The conversation handle under the name the repo benchmark spells
/// (`mpf_ipc::IpcLnvcId`); everything else says [`LnvcId`].
pub type IpcLnvcId = LnvcId;

/// Errors from region creation/attachment (everything after that speaks
/// [`MpfError`]).
#[derive(Debug)]
pub enum AttachError {
    /// The OS refused the shared mapping (or the region does not exist).
    Io(std::io::Error),
    /// The region exists but its header disagrees with this library
    /// (magic, layout version) or all process slots are taken.
    Mpf(MpfError),
}

impl std::fmt::Display for AttachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttachError::Io(e) => write!(f, "shared region i/o: {e}"),
            AttachError::Mpf(e) => write!(f, "shared region rejected: {e}"),
        }
    }
}

impl std::error::Error for AttachError {}

impl From<std::io::Error> for AttachError {
    fn from(e: std::io::Error) -> Self {
        AttachError::Io(e)
    }
}

impl From<MpfError> for AttachError {
    fn from(e: MpfError) -> Self {
        AttachError::Mpf(e)
    }
}

/// Which connection pool an index-linked list lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnKind {
    Send,
    Recv,
}

/// Resolved byte offsets of every segment, and the block count (computed
/// once at map time from the config echo — identical in every process
/// because the layout is a pure function of the config).
#[derive(Debug, Clone, Copy)]
struct Offsets {
    header: usize,
    slots: usize,
    lnvcs: usize,
    registry: usize,
    msgs: usize,
    sends: usize,
    recvs: usize,
    links: usize,
    blocks: usize,
    payloads: usize,
    fac_tel: usize,
    lnvc_tel: usize,
    trace_rings: usize,
    aio_sq: usize,
    aio_cq: usize,
}

/// A carved region as typed tables: the mapping plus the segment offsets
/// of the configuration it was carved for.  A participant ([`IpcMpf`]) and
/// the read-only inspector in `mpf-ipc` reach every in-region struct
/// through this one view.
#[doc(hidden)]
#[derive(Debug)]
pub struct Tables {
    region: ShmRegion,
    off: Offsets,
}

impl Tables {
    /// `region` as the carve of `cfg`: the caller carved it so, or
    /// [`verify_carve`] said it is.
    pub fn new(region: ShmRegion, cfg: &MpfConfig) -> Self {
        let l = RegionLayout::for_config(cfg);
        let seg = |name: &str| l.segment(name).expect("carved segment").offset;
        let off = Offsets {
            header: seg("region header"),
            slots: seg("process slots"),
            lnvcs: seg("lnvc descriptors"),
            registry: seg("name registry"),
            msgs: seg("message headers"),
            sends: seg("send descriptors"),
            recvs: seg("receive descriptors"),
            links: seg("block links"),
            blocks: cfg.total_blocks as usize,
            payloads: seg("block payloads"),
            fac_tel: seg("facility telemetry"),
            lnvc_tel: seg("lnvc telemetry"),
            trace_rings: seg("trace rings"),
            aio_sq: seg("aio sq rings"),
            aio_cq: seg("aio cq rings"),
        };
        Self { region, off }
    }

    /// The mapping itself.
    pub fn region(&self) -> &ShmRegion {
        &self.region
    }

    /// Slot `i` of the table of `T`s carved at byte offset `base`.
    fn table<T>(&self, base: usize, i: u32) -> &T {
        // SAFETY: only called with the in-region structs of `shmem` and
        // `mpf_shm`, each `#[repr(C)]` over atomics — valid for any bit
        // pattern, shared through `&` — at the base of its own table, and
        // every table starts 64-byte aligned with a stride that keeps
        // `T`'s alignment (const-asserted in `shmem`); `at` bounds-checks
        // the slot against the mapping, whatever `i` a caller passes, so
        // an index read from a torn or corrupt region cannot leave it.  A
        // read-only mapping (the inspector's) changes nothing: loads are
        // all its holder does, and a store would fault, not corrupt.
        unsafe { self.region.at(base + i as usize * std::mem::size_of::<T>()) }
    }

    pub fn header(&self) -> &RegionHeader {
        self.table(self.off.header, 0)
    }

    /// Process slot `i`; the index is the MPF process id.
    pub fn slot(&self, i: u32) -> &ProcessSlot {
        self.table(self.off.slots, i)
    }

    pub fn lnvc(&self, i: u32) -> &LnvcDesc {
        self.table(self.off.lnvcs, i)
    }

    pub fn reg_entry(&self, i: u32) -> &RegistryEntry {
        self.table(self.off.registry, i)
    }

    pub fn msg(&self, i: u32) -> &MsgDesc {
        self.table(self.off.msgs, i)
    }

    fn send(&self, i: u32) -> &SendDesc {
        self.table(self.off.sends, i)
    }

    pub fn recv(&self, i: u32) -> &RecvDesc {
        self.table(self.off.recvs, i)
    }

    /// The block links as one slice: `links()[b]` is the next block of
    /// `b`'s chain or of the free list; an index outside the pool panics.
    pub fn links(&self) -> &[AtomicU32] {
        let (at, n) = (self.off.links, self.off.blocks);
        // SAFETY: `bytes_at` bounds-checks the segment's `n` 4-byte links
        // against the mapping; the rest is `table`'s argument for one slot
        // (64-byte aligned, atomics valid for any bit pattern, `&` only).
        unsafe { std::slice::from_raw_parts(self.region.bytes_at(at, 4 * n).cast(), n) }
    }

    /// Process `slot`'s facility-telemetry shard: its cold counters and
    /// what the conversations it deleted had counted.
    pub fn fac_tel(&self, slot: u32) -> &FacilityTelemetry {
        self.table(self.off.fac_tel, slot)
    }

    pub fn lnvc_tel(&self, i: u32) -> &LnvcTelemetry {
        self.table(self.off.lnvc_tel, i)
    }

    /// Process `p`'s trace ring.
    pub fn trace_ring(&self, p: u32) -> &TraceRing {
        self.table(self.off.trace_rings, p)
    }

    /// Process `p`'s aio submission ring.
    pub fn aio_sq(&self, p: u32) -> &AioRing {
        self.table(self.off.aio_sq, p)
    }

    /// Process `p`'s aio completion ring.
    pub fn aio_cq(&self, p: u32) -> &AioRing {
        self.table(self.off.aio_cq, p)
    }

    /// `n` bytes of the block store, from byte `at` of it.
    fn payload(&self, at: usize, n: usize) -> *mut u8 {
        // SAFETY: `bytes_at` bounds-checks the range against the mapping;
        // what may read or write the bytes is the caller's protocol.
        unsafe { self.region.bytes_at(self.off.payloads + at, n) }
    }
}

fn layout_mismatch(found: u32) -> MpfError {
    MpfError::LayoutMismatch {
        expected: LAYOUT_VERSION,
        found,
    }
}

/// The header at the front of `region`, if it is long enough to hold one.
fn carved_header(region: &ShmRegion) -> Result<&RegionHeader> {
    if region.len() < std::mem::size_of::<RegionHeader>() {
        return Err(layout_mismatch(0));
    }
    // SAFETY: long enough, page-aligned, and all atomics.
    Ok(unsafe { region.at(0) })
}

/// Checks that `region` is a finished carve of this layout and returns the
/// creator's configuration: what a participant and the read-only inspector
/// both verify before trusting a single offset.
#[doc(hidden)]
pub fn verify_carve(region: &ShmRegion) -> Result<MpfConfig> {
    let header = carved_header(region)?;
    if header.state.load(Ordering::Acquire) != region_state::READY
        || header.magic.load(Ordering::Acquire) != REGION_MAGIC
    {
        return Err(layout_mismatch(0));
    }
    let found = header.layout_version.load(Ordering::Acquire);
    if found != LAYOUT_VERSION {
        return Err(layout_mismatch(found));
    }
    // The echo is range-checked before any layout math: a corrupt region
    // can present a READY header full of garbage.
    let cfg = header.cfg.decode().ok_or(layout_mismatch(found))?;
    // Defense in depth beyond the version word: the creator stored the
    // total it carved; if OUR layout computation for the echoed config
    // disagrees, this binary and the creator carve different segment maps
    // and every offset past the header would be garbage.
    let expected_bytes = header.total_bytes.load(Ordering::Acquire) as usize;
    if region.len() < expected_bytes
        || RegionLayout::for_config(&cfg).total_bytes() != expected_bytes
    {
        return Err(layout_mismatch(found));
    }
    Ok(cfg)
}

/// `word = f(word)` for a word whose every writer holds the same lock (the
/// LNVC's): a load and a store, not an RMW — the lock's acquire ordered
/// the load, `Release` serves readers that take no lock.  Returns the new
/// value.
#[inline]
fn locked_update(word: &AtomicU32, f: impl FnOnce(u32) -> u32) -> u32 {
    let new = f(word.load(Ordering::Relaxed));
    word.store(new, Ordering::Release);
    new
}

/// One participant's handle on the facility: one per process of a named
/// region, one per logical process ([`IpcMpf::attach_view`]) of an
/// anonymous one.
#[derive(Debug)]
pub struct IpcMpf {
    t: Tables,
    /// The creator's configuration, echoed in the header so every attacher
    /// agrees: the pool sizes, whether telemetry is recorded (the segments
    /// exist either way), and the latency and chain sampling periods.
    cfg: MpfConfig,
    /// Our process slot index — the MPF process id.
    me: u32,
    /// Local counter driving root-id serials and the 1-in-N chain sample.
    trace_tick: AtomicU64,
    /// This process's causal context: the chain of its last delivery,
    /// which its next send continues (one handle = one process).  An
    /// untraced delivery clears it, so unsampled chains never splice
    /// into sampled ones.
    ctx_trace: AtomicU64,
    ctx_hop: AtomicU32,
    /// When this handle last ran the liveness sweep from a wait
    /// (`now_nanos`), so prompt wakes do not probe every peer each time.
    last_sweep: AtomicU64,
    /// Sweeps this handle has run, found anything or not (test hook).
    sweeps_run: AtomicU64,
}

/// How long a receive may wait for its first delivery.
#[derive(Clone, Copy)]
enum Wait {
    /// Not at all: one pass over the queue.
    No,
    /// Until the deadline (`None` = for as long as it takes).
    Until(Option<Instant>),
}

/// Watches armed by one doorbell wait; disarmed on drop.
///
/// Like the in-region locks, in-region registrations are not released by
/// unwinding: no wait panics on its own, so an unwind through one is the
/// schedule explorer's modeled kill, which must leave the region exactly
/// as SIGKILL would — for the sweep to clean up.
struct Watch<'a> {
    ipc: &'a IpcMpf,
    armed: Vec<LnvcId>,
}

impl Drop for Watch<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            for &id in &self.armed {
                self.ipc.set_watch(id, false);
            }
        }
    }
}

/// One registration for the pool signal: from here until the drop, every
/// reclaim in the region bumps the pool signal and rings this process's
/// doorbell.  Withdrawn on drop (but, as for [`Watch`], not by an unwind).
struct PoolWait<'a>(&'a IpcMpf);

impl<'a> PoolWait<'a> {
    fn register(ipc: &'a IpcMpf) -> Self {
        // Region count first, slot share second (and the reverse on the
        // way out): a kill in between leaves the count high — the gate
        // stuck open, every reclaim signalling — never a share the sweep
        // would subtract without it having been added.
        ipc.t.header().pool_waiters.fetch_add(1, Ordering::SeqCst);
        ipc.t.slot(ipc.me).mem_wait.fetch_add(1, Ordering::SeqCst);
        PoolWait(ipc)
    }
}

impl Drop for PoolWait<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let ipc = self.0;
            ipc.t.slot(ipc.me).mem_wait.fetch_sub(1, Ordering::SeqCst);
            ipc.t.header().pool_waiters.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

impl IpcMpf {
    // -- construction --------------------------------------------------

    /// Creates the named region, carves it, and claims process slot 0.
    pub fn create(name: &str, cfg: &MpfConfig) -> std::result::Result<Self, AttachError> {
        let total = RegionLayout::for_config(cfg).total_bytes();
        Self::found(ShmRegion::create(name, total)?, cfg, total)
    }

    /// [`Self::create`] on an anonymous, process-private region: nothing
    /// in the file system names it, so its only other participants are
    /// this handle's [`Self::attach_view`]s.
    pub fn anon(cfg: &MpfConfig) -> std::result::Result<Self, AttachError> {
        let total = RegionLayout::for_config(cfg).total_bytes();
        Self::found(ShmRegion::anon(total), cfg, total)
    }

    /// Carves the fresh, zeroed `region` and claims process slot 0.
    fn found(
        region: ShmRegion,
        cfg: &MpfConfig,
        total: usize,
    ) -> std::result::Result<Self, AttachError> {
        // Calibrate the cycle-counter clock before any event can need a
        // timestamp (one-time cost, shared by telemetry and tracing).
        mpf_shm::clock::calibrate();
        let mut this = Self::slotless(Tables::new(region, cfg), cfg.clone());
        this.carve(cfg, total);
        this.me = this.claim_slot()?;
        Ok(this)
    }

    /// A handle with fresh per-process state that owns no slot yet.
    fn slotless(t: Tables, cfg: MpfConfig) -> Self {
        Self {
            t,
            cfg,
            me: 0,
            trace_tick: AtomicU64::new(0),
            ctx_trace: AtomicU64::new(0),
            ctx_hop: AtomicU32::new(0),
            last_sweep: AtomicU64::new(0),
            sweeps_run: AtomicU64::new(0),
        }
    }

    /// Attaches an existing region by name, verifying its header, and
    /// claims a free process slot.
    pub fn attach(name: &str) -> std::result::Result<Self, AttachError> {
        let region = Self::attach_region_with_barrier(name)?;
        Self::adopt(region)
    }

    /// A second participant inside this process: a further handle on the
    /// same region with a fresh process slot.  Of a named region it is a
    /// second mapping at a different base address — an in-process stand-in
    /// for another OS process, used by position-independence tests; of an
    /// anonymous region it shares the one mapping.
    pub fn attach_view(&self) -> std::result::Result<Self, AttachError> {
        // This handle already verified the header the view would read.
        let again = Tables {
            region: self.t.region.attach_again()?,
            off: self.t.off,
        };
        let mut view = Self::slotless(again, self.cfg.clone());
        view.me = view.claim_slot()?;
        Ok(view)
    }

    fn attach_region_with_barrier(name: &str) -> std::result::Result<ShmRegion, AttachError> {
        // The creator writes the file length before carving, so a fresh
        // attach can observe a zero-length or still-building region; spin
        // on both until the init barrier opens.
        let deadline = Instant::now() + ATTACH_BARRIER_TIMEOUT;
        loop {
            match ShmRegion::attach(name) {
                Ok(region) => return Ok(region),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(AttachError::Io(e));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(AttachError::Io(e)),
            }
        }
    }

    fn adopt(region: ShmRegion) -> std::result::Result<Self, AttachError> {
        mpf_shm::clock::calibrate();
        // Init barrier: wait for the creator to finish carving.
        let deadline = Instant::now() + ATTACH_BARRIER_TIMEOUT;
        while carved_header(&region)?.state.load(Ordering::Acquire) != region_state::READY {
            if Instant::now() >= deadline {
                return Err(AttachError::Io(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "region never became ready",
                )));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let cfg = verify_carve(&region)?;
        let mut this = Self::slotless(Tables::new(region, &cfg), cfg);
        this.me = this.claim_slot()?;
        Ok(this)
    }

    /// One-time carve: header fields, then free-list threading, then the
    /// `state = READY` barrier release (`Release` ordering publishes the
    /// carve to attaching processes).
    fn carve(&self, cfg: &MpfConfig, total: usize) {
        let h = self.t.header();
        h.layout_version.store(LAYOUT_VERSION, Ordering::Relaxed);
        h.total_bytes.store(total as u64, Ordering::Relaxed);
        let echo = &h.cfg;
        for (field, value) in [
            (&echo.max_lnvcs, cfg.max_lnvcs),
            (&echo.max_processes, cfg.max_processes),
            (&echo.block_payload, cfg.block_payload as u32),
            (&echo.total_blocks, cfg.total_blocks),
            (&echo.max_messages, cfg.max_messages),
            (&echo.max_send_conns, cfg.max_send_conns),
            (&echo.max_recv_conns, cfg.max_recv_conns),
            (&echo.telemetry, cfg.telemetry as u32),
            (&echo.latency_sample_every, cfg.latency_sample_every.max(1)),
            (&echo.trace_sample_every, cfg.trace_sample_every),
        ] {
            field.store(value, Ordering::Relaxed);
        }
        // Thread the four free lists, low indices first out.
        h.msg_free.thread(cfg.max_messages, |s, n| {
            self.t.msg(s).head_block.store(NIL, Ordering::Relaxed);
            self.t.msg(s).next.store(n, Ordering::Relaxed)
        });
        let links = self.t.links();
        h.block_free.thread(cfg.total_blocks, |s, n| {
            links[s as usize].store(n, Ordering::Relaxed)
        });
        h.send_free.thread(cfg.max_send_conns, |s, n| {
            self.t.send(s).next.store(n, Ordering::Relaxed)
        });
        h.recv_free.thread(cfg.max_recv_conns, |s, n| {
            self.t.recv(s).next.store(n, Ordering::Relaxed)
        });
        for i in 0..cfg.max_lnvcs {
            self.t.lnvc(i).q_head.store(NIL, Ordering::Relaxed);
            self.t.lnvc(i).q_tail.store(NIL, Ordering::Relaxed);
            self.t.lnvc(i).send_head.store(NIL, Ordering::Relaxed);
            self.t.lnvc(i).recv_head.store(NIL, Ordering::Relaxed);
        }
        for p in 0..cfg.max_processes {
            self.t.aio_sq(p).reset();
            self.t.aio_cq(p).reset();
        }
        h.magic.store(REGION_MAGIC, Ordering::Release);
        h.state.store(region_state::READY, Ordering::Release);
    }

    /// Claims a free (or swept-dead) process slot; the index becomes this
    /// process's MPF pid.
    fn claim_slot(&self) -> Result<u32> {
        for i in 0..self.cfg.max_processes {
            let s = self.t.slot(i);
            for from in [slot_state::FREE, slot_state::DEAD] {
                if s.state
                    .compare_exchange(
                        from,
                        slot_state::ATTACHED,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
                {
                    // A predecessor that died (or detached) with staged
                    // submissions would leak its pool allocations into the
                    // new owner's ring; reclaim before reuse.
                    self.reclaim_aio_of(i);
                    // Nobody of the predecessor can still be asleep here.
                    s.doorbell.reset_sleepers();
                    s.os_pid.store(std::process::id(), Ordering::Release);
                    s.generation.fetch_add(1, Ordering::AcqRel);
                    s.heartbeat.store(1, Ordering::Release);
                    // Tag the slot's trace ring with the new writer; on a
                    // recycled slot the predecessor's (timestamped) events
                    // remain readable until overwritten.
                    self.t.trace_ring(i).set_writer_pid(std::process::id());
                    return Ok(i);
                }
            }
        }
        Err(MpfError::InvalidProcess)
    }

    /// Frees every message still staged in process `p`'s submission ring
    /// and discards its unreaped completions.  Called when a slot changes
    /// hands (dead-peer sweep, slot reuse, clean detach): staged messages
    /// were allocated from the shared pools but never enqueued, so nobody
    /// else will ever free them.  (What a submitter killed inside
    /// [`Self::stage_run`] had not yet pushed here is on no list: that one
    /// run leaks, DESIGN.md "Free lists".)
    fn reclaim_aio_of(&self, p: u32) {
        let sq = self.t.aio_sq(p);
        while let Some(e) = sq.try_pop() {
            if e.arg0 < self.cfg.max_messages {
                self.free_run(e.arg0, e.arg0, None);
            }
        }
        let cq = self.t.aio_cq(p);
        while cq.try_pop().is_some() {}
    }

    // -- telemetry plumbing --------------------------------------------

    /// This process's facility-counter shard, gated on the recording flag.
    /// Off the message path: per-message quantities are counted per
    /// conversation, under its lock ([`Self::lnvc_tel`]).
    #[inline]
    fn tel(&self) -> Option<&FacilityTelemetry> {
        self.cfg.telemetry.then(|| self.t.fac_tel(self.me))
    }

    /// Books the first wait of one blocking receive on conversation `idx`
    /// (once per call, however many naps it takes).
    fn note_recv_wait(&self, idx: u32) {
        if let Some(t) = self.tel() {
            t.recv_waits.inc();
            self.t
                .lnvc_tel(idx)
                .recv_waits
                .fetch_add(1, Ordering::Relaxed);
        }
        self.trace_pop(TR_RECV_BLOCK, idx, 0);
    }

    /// Liveness oracle for [`mpf_shm::IpcLock`] holders.  Lock owner ids
    /// are `mpf_pid + 1` (0 means "free"), hence the shift.
    fn holder_alive(&self, owner: u32) -> bool {
        if owner == 0 || owner > self.cfg.max_processes {
            return false;
        }
        self.t.slot(owner - 1).owner_alive()
    }

    fn lock_owner(&self) -> u32 {
        self.me + 1
    }

    /// Acquires an LNVC (or registry) lock, poisoning `d` if the previous
    /// holder died inside its critical section.
    fn lock_lnvc(&self, d: &LnvcDesc) {
        let (acq, contended) = d
            .lock
            .lock_traced(self.lock_owner(), |o| self.holder_alive(o));
        if contended {
            if let Some(t) = self.tel() {
                t.lock_contended.inc();
            }
            self.trace_pop(TR_LOCK_CONTEND, NIL, 0);
        }
        if matches!(acq, mpf_shm::IpcAcquire::Poisoned) {
            // The structure may be torn; survivors must not trust it.
            // The broken lock knows which owner died — surface it so
            // PeerDied names the right process.
            if let Some(owner) = d.lock.poison_culprit() {
                d.dead_pid.store(owner - 1, Ordering::Release);
            }
            // Poison is sticky, so every later acquire lands here too —
            // log the marker only on the 0→1 transition.
            if d.poisoned.swap(1, Ordering::AcqRel) == 0 {
                self.trace_pop(TR_POISON, NIL, d.dead_pid.load(Ordering::Acquire));
            }
            d.waitq.notify_all();
            self.ring_watchers(d);
        }
    }

    /// Ticks this process's progress beacon (`mpf-trace stat` shows it; the
    /// liveness sweep probes the OS pid, not this).  The slot's owner is
    /// its only writer, so load + store; two threads of one view can lose
    /// a tick between them, which a beacon does not mind.
    fn heartbeat(&self) {
        bump(&self.t.slot(self.me).heartbeat, 1);
    }

    /// Whether the message with conversation sequence number `seq` and
    /// causal id `trace` is *timed*: its seq is a multiple of the latency
    /// sample period (a power of two, fixed at region creation), and
    /// something records it — telemetry's latency sample, or its traced
    /// chain's dated records.  Only a send or receive call that handles a
    /// timed message reads the clock.
    #[inline]
    fn timed(&self, seq: u32, trace: u64) -> bool {
        let mask = self.cfg.latency_sample_every.saturating_sub(1);
        seq & mask == 0 && (self.cfg.telemetry || trace != 0)
    }

    // -- causal tracing -------------------------------------------------

    /// Whether causal tracing is enabled for this region (the creator's
    /// `trace_sample_rate(0)` turns it off, echoed in the header).
    #[inline]
    fn tracing(&self) -> bool {
        self.cfg.trace_sample_every != 0
    }

    /// Decides the (trace id, hop) of a send by this process: continues
    /// the chain of the process's last delivery when there is one, else
    /// mints a root id — sampled 1-in-N, with the owner pid in bits
    /// 40..63, a serial in the low 40 bits, and the sampled flag in bit
    /// 63.  `(0, 0)` = untraced.
    fn trace_for_send(&self) -> (u64, u32) {
        if !self.tracing() {
            return (0, 0);
        }
        let inherited = self.ctx_trace.load(Ordering::Relaxed);
        if inherited != 0 {
            return (inherited, self.ctx_hop.load(Ordering::Relaxed) + 1);
        }
        let n = self.trace_tick.fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(u64::from(self.cfg.trace_sample_every)) {
            self.t.trace_ring(self.me).note_skipped();
            return (0, 0);
        }
        // The serial is process-local, but the owner bits make roots
        // unique region-wide.
        let root = (1u64 << 63) | ((u64::from(self.me) + 1) << 40) | (n & ((1u64 << 40) - 1));
        (root, 0)
    }

    /// Appends one record to this process's trace ring; a no-op for
    /// untraced chains, so callers thread the gate through `trace == 0`.
    /// `tstamp` is the date: `Some` of the clock read the message-path call
    /// already made, shared by all its records and its latency sample (0 =
    /// the call handled no timed message: undated), or `None` off the
    /// message path, to read the clock here.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn trace_rec_at(
        &self,
        tstamp: Option<u64>,
        kind: u32,
        hop: u32,
        trace: u64,
        lnvc: u32,
        stamp: u64,
        arg: u32,
        arg2: u32,
    ) {
        if trace != 0 {
            let t = tstamp.unwrap_or_else(now_nanos);
            self.t
                .trace_ring(self.me)
                .record_at(t, trace, stamp, kind, hop, lnvc, arg, arg2);
        }
    }

    /// Records a marker event (connection open/close, blocking, lock
    /// contention, sweep, poison).  Not sampled: the conformance checker
    /// needs the receiver-population timeline, and a post-mortem reader
    /// the last things a process did, even across untraced gaps.
    fn trace_pop(&self, kind: u32, lnvc: u32, arg: u32) {
        if self.tracing() {
            self.t
                .trace_ring(self.me)
                .record_at(now_nanos(), 0, 0, kind, 0, lnvc, arg, 0);
        }
    }

    /// One fault-plane decision at `site`: when it fires, the injection is
    /// recorded with the typed error it surfaces as, and `err` returned.
    /// The record is not sampled, like [`trace_pop`](Self::trace_pop): the
    /// `mpf-trace` conformance checker audits that every error-class
    /// injection produced a typed error (`arg2 != 0`), never silent
    /// corruption.
    fn inject_fault(&self, site: FaultSite, err: MpfError) -> Result<()> {
        if !faultplane::inject(site) {
            return Ok(());
        }
        if self.tracing() {
            let code = err.status_code().unsigned_abs();
            self.t.trace_ring(self.me).record_at(
                now_nanos(),
                0,
                0,
                TR_FAULT,
                0,
                NIL,
                site.code(),
                code,
            );
        }
        Err(err)
    }

    /// Adopts a delivered message's chain as this process's causal
    /// context; an untraced delivery clears it.
    #[inline]
    fn adopt_trace(&self, trace: u64, hop: u32) {
        if self.tracing() {
            self.ctx_trace.store(trace, Ordering::Relaxed);
            self.ctx_hop.store(hop, Ordering::Relaxed);
        }
    }

    // -- identity ------------------------------------------------------

    /// This process's MPF pid (its process-slot index).
    pub fn pid(&self) -> u32 {
        self.me
    }

    /// Number of process slots the region was carved for
    /// (`MpfConfig::max_processes`).
    pub fn max_processes(&self) -> u32 {
        self.cfg.max_processes
    }

    /// Total region bytes mapped.
    pub fn region_bytes(&self) -> usize {
        self.t.region.len()
    }

    /// Base address of this mapping (differs between processes — that is
    /// the point).
    pub fn base_addr(&self) -> usize {
        self.t.region.base() as usize
    }

    // -- the eight primitives ------------------------------------------

    /// `open_LNVC_send`: joins (or creates) the named conversation as a
    /// sender.
    pub fn open_send(&self, name: &str) -> Result<LnvcId> {
        let lname = LnvcName::new(name)?;
        self.heartbeat();
        self.with_registry(|| {
            let (idx, created) = self.find_or_create(lname.as_str())?;
            let d = self.t.lnvc(idx);
            self.lock_lnvc(d);
            let result = (|| {
                self.poison_check(d)?;
                if self
                    .find_conn(ConnKind::Send, d.send_head.load(Ordering::Acquire), self.me)
                    .is_some()
                {
                    return Err(MpfError::AlreadyConnected);
                }
                let conn = self
                    .t
                    .header()
                    .send_free
                    .pop(|i| self.t.send(i).next.load(Ordering::Acquire))
                    .ok_or(MpfError::ConnectionsExhausted)?;
                let s = self.t.send(conn);
                s.pid.store(self.me, Ordering::Release);
                s.next
                    .store(d.send_head.load(Ordering::Acquire), Ordering::Release);
                d.send_head.store(conn, Ordering::Release);
                d.n_senders.fetch_add(1, Ordering::AcqRel);
                Ok(LnvcId::new(d.generation.load(Ordering::Acquire), idx))
            })();
            if result.is_err() && created {
                self.deactivate(idx);
            }
            d.lock.unlock();
            if result.is_ok() {
                self.trace_pop(TR_OPEN_SEND, idx, 0);
            }
            result
        })
    }

    /// `open_LNVC_receive`: joins (or creates) the named conversation as
    /// an FCFS or BROADCAST receiver.
    pub fn open_receive(&self, name: &str, protocol: Protocol) -> Result<LnvcId> {
        let lname = LnvcName::new(name)?;
        self.heartbeat();
        self.with_registry(|| {
            let (idx, created) = self.find_or_create(lname.as_str())?;
            let d = self.t.lnvc(idx);
            self.lock_lnvc(d);
            let result = (|| {
                self.poison_check(d)?;
                if let Some(existing) =
                    self.find_conn(ConnKind::Recv, d.recv_head.load(Ordering::Acquire), self.me)
                {
                    let have = self.t.recv(existing).protocol_code();
                    return Err(if have == protocol.code() {
                        MpfError::AlreadyConnected
                    } else {
                        MpfError::ProtocolConflict
                    });
                }
                let first_receiver =
                    d.n_fcfs.load(Ordering::Acquire) + d.n_bcast.load(Ordering::Acquire) == 0;
                let conn = self
                    .t
                    .header()
                    .recv_free
                    .pop(|i| self.t.recv(i).next.load(Ordering::Acquire))
                    .ok_or(MpfError::ConnectionsExhausted)?;
                let r = self.t.recv(conn);
                r.pid.store(self.me, Ordering::Release);
                r.protocol.store(protocol.code(), Ordering::Release);
                // BROADCAST receivers see only messages sent after they
                // join (paper §3.2).
                r.cursor
                    .store(d.next_seq.load(Ordering::Acquire), Ordering::Release);
                r.next
                    .store(d.recv_head.load(Ordering::Acquire), Ordering::Release);
                d.recv_head.store(conn, Ordering::Release);
                match protocol {
                    Protocol::Fcfs => d.n_fcfs.fetch_add(1, Ordering::AcqRel),
                    Protocol::Broadcast => d.n_bcast.fetch_add(1, Ordering::AcqRel),
                };
                // Obligation re-evaluation (DESIGN.md): a backlog queued
                // while nobody listened is owed to the first receiver —
                // but a BROADCAST receiver's cursor starts at the current
                // sequence, so if the first receiver ever to join is
                // BROADCAST the backlog is invisible to everyone and can
                // only pin blocks.  Drop it now.
                if first_receiver && protocol == Protocol::Broadcast {
                    self.clear_fcfs_obligations(d);
                    self.reclaim(idx, d, true, None);
                }
                Ok(LnvcId::new(d.generation.load(Ordering::Acquire), idx))
            })();
            if result.is_err() && created {
                self.deactivate(idx);
            }
            d.lock.unlock();
            if result.is_ok() {
                self.trace_pop(TR_OPEN_RECV, idx, protocol.code());
            }
            result
        })
    }

    /// `close_LNVC_send`: leaves the conversation as a sender; the last
    /// connection out deletes the conversation and frees its queue.
    pub fn close_send(&self, id: LnvcId) -> Result<()> {
        self.heartbeat();
        self.with_registry(|| {
            let (idx, d) = self.resolve(id)?;
            self.lock_lnvc(d);
            let result = (|| {
                let conn = self
                    .unlink_conn(ConnKind::Send, &d.send_head, self.me)
                    .ok_or(MpfError::NotConnected)?;
                self.t
                    .header()
                    .send_free
                    .push(conn, |s, n| self.t.send(s).next.store(n, Ordering::Release));
                d.n_senders.fetch_sub(1, Ordering::AcqRel);
                if d.total_connections() == 0 {
                    self.delete_conversation(idx, d);
                }
                Ok(())
            })();
            d.lock.unlock();
            if result.is_ok() {
                self.trace_pop(TR_CLOSE_SEND, idx, 0);
            }
            result
        })
    }

    /// `close_LNVC_receive`: leaves as a receiver.  A departing BROADCAST
    /// receiver releases its delivery claims so fully-delivered messages
    /// can be reclaimed.
    pub fn close_receive(&self, id: LnvcId) -> Result<()> {
        self.heartbeat();
        self.with_registry(|| {
            let (idx, d) = self.resolve(id)?;
            self.lock_lnvc(d);
            let result = (|| {
                let conn = self
                    .unlink_conn(ConnKind::Recv, &d.recv_head, self.me)
                    .ok_or(MpfError::NotConnected)?;
                // Waits of ours still watching through this connection
                // lose their watch with it; woken below to notice.
                let (protocol, watches) = self.retire_recv(idx, d, conn);
                if d.total_connections() == 0 {
                    self.delete_conversation(idx, d);
                }
                Ok((protocol, watches))
            })();
            d.lock.unlock();
            if let Ok((protocol, watches)) = result {
                self.trace_pop(TR_CLOSE_RECV, idx, protocol);
                if watches != 0 {
                    self.ring_doorbell();
                }
            }
            result.map(|_| ())
        })
    }

    /// `message_send`: scatters the payload into shared blocks and
    /// enqueues it on the conversation.
    pub fn message_send(&self, id: LnvcId, payload: &[u8]) -> Result<()> {
        self.heartbeat();
        let max = self.cfg.max_message_bytes();
        if payload.len() > max {
            return Err(MpfError::MessageTooLarge {
                len: payload.len(),
                max,
            });
        }
        let (idx, d) = self.resolve(id)?;
        // Injected peer death: surface the same typed error a real
        // poisoned conversation produces, without touching the region.
        self.inject_fault(FaultSite::PeerDied, MpfError::PeerDied { pid: 0 })?;
        // Poison is sticky for this descriptor generation, so an
        // unlocked pre-check is sound — and it must precede pool
        // allocation: a poisoned conversation whose corpse's messages
        // exhausted the pools would otherwise report `MessagesExhausted`
        // forever instead of `PeerDied`.
        self.poison_check(d)?;
        // Allocate from the lock-free pools *before* taking the LNVC
        // lock: exhaustion then never happens inside the critical
        // section, and a death mid-allocation cannot corrupt the queue.
        let mut m_idx = NIL;
        self.stage_run(idx, d, &[payload], std::slice::from_mut(&mut m_idx))?;
        // A run of one, in the form the submission ring stages them.
        let (trace, hop) = self.trace_for_send();
        let staged = RingEntry {
            user_data: 0,
            trace,
            lnvc: idx,
            arg0: m_idx,
            arg1: payload.len() as u32,
            status: hop as i32,
        };
        self.publish_run(idx, d, std::slice::from_ref(&staged))
            .inspect_err(|_| self.free_run(m_idx, m_idx, None))
    }

    /// The only routine that publishes: links the staged messages of
    /// `run` — descriptors as [`Self::submit_sends`] stages them: message
    /// index in `arg0`, length in `arg1`, causal id in `trace`, hop count
    /// in `status` — at the tail of conversation `idx` under one lock hold,
    /// with one receiver population and so one set of obligations, books
    /// them, and wakes receivers once.  On error nothing was published and
    /// the staged messages are still the caller's to free.
    fn publish_run(&self, idx: u32, d: &LnvcDesc, run: &[RingEntry]) -> Result<()> {
        // One clock read, at the run's first timed message, is the latency
        // origin of its timed messages and dates every record; a run with
        // none reads nothing and records undated (0).
        let mut now = 0u64;
        self.lock_lnvc(d);
        let published = self.send_obligations(d).map(|(needs_fcfs, n_bcast)| {
            // Stamps are the region's total order over sends, increasing
            // along every queue; a run takes its block of them in one
            // step, so none has to be carried out of the lock one by one
            // for the trace records below.
            let first_stamp = self
                .t
                .header()
                .next_stamp
                .fetch_add(run.len() as u64, Ordering::AcqRel);
            let lt = self.cfg.telemetry.then(|| self.t.lnvc_tel(idx));
            let (mut bytes, mut depth) = (0u64, 0u32);
            for (e, stamp) in run.iter().zip(first_stamp..) {
                let m = self.t.msg(e.arg0);
                // The causal id is in place before receivers can see the
                // message (staging left both words zero).
                if e.trace != 0 {
                    m.trace.store(e.trace, Ordering::Release);
                    m.hop.store(e.status as u32, Ordering::Release);
                }
                // The seq `publish` is about to give it decides the timing.
                if self.timed(d.next_seq.load(Ordering::Relaxed), e.trace) {
                    if now == 0 {
                        now = now_nanos();
                    }
                    // The latency origin, which the receiver of a timed
                    // message reads.
                    if lt.is_some() {
                        m.sent_at.store(now, Ordering::Release);
                    }
                }
                depth = self.publish(d, e.arg0, stamp, needs_fcfs, n_bcast);
                if let Some(lt) = lt {
                    lt.sizes.record_locked(u64::from(e.arg1));
                }
                bytes += u64::from(e.arg1);
            }
            if let Some(lt) = lt {
                // lt.* writes are serialised by the LNVC lock we hold, so
                // the RMW-free `bump` is sound (see telemetry::bump).
                bump(&lt.sends, run.len() as u64);
                bump(&lt.bytes_in, bytes);
                lt.note_depth(u64::from(depth));
            }
            // Obligations are fixed at this instant; packed, they are what
            // the conformance checker audits the deliveries against.
            (first_stamp, (u32::from(needs_fcfs) << 16) | n_bcast)
        });
        d.lock.unlock();
        let (first_stamp, obligations) = published?;
        // One wake for the whole run — the amortisation the rings buy.
        self.notify_lnvc(d);
        let at = Some(now);
        for (e, stamp) in run.iter().zip(first_stamp..) {
            let hop = e.status as u32;
            self.trace_rec_at(at, TR_SEND, hop, e.trace, idx, stamp, e.arg1, obligations);
        }
        Ok(())
    }

    /// `check_receive`: non-destructively reports whether a message is
    /// deliverable to this process.
    pub fn check_receive(&self, id: LnvcId) -> Result<bool> {
        self.heartbeat();
        let (_, d) = self.resolve(id)?;
        self.lock_lnvc(d);
        let result = (|| {
            self.poison_check(d)?;
            let conn = self
                .find_conn(ConnKind::Recv, d.recv_head.load(Ordering::Acquire), self.me)
                .ok_or(MpfError::NotConnected)?;
            let head = d.q_head.load(Ordering::Acquire);
            Ok(self.next_deliverable(head, self.t.recv(conn)) != NIL)
        })();
        d.lock.unlock();
        result
    }

    /// Non-blocking `message_receive`: `Ok(None)` when nothing is
    /// deliverable.
    pub fn try_message_receive(&self, id: LnvcId, buf: &mut [u8]) -> Result<Option<usize>> {
        let take = |m: &MsgDesc, len| self.copy_out(m, len, buf);
        let (msgs, bytes) = self.receive_with(id, Wait::No, 1, take)?;
        Ok((msgs != 0).then_some(bytes))
    }

    /// Blocking `message_receive`: the paper's default.  Waits on the
    /// in-region futex sequence, waking at least every
    /// [`RECV_SWEEP_INTERVAL`] for a liveness sweep, so a dead sender
    /// converts a would-be deadlock into [`MpfError::PeerDied`].
    pub fn message_receive(&self, id: LnvcId, buf: &mut [u8]) -> Result<usize> {
        self.recv_deadline(id, buf, None)
    }

    /// Deadline-bounded blocking receive: [`MpfError::TimedOut`] once
    /// `deadline` passes with nothing deliverable (`None` blocks
    /// forever, like [`Self::message_receive`]).
    ///
    /// The expiry check runs *after* each delivery attempt, so a message
    /// racing the deadline is delivered, not timed out.
    pub fn recv_deadline(
        &self,
        id: LnvcId,
        buf: &mut [u8],
        deadline: Option<Instant>,
    ) -> Result<usize> {
        let take = |m: &MsgDesc, len| self.copy_out(m, len, buf);
        Ok(self.receive_with(id, Wait::Until(deadline), 1, take)?.1)
    }

    /// Zero-copy blocking receive: the next message's payload is visited
    /// in order as slices borrowed straight from the region, with no
    /// intermediate copy into a user buffer — the paper's §5 "direct data
    /// transfer" idea applied to the receive side.  Each slice is a
    /// maximal contiguous run of the message's blocks: the whole payload
    /// at once when its chain came off an unfragmented pool, at most one
    /// slice per block otherwise.  Returns the message length; the message
    /// is consumed exactly as by [`Self::message_receive`].
    ///
    /// `visit` runs under the conversation's lock, like the copy it
    /// replaces: it must not call back into the facility.
    pub fn message_receive_scan(&self, id: LnvcId, mut visit: impl FnMut(&[u8])) -> Result<usize> {
        let take = |m: &MsgDesc, len| {
            self.scan_chain(m, len, &mut visit);
            Ok(())
        };
        Ok(self.receive_with(id, Wait::Until(None), 1, take)?.1)
    }

    /// Every receive: delivers up to `max` messages through `take` (see
    /// [`Self::deliver_locked`]) under one lock hold and returns how many
    /// messages and bytes that was.  With nothing deliverable,
    /// [`Wait::No`] returns `(0, 0)` at once and [`Wait::Until`] sleeps on
    /// the conversation's sequence — the only place a receiver does —
    /// waking at least every [`RECV_SWEEP_INTERVAL`] to look for dead
    /// peers, until a first delivery or [`MpfError::TimedOut`].
    fn receive_with(
        &self,
        id: LnvcId,
        wait: Wait,
        max: usize,
        mut take: impl FnMut(&MsgDesc, usize) -> Result<()>,
    ) -> Result<(usize, usize)> {
        self.heartbeat();
        if max == 0 {
            return Ok((0, 0));
        }
        // One blocked call is one wait, however many 50 ms naps it takes —
        // counting per nap would turn an idle receiver into a counter storm.
        let mut waited = false;
        loop {
            let (idx, d) = self.resolve(id)?;
            if matches!(wait, Wait::Until(_)) {
                // Injected peer death: identical shape to a sweep-detected
                // poisoning, minus the region mutation.  The single-pass
                // `try_` forms never wait and are left alone.
                self.inject_fault(FaultSite::PeerDied, MpfError::PeerDied { pid: 0 })?;
            }
            // Ticket before the predicate check (the sequence-count
            // protocol): a send between our check and our wait bumps the
            // sequence and the wait returns immediately.
            let ticket = d.waitq.ticket();
            self.lock_lnvc(d);
            let result = self.deliver_locked(idx, d, max, &mut take);
            d.lock.unlock();
            let delivered = result?;
            let deadline = match wait {
                Wait::Until(deadline) if delivered.0 == 0 => deadline,
                _ => {
                    if waited && self.tracing() {
                        // The delivery that ended the block; its chain is
                        // the context deliver_locked just adopted.
                        let trace = self.ctx_trace.load(Ordering::Relaxed);
                        let hop = self.ctx_hop.load(Ordering::Relaxed);
                        let bytes = delivered.1 as u32;
                        self.trace_rec_at(None, TR_WAKEUP, hop, trace, idx, 0, bytes, 0);
                    }
                    return Ok(delivered);
                }
            };
            let nap = Self::nap_until(deadline).ok_or(MpfError::TimedOut)?;
            if !waited {
                waited = true;
                self.note_recv_wait(idx);
            }
            d.waitq.wait(ticket, Some(nap));
            // Between naps, look for dead peers so a vanished sender
            // poisons the conversation instead of leaving us blocked
            // forever.
            self.sweep_if_due();
        }
    }

    /// Deadline-bounded blocking send: where [`Self::message_send`]
    /// surfaces pool exhaustion immediately, this registers for the pool
    /// signal and sleeps on the process doorbell — any reclaim in the
    /// region rings it — until the message is enqueued or `deadline`
    /// passes ([`MpfError::TimedOut`]).  `None` retries until the send
    /// succeeds or fails for a non-exhaustion reason.  A vanished
    /// consumer poisons the conversation within the sweep cadence rather
    /// than starving us.
    pub fn send_deadline(
        &self,
        id: LnvcId,
        payload: &[u8],
        deadline: Option<Instant>,
    ) -> Result<()> {
        self.retry_when_pool_frees(deadline, || self.message_send(id, payload))
    }

    /// Runs `attempt` until it stops failing for want of pool memory or
    /// `deadline` passes ([`MpfError::TimedOut`]), sleeping on the pool
    /// signal in between.  An attempt that succeeds first time — the
    /// message path — pays nothing for the possibility of waiting.
    fn retry_when_pool_frees<T>(
        &self,
        deadline: Option<Instant>,
        attempt: impl Fn() -> Result<T>,
    ) -> Result<T> {
        let exhausted = |r: &Result<T>| {
            matches!(
                r,
                Err(MpfError::MessagesExhausted | MpfError::BlocksExhausted)
            )
        };
        let first = attempt();
        if !exhausted(&first) {
            return first;
        }
        // Register, then the ticket, then the retry — in that order, so a
        // reclaim either is seen by the retry or rings past the ticket; the
        // first failure, unregistered, proved nothing.
        let _waiting = PoolWait::register(self);
        loop {
            let ticket = self.doorbell().ticket();
            let again = attempt();
            if !exhausted(&again) {
                return again;
            }
            if !self.doorbell_nap(ticket, deadline) {
                return Err(MpfError::TimedOut);
            }
        }
    }

    /// Blocks until one of `ids` has a deliverable message and returns
    /// that conversation's id, or [`MpfError::TimedOut`] once `deadline`
    /// passes.  Watches every member, so an enqueue, poison
    /// or close on any of them rings this process's doorbell, and sleeps
    /// on that one word.  An empty set is [`MpfError::EmptyWaitSet`];
    /// poisoning of any member surfaces as its error.
    pub fn wait_any_deadline(&self, ids: &[LnvcId], deadline: Option<Instant>) -> Result<LnvcId> {
        if ids.is_empty() {
            return Err(MpfError::EmptyWaitSet);
        }
        self.heartbeat();
        let _watch = self.watch(ids.iter().copied());
        loop {
            // Ticket before the predicate checks: a send racing the poll
            // rings a sequence we already hold.
            let ticket = self.doorbell().ticket();
            for &id in ids {
                if self.check_receive(id)? {
                    return Ok(id);
                }
            }
            if !self.doorbell_nap(ticket, deadline) {
                return Err(MpfError::TimedOut);
            }
        }
    }

    /// What a send checks and fixes under `d`'s lock before it publishes:
    /// the conversation is not poisoned, we are connected as a sender, and
    /// — since delivery obligations fix at send time (DESIGN.md) — whether
    /// an FCFS delivery is owed (FCFS receivers exist, or nobody listens
    /// yet) and how many BROADCAST deliveries (one per such receiver).
    fn send_obligations(&self, d: &LnvcDesc) -> Result<(bool, u32)> {
        self.poison_check(d)?;
        self.find_conn(ConnKind::Send, d.send_head.load(Ordering::Acquire), self.me)
            .ok_or(MpfError::NotConnected)?;
        let n_fcfs = d.n_fcfs.load(Ordering::Acquire);
        let n_bcast = d.n_bcast.load(Ordering::Acquire);
        Ok((n_fcfs > 0 || n_fcfs + n_bcast == 0, n_bcast))
    }

    /// Gives staged message `m_idx` its sequence number, `stamp` and
    /// obligations and links it at the queue's tail; returns the new queue
    /// depth.  Caller holds `d`'s lock.
    fn publish(&self, d: &LnvcDesc, m_idx: u32, stamp: u64, needs_fcfs: bool, n_bcast: u32) -> u32 {
        let m = self.t.msg(m_idx);
        let seq = locked_update(&d.next_seq, |s| s.wrapping_add(1)).wrapping_sub(1);
        m.seq.store(seq, Ordering::Release);
        m.stamp.store(stamp, Ordering::Release);
        m.bcast_pending.store(n_bcast, Ordering::Release);
        m.flags.store(
            if needs_fcfs { msg_flags::NEEDS_FCFS } else { 0 },
            Ordering::Release,
        );
        let tail = d.q_tail.load(Ordering::Acquire);
        if tail == NIL {
            d.q_head.store(m_idx, Ordering::Release);
        } else {
            self.t.msg(tail).next.store(m_idx, Ordering::Release);
        }
        d.q_tail.store(m_idx, Ordering::Release);
        d.last_stamp.store(stamp, Ordering::Release);
        locked_update(&d.msg_count, |n| n + 1)
    }

    /// The only routine that stages: gives each of `payloads` (each within
    /// the size limit) a message header and a filled block chain from the
    /// lock-free pools and writes the header indices to `staged`.  Returns
    /// how many were staged — a prefix, when the pools or an injected
    /// exhaustion end the run early — or the error that kept even the
    /// first out.  A staged descriptor lacks only its queue link and the
    /// publish-time fields (`seq`, `stamp`, `flags`, `bcast_pending`,
    /// `sent_at`).  A single send is a run of one: inlined (with
    /// `alloc_run`) so that its loops fold away there, ≈ 7 ns a send.
    #[inline(always)]
    fn stage_run(
        &self,
        idx: u32,
        d: &LnvcDesc,
        payloads: &[&[u8]],
        staged: &mut [u32],
    ) -> Result<usize> {
        // Injected pool exhaustion: the pools are fine, but the caller
        // must cope as if they were not.  Every message passes the site,
        // before anything is allocated, so the typed error carries no
        // cleanup obligation; the first firing ends the run.
        let site = || self.inject_fault(FaultSite::PoolExhaust, MpfError::MessagesExhausted);
        let n = payloads.iter().take_while(|_| site().is_ok()).count();
        if n == 0 {
            return Err(MpfError::MessagesExhausted);
        }
        if self.alloc_run(&payloads[..n], staged).is_err() {
            // Sweep the conversation for room, then go message by
            // message, so a shortage stages the prefix it still leaves.
            self.sweep_consumed(idx, d);
            for (i, payload) in payloads[..n].iter().enumerate() {
                let one = std::slice::from_ref(payload);
                if let Err(e) = self.alloc_run(one, &mut staged[i..]) {
                    return if i == 0 { Err(e) } else { Ok(i) };
                }
            }
        }
        Ok(n)
    }

    /// Pops `payloads.len()` headers and all their blocks, one chain per
    /// pool, cuts the block chain per message and scatters each payload
    /// into its piece.  All or nothing: a shortage leaves both pools as
    /// they were.  The run is on no list from the first pop until its
    /// caller publishes it or stages it in the submission ring — the
    /// window in which a death leaks it.
    #[inline(always)]
    fn alloc_run(&self, payloads: &[&[u8]], staged: &mut [u32]) -> Result<()> {
        let h = self.t.header();
        let next_of = |i| self.t.msg(i).next.load(Ordering::Acquire);
        let (first, last) = h
            .msg_free
            .pop_chain(payloads.len() as u32, next_of)
            .ok_or(MpfError::MessagesExhausted)?;
        let links = self.t.links();
        // One division per message: the block counts wait in `staged`
        // until the header indices replace them.
        let mut total = 0;
        for (slot, payload) in staged.iter_mut().zip(payloads) {
            *slot = (payload.len() as u32).div_ceil(self.cfg.block_payload as u32);
            total += *slot;
        }
        let mut block = NIL;
        if total != 0 {
            let link_of = |b: u32| links[b as usize].load(Ordering::Acquire);
            let Some((head, _)) = h.block_free.pop_chain(total, link_of) else {
                self.push_free(first, last, NIL, NIL);
                return Err(MpfError::BlocksExhausted);
            };
            block = head;
        }
        let mut m_idx = first;
        for (payload, slot) in payloads.iter().zip(staged) {
            let m = self.t.msg(m_idx);
            let n_blocks = std::mem::replace(slot, m_idx);
            // Still the free list's link: the next header of the run.
            m_idx = next_of(m_idx);
            let head = if n_blocks == 0 { NIL } else { block };
            let mut src = payload.as_ptr();
            let tail = self.for_each_run(head, payload.len(), |dst, n| {
                // SAFETY: the runs add up to `payload.len()` bytes, so
                // `src` stays inside `payload`; `dst` is `n` bytes of
                // blocks only we hold until the message is published.
                unsafe {
                    std::ptr::copy_nonoverlapping(src, dst, n);
                    src = src.add(n);
                }
            });
            if tail != NIL {
                // The cut: this message's chain ends here; what the link
                // held is the next message's first block (after the last
                // message, the free list's top: not ours).
                block = links[tail as usize].load(Ordering::Acquire);
                links[tail as usize].store(NIL, Ordering::Release);
            }
            m.head_block.store(head, Ordering::Release);
            m.n_blocks.store(n_blocks, Ordering::Release);
            m.len.store(payload.len() as u32, Ordering::Release);
            m.next.store(NIL, Ordering::Release);
            m.sent_at.store(0, Ordering::Release);
            m.trace.store(0, Ordering::Release);
            m.hop.store(0, Ordering::Release);
        }
        Ok(())
    }

    // -- batched submission (aio) --------------------------------------

    /// Stages up to `payloads.len()` send descriptors in this process's
    /// in-region submission ring and rings the doorbell **once**.  Each
    /// descriptor's completion token is its index within `payloads`.
    ///
    /// Returns the number staged: pool exhaustion or a full ring stops
    /// the batch early (a partial submit).  An empty batch is `Ok(0)`
    /// with no doorbell; no room for even the first descriptor is
    /// [`MpfError::WouldBlock`] (drain, reap, then resubmit the rest).
    pub fn submit_sends(&self, id: LnvcId, payloads: &[&[u8]]) -> Result<usize> {
        self.heartbeat();
        let max = self.cfg.max_message_bytes();
        let (idx, d) = self.resolve(id)?;
        self.poison_check(d)?;
        if payloads.is_empty() {
            return Ok(0);
        }
        let sq = self.t.aio_sq(self.me);
        // What of the batch has a ring slot and is within the size limit.
        let room = sq.capacity() - sq.depth();
        let fit = payloads
            .iter()
            .take(room)
            .take_while(|buf| buf.len() <= max)
            .count();
        if fit == 0 {
            let len = payloads[0].len();
            return Err(if room == 0 {
                MpfError::WouldBlock
            } else {
                MpfError::MessageTooLarge { len, max }
            });
        }
        let mut staged = [NIL; AIO_RING_SLOTS];
        let submitted = self.stage_run(idx, d, &payloads[..fit], &mut staged)?;
        // One clock read, at the first record that needs one, dates them all.
        let mut now = 0u64;
        for (i, (buf, &m_idx)) in payloads.iter().zip(&staged[..submitted]).enumerate() {
            // The descriptor carries everything the drain needs: the
            // message index, the length, and the handle generation (so a
            // recreated conversation fails the run instead of receiving
            // a stranger's backlog).  The causal id is decided here —
            // staging is the send's causal point — and the hop count
            // rides the status field, which carries no meaning until
            // completion.
            let (trace, hop) = self.trace_for_send();
            let len = buf.len() as u32;
            let pushed = sq.try_push(RingEntry {
                user_data: ((i as u64) << 32) | u64::from(id.generation()),
                trace,
                lnvc: idx,
                arg0: m_idx,
                arg1: len,
                status: hop as i32,
            });
            debug_assert!(pushed, "single-submitter ring had room");
            if now == 0 && trace != 0 {
                now = now_nanos();
            }
            self.trace_rec_at(Some(now), TR_ENQUEUE, hop, trace, idx, 0, len, i as u32);
        }
        sq.ring_doorbell();
        Ok(submitted)
    }

    /// Drains this process's submission ring: links every staged message
    /// under one LNVC-lock hold per run of same-conversation descriptors,
    /// wakes receivers **once** per run, and pushes one completion per
    /// descriptor into the completion ring (doorbell rung once).  Stops
    /// early if the completion ring lacks space, so no completion is ever
    /// dropped.  Returns the number completed.
    pub fn drain_sends(&self) -> usize {
        self.heartbeat();
        let sq = self.t.aio_sq(self.me);
        let cq = self.t.aio_cq(self.me);
        // Reap-side space only grows (we are the only CQ producer), so
        // this bound is conservative and conservation holds.
        let budget = cq.capacity() - cq.depth();
        let mut entries = [RingEntry::default(); AIO_RING_SLOTS];
        let mut n = 0;
        while n < budget {
            let Some(e) = sq.try_pop() else { break };
            entries[n] = e;
            n += 1;
        }
        if n == 0 {
            return 0;
        }
        let entries = &entries[..n];
        let run_key = |e: &RingEntry| (e.lnvc, e.user_data & u64::from(u32::MAX));
        for run in entries.chunk_by(|a, b| run_key(a) == run_key(b)) {
            self.drain_run(run, cq);
        }
        cq.ring_doorbell();
        n
    }

    /// Completes one run of same-conversation submission descriptors:
    /// one [`Self::publish_run`], then one CQ push each.
    fn drain_run(&self, run: &[RingEntry], cq: &AioRing) {
        let id = LnvcId::new((run[0].user_data & u64::from(u32::MAX)) as u32, run[0].lnvc);
        let published = self
            .resolve(id)
            .and_then(|(idx, d)| self.publish_run(idx, d, run));
        if published.is_err() {
            // Gone, poisoned or closed under us: nothing of the run went out.
            for staged in run {
                self.free_run(staged.arg0, staged.arg0, None);
            }
        }
        let status = published.map_or_else(|e| e.status_code(), |()| 0);
        for e in run {
            let pushed = cq.try_push(RingEntry {
                user_data: e.user_data >> 32,
                trace: e.trace,
                lnvc: e.lnvc,
                arg0: 0,
                arg1: e.arg1,
                status,
            });
            debug_assert!(pushed, "drain reserved CQ space");
        }
    }

    /// Reaps every pending completion from this process's CQ into `out`;
    /// returns how many were appended.
    pub fn reap_completions(&self, out: &mut Vec<AioCompletion>) -> usize {
        let cq = self.t.aio_cq(self.me);
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
        n
    }

    /// Submit + drain + reap in one call: sends the whole batch with one
    /// doorbell, one lock hold, and one receiver wake, returning the
    /// completions (tokens are indices into `payloads`).  May also return
    /// completions left over from earlier partial cycles on this ring.
    pub fn send_batch(&self, id: LnvcId, payloads: &[&[u8]]) -> Result<Vec<AioCompletion>> {
        if payloads.is_empty() {
            return Ok(Vec::new());
        }
        let submitted = self.submit_sends(id, payloads)?;
        self.drain_sends();
        let mut out = Vec::with_capacity(submitted);
        self.reap_completions(&mut out);
        Ok(out)
    }

    /// Deadline-bounded [`Self::send_batch`]: keeps resubmitting the
    /// unstaged tail (draining and reaping between rounds, so completed
    /// descriptors release ring slots and pool memory) until every
    /// payload is submitted or `deadline` passes.
    ///
    /// On expiry: [`MpfError::TimedOut`] if *nothing* was submitted;
    /// otherwise the completions gathered so far — a partial batch,
    /// exactly the contract [`Self::submit_sends`] already documents.
    /// Completion tokens index into the original `payloads`.
    pub fn send_batch_deadline(
        &self,
        id: LnvcId,
        payloads: &[&[u8]],
        deadline: Option<Instant>,
    ) -> Result<Vec<AioCompletion>> {
        if payloads.is_empty() {
            return Ok(Vec::new());
        }
        let mut out = Vec::with_capacity(payloads.len());
        let mut submitted = 0usize;
        let mut waiting = None;
        loop {
            let ticket = self.doorbell().ticket();
            // Tokens from `submit_sends` index the *slice* we hand it;
            // re-base them to the original batch after each reap.
            let base = submitted as u64;
            let progressed = match self.submit_sends(id, &payloads[submitted..]) {
                Ok(n) => {
                    submitted += n;
                    true
                }
                // Ring full or pools dry: drain/reap below frees both.
                Err(
                    MpfError::WouldBlock | MpfError::MessagesExhausted | MpfError::BlocksExhausted,
                ) => false,
                Err(e) => {
                    if submitted == 0 {
                        return Err(e);
                    }
                    break;
                }
            };
            let drained = self.drain_sends();
            let start = out.len();
            self.reap_completions(&mut out);
            for c in &mut out[start..] {
                c.user_data += base;
            }
            if submitted >= payloads.len() {
                break;
            }
            if progressed || drained > 0 {
                // Ring slots just came back; go again before sleeping.
                continue;
            }
            // Only a peer's reclaim can help now.  Register for the pool
            // signal, then retry once before the first sleep, so a
            // reclaim that preceded the registration is not waited for.
            if waiting.is_none() {
                waiting = Some(PoolWait::register(self));
            } else if !self.doorbell_nap(ticket, deadline) {
                if submitted == 0 {
                    return Err(MpfError::TimedOut);
                }
                break;
            }
        }
        Ok(out)
    }

    /// Batched blocking receive: waits for traffic (running the liveness
    /// sweep between naps, like [`Self::message_receive`]), then drains
    /// up to `max` messages under one lock hold with one reclamation
    /// pass.  `max == 0` returns an empty batch immediately.
    pub fn recv_batch(&self, id: LnvcId, max: usize) -> Result<Vec<Vec<u8>>> {
        self.recv_batch_deadline(id, max, None)
    }

    /// Deadline-bounded [`Self::recv_batch`]: waits until at least one
    /// message is deliverable, then drains up to `max` under one lock
    /// hold; [`MpfError::TimedOut`] once `deadline` passes with nothing
    /// delivered.  The expiry check runs after each drain attempt, so a
    /// batch racing the deadline is delivered, not timed out.
    pub fn recv_batch_deadline(
        &self,
        id: LnvcId,
        max: usize,
        deadline: Option<Instant>,
    ) -> Result<Vec<Vec<u8>>> {
        self.receive_vecs(id, Wait::Until(deadline), max)
    }

    /// Non-blocking [`Self::recv_batch`]: drains whatever is deliverable
    /// right now (possibly nothing).
    pub fn try_recv_batch(&self, id: LnvcId, max: usize) -> Result<Vec<Vec<u8>>> {
        self.receive_vecs(id, Wait::No, max)
    }

    /// [`Self::receive_with`] gathering each message into a fresh `Vec`.
    fn receive_vecs(&self, id: LnvcId, wait: Wait, max: usize) -> Result<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        self.receive_with(id, wait, max, |m, len| {
            let mut buf = Vec::with_capacity(len);
            self.scan_chain(m, len, &mut |run| buf.extend_from_slice(run));
            out.push(buf);
            Ok(())
        })?;
        Ok(out)
    }

    /// Counters of this process's submission/completion ring pair.
    pub fn aio_stats(&self) -> AioStats {
        AioStats::from_rings(self.t.aio_sq(self.me), self.t.aio_cq(self.me))
    }

    /// Non-blocking receive into a fresh `Vec`; `Ok(None)` when nothing
    /// is deliverable.
    pub fn try_message_receive_vec(&self, id: LnvcId) -> Result<Option<Vec<u8>>> {
        Ok(self.receive_vecs(id, Wait::No, 1)?.pop())
    }

    // -- waiting ---------------------------------------------------------

    /// Rings this process's own doorbell: wakes its threads asleep in a
    /// doorbell wait to re-check whatever they wait for.
    pub fn ring_doorbell(&self) {
        self.doorbell().notify_all();
    }

    /// This process's doorbell: the one word its multi-source and memory
    /// waits sleep on.
    fn doorbell(&self) -> &FutexSeq {
        &self.t.slot(self.me).doorbell
    }

    /// One sleep on the doorbell, at most to `deadline` or the sweep
    /// cadence, then the sweep if it is due.  `false`, without sleeping,
    /// once `deadline` has passed.  Callers loop: ticket, check, nap.
    fn doorbell_nap(&self, ticket: u32, deadline: Option<Instant>) -> bool {
        let Some(nap) = Self::nap_until(deadline) else {
            return false;
        };
        self.doorbell().wait(ticket, Some(nap));
        self.sweep_if_due();
        true
    }

    /// How long a wait may sleep before its next liveness sweep: the
    /// sweep cadence, clamped so a near deadline is missed by
    /// microseconds, not 50 ms.  `None` once `deadline` has passed.
    fn nap_until(deadline: Option<Instant>) -> Option<Duration> {
        match deadline {
            None => Some(RECV_SWEEP_INTERVAL),
            Some(dl) => {
                let left = dl.saturating_duration_since(Instant::now());
                (!left.is_zero()).then(|| left.min(RECV_SWEEP_INTERVAL))
            }
        }
    }

    /// Runs the dead-peer sweep if this handle has not done so within the
    /// sweep cadence: waits that are woken promptly and often must not
    /// probe every peer's liveness each time round.
    fn sweep_if_due(&self) {
        let now = now_nanos();
        let last = self.last_sweep.load(Ordering::Relaxed);
        // A schedule explorer runs no clock: there, sweep after every
        // wait, so schedules replay exactly.
        if mpf_shm::hooks::enabled()
            || now.saturating_sub(last) >= RECV_SWEEP_INTERVAL.as_nanos() as u64
        {
            self.last_sweep.store(now, Ordering::Relaxed);
            self.sweep_dead_peers();
        }
    }

    /// Adds (`on`) or removes one watch of this process on `id`: while a
    /// conversation's watch count is non-zero, whoever changes it rings
    /// the doorbell of each watching process.  Watch state lives with the
    /// receive connection, under the LNVC lock, so it dies with the
    /// connection — closed, or swept after its holder's death.  Returns
    /// whether a watch was added; a conversation that does not resolve or
    /// that we do not receive on is left to the caller's own check.
    fn set_watch(&self, id: LnvcId, on: bool) -> bool {
        let Ok((_, d)) = self.resolve(id) else {
            return false;
        };
        self.lock_lnvc(d);
        let conn = self.find_conn(ConnKind::Recv, d.recv_head.load(Ordering::Acquire), self.me);
        let changed = match conn.map(|c| self.t.recv(c)) {
            Some(r) if on => {
                r.protocol.fetch_add(RecvDesc::WATCH_ONE, Ordering::AcqRel);
                d.watchers.fetch_add(1, Ordering::SeqCst);
                true
            }
            // The connection may have been closed and reopened under the
            // wait; its watches went with it.
            Some(r) if r.watches() != 0 => {
                r.protocol.fetch_sub(RecvDesc::WATCH_ONE, Ordering::AcqRel);
                d.watchers.fetch_sub(1, Ordering::SeqCst);
                true
            }
            _ => false,
        };
        d.lock.unlock();
        changed
    }

    /// Arms a watch on each of `ids` for the life of the returned guard.
    /// Arm, *then* check: see [`Self::notify_lnvc`] for the pairing.
    fn watch(&self, ids: impl Iterator<Item = LnvcId>) -> Watch<'_> {
        let armed = ids.filter(|&id| self.set_watch(id, true)).collect();
        // Orders the arming increments before the predicate loads that
        // follow, whatever their own ordering (tickets are `Acquire`).
        fence(Ordering::SeqCst);
        Watch { ipc: self, armed }
    }

    /// Publishes a change to `d` (enqueue, poison): bumps its sequence,
    /// wakes receivers asleep on it, and rings every process watching it.
    /// Caller must not hold `d`'s lock.
    ///
    /// The watcher check comes after the bump and pairs with a watcher's
    /// arm-then-check: `watchers += 1 ; load seq` against `seq += 1 ;
    /// load watchers`, all ordered `SeqCst` — either we see the watch and
    /// ring, or the watcher sees the moved sequence and does not sleep.
    fn notify_lnvc(&self, d: &LnvcDesc) {
        d.waitq.notify_all();
        if d.watchers.load(Ordering::SeqCst) != 0 {
            self.lock_lnvc(d);
            let watching = self.watching_pids(d);
            d.lock.unlock();
            // Rung after the unlock: a woken watcher's first act is to
            // take this lock (to disarm, to receive), and on a busy CPU
            // it preempts us the instant the wake lands.
            for pid in watching {
                self.t.slot(pid).doorbell.notify_all();
            }
        }
    }

    /// Rings the doorbell of every process with a watch on `d`, for a
    /// caller that holds `d`'s lock and cannot drop it first.
    fn ring_watchers(&self, d: &LnvcDesc) {
        for pid in self.watching_pids(d) {
            self.t.slot(pid).doorbell.notify_all();
        }
    }

    /// The processes with a watch on `d`.  Caller holds `d`'s lock (the
    /// connection list is walked).
    fn watching_pids(&self, d: &LnvcDesc) -> Vec<u32> {
        let mut pids = Vec::new();
        let mut cur = d.recv_head.load(Ordering::Acquire);
        while cur != NIL {
            let r = self.t.recv(cur);
            if r.watches() != 0 {
                pids.push(r.pid.load(Ordering::Acquire));
            }
            cur = r.next.load(Ordering::Acquire);
        }
        pids
    }

    /// Fires the pool signal: bumps its sequence and rings every process
    /// registered as waiting for memory.
    #[cold]
    fn signal_pool(&self) {
        self.t.header().pool_seq.fetch_add(1, Ordering::SeqCst);
        for p in 0..self.cfg.max_processes {
            let s = self.t.slot(p);
            if s.mem_wait.load(Ordering::SeqCst) != 0 {
                s.doorbell.notify_all();
            }
        }
    }

    // -- receive internals ---------------------------------------------

    fn poison_check(&self, d: &LnvcDesc) -> Result<()> {
        if d.poisoned.load(Ordering::Acquire) != 0 {
            return Err(MpfError::PeerDied {
                pid: d.dead_pid.load(Ordering::Acquire),
            });
        }
        Ok(())
    }

    /// The only routine that delivers: hands up to `max` messages
    /// deliverable to this process, oldest first, to `take` — which gets
    /// the descriptor and its payload length and moves the bytes out —
    /// claiming each delivery as it goes, then runs one prefix reclamation
    /// and books the lot.  Returns the messages and bytes delivered,
    /// `(0, 0)` when nothing was deliverable.  An error from `take` leaves
    /// its message queued: it ends a batch, and is the result when it
    /// struck the first message.  Caller holds the LNVC lock.
    fn deliver_locked(
        &self,
        idx: u32,
        d: &LnvcDesc,
        max: usize,
        take: &mut impl FnMut(&MsgDesc, usize) -> Result<()>,
    ) -> Result<(usize, usize)> {
        self.poison_check(d)?;
        let conn = self
            .find_conn(ConnKind::Recv, d.recv_head.load(Ordering::Acquire), self.me)
            .ok_or(MpfError::NotConnected)?;
        let r = self.t.recv(conn);
        let bcast = r.protocol_code() == Protocol::Broadcast.code();
        let kind = if bcast { TR_RECV_B } else { TR_RECV };
        let lt = self.cfg.telemetry.then(|| self.t.lnvc_tel(idx));
        // One clock read, at the first timed message, dates the records
        // from there on (deliveries, then reclaims) and the latency
        // samples; a batch with none reads nothing and records undated.
        let mut now = 0u64;
        let (mut received, mut bytes) = (0usize, 0usize);
        let mut last_chain = (0u64, 0u32);
        // One walk of the queue per batch: nothing moves under the lock, so
        // the scan resumes behind each delivery (queued until the reclaim).
        let mut cur = d.q_head.load(Ordering::Acquire);
        while received < max {
            cur = self.next_deliverable(cur, r);
            if cur == NIL {
                break;
            }
            let m = self.t.msg(cur);
            let len = m.len.load(Ordering::Acquire) as usize;
            if let Err(e) = take(m, len) {
                if received == 0 {
                    return Err(e);
                }
                break;
            }
            let trace = m.trace.load(Ordering::Acquire);
            let hop = m.hop.load(Ordering::Acquire);
            let seq = m.seq.load(Ordering::Acquire);
            if bcast {
                r.cursor.store(seq + 1, Ordering::Release);
            }
            Self::claim_delivery(m, bcast);
            let timed = self.timed(seq, trace);
            if now == 0 && timed {
                now = now_nanos();
            }
            // Delivery is claimed; record it before the reclamation pass
            // can append this message's TR_RECLAIM, so ring order matches
            // logic.
            let stamp = m.stamp.load(Ordering::Acquire);
            self.trace_rec_at(Some(now), kind, hop, trace, idx, stamp, len as u32, 0);
            if let (Some(lt), true) = (lt, timed) {
                // The sender stamped every timed message (same config).
                let sent_at = m.sent_at.load(Ordering::Acquire);
                lt.latency.record_locked(now.saturating_sub(sent_at));
            }
            last_chain = (trace, hop);
            received += 1;
            bytes += len;
            cur = m.next.load(Ordering::Acquire);
        }
        if received != 0 {
            // The last delivery becomes this process's causal context.
            self.adopt_trace(last_chain.0, last_chain.1);
            self.reclaim(idx, d, false, Some(now));
            if let Some(lt) = lt {
                bump(&lt.receives, received as u64);
                bump(&lt.bytes_out, bytes as u64);
            }
        }
        Ok((received, bytes))
    }

    /// Marks one delivery of `m` as made: a BROADCAST claim released, or
    /// the FCFS obligation taken.  Caller holds the lock of the queue `m`
    /// is on.
    #[inline]
    fn claim_delivery(m: &MsgDesc, bcast: bool) {
        if bcast {
            locked_update(&m.bcast_pending, |owed| owed.wrapping_sub(1));
        } else {
            locked_update(&m.flags, |flags| flags | msg_flags::FCFS_TAKEN);
        }
    }

    /// The first message deliverable to connection `r` at or behind `from`
    /// in its queue, [`NIL`] when there is none.
    fn next_deliverable(&self, from: u32, r: &RecvDesc) -> u32 {
        let bcast = r.protocol_code() == Protocol::Broadcast.code();
        let cursor = r.cursor.load(Ordering::Acquire);
        let mut cur = from;
        while cur != NIL {
            let m = self.t.msg(cur);
            let owed = if bcast {
                m.seq.load(Ordering::Acquire) >= cursor
            } else {
                m.fcfs_owed()
            };
            if owed {
                break;
            }
            cur = m.next.load(Ordering::Acquire);
        }
        cur
    }

    /// Clears the FCFS obligation on every still-owed queued message.
    ///
    /// Called (holding the LNVC lock) when the connected-receiver
    /// population changes such that the obligation can never be satisfied:
    /// the last FCFS receiver leaves while BROADCAST receivers keep the
    /// conversation alive, or the first receiver ever to join is
    /// BROADCAST (its cursor skips the backlog).  See DESIGN.md,
    /// "Obligation re-evaluation".
    fn clear_fcfs_obligations(&self, d: &LnvcDesc) {
        let mut cur = d.q_head.load(Ordering::Acquire);
        while cur != NIL {
            let m = self.t.msg(cur);
            if m.fcfs_owed() {
                locked_update(&m.flags, |flags| flags & !msg_flags::NEEDS_FCFS);
            }
            cur = m.next.load(Ordering::Acquire);
        }
    }

    /// The only routine that reclaims: cuts runs of fully-delivered
    /// messages off the queue — its prefix, which is all a receive leaves
    /// behind, or with `whole_queue` wherever they sit — frees each as one
    /// run and books the lot against conversation `idx`.  Interior
    /// messages become reclaimable when an FCFS receiver takes one parked
    /// behind a broadcast-claimed head or when obligations are cleared:
    /// closes and memory-pressure sweeps look for them, the receive hot
    /// path does not.  `tstamp` dates the trace records (see
    /// [`Self::trace_rec_at`]).  Caller holds `d`'s lock.
    fn reclaim(&self, idx: u32, d: &LnvcDesc, whole_queue: bool, tstamp: Option<u64>) {
        let next_of = |m: u32| self.t.msg(m).next.load(Ordering::Acquire);
        let mut freed = 0u32;
        let (mut prev, mut cur) = (NIL, d.q_head.load(Ordering::Acquire));
        loop {
            let (first, mut last, mut n) = (cur, NIL, 0u32);
            while cur != NIL && self.t.msg(cur).fully_delivered() {
                (last, cur, n) = (cur, next_of(cur), n + 1);
            }
            if n != 0 {
                // Off the queue before anything of it is relinked or
                // pushed: a death from here on leaks the run, and leaves
                // the queue whole.
                if prev == NIL {
                    d.q_head.store(cur, Ordering::Release);
                } else {
                    self.t.msg(prev).next.store(cur, Ordering::Release);
                }
                if cur == NIL {
                    d.q_tail.store(prev, Ordering::Release);
                }
                locked_update(&d.msg_count, |c| c.wrapping_sub(n));
                self.free_run(first, last, tstamp);
                freed += n;
            }
            if !whole_queue || cur == NIL {
                break;
            }
            (prev, cur) = (cur, next_of(cur));
        }
        if freed != 0 && self.cfg.telemetry {
            bump(&self.t.lnvc_tel(idx).reclaims, u64::from(freed));
        }
    }

    /// Best-effort sweep under memory pressure: a sender that finds the
    /// pools exhausted books the wait, then reclaims fully-delivered
    /// messages stuck behind a still-claimed queue head before giving up.
    /// Takes the LNVC lock, and books what it freed before letting go.
    fn sweep_consumed(&self, idx: u32, d: &LnvcDesc) {
        if let Some(t) = self.tel() {
            t.send_waits.inc();
        }
        self.trace_pop(TR_SEND_BLOCK, idx, 0);
        self.lock_lnvc(d);
        if d.poisoned.load(Ordering::Acquire) == 0 {
            self.reclaim(idx, d, true, None);
        }
        d.lock.unlock();
    }

    /// Releases a departing/dead BROADCAST receiver's claims from
    /// `cursor` onward.
    fn release_bcast_claims(&self, d: &LnvcDesc, cursor: u32) {
        let mut cur = d.q_head.load(Ordering::Acquire);
        while cur != NIL {
            let m = self.t.msg(cur);
            let owed = m.bcast_pending.load(Ordering::Acquire);
            if m.seq.load(Ordering::Acquire) >= cursor && owed > 0 {
                m.bcast_pending
                    .store(owed.wrapping_sub(1), Ordering::Release);
            }
            cur = m.next.load(Ordering::Acquire);
        }
    }

    // -- allocation helpers --------------------------------------------

    /// Visits the first `len` payload bytes of the chain at `head` as
    /// maximal contiguous runs.  Payloads are laid out by block index, so
    /// a run extends for as long as the chain steps to the adjacent block:
    /// a chain cut from an unfragmented pool is a single run, a scattered
    /// one degrades to one run per block.  Reads each link once and none
    /// past the block that holds the last byte, and returns that block
    /// ([`NIL`] for an empty payload).
    fn for_each_run(&self, head: u32, len: usize, mut f: impl FnMut(*mut u8, usize)) -> u32 {
        let bp = self.cfg.block_payload;
        let mut cur = head;
        let mut left = len;
        let mut last = NIL;
        while left > 0 {
            debug_assert_ne!(cur, NIL);
            let first = cur;
            let mut blocks = 1;
            if left > bp {
                // Every link but the last byte's block's; a full stretch adds it.
                let (links, max) = (self.t.links(), ((left - 1) / bp) as u32);
                let (k, next) = stretch(first, max, |b| links[b as usize].load(Ordering::Acquire));
                (blocks, cur) = (k + u32::from(next == first + k), next);
            }
            let n = left.min(blocks as usize * bp);
            f(self.t.payload(first as usize * bp, n), n);
            left -= n;
            last = first + blocks - 1;
        }
        last
    }

    /// [`Self::deliver_locked`]'s `take` for a caller-supplied buffer.
    fn copy_out(&self, m: &MsgDesc, len: usize, buf: &mut [u8]) -> Result<()> {
        if buf.len() < len {
            // Message stays queued — the caller may retry with a bigger
            // buffer (paper: the receiver learns the needed size).
            return Err(MpfError::BufferTooSmall { needed: len });
        }
        let mut at = 0;
        self.scan_chain(m, len, &mut |run| {
            buf[at..at + run.len()].copy_from_slice(run);
            at += run.len();
        });
        Ok(())
    }

    /// Visits a message's `len` payload bytes in place, one contiguous
    /// run of blocks at a time.  Caller holds the LNVC lock of the queue
    /// `m` is on.
    fn scan_chain(&self, m: &MsgDesc, len: usize, visit: &mut impl FnMut(&[u8])) {
        self.for_each_run(m.head_block.load(Ordering::Acquire), len, |run, n| {
            // SAFETY: the run is `n` payload bytes of a queued message,
            // written only before the message was published; the lock we
            // hold keeps it queued.
            visit(unsafe { std::slice::from_raw_parts(run, n) })
        });
    }

    /// The only routine that frees: returns messages `first ..= last` (or
    /// to the end of the chain, `last` = [`NIL`]: all of it) — linked
    /// through `next` in that order, on no queue and no free list — and
    /// all their blocks with one push per pool.  Their block chains
    /// are linked tail to head on the way, which is why the run must be
    /// off its queue first: a survivor freeing a dead reclaimer's queue
    /// would free the spliced chain once per message.  `tstamp` dates the
    /// `TR_RECLAIM` records (see [`Self::trace_rec_at`]).
    fn free_run(&self, first: u32, last: u32, tstamp: Option<u64>) {
        let links = self.t.links();
        let link_of = |b: u32| links[b as usize].load(Ordering::Acquire);
        let (mut b_head, mut b_tail) = (NIL, NIL);
        let mut cur = first;
        loop {
            let m = self.t.msg(cur);
            // Reclaim is chain-attributed but not conversation-attributed
            // (the descriptor may outlive its LNVC); clearing the id keeps
            // a recycled descriptor from logging a second reclaim.
            let trace = m.trace.load(Ordering::Acquire);
            if trace != 0 {
                let hop = m.hop.load(Ordering::Acquire);
                let stamp = m.stamp.load(Ordering::Acquire);
                self.trace_rec_at(tstamp, TR_RECLAIM, hop, trace, NIL, stamp, cur, 0);
                m.trace.store(0, Ordering::Release);
            }
            let mut b = m.head_block.load(Ordering::Acquire);
            if b != NIL {
                m.head_block.store(NIL, Ordering::Release);
                if b_tail == NIL {
                    b_head = b;
                } else {
                    links[b_tail as usize].store(b, Ordering::Release);
                }
                while b != NIL {
                    let (k, next) = stretch(b, u32::MAX, link_of);
                    (b_tail, b) = (b + k - 1, next);
                }
            }
            let next = m.next.load(Ordering::Acquire);
            if cur == last || next == NIL {
                break;
            }
            cur = next;
        }
        self.push_free(first, cur, b_head, b_tail);
        // The pool signal's gate: one load of the line the pushes above
        // just wrote, zero unless a sender is waiting out an exhaustion.
        if self.t.header().pool_waiters.load(Ordering::SeqCst) != 0 {
            self.signal_pool();
        }
    }

    /// Pushes the linked headers `first ..= last` and, unless `b_head` is
    /// [`NIL`], the linked blocks `b_head ..= b_tail` onto their free
    /// lists.  Signals nobody: a stager handing back the headers of a run
    /// it found no blocks for must not wake itself.
    fn push_free(&self, first: u32, last: u32, b_head: u32, b_tail: u32) {
        let h = self.t.header();
        let set_link = |s: u32, n| self.t.links()[s as usize].store(n, Ordering::Release);
        if b_head != NIL {
            h.block_free.push_chain(b_head, b_tail, set_link);
        }
        let set_next = |s, n| self.t.msg(s).next.store(n, Ordering::Release);
        h.msg_free.push_chain(first, last, set_next);
    }

    // -- conversation lifecycle (registry lock held) --------------------

    /// Runs `f` holding the registry lock (lock order: registry → LNVC).
    fn with_registry<T>(&self, f: impl FnOnce() -> T) -> T {
        let h = self.t.header();
        let (_, contended) = h
            .registry_lock
            .lock_traced(self.lock_owner(), |o| self.holder_alive(o));
        if contended {
            if let Some(t) = self.tel() {
                t.lock_contended.inc();
            }
        }
        // Registry mutations are single-word writes; a broken dead
        // holder cannot tear them, so a poisoned registry stays usable.
        let out = f();
        h.registry_lock.unlock();
        out
    }

    /// Name lookup, creating the conversation when absent.  Returns
    /// `(descriptor index, created_now)`.  Caller holds the registry lock.
    fn find_or_create(&self, name: &str) -> Result<(u32, bool)> {
        let bytes = name.as_bytes();
        let mut padded = [0u8; 32];
        padded[..bytes.len()].copy_from_slice(bytes);
        let mut free_entry = NIL;
        for i in 0..self.cfg.max_lnvcs {
            let e = self.t.reg_entry(i);
            if e.used.load(Ordering::Acquire) == 1 {
                if e.get_name() == padded {
                    return Ok((e.lnvc.load(Ordering::Acquire), false));
                }
            } else if free_entry == NIL {
                free_entry = i;
            }
        }
        if free_entry == NIL {
            return Err(MpfError::LnvcsExhausted);
        }
        // Find a free descriptor slot.
        for idx in 0..self.cfg.max_lnvcs {
            let d = self.t.lnvc(idx);
            if d.active.load(Ordering::Acquire) == 0 {
                // (Re)activate: pristine lock, fresh generation, empty
                // queue and lists.
                d.lock.reset();
                d.generation.fetch_add(1, Ordering::AcqRel);
                d.registry_idx.store(free_entry, Ordering::Release);
                d.q_head.store(NIL, Ordering::Release);
                d.q_tail.store(NIL, Ordering::Release);
                d.msg_count.store(0, Ordering::Release);
                d.send_head.store(NIL, Ordering::Release);
                d.recv_head.store(NIL, Ordering::Release);
                d.n_senders.store(0, Ordering::Release);
                d.n_fcfs.store(0, Ordering::Release);
                d.n_bcast.store(0, Ordering::Release);
                d.next_seq.store(0, Ordering::Release);
                d.poisoned.store(0, Ordering::Release);
                d.dead_pid.store(0, Ordering::Release);
                d.watchers.store(0, Ordering::Release);
                d.waitq.reset_sleepers();
                d.active.store(1, Ordering::Release);
                let e = self.t.reg_entry(free_entry);
                e.set_name(bytes);
                e.lnvc.store(idx, Ordering::Release);
                e.used.store(1, Ordering::Release);
                if let Some(t) = self.tel() {
                    t.lnvcs_created.inc();
                }
                return Ok((idx, true));
            }
        }
        Err(MpfError::LnvcsExhausted)
    }

    /// Releases conversation `idx`'s name and slot — a deletion, or the
    /// roll-back of a creation whose first open failed — and retires its
    /// counts into our telemetry shard, so the slot's next tenant starts
    /// from zero and the facility totals lose nothing.  Caller holds the
    /// registry lock and the LNVC lock.
    fn deactivate(&self, idx: u32) {
        let d = self.t.lnvc(idx);
        let e = self.t.reg_entry(d.registry_idx.load(Ordering::Acquire));
        e.used.store(0, Ordering::Release);
        d.active.store(0, Ordering::Release);
        if let Some(t) = self.tel() {
            t.lnvcs_deleted.inc();
            t.retire(self.t.lnvc_tel(idx), &self.t.header().tel_fold_seq);
        }
    }

    /// Frees every queued message, delivered or not.  Caller holds `d`'s
    /// lock.
    fn drop_queue(&self, d: &LnvcDesc) {
        let first = d.q_head.load(Ordering::Acquire);
        d.q_head.store(NIL, Ordering::Release);
        d.q_tail.store(NIL, Ordering::Release);
        d.msg_count.store(0, Ordering::Release);
        if first != NIL {
            // To the chain's end, not to `q_tail`: a holder that died
            // mid-publish may have left the tail word behind.
            self.free_run(first, NIL, None);
        }
    }

    /// Deletes a conversation whose last connection just closed: frees
    /// queued messages, releases the name.  Caller holds both locks.
    fn delete_conversation(&self, idx: u32, d: &LnvcDesc) {
        self.drop_queue(d);
        self.deactivate(idx);
        // Wake anything parked on the dead conversation; their next
        // resolve() fails with UnknownLnvc.
        d.waitq.notify_all();
    }

    /// The handle of the conversation currently living in descriptor
    /// `index`, if any (a detaching view closes what it still holds).
    fn id_at(&self, index: u32) -> Option<LnvcId> {
        if index >= self.cfg.max_lnvcs {
            return None;
        }
        let d = self.t.lnvc(index);
        // Generation first: a recycle between the two loads then yields a
        // handle that is already stale, never a fresh one for a dead slot.
        let generation = d.generation.load(Ordering::Acquire);
        (d.active.load(Ordering::Acquire) == 1).then(|| LnvcId::new(generation, index))
    }

    fn resolve(&self, id: LnvcId) -> Result<(u32, &LnvcDesc)> {
        let idx = id.index();
        if idx >= self.cfg.max_lnvcs {
            return Err(MpfError::UnknownLnvc);
        }
        let d = self.t.lnvc(idx);
        if d.active.load(Ordering::Acquire) != 1
            || d.generation.load(Ordering::Acquire) != id.generation()
        {
            return Err(MpfError::UnknownLnvc);
        }
        Ok((idx, d))
    }

    fn conn_pid(&self, kind: ConnKind, i: u32) -> u32 {
        match kind {
            ConnKind::Send => self.t.send(i).pid.load(Ordering::Acquire),
            ConnKind::Recv => self.t.recv(i).pid.load(Ordering::Acquire),
        }
    }

    fn conn_next(&self, kind: ConnKind, i: u32) -> u32 {
        match kind {
            ConnKind::Send => self.t.send(i).next.load(Ordering::Acquire),
            ConnKind::Recv => self.t.recv(i).next.load(Ordering::Acquire),
        }
    }

    fn set_conn_next(&self, kind: ConnKind, i: u32, v: u32) {
        match kind {
            ConnKind::Send => self.t.send(i).next.store(v, Ordering::Release),
            ConnKind::Recv => self.t.recv(i).next.store(v, Ordering::Release),
        }
    }

    /// Retires receive connection `conn`, already unlinked from `d`: its
    /// watches go with it, its descriptor returns to the pool, its
    /// delivery claims are released, and what that left fully delivered
    /// is reclaimed from the whole queue (a close or a sweep is the slow
    /// path), not just the head.  Returns the connection's protocol code
    /// and the watches it took along.  Caller holds `d`'s lock.
    fn retire_recv(&self, idx: u32, d: &LnvcDesc, conn: u32) -> (u32, u32) {
        let r = self.t.recv(conn);
        let (protocol, watches) = (r.protocol_code(), r.watches());
        let cursor = r.cursor.load(Ordering::Acquire);
        d.watchers.fetch_sub(watches, Ordering::SeqCst);
        self.t
            .header()
            .recv_free
            .push(conn, |s, n| self.t.recv(s).next.store(n, Ordering::Release));
        if protocol == Protocol::Broadcast.code() {
            d.n_bcast.fetch_sub(1, Ordering::AcqRel);
            self.release_bcast_claims(d, cursor);
        } else if d.n_fcfs.fetch_sub(1, Ordering::AcqRel) == 1
            && d.n_bcast.load(Ordering::Acquire) > 0
        {
            // Obligation re-evaluation (DESIGN.md): the last FCFS receiver
            // is gone while BROADCAST receivers keep the conversation
            // alive, so nobody in the current connection set can ever take
            // the owed messages — drop the obligation so they become
            // reclaimable instead of pinning blocks until the LNVC dies.
            self.clear_fcfs_obligations(d);
        }
        self.reclaim(idx, d, true, None);
        (protocol, watches)
    }

    /// Finds `pid`'s connection in an index-linked list.
    fn find_conn(&self, kind: ConnKind, head: u32, pid: u32) -> Option<u32> {
        let mut cur = head;
        while cur != NIL {
            if self.conn_pid(kind, cur) == pid {
                return Some(cur);
            }
            cur = self.conn_next(kind, cur);
        }
        None
    }

    /// Unlinks `pid`'s connection from an index-linked list, returning it.
    fn unlink_conn(&self, kind: ConnKind, head: &AtomicU32, pid: u32) -> Option<u32> {
        let mut prev = NIL;
        let mut cur = head.load(Ordering::Acquire);
        while cur != NIL {
            let next = self.conn_next(kind, cur);
            if self.conn_pid(kind, cur) == pid {
                if prev == NIL {
                    head.store(next, Ordering::Release);
                } else {
                    self.set_conn_next(kind, prev, next);
                }
                return Some(cur);
            }
            prev = cur;
            cur = next;
        }
        None
    }

    // -- dead-peer robustness ------------------------------------------

    /// Scans the heartbeat table for attached processes whose OS process
    /// no longer exists; each corpse's connections are swept and the
    /// conversations it touched are poisoned.  Returns the number of
    /// newly-found dead peers.  Every blocked receive runs this
    /// periodically; it is also safe to call at any time.
    pub fn sweep_dead_peers(&self) -> u32 {
        self.sweeps_run.fetch_add(1, Ordering::Relaxed);
        let mut found = 0;
        for p in 0..self.cfg.max_processes {
            if p == self.me {
                continue;
            }
            let s = self.t.slot(p);
            if s.state.load(Ordering::Acquire) != slot_state::ATTACHED {
                continue;
            }
            let os_pid = s.os_pid.load(Ordering::Acquire);
            if mpf_shm::futex::process_alive(os_pid) {
                continue;
            }
            // CAS so exactly one surviving process performs the sweep.
            if s.state
                .compare_exchange(
                    slot_state::ATTACHED,
                    slot_state::DEAD,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                found += 1;
                if let Some(t) = self.tel() {
                    t.peers_died.inc();
                }
                self.trace_pop(TR_SWEEP_DEAD, NIL, os_pid);
                // A corpse that died waiting for memory would hold the
                // pool signal's gate open for good.
                let waits = s.mem_wait.swap(0, Ordering::SeqCst);
                self.t
                    .header()
                    .pool_waiters
                    .fetch_sub(waits, Ordering::SeqCst);
                // The corpse may have died between submit and drain:
                // its staged messages are pool allocations linked to no
                // queue, visible only through its submission ring.  The
                // CAS above made us the ring's sole consumer.
                self.reclaim_aio_of(p);
                // The sweep may delete a conversation outright (when the
                // corpse held its only connection), which mutates the
                // name registry — so it runs under the registry lock,
                // registry → LNVC order, same as open/close.  Corpses
                // are rare; the lock hold is not on any fast path.
                self.with_registry(|| self.sweep_connections_of(p));
            }
        }
        if found > 0 {
            if let Some(t) = self.tel() {
                t.sweeps.inc();
            }
            self.t.header().sweep_epoch.fetch_add(1, Ordering::AcqRel);
        }
        found
    }

    /// Removes every connection the dead process held and poisons the
    /// conversations it was party to.  A conversation whose **only**
    /// connection belonged to the corpse is deleted instead: no survivor
    /// is connected to observe the poison or to close it away, so
    /// poisoning would leak the descriptor and name until region
    /// teardown (a SIGKILLed client's private reply LNVC is the
    /// canonical case).  Caller holds the registry lock.
    fn sweep_connections_of(&self, dead: u32) {
        for idx in 0..self.cfg.max_lnvcs {
            let d = self.t.lnvc(idx);
            if d.active.load(Ordering::Acquire) != 1 {
                continue;
            }
            // The oracle knows `dead`'s slot is no longer ATTACHED, so a
            // lock the corpse still holds is broken (and poisons) here
            // rather than blocking the sweep.
            self.lock_lnvc(d);
            let mut touched = false;
            if let Some(conn) = self.unlink_conn(ConnKind::Send, &d.send_head, dead) {
                self.t
                    .header()
                    .send_free
                    .push(conn, |s, n| self.t.send(s).next.store(n, Ordering::Release));
                d.n_senders.fetch_sub(1, Ordering::AcqRel);
                touched = true;
            }
            if let Some(conn) = self.unlink_conn(ConnKind::Recv, &d.recv_head, dead) {
                self.retire_recv(idx, d, conn);
                touched = true;
            }
            let orphaned = touched && d.total_connections() == 0;
            if orphaned {
                // The corpse held the only connection: delete rather
                // than poison (frees the queue, releases the name,
                // wakes any parker — see the method doc).
                self.delete_conversation(idx, d);
            } else if touched {
                d.dead_pid.store(dead, Ordering::Release);
                if d.poisoned.swap(1, Ordering::AcqRel) == 0 {
                    self.trace_pop(TR_POISON, idx, dead);
                }
                // Nobody can drain a poisoned conversation (every
                // receive now reports `PeerDied`), so its queued
                // messages would leak pool slots for the region's
                // lifetime: free the whole queue.
                self.drop_queue(d);
            }
            d.lock.unlock();
            if touched && !orphaned {
                // Unblock survivors; they will observe the poison.
                self.notify_lnvc(d);
            }
        }
    }

    // -- telemetry ------------------------------------------------------

    /// Whether the creator enabled telemetry recording for this region.
    pub fn telemetry_enabled(&self) -> bool {
        self.cfg.telemetry
    }

    /// Snapshot of the facility-wide counters and histograms: every
    /// process shard plus every conversation's block
    /// ([`facility_snapshot`]).  Takes the registry lock, so no
    /// conversation is deleted — its counts mid-move — under the read.
    pub fn telemetry_snapshot(&self) -> TelSnapshot {
        self.with_registry(|| {
            facility_snapshot(
                &self.t.header().tel_fold_seq,
                (0..self.cfg.max_processes).map(|p| self.t.fac_tel(p)),
                (0..self.cfg.max_lnvcs).map(|i| self.t.lnvc_tel(i)),
            )
        })
    }

    /// Snapshot of one conversation's telemetry.
    pub fn lnvc_telemetry(&self, id: LnvcId) -> Result<LnvcTelSnapshot> {
        let (idx, d) = self.resolve(id)?;
        self.lock_lnvc(d);
        let snap = self.t.lnvc_tel(idx).snapshot();
        d.lock.unlock();
        Ok(snap)
    }

    /// Corpse census: messages that are fully delivered but still queued
    /// (and the blocks they pin), summed over all active conversations.
    /// Nonzero means a sweep (`close`, memory-pressure, or dead-peer)
    /// would free memory right now.
    pub fn reclaimable(&self) -> Reclaimable {
        let mut out = Reclaimable::default();
        for idx in 0..self.cfg.max_lnvcs {
            let d = self.t.lnvc(idx);
            if d.active.load(Ordering::Acquire) != 1 {
                continue;
            }
            self.lock_lnvc(d);
            if d.active.load(Ordering::Acquire) == 1 {
                let mut cur = d.q_head.load(Ordering::Acquire);
                while cur != NIL {
                    let m = self.t.msg(cur);
                    if m.fully_delivered() {
                        out.messages += 1;
                        out.blocks += m.n_blocks.load(Ordering::Acquire) as u64;
                    }
                    cur = m.next.load(Ordering::Acquire);
                }
            }
            d.lock.unlock();
        }
        out
    }

    /// Whether causal tracing is enabled for this region (the creator's
    /// choice, echoed in the header so every attacher agrees).
    pub fn trace_enabled(&self) -> bool {
        self.tracing()
    }

    /// The surviving contents of a process's trace ring, oldest first (the
    /// `mpf-trace` crate reconstructs chains from these).
    /// Readable for any pid — including a dead one, which is the point.
    pub fn trace_events(&self, pid: u32) -> Vec<TraceEvent> {
        if pid >= self.cfg.max_processes {
            return Vec::new();
        }
        self.t.trace_ring(pid).snapshot()
    }

    /// Occupancy of a process's trace ring: `(records ever written,
    /// chains skipped by sampling)`; `None` for an out-of-range pid.
    pub fn trace_ring_stats(&self, pid: u32) -> Option<(u64, u64)> {
        (pid < self.cfg.max_processes).then(|| {
            let r = self.t.trace_ring(pid);
            (r.head(), r.skipped())
        })
    }

    // -- diagnostics ----------------------------------------------------

    /// Number of active conversations.
    pub fn live_lnvcs(&self) -> usize {
        (0..self.cfg.max_lnvcs)
            .filter(|&i| self.t.lnvc(i).active.load(Ordering::Acquire) == 1)
            .count()
    }

    /// Free payload blocks (walks the free list; quiescent diagnostic).
    pub fn free_blocks(&self) -> u32 {
        self.t.header().block_free.len(self.cfg.total_blocks, |i| {
            self.t.links()[i as usize].load(Ordering::Acquire)
        })
    }

    /// Whether a given MPF pid's slot is currently attached and alive.
    pub fn peer_alive(&self, pid: u32) -> bool {
        pid < self.cfg.max_processes && self.t.slot(pid).owner_alive()
    }

    /// Whether a conversation named `name` exists right now.  A lock-free
    /// registry probe and a hint only: the answer can be stale by the
    /// time the caller acts on it.  Service layers poll this to discover
    /// rendezvous points (e.g. an epoch-suffixed request queue) without
    /// creating them as a side effect the way `open_*` would.
    pub fn lnvc_exists(&self, name: &str) -> bool {
        let bytes = name.as_bytes();
        if bytes.is_empty() || bytes.len() > 32 {
            return false;
        }
        let mut padded = [0u8; 32];
        padded[..bytes.len()].copy_from_slice(bytes);
        (0..self.cfg.max_lnvcs).any(|i| {
            let e = self.t.reg_entry(i);
            e.used.load(Ordering::Acquire) == 1 && e.get_name() == padded
        })
    }

    /// Queued (undelivered or partially-delivered) message count of a
    /// conversation.  Racy diagnostic: drain protocols use it to decide
    /// whether a queue has quiesced after pausing intake.
    pub fn queue_depth(&self, id: LnvcId) -> Result<u32> {
        let (_, d) = self.resolve(id)?;
        Ok(d.msg_count.load(Ordering::Acquire))
    }

    /// Whether a conversation has been poisoned by a dead peer (sticky
    /// until the conversation is deleted and its name recycled).
    pub fn lnvc_poisoned(&self, id: LnvcId) -> Result<bool> {
        let (_, d) = self.resolve(id)?;
        Ok(d.poisoned.load(Ordering::Acquire) != 0)
    }

    /// Audits every structural invariant of the region.  Intended for
    /// **quiescent points** — moments when no operation is under way and
    /// no submission is staged undrained (test boundaries, scheduler-
    /// serialized checks in `mpf-check`, a soak's final gate) — and takes
    /// the registry lock, then each descriptor lock, in the open/close
    /// order.
    ///
    /// Per live conversation: the queue is acyclic and agrees with
    /// `msg_count`, `q_tail` and increasing stamps; the connection lists
    /// match `n_senders`/`n_fcfs`/`n_bcast`, and every connection's holder
    /// is an attached, living process; every `bcast_pending` equals the
    /// number of broadcast cursors that have not passed the message; no
    /// queued message waits on an FCFS delivery the current connection set
    /// can never produce (the obligation-leak class of bug); the queue
    /// head is not a fully-delivered message (prefix reclamation keeps
    /// up); every queued message's block chain is `n_blocks` long, in
    /// range and `NIL`-terminated.  Globally: the name registry and the
    /// active descriptors agree, no block is reached twice by the queued
    /// chains and the free list together, no free header holds a chain,
    /// and pool occupancy is exactly accounted for by the walks.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        self.with_registry(|| self.audit_region())
    }

    /// [`Self::check_invariants`] under the registry lock.
    fn audit_region(&self) -> std::result::Result<(), String> {
        let c = &self.cfg;
        let mut live = 0;
        // Messages, blocks, send and receive connections held by queues
        // and connection lists.
        let mut held = [0u64; 4];
        // One bit per block, set when a queued chain or the free list
        // reaches it: a second visit is a torn splice.
        let mut reached = vec![0u64; (c.total_blocks as usize).div_ceil(64)];
        for idx in 0..c.max_lnvcs {
            let d = self.t.lnvc(idx);
            if d.active.load(Ordering::Acquire) != 1 {
                continue;
            }
            live += 1;
            let entry = d.registry_idx.load(Ordering::Acquire);
            let named = entry < c.max_lnvcs && {
                let e = self.t.reg_entry(entry);
                e.used.load(Ordering::Acquire) == 1 && e.lnvc.load(Ordering::Acquire) == idx
            };
            if !named {
                return Err(format!("LNVC slot {idx} has no registry entry naming it"));
            }
            self.lock_lnvc(d);
            let audit = self.audit_lnvc(d, &mut reached);
            d.lock.unlock();
            let audit = audit.map_err(|e| format!("LNVC slot {idx}: {e}"))?;
            for (total, n) in held.iter_mut().zip(audit) {
                *total += n;
            }
        }
        let names = (0..c.max_lnvcs)
            .filter(|&i| self.t.reg_entry(i).used.load(Ordering::Acquire) == 1)
            .count();
        if names != live {
            return Err(format!(
                "registry has {names} names but {live} LNVC slots are active"
            ));
        }
        let h = self.t.header();
        let mut free_blocks = 0;
        let mut b = h.block_free.peek().1;
        while b != NIL {
            self.audit_reach(&mut reached, b)
                .map_err(|e| format!("block free list: {e}"))?;
            free_blocks += 1;
            b = self.t.links()[b as usize].load(Ordering::Acquire);
        }
        let (mut free_msgs, mut m) = (0, h.msg_free.peek().1);
        while m != NIL && free_msgs < c.max_messages {
            if self.t.msg(m).head_block.load(Ordering::Acquire) != NIL {
                return Err(format!("free message header {m} still holds a block chain"));
            }
            free_msgs += 1;
            m = self.t.msg(m).next.load(Ordering::Acquire);
        }
        let allocated = [
            c.max_messages - free_msgs,
            c.total_blocks - free_blocks,
            c.max_send_conns
                - h.send_free.len(c.max_send_conns, |i| {
                    self.t.send(i).next.load(Ordering::Acquire)
                }),
            c.max_recv_conns
                - h.recv_free.len(c.max_recv_conns, |i| {
                    self.t.recv(i).next.load(Ordering::Acquire)
                }),
        ];
        let pools = [
            "message headers",
            "blocks",
            "send connections",
            "receive connections",
        ];
        for ((what, held), allocated) in pools.iter().zip(held).zip(allocated) {
            if held != u64::from(allocated) {
                return Err(format!(
                    "{what} leaked: conversations hold {held}, pool has {allocated} allocated"
                ));
            }
        }
        Ok(())
    }

    /// Marks `block` reached by the audit's walk of a chain; `NIL`, an
    /// index outside the pool, or one some chain (or the free list)
    /// already reached, is an error.  Every block being reached at most
    /// once also bounds the walks: a cycle revisits.
    fn audit_reach(&self, reached: &mut [u64], block: u32) -> std::result::Result<(), String> {
        if block == NIL {
            return Err("block chain ends short".into());
        }
        if block >= self.cfg.total_blocks {
            return Err(format!("link to block {block}, outside the pool"));
        }
        let (word, bit) = (block as usize / 64, 1u64 << (block % 64));
        if reached[word] & bit != 0 {
            return Err(format!("block {block} is reached twice"));
        }
        reached[word] |= bit;
        Ok(())
    }

    /// Audits one conversation (lock held); returns the messages, blocks,
    /// send connections and receive connections it holds.  `reached` is
    /// the region-wide block bitmap of [`Self::audit_reach`].
    fn audit_lnvc(
        &self,
        d: &LnvcDesc,
        reached: &mut [u64],
    ) -> std::result::Result<[u64; 4], String> {
        let count = |a: &AtomicU32| a.load(Ordering::Acquire);
        let holder_gone =
            |pid: u32| pid >= self.cfg.max_processes || !self.t.slot(pid).owner_alive();
        let mut senders = 0u32;
        let mut cur = count(&d.send_head);
        while cur != NIL {
            senders += 1;
            if senders > self.cfg.max_send_conns {
                return Err("send list is cyclic".into());
            }
            let pid = count(&self.t.send(cur).pid);
            if holder_gone(pid) {
                return Err(format!(
                    "send connection of process {pid} outlives its holder"
                ));
            }
            cur = count(&self.t.send(cur).next);
        }
        if senders != count(&d.n_senders) {
            return Err(format!(
                "n_senders {} but send list holds {senders}",
                count(&d.n_senders)
            ));
        }
        let mut fcfs = 0u32;
        let mut cursors = Vec::new();
        let mut cur = count(&d.recv_head);
        while cur != NIL {
            if fcfs + cursors.len() as u32 >= self.cfg.max_recv_conns {
                return Err("receive list is cyclic".into());
            }
            let r = self.t.recv(cur);
            let pid = count(&r.pid);
            if holder_gone(pid) {
                return Err(format!(
                    "receive connection of process {pid} outlives its holder"
                ));
            }
            if r.protocol_code() == Protocol::Broadcast.code() {
                cursors.push(count(&r.cursor));
            } else {
                fcfs += 1;
            }
            cur = count(&r.next);
        }
        let (n_fcfs, n_bcast) = (count(&d.n_fcfs), count(&d.n_bcast));
        if fcfs != n_fcfs || cursors.len() as u32 != n_bcast {
            return Err(format!(
                "counters say {n_fcfs} FCFS / {n_bcast} BROADCAST but list holds {fcfs} / {}",
                cursors.len()
            ));
        }

        let (mut queued, mut blocks, mut last, mut prev) = (0u32, 0u64, None, NIL);
        let mut cur = count(&d.q_head);
        while cur != NIL {
            queued += 1;
            if queued > self.cfg.max_messages {
                return Err("FIFO is cyclic".into());
            }
            let m = self.t.msg(cur);
            let (seq, stamp) = (count(&m.seq), m.stamp.load(Ordering::Acquire));
            if last.is_some_and(|(s, t)| seq <= s || stamp <= t) {
                return Err(format!(
                    "message {cur} (stamp {stamp}) is out of FIFO order"
                ));
            }
            last = Some((seq, stamp));
            let n_blocks = count(&m.n_blocks);
            blocks += u64::from(n_blocks);
            let mut b = count(&m.head_block);
            for _ in 0..n_blocks {
                self.audit_reach(reached, b).map_err(|e| {
                    format!("message {cur} (stamp {stamp}) of {n_blocks} blocks: {e}")
                })?;
                b = count(&self.t.links()[b as usize]);
            }
            if b != NIL {
                return Err(format!(
                    "message {cur} (stamp {stamp}): block chain runs on to block {b} past \
                     its {n_blocks} blocks"
                ));
            }
            let claims = cursors.iter().filter(|&&c| c <= seq).count() as u32;
            if count(&m.bcast_pending) != claims {
                return Err(format!(
                    "message {cur} (stamp {stamp}) has bcast_pending {} but {claims} \
                     broadcast cursors have not passed it",
                    count(&m.bcast_pending)
                ));
            }
            let owed = m.fcfs_owed();
            if owed && n_fcfs == 0 && n_bcast > 0 {
                return Err(format!(
                    "message {cur} (stamp {stamp}) awaits an FCFS delivery but no FCFS \
                     receiver is connected and broadcast receivers keep the LNVC alive"
                ));
            }
            if prev == NIL && m.fully_delivered() {
                return Err(format!(
                    "FIFO head {cur} (stamp {stamp}) is fully delivered but was not reclaimed"
                ));
            }
            prev = cur;
            cur = count(&m.next);
        }
        if queued != count(&d.msg_count) {
            return Err(format!(
                "msg_count {} but FIFO holds {queued}",
                count(&d.msg_count)
            ));
        }
        if count(&d.q_tail) != prev {
            return Err(format!(
                "q_tail {} is not the last queued message",
                count(&d.q_tail)
            ));
        }
        Ok([
            u64::from(queued),
            blocks,
            u64::from(senders),
            u64::from(fcfs) + cursors.len() as u64,
        ])
    }

    /// Liveness sweeps this handle has run, whether or not they found a
    /// corpse — lets a test bound how often waits probe their peers.
    #[doc(hidden)]
    pub fn debug_sweeps_run(&self) -> u64 {
        self.sweeps_run.load(Ordering::Relaxed)
    }

    /// Seizes the LNVC's in-region lock and never releases it — a test
    /// hook for dead-lock-holder scenarios (the seizing process is then
    /// killed, and survivors must break the lock).
    #[doc(hidden)]
    pub fn debug_seize_lnvc_lock(&self, id: LnvcId) -> Result<()> {
        let (_, d) = self.resolve(id)?;
        self.lock_lnvc(d);
        Ok(())
    }

    /// Releases a lock taken by [`Self::debug_seize_lnvc_lock`] — the
    /// survival path of modeled-death scenarios, where the would-be
    /// victim outlives the schedule and must hand the lock back.
    #[doc(hidden)]
    pub fn debug_release_lnvc_lock(&self, id: LnvcId) -> Result<()> {
        let (_, d) = self.resolve(id)?;
        d.lock.unlock();
        Ok(())
    }

    /// Simulates this process's sudden death for tests: the slot stays
    /// ATTACHED but its `os_pid` is pointed at a pid that cannot exist,
    /// so the next [`Self::sweep_dead_peers`] (from any survivor)
    /// classifies it as a corpse.  The handle must not be used afterwards
    /// except to drop it.
    #[doc(hidden)]
    pub fn debug_abandon_slot(&self) {
        self.t
            .slot(self.me)
            .os_pid
            .store(0x7fff_fffe, Ordering::Release);
    }

    /// Waits as a send blocked on exhaustion does, for a schedule explorer
    /// that wants a pool waiter without emptying the pools: registers for
    /// the pool signal, then naps once on the doorbell unless the signal
    /// has already fired or `woken` holds.  Whoever makes `woken` true
    /// must then [`Self::ring_doorbell`].
    #[doc(hidden)]
    pub fn debug_pool_wait(&self, woken: &dyn Fn() -> bool) {
        let _waiting = PoolWait::register(self);
        let pool_seq = &self.t.header().pool_seq;
        let signal = pool_seq.load(Ordering::SeqCst);
        let ticket = self.doorbell().ticket();
        if !woken() && pool_seq.load(Ordering::SeqCst) == signal {
            self.doorbell_nap(ticket, None);
        }
    }
}

impl Drop for IpcMpf {
    fn drop(&mut self) {
        // Clean detach — a departure, not a death: close the connections
        // we still hold (the sweep visits only ATTACHED slots, so nothing
        // would ever retire them under a FREE one), return staged
        // submissions, then release the slot.  An unwind skips the closes:
        // it may be passing through a hold of the locks they take.
        if !std::thread::panicking() {
            for id in (0..self.cfg.max_lnvcs).filter_map(|i| self.id_at(i)) {
                // `NotConnected` is the common case, not a failure.
                let _ = self.close_send(id);
                let _ = self.close_receive(id);
            }
        }
        self.reclaim_aio_of(self.me);
        let s = self.t.slot(self.me);
        s.os_pid.store(0, Ordering::Release);
        s.state.store(slot_state::FREE, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fully-delivered message *behind* a still-owed head — what a
    /// cleared obligation or a take behind a claimed head leaves — is out
    /// of the prefix reclaimer's reach: `reclaimable` must count it, and
    /// the full-queue sweep a sender runs under memory pressure must free
    /// it and relink around it, the tail included.
    #[test]
    fn interior_corpses_are_counted_then_swept_under_pressure() {
        let cfg = MpfConfig::new(2, 2)
            .with_block_payload(16)
            .with_total_blocks(8)
            .with_max_messages(3);
        let m = IpcMpf::anon(&cfg).unwrap();
        let tx = m.open_send("q").unwrap();
        let rx = m.open_receive("q", Protocol::Fcfs).unwrap();
        for payload in [b"a", b"b", b"c"] {
            m.message_send(tx, payload).unwrap();
        }
        // Mark the second and the last delivered, as the receive path would.
        let d = m.t.lnvc(tx.index());
        let head = m.t.msg(d.q_head.load(Ordering::Acquire));
        let second = head.next.load(Ordering::Acquire);
        for corpse in [second, d.q_tail.load(Ordering::Acquire)] {
            let taken = msg_flags::NEEDS_FCFS | msg_flags::FCFS_TAKEN;
            m.t.msg(corpse).flags.store(taken, Ordering::Release);
        }
        assert_eq!(
            m.reclaimable(),
            Reclaimable {
                messages: 2,
                blocks: 2
            }
        );
        m.check_invariants().expect("the head is still owed");

        // The header pool is dry: this send sweeps the queue for room.
        m.message_send(tx, b"d").unwrap();
        assert_eq!(m.reclaimable(), Reclaimable::default());
        assert_eq!(m.queue_depth(tx), Ok(2));
        m.check_invariants().expect("relinked around the corpses");
        let mut buf = [0u8; 16];
        for want in [b"a", b"d"] {
            let n = m.message_receive(rx, &mut buf).unwrap();
            assert_eq!(&buf[..n], want);
        }
        assert_eq!(m.free_blocks(), 8);
    }
}
