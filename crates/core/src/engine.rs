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

use std::ops::ControlFlow::{self, Break, Continue};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::config::MpfConfig;
use crate::error::{MpfError, Result};
use crate::layout::{RegionLayout, LAYOUT_VERSION, REGION_MAGIC, RING_SLOTS};
use crate::types::{AioCompletion, AioStats, LnvcId, LnvcName, Protocol, Reclaimable};
use mpf_shm::faultplane::{self, FaultSite};
use mpf_shm::freelist::stretch;
use mpf_shm::lock::IPC_LOCK_PATIENCE;
use mpf_shm::ring::{RingEntry, AIO_RING_SLOTS};
use mpf_shm::telemetry::{
    bump, facility_snapshot, now_nanos, FacilityTelemetry, LnvcTelSnapshot, LnvcTelemetry,
    TelSnapshot,
};
use mpf_shm::tracering::{
    TraceEvent, TraceRing, TR_CLOSE_RECV, TR_CLOSE_SEND, TR_FAULT, TR_LOCK_CONTEND, TR_OPEN_RECV,
    TR_OPEN_SEND, TR_POISON, TR_RECLAIM, TR_RECV, TR_RECV_B, TR_RECV_BLOCK, TR_SEND, TR_SEND_BLOCK,
    TR_SWEEP_DEAD, TR_WAKEUP,
};
use mpf_shm::{FutexSeq, ShmRegion};

use crate::shmem::{
    lnvc_mode, msg_flags, region_state, slot_state, LnvcDesc, LnvcRing, MsgDesc, ProcessSlot,
    RecvDesc, RegionHeader, RegistryEntry, SendDesc, NIL,
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
    rings: usize,
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
            rings: seg("lnvc rings"),
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

    /// Conversation `i`'s one-to-one ring.
    pub fn ring(&self, i: u32) -> &LnvcRing {
        self.table(self.off.rings, i)
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

/// This thread's token (never 0, distinct among live threads): see
/// [`LnvcRing::p_thread`].
fn thread_token() -> u64 {
    thread_local!(static TOKEN: u8 = const { 0 });
    TOKEN.with(|t| t as *const u8 as u64)
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
    /// Sends [`Self::submit_sends`] deferred to [`Self::drain_sends`].
    deferred: std::sync::Mutex<Deferred>,
}

/// A view's deferred sends: copies of the payloads, never region memory.
#[derive(Debug, Default)]
struct Deferred {
    /// Submitted, undrained sends: conversation, token, payload.
    sends: std::collections::VecDeque<(LnvcId, u64, Vec<u8>)>,
    /// Completions awaiting [`IpcMpf::reap_completions`].
    done: Vec<AioCompletion>,
    /// The counters; the two depths are read off the queues.
    stats: AioStats,
}

/// How long a receive may wait for its first delivery.
#[derive(Clone, Copy)]
enum Wait {
    /// Not at all: one pass over the queue.
    No,
    /// Until the deadline (`None` = for as long as it takes).
    Until(Option<Instant>),
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
            deferred: Default::default(),
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

    // -- telemetry plumbing --------------------------------------------

    /// This process's facility-counter shard, gated on the recording flag.
    /// Off the message path: per-message quantities are counted per
    /// conversation, under its lock ([`Self::lnvc_tel`]).
    #[inline]
    fn tel(&self) -> Option<&FacilityTelemetry> {
        self.cfg.telemetry.then(|| self.t.fac_tel(self.me))
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

    /// Acquires conversation `idx`'s lock, poisoning `d` (its descriptor)
    /// if the previous holder died inside its critical section.
    fn lock_lnvc(&self, idx: u32, d: &LnvcDesc) {
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
            // log the marker only on the 0→1 transition, stamped under the
            // lock it now holds like the sweep's poison.
            if d.poisoned.swap(1, Ordering::AcqRel) == 0 {
                self.trace_population(TR_POISON, idx, d.dead_pid.load(Ordering::Acquire));
            }
            // Rung with the lock held: this acquire cannot drop it first.
            self.ring_doorbells(self.watchers(d, None));
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

    /// Records a marker event (blocking, lock contention, sweep).  Not
    /// sampled: a post-mortem reader needs the last things a process did,
    /// even across untraced gaps.
    fn trace_pop(&self, kind: u32, lnvc: u32, arg: u32) {
        if self.tracing() {
            self.t
                .trace_ring(self.me)
                .record_at(now_nanos(), 0, 0, kind, 0, lnvc, arg, 0);
        }
    }

    /// Records a change to conversation `idx`'s population — an open, a
    /// close, or the sweep's poison — with a stamp from the send sequence,
    /// so the conformance checker replays it among the sends in the order
    /// the lock imposed.  Caller holds `idx`'s lock and has reclaimed
    /// nothing the change frees yet.  Not sampled, like `trace_pop`.
    fn trace_population(&self, kind: u32, idx: u32, arg: u32) {
        if self.tracing() {
            let stamp = self.t.header().next_stamp.fetch_add(1, Ordering::AcqRel);
            self.t
                .trace_ring(self.me)
                .record_at(now_nanos(), 0, stamp, kind, 0, idx, arg, 0);
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
        self.open_with(name, |idx, d| {
            if self.my_conn(ConnKind::Send, d).is_some() {
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
            self.trace_population(TR_OPEN_SEND, idx, 0);
            self.decide_mode(idx, d, false);
            Ok(())
        })
    }

    /// `open_LNVC_receive`: joins (or creates) the named conversation as
    /// an FCFS or BROADCAST receiver.
    pub fn open_receive(&self, name: &str, protocol: Protocol) -> Result<LnvcId> {
        self.open_with(name, |idx, d| {
            if let Some(existing) = self.my_conn(ConnKind::Recv, d) {
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
            // join (paper §3.2): nothing queued is theirs.
            r.head.store(NIL, Ordering::Release);
            r.next
                .store(d.recv_head.load(Ordering::Acquire), Ordering::Release);
            d.recv_head.store(conn, Ordering::Release);
            match protocol {
                Protocol::Fcfs => d.n_fcfs.fetch_add(1, Ordering::AcqRel),
                Protocol::Broadcast => d.n_bcast.fetch_add(1, Ordering::AcqRel),
            };
            self.trace_population(TR_OPEN_RECV, idx, protocol.code());
            // Before obligations are re-evaluated over the queue.
            self.decide_mode(idx, d, false);
            // Obligation re-evaluation (DESIGN.md): a backlog queued
            // while nobody listened is owed to the first receiver — but
            // a BROADCAST receiver starts past it, so if the first ever
            // is BROADCAST the backlog can only pin blocks.  Drop it.
            if first_receiver && protocol == Protocol::Broadcast {
                self.clear_fcfs_obligations(d);
                self.reclaim(idx, d, true, None);
            }
            Ok(())
        })
    }

    /// Every open: under the registry lock and the conversation's, finds
    /// or creates `name` and `join`s it unless it is poisoned; a creation
    /// whose join fails is rolled back.
    fn open_with(
        &self,
        name: &str,
        join: impl FnOnce(u32, &LnvcDesc) -> Result<()>,
    ) -> Result<LnvcId> {
        let lname = LnvcName::new(name)?;
        self.heartbeat();
        self.with_registry(|| {
            let (idx, created) = self.find_or_create(lname.as_str())?;
            let d = self.t.lnvc(idx);
            self.lock_lnvc(idx, d);
            let result = self.poison_check(d).and_then(|()| join(idx, d));
            if result.is_err() && created {
                self.deactivate(idx);
            }
            d.lock.unlock();
            result.map(|()| LnvcId::new(d.generation.load(Ordering::Acquire), idx))
        })
    }

    /// `close_LNVC_send`: leaves the conversation as a sender; the last
    /// connection out deletes the conversation and frees its queue.
    pub fn close_send(&self, id: LnvcId) -> Result<()> {
        self.close_with(id, |idx, d| {
            let conn = self
                .unlink_conn(ConnKind::Send, &d.send_head, self.me)
                .ok_or(MpfError::NotConnected)?;
            self.trace_population(TR_CLOSE_SEND, idx, 0);
            self.retire_send(d, conn);
            Ok(())
        })
    }

    /// `close_LNVC_receive`: leaves as a receiver.  A departing BROADCAST
    /// receiver releases its delivery claims so fully-delivered messages
    /// can be reclaimed.
    pub fn close_receive(&self, id: LnvcId) -> Result<()> {
        let watches = self.close_with(id, |idx, d| {
            let conn = self
                .unlink_conn(ConnKind::Recv, &d.recv_head, self.me)
                .ok_or(MpfError::NotConnected)?;
            self.trace_population(TR_CLOSE_RECV, idx, self.t.recv(conn).protocol_code());
            Ok(self.retire_recv(idx, d, conn))
        })?;
        // Waits of ours still watching through the connection lost their
        // watch with it; woken to notice.
        if watches != 0 {
            self.ring_doorbell();
        }
        Ok(())
    }

    /// Every close: under the registry lock and the conversation's, `leave`
    /// unlinks and retires this process's connection; the mode is decided
    /// again, and the last connection out deletes the conversation.
    fn close_with<T>(
        &self,
        id: LnvcId,
        leave: impl FnOnce(u32, &LnvcDesc) -> Result<T>,
    ) -> Result<T> {
        self.heartbeat();
        self.with_registry(|| {
            let (idx, d) = self.resolve(id)?;
            self.lock_lnvc(idx, d);
            let result = leave(idx, d).inspect(|_| {
                self.decide_mode(idx, d, false);
                if d.total_connections() == 0 {
                    self.deactivate(idx);
                }
            });
            d.lock.unlock();
            result
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
        // A run of one, in the form `stage_batch` stages them.
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

    /// The only routine that publishes: hands the staged messages of `run`
    /// — descriptors as [`Self::stage_batch`] stages them: message index
    /// in `arg0`, length in `arg1`, causal id in `trace`, hop count in
    /// `status` — to conversation `idx` in one step (one population, one
    /// set of obligations): through its ring in ring mode, else linked at
    /// its queue's tail under one lock hold; it books and records them and
    /// rings each watching process once.  On error nothing was published
    /// and the staged messages are still the caller's to free.
    fn publish_run(&self, idx: u32, d: &LnvcDesc, run: &[RingEntry]) -> Result<()> {
        if d.mode.load(Ordering::Relaxed) == lnvc_mode::RING && self.ring_push(idx, d, run) {
            return Ok(());
        }
        self.lock_lnvc(idx, d);
        let published = self.send_obligations(d).map(|(needs_fcfs, n_bcast)| {
            // Still ring mode: this thread claims the send end, and a ring
            // without room leaves ring mode like a change of shape.
            if d.mode.load(Ordering::Relaxed) == lnvc_mode::RING {
                self.decide_mode(idx, d, false);
                if self.ring_push(idx, d, run) {
                    return Vec::new();
                }
                self.decide_mode(idx, d, true);
            }
            let header = self.t.header();
            let stamps = header
                .next_stamp
                .fetch_add(run.len() as u64, Ordering::AcqRel);
            self.stamp_run(idx, d, run, (needs_fcfs, n_bcast), None, stamps);
            if n_bcast > 0 {
                self.catch_up(d, run[0].arg0);
            }
            self.watchers(d, Some(run[0].arg0))
        });
        d.lock.unlock();
        // One wake per watcher for the whole run — the amortisation the
        // rings buy.
        self.ring_doorbells(published?);
        Ok(())
    }

    /// All a send does before its messages are visible: stamps (from
    /// `first_stamp`, the run's block), seqs, obligations `owed`, the link
    /// unless it goes through `ring`, books and `TR_SEND`s.  Caller holds
    /// `d`'s lock, or owns the send end.
    #[inline(always)]
    fn stamp_run(
        &self,
        idx: u32,
        d: &LnvcDesc,
        run: &[RingEntry],
        owed: (bool, u32),
        ring: Option<&LnvcRing>,
        first_stamp: u64,
    ) {
        // One clock read, at the run's first timed message, is the latency
        // origin of its timed messages and dates every record; a run with
        // none reads nothing and records undated (0).
        let mut now = 0u64;
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
            depth = self.publish(d, e.arg0, stamp, owed, ring.is_none());
            if let Some(lt) = lt {
                lt.sizes.record_locked(u64::from(e.arg1));
            }
            bytes += u64::from(e.arg1);
        }
        if let Some(lt) = lt {
            // lt.* writes are serialised by what the caller holds, so the
            // RMW-free `bump` is sound (see telemetry::bump).
            bump(&lt.sends, run.len() as u64);
            bump(&lt.bytes_in, bytes);
            let queued = ring.map_or(depth, |r| r.queued_after(run.len() as u32));
            lt.note_depth(u64::from(queued));
        }
        // Obligations are fixed at this instant; packed, they are what the
        // conformance checker audits the deliveries against.  The records
        // are written before the messages are visible, so no receiver can
        // take a message whose sender died before recording it.
        let obligations = (u32::from(owed.0) << 16) | owed.1;
        let at = Some(now);
        for (e, stamp) in run.iter().zip(first_stamp..) {
            let hop = e.status as u32;
            self.trace_rec_at(at, TR_SEND, hop, e.trace, idx, stamp, e.arg1, obligations);
        }
    }

    /// Ring mode's publish, lock-free, by the send end's owner thread:
    /// announce, take the stamps (the `fetch_add` orders the announcement
    /// before the checks), then — still in ring mode, with room — stamp
    /// the run, fill the slots, ring a watching receiver.  `false`: no push.
    fn ring_push(&self, idx: u32, d: &LnvcDesc, run: &[RingEntry]) -> bool {
        let (ring, n) = (self.t.ring(idx), run.len() as u32);
        let owns = |mode| {
            d.mode.load(mode) == lnvc_mode::RING
                && ring.producer.load(Ordering::Relaxed) == self.me
                && ring.p_thread.load(Ordering::Relaxed) == thread_token()
        };
        // Checked first too: another thread's (or process's) send wastes
        // no stamps and never touches the owner's `p_busy`.
        if !owns(Ordering::Relaxed) {
            return false;
        }
        ring.p_busy.store(self.lock_owner(), Ordering::Relaxed);
        let header = self.t.header();
        let stamps = header.next_stamp.fetch_add(u64::from(n), Ordering::SeqCst);
        // Slots fill and empty in order: the run's last free, all are.
        let last = ring.slot(ring.tail.load(Ordering::Relaxed).wrapping_add(n - 1));
        let pushed = owns(Ordering::SeqCst)
            && d.poisoned.load(Ordering::Relaxed) == 0
            && n as usize <= RING_SLOTS
            && last.load(Ordering::Acquire) == NIL;
        let at = &ring.p_busy as *const AtomicU32 as usize;
        if pushed {
            mpf_shm::hooks::yield_point(mpf_shm::hooks::SyncEvent::StackPush(at));
            self.stamp_run(idx, d, run, (true, 0), Some(ring), stamps);
            // `tail` first: a pusher killed here leaves holes a drain skips.
            let tail = ring.tail.load(Ordering::Relaxed);
            ring.tail.store(tail.wrapping_add(n), Ordering::Relaxed);
            for (i, e) in (0..).zip(run) {
                ring.slot(tail.wrapping_add(i))
                    .store(e.arg0, Ordering::Release);
            }
        }
        ring.p_busy.store(0, Ordering::Release);
        mpf_shm::hooks::lock_release(at);
        // After the `fetch_add`: a receiver that armed its watch, then
        // looked (`ring_sync`), sees this push, or this sees its watch.
        if pushed && d.watchers.load(Ordering::SeqCst) != 0 {
            let consumer = ring.consumer.load(Ordering::Acquire);
            self.ring_doorbells((consumer != NIL).then_some(consumer));
        }
        pushed
    }

    /// Waits out a push on conversation `idx`'s ring: one that saw ring mode
    /// before the caller's last `SeqCst` access completes, a later one sees
    /// the caller's writes (this load syncs with its stamp `fetch_add`).
    fn ring_sync(&self, idx: u32) -> &LnvcRing {
        let ring = self.t.ring(idx);
        self.t.header().next_stamp.load(Ordering::SeqCst);
        // A dead pusher's word is cleared, or its pid's next owner would
        // be waited on.
        let clear = |dead| {
            ring.p_busy
                .compare_exchange(dead, 0, Ordering::AcqRel, Ordering::Relaxed)
        };
        self.ring_wait(&ring.p_busy, |pusher, dead| {
            pusher == 0 || dead && clear(pusher).is_ok()
        });
        ring
    }

    /// Takes (`on`) or releases a ring's receive end `end`: one CAS,
    /// uncontended.
    fn ring_end(&self, end: &AtomicU32, on: bool) {
        if !on {
            end.store(0, Ordering::Release);
            return mpf_shm::hooks::lock_release(end as *const AtomicU32 as usize);
        }
        let me = self.lock_owner();
        let take = |from| end.compare_exchange(from, me, Ordering::SeqCst, Ordering::Relaxed);
        self.ring_wait(end, |holder, dead| {
            (holder == 0 || dead) && take(holder).is_ok()
        });
    }

    /// Waits, yielding (or in a schedule explorer's hook), until `done`
    /// holds of ring end `word` (0 or a pid + 1), told whether that pid is
    /// dead past the lock patience — what a dead end leaves, a drain copes with.
    fn ring_wait(&self, word: &AtomicU32, mut done: impl FnMut(u32, bool) -> bool) {
        let mut look = |late| {
            let w = word.load(Ordering::Acquire);
            done(w, late && w != 0 && !self.holder_alive(w))
        };
        let at = word as *const AtomicU32 as usize;
        if mpf_shm::hooks::lock_acquire(at, &mut || look(true)) || look(false) {
            return;
        }
        let since = Instant::now();
        while !look(since.elapsed() >= IPC_LOCK_PATIENCE) {
            std::thread::yield_now();
        }
    }

    /// Decides conversation `idx`'s mode after a change of population or
    /// poison, or (`full`) a run finding its ring full: ring mode with ≤ 1
    /// sender and ≤ 1 FCFS receiver (one at least), no BROADCAST receiver
    /// or poison — entered with nothing queued — else locked, the ring
    /// moved onto the queue.  Caller holds `d`'s lock.
    fn decide_mode(&self, idx: u32, d: &LnvcDesc, full: bool) {
        let count = |a: &AtomicU32| a.load(Ordering::Acquire);
        let (senders, fcfs) = (count(&d.n_senders), count(&d.n_fcfs));
        let fits = !full && count(&d.poisoned) + count(&d.n_bcast) == 0;
        let fits = fits && senders <= 1 && fcfs <= 1 && senders + fcfs > 0;
        // Not LOCKED: ring mode, or a change a killed process left half done.
        let ring_mode = count(&d.mode) != lnvc_mode::LOCKED;
        if !(ring_mode || fits && count(&d.msg_count) == 0) {
            return;
        }
        let (ring, producer) = (self.t.ring(idx), count(&self.t.ring(idx).producer));
        // Unless the send end is nobody's or this thread's, later pushes
        // see the change and one under way is waited out.
        let own = producer == self.me && ring.p_thread.load(Ordering::Relaxed) == thread_token();
        if producer != NIL && !own {
            d.mode.store(lnvc_mode::CHANGING, Ordering::SeqCst);
            self.ring_sync(idx);
        }
        let pid = |kind| {
            self.conns(kind, d)
                .next()
                .map_or(NIL, |c| self.conn(kind, c)[0].load(Ordering::Acquire))
        };
        // The receive end is held only when its receiver or the ring changes.
        let taker = !fits || pid(ConnKind::Recv) != count(&ring.consumer);
        if taker {
            self.ring_end(&ring.c_lock, true);
        }
        let sender = pid(ConnKind::Send);
        if sender == self.me || sender != producer {
            // Another process's first push claims its send end.
            let owner = (sender == self.me).then(thread_token);
            ring.p_thread.store(owner.unwrap_or(0), Ordering::Relaxed);
        }
        ring.producer.store(sender, Ordering::Relaxed);
        ring.consumer.store(pid(ConnKind::Recv), Ordering::Relaxed);
        if !fits {
            // The ring becomes the (empty) queue, each slot cleared before
            // its message is linked: a kill leaks it, never leaves it twice.
            let head = ring.head.load(Ordering::Relaxed);
            for i in 0..ring.queued_after(0).min(RING_SLOTS as u32) {
                let m_idx = ring.slot(head.wrapping_add(i)).swap(NIL, Ordering::Relaxed);
                if m_idx != NIL {
                    self.link(d, m_idx);
                }
            }
            // Behind `head`, what a taker killed mid-take left.
            ring.slots
                .iter()
                .for_each(|s| s.store(NIL, Ordering::Relaxed));
            ring.head
                .store(ring.tail.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        let mode = [lnvc_mode::LOCKED, lnvc_mode::RING][usize::from(fits)];
        d.mode.store(mode, Ordering::Release);
        if taker {
            self.ring_end(&ring.c_lock, false);
        }
    }

    /// `check_receive`: non-destructively reports whether a message is
    /// deliverable to this process.
    pub fn check_receive(&self, id: LnvcId) -> Result<bool> {
        self.heartbeat();
        let (idx, d) = self.resolve(id)?;
        self.lock_lnvc(idx, d);
        let result = self.live_recv(d).map(|r| {
            if d.mode.load(Ordering::Relaxed) == lnvc_mode::RING {
                // The sender takes no lock: wait out its push, then look.
                let ring = self.ring_sync(idx);
                let head = ring.head.load(Ordering::Acquire);
                return ring.slot(head).load(Ordering::Acquire) != NIL;
            }
            let bcast = r.protocol_code() == Protocol::Broadcast.code();
            let from = if bcast { &r.head } else { &d.q_head }.load(Ordering::Acquire);
            self.next_deliverable(from, r) != NIL
        });
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

    /// Blocking `message_receive`: the paper's default.  Sleeps on the
    /// process doorbell, waking at least every [`RECV_SWEEP_INTERVAL`] for
    /// a liveness sweep, so a dead sender converts a would-be deadlock
    /// into [`MpfError::PeerDied`].
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
    /// [`Wait::No`] returns `(0, 0)` at once and [`Wait::Until`] watches
    /// the conversation and sleeps on the process doorbell, waking at
    /// least every [`RECV_SWEEP_INTERVAL`] to look for dead peers, until a
    /// first delivery or [`MpfError::TimedOut`].
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
        let (waits, deadline) = match wait {
            Wait::No => (false, None),
            Wait::Until(deadline) => (true, deadline),
        };
        // One blocked call is one wait, however many 50 ms naps it takes —
        // counting per nap would turn an idle receiver into a counter storm.
        let (mut armed, mut waited, mut at, mut slept_on) = (false, false, NIL, 0);
        let delivered = self.doorbell_wait(deadline, || {
            let (idx, d) = self.resolve(id)?;
            at = idx;
            if waits {
                // Injected peer death: identical shape to a sweep-detected
                // poisoning, minus the region mutation.  The single-pass
                // `try_` forms never wait and are left alone.
                self.inject_fault(FaultSite::PeerDied, MpfError::PeerDied { pid: 0 })?;
            }
            // Ring mode takes with no conversation lock (an armed watch is
            // disarmed in a hold; an empty ring goes to the armed look).
            if !armed && d.mode.load(Ordering::Relaxed) == lnvc_mode::RING {
                let got = self.ring_take(idx, d, max, &mut take, true);
                if let Some(got) = got.filter(|got| !matches!(got, Ok((0, _)))) {
                    return got.map(Break);
                }
            }
            self.lock_lnvc(idx, d);
            // A ring's sender takes no lock: a receive that may sleep arms
            // and takes its ticket, then looks — having waited out a push
            // when it arms; a later push sees the watch (`ring_push`).
            let early = (waits && d.mode.load(Ordering::Relaxed) == lnvc_mode::RING).then(|| {
                let arms = !armed && self.watch_locked(d, RecvDesc::WATCH_ONE, true);
                let ticket = self.doorbell().ticket();
                if arms {
                    (armed, _) = (true, self.ring_sync(idx));
                }
                ticket
            });
            let mut pass = None;
            let result = self.deliver_locked(idx, d, max, &mut take, &mut pass);
            // The watch arms in the hold that found nothing and disarms in
            // the one that delivers, so a woken receive takes no lock pair
            // beyond its two attempts; a failure leaves it to the exit.
            let sleep = waits && matches!(result, Ok((0, _)));
            if sleep != armed && (sleep || result.is_ok()) {
                self.watch_locked(d, RecvDesc::WATCH_ONE, sleep);
                armed = sleep;
            }
            // Taken in the hold that armed the watch: a publish after it
            // sees the watch and rings past this ticket.
            let ticket = sleep.then(|| early.unwrap_or_else(|| self.doorbell().ticket()));
            d.lock.unlock();
            self.ring_doorbells(pass);
            let Some(ticket) = ticket else {
                return result.map(Break);
            };
            if !waited {
                // The first wait of this call, booked once.
                waited = true;
                if let Some(t) = self.tel() {
                    t.recv_waits.inc();
                    let lt = self.t.lnvc_tel(idx);
                    lt.recv_waits.fetch_add(1, Ordering::Relaxed);
                }
                self.trace_pop(TR_RECV_BLOCK, idx, 0);
            }
            slept_on = ticket;
            Ok(Continue(ticket))
        });
        if let (true, Ok((idx, d))) = (armed, self.resolve(id)) {
            // Timed out or failed: one more lock pair disarms, and passes a
            // ring that came after the last attempt on to the other
            // watchers — it may have been for a message left behind.
            self.lock_lnvc(idx, d);
            self.watch_locked(d, RecvDesc::WATCH_ONE, false);
            let (rung, others) = (self.doorbell().ticket() != slept_on, self.watchers(d, None));
            d.lock.unlock();
            self.ring_doorbells(if rung { others } else { Vec::new() });
        }
        if let (Ok((_, bytes)), true) = (&delivered, waited && self.tracing()) {
            // The delivery that ended the block; its chain is the context
            // deliver_locked just adopted.
            let trace = self.ctx_trace.load(Ordering::Relaxed);
            let hop = self.ctx_hop.load(Ordering::Relaxed);
            self.trace_rec_at(None, TR_WAKEUP, hop, trace, at, 0, *bytes as u32, 0);
        }
        delivered
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
        match attempt() {
            Err(MpfError::MessagesExhausted | MpfError::BlocksExhausted) => {}
            first => return first,
        }
        // Register, then the ticket, then the retry — in that order, so a
        // reclaim either is seen by the retry or rings past the ticket; the
        // first failure, unregistered, proved nothing.
        self.pool_wait(true);
        let sent = self.doorbell_wait(deadline, || {
            let ticket = self.doorbell().ticket();
            match attempt() {
                Err(MpfError::MessagesExhausted | MpfError::BlocksExhausted) => {
                    Ok(Continue(ticket))
                }
                again => again.map(Break),
            }
        });
        self.pool_wait(false);
        sent
    }

    /// Registers for the pool signal (`on`): until the withdrawal every
    /// reclaim bumps it and rings this process's doorbell.  Like a watch,
    /// a registration is withdrawn after its wait, never by an unwind: one
    /// is the schedule explorer's modeled kill, which must leave the region
    /// as SIGKILL would, for the sweep to clean up.
    fn pool_wait(&self, on: bool) {
        let header = self.t.header();
        let (all, mine) = (&header.pool_waiters, &self.t.slot(self.me).mem_wait);
        // Region count first, slot share second, and the reverse on the way
        // out: a kill in between leaves the count high (every reclaim then
        // signals), never a share the sweep would subtract unadded.
        if on {
            all.fetch_add(1, Ordering::SeqCst);
            mine.fetch_add(1, Ordering::SeqCst);
        } else {
            mine.fetch_sub(1, Ordering::SeqCst);
            all.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Blocks until one of `ids` has a deliverable message and returns
    /// that conversation's id, or [`MpfError::TimedOut`] once `deadline`
    /// passes.  Watches every member, so an enqueue or poison on any of
    /// them rings this process's doorbell, and sleeps on that one word.
    /// An empty set is [`MpfError::EmptyWaitSet`]; poisoning of any
    /// member surfaces as its error.
    pub fn wait_any_deadline(&self, ids: &[LnvcId], deadline: Option<Instant>) -> Result<LnvcId> {
        if ids.is_empty() {
            return Err(MpfError::EmptyWaitSet);
        }
        self.heartbeat();
        // A lock hold per watch; a member that no longer resolves fails its check.
        let watch = |id, on| {
            self.resolve(id).is_ok_and(|(idx, d)| {
                self.lock_lnvc(idx, d);
                let changed = self.watch_locked(d, RecvDesc::WATCH_ANY, on);
                d.lock.unlock();
                changed
            })
        };
        let armed: Vec<LnvcId> = ids.iter().copied().filter(|&id| watch(id, true)).collect();
        let ready = self.doorbell_wait(deadline, || {
            // Ticket before the predicate checks: a send racing the poll
            // rings a sequence we already hold.
            let ticket = self.doorbell().ticket();
            for &id in ids {
                if self.check_receive(id)? {
                    return Ok(Break(id));
                }
            }
            Ok(Continue(ticket))
        });
        // Disarmed after the wait, not by an unwind (see `pool_wait`).
        for &id in &armed {
            watch(id, false);
        }
        ready
    }

    /// What a send checks and fixes under `d`'s lock before it publishes:
    /// the conversation is not poisoned, we are connected as a sender, and
    /// — since delivery obligations fix at send time (DESIGN.md) — whether
    /// an FCFS delivery is owed (FCFS receivers exist, or nobody listens
    /// yet) and how many BROADCAST deliveries (one per such receiver).
    fn send_obligations(&self, d: &LnvcDesc) -> Result<(bool, u32)> {
        self.poison_check(d)?;
        self.my_conn(ConnKind::Send, d)
            .ok_or(MpfError::NotConnected)?;
        let n_fcfs = d.n_fcfs.load(Ordering::Acquire);
        let n_bcast = d.n_bcast.load(Ordering::Acquire);
        Ok((n_fcfs > 0 || n_fcfs + n_bcast == 0, n_bcast))
    }

    /// Gives staged message `m_idx` its sequence number, `stamp` and
    /// obligations (`owed`, as [`Self::stamp_run`] takes them) and, with
    /// `link`, links it at the queue's tail; returns the queue depth then.
    /// Caller holds `d`'s lock — in ring mode, the send end of its ring.
    fn publish(&self, d: &LnvcDesc, m_idx: u32, stamp: u64, owed: (bool, u32), link: bool) -> u32 {
        let m = self.t.msg(m_idx);
        let seq = locked_update(&d.next_seq, |s| s.wrapping_add(1)).wrapping_sub(1);
        m.seq.store(seq, Ordering::Release);
        m.stamp.store(stamp, Ordering::Release);
        m.bcast_pending.store(owed.1, Ordering::Release);
        m.flags.store(
            if owed.0 { msg_flags::NEEDS_FCFS } else { 0 },
            Ordering::Release,
        );
        if link {
            self.link(d, m_idx)
        } else {
            0
        }
    }

    /// Links published message `m_idx` at the tail of `d`'s queue and
    /// returns the new depth.  Caller holds `d`'s lock.
    fn link(&self, d: &LnvcDesc, m_idx: u32) -> u32 {
        let tail = d.q_tail.load(Ordering::Acquire);
        if tail == NIL {
            d.q_head.store(m_idx, Ordering::Release);
        } else {
            self.t.msg(tail).next.store(m_idx, Ordering::Release);
        }
        d.q_tail.store(m_idx, Ordering::Release);
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
    /// caller publishes it — the window in which a death leaks it.
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

    // -- batched sends --------------------------------------------------

    /// The one stager of descriptors: stages what of `payloads` fits the
    /// run and the size limit as one run and writes to `run` the
    /// descriptors [`Self::publish_run`] takes, `user_data` = token (index
    /// within `payloads`) << 32 | handle generation.  Returns the
    /// conversation and how many were staged (0 for an empty batch).  Kept
    /// out of line, as it was while two callers shared it, so `send_batch`
    /// keeps its code.
    #[inline(never)]
    fn stage_batch(
        &self,
        id: LnvcId,
        payloads: &[&[u8]],
        run: &mut [RingEntry; AIO_RING_SLOTS],
    ) -> Result<(u32, &LnvcDesc, usize)> {
        self.heartbeat();
        let max = self.cfg.max_message_bytes();
        let (idx, d) = self.resolve(id)?;
        self.poison_check(d)?;
        if payloads.is_empty() {
            return Ok((idx, d, 0));
        }
        let fit = payloads
            .iter()
            .take(AIO_RING_SLOTS)
            .take_while(|buf| buf.len() <= max)
            .count();
        if fit == 0 {
            let len = payloads[0].len();
            return Err(MpfError::MessageTooLarge { len, max });
        }
        let mut staged = [NIL; AIO_RING_SLOTS];
        let n = self.stage_run(idx, d, &payloads[..fit], &mut staged)?;
        for (i, (&m_idx, buf)) in staged[..n].iter().zip(payloads).enumerate() {
            // The causal id is decided here — staging is the send's causal
            // point — and the hop count rides the status field, which
            // carries no meaning until completion.
            let (trace, hop) = self.trace_for_send();
            run[i] = RingEntry {
                user_data: ((i as u64) << 32) | u64::from(id.generation()),
                trace,
                lnvc: idx,
                arg0: m_idx,
                arg1: buf.len() as u32,
                status: hop as i32,
            };
        }
        Ok((idx, d, n))
    }

    /// This view's deferred sends.  Its lock is held only between engine
    /// calls, never across one.
    fn deferred(&self) -> std::sync::MutexGuard<'_, Deferred> {
        self.deferred
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Defers up to `payloads.len()` sends on `id` to the next
    /// [`Self::drain_sends`]: copies the payloads into this view, each
    /// with its completion token, its index within `payloads`.  Nothing
    /// of the region is allocated, so a process that dies before its
    /// drain leaves nothing behind.
    ///
    /// Returns the number deferred: [`AIO_RING_SLOTS`] waiting sends or
    /// the size limit stop the batch early (a partial submit).  An empty
    /// batch is `Ok(0)`; no room for even the first payload is
    /// [`MpfError::WouldBlock`] (drain, reap, then resubmit the rest).
    pub fn submit_sends(&self, id: LnvcId, payloads: &[&[u8]]) -> Result<usize> {
        self.heartbeat();
        let (_, d) = self.resolve(id)?;
        self.poison_check(d)?;
        let max = self.cfg.max_message_bytes();
        let mut q = self.deferred();
        let room = AIO_RING_SLOTS - q.sends.len();
        let n = payloads
            .iter()
            .take(room)
            .take_while(|buf| buf.len() <= max)
            .count();
        if n == 0 {
            return match payloads.first() {
                None => Ok(0),
                Some(_) if room == 0 => Err(MpfError::WouldBlock),
                Some(buf) => Err(MpfError::MessageTooLarge {
                    len: buf.len(),
                    max,
                }),
            };
        }
        let sends = payloads[..n].iter().zip(0..);
        q.sends
            .extend(sends.map(|(buf, token)| (id, token, buf.to_vec())));
        q.stats.submitted += n as u64;
        q.stats.sq_doorbells += 1;
        Ok(n)
    }

    /// Sends what [`Self::submit_sends`] deferred: hands each run of
    /// same-conversation payloads to [`Self::send_batch`] and keeps one
    /// completion per payload for [`Self::reap_completions`].  Stops while
    /// [`AIO_RING_SLOTS`] completions wait unreaped, and at a payload the
    /// pools cannot take now, which stays deferred for the next drain;
    /// every other failure is its payload's completion status.  Returns
    /// the number completed.
    pub fn drain_sends(&self) -> usize {
        let mut n = 0;
        loop {
            let run: Vec<_> = {
                let mut q = self.deferred();
                let budget = AIO_RING_SLOTS - q.done.len();
                let id = q.sends.front().map(|s| s.0);
                let same = q.sends.iter().take(budget).take_while(|s| Some(s.0) == id);
                let len = same.count();
                q.sends.drain(..len).collect()
            };
            let Some(&(id, ..)) = run.first() else {
                break;
            };
            let refs: Vec<&[u8]> = run.iter().map(|s| s.2.as_slice()).collect();
            let done = match self.send_batch(id, &refs) {
                Ok(done) => done,
                Err(MpfError::BlocksExhausted | MpfError::MessagesExhausted) => Vec::new(),
                Err(e) => (0..)
                    .zip(&refs)
                    .map(|(i, buf)| AioCompletion {
                        user_data: i,
                        trace: 0,
                        lnvc: id.index(),
                        len: buf.len() as u32,
                        status: e.status_code(),
                    })
                    .collect(),
            };
            let sent = done.len();
            let mut q = self.deferred();
            let done = done.into_iter().map(|c| AioCompletion {
                user_data: run[c.user_data as usize].1,
                ..c
            });
            q.done.extend(done);
            q.stats.drained += sent as u64;
            q.stats.completed += sent as u64;
            n += sent;
            if sent < run.len() {
                for unsent in run.into_iter().skip(sent).rev() {
                    q.sends.push_front(unsent);
                }
                break;
            }
        }
        if n > 0 {
            self.deferred().stats.cq_doorbells += 1;
        }
        n
    }

    /// A staged `run`'s completion status: 0 if published, else the error's
    /// code, its messages freed (gone, poisoned or closed: none went out).
    fn settle(&self, run: &[RingEntry], published: Result<()>) -> i32 {
        if published.is_err() {
            for staged in run {
                self.free_run(staged.arg0, staged.arg0, None);
            }
        }
        published.map_or_else(|e| e.status_code(), |()| 0)
    }

    /// Moves every completion [`Self::drain_sends`] kept into `out`;
    /// returns how many were appended.
    pub fn reap_completions(&self, out: &mut Vec<AioCompletion>) -> usize {
        let mut q = self.deferred();
        let n = q.done.len();
        out.append(&mut q.done);
        q.stats.reaped += n as u64;
        n
    }

    /// Sends a batch as one run: stages up to [`AIO_RING_SLOTS`] of
    /// `payloads` and publishes them with one lock hold and one ring per
    /// watching process, as [`Self::message_send`] does a run of one,
    /// returning one completion per staged payload (tokens are indices
    /// into `payloads`; none for an empty batch).  Fewer completions than
    /// payloads is a partial batch: the pools or the size limit ended the
    /// run, and the caller sends the rest.
    pub fn send_batch(&self, id: LnvcId, payloads: &[&[u8]]) -> Result<Vec<AioCompletion>> {
        let mut run = [RingEntry::default(); AIO_RING_SLOTS];
        let (idx, d, n) = self.stage_batch(id, payloads, &mut run)?;
        // Also keeps `publish_run` specialised on a non-empty run, which
        // every single send would otherwise pay a check for.
        if n == 0 {
            return Ok(Vec::new());
        }
        let run = &run[..n];
        let status = self.settle(run, self.publish_run(idx, d, run));
        let done = |e: &RingEntry| AioCompletion {
            user_data: e.user_data >> 32,
            trace: e.trace,
            lnvc: idx,
            len: e.arg1,
            status,
        };
        Ok(run.iter().map(done).collect())
    }

    /// Deadline-bounded [`Self::send_batch`]: sends run after run of the
    /// unsent tail, sleeping on the pool signal whenever the pools are dry,
    /// until every payload is sent or `deadline` passes.
    ///
    /// On expiry: [`MpfError::TimedOut`] if *nothing* was sent; otherwise
    /// the completions gathered so far — a partial batch, exactly the
    /// contract [`Self::send_batch`] already documents.  Completion tokens
    /// index into the original `payloads`.
    pub fn send_batch_deadline(
        &self,
        id: LnvcId,
        payloads: &[&[u8]],
        deadline: Option<Instant>,
    ) -> Result<Vec<AioCompletion>> {
        let mut out = Vec::with_capacity(payloads.len());
        while out.len() < payloads.len() {
            // Tokens index the *slice* each run is handed; re-base them.
            let base = out.len();
            let rest = &payloads[base..];
            match self.retry_when_pool_frees(deadline, || self.send_batch(id, rest)) {
                Ok(done) => out.extend(done.into_iter().map(|c| AioCompletion {
                    user_data: c.user_data + base as u64,
                    ..c
                })),
                Err(e) if base == 0 => return Err(e),
                Err(_) => break,
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

    /// Counters of this view's deferred sends and their completions.
    pub fn aio_stats(&self) -> AioStats {
        let q = self.deferred();
        AioStats {
            sq_depth: q.sends.len(),
            cq_depth: q.done.len(),
            ..q.stats
        }
    }

    /// Non-blocking receive into a fresh `Vec`; `Ok(None)` when nothing
    /// is deliverable.
    pub fn try_message_receive_vec(&self, id: LnvcId) -> Result<Option<Vec<u8>>> {
        Ok(self.receive_vecs(id, Wait::No, 1)?.pop())
    }

    // -- waiting ---------------------------------------------------------

    /// Rings this process's own doorbell: wakes its threads asleep in a
    /// wait to re-check whatever they wait for.
    pub fn ring_doorbell(&self) {
        self.doorbell().notify_all();
    }

    /// This process's doorbell: the one word its waits sleep on.
    fn doorbell(&self) -> &FutexSeq {
        &self.t.slot(self.me).doorbell
    }

    /// The one wait loop: runs `attempt` until it ends the wait (`Break`
    /// or an error), napping on the doorbell after each attempt that
    /// continues with a ticket; [`MpfError::TimedOut`] once `deadline` has
    /// passed.  An attempt registers its interest (a watch, the pool
    /// signal) and takes the ticket before it checks — or checks under
    /// the lock it registers and takes the ticket in — so whatever it did
    /// not see rings past the ticket.
    fn doorbell_wait<T>(
        &self,
        deadline: Option<Instant>,
        mut attempt: impl FnMut() -> Result<ControlFlow<T, u32>>,
    ) -> Result<T> {
        loop {
            match attempt()? {
                Break(done) => return Ok(done),
                Continue(ticket) => self.doorbell_nap(ticket, deadline)?,
            }
        }
    }

    /// One sleep on the doorbell, at most to `deadline` or the sweep
    /// cadence — clamped so a near deadline is missed by microseconds, not
    /// 50 ms — then the sweep if it is due.  [`MpfError::TimedOut`],
    /// without sleeping, once `deadline` has passed.
    fn doorbell_nap(&self, ticket: u32, deadline: Option<Instant>) -> Result<()> {
        let left = deadline.map_or(RECV_SWEEP_INTERVAL, |dl| {
            dl.saturating_duration_since(Instant::now())
        });
        if left.is_zero() {
            return Err(MpfError::TimedOut);
        }
        self.doorbell()
            .wait(ticket, Some(left.min(RECV_SWEEP_INTERVAL)));
        self.sweep_if_due();
        Ok(())
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

    /// Adds (`on`) or removes one watch of this process on `d` — a
    /// receive's (`unit` [`RecvDesc::WATCH_ONE`]) or a `wait_any`'s
    /// ([`RecvDesc::WATCH_ANY`]) — whose changes then ring our doorbell
    /// ([`Self::watchers`]).  Watch state lives with the receive
    /// connection, read and written under `d`'s lock only, and dies with
    /// it: closed, or swept after its holder's death.  Returns whether a
    /// watch changed; a conversation we do not receive on is left to the
    /// caller's own check.  Caller holds `d`'s lock.
    fn watch_locked(&self, d: &LnvcDesc, unit: u32, on: bool) -> bool {
        // A connection closed and reopened under the wait lost its watches.
        let conn = self.my_conn(ConnKind::Recv, d).map(|c| self.t.recv(c));
        let Some(r) = conn.filter(|r| on || r.watches_of(unit) != 0) else {
            return false;
        };
        let step = |n: u32, by: u32| if on { n + by } else { n - by };
        locked_update(&r.protocol, |p| step(p, unit));
        // Armed `SeqCst` in ring mode: its sender loads it with no lock.
        let ring = on && d.mode.load(Ordering::Relaxed) == lnvc_mode::RING;
        let order = [Ordering::Release, Ordering::SeqCst][usize::from(ring)];
        d.watchers
            .store(step(d.watchers.load(Ordering::Relaxed), 1), order);
        true
    }

    /// The processes whose doorbells a change to `d` must ring, after the
    /// unlock where it can be (a woken watcher's first act is to take this
    /// lock).  A poison (`run` `None`) rings every watcher.  A publish whose
    /// run starts at message `run` rings every `wait_any` it concerns (a
    /// `wait_any` takes nothing), as many FCFS receives as there are queued
    /// messages, and the first BROADCAST receive whose head `run` is: a
    /// rung receive takes a message — a BROADCAST one then rings the next
    /// receive asleep at that head ([`Self::deliver_locked`]) — or passes
    /// the ring on.  Caller holds `d`'s lock, under which every watch is
    /// armed, so a watcher either is counted here or sees the change in its
    /// own hold.
    fn watchers(&self, d: &LnvcDesc, run: Option<u32>) -> Vec<u32> {
        let mut pids = Vec::new();
        if d.watchers.load(Ordering::Relaxed) == 0 {
            return pids;
        }
        let mut fcfs = run.map_or(u32::MAX, |_| d.msg_count.load(Ordering::Relaxed));
        let mut bcast_first = true;
        for r in self.recv_conns(d).filter(|r| r.watches() != 0) {
            let bcast = r.protocol_code() == Protocol::Broadcast.code();
            let looks = r.watches_of(RecvDesc::WATCH_ANY) != 0;
            let ring = match bcast {
                true => run.is_none_or(|first| {
                    r.head.load(Ordering::Acquire) == first
                        && (looks || std::mem::take(&mut bcast_first))
                }),
                false => looks || fcfs != 0,
            };
            if ring {
                fcfs -= u32::from(!bcast && !looks);
                pids.push(r.pid.load(Ordering::Acquire));
            }
        }
        pids
    }

    /// Rings the doorbell of each of `pids` ([`Self::watchers`]).
    fn ring_doorbells(&self, pids: impl IntoIterator<Item = u32>) {
        for pid in pids {
            self.t.slot(pid).doorbell.notify_all();
        }
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
    /// struck the first message.  A BROADCAST delivery leaves in `pass`
    /// the process to ring next ([`Self::watchers`]).  In ring mode it is
    /// [`Self::ring_take`]; a queue an FCFS delivery empties may return to
    /// ring mode.  Caller holds the LNVC lock.
    fn deliver_locked(
        &self,
        idx: u32,
        d: &LnvcDesc,
        max: usize,
        take: &mut impl FnMut(&MsgDesc, usize) -> Result<()>,
        pass: &mut Option<u32>,
    ) -> Result<(usize, usize)> {
        if d.mode.load(Ordering::Relaxed) == lnvc_mode::RING {
            if let Some(got) = self.ring_take(idx, d, max, take, false) {
                return got;
            }
        }
        let r = self.live_recv(d)?;
        let bcast = r.protocol_code() == Protocol::Broadcast.code();
        let was_at = r.head.load(Ordering::Acquire);
        let kind = if bcast { TR_RECV_B } else { TR_RECV };
        let lt = self.cfg.telemetry.then(|| self.t.lnvc_tel(idx));
        // One clock read, at the first timed message, dates the records
        // from there on (deliveries, then reclaims) and the latency
        // samples; a batch with none reads nothing and records undated.
        let mut now = 0u64;
        let (mut received, mut bytes) = (0usize, 0usize);
        let mut last_chain = (0u64, 0u32);
        // One walk of the queue per batch, a BROADCAST receiver's from its
        // own head: nothing moves under the lock, so the scan resumes
        // behind each delivery (queued until the reclaim).
        let mut cur = if bcast { &r.head } else { &d.q_head }.load(Ordering::Acquire);
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
            if bcast {
                r.head
                    .store(m.next.load(Ordering::Acquire), Ordering::Release);
            }
            Self::claim_delivery(m, bcast);
            // Delivery is claimed; record it before the reclamation pass
            // can append this message's TR_RECLAIM, so ring order matches
            // logic.
            last_chain = self.record_delivery(idx, m, len, kind, lt, &mut now);
            received += 1;
            bytes += len;
            cur = m.next.load(Ordering::Acquire);
        }
        if bcast && received != 0 && d.watchers.load(Ordering::Relaxed) != 0 {
            // A publish rings only the first receive asleep at its head;
            // each rings the next once it has read past it.
            let asleep_at = |o: &RecvDesc| {
                o.watches_of(RecvDesc::WATCH_ONE) != 0 && o.head.load(Ordering::Acquire) == was_at
            };
            *pass = self
                .recv_conns(d)
                .find(|o| asleep_at(o))
                .map(|o| o.pid.load(Ordering::Acquire));
        }
        if received != 0 {
            // The last delivery becomes this process's causal context.
            self.adopt_trace(last_chain.0, last_chain.1);
            self.reclaim(idx, d, false, Some(now));
            if let Some(lt) = lt {
                bump(&lt.receives, received as u64);
                bump(&lt.bytes_out, bytes as u64);
            }
            if !bcast && d.msg_count.load(Ordering::Relaxed) == 0 {
                self.decide_mode(idx, d, false);
            }
        }
        Ok((received, bytes))
    }

    /// Records delivery of `m` (`len` bytes) on `idx` — `kind` record dated
    /// `now` (read at the first timed message), latency — returning its chain.
    #[inline(always)]
    fn record_delivery(
        &self,
        idx: u32,
        m: &MsgDesc,
        len: usize,
        kind: u32,
        lt: Option<&LnvcTelemetry>,
        now: &mut u64,
    ) -> (u64, u32) {
        let trace = m.trace.load(Ordering::Acquire);
        let hop = m.hop.load(Ordering::Acquire);
        let timed = self.timed(m.seq.load(Ordering::Acquire), trace);
        if *now == 0 && timed {
            *now = now_nanos();
        }
        let stamp = m.stamp.load(Ordering::Acquire);
        self.trace_rec_at(Some(*now), kind, hop, trace, idx, stamp, len as u32, 0);
        if let (Some(lt), true) = (lt, timed) {
            // The sender stamped every timed message (same config).
            let sent_at = m.sent_at.load(Ordering::Acquire);
            lt.latency.record_locked(now.saturating_sub(sent_at));
        }
        (trace, hop)
    }

    /// Ring mode's delivery under the receive end's lock: as
    /// [`Self::deliver_locked`], freeing what it took at once (a one-to-one
    /// FCFS delivery is full).  `None`: not in ring mode for us.
    fn ring_take(
        &self,
        idx: u32,
        d: &LnvcDesc,
        max: usize,
        take: &mut impl FnMut(&MsgDesc, usize) -> Result<()>,
        peek: bool,
    ) -> Option<Result<(usize, usize)>> {
        let ring = self.t.ring(idx);
        // A first look (`peek`) takes no lock: empty, it sends the call on.
        if peek
            && ring
                .slot(ring.head.load(Ordering::Acquire))
                .load(Ordering::Acquire)
                == NIL
        {
            return Some(Ok((0, 0)));
        }
        self.ring_end(&ring.c_lock, true);
        let ours = d.mode.load(Ordering::Relaxed) == lnvc_mode::RING
            && ring.consumer.load(Ordering::Relaxed) == self.me;
        if !ours || d.poisoned.load(Ordering::Relaxed) != 0 {
            self.ring_end(&ring.c_lock, false);
            return None;
        }
        let (head, lt) = (
            ring.head.load(Ordering::Relaxed),
            self.cfg.telemetry.then(|| self.t.lnvc_tel(idx)),
        );
        let slot = |i: u32| ring.slot(head.wrapping_add(i));
        let (mut now, mut n, mut bytes, mut chain, mut taken) = (0, 0u32, 0, (0, 0), Ok(()));
        while (n as usize) < max && slot(n).load(Ordering::Acquire) != NIL {
            let m_idx = slot(n).load(Ordering::Acquire);
            let m = self.t.msg(m_idx);
            let len = m.len.load(Ordering::Acquire) as usize;
            taken = take(m, len);
            if taken.is_err() {
                break;
            }
            chain = self.record_delivery(idx, m, len, TR_RECV, lt, &mut now);
            if n != 0 {
                // The taken messages become one run for `free_run`.
                let prev = self.t.msg(slot(n - 1).load(Ordering::Relaxed));
                prev.next.store(m_idx, Ordering::Release);
            }
            (n, bytes) = (n + 1, bytes + len);
        }
        let (first, last) = (
            slot(0).load(Ordering::Relaxed),
            slot(n.wrapping_sub(1)).load(Ordering::Relaxed),
        );
        // `head` first: a taker killed here leaks what it took, and never
        // hands it out twice.
        ring.head.store(head.wrapping_add(n), Ordering::Relaxed);
        (0..n).for_each(|i| slot(i).store(NIL, Ordering::Release));
        if let (Some(lt), true) = (lt, n != 0) {
            bump(&lt.receives, u64::from(n));
            bump(&lt.bytes_out, bytes as u64);
            bump(&lt.reclaims, u64::from(n));
        }
        self.ring_end(&ring.c_lock, false);
        if n == 0 {
            return Some(taken.map(|()| (0, 0)));
        }
        self.adopt_trace(chain.0, chain.1);
        self.free_run(first, last, Some(now));
        Some(Ok((n as usize, bytes)))
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

    /// Releases a departing BROADCAST receiver's claims, one on each
    /// queued message from its `head` on — no delivery, so not
    /// [`Self::claim_delivery`]'s.  Caller holds their lock.
    fn release_claims(&self, head: u32) {
        for m in self.msgs_from(head) {
            locked_update(&m.bcast_pending, |owed| owed.wrapping_sub(1));
        }
    }

    /// This process's receive connection on `d`, which must not be
    /// poisoned.  Caller holds `d`'s lock.
    fn live_recv(&self, d: &LnvcDesc) -> Result<&RecvDesc> {
        self.poison_check(d)?;
        let conn = self.my_conn(ConnKind::Recv, d);
        Ok(self.t.recv(conn.ok_or(MpfError::NotConnected)?))
    }

    /// The first message deliverable to connection `r` at or behind `from`
    /// in its queue, [`NIL`] when there is none.  A BROADCAST receiver is
    /// owed everything from its head on, so it never walks.
    fn next_deliverable(&self, from: u32, r: &RecvDesc) -> u32 {
        let mut cur = from;
        if r.protocol_code() == Protocol::Fcfs.code() {
            while cur != NIL && !self.t.msg(cur).fcfs_owed() {
                cur = self.t.msg(cur).next.load(Ordering::Acquire);
            }
        }
        cur
    }

    /// Points each BROADCAST receiver of `d` that had read everything at
    /// `first`, the new run's first message.  Caller holds `d`'s lock.
    fn catch_up(&self, d: &LnvcDesc, first: u32) {
        for r in self.recv_conns(d) {
            let bcast = r.protocol_code() == Protocol::Broadcast.code();
            if bcast && r.head.load(Ordering::Acquire) == NIL {
                r.head.store(first, Ordering::Release);
            }
        }
    }

    /// `d`'s receive connections in list order.  Caller holds `d`'s lock.
    fn recv_conns<'a>(&'a self, d: &LnvcDesc) -> impl Iterator<Item = &'a RecvDesc> + 'a {
        self.conns(ConnKind::Recv, d).map(|c| self.t.recv(c))
    }

    /// The queued messages from `first` on.  Caller holds their lock.
    fn msgs_from(&self, first: u32) -> impl Iterator<Item = &MsgDesc> + '_ {
        let mut cur = first;
        std::iter::from_fn(move || {
            let m = (cur != NIL).then(|| self.t.msg(cur))?;
            cur = m.next.load(Ordering::Acquire);
            Some(m)
        })
    }

    /// Clears the FCFS obligation on every still-owed queued message.
    ///
    /// Called (holding the LNVC lock) when the connected-receiver
    /// population changes such that the obligation can never be satisfied:
    /// the last FCFS receiver leaves while BROADCAST receivers keep the
    /// conversation alive, or the first receiver ever to join is
    /// BROADCAST (it skips the backlog).  See DESIGN.md,
    /// "Obligation re-evaluation".
    fn clear_fcfs_obligations(&self, d: &LnvcDesc) {
        for m in self.msgs_from(d.q_head.load(Ordering::Acquire)) {
            if m.fcfs_owed() {
                locked_update(&m.flags, |flags| flags & !msg_flags::NEEDS_FCFS);
            }
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
        self.lock_lnvc(idx, d);
        if d.poisoned.load(Ordering::Acquire) == 0 {
            self.reclaim(idx, d, true, None);
        }
        d.lock.unlock();
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
                d.mode.store(lnvc_mode::LOCKED, Ordering::Release);
                // An empty ring here, not in the carve: only rings in use
                // are touched.
                self.t.ring(idx).reset();
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

    /// Frees conversation `idx`'s queue and releases its name and slot —
    /// a deletion, once its last connection closed, or the roll-back of a
    /// creation whose first open failed — and retires its counts into our
    /// telemetry shard, so the slot's next tenant starts from zero and the
    /// facility totals lose nothing.  Nobody watches it: a watch lives on a
    /// receive connection, and a closer rings its own doorbell for the
    /// watches its connection took along.  Caller holds the registry lock
    /// and the LNVC lock.
    fn deactivate(&self, idx: u32) {
        let d = self.t.lnvc(idx);
        self.drop_queue(idx, d);
        let e = self.t.reg_entry(d.registry_idx.load(Ordering::Acquire));
        e.used.store(0, Ordering::Release);
        d.active.store(0, Ordering::Release);
        if let Some(t) = self.tel() {
            t.lnvcs_deleted.inc();
            t.retire(self.t.lnvc_tel(idx), &self.t.header().tel_fold_seq);
        }
    }

    /// Frees every queued message, delivered or not — the ring's too: a
    /// deleted or poisoned conversation leaves ring mode first.  Caller
    /// holds `d`'s lock.
    fn drop_queue(&self, idx: u32, d: &LnvcDesc) {
        self.decide_mode(idx, d, false);
        let first = d.q_head.load(Ordering::Acquire);
        d.q_head.store(NIL, Ordering::Release);
        d.q_tail.store(NIL, Ordering::Release);
        d.msg_count.store(0, Ordering::Release);
        for r in self.recv_conns(d) {
            r.head.store(NIL, Ordering::Release);
        }
        if first != NIL {
            // To the chain's end, not to `q_tail`: a holder that died
            // mid-publish may have left the tail word behind.
            self.free_run(first, NIL, None);
        }
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

    /// Connection `i` of `kind`: its holder's pid and its list link.
    fn conn(&self, kind: ConnKind, i: u32) -> [&AtomicU32; 2] {
        match kind {
            ConnKind::Send => [&self.t.send(i).pid, &self.t.send(i).next],
            ConnKind::Recv => [&self.t.recv(i).pid, &self.t.recv(i).next],
        }
    }

    /// Retires send connection `conn`, already unlinked from `d`: counted
    /// out, then back to the pool — a death between leaks the descriptor
    /// rather than leave the count above the list.  Caller holds `d`'s lock.
    fn retire_send(&self, d: &LnvcDesc, conn: u32) {
        d.n_senders.fetch_sub(1, Ordering::AcqRel);
        let send_free = &self.t.header().send_free;
        send_free.push(conn, |s, n| self.t.send(s).next.store(n, Ordering::Release));
    }

    /// Retires receive connection `conn`, already unlinked from `d`: its
    /// watches go with it, it is counted out, its delivery claims are
    /// released, what that left fully delivered is reclaimed from the
    /// whole queue (a close or a sweep is the slow path), not just the
    /// head, and its descriptor returns to the pool last, as in
    /// [`Self::retire_send`].  Returns the watches it took along.  Caller
    /// holds `d`'s lock.
    fn retire_recv(&self, idx: u32, d: &LnvcDesc, conn: u32) -> u32 {
        let r = self.t.recv(conn);
        let (protocol, watches) = (r.protocol_code(), r.watches());
        let head = r.head.load(Ordering::Acquire);
        locked_update(&d.watchers, |n| n - watches);
        if protocol == Protocol::Broadcast.code() {
            d.n_bcast.fetch_sub(1, Ordering::AcqRel);
            self.release_claims(head);
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
        let recv_free = &self.t.header().recv_free;
        recv_free.push(conn, |s, n| self.t.recv(s).next.store(n, Ordering::Release));
        watches
    }

    /// `d`'s connections of `kind`, in list order.  Caller holds `d`'s
    /// lock.
    fn conns<'a>(&'a self, kind: ConnKind, d: &LnvcDesc) -> impl Iterator<Item = u32> + 'a {
        let head = match kind {
            ConnKind::Send => &d.send_head,
            ConnKind::Recv => &d.recv_head,
        };
        let first = Some(head.load(Ordering::Acquire)).filter(|&c| c != NIL);
        std::iter::successors(first, move |&c| {
            Some(self.conn(kind, c)[1].load(Ordering::Acquire)).filter(|&n| n != NIL)
        })
    }

    /// This process's connection of `kind` on `d`.
    fn my_conn(&self, kind: ConnKind, d: &LnvcDesc) -> Option<u32> {
        self.conns(kind, d)
            .find(|&c| self.conn(kind, c)[0].load(Ordering::Acquire) == self.me)
    }

    /// Unlinks `pid`'s connection from an index-linked list, returning it.
    fn unlink_conn(&self, kind: ConnKind, head: &AtomicU32, pid: u32) -> Option<u32> {
        let mut prev = NIL;
        let mut cur = head.load(Ordering::Acquire);
        while cur != NIL {
            let [holder, link] = self.conn(kind, cur);
            let next = link.load(Ordering::Acquire);
            if holder.load(Ordering::Acquire) == pid {
                let at = if prev == NIL {
                    head
                } else {
                    self.conn(kind, prev)[1]
                };
                at.store(next, Ordering::Release);
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
            self.lock_lnvc(idx, d);
            // A ring end the corpse held is freed: its pid's next owner
            // must not be waited on as if it held it.
            let ring = self.t.ring(idx);
            for end in [&ring.p_busy, &ring.c_lock] {
                let _ = end.compare_exchange(dead + 1, 0, Ordering::AcqRel, Ordering::Relaxed);
            }
            let sent = self.unlink_conn(ConnKind::Send, &d.send_head, dead);
            let recv = self.unlink_conn(ConnKind::Recv, &d.recv_head, dead);
            let touched = sent.is_some() || recv.is_some();
            if touched {
                // The corpse's connections go, and its conversation is
                // poisoned or deleted: one record either way.
                self.trace_population(TR_POISON, idx, dead);
            }
            if let Some(conn) = sent {
                self.retire_send(d, conn);
            }
            if let Some(conn) = recv {
                self.retire_recv(idx, d, conn);
            }
            // None left: the corpse held the only one, or died closing it.
            let orphaned = d.total_connections() == 0;
            let mut watching = Vec::new();
            if orphaned {
                // Delete rather than poison (frees the queue, releases the
                // name).
                self.deactivate(idx);
            } else if touched {
                d.dead_pid.store(dead, Ordering::Release);
                d.poisoned.store(1, Ordering::Release);
                // Nobody can drain a poisoned conversation (every
                // receive now reports `PeerDied`), so its queued
                // messages would leak pool slots for the region's
                // lifetime: free the whole queue.
                self.drop_queue(idx, d);
                watching = self.watchers(d, None);
            } else if d.mode.load(Ordering::Relaxed) == lnvc_mode::CHANGING {
                // Died changing the mode of a conversation it had left.
                self.decide_mode(idx, d, false);
            }
            d.lock.unlock();
            // Unblock survivors; they will observe the poison.
            self.ring_doorbells(watching);
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
        self.lock_lnvc(idx, d);
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
            self.lock_lnvc(idx, d);
            if d.active.load(Ordering::Acquire) == 1 {
                for m in self.msgs_from(d.q_head.load(Ordering::Acquire)) {
                    if m.fully_delivered() {
                        out.messages += 1;
                        out.blocks += m.n_blocks.load(Ordering::Acquire) as u64;
                    }
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
    /// conversation, its ring's included.  Racy diagnostic: drain
    /// protocols use it to decide whether a queue has quiesced after
    /// pausing intake.
    pub fn queue_depth(&self, id: LnvcId) -> Result<u32> {
        let (idx, d) = self.resolve(id)?;
        Ok(d.msg_count.load(Ordering::Acquire) + self.t.ring(idx).queued_after(0))
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
    /// is an attached, living process; every BROADCAST head is a queued
    /// message and every `bcast_pending` the number of heads at or before
    /// the message; no
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
            self.lock_lnvc(idx, d);
            let audit = self.audit_lnvc(idx, d, &mut reached);
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

    /// Audits one conversation `idx` (lock held); returns the messages,
    /// blocks, send connections and receive connections it holds, its
    /// ring's included.  `reached` is the region-wide block bitmap of
    /// [`Self::audit_reach`].
    fn audit_lnvc(
        &self,
        idx: u32,
        d: &LnvcDesc,
        reached: &mut [u64],
    ) -> std::result::Result<[u64; 4], String> {
        let count = |a: &AtomicU32| a.load(Ordering::Acquire);
        let holder_gone =
            |pid: u32| pid >= self.cfg.max_processes || !self.t.slot(pid).owner_alive();
        let mut senders = 0u32;
        for c in self.conns(ConnKind::Send, d) {
            senders += 1;
            if senders > self.cfg.max_send_conns {
                return Err("send list is cyclic".into());
            }
            let pid = count(&self.t.send(c).pid);
            if holder_gone(pid) {
                return Err(format!(
                    "send connection of process {pid} outlives its holder"
                ));
            }
        }
        if senders != count(&d.n_senders) {
            return Err(format!(
                "n_senders {} but send list holds {senders}",
                count(&d.n_senders)
            ));
        }
        let (mut fcfs, mut heads) = (0u32, Vec::new());
        for r in self.recv_conns(d) {
            if fcfs + heads.len() as u32 >= self.cfg.max_recv_conns {
                return Err("receive list is cyclic".into());
            }
            let pid = count(&r.pid);
            if holder_gone(pid) {
                return Err(format!(
                    "receive connection of process {pid} outlives its holder"
                ));
            }
            if r.protocol_code() == Protocol::Broadcast.code() {
                heads.push(count(&r.head));
            } else {
                fcfs += 1;
            }
        }
        let (n_fcfs, n_bcast) = (count(&d.n_fcfs), count(&d.n_bcast));
        if fcfs != n_fcfs || heads.len() as u32 != n_bcast {
            return Err(format!(
                "counters say {n_fcfs} FCFS / {n_bcast} BROADCAST but list holds {fcfs} / {}",
                heads.len()
            ));
        }

        // In ring mode, in one-to-one shape, the ring is the queue.
        let (ring, mode) = (self.t.ring(idx), count(&d.mode));
        let in_ring: Vec<u32> = ring.queued().collect();
        let filled = ring.slots.iter().filter(|s| count(s) != NIL).count();
        let shaped = n_bcast == 0 && senders <= 1 && fcfs <= 1 && count(&d.q_head) == NIL;
        let ring_mode = mode == lnvc_mode::RING;
        if filled != in_ring.len()
            || !if ring_mode {
                shaped
            } else {
                mode == 0 && filled == 0
            }
        {
            let n = in_ring.len();
            return Err(format!(
                "mode {mode}: {filled} ring slots filled, {n} before the tail"
            ));
        }
        let (mut queued, mut blocks, mut last, mut prev) = (0u32, 0u64, None, NIL);
        // BROADCAST receivers whose head is this message or one before it.
        let mut claims = 0u32;
        let first = Some(count(&d.q_head)).filter(|&c| c != NIL);
        let next = |&c: &u32| Some(count(&self.t.msg(c).next)).filter(|&n| n != NIL);
        for cur in in_ring
            .iter()
            .copied()
            .chain(std::iter::successors(first, next))
        {
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
            claims += heads.iter().filter(|&&h| h == cur).count() as u32;
            if count(&m.bcast_pending) != claims {
                return Err(format!(
                    "message {cur} (stamp {stamp}) has bcast_pending {} but {claims} \
                     broadcast heads are at or before it",
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
        }
        if queued - in_ring.len() as u32 != count(&d.msg_count) {
            return Err(format!(
                "msg_count {} but FIFO holds {queued}, {} of them in the ring",
                count(&d.msg_count),
                in_ring.len()
            ));
        }
        if count(&d.q_tail) != if ring_mode { NIL } else { prev } {
            return Err(format!(
                "q_tail {} is not the last queued message",
                count(&d.q_tail)
            ));
        }
        if heads.iter().filter(|&&h| h != NIL).count() as u32 != claims {
            return Err("a BROADCAST head is not a queued message".into());
        }
        Ok([
            u64::from(queued),
            blocks,
            u64::from(senders),
            u64::from(fcfs) + heads.len() as u64,
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
        let (idx, d) = self.resolve(id)?;
        self.lock_lnvc(idx, d);
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
    /// the pool signal, then sleeps on the doorbell until the signal has
    /// fired or `woken` holds.  Whoever makes `woken` true must then
    /// [`Self::ring_doorbell`].
    #[doc(hidden)]
    pub fn debug_pool_wait(&self, woken: &dyn Fn() -> bool) {
        self.pool_wait(true);
        let pool_seq = &self.t.header().pool_seq;
        let signal = pool_seq.load(Ordering::SeqCst);
        let _ = self.doorbell_wait(None, || {
            let ticket = self.doorbell().ticket();
            let done = woken() || pool_seq.load(Ordering::SeqCst) != signal;
            Ok(if done { Break(()) } else { Continue(ticket) })
        });
        self.pool_wait(false);
    }
}

impl Drop for IpcMpf {
    fn drop(&mut self) {
        // Clean detach — a departure, not a death: close the connections
        // we still hold (the sweep visits only ATTACHED slots, so nothing
        // would ever retire them under a FREE one), then release the slot.
        // An unwind skips the closes: it may be passing through a hold of
        // the locks they take.
        if !std::thread::panicking() {
            for id in (0..self.cfg.max_lnvcs).filter_map(|i| self.id_at(i)) {
                // `NotConnected` is the common case, not a failure.
                let _ = self.close_send(id);
                let _ = self.close_receive(id);
            }
        }
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
        // A second sender keeps the conversation off its one-to-one ring:
        // these corpses live on the locked queue.
        let other = m.attach_view().unwrap();
        other.open_send("q").unwrap();
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
