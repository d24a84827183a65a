//! Read-only region inspection — the library behind `mpf-trace`.
//!
//! [`RegionInspector`] maps a named region with `PROT_READ` only
//! ([`ShmRegion::attach_readonly`]): it claims no process slot, takes no
//! lock, bumps no heartbeat, and cannot write a byte, so it observes a
//! **live** session without perturbing it and a **crashed** one without
//! the usual "attach re-initializes something" hazard.  Everything it
//! reports is assembled from lock-free reads:
//!
//! * fixed-size tables (process slots, LNVC descriptors, telemetry,
//!   trace rings) are scanned by index — no links followed;
//! * queue walks are bounded by the message-pool capacity, so a cycle
//!   torn by a mid-update crash terminates instead of hanging;
//! * trace rings use their seqlock protocol
//!   ([`mpf_shm::tracering::TraceRing::snapshot`]),
//!   dropping records a live writer is mid-overwrite on.
//!
//! Numbers read while the session is running are each individually
//! atomic but mutually unsynchronized — a send may be counted whose
//! queue link is not yet visible.  For a crashed (quiescent) region the
//! view is exact.

use std::sync::atomic::Ordering;

use mpf_shm::telemetry::{facility_snapshot, LnvcTelSnapshot, TelSnapshot};
use mpf_shm::tracering::{TraceEvent, TRACE_RING_SLOTS};
use mpf_shm::ShmRegion;

use crate::engine::{verify_carve, AttachError, Tables};
use crate::shmem::{slot_state, LnvcDesc, NIL};
use crate::MpfConfig;

/// One process slot, decoded.
#[derive(Debug, Clone)]
pub struct ProcessInfo {
    /// Slot index = MPF pid.
    pub pid: u32,
    /// `"free"`, `"attached"`, or `"dead"`.
    pub state: &'static str,
    /// OS pid recorded at attach (0 after a clean detach).
    pub os_pid: u32,
    /// Whether that OS process exists *right now* (an attached slot with
    /// `alive == false` is a corpse no survivor has swept yet).
    pub alive: bool,
    /// Activity counter (bumped on every primitive call).
    pub heartbeat: u64,
    /// Slot reuse count.
    pub generation: u32,
    /// Sequence of the process's doorbell (rings it has received).
    pub doorbell: u32,
    /// Whether a thread of the process is asleep on the doorbell — in a
    /// blocked receive, a multi-conversation or a pool-memory wait.  Stays
    /// set on a corpse that died there.
    pub asleep: bool,
    /// Conversations the process is watching (armed by a blocked receive
    /// or a multi-conversation wait).
    pub watching: u32,
    /// Whether the process is registered as waiting for pool memory.
    pub mem_wait: bool,
}

/// One active conversation, decoded.
#[derive(Debug, Clone)]
pub struct LnvcInfo {
    /// Descriptor index.
    pub index: u32,
    /// Registered name (lossy UTF-8, NUL padding stripped).
    pub name: String,
    /// Descriptor reuse count (high half of live handles).
    pub generation: u32,
    /// Messages currently queued.
    pub queued: u32,
    /// Of those, fully delivered but not yet freed (corpses).
    pub reclaimable: u32,
    /// Connected senders.
    pub n_senders: u32,
    /// Connected FCFS receivers.
    pub n_fcfs: u32,
    /// Connected BROADCAST receivers.
    pub n_bcast: u32,
    /// Next send sequence number (= messages ever sent here).
    pub next_seq: u32,
    /// Whether a peer died mid-conversation.
    pub poisoned: bool,
    /// The MPF pid blamed for the poison (meaningful when `poisoned`).
    pub dead_pid: u32,
    /// Per-conversation telemetry counters.
    pub tel: LnvcTelSnapshot,
}

/// Occupancy of one process's causal trace ring.
#[derive(Debug, Clone, Copy)]
pub struct TraceRingInfo {
    /// Slot index = MPF pid that owns the ring.
    pub pid: u32,
    /// OS pid that owns (or owned) the ring.
    pub writer_pid: u32,
    /// Records ever written (the ring keeps the most recent
    /// [`TRACE_RING_SLOTS`]).
    pub recorded: u64,
    /// Of those, records already overwritten and lost.
    pub overwritten: u64,
    /// Causal chains never recorded because sampling skipped them.
    pub sampled_out: u64,
}

/// A read-only attachment to a named region (live or post-mortem).
#[derive(Debug)]
pub struct RegionInspector {
    t: Tables,
    cfg: MpfConfig,
    name: String,
}

impl RegionInspector {
    /// Maps the named region read-only and validates its header.  Unlike
    /// [`crate::IpcMpf::attach`] there is no barrier wait: a region whose
    /// creator died mid-carve is reported as an error immediately.
    pub fn attach(name: &str) -> Result<Self, AttachError> {
        let region = ShmRegion::attach_readonly(name)?;
        // A clean error for any corrupt header, never a panic.
        let cfg = verify_carve(&region)?;
        Ok(Self {
            t: Tables::new(region, &cfg),
            cfg,
            name: name.to_string(),
        })
    }

    // -- decoded views -------------------------------------------------

    /// The region name this inspector attached to.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The config the creator carved with (rebuilt from the header echo).
    pub fn config(&self) -> &MpfConfig {
        &self.cfg
    }

    /// Whether participants are recording telemetry.  The counters and
    /// rings exist (and read as zero) even when they are not.
    pub fn telemetry_enabled(&self) -> bool {
        self.cfg.telemetry
    }

    /// Total region bytes.
    pub fn region_bytes(&self) -> usize {
        self.t.region().len()
    }

    /// Global send stamp — total messages ever sent through the region.
    pub fn next_stamp(&self) -> u64 {
        self.t.header().next_stamp.load(Ordering::Acquire)
    }

    /// Dead-peer sweep epoch (bumped each time corpses were found).
    pub fn sweep_epoch(&self) -> u64 {
        u64::from(self.t.header().sweep_epoch.load(Ordering::Acquire))
    }

    /// Registrations waiting for pool memory, region-wide: non-zero means
    /// every reclaim currently fires the pool signal.
    pub fn pool_waiters(&self) -> u32 {
        self.t.header().pool_waiters.load(Ordering::Acquire)
    }

    /// Watched conversations per process slot.  Connection-list walks are
    /// bounded by the pool capacity so a torn region cannot hang us.
    fn watch_census(&self) -> Vec<u32> {
        let mut watching = vec![0u32; self.cfg.max_processes as usize];
        for idx in 0..self.cfg.max_lnvcs {
            let d = self.t.lnvc(idx);
            if d.active.load(Ordering::Acquire) != 1 {
                continue;
            }
            let mut cur = d.recv_head.load(Ordering::Acquire);
            let mut steps = 0;
            while cur != NIL && cur < self.cfg.max_recv_conns && steps < self.cfg.max_recv_conns {
                let r = self.t.recv(cur);
                let pid = r.pid.load(Ordering::Acquire) as usize;
                if r.watches() != 0 && pid < watching.len() {
                    watching[pid] += 1;
                }
                cur = r.next.load(Ordering::Acquire);
                steps += 1;
            }
        }
        watching
    }

    /// Every process slot, decoded, with an up-to-date liveness probe.
    pub fn processes(&self) -> Vec<ProcessInfo> {
        let watching = self.watch_census();
        (0..self.cfg.max_processes)
            .map(|i| {
                let s = self.t.slot(i);
                let state = s.state.load(Ordering::Acquire);
                let os_pid = s.os_pid.load(Ordering::Acquire);
                ProcessInfo {
                    pid: i,
                    state: match state {
                        slot_state::ATTACHED => "attached",
                        slot_state::DEAD => "dead",
                        _ => "free",
                    },
                    os_pid,
                    alive: state == slot_state::ATTACHED
                        && os_pid != 0
                        && mpf_shm::futex::process_alive(os_pid),
                    heartbeat: s.heartbeat.load(Ordering::Acquire),
                    generation: s.generation.load(Ordering::Acquire),
                    doorbell: s.doorbell.ticket(),
                    asleep: s.doorbell.sleepers() != 0,
                    watching: watching[i as usize],
                    mem_wait: s.mem_wait.load(Ordering::Acquire) != 0,
                }
            })
            .collect()
    }

    /// Every active conversation, decoded.  Queue walks are bounded by
    /// the message-pool capacity so a torn region cannot hang us.
    pub fn lnvcs(&self) -> Vec<LnvcInfo> {
        let mut out = Vec::new();
        for idx in 0..self.cfg.max_lnvcs {
            let d = self.t.lnvc(idx);
            if d.active.load(Ordering::Acquire) != 1 {
                continue;
            }
            let reg_idx = d.registry_idx.load(Ordering::Acquire);
            let name = if reg_idx < self.cfg.max_lnvcs {
                let raw = self.t.reg_entry(reg_idx).get_name();
                let end = raw.iter().position(|&b| b == 0).unwrap_or(raw.len());
                String::from_utf8_lossy(&raw[..end]).into_owned()
            } else {
                String::new()
            };
            let (queued, reclaimable) = self.queue_census(d);
            // What waits in the conversation's ring is queued too.
            let queued = queued + self.t.ring(idx).queued().count() as u32;
            out.push(LnvcInfo {
                index: idx,
                name,
                generation: d.generation.load(Ordering::Acquire),
                queued,
                reclaimable,
                n_senders: d.n_senders.load(Ordering::Acquire),
                n_fcfs: d.n_fcfs.load(Ordering::Acquire),
                n_bcast: d.n_bcast.load(Ordering::Acquire),
                next_seq: d.next_seq.load(Ordering::Acquire),
                poisoned: d.poisoned.load(Ordering::Acquire) != 0,
                dead_pid: d.dead_pid.load(Ordering::Acquire),
                tel: self.t.lnvc_tel(idx).snapshot(),
            });
        }
        out
    }

    /// Bounded walk of one queue: (messages linked, of which corpses).
    fn queue_census(&self, d: &LnvcDesc) -> (u32, u32) {
        let mut queued = 0;
        let mut reclaimable = 0;
        let mut cur = d.q_head.load(Ordering::Acquire);
        while cur != NIL && cur < self.cfg.max_messages && queued < self.cfg.max_messages {
            let m = self.t.msg(cur);
            queued += 1;
            reclaimable += u32::from(m.fully_delivered());
            cur = m.next.load(Ordering::Acquire);
        }
        (queued, reclaimable)
    }

    /// Facility-wide counter/histogram snapshot: every process shard plus
    /// every conversation's block.  Lock-free, so it retries while a
    /// conversation's delete is moving counts between the two.
    pub fn telemetry_snapshot(&self) -> TelSnapshot {
        facility_snapshot(
            &self.t.header().tel_fold_seq,
            (0..self.cfg.max_processes).map(|p| self.t.fac_tel(p)),
            (0..self.cfg.max_lnvcs).map(|i| self.t.lnvc_tel(i)),
        )
    }

    /// The telemetry fold sequence word: odd while a delete is retiring a
    /// conversation's counts (or its folder died there).
    pub fn tel_fold_seq(&self) -> u32 {
        self.t.header().tel_fold_seq.load(Ordering::Acquire)
    }

    /// Whether participants are recording causal traces (the creator's
    /// sampling knob, echoed in the header; 0 = off).
    pub fn trace_enabled(&self) -> bool {
        self.cfg.trace_sample_every != 0
    }

    /// Tail of process `pid`'s trace ring, oldest first — the last things
    /// that process did, even if it is now a corpse, and the raw material
    /// `mpf-trace` reconstructs chains from.
    pub fn trace_events(&self, pid: u32) -> Vec<TraceEvent> {
        if pid >= self.cfg.max_processes {
            return Vec::new();
        }
        self.t.trace_ring(pid).snapshot()
    }

    /// Every process slot's trace-ring occupancy.
    pub fn trace_rings(&self) -> Vec<TraceRingInfo> {
        (0..self.cfg.max_processes)
            .map(|p| {
                let r = self.t.trace_ring(p);
                let recorded = r.head();
                TraceRingInfo {
                    pid: p,
                    writer_pid: r.writer_pid(),
                    recorded,
                    overwritten: recorded.saturating_sub(TRACE_RING_SLOTS as u64),
                    sampled_out: r.skipped(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IpcMpf;
    use crate::Protocol;
    use mpf_shm::tracering::{TR_OPEN_RECV, TR_OPEN_SEND, TR_SEND};
    use std::sync::atomic::AtomicU64;

    fn unique_name(tag: &str) -> String {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        format!(
            "inspect-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        )
    }

    fn small_cfg() -> MpfConfig {
        MpfConfig::new(4, 4)
            .with_max_messages(16)
            .with_total_blocks(64)
    }

    #[test]
    fn inspector_sees_live_session_state() {
        if !mpf_shm::sys::HAVE_SYSCALLS {
            return;
        }
        let name = unique_name("live");
        let cfg = small_cfg();
        let mpf = IpcMpf::create(&name, &cfg).unwrap();
        let tx = mpf.open_send("metrics").unwrap();
        let _rx = mpf.open_receive("metrics", Protocol::Fcfs).unwrap();
        mpf.message_send(tx, b"hello-inspector").unwrap();

        let insp = RegionInspector::attach(&name).unwrap();
        assert!(insp.telemetry_enabled());
        assert_eq!(insp.config().max_lnvcs, 4);
        assert_eq!(insp.next_stamp(), 3, "two opens and a send");

        let procs = insp.processes();
        assert_eq!(procs.len(), 4);
        assert_eq!(procs[0].state, "attached");
        assert!(procs[0].alive);
        assert_eq!(procs[0].os_pid, std::process::id());

        let lnvcs = insp.lnvcs();
        assert_eq!(lnvcs.len(), 1);
        assert_eq!(lnvcs[0].name, "metrics");
        assert_eq!(lnvcs[0].queued, 1);
        assert_eq!(lnvcs[0].n_senders, 1);
        assert_eq!(lnvcs[0].n_fcfs, 1);
        assert!(!lnvcs[0].poisoned);
        assert_eq!(lnvcs[0].tel.sends, 1);

        let t = insp.telemetry_snapshot();
        assert_eq!(t.sends, 1);
        assert_eq!(t.bytes_in, 15);
        assert_eq!(t.size_hist.count, 1);

        // Our own trace ring shows the open/send history.
        let kinds: Vec<u32> = insp
            .trace_events(mpf.pid())
            .iter()
            .map(|e| e.kind)
            .collect();
        assert_eq!(kinds, [TR_OPEN_SEND, TR_OPEN_RECV, TR_SEND]);
        assert_eq!(
            insp.trace_rings()[mpf.pid() as usize].writer_pid,
            std::process::id()
        );
        drop(mpf);
    }

    #[test]
    fn inspector_rejects_garbage_region() {
        if !mpf_shm::sys::HAVE_SYSCALLS {
            return;
        }
        assert!(matches!(
            RegionInspector::attach(&unique_name("missing")),
            Err(AttachError::Io(_))
        ));
    }

    #[test]
    fn inspector_surfaces_trace_rings() {
        if !mpf_shm::sys::HAVE_SYSCALLS {
            return;
        }
        let name = unique_name("trace");
        let mpf = IpcMpf::create(&name, &small_cfg()).unwrap();
        let tx = mpf.open_send("traced").unwrap();
        let rx = mpf.open_receive("traced", Protocol::Fcfs).unwrap();
        mpf.message_send(tx, b"follow me").unwrap();
        let mut buf = [0u8; 16];
        mpf.message_receive(rx, &mut buf).unwrap();

        let insp = RegionInspector::attach(&name).unwrap();
        assert!(insp.trace_enabled());
        let rings = insp.trace_rings();
        assert_eq!(rings.len(), 4, "one trace ring per process slot");
        let mine = rings[mpf.pid() as usize];
        assert!(mine.recorded >= 3, "open marker + send + recv at least");
        assert_eq!(mine.overwritten, 0);
        assert_eq!(mine.writer_pid, std::process::id());
        let ev = insp.trace_events(mpf.pid());
        assert_eq!(ev.len() as u64, mine.recorded);
        assert!(ev.iter().any(|e| e.trace != 0), "a traced send survived");
    }

    #[test]
    fn inspector_is_readonly_and_unobtrusive() {
        if !mpf_shm::sys::HAVE_SYSCALLS {
            return;
        }
        let name = unique_name("ro");
        let cfg = small_cfg();
        let mpf = IpcMpf::create(&name, &cfg).unwrap();
        let insp = RegionInspector::attach(&name).unwrap();
        // Attaching the inspector claims no process slot.
        assert_eq!(
            insp.processes()
                .iter()
                .filter(|p| p.state == "attached")
                .count(),
            1
        );
        // The session keeps working with the inspector mapped.
        let tx = mpf.open_send("c").unwrap();
        let rx = mpf.open_receive("c", Protocol::Fcfs).unwrap();
        mpf.message_send(tx, b"x").unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(mpf.message_receive(rx, &mut buf).unwrap(), 1);
        assert_eq!(insp.telemetry_snapshot().receives, 1);
    }
}
