//! LNVC descriptors and the FIFO queue machinery.
//!
//! §3.1: "an LNVC descriptor contains the LNVC name, its internal
//! identifier, the number of queued messages, a FIFO queue implemented as a
//! linked list of messages, a FIFO tail pointer for sending processes, a
//! FIFO head pointer for FCFS receiving processes, a description of all
//! connections to the LNVC, and a synchronization lock for mutual exclusive
//! access to the LNVC descriptor."  (The name itself lives in the
//! [`crate::registry`] table, which owns name→descriptor resolution.)
//!
//! Every operation in this module **requires the descriptor's lock to be
//! held** (methods take `&ShmLockGuard` as a witness where practical; the
//! [`Ctx`] borrow pattern keeps that discipline in one place).

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use mpf_shm::idxstack::NIL;
use mpf_shm::lock::{LockKind, ShmLock};
use mpf_shm::pool::Pool;
use mpf_shm::process::ProcessId;
use mpf_shm::telemetry::now_nanos;
use mpf_shm::tracering::{TraceRing, TR_RECLAIM};
use mpf_shm::waitq::WaitQueue;

use crate::block::{BlockPool, Chain};
use crate::conn::{RecvConn, SendConn};
use crate::message::MsgSlot;
use crate::types::Protocol;

/// One LNVC descriptor slot.
///
/// All fields besides `lock`, `generation` and `active` are protected by
/// `lock`; `generation`/`active` are written under the lock and read
/// optimistically for stale-id detection.
#[derive(Debug)]
pub struct LnvcSlot {
    /// Mutual exclusion for the descriptor (paper Figure 2's lock).
    pub lock: ShmLock,
    /// Bumped each time the slot is recycled; embedded in [`crate::LnvcId`].
    generation: AtomicU32,
    /// Whether the slot currently hosts a live conversation.
    active: AtomicBool,
    /// Oldest queued message (`NIL` if the queue is empty).
    q_head: AtomicU32,
    /// Newest queued message — "a FIFO tail pointer for sending processes".
    q_tail: AtomicU32,
    /// "a FIFO head pointer for FCFS receiving processes" (shared).
    fcfs_head: AtomicU32,
    /// "the number of queued messages".
    msg_count: AtomicU32,
    /// Head of the send-descriptor list.
    send_list: AtomicU32,
    /// Head of the receive-descriptor list.
    recv_list: AtomicU32,
    /// Connected senders.
    n_senders: AtomicU32,
    /// Connected FCFS receivers.
    n_fcfs: AtomicU32,
    /// Connected BROADCAST receivers.
    n_bcast: AtomicU32,
    /// Receivers blocked in `message_receive` wait here.
    pub waitq: WaitQueue,
}

impl Default for LnvcSlot {
    fn default() -> Self {
        Self::new(LockKind::Spin)
    }
}

impl LnvcSlot {
    /// Creates an inactive slot whose lock is of `kind`.
    pub fn new(kind: LockKind) -> Self {
        Self {
            lock: ShmLock::new(kind),
            generation: AtomicU32::new(0),
            active: AtomicBool::new(false),
            q_head: AtomicU32::new(NIL),
            q_tail: AtomicU32::new(NIL),
            fcfs_head: AtomicU32::new(NIL),
            msg_count: AtomicU32::new(0),
            send_list: AtomicU32::new(NIL),
            recv_list: AtomicU32::new(NIL),
            n_senders: AtomicU32::new(0),
            n_fcfs: AtomicU32::new(0),
            n_bcast: AtomicU32::new(0),
            waitq: WaitQueue::new(),
        }
    }

    /// Resets queue state and marks the slot live.  Called (under the
    /// registry lock) when a fresh conversation is created here.
    pub fn activate(&self) {
        self.q_head.store(NIL, Ordering::Relaxed);
        self.q_tail.store(NIL, Ordering::Relaxed);
        self.fcfs_head.store(NIL, Ordering::Relaxed);
        self.msg_count.store(0, Ordering::Relaxed);
        self.send_list.store(NIL, Ordering::Relaxed);
        self.recv_list.store(NIL, Ordering::Relaxed);
        self.n_senders.store(0, Ordering::Relaxed);
        self.n_fcfs.store(0, Ordering::Relaxed);
        self.n_bcast.store(0, Ordering::Relaxed);
        self.active.store(true, Ordering::Release);
    }

    /// Marks the slot dead and bumps the generation so outstanding
    /// [`crate::LnvcId`]s go stale.
    pub fn deactivate(&self) {
        self.active.store(false, Ordering::Relaxed);
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Current generation.
    pub fn generation(&self) -> u32 {
        self.generation.load(Ordering::Acquire)
    }

    /// Whether a conversation lives here.
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Acquire)
    }

    /// Queued message count.
    pub fn msg_count(&self) -> u32 {
        self.msg_count.load(Ordering::Relaxed)
    }

    /// Connected sender count.
    pub fn n_senders(&self) -> u32 {
        self.n_senders.load(Ordering::Relaxed)
    }

    /// Connected FCFS receiver count.
    pub fn n_fcfs(&self) -> u32 {
        self.n_fcfs.load(Ordering::Relaxed)
    }

    /// Connected BROADCAST receiver count.
    pub fn n_bcast(&self) -> u32 {
        self.n_bcast.load(Ordering::Relaxed)
    }

    /// Total live connections; the conversation exists only while > 0
    /// (paper §3.2: "an LNVC [exists] only when there is a connected
    /// sending or receiving process").
    pub fn total_connections(&self) -> u32 {
        self.n_senders() + self.n_fcfs() + self.n_bcast()
    }
}

/// Per-conversation occupancy reported by [`Ctx::audit`]; the facility
/// sums these across live LNVCs against pool allocation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LnvcAudit {
    /// Messages queued.
    pub messages: u32,
    /// Blocks held by queued messages.
    pub blocks: u64,
    /// Send connections linked.
    pub senders: u32,
    /// Receive connections linked (both protocols).
    pub receivers: u32,
}

/// Borrow bundle: an LNVC plus the region pools its queue lives in.
/// Constructed by the facility *after* acquiring `lnvc.lock`.
pub struct Ctx<'a> {
    /// The locked descriptor.
    pub lnvc: &'a LnvcSlot,
    /// Message header pool.
    pub msgs: &'a Pool<MsgSlot>,
    /// Block pool (payload storage).
    pub blocks: &'a BlockPool,
    /// Send-descriptor pool.
    pub sends: &'a Pool<SendConn>,
    /// Receive-descriptor pool.
    pub recvs: &'a Pool<RecvConn>,
    /// Causal trace ring of the process driving this operation, when the
    /// caller knows it (reclaims of traced messages are recorded here).
    pub tring: Option<&'a TraceRing>,
    /// Facility-global send stamp counter.  Global — not per-LNVC — so a
    /// stamp identifies one message region-wide, the identity causal
    /// tracing and the conformance checker key on (the IPC backend's
    /// `next_stamp` header field has the same contract).
    pub stamps: &'a AtomicU64,
}

impl<'a> Ctx<'a> {
    /// Records the reclamation of a traced message, if a ring is attached.
    /// Called at every site that frees a message header back to the pool.
    #[inline]
    fn note_reclaim(&self, m: &MsgSlot, msg_idx: u32) {
        if let Some(ring) = self.tring {
            let trace = m.trace();
            if trace != 0 {
                ring.record_at(
                    now_nanos(),
                    trace,
                    m.stamp(),
                    TR_RECLAIM,
                    m.hop(),
                    u32::MAX,
                    msg_idx,
                    0,
                );
            }
        }
    }
    /// Finds `pid`'s send descriptor.
    pub fn find_send(&self, pid: ProcessId) -> Option<u32> {
        let mut idx = self.lnvc.send_list.load(Ordering::Relaxed);
        while idx != NIL {
            let c = self.sends.get(idx);
            if c.pid_raw() == pid.raw() {
                return Some(idx);
            }
            idx = c.next();
        }
        None
    }

    /// Finds `pid`'s receive descriptor.
    pub fn find_recv(&self, pid: ProcessId) -> Option<u32> {
        let mut idx = self.lnvc.recv_list.load(Ordering::Relaxed);
        while idx != NIL {
            let c = self.recvs.get(idx);
            if c.pid_raw() == pid.raw() {
                return Some(idx);
            }
            idx = c.next();
        }
        None
    }

    /// Links an already-reset send descriptor at the list head.
    pub fn link_send(&self, conn_idx: u32) {
        let head = self.lnvc.send_list.load(Ordering::Relaxed);
        self.sends.get(conn_idx).set_next(head);
        self.lnvc.send_list.store(conn_idx, Ordering::Relaxed);
        self.lnvc.n_senders.fetch_add(1, Ordering::Relaxed);
    }

    /// Links an already-reset receive descriptor at the list head.
    pub fn link_recv(&self, conn_idx: u32, protocol: Protocol) {
        let head = self.lnvc.recv_list.load(Ordering::Relaxed);
        self.recvs.get(conn_idx).set_next(head);
        self.lnvc.recv_list.store(conn_idx, Ordering::Relaxed);
        match protocol {
            Protocol::Fcfs => self.lnvc.n_fcfs.fetch_add(1, Ordering::Relaxed),
            Protocol::Broadcast => self.lnvc.n_bcast.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Unlinks `pid`'s send descriptor, returning its index for freeing.
    pub fn unlink_send(&self, pid: ProcessId) -> Option<u32> {
        let mut prev = NIL;
        let mut idx = self.lnvc.send_list.load(Ordering::Relaxed);
        while idx != NIL {
            let c = self.sends.get(idx);
            if c.pid_raw() == pid.raw() {
                let next = c.next();
                if prev == NIL {
                    self.lnvc.send_list.store(next, Ordering::Relaxed);
                } else {
                    self.sends.get(prev).set_next(next);
                }
                self.lnvc.n_senders.fetch_sub(1, Ordering::Relaxed);
                return Some(idx);
            }
            prev = idx;
            idx = c.next();
        }
        None
    }

    /// Unlinks `pid`'s receive descriptor, returning `(index, protocol,
    /// head)` for the close sweep and freeing.
    pub fn unlink_recv(&self, pid: ProcessId) -> Option<(u32, Protocol, u32)> {
        let mut prev = NIL;
        let mut idx = self.lnvc.recv_list.load(Ordering::Relaxed);
        while idx != NIL {
            let c = self.recvs.get(idx);
            if c.pid_raw() == pid.raw() {
                let next = c.next();
                if prev == NIL {
                    self.lnvc.recv_list.store(next, Ordering::Relaxed);
                } else {
                    self.recvs.get(prev).set_next(next);
                }
                let protocol = c.protocol();
                match protocol {
                    Protocol::Fcfs => self.lnvc.n_fcfs.fetch_sub(1, Ordering::Relaxed),
                    Protocol::Broadcast => self.lnvc.n_bcast.fetch_sub(1, Ordering::Relaxed),
                };
                return Some((idx, protocol, c.head()));
            }
            prev = idx;
            idx = c.next();
        }
        None
    }

    /// Appends message `msg_idx` (an initialized header whose chain is
    /// already populated) at the FIFO tail, pointing every caught-up
    /// broadcast receiver at it.  Returns the message's stamp.
    pub fn enqueue(&self, msg_idx: u32, payload_len: usize, chain: Chain) -> u64 {
        let lnvc = self.lnvc;
        let stamp = self.stamps.fetch_add(1, Ordering::Relaxed);
        let n_bcast = lnvc.n_bcast();
        // A message owes an FCFS delivery if FCFS receivers are connected,
        // or if nobody is listening yet (it waits for a future receiver —
        // the paper's §3.2 "messages could be lost" discussion concerns
        // deletion, not sends ahead of receivers).
        let needs_fcfs = lnvc.n_fcfs() > 0 || n_bcast == 0;
        self.msgs.get(msg_idx).reset(
            payload_len,
            chain.head,
            chain.blocks,
            n_bcast,
            needs_fcfs,
            stamp,
        );

        let tail = lnvc.q_tail.load(Ordering::Relaxed);
        if tail == NIL {
            lnvc.q_head.store(msg_idx, Ordering::Relaxed);
        } else {
            self.msgs.get(tail).set_next(msg_idx);
        }
        lnvc.q_tail.store(msg_idx, Ordering::Relaxed);
        lnvc.msg_count.fetch_add(1, Ordering::Relaxed);
        if lnvc.fcfs_head.load(Ordering::Relaxed) == NIL {
            lnvc.fcfs_head.store(msg_idx, Ordering::Relaxed);
        }

        // Broadcast receivers that had read everything ("at tail", head ==
        // NIL) now have this message as their next unread.
        if n_bcast > 0 {
            let mut idx = lnvc.recv_list.load(Ordering::Relaxed);
            while idx != NIL {
                let c = self.recvs.get(idx);
                if c.protocol() == Protocol::Broadcast && c.head() == NIL {
                    c.set_head(msg_idx);
                }
                idx = c.next();
            }
        }
        stamp
    }

    /// Finds the next message owed an FCFS delivery, advancing the shared
    /// FCFS head past satisfied messages as a side effect.
    pub fn fcfs_peek(&self) -> Option<u32> {
        let lnvc = self.lnvc;
        let mut idx = lnvc.fcfs_head.load(Ordering::Relaxed);
        // Skip messages with no outstanding FCFS obligation.
        while idx != NIL {
            let m = self.msgs.get(idx);
            if m.needs_fcfs() && !m.fcfs_taken() {
                break;
            }
            idx = m.next();
        }
        lnvc.fcfs_head.store(idx, Ordering::Relaxed);
        (idx != NIL).then_some(idx)
    }

    /// Frees the longest fully-consumed, unpinned prefix of the FIFO.
    /// Returns the number of messages reclaimed (callers use it to decide
    /// whether to wake block-starved senders).
    pub fn reclaim_prefix(&self) -> u32 {
        let lnvc = self.lnvc;
        let mut freed = 0;
        loop {
            let head = lnvc.q_head.load(Ordering::Relaxed);
            if head == NIL {
                break;
            }
            let m = self.msgs.get(head);
            if !m.fully_consumed() || m.is_pinned() {
                break;
            }
            let next = m.next();
            lnvc.q_head.store(next, Ordering::Relaxed);
            if lnvc.q_tail.load(Ordering::Relaxed) == head {
                lnvc.q_tail.store(NIL, Ordering::Relaxed);
            }
            if lnvc.fcfs_head.load(Ordering::Relaxed) == head {
                lnvc.fcfs_head.store(next, Ordering::Relaxed);
            }
            self.note_reclaim(m, head);
            self.blocks.free_chain(Chain {
                head: m.head_block(),
                blocks: m.blocks(),
            });
            self.msgs.free(head);
            lnvc.msg_count.fetch_sub(1, Ordering::Relaxed);
            freed += 1;
        }
        freed
    }

    /// Drops the FCFS obligation of every queued message still waiting for
    /// one.  Called when the connection set can no longer produce an FCFS
    /// delivery for backlog: the last FCFS receiver closed while broadcast
    /// receivers remain, or the first receiver ever to join is BROADCAST
    /// (late joiners never see the backlog, so nobody will take it).
    /// Returns the number of obligations cleared.
    pub fn clear_fcfs_obligations(&self) -> u32 {
        let mut cleared = 0;
        let mut idx = self.lnvc.q_head.load(Ordering::Relaxed);
        while idx != NIL {
            let m = self.msgs.get(idx);
            if m.needs_fcfs() && !m.fcfs_taken() {
                m.clear_needs_fcfs();
                cleared += 1;
            }
            idx = m.next();
        }
        // Nothing ahead of the (possibly stale) FCFS cursor is owed now.
        self.lnvc.fcfs_head.store(NIL, Ordering::Relaxed);
        cleared
    }

    /// Frees every fully-consumed, unpinned message anywhere in the FIFO —
    /// not just the prefix.  `reclaim_prefix` is the O(1)-amortized hot
    /// path; this full walk is the slow path for close-time sweeps and
    /// block-starved senders, where an interior message (e.g. one whose
    /// obligation was just cleared behind a still-claimed head) would
    /// otherwise stay pinned behind the prefix rule.  Safe under the LNVC
    /// lock: a fully-consumed message has `bcast_pending == 0`, so no live
    /// broadcast receiver's head can point at it, and the shared FCFS head
    /// is advanced past it when they coincide.  Returns messages reclaimed.
    pub fn reclaim_consumed(&self) -> u32 {
        let lnvc = self.lnvc;
        let mut freed = 0;
        let mut prev = NIL;
        let mut idx = lnvc.q_head.load(Ordering::Relaxed);
        while idx != NIL {
            let m = self.msgs.get(idx);
            let next = m.next();
            if m.fully_consumed() && !m.is_pinned() {
                if prev == NIL {
                    lnvc.q_head.store(next, Ordering::Relaxed);
                } else {
                    self.msgs.get(prev).set_next(next);
                }
                if lnvc.q_tail.load(Ordering::Relaxed) == idx {
                    lnvc.q_tail.store(prev, Ordering::Relaxed);
                }
                if lnvc.fcfs_head.load(Ordering::Relaxed) == idx {
                    lnvc.fcfs_head.store(next, Ordering::Relaxed);
                }
                self.note_reclaim(m, idx);
                self.blocks.free_chain(Chain {
                    head: m.head_block(),
                    blocks: m.blocks(),
                });
                self.msgs.free(idx);
                lnvc.msg_count.fetch_sub(1, Ordering::Relaxed);
                freed += 1;
            } else {
                prev = idx;
            }
            idx = next;
        }
        freed
    }

    /// The paper's "particularly vexing problem" (§3.2): a broadcast
    /// receiver closes with unread messages.  Walks from the receiver's
    /// head to the tail, releasing its claim on each message, then reclaims
    /// whatever became fully consumed.  Returns messages reclaimed.
    pub fn release_bcast_claims(&self, from: u32) -> u32 {
        let mut idx = from;
        while idx != NIL {
            let m = self.msgs.get(idx);
            m.dec_bcast_pending();
            idx = m.next();
        }
        self.reclaim_prefix()
    }

    /// Discards the whole FIFO (LNVC deletion: "the LNVC is deleted and
    /// all unread messages are discarded").  Returns messages freed.
    pub fn discard_all_messages(&self) -> u32 {
        let lnvc = self.lnvc;
        let mut freed = 0;
        let mut idx = lnvc.q_head.load(Ordering::Relaxed);
        while idx != NIL {
            let m = self.msgs.get(idx);
            debug_assert!(!m.is_pinned(), "deleting an LNVC with a copy in progress");
            let next = m.next();
            self.note_reclaim(m, idx);
            self.blocks.free_chain(Chain {
                head: m.head_block(),
                blocks: m.blocks(),
            });
            self.msgs.free(idx);
            freed += 1;
            idx = next;
        }
        lnvc.q_head.store(NIL, Ordering::Relaxed);
        lnvc.q_tail.store(NIL, Ordering::Relaxed);
        lnvc.fcfs_head.store(NIL, Ordering::Relaxed);
        lnvc.msg_count.store(0, Ordering::Relaxed);
        freed
    }

    /// Audits this conversation's structural invariants (lock held).
    /// Returns per-LNVC occupancy for the facility's global conservation
    /// check, or a description of the first violation found.
    pub fn audit(&self) -> std::result::Result<LnvcAudit, String> {
        let lnvc = self.lnvc;

        // Connection lists vs. counters.
        let mut senders = 0u32;
        let mut idx = lnvc.send_list.load(Ordering::Relaxed);
        while idx != NIL {
            senders += 1;
            if senders > self.sends.capacity() {
                return Err("send list is cyclic".into());
            }
            idx = self.sends.get(idx).next();
        }
        if senders != lnvc.n_senders() {
            return Err(format!(
                "n_senders {} but send list holds {senders}",
                lnvc.n_senders()
            ));
        }
        let mut fcfs = 0u32;
        let mut bcast_heads = Vec::new();
        let mut idx = lnvc.recv_list.load(Ordering::Relaxed);
        while idx != NIL {
            if fcfs as usize + bcast_heads.len() >= self.recvs.capacity() as usize {
                return Err("receive list is cyclic".into());
            }
            let c = self.recvs.get(idx);
            match c.protocol() {
                Protocol::Fcfs => fcfs += 1,
                Protocol::Broadcast => bcast_heads.push(c.head()),
            }
            idx = c.next();
        }
        if fcfs != lnvc.n_fcfs() || bcast_heads.len() as u32 != lnvc.n_bcast() {
            return Err(format!(
                "counters say {} FCFS / {} BROADCAST but list holds {fcfs} / {}",
                lnvc.n_fcfs(),
                lnvc.n_bcast(),
                bcast_heads.len()
            ));
        }

        // Full queue walk: position map, stamps, block totals.
        let mut pos_of = std::collections::HashMap::new();
        let mut queue = Vec::new();
        let mut blocks = 0u64;
        let mut last_stamp = None;
        let mut idx = lnvc.q_head.load(Ordering::Relaxed);
        while idx != NIL {
            if pos_of.insert(idx, queue.len()).is_some() {
                return Err(format!("FIFO is cyclic at message {idx}"));
            }
            let m = self.msgs.get(idx);
            queue.push(idx);
            blocks += m.blocks() as u64;
            if let Some(prev) = last_stamp {
                if m.stamp() <= prev {
                    return Err(format!(
                        "stamps not increasing: {} then {} at message {idx}",
                        prev,
                        m.stamp()
                    ));
                }
            }
            last_stamp = Some(m.stamp());
            idx = m.next();
        }
        if queue.len() as u32 != lnvc.msg_count() {
            return Err(format!(
                "msg_count {} but FIFO holds {}",
                lnvc.msg_count(),
                queue.len()
            ));
        }
        let tail = lnvc.q_tail.load(Ordering::Relaxed);
        if tail != queue.last().copied().unwrap_or(NIL) {
            return Err(format!("q_tail {tail} is not the last queued message"));
        }
        for &h in &bcast_heads {
            if h != NIL && !pos_of.contains_key(&h) {
                return Err(format!("a broadcast cursor points at unqueued message {h}"));
            }
        }
        let fcfs_head = lnvc.fcfs_head.load(Ordering::Relaxed);
        if fcfs_head != NIL && !pos_of.contains_key(&fcfs_head) {
            return Err(format!("fcfs_head points at unqueued message {fcfs_head}"));
        }

        // Per-message delivery bookkeeping.
        for (pos, &mi) in queue.iter().enumerate() {
            let m = self.msgs.get(mi);
            let claims = bcast_heads
                .iter()
                .filter(|&&h| h != NIL && pos_of[&h] <= pos)
                .count() as u32;
            if m.bcast_pending() != claims {
                return Err(format!(
                    "message {mi} (stamp {}) has bcast_pending {} but {claims} \
                     broadcast cursors have not passed it",
                    m.stamp(),
                    m.bcast_pending()
                ));
            }
            if m.needs_fcfs() && !m.fcfs_taken() {
                // The obligation-leak class of bug: an owed FCFS delivery
                // that the current connection set can never produce.
                if lnvc.n_fcfs() == 0 && lnvc.n_bcast() > 0 {
                    return Err(format!(
                        "message {mi} (stamp {}) awaits an FCFS delivery but no FCFS \
                         receiver is connected and broadcast receivers keep the LNVC alive",
                        m.stamp()
                    ));
                }
                if fcfs_head == NIL || pos_of[&fcfs_head] > pos {
                    return Err(format!(
                        "fcfs_head skipped owed message {mi} (stamp {})",
                        m.stamp()
                    ));
                }
            }
        }
        if let Some(&head) = queue.first() {
            let m = self.msgs.get(head);
            if m.fully_consumed() && !m.is_pinned() {
                return Err(format!(
                    "FIFO head {head} (stamp {}) is fully consumed and unpinned \
                     but was not reclaimed",
                    m.stamp()
                ));
            }
        }

        Ok(LnvcAudit {
            messages: queue.len() as u32,
            blocks,
            senders,
            receivers: fcfs + bcast_heads.len() as u32,
        })
    }

    /// Counts queued messages (and their blocks) that are fully consumed
    /// and unpinned — corpses a sweep would free — without freeing them.
    /// This is the `reclaimable()` metric: flow control can distinguish
    /// "pool full of live messages" from "pool full of corpses awaiting
    /// sweep".
    pub fn count_reclaimable(&self) -> (u32, u64) {
        let mut messages = 0u32;
        let mut blocks = 0u64;
        let mut idx = self.lnvc.q_head.load(Ordering::Relaxed);
        while idx != NIL {
            let m = self.msgs.get(idx);
            if m.fully_consumed() && !m.is_pinned() {
                messages += 1;
                blocks += m.blocks() as u64;
            }
            idx = m.next();
        }
        (messages, blocks)
    }

    /// Walks the queue collecting stamps (test/diagnostic helper).
    pub fn queue_stamps(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let mut idx = self.lnvc.q_head.load(Ordering::Relaxed);
        while idx != NIL {
            let m = self.msgs.get(idx);
            out.push(m.stamp());
            idx = m.next();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixture {
        lnvc: LnvcSlot,
        msgs: Pool<MsgSlot>,
        blocks: BlockPool,
        sends: Pool<SendConn>,
        recvs: Pool<RecvConn>,
        stamps: AtomicU64,
    }

    impl Fixture {
        fn new() -> Self {
            let f = Self {
                lnvc: LnvcSlot::new(LockKind::Spin),
                msgs: Pool::new(32),
                blocks: BlockPool::new(128, 10),
                sends: Pool::new(8),
                recvs: Pool::new(8),
                stamps: AtomicU64::new(0),
            };
            f.lnvc.activate();
            f
        }

        fn ctx(&self) -> Ctx<'_> {
            Ctx {
                lnvc: &self.lnvc,
                msgs: &self.msgs,
                blocks: &self.blocks,
                sends: &self.sends,
                recvs: &self.recvs,
                tring: None,
                stamps: &self.stamps,
            }
        }

        fn send(&self, payload: &[u8]) -> u32 {
            let ctx = self.ctx();
            let chain = self.blocks.alloc_chain(payload).unwrap();
            let idx = self.msgs.alloc().unwrap();
            ctx.enqueue(idx, payload.len(), chain);
            idx
        }

        fn add_recv(&self, pid: u32, protocol: Protocol) -> u32 {
            let idx = self.recvs.alloc().unwrap();
            self.recvs.get(idx).reset(pid, protocol, NIL);
            self.ctx().link_recv(idx, protocol);
            idx
        }

        fn add_send(&self, pid: u32) -> u32 {
            let idx = self.sends.alloc().unwrap();
            self.sends.get(idx).reset(pid, NIL);
            self.ctx().link_send(idx);
            idx
        }
    }

    fn pid(raw: u32) -> ProcessId {
        ProcessId::new(raw).unwrap()
    }

    #[test]
    fn activate_resets_queue_state() {
        let f = Fixture::new();
        f.send(b"abc");
        f.lnvc.deactivate();
        let gen_before = f.lnvc.generation();
        f.lnvc.activate();
        assert_eq!(f.lnvc.msg_count(), 0);
        assert_eq!(f.lnvc.generation(), gen_before);
        assert!(f.lnvc.is_active());
    }

    #[test]
    fn deactivate_bumps_generation() {
        let f = Fixture::new();
        let g = f.lnvc.generation();
        f.lnvc.deactivate();
        assert_eq!(f.lnvc.generation(), g + 1);
        assert!(!f.lnvc.is_active());
    }

    #[test]
    fn enqueue_stamps_are_fifo() {
        let f = Fixture::new();
        f.add_recv(1, Protocol::Fcfs);
        for _ in 0..5 {
            f.send(b"m");
        }
        assert_eq!(f.ctx().queue_stamps(), vec![0, 1, 2, 3, 4]);
        assert_eq!(f.lnvc.msg_count(), 5);
    }

    #[test]
    fn fcfs_peek_skips_taken() {
        let f = Fixture::new();
        f.add_recv(1, Protocol::Fcfs);
        let a = f.send(b"a");
        let b = f.send(b"b");
        let ctx = f.ctx();
        assert_eq!(ctx.fcfs_peek(), Some(a));
        f.msgs.get(a).set_fcfs_taken();
        assert_eq!(ctx.fcfs_peek(), Some(b));
        f.msgs.get(b).set_fcfs_taken();
        assert_eq!(ctx.fcfs_peek(), None);
    }

    #[test]
    fn messages_without_receivers_wait_for_fcfs() {
        // Sent before anyone listens: owed to a future FCFS receiver.
        let f = Fixture::new();
        f.add_send(9);
        let a = f.send(b"early");
        assert!(f.msgs.get(a).needs_fcfs());
        assert_eq!(f.msgs.get(a).bcast_pending(), 0);
        assert_eq!(f.ctx().reclaim_prefix(), 0, "must not be reclaimed");
    }

    #[test]
    fn bcast_only_message_reclaims_after_all_reads() {
        let f = Fixture::new();
        f.add_recv(1, Protocol::Broadcast);
        f.add_recv(2, Protocol::Broadcast);
        let a = f.send(b"hello");
        let m = f.msgs.get(a);
        assert!(!m.needs_fcfs(), "pure broadcast LNVC owes no FCFS delivery");
        assert_eq!(m.bcast_pending(), 2);
        m.dec_bcast_pending();
        assert_eq!(f.ctx().reclaim_prefix(), 0);
        m.dec_bcast_pending();
        assert_eq!(f.ctx().reclaim_prefix(), 1);
        assert_eq!(f.lnvc.msg_count(), 0);
        assert_eq!(f.blocks.available(), 128);
    }

    #[test]
    fn late_broadcast_receiver_starts_at_tail() {
        let f = Fixture::new();
        f.add_recv(1, Protocol::Broadcast);
        f.send(b"before");
        let late = f.add_recv(2, Protocol::Broadcast);
        assert_eq!(
            f.recvs.get(late).head(),
            NIL,
            "late joiner sees nothing yet"
        );
        let b = f.send(b"after");
        assert_eq!(f.recvs.get(late).head(), b, "next send becomes its head");
    }

    #[test]
    fn mixed_lnvc_message_owes_both() {
        let f = Fixture::new();
        f.add_recv(1, Protocol::Fcfs);
        f.add_recv(2, Protocol::Broadcast);
        let a = f.send(b"x");
        let m = f.msgs.get(a);
        assert!(m.needs_fcfs());
        assert_eq!(m.bcast_pending(), 1);
        m.set_fcfs_taken();
        assert_eq!(f.ctx().reclaim_prefix(), 0, "broadcast read still owed");
        m.dec_bcast_pending();
        assert_eq!(f.ctx().reclaim_prefix(), 1);
    }

    #[test]
    fn reclaim_stops_at_pinned_message() {
        let f = Fixture::new();
        f.add_recv(1, Protocol::Broadcast);
        let a = f.send(b"a");
        let b = f.send(b"b");
        let ma = f.msgs.get(a);
        let mb = f.msgs.get(b);
        ma.begin_copy();
        ma.dec_bcast_pending();
        mb.dec_bcast_pending();
        assert_eq!(f.ctx().reclaim_prefix(), 0, "pinned head blocks reclaim");
        ma.end_copy();
        assert_eq!(f.ctx().reclaim_prefix(), 2);
    }

    #[test]
    fn release_bcast_claims_sweeps_unread_tail() {
        // The paper's close_receive "vexing problem": receiver 2 read one
        // of three messages, then closes.
        let f = Fixture::new();
        f.add_recv(1, Protocol::Broadcast);
        let r2 = f.add_recv(2, Protocol::Broadcast);
        let a = f.send(b"a");
        let b = f.send(b"b");
        f.send(b"c");
        // Receiver 2 consumes message a.
        f.msgs.get(a).dec_bcast_pending();
        f.recvs.get(r2).set_head(b);
        // Receiver 1 consumed everything.
        for &m in &f.ctx().collect_queue() {
            f.msgs.get(m).dec_bcast_pending();
        }
        // Receiver 2 closes: releases claims on b and c; all three messages
        // become reclaimable.
        let reclaimed = f.ctx().release_bcast_claims(b);
        assert_eq!(reclaimed, 3);
        assert_eq!(f.lnvc.msg_count(), 0);
        assert_eq!(f.blocks.available(), 128);
        assert_eq!(f.msgs.in_use(), 0);
    }

    #[test]
    fn clear_fcfs_obligations_makes_backlog_reclaimable() {
        // Messages sent with no receivers connected are owed to a future
        // FCFS receiver; if the conversation turns out broadcast-only the
        // obligation must be droppable.
        let f = Fixture::new();
        f.add_send(9);
        f.send(b"a");
        f.send(b"b");
        let ctx = f.ctx();
        assert_eq!(ctx.reclaim_prefix(), 0, "obligation pins the backlog");
        assert_eq!(ctx.clear_fcfs_obligations(), 2);
        assert_eq!(ctx.reclaim_prefix(), 2);
        assert_eq!(f.msgs.in_use(), 0);
        assert_eq!(f.blocks.available(), 128);
    }

    #[test]
    fn clear_fcfs_obligations_skips_taken() {
        let f = Fixture::new();
        f.add_recv(1, Protocol::Fcfs);
        let a = f.send(b"a");
        f.send(b"b");
        f.msgs.get(a).set_fcfs_taken();
        assert_eq!(f.ctx().clear_fcfs_obligations(), 1);
    }

    #[test]
    fn reclaim_consumed_frees_interior_message() {
        // Head is still claimed by a broadcast receiver; an interior
        // message behind it is fully consumed.  The prefix reclaimer cannot
        // touch it; the full-queue walk must.
        let f = Fixture::new();
        f.add_recv(1, Protocol::Broadcast);
        let a = f.send(b"a");
        let b = f.send(b"b");
        let c = f.send(b"c");
        f.msgs.get(b).dec_bcast_pending();
        let ctx = f.ctx();
        assert_eq!(ctx.reclaim_prefix(), 0);
        assert_eq!(ctx.reclaim_consumed(), 1);
        assert_eq!(ctx.collect_queue(), vec![a, c], "b unlinked from interior");
        assert_eq!(f.lnvc.msg_count(), 2);
    }

    #[test]
    fn reclaim_consumed_fixes_tail_and_fcfs_head() {
        let f = Fixture::new();
        f.add_recv(1, Protocol::Broadcast);
        let a = f.send(b"a");
        let b = f.send(b"b");
        // Consume the tail only.
        f.msgs.get(b).dec_bcast_pending();
        let ctx = f.ctx();
        assert_eq!(ctx.reclaim_consumed(), 1);
        assert_eq!(f.lnvc.q_tail.load(Ordering::Relaxed), a, "tail relinked");
        // New sends must append after `a`, not after the freed slot.
        let c = f.send(b"c");
        assert_eq!(ctx.collect_queue(), vec![a, c]);
        // Consume everything; the full walk empties the queue.
        f.msgs.get(a).dec_bcast_pending();
        f.msgs.get(c).dec_bcast_pending();
        assert_eq!(ctx.reclaim_consumed(), 2);
        assert_eq!(f.lnvc.q_head.load(Ordering::Relaxed), NIL);
        assert_eq!(f.lnvc.q_tail.load(Ordering::Relaxed), NIL);
        assert_eq!(f.blocks.available(), 128);
    }

    #[test]
    fn count_reclaimable_sees_interior_corpse() {
        // Same shape as reclaim_consumed_frees_interior_message: the
        // metric must report the corpse without freeing it.
        let f = Fixture::new();
        f.add_recv(1, Protocol::Broadcast);
        let a = f.send(b"a");
        let b = f.send(b"b");
        let c = f.send(b"c");
        f.msgs.get(b).dec_bcast_pending();
        let ctx = f.ctx();
        let (msgs, blocks) = ctx.count_reclaimable();
        assert_eq!(msgs, 1, "only b is a corpse");
        assert_eq!(blocks, f.msgs.get(b).blocks() as u64);
        assert_eq!(ctx.collect_queue(), vec![a, b, c], "counting freed nothing");
        assert_eq!(ctx.reclaim_consumed(), 1);
        assert_eq!(ctx.count_reclaimable(), (0, 0));
    }

    #[test]
    fn reclaim_consumed_skips_pinned() {
        let f = Fixture::new();
        f.add_recv(1, Protocol::Broadcast);
        let a = f.send(b"a");
        let m = f.msgs.get(a);
        m.dec_bcast_pending();
        m.begin_copy();
        assert_eq!(f.ctx().reclaim_consumed(), 0, "pinned message stays");
        m.end_copy();
        assert_eq!(f.ctx().reclaim_consumed(), 1);
    }

    #[test]
    fn discard_all_frees_everything() {
        let f = Fixture::new();
        f.add_send(5);
        for _ in 0..6 {
            f.send(&[9u8; 25]);
        }
        assert!(f.blocks.available() < 128);
        let freed = f.ctx().discard_all_messages();
        assert_eq!(freed, 6);
        assert_eq!(f.blocks.available(), 128);
        assert_eq!(f.msgs.in_use(), 0);
        assert_eq!(f.lnvc.msg_count(), 0);
    }

    #[test]
    fn conn_link_find_unlink() {
        let f = Fixture::new();
        f.add_send(3);
        f.add_send(4);
        f.add_recv(5, Protocol::Fcfs);
        let ctx = f.ctx();
        assert!(ctx.find_send(pid(3)).is_some());
        assert!(ctx.find_send(pid(4)).is_some());
        assert!(ctx.find_send(pid(5)).is_none());
        assert!(ctx.find_recv(pid(5)).is_some());
        assert_eq!(f.lnvc.n_senders(), 2);
        let idx = ctx.unlink_send(pid(3)).unwrap();
        f.sends.free(idx);
        assert!(ctx.find_send(pid(3)).is_none());
        assert_eq!(f.lnvc.n_senders(), 1);
        let (idx, protocol, head) = ctx.unlink_recv(pid(5)).unwrap();
        assert_eq!(protocol, Protocol::Fcfs);
        assert_eq!(head, NIL);
        f.recvs.free(idx);
        assert_eq!(f.lnvc.total_connections(), 1);
    }

    #[test]
    fn unlink_missing_returns_none() {
        let f = Fixture::new();
        let ctx = f.ctx();
        assert!(ctx.unlink_send(pid(42)).is_none());
        assert!(ctx.unlink_recv(pid(42)).is_none());
    }

    impl Ctx<'_> {
        fn collect_queue(&self) -> Vec<u32> {
            let mut out = Vec::new();
            let mut idx = self.lnvc.q_head.load(Ordering::Relaxed);
            while idx != NIL {
                out.push(idx);
                idx = self.msgs.get(idx).next();
            }
            out
        }
    }
}
