//! Functional model of LNVC queues for the simulator.
//!
//! The simulator needs just enough delivery bookkeeping to decide *who*
//! gets *which* message *when* — the timing comes from the engine's cost
//! model.  The full protocol implementation (and its tests) live in
//! `mpf-core`; this model mirrors its delivery semantics for the
//! homogeneous LNVCs the paper's benchmarks use.

use std::collections::VecDeque;

/// A queued message.
#[derive(Debug, Clone)]
struct SimMsg {
    seq: u64,
    len: usize,
    /// FCFS: not yet taken.  Broadcast: receivers still owed.
    fcfs_taken: bool,
    bcast_pending: u32,
}

/// One simulated conversation.
#[derive(Debug)]
pub struct SimLnvc {
    /// Engine lock id guarding this LNVC.
    pub lock: usize,
    queue: VecDeque<SimMsg>,
    next_seq: u64,
    /// Broadcast receiver cursors: next sequence number each will read.
    cursors: Vec<u64>,
    /// Simulated processors blocked waiting for a message here.
    pub waiters: Vec<usize>,
    queued_bytes: u64,
    /// Bytes reclaimed since the last [`SimLnvc::drain_reclaimed`] (the
    /// engine charges reclamation in the second lock phase).
    reclaimed_accum: u64,
}

impl SimLnvc {
    /// New conversation guarded by engine lock `lock`.
    pub fn new(lock: usize) -> Self {
        Self {
            lock,
            queue: VecDeque::new(),
            next_seq: 0,
            cursors: Vec::new(),
            waiters: Vec::new(),
            queued_bytes: 0,
            reclaimed_accum: 0,
        }
    }

    /// Registers a broadcast receiver; returns its cursor index.  The
    /// receiver starts at the tail (sees only later messages), as in
    /// `mpf-core`.
    pub fn add_broadcast_receiver(&mut self) -> usize {
        self.cursors.push(self.next_seq);
        self.cursors.len() - 1
    }

    /// Number of registered broadcast receivers.
    pub fn broadcast_receivers(&self) -> usize {
        self.cursors.len()
    }

    /// Appends a message; returns its sequence number.
    pub fn send(&mut self, len: usize) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push_back(SimMsg {
            seq,
            len,
            fcfs_taken: false,
            bcast_pending: self.cursors.len() as u32,
        });
        self.queued_bytes += len as u64;
        seq
    }

    /// FCFS receive: takes the oldest untaken message.  Returns its length.
    pub fn recv_fcfs(&mut self) -> Option<usize> {
        let msg = self.queue.iter_mut().find(|m| !m.fcfs_taken)?;
        msg.fcfs_taken = true;
        let len = msg.len;
        self.reclaim(true);
        Some(len)
    }

    /// Broadcast receive for cursor `rcv`.  Returns the message length.
    pub fn recv_broadcast(&mut self, rcv: usize) -> Option<usize> {
        let cursor = self.cursors[rcv];
        let msg = self.queue.iter_mut().find(|m| m.seq == cursor)?;
        msg.bcast_pending = msg.bcast_pending.saturating_sub(1);
        let len = msg.len;
        self.cursors[rcv] = cursor + 1;
        self.reclaim(false);
        Some(len)
    }

    /// Drops the fully consumed prefix; returns bytes reclaimed.
    /// `fcfs_mode` selects which disposition ends a message's life (the
    /// paper's benchmarks never mix protocols on one LNVC).
    fn reclaim(&mut self, fcfs_mode: bool) -> u64 {
        let mut freed = 0;
        while let Some(front) = self.queue.front() {
            let consumed = if fcfs_mode {
                front.fcfs_taken
            } else {
                front.bcast_pending == 0
            };
            if !consumed {
                break;
            }
            freed += front.len as u64;
            self.queue.pop_front();
        }
        self.queued_bytes -= freed;
        self.reclaimed_accum += freed;
        freed
    }

    /// Bytes reclaimed since the last drain (consumed by the engine's
    /// reclaim phase to update the paging model).
    pub fn drain_reclaimed(&mut self) -> u64 {
        std::mem::take(&mut self.reclaimed_accum)
    }

    /// Peek at the undrained reclaimed bytes (the engine prices the
    /// reclaim critical section by whether it has work to do).
    pub fn pending_reclaimed(&self) -> u64 {
        self.reclaimed_accum
    }

    /// Queued (unreclaimed) bytes.
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// Queued message count.
    pub fn queued_messages(&self) -> usize {
        self.queue.len()
    }

    /// Whether an FCFS receive would find a message.
    pub fn has_fcfs_message(&self) -> bool {
        self.queue.iter().any(|m| !m.fcfs_taken)
    }

    /// Whether broadcast cursor `rcv` has an unread message.
    pub fn has_broadcast_message(&self, rcv: usize) -> bool {
        self.cursors[rcv] < self.next_seq && self.queue.iter().any(|m| m.seq == self.cursors[rcv])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcfs_exactly_once_in_order() {
        let mut l = SimLnvc::new(0);
        l.send(10);
        l.send(20);
        assert_eq!(l.recv_fcfs(), Some(10));
        assert_eq!(l.recv_fcfs(), Some(20));
        assert_eq!(l.recv_fcfs(), None);
        assert_eq!(l.queued_messages(), 0);
        assert_eq!(l.queued_bytes(), 0);
    }

    #[test]
    fn broadcast_everyone_sees_everything() {
        let mut l = SimLnvc::new(0);
        let a = l.add_broadcast_receiver();
        let b = l.add_broadcast_receiver();
        l.send(5);
        l.send(7);
        assert_eq!(l.recv_broadcast(a), Some(5));
        assert_eq!(l.recv_broadcast(b), Some(5));
        assert_eq!(l.recv_broadcast(a), Some(7));
        assert_eq!(l.queued_messages(), 1, "b has not read message 2");
        assert_eq!(l.recv_broadcast(b), Some(7));
        assert_eq!(l.queued_messages(), 0);
    }

    #[test]
    fn late_broadcast_receiver_starts_at_tail() {
        let mut l = SimLnvc::new(0);
        let a = l.add_broadcast_receiver();
        l.send(1);
        assert_eq!(l.recv_broadcast(a), Some(1));
        let b = l.add_broadcast_receiver();
        assert!(!l.has_broadcast_message(b));
        l.send(2);
        assert!(l.has_broadcast_message(b));
    }

    #[test]
    fn reclaim_waits_for_slowest_broadcast_receiver() {
        let mut l = SimLnvc::new(0);
        let a = l.add_broadcast_receiver();
        let _b = l.add_broadcast_receiver();
        for _ in 0..3 {
            l.send(100);
        }
        for _ in 0..3 {
            l.recv_broadcast(a);
        }
        assert_eq!(l.queued_bytes(), 300, "b pins everything");
    }

    #[test]
    fn check_predicates() {
        let mut l = SimLnvc::new(0);
        assert!(!l.has_fcfs_message());
        l.send(1);
        assert!(l.has_fcfs_message());
        l.recv_fcfs();
        assert!(!l.has_fcfs_message());
    }
}
