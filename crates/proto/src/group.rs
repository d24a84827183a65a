//! Ranked communicators over pairwise LNVCs.
//!
//! A [`CommGroup`] gives each participant a dense rank in `0..size` and
//! point-to-point FIFO channels to every other rank, each channel being a
//! dedicated FCFS LNVC named `p:<tag>:<src>-><dst>`.  Connections are
//! opened lazily and cached for the group's lifetime, which both
//! amortizes `open_*` cost and keeps every conversation alive until the
//! group drops — so a fast peer finishing early can never trigger the
//! paper's §3.2 message-discard hazard mid-algorithm.

use std::cell::RefCell;
use std::collections::HashMap;

use mpf::{Mpf, ProcessId, Protocol, Receiver, Result, Sender};

/// One process's endpoint in a ranked group.
pub struct CommGroup<'a> {
    mpf: &'a Mpf,
    pid: ProcessId,
    rank: usize,
    size: usize,
    tag: String,
    senders: RefCell<HashMap<usize, Sender<'a>>>,
    receivers: RefCell<HashMap<usize, Receiver<'a>>>,
}

impl<'a> CommGroup<'a> {
    /// Joins the group `tag` as `rank` of `size`.  Every member must call
    /// this with the same `tag` and `size` and a distinct rank/process.
    ///
    /// `create` is a **collective**: it eagerly opens this member's
    /// receive connection from every peer and then runs a join barrier, so
    /// it returns only when *all* members have joined.  From then on every
    /// pairwise conversation has a live receiver connection for the
    /// group's lifetime — a member that races ahead and drops its group
    /// can never trigger the paper's §3.2 discard (which would silently
    /// lose undelivered messages) for the others.
    pub fn create(
        mpf: &'a Mpf,
        pid: ProcessId,
        rank: usize,
        size: usize,
        tag: &str,
    ) -> Result<Self> {
        assert!(rank < size, "rank {rank} out of range for size {size}");
        let group = Self {
            mpf,
            pid,
            rank,
            size,
            tag: tag.to_string(),
            senders: RefCell::new(HashMap::new()),
            receivers: RefCell::new(HashMap::new()),
        };
        // Eager inboxes: our receive side of every pairwise channel.
        for src in 0..size {
            if src != rank {
                let name = group.channel_name(src, rank);
                group
                    .receivers
                    .borrow_mut()
                    .insert(src, mpf.receiver(pid, &name, Protocol::Fcfs)?);
            }
        }
        group.join_barrier()?;
        Ok(group)
    }

    /// Dissemination barrier over the group's own channels (used by
    /// `create`; the public collective lives in [`crate::collectives`]).
    fn join_barrier(&self) -> Result<()> {
        if self.size == 1 {
            return Ok(());
        }
        let rounds = usize::BITS - (self.size - 1).leading_zeros();
        for k in 0..rounds {
            let stride = 1usize << k;
            let to = (self.rank + stride) % self.size;
            let from = (self.rank + self.size - stride) % self.size;
            self.send_to(to, &[0xB0 | k as u8])?;
            self.recv_from(from)?;
        }
        Ok(())
    }

    /// This member's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Group size.
    pub fn size(&self) -> usize {
        self.size
    }

    fn channel_name(&self, src: usize, dst: usize) -> String {
        format!("p:{}:{}->{}", self.tag, src, dst)
    }

    /// Sends `data` to `dst` (FIFO per src→dst pair, asynchronous).
    pub fn send_to(&self, dst: usize, data: &[u8]) -> Result<()> {
        assert!(dst < self.size && dst != self.rank, "bad destination {dst}");
        let mut senders = self.senders.borrow_mut();
        if let std::collections::hash_map::Entry::Vacant(e) = senders.entry(dst) {
            let name = self.channel_name(self.rank, dst);
            e.insert(self.mpf.sender(self.pid, &name)?);
        }
        senders[&dst].send(data)
    }

    /// Blocking receive of the next message from `src`.
    pub fn recv_from(&self, src: usize) -> Result<Vec<u8>> {
        assert!(src < self.size && src != self.rank, "bad source {src}");
        let mut receivers = self.receivers.borrow_mut();
        if let std::collections::hash_map::Entry::Vacant(e) = receivers.entry(src) {
            let name = self.channel_name(src, self.rank);
            e.insert(self.mpf.receiver(self.pid, &name, Protocol::Fcfs)?);
        }
        receivers[&src].recv_vec()
    }

    /// Sends to `dst` and receives from `src` — the exchange step of
    /// neighbour algorithms.  Send first (asynchronous), then block.
    pub fn exchange(&self, dst: usize, data: &[u8], src: usize) -> Result<Vec<u8>> {
        self.send_to(dst, data)?;
        self.recv_from(src)
    }
}

impl std::fmt::Debug for CommGroup<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommGroup")
            .field("tag", &self.tag)
            .field("rank", &self.rank)
            .field("size", &self.size)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpf::MpfConfig;
    use mpf_shm::process::run_processes_collect;

    fn facility(procs: u32) -> Mpf {
        Mpf::init(
            MpfConfig::new(4 * procs * procs + 16, procs)
                .with_max_connections(8 * procs * procs + 64),
        )
        .expect("init")
    }

    #[test]
    fn pairwise_fifo_and_isolation() {
        let mpf = facility(3);
        let results = run_processes_collect(3, |pid| {
            let g = CommGroup::create(&mpf, pid, pid.index(), 3, "t1").unwrap();
            match g.rank() {
                0 => {
                    // Interleaved sends to two destinations stay FIFO per
                    // destination and never cross.
                    for i in 0..10u8 {
                        g.send_to(1, &[1, i]).unwrap();
                        g.send_to(2, &[2, i]).unwrap();
                    }
                    Vec::new()
                }
                me => {
                    let mut got = Vec::new();
                    for _ in 0..10 {
                        let m = g.recv_from(0).unwrap();
                        assert_eq!(m[0] as usize, me, "stream crossed groups");
                        got.push(m[1]);
                    }
                    got
                }
            }
        });
        assert_eq!(results[1], (0..10).collect::<Vec<u8>>());
        assert_eq!(results[2], (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn exchange_swaps_between_two_ranks() {
        let mpf = facility(2);
        let results = run_processes_collect(2, |pid| {
            let g = CommGroup::create(&mpf, pid, pid.index(), 2, "t2").unwrap();
            let peer = 1 - g.rank();
            let mine = [g.rank() as u8; 4];
            g.exchange(peer, &mine, peer).unwrap()
        });
        assert_eq!(results[0], vec![1u8; 4]);
        assert_eq!(results[1], vec![0u8; 4]);
    }

    #[test]
    fn distinct_tags_are_distinct_universes() {
        let mpf = facility(2);
        run_processes_collect(2, |pid| {
            let a = CommGroup::create(&mpf, pid, pid.index(), 2, "ta").unwrap();
            let b = CommGroup::create(&mpf, pid, pid.index(), 2, "tb").unwrap();
            let peer = 1 - a.rank();
            a.send_to(peer, b"from-a").unwrap();
            b.send_to(peer, b"from-b").unwrap();
            assert_eq!(b.recv_from(peer).unwrap(), b"from-b");
            assert_eq!(a.recv_from(peer).unwrap(), b"from-a");
        });
    }

    #[test]
    #[should_panic(expected = "bad destination")]
    fn self_send_rejected() {
        let mpf = facility(1);
        let g = CommGroup::create(&mpf, ProcessId::from_index(0), 0, 1, "t3").unwrap();
        let _ = g.send_to(0, b"loop");
    }
}
