//! The discrete-event engine.
//!
//! Executes [`crate::driver::Driver`] programs on simulated processors,
//! charging every MPF operation against the machine model:
//!
//! * **Send** = header/block allocation (CPU) + payload copy-in (CPU and
//!   bus occupancy, possibly paging faults) → LNVC lock → link + broadcast
//!   head updates (critical section) → release, wake blocked receivers.
//! * **Receive** = LNVC lock → scan/claim (critical section) → release →
//!   payload copy-out (CPU + bus + faults) → LNVC lock → reclaim → release.
//!   An empty queue blocks the processor on the LNVC's waiter list.
//! * **Locks** are FIFO with a bus RMW per acquisition/handoff; *waiting
//!   processors spin*, and their polling traffic is charged to the bus as
//!   an aggregate tax at each release (waiters × hold-time / poll
//!   interval × poll cost) — the contention mechanism behind Figure 4's
//!   small-message decline, without per-poll event flood.
//! * **The bus** serializes all occupancy requests (copies, RMWs, polls):
//!   concurrent broadcast copies queue against each other, bounding
//!   Figure 5's aggregate throughput.
//! * **Paging**: message-buffer residency is tracked; overcommit charges
//!   expected fault cycles per copy (Figure 6's cliff).
//!
//! The simulation ends when the event queue drains: finished processes
//! have stopped and any still blocked on empty queues will never be woken
//! (which is exactly how the paper's `fcfs`/`broadcast` programs end their
//! measurement window).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mpf::spec::{Conv, MsgId, Pid, Spec};
use mpf::Protocol;

use crate::bus::Bus;
use crate::costs::CostModel;
use crate::driver::{Driver, DriverOp, OpResult, RecvKind};
use crate::lnvc::SimLnvc;
use crate::machine::MachineConfig;
use crate::paging::PagingModel;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvKind {
    /// Call the driver with a result.
    Advance(OpResult),
    /// The processor now holds the lock it requested.
    LockGranted,
    /// End of a critical section.
    CritDone,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    time: u64,
    seq: u64,
    proc: usize,
    kind: EvKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// What a processor is doing between events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// No operation under way (next event will be `Advance`).
    Idle,
    /// Send: waiting for / holding the LNVC lock.
    SendCrit { lnvc: usize, len: usize },
    /// Receive: first lock phase (scan/claim).
    RecvCrit {
        lnvc: usize,
        kind: RecvKind,
        try_only: bool,
    },
    /// Receive: second lock phase (reclaim), after the copy.
    ReclaimCrit { lnvc: usize, len: usize },
    /// Blocked on an empty queue.
    WaitingMsg { lnvc: usize, kind: RecvKind },
    /// Stopped.
    Finished,
}

#[derive(Debug, Default, Clone, Copy)]
struct ProcStats {
    msgs_sent: u64,
    msgs_received: u64,
    bytes_sent: u64,
    bytes_received: u64,
    lock_waits: u64,
}

struct Proc {
    driver: Box<dyn Driver>,
    stage: Stage,
    stats: ProcStats,
}

#[derive(Debug, Default)]
struct LockState {
    held: bool,
    /// FIFO of `(processor, ready_at)`: a waiter cannot take the lock
    /// before its own pre-lock work (e.g. the send-side copy) completes.
    queue: std::collections::VecDeque<(usize, u64)>,
    /// When the current holder was granted the lock (for the spin tax).
    acquired_at: u64,
}

/// Simulation results.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Total simulated cycles (time of the last event).
    pub elapsed_cycles: u64,
    /// Seconds at the machine's clock.
    pub elapsed_secs: f64,
    /// Messages sent across all processors.
    pub msgs_sent: u64,
    /// Deliveries (a broadcast message counts once per receiver).
    pub msgs_received: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Payload bytes delivered.
    pub bytes_received: u64,
    /// Bus utilization over the run.
    pub bus_utilization: f64,
    /// Lock acquisitions that had to queue.
    pub lock_waits: u64,
    /// Peak simulated working set (paging model), bytes.
    pub peak_working_set: u64,
}

impl EngineReport {
    /// Sent-side throughput in bytes/second.
    pub fn send_throughput(&self) -> f64 {
        if self.elapsed_secs == 0.0 {
            0.0
        } else {
            self.bytes_sent as f64 / self.elapsed_secs
        }
    }

    /// Delivered ("effective") throughput in bytes/second — the metric of
    /// the paper's Figure 5.
    pub fn delivered_throughput(&self) -> f64 {
        if self.elapsed_secs == 0.0 {
            0.0
        } else {
            self.bytes_received as f64 / self.elapsed_secs
        }
    }
}

/// The spec's pid of every sender, and of every FCFS receiver.
const PEER: Pid = Pid::MAX;

/// The event engine.
pub struct Engine {
    machine: MachineConfig,
    costs: CostModel,
    bus: Bus,
    paging: PagingModel,
    locks: Vec<LockState>,
    lnvcs: Vec<SimLnvc>,
    /// Who gets which message: the §3 contract, keyed by LNVC index.
    spec: Spec,
    /// Messages sent so far (the next message's id).
    sent: MsgId,
    procs: Vec<Proc>,
    events: BinaryHeap<Reverse<Event>>,
    time: u64,
    seq: u64,
}

impl Engine {
    /// Creates an engine for `active_processes` processes on `machine`
    /// (the process count feeds the paging model's working-set estimate).
    pub fn new(machine: MachineConfig, costs: CostModel, active_processes: u32) -> Self {
        let paging = PagingModel::new(&machine, active_processes);
        Self {
            machine,
            costs,
            bus: Bus::new(),
            paging,
            locks: Vec::new(),
            lnvcs: Vec::new(),
            spec: Spec::default(),
            sent: 0,
            procs: Vec::new(),
            events: BinaryHeap::new(),
            time: 0,
            seq: 0,
        }
    }

    /// Creates a conversation (with its own lock); returns its index.
    /// Every sender sends through one connection, which keeps it alive.
    pub fn add_lnvc(&mut self) -> usize {
        self.locks.push(LockState::default());
        let lock = self.locks.len() - 1;
        let conv = self.lnvcs.len();
        let opened = self.spec.open_send(conv as Conv, PEER);
        opened.expect("a new conversation");
        self.lnvcs.push(SimLnvc {
            lock,
            ..SimLnvc::default()
        });
        conv
    }

    /// Connects a broadcast receiver to `lnvc`; returns its index there.
    /// It hears only what is sent after it joins.
    pub fn add_broadcast_receiver(&mut self, lnvc: usize) -> usize {
        let (conv, rcv) = (lnvc as Conv, self.bcast_receivers(lnvc));
        let joined = self.spec.open_receive(conv, rcv, Protocol::Broadcast);
        joined.expect("a new receiver");
        rcv as usize
    }

    fn bcast_receivers(&self, lnvc: usize) -> Pid {
        self.spec
            .obligations(lnvc as Conv)
            .map_or(0, |owed| owed.n_bcast)
    }

    /// A receive of `kind` on `lnvc`: the length of the message it takes
    /// now, if any — with `take`, delivered, and the fully delivered prefix
    /// reclaimed.  FCFS receives share one receiver, connected on first use.
    fn receive(&mut self, lnvc: usize, kind: RecvKind, take: bool) -> Option<usize> {
        let conv = lnvc as Conv;
        let pid = match kind {
            RecvKind::Broadcast(rcv) => rcv as Pid,
            RecvKind::Fcfs => {
                // Refused as already connected after the first time.
                let _ = self.spec.open_receive(conv, PEER, Protocol::Fcfs);
                PEER
            }
        };
        let (id, protocol) = self.spec.next_for(conv, pid).ok().flatten()?;
        let l = &mut self.lnvcs[lnvc];
        let len = l.lens[&id];
        if take {
            let breach = self.spec.deliver(conv, pid, id, protocol);
            debug_assert_eq!(breach, None);
            let freed = (0..self.spec.reclaim_delivered(conv)).filter_map(|_| l.lens.pop_first());
            l.reclaimed += freed.map(|(_, len)| len as u64).sum::<u64>();
        }
        Some(len)
    }

    /// Adds a processor running `driver`; returns its index.
    pub fn add_proc(&mut self, driver: Box<dyn Driver>) -> usize {
        self.procs.push(Proc {
            driver,
            stage: Stage::Idle,
            stats: ProcStats::default(),
        });
        self.procs.len() - 1
    }

    fn push(&mut self, time: u64, proc: usize, kind: EvKind) {
        self.seq += 1;
        self.events.push(Reverse(Event {
            time,
            seq: self.seq,
            proc,
            kind,
        }));
    }

    /// Runs the simulation to quiescence and reports.
    pub fn run(mut self) -> EngineReport {
        // Kick every processor off at t = 0.
        for p in 0..self.procs.len() {
            self.push(0, p, EvKind::Advance(OpResult::Start));
        }
        while let Some(Reverse(ev)) = self.events.pop() {
            self.time = self.time.max(ev.time);
            match ev.kind {
                EvKind::Advance(result) => self.advance(ev.proc, ev.time, result),
                EvKind::LockGranted => self.on_lock_granted(ev.proc, ev.time),
                EvKind::CritDone => self.on_crit_done(ev.proc, ev.time),
            }
        }
        let mut report = EngineReport {
            elapsed_cycles: self.time,
            elapsed_secs: self.machine.cycles_to_secs(self.time),
            msgs_sent: 0,
            msgs_received: 0,
            bytes_sent: 0,
            bytes_received: 0,
            bus_utilization: self.bus.utilization(self.time),
            lock_waits: 0,
            peak_working_set: self.paging.peak_working_set(),
        };
        for p in &self.procs {
            report.msgs_sent += p.stats.msgs_sent;
            report.msgs_received += p.stats.msgs_received;
            report.bytes_sent += p.stats.bytes_sent;
            report.bytes_received += p.stats.bytes_received;
            report.lock_waits += p.stats.lock_waits;
        }
        report
    }

    /// Ask the driver for the next operation and launch it.
    fn advance(&mut self, proc: usize, now: u64, result: OpResult) {
        let op = self.procs[proc].driver.next(result);
        match op {
            DriverOp::Stop => {
                self.procs[proc].stage = Stage::Finished;
            }
            DriverOp::Compute(cycles) => {
                self.push(now + cycles, proc, EvKind::Advance(OpResult::Computed));
            }
            DriverOp::Send { lnvc, len } => {
                // Pre-lock work: header setup, block allocation, copy-in.
                self.paging.alloc(len, self.costs.window_bytes(len), proc);
                let fault = self.paging.fault_cycles(&self.costs, len);
                let cpu_start = now + self.costs.send_precopy_cycles(len) + fault;
                let done = self.timed_copy(cpu_start, len);
                self.procs[proc].stage = Stage::SendCrit { lnvc, len };
                let lock = self.lnvcs[lnvc].lock;
                self.request_lock(proc, lock, done);
            }
            DriverOp::Recv { lnvc, kind } => {
                self.procs[proc].stage = Stage::RecvCrit {
                    lnvc,
                    kind,
                    try_only: false,
                };
                let lock = self.lnvcs[lnvc].lock;
                self.request_lock(proc, lock, now + self.costs.recv_setup);
            }
            DriverOp::TryRecv { lnvc, kind } => {
                self.procs[proc].stage = Stage::RecvCrit {
                    lnvc,
                    kind,
                    try_only: true,
                };
                let lock = self.lnvcs[lnvc].lock;
                self.request_lock(proc, lock, now + self.costs.recv_setup);
            }
        }
    }

    /// A payload copy: CPU cost overlapped with bus occupancy; returns the
    /// completion time.
    fn timed_copy(&mut self, start: u64, len: usize) -> u64 {
        let cpu_done = start + self.costs.copy_cpu_cycles(len);
        if len == 0 {
            return cpu_done;
        }
        let bus_done = self.bus.occupy(start, self.costs.copy_bus_cycles(len));
        cpu_done.max(bus_done)
    }

    fn request_lock(&mut self, proc: usize, lock: usize, at: u64) {
        let state = &mut self.locks[lock];
        if state.held || !state.queue.is_empty() {
            state.queue.push_back((proc, at));
            self.procs[proc].stats.lock_waits += 1;
        } else {
            state.held = true;
            let grant = self.bus.occupy(at, self.costs.lock_rmw);
            self.locks[lock].acquired_at = grant;
            self.push(grant, proc, EvKind::LockGranted);
        }
    }

    fn release_lock(&mut self, lock: usize, now: u64) {
        // Spin tax: each queued waiter polled the lock word throughout the
        // hold; charge that bus traffic in aggregate.
        let waiters = self.locks[lock].queue.len() as u64;
        if waiters > 0 {
            let held = now.saturating_sub(self.locks[lock].acquired_at);
            let polls = held / self.costs.spin_poll_interval;
            if polls > 0 {
                self.bus
                    .occupy(now, waiters * polls * self.costs.spin_poll_bus);
            }
        }
        if let Some((next, ready_at)) = self.locks[lock].queue.pop_front() {
            // Handoff: lock stays held, next waiter pays its RMW — but it
            // cannot enter before its own pre-lock work is done.
            let grant = self.bus.occupy(now.max(ready_at), self.costs.lock_rmw);
            self.locks[lock].acquired_at = grant;
            self.push(grant, next, EvKind::LockGranted);
        } else {
            self.locks[lock].held = false;
        }
    }

    fn on_lock_granted(&mut self, proc: usize, now: u64) {
        let crit = match self.procs[proc].stage {
            Stage::SendCrit { lnvc, .. } => {
                self.costs.crit_send
                    + u64::from(self.bcast_receivers(lnvc)) * self.costs.per_head_update
            }
            Stage::RecvCrit { lnvc, kind, .. } => {
                // The state cannot change while we hold the lock, so peek:
                // a successful claim pays the full scan/claim cost, a
                // woken receiver finding nothing pays only the short
                // re-check (the herd path).
                if self.receive(lnvc, kind, false).is_some() {
                    self.costs.crit_recv
                } else {
                    self.costs.crit_check
                }
            }
            Stage::ReclaimCrit { lnvc, .. } => {
                // A reclaim that frees nothing (a slower broadcast peer
                // still pins the queue) is a short check-and-exit.
                if self.lnvcs[lnvc].reclaimed > 0 {
                    self.costs.crit_reclaim
                } else {
                    self.costs.crit_check
                }
            }
            stage => unreachable!("lock granted in stage {stage:?}"),
        };
        self.push(now + crit, proc, EvKind::CritDone);
    }

    fn on_crit_done(&mut self, proc: usize, now: u64) {
        match self.procs[proc].stage {
            Stage::SendCrit { lnvc, len } => {
                let id = self.sent;
                self.sent += 1;
                self.spec
                    .send(lnvc as Conv, PEER, id)
                    .expect("the sender is connected");
                self.lnvcs[lnvc].lens.insert(id, len);
                self.procs[proc].stats.msgs_sent += 1;
                self.procs[proc].stats.bytes_sent += len as u64;
                let lock = self.lnvcs[lnvc].lock;
                self.release_lock(lock, now);
                // Wake everything blocked on this conversation (MPF's
                // notify-all); losers will re-block.
                let waiters = std::mem::take(&mut self.lnvcs[lnvc].waiters);
                for w in waiters {
                    let Stage::WaitingMsg { lnvc: wl, kind } = self.procs[w].stage else {
                        unreachable!("waiter in non-waiting stage");
                    };
                    self.procs[w].stage = Stage::RecvCrit {
                        lnvc: wl,
                        kind,
                        try_only: false,
                    };
                    let wlock = self.lnvcs[wl].lock;
                    self.request_lock(w, wlock, now + self.costs.wake_latency);
                }
                self.procs[proc].stage = Stage::Idle;
                self.push(now, proc, EvKind::Advance(OpResult::Sent));
            }
            Stage::RecvCrit {
                lnvc,
                kind,
                try_only,
            } => {
                let got = self.receive(lnvc, kind, true);
                let lock = self.lnvcs[lnvc].lock;
                match got {
                    Some(len) => {
                        self.release_lock(lock, now);
                        let fault = self.paging.fault_cycles(&self.costs, len);
                        let done = self.timed_copy(now + fault, len);
                        self.procs[proc].stage = Stage::ReclaimCrit { lnvc, len };
                        self.request_lock(proc, lock, done);
                    }
                    None if try_only => {
                        self.release_lock(lock, now);
                        self.procs[proc].stage = Stage::Idle;
                        self.push(now, proc, EvKind::Advance(OpResult::RecvEmpty));
                    }
                    None => {
                        self.release_lock(lock, now);
                        self.procs[proc].stage = Stage::WaitingMsg { lnvc, kind };
                        self.lnvcs[lnvc].waiters.push(proc);
                        // No event: the processor sleeps until a sender
                        // wakes it (or the simulation quiesces).
                    }
                }
            }
            Stage::ReclaimCrit { lnvc, len } => {
                let freed = std::mem::take(&mut self.lnvcs[lnvc].reclaimed);
                self.paging.free(freed as usize);
                let lock = self.lnvcs[lnvc].lock;
                self.release_lock(lock, now);
                self.procs[proc].stats.msgs_received += 1;
                self.procs[proc].stats.bytes_received += len as u64;
                self.procs[proc].stage = Stage::Idle;
                self.push(now, proc, EvKind::Advance(OpResult::RecvGot(len)));
            }
            stage => unreachable!("crit done in stage {stage:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(procs: u32) -> Engine {
        let m = MachineConfig::balance21000();
        let c = CostModel::calibrated(&m);
        Engine::new(m, c, procs)
    }

    /// One sender, one blocking receiver, M messages.
    #[test]
    fn one_to_one_delivers_all_messages() {
        let mut e = engine(2);
        let l = e.add_lnvc();
        let mut remaining = 10u32;
        e.add_proc(Box::new(move |_res: OpResult| {
            if remaining == 0 {
                return DriverOp::Stop;
            }
            remaining -= 1;
            DriverOp::Send { lnvc: l, len: 100 }
        }));
        e.add_proc(Box::new(move |_res: OpResult| DriverOp::Recv {
            lnvc: l,
            kind: RecvKind::Fcfs,
        }));
        let r = e.run();
        assert_eq!(r.msgs_sent, 10);
        assert_eq!(r.msgs_received, 10);
        assert_eq!(r.bytes_sent, 1000);
        assert_eq!(r.bytes_received, 1000);
        assert!(r.elapsed_cycles > 0);
    }

    #[test]
    fn broadcast_counts_every_delivery() {
        let mut e = engine(3);
        let l = e.add_lnvc();
        let r1 = e.add_broadcast_receiver(l);
        let r2 = e.add_broadcast_receiver(l);
        let mut remaining = 5u32;
        e.add_proc(Box::new(move |_res: OpResult| {
            if remaining == 0 {
                return DriverOp::Stop;
            }
            remaining -= 1;
            DriverOp::Send { lnvc: l, len: 64 }
        }));
        for rcv in [r1, r2] {
            e.add_proc(Box::new(move |_res: OpResult| DriverOp::Recv {
                lnvc: l,
                kind: RecvKind::Broadcast(rcv),
            }));
        }
        let r = e.run();
        assert_eq!(r.msgs_sent, 5);
        assert_eq!(r.msgs_received, 10, "each receiver sees every message");
        assert_eq!(r.bytes_received, 2 * 5 * 64);
    }

    #[test]
    fn try_recv_on_empty_reports_empty() {
        let mut e = engine(1);
        let l = e.add_lnvc();
        let mut state = 0;
        e.add_proc(Box::new(move |res: OpResult| {
            state += 1;
            match state {
                1 => DriverOp::TryRecv {
                    lnvc: l,
                    kind: RecvKind::Fcfs,
                },
                _ => {
                    assert_eq!(res, OpResult::RecvEmpty);
                    DriverOp::Stop
                }
            }
        }));
        let r = e.run();
        assert_eq!(r.msgs_received, 0);
    }

    #[test]
    fn blocked_receiver_never_woken_quiesces() {
        let mut e = engine(1);
        let l = e.add_lnvc();
        e.add_proc(Box::new(move |_res: OpResult| DriverOp::Recv {
            lnvc: l,
            kind: RecvKind::Fcfs,
        }));
        let r = e.run();
        assert_eq!(r.msgs_received, 0, "no sender: simulation quiesces");
    }

    #[test]
    fn deterministic_given_same_setup() {
        let run = || {
            let mut e = engine(2);
            let l = e.add_lnvc();
            let mut remaining = 20u32;
            e.add_proc(Box::new(move |_res: OpResult| {
                if remaining == 0 {
                    return DriverOp::Stop;
                }
                remaining -= 1;
                DriverOp::Send { lnvc: l, len: 256 }
            }));
            e.add_proc(Box::new(move |_res: OpResult| DriverOp::Recv {
                lnvc: l,
                kind: RecvKind::Fcfs,
            }));
            e.run().elapsed_cycles
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn contention_slows_the_clock() {
        // More receivers fighting over one LNVC must not make the same
        // message stream finish faster for small messages (lock + bus tax).
        let run = |receivers: usize| {
            let mut e = engine(1 + receivers as u32);
            let l = e.add_lnvc();
            let mut remaining = 200u32;
            e.add_proc(Box::new(move |_res: OpResult| {
                if remaining == 0 {
                    return DriverOp::Stop;
                }
                remaining -= 1;
                DriverOp::Send { lnvc: l, len: 16 }
            }));
            for _ in 0..receivers {
                e.add_proc(Box::new(move |_res: OpResult| DriverOp::Recv {
                    lnvc: l,
                    kind: RecvKind::Fcfs,
                }));
            }
            e.run()
        };
        let few = run(1);
        let many = run(12);
        assert_eq!(few.msgs_received, 200);
        assert_eq!(many.msgs_received, 200);
        assert!(
            many.elapsed_cycles as f64 >= 0.95 * few.elapsed_cycles as f64,
            "12 receivers ({}) should not beat 1 receiver ({}) on tiny messages",
            many.elapsed_cycles,
            few.elapsed_cycles
        );
        assert!(many.lock_waits > few.lock_waits);
    }

    #[test]
    fn compute_takes_time() {
        let mut e = engine(1);
        let mut state = 0;
        e.add_proc(Box::new(move |_res: OpResult| {
            state += 1;
            if state == 1 {
                DriverOp::Compute(12_345)
            } else {
                DriverOp::Stop
            }
        }));
        let r = e.run();
        assert_eq!(r.elapsed_cycles, 12_345);
    }
}
