//! Virtual-memory overhead model.
//!
//! The paper (§4, discussing Figure 6): "When a large number of processes
//! are transmitting large messages, MPF must allocate a large amount of
//! memory for message buffers.  The larger the memory requirements for
//! message transfer, the more susceptible MPF performance is to virtual
//! memory overheads.  For 1024-byte messages, paging overhead increases
//! rapidly for more than 10 processes … Paging overheads are also
//! significant for 256-byte messages but do not occur until there are 20
//! active processes."
//!
//! # The model
//!
//! The machine's resident budget is `user_mem_bytes()`.  The working set
//! has three parts:
//!
//! 1. `per_process_ws × processes` — process images, stacks, page tables;
//! 2. queued message bytes × an allocator amplification factor;
//! 3. **page windows**: with 10-byte blocks recycled LIFO from a shared
//!    free list, each block of a message can land on a different page, so
//!    every outstanding message pins `blocks × page_size` of residency.  A
//!    *sending* process streaming 1 KB messages cycles through ≈ 103
//!    pages per message; we charge a depth-`WINDOW_DEPTH` pipeline of the
//!    running average window per **active sender** (receivers allocate
//!    nothing).  This term is what makes the cliff's position depend on
//!    message *size* in the all-senders `random` benchmark — ≈ 12
//!    processes at 1024 B, ≈ 20 at 256 B, never at 8 B, the paper's
//!    Figure 6 ordering — while the single-sender `fcfs`/`broadcast`
//!    benchmarks never page, however many receivers they add.
//!
//! When the working set exceeds the budget, each page touched by a copy
//! pays an expected fault cost; under thrash the per-fault cost itself
//! grows (backing-store queueing), giving the *rapid* increase the paper
//! reports rather than a gentle knee.

use crate::costs::CostModel;
use crate::machine::MachineConfig;

/// Outstanding message windows charged per process (send pipeline depth).
const WINDOW_DEPTH: f64 = 8.0;
/// Allocator amplification on queued payload bytes.
const QUEUE_AMPLIFICATION: u64 = 8;

/// Deterministic paging-overhead model.
#[derive(Debug)]
pub struct PagingModel {
    resident_budget: u64,
    per_process_ws: u64,
    processes: u64,
    /// Bytes currently held in message buffers.
    buffer_bytes: u64,
    /// Exponential running average of the per-message page window.
    avg_window: f64,
    /// Distinct processes that have sent (window pipelines are theirs).
    senders: std::collections::HashSet<usize>,
    /// Peak working set seen (diagnostic).
    peak_working_set: u64,
}

impl PagingModel {
    /// Model for `processes` active processes on `machine`.
    pub fn new(machine: &MachineConfig, processes: u32) -> Self {
        Self {
            resident_budget: machine.user_mem_bytes(),
            per_process_ws: machine.per_process_ws,
            processes: processes as u64,
            buffer_bytes: 0,
            avg_window: 0.0,
            senders: std::collections::HashSet::new(),
            peak_working_set: 0,
        }
    }

    /// Current working-set estimate in bytes.
    pub fn working_set(&self) -> u64 {
        self.per_process_ws * self.processes
            + self.buffer_bytes * QUEUE_AMPLIFICATION
            + (self.senders.len() as f64 * WINDOW_DEPTH * self.avg_window) as u64
    }

    /// Overcommit ratio: 0 when resident, growing past 0 as the working
    /// set exceeds the budget.
    pub fn overcommit(&self) -> f64 {
        let ws = self.working_set();
        if ws <= self.resident_budget {
            0.0
        } else {
            (ws - self.resident_budget) as f64 / self.resident_budget as f64
        }
    }

    /// Records `len` payload bytes entering message buffers, pinning a
    /// page window of `window_bytes` (from [`CostModel::window_bytes`])
    /// in `sender`'s pipeline.
    pub fn alloc(&mut self, len: usize, window_bytes: u64, sender: usize) {
        self.buffer_bytes += len as u64;
        if window_bytes > 0 {
            self.senders.insert(sender);
            self.avg_window = 0.9 * self.avg_window + 0.1 * window_bytes as f64;
        }
        self.peak_working_set = self.peak_working_set.max(self.working_set());
    }

    /// Records `len` bytes reclaimed (message fully consumed).
    pub fn free(&mut self, len: usize) {
        self.buffer_bytes = self.buffer_bytes.saturating_sub(len as u64);
    }

    /// Expected fault cycles for a copy touching `len` payload bytes.
    pub fn fault_cycles(&self, costs: &CostModel, len: usize) -> u64 {
        let over = self.overcommit();
        if over == 0.0 {
            return 0;
        }
        let p_fault = (over * 2.0).min(1.0);
        // Thrash amplification: fault service slows as the backing store
        // queues up.
        let per_fault = costs.page_fault as f64 * (1.0 + 4.0 * over);
        let pages = costs.pages_touched(len) as f64;
        (p_fault * pages * per_fault) as u64
    }

    /// Peak working set observed (diagnostic).
    pub fn peak_working_set(&self) -> u64 {
        self.peak_working_set
    }

    /// Current buffered bytes (diagnostic).
    pub fn buffer_bytes(&self) -> u64 {
        self.buffer_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(processes: u32) -> (PagingModel, CostModel) {
        let m = MachineConfig::balance21000();
        (PagingModel::new(&m, processes), CostModel::calibrated(&m))
    }

    /// Every process sends (the fully connected `random` pattern).
    fn stream_all(pm: &mut PagingModel, costs: &CostModel, len: usize, msgs: usize, procs: u32) {
        for i in 0..msgs {
            pm.alloc(len, costs.window_bytes(len), i % procs as usize);
        }
    }

    #[test]
    fn few_processes_never_fault() {
        let (mut pm, costs) = setup(4);
        stream_all(&mut pm, &costs, 1024, 50, 4);
        assert_eq!(pm.overcommit(), 0.0);
        assert_eq!(pm.fault_cycles(&costs, 1024), 0);
    }

    #[test]
    fn single_sender_never_pages_regardless_of_receivers() {
        // The paper's fcfs/broadcast benchmarks: one sender, up to 16
        // receivers — no paging, whatever the message size.
        let (mut pm, costs) = setup(17);
        for _ in 0..500 {
            pm.alloc(1024, costs.window_bytes(1024), 0);
            pm.free(1024);
        }
        assert_eq!(pm.fault_cycles(&costs, 1024), 0);
    }

    #[test]
    fn cliff_position_depends_on_message_size() {
        // The paper's Figure 6 ordering: 1 KB messages page beyond ~10-14
        // processes; 256 B only near 20; 8 B never.
        let m = MachineConfig::balance21000();
        let costs = CostModel::calibrated(&m);
        let faulting_at = |len: usize| -> Option<u32> {
            for procs in 2..=20 {
                let mut pm = PagingModel::new(&m, procs);
                stream_all(&mut pm, &costs, len, 30.max(procs as usize * 2), procs);
                if pm.fault_cycles(&costs, len) > 0 {
                    return Some(procs);
                }
            }
            None
        };
        let kb = faulting_at(1024).expect("1 KB must hit the cliff");
        assert!(
            (10..=16).contains(&kb),
            "1 KB cliff at {kb}, paper says just past 10"
        );
        let small = faulting_at(256);
        assert!(
            small.is_none() || small.unwrap() >= 18,
            "256 B should only page near 20 processes (got {small:?})"
        );
        assert_eq!(faulting_at(8), None, "8 B messages never page");
    }

    #[test]
    fn fault_cost_grows_with_message_size_and_overcommit() {
        let (mut pm, costs) = setup(20);
        stream_all(&mut pm, &costs, 1024, 40, 20);
        let small = pm.fault_cycles(&costs, 64);
        let large = pm.fault_cycles(&costs, 1024);
        assert!(large > small, "more pages touched, more faults");
        // Push deeper into thrash: per-copy cost must grow superlinearly
        // (the paper's "increases rapidly").
        let before = pm.fault_cycles(&costs, 1024);
        stream_all(&mut pm, &costs, 1024, 400, 20);
        let after = pm.fault_cycles(&costs, 1024);
        assert!(after > before);
    }

    #[test]
    fn free_shrinks_working_set() {
        let (mut pm, costs) = setup(20);
        pm.alloc(10_000, costs.window_bytes(10_000), 0);
        let ws = pm.working_set();
        pm.free(10_000);
        assert!(pm.working_set() < ws);
        assert_eq!(pm.buffer_bytes(), 0);
        assert!(pm.peak_working_set() >= ws);
    }

    #[test]
    fn overcommit_monotone_in_processes() {
        let m = MachineConfig::balance21000();
        let costs = CostModel::calibrated(&m);
        let mut a = PagingModel::new(&m, 10);
        let mut b = PagingModel::new(&m, 20);
        stream_all(&mut a, &costs, 1024, 30, 10);
        stream_all(&mut b, &costs, 1024, 40, 20);
        assert!(b.overcommit() >= a.overcommit());
    }
}
