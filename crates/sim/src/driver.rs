//! Driver interface: the "programs" simulated processors run.
//!
//! A driver is a small state machine that emits one MPF operation at a
//! time; the [`crate::engine::Engine`] executes each operation against the
//! machine model (bus, locks, paging) and reports the outcome back through
//! [`OpResult`], whereupon the driver chooses its next step.  The paper's
//! four synthetic benchmarks are drivers in [`crate::workloads`].

/// Outcome of the previously issued operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpResult {
    /// First call; no operation has run yet.
    Start,
    /// The `Send` completed (message linked into the FIFO).
    Sent,
    /// A `Recv`/`TryRecv` delivered a message of this length.
    RecvGot(usize),
    /// A `TryRecv` found the queue empty.
    RecvEmpty,
    /// A `Compute` finished.
    Computed,
}

/// Receiver identity for receive operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvKind {
    /// FCFS receive (shared head pointer).
    Fcfs,
    /// Broadcast receive as this receiver (from
    /// [`crate::engine::Engine::add_broadcast_receiver`]).
    Broadcast(usize),
}

/// One simulated MPF operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverOp {
    /// `message_send(lnvc, len)`.
    Send {
        /// Target conversation index.
        lnvc: usize,
        /// Payload bytes.
        len: usize,
    },
    /// Blocking `message_receive`.
    Recv {
        /// Conversation index.
        lnvc: usize,
        /// FCFS or broadcast cursor.
        kind: RecvKind,
    },
    /// Non-blocking receive (`check_receive` + `message_receive`).
    TryRecv {
        /// Conversation index.
        lnvc: usize,
        /// FCFS or broadcast cursor.
        kind: RecvKind,
    },
    /// Local computation for this many cycles.
    Compute(u64),
    /// Process exits.
    Stop,
}

/// A simulated program.
pub trait Driver {
    /// Returns the next operation given the previous operation's result.
    fn next(&mut self, last: OpResult) -> DriverOp;
}

/// Blanket impl so closures can serve as quick drivers in tests.
impl<F: FnMut(OpResult) -> DriverOp> Driver for F {
    fn next(&mut self, last: OpResult) -> DriverOp {
        self(last)
    }
}
