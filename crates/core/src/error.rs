//! MPF error type and C-layer status codes.

/// Result alias for MPF operations.
pub type Result<T> = std::result::Result<T, MpfError>;

/// Everything that can go wrong in the facility.
///
/// The paper's C interface signals errors with negative return values; the
/// mapping lives in [`MpfError::status_code`] and is what the `mpf_*` C ABI
/// (`mpf-ipc`) returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpfError {
    /// LNVC name empty or longer than [`crate::MAX_NAME_LEN`].
    InvalidName {
        /// Offending length.
        len: usize,
        /// Maximum allowed.
        max: usize,
    },
    /// Process id outside the `max_processes` bound given to `init`.
    InvalidProcess,
    /// All `max_lnvcs` LNVC descriptors are in use.
    LnvcsExhausted,
    /// All connection descriptors are in use.
    ConnectionsExhausted,
    /// All message headers are in use (every plain send, on [`crate::Mpf`]
    /// and on a view alike; the `*_deadline` forms wait instead).
    MessagesExhausted,
    /// All message blocks are in use (likewise).
    BlocksExhausted,
    /// The message is larger than the region could ever hold.
    MessageTooLarge {
        /// Requested payload bytes.
        len: usize,
        /// Largest payload the configured region can carry.
        max: usize,
    },
    /// The LNVC id is stale (conversation was deleted) or malformed.
    UnknownLnvc,
    /// The process has no connection of the required direction on the LNVC.
    NotConnected,
    /// The process already holds a connection of this direction on the LNVC.
    AlreadyConnected,
    /// A process may not hold both FCFS and BROADCAST receive connections
    /// on one LNVC (paper footnote 3).
    ProtocolConflict,
    /// The receive buffer cannot hold the pending message; the message is
    /// left queued.
    BufferTooSmall {
        /// Bytes the pending message needs.
        needed: usize,
    },
    /// Non-blocking receive found no message.
    WouldBlock,
    /// The C layer was used before `init` (or `init` was called twice).
    BadInit,
    /// A peer process died mid-conversation (multi-process backend): a
    /// lock it held was broken or its connections were swept, and the
    /// LNVC is poisoned rather than left to deadlock survivors.
    PeerDied {
        /// Raw MPF process id of the dead peer (0 when unknown — the
        /// poison was discovered after the sweep recorded no culprit).
        pid: u32,
    },
    /// `attach` found a shared region whose header does not match this
    /// library (wrong magic, layout version, or configuration echo).
    LayoutMismatch {
        /// Layout version this library writes.
        expected: u32,
        /// Layout version found in the region header.
        found: u32,
    },
    /// `wait_any`/`check_any` was given an empty LNVC set; waiting on
    /// nothing would block forever.
    EmptyWaitSet,
    /// A deadline-bounded call (`recv_deadline`, `send_deadline`,
    /// `wait_any_deadline`, …) reached its deadline with the operation
    /// not performed.  Distinct from [`MpfError::WouldBlock`]: the
    /// caller *did* wait, and the facility guarantees no partial effect
    /// (nothing enqueued, nothing consumed).
    TimedOut,
}

impl MpfError {
    /// Negative status code for the C-style layer.
    pub fn status_code(self) -> i32 {
        match self {
            MpfError::InvalidName { .. } => -1,
            MpfError::InvalidProcess => -2,
            MpfError::LnvcsExhausted => -3,
            MpfError::ConnectionsExhausted => -4,
            MpfError::MessagesExhausted => -5,
            MpfError::BlocksExhausted => -6,
            MpfError::MessageTooLarge { .. } => -7,
            MpfError::UnknownLnvc => -8,
            MpfError::NotConnected => -9,
            MpfError::AlreadyConnected => -10,
            MpfError::ProtocolConflict => -11,
            MpfError::BufferTooSmall { .. } => -12,
            MpfError::WouldBlock => -13,
            MpfError::BadInit => -14,
            MpfError::PeerDied { .. } => -15,
            MpfError::LayoutMismatch { .. } => -16,
            MpfError::EmptyWaitSet => -17,
            MpfError::TimedOut => -18,
        }
    }
}

impl std::fmt::Display for MpfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpfError::InvalidName { len, max } => {
                write!(f, "invalid LNVC name: length {len}, allowed 1..={max}")
            }
            MpfError::InvalidProcess => write!(f, "process id out of configured range"),
            MpfError::LnvcsExhausted => write!(f, "no free LNVC descriptors"),
            MpfError::ConnectionsExhausted => write!(f, "no free connection descriptors"),
            MpfError::MessagesExhausted => write!(f, "no free message headers"),
            MpfError::BlocksExhausted => write!(f, "no free message blocks"),
            MpfError::MessageTooLarge { len, max } => {
                write!(f, "message of {len} bytes exceeds region capacity of {max}")
            }
            MpfError::UnknownLnvc => write!(f, "unknown or deleted LNVC"),
            MpfError::NotConnected => write!(f, "process has no such connection on this LNVC"),
            MpfError::AlreadyConnected => {
                write!(f, "process already has this connection on this LNVC")
            }
            MpfError::ProtocolConflict => write!(
                f,
                "a process cannot hold both FCFS and BROADCAST receive connections on one LNVC"
            ),
            MpfError::BufferTooSmall { needed } => {
                write!(f, "receive buffer too small: message needs {needed} bytes")
            }
            MpfError::WouldBlock => write!(f, "no message available"),
            MpfError::BadInit => write!(f, "facility not initialized (or initialized twice)"),
            MpfError::PeerDied { pid: 0 } => {
                write!(f, "a peer process died mid-conversation; LNVC poisoned")
            }
            MpfError::PeerDied { pid } => {
                write!(
                    f,
                    "peer process P{pid} died mid-conversation; LNVC poisoned"
                )
            }
            MpfError::LayoutMismatch { expected, found } => write!(
                f,
                "region layout mismatch: library speaks version {expected}, region is {found}"
            ),
            MpfError::EmptyWaitSet => write!(f, "wait_any on an empty LNVC set would never wake"),
            MpfError::TimedOut => write!(f, "deadline reached before the operation completed"),
        }
    }
}

impl std::error::Error for MpfError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_codes_are_negative_and_distinct() {
        let all = [
            MpfError::InvalidName { len: 0, max: 31 },
            MpfError::InvalidProcess,
            MpfError::LnvcsExhausted,
            MpfError::ConnectionsExhausted,
            MpfError::MessagesExhausted,
            MpfError::BlocksExhausted,
            MpfError::MessageTooLarge { len: 1, max: 0 },
            MpfError::UnknownLnvc,
            MpfError::NotConnected,
            MpfError::AlreadyConnected,
            MpfError::ProtocolConflict,
            MpfError::BufferTooSmall { needed: 9 },
            MpfError::WouldBlock,
            MpfError::BadInit,
            MpfError::PeerDied { pid: 3 },
            MpfError::LayoutMismatch {
                expected: 1,
                found: 2,
            },
            MpfError::EmptyWaitSet,
            MpfError::TimedOut,
        ];
        let mut codes: Vec<i32> = all.iter().map(|e| e.status_code()).collect();
        assert!(codes.iter().all(|&c| c < 0));
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), all.len(), "status codes must be distinct");
    }

    #[test]
    fn display_mentions_specifics() {
        let e = MpfError::BufferTooSmall { needed: 123 };
        assert!(e.to_string().contains("123"));
    }
}
