//! Batched-submission vocabulary.
//!
//! The batch layer (DESIGN.md "aio") reuses the primitives' data path but
//! moves the per-message lock/notify traffic off it: a submitter stages
//! send descriptors in its process's submission ring
//! ([`mpf_shm::ring::AioRing`]) and rings one doorbell; the drain step
//! completes the whole run under a single descriptor-lock hold and a
//! single receiver wake, pushing one [`AioCompletion`] per descriptor into
//! the completion ring.  These are the plain-value types callers see;
//! the rings themselves live in `mpf-shm`, carved into the shared region
//! segments `"aio sq rings"` / `"aio cq rings"`.

/// One reaped completion-queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AioCompletion {
    /// The submitter's token: for `submit_sends`/`send_batch`, the index
    /// of the payload within the submitted batch.
    pub user_data: u64,
    /// Causal trace id the send carried (0 = untraced), so async callers
    /// can continue the chain without touching the descriptor again.
    pub trace: u64,
    /// The conversation, as its LNVC descriptor index.
    pub lnvc: u32,
    /// Payload length of the completed send.
    pub len: u32,
    /// 0 on success, else the `MpfError::status_code` of the failure.
    pub status: i32,
}

impl AioCompletion {
    /// Whether the submission completed successfully.
    pub fn ok(&self) -> bool {
        self.status == 0
    }
}

/// Point-in-time counters of one process's submission/completion ring
/// pair (also surfaced by the region inspector and `mpfstat`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AioStats {
    /// Descriptors currently staged in the submission ring.
    pub sq_depth: usize,
    /// Completions currently waiting to be reaped.
    pub cq_depth: usize,
    /// Submission-ring doorbell rings (batches, not descriptors).
    pub sq_doorbells: u64,
    /// Completion-ring doorbell rings.
    pub cq_doorbells: u64,
    /// Descriptors ever submitted.
    pub submitted: u64,
    /// Descriptors ever drained out of the submission ring.
    pub drained: u64,
    /// Completions ever pushed.
    pub completed: u64,
    /// Completions ever reaped by the submitter.
    pub reaped: u64,
}

impl AioStats {
    /// Builds the snapshot from a ring pair.
    pub fn from_rings(sq: &mpf_shm::ring::AioRing, cq: &mpf_shm::ring::AioRing) -> Self {
        Self {
            sq_depth: sq.depth(),
            cq_depth: cq.depth(),
            sq_doorbells: sq.doorbell_count(),
            cq_doorbells: cq.doorbell_count(),
            submitted: sq.total_enqueued(),
            drained: sq.total_dequeued(),
            completed: cq.total_enqueued(),
            reaped: cq.total_dequeued(),
        }
    }
}
