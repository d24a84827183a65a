//! Facility-wide instrumentation types that are not counters (the
//! counters themselves are `mpf_shm::telemetry`).

/// Pool occupancy held by **corpses**: queued messages that are fully
/// consumed and unpinned, awaiting a reclamation sweep.  Flow control uses
/// this to distinguish "pool full of live messages" (back-pressure is
/// real) from "pool full of corpses" (a sweep would free room).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Reclaimable {
    /// Message headers a sweep would free.
    pub messages: u32,
    /// Payload blocks a sweep would free.
    pub blocks: u64,
}
