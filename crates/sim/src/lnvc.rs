//! What the simulator keeps per conversation for its cost model.
//!
//! Who gets which message, and what is fully delivered, is the §3
//! contract's answer: the engine asks its [`mpf::spec::Spec`].  A
//! [`SimLnvc`] holds only what the timing needs.

use std::collections::BTreeMap;

use mpf::spec::MsgId;

/// One simulated conversation's cost-model state.
#[derive(Debug, Default)]
pub struct SimLnvc {
    /// Engine lock id guarding this LNVC.
    pub lock: usize,
    /// Simulated processors blocked waiting for a message here.
    pub waiters: Vec<usize>,
    /// Each queued message's length.
    pub lens: BTreeMap<MsgId, usize>,
    /// Bytes reclaimed and not yet charged (the engine charges
    /// reclamation in the second lock phase, and prices it by whether
    /// there is any).
    pub reclaimed: u64,
}
