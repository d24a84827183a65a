//! Exponential backoff for spin loops.
//!
//! Busy-wait synchronization on a shared bus is the Balance 21000's native
//! idiom, but naive spinning saturates the bus (the paper's Figure 4 decline
//! is exactly this contention).  Bounded exponential backoff keeps retries
//! cheap without starving the lock holder.

use std::hint;
use std::thread;

/// Number of doublings spent issuing `spin_loop` hints before escalating to
/// `thread::yield_now`.
const SPIN_LIMIT: u32 = 6;
/// Number of doublings after which [`Backoff::snooze`] stops escalating.
const YIELD_LIMIT: u32 = 10;

/// Per-spin-loop backoff state.  Create one per acquisition attempt.
#[derive(Debug, Default)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    /// Fresh backoff (first wait will be a single pause).
    pub const fn new() -> Self {
        Self { step: 0 }
    }

    /// Resets to the initial state.
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Spin-only wait: `2^step` pause hints, capped.  Use inside
    /// lock-acquire loops where the critical section is known to be short.
    pub fn spin(&mut self) {
        for _ in 0..1u32 << self.step.min(SPIN_LIMIT) {
            hint::spin_loop();
        }
        if self.step <= SPIN_LIMIT {
            self.step += 1;
        }
    }

    /// Wait appropriate for condition loops: spins while cheap, then yields
    /// the CPU so an oversubscribed run (more processes than processors,
    /// as in the paper's 20-process runs) still makes progress.
    pub fn snooze(&mut self) {
        if self.step <= SPIN_LIMIT {
            for _ in 0..1u32 << self.step {
                hint::spin_loop();
            }
        } else {
            thread::yield_now();
        }
        if self.step <= YIELD_LIMIT {
            self.step += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalates_to_completed() {
        let mut b = Backoff::new();
        assert!(b.step <= YIELD_LIMIT);
        for _ in 0..=YIELD_LIMIT {
            b.snooze();
        }
        assert!(b.step > YIELD_LIMIT);
    }

    #[test]
    fn reset_restarts() {
        let mut b = Backoff::new();
        for _ in 0..=YIELD_LIMIT {
            b.snooze();
        }
        b.reset();
        assert!(b.step <= YIELD_LIMIT);
    }

    #[test]
    fn spin_caps_step() {
        let mut b = Backoff::new();
        for _ in 0..100 {
            b.spin();
        }
        // spin() never escalates past the spin limit + 1.
        assert!(b.step <= YIELD_LIMIT);
    }
}
