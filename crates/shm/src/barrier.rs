//! Sense-reversing spin barrier.
//!
//! Used by the shared-memory baseline applications (the paradigm MPF is
//! compared against) and by benchmark harnesses to align phase starts.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

use crate::backoff::Backoff;

/// A reusable barrier for a fixed party count.
#[derive(Debug)]
pub struct SpinBarrier {
    parties: u32,
    count: AtomicU32,
    sense: AtomicBool,
}

impl SpinBarrier {
    /// Barrier for `parties` participants.  `parties` must be ≥ 1.
    pub fn new(parties: u32) -> Self {
        assert!(parties >= 1, "barrier needs at least one party");
        Self {
            parties,
            count: AtomicU32::new(0),
            sense: AtomicBool::new(false),
        }
    }

    /// Blocks until all parties arrive.  Returns `true` for exactly one
    /// caller per phase (the "leader", last to arrive), mirroring
    /// `std::sync::Barrier`.
    pub fn wait(&self) -> bool {
        let phase_sense = !self.sense.load(Ordering::Relaxed);
        let arrived = self.count.fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == self.parties {
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(phase_sense, Ordering::Release);
            true
        } else {
            let mut backoff = Backoff::new();
            while self.sense.load(Ordering::Acquire) != phase_sense {
                backoff.snooze();
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    #[test]
    fn single_party_never_blocks() {
        let b = SpinBarrier::new(1);
        assert!(b.wait());
        assert!(b.wait());
    }

    #[test]
    fn exactly_one_leader_per_phase() {
        const PARTIES: u32 = 6;
        const PHASES: usize = 50;
        let b = SpinBarrier::new(PARTIES);
        let leaders = AtomicUsize::new(0);
        thread::scope(|s| {
            for _ in 0..PARTIES {
                s.spawn(|| {
                    for _ in 0..PHASES {
                        if b.wait() {
                            leaders.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(leaders.load(Ordering::Relaxed), PHASES);
    }

    #[test]
    fn phases_are_totally_ordered() {
        const PARTIES: u32 = 4;
        const PHASES: usize = 100;
        let b = SpinBarrier::new(PARTIES);
        let counter = AtomicUsize::new(0);
        thread::scope(|s| {
            for _ in 0..PARTIES {
                s.spawn(|| {
                    for phase in 0..PHASES {
                        counter.fetch_add(1, Ordering::SeqCst);
                        b.wait();
                        // After the barrier, every party of this phase has
                        // incremented: the count is a multiple boundary.
                        let seen = counter.load(Ordering::SeqCst);
                        assert!(seen >= (phase + 1) * PARTIES as usize);
                        b.wait();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), PHASES * PARTIES as usize);
    }

    #[test]
    #[should_panic(expected = "at least one party")]
    fn zero_parties_panics() {
        let _ = SpinBarrier::new(0);
    }
}
