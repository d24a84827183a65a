//! # mpf-check — deterministic schedule exploration for MPF
//!
//! A controlled-concurrency test harness: it runs N logical MPF processes
//! (plain closures) on N OS threads, but a cooperative scheduler serializes
//! them so exactly one makes progress at a time, switching only at the
//! instrumented sync points `mpf_shm::hooks` exports (lock acquire/release,
//! wait-queue wait/notify, pool alloc/free).  Because every racy primitive
//! in the facility funnels through that seam, permuting the switch
//! decisions permutes every interleaving that matters — and the same
//! decision sequence always reproduces the same execution.
//!
//! Two exploration modes:
//!
//! * [`explore_dfs`] — bounded exhaustive depth-first enumeration for small
//!   cases.  Failures carry the choice list ([`ScheduleId::Choices`]);
//!   [`replay_choices`] re-runs exactly that interleaving.
//! * [`explore_random`] — seeded PCT-style random-priority schedules for
//!   larger cases.  Failures carry the seed ([`ScheduleId::Seed`]);
//!   [`replay_seed`] re-runs it.
//!
//! The harness detects panics, deadlocks (nobody runnable while somebody is
//! blocked), livelocks (decision budget exceeded), and final-state check
//! failures (typically `Mpf::check_invariants`).  [`Report::assert_ok`]
//! prints the failing schedule and a replay recipe.
//!
//! ```
//! use std::sync::Arc;
//! use std::sync::atomic::{AtomicU32, Ordering};
//! use mpf_shm::IpcLock;
//! use mpf_check::{explore_dfs, Case, ExploreOpts};
//!
//! // A racy check-then-act: each process reads the counter in one
//! // critical section of the engine's lock and writes back in another.
//! // DFS finds the lost update within a handful of schedules.
//! let report = explore_dfs(&ExploreOpts::new("lost-update"), || {
//!     let counter = Arc::new((IpcLock::new(), AtomicU32::new(0)));
//!     let final_value = Arc::new(AtomicU32::new(0));
//!     let procs: Vec<Box<dyn FnOnce() + Send>> = (0..2)
//!         .map(|_| {
//!             let c = Arc::clone(&counter);
//!             Box::new(move || {
//!                 let (lock, n) = &*c;
//!                 lock.lock(1, |_| true);
//!                 let v = n.load(Ordering::Relaxed);
//!                 lock.unlock();
//!                 lock.lock(1, |_| true);
//!                 n.store(v + 1, Ordering::Relaxed);
//!                 lock.unlock();
//!             }) as Box<dyn FnOnce() + Send>
//!         })
//!         .collect();
//!     let (c, f) = (Arc::clone(&counter), Arc::clone(&final_value));
//!     Case {
//!         procs,
//!         death: None,
//!         check: Box::new(move || {
//!             f.store(c.1.load(Ordering::Relaxed), Ordering::Relaxed);
//!             Ok(())
//!         }),
//!     }
//! });
//! assert!(report.failure.is_none());
//! ```
//!
//! The schedule budget scales with the `MPF_CHECK_SCHEDULE_SCALE`
//! environment variable (a float multiplier, default 1.0) so CI can run a
//! bounded sweep on pull requests and a much deeper one nightly without
//! touching the scenarios.

mod controller;
pub mod sched;

mod explore;

pub use explore::{
    explore_dfs, explore_random, replay_choices, replay_seed, Case, DeathPlan, ExploreOpts,
    Failure, FailureKind, Report, ScheduleId,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    use mpf_shm::IpcLock;

    /// A counter behind the engine's lock: each call is one critical
    /// section, a scheduling decision for the harness.
    #[derive(Default)]
    struct Locked(IpcLock, AtomicU32);

    impl Locked {
        fn with<R>(&self, f: impl FnOnce(&AtomicU32) -> R) -> R {
            self.0.lock(1, |_| true);
            let r = f(&self.1);
            self.0.unlock();
            r
        }

        fn get(&self) -> u32 {
            self.with(|n| n.load(Ordering::Relaxed))
        }
    }

    fn two_procs(f: impl Fn() -> Box<dyn FnOnce() + Send>) -> Vec<Box<dyn FnOnce() + Send>> {
        vec![f(), f()]
    }

    /// Two processes increment under a single critical section: every
    /// schedule ends at 2.
    #[test]
    fn dfs_passes_atomic_increment() {
        let opts = ExploreOpts::new("atomic-increment").max_schedules(512);
        let report = explore_dfs(&opts, || {
            let counter = Arc::new(Locked::default());
            let procs = two_procs(|| {
                let c = Arc::clone(&counter);
                Box::new(move || {
                    c.with(|n| n.fetch_add(1, Ordering::Relaxed));
                })
            });
            let c = Arc::clone(&counter);
            Case {
                procs,
                death: None,
                check: Box::new(move || {
                    let v = c.get();
                    if v == 2 {
                        Ok(())
                    } else {
                        Err(format!("expected 2, got {v}"))
                    }
                }),
            }
        });
        report.assert_ok();
        assert!(report.exhausted, "tree small enough to enumerate fully");
        assert!(report.schedules > 1, "explored more than one interleaving");
    }

    /// Read and write in separate critical sections: DFS must find the
    /// lost-update schedule, and the recorded choices must replay it.
    #[test]
    fn dfs_finds_lost_update_and_replays_it() {
        let make = || {
            let counter = Arc::new(Locked::default());
            let procs: Vec<Box<dyn FnOnce() + Send>> = (0..2)
                .map(|_| {
                    let c = Arc::clone(&counter);
                    Box::new(move || {
                        let v = c.get();
                        c.with(|n| n.store(v + 1, Ordering::Relaxed));
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            let c = Arc::clone(&counter);
            Case {
                procs,
                death: None,
                check: Box::new(move || {
                    let v = c.get();
                    if v == 2 {
                        Ok(())
                    } else {
                        Err(format!("lost update: expected 2, got {v}"))
                    }
                }),
            }
        };
        let opts = ExploreOpts::new("lost-update").max_schedules(512);
        let report = explore_dfs(&opts, make);
        let failure = report.failure.expect("DFS must find the lost update");
        assert!(
            matches!(failure.kind, FailureKind::CheckFailed(_)),
            "{failure:?}"
        );
        let ScheduleId::Choices(choices) = &failure.schedule else {
            panic!("DFS failures carry choice lists");
        };
        let replayed = replay_choices(&opts, choices, make);
        assert!(
            matches!(replayed, Some(FailureKind::CheckFailed(_))),
            "replay must reproduce the failure, got {replayed:?}"
        );
    }

    /// Classic ABBA deadlock: DFS finds the schedule where each process
    /// holds one lock and blocks on the other.
    #[test]
    fn dfs_detects_abba_deadlock() {
        let opts = ExploreOpts::new("abba").max_schedules(512);
        let report = explore_dfs(&opts, || {
            let a = Arc::new(Locked::default());
            let b = Arc::new(Locked::default());
            let p0 = {
                let (a, b) = (Arc::clone(&a), Arc::clone(&b));
                Box::new(move || a.with(|_| b.with(|_| ()))) as Box<dyn FnOnce() + Send>
            };
            let p1 = {
                let (a, b) = (Arc::clone(&a), Arc::clone(&b));
                Box::new(move || b.with(|_| a.with(|_| ()))) as Box<dyn FnOnce() + Send>
            };
            Case {
                procs: vec![p0, p1],
                death: None,
                check: Box::new(|| Ok(())),
            }
        });
        let failure = report.failure.expect("DFS must find the ABBA deadlock");
        assert!(
            matches!(failure.kind, FailureKind::Deadlock { .. }),
            "{failure:?}"
        );
    }

    /// A process that retries a hooked lock forever trips the decision
    /// budget instead of hanging the test suite.
    #[test]
    fn step_limit_catches_livelock() {
        let opts = ExploreOpts::new("livelock").max_schedules(1).max_steps(200);
        let report = explore_dfs(&opts, || {
            let m = Arc::new(Locked::default());
            let p = {
                let m = Arc::clone(&m);
                Box::new(move || loop {
                    m.with(|_| ());
                }) as Box<dyn FnOnce() + Send>
            };
            Case {
                procs: vec![p],
                death: None,
                check: Box::new(|| Ok(())),
            }
        });
        let failure = report.failure.expect("must hit the step limit");
        assert!(
            matches!(failure.kind, FailureKind::StepLimit),
            "{failure:?}"
        );
    }

    /// A scenario panic is caught, attributed to the right process, and
    /// reproducible from its seed.
    #[test]
    fn random_reports_panics_with_replayable_seed() {
        let make = || {
            let flag = Arc::new(AtomicU32::new(0));
            let m = Arc::new(Locked::default());
            // Process 1 panics iff it runs its lock section before
            // process 0 sets the flag — schedule-dependent.
            let p0 = {
                let (flag, m) = (Arc::clone(&flag), Arc::clone(&m));
                Box::new(move || {
                    m.with(|_| ());
                    flag.store(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send>
            };
            let p1 = {
                let (flag, m) = (Arc::clone(&flag), Arc::clone(&m));
                Box::new(move || {
                    m.with(|_| ());
                    assert_eq!(flag.load(Ordering::Relaxed), 1, "ran before p0");
                }) as Box<dyn FnOnce() + Send>
            };
            Case {
                procs: vec![p0, p1],
                death: None,
                check: Box::new(|| Ok(())),
            }
        };
        let opts = ExploreOpts::new("ordered-assert").max_schedules(64);
        let report = explore_random(&opts, 42, make);
        let failure = report.failure.expect("some seed must run p1 first");
        let FailureKind::Panic { thread, .. } = &failure.kind else {
            panic!("expected a panic failure, got {:?}", failure.kind);
        };
        assert_eq!(*thread, 1);
        let ScheduleId::Seed(seed) = failure.schedule else {
            panic!("random failures carry seeds");
        };
        let replayed = replay_seed(&opts, seed, make);
        assert!(
            matches!(replayed, Some(FailureKind::Panic { thread: 1, .. })),
            "seed replay must reproduce the panic, got {replayed:?}"
        );
    }

    /// A mortal single process: DFS must enumerate both the schedules
    /// where it survives (counter reaches 1) and the schedules where it is
    /// killed at some decision point — including before it ever ran.
    #[test]
    fn dfs_enumerates_death_at_every_depth() {
        use std::sync::atomic::AtomicBool;
        let died_runs = Arc::new(AtomicU32::new(0));
        let survived_runs = Arc::new(AtomicU32::new(0));
        let opts = ExploreOpts::new("mortal-increment").max_schedules(512);
        let (dr, sr) = (Arc::clone(&died_runs), Arc::clone(&survived_runs));
        let report = explore_dfs(&opts, move || {
            let counter = Arc::new(Locked::default());
            let died = Arc::new(AtomicBool::new(false));
            let proc0 = {
                let c = Arc::clone(&counter);
                Box::new(move || {
                    c.with(|n| n.fetch_add(1, Ordering::Relaxed));
                }) as Box<dyn FnOnce() + Send>
            };
            let on_death = {
                let died = Arc::clone(&died);
                Box::new(move |_tid: usize| died.store(true, Ordering::Relaxed))
            };
            let (c, died) = (Arc::clone(&counter), Arc::clone(&died));
            let (dr, sr) = (Arc::clone(&dr), Arc::clone(&sr));
            Case {
                procs: vec![proc0],
                death: Some(DeathPlan {
                    victims: vec![0],
                    on_death,
                }),
                check: Box::new(move || {
                    let v = c.get();
                    if died.load(Ordering::Relaxed) {
                        // Killed before or after the increment — both are
                        // legal final states of a sudden death.
                        dr.fetch_add(1, Ordering::Relaxed);
                        Ok(())
                    } else if v == 1 {
                        sr.fetch_add(1, Ordering::Relaxed);
                        Ok(())
                    } else {
                        Err(format!("survived but counter is {v}"))
                    }
                }),
            }
        });
        report.assert_ok();
        assert!(report.exhausted, "mortal tree is small enough to enumerate");
        assert!(died_runs.load(Ordering::Relaxed) > 0, "no death schedules");
        assert!(
            survived_runs.load(Ordering::Relaxed) > 0,
            "no survival schedules"
        );
    }

    /// A death-dependent failure (killed before the increment) is found by
    /// DFS and its choice list replays the kill at exactly the recorded
    /// decision.
    #[test]
    fn dfs_death_failures_replay() {
        use std::sync::atomic::AtomicBool;
        let make = || {
            let counter = Arc::new(Locked::default());
            let died = Arc::new(AtomicBool::new(false));
            let proc0 = {
                let c = Arc::clone(&counter);
                Box::new(move || {
                    c.with(|n| n.fetch_add(1, Ordering::Relaxed));
                }) as Box<dyn FnOnce() + Send>
            };
            let on_death = {
                let died = Arc::clone(&died);
                Box::new(move |_tid: usize| died.store(true, Ordering::Relaxed))
            };
            let (c, died) = (Arc::clone(&counter), Arc::clone(&died));
            Case {
                procs: vec![proc0],
                death: Some(DeathPlan {
                    victims: vec![0],
                    on_death,
                }),
                check: Box::new(move || {
                    if died.load(Ordering::Relaxed) && c.get() == 0 {
                        Err("killed before the increment".into())
                    } else {
                        Ok(())
                    }
                }),
            }
        };
        let opts = ExploreOpts::new("death-replay").max_schedules(512);
        let report = explore_dfs(&opts, make);
        let failure = report.failure.expect("DFS must kill before the increment");
        assert!(
            matches!(failure.kind, FailureKind::CheckFailed(_)),
            "{failure:?}"
        );
        let ScheduleId::Choices(choices) = &failure.schedule else {
            panic!("DFS failures carry choice lists");
        };
        let replayed = replay_choices(&opts, choices, make);
        assert!(
            matches!(replayed, Some(FailureKind::CheckFailed(_))),
            "replay must re-kill at the recorded decision, got {replayed:?}"
        );
    }

    /// Random schedules take kill options with their seeded probability:
    /// across a modest seed range, some runs must kill the victim.
    #[test]
    fn random_schedules_take_kills() {
        use std::sync::atomic::AtomicBool;
        let died_runs = Arc::new(AtomicU32::new(0));
        let dr = Arc::clone(&died_runs);
        let opts = ExploreOpts::new("random-kills").max_schedules(64);
        let report = explore_random(&opts, 0x5EED, move || {
            let counter = Arc::new(Locked::default());
            let died = Arc::new(AtomicBool::new(false));
            let procs: Vec<Box<dyn FnOnce() + Send>> = (0..2)
                .map(|_| {
                    let c = Arc::clone(&counter);
                    Box::new(move || {
                        c.with(|n| n.fetch_add(1, Ordering::Relaxed));
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            let on_death = {
                let died = Arc::clone(&died);
                Box::new(move |_tid: usize| died.store(true, Ordering::Relaxed))
            };
            let (died, dr) = (Arc::clone(&died), Arc::clone(&dr));
            Case {
                procs,
                death: Some(DeathPlan {
                    victims: vec![0],
                    on_death,
                }),
                check: Box::new(move || {
                    if died.load(Ordering::Relaxed) {
                        dr.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(())
                }),
            }
        });
        report.assert_ok();
        assert!(
            died_runs.load(Ordering::Relaxed) > 0,
            "no random schedule took a kill in 64 seeds"
        );
    }

    /// Blocking wait/notify round-trip: a consumer parks on a hooked wait
    /// queue and the producer's notify wakes it — no schedule deadlocks.
    #[test]
    fn waitq_handoff_never_deadlocks() {
        use mpf_shm::waitq::{WaitQueue, WaitStrategy};
        let opts = ExploreOpts::new("waitq-handoff").max_schedules(512);
        let report = explore_dfs(&opts, || {
            let q = Arc::new(WaitQueue::new());
            let data = Arc::new(AtomicU32::new(0));
            let consumer = {
                let (q, data) = (Arc::clone(&q), Arc::clone(&data));
                Box::new(move || loop {
                    let t = q.ticket();
                    if data.load(Ordering::Relaxed) != 0 {
                        break;
                    }
                    q.wait(t, WaitStrategy::Spin);
                }) as Box<dyn FnOnce() + Send>
            };
            let producer = {
                let (q, data) = (Arc::clone(&q), Arc::clone(&data));
                Box::new(move || {
                    data.store(7, Ordering::Relaxed);
                    q.notify_all();
                }) as Box<dyn FnOnce() + Send>
            };
            let data = Arc::clone(&data);
            Case {
                procs: vec![consumer, producer],
                death: None,
                check: Box::new(move || {
                    if data.load(Ordering::Relaxed) == 7 {
                        Ok(())
                    } else {
                        Err("consumer finished without the value".into())
                    }
                }),
            }
        });
        report.assert_ok();
        assert!(report.exhausted);
    }
}
