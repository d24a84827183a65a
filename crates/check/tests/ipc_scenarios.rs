//! Schedule-exploration scenarios for what only a *named* region can
//! show: peer death and the process doorbell.  Each logical process drives
//! its own [`IpcMpf::attach_view`] — its own mapping of the shared region
//! (own process slot, own base address) — so a kill abandons a real slot
//! and the hook layer must recognise one in-region word behind two
//! addresses.  The immortal protocol races (obligation leak, exactly-once
//! FCFS, churn, conservation) run the same engine through `Mpf` in
//! `scenarios.rs`.
//!
//! A modeled kill lands at a hook — a lock acquire or release, a futex
//! wait or notify, the sleeper-gate yield, an aio ring push or pop — and
//! the engine's plain-store words
//! (`next_seq`, `msg_count`, a message's `flags` and `bcast_pending`, the
//! heartbeat, the per-LNVC telemetry) are each a load and a store with no
//! hook between them, inside a lock hold.  So no schedule here can tear
//! one: a victim dies before the pair or after it, holding the lock either
//! way, and the sweep poisons what it held — the same states as when the
//! pairs were single RMWs.
//!
//! The genuinely cross-address-space variants of these scenarios live in
//! `crates/ipc/tests/cross_process.rs`; here the scheduler can permute the
//! racy regions deterministically instead of hoping the OS happens to.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use mpf::inspect::RegionInspector;
use mpf::{MpfConfig, MpfError, Protocol};
use mpf_check::{explore_dfs, explore_random, Case, DeathPlan, ExploreOpts};
use mpf_ipc::IpcMpf;
use mpf_shm::waitq::FutexSeq;

type Proc = Box<dyn FnOnce() + Send>;

/// Region names must be fresh per schedule: the previous schedule's
/// region is unlinked when its last view drops, but a monotonic counter
/// keeps any straggler from colliding.
fn region(tag: &str) -> IpcMpf {
    named_region(tag).1
}

/// [`region`] plus its name, for scenarios whose final check reads the
/// region back through a [`RegionInspector`].
fn named_region(tag: &str) -> (String, IpcMpf) {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let cfg = MpfConfig::new(4, 4)
        .with_block_payload(32)
        .with_total_blocks(16)
        .with_max_messages(8)
        .with_max_connections(8);
    let name = format!("chk-{tag}-{}-{n}", std::process::id());
    let region = IpcMpf::create(&name, &cfg).expect("create region");
    (name, region)
}

/// What every doorbell scenario must leave behind once its survivors
/// have returned and the corpses are swept: no armed watch, no pool-wait
/// registration, nobody counted asleep on a live doorbell.
fn doorbell_state_is_clean(name: &str) -> Result<(), String> {
    let insp = RegionInspector::attach(name).map_err(|e| format!("inspect: {e}"))?;
    if insp.pool_waiters() != 0 {
        return Err(format!("{} pool waiters left behind", insp.pool_waiters()));
    }
    for p in insp.processes() {
        if p.watching != 0 || p.mem_wait {
            return Err(format!("slot {} still registered: {p:?}", p.pid));
        }
        if p.state == "attached" && p.asleep {
            return Err(format!("live slot {} still counted asleep", p.pid));
        }
    }
    Ok(())
}

/// Death mid-critical-section: the victim seizes the conversation's
/// in-region lock through its own view, and the scheduler may kill it at
/// any decision point — including while the lock is held.  The survivor's
/// next acquire must consult the liveness oracle, break the dead holder,
/// poison the conversation, and surface `PeerDied`; its close path must
/// still run on the poisoned conversation and free every block.  Before
/// modeled death this path was reachable only by actually SIGKILLing an
/// OS process mid-send (`mpf-soak`); here every kill point is enumerated.
///
/// `when_poisoned` is called once per schedule in which the survivor
/// observed `PeerDied` — the caller proves the lock-held kill point was
/// actually enumerated (and not just survived schedules).
fn ipc_death_mid_lock_case(when_poisoned: Arc<dyn Fn() + Send + Sync>) -> Case {
    let a = region("death");
    let v = a.attach_view().expect("victim view");
    let total = a.free_blocks();
    let tx = a.open_send("mort").expect("open send");
    let rx = a.open_receive("mort", Protocol::Fcfs).expect("open recv");
    // A second conversation whose only purpose is to give the victim a
    // *parked* decision point while it holds the first conversation's
    // lock: hooked processes park only at decision points (pre-acquire,
    // post-release), so without a nested acquire the victim could never
    // be caught mid-critical-section.
    let txb = a.open_send("mort-aux").expect("open aux send");
    let a = Arc::new(a);
    let v = Arc::new(v);
    let checker = Arc::clone(&a);
    let died = Arc::new(AtomicBool::new(false));
    let saw_poison = Arc::new(AtomicBool::new(false));
    // Victim (process 0, mortal): seize the conversation's lock, then
    // acquire a second one — parking, with the first lock held, at the
    // nested acquire's decision point.  A kill there dies holding the
    // lock: the in-region lock is not RAII, so unwinding the thread
    // releases nothing, exactly like a real SIGKILL.  Every call
    // tolerates `UnknownLnvc` — in schedules where the survivor runs to
    // completion first, its closes delete the conversations and the
    // victim's handles go stale.
    let victim = {
        let v = Arc::clone(&v);
        Box::new(move || {
            if v.debug_seize_lnvc_lock(tx).is_ok() {
                if v.debug_seize_lnvc_lock(txb).is_ok() {
                    let _ = v.debug_release_lnvc_lock(txb);
                }
                let _ = v.debug_release_lnvc_lock(tx);
            }
        }) as Proc
    };
    // Survivor (process 1): one send/receive round-trip, accepting
    // PeerDied wherever the poison surfaces, then production recovery —
    // close both connections (close works on poisoned conversations; the
    // last one out deletes the conversation and frees any queued blocks).
    let survivor = {
        let a = Arc::clone(&a);
        let saw_poison = Arc::clone(&saw_poison);
        Box::new(move || {
            let mut buf = [0u8; 32];
            match a.message_send(tx, b"ping") {
                Ok(()) => match a.try_message_receive(rx, &mut buf) {
                    Ok(got) => assert!(got.is_some(), "sent message must be queued"),
                    Err(MpfError::PeerDied { .. }) => saw_poison.store(true, Ordering::Relaxed),
                    Err(e) => panic!("recv after send: {e:?}"),
                },
                Err(MpfError::PeerDied { .. }) => saw_poison.store(true, Ordering::Relaxed),
                Err(e) => panic!("send: {e:?}"),
            }
            a.close_send(tx)
                .expect("close send on poisoned conversation");
            a.close_receive(rx)
                .expect("close recv on poisoned conversation");
            a.close_send(txb).expect("close aux send");
        }) as Proc
    };
    let on_death = {
        let died = Arc::clone(&died);
        let v = Arc::clone(&v);
        Box::new(move |_tid: usize| {
            // Hook-free by contract: two atomic stores.  Abandoning the
            // slot flips the liveness oracle so survivors see a corpse.
            died.store(true, Ordering::Relaxed);
            v.debug_abandon_slot();
        })
    };
    Case {
        procs: vec![victim, survivor],
        death: Some(DeathPlan {
            victims: vec![0],
            on_death,
        }),
        check: Box::new(move || {
            if saw_poison.load(Ordering::Relaxed) {
                if !died.load(Ordering::Relaxed) {
                    return Err("observed PeerDied but nobody was killed".into());
                }
                when_poisoned();
            }
            if checker.free_blocks() != total {
                return Err(format!(
                    "block leak after modeled death: {} free of {total}",
                    checker.free_blocks()
                ));
            }
            if checker.live_lnvcs() != 0 {
                return Err("conversation must be gone after the survivor closes".into());
            }
            Ok(())
        }),
    }
}

#[test]
fn ipc_death_mid_critical_section_dfs() {
    let poisoned_runs = Arc::new(AtomicUsize::new(0));
    let bump: Arc<dyn Fn() + Send + Sync> = {
        let p = Arc::clone(&poisoned_runs);
        Arc::new(move || {
            p.fetch_add(1, Ordering::Relaxed);
        })
    };
    let opts = ExploreOpts::new("ipc-death-mid-lock").max_schedules(400);
    explore_dfs(&opts, || ipc_death_mid_lock_case(Arc::clone(&bump))).assert_ok();
    assert!(
        poisoned_runs.load(Ordering::Relaxed) > 0,
        "DFS never enumerated a kill-while-lock-held schedule"
    );
}

#[test]
fn ipc_death_mid_critical_section_random() {
    let poisoned_runs = Arc::new(AtomicUsize::new(0));
    let bump: Arc<dyn Fn() + Send + Sync> = {
        let p = Arc::clone(&poisoned_runs);
        Arc::new(move || {
            p.fetch_add(1, Ordering::Relaxed);
        })
    };
    let opts = ExploreOpts::new("ipc-death-mid-lock-pct").max_schedules(200);
    explore_random(&opts, 0xDEAD, || ipc_death_mid_lock_case(Arc::clone(&bump))).assert_ok();
    assert!(
        poisoned_runs.load(Ordering::Relaxed) > 0,
        "random schedules never took a kill-while-lock-held option"
    );
}

/// The acceptance path end-to-end: DFS *finds* a schedule in which the
/// poison surfaced (reported here as a deliberate check failure), and the
/// recorded choice list replays that exact schedule — kill point included
/// — reproducing the same failure.  This is the previously SIGKILL-only
/// failure mode made deterministic and replayable.
#[test]
fn ipc_death_schedule_is_replayable() {
    let make = || {
        let flagged = Arc::new(AtomicBool::new(false));
        let mark: Arc<dyn Fn() + Send + Sync> = {
            let f = Arc::clone(&flagged);
            Arc::new(move || f.store(true, Ordering::Relaxed))
        };
        let mut case = ipc_death_mid_lock_case(mark);
        let inner = case.check;
        case.check = Box::new(move || {
            inner()?;
            if flagged.load(Ordering::Relaxed) {
                return Err("poison-observed".into());
            }
            Ok(())
        });
        case
    };
    let opts = ExploreOpts::new("ipc-death-replay").max_schedules(400);
    let report = explore_dfs(&opts, make);
    let failure = report
        .failure
        .expect("DFS must reach a schedule where the survivor observes PeerDied");
    let mpf_check::FailureKind::CheckFailed(msg) = &failure.kind else {
        panic!("expected the marker check failure, got {:?}", failure.kind);
    };
    assert_eq!(msg, "poison-observed");
    let mpf_check::ScheduleId::Choices(choices) = &failure.schedule else {
        panic!("DFS failures carry choice lists");
    };
    let replayed = mpf_check::replay_choices(&opts, choices, make);
    assert!(
        matches!(replayed, Some(mpf_check::FailureKind::CheckFailed(ref m)) if m == "poison-observed"),
        "replay must re-kill at the recorded point, got {replayed:?}"
    );
}

/// Conservation under a dead sender: a message is queued from the victim's
/// own connection before exploration, and the victim may be killed before
/// it can close.  Whatever the interleaving — survivor sweeps the corpse
/// and sees poison, or drains the message first, or the victim survives
/// and closes cleanly — every payload block must return to the free list
/// and the conversation must be deletable.
fn ipc_dead_sender_case() -> Case {
    let a = region("corpse");
    let v = a.attach_view().expect("victim view");
    let total = a.free_blocks();
    let tx = v.open_send("doomed").expect("open send");
    let rx = a.open_receive("doomed", Protocol::Fcfs).expect("open recv");
    v.message_send(tx, b"last words").expect("seed send");
    let a = Arc::new(a);
    let v = Arc::new(v);
    let checker = Arc::clone(&a);
    let victim = {
        let v = Arc::clone(&v);
        Box::new(move || {
            v.close_send(tx).expect("close send");
        }) as Proc
    };
    let survivor = {
        let a = Arc::clone(&a);
        Box::new(move || {
            a.sweep_dead_peers();
            let mut buf = [0u8; 32];
            match a.try_message_receive(rx, &mut buf) {
                Ok(_) | Err(MpfError::PeerDied { .. }) => {}
                Err(e) => panic!("recv: {e:?}"),
            }
            a.close_receive(rx).expect("close recv");
        }) as Proc
    };
    let on_death = {
        let v = Arc::clone(&v);
        Box::new(move |_tid: usize| v.debug_abandon_slot())
    };
    Case {
        procs: vec![victim, survivor],
        death: Some(DeathPlan {
            victims: vec![0],
            on_death,
        }),
        check: Box::new(move || {
            // The victim may have died after the survivor's sweep; reap
            // it now (the check runs unhooked) so the corpse's send
            // connection is swept and an orphaned conversation deleted —
            // exactly what the next live process would do.
            checker.sweep_dead_peers();
            if checker.free_blocks() != total {
                return Err(format!(
                    "dead sender leaked blocks: {} free of {total}",
                    checker.free_blocks()
                ));
            }
            if checker.live_lnvcs() != 0 {
                return Err("conversation must be reclaimable after the corpse is swept".into());
            }
            Ok(())
        }),
    }
}

#[test]
fn ipc_dead_sender_conservation_dfs() {
    let opts = ExploreOpts::new("ipc-dead-sender").max_schedules(300);
    explore_dfs(&opts, ipc_dead_sender_case).assert_ok();
}

#[test]
fn ipc_dead_sender_conservation_random() {
    let opts = ExploreOpts::new("ipc-dead-sender-pct").max_schedules(150);
    explore_random(&opts, 0xC0FFE, ipc_dead_sender_case).assert_ok();
}

// ---------------------------------------------------------------------
// The process doorbell: one sleep word per process, rung by everything
// that can unblock it.  A lost wake shows up here as a deadlock — hooked
// waits have no timeout to fall back on.
// ---------------------------------------------------------------------

/// {arm, enqueue on the non-first member, sleep}: a two-member wait set
/// whose *second* member receives the only message.  Under the old
/// first-member futex wait this was not even explorable (the hooked wait
/// could never be woken by another member); now every interleaving of the
/// watcher's arm / check / sleep with the sender's enqueue / bump / ring
/// must end with the watcher reporting the second member.
fn doorbell_second_member_case() -> Case {
    let (name, a) = named_region("bell");
    let b = a.attach_view().expect("sender view");
    let total = a.free_blocks();
    let _t1 = b.open_send("m1").expect("open m1");
    let r1 = a.open_receive("m1", Protocol::Fcfs).expect("recv m1");
    let t2 = b.open_send("m2").expect("open m2");
    let r2 = a.open_receive("m2", Protocol::Fcfs).expect("recv m2");
    let a = Arc::new(a);
    let checker = Arc::clone(&a);
    let watcher = {
        let a = Arc::clone(&a);
        Box::new(move || {
            let ready = a.wait_any_deadline(&[r1, r2], None).expect("wait_any");
            assert_eq!(ready, r2, "only the second member has traffic");
            let mut buf = [0u8; 32];
            assert!(a.try_message_receive(r2, &mut buf).expect("recv").is_some());
        }) as Proc
    };
    let sender = Box::new(move || {
        b.message_send(t2, b"second").expect("send");
    }) as Proc;
    Case {
        procs: vec![watcher, sender],
        death: None,
        check: Box::new(move || {
            if checker.free_blocks() != total {
                return Err("blocks leaked".into());
            }
            doorbell_state_is_clean(&name)
        }),
    }
}

#[test]
fn ipc_doorbell_wakes_on_non_first_member_dfs() {
    let opts = ExploreOpts::new("ipc-doorbell-second-member").max_schedules(300);
    explore_dfs(&opts, doorbell_second_member_case).assert_ok();
}

#[test]
fn ipc_doorbell_wakes_on_non_first_member_random() {
    let opts = ExploreOpts::new("ipc-doorbell-second-member-pct").max_schedules(200);
    explore_random(&opts, 0xBE11, doorbell_second_member_case).assert_ok();
}

/// A watcher's peer is killed mid-registration: the victim watches the
/// same conversation as the survivor and may die at any decision point —
/// holding the conversation's lock inside its arm, armed and asleep on its
/// own doorbell, or not at all.  The sender's one message (or the poison
/// its lock-break leaves) must still reach the survivor, whose wait has
/// no timeout here; afterwards the sweep must have retired the corpse's
/// watch with its connection.
fn doorbell_peer_killed_case() -> Case {
    let (name, s) = named_region("bell-kill");
    let v = s.attach_view().expect("victim view");
    let p = s.attach_view().expect("sender view");
    let total = s.free_blocks();
    let tx = p.open_send("x").expect("open x");
    let _ty = p.open_send("y").expect("open y");
    // Different protocols, so one message is deliverable to both.
    let rs_x = s.open_receive("x", Protocol::Fcfs).expect("survivor x");
    let rs_y = s.open_receive("y", Protocol::Fcfs).expect("survivor y");
    let rv_x = v.open_receive("x", Protocol::Broadcast).expect("victim x");
    let s = Arc::new(s);
    let v = Arc::new(v);
    let checker = Arc::clone(&s);
    let victim = {
        let v = Arc::clone(&v);
        Box::new(move || match v.wait_any_deadline(&[rv_x], None) {
            Ok(_) | Err(MpfError::PeerDied { .. }) => {}
            Err(e) => panic!("victim wait: {e:?}"),
        }) as Proc
    };
    let survivor = {
        let s = Arc::clone(&s);
        Box::new(move || {
            // The quiet member first: the wake must come from the second.
            match s.wait_any_deadline(&[rs_y, rs_x], None) {
                Ok(id) => assert_eq!(id, rs_x),
                Err(MpfError::PeerDied { .. }) => {}
                Err(e) => panic!("survivor wait: {e:?}"),
            }
            s.close_receive(rs_x).expect("close x");
            s.close_receive(rs_y).expect("close y");
        }) as Proc
    };
    let sender = Box::new(move || {
        match p.message_send(tx, b"for both") {
            Ok(()) | Err(MpfError::PeerDied { .. }) => {}
            Err(e) => panic!("send: {e:?}"),
        }
        p.close_send(tx).expect("close send x");
        p.close_send(_ty).expect("close send y");
    }) as Proc;
    let on_death = {
        let v = Arc::clone(&v);
        Box::new(move |_tid: usize| v.debug_abandon_slot())
    };
    Case {
        procs: vec![victim, survivor, sender],
        death: Some(DeathPlan {
            victims: vec![0],
            on_death,
        }),
        check: Box::new(move || {
            // Reap a victim that died after the survivor's last sweep; a
            // victim that outlived the schedule closes like anyone else.
            if checker.sweep_dead_peers() == 0 && v.peer_alive(v.pid()) {
                let _ = v.close_receive(rv_x);
            }
            if checker.free_blocks() != total {
                return Err(format!(
                    "blocks leaked: {} free of {total}",
                    checker.free_blocks()
                ));
            }
            if checker.live_lnvcs() != 0 {
                return Err("conversations must be gone".into());
            }
            doorbell_state_is_clean(&name)
        }),
    }
}

#[test]
fn ipc_doorbell_survives_dead_watcher_dfs() {
    let opts = ExploreOpts::new("ipc-doorbell-dead-watcher").max_schedules(400);
    explore_dfs(&opts, doorbell_peer_killed_case).assert_ok();
}

#[test]
fn ipc_doorbell_survives_dead_watcher_random() {
    let opts = ExploreOpts::new("ipc-doorbell-dead-watcher-pct").max_schedules(200);
    explore_random(&opts, 0xDEADBE11, doorbell_peer_killed_case).assert_ok();
}

/// The sleeper-count gate of the in-region wait queue: `notify_all` only
/// wakes (and, under hooks, only reports a notify) when somebody is
/// counted asleep.  With the window between a waiter's count and its
/// sequence re-check opened as a preemption — and kill — point, no
/// interleaving may leave the immortal waiter parked; a victim killed
/// inside the wait leaves the count high, which must stay harmless.
fn sleeper_gate_case() -> Case {
    let q = Arc::new(FutexSeq::new());
    let flag = Arc::new(AtomicBool::new(false));
    let waiter = |q: Arc<FutexSeq>, flag: Arc<AtomicBool>| {
        Box::new(move || loop {
            let t = q.ticket();
            if flag.load(Ordering::SeqCst) {
                return;
            }
            q.wait(t, None);
        }) as Proc
    };
    let notifier = {
        let (q, flag) = (Arc::clone(&q), Arc::clone(&flag));
        Box::new(move || {
            flag.store(true, Ordering::SeqCst);
            q.notify_all();
        }) as Proc
    };
    let died = Arc::new(AtomicBool::new(false));
    let on_death = {
        let died = Arc::clone(&died);
        Box::new(move |_tid: usize| died.store(true, Ordering::Relaxed))
    };
    Case {
        procs: vec![
            waiter(Arc::clone(&q), Arc::clone(&flag)),
            waiter(Arc::clone(&q), Arc::clone(&flag)),
            notifier,
        ],
        death: Some(DeathPlan {
            victims: vec![0],
            on_death,
        }),
        check: Box::new(move || {
            if !died.load(Ordering::Relaxed) && q.sleepers() != 0 {
                return Err(format!("{} sleepers counted, none exist", q.sleepers()));
            }
            Ok(())
        }),
    }
}

#[test]
fn ipc_sleeper_gate_loses_no_wake() {
    let opts = ExploreOpts::new("ipc-sleeper-gate")
        .max_schedules(300)
        .preempt_events(true);
    explore_dfs(&opts, sleeper_gate_case).assert_ok();
    explore_random(&opts, 0x6A7E, sleeper_gate_case).assert_ok();
}

/// {pool-wait registration, reclaim, sleep}: a sender blocked on an
/// exhausted message pool and the one receive that frees a header.  The
/// reclaim either precedes the sender's registration (its retry finds the
/// header) or follows it (the pool signal rings the sender's doorbell) —
/// in no interleaving may the send stay parked.  With `mortal`, the
/// sender may be killed anywhere, registered and asleep included: the
/// reclaim then rings a dead doorbell, and the sweep must retire the
/// registration.
fn pool_signal_case(mortal: bool) -> Case {
    let (name, a) = named_region("pool");
    let b = a.attach_view().expect("receiver view");
    let total = a.free_blocks();
    let tx = a.open_send("full").expect("open send");
    let rx = b.open_receive("full", Protocol::Fcfs).expect("open recv");
    for i in 0..8u8 {
        a.message_send(tx, &[i]).expect("fill the header pool");
    }
    let a = Arc::new(a);
    let b = Arc::new(b);
    let checker = Arc::clone(&b);
    let sender = {
        let a = Arc::clone(&a);
        Box::new(move || {
            a.send_deadline(tx, b"ninth", None).expect("blocked send");
        }) as Proc
    };
    let receiver = {
        let b = Arc::clone(&b);
        Box::new(move || {
            let mut buf = [0u8; 32];
            assert!(b.try_message_receive(rx, &mut buf).expect("recv").is_some());
        }) as Proc
    };
    let on_death = {
        let a = Arc::clone(&a);
        Box::new(move |_tid: usize| a.debug_abandon_slot())
    };
    Case {
        procs: vec![sender, receiver],
        death: mortal.then(|| DeathPlan {
            victims: vec![0],
            on_death,
        }),
        check: Box::new(move || {
            if checker.sweep_dead_peers() == 0 {
                // The sender lived: its ninth message took the freed slot.
                if checker.queue_depth(rx) != Ok(8) {
                    return Err(format!("queue holds {:?}, want 8", checker.queue_depth(rx)));
                }
                a.close_send(tx).map_err(|e| format!("close send: {e}"))?;
            }
            checker
                .close_receive(rx)
                .map_err(|e| format!("close recv: {e}"))?;
            // A sender killed between staging its message and linking it
            // leaks that one block (the pools' documented worst case).
            let floor = total - u32::from(mortal);
            if checker.free_blocks() < floor {
                return Err(format!(
                    "blocks leaked: {} free of {total}",
                    checker.free_blocks()
                ));
            }
            doorbell_state_is_clean(&name)
        }),
    }
}

#[test]
fn ipc_pool_signal_loses_no_wake() {
    let opts = ExploreOpts::new("ipc-pool-signal").max_schedules(300);
    explore_dfs(&opts, || pool_signal_case(false)).assert_ok();
    explore_random(&opts, 0x9001, || pool_signal_case(false)).assert_ok();
}

#[test]
fn ipc_pool_signal_survives_dead_waiter() {
    let opts = ExploreOpts::new("ipc-pool-signal-dead-waiter").max_schedules(300);
    explore_dfs(&opts, || pool_signal_case(true)).assert_ok();
    explore_random(&opts, 0xDEAD9001, || pool_signal_case(true)).assert_ok();
}

// ---------------------------------------------------------------------
// Runs that move whole: a batch leaves the pools with one pop each and
// comes back with one push each, so a death strands a run, not a message.
// ---------------------------------------------------------------------

/// Messages per batch, one block each: the run a death may leak.
const RUN: usize = 6;

/// A process asleep waiting for pool memory, a batch sender and a batch
/// receiver, one of the last two (`victim`: 1 or 2) mortal.  The sleeper
/// goes first so that depth-first exploration starts from schedules in
/// which it is already asleep.  Ring pushes and pops are
/// decision points here (`preempt_events`), so the sender can die
/// anywhere inside its submit — some of the run staged, the rest popped
/// and on no list — or inside its drain; the sleeper makes the pool
/// signal a decision point, so the receiver can die inside its reclaim,
/// holding the conversation's lock, with the run cut off the queue and
/// already pushed.  Whatever the schedule: the region audits clean but
/// for at most one leaked run, both pools still hand out each slot once,
/// and the survivor completes or sees `PeerDied`.
fn batch_death_case(victim: usize) -> Case {
    let (name, root) = named_region("run");
    let views = [(); 3].map(|()| Arc::new(root.attach_view().expect("view")));
    let [w, s, r] = views.clone();
    let total = root.free_blocks();
    let tx = s.open_send("batch").expect("open send");
    let rx = r.open_receive("batch", Protocol::Fcfs).expect("open recv");
    let over = Arc::new(AtomicBool::new(false));
    let died = Arc::new(AtomicBool::new(false));
    // Each of the two, when done, lets the sleeper go.
    let finish = |over: &AtomicBool, w: &IpcMpf| {
        over.store(true, Ordering::SeqCst);
        w.ring_doorbell();
    };
    let sender = {
        let (s, w, over) = (Arc::clone(&s), Arc::clone(&w), Arc::clone(&over));
        Box::new(move || {
            let payloads: Vec<[u8; 32]> = (0..RUN as u8).map(|i| [i; 32]).collect();
            let refs: Vec<&[u8]> = payloads.iter().map(|p| &p[..]).collect();
            match s.send_batch(tx, &refs) {
                // Every descriptor completes: sent, or — the receiver's
                // corpse already swept — failed as a run with `PeerDied`.
                Ok(done) => {
                    let died = MpfError::PeerDied { pid: 0 }.status_code();
                    assert_eq!(done.len(), RUN);
                    assert!(done.iter().all(|c| c.status == done[0].status));
                    assert!(done[0].ok() || done[0].status == died, "{done:?}");
                }
                Err(MpfError::PeerDied { .. }) => {}
                Err(e) => panic!("send_batch: {e:?}"),
            }
            finish(&over, &w);
        }) as Proc
    };
    let receiver = {
        let (r, w, over) = (Arc::clone(&r), Arc::clone(&w), Arc::clone(&over));
        Box::new(move || {
            // Never blocks: a hooked wait has no sweep cadence to fall
            // back on, so the survivor sweeps for itself.
            let mut got = 0u8;
            for _ in 0..2 {
                r.sweep_dead_peers();
                match r.try_recv_batch(rx, RUN) {
                    Ok(msgs) => {
                        for m in msgs {
                            assert_eq!(m, [got; 32], "FIFO, intact");
                            got += 1;
                        }
                    }
                    Err(MpfError::PeerDied { .. }) => break,
                    Err(e) => panic!("try_recv_batch: {e:?}"),
                }
            }
            finish(&over, &w);
        }) as Proc
    };
    let sleeper = {
        let (w, over) = (Arc::clone(&w), Arc::clone(&over));
        Box::new(move || w.debug_pool_wait(&|| over.load(Ordering::SeqCst))) as Proc
    };
    let on_death = {
        let (died, corpse) = (Arc::clone(&died), Arc::clone(&views[victim]));
        Box::new(move |_tid: usize| {
            died.store(true, Ordering::Relaxed);
            corpse.debug_abandon_slot();
        })
    };
    Case {
        procs: vec![sleeper, sender, receiver],
        death: Some(DeathPlan {
            victims: vec![victim],
            on_death,
        }),
        check: Box::new(move || {
            // The views outlive the processes: a view dropped by the last
            // closure to finish would run its detach under the scheduler,
            // and under the victim's name if that closure was the victim's.
            let _views = views;
            let died = died.load(Ordering::Relaxed);
            root.sweep_dead_peers();
            // The pool accounting is the audit's last step: every queue,
            // chain and free-list walk has passed when it reports a leak.
            let audit = |stage: &str| match root.check_invariants() {
                Err(e) if !(died && e.contains("leaked")) => Err(format!("{stage}: {e}")),
                _ => Ok(()),
            };
            audit("after the schedule")?;
            if !died || victim != 1 {
                s.close_send(tx).map_err(|e| format!("close send: {e}"))?;
            }
            if !died || victim != 2 {
                r.close_receive(rx)
                    .map_err(|e| format!("close recv: {e}"))?;
            }
            let free = root.free_blocks();
            let floor = if died { total - RUN as u32 } else { total };
            if free < floor || root.live_lnvcs() != 0 {
                return Err(format!(
                    "{free} blocks free of {total}, {} conversations live",
                    root.live_lnvcs()
                ));
            }
            // Both pools still hand out every slot once: a header or a
            // block pushed twice would come out twice here.
            let probe_tx = root.open_send("probe").map_err(|e| e.to_string())?;
            let probe_rx = root
                .open_receive("probe", Protocol::Fcfs)
                .map_err(|e| e.to_string())?;
            let sent = (0..8u8)
                .take_while(|&i| root.message_send(probe_tx, &[i; 64]).is_ok())
                .count();
            audit("with the pools emptied")?;
            let back = root
                .try_recv_batch(probe_rx, 8)
                .map_err(|e| e.to_string())?;
            let want: Vec<Vec<u8>> = (0..sent as u8).map(|i| vec![i; 64]).collect();
            if back != want || sent < if died { 8 - RUN } else { 8 } {
                return Err(format!("probe sent {sent}, got back {back:?}"));
            }
            if root.free_blocks() != free {
                return Err("the probe's blocks did not come back".into());
            }
            doorbell_state_is_clean(&name)
        }),
    }
}

#[test]
fn ipc_batch_sender_death_leaks_at_most_one_run() {
    let opts = ExploreOpts::new("ipc-batch-sender-death")
        .max_schedules(400)
        .preempt_events(true);
    explore_dfs(&opts, || batch_death_case(1)).assert_ok();
    explore_random(&opts, 0xDEAD5E4D, || batch_death_case(1)).assert_ok();
}

#[test]
fn ipc_batch_receiver_death_leaks_at_most_one_run() {
    let opts = ExploreOpts::new("ipc-batch-receiver-death")
        .max_schedules(400)
        .preempt_events(true);
    explore_dfs(&opts, || batch_death_case(2)).assert_ok();
    explore_random(&opts, 0xDEAD4EC7, || batch_death_case(2)).assert_ok();
}
