//! Integration tests for the deterministic fault plane driving the real
//! ipc facility: injected faults surface as the same typed errors the
//! genuine failure would, are recorded as `TR_FAULT` trace records, and
//! replay identically from the same seed.
//!
//! The plane is process-global, so every test here serializes on one
//! mutex; this file is its own test binary to keep the plane's state
//! away from the other ipc tests.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use mpf::inspect::RegionInspector;
use mpf::{MpfConfig, MpfError, Protocol};
use mpf_ipc::IpcMpf;
use mpf_shm::faultplane::{self, FaultConfig, FaultSite};
use mpf_shm::tracering::TR_FAULT;

static PLANE: Mutex<()> = Mutex::new(());

fn region(name: &str) -> IpcMpf {
    let cfg = MpfConfig::new(4, 4)
        .with_block_payload(64)
        .with_total_blocks(32)
        .with_max_messages(16);
    IpcMpf::create(name, &cfg).expect("create region")
}

#[test]
fn injected_peer_death_surfaces_typed_error_and_traces() {
    let _t = PLANE.lock().unwrap_or_else(|e| e.into_inner());
    let m = region("fault-peer");
    let tx = m.open_send("doomed").unwrap();
    let _rx = m.open_receive("doomed", Protocol::Fcfs).unwrap();

    let free_before = m.free_blocks();
    {
        let _g = faultplane::install(FaultConfig::new(11).with_peer_died(1.0));
        let err = m.message_send(tx, b"never arrives").unwrap_err();
        assert!(matches!(err, MpfError::PeerDied { .. }), "{err:?}");
    }
    // The injection allocated nothing and mutated no shared state: the
    // plane lies to one caller, not to the region.
    assert_eq!(m.free_blocks(), free_before);
    m.message_send(tx, b"works again").unwrap();

    // The injection left an audit record: TR_FAULT with the site code
    // and the surfaced status (arg2 != 0 = not silently swallowed).
    let faults: Vec<_> = m
        .trace_events(m.pid())
        .into_iter()
        .filter(|e| e.kind == TR_FAULT)
        .collect();
    assert_eq!(faults.len(), 1, "one injection, one TR_FAULT record");
    assert_eq!(faults[0].arg, FaultSite::PeerDied.code());
    assert_ne!(faults[0].arg2, 0, "the typed error's status is recorded");
}

/// Every blocking receive passes the peer-death site, batched or not; the
/// single-pass `try_` forms, which never wait, do not.
#[test]
fn injected_peer_death_reaches_blocking_batch_receives_only() {
    let _t = PLANE.lock().unwrap_or_else(|e| e.into_inner());
    let m = region("fault-peer-batch");
    let tx = m.open_send("doomed").unwrap();
    let rx = m.open_receive("doomed", Protocol::Fcfs).unwrap();
    for i in 0..4u8 {
        m.message_send(tx, &[i]).unwrap();
    }
    let died = MpfError::PeerDied { pid: 0 };
    let mut buf = [0u8; 8];
    {
        let _g = faultplane::install(FaultConfig::new(12).with_peer_died(1.0));
        assert_eq!(m.recv_batch(rx, 4), Err(died));
        assert_eq!(m.recv_batch_deadline(rx, 4, None), Err(died));
        assert_eq!(m.message_receive(rx, &mut buf), Err(died));
        // Nothing was consumed, and the single-pass forms still deliver.
        assert_eq!(m.queue_depth(rx), Ok(4));
        assert_eq!(m.try_message_receive(rx, &mut buf), Ok(Some(1)));
        assert_eq!(m.try_message_receive_vec(rx), Ok(Some(vec![1])));
        assert_eq!(m.try_recv_batch(rx, 1), Ok(vec![vec![2]]));
    }
    assert_eq!(m.recv_batch(rx, 4), Ok(vec![vec![3]]));
    let faults = m.trace_events(m.pid());
    let faults = faults.iter().filter(|e| e.kind == TR_FAULT);
    assert_eq!(faults.count(), 3, "one record per injection");
}

/// Runs `wait` on its own thread, runs `wake` once `parked` says the
/// waiter is in its wait and the kernel has put the thread to sleep (so
/// the wake is really needed), and returns how long after `wake` began
/// the wait returned.
fn wake_lag(
    wait: impl FnOnce() + Send,
    parked: impl Fn() -> bool,
    wake: impl FnOnce(),
) -> Duration {
    std::thread::scope(|s| {
        let (tid_tx, tid_rx) = std::sync::mpsc::channel();
        let waiter = s.spawn(move || {
            let me = std::fs::read_link("/proc/thread-self").expect("/proc/thread-self");
            tid_tx.send(me).expect("main thread");
            wait();
            Instant::now()
        });
        let stat = std::path::Path::new("/proc")
            .join(tid_rx.recv().expect("waiter tid"))
            .join("stat");
        // The state letter follows the parenthesised thread name.
        let sleeping = || {
            let stat = std::fs::read_to_string(&stat).unwrap_or_default();
            stat.rsplit(") ")
                .next()
                .is_some_and(|rest| rest.starts_with('S'))
        };
        let patience = Instant::now() + Duration::from_secs(30);
        while !(parked() && sleeping()) {
            assert!(Instant::now() < patience, "the waiter never parked");
            std::thread::yield_now();
        }
        let rung = Instant::now();
        wake();
        let done = waiter.join().expect("waiter");
        done.saturating_duration_since(rung)
    })
}

/// DESIGN.md's contract for a lost wake: with every notify dropped, each
/// of the engine's three waits — `recv_deadline`, `wait_any_deadline`,
/// `send_deadline` — still returns within two sweep intervals (2 × 50 ms)
/// of the send, or the freeing receive, that should have woken it.
#[test]
fn every_wait_outlives_a_dropped_wake_by_at_most_two_sweep_intervals() {
    const CONTRACT: Duration = Duration::from_millis(2 * 50);
    let _t = PLANE.lock().unwrap_or_else(|e| e.into_inner());
    let m = region("fault-notify");
    let peer = m.attach_view().expect("view");
    let insp = RegionInspector::attach("fault-notify").expect("inspect");
    let asleep = |pid: u32| insp.processes()[pid as usize].asleep;
    let tx = m.open_send("one").unwrap();
    let rx = peer.open_receive("one", Protocol::Fcfs).unwrap();
    let other_tx = m.open_send("other").unwrap();
    let other = peer.open_receive("other", Protocol::Fcfs).unwrap();
    let far = || Some(Instant::now() + Duration::from_secs(10));
    let mut buf = [0u8; 8];

    let _g = faultplane::install(FaultConfig {
        notify_drop: 1.0,
        ..FaultConfig::new(50)
    });
    // A receiver books its wait just before it sleeps.
    let recv = wake_lag(
        || assert_eq!(peer.recv_deadline(rx, &mut buf, far()), Ok(1)),
        || peer.telemetry_snapshot().recv_waits == 1,
        || m.message_send(tx, b"r").unwrap(),
    );
    let any = wake_lag(
        || assert_eq!(peer.wait_any_deadline(&[rx, other], far()), Ok(other)),
        || asleep(peer.pid()),
        || m.message_send(other_tx, b"a").unwrap(),
    );
    assert_eq!(peer.try_message_receive_vec(other), Ok(Some(b"a".to_vec())));
    // Every header queued: the next send finds the pool empty.
    while m.message_send(tx, b"f").is_ok() {}
    let send = wake_lag(
        || assert_eq!(m.send_deadline(tx, b"s", far()), Ok(())),
        || asleep(m.pid()),
        || assert_eq!(peer.recv_deadline(rx, &mut [0u8; 8], None), Ok(1)),
    );
    for (wait, lag) in [
        ("recv_deadline", recv),
        ("wait_any_deadline", any),
        ("send_deadline", send),
    ] {
        assert!(lag < CONTRACT, "{wait} returned {lag:?} after its wake");
    }
    assert!(faultplane::stats().notify_drops > 0, "no wake was dropped");
    m.check_invariants().unwrap();
}

#[test]
fn injected_pool_exhaustion_reports_without_allocating() {
    let _t = PLANE.lock().unwrap_or_else(|e| e.into_inner());
    let m = region("fault-pool");
    let tx = m.open_send("starved").unwrap();
    let rx = m.open_receive("starved", Protocol::Fcfs).unwrap();

    let free_before = m.free_blocks();
    {
        let _g = faultplane::install(FaultConfig::new(3).with_pool_exhaust(1.0));
        let err = m.message_send(tx, b"no room").unwrap_err();
        assert_eq!(err, MpfError::MessagesExhausted);
        assert!(faultplane::stats().pool_exhausts >= 1);
    }
    assert_eq!(m.free_blocks(), free_before, "nothing was staged");
    m.message_send(tx, b"fine now").unwrap();
    let mut buf = [0u8; 16];
    assert_eq!(m.message_receive(rx, &mut buf).unwrap(), 8);
}

/// Every message of a batch passes the exhaustion site before anything
/// is allocated: a seeded firing at message *k* stages exactly *k* (an
/// error at *k* = 0) and takes nothing from the pools beyond them.
#[test]
fn injected_exhaustion_at_message_k_stages_exactly_k() {
    let _t = PLANE.lock().unwrap_or_else(|e| e.into_inner());
    let payloads = [[0x5Au8; 100]; 12]; // two blocks each
    let refs: Vec<&[u8]> = payloads.iter().map(|p| &p[..]).collect();
    let mut seen = std::collections::BTreeSet::new();
    for seed in 1..=12u64 {
        let plan = FaultConfig::new(seed).with_pool_exhaust(0.2);
        // Where this seed first fires, from the plane itself.
        let k = {
            let _g = faultplane::install(plan);
            (0..refs.len())
                .take_while(|_| !faultplane::inject(FaultSite::PoolExhaust))
                .count()
        };
        let m = region(&format!("fault-pool-k{seed}"));
        let tx = m.open_send("starved").unwrap();
        let rx = m.open_receive("starved", Protocol::Fcfs).unwrap();
        let staged = {
            let _g = faultplane::install(plan);
            m.send_batch(tx, &refs).map(|done| done.len())
        };
        let want = if k == 0 {
            Err(MpfError::MessagesExhausted)
        } else {
            Ok(k)
        };
        assert_eq!(staged, want, "seed {seed}");
        assert_eq!(
            m.free_blocks(),
            32 - 2 * k as u32,
            "seed {seed}: only the staged hold blocks"
        );
        m.check_invariants().unwrap();
        assert_eq!(m.try_recv_batch(rx, 16).unwrap().len(), k);
        assert_eq!(m.free_blocks(), 32);
        seen.insert(k);
    }
    assert!(
        seen.contains(&0) && seen.len() > 3,
        "firing points seen: {seen:?}"
    );
}

#[test]
fn seeded_injection_replays_identically_through_the_facility() {
    let _t = PLANE.lock().unwrap_or_else(|e| e.into_inner());
    // Same seed, same op sequence on a fresh region → the same sends
    // fail at the same positions.  This is what makes a fault-plane CI
    // failure reproducible from its logged seed.
    let run = |tag: &str, seed: u64| {
        let m = region(tag);
        let tx = m.open_send("coin").unwrap();
        let rx = m.open_receive("coin", Protocol::Fcfs).unwrap();
        // No draining while the plane is armed: the receive path has its
        // own PeerDied injection site, and 16 sends fit the message pool.
        let pattern: Vec<bool> = {
            let _g = faultplane::install(FaultConfig::new(seed).with_peer_died(0.5));
            (0..16)
                .map(|_| m.message_send(tx, b"flip").is_ok())
                .collect()
        };
        let mut buf = [0u8; 8];
        for &sent in pattern.iter().filter(|&&s| s) {
            assert!(sent);
            m.message_receive(rx, &mut buf).unwrap();
        }
        pattern
    };
    let a = run("fault-replay-a", 77);
    let b = run("fault-replay-b", 77);
    let c = run("fault-replay-c", 78);
    assert_eq!(a, b, "same seed, same failure pattern");
    assert_ne!(a, c, "different seed, different pattern");
    assert!(a.iter().any(|&ok| ok) && a.iter().any(|&ok| !ok));
}

#[test]
fn env_spec_installs_the_plane() {
    let _t = PLANE.lock().unwrap_or_else(|e| e.into_inner());
    // `mpf-soak`'s children opt in exactly this way: MPF_FAULTS in the
    // environment, install_from_env() at startup.
    std::env::set_var("MPF_FAULTS", "seed=5,peer=1.0");
    let g = faultplane::install_from_env().expect("spec accepted");
    std::env::remove_var("MPF_FAULTS");

    let m = region("fault-env");
    let tx = m.open_send("envy").unwrap();
    let err = m.message_send(tx, b"x").unwrap_err();
    assert!(matches!(err, MpfError::PeerDied { .. }), "{err:?}");
    assert!(faultplane::stats().peer_died >= 1);
    drop(g);
    assert!(!faultplane::enabled());
    m.message_send(tx, b"x").unwrap();
}

#[test]
fn frozen_faulted_region_passes_offline_conformance() {
    let _t = PLANE.lock().unwrap_or_else(|e| e.into_inner());
    // Leaves the region file behind on purpose (a process that vanished
    // without detaching): the CI faults job runs
    // `mpf-trace fault-frozen --check` against it afterwards, gating
    // that the injected fault shows up as an audited TR_FAULT record —
    // typed error surfaced, no conformance violations.  So a region an
    // earlier run left behind is removed first.
    let _ = std::fs::remove_file(mpf_shm::region::region_path("fault-frozen"));
    let m = region("fault-frozen");
    let tx = m.open_send("audited").unwrap();
    let rx = m.open_receive("audited", Protocol::Fcfs).unwrap();

    // One complete causal chain, so the offline delivery rules have a
    // clean ledger...
    m.message_send(tx, b"delivered").unwrap();
    let mut buf = [0u8; 16];
    assert_eq!(m.message_receive(rx, &mut buf).unwrap(), 9);

    // ...plus one injected error-class fault that surfaced typed.
    {
        let _g = faultplane::install(FaultConfig::new(99).with_peer_died(1.0));
        let err = m.message_send(tx, b"never sent").unwrap_err();
        assert!(matches!(err, MpfError::PeerDied { .. }), "{err:?}");
    }

    // Freeze: skip Drop entirely, exactly like a SIGKILL would.
    std::mem::forget(m);
}
