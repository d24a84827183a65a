//! Multi-OS-process integration tests.
//!
//! Each test re-executes the current test binary with `--exact
//! helper_<role> --ignored`, so the child really is a separate process
//! with its own address space that knows nothing about the region except
//! its name (passed via `MPF_IPC_REGION`).  The `#[ignore]`d helpers are
//! inert unless that variable is set.

use std::io::Read as _;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use mpf::inspect::{ProcessInfo, RegionInspector};
use mpf::{MpfConfig, MpfError, Protocol, Reclaimable};
use mpf_ipc::IpcMpf;
use mpf_shm::tracering::{TR_RECV_BLOCK, TR_SEND};

const REGION_ENV: &str = "MPF_IPC_REGION";

/// The deadline `d` from now.
fn within(d: Duration) -> Option<Instant> {
    Some(Instant::now() + d)
}

fn unique_region(tag: &str) -> String {
    format!("xp-{tag}-{}", std::process::id())
}

fn create_region(name: &str) -> IpcMpf {
    let cfg = MpfConfig::new(8, 8)
        .with_block_payload(64)
        .with_total_blocks(128)
        .with_max_messages(64)
        .with_max_connections(32);
    IpcMpf::create(name, &cfg).expect("create region")
}

fn spawn_helper(helper: &str, region: &str) -> Child {
    Command::new(std::env::current_exe().expect("current_exe"))
        .args([
            "--exact",
            helper,
            "--ignored",
            "--nocapture",
            "--test-threads=1",
        ])
        .env(REGION_ENV, region)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn helper process")
}

fn finish(mut child: Child, what: &str) {
    let status = child.wait().expect("wait child");
    if !status.success() {
        let mut out = String::new();
        let mut err = String::new();
        if let Some(mut s) = child.stdout.take() {
            let _ = s.read_to_string(&mut out);
        }
        if let Some(mut s) = child.stderr.take() {
            let _ = s.read_to_string(&mut err);
        }
        panic!("{what} exited with {status}\nstdout:\n{out}\nstderr:\n{err}");
    }
}

/// Child role for [`separate_processes_exchange_fcfs_and_broadcast`]:
/// announce readiness over the FCFS circuit, wait for the broadcast,
/// echo it back.
#[test]
#[ignore = "helper: only meaningful when spawned by a parent test"]
fn helper_echo_worker() {
    let Ok(region) = std::env::var(REGION_ENV) else {
        return;
    };
    let m = IpcMpf::attach(&region).expect("attach");
    let results = m.open_send("results").expect("open_send results");
    let news = m
        .open_receive("news", Protocol::Broadcast)
        .expect("open_receive news");

    m.message_send(results, format!("ready:{}", m.pid()).as_bytes())
        .expect("send ready");
    let mut buf = [0u8; 256];
    let n = m
        .recv_deadline(news, &mut buf, within(Duration::from_secs(30)))
        .expect("receive broadcast");
    let text = std::str::from_utf8(&buf[..n]).expect("utf8").to_string();
    m.message_send(results, format!("got:{text}:{}", m.pid()).as_bytes())
        .expect("send echo");
}

/// ≥ 2 genuinely separate OS processes exchange FCFS messages (worker →
/// parent over `results`) and BROADCAST messages (parent → both workers
/// over `news`) through one shared named region.
#[test]
fn separate_processes_exchange_fcfs_and_broadcast() {
    let region = unique_region("fanout");
    let m = create_region(&region);
    let results = m.open_receive("results", Protocol::Fcfs).unwrap();
    // Open the broadcast source BEFORE the workers connect so `news`
    // exists; workers' broadcast cursors start at their join point.
    let news = m.open_send("news").unwrap();

    let a = spawn_helper("helper_echo_worker", &region);
    let b = spawn_helper("helper_echo_worker", &region);

    let mut buf = [0u8; 256];
    let mut worker_pids = Vec::new();
    for _ in 0..2 {
        let n = m
            .recv_deadline(results, &mut buf, within(Duration::from_secs(30)))
            .expect("ready message");
        let text = std::str::from_utf8(&buf[..n]).unwrap();
        let pid: u32 = text.strip_prefix("ready:").unwrap().parse().unwrap();
        worker_pids.push(pid);
    }
    worker_pids.sort_unstable();
    worker_pids.dedup();
    assert_eq!(worker_pids.len(), 2, "two distinct MPF pids");
    assert!(!worker_pids.contains(&m.pid()));

    // Both workers are connected now, so one broadcast reaches both.
    m.message_send(news, b"fanout-payload").unwrap();

    let mut echoes = Vec::new();
    for _ in 0..2 {
        let n = m
            .recv_deadline(results, &mut buf, within(Duration::from_secs(30)))
            .expect("echo message");
        echoes.push(std::str::from_utf8(&buf[..n]).unwrap().to_string());
    }
    echoes.sort();
    for (echo, pid) in echoes.iter().zip(worker_pids.iter()) {
        assert_eq!(echo, &format!("got:fanout-payload:{pid}"));
    }

    finish(a, "worker a");
    finish(b, "worker b");
}

/// Child role for [`killing_a_peer_unblocks_blocked_receivers`]: send one
/// message, then — once the parent confirms it has drained it — grab the
/// LNVC lock, report the seizure on a side channel, and go to sleep
/// holding it.  The parent SIGKILLs this process mid-critical-section.
/// The `ctl`/`seized` handshake makes the ordering deterministic: without
/// it the parent's receive could block on the seized lock while the
/// victim (still alive, just asleep) holds it, and the kill would never
/// be issued.
#[test]
#[ignore = "helper: only meaningful when spawned by a parent test"]
fn helper_victim() {
    let Ok(region) = std::env::var(REGION_ENV) else {
        return;
    };
    let m = IpcMpf::attach(&region).expect("attach");
    let tx = m.open_send("doomed").expect("open_send doomed");
    let ctl = m.open_receive("ctl", Protocol::Fcfs).expect("open ctl");
    let seized = m.open_send("seized").expect("open_send seized");

    m.message_send(tx, b"alive").expect("send");
    let mut buf = [0u8; 8];
    m.recv_deadline(ctl, &mut buf, within(Duration::from_secs(30)))
        .expect("go-ahead from parent");
    // Die as rudely as possible: inside the critical section.  `seized`
    // is a different descriptor, so signalling on it is safe while
    // holding `doomed`'s lock.
    m.debug_seize_lnvc_lock(tx).expect("seize lock");
    m.message_send(seized, b"held").expect("report seizure");
    std::thread::sleep(Duration::from_secs(60));
}

/// Killing a peer mid-conversation — while it HOLDS the LNVC lock — must
/// leave the survivor with a clean [`MpfError::PeerDied`], not a hang:
/// the liveness sweep breaks the dead holder's lock, removes its
/// connections, and poisons the conversation.
#[test]
fn killing_a_peer_unblocks_blocked_receivers() {
    let region = unique_region("kill");
    let m = create_region(&region);
    let rx = m.open_receive("doomed", Protocol::Fcfs).unwrap();
    let ctl = m.open_send("ctl").unwrap();
    let seized = m.open_receive("seized", Protocol::Fcfs).unwrap();

    let mut victim = spawn_helper("helper_victim", &region);

    let mut buf = [0u8; 64];
    let n = m
        .recv_deadline(rx, &mut buf, within(Duration::from_secs(30)))
        .expect("first message proves the victim is connected");
    assert_eq!(&buf[..n], b"alive");

    // Tell the victim to seize the lock, wait for confirmation that it
    // holds it, then SIGKILL it mid-critical-section.
    m.message_send(ctl, b"go").unwrap();
    m.recv_deadline(seized, &mut buf, within(Duration::from_secs(30)))
        .expect("victim reports holding the lock");
    victim.kill().expect("SIGKILL victim");
    victim.wait().expect("reap victim");

    // The survivor's blocked receive must resolve to PeerDied — within
    // the timeout, i.e. no deadlock on the orphaned lock.
    let err = m
        .recv_deadline(rx, &mut buf, within(Duration::from_secs(10)))
        .expect_err("conversation must be poisoned");
    match err {
        MpfError::PeerDied { pid } => assert_ne!(pid, m.pid(), "culprit is the victim"),
        other => panic!("expected PeerDied, got {other:?}"),
    }
    // Once the corpse's connections are swept the region is structurally
    // sound again, broken lock and all.
    m.sweep_dead_peers();
    m.check_invariants().expect("audit after the sweep");

    // The rest of the region stays usable: new conversations work.
    let tx2 = m.open_send("aftermath").unwrap();
    let rx2 = m.open_receive("aftermath", Protocol::Fcfs).unwrap();
    m.message_send(tx2, b"still standing").unwrap();
    let n = m.message_receive(rx2, &mut buf).unwrap();
    assert_eq!(&buf[..n], b"still standing");
}

/// Child role for [`fcfs_departure_releases_obligations_across_processes`]:
/// a broadcast-only consumer in its own address space.
#[test]
#[ignore = "helper: only meaningful when spawned by a parent test"]
fn helper_broadcast_only_consumer() {
    let Ok(region) = std::env::var(REGION_ENV) else {
        return;
    };
    let m = IpcMpf::attach(&region).expect("attach");
    let flood = m
        .open_receive("flood", Protocol::Broadcast)
        .expect("open flood");
    let ctl = m.open_send("ctl").expect("open ctl");
    m.message_send(ctl, b"joined").expect("ack joined");

    let mut buf = [0u8; 128];
    for _ in 0..20 {
        m.recv_deadline(flood, &mut buf, within(Duration::from_secs(30)))
            .expect("receive batch 1");
    }
    m.message_send(ctl, b"batch1").expect("ack batch1");
    for _ in 0..8 {
        m.recv_deadline(flood, &mut buf, within(Duration::from_secs(30)))
            .expect("receive batch 2");
    }
    // Leave before acking so the parent's conservation check runs after
    // this receiver is really gone.
    m.close_receive(flood).expect("close flood");
    m.message_send(ctl, b"batch2").expect("ack batch2");
    m.close_send(ctl).expect("close ctl");
}

/// Regression for the FCFS-obligation leak across real process
/// boundaries: a sender floods a conversation whose FCFS receiver (the
/// parent) departs while a broadcast-only consumer (the child process)
/// keeps it alive.  Before the obligation re-evaluation fix the 20
/// batch-1 messages stayed owed to the departed FCFS class forever —
/// read by the child but never reclaimable — and the pool check at the
/// end failed with 20 of 32 blocks pinned.
#[test]
fn fcfs_departure_releases_obligations_across_processes() {
    let region = unique_region("fcfs-leak");
    let cfg = MpfConfig::new(8, 8)
        .with_block_payload(64)
        .with_total_blocks(32)
        .with_max_messages(64)
        .with_max_connections(16);
    let m = IpcMpf::create(&region, &cfg).expect("create region");
    let total = m.free_blocks();

    let flood_tx = m.open_send("flood").expect("open flood send");
    let flood_rf = m
        .open_receive("flood", Protocol::Fcfs)
        .expect("open flood fcfs");
    let ctl = m.open_receive("ctl", Protocol::Fcfs).expect("open ctl");

    let child = spawn_helper("helper_broadcast_only_consumer", &region);
    let mut buf = [0u8; 128];
    let n = m
        .recv_deadline(ctl, &mut buf, within(Duration::from_secs(30)))
        .expect("joined ack");
    assert_eq!(&buf[..n], b"joined");

    // Batch 1 is sent while an FCFS receiver is connected, so every
    // message carries an FCFS obligation.
    for i in 0..20u8 {
        m.message_send(flood_tx, &[i]).expect("send batch 1");
    }
    let n = m
        .recv_deadline(ctl, &mut buf, within(Duration::from_secs(30)))
        .expect("batch1 ack");
    assert_eq!(&buf[..n], b"batch1");

    // The last FCFS receiver leaves; the broadcast consumer lives on.
    // The obligations must be re-evaluated here, or batch 1 pins 20
    // blocks for the rest of the conversation's life.
    m.close_receive(flood_rf).expect("close fcfs");

    // Batch 2 must fit in the pool: bounded, not bled dry by batch 1.
    for i in 0..8u8 {
        m.message_send(flood_tx, &[i]).expect("send batch 2");
    }
    let n = m
        .recv_deadline(ctl, &mut buf, within(Duration::from_secs(30)))
        .expect("batch2 ack");
    assert_eq!(&buf[..n], b"batch2");
    finish(child, "broadcast-only consumer");

    // The child closed its broadcast connection before acking: only the
    // sender connection remains, the queue must be fully drained, and
    // every block back on the free list.
    assert_eq!(
        m.free_blocks(),
        total,
        "blocks still pinned by departed-FCFS obligations"
    );
    m.close_send(flood_tx).expect("close flood send");
    m.close_receive(ctl).expect("close ctl");
    assert_eq!(m.live_lnvcs(), 0);
    assert_eq!(m.free_blocks(), total);
    // Conservation in telemetry terms: nothing queued means no corpses,
    // and the in-region counters saw all 28 flood messages plus acks.
    assert_eq!(m.reclaimable(), Reclaimable::default());
    let t = m.telemetry_snapshot();
    assert!(t.sends >= 28, "sends {} < flood volume", t.sends);
    assert_eq!(t.lnvcs_created, t.lnvcs_deleted);
}

/// Child role for [`post_mortem_reads_a_sigkilled_writer`]: open a
/// conversation, send a recognizable stream, report in, then park
/// forever — the parent SIGKILLs this process mid-session, so its last
/// acts must remain readable from the region afterwards.
#[test]
#[ignore = "helper: only meaningful when spawned by a parent test"]
fn helper_doomed_sender() {
    let Ok(region) = std::env::var(REGION_ENV) else {
        return;
    };
    let m = IpcMpf::attach(&region).expect("attach");
    let tx = m.open_send("blackbox").expect("open_send blackbox");
    let ctl = m.open_send("ctl").expect("open ctl");
    for i in 0..5u8 {
        m.message_send(tx, &[i; 24]).expect("send stream");
    }
    m.message_send(ctl, b"sent").expect("report in");
    // Die blocked: nobody ever sends here.
    let idle = m.open_receive("idle", Protocol::Fcfs).expect("open idle");
    let mut buf = [0u8; 8];
    let _ = m.recv_deadline(idle, &mut buf, within(Duration::from_secs(60)));
}

/// The trace ring's post-mortem reason to exist: a writer is SIGKILLed
/// while blocked in a receive and the read-only inspector — attaching
/// after the fact — still reports its last events (its final
/// sends, then the `recv_block` marker it died on), the non-zero
/// counters it contributed, and the poisoned conversation it left
/// behind.
#[test]
fn post_mortem_reads_a_sigkilled_writer() {
    let region = unique_region("postmortem");
    let m = create_region(&region);
    let rx = m.open_receive("blackbox", Protocol::Fcfs).unwrap();
    let ctl = m.open_receive("ctl", Protocol::Fcfs).unwrap();

    let mut victim = spawn_helper("helper_doomed_sender", &region);
    let mut buf = [0u8; 64];
    let n = m
        .recv_deadline(ctl, &mut buf, within(Duration::from_secs(30)))
        .expect("victim reports in");
    assert_eq!(&buf[..n], b"sent");
    // Drain two of the five so receive-side counters are non-zero too.
    for _ in 0..2 {
        m.recv_deadline(rx, &mut buf, within(Duration::from_secs(30)))
            .expect("drain stream");
    }

    // Let the victim reach its blocking receive before it dies.
    let insp = RegionInspector::attach(&region).expect("inspector attach");
    let blocked = || {
        (0..8)
            .filter(|&p| p != m.pid())
            .any(|p| insp.trace_events(p).last().map(|e| e.kind) == Some(TR_RECV_BLOCK))
    };
    let patience = std::time::Instant::now() + Duration::from_secs(30);
    while !blocked() {
        assert!(std::time::Instant::now() < patience, "victim never blocked");
        std::thread::sleep(Duration::from_millis(5));
    }

    let victim_os_pid = victim.id();
    victim.kill().expect("SIGKILL victim");
    victim.wait().expect("reap victim");
    // One survivor sweep converts the corpse's slot to DEAD and poisons
    // the conversations it touched — exactly what a stuck operator's
    // first `mpf-trace stat` glance should show.
    while m.sweep_dead_peers() == 0 {
        std::thread::sleep(Duration::from_millis(10));
    }
    m.check_invariants().expect("audit after the sweep");

    // The post-mortem view, read straight off the region.
    let dead: Vec<_> = insp
        .processes()
        .into_iter()
        .filter(|p| p.state == "dead")
        .collect();
    assert_eq!(dead.len(), 1, "exactly one swept corpse");
    assert_eq!(dead[0].os_pid, victim_os_pid);
    let events = insp.trace_events(dead[0].pid);
    assert_eq!(
        events.iter().filter(|e| e.kind == TR_SEND).count(),
        6,
        "victim's sends must survive in its trace ring: {events:?}"
    );
    assert_eq!(
        events.last().map(|e| e.kind),
        Some(TR_RECV_BLOCK),
        "the marker it died on is its last event: {events:?}"
    );
    assert_eq!(
        insp.trace_rings()[dead[0].pid as usize].writer_pid,
        victim_os_pid
    );
    assert!(insp.lnvcs().iter().any(|l| l.poisoned));
    let t = insp.telemetry_snapshot();
    assert!(t.sends >= 6 && t.receives >= 2 && t.peers_died == 1);
}

/// A receiver blocked on one conversation — no lock contended, no
/// doorbell — still notices that the only sender was SIGKILLed: its naps
/// end at the sweep cadence, and the sweep it then runs poisons the
/// conversation.  The kill lands only after the receive has booked its
/// block, and the bound is a generous multiple of the 50 ms cadence.
#[test]
fn blocked_receiver_notices_a_sigkilled_sender_within_the_cadence() {
    let region = unique_region("cadence");
    let m = create_region(&region);
    let rx = m.open_receive("blackbox", Protocol::Fcfs).unwrap();
    let ctl = m.open_receive("ctl", Protocol::Fcfs).unwrap();
    let mut victim = spawn_helper("helper_doomed_sender", &region);
    let mut buf = [0u8; 64];
    m.recv_deadline(ctl, &mut buf, within(Duration::from_secs(30)))
        .expect("victim reports in");
    for _ in 0..5 {
        m.recv_deadline(rx, &mut buf, within(Duration::from_secs(30)))
            .expect("drain the stream");
    }
    let waits_before = m.telemetry_snapshot().recv_waits;
    let (killed_at, err) = std::thread::scope(|s| {
        let killer = s.spawn(|| {
            while m.telemetry_snapshot().recv_waits == waits_before {
                std::thread::sleep(Duration::from_millis(1));
            }
            victim.kill().expect("SIGKILL victim");
            victim.wait().expect("reap victim");
            Instant::now()
        });
        let err = m
            .message_receive(rx, &mut buf)
            .expect_err("nobody is left to send");
        (killer.join().expect("killer thread"), err)
    });
    assert!(matches!(err, MpfError::PeerDied { .. }), "{err:?}");
    let lag = killed_at.elapsed();
    assert!(lag < Duration::from_millis(500), "noticed after {lag:?}");
    m.check_invariants().expect("audit after the sweep");
}

/// Spins until some slot other than `me` satisfies `parked`; returns it.
fn await_peer(
    insp: &RegionInspector,
    me: u32,
    parked: impl Fn(&ProcessInfo) -> bool,
) -> ProcessInfo {
    let patience = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(p) = insp
            .processes()
            .into_iter()
            .find(|p| p.pid != me && p.state == "attached" && parked(p))
        {
            return p;
        }
        assert!(Instant::now() < patience, "peer never parked");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn unix_nanos() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after 1970")
        .as_nanos()
}

const WAKE_TRIALS: usize = 50;

/// Child role for [`wait_any_is_woken_promptly_from_another_process`]:
/// on each go-ahead (which names the parent's MPF pid), wait until the
/// parent is asleep on its doorbell watching both members, then send the
/// current time to the wait set's second member.
#[test]
#[ignore = "helper: only meaningful when spawned by a parent test"]
fn helper_second_member_sender() {
    let Ok(region) = std::env::var(REGION_ENV) else {
        return;
    };
    let m = IpcMpf::attach(&region).expect("attach");
    let insp = RegionInspector::attach(&region).expect("inspect");
    let go = m.open_receive("go", Protocol::Fcfs).expect("open go");
    let m2 = m.open_send("m2").expect("open m2");
    let mut buf = [0u8; 8];
    for _ in 0..WAKE_TRIALS {
        let n = m
            .recv_deadline(go, &mut buf, within(Duration::from_secs(30)))
            .expect("go-ahead");
        let parent = u32::from_le_bytes(buf[..n].try_into().expect("pid"));
        let patience = Instant::now() + Duration::from_secs(30);
        loop {
            let p = &insp.processes()[parent as usize];
            if p.asleep && p.watching == 2 {
                break;
            }
            assert!(Instant::now() < patience, "parent never parked");
            std::thread::yield_now();
        }
        m.message_send(m2, &unix_nanos().to_le_bytes())
            .expect("send to second member");
    }
}

/// The doorbell across real address spaces: a `wait_any_deadline` in this
/// process is woken by a forked process's send to its **second** member
/// within microseconds (median of 50; the old first-member nap made it a
/// millisecond).
#[test]
fn wait_any_is_woken_promptly_from_another_process() {
    let region = unique_region("bell");
    let m = create_region(&region);
    let _t1 = m.open_send("m1").unwrap();
    let r1 = m.open_receive("m1", Protocol::Fcfs).unwrap();
    let r2 = m.open_receive("m2", Protocol::Fcfs).unwrap();
    let go = m.open_send("go").unwrap();
    let child = spawn_helper("helper_second_member_sender", &region);
    let mut lags = Vec::with_capacity(WAKE_TRIALS);
    let mut buf = [0u8; 16];
    for _ in 0..WAKE_TRIALS {
        m.message_send(go, &m.pid().to_le_bytes()).unwrap();
        let ready = m
            .wait_any_deadline(&[r1, r2], Some(Instant::now() + Duration::from_secs(30)))
            .expect("woken by the child");
        let woke = unix_nanos();
        assert_eq!(ready, r2);
        let n = m.message_receive(r2, &mut buf).unwrap();
        let sent = u128::from_le_bytes(buf[..n].try_into().unwrap());
        lags.push(woke.saturating_sub(sent));
    }
    finish(child, "second-member sender");
    lags.sort_unstable();
    let median = lags[WAKE_TRIALS / 2];
    assert!(
        median < 500_000,
        "median cross-process wake took {median} ns"
    );
}

/// Child role for [`post_mortem_shows_who_was_parked_on_what`]:
/// park in a two-member `wait_any_deadline` nobody will ever satisfy.
#[test]
#[ignore = "helper: only meaningful when spawned by a parent test"]
fn helper_doomed_watcher() {
    let Ok(region) = std::env::var(REGION_ENV) else {
        return;
    };
    let m = IpcMpf::attach(&region).expect("attach");
    let wa = m.open_receive("wa", Protocol::Fcfs).expect("open wa");
    let wb = m.open_receive("wb", Protocol::Fcfs).expect("open wb");
    let _ = m.wait_any_deadline(&[wa, wb], Some(Instant::now() + Duration::from_secs(60)));
}

/// "Who is stuck on what", post-mortem: a process is SIGKILLed while
/// asleep on its doorbell in `wait_any_deadline`.  Before any survivor
/// sweeps, the inspector shows the corpse asleep and watching two
/// conversations; senders to those conversations keep succeeding (they
/// ring a doorbell nobody hears); the sweep then retires the watches with
/// the corpse's connections, conservation holds, and whoever recycles
/// the slot starts with a doorbell nobody is counted asleep on.
#[test]
fn post_mortem_shows_who_was_parked_on_what() {
    let region = unique_region("parked");
    let m = create_region(&region);
    let total = m.free_blocks();
    let ta = m.open_send("wa").unwrap();
    let insp = RegionInspector::attach(&region).expect("inspector attach");

    let mut victim = spawn_helper("helper_doomed_watcher", &region);
    let parked = await_peer(&insp, m.pid(), |p| p.asleep && p.watching == 2);
    victim.kill().expect("SIGKILL victim");
    victim.wait().expect("reap victim");

    // Unswept: the slot is still ATTACHED, its owner gone, and the region
    // remembers what it was waiting for.
    let corpse = &insp.processes()[parked.pid as usize];
    assert_eq!(corpse.state, "attached");
    assert!(!corpse.alive, "{corpse:?}");
    assert!(
        corpse.asleep && corpse.watching == 2 && !corpse.mem_wait,
        "{corpse:?}"
    );
    assert_eq!(insp.pool_waiters(), 0);

    // A watched conversation whose watcher is dead still takes sends.
    m.message_send(ta, b"into the void")
        .expect("send to a dead watcher");

    assert_eq!(m.sweep_dead_peers(), 1);
    m.check_invariants().expect("audit after the sweep");
    let swept = &insp.processes()[parked.pid as usize];
    assert_eq!((swept.state, swept.watching), ("dead", 0), "{swept:?}");
    m.close_send(ta).expect("close poisoned conversation");
    assert_eq!(m.live_lnvcs(), 0, "wb was the corpse's alone: deleted");
    assert_eq!(m.free_blocks(), total, "conservation after the sweep");

    // The recycled slot: nobody counted asleep, and its doorbell works.
    let heir = m.attach_view().expect("recycle the slot");
    assert_eq!(heir.pid(), parked.pid);
    assert!(!insp.processes()[heir.pid() as usize].asleep);
    let again = heir.open_receive("again", Protocol::Fcfs).unwrap();
    let quiet = heir.open_receive("quiet", Protocol::Fcfs).unwrap();
    let tx = m.open_send("again").unwrap();
    m.message_send(tx, b"hello heir").unwrap();
    assert_eq!(
        heir.wait_any_deadline(
            &[quiet, again],
            Some(Instant::now() + Duration::from_secs(30))
        ),
        Ok(again)
    );
}

/// Child role for [`dead_pool_waiter_is_retired_by_the_sweep`]: exhaust
/// the block pool, then block in `send_deadline` waiting for memory.
#[test]
#[ignore = "helper: only meaningful when spawned by a parent test"]
fn helper_doomed_pool_waiter() {
    let Ok(region) = std::env::var(REGION_ENV) else {
        return;
    };
    let m = IpcMpf::attach(&region).expect("attach");
    let tx = m.open_send("pw").expect("open pw");
    while m.message_send(tx, &[7; 64]).is_ok() {}
    let _ = m.send_deadline(tx, &[7; 64], Some(Instant::now() + Duration::from_secs(60)));
}

/// A process SIGKILLed while registered for the pool signal and asleep on
/// its doorbell: reclaims keep working (they ring the dead doorbell), and
/// the sweep retires its registration so the pool signal's gate closes
/// again.
#[test]
fn dead_pool_waiter_is_retired_by_the_sweep() {
    let region = unique_region("poolwait");
    let m = create_region(&region);
    let total = m.free_blocks();
    let rx = m.open_receive("pw", Protocol::Fcfs).unwrap();
    let insp = RegionInspector::attach(&region).expect("inspector attach");

    let mut victim = spawn_helper("helper_doomed_pool_waiter", &region);
    let parked = await_peer(&insp, m.pid(), |p| p.asleep && p.mem_wait);
    assert_eq!(insp.pool_waiters(), 1);
    victim.kill().expect("SIGKILL victim");
    victim.wait().expect("reap victim");

    // This reclaim fires the pool signal at a corpse.
    let mut buf = [0u8; 64];
    m.message_receive(rx, &mut buf)
        .expect("receive frees a block");
    assert_eq!(m.sweep_dead_peers(), 1);
    m.check_invariants().expect("audit after the sweep");
    let swept = &insp.processes()[parked.pid as usize];
    assert!(!swept.mem_wait, "{swept:?}");
    assert_eq!(insp.pool_waiters(), 0);
    m.close_receive(rx).expect("close poisoned conversation");
    assert_eq!(m.live_lnvcs(), 0);
    assert_eq!(m.free_blocks(), total, "conservation after the sweep");
}
