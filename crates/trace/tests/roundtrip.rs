//! Trace round-trip: real traffic in, exact causal chains out.
//!
//! Thread-backend tests drive `Mpf` directly; the cross-process test
//! re-executes this test binary (`--exact helper_* --ignored`) so the
//! victim really is a separate OS process, then SIGKILLs it and
//! reconstructs what it was doing from the region file alone.

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use mpf::inspect::RegionInspector;
use mpf::IpcMpf;
use mpf::{Mpf, MpfConfig, ProcessId, Protocol};
use mpf_shm::tracering::{
    TR_CLOSE_RECV, TR_CLOSE_SEND, TR_LOCK_CONTEND, TR_OPEN_RECV, TR_OPEN_SEND, TR_RECLAIM, TR_RECV,
    TR_RECV_BLOCK, TR_SEND, TR_SEND_BLOCK, TR_SWEEP_DEAD, TR_WAKEUP,
};
use mpf_trace::TraceLog;

const REGION_ENV: &str = "MPF_TRACE_REGION";

fn p(i: usize) -> ProcessId {
    ProcessId::from_index(i)
}

fn small_cfg() -> MpfConfig {
    MpfConfig::new(8, 4)
        .with_block_payload(64)
        .with_total_blocks(128)
        .with_max_messages(64)
        .with_max_connections(32)
}

/// One request/reply bounce on the thread backend: the reply send must
/// inherit the request's trace id with hop 1, and the reconstructed
/// chain must read send → recv → send → recv in hop order, ending with
/// both reclaims — conformance-clean.
#[test]
fn mpf_roundtrip_reconstructs_exact_chain() {
    let mpf = Mpf::init(small_cfg()).unwrap();
    let req_tx = mpf.open_send(p(0), "req").unwrap();
    let req_rx = mpf.open_receive(p(1), "req", Protocol::Fcfs).unwrap();
    let rep_tx = mpf.open_send(p(1), "reply").unwrap();
    let rep_rx = mpf.open_receive(p(0), "reply", Protocol::Fcfs).unwrap();

    let mut buf = [0u8; 64];
    mpf.message_send(p(0), req_tx, b"ping").unwrap();
    let n = mpf.message_receive(p(1), req_rx, &mut buf).unwrap();
    assert_eq!(&buf[..n], b"ping");
    mpf.message_send(p(1), rep_tx, b"pong!").unwrap();
    let n = mpf.message_receive(p(0), rep_rx, &mut buf).unwrap();
    assert_eq!(&buf[..n], b"pong!");

    let log = TraceLog::from_ipc(mpf.view(p(0)).unwrap());
    let chains = log.chains();
    assert_eq!(chains.len(), 1, "one causal chain: {chains:?}");
    let chain = &chains[0];
    assert_eq!(chain.hops(), 2, "request + reply hops: {chain:?}");

    // The exact story, in order: p0 sends hop 0 on req, p1 receives it,
    // p1 sends hop 1 on reply, p0 receives that.
    let core: Vec<(u32, u32, u32)> = chain
        .events
        .iter()
        .filter(|r| matches!(r.ev.kind, TR_SEND | TR_RECV))
        .map(|r| (r.ev.hop, r.pid, r.ev.kind))
        .collect();
    assert_eq!(
        core,
        vec![
            (0, 0, TR_SEND),
            (0, 1, TR_RECV),
            (1, 1, TR_SEND),
            (1, 0, TR_RECV),
        ],
        "chain mis-reconstructed: {chain:?}"
    );
    assert_eq!(
        chain
            .events
            .iter()
            .filter(|r| r.ev.kind == TR_RECLAIM)
            .count(),
        2,
        "both messages reclaimed in-chain: {chain:?}"
    );

    let report = log.check();
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert_eq!(report.messages, 2);
    assert_eq!(report.deliveries, 2);

    // The export is loadable JSON with flow arrows for both hops.
    let json = log.chrome_json();
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches("\"ph\":\"s\"").count(), 2);
}

/// On the default configuration only one message in 32 of a conversation
/// is timed, so most per-chain records are undated (`tstamp` 0).  The
/// checker does not care (it orders by stamp), the text views print
/// `t -` for them, and the Chrome export places each at a dated
/// neighbour's time, marked `"dated":false` — never at `ts` 0.
#[test]
fn undated_records_check_clean_and_export_at_a_neighbours_date() {
    let mpf = Mpf::init(small_cfg()).unwrap();
    let tx = mpf.open_send(p(0), "undated").unwrap();
    let rx = mpf.open_receive(p(1), "undated", Protocol::Fcfs).unwrap();
    let mut buf = [0u8; 64];
    for i in 0..40u8 {
        mpf.message_send(p(0), tx, &[i; 16]).unwrap();
        mpf.message_receive(p(1), rx, &mut buf).unwrap();
    }
    let log = TraceLog::from_ipc(mpf.view(p(0)).unwrap());
    let undated = log
        .rings()
        .iter()
        .flat_map(|r| &r.events)
        .filter(|e| e.tstamp == 0)
        .count();
    // seq 0 and 32 are timed: three dated records each, of 120.
    assert_eq!(undated, 120 - 2 * 3);

    let report = log.check();
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert_eq!((report.messages, report.deliveries), (40, 40));

    let chains = log.render_chains();
    assert_eq!(chains.matches(" t -\n").count(), undated, "{chains}");

    let json = log.chrome_json();
    assert_eq!(json.matches("\"dated\":false").count(), undated);
    assert!(!json.contains("\"ts\":0.000"), "an event at ts 0: {json}");
    assert_eq!(json.matches("\"ph\":\"s\"").count(), 40);
}

/// Sampling thins chains, never the events inside one: at 1-in-2, four
/// independent sends yield two fully-recorded chains and two skips, and
/// the record stays conformance-clean.
#[test]
fn sampling_thins_chains_not_events() {
    let mpf = Mpf::init(small_cfg().trace_sample_rate(2)).unwrap();
    let tx = mpf.open_send(p(0), "sampled").unwrap();
    let rx = mpf.open_receive(p(1), "sampled", Protocol::Fcfs).unwrap();
    let mut buf = [0u8; 64];
    for i in 0..4u8 {
        mpf.message_send(p(0), tx, &[i; 16]).unwrap();
        mpf.message_receive(p(1), rx, &mut buf).unwrap();
    }
    let log = TraceLog::from_ipc(mpf.view(p(0)).unwrap());
    assert_eq!(log.chains().len(), 2, "1-in-2 of four roots");
    let skipped: u64 = log.rings().iter().map(|r| r.sampled_out).sum();
    assert_eq!(skipped, 2);
    for chain in log.chains() {
        let kinds: Vec<u32> = chain.events.iter().map(|r| r.ev.kind).collect();
        assert!(kinds.contains(&TR_SEND) && kinds.contains(&TR_RECV));
    }
    let report = log.check();
    assert!(report.is_clean(), "violations: {:?}", report.violations);
}

/// `trace_sample_rate(0)` turns recording off entirely — open, close and
/// population markers included — while traffic flows normally.
#[test]
fn rate_zero_disables_tracing() {
    let mpf = Mpf::init(small_cfg().trace_sample_rate(0)).unwrap();
    let tx = mpf.open_send(p(0), "silent").unwrap();
    let rx = mpf.open_receive(p(1), "silent", Protocol::Fcfs).unwrap();
    let mut buf = [0u8; 64];
    mpf.message_send(p(0), tx, b"unseen").unwrap();
    assert_eq!(mpf.message_receive(p(1), rx, &mut buf).unwrap(), 6);
    mpf.close_send(p(0), tx).unwrap();
    mpf.close_receive(p(1), rx).unwrap();
    let log = TraceLog::from_ipc(mpf.view(p(0)).unwrap());
    assert!(log.is_empty(), "rate 0 must record nothing: {log:?}");
}

/// One event vocabulary: the same scripted lifecycle leaves the same
/// kind sequence in a thread-backend ring and an ipc-backend ring.
#[test]
fn both_backends_record_the_same_kind_sequence() {
    let lifecycle = [
        TR_OPEN_SEND,
        TR_OPEN_RECV,
        TR_SEND,
        TR_RECV,
        TR_RECLAIM,
        TR_CLOSE_SEND,
        TR_CLOSE_RECV,
    ];
    let mut buf = [0u8; 64];

    let mpf = Mpf::init(small_cfg()).unwrap();
    let tx = mpf.open_send(p(0), "script").unwrap();
    let rx = mpf.open_receive(p(0), "script", Protocol::Fcfs).unwrap();
    mpf.message_send(p(0), tx, &[1u8; 40]).unwrap();
    assert!(mpf.check_receive(p(0), rx).unwrap());
    assert_eq!(mpf.message_receive(p(0), rx, &mut buf).unwrap(), 40);
    mpf.close_send(p(0), tx).unwrap();
    mpf.close_receive(p(0), rx).unwrap();
    let thread_kinds: Vec<u32> = mpf
        .view(p(0))
        .unwrap()
        .trace_events(0)
        .iter()
        .map(|e| e.kind)
        .collect();
    assert_eq!(thread_kinds, lifecycle);

    if !mpf_shm::sys::HAVE_SYSCALLS {
        return;
    }
    let region = format!("trace-script-{}", std::process::id());
    let m = IpcMpf::create(&region, &small_cfg()).unwrap();
    let tx = m.open_send("script").unwrap();
    let rx = m.open_receive("script", Protocol::Fcfs).unwrap();
    m.message_send(tx, &[1u8; 40]).unwrap();
    assert!(m.check_receive(rx).unwrap());
    assert_eq!(m.message_receive(rx, &mut buf).unwrap(), 40);
    m.close_send(tx).unwrap();
    m.close_receive(rx).unwrap();
    let ipc_kinds: Vec<u32> = m.trace_events(m.pid()).iter().map(|e| e.kind).collect();
    assert_eq!(ipc_kinds, thread_kinds);
}

/// The marker kinds that carry no message are invisible to the
/// conformance rules: a region holding every one of them — a
/// sender that came and went, a blocked receive, an exhausted pool, a
/// contended lock, a swept corpse — checks clean, through the library
/// and through the `mpf-trace` binary.
#[test]
fn every_marker_kind_checks_clean() {
    if !mpf_shm::sys::HAVE_SYSCALLS {
        return;
    }
    let region = format!("trace-markers-{}", std::process::id());
    let cfg = small_cfg().with_max_messages(4);
    let m = IpcMpf::create(&region, &cfg).unwrap();
    let peer = m.attach_view().unwrap();
    let mut buf = [0u8; 64];

    // open_send / close_send, and a receive that blocks until it times out.
    let gone = m.open_send("quiet").unwrap();
    let quiet = m.open_receive("quiet", Protocol::Fcfs).unwrap();
    m.close_send(gone).unwrap();
    let _ = m.recv_deadline(
        quiet,
        &mut buf,
        Some(Instant::now() + Duration::from_millis(5)),
    );

    // send_block: four headers, nobody draining.
    let tx = m.open_send("full").unwrap();
    let _rx = peer.open_receive("full", Protocol::Fcfs).unwrap();
    while m.message_send(tx, b"fill").is_ok() {}

    // lock_contend: the peer finds `quiet`'s lock held by us.  The
    // holder cannot see the waiter arrive, so it holds the lock a little
    // past the waiter's go-ahead and retries until the marker shows up.
    let has = |ipc: &IpcMpf, kind: u32| ipc.trace_events(ipc.pid()).iter().any(|e| e.kind == kind);
    let peer_quiet = peer.open_receive("quiet", Protocol::Fcfs).unwrap();
    for _ in 0..200 {
        m.debug_seize_lnvc_lock(quiet).unwrap();
        let (go_tx, go_rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                go_tx.send(()).unwrap();
                peer.check_receive(peer_quiet).unwrap();
            });
            go_rx.recv().unwrap();
            std::thread::sleep(Duration::from_millis(2));
            m.debug_release_lnvc_lock(quiet).unwrap();
        });
        if has(&peer, TR_LOCK_CONTEND) {
            break;
        }
    }

    // sweep_dead: the peer vanishes; we find the corpse.
    peer.debug_abandon_slot();
    assert_eq!(m.sweep_dead_peers(), 1);

    assert!(has(&m, TR_OPEN_SEND) && has(&m, TR_CLOSE_SEND));
    assert!(has(&m, TR_RECV_BLOCK) && has(&m, TR_SEND_BLOCK));
    assert!(has(&peer, TR_LOCK_CONTEND) && has(&m, TR_SWEEP_DEAD));

    let report = TraceLog::from_ipc(&m).check();
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    let out = Command::new(env!("CARGO_BIN_EXE_mpf-trace"))
        .args([region.as_str(), "--check", "--json"])
        .output()
        .expect("run mpf-trace");
    assert!(out.status.success(), "mpf-trace --check failed: {out:?}");
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(json.contains("\"violations\":[]"), "dirty report: {json}");
}

/// Broadcast delivery on the thread backend: one send, two `TR_RECV_B`
/// records, population echoed in the send's obligations, clean report.
#[test]
fn broadcast_chain_covers_every_receiver() {
    let mpf = Mpf::init(small_cfg()).unwrap();
    let tx = mpf.open_send(p(0), "news").unwrap();
    let r1 = mpf.open_receive(p(1), "news", Protocol::Broadcast).unwrap();
    let r2 = mpf.open_receive(p(2), "news", Protocol::Broadcast).unwrap();
    let mut buf = [0u8; 64];
    mpf.message_send(p(0), tx, b"flash").unwrap();
    mpf.message_receive(p(1), r1, &mut buf).unwrap();
    mpf.message_receive(p(2), r2, &mut buf).unwrap();
    // Closing both receivers reclaims the fully-delivered copy.
    mpf.close_receive(p(1), r1).unwrap();
    mpf.close_receive(p(2), r2).unwrap();

    let log = TraceLog::from_ipc(mpf.view(p(0)).unwrap());
    let chains = log.chains();
    assert_eq!(chains.len(), 1);
    let send = chains[0]
        .events
        .iter()
        .find(|r| r.ev.kind == TR_SEND)
        .expect("send recorded");
    assert_eq!(send.ev.arg2 & 0xffff, 2, "population 2 at send");
    let report = log.check();
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert_eq!(report.deliveries, 2);
}

/// A batch receive that had to sleep records its wake like a single one:
/// `TR_WAKEUP` on the chain of the batch's last delivery, after the
/// deliveries, in a record that still checks clean.
#[test]
fn blocked_batch_receive_records_its_wake_in_the_chain() {
    let mpf = Mpf::init(small_cfg()).unwrap();
    let tx = mpf.open_send(p(0), "late").unwrap();
    let rx = mpf.open_receive(p(1), "late", Protocol::Fcfs).unwrap();
    let blocked = || {
        let ring = mpf.view(p(1)).unwrap().trace_events(1);
        ring.iter().any(|e| e.kind == TR_RECV_BLOCK)
    };
    let got = std::thread::scope(|s| {
        let receiver = s.spawn(|| mpf.recv_batch(p(1), rx, 8).unwrap());
        // The marker is written once the receiver has found the queue
        // empty and is about to sleep: only then is there a wake to record.
        while !blocked() {
            std::thread::yield_now();
        }
        mpf.send_batch(p(0), tx, &[b"one".as_slice(), b"two"])
            .unwrap();
        receiver.join().unwrap()
    });
    assert_eq!(
        got,
        [b"one".to_vec(), b"two".to_vec()],
        "published as one run"
    );

    let ring = mpf.view(p(1)).unwrap().trace_events(1);
    let story: Vec<_> = ring
        .iter()
        .filter(|e| matches!(e.kind, TR_RECV_BLOCK | TR_RECV | TR_WAKEUP))
        .collect();
    let kinds: Vec<u32> = story.iter().map(|e| e.kind).collect();
    assert_eq!(kinds, [TR_RECV_BLOCK, TR_RECV, TR_RECV, TR_WAKEUP]);
    let (last_recv, wake) = (story[2], story[3]);
    assert_ne!(wake.trace, 0);
    assert_eq!((wake.trace, wake.hop), (last_recv.trace, last_recv.hop));
    assert_eq!(wake.arg, 6, "the bytes the wake delivered");

    let log = TraceLog::from_ipc(mpf.view(p(0)).unwrap());
    let in_chain = |c: &mpf_trace::Chain| c.events.iter().any(|r| r.ev.kind == TR_WAKEUP);
    assert_eq!(log.chains().iter().filter(|c| in_chain(c)).count(), 1);
    let report = log.check();
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert_eq!(report.deliveries, 2);
}

// ---------------------------------------------------------------------------
// Cross-process: SIGKILL a peer, reconstruct post-mortem
// ---------------------------------------------------------------------------

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

/// Child role for [`sigkilled_peer_reconstructs_post_mortem`]: answer one
/// request (continuing its causal chain), queue undeliverable messages on
/// a conversation nobody reads, then block in a receive nobody will
/// satisfy until SIGKILLed.
#[test]
#[ignore = "helper: only meaningful when spawned by a parent test"]
fn helper_traced_victim() {
    let Ok(region) = std::env::var(REGION_ENV) else {
        return;
    };
    let m = IpcMpf::attach(&region).expect("attach");
    let req = m.open_receive("req", Protocol::Fcfs).expect("open req");
    let rep = m.open_send("reply").expect("open reply");
    let void = m.open_send("void").expect("open void");
    let mut buf = [0u8; 64];
    let n = m.message_receive(req, &mut buf).expect("receive request");
    m.message_send(rep, &buf[..n]).expect("send reply");
    for i in 0..3u8 {
        m.message_send(void, &[i; 8]).expect("send into the void");
    }
    let idle = m.open_receive("idle", Protocol::Fcfs).expect("open idle");
    let _ = m.recv_deadline(
        idle,
        &mut buf,
        Some(Instant::now() + Duration::from_secs(60)),
    );
}

/// The tentpole's acceptance story: a 2-process run whose peer is
/// SIGKILLed mid-session still yields the exact request/reply causal
/// chain — spanning both rings, dead process included — and a
/// conformance-clean report (the victim's undelivered backlog is excused
/// by the poison markers the survivor's sweep records).  The `mpf-trace`
/// binary is exercised the way an operator would run it: `--check`,
/// `--export`, and `stat --json` on the corpse it left.
#[test]
fn sigkilled_peer_reconstructs_post_mortem() {
    if !mpf_shm::sys::HAVE_SYSCALLS {
        return;
    }
    let region = format!("trace-pm-{}", std::process::id());
    let m = IpcMpf::create(&region, &small_cfg()).unwrap();
    let req_tx = m.open_send("req").unwrap();
    let rep_rx = m.open_receive("reply", Protocol::Fcfs).unwrap();
    // "void" stays open on the survivor side so the victim's undelivered
    // backlog remains queued (and poisoned) rather than vanishing with
    // the conversation.
    let _void_rx = m.open_receive("void", Protocol::Fcfs).unwrap();

    let mut victim = spawn_helper("helper_traced_victim", &region);
    m.message_send(req_tx, b"trace me").unwrap();
    let mut buf = [0u8; 64];
    let n = m
        .recv_deadline(
            rep_rx,
            &mut buf,
            Some(Instant::now() + Duration::from_secs(30)),
        )
        .expect("reply arrives");
    assert_eq!(&buf[..n], b"trace me");

    // Wait until the victim has sent its three voids and blocked in its
    // last receive, then kill it.
    let insp = RegionInspector::attach(&region).unwrap();
    let victim_slot = loop {
        let logs = TraceLog::from_inspector(&insp);
        let victim_pid = logs
            .rings()
            .iter()
            .find(|r| r.pid != m.pid() && !r.events.is_empty())
            .map(|r| r.pid);
        if let Some(pid) = victim_pid {
            let events = insp.trace_events(pid);
            let voids = events
                .iter()
                .filter(|e| e.kind == TR_SEND && e.arg == 8)
                .count();
            if voids >= 3 && events.last().map(|e| e.kind) == Some(TR_RECV_BLOCK) {
                break pid;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let victim_os_pid = victim.id();
    victim.kill().expect("SIGKILL victim");
    victim.wait().expect("reap victim");
    while m.sweep_dead_peers() == 0 {
        std::thread::sleep(Duration::from_millis(10));
    }

    // Post-mortem reconstruction straight off the region file.
    let log = TraceLog::from_inspector(&insp);
    let chain = log
        .chains()
        .into_iter()
        .find(|c| c.hops() == 2)
        .expect("request/reply chain survives the kill");
    let core: Vec<(u32, u32, u32)> = chain
        .events
        .iter()
        .filter(|r| matches!(r.ev.kind, TR_SEND | TR_RECV))
        .map(|r| (r.ev.hop, r.pid, r.ev.kind))
        .collect();
    // The victim adopted the request's chain on delivery, so every send
    // it issued afterwards — the reply AND the three void sends — rides
    // the same trace id at hop 1.
    assert_eq!(
        core,
        vec![
            (0, m.pid(), TR_SEND),
            (0, victim_slot, TR_RECV),
            (1, victim_slot, TR_SEND),
            (1, m.pid(), TR_RECV),
            (1, victim_slot, TR_SEND),
            (1, victim_slot, TR_SEND),
            (1, victim_slot, TR_SEND),
        ],
        "post-mortem chain mis-reconstructed: {chain:?}"
    );

    let report = log.check();
    assert!(
        report.is_clean(),
        "SIGKILL run must check clean: {:?}",
        report.violations
    );

    // The binary, exactly as an operator would run it: check gates on
    // conformance (exit 0 = clean), export produces loadable JSON.
    let out = Command::new(env!("CARGO_BIN_EXE_mpf-trace"))
        .args([region.as_str(), "--check", "--json"])
        .output()
        .expect("run mpf-trace");
    assert!(out.status.success(), "mpf-trace --check failed: {out:?}");
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(json.contains("\"violations\":[]"), "dirty report: {json}");

    let export = std::env::temp_dir().join(format!("mpf-trace-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_mpf-trace"))
        .args([region.as_str(), "--export", export.to_str().unwrap()])
        .output()
        .expect("run mpf-trace --export");
    assert!(out.status.success(), "export failed: {out:?}");
    let exported = std::fs::read_to_string(&export).unwrap();
    assert!(exported.contains("\"traceEvents\""));
    assert_eq!(exported.matches('{').count(), exported.matches('}').count());
    let _ = std::fs::remove_file(&export);

    // `stat --json`: the swept corpse, its poisoned conversations, the
    // counters it contributed and the tail of its ring, the last record
    // being the receive it died blocked in.
    let out = Command::new(env!("CARGO_BIN_EXE_mpf-trace"))
        .args([region.as_str(), "stat", "--json"])
        .output()
        .expect("run mpf-trace stat");
    assert!(out.status.success(), "stat failed: {out:?}");
    let json = String::from_utf8(out.stdout).expect("utf8 json");
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    for key in [
        "\"state\":\"dead\"",
        "\"poisoned\":true",
        "\"trace_enabled\":true",
        "\"trace_rings\":[{",
        "\"kind\":\"send\"",
        "\"kind\":\"recv_block\"",
        "\"peers_died\":1",
        "\"sizes\":{\"count\":",
        "\"tel_fold_seq\":",
        &format!("\"os_pid\":{victim_os_pid}"),
    ] {
        assert!(json.contains(key), "{key} missing from {json}");
    }
}
