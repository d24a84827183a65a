//! The `mpf-trace` binary as an operator runs it: `stat` on a corpse that
//! died parked, `stat --watch`, the reconstruction summary, a reader that
//! hangs up early, and the argument parser's exit codes.
//!
//! The parked-corpse test re-executes this test binary (`--exact helper_*
//! --ignored`) so the victim really is a separate OS process.

use std::io::Write as _;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use mpf::inspect::RegionInspector;
use mpf::{IpcMpf, MpfConfig, Protocol};

const REGION_ENV: &str = "MPF_TRACE_REGION";

fn small_cfg() -> MpfConfig {
    MpfConfig::new(8, 4)
        .with_block_payload(64)
        .with_total_blocks(128)
        .with_max_messages(64)
        .with_max_connections(32)
}

fn mpf_trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mpf-trace"))
        .args(args)
        .output()
        .expect("run mpf-trace")
}

/// A named region with one traced round trip on it.
fn busy_region(tag: &str) -> (String, IpcMpf) {
    let region = format!("trace-cli-{tag}-{}", std::process::id());
    let m = IpcMpf::create(&region, &small_cfg()).unwrap();
    let tx = m.open_send("chat").unwrap();
    let rx = m.open_receive("chat", Protocol::Fcfs).unwrap();
    m.message_send(tx, b"hello").unwrap();
    m.message_receive(rx, &mut [0u8; 64]).unwrap();
    (region, m)
}

/// Child role for [`stat_shows_who_was_parked_on_what`]: park in a
/// two-member `wait_any_deadline` nobody will ever satisfy.
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

/// "Who is stuck on what", post-mortem: a process SIGKILLed while asleep
/// on its doorbell shows in `stat` — before any survivor sweeps — as an
/// attached slot whose owner is gone, asleep and watching two
/// conversations.
#[test]
fn stat_shows_who_was_parked_on_what() {
    if !mpf_shm::sys::HAVE_SYSCALLS {
        return;
    }
    let region = format!("trace-cli-parked-{}", std::process::id());
    let m = IpcMpf::create(&region, &small_cfg()).unwrap();
    let insp = RegionInspector::attach(&region).expect("inspector attach");
    let mut victim = Command::new(std::env::current_exe().expect("current_exe"))
        .args(["--exact", "helper_doomed_watcher", "--ignored"])
        .env(REGION_ENV, &region)
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn helper process");
    let patience = Instant::now() + Duration::from_secs(30);
    let parked = loop {
        let found = insp
            .processes()
            .into_iter()
            .find(|p| p.pid != m.pid() && p.asleep && p.watching == 2);
        if let Some(p) = found {
            break p;
        }
        assert!(Instant::now() < patience, "peer never parked");
        std::thread::sleep(Duration::from_millis(1));
    };
    victim.kill().expect("SIGKILL victim");
    victim.wait().expect("reap victim");

    let out = mpf_trace(&[&region, "stat", "--json"]);
    assert!(out.status.success(), "stat --json failed: {out:?}");
    let json = String::from_utf8(out.stdout).expect("utf8 json");
    let row = format!("\"os_pid\":{},\"alive\":false", parked.os_pid);
    assert!(json.contains(&row), "corpse row in {json}");
    assert!(
        json.contains("\"asleep\":true,\"watching\":2,\"mem_wait\":false"),
        "parked watcher in {json}"
    );
    assert!(json.contains("\"pool_waiters\":0"), "header in {json}");

    let out = mpf_trace(&[&region, "stat"]);
    assert!(out.status.success(), "stat failed: {out:?}");
    let text = String::from_utf8(out.stdout).expect("utf8");
    for column in ["asleep", "watching", "mem-wait", "NO", "trace rings ("] {
        assert!(text.contains(column), "{column} missing from {text}");
    }
    assert_eq!(m.sweep_dead_peers(), 1);
}

/// `stat --watch` redraws on the shared poll loop and stops at
/// `--for-secs`; a frame after the first carries the interval deltas.
#[test]
fn stat_watch_redraws_until_for_secs() {
    if !mpf_shm::sys::HAVE_SYSCALLS {
        return;
    }
    let (region, _m) = busy_region("watch");
    let out = mpf_trace(&[
        &region,
        "stat",
        "--watch",
        "--interval-ms",
        "50",
        "--for-secs",
        "1",
    ]);
    assert!(out.status.success(), "stat --watch failed: {out:?}");
    let text = String::from_utf8(out.stdout).expect("utf8");
    let frames = text.matches("\x1b[2J\x1b[H").count();
    assert!(frames >= 2, "{frames} frame(s): {text}");
    assert!(text.contains("Δ interval"), "{text}");
}

/// The reconstruction summary carries the ring table that `stat` shows,
/// and its JSON the same ring objects, `--ring` records each.
#[test]
fn summary_shows_ring_occupancy() {
    if !mpf_shm::sys::HAVE_SYSCALLS {
        return;
    }
    let (region, m) = busy_region("summary");
    let out = mpf_trace(&[&region]);
    assert!(out.status.success(), "summary failed: {out:?}");
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(
        text.contains("trace rings (1 active; tracing every chain)"),
        "{text}"
    );
    assert!(
        text.contains("sampled-out") && text.contains("0 violation(s)"),
        "{text}"
    );

    let out = mpf_trace(&[&region, "--json", "--ring", "2"]);
    assert!(out.status.success(), "summary --json failed: {out:?}");
    let json = String::from_utf8(out.stdout).expect("utf8");
    let ring = format!("\"trace_rings\":[{{\"pid\":{},\"os_pid\":", m.pid());
    assert!(json.contains(&ring), "{json}");
    assert_eq!(json.matches("\"seq\":").count(), 2, "--ring 2 tail: {json}");
}

/// A reader that hangs up before the first byte (`| head` gone early)
/// ends the tool quietly, with no broken-pipe panic.  The shell blocks on
/// stdin until the read end of its stdout is closed, then becomes the
/// tool, so the first write is certain to find no reader.
#[test]
fn closed_stdout_is_not_a_panic() {
    if !mpf_shm::sys::HAVE_SYSCALLS {
        return;
    }
    let (region, _m) = busy_region("pipe");
    let mut child = Command::new("sh")
        .args([
            "-c",
            "read _ && exec \"$0\" \"$1\" stat",
            env!("CARGO_BIN_EXE_mpf-trace"),
        ])
        .arg(&region)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sh");
    drop(child.stdout.take());
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(b"go\n").unwrap();
    drop(stdin);
    let out = child.wait_with_output().expect("wait");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    assert!(out.status.success(), "{out:?}");
}

/// Every flag takes a value or none: a missing or unparsable value, an
/// unknown argument or `--watch` outside `stat` exits 2; `--help` exits 0.
#[test]
fn parser_exit_codes() {
    for (args, code) in [
        (&["--help"][..], 0),
        (&["r", "--ring"][..], 2),
        (&["r", "--interval-ms", "soon"][..], 2),
        (&["r", "--for-secs"][..], 2),
        (&["r", "--watch"][..], 2),
        (&["r", "--bogus"][..], 2),
        (&[][..], 2),
    ] {
        let out = mpf_trace(args);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {out:?}");
    }
}
