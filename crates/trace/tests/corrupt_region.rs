//! Seeded byte-flip fuzz of everything that reads a region file: whatever
//! single byte is corrupted, the inspector must attach cleanly or return
//! an error, and then the trace reconstruction (`check`, `render_chains`,
//! `chrome_json`) and the `stat` renderers must finish — never panic,
//! never hang.  Each flip is restored before the next so the probes stay
//! independent.  Records no engine writes (a close with no open, a second
//! open, a population stamp equal to a send's, an unknown kind) too.

use std::sync::mpsc;
use std::time::Duration;

use mpf::inspect::RegionInspector;
use mpf::{IpcMpf, MpfConfig, Protocol};
use mpf_shm::tracering::{
    TraceEvent, TR_CLOSE_RECV, TR_CLOSE_SEND, TR_OPEN_RECV, TR_OPEN_SEND, TR_RECLAIM, TR_RECV,
    TR_RECV_B, TR_SEND,
};
use mpf_shm::{ShmRegion, SmallRng};
use mpf_trace::render::{stat_json, stat_text, summary_json, summary_text};
use mpf_trace::{PidEvents, Rule, TraceLog};

/// Generous for 256 probes of a small region in a debug build.
const WALL_CLOCK_BOUND: Duration = Duration::from_secs(120);

fn probe(insp: &RegionInspector) {
    let _ = insp.processes();
    let _ = insp.lnvcs();
    let _ = insp.telemetry_snapshot();
    for pid in 0..insp.config().max_processes {
        let _ = insp.trace_events(pid);
    }
    let log = TraceLog::from_inspector(insp);
    let report = log.check();
    let _ = log.render_chains();
    let _ = log.chrome_json();
    let _ = summary_text(insp, &log, &report);
    let _ = summary_json(insp, &log, &report, 16);
    let _ = stat_text(insp, 16, &[insp.telemetry_snapshot()]);
    let _ = stat_json(insp, 16);
}

#[test]
fn readers_survive_seeded_corruption() {
    if !mpf_shm::sys::HAVE_SYSCALLS {
        return;
    }
    let name = format!("trace-fuzz-{}", std::process::id());
    let cfg = MpfConfig::new(4, 4)
        .with_max_messages(16)
        .with_total_blocks(64);
    let mpf = IpcMpf::create(&name, &cfg).unwrap();
    let tx = mpf.open_send("victim").unwrap();
    let _rx = mpf.open_receive("victim", Protocol::Fcfs).unwrap();
    for i in 0..4u8 {
        mpf.message_send(tx, &[i; 100]).unwrap();
    }
    let raw = ShmRegion::attach(&name).unwrap();

    let (done_tx, done_rx) = mpsc::channel();
    let fuzz_name = name.clone();
    let fuzzer = std::thread::spawn(move || {
        let len = raw.len();
        // xorshift64*: deterministic, so a failure reproduces exactly.
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for i in 0..256 {
            let r = next();
            let off = (r as usize) % len;
            let flip = ((r >> 40) as u8) | 1;
            // SAFETY: `off < len`, so the byte lies inside the mapping,
            // which `raw` keeps alive; volatile because other mappings of
            // the region may read it concurrently.
            let p = unsafe { raw.bytes_at(off, 1) };
            // SAFETY: `p` is that in-bounds byte (above).
            let old = unsafe { std::ptr::read_volatile(p) };
            // SAFETY: as above.
            unsafe { std::ptr::write_volatile(p, old ^ flip) };
            let probed = std::panic::catch_unwind(|| {
                if let Ok(insp) = RegionInspector::attach(&fuzz_name) {
                    probe(&insp);
                }
            });
            // SAFETY: as above; restores the byte before the next probe.
            unsafe { std::ptr::write_volatile(p, old) };
            assert!(
                probed.is_ok(),
                "flip {i} (offset {off:#x} ^ {flip:#04x}) panicked a reader"
            );
        }
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(WALL_CLOCK_BOUND) {
        Ok(()) => fuzzer.join().unwrap(),
        // The fuzzer panicked: re-raise its panic, which names the probe.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(fuzzer.join().unwrap_err())
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("a corrupted region hung a reader"),
    }
    // The region is pristine again; a normal attach must still work.
    assert!(RegionInspector::attach(&name).is_ok());
    drop(mpf);
}

/// `(pid, kind, stamp, arg, arg2)` records on conversation 0, one ring per
/// pid, replayed and rendered.
fn replay(records: &[(u32, u32, u64, u32, u32)]) -> Vec<Rule> {
    let ring = |pid| PidEvents {
        pid,
        truncated: false,
        sampled_out: 0,
        events: (records.iter().filter(|r| r.0 == pid))
            .map(|&(_, kind, stamp, arg, arg2)| {
                let (seq, tstamp, hop, lnvc, trace) = (0, 0, 0, 0, stamp ^ 1);
                TraceEvent {
                    seq,
                    tstamp,
                    trace,
                    stamp,
                    arg,
                    kind,
                    hop,
                    lnvc,
                    arg2,
                }
            })
            .collect(),
    };
    let log = TraceLog::new((0..4).map(ring).collect());
    let _ = (log.render_chains(), log.chrome_json());
    log.check().violations.iter().map(|v| v.rule).collect()
}

#[test]
fn hostile_records_replay_without_panic() {
    let fcfs = 1 << 16;
    // A close with no open, of either kind, then traffic nobody opened.
    let orphans = replay(&[
        (1, TR_CLOSE_RECV, 0, 1, 0),
        (0, TR_CLOSE_SEND, 1, 0, 0),
        (0, TR_SEND, 2, 8, fcfs),
        (1, TR_RECV, 2, 8, 0),
    ]);
    assert_eq!(orphans, [Rule::ObligationMismatch, Rule::RecvWithoutSend]);
    // An open recorded twice (the second refused), then clean traffic.
    let twice = replay(&[
        (0, TR_OPEN_SEND, 0, 0, 0),
        (0, TR_OPEN_SEND, 1, 0, 0),
        (1, TR_OPEN_RECV, 2, 1, 0),
        (1, TR_OPEN_RECV, 3, 2, 0),
        (0, TR_SEND, 4, 8, fcfs),
        (1, TR_RECV, 4, 8, 0),
        (1, TR_RECLAIM, 4, 8, 0),
    ]);
    assert_eq!(twice, []);
    // A population stamp equal to a send's: one order is picked, the same
    // every time.
    let tie = [
        (0, TR_OPEN_SEND, 0, 0, 0),
        (1, TR_OPEN_RECV, 1, 2, 0),
        (0, TR_SEND, 1, 8, 1),
        (1, TR_RECV_B, 1, 8, 0),
    ];
    assert_eq!(replay(&tie), replay(&tie));
    // Unknown kinds are skipped.
    let unknown = [
        (2, 0, 0, 0, 0),
        (2, 99, 7, 1, 1),
        (3, u32::MAX, u64::MAX, 0, 0),
    ];
    assert_eq!(replay(&unknown), []);
    // And whatever a seeded stream of such records says, the replay ends.
    let mut rng = SmallRng::seed_from_u64(0x5EC3);
    for _ in 0..256 {
        let mut any = |n: u32| rng.gen_range(0..n);
        let records: Vec<_> = (0..any(24))
            .map(|_| (any(4), any(18), u64::from(any(12)), any(4), any(4) << 15))
            .collect();
        replay(&records);
    }
}
