//! Figure 3 with the series that needs a second OS process.
//!
//! `fig3_ipc [--quick] [--json PATH]` runs the catalog's native `fig3`
//! entry (loop-back, observability on and off) and adds `two processes`:
//! sender and receiver in genuinely separate OS processes — the receiver is
//! this binary re-exec'd with `--worker` — the configuration the paper
//! actually measured.  Same axis, same timer, one table, one report.
//!
//! `fig3_ipc --msgs N` measures nothing: it pushes `N` messages per size
//! through the worker, as a live two-process workload for the `mpf-trace`
//! smokes and the dead-peer probe to look at.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use mpf::{IpcMpf, LnvcId, Protocol};
use mpf_bench::catalog::{self, axis, fold, per_second, FIG3_LENGTHS};
use mpf_bench::measure::{measure, Budget, Workload};
use mpf_bench::native::{loopback_config, MAX_LOOPBACK_LEN};
use mpf_bench::report::JsonReport;

const REGION_ENV: &str = "MPF_FIG3_REGION";
/// A round ends with a 1-byte message, the session with a 2-byte one
/// (every payload is at least 16 bytes).
const END_OF_ROUND: &[u8] = &[0];
const END_OF_SESSION: &[u8] = &[0, 0];

/// How long either process waits for the other before giving up.
fn patience() -> Option<Instant> {
    Some(Instant::now() + Duration::from_secs(60))
}

/// Sends with back-pressure: a full pool means the receiver is behind, so
/// sleep until it frees room — and a receiver that DIED never will, which
/// the wait's sweep turns into `PeerDied` instead of a hang.
fn send(m: &IpcMpf, id: LnvcId, payload: &[u8]) {
    m.send_deadline(id, payload, patience())
        .unwrap_or_else(|e| panic!("send failed: {e}"));
}

/// Worker half: drain `bench`, acknowledge each round on `ack`.
fn worker_main(region: &str) {
    let m = IpcMpf::attach(region).expect("attach");
    let rx = m.open_receive("bench", Protocol::Fcfs).expect("rx");
    let ack = m.open_send("ack").expect("ack tx");
    let mut buf = vec![0u8; MAX_LOOPBACK_LEN];
    loop {
        let n = (m.recv_deadline(rx, &mut buf, patience())).expect("worker recv");
        if n == END_OF_ROUND.len() {
            send(&m, ack, b"ok");
        } else if n == END_OF_SESSION.len() {
            return;
        }
    }
}

/// Parent half, one size: an iteration is one message sent; the section
/// ends when the worker has acknowledged draining the round.
fn two_process(m: &IpcMpf, tx: LnvcId, ack: LnvcId, len: u32) -> Workload<'_> {
    let payload = vec![0x5Au8; len as usize];
    Box::new(move |msgs| {
        let start = Instant::now();
        for _ in 0..msgs {
            send(m, tx, &payload);
        }
        send(m, tx, END_OF_ROUND);
        (m.recv_deadline(ack, &mut [0u8; 8], patience())).expect("ack");
        start.elapsed()
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--worker") {
        return worker_main(&std::env::var(REGION_ENV).expect(REGION_ENV));
    }
    let live = (args.iter().position(|a| a == "--msgs"))
        .map(|i| args[i + 1].parse::<u64>().expect("--msgs N"));

    let region = format!("fig3-xp-{}", std::process::id());
    let m = IpcMpf::create(&region, &loopback_config(true)).expect("create region");
    let tx = m.open_send("bench").expect("tx");
    let ack = m.open_receive("ack", Protocol::Fcfs).expect("ack rx");
    let mut worker = Command::new(std::env::current_exe().expect("current_exe"))
        .arg("--worker")
        .env(REGION_ENV, &region)
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn worker");
    let mut points = Vec::from_iter(FIG3_LENGTHS.map(|len| two_process(&m, tx, ack, len)));

    if let Some(msgs) = live {
        for (point, len) in points.iter_mut().zip(FIG3_LENGTHS) {
            let took = point(msgs);
            println!("{len:>6} B: {msgs} messages to the worker in {took:.2?}");
        }
    } else {
        let budget = Budget::from_args(&args);
        let ns = measure(&mut points, budget);
        let curve = ["two processes".to_string()];
        let y = per_second(|i| FIG3_LENGTHS[i] as f64);
        let xp = fold("", &curve, &axis(&FIG3_LENGTHS), &ns, y);
        let mut out = catalog::fig3_native(budget);
        out.figures[0].series.extend(xp.series);
        out.figures[0].spread.extend(xp.spread);
        let mut json = JsonReport::from_args();
        catalog::emit(out, budget, json.as_mut());
        if let Some(j) = json {
            eprintln!("wrote {}", j.write().expect("write --json").display());
        }
    }
    send(&m, tx, END_OF_SESSION);
    let status = worker.wait().expect("reap worker");
    assert!(status.success(), "worker exited with {status}");
}
