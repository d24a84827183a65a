//! Figure 3 on the multi-process backend: throughput vs message length.
//!
//! Three series, same x-axis as `fig3_base`:
//!
//! * `threads`  — the in-process thread backend (`mpf::Mpf`), identical
//!   to `fig3_base --native`;
//! * `ipc loop-back` — the shared-region backend (`mpf_ipc::IpcMpf`)
//!   with sender and receiver in ONE process, isolating the cost of the
//!   offset-addressed region + `IpcLock`/futex primitives;
//! * `ipc 2-process` — sender and receiver in genuinely separate OS
//!   processes (the receiver is this binary re-exec'd with `--worker`),
//!   the configuration the paper actually measured.
//!
//! Usage: `fig3_ipc [--msgs N] [--no-telemetry] [--json <path>]`
//! (default 2000 messages per point). `--no-telemetry` runs all three
//! series with telemetry and tracing off, for measuring their overhead;
//! `--json` additionally writes the series plus loop-back latency
//! percentiles (from the in-region histogram) machine-readably.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use mpf::{MpfConfig, MpfError, Protocol};
use mpf_bench::report::{json_num, print_series, JsonReport};
use mpf_bench::{native, Series};
use mpf_ipc::IpcMpf;
use mpf_shm::telemetry::HistSnapshot;

const LENGTHS: [usize; 8] = [16, 64, 128, 256, 512, 1024, 1536, 2048];
const REGION_ENV: &str = "MPF_FIG3_REGION";
const ROUNDS_ENV: &str = "MPF_FIG3_ROUNDS";

fn region_config(telemetry: bool) -> MpfConfig {
    // `--no-telemetry` is the undisturbed baseline, so it switches off
    // causal tracing too; the default configuration carries both, which
    // is what the measured observability overhead covers.
    MpfConfig::new(4, 4)
        .with_block_payload(256)
        .with_total_blocks(1024)
        .with_max_messages(256)
        .with_max_connections(8)
        .with_telemetry(telemetry)
        .trace_sample_rate(u32::from(telemetry))
}

/// Sends with back-pressure: pool exhaustion usually means the receiver
/// is behind, so spin until a slot frees up — but a receiver that DIED
/// will never drain the pools, so sweep for dead peers while spinning;
/// the sweep poisons the conversation and the next send reports
/// `PeerDied` instead of hanging this process forever.
/// How long either process waits for the other before giving up.
fn patience() -> Option<Instant> {
    Some(Instant::now() + Duration::from_secs(60))
}

fn send_retry(m: &IpcMpf, id: mpf_ipc::IpcLnvcId, payload: &[u8]) {
    loop {
        match m.message_send(id, payload) {
            Ok(()) => return,
            Err(MpfError::MessagesExhausted) | Err(MpfError::BlocksExhausted) => {
                m.sweep_dead_peers();
                std::thread::yield_now();
            }
            Err(e) => panic!("send failed: {e}"),
        }
    }
}

/// In-process loop-back over the shared region (alternating send/recv,
/// exactly the paper's `base` loop). Also returns the region's
/// send-to-receive latency histogram (empty when telemetry is off).
fn ipc_loopback_throughput(len: usize, iters: u64, telemetry: bool) -> (f64, HistSnapshot) {
    let m = IpcMpf::create(
        &format!("fig3-loop-{}", std::process::id()),
        &region_config(telemetry),
    )
    .expect("create region");
    let tx = m.open_send("bench").expect("tx");
    let rx = m.open_receive("bench", Protocol::Fcfs).expect("rx");
    let payload = vec![0xA5u8; len];
    let mut buf = vec![0u8; len.max(1)];
    let start = Instant::now();
    for _ in 0..iters {
        m.message_send(tx, &payload).expect("send");
        m.message_receive(rx, &mut buf).expect("recv");
    }
    let secs = start.elapsed().as_secs_f64();
    let tput = (iters as usize * len) as f64 / secs;
    (tput, m.telemetry_snapshot().latency_hist)
}

/// Renders one latency histogram as a JSON object of percentiles.
fn latency_json(h: &HistSnapshot) -> String {
    format!(
        "{{\"count\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
        h.count,
        json_num(h.mean()),
        h.percentile(0.50),
        h.percentile(0.90),
        h.percentile(0.99),
        h.max
    )
}

/// Worker half of the 2-process measurement: drain `bench`, ack each
/// round (a 1-byte message marks end-of-round) on `ack`.
fn worker_main(region: &str, rounds: usize) {
    let m = IpcMpf::attach(region).expect("attach");
    let rx = m.open_receive("bench", Protocol::Fcfs).expect("rx");
    let ack = m.open_send("ack").expect("ack tx");
    let mut buf = vec![0u8; 4096];
    for _ in 0..rounds {
        loop {
            let n = m
                .recv_deadline(rx, &mut buf, patience())
                .expect("worker recv");
            if n == 1 {
                break;
            }
        }
        send_retry(&m, ack, b"ok");
    }
}

/// Parent half: per length, time `msgs` sends plus the worker's ack.
fn ipc_two_process_series(msgs: u64, telemetry: bool) -> Series {
    let region = format!("fig3-xp-{}", std::process::id());
    let m = IpcMpf::create(&region, &region_config(telemetry)).expect("create region");
    let tx = m.open_send("bench").expect("tx");
    let ack = m.open_receive("ack", Protocol::Fcfs).expect("ack rx");

    let mut worker = Command::new(std::env::current_exe().expect("current_exe"))
        .arg("--worker")
        .env(REGION_ENV, &region)
        .env(ROUNDS_ENV, LENGTHS.len().to_string())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn worker");

    let mut points = Vec::new();
    let mut buf = [0u8; 8];
    for &len in &LENGTHS {
        let payload = vec![0x5Au8; len];
        let start = Instant::now();
        for _ in 0..msgs {
            send_retry(&m, tx, &payload);
        }
        send_retry(&m, tx, &[0u8; 1]); // end-of-round marker
        m.recv_deadline(ack, &mut buf, patience()).expect("ack");
        let secs = start.elapsed().as_secs_f64();
        points.push((len as f64, (msgs as usize * len) as f64 / secs));
    }
    let status = worker.wait().expect("reap worker");
    assert!(status.success(), "worker exited with {status}");
    Series {
        label: "ipc 2-process".to_string(),
        points,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--worker") {
        let region = std::env::var(REGION_ENV).expect(REGION_ENV);
        let rounds: usize = std::env::var(ROUNDS_ENV)
            .expect(ROUNDS_ENV)
            .parse()
            .unwrap();
        worker_main(&region, rounds);
        return;
    }
    let msgs: u64 = args
        .iter()
        .position(|a| a == "--msgs")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--msgs N"))
        .unwrap_or(2000);
    let telemetry = !args.iter().any(|a| a == "--no-telemetry");
    let mut json = JsonReport::from_args();

    let threads = Series {
        label: "threads".to_string(),
        points: LENGTHS
            .iter()
            .map(|&len| (len as f64, native::base_throughput(len, msgs, telemetry)))
            .collect(),
    };
    let mut latencies = Vec::new();
    let ipc_loop = Series {
        label: "ipc loop-back".to_string(),
        points: LENGTHS
            .iter()
            .map(|&len| {
                let (tput, lat) = ipc_loopback_throughput(len, msgs, telemetry);
                latencies.push((len, lat));
                (len as f64, tput)
            })
            .collect(),
    };
    let ipc_xp = ipc_two_process_series(msgs, telemetry);
    let title = format!(
        "Figure 3 on the process backend: throughput (bytes/s) vs message length [telemetry {}]",
        if telemetry { "on" } else { "off" }
    );
    let series = [threads, ipc_loop, ipc_xp];
    print_series(&title, &series);
    for s in &series {
        println!(
            "# {}: telemetry + tracing {}",
            s.label,
            if telemetry { "on" } else { "off" }
        );
    }
    if telemetry {
        println!("# loop-back send-to-receive latency (ns, in-region histogram)");
        for (len, lat) in &latencies {
            println!(
                "len {len:<6} p50 {:<8} p90 {:<8} p99 {:<8} max {}",
                lat.percentile(0.50),
                lat.percentile(0.90),
                lat.percentile(0.99),
                lat.max
            );
        }
        println!();
    }
    if let Some(j) = json.as_mut() {
        j.add(&title, &series);
        j.add_extra("telemetry", format!("{telemetry}"));
        j.add_extra("msgs_per_point", format!("{msgs}"));
        let lat = latencies
            .iter()
            .map(|(len, h)| format!("{{\"len\":{len},\"latency_ns\":{}}}", latency_json(h)))
            .collect::<Vec<_>>()
            .join(",");
        j.add_extra("loopback_latency", format!("[{lat}]"));
    }
    if let Some(j) = json {
        let path = j.write().expect("write --json");
        eprintln!("wrote {}", path.display());
    }
}
