//! Two genuinely separate OS processes talking through one MPF region.
//!
//! The parent creates a named shared-memory region, then re-executes
//! this binary twice with `--worker`; each worker process attaches by
//! name only.  Workers send FCFS requests up to the parent, the parent
//! broadcasts one announcement down to all workers — the paper's two
//! delivery protocols, across real address-space boundaries.
//!
//! Run: `cargo run --example cross_process`

use std::process::Command;
use std::time::{Duration, Instant};

use mpf_repro::ipc::IpcMpf;
use mpf_repro::mpf::{MpfConfig, Protocol};

const REGION_ENV: &str = "MPF_EXAMPLE_REGION";
const WORKERS: usize = 2;

/// How long either side waits for the other before giving up.
fn patience() -> Option<Instant> {
    Some(Instant::now() + Duration::from_secs(10))
}

fn worker() {
    let region = std::env::var(REGION_ENV).expect("worker needs the region name");
    // All a worker knows is the region's name; attach() blocks until the
    // creator has finished carving (the header's init barrier).
    let m = IpcMpf::attach(&region).expect("attach");
    let requests = m.open_send("requests").expect("open_send");
    let announce = m
        .open_receive("announcements", Protocol::Broadcast)
        .expect("open_receive");

    m.message_send(
        requests,
        format!("hello from MPF pid {}", m.pid()).as_bytes(),
    )
    .expect("send request");

    let mut buf = [0u8; 256];
    let n = m
        .recv_deadline(announce, &mut buf, patience())
        .expect("receive broadcast");
    println!(
        "[worker {} / OS pid {}] got broadcast: {:?}",
        m.pid(),
        std::process::id(),
        std::str::from_utf8(&buf[..n]).unwrap()
    );
}

fn main() {
    if std::env::args().any(|a| a == "--worker") {
        return worker();
    }

    let region = format!("example-{}", std::process::id());
    let cfg = MpfConfig::new(4, 4);
    let m = IpcMpf::create(&region, &cfg).expect("create region");
    println!(
        "[parent {} / OS pid {}] created region {:?} ({} bytes)",
        m.pid(),
        std::process::id(),
        region,
        m.region_bytes()
    );

    let requests = m
        .open_receive("requests", Protocol::Fcfs)
        .expect("open_receive");
    let announce = m.open_send("announcements").expect("open_send");

    let exe = std::env::current_exe().expect("current_exe");
    let children: Vec<_> = (0..WORKERS)
        .map(|_| {
            Command::new(&exe)
                .arg("--worker")
                .env(REGION_ENV, &region)
                .spawn()
                .expect("spawn worker")
        })
        .collect();

    // FCFS: each worker's request is delivered exactly once.
    let mut buf = [0u8; 256];
    for _ in 0..WORKERS {
        let n = m
            .recv_deadline(requests, &mut buf, patience())
            .expect("receive request");
        println!(
            "[parent] request: {:?}",
            std::str::from_utf8(&buf[..n]).unwrap()
        );
    }

    // BROADCAST: one send, every connected worker sees it.
    m.message_send(announce, b"work's done, everyone go home")
        .expect("broadcast");

    for mut c in children {
        assert!(c.wait().expect("wait").success());
    }
    println!("[parent] all workers exited cleanly");
}
