//! Request/reply over LNVCs — now a thin wrapper around the `mpf-serve`
//! service layer, which packages the pattern this example used to build
//! by hand (shared FCFS request conversation, per-client reply
//! conversations, a control plane for shutdown).
//!
//! What the service layer adds over the hand-rolled version:
//! * a [`Server`] anchor so the shared conversations survive worker and
//!   client churn (LNVCs die with their last connection otherwise),
//! * a BROADCAST control plane — the orderly shutdown below replaces the
//!   old empty-message poison pill,
//! * per-call timeout/retry and duplicate suppression in [`Client`].
//!
//! ```sh
//! cargo run --example request_reply
//! ```

use std::sync::Arc;

use mpf::{Mpf, MpfConfig, ProcessId};
use mpf_serve::{run_worker, Client, ClientCfg, Server, ThreadTransport, WorkerCfg};

const CLIENTS: u32 = 4;
const WORKERS: u32 = 2;
const REQUESTS_PER_CLIENT: u64 = 8;
const SVC: &str = "square";

/// The transport of logical process `pid`: its view of the one `Mpf`.
fn transport(mpf: &Mpf, pid: usize) -> ThreadTransport {
    let view = mpf.view(ProcessId::from_index(pid)).expect("pid in range");
    ThreadTransport::new(Arc::clone(view))
}

fn main() {
    let mpf = Arc::new(Mpf::init(MpfConfig::new(32, 16)).expect("init"));

    // The server anchors the service's shared conversations (request
    // queue, control plane, ack channel) before any worker or client
    // exists, so nothing is lost to late joiners.
    let server_t = Arc::new(transport(&mpf, 0));
    let mut server = Server::new(Arc::clone(&server_t), SVC).expect("anchor service");

    let mut workers = Vec::new();
    for w in 0..WORKERS {
        let m = Arc::clone(&mpf);
        workers.push(std::thread::spawn(move || {
            let t = transport(&m, 1 + w as usize);
            // The handler squares a little-endian u32.
            let stats = run_worker(&t, &WorkerCfg::new(SVC, w + 1), |req| {
                let v = u32::from_le_bytes(req[..4].try_into().expect("4 bytes"));
                (v * v).to_le_bytes().to_vec()
            })
            .expect("worker");
            println!("worker {}: served {} requests", w + 1, stats.served);
        }));
    }

    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        let m = Arc::clone(&mpf);
        clients.push(std::thread::spawn(move || {
            let t = Arc::new(transport(&m, 1 + WORKERS as usize + c as usize));
            let mut client = Client::connect(t, ClientCfg::new(SVC, c + 1)).expect("connect");
            for i in 0..REQUESTS_PER_CLIENT {
                let reply = client.call(&(i as u32).to_le_bytes()).expect("call");
                let v = u32::from_le_bytes(reply[..4].try_into().expect("4 bytes"));
                assert_eq!(v, (i * i) as u32, "client {c} got a wrong answer");
            }
            client.close();
            println!("client {c}: {REQUESTS_PER_CLIENT} calls answered correctly");
        }));
    }

    // Pump worker registrations and serve acks while traffic runs.
    while clients.iter().any(|h| !h.is_finished()) {
        let _ = server.poll_acks(Some(
            std::time::Instant::now() + std::time::Duration::from_millis(10),
        ));
    }
    for h in clients {
        h.join().expect("client");
    }

    // Orderly shutdown over the control plane: workers flush the queue,
    // say goodbye, and exit.
    let report = server
        .shutdown(Some(std::time::Duration::from_secs(5)))
        .expect("shutdown");
    assert!(report.stragglers.is_empty(), "all workers said BYE");
    for h in workers {
        h.join().expect("worker");
    }
    drop(server_t);

    println!(
        "rpc demo complete; live conversations: {}",
        mpf.live_lnvcs()
    );
}
