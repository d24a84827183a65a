//! The service layer under injected peer death.
//!
//! The transport blocks in the engine's own receive forms, which pass the
//! fault plane's `PeerDied` site (the single-pass `try_` forms do not): a
//! client's send or reply wait can be told, falsely, that its peer died.
//! Whatever the lie, every `call` must end — with the reply or a typed
//! error — inside its `call_budget`, and the region must stay sound; a
//! client that gave up `Unavailable` is served again by its next call,
//! without reconnecting.  The plane is process-global, so this file is
//! its own test binary; the in-process server and worker live under the
//! same plane.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpf::{Mpf, MpfConfig, ProcessId};
use mpf_serve::{run_worker, Client, ClientCfg, ServeError, Server, ThreadTransport, WorkerCfg};
use mpf_shm::faultplane::{self, FaultConfig};

const SVC: &str = "lied";
const CALLS: u32 = 60;

fn thread_t(mpf: &Arc<Mpf>, pid: usize) -> ThreadTransport {
    ThreadTransport::new(Arc::clone(
        mpf.view(ProcessId::from_index(pid)).expect("view"),
    ))
}

#[test]
fn calls_under_injected_peer_death_end_typed_within_budget() {
    let mpf = Arc::new(Mpf::init(MpfConfig::new(32, 16)).expect("init"));
    let mut server = Server::new(Arc::new(thread_t(&mpf, 0)), SVC).expect("anchor");
    let worker = {
        let mpf = Arc::clone(&mpf);
        std::thread::spawn(move || {
            run_worker(&thread_t(&mpf, 1), &WorkerCfg::new(SVC, 1), |req| {
                req.to_vec()
            })
        })
    };
    while server.worker_count() < 1 {
        server
            .poll_acks(Some(Instant::now() + Duration::from_millis(10)))
            .expect("poll_acks");
    }

    let cfg = ClientCfg {
        attempt: Duration::from_millis(40),
        discover: Duration::from_millis(40),
        call_budget: Duration::from_millis(400),
        ..ClientCfg::new(SVC, 1)
    };
    // One scheduling quantum of slack on a busy host, not a second bound.
    let bound = cfg.call_budget + Duration::from_millis(250);
    let t = Arc::new(thread_t(&mpf, 2));
    let stop = AtomicBool::new(false);
    let (mut ok, mut typed) = (0u32, 0u32);
    let injected = std::thread::scope(|s| {
        // The server's own ack wait is lied to as well; it shrugs, as the
        // soak driver's pump does.
        s.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                let _ = server.poll_acks(Some(Instant::now() + Duration::from_millis(10)));
            }
        });
        let plane = faultplane::install(FaultConfig::new(0xD1ED).with_peer_died(0.05));
        let mut client = Client::connect(t, cfg).expect("connect");
        for i in 0..CALLS {
            let start = Instant::now();
            let result = client.call(&i.to_le_bytes());
            let took = start.elapsed();
            assert!(took < bound, "call {i} took {took:?}: {result:?}");
            match result {
                Ok(reply) => {
                    assert_eq!(reply, i.to_le_bytes(), "call {i}");
                    ok += 1;
                }
                // A lied-about request queue sends the client looking for
                // an epoch that does not exist; it gives up, typed, and
                // its next call finds the live one again.
                Err(
                    ServeError::Unavailable | ServeError::TimedOut | ServeError::DeadlineExceeded,
                ) => typed += 1,
                Err(e) => panic!("call {i}: {e}"),
            }
        }
        let injected = faultplane::stats().peer_died;
        drop(plane);
        // The lies stop: the same client, whatever generation its reply
        // queue reached, is served again.
        assert_eq!(client.call(b"truth").expect("call"), b"truth");
        client.close();
        stop.store(true, Ordering::Release);
        injected
    });
    assert!(injected > 0, "the plane never fired");
    assert!(ok > 0, "no call survived: {typed} typed errors");
    assert_eq!(ok + typed, CALLS);

    let s = server
        .shutdown(Some(Duration::from_secs(10)))
        .expect("shutdown");
    assert!(s.stragglers.is_empty(), "{s:?}");
    worker.join().expect("worker thread").expect("worker");
    assert_eq!(mpf.live_lnvcs(), 0, "abandoned reply queues were deleted");
    mpf.check_invariants().expect("invariants");
}
