//! Schedule exploration for the `mpf-serve` control-plane handshake.
//!
//! The service layer's drain/shutdown protocol is a distributed
//! handshake over three conversations (request queue, BROADCAST control
//! plane, ack channel), and its correctness claims — every drain is
//! acked, every shutdown produces a BYE, nothing leaks — are exactly
//! the kind of thing a lucky thread schedule can fake.  This scenario
//! races a deterministic worker ([`WorkerCfg::deterministic`]: no idle
//! ticks, no clock-driven timeouts, exits only on `K_SHUTDOWN`) against
//! a controller that owns the [`Server`] and an inline [`Client`], all
//! over the transport that ships ([`ThreadTransport`]): it blocks in the
//! engine's own waits, which park on the hooked futex words the
//! cooperative scheduler controls, and its facade starts no reactor
//! thread — nothing runs that the explorer does not schedule.
//!
//! Under **every** explored interleaving the run must finish with: the
//! call answered, the drain acked by the one worker with an empty
//! residual queue, the shutdown yielding a BYE and no stragglers, and
//! the facility back to zero live conversations with all blocks free.

use std::sync::Arc;
use std::time::Duration;

use mpf::{Mpf, MpfConfig, ProcessId};
use mpf_aio::AsyncMpf;
use mpf_check::{explore_random, Case, ExploreOpts};
use mpf_serve::{run_worker, Client, ClientCfg, Server, ThreadTransport, WorkerCfg};

fn transport(mpf: &Arc<Mpf>, pid: usize) -> ThreadTransport {
    ThreadTransport(AsyncMpf::new(Arc::clone(mpf), ProcessId::from_index(pid)))
}

/// Budgets no schedule outlives: a hooked wait ignores its timeout, so a
/// deadline here could only ever fire on the wall clock and make a
/// schedule unreplayable.
fn deterministic_client(cid: u32) -> ClientCfg {
    const NEVER: Duration = Duration::from_secs(24 * 3600);
    ClientCfg {
        attempt: NEVER,
        discover: NEVER,
        call_budget: NEVER,
        ..ClientCfg::new(SVC, cid)
    }
}

const SVC: &str = "hand";

/// One worker, one client call, then drain → resume → shutdown.
///
/// The server is anchored in setup (before any proc runs), so epoch
/// discovery succeeds on its first probe pass and nothing in the
/// scenario ever naps on the wall clock — schedules stay replayable.
fn handshake_case() -> Case {
    let cfg = MpfConfig::new(16, 8)
        .with_total_blocks(64)
        .with_block_payload(64)
        .with_max_messages(32);
    let total = cfg.total_blocks;
    let mpf = Arc::new(Mpf::init(cfg).expect("init"));

    let server = Server::new(Arc::new(transport(&mpf, 0)), SVC).expect("anchor");

    let worker = {
        let mpf = Arc::clone(&mpf);
        Box::new(move || {
            let t = transport(&mpf, 1);
            let stats = run_worker(&t, &WorkerCfg::deterministic(SVC, 1), |req| {
                let v = u32::from_le_bytes(req[..4].try_into().expect("4 bytes"));
                v.wrapping_mul(2).to_le_bytes().to_vec()
            })
            .expect("worker");
            assert_eq!(stats.served, 1, "exactly one request crosses the queue");
        }) as Box<dyn FnOnce() + Send>
    };

    let controller = {
        let mpf = Arc::clone(&mpf);
        let mut server = server;
        Box::new(move || {
            // Wait for the worker's HELLO — a broadcast sent before any
            // worker joined would be skipped (zero-receiver BROADCAST
            // turns into a stale owed command for the next joiner).
            while server.worker_count() < 1 {
                server.poll_acks(None).expect("poll_acks");
            }

            let t = Arc::new(transport(&mpf, 2));
            let mut client = Client::connect(t, deterministic_client(7)).expect("connect");
            let reply = client.call(&21u32.to_le_bytes()).expect("call");
            assert_eq!(u32::from_le_bytes(reply[..4].try_into().unwrap()), 42);
            client.close();

            let d = server.drain(None).expect("drain");
            assert_eq!(d.acked, vec![1], "the worker acked the drain");
            assert!(d.timed_out.is_empty(), "no deadline, no timeouts");
            assert_eq!(d.residual, 0, "queue quiesced: {d:?}");
            assert_eq!(d.served_total, 1, "{d:?}");

            server.resume().expect("resume");

            let s = server.shutdown(None).expect("shutdown");
            assert_eq!(s.byes, vec![1], "the worker said BYE: {s:?}");
            assert!(s.stragglers.is_empty(), "{s:?}");
        }) as Box<dyn FnOnce() + Send>
    };

    Case {
        procs: vec![worker, controller],
        death: None,
        check: Box::new(move || {
            mpf.check_invariants()?;
            if mpf.live_lnvcs() != 0 {
                return Err(format!(
                    "service conversations leaked: {} still live",
                    mpf.live_lnvcs()
                ));
            }
            if mpf.free_blocks() != total {
                return Err(format!(
                    "blocks pinned after shutdown: {} free of {}",
                    mpf.free_blocks(),
                    total
                ));
            }
            Ok(())
        }),
    }
}

#[test]
fn serve_handshake_random() {
    // The handshake is deep (hundreds of hooked decisions per schedule),
    // so the budget is schedules-few but each one covers a lot of
    // protocol; the seeded sweep still varies the preemption points.
    let opts = ExploreOpts::new("serve-handshake")
        .max_schedules(24)
        .max_steps(2_000_000);
    let report = explore_random(&opts, 0x5E17E, handshake_case);
    report.assert_ok();
    assert_eq!(report.schedules, opts.budget());
}
