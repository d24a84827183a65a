//! Service-layer integration tests on the thread backend: full
//! control-plane lifecycle (pause → resume → drain → shutdown) with
//! real concurrency, plus conservation after everything disconnects;
//! the transport's deadline contract; a client that comes back after the
//! service was gone; and the threads the service starts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpf::{LnvcId, Mpf, MpfConfig, MpfError, ProcessId, Protocol, Result};
use mpf_serve::{
    run_worker, wire, Client, ClientCfg, ServeError, Server, ThreadTransport, Transport, WorkerCfg,
};

fn p(i: usize) -> ProcessId {
    ProcessId::from_index(i)
}

fn thread_t(mpf: &Arc<Mpf>, pid: usize) -> ThreadTransport {
    ThreadTransport::new(Arc::clone(mpf.view(p(pid)).expect("view")))
}

/// Pumps the server's ack channel until `cond` holds or `timeout`.
fn pump_until<T, F>(server: &mut Server<T>, timeout: Duration, mut cond: F)
where
    T: mpf_serve::Transport,
    F: FnMut(&Server<T>) -> bool,
{
    let deadline = Instant::now() + timeout;
    while !cond(server) {
        assert!(Instant::now() < deadline, "condition not reached in time");
        server
            .poll_acks(Some(Instant::now() + Duration::from_millis(10)))
            .expect("poll_acks");
    }
}

#[test]
fn round_trip_and_lifecycle() {
    let mpf = Arc::new(Mpf::init(MpfConfig::new(32, 16)).expect("init"));
    let mut server = Server::new(Arc::new(thread_t(&mpf, 0)), "life").expect("anchor");

    let worker = {
        let mpf = Arc::clone(&mpf);
        std::thread::spawn(move || {
            let t = thread_t(&mpf, 1);
            run_worker(&t, &WorkerCfg::new("life", 1), |req| {
                let mut v = req.to_vec();
                v.reverse();
                v
            })
            .expect("worker")
        })
    };
    pump_until(&mut server, Duration::from_secs(10), |s| {
        s.worker_count() == 1
    });

    let t = Arc::new(thread_t(&mpf, 2));
    let mut client = Client::connect(t, ClientCfg::new("life", 1)).expect("connect");
    assert_eq!(client.call(b"abc").expect("call"), b"cba");

    // Pause stops intake; a call issued while paused must still succeed
    // once intake resumes (the request waits in the queue — FCFS owes it
    // to the worker class, not to a live receiver).
    server.pause().expect("pause");
    let pauser = {
        let mpf = Arc::clone(&mpf);
        std::thread::spawn(move || {
            let t = Arc::new(thread_t(&mpf, 3));
            let mut c = Client::connect(t, ClientCfg::new("life", 2)).expect("connect");
            let reply = c.call(b"paused").expect("call during pause");
            c.close();
            reply
        })
    };
    std::thread::sleep(Duration::from_millis(50));
    server.resume().expect("resume");
    let reply = pauser.join().expect("pauser thread");
    assert_eq!(reply, b"desuap");

    // Drain: the worker flushes and acks; the queue ends empty.
    let d = server.drain(Some(Duration::from_secs(10))).expect("drain");
    assert_eq!(d.acked, vec![1], "{d:?}");
    assert!(d.timed_out.is_empty(), "{d:?}");
    assert_eq!(d.residual, 0, "{d:?}");

    // Traffic flows again after the drain is resumed.
    server.resume().expect("resume after drain");
    assert_eq!(client.call(b"more").expect("post-drain call"), b"erom");
    client.close();

    let s = server
        .shutdown(Some(Duration::from_secs(10)))
        .expect("shutdown");
    assert_eq!(s.byes, vec![1], "{s:?}");
    assert!(s.stragglers.is_empty(), "{s:?}");
    let stats = worker.join().expect("worker thread");
    assert_eq!(stats.served, 3, "{stats:?}");

    assert_eq!(mpf.live_lnvcs(), 0, "service conversations all deleted");
    mpf.check_invariants().expect("invariants");
}

#[test]
fn many_clients_one_worker_dedupe_free() {
    const CLIENTS: usize = 6;
    const CALLS: u64 = 25;
    let mpf = Arc::new(Mpf::init(MpfConfig::new(32, 16)).expect("init"));
    let mut server = Server::new(Arc::new(thread_t(&mpf, 0)), "echo").expect("anchor");

    let worker = {
        let mpf = Arc::clone(&mpf);
        std::thread::spawn(move || {
            let t = thread_t(&mpf, 1);
            run_worker(&t, &WorkerCfg::new("echo", 9), |req| req.to_vec()).expect("worker")
        })
    };
    pump_until(&mut server, Duration::from_secs(10), |s| {
        s.worker_count() == 1
    });

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let mpf = Arc::clone(&mpf);
            std::thread::spawn(move || {
                let t = Arc::new(thread_t(&mpf, 2 + c));
                let mut cl =
                    Client::connect(t, ClientCfg::new("echo", c as u32 + 1)).expect("connect");
                for i in 0..CALLS {
                    let msg = format!("c{c}-{i}");
                    assert_eq!(cl.call(msg.as_bytes()).expect("call"), msg.as_bytes());
                }
                let stats = cl.stats.clone();
                cl.close();
                stats
            })
        })
        .collect();

    let mut done = Vec::new();
    for h in clients {
        while !h.is_finished() {
            let _ = server.poll_acks(Some(Instant::now() + Duration::from_millis(5)));
        }
        done.push(h.join().expect("client thread"));
    }
    for st in &done {
        assert_eq!(st.ok, CALLS, "{st:?}");
        assert_eq!(st.timeouts, 0, "{st:?}");
        // Private reply queues + per-seq matching: nothing to de-dupe
        // when no worker died.
        assert_eq!(st.dup_replies, 0, "{st:?}");
        assert_eq!(st.latency().count, CALLS, "{st:?}");
    }

    let s = server
        .shutdown(Some(Duration::from_secs(10)))
        .expect("shutdown");
    assert!(s.stragglers.is_empty(), "{s:?}");
    let stats = worker.join().expect("worker thread");
    assert_eq!(stats.served, CLIENTS as u64 * CALLS, "{stats:?}");

    assert_eq!(mpf.live_lnvcs(), 0);
    mpf.check_invariants().expect("invariants");
}

#[test]
fn call_budget_bounds_a_workerless_call() {
    // A service with an anchored epoch but no workers: every attempt
    // times out, and with a generous attempt allowance the *total*
    // wall-clock budget is the bound that trips.
    let mpf = Arc::new(Mpf::init(MpfConfig::new(32, 16)).expect("init"));
    let _server = Server::new(Arc::new(thread_t(&mpf, 0)), "stall").expect("anchor");

    let mut cfg = ClientCfg::new("stall", 1);
    cfg.attempt = Duration::from_millis(30);
    cfg.max_attempts = 1000;
    cfg.call_budget = Duration::from_millis(150);
    let t = Arc::new(thread_t(&mpf, 1));
    let mut client = Client::connect(t, cfg).expect("connect");

    let start = Instant::now();
    let err = client.call(b"anyone there?").unwrap_err();
    assert!(
        matches!(err, mpf_serve::ServeError::DeadlineExceeded),
        "{err:?}"
    );
    let elapsed = start.elapsed();
    assert!(
        elapsed >= Duration::from_millis(150),
        "budget honored: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_secs(20),
        "budget trips long before 1000 attempts could: {elapsed:?}"
    );
    assert_eq!(client.stats.deadline_exceeded, 1);
    assert_eq!(client.stats.ok, 0);
}

#[test]
fn supervise_until_returns_at_deadline_or_stop() {
    let mpf = Arc::new(Mpf::init(MpfConfig::new(32, 16)).expect("init"));
    let mut server = Server::new(Arc::new(thread_t(&mpf, 0)), "idle").expect("anchor");

    // Deadline path: a healthy, workerless service supervises quietly
    // until the clock runs out — no epoch bumps, no unbounded block.
    let start = Instant::now();
    let bumps = server
        .supervise_until(start + Duration::from_millis(150), None)
        .expect("supervise");
    assert_eq!(bumps, 0);
    let elapsed = start.elapsed();
    assert!(elapsed >= Duration::from_millis(150), "{elapsed:?}");
    assert!(elapsed < Duration::from_secs(20), "{elapsed:?}");

    // Stop path: a pre-raised flag returns before any waiting happens.
    let stop = AtomicBool::new(true);
    let start = Instant::now();
    let bumps = server
        .supervise_until(start + Duration::from_secs(60), Some(&stop))
        .expect("supervise");
    assert_eq!(bumps, 0);
    assert!(start.elapsed() < Duration::from_secs(5));
    assert!(stop.load(Ordering::Acquire));
}

#[test]
fn transport_waits_are_bounded_by_their_deadline() {
    // Three one-block messages leave one block free; a two-block message
    // then finds a header but not its chain.
    let cfg = MpfConfig::new(8, 4)
        .with_block_payload(64)
        .with_total_blocks(4)
        .with_max_messages(8);
    let mpf = Arc::new(Mpf::init(cfg).expect("init"));
    let (a, b) = (thread_t(&mpf, 0), thread_t(&mpf, 1));
    let tx = a.open_send("east").expect("open_send");
    let east = b
        .open_receive("east", Protocol::Fcfs)
        .expect("open_receive");
    let west = b
        .open_receive("west", Protocol::Fcfs)
        .expect("open_receive");
    let west_tx = a.open_send("west").expect("open_send");
    let within = |ms| Some(Instant::now() + Duration::from_millis(ms));

    // Empty queue: `Ok(None)` at the deadline — not before, and not at
    // the engine's next 50 ms sweep tick.
    let start = Instant::now();
    assert_eq!(b.recv_deadline(east, within(20)), Ok(None));
    assert_eq!(b.recv_any_deadline(&[east, west], within(20)), Ok(None));
    let took = start.elapsed();
    assert!(took >= Duration::from_millis(40), "{took:?}");
    assert!(took < Duration::from_millis(80), "{took:?}");

    // The conversation that was written is the one returned.
    assert_eq!(a.send_deadline(west_tx, b"w", within(20)), Ok(true));
    let got = b.recv_any_deadline(&[east, west], within(1000));
    assert_eq!(got, Ok(Some((west, b"w".to_vec()))));
    assert_eq!(a.send_deadline(tx, b"e", None), Ok(true));
    assert_eq!(b.recv_deadline(east, None), Ok(Some(b"e".to_vec())));

    // Exhausted pool: `Ok(false)`, nothing enqueued, nothing leaked.
    for _ in 0..3 {
        assert_eq!(a.send_deadline(tx, &[7; 64], within(20)), Ok(true));
    }
    assert_eq!(mpf.free_blocks(), 1);
    assert_eq!(a.send_deadline(tx, &[9; 128], within(20)), Ok(false));
    assert_eq!(mpf.free_blocks(), 1);
    assert_eq!(b.queue_depth(east), Ok(3));
    mpf.check_invariants().expect("invariants");
}

/// The thread transport with one switch: while `lying` is set, every
/// send reports a dead peer, as the fault plane's `PeerDied` site does.
/// (The plane is process-global, and this binary's tests share a
/// process.)
struct Liar {
    t: ThreadTransport,
    lying: AtomicBool,
}

impl Transport for Liar {
    type Id = LnvcId;

    fn open_send(&self, name: &str) -> Result<LnvcId> {
        self.t.open_send(name)
    }
    fn open_receive(&self, name: &str, protocol: Protocol) -> Result<LnvcId> {
        self.t.open_receive(name, protocol)
    }
    fn close_send(&self, id: LnvcId) -> Result<()> {
        self.t.close_send(id)
    }
    fn close_receive(&self, id: LnvcId) -> Result<()> {
        self.t.close_receive(id)
    }
    fn send_deadline(&self, id: LnvcId, payload: &[u8], deadline: Option<Instant>) -> Result<bool> {
        if self.lying.load(Ordering::Acquire) {
            return Err(MpfError::PeerDied { pid: 0 });
        }
        self.t.send_deadline(id, payload, deadline)
    }
    fn recv_deadline(&self, id: LnvcId, deadline: Option<Instant>) -> Result<Option<Vec<u8>>> {
        self.t.recv_deadline(id, deadline)
    }
    fn recv_any_deadline(
        &self,
        ids: &[LnvcId],
        deadline: Option<Instant>,
    ) -> Result<Option<(LnvcId, Vec<u8>)>> {
        self.t.recv_any_deadline(ids, deadline)
    }
    fn try_recv(&self, id: LnvcId) -> Result<Option<Vec<u8>>> {
        self.t.try_recv(id)
    }
    fn try_recv_batch(&self, id: LnvcId, max: usize) -> Result<Vec<Vec<u8>>> {
        self.t.try_recv_batch(id, max)
    }
    fn lnvc_exists(&self, name: &str) -> bool {
        self.t.lnvc_exists(name)
    }
    fn queue_depth(&self, id: LnvcId) -> Result<u32> {
        self.t.queue_depth(id)
    }
    fn is_poisoned(&self, id: LnvcId) -> bool {
        self.t.is_poisoned(id)
    }
    fn sweep_dead(&self) -> u32 {
        self.t.sweep_dead()
    }
}

/// A call that found no epoch leaves the client holding no request
/// queue, not a closed connection on the old one: once the server has
/// re-anchored, the same client's next call finds the new epoch.
#[test]
fn a_client_that_found_the_service_gone_rediscovers_on_its_next_call() {
    let mpf = Arc::new(Mpf::init(MpfConfig::new(32, 16)).expect("init"));
    let mut server = Server::new(Arc::new(thread_t(&mpf, 0)), "back").expect("anchor");
    let liar = Arc::new(Liar {
        t: thread_t(&mpf, 1),
        lying: AtomicBool::new(false),
    });
    let cfg = ClientCfg {
        discover: Duration::from_millis(50),
        ..ClientCfg::new("back", 1)
    };
    let mut client = Client::connect(Arc::clone(&liar), cfg).expect("connect");
    // A peer that still holds epoch 1's request queue keeps it alive, and
    // healthy, after the server and the client have both left it.
    let straggler = thread_t(&mpf, 2);
    let old_q = straggler
        .open_receive(&server.q_name(), Protocol::Fcfs)
        .expect("straggler");

    // The request queue reports a dead peer and no higher epoch exists.
    liar.lying.store(true, Ordering::Release);
    let gone = client.call(b"anyone?");
    assert!(matches!(gone, Err(ServeError::Unavailable)), "{gone:?}");
    liar.lying.store(false, Ordering::Release);

    // A worker dies holding the ack channel: the server re-anchors at
    // epoch 2, and a live worker joins it there.
    let victim = thread_t(&mpf, 3);
    victim
        .open_send(&wire::ack_name("back", 1))
        .expect("victim");
    mpf.view(p(3)).expect("view").debug_abandon_slot();
    assert!(server.supervise().expect("supervise"));
    assert_eq!(server.epoch(), 2);
    let worker = {
        let mpf = Arc::clone(&mpf);
        std::thread::spawn(move || {
            run_worker(&thread_t(&mpf, 4), &WorkerCfg::new("back", 1), |req| {
                req.to_vec()
            })
        })
    };
    pump_until(&mut server, Duration::from_secs(10), |s| {
        s.worker_count() == 1
    });

    assert_eq!(client.call(b"back").expect("next call"), b"back");
    assert_eq!(client.epoch(), 2);
    client.close();
    straggler.close_receive(old_q).expect("straggler leaves");
    let s = server
        .shutdown(Some(Duration::from_secs(10)))
        .expect("shutdown");
    assert!(s.stragglers.is_empty(), "{s:?}");
    worker.join().expect("worker thread").expect("worker");
    assert_eq!(mpf.live_lnvcs(), 0);
    mpf.check_invariants().expect("invariants");
}

/// Set in the copy of this binary that
/// [`the_transport_starts_no_thread`] runs its count in.
const ALONE_ENV: &str = "MPF_SERVE_THREAD_ALONE";

/// Server, worker and client all block and are woken in the engine: the
/// one thread a service adds is the worker the caller spawns.  Counted in
/// a copy of this binary that runs this test alone, so that no other
/// test's threads come and go under the count.
#[cfg(target_os = "linux")]
#[test]
fn the_transport_starts_no_thread() {
    let name = "the_transport_starts_no_thread";
    if std::env::var_os(ALONE_ENV).is_none() {
        let out = std::process::Command::new(std::env::current_exe().expect("current_exe"))
            .args(["--exact", name, "--test-threads=1"])
            .env(ALONE_ENV, "1")
            .output()
            .expect("re-exec");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{stdout}");
        assert!(stdout.contains("1 passed"), "{stdout}");
        return;
    }
    let threads = || std::fs::read_dir("/proc/self/task").expect("tasks").count();
    let before = threads();
    let mpf = Arc::new(Mpf::init(MpfConfig::new(32, 16)).expect("init"));
    let mut server = Server::new(Arc::new(thread_t(&mpf, 0)), "own").expect("anchor");
    let worker = {
        let mpf = Arc::clone(&mpf);
        std::thread::spawn(move || {
            run_worker(&thread_t(&mpf, 1), &WorkerCfg::new("own", 1), |req| {
                req.to_vec()
            })
        })
    };
    pump_until(&mut server, Duration::from_secs(10), |s| {
        s.worker_count() == 1
    });
    let mut client =
        Client::connect(Arc::new(thread_t(&mpf, 2)), ClientCfg::new("own", 1)).expect("connect");
    assert_eq!(client.call(b"echo").expect("call"), b"echo");
    assert_eq!(threads(), before + 1, "the transport owns no thread");
    client.close();
    server
        .shutdown(Some(Duration::from_secs(10)))
        .expect("shutdown");
    worker.join().expect("worker thread").expect("worker");
}
