//! Service-layer integration tests on the thread backend: full
//! control-plane lifecycle (pause → resume → drain → shutdown) with
//! real concurrency, plus conservation after everything disconnects;
//! the transport's deadline contract; and who owns a reactor thread.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mpf::{Mpf, MpfConfig, MpfError, ProcessId, Protocol};
use mpf_aio::{block_on, AsyncMpf};
use mpf_serve::{run_worker, Client, ClientCfg, Server, ThreadTransport, Transport, WorkerCfg};

fn p(i: usize) -> ProcessId {
    ProcessId::from_index(i)
}

fn thread_t(mpf: &Arc<Mpf>, pid: usize) -> ThreadTransport {
    ThreadTransport(AsyncMpf::new(Arc::clone(mpf), p(pid)))
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
    use std::sync::atomic::{AtomicBool, Ordering};

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

/// Threads of this process named `mpf-aio-reactor`.
#[cfg(target_os = "linux")]
fn reactor_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "mpf-aio-reactor")
        .count()
}

/// No other test in this binary creates a future and the transport never
/// does, so the process-wide counts below are exact.
#[cfg(target_os = "linux")]
#[test]
fn only_a_pending_future_starts_a_reactor_thread() {
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
    // Server, worker and client all blocked and were woken: in the engine.
    assert_eq!(reactor_threads(), 0, "the transport owns no thread");
    client.close();
    server
        .shutdown(Some(Duration::from_secs(10)))
        .expect("shutdown");
    worker.join().expect("worker thread").expect("worker");

    let a = AsyncMpf::new(Arc::clone(&mpf), p(3));
    let rx = a
        .facility()
        .open_receive("quiet", Protocol::Fcfs)
        .expect("open_receive");
    let tx = a.facility().open_send("quiet").expect("open_send");
    block_on(async {
        a.send(tx, b"ready".to_vec()).await.expect("send");
        assert_eq!(a.recv(rx).await.expect("recv"), b"ready");
    });
    assert_eq!(reactor_threads(), 0, "futures that never pend need none");
    for _ in 0..2 {
        let pended = block_on(a.recv(rx).timeout(Duration::from_millis(10)));
        assert_eq!(pended, Err(MpfError::TimedOut));
        assert_eq!(
            reactor_threads(),
            1,
            "one per facade, from the first Pending"
        );
    }
    drop(a);
    // `join` returns at the thread's exit; /proc drops the task just after.
    let patience = Instant::now() + Duration::from_secs(5);
    while reactor_threads() != 0 {
        assert!(Instant::now() < patience, "dropping the facade joins it");
        std::thread::yield_now();
    }
}
