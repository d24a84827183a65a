//! Deadline-bounded blocking on the ipc backend: `recv_deadline`,
//! `send_deadline`, `wait_any_deadline` and the batch variants must
//! surface `MpfError::TimedOut` at expiry with nothing consumed or
//! enqueued, while traffic racing the deadline is still delivered.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mpf::inspect::{ProcessInfo, RegionInspector};
use mpf::{MpfConfig, MpfError, Protocol};
use mpf_ipc::IpcMpf;

fn region(name: &str) -> IpcMpf {
    let cfg = MpfConfig::new(8, 4)
        .with_block_payload(64)
        .with_total_blocks(8)
        .with_max_messages(8)
        .with_max_connections(16);
    IpcMpf::create(name, &cfg).expect("create region")
}

#[test]
fn recv_deadline_times_out_with_typed_error() {
    let m = region("dl-recv");
    let _tx = m.open_send("quiet").unwrap();
    let rx = m.open_receive("quiet", Protocol::Fcfs).unwrap();
    let mut buf = [0u8; 8];
    let start = Instant::now();
    let err = m
        .recv_deadline(rx, &mut buf, Some(start + Duration::from_millis(50)))
        .unwrap_err();
    assert_eq!(
        err,
        MpfError::TimedOut,
        "deadline API reports TimedOut, not WouldBlock"
    );
    assert!(start.elapsed() >= Duration::from_millis(50));
}

#[test]
fn recv_deadline_delivers_a_queued_message_despite_expiry() {
    let m = region("dl-race");
    let tx = m.open_send("race").unwrap();
    let rx = m.open_receive("race", Protocol::Fcfs).unwrap();
    m.message_send(tx, b"beat-it").unwrap();
    let mut buf = [0u8; 16];
    // Deadline already past, but the delivery attempt runs first.
    let n = m.recv_deadline(rx, &mut buf, Some(Instant::now())).unwrap();
    assert_eq!(&buf[..n], b"beat-it");
}

#[test]
fn recv_deadline_wakes_on_send_from_another_view() {
    let a = region("dl-wake");
    let b = a.attach_view().expect("second view");
    let tx = b.open_send("wake").unwrap();
    let rx = a.open_receive("wake", Protocol::Fcfs).unwrap();
    let sender = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(40));
        b.message_send(tx, b"late but real").unwrap();
        b.close_send(tx).unwrap();
    });
    let mut buf = [0u8; 32];
    let n = a
        .recv_deadline(rx, &mut buf, Some(Instant::now() + Duration::from_secs(30)))
        .unwrap();
    assert_eq!(&buf[..n], b"late but real");
    sender.join().unwrap();
}

#[test]
fn send_deadline_times_out_under_exhaustion_with_nothing_enqueued() {
    let m = region("dl-send");
    let tx = m.open_send("full").unwrap();
    let rx = m.open_receive("full", Protocol::Fcfs).unwrap();
    // 8 one-block messages exhaust the 8-block pool.
    for i in 0..8 {
        m.message_send(tx, &[i; 64]).unwrap();
    }
    let start = Instant::now();
    let err = m
        .send_deadline(tx, &[9; 64], Some(start + Duration::from_millis(60)))
        .unwrap_err();
    assert_eq!(err, MpfError::TimedOut);
    assert!(start.elapsed() >= Duration::from_millis(60));

    // Only the eight pre-expiry messages exist; the timed-out send
    // staged nothing.
    let mut buf = [0u8; 64];
    for i in 0..8 {
        let n = m.message_receive(rx, &mut buf).unwrap();
        assert_eq!(&buf[..n], &[i; 64][..]);
    }
    assert!(!m.check_receive(rx).unwrap());

    // With the pool drained, the same send completes and every block
    // returns to the pool afterwards.
    let free_before = m.free_blocks();
    m.send_deadline(tx, &[9; 64], Some(Instant::now() + Duration::from_secs(30)))
        .unwrap();
    let n = m.message_receive(rx, &mut buf).unwrap();
    assert_eq!(&buf[..n], &[9; 64][..]);
    assert_eq!(
        m.free_blocks(),
        free_before,
        "blocks conserved through the retry"
    );
}

#[test]
fn wait_any_deadline_times_out_then_reports_the_ready_member() {
    let m = region("dl-any");
    let t1 = m.open_send("a").unwrap();
    let r1 = m.open_receive("a", Protocol::Fcfs).unwrap();
    let _t2 = m.open_send("b").unwrap();
    let r2 = m.open_receive("b", Protocol::Fcfs).unwrap();

    assert_eq!(
        m.wait_any_deadline(&[], Some(Instant::now())).unwrap_err(),
        MpfError::EmptyWaitSet
    );
    let err = m
        .wait_any_deadline(&[r1, r2], Some(Instant::now() + Duration::from_millis(50)))
        .unwrap_err();
    assert_eq!(err, MpfError::TimedOut);

    m.message_send(t1, b"here").unwrap();
    let ready = m
        .wait_any_deadline(&[r1, r2], Some(Instant::now() + Duration::from_secs(30)))
        .unwrap();
    assert_eq!(ready, r1);
}

#[test]
fn wait_any_deadline_wakes_on_cross_view_send() {
    let a = region("dl-any-wake");
    let b = a.attach_view().unwrap();
    let _t1 = a.open_send("m1").unwrap();
    let r1 = a.open_receive("m1", Protocol::Fcfs).unwrap();
    let t2 = b.open_send("m2").unwrap();
    let r2 = a.open_receive("m2", Protocol::Fcfs).unwrap();
    let b = Arc::new(b);
    let sender = {
        let b = Arc::clone(&b);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            b.message_send(t2, b"pick me").unwrap();
        })
    };
    let ready = a
        .wait_any_deadline(&[r1, r2], Some(Instant::now() + Duration::from_secs(30)))
        .unwrap();
    assert_eq!(ready, r2);
    sender.join().unwrap();
}

#[test]
fn recv_batch_deadline_times_out_then_drains() {
    let m = region("dl-rbatch");
    let tx = m.open_send("batch").unwrap();
    let rx = m.open_receive("batch", Protocol::Fcfs).unwrap();
    let err = m
        .recv_batch_deadline(rx, 8, Some(Instant::now() + Duration::from_millis(50)))
        .unwrap_err();
    assert_eq!(err, MpfError::TimedOut);

    for i in 0..3u8 {
        m.message_send(tx, &[i; 4]).unwrap();
    }
    let got = m
        .recv_batch_deadline(rx, 8, Some(Instant::now() + Duration::from_secs(30)))
        .unwrap();
    assert_eq!(got, vec![vec![0; 4], vec![1; 4], vec![2; 4]]);
}

#[test]
fn send_batch_deadline_times_out_when_nothing_submits() {
    let m = region("dl-sbatch");
    let tx = m.open_send("bfull").unwrap();
    let _rx = m.open_receive("bfull", Protocol::Fcfs).unwrap();
    for i in 0..8 {
        m.message_send(tx, &[i; 64]).unwrap();
    }
    let err = m
        .send_batch_deadline(
            tx,
            &[&[7; 64], &[8; 64]],
            Some(Instant::now() + Duration::from_millis(60)),
        )
        .unwrap_err();
    assert_eq!(err, MpfError::TimedOut);
}

/// A batch larger than the pool: 100 one-block payloads over 40 blocks
/// go out as run after run, each waiting for the receiver on another
/// thread to free room, and complete in order with tokens 0..99.
#[test]
fn send_batch_deadline_sends_a_batch_larger_than_the_pool() {
    const N: usize = 100;
    let cfg = MpfConfig::new(8, 4)
        .with_block_payload(64)
        .with_total_blocks(40)
        .with_max_messages(40);
    let a = IpcMpf::create("dl-sbatch-big", &cfg).expect("create region");
    let b = a.attach_view().unwrap();
    let tx = a.open_send("big").unwrap();
    let rx = b.open_receive("big", Protocol::Fcfs).unwrap();
    let payloads: Vec<[u8; 64]> = (0..N as u8).map(|i| [i; 64]).collect();
    let refs: Vec<&[u8]> = payloads.iter().map(|p| &p[..]).collect();
    let deadline = Some(Instant::now() + Duration::from_secs(30));
    let got = std::thread::scope(|s| {
        let receiver = s.spawn(|| {
            let mut got = Vec::with_capacity(N);
            while got.len() < N {
                got.extend(b.recv_batch_deadline(rx, N - got.len(), deadline).unwrap());
            }
            got
        });
        let done = a.send_batch_deadline(tx, &refs, deadline).unwrap();
        let tokens: Vec<u64> = done.iter().map(|c| c.user_data).collect();
        assert_eq!(tokens, (0..N as u64).collect::<Vec<_>>());
        assert!(done.iter().all(|c| c.ok() && c.len == 64));
        receiver.join().unwrap()
    });
    assert_eq!(got, refs, "all 100, in order");
    assert_eq!(a.free_blocks(), 40);
}

/// Spins until `pid`'s slot in the named region satisfies `parked` — the
/// forced interleaving for the wake-latency tests: the peer acts only
/// once the waiter is really asleep on its doorbell.
fn await_parked(region: &str, pid: u32, parked: impl Fn(&ProcessInfo) -> bool) {
    let insp = RegionInspector::attach(region).expect("inspect");
    let patience = Instant::now() + Duration::from_secs(30);
    while !parked(&insp.processes()[pid as usize]) {
        assert!(Instant::now() < patience, "pid {pid} never parked");
        std::thread::yield_now();
    }
}

fn median(mut lags: Vec<Duration>) -> Duration {
    lags.sort();
    lags[lags.len() / 2]
}

/// A thread blocked in `message_receive` sleeps on its process doorbell
/// like every other wait: the inspector reads it asleep, watching its one
/// conversation, and the send that wakes it leaves neither behind.
#[test]
fn a_blocked_receive_is_asleep_on_its_doorbell() {
    let name = "dl-recv-parked";
    let a = region(name);
    let b = a.attach_view().unwrap();
    let tx = b.open_send("later").unwrap();
    let rx = a.open_receive("later", Protocol::Fcfs).unwrap();
    let insp = RegionInspector::attach(name).unwrap();
    let me = || insp.processes()[a.pid() as usize].clone();
    let blocked = std::thread::scope(|s| {
        let got = s.spawn(|| a.message_receive(rx, &mut [0u8; 8]));
        // Not `await_parked`: a receiver that never parks must still be
        // sent to, or the scope would wait for it forever.
        let patience = Instant::now() + Duration::from_secs(5);
        while !me().asleep && Instant::now() < patience {
            std::thread::yield_now();
        }
        let blocked = me();
        b.message_send(tx, b"now").unwrap();
        assert_eq!(got.join().unwrap(), Ok(3));
        blocked
    });
    assert_eq!((blocked.asleep, blocked.watching), (true, 1), "{blocked:?}");
    assert_eq!((me().asleep, me().watching), (false, 0));
}

/// A wait set is woken by a send to its **second** member as promptly as
/// by one to its first: every member rings the waiter's doorbell.  (It
/// used to nap 2 ms at a time on the first member's futex.)
#[test]
fn wait_any_deadline_wake_latency_on_second_member() {
    const TRIALS: usize = 50;
    let name = "dl-any-prompt";
    let a = Arc::new(region(name));
    let b = a.attach_view().unwrap();
    let _t1 = b.open_send("m1").unwrap();
    let r1 = a.open_receive("m1", Protocol::Fcfs).unwrap();
    let t2 = b.open_send("m2").unwrap();
    let r2 = a.open_receive("m2", Protocol::Fcfs).unwrap();
    let mut lags = Vec::with_capacity(TRIALS);
    for _ in 0..TRIALS {
        let waiter = {
            let a = Arc::clone(&a);
            std::thread::spawn(move || {
                let ready = a
                    .wait_any_deadline(&[r1, r2], Some(Instant::now() + Duration::from_secs(30)))
                    .unwrap();
                let woke = Instant::now();
                assert_eq!(ready, r2);
                let mut buf = [0u8; 8];
                a.message_receive(r2, &mut buf).unwrap();
                woke
            })
        };
        await_parked(name, a.pid(), |p| p.asleep && p.watching == 2);
        let sent = Instant::now();
        b.message_send(t2, b"now").unwrap();
        lags.push(waiter.join().unwrap().duration_since(sent));
    }
    let m = median(lags);
    assert!(m < Duration::from_micros(500), "median wake took {m:?}");
}

/// Senders blocked on an exhausted pool are woken by the receive that
/// frees memory — the pool signal — not by a retry timer.
#[test]
fn blocked_senders_return_promptly_when_a_peer_receives() {
    const TRIALS: usize = 30;
    let name = "dl-pool-prompt";
    let a = Arc::new(region(name));
    let b = a.attach_view().unwrap();
    let tx = a.open_send("full").unwrap();
    let rx = b.open_receive("full", Protocol::Fcfs).unwrap();
    let mut buf = [0u8; 64];
    for batched in [false, true] {
        let mut lags = Vec::with_capacity(TRIALS);
        for _ in 0..TRIALS {
            // 8 one-block messages exhaust the 8-block pool.
            for i in 0..8 {
                a.message_send(tx, &[i; 64]).unwrap();
            }
            let sender = {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    let deadline = Some(Instant::now() + Duration::from_secs(30));
                    if batched {
                        let done = a.send_batch_deadline(tx, &[&[9; 64]], deadline).unwrap();
                        assert_eq!(done.len(), 1);
                    } else {
                        a.send_deadline(tx, &[9; 64], deadline).unwrap();
                    }
                    Instant::now()
                })
            };
            await_parked(name, a.pid(), |p| p.asleep && p.mem_wait);
            let freed = Instant::now();
            b.message_receive(rx, &mut buf).unwrap();
            lags.push(sender.join().unwrap().duration_since(freed));
            for _ in 0..8 {
                b.message_receive(rx, &mut buf).unwrap();
            }
        }
        let m = median(lags);
        assert!(
            m < Duration::from_micros(500),
            "batched={batched}: median unblock took {m:?}"
        );
    }
    assert_eq!(RegionInspector::attach(name).unwrap().pool_waiters(), 0);
}

/// A receive that blocked and was woken must not probe every peer's
/// liveness on its way out: the sweep runs at its cadence, however many
/// wakes there are in between.  The sender waits for each receive to book
/// its block (`recv_waits`) before sending, so all 1,000 receives pass
/// through the wait and the after-wake sweep point.
#[test]
fn blocking_receives_sweep_at_the_cadence_not_per_wake() {
    const ROUNDS: u64 = 1000;
    let a = region("dl-sweep-cadence");
    let b = a.attach_view().expect("sender view");
    let tx = b.open_send("busy").unwrap();
    let rx = a.open_receive("busy", Protocol::Fcfs).unwrap();
    let start = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..ROUNDS {
                while b.telemetry_snapshot().recv_waits <= i {
                    std::thread::yield_now();
                }
                b.message_send(tx, &i.to_le_bytes()).unwrap();
            }
        });
        let mut buf = [0u8; 8];
        for i in 0..ROUNDS {
            assert_eq!(a.message_receive(rx, &mut buf).unwrap(), 8);
            assert_eq!(buf, i.to_le_bytes());
        }
    });
    let cadences = start.elapsed().as_millis() as u64 / 50;
    let sweeps = a.debug_sweeps_run();
    assert_eq!(
        a.telemetry_snapshot().recv_waits,
        ROUNDS,
        "every receive blocked"
    );
    assert!(
        sweeps <= cadences + 2,
        "{sweeps} sweeps for {ROUNDS} wakes in {cadences} cadences of 50 ms"
    );
}
