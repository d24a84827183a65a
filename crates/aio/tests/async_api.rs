//! End-to-end tests for the waker-based async surface over both
//! backends: futures pend without burning CPU, wake on real traffic,
//! exercise flow control, and interoperate with the sync primitives.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::thread;
use std::time::{Duration, Instant};

use mpf::IpcMpf;
use mpf::{Mpf, MpfConfig, ProcessId, Protocol};
use mpf_aio::{block_on, AsyncIpc, AsyncMpf, Executor};

fn unique_name(tag: &str) -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    format!(
        "aio-async-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    )
}

#[test]
fn recv_pends_then_wakes_on_delayed_send() {
    let m = Arc::new(Mpf::init(MpfConfig::new(8, 4)).unwrap());
    let a = AsyncMpf::new(Arc::clone(&m), ProcessId::from_index(0));
    let b = AsyncMpf::new(Arc::clone(&m), ProcessId::from_index(1));

    let tx = a.facility().open_send("delayed").unwrap();
    let rx = b
        .facility()
        .open_receive("delayed", Protocol::Fcfs)
        .unwrap();

    let sender = thread::spawn(move || {
        thread::sleep(Duration::from_millis(30));
        block_on(a.send(tx, b"took a while".to_vec())).unwrap();
    });

    let msg = block_on(b.recv(rx)).unwrap();
    assert_eq!(msg, b"took a while");
    sender.join().unwrap();
}

#[test]
fn select_any_returns_whichever_delivers_first() {
    let m = Arc::new(Mpf::init(MpfConfig::new(8, 4)).unwrap());
    let a = AsyncMpf::new(Arc::clone(&m), ProcessId::from_index(0));
    let b = AsyncMpf::new(Arc::clone(&m), ProcessId::from_index(1));

    let tx_west = a.facility().open_send("west").unwrap();
    let _tx_east = a.facility().open_send("east").unwrap();
    let rx_east = b.facility().open_receive("east", Protocol::Fcfs).unwrap();
    let rx_west = b.facility().open_receive("west", Protocol::Fcfs).unwrap();

    // Already-ready conversation wins without pending.
    block_on(a.send(tx_west, b"immediate".to_vec())).unwrap();
    let (id, msg) = block_on(b.select_any(&[rx_east, rx_west])).unwrap();
    assert_eq!(id, rx_west);
    assert_eq!(msg, b"immediate");

    // Nothing ready: the select pends, then wakes on the east arrival.
    let sender = thread::spawn(move || {
        thread::sleep(Duration::from_millis(30));
        block_on(a.send(_tx_east, b"late".to_vec())).unwrap();
    });
    let (id, msg) = block_on(b.select_any(&[rx_east, rx_west])).unwrap();
    assert_eq!(id, rx_east);
    assert_eq!(msg, b"late");
    sender.join().unwrap();
}

#[test]
fn send_pends_until_a_receive_frees_capacity() {
    // Two messages fill the pool; the third send must wait for a
    // receive on the other side.
    let cfg = MpfConfig::new(4, 2)
        .with_block_payload(16)
        .with_total_blocks(8)
        .with_max_messages(2);
    let m = Arc::new(Mpf::init(cfg).unwrap());
    let a = AsyncMpf::new(Arc::clone(&m), ProcessId::from_index(0));
    let p1 = ProcessId::from_index(1);

    let tx = a.facility().open_send("narrow").unwrap();
    let rx = m.open_receive(p1, "narrow", Protocol::Fcfs).unwrap();

    let drainer = {
        let m = Arc::clone(&m);
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(40));
            let mut buf = [0u8; 16];
            assert_eq!(m.message_receive(p1, rx, &mut buf).unwrap(), 4);
        })
    };

    block_on(async {
        a.send(tx, b"one!".to_vec()).await.unwrap();
        a.send(tx, b"two!".to_vec()).await.unwrap();
        // Pool is now exhausted; this pends until the drainer receives.
        a.send(tx, b"three".to_vec()).await.unwrap();
    });
    drainer.join().unwrap();

    let mut buf = [0u8; 16];
    assert_eq!(m.message_receive(p1, rx, &mut buf).unwrap(), 4);
    assert_eq!(m.message_receive(p1, rx, &mut buf).unwrap(), 5);
    assert_eq!(&buf[..5], b"three");
}

#[test]
fn executor_drives_many_concurrent_tasks() {
    let m = Arc::new(Mpf::init(MpfConfig::new(16, 8)).unwrap());
    let server = AsyncMpf::new(Arc::clone(&m), ProcessId::from_index(0));

    const CLIENTS: usize = 6;
    let exec = Executor::new();
    let mut handles = Vec::new();
    for i in 0..CLIENTS {
        let client = AsyncMpf::new(Arc::clone(&m), ProcessId::from_index(1 + i));
        let name = format!("lane-{i}");
        let rx = client
            .facility()
            .open_receive(&name, Protocol::Fcfs)
            .unwrap();
        handles.push(exec.spawn(async move {
            let msg = client.recv(rx).await.unwrap();
            (i, msg)
        }));
    }

    // Every receiver is registered before any message exists; the
    // reactor wakes each as its lane fills.
    let producer = thread::spawn(move || {
        thread::sleep(Duration::from_millis(20));
        for i in 0..CLIENTS {
            let tx = server.facility().open_send(&format!("lane-{i}")).unwrap();
            block_on(server.send(tx, format!("payload-{i}").into_bytes())).unwrap();
        }
    });

    exec.run();
    producer.join().unwrap();
    for h in handles {
        let (i, msg) = h.join();
        assert_eq!(msg, format!("payload-{i}").into_bytes());
    }
}

#[test]
fn async_recv_over_the_shared_memory_region() {
    if !mpf_shm::sys::HAVE_SYSCALLS {
        return;
    }
    let cfg = MpfConfig::new(8, 4)
        .with_block_payload(64)
        .with_total_blocks(64)
        .with_max_messages(32)
        .with_max_connections(16);
    let creator = Arc::new(IpcMpf::create(&unique_name("region"), &cfg).unwrap());
    let peer = Arc::new(creator.attach_view().unwrap());

    let rx = creator.open_receive("uplink", Protocol::Fcfs).unwrap();
    let tx = peer.open_send("uplink").unwrap();

    let sender = {
        let peer = Arc::clone(&peer);
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(30));
            peer.message_send(tx, b"crossed the region").unwrap();
        })
    };

    let facility = AsyncIpc::new(Arc::clone(&creator));
    let msg = block_on(facility.recv(rx)).unwrap();
    assert_eq!(msg, b"crossed the region");
    sender.join().unwrap();

    // Round-trip the other way with the async send path.
    let rx2 = peer.open_receive("downlink", Protocol::Fcfs).unwrap();
    let tx2 = creator.open_send("downlink").unwrap();
    block_on(facility.send(tx2, b"pong".to_vec())).unwrap();
    let mut buf = [0u8; 64];
    let n = peer
        .recv_deadline(rx2, &mut buf, Some(Instant::now() + Duration::from_secs(5)))
        .unwrap();
    assert_eq!(&buf[..n], b"pong");
}

#[test]
fn ipc_send_pends_until_capacity_frees() {
    if !mpf_shm::sys::HAVE_SYSCALLS {
        return;
    }
    // One block, one message: the second async send must wait until the
    // receiver drains the first and the reclaim fires the pool signal.
    let cfg = MpfConfig::new(4, 4)
        .with_block_payload(32)
        .with_total_blocks(1)
        .with_max_messages(8)
        .with_max_connections(16);
    let creator = Arc::new(IpcMpf::create(&unique_name("narrow"), &cfg).unwrap());

    let tx = creator.open_send("strait").unwrap();
    let rx = creator.open_receive("strait", Protocol::Fcfs).unwrap();

    let drainer = {
        let c = Arc::clone(&creator);
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(40));
            let mut buf = [0u8; 32];
            assert_eq!(
                c.recv_deadline(rx, &mut buf, Some(Instant::now() + Duration::from_secs(5)))
                    .unwrap(),
                5
            );
        })
    };

    let facility = AsyncIpc::new(Arc::clone(&creator));
    block_on(async {
        facility.send(tx, b"first".to_vec()).await.unwrap();
        facility.send(tx, b"second".to_vec()).await.unwrap();
    });
    drainer.join().unwrap();

    let mut buf = [0u8; 32];
    let n = creator
        .recv_deadline(rx, &mut buf, Some(Instant::now() + Duration::from_secs(5)))
        .unwrap();
    assert_eq!(&buf[..n], b"second");
}

#[test]
fn deadline_futures_time_out_with_typed_error() {
    use std::time::Instant;

    let m = Arc::new(Mpf::init(MpfConfig::new(8, 4)).unwrap());
    let a = AsyncMpf::new(Arc::clone(&m), ProcessId::from_index(0));
    let _tx = a.facility().open_send("dl-quiet").unwrap();
    let rx = a
        .facility()
        .open_receive("dl-quiet", Protocol::Fcfs)
        .unwrap();

    let start = Instant::now();
    let err = block_on(a.recv(rx).timeout(Duration::from_millis(50))).unwrap_err();
    assert_eq!(err, mpf::MpfError::TimedOut);
    assert!(start.elapsed() >= Duration::from_millis(50));

    // The select-any combinator carries the same bound.
    let err = block_on(a.select_any(&[rx]).timeout(Duration::from_millis(50))).unwrap_err();
    assert_eq!(err, mpf::MpfError::TimedOut);
}

#[test]
fn deadline_recv_delivers_when_send_races_expiry() {
    let m = Arc::new(Mpf::init(MpfConfig::new(8, 4)).unwrap());
    let a = AsyncMpf::new(Arc::clone(&m), ProcessId::from_index(0));
    let b = AsyncMpf::new(Arc::clone(&m), ProcessId::from_index(1));
    let tx = a.facility().open_send("dl-race").unwrap();
    let rx = b
        .facility()
        .open_receive("dl-race", Protocol::Fcfs)
        .unwrap();

    let sender = {
        let m = Arc::clone(&m);
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(40));
            m.message_send(ProcessId::from_index(0), tx, b"in time")
                .unwrap();
        })
    };
    let msg = block_on(b.recv(rx).timeout(Duration::from_secs(30))).unwrap();
    assert_eq!(msg, b"in time");
    sender.join().unwrap();
}

#[test]
fn send_future_times_out_under_exhaustion_then_recovers() {
    let m = Arc::new(
        Mpf::init(
            MpfConfig::new(8, 4)
                .with_block_payload(64)
                .with_total_blocks(4)
                .with_max_messages(4),
        )
        .unwrap(),
    );
    let a = AsyncMpf::new(Arc::clone(&m), ProcessId::from_index(0));
    let tx = a.facility().open_send("dl-full").unwrap();
    let rx = m
        .open_receive(ProcessId::from_index(1), "dl-full", Protocol::Fcfs)
        .unwrap();
    for i in 0..4 {
        m.message_send(ProcessId::from_index(0), tx, &[i; 64])
            .unwrap();
    }

    let err = block_on(a.send(tx, vec![9; 64]).timeout(Duration::from_millis(60))).unwrap_err();
    assert_eq!(err, mpf::MpfError::TimedOut);

    // Draining one message frees capacity; the same send now completes
    // well inside its bound, proving the timeout staged nothing sticky.
    let mut buf = [0u8; 64];
    m.message_receive(ProcessId::from_index(1), rx, &mut buf)
        .unwrap();
    block_on(a.send(tx, vec![9; 64]).timeout(Duration::from_secs(30))).unwrap();
}

/// Counts the polls of `inner` that returned `Pending`, so another thread
/// can act only once the future has really gone back to sleep.
struct NotePending<F> {
    inner: F,
    pending: Arc<AtomicU64>,
}

impl<F: Future + Unpin> Future for NotePending<F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let out = Pin::new(&mut self.inner).poll(cx);
        if out.is_pending() {
            self.pending.fetch_add(1, Ordering::SeqCst);
        }
        out
    }
}

fn spin_until(what: &str, mut ready: impl FnMut() -> bool) {
    let patience = Instant::now() + Duration::from_secs(30);
    while !ready() {
        assert!(Instant::now() < patience, "{what}");
        thread::yield_now();
    }
}

/// The service-loop stall: a `select_any` over a busy and a quiet
/// conversation, re-issued every round, each message sent only after the
/// receiver has gone `Pending` again.  The reactor is then parked with
/// the quiet conversation's stale registration still on file and must
/// hear both the re-registration and the send — on whatever it sleeps on.
/// Napping on the wrong conversation's futex cost 2 ms a round.
#[test]
fn ipc_select_any_rounds_are_notified_not_napped() {
    if !mpf_shm::sys::HAVE_SYSCALLS {
        return;
    }
    const ROUNDS: u64 = 200;
    let cfg = MpfConfig::new(8, 4)
        .with_block_payload(64)
        .with_total_blocks(64)
        .with_max_messages(32)
        .with_max_connections(16);
    let creator = Arc::new(IpcMpf::create(&unique_name("rounds"), &cfg).unwrap());
    let peer = creator.attach_view().unwrap();
    let busy = creator.open_receive("busy", Protocol::Fcfs).unwrap();
    let quiet = creator.open_receive("quiet", Protocol::Fcfs).unwrap();
    let tx = peer.open_send("busy").unwrap();
    let _quiet_tx = peer.open_send("quiet").unwrap();

    let pending = Arc::new(AtomicU64::new(0));
    let receiver = {
        let pending = Arc::clone(&pending);
        let facility = AsyncIpc::new(Arc::clone(&creator));
        thread::spawn(move || {
            for round in 0..ROUNDS {
                let (id, msg) = block_on(NotePending {
                    inner: facility.select_any(&[busy, quiet]),
                    pending: Arc::clone(&pending),
                })
                .unwrap();
                assert_eq!((id, msg), (busy, round.to_le_bytes().to_vec()));
            }
        })
    };
    let start = Instant::now();
    for round in 0..ROUNDS {
        spin_until("receiver never went pending", || {
            pending.load(Ordering::SeqCst) > round
        });
        peer.message_send(tx, &round.to_le_bytes()).unwrap();
    }
    receiver.join().unwrap();
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(100),
        "{ROUNDS} notified rounds took {took:?}"
    );
}

/// A send pending on an exhausted pool is completed by the receive that
/// frees a block, not by the next tick of a retry timer.
#[test]
fn ipc_pending_send_completes_with_the_freeing_receive() {
    if !mpf_shm::sys::HAVE_SYSCALLS {
        return;
    }
    const TRIALS: usize = 15;
    let cfg = MpfConfig::new(4, 4)
        .with_block_payload(32)
        .with_total_blocks(1)
        .with_max_messages(8)
        .with_max_connections(16);
    let creator = Arc::new(IpcMpf::create(&unique_name("freed"), &cfg).unwrap());
    let peer = creator.attach_view().unwrap();
    let tx = creator.open_send("strait").unwrap();
    let rx = peer.open_receive("strait", Protocol::Fcfs).unwrap();
    let facility = AsyncIpc::new(Arc::clone(&creator));
    let mut buf = [0u8; 32];

    let mut lags = Vec::with_capacity(TRIALS);
    for _ in 0..TRIALS {
        creator.message_send(tx, b"holds the only block").unwrap();
        let pending = Arc::new(AtomicU64::new(0));
        let sender = {
            let (facility, pending) = (facility.clone(), Arc::clone(&pending));
            thread::spawn(move || {
                block_on(NotePending {
                    inner: facility.send(tx, b"waits for it".to_vec()),
                    pending,
                })
                .unwrap();
                Instant::now()
            })
        };
        spin_until("send never went pending", || {
            pending.load(Ordering::SeqCst) > 0
        });
        // Long enough for the reactor to be asleep, and for a retry
        // back-off to have grown well past the bound below.
        thread::sleep(Duration::from_millis(20));
        let freed_at = Instant::now();
        peer.message_receive(rx, &mut buf).unwrap();
        lags.push(sender.join().unwrap().duration_since(freed_at));
        peer.message_receive(rx, &mut buf).unwrap();
    }
    lags.sort();
    let median = lags[TRIALS / 2];
    assert!(
        median < Duration::from_millis(1),
        "pending send completed {median:?} after the freeing receive (all: {lags:?})"
    );
}
