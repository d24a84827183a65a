//! Region conservation under adversarial use: whatever sequence of sends,
//! receives, partial consumption, oversized buffers and abandoned
//! conversations runs, closing everything must return every block, message
//! header, and descriptor to the free lists.

use mpf::{Mpf, MpfConfig, MpfError, ProcessId, Protocol};
use mpf_shm::SmallRng;

fn p(i: usize) -> ProcessId {
    ProcessId::from_index(i)
}

#[test]
fn random_single_threaded_traffic_conserves_blocks() {
    let cfg = MpfConfig::new(8, 6)
        .with_total_blocks(512)
        .with_block_payload(10) // paper block size: stress the chains
        .with_max_messages(256);
    let total = cfg.total_blocks;
    let mpf = Mpf::init(cfg).expect("init");
    let mut rng = SmallRng::seed_from_u64(99);

    for round in 0..50 {
        let name = format!("conv:{}", round % 3);
        let tx = mpf.sender(p(0), &name).expect("tx");
        let rx1 = mpf.receiver(p(1), &name, Protocol::Fcfs).expect("rx1");
        let rx2 = mpf.receiver(p(2), &name, Protocol::Broadcast).expect("rx2");
        let n_msgs = rng.gen_range(1..10usize);
        for _ in 0..n_msgs {
            let len = rng.gen_range(0..200usize);
            tx.send(&vec![round as u8; len]).expect("send");
        }
        // Consume a random prefix, abandon the rest.
        let consume = rng.gen_range(0..=n_msgs);
        let mut buf = [0u8; 256];
        for _ in 0..consume {
            rx1.recv(&mut buf).expect("recv");
        }
        if rng.gen_bool(0.5) {
            let _ = rx2.try_recv(&mut buf);
        }
        drop((tx, rx1, rx2)); // close all: conversation deleted
        assert_eq!(
            mpf.free_blocks(),
            total,
            "round {round}: blocks leaked after conversation deletion"
        );
        assert_eq!(mpf.live_lnvcs(), 0, "round {round}");
        mpf.check_invariants().unwrap();
    }
}

#[test]
fn exhaustion_error_path_conserves_blocks() {
    let mpf = Mpf::init(
        MpfConfig::new(2, 2)
            .with_total_blocks(8)
            .with_block_payload(10),
    )
    .expect("init");
    let tx = mpf.sender(p(0), "tight").expect("tx");
    let rx = mpf.receiver(p(1), "tight", Protocol::Fcfs).expect("rx");

    tx.send(&[1u8; 50]).expect("5 blocks");
    // 3 blocks left; a 40-byte message needs 4: must fail cleanly.
    assert_eq!(
        mpf.message_send(p(0), tx.id(), &[2u8; 40]).unwrap_err(),
        MpfError::BlocksExhausted
    );
    assert_eq!(mpf.free_blocks(), 3, "failed send must roll back fully");
    tx.send(&[3u8; 30]).expect("exactly the remaining 3 blocks");
    assert_eq!(mpf.free_blocks(), 0);

    let mut buf = [0u8; 64];
    assert_eq!(rx.recv(&mut buf).expect("recv"), 50);
    assert_eq!(mpf.free_blocks(), 5, "consumption reclaims");
    assert_eq!(rx.recv(&mut buf).expect("recv"), 30);
    assert_eq!(mpf.free_blocks(), 8);
    mpf.check_invariants().unwrap();
}

#[test]
fn buffer_too_small_never_leaks_or_consumes() {
    let mpf = Mpf::init(MpfConfig::new(2, 2).with_total_blocks(64)).expect("init");
    let tx = mpf.sender(p(0), "strict").expect("tx");
    let rx = mpf.receiver(p(1), "strict", Protocol::Fcfs).expect("rx");
    tx.send(&[9u8; 100]).expect("send");
    let used = 64 - mpf.free_blocks();
    let mut tiny = [0u8; 10];
    for _ in 0..5 {
        assert!(matches!(
            rx.try_recv(&mut tiny).unwrap_err(),
            MpfError::BufferTooSmall { needed: 100 }
        ));
    }
    assert_eq!(
        64 - mpf.free_blocks(),
        used,
        "failed receives must not touch blocks"
    );
    let v = rx.recv_vec().expect("recv");
    assert_eq!(v.len(), 100);
    assert_eq!(mpf.free_blocks(), 64);
    mpf.check_invariants().unwrap();
}

#[test]
fn concurrent_traffic_conserves_after_join() {
    let cfg = MpfConfig::new(16, 9)
        .with_total_blocks(2048)
        .with_max_messages(512);
    let total = cfg.total_blocks;
    let mpf = Mpf::init(cfg).expect("init");
    std::thread::scope(|s| {
        for t in 0..4 {
            let mpf = &mpf;
            s.spawn(move || {
                let me = p(t * 2);
                let peer = p(t * 2 + 1);
                let name = format!("lane:{t}");
                let tx = mpf.sender(me, &name).expect("tx");
                let rx = mpf.receiver(peer, &name, Protocol::Fcfs).expect("rx");
                let mut rng = SmallRng::seed_from_u64(t as u64);
                let mut buf = [0u8; 512];
                for _ in 0..200 {
                    let len = rng.gen_range(0..400usize);
                    tx.send(&vec![t as u8; len]).expect("send");
                    let n = rx.recv(&mut buf).expect("recv");
                    assert_eq!(n, len);
                    assert!(buf[..n].iter().all(|&b| b == t as u8));
                }
            });
        }
    });
    assert_eq!(mpf.free_blocks(), total, "blocks leaked under concurrency");
    assert_eq!(mpf.live_lnvcs(), 0);
    let snap = mpf.telemetry_snapshot();
    assert_eq!(snap.sends, 800);
    assert_eq!(snap.receives, 800);
    assert_eq!(snap.bytes_in, snap.bytes_out, "loop traffic is symmetric");
    mpf.check_invariants().unwrap();
}
