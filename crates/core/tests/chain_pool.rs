//! The block pool at chain granularity, through the public engine API: a
//! shortage takes nothing off the free list, and payloads survive a
//! fragmented pool whatever mix of contiguous runs their chains are.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use mpf::{IpcMpf, MpfConfig, MpfError, Protocol};

/// One thread keeps asking for more blocks than are free; the other's
/// one-block sends, with blocks to spare, must never see the pool empty.
/// (A per-block allocator popped every free block before finding out it
/// was short, and a concurrent sender saw `BlocksExhausted`.)
#[test]
fn a_failing_over_ask_never_starves_a_one_block_sender() {
    const BP: usize = 16;
    let cfg = MpfConfig::new(4, 4)
        .with_block_payload(BP)
        .with_total_blocks(8);
    let root = IpcMpf::anon(&cfg).unwrap();
    // Two blocks stay queued for the whole test: six are free.
    let parked_tx = root.open_send("parked").unwrap();
    let _parked_rx = root.open_receive("parked", Protocol::Fcfs).unwrap();
    root.message_send(parked_tx, &[0u8; 2 * BP]).unwrap();
    assert_eq!(root.free_blocks(), 6);

    let greedy = root.attach_view().unwrap();
    let modest = root.attach_view().unwrap();
    let big_tx = greedy.open_send("big").unwrap();
    let small_tx = modest.open_send("small").unwrap();
    let small_rx = modest.open_receive("small", Protocol::Fcfs).unwrap();

    let start = Barrier::new(2);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let over_asker = s.spawn(|| {
            start.wait();
            let mut refused = 0u64;
            while !done.load(Ordering::Acquire) {
                // Seven blocks: never more than six are free.
                let refusal = greedy.message_send(big_tx, &[1u8; 7 * BP]);
                assert_eq!(refusal, Err(MpfError::BlocksExhausted));
                refused += 1;
            }
            refused
        });
        start.wait();
        let mut buf = [0u8; BP];
        // Stops at the first refusal instead of panicking past `done`:
        // the over-asker only ends when told to.
        let starved = (0..50_000u32).find_map(|round| {
            let payload = round.to_le_bytes();
            let sent = modest.message_send(small_tx, &payload);
            let got = sent.and_then(|()| modest.message_receive(small_rx, &mut buf));
            (got != Ok(4) || buf[..4] != payload).then_some((round, got))
        });
        done.store(true, Ordering::Release);
        assert!(over_asker.join().unwrap() > 0);
        assert_eq!(
            starved, None,
            "a one-block send failed with five blocks free"
        );
    });
    assert_eq!(root.free_blocks(), 6);
    root.check_invariants().unwrap();
}

/// Payloads of every shape relative to the block size, through each
/// receive path, over a pool whose free list is a scramble of chains.
#[test]
fn payloads_round_trip_over_a_fragmented_pool() {
    const BP: usize = 32;
    const TOTAL: u32 = 96;
    let cfg = MpfConfig::new(4, 2)
        .with_block_payload(BP)
        .with_total_blocks(TOTAL)
        .with_max_messages(64);
    let m = IpcMpf::anon(&cfg).unwrap();
    let q: Vec<_> = ["even", "odd"]
        .iter()
        .map(|name| {
            (
                m.open_send(name).unwrap(),
                m.open_receive(name, Protocol::Fcfs).unwrap(),
            )
        })
        .collect();
    // Chains of 1..=5 blocks, dealt alternately to two queues, cover the
    // whole pool; draining one queue and then the other stacks them in
    // an order no allocation produced, one-block chains between longer
    // ones, so a long chain cut from the top mixes runs of every length.
    let mut buf = vec![0u8; 64 * BP];
    let (mut left, mut sent) = (TOTAL as usize, 0);
    while left > 0 {
        let blocks = (1 + sent * 3 % 5).min(left);
        m.message_send(q[sent % 2].0, &vec![0xEE; blocks * BP])
            .unwrap();
        left -= blocks;
        sent += 1;
    }
    assert_eq!(m.free_blocks(), 0);
    for (_, rx) in [&q[1], &q[0]] {
        while m.try_message_receive(*rx, &mut buf).unwrap().is_some() {}
    }
    assert_eq!(m.free_blocks(), TOTAL);

    let (tx, rx) = q[0];
    let pattern = |len: usize, salt: usize| -> Vec<u8> {
        (0..len).map(|i| ((i * 7 + salt) % 253) as u8).collect()
    };
    let sizes = [0, 1, BP - 1, BP, BP + 1, 3 * BP + 7, 64 * BP];
    for (salt, &len) in sizes.iter().enumerate() {
        let payload = pattern(len, salt);

        m.message_send(tx, &payload).unwrap();
        assert_eq!(m.message_receive(rx, &mut buf), Ok(len));
        assert_eq!(buf[..len], payload[..], "message_receive, {len} bytes");

        m.message_send(tx, &payload).unwrap();
        assert_eq!(
            m.recv_batch(rx, 4).unwrap(),
            std::slice::from_ref(&payload),
            "recv_batch, {len} bytes"
        );

        m.message_send(tx, &payload).unwrap();
        let mut pieces = Vec::new();
        let scanned = m.message_receive_scan(rx, |piece| pieces.push(piece.to_vec()));
        assert_eq!(scanned, Ok(len));
        assert_eq!(
            pieces.concat(),
            payload,
            "message_receive_scan, {len} bytes"
        );
        assert!(pieces.iter().all(|piece| !piece.is_empty()));
        assert!(
            pieces.len() <= len.div_ceil(BP),
            "{len} bytes came as {} pieces: more than one per block",
            pieces.len()
        );
        if len == 64 * BP {
            assert!(
                (2..64).contains(&pieces.len()),
                "{} pieces: the chain should mix single blocks and longer runs",
                pieces.len()
            );
        }
        assert_eq!(m.free_blocks(), TOTAL);
    }
    m.check_invariants().unwrap();
}

/// Four senders cut chains of every length from a pool too small for all
/// of them, each holding up to two messages queued on a conversation of
/// its own.  A block in two chains at once would carry the wrong owner's
/// bytes at the receive; a shortage must take nothing; every block must
/// be back at the end.  Optimized builds only: the point is the number
/// of interleavings, and a debug build reaches few.
#[test]
#[cfg_attr(debug_assertions, ignore = "a stress test: run with --release")]
fn chain_pool_stress_keeps_every_block_singly_owned() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 30_000;
    const BP: usize = 8;
    const TOTAL: u32 = 160;
    let cfg = MpfConfig::new(8, 8)
        .with_block_payload(BP)
        .with_total_blocks(TOTAL);
    let root = IpcMpf::anon(&cfg).unwrap();
    let views: Vec<IpcMpf> = (0..THREADS).map(|_| root.attach_view().unwrap()).collect();
    let start = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for (me, view) in views.iter().enumerate() {
            let start = &start;
            s.spawn(move || {
                let name = format!("owner-{me}");
                let tx = view.open_send(&name).unwrap();
                let rx = view.open_receive(&name, Protocol::Fcfs).unwrap();
                let mut rng = 0x9e37_79b9_7f4a_7c15u64 * (me as u64 + 1);
                let mut queued = std::collections::VecDeque::new();
                let mut buf = vec![0u8; 64 * BP];
                start.wait();
                let mut sent = 0;
                while sent < ROUNDS || !queued.is_empty() {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    // 1..=64 blocks, the last one ragged every other time.
                    let len = (1 + rng as usize % 64) * BP - (rng >> 32) as usize % 2 * (BP - 1);
                    let payload: Vec<u8> = (0..len).map(|i| (i + sent) as u8 ^ me as u8).collect();
                    let refused = sent == ROUNDS
                        || match view.message_send(tx, &payload) {
                            Ok(()) => {
                                queued.push_back(payload);
                                sent += 1;
                                false
                            }
                            Err(MpfError::BlocksExhausted) => true,
                            Err(e) => panic!("sender {me}, round {sent}: {e:?}"),
                        };
                    if queued.len() == 2 || (refused && !queued.is_empty()) {
                        let want = queued.pop_front().unwrap();
                        assert_eq!(view.message_receive(rx, &mut buf), Ok(want.len()));
                        assert!(buf[..want.len()] == want[..], "sender {me}: foreign bytes");
                    }
                }
            });
        }
    });
    assert_eq!(root.free_blocks(), TOTAL);
    root.check_invariants().unwrap();
}
