//! The pools at chain granularity, through the public engine API: a
//! shortage takes nothing off the free list, payloads survive a
//! fragmented pool whatever mix of contiguous runs their chains are, and
//! a run of messages costs each pool one CAS on the way in and one on the
//! way out.  Chains are walked by index, so the tests also pin what a
//! walk finds: how many contiguous stretches a chain is, and which blocks
//! a pop ending anywhere in a stretch takes.  (The injected-exhaustion
//! case lives with the other fault-plane tests,
//! `crates/ipc/tests/fault_injection.rs`: the plane is process-global and
//! would fire in the tests here.)

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use mpf::engine::Tables;
use mpf::shmem::NIL;
use mpf::{IpcMpf, LnvcId, MpfConfig, MpfError, Protocol};

/// A send and an FCFS receive connection on each conversation of `names`.
fn queues(m: &IpcMpf, names: &[&str]) -> Vec<(LnvcId, LnvcId)> {
    let open = |name: &&str| {
        let tx = m.open_send(name).unwrap();
        (tx, m.open_receive(name, Protocol::Fcfs).unwrap())
    };
    names.iter().map(open).collect()
}

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
    let q = queues(&m, &["even", "odd"]);
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

/// A named region and a second overlay of it, so a test can read the
/// free lists' CAS tags ([`FreeHead::peek`]) behind the engine's back.
fn region_with_overlay(tag: &str, cfg: &MpfConfig) -> (IpcMpf, Tables) {
    let name = format!("chain-{tag}-{}", std::process::id());
    let m = IpcMpf::create(&name, cfg).expect("create region");
    let raw = mpf_shm::ShmRegion::attach(&name).expect("second mapping");
    (m, Tables::new(raw, cfg))
}

/// Successful CASes so far on (`msg_free`, `block_free`).
fn pool_cas(t: &Tables) -> (u32, u32) {
    (t.header().msg_free.peek().0, t.header().block_free.peek().0)
}

/// A run moves whole: 32 messages leave the pools with one CAS each and
/// come back with one CAS each, exactly as one message does.
#[test]
fn a_run_of_32_is_one_cas_per_pool_each_way() {
    let cfg = MpfConfig::new(2, 2)
        .with_block_payload(64)
        .with_total_blocks(128)
        .with_max_messages(64);
    let (m, t) = region_with_overlay("run-cas", &cfg);
    let tx = m.open_send("q").unwrap();
    let rx = m.open_receive("q", Protocol::Fcfs).unwrap();
    let payloads: Vec<Vec<u8>> = (0..32u8).map(|i| vec![i; 64 + i as usize]).collect();
    let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
    let mut buf = [0u8; 128];
    for round in 0..3 {
        let before = pool_cas(&t);
        assert_eq!(m.submit_sends(tx, &refs), Ok(32));
        assert_eq!(
            pool_cas(&t),
            (before.0 + 1, before.1 + 1),
            "round {round}: one pop per pool stages the run"
        );
        assert_eq!(m.drain_sends(), 32);
        assert_eq!(
            pool_cas(&t),
            (before.0 + 1, before.1 + 1),
            "a drain allocates nothing"
        );
        assert_eq!(m.recv_batch(rx, 32).unwrap(), payloads);
        assert_eq!(
            pool_cas(&t),
            (before.0 + 2, before.1 + 2),
            "round {round}: one push per pool reclaims the run"
        );
        m.reap_completions(&mut Vec::new());

        // A single send and receive: the same routines on a run of one.
        m.message_send(tx, &payloads[round]).unwrap();
        assert_eq!(pool_cas(&t), (before.0 + 3, before.1 + 3));
        assert_eq!(m.message_receive(rx, &mut buf), Ok(payloads[round].len()));
        assert_eq!(pool_cas(&t), (before.0 + 4, before.1 + 4));
    }
    assert_eq!(m.free_blocks(), 128);
    m.check_invariants().unwrap();
}

/// Empty, one-block, three-block and whole-pool messages in one run:
/// every chain is cut to its own length, whichever way the run was staged.
#[test]
fn a_mixed_run_leaves_every_queued_chain_whole() {
    const BP: usize = 16;
    const TOTAL: u32 = 24;
    let cfg = MpfConfig::new(2, 2)
        .with_block_payload(BP)
        .with_total_blocks(TOTAL)
        .with_max_messages(16);
    let m = IpcMpf::anon(&cfg).unwrap();
    let tx = m.open_send("q").unwrap();
    let rx = m.open_receive("q", Protocol::Fcfs).unwrap();
    let fill =
        |len: usize, salt: usize| -> Vec<u8> { (0..len).map(|i| (i + salt) as u8).collect() };
    let lens = [
        0,
        BP,
        3 * BP,
        1,
        0,
        2 * BP + 1,
        BP - 1,
        3 * BP,
        cfg.max_message_bytes(),
    ];
    let payloads: Vec<Vec<u8>> = lens.iter().enumerate().map(|(i, &l)| fill(l, i)).collect();
    let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
    let blocks = |p: &[Vec<u8>]| p.iter().map(|p| p.len().div_ceil(BP) as u32).sum::<u32>();

    // The whole-pool message cannot ride with the others: the run falls
    // back to message by message and stages the eight that fit.
    assert_eq!(m.submit_sends(tx, &refs), Ok(8));
    assert_eq!(m.free_blocks(), TOTAL - blocks(&payloads[..8]));
    assert_eq!(m.drain_sends(), 8);
    m.check_invariants().expect("after the drain");
    assert_eq!(m.recv_batch(rx, 5).unwrap(), payloads[..5]);
    m.check_invariants().expect("after a partial batch");
    assert_eq!(m.free_blocks(), TOTAL - blocks(&payloads[5..8]));
    assert_eq!(m.recv_batch(rx, 16).unwrap(), payloads[5..8]);
    m.check_invariants().expect("after the full drain");
    assert_eq!(m.free_blocks(), TOTAL);

    // Now it fits, alone, and the eight before it as one run.
    assert_eq!(m.submit_sends(tx, &refs[8..]), Ok(1));
    assert_eq!(m.free_blocks(), 0);
    assert_eq!(m.drain_sends(), 1);
    m.check_invariants().expect("a whole-pool chain");
    assert_eq!(m.recv_batch(rx, 1).unwrap(), payloads[8..]);
    assert_eq!(m.submit_sends(tx, &refs[..8]), Ok(8));
    assert_eq!(m.drain_sends(), 8);
    m.check_invariants().expect("a run staged whole");
    assert_eq!(m.recv_batch(rx, 8).unwrap(), payloads[..8]);
    assert_eq!(m.free_blocks(), TOTAL);
    m.check_invariants().unwrap();
}

/// A pool one block short of the run stages exactly the prefix that
/// staging message by message would, and holds exactly its blocks.
#[test]
fn a_pool_short_by_one_block_stages_the_same_prefix() {
    const BP: usize = 8;
    let lens = [2 * BP, BP, 3 * BP, 1, 2 * BP, BP, 4 * BP];
    let need = |upto: usize| {
        lens[..upto]
            .iter()
            .map(|l| l.div_ceil(BP) as u32)
            .sum::<u32>()
    };
    let total = need(lens.len()) - 1;
    let cfg = MpfConfig::new(2, 2)
        .with_block_payload(BP)
        .with_total_blocks(total)
        .with_max_messages(16);
    let payloads: Vec<Vec<u8>> = lens.iter().map(|&l| vec![0xAB; l]).collect();
    let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();

    let by_message = IpcMpf::anon(&cfg).unwrap();
    let tx = by_message.open_send("q").unwrap();
    let _rx = by_message.open_receive("q", Protocol::Fcfs).unwrap();
    let fit = refs
        .iter()
        .take_while(|p| by_message.message_send(tx, p).is_ok())
        .count();
    assert_eq!(
        fit,
        lens.len() - 1,
        "only the last message finds the pool short"
    );

    let by_run = IpcMpf::anon(&cfg).unwrap();
    let tx = by_run.open_send("q").unwrap();
    let rx = by_run.open_receive("q", Protocol::Fcfs).unwrap();
    assert_eq!(by_run.submit_sends(tx, &refs), Ok(fit));
    assert_eq!(by_run.free_blocks(), total - need(fit));
    assert_eq!(by_run.free_blocks(), by_message.free_blocks());
    assert_eq!(by_run.drain_sends(), fit);
    by_run.check_invariants().unwrap();
    assert_eq!(by_run.recv_batch(rx, 16).unwrap(), payloads[..fit]);
    assert_eq!(by_run.free_blocks(), total);
}

/// A free header holds no chain: the audit walks `msg_free` and refuses a
/// header that still names blocks — on a fresh region, after a round
/// trip, and after a run whose block pop failed handed its headers back.
#[test]
fn a_free_header_holds_no_chain() {
    const BP: usize = 16;
    let cfg = MpfConfig::new(2, 2)
        .with_block_payload(BP)
        .with_total_blocks(8)
        .with_max_messages(8);
    let m = IpcMpf::anon(&cfg).unwrap();
    m.check_invariants().expect("a fresh region");
    let tx = m.open_send("q").unwrap();
    let rx = m.open_receive("q", Protocol::Fcfs).unwrap();
    let mut buf = [0u8; 8 * BP];
    m.message_send(tx, &[1u8; 3 * BP]).unwrap();
    assert_eq!(m.message_receive(rx, &mut buf), Ok(3 * BP));
    m.check_invariants().expect("after a round trip");
    // Nine blocks asked of eight: the run's block pop fails and both
    // headers go back bare; message by message, the second one's fails.
    let (five, four) = ([2u8; 5 * BP], [3u8; 4 * BP]);
    assert_eq!(m.submit_sends(tx, &[&five, &four]), Ok(1));
    assert_eq!(m.drain_sends(), 1);
    m.check_invariants().expect("after two failed block pops");
    assert_eq!(m.message_receive(rx, &mut buf), Ok(5 * BP));
    m.check_invariants().unwrap();
}

/// Up to `n` blocks of the chain from `head`, read from the link table.
fn chain(t: &Tables, head: u32, n: usize) -> Vec<u32> {
    let links = t.links();
    let next = |&b: &u32| Some(links[b as usize].load(Ordering::Acquire)).filter(|&b| b != NIL);
    std::iter::successors(Some(head).filter(|&b| b != NIL), next)
        .take(n)
        .collect()
}

/// The block free list, top first.
fn free_list(t: &Tables) -> Vec<u32> {
    chain(t, t.header().block_free.peek().1, t.links().len())
}

/// The contiguous stretches of a chain: a new one starts wherever it does
/// not step to the adjacent block.
fn stretches(chain: &[u32]) -> usize {
    1 + chain.windows(2).filter(|w| w[1] != w[0] + 1).count()
}

/// A 16 KiB message over 256-byte blocks cut from a fresh pool is one
/// contiguous run, so `message_receive_scan` hands it over as one slice.
#[test]
fn a_16_kib_message_on_a_fresh_pool_is_one_slice() {
    let cfg = MpfConfig::new(2, 2)
        .with_block_payload(256)
        .with_total_blocks(128);
    let m = IpcMpf::anon(&cfg).unwrap();
    let tx = m.open_send("bulk").unwrap();
    let rx = m.open_receive("bulk", Protocol::Fcfs).unwrap();
    let payload: Vec<u8> = (0..64 * 256).map(|i| (i % 251) as u8).collect();
    for round in 0..3 {
        m.message_send(tx, &payload).unwrap();
        let mut slices = Vec::new();
        let got = m.message_receive_scan(rx, |s| slices.push(s.to_vec()));
        assert_eq!(got, Ok(payload.len()));
        assert_eq!(slices.len(), 1, "round {round}: {} slices", slices.len());
        assert_eq!(slices[0], payload);
    }
}

/// On a seeded scramble of the pool, a 16 KiB message comes out of
/// `message_receive_scan` as exactly as many slices as its chain — read
/// from the link table before the receive — has contiguous stretches.
#[test]
fn slices_are_the_chains_contiguous_stretches() {
    const BP: usize = 256;
    const TOTAL: u32 = 256;
    let cfg = MpfConfig::new(4, 2)
        .with_block_payload(BP)
        .with_total_blocks(TOTAL)
        .with_max_messages(TOTAL);
    let payload: Vec<u8> = (0..64 * BP).map(|i| (i % 241) as u8).collect();
    let mut buf = vec![0u8; 8 * BP];
    let mut fragmented = 0;
    for seed in 1..=6u64 {
        let (m, t) = region_with_overlay(&format!("stretch-{seed}"), &cfg);
        let q = queues(&m, &["a", "b", "c"]);
        let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng as usize
        };
        // Chains of 1..=8 blocks dealt at random to three queues fill the
        // pool; draining the queues in a random order scrambles it.
        let mut left = TOTAL as usize;
        while left > 0 {
            let blocks = (1 + next() % 8).min(left);
            m.message_send(q[next() % 3].0, &buf[..blocks * BP])
                .unwrap();
            left -= blocks;
        }
        let mut order = [0, 1, 2];
        order.rotate_left(next() % 3);
        if next() % 2 == 1 {
            order.swap(1, 2);
        }
        for i in order {
            while m.try_message_receive(q[i].1, &mut buf).unwrap().is_some() {}
        }
        assert_eq!(m.free_blocks(), TOTAL);

        let (tx, rx) = q[0];
        for round in 0..3 {
            let header = t.header().msg_free.peek().1;
            m.message_send(tx, &payload).unwrap();
            let msg = t.msg(header);
            let n = msg.n_blocks.load(Ordering::Acquire) as usize;
            assert_eq!(n, 64);
            let want = stretches(&chain(&t, msg.head_block.load(Ordering::Acquire), n));
            let mut slices = Vec::new();
            let got = m.message_receive_scan(rx, |s| slices.push(s.to_vec()));
            assert_eq!(got, Ok(payload.len()));
            assert_eq!(slices.len(), want, "seed {seed}, round {round}");
            assert_eq!(slices.concat(), payload, "seed {seed}, round {round}");
            fragmented += usize::from(want > 1);
        }
        m.check_invariants().unwrap();
    }
    assert!(fragmented > 0, "no seed scrambled the pool");
}

/// A pop whose `n` ends inside a stretch, exactly at a stretch's end, at
/// the end of the list, or one past it takes what a link-by-link walk of
/// the free list says: the same free count and the same new top — and a
/// shortage takes nothing.
#[test]
fn a_pop_ending_anywhere_in_a_stretch_takes_what_the_links_say() {
    const BP: usize = 16;
    let cfg = MpfConfig::new(4, 2)
        .with_block_payload(BP)
        .with_total_blocks(12);
    let (m, t) = region_with_overlay("stretch-ends", &cfg);
    let q = queues(&m, &["a", "b", "c"]);
    let mut buf = vec![0u8; 12 * BP];
    for &(tx, _) in &q {
        m.message_send(tx, &buf[..4 * BP]).unwrap();
    }
    for i in [2, 0, 1] {
        assert_eq!(m.message_receive(q[i].1, &mut buf), Ok(4 * BP));
    }
    assert_eq!(free_list(&t), [4, 5, 6, 7, 0, 1, 2, 3, 8, 9, 10, 11]);

    let (tx, rx) = q[0];
    for n in [1, 2, 4, 5, 8, 11, 12] {
        let list = free_list(&t);
        m.message_send(tx, &buf[..n * BP]).unwrap();
        assert_eq!(m.free_blocks() as usize, list.len() - n, "n = {n}");
        let top = list.get(n).copied().unwrap_or(NIL);
        assert_eq!(t.header().block_free.peek().1, top, "n = {n}");
        let mut slices = 0;
        assert_eq!(m.message_receive_scan(rx, |_| slices += 1), Ok(n * BP));
        assert_eq!(slices, stretches(&list[..n]), "n = {n}");
        assert_eq!(free_list(&t), list, "n = {n}: the chain is back on top");
    }

    // Hold the first stretch, then ask for one block more than is left.
    m.message_send(q[1].0, &buf[..4 * BP]).unwrap();
    let (list, before) = (free_list(&t), t.header().block_free.peek());
    assert_eq!(list, [0, 1, 2, 3, 8, 9, 10, 11]);
    assert_eq!(
        m.message_send(tx, &buf[..(list.len() + 1) * BP]),
        Err(MpfError::BlocksExhausted)
    );
    assert_eq!(t.header().block_free.peek(), before, "no CAS, same top");
    assert_eq!(free_list(&t), list);
    m.check_invariants().unwrap();
}

/// The engine's pools are the one free list, so a schedule hook sees them:
/// one send and one receive pop and push each pool once, reported on the
/// list's head word (on an anonymous region the canonical id is the
/// address; no mapping is registered for it).
#[test]
fn a_round_trip_reports_alloc_and_free_on_both_pools() {
    use std::cell::RefCell;
    use std::rc::Rc;

    use mpf::shmem::RegionHeader;
    use mpf_shm::hooks::{self, SyncEvent, SyncHook};

    struct Recorder(RefCell<Vec<SyncEvent>>);
    impl SyncHook for Recorder {
        fn yield_point(&self, ev: SyncEvent) {
            self.0.borrow_mut().push(ev);
        }
        fn lock_acquire(&self, _: usize, try_lock: &mut dyn FnMut() -> bool) {
            while !try_lock() {}
        }
        fn lock_release(&self, _: usize) {}
        fn wait(&self, _: usize, ready: &mut dyn FnMut() -> bool) {
            while !ready() {}
        }
        fn notify(&self, _: usize) {}
    }

    let m = IpcMpf::anon(&MpfConfig::new(4, 2)).unwrap();
    let q = queues(&m, &["hooked"]);
    let rec = Rc::new(Recorder(RefCell::new(Vec::new())));
    {
        let _hook = hooks::install(rec.clone());
        m.message_send(q[0].0, &[7u8; 100]).unwrap();
        assert_eq!(m.message_receive(q[0].1, &mut [0u8; 100]), Ok(100));
    }
    let at = |offset| m.base_addr() + offset;
    let msgs = at(std::mem::offset_of!(RegionHeader, msg_free));
    let blocks = at(std::mem::offset_of!(RegionHeader, block_free));
    let evs = rec.0.borrow();
    for pool in [msgs, blocks] {
        for want in [SyncEvent::Alloc(pool), SyncEvent::Free(pool)] {
            let n = evs.iter().filter(|&&ev| ev == want).count();
            assert_eq!(n, 1, "{want:?} in {evs:?}");
        }
    }
}
