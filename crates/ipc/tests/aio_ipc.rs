//! Batched-submission (aio) tests for the multi-process backend, run
//! single-OS-process via `attach_view` (see `ipc_loopback.rs` for why
//! that exercises the real multi-process code paths).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mpf::{MpfConfig, MpfError, Protocol};
use mpf_ipc::IpcMpf;

fn unique_name(tag: &str) -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    format!(
        "aio-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    )
}

fn small_cfg() -> MpfConfig {
    MpfConfig::new(8, 4)
        .with_block_payload(64)
        .with_total_blocks(64)
        .with_max_messages(32)
        .with_max_connections(16)
}

#[test]
fn batched_send_recv_roundtrip_across_views() {
    if !mpf_shm::sys::HAVE_SYSCALLS {
        return;
    }
    let a = IpcMpf::create(&unique_name("loop"), &small_cfg()).unwrap();
    let b = a.attach_view().unwrap();

    let tx = a.open_send("bulk").unwrap();
    let rx = b.open_receive("bulk", Protocol::Fcfs).unwrap();

    let payloads: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 16]).collect();
    let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
    let completions = a.send_batch(tx, &refs).unwrap();
    assert_eq!(completions.len(), 8);
    for (i, c) in completions.iter().enumerate() {
        assert!(c.ok(), "completion {i} failed with status {}", c.status);
        assert_eq!(c.user_data, i as u64, "tokens come back in order");
        assert_eq!(c.len, 16);
    }

    // A batch is a run: staged and published in one call, so the sender's
    // deferred sends never see it.
    assert_eq!(a.aio_stats(), Default::default(), "nothing was deferred");

    let got = b.recv_batch(rx, 64).unwrap();
    assert_eq!(got.len(), 8, "batched receive drains the backlog");
    for (i, msg) in got.iter().enumerate() {
        assert_eq!(msg.as_slice(), &payloads[i][..], "FIFO order preserved");
    }

    // Empty batches are no-ops.
    assert!(a.send_batch(tx, &[]).unwrap().is_empty());
    assert!(b.recv_batch(rx, 0).unwrap().is_empty());
    assert_eq!(a.aio_stats(), Default::default());
}

/// A submit copies its payloads into the view and takes nothing from the
/// region, so a sender that dies before its drain leaves the pools whole;
/// the sweep still poisons the conversation it was connected to.
#[test]
fn dead_sender_with_submitted_sends_leaves_the_pools_whole_and_poisons() {
    if !mpf_shm::sys::HAVE_SYSCALLS {
        return;
    }
    let main = IpcMpf::create(&unique_name("dead"), &small_cfg()).unwrap();
    let sender = main.attach_view().unwrap();

    let rx = main.open_receive("doomed", Protocol::Fcfs).unwrap();
    let tx = sender.open_send("doomed").unwrap();

    let free_before = main.free_blocks();
    let payloads: Vec<&[u8]> = vec![b"one", b"two", b"three", b"four"];
    assert_eq!(sender.submit_sends(tx, &payloads).unwrap(), 4);
    assert_eq!(sender.aio_stats().sq_depth, 4);
    assert_eq!(
        main.free_blocks(),
        free_before,
        "a submit allocates nothing"
    );

    sender.debug_abandon_slot();
    assert_eq!(main.sweep_dead_peers(), 1, "sweep finds the corpse");
    assert_eq!(main.free_blocks(), free_before);
    main.check_invariants().unwrap();
    let mut buf = [0u8; 64];
    match main.recv_deadline(rx, &mut buf, Some(Instant::now() + Duration::from_secs(2))) {
        Err(MpfError::PeerDied { pid }) => assert_eq!(pid, sender.pid()),
        other => panic!("expected PeerDied, got {other:?}"),
    }
    drop(sender);
}

/// A payload the pools cannot take stays submitted: a drain completes
/// what fits, and a later one, once a receive freed room, the rest.
#[test]
fn a_drain_short_of_pool_memory_keeps_the_rest_submitted() {
    if !mpf_shm::sys::HAVE_SYSCALLS {
        return;
    }
    let m = IpcMpf::create(&unique_name("short"), &small_cfg()).unwrap();
    let tx = m.open_send("short").unwrap();
    let rx = m.open_receive("short", Protocol::Fcfs).unwrap();
    // 40 of the 64 blocks each: the pools hold one at a time.
    let big = [7u8; 40 * 64];
    assert_eq!(m.submit_sends(tx, &[&big, &big]), Ok(2));
    assert_eq!(m.drain_sends(), 1, "the pools take one");
    assert_eq!(m.drain_sends(), 0, "and not yet the other");
    assert_eq!(m.aio_stats().sq_depth, 1);
    let mut buf = vec![0u8; big.len()];
    assert_eq!(m.message_receive(rx, &mut buf), Ok(big.len()));
    assert_eq!(m.drain_sends(), 1);
    let mut done = Vec::new();
    assert_eq!(m.reap_completions(&mut done), 2);
    let tokens: Vec<(u64, bool)> = done.iter().map(|c| (c.user_data, c.ok())).collect();
    assert_eq!(tokens, [(0, true), (1, true)]);
    m.check_invariants().unwrap();
}

#[test]
fn latency_sampling_follows_creator_rate() {
    if !mpf_shm::sys::HAVE_SYSCALLS {
        return;
    }
    let cfg = small_cfg().latency_sample_rate(4);
    let m = IpcMpf::create(&unique_name("sample"), &cfg).unwrap();
    let tx = m.open_send("sampled").unwrap();
    let rx = m.open_receive("sampled", Protocol::Fcfs).unwrap();
    for i in 0..8u8 {
        m.message_send(tx, &[i; 8]).unwrap();
    }
    let mut buf = [0u8; 16];
    for _ in 0..8 {
        m.message_receive(rx, &mut buf).unwrap();
    }
    let t = m.telemetry_snapshot();
    assert_eq!(t.receives, 8, "every message is still counted");
    assert_eq!(
        t.latency_hist.count, 2,
        "1-in-4 sampling stamps exactly two of eight sends"
    );
}
