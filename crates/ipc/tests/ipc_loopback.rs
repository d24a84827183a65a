//! Single-OS-process integration tests for the ipc backend.
//!
//! `IpcMpf::attach_view` maps the same region file a second time, so one
//! test process can exercise the multi-process code paths — separate
//! process slots, separate base addresses — without fork.  Genuine
//! multi-process coverage lives in `cross_process.rs`.

use std::panic::AssertUnwindSafe;
use std::rc::Rc;
use std::time::{Duration, Instant};

use mpf::inspect::RegionInspector;
use mpf::{MpfConfig, MpfError, Protocol};
use mpf_ipc::IpcMpf;
use mpf_shm::hooks::{self, SyncEvent, SyncHook};

fn region(name: &str) -> IpcMpf {
    let cfg = MpfConfig::new(8, 4)
        .with_block_payload(64)
        .with_total_blocks(64)
        .with_max_messages(32)
        .with_max_connections(16);
    IpcMpf::create(name, &cfg).expect("create region")
}

#[test]
fn fcfs_roundtrip_within_one_region() {
    let m = region("loop-fcfs");
    let tx = m.open_send("pipe").unwrap();
    let rx = m.open_receive("pipe", Protocol::Fcfs).unwrap();

    assert!(!m.check_receive(rx).unwrap());
    m.message_send(tx, b"first").unwrap();
    m.message_send(tx, b"second").unwrap();
    assert!(m.check_receive(rx).unwrap());

    let mut buf = [0u8; 64];
    assert_eq!(m.message_receive(rx, &mut buf).unwrap(), 5);
    assert_eq!(&buf[..5], b"first");
    assert_eq!(m.message_receive(rx, &mut buf).unwrap(), 6);
    assert_eq!(&buf[..6], b"second");

    m.close_send(tx).unwrap();
    m.close_receive(rx).unwrap();
    assert_eq!(m.live_lnvcs(), 0, "closing both ends deletes the LNVC");
}

#[test]
fn fcfs_delivers_to_exactly_one_view() {
    let a = region("loop-fcfs-one");
    let b = a.attach_view().expect("second view");
    assert_ne!(a.pid(), b.pid(), "views get distinct process slots");

    let tx = a.open_send("work").unwrap();
    let ra = a.open_receive("work", Protocol::Fcfs).unwrap();
    let rb = b.open_receive("work", Protocol::Fcfs).unwrap();

    a.message_send(tx, b"job").unwrap();
    let mut buf = [0u8; 16];
    let got_a = a.try_message_receive(ra, &mut buf).unwrap();
    let got_b = b.try_message_receive(rb, &mut buf).unwrap();
    assert!(
        got_a.is_some() ^ got_b.is_some(),
        "FCFS message must reach exactly one receiver (a={got_a:?} b={got_b:?})"
    );
}

#[test]
fn broadcast_reaches_every_view_but_not_late_joiners() {
    let a = region("loop-bcast");
    let b = a.attach_view().unwrap();
    let c = a.attach_view().unwrap();

    let tx = a.open_send("news").unwrap();
    let ra = a.open_receive("news", Protocol::Broadcast).unwrap();
    let rb = b.open_receive("news", Protocol::Broadcast).unwrap();

    a.message_send(tx, b"early").unwrap();
    // c joins after the send: per the paper it must only see later traffic.
    let rc = c.open_receive("news", Protocol::Broadcast).unwrap();
    a.message_send(tx, b"late").unwrap();

    let mut buf = [0u8; 16];
    assert_eq!(a.message_receive(ra, &mut buf).unwrap(), 5);
    assert_eq!(&buf[..5], b"early");
    assert_eq!(b.message_receive(rb, &mut buf).unwrap(), 5);
    assert_eq!(&buf[..5], b"early");

    assert_eq!(c.message_receive(rc, &mut buf).unwrap(), 4);
    assert_eq!(&buf[..4], b"late", "late joiner skips pre-join messages");
    assert_eq!(a.message_receive(ra, &mut buf).unwrap(), 4);
    assert_eq!(b.message_receive(rb, &mut buf).unwrap(), 4);
}

#[test]
fn views_map_at_distinct_addresses_and_interoperate() {
    // Position-independence: the same bytes are mapped at two different
    // virtual addresses, and every primitive works through either view
    // because the region stores only u32 indices, never pointers.
    let a = region("loop-pi");
    let b = a.attach_view().unwrap();
    assert_ne!(
        a.base_addr(),
        b.base_addr(),
        "two mappings of one file should land at different bases"
    );
    assert_eq!(a.region_bytes(), b.region_bytes());

    let tx = a.open_send("xaddr").unwrap();
    let rx = b.open_receive("xaddr", Protocol::Fcfs).unwrap();
    for i in 0..32u32 {
        let payload = vec![i as u8; (i as usize % 96) + 1];
        a.message_send(tx, &payload).unwrap();
        let mut buf = [0u8; 128];
        let n = b.message_receive(rx, &mut buf).unwrap();
        assert_eq!(&buf[..n], &payload[..], "case {i}");
    }
    // And the reverse direction, ids minted through one view resolved
    // through... the same view, but the data written via the other base.
    let back_tx = b.open_send("xaddr-back").unwrap();
    let back_rx = a.open_receive("xaddr-back", Protocol::Fcfs).unwrap();
    b.message_send(back_tx, b"pong").unwrap();
    let mut buf = [0u8; 16];
    assert_eq!(a.message_receive(back_rx, &mut buf).unwrap(), 4);
    assert_eq!(&buf[..4], b"pong");
}

#[test]
fn buffer_too_small_keeps_the_message_queued() {
    let m = region("loop-small");
    let tx = m.open_send("big").unwrap();
    let rx = m.open_receive("big", Protocol::Fcfs).unwrap();
    m.message_send(tx, &[7u8; 100]).unwrap();

    // Every form that copies into a caller's buffer, blocking or not.
    let mut tiny = [0u8; 8];
    let short = Err(MpfError::BufferTooSmall { needed: 100 });
    assert_eq!(m.try_message_receive(rx, &mut tiny), short.map(Some));
    assert_eq!(m.message_receive(rx, &mut tiny), short);
    assert_eq!(m.recv_deadline(rx, &mut tiny, None), short);
    assert_eq!(
        m.recv_deadline(rx, &mut tiny, Some(Instant::now() + Duration::from_secs(1))),
        short
    );
    assert_eq!(m.queue_depth(rx), Ok(1));
    // The message is still there for a properly sized buffer.
    let mut big = [0u8; 128];
    assert_eq!(m.message_receive(rx, &mut big).unwrap(), 100);
}

/// `mpf-trace stat` shows a process's heartbeat as its sign of progress: one
/// that only ever blocks in single receives must not look frozen.
#[test]
fn blocking_single_receives_tick_the_heartbeat() {
    let a = region("loop-heartbeat");
    let b = a.attach_view().expect("receiving view");
    let tx = a.open_send("beat").unwrap();
    let rx = b.open_receive("beat", Protocol::Fcfs).unwrap();
    let insp = RegionInspector::attach("loop-heartbeat").expect("inspector");
    let beat = || insp.processes()[b.pid() as usize].heartbeat;
    let start = beat();
    let mut buf = [0u8; 8];
    const ROUNDS: u64 = 5;
    for _ in 0..ROUNDS {
        for _ in 0..4 {
            a.message_send(tx, b"tick").unwrap();
        }
        assert_eq!(b.message_receive(rx, &mut buf), Ok(4));
        assert_eq!(b.recv_deadline(rx, &mut buf, None), Ok(4));
        let timeout = Duration::from_secs(1);
        assert_eq!(
            b.recv_deadline(rx, &mut buf, Some(Instant::now() + timeout)),
            Ok(4)
        );
        assert_eq!(b.message_receive_scan(rx, |_| ()), Ok(4));
    }
    assert!(
        beat() - start >= 4 * ROUNDS,
        "{} receives moved the heartbeat from {start} to {}",
        4 * ROUNDS,
        beat()
    );
}

#[test]
fn message_too_large_is_rejected_up_front() {
    let m = region("loop-huge");
    let tx = m.open_send("huge").unwrap();
    let _rx = m.open_receive("huge", Protocol::Fcfs).unwrap();
    let max = 64 * 64; // block_payload * total_blocks
    let err = m.message_send(tx, &vec![0u8; max + 1]).unwrap_err();
    assert!(matches!(err, MpfError::MessageTooLarge { .. }), "{err:?}");
}

#[test]
fn blocks_are_conserved_across_send_receive_cycles() {
    let m = region("loop-blocks");
    let free0 = m.free_blocks();
    let tx = m.open_send("conserve").unwrap();
    let rx = m.open_receive("conserve", Protocol::Fcfs).unwrap();
    let mut buf = [0u8; 256];
    for round in 0..50usize {
        let len = (round * 13) % 200 + 1;
        m.message_send(tx, &vec![round as u8; len]).unwrap();
        assert_eq!(m.message_receive(rx, &mut buf).unwrap(), len);
    }
    m.close_send(tx).unwrap();
    m.close_receive(rx).unwrap();
    assert_eq!(m.free_blocks(), free0, "every block returned to the pool");
}

#[test]
fn lnvc_slots_are_reused_after_deletion() {
    let m = region("loop-reuse");
    // Exhaust all 8 LNVC descriptors.
    let ids: Vec<_> = (0..8)
        .map(|i| m.open_send(&format!("ch{i}")).unwrap())
        .collect();
    let err = m.open_send("one-too-many").unwrap_err();
    assert!(matches!(err, MpfError::LnvcsExhausted), "{err:?}");

    // Closing the only connection deletes the conversation; the slot
    // must be reusable and the stale id must be refused (generation).
    m.close_send(ids[3]).unwrap();
    let fresh = m.open_send("replacement").unwrap();
    assert_eq!(m.close_send(ids[3]).unwrap_err(), MpfError::UnknownLnvc);
    m.message_send(fresh, b"x").unwrap();
}

#[test]
fn send_with_no_receivers_queues_for_future_fcfs() {
    let m = region("loop-early-send");
    let tx = m.open_send("mailbox").unwrap();
    m.message_send(tx, b"waiting for you").unwrap();
    let rx = m.open_receive("mailbox", Protocol::Fcfs).unwrap();
    let mut buf = [0u8; 32];
    assert_eq!(m.message_receive(rx, &mut buf).unwrap(), 15);
    assert_eq!(&buf[..15], b"waiting for you");
}

#[test]
fn duplicate_connections_are_rejected() {
    let m = region("loop-dup");
    let _tx = m.open_send("solo").unwrap();
    assert_eq!(m.open_send("solo").unwrap_err(), MpfError::AlreadyConnected);
    let _rx = m.open_receive("solo", Protocol::Fcfs).unwrap();
    assert_eq!(
        m.open_receive("solo", Protocol::Fcfs).unwrap_err(),
        MpfError::AlreadyConnected
    );
    // Paper footnote 3: one process cannot mix protocols on an LNVC.
    assert_eq!(
        m.open_receive("solo", Protocol::Broadcast).unwrap_err(),
        MpfError::ProtocolConflict
    );
}

#[test]
fn attach_by_name_sees_existing_conversations() {
    let owner = region("loop-attach");
    let tx = owner.open_send("shared").unwrap();
    owner.message_send(tx, b"hello attacher").unwrap();

    let other = IpcMpf::attach("loop-attach").expect("attach by name");
    assert_ne!(other.pid(), owner.pid());
    let rx = other.open_receive("shared", Protocol::Fcfs).unwrap();
    let mut buf = [0u8; 32];
    assert_eq!(other.message_receive(rx, &mut buf).unwrap(), 14);
    assert_eq!(&buf[..14], b"hello attacher");
}

/// A region carved by the previous layout (version 10 carved a submission
/// and a completion ring per process slot, which this one does not) is
/// refused outright, by the participant attach and the read-only inspector
/// alike.
#[test]
fn previous_layout_version_is_rejected() {
    use mpf::layout::LAYOUT_VERSION;
    use mpf_ipc::{shmem::RegionHeader, AttachError};
    use std::sync::atomic::Ordering;

    assert_eq!(LAYOUT_VERSION, 11);
    let _creator = region("loop-stale-layout");
    let raw = mpf_shm::ShmRegion::attach("loop-stale-layout").unwrap();
    // SAFETY: the header sits at offset 0 of every carved region and
    // `raw` maps all of it.
    let header: &RegionHeader = unsafe { raw.at(0) };
    header.layout_version.store(10, Ordering::Release);

    let stale = MpfError::LayoutMismatch {
        expected: 11,
        found: 10,
    };
    match IpcMpf::attach("loop-stale-layout") {
        Err(AttachError::Mpf(e)) => assert_eq!(e, stale),
        other => panic!("stale region attached: {other:?}"),
    }
    match RegionInspector::attach("loop-stale-layout") {
        Err(AttachError::Mpf(e)) => assert_eq!(e, stale),
        other => panic!("stale region inspected: {other:?}"),
    }
}

/// Dies (panics) at the decision point inside a ring push: after the
/// sender staged its message, before it published it.
struct DieMidPush;

impl SyncHook for DieMidPush {
    fn yield_point(&self, event: SyncEvent) {
        if matches!(event, SyncEvent::StackPush(_)) {
            panic!("killed between staging and publishing");
        }
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

/// `check_invariants` sees what a corpse leaves behind — a message it
/// staged but never published, connections nobody will close — and after
/// a survivor's sweep only the staged message, which no queue names, so
/// no sweep can free it (DESIGN.md "Free lists").
#[test]
fn check_invariants_reports_a_corpse_before_and_after_the_sweep() {
    let a = region("loop-audit");
    let b = a.attach_view().expect("victim view");
    let total = a.free_blocks();
    let rx = a.open_receive("audited", Protocol::Fcfs).unwrap();
    let tx = b.open_send("audited").unwrap();
    b.message_send(tx, b"delivered before the end").unwrap();
    a.check_invariants()
        .expect("a live, quiescent region is clean");

    // Staged, then killed before the publish: pool memory no queue holds.
    let killed = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let _hook = hooks::install(Rc::new(DieMidPush));
        b.message_send(tx, &[1u8; 100])
    }));
    assert!(killed.is_err());
    let leak = a
        .check_invariants()
        .expect_err("the staged message is in nobody's queue");
    assert!(leak.contains("message headers leaked"), "{leak}");

    // The victim dies as SIGKILL would have it: no detach, no Drop.
    b.debug_abandon_slot();
    std::mem::forget(b);
    let orphan = a
        .check_invariants()
        .expect_err("a corpse still holds its connection");
    assert!(orphan.contains("outlives its holder"), "{orphan}");

    assert_eq!(a.sweep_dead_peers(), 1);
    let leak = a
        .check_invariants()
        .expect_err("the sweep frees queues and connections, not a staged run");
    assert!(leak.contains("message headers leaked"), "{leak}");
    assert!(a.lnvc_poisoned(rx).unwrap());
    assert_eq!(a.free_blocks(), total - 2, "only the staged blocks are out");
    a.close_receive(rx).unwrap();
    assert_eq!(a.live_lnvcs(), 0);
}

/// A sweep that poisons a conversation frees its queue, so a surviving
/// BROADCAST receiver with unread messages must not keep its head in the
/// freed messages: the audit after the sweep is clean, and the survivor's
/// close releases claims on nothing.
#[test]
fn a_poisoning_sweep_leaves_no_broadcast_head_in_the_freed_queue() {
    let a = region("loop-bcast-poison");
    let b = a.attach_view().expect("victim view");
    let total = a.free_blocks();
    let rx = a.open_receive("fanout", Protocol::Broadcast).unwrap();
    let tx = b.open_send("fanout").unwrap();
    b.message_send(tx, b"unread one").unwrap();
    b.message_send(tx, b"unread two").unwrap();
    a.check_invariants().expect("two messages owed to the head");

    b.debug_abandon_slot();
    std::mem::forget(b);
    assert_eq!(a.sweep_dead_peers(), 1);
    assert!(a.lnvc_poisoned(rx).unwrap());
    a.check_invariants()
        .expect("the poisoned queue is gone, and the head with it");
    assert_eq!(a.free_blocks(), total);
    a.close_receive(rx).unwrap();
    assert_eq!(a.live_lnvcs(), 0);
    a.check_invariants().unwrap();
}

/// A view dropped with connections open retires them the way its own
/// closes would — no poison, a conversation only it held deleted — so the
/// audit finds nothing under the slot it frees; on a named and on an
/// anonymous region alike.
#[test]
fn dropping_a_view_closes_the_connections_it_still_holds() {
    let cfg = MpfConfig::new(8, 4)
        .with_block_payload(64)
        .with_total_blocks(64);
    let named = IpcMpf::create("loop-clean-detach", &cfg).expect("create region");
    let anonymous = IpcMpf::anon(&cfg).expect("anonymous region");
    for a in [named, anonymous] {
        let b = a.attach_view().expect("departing view");
        let shared_rx = a.open_receive("shared", Protocol::Fcfs).unwrap();
        let shared_tx = b.open_send("shared").unwrap();
        let cast_tx = a.open_send("cast").unwrap();
        let _cast_rx = b.open_receive("cast", Protocol::Broadcast).unwrap();
        let own_tx = b.open_send("own").unwrap();
        let _own_rx = b.open_receive("own", Protocol::Fcfs).unwrap();
        b.message_send(shared_tx, b"outlives its sender").unwrap();
        // Owed to the departing BROADCAST receiver alone, and queued on a
        // conversation only the departing view holds: both must be freed.
        a.message_send(cast_tx, &[1u8; 200]).unwrap();
        b.message_send(own_tx, &[2u8; 100]).unwrap();
        assert_eq!(a.live_lnvcs(), 3);

        drop(b);
        a.check_invariants()
            .expect("nothing is left under the freed slot");
        assert_eq!(a.live_lnvcs(), 2, "the conversation only it held is gone");
        assert_eq!(a.free_blocks(), 64 - 1, "only the shared message is queued");
        assert!(
            !a.lnvc_poisoned(shared_rx).unwrap(),
            "a departure, not a death"
        );
        let mut buf = [0u8; 64];
        assert_eq!(a.message_receive(shared_rx, &mut buf), Ok(19));
        assert_eq!(a.sweep_dead_peers(), 0);

        a.close_receive(shared_rx).unwrap();
        a.close_send(cast_tx).unwrap();
        assert_eq!(a.live_lnvcs(), 0);
        assert_eq!(a.free_blocks(), 64);
        a.check_invariants().unwrap();
    }
}

/// The block pool costs a message one CAS to allocate and one to free,
/// whatever its length: the free list's tag, read through a second
/// overlay of the region header, goes up by two per 64-block round trip.
#[test]
fn a_64_block_message_is_two_block_pool_cas() {
    let cfg = MpfConfig::new(2, 2)
        .with_block_payload(256)
        .with_total_blocks(128);
    let m = IpcMpf::create("loop-chain-cas", &cfg).expect("create region");
    let raw = mpf_shm::ShmRegion::attach("loop-chain-cas").unwrap();
    let tables = mpf::engine::Tables::new(raw, &cfg);
    let header = tables.header();
    let tx = m.open_send("bulk").unwrap();
    let rx = m.open_receive("bulk", Protocol::Fcfs).unwrap();
    let payload: Vec<u8> = (0..64 * 256).map(|i| (i % 251) as u8).collect();
    let mut buf = vec![0u8; payload.len()];
    for round in 1..=3 {
        m.message_send(tx, &payload).unwrap();
        assert_eq!(m.free_blocks(), 64);
        assert_eq!(m.message_receive(rx, &mut buf), Ok(payload.len()));
        assert_eq!(buf, payload);
        let (cas, _top) = header.block_free.peek();
        assert_eq!(cas, 2 * round, "one pop, one push per message");
    }
    assert_eq!(m.free_blocks(), 128);
    m.check_invariants().unwrap();
}

/// The audit walks block chains: a queued chain that is not `n_blocks`
/// long, a link outside the pool, or a block reached from two places —
/// what a torn splice would leave — each fail `check_invariants`.
#[test]
fn check_invariants_reports_torn_block_chains() {
    use std::sync::atomic::Ordering;

    let cfg = MpfConfig::new(2, 2)
        .with_block_payload(16)
        .with_total_blocks(8);
    let m = IpcMpf::create("loop-torn-chain", &cfg).expect("create region");
    let raw = mpf_shm::ShmRegion::attach("loop-torn-chain").unwrap();
    let tables = mpf::engine::Tables::new(raw, &cfg);
    let link = |block: u32| &tables.links()[block as usize];
    let tx = m.open_send("q").unwrap();
    let _rx = m.open_receive("q", Protocol::Fcfs).unwrap();
    m.message_send(tx, &[7u8; 48]).unwrap(); // blocks 0 -> 1 -> 2
    m.check_invariants().expect("an intact chain");
    let corrupt = |block: u32, to: u32| {
        let was = link(block).swap(to, Ordering::AcqRel);
        let report = m.check_invariants().expect_err("a torn chain");
        link(block).store(was, Ordering::Release);
        report
    };
    let short = corrupt(1, u32::MAX);
    assert!(
        short.contains("of 3 blocks: block chain ends short"),
        "{short}"
    );
    let long = corrupt(2, 3);
    assert!(long.contains("runs on to block 3"), "{long}");
    // The free list (3 4 5 6 7) spliced back into the queued chain.
    let shared = corrupt(7, 1);
    assert!(shared.contains("block 1 is reached twice"), "{shared}");
    let wild = corrupt(0, 8);
    assert!(wild.contains("outside the pool"), "{wild}");
    m.check_invariants().expect("restored");
}
