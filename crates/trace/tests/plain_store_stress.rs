//! Concurrency coverage for the words the conversation lock serialises.
//!
//! `next_seq`, `msg_count`, a message's `flags` and `bcast_pending`, and
//! every per-LNVC telemetry counter are written with a plain load + store
//! under the LNVC lock.  If any of them had a second writer the lock does
//! not cover, six threads sharing two conversations for 10⁵ messages would
//! lose an update, and one of the identities checked at the end would
//! break: `next_seq` and the per-LNVC `sends` equal the messages sent (no
//! sequence number skipped or reused), every BROADCAST receiver saw every
//! message of every sender in order, the FCFS receivers together saw each
//! exactly once, `msg_count` equals the walked queue, and the structural
//! audit, the telemetry totals and the offline §3-conformance checker all
//! come out clean.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mpf::inspect::RegionInspector;
use mpf::{IpcMpf, LnvcId};
use mpf::{MpfConfig, MpfError, Protocol};
use mpf_trace::TraceLog;

const CONVS: [&str; 2] = ["a", "b"];
const SENDERS: u32 = 2;
const PER_SENDER: u64 = 26_000; // per conversation: 2 x 2 x 26 000 = 104 000

fn patience() -> Option<Instant> {
    Some(Instant::now() + Duration::from_secs(120))
}

/// `(sender, serial)` out of a 16-byte payload.
fn decode(buf: &[u8]) -> (u32, u64) {
    (
        u32::from_le_bytes(buf[..4].try_into().unwrap()),
        u64::from_le_bytes(buf[8..16].try_into().unwrap()),
    )
}

#[test]
#[cfg_attr(debug_assertions, ignore = "needs release speed to interleave")]
fn shared_conversations_lose_no_update_under_contention() {
    // A pool small enough that senders keep running dry: the pressure
    // sweep and the pool signal are part of the mix.
    let cfg = MpfConfig::new(4, 8)
        .with_block_payload(16)
        .with_total_blocks(96)
        .with_max_messages(48)
        .latency_sample_rate(1);
    let name = format!("plain-store-stress-{}", std::process::id());
    let creator = Arc::new(IpcMpf::create(&name, &cfg).expect("create"));
    let per_conv = u64::from(SENDERS) * PER_SENDER;
    let fcfs_seen = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
    // Everyone is connected before the first send, so every message owes
    // one FCFS delivery and two BROADCAST deliveries.
    let start = Arc::new(Barrier::new(6));

    let view = || Arc::new(creator.attach_view().expect("view"));
    let mut senders = Vec::new();
    for s in 0..SENDERS {
        let (v, start) = (view(), start.clone());
        senders.push(std::thread::spawn(move || {
            let ids = CONVS.map(|c| v.open_send(c).unwrap());
            start.wait();
            let mut payload = [0u8; 16];
            payload[..4].copy_from_slice(&s.to_le_bytes());
            for serial in 0..PER_SENDER {
                payload[8..].copy_from_slice(&serial.to_le_bytes());
                for id in ids {
                    v.send_deadline(id, &payload, patience()).expect("send");
                }
            }
            (v, ids)
        }));
    }
    let mut bcast = Vec::new();
    for _ in 0..2 {
        let (v, start) = (view(), start.clone());
        bcast.push(std::thread::spawn(move || {
            let ids = CONVS.map(|c| v.open_receive(c, Protocol::Broadcast).unwrap());
            start.wait();
            let mut buf = [0u8; 16];
            // Per conversation, per sender: the next serial owed.
            let mut next = [[0u64; SENDERS as usize]; 2];
            let mut left = [per_conv; 2];
            while left != [0, 0] {
                let ready = v.wait_any_deadline(&ids, patience()).expect("wait_any");
                let c = ids.iter().position(|&id| id == ready).unwrap();
                while let Some(n) = v.try_message_receive(ready, &mut buf).expect("recv") {
                    let (sender, serial) = decode(&buf[..n]);
                    assert_eq!(serial, next[c][sender as usize], "BROADCAST gap or reorder");
                    next[c][sender as usize] += 1;
                    left[c] -= 1;
                }
            }
            (v, ids)
        }));
    }
    let mut fcfs = Vec::new();
    for _ in 0..2 {
        let (v, start, seen) = (view(), start.clone(), fcfs_seen.clone());
        fcfs.push(std::thread::spawn(move || {
            let ids = CONVS.map(|c| v.open_receive(c, Protocol::Fcfs).unwrap());
            start.wait();
            let (mut buf, mut got) = ([0u8; 16], Vec::new());
            let all_taken = || seen.iter().all(|s| s.load(Ordering::Acquire) == per_conv);
            while !all_taken() {
                let soon = Some(Instant::now() + Duration::from_millis(5));
                let ready = match v.wait_any_deadline(&ids, soon) {
                    Ok(id) => id,
                    Err(MpfError::TimedOut) => continue,
                    Err(e) => panic!("wait_any: {e}"),
                };
                let c = ids.iter().position(|&id| id == ready).unwrap();
                // The other FCFS receiver may have beaten us to it.
                while let Some(n) = v.try_message_receive(ready, &mut buf).expect("recv") {
                    let (sender, serial) = decode(&buf[..n]);
                    got.push((c, sender, serial));
                    seen[c].fetch_add(1, Ordering::AcqRel);
                }
            }
            (v, ids, got)
        }));
    }

    let senders: Vec<_> = senders.into_iter().map(|t| t.join().unwrap()).collect();
    let bcast: Vec<_> = bcast.into_iter().map(|t| t.join().unwrap()).collect();
    let fcfs: Vec<_> = fcfs.into_iter().map(|t| t.join().unwrap()).collect();

    // Exactly-once FCFS: the two receivers' takes partition what was sent.
    let mut taken = HashSet::new();
    for (_, _, got) in &fcfs {
        for &delivery in got {
            assert!(taken.insert(delivery), "FCFS delivered twice: {delivery:?}");
        }
    }
    assert_eq!(taken.len() as u64, 2 * per_conv);

    // Everything was delivered, so everything was reclaimed.
    creator.check_invariants().expect("quiescent audit");
    assert_eq!(creator.free_blocks(), cfg.total_blocks);
    assert_eq!(creator.reclaimable().messages, 0);
    let total = creator.telemetry_snapshot();
    assert_eq!((total.sends, total.reclaims), (2 * per_conv, 2 * per_conv));
    assert_eq!(total.receives, 2 * per_conv * 3, "one FCFS + two BROADCAST");
    assert_eq!(total.size_hist.count, total.sends);
    assert_eq!(total.latency_hist.count, total.receives);

    // A backlog on top, so the queue words are audited non-empty: three
    // more on each conversation, nobody receiving.
    let (tx_view, tx_ids) = &senders[0];
    for &id in tx_ids {
        for _ in 0..3 {
            tx_view.message_send(id, &[0u8; 16]).unwrap();
        }
    }
    creator.check_invariants().expect("audit with a backlog");
    let insp = RegionInspector::attach(&name).expect("inspector");
    for ((info, &id), name) in insp.lnvcs().iter().zip(tx_ids).zip(CONVS) {
        let id: LnvcId = id;
        assert_eq!(info.name, name);
        assert_eq!(info.next_seq as u64, per_conv + 3, "a sequence number lost");
        assert_eq!(info.tel.sends, per_conv + 3);
        assert_eq!(info.tel.receives, per_conv * 3);
        assert_eq!(info.tel.reclaims, per_conv);
        assert_eq!((info.queued, info.reclaimable), (3, 0), "walked queue");
        assert_eq!(creator.queue_depth(id), Ok(3), "msg_count");
        assert_eq!((info.n_senders, info.n_fcfs, info.n_bcast), (2, 2, 2));
    }

    // The surviving tails of the trace rings pass the §3 checker (the
    // rings wrapped long ago, so completeness rules are off; order and
    // exactly-once are not).
    let report = TraceLog::from_ipc(&creator).check();
    assert!(report.is_clean(), "{:?}", report.violations);
    assert!(report.truncated && report.deliveries > 0);
    drop((bcast, fcfs));
}
