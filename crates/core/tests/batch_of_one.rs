//! A single operation is a batch of one: receiving (sending) K messages
//! one call each and receiving (sending) them in one batched call run the
//! same engine routine, so they must leave the same books — telemetry,
//! pools, queue, and, message by message, the same trace records.

use mpf::engine::IpcMpf;
use mpf::{LnvcId, MpfConfig, Protocol};
use mpf_shm::tracering::{TraceEvent, TR_RECLAIM, TR_RECV, TR_RECV_B, TR_SEND};

const K: usize = 6;

/// A fresh region with a sender (the creator) and `receivers` receiving
/// views of protocol `protocol` on one conversation, every message timed.
fn scene(protocol: Protocol, receivers: usize) -> (IpcMpf, LnvcId, Vec<IpcMpf>) {
    let cfg = MpfConfig::new(4, 4)
        .with_block_payload(16)
        .with_total_blocks(64)
        .with_max_messages(16)
        .latency_sample_rate(1);
    let tx_view = IpcMpf::anon(&cfg).expect("region");
    let views: Vec<IpcMpf> = (0..receivers)
        .map(|_| tx_view.attach_view().expect("view"))
        .collect();
    for v in &views {
        v.open_receive("q", protocol).expect("open_receive");
    }
    let id = tx_view.open_send("q").expect("open_send");
    (tx_view, id, views)
}

/// Message `i` of every run: lengths differ, and span one to three blocks.
fn payload(i: usize) -> Vec<u8> {
    vec![i as u8; 5 + 7 * i]
}

/// A trace record less its clock reading and ring position: `kind`,
/// `trace`, `stamp`, `hop`, `lnvc`, `arg`, `arg2`.
type Record = (u32, u64, u64, u32, u32, u32, u32);

/// The records of the given kinds in `view`'s ring, sorted: one entry per
/// message and kind.
fn records(view: &IpcMpf, kinds: &[u32]) -> Vec<Record> {
    let mut out: Vec<_> = view
        .trace_events(view.pid())
        .into_iter()
        .filter(|e| kinds.contains(&e.kind))
        .map(|e: TraceEvent| (e.kind, e.trace, e.stamp, e.hop, e.lnvc, e.arg, e.arg2))
        .collect();
    out.sort_unstable();
    out
}

/// What a receive run leaves behind, per receiver and for the region.
#[derive(Debug, PartialEq)]
struct ReceiveBooks {
    payloads: Vec<Vec<Vec<u8>>>,
    /// `receives`, `bytes_out`, `reclaims`, `latency.count`.
    counters: (u64, u64, u64, u64),
    free_blocks: u32,
    queue_depth: u32,
    records: Vec<Vec<Record>>,
}

fn receive_run(protocol: Protocol, receivers: usize, batched: bool) -> ReceiveBooks {
    let (tx_view, id, views) = scene(protocol, receivers);
    for i in 0..K {
        tx_view.message_send(id, &payload(i)).expect("send");
    }
    let mut payloads = Vec::new();
    for v in &views {
        payloads.push(if batched {
            v.recv_batch(id, K).expect("recv_batch")
        } else {
            let mut buf = [0u8; 64];
            (0..K)
                .map(|_| {
                    let n = v.message_receive(id, &mut buf).expect("message_receive");
                    buf[..n].to_vec()
                })
                .collect()
        });
    }
    let t = tx_view.lnvc_telemetry(id).expect("telemetry");
    tx_view.check_invariants().expect("invariants");
    ReceiveBooks {
        payloads,
        counters: (t.receives, t.bytes_out, t.reclaims, t.latency.count),
        free_blocks: tx_view.free_blocks(),
        queue_depth: tx_view.queue_depth(id).expect("depth"),
        records: views
            .iter()
            .map(|v| records(v, &[TR_RECV, TR_RECV_B, TR_RECLAIM]))
            .collect(),
    }
}

#[test]
fn fcfs_one_at_a_time_and_one_batch_leave_the_same_books() {
    let single = receive_run(Protocol::Fcfs, 1, false);
    assert_eq!(single, receive_run(Protocol::Fcfs, 1, true));
    let bytes: u64 = (0..K).map(|i| payload(i).len() as u64).sum();
    assert_eq!(single.counters, (K as u64, bytes, K as u64, K as u64));
    assert_eq!((single.free_blocks, single.queue_depth), (64, 0));
    assert_eq!(single.records[0].len(), 2 * K, "a recv and a reclaim each");
}

#[test]
fn broadcast_one_at_a_time_and_one_batch_leave_the_same_books() {
    let single = receive_run(Protocol::Broadcast, 2, false);
    assert_eq!(single, receive_run(Protocol::Broadcast, 2, true));
    let bytes: u64 = (0..K).map(|i| payload(i).len() as u64).sum();
    assert_eq!(
        single.counters,
        (2 * K as u64, 2 * bytes, K as u64, 2 * K as u64)
    );
    assert_eq!((single.free_blocks, single.queue_depth), (64, 0));
    // The first receiver only delivers; the last one also reclaims.
    assert_eq!(single.records[0].len(), K);
    assert_eq!(single.records[1].len(), 2 * K);
}

/// What `k` sends leave behind on a region of `blocks` blocks, sent one
/// call each or as one `send_batch`; sends the pool has no room for are
/// refused the same way either way.
fn send_run(batched: bool, k: usize, blocks: u32) -> (usize, impl PartialEq + std::fmt::Debug) {
    let cfg = MpfConfig::new(4, 4)
        .with_block_payload(16)
        .with_total_blocks(blocks)
        .with_max_messages(64);
    let tx_view = IpcMpf::anon(&cfg).expect("region");
    let rx_views = [(); 2].map(|()| tx_view.attach_view().expect("view"));
    for v in &rx_views {
        v.open_receive("q", Protocol::Broadcast)
            .expect("open_receive");
    }
    let id = tx_view.open_send("q").expect("open_send");
    let payloads: Vec<Vec<u8>> = (0..k).map(|i| payload(i % K)).collect();
    let sent = if batched {
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let done = tx_view.send_batch(id, &refs).expect("send_batch");
        assert!(done.iter().all(|c| c.ok()));
        done.len()
    } else {
        let sends = payloads.iter().map(|p| tx_view.message_send(id, p));
        sends.take_while(Result::is_ok).count()
    };
    let t = tx_view.lnvc_telemetry(id).expect("telemetry");
    let sends = records(&tx_view, &[TR_SEND]);
    // Every record carries the obligations fixed at send time: no
    // FCFS delivery, two BROADCAST ones.
    assert!(
        sends.len() == sent && sends.iter().all(|r| r.6 == 2),
        "{sends:?}"
    );
    tx_view.check_invariants().expect("invariants");
    let got = rx_views[1].recv_batch(id, k).expect("recv_batch");
    assert_eq!(got, payloads[..sent], "FIFO either way");
    let counters = (t.sends, t.bytes_in, t.sizes.count, t.sizes.sum, t.depth_hwm);
    (sent, (counters, tx_view.free_blocks(), sends))
}

#[test]
fn k_sends_and_one_send_batch_leave_the_same_books() {
    for k in [K, 64] {
        assert_eq!(send_run(false, k, 256), send_run(true, k, 256), "{k} sends");
    }
    // A pool too small for the run: the batch falls back to staging
    // message by message and stops where the single sends are refused.
    let short = send_run(true, 64, 100);
    assert_eq!(send_run(false, 64, 100), short);
    assert!((1..64).contains(&short.0), "staged {} of 64", short.0);
}

/// Two FCFS receivers take turns while a BROADCAST receiver has read
/// nothing, so everything taken stays queued: each turn's scan must skip
/// what both have already taken and resume, not stop, behind its own
/// deliveries.  Turn by turn, a batch of `n` and `n` single receives leave
/// the same books.
#[test]
fn batches_over_taken_but_pending_messages_leave_the_same_books() {
    const TURNS: [usize; 6] = [2, 1, 3, 2, 1, 3];
    let run = |batched: bool| {
        let (tx_view, id, takers) = scene(Protocol::Fcfs, 2);
        let reader = tx_view.attach_view().expect("view");
        reader
            .open_receive("q", Protocol::Broadcast)
            .expect("open_receive");
        let total: usize = TURNS.iter().sum();
        for i in 0..total {
            tx_view.message_send(id, &payload(i % K)).expect("send");
        }
        let mut taken = Vec::new();
        for (turn, &n) in TURNS.iter().enumerate() {
            let v = &takers[turn % 2];
            if batched {
                taken.extend(v.recv_batch(id, n).expect("recv_batch"));
            } else {
                let mut buf = [0u8; 64];
                for _ in 0..n {
                    let len = v.message_receive(id, &mut buf).expect("message_receive");
                    taken.push(buf[..len].to_vec());
                }
            }
            assert_eq!(
                tx_view.queue_depth(id),
                Ok(total as u32),
                "all still pending"
            );
            tx_view.check_invariants().expect("invariants");
        }
        let expect: Vec<Vec<u8>> = (0..total).map(|i| payload(i % K)).collect();
        assert_eq!(taken, expect, "FIFO across the turns");
        // The BROADCAST reader's one batch delivers and reclaims the lot.
        assert_eq!(reader.recv_batch(id, total).expect("drain"), expect);
        let t = tx_view.lnvc_telemetry(id).expect("telemetry");
        tx_view.check_invariants().expect("invariants");
        let views = [&takers[0], &takers[1], &reader];
        (
            (t.receives, t.bytes_out, t.reclaims),
            (tx_view.free_blocks(), tx_view.queue_depth(id)),
            views.map(|v| records(v, &[TR_RECV, TR_RECV_B, TR_RECLAIM])),
        )
    };
    let single = run(false);
    assert_eq!(single, run(true));
    assert_eq!(single.0 .2, 12, "every message reclaimed once");
    assert_eq!(single.2[2].len(), 24, "the reader's recv and reclaim each");
}
