//! A single operation is a batch of one: receiving (sending) K messages
//! one call each and receiving (sending) them in one batched call run the
//! same engine routine, so they must leave the same books — telemetry,
//! pools, queue, and, message by message, the same trace records.

use mpf::engine::{IpcLnvcId, IpcMpf};
use mpf::{MpfConfig, Protocol};
use mpf_shm::tracering::{TraceEvent, TR_RECLAIM, TR_RECV, TR_RECV_B, TR_SEND};

const K: usize = 6;

/// A fresh region with a sender (the creator) and `receivers` receiving
/// views of protocol `protocol` on one conversation.
fn scene(protocol: Protocol, receivers: usize) -> (IpcMpf, IpcLnvcId, Vec<IpcMpf>) {
    let cfg = MpfConfig::new(4, 4)
        .with_block_payload(16)
        .with_total_blocks(64)
        .with_max_messages(16);
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

#[test]
fn k_sends_and_one_send_batch_leave_the_same_books() {
    let run = |batched: bool| {
        let (tx_view, id, views) = scene(Protocol::Broadcast, 2);
        let payloads: Vec<Vec<u8>> = (0..K).map(payload).collect();
        if batched {
            let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
            let done = tx_view.send_batch(id, &refs).expect("send_batch");
            assert!(done.len() == K && done.iter().all(|c| c.ok()));
        } else {
            for p in &payloads {
                tx_view.message_send(id, p).expect("send");
            }
        }
        let t = tx_view.lnvc_telemetry(id).expect("telemetry");
        let sends = records(&tx_view, &[TR_SEND]);
        // Every record carries the obligations fixed at send time: no
        // FCFS delivery, two BROADCAST ones.
        assert!(
            sends.len() == K && sends.iter().all(|r| r.6 == 2),
            "{sends:?}"
        );
        let got = views[1].recv_batch(id, K).expect("recv_batch");
        assert_eq!(got, payloads, "FIFO either way");
        (
            (t.sends, t.bytes_in, t.sizes.count, t.sizes.sum, t.depth_hwm),
            tx_view.free_blocks(),
            sends,
        )
    };
    assert_eq!(run(false), run(true));
}
