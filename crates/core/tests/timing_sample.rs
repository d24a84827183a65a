//! A message is timed only when the latency sample picks it: one in every
//! `latency_sample_every` (32 by default) of a conversation's messages,
//! by its sequence number.  A send or receive that handles a timed message
//! reads the clock once and dates every per-chain record it writes; any
//! other call reads nothing and writes its records undated (`tstamp` 0).
//! Markers stay dated.

use mpf::engine::IpcMpf;
use mpf::{LnvcId, MpfConfig, Protocol};
use mpf_shm::tracering::{TraceEvent, TR_RECLAIM, TR_RECV, TR_SEND};

fn cfg() -> MpfConfig {
    MpfConfig::new(4, 4)
        .with_block_payload(16)
        .with_total_blocks(64)
        .with_max_messages(16)
}

/// A fresh region: the creator sends on `q`, a second view receives FCFS.
fn pair(cfg: &MpfConfig) -> (IpcMpf, IpcMpf, LnvcId) {
    let tx = IpcMpf::anon(cfg).expect("region");
    let rx = tx.attach_view().expect("view");
    rx.open_receive("q", Protocol::Fcfs).expect("open_receive");
    let id = tx.open_send("q").expect("open_send");
    (tx, rx, id)
}

/// `rounds` messages, each sent and then received.
fn round_trips(tx: &IpcMpf, rx: &IpcMpf, id: LnvcId, rounds: usize) {
    let mut buf = [0u8; 16];
    for i in 0..rounds {
        tx.message_send(id, &[i as u8; 16]).expect("send");
        assert_eq!(rx.message_receive(id, &mut buf), Ok(16));
    }
}

fn events(views: &[&IpcMpf]) -> Vec<TraceEvent> {
    views.iter().flat_map(|v| v.trace_events(v.pid())).collect()
}

/// Per message of conversation `id`, in sequence order: the dates of its
/// `TR_SEND`, `TR_RECV` and `TR_RECLAIM` records.
fn dates(views: &[&IpcMpf], id: LnvcId) -> Vec<[u64; 3]> {
    let all = events(views);
    let mut sends: Vec<_> = all
        .iter()
        .filter(|e| e.kind == TR_SEND && e.lnvc == id.index())
        .collect();
    sends.sort_by_key(|e| e.stamp);
    let date = |kind, stamp| {
        let mut of = all.iter().filter(|e| e.kind == kind && e.stamp == stamp);
        of.next().expect("recorded").tstamp
    };
    let row = |s: &&TraceEvent| [s.tstamp, date(TR_RECV, s.stamp), date(TR_RECLAIM, s.stamp)];
    sends.iter().map(row).collect()
}

/// The rule on `rounds` round trips: seqs that are multiples of `every`
/// dated at send, receive and reclaim, the rest not at all.
fn assert_timed_every(dates: &[[u64; 3]], every: usize) {
    for (seq, d) in dates.iter().enumerate() {
        if seq % every == 0 {
            assert!(d.iter().all(|&t| t != 0), "seq {seq} is timed: {d:?}");
        } else {
            assert_eq!(d, &[0; 3], "seq {seq} is not timed");
        }
    }
}

#[test]
fn by_default_one_message_in_32_is_dated_and_sampled() {
    assert_eq!(cfg().latency_sample_every, 32);
    let (tx, rx, id) = pair(&cfg());
    round_trips(&tx, &rx, id, 100);
    let d = dates(&[&tx, &rx], id);
    assert_eq!(d.len(), 100);
    assert_timed_every(&d, 32);
    // Every per-chain record is one of those three; the markers (opens)
    // are off the message path and stay dated.
    let all = events(&[&tx, &rx]);
    assert_eq!(all.iter().filter(|e| e.trace != 0).count(), 300);
    assert!(all.iter().filter(|e| e.trace == 0).all(|e| e.tstamp != 0));
    let latency = tx.lnvc_telemetry(id).unwrap().latency;
    assert_eq!(latency.count, 4, "seq 0, 32, 64, 96");
}

/// `serve_call`'s shape: a request on one conversation, its reply on
/// another, alternating.  The sample is per conversation, so both are
/// timed; one region-wide counter would alias with the even period and
/// never time one of the two.
#[test]
fn alternating_conversations_are_each_sampled() {
    let (client, server) = {
        let c = IpcMpf::anon(&cfg()).expect("region");
        let s = c.attach_view().expect("view");
        (c, s)
    };
    let req = client.open_send("req").unwrap();
    server.open_receive("req", Protocol::Fcfs).unwrap();
    let rep = server.open_send("rep").unwrap();
    client.open_receive("rep", Protocol::Fcfs).unwrap();
    let mut buf = [0u8; 16];
    for i in 0..64u8 {
        client.message_send(req, &[i; 8]).unwrap();
        assert_eq!(server.message_receive(req, &mut buf), Ok(8));
        server.message_send(rep, &[i; 8]).unwrap();
        assert_eq!(client.message_receive(rep, &mut buf), Ok(8));
    }
    for id in [req, rep] {
        let latency = client.lnvc_telemetry(id).unwrap().latency;
        assert_eq!(latency.count, 2, "seq 0 and 32 of conversation {id:?}");
        assert_timed_every(&dates(&[&client, &server], id), 32);
    }
}

#[test]
fn period_one_dates_every_record_and_samples_every_message() {
    let (tx, rx, id) = pair(&cfg().latency_sample_rate(1));
    round_trips(&tx, &rx, id, 40);
    let d = dates(&[&tx, &rx], id);
    assert_eq!(d.len(), 40);
    assert_timed_every(&d, 1);
    assert!(events(&[&tx, &rx]).iter().all(|e| e.tstamp != 0));
    assert_eq!(tx.lnvc_telemetry(id).unwrap().latency.count, 40);
}

#[test]
#[should_panic(expected = "power of two")]
fn a_period_that_is_not_a_power_of_two_is_refused() {
    let _ = cfg().latency_sample_rate(3);
}

/// With telemetry off there is no latency sample, but a traced chain still
/// records: its timed messages are dated, the rest are not.
#[test]
fn timed_messages_are_dated_with_telemetry_off() {
    let (tx, rx, id) = pair(&cfg().with_telemetry(false));
    round_trips(&tx, &rx, id, 40);
    assert_timed_every(&dates(&[&tx, &rx], id), 32);
    assert_eq!(tx.telemetry_snapshot().latency_hist.count, 0);
}
