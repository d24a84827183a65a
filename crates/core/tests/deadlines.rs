//! Deadline-bounded blocking on an `Mpf`'s views (`send_batch_deadline`
//! also through `Mpf`, which spells it): every `*_deadline` entry point
//! must (a) fail with `MpfError::TimedOut` once the clock
//! passes with nothing consumed or enqueued, and (b) let real traffic
//! racing the expiry win — a message that arrived is delivered, never
//! timed out.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mpf::{Mpf, MpfConfig, MpfError, ProcessId, Protocol};

fn p(i: usize) -> ProcessId {
    ProcessId::from_index(i)
}

fn facility() -> Mpf {
    Mpf::init(
        MpfConfig::new(4, 8)
            .with_block_payload(64)
            .with_total_blocks(4)
            .with_max_messages(4),
    )
    .unwrap()
}

#[test]
fn recv_deadline_times_out_on_empty_queue() {
    let m = facility();
    let _tx = m.open_send(p(0), "quiet").unwrap();
    let rx = m.open_receive(p(0), "quiet", Protocol::Fcfs).unwrap();
    let mut buf = [0u8; 8];
    let start = Instant::now();
    let err = m
        .view(p(0))
        .unwrap()
        .recv_deadline(rx, &mut buf, Some(start + Duration::from_millis(50)))
        .unwrap_err();
    assert_eq!(err, MpfError::TimedOut);
    assert!(start.elapsed() >= Duration::from_millis(50));
}

#[test]
fn recv_deadline_delivers_a_queued_message_despite_expiry() {
    // The deadline is already past when we call, but the message is
    // already deliverable: the contract says delivery wins.
    let m = facility();
    let tx = m.open_send(p(0), "race").unwrap();
    let rx = m.open_receive(p(1), "race", Protocol::Fcfs).unwrap();
    m.message_send(p(0), tx, b"beat-it").unwrap();
    let mut buf = [0u8; 16];
    let n = m
        .view(p(1))
        .unwrap()
        .recv_deadline(rx, &mut buf, Some(Instant::now()))
        .unwrap();
    assert_eq!(&buf[..n], b"beat-it");
}

#[test]
fn recv_deadline_wakes_on_cross_thread_send() {
    let m = Arc::new(facility());
    let tx = m.open_send(p(0), "wake").unwrap();
    let rx = m.open_receive(p(1), "wake", Protocol::Fcfs).unwrap();
    let sender = {
        let m = Arc::clone(&m);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            m.message_send(p(0), tx, b"late but real").unwrap();
        })
    };
    let mut buf = [0u8; 32];
    let n = m
        .view(p(1))
        .unwrap()
        .recv_deadline(rx, &mut buf, Some(Instant::now() + Duration::from_secs(30)))
        .unwrap();
    assert_eq!(&buf[..n], b"late but real");
    sender.join().unwrap();
}

#[test]
fn send_deadline_times_out_under_exhaustion_with_nothing_enqueued() {
    // Fill the 4-block pool, then a deadline-bounded send must give up instead of parking forever —
    // and must leave no partial allocation behind.
    let m = facility();
    let tx = m.open_send(p(0), "full").unwrap();
    let rx = m.open_receive(p(1), "full", Protocol::Fcfs).unwrap();
    for i in 0..4 {
        m.message_send(p(0), tx, &[i; 64]).unwrap();
    }
    let start = Instant::now();
    let err = m
        .view(p(0))
        .unwrap()
        .send_deadline(tx, &[9; 64], Some(start + Duration::from_millis(60)))
        .unwrap_err();
    assert_eq!(err, MpfError::TimedOut);
    assert!(start.elapsed() >= Duration::from_millis(60));

    // Exactly the four pre-expiry messages drain out; the timed-out
    // send contributed nothing.
    let mut buf = [0u8; 64];
    for i in 0..4 {
        let n = m.message_receive(p(1), rx, &mut buf).unwrap();
        assert_eq!(&buf[..n], &[i; 64][..]);
    }
    assert!(!m.check_receive(p(1), rx).unwrap());

    // With capacity back, the same send now fits before its deadline.
    m.view(p(0))
        .unwrap()
        .send_deadline(tx, &[9; 64], Some(Instant::now() + Duration::from_secs(30)))
        .unwrap();
    let n = m.message_receive(p(1), rx, &mut buf).unwrap();
    assert_eq!(&buf[..n], &[9; 64][..]);
}

#[test]
fn wait_any_deadline_times_out_then_reports_the_ready_member() {
    let m = facility();
    let t1 = m.open_send(p(0), "a").unwrap();
    let r1 = m.open_receive(p(1), "a", Protocol::Fcfs).unwrap();
    let _t2 = m.open_send(p(0), "b").unwrap();
    let r2 = m.open_receive(p(1), "b", Protocol::Fcfs).unwrap();

    assert_eq!(
        m.view(p(1))
            .unwrap()
            .wait_any_deadline(&[], Some(Instant::now()))
            .unwrap_err(),
        MpfError::EmptyWaitSet
    );
    let err = m
        .view(p(1))
        .unwrap()
        .wait_any_deadline(&[r1, r2], Some(Instant::now() + Duration::from_millis(50)))
        .unwrap_err();
    assert_eq!(err, MpfError::TimedOut);

    m.message_send(p(0), t1, b"here").unwrap();
    let ready = m
        .view(p(1))
        .unwrap()
        .wait_any_deadline(&[r1, r2], Some(Instant::now() + Duration::from_secs(30)))
        .unwrap();
    assert_eq!(ready, r1);
}

#[test]
fn recv_batch_deadline_times_out_then_drains() {
    let m = facility();
    let tx = m.open_send(p(0), "batch").unwrap();
    let rx = m.open_receive(p(1), "batch", Protocol::Fcfs).unwrap();
    let err = m
        .view(p(1))
        .unwrap()
        .recv_batch_deadline(rx, 8, Some(Instant::now() + Duration::from_millis(50)))
        .unwrap_err();
    assert_eq!(err, MpfError::TimedOut);

    for i in 0..3u8 {
        m.message_send(p(0), tx, &[i; 4]).unwrap();
    }
    let got = m
        .view(p(1))
        .unwrap()
        .recv_batch_deadline(rx, 8, Some(Instant::now() + Duration::from_secs(30)))
        .unwrap();
    assert_eq!(got, vec![vec![0; 4], vec![1; 4], vec![2; 4]]);
}

#[test]
fn send_batch_deadline_times_out_when_nothing_stages() {
    let m = facility();
    let tx = m.open_send(p(0), "bfull").unwrap();
    let _rx = m.open_receive(p(1), "bfull", Protocol::Fcfs).unwrap();
    for i in 0..4 {
        m.message_send(p(0), tx, &[i; 64]).unwrap();
    }
    let err = m
        .send_batch_deadline(
            p(0),
            tx,
            &[&[7; 64], &[8; 64]],
            Some(Instant::now() + Duration::from_millis(60)),
        )
        .unwrap_err();
    assert_eq!(err, MpfError::TimedOut);
}
