//! Regression tests for the *specific behaviours the paper calls out in
//! prose* — each test cites its sentence.

use mpf::{LnvcId, Mpf, MpfConfig, ProcessId, Protocol};

fn p(i: usize) -> ProcessId {
    ProcessId::from_index(i)
}

fn facility() -> Mpf {
    Mpf::init(MpfConfig::new(8, 8)).expect("init")
}

/// A blocking receive into a fresh `Vec`: a batch of one.
fn recv_vec(mpf: &Mpf, pid: ProcessId, id: LnvcId) -> Vec<u8> {
    mpf.recv_batch(pid, id, 1).unwrap().remove(0)
}

/// §3.2: "a sending process might want to open a send connection on an
/// LNVC, send some messages, and then close the connection.  However, if
/// none of the processes intending to receive these messages have
/// established a receiver connection before the closing of the sender
/// connection, the messages could be lost when the LNVC is removed."
#[test]
fn sender_close_before_any_receiver_loses_the_messages() {
    let mpf = facility();
    let tx = mpf.open_send(p(0), "fire-and-forget").unwrap();
    mpf.message_send(p(0), tx, b"gone").unwrap();
    mpf.close_send(p(0), tx).unwrap(); // last connection: LNVC removed

    // A receiver connecting afterwards creates a *fresh* conversation.
    let rx = mpf
        .open_receive(p(1), "fire-and-forget", Protocol::Fcfs)
        .unwrap();
    assert!(
        !mpf.check_receive(p(1), rx).unwrap(),
        "message was discarded"
    );
}

/// §3.2, the same sentence's flip side: a receiver connected *before* the
/// sender closes preserves the stream.
#[test]
fn receiver_connected_before_close_preserves_the_messages() {
    let mpf = facility();
    let tx = mpf.open_send(p(0), "kept").unwrap();
    mpf.message_send(p(0), tx, b"survives").unwrap();
    let rx = mpf.open_receive(p(1), "kept", Protocol::Fcfs).unwrap();
    mpf.close_send(p(0), tx).unwrap(); // receiver keeps the LNVC alive
    assert_eq!(recv_vec(&mpf, p(1), rx), b"survives");
}

/// §2: "Although check_receive() may indicate that a message is present,
/// another process with a FCFS receive connection for lnvc_id may acquire
/// the message before the checking process can receive the message."
#[test]
fn check_receive_is_advisory_for_fcfs() {
    let mpf = facility();
    let tx = mpf.open_send(p(0), "race").unwrap();
    let r1 = mpf.open_receive(p(1), "race", Protocol::Fcfs).unwrap();
    let r2 = mpf.open_receive(p(2), "race", Protocol::Fcfs).unwrap();
    mpf.message_send(p(0), tx, b"only one").unwrap();

    assert!(mpf.check_receive(p(1), r1).unwrap(), "message is present…");
    // …but the other FCFS receiver takes it first.
    assert_eq!(recv_vec(&mpf, p(2), r2), b"only one");
    let mut buf = [0u8; 16];
    assert_eq!(
        mpf.view(p(1))
            .unwrap()
            .try_message_receive(r1, &mut buf)
            .unwrap(),
        None,
        "the checked message is gone — exactly the documented race"
    );
}

/// §2: "If the receive connection is BROADCAST, the message is guaranteed
/// to be present when a message_receive() is executed."
#[test]
fn check_receive_is_a_guarantee_for_broadcast() {
    let mpf = facility();
    let tx = mpf.open_send(p(0), "firm").unwrap();
    let r1 = mpf.open_receive(p(1), "firm", Protocol::Broadcast).unwrap();
    let r2 = mpf.open_receive(p(2), "firm", Protocol::Broadcast).unwrap();
    mpf.message_send(p(0), tx, b"for all").unwrap();

    assert!(mpf.check_receive(p(1), r1).unwrap());
    // Another broadcast receiver consuming does not invalidate the check.
    assert_eq!(recv_vec(&mpf, p(2), r2), b"for all");
    assert_eq!(recv_vec(&mpf, p(1), r1), b"for all");
}

/// §3.1: "A time-ordered message stream will be seen by all BROADCAST
/// receiving processes.  In contrast, a FCFS receiving process will see
/// only a part of the message stream.  However, the sequence preserving
/// LNVC forces a time-ordering of this sub-stream as well."
#[test]
fn broadcast_total_order_and_fcfs_suborder_coexist() {
    let mpf = facility();
    let tx = mpf.open_send(p(0), "order").unwrap();
    let bc = mpf
        .open_receive(p(1), "order", Protocol::Broadcast)
        .unwrap();
    let f1 = mpf.open_receive(p(2), "order", Protocol::Fcfs).unwrap();
    let f2 = mpf.open_receive(p(3), "order", Protocol::Fcfs).unwrap();
    for i in 0..10u8 {
        mpf.message_send(p(0), tx, &[i]).unwrap();
    }
    // Broadcast receiver: the full stream, in order.
    for i in 0..10u8 {
        assert_eq!(recv_vec(&mpf, p(1), bc), vec![i]);
    }
    // FCFS receivers alternating arbitrarily: each sub-stream ascends.
    let mut last1 = -1i16;
    let mut last2 = -1i16;
    for turn in 0..10 {
        if turn % 3 == 0 {
            let v = recv_vec(&mpf, p(3), f2)[0] as i16;
            assert!(v > last2);
            last2 = v;
        } else {
            let v = recv_vec(&mpf, p(2), f1)[0] as i16;
            assert!(v > last1);
            last1 = v;
        }
    }
}

/// §2: "If this is the last process connected to lnvc_id, the LNVC is
/// deleted and all unread messages are discarded" — including via
/// close_receive.
#[test]
fn last_receiver_close_discards_queue() {
    let mpf = facility();
    let tx = mpf.open_send(p(0), "ephemeral").unwrap();
    let rx = mpf.open_receive(p(1), "ephemeral", Protocol::Fcfs).unwrap();
    mpf.message_send(p(0), tx, &[0u8; 200]).unwrap();
    mpf.close_send(p(0), tx).unwrap();
    let free_before = mpf.free_blocks();
    mpf.close_receive(p(1), rx).unwrap(); // last connection
    assert!(mpf.free_blocks() > free_before, "queue was discarded");
    assert_eq!(mpf.live_lnvcs(), 0);
}

/// §2: "Message sending is asynchronous, allowing a process to proceed
/// before the message reaches its destination(s)."
#[test]
fn send_does_not_wait_for_a_receiver() {
    let mpf = facility();
    let tx = mpf.open_send(p(0), "async").unwrap();
    let _rx = mpf.open_receive(p(1), "async", Protocol::Fcfs).unwrap();
    // If send required a rendezvous this would deadlock single-threaded.
    for i in 0..50u8 {
        mpf.message_send(p(0), tx, &[i]).unwrap();
    }
    assert!(mpf.check_receive(p(1), _rx).unwrap());
}

/// Delivery-rule corollary (DESIGN.md): a message sent while *only*
/// broadcast receivers are connected owes no FCFS delivery — an FCFS
/// receiver joining later never sees it.  (This bit a first draft of the
/// request/reply example: clients raced ahead of the servers and their
/// requests went to the auditor alone.)
#[test]
fn broadcast_only_messages_are_not_kept_for_late_fcfs_receivers() {
    let mpf = facility();
    let tx = mpf.open_send(p(0), "aud").unwrap();
    let bc = mpf.open_receive(p(1), "aud", Protocol::Broadcast).unwrap();
    mpf.message_send(p(0), tx, b"spoken to the room").unwrap();
    // A worker joins late…
    let late = mpf.open_receive(p(2), "aud", Protocol::Fcfs).unwrap();
    assert!(
        !mpf.check_receive(p(2), late).unwrap(),
        "the broadcast-only message is not owed to the late FCFS receiver"
    );
    // …while the broadcast receiver still gets it.
    assert_eq!(recv_vec(&mpf, p(1), bc), b"spoken to the room");
    // Messages sent from now on (with an FCFS receiver connected) are owed.
    mpf.message_send(p(0), tx, b"task").unwrap();
    assert_eq!(recv_vec(&mpf, p(2), late), b"task");
}

/// Footnote 2: "An LNVC exists only if the set of senders or receivers is
/// not null" — i.e. a receiver alone also keeps it alive, and creates it.
#[test]
fn receiver_alone_creates_and_sustains_the_conversation() {
    let mpf = facility();
    let rx = mpf
        .open_receive(p(1), "listen-first", Protocol::Broadcast)
        .unwrap();
    assert_eq!(mpf.live_lnvcs(), 1);
    let tx = mpf.open_send(p(0), "listen-first").unwrap();
    assert_eq!(tx, rx, "joined the existing conversation");
    mpf.close_receive(p(1), rx).unwrap();
    assert_eq!(mpf.live_lnvcs(), 1, "sender still holds it");
    mpf.close_send(p(0), tx).unwrap();
    assert_eq!(mpf.live_lnvcs(), 0);
}
