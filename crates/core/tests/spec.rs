//! The §3 spec on its own, asked what the simulator asks it: who gets
//! which message, and what a receive reclaims.

use mpf::spec::Spec;
use mpf::{MpfError, Protocol};

/// Conversation 0 with sender 9, the given receivers, and messages 1..=n.
fn conversation(receivers: &[(u32, Protocol)], n: u64) -> Spec {
    let mut spec = Spec::default();
    spec.open_send(0, 9).unwrap();
    for &(pid, protocol) in receivers {
        spec.open_receive(0, pid, protocol).unwrap();
    }
    for id in 1..=n {
        spec.send(0, 9, id).unwrap();
    }
    spec
}

/// Receives as `pid` until nothing is owed; returns what it got.
fn drain(spec: &mut Spec, pid: u32) -> Vec<u64> {
    let mut got = Vec::new();
    while let Some((id, protocol)) = spec.next_for(0, pid).unwrap() {
        assert_eq!(spec.deliver(0, pid, id, protocol), None);
        got.push(id);
    }
    got
}

#[test]
fn fcfs_exactly_once_in_order() {
    let mut spec = conversation(&[(1, Protocol::Fcfs), (2, Protocol::Fcfs)], 2);
    assert_eq!(drain(&mut spec, 1), [1, 2]);
    assert_eq!(spec.next_for(0, 2), Ok(None), "taken once, by one receiver");
    assert_eq!(spec.reclaim_delivered(0), 2);
    assert_eq!(spec.send(0, 1, 3), Err(MpfError::NotConnected));
}

#[test]
fn broadcast_everyone_sees_everything_and_the_slowest_pins_it() {
    let mut spec = conversation(&[(1, Protocol::Broadcast), (2, Protocol::Broadcast)], 3);
    assert_eq!(drain(&mut spec, 1), [1, 2, 3]);
    assert_eq!(spec.reclaim_delivered(0), 0, "receiver 2 pins everything");
    assert_eq!(spec.deliver(0, 2, 1, Protocol::Broadcast), None);
    assert_eq!(spec.reclaim_delivered(0), 1);
    // Leaving releases the claims, and the last one out deletes it all.
    spec.close_receive(0, 2).unwrap();
    assert_eq!(spec.reclaim_delivered(0), 2);
    spec.close_receive(0, 1).unwrap();
    spec.close_send(0, 9).unwrap();
    assert_eq!(spec.obligations(0), None, "deleted");
}

#[test]
fn late_broadcast_receiver_starts_at_tail() {
    let mut spec = conversation(&[(1, Protocol::Broadcast)], 1);
    spec.open_receive(0, 2, Protocol::Broadcast).unwrap();
    assert_eq!(spec.next_for(0, 2), Ok(None));
    spec.send(0, 9, 2).unwrap();
    assert_eq!(drain(&mut spec, 2), [2]);
    assert_eq!(drain(&mut spec, 1), [1, 2]);
}
