//! One-to-one is a state of a conversation: while it has one sender and
//! one FCFS receiver, a send pushes into its ring and a receive takes from
//! it, and neither takes the conversation lock.  The first open that
//! breaks the shape moves the ring onto the locked queue, and delivery
//! stays in send order across the change.

use std::cell::RefCell;
use std::panic::AssertUnwindSafe;
use std::rc::Rc;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use mpf::layout::{RegionLayout, LNVC_DESC_BYTES};
use mpf::{IpcMpf, LnvcId, MpfConfig, MpfError, Protocol};
use mpf_shm::hooks::{self, SyncEvent, SyncHook};
use mpf_shm::tracering::TR_SEND;

/// Records the resource of every lock acquisition on this thread.
#[derive(Default)]
struct Acquires(RefCell<Vec<usize>>);

impl SyncHook for Acquires {
    fn yield_point(&self, _: SyncEvent) {}
    fn lock_acquire(&self, resource: usize, try_lock: &mut dyn FnMut() -> bool) {
        self.0.borrow_mut().push(resource);
        while !try_lock() {}
    }
    fn lock_release(&self, _: usize) {}
    fn wait(&self, _: usize, ready: &mut dyn FnMut() -> bool) {
        while !ready() {}
    }
    fn notify(&self, _: usize) {}
}

/// Runs `f` with an [`Acquires`] hook installed and returns how many times
/// it took the lock of conversation `id` (an anonymous region registers no
/// mapping, so the hook sees the lock's address).
fn conversation_locks(m: &IpcMpf, cfg: &MpfConfig, id: LnvcId, f: impl FnOnce()) -> usize {
    let lnvcs = RegionLayout::for_config(cfg)
        .segment("lnvc descriptors")
        .unwrap()
        .offset;
    let lock = m.base_addr() + lnvcs + id.index() as usize * LNVC_DESC_BYTES;
    let acquires = Rc::new(Acquires::default());
    {
        let _hook = hooks::install(acquires.clone());
        f();
    }
    let taken = acquires.0.borrow();
    taken.iter().filter(|&&r| r == lock).count()
}

#[test]
fn a_steady_one_to_one_round_takes_no_conversation_lock() {
    let cfg = MpfConfig::new(4, 2);
    let m = IpcMpf::anon(&cfg).unwrap();
    let tx = m.open_send("o2o").unwrap();
    let rx = m.open_receive("o2o", Protocol::Fcfs).unwrap();
    let mut buf = [0u8; 16];
    let locks = conversation_locks(&m, &cfg, tx, || {
        for i in 0..1000u32 {
            m.message_send(tx, &i.to_le_bytes()).unwrap();
            assert_eq!(m.message_receive(rx, &mut buf), Ok(4));
            assert_eq!(buf[..4], i.to_le_bytes());
        }
    });
    assert_eq!(locks, 0, "a one-to-one round took the conversation lock");
    m.check_invariants().unwrap();
}

#[test]
fn a_second_sender_moves_the_ring_onto_the_queue_in_send_order() {
    let cfg = MpfConfig::new(4, 2);
    let m = IpcMpf::anon(&cfg).unwrap();
    let other = m.attach_view().unwrap();
    let tx = m.open_send("o2o").unwrap();
    let rx = m.open_receive("o2o", Protocol::Fcfs).unwrap();
    // Five messages wait in the ring when the second sender joins.
    for i in 0..5u32 {
        m.message_send(tx, &i.to_le_bytes()).unwrap();
    }
    assert_eq!(m.queue_depth(rx), Ok(5));
    let tx2 = other.open_send("o2o").unwrap();
    m.check_invariants().unwrap();
    let mut buf = [0u8; 16];
    let locks = conversation_locks(&m, &cfg, tx, || {
        for i in 5..15u32 {
            let from = if i % 2 == 0 { (&m, tx) } else { (&other, tx2) };
            from.0.message_send(from.1, &i.to_le_bytes()).unwrap();
        }
        for i in 0..15u32 {
            assert_eq!(m.message_receive(rx, &mut buf), Ok(4));
            assert_eq!(buf[..4], i.to_le_bytes(), "send order across the change");
        }
    });
    assert!(locks >= 25, "two senders take the lock again: {locks}");
    m.check_invariants().unwrap();
    // The second sender gone, the drained conversation is one-to-one again.
    other.close_send(tx2).unwrap();
    m.message_send(tx, b"again").unwrap();
    let locks = conversation_locks(&m, &cfg, tx, || {
        m.message_send(tx, b"and again").unwrap();
        assert_eq!(m.message_receive(rx, &mut buf), Ok(5));
        assert_eq!(m.message_receive(rx, &mut buf), Ok(9));
    });
    assert_eq!(locks, 0);
    m.check_invariants().unwrap();
}

/// A send by a process with no send connection — here another view on
/// the send end's owner thread — is refused before the push announces
/// itself or takes stamps, so it never touches the owner's in-flight
/// word: the owner's sends around it take consecutive stamps.
#[test]
fn a_send_without_a_connection_stays_out_of_the_owners_push() {
    let cfg = MpfConfig::new(4, 2);
    let m = IpcMpf::anon(&cfg).unwrap();
    let stranger = m.attach_view().unwrap();
    let tx = m.open_send("o2o").unwrap();
    let rx = m.open_receive("o2o", Protocol::Fcfs).unwrap();
    m.message_send(tx, b"a").unwrap();
    assert_eq!(stranger.message_send(tx, b"x"), Err(MpfError::NotConnected));
    m.message_send(tx, b"b").unwrap();
    let events = m.trace_events(m.pid());
    let stamps: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == TR_SEND)
        .map(|e| e.stamp)
        .collect();
    assert_eq!(stamps.len(), 2);
    assert_eq!(stamps[1], stamps[0] + 1, "the refused send took a stamp");
    let mut buf = [0u8; 4];
    assert_eq!(m.message_receive(rx, &mut buf), Ok(1));
    assert_eq!(m.message_receive(rx, &mut buf), Ok(1));
    assert_eq!(buf[0], b'b');
    m.check_invariants().unwrap();
}

/// Dies (panics) at the decision point inside a ring push, after the
/// pusher announced itself in the ring's in-flight word.
struct DieMidPush;

impl SyncHook for DieMidPush {
    fn yield_point(&self, event: SyncEvent) {
        if matches!(event, SyncEvent::StackPush(_)) {
            panic!("killed mid-push");
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

/// A sender killed mid-push leaves its pid in the ring's in-flight word.
/// Once its slot has a new owner and its conversation's slot a new
/// conversation, a receiver that blocks before the first send, and the
/// new owner that opens and sends, must not wait on that word.
#[test]
fn a_pusher_killed_mid_push_holds_up_no_later_tenant_of_its_pid_or_ring() {
    let cfg = MpfConfig::new(4, 2);
    let m = Arc::new(IpcMpf::anon(&cfg).unwrap());
    let rx = m.open_receive("a", Protocol::Fcfs).unwrap();
    let corpse = m.attach_view().unwrap();
    let tx = corpse.open_send("a").unwrap();
    let killed = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let _hook = hooks::install(Rc::new(DieMidPush));
        corpse.message_send(tx, b"lost")
    }));
    assert!(killed.is_err());
    corpse.debug_abandon_slot();
    // A dead process runs no destructor.
    let corpse_pid = corpse.pid();
    std::mem::forget(corpse);
    assert_eq!(m.sweep_dead_peers(), 1);
    let _ = m.close_receive(rx);
    assert_eq!(m.live_lnvcs(), 0);
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let heir = m.attach_view().unwrap();
        assert_eq!(heir.pid(), corpse_pid, "the corpse's slot is reused");
        let rx = m.open_receive("b", Protocol::Fcfs).unwrap();
        assert_eq!(rx.index(), tx.index(), "the conversation's slot is reused");
        let receiver = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                let mut buf = [0u8; 16];
                m.message_receive(rx, &mut buf).map(|n| buf[..n].to_vec())
            })
        };
        // The receive books its wait once it has armed, just before it sleeps.
        while m.lnvc_telemetry(rx).unwrap().recv_waits == 0 {
            std::thread::yield_now();
        }
        let tx = heir.open_send("b").unwrap();
        heir.message_send(tx, b"first").unwrap();
        done.send(receiver.join().unwrap()).unwrap();
    });
    let got = finished.recv_timeout(Duration::from_secs(20));
    let hung = matches!(got, Err(mpsc::RecvTimeoutError::Timeout));
    assert!(!hung, "a later tenant waited on the dead pusher's word");
    worker.join().unwrap();
    let got = got.unwrap();
    assert_eq!(got.as_deref(), Ok(&b"first"[..]));
}
