//! Schedule-exploration scenarios for the protocol engine, driven through
//! the in-process facade (`Mpf`: one view per `ProcessId` of an anonymous
//! region, `pid` passed per call; what the facade does not spell — the
//! send that waits for room, the try-forms — through `mpf.view(pid)`).
//!
//! Each scenario builds a fresh facility per schedule, races a small set of
//! logical processes through a known-racy path, and checks the final state
//! with [`Mpf::check_invariants`] plus scenario-specific conservation
//! assertions.  Failures print a replayable schedule id (a DFS choice list
//! or a PCT seed).
//!
//! The scheduler switches processes at hooks (lock acquire, wait, notify).
//! The words the engine writes with a plain load + store under the LNVC
//! lock have no hook between the two, so every interleaving explored here
//! sees each pair whole; what the scenarios race is lock holds, as before.
//!
//! Budgets are sized so that the suite explores well over a thousand
//! distinct schedules at the default `MPF_CHECK_SCHEDULE_SCALE=1`; the
//! nightly CI run raises the scale for a deeper sweep.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mpf::{Mpf, MpfConfig, ProcessId, Protocol};
use mpf_check::{explore_dfs, explore_random, Case, ExploreOpts};

mod common;

fn p(i: usize) -> ProcessId {
    ProcessId::from_index(i)
}

/// [`common::conforms`] on the region behind `mpf`.
fn conforms(mpf: &Mpf) -> Result<mpf_trace::Report, String> {
    common::conforms(mpf.view(p(0)).map_err(|e| e.to_string())?)
}

type Proc = Box<dyn FnOnce() + Send>;

/// The headline regression: a sender races the departure of the last FCFS
/// receiver while a BROADCAST receiver keeps the conversation alive.
///
/// Before the obligation re-evaluation fix in `close_receive`, any schedule
/// in which a send enqueued while the FCFS receiver was still connected and
/// the FCFS receiver then closed left the message permanently owed to a
/// receiver class with no members: the broadcast receiver read it, but it
/// could never be reclaimed, and the blocks stayed pinned until the
/// conversation died.  The invariant audit reports exactly that.  Recorded
/// against this tree with the `clear_fcfs_obligations` branch in
/// `close_receive` reverted:
///
/// ```text
/// mpf-check case 'fcfs-obligation-leak' failed on schedule 1 of 1:
///   final-state check failed: LNVC 'leak' (slot 0): message 0 (stamp 0)
///   awaits an FCFS delivery but no FCFS receiver is connected and
///   broadcast receivers keep the LNVC alive
///   schedule: Choices([0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
///                      0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0])
///   replay:   replay_choices(&opts, &[0, 0, ...], make)
/// mpf-check case 'fcfs-obligation-leak-pct' failed on schedule 2 of 2:
///   ... schedule: Seed(20974)   replay: replay_seed(&opts, 20974, make)
/// ```
///
/// The very first DFS schedule — the sender runs to completion, then the
/// FCFS close, then the broadcast reads — already exhibits the bug, and
/// PCT seed 20974 (base 0x51ED + 1) reproduces it independently.  With the
/// fix, the full DFS tree and the seeded sweep pass; these tests keep both
/// as regressions.
fn leak_case() -> Case {
    let cfg = MpfConfig::new(4, 4)
        .with_total_blocks(64)
        .with_block_payload(16)
        .with_max_messages(16);
    let total = cfg.total_blocks;
    let mpf = Arc::new(Mpf::init(cfg).expect("init"));
    let tx = mpf.open_send(p(0), "leak").expect("open_send");
    let rf = mpf
        .open_receive(p(1), "leak", Protocol::Fcfs)
        .expect("open fcfs");
    let rb = mpf
        .open_receive(p(2), "leak", Protocol::Broadcast)
        .expect("open bcast");

    let sender = {
        let mpf = Arc::clone(&mpf);
        Box::new(move || {
            mpf.message_send(p(0), tx, b"first").expect("send 1");
            mpf.message_send(p(0), tx, b"second").expect("send 2");
        }) as Proc
    };
    let fcfs_closer = {
        let mpf = Arc::clone(&mpf);
        Box::new(move || {
            mpf.close_receive(p(1), rf).expect("close fcfs");
        }) as Proc
    };
    let bcast_reader = {
        let mpf = Arc::clone(&mpf);
        Box::new(move || {
            for _ in 0..2 {
                mpf.recv_batch(p(2), rb, 1).expect("bcast recv");
            }
        }) as Proc
    };
    Case {
        procs: vec![sender, fcfs_closer, bcast_reader],
        death: None,
        check: Box::new(move || {
            mpf.check_invariants()?;
            if mpf.free_blocks() != total {
                return Err(format!(
                    "blocks pinned after all messages were read: {} free of {}",
                    mpf.free_blocks(),
                    total
                ));
            }
            conforms(&mpf).map(drop)
        }),
    }
}

#[test]
fn fcfs_obligation_leak_dfs() {
    let opts = ExploreOpts::new("fcfs-obligation-leak").max_schedules(400);
    let report = explore_dfs(&opts, leak_case);
    report.assert_ok();
    assert!(report.schedules >= 2, "{report:?}");
}

#[test]
fn fcfs_obligation_leak_random() {
    let opts = ExploreOpts::new("fcfs-obligation-leak-pct").max_schedules(600);
    let report = explore_random(&opts, 0x51ED, leak_case);
    report.assert_ok();
    assert_eq!(report.schedules, opts.budget());
}

/// Two FCFS receivers race one pre-queued message: exactly one of them may
/// get it, under every interleaving of the claim path.
#[test]
fn concurrent_fcfs_receivers_race_one_message() {
    let make = || {
        let cfg = MpfConfig::new(4, 4)
            .with_total_blocks(32)
            .with_max_messages(8);
        let total = cfg.total_blocks;
        let mpf = Arc::new(Mpf::init(cfg).expect("init"));
        let tx = mpf.open_send(p(0), "race").expect("open_send");
        let r1 = mpf
            .open_receive(p(1), "race", Protocol::Fcfs)
            .expect("open r1");
        let r2 = mpf
            .open_receive(p(2), "race", Protocol::Fcfs)
            .expect("open r2");
        mpf.message_send(p(0), tx, b"only").expect("seed send");
        let got = Arc::new(AtomicUsize::new(0));
        let receiver = |pid: usize, id| {
            let (mpf, got) = (Arc::clone(&mpf), Arc::clone(&got));
            Box::new(move || {
                let mut buf = [0u8; 16];
                if mpf
                    .view(p(pid))
                    .unwrap()
                    .try_message_receive(id, &mut buf)
                    .expect("try_recv")
                    .is_some()
                {
                    got.fetch_add(1, Ordering::Relaxed);
                }
            }) as Proc
        };
        let procs = vec![receiver(1, r1), receiver(2, r2)];
        let got = Arc::clone(&got);
        Case {
            procs,
            death: None,
            check: Box::new(move || {
                mpf.check_invariants()?;
                let n = got.load(Ordering::Relaxed);
                if n != 1 {
                    return Err(format!("FCFS message delivered {n} times, want exactly 1"));
                }
                if mpf.free_blocks() != total {
                    return Err("blocks leaked after exactly-once delivery".into());
                }
                conforms(&mpf).map(drop)
            }),
        }
    };
    let opts = ExploreOpts::new("fcfs-exactly-once").max_schedules(300);
    explore_dfs(&opts, make).assert_ok();
    explore_random(&opts, 0xACE, make).assert_ok();
}

/// One broadcast receiver closes with messages unread while its peer is
/// still reading them: the departing receiver's claims must be released
/// under every interleaving, and everything reclaimed once the reader is
/// done.
#[test]
fn broadcast_close_with_unread_vs_concurrent_reads() {
    let make = || {
        let cfg = MpfConfig::new(4, 4)
            .with_total_blocks(64)
            .with_block_payload(16)
            .with_max_messages(16);
        let total = cfg.total_blocks;
        let mpf = Arc::new(Mpf::init(cfg).expect("init"));
        let tx = mpf.open_send(p(0), "bcast").expect("open_send");
        let r1 = mpf
            .open_receive(p(1), "bcast", Protocol::Broadcast)
            .expect("open r1");
        let r2 = mpf
            .open_receive(p(2), "bcast", Protocol::Broadcast)
            .expect("open r2");
        for i in 0..3u8 {
            mpf.message_send(p(0), tx, &[i; 24]).expect("seed send");
        }
        let reader = {
            let mpf = Arc::clone(&mpf);
            Box::new(move || {
                for _ in 0..3 {
                    mpf.recv_batch(p(1), r1, 1).expect("recv");
                }
            }) as Proc
        };
        let closer = {
            let mpf = Arc::clone(&mpf);
            Box::new(move || {
                mpf.close_receive(p(2), r2).expect("close");
            }) as Proc
        };
        Case {
            procs: vec![reader, closer],
            death: None,
            check: Box::new(move || {
                mpf.check_invariants()?;
                if mpf.free_blocks() != total {
                    return Err(format!(
                        "unread-close left blocks pinned: {} free of {}",
                        mpf.free_blocks(),
                        total
                    ));
                }
                conforms(&mpf).map(drop)
            }),
        }
    };
    let opts = ExploreOpts::new("broadcast-unread-close").max_schedules(300);
    explore_dfs(&opts, make).assert_ok();
    explore_random(&opts, 0xBCA5, make).assert_ok();
}

/// Sends race the teardown of the whole conversation (both sides closing).
/// Whatever interleaving runs, teardown must delete the LNVC and return
/// every block — including backlog that was never received.
#[test]
fn send_races_delete() {
    let make = || {
        let cfg = MpfConfig::new(4, 4)
            .with_total_blocks(32)
            .with_max_messages(8);
        let total = cfg.total_blocks;
        let mpf = Arc::new(Mpf::init(cfg).expect("init"));
        let tx = mpf.open_send(p(0), "doomed").expect("open_send");
        let rx = mpf
            .open_receive(p(1), "doomed", Protocol::Fcfs)
            .expect("open recv");
        let sender = {
            let mpf = Arc::clone(&mpf);
            Box::new(move || {
                for i in 0..2u8 {
                    mpf.message_send(p(0), tx, &[i; 8]).expect("send");
                }
                mpf.close_send(p(0), tx).expect("close_send");
            }) as Proc
        };
        let receiver_closer = {
            let mpf = Arc::clone(&mpf);
            Box::new(move || {
                let mut buf = [0u8; 16];
                let _ = mpf
                    .view(p(1))
                    .unwrap()
                    .try_message_receive(rx, &mut buf)
                    .expect("try");
                mpf.close_receive(p(1), rx).expect("close_receive");
            }) as Proc
        };
        Case {
            procs: vec![sender, receiver_closer],
            death: None,
            check: Box::new(move || {
                mpf.check_invariants()?;
                if mpf.live_lnvcs() != 0 {
                    return Err("conversation survived both sides closing".into());
                }
                if mpf.free_blocks() != total {
                    return Err(format!(
                        "teardown leaked blocks: {} free of {}",
                        mpf.free_blocks(),
                        total
                    ));
                }
                conforms(&mpf).map(drop)
            }),
        }
    };
    let opts = ExploreOpts::new("send-vs-delete").max_schedules(300);
    explore_dfs(&opts, make).assert_ok();
    explore_random(&opts, 0xDE1E7E, make).assert_ok();
}

/// Flow control in a tiny region: the sender must block on exhausted
/// blocks and be woken by the receiver's frees — under every explored
/// interleaving, with no lost wakeup (which the harness would report as a
/// deadlock).
#[test]
fn flow_control_wakeups_under_pressure() {
    let make = || {
        let cfg = MpfConfig::new(2, 2)
            .with_total_blocks(4)
            .with_block_payload(16)
            .with_max_messages(4);
        let total = cfg.total_blocks;
        let mpf = Arc::new(Mpf::init(cfg).expect("init"));
        let tx = mpf.open_send(p(0), "pressure").expect("open_send");
        let rx = mpf
            .open_receive(p(1), "pressure", Protocol::Fcfs)
            .expect("open recv");
        let sender = {
            let mpf = Arc::clone(&mpf);
            Box::new(move || {
                // Each message spans 2 of the 4 blocks: the third send can
                // only proceed once the receiver frees one — the send that
                // waits for room.
                let view = mpf.view(p(0)).expect("view");
                for i in 0..4u8 {
                    view.send_deadline(tx, &[i; 20], None).expect("send");
                }
            }) as Proc
        };
        let receiver = {
            let mpf = Arc::clone(&mpf);
            Box::new(move || {
                for _ in 0..4 {
                    mpf.recv_batch(p(1), rx, 1).expect("recv");
                }
            }) as Proc
        };
        Case {
            procs: vec![sender, receiver],
            death: None,
            check: Box::new(move || {
                mpf.check_invariants()?;
                if mpf.free_blocks() != total {
                    return Err("flow-controlled traffic leaked blocks".into());
                }
                conforms(&mpf).map(drop)
            }),
        }
    };
    let opts = ExploreOpts::new("flow-control").max_schedules(200);
    explore_dfs(&opts, make).assert_ok();
    // Pool alloc/free preemption points matter here: the block-exhaustion
    // window is exactly between an alloc attempt and the wait.
    let fine = ExploreOpts::new("flow-control-fine")
        .max_schedules(200)
        .preempt_events(true);
    explore_random(&fine, 0xF10, make).assert_ok();
}

/// Conversation churn: one side repeatedly opens, uses, and closes the
/// conversation while the other does the same.  Exercises create/delete
/// racing traffic; the registry and descriptor pools must end empty.
#[test]
fn open_close_churn_vs_traffic() {
    let make = || {
        let cfg = MpfConfig::new(4, 4)
            .with_total_blocks(32)
            .with_max_messages(8);
        let total = cfg.total_blocks;
        let mpf = Arc::new(Mpf::init(cfg).expect("init"));
        let churn_sender = {
            let mpf = Arc::clone(&mpf);
            Box::new(move || {
                for i in 0..2u8 {
                    let tx = mpf.open_send(p(0), "churn").expect("open_send");
                    mpf.message_send(p(0), tx, &[i; 8]).expect("send");
                    mpf.close_send(p(0), tx).expect("close_send");
                }
            }) as Proc
        };
        let churn_receiver = {
            let mpf = Arc::clone(&mpf);
            Box::new(move || {
                for _ in 0..2 {
                    let rx = mpf
                        .open_receive(p(1), "churn", Protocol::Fcfs)
                        .expect("open_receive");
                    let mut buf = [0u8; 16];
                    let _ = mpf
                        .view(p(1))
                        .unwrap()
                        .try_message_receive(rx, &mut buf)
                        .expect("try");
                    mpf.close_receive(p(1), rx).expect("close_receive");
                }
            }) as Proc
        };
        Case {
            procs: vec![churn_sender, churn_receiver],
            death: None,
            check: Box::new(move || {
                mpf.check_invariants()?;
                if mpf.live_lnvcs() != 0 {
                    return Err("churn left a conversation alive".into());
                }
                if mpf.free_blocks() != total {
                    return Err("churn leaked blocks".into());
                }
                conforms(&mpf).map(drop)
            }),
        }
    };
    let opts = ExploreOpts::new("open-close-churn").max_schedules(300);
    explore_dfs(&opts, make).assert_ok();
    explore_random(&opts, 0xC4A1, make).assert_ok();
}

/// Telemetry conservation under permuted schedules: however one sender
/// and two competing FCFS receivers interleave, the in-region counters
/// must agree with the final facility state — every send counted exactly
/// once, every delivery exactly once, bytes in = bytes out, every freed
/// message a counted reclaim, and no corpses left queued.  A counter
/// update outside the right critical section (or a double count on a
/// retry path) shows up here as a schedule-dependent mismatch.
#[test]
fn telemetry_conserved_under_schedules() {
    let make = || {
        let cfg = MpfConfig::new(4, 4)
            .with_total_blocks(64)
            .with_block_payload(16)
            .with_max_messages(16)
            .latency_sample_rate(1);
        let mpf = Arc::new(Mpf::init(cfg).expect("init"));
        let tx = mpf.open_send(p(0), "meter").expect("open_send");
        let r1 = mpf
            .open_receive(p(1), "meter", Protocol::Fcfs)
            .expect("open r1");
        let r2 = mpf
            .open_receive(p(2), "meter", Protocol::Fcfs)
            .expect("open r2");
        let sender = {
            let mpf = Arc::clone(&mpf);
            Box::new(move || {
                for i in 0..4u8 {
                    mpf.message_send(p(0), tx, &[i; 24]).expect("send");
                }
            }) as Proc
        };
        let reader = |pid: usize, id| {
            let mpf = Arc::clone(&mpf);
            Box::new(move || {
                for _ in 0..2 {
                    mpf.recv_batch(p(pid), id, 1).expect("recv");
                }
            }) as Proc
        };
        let procs = vec![sender, reader(1, r1), reader(2, r2)];
        Case {
            procs,
            death: None,
            check: Box::new(move || {
                mpf.check_invariants()?;
                let t = mpf.telemetry_snapshot();
                if t.sends != 4 || t.receives != 4 {
                    return Err(format!(
                        "send/receive counters drifted: {} sent, {} received, want 4/4",
                        t.sends, t.receives
                    ));
                }
                if t.bytes_in != 96 || t.bytes_out != 96 {
                    return Err(format!(
                        "byte conservation broken: {} in, {} out, want 96/96",
                        t.bytes_in, t.bytes_out
                    ));
                }
                if t.size_hist.count != 4 || t.latency_hist.count != 4 {
                    return Err(format!(
                        "histogram samples drifted: {} sizes, {} latencies, want 4/4",
                        t.size_hist.count, t.latency_hist.count
                    ));
                }
                if t.reclaims != 4 {
                    return Err(format!(
                        "reclaim count drifted: {} freed, want 4 (one per message)",
                        t.reclaims
                    ));
                }
                let lt = mpf
                    .view(p(0))
                    .and_then(|v| v.lnvc_telemetry(tx))
                    .map_err(|e| e.to_string())?;
                if lt.sends != 4 || lt.receives != 4 {
                    return Err(format!(
                        "per-LNVC counters drifted: {}/{}, want 4/4",
                        lt.sends, lt.receives
                    ));
                }
                if lt.depth_hwm == 0 || lt.depth_hwm > 4 {
                    return Err(format!("depth high-water {} outside 1..=4", lt.depth_hwm));
                }
                let rec = mpf.reclaimable();
                if rec != Default::default() {
                    return Err(format!("corpses left after full drain: {rec:?}"));
                }
                conforms(&mpf).map(drop)
            }),
        }
    };
    let opts = ExploreOpts::new("telemetry-conserved").max_schedules(300);
    explore_dfs(&opts, make).assert_ok();
    explore_random(&opts, 0x7E1E, make).assert_ok();
}

/// Batched sends under permuted schedules: one sender pushes its batch
/// through the submission/completion ring shims, the other sends its as
/// one run with `send_batch`, while a receiver drains the conversation.
/// Batch conservation is the invariant — every descriptor completes
/// exactly once (tokens in order, all successful), the shim sender's
/// rings end empty with every count at 3, the run sender's rings are
/// never touched, and the message pools balance.
#[test]
fn aio_batch_conservation_under_schedules() {
    /// The sender that goes through the ring shims; the other one does not.
    const RING_SENDER: usize = 0;
    let make = || {
        let cfg = MpfConfig::new(4, 4)
            .with_total_blocks(64)
            .with_block_payload(16)
            .with_max_messages(16);
        let total = cfg.total_blocks;
        let mpf = Arc::new(Mpf::init(cfg).expect("init"));
        let rx = mpf
            .open_receive(p(2), "ring", Protocol::Fcfs)
            .expect("open recv");
        let batch_sender = |pid: usize| {
            let mpf = Arc::clone(&mpf);
            Box::new(move || {
                let tx = mpf.open_send(p(pid), "ring").expect("open send");
                let payloads: Vec<Vec<u8>> =
                    (0..3u8).map(|i| vec![pid as u8 * 10 + i; 8]).collect();
                let refs: Vec<&[u8]> = payloads.iter().map(|v| v.as_slice()).collect();
                let completions = if pid == RING_SENDER {
                    assert_eq!(mpf.submit_sends(p(pid), tx, &refs), Ok(3));
                    assert_eq!(mpf.drain_sends(p(pid)), Ok(3));
                    let mut done = Vec::new();
                    mpf.reap_completions(p(pid), &mut done).expect("reap");
                    done
                } else {
                    mpf.send_batch(p(pid), tx, &refs).expect("send_batch")
                };
                assert_eq!(completions.len(), 3, "whole batch completes");
                for (i, c) in completions.iter().enumerate() {
                    assert!(c.ok(), "completion {i} failed: status {}", c.status);
                    assert_eq!(c.user_data, i as u64, "tokens in submission order");
                }
            }) as Proc
        };
        let received = Arc::new(AtomicUsize::new(0));
        let receiver = {
            let (mpf, received) = (Arc::clone(&mpf), Arc::clone(&received));
            Box::new(move || {
                let mut got = 0;
                while got < 6 {
                    let msgs = mpf.recv_batch(p(2), rx, 6 - got).expect("recv_batch");
                    for m in &msgs {
                        assert_eq!(m.len(), 8, "frame length survives the batch");
                    }
                    got += msgs.len();
                }
                received.store(got, Ordering::Relaxed);
            }) as Proc
        };
        let procs = vec![batch_sender(0), batch_sender(1), receiver];
        let received = Arc::clone(&received);
        Case {
            procs,
            death: None,
            check: Box::new(move || {
                mpf.check_invariants()?;
                if received.load(Ordering::Relaxed) != 6 {
                    return Err("receiver finished short of both batches".into());
                }
                let runs = mpf
                    .aio_stats(p(1 - RING_SENDER))
                    .map_err(|e| e.to_string())?;
                if runs != Default::default() {
                    return Err(format!("send_batch touched the rings: {runs:?}"));
                }
                let st = mpf.aio_stats(p(RING_SENDER)).map_err(|e| e.to_string())?;
                if st.submitted != 3 || st.drained != 3 || st.completed != 3 || st.reaped != 3 {
                    return Err(format!(
                        "ring conservation broken: {}/{}/{}/{} \
                         submitted/drained/completed/reaped, want 3 each",
                        st.submitted, st.drained, st.completed, st.reaped
                    ));
                }
                if st.sq_depth != 0 || st.cq_depth != 0 {
                    return Err(format!(
                        "rings not empty: sq {} cq {}",
                        st.sq_depth, st.cq_depth
                    ));
                }
                if mpf.free_blocks() != total {
                    return Err("batched traffic leaked blocks".into());
                }
                conforms(&mpf).map(drop)
            }),
        }
    };
    let opts = ExploreOpts::new("aio-batch-conservation").max_schedules(300);
    explore_dfs(&opts, make).assert_ok();
    explore_random(&opts, 0xA10, make).assert_ok();
}

/// Trace-event conservation: under every schedule, the causal record the
/// trace rings retain must tell a complete, conformance-clean story — one
/// `TR_SEND` per message, each paired with exactly one delivery, each
/// reclaim after its delivery, and replies continuing the request's chain
/// at hop 1.  A trace stamped outside the send critical section, or a
/// ring write racing the delivery it describes, shows up here as a
/// schedule-dependent violation from the offline checker.
#[test]
fn trace_conservation_under_schedules() {
    use mpf_shm::tracering::{TR_RECLAIM, TR_RECV, TR_SEND};

    let make = || {
        let cfg = MpfConfig::new(4, 4)
            .with_total_blocks(64)
            .with_block_payload(16)
            .with_max_messages(16);
        let mpf = Arc::new(Mpf::init(cfg).expect("init"));
        let req_tx = mpf.open_send(p(0), "req").expect("open req tx");
        let req_rx = mpf
            .open_receive(p(1), "req", Protocol::Fcfs)
            .expect("open req rx");
        let rep_tx = mpf.open_send(p(1), "rep").expect("open rep tx");
        let rep_rx = mpf
            .open_receive(p(0), "rep", Protocol::Fcfs)
            .expect("open rep rx");
        let requester = {
            let mpf = Arc::clone(&mpf);
            Box::new(move || {
                // Both roots go out before any reply is read, so neither
                // request can accidentally continue the other's chain.
                for i in 0..2u8 {
                    mpf.message_send(p(0), req_tx, &[i; 8]).expect("send req");
                }
                for _ in 0..2 {
                    mpf.recv_batch(p(0), rep_rx, 1).expect("recv rep");
                }
            }) as Proc
        };
        let responder = {
            let mpf = Arc::clone(&mpf);
            Box::new(move || {
                for _ in 0..2 {
                    let m = mpf.recv_batch(p(1), req_rx, 1).expect("recv req");
                    mpf.message_send(p(1), rep_tx, &m[0]).expect("send rep");
                }
            }) as Proc
        };
        let procs = vec![requester, responder];
        Case {
            procs,
            death: None,
            check: Box::new(move || {
                mpf.check_invariants()?;
                let report = conforms(&mpf)?;
                if report.messages != 4 || report.deliveries != 4 {
                    return Err(format!(
                        "traced message conservation broken: {} messages, {} deliveries, want 4/4",
                        report.messages, report.deliveries
                    ));
                }
                let log = mpf_trace::TraceLog::from_ipc(mpf.view(p(0)).map_err(|e| e.to_string())?);
                let chains = log.chains();
                if chains.len() != 2 {
                    return Err(format!("want 2 request/reply chains, got {}", chains.len()));
                }
                for chain in &chains {
                    if chain.hops() != 2 {
                        return Err(format!("chain lost a hop: {chain:?}"));
                    }
                    let count = |k: u32| chain.events.iter().filter(|r| r.ev.kind == k).count();
                    if count(TR_SEND) != 2 || count(TR_RECV) != 2 || count(TR_RECLAIM) != 2 {
                        return Err(format!(
                            "chain event conservation broken ({}/{}/{} send/recv/reclaim): {chain:?}",
                            count(TR_SEND),
                            count(TR_RECV),
                            count(TR_RECLAIM),
                        ));
                    }
                }
                Ok(())
            }),
        }
    };
    let opts = ExploreOpts::new("trace-conservation").max_schedules(300);
    explore_dfs(&opts, make).assert_ok();
    explore_random(&opts, 0x7ACE, make).assert_ok();
}

/// The schedule counts above must add up: this is the floor the PR CI run
/// is expected to clear ("≥ 1000 distinct schedules across the suite").
/// Random exploration always runs its full budget, so the guaranteed
/// minimum is the sum of the random budgets alone: 600 + 300 + 300 + 300 +
/// 200 + 300 + 300 + 300 + 300 = 2900.
#[test]
fn suite_budget_floor() {
    let budgets = [600usize, 300, 300, 300, 200, 300, 300, 300, 300];
    assert!(budgets.iter().sum::<usize>() >= 1000);
}
