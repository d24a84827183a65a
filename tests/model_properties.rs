//! Model-based property test: random single-threaded operation sequences
//! run against the real facility and against the paper's §3 contract as
//! `mpf::spec` states it; every error, delivered payload, `check_receive`
//! and the number of live conversations must agree.

use std::collections::HashMap;

use mpf::spec::{MsgId, Spec};
use mpf::{Mpf, MpfConfig, ProcessId, Protocol};
use mpf_shm::SmallRng;

const NAMES: [&str; 3] = ["alpha", "beta", "gamma"];
const PIDS: usize = 4;

#[derive(Debug, Clone)]
enum Op {
    OpenSend {
        pid: usize,
        name: usize,
    },
    OpenRecv {
        pid: usize,
        name: usize,
        bcast: bool,
    },
    CloseSend {
        pid: usize,
        name: usize,
    },
    CloseRecv {
        pid: usize,
        name: usize,
    },
    Send {
        pid: usize,
        name: usize,
        len: usize,
    },
    TryRecv {
        pid: usize,
        name: usize,
    },
    Check {
        pid: usize,
        name: usize,
    },
}

fn random_op(rng: &mut SmallRng) -> Op {
    let pid = rng.gen_range(0..PIDS);
    let name = rng.gen_range(0..NAMES.len());
    match rng.gen_range(0..7usize) {
        0 => Op::OpenSend { pid, name },
        1 => Op::OpenRecv {
            pid,
            name,
            bcast: rng.gen_bool(0.5),
        },
        2 => Op::CloseSend { pid, name },
        3 => Op::CloseRecv { pid, name },
        4 => Op::Send {
            pid,
            name,
            len: rng.gen_range(0..100usize),
        },
        5 => Op::TryRecv { pid, name },
        _ => Op::Check { pid, name },
    }
}

fn payload_for(seq: MsgId, len: usize) -> Vec<u8> {
    (0..len).map(|i| (seq as usize * 31 + i) as u8).collect()
}

fn run_sequence(ops: Vec<Op>) {
    let mpf = Mpf::init(
        MpfConfig::new(8, PIDS as u32)
            .with_total_blocks(4096)
            .with_max_messages(1024),
    )
    .expect("init");
    let mut spec = Spec::default();
    let mut ids: HashMap<u32, mpf::LnvcId> = HashMap::new();
    let mut payloads: HashMap<MsgId, Vec<u8>> = HashMap::new();

    for (step, op) in ops.into_iter().enumerate() {
        let at = |pid: u32| ProcessId::from_index(pid as usize);
        let (conv, pid) = match op {
            Op::OpenSend { pid, name }
            | Op::OpenRecv { pid, name, .. }
            | Op::CloseSend { pid, name }
            | Op::CloseRecv { pid, name }
            | Op::Send { pid, name, .. }
            | Op::TryRecv { pid, name }
            | Op::Check { pid, name } => (name as u32, pid as u32),
        };
        // Operations on a handle apply only to a conversation that lives.
        let id = ids.get(&conv).copied();
        if id.is_none() && !matches!(op, Op::OpenSend { .. } | Op::OpenRecv { .. }) {
            continue;
        }
        match op {
            Op::OpenSend { name, .. } => {
                let got = mpf.open_send(at(pid), NAMES[name]);
                assert_eq!(got.as_ref().err(), spec.open_send(conv, pid).err().as_ref());
                ids.extend(got.ok().map(|id| (conv, id)));
            }
            Op::OpenRecv { name, bcast, .. } => {
                let protocol = [Protocol::Fcfs, Protocol::Broadcast][usize::from(bcast)];
                let got = mpf.open_receive(at(pid), NAMES[name], protocol);
                let want = spec.open_receive(conv, pid, protocol);
                assert_eq!(got.as_ref().err(), want.err().as_ref());
                ids.extend(got.ok().map(|id| (conv, id)));
            }
            Op::CloseSend { .. } => {
                let got = mpf.close_send(at(pid), id.unwrap());
                assert_eq!(got, spec.close_send(conv, pid));
            }
            Op::CloseRecv { .. } => {
                let got = mpf.close_receive(at(pid), id.unwrap());
                assert_eq!(got, spec.close_receive(conv, pid));
            }
            Op::Send { len, .. } => {
                let msg = step as MsgId;
                let payload = payload_for(msg, len);
                let got = mpf.message_send(at(pid), id.unwrap(), &payload);
                assert_eq!(got, spec.send(conv, pid, msg).map(|_| ()));
                payloads.insert(msg, payload);
            }
            Op::TryRecv { .. } => {
                let mut buf = [0u8; 128];
                let view = mpf.view(at(pid)).expect("view");
                let got = view.try_message_receive(id.unwrap(), &mut buf);
                let want = spec.next_for(conv, pid);
                match (got, want) {
                    (Ok(Some(n)), Ok(Some((msg, protocol)))) => {
                        assert_eq!(&buf[..n], &payloads[&msg][..], "payload mismatch");
                        assert_eq!(spec.deliver(conv, pid, msg, protocol), None);
                    }
                    (Ok(None), Ok(None)) => {}
                    (Err(e), Err(w)) => assert_eq!(e, w),
                    (got, want) => panic!("delivery mismatch: real={got:?} spec={want:?}"),
                }
            }
            Op::Check { .. } => {
                let got = mpf.check_receive(at(pid), id.unwrap());
                assert_eq!(got, spec.next_for(conv, pid).map(|m| m.is_some()));
            }
        }
        if spec.obligations(conv).is_none() {
            ids.remove(&conv);
        }
    }

    // Conservation: every conversation the spec holds dead is dead.
    let live = (0..NAMES.len() as u32).filter(|&c| spec.obligations(c).is_some());
    assert_eq!(mpf.live_lnvcs(), live.count());
}

/// 64 random operation sequences (1..120 ops each) from a fixed seed, so
/// every run exercises the same cases deterministically; on a failure the
/// panic message names the case seed for replay.
#[test]
fn facility_matches_reference_model() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0x4D50_F000 + case);
        let n_ops = rng.gen_range(1..120usize);
        let ops: Vec<Op> = (0..n_ops).map(|_| random_op(&mut rng)).collect();
        let summary = format!("case {case}: {ops:?}");
        let result = std::panic::catch_unwind(|| run_sequence(ops));
        if let Err(e) = result {
            panic!("model divergence in {summary}: {e:?}");
        }
    }
}

#[test]
fn regression_open_close_reopen() {
    run_sequence(vec![
        Op::OpenSend { pid: 0, name: 0 },
        Op::Send {
            pid: 0,
            name: 0,
            len: 10,
        },
        Op::CloseSend { pid: 0, name: 0 },
        Op::OpenRecv {
            pid: 1,
            name: 0,
            bcast: false,
        },
        Op::TryRecv { pid: 1, name: 0 },
        Op::CloseRecv { pid: 1, name: 0 },
    ]);
}

#[test]
fn regression_broadcast_claim_release() {
    run_sequence(vec![
        Op::OpenSend { pid: 0, name: 1 },
        Op::OpenRecv {
            pid: 1,
            name: 1,
            bcast: true,
        },
        Op::OpenRecv {
            pid: 2,
            name: 1,
            bcast: true,
        },
        Op::Send {
            pid: 0,
            name: 1,
            len: 30,
        },
        Op::TryRecv { pid: 1, name: 1 },
        Op::CloseRecv { pid: 2, name: 1 },
        Op::Check { pid: 1, name: 1 },
        Op::CloseRecv { pid: 1, name: 1 },
        Op::CloseSend { pid: 0, name: 1 },
    ]);
}
