//! Model-based property test: random single-threaded operation sequences
//! are executed against both the real facility and a straightforward
//! reference model of the paper's semantics; every observable result must
//! agree.
//!
//! The model encodes DESIGN.md's delivery rules directly:
//! * a message is owed one FCFS delivery iff FCFS receivers were connected
//!   at send time or nobody was connected at all;
//! * it is owed a broadcast delivery to exactly the broadcast receivers
//!   connected at send time;
//! * broadcast receivers joining later see only later messages;
//! * FCFS obligations are re-evaluated when the receiver population
//!   changes: once no FCFS receiver is connected but broadcast receivers
//!   are, untaken obligations are dropped (nobody left or joining later
//!   will ever take them — DESIGN.md "Obligation re-evaluation");
//! * closing the last connection discards the conversation and its queue.

use std::collections::HashMap;

use mpf::{Mpf, MpfConfig, MpfError, ProcessId, Protocol};
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

/// Reference model of one conversation.
#[derive(Debug, Default)]
struct ModelLnvc {
    /// (payload, fcfs_owed, fcfs_taken, bcast_owed_to)
    msgs: Vec<ModelMsg>,
    senders: Vec<usize>,
    /// pid → (is_broadcast, cursor into `msgs` by global index)
    receivers: HashMap<usize, (bool, usize)>,
    sent_total: usize,
}

#[derive(Debug, Clone)]
struct ModelMsg {
    seq: usize,
    payload: Vec<u8>,
    needs_fcfs: bool,
    fcfs_taken: bool,
    bcast_owed: Vec<usize>,
}

impl ModelLnvc {
    fn connections(&self) -> usize {
        self.senders.len() + self.receivers.len()
    }

    /// Obligation re-evaluation after any receiver-population change: when
    /// no FCFS receiver remains but broadcast receivers keep the LNVC
    /// alive, untaken FCFS obligations can never be satisfied (broadcast
    /// joiners never see backlog) and are dropped; messages that become
    /// fully consumed disappear.
    fn reevaluate_obligations(&mut self) {
        let has_fcfs = self.receivers.values().any(|&(b, _)| !b);
        let has_bcast = self.receivers.values().any(|&(b, _)| b);
        if !has_fcfs && has_bcast {
            for m in &mut self.msgs {
                if !m.fcfs_taken {
                    m.needs_fcfs = false;
                }
            }
        }
        self.msgs
            .retain(|m| !(m.bcast_owed.is_empty() && (!m.needs_fcfs || m.fcfs_taken)));
    }

    fn next_for(&self, pid: usize) -> Option<&ModelMsg> {
        let (bcast, cursor) = *self.receivers.get(&pid)?;
        if bcast {
            self.msgs.iter().find(|m| m.seq >= cursor)
        } else {
            self.msgs.iter().find(|m| m.needs_fcfs && !m.fcfs_taken)
        }
    }
}

#[derive(Debug, Default)]
struct Model {
    lnvcs: HashMap<usize, ModelLnvc>,
}

fn payload_for(seq: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| (seq * 31 + i) as u8).collect()
}

fn run_sequence(ops: Vec<Op>) {
    let mpf = Mpf::init(
        MpfConfig::new(8, PIDS as u32)
            .with_total_blocks(4096)
            .with_max_messages(1024),
    )
    .expect("init");
    let mut model = Model::default();
    let mut ids: HashMap<usize, mpf::LnvcId> = HashMap::new();

    for op in ops {
        match op {
            Op::OpenSend { pid, name } => {
                let result = mpf.open_send(ProcessId::from_index(pid), NAMES[name]);
                let entry = model.lnvcs.entry(name).or_default();
                if entry.senders.contains(&pid) {
                    assert_eq!(result.unwrap_err(), MpfError::AlreadyConnected);
                    // A failed open on a fresh name must not leak a
                    // conversation — but `contains` implies it existed.
                } else {
                    let id = result.expect("open_send");
                    ids.insert(name, id);
                    entry.senders.push(pid);
                }
            }
            Op::OpenRecv { pid, name, bcast } => {
                let protocol = if bcast {
                    Protocol::Broadcast
                } else {
                    Protocol::Fcfs
                };
                let result = mpf.open_receive(ProcessId::from_index(pid), NAMES[name], protocol);
                let entry = model.lnvcs.entry(name).or_default();
                if let Some(&(existing_bcast, _)) = entry.receivers.get(&pid) {
                    let expected = if existing_bcast != bcast {
                        MpfError::ProtocolConflict
                    } else {
                        MpfError::AlreadyConnected
                    };
                    assert_eq!(result.unwrap_err(), expected);
                } else {
                    let id = result.expect("open_receive");
                    ids.insert(name, id);
                    entry.receivers.insert(pid, (bcast, entry.sent_total));
                    entry.reevaluate_obligations();
                }
            }
            Op::CloseSend { pid, name } => {
                let Some(&id) = ids.get(&name) else { continue };
                let result = mpf.close_send(ProcessId::from_index(pid), id);
                let Some(entry) = model.lnvcs.get_mut(&name) else {
                    assert!(result.is_err());
                    continue;
                };
                if let Some(pos) = entry.senders.iter().position(|&s| s == pid) {
                    result.expect("close_send");
                    entry.senders.remove(pos);
                    if entry.connections() == 0 {
                        model.lnvcs.remove(&name);
                        ids.remove(&name);
                    }
                } else {
                    assert!(result.is_err(), "model says {pid} has no send conn");
                }
            }
            Op::CloseRecv { pid, name } => {
                let Some(&id) = ids.get(&name) else { continue };
                let result = mpf.close_receive(ProcessId::from_index(pid), id);
                let Some(entry) = model.lnvcs.get_mut(&name) else {
                    assert!(result.is_err());
                    continue;
                };
                if let Some((bcast, cursor)) = entry.receivers.remove(&pid) {
                    result.expect("close_receive");
                    if bcast {
                        // Release this receiver's claims (the §3.2 sweep).
                        for m in &mut entry.msgs {
                            if m.seq >= cursor {
                                m.bcast_owed.retain(|&r| r != pid);
                            }
                        }
                    }
                    entry.reevaluate_obligations();
                    if entry.connections() == 0 {
                        model.lnvcs.remove(&name);
                        ids.remove(&name);
                    }
                } else {
                    assert!(result.is_err());
                }
            }
            Op::Send { pid, name, len } => {
                let Some(&id) = ids.get(&name) else { continue };
                let Some(entry) = model.lnvcs.get_mut(&name) else {
                    continue;
                };
                let seq = entry.sent_total;
                let payload = payload_for(seq, len);
                let result = mpf.message_send(ProcessId::from_index(pid), id, &payload);
                if entry.senders.contains(&pid) {
                    result.expect("message_send");
                    let bcast_owed: Vec<usize> = entry
                        .receivers
                        .iter()
                        .filter(|(_, &(b, _))| b)
                        .map(|(&r, _)| r)
                        .collect();
                    let any_receiver = !entry.receivers.is_empty();
                    entry.msgs.push(ModelMsg {
                        seq,
                        payload,
                        needs_fcfs: entry.receivers.values().any(|&(b, _)| !b) || !any_receiver,
                        fcfs_taken: false,
                        bcast_owed,
                    });
                    entry.sent_total += 1;
                } else {
                    assert_eq!(result.unwrap_err(), MpfError::NotConnected);
                }
            }
            Op::TryRecv { pid, name } => {
                let Some(&id) = ids.get(&name) else { continue };
                let mut buf = [0u8; 128];
                let view = mpf.view(ProcessId::from_index(pid)).expect("view");
                let result = view.try_message_receive(id, &mut buf);
                let Some(entry) = model.lnvcs.get_mut(&name) else {
                    continue;
                };
                match entry.receivers.get(&pid).copied() {
                    None => assert_eq!(result.unwrap_err(), MpfError::NotConnected),
                    Some((bcast, _)) => {
                        let expected = entry.next_for(pid).cloned();
                        match (result.expect("try_recv"), expected) {
                            (Some(n), Some(m)) => {
                                assert_eq!(&buf[..n], &m.payload[..], "payload mismatch");
                                // Update the model's delivery state.
                                if bcast {
                                    entry.receivers.get_mut(&pid).expect("conn").1 = m.seq + 1;
                                    let msg = entry
                                        .msgs
                                        .iter_mut()
                                        .find(|x| x.seq == m.seq)
                                        .expect("msg");
                                    msg.bcast_owed.retain(|&r| r != pid);
                                } else {
                                    entry
                                        .msgs
                                        .iter_mut()
                                        .find(|x| x.seq == m.seq)
                                        .expect("msg")
                                        .fcfs_taken = true;
                                }
                                entry.msgs.retain(|m| {
                                    !(m.bcast_owed.is_empty() && (!m.needs_fcfs || m.fcfs_taken))
                                });
                            }
                            (None, None) => {}
                            (got, want) => panic!(
                                "delivery mismatch: real={got:?} model={}",
                                want.map(|m| format!("msg seq {}", m.seq))
                                    .unwrap_or_else(|| "none".into())
                            ),
                        }
                    }
                }
            }
            Op::Check { pid, name } => {
                let Some(&id) = ids.get(&name) else { continue };
                let result = mpf.check_receive(ProcessId::from_index(pid), id);
                let Some(entry) = model.lnvcs.get(&name) else {
                    continue;
                };
                match entry.receivers.get(&pid) {
                    None => assert_eq!(result.unwrap_err(), MpfError::NotConnected),
                    Some(_) => {
                        assert_eq!(
                            result.expect("check"),
                            entry.next_for(pid).is_some(),
                            "check_receive disagrees with the model"
                        );
                    }
                }
            }
        }
    }

    // Conservation: every conversation the model thinks is dead is dead.
    assert_eq!(mpf.live_lnvcs(), model.lnvcs.len());
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
