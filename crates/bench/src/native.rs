//! The native workloads: the paper's benchmark *programs* run on the real
//! engine, each a [`Workload`] that times only its steady section.
//!
//! Multi-process programs end by the classic poison-message idiom: after
//! the stream the sender emits a zero-length message, and a receiver that
//! consumes one leaves (every payload message is non-empty).

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use mpf::{IpcMpf, Mpf, MpfConfig, MpfError, ProcessId, Protocol};
use mpf_shm::barrier::SpinBarrier;
use mpf_shm::process::run_processes_collect;
use mpf_shm::telemetry::TelSnapshot;
use mpf_shm::SmallRng;

use crate::measure::Workload;

/// A workload whose iteration is one call of `round` on this thread.
pub fn repeat<'a, R>(mut round: impl FnMut() -> R + 'a) -> Workload<'a> {
    Box::new(move |iters| {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(round());
        }
        start.elapsed()
    })
}

/// Runs `n` processes and returns the span of their steady section.  Each
/// body calls `go()` once, when its connections are open: a barrier, so
/// nobody sends before every receiver has joined (a late BROADCAST joiner
/// misses the stream; a sender that finishes and closes alone deletes the
/// conversation, §3.2).  The clock runs from the first process released to
/// the last one done — `Mpf::init`, thread spawn and connection set-up
/// stay outside it.
pub fn steady_section(n: u32, body: impl Fn(ProcessId, &dyn Fn()) + Sync) -> Duration {
    let barrier = SpinBarrier::new(n);
    let spans = run_processes_collect(n as usize, |pid| {
        let released = Cell::new(None);
        body(pid, &|| {
            barrier.wait();
            released.set(Some(Instant::now()));
        });
        (released.get().expect("the body calls go()"), Instant::now())
    });
    let first_released = spans.iter().map(|s| s.0).min().expect("n >= 1");
    let last_done = spans.iter().map(|s| s.1).max().expect("n >= 1");
    last_done - first_released
}

/// What one loop-back round is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Round {
    /// `message_send` then `message_receive` (the paper's `base` loop).
    Single,
    /// `message_send` then `message_receive_scan` (ablation A6).
    Scan,
    /// `send_batch` of `n` then `recv_batch` until `n` arrived, through
    /// the SQ/CQ rings; `Batch(1)` pays the rings and amortises nothing.
    Batch(usize),
}

/// Largest loop-back message, and the size of the payload they all share.
pub const MAX_LOOPBACK_LEN: usize = 64 * 1024;
static PAYLOAD: [u8; MAX_LOOPBACK_LEN] = [0xA5; MAX_LOOPBACK_LEN];

/// A region for [`loopback`]: 256 B blocks, room for a batch of 64 × 2 KiB
/// or four 64 KiB messages.  `observed` switches telemetry and tracing
/// together.
pub fn loopback_config(observed: bool) -> MpfConfig {
    MpfConfig::new(4, 4)
        .with_block_payload(256)
        .with_total_blocks(4096)
        .with_max_messages(256)
        .with_max_connections(8)
        .with_telemetry(observed)
        .trace_sample_rate(u32::from(observed))
}

/// The Figure 3 loop, once: one process alternating send and receive of
/// `len`-byte messages on its own FCFS conversation.  It runs on whatever
/// mapping `region` is — [`IpcMpf::anon`] is the paper's "threads" case,
/// [`IpcMpf::create`] the named `/dev/shm` one (to look at it afterwards,
/// pass an [`IpcMpf::attach_view`] and keep the original) — and an
/// iteration is one [`Round`].
pub fn loopback(m: IpcMpf, len: usize, round: Round) -> Workload<'static> {
    let tx = m.open_send("bench").expect("tx");
    let rx = m.open_receive("bench", Protocol::Fcfs).expect("rx");
    let payload = &PAYLOAD[..len];
    let batch = vec![payload; if let Round::Batch(n) = round { n } else { 0 }];
    let mut buf = vec![0u8; len.max(1)];
    repeat(move || {
        match round {
            Round::Single | Round::Scan => m.message_send(tx, payload).expect("send"),
            Round::Batch(n) => assert_eq!(m.send_batch(tx, &batch).expect("send_batch").len(), n),
        }
        match round {
            Round::Single => m.message_receive(rx, &mut buf).expect("recv"),
            Round::Scan => {
                let mut sum = 0usize;
                let add = |run: &[u8]| sum += run.iter().map(|&b| b as usize).sum::<usize>();
                m.message_receive_scan(rx, add).expect("scan");
                sum
            }
            Round::Batch(n) => {
                let mut got = 0;
                while got < n {
                    got += m.recv_batch(rx, n - got).expect("recv_batch").len();
                }
                got
            }
        }
    })
}

/// Why a contended point reads what it reads: the facility's counters
/// summed over every call of one workload, reported per message.
#[derive(Debug, Default)]
pub struct Tally {
    msgs: Cell<u64>,
    totals: RefCell<TelSnapshot>,
}

impl Tally {
    /// The counters' names, in [`Self::per_message`] order.
    pub const NAMES: [&'static str; 3] = ["lock_contended", "recv_waits", "send_waits"];

    fn add(&self, msgs: u64, run: &TelSnapshot) {
        self.msgs.set(self.msgs.get() + msgs);
        self.totals.borrow_mut().absorb(run);
    }

    /// Contended lock acquisitions, receives that slept and sends that
    /// slept, per message sent.
    pub fn per_message(&self) -> [f64; 3] {
        let t = self.totals.borrow();
        [t.lock_contended, t.recv_waits, t.send_waits].map(|c| c as f64 / self.msgs.get() as f64)
    }
}

/// A facility for the multi-process programs: 2 MiB of 256 B blocks, so a
/// sender can run 128 messages of 16 KiB ahead before it has to wait.
fn contended_config(processes: u32) -> MpfConfig {
    MpfConfig::new(64.max(processes * 2), processes + 1)
        .with_block_payload(256)
        .with_total_blocks(8192)
        .with_max_messages(4096)
        // The fully connected `random` pattern opens ~P² send connections.
        .with_max_connections(processes * processes + 8 * processes + 64)
}

/// `fcfs` and `broadcast` (Figures 4 and 5): one sender streams `iters`
/// messages of `len` bytes to `receivers` receivers of one `protocol`; the
/// section ends when the last receiver has taken its poison.  With one
/// FCFS receiver this is the general LNVC as a two-party stream, the
/// yardstick of ablations A4 and A5.
pub fn fanout(
    protocol: Protocol,
    len: usize,
    receivers: u32,
    tally: Rc<Tally>,
) -> Workload<'static> {
    assert!(len >= 1, "the zero-length message is the poison");
    Box::new(move |msgs| {
        let mpf = Mpf::init(contended_config(receivers + 1)).expect("init");
        let took = steady_section(receivers + 1, |pid, go| {
            if pid.index() == 0 {
                let tx = mpf.sender(pid, "bench:fanout").expect("tx");
                let payload = vec![0x5Au8; len];
                go();
                for _ in 0..msgs {
                    tx.send(&payload).expect("send");
                }
                // Every BROADCAST receiver sees the one poison; FCFS
                // receivers take one each.
                let fcfs = protocol == Protocol::Fcfs;
                for _ in 0..if fcfs { receivers } else { 1 } {
                    tx.send(&[]).expect("poison");
                }
            } else {
                let rx = mpf.receiver(pid, "bench:fanout", protocol).expect("rx");
                let mut buf = vec![0u8; len];
                go();
                while rx.recv(&mut buf).expect("recv") != 0 {}
            }
        });
        tally.add(msgs, &mpf.telemetry_snapshot());
        took
    })
}

/// `random` (Figure 6): `procs` fully connected processes; each sends
/// `iters` messages of `len` bytes to random peers and after every send
/// "receives all messages that are queued in its LNVC".
pub fn random(len: usize, procs: u32, seed: u64, tally: Rc<Tally>) -> Workload<'static> {
    assert!(procs >= 2);
    Box::new(move |msgs_each| {
        let mpf = Mpf::init(contended_config(procs)).expect("init");
        let sending = AtomicU32::new(procs);
        let took = steady_section(procs, |pid, go| {
            let me = pid.index();
            let name = |p: usize| format!("bench:rand:{p}");
            let rx = mpf.receiver(pid, &name(me), Protocol::Fcfs).expect("rx");
            let txs: Vec<_> = (0..procs as usize)
                .filter(|&d| d != me)
                .map(|d| mpf.open_send(pid, &name(d)).expect("tx"))
                .collect();
            let view = mpf.view(pid).expect("view");
            let mut rng = SmallRng::seed_from_u64(seed ^ (me as u64) << 32);
            let payload = vec![me as u8; len];
            let mut buf = vec![0u8; len.max(1)];
            let mut drain = || while rx.try_recv(&mut buf).expect("drain").is_some() {};
            go();
            for _ in 0..msgs_each {
                let dest = txs[rng.gen_range(0..txs.len())];
                // Everyone is a sender, so a full pool is emptied by
                // receiving, never by sleeping until somebody else does.
                loop {
                    match view.message_send(dest, &payload) {
                        Ok(()) => break,
                        Err(MpfError::MessagesExhausted | MpfError::BlocksExhausted) => drain(),
                        Err(e) => panic!("send: {e}"),
                    }
                }
                drain();
            }
            // Peers may still be sending to us, or waiting for our room.
            sending.fetch_sub(1, Ordering::AcqRel);
            while sending.load(Ordering::Acquire) != 0 {
                drain();
                std::thread::yield_now();
            }
            drain();
        });
        tally.add(msgs_each * procs as u64, &mpf.telemetry_snapshot());
        took
    })
}

/// SOR on a `p × p` grid over `n × n` processes (Figure 8): an iteration
/// is one sweep, so the solver's start-up is spread over the window.
pub fn sor(p: usize, n: usize) -> Workload<'static> {
    Box::new(move |sweeps| {
        let start = Instant::now();
        let run = mpf_apps::sor::solve_mpf(p, n, 0.0, sweeps as usize);
        debug_assert_eq!(run.iters, sweeps as usize);
        start.elapsed()
    })
}
