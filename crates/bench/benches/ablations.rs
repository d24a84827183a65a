//! `cargo bench -p mpf-bench [-- [ID…] [--quick] [--json PATH]]`: the
//! microbenchmarks and the DESIGN.md ablations A1–A7.  They are entries of
//! the catalog's type, run by the catalog's driver — one timer, one
//! printer, one report — and live here because only they drive the §5
//! variants and the substrate's lock and wait primitives directly.
//! `tests/catalog.rs` includes this file to run every entry under the quick
//! budget.

use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use mpf::one2one::one2one;
use mpf::sync_channel::Rendezvous;
use mpf::{MpfConfig, Protocol};
use mpf_apps::grid::{self, Grid};
use mpf_apps::linalg::{random_rhs, Matrix};
use mpf_apps::{gauss_jordan, sor};
use mpf_bench::catalog::{anon, axis, cli, fold, Entry, Output};
use mpf_bench::measure::{measure, Budget, Workload};
use mpf_bench::native::{fanout, loopback, loopback_config, repeat, steady_section, Round, Tally};
use mpf_bench::report::Figure;
use mpf_shm::lock::{LockKind, ShmLock};
use mpf_shm::waitq::{WaitQueue, WaitStrategy};
use mpf_shm::IpcLock;

const MICRO_LENGTHS: [u32; 5] = [0, 16, 128, 1024, 2048];
const A1_BLOCKS: [u32; 4] = [10, 64, 256, 1024];
const A6_LENGTHS: [u32; 3] = [128, 1024, 4096];

/// Every ablation, in DESIGN.md's order.
pub const ABLATIONS: &[Entry] = &[
    Entry("micro", None, Some(micro)),
    Entry("a1", None, Some(a1_block_size)),
    Entry("a2", None, Some(a2_locks)),
    Entry("a3", None, Some(a3_wait)),
    Entry("a4", None, Some(a4_sync)),
    Entry("a5", None, Some(a5_one2one)),
    Entry("a6", None, Some(a6_zero_copy)),
    Entry("a7", None, Some(a7_paradigm)),
];

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // No entry here has a simulated mode.
    args.push("--native".into());
    cli(ABLATIONS, &args);
}

/// Nanoseconds per iteration, as measured.
fn ns_per_iter(ns: &[Vec<f64>], i: usize, r: usize) -> f64 {
    ns[i][r]
}

/// Measures a one-row figure: each label a column.
fn one_row(title: &str, columns: &[&str], mut points: Vec<Workload>, budget: Budget) -> Figure {
    let columns = Vec::from_iter(columns.iter().map(|c| c.to_string()));
    fold(
        title,
        &columns,
        &[1.0],
        &measure(&mut points, budget),
        ns_per_iter,
    )
}

/// The per-point cost behind Figure 3, and two primitives.
fn micro(budget: Budget) -> Output {
    let cfg = loopback_config(true);
    let region = || anon(&cfg);
    let loops = MICRO_LENGTHS.map(|len| loopback(region(), len as usize, Round::Single));
    let ns = measure(&mut Vec::from(loops), budget);
    let title = "micro: loop-back round trip (ns) vs message length";
    let curves = ["send + receive".to_string()];
    let round_trip = fold(title, &curves, &axis(&MICRO_LENGTHS), &ns, ns_per_iter);

    let m = region();
    let tx = m.open_send("micro:chk").expect("tx");
    let peer = m.attach_view().expect("view");
    let rx = (peer.open_receive("micro:chk", Protocol::Broadcast)).expect("rx");
    m.message_send(tx, b"waiting").expect("send");
    let open_close = repeat(|| {
        let id = peer.open_send("micro:oc").expect("open");
        peer.close_send(id).expect("close");
    });
    let check = repeat(|| peer.check_receive(rx).expect("check"));
    let columns = ["open + close send", "check_receive"];
    let primitives = one_row(
        "micro: primitive cost (ns)",
        &columns,
        vec![open_close, check],
        budget,
    );
    Output {
        figures: vec![round_trip, primitives],
        ..Output::default()
    }
}

/// A1 — the paper ran 10-byte blocks (§3.1 footnote 4): a 1 KiB message is
/// then a 103-block chain, and every walk of it reads 103 links.
fn a1_block_size(budget: Budget) -> Output {
    let region = |block| {
        let cfg = MpfConfig::new(4, 2).with_total_blocks(8192);
        anon(&cfg.with_block_payload(block as usize))
    };
    let points = A1_BLOCKS.map(|b| loopback(region(b), 1024, Round::Single));
    let ns = measure(&mut Vec::from(points), budget);
    let title = "A1 block size: 1 KiB loop-back round trip (ns) vs block payload (bytes)";
    let curves = ["send + receive".to_string()];
    fold(title, &curves, &axis(&A1_BLOCKS), &ns, ns_per_iter).into()
}

/// A2 — the paper's substrate was a busy-wait lock.  The facility has no
/// lock knob (its conversations use `IpcLock`, the one lock that can
/// outlive a dead holder), so the ablation drives the primitives directly:
/// the two busy-wait locks against the engine's futex mutex.
fn a2_locks(budget: Budget) -> Output {
    let locks = [LockKind::Spin, LockKind::Ticket].map(ShmLock::new);
    let ipc = IpcLock::new();
    let mut points = Vec::from_iter(locks.iter().map(|lock| repeat(move || drop(lock.lock()))));
    points.push(repeat(|| {
        ipc.lock(1, |_| true);
        ipc.unlock();
    }));
    let title = "A2 lock kind: one uncontended lock/unlock pair (ns)";
    one_row(title, &["spin", "ticket", "ipc"], points, budget).into()
}

/// One direction of the A3 ping-pong: a counter and the queue its reader
/// waits on.
#[derive(Default)]
struct Lane {
    count: AtomicU64,
    q: WaitQueue,
}

impl Lane {
    fn post(&self) {
        self.count.fetch_add(1, Ordering::Release);
        self.q.notify_all();
    }

    /// Ticket before the check, as every waiter in the workspace does.
    fn await_count(&self, want: u64, strategy: WaitStrategy) {
        loop {
            let ticket = self.q.ticket();
            if self.count.load(Ordering::Acquire) >= want {
                return;
            }
            self.q.wait(ticket, strategy);
        }
    }
}

/// A3 — how a blocked receiver waits decides the wake-up latency.  The
/// facility has no strategy knob (it sleeps on in-region futex words), so
/// the ablation drives `WaitQueue` directly (its `park` is the engine's
/// futex word): a cross-thread ping-pong over two of them, one
/// `wait(_, strategy)` wake-up each way per round trip.
fn a3_wait(budget: Budget) -> Output {
    let pingpong = |strategy| -> Workload {
        Box::new(move |rounds| {
            let (ping, pong) = (Lane::default(), Lane::default());
            steady_section(2, |pid, go| {
                go();
                for i in 1..=rounds {
                    if pid.index() == 0 {
                        ping.post();
                        pong.await_count(i, strategy);
                    } else {
                        ping.await_count(i, strategy);
                        pong.post();
                    }
                }
            })
        })
    };
    let strategies = [WaitStrategy::Spin, WaitStrategy::Yield, WaitStrategy::Park];
    let title = "A3 wait strategy: cross-thread ping-pong round trip (ns)";
    let points = strategies.map(pingpong).into();
    one_row(title, &["spin", "yield", "park"], points, budget).into()
}

/// A two-party stream of `len`-byte messages through the general LNVC (one
/// FCFS receiver of `fanout`) against a §5 variant, both across two
/// threads; nanoseconds per message.
fn stream(title: &str, len: usize, name: &str, variant: Workload, budget: Budget) -> Output {
    let lnvc = fanout(Protocol::Fcfs, len, 1, Rc::<Tally>::default());
    one_row(title, &["general LNVC", name], vec![lnvc, variant], budget).into()
}

/// A4 — §5: "copying of data from a sending buffer to a linked message
/// buffer and then to the receiving buffer is unnecessary; direct data
/// transfer is possible."
fn a4_sync(budget: Budget) -> Output {
    const LEN: usize = 2048;
    let rendezvous: Workload = Box::new(|msgs| {
        let channel = Rendezvous::default();
        steady_section(2, |pid, go| {
            let mut buf = [9u8; LEN];
            go();
            for _ in 0..msgs {
                if pid.index() == 0 {
                    channel.send(&buf);
                } else {
                    channel.recv(&mut buf).expect("recv");
                }
            }
        })
    });
    let title = "A4 sync vs async: 2 KiB two-thread stream (ns per message)";
    stream(title, LEN, "rendezvous", rendezvous, budget)
}

/// A5 — §5: "if only one-to-one communication is implemented, all locking
/// associated with message handling is removed."
fn a5_one2one(budget: Budget) -> Output {
    const LEN: usize = 128;
    let lock_free: Workload = Box::new(|msgs| {
        let (tx, rx) = one2one(64 * 1024);
        // Each half moves into the thread that uses it.
        let (tx, rx) = (Mutex::new(Some(tx)), Mutex::new(Some(rx)));
        steady_section(2, |pid, go| {
            let mut buf = [4u8; LEN];
            if pid.index() == 0 {
                let mut tx = tx.lock().expect("unshared").take().expect("taken once");
                go();
                for _ in 0..msgs {
                    tx.send(&buf).expect("send");
                }
            } else {
                let mut rx = rx.lock().expect("unshared").take().expect("taken once");
                go();
                for _ in 0..msgs {
                    rx.recv(&mut buf).expect("recv");
                }
            }
        })
    });
    let title = "A5 one-to-one: 128 B two-thread stream (ns per message)";
    stream(title, LEN, "one-to-one", lock_free, budget)
}

/// A6 — the scan receive removes the *second* copy (the first, into
/// blocks, is inherent to the asynchronous model).
fn a6_zero_copy(budget: Budget) -> Output {
    let cfg = (MpfConfig::new(4, 2).with_block_payload(64)).with_total_blocks(8192);
    let point = |round, len: u32| loopback(anon(&cfg), len as usize, round);
    let rounds = [Round::Single, Round::Scan];
    let mut points = Vec::from_iter(
        rounds
            .iter()
            .flat_map(|&r| A6_LENGTHS.map(|len| point(r, len))),
    );
    let ns = measure(&mut points, budget);
    let title = "A6 zero-copy: loop-back round trip (ns) vs message length, 64 B blocks";
    let curves = ["buffered receive", "scan receive"].map(String::from);
    fold(title, &curves, &axis(&A6_LENGTHS), &ns, ns_per_iter).into()
}

/// A7 — §5's closing research question: "the effect of the parallel
/// programming paradigm (message passing or shared memory) on application
/// performance".  One table, two rows would need two x values; they are
/// two tables of one row.
fn a7_paradigm(budget: Budget) -> Output {
    let (a, b) = (Matrix::random_diag_dominant(32, 404), random_rhs(32, 404));
    let columns = ["sequential", "message passing", "shared memory"];
    let gauss: Vec<Workload> = vec![
        repeat(|| gauss_jordan::solve_sequential(&a, &b)),
        repeat(|| gauss_jordan::solve_mpf(&a, &b, 2)),
        repeat(|| gauss_jordan::solve_shared(&a, &b, 2)),
    ];
    let sor: Vec<Workload> = vec![
        repeat(|| grid::solve_sequential(&mut Grid::zeros(17), 0.0, 40)),
        repeat(|| sor::solve_mpf(17, 2, 0.0, 40)),
        repeat(|| sor::solve_shared(17, 4, 0.0, 40)),
    ];
    let gauss_title = "A7 paradigm: 32x32 Gauss-Jordan, 2 workers (ns per solve)";
    let sor_title = "A7 paradigm: 17x17 SOR, 40 iterations, 4 workers (ns per solve)";
    Output {
        figures: vec![
            one_row(gauss_title, &columns, gauss, budget),
            one_row(sor_title, &columns, sor, budget),
        ],
        ..Output::default()
    }
}
