//! Thread-backed measurements of the real `mpf` library (native mode).
//!
//! These reproduce the paper's benchmark *programs*; the numbers they
//! yield are a property of the host (core count, memory hierarchy), not of
//! the Balance 21000 — see the crate docs.  Termination uses the classic
//! poison-message idiom: after the payload stream, the sender emits one
//! zero-length message per receiver; a receiver that consumes a poison
//! leaves the conversation (every payload message in these benchmarks is
//! non-empty, so zero length is unambiguous).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use mpf::{Mpf, MpfConfig, ProcessId, Protocol};
use mpf_shm::barrier::SpinBarrier;
use mpf_shm::process::run_processes;
use mpf_shm::SmallRng;

fn config(processes: u32) -> MpfConfig {
    MpfConfig::new(64.max(processes * 2), processes + 1)
        .with_block_payload(64)
        .with_total_blocks(16 * 1024)
        .with_max_messages(4096)
        // The fully connected `random` pattern opens ~P² send connections.
        .with_max_connections(processes * processes + 8 * processes + 64)
}

/// `base`: loop-back send/receive of `iters` messages of `len` bytes on a
/// single process.  Returns bytes/second (Figure 3's metric).
/// `observed` switches telemetry and tracing on or off together, the
/// same pair `fig3_ipc --no-telemetry` switches on the ipc series.
pub fn base_throughput(len: usize, iters: u64, observed: bool) -> f64 {
    let cfg = config(1)
        .with_telemetry(observed)
        .trace_sample_rate(u32::from(observed));
    let mpf = Mpf::init(cfg).expect("init");
    let p = ProcessId::from_index(0);
    let tx = mpf.sender(p, "bench:base").expect("tx");
    let rx = mpf.receiver(p, "bench:base", Protocol::Fcfs).expect("rx");
    let payload = vec![0xA5u8; len];
    let mut buf = vec![0u8; len.max(1)];
    let start = Instant::now();
    for _ in 0..iters {
        tx.send(&payload).expect("send");
        rx.recv(&mut buf).expect("recv");
    }
    let secs = start.elapsed().as_secs_f64();
    (iters as usize * len) as f64 / secs
}

/// `fcfs`: one sender, `receivers` FCFS receivers.  Returns sent-side
/// bytes/second (Figure 4's metric).
pub fn fcfs_throughput(len: usize, receivers: u32, msgs: u64) -> f64 {
    assert!(len >= 1, "poison messages are zero-length");
    let mpf = Mpf::init(config(receivers + 1)).expect("init");
    let ready = SpinBarrier::new(receivers + 1);
    let start = Instant::now();
    run_processes(receivers as usize + 1, |pid| {
        if pid.index() == 0 {
            // All receivers must connect before the sender can finish and
            // close — otherwise the close deletes the conversation and
            // discards the stream (the paper's §3.2 hazard, very real on
            // a single-CPU host where the sender can run to completion
            // before any receiver is scheduled).
            ready.wait();
            let tx = mpf.sender(pid, "bench:fcfs").expect("tx");
            let payload = vec![0x5Au8; len];
            for _ in 0..msgs {
                tx.send(&payload).expect("send");
            }
            for _ in 0..receivers {
                tx.send(&[]).expect("poison");
            }
        } else {
            let rx = mpf.receiver(pid, "bench:fcfs", Protocol::Fcfs).expect("rx");
            ready.wait();
            loop {
                let msg = rx.recv_vec().expect("recv");
                if msg.is_empty() {
                    break;
                }
            }
        }
    });
    let secs = start.elapsed().as_secs_f64();
    (msgs as usize * len) as f64 / secs
}

/// `broadcast`: one sender, `receivers` BROADCAST receivers.  Returns
/// *effective* (delivered) bytes/second (Figure 5's metric).
pub fn broadcast_throughput(len: usize, receivers: u32, msgs: u64) -> f64 {
    assert!(len >= 1);
    let mpf = Mpf::init(config(receivers + 1)).expect("init");
    let ready = SpinBarrier::new(receivers + 1);
    let start = Instant::now();
    run_processes(receivers as usize + 1, |pid| {
        if pid.index() == 0 {
            // Receivers must join before the first send or they miss the
            // stream (late broadcast joiners start at the tail).
            ready.wait();
            let tx = mpf.sender(pid, "bench:bcast").expect("tx");
            let payload = vec![0x3Cu8; len];
            for _ in 0..msgs {
                tx.send(&payload).expect("send");
            }
            tx.send(&[]).expect("poison");
        } else {
            let rx = mpf
                .receiver(pid, "bench:bcast", Protocol::Broadcast)
                .expect("rx");
            ready.wait();
            loop {
                let msg = rx.recv_vec().expect("recv");
                if msg.is_empty() {
                    break;
                }
            }
        }
    });
    let secs = start.elapsed().as_secs_f64();
    (receivers as u64 * msgs) as f64 * len as f64 / secs
}

/// `random`: `procs` fully connected processes, random destinations,
/// drain-after-send.  Returns sent-side bytes/second (Figure 6's metric).
pub fn random_throughput(len: usize, procs: u32, msgs_per_proc: u64, seed: u64) -> f64 {
    assert!(procs >= 2);
    let mpf = Mpf::init(config(procs)).expect("init");
    let setup = SpinBarrier::new(procs);
    let sent_done = SpinBarrier::new(procs);
    let bytes_sent = AtomicU64::new(0);
    let start = Instant::now();
    run_processes(procs as usize, |pid| {
        let me = pid.index();
        // Everyone opens a receive on its own LNVC and a send on every
        // other process's LNVC (the fully connected pattern).
        let rx = mpf
            .receiver(pid, &format!("bench:rand:{me}"), Protocol::Fcfs)
            .expect("rx");
        let txs: Vec<_> = (0..procs as usize)
            .filter(|&d| d != me)
            .map(|d| mpf.sender(pid, &format!("bench:rand:{d}")).expect("tx"))
            .collect();
        setup.wait();

        let mut rng = SmallRng::seed_from_u64(seed ^ (me as u64) << 32);
        let payload = vec![me as u8; len];
        let mut buf = vec![0u8; len.max(1)];
        for _ in 0..msgs_per_proc {
            let dest = rng.gen_range(0..txs.len());
            txs[dest].send(&payload).expect("send");
            bytes_sent.fetch_add(len as u64, Ordering::Relaxed);
            // "Each time a process executes a message_send(), it then
            // receives all messages that are queued in its LNVC."
            while rx.try_recv(&mut buf).expect("try_recv").is_some() {}
        }
        sent_done.wait();
        // All sends are enqueued; drain what's left for us.
        while rx.try_recv(&mut buf).expect("drain").is_some() {}
    });
    let secs = start.elapsed().as_secs_f64();
    bytes_sent.load(Ordering::Relaxed) as f64 / secs
}

/// Gauss-Jordan native speedup: sequential time over MPF time (Figure 7's
/// metric, measured on the host).
pub fn gauss_speedup(n: usize, workers: usize, seed: u64) -> f64 {
    use mpf_apps::gauss_jordan::{solve_mpf, solve_sequential};
    use mpf_apps::linalg::{random_rhs, Matrix};
    let a = Matrix::random_diag_dominant(n, seed);
    let b = random_rhs(n, seed);

    let t0 = Instant::now();
    let _x = solve_sequential(&a, &b);
    let seq = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let _x = solve_mpf(&a, &b, workers);
    let par = t1.elapsed().as_secs_f64();
    seq / par
}

/// SOR native per-iteration time in seconds for an `n × n` process grid
/// (Figure 8 compares these across `n`).
pub fn sor_iteration_secs(p: usize, n: usize, iters: usize) -> f64 {
    use mpf_apps::sor::solve_mpf;
    let t = Instant::now();
    let run = solve_mpf(p, n, 0.0, iters);
    debug_assert_eq!(run.iters, iters);
    t.elapsed().as_secs_f64() / iters as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_produces_positive_throughput() {
        assert!(base_throughput(128, 50, true) > 0.0);
        assert!(base_throughput(128, 50, false) > 0.0);
    }

    #[test]
    fn fcfs_runs_with_multiple_receivers() {
        let t = fcfs_throughput(64, 3, 40);
        assert!(t > 0.0);
    }

    #[test]
    fn broadcast_effective_exceeds_sent() {
        // 4 receivers each get every byte: delivered = 4 × sent.
        let t = broadcast_throughput(64, 4, 30);
        assert!(t > 0.0);
    }

    #[test]
    fn random_runs_fully_connected() {
        let t = random_throughput(32, 4, 20, 99);
        assert!(t > 0.0);
    }

    #[test]
    fn gauss_speedup_is_finite() {
        let s = gauss_speedup(12, 2, 5);
        assert!(s.is_finite() && s > 0.0);
    }

    #[test]
    fn sor_iteration_time_positive() {
        let t = sor_iteration_secs(9, 2, 5);
        assert!(t > 0.0);
    }
}
