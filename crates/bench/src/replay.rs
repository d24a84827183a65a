//! Bridges a native run's trace-ring records (what it did) to
//! `mpf_sim::replay::ReplaySchedule` (what it would cost on the Balance
//! 21000).

use std::collections::HashMap;

use mpf::{Mpf, MpfConfig, ProcessId, Protocol};
use mpf_shm::tracering::{
    TraceEvent, TRACE_RING_SLOTS, TR_RECV, TR_RECV_B, TR_RECV_BLOCK, TR_SEND,
};
use mpf_sim::replay::{ReplayOp, ReplaySchedule};

/// A complete capture of every process's trace ring: `(pid, record)`
/// pairs, ring by ring, each ring in its own record order.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// The records.
    pub events: Vec<(u32, TraceEvent)>,
}

/// Paper-style reduction of a [`TracedRun`].
#[derive(Debug, Clone, PartialEq)]
pub struct NativeSummary {
    /// Wall-clock span of the capture in nanoseconds.
    pub span_ns: u64,
    /// `message_send` count.
    pub sends: u64,
    /// Delivery count (each broadcast delivery counts).
    pub receives: u64,
    /// Bytes through `message_send`.
    pub bytes_sent: u64,
    /// Times any receiver blocked.
    pub recv_blocks: u64,
    /// Sent-side throughput over the span, bytes/second.
    pub send_throughput: f64,
    /// Mean send→receive latency over deliveries matched to their send
    /// by message stamp, both records dated, ns.
    pub mean_latency_ns: f64,
    /// Maximum matched latency, ns.
    pub max_latency_ns: u64,
    /// Dated deliveries matched to a dated send.
    pub matched: u64,
}

impl TracedRun {
    /// Snapshots every trace ring of `mpf`.  Fails unless the capture is
    /// complete: a ring that wrapped or a chain that sampling skipped
    /// would silently thin the schedule being replayed.
    pub fn capture(mpf: &Mpf) -> Result<Self, String> {
        let mut events = Vec::new();
        // Every view reads every process's ring.
        let view = mpf
            .view(ProcessId::from_index(0))
            .map_err(|e| e.to_string())?;
        for idx in 0..mpf.config().max_processes {
            let (recorded, skipped) = view
                .trace_ring_stats(idx)
                .ok_or_else(|| format!("process {idx} has no trace ring"))?;
            if recorded > TRACE_RING_SLOTS as u64 || skipped > 0 {
                return Err(format!(
                    "process {idx} wrote {recorded} trace records into a \
                     {TRACE_RING_SLOTS}-slot ring ({skipped} chains sampled out): \
                     shrink the run"
                ));
            }
            events.extend(view.trace_events(idx).into_iter().map(|e| (idx, e)));
        }
        Ok(Self { events })
    }

    /// Reduces the capture to summary statistics.  Times come from dated
    /// records only (`tstamp` 0 is an undated one): a latency needs both
    /// ends dated, the span its first and last dated record.
    pub fn summary(&self) -> NativeSummary {
        let dated = || self.events.iter().filter(|(_, e)| e.tstamp != 0);
        let sent_at: HashMap<u64, u64> = dated()
            .filter(|(_, e)| e.kind == TR_SEND)
            .map(|(_, e)| (e.stamp, e.tstamp))
            .collect();
        let (mut sends, mut receives, mut bytes_sent, mut recv_blocks) = (0u64, 0u64, 0u64, 0u64);
        let (mut latency_sum, mut max_latency_ns, mut matched) = (0u128, 0u64, 0u64);
        for (_, e) in &self.events {
            match e.kind {
                TR_SEND => {
                    sends += 1;
                    bytes_sent += u64::from(e.arg);
                }
                TR_RECV | TR_RECV_B => {
                    receives += 1;
                    if let (Some(&t0), true) = (sent_at.get(&e.stamp), e.tstamp != 0) {
                        let lat = e.tstamp.saturating_sub(t0);
                        latency_sum += u128::from(lat);
                        max_latency_ns = max_latency_ns.max(lat);
                        matched += 1;
                    }
                }
                TR_RECV_BLOCK => recv_blocks += 1,
                _ => {}
            }
        }
        let stamps = dated().map(|(_, e)| e.tstamp);
        let span_ns = match (stamps.clone().min(), stamps.max()) {
            (Some(first), Some(last)) => last - first,
            _ => 0,
        };
        NativeSummary {
            span_ns,
            sends,
            receives,
            bytes_sent,
            recv_blocks,
            send_throughput: if span_ns == 0 {
                0.0
            } else {
                bytes_sent as f64 / (span_ns as f64 / 1e9)
            },
            mean_latency_ns: if matched == 0 {
                0.0
            } else {
                latency_sum as f64 / matched as f64
            },
            max_latency_ns,
            matched,
        }
    }
}

/// Converts a capture into a replay schedule: every `TR_SEND`, `TR_RECV`
/// and `TR_RECV_B` record becomes the matching replay op of its process.
/// `cycles_per_ns` scales host gaps to Balance cycles — `0.0` drops
/// think-time entirely (pure communication replay).
pub fn trace_to_schedule(run: &TracedRun, cycles_per_ns: f64) -> ReplaySchedule {
    let timed: Vec<(u32, u64, ReplayOp)> = run
        .events
        .iter()
        .filter_map(|&(pid, e)| {
            let lnvc = e.lnvc as usize;
            let op = match e.kind {
                TR_SEND => ReplayOp::Send {
                    lnvc,
                    len: e.arg as usize,
                },
                TR_RECV => ReplayOp::RecvFcfs { lnvc },
                TR_RECV_B => ReplayOp::RecvBroadcast { lnvc },
                _ => return None,
            };
            Some((pid, e.tstamp, op))
        })
        .collect();
    ReplaySchedule::from_timed_ops(&timed, cycles_per_ns)
}

/// Runs a small native workload (`senders` → one FCFS receiver, `msgs` ×
/// `len` bytes each) and returns the capture of its trace rings.  The
/// receiver writes up to four records per message (receive, reclaim,
/// block marker, wakeup), so `senders * msgs` must stay near a quarter
/// of [`TRACE_RING_SLOTS`] for the capture to be complete.  Every message
/// is timed (latency sample period 1), because the replay schedules each
/// op by its record's date.
pub fn traced_fanin(senders: usize, msgs: u64, len: usize) -> Result<TracedRun, String> {
    let cfg = MpfConfig::new(8, senders as u32 + 1)
        .with_total_blocks(8192)
        .latency_sample_rate(1);
    let mpf = Mpf::init(cfg).expect("init");
    // Open the receive connection before any sender thread exists: if the
    // senders ran to completion (send + close) first, the conversation
    // would be deleted and the stream discarded (paper §3.2).
    let rx = mpf
        .receiver(
            ProcessId::from_index(senders),
            "traced:fanin",
            Protocol::Fcfs,
        )
        .expect("rx");
    std::thread::scope(|s| {
        for i in 0..senders {
            let mpf = &mpf;
            s.spawn(move || {
                let tx = mpf
                    .sender(ProcessId::from_index(i), "traced:fanin")
                    .expect("tx");
                let payload = vec![i as u8; len];
                for _ in 0..msgs {
                    tx.send(&payload).expect("send");
                }
            });
        }
        let rx = &rx;
        s.spawn(move || {
            let mut buf = vec![0u8; len.max(1)];
            for _ in 0..senders as u64 * msgs {
                rx.recv(&mut buf).expect("recv");
            }
        });
    });
    drop(rx);
    TracedRun::capture(&mpf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpf_sim::{replay, CostModel, MachineConfig};

    #[test]
    fn native_trace_replays_on_the_model() {
        let run = traced_fanin(2, 15, 64).expect("zero-loss capture");
        let summary = run.summary();
        assert_eq!(summary.sends, 30);
        assert_eq!(summary.receives, 30);
        assert_eq!(summary.bytes_sent, 30 * 64);
        assert_eq!(summary.matched, 30, "every delivery matched by stamp");

        let schedule = trace_to_schedule(&run, 0.0);
        assert_eq!(schedule.total_sends(), 30);
        let machine = MachineConfig::balance21000();
        let costs = CostModel::calibrated(&machine);
        let report = replay::replay(&machine, &costs, &schedule);
        assert_eq!(report.msgs_sent, 30);
        assert_eq!(report.msgs_received, 30);
        assert!(report.elapsed_secs > 0.0);
    }

    #[test]
    fn think_time_scaling_lengthens_the_replay() {
        let run = traced_fanin(1, 10, 32).expect("zero-loss capture");
        let machine = MachineConfig::balance21000();
        let costs = CostModel::calibrated(&machine);
        let no_think = replay::replay(&machine, &costs, &trace_to_schedule(&run, 0.0));
        let with_think = replay::replay(&machine, &costs, &trace_to_schedule(&run, 0.05));
        assert!(with_think.elapsed_cycles >= no_think.elapsed_cycles);
    }

    #[test]
    fn capture_refuses_a_wrapped_ring() {
        // 400 messages put at least 800 records in the receiver's ring.
        let err = traced_fanin(1, 400, 8).expect_err("ring wrapped");
        assert!(err.contains("shrink the run"), "{err}");
    }
}
