//! Cross-architecture cost estimation from a measured schedule: captures
//! the trace rings of a native MPF run, then replays the capture on the
//! Balance 21000 model — the paper's §1 "performance penalties when moving
//! from one type architecture to another", answered with data.
//!
//! Usage: `replay_trace [senders] [msgs] [len]` — the run must fit the
//! 512-slot trace rings (`senders * msgs` up to about 120).

use mpf_bench::replay::{trace_to_schedule, traced_fanin};
use mpf_sim::{replay, CostModel, MachineConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let senders: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let msgs: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(30);
    let len: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(256);

    println!("recording: {senders} senders x {msgs} messages x {len} B -> 1 FCFS receiver\n");
    let run = match traced_fanin(senders, msgs, len) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("replay_trace: {e}");
            std::process::exit(2);
        }
    };
    let native = run.summary();
    println!("native host:");
    println!("  span            {:>12.3} ms", native.span_ns as f64 / 1e6);
    println!("  send throughput {:>12.0} B/s", native.send_throughput);
    println!(
        "  mean latency    {:>12.3} us (max {:.3} us, {} matched)",
        native.mean_latency_ns / 1e3,
        native.max_latency_ns as f64 / 1e3,
        native.matched
    );
    println!("  receiver blocked {} times", native.recv_blocks);

    let machine = MachineConfig::balance21000();
    let costs = CostModel::calibrated(&machine);
    let schedule = trace_to_schedule(&run, 0.0);
    let sim = replay::replay(&machine, &costs, &schedule);
    println!("\nreplayed on the Balance 21000 model (communication only):");
    println!("  span            {:>12.3} ms", sim.elapsed_secs * 1e3);
    println!("  send throughput {:>12.0} B/s", sim.send_throughput());
    println!("  bus utilization {:>12.1} %", sim.bus_utilization * 100.0);
    println!("  lock waits      {:>12}", sim.lock_waits);

    let penalty = (native.send_throughput) / sim.send_throughput().max(1e-9);
    println!(
        "\ntype-architecture estimate: this schedule runs ~{penalty:.0}x faster on the host than on a 1987 Balance 21000"
    );
}
