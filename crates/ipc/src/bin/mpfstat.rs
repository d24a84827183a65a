//! `mpfstat` — inspect a named MPF shared-memory region, live or dead.
//!
//! ```text
//! mpfstat <region-name> [--json] [--watch [seconds]] [--ring N] [--trace]
//! ```
//!
//! Attaches **read-only** ([`RegionInspector`]): no process slot is
//! claimed, no lock taken, no byte written, so it is safe to point at a
//! region whose writers are running — or crashed.  Prints the process
//! table (liveness, and who is stuck on what: asleep on its doorbell,
//! watching how many conversations, waiting for pool memory), the LNVC
//! table (queue depths, protocols, poison state), facility counters,
//! latency/size percentiles, and the last events of each process that
//! ever wrote a trace ring.
//!
//! `--json` emits one machine-readable document instead (hand-rolled —
//! the workspace is dependency-free by design).  `--watch` re-samples
//! every `seconds` (default 1), printing counter deltas per interval
//! with sparkline rate history.  `--trace` switches to the trace-ring
//! subview: per-process ring occupancy/drops plus the same record tails
//! (`--ring N` sets their length), the raw material `mpf-trace`
//! reconstructs chains from.

use std::fmt::Write as _;
use std::time::Duration;

use mpf_ipc::inspect::{RegionInspector, TraceRingInfo};
use mpf_shm::telemetry::{HistSnapshot, TelSnapshot};
use mpf_shm::tracering::trace_event_name;

const USAGE: &str =
    "usage: mpfstat <region-name> [--json] [--watch [seconds]] [--ring N] [--trace]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut name = None;
    let mut json = false;
    let mut trace = false;
    let mut watch: Option<Duration> = None;
    let mut ring_tail = 16usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--trace" => trace = true,
            "--watch" => {
                let secs = args
                    .get(i + 1)
                    .and_then(|s| s.parse::<f64>().ok())
                    .inspect(|_| i += 1)
                    .unwrap_or(1.0);
                watch = Some(Duration::from_secs_f64(secs.max(0.05)));
            }
            "--ring" => {
                if let Some(n) = args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                    ring_tail = n;
                    i += 1;
                }
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return;
            }
            other if name.is_none() && !other.starts_with('-') => name = Some(other.to_string()),
            other => {
                eprintln!("mpfstat: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let Some(name) = name else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };

    let insp = match RegionInspector::attach(&name) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("mpfstat: cannot attach `{name}`: {e}");
            std::process::exit(1);
        }
    };

    match watch {
        None => {
            let out = match (trace, json) {
                (true, true) => render_trace_json(&insp, ring_tail),
                (true, false) => render_trace_text(&insp, ring_tail),
                (false, true) => render_json(&insp, ring_tail),
                (false, false) => render_text(&insp, ring_tail, &[]),
            };
            println!("{out}");
        }
        Some(interval) => {
            let mut prev = insp.telemetry_snapshot();
            // Per-interval counter deltas, oldest first — the raw series
            // the sparklines are drawn from.
            let mut history: Vec<TelSnapshot> = Vec::new();
            loop {
                std::thread::sleep(interval);
                let now = insp.telemetry_snapshot();
                history.push(now.diff(&prev));
                if history.len() > SPARK_WIDTH {
                    history.remove(0);
                }
                let out = if trace {
                    format!("\x1b[2J\x1b[H{}", render_trace_text(&insp, ring_tail))
                } else if json {
                    render_json(&insp, ring_tail)
                } else {
                    // ANSI clear-screen + home keeps the table in place.
                    format!("\x1b[2J\x1b[H{}", render_text(&insp, ring_tail, &history))
                };
                println!("{out}");
                prev = now;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sparklines
// ---------------------------------------------------------------------------

/// Intervals of history a `--watch` sparkline spans.
const SPARK_WIDTH: usize = 32;

const SPARK_RAMP: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// One block glyph per value, scaled to the series maximum (a flat-zero
/// series renders as a baseline).
fn spark(values: impl Iterator<Item = u64>) -> String {
    let values: Vec<u64> = values.collect();
    let max = values.iter().copied().max().unwrap_or(0);
    values
        .iter()
        .map(|&v| {
            if max == 0 || v == 0 {
                SPARK_RAMP[0]
            } else {
                SPARK_RAMP[1 + (v * 6 / max) as usize]
            }
        })
        .collect()
}

/// Histogram bucket profile, trimmed to the occupied prefix.
fn hist_spark(h: &HistSnapshot) -> String {
    let last = match h.buckets.iter().rposition(|&b| b != 0) {
        Some(i) => i,
        None => return String::new(),
    };
    format!("  [{}]", spark(h.buckets[..=last].iter().copied()))
}

// ---------------------------------------------------------------------------
// Text rendering
// ---------------------------------------------------------------------------

fn render_text(insp: &RegionInspector, ring_tail: usize, history: &[TelSnapshot]) -> String {
    let mut s = String::new();
    let cfg = insp.config();
    let _ = writeln!(
        s,
        "region {} — {} bytes, telemetry {}",
        insp.name(),
        insp.region_bytes(),
        if insp.telemetry_enabled() {
            "on"
        } else {
            "off"
        },
    );
    let _ = writeln!(
        s,
        "config: {} lnvcs, {} processes, {} messages, {} blocks × {} B; {} total sends, sweep epoch {}, {} waiting for pool memory, telemetry fold seq {}",
        cfg.max_lnvcs,
        cfg.max_processes,
        cfg.max_messages,
        cfg.total_blocks,
        cfg.block_payload,
        insp.next_stamp(),
        insp.sweep_epoch(),
        insp.pool_waiters(),
        insp.tel_fold_seq(),
    );

    let _ = writeln!(s, "\nprocesses:");
    let _ = writeln!(
        s,
        "  {:>4} {:>9} {:>8} {:>6} {:>10} {:>4} {:>9} {:>6} {:>8} {:>8}",
        "pid",
        "state",
        "os-pid",
        "alive",
        "heartbeat",
        "gen",
        "doorbell",
        "asleep",
        "watching",
        "mem-wait"
    );
    for p in insp.processes() {
        if p.state == "free" && p.heartbeat == 0 {
            continue; // never used
        }
        let yes_no = |b: bool| if b { "yes" } else { "-" };
        let _ = writeln!(
            s,
            "  {:>4} {:>9} {:>8} {:>6} {:>10} {:>4} {:>9} {:>6} {:>8} {:>8}",
            p.pid,
            p.state,
            p.os_pid,
            if p.state == "attached" {
                if p.alive {
                    "yes"
                } else {
                    "NO"
                }
            } else {
                "-"
            },
            p.heartbeat,
            p.generation,
            p.doorbell,
            yes_no(p.asleep),
            p.watching,
            yes_no(p.mem_wait),
        );
    }

    let lnvcs = insp.lnvcs();
    let _ = writeln!(s, "\nlnvcs ({} active):", lnvcs.len());
    let _ = writeln!(
        s,
        "  {:>3} {:<16} {:>6} {:>7} {:>4} {:>5} {:>6} {:>7} {:>7} {:>5} {:>8}",
        "idx",
        "name",
        "queued",
        "reclaim",
        "tx",
        "fcfs",
        "bcast",
        "sends",
        "recvs",
        "hwm",
        "poison"
    );
    for l in &lnvcs {
        let _ = writeln!(
            s,
            "  {:>3} {:<16} {:>6} {:>7} {:>4} {:>5} {:>6} {:>7} {:>7} {:>5} {:>8}",
            l.index,
            l.name,
            l.queued,
            l.reclaimable,
            l.n_senders,
            l.n_fcfs,
            l.n_bcast,
            l.tel.sends,
            l.tel.receives,
            l.tel.depth_hwm,
            if l.poisoned {
                format!("pid {}", l.dead_pid)
            } else {
                "-".into()
            },
        );
        if l.tel.sends > 0 {
            let (size, lat) = (
                hist_line(&l.tel.sizes, "B"),
                hist_line(&l.tel.latency, "ns"),
            );
            let _ = writeln!(s, "      size {size}\n      lat  {lat}");
        }
    }

    let t = insp.telemetry_snapshot();
    let _ = writeln!(s, "\ncounters:");
    let _ = writeln!(
        s,
        "  sends {}  receives {}  bytes-in {}  bytes-out {}",
        t.sends, t.receives, t.bytes_in, t.bytes_out
    );
    let _ = writeln!(
        s,
        "  recv-waits {}  send-waits {}  reclaims {}  lock-contended {}",
        t.recv_waits, t.send_waits, t.reclaims, t.lock_contended
    );
    let _ = writeln!(
        s,
        "  lnvcs created {} / deleted {}  sweeps {}  peers-died {}",
        t.lnvcs_created, t.lnvcs_deleted, t.sweeps, t.peers_died
    );
    if let Some(d) = history.last() {
        let _ = writeln!(
            s,
            "  Δ interval: sends {}  receives {}  bytes-in {}  bytes-out {}",
            d.sends, d.receives, d.bytes_in, d.bytes_out
        );
        let _ = writeln!(
            s,
            "  sends/ivl    {}\n  receives/ivl {}\n  bytes-in/ivl {}",
            spark(history.iter().map(|d| d.sends)),
            spark(history.iter().map(|d| d.receives)),
            spark(history.iter().map(|d| d.bytes_in)),
        );
    }
    let _ = writeln!(
        s,
        "\nmessage size   {}{}",
        hist_line(&t.size_hist, "B"),
        hist_spark(&t.size_hist)
    );
    let _ = writeln!(
        s,
        "send→recv lat  {}{}",
        hist_line(&t.latency_hist, "ns"),
        hist_spark(&t.latency_hist)
    );

    let rings: Vec<_> = insp
        .aio_rings()
        .into_iter()
        .filter(|r| r.stats.submitted > 0 || r.stats.sq_depth > 0 || r.stats.cq_depth > 0)
        .collect();
    if !rings.is_empty() {
        let _ = writeln!(s, "\naio rings:");
        let _ = writeln!(
            s,
            "  {:>4} {:>8} {:>8} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8}",
            "pid",
            "sq-depth",
            "cq-depth",
            "submitted",
            "drained",
            "completed",
            "reaped",
            "sq-bell",
            "cq-bell"
        );
        for r in &rings {
            let _ = writeln!(
                s,
                "  {:>4} {:>8} {:>8} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8}",
                r.pid,
                r.stats.sq_depth,
                r.stats.cq_depth,
                r.stats.submitted,
                r.stats.drained,
                r.stats.completed,
                r.stats.reaped,
                r.stats.sq_doorbells,
                r.stats.cq_doorbells,
            );
        }
    }

    trace_tails(&mut s, insp, &active_trace_rings(insp), ring_tail);
    s
}

fn hist_line(h: &HistSnapshot, unit: &str) -> String {
    if h.count == 0 {
        return "(no samples)".into();
    }
    format!(
        "n={} mean={:.0}{unit} p50={}{unit} p99={}{unit} max={}{unit}",
        h.count,
        h.mean(),
        h.percentile(0.50),
        h.percentile(0.99),
        h.max,
    )
}

// ---------------------------------------------------------------------------
// JSON rendering (no deps: escape + emit by hand)
// ---------------------------------------------------------------------------

fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn jhist(h: &HistSnapshot) -> String {
    format!(
        "{{\"count\":{},\"sum\":{},\"max\":{},\"mean\":{:.1},\"p50\":{},\"p99\":{},\"buckets\":[{}]}}",
        h.count,
        h.sum,
        h.max,
        h.mean(),
        h.percentile(0.50),
        h.percentile(0.99),
        h.buckets
            .iter()
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join(","),
    )
}

fn render_json(insp: &RegionInspector, ring_tail: usize) -> String {
    let cfg = insp.config();
    let t = insp.telemetry_snapshot();

    let procs = insp
        .processes()
        .iter()
        .map(|p| {
            format!(
                "{{\"pid\":{},\"state\":{},\"os_pid\":{},\"alive\":{},\"heartbeat\":{},\"generation\":{},\
                 \"doorbell\":{},\"asleep\":{},\"watching\":{},\"mem_wait\":{}}}",
                p.pid,
                jstr(p.state),
                p.os_pid,
                p.alive,
                p.heartbeat,
                p.generation,
                p.doorbell,
                p.asleep,
                p.watching,
                p.mem_wait
            )
        })
        .collect::<Vec<_>>()
        .join(",");

    let lnvcs = insp
        .lnvcs()
        .iter()
        .map(|l| {
            format!(
                "{{\"index\":{},\"name\":{},\"generation\":{},\"queued\":{},\"reclaimable\":{},\
                 \"n_senders\":{},\"n_fcfs\":{},\"n_bcast\":{},\"next_seq\":{},\"poisoned\":{},\
                 \"dead_pid\":{},\"sends\":{},\"receives\":{},\"bytes_in\":{},\"bytes_out\":{},\
                 \"recv_waits\":{},\"reclaims\":{},\"depth_hwm\":{},\"latency\":{},\"sizes\":{}}}",
                l.index,
                jstr(&l.name),
                l.generation,
                l.queued,
                l.reclaimable,
                l.n_senders,
                l.n_fcfs,
                l.n_bcast,
                l.next_seq,
                l.poisoned,
                l.dead_pid,
                l.tel.sends,
                l.tel.receives,
                l.tel.bytes_in,
                l.tel.bytes_out,
                l.tel.recv_waits,
                l.tel.reclaims,
                l.tel.depth_hwm,
                jhist(&l.tel.latency),
                jhist(&l.tel.sizes),
            )
        })
        .collect::<Vec<_>>()
        .join(",");

    let rings = trace_rings_json(insp, ring_tail);

    let aio = insp
        .aio_rings()
        .iter()
        .map(|r| {
            format!(
                "{{\"pid\":{},\"sq_depth\":{},\"cq_depth\":{},\"sq_doorbells\":{},\"cq_doorbells\":{},\
                 \"submitted\":{},\"drained\":{},\"completed\":{},\"reaped\":{}}}",
                r.pid,
                r.stats.sq_depth,
                r.stats.cq_depth,
                r.stats.sq_doorbells,
                r.stats.cq_doorbells,
                r.stats.submitted,
                r.stats.drained,
                r.stats.completed,
                r.stats.reaped,
            )
        })
        .collect::<Vec<_>>()
        .join(",");

    format!(
        "{{\"region\":{},\"region_bytes\":{},\"telemetry\":{},\"next_stamp\":{},\"sweep_epoch\":{},\"pool_waiters\":{},\"tel_fold_seq\":{},\
         \"config\":{{\"max_lnvcs\":{},\"max_processes\":{},\"max_messages\":{},\"total_blocks\":{},\"block_payload\":{}}},\
         \"counters\":{{\"sends\":{},\"receives\":{},\"bytes_in\":{},\"bytes_out\":{},\
         \"recv_waits\":{},\"send_waits\":{},\"reclaims\":{},\"lnvcs_created\":{},\"lnvcs_deleted\":{},\
         \"lock_contended\":{},\"sweeps\":{},\"peers_died\":{}}},\
         \"size_hist\":{},\"latency_hist\":{},\"aio_rings\":[{aio}],\
         \"processes\":[{procs}],\"lnvcs\":[{lnvcs}],\"trace_rings\":[{rings}]}}",
        jstr(insp.name()),
        insp.region_bytes(),
        insp.telemetry_enabled(),
        insp.next_stamp(),
        insp.sweep_epoch(),
        insp.pool_waiters(),
        insp.tel_fold_seq(),
        cfg.max_lnvcs,
        cfg.max_processes,
        cfg.max_messages,
        cfg.total_blocks,
        cfg.block_payload,
        t.sends,
        t.receives,
        t.bytes_in,
        t.bytes_out,
        t.recv_waits,
        t.send_waits,
        t.reclaims,
        t.lnvcs_created,
        t.lnvcs_deleted,
        t.lock_contended,
        t.sweeps,
        t.peers_died,
        jhist(&t.size_hist),
        jhist(&t.latency_hist),
    )
}

// ---------------------------------------------------------------------------
// Trace rings: last-events tails (every view) and the `--trace` subview
// ---------------------------------------------------------------------------

/// Rings that were ever written to (or sampled around).
fn active_trace_rings(insp: &RegionInspector) -> Vec<TraceRingInfo> {
    insp.trace_rings()
        .into_iter()
        .filter(|r| r.recorded > 0 || r.sampled_out > 0)
        .collect()
}

/// The last `ring_tail` records of each ring, oldest first: what each
/// process — attached, detached or dead — did last.
fn trace_tails(s: &mut String, insp: &RegionInspector, rings: &[TraceRingInfo], ring_tail: usize) {
    let procs = insp.processes();
    for r in rings {
        let ev = insp.trace_events(r.pid);
        if ev.is_empty() {
            continue;
        }
        let _ = writeln!(
            s,
            "\nlast events, mpf pid {} (os pid {}, {}):",
            r.pid, r.writer_pid, procs[r.pid as usize].state
        );
        for e in ev.iter().rev().take(ring_tail).rev() {
            let _ = writeln!(
                s,
                "  #{:<6} t={} {:<12} trace={:#x} hop={} stamp={} lnvc={} arg={} arg2={}",
                e.seq,
                e.tstamp,
                trace_event_name(e.kind),
                e.trace,
                e.hop,
                e.stamp,
                if e.lnvc == u32::MAX {
                    "-".into()
                } else {
                    e.lnvc.to_string()
                },
                e.arg,
                e.arg2,
            );
        }
    }
}

fn render_trace_text(insp: &RegionInspector, ring_tail: usize) -> String {
    let mut s = String::new();
    let every = insp.config().trace_sample_every;
    let _ = writeln!(
        s,
        "region {} — causal tracing {}",
        insp.name(),
        match every {
            0 => "off".to_string(),
            1 => "on (every chain)".to_string(),
            n => format!("on (1-in-{n} chains)"),
        },
    );

    let rings = active_trace_rings(insp);
    let _ = writeln!(s, "\ntrace rings ({} active):", rings.len());
    let _ = writeln!(
        s,
        "  {:>4} {:>8} {:>9} {:>6} {:>6} {:>11}",
        "pid", "os-pid", "recorded", "live", "lost", "sampled-out"
    );
    for r in &rings {
        let _ = writeln!(
            s,
            "  {:>4} {:>8} {:>9} {:>6} {:>6} {:>11}",
            r.pid,
            r.writer_pid,
            r.recorded,
            r.recorded - r.overwritten,
            r.overwritten,
            r.sampled_out,
        );
    }
    trace_tails(&mut s, insp, &rings, ring_tail);
    if rings.is_empty() {
        let _ = writeln!(
            s,
            "\n(no trace records; was the region created with tracing on?)"
        );
    }
    s
}

/// One JSON object per active ring: occupancy plus its record tail.
fn trace_rings_json(insp: &RegionInspector, ring_tail: usize) -> String {
    active_trace_rings(insp)
        .iter()
        .map(|r| {
            let ev = insp.trace_events(r.pid);
            let tail = ev
                .iter()
                .rev()
                .take(ring_tail)
                .rev()
                .map(|e| {
                    format!(
                        "{{\"seq\":{},\"tstamp\":{},\"kind\":{},\"trace\":\"{:#x}\",\
                         \"hop\":{},\"stamp\":{},\"lnvc\":{},\"arg\":{},\"arg2\":{}}}",
                        e.seq,
                        e.tstamp,
                        jstr(trace_event_name(e.kind)),
                        e.trace,
                        e.hop,
                        e.stamp,
                        if e.lnvc == u32::MAX {
                            "null".into()
                        } else {
                            e.lnvc.to_string()
                        },
                        e.arg,
                        e.arg2,
                    )
                })
                .collect::<Vec<_>>()
                .join(",");
            format!(
                "{{\"pid\":{},\"os_pid\":{},\"recorded\":{},\"overwritten\":{},\
                 \"sampled_out\":{},\"events\":[{tail}]}}",
                r.pid, r.writer_pid, r.recorded, r.overwritten, r.sampled_out,
            )
        })
        .collect::<Vec<_>>()
        .join(",")
}

fn render_trace_json(insp: &RegionInspector, ring_tail: usize) -> String {
    format!(
        "{{\"region\":{},\"trace_enabled\":{},\"sample_every\":{},\"trace_rings\":[{}]}}",
        jstr(insp.name()),
        insp.trace_enabled(),
        insp.config().trace_sample_every,
        trace_rings_json(insp, ring_tail),
    )
}
