//! What the `mpf-trace` binary prints about a region file.
//!
//! Every view reads through one read-only [`RegionInspector`]; the binary
//! only parses arguments and picks a renderer.  One of each:
//!
//! - one ring table ([`ring_table`]): pid, os-pid, recorded, live, lost,
//!   sampled-out — in the reconstruction summary and in `stat`;
//! - one record line ([`record_line`]) — the `stat` tails and `--follow`;
//! - one ring JSON object, `{pid, os_pid, recorded, overwritten,
//!   sampled_out, events}` — `stat --json` and the summary's `--json`;
//! - one JSON string escaper ([`json_str`]) — the workspace is
//!   dependency-free, so the documents are emitted by hand.

use std::fmt::Write as _;

use mpf::inspect::{RegionInspector, TraceRingInfo};
use mpf_shm::telemetry::{HistSnapshot, TelSnapshot};
use mpf_shm::tracering::{trace_event_name, TraceEvent};

use crate::{Report, TraceLog};

/// Intervals of history a `stat --watch` sparkline spans.
pub const SPARK_WIDTH: usize = 32;

const SPARK_RAMP: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// A JSON string literal: quoted, with `"`, `\` and control characters
/// escaped.
pub fn json_str(s: &str) -> String {
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

/// One trace record on one line (no pid: callers say whose ring it is);
/// an undated record reads `t=-`.
pub fn record_line(e: &TraceEvent) -> String {
    format!(
        "#{:<6} t={} {:<12} trace={:#x} hop={} stamp={} lnvc={} arg={} arg2={}",
        e.seq,
        crate::date(e.tstamp),
        trace_event_name(e.kind),
        e.trace,
        e.hop,
        e.stamp,
        lnvc_or(e.lnvc, "-"),
        e.arg,
        e.arg2,
    )
}

fn lnvc_or(lnvc: u32, none: &str) -> String {
    if lnvc == u32::MAX {
        none.into()
    } else {
        lnvc.to_string()
    }
}

fn join(items: impl Iterator<Item = String>) -> String {
    items.collect::<Vec<_>>().join(",")
}

/// Rings that were ever written to (or sampled around).
fn active_rings(insp: &RegionInspector) -> Vec<TraceRingInfo> {
    insp.trace_rings()
        .into_iter()
        .filter(|r| r.recorded > 0 || r.sampled_out > 0)
        .collect()
}

/// The last `tail` records of a ring, oldest first.
fn ring_tail(insp: &RegionInspector, pid: u32, tail: usize) -> Vec<TraceEvent> {
    let ev = insp.trace_events(pid);
    ev[ev.len().saturating_sub(tail)..].to_vec()
}

/// Occupancy of every active trace ring, under a heading that says
/// whether (and how densely) the region records.
pub fn ring_table(insp: &RegionInspector) -> String {
    let rings = active_rings(insp);
    let tracing = match insp.config().trace_sample_every {
        0 => "off".to_string(),
        1 => "every chain".to_string(),
        n => format!("1-in-{n} chains"),
    };
    let mut s = format!("trace rings ({} active; tracing {tracing}):\n", rings.len());
    s.push_str("   pid   os-pid  recorded   live   lost sampled-out\n");
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
    if rings.is_empty() {
        s.push_str("  (no trace records; was the region created with tracing on?)\n");
    }
    s
}

/// Every active ring as a JSON array of ring objects, each carrying its
/// last `tail` records.
fn rings_json(insp: &RegionInspector, tail: usize) -> String {
    join(active_rings(insp).iter().map(|r| {
        let events = join(ring_tail(insp, r.pid, tail).iter().map(|e| {
            format!(
                "{{\"seq\":{},\"tstamp\":{},\"kind\":{},\"trace\":\"{:#x}\",\
                 \"hop\":{},\"stamp\":{},\"lnvc\":{},\"arg\":{},\"arg2\":{}}}",
                e.seq,
                e.tstamp,
                json_str(trace_event_name(e.kind)),
                e.trace,
                e.hop,
                e.stamp,
                lnvc_or(e.lnvc, "null"),
                e.arg,
                e.arg2,
            )
        }));
        format!(
            "{{\"pid\":{},\"os_pid\":{},\"recorded\":{},\"overwritten\":{},\
             \"sampled_out\":{},\"events\":[{events}]}}",
            r.pid, r.writer_pid, r.recorded, r.overwritten, r.sampled_out,
        )
    }))
}

// The reconstruction summary (`mpf-trace <region> [--json]`)

/// Records, chains, ring occupancy and the conformance report.
pub fn summary_text(insp: &RegionInspector, log: &TraceLog, report: &Report) -> String {
    let mut s = format!(
        "region {}: {} surviving trace records, {} chains reconstructed\n{}",
        insp.name(),
        log.len(),
        log.chains().len(),
        ring_table(insp),
    );
    if report.truncated {
        s.push_str("note: a ring wrapped — completeness rules suppressed past the horizon\n");
    }
    let _ = writeln!(
        s,
        "conformance: {} messages, {} deliveries, {} injected fault(s), {} violation(s)",
        report.messages,
        report.deliveries,
        report.faults,
        report.violations.len()
    );
    for v in &report.violations {
        let _ = writeln!(s, "  {v}");
    }
    s
}

/// The summary as one JSON document (`tail` records per ring).
pub fn summary_json(
    insp: &RegionInspector,
    log: &TraceLog,
    report: &Report,
    tail: usize,
) -> String {
    let violations = join(report.violations.iter().map(|v| {
        format!(
            "{{\"rule\":\"{}\",\"trace\":\"{:#x}\",\"stamp\":{},\"lnvc\":{},\"detail\":{}}}",
            v.rule,
            v.trace,
            v.stamp,
            lnvc_or(v.lnvc, "-1"),
            json_str(&v.detail),
        )
    }));
    format!(
        "{{\"region\":{},\"records\":{},\"chains\":{},\"truncated\":{},\
         \"messages\":{},\"deliveries\":{},\"faults\":{},\"trace_rings\":[{}],\
         \"violations\":[{violations}]}}",
        json_str(insp.name()),
        log.len(),
        log.chains().len(),
        report.truncated,
        report.messages,
        report.deliveries,
        report.faults,
        rings_json(insp, tail),
    )
}

// `--follow`

/// The records written since the previous call, one [`record_line`] each
/// prefixed by its pid.  `last_seq` holds the newest sequence seen per
/// ring (start with zeros); records lost to wrap-around between two calls
/// print as one gap line rather than vanish.
pub fn follow_step(insp: &RegionInspector, last_seq: &mut [u64]) -> String {
    let mut s = String::new();
    for (pid, last) in last_seq.iter_mut().enumerate() {
        let events = insp.trace_events(pid as u32);
        let (Some(oldest), Some(newest)) = (events.first(), events.last()) else {
            continue;
        };
        if newest.seq <= *last {
            continue;
        }
        if *last != 0 && oldest.seq > *last + 1 {
            let lost = oldest.seq - *last - 1;
            let _ = writeln!(
                s,
                "pid {pid:<3} -- gap: {lost} record(s) overwritten before this poll --"
            );
        }
        for e in events.iter().filter(|e| e.seq > *last) {
            let _ = writeln!(s, "pid {pid:<3} {}", record_line(e));
        }
        *last = newest.seq;
    }
    s
}

// `stat`: the process table, conversations, counters and last events

/// One block glyph per value, scaled to the series maximum (a flat-zero
/// series renders as a baseline).
fn spark(values: impl Iterator<Item = u64>) -> String {
    let values: Vec<u64> = values.collect();
    let max = values.iter().copied().max().unwrap_or(0);
    values
        .iter()
        .map(|&v| match v {
            0 => SPARK_RAMP[0],
            v => SPARK_RAMP[1 + (u128::from(v) * 6 / u128::from(max)) as usize],
        })
        .collect()
}

/// Histogram bucket profile, trimmed to the occupied prefix.
fn hist_spark(h: &HistSnapshot) -> String {
    match h.buckets.iter().rposition(|&b| b != 0) {
        Some(last) => format!("  [{}]", spark(h.buckets[..=last].iter().copied())),
        None => String::new(),
    }
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

fn hist_json(h: &HistSnapshot) -> String {
    format!(
        "{{\"count\":{},\"sum\":{},\"max\":{},\"mean\":{:.1},\"p50\":{},\"p99\":{},\"buckets\":[{}]}}",
        h.count,
        h.sum,
        h.max,
        h.mean(),
        h.percentile(0.50),
        h.percentile(0.99),
        join(h.buckets.iter().map(|b| b.to_string())),
    )
}

/// Facility counters by name, in the order both `stat` views print them.
fn counters(t: &TelSnapshot) -> [(&'static str, u64); 12] {
    [
        ("sends", t.sends),
        ("receives", t.receives),
        ("bytes_in", t.bytes_in),
        ("bytes_out", t.bytes_out),
        ("recv_waits", t.recv_waits),
        ("send_waits", t.send_waits),
        ("reclaims", t.reclaims),
        ("lock_contended", t.lock_contended),
        ("lnvcs_created", t.lnvcs_created),
        ("lnvcs_deleted", t.lnvcs_deleted),
        ("sweeps", t.sweeps),
        ("peers_died", t.peers_died),
    ]
}

/// `name value` pairs for text, `-` for `_`.
fn text_fields(cols: &[(&str, u64)]) -> String {
    let cells = cols
        .iter()
        .map(|(k, v)| format!("{} {v}", k.replace('_', "-")));
    cells.collect::<Vec<_>>().join("  ")
}

fn json_fields(cols: &[(&str, u64)]) -> String {
    join(cols.iter().map(|(k, v)| format!("\"{k}\":{v}")))
}

/// The `stat` view as text.  `history` holds per-interval counter deltas,
/// oldest first (empty outside `--watch`); with any, the counters gain a
/// Δ line and sparklines.
pub fn stat_text(insp: &RegionInspector, tail: usize, history: &[TelSnapshot]) -> String {
    let cfg = insp.config();
    let on = insp.telemetry_enabled();
    let telemetry = if on { "on" } else { "off" };
    let mut s = format!(
        "region {} — {} bytes, telemetry {telemetry}\n",
        insp.name(),
        insp.region_bytes()
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

    s.push_str("\nprocesses:\n   pid     state   os-pid  alive  heartbeat  gen  doorbell asleep watching mem-wait\n");
    let procs = insp.processes();
    let yes_no = |b: bool| if b { "yes" } else { "-" };
    for p in procs
        .iter()
        .filter(|p| p.state != "free" || p.heartbeat != 0)
    {
        let alive = match (p.state, p.alive) {
            ("attached", true) => "yes",
            ("attached", false) => "NO",
            _ => "-",
        };
        let _ = writeln!(
            s,
            "  {:>4} {:>9} {:>8} {:>6} {:>10} {:>4} {:>9} {:>6} {:>8} {:>8}",
            p.pid,
            p.state,
            p.os_pid,
            alive,
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
    s.push_str(
        "  idx name             queued reclaim   tx  fcfs  bcast   sends   recvs   hwm   poison\n",
    );
    for l in &lnvcs {
        let poison = if l.poisoned {
            format!("pid {}", l.dead_pid)
        } else {
            "-".into()
        };
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
            poison,
        );
        if l.tel.sends > 0 {
            let _ = writeln!(
                s,
                "      size {}\n      lat  {}",
                hist_line(&l.tel.sizes, "B"),
                hist_line(&l.tel.latency, "ns")
            );
        }
    }

    let t = insp.telemetry_snapshot();
    s.push_str("\ncounters:\n");
    for row in counters(&t).chunks(4) {
        let _ = writeln!(s, "  {}", text_fields(row));
    }
    if let Some(d) = history.last() {
        let _ = writeln!(s, "  Δ interval: {}", text_fields(&counters(d)[..4]));
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
        "\nmessage size   {}{}\nsend→recv lat  {}{}",
        hist_line(&t.size_hist, "B"),
        hist_spark(&t.size_hist),
        hist_line(&t.latency_hist, "ns"),
        hist_spark(&t.latency_hist)
    );

    let _ = write!(s, "\n{}", ring_table(insp));
    for r in active_rings(insp) {
        let events = ring_tail(insp, r.pid, tail);
        if events.is_empty() {
            continue;
        }
        let state = procs.get(r.pid as usize).map_or("?", |p| p.state);
        let _ = writeln!(
            s,
            "\nlast events, mpf pid {} (os pid {}, {state}):",
            r.pid, r.writer_pid
        );
        for e in &events {
            let _ = writeln!(s, "  {}", record_line(e));
        }
    }
    s
}

/// The `stat` view as one JSON document (`tail` records per ring).
pub fn stat_json(insp: &RegionInspector, tail: usize) -> String {
    let cfg = insp.config();
    let t = insp.telemetry_snapshot();
    let procs = join(insp.processes().iter().map(|p| {
        format!(
            "{{\"pid\":{},\"state\":{},\"os_pid\":{},\"alive\":{},\"heartbeat\":{},\"generation\":{},\
             \"doorbell\":{},\"asleep\":{},\"watching\":{},\"mem_wait\":{}}}",
            p.pid,
            json_str(p.state),
            p.os_pid,
            p.alive,
            p.heartbeat,
            p.generation,
            p.doorbell,
            p.asleep,
            p.watching,
            p.mem_wait
        )
    }));
    let lnvcs = join(insp.lnvcs().iter().map(|l| {
        format!(
            "{{\"index\":{},\"name\":{},\"generation\":{},\"queued\":{},\"reclaimable\":{},\
             \"n_senders\":{},\"n_fcfs\":{},\"n_bcast\":{},\"next_seq\":{},\"poisoned\":{},\
             \"dead_pid\":{},\"sends\":{},\"receives\":{},\"bytes_in\":{},\"bytes_out\":{},\
             \"recv_waits\":{},\"reclaims\":{},\"depth_hwm\":{},\"latency\":{},\"sizes\":{}}}",
            l.index,
            json_str(&l.name),
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
            hist_json(&l.tel.latency),
            hist_json(&l.tel.sizes),
        )
    }));
    format!(
        "{{\"region\":{},\"region_bytes\":{},\"telemetry\":{},\"trace_enabled\":{},\"sample_every\":{},\
         \"next_stamp\":{},\"sweep_epoch\":{},\"pool_waiters\":{},\"tel_fold_seq\":{},\
         \"config\":{{\"max_lnvcs\":{},\"max_processes\":{},\"max_messages\":{},\"total_blocks\":{},\"block_payload\":{}}},\
         \"counters\":{{{}}},\"size_hist\":{},\"latency_hist\":{},\
         \"processes\":[{procs}],\"lnvcs\":[{lnvcs}],\"trace_rings\":[{}]}}",
        json_str(insp.name()),
        insp.region_bytes(),
        insp.telemetry_enabled(),
        insp.trace_enabled(),
        cfg.trace_sample_every,
        insp.next_stamp(),
        insp.sweep_epoch(),
        insp.pool_waiters(),
        insp.tel_fold_seq(),
        cfg.max_lnvcs,
        cfg.max_processes,
        cfg.max_messages,
        cfg.total_blocks,
        cfg.block_payload,
        json_fields(&counters(&t)),
        hist_json(&t.size_hist),
        hist_json(&t.latency_hist),
        rings_json(insp, tail),
    )
}
