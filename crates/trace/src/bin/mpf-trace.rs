//! `mpf-trace` — offline causal-trace reconstruction for an MPF region.
//!
//! ```text
//! mpf-trace <region-name> [--chains] [--check] [--export <path|->] [--json]
//! mpf-trace <region-name> --follow [--interval-ms N] [--for-secs N]
//! ```
//!
//! Attaches **read-only** (`RegionInspector`): no process slot, no lock,
//! no write — safe on a live region and on the leftover region file of a
//! SIGKILLed session.  With no mode flags it prints a summary plus the
//! conformance report.
//!
//! - `--chains` renders every reconstructed causal chain, hop by hop.
//! - `--check` runs only the §3 conformance checker; the process exits
//!   with status 3 when violations are found, so CI can gate on it.
//! - `--export <path>` writes Chrome `trace_event` JSON (Perfetto and
//!   `chrome://tracing` load it); `-` writes to stdout.
//! - `--json` switches the summary/check output to machine-readable JSON.
//! - `--follow` tails the live trace rings, printing records as the
//!   region's processes write them (`mpf-soak --debug` drives this).
//!   Each poll re-reads the single-writer rings without locking; records
//!   lost to ring wrap-around are reported as a gap.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use mpf::inspect::RegionInspector;
use mpf_shm::tracering::trace_event_name;
use mpf_trace::TraceLog;

fn usage() -> ! {
    eprintln!(
        "usage: mpf-trace <region-name> [--chains] [--check] [--export <path|->] [--json]\n\
         \u{20}      mpf-trace <region-name> --follow [--interval-ms N] [--for-secs N]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut name = None;
    let mut chains = false;
    let mut check_only = false;
    let mut export: Option<String> = None;
    let mut json = false;
    let mut follow = false;
    let mut interval = Duration::from_millis(250);
    let mut for_secs: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--chains" => chains = true,
            "--check" => check_only = true,
            "--json" => json = true,
            "--follow" => follow = true,
            "--interval-ms" => {
                let Some(ms) = args.get(i + 1).and_then(|v| v.parse::<u64>().ok()) else {
                    usage()
                };
                interval = Duration::from_millis(ms.max(1));
                i += 1;
            }
            "--for-secs" => {
                let Some(s) = args.get(i + 1).and_then(|v| v.parse::<u64>().ok()) else {
                    usage()
                };
                for_secs = Some(s);
                i += 1;
            }
            "--export" => {
                let Some(path) = args.get(i + 1) else { usage() };
                export = Some(path.clone());
                i += 1;
            }
            "--help" | "-h" => usage(),
            other if name.is_none() && !other.starts_with('-') => name = Some(other.to_string()),
            other => {
                eprintln!("mpf-trace: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let Some(name) = name else { usage() };

    let insp = match RegionInspector::attach(&name) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("mpf-trace: cannot attach `{name}`: {e}");
            std::process::exit(1);
        }
    };
    if !insp.trace_enabled() {
        eprintln!("mpf-trace: region `{name}` was created with tracing disabled");
    }
    if follow {
        follow_rings(&insp, interval, for_secs);
        return;
    }
    let log = TraceLog::from_inspector(&insp);

    if let Some(path) = export {
        let out = log.chrome_json();
        if path == "-" {
            println!("{out}");
        } else if let Err(e) = std::fs::write(&path, &out) {
            eprintln!("mpf-trace: cannot write `{path}`: {e}");
            std::process::exit(1);
        } else {
            eprintln!(
                "mpf-trace: wrote {} events to {path} (load in Perfetto or chrome://tracing)",
                log.len()
            );
        }
        if !chains && !check_only {
            return;
        }
    }

    if chains {
        print!("{}", log.render_chains());
        if !check_only {
            return;
        }
    }

    let report = log.check();
    if json {
        println!("{}", report_json(&name, &log, &report));
    } else {
        print!("{}", summary_text(&name, &log));
        if report.truncated {
            println!("note: a ring wrapped — completeness rules suppressed past the horizon");
        }
        println!(
            "conformance: {} messages, {} deliveries, {} injected fault(s), {} violation(s)",
            report.messages,
            report.deliveries,
            report.faults,
            report.violations.len()
        );
        for v in &report.violations {
            println!("  {v}");
        }
    }
    if !report.is_clean() {
        std::process::exit(3);
    }
}

/// Live-tails every process's trace ring: each poll re-reads the
/// single-writer rings (no locks taken — same guarantee as the offline
/// reader) and prints records newer than the last seen sequence.  Wrap
/// losses show up as an explicit gap line rather than silently skipped
/// output.  Runs until `--for-secs` elapses or the process is killed.
fn follow_rings(insp: &RegionInspector, interval: Duration, for_secs: Option<u64>) {
    let deadline = for_secs.map(|s| Instant::now() + Duration::from_secs(s));
    let nprocs = insp.trace_rings().len();
    let mut last_seq = vec![0u64; nprocs];
    let mut t0: Option<u64> = None;
    println!(
        "{:<4}{:>10}  {:<10}{:>10}{:>8}{:>5}{:>6}{:>10}{:>10}",
        "pid", "ms", "kind", "trace", "stamp", "hop", "lnvc", "arg", "arg2"
    );
    loop {
        for (pid, last) in last_seq.iter_mut().enumerate() {
            let events = insp.trace_events(pid as u32);
            let Some(newest) = events.last().map(|e| e.seq) else {
                continue;
            };
            if newest <= *last {
                continue;
            }
            let oldest_avail = events.first().map(|e| e.seq).unwrap_or(newest);
            if *last != 0 && oldest_avail > *last + 1 {
                println!(
                    "{:<4}  -- gap: {} record(s) overwritten before this poll --",
                    pid,
                    oldest_avail - *last - 1
                );
            }
            for e in events.iter().filter(|e| e.seq > *last) {
                let base = *t0.get_or_insert(e.tstamp);
                println!(
                    "{:<4}{:>10}  {:<10}{:>10x}{:>8}{:>5}{:>6}{:>10}{:>10}",
                    pid,
                    e.tstamp.saturating_sub(base) / 1_000_000,
                    trace_event_name(e.kind),
                    e.trace,
                    e.stamp,
                    e.hop,
                    if e.lnvc == u32::MAX {
                        -1
                    } else {
                        e.lnvc as i64
                    },
                    e.arg,
                    e.arg2
                );
            }
            *last = newest;
        }
        if let Some(dl) = deadline {
            if Instant::now() >= dl {
                return;
            }
        }
        std::thread::sleep(interval);
    }
}

fn summary_text(name: &str, log: &TraceLog) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "region {name}: {} surviving trace records across {} rings",
        log.len(),
        log.rings().len()
    );
    for r in log.rings() {
        if r.events.is_empty() && r.sampled_out == 0 {
            continue;
        }
        let _ = writeln!(
            s,
            "  pid {:<3} {:>6} records{}{}",
            r.pid,
            r.events.len(),
            if r.truncated { "  (wrapped)" } else { "" },
            if r.sampled_out > 0 {
                format!("  ({} chains sampled out)", r.sampled_out)
            } else {
                String::new()
            },
        );
    }
    let _ = writeln!(s, "chains reconstructed: {}", log.chains().len());
    s
}

fn report_json(name: &str, log: &TraceLog, report: &mpf_trace::Report) -> String {
    let rings = log
        .rings()
        .iter()
        .map(|r| {
            format!(
                "{{\"pid\":{},\"records\":{},\"truncated\":{},\"sampled_out\":{}}}",
                r.pid,
                r.events.len(),
                r.truncated,
                r.sampled_out
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let violations = report
        .violations
        .iter()
        .map(|v| {
            format!(
                "{{\"rule\":\"{}\",\"trace\":\"{:#x}\",\"stamp\":{},\"lnvc\":{},\"detail\":\"{}\"}}",
                v.rule,
                v.trace,
                v.stamp,
                if v.lnvc == u32::MAX {
                    -1
                } else {
                    v.lnvc as i64
                },
                v.detail.replace('\\', "\\\\").replace('"', "\\\""),
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"region\":\"{}\",\"records\":{},\"chains\":{},\"truncated\":{},\
         \"messages\":{},\"deliveries\":{},\"faults\":{},\"rings\":[{rings}],\
         \"violations\":[{violations}]}}",
        name.replace('\\', "\\\\").replace('"', "\\\""),
        log.len(),
        log.chains().len(),
        report.truncated,
        report.messages,
        report.deliveries,
        report.faults,
    )
}
