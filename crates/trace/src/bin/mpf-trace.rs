//! `mpf-trace` — read an MPF region file, live or post-mortem (`--help`
//! prints the usage).
//!
//! Attaches **read-only** (`RegionInspector`): no process slot, no lock,
//! no write — safe on a live region and on the leftover region file of a
//! SIGKILLed session.  With no mode it reconstructs the causal chains and
//! prints a summary (records, chains, trace-ring occupancy) plus the §3
//! conformance report.
//!
//! - `--chains` renders every reconstructed causal chain, hop by hop.
//! - `--check` runs only the conformance checker; the process exits with
//!   status 3 when violations are found, so CI can gate on it.
//! - `--export <path>` writes Chrome `trace_event` JSON (Perfetto and
//!   `chrome://tracing` load it); `-` writes to stdout.
//! - `--json` switches the summary/check and `stat` output to one JSON
//!   document.
//! - `--ring N` sets how many of each ring's last records are shown
//!   (default 16).
//! - `--follow` tails the live trace rings, printing records as the
//!   region's processes write them (`mpf-soak --debug` drives this);
//!   records lost to ring wrap-around are reported as a gap.
//! - `stat` prints who is stuck on what: the process table (liveness,
//!   asleep, watching, mem-wait), the conversations, counters, latency
//!   and size percentiles, trace-ring occupancy and each
//!   ring's last events.  `--watch` redraws it every interval, with
//!   counter deltas and sparkline rate history.
//! - `--follow` and `--watch` poll every `--interval-ms` (default 250)
//!   until `--for-secs` elapses, or forever.
//!
//! Every flag takes a value or none; a missing or unparsable value exits
//! 2.  A reader that hangs up early (`| head`) ends the process quietly.

use std::io::{ErrorKind, Write as _};
use std::process::exit;
use std::str::FromStr;
use std::time::{Duration, Instant};

use mpf::inspect::RegionInspector;
use mpf_trace::render::{self, SPARK_WIDTH};
use mpf_trace::TraceLog;

const USAGE: &str = "\
usage: mpf-trace <region> [--chains] [--check] [--export <path|->] [--json] [--ring N]
       mpf-trace <region> --follow [--interval-ms N] [--for-secs N]
       mpf-trace <region> stat [--json] [--ring N] [--watch] [--interval-ms N] [--for-secs N]";

#[derive(Default)]
struct Args {
    name: String,
    stat: bool,
    chains: bool,
    check: bool,
    export: Option<String>,
    json: bool,
    ring: usize,
    follow: bool,
    watch: bool,
    interval: Duration,
    for_secs: Option<u64>,
}

fn usage_error(msg: &str) -> ! {
    eprintln!("mpf-trace: {msg}\n{USAGE}");
    exit(2);
}

/// The value after `flag`, parsed; missing or unparsable exits 2.
fn value<T: FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
    match it.next().map(|v| v.parse()) {
        Some(Ok(v)) => v,
        _ => usage_error(&format!("`{flag}` needs a value")),
    }
}

fn parse() -> Args {
    let mut name = None;
    let mut a = Args {
        ring: 16,
        interval: Duration::from_millis(250),
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--chains" => a.chains = true,
            "--check" => a.check = true,
            "--json" => a.json = true,
            "--follow" => a.follow = true,
            "--watch" => a.watch = true,
            "--export" => a.export = Some(value(&mut it, &arg)),
            "--ring" => a.ring = value(&mut it, &arg),
            "--interval-ms" => {
                a.interval = Duration::from_millis(value::<u64>(&mut it, &arg).max(1))
            }
            "--for-secs" => a.for_secs = Some(value(&mut it, &arg)),
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            "stat" if name.is_some() && !a.stat => a.stat = true,
            other if name.is_none() && !other.starts_with('-') => name = Some(other.to_string()),
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }
    if a.watch && !a.stat {
        usage_error("`--watch` redraws `stat`");
    }
    a.name = name.unwrap_or_else(|| usage_error("no region named"));
    a
}

/// Every byte of output goes through here.  A reader that hung up ends
/// the process quietly instead of in a broken-pipe panic.
fn emit(s: &str) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_all(s.as_bytes()).and_then(|()| out.flush()) {
        if e.kind() == ErrorKind::BrokenPipe {
            exit(0);
        }
        eprintln!("mpf-trace: cannot write output: {e}");
        exit(1);
    }
}

/// The one live loop (`--follow`, `stat --watch`): `tick` now, then every
/// `interval` until `for_secs` have passed — forever without it.
fn poll(interval: Duration, for_secs: Option<u64>, mut tick: impl FnMut()) {
    let deadline = for_secs.map(|s| Instant::now() + Duration::from_secs(s));
    loop {
        tick();
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return;
        }
        std::thread::sleep(interval);
    }
}

fn main() {
    let a = parse();
    let insp = RegionInspector::attach(&a.name).unwrap_or_else(|e| {
        eprintln!("mpf-trace: cannot attach `{}`: {e}", a.name);
        exit(1);
    });
    if !insp.trace_enabled() {
        eprintln!(
            "mpf-trace: region `{}` was created with tracing disabled",
            a.name
        );
    }

    if a.stat {
        // One frame; with `--watch`, one per interval, each adding the
        // counter deltas since the last to the sparkline history.
        let (mut prev, mut history) = (None, Vec::new());
        let for_secs = if a.watch { a.for_secs } else { Some(0) };
        poll(a.interval, for_secs, || {
            let now = insp.telemetry_snapshot();
            if let Some(prev) = &prev {
                history.push(now.diff(prev));
                if history.len() > SPARK_WIDTH {
                    history.remove(0);
                }
            }
            prev = Some(now);
            // ANSI clear-screen + home keeps the redrawn table in place.
            let clear = if a.watch && !a.json {
                "\x1b[2J\x1b[H"
            } else {
                ""
            };
            let frame = if a.json {
                format!("{}\n", render::stat_json(&insp, a.ring))
            } else {
                render::stat_text(&insp, a.ring, &history)
            };
            emit(&format!("{clear}{frame}"));
        });
        return;
    }
    if a.follow {
        let mut last_seq = vec![0u64; insp.trace_rings().len()];
        poll(a.interval, a.for_secs, || {
            emit(&render::follow_step(&insp, &mut last_seq))
        });
        return;
    }

    let log = TraceLog::from_inspector(&insp);
    if let Some(path) = &a.export {
        let out = log.chrome_json();
        if path == "-" {
            emit(&format!("{out}\n"));
        } else if let Err(e) = std::fs::write(path, &out) {
            eprintln!("mpf-trace: cannot write `{path}`: {e}");
            exit(1);
        } else {
            eprintln!(
                "mpf-trace: wrote {} events to {path} (load in Perfetto or chrome://tracing)",
                log.len()
            );
        }
        if !a.chains && !a.check {
            return;
        }
    }
    if a.chains {
        emit(&log.render_chains());
        if !a.check {
            return;
        }
    }
    let report = log.check();
    emit(&if a.json {
        format!("{}\n", render::summary_json(&insp, &log, &report, a.ring))
    } else {
        render::summary_text(&insp, &log, &report)
    });
    if !report.is_clean() {
        exit(3);
    }
}
