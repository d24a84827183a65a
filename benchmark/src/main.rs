//! The repo benchmark: five loop-driven workloads over both MPF backends.
//!
//! ```text
//! mpf-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//!               [--quick] [--out <results.jsonl>]
//! mpf-benchmark --compare <a.jsonl> <b.jsonl> [--bench-json <BENCHMARK.json>]
//! ```
//!
//! One process, the load driven from the main thread (`serve_call` adds
//! its worker and an idle server).  `--trace 0` prints the end-to-end
//! metrics, `--trace 1` the per-layer ones; either way the last line of
//! standard output is one JSON object `{correct, attempted, failed,
//! metrics}`.  See `README.md` next to this package for the metric →
//! layer → workload table.

mod backend;
mod compare;
mod host;
mod json;
mod layers;
mod run;
mod span;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

use backend::{Backend, IpcWorld, ThreadWorld};
use host::HostSpeed;
use run::{end_to_end, EndToEnd, Plan, Tally};
use stats::{highest_supported, median, sig, tail_supported};
use workloads::Workload;

/// One reported metric: name, value as measured, unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: mpf-benchmark --workload <{}> --seed <u64> --seconds <n> --trace <0|1> \
         [--quick] [--out <results.jsonl>]\n       \
         mpf-benchmark --compare <a.jsonl> <b.jsonl> [--bench-json <path>]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: Workload::LoopSmall,
        seed: 1,
        seconds: 20.0,
        trace: false,
        quick: false,
        out: None,
    };
    let mut have_workload = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str).unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::parse(value()).unwrap_or_else(|| usage());
                have_workload = true;
            }
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value().parse().unwrap_or_else(|_| usage());
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    usage();
                }
            }
            "--trace" => {
                args.trace = match value() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value().to_string()),
            _ => usage(),
        }
    }
    if !have_workload {
        usage();
    }
    if args.quick {
        // Same code paths, tiny counts; the numbers are not comparable.
        args.seconds = args.seconds.min(2.0);
    }
    args
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        std::process::exit(compare::main(&argv[1..]));
    }
    let args = parse_args(&argv);
    let pinned = host::pin_to_one_cpu();

    // A panic anywhere must not leave a region file behind.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        backend::unlink_regions();
        default_hook(info);
    }));

    let started = Instant::now();
    let calibrated = mpf_shm::clock::calibrate();
    let calibrate_s = started.elapsed().as_secs_f64();
    println!(
        "# mpf-benchmark workload={} seed={} seconds={} trace={} quick={} nproc={} \
         pinned_cpu={} clock_calibrated={calibrated}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick,
        std::thread::available_parallelism().map_or(0, usize::from),
        pinned.map_or("none".to_string(), |c| c.to_string()),
    );
    if args.quick {
        println!("# --quick: smoke run, numbers are NOT comparable");
    }

    let mut tally = Tally::default();
    let metrics = if args.trace {
        layers::traced_run(
            args.workload,
            args.seed,
            args.seconds,
            calibrate_s,
            &mut tally,
        )
    } else {
        untraced_run(&args, &mut tally)
    };
    backend::unlink_regions();

    if let Some(e) = &tally.first_error {
        println!("# FIRST FAILURE: {e}");
    }
    let correct = tally.failed == 0;
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted.max(1),
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    line.push_str("}}");

    if let Some(path) = &args.out {
        // The same object plus what `--compare` groups and filters by.
        let tagged = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"quick\": {}, {}",
            args.workload.name(),
            args.seed,
            u8::from(args.trace),
            args.quick,
            &line[1..]
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{tagged}"));
        if let Err(e) = appended {
            eprintln!("mpf-benchmark: cannot append to {path}: {e}");
            std::process::exit(2);
        }
    }
    println!("{line}");
    std::process::exit(i32::from(!correct));
}

/// The `--trace 0` run: both backends, the five end-to-end metrics.
fn untraced_run(args: &Args, tally: &mut Tally) -> Vec<Metric> {
    let plan = Plan::for_seconds(args.seconds / 2.0);
    let cfg = backend::config();
    let mut host = HostSpeed::new();
    let thread = end_to_end::<ThreadWorld>(args.workload, &cfg, args.seed, plan, &mut host, tally);
    let ipc = end_to_end::<IpcWorld>(args.workload, &cfg, args.seed, plan, &mut host, tally);

    // Set-up is both backends summed, set-up by set-up; the median of
    // those sums is the metric.
    let setups: Vec<f64> = thread
        .setup_s
        .iter()
        .zip(&ipc.setup_s)
        .map(|(a, b)| a + b)
        .collect();
    let mut metrics = vec![Metric::new("setup_s", median(&setups), "s")];
    println!(
        "setup_s            {} s   (median of {} set-ups, both backends summed: {})",
        sig(median(&setups)),
        setups.len(),
        setups.iter().map(|s| sig(*s)).collect::<Vec<_>>().join(" ")
    );
    for (tag, e) in [(ThreadWorld::TAG, &thread), (IpcWorld::TAG, &ipc)] {
        report_backend(tag, args.workload, e, &mut metrics);
    }
    println!(
        "fail_ratio         {} / {} operations",
        tally.failed, tally.attempted
    );
    metrics
}

fn report_backend(tag: &str, w: Workload, e: &EndToEnd, metrics: &mut Vec<Metric>) {
    let n = e.lat.len();
    let q = |q: f64| if n == 0 { 0.0 } else { e.lat.quantile(q) };
    println!(
        "{tag}.msgs_per_s    {} 1/s   (median of {} slices; {} bytes each = {} MB/s)",
        sig(e.msgs_per_s),
        e.slice_rates.len(),
        w.msg_len(),
        sig(e.msgs_per_s * w.msg_len() as f64 / 1e6),
    );
    let mut speeds = e.slice_speeds.clone();
    speeds.sort_by(f64::total_cmp);
    println!(
        "#   host speed while measuring (1 = nominal, {} ns reference): median {} min {} max {}",
        host::REF_NOMINAL_NS,
        sig(median(&speeds)),
        sig(speeds.first().copied().unwrap_or(0.0)),
        sig(speeds.last().copied().unwrap_or(0.0)),
    );
    // Each segment's own median, to show how far fresh set-ups differ.
    println!(
        "#   per segment: {}",
        e.slice_rates
            .chunks(run::SLICES as usize)
            .map(|s| sig(median(s)))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "{tag}.lat_p75_ns    {} ns   (exact, {n} samples)",
        sig(q(0.75))
    );
    println!(
        "#   not gated, see --trace 1: p50 {} ns, p99 {} ns ({}; highest supported p{})",
        sig(q(0.5)),
        sig(q(0.99)),
        if tail_supported(n, 0.99) {
            "≥ 10 samples beyond it"
        } else {
            "FEWER than 10 samples beyond it: not comparable"
        },
        highest_supported(n).map_or("-".to_string(), |q| sig(q * 100.0)),
    );
    metrics.push(Metric::new(
        format!("{tag}.msgs_per_s"),
        e.msgs_per_s,
        "1/s",
    ));
    metrics.push(Metric::new(format!("{tag}.lat_p75_ns"), q(0.75), "ns"));
}
