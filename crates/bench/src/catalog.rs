//! The catalog: every figure the crate can regenerate, each defined once
//! — id, title, axes, workload — and the one driver that prints and records
//! them (`benches/ablations.rs` holds more entries for the same driver).
//! Simulated entries run the paper's own axes, which live with the model in
//! `mpf_sim::figures`; native entries run the axes below.

use std::rc::Rc;

use mpf::{IpcMpf, MpfConfig, Protocol};
use mpf_apps::gauss_jordan;
use mpf_apps::linalg::{random_rhs, Matrix};
use mpf_sim::{apps_model, figures, validate, workloads, CostModel, MachineConfig};

use crate::measure::{measure, Budget, Stat, Workload};
use crate::native::{self, loopback, loopback_config, repeat, Round, Tally};
use crate::report::{json_num, Figure, JsonReport, Mode, JSON_FLAG};
use crate::Series;

// -- axes, each stated once --------------------------------------------------

/// Native Figure 3 message lengths: the paper's 16 B … 2 KiB, the harness's
/// bulk size (16 KiB) and the largest message a loop-back region holds four
/// of.
pub const FIG3_LENGTHS: [u32; 8] = [16, 64, 256, 1024, 2048, 4096, 16 << 10, 64 << 10];
const AIO_LENGTHS: [u32; 5] = [16, 64, 256, 1024, 2048];
const AIO_BATCHES: [u32; 3] = [1, 8, 64];
/// Receivers of native Figures 4–5: 2 is one per CPU of the 2-CPU host, 4
/// and 8 oversubscribe it — the paper's 16 receivers on 20 CPUs, scaled
/// down.
const RECEIVERS: [u32; 4] = [1, 2, 4, 8];
const RANDOM_PROCS: [u32; 3] = [2, 4, 8];
/// Message sizes of native Figures 4–6: fixed cost only, one copy-bound
/// kilobyte, and a 64-block chain.
const CONTENDED_SIZES: [u32; 3] = [16, 1024, 16 << 10];
const GAUSS_SIZES: [u32; 4] = [32, 48, 64, 96];
const GAUSS_PROCS: [u32; 4] = [1, 2, 4, 8];
const SOR_GRIDS: [u32; 4] = [65, 33, 17, 9];
/// Figure 8 speeds up relative to the 2×2 solver (paper footnote 6).
const SOR_DIMS: [u32; 4] = [1, 2, 3, 4];

// -- the entry type ----------------------------------------------------------

/// What running one entry in one mode yields.
#[derive(Debug, Default)]
pub struct Output {
    /// Tables, printed in order and recorded under `figures`.
    pub figures: Vec<Figure>,
    /// Printed verbatim after the tables.
    pub text: String,
    /// Pre-rendered JSON values for the report's `extra` object, printed
    /// as `# key: value`.
    pub extra: Vec<(String, String)>,
}

impl From<Figure> for Output {
    fn from(fig: Figure) -> Output {
        Output {
            figures: vec![fig],
            ..Output::default()
        }
    }
}

/// One figure or ablation: the id `figures <id>` selects; its generator on
/// the Balance 21000 model, with the paper's parameters; its generator on
/// this host, through [`measure`].  (Its title is its tables'.)
pub struct Entry(
    pub &'static str,
    pub Option<fn() -> Output>,
    pub Option<fn(Budget) -> Output>,
);

/// Every figure, in the paper's order.
pub const CATALOG: &[Entry] = &[
    Entry("fig3", Some(fig3_sim), Some(fig3_native)),
    Entry("fig3_aio", None, Some(fig3_aio)),
    Entry("fig4", Some(fig4_sim), Some(fig4_native)),
    Entry("fig5", Some(fig5_sim), Some(fig5_native)),
    Entry("fig6", Some(fig6_sim), Some(fig6_native)),
    Entry("fig7", Some(fig7_sim), Some(fig7_native)),
    Entry("fig8", Some(fig8_sim), Some(fig8_native)),
    Entry("paper_stats", Some(paper_stats), None),
    Entry("type_arch_sweep", Some(type_arch_sweep), None),
];

/// The command line `figures` and the `ablations` bench target share:
/// `[ID…] [--sim | --native | --both] [--quick] [--json PATH]`, ids and
/// flags in any order (no id means all).  Prints each chosen entry and
/// records it in the report; an entry asked for by id that exists in one
/// mode only runs in that mode whatever the flags say.  Exits with status 2,
/// before anything runs, on a flag or an id it does not know or a `--json`
/// without a path.
pub fn cli(catalog: &[Entry], args: &[String]) {
    if let Err(why) = run(catalog, args) {
        eprintln!("{why}\nusage: [ID...] [--sim | --native | --both] [--quick] [--json PATH]");
        std::process::exit(2);
    }
}

/// The entries `args` names, in the order named: every argument that is
/// neither a flag nor `--json`'s value is an id, wherever it stands.
pub fn named<'c>(catalog: &'c [Entry], args: &[String]) -> Result<Vec<&'c Entry>, String> {
    // `--bench` is what `cargo bench` passes a bench target.
    let known = |a: &str| matches!(a, "--sim" | "--native" | "--both" | "--quick" | "--bench");
    let mut named = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == JSON_FLAG {
            args.next();
        } else if arg.starts_with('-') {
            if !known(arg) {
                return Err(format!("unknown flag `{arg}`"));
            }
        } else {
            let ids = || Vec::from_iter(catalog.iter().map(|e| e.0)).join(" ");
            let entry = catalog.iter().find(|e| e.0 == arg);
            named.push(entry.ok_or_else(|| format!("unknown id `{arg}`; there are: {}", ids()))?);
        }
    }
    Ok(named)
}

fn run(catalog: &[Entry], args: &[String]) -> Result<(), String> {
    let named = named(catalog, args)?;
    let all = Vec::from_iter(catalog);
    let (mode, budget) = (Mode::parse(args), Budget::from_args(args));
    let mut json = JsonReport::from_args();
    if json.is_none() && args.iter().any(|a| a == JSON_FLAG) {
        return Err(format!("{JSON_FLAG} needs a path"));
    }
    for &Entry(_, sim, native) in if named.is_empty() { &all } else { &named } {
        let only = |other_is_absent: bool| !named.is_empty() && other_is_absent;
        let sim = sim.filter(|_| mode.sim || only(native.is_none()));
        let native = native.filter(|_| mode.native || only(sim.is_none()));
        let outputs = (sim.map(|f| f()).into_iter()).chain(native.map(|f| f(budget)));
        outputs.for_each(|out| emit(out, budget, json.as_mut()));
    }
    if let Some(report) = json {
        let path = report.write();
        let path = path.map_err(|e| format!("cannot write the report: {e}"))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

/// Prints one entry's output and records it; a measured figure brings the
/// `budget` it was measured under into the report.
pub fn emit(out: Output, budget: Budget, mut json: Option<&mut JsonReport>) {
    for fig in &out.figures {
        fig.print();
        if let Some(j) = json.as_mut() {
            j.add_figure(fig);
            if !fig.spread.is_empty() {
                j.set_budget(budget);
            }
        }
    }
    print!("{}", out.text);
    for (key, value) in out.extra {
        println!("# {key}: {value}\n");
        if let Some(j) = json.as_mut() {
            j.add_extra(&key, value);
        }
    }
}

// -- shared shaping ----------------------------------------------------------

/// Folds what [`measure`] returned — `ns[point][run]`, nanoseconds per
/// iteration — into a figure of medians with quartiles.  The first
/// `labels.len() * xs.len()` points are its grid, series-major; further
/// points are references (a sequential solve, another mapping).  Run `r`
/// of grid point `i` plots at `y(ns, i, r)`: runs are alternated, so run
/// `r` of every point saw the same spell of the host and a ratio is taken
/// run by run.
pub fn fold(
    title: &str,
    labels: &[String],
    xs: &[f64],
    ns: &[Vec<f64>],
    y: impl Fn(&[Vec<f64>], usize, usize) -> f64,
) -> Figure {
    let mut fig = Figure::plain(title, Vec::new());
    for (s, label) in labels.iter().enumerate() {
        let stats = Vec::from_iter((0..xs.len()).map(|i| {
            let p = s * xs.len() + i;
            Stat::of(&Vec::from_iter((0..ns[p].len()).map(|r| y(ns, p, r))))
        }));
        fig.series
            .push(series(label, xs, stats.iter().map(|st| st.median)));
        fig.spread
            .push(stats.iter().map(|st| (st.q1, st.q3)).collect());
    }
    fig
}

/// `y` for a throughput figure: point `i` moves `units(i)` per iteration.
pub fn per_second(units: impl Fn(usize) -> f64) -> impl Fn(&[Vec<f64>], usize, usize) -> f64 {
    move |ns, i, r| units(i) * 1e9 / ns[i][r]
}

fn stat_json(s: &Stat) -> String {
    let [m, q1, q3] = [s.median, s.q1, s.q3].map(json_num);
    format!("{{\"median\":{m},\"q1\":{q1},\"q3\":{q3},\"n\":{}}}", s.n)
}

/// An axis as the `x` column.
pub fn axis(xs: &[u32]) -> Vec<f64> {
    xs.iter().map(|&x| x.into()).collect()
}

/// An axis as series labels, each value followed by `what`.
fn labels(xs: &[u32], what: &str) -> Vec<String> {
    xs.iter().map(|x| format!("{x}{what}")).collect()
}

/// One curve, `y` at each of `xs`.
fn curve(label: &str, xs: &[u32], y: impl Fn(u32) -> f64) -> Series {
    series(label, &axis(xs), xs.iter().map(|&x| y(x)))
}

/// One curve.
fn series(label: &str, xs: &[f64], ys: impl Iterator<Item = f64>) -> Series {
    Series {
        label: label.to_string(),
        points: xs.iter().copied().zip(ys).collect(),
    }
}

fn balance() -> (MachineConfig, CostModel) {
    let machine = MachineConfig::balance21000();
    let costs = CostModel::calibrated(&machine);
    (machine, costs)
}

/// A figure of the paper, from the calibrated Balance 21000 model.
fn simulated(title: &str, curves: impl Fn(&MachineConfig, &CostModel) -> Vec<Series>) -> Output {
    let (machine, costs) = balance();
    Figure::plain(title, curves(&machine, &costs)).into()
}

/// An anonymous mapping for a loop-back point.
pub fn anon(cfg: &MpfConfig) -> IpcMpf {
    IpcMpf::anon(cfg).expect("map an anonymous region")
}

// -- Figure 3 ----------------------------------------------------------------

fn fig3_sim() -> Output {
    let title = "Figure 3 (base): throughput (bytes/s) vs message length [simulated Balance 21000]";
    simulated(title, |m, c| vec![figures::fig3_base(m, c)])
}

/// Loop-back on the anonymous mapping (the paper's "threads" case) with
/// observability — telemetry and tracing — on and off, and the same loop on
/// a named `/dev/shm` mapping, reported as a ratio: it is one engine.
pub fn fig3_native(budget: Budget) -> Output {
    let n = FIG3_LENGTHS.len();
    // (named mapping, observed); the first two are the figure's series.
    let variants = [(false, true), (false, false), (true, true)];
    let point = |&(named, observed): &(bool, bool), len: u32| {
        let (name, cfg) = (
            format!("fig3-{}-{len}", std::process::id()),
            loopback_config(observed),
        );
        let region = if named {
            IpcMpf::create(&name, &cfg)
        } else {
            IpcMpf::anon(&cfg)
        };
        loopback(region.expect("map a region"), len as usize, Round::Single)
    };
    let grid = variants
        .iter()
        .flat_map(|v| FIG3_LENGTHS.map(|len| point(v, len)));
    let ns = measure(&mut Vec::from_iter(grid), budget);
    let title = "Figure 3 (base): throughput (bytes/s) vs message length [native host]";
    let curves = ["loop-back", "unobserved loop-back"].map(String::from);
    let lens = axis(&FIG3_LENGTHS);
    let y = per_second(|i| FIG3_LENGTHS[i % n] as f64);
    let mut out = Output::from(fold(title, &curves, &lens, &ns, y));
    let ratio = |ns: &[Vec<f64>], i: usize, r: usize| ns[i][r] / ns[2 * n + i][r];
    let title = "Figure 3 (base): throughput on a named /dev/shm mapping over throughput on the \
                 anonymous one [native host]";
    let curve = ["named / anonymous".to_string()];
    out.figures.push(fold(title, &curve, &lens, &ns, ratio));
    let all = (0..n).flat_map(|i| (0..budget.runs).map(move |r| (i, r)));
    let pooled = Stat::of(&Vec::from_iter(all.map(|(i, r)| ratio(&ns, i, r))));
    out.extra = vec![("named_mapping_ratio".into(), stat_json(&pooled))];
    out
}

/// Figure 3 in batches: `send_batch` stages each batch as one run and
/// publishes it with one conversation lock and one notify, and
/// `recv_batch` takes it back under one lock, so small messages gain a
/// multiple and large ones converge on the copy.  `batch=1` pays the
/// batch calls' fixed cost with no amortisation: the baseline of the
/// claim.
fn fig3_aio(budget: Budget) -> Output {
    let cfg = loopback_config(true);
    let n = AIO_LENGTHS.len();
    let point = |b: u32, len: u32| loopback(anon(&cfg), len as usize, Round::Batch(b as usize));
    let grid = (AIO_BATCHES.iter()).flat_map(|&b| AIO_LENGTHS.map(|len| point(b, len)));
    let ns = measure(&mut Vec::from_iter(grid), budget);
    let title =
        "Figure 3, batched sends: loop-back throughput (bytes/s) vs message length [native host]";
    let y = per_second(|i| (AIO_BATCHES[i / n] * AIO_LENGTHS[i % n]) as f64);
    let (curves, lens) = (labels(&AIO_BATCHES, " per batch"), axis(&AIO_LENGTHS));
    let mut out = Output::from(fold(title, &curves, &lens, &ns, y));
    // At 16 B (the first length), messages per second of the largest batch
    // (the last series) over batch = 1 (the first).
    let top = AIO_BATCHES.len() - 1;
    let gains = (0..budget.runs).map(|r| ns[0][r] * AIO_BATCHES[top] as f64 / ns[top * n][r]);
    let speedup = Stat::of(&Vec::from_iter(gains));
    out.extra = vec![("speedup_16B_batch64_vs_1".into(), stat_json(&speedup))];
    out
}

// -- Figures 4–6 -------------------------------------------------------------

fn fig4_sim() -> Output {
    let title =
        "Figure 4 (fcfs): throughput (bytes/s) vs receiving processes [simulated Balance 21000]";
    simulated(title, figures::fig4_fcfs)
}

fn fig5_sim() -> Output {
    let title = "Figure 5 (broadcast): effective throughput (bytes/s) vs receiving processes \
                 [simulated Balance 21000]";
    simulated(title, figures::fig5_broadcast)
}

fn fig6_sim() -> Output {
    let title = "Figure 6 (random): throughput (bytes/s) vs processes [simulated Balance 21000]";
    simulated(title, |m, c| figures::fig6_random(m, c, 0xF16))
}

/// A contended figure: `CONTENDED_SIZES` × `procs`, each point a program
/// from `make(len, procs, tally)` moving `bytes(len, procs)` per iteration,
/// and after it *why* each point reads what it reads — the facility's
/// contention counters per message, one table each.
fn contended(
    title: &str,
    procs: &[u32],
    make: impl Fn(usize, u32, Rc<Tally>) -> Workload<'static>,
    bytes: impl Fn(u32, u32) -> u32,
    budget: Budget,
) -> Output {
    let at = |i: usize| (CONTENDED_SIZES[i / procs.len()], procs[i % procs.len()]);
    let grid = CONTENDED_SIZES.len() * procs.len();
    let tallies = Vec::from_iter((0..grid).map(|_| Rc::<Tally>::default()));
    let point = |(i, tally): (usize, &Rc<Tally>)| make(at(i).0 as usize, at(i).1, tally.clone());
    let mut points = Vec::from_iter(tallies.iter().enumerate().map(point));
    let ns = measure(&mut points, budget);
    let (curves, xs) = (labels(&CONTENDED_SIZES, " byte messages"), axis(procs));
    let y = per_second(|i| bytes(at(i).0, at(i).1) as f64);
    let mut out = Output::from(fold(title, &curves, &xs, &ns, y));
    for (c, counter) in Tally::NAMES.iter().enumerate() {
        let per_message = |t: &Rc<Tally>| t.per_message()[c];
        let rows = curves.iter().zip(tallies.chunks(procs.len()));
        let rows = rows.map(|(curve, row)| series(curve, &xs, row.iter().map(per_message)));
        let title = format!("{title}: {counter} per message sent");
        out.figures.push(Figure::plain(&title, rows.collect()));
    }
    out
}

fn fig4_native(budget: Budget) -> Output {
    let title = "Figure 4 (fcfs): throughput (bytes/s) vs receiving processes [native host]";
    let make = |len, n, tally| native::fanout(Protocol::Fcfs, len, n, tally);
    contended(title, &RECEIVERS, make, |len, _| len, budget)
}

fn fig5_native(budget: Budget) -> Output {
    let title = "Figure 5 (broadcast): effective throughput (bytes/s) vs receiving processes \
                 [native host]";
    let make = |len, n, tally| native::fanout(Protocol::Broadcast, len, n, tally);
    // Effective throughput: every receiver is delivered every byte.
    contended(title, &RECEIVERS, make, |len, n| len * n, budget)
}

fn fig6_native(budget: Budget) -> Output {
    let title = "Figure 6 (random): throughput (bytes/s) vs processes [native host]";
    let make = |len, p, tally| native::random(len, p, 0xF16, tally);
    // An iteration is one message from each process.
    contended(title, &RANDOM_PROCS, make, |len, p| len * p, budget)
}

// -- Figures 7–8 -------------------------------------------------------------

fn fig7_sim() -> Output {
    let title = "Figure 7 (Gauss-Jordan): speedup vs processes [modeled Balance 21000]";
    simulated(title, |_, c| figures::fig7_gauss(c))
}

/// One Gauss-Jordan solve per iteration: sequential, or over `procs`
/// message-passing workers.
fn solve<'a>(a: &'a Matrix, b: &'a [f64], procs: Option<u32>) -> Workload<'a> {
    match procs {
        None => repeat(move || gauss_jordan::solve_sequential(a, b)),
        Some(p) => repeat(move || gauss_jordan::solve_mpf(a, b, p as usize)),
    }
}

/// Speedup of the message-passing solver over the sequential one on the
/// host (above 1 needs the host to have the cores).
fn fig7_native(budget: Budget) -> Output {
    let system = |n| (Matrix::random_diag_dominant(n, 0xF17), random_rhs(n, 0xF17));
    let systems = GAUSS_SIZES.map(|n| system(n as usize));
    let grid = (systems.iter()).flat_map(|(a, b)| GAUSS_PROCS.map(|p| solve(a, b, Some(p))));
    // After the grid, the reference: each matrix solved sequentially.
    let reference = systems.iter().map(|(a, b)| solve(a, b, None));
    let ns = measure(&mut Vec::from_iter(grid.chain(reference)), budget);
    let title = "Figure 7 (Gauss-Jordan): speedup vs processes [native host]";
    let curves = Vec::from_iter(GAUSS_SIZES.iter().map(|n| format!("{n}x{n} matrix")));
    let (grid, procs) = (GAUSS_SIZES.len() * GAUSS_PROCS.len(), GAUSS_PROCS.len());
    let speedup = |ns: &[Vec<f64>], i: usize, r: usize| ns[grid + i / procs][r] / ns[i][r];
    fold(title, &curves, &axis(&GAUSS_PROCS), &ns, speedup).into()
}

fn fig8_sim() -> Output {
    let title = "Figure 8 (SOR): per-iteration speedup vs dimension N, relative to 2x2 \
                 [modeled Balance 21000]";
    simulated(title, |_, c| figures::fig8_sor(c))
}

fn fig8_native(budget: Budget) -> Output {
    let point = |grid: u32, n: u32| native::sor(grid as usize, n as usize);
    let grid = (SOR_GRIDS.iter()).flat_map(|&grid| SOR_DIMS.map(|n| point(grid, n)));
    let ns = measure(&mut Vec::from_iter(grid), budget);
    let title =
        "Figure 8 (SOR): per-iteration speedup vs dimension N, relative to 2x2 [native host]";
    let curves = Vec::from_iter(SOR_GRIDS.iter().map(|g| format!("{g} x {g} problem")));
    let dims = SOR_DIMS.len();
    let base = (SOR_DIMS.iter().position(|&n| n == 2)).expect("2x2 is the baseline");
    let speedup = |ns: &[Vec<f64>], i: usize, r: usize| ns[i - i % dims + base][r] / ns[i][r];
    fold(title, &curves, &axis(&SOR_DIMS), &ns, speedup).into()
}

// -- the paper's prose numbers and its §1 question ---------------------------

/// The quotable one-liners of §4/§5 beside this reproduction's.
fn paper_stats() -> Output {
    let (machine, costs) = balance();
    let base = workloads::run_base(&machine, &costs, 2048, 120);
    let bcast = workloads::run_broadcast(&machine, &costs, 1024, 16, 200);
    let fcfs = workloads::run_fcfs(&machine, &costs, 1024, 16, 200);
    let layout = mpf::layout::RegionLayout::for_config(&MpfConfig::paper_faithful(16, 20));
    let text = format!(
        "paper claim vs reproduction (simulated Balance 21000)\n\n{}\n\
         Figure 3 asymptote      paper ~25,000 B/s      sim {:>10.0} B/s\n\
         broadcast peak          paper  687,245 B/s      sim {:>10.0} B/s   (1024 B x 16 receivers)\n\
         fcfs 1 KB plateau       paper  ~40-50 KB/s      sim {:>10.0} B/s   (1024 B x 16 receivers)\n\n\
         bus utilization during the 16-receiver broadcast: {:.1}%  (the 'memory bandwidth' ceiling)\n\
         lock acquisitions that queued during the 16-receiver fcfs run: {}\n\n\
         paper: 'adds 7000 bytes to a user's program'; our paper-faithful region: {} KiB\n{}\n",
        validate::render(&validate::anchors(&machine, &costs)),
        base.send_throughput(),
        bcast.delivered_throughput(),
        fcfs.send_throughput(),
        bcast.bus_utilization * 100.0,
        fcfs.lock_waits,
        layout.total_bytes() / 1024,
        layout.render()
    );
    Output {
        text,
        ..Output::default()
    }
}

/// "No such abstractions and performance models yet exist" (§1, after
/// Snyder): the calibrated model is one, so sweep its machine parameters
/// around the Balance 21000 and watch the message-passing penalty move.
fn type_arch_sweep() -> Output {
    // A: bus bandwidth — when does broadcast stop scaling?
    let bus = [0.5f64, 1.0, 2.0, 8.0].map(|factor| {
        let mut machine = MachineConfig::balance21000();
        machine.bus_bytes_per_sec = (machine.bus_bytes_per_sec as f64 * factor) as u64;
        let costs = CostModel::calibrated(&machine);
        let run = |n| workloads::run_broadcast(&machine, &costs, 1024, n, 120);
        curve(&format!("{factor}x bus"), &[1, 4, 8, 16], |n| {
            run(n).delivered_throughput()
        })
    });
    // B: CPU speed at a fixed 80 MB/s bus — when does the bus, not the
    // copy loop, become "the performance limiting factor"?
    let cpu = [1u64, 4, 16].map(|factor| {
        let mut machine = MachineConfig::balance21000();
        machine.cpu_hz *= factor;
        let costs = CostModel::calibrated(&machine);
        let run = |len| workloads::run_base(&machine, &costs, len as usize, 80);
        curve(&format!("{factor}x CPU"), &[256, 1024, 2048], |len| {
            run(len).send_throughput()
        })
    });
    // C: how much of Figure 7's communication tax is machine, not model —
    // quarter the per-block and per-byte costs and compare the 48x48 curve.
    let baseline = balance().1;
    let mut cheap = baseline.clone();
    cheap.per_block_alloc /= 4;
    cheap.copy_cycles_per_byte /= 4;
    let gauss = [("Balance 21000", &baseline), ("4x cheaper comm", &cheap)].map(|(label, c)| {
        curve(label, &[2, 4, 8, 16], |p| {
            apps_model::gj_speedup(c, 48, p as usize)
        })
    });
    let sweep = |title: &str, curves: &[Series]| Figure::plain(title, curves.to_vec());
    Output {
        figures: vec![
            sweep(SWEEP_A, &bus),
            sweep(SWEEP_B, &cpu),
            sweep(SWEEP_C, &gauss),
        ],
        ..Output::default()
    }
}

const SWEEP_A: &str = "Type-architecture sweep A: broadcast effective throughput (1 KB) vs \
                       receivers, by bus bandwidth";
const SWEEP_B: &str =
    "Type-architecture sweep B: base loop-back throughput vs message length, by CPU speed";
const SWEEP_C: &str =
    "Type-architecture sweep C: 48x48 Gauss-Jordan speedup vs processes, by communication cost";
