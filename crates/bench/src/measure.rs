//! The crate's one timing routine.
//!
//! A workload is `FnMut(iters) -> Duration`: it performs `iters`
//! iterations and returns the time of its *steady section* only —
//! regions mapped, threads spawned, connections open and the start
//! barrier passed before its clock starts.  [`measure`] alone decides how
//! many iterations that is and how often each point runs; [`Stat::of`]
//! alone turns the runs of one point into a median and quartiles.

use std::time::Duration;

/// One point of a figure.
pub type Workload<'a> = Box<dyn FnMut(u64) -> Duration + 'a>;

/// How long and how often every point runs: constants, not options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Timed runs of each point.
    pub runs: usize,
    /// Target length of one timed run.
    pub window: Duration,
}

impl Budget {
    /// What the committed `BENCH_*.json` records are made with.
    pub const FULL: Budget = Budget {
        runs: 7,
        window: Duration::from_millis(100),
    };
    /// `--quick` (CI smoke, `cargo test`): same axes, shorter and fewer.
    pub const QUICK: Budget = Budget {
        runs: 3,
        window: Duration::from_millis(4),
    };

    /// `--quick` is the only choice a command line has.
    pub fn from_args(args: &[String]) -> Budget {
        let quick = args.iter().any(|a| a == "--quick");
        [Budget::FULL, Budget::QUICK][usize::from(quick)]
    }
}

/// Cap on one run's iterations, so a workload that reports no time at
/// all still ends.
const MAX_ITERS: u64 = 1 << 24;

/// Pilot: grow `iters` fourfold until one call spans an eighth of the
/// window (which is also every point's warm-up), then scale to the window.
fn choose_iters(workload: &mut Workload, window: Duration) -> u64 {
    let mut iters = 1;
    loop {
        let took = workload(iters);
        if took >= window / 8 || iters >= MAX_ITERS {
            let per_iter = took.as_nanos().max(1) as f64 / iters as f64;
            return ((window.as_nanos() as f64 / per_iter) as u64).clamp(1, MAX_ITERS);
        }
        iters *= 4;
    }
}

/// Times every point `budget.runs` times, *alternated* — run `r` of every
/// point before run `r + 1` of any, so a slow spell of the host lands on
/// all points alike — and returns nanoseconds per iteration, indexed
/// `[point][run]`.
pub fn measure(points: &mut [Workload], budget: Budget) -> Vec<Vec<f64>> {
    let iters: Vec<u64> = points
        .iter_mut()
        .map(|w| choose_iters(w, budget.window))
        .collect();
    let mut samples = vec![Vec::with_capacity(budget.runs); points.len()];
    for _ in 0..budget.runs {
        for ((workload, &n), out) in points.iter_mut().zip(&iters).zip(&mut samples) {
            out.push(workload(n).as_nanos() as f64 / n as f64);
        }
    }
    samples
}

/// Median and quartiles of one point's runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// The middle run.
    pub median: f64,
    /// Lower quartile.
    pub q1: f64,
    /// Upper quartile.
    pub q3: f64,
    /// Runs.
    pub n: usize,
}

impl Stat {
    /// Quantiles by linear interpolation between order statistics (the
    /// spreadsheet `QUARTILE`); one sample is its own quartiles.
    pub fn of(samples: &[f64]) -> Stat {
        assert!(!samples.is_empty(), "a point has at least one run");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |p: f64| {
            let pos = p * (sorted.len() - 1) as f64;
            let (lo, hi) = (sorted[pos.floor() as usize], sorted[pos.ceil() as usize]);
            // Equal neighbours must not compute `inf - inf` for an infinite rate.
            if lo == hi {
                lo
            } else {
                lo + (hi - lo) * pos.fract()
            }
        };
        Stat {
            median: at(0.5),
            q1: at(0.25),
            q3: at(0.75),
            n: sorted.len(),
        }
    }
}
