//! The end-to-end run: one sizing pass, then nine measured segments.
//!
//! Every segment starts from a **fresh set-up** (timed: that is where
//! `setup_s` comes from), warms up, measures, tears down and checks
//! conservation.  Fresh set-ups keep the segments independent samples of
//! the same thing: `serve_call` on the thread backend slows down with the
//! number of calls a service has already served (see the README's
//! findings), so a single long-lived set-up would make the result depend
//! on where in the run it was read.
//!
//! A measured segment has two parts.  The **throughput part** drives a
//! fixed number of rounds with no per-round clock read, so the rate is
//! undisturbed.  It is cut into [`SLICES`] slices of equal round count,
//! each timed as a whole; the reported rate is the **median over the
//! slices of all segments**, so that time the host takes away from this
//! process in bursts (it is a shared 2-vCPU machine) lowers a minority of
//! slices and not the result.  The **latency part** times every round,
//! round entry to verified result; the percentiles are exact order
//! statistics of the samples pooled over all segments.  Every set-up,
//! slice and latency sample is reported at the nominal host speed (see
//! [`crate::host`]): the reference is read around each part, never
//! inside it.  All counts are fixed from
//! the sizing pass's rate so that the whole run fits the `--seconds` it
//! was given.

use std::time::{Duration, Instant};

use mpf::MpfConfig;
use mpf_shm::clock::now_nanos;

use crate::backend::Backend;
use crate::host::{Clocks, HostSpeed, Stretch};
use crate::span::Tracer;
use crate::stats::{median, Samples};
use crate::workloads::{setup, Extras, Rounds, Workload};

pub const SEGMENTS: usize = 9;
/// Timed slices per segment's throughput part.
pub const SLICES: u64 = 64;
/// A phase that keeps failing is cut short rather than run to the end.
const MAX_FAILURES: u64 = 32;

/// How one backend's share of the run's seconds is spent.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The sizing pass, which fixes every count below from its rate.
    pub sizing: Duration,
    pub warm: Duration,
    pub thr: Duration,
    pub lat: Duration,
}

impl Plan {
    /// The sizing pass and each of the nine segments get a tenth of the
    /// backend's seconds; a segment is 10 % warm-up, 60 % throughput part,
    /// 30 % latency part.
    pub fn for_seconds(backend_seconds: f64) -> Plan {
        let slot = backend_seconds / (SEGMENTS + 1) as f64;
        Plan {
            sizing: Duration::from_secs_f64(slot),
            warm: Duration::from_secs_f64(slot * 0.1),
            thr: Duration::from_secs_f64(slot * 0.6),
            lat: Duration::from_secs_f64(slot * 0.3),
        }
    }
}

/// Operations attempted and failed, over everything a run does.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl Tally {
    pub fn note<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
                None
            }
        }
    }

    /// One failed operation that is not the result of a call.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.note::<()>(Err(why.into()));
    }

    fn give_up(&self) -> bool {
        self.failed >= MAX_FAILURES
    }
}

/// Drives `n` rounds.
pub fn drive(r: &mut dyn Rounds, n: u64, op: &mut u64, tr: &mut Tracer, tally: &mut Tally) {
    for _ in 0..n {
        tally.note(r.round(*op, tr));
        *op += 1;
        if tally.give_up() {
            break;
        }
    }
}

/// Drives `n` rounds, timing each from entry to verified result; appends
/// the successful ones' nanoseconds to `ns`.
pub fn drive_timed(r: &mut dyn Rounds, n: u64, op: &mut u64, tally: &mut Tally, ns: &mut Vec<u64>) {
    let mut tr = Tracer::off();
    for _ in 0..n {
        let t0 = now_nanos();
        let done = r.round(*op, &mut tr);
        let took = now_nanos().saturating_sub(t0);
        *op += 1;
        if tally.note(done).is_some() {
            ns.push(took);
        }
        if tally.give_up() {
            break;
        }
    }
}

/// `ns` as they would have read at the nominal host speed.
pub fn at_nominal(ns: &[u64], stretch: &Stretch) -> Vec<u32> {
    let scale = stretch.scale();
    ns.iter()
        .map(|&t| (t as f64 * scale).round().min(f64::from(u32::MAX)) as u32)
        .collect()
}

/// Deliveries per second of `rounds` rounds of `w` that took `nominal_ns`.
pub fn rate(w: Workload, rounds: u64, nominal_ns: f64) -> f64 {
    (rounds * w.deliveries()) as f64 / (nominal_ns / 1e9)
}

/// Drives rounds for `d`; returns how many that was.
pub fn warm_up(r: &mut dyn Rounds, d: Duration, op: &mut u64, tally: &mut Tally) -> u64 {
    let mut tr = Tracer::off();
    let (t0, first) = (Instant::now(), *op);
    while t0.elapsed() < d && !tally.give_up() {
        tally.note(r.round(*op, &mut tr));
        *op += 1;
    }
    *op - first
}

/// Rounds that fill `part` at the rate the warm-up saw.
pub fn scaled(warm_rounds: u64, warm: Duration, part: Duration) -> u64 {
    ((warm_rounds as f64 * part.as_secs_f64() / warm.as_secs_f64()) as u64).max(1)
}

/// Closes the workload and checks that the facility kept nothing.
pub fn finish<B: Backend>(world: B, r: Box<dyn Rounds>, tally: &mut Tally) -> Extras {
    let extras = tally.note(r.close()).unwrap_or_default();
    tally.note(world.conservation());
    extras
}

/// One backend's end-to-end numbers.
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    /// Median over `slice_rates`.
    pub msgs_per_s: f64,
    /// Deliveries per second of every slice, in run order.
    pub slice_rates: Vec<f64>,
    /// Host speed (1 = nominal) of every slice, in run order.
    pub slice_speeds: Vec<f64>,
    pub lat: Samples,
}

pub fn end_to_end<B: Backend>(
    w: Workload,
    cfg: &MpfConfig,
    seed: u64,
    plan: Plan,
    host: &mut HostSpeed,
    tally: &mut Tally,
) -> EndToEnd {
    let mut setup_s = Vec::with_capacity(SEGMENTS + 1);
    let mut timed_setup = |host: &mut HostSpeed| {
        let (made, s) = host.timed(|| setup::<B>(w, cfg, seed));
        setup_s.push(s.nominal_ns() / 1e9);
        made
    };

    let mut op = 0u64;
    let (world, mut rounds) = timed_setup(host);
    let sized = warm_up(rounds.as_mut(), plan.sizing, &mut op, tally);
    finish::<B>(world, rounds, tally);
    let warm_n = scaled(sized, plan.sizing, plan.warm);
    let slice_n = (scaled(sized, plan.sizing, plan.thr) / SLICES).max(1);
    let lat_n = scaled(sized, plan.sizing, plan.lat);

    let mut tr = Tracer::off();
    let mut slice_rates = Vec::with_capacity(SEGMENTS * SLICES as usize);
    let mut slice_speeds = Vec::with_capacity(slice_rates.capacity());
    let mut slices = Vec::with_capacity(SLICES as usize);
    let mut lat = Vec::with_capacity(lat_n as usize * SEGMENTS);
    let mut stretch = Vec::with_capacity(lat_n as usize);
    for _ in 0..SEGMENTS {
        if tally.give_up() {
            break;
        }
        let (world, mut rounds) = timed_setup(host);
        drive(rounds.as_mut(), warm_n, &mut op, &mut tr, tally);

        // The reference is read around each part, never inside it.
        let ref0 = host.probe();
        slices.clear();
        for _ in 0..SLICES {
            let clocks = Clocks::start();
            drive(rounds.as_mut(), slice_n, &mut op, &mut tr, tally);
            slices.push(clocks.stop());
        }
        let ref1 = host.probe();
        for timed in &slices {
            let s = timed.at((ref0 + ref1) / 2.0);
            slice_rates.push(rate(w, slice_n, s.nominal_ns()));
            slice_speeds.push(s.speed());
        }

        stretch.clear();
        let clocks = Clocks::start();
        drive_timed(rounds.as_mut(), lat_n, &mut op, tally, &mut stretch);
        let timed = clocks.stop().at((ref1 + host.probe()) / 2.0);
        lat.extend(at_nominal(&stretch, &timed));
        finish::<B>(world, rounds, tally);
    }
    EndToEnd {
        setup_s,
        msgs_per_s: if slice_rates.is_empty() {
            0.0
        } else {
            median(&slice_rates)
        },
        slice_rates,
        slice_speeds,
        lat: Samples::new(lat),
    }
}
