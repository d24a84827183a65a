//! Calibrated cycle-counter clock.
//!
//! Telemetry and trace timestamps want wall-clock nanoseconds that every
//! process attached to a region agrees on, but reading `SystemTime` costs
//! a `clock_gettime` (vDSO at best, a syscall at worst) on every sampled
//! send and receive.  On x86_64 (`rdtsc`) and aarch64 (`cntvct_el0`) the
//! hardware gives us a raw counter readable in a few cycles; this module
//! calibrates that counter against the OS monotonic clock **once per
//! process** and from then on converts raw reads into epoch nanoseconds
//! with one multiply and one shift.
//!
//! Calibration (see DESIGN.md, "Clock calibration"):
//!
//! 1. Anchor: read (wall nanoseconds, raw counter) back to back.
//! 2. Measure the tick rate against `Instant` (CLOCK_MONOTONIC) over two
//!    consecutive ~0.5 ms windows.
//! 3. If the two windows disagree by more than 5 %, or the counter ever
//!    runs backwards, the counter is judged **unstable** (old cores with
//!    non-invariant TSC, VM migration) and the process permanently falls
//!    back to `SystemTime` — correctness first, speed when safe.
//!
//! The conversion is `anchor_wall + (ticks - anchor_ticks) * mult >> 24`
//! in 128-bit arithmetic, so it cannot overflow within the lifetime of a
//! region.  Each process anchors independently; cross-process timestamp
//! skew is bounded by calibration error (~µs over typical runs) and the
//! offline conformance checker therefore orders events by logical stamp,
//! never by timestamp (timestamps are for humans and Perfetto).

use std::sync::OnceLock;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Fixed-point shift of the ticks→nanoseconds multiplier.
const CLOCK_SHIFT: u32 = 24;

#[derive(Debug, Clone, Copy)]
struct Calibration {
    /// Wall-clock nanoseconds at the anchor point.
    anchor_wall: u64,
    /// Raw counter value at the anchor point.
    anchor_ticks: u64,
    /// Nanoseconds per tick in `2^-24` fixed point.
    mult: u64,
}

/// Reads the raw cycle counter, or `None` on architectures without one.
#[inline]
fn raw_ticks() -> Option<u64> {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `rdtsc` is unprivileged and has no memory effects.
        Some(unsafe { core::arch::x86_64::_rdtsc() })
    }
    #[cfg(target_arch = "aarch64")]
    {
        let v: u64;
        // SAFETY: `cntvct_el0` is the EL0-readable virtual counter.
        unsafe {
            core::arch::asm!("mrs {v}, cntvct_el0", v = out(reg) v, options(nomem, nostack));
        }
        Some(v)
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        None
    }
}

fn wall_nanos() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// One-shot calibration; `None` means "use the SystemTime fallback".
fn calibrate_once() -> Option<Calibration> {
    let anchor_ticks = raw_ticks()?;
    let anchor_wall = wall_nanos();
    let start = Instant::now();
    let spin_until = |d: Duration| {
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    };
    spin_until(Duration::from_micros(500));
    let t1 = raw_ticks()?;
    let e1 = start.elapsed().as_nanos() as u64;
    spin_until(Duration::from_micros(1000));
    let t2 = raw_ticks()?;
    let e2 = start.elapsed().as_nanos() as u64;
    if t1 <= anchor_ticks || t2 <= t1 || e2 <= e1 {
        return None; // counter not monotonic at this granularity
    }
    let r1 = e1 as f64 / (t1 - anchor_ticks) as f64;
    let r2 = (e2 - e1) as f64 / (t2 - t1) as f64;
    if !r1.is_finite() || !r2.is_finite() || (r1 - r2).abs() / r1.max(r2) > 0.05 {
        return None; // rate unstable across windows
    }
    let ns_per_tick = e2 as f64 / (t2 - anchor_ticks) as f64;
    let mult = (ns_per_tick * (1u64 << CLOCK_SHIFT) as f64) as u64;
    (mult != 0).then_some(Calibration {
        anchor_wall,
        anchor_ticks,
        mult,
    })
}

static CAL: OnceLock<Option<Calibration>> = OnceLock::new();

/// Forces calibration now (it otherwise happens lazily on the first
/// [`now_nanos`]).  Facilities call this at region create/attach so the
/// ~1.5 ms spin never lands on a message hot path.  Returns `true` when
/// the cycle counter is in use, `false` on the `SystemTime` fallback.
pub fn calibrate() -> bool {
    CAL.get_or_init(calibrate_once).is_some()
}

/// Wall-clock nanoseconds since the Unix epoch, via the calibrated cycle
/// counter when stable, else `SystemTime`.
#[inline]
pub fn now_nanos() -> u64 {
    match CAL.get_or_init(calibrate_once) {
        Some(c) => {
            let t = raw_ticks().unwrap_or(c.anchor_ticks);
            let dt = t.wrapping_sub(c.anchor_ticks);
            c.anchor_wall + ((dt as u128 * c.mult as u128) >> CLOCK_SHIFT) as u64
        }
        None => wall_nanos(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_is_monotonic_enough() {
        calibrate();
        let a = now_nanos();
        let b = now_nanos();
        assert!(b >= a, "calibrated clock ran backwards: {a} -> {b}");
    }

    #[test]
    fn tracks_wall_clock() {
        calibrate();
        let wall = wall_nanos();
        let ours = now_nanos();
        // Same epoch, within a generous second (covers slow CI and the
        // fallback path identically).
        let diff = wall.abs_diff(ours);
        assert!(diff < 1_000_000_000, "clock {diff} ns from wall time");
    }

    #[test]
    fn elapsed_matches_instant() {
        calibrate();
        let i0 = Instant::now();
        let n0 = now_nanos();
        std::thread::sleep(Duration::from_millis(20));
        let elapsed_ns = i0.elapsed().as_nanos() as u64;
        let ours = now_nanos() - n0;
        // Within 20% of CLOCK_MONOTONIC over a 20 ms window.
        assert!(
            ours.abs_diff(elapsed_ns) < elapsed_ns / 5 + 2_000_000,
            "measured {ours} ns vs monotonic {elapsed_ns} ns"
        );
    }
}
