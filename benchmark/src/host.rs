//! Keeping the host out of the numbers.
//!
//! The recording host is a shared 2-vCPU machine.  Two things about it
//! moved the results more than any code change could:
//!
//! * **Where a woken thread lands.**  [`pin_to_one_cpu`] takes that away.
//! * **How fast the CPU is right now.**  For seconds to minutes at a time
//!   everything on the vCPU runs 15–40 % slower (a neighbour on the same
//!   core, most likely), in about a third of the runs of a bad quarter of
//!   an hour.  A fixed **reference kernel** — atomics and a 256-byte copy,
//!   nothing of the library — timed right before and after every measured
//!   part tracks that slowdown within about 2 %, so every stretch is
//!   reported **at the nominal host speed**: the part of its wall time the
//!   process spent on the CPU is scaled by `nominal / measured` reference
//!   time, the part it spent asleep (the 2 ms naps of `serve_call` on ipc)
//!   is left alone.  On an undisturbed host of the recording kind the
//!   factor is 1 and the numbers are plain wall-clock numbers.  The kernel
//!   never runs inside a measured part: a pause of a quarter millisecond
//!   between calls is enough to change which of its two latency modes
//!   `serve_call` on ipc falls into.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Reference-kernel time per iteration on the undisturbed recording host
/// (Intel Xeon @ 2.10 GHz under Firecracker).  Every reported time is
/// scaled to this speed; on another kind of host it is a fixed factor that
/// is the same on both sides of any comparison.
pub const REF_NOMINAL_NS: f64 = 19.6;
/// Iterations per probe: about a quarter of a millisecond.
const REF_ITERS: u32 = 12_500;

#[cfg(target_os = "linux")]
mod sys {
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }
    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        pub fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
}

/// Pins the whole process (every thread it will spawn inherits the mask)
/// to one CPU, the highest-numbered one it may run on; returns that CPU.
///
/// Unpinned, `serve_call` on the thread backend swung between 5 k and 22 k
/// calls/s from one segment to the next; on one CPU every wake is a plain
/// context switch.  Four of the five workloads are single-threaded anyway,
/// and `serve_call` is a closed loop with one call in flight, so no
/// parallelism is lost.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes,
    // which is what sched_getaffinity(2) requires of its third argument;
    // pid 0 names the calling thread.
    if unsafe { sys::sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of `bytes` bytes holding a non-empty
    // subset of the mask the kernel just reported, as sched_setaffinity(2)
    // requires; it is only read.
    (unsafe { sys::sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(word * 64 + bit)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// CPU time this process (all its threads) has consumed, in ns.
#[cfg(target_os = "linux")]
fn process_cpu_ns() -> Option<u64> {
    let mut ts = sys::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target), which is all clock_gettime(2)
    // requires.
    (unsafe { sys::clock_gettime(sys::CLOCK_PROCESS_CPUTIME_ID, &mut ts) } == 0)
        .then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

#[cfg(not(target_os = "linux"))]
fn process_cpu_ns() -> Option<u64> {
    None
}

/// Wall and process-CPU clocks around a stretch of work.
pub struct Clocks {
    t0: Instant,
    cpu0: Option<u64>,
}

impl Clocks {
    pub fn start() -> Self {
        Clocks {
            cpu0: process_cpu_ns(),
            t0: Instant::now(),
        }
    }

    /// Wall and CPU time since `start`.  Without a CPU clock all of the
    /// wall time counts as on the CPU.
    pub fn stop(self) -> Timed {
        let wall_ns = self.t0.elapsed().as_nanos() as f64;
        let cpu_ns = match (self.cpu0, process_cpu_ns()) {
            (Some(a), Some(b)) => b.saturating_sub(a) as f64,
            _ => wall_ns,
        };
        Timed { wall_ns, cpu_ns }
    }
}

/// What [`Clocks`] read, before a host-speed reading is attached.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    wall_ns: f64,
    cpu_ns: f64,
}

impl Timed {
    /// The stretch as having run at reference reading `ref_ns`.
    pub fn at(self, ref_ns: f64) -> Stretch {
        Stretch {
            wall_ns: self.wall_ns,
            cpu_ns: self.cpu_ns,
            ref_ns,
        }
    }
}

/// One timed stretch of work and the host speed it ran at.
#[derive(Debug, Clone, Copy)]
pub struct Stretch {
    pub wall_ns: f64,
    /// Of `wall_ns`, how much the process spent on the CPU.
    pub cpu_ns: f64,
    /// Reference-kernel ns per iteration around the stretch.
    pub ref_ns: f64,
}

impl Stretch {
    /// `nominal / measured` reference time: below 1 on a slowed-down host.
    pub fn speed(&self) -> f64 {
        REF_NOMINAL_NS / self.ref_ns
    }

    /// The stretch's time at the nominal host speed: time on the CPU
    /// scaled by [`Self::speed`], time asleep as it was.
    pub fn nominal_ns(&self) -> f64 {
        let cpu = self.cpu_ns.min(self.wall_ns);
        self.wall_ns - cpu * (1.0 - self.speed())
    }

    /// What a wall-clock duration measured inside this stretch is worth.
    pub fn scale(&self) -> f64 {
        self.nominal_ns() / self.wall_ns
    }
}

/// What the reference kernel works on.  Page-aligned and on the heap, so
/// that address-space randomisation cannot change how the copy's source
/// and destination alias from one run to the next.
#[repr(C, align(4096))]
struct RefData {
    cell: AtomicU64,
    src: [u8; 256],
    dst: [u8; 256],
}

/// The reference kernel.
pub struct HostSpeed {
    data: Box<RefData>,
}

impl HostSpeed {
    pub fn new() -> Self {
        let mut h = HostSpeed {
            data: Box::new(RefData {
                cell: AtomicU64::new(0),
                src: [0x3C; 256],
                dst: [0; 256],
            }),
        };
        h.probe(); // pays the cache misses
        h
    }

    /// Times the reference kernel — two atomic read-modify-writes, one
    /// 256-byte copy and a dependent load per iteration — and returns ns
    /// per iteration.
    pub fn probe(&mut self) -> f64 {
        let d = &mut *self.data;
        let t0 = Instant::now();
        let mut acc = 0u64;
        for i in 0..REF_ITERS {
            acc = acc.wrapping_add(d.cell.fetch_add(1, Ordering::AcqRel));
            if d.cell
                .compare_exchange(acc, acc, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                acc += 1;
            }
            d.dst.copy_from_slice(black_box(&d.src));
            acc ^= u64::from(d.dst[(i & 255) as usize]);
        }
        black_box(acc);
        t0.elapsed().as_nanos() as f64 / f64::from(REF_ITERS)
    }

    /// Runs `f` between two reference probes.
    pub fn timed<R>(&mut self, f: impl FnOnce() -> R) -> (R, Stretch) {
        let before = self.probe();
        let clocks = Clocks::start();
        let r = f();
        let timed = clocks.stop();
        let after = self.probe();
        (r, timed.at((before + after) / 2.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_time_scales_and_sleep_does_not() {
        // Host at 80 % speed (reference takes 1.25x nominal).
        let busy = Stretch {
            wall_ns: 1000.0,
            cpu_ns: 1000.0,
            ref_ns: REF_NOMINAL_NS * 1.25,
        };
        assert!((busy.nominal_ns() - 800.0).abs() < 1e-9);
        let napping = Stretch {
            cpu_ns: 50.0,
            ..busy
        };
        assert!((napping.nominal_ns() - 990.0).abs() < 1e-9);
        assert!((napping.scale() - 0.99).abs() < 1e-12);
        // CPU time can read a little past wall time; it is clamped.
        let over = Stretch {
            cpu_ns: 1100.0,
            ..busy
        };
        assert_eq!(over.nominal_ns(), busy.nominal_ns());
        // At nominal speed nothing changes.
        let nominal = Stretch {
            ref_ns: REF_NOMINAL_NS,
            ..busy
        };
        assert_eq!(nominal.nominal_ns(), 1000.0);
    }

    #[test]
    fn timed_reports_the_work_and_a_plausible_reference() {
        let mut host = HostSpeed::new();
        let (v, s) = host.timed(|| (0..100_000u64).fold(0, |a, b| black_box(a ^ b)));
        assert_eq!(v, (0..100_000u64).fold(0, |a, b| a ^ b));
        assert!(s.wall_ns > 0.0 && s.ref_ns > 0.0 && s.nominal_ns() > 0.0);
    }
}
