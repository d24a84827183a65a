//! Minimal raw-syscall layer (Linux x86_64 / aarch64).
//!
//! The container this reproduction builds in has no `libc` crate, and the
//! multi-process backend needs exactly four facilities `std` does not
//! expose: `mmap`/`munmap` for mapping a named region, `futex` for
//! cross-process wait/notify, and `kill(pid, 0)` for peer-liveness probes.
//! Each is a single instruction-level syscall wrapper here; everything
//! else (opening, sizing and unlinking the backing file) goes through
//! `std::fs`.
//!
//! On other platforms the module compiles to conservative fallbacks: no
//! mapping (callers fall back to heap memory), futexes degrade to
//! yield-sleeps, and every probed process is presumed alive.

/// `true` when real `mmap`/`futex`/`kill` syscalls are available.
pub const HAVE_SYSCALLS: bool = cfg!(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
));

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod nr {
    pub const MMAP: usize = 9;
    pub const MUNMAP: usize = 11;
    pub const KILL: usize = 62;
    pub const FUTEX: usize = 202;
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
mod nr {
    pub const MMAP: usize = 222;
    pub const MUNMAP: usize = 215;
    pub const KILL: usize = 129;
    pub const FUTEX: usize = 98;
}

/// Raw six-argument syscall.  Returns the kernel's raw result: `-errno`
/// on failure.
///
/// # Safety
/// The caller must uphold the contract of the specific syscall.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn syscall6(
    nr: usize,
    a1: usize,
    a2: usize,
    a3: usize,
    a4: usize,
    a5: usize,
    a6: usize,
) -> isize {
    let ret: isize;
    core::arch::asm!(
        "syscall",
        inlateout("rax") nr as isize => ret,
        in("rdi") a1,
        in("rsi") a2,
        in("rdx") a3,
        in("r10") a4,
        in("r8") a5,
        in("r9") a6,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack)
    );
    ret
}

/// Raw six-argument syscall.  Returns the kernel's raw result: `-errno`
/// on failure.
///
/// # Safety
/// The caller must uphold the contract of the specific syscall.
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
unsafe fn syscall6(
    nr: usize,
    a1: usize,
    a2: usize,
    a3: usize,
    a4: usize,
    a5: usize,
    a6: usize,
) -> isize {
    let ret: isize;
    core::arch::asm!(
        "svc 0",
        inlateout("x0") a1 as isize => ret,
        in("x1") a2,
        in("x2") a3,
        in("x3") a4,
        in("x4") a5,
        in("x5") a6,
        in("x8") nr,
        options(nostack)
    );
    ret
}

/// `ESRCH`: no such process.
pub const ESRCH: i32 = 3;
/// `EINTR`: interrupted.
pub const EINTR: i32 = 4;
/// `EAGAIN`: futex word did not hold the expected value.
pub const EAGAIN: i32 = 11;
/// `ETIMEDOUT`: futex wait timed out.
pub const ETIMEDOUT: i32 = 110;

/// `struct timespec` as the futex syscall expects it.
#[repr(C)]
pub struct Timespec {
    /// Seconds.
    pub tv_sec: i64,
    /// Nanoseconds.
    pub tv_nsec: i64,
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod real {
    use super::{nr, syscall6, Timespec};

    const PROT_READ: usize = 1;
    const PROT_WRITE: usize = 2;
    const MAP_SHARED: usize = 0x01;
    const MAP_PRIVATE: usize = 0x02;
    const MAP_ANONYMOUS: usize = 0x20;

    const FUTEX_WAIT: usize = 0;
    const FUTEX_WAKE: usize = 1;

    /// Maps `len` bytes of `fd` shared read/write.  Returns the mapping
    /// address or `Err(errno)`.
    ///
    /// # Safety
    /// `fd` must be an open file descriptor at least `len` bytes long for
    /// the lifetime of the mapping.
    pub unsafe fn mmap_shared(fd: i32, len: usize) -> Result<*mut u8, i32> {
        let ret = syscall6(
            nr::MMAP,
            0,
            len,
            PROT_READ | PROT_WRITE,
            MAP_SHARED,
            fd as usize,
            0,
        );
        if (-4095..0).contains(&ret) {
            Err(-ret as i32)
        } else {
            Ok(ret as *mut u8)
        }
    }

    /// Maps `len` bytes of `fd` shared **read-only** — the inspector's
    /// attach mode: observing a region must not be able to perturb it.
    ///
    /// # Safety
    /// `fd` must be an open file descriptor at least `len` bytes long for
    /// the lifetime of the mapping.
    pub unsafe fn mmap_shared_ro(fd: i32, len: usize) -> Result<*mut u8, i32> {
        let ret = syscall6(nr::MMAP, 0, len, PROT_READ, MAP_SHARED, fd as usize, 0);
        if (-4095..0).contains(&ret) {
            Err(-ret as i32)
        } else {
            Ok(ret as *mut u8)
        }
    }

    /// Maps `len` bytes of zeroed, process-private memory backed by no
    /// file: page-aligned, and a page costs nothing until it is touched.
    pub fn mmap_anon(len: usize) -> Result<*mut u8, i32> {
        // SAFETY: an anonymous private mapping at a kernel-chosen address
        // aliases nothing the program already owns.
        let ret = unsafe {
            syscall6(
                nr::MMAP,
                0,
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                usize::MAX,
                0,
            )
        };
        if (-4095..0).contains(&ret) {
            Err(-ret as i32)
        } else {
            Ok(ret as *mut u8)
        }
    }

    /// Unmaps a region previously returned by one of the `mmap_*` calls.
    ///
    /// # Safety
    /// `(ptr, len)` must be exactly a live mapping; no references into it
    /// may outlive this call.
    pub unsafe fn munmap(ptr: *mut u8, len: usize) {
        let _ = syscall6(nr::MUNMAP, ptr as usize, len, 0, 0, 0, 0);
    }

    /// `FUTEX_WAIT` (process-shared): sleeps while `*word == expected`.
    /// Returns `Ok(())` on wake, `Err(errno)` on mismatch/timeout/signal.
    pub fn futex_wait_raw(
        word: *const u32,
        expected: u32,
        timeout: Option<&Timespec>,
    ) -> Result<(), i32> {
        let ts = timeout.map_or(0usize, |t| t as *const Timespec as usize);
        // SAFETY: `word` points at a live u32 (the atomic the caller
        // holds a reference to); the kernel only reads it.
        let ret = unsafe {
            syscall6(
                nr::FUTEX,
                word as usize,
                FUTEX_WAIT,
                expected as usize,
                ts,
                0,
                0,
            )
        };
        if ret < 0 {
            Err(-ret as i32)
        } else {
            Ok(())
        }
    }

    /// `FUTEX_WAKE` (process-shared): wakes up to `n` waiters.  Returns
    /// the number woken.
    pub fn futex_wake_raw(word: *const u32, n: u32) -> u32 {
        // SAFETY: the kernel only uses the address as a key.
        let ret = unsafe { syscall6(nr::FUTEX, word as usize, FUTEX_WAKE, n as usize, 0, 0, 0) };
        ret.max(0) as u32
    }

    /// `kill(pid, 0)` liveness probe, with a zombie check on top:
    /// `kill` succeeds on a zombie, but a zombie has already exited —
    /// it will never release a lock or drain a queue — so for dead-peer
    /// detection it must count as dead.  (A dead peer lingers as a
    /// zombie whenever its parent has not reaped it yet; notably when
    /// the observer IS the unreaping parent.)
    pub fn process_alive(os_pid: u32) -> bool {
        // SAFETY: signal 0 delivers nothing; it only checks existence.
        let ret = unsafe { syscall6(nr::KILL, os_pid as usize, 0, 0, 0, 0, 0) };
        if -ret as i32 == super::ESRCH {
            return false;
        }
        // `/proc/<pid>/stat` is `pid (comm) state ...`; comm may contain
        // anything, so the state letter is the first field after the
        // LAST ')'.  Unreadable stat (procfs unmounted, pid raced away)
        // counts as alive: never poison on a guess.
        match std::fs::read_to_string(format!("/proc/{os_pid}/stat")) {
            Ok(stat) => match stat.rfind(')') {
                Some(i) => stat[i + 1..].trim_start().as_bytes().first() != Some(&b'Z'),
                None => true,
            },
            Err(_) => true,
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod real {
    use super::Timespec;

    /// Portable stub: no mapping support; callers use heap regions.
    ///
    /// # Safety
    /// Trivially safe — always fails.
    pub unsafe fn mmap_shared(_fd: i32, _len: usize) -> Result<*mut u8, i32> {
        Err(super::EAGAIN)
    }

    /// Portable stub: no mapping support.
    ///
    /// # Safety
    /// Trivially safe — always fails.
    pub unsafe fn mmap_shared_ro(_fd: i32, _len: usize) -> Result<*mut u8, i32> {
        Err(super::EAGAIN)
    }

    /// Portable stub: no mapping support; callers use heap regions.
    pub fn mmap_anon(_len: usize) -> Result<*mut u8, i32> {
        Err(super::EAGAIN)
    }

    /// Portable stub; nothing to unmap.
    ///
    /// # Safety
    /// Trivially safe — no-op.
    pub unsafe fn munmap(_ptr: *mut u8, _len: usize) {}

    /// Portable stub: behaves as a bounded yield-sleep.
    pub fn futex_wait_raw(
        _word: *const u32,
        _expected: u32,
        _timeout: Option<&Timespec>,
    ) -> Result<(), i32> {
        std::thread::sleep(std::time::Duration::from_micros(100));
        Ok(())
    }

    /// Portable stub: there are no kernel waiters.
    pub fn futex_wake_raw(_word: *const u32, _n: u32) -> u32 {
        0
    }

    /// Portable stub: presume alive (never poison on a guess).
    pub fn process_alive(_os_pid: u32) -> bool {
        true
    }
}

pub use real::{
    futex_wait_raw, futex_wake_raw, mmap_anon, mmap_shared, mmap_shared_ro, munmap, process_alive,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_is_alive() {
        assert!(process_alive(std::process::id()));
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn nonexistent_process_is_dead() {
        // PID numbers this large are unreachable under default
        // kernel.pid_max (4 194 304).
        assert!(!process_alive(4_100_000 + (std::process::id() % 1000)));
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn futex_mismatch_returns_eagain() {
        let word = 5u32;
        let err = futex_wait_raw(&word as *const u32, 4, None).unwrap_err();
        assert_eq!(err, EAGAIN);
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn futex_timeout_elapses() {
        let word = 5u32;
        let ts = Timespec {
            tv_sec: 0,
            tv_nsec: 1_000_000,
        };
        let err = futex_wait_raw(&word as *const u32, 5, Some(&ts)).unwrap_err();
        assert!(err == ETIMEDOUT || err == EINTR, "errno {err}");
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn mmap_roundtrip_through_a_file() {
        use std::io::Write;
        use std::os::fd::AsRawFd;
        let path = std::env::temp_dir().join(format!("mpf-sys-test-{}", std::process::id()));
        let mut f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .unwrap();
        f.write_all(&[0u8; 4096]).unwrap();
        // SAFETY: the file is 4096 bytes and outlives the mapping.
        let ptr = unsafe { mmap_shared(f.as_raw_fd(), 4096) }.unwrap();
        // SAFETY: fresh private-to-this-test shared mapping.
        unsafe {
            ptr.write(0xAB);
            assert_eq!(ptr.read(), 0xAB);
            munmap(ptr, 4096);
        }
        let _ = std::fs::remove_file(&path);
    }
}
