//! Cross-process wait/notify on a shared 32-bit word.
//!
//! The multi-process backend cannot park with `std::thread` primitives —
//! the waiter and the notifier live in different address spaces, sharing
//! only the mapped region.  A futex is exactly that: the kernel keys
//! sleepers by the *physical* page behind a `u32`, so any process that
//! maps the region can wake any other.  On non-Linux hosts these degrade
//! to bounded yield-sleeps (the classic spin/yield fallback), which keeps
//! the same correctness contract: [`futex_wait`] may always return
//! spuriously and callers re-check their predicate.

use std::sync::atomic::AtomicU32;
use std::time::Duration;

use crate::sys;

/// Why [`futex_wait`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome {
    /// Woken by a notifier (or spuriously) — re-check the predicate.
    Woken,
    /// The word no longer held the expected value at sleep time.
    Stale,
    /// The timeout elapsed.
    TimedOut,
}

/// Sleeps while `*word == expected`, at most `timeout` (forever if
/// `None`).  Safe against lost wakeups: the expected-value check and the
/// sleep are one atomic kernel operation.
pub fn futex_wait(word: &AtomicU32, expected: u32, timeout: Option<Duration>) -> WaitOutcome {
    let ts = timeout.map(|t| sys::Timespec {
        tv_sec: t.as_secs() as i64,
        tv_nsec: t.subsec_nanos() as i64,
    });
    match sys::futex_wait_raw(word.as_ptr(), expected, ts.as_ref()) {
        Ok(()) => WaitOutcome::Woken,
        Err(e) if e == sys::EAGAIN => WaitOutcome::Stale,
        Err(e) if e == sys::ETIMEDOUT => WaitOutcome::TimedOut,
        // EINTR and anything unexpected: treat as spurious wake.
        Err(_) => WaitOutcome::Woken,
    }
}

/// Wakes at most one waiter sleeping on `word`.  Returns how many woke.
pub fn futex_wake_one(word: &AtomicU32) -> u32 {
    sys::futex_wake_raw(word.as_ptr(), 1)
}

/// Wakes every waiter sleeping on `word`.  Returns how many woke.
pub fn futex_wake_all(word: &AtomicU32) -> u32 {
    // The kernel takes the count as a signed int: `u32::MAX` would read as
    // -1 and stop after the first waiter.
    sys::futex_wake_raw(word.as_ptr(), i32::MAX as u32)
}

/// `true` unless the kernel positively reports the process gone
/// (`ESRCH`).  The liveness primitive behind dead-peer detection.  Our own
/// pid needs no probe — whoever asks is running — which is every peer of
/// a facility whose processes are threads of this one.
pub fn process_alive(os_pid: u32) -> bool {
    os_pid == std::process::id() || sys::process_alive(os_pid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    #[test]
    fn stale_value_returns_immediately() {
        let word = AtomicU32::new(7);
        let outcome = futex_wait(&word, 6, None);
        // Non-Linux fallback reports Woken; both are immediate returns.
        assert!(matches!(outcome, WaitOutcome::Stale | WaitOutcome::Woken));
    }

    #[test]
    fn timeout_elapses() {
        let word = AtomicU32::new(1);
        let start = std::time::Instant::now();
        let outcome = futex_wait(&word, 1, Some(Duration::from_millis(20)));
        assert!(matches!(
            outcome,
            WaitOutcome::TimedOut | WaitOutcome::Woken
        ));
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn wake_releases_waiter() {
        let word = Arc::new(AtomicU32::new(0));
        let waiter = {
            let word = Arc::clone(&word);
            std::thread::spawn(move || {
                while word.load(Ordering::Acquire) == 0 {
                    futex_wait(&word, 0, Some(Duration::from_millis(50)));
                }
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        word.store(1, Ordering::Release);
        futex_wake_all(&word);
        waiter.join().unwrap();
    }

    /// Several sleepers on one word — broadcast receivers of one
    /// conversation — must all leave on one wake: anyone left behind would
    /// sit out its whole timeout.
    #[test]
    fn wake_all_releases_every_waiter() {
        let word = Arc::new(AtomicU32::new(0));
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let word = Arc::clone(&word);
                std::thread::spawn(move || {
                    while word.load(Ordering::Acquire) == 0 {
                        futex_wait(&word, 0, Some(Duration::from_secs(20)));
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(100));
        let start = std::time::Instant::now();
        word.store(1, Ordering::Release);
        futex_wake_all(&word);
        for w in waiters {
            w.join().unwrap();
        }
        assert!(start.elapsed() < Duration::from_secs(5));
    }
}
