//! Deterministic, seeded fault injection — the in-region fault plane.
//!
//! The soak harness samples chaos with SIGKILL; this module makes the
//! *same fault classes* first-class, seeded, and injectable at the sync
//! seams the facility already routes through, so a CI matrix can replay
//! an exact fault sequence and `mpf-trace --check` can audit that every
//! injected fault surfaced as a typed error — never as corruption.
//!
//! Design mirrors [`crate::hooks`]: a process-global plane behind a
//! relaxed-load `enabled()` gate, so the production fast path pays one
//! predictable branch and no atomics traffic when no plane is installed.
//! Unlike hooks the plane is deliberately process-wide (faults must hit
//! every thread of a facility, not just the installing one).
//!
//! ## Fault taxonomy
//!
//! | Site            | Injected effect                | Recovery contract        |
//! |-----------------|--------------------------------|--------------------------|
//! | `NotifyDrop`    | wake syscall swallowed         | bounded naps / deadlines |
//! | `LockStall`     | holder pauses mid-acquire      | peers spin; patience     |
//! | `PoolExhaust`   | allocation reports exhaustion  | typed error / wait+deadline |
//! | `PeerDied`      | receive/send sees a dead peer  | typed error, failover    |
//!
//! The first two are *delay* faults: they must be absorbed silently by
//! the bounded-wait protocol. The last two are *error* faults: they must
//! surface as exactly their typed `MpfError`, and the backend records a
//! `TR_FAULT` trace record at the injection point so the offline checker
//! can prove the pairing.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::rng::SmallRng;

/// Where a fault is injected.  The `u32` codes are stable — they land in
/// `TR_FAULT` trace records and CI reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A `notify_all` whose wake syscall is swallowed (the sequence bump
    /// still happens — the protocol invariant is never violated, only
    /// the prompt wakeup).
    NotifyDrop,
    /// A lock acquisition stalls briefly before proceeding.
    LockStall,
    /// A pool allocation is forced to report exhaustion once.
    PoolExhaust,
    /// A send/receive path observes a (fictitious) dead peer.
    PeerDied,
}

impl FaultSite {
    /// Stable wire code (lands in `TR_FAULT.arg`).
    pub fn code(self) -> u32 {
        match self {
            FaultSite::NotifyDrop => 1,
            FaultSite::LockStall => 2,
            FaultSite::PoolExhaust => 3,
            FaultSite::PeerDied => 4,
        }
    }

    /// Human-readable site name.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::NotifyDrop => "notify_drop",
            FaultSite::LockStall => "lock_stall",
            FaultSite::PoolExhaust => "pool_exhaust",
            FaultSite::PeerDied => "peer_died",
        }
    }

    /// Whether an injection at this site must surface as a typed error
    /// (`false` = delay fault, absorbed by bounded waits).
    pub fn is_error_fault(self) -> bool {
        matches!(self, FaultSite::PoolExhaust | FaultSite::PeerDied)
    }

    /// Inverse of [`Self::code`], for decoding `TR_FAULT.arg` offline.
    pub fn from_code(code: u32) -> Option<Self> {
        match code {
            1 => Some(FaultSite::NotifyDrop),
            2 => Some(FaultSite::LockStall),
            3 => Some(FaultSite::PoolExhaust),
            4 => Some(FaultSite::PeerDied),
            _ => None,
        }
    }
}

/// Per-site injection rates and the seed, set once at install time.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Seed for the plane's deterministic RNG.
    pub seed: u64,
    /// Probability of swallowing a notify's wake.
    pub notify_drop: f64,
    /// Probability of stalling a lock acquisition.
    pub lock_stall: f64,
    /// Probability of forcing a pool allocation to report exhaustion.
    pub pool_exhaust: f64,
    /// Probability of injecting a `PeerDied` on a send/receive.
    pub peer_died: f64,
}

impl FaultConfig {
    /// All rates zero — combine with the `with_*` setters.
    pub fn new(seed: u64) -> Self {
        FaultConfig {
            seed,
            notify_drop: 0.0,
            lock_stall: 0.0,
            pool_exhaust: 0.0,
            peer_died: 0.0,
        }
    }

    /// One rate for every site — the "uniform chaos" matrix entry.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            notify_drop: rate,
            lock_stall: rate,
            pool_exhaust: rate,
            peer_died: rate,
        }
    }

    pub fn with_pool_exhaust(mut self, p: f64) -> Self {
        self.pool_exhaust = p;
        self
    }

    pub fn with_peer_died(mut self, p: f64) -> Self {
        self.peer_died = p;
        self
    }

    /// Parses the `MPF_FAULTS` environment form:
    /// `seed=7,rate=0.01` or per-site
    /// `seed=7,notify=0.02,lock=0.01,pool=0.005,peer=0.001`.
    /// Unknown keys are rejected (`None`) so CI typos fail loudly.
    pub fn parse(spec: &str) -> Option<Self> {
        let mut cfg = FaultConfig::new(0);
        for tok in spec.split(',') {
            let tok = tok.trim();
            if tok.is_empty() {
                continue;
            }
            let (k, v) = tok.split_once('=')?;
            match k.trim() {
                "seed" => cfg.seed = v.trim().parse().ok()?,
                "rate" => cfg = FaultConfig::uniform(cfg.seed, v.trim().parse().ok()?),
                "notify" => cfg.notify_drop = v.trim().parse().ok()?,
                "lock" => cfg.lock_stall = v.trim().parse().ok()?,
                "pool" => cfg.pool_exhaust = v.trim().parse().ok()?,
                "peer" => cfg.peer_died = v.trim().parse().ok()?,
                _ => return None,
            }
        }
        Some(cfg)
    }
}

/// Counts of injections actually performed, per site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    pub notify_drops: u64,
    pub lock_stalls: u64,
    pub pool_exhausts: u64,
    pub peer_died: u64,
}

impl FaultStats {
    /// Total injections across every site.
    pub fn total(&self) -> u64 {
        self.notify_drops + self.lock_stalls + self.pool_exhausts + self.peer_died
    }
}

struct Plane {
    cfg: FaultConfig,
    rng: SmallRng,
}

static INSTALLED: AtomicUsize = AtomicUsize::new(0);
static PLANE: Mutex<Option<Plane>> = Mutex::new(None);
static N_NOTIFY: AtomicU64 = AtomicU64::new(0);
static N_LOCK: AtomicU64 = AtomicU64::new(0);
static N_POOL: AtomicU64 = AtomicU64::new(0);
static N_PEER: AtomicU64 = AtomicU64::new(0);

/// Whether a fault plane is installed.  Relaxed single load — the cost
/// the production path pays at every instrumented site.
#[inline]
pub fn enabled() -> bool {
    INSTALLED.load(Ordering::Relaxed) != 0
}

/// Uninstalls the plane when dropped.
#[must_use = "dropping the guard uninstalls the fault plane"]
pub struct FaultGuard(());

impl Drop for FaultGuard {
    fn drop(&mut self) {
        *PLANE.lock().unwrap_or_else(|e| e.into_inner()) = None;
        INSTALLED.store(0, Ordering::SeqCst);
    }
}

/// Installs the process-global fault plane.  Panics if one is already
/// installed — overlapping planes would make the seeded sequence
/// meaningless.  Stats counters reset on install.
pub fn install(cfg: FaultConfig) -> FaultGuard {
    let mut plane = PLANE.lock().unwrap_or_else(|e| e.into_inner());
    assert!(plane.is_none(), "a fault plane is already installed");
    *plane = Some(Plane {
        cfg,
        rng: SmallRng::seed_from_u64(cfg.seed),
    });
    N_NOTIFY.store(0, Ordering::Relaxed);
    N_LOCK.store(0, Ordering::Relaxed);
    N_POOL.store(0, Ordering::Relaxed);
    N_PEER.store(0, Ordering::Relaxed);
    INSTALLED.store(1, Ordering::SeqCst);
    FaultGuard(())
}

/// Installs from the `MPF_FAULTS` environment variable, if set and
/// well-formed.  This is how forked soak children and the CI fault
/// matrix opt in without code changes.
pub fn install_from_env() -> Option<FaultGuard> {
    let spec = std::env::var("MPF_FAULTS").ok()?;
    FaultConfig::parse(&spec).map(install)
}

/// Draws the injection decision for `site`.  `false` always when no
/// plane is installed; callers put this behind [`enabled`] themselves
/// only when they need to avoid computing arguments.
#[inline]
pub fn inject(site: FaultSite) -> bool {
    if !enabled() {
        return false;
    }
    inject_slow(site)
}

#[cold]
fn inject_slow(site: FaultSite) -> bool {
    let mut plane = PLANE.lock().unwrap_or_else(|e| e.into_inner());
    let Some(p) = plane.as_mut() else {
        return false;
    };
    let rate = match site {
        FaultSite::NotifyDrop => p.cfg.notify_drop,
        FaultSite::LockStall => p.cfg.lock_stall,
        FaultSite::PoolExhaust => p.cfg.pool_exhaust,
        FaultSite::PeerDied => p.cfg.peer_died,
    };
    if rate <= 0.0 || !p.rng.gen_bool(rate) {
        return false;
    }
    match site {
        FaultSite::NotifyDrop => &N_NOTIFY,
        FaultSite::LockStall => &N_LOCK,
        FaultSite::PoolExhaust => &N_POOL,
        FaultSite::PeerDied => &N_PEER,
    }
    .fetch_add(1, Ordering::Relaxed);
    true
}

/// Injections performed since the plane was installed.
pub fn stats() -> FaultStats {
    FaultStats {
        notify_drops: N_NOTIFY.load(Ordering::Relaxed),
        lock_stalls: N_LOCK.load(Ordering::Relaxed),
        pool_exhausts: N_POOL.load(Ordering::Relaxed),
        peer_died: N_PEER.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The plane is process-global; tests in this module serialize on it
    // through `install`'s exclusivity (each takes and drops the guard).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_by_default_and_zero_rate_injects_nothing() {
        let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!enabled());
        assert!(!inject(FaultSite::PeerDied));
        let _g = install(FaultConfig::new(1));
        assert!(enabled());
        for _ in 0..100 {
            assert!(!inject(FaultSite::NotifyDrop));
        }
        assert_eq!(stats().total(), 0);
    }

    #[test]
    fn seeded_sequence_is_deterministic() {
        let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let draw = |seed| {
            let _g = install(FaultConfig::uniform(seed, 0.3));
            (0..64)
                .map(|_| inject(FaultSite::PoolExhaust))
                .collect::<Vec<_>>()
        };
        let a = draw(42);
        let b = draw(42);
        let c = draw(43);
        assert_eq!(a, b, "same seed, same fault sequence");
        assert_ne!(a, c, "different seed, different sequence");
        assert!(a.iter().any(|&x| x), "rate 0.3 over 64 draws fires");
        assert!(!a.iter().all(|&x| x));
    }

    #[test]
    fn stats_count_per_site() {
        let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _g = install(FaultConfig {
            lock_stall: 1.0,
            ..FaultConfig::new(7)
        });
        for _ in 0..5 {
            assert!(inject(FaultSite::LockStall));
            assert!(!inject(FaultSite::PeerDied));
        }
        let s = stats();
        assert_eq!(s.lock_stalls, 5);
        assert_eq!(s.peer_died, 0);
        assert_eq!(s.total(), 5);
    }

    #[test]
    fn env_spec_parses() {
        let cfg = FaultConfig::parse("seed=9,rate=0.5").unwrap();
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.notify_drop, 0.5);
        assert_eq!(cfg.peer_died, 0.5);
        let cfg = FaultConfig::parse("seed=3, notify=0.1, peer=0.2").unwrap();
        assert_eq!(cfg.notify_drop, 0.1);
        assert_eq!(cfg.lock_stall, 0.0);
        assert_eq!(cfg.peer_died, 0.2);
        assert!(FaultConfig::parse("seed=1,bogus=2").is_none());
        assert!(FaultConfig::parse("seed").is_none());
    }

    #[test]
    fn site_codes_are_stable_and_classified() {
        assert_eq!(FaultSite::NotifyDrop.code(), 1);
        assert_eq!(FaultSite::PeerDied.code(), 4);
        assert!(!FaultSite::NotifyDrop.is_error_fault());
        assert!(!FaultSite::LockStall.is_error_fault());
        assert!(FaultSite::PoolExhaust.is_error_fault());
        assert!(FaultSite::PeerDied.is_error_fault());
    }
}
