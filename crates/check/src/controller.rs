//! The cooperative scheduler: runs N logical processes on N OS threads but
//! lets exactly one make progress at a time, switching only at the
//! instrumented sync points exported by `mpf_shm::hooks`.
//!
//! # Model
//!
//! Each logical process is an OS thread with a [`Binding`] installed as its
//! thread-local [`SyncHook`].  The controller hands a single run token
//! around: a thread executes until its next hook call, where the binding
//! reports its state (still runnable, blocked on a lock, blocked on a wait
//! queue) and the active [`Sched`] strategy picks who runs next.  Because
//! every racy primitive in the facility funnels through the hook layer,
//! permuting these decisions permutes every interleaving that matters,
//! and the same decision sequence always reproduces the same execution.
//!
//! Blocking is modeled, not performed: a hooked lock acquire that fails
//! `try_lock` parks the logical process in the controller until the
//! holder's release hook fires, and a hooked wait parks until a notify on
//! one of its queues — no OS-level spinning or futex waits, so a schedule
//! in which the "wrong" process runs first costs microseconds, not
//! timeouts.
//!
//! # Failure detection
//!
//! * **Deadlock** — a process blocks (or finishes) and no process is
//!   runnable while some are still blocked.
//! * **Step limit** — more scheduling decisions than `max_steps`: a
//!   livelock or unbounded retry loop.
//! * **Panic** — a process panics (assertion failure in scenario code or
//!   in the facility itself).
//!
//! Any of these aborts the schedule: every parked thread is woken and torn
//! down by unwinding with a private [`Aborted`] payload.  While a thread is
//! unwinding, its hooks degrade to free-running (plain `try_lock` spins, no
//! controller interaction) so drop glue that takes locks cannot wedge the
//! teardown.

use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use mpf_shm::hooks::{self, SyncEvent, SyncHook};

use crate::explore::DeathPlan;
use crate::sched::{Sched, KILL_BIT};

/// Why a schedule failed.  Carried in [`crate::Failure`] together with the
/// schedule id that reproduces it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// A logical process panicked.
    Panic {
        /// Index of the process in the case's `procs` vector.
        thread: usize,
        /// The panic payload, stringified.
        message: String,
    },
    /// No process runnable, some still blocked.
    Deadlock {
        /// The blocked process indices.
        blocked: Vec<usize>,
    },
    /// The schedule exceeded the decision budget (livelock guard).
    StepLimit,
    /// The case's `check` closure rejected the final state.
    CheckFailed(String),
    /// A replayed schedule prefix diverged from its recording.
    Nondeterminism(String),
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::Panic { thread, message } => {
                write!(f, "process {thread} panicked: {message}")
            }
            FailureKind::Deadlock { blocked } => {
                write!(f, "deadlock: processes {blocked:?} blocked, none runnable")
            }
            FailureKind::StepLimit => write!(f, "step limit exceeded (livelock?)"),
            FailureKind::CheckFailed(msg) => write!(f, "final-state check failed: {msg}"),
            FailureKind::Nondeterminism(msg) => write!(f, "nondeterministic case: {msg}"),
        }
    }
}

/// Panic payload used to unwind a logical process when the schedule is
/// torn down.  Not itself a failure; the real cause is already recorded.
struct Aborted;

/// Panic payload used to unwind a logical process the scheduler chose to
/// *kill* (modeled `SIGKILL`).  Also not a failure: death is part of the
/// explored state space, and the victim's thread must still exit so the
/// run can join it.  The modeled process stays a corpse — its status
/// remains [`Status::Dead`], any in-region locks it held stay held (the
/// facility's manual lock/unlock discipline means unwinding releases
/// nothing shared), and survivors must cope.
struct Killed;

/// Scheduling state of one logical process.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Status {
    /// Can be picked to run.
    Runnable,
    /// Waiting for the lock at this resource address to be released.
    BlockedLock(usize),
    /// Waiting for a notify on any of these wait-queue addresses.
    BlockedWait(Vec<usize>),
    /// Done (returned, or unwound after an abort).
    Finished,
    /// Vanished by a kill pseudo-option: terminal, but *not* a clean
    /// finish — whatever the process held in the region, it still holds.
    Dead,
}

/// Terminal states: the schedule can end while processes are in these.
fn terminal(s: &Status) -> bool {
    matches!(s, Status::Finished | Status::Dead)
}

struct State {
    /// Set by `launch` once all workers are spawned.
    started: bool,
    /// A failure was recorded; all parked threads must unwind.
    aborted: bool,
    /// Thread id currently holding the run token.
    current: usize,
    status: Vec<Status>,
    /// Which processes the scheduler may kill (from the case's
    /// [`DeathPlan`]; each dies at most once — `Dead` is terminal).
    mortal: Vec<bool>,
    /// Invoked under the state lock when a process is killed; flips the
    /// facility's modeled liveness oracle.  Must be hook-free (atomic
    /// stores only) — a hooked operation here would re-enter the
    /// scheduler on the deciding thread and wedge the run.
    on_death: Option<Box<dyn Fn(usize) + Send>>,
    /// Scheduling decisions taken so far.
    steps: u64,
    sched: Sched,
    failure: Option<FailureKind>,
}

fn runnable_of(status: &[Status]) -> Vec<usize> {
    status
        .iter()
        .enumerate()
        .filter(|(_, s)| **s == Status::Runnable)
        .map(|(t, _)| t)
        .collect()
}

fn blocked_of(status: &[Status]) -> Vec<usize> {
    status
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s, Status::BlockedLock(_) | Status::BlockedWait(_)))
        .map(|(t, _)| t)
        .collect()
}

/// Suppresses the default panic printout for the harness's own [`Aborted`]
/// and [`Killed`] unwinds, which would otherwise spam one "thread
/// panicked" banner per parked process per failing schedule (or per
/// modeled death).  Real panics still print.
fn silence_aborted_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<Aborted>().is_none()
                && info.payload().downcast_ref::<Killed>().is_none()
            {
                prev(info);
            }
        }));
    });
}

/// Runs one case under one schedule.  See the module docs for the model.
pub(crate) struct Controller {
    state: Mutex<State>,
    cv: Condvar,
    /// Treat pool alloc/free events as preemption points too (finer
    /// interleavings, much larger schedule tree).
    preempt_events: bool,
    max_steps: u64,
}

impl Controller {
    pub fn new(
        n: usize,
        sched: Sched,
        preempt_events: bool,
        max_steps: u64,
        death: Option<DeathPlan>,
    ) -> Arc<Self> {
        assert!(n > 0, "a case needs at least one process");
        let mut mortal = vec![false; n];
        let on_death = death.map(|d| {
            for t in d.victims {
                assert!(t < n, "death plan victim {t} out of range (n = {n})");
                mortal[t] = true;
            }
            d.on_death
        });
        Arc::new(Self {
            state: Mutex::new(State {
                started: false,
                aborted: false,
                current: usize::MAX,
                status: vec![Status::Runnable; n],
                mortal,
                on_death,
                steps: 0,
                sched,
                failure: None,
            }),
            cv: Condvar::new(),
            preempt_events,
            max_steps,
        })
    }

    /// Runs `procs` to completion (or failure) under this controller's
    /// schedule.  Returns the failure, if any, and the number of decisions
    /// taken.
    pub fn run(
        self: &Arc<Self>,
        procs: Vec<Box<dyn FnOnce() + Send>>,
    ) -> (Option<FailureKind>, u64) {
        silence_aborted_panics();
        std::thread::scope(|scope| {
            for (tid, proc) in procs.into_iter().enumerate() {
                let ctrl = Arc::clone(self);
                scope.spawn(move || ctrl.worker(tid, proc));
            }
            self.launch();
        });
        let st = self.lock_state();
        (st.failure.clone(), st.steps)
    }

    /// Recovers the schedule strategy (with its recorded decisions) after
    /// [`Self::run`] returned and all workers are joined.
    pub fn into_sched(self: Arc<Self>) -> Sched {
        let ctrl = Arc::try_unwrap(self)
            .ok()
            .expect("workers joined, no other controller refs remain");
        ctrl.state
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .sched
    }

    fn lock_state(&self) -> MutexGuard<'_, State> {
        // The state mutex is never held across a panic (every unwind drops
        // the guard first), but stay deliberate about poisoning anyway.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn worker(self: Arc<Self>, tid: usize, proc: Box<dyn FnOnce() + Send>) {
        let binding: Rc<dyn SyncHook> = Rc::new(Binding {
            ctrl: Arc::clone(&self),
            tid,
        });
        let _guard = hooks::install(binding);
        match panic::catch_unwind(AssertUnwindSafe(|| {
            self.first_wait(tid);
            proc();
        })) {
            Ok(()) => self.finish(tid),
            Err(payload) => {
                if payload.downcast_ref::<Aborted>().is_some() {
                    // Harness-initiated teardown; cause already recorded.
                    self.finish_after_abort(tid);
                } else if payload.downcast_ref::<Killed>().is_some() {
                    // Modeled death: the thread exits so the run can join
                    // it, but the logical process stays a corpse (status
                    // `Dead`, in-region locks still held).  The unwind is
                    // complete here — only now may anyone else run.
                    self.after_kill();
                } else {
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".into());
                    self.abort(
                        tid,
                        FailureKind::Panic {
                            thread: tid,
                            message,
                        },
                    );
                }
            }
        }
    }

    /// Parks a freshly spawned worker until the launch decision picks it.
    fn first_wait(&self, tid: usize) {
        let mut st = self.lock_state();
        while !(st.aborted || st.status[tid] == Status::Dead || st.started && st.current == tid) {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if st.aborted {
            drop(st);
            panic::panic_any(Aborted);
        }
        if st.status[tid] == Status::Dead {
            // Killed before its first instruction ran: a valid modeled
            // death (the process attached and then vanished).
            drop(st);
            panic::panic_any(Killed);
        }
    }

    /// Takes the first scheduling decision once every worker is spawned.
    fn launch(&self) {
        let mut st = self.lock_state();
        st.started = true;
        if let Some(next) = self.decide(&mut st) {
            // Possibly a victim killed at the starting line: it wakes,
            // sees `Dead`, and unwinds before anyone else runs.
            st.current = next;
        }
        drop(st);
        self.cv.notify_all();
    }

    /// The scheduler's option set for the current state: runnable thread
    /// ids (ascending) followed by one [`KILL_BIT`]-tagged kill
    /// pseudo-option per still-alive mortal process (ascending).
    fn options_of(st: &State) -> Vec<usize> {
        let mut opts = runnable_of(&st.status);
        for (t, s) in st.status.iter().enumerate() {
            if st.mortal[t] && !terminal(s) {
                opts.push(KILL_BIT | t);
            }
        }
        opts
    }

    /// One scheduling decision.  A kill pseudo-option marks the victim
    /// [`Status::Dead`], runs the case's `on_death` callback (which flips
    /// the facility's modeled liveness oracle), wakes every blocked
    /// process to re-evaluate against the new world — a corpse's locks
    /// can now be broken, its notifies will never come — and returns the
    /// *victim* as the next scheduled thread: it wakes, sees `Dead`, and
    /// unwinds with [`Killed`] while every other process stays parked, so
    /// its drop glue (process-local guard releases, `Arc` drops) cannot
    /// race the next process's steps and perturb the schedule.  The
    /// decision after a kill is taken in [`Self::after_kill`], once the
    /// unwind has fully completed.  Returns `None` only when no option
    /// remains (every process terminal, or a genuine deadlock — the
    /// caller distinguishes).
    fn decide(&self, st: &mut State) -> Option<usize> {
        let opts = Self::options_of(st);
        if opts.is_empty() {
            return None;
        }
        let choice = st.sched.choose(&opts);
        if choice & KILL_BIT == 0 {
            return Some(choice);
        }
        let victim = choice & !KILL_BIT;
        st.status[victim] = Status::Dead;
        if let Some(cb) = &st.on_death {
            cb(victim);
        }
        for s in st.status.iter_mut() {
            if matches!(s, Status::BlockedLock(_) | Status::BlockedWait(_)) {
                // Spurious wakeup (legal): once scheduled they retry
                // their `try_lock`/`ready` against the corpse's state.
                *s = Status::Runnable;
            }
        }
        Some(victim)
    }

    /// The heart of the model: the calling process (which holds the run
    /// token) records its new status, the strategy picks the next process,
    /// and the caller parks until it is scheduled again.  Unwinds with
    /// [`Aborted`] on abort, step-limit, or deadlock — and with
    /// [`Killed`] when a kill decision (possibly its own) vanished the
    /// caller.
    fn deschedule(&self, tid: usize, status: Status) {
        let mut st = self.lock_state();
        if st.aborted {
            drop(st);
            panic::panic_any(Aborted);
        }
        debug_assert_eq!(st.current, tid, "only the scheduled process may act");
        st.steps += 1;
        if st.steps > self.max_steps {
            st.failure.get_or_insert(FailureKind::StepLimit);
            self.abort_locked(st);
        }
        st.status[tid] = status;
        match self.decide(&mut st) {
            Some(next) => st.current = next,
            None => {
                // The caller just blocked, nobody can make progress, and
                // no kill can change that (the caller itself is blocked,
                // so "all terminal" is impossible here).
                let blocked = blocked_of(&st.status);
                st.failure.get_or_insert(FailureKind::Deadlock { blocked });
                self.abort_locked(st);
            }
        }
        self.cv.notify_all();
        while !(st.aborted
            || st.status[tid] == Status::Dead
            || st.current == tid && st.status[tid] == Status::Runnable)
        {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if st.aborted {
            drop(st);
            panic::panic_any(Aborted);
        }
        if st.status[tid] == Status::Dead {
            drop(st);
            panic::panic_any(Killed);
        }
    }

    /// Records the failure already stored in `st`, wakes every parked
    /// process, and unwinds the caller.  Never returns.
    fn abort_locked(&self, mut st: MutexGuard<'_, State>) -> ! {
        st.aborted = true;
        drop(st);
        self.cv.notify_all();
        panic::panic_any(Aborted);
    }

    /// Marks processes blocked on the lock at `res` runnable again.
    fn wake_lock_waiters(&self, res: usize) {
        let mut st = self.lock_state();
        if st.aborted {
            drop(st);
            panic::panic_any(Aborted);
        }
        for s in st.status.iter_mut() {
            if *s == Status::BlockedLock(res) {
                *s = Status::Runnable;
            }
        }
    }

    /// Marks processes waiting on the queue at `res` runnable again; they
    /// re-check their `ready` predicates once scheduled.
    fn wake_wait_waiters(&self, res: usize) {
        let mut st = self.lock_state();
        if st.aborted {
            drop(st);
            panic::panic_any(Aborted);
        }
        for s in st.status.iter_mut() {
            if matches!(s, Status::BlockedWait(rs) if rs.contains(&res)) {
                *s = Status::Runnable;
            }
        }
    }

    /// Normal completion of a process: hand the token to whoever is next,
    /// or detect termination / deadlock.
    fn finish(&self, tid: usize) {
        let mut st = self.lock_state();
        st.status[tid] = Status::Finished;
        if st.aborted || st.status.iter().all(terminal) {
            drop(st);
            self.cv.notify_all();
            return;
        }
        match self.decide(&mut st) {
            Some(next) => st.current = next,
            None => {
                // Someone is still non-terminal (checked above) with no
                // runnable process and no kill left: deadlock.
                let blocked = blocked_of(&st.status);
                st.failure.get_or_insert(FailureKind::Deadlock { blocked });
                st.aborted = true;
            }
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Hand-off after a modeled death: the victim's thread calls this from
    /// its [`Killed`] catch, once its unwind has fully completed — only
    /// then is the next process scheduled, so unwind side effects
    /// (process-local lock releases in drop glue) are ordered before
    /// anything a survivor does.  Mirrors [`Self::finish`] except the
    /// victim's status is already [`Status::Dead`].
    fn after_kill(&self) {
        let mut st = self.lock_state();
        if st.aborted || st.status.iter().all(terminal) {
            drop(st);
            self.cv.notify_all();
            return;
        }
        match self.decide(&mut st) {
            Some(next) => st.current = next,
            None => {
                let blocked = blocked_of(&st.status);
                st.failure.get_or_insert(FailureKind::Deadlock { blocked });
                st.aborted = true;
            }
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Completion of a process that unwound with [`Aborted`]: just record
    /// it so `run` can join everyone.
    fn finish_after_abort(&self, tid: usize) {
        let mut st = self.lock_state();
        st.status[tid] = Status::Finished;
        drop(st);
        self.cv.notify_all();
    }

    /// A process failed for real: record the cause and tear everything
    /// down.
    fn abort(&self, tid: usize, failure: FailureKind) {
        let mut st = self.lock_state();
        st.status[tid] = Status::Finished;
        st.failure.get_or_insert(failure);
        st.aborted = true;
        drop(st);
        self.cv.notify_all();
    }
}

/// The per-thread [`SyncHook`] connecting a logical process to its
/// controller.
///
/// Every method first checks [`std::thread::panicking`]: while the thread
/// is unwinding (either from a real failure or from the harness's
/// [`Aborted`] teardown) the hooks degrade to free-running — locks spin on
/// `try_lock`, waits return immediately (a legal spurious wakeup), release
/// and notify do nothing — so drop glue inside the facility can never
/// re-enter the (now aborted) scheduler and wedge the teardown.
struct Binding {
    ctrl: Arc<Controller>,
    tid: usize,
}

impl SyncHook for Binding {
    fn yield_point(&self, _ev: SyncEvent) {
        if std::thread::panicking() {
            return;
        }
        if self.ctrl.preempt_events {
            self.ctrl.deschedule(self.tid, Status::Runnable);
        }
    }

    fn lock_acquire(&self, resource: usize, try_lock: &mut dyn FnMut() -> bool) {
        if std::thread::panicking() {
            // Free-running teardown: the holder is unwinding too and will
            // release through its guard drops.
            while !try_lock() {
                std::thread::yield_now();
            }
            return;
        }
        loop {
            // Acquiring is a preemption point: another process may run (and
            // even take this lock) first.
            self.ctrl.deschedule(self.tid, Status::Runnable);
            if try_lock() {
                return;
            }
            // Park until the holder's release hook marks us runnable, then
            // retry — the release order is itself a scheduling decision.
            self.ctrl
                .deschedule(self.tid, Status::BlockedLock(resource));
        }
    }

    fn lock_release(&self, resource: usize) {
        if std::thread::panicking() {
            return;
        }
        self.ctrl.wake_lock_waiters(resource);
        self.ctrl.deschedule(self.tid, Status::Runnable);
    }

    fn wait(&self, resource: usize, ready: &mut dyn FnMut() -> bool) {
        if std::thread::panicking() {
            return;
        }
        // Execution is serialized, so nothing can fire the condition
        // between this check and parking: no lost wakeups by construction.
        while !ready() {
            self.ctrl
                .deschedule(self.tid, Status::BlockedWait(vec![resource]));
        }
    }

    fn notify(&self, resource: usize) {
        if std::thread::panicking() {
            return;
        }
        self.ctrl.wake_wait_waiters(resource);
        self.ctrl.deschedule(self.tid, Status::Runnable);
    }
}
