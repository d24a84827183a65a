//! Tiny std-only executor.
//!
//! Two entry points: [`block_on`] drives a single future on the calling
//! thread (parking between polls), and [`Executor`] drives any number of
//! spawned tasks on one thread with a FIFO run queue.  Wakers are the
//! ordinary [`std::task::Waker`] machinery — [`crate::reactor::Reactor`]
//! holds them and fires them from its own thread, which unparks
//! `block_on` or re-queues the task here.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::{self, Thread};

/// Waker that unparks the thread blocked in [`block_on`].
struct Unpark(Thread);

impl Wake for Unpark {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// Drives one future to completion on the calling thread.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let mut fut = std::pin::pin!(fut);
    let waker = Waker::from(Arc::new(Unpark(thread::current())));
    let mut cx = Context::from_waker(&waker);
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(v) => return v,
            Poll::Pending => thread::park(),
        }
    }
}

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// One spawned task: the future lives behind a mutex so a wake arriving
/// while the executor is mid-poll re-queues the task instead of polling
/// it from two threads at once.
struct Task {
    fut: Mutex<Option<BoxFuture>>,
    shared: Weak<Shared>,
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        if let Some(shared) = self.shared.upgrade() {
            shared.push(self);
        }
    }
}

struct Inner {
    ready: VecDeque<Arc<Task>>,
    /// Spawned tasks that have not yet completed; `run` returns at zero.
    live: usize,
}

struct Shared {
    inner: Mutex<Inner>,
    cv: Condvar,
}

impl Shared {
    fn push(&self, task: Arc<Task>) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.ready.push_back(task);
        drop(inner);
        self.cv.notify_one();
    }
}

/// Handle to a spawned task's result; valid after [`Executor::run`].
pub struct JoinHandle<T> {
    cell: Arc<Mutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    /// Takes the result.  Panics if the task has not completed — call
    /// [`Executor::run`] first.
    pub fn join(self) -> T {
        self.cell
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .expect("task not finished; run the executor to completion first")
    }
}

/// Single-threaded run-to-completion executor over a FIFO queue.
#[derive(Default)]
pub struct Executor {
    shared: Arc<Shared>,
}

impl Default for Shared {
    fn default() -> Self {
        Shared {
            inner: Mutex::new(Inner {
                ready: VecDeque::new(),
                live: 0,
            }),
            cv: Condvar::new(),
        }
    }
}

impl Executor {
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a future; it first runs inside [`Executor::run`].
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let cell = Arc::new(Mutex::new(None));
        let out = Arc::clone(&cell);
        let wrapped: BoxFuture = Box::pin(async move {
            let v = fut.await;
            *out.lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
        });
        let task = Arc::new(Task {
            fut: Mutex::new(Some(wrapped)),
            shared: Arc::downgrade(&self.shared),
        });
        let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.live += 1;
        inner.ready.push_back(task);
        drop(inner);
        self.shared.cv.notify_one();
        JoinHandle { cell }
    }

    /// Polls ready tasks (sleeping when none are) until every spawned
    /// task has completed.
    pub fn run(&self) {
        loop {
            let task = {
                let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if inner.live == 0 {
                        return;
                    }
                    if let Some(t) = inner.ready.pop_front() {
                        break t;
                    }
                    inner = self
                        .shared
                        .cv
                        .wait(inner)
                        .unwrap_or_else(|e| e.into_inner());
                }
            };
            let waker = Waker::from(Arc::clone(&task));
            let mut cx = Context::from_waker(&waker);
            let mut slot = task.fut.lock().unwrap_or_else(|e| e.into_inner());
            // `None` means the task already completed and this is a
            // stale queue entry from a late wake.
            if let Some(mut fut) = slot.take() {
                match fut.as_mut().poll(&mut cx) {
                    Poll::Ready(()) => {
                        let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
                        inner.live -= 1;
                    }
                    Poll::Pending => *slot = Some(fut),
                }
            }
        }
    }
}
