//! Ablation A3 — blocking-wait strategy (spin vs yield vs park), at the
//! primitive: a cross-thread ping-pong over two `WaitQueue`s, so every
//! round trip includes one `WaitQueue::wait(_, strategy)` wakeup each way.
//!
//! How a blocked receiver waits decides the wakeup latency and the CPU
//! burned while idle.  The facility itself has no strategy knob — it
//! sleeps on in-region futex words (`FutexSeq`) — so the ablation drives
//! the primitive directly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mpf_bench::crit::{BenchmarkId, Criterion};
use mpf_bench::{criterion_group, criterion_main};
use mpf_shm::waitq::{WaitQueue, WaitStrategy};

/// One direction of the ping-pong: a counter and the queue its reader
/// waits on.
#[derive(Default)]
struct Lane {
    count: AtomicU64,
    q: WaitQueue,
}

impl Lane {
    fn post(&self) {
        self.count.fetch_add(1, Ordering::Release);
        self.q.notify_all();
    }

    /// Ticket before the check, as every waiter in the workspace does.
    fn await_count(&self, want: u64, strategy: WaitStrategy) {
        loop {
            let ticket = self.q.ticket();
            if self.count.load(Ordering::Acquire) >= want {
                return;
            }
            self.q.wait(ticket, strategy);
        }
    }
}

fn ping_pong_rounds(strategy: WaitStrategy, rounds: u64) -> Duration {
    let (ping, pong) = (Lane::default(), Lane::default());
    let start = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 1..=rounds {
                ping.await_count(i, strategy);
                pong.post();
            }
        });
        for i in 1..=rounds {
            ping.post();
            pong.await_count(i, strategy);
        }
    });
    start.elapsed()
}

fn bench_wait_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("wait_strategy_pingpong");
    group.sample_size(10);
    for (name, strategy) in [
        ("spin", WaitStrategy::Spin),
        ("yield", WaitStrategy::Yield),
        ("park", WaitStrategy::Park),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, _| {
            b.iter_custom(|iters| ping_pong_rounds(strategy, iters));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_wait_strategies);
criterion_main!(benches);
