//! Ablation A2 — lock implementation (spin vs ticket vs OS mutex), at the
//! primitive: one uncontended `ShmLock` lock/unlock pair per kind.
//!
//! The paper's substrate was a busy-wait lock; §5 observes that restricted
//! protocols could drop locking altogether.  The facility itself has no
//! lock knob — its conversations use `IpcLock`, the one lock that can
//! outlive a dead holder, measured here beside the others — so the
//! ablation drives the primitives directly.  The contended case is what
//! `fig4_fcfs --sim` models.

use mpf_bench::crit::{BenchmarkId, Criterion};
use mpf_bench::{criterion_group, criterion_main};
use mpf_shm::lock::{LockKind, ShmLock};
use mpf_shm::IpcLock;

fn bench_locks(c: &mut Criterion) {
    let mut group = c.benchmark_group("lock_kind_pair");
    for (name, kind) in [
        ("spin", LockKind::Spin),
        ("ticket", LockKind::Ticket),
        ("os", LockKind::Os),
    ] {
        let lock = ShmLock::new(kind);
        group.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, _| {
            b.iter(|| drop(lock.lock()));
        });
    }
    let lock = IpcLock::new();
    group.bench_with_input(BenchmarkId::from_parameter("ipc"), &"ipc", |b, _| {
        b.iter(|| {
            lock.lock(1, |_| true);
            lock.unlock();
        });
    });
    group.finish();
}

criterion_group!(benches, bench_locks);
criterion_main!(benches);
