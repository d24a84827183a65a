//! Ablation A1 — message block size.
//!
//! The paper ran everything with 10-byte blocks (§3.1 footnote 4).  Small
//! blocks amortize poorly: a 1024-byte message is a 103-block chain, and
//! every walk of it (allocate, copy, free) reads 103 links — though the
//! pool is touched once per chain, not once per block.  This bench sweeps
//! the block payload to quantify that design choice.

use mpf::{Mpf, MpfConfig, ProcessId, Protocol};
use mpf_bench::crit::{BenchmarkId, Criterion, Throughput};
use mpf_bench::{criterion_group, criterion_main};

fn bench_block_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("block_size_1024B_roundtrip");
    group.throughput(Throughput::Bytes(1024));
    for block in [10usize, 64, 256, 1024] {
        let mpf = Mpf::init(
            MpfConfig::new(4, 2)
                .with_block_payload(block)
                .with_total_blocks(8192),
        )
        .expect("init");
        let p = ProcessId::from_index(0);
        let tx = mpf.sender(p, "a1").expect("tx");
        let rx = mpf.receiver(p, "a1", Protocol::Fcfs).expect("rx");
        let payload = vec![1u8; 1024];
        let mut buf = vec![0u8; 1024];
        group.bench_with_input(BenchmarkId::new("paper_10B_vs", block), &block, |b, _| {
            b.iter(|| {
                tx.send(&payload).expect("send");
                rx.recv(&mut buf).expect("recv")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_block_sizes);
criterion_main!(benches);
