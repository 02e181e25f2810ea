//! Criterion micro-benchmarks of the fabric verbs (host wall-clock).
//!
//! These measure how fast the *simulator* executes — the experiment
//! drivers (`e1`–`e10`) measure virtual-time/far-access results. Both
//! matter: the drivers' workloads are only practical because the verbs
//! below run in tens of nanoseconds of host time.

use criterion::{criterion_group, criterion_main, Criterion};
use farmem_fabric::{BatchOp, CostModel, FabricConfig, FarAddr, FarIov};
use std::hint::black_box;

fn bench_verbs(c: &mut Criterion) {
    let fabric =
        FabricConfig { cost: CostModel::DEFAULT, ..FabricConfig::single_node(64 << 20) }.build();
    let mut client = fabric.client();
    client.write_u64(FarAddr(64), 4096).unwrap();
    client.write(FarAddr(4096), &[7u8; 1024]).unwrap();

    let mut g = c.benchmark_group("fabric");
    g.bench_function("read_u64", |b| {
        b.iter(|| black_box(client.read_u64(FarAddr(4096)).unwrap()))
    });
    g.bench_function("write_u64", |b| {
        b.iter(|| client.write_u64(FarAddr(4096), black_box(9)).unwrap())
    });
    g.bench_function("read_1k", |b| {
        b.iter(|| black_box(client.read(FarAddr(4096), 1024).unwrap()))
    });
    // Starts and ends mid-word: one partial head and one partial tail word.
    g.bench_function("read_1k_unaligned", |b| {
        b.iter(|| black_box(client.read(FarAddr(4099), 1024).unwrap()))
    });
    let block = [5u8; 1024];
    g.bench_function("write_1k", |b| {
        b.iter(|| client.write(FarAddr(65536), black_box(&block)).unwrap())
    });
    g.bench_function("cas", |b| {
        b.iter(|| black_box(client.cas(FarAddr(4104), 0, 0).unwrap()))
    });
    g.bench_function("faa", |b| {
        b.iter(|| black_box(client.faa(FarAddr(4112), 1).unwrap()))
    });
    g.bench_function("load0", |b| {
        b.iter(|| black_box(client.load0(FarAddr(64), 8).unwrap()))
    });
    g.bench_function("add2", |b| {
        b.iter(|| client.add2(FarAddr(64), 1, 16).unwrap())
    });
    let iov: Vec<FarIov> = (0..8).map(|i| FarIov::new(FarAddr(8192 + i * 4096), 64)).collect();
    g.bench_function("rgather_8x64B", |b| {
        b.iter(|| black_box(client.rgather(&iov).unwrap()))
    });
    g.bench_function("batch_write_cas", |b| {
        let data = [1u8; 8];
        b.iter(|| {
            client
                .batch(&[
                    BatchOp::Write { addr: FarAddr(8192), data: &data },
                    BatchOp::Cas { addr: FarAddr(8200), expected: 0, new: 0 },
                ])
                .unwrap()
        })
    });
    g.finish();

    // Notification fire path: one writer, one subscribed watcher.
    let mut g = c.benchmark_group("notify");
    let mut watcher = fabric.client();
    watcher.notify0(FarAddr(16384), 64).unwrap();
    g.bench_function("write_with_subscriber", |b| {
        b.iter(|| {
            client.write_u64(FarAddr(16384), black_box(3)).unwrap();
            let _ = watcher.recv_events();
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_verbs
}
criterion_main!(benches);
