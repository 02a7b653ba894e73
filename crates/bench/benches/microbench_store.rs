//! Micro-benchmarks of the durability layer: snapshot encode/decode
//! throughput at collection sizes bracketing a production shard, and WAL
//! append latency.
//!
//! The numbers to watch: snapshot cost must stay proportional to snapshot
//! bytes (the `repro bench` target enforces an absolute MB/s floor in CI);
//! WAL appends are the per-boundary steady-state cost and must stay flat
//! regardless of collection size (they scale with the *fetch rate*, not
//! the corpus).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use webevo::store::{decode_snapshot, encode_snapshot, WalWriter};
use webevo_bench::{synthetic_records, synthetic_state};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("store");
    g.sample_size(10);

    for &pages in &[10_000u64, 100_000] {
        let state = synthetic_state(pages);
        let doc = encode_snapshot(&state);
        g.bench_with_input(
            BenchmarkId::new("snapshot_encode_pages", pages),
            &state,
            |b, state| b.iter(|| black_box(encode_snapshot(black_box(state)))),
        );
        g.bench_with_input(
            BenchmarkId::new("snapshot_decode_pages", pages),
            &doc,
            |b, doc| b.iter(|| black_box(decode_snapshot(black_box(doc)).expect("decodes"))),
        );
    }

    // WAL append latency: one pass-boundary flush of a day's worth of
    // fetch records (the batch size tracks crawl rate, not corpus size).
    for &batch in &[64u64, 512] {
        let records = synthetic_records(batch);
        let path = std::env::temp_dir()
            .join(format!("webevo-bench-wal-{}-{batch}.wlog", std::process::id()));
        let mut writer = WalWriter::create(&path).expect("temp WAL writable");
        let mut seq = 0u64;
        g.bench_with_input(
            BenchmarkId::new("wal_append_records", batch),
            &records,
            |b, records| {
                b.iter(|| {
                    seq += batch;
                    writer.append_committed(black_box(records), seq).expect("append")
                })
            },
        );
        let _ = std::fs::remove_file(&path);
    }

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
