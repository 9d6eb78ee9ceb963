//! Criterion bench: per-event cost of the zero-copy hot path.
//!
//! One iteration is a full warmed-up steady-state round — the
//! send → forward → deliver → dispatch cycle the frame-layout
//! certificate licenses, with each payload encoded into a frame once at
//! its send site and decoded once at its destination — measured in
//! isolation from topology bring-up.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wsn_bench::hotpath::steady_state_hotpath;

fn bench_steady_state(c: &mut Criterion) {
    let mut group = c.benchmark_group("steady_state_round");
    group.sample_size(10);
    for side in [4u32, 8] {
        group.bench_with_input(BenchmarkId::new("side", side), &side, |b, &side| {
            b.iter(|| steady_state_hotpath(std::hint::black_box(side), 50, 2));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_steady_state);
criterion_main!(benches);
