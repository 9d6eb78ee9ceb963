//! Criterion bench: per-event cost of the zero-copy hot path.
//!
//! One iteration is a full warmed-up steady-state round — the
//! send → stamp-in-place → deliver → dispatch cycle the frame-layout
//! certificate licenses — so `wall/events` here is the same per-event
//! cost the `perf` gate row tracks as `events_per_sec`, measured in
//! isolation from topology bring-up. The codec microbenches pin the
//! encode/decode halves so a codec regression is attributable even when
//! the end-to-end number moves.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wsn_bench::hotpath::steady_state_hotpath;
use wsn_core::GridCoord;
use wsn_net::FrameBuf;
use wsn_runtime::{decode_rtmsg, encode_rtmsg, set_frame_stamp, AppEnvelope, RtMsg};
use wsn_sim::CausalStamp;

fn envelope() -> AppEnvelope<f64> {
    AppEnvelope {
        src_cell: GridCoord::new(3, 1),
        dest_cell: GridCoord::new(0, 2),
        units: 13,
        round: 7,
        origin: 42,
        msg_id: 9001,
        stamp: CausalStamp {
            seq: 55,
            lamport: 77,
        },
        payload: 2.5,
    }
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame_codec");
    let msg = RtMsg::App(envelope());
    let mut frame = FrameBuf::new();
    encode_rtmsg(&msg, &mut frame).unwrap();
    group.bench_function("encode_app", |b| {
        b.iter(|| encode_rtmsg(std::hint::black_box(&msg), &mut frame).unwrap());
    });
    group.bench_function("decode_app", |b| {
        b.iter(|| decode_rtmsg::<f64>(std::hint::black_box(&frame)).unwrap());
    });
    group.bench_function("restamp_in_place", |b| {
        let mut seq = 0u64;
        b.iter(|| {
            seq += 1;
            set_frame_stamp(
                std::hint::black_box(&mut frame),
                CausalStamp { seq, lamport: seq },
            );
        });
    });
    group.finish();
}

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

criterion_group!(benches, bench_codec, bench_steady_state);
criterion_main!(benches);
