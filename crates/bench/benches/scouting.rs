//! Criterion bench for F3: scouting-logic operations on the crossbar
//! versus host-side boolean ops on fetched rows (the data-movement
//! elimination the MVP section argues for).

use criterion::{criterion_group, criterion_main, Criterion};
use memcim_bits::BitVec;
use memcim_crossbar::{Crossbar, CrossbarBackend, ScoutingKind};
use std::hint::black_box;

fn setup(cols: usize) -> Crossbar {
    let mut xbar = Crossbar::rram(8, cols);
    for r in 0..8 {
        let v = BitVec::from_indices(cols, &(r..cols).step_by(r + 2).collect::<Vec<_>>());
        xbar.program_row(r, &v).expect("program");
    }
    xbar
}

fn bench_scouting(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_scouting");
    for cols in [256usize, 1024, 4096] {
        let mut xbar = setup(cols);
        group.bench_function(format!("scouting_and_2x{cols}"), |b| {
            b.iter(|| black_box(xbar.scouting(ScoutingKind::And, &[0, 1]).expect("and")))
        });
        let mut xbar_or = setup(cols);
        group.bench_function(format!("scouting_or_8x{cols}"), |b| {
            b.iter(|| {
                black_box(
                    xbar_or.scouting(ScoutingKind::Or, &[0, 1, 2, 3, 4, 5, 6, 7]).expect("or"),
                )
            })
        });
        // Host-side reference: the same logic on already-fetched rows.
        let a = BitVec::from_indices(cols, &(0..cols).step_by(2).collect::<Vec<_>>());
        let bvec = BitVec::from_indices(cols, &(0..cols).step_by(3).collect::<Vec<_>>());
        group.bench_function(format!("host_and_2x{cols}"), |b| b.iter(|| black_box(a.and(&bvec))));
    }
    group.finish();
}

criterion_group!(benches, bench_scouting);
criterion_main!(benches);
