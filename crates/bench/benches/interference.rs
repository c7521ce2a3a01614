//! Benchmarks Algorithm 1 at the tuner sweep's batch shapes: the batched
//! column predictor (`predict_columns`, what the sweep runs) against
//! per-row scalar `predict` over the same rows.
//!
//! Batch sizes: ~7k rows is a typical survivor batch of the GPT-3 6.7B
//! CI tune; 8 is one vector, 256 one chunk of the Eq. 5/6 fold. Rows
//! follow the forward-tuple live-mask mix of that tune: all four streams
//! busy in 45% of rows, compute+NCCL+H2D in 22%, compute+NCCL+D2H in
//! 21%, and fewer streams in the rest.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mist::InterferenceModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `(live mask, percent of rows)` over `[compute, nccl, h2d, d2h]`.
const MASK_MIX: [(u8, u32); 5] = [
    (0b1111, 45),
    (0b0111, 22),
    (0b1011, 21),
    (0b0011, 6),
    (0b0001, 6),
];

/// `n` rows as four stream columns.
fn columns(n: usize) -> [Vec<f64>; 4] {
    let mut rng = StdRng::seed_from_u64(7);
    let mut cols: [Vec<f64>; 4] = Default::default();
    for _ in 0..n {
        let mut pick = rng.gen_range(0..100u32);
        let mask = MASK_MIX
            .iter()
            .find(|&&(_, pct)| {
                let hit = pick < pct;
                pick = pick.saturating_sub(pct);
                hit
            })
            .map_or(0b0001, |&(m, _)| m);
        let scale = [20e-3, 4e-3, 2e-3, 2e-3];
        for (i, col) in cols.iter_mut().enumerate() {
            col.push(if mask & (1 << i) != 0 {
                scale[i] * rng.gen_range(0.05..1.0)
            } else {
                0.0
            });
        }
    }
    cols
}

fn bench_predict(c: &mut Criterion) {
    let m = InterferenceModel::pcie_defaults();
    let mut group = c.benchmark_group("interference");
    for n in [8usize, 256, 7000] {
        let cols = columns(n);
        let x = [&cols[0][..], &cols[1][..], &cols[2][..], &cols[3][..]];
        let mut out = vec![0.0; n];
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("columns", n), &x, |b, x| {
            b.iter(|| {
                m.predict_columns(black_box(*x), &mut out);
                black_box(out[n - 1])
            })
        });
        group.bench_with_input(BenchmarkId::new("scalar", n), &x, |b, x| {
            b.iter(|| {
                for (r, o) in out.iter_mut().enumerate() {
                    *o = m.predict(black_box([x[0][r], x[1][r], x[2][r], x[3][r]]));
                }
                black_box(out[n - 1])
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_predict);
criterion_main!(benches);
