//! Benchmarks the paper's central performance claim for the symbolic
//! analyzer (§5.2): after one symbolic pass, evaluating a configuration is
//! a value substitution — orders of magnitude faster than re-running the
//! analysis per configuration (the "traditional simulator" takes ~6 s per
//! configuration; re-tracing here plays that role).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mist::presets::{gpt3, AttentionImpl, ModelSize};
use mist::{
    ClusterSpec, DeviceMesh, GpuSpec, OpCostDb, Platform, StageAnalyzer, StageCandidate,
    StageConfigValues, StageRole, StageTapes,
};
use mist_symbolic::{BatchBindings, CompiledProgram, CompiledWorkspace, EvalWorkspace};

fn setup() -> (mist::presets::ModelSpec, ClusterSpec, OpCostDb) {
    (
        gpt3(ModelSize::B6_7, 2048, AttentionImpl::Flash),
        ClusterSpec::for_gpu_count(Platform::GcpL4, 8),
        OpCostDb::new(GpuSpec::l4()),
    )
}

fn candidate() -> StageCandidate {
    StageCandidate {
        mesh: DeviceMesh::new(1, 8),
        dp: 4,
        tp: 2,
        micro_batch: 2,
        role: StageRole::Only,
    }
}

/// The "traditional analyzer": full re-analysis per configuration.
fn bench_reanalysis(c: &mut Criterion) {
    let (model, cluster, db) = setup();
    let analyzer = StageAnalyzer::new(&model, &cluster, &db);
    let mut group = c.benchmark_group("traditional");
    group.sample_size(30);
    group.bench_function("analyze_per_config", |b| {
        b.iter(|| {
            let tapes = analyzer.analyze(black_box(&candidate()));
            let cfg = StageConfigValues::plain(32, 1);
            black_box(tapes.eval_point(&cfg))
        })
    });
    group.finish();
}

/// Mist: analyze once, substitute values per configuration.
fn bench_substitution(c: &mut Criterion) {
    let (model, cluster, db) = setup();
    let analyzer = StageAnalyzer::new(&model, &cluster, &db);
    let tapes = analyzer.analyze(&candidate());
    let cfg = StageConfigValues {
        layers: 32,
        ckpt: 8,
        zero: 2,
        wo: 0.0,
        go: 0.5,
        oo: 1.0,
        ao: 0.25,
        inflight: 2,
    };
    c.bench_function("mist/scalar_substitution", |b| {
        b.iter(|| black_box(tapes.eval_point(black_box(&cfg))))
    });
}

/// Batched substitution: the amortized per-configuration cost.
fn bench_batched(c: &mut Criterion) {
    let (model, cluster, db) = setup();
    let analyzer = StageAnalyzer::new(&model, &cluster, &db);
    let tapes = analyzer.analyze(&candidate());
    let mut group = c.benchmark_group("mist/batched_substitution");
    for n in [100usize, 1000, 10000] {
        let mut batch = BatchBindings::new(n);
        batch.set_values("L", (0..n).map(|i| 1.0 + (i % 32) as f64).collect());
        batch.set_values("ckpt", (0..n).map(|i| (i % 8) as f64).collect());
        batch.set_values("zero", (0..n).map(|i| (i % 4) as f64).collect());
        batch.set_values("wo", (0..n).map(|i| (i % 2) as f64 * 0.5).collect());
        batch.set_values("go", (0..n).map(|i| (i % 3) as f64 * 0.5).collect());
        batch.set_values("oo", (0..n).map(|i| (i % 5) as f64 * 0.25).collect());
        batch.set_values("ao", (0..n).map(|i| (i % 4) as f64 * 0.25).collect());
        batch.set_scalar("inflight", 2.0);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                black_box(tapes.mem_fwd.eval_batch(black_box(&batch)).unwrap());
                black_box(tapes.fwd.eval_batch(black_box(&batch)));
            })
        });
    }
    group.finish();
}

/// Fills a batch with a representative knob grid of `n` rows.
fn grid_batch(n: usize) -> BatchBindings {
    let mut batch = BatchBindings::new(n);
    batch.set_values("L", (0..n).map(|i| 1.0 + (i % 32) as f64).collect());
    batch.set_values("ckpt", (0..n).map(|i| (i % 8) as f64).collect());
    batch.set_values("zero", (0..n).map(|i| (i % 4) as f64).collect());
    batch.set_values("wo", (0..n).map(|i| (i % 2) as f64 * 0.5).collect());
    batch.set_values("go", (0..n).map(|i| (i % 3) as f64 * 0.5).collect());
    batch.set_values("oo", (0..n).map(|i| (i % 5) as f64 * 0.25).collect());
    batch.set_values("ao", (0..n).map(|i| (i % 4) as f64 * 0.25).collect());
    batch.set_scalar("inflight", 2.0);
    batch
}

/// Evaluates all 22 stage roots through the 22 individual tapes (the
/// pre-fusion evaluation strategy).
fn eval_separate_tapes(tapes: &StageTapes, batch: &BatchBindings) {
    black_box(tapes.mem_fwd.eval_batch(batch).unwrap());
    black_box(tapes.mem_bwd.eval_batch(batch).unwrap());
    black_box(tapes.mem_resident.eval_batch(batch).unwrap());
    black_box(tapes.mem_act_per_mb.eval_batch(batch).unwrap());
    black_box(tapes.mem_transient_fwd.eval_batch(batch).unwrap());
    black_box(tapes.mem_transient_bwd.eval_batch(batch).unwrap());
    black_box(tapes.fwd.eval_batch(batch));
    black_box(tapes.bwd.eval_batch(batch));
    black_box(tapes.first_extra.eval_batch(batch));
    black_box(tapes.last_extra.eval_batch(batch));
}

/// Fused multi-root program vs 22 separate tapes over the full stage
/// model at batch 10 000 — the tentpole comparison. The fused side reuses
/// one workspace across iterations (zero steady-state allocation).
fn bench_fused_vs_separate(c: &mut Criterion) {
    let (model, cluster, db) = setup();
    let analyzer = StageAnalyzer::new(&model, &cluster, &db);
    let tapes = analyzer.analyze(&candidate());
    let mut group = c.benchmark_group("fused_vs_separate");
    let n = 10_000usize;
    let batch = grid_batch(n);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function(BenchmarkId::new("separate_22_tapes", n), |b| {
        b.iter(|| eval_separate_tapes(&tapes, black_box(&batch)))
    });
    let mut ws = EvalWorkspace::new();
    group.bench_function(BenchmarkId::new("fused_program", n), |b| {
        b.iter(|| {
            tapes.eval_batch_fused(black_box(&batch), &mut ws).unwrap();
            black_box(ws.output(0));
        })
    });
    group.finish();
}

/// The compiled stage program the intra-stage sweep runs vs the fused
/// interpreter, at the batch shapes the sweep issues: ~30-row groups,
/// a mid size, and a large batch. Bit-identical outputs; only the
/// evaluation engine differs.
fn bench_compiled_vs_fused(c: &mut Criterion) {
    let (model, cluster, db) = setup();
    let analyzer = StageAnalyzer::new(&model, &cluster, &db);
    let tapes = analyzer.analyze(&candidate());
    let compiled = CompiledProgram::compile(&tapes.program);
    let mut group = c.benchmark_group("compiled_vs_fused");
    let mut ws = EvalWorkspace::new();
    let mut cws = CompiledWorkspace::new();
    for n in [30usize, 256, 10_000] {
        let batch = grid_batch(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(BenchmarkId::new("fused_program", n), |b| {
            b.iter(|| {
                tapes.eval_batch_fused(black_box(&batch), &mut ws).unwrap();
                black_box(ws.output(0));
            })
        });
        group.bench_function(BenchmarkId::new("compiled_program", n), |b| {
            b.iter(|| {
                compiled.eval_batch(black_box(&batch), &mut cws).unwrap();
                black_box(cws.output(0));
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_reanalysis,
    bench_substitution,
    bench_batched,
    bench_fused_vs_separate,
    bench_compiled_vs_fused
);
criterion_main!(benches);
