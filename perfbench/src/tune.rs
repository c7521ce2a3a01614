//! The repeated-cold-tune workloads (`tune-6.7b`, `tune-22b-pipeline`)
//! and the decomposition replay every traced run uses.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use mist::{
    benchmark_interference, fit_interference, mist_objective, simulate, GroundTruth,
    InterferenceModel, IterationSchedule, MistSession, Platform, SimReport, StageAnalyzer,
    StageCandidate, StagePlan, StagePoint, StageRole, StageStreams, StageTapes, TrainingPlan,
    TuneOutcome, Tuner,
};
use mist_hardware::{ClusterSpec, DeviceMesh};
use mist_service::{PlanCache, PlannerService};
use mist_symbolic::{BatchBindings, CompiledProgram, CompiledWorkspace, EvalWorkspace};
use mist_tuner::{
    certify_plan, solve_inter_stage_with_cutoff, FrontierKey, IntraStageTuner, ParetoPoint,
};

use crate::service;
use crate::stats::{median, quantile, secs, vm_hwm_mb, windowed_quantile};
use crate::trace::Tracer;
use crate::workload::{outcome_digest, Expected, TuneSpec, CALIBRATION_SEED};
use crate::Report;

/// Session builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest cold tunes a timed run makes, however long they take.
const MIN_TUNES: usize = 3;
/// Exact hits sampled after each timed tune.
const HITS_PER_TUNE: usize = 300;
/// Calibration sample and fit-iteration counts (as `MistSession` uses).
const CALIBRATION_SAMPLES: usize = 400;
const FIT_ITERATIONS: usize = 3000;
/// `Tuner`'s default gradient-accumulation cap.
const MAX_GRAD_ACCUM: u32 = 256;
/// Batch sizes of the symbolic batch-shape curve: the sweep's ~30-row
/// group batches, a mid size, and a large batch.
const CURVE_BATCHES: [(usize, &str); 3] = [(30, "b30"), (256, "b256"), (10_000, "b10k")];

pub fn run(spec: &TuneSpec, expected: &Expected, seed: u64, seconds: f64, trace: bool) -> Report {
    mist_pool::set_global_threads(spec.threads);
    // The tune workloads' inputs are fixed by the workload definition;
    // the seed only names the run (and its span file).
    eprintln!(
        "{}: {} on {}xL4, global batch {}, {} pool thread(s), seed {seed}",
        spec.name, spec.model.name, spec.model.gpus, spec.batch, spec.threads
    );
    if trace {
        run_traced(spec, expected, seed, seconds)
    } else {
        run_timed(spec, expected, seconds)
    }
}

fn fresh_tuner(session: &MistSession) -> Tuner<'_> {
    Tuner::new(
        session.model(),
        session.cluster(),
        session.cost_db(),
        session.space(),
        session.interference(),
    )
}

/// Checks one tune outcome: a plan exists, its digest matches the
/// committed one, and `certify_plan` re-derives its certificate.
fn check_outcome(
    report: &mut Report,
    spec: &TuneSpec,
    expected: &Expected,
    session: &MistSession,
    outcome: Option<&TuneOutcome>,
) {
    let Some(outcome) = outcome else {
        report.check(false, || format!("{}: tune returned no plan", spec.name));
        return;
    };
    let digest = outcome_digest(outcome);
    let cert = certify_plan(
        session.model(),
        session.cluster(),
        session.cost_db(),
        session.interference(),
        &outcome.plan,
        &outcome.stage_points,
        outcome.predicted_iteration,
        session.cluster().gpu.memory_bytes,
        session.space().overlap_aware,
        "verify",
    );
    let certified = cert.ok() && cert.certificate == outcome.certificate;
    report.check(expected.matches(spec.name, &digest) && certified, || {
        format!(
            "{}: plan digest {digest} (expected match: {}), certified: {certified} {:?}",
            spec.name,
            expected.matches(spec.name, &digest),
            cert.failures
        )
    });
}

fn simulate_plan(grad_accum: u32, points: &[StagePoint]) -> SimReport {
    simulate(
        &IterationSchedule::from_points(grad_accum, points),
        &GroundTruth::for_platform(Platform::GcpL4),
    )
}

fn run_timed(spec: &TuneSpec, expected: &Expected, seconds: f64) -> Report {
    let mut report = Report::default();
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut session = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        session = Some(spec.model.session());
        setup.push(secs(t0));
    }
    let session = session.expect("at least one session build");

    // The service view of the same query: an in-process planner (the
    // daemon's `PlannerService`, in-memory cache) answers the request
    // line cold once, then as exact hits through `handle_line` (the
    // daemon's per-request work without the socket) in batches between
    // the timed tunes, so hit latency is sampled across the whole run.
    let planner = PlannerService::new(PlanCache::in_memory());
    let line = spec.query().request_line();
    let first = service::parse_reply(&planner.handle_line(&line).0);
    let first = service::checked_result(&mut report, &first, "cold", |result| {
        service::reply_plan_digest(result).is_some_and(|d| expected.matches(spec.name, &d))
    });

    let (mut times, mut outcomes, mut hits) = (Vec::new(), Vec::new(), Vec::new());
    let t_loop = Instant::now();
    while times.len() < MIN_TUNES || secs(t_loop) < seconds {
        let t0 = Instant::now();
        let outcome = std::hint::black_box(fresh_tuner(&session).tune(spec.batch));
        times.push(secs(t0));
        outcomes.push(outcome);
        let mut batch = Vec::with_capacity(HITS_PER_TUNE);
        for _ in 0..HITS_PER_TUNE {
            let t0 = Instant::now();
            let (reply, _) = planner.handle_line(&line);
            batch.push(secs(t0));
            let reply = service::parse_reply(&reply);
            service::checked_result(&mut report, &reply, "hit", |r| Some(r) == first.as_ref());
        }
        hits.push(batch);
    }
    let rss = vm_hwm_mb(std::process::id()).expect("/proc/self/status has VmHWM");
    for outcome in &outcomes {
        check_outcome(&mut report, spec, expected, &session, outcome.as_ref());
    }
    let plan_tput = outcomes[0].as_ref().map_or(f64::MIN_POSITIVE, |o| {
        simulate_plan(o.plan.grad_accum, &o.stage_points).throughput(spec.batch)
    });

    let tune_p50 = median(&times);
    let tune_total: f64 = times.iter().sum();
    eprintln!(
        "{}: {} cold tunes in {tune_total:.2} s (min {:.4} / median {tune_p50:.4} / max {:.4} s), \
         {} exact hits",
        spec.name,
        times.len(),
        quantile(&times, 0.0),
        quantile(&times, 1.0),
        hits.len() * HITS_PER_TUNE
    );
    report.metric("setup_s", median(&setup), "s");
    report.metric("tune_p50_s", tune_p50, "s");
    report.metric("plan_samples_per_s", plan_tput, "samples/s");
    report.metric("peak_rss_mb", rss, "MB");
    report.metric("hit_p50_ms", windowed_quantile(&hits, 0.5) * 1e3, "ms");
    report.metric("hit_p90_ms", windowed_quantile(&hits, 0.9) * 1e3, "ms");
    // Every timed query of a tune workload is a cold miss.
    report.metric("miss_p50_s", tune_p50, "s");
    report.metric("queries_per_s", times.len() as f64 / tune_total, "1/s");
    report
}

/// What one decomposition replay produced and measured.
pub struct Replay {
    pub plan: TrainingPlan,
    pub predicted: f64,
    pub wall_s: f64,
    pub intra_s: f64,
    pub inter_s: f64,
    pub certify_s: f64,
    pub certified: bool,
    pub configs: u64,
    pub pool_executed: u64,
    pub pool_stolen: u64,
    pub sim: SimReport,
    /// Distinct stage candidates whose tapes the sweep needs, in
    /// first-visit order.
    pub candidates: Vec<StageCandidate>,
}

/// Gradient-accumulation candidates of `Tuner::tune`: powers of two that
/// divide the batch, plus odd divisors for non-power-of-two batches.
/// (A copy of a private step of `Tuner::tune`, which has no exported
/// entry point.)
fn grad_accum_candidates(global_batch: u64, cap: u32) -> Vec<u32> {
    let mut out = Vec::new();
    let mut g = 1u64;
    while g <= global_batch && g <= u64::from(cap) {
        if global_batch.is_multiple_of(g) {
            out.push(g as u32);
        }
        g *= 2;
    }
    if !global_batch.is_power_of_two() {
        let mut d = 3u64;
        while d * d <= global_batch && d <= u64::from(cap) {
            if global_batch.is_multiple_of(d) {
                out.push(d as u32);
            }
            d += 2;
        }
        out.sort_unstable();
        out.dedup();
    }
    out
}

/// Pipeline shapes of `Tuner::tune`: `S` equal sub-meshes covering the
/// cluster. (A copy of a private step of `Tuner::tune`.)
fn pipeline_shapes(cluster: &ClusterSpec, num_layers: u32) -> Vec<(u32, DeviceMesh)> {
    let total = cluster.total_gpus();
    let m = cluster.gpus_per_node;
    let mut out = Vec::new();
    for s in 1..=total.min(num_layers).min(64) {
        if !total.is_multiple_of(s) {
            continue;
        }
        let per = total / s;
        let mesh = if per >= m {
            if !per.is_multiple_of(m) {
                continue;
            }
            DeviceMesh::new(per / m, m)
        } else {
            if !m.is_multiple_of(per) {
                continue;
            }
            DeviceMesh::new(1, per)
        };
        out.push((s, mesh));
    }
    out
}

/// Replays `Tuner::tune`'s hierarchical loop through the exported
/// functions — `IntraStageTuner::frontiers_batch`, the inter-stage DP
/// (`solve_inter_stage_with_cutoff`), `certify_plan` and `simulate` —
/// with a span around each call.
pub fn replay(session: &MistSession, global_batch: u64, tracer: &mut Tracer) -> Replay {
    let (model, cluster, space) = (session.model(), session.cluster(), session.space());
    assert!(
        !space.uniform_stages,
        "the replay covers non-uniform spaces"
    );
    let t_start = Instant::now();
    tracer.next_request();
    tracer.enter("tuner.tune", "tuner");
    let intra = IntraStageTuner::new(
        model,
        cluster,
        session.cost_db(),
        space,
        session.interference(),
        global_batch,
    );
    let pool = Arc::clone(intra.pool());
    let (executed0, stolen0) = (pool.tasks_executed(), pool.tasks_stolen());
    let l = model.num_layers;
    let mut best: Option<(f64, Vec<ParetoPoint>, u32)> = None;
    let (mut intra_s, mut inter_s) = (0.0, 0.0);
    let mut candidates: Vec<StageCandidate> = Vec::new();
    for g in grad_accum_candidates(global_batch, MAX_GRAD_ACCUM) {
        for (s, mesh) in pipeline_shapes(cluster, l) {
            tracer.enter("tuner.outer", "tuner");
            let keys: Vec<FrontierKey> = (0..s)
                .map(|i| FrontierKey {
                    mesh,
                    role: StageRole::of(i, s),
                    inflight: g.min(s - i),
                    grad_accum: g,
                })
                .collect();
            let mut unique: Vec<FrontierKey> = Vec::new();
            for &k in &keys {
                if !unique.contains(&k) {
                    unique.push(k);
                }
            }
            for k in &unique {
                for (dp, tp, b) in intra.parallelism_options(k.mesh, k.grad_accum) {
                    let cand = StageCandidate {
                        mesh: k.mesh,
                        dp,
                        tp,
                        micro_batch: b,
                        role: k.role,
                    };
                    if !candidates.contains(&cand) {
                        candidates.push(cand);
                    }
                }
            }
            let (computed, dt) = tracer.span("intra.frontiers_batch", "intra", |_| {
                intra.frontiers_batch(&unique, l - (s - 1))
            });
            intra_s += dt;
            let handles: Vec<_> = keys
                .iter()
                .map(|k| {
                    let idx = unique.iter().position(|u| u == k).expect("deduped key");
                    Arc::clone(&computed[idx])
                })
                .collect();
            let refs: Vec<&Vec<Vec<ParetoPoint>>> = handles.iter().map(|h| h.as_ref()).collect();
            let cutoff = best.as_ref().map_or(f64::INFINITY, |(b, _, _)| *b);
            let (sol, dt) = tracer.span("inter.dp", "inter", |_| {
                solve_inter_stage_with_cutoff(&refs, l, g, space, cutoff)
            });
            inter_s += dt;
            if let Some(sol) = sol {
                if best
                    .as_ref()
                    .is_none_or(|(b, _, _)| sol.selector_objective < *b)
                {
                    let points = sol.choices.into_iter().map(|c| c.point).collect();
                    best = Some((sol.selector_objective, points, g));
                }
            }
            tracer.exit();
        }
    }
    let (_, points, g) = best.expect("replayed workloads are feasible");
    let streams: Vec<StageStreams> = points
        .iter()
        .map(|p| StageStreams { t: p.t, d: p.d })
        .collect();
    let predicted = mist_objective(&streams, g);
    let plan = TrainingPlan {
        grad_accum: g,
        stages: points
            .iter()
            .map(|p| StagePlan {
                candidate: p.candidate,
                config: p.config,
            })
            .collect(),
        global_batch,
    };
    let stage_points: Vec<StagePoint> = points.iter().map(|p| p.point).collect();
    let (cert, certify_s) = tracer.span("tuner.certify", "certify", |_| {
        certify_plan(
            model,
            cluster,
            session.cost_db(),
            session.interference(),
            &plan,
            &stage_points,
            predicted,
            cluster.gpu.memory_bytes,
            space.overlap_aware,
            "verify",
        )
    });
    tracer.exit();
    let wall_s = secs(t_start);
    let (sim, _) = tracer.span("sim.simulate", "sim", |_| {
        simulate_plan(plan.grad_accum, &stage_points)
    });
    Replay {
        plan,
        predicted,
        wall_s,
        intra_s,
        inter_s,
        certify_s,
        certified: cert.ok(),
        configs: intra.configs_evaluated(),
        pool_executed: pool.tasks_executed() - executed0,
        pool_stolen: pool.tasks_stolen() - stolen0,
        sim,
        candidates,
    }
}

/// Times the interference calibration the session build runs:
/// `benchmark_interference` plus the fit.
fn time_calibration(tracer: &mut Tracer) -> f64 {
    let prior = InterferenceModel::pcie_defaults();
    let (_, dt) = tracer.span("interference.calibrate", "interference", |_| {
        let samples =
            benchmark_interference(Platform::GcpL4, CALIBRATION_SAMPLES, CALIBRATION_SEED);
        std::hint::black_box(fit_interference(
            &prior,
            &samples,
            FIT_ITERATIONS,
            CALIBRATION_SEED ^ 0x5EED,
        ))
    });
    dt
}

/// Rows per second of the compiled generic stage program at each curve
/// batch size, after bit-comparing it against the `Program` interpreter
/// on the same rows.
fn symbolic_curve(
    report: &mut Report,
    tracer: &mut Tracer,
    tapes: &StageTapes,
    num_layers: u32,
) -> Vec<(&'static str, f64)> {
    let compiled = CompiledProgram::compile(&tapes.program);
    let mut cws = CompiledWorkspace::new();
    let mut ws = EvalWorkspace::new();
    let mut out = Vec::new();
    for (n, label) in CURVE_BATCHES {
        // One sweep group: `L` and `ckpt` vary per row, the ZeRO level,
        // offload ratios and in-flight count are bound as scalars —
        // the shape the memory-first sweep hands the compiled program.
        let mut batch = BatchBindings::new(n);
        let ls: Vec<f64> = (0..n)
            .map(|i| 1.0 + (i as u32 % num_layers) as f64)
            .collect();
        let ckpts: Vec<f64> = ls
            .iter()
            .enumerate()
            .map(|(i, &l)| ((i % 7) as f64).min(l))
            .collect();
        batch.set_values("L", ls);
        batch.set_values("ckpt", ckpts);
        batch.set_scalar("zero", 1.0);
        batch.set_scalar("wo", 0.0);
        batch.set_scalar("go", 0.0);
        batch.set_scalar("oo", 0.5);
        batch.set_scalar("ao", 0.0);
        batch.set_scalar("inflight", 1.0);

        tapes
            .program
            .eval_batch(&batch, &mut ws)
            .expect("interpreter runs");
        compiled
            .eval_batch(&batch, &mut cws)
            .expect("compiled program runs");
        let identical = (0..tapes.program.num_roots()).all(|r| {
            ws.output(r)
                .iter()
                .zip(cws.output(r))
                .all(|(a, b)| a.to_bits() == b.to_bits())
        });
        report.check(identical, || {
            format!("symbolic: compiled program differs from the interpreter at batch {n}")
        });

        let mut per_call = Vec::new();
        let t0 = Instant::now();
        while per_call.len() < 20 || secs(t0) < 0.2 {
            let (_, dt) = tracer.span("symbolic.eval_batch", "symbolic", |_| {
                compiled
                    .eval_batch(std::hint::black_box(&batch), &mut cws)
                    .expect("compiled program runs");
                std::hint::black_box(cws.output(0)[0]);
            });
            per_call.push(dt);
        }
        out.push((label, n as f64 / median(&per_call)));
    }
    out
}

fn run_traced(spec: &TuneSpec, expected: &Expected, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let run_dir = service::RunDir::create(spec.name);
    traced_tuner_layers(&mut report, &mut tracer, spec, expected, seconds);
    service::single_query_layers(&mut report, &mut tracer, &run_dir, spec, expected)
        .report(&mut report);
    report_self_times(&mut report, &tracer);
    write_spans(&tracer, spec.name, seed);
    report
}

/// The tuner-side half of a traced run on `spec`'s query: calibration,
/// untraced `Tuner::tune` calls alternating with traced replays for
/// about `seconds`, the graph/symbolic layer probes, and the counters
/// only the program can count. Reports every tuner, graph, symbolic,
/// pool, simulator, interference and telemetry layer metric.
pub fn traced_tuner_layers(
    report: &mut Report,
    tracer: &mut Tracer,
    spec: &TuneSpec,
    expected: &Expected,
    seconds: f64,
) {
    let calibrate: Vec<f64> = (0..3).map(|_| time_calibration(tracer)).collect();
    let session = spec.model.session();

    // One untimed tune warms the allocator and caches; then untraced
    // `Tuner::tune` calls alternate with traced replays, each side going
    // first in turn, so both see the same machine state.
    std::hint::black_box(fresh_tuner(&session).tune(spec.batch));
    let (mut tunes, mut replays) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while tunes.is_empty() || secs(t0) < seconds {
        if tunes.len() % 2 == 1 {
            replays.push(replay(&session, spec.batch, tracer));
        }
        let t = Instant::now();
        let outcome = fresh_tuner(&session).tune(spec.batch);
        let wall = secs(t);
        check_outcome(report, spec, expected, &session, outcome.as_ref());
        tunes.push((wall, outcome));
        if tunes.len() % 2 == 1 {
            replays.push(replay(&session, spec.batch, tracer));
        }
    }
    let replayed = replays.last().expect("at least one replay");
    let tuned = tunes.iter().find_map(|(_, o)| o.as_ref());
    report.check(
        tuned.is_some_and(|o| {
            serde_json::to_string(&o.plan).ok() == serde_json::to_string(&replayed.plan).ok()
                && o.predicted_iteration.to_bits() == replayed.predicted.to_bits()
        }) && replayed.certified,
        || {
            format!(
                "{}: the replayed decomposition picked another plan",
                spec.name
            )
        },
    );

    let layers = LayerNumbers::measure(report, tracer, &session, replayed);
    let counters = counters_tune(&session, spec.batch);
    let certify_s = median(&replays.iter().map(|r| r.certify_s).collect::<Vec<_>>());
    let unattributed: Vec<f64> = tunes
        .iter()
        .filter_map(|(w, o)| {
            o.as_ref()
                .map(|o| w - o.stats.intra_secs - o.stats.inter_secs - certify_s)
        })
        .collect();
    let tune_wall = median(&tunes.iter().map(|(w, _)| *w).collect::<Vec<_>>());
    let replay_wall = median(&replays.iter().map(|r| r.wall_s).collect::<Vec<_>>());

    report.metric("interference.calibrate_s", median(&calibrate), "s");
    layers.report(report, &replays, &counters);
    report.metric("tuner.certify_s", certify_s, "s");
    report.metric(
        "tuner.unattributed_s",
        if unattributed.is_empty() {
            0.0
        } else {
            median(&unattributed)
        },
        "s",
    );
    report.metric(
        "telemetry.trace_overhead_frac",
        (replay_wall - tune_wall) / tune_wall,
        "frac",
    );
}

/// Telemetry counters that only the program itself can count (the
/// inter-stage DP's live states, tape builds, compile-cache lookups and
/// the sweep's rejection buckets): read from the `TuneOutcome` of one
/// extra tune with the global telemetry collector enabled.
pub struct Counters {
    pub dp_states: u64,
    pub bound_pruned: u64,
    pub tape_builds: u64,
    pub compile_lookups: u64,
    pub configs: u64,
    pub oom: u64,
    pub nonfinite: u64,
    pub dominated: u64,
    pub mono_pruned: u64,
}

pub fn counters_tune(session: &MistSession, global_batch: u64) -> Counters {
    let collector = mist::telemetry::global();
    collector.enable();
    let outcome = fresh_tuner(session).tune(global_batch);
    collector.disable();
    collector.take_spans();
    let outcome = outcome.expect("replayed workloads are feasible");
    let c = |name: &str| outcome.telemetry.counter(name);
    Counters {
        dp_states: c("inter.dp_states"),
        bound_pruned: c("tuner.rejections.bound_pruned"),
        tape_builds: c("intra.tape_compiles"),
        compile_lookups: c("tuner.compile.hits") + c("tuner.compile.misses"),
        configs: outcome.stats.configs_evaluated,
        oom: c("tuner.rejections.oom"),
        nonfinite: c("tuner.rejections.nonfinite"),
        dominated: c("tuner.rejections.dominated"),
        mono_pruned: c("tuner.rejections.mono_pruned"),
    }
}

/// Layer timings measured outside the tuner on the replay's inputs.
pub struct LayerNumbers {
    analyze_calls: usize,
    analyze_s: f64,
    compile_calls: usize,
    compile_s: f64,
    curve: Vec<(&'static str, f64)>,
}

impl LayerNumbers {
    /// Builds the tapes of every candidate the sweep visits
    /// (`StageAnalyzer::analyze`), compiles both generic programs of
    /// each (`CompiledProgram::compile`), and measures the batch-shape
    /// curve on the chosen plan's first stage program.
    pub fn measure(
        report: &mut Report,
        tracer: &mut Tracer,
        session: &MistSession,
        replayed: &Replay,
    ) -> LayerNumbers {
        let analyzer = StageAnalyzer::new(session.model(), session.cluster(), session.cost_db());
        let (mut analyze_s, mut compile_s, mut compile_calls) = (0.0, 0.0, 0);
        for cand in &replayed.candidates {
            let (tapes, dt) = tracer.span("graph.analyze", "graph", |_| analyzer.analyze(cand));
            analyze_s += dt;
            for program in [&tapes.program, &tapes.mem_pair] {
                let (compiled, dt) = tracer.span("symbolic.compile", "symbolic", |_| {
                    CompiledProgram::compile(program)
                });
                std::hint::black_box(compiled);
                compile_s += dt;
                compile_calls += 1;
            }
        }
        let chosen = analyzer.analyze(&replayed.plan.stages[0].candidate);
        let curve = symbolic_curve(report, tracer, &chosen, session.model().num_layers);
        LayerNumbers {
            analyze_calls: replayed.candidates.len(),
            analyze_s,
            compile_calls,
            compile_s,
            curve,
        }
    }

    pub fn report(&self, report: &mut Report, replays: &[Replay], counters: &Counters) {
        let last = replays.last().expect("at least one replay");
        let med = |f: fn(&Replay) -> f64| median(&replays.iter().map(f).collect::<Vec<_>>());
        if self.analyze_calls as u64 != counters.tape_builds {
            eprintln!(
                "note: replay visits {} candidates, the tuner counted {} tape builds",
                self.analyze_calls, counters.tape_builds
            );
        }
        if last.configs != counters.configs {
            eprintln!(
                "note: replay evaluated {} configs, the tuner {}",
                last.configs, counters.configs
            );
        }
        eprintln!(
            "tuner: {} tape builds, {} compile lookups, {} DP states",
            counters.tape_builds, counters.compile_lookups, counters.dp_states
        );
        let feasible = counters.configs - counters.oom - counters.nonfinite;
        let survivors = feasible - counters.dominated;
        report.metric("graph.analyze_calls", self.analyze_calls as f64, "count");
        report.metric("graph.analyze_s", self.analyze_s, "s");
        report.metric("symbolic.compile_calls", self.compile_calls as f64, "count");
        report.metric("symbolic.compile_s", self.compile_s, "s");
        for (label, rows_per_s) in &self.curve {
            report.metric(
                &format!("symbolic.rows_per_s.{label}"),
                *rows_per_s,
                "rows/s",
            );
        }
        report.metric("tuner.intra_s", med(|r| r.intra_s), "s");
        report.metric("tuner.configs_evaluated", last.configs as f64, "count");
        report.metric(
            "tuner.feasible_frac",
            feasible as f64 / counters.configs.max(1) as f64,
            "frac",
        );
        report.metric(
            "tuner.survivor_frac",
            survivors as f64 / feasible.max(1) as f64,
            "frac",
        );
        report.metric("tuner.mono_pruned", counters.mono_pruned as f64, "count");
        report.metric("tuner.inter_s", med(|r| r.inter_s), "s");
        report.metric("tuner.dp_states", counters.dp_states as f64, "count");
        report.metric("tuner.bound_pruned", counters.bound_pruned as f64, "count");
        report.metric("pool.tasks_executed", last.pool_executed as f64, "count");
        report.metric(
            "pool.steal_frac",
            last.pool_stolen as f64 / last.pool_executed.max(1) as f64,
            "frac",
        );
        report.metric("sim.bubble_frac", last.sim.bubble_fraction(), "frac");
        report.metric(
            "sim.peak_mem_gib",
            last.sim.stage_peak_mem.iter().cloned().fold(0.0, f64::max) / mist::GIB,
            "GiB",
        );
    }
}

/// The self-time layers every traced run reports.
pub const SELF_LAYERS: [&str; 9] = [
    "tuner",
    "intra",
    "inter",
    "certify",
    "sim",
    "graph",
    "symbolic",
    "interference",
    "service",
];

pub fn report_self_times(report: &mut Report, tracer: &Tracer) {
    let by_layer = tracer.self_time_by_layer();
    for layer in SELF_LAYERS {
        let v = by_layer.get(layer).copied().unwrap_or(0.0);
        report.metric(&format!("self_s.{layer}"), v, "s");
    }
    for layer in by_layer.keys() {
        assert!(
            SELF_LAYERS.contains(layer),
            "span layer {layer} is not reported"
        );
    }
}

pub fn write_spans(tracer: &Tracer, workload: &str, seed: u64) {
    let path = Path::new(".bench_out").join(format!("spans-{workload}-seed{seed}.json"));
    match tracer.write_chrome_trace(&path) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("note: cannot write {}: {e}", path.display()),
    }
}
