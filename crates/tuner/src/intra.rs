//! Intra-stage tuning (paper §5.3, Eq. 4).
//!
//! For one pipeline-stage candidate — a device mesh, its role in the
//! pipeline, its in-flight microbatch count and the iteration's `G` —
//! this module finds, for *every* possible layer count at once, the
//! Pareto frontier of `(t, d)` over:
//!
//! * `(dp, tp)` factorizations of the mesh (micro-batch size follows from
//!   `b = B / (dp · G)`),
//! * ZeRO levels and the offloading-ratio grid of the [`SearchSpace`],
//! * the recomputed-layer count `ckpt`.
//!
//! Everything is evaluated through the compiled symbolic tapes in large
//! batches (key idea #2). Two search-space reductions keep the batch
//! tractable, both justified by monotonicity:
//!
//! * `ckpt` only increases `t` (recompute time) and only decreases peak
//!   memory, and it never touches `d`, so for every other knob setting the
//!   *minimal feasible* `ckpt` dominates. It is resolved analytically from
//!   the memory tapes' linearity in `ckpt` instead of being enumerated.
//!   (The second-order effect that recomputing layers also shrinks
//!   activation-offload traffic is deliberately ignored.)
//! * Layer count `l` enters the tapes as a plain symbol, so all layer
//!   counts share one batch — the frontier for every `l` falls out of a
//!   single evaluation pass.
//!
//! The sweep is columnar: each `(dp, tp, b)` candidate runs
//! as a few large batches over all of its `(zero, offload, L)` rows
//! (capped at [`SWEEP_BATCH_ROWS`], cut at whole `(zero, offload)`
//! groups) through the generic compiled stage programs. Checkpoint
//! probes and the memory-first filter run over the whole batch, the
//! 22-root program only over the rows that fit, and `(t, d)` comes
//! from one columnar pass of the batched interference predictor over
//! the output columns. Only rows that survive an exact
//! per-layer dominance prefilter ([`prefilter`]) are materialized as
//! [`ParetoPoint`]s — a small fraction of the feasible rows.
//!
//! Unit tests check it against a test-only row-by-row reference that
//! runs the same generic programs through the
//! [`Program`](mist_symbolic::Program) interpreter, one `(zero,
//! offload)` group at a time, and builds a point for every feasible row.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use mist_graph::{
    stage_roots, StageAnalyzer, StageCandidate, StageConfigValues, StagePoint, StageRole,
    StageTapes,
};
use mist_hardware::{ClusterSpec, DeviceMesh, OpCostDb};
use mist_interference::InterferenceModel;
use mist_irlint::{monotonicity, root_intervals, DomainMap, SymbolDomain};
use mist_models::ModelSpec;
use mist_pool::ThreadPool;
use mist_schedule::{stage_times, stage_times_columns};
use mist_symbolic::{BatchBindings, CompiledProgram, CompiledWorkspace};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::compile_cache::CompileCache;
use crate::pareto::{pareto_frontier, prefilter, sample_frontier};
use crate::seed::{role_rank, BudgetProof, FrontierExport, FrontierRecord, SeedCandidate};
use crate::space::{CkptMode, SearchSpace};

/// One sampled point of an intra-stage Pareto frontier: the `(t, d)`
/// value plus everything needed to reconstruct and execute the plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParetoPoint {
    /// Stable microbatch time (seconds).
    pub t: f64,
    /// First/last microbatch delta (seconds).
    pub d: f64,
    /// Peak memory of the configuration (bytes).
    pub mem_peak: f64,
    /// The parallelism candidate.
    pub candidate: StageCandidate,
    /// The full optimization configuration (including `layers`).
    pub config: StageConfigValues,
    /// Evaluated stream/memory decomposition (for simulation lowering).
    pub point: StagePoint,
}

/// Cache key of one frontier family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FrontierKey {
    /// Stage device mesh.
    pub mesh: DeviceMesh,
    /// Pipeline role.
    pub role: StageRole,
    /// In-flight microbatches (`min(G, S − i)`).
    pub inflight: u32,
    /// Gradient-accumulation steps.
    pub grad_accum: u32,
}

type TapeKey = (DeviceMesh, u32, u32, u64, StageRole);

/// Per-sweep rejection tally, accumulated while a candidate's rows are
/// evaluated and merged across candidates. Plain sums (and an
/// order-independent max for `mem_hi`), so merging is order-independent
/// and the totals are deterministic at any thread count.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SweepTally {
    /// `(layers, zero, offload)` rows enumerated.
    pub enumerated: u64,
    /// Rows rejected because no checkpoint count fits the memory budget
    /// (including the conservative post-evaluation recheck).
    pub oom: u64,
    /// Rows rejected because the predicted time was not finite.
    pub nonfinite: u64,
    /// Rows skipped without evaluation because a monotonicity proof
    /// extrapolated an all-OOM outcome from a smaller in-flight count.
    pub mono_pruned: u64,
    /// Rows that fit the budget with a finite predicted time — counted
    /// before the dominance prefilter drops any of them.
    pub feasible: u64,
    /// Whether the memory budget influenced any row: an OOM rejection
    /// (including mono-pruned rows, which are extrapolated OOMs), or
    /// (under tuned checkpointing) a nonzero resolved `ckpt`. Drives
    /// [`BudgetProof::Sensitive`] for warm-start reuse.
    pub budget_bound: bool,
    /// Interval-proven upper bound on peak memory across all candidates
    /// of the sweep (`-∞` before any candidate merges in). When finite
    /// and at most the budget, licenses [`BudgetProof::StaticFit`].
    pub mem_hi: f64,
    /// Wall-clock per sweep phase.
    pub phases: SweepPhases,
}

impl Default for SweepTally {
    fn default() -> Self {
        SweepTally {
            enumerated: 0,
            oom: 0,
            nonfinite: 0,
            mono_pruned: 0,
            feasible: 0,
            budget_bound: false,
            mem_hi: f64::NEG_INFINITY,
            phases: SweepPhases::default(),
        }
    }
}

impl SweepTally {
    fn merge(&mut self, other: &SweepTally) {
        self.enumerated += other.enumerated;
        self.oom += other.oom;
        self.nonfinite += other.nonfinite;
        self.mono_pruned += other.mono_pruned;
        self.feasible += other.feasible;
        self.budget_bound |= other.budget_bound;
        self.mem_hi = self.mem_hi.max(other.mem_hi);
        self.phases.merge(&other.phases);
    }
}

/// Seconds spent in each phase of the columnar sweep, accumulated per
/// candidate with one `Instant` read per phase boundary and batch (never
/// per row) and merged in submission order; tape builds and compiles are
/// timed on cache misses only. Published by the driver as
/// `tuner.phase.<name>_secs` gauges.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SweepPhases {
    /// Stage analysis into [`StageTapes`] (tape-cache misses).
    pub tape: f64,
    /// Lowering stage programs to step tables (compile-cache misses).
    pub compile: f64,
    /// The three `mem_pair` checkpoint probes and `minimal_ckpt`.
    pub ckpt_probe: f64,
    /// The memory-first `mem_pair` pass at the resolved `ckpt`.
    pub mem_first: f64,
    /// The 22-root stage program over the compacted survivors.
    pub eval: f64,
    /// `(t, d)` of the survivors (one columnar pass of the batched
    /// interference predictor per batch), outcome flags and per-layer
    /// bucketing.
    pub predict: f64,
    /// The dominance prefilter and `ParetoPoint` materialization.
    pub materialize: f64,
    /// Per-key Pareto reduction and sampling.
    pub pareto: f64,
}

impl SweepPhases {
    fn merge(&mut self, other: &SweepPhases) {
        self.tape += other.tape;
        self.compile += other.compile;
        self.ckpt_probe += other.ckpt_probe;
        self.mem_first += other.mem_first;
        self.eval += other.eval;
        self.predict += other.predict;
        self.materialize += other.materialize;
        self.pareto += other.pareto;
    }

    /// `(name, seconds)` per phase, in sweep order.
    pub(crate) fn entries(&self) -> [(&'static str, f64); 8] {
        [
            ("tape", self.tape),
            ("compile", self.compile),
            ("ckpt_probe", self.ckpt_probe),
            ("mem_first", self.mem_first),
            ("eval", self.eval),
            ("predict", self.predict),
            ("materialize", self.materialize),
            ("pareto", self.pareto),
        ]
    }
}

/// Seconds since `*mark`, restarting the mark — the phase-boundary
/// timer of the columnar sweep.
fn lap(mark: &mut Instant) -> f64 {
    let now = Instant::now();
    let secs = now.duration_since(*mark).as_secs_f64();
    *mark = now;
    secs
}

/// Per retained layer count, across all `(zero, offload)` groups of one
/// candidate: whether any row was feasible or non-finite, and whether
/// any OOM came from the conservative post-evaluation recheck rather
/// than the analytic `ckpt = ∞` path. Decides which layer counts become
/// all-OOM floors for monotone pruning.
struct LayerFlags {
    any_feasible: Vec<bool>,
    any_nonfinite: Vec<bool>,
    recheck_oom: Vec<bool>,
}

impl LayerFlags {
    fn new(layers: usize) -> Self {
        LayerFlags {
            any_feasible: vec![false; layers],
            any_nonfinite: vec![false; layers],
            recheck_oom: vec![false; layers],
        }
    }
}

/// Row cap of one columnar sweep batch. Batches are cut only at whole
/// `(zero, offload)` group boundaries (a group is one row per retained
/// layer count), so one batch may exceed the cap only when a single
/// group does. Bounds the sweep's column and output memory on fine
/// grids and deep models.
const SWEEP_BATCH_ROWS: usize = 16 * 1024;

/// The offloading-ratio symbols, in `[wo, go, oo, ao]` order.
const OFFLOAD_SYMBOLS: [&str; 4] = ["wo", "go", "oo", "ao"];

/// Value columns of one columnar sweep batch, in `(zero, offload, L)`
/// row order.
#[derive(Default)]
struct SweepColumns {
    l: Vec<f64>,
    zero: Vec<f64>,
    off: [Vec<f64>; 4],
}

impl SweepColumns {
    fn push(&mut self, l: u32, zero: u8, off: [f64; 4]) {
        self.l.push(f64::from(l));
        self.zero.push(f64::from(zero));
        for (col, v) in self.off.iter_mut().zip(off) {
            col.push(v);
        }
    }

    /// Bindings over `rows` (every row when `None`), with `inflight` as
    /// a scalar. The caller binds `ckpt`.
    fn bind(&self, rows: Option<&[u32]>, inflight: f64) -> BatchBindings {
        let pick = |col: &Vec<f64>| -> Vec<f64> {
            match rows {
                Some(rows) => rows.iter().map(|&r| col[r as usize]).collect(),
                None => col.clone(),
            }
        };
        let mut batch = BatchBindings::new(rows.map_or(self.l.len(), <[u32]>::len));
        batch.set_values("L", pick(&self.l));
        batch.set_values("zero", pick(&self.zero));
        for (name, col) in OFFLOAD_SYMBOLS.iter().zip(&self.off) {
            batch.set_values(name, pick(col));
        }
        batch.set_scalar("inflight", inflight);
        batch
    }
}

/// Scratch one sweep task checks out of the tuner's pool and reuses for
/// every batch it runs.
#[derive(Default)]
struct SweepWorkspace {
    /// Block registers and output columns of the compiled programs.
    cws: CompiledWorkspace,
    /// `t` of the current batch's survivors.
    t: Vec<f64>,
    /// `d` of the current batch's survivors.
    d: Vec<f64>,
}

/// Per-row peak memory `max(mem_fwd, mem_bwd)` of the compiled two-root
/// `mem_pair` program over `batch`.
fn mem_peaks(
    mem: &CompiledProgram,
    batch: &BatchBindings,
    cws: &mut CompiledWorkspace,
) -> Vec<f64> {
    mem.eval_batch(batch, cws).expect("mem_pair program");
    cws.output(0)
        .iter()
        .zip(cws.output(1))
        .map(|(&f, &b)| f.max(b))
        .collect()
}

/// Always-on rejection counters (satellite provenance: journal-off runs
/// still get aggregate attribution through `TuneOutcome.telemetry`).
/// Per-instance like `configs_evaluated`, so counts never leak across
/// tuner instances.
pub(crate) struct RejectionCounters {
    /// Rows with no memory-feasible checkpointing choice.
    pub oom: mist_telemetry::Counter,
    /// Rows whose predicted time was NaN/∞.
    pub nonfinite: mist_telemetry::Counter,
    /// Feasible points dominated away by Pareto reduction + sampling.
    pub dominated: mist_telemetry::Counter,
    /// Rows skipped by proof-licensed monotone pruning.
    pub mono_pruned: mist_telemetry::Counter,
}

impl RejectionCounters {
    fn new() -> Self {
        RejectionCounters {
            oom: mist_telemetry::Counter::new(),
            nonfinite: mist_telemetry::Counter::new(),
            dominated: mist_telemetry::Counter::new(),
            mono_pruned: mist_telemetry::Counter::new(),
        }
    }
}

/// Intra-stage tuner with tape and frontier caches.
///
/// The type is `Sync`: frontier computations fan out over the pool, so
/// caches sit behind mutexes, shared compiled artifacts are `Arc`s, and
/// evaluation scratch lives in a pool of per-worker workspaces.
pub struct IntraStageTuner<'a> {
    model: &'a ModelSpec,
    cluster: &'a ClusterSpec,
    db: &'a OpCostDb,
    space: &'a SearchSpace,
    interference: &'a InterferenceModel,
    global_batch: u64,
    budget: f64,
    pool: Arc<ThreadPool>,
    tape_cache: Mutex<HashMap<TapeKey, Arc<StageTapes>>>,
    frontier_cache: Mutex<HashMap<FrontierKey, Arc<Vec<Vec<ParetoPoint>>>>>,
    // Warm-start seed: frontiers exported by an earlier, provably
    // compatible tune. Consulted on frontier-cache misses only.
    seed: Option<Arc<FrontierExport>>,
    // Per-key budget proof of the sweep that produced (or seeded) each
    // cached frontier — exported for warm-start reuse decisions.
    budget_proofs: Mutex<HashMap<FrontierKey, BudgetProof>>,
    // Frontier families taken from the seed instead of being swept.
    seeded: mist_telemetry::Counter,
    // Proof-licensed monotone pruning of provably-OOM sweep rows.
    mono_prune: bool,
    // Committed all-OOM floors: (tape key, layer count) → smallest
    // in-flight count at which every sweep row for that layer count was
    // out of memory. Sound to consult only where `mono_proofs` holds
    // (peak memory non-decreasing in `inflight`), and only committed
    // between in-flight levels by `frontiers_batch` so results never
    // depend on thread interleaving.
    oom_floors: Mutex<HashMap<(TapeKey, u32), u32>>,
    // Floors observed during the current in-flight level, merged into
    // `oom_floors` by `commit_floors` (min-merge: order-independent).
    pending_floors: Mutex<Vec<((TapeKey, u32), u32)>>,
    // Per-tapes monotonicity verdict: whether both memory roots of both
    // the full stage program and the two-root `mem_pair` are provably
    // non-decreasing in `inflight` over the sweep domain. Keyed by the
    // `StageTapes` address — tape Arcs live in `tape_cache` for the
    // tuner's lifetime, so addresses are stable.
    mono_proofs: Mutex<HashMap<usize, bool>>,
    // Interval-proven peak-memory upper bound per (tapes address,
    // inflight) — the `BudgetProof::StaticFit` derivation, cached
    // because candidates recur across frontier keys.
    mem_hi_cache: Mutex<HashMap<(usize, u32), f64>>,
    // Step tables of the generic stage programs, one per tapes.
    compile_cache: CompileCache,
    // The exact symbol ranges this tuner's space sweeps — the soundness
    // domain of the monotonicity and static budget proofs.
    domains: DomainMap,
    // Per-instance telemetry counter (not the global registry): cache-hit
    // semantics are part of this type's contract and tests compare exact
    // counts, so the count must not leak across tuner instances.
    configs_evaluated: mist_telemetry::Counter,
    // Rejection attribution for `TuneOutcome.telemetry` (same
    // per-instance rationale).
    rejections: RejectionCounters,
    // High-water sampled frontier size across all (key, layer) families.
    frontier_size: mist_telemetry::Gauge,
    // Reused across batch evaluations: block registers, output columns
    // and `(t, d)` columns are allocated once per concurrent evaluator
    // and recycled for the whole search. Tasks check a workspace out,
    // use it, and return it.
    workspaces: Mutex<Vec<SweepWorkspace>>,
    // Sweep phase timers, summed over every computed frontier key and
    // tape build (driver publication).
    phases: Mutex<SweepPhases>,
    // Test-only seam: sweep through the row-by-row interpreter
    // reference instead of the columnar sweep.
    #[cfg(test)]
    reference_sweep: bool,
}

impl<'a> IntraStageTuner<'a> {
    /// Creates a tuner for one workload. `budget` defaults to the GPU's
    /// usable memory.
    pub fn new(
        model: &'a ModelSpec,
        cluster: &'a ClusterSpec,
        db: &'a OpCostDb,
        space: &'a SearchSpace,
        interference: &'a InterferenceModel,
        global_batch: u64,
    ) -> Self {
        IntraStageTuner {
            model,
            cluster,
            db,
            space,
            interference,
            global_batch,
            budget: cluster.gpu.memory_bytes,
            pool: mist_pool::global(),
            tape_cache: Mutex::new(HashMap::new()),
            frontier_cache: Mutex::new(HashMap::new()),
            seed: None,
            budget_proofs: Mutex::new(HashMap::new()),
            seeded: mist_telemetry::Counter::new(),
            mono_prune: true,
            oom_floors: Mutex::new(HashMap::new()),
            pending_floors: Mutex::new(Vec::new()),
            mono_proofs: Mutex::new(HashMap::new()),
            mem_hi_cache: Mutex::new(HashMap::new()),
            compile_cache: CompileCache::new(),
            domains: space.symbol_domains(model),
            configs_evaluated: mist_telemetry::Counter::new(),
            rejections: RejectionCounters::new(),
            frontier_size: mist_telemetry::Gauge::new(),
            workspaces: Mutex::new(Vec::new()),
            phases: Mutex::new(SweepPhases::default()),
            #[cfg(test)]
            reference_sweep: false,
        }
    }

    /// Overrides the per-GPU memory budget (tests, what-if studies).
    pub fn with_budget(mut self, budget: f64) -> Self {
        self.budget = budget;
        self
    }

    /// Enables or disables proof-licensed monotone pruning (default on).
    /// Pruning never changes any frontier — it only skips evaluating
    /// rows proven out-of-memory — so this toggle exists for A/B
    /// studies and the byte-identity tests.
    pub fn with_monotone_prune(mut self, enabled: bool) -> Self {
        self.mono_prune = enabled;
        self
    }

    /// Overrides the thread pool (defaults to the process-global one).
    pub fn with_pool(mut self, pool: Arc<ThreadPool>) -> Self {
        self.pool = pool;
        self
    }

    /// Installs a warm-start seed. The caller must guarantee the seed
    /// was exported under an identical tape context — same model,
    /// search space, interference model, and a tape-equivalent cluster
    /// (see [`crate::seed`] module docs); candidate-list equality and
    /// budget compatibility are then checked per lookup.
    pub fn with_seed(mut self, seed: Arc<FrontierExport>) -> Self {
        self.seed = Some(seed);
        self
    }

    /// The pool frontier computations fan out on.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.pool
    }

    /// Checks a reusable evaluation workspace out of the pool.
    fn take_workspace(&self) -> SweepWorkspace {
        self.workspaces.lock().pop().unwrap_or_default()
    }

    /// Returns a workspace for the next task to reuse.
    fn put_workspace(&self, ws: SweepWorkspace) {
        self.workspaces.lock().push(ws);
    }

    /// Number of configurations evaluated so far (tuning-time studies).
    pub fn configs_evaluated(&self) -> u64 {
        self.configs_evaluated.value()
    }

    /// Number of frontier families taken from the warm-start seed.
    pub fn seeded_frontiers(&self) -> u64 {
        self.seeded.value()
    }

    /// The compiled stage-program cache (driver publication).
    pub(crate) fn compile_cache(&self) -> &CompileCache {
        &self.compile_cache
    }

    /// Rejection attribution counters (driver publication).
    pub(crate) fn rejections(&self) -> &RejectionCounters {
        &self.rejections
    }

    /// Sweep phase timers summed over every frontier key computed and
    /// every tape build and compile so far.
    pub(crate) fn sweep_phases(&self) -> SweepPhases {
        SweepPhases {
            compile: self.compile_cache.compile_secs(),
            ..*self.phases.lock()
        }
    }

    /// Largest sampled per-layer frontier seen so far.
    pub(crate) fn frontier_size_high_water(&self) -> f64 {
        self.frontier_size.value()
    }

    /// The memory budget in use.
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// Computes the frontier families of several keys at once, returning
    /// results in input order.
    ///
    /// This is the entry point that activates monotone pruning across
    /// keys: keys are grouped by in-flight count and the levels are
    /// processed in ascending order, committing the all-OOM floors each
    /// level discovered before the next level starts. A later level may
    /// then skip `(candidate, layer-count)` groups whose rows are proven
    /// out-of-memory — peak memory is non-decreasing in `inflight`
    /// (checked per tapes by the monotonicity analysis, never assumed)
    /// and every row already OOMed at a smaller in-flight count.
    /// Because floors only ever cover all-OOM groups, the returned
    /// frontiers are byte-identical to pruning disabled; only the
    /// number of evaluated rows changes. Level-sequential commits make
    /// that count deterministic at any thread count.
    pub fn frontiers_batch(
        &self,
        keys: &[FrontierKey],
        max_layers: u32,
    ) -> Vec<Arc<Vec<Vec<ParetoPoint>>>> {
        if !self.mono_prune {
            return self
                .pool
                .map_ordered(keys.to_vec(), |k| self.frontiers(k, max_layers));
        }
        // Group by in-flight level, ascending; first-seen order within a
        // level preserves the caller's submission order.
        let mut levels: Vec<(u32, Vec<usize>)> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            match levels
                .iter_mut()
                .find(|(inflight, _)| *inflight == key.inflight)
            {
                Some((_, idxs)) => idxs.push(i),
                None => levels.push((key.inflight, vec![i])),
            }
        }
        levels.sort_by_key(|&(inflight, _)| inflight);
        let mut results: Vec<Option<Arc<Vec<Vec<ParetoPoint>>>>> = vec![None; keys.len()];
        for (_, idxs) in levels {
            let level_keys: Vec<FrontierKey> = idxs.iter().map(|&i| keys[i]).collect();
            let outs = self
                .pool
                .map_ordered(level_keys, |k| self.frontiers(k, max_layers));
            for (i, out) in idxs.into_iter().zip(outs) {
                results[i] = Some(out);
            }
            self.commit_floors();
        }
        results
            .into_iter()
            .map(|r| r.expect("every key belongs to exactly one level"))
            .collect()
    }

    /// Merges the floors the current level recorded into the committed
    /// memo. Min-merge per `(tape key, layer count)`: commit order never
    /// affects the surviving floor.
    fn commit_floors(&self) {
        let pending: Vec<((TapeKey, u32), u32)> = std::mem::take(&mut *self.pending_floors.lock());
        let mut floors = self.oom_floors.lock();
        for (key, inflight) in pending {
            let entry = floors.entry(key).or_insert(inflight);
            *entry = (*entry).min(inflight);
        }
    }

    /// Whether both memory roots of both stage programs are provably
    /// non-decreasing in `inflight` over the whole sweep domain — the
    /// license for extrapolating an all-OOM outcome to larger in-flight
    /// counts. Derived by the monotonicity analysis, cached per tapes.
    fn mono_licensed(&self, tapes: &StageTapes) -> bool {
        let ptr = tapes as *const StageTapes as usize;
        if let Some(&hit) = self.mono_proofs.lock().get(&ptr) {
            return hit;
        }
        let non_decreasing = |program| {
            let report = monotonicity(program, &self.domains);
            report.verdict("mem_fwd", "inflight").non_decreasing()
                && report.verdict("mem_bwd", "inflight").non_decreasing()
        };
        let proven = non_decreasing(&tapes.program) && non_decreasing(&tapes.mem_pair);
        self.mono_proofs.lock().insert(ptr, proven);
        proven
    }

    /// Interval-proven upper bound (bytes) on one candidate's peak
    /// memory over the whole sweep domain at a fixed in-flight count;
    /// `+∞` when the analysis cannot bound it. Cached per
    /// `(tapes, inflight)` — candidates recur across frontier keys.
    fn static_mem_hi(&self, tapes: &StageTapes, inflight: u32) -> f64 {
        let ptr = tapes as *const StageTapes as usize;
        if let Some(&hit) = self.mem_hi_cache.lock().get(&(ptr, inflight)) {
            return hit;
        }
        let domains = self
            .domains
            .clone()
            .declare("inflight", SymbolDomain::point(f64::from(inflight), true));
        let mem_hi = root_intervals(&tapes.program, &domains)
            .iter()
            .filter(|rb| rb.label == "mem_fwd" || rb.label == "mem_bwd")
            .map(|rb| {
                if rb.may_nonfinite {
                    f64::INFINITY
                } else {
                    rb.hi
                }
            })
            .fold(f64::NEG_INFINITY, f64::max);
        self.mem_hi_cache.lock().insert((ptr, inflight), mem_hi);
        mem_hi
    }

    /// Returns `frontiers[l − 1]` = sampled Pareto points for a stage of
    /// `l` layers, for `l ∈ 1..=max_layers`. Results are cached per key.
    ///
    /// Single-key entry point: records pending all-OOM floors but never
    /// commits them — only [`Self::frontiers_batch`] commits, between
    /// in-flight levels, so pruning stays deterministic.
    pub fn frontiers(&self, key: FrontierKey, max_layers: u32) -> Arc<Vec<Vec<ParetoPoint>>> {
        if let Some(hit) = self.frontier_cache.lock().get(&key) {
            if hit.len() >= max_layers as usize {
                mist_telemetry::counter_add("intra.frontier_cache_hits", 1);
                return hit.clone();
            }
        }
        if let Some(seeded) = self.seeded_frontier(key, max_layers) {
            let arc = Arc::new(seeded);
            self.frontier_cache.lock().insert(key, arc.clone());
            return arc;
        }
        let computed = Arc::new(self.compute_frontiers(key, max_layers));
        self.frontier_cache.lock().insert(key, computed.clone());
        computed
    }

    /// Consults the warm-start seed for a frontier family whose sweep
    /// would be row-identical to the one about to run. On a hit, the
    /// record is truncated to exactly `max_layers` families — the same
    /// shape a cold sweep would produce — so downstream inter-stage
    /// selection sees byte-identical input.
    fn seeded_frontier(&self, key: FrontierKey, max_layers: u32) -> Option<Vec<Vec<ParetoPoint>>> {
        let seed = self.seed.as_ref()?;
        let cands: Vec<SeedCandidate> = self
            .parallelism_candidates(key.mesh, key.grad_accum)
            .into_iter()
            .map(|(dp, tp, b)| SeedCandidate {
                dp,
                tp,
                micro_batch: b,
            })
            .collect();
        let record = seed.lookup(
            key.mesh,
            key.role,
            key.inflight,
            &cands,
            self.budget,
            max_layers,
        )?;
        self.seeded.inc();
        // The proof that licensed reuse keeps holding for the reused
        // family: a `StaticFit` bound is budget-independent, and a
        // `Witness` reused upward stays a witness under the larger
        // budget; at equal budgets the proof carries over verbatim.
        self.budget_proofs.lock().insert(key, record.proof);
        Some(record.per_l[..max_layers as usize].to_vec())
    }

    /// Exports every cached frontier family as a [`FrontierExport`]:
    /// canonically sorted, deduplicated on the seed identity
    /// `(mesh, role, inflight, candidates)` (two grad-accum steps that
    /// enumerate the same candidate list share one record).
    pub fn export_frontiers(&self) -> FrontierExport {
        let cache = self.frontier_cache.lock();
        let proofs = self.budget_proofs.lock();
        let mut keys: Vec<FrontierKey> = cache.keys().copied().collect();
        keys.sort_by_key(|k| {
            (
                k.mesh.nodes,
                k.mesh.gpus_per_node,
                role_rank(k.role),
                k.inflight,
                k.grad_accum,
            )
        });
        let mut records: Vec<FrontierRecord> = Vec::new();
        for key in keys {
            let per_l = &cache[&key];
            let candidates: Vec<SeedCandidate> = self
                .parallelism_candidates(key.mesh, key.grad_accum)
                .into_iter()
                .map(|(dp, tp, b)| SeedCandidate {
                    dp,
                    tp,
                    micro_batch: b,
                })
                .collect();
            if records.iter().any(|r| {
                r.mesh == key.mesh
                    && r.role == key.role
                    && r.inflight == key.inflight
                    && r.candidates == candidates
            }) {
                continue;
            }
            records.push(FrontierRecord {
                mesh: key.mesh,
                role: key.role,
                inflight: key.inflight,
                candidates,
                budget: self.budget,
                // Conservative default: a family with no recorded proof
                // (e.g. produced by `evaluate_config`-style paths) is
                // treated as budget-sensitive.
                proof: proofs.get(&key).copied().unwrap_or(BudgetProof::Sensitive),
                per_l: per_l.as_ref().clone(),
            });
        }
        FrontierExport { records }
    }

    /// Evaluates one explicit configuration on one candidate (used by the
    /// uniform-stages heuristic and by enumeration-style experiments).
    /// No feasibility filtering — inspect `mem_peak` yourself.
    pub fn evaluate_config(&self, cand: &StageCandidate, cfg: &StageConfigValues) -> ParetoPoint {
        self.configs_evaluated.inc();
        let tapes = self.tapes(cand);
        let point = tapes.eval_point(cfg);
        let (t, d) = if self.space.overlap_aware {
            let st = stage_times(&point, self.interference);
            (st.t, st.d)
        } else {
            let sum = |s: [f64; 4]| s.iter().sum::<f64>();
            (
                sum(point.fwd) + sum(point.bwd),
                sum(point.first_extra) + sum(point.last_extra),
            )
        };
        ParetoPoint {
            t,
            d,
            mem_peak: point.mem_fwd.max(point.mem_bwd),
            candidate: *cand,
            config: *cfg,
            point,
        }
    }

    /// Public access to the valid `(dp, tp, b)` parallelism candidates of
    /// a mesh under gradient accumulation `g`.
    pub fn parallelism_options(&self, mesh: DeviceMesh, g: u32) -> Vec<(u32, u32, u64)> {
        self.parallelism_candidates(mesh, g)
    }

    fn tapes(&self, cand: &StageCandidate) -> Arc<StageTapes> {
        let key: TapeKey = (cand.mesh, cand.dp, cand.tp, cand.micro_batch, cand.role);
        if let Some(hit) = self.tape_cache.lock().get(&key) {
            return hit.clone();
        }
        mist_telemetry::counter_add("intra.tape_compiles", 1);
        let start = Instant::now();
        let analyzer = StageAnalyzer::new(self.model, self.cluster, self.db);
        let tapes = Arc::new(analyzer.analyze(cand));
        self.phases.lock().tape += start.elapsed().as_secs_f64();
        // Two tasks can race to compile the same key; the first insert
        // wins so every caller shares one allocation (`Arc::ptr_eq`).
        self.tape_cache.lock().entry(key).or_insert(tapes).clone()
    }

    /// Valid `(dp, tp, b)` candidates for a mesh under `G`.
    fn parallelism_candidates(&self, mesh: DeviceMesh, g: u32) -> Vec<(u32, u32, u64)> {
        let mut out = Vec::new();
        for (dp, tp) in mesh.dp_tp_choices() {
            let denom = dp as u64 * g as u64;
            if !self.global_batch.is_multiple_of(denom) {
                continue;
            }
            let b = self.global_batch / denom;
            if b == 0 || b > 512 {
                continue;
            }
            if !self.model.heads.is_multiple_of(tp as u64)
                || !self.model.hidden.is_multiple_of(tp as u64)
            {
                continue;
            }
            out.push((dp, tp, b));
        }
        out
    }

    fn compute_frontiers(&self, key: FrontierKey, max_layers: u32) -> Vec<Vec<ParetoPoint>> {
        assert!(max_layers >= 1);
        let _span = mist_telemetry::span!(
            "intra.frontier",
            layers = max_layers,
            inflight = key.inflight,
            grad_accum = key.grad_accum
        );
        let cands: Vec<StageCandidate> = self
            .parallelism_candidates(key.mesh, key.grad_accum)
            .into_iter()
            .map(|(dp, tp, b)| StageCandidate {
                mesh: key.mesh,
                dp,
                tp,
                micro_batch: b,
                role: key.role,
            })
            .collect();

        // Fan the candidates out over the pool. Merging the per-candidate
        // partials in submission order keeps the pareto input sequence —
        // and therefore the sampled frontier — byte-identical to a
        // sequential sweep at any thread count.
        let partials = self.pool.map_ordered(cands, |cand| {
            let tapes = self.tapes(&cand);
            let mut ws = self.take_workspace();
            let mut partial: Vec<Vec<ParetoPoint>> = vec![Vec::new(); max_layers as usize];
            let mut tally = SweepTally {
                mem_hi: self.static_mem_hi(&tapes, key.inflight),
                ..SweepTally::default()
            };
            self.evaluate_candidate(
                &cand,
                &tapes,
                key,
                max_layers,
                &mut partial,
                &mut ws,
                &mut tally,
            );
            self.put_workspace(ws);
            (partial, tally)
        });
        let mut per_l: Vec<Vec<ParetoPoint>> = vec![Vec::new(); max_layers as usize];
        let mut tally = SweepTally::default();
        for (partial, part_tally) in partials {
            tally.merge(&part_tally);
            for (dst, src) in per_l.iter_mut().zip(partial) {
                dst.extend(src);
            }
        }
        let feasible = tally.feasible;
        assert_eq!(
            tally.enumerated,
            tally.oom + tally.nonfinite + feasible + tally.mono_pruned,
            "every enumerated row must be attributed to exactly one outcome"
        );

        // Pareto-reduce and sample each layer count. `per_l` holds only
        // the prefilter survivors, which select exactly the points the
        // full feasible list would.
        let mut mark = Instant::now();
        for points in per_l.iter_mut() {
            if points.is_empty() {
                continue;
            }
            let td: Vec<(f64, f64)> = points.iter().map(|p| (p.t, p.d)).collect();
            let frontier = pareto_frontier(&td);
            let sampled = sample_frontier(&frontier, self.space.pareto_samples);
            let mut kept: Vec<ParetoPoint> = sampled.iter().map(|&i| points[i].clone()).collect();
            kept.sort_by(|a, b| a.t.total_cmp(&b.t));
            *points = kept;
        }
        tally.phases.pareto += lap(&mut mark);
        self.phases.lock().merge(&tally.phases);

        let sizes: Vec<u32> = per_l.iter().map(|p| p.len() as u32).collect();
        let survived: u64 = sizes.iter().map(|&s| s as u64).sum();
        let dominated = feasible - survived;
        // Strongest proof first: a static interval bound beats the
        // sweep's own witness because it licenses downward budget reuse
        // (and, unlike the witness, is derived rather than observed).
        let proof = if tally.budget_bound {
            BudgetProof::Sensitive
        } else if tally.mem_hi.is_finite() && tally.mem_hi <= self.budget {
            BudgetProof::StaticFit {
                mem_hi: tally.mem_hi,
            }
        } else {
            BudgetProof::Witness
        };
        self.budget_proofs.lock().insert(key, proof);
        self.rejections.oom.add(tally.oom);
        self.rejections.nonfinite.add(tally.nonfinite);
        self.rejections.dominated.add(dominated);
        self.rejections.mono_pruned.add(tally.mono_pruned);
        self.frontier_size
            .set_max(sizes.iter().copied().max().unwrap_or(0) as f64);
        mist_telemetry::journal_event(|| mist_telemetry::JournalEvent::FrontierSummary {
            mesh_nodes: key.mesh.nodes,
            mesh_gpus: key.mesh.gpus_per_node,
            role: format!("{:?}", key.role),
            inflight: key.inflight,
            grad_accum: key.grad_accum,
            max_layers,
            enumerated: tally.enumerated,
            oom: tally.oom,
            nonfinite: tally.nonfinite,
            feasible,
            survived,
            dominated,
            mono_pruned: tally.mono_pruned,
            sizes: sizes.clone(),
        });
        per_l
    }

    /// Batch-evaluates one `(dp, tp, b)` candidate over all layer counts,
    /// ZeRO levels and offload combos through [`Self::sweep_columnar`],
    /// appending the feasible points that survive the dominance
    /// prefilter to `per_l`.
    ///
    /// Rows are enumerated in `(zero, offload, L)` order: ZeRO-outer,
    /// offload-inner, one row per retained layer count. Each `per_l[l]`
    /// therefore receives its points in `(zero, offload)` order at any
    /// batch shape, so downstream Pareto reduction selects the same
    /// points as a row-by-row sweep.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_candidate(
        &self,
        cand: &StageCandidate,
        tapes: &StageTapes,
        key: FrontierKey,
        max_layers: u32,
        per_l: &mut [Vec<ParetoPoint>],
        ws: &mut SweepWorkspace,
        tally: &mut SweepTally,
    ) {
        let rows_per_l =
            (self.space.zero_levels().len() * self.space.offload_combos().len()) as u64;
        let nl = max_layers as usize;
        tally.enumerated += nl as u64 * rows_per_l;

        // Proof-licensed monotone pruning: a layer count whose rows
        // *all* ran out of memory at a smaller in-flight count is
        // skipped outright when the monotonicity analysis proved peak
        // memory non-decreasing in `inflight` — the rows would OOM
        // again and contribute nothing. The frontier is unchanged by
        // construction; only the evaluated-row count shrinks.
        let tape_key: TapeKey = (cand.mesh, cand.dp, cand.tp, cand.micro_batch, cand.role);
        let licensed = self.mono_prune && rows_per_l > 0 && self.mono_licensed(tapes);
        let mut retained: Vec<u32> = Vec::with_capacity(nl);
        let mut skipped: Vec<u32> = Vec::new();
        let mut skip_floor = 0u32;
        if licensed {
            let floors = self.oom_floors.lock();
            for l in 1..=max_layers {
                match floors.get(&(tape_key, l)) {
                    Some(&fl) if fl < key.inflight => {
                        skipped.push(l);
                        skip_floor = skip_floor.max(fl);
                    }
                    _ => retained.push(l),
                }
            }
        } else {
            retained.extend(1..=max_layers);
        }
        if !skipped.is_empty() {
            tally.mono_pruned += skipped.len() as u64 * rows_per_l;
            // Extrapolated OOMs: the budget shaped the sweep outcome.
            tally.budget_bound = true;
            mist_telemetry::journal_event(|| mist_telemetry::JournalEvent::MonotonePrune {
                mesh_nodes: key.mesh.nodes,
                mesh_gpus: key.mesh.gpus_per_node,
                role: format!("{:?}", key.role),
                inflight: key.inflight,
                floor: skip_floor,
                layers: skipped.clone(),
                rows: skipped.len() as u64 * rows_per_l,
            });
        }
        if retained.is_empty() {
            return;
        }
        self.configs_evaluated
            .add(retained.len() as u64 * rows_per_l);

        let mut flags = LayerFlags::new(retained.len());
        self.sweep_columnar(cand, tapes, key, &retained, per_l, ws, tally, &mut flags);

        // Record new all-OOM floors for larger in-flight counts. Only
        // pending here — `frontiers_batch` commits between levels so
        // concurrent sweeps of the same level never observe each other.
        // An all-OOM layer count becomes a floor — except under tuned
        // checkpointing with a recheck OOM, where the resolved `ckpt`
        // changes with `inflight` and the outcome is not directly
        // extrapolatable.
        if licensed {
            let mut pending = self.pending_floors.lock();
            for (i, &l) in retained.iter().enumerate() {
                let extrapolatable = self.space.ckpt != CkptMode::Tuned || !flags.recheck_oom[i];
                if !flags.any_feasible[i] && !flags.any_nonfinite[i] && extrapolatable {
                    pending.push(((tape_key, l), key.inflight));
                }
            }
        }
    }

    /// The intra-stage sweep: the candidate's rows run as
    /// columnar batches of whole `(zero, offload)` groups, at most
    /// [`SWEEP_BATCH_ROWS`] rows each, through the *generic* stage
    /// programs compiled once per tapes (`zero`, the offload ratios and
    /// `L` are value columns, `inflight` a scalar). Per batch:
    ///
    /// 1. Under [`CkptMode::Tuned`], three `mem_pair` probes at
    ///    `ckpt` = 0, 1 and `L` over the whole batch, then
    ///    [`minimal_ckpt`] per row.
    /// 2. The memory-first `mem_pair` pass at the resolved `ckpt`. Rows
    ///    with no feasible `ckpt` or a peak over the budget are rejected
    ///    without running the 22-root program.
    /// 3. One 22-root evaluation over the compacted survivors, in row
    ///    order.
    /// 4. `(t, d)` for all survivors in one columnar pass over the
    ///    sixteen stream output columns ([`stage_times_columns`]: the
    ///    batched interference predictor, bit-identical to
    ///    [`stage_times`]), then per survivor the conservative budget
    ///    recheck and the per-layer outcome flags.
    /// 5. Per layer count, the dominance [`prefilter`] on `(t, d)`; a
    ///    [`StagePoint`] and [`ParetoPoint`] are built only for its
    ///    survivors.
    ///
    /// Every evaluation is bit-identical to the interpreter row by row,
    /// the survivors keep row order, and the prefilter is exact over any
    /// contiguous cut of a layer's point list, so the sampled frontiers
    /// match a row-by-row sweep byte for byte.
    #[allow(clippy::too_many_arguments)]
    fn sweep_columnar(
        &self,
        cand: &StageCandidate,
        tapes: &StageTapes,
        key: FrontierKey,
        retained: &[u32],
        per_l: &mut [Vec<ParetoPoint>],
        ws: &mut SweepWorkspace,
        tally: &mut SweepTally,
        flags: &mut LayerFlags,
    ) {
        #[cfg(test)]
        if self.reference_sweep {
            return self.sweep_reference(cand, tapes, key, retained, per_l, tally, flags);
        }
        // `tapes.program` and `tapes.mem_pair` are shared by every batch
        // of this candidate and by every frontier key that reuses its
        // tapes, so the content-addressed compile cache hits almost
        // always.
        let SweepWorkspace { cws, t, d } = ws;
        let prog = self.compile_cache.compiled(&tapes.program);
        let mem = self.compile_cache.compiled(&tapes.mem_pair);
        let zeros = self.space.zero_levels();
        let combos = self.space.offload_combos();
        let group = |g: usize| (zeros[g / combos.len()], combos[g % combos.len()]);
        let groups = zeros.len() * combos.len();
        let nr = retained.len();
        let per_batch = (SWEEP_BATCH_ROWS / nr).max(1);
        let inflight = f64::from(key.inflight);
        // Per retained layer count: `(t, d)` of each feasible row and
        // its survivor column, in row order.
        let mut buckets: Vec<Vec<(f64, f64)>> = vec![Vec::new(); nr];
        let mut bucket_cols: Vec<Vec<u32>> = vec![Vec::new(); nr];

        let mut g0 = 0;
        while g0 < groups {
            let g1 = (g0 + per_batch).min(groups);
            let mut mark = Instant::now();
            let mut cols = SweepColumns::default();
            for g in g0..g1 {
                let (z, off) = group(g);
                for &l in retained {
                    cols.push(l, z, off);
                }
            }
            let n = cols.l.len();
            let mut batch = cols.bind(None, inflight);

            // 1. Resolve the checkpoint count per row.
            let ckpt: Vec<f64> = match self.space.ckpt {
                CkptMode::None => vec![0.0; n],
                CkptMode::Full => cols.l.clone(),
                CkptMode::Tuned => {
                    batch.set_scalar("ckpt", 0.0);
                    let m0 = mem_peaks(&mem, &batch, cws);
                    batch.set_scalar("ckpt", 1.0);
                    let m1 = mem_peaks(&mem, &batch, cws);
                    batch.set_values("ckpt", cols.l.clone());
                    let ml = mem_peaks(&mem, &batch, cws);
                    let ckpt: Vec<f64> = (0..n)
                        .map(|r| minimal_ckpt(m0[r], m1[r], ml[r], retained[r % nr], self.budget))
                        .collect();
                    // A nonzero tuned checkpoint count (incl. the `∞`
                    // infeasibility marker) means the budget shaped this
                    // row — the sweep is not reusable under other budgets.
                    if ckpt.iter().any(|&c| c != 0.0) {
                        tally.budget_bound = true;
                    }
                    ckpt
                }
            };
            tally.phases.ckpt_probe += lap(&mut mark);

            // 2. Memory-first filter at the resolved checkpoint counts.
            // Rows whose `ckpt` is the `∞` marker are evaluated but never
            // read back.
            batch.set_values("ckpt", ckpt.clone());
            let peaks = mem_peaks(&mem, &batch, cws);
            let mut surv: Vec<u32> = Vec::with_capacity(n);
            for r in 0..n {
                if ckpt[r].is_infinite() {
                    tally.oom += 1; // No feasible checkpoint count.
                } else if peaks[r] > self.budget {
                    tally.oom += 1;
                    tally.budget_bound = true;
                    flags.recheck_oom[r % nr] = true;
                } else {
                    // The exact complement of the `> budget` rejection
                    // a row-by-row sweep applies to these same values,
                    // so every row lands in the same bucket.
                    surv.push(r as u32);
                }
            }
            tally.phases.mem_first += lap(&mut mark);

            // 3. The 22-root program over the survivors only.
            if surv.is_empty() {
                g0 = g1;
                continue;
            }
            let mut sbatch = cols.bind(Some(&surv), inflight);
            sbatch.set_values("ckpt", surv.iter().map(|&r| ckpt[r as usize]).collect());
            prog.eval_batch(&sbatch, cws)
                .expect("compiled stage program");
            tally.phases.eval += lap(&mut mark);

            // 4. `(t, d)` for every survivor, then budget recheck and
            // outcome per survivor.
            let n_surv = surv.len();
            t.resize(n_surv, 0.0);
            d.resize(n_surv, 0.0);
            let streams: [&[f64]; 16] = std::array::from_fn(|i| cws.output(stage_roots::FWD + i));
            if self.space.overlap_aware {
                stage_times_columns(streams, self.interference, t, d);
            } else {
                serial_times_columns(streams, t, d);
            }
            let (mem_fwd, mem_bwd) = (
                cws.output(stage_roots::MEM_FWD),
                cws.output(stage_roots::MEM_BWD),
            );
            for (j, &r) in surv.iter().enumerate() {
                let li = r as usize % nr;
                if mem_fwd[j].max(mem_bwd[j]) > self.budget {
                    tally.oom += 1;
                    tally.budget_bound = true;
                    flags.recheck_oom[li] = true;
                    continue; // Conservative re-check of the linear solve.
                }
                if !t[j].is_finite() {
                    tally.nonfinite += 1;
                    flags.any_nonfinite[li] = true;
                    continue;
                }
                tally.feasible += 1;
                flags.any_feasible[li] = true;
                buckets[li].push((t[j], d[j]));
                bucket_cols[li].push(j as u32);
            }
            tally.phases.predict += lap(&mut mark);

            // 5. Build points only for the prefilter survivors.
            for (li, (td, js)) in buckets.iter_mut().zip(&mut bucket_cols).enumerate() {
                let l = retained[li];
                for k in prefilter(td) {
                    let j = js[k] as usize;
                    let r = surv[j] as usize;
                    let (z, off) = group(g0 + r / nr);
                    let point = tapes.point_at_compiled(cws, j);
                    per_l[(l - 1) as usize].push(ParetoPoint {
                        t: td[k].0,
                        d: td[k].1,
                        mem_peak: point.mem_fwd.max(point.mem_bwd),
                        candidate: *cand,
                        config: StageConfigValues {
                            layers: l,
                            ckpt: ckpt[r] as u32,
                            zero: z,
                            wo: off[0],
                            go: off[1],
                            oo: off[2],
                            ao: off[3],
                            inflight: key.inflight,
                        },
                        point,
                    });
                }
                td.clear();
                js.clear();
            }
            tally.phases.materialize += lap(&mut mark);
            g0 = g1;
        }
    }
}

/// Shortcoming #1's serial predictor: `t` is the plain sum of the
/// stable streams, `d` the plain sum of the first/last extras.
fn serial_times(
    fwd: [f64; 4],
    bwd: [f64; 4],
    first_extra: [f64; 4],
    last_extra: [f64; 4],
) -> (f64, f64) {
    let sum = |s: [f64; 4]| s.iter().sum::<f64>();
    (sum(fwd) + sum(bwd), sum(first_extra) + sum(last_extra))
}

/// [`serial_times`] for every row of the sixteen stream output columns
/// (root order, as [`stage_times_columns`] takes them).
fn serial_times_columns(streams: [&[f64]; 16], t: &mut [f64], d: &mut [f64]) {
    for (r, (tr, dr)) in t.iter_mut().zip(d.iter_mut()).enumerate() {
        let quad = |base: usize| std::array::from_fn(|k| streams[base + k][r]);
        (*tr, *dr) = serial_times(quad(0), quad(4), quad(8), quad(12));
    }
}

/// Smallest `ckpt ∈ [0, l]` whose (linear-in-ckpt) peak memory fits the
/// budget; `f64::INFINITY` when even full recomputation does not fit.
fn minimal_ckpt(m0: f64, m1: f64, ml: f64, l: u32, budget: f64) -> f64 {
    if m0 <= budget {
        return 0.0;
    }
    if ml > budget {
        return f64::INFINITY;
    }
    if m1 <= budget || l == 1 {
        return 1.0;
    }
    // Memory falls linearly from m1 (ckpt=1) to ml (ckpt=l).
    let slope = (m1 - ml) / (l as f64 - 1.0);
    debug_assert!(slope >= 0.0, "checkpointing must not increase memory");
    if slope <= 0.0 {
        return l as f64;
    }
    let need = ((m1 - budget) / slope).ceil() + 1.0;
    need.clamp(1.0, l as f64)
}

/// The test-only reference sweep the columnar sweep is checked against.
#[cfg(test)]
impl IntraStageTuner<'_> {
    /// Sweeps through [`Self::sweep_reference`] instead of the columnar
    /// sweep.
    pub(crate) fn with_reference_sweep(mut self) -> Self {
        self.reference_sweep = true;
        self
    }

    /// The row-by-row reference sweep, one `(zero, offload)` group at a
    /// time: the generic 22-root stage program and `mem_pair` run
    /// through the [`Program`](mist_symbolic::Program) interpreter with
    /// the group knobs bound as scalars, each group's batch varies only
    /// `L`/`ckpt`, and every evaluated row is classified by
    /// [`Self::classify_row`]. No memory-first filter, no survivor
    /// compaction, no dominance prefilter and no compiled backend.
    #[allow(clippy::too_many_arguments)]
    fn sweep_reference(
        &self,
        cand: &StageCandidate,
        tapes: &StageTapes,
        key: FrontierKey,
        retained: &[u32],
        per_l: &mut [Vec<ParetoPoint>],
        tally: &mut SweepTally,
        flags: &mut LayerFlags,
    ) {
        let mut ws = mist_symbolic::EvalWorkspace::new();
        let nr = retained.len();
        let ls: Vec<f64> = retained.iter().map(|&l| f64::from(l)).collect();
        for &z in self.space.zero_levels() {
            for off in self.space.offload_combos() {
                // One row per retained layer count.
                let mut batch = BatchBindings::new(nr);
                batch.set_values("L", ls.clone());
                batch.set_scalar("zero", f64::from(z));
                batch.set_scalar("wo", off[0]);
                batch.set_scalar("go", off[1]);
                batch.set_scalar("oo", off[2]);
                batch.set_scalar("ao", off[3]);
                batch.set_scalar("inflight", f64::from(key.inflight));

                // Resolve the checkpoint count per row through the
                // two-root `mem_pair` program (peak memory only — no
                // need to evaluate all 22 roots for the feasibility
                // probes).
                let ckpt_col: Vec<f64> = match self.space.ckpt {
                    CkptMode::None => vec![0.0; nr],
                    CkptMode::Full => ls.clone(),
                    CkptMode::Tuned => {
                        let mut mem_at = |ckpt_of: &dyn Fn(f64) -> f64| -> Vec<f64> {
                            batch.set_values("ckpt", ls.iter().map(|&l| ckpt_of(l)).collect());
                            tapes.mem_peak_batch(&batch, &mut ws)
                        };
                        let m0 = mem_at(&|_| 0.0);
                        let m1 = mem_at(&|_| 1.0);
                        let ml = mem_at(&|l| l);
                        retained
                            .iter()
                            .enumerate()
                            .map(|(i, &l)| minimal_ckpt(m0[i], m1[i], ml[i], l, self.budget))
                            .collect()
                    }
                };
                // A nonzero tuned checkpoint count (incl. the `∞`
                // infeasibility marker) means the budget shaped this
                // row — the sweep is not reusable under other budgets.
                if self.space.ckpt == CkptMode::Tuned && ckpt_col.iter().any(|&c| c != 0.0) {
                    tally.budget_bound = true;
                }
                batch.set_values("ckpt", ckpt_col.clone());

                // One pass over all 22 roots at the resolved checkpoint
                // counts. Rows whose `ckpt` is the `∞` infeasibility
                // marker are discarded below, never read back.
                tapes
                    .eval_batch_fused(&batch, &mut ws)
                    .expect("stage program");
                for (i, &l) in retained.iter().enumerate() {
                    let ckpt = ckpt_col[i];
                    if ckpt.is_infinite() {
                        tally.oom += 1;
                        continue; // No feasible checkpoint count.
                    }
                    let point = tapes.point_at(&ws, i);
                    self.classify_row(cand, key, i, l, z, off, ckpt, point, per_l, tally, flags);
                }
            }
        }
    }

    /// The reference sweep's tail for one evaluated row: the
    /// conservative budget re-check, the time/imbalance predictor, and
    /// the feasible-point append. `i` indexes the retained layer counts
    /// (for the per-layer outcome flags), `l` is the layer count itself.
    #[allow(clippy::too_many_arguments)]
    fn classify_row(
        &self,
        cand: &StageCandidate,
        key: FrontierKey,
        i: usize,
        l: u32,
        z: u8,
        off: [f64; 4],
        ckpt: f64,
        point: StagePoint,
        per_l: &mut [Vec<ParetoPoint>],
        tally: &mut SweepTally,
        flags: &mut LayerFlags,
    ) {
        let mem_peak = point.mem_fwd.max(point.mem_bwd);
        if mem_peak > self.budget {
            tally.oom += 1;
            tally.budget_bound = true;
            flags.recheck_oom[i] = true;
            return; // Conservative re-check of the linear solve.
        }
        let (t, d) = if self.space.overlap_aware {
            let st = stage_times(&point, self.interference);
            (st.t, st.d)
        } else {
            serial_times(point.fwd, point.bwd, point.first_extra, point.last_extra)
        };
        if !t.is_finite() {
            tally.nonfinite += 1;
            flags.any_nonfinite[i] = true;
            return;
        }
        tally.feasible += 1;
        flags.any_feasible[i] = true;
        let config = StageConfigValues {
            layers: l,
            ckpt: ckpt as u32,
            zero: z,
            wo: off[0],
            go: off[1],
            oo: off[2],
            ao: off[3],
            inflight: key.inflight,
        };
        per_l[(l - 1) as usize].push(ParetoPoint {
            t,
            d,
            mem_peak,
            candidate: *cand,
            config,
            point,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mist_hardware::{GpuSpec, Platform};
    use mist_models::{gpt3, AttentionImpl, ModelSize};

    struct Ctx {
        model: ModelSpec,
        cluster: ClusterSpec,
        db: OpCostDb,
        interference: InterferenceModel,
    }

    fn ctx() -> Ctx {
        Ctx {
            model: gpt3(ModelSize::B2_6, 2048, AttentionImpl::Flash),
            cluster: ClusterSpec::for_gpu_count(Platform::GcpL4, 4),
            db: OpCostDb::new(GpuSpec::l4()),
            interference: InterferenceModel::pcie_defaults(),
        }
    }

    fn key(mesh: DeviceMesh, g: u32) -> FrontierKey {
        FrontierKey {
            mesh,
            role: StageRole::Only,
            inflight: 1,
            grad_accum: g,
        }
    }

    #[test]
    fn minimal_ckpt_logic() {
        // Budget already met at ckpt=0.
        assert_eq!(minimal_ckpt(10.0, 9.0, 5.0, 8, 12.0), 0.0);
        // Infeasible even at full recompute.
        assert_eq!(minimal_ckpt(10.0, 9.0, 5.0, 8, 4.0), f64::INFINITY);
        // One layer of recompute suffices.
        assert_eq!(minimal_ckpt(10.0, 7.0, 5.0, 8, 8.0), 1.0);
        // Interior solve: m1=10, ml=3 over l=8 → slope=1; budget 6.5 →
        // need = ceil(3.5) + 1 = 5.
        assert_eq!(minimal_ckpt(12.0, 10.0, 3.0, 8, 6.5), 5.0);
        // Full recompute exactly fits.
        assert_eq!(minimal_ckpt(12.0, 10.0, 3.0, 8, 3.0), 8.0);
    }

    #[test]
    fn frontier_points_respect_budget_and_sorting() {
        let c = ctx();
        let space = SearchSpace::mist();
        let tuner = IntraStageTuner::new(&c.model, &c.cluster, &c.db, &space, &c.interference, 8);
        let fr = tuner.frontiers(key(DeviceMesh::new(1, 4), 4), c.model.num_layers);
        assert_eq!(fr.len(), 32);
        let full = &fr[31]; // All 32 layers in one stage.
        assert!(
            !full.is_empty(),
            "32-layer stage must have feasible configs"
        );
        for p in full.iter() {
            assert!(p.mem_peak <= tuner.budget());
            assert_eq!(p.config.layers, 32);
        }
        for w in full.windows(2) {
            assert!(w[0].t <= w[1].t, "frontier must be t-sorted");
            assert!(w[0].d >= w[1].d, "frontier must be d-antitone");
        }
    }

    #[test]
    fn bigger_budget_never_hurts() {
        let c = ctx();
        let space = SearchSpace::mist();
        let small = IntraStageTuner::new(&c.model, &c.cluster, &c.db, &space, &c.interference, 8)
            .with_budget(16e9);
        let large = IntraStageTuner::new(&c.model, &c.cluster, &c.db, &space, &c.interference, 8)
            .with_budget(64e9);
        let mesh = DeviceMesh::new(1, 4);
        let fs = small.frontiers(key(mesh, 4), 32);
        let fl = large.frontiers(key(mesh, 4), 32);
        let best = |f: &Vec<Vec<ParetoPoint>>| f[31].first().map(|p| p.t).unwrap_or(f64::INFINITY);
        assert!(best(&fl) <= best(&fs) + 1e-12);
    }

    #[test]
    fn zero_and_offload_unlock_memory_constrained_configs() {
        let c = ctx();
        // A tiny budget: without memory optimizations nothing fits.
        let bare = SearchSpace {
            ckpt: CkptMode::None,
            zero_levels: vec![0],
            ..SearchSpace::megatron()
        };
        let mist = SearchSpace::mist();
        let budget = 6e9;
        let mesh = DeviceMesh::new(1, 4);
        let t_bare = IntraStageTuner::new(&c.model, &c.cluster, &c.db, &bare, &c.interference, 8)
            .with_budget(budget);
        let t_mist = IntraStageTuner::new(&c.model, &c.cluster, &c.db, &mist, &c.interference, 8)
            .with_budget(budget);
        let fb = t_bare.frontiers(key(mesh, 4), 32);
        let fm = t_mist.frontiers(key(mesh, 4), 32);
        assert!(fb[31].is_empty(), "parallelism-only must OOM (Fig. 2a)");
        assert!(!fm[31].is_empty(), "the co-optimized space must fit");
    }

    #[test]
    fn frontier_cache_hits() {
        let c = ctx();
        let space = SearchSpace::mist();
        let tuner = IntraStageTuner::new(&c.model, &c.cluster, &c.db, &space, &c.interference, 8);
        let k = key(DeviceMesh::new(1, 2), 2);
        let f1 = tuner.frontiers(k, 32);
        let evals = tuner.configs_evaluated();
        let f2 = tuner.frontiers(k, 32);
        assert_eq!(
            tuner.configs_evaluated(),
            evals,
            "second call must hit cache"
        );
        assert!(Arc::ptr_eq(&f1, &f2));
    }

    /// End-to-end exactness of the columnar sweep: every frontier
    /// point's evaluated [`StagePoint`] must be bit-identical to
    /// re-evaluating its configuration through the fused program's
    /// scalar path.
    #[test]
    fn columnar_sweep_matches_scalar_reference_exactly() {
        let c = ctx();
        for space in [SearchSpace::mist(), SearchSpace::megatron()] {
            let tuner =
                IntraStageTuner::new(&c.model, &c.cluster, &c.db, &space, &c.interference, 8);
            let fr = tuner.frontiers(key(DeviceMesh::new(1, 4), 4), c.model.num_layers);
            let mut checked = 0usize;
            for per_l in fr.iter() {
                for p in per_l {
                    let reference = tuner.tapes(&p.candidate).eval_point(&p.config);
                    assert_eq!(p.point, reference, "space {}: {:?}", space.name, p.config);
                    checked += 1;
                }
            }
            assert!(checked > 0, "space {} produced no points", space.name);
        }
    }

    /// Step tables are content-addressed by program id, so re-sweeping
    /// the same tapes — whether for a larger layer cap or another
    /// frontier key — never recompiles.
    #[test]
    fn compile_cache_is_shared_across_frontier_keys() {
        let c = ctx();
        let space = SearchSpace::mist();
        let tuner = IntraStageTuner::new(&c.model, &c.cluster, &c.db, &space, &c.interference, 8);
        let k = key(DeviceMesh::new(1, 4), 4);
        tuner.frontiers(k, 16);
        let misses_one_key = tuner.compile_cache().misses();
        assert!(misses_one_key > 0, "the sweep must build step tables");
        tuner.frontiers(k, 32);
        assert_eq!(
            tuner.compile_cache().misses(),
            misses_one_key,
            "recomputation over identical tapes must not recompile"
        );
        assert!(tuner.compile_cache().hits() >= misses_one_key);
    }

    /// Sweep equivalence: the columnar sweep (compiled programs, batched
    /// checkpoint probes, memory-first filter, survivor compaction,
    /// dominance prefilter) must be invisible next to the row-by-row
    /// interpreter reference of [`IntraStageTuner::sweep_reference`]. The matrix covers every space shape the sweep branches
    /// on — tuned, full and no checkpointing, the fine grid (several
    /// batches per candidate) and the serial predictor — at a tight
    /// budget (whole rows OOM, so the filter compacts batches) and at the
    /// default one, with several in-flight levels through
    /// `frontiers_batch` so monotone pruning commits floors between
    /// levels. Frontiers, `configs_evaluated`, every rejection bucket and
    /// the exported frontiers (budget proofs included) must match byte
    /// for byte. The `enumerated = oom + nonfinite + feasible +
    /// mono_pruned` balance itself is asserted inside `compute_frontiers`
    /// on every run.
    #[test]
    fn survivor_compaction_preserves_row_order_and_buckets() {
        let c = ctx();
        let spaces = [
            SearchSpace::mist(),
            SearchSpace::mist_fine(),
            SearchSpace::megatron(),
            SearchSpace {
                ckpt: CkptMode::None,
                ..SearchSpace::mist()
            },
            SearchSpace {
                overlap_aware: false,
                ..SearchSpace::mist()
            },
        ];
        let mesh = DeviceMesh::new(1, 4);
        let keys: Vec<FrontierKey> = [1, 2, 4]
            .into_iter()
            .map(|inflight| FrontierKey {
                mesh,
                role: StageRole::First,
                inflight,
                grad_accum: 4,
            })
            .collect();
        let mut pruned = 0;
        for space in &spaces {
            for budget in [8e9, c.cluster.gpu.memory_bytes] {
                let run = |reference: bool| {
                    let mut t = IntraStageTuner::new(
                        &c.model,
                        &c.cluster,
                        &c.db,
                        space,
                        &c.interference,
                        8,
                    )
                    .with_budget(budget);
                    if reference {
                        t = t.with_reference_sweep();
                    }
                    let fr = t.frontiers_batch(&keys, c.model.num_layers);
                    let fr: Vec<&Vec<Vec<ParetoPoint>>> = fr.iter().map(|f| f.as_ref()).collect();
                    let r = t.rejections();
                    let outcome = (
                        serde_json::to_string(&fr).unwrap(),
                        t.configs_evaluated(),
                        [
                            r.oom.value(),
                            r.nonfinite.value(),
                            r.dominated.value(),
                            r.mono_pruned.value(),
                        ],
                        serde_json::to_string(&t.export_frontiers()).unwrap(),
                    );
                    (outcome, t.compile_cache().misses())
                };
                let ((reference, ref_compiles), (columnar, compiles)) = (run(true), run(false));
                let case = format!("space {}, budget {budget:e}", space.name);
                assert!(reference.1 > 0, "{case}: nothing evaluated");
                assert_eq!(reference.0, columnar.0, "{case}: frontiers differ");
                assert_eq!(reference.1, columnar.1, "{case}: configs_evaluated");
                assert_eq!(
                    reference.2, columnar.2,
                    "{case}: oom/nonfinite/dominated/mono_pruned"
                );
                assert_eq!(
                    reference.3, columnar.3,
                    "{case}: exported frontiers and budget proofs"
                );
                if budget < c.cluster.gpu.memory_bytes {
                    assert!(columnar.2[0] > 0, "{case}: the tight budget must OOM rows");
                }
                assert!(compiles > 0, "{case}: columnar sweeps build step tables");
                assert_eq!(
                    ref_compiles, 0,
                    "{case}: the reference must never touch the compiled backend"
                );
                pruned += columnar.2[3];
            }
        }
        assert!(pruned > 0, "the matrix must exercise monotone pruning");
    }

    /// The default PCIe table treats H2D and D2H alike, so the matrix
    /// above cannot tell the two stream columns apart. Under a table
    /// that does, the columnar `(t, d)` pass must still match the
    /// reference's per-point `stage_times` byte for byte.
    #[test]
    fn columnar_predictor_keeps_stream_order_under_an_asymmetric_table() {
        let c = ctx();
        let asymmetric = InterferenceModel::from_pairwise(|i, j| 1.0 + 0.1 * (4 * i + j) as f64);
        let space = SearchSpace::mist();
        let run = |reference: bool| {
            let mut t = IntraStageTuner::new(&c.model, &c.cluster, &c.db, &space, &asymmetric, 8);
            if reference {
                t = t.with_reference_sweep();
            }
            let fr = t.frontiers(key(DeviceMesh::new(1, 4), 4), c.model.num_layers);
            let r = t.rejections();
            (
                serde_json::to_string(fr.as_ref()).unwrap(),
                [r.oom.value(), r.nonfinite.value(), r.dominated.value()],
            )
        };
        let (reference, columnar) = (run(true), run(false));
        assert!(reference.0.len() > 2, "no frontier points");
        assert_eq!(reference, columnar);
    }

    #[test]
    fn candidates_respect_global_batch_divisibility() {
        let c = ctx();
        let space = SearchSpace::mist();
        let tuner = IntraStageTuner::new(&c.model, &c.cluster, &c.db, &space, &c.interference, 6);
        // B=6, mesh 4 GPUs: dp=4 needs 6 % (4·G) == 0 — fails for G=1; dp=2
        // works (b=3); dp=1 works (b=6).
        let cands = tuner.parallelism_candidates(DeviceMesh::new(1, 4), 1);
        assert!(cands.iter().all(|&(dp, _, b)| dp as u64 * b == 6));
        assert!(cands.iter().any(|&(dp, _, _)| dp == 2));
        assert!(!cands.iter().any(|&(dp, _, _)| dp == 4));
    }

    #[test]
    fn overlap_awareness_reduces_predicted_time() {
        let c = ctx();
        let aware = SearchSpace::mist();
        let unaware = SearchSpace {
            overlap_aware: false,
            ..SearchSpace::mist()
        };
        let mesh = DeviceMesh::new(1, 4);
        let ta = IntraStageTuner::new(&c.model, &c.cluster, &c.db, &aware, &c.interference, 8);
        let tu = IntraStageTuner::new(&c.model, &c.cluster, &c.db, &unaware, &c.interference, 8);
        let fa = ta.frontiers(key(mesh, 4), 32);
        let fu = tu.frontiers(key(mesh, 4), 32);
        let best_a = fa[31].first().map(|p| p.t).unwrap();
        let best_u = fu[31].first().map(|p| p.t).unwrap();
        assert!(
            best_a <= best_u + 1e-12,
            "overlap-aware t must not be worse"
        );
    }
}

#[cfg(test)]
mod pruning_tests {
    use super::*;
    use mist_hardware::{GpuSpec, Platform};
    use mist_models::{gpt3, AttentionImpl, ModelSize};

    /// Validates the minimal-checkpoint pruning: enumerating every ckpt
    /// value exhaustively never finds a feasible configuration with a
    /// better stable time than the analytically resolved minimal ckpt.
    #[test]
    fn minimal_ckpt_pruning_is_lossless() {
        let model = gpt3(ModelSize::B2_6, 2048, AttentionImpl::Flash);
        let cluster = ClusterSpec::for_gpu_count(Platform::GcpL4, 4);
        let db = OpCostDb::new(GpuSpec::l4());
        let intf = InterferenceModel::pcie_defaults();
        let space = SearchSpace {
            // Offloading off so ckpt is the only memory lever (the pruning
            // argument assumes ckpt does not reduce other stream traffic).
            offload_grid: vec![],
            offload_enabled: [false; 4],
            ..SearchSpace::mist()
        };
        let budget = 10e9; // Tight enough to force recomputation.
        let tuner =
            IntraStageTuner::new(&model, &cluster, &db, &space, &intf, 8).with_budget(budget);
        let mesh = DeviceMesh::new(1, 4);
        let key = FrontierKey {
            mesh,
            role: StageRole::Only,
            inflight: 1,
            grad_accum: 4,
        };
        let frontier = tuner.frontiers(key, 32);

        // Exhaustive reference over every (dp, tp, zero, ckpt).
        for l in [16u32, 32] {
            let Some(best_pruned) = frontier[(l - 1) as usize].first() else {
                continue;
            };
            let mut best_exhaustive = f64::INFINITY;
            for (dp, tp, b) in tuner.parallelism_options(mesh, 4) {
                let cand = StageCandidate {
                    mesh,
                    dp,
                    tp,
                    micro_batch: b,
                    role: StageRole::Only,
                };
                for zero in 0..=3u8 {
                    for ckpt in 0..=l {
                        let cfg = StageConfigValues {
                            layers: l,
                            ckpt,
                            zero,
                            wo: 0.0,
                            go: 0.0,
                            oo: 0.0,
                            ao: 0.0,
                            inflight: 1,
                        };
                        let p = tuner.evaluate_config(&cand, &cfg);
                        if p.mem_peak <= budget {
                            best_exhaustive = best_exhaustive.min(p.t);
                        }
                    }
                }
            }
            assert!(
                best_pruned.t <= best_exhaustive + 1e-9,
                "l={l}: pruned best {} vs exhaustive {}",
                best_pruned.t,
                best_exhaustive
            );
        }
    }
}
