//! The `service-mix` workload: the real planner daemon with a
//! file-backed cache, driven over a Unix socket by one closed-loop
//! client, plus the in-process replay of the planner's layers that the
//! traced runs use.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use mist::{simulate, GroundTruth, IterationSchedule, Platform, StagePoint, TrainingPlan};
use mist_service::{canonical_fingerprint, sha256_hex, CacheEntry, PlanCache, PlannerService};
use serde::Value;

use crate::stats::{median, pin_to_one_cpu, secs, vm_hwm_mb, windowed_quantile, Rng};
use crate::trace::Tracer;
use crate::tune;
use crate::workload::{field, result_digest, Expected, Query, TuneSpec, MIX_BATCHES, MIX_MODELS};
use crate::Report;

/// Exact hits per round.
const HITS_PER_ROUND: usize = 500;
/// Fewest daemon restarts per run; `setup_s` is their median.
const MIN_RESTARTS: usize = 3;
/// Daemon pool threads: one, so the daemon and its client share one CPU
/// (see `run_timed`).
const DAEMON_THREADS: usize = 1;
/// Repetitions of each cache operation the traced run times.
const CACHE_OP_REPS: usize = 3;

/// A scratch directory inside the checkout, removed when dropped.
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn create(name: &str) -> RunDir {
        let dir = Path::new(".bench_run").join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("cannot create the run directory");
        RunDir(dir)
    }

    pub fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        // Leave `.bench_run` itself only if another run still uses it.
        std::fs::remove_dir(".bench_run").ok();
    }
}

/// How the planner should answer a query of the round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    Warm,
    Cold,
}

impl Kind {
    fn source(self) -> &'static str {
        match self {
            Kind::Hit => "hit",
            Kind::Warm => "warm",
            Kind::Cold => "cold",
        }
    }
}

/// The query whose served plan gives `plan_samples_per_s`: the
/// tune-6.7b workload's query, the first (cold) exhaustive 6.7B miss of
/// every round.
fn reference() -> Query {
    TuneSpec::named("tune-6.7b").expect("known").query()
}

/// The warm-up query, the same for every seed. Its entry is the whole
/// cache the restarted daemon loads: `PlanCache::open` is quadratic in
/// an entry's line length (a 0.6 MB entry takes seconds, a 5.3 MB
/// GPT-3 6.7B entry minutes), so a larger warm-up cache would not load
/// within one run.
fn warmup() -> Query {
    Query {
        model: MIX_MODELS[0],
        batch: 16,
        budget_16g: false,
        interactive: true,
    }
}

/// One round's request sequence, drawn from the run's seeded
/// generator; each round runs on a daemon restarted from the warm-up
/// cache, and every round has the same composition.
///
/// The misses come in a fixed order, per model: the exhaustive family
/// opens cold at batch 16, then one interactive query, then an
/// exhaustive warm start at another batch. The interactive query is a
/// cold tune (any batch and budget) except on 1.3B, where the warm-up
/// entry is its family donor and it is a warm start at another batch
/// under the default budget. (Whether a warm start reuses a donor
/// across budgets depends on the donor's memory proof, which the
/// generator cannot predict, so 16 GiB appears only on cold openers.)
/// The generator draws those batches and budgets afresh for every
/// round, where the misses fall among the hits, and which answered
/// query each hit repeats. The miss order is fixed because each miss
/// re-saves the whole cache file, so a miss's latency depends on how
/// many entries precede it.
fn round(rng: &mut Rng) -> Vec<(Query, Kind)> {
    let later_batches = &MIX_BATCHES[1..];
    let mut misses = Vec::new();
    for (i, model) in MIX_MODELS.into_iter().enumerate() {
        let exhaustive = |batch| Query {
            model,
            batch,
            budget_16g: false,
            interactive: false,
        };
        misses.push((exhaustive(16), Kind::Cold));
        misses.push(if i == 0 {
            (
                Query {
                    model,
                    batch: later_batches[rng.below(later_batches.len())],
                    budget_16g: false,
                    interactive: true,
                },
                Kind::Warm,
            )
        } else {
            (
                Query {
                    model,
                    batch: MIX_BATCHES[rng.below(MIX_BATCHES.len())],
                    budget_16g: rng.below(2) == 1,
                    interactive: true,
                },
                Kind::Cold,
            )
        });
        misses.push((
            exhaustive(later_batches[rng.below(later_batches.len())]),
            Kind::Warm,
        ));
    }
    let mut slots: Vec<bool> = vec![true; misses.len()];
    slots.extend(std::iter::repeat_n(false, HITS_PER_ROUND));
    rng.shuffle(&mut slots);
    let mut misses = misses.into_iter();
    let mut answered = vec![warmup()];
    let mut seq = Vec::with_capacity(slots.len());
    for is_miss in slots {
        if is_miss {
            let miss = misses.next().expect("one slot per miss");
            answered.push(miss.0);
            seq.push(miss);
        } else {
            seq.push((answered[rng.below(answered.len())], Kind::Hit));
        }
    }
    seq
}

fn composition(seq: &[(Query, Kind)]) -> [usize; 3] {
    let count = |k| seq.iter().filter(|(_, kind)| *kind == k).count();
    [count(Kind::Hit), count(Kind::Warm), count(Kind::Cold)]
}

fn sequence_digest(seq: &[(Query, Kind)]) -> String {
    let text: Vec<String> = seq
        .iter()
        .map(|(q, k)| format!("{}={}", q.key(), k.source()))
        .collect();
    sha256_hex(text.join("\n").as_bytes())
}

/// Parses one reply line.
pub fn parse_reply(line: &str) -> Value {
    serde_json::from_str(line).unwrap_or(Value::Null)
}

/// Checks one planner reply: `ok`, the expected `work.source` (any
/// source when `source` is empty), a feasible `result`, and `check` on
/// that result. Counts one operation; returns the result when every
/// check passed.
pub fn checked_result(
    report: &mut Report,
    reply: &Value,
    source: &str,
    check: impl FnOnce(&Value) -> bool,
) -> Option<Value> {
    let ok = field(reply, "ok") == Some(&Value::Bool(true));
    let got = field(reply, "work").and_then(|w| field(w, "source"));
    let source_ok = source.is_empty() || got == Some(&Value::Str(source.to_owned()));
    let result = field(reply, "result")
        .filter(|r| field(r, "feasible") == Some(&Value::Bool(true)))
        .filter(|_| ok && source_ok);
    let passed = result.is_some_and(check);
    report.check(passed, || {
        let text = serde_json::to_string(reply).unwrap_or_default();
        let cut = text.char_indices().nth(300).map_or(text.len(), |(i, _)| i);
        format!(
            "reply (expected source `{source}`, got {got:?}): {}",
            &text[..cut]
        )
    });
    if passed {
        result.cloned()
    } else {
        None
    }
}

/// The plan digest (as `workload::outcome_digest` computes it) of a
/// planner reply's `result`.
pub fn reply_plan_digest(result: &Value) -> Option<String> {
    let plan = serde_json::to_string(field(result, "plan")?).ok()?;
    let predicted = field(result, "predicted_iteration_s")?.as_f64()?;
    Some(format!(
        "{}:{:016x}",
        sha256_hex(plan.as_bytes()),
        predicted.to_bits()
    ))
}

/// Simulated throughput of the plan a reply serves.
fn served_throughput(result: &Value) -> Option<f64> {
    let plan: TrainingPlan = serde::Deserialize::from_value(field(result, "plan")?).ok()?;
    let points: Vec<StagePoint> =
        serde::Deserialize::from_value(field(result, "stage_points")?).ok()?;
    let report = simulate(
        &IterationSchedule::from_points(plan.grad_accum, &points),
        &GroundTruth::for_platform(Platform::GcpL4),
    );
    Some(report.throughput(plan.global_batch))
}

/// A running daemon: `perfbench serve`, i.e. `mist-cli serve`.
struct Daemon {
    child: Child,
}

impl Daemon {
    /// Starts the daemon (with a file-backed cache when `cache` is
    /// given) and waits for its `READY` line.
    fn start(sock: &Path, cache: Option<&Path>, threads: usize) -> Daemon {
        let exe = std::env::current_exe().expect("current executable path");
        let mut cmd = Command::new(exe);
        cmd.args(["serve", "--listen"]).arg(sock);
        if let Some(cache) = cache {
            cmd.arg("--cache").arg(cache);
        }
        let mut child = cmd
            .args(["--threads", &threads.to_string()])
            .stdout(Stdio::piped())
            .spawn()
            .expect("cannot start the daemon");
        let mut line = String::new();
        let read = BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
        let daemon = Daemon { child };
        // Dropping `daemon` on the panic path stops the child.
        assert!(
            read.is_ok() && line.starts_with("READY"),
            "daemon did not get ready: {line:?}"
        );
        daemon
    }

    fn peak_rss_mb(&self) -> f64 {
        vm_hwm_mb(self.child.id()).unwrap_or(0.0)
    }

    fn stop(mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

/// One closed-loop client connection.
struct Client {
    reader: BufReader<UnixStream>,
}

impl Client {
    fn connect(sock: &Path) -> Client {
        let stream = UnixStream::connect(sock).expect("cannot connect to the daemon");
        Client {
            reader: BufReader::new(stream),
        }
    }

    /// Sends one request and waits for its reply line; returns the
    /// reply and the client-side latency.
    fn call(&mut self, line: &str) -> (String, f64) {
        let t0 = Instant::now();
        let stream = self.reader.get_mut();
        stream.write_all(line.as_bytes()).expect("request write");
        stream.write_all(b"\n").expect("request write");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("reply read");
        (reply, secs(t0))
    }
}

/// Tracks the first answer per query and checks every later one
/// against it and against the committed digest.
struct Answers<'a> {
    expected: &'a Expected,
    first: BTreeMap<String, String>,
}

impl<'a> Answers<'a> {
    fn new(expected: &'a Expected) -> Self {
        Answers {
            expected,
            first: BTreeMap::new(),
        }
    }

    fn check(
        &mut self,
        report: &mut Report,
        q: &Query,
        reply: &Value,
        source: &str,
    ) -> Option<Value> {
        let key = q.key();
        let expected = self.expected;
        let first = &mut self.first;
        checked_result(report, reply, source, |result| {
            let text = serde_json::to_string(result).expect("result serializes");
            let same_as_first = *first.entry(key.clone()).or_insert_with(|| text.clone()) == text;
            same_as_first && expected.matches(&key, &result_digest(result))
        })
    }
}

pub fn run(expected: &Expected, seed: u64, seconds: f64, trace: bool) -> Report {
    let run_dir = RunDir::create("service-mix");
    let mut report = Report::default();
    let first_rounds = |seed| {
        let mut rng = Rng::new(seed);
        let rounds: Vec<_> = (0..2).map(|_| round(&mut rng)).collect();
        rounds
            .iter()
            .map(|r| sequence_digest(r))
            .collect::<Vec<_>>()
    };
    let digests = first_rounds(seed);
    report.check(digests == first_rounds(seed), || {
        "service-mix: the generator is not deterministic".into()
    });
    let seq = round(&mut Rng::new(seed));
    let [hits, warm, cold] = composition(&seq);
    eprintln!(
        "service-mix: seed {seed}: per round {} queries: {hits} hits, {warm} warm, {cold} cold \
         (rounds 1-2: {}, {})",
        seq.len(),
        &digests[0][..16],
        &digests[1][..16]
    );
    if trace {
        run_traced(&mut report, &run_dir, expected, &seq, seed, seconds);
    } else {
        run_timed(&mut report, &run_dir, expected, seed, seconds);
    }
    report
}

fn tune_secs(reply: &Value) -> Option<f64> {
    let stats = field(reply, "work").and_then(|w| field(w, "stats"))?;
    field(stats, "elapsed_secs").and_then(Value::as_f64)
}

fn run_timed(report: &mut Report, dir: &RunDir, expected: &Expected, seed: u64, seconds: f64) {
    let (sock, base, cache) = (
        dir.path("d.sock"),
        dir.path("warmup.jsonl"),
        dir.path("cache.jsonl"),
    );
    // The client and every daemon it starts run on one CPU. A request
    // then hands the CPU straight to the daemon and the reply hands it
    // back; across two vCPUs each hand-off waits for the host to
    // reschedule a halted vCPU, which on a shared host delays about one
    // hit in ten by milliseconds and makes the tail measure the host.
    match pin_to_one_cpu() {
        Some(cpu) => eprintln!("service-mix: client and daemon pinned to CPU {cpu}"),
        None => eprintln!("note: cannot pin to one CPU; hit latency includes cross-CPU wake-ups"),
    }
    let mut answers = Answers::new(expected);
    {
        let daemon = Daemon::start(&sock, Some(&base), DAEMON_THREADS);
        let (reply, _) = Client::connect(&sock).call(&warmup().request_line());
        answers.check(report, &warmup(), &parse_reply(&reply), "cold");
        daemon.stop();
    }
    let bytes = std::fs::metadata(&base).map(|m| m.len()).unwrap_or(0);
    eprintln!("service-mix: cache after warm-up: 1 entry, {bytes} bytes");

    let (mut setup, mut hit_lat, mut miss_lat, mut tune_s) = (vec![], vec![], vec![], vec![]);
    let (mut queries, mut loop_s, mut rss) = (0usize, 0.0, Vec::new());
    let mut composition_sum = [0usize; 3];
    let mut plan_tput = None;
    let mut rng = Rng::new(seed);
    let t_run = Instant::now();
    while rss.is_empty() || secs(t_run) < seconds {
        let seq = round(&mut rng);
        std::fs::copy(&base, &cache).expect("restore the warm-up cache");
        let t0 = Instant::now();
        let daemon = Daemon::start(&sock, Some(&cache), DAEMON_THREADS);
        setup.push(secs(t0));
        let mut client = Client::connect(&sock);
        let mut round_hits = Vec::with_capacity(HITS_PER_ROUND);
        let t_loop = Instant::now();
        let replies: Vec<(String, f64)> = seq
            .iter()
            .map(|(q, _)| client.call(&q.request_line()))
            .collect();
        loop_s += secs(t_loop);
        rss.push(daemon.peak_rss_mb());
        drop(client);
        daemon.stop();
        // Replies are checked after the round, so parsing them never
        // delays the next request.
        for ((q, kind), (line, dt)) in seq.iter().zip(replies) {
            let reply = parse_reply(&line);
            let result = answers.check(report, q, &reply, kind.source());
            if *kind == Kind::Hit {
                round_hits.push(dt);
            } else {
                miss_lat.push(dt);
            }
            if *kind == Kind::Cold {
                tune_s.extend(tune_secs(&reply));
            }
            if plan_tput.is_none() && *q == reference() {
                plan_tput = result.as_ref().and_then(served_throughput);
            }
        }
        hit_lat.push(round_hits);
        queries += seq.len();
        for (sum, n) in composition_sum.iter_mut().zip(composition(&seq)) {
            *sum += n;
        }
    }
    while setup.len() < MIN_RESTARTS {
        std::fs::copy(&base, &cache).expect("restore the warm-up cache");
        let t0 = Instant::now();
        let daemon = Daemon::start(&sock, Some(&cache), DAEMON_THREADS);
        setup.push(secs(t0));
        daemon.stop();
    }
    let [h, w, c] = composition_sum;
    eprintln!(
        "service-mix: {} round(s): {h} hits, {w} warm, {c} cold; {queries} queries in \
         {loop_s:.2} s; restarts {:?} s",
        rss.len(),
        setup
    );
    if plan_tput.is_none() {
        report.fail_counted("service-mix: no plan served for the reference query".into());
    }
    if tune_s.is_empty() {
        report.fail_counted("service-mix: no cold miss reported its tune time".into());
        tune_s.push(f64::MIN_POSITIVE);
    }
    report.metric("setup_s", median(&setup), "s");
    report.metric("tune_p50_s", median(&tune_s), "s");
    report.metric(
        "plan_samples_per_s",
        plan_tput.unwrap_or(f64::MIN_POSITIVE),
        "samples/s",
    );
    report.metric("peak_rss_mb", median(&rss), "MB");
    report.metric("hit_p50_ms", windowed_quantile(&hit_lat, 0.5) * 1e3, "ms");
    report.metric("hit_p90_ms", windowed_quantile(&hit_lat, 0.9) * 1e3, "ms");
    report.metric("miss_p50_s", median(&miss_lat), "s");
    report.metric("queries_per_s", queries as f64 / loop_s, "1/s");
}

/// Service-layer numbers of a traced run.
pub struct ServiceLayers {
    fingerprint_us: f64,
    lookup_us: f64,
    save_s: f64,
    bytes: u64,
    load_s: f64,
    hit_frac: f64,
    warm_frac: f64,
    warm_saving: f64,
}

impl ServiceLayers {
    pub fn report(&self, report: &mut Report) {
        report.metric("service.fingerprint_us", self.fingerprint_us, "us");
        report.metric("service.cache_lookup_us", self.lookup_us, "us");
        report.metric("service.cache_save_s", self.save_s, "s");
        report.metric("service.cache_bytes", self.bytes as f64, "bytes");
        report.metric("service.cache_load_s", self.load_s, "s");
        report.metric("service.hit_frac", self.hit_frac, "frac");
        report.metric("service.warm_frac", self.warm_frac, "frac");
        report.metric("service.warm_config_saving_frac", self.warm_saving, "frac");
    }
}

/// The warm-up cache, built in process: returns its file.
fn build_warmup(
    report: &mut Report,
    tracer: &mut Tracer,
    answers: &mut Answers,
    dir: &RunDir,
) -> PathBuf {
    let base = dir.path("warmup.jsonl");
    let planner = PlannerService::new(PlanCache::open(&base).expect("a missing file is empty"));
    tracer.next_request();
    let (reply, _) = tracer.span("service.plan", "service", |_| {
        planner.plan(&warmup().request())
    });
    answers.check(report, &warmup(), &reply, "cold");
    base
}

/// Times `PlanCache::open` and `PlanCache::save` on copies of the cache
/// file at `path`. Returns the median load and save seconds, the file
/// size, and the last loaded cache.
fn time_cache_io(tracer: &mut Tracer, dir: &RunDir, path: &Path) -> (f64, f64, u64, PlanCache) {
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    let copy = dir.path("io-copy.jsonl");
    std::fs::copy(path, &copy).expect("copy the cache file");
    let (mut load, mut save, mut last) = (Vec::new(), Vec::new(), None);
    for _ in 0..CACHE_OP_REPS {
        let (cache, dt) = tracer.span("service.cache_open", "service", |_| {
            PlanCache::open(&copy).expect("cache file loads")
        });
        load.push(dt);
        let (saved, dt) = tracer.span("service.cache_save", "service", |_| cache.save());
        saved.expect("cache saves");
        save.push(dt);
        last = Some(cache);
    }
    (
        median(&load),
        median(&save),
        bytes,
        last.expect("at least one repetition"),
    )
}

/// Times `canonical_fingerprint` on `q`'s material and
/// `PlanCache::lookup` in `cache`; returns microseconds.
fn time_lookup(tracer: &mut Tracer, cache: &PlanCache, q: &Query) -> (f64, f64) {
    let material = q.fingerprint_material();
    let (fp, fp_s) = tracer.span("service.fingerprint", "service", |_| {
        canonical_fingerprint(std::hint::black_box(&material))
    });
    let (_, lookup_s) = tracer.span("service.cache_lookup", "service", |_| {
        std::hint::black_box(cache.lookup(std::hint::black_box(&fp)).is_some())
    });
    (fp_s * 1e6, lookup_s * 1e6)
}

fn configs_of(reply: &Value) -> u64 {
    field(reply, "work")
        .and_then(|w| field(w, "configs_evaluated"))
        .and_then(Value::as_i64)
        .unwrap_or(0) as u64
}

/// Service layers of a tune workload: the workload's query answered by
/// an in-process planner, cold and then as exact hits, with the cache
/// file operations timed on the service-mix warm-up cache (a cache
/// holding the workload's own entry would take minutes to load).
pub fn single_query_layers(
    report: &mut Report,
    tracer: &mut Tracer,
    dir: &RunDir,
    spec: &TuneSpec,
    expected: &Expected,
) -> ServiceLayers {
    let q = spec.query();
    let mut answers = Answers::new(expected);
    let base = build_warmup(report, tracer, &mut answers, dir);
    let (load_s, save_s, bytes, cache) = time_cache_io(tracer, dir, &base);

    let planner = PlannerService::new(PlanCache::in_memory());
    tracer.next_request();
    let (reply, _) = tracer.span("service.plan", "service", |_| planner.plan(&q.request()));
    let first = checked_result(report, &reply, "cold", |r| {
        reply_plan_digest(r).is_some_and(|d| expected.matches(spec.name, &d))
    });
    let (mut fp, mut lookup) = (Vec::new(), Vec::new());
    let hits = 50;
    for _ in 0..hits {
        tracer.next_request();
        let (f, l) = time_lookup(tracer, &cache, &q);
        fp.push(f);
        lookup.push(l);
        let (reply, _) = tracer.span("service.plan", "service", |_| planner.plan(&q.request()));
        checked_result(report, &reply, "hit", |r| Some(r) == first.as_ref());
    }
    ServiceLayers {
        fingerprint_us: median(&fp),
        lookup_us: median(&lookup),
        save_s,
        bytes,
        load_s,
        hit_frac: hits as f64 / (hits + 1) as f64,
        warm_frac: 0.0,
        warm_saving: 0.0,
    }
}

fn run_traced(
    report: &mut Report,
    dir: &RunDir,
    expected: &Expected,
    seq: &[(Query, Kind)],
    seed: u64,
    seconds: f64,
) {
    let mut tracer = Tracer::new();
    mist_pool::set_global_threads(DAEMON_THREADS);

    // The tuner's layers, measured on the mix's reference query (its
    // largest cold tune).
    let spec = TuneSpec::named("tune-6.7b").expect("known");
    tune::traced_tuner_layers(report, &mut tracer, &spec, expected, seconds / 2.0);

    // The warm-up and one round of the same request sequence, in
    // process, on a planner whose cache was loaded from the warm-up
    // file like the restarted daemon's.
    let mut answers = Answers::new(expected);
    let base = build_warmup(report, &mut tracer, &mut answers, dir);
    let (load_s, save_s, bytes, cache) = time_cache_io(&mut tracer, dir, &base);
    // Lookups are timed on an in-memory mirror that grows by one entry
    // per miss, as the planner's cache does.
    let donor = cache
        .lookup(&warmup().fingerprint())
        .cloned()
        .expect("the warm-up entry is cached");
    let mut mirror = PlanCache::in_memory();
    mirror.insert(donor.clone());
    let planner = PlannerService::new(cache);
    let (mut fp, mut lookup) = (Vec::new(), Vec::new());
    let (mut warm_configs, mut cold_configs) = (0u64, 0u64);
    for (q, kind) in seq {
        tracer.next_request();
        let (f, l) = time_lookup(&mut tracer, &mirror, q);
        fp.push(f);
        lookup.push(l);
        let (reply, _) = tracer.span("service.plan", "service", |_| planner.plan(&q.request()));
        let result = answers.check(report, q, &reply, kind.source());
        if *kind != Kind::Hit {
            mirror.insert(CacheEntry {
                exact: q.fingerprint(),
                ..donor.clone()
            });
        }
        if *kind == Kind::Warm {
            // The same query tuned cold, without the cache: its result
            // must match the warm start's, and its work is the base of
            // the warm start's saving.
            let mut cold_req = q.request();
            cold_req.no_cache = true;
            let (cold, _) = tracer.span("service.plan", "service", |_| planner.plan(&cold_req));
            checked_result(report, &cold, "cold", |r| Some(r) == result.as_ref());
            warm_configs += configs_of(&reply);
            cold_configs += configs_of(&cold);
        }
    }
    let [hits, warm, cold] = composition(seq);
    ServiceLayers {
        fingerprint_us: median(&fp),
        lookup_us: median(&lookup),
        save_s,
        bytes,
        load_s,
        hit_frac: hits as f64 / seq.len() as f64,
        warm_frac: warm as f64 / (warm + cold) as f64,
        warm_saving: 1.0 - warm_configs as f64 / cold_configs.max(1) as f64,
    }
    .report(report);
    tune::report_self_times(report, &tracer);
    tune::write_spans(&tracer, "service-mix", seed);
}
