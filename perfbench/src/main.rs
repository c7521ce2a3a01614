//! End-to-end and per-layer benchmark of the Mist tuner and planner
//! daemon.
//!
//! ```text
//! perfbench --workload <tune-6.7b|tune-22b-pipeline|service-mix>
//!           --seed <N> --seconds <S> --trace <0|1>
//! perfbench --record-expected      # rewrite perfbench/expected.json
//! perfbench serve <mist-cli serve args>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a
//! separate run that replays the tuner's and the planner's work through
//! each crate's public functions with the benchmark's own spans around
//! every call, and reports per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. `serve` runs the planner daemon exactly as `mist-cli serve`
//! does (the same `mist::cli::run` entry point), so the service workload
//! can start it from this binary.

mod service;
mod stats;
mod trace;
mod tune;
mod workload;

use std::process::ExitCode;

/// Committed digests of every plan the workloads can produce.
const EXPECTED: &str = include_str!("../expected.json");

/// Where `--record-expected` writes, relative to the checkout root.
const EXPECTED_PATH: &str = "perfbench/expected.json";

/// One run's outcome: metrics plus the correctness tally.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(
            !self.metrics.iter().any(|(n, _, _)| n == name),
            "metric {name} reported twice"
        );
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Counts one operation and whether its outputs checked out.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Records a failed check on an operation already counted.
    pub fn fail_counted(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    fn print(&self) {
        for f in &self.failures {
            eprintln!("FAILED: {f}");
        }
        println!(
            "# {:<36} {:>16.6} ({} failed of {} attempted)",
            "error_rate",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for (name, value, unit) in &self.metrics {
            println!("# {name:<36} {value:>16.6} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_f64(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values have no JSON form).
fn json_f64(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    let s = format!("{v:?}");
    s.strip_suffix(".0").map_or(s.clone(), str::to_owned)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds expects a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => return ExitCode::from(mist::cli::run(&argv)),
        Some("--record-expected") => {
            let text = workload::record_expected();
            if let Err(e) = std::fs::write(EXPECTED_PATH, text) {
                eprintln!("perfbench: cannot write {EXPECTED_PATH}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("perfbench: wrote {EXPECTED_PATH}");
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let expected = workload::Expected::parse(EXPECTED);
    let report = match args.workload.as_str() {
        "tune-6.7b" | "tune-22b-pipeline" => {
            let spec = workload::TuneSpec::named(&args.workload).expect("known tune workload");
            tune::run(&spec, &expected, args.seed, args.seconds, args.trace)
        }
        "service-mix" => service::run(&expected, args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    report.print();
    // A failed output check fails the command, after the result line
    // has reported what was attempted and what failed.
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
