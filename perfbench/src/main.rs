//! `glc-perfbench`: the repository benchmark.
//!
//! ```text
//! glc-perfbench --workload <paper_catalog|analyze_bulk|service_sessions>
//!               --seed N --seconds S --trace 0|1
//!               [--serve PATH --worker PATH] [--scratch DIR]
//! ```
//!
//! Every input derives from `--seed`; every output is checked. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones,
//! measured untraced; every workload reports the same ones, each for its
//! own unit of work. With `--trace 1` they are the per-layer ones from a
//! separate traced run: the workload's own path for `--seconds`, then a
//! minimum-size traced run of each other workload, so every traced run
//! reports every layer. See `README.md` beside this crate for what each
//! workload loads and predicts.

mod bulk;
mod paper;
mod service;
mod stats;
mod tracer;

use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve: Option<PathBuf>,
    pub worker: Option<PathBuf>,
    /// Directory for spill snapshots and span dumps.
    pub scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        serve: None,
        worker: None,
        scratch: PathBuf::from(".bench_build/perfbench-scratch"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
                }
            }
            "--serve" => args.serve = Some(PathBuf::from(value()?)),
            "--worker" => args.worker = Some(PathBuf::from(value()?)),
            "--scratch" => args.scratch = PathBuf::from(value()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a per-layer metric derived from spans the workload must
    /// have recorded. `None` (a span that never ran, e.g. after a
    /// rename) is a failed check and reads NaN, so the run is not
    /// `correct`, rather than passing for a layer that got faster.
    pub fn layer(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        self.check(value.is_some(), || format!("no spans recorded for {name}"));
        self.metric(name, value.unwrap_or(f64::NAN), unit);
    }

    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Share of the checks so far that passed; NaN before any.
    pub fn passed_share(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }

    /// Adds another run's checks, and each of its metrics this outcome
    /// does not report yet.
    fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for metric in other.metrics {
            if !self.metrics.iter().any(|m| m.name == metric.name) {
                self.metrics.push(metric);
            }
        }
    }
}

/// Input-count classes of the `analyze_bulk` datasets.
pub const BULK_CLASSES: [usize; 6] = [1, 2, 3, 4, 8, 12];

/// Analyzer stage timings, reported overall and per input-count class.
pub const CORE_STAGES: [&str; 7] = [
    "core.digitize_s",
    "core.cases_s",
    "core.variation_s",
    "core.filters_s",
    "core.expr_s",
    "core.analyze_s",
    "core.verify_s",
];

/// SplitMix64 finalizer: derives independent seeds from the workload
/// seed and a path of indices.
pub fn derive_seed(seed: u64, path: &[u64]) -> u64 {
    let mut state = seed ^ 0x6a09_e667_f3bc_c908;
    for &part in path {
        state =
            state.wrapping_add(0x9e37_79b9_7f4a_7c15 ^ part.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        state = z ^ (z >> 31);
    }
    state
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

fn render(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let correct = outcome.failed == 0
        && outcome.attempted > 0
        && outcome.metrics.iter().all(|m| m.value.is_finite());
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Every workload; a traced run of one also runs the others.
const WORKLOADS: [&str; 3] = ["paper_catalog", "analyze_bulk", "service_sessions"];

/// `--seconds` of the other workloads inside a traced run. Each still
/// makes the passes or rounds its layer metrics need at least.
const PROBE_SECONDS: f64 = 1.0;

fn run_workload(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "paper_catalog" => paper::run(args),
        "analyze_bulk" => bulk::run(args),
        "service_sessions" => service::run(args),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The traced run: the workload's own path for `--seconds`, then each
/// other workload at minimum size, so that every layer is reported.
/// Where two paths report the same metric, the workload's own stands.
fn run_traced(args: &Args) -> Result<Outcome, String> {
    let mut outcome = run_workload(args)?;
    for other in WORKLOADS.into_iter().filter(|w| *w != args.workload) {
        let probe = Args {
            workload: other.to_string(),
            seconds: PROBE_SECONDS,
            ..args.clone()
        };
        outcome.absorb(run_workload(&probe)?);
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("glc-perfbench: {err}");
            return ExitCode::FAILURE;
        }
    };
    let result = if args.trace {
        run_traced(&args)
    } else {
        run_workload(&args)
    };
    match result {
        Ok(outcome) => {
            for m in &outcome.metrics {
                eprintln!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
            }
            eprintln!(
                "workload {} seed {} trace {}: attempted {} failed {}",
                args.workload,
                args.seed,
                u8::from(args.trace),
                outcome.attempted,
                outcome.failed
            );
            println!(
                "workload {} seed {} seconds {} trace {}",
                args.workload,
                args.seed,
                args.seconds,
                u8::from(args.trace)
            );
            println!("{}", render(&outcome));
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("glc-perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}
