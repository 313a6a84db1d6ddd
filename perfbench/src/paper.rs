//! `paper_catalog`: the paper's §III evaluation, one 15-circuit pass
//! after another on one thread.
//!
//! Untraced, each circuit runs exactly the user path:
//! `Experiment::run` (paper protocol, Direct SSA) → `LogicAnalyzer::
//! analyze` (threshold 15, FOV_UD 0.25) → `verify` against
//! `entry.expected`. Traced, the same work is replayed through the
//! layers' public parts (`CompiledModel::new`, `ScheduleRunner::run`,
//! the analyzer stage functions) inside spans; set-up checks that the
//! replay is bitwise the same as the one-call path.

use crate::stats::{cpu_timed, describe, fast_sum, median};
use crate::tracer::Tracer;
use crate::{derive_seed, Args, Outcome};
use glc_core::analyze::ComboReport;
use glc_core::boolexpr::combo_string;
use glc_core::cases::CaseAnalysis;
use glc_core::data::AnalogData;
use glc_core::digitize::digitize;
use glc_core::filters::classify;
use glc_core::variation;
use glc_core::{verify, AnalyzerConfig, BoolExpr, LogicAnalyzer, LogicReport, TruthTable, Verdict};
use glc_gates::catalog::{self, CircuitEntry};
use glc_ssa::{CompiledModel, Direct, InputSchedule, ScheduleRunner};
use glc_vasim::{Experiment, ExperimentConfig};
use std::time::{Duration, Instant};

/// The paper's analysis threshold; also the applied input level.
pub const THRESHOLD: f64 = 15.0;
/// The paper's acceptable fraction of variation.
pub const FOV_UD: f64 = 0.25;

pub fn analyzer_config() -> AnalyzerConfig {
    AnalyzerConfig::new(THRESHOLD).fov_ud(FOV_UD)
}

/// Algorithm 1 through its public stage functions, one span per stage
/// (`core.digitize`, `core.cases`, `core.variation`, `core.filters`,
/// `core.expr`) under a `core.analyze` parent. Only the shared-threshold,
/// minimized configuration the benchmark uses is replayed; set-up
/// checks the result equals `LogicAnalyzer::analyze`.
pub fn analyze_traced(tracer: &mut Tracer, data: &AnalogData) -> LogicReport {
    let parent = tracer.open("core.analyze");
    let n = data.input_count();

    let stage = tracer.open("core.digitize");
    let digital_inputs: Vec<Vec<bool>> =
        (0..n).map(|j| digitize(data.input(j), THRESHOLD)).collect();
    let digital_output = digitize(data.output(), THRESHOLD);
    tracer.close(stage);

    let cases = tracer.span("core.cases", || {
        CaseAnalysis::analyze(&digital_inputs, &digital_output)
    });
    let stats = tracer.span("core.variation", || variation::analyze(&cases));

    let (combos, minterms) = tracer.span("core.filters", || {
        let combos: Vec<ComboReport> = stats
            .iter()
            .map(|s| ComboReport {
                combo: s.combo,
                label: combo_string(s.combo, n),
                case_count: s.case_count,
                high_count: s.high_count,
                variation_count: s.variation_count,
                fov_est: s.fov_est(),
                outcome: classify(s, FOV_UD),
            })
            .collect();
        let minterms: Vec<usize> = combos
            .iter()
            .filter(|c| c.outcome.is_high())
            .map(|c| c.combo)
            .collect();
        (combos, minterms)
    });

    let input_names = data.input_names();
    let expression = tracer.span("core.expr", || {
        BoolExpr::minimized(
            input_names.clone(),
            &TruthTable::from_minterms(n, &minterms),
        )
    });

    let penalty: f64 = combos
        .iter()
        .filter(|c| c.outcome.is_high())
        .map(|c| c.fov_est)
        .sum::<f64>()
        / (1usize << n) as f64;
    tracer.count("core.bytes_read", (data.len() * (n + 1) * 8) as u64);
    tracer.count("core.minterms", minterms.len() as u64);
    tracer.count("core.qmc_cubes", expression.terms().len() as u64);
    let report = LogicReport {
        input_names,
        output_name: data.output_name().to_string(),
        combos,
        minterms,
        expression,
        fitness: 100.0 - penalty * 100.0,
    };
    tracer.close(parent);
    report
}

/// The sweep of `Experiment::run` (paper protocol, Direct SSA) through
/// its public parts, under a `vasim.experiment` span with
/// `ssa.compile` and `ssa.simulate_direct` children.
pub fn experiment_traced(
    tracer: &mut Tracer,
    config: &ExperimentConfig,
    entry: &CircuitEntry,
    seed: u64,
) -> Result<AnalogData, String> {
    let parent = tracer.open("vasim.experiment");
    let compiled = tracer
        .span("ssa.compile", || CompiledModel::new(&entry.model))
        .map_err(|e| format!("{}: compile: {e}", entry.id))?;
    let n = entry.inputs.len();
    let slots: Vec<usize> = entry
        .inputs
        .iter()
        .map(|name| {
            compiled
                .species_slot(name)
                .ok_or(format!("{}: no {name}", entry.id))
        })
        .collect::<Result<_, _>>()?;
    let mut schedule = InputSchedule::new();
    let mut t = 0.0;
    for _ in 0..config.repeats {
        for combo in 0..1usize << n {
            for (j, &slot) in slots.iter().enumerate() {
                let high = (combo >> (n - 1 - j)) & 1 == 1;
                let level = if high {
                    config.input_high
                } else {
                    config.input_low
                };
                schedule.set(t, slot, level);
            }
            t += config.hold_time;
        }
    }
    let runner = ScheduleRunner::new(schedule, config.sample_dt).map_err(|e| e.to_string())?;
    let trace = tracer
        .span("ssa.simulate_direct", || {
            runner.run(&compiled, &mut Direct::new(), t, seed)
        })
        .map_err(|e| format!("{}: simulate: {e}", entry.id))?;
    let series = |name: &str| -> Result<Vec<f64>, String> {
        trace
            .series(name)
            .map(<[f64]>::to_vec)
            .ok_or(format!("{}: {name} not recorded", entry.id))
    };
    let inputs = entry
        .inputs
        .iter()
        .map(|name| Ok((name.clone(), series(name)?)))
        .collect::<Result<Vec<_>, String>>()?;
    let output = (entry.output.clone(), series(&entry.output)?);
    let data = AnalogData::new(inputs, output).map_err(|e| e.to_string())?;
    tracer.close(parent);
    Ok(data)
}

/// One circuit through the one-call user path.
pub fn run_circuit(
    entry: &CircuitEntry,
    seed: u64,
) -> Result<(AnalogData, LogicReport, Verdict), String> {
    let config = ExperimentConfig::paper_protocol(entry.inputs.len(), THRESHOLD);
    let result = Experiment::new(config)
        .run(&entry.model, &entry.inputs, &entry.output, seed)
        .map_err(|e| format!("{}: experiment: {e}", entry.id))?;
    let report = LogicAnalyzer::new(analyzer_config())
        .analyze(&result.data)
        .map_err(|e| format!("{}: analyze: {e}", entry.id))?;
    let verdict = verify(&report, &entry.expected);
    Ok((result.data, report, verdict))
}

/// Wrong states known to be seed-marginal under the paper protocol:
/// `book_and` reads its `11` state low in roughly one run in twenty
/// (settle time against the threshold). Such a miss lowers
/// `verified_fraction` but is not a failed operation; any other wrong
/// state is.
const MARGINAL_STATES: &[(&str, &str)] = &[("book_and", "11")];

/// Whether a verdict is acceptable: equivalent, or wrong only in
/// [`MARGINAL_STATES`] of this circuit.
pub fn verdict_ok(entry: &CircuitEntry, verdict: &Verdict) -> bool {
    verdict.wrong_labels().iter().all(|label| {
        MARGINAL_STATES
            .iter()
            .any(|&(id, state)| id == entry.id && state == label)
    })
}

fn circuit_seed(seed: u64, pass: u64, index: usize) -> u64 {
    derive_seed(seed, &[1, pass, index as u64])
}

/// One traced 15-circuit pass; returns the samples it analyzed.
fn traced_pass(
    tracer: &mut Tracer,
    entries: &[CircuitEntry],
    seed: u64,
    pass: u64,
    outcome: &mut Outcome,
) -> Result<usize, String> {
    let mut samples = 0;
    for (i, entry) in entries.iter().enumerate() {
        tracer.set_request(pass * 100 + i as u64, entry.inputs.len() as u32);
        let config = ExperimentConfig::paper_protocol(entry.inputs.len(), THRESHOLD);
        let data = experiment_traced(tracer, &config, entry, circuit_seed(seed, pass, i))?;
        let report = analyze_traced(tracer, &data);
        let verdict = tracer.span("core.verify", || verify(&report, &entry.expected));
        outcome.check(verdict_ok(entry, &verdict), || {
            format!(
                "{}: verdict differs in {:?}",
                entry.id,
                verdict.wrong_labels()
            )
        });
        samples += data.len();
    }
    Ok(samples)
}

/// Set-up samples before the first pass; an untraced run takes one more
/// after each pass. `setup_s` is their median.
const SETUP_SAMPLES: usize = 15;
/// Catalog builds per set-up sample. One build takes well under a
/// millisecond, too short to time alone against scheduler and timer
/// noise, so each sample is the mean of a batch.
const BUILDS_PER_SAMPLE: usize = 40;

/// One set-up sample: [`BUILDS_PER_SAMPLE`] catalog builds on the
/// thread's CPU clock. Returns the last build and the seconds per build.
fn setup_sample(tracer: &mut Tracer) -> (Vec<CircuitEntry>, f64) {
    let mut entries = Vec::new();
    let ((), cpu) = cpu_timed(|| {
        for _ in 0..BUILDS_PER_SAMPLE {
            entries = tracer.span("gates.catalog_build", catalog::all);
        }
    });
    (entries, cpu / BUILDS_PER_SAMPLE as f64)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(args.trace);

    let mut setups = Vec::new();
    let mut entries = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        let (built, seconds) = setup_sample(&mut tracer);
        entries = built;
        setups.push(seconds);
    }

    if args.trace {
        // The traced replay must be the user path, bit for bit.
        let mut probe = Tracer::new(false);
        for (i, entry) in entries.iter().enumerate() {
            let seed = circuit_seed(args.seed, 0, i);
            let (data, report, _) = run_circuit(entry, seed)?;
            let config = ExperimentConfig::paper_protocol(entry.inputs.len(), THRESHOLD);
            let replay = experiment_traced(&mut probe, &config, entry, seed)?;
            outcome.check(replay == data, || {
                format!("{}: experiment replay differs", entry.id)
            });
            let replayed = analyze_traced(&mut probe, &data);
            outcome.check(replayed == report, || {
                format!("{}: analyzer replay differs", entry.id)
            });
        }
        return traced(args, &entries, tracer, outcome);
    }

    // Passes are timed on the thread's CPU clock: the pass is
    // single-threaded, and wall time would also count whatever else
    // had the core.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut circuit_ms: Vec<Vec<f64>> = vec![Vec::new(); entries.len()];
    let (mut cpu_ms, mut wall_times) = (Vec::new(), Vec::new());
    let (mut verified, mut total, mut samples) = (0usize, 0usize, 0usize);
    let mut pass = 0u64;
    while cpu_ms.len() < 3 || Instant::now() < deadline {
        let start = Instant::now();
        let (mut pass_cpu, mut pass_samples) = (0.0, 0);
        for (i, entry) in entries.iter().enumerate() {
            let (run, cpu) = cpu_timed(|| run_circuit(entry, circuit_seed(args.seed, pass, i)));
            let (data, _, verdict) = run?;
            circuit_ms[i].push(cpu * 1e3);
            pass_cpu += cpu;
            pass_samples += data.len();
            outcome.check(verdict_ok(entry, &verdict), || {
                format!(
                    "{} pass {pass}: verdict differs in {:?}",
                    entry.id,
                    verdict.wrong_labels()
                )
            });
            verified += usize::from(verdict.equivalent);
            total += 1;
        }
        wall_times.push(start.elapsed().as_secs_f64());
        cpu_ms.push(pass_cpu * 1e3);
        samples = pass_samples;
        // Set-up samples spread over the run like the passes, so their
        // median sees the same stretches of host speed.
        setups.push(setup_sample(&mut tracer).1);
        pass += 1;
    }
    // The protocol fixes each circuit's sample count, so every pass
    // analyzes the same number of samples.
    let fast_pass = fast_sum(&circuit_ms);
    outcome.metric("op_ms_p10", fast_pass, "ms");
    outcome.metric("work_per_s", samples as f64 / (fast_pass / 1e3), "1/s");
    outcome.metric("verified_fraction", verified as f64 / total as f64, "ratio");
    outcome.metric("setup_s", median(&setups), "s");
    eprintln!("paper_catalog: {} passes", cpu_ms.len());
    describe("pass CPU ms", &cpu_ms);
    describe("pass wall s", &wall_times);
    describe("set-up CPU s", &setups);
    Ok(outcome)
}

/// The traced run: untraced and traced passes alternate, so the
/// difference between their medians is the tracing overhead.
fn traced(
    args: &Args,
    entries: &[CircuitEntry],
    mut tracer: Tracer,
    mut outcome: Outcome,
) -> Result<Outcome, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut samples = 0usize;
    let mut pass = 0u64;
    while traced.len() < 2 || Instant::now() < deadline {
        let start = Instant::now();
        if pass.is_multiple_of(2) {
            for (i, entry) in entries.iter().enumerate() {
                let (_, _, verdict) = run_circuit(entry, circuit_seed(args.seed, pass, i))?;
                outcome.check(verdict_ok(entry, &verdict), || {
                    format!(
                        "{}: verdict differs in {:?}",
                        entry.id,
                        verdict.wrong_labels()
                    )
                });
            }
            plain.push(start.elapsed().as_secs_f64());
        } else {
            let pass_samples = traced_pass(&mut tracer, entries, args.seed, pass, &mut outcome)?;
            samples += pass_samples;
            traced.push(start.elapsed().as_secs_f64());
        }
        pass += 1;
    }
    let passes = traced.len() as f64;
    let per_pass = |name: &str| tracer.total(name).map(|t| t / passes);
    let pass_wall: f64 = traced.iter().sum::<f64>() / passes;

    outcome.layer(
        "gates.catalog_build_s",
        tracer.mean("gates.catalog_build"),
        "s",
    );
    outcome.layer("ssa.compile_s", per_pass("ssa.compile"), "s");
    outcome.layer("vasim.experiment_s", per_pass("vasim.experiment"), "s");
    let simulate = per_pass("ssa.simulate_direct");
    outcome.layer("ssa.simulate_direct_s", simulate, "s");
    outcome.metric("vasim.samples", samples as f64 / passes, "count");
    add_core_metrics(&mut outcome, &tracer, passes);
    outcome.layer(
        "trace.coverage.analyze",
        tracer.coverage("core.analyze"),
        "ratio",
    );
    outcome.metric(
        "trace.overhead",
        median(&traced) / median(&plain) - 1.0,
        "ratio",
    );
    outcome.layer(
        "split.simulate_share",
        simulate.map(|s| s / pass_wall),
        "ratio",
    );
    let core = per_pass("core.analyze").zip(per_pass("core.verify"));
    outcome.layer(
        "split.core_share",
        core.map(|(a, v)| (a + v) / pass_wall),
        "ratio",
    );
    write_spans(args, &tracer);
    Ok(outcome)
}

/// The analyzer stage metrics shared by both paper workloads: stage
/// seconds per pass, and per-pass counts of bytes read, minterms and
/// QMC cubes (counted from the reports the spans produced).
pub fn add_core_metrics(outcome: &mut Outcome, tracer: &Tracer, passes: f64) {
    for stage in crate::CORE_STAGES {
        let span = stage.trim_end_matches("_s");
        outcome.layer(stage, tracer.total(span).map(|t| t / passes), "s");
    }
    for (name, unit) in [
        ("core.bytes_read", "bytes"),
        ("core.minterms", "count"),
        ("core.qmc_cubes", "count"),
    ] {
        let per_pass = tracer.counter(name).map(|c| c as f64 / passes);
        outcome.layer(name, per_pass, unit);
    }
}

/// Writes the spans of a traced run beside the other scratch output.
pub fn write_spans(args: &Args, tracer: &Tracer) {
    let path = args
        .scratch
        .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
    match tracer.write_tsv(&path) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(err) => eprintln!("could not write spans to {}: {err}", path.display()),
    }
}
