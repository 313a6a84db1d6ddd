//! `analyze_bulk`: Algorithm 1 plus `verify` over large logged
//! datasets — the paper's §IV "significantly large-sized data" claim.
//!
//! Set-up (untimed by the pass metric, reported as `setup_s`) builds
//! six datasets of ~1M samples each: one real paper-protocol trace per
//! input count (`book_not`, `book_and`, `cello_0x1C`), tiled end to
//! end, and synthetic noisy sweeps at n = 4, 8 and 12 whose truth
//! tables, levels, settle delays and glitches are drawn from the
//! workload seed. The timed pass analyzes and verifies all six; the
//! simulator is idle throughout.

use crate::paper::{add_core_metrics, analyze_traced, analyzer_config, run_circuit, write_spans};
use crate::stats::{cpu_timed, describe, fast_sum, median, SplitMix};
use crate::tracer::Tracer;
use crate::{derive_seed, Args, Outcome, BULK_CLASSES, CORE_STAGES};
use glc_core::analyze::AnalyzeError;
use glc_core::data::AnalogData;
use glc_core::{verify, LogicAnalyzer, TruthTable};
use glc_gates::catalog::{self, CircuitEntry};
use std::time::{Duration, Instant};

/// Minterm density of the n = 12 synthetic table.
const DENSITY_N12: f64 = 0.2;

/// Target samples per dataset.
const SAMPLES: usize = 1 << 20;

/// One dataset and the function that generated it.
struct Dataset {
    name: String,
    data: AnalogData,
    expected: TruthTable,
}

/// A real paper-protocol trace of `entry`, tiled to ~[`SAMPLES`]. The
/// first derived seed whose trace verifies is used, so the tiled data
/// carries the intended function.
fn tiled(entry: &CircuitEntry, seed: u64) -> Result<Dataset, String> {
    for attempt in 0..16 {
        let (data, _, verdict) = run_circuit(entry, derive_seed(seed, &[2, attempt]))?;
        if !verdict.equivalent {
            continue;
        }
        let copies = SAMPLES.div_ceil(data.len());
        let tile = |series: &[f64]| -> Vec<f64> {
            let mut out = Vec::with_capacity(series.len() * copies);
            for _ in 0..copies {
                out.extend_from_slice(series);
            }
            out
        };
        let inputs = (0..data.input_count())
            .map(|j| (entry.inputs[j].clone(), tile(data.input(j))))
            .collect();
        let output = (entry.output.clone(), tile(data.output()));
        return Ok(Dataset {
            name: entry.id.clone(),
            data: AnalogData::new(inputs, output).map_err(|e| e.to_string())?,
            expected: entry.expected.clone(),
        });
    }
    Err(format!("{}: no verifying trace in 16 seeds", entry.id))
}

/// A synthetic noisy sweep over all `2^n` combinations in counting
/// order: noisy input levels that never cross the threshold, an output
/// that follows a seeded truth table after a seeded settle delay, and
/// rare glitches, so the filters and the fitness see real variation.
fn synthetic(n: usize, seed: u64) -> Result<Dataset, String> {
    let mut rng = SplitMix::new(derive_seed(seed, &[3, n as u64]));
    let combos = 1usize << n;
    // Dense random tables make wide sets QMC-bound; a sparser table
    // at n = 12 keeps the minimizer a minority of the call. The seed
    // picks which minterms, never how many, so the minimizer's share
    // of a pass varies little from seed to seed.
    let density = if n >= 12 { DENSITY_N12 } else { 0.5 };
    let mut order: Vec<usize> = (0..combos).collect();
    for i in (1..combos).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let count = (density * combos as f64).round() as usize;
    let expected = TruthTable::from_minterms(n, &order[..count]);
    let hold = (SAMPLES / combos).clamp(250, 1000);
    let repeats = SAMPLES.div_ceil(hold * combos);
    let len = hold * combos * repeats;
    let mut inputs: Vec<Vec<f64>> = vec![Vec::with_capacity(len); n];
    let mut output = Vec::with_capacity(len);
    let mut previous = false;
    for _ in 0..repeats {
        for combo in 0..combos {
            let target = expected.value(combo);
            let delay = 5 + (rng.next_u64() % 11) as usize;
            for k in 0..hold {
                for (j, series) in inputs.iter_mut().enumerate() {
                    let high = (combo >> (n - 1 - j)) & 1 == 1;
                    series.push(if high {
                        30.0 + 6.0 * rng.noise()
                    } else {
                        2.0 + 2.0 * rng.noise()
                    });
                }
                let mut level = if k < delay { previous } else { target };
                if rng.unit() < 0.002 {
                    level = !level;
                }
                output.push(if level {
                    28.0 + 8.0 * rng.noise()
                } else {
                    1.0 + rng.noise()
                });
            }
            previous = target;
        }
    }
    let inputs = inputs
        .into_iter()
        .enumerate()
        .map(|(j, s)| (format!("X{j}"), s))
        .collect();
    Ok(Dataset {
        name: format!("synthetic_n{n}"),
        data: AnalogData::new(inputs, ("Y".to_string(), output)).map_err(|e| e.to_string())?,
        expected,
    })
}

fn build(seed: u64, catalog: &[CircuitEntry]) -> Result<Vec<Dataset>, String> {
    let mut sets = Vec::new();
    for id in ["book_not", "book_and", "cello_0x1C"] {
        let entry = catalog
            .iter()
            .find(|e| e.id == id)
            .ok_or(format!("catalog has no {id}"))?;
        sets.push(tiled(entry, seed)?);
    }
    for n in [4, 8, 12] {
        sets.push(synthetic(n, seed)?);
    }
    Ok(sets)
}

/// Checks one analyzed dataset: the extracted minterms are exactly the
/// generating table's, and `verify` agrees.
fn check(outcome: &mut Outcome, set: &Dataset, minterms: &[usize], equivalent: bool) {
    let expected = set.expected.minterms();
    outcome.check(minterms == expected.as_slice() && equivalent, || {
        format!("{}: minterms {minterms:?} != {expected:?}", set.name)
    });
}

/// One untraced pass over every dataset; returns each dataset's seconds
/// on the thread's CPU clock, and the pass's seconds on the wall clock.
fn plain_pass(sets: &[Dataset], outcome: &mut Outcome) -> Result<(Vec<f64>, f64), String> {
    let analyzer = LogicAnalyzer::new(analyzer_config());
    let start = Instant::now();
    let mut cpu = Vec::with_capacity(sets.len());
    for set in sets {
        let (result, seconds) = cpu_timed(|| -> Result<_, AnalyzeError> {
            let report = analyzer.analyze(&set.data)?;
            let verdict = verify(&report, &set.expected);
            Ok((report.minterms, verdict.equivalent))
        });
        let (minterms, equivalent) = result.map_err(|e| format!("{}: {e}", set.name))?;
        check(outcome, set, &minterms, equivalent);
        cpu.push(seconds);
    }
    Ok((cpu, start.elapsed().as_secs_f64()))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let entries = catalog::all();
    let mut setups = Vec::new();
    let mut sets = Vec::new();
    for _ in 0..3 {
        drop(std::mem::take(&mut sets));
        let (built, cpu) = cpu_timed(|| build(args.seed, &entries));
        sets = built?;
        setups.push(cpu);
    }
    let samples: usize = sets.iter().map(|s| s.data.len()).sum();
    for set in &sets {
        eprintln!(
            "  {:<14} n={:<2} samples={} minterms={}",
            set.name,
            set.data.input_count(),
            set.data.len(),
            set.expected.minterms().len()
        );
    }
    if args.trace {
        return traced(args, &sets, samples, outcome);
    }

    // Rates are per second of the thread's CPU clock: the pass is
    // single-threaded, and wall time would also count whatever else
    // had the core.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut dataset_ms: Vec<Vec<f64>> = vec![Vec::new(); sets.len()];
    let (mut cpu_ms, mut wall_rates) = (Vec::new(), Vec::new());
    while cpu_ms.len() < 3 || Instant::now() < deadline {
        let (cpu, wall) = plain_pass(&sets, &mut outcome)?;
        for (times, seconds) in dataset_ms.iter_mut().zip(&cpu) {
            times.push(seconds * 1e3);
        }
        cpu_ms.push(cpu.iter().sum::<f64>() * 1e3);
        wall_rates.push(samples as f64 / wall);
    }
    let verified = outcome.passed_share();
    let fast_pass = fast_sum(&dataset_ms);
    outcome.metric("op_ms_p10", fast_pass, "ms");
    outcome.metric("work_per_s", samples as f64 / (fast_pass / 1e3), "1/s");
    outcome.metric("verified_fraction", verified, "ratio");
    outcome.metric("setup_s", median(&setups), "s");
    eprintln!("analyze_bulk: {} passes of {samples} samples", cpu_ms.len());
    describe("pass CPU ms", &cpu_ms);
    describe("samples per wall s", &wall_rates);
    describe("set-up CPU s", &setups);
    Ok(outcome)
}

/// The traced run: untraced and traced passes alternate; stage times
/// are reported per pass, overall and per input-count class.
fn traced(
    args: &Args,
    sets: &[Dataset],
    samples: usize,
    mut outcome: Outcome,
) -> Result<Outcome, String> {
    let analyzer = LogicAnalyzer::new(analyzer_config());
    let mut tracer = Tracer::new(true);
    for set in sets {
        let reference = analyzer
            .analyze(&set.data)
            .map_err(|e| format!("{}: {e}", set.name))?;
        tracer.set_enabled(false);
        let replay = analyze_traced(&mut tracer, &set.data);
        tracer.set_enabled(true);
        outcome.check(replay == reference, || {
            format!("{}: analyzer replay differs", set.name)
        });
    }
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut pass = 0u64;
    while traced.len() < 2 || Instant::now() < deadline {
        if pass.is_multiple_of(2) {
            plain.push(plain_pass(sets, &mut outcome)?.1);
        } else {
            let start = Instant::now();
            for (d, set) in sets.iter().enumerate() {
                tracer.set_request(pass * 10 + d as u64, set.data.input_count() as u32);
                let report = analyze_traced(&mut tracer, &set.data);
                let verdict = tracer.span("core.verify", || verify(&report, &set.expected));
                check(&mut outcome, set, &report.minterms, verdict.equivalent);
            }
            traced.push(start.elapsed().as_secs_f64());
        }
        pass += 1;
    }
    let passes = traced.len() as f64;
    add_core_metrics(&mut outcome, &tracer, passes);
    for n in BULK_CLASSES {
        for stage in CORE_STAGES {
            let span = stage.trim_end_matches("_s");
            let total = tracer.total_in_class(span, n as u32);
            outcome.layer(&format!("{stage}.n{n}"), total.map(|t| t / passes), "s");
        }
    }
    let pass_wall = traced.iter().sum::<f64>() / passes;
    let core = tracer
        .total("core.analyze")
        .zip(tracer.total("core.verify"));
    outcome.layer(
        "split.core_share",
        core.map(|(a, v)| (a + v) / passes / pass_wall),
        "ratio",
    );
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
    eprintln!(
        "analyze_bulk traced: {samples} samples per pass, {} traced passes",
        traced.len()
    );
    write_spans(args, &tracer);
    Ok(outcome)
}
