//! CI bench-regression gate over `BENCH_ssa.json`.
//!
//! Usage: `check_regression <baseline.json> <current.json>`
//!
//! Both documents parse into `serde::Value` trees: sections of flat rows,
//! each named by its string fields. [`GATES`] is the one list of gates.
//! Absolute rates track the runner's hardware, so a `VsBaseline` gate
//! compares an in-run ratio, which tracks the code; `Floor` and `Ceiling`
//! hold whatever the baseline says. A gate that matches no row fails.

use serde::Value;
use std::process::ExitCode;

/// `VsBaseline`: every baseline row is in the current run with `current /
/// baseline ≥ 1 − bound`. `Floor`: `current ≥ bound`. `Ceiling`: `≤ bound`.
#[derive(Clone, Copy, Debug)]
enum Kind {
    VsBaseline,
    Floor,
    Ceiling,
}
use Kind::{Ceiling, Floor, VsBaseline};

/// `Gate(section, row, metric, kind, bound)` gates `metric` on the rows
/// of `section` whose [`label`] is `row`, or on every row if it is empty.
#[derive(Clone, Copy, Debug)]
struct Gate(&'static str, &'static str, &'static str, Kind, f64);

const EVERY: &str = "";
const BOOK_AND: &str = "circuit=book_and";
const CELLO: &str = "circuit=cello_0x1C";
const BOOK_AND_TAU_LEAP: &str = "circuit=book_and engine=tau-leap";
const CELLO_TAU_LEAP: &str = "circuit=cello_0x1C engine=tau-leap";
const BOOK_AND_LANGEVIN: &str = "circuit=book_and engine=langevin";
const CELLO_LANGEVIN: &str = "circuit=cello_0x1C engine=langevin";

const GATES: &[Gate] = &[
    // What the incremental propensity engine buys over full recompute.
    Gate("results", EVERY, "speedup", VsBaseline, 0.20),
    // Process, socket and thread scheduling on shared runners are noisier
    // than in-process arithmetic, so the fabric ratios get 35%.
    Gate("ensemble", EVERY, "shard_efficiency", VsBaseline, 0.35),
    // The pipelined fabric holds book_and at ≥0.80; 0.75 catches a fall
    // back to per-order spawn-and-recompile. cello_0x1C needs no floor:
    // sharding escapes the in-process memory-bandwidth ceiling (> 1).
    Gate("ensemble", BOOK_AND, "shard_efficiency", Floor, 0.75),
    Gate("relay", EVERY, "relay_efficiency", VsBaseline, 0.35),
    // Relayed cello_0x1C chunks run at in-process speed (the committed
    // baseline reads ~1.0); 0.90 catches a fall back to per-chunk ingress
    // cost.
    Gate("relay", CELLO, "relay_efficiency", Floor, 0.90),
    // Warm Extend ÷ cold one-shot batches: per-batch setup on both sides,
    // so 35% like the fabric ratios.
    Gate("resident", EVERY, "extend_efficiency", VsBaseline, 0.35),
    // The sparse ExactSum swap promised a cached cell ≥5x smaller than the
    // retired dense form; byte counts don't depend on the runner.
    Gate("resident", EVERY, "footprint_ratio", Floor, 5.0),
    // The Hill memo and its batched pre-pass exist only because the
    // memoized sweep beats (or ties) the memo-free per-law sweep: a losing
    // sweep is a regression to fix, not a baseline to ratchet.
    Gate("full_sweep", EVERY, "speedup", Floor, 1.0),
    // Langevin replicate lanes exist because one lane sweep beats LANES
    // scalar sweeps on the states Langevin visits; below 1.5x on
    // cello_0x1C the lanes would not pay for themselves.
    Gate("langevin_lanes", CELLO, "sweep_speedup", Floor, 1.5),
    // Every law of the reference circuits classifies as a shaped kinetic
    // form, so a `General` (VM) law means the form recognizer regressed.
    Gate("lanes", EVERY, "fallback", Ceiling, 0.0),
    // Measured >2x above (~4M steps/s on book_and, ~1.6M on cello_0x1C).
    // Machine-dependent by design: a fall off the vectorized sweep path
    // slows the scalar baseline too, so it hides from any in-run ratio.
    Gate("engines", BOOK_AND_TAU_LEAP, "steps_per_sec", Floor, 1.5e6),
    Gate("engines", CELLO_TAU_LEAP, "steps_per_sec", Floor, 7.5e5),
    // Batched Gaussian draws lifted Langevin from ~1.6M steps/s to ~4.3M /
    // ~3.6M; the floors sit between the scalar-draw and batched rates.
    Gate("engines", BOOK_AND_LANGEVIN, "steps_per_sec", Floor, 2.5e6),
    Gate("engines", CELLO_LANGEVIN, "steps_per_sec", Floor, 2.0e6),
    // The block Box–Muller path exists only because it beats the scalar
    // `standard_normal` reference it replicates bitwise.
    Gate("draws", EVERY, "speedup", Floor, 1.0),
    // A warm Submit runs ~130x the cold path; 2x is far below timing
    // noise but well above "the cache stopped hitting".
    Gate("model_cache", EVERY, "warm_speedup", Floor, 2.0),
    // Measured ~5-17 µs per batch-sized chunk reply; 40 µs catches the
    // decoder falling off its fixed-layout fast path. Machine-dependent.
    Gate("codec", EVERY, "glcb_decode_micros", Ceiling, 40.0),
    // Batch-sized snapshots took ~2800 B when every ExactSum digit was an
    // 8-byte i64 and ~880 B with varint cells; byte counts don't depend
    // on the runner.
    Gate("spill", EVERY, "snapshot_bytes", Ceiling, 3000.0),
];

/// The rows of `section` (none when it is absent) that match `row`.
fn matching<'a>(doc: &'a Value, section: &str, row: &'a str) -> impl Iterator<Item = &'a Value> {
    let rows = match doc.get(section) {
        Some(Value::Array(rows)) => rows.as_slice(),
        _ => &[],
    };
    rows.iter()
        .filter(move |r| row.is_empty() || label(r) == row)
}

/// A row's identity: its string fields, as `field=value` words.
fn label(row: &Value) -> String {
    let Value::Object(fields) = row else {
        return String::new();
    };
    let words = fields.iter().filter_map(|(key, value)| match value {
        Value::Str(value) => Some(format!("{key}={value}")),
        _ => None,
    });
    words.collect::<Vec<_>>().join(" ")
}

/// Evaluates one gate, printing a verdict per row and pushing one
/// message per failing row onto `failures`.
fn apply(gate: &Gate, baseline: &Value, current: &Value, failures: &mut Vec<String>) {
    let Gate(section, row, metric, kind, bound) = *gate;
    let tag = format!("[{section} {metric}]");
    println!("{tag} {kind:?} {bound}");
    // A baseline gate walks the baseline's rows, an absolute one the current's.
    let (source, run) = match kind {
        VsBaseline => (baseline, "baseline"),
        Floor | Ceiling => (current, "current"),
    };
    let mut picked = matching(source, section, row).peekable();
    if picked.peek().is_none() {
        failures.push(format!("{tag}: no row matching {row:?} in the {run} run"));
    }
    let number = |row: Option<&Value>, run: &str| match row.map(|row| row.get(metric)) {
        None => Err(format!("missing from the {run} run")),
        Some(Some(Value::Num(value))) => Ok(*value),
        Some(_) => Err(format!("no {metric} in the {run} run")),
    };
    for picked in picked {
        let id = label(picked);
        let now = matching(current, section, &id).next();
        let verdict = number(now, "current").and_then(|v| {
            // Phrased as "passes" so that a NaN fails every kind.
            let (passes, why) = match kind {
                Floor => (v >= bound, format!("{v} is below the {bound} floor")),
                Ceiling => (v <= bound, format!("{v} is above the {bound} ceiling")),
                VsBaseline => {
                    let base = number(Some(picked), "baseline")?;
                    let drop = (1.0 - v / base) * 100.0;
                    let why = format!("{v} is {drop:.1}% below baseline {base}");
                    (v / base >= 1.0 - bound, why)
                }
            };
            passes.then_some(v).ok_or(why)
        });
        match verdict {
            Ok(value) => println!("  {id}: {value}  ok"),
            Err(why) => {
                println!("  {id}: {why}  FAIL");
                failures.push(format!("{id} {tag}: {why}"));
            }
        }
    }
}

/// Gates `current` against `baseline` on every row of [`GATES`].
fn check(baseline: &Value, current: &Value) -> Result<(), String> {
    let mut failures = Vec::new();
    for gate in GATES {
        apply(gate, baseline, current, &mut failures);
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))?;
    serde_json::from_str(&text).map_err(|err| format!("cannot parse {path}: {err}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline, current] = args.as_slice() else {
        eprintln!("usage: check_regression <baseline.json> <current.json>");
        return ExitCode::FAILURE;
    };
    match load(baseline).and_then(|base| check(&base, &load(current)?)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("bench regression:\n{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed ledger; every test gates an edited copy of it.
    const LEDGER: &str = include_str!("../../../../BENCH_ssa.json");

    fn edited(from: &str, to: &str) -> Value {
        serde_json::from_str(&LEDGER.replace(from, to)).expect("the ledger parses")
    }

    fn ledger() -> Value {
        serde_json::from_str(LEDGER).expect("the ledger parses")
    }

    /// `doc` with `metric` set to `value` (removed, for `None`) on the
    /// rows of `section` that match `row`.
    fn set(doc: &Value, section: &str, row: &str, metric: &str, value: Option<f64>) -> Value {
        let picked: Vec<String> = matching(doc, section, row).map(label).collect();
        let mut doc = doc.clone();
        if let Value::Object(sections) = &mut doc {
            for (_, rows) in sections.iter_mut().filter(|(name, _)| name == section) {
                if let Value::Array(rows) = rows {
                    for row in rows.iter_mut().filter(|r| picked.contains(&label(r))) {
                        if let Value::Object(fields) = row {
                            fields.retain(|(key, _)| key != metric);
                            fields.extend(value.map(|v| (metric.to_string(), Value::Num(v))));
                        }
                    }
                }
            }
        }
        doc
    }

    /// Gating `current` against `baseline` fails, naming `needle`.
    fn fails(baseline: &Value, current: &Value, needle: &str) {
        let err = check(baseline, current).expect_err("the gate must fail");
        assert!(err.contains(needle), "{err}");
    }

    /// Against a baseline of `ok`, `metric` passes at `ok` and fails at `bad`.
    fn crossing(section: &str, row: &str, metric: &str, ok: f64, bad: f64) {
        let at = |value| set(&ledger(), section, row, metric, Some(value));
        check(&at(ok), &at(ok)).expect("passes");
        let needle = format!("[{section} {metric}]: {bad} is");
        fails(&at(ok), &at(bad), &needle);
    }

    /// One `crossing` test per named case: `name: section, row, metric,
    /// ok, bad;`.
    macro_rules! crossing_tests {
        ($($name:ident: $section:expr, $row:expr, $metric:expr, $ok:expr, $bad:expr;)*) => {$(
            #[test]
            fn $name() {
                crossing($section, $row, $metric, $ok, $bad);
            }
        )*};
    }

    crossing_tests! {
        book_and_shard_efficiency_has_an_absolute_floor:
            "ensemble", BOOK_AND, "shard_efficiency", 0.75, 0.74;
        relay_efficiency_is_gated_at_the_shard_floor:
            "relay", BOOK_AND, "relay_efficiency", 1.0, 0.64;
        cello_relay_efficiency_has_an_absolute_floor:
            "relay", CELLO, "relay_efficiency", 0.9, 0.89;
        losing_batched_sweep_fails_absolutely: "full_sweep", EVERY, "speedup", 1.0, 0.99;
        lane_sweep_below_the_go_no_go_fails_absolutely:
            "langevin_lanes", CELLO, "sweep_speedup", 1.5, 1.49;
        vm_fallback_lanes_fail_absolutely: "lanes", EVERY, "fallback", 0.0, 1.0;
        losing_batched_draws_fail_absolutely: "draws", EVERY, "speedup", 1.0, 0.99;
        model_cache_speedup_floor_is_absolute:
            "model_cache", EVERY, "warm_speedup", 2.0, 1.9;
    }

    #[test]
    fn parses_incremental_entries() {
        let doc = ledger();
        let rows: Vec<String> = matching(&doc, "results", EVERY).map(label).collect();
        assert_eq!(rows, ["circuit=book_and", "circuit=cello_0x1C"]);
        assert!(serde_json::from_str::<Value>(&LEDGER[..LEDGER.len() / 2]).is_err());
    }

    #[test]
    fn gate_is_machine_speed_independent() {
        // A runner at half speed halves absolute rates, not in-run ratios.
        let metric = "incremental_steps_per_sec";
        let rate = |value| set(&ledger(), "results", EVERY, metric, Some(value));
        check(&rate(2.0e6), &rate(1.0e6)).expect("a slower runner passes");
        crossing("results", BOOK_AND, "speedup", 2.0, 1.58);
        // A baseline row missing from the current run fails.
        let gone = edited("\"results\"", "\"renamed\"");
        fails(&ledger(), &gone, "cello_0x1C [results speedup]: missing");
    }

    #[test]
    fn ensemble_shard_efficiency_is_gated_too() {
        crossing("ensemble", CELLO, "shard_efficiency", 1.0, 0.64);
        // A baseline without the metric fails rather than skip the gate.
        let old = set(&ledger(), "ensemble", EVERY, "shard_efficiency", None);
        fails(&old, &ledger(), "no shard_efficiency in the baseline");
    }

    #[test]
    fn glcb_decode_ceiling_is_absolute() {
        crossing("codec", EVERY, "glcb_decode_micros", 40.0, 41.0);
        let gone = set(&ledger(), "codec", EVERY, "glcb_decode_micros", None);
        fails(&ledger(), &gone, "no glcb_decode_micros in the current");
    }

    #[test]
    fn glcb_snapshot_gates_are_absolute() {
        crossing("spill", EVERY, "snapshot_bytes", 3000.0, 3001.0);
        let gone = edited("\"spill\"", "\"renamed\"");
        fails(&ledger(), &gone, "[spill snapshot_bytes]: no row");
    }

    #[test]
    fn tau_leap_floor_is_absolute() {
        crossing("engines", CELLO_TAU_LEAP, "steps_per_sec", 7.5e5, 7.4e5);
        // The engine must stay in the bench matrix.
        let gone = edited("tau-leap", "renamed");
        fails(&ledger(), &gone, "engine=tau-leap\" in the current");
    }

    #[test]
    fn langevin_floor_is_absolute() {
        crossing("engines", CELLO_LANGEVIN, "steps_per_sec", 2.0e6, 1.9e6);
        let gone = edited("langevin", "renamed");
        fails(&ledger(), &gone, "engine=langevin\" in the current");
    }

    #[test]
    fn committed_ledger_matches_every_gate_and_passes_itself() {
        check(&ledger(), &ledger()).expect("the committed ledger passes its own gates");
        for gate in GATES {
            let Gate(section, row, metric, kind, bound) = *gate;
            let nudge = bound.abs().max(1.0) * 1e-9;
            // An absolute gate sees the same value in the baseline, so no
            // baseline can excuse it.
            let (base, at, past) = match kind {
                VsBaseline => (Some(1.0), 1.0 - bound, 1.0 - bound - nudge),
                Floor => (None, bound, bound - nudge),
                Ceiling => (None, bound, bound + nudge),
            };
            let failures = |value| {
                let baseline = set(&ledger(), section, row, metric, base.or(Some(value)));
                let current = set(&ledger(), section, row, metric, Some(value));
                let mut failures = Vec::new();
                apply(gate, &baseline, &current, &mut failures);
                failures.len()
            };
            // Zero matching rows would fail the bound itself.
            let rows = matching(&ledger(), section, row).count();
            assert_eq!((failures(at), failures(past)), (0, rows), "{gate:?}");
        }
    }
}
