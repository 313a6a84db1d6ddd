//! CI bench-regression gate over `BENCH_ssa.json`.
//!
//! Usage: `check_regression <baseline.json> <current.json> [--threshold 0.20]`
//!
//! Gates on the incremental direct-method throughput of every circuit
//! in the committed baseline, **normalized by the full-recompute
//! throughput measured in the same run** — i.e. on the `speedup` column
//! (incremental steps/s ÷ full-recompute steps/s). Absolute steps/s are
//! machine-dependent: a committed baseline benched on a fast developer
//! box would fail every run on a slower shared CI runner (and mask real
//! regressions on a faster one), while the in-run ratio cancels machine
//! speed and isolates what the incremental engine actually buys. The
//! absolute numbers are still printed for the log/artifact trail.
//!
//! Exits non-zero if any circuit's speedup dropped more than
//! `threshold` (default 20%) below its baseline speedup. Improvements
//! and new circuits pass; a circuit present in the baseline but missing
//! from the current run fails.
//!
//! The parser is a deliberately tiny scanner for the flat object layout
//! the `ssa_engines` bench writes (no nested objects inside entries, no
//! braces inside strings) — the offline `serde_json` stand-in has no
//! generic `Value` parser, and pulling one in for three keys per entry
//! is not worth it.

use std::process::ExitCode;

/// One `{"circuit": ..., "incremental_steps_per_sec": ..., "speedup": ...}`
/// entry from the `results` section.
#[derive(Debug, Clone, PartialEq)]
struct Entry {
    circuit: String,
    steps_per_sec: f64,
    speedup: f64,
}

/// Extracts every depth-2 `{...}` object body from `json` (the entries
/// of the top-level arrays; the root object is depth 1).
fn objects(json: &str) -> Vec<&str> {
    let mut depth = 0usize;
    let mut start = None;
    let mut found = Vec::new();
    for (at, byte) in json.bytes().enumerate() {
        match byte {
            b'{' => {
                depth += 1;
                if depth == 2 {
                    start = Some(at + 1);
                }
            }
            b'}' => {
                if depth == 2 {
                    if let Some(from) = start.take() {
                        found.push(&json[from..at]);
                    }
                }
                depth = depth.saturating_sub(1);
            }
            _ => {}
        }
    }
    found
}

/// Value of `"key": "..."` within a flat object body.
fn str_field(object: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let at = object.find(&needle)? + needle.len();
    let rest = object[at..].trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Value of `"key": <number>` within a flat object body.
fn num_field(object: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = object.find(&needle)? + needle.len();
    let rest = object[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Every incremental-throughput entry in a `BENCH_ssa.json` document.
/// (The `full_sweep` section also carries a `speedup` key, but only
/// `results` entries have `incremental_steps_per_sec`, which is the
/// discriminator here.)
fn incremental_entries(json: &str) -> Vec<Entry> {
    objects(json)
        .into_iter()
        .filter_map(|object| {
            Some(Entry {
                circuit: str_field(object, "circuit")?,
                steps_per_sec: num_field(object, "incremental_steps_per_sec")?,
                speedup: num_field(object, "speedup")?,
            })
        })
        .collect()
}

/// Every ensemble-throughput entry (the `ensemble` section):
/// `shard_efficiency` is the process-sharded vs in-process replicate
/// throughput ratio at equal parallelism — like `speedup`, an in-run
/// ratio that cancels machine speed and isolates protocol overhead.
fn ensemble_entries(json: &str) -> Vec<Entry> {
    objects(json)
        .into_iter()
        .filter_map(|object| {
            Some(Entry {
                circuit: str_field(object, "circuit")?,
                steps_per_sec: num_field(object, "in_process_replicates_per_sec")?,
                speedup: num_field(object, "shard_efficiency")?,
            })
        })
        .collect()
}

/// Every resident-service entry (the `resident` section):
/// `extend_efficiency` is warm resident-extend replicate throughput
/// over the cold one-shot path at the same batch size — an in-run
/// ratio like the others — and `footprint_ratio` is how many times
/// smaller a cached accumulator cell is than the retired dense
/// representation (gated absolutely: the sparse swap promised ≥ 5x).
fn resident_entries(json: &str) -> Vec<Entry> {
    objects(json)
        .into_iter()
        .filter_map(|object| {
            Some(Entry {
                circuit: str_field(object, "circuit")?,
                steps_per_sec: num_field(object, "extend_replicates_per_sec")?,
                speedup: num_field(object, "extend_efficiency")?,
            })
        })
        .collect()
}

/// Every relay-transport entry (the `relay` section):
/// `relay_efficiency` is TCP-relay replicate throughput over the
/// child-process column measured in the same run — an in-run ratio
/// like `shard_efficiency`, gated at the same ≥35% floor (socket and
/// thread scheduling on shared runners are at least as noisy as
/// process spawns).
fn relay_entries(json: &str) -> Vec<Entry> {
    objects(json)
        .into_iter()
        .filter_map(|object| {
            Some(Entry {
                circuit: str_field(object, "circuit")?,
                steps_per_sec: num_field(object, "relay_replicates_per_sec")?,
                speedup: num_field(object, "relay_efficiency")?,
            })
        })
        .collect()
}

/// `footprint_ratio` per circuit from the `resident` section.
fn footprint_ratios(json: &str) -> Vec<(String, f64)> {
    objects(json)
        .into_iter()
        .filter_map(|object| {
            Some((
                str_field(object, "circuit")?,
                num_field(object, "footprint_ratio")?,
            ))
        })
        .collect()
}

/// Per-circuit batched/scalar sweep `speedup` from the `full_sweep`
/// section (`batched_sweeps_per_sec` is the discriminator — `results`
/// entries also carry a `speedup`).
fn full_sweep_speedups(json: &str) -> Vec<(String, f64)> {
    objects(json)
        .into_iter()
        .filter_map(|object| {
            num_field(object, "batched_sweeps_per_sec")?;
            Some((str_field(object, "circuit")?, num_field(object, "speedup")?))
        })
        .collect()
}

/// Per-circuit VM-fallback lane count from the `lanes` section
/// (`residual` is the discriminator — only lane entries carry it).
fn lane_fallbacks(json: &str) -> Vec<(String, f64)> {
    objects(json)
        .into_iter()
        .filter_map(|object| {
            num_field(object, "residual")?;
            Some((
                str_field(object, "circuit")?,
                num_field(object, "fallback")?,
            ))
        })
        .collect()
}

/// `(source, speedup)` rows from the `draws` section
/// (`batched_normals_per_sec` is the discriminator — only draw rows
/// carry it).
fn draws_speedups(json: &str) -> Vec<(String, f64)> {
    objects(json)
        .into_iter()
        .filter_map(|object| {
            num_field(object, "batched_normals_per_sec")?;
            Some((str_field(object, "source")?, num_field(object, "speedup")?))
        })
        .collect()
}

/// `(circuit, engine, steps_per_sec)` rows from the `engines` section.
fn engine_rates(json: &str) -> Vec<(String, String, f64)> {
    objects(json)
        .into_iter()
        .filter_map(|object| {
            Some((
                str_field(object, "circuit")?,
                str_field(object, "engine")?,
                num_field(object, "steps_per_sec")?,
            ))
        })
        .collect()
}

/// Per-circuit warm/cold Submit `warm_speedup` from the `model_cache`
/// section.
fn cache_speedups(json: &str) -> Vec<(String, f64)> {
    objects(json)
        .into_iter()
        .filter_map(|object| {
            Some((
                str_field(object, "circuit")?,
                num_field(object, "warm_speedup")?,
            ))
        })
        .collect()
}

/// Absolute tau-leap throughput floors, per circuit. The bench box and
/// the CI runner both clear these with more than 2x margin (measured:
/// ~4M steps/s on `book_and` at tau 0.02, ~1.6M on `cello_0x1C` at tau
/// 0.5, on a single shared core) — the floor catches the engine falling
/// off its vectorized sweep path, not honest machine variance. Unlike
/// the ratio gates this is machine-dependent by design: a sweep-path
/// regression would speed-scale the scalar baseline too and hide from
/// any in-run ratio.
const TAU_LEAP_FLOORS: &[(&str, f64)] = &[("book_and", 1_500_000.0), ("cello_0x1C", 750_000.0)];

/// Absolute Langevin throughput floors, per circuit — same shape and
/// philosophy as [`TAU_LEAP_FLOORS`]. The batched Gaussian draw engine
/// lifted Langevin from ~1.6M steps/s (scalar `standard_normal` per
/// reaction) to ~4.3M on `book_and` and ~3.6M on `cello_0x1C` on the
/// bench box; the floors sit above the retired scalar-path rates
/// (1.62M / 1.66M) and well under the measured post-change throughput,
/// so they catch the engine falling off the batched draw path (e.g.
/// the small-fill kernel devectorizing, or a regression back to
/// one-draw-per-call) without tripping on honest machine variance.
const LANGEVIN_FLOORS: &[(&str, f64)] = &[("book_and", 2_500_000.0), ("cello_0x1C", 2_000_000.0)];

/// Absolute shard-efficiency floors, per circuit. The pipelined worker
/// fabric (resident framed workers, adaptive chunking) holds book_and
/// at ≥0.80 of in-process throughput on the bench box; 0.75 catches
/// the fabric falling back to per-order spawn-and-recompile behavior
/// while leaving room for honest runner noise. `cello_0x1C` has no
/// floor: its sharded column beats in-process (efficiency > 1) because
/// sharding escapes the in-process memory-bandwidth ceiling, so the
/// relative gate already guards it. Unlike TAU_LEAP_FLOORS this ratio
/// is machine-independent — it is an in-run efficiency, not a rate.
const ENSEMBLE_EFFICIENCY_FLOORS: &[(&str, f64)] = &[("book_and", 0.75)];

/// Absolute relay-efficiency floors, per circuit. Relay-side partial
/// reduction plus the GLCB reply codec lifted `cello_0x1C` (whose
/// chunk replies are the largest in the matrix) from ~0.83 to ~0.95 of
/// the resident-worker column; 0.90 catches the reduction path or the
/// binary codec silently regressing to per-chunk ingress cost while
/// leaving room for honest runner noise. Like the shard floors,
/// this is an in-run efficiency — machine-independent by construction.
const RELAY_EFFICIENCY_FLOORS: &[(&str, f64)] = &[("cello_0x1C", 0.90)];

/// Absolute ceiling on GLCB reply-decode cost, in microseconds per
/// batch-sized chunk reply. Measured ~5-17 µs on the bench box; 40 µs
/// catches the decoder falling off its fixed-layout fast path (e.g.
/// regressing to per-digit parsing) without tripping on shared-runner
/// variance. Machine-dependent by design, like `TAU_LEAP_FLOORS`.
const GLCB_DECODE_CEILING_MICROS: f64 = 40.0;

/// Absolute ceiling on a GLCB snapshot's size in bytes. The dense
/// little-endian `ExactSum` layout keeps batch-sized snapshots near
/// ~2800 B; byte counts don't depend on the runner, so the ceiling
/// gates absolutely.
const SNAPSHOT_BYTES_CEILING: f64 = 3000.0;

/// Per-circuit `glcb_decode_micros` from the `codec` section.
fn codec_decode_stats(json: &str) -> Vec<(String, f64)> {
    objects(json)
        .into_iter()
        .filter_map(|object| {
            Some((
                str_field(object, "circuit")?,
                num_field(object, "glcb_decode_micros")?,
            ))
        })
        .collect()
}

/// Per-circuit `snapshot_bytes` from the `spill` section.
fn spill_stats(json: &str) -> Vec<(String, f64)> {
    objects(json)
        .into_iter()
        .filter_map(|object| {
            Some((
                str_field(object, "circuit")?,
                num_field(object, "snapshot_bytes")?,
            ))
        })
        .collect()
}

/// Gates one metric section: every baseline circuit must be present in
/// the current run with its ratio metric no more than `threshold`
/// below baseline.
fn gate_section(
    label: &str,
    baseline: &[Entry],
    current: &[Entry],
    threshold: f64,
    failures: &mut Vec<String>,
) {
    println!("{label} (threshold: -{:.0}%)", threshold * 100.0);
    for base in baseline {
        let Some(now) = current.iter().find(|e| e.circuit == base.circuit) else {
            failures.push(format!(
                "{} [{label}]: present in baseline but missing from current run",
                base.circuit
            ));
            continue;
        };
        // Machine-independent metric: an in-run ratio (speedup or
        // shard efficiency). Absolute rates shown for the log.
        let ratio = now.speedup / base.speedup;
        let verdict = if ratio < 1.0 - threshold {
            "FAIL"
        } else {
            "ok"
        };
        println!(
            "  {}: baseline {:.2}x  current {:.2}x  ({:+.1}%)  \
             [abs: {:.0}/s -> {:.0}/s]  {verdict}",
            base.circuit,
            base.speedup,
            now.speedup,
            (ratio - 1.0) * 100.0,
            base.steps_per_sec,
            now.steps_per_sec,
        );
        if ratio < 1.0 - threshold {
            failures.push(format!(
                "{} [{label}]: {:.2}x is {:.1}% below baseline {:.2}x",
                base.circuit,
                now.speedup,
                (1.0 - ratio) * 100.0,
                base.speedup
            ));
        }
    }
}

/// Gates one engine's absolute steps/s floors: every floored circuit
/// must have a row for `engine` in the current run at or above its
/// floor. Machine-dependent by design (see the floor constants).
fn gate_engine_floors(
    engine: &str,
    floors: &[(&str, f64)],
    engines: &[(String, String, f64)],
    failures: &mut Vec<String>,
) {
    println!("bench {engine} gate: absolute steps/s floors");
    for &(circuit, floor) in floors {
        let Some((_, _, rate)) = engines.iter().find(|(c, e, _)| c == circuit && e == engine)
        else {
            failures.push(format!(
                "{circuit} [{engine} floor]: no {engine} engine row in current run"
            ));
            continue;
        };
        let verdict = if *rate < floor { "FAIL" } else { "ok" };
        println!("  {circuit}: {rate:.0} steps/s (floor {floor:.0})  {verdict}");
        if *rate < floor {
            failures.push(format!(
                "{circuit} [{engine} floor]: {rate:.0} steps/s is below the \
                 {floor:.0} floor"
            ));
        }
    }
}

fn run(baseline_path: &str, current_path: &str, threshold: f64) -> Result<(), String> {
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))
    };
    let baseline_doc = read(baseline_path)?;
    let current_doc = read(current_path)?;
    let baseline = incremental_entries(&baseline_doc);
    let current = incremental_entries(&current_doc);
    if baseline.is_empty() {
        return Err(format!(
            "{baseline_path} has no incremental_steps_per_sec entries"
        ));
    }

    let mut failures = Vec::new();
    gate_section(
        "bench regression gate: incremental/full-recompute speedup",
        &baseline,
        &current,
        threshold,
        &mut failures,
    );
    // Ensemble shard efficiency: only gated once the committed
    // baseline carries the section (older baselines predate it).
    // Process spawn time on shared runners is noisier than in-process
    // arithmetic, so this section's tolerance never drops below 35%
    // even when the speedup gate runs tighter.
    let ensemble_baseline = ensemble_entries(&baseline_doc);
    if !ensemble_baseline.is_empty() {
        gate_section(
            "bench regression gate: ensemble shard efficiency",
            &ensemble_baseline,
            &ensemble_entries(&current_doc),
            threshold.max(0.35),
            &mut failures,
        );
        // Absolute efficiency floors on top of the relative gate: the
        // relative gate only catches drift from the committed
        // baseline, while the floor pins the pipelined fabric's
        // acceptance criterion itself (see ENSEMBLE_EFFICIENCY_FLOORS).
        let current_ensemble = ensemble_entries(&current_doc);
        println!("bench ensemble gate: absolute shard-efficiency floors");
        for &(circuit, floor) in ENSEMBLE_EFFICIENCY_FLOORS {
            let Some(entry) = current_ensemble.iter().find(|e| e.circuit == circuit) else {
                failures.push(format!(
                    "{circuit} [shard-efficiency floor]: no ensemble row in current run"
                ));
                continue;
            };
            let verdict = if entry.speedup < floor { "FAIL" } else { "ok" };
            println!(
                "  {circuit}: efficiency {:.3} (floor {floor:.2})  {verdict}",
                entry.speedup
            );
            if entry.speedup < floor {
                failures.push(format!(
                    "{circuit} [shard-efficiency floor]: {:.3} is below the {floor:.2} floor",
                    entry.speedup
                ));
            }
        }
    }
    // Relay transport efficiency: gated like shard efficiency (≥35%
    // floor) once the committed baseline carries the section.
    let relay_baseline = relay_entries(&baseline_doc);
    if !relay_baseline.is_empty() {
        gate_section(
            "bench regression gate: relay transport efficiency",
            &relay_baseline,
            &relay_entries(&current_doc),
            threshold.max(0.35),
            &mut failures,
        );
        // Absolute efficiency floors on top of the relative gate, like
        // the shard floors: the floor pins what relay-side reduction
        // plus the GLCB codec bought (see RELAY_EFFICIENCY_FLOORS) —
        // re-baselining cannot launder losing either.
        let current_relay = relay_entries(&current_doc);
        println!("bench relay gate: absolute relay-efficiency floors");
        for &(circuit, floor) in RELAY_EFFICIENCY_FLOORS {
            let Some(entry) = current_relay.iter().find(|e| e.circuit == circuit) else {
                failures.push(format!(
                    "{circuit} [relay-efficiency floor]: no relay row in current run"
                ));
                continue;
            };
            let verdict = if entry.speedup < floor { "FAIL" } else { "ok" };
            println!(
                "  {circuit}: efficiency {:.3} (floor {floor:.2})  {verdict}",
                entry.speedup
            );
            if entry.speedup < floor {
                failures.push(format!(
                    "{circuit} [relay-efficiency floor]: {:.3} is below the {floor:.2} floor",
                    entry.speedup
                ));
            }
        }
    }
    // GLCB reply-decode cost is gated absolutely per circuit (see
    // GLCB_DECODE_CEILING_MICROS for why this gate, like the tau-leap
    // floors, is deliberately machine-dependent).
    let codecs = codec_decode_stats(&current_doc);
    if !codecs.is_empty() {
        println!(
            "bench codec gate: GLCB reply decode <= {GLCB_DECODE_CEILING_MICROS:.0} \
             us per chunk reply"
        );
        for (circuit, micros) in &codecs {
            let verdict = if *micros > GLCB_DECODE_CEILING_MICROS {
                "FAIL"
            } else {
                "ok"
            };
            println!("  {circuit}: {micros:.1} us  {verdict}");
            if *micros > GLCB_DECODE_CEILING_MICROS {
                failures.push(format!(
                    "{circuit} [codec decode]: GLCB reply decode took {micros:.1} us \
                     (ceiling {GLCB_DECODE_CEILING_MICROS:.0} us)"
                ));
            }
        }
    } else if !codec_decode_stats(&baseline_doc).is_empty() {
        failures.push("codec section in baseline but missing from current run".to_string());
    }
    // GLCB snapshot size is gated absolutely (see
    // SNAPSHOT_BYTES_CEILING).
    let spills = spill_stats(&current_doc);
    if !spills.is_empty() {
        println!("bench spill gate: GLCB snapshot <= {SNAPSHOT_BYTES_CEILING:.0} B");
        for (circuit, bytes) in &spills {
            let verdict = if *bytes > SNAPSHOT_BYTES_CEILING {
                "FAIL"
            } else {
                "ok"
            };
            println!("  {circuit}: {bytes:.0} B  {verdict}");
            if *bytes > SNAPSHOT_BYTES_CEILING {
                failures.push(format!(
                    "{circuit} [spill bytes]: GLCB snapshot is {bytes:.0} B \
                     (ceiling {SNAPSHOT_BYTES_CEILING:.0} B)"
                ));
            }
        }
    } else if !spill_stats(&baseline_doc).is_empty() {
        failures.push("spill section in baseline but missing from current run".to_string());
    }
    // Resident query service: the warm-extend/one-shot ratio gates
    // like shard efficiency (both involve timing loops with
    // per-batch setup, so the floor stays at 35%)…
    let resident_baseline = resident_entries(&baseline_doc);
    if !resident_baseline.is_empty() {
        gate_section(
            "bench regression gate: resident extend efficiency",
            &resident_baseline,
            &resident_entries(&current_doc),
            threshold.max(0.35),
            &mut failures,
        );
    }
    // …and the cached-cell footprint is gated absolutely: the sparse
    // ExactSum representation must keep a resident cell ≥ 5x smaller
    // than the retired dense form, whatever the baseline says (this is
    // the acceptance criterion of the representation swap, not a
    // machine-speed artifact — byte counts don't depend on the
    // runner).
    let footprints = footprint_ratios(&current_doc);
    if !footprints.is_empty() {
        println!("bench footprint gate: cached cell >= 5x smaller than dense");
        for (circuit, ratio) in &footprints {
            let verdict = if *ratio < 5.0 { "FAIL" } else { "ok" };
            println!("  {circuit}: {ratio:.2}x smaller  {verdict}");
            if *ratio < 5.0 {
                failures.push(format!(
                    "{circuit} [resident footprint]: cached cell only {ratio:.2}x \
                     smaller than dense (needs >= 5x)"
                ));
            }
        }
    } else if !resident_baseline.is_empty() {
        failures
            .push("resident section in baseline but no footprint_ratio in current run".to_string());
    }
    // Batched full-sweep speedup is gated absolutely at 1.0: the bank
    // sweep is only allowed to exist because it beats (or at worst
    // ties) the scalar per-law reference on every reference circuit —
    // a losing sweep must fail whatever the baseline recorded, because
    // the honest fix for a losing lane mix is folding it back into the
    // scalar pass, not re-baselining the loss.
    let sweeps = full_sweep_speedups(&current_doc);
    if !sweeps.is_empty() {
        println!("bench full-sweep gate: batched >= scalar (speedup >= 1.0)");
        for (circuit, speedup) in &sweeps {
            let verdict = if *speedup < 1.0 { "FAIL" } else { "ok" };
            println!("  {circuit}: {speedup:.2}x  {verdict}");
            if *speedup < 1.0 {
                failures.push(format!(
                    "{circuit} [full sweep]: batched sweep only {speedup:.2}x the scalar \
                     reference (needs >= 1.0)"
                ));
            }
        }
    } else if !full_sweep_speedups(&baseline_doc).is_empty() {
        failures.push("full_sweep section in baseline but missing from current run".to_string());
    }
    // Lane placement is gated absolutely at zero fallbacks: every law
    // of the reference circuits has a shaped lane, so a VM fallback
    // appearing means the bank's recognizer regressed and a hot loop
    // silently took the slow path.
    let fallbacks = lane_fallbacks(&current_doc);
    if !fallbacks.is_empty() {
        println!("bench lane gate: no VM fallbacks on reference circuits");
        for (circuit, fallback) in &fallbacks {
            let verdict = if *fallback > 0.0 { "FAIL" } else { "ok" };
            println!("  {circuit}: {fallback:.0} fallback lanes  {verdict}");
            if *fallback > 0.0 {
                failures.push(format!(
                    "{circuit} [lanes]: {fallback:.0} kinetic laws fell back to the VM \
                     (needs 0)"
                ));
            }
        }
    } else if !lane_fallbacks(&baseline_doc).is_empty() {
        failures.push("lanes section in baseline but missing from current run".to_string());
    }
    // Absolute per-engine throughput floors (see TAU_LEAP_FLOORS and
    // LANGEVIN_FLOORS for why these gates are deliberately
    // machine-dependent).
    let engines = engine_rates(&current_doc);
    if !engines.is_empty() {
        gate_engine_floors("tau-leap", TAU_LEAP_FLOORS, &engines, &mut failures);
        gate_engine_floors("langevin", LANGEVIN_FLOORS, &engines, &mut failures);
    }
    // Batched draw-engine speedup is gated absolutely at 1.0, exactly
    // like the full-sweep gate: the block Box–Muller path only exists
    // because it beats the scalar `standard_normal` reference it
    // replicates bitwise — a losing block path must fail whatever the
    // baseline recorded.
    let draws = draws_speedups(&current_doc);
    if !draws.is_empty() {
        println!("bench draws gate: batched >= scalar normals/s (speedup >= 1.0)");
        for (source, speedup) in &draws {
            let verdict = if *speedup < 1.0 { "FAIL" } else { "ok" };
            println!("  {source}: {speedup:.2}x  {verdict}");
            if *speedup < 1.0 {
                failures.push(format!(
                    "{source} [draws]: batched normals only {speedup:.2}x the scalar \
                     reference (needs >= 1.0)"
                ));
            }
        }
    } else if !draws_speedups(&baseline_doc).is_empty() {
        failures.push("draws section in baseline but missing from current run".to_string());
    }
    // Model-cache Submit speedup is gated absolutely: a warm Submit
    // must eliminate enough compile cost to run at least 2x the cold
    // path (measured ~130x; the floor is far below honest timing noise
    // but well above "the cache stopped hitting").
    let caches = cache_speedups(&current_doc);
    if !caches.is_empty() {
        println!("bench model-cache gate: warm submit >= 2x cold");
        for (circuit, speedup) in &caches {
            let verdict = if *speedup < 2.0 { "FAIL" } else { "ok" };
            println!("  {circuit}: {speedup:.1}x  {verdict}");
            if *speedup < 2.0 {
                failures.push(format!(
                    "{circuit} [model cache]: warm submit only {speedup:.2}x cold \
                     (needs >= 2.0)"
                ));
            }
        }
    } else if !cache_speedups(&baseline_doc).is_empty() {
        failures.push("model_cache section in baseline but missing from current run".to_string());
    }
    if failures.is_empty() {
        println!("no regression beyond {:.0}%", threshold * 100.0);
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut threshold = 0.20f64;
    let mut paths = Vec::new();
    let mut at = 0;
    while at < args.len() {
        if args[at] == "--threshold" {
            let Some(value) = args.get(at + 1).and_then(|v| v.parse::<f64>().ok()) else {
                eprintln!("--threshold needs a numeric argument");
                return ExitCode::FAILURE;
            };
            threshold = value;
            at += 2;
        } else {
            paths.push(args[at].clone());
            at += 1;
        }
    }
    let [baseline, current] = paths.as_slice() else {
        eprintln!("usage: check_regression <baseline.json> <current.json> [--threshold 0.20]");
        return ExitCode::FAILURE;
    };
    match run(baseline, current, threshold) {
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

    const DOC: &str = r#"{
  "bench": "ssa_engines",
  "results": [
    {"circuit":"book_and","reactions":11,"incremental_steps_per_sec":1000.0,"speedup":4.0},
    {"circuit":"cello_0x1C","reactions":10,"incremental_steps_per_sec":500.0,"speedup":2.7}
  ],
  "engines": [
    {"circuit":"book_and","engine":"direct","steps_per_sec":1000.0},
    {"circuit":"book_and","engine":"tau-leap","steps_per_sec":4000000.0},
    {"circuit":"cello_0x1C","engine":"tau-leap","steps_per_sec":1600000.0},
    {"circuit":"book_and","engine":"langevin","steps_per_sec":4300000.0},
    {"circuit":"cello_0x1C","engine":"langevin","steps_per_sec":3500000.0}
  ],
  "lanes": [
    {"circuit":"book_and","laws":11,"linear":5,"wide":0,"residual":11,"fallback":0}
  ],
  "full_sweep": [
    {"circuit":"book_and","reactions":11,"batched_sweeps_per_sec":600.0,"scalar_sweeps_per_sec":500.0,"speedup":1.2}
  ],
  "draws": [
    {"source":"box_muller","batched_normals_per_sec":40000000.0,"scalar_normals_per_sec":11000000.0,"speedup":3.6}
  ],
  "pipeline": [
    {"circuit":"book_and","pipelined_replicates_per_sec":160.0,"steals":94},
    {"circuit":"cello_0x1C","pipelined_replicates_per_sec":12.0,"steals":8}
  ],
  "model_cache": [
    {"circuit":"book_and","cold_submits_per_sec":1500.0,"warm_submits_per_sec":190000.0,"warm_speedup":126.0}
  ],
  "ensemble": [
    {"circuit":"book_and","in_process_replicates_per_sec":200.0,"sharded_replicates_per_sec":160.0,"shard_efficiency":0.8}
  ],
  "relay": [
    {"circuit":"book_and","relay_replicates_per_sec":140.0,"child_replicates_per_sec":160.0,"relay_efficiency":0.875},
    {"circuit":"cello_0x1C","relay_replicates_per_sec":120.0,"child_replicates_per_sec":128.0,"relay_efficiency":0.938}
  ],
  "spill": [
    {"circuit":"book_and","snapshot_writes_per_sec":6000.0,"snapshot_reloads_per_sec":9000.0,"snapshot_bytes":2400}
  ],
  "codec": [
    {"circuit":"book_and","glcb_decode_micros":9.0,"glcb_reply_bytes":2500}
  ]
}"#;

    #[test]
    fn parses_incremental_entries() {
        let entries = incremental_entries(DOC);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].circuit, "book_and");
        assert_eq!(entries[0].steps_per_sec, 1000.0);
        assert_eq!(entries[0].speedup, 4.0);
        assert_eq!(entries[1].circuit, "cello_0x1C");
        assert_eq!(entries[1].steps_per_sec, 500.0);
        assert_eq!(entries[1].speedup, 2.7);
    }

    /// Writes `content` to a unique temp file and returns its path.
    fn temp_doc(name: &str, content: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("check_regression_test_{name}.json"));
        std::fs::write(&path, content).expect("write temp doc");
        path
    }

    fn run_gate(baseline: &str, current: &str, tag: &str) -> Result<(), String> {
        let base = temp_doc(&format!("{tag}_base"), baseline);
        let cur = temp_doc(&format!("{tag}_cur"), current);
        let outcome = run(base.to_str().unwrap(), cur.to_str().unwrap(), 0.20);
        let _ = std::fs::remove_file(base);
        let _ = std::fs::remove_file(cur);
        outcome
    }

    #[test]
    fn gate_is_machine_speed_independent() {
        // A slower CI runner: absolute steps/s halve but the in-run
        // speedups are unchanged — the gate must pass.
        let slower_machine = DOC
            .replace(
                "\"incremental_steps_per_sec\":1000.0",
                "\"incremental_steps_per_sec\":480.0",
            )
            .replace(
                "\"incremental_steps_per_sec\":500.0",
                "\"incremental_steps_per_sec\":240.0",
            );
        run_gate(DOC, &slower_machine, "slow").expect("slower machine must pass");

        // A genuine regression: same absolute throughput, but book_and's
        // incremental speedup halves — the gate must fail and name it.
        let regressed = DOC.replace("\"speedup\":4.0", "\"speedup\":2.0");
        let err = run_gate(DOC, &regressed, "drop").expect_err("speedup drop must fail");
        assert!(err.contains("book_and"), "failure names the circuit: {err}");

        // A circuit vanishing from the current run must fail too.
        let missing = DOC.replace("\"circuit\":\"cello_0x1C\"", "\"circuit\":\"renamed\"");
        let err = run_gate(DOC, &missing, "gone").expect_err("missing circuit must fail");
        assert!(err.contains("cello_0x1C"), "{err}");
    }

    #[test]
    fn ensemble_shard_efficiency_is_gated_too() {
        // A collapse of the worker-protocol efficiency must fail even
        // when the incremental speedups are healthy.
        let regressed = DOC.replace("\"shard_efficiency\":0.8", "\"shard_efficiency\":0.4");
        let err = run_gate(DOC, &regressed, "shard_drop").expect_err("efficiency drop must fail");
        assert!(
            err.contains("shard efficiency") && err.contains("book_and"),
            "{err}"
        );
        // Efficiency noise within the threshold passes.
        let wobble = DOC.replace("\"shard_efficiency\":0.8", "\"shard_efficiency\":0.75");
        run_gate(DOC, &wobble, "shard_ok").expect("small wobble passes");
        // Baselines without the section (pre-protocol) skip the gate.
        let old_baseline = DOC.replace("\"shard_efficiency\":0.8", "\"no_metric\":1.0");
        run_gate(&old_baseline, DOC, "shard_absent").expect("absent baseline section passes");
    }

    #[test]
    fn book_and_shard_efficiency_has_an_absolute_floor() {
        // Efficiency sliding under 0.75 fails even when the baseline
        // itself is low enough for the relative gate to pass —
        // re-baselining cannot launder losing the pipelined fabric.
        let low = DOC.replace("\"shard_efficiency\":0.8", "\"shard_efficiency\":0.70");
        let err = run_gate(&low, &low, "floor_drop").expect_err("sub-floor efficiency must fail");
        assert!(
            err.contains("shard-efficiency floor") && err.contains("book_and"),
            "{err}"
        );
        // Exactly at the floor passes.
        let at_floor = DOC.replace("\"shard_efficiency\":0.8", "\"shard_efficiency\":0.75");
        run_gate(&at_floor, &at_floor, "floor_ok").expect("at-floor efficiency passes");
    }

    #[test]
    fn relay_efficiency_is_gated_at_the_shard_floor() {
        // A collapse of the relay-transport efficiency fails even when
        // every other metric is healthy.
        let regressed = DOC.replace("\"relay_efficiency\":0.875", "\"relay_efficiency\":0.4");
        let err = run_gate(DOC, &regressed, "relay_drop").expect_err("relay drop must fail");
        assert!(
            err.contains("relay transport efficiency") && err.contains("book_and"),
            "{err}"
        );
        // The floor is 35%, like process sharding: a 30% dip passes.
        let wobble = DOC.replace("\"relay_efficiency\":0.875", "\"relay_efficiency\":0.62");
        run_gate(DOC, &wobble, "relay_ok").expect("within the 35% floor passes");
        // Baselines without the section (pre-relay) skip the gate.
        let old_baseline = DOC.replace("\"relay_efficiency\":0.875", "\"no_metric\":1.0");
        run_gate(&old_baseline, DOC, "relay_absent").expect("absent baseline section passes");
    }

    #[test]
    fn cello_relay_efficiency_has_an_absolute_floor() {
        // Reduction or the binary codec silently degrading drops the
        // cello efficiency under 0.90 — that fails even when the
        // baseline itself is low enough for the relative gate to pass.
        let low = DOC.replace("\"relay_efficiency\":0.938", "\"relay_efficiency\":0.85");
        let err = run_gate(&low, &low, "relay_floor").expect_err("sub-floor relay must fail");
        assert!(
            err.contains("relay-efficiency floor") && err.contains("cello_0x1C"),
            "{err}"
        );
        // book_and has no floor: 0.875 in the fixture passes as-is,
        // and exactly at the cello floor passes too.
        let at_floor = DOC.replace("\"relay_efficiency\":0.938", "\"relay_efficiency\":0.90");
        run_gate(&at_floor, &at_floor, "relay_floor_ok").expect("at-floor efficiency passes");
    }

    #[test]
    fn glcb_decode_ceiling_is_absolute() {
        let slow = DOC.replace("\"glcb_decode_micros\":9.0", "\"glcb_decode_micros\":55.0");
        let err = run_gate(DOC, &slow, "codec_slow").expect_err("slow decode must fail");
        assert!(
            err.contains("codec decode") && err.contains("book_and"),
            "{err}"
        );
        // Under the ceiling passes, and the section vanishing while
        // the baseline carries it fails.
        let near = DOC.replace("\"glcb_decode_micros\":9.0", "\"glcb_decode_micros\":39.0");
        run_gate(DOC, &near, "codec_ok").expect("under-ceiling decode passes");
        let gone = DOC.replace("\"glcb_decode_micros\":9.0", "\"no_metric\":9.0");
        let err = run_gate(DOC, &gone, "codec_gone").expect_err("missing section must fail");
        assert!(err.contains("codec section in baseline"), "{err}");
    }

    #[test]
    fn glcb_snapshot_gates_are_absolute() {
        // A snapshot growing past the byte ceiling fails…
        let fat = DOC.replace("\"snapshot_bytes\":2400", "\"snapshot_bytes\":3500");
        let err = run_gate(DOC, &fat, "spill_fat").expect_err("oversized snapshot must fail");
        assert!(
            err.contains("spill bytes") && err.contains("book_and"),
            "{err}"
        );
        // …whatever the baseline recorded, while one at the ceiling
        // passes.
        let err = run_gate(&fat, &fat, "spill_fat_base").expect_err("re-baselining can't help");
        assert!(err.contains("spill bytes"), "{err}");
        let near = DOC.replace("\"snapshot_bytes\":2400", "\"snapshot_bytes\":3000");
        run_gate(DOC, &near, "spill_ok").expect("at-ceiling snapshot passes");
        // The spill row vanishing from the current run fails.
        let gone = DOC.replace("\"snapshot_bytes\":2400", "\"no_metric\":2400");
        let err = run_gate(DOC, &gone, "spill_gone").expect_err("missing spill row must fail");
        assert!(err.contains("spill section"), "{err}");
    }

    #[test]
    fn losing_batched_sweep_fails_absolutely() {
        // The batched sweep dipping below the scalar reference fails
        // even when the baseline itself recorded a loss — re-baselining
        // cannot launder a losing lane mix.
        let losing = DOC.replace("\"speedup\":1.2", "\"speedup\":0.95");
        let err = run_gate(&losing, &losing, "sweep_loss").expect_err("losing sweep must fail");
        assert!(
            err.contains("full sweep") && err.contains("book_and"),
            "{err}"
        );
        // Winning by any margin passes.
        let winning = DOC.replace("\"speedup\":1.2", "\"speedup\":1.01");
        run_gate(DOC, &winning, "sweep_win").expect("winning sweep passes");
    }

    #[test]
    fn vm_fallback_lanes_fail_absolutely() {
        let fell_back = DOC.replace(
            "\"residual\":11,\"fallback\":0",
            "\"residual\":9,\"fallback\":2",
        );
        let err = run_gate(DOC, &fell_back, "lane_fallback").expect_err("fallbacks must fail");
        assert!(err.contains("[lanes]") && err.contains("book_and"), "{err}");
        run_gate(DOC, DOC, "lane_clean").expect("zero fallbacks pass");
    }

    #[test]
    fn tau_leap_floor_is_absolute() {
        let slow = DOC.replace(
            "\"circuit\":\"cello_0x1C\",\"engine\":\"tau-leap\",\"steps_per_sec\":1600000.0",
            "\"circuit\":\"cello_0x1C\",\"engine\":\"tau-leap\",\"steps_per_sec\":500000.0",
        );
        let err = run_gate(DOC, &slow, "tau_floor").expect_err("below the floor must fail");
        assert!(
            err.contains("tau-leap floor") && err.contains("cello_0x1C"),
            "{err}"
        );
        // A missing tau-leap row fails too: the engines must stay in
        // the bench matrix for both reference circuits.
        let missing = DOC.replace(
            "\"circuit\":\"cello_0x1C\",\"engine\":\"tau-leap\"",
            "\"circuit\":\"cello_0x1C\",\"engine\":\"renamed\"",
        );
        let err = run_gate(DOC, &missing, "tau_missing").expect_err("missing row must fail");
        assert!(err.contains("no tau-leap engine row"), "{err}");
    }

    #[test]
    fn langevin_floor_is_absolute() {
        // Langevin falling back to the scalar draw path (~1.6M steps/s
        // on the bench box) lands under the cello floor and must fail,
        // even when the baseline recorded the same loss.
        let slow = DOC.replace(
            "\"circuit\":\"cello_0x1C\",\"engine\":\"langevin\",\"steps_per_sec\":3500000.0",
            "\"circuit\":\"cello_0x1C\",\"engine\":\"langevin\",\"steps_per_sec\":1650000.0",
        );
        let err = run_gate(&slow, &slow, "langevin_floor").expect_err("below the floor must fail");
        assert!(
            err.contains("langevin floor") && err.contains("cello_0x1C"),
            "{err}"
        );
        // A missing langevin row fails too — the engine must stay in
        // the bench matrix for both reference circuits.
        let missing = DOC.replace(
            "\"circuit\":\"book_and\",\"engine\":\"langevin\"",
            "\"circuit\":\"book_and\",\"engine\":\"renamed\"",
        );
        let err = run_gate(DOC, &missing, "langevin_missing").expect_err("missing row must fail");
        assert!(
            err.contains("no langevin engine row") && err.contains("book_and"),
            "{err}"
        );
    }

    #[test]
    fn losing_batched_draws_fail_absolutely() {
        // The batched Gaussian path dipping below the scalar reference
        // fails whatever the baseline says — like the full-sweep gate,
        // re-baselining cannot launder a losing block path.
        let losing = DOC.replace(
            "\"batched_normals_per_sec\":40000000.0,\"scalar_normals_per_sec\":11000000.0,\"speedup\":3.6",
            "\"batched_normals_per_sec\":10000000.0,\"scalar_normals_per_sec\":11000000.0,\"speedup\":0.91",
        );
        let err = run_gate(&losing, &losing, "draws_loss").expect_err("losing draws must fail");
        assert!(
            err.contains("[draws]") && err.contains("box_muller"),
            "{err}"
        );
        // The section vanishing while the baseline carries it fails.
        let gone = DOC.replace(
            "\"batched_normals_per_sec\":40000000.0",
            "\"no_metric\":40000000.0",
        );
        let err = run_gate(DOC, &gone, "draws_gone").expect_err("missing section must fail");
        assert!(err.contains("draws section in baseline"), "{err}");
    }

    #[test]
    fn model_cache_speedup_floor_is_absolute() {
        let cold = DOC.replace("\"warm_speedup\":126.0", "\"warm_speedup\":1.1");
        let err = run_gate(DOC, &cold, "cache_cold").expect_err("cache miss storm must fail");
        assert!(
            err.contains("model cache") && err.contains("book_and"),
            "{err}"
        );
        // Anything >= 2x passes — the floor is about hit/miss, not
        // timing precision.
        let modest = DOC.replace("\"warm_speedup\":126.0", "\"warm_speedup\":2.5");
        run_gate(DOC, &modest, "cache_ok").expect("modest warm speedup passes");
    }

    #[test]
    fn scanner_handles_scientific_notation_and_whitespace() {
        let object = r#""circuit": "c1", "incremental_steps_per_sec": 1.25e6"#;
        assert_eq!(str_field(object, "circuit").as_deref(), Some("c1"));
        assert_eq!(num_field(object, "incremental_steps_per_sec"), Some(1.25e6));
    }
}
