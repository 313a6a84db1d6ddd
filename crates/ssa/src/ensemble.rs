//! Ensemble simulation: many stochastic replicates, aggregated through
//! mergeable partials.
//!
//! A single SSA trajectory is one sample of a distribution; circuit
//! noise analyses (and the mean-vs-ODE cross-checks) need the ensemble
//! mean and spread. The aggregation is built from one primitive:
//!
//! * [`EnsemblePartial`] — per-species / per-sample sum and
//!   sum-of-squares plus a replicate count, carried in exact
//!   order-independent accumulators ([`crate::exact::ExactSum`]) and
//!   stamped with a model/grid fingerprint. Partials from disjoint
//!   replicate ranges [`EnsemblePartial::merge`] associatively and
//!   [`EnsemblePartial::finalize`] into an [`Ensemble`];
//! * [`run_partial`] — simulates one contiguous seed range on the
//!   calling thread and returns its partial. This is the unit of work
//!   the process-level `glc-worker` protocol ships across machines;
//! * [`run_ensemble`] — a thin shard-then-merge over [`run_partial`]:
//!   worker threads claim contiguous replicate chunks and the chunk
//!   partials merge into the final aggregate. The in-process path and
//!   the distributed coordinator therefore share one implementation.
//!
//! # Determinism contract
//!
//! Replicate `i` is always seeded `base_seed + i`, so a replicate's
//! trajectory depends only on its index. Accumulation is *exact* (see
//! [`crate::exact`]), so the aggregate is bitwise independent of thread
//! count, chunk size, process boundaries, and merge order — any
//! contiguous sharding of `0..replicates` finalizes to exactly the
//! bits of the unsharded run, even for engines with non-integral
//! traces (Langevin). No ordered-merge machinery is needed for
//! determinism; on failure, the error of the lowest observed failing
//! replicate is preferred (deterministic whenever a single replicate
//! fails).

use crate::compiled::CompiledModel;
use crate::engine::Engine;
use crate::error::SimError;
use crate::exact::ExactSum;
use crate::simulate_lanes;
use crate::trace::Trace;
use crate::wire::{put_f64_bits, put_string, put_varint, Reader, WireError};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Aggregated result of an ensemble run.
#[derive(Debug, Clone, PartialEq)]
pub struct Ensemble {
    /// Point-wise ensemble mean of every species.
    pub mean: Trace,
    /// Point-wise ensemble standard deviation (population).
    pub std_dev: Trace,
    /// Number of replicates aggregated.
    pub replicates: usize,
}

/// Identity of the model and sampling grid a partial was built on.
///
/// Two partials may only merge when their fingerprints match exactly:
/// a mismatch means the shards simulated different systems or sampled
/// different grids, and merging them would silently produce garbage.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialFingerprint {
    /// Model identifier.
    pub model_id: String,
    /// Species names in slot order.
    pub species: Vec<String>,
    /// Sampling interval of every replicate trace.
    pub sample_dt: f64,
    /// Simulation horizon of every replicate.
    pub t_end: f64,
    /// Samples per series on the `[0, t_end]` grid.
    pub samples: u64,
}

/// A mergeable shard of an ensemble aggregate.
///
/// Holds the per-species / per-sample sum and sum-of-squares over some
/// set of replicates, in exact accumulators, plus the replicate count,
/// the covered seed ranges, and the [`PartialFingerprint`] of the
/// model/grid. `merge` is associative and commutative **bitwise**
/// (exact arithmetic), which is what lets the process-level worker
/// protocol shard a replicate range arbitrarily and still reproduce
/// the single-process aggregate bit for bit.
///
/// # Seed-range accounting
///
/// Every accumulated replicate records its absolute seed, kept as a
/// sorted, disjoint, coalesced list of `(first_seed, count)` ranges
/// (ranges that would cross the top of the `u64` seed space are split
/// there). Accumulating an already-covered seed or merging partials
/// with overlapping coverage is rejected (`InvalidConfig`) instead of
/// silently double-counting — the resident query service extends
/// cached partials incrementally, and this is what turns "the shards
/// were disjoint" from an assumption into a checked invariant. Because
/// adjacent ranges coalesce, a partial extended `0..R` then `R..R+N`
/// is *equal* (including its coverage) to one accumulated `0..R+N`
/// fresh.
///
/// # One way in
///
/// A partial enters a process only through [`EnsemblePartial::new`],
/// [`EnsemblePartial::accumulate`], [`EnsemblePartial::merge`],
/// `clone`, or the GLCB decoder [`EnsemblePartial::decode_binary`].
/// The first four keep every structural invariant by construction;
/// the decoder checks them once, on the untrusted bytes. So `merge`
/// and `finalize` trust their operands' shape and check only what two
/// valid partials can still disagree on.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsemblePartial {
    fingerprint: PartialFingerprint,
    /// `sums[s * samples + k]` = Σ over replicates of species `s` at
    /// sample `k`.
    sums: Vec<ExactSum>,
    squares: Vec<ExactSum>,
    replicates: u64,
    /// Covered absolute seed ranges: sorted by start, pairwise
    /// disjoint, adjacent runs coalesced, never wrapping (a wrapping
    /// run is stored as its two non-wrapping halves).
    seed_ranges: Vec<(u64, u64)>,
}

impl EnsemblePartial {
    /// An empty partial for `model` on the `[0, t_end]` grid sampled
    /// every `sample_dt`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for a non-positive/non-finite grid
    /// or a model with no species (there would be nothing to
    /// aggregate).
    pub fn new(model: &CompiledModel, t_end: f64, sample_dt: f64) -> Result<Self, SimError> {
        if model.species_count() == 0 {
            return Err(SimError::InvalidConfig(
                "model has no species to aggregate".into(),
            ));
        }
        if !(sample_dt.is_finite() && sample_dt > 0.0) {
            return Err(SimError::InvalidConfig(format!(
                "sample_dt must be positive, got {sample_dt}"
            )));
        }
        if !(t_end.is_finite() && t_end >= 0.0) {
            return Err(SimError::InvalidConfig(format!(
                "t_end must be non-negative, got {t_end}"
            )));
        }
        // Replicates the recorder's sampling loop exactly (same float
        // additions), so the expected count matches what `simulate`
        // produces for this grid.
        let mut samples = 0u64;
        let mut t = 0.0f64;
        while t <= t_end + 1e-9 {
            samples += 1;
            t += sample_dt;
        }
        let slots = model.species_count() * samples as usize;
        Ok(EnsemblePartial {
            fingerprint: PartialFingerprint {
                model_id: model.id().to_string(),
                species: model.species_names().to_vec(),
                sample_dt,
                t_end,
                samples,
            },
            sums: vec![ExactSum::new(); slots],
            squares: vec![ExactSum::new(); slots],
            replicates: 0,
            seed_ranges: Vec::new(),
        })
    }

    /// The covered absolute seed ranges, as sorted, disjoint,
    /// coalesced `(first_seed, count)` runs (wrapping runs split at
    /// the top of the seed space).
    pub fn covered_seeds(&self) -> &[(u64, u64)] {
        &self.seed_ranges
    }

    /// Whether the coverage is exactly the contiguous run of
    /// `self.replicates()` seeds starting at `first` (wrapping) — the
    /// shape a resident session extends from.
    pub fn covers_contiguous_from(&self, first: u64) -> bool {
        if self.replicates == 0 {
            return self.seed_ranges.is_empty();
        }
        match self.seed_ranges.as_slice() {
            [(s, c)] => *s == first && *c == self.replicates,
            // A wrapped run splits into its top half and a
            // zero-based remainder.
            [(0, low), (s, c)] => {
                *s == first
                    && first != 0 // guards the capacity arithmetic below
                    && *c == u64::MAX - first + 1
                    && low.checked_add(*c) == Some(self.replicates)
            }
            _ => false,
        }
    }

    /// The model/grid identity this partial aggregates over.
    pub fn fingerprint(&self) -> &PartialFingerprint {
        &self.fingerprint
    }

    /// Number of replicates folded in so far.
    pub fn replicates(&self) -> u64 {
        self.replicates
    }

    /// Folds one replicate trace in, recording `seed` (the replicate's
    /// absolute seed) in the coverage accounting.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when the trace's species list,
    /// sampling interval or length disagree with the fingerprint —
    /// aggregating a mismatched trace would silently corrupt every
    /// moment, so the mismatch is rejected instead — or when `seed` is
    /// already covered (double-counting a replicate would skew every
    /// moment just as silently).
    pub fn accumulate(&mut self, trace: &Trace, seed: u64) -> Result<(), SimError> {
        if trace.species() != self.fingerprint.species.as_slice() {
            return Err(SimError::InvalidConfig(format!(
                "trace species {:?} do not match partial species {:?}",
                trace.species(),
                self.fingerprint.species
            )));
        }
        if trace.sample_dt() != self.fingerprint.sample_dt {
            return Err(SimError::InvalidConfig(format!(
                "trace sample_dt {} does not match partial sample_dt {}",
                trace.sample_dt(),
                self.fingerprint.sample_dt
            )));
        }
        if trace.len() as u64 != self.fingerprint.samples {
            return Err(SimError::InvalidConfig(format!(
                "trace has {} samples, partial grid expects {}",
                trace.len(),
                self.fingerprint.samples
            )));
        }
        // Record coverage before touching the accumulators so a
        // rejected duplicate leaves the moments untouched.
        insert_seed_run(&mut self.seed_ranges, seed, 1)?;
        let samples = self.fingerprint.samples as usize;
        for s in 0..self.fingerprint.species.len() {
            let series = trace.series_at(s);
            let base = s * samples;
            for (k, &v) in series.iter().enumerate() {
                self.sums[base + k].add(v);
                self.squares[base + k].add(v * v);
            }
        }
        self.replicates += 1;
        Ok(())
    }

    /// Checks every structural invariant a well-formed partial holds:
    /// a non-degenerate fingerprint, accumulator grids sized
    /// `species × samples` on both sides, canonical seed coverage
    /// (sorted, disjoint, coalesced, non-wrapping runs), and a
    /// replicate count that equals the covered seed total.
    ///
    /// Decoded bytes spell whatever shape the sender wrote, so
    /// [`EnsemblePartial::decode_binary`] runs this before a partial
    /// exists. (A short accumulator grid would otherwise truncate a
    /// zip-merge silently or panic `finalize`.)
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] naming the first violated invariant.
    fn validate(&self) -> Result<(), SimError> {
        let fp = &self.fingerprint;
        if fp.species.is_empty() {
            return Err(SimError::InvalidConfig(
                "partial fingerprint lists no species".into(),
            ));
        }
        if fp.samples == 0 {
            return Err(SimError::InvalidConfig(
                "partial fingerprint has a zero-sample grid".into(),
            ));
        }
        let slots = (fp.samples as usize).checked_mul(fp.species.len());
        if slots != Some(self.sums.len()) || slots != Some(self.squares.len()) {
            return Err(SimError::InvalidConfig(format!(
                "partial grid expects {} × {} accumulator cells, found {} sums / {} squares",
                fp.species.len(),
                fp.samples,
                self.sums.len(),
                self.squares.len()
            )));
        }
        // Re-inserting every run into a scratch list validates shape
        // (non-empty, non-wrapping) and disjointness; equality with the
        // stored list additionally pins the canonical sorted/coalesced
        // form, so two equal coverages are structurally identical.
        let mut coverage = Vec::with_capacity(self.seed_ranges.len());
        for &(start, count) in &self.seed_ranges {
            insert_seed_run(&mut coverage, start, count)?;
        }
        if coverage != self.seed_ranges {
            return Err(SimError::InvalidConfig(
                "partial seed coverage is not in canonical sorted/coalesced form".into(),
            ));
        }
        let covered: u128 = self.seed_ranges.iter().map(|&(_, c)| u128::from(c)).sum();
        if covered != u128::from(self.replicates) {
            return Err(SimError::InvalidConfig(format!(
                "partial claims {} replicates but its coverage holds {covered}",
                self.replicates
            )));
        }
        Ok(())
    }

    /// Merges `other` in. Associative and commutative bitwise; see the
    /// type docs.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] on a fingerprint mismatch or when the
    /// two coverages overlap (the shards double-counted at least one
    /// replicate). Both checks run before any accumulator is touched,
    /// so a rejected merge leaves `self` unchanged. Each side's own
    /// shape is not re-checked: see "One way in" on the type.
    pub fn merge(&mut self, other: &EnsemblePartial) -> Result<(), SimError> {
        if self.fingerprint != other.fingerprint {
            return Err(SimError::InvalidConfig(format!(
                "partial fingerprint mismatch: {:?} vs {:?}",
                self.fingerprint, other.fingerprint
            )));
        }
        // Rebuild the combined coverage on a scratch list: each side's
        // runs are canonical, so any rejection here is a genuine
        // cross-side overlap — and the scratch copy keeps merge
        // all-or-nothing.
        let mut coverage = Vec::with_capacity(self.seed_ranges.len() + other.seed_ranges.len());
        for &(start, count) in self.seed_ranges.iter().chain(&other.seed_ranges) {
            insert_seed_run(&mut coverage, start, count)?;
        }
        for (mine, theirs) in self.sums.iter_mut().zip(&other.sums) {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.squares.iter_mut().zip(&other.squares) {
            mine.merge(theirs);
        }
        self.replicates += other.replicates;
        self.seed_ranges = coverage;
        Ok(())
    }

    /// Resident memory of this partial in bytes: both accumulator
    /// grids (struct + digit-window heap per cell) plus the range and
    /// fingerprint bookkeeping. Feeds the bench's bytes-per-cached-cell
    /// footprint metric for the resident session store.
    pub fn footprint_bytes(&self) -> usize {
        let cells: usize = self
            .sums
            .iter()
            .chain(&self.squares)
            .map(ExactSum::footprint_bytes)
            .sum();
        cells
            + std::mem::size_of::<Self>()
            + self.seed_ranges.capacity() * std::mem::size_of::<(u64, u64)>()
            + self
                .fingerprint
                .species
                .iter()
                .map(String::len)
                .sum::<usize>()
    }

    /// Number of accumulator cells (`species × samples` each for sums
    /// and sums-of-squares).
    pub fn cells(&self) -> usize {
        self.sums.len() + self.squares.len()
    }

    /// Appends the GLCB binary form: the fingerprint (model id, species
    /// names, grid as `f64` bit patterns, sample count), the replicate
    /// count, the covered seed ranges as varint pairs, and both
    /// accumulator grids, each cell in the [`ExactSum::encode_binary`]
    /// layout: one zigzag varint for an integer total (every cell of an
    /// exact-engine partial), the canonical digit window otherwise.
    /// Each cell's bytes are a function of its exact total alone, so
    /// equal partials encode to identical bytes however they were
    /// accumulated, sharded or merged — which is what lets the wire
    /// and spill paths be compared bytewise with the in-process store.
    pub fn encode_binary(&self, buf: &mut Vec<u8>) {
        put_string(buf, &self.fingerprint.model_id);
        put_varint(buf, self.fingerprint.species.len() as u64);
        for name in &self.fingerprint.species {
            put_string(buf, name);
        }
        put_f64_bits(buf, self.fingerprint.sample_dt);
        put_f64_bits(buf, self.fingerprint.t_end);
        put_varint(buf, self.fingerprint.samples);
        put_varint(buf, self.replicates);
        put_varint(buf, self.seed_ranges.len() as u64);
        for &(start, count) in &self.seed_ranges {
            put_varint(buf, start);
            put_varint(buf, count);
        }
        put_varint(buf, self.sums.len() as u64);
        for sum in &self.sums {
            sum.encode_binary(buf);
        }
        put_varint(buf, self.squares.len() as u64);
        for square in &self.squares {
            square.encode_binary(buf);
        }
    }

    /// The GLCB binary form as an owned buffer (see
    /// [`EnsemblePartial::encode_binary`]).
    pub fn to_binary(&self) -> Vec<u8> {
        // An integer cell takes a flag byte plus a short varint (~2.3
        // bytes on the catalog's Direct partials); window cells run
        // longer and grow the buffer.
        let mut buf = Vec::with_capacity(64 + 3 * self.cells());
        self.encode_binary(&mut buf);
        buf
    }

    /// Decodes the [`EnsemblePartial::encode_binary`] form off
    /// `reader` and checks every structural invariant of the result —
    /// the one gate between untrusted bytes (worker replies, spill
    /// files) and a partial. Fail-closed on truncation, corrupt counts,
    /// mis-sized grids and non-canonical coverage.
    pub fn decode_binary(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let model_id = reader.string("partial model id")?;
        let species_count = reader.length("partial species", 1 << 20)?;
        let mut species = Vec::with_capacity(species_count);
        for _ in 0..species_count {
            species.push(reader.string("partial species name")?);
        }
        let sample_dt = reader.f64_bits("partial sample_dt")?;
        let t_end = reader.f64_bits("partial t_end")?;
        let samples = reader.varint("partial samples")?;
        let replicates = reader.varint("partial replicates")?;
        let range_count = reader.length("partial seed ranges", 1 << 20)?;
        let mut seed_ranges = Vec::with_capacity(range_count);
        for _ in 0..range_count {
            let start = reader.varint("seed range start")?;
            let count = reader.varint("seed range count")?;
            seed_ranges.push((start, count));
        }
        let cell_cap = 1 << 26;
        let sum_count = reader.length("partial sums", cell_cap)?;
        let mut sums = Vec::with_capacity(sum_count);
        for _ in 0..sum_count {
            sums.push(ExactSum::decode_binary(reader)?);
        }
        let square_count = reader.length("partial squares", cell_cap)?;
        let mut squares = Vec::with_capacity(square_count);
        for _ in 0..square_count {
            squares.push(ExactSum::decode_binary(reader)?);
        }
        let partial = EnsemblePartial {
            fingerprint: PartialFingerprint {
                model_id,
                species,
                sample_dt,
                t_end,
                samples,
            },
            sums,
            squares,
            replicates,
            seed_ranges,
        };
        partial
            .validate()
            .map_err(|err| WireError(format!("invalid partial payload: {err}")))?;
        Ok(partial)
    }

    /// Decodes a standalone [`EnsemblePartial::to_binary`] buffer,
    /// rejecting trailing bytes.
    pub fn from_binary(bytes: &[u8]) -> Result<Self, WireError> {
        let mut reader = Reader::new(bytes);
        let partial = Self::decode_binary(&mut reader)?;
        reader.expect_end("EnsemblePartial")?;
        Ok(partial)
    }

    /// Rounds the exact moments into mean / standard-deviation traces.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for an empty partial (no replicates)
    /// or a partial poisoned by non-finite trace values.
    pub fn finalize(&self) -> Result<Ensemble, SimError> {
        if self.replicates == 0 {
            return Err(SimError::InvalidConfig(
                "cannot finalize a partial with zero replicates".into(),
            ));
        }
        let species = self.fingerprint.species.len();
        let samples = self.fingerprint.samples as usize;
        let n = self.replicates as f64;
        let mut mean = Trace::new(
            self.fingerprint.species.clone(),
            self.fingerprint.sample_dt,
            0.0,
        );
        let mut std_dev = Trace::new(
            self.fingerprint.species.clone(),
            self.fingerprint.sample_dt,
            0.0,
        );
        let mut mean_row = vec![0.0; species];
        let mut std_row = vec![0.0; species];
        for k in 0..samples {
            for s in 0..species {
                let sum = self.sums[s * samples + k].value();
                let square = self.squares[s * samples + k].value();
                if !(sum.is_finite() && square.is_finite()) {
                    return Err(SimError::InvalidConfig(format!(
                        "partial poisoned by non-finite values (species `{}`, sample {k})",
                        self.fingerprint.species[s]
                    )));
                }
                let m = sum / n;
                mean_row[s] = m;
                std_row[s] = (square / n - m * m).max(0.0).sqrt();
            }
            mean.push_row(&mean_row);
            std_dev.push_row(&std_row);
        }
        Ok(Ensemble {
            mean,
            std_dev,
            replicates: self.replicates as usize,
        })
    }
}

/// Inserts the non-wrapping seed run `start .. start + count` into a
/// coverage list (sorted, disjoint, coalesced `(first_seed, count)`
/// runs), rejecting any overlap and coalescing with adjacent runs.
/// Runs never wrap: per-replicate accounting inserts one seed at a
/// time, so a shard straddling the top of the seed space naturally
/// records as its two non-wrapping halves (which keeps fresh and
/// extended coverage of the same seeds structurally identical).
///
/// Rejects a malformed incoming run (`count == 0`, or a run crossing
/// the top of the seed space): `validate` feeds this with decoded runs,
/// which are untrusted. The runs already in `ranges` are canonical.
fn insert_seed_run(ranges: &mut Vec<(u64, u64)>, start: u64, count: u64) -> Result<(), SimError> {
    if count == 0 {
        return Err(SimError::InvalidConfig(format!(
            "empty seed range at {start} (count must be >= 1)"
        )));
    }
    // Inclusive end: avoids overflow at u64::MAX for valid runs, and
    // catches runs that would wrap (only a corrupt payload makes one).
    let Some(end) = start.checked_add(count - 1) else {
        return Err(SimError::InvalidConfig(format!(
            "seed range {start}+{count} wraps the seed space"
        )));
    };
    // Index of the first covered run starting after `start`.
    let at = ranges.partition_point(|&(s, _)| s <= start);
    if let Some(&(s, c)) = at.checked_sub(1).and_then(|i| ranges.get(i)) {
        // Predecessor starts at or before `start`: overlap iff it
        // reaches `start`.
        if s + (c - 1) >= start {
            return Err(SimError::InvalidConfig(format!(
                "seed range {start}+{count} overlaps covered range {s}+{c}"
            )));
        }
    }
    if let Some(&(s, c)) = ranges.get(at) {
        if s <= end {
            return Err(SimError::InvalidConfig(format!(
                "seed range {start}+{count} overlaps covered range {s}+{c}"
            )));
        }
    }
    ranges.insert(at, (start, count));
    // Coalesce with the successor, then the predecessor. A count sum
    // that would overflow u64 (coverage spanning the whole seed
    // space) skips coalescing — two adjacent runs are still correct.
    if let Some(&(s, c)) = ranges.get(at + 1) {
        if end.checked_add(1) == Some(s) {
            if let Some(combined) = ranges[at].1.checked_add(c) {
                ranges[at].1 = combined;
                ranges.remove(at + 1);
            }
        }
    }
    if at > 0 {
        let (ps, pc) = ranges[at - 1];
        // Predecessor was validated non-overlapping above, so its end
        // is < start <= u64::MAX and the +1 cannot overflow.
        if ps + (pc - 1) + 1 == start {
            if let Some(combined) = ranges[at - 1].1.checked_add(ranges[at].1) {
                ranges[at - 1].1 = combined;
                ranges.remove(at);
            }
        }
    }
    Ok(())
}

/// Runs the contiguous seed range `seeds` of replicates sequentially on
/// the calling thread and returns their partial aggregate.
///
/// This is the shard primitive shared by the in-process
/// [`run_ensemble`] and the process-level `glc-worker` protocol:
/// replicate seeds are absolute (`base_seed + replicate_index`), so a
/// worker handed `base_seed + first .. base_seed + first + count` and
/// the in-process path produce interchangeable partials.
///
/// # Errors
///
/// Propagates the first (lowest-index) [`SimError`] a replicate
/// produces, and [`SimError::InvalidConfig`] for an invalid grid/model
/// (see [`EnsemblePartial::new`]).
pub fn run_partial<F>(
    model: &CompiledModel,
    make_engine: F,
    seeds: Range<u64>,
    t_end: f64,
    sample_dt: f64,
) -> Result<EnsemblePartial, SimError>
where
    F: Fn() -> Box<dyn Engine>,
{
    let count = seeds.end.saturating_sub(seeds.start);
    run_partial_from(model, make_engine, seeds.start, count, t_end, sample_dt)
}

/// Like [`run_partial`], but with the shard given as a first seed and a
/// replicate count. Seeds advance with wrapping arithmetic, so shards
/// whose range crosses the top of the `u64` seed space still simulate
/// every replicate (a `Range<u64>` would be empty there) — the
/// convention `run_ensemble` and the worker protocol both follow for
/// `base_seed + i`.
///
/// # Errors
///
/// See [`run_partial`].
pub fn run_partial_from<F>(
    model: &CompiledModel,
    make_engine: F,
    first_seed: u64,
    count: u64,
    t_end: f64,
    sample_dt: f64,
) -> Result<EnsemblePartial, SimError>
where
    F: Fn() -> Box<dyn Engine>,
{
    let mut partial = EnsemblePartial::new(model, t_end, sample_dt)?;
    let mut engine = make_engine();
    accumulate_range(model, engine.as_mut(), &mut partial, first_seed, count)
        .map_err(|(_, err)| err)?;
    Ok(partial)
}

/// Simulates `count` replicates seeded `first_seed`, `first_seed + 1`,
/// … (wrapping) into `partial`, reporting the zero-based offset of a
/// failing replicate alongside its error so callers can order failures
/// across shards.
///
/// The engine gets [`Engine::lanes`] seeds at a time through
/// [`simulate_lanes`] (fewer in the last batch). Every replicate's
/// trace is its `simulate` bits either way, and the first failing
/// seed's error is the one reported.
fn accumulate_range(
    model: &CompiledModel,
    engine: &mut dyn Engine,
    partial: &mut EnsemblePartial,
    first_seed: u64,
    count: u64,
) -> Result<(), (u64, SimError)> {
    let (t_end, sample_dt) = (partial.fingerprint.t_end, partial.fingerprint.sample_dt);
    let width = engine.lanes().max(1) as u64;
    let mut offset = 0;
    while offset < count {
        let n = width.min(count - offset);
        let seeds: Vec<u64> = (offset..offset + n)
            .map(|o| first_seed.wrapping_add(o))
            .collect();
        let traces = simulate_lanes(model, engine, t_end, sample_dt, &seeds);
        for ((trace, seed), at) in traces.into_iter().zip(seeds).zip(offset..) {
            let trace = trace.map_err(|e| (at, e))?;
            partial.accumulate(&trace, seed).map_err(|e| (at, e))?;
        }
        offset += n;
    }
    Ok(())
}

/// Runs `replicates` independent simulations of `model` until `t_end`
/// (sampled every `sample_dt`), seeding replicate `i` with
/// `base_seed + i`, spread across `threads` workers.
///
/// `make_engine` is called once per worker to create that worker's
/// engine (engines are stateful scratch, not shareable).
///
/// Implemented as a thin shard-then-merge over [`run_partial`]'s
/// accumulation: workers claim contiguous replicate chunks from an
/// atomic counter and fold them into per-worker [`EnsemblePartial`]s,
/// which merge into the final aggregate. Exact accumulation makes the
/// result bitwise independent of `threads` and of the chunking — the
/// same property the distributed coordinator relies on.
///
/// # Errors
///
/// Returns the [`SimError`] of the lowest failing replicate index
/// among the failures observed before the early-abort took effect
/// (with a single failing replicate this is deterministic; with
/// several failing concurrently, which error wins can depend on
/// scheduling), and [`SimError::InvalidConfig`] for zero
/// `replicates`/`threads` or a model with no species.
pub fn run_ensemble<F>(
    model: &CompiledModel,
    make_engine: F,
    replicates: usize,
    t_end: f64,
    sample_dt: f64,
    base_seed: u64,
    threads: usize,
) -> Result<Ensemble, SimError>
where
    F: Fn() -> Box<dyn Engine> + Sync,
{
    if replicates == 0 {
        return Err(SimError::InvalidConfig("replicates must be >= 1".into()));
    }
    if threads == 0 {
        return Err(SimError::InvalidConfig("threads must be >= 1".into()));
    }
    // Validate the grid/model up front (and on the error path below).
    let template = EnsemblePartial::new(model, t_end, sample_dt)?;

    let worker_count = threads.min(replicates);
    // Contiguous chunks, claimed dynamically for load balance. The
    // aggregate is chunking-independent (exact accumulation), so the
    // chunk size is purely a scheduling knob: a few chunks per worker
    // amortizes engine setup while still smoothing uneven replicates.
    let chunk_size = replicates.div_ceil(worker_count * 4).max(1);
    let chunk_count = replicates.div_ceil(chunk_size);
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let make_engine = &make_engine;
    let template = &template;

    type WorkerOutcome = (Option<EnsemblePartial>, Option<(usize, SimError)>);
    let outcomes: Vec<WorkerOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..worker_count)
            .map(|_| {
                let next = &next;
                let abort = &abort;
                scope.spawn(move || -> WorkerOutcome {
                    let mut engine = make_engine();
                    let mut local: Option<EnsemblePartial> = None;
                    let mut failure: Option<(usize, SimError)> = None;
                    loop {
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        let chunk = next.fetch_add(1, Ordering::Relaxed);
                        if chunk >= chunk_count {
                            break;
                        }
                        let first = chunk * chunk_size;
                        let count = chunk_size.min(replicates - first);
                        let partial = local.get_or_insert_with(|| template.clone());
                        // Seeds advance with wrapping arithmetic so an
                        // ensemble whose seeds straddle u64::MAX still
                        // runs every replicate.
                        if let Err((offset, err)) = accumulate_range(
                            model,
                            engine.as_mut(),
                            partial,
                            base_seed.wrapping_add(first as u64),
                            count as u64,
                        ) {
                            // Chunks are claimed in ascending order per
                            // worker, so the first failure is this
                            // worker's lowest replicate.
                            failure = Some((first + offset as usize, err));
                            abort.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                    (local, failure)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("ensemble worker panicked"))
            .collect()
    });

    // Deterministic preference, best effort: the lowest failing
    // replicate among the failures observed before the abort landed.
    // (A worker that aborts before reaching its own failing chunk
    // records nothing, so with multiple concurrent failures the winner
    // can still depend on scheduling.)
    if let Some((_, err)) = outcomes
        .iter()
        .filter_map(|(_, failure)| failure.as_ref())
        .min_by_key(|(replicate, _)| *replicate)
    {
        return Err(err.clone());
    }

    let mut merged: Option<EnsemblePartial> = None;
    for (partial, _) in outcomes {
        let Some(partial) = partial else { continue };
        match &mut merged {
            None => merged = Some(partial),
            Some(total) => total.merge(&partial)?,
        }
    }
    let merged = merged.expect("replicates >= 1 and no error");
    debug_assert_eq!(merged.replicates(), replicates as u64);
    merged.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::Direct;
    use crate::langevin::Langevin;
    use crate::ode;
    use crate::simulate;
    use glc_model::{Model, ModelBuilder};

    fn birth_death() -> CompiledModel {
        let model = ModelBuilder::new("bd")
            .species("X", 0.0)
            .parameter("kp", 5.0)
            .parameter("kd", 0.1)
            .reaction("prod", &[], &["X"], "kp")
            .unwrap()
            .reaction("deg", &["X"], &[], "kd * X")
            .unwrap()
            .build()
            .unwrap();
        CompiledModel::new(&model).unwrap()
    }

    /// GLCB bytes of a `birth_death` partial on the `[0, 2]` grid
    /// sampled every 1.0 (3 samples), spelled field by field so a test
    /// can forge its replicate count, its seed runs, or the cell counts
    /// of its sums and squares grids (every cell zero).
    fn forged(replicates: u64, runs: &[(u64, u64)], sums: usize, squares: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        put_string(&mut buf, "bd");
        put_varint(&mut buf, 1);
        put_string(&mut buf, "X");
        put_f64_bits(&mut buf, 1.0);
        put_f64_bits(&mut buf, 2.0);
        put_varint(&mut buf, 3); // samples
        put_varint(&mut buf, replicates);
        put_varint(&mut buf, runs.len() as u64);
        for &(start, count) in runs {
            put_varint(&mut buf, start);
            put_varint(&mut buf, count);
        }
        for cells in [sums, squares] {
            put_varint(&mut buf, cells as u64);
            for _ in 0..cells {
                ExactSum::new().encode_binary(&mut buf);
            }
        }
        buf
    }

    #[test]
    fn ensemble_mean_tracks_the_ode_solution() {
        let model = birth_death();
        let ensemble =
            run_ensemble(&model, || Box::new(Direct::new()), 64, 60.0, 5.0, 7, 4).unwrap();
        assert_eq!(ensemble.replicates, 64);
        let ode_trace = ode::integrate(&model, 60.0, 0.01, 5.0).unwrap();
        let mean = ensemble.mean.series("X").unwrap();
        let expected = ode_trace.series("X").unwrap();
        assert_eq!(mean.len(), expected.len());
        for (k, (&m, &e)) in mean.iter().zip(expected).enumerate().skip(1) {
            // Standard error of 64 replicates around Poisson-ish spread.
            assert!((m - e).abs() < 4.0, "sample {k}: ensemble {m} vs ODE {e}");
        }
    }

    #[test]
    fn ensemble_std_matches_poisson_at_stationarity() {
        let model = birth_death();
        let ensemble =
            run_ensemble(&model, || Box::new(Direct::new()), 128, 120.0, 10.0, 3, 4).unwrap();
        let std = ensemble.std_dev.series("X").unwrap();
        // Stationary distribution is Poisson(50): σ = √50 ≈ 7.07.
        let last = *std.last().unwrap();
        assert!((last - 50.0f64.sqrt()).abs() < 2.0, "σ = {last}");
        // Initial condition is deterministic: σ(0) = 0.
        assert_eq!(std[0], 0.0);
    }

    #[test]
    fn deterministic_given_base_seed() {
        let model = birth_death();
        let run = |threads| {
            run_ensemble(
                &model,
                || Box::new(Direct::new()),
                16,
                30.0,
                5.0,
                11,
                threads,
            )
            .unwrap()
        };
        // Seeds are assigned per replicate index, so thread count must
        // not change the aggregate.
        assert_eq!(run(1).mean, run(4).mean);
    }

    #[test]
    fn deterministic_for_non_integral_traces_too() {
        // Langevin traces are continuous-valued, so this exercises the
        // exact accumulators: plain f64 merge-on-arrival would make the
        // result depend on grouping through fp non-associativity.
        let model = birth_death();
        let run = |threads| {
            run_ensemble(
                &model,
                || Box::new(Langevin::new(0.05).unwrap()),
                12,
                20.0,
                2.0,
                23,
                threads,
            )
            .unwrap()
        };
        let single = run(1);
        let multi = run(3);
        assert_eq!(single.mean, multi.mean);
        assert_eq!(single.std_dev, multi.std_dev);
    }

    #[test]
    fn run_partial_shards_reproduce_run_ensemble_bitwise() {
        let model = birth_death();
        let reference = run_ensemble(
            &model,
            || Box::new(Langevin::new(0.05).unwrap()),
            9,
            10.0,
            1.0,
            5,
            1,
        )
        .unwrap();
        // Shard 0..9 as [0,4) + [4,9), merged in either order.
        let engine = || Box::new(Langevin::new(0.05).unwrap()) as Box<dyn Engine>;
        let a = run_partial(&model, engine, 5..9, 10.0, 1.0).unwrap();
        let b = run_partial(&model, engine, 9..14, 10.0, 1.0).unwrap();
        let mut forward = a.clone();
        forward.merge(&b).unwrap();
        let mut backward = b.clone();
        backward.merge(&a).unwrap();
        for merged in [forward, backward] {
            let ensemble = merged.finalize().unwrap();
            assert_eq!(ensemble.replicates, reference.replicates);
            assert_eq!(ensemble.mean, reference.mean);
            assert_eq!(ensemble.std_dev, reference.std_dev);
        }
    }

    #[test]
    fn seed_space_wraparound_runs_every_replicate() {
        // A base seed near u64::MAX makes `base_seed + i` wrap; seeds
        // advance with wrapping arithmetic, so no replicate may be
        // silently dropped (a `Range<u64>` across the wrap is empty).
        let model = birth_death();
        let ensemble = run_ensemble(
            &model,
            || Box::new(Direct::new()),
            4,
            2.0,
            1.0,
            u64::MAX - 1,
            2,
        )
        .unwrap();
        assert_eq!(ensemble.replicates, 4);
        let engine = || Box::new(Direct::new()) as Box<dyn Engine>;
        let partial = run_partial_from(&model, engine, u64::MAX - 1, 4, 2.0, 1.0).unwrap();
        assert_eq!(partial.replicates(), 4);
        let reference = partial.finalize().unwrap();
        assert_eq!(ensemble.mean, reference.mean);
        assert_eq!(ensemble.std_dev, reference.std_dev);
    }

    #[test]
    fn partial_binary_round_trip_is_bitwise_and_fails_closed() {
        let model = birth_death();
        let engine = || Box::new(Langevin::new(0.1).unwrap()) as Box<dyn Engine>;
        // A Langevin partial (non-integral cells), a wrap-straddling
        // one, and an empty one.
        let mut cases = vec![
            run_partial(&model, engine, 3..7, 8.0, 2.0).unwrap(),
            run_partial_from(&model, engine, u64::MAX - 1, 4, 2.0, 1.0).unwrap(),
            EnsemblePartial::new(&model, 8.0, 2.0).unwrap(),
        ];
        // And a poisoned one: an infinite trace value poisons cells.
        let mut poisoned = EnsemblePartial::new(&model, 2.0, 1.0).unwrap();
        let mut hot = Trace::new(vec!["X".into()], 1.0, 0.0);
        for _ in 0..3 {
            hot.push_row(&[f64::INFINITY]);
        }
        poisoned.accumulate(&hot, 0).unwrap();
        cases.push(poisoned);
        for partial in &cases {
            let bytes = partial.to_binary();
            let back = EnsemblePartial::from_binary(&bytes).unwrap();
            assert_eq!(&back, partial);
            assert_eq!(back.to_binary(), bytes, "canonical re-encode");
            // Truncations fail closed (sampled for speed).
            for cut in (0..bytes.len()).step_by(17) {
                assert!(EnsemblePartial::from_binary(&bytes[..cut]).is_err());
            }
            assert!(EnsemblePartial::from_binary(&[]).is_err());
            let mut trailing = bytes.clone();
            trailing.push(0);
            assert!(EnsemblePartial::from_binary(&trailing).is_err());
        }
        // A structurally invalid payload (overlapping coverage) is
        // rejected at decode, not trusted; the same bytes with one run
        // decode, so the overlap is what fails.
        let control = EnsemblePartial::from_binary(&forged(1, &[(1, 1)], 3, 3)).unwrap();
        assert_eq!(control.covered_seeds(), &[(1, 1)]);
        assert!(EnsemblePartial::from_binary(&forged(2, &[(1, 1), (1, 1)], 3, 3)).is_err());
    }

    #[test]
    fn mismatched_traces_are_rejected_not_mismerged() {
        // Regression for the latent pre-refactor hazard: the merge loop
        // sized its buffers from the first arriving trace and silently
        // assumed every later trace matched. Injected mismatches (as a
        // buggy or misconfigured engine/worker would produce) must now
        // be InvalidConfig errors.
        let model = birth_death();
        let mut partial = EnsemblePartial::new(&model, 4.0, 1.0).unwrap();
        let good = simulate(&model, &mut Direct::new(), 4.0, 1.0, 1).unwrap();
        partial.accumulate(&good, 1).unwrap();

        // Wrong length: a trace cut short mid-run.
        let mut short = Trace::new(vec!["X".into()], 1.0, 0.0);
        short.push_row(&[1.0]);
        short.push_row(&[2.0]);
        let err = partial.accumulate(&short, 2).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err:?}");

        // Wrong species set.
        let mut alien = Trace::new(vec!["Y".into()], 1.0, 0.0);
        for _ in 0..5 {
            alien.push_row(&[0.0]);
        }
        let err = partial.accumulate(&alien, 3).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err:?}");

        // Wrong sampling interval.
        let mut coarse = Trace::new(vec!["X".into()], 2.0, 0.0);
        for _ in 0..5 {
            coarse.push_row(&[0.0]);
        }
        let err = partial.accumulate(&coarse, 4).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err:?}");

        // A duplicate seed is double-counting, even with a valid trace.
        let err = partial.accumulate(&good, 1).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err:?}");

        // The rejected traces must not have corrupted the aggregate.
        assert_eq!(partial.replicates(), 1);
        let mut clean = EnsemblePartial::new(&model, 4.0, 1.0).unwrap();
        clean.accumulate(&good, 1).unwrap();
        assert_eq!(partial, clean);
    }

    #[test]
    fn seed_coverage_is_tracked_coalesced_and_validated() {
        let model = birth_death();
        let engine = || Box::new(Direct::new()) as Box<dyn Engine>;
        // Extend path: 10..13 then 13..15 coalesces to one run…
        let mut extended = run_partial(&model, engine, 10..13, 4.0, 1.0).unwrap();
        assert_eq!(extended.covered_seeds(), &[(10, 3)]);
        let next = run_partial(&model, engine, 13..15, 4.0, 1.0).unwrap();
        extended.merge(&next).unwrap();
        assert_eq!(extended.covered_seeds(), &[(10, 5)]);
        assert!(extended.covers_contiguous_from(10));
        assert!(!extended.covers_contiguous_from(11));
        // …and is *equal* to the fresh 10..15 partial, coverage
        // included (the resident-extend contract).
        let fresh = run_partial(&model, engine, 10..15, 4.0, 1.0).unwrap();
        assert_eq!(extended, fresh);

        // Overlapping shards are rejected and leave self untouched.
        let overlap = run_partial(&model, engine, 12..14, 4.0, 1.0).unwrap();
        let before = extended.clone();
        let err = extended.merge(&overlap).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err:?}");
        assert_eq!(extended, before);

        // Disjoint non-adjacent shards keep separate runs.
        let gap = run_partial(&model, engine, 20..22, 4.0, 1.0).unwrap();
        extended.merge(&gap).unwrap();
        assert_eq!(extended.covered_seeds(), &[(10, 5), (20, 2)]);
        assert!(!extended.covers_contiguous_from(10));
    }

    #[test]
    fn seed_coverage_splits_at_the_top_of_the_seed_space() {
        let model = birth_death();
        let engine = || Box::new(Direct::new()) as Box<dyn Engine>;
        let partial = run_partial_from(&model, engine, u64::MAX - 1, 4, 2.0, 1.0).unwrap();
        // Seeds MAX-1, MAX, 0, 1: two non-wrapping halves.
        assert_eq!(partial.covered_seeds(), &[(0, 2), (u64::MAX - 1, 2)]);
        assert!(partial.covers_contiguous_from(u64::MAX - 1));
        assert!(!partial.covers_contiguous_from(0));
        // The wrapped coverage is reproduced identically by an
        // extend-style split at the wrap point.
        let mut extended = run_partial_from(&model, engine, u64::MAX - 1, 2, 2.0, 1.0).unwrap();
        let rest = run_partial_from(&model, engine, 0, 2, 2.0, 1.0).unwrap();
        extended.merge(&rest).unwrap();
        assert_eq!(extended, partial);
    }

    #[test]
    fn malformed_deserialized_coverage_is_rejected_not_trusted() {
        // Decoded bytes may claim a wrapping or empty run that
        // accumulate would never produce, or a replicate count the
        // coverage does not hold. Each forgery fails closed at decode,
        // so no partial downstream ever carries one.
        assert!(EnsemblePartial::from_binary(&forged(1, &[(1, 1)], 3, 3)).is_ok());
        for bogus in [
            forged(u64::MAX, &[(10, u64::MAX)], 3, 3), // wraps the seed space
            forged(0, &[(5, 0)], 3, 3),                // an empty run
            forged(3, &[(1, 1)], 3, 3),                // 3 replicates, 1 seed
        ] {
            let err = EnsemblePartial::from_binary(&bogus).unwrap_err();
            assert!(err.0.contains("invalid partial payload"), "{err}");
        }
    }

    #[test]
    fn truncated_accumulator_grids_are_rejected_not_zipped_short() {
        // A grid shorter than species × samples (a truncated or
        // hand-corrupted snapshot) would truncate `merge`'s zip silently
        // and panic `finalize`; unsorted or uncoalesced coverage would
        // make equal partials compare unequal. Decode rejects them all.
        assert!(EnsemblePartial::from_binary(&forged(2, &[(1, 2)], 3, 3)).is_ok());
        for bogus in [
            forged(2, &[(1, 2)], 2, 3),         // sums one cell short
            forged(2, &[(1, 2)], 3, 2),         // squares one cell short
            forged(2, &[(2, 1), (1, 1)], 3, 3), // unsorted coverage
            forged(2, &[(1, 1), (2, 1)], 3, 3), // uncoalesced coverage
        ] {
            let err = EnsemblePartial::from_binary(&bogus).unwrap_err();
            assert!(err.0.contains("invalid partial payload"), "{err}");
        }
    }

    #[test]
    fn mismatched_partials_refuse_to_merge() {
        let model = birth_death();
        let engine = || Box::new(Direct::new()) as Box<dyn Engine>;
        let mut a = run_partial(&model, engine, 0..2, 4.0, 1.0).unwrap();
        // Different grid.
        let b = run_partial(&model, engine, 2..4, 4.0, 2.0).unwrap();
        let err = a.merge(&b).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err:?}");
        // Different model.
        let other = ModelBuilder::new("other")
            .species("X", 0.0)
            .reaction("prod", &[], &["X"], "1.0")
            .unwrap()
            .build()
            .unwrap();
        let other = CompiledModel::new(&other).unwrap();
        let c = run_partial(&other, engine, 0..2, 4.0, 1.0).unwrap();
        let err = a.merge(&c).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn empty_partial_cannot_finalize() {
        let model = birth_death();
        let partial = EnsemblePartial::new(&model, 4.0, 1.0).unwrap();
        assert!(matches!(
            partial.finalize(),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn config_validation() {
        let model = birth_death();
        assert!(run_ensemble(&model, || Box::new(Direct::new()), 0, 1.0, 1.0, 0, 1).is_err());
        assert!(run_ensemble(&model, || Box::new(Direct::new()), 1, 1.0, 1.0, 0, 0).is_err());
        assert!(EnsemblePartial::new(&model, 1.0, 0.0).is_err());
        assert!(EnsemblePartial::new(&model, -1.0, 1.0).is_err());
    }

    #[test]
    fn zero_species_model_is_rejected_not_a_panic() {
        let model = Model::from_parts("empty", vec![], vec![], vec![]).unwrap();
        let compiled = CompiledModel::new(&model).unwrap();
        let err =
            run_ensemble(&compiled, || Box::new(Direct::new()), 4, 1.0, 1.0, 0, 2).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn replicate_failures_propagate() {
        let model = ModelBuilder::new("bad")
            .species("X", 0.0)
            .reaction("boom", &[], &["X"], "1 / X")
            .unwrap()
            .build()
            .unwrap();
        let compiled = CompiledModel::new(&model).unwrap();
        let err =
            run_ensemble(&compiled, || Box::new(Direct::new()), 4, 1.0, 1.0, 0, 2).unwrap_err();
        assert!(matches!(err, SimError::NonFinitePropensity { .. }));
        let engine = || Box::new(Direct::new()) as Box<dyn Engine>;
        let err = run_partial(&compiled, engine, 0..4, 1.0, 1.0).unwrap_err();
        assert!(matches!(err, SimError::NonFinitePropensity { .. }));
    }
}
