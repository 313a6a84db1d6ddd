//! Deterministic reaction-rate integration (classic RK4).
//!
//! The paper stresses that ODEs are the *wrong* model for small molecule
//! counts \[6\]; this integrator exists as a cross-check — the stochastic
//! mean of a linear (or weakly nonlinear) circuit should track the ODE
//! solution — and for quick, noise-free previews of circuit behaviour.

use crate::compiled::CompiledModel;
use crate::error::SimError;
use crate::trace::Trace;
use glc_model::expr::EvalMemo;

/// Integrates the reaction-rate equations of `model` from its initial
/// state over `[0, t_end]` with fixed step `dt`, sampling every
/// `sample_dt` (zero-order hold on the integration grid).
///
/// Species amounts are treated as continuous concentrations; boundary
/// species stay clamped at their initial amounts (matching stochastic
/// semantics). Negative excursions are clamped to zero.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for non-positive `dt`/`sample_dt`,
/// and propagates propensity evaluation failures.
pub fn integrate(
    model: &CompiledModel,
    t_end: f64,
    dt: f64,
    sample_dt: f64,
) -> Result<Trace, SimError> {
    if !(dt.is_finite() && dt > 0.0) {
        return Err(SimError::InvalidConfig(format!(
            "dt must be positive and finite, got {dt}"
        )));
    }
    if !(sample_dt.is_finite() && sample_dt > 0.0) {
        return Err(SimError::InvalidConfig(format!(
            "sample_dt must be positive and finite, got {sample_dt}"
        )));
    }
    let mut state = model.initial_state();
    let species_count = model.species_count();
    let mut trace = Trace::new(model.species_names().to_vec(), sample_dt, 0.0);
    let mut next_sample = 0.0;

    let mut stack = Vec::new();
    let mut rates = Vec::new();
    let mut memo = EvalMemo::new();
    let mut scratch = state.clone();
    let mut k = vec![vec![0.0; species_count]; 4];

    while state.t < t_end {
        while next_sample <= state.t + 1e-12 && next_sample <= t_end + 1e-9 {
            trace.push_row(&state.values[..species_count]);
            next_sample += sample_dt;
        }
        let h = dt.min(t_end - state.t);

        // RK4 stages: derivative at the state, twice at midpoints, at the
        // endpoint.
        derivative(
            model,
            &state.values,
            state.t,
            &mut k[0],
            &mut rates,
            &mut stack,
            &mut memo,
        )?;
        stage(
            &state.values,
            &k[0],
            h / 2.0,
            species_count,
            &mut scratch.values,
        );
        derivative(
            model,
            &scratch.values,
            state.t + h / 2.0,
            &mut k[1],
            &mut rates,
            &mut stack,
            &mut memo,
        )?;
        stage(
            &state.values,
            &k[1],
            h / 2.0,
            species_count,
            &mut scratch.values,
        );
        derivative(
            model,
            &scratch.values,
            state.t + h / 2.0,
            &mut k[2],
            &mut rates,
            &mut stack,
            &mut memo,
        )?;
        stage(&state.values, &k[2], h, species_count, &mut scratch.values);
        derivative(
            model,
            &scratch.values,
            state.t + h,
            &mut k[3],
            &mut rates,
            &mut stack,
            &mut memo,
        )?;

        for (s, value) in state.values.iter_mut().take(species_count).enumerate() {
            let increment = h / 6.0 * (k[0][s] + 2.0 * k[1][s] + 2.0 * k[2][s] + k[3][s]);
            *value = (*value + increment).max(0.0);
        }
        state.t += h;
    }
    while next_sample <= t_end + 1e-9 {
        trace.push_row(&state.values[..species_count]);
        next_sample += sample_dt;
    }
    Ok(trace)
}

/// Writes `d(species)/dt` into `out` given the full value vector.
///
/// All reaction rates come from one memoized sweep over the model's
/// laws into `rates` (no per-stage probe-state allocation), then fold into
/// the species derivative in reaction order — the same accumulation
/// order as the previous per-reaction loop.
fn derivative(
    model: &CompiledModel,
    values: &[f64],
    t: f64,
    out: &mut [f64],
    rates: &mut Vec<f64>,
    stack: &mut Vec<f64>,
    memo: &mut EvalMemo,
) -> Result<(), SimError> {
    model.propensities_at(values, t, rates, stack, memo)?;
    out.fill(0.0);
    for (r, &rate) in rates.iter().enumerate() {
        for &(slot, delta) in model.delta(r) {
            out[slot] += rate * delta as f64;
        }
    }
    Ok(())
}

fn stage(base: &[f64], slope: &[f64], h: f64, species_count: usize, out: &mut [f64]) {
    out.copy_from_slice(base);
    for s in 0..species_count {
        out[s] = (base[s] + h * slope[s]).max(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glc_model::ModelBuilder;

    #[test]
    fn exponential_decay_matches_analytic_solution() {
        let model = ModelBuilder::new("decay")
            .species("X", 100.0)
            .parameter("k", 0.5)
            .reaction("deg", &["X"], &[], "k * X")
            .unwrap()
            .build()
            .unwrap();
        let compiled = CompiledModel::new(&model).unwrap();
        let trace = integrate(&compiled, 10.0, 0.01, 1.0).unwrap();
        let xs = trace.series("X").unwrap();
        for (k, &x) in xs.iter().enumerate() {
            let expected = 100.0 * (-0.5 * k as f64).exp();
            assert!(
                (x - expected).abs() < 0.01,
                "t = {k}: {x} vs analytic {expected}"
            );
        }
    }

    #[test]
    fn production_degradation_reaches_fixed_point() {
        let model = ModelBuilder::new("pd")
            .species("X", 0.0)
            .parameter("kp", 5.0)
            .parameter("kd", 0.1)
            .reaction("prod", &[], &["X"], "kp")
            .unwrap()
            .reaction("deg", &["X"], &[], "kd * X")
            .unwrap()
            .build()
            .unwrap();
        let compiled = CompiledModel::new(&model).unwrap();
        let trace = integrate(&compiled, 100.0, 0.05, 10.0).unwrap();
        let xs = trace.series("X").unwrap();
        assert!((xs.last().unwrap() - 50.0).abs() < 0.1);
    }

    #[test]
    fn boundary_species_stay_clamped() {
        let model = ModelBuilder::new("b")
            .boundary_species("I", 10.0)
            .species("P", 0.0)
            .reaction("consume", &["I"], &["P"], "I")
            .unwrap()
            .build()
            .unwrap();
        let compiled = CompiledModel::new(&model).unwrap();
        let trace = integrate(&compiled, 1.0, 0.01, 0.5).unwrap();
        assert!(trace.series("I").unwrap().iter().all(|&v| v == 10.0));
        assert!(*trace.series("P").unwrap().last().unwrap() > 5.0);
    }

    #[test]
    fn rejects_bad_steps() {
        let model = ModelBuilder::new("m").species("X", 0.0).build().unwrap();
        let compiled = CompiledModel::new(&model).unwrap();
        assert!(integrate(&compiled, 1.0, 0.0, 1.0).is_err());
        assert!(integrate(&compiled, 1.0, 0.1, -1.0).is_err());
    }

    #[test]
    fn trace_covers_horizon_inclusively() {
        let model = ModelBuilder::new("m").species("X", 1.0).build().unwrap();
        let compiled = CompiledModel::new(&model).unwrap();
        let trace = integrate(&compiled, 5.0, 0.1, 1.0).unwrap();
        assert_eq!(trace.len(), 6); // t = 0..=5
    }
}
