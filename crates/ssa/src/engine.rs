//! The [`Engine`] trait shared by all stochastic simulation algorithms.

use crate::compiled::{CompiledModel, State};
use crate::error::SimError;
use rand::rngs::StdRng;

/// Default cap on the number of reaction firings per [`Engine::run`] call,
/// guarding against runaway models.
pub const DEFAULT_STEP_LIMIT: u64 = 500_000_000;

/// How far before an advance a sample point must lie to take the state
/// that held until it: a sampler due at `t` records on an advance to
/// `t_new` exactly when `t < t_new - SAMPLE_SLACK`.
pub const SAMPLE_SLACK: f64 = 1e-12;

/// Receives simulation progress.
///
/// `on_advance(t_new, values)` is called when simulated time advances to
/// `t_new` while the state held in `values` was valid over the preceding
/// interval — i.e. *before* the state change at `t_new` is applied. This
/// is exactly what a uniform sampler needs: every sample point in
/// `[t_prev, t_new)` takes the old state.
///
/// # Sample gating
///
/// An observer that only samples may say when it next needs a call:
/// `on_advance(t)` must be a no-op whenever
/// `!(next_due() < t - SAMPLE_SLACK)`. Engines cache `next_due()`,
/// skip every call that comparison rules out and refresh the cache
/// after each call they make, so a sampler is called about once per
/// sample instead of once per firing. The provided `next_due` returns
/// −∞, so an observer that does not override it sees every advance.
pub trait Observer {
    /// Reports that time advanced to `t_new` with `values` valid until
    /// then.
    fn on_advance(&mut self, t_new: f64, values: &[f64]);

    /// The earliest time whose advance this observer acts on (see
    /// [sample gating](Observer#sample-gating)); −∞ by default.
    fn next_due(&self) -> f64 {
        f64::NEG_INFINITY
    }
}

/// An engine's view of its observer under the
/// [sample-gating](Observer#sample-gating) contract: the cached due
/// time, refreshed after every call that is made.
pub(crate) struct Gated<'a> {
    observer: &'a mut dyn Observer,
    due: f64,
}

impl<'a> Gated<'a> {
    /// Wraps `observer`, reading its first due time.
    pub(crate) fn new(observer: &'a mut dyn Observer) -> Self {
        let due = observer.next_due();
        Gated { observer, due }
    }

    /// Reports an advance to `t_new`, unless the observer is not due.
    #[inline]
    pub(crate) fn on_advance(&mut self, t_new: f64, values: &[f64]) {
        if self.due < t_new - SAMPLE_SLACK {
            self.observer.on_advance(t_new, values);
            self.due = self.observer.next_due();
        }
    }
}

/// A no-op observer for callers that only want the final state.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn on_advance(&mut self, _t_new: f64, _values: &[f64]) {}
}

/// A stochastic simulation algorithm.
///
/// Engines are stateless between [`Engine::run`] calls (any internal
/// structures are rebuilt at the start of each call), so a run can be
/// split into segments with external state edits — input clamping —
/// in between. That is how the virtual lab applies input combinations.
pub trait Engine {
    /// Algorithm name for reports and benchmarks.
    fn name(&self) -> &'static str;

    /// Advances `state` until `state.t >= t_end` or no reaction can fire.
    ///
    /// The observer is notified per firing; see [`Observer`]. On return
    /// `state.t == t_end` (time is always advanced to the horizon, even
    /// when the system went quiescent).
    ///
    /// # Errors
    ///
    /// [`SimError`] on invalid propensities or when the step limit is
    /// exceeded.
    fn run(
        &mut self,
        model: &CompiledModel,
        state: &mut State,
        t_end: f64,
        rng: &mut StdRng,
        observer: &mut dyn Observer,
    ) -> Result<(), SimError>;

    /// Maximum number of firings allowed per `run` call.
    fn step_limit(&self) -> u64 {
        DEFAULT_STEP_LIMIT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_is_a_unit() {
        let mut obs = NullObserver;
        obs.on_advance(1.0, &[1.0, 2.0]);
    }
}
