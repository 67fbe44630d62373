//! Chamber execution policy.
//!
//! §6.2's timing-attack defense: "GUPT protects against this attack by
//! setting a predefined bound on the number of cycles for which the data
//! analyst program runs on each data block. If the computation [...]
//! completes before the predefined number of cycles, then GUPT waits for
//! the remaining cycles before producing an output [...]. In case the
//! computation exceeds the predefined number of cycles, the computation
//! is killed and a constant value within the expected output range is
//! produced." [`ChamberPolicy`] captures exactly that contract, with
//! wall-clock time standing in for cycle counts.

use std::time::Duration;

/// Execution policy for a single chamber.
#[derive(Debug, Clone)]
pub struct ChamberPolicy {
    /// Wall-clock execution budget. `None` disables the bound (trusted
    /// benchmarking mode; a production deployment always sets it).
    pub execution_budget: Option<Duration>,
    /// When `true` and a budget is set, a chamber that finishes early
    /// sleeps out the remainder so its total runtime is constant —
    /// the data-independence that defeats timing attacks.
    pub pad_to_budget: bool,
    /// Constant emitted (per output dimension) when the program is killed
    /// or panics. Must lie within the expected output range; the runtime
    /// passes the range midpoint.
    pub fallback_value: f64,
    /// Optional scratch-space byte quota per invocation (§6 resource
    /// bound). Overruns terminate the program like a panic.
    pub scratch_quota: Option<usize>,
}

impl ChamberPolicy {
    /// A policy with no execution bound and no padding — used for
    /// overhead measurements and unit tests of well-behaved programs.
    pub fn unbounded() -> Self {
        ChamberPolicy {
            execution_budget: None,
            pad_to_budget: false,
            fallback_value: 0.0,
            scratch_quota: None,
        }
    }

    /// The production policy: bounded execution with constant-time
    /// padding and the given in-range fallback constant.
    pub fn bounded(budget: Duration, fallback_value: f64) -> Self {
        ChamberPolicy {
            execution_budget: Some(budget),
            pad_to_budget: true,
            fallback_value,
            scratch_quota: Some(64 * 1024 * 1024),
        }
    }

    /// Disables padding (keeps the kill bound). Used where only the
    /// resource limit matters, e.g. scalability benchmarks.
    pub fn without_padding(mut self) -> Self {
        self.pad_to_budget = false;
        self
    }

    /// Overrides the fallback constant.
    pub fn with_fallback(mut self, value: f64) -> Self {
        self.fallback_value = value;
        self
    }

    /// Sets the per-invocation scratch byte quota.
    pub fn with_scratch_quota(mut self, bytes: usize) -> Self {
        self.scratch_quota = Some(bytes);
        self
    }
}

impl Default for ChamberPolicy {
    fn default() -> Self {
        ChamberPolicy::unbounded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_has_no_budget() {
        let p = ChamberPolicy::unbounded();
        assert!(p.execution_budget.is_none());
        assert!(!p.pad_to_budget);
    }

    #[test]
    fn bounded_pads_by_default() {
        let p = ChamberPolicy::bounded(Duration::from_millis(10), 5.0);
        assert_eq!(p.execution_budget, Some(Duration::from_millis(10)));
        assert!(p.pad_to_budget);
        assert_eq!(p.fallback_value, 5.0);
    }

    #[test]
    fn builder_modifiers() {
        let p = ChamberPolicy::bounded(Duration::from_millis(1), 0.0)
            .without_padding()
            .with_fallback(9.0)
            .with_scratch_quota(1024);
        assert!(!p.pad_to_budget);
        assert_eq!(p.fallback_value, 9.0);
        assert_eq!(p.scratch_quota, Some(1024));
    }

    #[test]
    fn bounded_has_default_quota() {
        let p = ChamberPolicy::bounded(Duration::from_millis(1), 0.0);
        assert!(p.scratch_quota.is_some());
        assert!(ChamberPolicy::unbounded().scratch_quota.is_none());
    }
}
