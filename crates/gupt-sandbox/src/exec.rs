//! The execution policy: how chamber fan-out is scheduled.
//!
//! GUPT's sample-and-aggregate step is embarrassingly parallel — the
//! γ·⌈n/β⌉ chamber computations of one query are independent by
//! construction (§4) — and the paper scales it by adding machines
//! (Fig. 6). [`ExecutionPolicy`] is the in-process analogue of that
//! cluster-sizing knob: one first-class, forward-compatible value that
//! says how many workers a query's chambers fan out across.
//!
//! The policy deliberately does **not** influence answers. Per-chamber
//! randomness is split from the per-query seed *before* fan-out
//! ([`chamber_seed`]) and chamber outputs are reduced in block-index
//! order, so a seeded query returns bit-identical results at any thread
//! count. That is what lets operators tune `threads` per deployment (or
//! per query) without invalidating caches, test fixtures, or audits.

/// How a [`crate::ChamberPool`] schedules chamber executions.
///
/// Marked `#[non_exhaustive]`: construct via [`ExecutionPolicy::sequential`],
/// [`ExecutionPolicy::parallel`] or [`ExecutionPolicy::auto`] and refine
/// with the builder methods, so future scheduling knobs can land without
/// breaking callers.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionPolicy {
    /// Worker threads for chamber fan-out. `0` means "auto": resolve to
    /// the machine's available parallelism at pool construction.
    pub threads: usize,
}

impl ExecutionPolicy {
    /// Single-threaded execution: chambers run inline on the calling
    /// thread, in block order, with no worker threads spawned.
    pub fn sequential() -> ExecutionPolicy {
        ExecutionPolicy { threads: 1 }
    }

    /// Parallel execution across `threads` workers (clamped to ≥ 1).
    pub fn parallel(threads: usize) -> ExecutionPolicy {
        ExecutionPolicy {
            threads: threads.max(1),
        }
    }

    /// Parallel execution sized to the machine at pool construction.
    pub fn auto() -> ExecutionPolicy {
        ExecutionPolicy { threads: 0 }
    }

    /// Sets the worker-thread count (`0` = auto).
    pub fn threads(mut self, threads: usize) -> ExecutionPolicy {
        self.threads = threads;
        self
    }

    /// The concrete worker count this policy resolves to on this
    /// machine (auto → available parallelism, floor 1).
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
        } else {
            self.threads
        }
    }

    /// A copy whose effective thread count is capped at `cap` (≥ 1).
    /// Used by admission layers that divide a machine-wide worker
    /// budget across in-flight queries; caps only ever lower the count.
    pub fn capped_at(&self, cap: usize) -> ExecutionPolicy {
        let cap = cap.max(1);
        let mut out = self.clone();
        out.threads = self.effective_threads().min(cap);
        out
    }
}

impl Default for ExecutionPolicy {
    /// Defaults to [`ExecutionPolicy::auto`].
    fn default() -> ExecutionPolicy {
        ExecutionPolicy::auto()
    }
}

/// The splitmix64 finalizer used for all seed derivation in GUPT.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 27)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// Derives the RNG seed for chamber `index` from a per-query base.
///
/// Seeds are split *before* fan-out — a pure function of (query seed,
/// block index) — so a randomized program observes the same stream for
/// block `i` whichever worker claims it, and whenever.
/// This is the interleaving-independence half of the determinism
/// contract (the other half is the index-ordered reduce).
pub fn chamber_seed(base: u64, index: u64) -> u64 {
    mix64(base ^ mix64(index.wrapping_add(0x9E37_79B9_7F4A_7C15)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_resolve_threads() {
        assert_eq!(ExecutionPolicy::sequential().threads, 1);
        assert_eq!(ExecutionPolicy::parallel(6).threads, 6);
        assert_eq!(ExecutionPolicy::parallel(0).threads, 1);
        assert_eq!(ExecutionPolicy::auto().threads, 0);
        assert!(ExecutionPolicy::auto().effective_threads() >= 1);
        assert_eq!(ExecutionPolicy::parallel(6).effective_threads(), 6);
    }

    #[test]
    fn builder_refines_fields() {
        let p = ExecutionPolicy::parallel(4).threads(3);
        assert_eq!(p.threads, 3);
        assert_eq!(ExecutionPolicy::default(), ExecutionPolicy::auto());
    }

    #[test]
    fn capping_only_lowers() {
        assert_eq!(ExecutionPolicy::parallel(8).capped_at(2).threads, 2);
        assert_eq!(ExecutionPolicy::parallel(2).capped_at(8).threads, 2);
        assert_eq!(ExecutionPolicy::parallel(8).capped_at(0).threads, 1);
        // Auto resolves first, then caps.
        let capped = ExecutionPolicy::auto().capped_at(1);
        assert_eq!(capped.threads, 1);
    }

    #[test]
    fn chamber_seeds_are_stable_and_distinct() {
        let a = chamber_seed(42, 0);
        assert_eq!(a, chamber_seed(42, 0), "pure function of (base, index)");
        let seeds: std::collections::HashSet<u64> =
            (0..1000).map(|i| chamber_seed(42, i)).collect();
        assert_eq!(seeds.len(), 1000, "no collisions across indices");
        assert_ne!(chamber_seed(42, 0), chamber_seed(43, 0));
    }
}
