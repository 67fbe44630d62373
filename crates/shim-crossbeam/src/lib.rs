//! Offline stand-in for the `crossbeam` crate.
//!
//! It provides `crossbeam::thread::scope` for structured fork/join
//! parallelism. Since Rust 1.63 the standard library provides the same
//! capability, so [`thread`] is a thin adapter over
//! [`std::thread::scope`] that preserves crossbeam's call shape
//! (`scope(|s| { s.spawn(|_| …); })` returning a `Result`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Scoped-thread API compatible with `crossbeam::thread`.
pub mod thread {
    /// A scope in which borrowed-data threads can be spawned.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread. The closure receives the scope again
        /// (crossbeam's signature) so workers may spawn sub-workers.
        pub fn spawn<F, T>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
        where
            F: for<'a> FnOnce(&'a Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            inner.spawn(move || f(&Scope { inner }))
        }
    }

    /// Runs `f` with a thread scope; every spawned thread is joined
    /// before this returns. Unlike crossbeam, a panicking child makes
    /// the *scope* panic (std semantics), so the `Err` branch is only
    /// reachable through a caller-level `catch_unwind`; callers that
    /// `.expect()` the result observe identical behaviour either way.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn std::any::Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_joins_all_threads() {
        let counter = AtomicUsize::new(0);
        super::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|_| counter.fetch_add(1, Ordering::Relaxed));
            }
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn scope_returns_closure_value() {
        let v = super::thread::scope(|s| {
            let h = s.spawn(|_| 21);
            h.join().unwrap() * 2
        })
        .unwrap();
        assert_eq!(v, 42);
    }

    #[test]
    fn nested_spawn_via_scope_argument() {
        let counter = AtomicUsize::new(0);
        super::thread::scope(|s| {
            s.spawn(|inner| {
                inner.spawn(|_| counter.fetch_add(1, Ordering::Relaxed));
            });
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }
}
