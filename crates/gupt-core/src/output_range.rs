//! Output-range estimation — the three §4.1 modes.
//!
//! The Laplace scale in Algorithm 1 depends on the output range, which
//! the framework itself does not define. GUPT offers three mechanisms:
//!
//! - **GUPT-tight**: the analyst supplies a tight per-dimension output
//!   range directly. The full budget goes to aggregation.
//! - **GUPT-loose**: the analyst supplies only a loose output range. The
//!   program runs on the blocks, and the DP 25th/75th percentiles of the
//!   block outputs (computed within the loose range) become the clamping
//!   range. Half the per-dimension budget pays for the estimate.
//! - **GUPT-helper**: the analyst supplies a *range translation*
//!   function. The DP quartiles of each *input* dimension produce a tight
//!   input range (an `O(n ln n)` pass over the whole dataset — the §7.1.3
//!   scalability cost), which the translator maps to an output range.

use crate::error::GuptError;
use gupt_dp::{dp_quartile_range, Epsilon, OutputRange};
use gupt_sandbox::view::RowStore;
use rand::Rng;
use std::fmt;
use std::sync::Arc;

/// Maps tight per-dimension input ranges to per-dimension output ranges.
/// Supplied by the analyst in `GUPT-helper` mode: it encodes "if inputs
/// lie in these intervals, outputs lie in those".
pub type RangeTranslator = Arc<dyn Fn(&[OutputRange]) -> Vec<OutputRange> + Send + Sync>;

/// The analyst's choice of output-range mechanism.
#[derive(Clone)]
pub enum RangeEstimation {
    /// `GUPT-tight`: exact per-output-dimension ranges.
    Tight(Vec<OutputRange>),
    /// `GUPT-loose`: loose per-output-dimension ranges; tightened with DP
    /// percentiles of the block outputs.
    Loose(Vec<OutputRange>),
    /// `GUPT-helper`: loose per-input-dimension ranges plus a translator
    /// from tight input ranges to output ranges.
    Helper {
        /// Loose, non-sensitive bounds for each input dimension.
        input_ranges: Vec<OutputRange>,
        /// The analyst's range-translation function.
        translate: RangeTranslator,
    },
}

impl fmt::Debug for RangeEstimation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RangeEstimation::Tight(r) => f.debug_tuple("Tight").field(r).finish(),
            RangeEstimation::Loose(r) => f.debug_tuple("Loose").field(r).finish(),
            RangeEstimation::Helper { input_ranges, .. } => f
                .debug_struct("Helper")
                .field("input_ranges", input_ranges)
                .field("translate", &"<fn>")
                .finish(),
        }
    }
}

/// `GUPT-loose` resolution (Theorem 1.3): DP quartiles of the per-block
/// outputs, computed inside the analyst's loose range, spending
/// `eps_per_dim` for each output dimension.
pub fn resolve_loose<R: Rng + ?Sized>(
    block_outputs: &[Vec<f64>],
    loose: &[OutputRange],
    output_dim: usize,
    eps_per_dim: Epsilon,
    rng: &mut R,
) -> Result<Vec<OutputRange>, GuptError> {
    if loose.len() != output_dim {
        return Err(GuptError::DimensionMismatch {
            expected: output_dim,
            got: loose.len(),
        });
    }
    (0..output_dim)
        .map(|d| {
            let column: Vec<f64> = block_outputs.iter().map(|o| o[d]).collect();
            dp_quartile_range(&column, loose[d], eps_per_dim, rng).map_err(GuptError::Dp)
        })
        .collect()
}

/// `GUPT-helper` resolution (Theorem 1.1): DP quartiles of each *input*
/// dimension (spending `eps_per_input_dim` each) produce tight input
/// ranges; the analyst's translator converts them to output ranges.
/// Columns are gathered straight from the shared [`RowStore`] — the
/// `O(n ln n)` pass never clones rows.
pub fn resolve_helper<R: Rng + ?Sized>(
    store: &RowStore,
    input_ranges: &[OutputRange],
    translate: &RangeTranslator,
    input_dim: usize,
    output_dim: usize,
    eps_per_input_dim: Epsilon,
    rng: &mut R,
) -> Result<Vec<OutputRange>, GuptError> {
    if input_ranges.len() != input_dim {
        return Err(GuptError::DimensionMismatch {
            expected: input_dim,
            got: input_ranges.len(),
        });
    }
    let tight_inputs: Vec<OutputRange> = (0..input_dim)
        .map(|d| {
            let column: Vec<f64> = store.iter_rows().map(|r| r[d]).collect();
            dp_quartile_range(&column, input_ranges[d], eps_per_input_dim, rng)
                .map_err(GuptError::Dp)
        })
        .collect::<Result<_, _>>()?;
    let outputs = translate(&tight_inputs);
    if outputs.len() != output_dim {
        return Err(GuptError::DimensionMismatch {
            expected: output_dim,
            got: outputs.len(),
        });
    }
    Ok(outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x0453)
    }

    fn range(lo: f64, hi: f64) -> OutputRange {
        OutputRange::new(lo, hi).unwrap()
    }

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn loose_tightens_toward_quartiles() {
        // Block outputs clustered in [40, 60] with loose range [0, 1000]:
        // the resolved range must be far tighter than the loose one.
        let outputs: Vec<Vec<f64>> = (0..200).map(|i| vec![40.0 + (i % 21) as f64]).collect();
        let resolved =
            resolve_loose(&outputs, &[range(0.0, 1000.0)], 1, eps(2.0), &mut rng()).unwrap();
        assert!(resolved[0].lo() >= 30.0, "lo = {}", resolved[0].lo());
        assert!(resolved[0].hi() <= 80.0, "hi = {}", resolved[0].hi());
    }

    #[test]
    fn loose_arity_mismatch() {
        let outputs = vec![vec![1.0, 2.0]];
        assert!(resolve_loose(&outputs, &[range(0.0, 1.0)], 2, eps(1.0), &mut rng()).is_err());
    }

    #[test]
    fn helper_translates_input_quartiles() {
        // Inputs uniform on [0, 100]; translator: output range = input
        // range (an identity query like "mean").
        let rows: Vec<Vec<f64>> = (0..1000).map(|i| vec![(i % 101) as f64]).collect();
        let store = RowStore::from_rows(&rows);
        let translate: RangeTranslator = Arc::new(|inputs: &[OutputRange]| inputs.to_vec());
        let resolved = resolve_helper(
            &store,
            &[range(0.0, 10_000.0)],
            &translate,
            1,
            1,
            eps(2.0),
            &mut rng(),
        )
        .unwrap();
        // Quartiles of uniform [0,100] ≈ [25, 75].
        assert!((resolved[0].lo() - 25.0).abs() < 10.0, "{:?}", resolved[0]);
        assert!((resolved[0].hi() - 75.0).abs() < 10.0, "{:?}", resolved[0]);
    }

    #[test]
    fn helper_rejects_bad_translator_arity() {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let store = RowStore::from_rows(&rows);
        let translate: RangeTranslator = Arc::new(|_: &[OutputRange]| Vec::new());
        let err = resolve_helper(
            &store,
            &[range(0.0, 100.0)],
            &translate,
            1,
            1,
            eps(1.0),
            &mut rng(),
        )
        .unwrap_err();
        assert!(matches!(err, GuptError::DimensionMismatch { .. }));
    }

    #[test]
    fn helper_rejects_input_range_mismatch() {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let store = RowStore::from_rows(&rows);
        let translate: RangeTranslator = Arc::new(|inputs: &[OutputRange]| inputs.to_vec());
        let err = resolve_helper(
            &store,
            &[range(0.0, 100.0)],
            &translate,
            2,
            2,
            eps(1.0),
            &mut rng(),
        )
        .unwrap_err();
        assert!(matches!(err, GuptError::DimensionMismatch { .. }));
    }

    #[test]
    fn debug_impls_do_not_panic() {
        let helper = RangeEstimation::Helper {
            input_ranges: vec![range(0.0, 1.0)],
            translate: Arc::new(|i: &[OutputRange]| i.to_vec()),
        };
        let s = format!("{helper:?}");
        assert!(s.contains("Helper"));
        assert!(format!("{:?}", RangeEstimation::Tight(vec![range(0.0, 1.0)])).contains("Tight"));
    }
}
