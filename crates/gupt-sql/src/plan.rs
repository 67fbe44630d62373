//! Compiles DP-SQL statements onto the chamber pipeline.
//!
//! Each selected aggregate becomes one [`QuerySpec`] whose untrusted
//! program is a **view-native filter program**: a closure over the
//! block's [`BlockView`] that evaluates the (WHERE ∧ group-key)
//! predicate per row and emits a sample-and-aggregate *block estimator*
//! of the requested statistic. The runtime then clamps, averages and
//! noises the block outputs exactly as it does for handwritten specs —
//! SQL adds no second release path, only a compiler in front of the
//! existing one.
//!
//! # Block estimator semantics
//!
//! With `n` the (public) dataset size, `m` the block's row count and
//! `S` the block rows matching the filter:
//!
//! | aggregate      | block output                       | output range            |
//! |----------------|------------------------------------|-------------------------|
//! | `COUNT`        | `|S| / m · n`                      | `[0, n]`                |
//! | `SUM(ci)`      | `Σ_{r∈S} r[i] / m · n`             | `[min(0,n·lo), max(0,n·hi)]` |
//! | `AVG(ci)`      | mean of `r[i]` over `S`            | `[lo, hi]`              |
//! | `MEDIAN(ci)`   | median of `r[i]` over `S`          | `[lo, hi]`              |
//! | `VARIANCE(ci)` | population variance over `S`       | `[0, (hi−lo)²/4]`       |
//!
//! where `[lo, hi]` is the analyst-supplied value range of column `i`.
//! Blocks whose match set is empty emit the range midpoint — the
//! least-informative in-range value, so clamping never drags the
//! average toward an arbitrary boundary.
//!
//! Program identities bake the canonical statement fragment, `n` and
//! the output range, so textually identical SQL replays from the
//! answer cache at zero ε — while the per-query RNG keys on submission
//! order, not identity, keeping SQL noise bit-identical to the
//! handwritten equivalent.

use crate::ast::{AggFunc, Aggregate, Predicate, Statement};
use crate::error::SqlError;
use gupt_core::{BlockView, QuerySpec, RangeEstimation};
use gupt_dp::OutputRange;
use std::fmt::Write as _;

/// Public facts about the target dataset the planner compiles against.
#[derive(Debug, Clone)]
pub struct PlanContext {
    /// Public dataset size `n` (drives the count/sum scale-up).
    pub dataset_size: usize,
    /// Number of columns per row.
    pub dataset_dimension: usize,
    /// Analyst-supplied value range per column, indexed by column.
    /// Required for every column an aggregate reads; `WHERE`-only
    /// columns need no range.
    pub column_ranges: Vec<OutputRange>,
}

/// A compiled plan for one aggregate: the spec plus its planned range.
pub struct AggregatePlan {
    /// The chamber-pipeline spec (no budget attached; the executor
    /// assigns ε directly or through the batch distributor).
    pub spec: QuerySpec,
    /// The output range the spec was planned with.
    pub range: OutputRange,
}

/// The filter a compiled program applies to every row: the statement's
/// `WHERE` predicate (if any) conjoined with `GROUP BY` key equalities.
#[derive(Debug, Clone, Default)]
pub struct RowFilter {
    /// Optional `WHERE` predicate.
    pub predicate: Option<Predicate>,
    /// `(column, value)` equalities pinning a `GROUP BY` key.
    pub group_key: Vec<(usize, f64)>,
}

impl RowFilter {
    /// Whether `row` passes the predicate and the group key.
    pub fn matches(&self, row: &[f64]) -> bool {
        if let Some(pred) = &self.predicate {
            if !pred.matches(row) {
                return false;
            }
        }
        self.group_key
            .iter()
            .all(|(col, val)| row.get(*col).copied() == Some(*val))
    }

    /// Canonical rendering for program identities (`-` when empty).
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        if let Some(pred) = &self.predicate {
            write!(out, "{pred}").expect("writing to a String cannot fail");
        }
        for (col, val) in &self.group_key {
            if !out.is_empty() {
                out.push_str(" AND ");
            }
            write!(out, "c{col} = {val}").expect("writing to a String cannot fail");
        }
        if out.is_empty() {
            out.push('-');
        }
        out
    }
}

/// Validates a parsed statement against the dataset's shape: every
/// referenced column must exist, and every column a value aggregate
/// reads must have a supplied range.
pub fn validate(stmt: &Statement, ctx: &PlanContext) -> Result<(), SqlError> {
    if ctx.dataset_size == 0 {
        return Err(SqlError::plan("dataset is empty"));
    }
    let dim = ctx.dataset_dimension;
    let check_col = |col: usize, what: &str| -> Result<(), SqlError> {
        if col >= dim {
            Err(SqlError::plan(format!(
                "{what} references column c{col} but the dataset has {dim} column(s) (c0..c{})",
                dim.saturating_sub(1)
            )))
        } else {
            Ok(())
        }
    };
    for agg in &stmt.aggregates {
        if let Some(col) = agg.column {
            check_col(col, agg.func.as_str())?;
            if agg.func != AggFunc::Count && col >= ctx.column_ranges.len() {
                return Err(SqlError::plan(format!(
                    "{}(c{col}) needs a value range for column c{col}; \
                     supply one with the ranges option",
                    agg.func.as_str()
                )));
            }
        }
    }
    if let Some(pred) = &stmt.predicate {
        check_col(pred.max_column(), "WHERE")?;
    }
    for &col in &stmt.group_by {
        check_col(col, "GROUP BY")?;
    }
    Ok(())
}

/// The output range an aggregate releases into, given the dataset size
/// and (for value aggregates) the column's value range.
pub fn output_range(agg: &Aggregate, ctx: &PlanContext) -> Result<OutputRange, SqlError> {
    let n = ctx.dataset_size as f64;
    let col_range = |col: usize| -> Result<OutputRange, SqlError> {
        ctx.column_ranges
            .get(col)
            .copied()
            .ok_or_else(|| SqlError::plan(format!("no value range supplied for column c{col}")))
    };
    let range = match (agg.func, agg.column) {
        (AggFunc::Count, _) => OutputRange::new(0.0, n),
        (AggFunc::Sum, Some(col)) => {
            let r = col_range(col)?;
            OutputRange::new((n * r.lo()).min(0.0), (n * r.hi()).max(0.0))
        }
        (AggFunc::Avg, Some(col)) | (AggFunc::Median, Some(col)) => {
            let r = col_range(col)?;
            OutputRange::new(r.lo(), r.hi())
        }
        (AggFunc::Variance, Some(col)) => {
            let r = col_range(col)?;
            let w = r.width();
            OutputRange::new(0.0, (w * w / 4.0).max(f64::MIN_POSITIVE))
        }
        (func, None) => {
            return Err(SqlError::plan(format!(
                "{}(*) is not valid; only COUNT accepts *",
                func.as_str()
            )))
        }
    };
    range.map_err(|e| SqlError::plan(format!("degenerate output range: {e}")))
}

/// Compiles one aggregate + filter into a [`QuerySpec`].
///
/// The spec carries no budget: the executor attaches ε (single
/// aggregate) or lets the §5.2 batch distributor assign shares.
pub fn aggregate_spec(
    agg: &Aggregate,
    filter: &RowFilter,
    ctx: &PlanContext,
    block_size: Option<usize>,
) -> Result<AggregatePlan, SqlError> {
    let range = output_range(agg, ctx)?;
    let n = ctx.dataset_size as f64;
    let midpoint = range.midpoint();
    let filter_canonical = filter.canonical();
    let filter = filter.clone();
    let func = agg.func;
    let column = agg.column.unwrap_or(0);

    let estimator = move |block: &BlockView| -> Vec<f64> {
        let m = block.len();
        if m == 0 {
            return vec![midpoint];
        }
        let mut matched: Vec<f64> = Vec::new();
        for row in block.iter() {
            if filter.matches(row) {
                matched.push(row.get(column).copied().unwrap_or(0.0));
            }
        }
        let k = matched.len();
        let value = match func {
            AggFunc::Count => k as f64 / m as f64 * n,
            AggFunc::Sum => matched.iter().sum::<f64>() / m as f64 * n,
            AggFunc::Avg => {
                if k == 0 {
                    midpoint
                } else {
                    matched.iter().sum::<f64>() / k as f64
                }
            }
            AggFunc::Median => {
                if k == 0 {
                    midpoint
                } else {
                    median(&mut matched)
                }
            }
            AggFunc::Variance => {
                if k == 0 {
                    midpoint
                } else {
                    let mean = matched.iter().sum::<f64>() / k as f64;
                    matched.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / k as f64
                }
            }
        };
        vec![value]
    };

    // The output range stays out of the name: the answer-cache
    // fingerprint already hashes the spec's tight range bit for bit, and
    // rendering two more floats per statement is a measurable share of
    // the front-end's cost.
    let identity = format!("sql:{agg}|{filter_canonical}|n={}", ctx.dataset_size);

    let mut builder = QuerySpec::builder()
        .view(estimator)
        .identity(identity, 1)
        .range_estimation(RangeEstimation::Tight(vec![range]));
    if let Some(beta) = block_size {
        builder = builder.fixed_block_size(beta);
    }
    let spec = builder.build()?;
    Ok(AggregatePlan { spec, range })
}

/// Median of a non-empty slice under `f64::total_cmp`: the middle value
/// of an odd count, the mean of the two middle values of an even one.
/// Selection finds the lower middle value and the minimum of the part
/// above it gives the upper; `total_cmp` is a total order, so both equal
/// a sort's bit for bit, signed zeros included.
fn median(values: &mut [f64]) -> f64 {
    let k = values.len();
    let (_, &mut lower, above) = values.select_nth_unstable_by((k - 1) / 2, f64::total_cmp);
    if k % 2 == 1 {
        lower
    } else {
        let upper = above
            .iter()
            .copied()
            .min_by(f64::total_cmp)
            .expect("an even count leaves a value above the lower middle");
        (lower + upper) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn ctx(n: usize, dim: usize, ranges: &[(f64, f64)]) -> PlanContext {
        PlanContext {
            dataset_size: n,
            dataset_dimension: dim,
            column_ranges: ranges
                .iter()
                .map(|&(lo, hi)| OutputRange::new(lo, hi).unwrap())
                .collect(),
        }
    }

    #[test]
    fn validate_rejects_out_of_range_columns() {
        let c = ctx(100, 2, &[(0.0, 10.0), (0.0, 10.0)]);
        let stmt = parse("SELECT AVG(c5) FROM t").unwrap();
        assert!(validate(&stmt, &c).is_err());
        let stmt = parse("SELECT COUNT(*) FROM t WHERE c7 > 0").unwrap();
        assert!(validate(&stmt, &c).is_err());
        let stmt = parse("SELECT COUNT(*) FROM t GROUP BY c9").unwrap();
        assert!(validate(&stmt, &c).is_err());
    }

    #[test]
    fn validate_requires_ranges_for_value_aggregates_only() {
        // One range for two columns: COUNT and WHERE on c1 are fine,
        // AVG(c1) is not.
        let c = ctx(100, 2, &[(0.0, 10.0)]);
        let ok = parse("SELECT COUNT(*) FROM t WHERE c1 > 3").unwrap();
        assert!(validate(&ok, &c).is_ok());
        let bad = parse("SELECT AVG(c1) FROM t").unwrap();
        assert!(validate(&bad, &c).is_err());
    }

    #[test]
    fn output_ranges_follow_the_table() {
        let c = ctx(1000, 1, &[(-2.0, 10.0)]);
        let agg = |sql: &str| parse(sql).unwrap().aggregates[0];
        let r = output_range(&agg("SELECT COUNT(*) FROM t"), &c).unwrap();
        assert_eq!((r.lo(), r.hi()), (0.0, 1000.0));
        let r = output_range(&agg("SELECT SUM(c0) FROM t"), &c).unwrap();
        assert_eq!((r.lo(), r.hi()), (-2000.0, 10_000.0));
        let r = output_range(&agg("SELECT AVG(c0) FROM t"), &c).unwrap();
        assert_eq!((r.lo(), r.hi()), (-2.0, 10.0));
        let r = output_range(&agg("SELECT VARIANCE(c0) FROM t"), &c).unwrap();
        assert_eq!((r.lo(), r.hi()), (0.0, 36.0));
    }

    #[test]
    fn row_filter_combines_where_and_group_key() {
        let stmt = parse("SELECT COUNT(*) FROM t WHERE c0 > 1").unwrap();
        let filter = RowFilter {
            predicate: stmt.predicate,
            group_key: vec![(1, 7.0)],
        };
        assert!(filter.matches(&[2.0, 7.0]));
        assert!(!filter.matches(&[0.0, 7.0]));
        assert!(!filter.matches(&[2.0, 8.0]));
        assert_eq!(filter.canonical(), "c0 > 1 AND c1 = 7");
    }

    #[test]
    fn empty_filter_canonical_is_dash() {
        assert_eq!(RowFilter::default().canonical(), "-");
    }

    /// The sort-based MEDIAN that selection replaced, kept as the
    /// reference.
    fn median_by_sort(values: &[f64]) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let k = sorted.len();
        if k % 2 == 1 {
            sorted[k / 2]
        } else {
            (sorted[k / 2 - 1] + sorted[k / 2]) / 2.0
        }
    }

    #[test]
    fn median_matches_the_sort_bit_for_bit_with_signed_zeros() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x3ED1);
        // Odd and even counts, heavy ties, and both zeros: under
        // `total_cmp` -0.0 < 0.0, so the sign of a zero median is fixed.
        let pool = [-0.0, 0.0, -2.5, 7.0, 1e-300];
        for k in 1..=300 {
            let mut values: Vec<f64> = (0..k)
                .map(|_| pool[rng.random_range(0..pool.len())])
                .collect();
            let want = median_by_sort(&values);
            assert_eq!(median(&mut values).to_bits(), want.to_bits(), "k {k}");
        }
        for (values, want) in [
            (vec![0.0, -0.0, 0.0], 0.0f64),
            (vec![-0.0, 0.0, -0.0], -0.0),
            (vec![0.0, -0.0], 0.0),
            (vec![-0.0, -0.0], -0.0),
        ] {
            let got = median(&mut values.clone());
            assert_eq!(got.to_bits(), want.to_bits(), "{values:?}");
            assert_eq!(got.to_bits(), median_by_sort(&values).to_bits());
        }
    }
}
