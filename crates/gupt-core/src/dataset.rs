//! Datasets as registered by the data owner (§3.1).
//!
//! The owner supplies (a) a table of real-valued vectors, (b) a lifetime
//! privacy budget and (c) optionally non-sensitive per-dimension input
//! ranges. Under the aging-of-sensitivity model (§3.3) the owner may also
//! mark a fraction of the records as *aged* — drawn from the same
//! distribution but no longer privacy-sensitive — which the runtime uses
//! to tune block sizes and translate accuracy goals into budgets.
//!
//! Rows are flattened **once**, at construction, into an `Arc`-backed
//! [`RowStore`]; every query partition afterwards hands out
//! [`gupt_sandbox::view::BlockView`]s onto that shared store instead of
//! cloning rows. Appended and aged rows extend their store chunk by
//! chunk, so no append or aging step copies rows already stored.

use crate::error::GuptError;
use gupt_dp::OutputRange;
use gupt_sandbox::view::RowStore;
use std::sync::Arc;

/// A registered dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    store: Arc<RowStore>,
    input_ranges: Option<Vec<OutputRange>>,
    aged: Arc<RowStore>,
    group_column: Option<usize>,
}

impl Dataset {
    /// Creates a dataset from row-major records. All rows must be
    /// non-empty and of equal width. The rows are flattened into the
    /// shared [`RowStore`] here — the only copy the data plane makes.
    pub fn new(rows: Vec<Vec<f64>>) -> Result<Self, GuptError> {
        let Some(first) = rows.first() else {
            return Err(GuptError::InvalidDataset("dataset has no rows".into()));
        };
        let width = first.len();
        if width == 0 {
            return Err(GuptError::InvalidDataset("rows have zero width".into()));
        }
        if let Some(bad) = rows.iter().position(|r| r.len() != width) {
            return Err(GuptError::InvalidDataset(format!(
                "row {bad} has width {} but row 0 has width {width}",
                rows[bad].len()
            )));
        }
        if rows.iter().any(|r| r.iter().any(|v| !v.is_finite())) {
            return Err(GuptError::InvalidDataset(
                "rows contain non-finite values".into(),
            ));
        }
        Ok(Dataset {
            store: Arc::new(RowStore::from_rows(&rows)),
            input_ranges: None,
            aged: Arc::new(RowStore::from_flat(Vec::new(), 0)),
            group_column: None,
        })
    }

    /// Extends this dataset with `rows` in place — the incremental
    /// ingest path, for an exclusively held dataset (e.g. under a
    /// registry write lock).
    ///
    /// Validation matches [`Dataset::new`] (uniform width, finite
    /// values), with offending rows reported at their index in the
    /// grown table; on error the dataset is untouched. Appended rows are
    /// always privacy-sensitive: input ranges, the group column and the
    /// aged store carry over unchanged. A query snapshot that still
    /// holds the store keeps seeing the table it was planned over:
    /// `Arc::make_mut` gives this dataset its own store (copying the
    /// chunk list, not rows) and [`RowStore::append_rows`] copies at most
    /// the one partly filled chunk the snapshot shares. Returns the
    /// bytes written, as [`RowStore::append_rows`] counts them.
    pub fn append_rows_in_place(&mut self, rows: &[Vec<f64>]) -> Result<usize, GuptError> {
        if rows.is_empty() {
            return Ok(0);
        }
        self.validate_delta(rows)?;
        Ok(Arc::make_mut(&mut self.store).append_rows(rows))
    }

    /// Shape/finiteness validation of a delta, with offending rows
    /// reported at their index in the grown table.
    fn validate_delta(&self, rows: &[Vec<f64>]) -> Result<(), GuptError> {
        let width = self.dimension();
        let offset = self.len();
        if let Some(bad) = rows.iter().position(|r| r.len() != width) {
            return Err(GuptError::InvalidDataset(format!(
                "appended row {} has width {} but the dataset has width {width}",
                offset + bad,
                rows[bad].len()
            )));
        }
        if let Some(bad) = rows.iter().position(|r| r.iter().any(|v| !v.is_finite())) {
            return Err(GuptError::InvalidDataset(format!(
                "appended row {} contains non-finite values",
                offset + bad
            )));
        }
        Ok(())
    }

    /// Attaches non-sensitive per-dimension input ranges (e.g. household
    /// income in `[0, 500 000]`). The count must match the row width.
    pub fn with_input_ranges(mut self, ranges: Vec<OutputRange>) -> Result<Self, GuptError> {
        if ranges.len() != self.dimension() {
            return Err(GuptError::DimensionMismatch {
                expected: self.dimension(),
                got: ranges.len(),
            });
        }
        self.input_ranges = Some(ranges);
        Ok(self)
    }

    /// Marks the leading `fraction ∈ (0, 1)` of records as aged: they are
    /// moved out of the private table into the non-private aged view.
    ///
    /// The paper's experiments treat 10 % of the census dataset this way
    /// (§7.2.1). Generators produce i.i.d. rows, so taking a prefix is an
    /// unbiased sample.
    pub fn with_aged_fraction(mut self, fraction: f64) -> Result<Self, GuptError> {
        if !(fraction.is_finite() && 0.0 < fraction && fraction < 1.0) {
            return Err(GuptError::InvalidDataset(format!(
                "aged fraction must lie in (0, 1), got {fraction}"
            )));
        }
        let n = self.store.len();
        if n < 2 {
            return Err(GuptError::InvalidDataset(format!(
                "an aged fraction needs at least 2 rows (one aged, one private), got {n}"
            )));
        }
        let cut = (((n as f64) * fraction).round() as usize).clamp(1, n - 1);
        // Both parts become registered stores: one contiguous segment each.
        let arity = self.store.dimension();
        let part = |rows| {
            RowStore::from_flat(
                self.store.segments(rows).flatten().copied().collect(),
                arity,
            )
        };
        let (aged, store) = (part(0..cut), part(cut..n));
        self.aged = Arc::new(aged);
        self.store = Arc::new(store);
        Ok(self)
    }

    /// Copies main-store rows `[start, end)` into the aged store — the
    /// §3.3 aging path the streaming plane takes as window frontiers
    /// advance past rows no later window can cover.
    ///
    /// The rows are appended to the aged store through the same path as
    /// [`Dataset::append_rows_in_place`], so a step copies its own rows
    /// (plus at most the partly filled chunk a query snapshot shares),
    /// never the aged rows already stored.
    ///
    /// The main store is **not** truncated: row offsets stay stable (so
    /// outstanding window bounds and cached window fingerprints remain
    /// valid) and the epoch chain is untouched. Aged copies only relax
    /// *planning* — sharper range estimation and block-size tuning for
    /// subsequent queries — never the charge path, so double-counting a
    /// row here costs accuracy headroom at worst, not privacy. Returns
    /// the number of rows copied; errors on an inverted or out-of-bounds
    /// range and leaves the dataset untouched.
    pub fn age_rows(&mut self, start: usize, end: usize) -> Result<usize, GuptError> {
        if start > end || end > self.len() {
            return Err(GuptError::InvalidDataset(format!(
                "aging range {start}..{end} exceeds the {} private rows",
                self.len()
            )));
        }
        if start == end {
            return Ok(0);
        }
        let store = &self.store;
        Arc::make_mut(&mut self.aged).append_rows((start..end).map(|i| store.row(i)));
        Ok(end - start)
    }

    /// Supplies an explicit aged dataset (drawn from the same
    /// distribution) instead of carving off a fraction.
    pub fn with_aged_rows(mut self, aged: Vec<Vec<f64>>) -> Result<Self, GuptError> {
        if aged.iter().any(|r| r.len() != self.dimension()) {
            return Err(GuptError::InvalidDataset(
                "aged rows have mismatched width".into(),
            ));
        }
        self.aged = Arc::new(RowStore::from_rows(&aged));
        Ok(self)
    }

    /// The privacy-sensitive records: the shared row store that query
    /// [`gupt_sandbox::view::BlockView`]s borrow from.
    pub fn store(&self) -> &Arc<RowStore> {
        &self.store
    }

    /// The aged, non-private records (empty unless configured).
    pub fn aged_store(&self) -> &Arc<RowStore> {
        &self.aged
    }

    /// Whether an aged view is available.
    pub fn has_aged_data(&self) -> bool {
        !self.aged.is_empty()
    }

    /// Number of privacy-sensitive records.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the private table is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Row width `k`.
    pub fn dimension(&self) -> usize {
        self.store.dimension()
    }

    /// Owner-declared input ranges, if any.
    pub fn input_ranges(&self) -> Option<&[OutputRange]> {
        self.input_ranges.as_deref()
    }

    /// Declares column `col` as the user/entity identifier, switching
    /// the runtime to **user-level privacy** (§8.1): all records sharing
    /// the identifier are partitioned atomically, so the ε guarantee
    /// covers a user's entire record set, not single rows.
    pub fn with_group_column(mut self, col: usize) -> Result<Self, GuptError> {
        if col >= self.dimension() {
            return Err(GuptError::DimensionMismatch {
                expected: self.dimension(),
                got: col,
            });
        }
        self.group_column = Some(col);
        Ok(self)
    }

    /// The declared group column, if any.
    pub fn group_column(&self) -> Option<usize> {
        self.group_column
    }

    /// Builds the per-group record-index lists for the declared group
    /// column (`None` when no column is declared). Keys compare by exact
    /// bit pattern; group order is first-appearance.
    pub fn groups(&self) -> Option<Vec<Vec<usize>>> {
        let col = self.group_column?;
        let mut index: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, row) in self.store.iter_rows().enumerate() {
            let key = row[col].to_bits();
            let g = *index.entry(key).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[g].push(i);
        }
        Some(groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gupt_sandbox::view::CHUNK_ROWS;

    fn rows(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64, (i * 2) as f64]).collect()
    }

    #[test]
    fn valid_dataset() {
        let ds = Dataset::new(rows(10)).unwrap();
        assert_eq!(ds.len(), 10);
        assert_eq!(ds.dimension(), 2);
        assert!(!ds.has_aged_data());
        assert!(ds.input_ranges().is_none());
    }

    #[test]
    fn empty_rejected() {
        assert!(Dataset::new(Vec::new()).is_err());
        assert!(Dataset::new(vec![vec![]]).is_err());
    }

    #[test]
    fn ragged_rejected() {
        let mut r = rows(3);
        r[1].push(9.0);
        assert!(Dataset::new(r).is_err());
    }

    #[test]
    fn non_finite_rejected() {
        assert!(Dataset::new(vec![vec![1.0], vec![f64::NAN]]).is_err());
        assert!(Dataset::new(vec![vec![f64::INFINITY]]).is_err());
    }

    #[test]
    fn input_ranges_must_match_width() {
        let ds = Dataset::new(rows(5)).unwrap();
        let one = vec![OutputRange::new(0.0, 10.0).unwrap()];
        assert!(matches!(
            ds.clone().with_input_ranges(one).unwrap_err(),
            GuptError::DimensionMismatch {
                expected: 2,
                got: 1
            }
        ));
        let two = vec![
            OutputRange::new(0.0, 10.0).unwrap(),
            OutputRange::new(0.0, 20.0).unwrap(),
        ];
        let ds = ds.with_input_ranges(two).unwrap();
        assert_eq!(ds.input_ranges().unwrap().len(), 2);
    }

    #[test]
    fn aged_fraction_moves_rows() {
        let ds = Dataset::new(rows(100))
            .unwrap()
            .with_aged_fraction(0.1)
            .unwrap();
        assert_eq!(ds.aged_store().len(), 10);
        assert_eq!(ds.len(), 90);
        assert!(ds.has_aged_data());
        // Aged rows are the prefix; both stores keep the shared arity.
        assert_eq!(ds.aged_store().row(0), &[0.0, 0.0]);
        assert_eq!(ds.store().row(0), &[10.0, 20.0]);
        assert_eq!(ds.aged_store().dimension(), 2);
    }

    #[test]
    fn aged_fraction_bounds() {
        let ds = Dataset::new(rows(10)).unwrap();
        assert!(ds.clone().with_aged_fraction(0.0).is_err());
        assert!(ds.clone().with_aged_fraction(1.0).is_err());
        assert!(ds.clone().with_aged_fraction(f64::NAN).is_err());
        // Tiny fraction still leaves at least one aged row.
        let tiny = ds.with_aged_fraction(0.001).unwrap();
        assert_eq!(tiny.aged_store().len(), 1);
    }

    #[test]
    fn aged_fraction_of_one_row_is_an_error_not_a_panic() {
        let err = Dataset::new(vec![vec![1.0]])
            .unwrap()
            .with_aged_fraction(0.5)
            .unwrap_err();
        assert!(matches!(err, GuptError::InvalidDataset(_)), "{err}");
        assert!(err.to_string().contains("at least 2 rows"), "{err}");
        // Two rows split one and one.
        let two = Dataset::new(rows(2))
            .unwrap()
            .with_aged_fraction(0.5)
            .unwrap();
        assert_eq!((two.aged_store().len(), two.len()), (1, 1));
    }

    #[test]
    fn group_column_validation() {
        let ds = Dataset::new(rows(5)).unwrap();
        assert!(ds.clone().with_group_column(5).is_err());
        let ds = ds.with_group_column(0).unwrap();
        assert_eq!(ds.group_column(), Some(0));
    }

    #[test]
    fn groups_collect_matching_rows() {
        // Column 0 repeats every 3 rows: users 0,1,2 each with repeats.
        let data: Vec<Vec<f64>> = (0..9).map(|i| vec![(i % 3) as f64, i as f64]).collect();
        let ds = Dataset::new(data).unwrap().with_group_column(0).unwrap();
        let groups = ds.groups().unwrap();
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0], vec![0, 3, 6]);
        assert_eq!(groups[1], vec![1, 4, 7]);
        assert_eq!(groups[2], vec![2, 5, 8]);
    }

    #[test]
    fn no_group_column_means_no_groups() {
        let ds = Dataset::new(rows(4)).unwrap();
        assert!(ds.groups().is_none());
    }

    #[test]
    fn append_rows_grows_and_preserves_settings() {
        let mut ds = Dataset::new(rows(10))
            .unwrap()
            .with_group_column(0)
            .unwrap()
            .with_input_ranges(vec![
                OutputRange::new(0.0, 100.0).unwrap(),
                OutputRange::new(0.0, 200.0).unwrap(),
            ])
            .unwrap();
        let before = ds.clone();
        assert_eq!(ds.append_rows_in_place(&rows(3)).unwrap(), 3 * 2 * 8);
        assert_eq!(ds.len(), 13);
        assert_eq!(before.len(), 10, "a clone taken before is untouched");
        assert_eq!(ds.group_column(), Some(0));
        assert_eq!(ds.input_ranges().unwrap().len(), 2);
        assert_eq!(ds.store().row(10), &[0.0, 0.0]);
        // Empty delta: nothing written, aged store still shared.
        assert_eq!(ds.append_rows_in_place(&[]).unwrap(), 0);
        assert_eq!(ds.len(), 13);
        assert!(Arc::ptr_eq(ds.aged_store(), before.aged_store()));
    }

    #[test]
    fn append_under_a_snapshot_leaves_the_snapshot_frozen() {
        let mut ds = Dataset::new(rows(10)).unwrap();
        // Exclusive store: the append extends it in place.
        let before = Arc::clone(ds.store());
        drop(before);
        ds.append_rows_in_place(&rows(2)).unwrap();
        assert_eq!(ds.len(), 12);

        // An outstanding query snapshot (any live Arc clone, as block
        // planning takes one) keeps seeing the table it was planned
        // over; the dataset moves on to its own store.
        let snapshot = Arc::clone(ds.store());
        let snapshot_rows = snapshot.len();
        ds.append_rows_in_place(&rows(3)).unwrap();
        assert_eq!(ds.len(), 15);
        assert_eq!(snapshot.len(), snapshot_rows, "snapshot is frozen");
        assert!(
            !Arc::ptr_eq(&snapshot, ds.store()),
            "append under a snapshot must re-point the store, not mutate it"
        );
        // The grown store carries base + delta in order.
        assert_eq!(ds.store().row(11), snapshot.row(11));
        assert_eq!(ds.store().row(12), &[0.0, 0.0]);

        // Failure atomicity holds under a snapshot too.
        let snapshot = Arc::clone(ds.store());
        assert!(ds.append_rows_in_place(&[vec![1.0]]).is_err());
        assert!(
            Arc::ptr_eq(&snapshot, ds.store()),
            "error leaves store as-is"
        );
        assert_eq!(ds.len(), 15);
    }

    /// Rows `0..upto` of `a` and `b` are the same memory, not copies.
    fn same_rows(a: &RowStore, b: &RowStore, upto: usize) -> bool {
        (0..upto).all(|i| a.row(i).as_ptr() == b.row(i).as_ptr())
    }

    #[test]
    fn append_under_a_snapshot_copies_no_stored_row() {
        let mut ds = Dataset::new(rows(100)).unwrap();
        ds.append_rows_in_place(&rows(2 * CHUNK_ROWS + 50)).unwrap();
        let snapshot = ds.clone();
        let written = ds.append_rows_in_place(&rows(7)).unwrap();
        // The delta, plus the 50 rows of the open chunk the snapshot
        // holds; the registered rows and both full chunks are shared.
        assert_eq!(written, (7 + 50) * 2 * 8);
        let open_chunk = 100 + 2 * CHUNK_ROWS;
        assert!(same_rows(snapshot.store(), ds.store(), open_chunk));
        assert_eq!(snapshot.len(), open_chunk + 50);
        assert_eq!(
            snapshot.store().to_rows(),
            ds.store().to_rows()[..open_chunk + 50].to_vec()
        );
    }

    #[test]
    fn aging_under_a_snapshot_copies_no_aged_row() {
        let mut ds = Dataset::new(rows(3 * CHUNK_ROWS)).unwrap();
        ds.age_rows(0, 2 * CHUNK_ROWS + 10).unwrap();
        let snapshot = ds.clone();
        ds.age_rows(2 * CHUNK_ROWS + 10, 2 * CHUNK_ROWS + 700)
            .unwrap();
        let (old, new) = (snapshot.aged_store(), ds.aged_store());
        assert_eq!(
            old.len(),
            2 * CHUNK_ROWS + 10,
            "the snapshot's aged view is frozen"
        );
        assert_eq!(new.len(), 2 * CHUNK_ROWS + 700);
        // Every full aged chunk is shared; only the open one was copied.
        assert!(same_rows(old, new, 2 * CHUNK_ROWS));
        assert_eq!(new.to_rows(), ds.store().to_rows()[..new.len()].to_vec());
        // And the main store was not touched at all.
        assert!(Arc::ptr_eq(snapshot.store(), ds.store()));
    }

    #[test]
    fn append_rows_validates_the_delta() {
        let mut ds = Dataset::new(rows(4)).unwrap();
        let err = ds.append_rows_in_place(&[vec![1.0]]).unwrap_err();
        assert!(
            err.to_string().contains("appended row 4 has width 1"),
            "{err}"
        );
        let err = ds
            .append_rows_in_place(&[vec![1.0, 2.0], vec![f64::NAN, 0.0]])
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("appended row 5 contains non-finite"),
            "{err}"
        );
    }

    #[test]
    fn age_rows_copies_without_truncating() {
        let mut ds = Dataset::new(rows(10)).unwrap();
        assert_eq!(ds.age_rows(0, 4).unwrap(), 4);
        assert_eq!(ds.len(), 10, "main store never shrinks");
        assert_eq!(ds.aged_store().len(), 4);
        assert_eq!(ds.aged_store().dimension(), 2);
        assert_eq!(ds.aged_store().row(3), ds.store().row(3));
        // Aging further extends the aged store.
        assert_eq!(ds.age_rows(4, 7).unwrap(), 3);
        assert_eq!(ds.aged_store().len(), 7);
        assert_eq!(ds.aged_store().row(6), ds.store().row(6));
        // Empty range is a no-op; bad ranges are rejected untouched.
        assert_eq!(ds.age_rows(7, 7).unwrap(), 0);
        assert!(ds.age_rows(5, 11).is_err());
        assert!(ds.age_rows(6, 2).is_err());
        assert_eq!(ds.aged_store().len(), 7);
    }

    #[test]
    fn store_is_shared_not_copied() {
        let ds = Dataset::new(rows(6)).unwrap();
        let a = Arc::clone(ds.store());
        let b = ds.clone();
        // Cloning the dataset bumps the Arc instead of copying rows.
        assert!(Arc::ptr_eq(&a, b.store()));
    }

    #[test]
    fn explicit_aged_rows() {
        let ds = Dataset::new(rows(5))
            .unwrap()
            .with_aged_rows(rows(3))
            .unwrap();
        assert_eq!(ds.aged_store().len(), 3);
        assert_eq!(ds.len(), 5); // private table untouched
                                 // Width mismatch rejected.
        let bad = Dataset::new(rows(5))
            .unwrap()
            .with_aged_rows(vec![vec![1.0]]);
        assert!(bad.is_err());
    }
}
