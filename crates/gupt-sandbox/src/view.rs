//! The zero-copy data plane: a shared row store and cheap block views.
//!
//! The paper pipes a *copy* of each block into the sandboxed process.
//! The first in-process analogue did the same — `Vec<Vec<Vec<f64>>>`
//! blocks deep-cloned from the dataset — which copies the whole table
//! γ times per query before a single chamber runs. This module replaces
//! that plane with sharing:
//!
//! - [`RowStore`] holds the table **once**, as a flat row-major `f64`
//!   buffer plus a row arity, and is handed around behind an `Arc`.
//! - [`BlockView`] is a cheap handle onto a store: either a dense index
//!   range or a shared sparse index list. Cloning a view copies two
//!   pointers and two integers — never row data — so shipping γ·⌈n/β⌉
//!   blocks to chamber workers allocates O(total indices), independent
//!   of γ and of the dataset's byte size.
//!
//! Read-only sharing preserves the §6 isolation story: a program holding
//! a `BlockView` can *read* exactly its block's rows and nothing else —
//! the view API has no mutators, no neighbouring-row access, and the
//! store behind the `Arc` is immutable by construction.

use std::ops::Range;
use std::slice;
use std::sync::Arc;

/// An immutable, contiguous, row-major table of `f64` values.
///
/// Constructed once at dataset registration and shared behind an `Arc`
/// by every [`BlockView`] derived from it. All rows have the same arity
/// ([`RowStore::dimension`]); row `i` lives at `data[i*arity..(i+1)*arity]`.
#[derive(Debug, Clone, PartialEq)]
pub struct RowStore {
    data: Vec<f64>,
    arity: usize,
    rows: usize,
}

impl RowStore {
    /// Builds a store by flattening `rows`.
    ///
    /// All rows must share the first row's arity (the caller validates
    /// shape; this constructor only asserts it). An empty slice yields
    /// an empty store of dimension 0.
    pub fn from_rows(rows: &[Vec<f64>]) -> RowStore {
        let arity = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(rows.len() * arity);
        for row in rows {
            assert_eq!(row.len(), arity, "all rows must share one arity");
            data.extend_from_slice(row);
        }
        RowStore {
            data,
            arity,
            rows: rows.len(),
        }
    }

    /// Builds a store from an already-flat row-major buffer.
    ///
    /// `data.len()` must be a multiple of `arity` (an `arity` of 0
    /// requires an empty buffer).
    pub fn from_flat(data: Vec<f64>, arity: usize) -> RowStore {
        let rows = if arity == 0 {
            assert!(data.is_empty(), "arity 0 requires an empty buffer");
            0
        } else {
            assert!(
                data.len().is_multiple_of(arity),
                "flat buffer length must be a multiple of the arity"
            );
            data.len() / arity
        };
        RowStore { data, arity, rows }
    }

    /// Builds a store holding `base`'s rows followed by `delta` — the
    /// incremental-ingest growth path.
    ///
    /// Only the delta is flattened row by row (and shape-asserted);
    /// `base`'s already-flat buffer is block-copied wholesale, so the
    /// per-row materialisation cost of an append is proportional to the
    /// delta alone, not the table. When `base` is empty the delta's
    /// first row sets the arity; otherwise every delta row must match
    /// `base`'s arity.
    pub fn with_appended(base: &RowStore, delta: &[Vec<f64>]) -> RowStore {
        let arity = if base.rows == 0 && base.arity == 0 {
            delta.first().map_or(0, Vec::len)
        } else {
            base.arity
        };
        let mut data = Vec::with_capacity(base.data.len() + delta.len() * arity);
        data.extend_from_slice(&base.data);
        for row in delta {
            assert_eq!(
                row.len(),
                arity,
                "appended rows must share the store's arity"
            );
            data.extend_from_slice(row);
        }
        RowStore {
            data,
            arity,
            rows: base.rows + delta.len(),
        }
    }

    /// Appends `delta` onto the store in place — the mutating twin of
    /// [`RowStore::with_appended`] for callers holding exclusive access
    /// to the store.
    ///
    /// Amortized O(delta): the flat buffer grows with `Vec`'s doubling,
    /// so a stream of appends touches the base only on the rare
    /// reallocation instead of copying it every time. Same shape rule
    /// as [`RowStore::with_appended`]: the delta's first row sets the
    /// arity of an empty store, otherwise every row must match.
    pub fn append_rows(&mut self, delta: &[Vec<f64>]) {
        if self.rows == 0 && self.arity == 0 {
            self.arity = delta.first().map_or(0, Vec::len);
        }
        self.data.reserve(delta.len() * self.arity);
        for row in delta {
            assert_eq!(
                row.len(),
                self.arity,
                "appended rows must share the store's arity"
            );
            self.data.extend_from_slice(row);
        }
        self.rows += delta.len();
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Row arity (values per row).
    pub fn dimension(&self) -> usize {
        self.arity
    }

    /// Row `i` as a slice (panics when out of bounds).
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// Iterates over all rows in order.
    pub fn iter_rows(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        self.data.chunks_exact(self.arity.max(1)).take(self.rows)
    }

    /// The flat row-major buffer (row `i` occupies
    /// `flat[i*dimension()..(i+1)*dimension()]`).
    pub fn flat(&self) -> &[f64] {
        &self.data
    }

    /// The flat values of rows `start..end` — a zero-copy window over a
    /// contiguous row range, used by the streaming plane to hash and
    /// age window contents without materialising them. Panics when the
    /// range is out of bounds or inverted.
    pub fn flat_range(&self, start: usize, end: usize) -> &[f64] {
        assert!(start <= end, "row range inverted");
        assert!(end <= self.rows, "row range out of bounds");
        &self.data[start * self.arity..end * self.arity]
    }

    /// Size of the row payload in bytes — what the legacy clone plane
    /// would copy per materialisation.
    pub fn payload_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }

    /// Deep-copies the store back into nested rows (legacy shape).
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        self.iter_rows().map(<[f64]>::to_vec).collect()
    }

    /// Sums column `d` over rows `start..start+len` with a chunked,
    /// autovectorisable accumulation over the flat buffer.
    ///
    /// This is the hot inner loop of every mean/sum-shaped chamber
    /// program: for single-column stores it reduces a contiguous `f64`
    /// slice in independent lanes; for wider rows it runs a strided
    /// unrolled loop. Both orders are fixed, so results are
    /// deterministic (though not bit-identical to a naive left fold).
    pub fn column_sum_range(&self, d: usize, start: usize, len: usize) -> f64 {
        assert!(d < self.arity, "column {d} out of bounds");
        assert!(start + len <= self.rows, "row range out of bounds");
        if self.arity == 1 {
            return sum_lanes(&self.data[start..start + len]);
        }
        let stride = self.arity;
        let base = start * stride + d;
        let mut acc = [0.0f64; 4];
        let mut r = 0;
        while r + 4 <= len {
            for (k, a) in acc.iter_mut().enumerate() {
                *a += self.data[base + (r + k) * stride];
            }
            r += 4;
        }
        let mut tail = 0.0;
        while r < len {
            tail += self.data[base + r * stride];
            r += 1;
        }
        acc.iter().sum::<f64>() + tail
    }

    /// Like [`RowStore::column_sum_range`], clamping every value into
    /// `[lo, hi]` before accumulating (the clamp half of the
    /// sample-and-aggregate per-block loop). Non-finite values collapse
    /// to a bound rather than poisoning the sum.
    pub fn column_clamped_sum_range(
        &self,
        d: usize,
        start: usize,
        len: usize,
        lo: f64,
        hi: f64,
    ) -> f64 {
        assert!(d < self.arity, "column {d} out of bounds");
        assert!(start + len <= self.rows, "row range out of bounds");
        let stride = self.arity;
        let base = start * stride + d;
        if stride == 1 {
            return self.data[start..start + len]
                .chunks(8)
                .map(|c| c.iter().map(|v| v.min(hi).max(lo)).sum::<f64>())
                .sum();
        }
        let mut acc = [0.0f64; 4];
        let mut r = 0;
        while r + 4 <= len {
            for (k, a) in acc.iter_mut().enumerate() {
                *a += self.data[base + (r + k) * stride].min(hi).max(lo);
            }
            r += 4;
        }
        let mut tail = 0.0;
        while r < len {
            tail += self.data[base + r * stride].min(hi).max(lo);
            r += 1;
        }
        acc.iter().sum::<f64>() + tail
    }
}

/// Lane-split reduction of a contiguous slice: 8 independent partial
/// sums the optimiser can keep in vector registers, plus a scalar tail.
fn sum_lanes(xs: &[f64]) -> f64 {
    let mut acc = [0.0f64; 8];
    let mut chunks = xs.chunks_exact(8);
    for c in &mut chunks {
        for (a, v) in acc.iter_mut().zip(c) {
            *a += v;
        }
    }
    let tail: f64 = chunks.remainder().iter().sum();
    acc.iter().sum::<f64>() + tail
}

/// Which rows of the store a [`BlockView`] exposes.
#[derive(Debug, Clone)]
enum ViewIndices {
    /// A contiguous row range `start..start+len` (estimator paths:
    /// whole-table runs, aged-data chunks). Costs no index storage.
    Dense { start: usize, len: usize },
    /// An explicit index list shared with the block plan. `Arc`-backed
    /// so cloning the view never copies the indices either.
    Sparse(Arc<[usize]>),
}

/// A read-only window onto an [`Arc<RowStore>`]: the block a chamber
/// ships to an untrusted program.
///
/// This is the data half of the isolation boundary (the trait signature
/// of [`crate::BlockProgram`] is the other half): a program can index
/// and iterate its block's rows but cannot reach neighbouring rows,
/// mutate the store, or learn its own indices' positions in the table.
/// Cloning is O(1) — two `Arc` bumps — which is what makes shipping
/// views to pool workers γ-independent.
#[derive(Debug, Clone)]
pub struct BlockView {
    store: Arc<RowStore>,
    indices: ViewIndices,
}

impl BlockView {
    /// A view over an explicit, shared index list.
    ///
    /// Panics when an index is out of bounds for the store (checked once
    /// here so `row` stays branch-light).
    pub fn sparse(store: Arc<RowStore>, indices: Arc<[usize]>) -> BlockView {
        let n = store.len();
        assert!(
            indices.iter().all(|&i| i < n),
            "block index out of bounds for store of {n} rows"
        );
        BlockView {
            store,
            indices: ViewIndices::Sparse(indices),
        }
    }

    /// A view over the contiguous row range `start..start+len`.
    pub fn dense(store: Arc<RowStore>, start: usize, len: usize) -> BlockView {
        assert!(
            start.checked_add(len).is_some_and(|end| end <= store.len()),
            "dense range {start}..{} out of bounds for store of {} rows",
            start + len,
            store.len()
        );
        BlockView {
            store,
            indices: ViewIndices::Dense { start, len },
        }
    }

    /// A view over the whole store.
    pub fn full(store: Arc<RowStore>) -> BlockView {
        let len = store.len();
        BlockView::dense(store, 0, len)
    }

    /// Convenience for tests and adapters: copies `rows` into a fresh
    /// single-use store and views all of it. (Production paths share one
    /// registration-time store instead.)
    pub fn from_rows(rows: &[Vec<f64>]) -> BlockView {
        BlockView::full(Arc::new(RowStore::from_rows(rows)))
    }

    /// Number of rows in the block.
    pub fn len(&self) -> usize {
        match &self.indices {
            ViewIndices::Dense { len, .. } => *len,
            ViewIndices::Sparse(idx) => idx.len(),
        }
    }

    /// Whether the block is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row arity of the underlying store.
    pub fn dimension(&self) -> usize {
        self.store.dimension()
    }

    /// The `i`-th row of the block (panics when out of bounds).
    pub fn row(&self, i: usize) -> &[f64] {
        match &self.indices {
            ViewIndices::Dense { start, len } => {
                assert!(i < *len, "row {i} out of bounds for block of {len} rows");
                self.store.row(start + i)
            }
            ViewIndices::Sparse(idx) => self.store.row(idx[i]),
        }
    }

    /// Iterates over the block's rows in block order.
    pub fn iter(&self) -> BlockRows<'_> {
        let rows = match &self.indices {
            ViewIndices::Dense { start, len } => RowIndices::Dense(*start..start + len),
            ViewIndices::Sparse(idx) => RowIndices::Sparse(idx.iter()),
        };
        BlockRows {
            store: &self.store,
            rows,
        }
    }

    /// The shared row store this view borrows from. Exposed so callers
    /// can assert zero-copy sharing (`Arc::ptr_eq`); the store itself is
    /// immutable.
    pub fn store(&self) -> &Arc<RowStore> {
        &self.store
    }

    /// Bytes of *index* bookkeeping this view carries (0 for dense
    /// ranges) — the only per-block allocation the view plane makes.
    pub fn index_bytes(&self) -> usize {
        match &self.indices {
            ViewIndices::Dense { .. } => 0,
            ViewIndices::Sparse(idx) => idx.len() * std::mem::size_of::<usize>(),
        }
    }

    /// Deep-copies the block into the legacy nested-rows shape.
    ///
    /// This is the clone plane the view API replaces; it survives only
    /// for the [`crate::RowSliceProgram`] compatibility adapter and for
    /// equivalence tests. New programs should iterate the view directly.
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        self.iter().map(<[f64]>::to_vec).collect()
    }

    /// Sum of column `d` over the block, vectorised for dense views
    /// (chunked reduction straight over the shared flat buffer — see
    /// [`RowStore::column_sum_range`]); sparse views gather per index.
    pub fn column_sum(&self, d: usize) -> f64 {
        match &self.indices {
            ViewIndices::Dense { start, len } => self.store.column_sum_range(d, *start, *len),
            ViewIndices::Sparse(idx) => idx.iter().map(|&i| self.store.row(i)[d]).sum(),
        }
    }

    /// Mean of column `d` over the block (0 for an empty block).
    pub fn column_mean(&self, d: usize) -> f64 {
        let n = self.len();
        if n == 0 {
            return 0.0;
        }
        self.column_sum(d) / n as f64
    }

    /// Sum of column `d` with every value clamped into `[lo, hi]` —
    /// the fused clamp+sum inner loop of sample-and-aggregate block
    /// programs, vectorised for dense views.
    pub fn column_clamped_sum(&self, d: usize, lo: f64, hi: f64) -> f64 {
        match &self.indices {
            ViewIndices::Dense { start, len } => {
                self.store.column_clamped_sum_range(d, *start, *len, lo, hi)
            }
            ViewIndices::Sparse(idx) => idx
                .iter()
                .map(|&i| self.store.row(i)[d].min(hi).max(lo))
                .sum(),
        }
    }
}

impl<'a> IntoIterator for &'a BlockView {
    type Item = &'a [f64];
    type IntoIter = BlockRows<'a>;

    fn into_iter(self) -> BlockRows<'a> {
        self.iter()
    }
}

/// Iterator over a [`BlockView`]'s rows: it walks the view's store
/// indices directly, so a row costs one index step and one store slice.
#[derive(Debug)]
pub struct BlockRows<'a> {
    store: &'a RowStore,
    rows: RowIndices<'a>,
}

/// The store indices a [`BlockRows`] has yet to yield.
#[derive(Debug)]
enum RowIndices<'a> {
    Dense(Range<usize>),
    Sparse(slice::Iter<'a, usize>),
}

impl<'a> Iterator for BlockRows<'a> {
    type Item = &'a [f64];

    #[inline]
    fn next(&mut self) -> Option<&'a [f64]> {
        let i = match &mut self.rows {
            RowIndices::Dense(range) => range.next()?,
            RowIndices::Sparse(idx) => *idx.next()?,
        };
        Some(self.store.row(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.rows {
            RowIndices::Dense(range) => range.size_hint(),
            RowIndices::Sparse(idx) => idx.size_hint(),
        }
    }
}

impl ExactSizeIterator for BlockRows<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> Arc<RowStore> {
        Arc::new(RowStore::from_rows(&[
            vec![0.0, 10.0],
            vec![1.0, 11.0],
            vec![2.0, 12.0],
            vec![3.0, 13.0],
        ]))
    }

    #[test]
    fn store_round_trips_rows() {
        let s = store();
        assert_eq!(s.len(), 4);
        assert_eq!(s.dimension(), 2);
        assert_eq!(s.row(2), &[2.0, 12.0]);
        assert_eq!(s.iter_rows().count(), 4);
        assert_eq!(s.to_rows()[3], vec![3.0, 13.0]);
        assert_eq!(s.payload_bytes(), 4 * 2 * 8);
    }

    #[test]
    fn empty_store() {
        let s = RowStore::from_rows(&[]);
        assert!(s.is_empty());
        assert_eq!(s.dimension(), 0);
        assert_eq!(s.iter_rows().count(), 0);
    }

    #[test]
    fn from_flat_round_trips() {
        let s = RowStore::from_flat(vec![1.0, 2.0, 3.0, 4.0], 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "multiple of the arity")]
    fn from_flat_rejects_ragged() {
        RowStore::from_flat(vec![1.0, 2.0, 3.0], 2);
    }

    #[test]
    fn flat_range_windows_the_buffer() {
        let s = RowStore::from_rows(&[vec![0.0, 10.0], vec![1.0, 11.0], vec![2.0, 12.0]]);
        assert_eq!(s.flat_range(1, 3), &[1.0, 11.0, 2.0, 12.0]);
        assert_eq!(s.flat_range(0, 3), s.flat());
        assert!(s.flat_range(2, 2).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn flat_range_rejects_overrun() {
        let s = RowStore::from_rows(&[vec![1.0]]);
        s.flat_range(0, 2);
    }

    #[test]
    #[should_panic(expected = "one arity")]
    fn from_rows_rejects_ragged() {
        RowStore::from_rows(&[vec![1.0], vec![2.0, 3.0]]);
    }

    #[test]
    fn with_appended_grows_without_rewalking_base_rows() {
        let base = RowStore::from_rows(&[vec![0.0, 10.0], vec![1.0, 11.0]]);
        let grown = RowStore::with_appended(&base, &[vec![2.0, 12.0], vec![3.0, 13.0]]);
        assert_eq!(grown.len(), 4);
        assert_eq!(grown.dimension(), 2);
        assert_eq!(grown.row(1), &[1.0, 11.0]);
        assert_eq!(grown.row(3), &[3.0, 13.0]);
        // Appending to the grown store again keeps the invariants.
        let again = RowStore::with_appended(&grown, &[]);
        assert_eq!(again, grown);
    }

    #[test]
    fn with_appended_to_empty_store_adopts_delta_arity() {
        let empty = RowStore::from_rows(&[]);
        let grown = RowStore::with_appended(&empty, &[vec![7.0, 8.0, 9.0]]);
        assert_eq!(grown.len(), 1);
        assert_eq!(grown.dimension(), 3);
    }

    #[test]
    #[should_panic(expected = "share the store's arity")]
    fn with_appended_rejects_mismatched_arity() {
        let base = RowStore::from_rows(&[vec![1.0, 2.0]]);
        RowStore::with_appended(&base, &[vec![3.0]]);
    }

    #[test]
    fn in_place_append_matches_the_copying_path() {
        let mut grown = RowStore::from_rows(&[vec![0.0, 10.0], vec![1.0, 11.0]]);
        let copied = RowStore::with_appended(&grown, &[vec![2.0, 12.0], vec![3.0, 13.0]]);
        grown.append_rows(&[vec![2.0, 12.0], vec![3.0, 13.0]]);
        assert_eq!(grown, copied);
        // An empty store adopts the delta's arity, like the copy path.
        let mut empty = RowStore::from_rows(&[]);
        empty.append_rows(&[vec![7.0, 8.0, 9.0]]);
        assert_eq!(empty.len(), 1);
        assert_eq!(empty.dimension(), 3);
        // And an empty delta is a no-op.
        empty.append_rows(&[]);
        assert_eq!(empty.len(), 1);
    }

    #[test]
    #[should_panic(expected = "share the store's arity")]
    fn in_place_append_rejects_mismatched_arity() {
        let mut base = RowStore::from_rows(&[vec![1.0, 2.0]]);
        base.append_rows(&[vec![3.0]]);
    }

    #[test]
    fn sparse_view_selects_and_repeats() {
        let v = BlockView::sparse(store(), Arc::from(vec![3, 1, 1].into_boxed_slice()));
        assert_eq!(v.len(), 3);
        assert_eq!(v.dimension(), 2);
        assert_eq!(v.row(0), &[3.0, 13.0]);
        assert_eq!(v.row(2), &[1.0, 11.0]);
        let firsts: Vec<f64> = v.iter().map(|r| r[0]).collect();
        assert_eq!(firsts, vec![3.0, 1.0, 1.0]);
        assert_eq!(v.index_bytes(), 3 * std::mem::size_of::<usize>());
    }

    #[test]
    fn dense_view_windows_the_store() {
        let v = BlockView::dense(store(), 1, 2);
        assert_eq!(v.len(), 2);
        assert_eq!(v.row(0), &[1.0, 11.0]);
        assert_eq!(v.row(1), &[2.0, 12.0]);
        assert_eq!(v.index_bytes(), 0);
        assert_eq!(v.to_rows(), vec![vec![1.0, 11.0], vec![2.0, 12.0]]);
    }

    #[test]
    fn full_view_covers_everything() {
        let v = BlockView::full(store());
        assert_eq!(v.len(), 4);
        assert!(!v.is_empty());
        assert_eq!(v.iter().len(), 4);
    }

    #[test]
    fn clones_share_the_store() {
        let s = store();
        let v = BlockView::full(Arc::clone(&s));
        let w = v.clone();
        assert_eq!(Arc::strong_count(&s), 3);
        assert_eq!(w.row(0), v.row(0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn sparse_rejects_out_of_range_index() {
        BlockView::sparse(store(), Arc::from(vec![4].into_boxed_slice()));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn dense_rejects_overlong_range() {
        BlockView::dense(store(), 2, 3);
    }

    #[test]
    fn for_loop_iteration() {
        let v = BlockView::from_rows(&[vec![5.0], vec![6.0]]);
        let mut sum = 0.0;
        for row in &v {
            sum += row[0];
        }
        assert_eq!(sum, 11.0);
    }

    #[test]
    fn block_rows_yield_each_row_with_an_exact_length() {
        let s = store();
        let sparse = |idx: Vec<usize>| BlockView::sparse(Arc::clone(&s), Arc::from(idx));
        let views = [
            BlockView::full(Arc::clone(&s)),
            BlockView::dense(Arc::clone(&s), 1, 2),
            BlockView::dense(Arc::clone(&s), 2, 0),
            sparse(vec![3, 1, 1, 0, 3]),
            sparse(Vec::new()),
        ];
        for v in &views {
            let mut rows = v.iter();
            for i in 0..v.len() {
                let left = v.len() - i;
                assert_eq!(rows.len(), left);
                assert_eq!(rows.size_hint(), (left, Some(left)));
                assert_eq!(rows.next(), Some(v.row(i)));
            }
            assert_eq!(rows.len(), 0);
            assert_eq!(rows.size_hint(), (0, Some(0)));
            assert_eq!(rows.next(), None);
        }
    }

    #[test]
    fn column_sum_matches_naive_on_dense_and_sparse() {
        // 100 single-column rows: both the lane-chunked contiguous path
        // and the sparse gather must agree with a naive fold.
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 * 0.5]).collect();
        let s = Arc::new(RowStore::from_rows(&rows));
        let naive: f64 = rows.iter().map(|r| r[0]).sum();
        let dense = BlockView::full(Arc::clone(&s));
        assert!((dense.column_sum(0) - naive).abs() < 1e-9);
        let idx: Arc<[usize]> = (0..100).collect::<Vec<_>>().into();
        let sparse = BlockView::sparse(Arc::clone(&s), idx);
        assert!((sparse.column_sum(0) - naive).abs() < 1e-9);
        // Window into the middle exercises the offset math.
        let window = BlockView::dense(s, 10, 37);
        let naive_window: f64 = rows[10..47].iter().map(|r| r[0]).sum();
        assert!((window.column_sum(0) - naive_window).abs() < 1e-9);
    }

    #[test]
    fn column_sum_strided_multi_column() {
        let rows: Vec<Vec<f64>> = (0..23).map(|i| vec![i as f64, 100.0 + i as f64]).collect();
        let v = BlockView::from_rows(&rows);
        let naive0: f64 = rows.iter().map(|r| r[0]).sum();
        let naive1: f64 = rows.iter().map(|r| r[1]).sum();
        assert!((v.column_sum(0) - naive0).abs() < 1e-9);
        assert!((v.column_sum(1) - naive1).abs() < 1e-9);
        assert!((v.column_mean(1) - naive1 / 23.0).abs() < 1e-9);
    }

    #[test]
    fn column_clamped_sum_clamps_each_value() {
        let v = BlockView::from_rows(&[vec![-5.0], vec![3.0], vec![50.0], vec![f64::NAN]]);
        // -5 → 0, 3 → 3, 50 → 10, NaN collapses to a bound (10).
        assert_eq!(v.column_clamped_sum(0, 0.0, 10.0), 23.0);
        let wide: Vec<Vec<f64>> = (0..9).map(|i| vec![0.0, i as f64]).collect();
        let w = BlockView::from_rows(&wide);
        // Column 1 clamped into [2, 6]: 2+2+2+3+4+5+6+6+6.
        assert_eq!(w.column_clamped_sum(1, 2.0, 6.0), 36.0);
    }

    #[test]
    fn column_mean_of_empty_block_is_zero() {
        let s = Arc::new(RowStore::from_rows(&[vec![1.0]]));
        let v = BlockView::dense(s, 0, 0);
        assert_eq!(v.column_mean(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn column_sum_rejects_bad_column() {
        BlockView::from_rows(&[vec![1.0]]).column_sum(3);
    }
}
