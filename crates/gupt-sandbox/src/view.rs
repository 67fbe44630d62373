//! The zero-copy data plane: a shared row store and cheap block views.
//!
//! The paper pipes a *copy* of each block into the sandboxed process.
//! The first in-process analogue did the same — `Vec<Vec<Vec<f64>>>`
//! blocks deep-cloned from the dataset — which copies the whole table
//! γ times per query before a single chamber runs. This module replaces
//! that plane with sharing:
//!
//! - [`RowStore`] holds the table **once** and is handed around behind
//!   an `Arc`. The registered rows are one contiguous row-major `f64`
//!   segment; rows appended later go into fixed [`CHUNK_ROWS`]-row
//!   chunks. Both are `Arc`-shared, so cloning a store (a snapshot)
//!   copies the chunk list, never row data, and an append copies at
//!   most the one partly filled chunk a snapshot still reads.
//! - [`BlockView`] is a cheap handle onto a store: either a dense index
//!   range or a shared sparse index list. Cloning a view copies two
//!   pointers and two integers — never row data — so shipping γ·⌈n/β⌉
//!   blocks to chamber workers allocates O(total indices), independent
//!   of γ and of the dataset's byte size.
//!
//! Read-only sharing preserves the §6 isolation story: a program holding
//! a `BlockView` can *read* exactly its block's rows and nothing else —
//! the view API has no mutators, no neighbouring-row access, and a
//! segment is only ever written while no other store shares it.

use std::ops::Range;
use std::sync::Arc;
use std::{iter, slice};

/// log2 of [`CHUNK_ROWS`].
const CHUNK_SHIFT: u32 = 12;

/// Rows per appended chunk. Only a store's last chunk is ever partly
/// filled, so appended row `j` sits at offset `j % CHUNK_ROWS` of chunk
/// `j / CHUNK_ROWS` (a shift and a mask).
pub const CHUNK_ROWS: usize = 1 << CHUNK_SHIFT;

/// An immutable-by-sharing, row-major table of `f64` values.
///
/// The rows given at construction form one contiguous *registered*
/// segment; [`RowStore::append_rows`] adds rows in fixed-size chunks
/// after it. All rows have the same arity ([`RowStore::dimension`]).
/// Segments are `Arc`-shared between clones and written only while
/// unshared, so a clone taken before an append keeps seeing exactly
/// the rows it had. Equality compares rows, not segmentation.
#[derive(Debug, Clone)]
pub struct RowStore {
    /// The registered rows, `base_rows · arity` values.
    base: Arc<[f64]>,
    base_rows: usize,
    /// Appended rows, [`CHUNK_ROWS`] per chunk; only the last chunk may
    /// be partly filled. Each chunk reserves its full capacity when it
    /// is created, so filling it never moves rows already in it.
    chunks: Vec<Arc<Vec<f64>>>,
    arity: usize,
    rows: usize,
}

impl RowStore {
    /// Builds a store whose registered segment holds `rows`.
    ///
    /// All rows must share the first row's arity (the caller validates
    /// shape; this constructor only asserts it). An empty slice yields
    /// an empty store of dimension 0.
    pub fn from_rows(rows: &[Vec<f64>]) -> RowStore {
        let arity = rows.first().map_or(0, Vec::len);
        for row in rows {
            assert_eq!(row.len(), arity, "all rows must share one arity");
        }
        // `Range::map` is `TrustedLen`, so the segment is allocated once
        // at its final size and filled in place, with no flat `Vec` first.
        let mut values = rows.iter().flatten().copied();
        let base: Arc<[f64]> = (0..rows.len() * arity)
            .map(|_| values.next().expect("one value per cell"))
            .collect();
        RowStore {
            base,
            base_rows: rows.len(),
            chunks: Vec::new(),
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
        RowStore {
            base: Arc::from(data),
            base_rows: rows,
            chunks: Vec::new(),
            arity,
            rows,
        }
    }

    /// Appends `delta` after the store's last row and returns the bytes
    /// this wrote: the delta's values plus, when another store (a
    /// snapshot) still shares the partly filled last chunk, that chunk's
    /// rows, which are copied first so the snapshot never sees the
    /// append. Full chunks and the registered segment are never copied.
    ///
    /// The delta's first row sets the arity of an empty store of
    /// dimension 0; otherwise every row must match the store's arity
    /// (panics on a mismatch, keeping the rows before it).
    pub fn append_rows<R: AsRef<[f64]>>(&mut self, delta: impl IntoIterator<Item = R>) -> usize {
        let mut delta = delta.into_iter().peekable();
        if self.rows == 0 && self.arity == 0 {
            self.arity = delta.peek().map_or(0, |row| row.as_ref().len());
        }
        let arity = self.arity;
        let size = CHUNK_ROWS * arity;
        let mut written = 0;
        while delta.peek().is_some() {
            let filled = (self.rows - self.base_rows) & (CHUNK_ROWS - 1);
            if filled == 0 {
                self.chunks.push(Arc::new(Vec::with_capacity(size)));
            }
            let tail = self.chunks.last_mut().expect("an open chunk");
            if Arc::get_mut(tail).is_none() {
                // A snapshot reads this chunk: copy its filled rows.
                let mut own = Vec::with_capacity(size);
                own.extend_from_slice(tail);
                written += own.len();
                *tail = Arc::new(own);
            }
            let tail = Arc::get_mut(tail).expect("the open chunk is unshared");
            let mut added = 0;
            let mut mismatch = None;
            for row in delta.by_ref().take(CHUNK_ROWS - filled) {
                let row = row.as_ref();
                if row.len() != arity {
                    mismatch = Some(row.len());
                    break;
                }
                tail.extend_from_slice(row);
                added += 1;
            }
            self.rows += added;
            written += added * arity;
            if let Some(len) = mismatch {
                panic!("appended rows must share the store's arity {arity}, got a row of {len}");
            }
        }
        written * std::mem::size_of::<f64>()
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

    /// Row `i` as a slice (panics when out of bounds). Registered rows
    /// are read straight off their segment; only appended rows are
    /// looked up by (chunk, offset).
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        // One bounds check, as on a flat buffer; it fails exactly for
        // rows past the registered segment.
        match self.base.get(i * self.arity..(i + 1) * self.arity) {
            Some(row) => row,
            None => self.appended_row(i - self.base_rows),
        }
    }

    /// Appended row `j` (row `base_rows + j` of the store).
    fn appended_row(&self, j: usize) -> &[f64] {
        let offset = (j & (CHUNK_ROWS - 1)) * self.arity;
        &self.chunks[j >> CHUNK_SHIFT][offset..offset + self.arity]
    }

    /// Iterates over all rows in order.
    pub fn iter_rows(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        (0..self.rows).map(move |i| self.row(i))
    }

    /// The row-major values of rows `rows`, one slice per segment the
    /// range touches, in row order: the registered part first, then
    /// each chunk's part. Hashing or copying window contents walks
    /// these without materialising them. Panics when the range is
    /// inverted or out of bounds.
    pub fn segments(&self, rows: Range<usize>) -> impl Iterator<Item = &[f64]> + '_ {
        assert!(rows.start <= rows.end, "row range inverted");
        assert!(rows.end <= self.rows, "row range out of bounds");
        let (a, base_rows) = (self.arity, self.base_rows);
        let registered = &self.base[rows.start.min(base_rows) * a..rows.end.min(base_rows) * a];
        // The appended part, as offsets past the registered segment.
        let lo = rows.start.max(base_rows) - base_rows;
        let hi = rows.end.max(base_rows) - base_rows;
        let chunks = if lo < hi {
            lo >> CHUNK_SHIFT..((hi - 1) >> CHUNK_SHIFT) + 1
        } else {
            0..0
        };
        iter::once(registered).chain(chunks.map(move |c| {
            let first = c << CHUNK_SHIFT;
            let from = lo.max(first) - first;
            let to = hi.min(first + CHUNK_ROWS) - first;
            &self.chunks[c][from * a..to * a]
        }))
    }

    /// Size of the row payload in bytes — what the legacy clone plane
    /// would copy per materialisation.
    pub fn payload_bytes(&self) -> usize {
        self.rows * self.arity * std::mem::size_of::<f64>()
    }

    /// Deep-copies the store back into nested rows (legacy shape).
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        self.iter_rows().map(<[f64]>::to_vec).collect()
    }
}

impl PartialEq for RowStore {
    fn eq(&self, other: &RowStore) -> bool {
        self.arity == other.arity
            && self.rows == other.rows
            && self.iter_rows().eq(other.iter_rows())
    }
}

/// Which rows of the store a [`BlockView`] exposes.
#[derive(Debug, Clone)]
enum ViewIndices {
    /// A contiguous row range `start..start+len` (estimator paths:
    /// whole-table runs, aged-data chunks). Costs no index storage.
    Dense { start: usize, len: usize },
    /// An explicit index list shared with the block plan. `Arc`-backed
    /// so cloning the view never copies the indices either.
    /// `registered` records, from the one bounds scan at construction,
    /// whether every index lies in the store's registered segment.
    Sparse { idx: Arc<[usize]>, registered: bool },
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
        let registered = store.base_rows == n || indices.iter().all(|&i| i < store.base_rows);
        BlockView {
            store,
            indices: ViewIndices::Sparse {
                idx: indices,
                registered,
            },
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
            ViewIndices::Sparse { idx, .. } => idx.len(),
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
            ViewIndices::Sparse { idx, .. } => self.store.row(idx[i]),
        }
    }

    /// Iterates over the block's rows in block order.
    pub fn iter(&self) -> BlockRows<'_> {
        let store = &*self.store;
        let rows = match &self.indices {
            ViewIndices::Sparse {
                idx,
                registered: true,
            } => RowIndices::Registered(idx.iter()),
            ViewIndices::Sparse { idx, .. } => RowIndices::Segmented {
                store,
                sparse: idx.iter(),
                dense: 0..0,
            },
            ViewIndices::Dense { start, len } => RowIndices::Segmented {
                store,
                sparse: [].iter(),
                dense: *start..start + len,
            },
        };
        BlockRows {
            registered: &store.base,
            arity: store.arity,
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
            ViewIndices::Sparse { idx, .. } => idx.len() * std::mem::size_of::<usize>(),
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
    /// The store's registered segment and row arity.
    registered: &'a [f64],
    arity: usize,
    rows: RowIndices<'a>,
}

/// The store indices a [`BlockRows`] has yet to yield.
///
/// The kind is fixed for the whole walk, so the per-row `match` is
/// loop-invariant and the compiler can specialise the loop on it.
#[derive(Debug)]
enum RowIndices<'a> {
    /// Indices that all lie in the registered segment — every block of
    /// a query plan over registered rows: each row is one slice of the
    /// segment, exactly as on a flat table.
    Registered(slice::Iter<'a, usize>),
    /// Indices that may reach appended rows, or a dense range (exactly
    /// one of the two is non-empty): each row goes through
    /// [`RowStore::row`].
    Segmented {
        store: &'a RowStore,
        sparse: slice::Iter<'a, usize>,
        dense: Range<usize>,
    },
}

impl<'a> Iterator for BlockRows<'a> {
    type Item = &'a [f64];

    #[inline]
    fn next(&mut self) -> Option<&'a [f64]> {
        match &mut self.rows {
            RowIndices::Registered(idx) => {
                let i = *idx.next()?;
                Some(&self.registered[i * self.arity..(i + 1) * self.arity])
            }
            RowIndices::Segmented {
                store,
                sparse,
                dense,
            } => {
                let i = match sparse.next() {
                    Some(&i) => i,
                    None => dense.next()?,
                };
                Some(store.row(i))
            }
        }
    }

    // Inlined so the iterator stays in registers inside callers' loops.
    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = match &self.rows {
            RowIndices::Registered(idx) => idx.len(),
            RowIndices::Segmented { sparse, dense, .. } => sparse.len() + dense.len(),
        };
        (left, Some(left))
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

    /// Registered rows `0..n` then appended rows `n..n + m`, each row
    /// `[i, -i]`, next to the same rows as nested vectors.
    fn grown(n: usize, m: usize) -> (RowStore, Vec<Vec<f64>>) {
        let rows: Vec<Vec<f64>> = (0..n + m).map(|i| vec![i as f64, -(i as f64)]).collect();
        let mut s = RowStore::from_rows(&rows[..n]);
        let written = s.append_rows(&rows[n..]);
        assert_eq!(
            written,
            m * 2 * 8,
            "an unshared store writes the delta only"
        );
        (s, rows)
    }

    #[test]
    fn segments_walk_the_rows_in_order() {
        let (s, rows) = grown(5, 2 * CHUNK_ROWS + 7);
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        for (start, end) in [
            (0, s.len()),
            (0, 5),
            (3, 9),
            (5, 5 + CHUNK_ROWS),
            (4 + CHUNK_ROWS, 6 + 2 * CHUNK_ROWS),
            (s.len() - 1, s.len()),
            (7, 7),
        ] {
            let walked: Vec<f64> = s.segments(start..end).flatten().copied().collect();
            assert_eq!(walked, flat[start * 2..end * 2], "rows {start}..{end}");
        }
        // One slice for the registered part, one per chunk touched.
        assert_eq!(s.segments(0..s.len()).count(), 4);
        assert_eq!(s.segments(0..3).count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn segments_reject_overrun() {
        let (s, _) = grown(1, 1);
        s.segments(0..3).count();
    }

    #[test]
    fn appends_fill_chunks_behind_the_registered_rows() {
        let (s, rows) = grown(3, CHUNK_ROWS + 2);
        assert_eq!(s.len(), rows.len());
        assert_eq!(s.dimension(), 2);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(s.row(i), row.as_slice());
        }
        assert_eq!(s.iter_rows().len(), rows.len());
        assert_eq!(s.to_rows(), rows);
        assert_eq!(s.payload_bytes(), rows.len() * 2 * 8);
        // Rows compare, not layout: the same rows registered in one
        // piece, or copied out, are equal stores.
        assert_eq!(s, RowStore::from_rows(&rows));
        assert_ne!(s, RowStore::from_rows(&rows[1..]));
    }

    #[test]
    fn append_to_an_empty_store_adopts_the_delta_arity() {
        let mut empty = RowStore::from_rows(&[]);
        assert_eq!(empty.append_rows(&[vec![7.0, 8.0, 9.0]]), 3 * 8);
        assert_eq!(empty.len(), 1);
        assert_eq!(empty.dimension(), 3);
        // An empty delta is a no-op.
        assert_eq!(empty.append_rows(&[] as &[Vec<f64>]), 0);
        assert_eq!(empty.len(), 1);
    }

    #[test]
    fn append_under_a_clone_copies_only_the_open_chunk() {
        let (mut s, _) = grown(10, CHUNK_ROWS + 5);
        let snapshot = s.clone();
        let written = s.append_rows(vec![vec![1.0, 2.0]; 3]);
        // The delta plus the 5 rows of the open chunk the clone holds.
        assert_eq!(written, (3 + 5) * 2 * 8);
        assert_eq!(snapshot.len(), 10 + CHUNK_ROWS + 5, "the clone is frozen");
        assert_eq!(s.len(), snapshot.len() + 3);
        // Registered rows and the full chunk are shared, not copied.
        for i in [0, 9, 10, CHUNK_ROWS + 9] {
            assert_eq!(s.row(i).as_ptr(), snapshot.row(i).as_ptr(), "row {i}");
        }
        assert_ne!(
            s.row(CHUNK_ROWS + 10).as_ptr(),
            snapshot.row(CHUNK_ROWS + 10).as_ptr()
        );
        // Once unshared, the copied chunk fills in place.
        drop(snapshot);
        assert_eq!(s.append_rows(&[vec![0.0, 0.0]]), 2 * 8);
    }

    #[test]
    #[should_panic(expected = "share the store's arity")]
    fn in_place_append_rejects_mismatched_arity() {
        let mut base = RowStore::from_rows(&[vec![1.0, 2.0]]);
        base.append_rows(&[vec![3.0]]);
    }

    #[test]
    #[should_panic(expected = "one arity")]
    fn from_rows_rejects_ragged() {
        RowStore::from_rows(&[vec![1.0], vec![2.0, 3.0]]);
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
}
