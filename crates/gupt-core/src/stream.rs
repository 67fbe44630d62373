//! Streaming windowed DP analytics over the incremental ingest plane.
//!
//! PR 8 made datasets growable (`GuptRuntime::append_rows` chains the
//! registration epoch over each delta); this module adds *continuous
//! queries* over that append stream. An analyst subscribes a
//! [`QuerySpec`] with a [`WindowSpec`] against a
//! dataset and receives a [`ContinuousQuery`] handle; each call to
//! [`GuptRuntime::poll_window`](crate::GuptRuntime::poll_window)
//! evaluates the next *closed* window through the ordinary chamber
//! pipeline and returns a [`WindowResult`].
//!
//! # Privacy semantics
//!
//! Every fresh window evaluation draws its per-window ε from the dataset
//! ledger exactly like a one-shot query — attributable to a principal
//! and WAL-journaled before the in-memory debit, so a kill-and-recover
//! reconciles to exactly-zero drift between the ledger and the
//! per-principal books. Window answers are keyed in the answer cache by
//! a *content hash of the window's rows* (not the live dataset epoch,
//! which keeps moving as rows arrive), so replaying a closed window —
//! from a second subscription, or after a crash-recovery — is served
//! from the cache at **zero additional ε**. Journaled window answers use
//! the reserved [`STREAM_CACHE_EPOCH`] sentinel so recovery can re-admit
//! them even though the dataset epoch has advanced.
//!
//! As the window frontier advances, rows that no later window can cover
//! are *aged*: copied into the dataset's privacy-insensitive aged store
//! (the §3.3 aging-of-sensitivity path), where they sharpen range
//! estimation and block-size choices for subsequent windows without
//! spending budget. The main store is never truncated — row offsets and
//! the epoch chain stay stable.

use crate::error::GuptError;
use crate::query::QuerySpec;
use crate::runtime::PrivateAnswer;
use gupt_sandbox::view::RowStore;

/// Reserved epoch sentinel for WAL-journaled *window* answers.
///
/// One-shot query answers are journaled under the dataset epoch they
/// were computed at and are only re-admitted by recovery while that
/// epoch is still current. Window answers are instead keyed by the
/// window's own content hash (stable across later appends), so they are
/// journaled under this sentinel and re-admitted unconditionally —
/// validity is carried by the fingerprint, not the journal epoch.
/// `u64::MAX` cannot collide with a real registration epoch in practice:
/// epochs are FNV-1a digests and the chain never produces the sentinel
/// deliberately.
pub const STREAM_CACHE_EPOCH: u64 = u64::MAX;

/// What one window unit means for a [`WindowSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKey {
    /// Units are individual rows in arrival order: a window of `size` s
    /// covers `s` consecutive rows of the main store. Closes as soon as
    /// the dataset holds `end_row` rows.
    RowCount,
    /// Units are *arrival epochs*: the registration batch is arrival 0
    /// and every non-empty `append_rows` delta is the next arrival. A
    /// window of `size` s covers every row that arrived during `s`
    /// consecutive arrivals, so batch boundaries are respected whatever
    /// their row counts.
    Arrival,
}

/// A tumbling or sliding window definition, in units of [`WindowKey`].
///
/// Window `w` covers units `[w·slide, w·slide + size)`. `slide == size`
/// is a tumbling window (disjoint, gap-free); `slide < size` overlaps
/// consecutive windows (sliding); `slide > size` samples the stream
/// with gaps — accepted, and rows in the gaps age out without ever
/// being charged for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    size: usize,
    slide: usize,
    key: WindowKey,
}

impl WindowSpec {
    /// A tumbling window: `slide == size`, every unit in exactly one
    /// window. Errors on a zero size.
    pub fn tumbling(size: usize) -> Result<Self, GuptError> {
        Self::sliding(size, size)
    }

    /// A sliding window of `size` units advancing by `slide` units.
    /// Errors when either is zero.
    pub fn sliding(size: usize, slide: usize) -> Result<Self, GuptError> {
        if size == 0 {
            return Err(GuptError::InvalidSpec(
                "window size must be at least 1 unit".into(),
            ));
        }
        if slide == 0 {
            return Err(GuptError::InvalidSpec(
                "window slide must be at least 1 unit".into(),
            ));
        }
        Ok(WindowSpec {
            size,
            slide,
            key: WindowKey::RowCount,
        })
    }

    /// Re-keys the window (builder-style). Defaults to
    /// [`WindowKey::RowCount`].
    #[must_use]
    pub fn keyed_by(mut self, key: WindowKey) -> Self {
        self.key = key;
        self
    }

    /// Window width in units.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Advance per window in units.
    pub fn slide(&self) -> usize {
        self.slide
    }

    /// What a unit is.
    pub fn key(&self) -> WindowKey {
        self.key
    }

    /// Unit bounds `[start, end)` of window `w`.
    pub fn unit_bounds(&self, window: u64) -> (u64, u64) {
        let start = window * self.slide as u64;
        (start, start + self.size as u64)
    }

    /// The unit frontier behind which no window numbered `> window` can
    /// reach: units `[0, (window+1)·slide)` are dead once window
    /// `window` has closed. This is the aging frontier.
    pub fn expired_units_after(&self, window: u64) -> u64 {
        (window + 1) * self.slide as u64
    }
}

/// Handle to a registered continuous query, returned by
/// [`GuptRuntime::subscribe`](crate::GuptRuntime::subscribe). Cheap to
/// clone; polling goes through the runtime so the handle itself holds
/// no budget or data.
#[derive(Debug, Clone)]
pub struct ContinuousQuery {
    id: u64,
    dataset: String,
    window: WindowSpec,
}

impl ContinuousQuery {
    pub(crate) fn new(id: u64, dataset: String, window: WindowSpec) -> Self {
        ContinuousQuery {
            id,
            dataset,
            window,
        }
    }

    /// Runtime-unique subscription id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The dataset this query watches.
    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    /// The window definition.
    pub fn window(&self) -> &WindowSpec {
        &self.window
    }
}

/// One closed window's private answer, returned by
/// [`GuptRuntime::poll_window`](crate::GuptRuntime::poll_window).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct WindowResult {
    /// Zero-based window index within the subscription.
    pub window: u64,
    /// First main-store row the window covers.
    pub start_row: usize,
    /// One past the last main-store row the window covers.
    pub end_row: usize,
    /// Whether the answer was replayed from the cache (zero additional
    /// ε) rather than freshly evaluated.
    pub replayed: bool,
    /// Rows newly transitioned into the aged store by this poll.
    pub rows_aged: usize,
    /// The differentially private answer. `epsilon_spent` is the
    /// per-window debit for a fresh evaluation and `0.0` on replay.
    pub answer: PrivateAnswer,
}

/// Per-subscription mutable state. The whole struct sits behind one
/// mutex that [`poll_window`](crate::GuptRuntime::poll_window) holds for
/// the full evaluation, so a window can never be charged twice by
/// concurrent polls of the same handle.
#[derive(Debug)]
pub(crate) struct Subscription {
    pub(crate) dataset: String,
    pub(crate) window: WindowSpec,
    pub(crate) spec: QuerySpec,
    pub(crate) principal: Option<String>,
    /// Next window index to evaluate.
    pub(crate) cursor: u64,
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a content hash of rows `[start, end)` of `store`, prefixed with
/// a domain string so a window hash cannot collide with a registration
/// epoch except by chance. Stable across later appends (the rows' bits
/// don't move), across restarts (no clock, no seed) and across store
/// layouts (segments are walked in row order), which is what lets
/// cached window answers replay after recovery. Panics when the range
/// is inverted or out of bounds.
pub fn window_epoch(store: &RowStore, start: usize, end: usize) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    eat(b"gupt-stream-window/v1");
    eat(&(store.dimension() as u64).to_le_bytes());
    eat(&(start as u64).to_le_bytes());
    eat(&(end as u64).to_le_bytes());
    for v in store.segments(start..end).flatten() {
        eat(&v.to_bits().to_le_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(rows: usize) -> RowStore {
        RowStore::from_rows(&(0..rows).map(|i| vec![i as f64, 1.0]).collect::<Vec<_>>())
    }

    #[test]
    fn tumbling_is_sliding_with_equal_slide() {
        let w = WindowSpec::tumbling(10).expect("valid");
        assert_eq!(w.size(), 10);
        assert_eq!(w.slide(), 10);
        assert_eq!(w.key(), WindowKey::RowCount);
        assert_eq!(w.unit_bounds(0), (0, 10));
        assert_eq!(w.unit_bounds(3), (30, 40));
        assert_eq!(w.expired_units_after(0), 10);
    }

    #[test]
    fn sliding_windows_overlap() {
        let w = WindowSpec::sliding(10, 4).expect("valid");
        assert_eq!(w.unit_bounds(0), (0, 10));
        assert_eq!(w.unit_bounds(1), (4, 14));
        // After window 1 closes, only units [0, 8) are unreachable by
        // later windows — window 2 starts at unit 8.
        assert_eq!(w.expired_units_after(1), 8);
    }

    #[test]
    fn zero_size_or_slide_rejected() {
        assert!(WindowSpec::tumbling(0).is_err());
        assert!(WindowSpec::sliding(0, 1).is_err());
        assert!(WindowSpec::sliding(5, 0).is_err());
        let err = WindowSpec::sliding(5, 0).unwrap_err();
        assert!(err.to_string().contains("slide"));
    }

    #[test]
    fn keyed_by_switches_units() {
        let w = WindowSpec::tumbling(2)
            .expect("valid")
            .keyed_by(WindowKey::Arrival);
        assert_eq!(w.key(), WindowKey::Arrival);
    }

    #[test]
    fn window_epoch_is_content_stable() {
        let a = store(20);
        let b = store(30); // same prefix rows, longer store
                           // The hash of rows [0, 10) ignores everything after the window,
                           // so later appends don't invalidate cached window answers.
        assert_eq!(window_epoch(&a, 0, 10), window_epoch(&b, 0, 10));
        // ...but moving the bounds or the content changes it.
        assert_ne!(window_epoch(&a, 0, 10), window_epoch(&a, 0, 11));
        assert_ne!(window_epoch(&a, 0, 10), window_epoch(&a, 1, 11));
        assert_ne!(window_epoch(&a, 0, 10), STREAM_CACHE_EPOCH);
    }

    #[test]
    fn continuous_query_exposes_its_registration() {
        let w = WindowSpec::tumbling(5).expect("valid");
        let q = ContinuousQuery::new(7, "t".into(), w);
        assert_eq!(q.id(), 7);
        assert_eq!(q.dataset(), "t");
        assert_eq!(q.window().size(), 5);
        let q2 = q.clone();
        assert_eq!(q2.id(), 7);
    }
}
