//! The dataset manager (§3.1): registration and per-dataset budget ledgers.
//!
//! "The dataset manager is a database that registers instances of the
//! available datasets and maintains the available privacy budget." Every
//! query the runtime executes is charged against the owning dataset's
//! [`PrivacyLedger`] *before* any computation touches the private rows —
//! this ordering is the §6.2 privacy-budget-attack defense: accounting is
//! runtime-side and fails closed.
//!
//! Registration is builder-style: a [`Dataset`] becomes a
//! [`DatasetRegistration`] carrying its lifetime budget and
//! [`Durability`], so storage configuration lands without widening
//! positional signatures:
//!
//! ```
//! use gupt_core::prelude::*;
//!
//! let mut manager = gupt_core::DatasetManager::new();
//! let dataset = Dataset::new(vec![vec![1.0], vec![2.0]]).unwrap();
//! manager
//!     .add("ages", dataset.builder().budget(Epsilon::new(2.0).unwrap()))
//!     .unwrap();
//! ```
//!
//! With [`Durability::Durable`], every successful charge is logged to a
//! write-ahead log *before* it is granted, and registration replays any
//! existing state — see [`crate::storage`].
//!
//! # Incremental ingest
//!
//! Registration is no longer one-shot: rows may arrive after the fact
//! via [`DatasetEntry::append_rows`] (surfaced to analysts as
//! `GuptRuntime::append_rows` and `DatasetHandle::append`). An append
//! flattens **only the delta** into the Arc-backed row store — in
//! place when no query snapshot holds it, one block copy otherwise;
//! existing rows are never re-walked — and bumps the registration
//! epoch by *chaining* a content hash over the delta (`chain_epoch`),
//! so PR 5's epoch-keyed answer-cache invalidation
//! keeps working without re-hashing the full table. Blocks are re-planned
//! lazily: each query partitions against whatever row count it observes
//! at charge time, so no append-side work is proportional to the
//! existing data.

use crate::dataset::Dataset;
use crate::error::GuptError;
use crate::principal::{ExhaustedPolicy, PrincipalState, PrincipalTable};
use crate::storage::{
    CacheRecord, Durability, LedgerStore, PrincipalBooks, RecoveredLedger, StorageStats,
};
use gupt_dp::{DpError, Epsilon, PrivacyLedger};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

/// A pending registration: dataset + lifetime budget + durability +
/// principal quotas.
///
/// Built with [`Dataset::builder`] and consumed by
/// [`DatasetManager::add`] (or [`crate::GuptRuntimeBuilder::dataset`]).
#[derive(Debug)]
pub struct DatasetRegistration {
    dataset: Dataset,
    budget: Option<Epsilon>,
    durability: Durability,
    principals: Vec<(String, f64)>,
    exhausted_policy: ExhaustedPolicy,
}

impl DatasetRegistration {
    /// Starts a registration for `dataset` (no budget yet, ephemeral).
    pub fn new(dataset: Dataset) -> Self {
        DatasetRegistration {
            dataset,
            budget: None,
            durability: Durability::Ephemeral,
            principals: Vec::new(),
            exhausted_policy: ExhaustedPolicy::default(),
        }
    }

    /// Sets the lifetime privacy budget (required).
    pub fn budget(mut self, total: Epsilon) -> Self {
        self.budget = Some(total);
        self
    }

    /// Sets how the ledger is persisted (default: ephemeral).
    pub fn durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Declares a principal with an ε quota carved from the dataset
    /// budget. Call once per tenant; quotas are admission bookkeeping on
    /// top of the lifetime ledger (see [`crate::principal`]).
    pub fn principal(mut self, name: impl Into<String>, quota: f64) -> Self {
        self.principals.push((name.into(), quota));
        self
    }

    /// Sets the policy applied when a principal exhausts its quota
    /// (default: [`ExhaustedPolicy::HardStop`]).
    pub fn exhausted_policy(mut self, policy: ExhaustedPolicy) -> Self {
        self.exhausted_policy = policy;
        self
    }

    /// Appends rows to the pending registration before it is added:
    /// `dataset.builder().budget(..).append_rows(&delta)?`. The delta is
    /// validated and flattened immediately (only the delta — the staged
    /// flat buffer extends in place), and the registration epoch is
    /// the content hash of the final table.
    pub fn append_rows(mut self, rows: &[Vec<f64>]) -> Result<Self, GuptError> {
        self.dataset.append_rows_in_place(rows)?;
        Ok(self)
    }
}

impl Dataset {
    /// Starts a builder-style registration of this dataset:
    /// `dataset.builder().budget(..).durability(..)`.
    pub fn builder(self) -> DatasetRegistration {
        DatasetRegistration::new(self)
    }
}

/// Inspectable ledger state for one dataset, as the runtime reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedgerState {
    /// Lifetime budget ε.
    pub total: f64,
    /// ε spent (may exceed `total` after a conservative recovery).
    pub spent: f64,
    /// ε remaining (clamped at zero).
    pub remaining: f64,
    /// Successful charges, including recovered ones.
    pub queries: usize,
    /// Whether the ledger is WAL-backed.
    pub durable: bool,
}

/// Receipt for one incremental append, as [`DatasetEntry::append_rows`]
/// returns it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppendReceipt {
    /// Rows in the delta just applied.
    pub rows_appended: usize,
    /// Total rows in the dataset after the append.
    pub total_rows: usize,
    /// The registration epoch after the append (chained content hash).
    pub epoch: u64,
    /// Bytes flattened for this append — delta rows only, so for a 1%
    /// delta this is ~1% of the table, never a re-flatten of the base.
    pub bytes_materialized: u64,
}

/// Point-in-time ingest counters of one dataset entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Appends applied since registration.
    pub appends: u64,
    /// Total rows appended since registration.
    pub rows_appended: u64,
    /// Total bytes flattened by appends (delta rows only).
    pub bytes_materialized: u64,
}

/// A registered dataset together with its lifetime budget ledger and,
/// when durable, the write side of its on-disk state.
#[derive(Debug)]
pub struct DatasetEntry {
    /// The dataset behind a read-write lock: queries clone it (two Arc
    /// bumps) under the read half; appends swap in the grown table under
    /// the write half. In-flight queries keep their captured `Dataset` —
    /// the Arc-backed store makes the old epoch's rows immortal until the
    /// last query drops them.
    dataset: RwLock<Dataset>,
    ledger: PrivacyLedger,
    /// The WAL behind a mutex: the holder serialises check-afford → WAL
    /// append → in-memory debit, so the on-disk record order matches the
    /// ledger's serial order exactly.
    store: Option<Mutex<LedgerStore>>,
    recovered: Option<RecoveredLedger>,
    /// Content hash of the registered data; bumped by every non-empty
    /// append ([`chain_epoch`]). Cached answers are keyed under it:
    /// changing the data (by re-registration or append) produces a new
    /// epoch, so stale cache entries miss and stale WAL cache records
    /// are dropped at recovery instead of replaying answers about data
    /// that no longer exists. Written only under the `dataset` write
    /// lock; read either under the read lock (consistent pair) or alone.
    epoch: AtomicU64,
    /// Per-principal quota books. Always present; empty when the
    /// registration declared no principals (then only unattributed
    /// charges are possible).
    principals: PrincipalTable,
    /// Ingest counters (see [`IngestStats`]).
    appends: AtomicU64,
    rows_appended: AtomicU64,
    bytes_materialized: AtomicU64,
    /// Cumulative row totals per *arrival epoch*: entry 0 is the
    /// registered row count and every non-empty append pushes the new
    /// total. The streaming plane maps arrival-keyed window units onto
    /// row ranges through this log. Pushed under the dataset write lock,
    /// so log order matches append order.
    arrivals: Mutex<Vec<u64>>,
    /// Rows `[0, watermark)` of the main store have already been copied
    /// into the aged store by window expiry — the monotonic frontier
    /// that keeps overlapping subscriptions from aging the same rows
    /// twice. Mutated only under the dataset write lock.
    aged_watermark: AtomicU64,
}

impl DatasetEntry {
    /// A point-in-time clone of the dataset (cheap: the row stores are
    /// Arc-shared, so this is two reference-count bumps plus the small
    /// metadata). Queries that also need the matching epoch should call
    /// [`DatasetEntry::dataset_and_epoch`] instead.
    pub fn dataset(&self) -> Dataset {
        self.dataset
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// The dataset together with its registration epoch, read under one
    /// lock so a racing append cannot slip between them. Queries
    /// fingerprint against *this* epoch: the answer they compute is about
    /// the rows they captured, not about whatever the table grew into.
    pub fn dataset_and_epoch(&self) -> (Dataset, u64) {
        let guard = self.dataset.read().unwrap_or_else(|p| p.into_inner());
        let epoch = self.epoch.load(Ordering::Acquire);
        (guard.clone(), epoch)
    }

    /// The registration epoch: a content hash of the registered rows
    /// (main and aged stores, dimension, group column), chained over any
    /// appended deltas. Two registrations of identical data share an
    /// epoch; any change to the data changes it.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Applies a delta of rows to the live dataset.
    ///
    /// Only the delta is validated and flattened — when no query
    /// snapshot holds the store, it extends in place (amortized
    /// O(delta)); otherwise the flat buffer is block-copied once — and
    /// the epoch bump hashes the delta bits only (`chain_epoch`).
    /// Readers that captured the old `Dataset` keep it; the next query
    /// observes the grown table and re-plans its blocks against the new
    /// row count.
    ///
    /// Appended rows live in the in-memory store like registered rows do;
    /// the durable plane persists privacy *books* (debits, cache records,
    /// principal attributions), not data, so appends write nothing to the
    /// WAL.
    pub fn append_rows(&self, rows: &[Vec<f64>]) -> Result<AppendReceipt, GuptError> {
        let mut guard = self.dataset.write().unwrap_or_else(|p| p.into_inner());
        guard.append_rows_in_place(rows)?;
        let total_rows = guard.len();
        let prev = self.epoch.load(Ordering::Acquire);
        // An empty delta changes nothing, so it must not invalidate
        // cached answers: the epoch only moves for real rows.
        let epoch = if rows.is_empty() {
            prev
        } else {
            chain_epoch(prev, rows, total_rows)
        };
        let bytes = (rows.len() * guard.dimension() * std::mem::size_of::<f64>()) as u64;
        self.epoch.store(epoch, Ordering::Release);
        if !rows.is_empty() {
            // Still under the dataset write lock: the arrival log's order
            // is exactly the append serialisation order.
            self.arrivals
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(total_rows as u64);
        }
        drop(guard);
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.rows_appended
            .fetch_add(rows.len() as u64, Ordering::Relaxed);
        self.bytes_materialized.fetch_add(bytes, Ordering::Relaxed);
        Ok(AppendReceipt {
            rows_appended: rows.len(),
            total_rows,
            epoch,
            bytes_materialized: bytes,
        })
    }

    /// Number of arrival epochs so far: 1 for the registration batch
    /// plus one per non-empty append.
    pub fn arrival_count(&self) -> usize {
        self.arrivals
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .len()
    }

    /// Maps the arrival-unit range `[first, last)` onto main-store row
    /// bounds `[start, end)`, or `None` while arrival `last - 1` has not
    /// happened yet (the window is still open). Arrival 0 is the
    /// registration batch.
    pub fn arrival_row_range(&self, first: usize, last: usize) -> Option<(usize, usize)> {
        let log = self.arrivals.lock().unwrap_or_else(|p| p.into_inner());
        if first >= last || last > log.len() {
            return None;
        }
        let start = if first == 0 {
            0
        } else {
            log[first - 1] as usize
        };
        Some((start, log[last - 1] as usize))
    }

    /// Ages main-store rows up to `frontier` (exclusive) into the aged
    /// store — the §3.3 transition window expiry takes. Rows below the
    /// monotonic aging watermark are skipped, so overlapping
    /// subscriptions age each row exactly once; frontiers beyond the
    /// current table clamp to the table length. Returns the rows newly
    /// aged.
    ///
    /// Deliberately does **not** bump the registration epoch: the epoch
    /// identifies the *private* row history for cache invalidation, and
    /// aging copies rows without changing them — it only widens the
    /// non-private planning surface (range estimation, block-size
    /// tuning) for later queries.
    pub fn age_rows_to(&self, frontier: usize) -> Result<usize, GuptError> {
        let mut guard = self.dataset.write().unwrap_or_else(|p| p.into_inner());
        let frontier = frontier.min(guard.len());
        let from = self.aged_watermark.load(Ordering::Acquire) as usize;
        if frontier <= from {
            return Ok(0);
        }
        let aged = guard.age_rows(from, frontier)?;
        self.aged_watermark
            .store(frontier as u64, Ordering::Release);
        Ok(aged)
    }

    /// Rows `[0, watermark)` already aged by window expiry.
    pub fn aged_watermark(&self) -> usize {
        self.aged_watermark.load(Ordering::Acquire) as usize
    }

    /// Point-in-time ingest counters.
    pub fn ingest_stats(&self) -> IngestStats {
        IngestStats {
            appends: self.appends.load(Ordering::Relaxed),
            rows_appended: self.rows_appended.load(Ordering::Relaxed),
            bytes_materialized: self.bytes_materialized.load(Ordering::Relaxed),
        }
    }

    /// Journals one released answer to the durable WAL so a restarted
    /// process recovers its warm cache. Ephemeral entries keep the cache
    /// in memory only — this is a no-op for them.
    pub(crate) fn journal_cache(&self, rec: &CacheRecord) -> Result<(), GuptError> {
        match &self.store {
            None => Ok(()),
            Some(store) => store
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .append_cache_record(rec),
        }
    }

    /// The budget ledger (read-only view; charge via
    /// [`DatasetEntry::charge`] so durable entries hit the WAL).
    pub fn ledger(&self) -> &PrivacyLedger {
        &self.ledger
    }

    /// What recovery replayed when this entry was registered (durable
    /// entries only).
    pub fn recovery(&self) -> Option<&RecoveredLedger> {
        self.recovered.as_ref()
    }

    /// Persistence counters (durable entries only).
    pub fn storage_stats(&self) -> Option<StorageStats> {
        self.store
            .as_ref()
            .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).stats())
    }

    /// Point-in-time ledger state.
    pub fn ledger_state(&self) -> LedgerState {
        LedgerState {
            total: self.ledger.total(),
            spent: self.ledger.spent(),
            remaining: self.ledger.remaining(),
            queries: self.ledger.query_count(),
            durable: self.store.is_some(),
        }
    }

    /// The per-principal quota table (empty for datasets registered
    /// without principals).
    pub fn principals(&self) -> &PrincipalTable {
        &self.principals
    }

    /// Point-in-time view of every principal's quota books, sorted by
    /// name.
    pub fn principal_states(&self) -> Vec<PrincipalState> {
        self.principals.states()
    }

    /// Atomically debits `eps`, writing ahead to the WAL first when the
    /// entry is durable.
    ///
    /// Order of operations for a durable entry (under the store lock):
    /// affordability check → WAL append (+ fsync per policy) → in-memory
    /// debit. A charge that fails at the WAL is **not granted** and the
    /// store poisons itself; a charge that was durably appended but lost
    /// before the in-memory debit (process death) is replayed at
    /// recovery — the books only ever err toward *more* spent.
    pub fn charge(&self, eps: Epsilon) -> Result<(), GuptError> {
        self.charge_as(None, eps)
    }

    /// Like [`DatasetEntry::charge`], but optionally attributes the debit
    /// to a registered principal.
    ///
    /// With a principal, the quota check and the dataset debit happen
    /// under the principal-books lock, so a refused quota never touches
    /// the dataset ledger and a granted charge commits to both books or
    /// neither. Lock order is always principal books → store; the
    /// unattributed path reads a books snapshot *before* taking the store
    /// lock for the same reason.
    pub fn charge_as(&self, principal: Option<&str>, eps: Epsilon) -> Result<(), GuptError> {
        match principal {
            Some(name) => self.principals.charge_with(name, eps.value(), |books| {
                self.debit_dataset(principal, eps, books)
            }),
            None => self.debit_dataset(None, eps, &self.principals.spent_books()),
        }
    }

    /// Debits the dataset ledger. On a durable entry the WAL record
    /// carries the attribution (tag `0x03` for a principal, plain `0x01`
    /// without), so dataset debit and principal debit are one physical
    /// record that recovery replays into both books. `books` is used
    /// only if this charge triggers compaction: for a principal it
    /// already includes the in-flight charge (see
    /// [`PrincipalTable::charge_with`]) — by compaction time the record
    /// is in the WAL, so the snapshot must count it; without one it is
    /// a pre-lock snapshot.
    fn debit_dataset(
        &self,
        principal: Option<&str>,
        eps: Epsilon,
        books: &BTreeMap<String, PrincipalBooks>,
    ) -> Result<(), GuptError> {
        let Some(store) = &self.store else {
            return self.ledger.charge(eps).map_err(GuptError::Dp);
        };
        let mut store = store.lock().unwrap_or_else(|p| p.into_inner());
        if !self.ledger.can_afford(eps) {
            return Err(GuptError::Dp(DpError::BudgetExhausted {
                requested: eps.value(),
                remaining: self.ledger.remaining(),
            }));
        }
        match principal {
            Some(name) => store.append_principal_charge(name, eps.value())?,
            None => store.append_charge(eps.value())?,
        }
        self.ledger.charge(eps).map_err(GuptError::Dp)?;
        store.maybe_compact(
            self.ledger.total(),
            self.ledger.spent(),
            self.ledger.query_count() as u64,
            books,
        )
    }
}

/// FNV-1a 64 content hash of a dataset: dimension, row count, every row
/// bit of the main and aged stores, and the group column. Deterministic
/// across processes (no `DefaultHasher`), so a restarted service
/// computes the same epoch for the same registered bytes.
fn dataset_epoch(dataset: &Dataset) -> u64 {
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = OFFSET;
    let mut write = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    };
    write(&(dataset.dimension() as u64).to_le_bytes());
    write(&(dataset.len() as u64).to_le_bytes());
    for &v in dataset.store().flat() {
        write(&v.to_bits().to_le_bytes());
    }
    // Sentinel-coded group column: u64::MAX means "none declared".
    let group = dataset.group_column().map_or(u64::MAX, |c| c as u64);
    write(&group.to_le_bytes());
    let aged = dataset.aged_store();
    write(&(aged.len() as u64).to_le_bytes());
    for &v in aged.flat() {
        write(&v.to_bits().to_le_bytes());
    }
    h
}

/// Chains the registration epoch over an appended delta: FNV-1a 64 over
/// the previous epoch, the new total row count, and the delta's row bits
/// — **never the existing rows**, so an epoch bump costs O(delta)
/// regardless of table size (the incremental content-hash idiom).
///
/// The chained value deliberately differs from the full-content hash
/// that a one-shot registration of the same final table would produce:
/// after a restart re-registers from scratch, journaled cache records
/// written under an appended epoch fail the epoch check and drop. That
/// is a cold cache — latency, never privacy.
fn chain_epoch(prev: u64, delta: &[Vec<f64>], total_rows: usize) -> u64 {
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = OFFSET;
    let mut write = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    };
    write(&prev.to_le_bytes());
    write(&(total_rows as u64).to_le_bytes());
    for row in delta {
        for &v in row {
            write(&v.to_bits().to_le_bytes());
        }
    }
    h
}

/// Registry of datasets available to analysts.
#[derive(Debug, Default)]
pub struct DatasetManager {
    entries: BTreeMap<String, DatasetEntry>,
}

impl DatasetManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        DatasetManager::default()
    }

    /// Registers a dataset from a builder-style [`DatasetRegistration`].
    ///
    /// For a durable registration this opens (or creates) the dataset's
    /// on-disk state, truncates any torn WAL tail and replays snapshot +
    /// WAL into the ledger — the registration's budget is authoritative
    /// for `total`; the recovered spend and query count carry over.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        registration: DatasetRegistration,
    ) -> Result<(), GuptError> {
        let name = name.into();
        if self.entries.contains_key(&name) {
            return Err(GuptError::DatasetExists(name));
        }
        let budget = registration.budget.ok_or_else(|| {
            GuptError::InvalidDataset(format!(
                "registration of {name:?} is missing a lifetime budget; \
                 call .budget(..) on the builder"
            ))
        })?;
        let (ledger, store, recovered) = match registration.durability {
            Durability::Ephemeral => (PrivacyLedger::new(budget), None, None),
            Durability::Durable(config) => {
                let (store, recovered) = LedgerStore::open(&name, &config)?;
                let ledger =
                    PrivacyLedger::restore(budget, recovered.spent, recovered.queries as usize);
                (ledger, Some(Mutex::new(store)), Some(recovered))
            }
        };
        let principals = PrincipalTable::new(registration.exhausted_policy);
        let mut seen: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        for (pname, quota) in &registration.principals {
            if !seen.insert(pname.as_str()) {
                return Err(GuptError::InvalidSpec(format!(
                    "principal {pname:?} declared twice for dataset {name:?}"
                )));
            }
            principals.register(pname, *quota)?;
        }
        // Recovered spend re-attaches to its principal even if the new
        // registration no longer declares it: the history must never
        // under-report, so undeclared recovered principals keep quota 0.
        if let Some(rec) = &recovered {
            for (pname, books) in &rec.principals {
                principals.absorb_recovered(pname, books.spent, books.queries);
            }
        }
        let epoch = dataset_epoch(&registration.dataset);
        let initial_rows = registration.dataset.len() as u64;
        self.entries.insert(
            name,
            DatasetEntry {
                dataset: RwLock::new(registration.dataset),
                ledger,
                store,
                recovered,
                epoch: AtomicU64::new(epoch),
                principals,
                appends: AtomicU64::new(0),
                rows_appended: AtomicU64::new(0),
                bytes_materialized: AtomicU64::new(0),
                arrivals: Mutex::new(vec![initial_rows]),
                aged_watermark: AtomicU64::new(0),
            },
        );
        Ok(())
    }

    /// Looks up a dataset entry.
    pub fn get(&self, name: &str) -> Result<&DatasetEntry, GuptError> {
        self.entries
            .get(name)
            .ok_or_else(|| GuptError::DatasetNotFound(name.to_string()))
    }

    /// Registered dataset names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no datasets are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{FsyncPolicy, StorageConfig};

    fn dataset(n: usize) -> Dataset {
        Dataset::new((0..n).map(|i| vec![i as f64]).collect()).unwrap()
    }

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("gupt_manager_tests")
            .join(format!("{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn register_and_lookup() {
        let mut m = DatasetManager::new();
        m.add("ages", dataset(10).builder().budget(eps(2.0)))
            .unwrap();
        let entry = m.get("ages").unwrap();
        assert_eq!(entry.dataset().len(), 10);
        assert_eq!(entry.ledger().total(), 2.0);
        assert_eq!(m.names(), vec!["ages"]);
        assert_eq!(m.len(), 1);
        let state = entry.ledger_state();
        assert!(!state.durable);
        assert_eq!(state.remaining, 2.0);
    }

    #[test]
    fn registration_requires_budget() {
        let mut m = DatasetManager::new();
        assert!(matches!(
            m.add("x", dataset(5).builder()).unwrap_err(),
            GuptError::InvalidDataset(_)
        ));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut m = DatasetManager::new();
        m.add("x", dataset(5).builder().budget(eps(1.0))).unwrap();
        assert!(matches!(
            m.add("x", dataset(5).builder().budget(eps(1.0)))
                .unwrap_err(),
            GuptError::DatasetExists(_)
        ));
    }

    #[test]
    fn missing_dataset_error() {
        let m = DatasetManager::new();
        assert!(matches!(
            m.get("nope").unwrap_err(),
            GuptError::DatasetNotFound(_)
        ));
        assert!(m.is_empty());
    }

    #[test]
    fn ledger_charges_are_per_dataset() {
        let mut m = DatasetManager::new();
        m.add("a", dataset(5).builder().budget(eps(1.0))).unwrap();
        m.add("b", dataset(5).builder().budget(eps(1.0))).unwrap();
        m.get("a").unwrap().charge(eps(0.7)).unwrap();
        assert!((m.get("a").unwrap().ledger().remaining() - 0.3).abs() < 1e-12);
        assert_eq!(m.get("b").unwrap().ledger().remaining(), 1.0);
    }

    #[test]
    fn names_sorted() {
        let mut m = DatasetManager::new();
        m.add("zeta", dataset(2).builder().budget(eps(1.0)))
            .unwrap();
        m.add("alpha", dataset(2).builder().budget(eps(1.0)))
            .unwrap();
        assert_eq!(m.names(), vec!["alpha", "zeta"]);
    }

    #[test]
    fn durable_charges_survive_re_registration() {
        let dir = tmp_dir("survive");
        let durable = || Durability::Durable(StorageConfig::new(&dir).fsync(FsyncPolicy::Always));
        {
            let mut m = DatasetManager::new();
            m.add(
                "d",
                dataset(5).builder().budget(eps(2.0)).durability(durable()),
            )
            .unwrap();
            let entry = m.get("d").unwrap();
            entry.charge(eps(0.5)).unwrap();
            entry.charge(eps(0.25)).unwrap();
            let stats = entry.storage_stats().unwrap();
            assert_eq!(stats.records_written, 2);
            assert!(!stats.poisoned);
        }
        // "Restart": a fresh manager over the same state directory.
        let mut m = DatasetManager::new();
        m.add(
            "d",
            dataset(5).builder().budget(eps(2.0)).durability(durable()),
        )
        .unwrap();
        let entry = m.get("d").unwrap();
        let state = entry.ledger_state();
        assert!(state.durable);
        assert!((state.spent - 0.75).abs() < 1e-12);
        assert_eq!(state.queries, 2);
        let recovery = entry.recovery().expect("durable entry records recovery");
        assert_eq!(recovery.wal_records, 2);
        // The restored ledger keeps enforcing the lifetime budget.
        assert!(entry.charge(eps(2.0)).is_err());
        entry.charge(eps(1.0)).unwrap();
    }

    #[test]
    fn epoch_is_a_content_hash() {
        let mut m = DatasetManager::new();
        m.add("a", dataset(10).builder().budget(eps(1.0))).unwrap();
        m.add("b", dataset(10).builder().budget(eps(1.0))).unwrap();
        // Identical contents → identical epoch, regardless of name.
        assert_eq!(m.get("a").unwrap().epoch(), m.get("b").unwrap().epoch());

        // Any content change → different epoch.
        let mut rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        rows[3][0] += 1e-9;
        let mut m2 = DatasetManager::new();
        m2.add("a", Dataset::new(rows).unwrap().builder().budget(eps(1.0)))
            .unwrap();
        assert_ne!(m.get("a").unwrap().epoch(), m2.get("a").unwrap().epoch());
    }

    #[test]
    fn epoch_sees_group_column_and_aged_view() {
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![(i % 10) as f64, i as f64]).collect();
        let plain = Dataset::new(rows.clone()).unwrap();
        let grouped = Dataset::new(rows.clone())
            .unwrap()
            .with_group_column(0)
            .unwrap();
        let aged = Dataset::new(rows).unwrap().with_aged_fraction(0.2).unwrap();
        let mut m = DatasetManager::new();
        m.add("p", plain.builder().budget(eps(1.0))).unwrap();
        m.add("g", grouped.builder().budget(eps(1.0))).unwrap();
        m.add("a", aged.builder().budget(eps(1.0))).unwrap();
        let (p, g, a) = (
            m.get("p").unwrap().epoch(),
            m.get("g").unwrap().epoch(),
            m.get("a").unwrap().epoch(),
        );
        assert_ne!(p, g);
        assert_ne!(p, a);
        assert_ne!(g, a);
    }

    #[test]
    fn append_bumps_epoch_and_counts_ingest() {
        let mut m = DatasetManager::new();
        m.add("d", dataset(100).builder().budget(eps(1.0))).unwrap();
        let entry = m.get("d").unwrap();
        let before = entry.epoch();
        let receipt = entry.append_rows(&[vec![100.0], vec![101.0]]).unwrap();
        assert_eq!(receipt.rows_appended, 2);
        assert_eq!(receipt.total_rows, 102);
        assert_ne!(receipt.epoch, before);
        assert_eq!(entry.epoch(), receipt.epoch);
        assert_eq!(entry.dataset().len(), 102);
        // Only the delta was flattened: 2 rows × 1 column × 8 bytes.
        assert_eq!(receipt.bytes_materialized, 16);
        let stats = entry.ingest_stats();
        assert_eq!(stats.appends, 1);
        assert_eq!(stats.rows_appended, 2);
        assert_eq!(stats.bytes_materialized, 16);
    }

    #[test]
    fn append_epoch_chains_deterministically() {
        let build = || {
            let mut m = DatasetManager::new();
            m.add("d", dataset(10).builder().budget(eps(1.0))).unwrap();
            m
        };
        let (m1, m2) = (build(), build());
        let r1 = m1.get("d").unwrap().append_rows(&[vec![7.0]]).unwrap();
        let r2 = m2.get("d").unwrap().append_rows(&[vec![7.0]]).unwrap();
        // Same base, same delta → same chained epoch, across processes.
        assert_eq!(r1.epoch, r2.epoch);

        // A one-shot registration of the identical final table hashes the
        // full content and lands on a *different* epoch: chained history
        // is part of the identity (documented cold-cache-on-restart).
        let mut rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        rows.push(vec![7.0]);
        let mut m3 = DatasetManager::new();
        m3.add("d", Dataset::new(rows).unwrap().builder().budget(eps(1.0)))
            .unwrap();
        assert_ne!(m3.get("d").unwrap().epoch(), r1.epoch);
    }

    #[test]
    fn empty_append_keeps_epoch_and_cache_validity() {
        let mut m = DatasetManager::new();
        m.add("d", dataset(10).builder().budget(eps(1.0))).unwrap();
        let entry = m.get("d").unwrap();
        let before = entry.epoch();
        let receipt = entry.append_rows(&[]).unwrap();
        assert_eq!(receipt.epoch, before);
        assert_eq!(entry.epoch(), before);
        assert_eq!(receipt.rows_appended, 0);
        assert_eq!(entry.ingest_stats().rows_appended, 0);
    }

    #[test]
    fn append_failure_leaves_entry_untouched() {
        let mut m = DatasetManager::new();
        m.add("d", dataset(10).builder().budget(eps(1.0))).unwrap();
        let entry = m.get("d").unwrap();
        let before = entry.epoch();
        assert!(entry.append_rows(&[vec![1.0, 2.0]]).is_err());
        assert_eq!(entry.epoch(), before);
        assert_eq!(entry.dataset().len(), 10);
        assert_eq!(entry.ingest_stats(), IngestStats::default());
    }

    #[test]
    fn arrival_log_maps_units_to_row_ranges() {
        let mut m = DatasetManager::new();
        m.add("d", dataset(10).builder().budget(eps(1.0))).unwrap();
        let entry = m.get("d").unwrap();
        assert_eq!(entry.arrival_count(), 1);
        // Registration batch is arrival 0.
        assert_eq!(entry.arrival_row_range(0, 1), Some((0, 10)));
        assert_eq!(entry.arrival_row_range(0, 2), None, "arrival 1 pending");
        entry.append_rows(&[vec![10.0], vec![11.0]]).unwrap();
        entry.append_rows(&[vec![12.0]]).unwrap();
        // Empty appends are not arrivals.
        entry.append_rows(&[]).unwrap();
        assert_eq!(entry.arrival_count(), 3);
        assert_eq!(entry.arrival_row_range(0, 1), Some((0, 10)));
        assert_eq!(entry.arrival_row_range(1, 3), Some((10, 13)));
        assert_eq!(entry.arrival_row_range(2, 3), Some((12, 13)));
        assert_eq!(entry.arrival_row_range(0, 4), None);
        assert_eq!(entry.arrival_row_range(2, 2), None, "empty unit range");
    }

    #[test]
    fn aging_watermark_is_monotonic_and_idempotent() {
        let mut m = DatasetManager::new();
        m.add("d", dataset(20).builder().budget(eps(1.0))).unwrap();
        let entry = m.get("d").unwrap();
        assert_eq!(entry.aged_watermark(), 0);
        assert_eq!(entry.age_rows_to(8).unwrap(), 8);
        assert_eq!(entry.aged_watermark(), 8);
        // Re-aging the same frontier (a second subscription) is free.
        assert_eq!(entry.age_rows_to(8).unwrap(), 0);
        assert_eq!(entry.age_rows_to(5).unwrap(), 0, "never moves backward");
        assert_eq!(entry.age_rows_to(12).unwrap(), 4);
        // Frontier past the table clamps.
        assert_eq!(entry.age_rows_to(100).unwrap(), 8);
        assert_eq!(entry.aged_watermark(), 20);
        let ds = entry.dataset();
        assert_eq!(ds.len(), 20, "main store untouched");
        assert_eq!(ds.aged_store().len(), 20);
        assert_eq!(ds.aged_store().row(11), ds.store().row(11));
    }

    #[test]
    fn in_flight_clone_survives_append() {
        let mut m = DatasetManager::new();
        m.add("d", dataset(10).builder().budget(eps(1.0))).unwrap();
        let entry = m.get("d").unwrap();
        let (captured, captured_epoch) = entry.dataset_and_epoch();
        entry.append_rows(&[vec![99.0]]).unwrap();
        // The pre-append capture still sees the old table and epoch.
        assert_eq!(captured.len(), 10);
        assert_ne!(captured_epoch, entry.epoch());
        assert_eq!(entry.dataset().len(), 11);
    }

    #[test]
    fn registration_builder_appends_before_add() {
        let mut m = DatasetManager::new();
        m.add(
            "d",
            dataset(10)
                .builder()
                .budget(eps(1.0))
                .append_rows(&[vec![50.0], vec![51.0]])
                .unwrap(),
        )
        .unwrap();
        assert_eq!(m.get("d").unwrap().dataset().len(), 12);
    }

    #[test]
    fn ephemeral_entry_has_no_storage() {
        let mut m = DatasetManager::new();
        m.add("e", dataset(3).builder().budget(eps(1.0))).unwrap();
        let entry = m.get("e").unwrap();
        assert!(entry.storage_stats().is_none());
        assert!(entry.recovery().is_none());
    }

    #[test]
    fn principal_charges_debit_both_books() {
        let mut m = DatasetManager::new();
        m.add(
            "d",
            dataset(5)
                .builder()
                .budget(eps(2.0))
                .principal("alice", 1.5)
                .principal("bob", 0.5),
        )
        .unwrap();
        let entry = m.get("d").unwrap();
        entry.charge_as(Some("alice"), eps(0.5)).unwrap();
        entry.charge_as(Some("bob"), eps(0.25)).unwrap();
        let alice = entry.principals().state("alice").unwrap();
        assert!((alice.spent - 0.5).abs() < 1e-12);
        assert_eq!(alice.queries, 1);
        assert!((entry.ledger().spent() - 0.75).abs() < 1e-12);
        // Ledger spent equals the sum of principal debits: zero drift.
        let total: f64 = entry.principal_states().iter().map(|s| s.spent).sum();
        assert!((total - entry.ledger().spent()).abs() < 1e-12);
    }

    #[test]
    fn quota_refusal_leaves_ledger_untouched() {
        let mut m = DatasetManager::new();
        m.add(
            "d",
            dataset(5)
                .builder()
                .budget(eps(10.0))
                .principal("alice", 0.5),
        )
        .unwrap();
        let entry = m.get("d").unwrap();
        let err = entry.charge_as(Some("alice"), eps(1.0)).unwrap_err();
        assert!(matches!(err, GuptError::QuotaExhausted { .. }));
        assert_eq!(entry.ledger().spent(), 0.0);
        let err = entry.charge_as(Some("mallory"), eps(0.1)).unwrap_err();
        assert!(matches!(err, GuptError::UnknownPrincipal(_)));
        assert_eq!(entry.ledger().spent(), 0.0);
    }

    #[test]
    fn ledger_exhaustion_leaves_principal_books_untouched() {
        let mut m = DatasetManager::new();
        m.add(
            "d",
            dataset(5)
                .builder()
                .budget(eps(0.5))
                .principal("alice", 5.0),
        )
        .unwrap();
        let entry = m.get("d").unwrap();
        // Quota admits it, but the dataset ledger cannot afford it: the
        // failed dataset debit must not attribute to alice either.
        let err = entry.charge_as(Some("alice"), eps(1.0)).unwrap_err();
        assert!(matches!(
            err,
            GuptError::Dp(DpError::BudgetExhausted { .. })
        ));
        let alice = entry.principals().state("alice").unwrap();
        assert_eq!(alice.spent, 0.0);
        assert_eq!(alice.queries, 0);
    }

    #[test]
    fn duplicate_principal_declaration_rejected() {
        let mut m = DatasetManager::new();
        let err = m
            .add(
                "d",
                dataset(5)
                    .builder()
                    .budget(eps(1.0))
                    .principal("alice", 0.5)
                    .principal("alice", 0.25),
            )
            .unwrap_err();
        assert!(matches!(err, GuptError::InvalidSpec(_)));
        assert!(err.to_string().contains("alice"));
    }

    #[test]
    fn durable_principal_books_survive_restart() {
        let dir = tmp_dir("principal_survive");
        let durable = || Durability::Durable(StorageConfig::new(&dir).fsync(FsyncPolicy::Always));
        let registration = |quota_bob: f64| {
            dataset(5)
                .builder()
                .budget(eps(4.0))
                .durability(durable())
                .principal("alice", 2.0)
                .principal("bob", quota_bob)
        };
        {
            let mut m = DatasetManager::new();
            m.add("d", registration(1.0)).unwrap();
            let entry = m.get("d").unwrap();
            entry.charge_as(Some("alice"), eps(0.5)).unwrap();
            entry.charge_as(Some("alice"), eps(0.25)).unwrap();
            entry.charge_as(Some("bob"), eps(0.125)).unwrap();
            entry.charge(eps(0.0625)).unwrap(); // unattributed
        }
        let mut m = DatasetManager::new();
        m.add("d", registration(1.0)).unwrap();
        let entry = m.get("d").unwrap();
        let state = entry.ledger_state();
        assert!((state.spent - 0.9375).abs() < 1e-12);
        assert_eq!(state.queries, 4);
        let alice = entry.principals().state("alice").unwrap();
        assert!((alice.spent - 0.75).abs() < 1e-12);
        assert_eq!(alice.queries, 2);
        assert_eq!(alice.quota, 2.0);
        let bob = entry.principals().state("bob").unwrap();
        assert!((bob.spent - 0.125).abs() < 1e-12);
        // Recovered spend keeps counting against the quota after restart.
        assert!(matches!(
            entry.charge_as(Some("bob"), eps(0.9)).unwrap_err(),
            GuptError::QuotaExhausted { .. }
        ));
    }

    #[test]
    fn recovered_principal_without_declaration_keeps_history() {
        let dir = tmp_dir("principal_undeclared");
        let durable = || Durability::Durable(StorageConfig::new(&dir).fsync(FsyncPolicy::Always));
        {
            let mut m = DatasetManager::new();
            m.add(
                "d",
                dataset(5)
                    .builder()
                    .budget(eps(2.0))
                    .durability(durable())
                    .principal("alice", 1.0),
            )
            .unwrap();
            m.get("d")
                .unwrap()
                .charge_as(Some("alice"), eps(0.5))
                .unwrap();
        }
        // Restart without declaring alice: her spend survives with quota
        // 0, so further charges are refused but history is intact.
        let mut m = DatasetManager::new();
        m.add(
            "d",
            dataset(5).builder().budget(eps(2.0)).durability(durable()),
        )
        .unwrap();
        let entry = m.get("d").unwrap();
        let alice = entry.principals().state("alice").unwrap();
        assert!((alice.spent - 0.5).abs() < 1e-12);
        assert_eq!(alice.quota, 0.0);
        assert!(matches!(
            entry.charge_as(Some("alice"), eps(0.1)).unwrap_err(),
            GuptError::QuotaExhausted { .. }
        ));
    }
}
