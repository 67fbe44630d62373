//! Durable storage for privacy ledgers: segmented WAL + snapshot +
//! recovery.
//!
//! GUPT's guarantee is only as strong as its budget accounting (§3.1,
//! §5.2): an in-memory ledger forgets every ε already spent when the
//! process dies, so an analyst who can crash the service could replay
//! queries past the lifetime budget. This module makes the ledger
//! crash-safe:
//!
//! - every successful charge is appended to the dataset's **active WAL
//!   segment** *before* the in-memory debit (and before any private data
//!   is read), as a length+checksum framed record;
//! - segments **rotate** once the active one reaches
//!   [`StorageConfig::segment_bytes`]: the full segment is sealed with a
//!   final fsync and a fresh, higher-indexed segment becomes the append
//!   target, so no single log file grows without bound;
//! - once the segment set holds
//!   [`StorageConfig::compaction_threshold`] records it is **compacted**
//!   into a snapshot (total / spent / query count / per-principal
//!   books); every segment the snapshot now owns is deleted and appends
//!   continue in a fresh segment;
//! - **recovery** replays snapshot + segments in index order, truncating
//!   a torn tail to the longest valid record prefix *per segment* and
//!   conservatively discarding every segment after the first torn one.
//!
//! # The never-under-report invariant
//!
//! Recovery resolves every ambiguity conservatively: a record that was
//! durably acknowledged is always replayed, and a charge interrupted
//! mid-append is either dropped (it was never acknowledged, so the query
//! never ran) or — around compaction — counted twice. Over-reporting
//! spend wastes budget; under-reporting would break the ε guarantee, so
//! the books only ever err toward *more* spent.
//!
//! The same reasoning poisons a store whose append fails: once bytes of
//! unknown extent may sit at the tail, appending further valid records
//! after them could mask the damage, so the store wedges and every later
//! charge fails closed with [`GuptError::Storage`]. And because a new
//! segment is only opened after its predecessor was sealed and synced,
//! a torn or corrupt segment means nothing after it was written under
//! the acknowledged protocol — recovery drops the later segments rather
//! than guess at a log this implementation never produced.
//!
//! # On-disk layout
//!
//! Under the configured state directory, per dataset `name`:
//!
//! - `name.NNNNNN.seg` — WAL segments, `NNNNNN` a zero-padded decimal
//!   index starting at 1. Indices grow monotonically: the highest index
//!   is the active append target, lower indices are sealed. Each segment
//!   holds framed records: `[len: u32 LE][crc32: u32 LE][payload]` where
//!   the CRC covers `len ‖ payload` and the payload's first byte is a
//!   tag. Tag `0x01` is a budget debit (`[0x01][ε: f64 LE]`); tag `0x02`
//!   is a released-answer cache record (see [`CacheRecord`]) journaled
//!   so a restarted process recovers its warm answer cache together with
//!   the ledger; tag `0x03` is a **principal-attributed** debit
//!   (`[0x03][ε: f64 LE][name_len: u16 LE][name]`) — one physical record
//!   that is both a dataset debit *and* a per-tenant attribution, so a
//!   charge and its attribution can never tear apart across a crash.
//! - `name.snap` — magic ‖ version ‖ total ‖ spent ‖ queries ‖
//!   per-principal books ‖ crc32, written atomically (tmp + rename +
//!   fsync). Compaction folds *debits* (including attributed ones) into
//!   the snapshot and deletes the sealed segments, so cache records
//!   older than the last compaction are dropped: the persisted cache
//!   cold-starts, which costs latency on the next repeat query but never
//!   privacy. Version-1 snapshots (no principal section) still decode,
//!   as an empty principal table.
//! - `name.lock` — empty. [`LedgerStore::open`] holds an exclusive OS
//!   lock on it for as long as the store is open, so one process at a
//!   time writes the dataset's state; the kernel drops the lock when
//!   that process exits, however it exits.
//! - `name.wal` — the single-file layout written before segmentation.
//!   Opening a store migrates it in place (renamed to segment 1) and
//!   recovery reads it as the sole segment; a directory holding *both* a
//!   legacy WAL and segment files is ambiguous — there is no way to know
//!   which log the last process acknowledged from — and is refused as
//!   [`GuptError::Corrupt`].

use crate::error::GuptError;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Schema version written into snapshot headers. v2 appended the
/// per-principal books section; v1 snapshots (written before principals
/// existed) are still accepted on read.
pub const STORAGE_VERSION: u32 = 2;

/// Magic prefix of snapshot files.
const SNAP_MAGIC: &[u8; 8] = b"GUPTSNP1";

/// Record payload tag: a single budget debit.
const TAG_DEBIT: u8 = 0x01;

/// Record payload tag: a released answer journaled for the warm cache.
const TAG_CACHE: u8 = 0x02;

/// Record payload tag: a debit attributed to a named principal.
const TAG_PRINCIPAL: u8 = 0x03;

/// Frame header size: length (u32) + CRC (u32).
const FRAME_HEADER: usize = 8;

/// Debit payload size: tag + f64.
const DEBIT_PAYLOAD: usize = 9;

/// Fixed head of a principal-debit payload: tag ‖ ε ‖ name_len.
const PRINCIPAL_PAYLOAD_HEAD: usize = 1 + 8 + 2;

/// Fixed head of a cache payload: tag ‖ epoch ‖ fingerprint ‖ ε ‖
/// block_size ‖ num_blocks ‖ γ ‖ completed ‖ timed_out ‖ panicked ‖
/// values_len ‖ ranges_len.
const CACHE_PAYLOAD_HEAD: usize = 1 + 8 + 16 + 8 + 6 * 8 + 4 + 4;

/// Hard cap on any record payload, well above every legal record, so a
/// corrupt length field can never drive a huge allocation during a scan.
const MAX_PAYLOAD: usize = 1 << 20;

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected), table-driven. Hand-rolled because the
// workspace is offline and carries no checksum crate; the polynomial is
// the same one zlib/ethernet use, so records are checkable with any
// standard crc32 tool.
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Configuration.
// ---------------------------------------------------------------------

/// When the WAL is flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every record: a durably acknowledged charge survives
    /// power loss. The safest and slowest policy.
    Always,
    /// `fsync` after every `n` records. Bounds data-at-risk to at most
    /// `n - 1` *acknowledged-but-unsynced* charges — losing those
    /// under-reports nothing the analyst was told succeeded durably, but
    /// deployments wanting strict durability use [`FsyncPolicy::Always`].
    EveryN(u32),
    /// Never `fsync` explicitly; rely on the OS page cache. Survives
    /// process crashes (the records are in kernel buffers) but not power
    /// loss. Benchmarking / bulk-load mode.
    Never,
}

/// Where and how a dataset's ledger is persisted.
///
/// One builder-style home for every storage knob: state directory,
/// fsync policy, segment rotation size, and compaction threshold.
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// Directory holding `name.NNNNNN.seg` / `name.snap` files.
    pub dir: PathBuf,
    /// WAL flush policy.
    pub fsync: FsyncPolicy,
    /// Rotate the active segment once it reaches this many bytes.
    pub segment_bytes: u64,
    /// Compact the segment set into a snapshot once it holds this many
    /// records.
    pub compaction_threshold: u64,
}

impl StorageConfig {
    /// A config rooted at `dir` with `EveryN(64)` fsync, 1 MiB segment
    /// rotation, and compaction every 4096 records.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StorageConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::EveryN(64),
            segment_bytes: 1 << 20,
            compaction_threshold: 4096,
        }
    }

    /// Sets the fsync policy.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Sets the segment rotation size in bytes (clamped to ≥ 1). A
    /// smaller size means more, shorter segments: cheaper individual
    /// compaction deletes and finer-grained torn-tail isolation, at the
    /// cost of more file handles over a store's lifetime.
    pub fn segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes.max(1);
        self
    }

    /// Sets the compaction threshold in records (clamped to ≥ 1).
    pub fn compaction_threshold(mut self, records: u64) -> Self {
        self.compaction_threshold = records.max(1);
        self
    }
}

/// Whether a dataset's ledger survives the process.
#[derive(Debug, Clone, Default)]
pub enum Durability {
    /// In-memory only: budget state dies with the process (the seed
    /// behaviour, and the right choice for tests and one-shot analyses).
    #[default]
    Ephemeral,
    /// WAL-backed: every charge is logged before it is granted and
    /// recovery replays the books on restart.
    Durable(StorageConfig),
}

// ---------------------------------------------------------------------
// Record framing.
// ---------------------------------------------------------------------

/// Wraps a payload in the `[len][crc][payload]` frame.
fn frame(payload: &[u8]) -> Vec<u8> {
    let len = payload.len() as u32;
    let mut crc_input = Vec::with_capacity(4 + payload.len());
    crc_input.extend_from_slice(&len.to_le_bytes());
    crc_input.extend_from_slice(payload);
    let crc = crc32(&crc_input);
    let mut rec = Vec::with_capacity(FRAME_HEADER + payload.len());
    rec.extend_from_slice(&len.to_le_bytes());
    rec.extend_from_slice(&crc.to_le_bytes());
    rec.extend_from_slice(payload);
    rec
}

/// Encodes one debit of `eps` as a framed WAL record.
pub fn encode_record(eps: f64) -> Vec<u8> {
    let mut payload = [0u8; DEBIT_PAYLOAD];
    payload[0] = TAG_DEBIT;
    payload[1..].copy_from_slice(&eps.to_le_bytes());
    frame(&payload)
}

/// Encodes one debit of `eps` attributed to `principal` as a framed WAL
/// record. The single record carries both the dataset debit and its
/// attribution, so recovery can never see one without the other.
pub fn encode_principal_record(principal: &str, eps: f64) -> Vec<u8> {
    let name = principal.as_bytes();
    debug_assert!(name.len() <= u16::MAX as usize);
    let mut payload = Vec::with_capacity(PRINCIPAL_PAYLOAD_HEAD + name.len());
    payload.push(TAG_PRINCIPAL);
    payload.extend_from_slice(&eps.to_le_bytes());
    payload.extend_from_slice(&(name.len() as u16).to_le_bytes());
    payload.extend_from_slice(name);
    frame(&payload)
}

/// Decodes a principal-debit payload (past the tag check). `None` means
/// structurally malformed despite a valid CRC; the scanner stops, like
/// any other corruption.
fn decode_principal_payload(payload: &[u8]) -> Option<(String, f64)> {
    if payload.len() < PRINCIPAL_PAYLOAD_HEAD {
        return None;
    }
    let eps = f64::from_le_bytes(payload[1..9].try_into().expect("8 bytes"));
    let name_len = u16::from_le_bytes(payload[9..11].try_into().expect("2 bytes")) as usize;
    if payload.len() != PRINCIPAL_PAYLOAD_HEAD + name_len || name_len == 0 {
        return None;
    }
    if !eps.is_finite() || eps < 0.0 {
        return None;
    }
    let name = std::str::from_utf8(&payload[PRINCIPAL_PAYLOAD_HEAD..]).ok()?;
    Some((name.to_string(), eps))
}

/// One released answer journaled to the WAL so the answer cache survives
/// a restart. Everything [`crate::runtime::PrivateAnswer`] carries
/// except telemetry (a replayed answer gets fresh hit-path telemetry),
/// plus the fingerprint it is stored under and the dataset registration
/// epoch it was computed against — recovery drops records whose epoch no
/// longer matches the re-registered data.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheRecord {
    /// Registration epoch (content hash) of the dataset at release time.
    pub epoch: u64,
    /// The answer's [`crate::cache::QueryFingerprint`], as raw bits.
    pub fingerprint: u128,
    /// ε the original release charged.
    pub epsilon_spent: f64,
    /// Block size β used.
    pub block_size: u64,
    /// Number of blocks ℓ aggregated.
    pub num_blocks: u64,
    /// Resampling factor γ.
    pub gamma: u64,
    /// Chambers that completed normally.
    pub completed: u64,
    /// Chambers killed on the execution budget.
    pub timed_out: u64,
    /// Chambers that panicked.
    pub panicked: u64,
    /// The released noisy values.
    pub values: Vec<f64>,
    /// The resolved clamping ranges, as (lo, hi) pairs.
    pub ranges: Vec<(f64, f64)>,
}

/// Encodes a cache record as a framed WAL record.
pub fn encode_cache_record(rec: &CacheRecord) -> Vec<u8> {
    let mut payload =
        Vec::with_capacity(CACHE_PAYLOAD_HEAD + 8 * rec.values.len() + 16 * rec.ranges.len());
    payload.push(TAG_CACHE);
    payload.extend_from_slice(&rec.epoch.to_le_bytes());
    payload.extend_from_slice(&rec.fingerprint.to_le_bytes());
    payload.extend_from_slice(&rec.epsilon_spent.to_le_bytes());
    payload.extend_from_slice(&rec.block_size.to_le_bytes());
    payload.extend_from_slice(&rec.num_blocks.to_le_bytes());
    payload.extend_from_slice(&rec.gamma.to_le_bytes());
    payload.extend_from_slice(&rec.completed.to_le_bytes());
    payload.extend_from_slice(&rec.timed_out.to_le_bytes());
    payload.extend_from_slice(&rec.panicked.to_le_bytes());
    payload.extend_from_slice(&(rec.values.len() as u32).to_le_bytes());
    payload.extend_from_slice(&(rec.ranges.len() as u32).to_le_bytes());
    for v in &rec.values {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    for (lo, hi) in &rec.ranges {
        payload.extend_from_slice(&lo.to_le_bytes());
        payload.extend_from_slice(&hi.to_le_bytes());
    }
    frame(&payload)
}

/// Decodes a cache payload (past the tag check). `None` means the
/// payload is structurally malformed despite its valid CRC; the scanner
/// treats that exactly like a checksum failure and stops.
fn decode_cache_payload(payload: &[u8]) -> Option<CacheRecord> {
    if payload.len() < CACHE_PAYLOAD_HEAD {
        return None;
    }
    let u64_at = |o: usize| u64::from_le_bytes(payload[o..o + 8].try_into().expect("8 bytes"));
    let f64_at = |o: usize| f64::from_le_bytes(payload[o..o + 8].try_into().expect("8 bytes"));
    let epoch = u64_at(1);
    let fingerprint = u128::from_le_bytes(payload[9..25].try_into().expect("16 bytes"));
    let epsilon_spent = f64_at(25);
    let block_size = u64_at(33);
    let num_blocks = u64_at(41);
    let gamma = u64_at(49);
    let completed = u64_at(57);
    let timed_out = u64_at(65);
    let panicked = u64_at(73);
    let values_len = u32::from_le_bytes(payload[81..85].try_into().expect("4 bytes")) as usize;
    let ranges_len = u32::from_le_bytes(payload[85..89].try_into().expect("4 bytes")) as usize;
    if payload.len() != CACHE_PAYLOAD_HEAD + 8 * values_len + 16 * ranges_len {
        return None;
    }
    if !epsilon_spent.is_finite() || epsilon_spent < 0.0 {
        return None;
    }
    let mut pos = CACHE_PAYLOAD_HEAD;
    let mut values = Vec::with_capacity(values_len);
    for _ in 0..values_len {
        values.push(f64_at(pos));
        pos += 8;
    }
    let mut ranges = Vec::with_capacity(ranges_len);
    for _ in 0..ranges_len {
        ranges.push((f64_at(pos), f64_at(pos + 8)));
        pos += 16;
    }
    Some(CacheRecord {
        epoch,
        fingerprint,
        epsilon_spent,
        block_size,
        num_blocks,
        gamma,
        completed,
        timed_out,
        panicked,
        values,
        ranges,
    })
}

/// Result of scanning a WAL byte stream.
#[derive(Debug, Clone, PartialEq)]
pub struct WalScan {
    /// Decoded debit values, in append order. Principal-attributed
    /// debits appear here **and** in `principal_debits`: every `0x03`
    /// record is a dataset debit first.
    pub debits: Vec<f64>,
    /// Decoded (principal, ε) attributions, in append order.
    pub principal_debits: Vec<(String, f64)>,
    /// Decoded cache records, in append order.
    pub cache_records: Vec<CacheRecord>,
    /// Bytes of the longest valid record prefix.
    pub valid_len: usize,
    /// Whether bytes past `valid_len` were present (torn tail or
    /// corruption) and should be truncated.
    pub truncated: bool,
}

/// Scans a WAL image, returning the longest valid record prefix.
///
/// Scanning stops at the first incomplete or checksum-failing record:
/// everything before it is replayed, everything from it on is treated as
/// a torn tail. A record that fails its CRC was never acknowledged under
/// the write protocol (the store poisons itself on any partial append),
/// so dropping the tail never under-reports acknowledged spend. A
/// CRC-valid record with an unknown tag or a malformed payload stops the
/// scan for the same conservative reason: the log is not in a state this
/// implementation wrote, and guessing past it could mask damage.
pub fn scan_wal(bytes: &[u8]) -> WalScan {
    let mut debits = Vec::new();
    let mut principal_debits = Vec::new();
    let mut cache_records = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= FRAME_HEADER {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        // The cap keeps a corrupt length field from driving a huge
        // allocation; a short read means a torn tail.
        if len == 0 || len > MAX_PAYLOAD || bytes.len() - pos - FRAME_HEADER < len {
            break;
        }
        let payload = &bytes[pos + FRAME_HEADER..pos + FRAME_HEADER + len];
        let mut crc_input = Vec::with_capacity(4 + len);
        crc_input.extend_from_slice(&(len as u32).to_le_bytes());
        crc_input.extend_from_slice(payload);
        if crc32(&crc_input) != crc {
            break;
        }
        match payload[0] {
            TAG_DEBIT => {
                if len != DEBIT_PAYLOAD {
                    break;
                }
                let eps = f64::from_le_bytes(payload[1..].try_into().expect("8 bytes"));
                if !eps.is_finite() || eps < 0.0 {
                    break;
                }
                debits.push(eps);
            }
            TAG_CACHE => match decode_cache_payload(payload) {
                Some(rec) => cache_records.push(rec),
                None => break,
            },
            TAG_PRINCIPAL => match decode_principal_payload(payload) {
                Some((name, eps)) => {
                    debits.push(eps);
                    principal_debits.push((name, eps));
                }
                None => break,
            },
            _ => break,
        }
        pos += FRAME_HEADER + len;
    }
    WalScan {
        debits,
        principal_debits,
        cache_records,
        valid_len: pos,
        truncated: pos < bytes.len(),
    }
}

// ---------------------------------------------------------------------
// Snapshot.
// ---------------------------------------------------------------------

/// One principal's compacted books: attributed spend and charge count.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PrincipalBooks {
    /// ε attributed to this principal.
    pub spent: f64,
    /// Attributed charges.
    pub queries: u64,
}

/// Compacted ledger state: everything the WAL said up to the snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Lifetime budget ε.
    pub total: f64,
    /// ε spent at snapshot time.
    pub spent: f64,
    /// Successful charges at snapshot time.
    pub queries: u64,
    /// Per-principal books at snapshot time (v2; empty for v1 files).
    /// Compaction must carry these or truncating the WAL would
    /// under-report tenant spend.
    pub principals: BTreeMap<String, PrincipalBooks>,
}

fn encode_snapshot(snap: &Snapshot) -> Vec<u8> {
    let mut body = Vec::with_capacity(8 + 4 + 8 + 8 + 8 + 4 + 4);
    body.extend_from_slice(SNAP_MAGIC);
    body.extend_from_slice(&STORAGE_VERSION.to_le_bytes());
    body.extend_from_slice(&snap.total.to_le_bytes());
    body.extend_from_slice(&snap.spent.to_le_bytes());
    body.extend_from_slice(&snap.queries.to_le_bytes());
    body.extend_from_slice(&(snap.principals.len() as u32).to_le_bytes());
    for (name, books) in &snap.principals {
        let bytes = name.as_bytes();
        body.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
        body.extend_from_slice(bytes);
        body.extend_from_slice(&books.spent.to_le_bytes());
        body.extend_from_slice(&books.queries.to_le_bytes());
    }
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// Fixed prefix shared by both snapshot versions: magic ‖ version ‖
/// total ‖ spent ‖ queries.
const SNAP_HEAD: usize = 8 + 4 + 8 + 8 + 8;

fn decode_snapshot(bytes: &[u8], path: &Path) -> Result<Snapshot, GuptError> {
    let corrupt = |detail: String| GuptError::Corrupt {
        path: path.to_path_buf(),
        detail,
    };
    if bytes.len() < SNAP_HEAD + 4 {
        return Err(corrupt("wrong snapshot length".into()));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let crc = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    if crc32(body) != crc {
        return Err(corrupt("snapshot checksum mismatch".into()));
    }
    if &body[..8] != SNAP_MAGIC {
        return Err(corrupt("bad snapshot magic".into()));
    }
    let version = u32::from_le_bytes(body[8..12].try_into().expect("4 bytes"));
    if version != 1 && version != STORAGE_VERSION {
        return Err(corrupt(format!("unsupported snapshot version {version}")));
    }
    let total = f64::from_le_bytes(body[12..20].try_into().expect("8 bytes"));
    let spent = f64::from_le_bytes(body[20..28].try_into().expect("8 bytes"));
    let queries = u64::from_le_bytes(body[28..36].try_into().expect("8 bytes"));
    if !total.is_finite() || !spent.is_finite() || spent < 0.0 {
        return Err(corrupt("snapshot values out of range".into()));
    }
    let mut principals = BTreeMap::new();
    if version == 1 {
        if body.len() != SNAP_HEAD {
            return Err(corrupt("wrong snapshot length".into()));
        }
    } else {
        if body.len() < SNAP_HEAD + 4 {
            return Err(corrupt("wrong snapshot length".into()));
        }
        let count = u32::from_le_bytes(body[SNAP_HEAD..SNAP_HEAD + 4].try_into().expect("4 bytes"));
        let mut pos = SNAP_HEAD + 4;
        for _ in 0..count {
            if body.len() - pos < 2 {
                return Err(corrupt("truncated principal section".into()));
            }
            let name_len =
                u16::from_le_bytes(body[pos..pos + 2].try_into().expect("2 bytes")) as usize;
            pos += 2;
            if body.len() - pos < name_len + 16 {
                return Err(corrupt("truncated principal section".into()));
            }
            let name = std::str::from_utf8(&body[pos..pos + name_len])
                .map_err(|_| corrupt("principal name is not UTF-8".into()))?
                .to_string();
            pos += name_len;
            let p_spent = f64::from_le_bytes(body[pos..pos + 8].try_into().expect("8 bytes"));
            let p_queries =
                u64::from_le_bytes(body[pos + 8..pos + 16].try_into().expect("8 bytes"));
            pos += 16;
            if !p_spent.is_finite() || p_spent < 0.0 {
                return Err(corrupt("principal spend out of range".into()));
            }
            principals.insert(
                name,
                PrincipalBooks {
                    spent: p_spent,
                    queries: p_queries,
                },
            );
        }
        if pos != body.len() {
            return Err(corrupt("trailing bytes after principal section".into()));
        }
    }
    Ok(Snapshot {
        total,
        spent,
        queries,
        principals,
    })
}

// ---------------------------------------------------------------------
// WAL file abstraction + fault injection.
// ---------------------------------------------------------------------

/// The append-and-sync surface a [`LedgerStore`] writes through.
///
/// Production uses [`StdWalFile`]; the recovery test-suite wraps it in a
/// [`FailingStore`] to inject crashes at exact write boundaries.
pub trait WalFile: Send {
    /// Appends `bytes` at the end of the log.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Flushes all appended bytes to stable storage.
    fn sync(&mut self) -> io::Result<()>;
}

/// A [`WalFile`] over a real [`File`] opened in append mode.
#[derive(Debug)]
pub struct StdWalFile {
    file: File,
}

impl StdWalFile {
    /// Opens (creating if absent) `path` for appending.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(StdWalFile { file })
    }
}

impl WalFile for StdWalFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// What a [`FailingStore`] does when its trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureMode {
    /// The append returns an error with nothing written — a crash just
    /// before the write.
    Error,
    /// The given prefix length of the record is written, then the append
    /// errors — a torn write / crash mid-write.
    Truncate(usize),
    /// One bit of the record is flipped and the append *succeeds* —
    /// silent media corruption the checksum must catch at recovery.
    BitFlip(usize),
}

/// Fault-injection wrapper: passes writes through until the `n`-th
/// append (0-based), then applies [`FailureMode`] once.
pub struct FailingStore<W: WalFile> {
    inner: W,
    fail_at: u64,
    mode: FailureMode,
    appends: u64,
}

impl<W: WalFile> FailingStore<W> {
    /// Wraps `inner`, arming `mode` for the `fail_at`-th append.
    pub fn new(inner: W, fail_at: u64, mode: FailureMode) -> Self {
        FailingStore {
            inner,
            fail_at,
            mode,
            appends: 0,
        }
    }
}

impl<W: WalFile> WalFile for FailingStore<W> {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let n = self.appends;
        self.appends += 1;
        if n != self.fail_at {
            return self.inner.append(bytes);
        }
        match self.mode {
            FailureMode::Error => Err(io::Error::other("injected: append failed")),
            FailureMode::Truncate(keep) => {
                let keep = keep.min(bytes.len());
                self.inner.append(&bytes[..keep])?;
                let _ = self.inner.sync();
                Err(io::Error::other("injected: torn write"))
            }
            FailureMode::BitFlip(byte) => {
                let mut copy = bytes.to_vec();
                if let Some(b) = copy.get_mut(byte % bytes.len().max(1)) {
                    *b ^= 0x10;
                }
                self.inner.append(&copy)
            }
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()
    }
}

// ---------------------------------------------------------------------
// Recovery.
// ---------------------------------------------------------------------

/// What recovery reconstructed for one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredLedger {
    /// Lifetime budget carried by the snapshot (0 when none existed).
    pub total: f64,
    /// ε spent: snapshot spend plus every valid WAL debit.
    pub spent: f64,
    /// Successful charges: snapshot count plus WAL *debit* records.
    pub queries: u64,
    /// Valid WAL records replayed (debits + cache records) across every
    /// segment.
    pub wal_records: u64,
    /// WAL segments the replay read (a legacy single-file WAL counts as
    /// one segment).
    pub segments: u64,
    /// Bytes discarded as a torn / corrupt tail — the invalid remainder
    /// of the first torn segment plus the full length of every segment
    /// after it.
    pub truncated_bytes: u64,
    /// Whether a snapshot contributed to the state.
    pub had_snapshot: bool,
    /// Released answers journaled in the WAL, for warming the answer
    /// cache. The runtime re-inserts only those whose `epoch` matches
    /// the dataset's current registration epoch.
    pub cache_records: Vec<CacheRecord>,
    /// Per-principal books: snapshot section merged with every valid WAL
    /// attribution. A principal appearing here but not in the new
    /// registration keeps its spend (quota zero) — tenant books are
    /// never under-reported either.
    pub principals: BTreeMap<String, PrincipalBooks>,
    /// Wall-clock time the replay took.
    pub replay: Duration,
}

fn storage_err(source: io::Error, path: &Path) -> GuptError {
    GuptError::Storage {
        source,
        path: path.to_path_buf(),
    }
}

/// Validates that a dataset name maps to a safe file stem.
fn file_stem(name: &str) -> Result<&str, GuptError> {
    let ok = !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
        && !name.starts_with('.');
    if ok {
        Ok(name)
    } else {
        Err(GuptError::InvalidDataset(format!(
            "dataset name {name:?} is not filesystem-safe for durable storage \
             (use ASCII letters, digits, '-', '_', '.')"
        )))
    }
}

/// Path of a dataset's legacy (pre-segmentation) single-file WAL.
fn legacy_wal_path(dir: &Path, stem: &str) -> PathBuf {
    dir.join(format!("{stem}.wal"))
}

/// Path of a dataset's snapshot file.
fn snap_path_for(dir: &Path, stem: &str) -> PathBuf {
    dir.join(format!("{stem}.snap"))
}

/// Path of segment `index` of dataset `stem`. Indices are zero-padded to
/// six digits so lexical directory listings read in replay order, but
/// parsing is numeric — indices past 999999 simply widen.
fn segment_path(dir: &Path, stem: &str, index: u64) -> PathBuf {
    dir.join(format!("{stem}.{index:06}.seg"))
}

/// Lists a dataset's segment files as `(index, path)` sorted by index.
///
/// A file counts as a segment of `stem` only when its name is exactly
/// `{stem}.{digits}.seg`: the middle component must be all ASCII digits,
/// so dataset names containing dots (legal per [`file_stem`]) can never
/// capture another dataset's segments — `a.000001`'s files never match
/// dataset `a`, whose own segments end in `.{digits}.seg` with a longer
/// prefix.
fn list_segments(dir: &Path, stem: &str) -> Result<Vec<(u64, PathBuf)>, GuptError> {
    let mut segments = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(segments),
        Err(e) => return Err(storage_err(e, dir)),
    };
    let prefix = format!("{stem}.");
    for entry in entries {
        let entry = entry.map_err(|e| storage_err(e, dir))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(middle) = name
            .strip_prefix(&prefix)
            .and_then(|rest| rest.strip_suffix(".seg"))
        else {
            continue;
        };
        if middle.is_empty() || !middle.bytes().all(|b| b.is_ascii_digit()) {
            continue;
        }
        let Ok(index) = middle.parse::<u64>() else {
            continue;
        };
        segments.push((index, entry.path()));
    }
    segments.sort_by_key(|(index, _)| *index);
    Ok(segments)
}

/// The segment set recovery replays: either the listed segment files or,
/// for a directory last written by the single-WAL layout, the legacy
/// `stem.wal` standing in as the sole segment. Both present at once is
/// refused — the directory is ambiguous about which log was live.
fn replay_set(dir: &Path, stem: &str) -> Result<Vec<(u64, PathBuf)>, GuptError> {
    let segments = list_segments(dir, stem)?;
    let legacy = legacy_wal_path(dir, stem);
    if legacy.exists() {
        if !segments.is_empty() {
            return Err(GuptError::Corrupt {
                path: legacy,
                detail: format!(
                    "both a legacy single-file WAL and {} segment file(s) exist for this \
                     dataset; remove whichever log is stale before reopening",
                    segments.len()
                ),
            });
        }
        return Ok(vec![(0, legacy)]);
    }
    Ok(segments)
}

/// Paths of a dataset's current segment files in replay order
/// (inspection helper for operator tooling; the legacy `name.wal`, when
/// still unmigrated, is returned as the sole entry).
pub fn segment_paths(name: &str, config: &StorageConfig) -> Result<Vec<PathBuf>, GuptError> {
    let stem = file_stem(name)?;
    Ok(replay_set(&config.dir, stem)?
        .into_iter()
        .map(|(_, path)| path)
        .collect())
}

/// Replays a dataset's snapshot + WAL segments without opening it for
/// writing.
///
/// Pure read: repeated recovery of the same state directory returns
/// bit-identical results. A missing state (no snapshot, no segments)
/// recovers to zero spend; a *corrupt snapshot* is a hard
/// [`GuptError::Corrupt`] — the snapshot is the compacted truth and
/// guessing around it could under-report. Segments replay in index
/// order; the first torn or corrupt one ends the replay, and the
/// remainder of that segment plus every later segment counts toward
/// `truncated_bytes` (later segments were only opened after this one
/// was sealed, so a tear here means they hold nothing acknowledged).
pub fn recover(name: &str, config: &StorageConfig) -> Result<RecoveredLedger, GuptError> {
    let start = Instant::now();
    let stem = file_stem(name)?;
    let snap_path = snap_path_for(&config.dir, stem);

    let snapshot = match std::fs::read(&snap_path) {
        Ok(bytes) => Some(decode_snapshot(&bytes, &snap_path)?),
        Err(e) if e.kind() == io::ErrorKind::NotFound => None,
        Err(e) => return Err(storage_err(e, &snap_path)),
    };

    let set = replay_set(&config.dir, stem)?;
    let mut debits: Vec<f64> = Vec::new();
    let mut principal_debits: Vec<(String, f64)> = Vec::new();
    let mut cache_records: Vec<CacheRecord> = Vec::new();
    let mut truncated_bytes = 0u64;
    let mut torn = false;
    for (_, path) in &set {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(storage_err(e, path)),
        };
        if torn {
            truncated_bytes += bytes.len() as u64;
            continue;
        }
        let scan = scan_wal(&bytes);
        debits.extend(scan.debits);
        principal_debits.extend(scan.principal_debits);
        cache_records.extend(scan.cache_records);
        if scan.truncated {
            truncated_bytes += (bytes.len() - scan.valid_len) as u64;
            torn = true;
        }
    }

    let had_snapshot = snapshot.is_some();
    let base = snapshot.unwrap_or(Snapshot {
        total: 0.0,
        spent: 0.0,
        queries: 0,
        principals: BTreeMap::new(),
    });
    let mut principals = base.principals;
    for (name, eps) in &principal_debits {
        let books = principals.entry(name.clone()).or_default();
        books.spent += eps;
        books.queries += 1;
    }
    Ok(RecoveredLedger {
        total: base.total,
        spent: base.spent + debits.iter().sum::<f64>(),
        queries: base.queries + debits.len() as u64,
        wal_records: (debits.len() + cache_records.len()) as u64,
        segments: set.len() as u64,
        truncated_bytes,
        had_snapshot,
        cache_records,
        principals,
        replay: start.elapsed(),
    })
}

// ---------------------------------------------------------------------
// The live store.
// ---------------------------------------------------------------------

/// Persistence counters for one dataset's [`LedgerStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// WAL records appended by this process.
    pub records_written: u64,
    /// `fsync` calls issued by this process.
    pub fsyncs: u64,
    /// Segment rotations performed (active segment sealed, fresh one
    /// opened).
    pub rotations: u64,
    /// Segment-set→snapshot compactions performed.
    pub compactions: u64,
    /// Whether the store wedged after a failed write (all further
    /// charges fail closed).
    pub poisoned: bool,
}

/// Fsyncs `dir` so a rename / create / delete of entries under it is
/// itself durable. A failure is returned, never dropped: the callers
/// delete or append past the entry this makes durable.
fn sync_dir(dir: &Path) -> Result<(), GuptError> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| storage_err(e, dir))
}

/// Takes the exclusive writer lock `stem.lock` in `dir` without
/// waiting. The kernel releases it when the returned file closes — on
/// drop or when the process dies — so no stale lock can outlive its
/// holder. A held lock is refused with a `WouldBlock` storage error.
fn lock_writer(dir: &Path, stem: &str) -> Result<File, GuptError> {
    let path = dir.join(format!("{stem}.lock"));
    let file = OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(&path)
        .map_err(|e| storage_err(e, &path))?;
    match file.try_lock() {
        Ok(()) => Ok(file),
        Err(std::fs::TryLockError::WouldBlock) => Err(storage_err(
            io::Error::new(
                io::ErrorKind::WouldBlock,
                "another open ledger store holds this dataset's writer lock",
            ),
            &path,
        )),
        Err(std::fs::TryLockError::Error(e)) => Err(storage_err(e, &path)),
    }
}

/// The write side of one dataset's durable ledger.
///
/// Owned by the dataset entry behind a mutex: the holder serialises
/// check-afford → WAL append → in-memory debit so the on-disk order
/// matches the ledger order exactly. Appends land in the **active
/// segment** (the highest-indexed `name.NNNNNN.seg` file); the store
/// rotates to a fresh segment at [`StorageConfig::segment_bytes`] and
/// compacts the whole set into the snapshot at
/// [`StorageConfig::compaction_threshold`] records.
pub struct LedgerStore {
    wal: Box<dyn WalFile>,
    dir: PathBuf,
    stem: String,
    /// Path of the active (append-target) segment.
    active_path: PathBuf,
    /// Index of the active segment.
    active_index: u64,
    /// Bytes in the active segment right now (rotation trigger).
    active_bytes: u64,
    /// Lowest segment index still on disk (compaction deletes
    /// `first_index..=active_index`).
    first_index: u64,
    snap_path: PathBuf,
    fsync: FsyncPolicy,
    segment_bytes: u64,
    compaction_threshold: u64,
    /// Records across the whole segment set right now (survivors of
    /// recovery plus appends since; compaction trigger).
    wal_records: u64,
    /// Appends since the last fsync (for `EveryN`).
    unsynced: u32,
    stats: StorageStats,
    /// The exclusive writer lock on `name.lock`, held while the store
    /// is open.
    _lock: File,
}

impl std::fmt::Debug for LedgerStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LedgerStore")
            .field("active_path", &self.active_path)
            .field("segments", &self.segment_count())
            .field("wal_records", &self.wal_records)
            .field("stats", &self.stats)
            .finish()
    }
}

impl LedgerStore {
    /// Opens (or creates) the durable state for `name` and returns the
    /// store plus the recovered books.
    ///
    /// The store is the dataset's only writer: open takes the exclusive
    /// OS lock `name.lock` in the state directory and holds it until the
    /// store drops. A second open of the same dataset — from this
    /// process or another — fails at once with [`GuptError::Storage`]
    /// of kind [`io::ErrorKind::WouldBlock`] naming the lock file,
    /// instead of spending the budget a second time. [`recover`] reads
    /// without the lock.
    ///
    /// Healing happens here, after the (pure-read) recovery pass: a
    /// legacy single-file `name.wal` is migrated in place as segment 1,
    /// the first torn segment is truncated to its longest valid record
    /// prefix, and every segment past the torn one is deleted — later
    /// segments were only ever opened after their predecessor was sealed
    /// and synced, so a tear means they hold nothing acknowledged.
    pub fn open(name: &str, config: &StorageConfig) -> Result<(Self, RecoveredLedger), GuptError> {
        std::fs::create_dir_all(&config.dir).map_err(|e| storage_err(e, &config.dir))?;
        let stem = file_stem(name)?.to_string();
        let lock = lock_writer(&config.dir, &stem)?;

        // Migrate a legacy single-file WAL in place: it becomes segment
        // 1. (If segments exist beside it, recover() below refuses the
        // ambiguous directory.)
        let legacy = legacy_wal_path(&config.dir, &stem);
        if legacy.exists() && list_segments(&config.dir, &stem)?.is_empty() {
            let target = segment_path(&config.dir, &stem, 1);
            std::fs::rename(&legacy, &target).map_err(|e| storage_err(e, &legacy))?;
            sync_dir(&config.dir)?;
        }

        let recovered = recover(name, config)?;

        // Physically drop the torn tail so the next append continues the
        // valid prefix instead of burying garbage mid-log.
        if recovered.truncated_bytes > 0 {
            let mut torn = false;
            for (_, path) in list_segments(&config.dir, &stem)? {
                if torn {
                    std::fs::remove_file(&path).map_err(|e| storage_err(e, &path))?;
                    continue;
                }
                let bytes = std::fs::read(&path).map_err(|e| storage_err(e, &path))?;
                let scan = scan_wal(&bytes);
                if scan.truncated {
                    torn = true;
                    let file = OpenOptions::new()
                        .write(true)
                        .open(&path)
                        .map_err(|e| storage_err(e, &path))?;
                    file.set_len(scan.valid_len as u64)
                        .map_err(|e| storage_err(e, &path))?;
                    file.sync_data().map_err(|e| storage_err(e, &path))?;
                }
            }
            sync_dir(&config.dir)?;
        }

        let segments = list_segments(&config.dir, &stem)?;
        let (first_index, active_index) = match (segments.first(), segments.last()) {
            (Some((first, _)), Some((last, _))) => (*first, *last),
            _ => (1, 1),
        };
        let active_path = segment_path(&config.dir, &stem, active_index);
        let wal = StdWalFile::open(&active_path).map_err(|e| storage_err(e, &active_path))?;
        let active_bytes = std::fs::metadata(&active_path)
            .map(|m| m.len())
            .unwrap_or(0);
        let snap_path = snap_path_for(&config.dir, &stem);
        Ok((
            LedgerStore {
                wal: Box::new(wal),
                dir: config.dir.clone(),
                stem,
                active_path,
                active_index,
                active_bytes,
                first_index,
                snap_path,
                fsync: config.fsync,
                segment_bytes: config.segment_bytes.max(1),
                compaction_threshold: config.compaction_threshold.max(1),
                wal_records: recovered.wal_records,
                unsynced: 0,
                stats: StorageStats::default(),
                _lock: lock,
            },
            recovered,
        ))
    }

    /// Swaps the WAL backend — fault-injection hook for tests.
    ///
    /// The swap applies to the *current active segment* only: a rotation
    /// or compaction re-opens a fresh [`StdWalFile`] and drops the
    /// injected backend, so crash tests targeting those windows operate
    /// on the segment files directly instead.
    pub fn with_wal(mut self, wal: Box<dyn WalFile>) -> Self {
        self.wal = wal;
        self
    }

    /// Path of the segment appends currently land in (test hook: this is
    /// the file a [`FailingStore`] wrapper should shadow).
    pub fn active_segment_path(&self) -> &Path {
        &self.active_path
    }

    /// Number of segment files the store currently spans.
    pub fn segment_count(&self) -> u64 {
        self.active_index - self.first_index + 1
    }

    /// Point-in-time persistence counters.
    pub fn stats(&self) -> StorageStats {
        self.stats
    }

    /// Whether the store has wedged after a failed write.
    pub fn is_poisoned(&self) -> bool {
        self.stats.poisoned
    }

    fn poisoned_err(&self) -> GuptError {
        GuptError::Storage {
            source: io::Error::other(
                "ledger store is poisoned after an earlier write failure; \
                 restart and recover to resume charging",
            ),
            path: self.active_path.clone(),
        }
    }

    /// Durably logs one debit of `eps`. On any failure the store poisons
    /// itself: bytes of unknown extent may sit at the WAL tail and
    /// appending valid records after them could mask the damage at
    /// recovery (an under-report). The charge must be considered
    /// *not granted*.
    pub fn append_charge(&mut self, eps: f64) -> Result<(), GuptError> {
        self.append_framed(encode_record(eps))
    }

    /// Durably logs one debit of `eps` attributed to `principal`, under
    /// the same write protocol (and poisoning rules) as
    /// [`LedgerStore::append_charge`]. One record carries both the
    /// dataset debit and the attribution, so neither can survive a crash
    /// without the other.
    pub fn append_principal_charge(&mut self, principal: &str, eps: f64) -> Result<(), GuptError> {
        self.append_framed(encode_principal_record(principal, eps))
    }

    /// Durably journals one released answer for the warm cache, under
    /// the same write protocol as [`LedgerStore::append_charge`]: any
    /// failure poisons the store, because bytes of unknown extent at the
    /// WAL tail would make *later debits* unrecoverable — the privacy
    /// books and the cache share one log.
    pub fn append_cache_record(&mut self, rec: &CacheRecord) -> Result<(), GuptError> {
        self.append_framed(encode_cache_record(rec))
    }

    /// Marks the store poisoned and hands `err` back: every write
    /// failure wedges the store, so later charges fail closed.
    fn poison(&mut self, err: GuptError) -> GuptError {
        self.stats.poisoned = true;
        err
    }

    fn append_framed(&mut self, record: Vec<u8>) -> Result<(), GuptError> {
        if self.stats.poisoned {
            return Err(self.poisoned_err());
        }
        if let Err(e) = self.wal.append(&record) {
            return Err(self.poison(storage_err(e, &self.active_path)));
        }
        self.stats.records_written += 1;
        self.wal_records += 1;
        self.unsynced += 1;
        self.active_bytes += record.len() as u64;
        let should_sync = match self.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.unsynced >= n.max(1),
            FsyncPolicy::Never => false,
        };
        if should_sync {
            if let Err(e) = self.wal.sync() {
                return Err(self.poison(storage_err(e, &self.active_path)));
            }
            self.stats.fsyncs += 1;
            self.unsynced = 0;
        }
        if self.active_bytes >= self.segment_bytes {
            self.rotate()?;
        }
        Ok(())
    }

    /// Seals the active segment and opens the next one.
    ///
    /// Sealing fsyncs regardless of policy: recovery's drop-later-
    /// segments rule is sound only because bytes in segment `k + 1`
    /// imply segment `k` reached stable storage in full. Failures poison
    /// the store like any other write failure.
    fn rotate(&mut self) -> Result<(), GuptError> {
        if self.unsynced > 0 {
            if let Err(e) = self.wal.sync() {
                return Err(self.poison(storage_err(e, &self.active_path)));
            }
            self.stats.fsyncs += 1;
            self.unsynced = 0;
        }
        self.open_segment(self.active_index + 1)?;
        self.stats.rotations += 1;
        Ok(())
    }

    /// Makes segment `index` the empty append target and syncs the
    /// directory so its entry is durable before anything lands in it.
    /// Failures poison the store.
    fn open_segment(&mut self, index: u64) -> Result<(), GuptError> {
        let path = segment_path(&self.dir, &self.stem, index);
        let opened = StdWalFile::open(&path).map_err(|e| storage_err(e, &path));
        match opened.and_then(|f| sync_dir(&self.dir).map(|()| f)) {
            Ok(f) => self.wal = Box::new(f),
            Err(e) => return Err(self.poison(e)),
        }
        self.active_index = index;
        self.active_path = path;
        self.active_bytes = 0;
        Ok(())
    }

    /// Compacts the segment set → snapshot once it holds enough records.
    ///
    /// `total` / `spent` / `queries` are the ledger's books *including*
    /// every debit already appended, and `principals` the per-tenant
    /// books at the same point — the snapshot must carry them because
    /// deleting the segments drops the `0x03` attribution records. The
    /// snapshot is written atomically (tmp + rename + fsync) before any
    /// segment is deleted; a crash in the deletion window leaves the
    /// surviving segments double-counted on recovery — a bounded
    /// over-report, never an under-report. Appends then continue in a
    /// fresh segment past the deleted range. Compaction failures poison
    /// the store (fail closed) like append failures.
    ///
    /// This threshold check *is* the compaction scheduler: it runs
    /// inline under the dataset's store mutex, piggybacking on the
    /// charge that crossed the threshold, so the fold can never race a
    /// concurrent append to the same log.
    pub fn maybe_compact(
        &mut self,
        total: f64,
        spent: f64,
        queries: u64,
        principals: &BTreeMap<String, PrincipalBooks>,
    ) -> Result<(), GuptError> {
        if self.stats.poisoned || self.wal_records < self.compaction_threshold {
            return Ok(());
        }
        if let Err(e) = self.write_snapshot(&Snapshot {
            total,
            spent,
            queries,
            principals: principals.clone(),
        }) {
            return Err(self.poison(e));
        }
        // The snapshot owns every record now: delete the segment set.
        for index in self.first_index..=self.active_index {
            let path = segment_path(&self.dir, &self.stem, index);
            if let Err(e) = std::fs::remove_file(&path) {
                if e.kind() != io::ErrorKind::NotFound {
                    return Err(self.poison(storage_err(e, &path)));
                }
            }
        }
        // Open a fresh segment past the deleted range for what follows.
        let next = self.active_index + 1;
        self.open_segment(next)?;
        self.first_index = next;
        self.wal_records = 0;
        self.unsynced = 0;
        self.stats.compactions += 1;
        Ok(())
    }

    /// Atomically replaces `name.snap` with `snap`: tmp write + fsync,
    /// rename, then a directory fsync so the rename itself is durable.
    ///
    /// Compaction calls this before deleting the segments it folds;
    /// `gupt-cli ledger init` calls it once on a fresh store to record
    /// the lifetime budget.
    pub fn write_snapshot(&self, snap: &Snapshot) -> Result<(), GuptError> {
        let tmp = self.snap_path.with_extension("snap.tmp");
        let bytes = encode_snapshot(snap);
        let mut file = File::create(&tmp).map_err(|e| storage_err(e, &tmp))?;
        file.write_all(&bytes).map_err(|e| storage_err(e, &tmp))?;
        file.sync_all().map_err(|e| storage_err(e, &tmp))?;
        drop(file);
        std::fs::rename(&tmp, &self.snap_path).map_err(|e| storage_err(e, &self.snap_path))?;
        sync_dir(&self.dir)
    }
}

/// Reads the dataset's WAL image — every segment concatenated in replay
/// order (test/inspection helper). Because records never span a segment
/// boundary, the concatenation scans exactly like the single-file image
/// the pre-segmentation layout kept.
pub fn read_wal(name: &str, config: &StorageConfig) -> Result<Vec<u8>, GuptError> {
    let stem = file_stem(name)?;
    let mut image = Vec::new();
    for (_, path) in replay_set(&config.dir, stem)? {
        match std::fs::read(&path) {
            Ok(bytes) => image.extend_from_slice(&bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(storage_err(e, &path)),
        }
    }
    Ok(image)
}

/// Opens a WAL file read-only and returns its contents (used by tests
/// that inject faults through a custom [`WalFile`] and then re-scan).
pub fn read_file(path: &Path) -> Result<Vec<u8>, GuptError> {
    let mut file = File::open(path).map_err(|e| storage_err(e, path))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| storage_err(e, path))?;
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("gupt_storage_tests")
            .join(format!("{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn record_roundtrip() {
        let mut image = Vec::new();
        for eps in [0.5, 1.25, 1e-9, 42.0] {
            image.extend_from_slice(&encode_record(eps));
        }
        let scan = scan_wal(&image);
        assert_eq!(scan.debits, vec![0.5, 1.25, 1e-9, 42.0]);
        assert_eq!(scan.valid_len, image.len());
        assert!(!scan.truncated);
    }

    #[test]
    fn bit_flip_rejected() {
        let mut image = encode_record(0.7);
        image.extend_from_slice(&encode_record(0.3));
        let rec_len = encode_record(0.7).len();
        // Flip one bit in the second record's payload.
        image[rec_len + FRAME_HEADER + 3] ^= 0x01;
        let scan = scan_wal(&image);
        assert_eq!(scan.debits, vec![0.7]);
        assert!(scan.truncated);
        assert_eq!(scan.valid_len, rec_len);
    }

    #[test]
    fn torn_tail_recovers_longest_prefix() {
        let mut image = Vec::new();
        for eps in [0.1, 0.2, 0.3] {
            image.extend_from_slice(&encode_record(eps));
        }
        let full = image.len();
        image.extend_from_slice(&encode_record(0.4)[..5]); // torn mid-write
        let scan = scan_wal(&image);
        assert_eq!(scan.debits, vec![0.1, 0.2, 0.3]);
        assert_eq!(scan.valid_len, full);
        assert!(scan.truncated);
    }

    #[test]
    fn snapshot_roundtrip_and_corruption() {
        let snap = Snapshot {
            total: 5.0,
            spent: 3.25,
            queries: 17,
            principals: BTreeMap::new(),
        };
        let mut bytes = encode_snapshot(&snap);
        let p = Path::new("x.snap");
        assert_eq!(decode_snapshot(&bytes, p).unwrap(), snap);
        bytes[15] ^= 0x40;
        assert!(matches!(
            decode_snapshot(&bytes, p).unwrap_err(),
            GuptError::Corrupt { .. }
        ));
    }

    #[test]
    fn snapshot_roundtrips_principal_books() {
        let mut principals = BTreeMap::new();
        principals.insert(
            "alice".to_string(),
            PrincipalBooks {
                spent: 1.25,
                queries: 5,
            },
        );
        principals.insert(
            "svc@batch".to_string(),
            PrincipalBooks {
                spent: 0.0,
                queries: 0,
            },
        );
        let snap = Snapshot {
            total: 5.0,
            spent: 3.25,
            queries: 17,
            principals,
        };
        let bytes = encode_snapshot(&snap);
        assert_eq!(decode_snapshot(&bytes, Path::new("x.snap")).unwrap(), snap);
    }

    #[test]
    fn v1_snapshot_still_decodes() {
        // Hand-build the 40-byte v1 layout a pre-principal release wrote.
        let mut body = Vec::new();
        body.extend_from_slice(SNAP_MAGIC);
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&5.0f64.to_le_bytes());
        body.extend_from_slice(&2.5f64.to_le_bytes());
        body.extend_from_slice(&9u64.to_le_bytes());
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        let snap = decode_snapshot(&body, Path::new("x.snap")).unwrap();
        assert_eq!((snap.total, snap.spent, snap.queries), (5.0, 2.5, 9));
        assert!(snap.principals.is_empty());
    }

    #[test]
    fn unknown_snapshot_version_rejected_with_detail() {
        let mut body = Vec::new();
        body.extend_from_slice(SNAP_MAGIC);
        body.extend_from_slice(&7u32.to_le_bytes());
        body.extend_from_slice(&5.0f64.to_le_bytes());
        body.extend_from_slice(&2.5f64.to_le_bytes());
        body.extend_from_slice(&9u64.to_le_bytes());
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        let err = decode_snapshot(&body, Path::new("x.snap")).unwrap_err();
        assert!(
            err.to_string().contains("unsupported snapshot version 7"),
            "{err}"
        );
    }

    #[test]
    fn store_logs_syncs_and_compacts() {
        let dir = tmp_dir("lifecycle");
        let config = StorageConfig::new(&dir)
            .fsync(FsyncPolicy::Always)
            .compaction_threshold(3);
        let (mut store, recovered) = LedgerStore::open("d", &config).unwrap();
        assert_eq!(recovered.spent, 0.0);
        let mut spent = 0.0;
        for i in 0..5u64 {
            store.append_charge(0.5).unwrap();
            spent += 0.5;
            store
                .maybe_compact(10.0, spent, i + 1, &BTreeMap::new())
                .unwrap();
        }
        let stats = store.stats();
        assert_eq!(stats.records_written, 5);
        assert_eq!(stats.fsyncs, 5);
        assert_eq!(stats.compactions, 1);
        drop(store);

        let recovered = recover("d", &config).unwrap();
        assert!((recovered.spent - 2.5).abs() < 1e-12);
        assert_eq!(recovered.queries, 5);
        assert!(recovered.had_snapshot);
        // Only the post-compaction records remain in the WAL.
        assert_eq!(recovered.wal_records, 2);
    }

    #[test]
    fn recovery_is_idempotent() {
        let dir = tmp_dir("idempotent");
        let config = StorageConfig::new(&dir).fsync(FsyncPolicy::Always);
        let (mut store, _) = LedgerStore::open("d", &config).unwrap();
        for _ in 0..4 {
            store.append_charge(0.25).unwrap();
        }
        drop(store);
        let a = recover("d", &config).unwrap();
        let b = recover("d", &config).unwrap();
        assert_eq!(
            (a.spent, a.queries, a.wal_records),
            (b.spent, b.queries, b.wal_records)
        );
    }

    #[test]
    fn open_truncates_torn_tail() {
        let dir = tmp_dir("torn");
        let config = StorageConfig::new(&dir).fsync(FsyncPolicy::Always);
        let (mut store, _) = LedgerStore::open("d", &config).unwrap();
        store.append_charge(0.5).unwrap();
        drop(store);
        // Simulate a torn write at the active segment's tail.
        let seg_path = dir.join("d.000001.seg");
        let mut bytes = std::fs::read(&seg_path).unwrap();
        let valid = bytes.len();
        bytes.extend_from_slice(&[0xDE, 0xAD, 0xBE]);
        std::fs::write(&seg_path, &bytes).unwrap();

        let (store, recovered) = LedgerStore::open("d", &config).unwrap();
        assert_eq!(recovered.truncated_bytes, 3);
        assert_eq!(recovered.wal_records, 1);
        assert_eq!(store.active_segment_path(), seg_path.as_path());
        drop(store);
        assert_eq!(std::fs::metadata(&seg_path).unwrap().len() as usize, valid);
    }

    #[test]
    fn failing_store_poisons_on_error() {
        let dir = tmp_dir("poison");
        let config = StorageConfig::new(&dir).fsync(FsyncPolicy::Always);
        let (store, _) = LedgerStore::open("d", &config).unwrap();
        let wal = StdWalFile::open(store.active_segment_path()).unwrap();
        let mut store = store.with_wal(Box::new(FailingStore::new(wal, 1, FailureMode::Error)));
        store.append_charge(0.5).unwrap();
        let err = store.append_charge(0.5).unwrap_err();
        assert!(matches!(err, GuptError::Storage { .. }));
        assert!(store.is_poisoned());
        // Every further charge fails closed.
        assert!(store.append_charge(0.1).is_err());
        drop(store);
        let recovered = recover("d", &config).unwrap();
        assert!((recovered.spent - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unsafe_dataset_names_rejected() {
        let config = StorageConfig::new(std::env::temp_dir());
        for bad in ["", "a/b", "..", ".hidden", "a b", "ü"] {
            assert!(
                matches!(recover(bad, &config), Err(GuptError::InvalidDataset(_))),
                "{bad:?} accepted"
            );
        }
        assert!(file_stem("ok-name_1.v2").is_ok());
    }

    fn sample_cache_record(fp: u128) -> CacheRecord {
        CacheRecord {
            epoch: 0xFEED_F00D,
            fingerprint: fp,
            epsilon_spent: 0.75,
            block_size: 100,
            num_blocks: 10,
            gamma: 2,
            completed: 9,
            timed_out: 1,
            panicked: 0,
            values: vec![39.5, -1.25],
            ranges: vec![(0.0, 100.0), (-5.0, 5.0)],
        }
    }

    #[test]
    fn cache_record_roundtrip() {
        let rec = sample_cache_record(0xDEAD_BEEF_CAFE_BABE_0123_4567_89AB_CDEF);
        let mut image = encode_cache_record(&rec);
        image.extend_from_slice(&encode_record(0.5));
        image.extend_from_slice(&encode_cache_record(&sample_cache_record(7)));
        let scan = scan_wal(&image);
        assert_eq!(scan.debits, vec![0.5]);
        assert_eq!(scan.cache_records.len(), 2);
        assert_eq!(scan.cache_records[0], rec);
        assert_eq!(scan.cache_records[1].fingerprint, 7);
        assert!(!scan.truncated);
    }

    #[test]
    fn empty_value_cache_record_roundtrip() {
        let mut rec = sample_cache_record(1);
        rec.values.clear();
        rec.ranges.clear();
        let scan = scan_wal(&encode_cache_record(&rec));
        assert_eq!(scan.cache_records, vec![rec]);
    }

    #[test]
    fn corrupt_cache_record_stops_scan_conservatively() {
        let mut image = encode_record(0.5);
        let cache_rec = encode_cache_record(&sample_cache_record(3));
        image.extend_from_slice(&cache_rec);
        image.extend_from_slice(&encode_record(0.25));
        // Flip a bit inside the cache record's payload: the scan must
        // keep the first debit, drop the cache record AND the debit
        // behind it (never-under-report treats the rest as torn).
        let flip_at = encode_record(0.5).len() + FRAME_HEADER + 10;
        image[flip_at] ^= 0x04;
        let scan = scan_wal(&image);
        assert_eq!(scan.debits, vec![0.5]);
        assert!(scan.cache_records.is_empty());
        assert!(scan.truncated);
    }

    #[test]
    fn unknown_tag_stops_scan() {
        let mut payload = vec![0x7Fu8];
        payload.extend_from_slice(&1.0f64.to_le_bytes());
        let mut image = encode_record(0.5);
        image.extend_from_slice(&frame(&payload));
        let scan = scan_wal(&image);
        assert_eq!(scan.debits, vec![0.5]);
        assert!(scan.truncated);
    }

    #[test]
    fn malformed_cache_length_fields_rejected() {
        // CRC-valid payload whose declared values_len disagrees with the
        // actual byte count: structurally malformed, scan stops.
        let good = encode_cache_record(&sample_cache_record(9));
        let payload_start = FRAME_HEADER;
        let mut payload = good[payload_start..].to_vec();
        payload[81] = payload[81].wrapping_add(1); // values_len += 1
        let image = frame(&payload);
        let scan = scan_wal(&image);
        assert!(scan.cache_records.is_empty());
        assert!(scan.truncated);
        assert_eq!(scan.valid_len, 0);
    }

    #[test]
    fn store_appends_cache_records_and_recovers_them() {
        let dir = tmp_dir("cache_records");
        let config = StorageConfig::new(&dir).fsync(FsyncPolicy::Always);
        let (mut store, _) = LedgerStore::open("d", &config).unwrap();
        store.append_charge(0.5).unwrap();
        store.append_cache_record(&sample_cache_record(11)).unwrap();
        store.append_charge(0.25).unwrap();
        assert_eq!(store.stats().records_written, 3);
        drop(store);
        let recovered = recover("d", &config).unwrap();
        assert!((recovered.spent - 0.75).abs() < 1e-12);
        assert_eq!(recovered.queries, 2, "cache records are not charges");
        assert_eq!(recovered.wal_records, 3, "but they are physical records");
        assert_eq!(recovered.cache_records.len(), 1);
        assert_eq!(recovered.cache_records[0].fingerprint, 11);
    }

    #[test]
    fn compaction_drops_cache_records() {
        let dir = tmp_dir("cache_compaction");
        let config = StorageConfig::new(&dir)
            .fsync(FsyncPolicy::Always)
            .compaction_threshold(2);
        let (mut store, _) = LedgerStore::open("d", &config).unwrap();
        store.append_charge(0.5).unwrap();
        store.append_cache_record(&sample_cache_record(5)).unwrap();
        // 2 physical records reach the threshold; compaction folds the
        // debit into the snapshot and truncates the cache record away.
        store.maybe_compact(10.0, 0.5, 1, &BTreeMap::new()).unwrap();
        drop(store);
        let recovered = recover("d", &config).unwrap();
        assert!((recovered.spent - 0.5).abs() < 1e-12);
        assert_eq!(recovered.queries, 1);
        assert!(recovered.cache_records.is_empty(), "cache cold-starts");
    }

    #[test]
    fn principal_record_roundtrip() {
        let mut image = encode_principal_record("alice", 0.5);
        image.extend_from_slice(&encode_record(0.25));
        image.extend_from_slice(&encode_principal_record("svc@batch", 0.125));
        let scan = scan_wal(&image);
        // Principal debits are dataset debits too.
        assert_eq!(scan.debits, vec![0.5, 0.25, 0.125]);
        assert_eq!(
            scan.principal_debits,
            vec![("alice".to_string(), 0.5), ("svc@batch".to_string(), 0.125)]
        );
        assert!(!scan.truncated);
    }

    #[test]
    fn malformed_principal_record_stops_scan() {
        // CRC-valid payload whose name_len disagrees with the byte count.
        let good = encode_principal_record("alice", 0.5);
        let mut payload = good[FRAME_HEADER..].to_vec();
        payload[9] = payload[9].wrapping_add(1); // name_len += 1
        let mut image = encode_record(0.25);
        image.extend_from_slice(&frame(&payload));
        image.extend_from_slice(&encode_record(0.125));
        let scan = scan_wal(&image);
        assert_eq!(scan.debits, vec![0.25]);
        assert!(scan.principal_debits.is_empty());
        assert!(scan.truncated);

        // Empty names and non-UTF-8 names are likewise malformed.
        let empty = {
            let mut p = vec![TAG_PRINCIPAL];
            p.extend_from_slice(&0.5f64.to_le_bytes());
            p.extend_from_slice(&0u16.to_le_bytes());
            frame(&p)
        };
        assert!(scan_wal(&empty).truncated);
        let bad_utf8 = {
            let mut p = vec![TAG_PRINCIPAL];
            p.extend_from_slice(&0.5f64.to_le_bytes());
            p.extend_from_slice(&2u16.to_le_bytes());
            p.extend_from_slice(&[0xFF, 0xFE]);
            frame(&p)
        };
        assert!(scan_wal(&bad_utf8).truncated);
    }

    #[test]
    fn store_appends_principal_charges_and_recovers_books() {
        let dir = tmp_dir("principal_records");
        let config = StorageConfig::new(&dir).fsync(FsyncPolicy::Always);
        let (mut store, _) = LedgerStore::open("d", &config).unwrap();
        store.append_principal_charge("alice", 0.5).unwrap();
        store.append_charge(0.25).unwrap();
        store.append_principal_charge("alice", 0.125).unwrap();
        store.append_principal_charge("bob", 0.0625).unwrap();
        drop(store);
        let recovered = recover("d", &config).unwrap();
        assert!((recovered.spent - 0.9375).abs() < 1e-12);
        assert_eq!(recovered.queries, 4);
        let alice = recovered.principals.get("alice").unwrap();
        assert!((alice.spent - 0.625).abs() < 1e-12);
        assert_eq!(alice.queries, 2);
        assert_eq!(recovered.principals.get("bob").unwrap().queries, 1);
    }

    #[test]
    fn compaction_preserves_principal_books() {
        let dir = tmp_dir("principal_compaction");
        let config = StorageConfig::new(&dir)
            .fsync(FsyncPolicy::Always)
            .compaction_threshold(2);
        let (mut store, _) = LedgerStore::open("d", &config).unwrap();
        store.append_principal_charge("alice", 0.5).unwrap();
        store.append_principal_charge("bob", 0.25).unwrap();
        let mut books = BTreeMap::new();
        books.insert(
            "alice".to_string(),
            PrincipalBooks {
                spent: 0.5,
                queries: 1,
            },
        );
        books.insert(
            "bob".to_string(),
            PrincipalBooks {
                spent: 0.25,
                queries: 1,
            },
        );
        store.maybe_compact(10.0, 0.75, 2, &books).unwrap();
        // Post-compaction, more attributed spend lands in the WAL.
        store.append_principal_charge("alice", 0.125).unwrap();
        drop(store);
        let recovered = recover("d", &config).unwrap();
        assert!(recovered.had_snapshot);
        assert!((recovered.spent - 0.875).abs() < 1e-12);
        assert_eq!(recovered.queries, 3);
        let alice = recovered.principals.get("alice").unwrap();
        assert!((alice.spent - 0.625).abs() < 1e-12, "snapshot + WAL merge");
        assert_eq!(alice.queries, 2);
        assert!((recovered.principals.get("bob").unwrap().spent - 0.25).abs() < 1e-12);
    }

    #[test]
    fn every_n_fsync_batches() {
        let dir = tmp_dir("everyn");
        let config = StorageConfig::new(&dir).fsync(FsyncPolicy::EveryN(4));
        let (mut store, _) = LedgerStore::open("d", &config).unwrap();
        for _ in 0..10 {
            store.append_charge(0.1).unwrap();
        }
        assert_eq!(store.stats().fsyncs, 2);
        assert_eq!(store.stats().records_written, 10);
    }

    #[test]
    fn compaction_threshold_clamps_to_one() {
        let config = StorageConfig::new(std::env::temp_dir()).compaction_threshold(7);
        assert_eq!(config.compaction_threshold, 7);
        let config = StorageConfig::new(std::env::temp_dir()).compaction_threshold(0);
        assert_eq!(config.compaction_threshold, 1);
    }

    #[test]
    fn legacy_wal_migrates_to_segment_one() {
        let dir = tmp_dir("legacy_migration");
        let mut image = Vec::new();
        for eps in [0.5, 0.25] {
            image.extend_from_slice(&encode_record(eps));
        }
        std::fs::write(dir.join("d.wal"), &image).unwrap();
        let config = StorageConfig::new(&dir).fsync(FsyncPolicy::Always);

        // Pure-read recovery sees the legacy file as the sole segment.
        let peek = recover("d", &config).unwrap();
        assert_eq!(peek.segments, 1);
        assert!((peek.spent - 0.75).abs() < 1e-12);

        let (mut store, recovered) = LedgerStore::open("d", &config).unwrap();
        assert!((recovered.spent - 0.75).abs() < 1e-12);
        assert_eq!(recovered.queries, 2);
        assert!(!dir.join("d.wal").exists(), "legacy WAL renamed away");
        assert!(dir.join("d.000001.seg").exists());
        store.append_charge(0.125).unwrap();
        drop(store);
        let recovered = recover("d", &config).unwrap();
        assert!((recovered.spent - 0.875).abs() < 1e-12);
    }

    #[test]
    fn legacy_wal_beside_segments_is_refused() {
        let dir = tmp_dir("legacy_ambiguous");
        let config = StorageConfig::new(&dir).fsync(FsyncPolicy::Always);
        let (mut store, _) = LedgerStore::open("d", &config).unwrap();
        store.append_charge(0.5).unwrap();
        drop(store);
        std::fs::write(dir.join("d.wal"), encode_record(0.25)).unwrap();
        let err = recover("d", &config).unwrap_err();
        assert!(matches!(err, GuptError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("legacy"), "{err}");
        assert!(matches!(
            LedgerStore::open("d", &config),
            Err(GuptError::Corrupt { .. })
        ));
    }

    #[test]
    fn rotation_splits_the_log_and_recovery_replays_every_segment() {
        let dir = tmp_dir("rotation");
        // segment_bytes(1): every append crosses the threshold, so each
        // record lands in its own segment.
        let config = StorageConfig::new(&dir)
            .fsync(FsyncPolicy::Never)
            .segment_bytes(1);
        let (mut store, _) = LedgerStore::open("d", &config).unwrap();
        for eps in [0.5, 0.25, 0.125] {
            store.append_charge(eps).unwrap();
        }
        assert_eq!(store.stats().rotations, 3);
        assert_eq!(store.segment_count(), 4, "three sealed + one active");
        // Sealing fsyncs even under FsyncPolicy::Never.
        assert_eq!(store.stats().fsyncs, 3);
        drop(store);
        for index in 1..=4u64 {
            assert!(dir.join(format!("d.{index:06}.seg")).exists());
        }
        let recovered = recover("d", &config).unwrap();
        assert_eq!(recovered.segments, 4);
        assert!((recovered.spent - 0.875).abs() < 1e-12);
        assert_eq!(recovered.queries, 3);
        assert_eq!(recovered.truncated_bytes, 0);
        // read_wal concatenates the set back into one scannable image.
        let image = read_wal("d", &config).unwrap();
        assert_eq!(scan_wal(&image).debits, vec![0.5, 0.25, 0.125]);
    }

    #[test]
    fn torn_sealed_segment_drops_every_later_segment() {
        let dir = tmp_dir("torn_sealed");
        let config = StorageConfig::new(&dir)
            .fsync(FsyncPolicy::Always)
            .segment_bytes(1);
        let (mut store, _) = LedgerStore::open("d", &config).unwrap();
        for eps in [0.5, 0.25, 0.125] {
            store.append_charge(eps).unwrap();
        }
        drop(store);
        // Corrupt the *second* segment: recovery keeps segment 1, drops
        // the corrupt remainder of segment 2 and all of segment 3.
        let seg2 = dir.join("d.000002.seg");
        let mut bytes = std::fs::read(&seg2).unwrap();
        bytes[FRAME_HEADER + 3] ^= 0x01;
        std::fs::write(&seg2, &bytes).unwrap();
        let seg3_len = std::fs::metadata(dir.join("d.000003.seg")).unwrap().len();

        let recovered = recover("d", &config).unwrap();
        assert!((recovered.spent - 0.5).abs() < 1e-12, "only segment 1");
        assert_eq!(recovered.truncated_bytes, bytes.len() as u64 + seg3_len);

        // Opening heals: the torn segment truncates to its valid prefix
        // (empty here) and later segments are deleted.
        let (mut store, recovered) = LedgerStore::open("d", &config).unwrap();
        assert!((recovered.spent - 0.5).abs() < 1e-12);
        assert!(recovered.truncated_bytes > 0);
        assert_eq!(std::fs::metadata(&seg2).unwrap().len(), 0);
        assert!(!dir.join("d.000003.seg").exists());
        assert!(!dir.join("d.000004.seg").exists());
        // Appends continue in the healed tail segment, and a second
        // recovery is clean.
        store.append_charge(0.0625).unwrap();
        drop(store);
        let healed = recover("d", &config).unwrap();
        assert_eq!(healed.truncated_bytes, 0);
        assert!((healed.spent - 0.5625).abs() < 1e-12);
    }

    #[test]
    fn compaction_deletes_the_segment_set() {
        let dir = tmp_dir("segment_compaction");
        let config = StorageConfig::new(&dir)
            .fsync(FsyncPolicy::Always)
            .segment_bytes(1)
            .compaction_threshold(3);
        let (mut store, _) = LedgerStore::open("d", &config).unwrap();
        for eps in [0.5, 0.25] {
            store.append_charge(eps).unwrap();
        }
        store.append_charge(0.125).unwrap();
        store
            .maybe_compact(10.0, 0.875, 3, &BTreeMap::new())
            .unwrap();
        assert_eq!(store.stats().compactions, 1);
        assert_eq!(store.segment_count(), 1, "fresh active segment only");
        // Post-compaction spend keeps accruing in the fresh segment.
        store.append_charge(0.0625).unwrap();
        drop(store);
        let survivors = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.unwrap().file_name().into_string().ok())
            .filter(|n| n.ends_with(".seg"))
            .collect::<Vec<_>>();
        assert_eq!(
            survivors.len(),
            2,
            "active + its rotation successor: {survivors:?}"
        );
        let recovered = recover("d", &config).unwrap();
        assert!(recovered.had_snapshot);
        assert!((recovered.spent - 0.9375).abs() < 1e-12);
        assert_eq!(recovered.queries, 4);
    }

    #[test]
    fn crash_between_snapshot_and_segment_delete_over_reports() {
        let dir = tmp_dir("compaction_crash_window");
        let config = StorageConfig::new(&dir).fsync(FsyncPolicy::Always);
        let (mut store, _) = LedgerStore::open("d", &config).unwrap();
        store.append_charge(0.5).unwrap();
        store.append_charge(0.25).unwrap();
        // Simulate the crash window by hand: snapshot written, segment
        // set still on disk.
        store
            .write_snapshot(&Snapshot {
                total: 10.0,
                spent: 0.75,
                queries: 2,
                principals: BTreeMap::new(),
            })
            .unwrap();
        drop(store);
        let recovered = recover("d", &config).unwrap();
        // Double-counted: snapshot spend plus the still-present records.
        assert!((recovered.spent - 1.5).abs() < 1e-12);
        assert!(recovered.spent >= 0.75, "never under-reports");
    }

    #[test]
    fn segments_of_dotted_dataset_names_never_collide() {
        let dir = tmp_dir("dotted_names");
        let config = StorageConfig::new(&dir).fsync(FsyncPolicy::Always);
        // Dataset "a.000002" writes files that look segment-ish for "a".
        let (mut inner, _) = LedgerStore::open("a.000002", &config).unwrap();
        inner.append_charge(1.0).unwrap();
        drop(inner);
        let (mut outer, _) = LedgerStore::open("a", &config).unwrap();
        outer.append_charge(0.5).unwrap();
        drop(outer);
        let a = recover("a", &config).unwrap();
        assert_eq!(a.segments, 1);
        assert!(
            (a.spent - 0.5).abs() < 1e-12,
            "a must not see a.000002's log"
        );
        let dotted = recover("a.000002", &config).unwrap();
        assert!((dotted.spent - 1.0).abs() < 1e-12);
    }

    #[test]
    fn second_writer_is_refused_until_the_first_store_drops() {
        let dir = tmp_dir("writer_lock");
        let config = StorageConfig::new(&dir).fsync(FsyncPolicy::Always);
        let (mut first, _) = LedgerStore::open("d", &config).unwrap();
        first.append_charge(0.5).unwrap();
        first.append_principal_charge("alice", 0.25).unwrap();
        match LedgerStore::open("d", &config) {
            Err(GuptError::Storage { source, path }) => {
                assert_eq!(source.kind(), io::ErrorKind::WouldBlock);
                assert_eq!(path, dir.join("d.lock"));
            }
            other => panic!("a second writer must be refused, got {other:?}"),
        }
        // The lock covers one dataset stem, and readers never take it.
        drop(LedgerStore::open("e", &config).unwrap());
        let seen = recover("d", &config).unwrap();
        drop(first);
        let (_, reopened) = LedgerStore::open("d", &config).unwrap();
        assert_eq!(reopened.spent, 0.75);
        assert_eq!(reopened.queries, 2);
        assert_eq!(reopened.principals, seen.principals);
        assert_eq!((seen.spent, seen.queries), (0.75, 2));
    }
}
