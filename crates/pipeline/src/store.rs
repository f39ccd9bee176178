//! Tiered, persistent, content-addressed artifact store.
//!
//! Two tiers hold the artifacts:
//!
//! - `MemoryTier` — a two-level map (outer key → per-key build cell,
//!   inner cell lock serializing construction): racing workers on one
//!   key build exactly once.
//! - [`DiskTier`] — a content-addressed directory of files named by
//!   [`CacheKey`] (`<032x-key>.rap`), each carrying a versioned header
//!   and an FNV-1a/128 payload checksum ([`DiskStore`] is the raw
//!   bytes-level store underneath).
//!
//! [`TieredStore`] chains them: memory hit → disk hit → build, with
//! write-through on build and memory backfill on a disk hit.
//!
//! # Trust model
//!
//! A disk artifact is *never* trusted. [`Persist::from_payload`] for
//! verified plans decodes into the unverified [`crate::MappedPlan`] shape via
//! `MappedPlan::from_parts` and re-earns `VerifiedPlan` status through
//! the full V-rule verifier, so a corrupted, stale, or tampered payload
//! is rejected (and counted in [`TierStats::corrupt`]) — decoding and
//! verification failures are misses that trigger a rebuild, never
//! panics and never bad plans entering the simulator.
//!
//! # On-disk format
//!
//! ```text
//! offset  size  field
//!      0     8  magic  "RAPSTORE"
//!      8     4  store format version (u32 LE)          — mismatch ⇒ miss
//!     12    16  cache key (u128 LE)                     — must match name
//!     28     8  payload length in bytes (u64 LE)
//!     36    16  FNV-1a/128 checksum of payload (LE)     — mismatch ⇒ corrupt
//!     52     …  payload (serde::bin encoding)
//! ```
//!
//! Writes are atomic (unique temp file + rename). Eviction is
//! size-budgeted LRU over file mtimes: every hit touches the file's
//! mtime, and [`DiskStore::evict_to`] removes oldest-first until the
//! directory fits the budget.

use crate::cache::{CacheKey, CacheStats, StableHasher};
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

/// Bump when the header layout or any serialized artifact's encoding
/// changes shape; old files then read as stale misses and get rebuilt.
pub const STORE_FORMAT_VERSION: u32 = 2;

/// File magic: identifies RAP store entries regardless of version.
const MAGIC: &[u8; 8] = b"RAPSTORE";

/// Header size in bytes (magic + version + key + payload len + checksum).
const HEADER_LEN: usize = 8 + 4 + 16 + 8 + 16;

/// Extension of store entries.
const ENTRY_EXT: &str = "rap";

/// Sidecar file carrying cumulative counters across processes.
const COUNTERS_FILE: &str = "counters.v1";

/// Running counters for one tier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Lookups answered by this tier.
    pub hits: u64,
    /// Lookups this tier could not answer.
    pub misses: u64,
    /// Artifacts written into this tier.
    pub writes: u64,
    /// Loads rejected as corrupt (bad magic, checksum, decode, or
    /// re-verification failure).
    pub corrupt: u64,
    /// Loads skipped because the entry's store-format version differs.
    pub stale: u64,
    /// Entries removed by the LRU eviction pass.
    pub evictions: u64,
}

impl TierStats {
    /// Fraction of lookups answered by this tier (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Field-wise saturating sum (used to merge persisted and session
    /// counters).
    #[must_use]
    pub fn merged(&self, other: &TierStats) -> TierStats {
        TierStats {
            hits: self.hits.saturating_add(other.hits),
            misses: self.misses.saturating_add(other.misses),
            writes: self.writes.saturating_add(other.writes),
            corrupt: self.corrupt.saturating_add(other.corrupt),
            stale: self.stale.saturating_add(other.stale),
            evictions: self.evictions.saturating_add(other.evictions),
        }
    }
}

/// Lock-free counter cells behind [`TierStats`].
#[derive(Debug, Default)]
struct TierCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    corrupt: AtomicU64,
    stale: AtomicU64,
    evictions: AtomicU64,
}

impl TierCounters {
    fn snapshot(&self) -> TierStats {
        TierStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// Outcome of probing the disk tier.
#[derive(Debug)]
pub enum TierLoad<T> {
    /// The tier held a usable artifact.
    Hit(Arc<T>),
    /// The tier does not hold this key.
    Miss,
    /// The tier held bytes for this key but they failed integrity,
    /// decoding, or re-verification — treated as a miss by callers, with
    /// the bad entry already discarded and counted.
    Corrupt,
}

// ---------------------------------------------------------------------------
// Memory tier
// ---------------------------------------------------------------------------

/// The in-memory tier: a two-level content-addressed map.
///
/// An outer lock resolves the key to a per-key build cell, and the
/// cell's own lock serializes construction, so two workers racing on the
/// *same* key build the artifact exactly once while workers on
/// *different* keys build concurrently.
#[derive(Debug, Default)]
pub(crate) struct MemoryTier<T> {
    cells: Mutex<HashMap<CacheKey, Arc<BuildCell<T>>>>,
    counters: TierCounters,
}

#[derive(Debug)]
pub(crate) struct BuildCell<T> {
    pub(crate) slot: Mutex<Option<Arc<T>>>,
}

impl<T> MemoryTier<T> {
    /// An empty tier.
    pub fn new() -> MemoryTier<T> {
        MemoryTier {
            cells: Mutex::new(HashMap::new()),
            counters: TierCounters::default(),
        }
    }

    /// The per-key build cell, created on first use. Holding the cell's
    /// slot lock across probe-lower-tiers-then-build is what gives the
    /// tiered store its build-once guarantee.
    pub(crate) fn cell(&self, key: CacheKey) -> Arc<BuildCell<T>> {
        let mut cells = self.cells.lock().expect("store lock poisoned");
        Arc::clone(cells.entry(key).or_insert_with(|| {
            Arc::new(BuildCell {
                slot: Mutex::new(None),
            })
        }))
    }

    pub(crate) fn record_hit(&self) {
        self.counters.hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_miss(&self) {
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_write(&self) {
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of distinct keys holding a built artifact.
    pub fn len(&self) -> usize {
        self.cells
            .lock()
            .expect("store lock poisoned")
            .values()
            .filter(|c| c.slot.lock().expect("cell lock poisoned").is_some())
            .count()
    }

    /// Whether no artifact has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Running counters.
    pub fn stats(&self) -> TierStats {
        self.counters.snapshot()
    }
}

// ---------------------------------------------------------------------------
// Disk store (bytes level)
// ---------------------------------------------------------------------------

/// Where the disk tier lives and how big it may grow.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Directory holding the entries (created on open).
    pub dir: PathBuf,
    /// Size budget in bytes; exceeding it triggers LRU eviction after
    /// each write. `None` = unbounded.
    pub max_bytes: Option<u64>,
}

impl StoreConfig {
    /// A store rooted at `dir` with no size budget.
    pub fn at(dir: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            dir: dir.into(),
            max_bytes: None,
        }
    }

    /// Sets the size budget.
    #[must_use]
    pub fn with_max_bytes(mut self, max_bytes: u64) -> StoreConfig {
        self.max_bytes = Some(max_bytes);
        self
    }

    /// The user-level default store directory:
    /// `$XDG_CACHE_HOME/rap/store` or `$HOME/.cache/rap/store`.
    pub fn default_dir() -> Option<PathBuf> {
        if let Some(cache) = std::env::var_os("XDG_CACHE_HOME").filter(|s| !s.is_empty()) {
            return Some(PathBuf::from(cache).join("rap").join("store"));
        }
        std::env::var_os("HOME")
            .filter(|s| !s.is_empty())
            .map(|home| PathBuf::from(home).join(".cache").join("rap").join("store"))
    }
}

/// One entry as seen by `rap cache stats` / the GC pass.
#[derive(Clone, Debug)]
pub struct StoreEntry {
    /// The content address (parsed back from the filename).
    pub key: CacheKey,
    /// File size in bytes (header + payload).
    pub bytes: u64,
    /// Last access (mtime; refreshed on every hit, so LRU order).
    pub modified: SystemTime,
}

/// The raw on-disk content-addressed byte store underneath [`DiskTier`].
///
/// Deals purely in `(CacheKey, payload bytes)` pairs: framing, integrity
/// (checksum), versioning, atomic writes, LRU bookkeeping, and eviction.
/// Decoding payloads into artifacts is the [`Persist`] layer's job.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    max_bytes: Option<u64>,
    counters: TierCounters,
    /// Counters accumulated by *earlier* processes, read from the sidecar
    /// at open; this process's session counters are merged back into the
    /// sidecar on drop (see [`DiskStore::cumulative_stats`]).
    persisted: Mutex<TierStats>,
}

impl DiskStore {
    /// Opens (creating if needed) the store directory.
    ///
    /// # Errors
    ///
    /// Returns the `create_dir_all` error if the directory cannot be
    /// created.
    pub fn open(config: StoreConfig) -> io::Result<DiskStore> {
        fs::create_dir_all(&config.dir)?;
        let persisted = read_counters(&config.dir.join(COUNTERS_FILE));
        Ok(DiskStore {
            dir: config.dir,
            max_bytes: config.max_bytes,
            counters: TierCounters::default(),
            persisted: Mutex::new(persisted),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The size budget, if any.
    pub fn max_bytes(&self) -> Option<u64> {
        self.max_bytes
    }

    /// The file path an entry for `key` lives at.
    pub fn path_for(&self, key: CacheKey) -> PathBuf {
        self.dir.join(format!("{key}.{ENTRY_EXT}"))
    }

    /// Loads and integrity-checks the payload for `key`.
    ///
    /// Returns `None` on any non-hit: absent entry (miss), mismatched
    /// store-format version (stale ⇒ miss, the entry is left for a
    /// binary of that version or the GC), or failed magic / key /
    /// length / checksum validation (corrupt ⇒ the entry is deleted so
    /// the rebuild can replace it). Never panics on malformed bytes.
    pub fn load(&self, key: CacheKey) -> Option<Vec<u8>> {
        let path = self.path_for(key);
        let Ok(mut bytes) = fs::read(&path) else {
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        match parse_entry(&bytes, key) {
            EntryCheck::Ok(payload_start) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                touch(&path);
                bytes.drain(..payload_start);
                Some(bytes)
            }
            EntryCheck::Stale => {
                self.counters.stale.fetch_add(1, Ordering::Relaxed);
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            EntryCheck::Corrupt => {
                self.discard_corrupt(key);
                None
            }
        }
    }

    /// Counts a corrupt entry and deletes its file (used both for framing
    /// failures here and decode/verify failures one layer up).
    pub fn discard_corrupt(&self, key: CacheKey) {
        self.counters.corrupt.fetch_add(1, Ordering::Relaxed);
        let _ = fs::remove_file(self.path_for(key));
    }

    /// Atomically writes the entry for `key`, then enforces the size
    /// budget. Write errors are swallowed (the store is a cache; the
    /// artifact lives on in memory).
    pub fn store(&self, key: CacheKey, payload: &[u8]) {
        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&STORE_FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&key.0.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&checksum(payload).to_le_bytes());
        bytes.extend_from_slice(payload);

        let path = self.path_for(key);
        let tmp = self.dir.join(format!(
            "{key}.{:x}.{:x}.tmp",
            std::process::id(),
            self.counters.writes.load(Ordering::Relaxed),
        ));
        let written = fs::write(&tmp, &bytes).is_ok() && fs::rename(&tmp, &path).is_ok();
        if written {
            self.counters.writes.fetch_add(1, Ordering::Relaxed);
            if let Some(max) = self.max_bytes {
                self.evict_to(max);
            }
        } else {
            let _ = fs::remove_file(&tmp);
        }
    }

    /// Every entry currently on disk, unordered.
    pub fn entries(&self) -> Vec<StoreEntry> {
        let Ok(dir) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for entry in dir.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(ENTRY_EXT) {
                continue;
            }
            let Some(key) = path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(|s| s.parse::<CacheKey>().ok())
            else {
                continue;
            };
            let Ok(meta) = entry.metadata() else { continue };
            out.push(StoreEntry {
                key,
                bytes: meta.len(),
                modified: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
            });
        }
        out
    }

    /// Total bytes across entries.
    pub fn total_bytes(&self) -> u64 {
        self.entries().iter().map(|e| e.bytes).sum()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries().is_empty()
    }

    /// LRU eviction: removes least-recently-used entries (oldest mtime
    /// first) until the directory fits `max_bytes`. Returns the number
    /// of entries removed.
    pub fn evict_to(&self, max_bytes: u64) -> u64 {
        let mut entries = self.entries();
        let mut total: u64 = entries.iter().map(|e| e.bytes).sum();
        if total <= max_bytes {
            return 0;
        }
        entries.sort_by_key(|e| e.modified);
        let mut evicted = 0;
        for entry in entries {
            if total <= max_bytes {
                break;
            }
            if fs::remove_file(self.path_for(entry.key)).is_ok() {
                total = total.saturating_sub(entry.bytes);
                evicted += 1;
            }
        }
        self.counters
            .evictions
            .fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// Removes every entry and the cumulative-counters sidecar. Returns
    /// the number of entries removed.
    pub fn clear(&self) -> u64 {
        let mut removed = 0;
        for entry in self.entries() {
            if fs::remove_file(self.path_for(entry.key)).is_ok() {
                removed += 1;
            }
        }
        let _ = fs::remove_file(self.dir.join(COUNTERS_FILE));
        *self.persisted.lock().expect("counters lock poisoned") = TierStats::default();
        removed
    }

    /// Running counters for this process's use of the store.
    pub fn stats(&self) -> TierStats {
        self.counters.snapshot()
    }

    /// Lifetime counters for the store directory: everything earlier
    /// processes flushed into the sidecar plus this process's session.
    /// Best-effort under concurrency (the sidecar is last-writer-wins, so
    /// overlapping processes may undercount) — good enough for the hit
    /// rates `rap cache stats` reports, and never affects correctness.
    pub fn cumulative_stats(&self) -> TierStats {
        self.persisted
            .lock()
            .expect("counters lock poisoned")
            .merged(&self.counters.snapshot())
    }

    /// Flushes the cumulative counters to the sidecar (also runs on
    /// drop). Write failures are swallowed — counters are advisory.
    pub fn flush_counters(&self) {
        write_counters(&self.dir.join(COUNTERS_FILE), self.cumulative_stats());
    }
}

impl Drop for DiskStore {
    fn drop(&mut self) {
        self.flush_counters();
    }
}

/// Reads the cumulative-counters sidecar; any malformed or missing file
/// reads as zeroes (the counters are advisory, never load-bearing).
fn read_counters(path: &Path) -> TierStats {
    let Ok(text) = fs::read_to_string(path) else {
        return TierStats::default();
    };
    let mut fields = text.split_ascii_whitespace();
    if fields.next() != Some("v1") {
        return TierStats::default();
    }
    let mut next = || fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    TierStats {
        hits: next(),
        misses: next(),
        writes: next(),
        corrupt: next(),
        stale: next(),
        evictions: next(),
    }
}

/// Atomically writes the cumulative-counters sidecar (absolute totals,
/// not increments, so repeated flushes are idempotent).
fn write_counters(path: &Path, stats: TierStats) {
    let text = format!(
        "v1 {} {} {} {} {} {}\n",
        stats.hits, stats.misses, stats.writes, stats.corrupt, stats.stale, stats.evictions
    );
    let tmp = path.with_extension(format!("v1.{:x}.tmp", std::process::id()));
    if fs::write(&tmp, text).is_ok() && fs::rename(&tmp, path).is_err() {
        let _ = fs::remove_file(&tmp);
    }
}

/// FNV-1a/128 checksum of a payload (same function as the cache keys, so
/// the store has exactly one hash in play).
fn checksum(payload: &[u8]) -> u128 {
    let mut h = StableHasher::new();
    h.write(payload);
    h.finish().0
}

enum EntryCheck {
    /// Valid; payload starts at the contained offset.
    Ok(usize),
    /// Well-formed but written by a different store-format version.
    Stale,
    /// Malformed: bad magic, wrong key, bad length, or checksum failure.
    Corrupt,
}

/// Validates an entry's framing without panicking on any input.
fn parse_entry(bytes: &[u8], key: CacheKey) -> EntryCheck {
    if bytes.len() < HEADER_LEN || &bytes[..8] != MAGIC {
        return EntryCheck::Corrupt;
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != STORE_FORMAT_VERSION {
        return EntryCheck::Stale;
    }
    let stored_key = u128::from_le_bytes(bytes[12..28].try_into().expect("16 bytes"));
    if stored_key != key.0 {
        return EntryCheck::Corrupt;
    }
    let payload_len = u64::from_le_bytes(bytes[28..36].try_into().expect("8 bytes"));
    let payload = &bytes[HEADER_LEN..];
    if payload_len != payload.len() as u64 {
        return EntryCheck::Corrupt;
    }
    let stored_sum = u128::from_le_bytes(bytes[36..52].try_into().expect("16 bytes"));
    if stored_sum != checksum(payload) {
        return EntryCheck::Corrupt;
    }
    EntryCheck::Ok(HEADER_LEN)
}

/// Refreshes a file's mtime so LRU eviction sees the access.
fn touch(path: &Path) {
    if let Ok(file) = fs::File::options().append(true).open(path) {
        let _ = file.set_modified(SystemTime::now());
    }
}

// ---------------------------------------------------------------------------
// Persist + disk tier (artifact level)
// ---------------------------------------------------------------------------

/// Failure to reconstitute an artifact from stored bytes.
#[derive(Debug)]
pub enum PersistError {
    /// The payload bytes did not decode.
    Decode(serde::bin::DecodeError),
    /// The decoded artifact was rejected on re-validation (e.g. the
    /// V-rule verifier refused the plan).
    Rejected(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Decode(e) => write!(f, "payload decode failed: {e}"),
            PersistError::Rejected(why) => write!(f, "artifact rejected on load: {why}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<serde::bin::DecodeError> for PersistError {
    fn from(e: serde::bin::DecodeError) -> PersistError {
        PersistError::Decode(e)
    }
}

/// An artifact that can live in the disk tier.
///
/// `from_payload` must treat the bytes as untrusted: decode defensively
/// and re-validate before returning (for verified plans that means the
/// full `MappedPlan::from_parts` → `verify()` path).
pub trait Persist: Sized {
    /// Encodes the artifact's durable state.
    fn to_payload(&self) -> Vec<u8>;

    /// Reconstitutes and re-validates an artifact from stored bytes.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] when the bytes do not decode or the
    /// decoded artifact fails re-validation.
    fn from_payload(payload: &[u8]) -> Result<Self, PersistError>;
}

/// The on-disk tier: a [`DiskStore`] plus [`Persist`]-based
/// encode/decode. Decode or re-verification failures count as `corrupt`
/// and discard the entry, surfacing as [`TierLoad::Corrupt`].
#[derive(Debug)]
pub struct DiskTier<T> {
    store: DiskStore,
    _artifact: PhantomData<fn() -> T>,
}

impl<T> DiskTier<T> {
    /// Opens the tier's backing directory.
    ///
    /// # Errors
    ///
    /// Propagates [`DiskStore::open`] failures.
    pub fn open(config: StoreConfig) -> io::Result<DiskTier<T>> {
        Ok(DiskTier {
            store: DiskStore::open(config)?,
            _artifact: PhantomData,
        })
    }

    /// The raw byte store underneath.
    pub fn disk(&self) -> &DiskStore {
        &self.store
    }

    /// Running counters.
    pub fn stats(&self) -> TierStats {
        self.store.stats()
    }
}

impl<T: Persist> DiskTier<T> {
    /// Probes the tier for `key`, decoding and re-validating the payload.
    pub fn load(&self, key: CacheKey) -> TierLoad<T> {
        match self.store.load(key) {
            None => TierLoad::Miss,
            Some(payload) => match T::from_payload(&payload) {
                Ok(artifact) => TierLoad::Hit(Arc::new(artifact)),
                Err(_) => {
                    // Framing was intact but the artifact itself is bad
                    // (decode error or re-verification rejected it).
                    self.store.discard_corrupt(key);
                    TierLoad::Corrupt
                }
            },
        }
    }

    /// Writes an artifact into the tier (best-effort; the size budget may
    /// evict it).
    pub fn store(&self, key: CacheKey, artifact: &Arc<T>) {
        self.store.store(key, &artifact.to_payload());
    }
}

// ---------------------------------------------------------------------------
// Tiered store
// ---------------------------------------------------------------------------

/// The tiered artifact store: memory in front, optional disk behind.
///
/// Lookup order on [`TieredStore::get_or_build`]: memory → disk →
/// build. Disk hits are backfilled into memory; builds are written
/// through to disk.
#[derive(Debug)]
pub struct TieredStore<T> {
    memory: MemoryTier<T>,
    disk: Option<DiskTier<T>>,
}

impl<T> Default for TieredStore<T> {
    fn default() -> TieredStore<T> {
        TieredStore::new()
    }
}

impl<T> TieredStore<T> {
    /// A memory-only store.
    pub fn new() -> TieredStore<T> {
        TieredStore {
            memory: MemoryTier::new(),
            disk: None,
        }
    }

    /// Attaches a disk tier probed on memory misses.
    #[must_use]
    pub fn with_disk(mut self, tier: DiskTier<T>) -> TieredStore<T> {
        self.disk = Some(tier);
        self
    }

    /// Memory-tier counters in the legacy hit/miss shape (a miss means
    /// "not answered from memory" — it may still have been answered from
    /// disk rather than compiled; see [`TieredStore::disk_stats`]).
    pub fn stats(&self) -> CacheStats {
        let memory = self.memory.stats();
        CacheStats {
            hits: memory.hits,
            misses: memory.misses,
        }
    }

    /// Disk-tier counters, when a disk tier is attached.
    pub fn disk_stats(&self) -> Option<TierStats> {
        self.disk.as_ref().map(DiskTier::stats)
    }

    /// Number of distinct keys built or loaded into memory.
    pub fn len(&self) -> usize {
        self.memory.len()
    }

    /// Whether nothing has been cached in memory yet.
    pub fn is_empty(&self) -> bool {
        self.memory.is_empty()
    }
}

impl<T: Persist> TieredStore<T> {
    /// Returns the artifact for `key`: from memory, else from disk, else
    /// by running `build` (written through to disk).
    ///
    /// Concurrent callers with the same key resolve once — the losers
    /// wait on the per-key cell and receive the winner's artifact,
    /// counted as memory hits. Failed builds are not cached, so a later
    /// retry runs `build` again.
    ///
    /// # Errors
    ///
    /// Propagates the error returned by `build`.
    pub fn get_or_build<E>(
        &self,
        key: CacheKey,
        build: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E> {
        let cell = self.memory.cell(key);
        let mut slot = cell.slot.lock().expect("store cell lock poisoned");
        if let Some(artifact) = slot.as_ref() {
            self.memory.record_hit();
            return Ok(Arc::clone(artifact));
        }
        self.memory.record_miss();

        if let Some(disk) = &self.disk {
            if let TierLoad::Hit(artifact) = disk.load(key) {
                *slot = Some(Arc::clone(&artifact));
                self.memory.record_write();
                return Ok(artifact);
            }
        }

        let artifact = Arc::new(build()?);
        *slot = Some(Arc::clone(&artifact));
        self.memory.record_write();
        if let Some(disk) = &self.disk {
            disk.store(key, &artifact);
        }
        Ok(artifact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rap-store-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    impl Persist for u32 {
        fn to_payload(&self) -> Vec<u8> {
            serde::bin::to_bytes(self)
        }

        fn from_payload(payload: &[u8]) -> Result<u32, PersistError> {
            Ok(serde::bin::from_bytes(payload)?)
        }
    }

    #[test]
    fn memory_store_builds_once_per_key() {
        let store: TieredStore<u32> = TieredStore::new();
        let key = CacheKey(7);
        let a = store.get_or_build(key, || Ok::<_, ()>(41)).expect("builds");
        let b = store
            .get_or_build(key, || -> Result<u32, ()> { panic!("must not rebuild") })
            .expect("cached");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn failed_builds_are_retried() {
        let store: TieredStore<u32> = TieredStore::new();
        let key = CacheKey(9);
        assert!(store.get_or_build(key, || Err::<u32, _>("boom")).is_err());
        let v = store.get_or_build(key, || Ok::<_, ()>(5)).expect("builds");
        assert_eq!(*v, 5);
        assert_eq!(store.stats(), CacheStats { hits: 0, misses: 2 });
    }

    #[test]
    fn disk_round_trip_and_backfill() {
        let dir = temp_dir("roundtrip");
        let key = CacheKey(0xabcdef);
        {
            let store =
                TieredStore::new().with_disk(DiskTier::<u32>::open(StoreConfig::at(&dir)).unwrap());
            let v = store
                .get_or_build(key, || Ok::<_, ()>(1234))
                .expect("builds");
            assert_eq!(*v, 1234);
            let disk = store.disk_stats().unwrap();
            assert_eq!((disk.hits, disk.misses, disk.writes), (0, 1, 1));
        }
        // A fresh process-alike store must answer from disk, not build.
        let store =
            TieredStore::new().with_disk(DiskTier::<u32>::open(StoreConfig::at(&dir)).unwrap());
        let v = store
            .get_or_build(key, || -> Result<u32, ()> {
                panic!("warm start must not rebuild")
            })
            .expect("loads");
        assert_eq!(*v, 1234);
        let disk = store.disk_stats().unwrap();
        assert_eq!((disk.hits, disk.misses), (1, 0));
        // Backfilled: second lookup is a memory hit, disk untouched.
        store.get_or_build(key, || Ok::<_, ()>(0)).expect("memory");
        assert_eq!(store.disk_stats().unwrap().hits, 1);
        assert_eq!(store.stats().hits, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_byte_is_corrupt_not_a_panic() {
        let dir = temp_dir("corrupt");
        let store = DiskStore::open(StoreConfig::at(&dir)).unwrap();
        let key = CacheKey(42);
        store.store(key, b"payload-bytes");
        assert!(store.load(key).is_some());

        // Flip one payload byte on disk: checksum must reject the load.
        let path = store.path_for(key);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(store.load(key).is_none());
        assert_eq!(store.stats().corrupt, 1);
        // The corrupt entry was discarded so a rebuild can replace it.
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_is_a_miss_not_an_error() {
        let dir = temp_dir("version");
        let store = DiskStore::open(StoreConfig::at(&dir)).unwrap();
        let key = CacheKey(43);
        store.store(key, b"old-format");
        // Bump the version field in the header.
        let path = store.path_for(key);
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&(STORE_FORMAT_VERSION + 1).to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(store.load(key).is_none());
        let stats = store.stats();
        assert_eq!(stats.stale, 1);
        assert_eq!(stats.corrupt, 0);
        // Stale entries are left in place (a binary of that version owns
        // them); only GC reclaims the space.
        assert!(path.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_key_and_truncation_are_corrupt() {
        let dir = temp_dir("framing");
        let store = DiskStore::open(StoreConfig::at(&dir)).unwrap();
        store.store(CacheKey(1), b"abc");
        // Copy entry 1's bytes under entry 2's name: key check must fire.
        let bytes = fs::read(store.path_for(CacheKey(1))).unwrap();
        fs::write(store.path_for(CacheKey(2)), &bytes).unwrap();
        assert!(store.load(CacheKey(2)).is_none());
        // Truncate below the header: corrupt, not a panic.
        fs::write(store.path_for(CacheKey(3)), b"RAPST").unwrap();
        assert!(store.load(CacheKey(3)).is_none());
        assert_eq!(store.stats().corrupt, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_eviction_removes_oldest_first() {
        let dir = temp_dir("lru");
        let store = DiskStore::open(StoreConfig::at(&dir)).unwrap();
        let payload = vec![0u8; 100];
        for i in 0..4u128 {
            store.store(CacheKey(i), &payload);
            // mtime granularity: space the writes out.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        // Touch entry 0 (a hit) so it becomes most-recently-used.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(store.load(CacheKey(0)).is_some());

        let entry_bytes = (HEADER_LEN + payload.len()) as u64;
        let evicted = store.evict_to(2 * entry_bytes);
        assert_eq!(evicted, 2);
        // The LRU entries (1, 2) went; 0 survived its touch, 3 is newest.
        assert!(store.load(CacheKey(0)).is_some());
        assert!(store.load(CacheKey(3)).is_some());
        assert!(store.load(CacheKey(1)).is_none());
        assert!(store.load(CacheKey(2)).is_none());
        assert_eq!(store.stats().evictions, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cumulative_counters_survive_reopen() {
        let dir = temp_dir("counters");
        {
            let store = DiskStore::open(StoreConfig::at(&dir)).unwrap();
            store.store(CacheKey(1), b"a");
            assert!(store.load(CacheKey(1)).is_some());
            assert!(store.load(CacheKey(2)).is_none());
            // Drop flushes the sidecar.
        }
        let store = DiskStore::open(StoreConfig::at(&dir)).unwrap();
        assert!(store.load(CacheKey(1)).is_some());
        let total = store.cumulative_stats();
        assert_eq!((total.hits, total.misses, total.writes), (2, 1, 1));
        // Session counters only know this process.
        assert_eq!(store.stats().hits, 1);
        // clear() also resets the lifetime counters.
        store.clear();
        assert_eq!(store.cumulative_stats().hits, store.stats().hits);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_empties_the_store() {
        let dir = temp_dir("clear");
        let store = DiskStore::open(StoreConfig::at(&dir)).unwrap();
        store.store(CacheKey(1), b"a");
        store.store(CacheKey(2), b"b");
        assert_eq!(store.len(), 2);
        assert!(store.total_bytes() > 0);
        assert_eq!(store.clear(), 2);
        assert!(store.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
