//! The on-disk analysis store: one file per [`CacheKey`], with a
//! versioned header, sectioned payload, and trailing checksum.
//!
//! # Entry layout
//!
//! ```text
//! "FRAC"                      magic
//! u16  schema version         (SCHEMA_VERSION)
//! u128 image hash       ┐
//! u32  pipeline version │     key echo — must match the lookup key
//! u64  config hash      │
//! u64  classifier hash  ┘
//! u32+bytes  handlers section        (Vec<HandlerInfo>)
//! u32+bytes  taint-summary section   (Vec<TaintSummary>)
//! u32+bytes  analysis section        (FirmwareAnalysis)
//! u64  FNV-64 of everything above
//! ```
//!
//! Entries are written to a temp file in the store directory and
//! renamed into place, so a crash mid-write or a concurrent reader in a
//! shared cache directory never observes a torn entry.
//!
//! Each section is byte-length-prefixed, so [`AnalysisCache::load_handlers`]
//! and [`AnalysisCache::load_taint_summaries`] can return a stage's
//! intermediate artifact without decoding the full analysis.
//!
//! Every failure mode — missing file, foreign magic, schema or key
//! mismatch, truncation, checksum or decode failure — is a typed
//! [`CacheError`]. Only [`CacheError::Miss`] is silent; callers treat
//! everything else as *diagnosed* misses (the incremental driver logs a
//! [`StageKind::Cache`] diagnostic and re-analyzes).
//!
//! [`StageKind::Cache`]: firmres::StageKind

use crate::codec::{
    get_analysis, get_handler, get_taint_summary, put_analysis, put_handler, put_taint_summary,
    DecodeError, Reader,
};
use crate::key::CacheKey;
use crate::policy::{self, Evictor, GcOutcome, ShardOccupancy, StorePolicy};
use bytes::BufMut;
use firmres::{Counter, FirmwareAnalysis, HandlerInfo};
use firmres_dataflow::TaintSummary;
use firmres_firmware::content_hash_packed;
use firmres_mft::MftNodeKind;
use firmres_semantics::{ClassCache, ClassCacheStats};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Version of the entry layout itself (header + sectioning), as opposed
/// to [`PIPELINE_VERSION`] which covers what the sections *contain*.
///
/// # History
///
/// * v3 — the store gained unit-granular sibling artifacts (`.fru` bank
///   and `.frv` verdict files, see [`crate::unit`]). The `.frac` image
///   entry layout itself is unchanged, so v2 entries remain fully
///   servable: [`read_verified`] accepts both versions. New writes are
///   stamped v3.
/// * v2 — sectioned payload with per-stage artifacts.
///
/// [`PIPELINE_VERSION`]: crate::PIPELINE_VERSION
/// [`read_verified`]: AnalysisCache::load
pub const SCHEMA_VERSION: u16 = 3;

/// The oldest schema version whose `.frac` entries this build can still
/// decode. v2 and v3 share the entry layout byte for byte.
pub const MIN_READ_SCHEMA_VERSION: u16 = 2;

const MAGIC: &[u8; 4] = b"FRAC";

/// Why a cache lookup did not produce a usable entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// No entry for this key — the ordinary cold-cache case.
    Miss,
    /// The entry exists but could not be read.
    Io(String),
    /// The file does not start with the `FRAC` magic.
    BadMagic,
    /// The entry was written by a different store layout.
    SchemaMismatch {
        /// The schema version found in the entry header.
        found: u16,
    },
    /// The entry's key echo disagrees with the lookup key (a hash
    /// collision in the file name, or a renamed file).
    KeyMismatch,
    /// The entry ends before its declared contents.
    Truncated,
    /// The trailing checksum does not match the entry bytes.
    BadChecksum,
    /// A section's bytes do not decode.
    Decode(String),
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Miss => write!(f, "cache miss"),
            CacheError::Io(e) => write!(f, "cache io error: {e}"),
            CacheError::BadMagic => write!(f, "cache entry has wrong magic"),
            CacheError::SchemaMismatch { found } => {
                write!(
                    f,
                    "cache entry schema v{found} does not match v{SCHEMA_VERSION}"
                )
            }
            CacheError::KeyMismatch => write!(f, "cache entry key echo mismatch"),
            CacheError::Truncated => write!(f, "cache entry truncated"),
            CacheError::BadChecksum => write!(f, "cache entry checksum mismatch"),
            CacheError::Decode(e) => write!(f, "cache entry decode failed: {e}"),
        }
    }
}

impl std::error::Error for CacheError {}

impl From<DecodeError> for CacheError {
    fn from(e: DecodeError) -> Self {
        CacheError::Decode(e.0)
    }
}

impl CacheError {
    /// Whether this is the silent no-entry case rather than a damaged or
    /// incompatible entry worth diagnosing.
    pub fn is_miss(&self) -> bool {
        matches!(self, CacheError::Miss)
    }
}

/// A fully decoded cache entry.
#[derive(Debug)]
pub struct CachedEntry {
    /// The persisted analysis result.
    pub analysis: FirmwareAnalysis,
    /// The ExeId stage's handler set, decodable on its own.
    pub handlers: Vec<HandlerInfo>,
    /// The FieldId stage's per-message taint digests, decodable on
    /// their own.
    pub taint_summaries: Vec<TaintSummary>,
    /// Bytes read from disk for this entry.
    pub bytes: u64,
}

/// Digest the FieldId stage's artifact out of a finished analysis: one
/// [`TaintSummary`] per message, in message order (node count of the
/// originating trace, terminal sources at the MFT leaves).
pub fn taint_summaries(analysis: &FirmwareAnalysis) -> Vec<TaintSummary> {
    analysis
        .messages
        .iter()
        .map(|m| TaintSummary {
            nodes: m.mft.len(),
            sources: m
                .mft
                .leaves()
                .into_iter()
                .filter_map(|id| match &m.mft.node(id).kind {
                    MftNodeKind::Field(s) => Some(s.clone()),
                    _ => None,
                })
                .collect(),
        })
        .collect()
}

/// A content-addressed store of completed firmware analyses.
///
/// One directory (or N shard subdirectories, see [`StorePolicy`]), one
/// file per [`CacheKey`]; directories are created on first write.
/// Lookups for keys with no file are [`CacheError::Miss`]; any other
/// failure names what is wrong with the entry that *was* there.
#[derive(Debug, Clone)]
pub struct AnalysisCache {
    dir: PathBuf,
    policy: StorePolicy,
    orphans_removed: u64,
    /// Present iff the policy sets a byte budget. Clones share the
    /// accounting, so a daemon's workers see one LRU ordering.
    evictor: Option<Arc<Evictor>>,
    /// Corpus-wide slice-classification caches, one per classifier
    /// fingerprint (a text's label depends on the model, so caches must
    /// never be shared across models). In-memory only — labels are
    /// deterministic, so there is nothing durable to persist. Clones
    /// share the map, so every image of a corpus run — and every job of
    /// a daemon — deduplicates against the same cache.
    class_caches: Arc<Mutex<HashMap<u64, Arc<ClassCache>>>>,
}

impl AnalysisCache {
    /// A store rooted at `dir` with the default (flat, unbounded)
    /// [`StorePolicy`] — the historical behavior.
    ///
    /// Opening also sweeps the store for orphaned temp files — the
    /// `.{name}.{pid}-{seq}.tmp` intermediates of the atomic
    /// write-then-rename protocol whose writer process died mid-write.
    /// A temp file whose embedded pid is no longer alive can never be
    /// renamed into place, so it is deleted; the count is surfaced in
    /// [`StoreStats::orphans_removed`]. Temps of live processes
    /// (including this one) are left untouched.
    pub fn new(dir: impl Into<PathBuf>) -> AnalysisCache {
        AnalysisCache::with_policy(dir, StorePolicy::default())
    }

    /// A store rooted at `dir` under an explicit [`StorePolicy`]. The
    /// orphan sweep covers the root and every shard subdirectory. When
    /// the policy sets a byte budget, the accounting scan runs here and
    /// an initial eviction pass brings a store inherited over budget
    /// (e.g. after the budget was lowered) back under it.
    pub fn with_policy(dir: impl Into<PathBuf>, policy: StorePolicy) -> AnalysisCache {
        let dir = dir.into();
        let mut orphans_removed = 0;
        for (_, d) in policy::store_dirs(&dir, &policy) {
            orphans_removed += sweep_orphan_temps(&d);
        }
        let evictor = policy
            .byte_budget
            .map(|_| Arc::new(Evictor::open(&dir, &policy)));
        let cache = AnalysisCache {
            dir,
            policy,
            orphans_removed,
            evictor,
            class_caches: Arc::new(Mutex::new(HashMap::new())),
        };
        // Only an inherited store already over the trigger watermark is
        // collected at open; inside the hysteresis band writes accumulate.
        if let (Some(e), Some(budget)) = (&cache.evictor, cache.policy.byte_budget) {
            if e.total_bytes() as f64 > cache.policy.high_watermark * budget as f64 {
                let _ = e.collect(&cache.dir);
            }
        }
        cache
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The storage policy this store was opened under.
    pub fn store_policy(&self) -> &StorePolicy {
        &self.policy
    }

    /// The directory an artifact named `name` belongs in (the root for a
    /// flat store, the name's shard subdirectory otherwise).
    pub(crate) fn artifact_dir(&self, name: &str) -> PathBuf {
        policy::artifact_dir_in(&self.dir, &self.policy, name)
    }

    /// The full path of an artifact named `name`.
    pub(crate) fn artifact_path(&self, name: &str) -> PathBuf {
        self.artifact_dir(name).join(name)
    }

    /// Record a successful artifact read with the eviction accounting.
    pub(crate) fn note_read_artifact(&self, name: &str) {
        if let Some(e) = &self.evictor {
            e.note_read(name);
        }
    }

    /// Record an artifact write; runs an eviction pass if the write
    /// pushed the store over its trigger watermark.
    pub(crate) fn note_write_artifact(&self, name: &str, bytes: u64) {
        if let Some(e) = &self.evictor {
            if e.note_write(name, bytes) {
                let _ = e.collect(&self.dir);
            }
        }
    }

    /// Record an artifact deleted outside the GC.
    pub(crate) fn note_removed_artifact(&self, name: &str) {
        if let Some(e) = &self.evictor {
            e.note_removed(name);
        }
    }

    /// Force an eviction pass now: if the store is over
    /// `low_watermark × budget`, least-recently-used artifacts are
    /// deleted until it is not. A no-op without a byte budget.
    pub fn gc_now(&self) -> GcOutcome {
        match &self.evictor {
            Some(e) => e.collect(&self.dir),
            None => GcOutcome::default(),
        }
    }

    /// Bytes currently tracked by the eviction accounting (`None`
    /// without a byte budget).
    pub fn tracked_bytes(&self) -> Option<u64> {
        self.evictor.as_ref().map(|e| e.total_bytes())
    }

    /// Pin (or unpin) the image entry for `key`: with
    /// [`StorePolicy::exempt_pinned`] set, pinned entries are never
    /// evicted. A no-op without a byte budget.
    pub fn pin_entry(&self, key: &CacheKey, pinned: bool) {
        if let Some(e) = &self.evictor {
            e.set_pinned(&key.file_name(), pinned);
        }
    }

    /// The file path an entry for `key` lives at.
    pub fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.artifact_path(&key.file_name())
    }

    /// The corpus-wide classification cache for a classifier
    /// fingerprint, created on first use with the policy's entry budget
    /// ([`StorePolicy::class_cache_entries`]).
    pub(crate) fn class_cache(&self, classifier_fp: u64) -> Arc<ClassCache> {
        let mut caches = self.class_caches.lock().expect("class cache map");
        Arc::clone(
            caches
                .entry(classifier_fp)
                .or_insert_with(|| Arc::new(ClassCache::new(self.policy.class_cache_entries))),
        )
    }

    /// Aggregated counters of every classification cache this store has
    /// handed out (summed across classifier fingerprints).
    pub fn class_cache_stats(&self) -> ClassCacheStats {
        let caches = self.class_caches.lock().expect("class cache map");
        let mut total = ClassCacheStats::default();
        for cache in caches.values() {
            let s = cache.stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.batched += s.batched;
            total.prefilter_skips += s.prefilter_skips;
            total.entries += s.entries;
        }
        total
    }

    /// Persist a finished analysis (plus its stage artifacts) under
    /// `key`. Returns the number of bytes written.
    pub fn store(&self, key: &CacheKey, analysis: &FirmwareAnalysis) -> Result<u64, CacheError> {
        let mut encoded = Vec::new();
        put_analysis(&mut encoded, analysis);
        self.store_encoded(key, analysis, &encoded)
    }

    /// [`AnalysisCache::store`] for a caller that already holds the
    /// analysis's [`put_analysis`] encoding (the unit funnel returns it,
    /// and the daemon sends the same bytes as its reply): `encoded`
    /// becomes the entry's analysis section verbatim, so the analysis is
    /// encoded once per job rather than once per consumer. `analysis`
    /// must be what `encoded` decodes to; the handler and taint-summary
    /// sections are derived from it.
    pub fn store_encoded(
        &self,
        key: &CacheKey,
        analysis: &FirmwareAnalysis,
        encoded: &[u8],
    ) -> Result<u64, CacheError> {
        let mut out = Vec::with_capacity(4096 + encoded.len());
        out.put_slice(MAGIC);
        out.put_u16_le(SCHEMA_VERSION);
        out.put_u128_le(key.image);
        out.put_u32_le(key.pipeline);
        out.put_u64_le(key.config);
        out.put_u64_le(key.classifier);

        let mut section = Vec::new();
        section.put_u32_le(analysis.handlers.len() as u32);
        for h in &analysis.handlers {
            put_handler(&mut section, h);
        }
        put_section(&mut out, &section);

        let summaries = taint_summaries(analysis);
        let mut section = Vec::new();
        section.put_u32_le(summaries.len() as u32);
        for s in &summaries {
            put_taint_summary(&mut section, s);
        }
        put_section(&mut out, &section);

        put_section(&mut out, encoded);

        out.put_u64_le(content_hash_packed(&out));

        let name = key.file_name();
        write_file_atomic(&self.artifact_dir(&name), &name, &out).map_err(CacheError::Io)?;
        self.note_write_artifact(&name, out.len() as u64);
        Ok(out.len() as u64)
    }

    /// Load and fully decode the entry for `key`.
    pub fn load(&self, key: &CacheKey) -> Result<CachedEntry, CacheError> {
        let raw = self.read_verified(key)?;
        let bytes = raw.bytes;
        let handlers = decode_handlers(&raw.sections[0])?;
        let taint = decode_taint_summaries(&raw.sections[1])?;
        let analysis = get_analysis(&mut Reader::new(&raw.sections[2]))?;
        Ok(CachedEntry {
            analysis,
            handlers,
            taint_summaries: taint,
            bytes,
        })
    }

    /// Load only the ExeId stage's handler set for `key`.
    pub fn load_handlers(&self, key: &CacheKey) -> Result<Vec<HandlerInfo>, CacheError> {
        let raw = self.read_verified(key)?;
        decode_handlers(&raw.sections[0])
    }

    /// Load only the FieldId stage's taint summaries for `key`.
    pub fn load_taint_summaries(&self, key: &CacheKey) -> Result<Vec<TaintSummary>, CacheError> {
        let raw = self.read_verified(key)?;
        decode_taint_summaries(&raw.sections[1])
    }

    /// Whether an entry file exists for `key` (no validation).
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.entry_path(key).exists()
    }

    /// Read an entry file and verify magic, schema, key echo and
    /// checksum, returning the three raw sections.
    fn read_verified(&self, key: &CacheKey) -> Result<RawEntry, CacheError> {
        let path = self.entry_path(key);
        let data = match std::fs::read(&path) {
            Ok(d) => d,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(CacheError::Miss),
            Err(e) => return Err(CacheError::Io(e.to_string())),
        };
        // Checksum first: it covers every other field, so a truncated or
        // bit-flipped entry is caught before any interpretation.
        if data.len() < MAGIC.len() + 8 {
            return Err(CacheError::Truncated);
        }
        let (body, tail) = data.split_at(data.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().unwrap());
        if stored != content_hash_packed(body) {
            // A short read and a flipped byte are indistinguishable here;
            // report the more precise condition when the magic is gone.
            if &body[..MAGIC.len()] != MAGIC {
                return Err(CacheError::BadMagic);
            }
            return Err(CacheError::BadChecksum);
        }
        let mut r = Reader::new(body);
        let magic = [r.u8()?, r.u8()?, r.u8()?, r.u8()?];
        if &magic != MAGIC {
            return Err(CacheError::BadMagic);
        }
        let schema = r.u16()?;
        if !(MIN_READ_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&schema) {
            return Err(CacheError::SchemaMismatch { found: schema });
        }
        let echo = CacheKey {
            image: r.u128()?,
            pipeline: r.u32()?,
            config: r.u64()?,
            classifier: r.u64()?,
        };
        if echo != *key {
            return Err(CacheError::KeyMismatch);
        }
        let mut sections = Vec::with_capacity(3);
        for _ in 0..3 {
            let len = r.u32()? as usize;
            if len > r.remaining() {
                return Err(CacheError::Truncated);
            }
            sections.push(r.bytes(len)?.to_vec());
        }
        self.note_read_artifact(&key.file_name());
        Ok(RawEntry {
            sections,
            bytes: data.len() as u64,
        })
    }
}

/// Atomic write-then-rename with the store's temp naming convention, so
/// a crash mid-write or a concurrent reader never sees a torn artifact:
/// the final path either holds the old bytes or the complete new ones.
/// The temp name is unique per process and write, so parallel writers
/// cannot collide, and the orphan sweep covers crashed writes.
pub(crate) fn write_file_atomic(dir: &Path, file_name: &str, data: &[u8]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    static WRITE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = WRITE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = dir.join(format!(".{file_name}.{}-{seq}.tmp", std::process::id()));
    let final_path = dir.join(file_name);
    std::fs::write(&tmp, data).map_err(|e| e.to_string())?;
    std::fs::rename(&tmp, &final_path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        e.to_string()
    })?;
    Ok(())
}

/// Aggregate shape of one store directory, as reported by
/// [`AnalysisCache::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Entry files bearing the `FRAC` magic.
    pub entries: u64,
    /// Total bytes across those entries.
    pub total_bytes: u64,
    /// Entry count per schema version found, ascending by version.
    /// Anything not at [`SCHEMA_VERSION`] is dead weight a future
    /// garbage-collection pass could reclaim.
    pub by_schema: Vec<(u16, u64)>,
    /// `.frac`-named files that do not start with the magic (foreign or
    /// mangled files sharing the directory).
    pub foreign: u64,
    /// Unit-granular bank artifacts (`.fru` files, see [`crate::unit`]).
    pub unit_banks: u64,
    /// Executable-identification verdict artifacts (`.frv` files).
    pub verdicts: u64,
    /// Total bytes across the unit-granular artifact files.
    pub unit_bytes: u64,
    /// Orphaned write temps deleted when this store was opened.
    pub orphans_removed: u64,
    /// Lifetime artifacts evicted by the byte-budget GC, summed over the
    /// persisted shard indexes.
    pub evicted_entries: u64,
    /// Lifetime bytes reclaimed by the byte-budget GC.
    pub reclaimed_bytes: u64,
    /// The byte budget recorded by the most recent GC pass (`0` when no
    /// eviction has ever run).
    pub budget_bytes: u64,
    /// Per-directory occupancy: one row for the root of a flat store,
    /// one per shard subdirectory otherwise. Directories with no
    /// artifacts and no eviction history are omitted.
    pub shards: Vec<ShardOccupancy>,
}

impl StoreStats {
    /// Entries at the current [`SCHEMA_VERSION`].
    pub fn current(&self) -> u64 {
        self.by_schema
            .iter()
            .find(|(v, _)| *v == SCHEMA_VERSION)
            .map_or(0, |(_, n)| *n)
    }
}

impl AnalysisCache {
    /// Survey the store: entry count, total bytes, the schema-version
    /// breakdown, per-shard occupancy and the persisted eviction
    /// counters.
    ///
    /// Only each file's 6-byte header is inspected — no entry is decoded
    /// or checksummed, so this stays cheap on large stores. A store whose
    /// directory does not exist yet reports all-zero stats rather than an
    /// error (it is simply empty). Temp files from in-flight writes (no
    /// `.frac` suffix) are skipped; unit-granular sibling artifacts
    /// (`.fru` banks, `.frv` verdicts) are counted separately. The root
    /// and every shard subdirectory are surveyed, so the aggregate is
    /// layout-independent.
    pub fn stats(&self) -> Result<StoreStats, CacheError> {
        let mut stats = StoreStats {
            orphans_removed: self.orphans_removed,
            ..StoreStats::default()
        };
        let mut by_schema = std::collections::BTreeMap::new();
        for (_, dir) in policy::store_dirs(&self.dir, &self.policy) {
            let entries = match std::fs::read_dir(&dir) {
                Ok(e) => e,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(CacheError::Io(e.to_string())),
            };
            let mut row = ShardOccupancy {
                name: if dir == self.dir {
                    "root".to_string()
                } else {
                    dir.file_name()
                        .and_then(|n| n.to_str())
                        .unwrap_or("?")
                        .to_string()
                },
                ..ShardOccupancy::default()
            };
            if let Some(index) = policy::read_index(&dir.join(policy::INDEX_NAME)) {
                row.evicted = index.evicted;
                row.reclaimed_bytes = index.reclaimed_bytes;
                stats.evicted_entries += index.evicted;
                stats.reclaimed_bytes += index.reclaimed_bytes;
                stats.budget_bytes = stats.budget_bytes.max(index.budget_bytes);
            }
            for entry in entries {
                let entry = entry.map_err(|e| CacheError::Io(e.to_string()))?;
                let path = entry.path();
                let ext = path.extension().and_then(|e| e.to_str());
                if let Some("fru" | "frv") = ext {
                    let meta = entry
                        .metadata()
                        .map_err(|e| CacheError::Io(e.to_string()))?;
                    if meta.is_file() {
                        if ext == Some("fru") {
                            stats.unit_banks += 1;
                        } else {
                            stats.verdicts += 1;
                        }
                        stats.unit_bytes += meta.len();
                        row.files += 1;
                        row.bytes += meta.len();
                    }
                    continue;
                }
                if ext != Some("frac") {
                    continue;
                }
                let meta = entry
                    .metadata()
                    .map_err(|e| CacheError::Io(e.to_string()))?;
                if !meta.is_file() {
                    continue;
                }
                let mut header = [0u8; 6];
                let ok = std::fs::File::open(&path)
                    .and_then(|mut f| std::io::Read::read_exact(&mut f, &mut header))
                    .is_ok();
                if !ok || &header[..4] != MAGIC {
                    stats.foreign += 1;
                    continue;
                }
                stats.entries += 1;
                stats.total_bytes += meta.len();
                row.files += 1;
                row.bytes += meta.len();
                let schema = u16::from_le_bytes([header[4], header[5]]);
                *by_schema.entry(schema).or_insert(0u64) += 1;
            }
            if row.files > 0 || row.bytes > 0 || row.evicted > 0 || row.reclaimed_bytes > 0 {
                stats.shards.push(row);
            }
        }
        stats
            .shards
            .sort_by(|a, b| (a.name != "root", &a.name).cmp(&(b.name != "root", &b.name)));
        stats.by_schema = by_schema.into_iter().collect();
        Ok(stats)
    }
}

/// Known-library summary usage aggregated over a store's decodable
/// entries, as reported by [`AnalysisCache::survey_lib_usage`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LibUsage {
    /// Functions hash-matched against a known-library index.
    pub fns_matched: u64,
    /// Library-body traversals replaced by summary replay.
    pub traversals_skipped: u64,
    /// Taint-tree nodes emitted by summary replay.
    pub summary_applies: u64,
}

impl LibUsage {
    /// Whether any libid counter is nonzero.
    pub fn any(&self) -> bool {
        self.fns_matched > 0 || self.traversals_skipped > 0 || self.summary_applies > 0
    }
}

/// Reconstruct a [`CacheKey`] from an entry file stem (the inverse of
/// [`CacheKey::file_name`]); `None` for foreign names.
fn parse_entry_stem(stem: &str) -> Option<CacheKey> {
    let mut parts = stem.split('-');
    let key = CacheKey {
        image: u128::from_str_radix(parts.next()?, 16).ok()?,
        pipeline: u32::from_str_radix(parts.next()?, 16).ok()?,
        config: u64::from_str_radix(parts.next()?, 16).ok()?,
        classifier: u64::from_str_radix(parts.next()?, 16).ok()?,
    };
    parts.next().is_none().then_some(key)
}

impl AnalysisCache {
    /// Sum the known-library counters recorded in every decodable entry
    /// of the store.
    ///
    /// Unlike [`AnalysisCache::stats`] this decodes each entry (the
    /// counters live in the analysis section), so it is proportional to
    /// store size — fine for the `cache-stats` survey, not for hot
    /// paths. Entries that fail to decode (stale schema, damage,
    /// foreign files) are skipped silently: the survey reports what is
    /// readable, never errors.
    pub fn survey_lib_usage(&self) -> LibUsage {
        let mut usage = LibUsage::default();
        for (_, dir) in policy::store_dirs(&self.dir, &self.policy) {
            let Ok(entries) = std::fs::read_dir(&dir) else {
                continue;
            };
            for entry in entries.flatten() {
                let path = entry.path();
                if path.extension().and_then(|e| e.to_str()) != Some("frac") {
                    continue;
                }
                let Some(key) = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .and_then(parse_entry_stem)
                else {
                    continue;
                };
                let Ok(cached) = self.load(&key) else {
                    continue;
                };
                let c = &cached.analysis.counters;
                usage.fns_matched += c[Counter::LibFnsMatched];
                usage.traversals_skipped += c[Counter::LibTraversalsSkipped];
                usage.summary_applies += c[Counter::LibSummaryApplies];
            }
        }
        usage
    }
}

struct RawEntry {
    sections: Vec<Vec<u8>>,
    bytes: u64,
}

/// Delete orphaned write temps in `dir`, returning how many were removed.
///
/// A temp is an orphan when its embedded writer pid is provably not this
/// process and not alive (checked via `/proc` where available). Files
/// that do not parse as our temp naming convention are never touched.
fn sweep_orphan_temps(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut removed = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(pid) = temp_writer_pid(name) else {
            continue;
        };
        if pid == std::process::id() {
            continue;
        }
        // Without /proc there is no portable liveness probe; err on the
        // side of keeping the file rather than racing a live writer.
        if !Path::new("/proc").is_dir() || Path::new(&format!("/proc/{pid}")).exists() {
            continue;
        }
        if std::fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// Parse the writer pid out of a `.{name}.{pid}-{seq}.tmp` file name, or
/// `None` when the name is not one of our write temps.
fn temp_writer_pid(name: &str) -> Option<u32> {
    let rest = name.strip_prefix('.')?.strip_suffix(".tmp")?;
    let (_, pid_seq) = rest.rsplit_once('.')?;
    let (pid, seq) = pid_seq.split_once('-')?;
    if seq.is_empty() || !seq.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    pid.parse().ok()
}

fn put_section(out: &mut Vec<u8>, section: &[u8]) {
    out.put_u32_le(section.len() as u32);
    out.put_slice(section);
}

fn decode_handlers(bytes: &[u8]) -> Result<Vec<HandlerInfo>, CacheError> {
    let mut r = Reader::new(bytes);
    let n = r.seq_len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_handler(&mut r)?);
    }
    Ok(out)
}

fn decode_taint_summaries(bytes: &[u8]) -> Result<Vec<TaintSummary>, CacheError> {
    let mut r = Reader::new(bytes);
    let n = r.seq_len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_taint_summary(&mut r)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use firmres::{analyze_firmware, AnalysisConfig};
    use firmres_corpus::generate_device;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("firmres-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_load_round_trip() {
        let dev = generate_device(10, 7);
        let config = AnalysisConfig::default();
        let analysis = analyze_firmware(&dev.firmware, None, &config);
        let cache = AnalysisCache::new(temp_dir("roundtrip"));
        let key = CacheKey::compute(&dev.firmware, None, &config);

        assert!(matches!(cache.load(&key), Err(CacheError::Miss)));
        let written = cache.store(&key, &analysis).unwrap();
        assert!(written > 0);

        let entry = cache.load(&key).unwrap();
        assert_eq!(entry.bytes, written);
        assert_eq!(entry.analysis.executable, analysis.executable);
        assert_eq!(entry.analysis.messages.len(), analysis.messages.len());
        assert_eq!(entry.analysis.counters, analysis.counters);
        assert_eq!(entry.handlers.len(), analysis.handlers.len());
        assert_eq!(entry.taint_summaries.len(), analysis.messages.len());
        // The sectioned artifacts match their full-analysis counterparts.
        assert_eq!(
            cache.load_handlers(&key).unwrap().len(),
            entry.handlers.len()
        );
        assert_eq!(
            cache.load_taint_summaries(&key).unwrap(),
            taint_summaries(&analysis)
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupted_entries_are_typed_errors() {
        let dev = generate_device(6, 7);
        let config = AnalysisConfig::default();
        let analysis = analyze_firmware(&dev.firmware, None, &config);
        let cache = AnalysisCache::new(temp_dir("corrupt"));
        let key = CacheKey::compute(&dev.firmware, None, &config);
        cache.store(&key, &analysis).unwrap();
        let path = cache.entry_path(&key);
        let good = std::fs::read(&path).unwrap();

        // Truncation: checksum can no longer match.
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(matches!(
            cache.load(&key),
            Err(CacheError::BadChecksum | CacheError::Truncated)
        ));

        // Byte flip in the body.
        let mut flipped = good.clone();
        flipped[MAGIC.len() + 3] ^= 0xFF;
        std::fs::write(&path, &flipped).unwrap();
        assert_eq!(cache.load(&key).unwrap_err(), CacheError::BadChecksum);

        // Foreign file.
        std::fs::write(&path, b"not a cache entry at all").unwrap();
        assert!(matches!(
            cache.load(&key),
            Err(CacheError::BadMagic | CacheError::BadChecksum | CacheError::Truncated)
        ));

        // Restored entry loads again.
        std::fs::write(&path, &good).unwrap();
        assert!(cache.load(&key).is_ok());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn schema_bump_is_a_schema_mismatch() {
        let dev = generate_device(6, 7);
        let config = AnalysisConfig::default();
        let analysis = analyze_firmware(&dev.firmware, None, &config);
        let cache = AnalysisCache::new(temp_dir("schema"));
        let key = CacheKey::compute(&dev.firmware, None, &config);
        cache.store(&key, &analysis).unwrap();
        let path = cache.entry_path(&key);
        let mut data = std::fs::read(&path).unwrap();
        // Rewrite the schema version and re-seal the checksum, emulating
        // an entry from a future store layout.
        data[4] = 0xFE;
        data[5] = 0xFF;
        let body_len = data.len() - 8;
        let sum = content_hash_packed(&data[..body_len]);
        data[body_len..].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &data).unwrap();
        assert_eq!(
            cache.load(&key).unwrap_err(),
            CacheError::SchemaMismatch { found: 0xFFFE }
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn stats_survey_entries_schemas_and_foreign_files() {
        let cache = AnalysisCache::new(temp_dir("stats"));
        // A store that was never written to is empty, not an error.
        assert_eq!(cache.stats().unwrap(), StoreStats::default());

        let config = AnalysisConfig::default();
        let mut written = 0;
        for id in [6u8, 10] {
            let dev = generate_device(id, 7);
            let analysis = analyze_firmware(&dev.firmware, None, &config);
            let key = CacheKey::compute(&dev.firmware, None, &config);
            written += cache.store(&key, &analysis).unwrap();
        }
        // One foreign .frac file and one non-entry file alongside.
        std::fs::write(cache.dir().join("junk.frac"), b"not FRAC at all").unwrap();
        std::fs::write(cache.dir().join("notes.txt"), b"ignored").unwrap();

        let stats = cache.stats().unwrap();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.total_bytes, written);
        assert_eq!(stats.by_schema, vec![(SCHEMA_VERSION, 2)]);
        assert_eq!(stats.current(), 2);
        assert_eq!(stats.foreign, 1);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn stats_survey_is_exact_at_a_thousand_plus_entries() {
        // ISSUE 7 scale audit: with synthesized fleets the store routinely
        // holds 1k+ image entries plus unit artifacts. Fabricate a large
        // mixed population from raw headers (the survey reads only the
        // 6-byte prefix) and check every counter is exact — no narrow
        // types, no skipped banks, no drift between count and byte total.
        let cache = AnalysisCache::new(temp_dir("stats1k"));
        std::fs::create_dir_all(cache.dir()).unwrap();
        let entry_bytes = |schema: u16, pad: usize| {
            let mut b = Vec::new();
            b.extend_from_slice(MAGIC);
            b.extend_from_slice(&schema.to_le_bytes());
            b.resize(6 + pad, 0xAB);
            b
        };
        let mut expect_total = 0u64;
        let mut expect_current = 0u64;
        let mut expect_stale = 0u64;
        for i in 0..1200u32 {
            // 1 in 6 entries carries the previous (still servable) schema.
            let schema = if i % 6 == 5 {
                MIN_READ_SCHEMA_VERSION
            } else {
                SCHEMA_VERSION
            };
            let body = entry_bytes(schema, (i % 97) as usize);
            expect_total += body.len() as u64;
            if schema == SCHEMA_VERSION {
                expect_current += 1;
            } else {
                expect_stale += 1;
            }
            std::fs::write(cache.dir().join(format!("e{i:04}.frac")), &body).unwrap();
        }
        let mut expect_unit_bytes = 0u64;
        for i in 0..40u32 {
            let body = vec![0x55u8; 32 + (i as usize % 11)];
            expect_unit_bytes += body.len() as u64;
            std::fs::write(cache.dir().join(format!("u{i:03}.fru")), &body).unwrap();
        }
        for i in 0..25u32 {
            let body = vec![0x66u8; 16 + (i as usize % 7)];
            expect_unit_bytes += body.len() as u64;
            std::fs::write(cache.dir().join(format!("v{i:03}.frv")), &body).unwrap();
        }
        for i in 0..7u32 {
            std::fs::write(
                cache.dir().join(format!("alien{i}.frac")),
                format!("no magic here {i}"),
            )
            .unwrap();
        }
        std::fs::write(cache.dir().join("README"), b"ignored entirely").unwrap();

        let stats = cache.stats().unwrap();
        assert_eq!(stats.entries, 1200);
        assert_eq!(stats.total_bytes, expect_total);
        assert_eq!(
            stats.by_schema,
            vec![
                (MIN_READ_SCHEMA_VERSION, expect_stale),
                (SCHEMA_VERSION, expect_current),
            ]
        );
        assert_eq!(stats.current(), expect_current);
        assert_eq!(stats.foreign, 7);
        assert_eq!(stats.unit_banks, 40);
        assert_eq!(stats.verdicts, 25);
        assert_eq!(stats.unit_bytes, expect_unit_bytes);
        assert_eq!(stats.orphans_removed, 0);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn version_2_entries_remain_servable() {
        let dev = generate_device(6, 7);
        let config = AnalysisConfig::default();
        let analysis = analyze_firmware(&dev.firmware, None, &config);
        let cache = AnalysisCache::new(temp_dir("v2read"));
        let key = CacheKey::compute(&dev.firmware, None, &config);
        cache.store(&key, &analysis).unwrap();
        let path = cache.entry_path(&key);
        let mut data = std::fs::read(&path).unwrap();
        // Re-stamp the entry as schema v2 (identical layout) and re-seal.
        data[4..6].copy_from_slice(&2u16.to_le_bytes());
        let body_len = data.len() - 8;
        let sum = content_hash_packed(&data[..body_len]);
        data[body_len..].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &data).unwrap();
        let entry = cache.load(&key).unwrap();
        assert_eq!(entry.analysis.messages.len(), analysis.messages.len());
        // v1 (pre-sectioning) stays rejected.
        let mut old = std::fs::read(&path).unwrap();
        old[4..6].copy_from_slice(&1u16.to_le_bytes());
        let sum = content_hash_packed(&old[..body_len]);
        old[body_len..].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &old).unwrap();
        assert_eq!(
            cache.load(&key).unwrap_err(),
            CacheError::SchemaMismatch { found: 1 }
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn opening_a_store_reaps_orphaned_write_temps() {
        let dir = temp_dir("orphans");
        std::fs::create_dir_all(&dir).unwrap();
        // A crashed writer's temp: valid naming, provably dead pid.
        let orphan = dir.join(".00aa.frac.999999999-3.tmp");
        std::fs::write(&orphan, b"half-written").unwrap();
        // A live writer's temp (our own pid): must survive.
        let live = dir.join(format!(".00bb.frac.{}-0.tmp", std::process::id()));
        std::fs::write(&live, b"in flight").unwrap();
        // Not our naming convention: must survive.
        let foreign = dir.join(".gitignore");
        std::fs::write(&foreign, b"*").unwrap();

        let cache = AnalysisCache::new(&dir);
        assert!(!orphan.exists(), "dead writer's temp should be reaped");
        assert!(live.exists(), "live writer's temp must survive");
        assert!(foreign.exists(), "unrelated dotfiles must survive");
        assert_eq!(cache.stats().unwrap().orphans_removed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn temp_writer_pid_parses_only_our_convention() {
        assert_eq!(temp_writer_pid(".abc.frac.1234-7.tmp"), Some(1234));
        assert_eq!(temp_writer_pid(".a.fru.99-0.tmp"), Some(99));
        assert_eq!(temp_writer_pid("abc.frac.1234-7.tmp"), None);
        assert_eq!(temp_writer_pid(".abc.frac.1234-7.txt"), None);
        assert_eq!(temp_writer_pid(".gitignore"), None);
        assert_eq!(temp_writer_pid(".abc.frac.x-7.tmp"), None);
        assert_eq!(temp_writer_pid(".abc.frac.12-x.tmp"), None);
    }

    #[test]
    fn sharded_store_round_trips_and_surveys_per_shard() {
        let dir = temp_dir("sharded");
        let policy = StorePolicy {
            shards: 4,
            ..StorePolicy::default()
        };
        let cache = AnalysisCache::with_policy(&dir, policy);
        let config = AnalysisConfig::default();
        let mut keys = Vec::new();
        for id in [4u8, 6, 10, 14, 21] {
            let dev = generate_device(id, 7);
            let analysis = analyze_firmware(&dev.firmware, None, &config);
            let key = CacheKey::compute(&dev.firmware, None, &config);
            cache.store(&key, &analysis).unwrap();
            keys.push((key, analysis));
        }
        // Entries land in shard subdirectories, never the root.
        for (key, _) in &keys {
            let path = cache.entry_path(key);
            assert_ne!(path.parent().unwrap(), dir.as_path());
            assert!(path.exists());
        }
        // Every entry loads back through the sharded paths.
        for (key, analysis) in &keys {
            let entry = cache.load(key).unwrap();
            assert_eq!(entry.analysis.executable, analysis.executable);
        }
        let stats = cache.stats().unwrap();
        assert_eq!(stats.entries, 5);
        assert!(!stats.shards.is_empty());
        assert_eq!(stats.shards.iter().map(|s| s.files).sum::<u64>(), 5);
        assert_eq!(
            stats.shards.iter().map(|s| s.bytes).sum::<u64>(),
            stats.total_bytes
        );
        // A flat-opened view of the same directory still surveys the
        // aggregate (shard subdirectories are always swept).
        let flat = AnalysisCache::new(&dir);
        assert_eq!(flat.stats().unwrap().entries, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_keeps_the_store_under_budget_and_persists_counters() {
        let dir = temp_dir("evict");
        let config = AnalysisConfig::default();
        // First, learn how big one entry is.
        let probe = AnalysisCache::new(&dir);
        let dev = generate_device(4, 7);
        let analysis = analyze_firmware(&dev.firmware, None, &config);
        let key = CacheKey::compute(&dev.firmware, None, &config);
        let entry_bytes = probe.store(&key, &analysis).unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        // Budget fits roughly three entries; write five.
        let budget = entry_bytes * 3 + entry_bytes / 2;
        let policy = StorePolicy {
            shards: 2,
            byte_budget: Some(budget),
            low_watermark: 0.9,
            ..StorePolicy::default()
        };
        let cache = AnalysisCache::with_policy(&dir, policy.clone());
        for id in [4u8, 6, 10, 14, 21] {
            let dev = generate_device(id, 7);
            let analysis = analyze_firmware(&dev.firmware, None, &config);
            let key = CacheKey::compute(&dev.firmware, None, &config);
            cache.store(&key, &analysis).unwrap();
        }
        let stats = cache.stats().unwrap();
        assert!(
            stats.total_bytes + stats.unit_bytes <= budget,
            "store must end at or under its budget ({} > {budget})",
            stats.total_bytes + stats.unit_bytes
        );
        assert!(stats.evicted_entries > 0, "evictions must have happened");
        assert!(stats.reclaimed_bytes > 0);
        assert_eq!(stats.budget_bytes, budget, "budget persists via the index");
        assert_eq!(cache.tracked_bytes(), Some(stats.total_bytes));

        // A fresh open (fresh process would be the same) still sees the
        // lifetime counters from the persisted shard indexes.
        let reopened = AnalysisCache::with_policy(&dir, policy);
        let restat = reopened.stats().unwrap();
        assert_eq!(restat.evicted_entries, stats.evicted_entries);
        assert_eq!(restat.reclaimed_bytes, stats.reclaimed_bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_is_lru_and_respects_pins() {
        let dir = temp_dir("evict-lru");
        let config = AnalysisConfig::default();
        // Probe the actual size of each entry so the budget is exactly
        // one byte short of holding all three.
        let probe = AnalysisCache::new(&dir);
        let mut total = 0u64;
        for id in [4u8, 6, 10] {
            let dev = generate_device(id, 7);
            let analysis = analyze_firmware(&dev.firmware, None, &config);
            let key = CacheKey::compute(&dev.firmware, None, &config);
            total += probe.store(&key, &analysis).unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);

        let cache = AnalysisCache::with_policy(
            &dir,
            StorePolicy {
                byte_budget: Some(total - 1),
                low_watermark: 1.0,
                ..StorePolicy::default()
            },
        );
        let mut keys = Vec::new();
        for id in [4u8, 6, 10] {
            let dev = generate_device(id, 7);
            let analysis = analyze_firmware(&dev.firmware, None, &config);
            let key = CacheKey::compute(&dev.firmware, None, &config);
            keys.push(key);
            if id == 10 {
                // Touch the oldest entry before the overflow write: LRU
                // must now pick the middle entry instead.
                cache.load(&keys[0]).unwrap();
            }
            cache.store(&key, &analysis).unwrap();
        }
        assert!(cache.contains(&keys[0]), "recently read entry survives");
        assert!(!cache.contains(&keys[1]), "least-recently-used is evicted");
        assert!(cache.contains(&keys[2]), "freshest write survives");

        // Pin the survivor and overflow again: the pin holds.
        cache.pin_entry(&keys[0], true);
        for id in [14u8, 21] {
            let dev = generate_device(id, 7);
            let analysis = analyze_firmware(&dev.firmware, None, &config);
            let key = CacheKey::compute(&dev.firmware, None, &config);
            cache.store(&key, &analysis).unwrap();
        }
        assert!(cache.contains(&keys[0]), "pinned entry is exempt");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_echo_guards_renamed_entries() {
        let dev_a = generate_device(6, 7);
        let dev_b = generate_device(10, 7);
        let config = AnalysisConfig::default();
        let cache = AnalysisCache::new(temp_dir("echo"));
        let key_a = CacheKey::compute(&dev_a.firmware, None, &config);
        let key_b = CacheKey::compute(&dev_b.firmware, None, &config);
        let analysis = analyze_firmware(&dev_a.firmware, None, &config);
        cache.store(&key_a, &analysis).unwrap();
        // Pretend a's entry is b's by renaming the file.
        std::fs::rename(cache.entry_path(&key_a), cache.entry_path(&key_b)).unwrap();
        assert_eq!(cache.load(&key_b).unwrap_err(), CacheError::KeyMismatch);
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
