//! The incremental corpus driver: consult the store, analyze only the
//! misses, persist what was computed.
//!
//! [`analyze_corpus_incremental`] is the cache-aware counterpart of
//! [`firmres::analyze_corpus`]. Per image it computes the [`CacheKey`],
//! loads a valid entry when one exists (the whole pipeline is skipped),
//! and otherwise re-analyzes the image on the shared worker pool
//! ([`firmres::run_pool`]) and writes the result back. Misses do not run
//! the pipeline blindly: each goes through the unit-granular funnel
//! ([`crate::unit::analyze_image_units_incremental`]), so an image whose
//! entry was invalidated by a small change still splices every clean
//! message unit from the bank files and re-executes only the dirty
//! closure. A damaged entry — truncation, checksum or schema mismatch,
//! undecodable section — is never fatal: it is diagnosed
//! ([`StageKind::Cache`], warning severity), counted as a miss,
//! re-analyzed, and overwritten.
//!
//! Determinism contract: a warm run returns **byte-identical** analyses
//! to the cold run that populated the store (timings included — they are
//! persisted, not re-measured). Cache traffic is reported only through
//! the corpus-level `observer` and [`CacheStats`], never folded into the
//! per-analysis [`StageCounters`] — so hitting the cache cannot perturb
//! the results themselves.
//!
//! [`StageCounters`]: firmres::StageCounters

use crate::codec::{self, Reader};
use crate::key::CacheKey;
use crate::store::AnalysisCache;
use crate::unit::analyze_image_units_incremental;
use firmres::{
    analyze_firmware_jobs, run_pool, AnalysisConfig, CollectingObserver, Counter, Diagnostic,
    FirmwareAnalysis, Observer, Parallelism, Severity, StageKind,
};
use firmres_firmware::FirmwareImage;
use firmres_semantics::Classifier;

/// Cache traffic accumulated over one incremental corpus run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Images served from the store.
    pub hits: u64,
    /// Images that ran the pipeline (no entry, or a damaged one).
    pub misses: u64,
    /// The subset of `misses` caused by a damaged entry rather than a
    /// plain absent one.
    pub corrupt: u64,
    /// Entry bytes read on hits.
    pub bytes_read: u64,
    /// Entry bytes written after analyzing misses.
    pub bytes_written: u64,
    /// Message units spliced from bank artifacts while re-analyzing
    /// missed images (locator found, footprint clean).
    pub unit_hits: u64,
    /// Message units re-executed while re-analyzing missed images.
    pub unit_misses: u64,
    /// Executable probes replayed from verdict artifacts on misses.
    pub verdict_hits: u64,
    /// Executable probes run live on misses.
    pub verdict_misses: u64,
    /// Slice texts that went through the batched semantics path while
    /// re-analyzing misses.
    pub slices_batched: u64,
    /// Slices the certified None pre-filter resolved without scoring.
    pub prefilter_skips: u64,
    /// Slice classifications answered by the corpus-wide class cache
    /// (cross-image and cross-run dedup under a shared store handle).
    pub class_cache_hits: u64,
}

impl CacheStats {
    /// Hits over total lookups, in `0.0..=1.0` (`0.0` for an empty run).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Unit hits over units considered while re-analyzing misses, in
    /// `0.0..=1.0` (`0.0` when no image missed or none had units).
    pub fn unit_reuse_rate(&self) -> f64 {
        let total = self.unit_hits + self.unit_misses;
        if total == 0 {
            0.0
        } else {
            self.unit_hits as f64 / total as f64
        }
    }
}

/// What an incremental corpus run produced.
#[derive(Debug)]
pub struct CorpusOutcome {
    /// One analysis per input image, in input order — hits and fresh
    /// results interleaved, indistinguishable by content.
    pub analyses: Vec<FirmwareAnalysis>,
    /// Cache traffic for the whole run.
    pub stats: CacheStats,
}

/// Analyze `images` through `cache`: load hits, pipeline the misses on
/// the worker budget described by `par`, persist what was computed.
///
/// `par` accepts a plain thread count (image-level parallelism, the
/// historical shape) or a full [`Parallelism`] to also fan each missed
/// image's message units out over `par.units` workers. Neither axis
/// changes any result byte, so cached entries stay valid whatever the
/// caller picks.
///
/// Results come back in input order, exactly as from
/// [`firmres::analyze_corpus`]. `observer` receives the cache counters
/// ([`Counter::CacheHits`] and friends) and any [`StageKind::Cache`]
/// diagnostics; per-image pipeline events are not streamed (misses run
/// on worker threads), but every analysis still carries its own timings,
/// counters and diagnostics.
pub fn analyze_corpus_incremental(
    images: &[&FirmwareImage],
    classifier: Option<&Classifier>,
    config: &AnalysisConfig,
    par: impl Into<Parallelism>,
    cache: &AnalysisCache,
    observer: &mut dyn Observer,
) -> CorpusOutcome {
    let par = par.into();
    let mut stats = CacheStats::default();
    let mut slots: Vec<Option<FirmwareAnalysis>> = Vec::new();
    slots.resize_with(images.len(), || None);
    let keys: Vec<CacheKey> = images
        .iter()
        .map(|fw| CacheKey::compute(fw, classifier, config))
        .collect();

    // Phase 1: consult the store. `misses` collects (input index,
    // diagnostic for a damaged entry, if any).
    let mut misses: Vec<(usize, Option<Diagnostic>)> = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        match cache.load(key) {
            Ok(entry) => {
                stats.hits += 1;
                stats.bytes_read += entry.bytes;
                observer.count(Counter::CacheHits, 1);
                observer.count(Counter::CacheBytesRead, entry.bytes);
                slots[i] = Some(entry.analysis);
            }
            Err(e) => {
                stats.misses += 1;
                observer.count(Counter::CacheMisses, 1);
                let diag = if e.is_miss() {
                    None
                } else {
                    stats.corrupt += 1;
                    let d = Diagnostic::new(
                        StageKind::Cache,
                        Severity::Warning,
                        key.file_name(),
                        format!("entry unusable, re-analyzing: {e}"),
                    );
                    observer.diagnostic(&d);
                    Some(d)
                };
                misses.push((i, diag));
            }
        }
    }

    // Phase 2: re-analyze the misses on the shared worker pool, each
    // through the unit-granular funnel so clean units splice from the
    // bank files. Cache diagnostics are collected per worker and
    // replayed on the caller's observer afterwards (pipeline events are
    // not streamed for misses, as documented). Class-cache telemetry is
    // measured as a delta over the run — the shared cache may arrive
    // pre-warmed by an earlier corpus under the same store handle.
    let class_before = cache.class_cache_stats();
    let fresh = run_pool(misses.len(), par.images, |j| {
        let mut local = CollectingObserver::default();
        let out = analyze_image_units_incremental(
            images[misses[j].0],
            classifier,
            config,
            par.units,
            cache,
            &mut local,
            None,
        );
        (out, local.diagnostics)
    });

    // Phase 3: persist, then attach any corruption diagnostics. Storing
    // first keeps the entry free of them, so the next warm run is
    // byte-identical to this one. A *spliced* analysis (the funnel served
    // at least one unit from a bank) earns no image entry: it is already
    // cheap to reproduce from the unit artifacts, and skipping the write
    // keeps update re-analysis off the store's write path entirely. The
    // exception is a miss caused by a *damaged* entry — that file stays
    // on disk and would be re-diagnosed on every future run, so it is
    // repaired (overwritten) even when the analysis was spliced.
    for ((i, diag), (result, cache_diags)) in misses.into_iter().zip(fresh) {
        let mut spliced = false;
        // The funnel's bytes are the analysis's `put_analysis` encoding:
        // they become the entry's analysis section without a re-encode.
        let (analysis, encoded) = match result {
            Ok(out) => {
                stats.unit_hits += out.stats.unit_hits;
                stats.unit_misses += out.stats.unit_misses;
                stats.verdict_hits += out.stats.verdict_hits;
                stats.verdict_misses += out.stats.verdict_misses;
                spliced = out.stats.unit_hits > 0;
                observer.count(Counter::CacheBytesRead, out.stats.bytes_read);
                observer.count(Counter::CacheBytesWritten, out.stats.bytes_written);
                for d in cache_diags.iter().filter(|d| d.stage == StageKind::Cache) {
                    observer.diagnostic(d);
                }
                codec::get_analysis(&mut Reader::new(&out.bytes))
                    .ok()
                    .map(|analysis| (analysis, Some(out.bytes)))
            }
            // Uncancellable funnel runs don't error; fall back anyway.
            Err(_) => None,
        }
        .unwrap_or_else(|| {
            let analysis = analyze_firmware_jobs(images[i], classifier, config, par.units);
            (analysis, None)
        });
        if !spliced || diag.is_some() {
            let stored = match &encoded {
                Some(bytes) => cache.store_encoded(&keys[i], &analysis, bytes),
                None => cache.store(&keys[i], &analysis),
            };
            match stored {
                Ok(written) => {
                    stats.bytes_written += written;
                    observer.count(Counter::CacheBytesWritten, written);
                }
                Err(e) => {
                    // A write failure costs only the next run's warm start.
                    let d = Diagnostic::new(
                        StageKind::Cache,
                        Severity::Warning,
                        keys[i].file_name(),
                        format!("store failed: {e}"),
                    );
                    observer.diagnostic(&d);
                }
            }
        }
        let mut analysis = analysis;
        if let Some(d) = diag {
            analysis.diagnostics.push(d);
        }
        slots[i] = Some(analysis);
    }

    // Batched-semantics telemetry: deltas of the store's class-cache
    // counters over this run, reported corpus-level only (cache warmth
    // must never perturb per-analysis counters or report bytes).
    let class_after = cache.class_cache_stats();
    stats.slices_batched = class_after.batched.saturating_sub(class_before.batched);
    stats.prefilter_skips = class_after
        .prefilter_skips
        .saturating_sub(class_before.prefilter_skips);
    stats.class_cache_hits = class_after.hits.saturating_sub(class_before.hits);
    if stats.slices_batched > 0 {
        observer.count(Counter::SlicesBatched, stats.slices_batched);
    }
    if stats.prefilter_skips > 0 {
        observer.count(Counter::PrefilterSkips, stats.prefilter_skips);
    }
    if stats.class_cache_hits > 0 {
        observer.count(Counter::ClassCacheHits, stats.class_cache_hits);
    }

    CorpusOutcome {
        analyses: slots
            .into_iter()
            .map(|s| s.expect("every image is analyzed or loaded"))
            .collect(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firmres::CollectingObserver;
    use firmres_corpus::generate_device;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("firmres-cache-driver-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cold_then_warm_hits_everything() {
        let devices: Vec<_> = (5..9).map(|id| generate_device(id, 7)).collect();
        let images: Vec<&FirmwareImage> = devices.iter().map(|d| &d.firmware).collect();
        let config = AnalysisConfig::default();
        let cache = AnalysisCache::new(temp_dir("coldwarm"));

        let mut obs = CollectingObserver::default();
        let cold = analyze_corpus_incremental(&images, None, &config, 2, &cache, &mut obs);
        assert_eq!(cold.stats.hits, 0);
        assert_eq!(cold.stats.misses, images.len() as u64);
        assert!(cold.stats.bytes_written > 0);
        assert_eq!(obs.counters[Counter::CacheMisses], images.len() as u64);

        let mut obs = CollectingObserver::default();
        let warm = analyze_corpus_incremental(&images, None, &config, 2, &cache, &mut obs);
        assert_eq!(warm.stats.misses, 0);
        assert_eq!(warm.stats.hits, images.len() as u64);
        assert_eq!(warm.stats.hit_rate(), 1.0);
        assert!(warm.stats.bytes_read > 0);
        assert_eq!(obs.counters[Counter::CacheHits], images.len() as u64);
        for (a, b) in cold.analyses.iter().zip(&warm.analyses) {
            assert_eq!(a.executable, b.executable);
            assert_eq!(a.counters, b.counters);
            assert_eq!(a.diagnostics, b.diagnostics);
            assert_eq!(a.messages.len(), b.messages.len());
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn classifier_change_forces_a_miss() {
        use firmres_semantics::{Primitive, TrainConfig};
        let dev = generate_device(6, 7);
        let image: &FirmwareImage = &dev.firmware;
        let config = AnalysisConfig::default();
        let cache = AnalysisCache::new(temp_dir("classifier"));

        let bare = analyze_corpus_incremental(
            &[image],
            None,
            &config,
            1,
            &cache,
            &mut firmres::NullObserver,
        );
        assert_eq!(bare.stats.misses, 1);

        // Supplying a model must not serve the cached no-model analysis:
        // classify() output and the "no trained classifier" diagnostic
        // both depend on it.
        let data = vec![
            ("mac address".to_string(), Primitive::DevIdentifier),
            ("password login".to_string(), Primitive::UserCred),
        ];
        let model = firmres_semantics::Classifier::train(
            &data,
            &TrainConfig {
                epochs: 3,
                ..Default::default()
            },
        );
        let with_model = analyze_corpus_incremental(
            &[image],
            Some(&model),
            &config,
            1,
            &cache,
            &mut firmres::NullObserver,
        );
        assert_eq!(
            with_model.stats.misses, 1,
            "model run must not hit no-model entry"
        );

        // Both variants are now independently cached.
        let warm_bare = analyze_corpus_incremental(
            &[image],
            None,
            &config,
            1,
            &cache,
            &mut firmres::NullObserver,
        );
        let warm_model = analyze_corpus_incremental(
            &[image],
            Some(&model),
            &config,
            1,
            &cache,
            &mut firmres::NullObserver,
        );
        assert_eq!(warm_bare.stats.hits, 1);
        assert_eq!(warm_model.stats.hits, 1);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn parallel_produced_entry_serves_a_sequential_run() {
        // An entry written by a unit-parallel miss must be byte-identical
        // to what a sequential run computes — the warm sequential run may
        // not even notice who populated the store.
        let dev = generate_device(10, 7);
        let image: &FirmwareImage = &dev.firmware;
        let config = AnalysisConfig::default();
        let cache = AnalysisCache::new(temp_dir("parunits"));

        let cold = analyze_corpus_incremental(
            &[image],
            None,
            &config,
            Parallelism::units(8),
            &cache,
            &mut firmres::NullObserver,
        );
        assert_eq!(cold.stats.misses, 1);

        let mut warm = analyze_corpus_incremental(
            &[image],
            None,
            &config,
            1,
            &cache,
            &mut firmres::NullObserver,
        );
        assert_eq!(warm.stats.hits, 1, "parallel-produced entry is served");

        let mut sequential = firmres::analyze_firmware(image, None, &config);
        let mut served = warm.analyses.remove(0);
        assert_eq!(served.counters, sequential.counters);
        assert_eq!(served.diagnostics, sequential.diagnostics);
        // Byte-compare through the codec, timings zeroed (the entry holds
        // the cold run's measured durations; everything else must match).
        served.timings = Default::default();
        sequential.timings = Default::default();
        let enc = |a: &FirmwareAnalysis| {
            let mut out = Vec::new();
            crate::codec::put_analysis(&mut out, a);
            out
        };
        assert_eq!(enc(&served), enc(&sequential));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn mutating_one_function_reruns_only_its_closure() {
        let dev = generate_device(10, 7);
        let image: &FirmwareImage = &dev.firmware;
        let config = AnalysisConfig::default();
        let cache = AnalysisCache::new(temp_dir("mutate"));

        let cold = analyze_corpus_incremental(
            &[image],
            None,
            &config,
            1,
            &cache,
            &mut firmres::NullObserver,
        );
        let total = cold.stats.unit_hits + cold.stats.unit_misses;
        assert!(total > 0, "device 10 has message units");
        assert_eq!(cold.stats.unit_hits, 0, "cold store has nothing to splice");
        assert_eq!(cold.stats.unit_reuse_rate(), 0.0);

        let update = firmres_corpus::mutate_firmware(image, 1.0, 42);
        assert!(!update.mutated.is_empty());
        let warm = analyze_corpus_incremental(
            &[&update.image],
            None,
            &config,
            1,
            &cache,
            &mut firmres::NullObserver,
        );
        assert_eq!(warm.stats.hits, 0, "image-level entry no longer matches");
        assert!(warm.stats.unit_hits > 0, "clean units are spliced");
        assert!(
            warm.stats.unit_misses < total,
            "only the dirty closure re-runs ({} of {total})",
            warm.stats.unit_misses
        );

        // Byte-identity: the incremental result matches a from-scratch
        // run of the mutated image (timings zeroed — re-executed stages
        // measure fresh time).
        let mut incremental = warm.analyses.into_iter().next().unwrap();
        let mut scratch = firmres::analyze_firmware(&update.image, None, &config);
        incremental.timings = Default::default();
        scratch.timings = Default::default();
        let enc = |a: &FirmwareAnalysis| {
            let mut out = Vec::new();
            crate::codec::put_analysis(&mut out, a);
            out
        };
        assert_eq!(enc(&incremental), enc(&scratch));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn empty_corpus_has_zero_rate() {
        let cache = AnalysisCache::new(temp_dir("empty"));
        let out = analyze_corpus_incremental(
            &[],
            None,
            &AnalysisConfig::default(),
            4,
            &cache,
            &mut firmres::NullObserver,
        );
        assert!(out.analyses.is_empty());
        assert_eq!(out.stats.hit_rate(), 0.0);
    }
}
