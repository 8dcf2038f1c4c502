//! The traced run: per-layer costs measured from the benchmark's own
//! code, without tracing inside the program.
//!
//! [`replay_image`] re-drives one image through each layer's public
//! functions in the pipeline's order — unpack, parse, lift, identify,
//! then per message unit taint → tree → slices → labels → reconstruct →
//! form check — and times every call into a [`Spans`] recorder. Its
//! records must equal the pipeline's own, so a breakdown that drifts
//! from what the pipeline does fails the run. [`traced`] replays a
//! sample of the workload's images for half the measured time, adds the
//! store's costs on the same images the way the workload uses the store
//! ([`StorePath`]), and probes the service with a daemon in the
//! workload's configuration.

use crate::measure::{median, ratio, Metric, Spans};
use crate::truth::{canonical, canonical_payload, guarded};
use crate::{Options, Report};
use firmres::stages::{
    enumerate_units, merge_unit_outputs, run_message_unit, AnalysisContext, ChosenExecutable,
    ExeIdStage, MessageUnit, UnitClassifier,
};
use firmres::{
    analyze_packed, check_message, extract_endpoint, identify_device_cloud, AnalysisConfig,
    FirmwareAnalysis, MessageRecord, NullObserver,
};
use firmres_cache::{analyze_image_units_incremental, codec, AnalysisCache, CacheKey};
use firmres_dataflow::{delivery_endpoint_arg, FieldSource, SourceKind, TaintEngine, TaintTree};
use firmres_firmware::FirmwareImage;
use firmres_mft::{is_lan_address, mentions_lan, reconstruct, Mft, SliceRenderer};
use firmres_semantics::{ClassCache, ClassCacheStats, Classifier, Primitive};
use firmres_service::{Client, ClientError, Server, ServerConfig, SubmitImage};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the traced run replays, and how the workload deploys it.
pub struct Layered<'a> {
    /// Packed images to replay (a sample of the workload's inputs).
    pub packed: Vec<&'a [u8]>,
    /// The workload's semantics model, if any.
    pub classifier: Option<&'a Classifier>,
    /// The effective analysis configuration (with any index overlaid).
    pub config: AnalysisConfig,
    /// The configuration a client sends (the daemon overlays its index).
    pub client_config: AnalysisConfig,
    /// Whether the workload shares one classification cache across
    /// images (store-backed drivers and the daemon do).
    pub shared_class_cache: bool,
    /// The daemon configuration the service probe deploys (its store
    /// directory is set by the probe).
    pub server: ServerConfig,
    /// How the workload uses the store, which the cache figures follow.
    pub store_path: StorePath<'a>,
}

/// How a workload uses the store.
pub enum StorePath<'a> {
    /// Whole-image entries: each result is keyed, encoded, stored and
    /// loaded back.
    Image,
    /// Updates served through the unit funnel against the workload's
    /// primed store. The replay takes a fresh set of updates at each
    /// pass over the sample, as each pass of the workload does;
    /// `packed` holds pass 0's, packed.
    Funnel {
        /// The store the workload primed and ran against.
        store: &'a AnalysisCache,
        /// The sample's updates for a pass.
        updates: &'a (dyn Fn(u64) -> Vec<FirmwareImage> + Sync),
    },
}

/// Counters taken from the untraced half of a traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkloadCounters {
    /// Σ per-operation busy time / (wall × threads).
    pub busy_share: f64,
    /// Message units spliced / considered.
    pub unit_reuse_ratio: f64,
    /// Image-level store hits / lookups.
    pub image_hit_ratio: f64,
    /// Operations the untraced half completed.
    pub ops: u64,
}

/// The replay's output for one image: the chosen executable and the
/// message records in unit order.
#[derive(Debug)]
pub struct Replayed {
    /// Path of the chosen device-cloud executable.
    pub executable: Option<String>,
    /// One record per message unit.
    pub records: Vec<MessageRecord>,
}

/// Replay one packed image through each layer, timing every call.
///
/// Returns `None` when the container does not unpack.
pub fn replay_image(
    packed: &[u8],
    config: &AnalysisConfig,
    classes: &UnitClassifier<'_>,
    spans: &mut Spans,
) -> Option<Replayed> {
    let fw = spans
        .time("firmware.unpack", || FirmwareImage::unpack(packed))
        .ok()?;
    let Some(chosen) = choose_executable(&fw, config, spans) else {
        return Some(Replayed {
            executable: None,
            records: Vec::new(),
        });
    };
    let units = spans.time("exeid.identify", || {
        enumerate_units(&chosen.program, &chosen.handlers)
    });
    let engine = spans.time("dataflow.taint", || {
        TaintEngine::with_config(&chosen.program, config.taint.clone())
    });
    let renderer = SliceRenderer::with_mode(&chosen.program, config.taint.cold_path);
    let records = units
        .iter()
        .map(|unit| replay_unit(&engine, &renderer, classes, unit, spans))
        .collect();
    let (hits, misses) = engine.cache_stats();
    spans.count("dataflow.memo_hits", hits);
    spans.count("dataflow.memo_lookups", hits + misses);
    Some(Replayed {
        executable: Some(chosen.path),
        records,
    })
}

/// Stage 1: parse, lift and score every executable; the best handler
/// score wins, earliest image order breaking ties.
fn choose_executable(
    fw: &FirmwareImage,
    config: &AnalysisConfig,
    spans: &mut Spans,
) -> Option<ChosenExecutable> {
    let mut best: Option<ChosenExecutable> = None;
    for (path, bytes) in fw.executables() {
        let Ok(exe) = spans.time("isa.parse", || firmres_isa::Executable::from_bytes(bytes)) else {
            continue;
        };
        let Ok(program) = spans.time("isa.lift", || firmres_isa::lift(&exe, path)) else {
            continue;
        };
        let handlers = spans.time("exeid.identify", || {
            identify_device_cloud(&program, &config.exeid)
        });
        if handlers.is_empty() {
            continue;
        }
        let candidate = ChosenExecutable {
            path: path.to_string(),
            program,
            handlers,
        };
        if best
            .as_ref()
            .is_none_or(|b| candidate.best_score() > b.best_score())
        {
            best = Some(candidate);
        }
    }
    best
}

/// Stages 2–5 for one message unit.
fn replay_unit(
    engine: &TaintEngine<'_>,
    renderer: &SliceRenderer<'_>,
    classes: &UnitClassifier<'_>,
    unit: &MessageUnit,
    spans: &mut Spans,
) -> MessageRecord {
    let trace = |spans: &mut Spans, arg: usize| -> TaintTree {
        spans.count("dataflow.queries", 1);
        let (tree, stats) = spans.time("dataflow.taint", || {
            engine.trace_with_stats(unit.function, unit.callsite, arg)
        });
        spans.count("libid.traversals_skipped", stats.traversals_skipped);
        tree
    };
    let tree = trace(spans, unit.payload_arg);
    let mft = spans.time("mft.tree", || Mft::from_taint(&tree));
    let endpoint = match delivery_endpoint_arg(&unit.callee) {
        Some(arg) if arg != unit.payload_arg => {
            trace(spans, arg).sources().find_map(|n| match n.source() {
                Some(FieldSource::StringConstant { value, .. }) => Some(value.clone()),
                _ => None,
            })
        }
        _ => None,
    };
    let host_lan = matches!(unit.callee.as_str(), "http_post" | "http_get")
        && trace(spans, 0).sources().any(|n| {
            matches!(n.source(), Some(FieldSource::StringConstant { value, .. })
                if is_lan_address(value))
        });

    let slices = spans.time("mft.slice", || renderer.slices_for_tree(&mft));
    spans.count("mft.slices", slices.len() as u64);
    spans.count(
        "mft.slice_bytes",
        slices.iter().map(|s| s.text.len() as u64).sum(),
    );
    let texts: Vec<&str> = slices.iter().map(|s| s.text.as_str()).collect();
    let primitives = spans.time("semantics.classify", || classes.classify_batch(&texts));

    let mut record = spans.time("concat.reconstruct", || {
        let mut message = reconstruct(&mft);
        message.endpoint = endpoint;
        let mut by_origin: HashMap<&FieldSource, VecDeque<Primitive>> = HashMap::new();
        for (slice, primitive) in slices.iter().zip(&primitives) {
            by_origin
                .entry(&slice.source)
                .or_default()
                .push_back(*primitive);
        }
        for field in &mut message.fields {
            if let Some(p) = by_origin
                .get_mut(&field.origin)
                .and_then(VecDeque::pop_front)
            {
                field.semantic = Some(p.label().to_string());
            }
        }
        let is_response_echo = unit.in_handler
            && !message.fields.is_empty()
            && message.fields.iter().all(|f| {
                matches!(
                    &f.origin,
                    FieldSource::LibCall {
                        kind: SourceKind::NetworkIn,
                        ..
                    } | FieldSource::Unresolved { .. }
                )
            });
        MessageRecord {
            function: unit.function_name.clone(),
            callsite: unit.callsite,
            lan_discarded: host_lan || mentions_lan(&mft),
            mft,
            slices: Vec::new(),
            slice_semantics: primitives,
            message,
            is_response_echo,
            flaws: Vec::new(),
        }
    });
    record.slices = slices;
    if record.counts() {
        record.flaws = spans.time("formcheck.check", || {
            let endpoint = extract_endpoint(&record.message).unwrap_or_default();
            check_message(&record.message, &endpoint)
        });
    }
    record
}

fn record_bytes(records: &[MessageRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in records {
        codec::put_record(&mut out, r);
    }
    out
}

/// Whether a replay reproduced the pipeline's result exactly.
pub fn replay_matches(replayed: &Replayed, analysis: &FirmwareAnalysis) -> bool {
    replayed.executable == analysis.executable
        && record_bytes(&replayed.records) == record_bytes(&analysis.messages)
}

/// The pipeline of [`analyze_packed`] on one thread, with the message
/// units labelled through `classes`: what a driver that shares one
/// classification cache across images runs per image. `None` when the
/// container does not unpack.
pub fn analyze_with_classes(
    packed: &[u8],
    classifier: Option<&Classifier>,
    config: &AnalysisConfig,
    classes: &UnitClassifier<'_>,
) -> Option<FirmwareAnalysis> {
    let fw = FirmwareImage::unpack(packed).ok()?;
    let mut observer = NullObserver;
    let mut cx = AnalysisContext::new(&fw, classifier, config, &mut observer);
    let Some(chosen) = ExeIdStage::run(&mut cx) else {
        return Some(cx.finish(None, Vec::new(), Vec::new()));
    };
    let units = enumerate_units(&chosen.program, &chosen.handlers);
    let engine = TaintEngine::with_config(&chosen.program, config.taint.clone());
    let renderer = SliceRenderer::with_mode(&chosen.program, config.taint.cold_path);
    let outputs = units
        .iter()
        .map(|unit| run_message_unit(&engine, &renderer, classes, unit))
        .collect();
    let records = merge_unit_outputs(&mut cx, outputs, engine.lib_matched());
    Some(cx.finish(Some(chosen.path), chosen.handlers, records))
}

/// One side of the traced comparison: the classification cache it
/// labels through and the time it took.
struct Side {
    cache: Arc<ClassCache>,
    time: Duration,
}

impl Side {
    fn new() -> Side {
        Side {
            cache: Arc::new(ClassCache::new(0)),
            time: Duration::ZERO,
        }
    }

    /// A classifier over this side's cache, or over a fresh per-image
    /// cache when the workload shares none.
    fn classes<'a>(&self, layered: &Layered<'a>) -> UnitClassifier<'a> {
        let mode = layered.config.taint.cold_path;
        if layered.shared_class_cache {
            UnitClassifier::with_cache(layered.classifier, mode, Arc::clone(&self.cache))
        } else {
            UnitClassifier::new(layered.classifier, mode)
        }
    }
}

/// Run the traced half of a traced run and push every per-layer metric.
///
/// Both the replay and the pipeline it is compared with label through
/// classification caches of the same kind: a fresh one per image, or,
/// where the workload shares one across images, one per side that
/// starts cold at each pass over the sample. So `trace.overhead_share`
/// (|replay time / pipeline time − 1|) compares like with like, and hit
/// ratios do not depend on how many passes fit in the time.
pub fn traced(
    opts: &Options,
    layered: &Layered<'_>,
    counters: &WorkloadCounters,
    report: &mut Report,
) {
    let budget = opts.seconds / 2;
    let image_store = AnalysisCache::new(opts.work_dir.join("replay-store"));
    let (mut replay, mut pipeline) = (Side::new(), Side::new());
    let mut spans = Spans::default();
    let mut class_stats = ClassCacheStats::default();
    let mut images = 0u64;
    let n = layered.packed.len().max(1);
    let mut updates: Vec<FirmwareImage> = Vec::new();
    let mut updates_packed: Vec<Vec<u8>> = Vec::new();
    let start = Instant::now();
    while images == 0 || start.elapsed() < budget {
        let i = images as usize % n;
        let pass = images / n as u64;
        if i == 0 {
            if pass > 0 && layered.shared_class_cache {
                add_class_stats(&mut class_stats, &replay.cache.stats());
                replay.cache = Arc::new(ClassCache::new(0));
                pipeline.cache = Arc::new(ClassCache::new(0));
            }
            if let StorePath::Funnel { updates: fresh, .. } = &layered.store_path {
                updates = fresh(pass);
                updates_packed = updates.iter().map(|u| u.pack().to_vec()).collect();
            }
        }
        images += 1;
        let packed: &[u8] = match layered.store_path {
            StorePath::Image => layered.packed[i],
            StorePath::Funnel { .. } => &updates_packed[i],
        };

        let run_pipeline = |side: &mut Side| {
            let classes = side.classes(layered);
            let t = Instant::now();
            let analysis = guarded(|| {
                if layered.shared_class_cache {
                    analyze_with_classes(packed, layered.classifier, &layered.config, &classes)
                } else {
                    Some(analyze_packed(packed, layered.classifier, &layered.config))
                }
            });
            side.time += t.elapsed();
            analysis.flatten()
        };
        let run_replay = |side: &mut Side, spans: &mut Spans, stats: &mut ClassCacheStats| {
            let classes = side.classes(layered);
            let t = Instant::now();
            let replayed = guarded(|| replay_image(packed, &layered.config, &classes, spans));
            side.time += t.elapsed();
            if !layered.shared_class_cache {
                add_class_stats(stats, &classes.cache().stats());
            }
            replayed.flatten()
        };
        // Alternate which side goes first, so neither gains from the
        // other having just warmed the processor's caches on the image.
        let (analysis, replayed) = if images % 2 == 1 {
            let analysis = run_pipeline(&mut pipeline);
            (
                analysis,
                run_replay(&mut replay, &mut spans, &mut class_stats),
            )
        } else {
            let replayed = run_replay(&mut replay, &mut spans, &mut class_stats);
            (run_pipeline(&mut pipeline), replayed)
        };

        let (Some(analysis), Some(replayed)) = (analysis, replayed) else {
            report.tally(1, 1, 0);
            continue;
        };
        let mut ok = replay_matches(&replayed, &analysis);
        let served = match &layered.store_path {
            StorePath::Image => {
                ok &= store_image(packed, layered, &analysis, &image_store, &mut spans);
                None
            }
            StorePath::Funnel { store, .. } => {
                Some(serve_update(&updates[i], layered, store, &mut spans))
            }
        };
        let check_plain = layered.shared_class_cache && pass == 0;
        if served.is_some() || check_plain {
            let want = canonical(analysis);
            if let Some(served) = served {
                ok &= served.as_deref() == Some(want.as_slice());
            }
            if check_plain {
                // The first pass also holds the shared-cache pipeline to
                // the program's own entry point (untimed).
                ok &= guarded(|| analyze_packed(packed, layered.classifier, &layered.config))
                    .is_some_and(|plain| canonical(plain) == want);
            }
        }
        report.tally(1, u64::from(!ok), u64::from(!ok));
    }
    if layered.shared_class_cache {
        add_class_stats(&mut class_stats, &replay.cache.stats());
    }
    let probe = service_probe(opts, layered, report);

    let per = |name: &str| ratio(spans.ms(name), images as f64);
    let count = |name: &str| ratio(spans.get(name) as f64, images as f64);
    let n = images as usize;
    let replay_ms = ratio(replay.time.as_secs_f64() * 1e3, images as f64);
    let pipeline_ms = ratio(pipeline.time.as_secs_f64() * 1e3, images as f64);
    let mut m = vec![
        Metric::over("firmware.unpack_ms", per("firmware.unpack"), "ms", n),
        Metric::over("isa.parse_ms", per("isa.parse"), "ms", n),
        Metric::over("isa.lift_ms", per("isa.lift"), "ms", n),
        Metric::over("exeid.identify_ms", per("exeid.identify"), "ms", n),
        Metric::over("dataflow.taint_ms", per("dataflow.taint"), "ms", n),
        Metric::over("dataflow.queries", count("dataflow.queries"), "count", n),
        Metric::new(
            "dataflow.memo_hit_ratio",
            ratio(
                spans.get("dataflow.memo_hits") as f64,
                spans.get("dataflow.memo_lookups") as f64,
            ),
            "share",
        ),
        Metric::new(
            "libid.skip_ratio",
            ratio(
                spans.get("libid.traversals_skipped") as f64,
                spans.get("dataflow.queries") as f64,
            ),
            "1/query",
        ),
        Metric::over("mft.tree_ms", per("mft.tree"), "ms", n),
        Metric::over("mft.slice_ms", per("mft.slice"), "ms", n),
        Metric::over("mft.slices", count("mft.slices"), "count", n),
        Metric::over("mft.slice_kb", count("mft.slice_bytes") / 1024.0, "KB", n),
        Metric::over("concat.reconstruct_ms", per("concat.reconstruct"), "ms", n),
        Metric::over("semantics.classify_ms", per("semantics.classify"), "ms", n),
        Metric::new(
            "semantics.prefilter_skip_ratio",
            ratio(
                class_stats.prefilter_skips as f64,
                class_stats.batched as f64,
            ),
            "share",
        ),
        Metric::new(
            "semantics.class_cache_hit_ratio",
            ratio(
                class_stats.hits as f64,
                (class_stats.hits + class_stats.misses) as f64,
            ),
            "share",
        ),
        Metric::over("formcheck.check_ms", per("formcheck.check"), "ms", n),
        Metric::new("driver.busy_share", counters.busy_share, "share"),
        Metric::over("cache.key_ms", per("cache.key"), "ms", n),
        Metric::over("cache.encode_ms", per("cache.encode"), "ms", n),
        Metric::over("cache.store_ms", per("cache.store"), "ms", n),
        Metric::over("cache.load_ms", per("cache.load"), "ms", n),
        Metric::over(
            "cache.entry_kb",
            count("cache.entry_bytes") / 1024.0,
            "KB",
            n,
        ),
        Metric::new("cache.unit_reuse_ratio", counters.unit_reuse_ratio, "share"),
        Metric::new("cache.image_hit_ratio", counters.image_hit_ratio, "share"),
        Metric::new(
            "trace.overhead_share",
            (ratio(replay_ms, pipeline_ms) - 1.0).abs(),
            "share",
        ),
    ];
    m.extend(probe);
    report.notes.push(format!(
        "traced replay: {images} image(s) from a sample of {}, one thread; \
         replay {replay_ms:.3} ms vs pipeline {pipeline_ms:.3} ms per image; \
         untraced half {} operation(s)",
        layered.packed.len(),
        counters.ops,
    ));
    report.per_layer = m;
}

/// The image-level store on one result: key, encode, store, load. The
/// loaded entry must re-encode to the same bytes.
fn store_image(
    packed: &[u8],
    layered: &Layered<'_>,
    analysis: &FirmwareAnalysis,
    store: &AnalysisCache,
    spans: &mut Spans,
) -> bool {
    let key = spans.time("cache.key", || {
        CacheKey::of_packed(packed, layered.classifier, &layered.config)
    });
    let mut encoded = Vec::new();
    spans.time("cache.encode", || {
        codec::put_analysis(&mut encoded, analysis)
    });
    match spans.time("cache.store", || store.store(&key, analysis)) {
        Ok(written) => spans.count("cache.entry_bytes", written),
        Err(_) => return false,
    }
    match spans.time("cache.load", || store.load(&key)) {
        Ok(entry) => {
            let mut loaded = Vec::new();
            codec::put_analysis(&mut loaded, &entry.analysis);
            loaded == encoded
        }
        Err(_) => false,
    }
}

/// An update served the way `analyze_corpus_incremental` serves it: the
/// image key, the image-level lookup plus the unit funnel against the
/// workload's primed store (`cache.load`: verdict and bank reads, the
/// re-probe of changed executables, footprint checks and splicing), and
/// the decode of the spliced bytes (`cache.encode`). A spliced analysis
/// earns no image entry, so nothing is timed under `cache.store`.
/// Returns the served analysis in canonical form.
fn serve_update(
    update: &FirmwareImage,
    layered: &Layered<'_>,
    store: &AnalysisCache,
    spans: &mut Spans,
) -> Option<Vec<u8>> {
    let key = spans.time("cache.key", || {
        CacheKey::compute(update, layered.classifier, &layered.config)
    });
    let served = spans
        .time("cache.load", || {
            let _ = store.load(&key);
            analyze_image_units_incremental(
                update,
                layered.classifier,
                &layered.config,
                1,
                store,
                &mut NullObserver,
                None,
            )
        })
        .ok()?;
    spans.count("cache.entry_bytes", served.stats.bytes_read);
    let decoded = spans.time("cache.encode", || {
        codec::get_analysis(&mut codec::Reader::new(&served.bytes))
    });
    decoded.ok().map(canonical)
}

fn add_class_stats(total: &mut ClassCacheStats, s: &ClassCacheStats) {
    total.hits += s.hits;
    total.misses += s.misses;
    total.batched += s.batched;
    total.prefilter_skips += s.prefilter_skips;
}

/// Service overheads: each sampled image is submitted by bytes twice to
/// a one-worker daemon in the workload's configuration (first a cold
/// submit, then a warm repeat), and each round trip is paired with the
/// in-process call it stands for — the pipeline for a cold submit, a
/// store load plus encode for a warm one. Every served payload must
/// equal the local analysis byte for byte.
fn service_probe(opts: &Options, layered: &Layered<'_>, report: &mut Report) -> Vec<Metric> {
    let mut cfg = layered.server.clone();
    cfg.workers = 1;
    cfg.cache_dir = Some(opts.work_dir.join("probe-store"));
    let local = AnalysisCache::new(opts.work_dir.join("probe-local"));
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind the probe daemon");
    let addr = server.local_addr().expect("probe daemon address");
    let daemon = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).expect("connect to the probe daemon");
    let (mut cold_rtt, mut warm_rtt, mut cold_over, mut warm_over) =
        (vec![], vec![], vec![], vec![]);
    let (mut response_bytes, mut served, mut rejected, mut sent) = (0u64, 0u64, 0u64, 0u64);
    for packed in layered.packed.iter().take(opts.sizes.probe_images) {
        let t = Instant::now();
        let Some(analysis) =
            guarded(|| analyze_packed(packed, layered.classifier, &layered.config))
        else {
            report.tally(1, 1, 0);
            continue;
        };
        let local_ms = t.elapsed().as_secs_f64() * 1e3;
        let key = CacheKey::of_packed(packed, layered.classifier, &layered.config);
        let stored = local.store(&key, &analysis).is_ok();
        let want = canonical(analysis);
        let t = Instant::now();
        let warm_local = local.load(&key).map(|e| {
            let mut out = Vec::new();
            codec::put_analysis(&mut out, &e.analysis);
            out
        });
        let warm_local_ms = t.elapsed().as_secs_f64() * 1e3;
        if !stored || warm_local.is_err() {
            report.tally(1, 1, 0);
            continue;
        }
        for warm in [false, true] {
            sent += 1;
            let t = Instant::now();
            let out = client.submit(
                SubmitImage::Bytes(packed.to_vec()),
                &layered.client_config,
                false,
                0,
            );
            let rtt = t.elapsed().as_secs_f64() * 1e3;
            match out {
                Ok(s) => {
                    served += 1;
                    response_bytes += s.payload.len() as u64;
                    let ok = canonical_payload(&s.payload).as_deref() == Some(want.as_slice());
                    report.tally(1, u64::from(!ok), u64::from(!ok));
                    if warm {
                        warm_rtt.push(rtt);
                        warm_over.push(rtt - warm_local_ms);
                    } else {
                        cold_rtt.push(rtt);
                        cold_over.push(rtt - local_ms);
                    }
                }
                Err(ClientError::Rejected(_)) => {
                    rejected += 1;
                    report.tally(1, 1, 0);
                }
                Err(_) => report.tally(1, 1, 0),
            }
        }
    }
    let _ = client.drain();
    let _ = daemon.join();
    report.notes.push(format!(
        "service probe: round trip {:.3} ms warm ({} sample(s)), {:.3} ms cold ({}); \
         {rejected} of {sent} submits rejected",
        median(&warm_rtt),
        warm_rtt.len(),
        median(&cold_rtt),
        cold_rtt.len(),
    ));
    vec![
        Metric::over(
            "service.warm_overhead_ms",
            median(&warm_over),
            "ms",
            warm_over.len(),
        ),
        Metric::over(
            "service.cold_overhead_ms",
            median(&cold_over),
            "ms",
            cold_over.len(),
        ),
        Metric::over(
            "service.response_kb",
            ratio(response_bytes as f64 / 1024.0, served as f64),
            "KB",
            served as usize,
        ),
    ]
}
