//! Unit-granular incremental re-analysis: persist per-unit artifacts and
//! re-run only what a firmware update actually changed.
//!
//! The image-granular store (`.frac` entries) is all-or-nothing: any
//! change to the image bytes misses the cache and re-runs the whole
//! pipeline. But the pipeline's own unit of execution is the per-callsite
//! **message unit** (stages 2–5 share no state across delivery
//! callsites), and a typical firmware update leaves most lifted functions
//! byte-identical — so most units would recompute exactly what the
//! previous version already computed.
//!
//! [`analyze_image_units_incremental`] closes that gap with two sibling
//! artifact files next to the `.frac` entries:
//!
//! * **Unit banks** (`.fru`) — one per *device family* (vendor + model +
//!   executable path + pipeline/config/classifier fingerprints, firmware
//!   version deliberately excluded so successive versions share a bank).
//!   Each entry maps a **unit locator** to the unit's *input footprint*
//!   (content hashes of every function its taint traces visited, plus
//!   caller-enumeration edge hashes), its buffered event stream, its
//!   taint-query keys, and its finished [`MessageRecord`] as opaque
//!   encoded bytes.
//! * **Executable verdicts** (`.frv`) — one per executable *bytes* (the
//!   key hashes the raw MRE image), holding the stage-1 probe's exact
//!   event stream, whether the executable qualified as a device-cloud
//!   candidate, and its scored handlers. An update that does not touch an
//!   executable replays its verdict instead of re-probing it.
//!
//! # The dirty-closure rule
//!
//! A stored unit is reused iff its identity *and* its inputs are intact:
//!
//! 1. **Locator match** — the locator hashes the unit's seed (function
//!    entry/name, callsite, callee, payload argument, handler membership)
//!    together with the program's *context hash* (data segment, function
//!    directory, imports — everything analyses read besides function
//!    bodies). A symbol-table- or data-changing update therefore shifts
//!    every locator and degrades to a plain cold run, by design.
//! 2. **Footprint match** — every function the unit's taint traces
//!    visited still hashes the same ([`function_content_hash`]); a
//!    function the trace found *absent* (hash sentinel `0`) must still be
//!    absent; every function whose callers the trace enumerated still has
//!    the same `(caller, callsite)` edge set ([`caller_edges_hash`]).
//!
//! Everything a unit's stages read is covered by locator + footprint:
//! taint walks only visited functions, slice rendering and semantics read
//! code of visited functions plus strings (context hash), reconstruction
//! and form-check are pure functions of the taint tree. So units whose
//! checks pass are byte-identical to what a cold run would recompute —
//! the re-assembled analysis is spliced from stored record bytes without
//! decoding them, and `incremental_bench` asserts the byte-identity
//! end to end.
//!
//! # Determinism
//!
//! The assembled output replays the same merge
//! ([`merge_unit_event_streams`]) over the same unit order as a cold run,
//! with each unit's counters and diagnostics coming from its (stored or
//! fresh) buffered events; the stage-global tail events are pure
//! functions of the unit views. Cache traffic is reported only to the
//! caller's observer and [`UnitStats`] — never folded into the analysis
//! itself.
//!
//! [`function_content_hash`]: firmres_ir::function_content_hash
//! [`caller_edges_hash`]: firmres_ir::caller_edges_hash
//! [`merge_unit_event_streams`]: firmres::stages::merge_unit_event_streams
//! [`MessageRecord`]: firmres::MessageRecord

use crate::codec::{
    self, get_handler, get_stage_events, get_unit_events, put_handler, put_stage_events,
    put_unit_events, DecodeError, Reader,
};
use crate::key::{classifier_fingerprint, config_fingerprint, PIPELINE_VERSION};
use crate::store::AnalysisCache;
use firmres::stages::{
    best_handler_score, enumerate_units, merge_unit_event_streams, probe_executable,
    rank_candidates, run_message_unit, AnalysisContext, ChosenExecutable, MessageUnit, TraceKey,
    UnitClassifier, UnitView,
};
use firmres::{
    AnalysisConfig, CancelToken, Counter, Diagnostic, Error, Event, HandlerInfo, Observer,
    Severity, StageEvents, StageKind,
};
use firmres_dataflow::{TaintEngine, TraceDeps};
use firmres_firmware::{content_hash_packed, FirmwareImage};
use firmres_ir::{
    caller_edges_hash, function_content_hash, program_context_hash, Address, CallGraph, Fnv128,
    Program,
};
use firmres_mft::SliceRenderer;
use firmres_semantics::Classifier;
use std::collections::BTreeMap;
use std::path::Path;

/// Unit-granular cache traffic of one funnel run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitStats {
    /// Message units served from a bank (footprint intact).
    pub unit_hits: u64,
    /// Message units re-executed (no bank entry, or a dirty footprint).
    pub unit_misses: u64,
    /// Executable probes replayed from a verdict artifact.
    pub verdict_hits: u64,
    /// Executable probes run live.
    pub verdict_misses: u64,
    /// Bytes read from unit-granular artifact files.
    pub bytes_read: u64,
    /// Bytes written to unit-granular artifact files.
    pub bytes_written: u64,
}

impl UnitStats {
    /// Unit hits over total units, in `0.0..=1.0` (`0.0` for no units).
    pub fn reuse_rate(&self) -> f64 {
        let total = self.unit_hits + self.unit_misses;
        if total == 0 {
            0.0
        } else {
            self.unit_hits as f64 / total as f64
        }
    }
}

/// What one funnel run produced.
#[derive(Debug)]
pub struct UnitFunnelOutcome {
    /// The complete encoded analysis — the exact bytes
    /// [`codec::put_analysis`] produces for the equivalent cold run
    /// (timings excepted: stages re-executed report fresh wall/thread
    /// time, replayed stages report their stored per-unit time).
    pub bytes: Vec<u8>,
    /// Unit-granular cache traffic.
    pub stats: UnitStats,
}

// ---------------------------------------------------------------------------
// Artifact keys
// ---------------------------------------------------------------------------

fn verdict_key(fw: &FirmwareImage, path: &str, bytes: &[u8], config_fp: u64) -> u128 {
    let mut h = Fnv128::new();
    h.write_str("exeid");
    h.write_str(&fw.device().vendor);
    h.write_str(&fw.device().model);
    h.write_str(path);
    let mut body = Fnv128::new();
    body.write(bytes);
    h.write_u128(body.finish());
    h.write_u32(PIPELINE_VERSION);
    h.write_u64(config_fp);
    // The classifier is deliberately excluded: stage 1 never consults it,
    // so one verdict serves every classifier variant.
    h.finish()
}

fn bank_key(fw: &FirmwareImage, exe_path: &str, config_fp: u64, classifier_fp: u64) -> u128 {
    let mut h = Fnv128::new();
    h.write_str("bank");
    // Vendor + model, *not* firmware version: successive versions of the
    // same device must resolve to the same bank for reuse to happen.
    h.write_str(&fw.device().vendor);
    h.write_str(&fw.device().model);
    h.write_str(exe_path);
    h.write_u32(PIPELINE_VERSION);
    h.write_u64(config_fp);
    h.write_u64(classifier_fp);
    h.finish()
}

fn unit_locator(
    fw: &FirmwareImage,
    exe_path: &str,
    context_hash: u128,
    unit: &MessageUnit,
    config_fp: u64,
    classifier_fp: u64,
) -> u128 {
    let mut h = Fnv128::new();
    h.write_str("unit");
    h.write_str(&fw.device().vendor);
    h.write_str(&fw.device().model);
    h.write_str(exe_path);
    h.write_u128(context_hash);
    h.write_u64(unit.function);
    h.write_str(&unit.function_name);
    h.write_u64(unit.callsite);
    h.write_str(&unit.callee);
    h.write_u64(unit.payload_arg as u64);
    h.write_u8(unit.in_handler as u8);
    h.write_u32(PIPELINE_VERSION);
    h.write_u64(config_fp);
    h.write_u64(classifier_fp);
    h.finish()
}

// ---------------------------------------------------------------------------
// Artifact files
// ---------------------------------------------------------------------------

const BANK_MAGIC: &[u8; 4] = b"FRUB";
const VERDICT_MAGIC: &[u8; 4] = b"FRVD";

fn bank_name(key: u128) -> String {
    format!("{key:032x}.fru")
}

fn verdict_name(key: u128) -> String {
    format!("{key:032x}.frv")
}

/// One persisted message unit: input footprint, merge view, record bytes.
#[derive(Debug, Clone)]
struct BankEntry {
    /// `(function entry, content hash)` of every function the unit's
    /// taint traces visited; hash `0` is the *must-be-absent* sentinel
    /// for a call target the trace looked up and did not find.
    footprint: Vec<(Address, u128)>,
    /// `(function entry, caller-edge hash)` for every function whose
    /// callers the trace enumerated.
    caller_enums: Vec<(Address, u64)>,
    slices_nonempty: bool,
    taint_keys: Vec<TraceKey>,
    events: firmres::stages::UnitEvents,
    /// The finished [`firmres::MessageRecord`], encoded — spliced into
    /// the output verbatim, never decoded on the reuse path.
    record_bytes: Vec<u8>,
}

struct Verdict {
    events: StageEvents,
    qualified: bool,
    handlers: Vec<HandlerInfo>,
}

use bytes::BufMut;

fn put_bank_entry(out: &mut Vec<u8>, locator: u128, e: &BankEntry) {
    out.put_u128_le(locator);
    out.put_u32_le(e.footprint.len() as u32);
    for (addr, hash) in &e.footprint {
        out.put_u64_le(*addr);
        out.put_u128_le(*hash);
    }
    out.put_u32_le(e.caller_enums.len() as u32);
    for (addr, hash) in &e.caller_enums {
        out.put_u64_le(*addr);
        out.put_u64_le(*hash);
    }
    out.put_u8(e.slices_nonempty as u8);
    out.put_u32_le(e.taint_keys.len() as u32);
    for (func, callsite, arg) in &e.taint_keys {
        out.put_u64_le(*func);
        out.put_u64_le(*callsite);
        out.put_u32_le(*arg as u32);
    }
    put_unit_events(out, &e.events);
    out.put_u32_le(e.record_bytes.len() as u32);
    out.put_slice(&e.record_bytes);
}

fn get_bank_entry(r: &mut Reader) -> Result<(u128, BankEntry), DecodeError> {
    let locator = r.u128()?;
    let n = r.seq_len()?;
    let mut footprint = Vec::with_capacity(n);
    for _ in 0..n {
        footprint.push((r.u64()?, r.u128()?));
    }
    let n = r.seq_len()?;
    let mut caller_enums = Vec::with_capacity(n);
    for _ in 0..n {
        caller_enums.push((r.u64()?, r.u64()?));
    }
    let slices_nonempty = r.boolean()?;
    let n = r.seq_len()?;
    let mut taint_keys = Vec::with_capacity(n);
    for _ in 0..n {
        taint_keys.push((r.u64()?, r.u64()?, r.u32()? as usize));
    }
    let events = get_unit_events(r)?;
    let len = r.u32()? as usize;
    let record_bytes = r.bytes(len)?.to_vec();
    Ok((
        locator,
        BankEntry {
            footprint,
            caller_enums,
            slices_nonempty,
            taint_keys,
            events,
            record_bytes,
        },
    ))
}

/// Read and verify an artifact file: magic, schema, key echo, checksum.
/// `Ok(None)` is the silent no-file case; `Err` names the damage.
fn read_artifact(path: &Path, magic: &[u8; 4], key: u128) -> Result<Option<Vec<u8>>, DecodeError> {
    let data = match std::fs::read(path) {
        Ok(d) => d,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(DecodeError(format!("read failed: {e}"))),
    };
    if data.len() < magic.len() + 8 {
        return Err(DecodeError("artifact truncated".into()));
    }
    let (body, tail) = data.split_at(data.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("split_at leaves 8 bytes"));
    if stored != content_hash_packed(body) {
        return Err(DecodeError("artifact checksum mismatch".into()));
    }
    let mut r = Reader::new(body);
    if r.bytes(4)? != magic {
        return Err(DecodeError("artifact has wrong magic".into()));
    }
    let schema = r.u16()?;
    if schema != crate::store::SCHEMA_VERSION {
        return Err(DecodeError(format!(
            "artifact schema v{schema} unsupported"
        )));
    }
    if r.u128()? != key {
        return Err(DecodeError("artifact key echo mismatch".into()));
    }
    Ok(Some(body[body.len() - r.remaining()..].to_vec()))
}

fn seal_artifact(magic: &[u8; 4], key: u128, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 30);
    out.put_slice(magic);
    out.put_u16_le(crate::store::SCHEMA_VERSION);
    out.put_u128_le(key);
    out.put_slice(payload);
    out.put_u64_le(content_hash_packed(&out));
    out
}

/// A decoded bank: entries by locator, plus the payload byte count read.
type BankContents = (BTreeMap<u128, BankEntry>, u64);

fn read_bank(cache: &AnalysisCache, key: u128) -> Result<Option<BankContents>, DecodeError> {
    let name = bank_name(key);
    let Some(payload) = read_artifact(&cache.artifact_path(&name), BANK_MAGIC, key)? else {
        return Ok(None);
    };
    cache.note_read_artifact(&name);
    let bytes = payload.len() as u64;
    let mut r = Reader::new(&payload);
    let n = r.seq_len()?;
    let mut entries = BTreeMap::new();
    for _ in 0..n {
        let (locator, entry) = get_bank_entry(&mut r)?;
        entries.insert(locator, entry);
    }
    Ok(Some((entries, bytes)))
}

fn write_bank(
    cache: &AnalysisCache,
    key: u128,
    entries: &[(u128, BankEntry)],
) -> Result<u64, String> {
    let mut payload = Vec::new();
    payload.put_u32_le(entries.len() as u32);
    for (locator, e) in entries {
        put_bank_entry(&mut payload, *locator, e);
    }
    let sealed = seal_artifact(BANK_MAGIC, key, &payload);
    let len = sealed.len() as u64;
    let name = bank_name(key);
    crate::store::write_file_atomic(&cache.artifact_dir(&name), &name, &sealed)?;
    cache.note_write_artifact(&name, len);
    Ok(len)
}

fn read_verdict(cache: &AnalysisCache, key: u128) -> Result<Option<(Verdict, u64)>, DecodeError> {
    let name = verdict_name(key);
    let Some(payload) = read_artifact(&cache.artifact_path(&name), VERDICT_MAGIC, key)? else {
        return Ok(None);
    };
    cache.note_read_artifact(&name);
    let bytes = payload.len() as u64;
    let mut r = Reader::new(&payload);
    let events = get_stage_events(&mut r)?;
    let qualified = r.boolean()?;
    let n = r.seq_len()?;
    let mut handlers = Vec::with_capacity(n);
    for _ in 0..n {
        handlers.push(get_handler(&mut r)?);
    }
    Ok(Some((
        Verdict {
            events,
            qualified,
            handlers,
        },
        bytes,
    )))
}

fn write_verdict(cache: &AnalysisCache, key: u128, v: &Verdict) -> Result<u64, String> {
    let mut payload = Vec::new();
    put_stage_events(&mut payload, &v.events);
    payload.put_u8(v.qualified as u8);
    payload.put_u32_le(v.handlers.len() as u32);
    for h in &v.handlers {
        put_handler(&mut payload, h);
    }
    let sealed = seal_artifact(VERDICT_MAGIC, key, &payload);
    let len = sealed.len() as u64;
    let name = verdict_name(key);
    crate::store::write_file_atomic(&cache.artifact_dir(&name), &name, &sealed)?;
    cache.note_write_artifact(&name, len);
    Ok(len)
}

// ---------------------------------------------------------------------------
// The funnel
// ---------------------------------------------------------------------------

fn cache_diag(subject: String, detail: String) -> Diagnostic {
    Diagnostic::new(StageKind::Cache, Severity::Warning, subject, detail)
}

/// Replay a probe's buffered counter/diagnostic events into the live
/// context — what [`probe_executable`] on the same bytes would emit.
/// Takes the events by value: on the warm path these come straight out
/// of a decoded verdict, so diagnostics move instead of cloning.
fn replay_probe_events(cx: &mut AnalysisContext<'_>, events: StageEvents) {
    for ev in events.events {
        match ev {
            Event::Count(counter, n) => cx.count(counter, n),
            Event::Diagnostic(d) => cx.diagnose(d),
            Event::StageStarted(_) | Event::StageFinished(..) => {}
        }
    }
}

fn footprint_is_clean(
    e: &BankEntry,
    fn_hashes: &BTreeMap<Address, u128>,
    graph: &CallGraph,
) -> bool {
    e.footprint
        .iter()
        .all(|(addr, hash)| match fn_hashes.get(addr) {
            Some(current) => current == hash,
            None => *hash == 0,
        })
        && e.caller_enums
            .iter()
            .all(|(addr, hash)| caller_edges_hash(graph, *addr) == *hash)
}

struct Candidate {
    path: String,
    handlers: Vec<HandlerInfo>,
    /// Present when the candidate was probed live; a verdict-hit winner
    /// lifts its program lazily (parse + lift only — its handlers and
    /// events come from the verdict).
    program: Option<Program>,
}

/// Analyze one image through the unit-granular artifact store, returning
/// the complete encoded analysis plus reuse statistics.
///
/// The returned bytes decode ([`codec::get_analysis`]) to exactly what
/// [`firmres::analyze_firmware`] computes for the same inputs, except
/// stage timings (re-executed stages measure fresh time). On a cold
/// store every executable is probed and every unit runs — same work as
/// the plain pipeline plus artifact writes. On a warm store, units whose
/// locator and footprint survive the image's changes are spliced from
/// their stored record bytes without re-execution *or decoding*.
///
/// Artifact damage is never fatal: a hostile or truncated bank/verdict
/// file is diagnosed to `observer` ([`StageKind::Cache`], warning) and
/// treated as absent. Cache traffic reaches `observer` and [`UnitStats`]
/// only — the analysis bytes are unaffected by cache state.
///
/// `cancel` is polled at stage boundaries and per unit, exactly like
/// [`firmres::analyze_firmware_cancellable`].
pub fn analyze_image_units_incremental(
    fw: &FirmwareImage,
    classifier: Option<&Classifier>,
    config: &AnalysisConfig,
    jobs: usize,
    cache: &AnalysisCache,
    observer: &mut dyn Observer,
    cancel: Option<&CancelToken>,
) -> Result<UnitFunnelOutcome, Error> {
    let poll = || cancel.map_or(Ok(()), CancelToken::check);
    poll()?;

    let mut stats = UnitStats::default();
    // Cache diagnostics are buffered and delivered to the observer after
    // the analysis context is gone: they must never interleave with (or
    // leak into) the analysis's own deterministic event stream.
    let mut cache_diags: Vec<Diagnostic> = Vec::new();
    let config_fp = config_fingerprint(config);
    let classifier_fp = classifier_fingerprint(classifier);

    // Pre-read the per-executable verdicts (the context below holds the
    // observer borrow, so all artifact IO diagnostics are staged here).
    let exes: Vec<(String, &[u8])> = fw.executables().map(|(p, b)| (p.to_string(), b)).collect();
    let verdicts: Vec<(u128, Option<Verdict>)> = exes
        .iter()
        .map(|(path, bytes)| {
            let key = verdict_key(fw, path, bytes, config_fp);
            let found = match read_verdict(cache, key) {
                Ok(Some((v, bytes_read))) => {
                    stats.verdict_hits += 1;
                    stats.bytes_read += bytes_read;
                    Some(v)
                }
                Ok(None) => {
                    stats.verdict_misses += 1;
                    None
                }
                Err(e) => {
                    stats.verdict_misses += 1;
                    cache_diags.push(cache_diag(
                        format!("{key:032x}.frv"),
                        format!("verdict unusable, re-probing: {}", e.0),
                    ));
                    None
                }
            };
            (key, found)
        })
        .collect();

    let mut cx = AnalysisContext::new(fw, classifier, config, &mut *observer);

    // Stage 1: replay verdicts, probe only unknown executables, then rank
    // exactly as the live stage does.
    let winner: Option<Candidate> = cx.run_stage(StageKind::ExeId, |cx| {
        let mut candidates: Vec<Candidate> = Vec::new();
        for ((path, bytes), (key, verdict)) in exes.iter().zip(verdicts) {
            match verdict {
                Some(v) => {
                    replay_probe_events(cx, v.events);
                    if v.qualified {
                        candidates.push(Candidate {
                            path: path.clone(),
                            handlers: v.handlers,
                            program: None,
                        });
                    }
                }
                None => {
                    let mut events = StageEvents::default();
                    let probed =
                        probe_executable(path, bytes, &cx.inputs.config.exeid, &mut events);
                    let verdict = Verdict {
                        events,
                        qualified: probed.is_some(),
                        handlers: probed
                            .as_ref()
                            .map(|c| c.handlers.clone())
                            .unwrap_or_default(),
                    };
                    match write_verdict(cache, key, &verdict) {
                        Ok(written) => stats.bytes_written += written,
                        Err(e) => cache_diags.push(cache_diag(
                            format!("{key:032x}.frv"),
                            format!("verdict write failed: {e}"),
                        )),
                    }
                    replay_probe_events(cx, verdict.events);
                    if let Some(ChosenExecutable {
                        path,
                        program,
                        handlers,
                    }) = probed
                    {
                        candidates.push(Candidate {
                            path,
                            handlers,
                            program: Some(program),
                        });
                    }
                }
            }
        }
        rank_candidates(cx, candidates, |c| {
            (&c.path, best_handler_score(&c.handlers))
        })
    });

    let flush_diags = |observer: &mut dyn Observer, diags: &[Diagnostic], stats: &UnitStats| {
        for d in diags {
            observer.diagnostic(d);
        }
        if stats.bytes_read > 0 {
            observer.count(Counter::CacheBytesRead, stats.bytes_read);
        }
        if stats.bytes_written > 0 {
            observer.count(Counter::CacheBytesWritten, stats.bytes_written);
        }
    };

    let Some(mut winner) = winner else {
        let analysis = cx.finish(None, Vec::new(), Vec::new());
        let mut bytes = Vec::new();
        codec::put_analysis(&mut bytes, &analysis);
        flush_diags(observer, &cache_diags, &stats);
        return Ok(UnitFunnelOutcome { bytes, stats });
    };
    poll()?;

    // Materialize the winner's program. A verdict-hit winner is only now
    // parsed and lifted — identification is skipped entirely, its result
    // is the verdict's handler list.
    let program = match winner.program.take() {
        Some(p) => p,
        None => {
            let bytes = exes
                .iter()
                .find(|(p, _)| *p == winner.path)
                .map(|(_, b)| *b)
                .expect("winner path came from this executable list");
            match firmres_isa::Executable::from_bytes(bytes)
                .ok()
                .and_then(|exe| firmres_isa::lift(&exe, &winner.path).ok())
            {
                Some(p) => p,
                None => {
                    // The verdict claimed these exact bytes qualified, yet
                    // they no longer lift: the artifact lied. Degrade to
                    // an executable-less analysis and diagnose.
                    cache_diags.push(cache_diag(
                        winner.path.clone(),
                        "verdict-qualified executable failed to lift; verdict discarded".into(),
                    ));
                    let name = verdict_name(verdict_key(fw, &winner.path, bytes, config_fp));
                    let _ = std::fs::remove_file(cache.artifact_path(&name));
                    cache.note_removed_artifact(&name);
                    let analysis = cx.finish(None, Vec::new(), Vec::new());
                    let mut out = Vec::new();
                    codec::put_analysis(&mut out, &analysis);
                    flush_diags(observer, &cache_diags, &stats);
                    return Ok(UnitFunnelOutcome { bytes: out, stats });
                }
            }
        }
    };

    // Stages 2–5: plan units against the bank, run only the dirty ones.
    let units = enumerate_units(&program, &winner.handlers);
    let context_hash = program_context_hash(&program);
    let fn_hashes: BTreeMap<Address, u128> = program
        .functions()
        .map(|f| (f.entry(), function_content_hash(f)))
        .collect();
    let graph = program.call_graph();
    let bank = bank_key(fw, &winner.path, config_fp, classifier_fp);
    let mut stored = match read_bank(cache, bank) {
        Ok(Some((entries, bytes_read))) => {
            stats.bytes_read += bytes_read;
            entries
        }
        Ok(None) => BTreeMap::new(),
        Err(e) => {
            cache_diags.push(cache_diag(
                format!("{bank:032x}.fru"),
                format!("bank unusable, re-running all units: {}", e.0),
            ));
            BTreeMap::new()
        }
    };
    let locators: Vec<u128> = units
        .iter()
        .map(|u| unit_locator(fw, &winner.path, context_hash, u, config_fp, classifier_fp))
        .collect();
    let mut plan: Vec<Option<BankEntry>> = locators
        .iter()
        .map(|loc| {
            stored
                .remove(loc)
                .filter(|e| footprint_is_clean(e, &fn_hashes, &graph))
        })
        .collect();
    let dirty: Vec<usize> = plan
        .iter()
        .enumerate()
        .filter_map(|(i, p)| p.is_none().then_some(i))
        .collect();
    // Entries still in `stored` have locators no current unit claims:
    // their seeds vanished in the update. They only count toward the
    // rewrite decision below.
    let stale = stored.len();
    stats.unit_hits += (units.len() - dirty.len()) as u64;
    stats.unit_misses += dirty.len() as u64;

    let engine = TaintEngine::with_config(&program, config.taint.clone());
    let renderer = SliceRenderer::for_engine(&engine);
    // The classification cache is keyed by classifier fingerprint (a
    // text's label depends on the model), so images analyzed under the
    // same model share one corpus-wide cache while a model swap can
    // never replay stale labels.
    let classes = UnitClassifier::with_cache(
        classifier,
        config.taint.cold_path,
        cache.class_cache(classifier_fp),
    );
    let fresh = firmres::run_pool(dirty.len(), jobs, |j| {
        poll().ok()?;
        Some(run_message_unit(
            &engine,
            &renderer,
            &classes,
            &units[dirty[j]],
        ))
    });
    poll()?;
    let fresh: Vec<_> = fresh
        .into_iter()
        .collect::<Option<_>>()
        .expect("a token never un-trips, so a passing poll means no unit was skipped");

    // Fold fresh outputs into the plan, footprinting each from the taint
    // engine's recorded trace dependencies.
    for (&i, output) in dirty.iter().zip(fresh) {
        let unit = &units[i];
        let mut deps = TraceDeps::default();
        deps.funcs.insert(unit.function);
        for &(func, callsite, arg) in output.taint_keys() {
            if let Some(d) = engine.trace_deps(func, callsite, arg) {
                deps.merge(&d);
            }
        }
        let footprint = deps
            .funcs
            .iter()
            .map(|&a| (a, fn_hashes.get(&a).copied().unwrap_or(0)))
            .collect();
        let caller_enums = deps
            .caller_enums
            .iter()
            .map(|&a| (a, caller_edges_hash(&graph, a)))
            .collect();
        let mut record_bytes = Vec::new();
        codec::put_record(&mut record_bytes, &output.record);
        plan[i] = Some(BankEntry {
            footprint,
            caller_enums,
            slices_nonempty: !output.record.slices.is_empty(),
            taint_keys: output.taint_keys().to_vec(),
            events: output.events,
            record_bytes,
        });
    }
    let entries: Vec<(u128, BankEntry)> = locators
        .into_iter()
        .zip(plan.into_iter().map(|p| p.expect("every unit planned")))
        .collect();

    // Write-behind: rewriting the bank costs a full-file write, while
    // skipping it only means the next update re-runs today's few dirty
    // units again — far cheaper than the IO when the change is small.
    // Rewrite when at least a quarter of the stored state changed
    // (fresh or re-run entries plus dropped stale seeds); a cold run is
    // a 100% change and always persists.
    let drift = dirty.len() + stale;
    if drift > 0 && 4 * drift >= units.len() {
        // The rewrite keeps exactly the current units: entries whose
        // seeds vanished in the update are dropped here.
        match write_bank(cache, bank, &entries) {
            Ok(written) => stats.bytes_written += written,
            Err(e) => cache_diags.push(cache_diag(
                format!("{bank:032x}.fru"),
                format!("bank write failed: {e}"),
            )),
        }
    }

    // Merge: replay every unit's events in canonical order — identical
    // streams to a cold run — then splice the record bytes. The entries
    // are consumed: events and records move into the merge, no clones.
    let mut views = Vec::with_capacity(entries.len());
    let mut records = Vec::with_capacity(entries.len());
    for (_, e) in entries {
        views.push(UnitView {
            events: e.events,
            taint_keys: e.taint_keys,
            slices_nonempty: e.slices_nonempty,
        });
        records.push(e.record_bytes);
    }
    merge_unit_event_streams(&mut cx, &views, engine.lib_matched());

    let blobs: Vec<&[u8]> = records.iter().map(|r| r.as_slice()).collect();
    let mut bytes = Vec::new();
    codec::put_analysis_spliced(
        &mut bytes,
        Some(&winner.path),
        &winner.handlers,
        &blobs,
        cx.timings(),
        cx.counters(),
        cx.diagnostics(),
    );
    drop(cx);

    flush_diags(observer, &cache_diags, &stats);
    Ok(UnitFunnelOutcome { bytes, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::get_analysis;
    use firmres::{analyze_firmware, FirmwareAnalysis, NullObserver};
    use firmres_corpus::generate_device;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("firmres-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn funnel(fw: &FirmwareImage, cache: &AnalysisCache, jobs: usize) -> (Vec<u8>, UnitStats) {
        let out = analyze_image_units_incremental(
            fw,
            None,
            &AnalysisConfig::default(),
            jobs,
            cache,
            &mut NullObserver,
            None,
        )
        .expect("no cancellation token");
        (out.bytes, out.stats)
    }

    fn normalized(bytes: &[u8]) -> Vec<u8> {
        let mut a = get_analysis(&mut Reader::new(bytes)).expect("funnel bytes decode");
        a.timings = Default::default();
        let mut out = Vec::new();
        codec::put_analysis(&mut out, &a);
        out
    }

    fn encode_plain(a: &FirmwareAnalysis) -> Vec<u8> {
        let mut a2 = FirmwareAnalysis {
            executable: a.executable.clone(),
            handlers: a.handlers.clone(),
            messages: a.messages.clone(),
            timings: Default::default(),
            counters: a.counters,
            diagnostics: a.diagnostics.clone(),
        };
        a2.timings = Default::default();
        let mut out = Vec::new();
        codec::put_analysis(&mut out, &a2);
        out
    }

    #[test]
    fn cold_funnel_matches_plain_pipeline_byte_for_byte() {
        let cache = AnalysisCache::new(temp_dir("cold-identity"));
        for id in [6u8, 10, 21] {
            let dev = generate_device(id, 7);
            let (bytes, stats) = funnel(&dev.firmware, &cache, 1);
            let plain = analyze_firmware(&dev.firmware, None, &AnalysisConfig::default());
            assert_eq!(
                normalized(&bytes),
                encode_plain(&plain),
                "device {id} cold funnel output differs from the plain pipeline"
            );
            assert_eq!(stats.unit_hits, 0);
            assert_eq!(stats.verdict_hits, 0);
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn unchanged_rerun_reuses_every_unit_and_stays_byte_identical() {
        let cache = AnalysisCache::new(temp_dir("warm-identity"));
        let dev = generate_device(10, 7);
        let (cold, cold_stats) = funnel(&dev.firmware, &cache, 2);
        assert!(cold_stats.unit_misses > 0);
        let (warm, warm_stats) = funnel(&dev.firmware, &cache, 1);
        assert_eq!(
            warm_stats.unit_misses, 0,
            "nothing changed, nothing re-runs"
        );
        assert_eq!(warm_stats.unit_hits, cold_stats.unit_misses);
        assert_eq!(warm_stats.verdict_misses, 0);
        assert_eq!(warm_stats.reuse_rate(), 1.0);
        assert_eq!(normalized(&cold), normalized(&warm));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn hostile_artifacts_degrade_to_cold_run_with_cache_diagnostic() {
        let cache = AnalysisCache::new(temp_dir("hostile"));
        let dev = generate_device(10, 7);
        let (cold, _) = funnel(&dev.firmware, &cache, 1);

        // Mangle every unit artifact in the store.
        for entry in std::fs::read_dir(cache.dir()).unwrap() {
            let path = entry.unwrap().path();
            let ext = path.extension().and_then(|e| e.to_str());
            if let Some("fru" | "frv") = ext {
                let mut data = std::fs::read(&path).unwrap();
                let mid = data.len() / 2;
                data[mid] ^= 0xFF;
                std::fs::write(&path, &data).unwrap();
            }
        }
        let mut obs = firmres::CollectingObserver::default();
        let out = analyze_image_units_incremental(
            &dev.firmware,
            None,
            &AnalysisConfig::default(),
            1,
            &cache,
            &mut obs,
            None,
        )
        .unwrap();
        assert_eq!(out.stats.unit_hits, 0, "damaged bank serves nothing");
        assert_eq!(out.stats.verdict_hits, 0);
        assert!(
            obs.diagnostics
                .iter()
                .any(|d| d.stage == StageKind::Cache && d.severity == Severity::Warning),
            "damage is diagnosed: {:?}",
            obs.diagnostics
        );
        // The analysis itself is unperturbed by cache damage.
        assert_eq!(normalized(&cold), normalized(&out.bytes));
        let decoded = get_analysis(&mut Reader::new(&out.bytes)).unwrap();
        assert!(
            decoded
                .diagnostics
                .iter()
                .all(|d| d.stage != StageKind::Cache),
            "cache diagnostics never leak into the analysis"
        );

        // Truncated artifacts (checksum gone) likewise never panic.
        for entry in std::fs::read_dir(cache.dir()).unwrap() {
            let path = entry.unwrap().path();
            let ext = path.extension().and_then(|e| e.to_str());
            if let Some("fru" | "frv") = ext {
                let data = std::fs::read(&path).unwrap();
                std::fs::write(&path, &data[..data.len().min(9)]).unwrap();
            }
        }
        let (bytes, stats) = funnel(&dev.firmware, &cache, 1);
        assert_eq!(stats.unit_hits, 0);
        assert_eq!(normalized(&cold), normalized(&bytes));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn fingerprint_changes_invalidate_unit_artifacts() {
        let cache = AnalysisCache::new(temp_dir("fingerprints"));
        let dev = generate_device(10, 7);
        let (_, cold) = funnel(&dev.firmware, &cache, 1);
        assert!(cold.unit_misses > 0);

        // Config change: different fingerprint, different bank and
        // verdict keys — everything re-runs, exactly like image entries.
        let mut config = AnalysisConfig::default();
        config.taint.max_depth += 1;
        let out = analyze_image_units_incremental(
            &dev.firmware,
            None,
            &config,
            1,
            &cache,
            &mut NullObserver,
            None,
        )
        .unwrap();
        assert_eq!(out.stats.unit_hits, 0, "config flip must miss the bank");
        assert_eq!(out.stats.verdict_hits, 0, "config flip must miss verdicts");

        // Classifier change: banks miss; verdicts (stage 1 never reads
        // the classifier) are deliberately still served.
        use firmres_semantics::{Primitive, TrainConfig};
        let model = Classifier::train(
            &[
                ("mac address".to_string(), Primitive::DevIdentifier),
                ("password login".to_string(), Primitive::UserCred),
            ],
            &TrainConfig {
                epochs: 3,
                ..Default::default()
            },
        );
        let out = analyze_image_units_incremental(
            &dev.firmware,
            Some(&model),
            &AnalysisConfig::default(),
            1,
            &cache,
            &mut NullObserver,
            None,
        )
        .unwrap();
        assert_eq!(out.stats.unit_hits, 0, "classifier flip must miss the bank");
        assert!(out.stats.verdict_hits > 0, "verdicts are classifier-free");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// The funnel's bytes are canonical: re-encoding what they decode
    /// to reproduces them exactly, so a consumer may ship or store them
    /// in place of a fresh `put_analysis` of the decoded analysis. Holds
    /// for cold outputs, fully and partially spliced ones, the early
    /// return of an executable-less image, with and without a model.
    #[test]
    fn funnel_bytes_reencode_to_themselves() {
        use firmres_semantics::{Primitive, TrainConfig};
        let model = Classifier::train(
            &[
                ("mac address".to_string(), Primitive::DevIdentifier),
                ("password login".to_string(), Primitive::UserCred),
            ],
            &TrainConfig {
                epochs: 3,
                ..Default::default()
            },
        );
        let roundtrip = |bytes: &[u8]| {
            let mut out = Vec::new();
            codec::put_analysis(&mut out, &get_analysis(&mut Reader::new(bytes)).unwrap());
            out
        };
        for (tag, classifier) in [("bare", None), ("model", Some(&model))] {
            let cache = AnalysisCache::new(temp_dir(&format!("reencode-{tag}")));
            for id in [10u8, 14, 21] {
                let dev = generate_device(id, 7);
                let update = firmres_corpus::mutate_firmware(&dev.firmware, 5.0, 1).image;
                for (pass, fw) in [
                    ("cold", &dev.firmware),
                    ("warm", &dev.firmware),
                    ("update", &update),
                ] {
                    let out = analyze_image_units_incremental(
                        fw,
                        classifier,
                        &AnalysisConfig::default(),
                        1,
                        &cache,
                        &mut NullObserver,
                        None,
                    )
                    .unwrap();
                    if pass == "warm" && id != 21 {
                        assert!(
                            out.stats.unit_hits > 0,
                            "device {id} {tag}: warm pass splices"
                        );
                    }
                    assert_eq!(roundtrip(&out.bytes), out.bytes, "device {id} {tag} {pass}");
                }
            }
            let _ = std::fs::remove_dir_all(cache.dir());
        }
    }

    #[test]
    fn cancellation_is_surfaced() {
        let cache = AnalysisCache::new(temp_dir("cancel"));
        let dev = generate_device(10, 7);
        let token = CancelToken::new();
        token.cancel();
        let err = analyze_image_units_incremental(
            &dev.firmware,
            None,
            &AnalysisConfig::default(),
            1,
            &cache,
            &mut NullObserver,
            Some(&token),
        )
        .unwrap_err();
        assert_eq!(
            err,
            Error::Cancelled {
                deadline_exceeded: false
            }
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
