//! The end-to-end FIRMRES pipeline (paper Fig. 3): entry points and
//! result types.
//!
//! The pipeline itself is staged — see [`crate::stages`] for the five
//! stages, the message-unit model and the shared [`AnalysisContext`].
//! One private driver runs stage 1, fans stages 2–5 out as message units
//! and merges them back; every entry point funnels through it:
//!
//! * [`analyze_firmware`] — infallible convenience entry point; failures
//!   degrade into [`Diagnostic`]s on the result.
//! * [`analyze_firmware_jobs`] — same, fanning the per-callsite message
//!   units out over up to `jobs` worker threads ([`crate::stages`]
//!   describes the unit model). `jobs = 1` runs inline, and the output
//!   is byte-identical at any job count.
//! * [`analyze_firmware_cancellable`] — same again, streaming events to
//!   an [`Observer`] and polling a [`CancelToken`] at every unit
//!   boundary.
//! * [`try_analyze_firmware`] — fallible variant returning
//!   [`Error::NoUsableExecutable`] when executables existed but none
//!   could be parsed and lifted.
//! * [`analyze_packed`] / [`try_analyze_packed`] — accept a packed
//!   firmware container and surface unpack failures as diagnostics or a
//!   typed [`Error`].
//!
//! [`AnalysisContext`]: crate::stages::AnalysisContext

use crate::cancel::CancelToken;
use crate::driver::run_pool;
use crate::error::{Diagnostic, Error, Severity, StageKind};
use crate::exeid::{ExeIdConfig, HandlerInfo};
use crate::formcheck::FormFlaw;
use crate::observe::{Counter, NullObserver, Observer, StageCounters};
use crate::stages::{
    enumerate_units, merge_unit_outputs, run_message_unit, AnalysisContext, ExeIdStage,
    UnitClassifier,
};
use firmres_dataflow::{TaintConfig, TaintEngine};
use firmres_firmware::FirmwareImage;
use firmres_ir::Address;
use firmres_mft::{CodeSlice, Mft, ReconstructedMessage};
use firmres_semantics::{Classifier, Primitive};
use std::time::Duration;

/// Pipeline configuration.
#[derive(Debug, Clone, Default)]
pub struct AnalysisConfig {
    /// Executable-identification tuning.
    pub exeid: ExeIdConfig,
    /// Taint-engine tuning (over-taint toggle lives here).
    pub taint: TaintConfig,
}

/// Cost of each pipeline stage (paper §V-E reports the same five
/// buckets).
///
/// `exeid` is wall-clock time. The unit-parallel stages 2–5 report the
/// **sum of per-unit thread time** (CPU time): with `jobs > 1` the
/// buckets exceed the stages' wall-clock span, but the values — and the
/// [`shares`](Self::shares) breakdown built on them — stay comparable
/// across job counts, which wall-clock would not.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Pinpointing device-cloud executables.
    pub exeid: Duration,
    /// Identifying message fields (taint analysis).
    pub field_identification: Duration,
    /// Recovering field semantics.
    pub semantics: Duration,
    /// Concatenating message fields.
    pub concatenation: Duration,
    /// Message-form checking.
    pub form_check: Duration,
}

impl StageTimings {
    /// Total pipeline time.
    pub fn total(&self) -> Duration {
        self.exeid
            + self.field_identification
            + self.semantics
            + self.concatenation
            + self.form_check
    }

    /// Per-stage share of the total, in the paper's reporting order.
    pub fn shares(&self) -> [f64; 5] {
        let total = self.total().as_secs_f64().max(1e-12);
        [
            self.exeid.as_secs_f64() / total,
            self.field_identification.as_secs_f64() / total,
            self.semantics.as_secs_f64() / total,
            self.concatenation.as_secs_f64() / total,
            self.form_check.as_secs_f64() / total,
        ]
    }
}

/// One reconstructed device-cloud message with its analysis artifacts.
#[derive(Debug, Clone)]
pub struct MessageRecord {
    /// Function containing the delivery callsite.
    pub function: String,
    /// The delivery callsite address.
    pub callsite: Address,
    /// The message field tree (original, pre-simplification).
    pub mft: Mft,
    /// Enriched code slices (one per field leaf).
    pub slices: Vec<CodeSlice>,
    /// Recovered primitive per slice (parallel to `slices`).
    pub slice_semantics: Vec<Primitive>,
    /// The reconstructed message, fields annotated with semantics.
    pub message: ReconstructedMessage,
    /// Whether the grouping step discarded it as LAN-addressed.
    pub lan_discarded: bool,
    /// Whether it was classified as a handler response (echo of received
    /// data) rather than a constructed device-cloud message.
    pub is_response_echo: bool,
    /// Message-form findings.
    pub flaws: Vec<FormFlaw>,
}

impl MessageRecord {
    /// Whether this record counts as an identified device-cloud message
    /// (not LAN-discarded, not a response echo).
    pub fn counts(&self) -> bool {
        !self.lan_discarded && !self.is_response_echo
    }
}

/// Full analysis result for one firmware image.
#[derive(Debug)]
pub struct FirmwareAnalysis {
    /// Path of the identified device-cloud executable, if any.
    pub executable: Option<String>,
    /// Scored handler information for the identified executable.
    pub handlers: Vec<HandlerInfo>,
    /// All reconstructed messages.
    pub messages: Vec<MessageRecord>,
    /// Per-stage timings.
    pub timings: StageTimings,
    /// Per-stage work counters.
    pub counters: StageCounters,
    /// Structured diagnostics: every degradation the pipeline took
    /// (skipped executables, lift failures, unresolved taint sources,
    /// classifier fallback), severity-tagged.
    pub diagnostics: Vec<Diagnostic>,
}

impl FirmwareAnalysis {
    /// Messages that count as identified (excludes LAN/echo records).
    pub fn identified(&self) -> impl Iterator<Item = &MessageRecord> {
        self.messages.iter().filter(|m| m.counts())
    }

    /// Total identified fields across counted messages.
    pub fn identified_fields(&self) -> usize {
        self.identified().map(|m| m.message.fields.len()).sum()
    }

    /// Messages flagged by the form check.
    pub fn flagged(&self) -> impl Iterator<Item = &MessageRecord> {
        self.identified().filter(|m| !m.flaws.is_empty())
    }

    /// The most serious diagnostic severity recorded, if any.
    pub fn worst_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Diagnostics at or above `severity`.
    pub fn diagnostics_at_least(&self, severity: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(move |d| d.severity >= severity)
    }
}

/// Analyze a firmware image end to end.
///
/// `classifier` is the trained semantics model; pass `None` to fall back
/// to keyword labeling (useful for quick runs — the benchmark harness
/// trains and passes a real model).
///
/// This entry point never fails: degradations (unparseable executables,
/// lift errors, unresolved taint sources, the keyword fallback) are
/// recorded as [`Diagnostic`]s on the result. Use [`try_analyze_firmware`]
/// for a typed error when nothing could be analyzed at all.
pub fn analyze_firmware(
    fw: &FirmwareImage,
    classifier: Option<&Classifier>,
    config: &AnalysisConfig,
) -> FirmwareAnalysis {
    analyze_firmware_jobs(fw, classifier, config, 1)
}

/// [`analyze_firmware`] with intra-image parallelism: the per-callsite
/// message units run on up to `jobs` worker threads.
///
/// `jobs` is a pure throughput knob — it is not part of
/// [`AnalysisConfig`] and does not enter the analysis-cache key, because
/// the result is byte-identical at any value (see [`crate::stages`] for
/// the determinism argument). `jobs <= 1` runs inline on the calling
/// thread.
pub fn analyze_firmware_jobs(
    fw: &FirmwareImage,
    classifier: Option<&Classifier>,
    config: &AnalysisConfig,
    jobs: usize,
) -> FirmwareAnalysis {
    match analyze_image(fw, classifier, config, jobs, &mut NullObserver, None) {
        Ok(analysis) => analysis,
        Err(e) => unreachable!("only a cancel token fails a run: {e}"),
    }
}

/// [`analyze_firmware_jobs`] streaming stage boundaries, counters and
/// diagnostics to `observer` as they happen, with cooperative
/// cancellation: the token is polled before stage 1, after it, and at
/// every message-unit boundary.
///
/// A run whose token never trips returns exactly what
/// [`analyze_firmware_jobs`] would — the token adds checks, never
/// different work — so served results stay byte-identical to local ones.
/// A tripped token abandons the remaining units and returns
/// [`Error::Cancelled`]; already-finished unit work is discarded, and
/// cancellation latency is bounded by the cost of one unit. This is the
/// serving layer's hook: the `firmres-service` daemon gives each
/// submitted job its own token (with the request deadline folded in) and
/// trips it on an explicit `Cancel`. Callers that only want the events
/// pass a fresh [`CancelToken::new`].
pub fn analyze_firmware_cancellable(
    fw: &FirmwareImage,
    classifier: Option<&Classifier>,
    config: &AnalysisConfig,
    jobs: usize,
    observer: &mut dyn Observer,
    cancel: &CancelToken,
) -> Result<FirmwareAnalysis, Error> {
    analyze_image(fw, classifier, config, jobs, observer, Some(cancel))
}

/// The one image driver every entry point funnels through.
///
/// Stage 1 (executable pinpointing) runs on the calling thread; stages
/// 2–5 are enumerated into message units, executed on the shared pool
/// ([`crate::run_pool`]), and merged back in canonical unit order, so the
/// observer sees the sequential event stream whatever `jobs` is. Without
/// a token the run cannot fail.
fn analyze_image(
    fw: &FirmwareImage,
    classifier: Option<&Classifier>,
    config: &AnalysisConfig,
    jobs: usize,
    observer: &mut dyn Observer,
    cancel: Option<&CancelToken>,
) -> Result<FirmwareAnalysis, Error> {
    let poll = || cancel.map_or(Ok(()), CancelToken::check);
    poll()?;
    let mut cx = AnalysisContext::new(fw, classifier, config, observer);
    let Some(chosen) = ExeIdStage::run(&mut cx) else {
        return Ok(cx.finish(None, Vec::new(), Vec::new()));
    };
    poll()?;
    let units = enumerate_units(&chosen.program, &chosen.handlers);
    let engine = TaintEngine::with_config(&chosen.program, config.taint.clone());
    let renderer = firmres_mft::SliceRenderer::for_engine(&engine);
    let classes = UnitClassifier::new(classifier, config.taint.cold_path);
    // Each worker polls the token at the unit boundary; a unit skipped by
    // a tripped token yields `None`.
    let outputs = run_pool(units.len(), jobs, |i| {
        poll().ok()?;
        Some(run_message_unit(&engine, &renderer, &classes, &units[i]))
    });
    poll()?;
    let outputs = outputs
        .into_iter()
        .collect::<Option<_>>()
        .expect("a token never un-trips, so a passing poll means no unit was skipped");
    let records = merge_unit_outputs(&mut cx, outputs, engine.lib_matched());
    Ok(cx.finish(Some(chosen.path), chosen.handlers, records))
}

/// Fallible [`analyze_firmware`].
///
/// Returns [`Error::NoUsableExecutable`] when the image contained at
/// least one executable entry but every one of them failed to parse or
/// lift. An image with no executables at all (e.g. the corpus's
/// script-based devices) is *not* an error: the analysis succeeds with
/// `executable: None`.
pub fn try_analyze_firmware(
    fw: &FirmwareImage,
    classifier: Option<&Classifier>,
    config: &AnalysisConfig,
) -> Result<FirmwareAnalysis, Error> {
    let analysis = analyze_firmware(fw, classifier, config);
    if analysis.executable.is_none() {
        let c = &analysis.counters;
        let tried = c[Counter::ExecutablesTried];
        if tried > 0 && c[Counter::ParseFailures] + c[Counter::LiftFailures] == tried {
            return Err(Error::NoUsableExecutable {
                tried: tried as usize,
                diagnostics: analysis.diagnostics,
            });
        }
    }
    Ok(analysis)
}

/// Analyze a *packed* firmware container (the raw bytes of
/// [`FirmwareImage::pack`]).
///
/// An unpack failure degrades into an empty analysis carrying one
/// error-severity [`StageKind::Input`] diagnostic.
pub fn analyze_packed(
    packed: &[u8],
    classifier: Option<&Classifier>,
    config: &AnalysisConfig,
) -> FirmwareAnalysis {
    match FirmwareImage::unpack(packed) {
        Ok(fw) => analyze_firmware(&fw, classifier, config),
        Err(e) => FirmwareAnalysis {
            executable: None,
            handlers: Vec::new(),
            messages: Vec::new(),
            timings: StageTimings::default(),
            counters: StageCounters::default(),
            diagnostics: vec![Diagnostic::bare(
                StageKind::Input,
                Severity::Error,
                format!("firmware unpack failed: {e}"),
            )],
        },
    }
}

/// Fallible [`analyze_packed`]: an unpack failure is returned as
/// [`Error::Firmware`].
pub fn try_analyze_packed(
    packed: &[u8],
    classifier: Option<&Classifier>,
    config: &AnalysisConfig,
) -> Result<FirmwareAnalysis, Error> {
    let fw = FirmwareImage::unpack(packed)?;
    try_analyze_firmware(&fw, classifier, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::CollectingObserver;
    use firmres_corpus::generate_device;

    #[test]
    fn analyzes_binary_device_end_to_end() {
        let dev = generate_device(10, 7);
        let analysis = analyze_firmware(&dev.firmware, None, &AnalysisConfig::default());
        assert_eq!(
            analysis.executable.as_deref(),
            dev.cloud_executable.as_deref()
        );
        let identified = analysis.identified().count();
        let expected = dev.plans.iter().filter(|p| !p.lan).count();
        assert_eq!(identified, expected, "one message per non-LAN plan");
        assert!(analysis.identified_fields() > 0);
        assert!(analysis.timings.total() > Duration::ZERO);
    }

    #[test]
    fn script_device_yields_no_executable() {
        let dev = generate_device(21, 7);
        let analysis = analyze_firmware(&dev.firmware, None, &AnalysisConfig::default());
        assert!(analysis.executable.is_none());
        assert!(analysis.messages.is_empty());
        // Not an error either: there was nothing to parse.
        assert!(try_analyze_firmware(&dev.firmware, None, &AnalysisConfig::default()).is_ok());
    }

    #[test]
    fn lan_messages_are_discarded() {
        // Devices with id % 4 == 2 carry one LAN-addressed message.
        let dev = generate_device(6, 7);
        let analysis = analyze_firmware(&dev.firmware, None, &AnalysisConfig::default());
        let lan = analysis.messages.iter().filter(|m| m.lan_discarded).count();
        assert_eq!(lan, 1, "the LAN sync message is filtered");
    }

    #[test]
    fn handler_echo_is_not_a_message() {
        let dev = generate_device(10, 7);
        let analysis = analyze_firmware(&dev.firmware, None, &AnalysisConfig::default());
        let echoes = analysis
            .messages
            .iter()
            .filter(|m| m.is_response_echo)
            .count();
        assert_eq!(echoes, 1, "the handler ack send");
    }

    #[test]
    fn vulnerable_messages_are_flagged_by_form_check() {
        let dev = generate_device(20, 7);
        let analysis = analyze_firmware(&dev.firmware, None, &AnalysisConfig::default());
        // Device 20's storage endpoints are identifier-only: their
        // messages lack authenticity primitives and must be flagged.
        let flagged: Vec<&MessageRecord> = analysis.flagged().collect();
        assert!(
            flagged.len() >= 3,
            "storage trio flagged, got {} flagged messages",
            flagged.len()
        );
    }

    #[test]
    fn timings_shares_sum_to_one() {
        let dev = generate_device(15, 7);
        let analysis = analyze_firmware(&dev.firmware, None, &AnalysisConfig::default());
        let shares = analysis.timings.shares();
        let sum: f64 = shares.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "shares sum to 1: {shares:?}");
    }

    #[test]
    fn counters_reflect_pipeline_work() {
        let dev = generate_device(10, 7);
        let analysis = analyze_firmware(&dev.firmware, None, &AnalysisConfig::default());
        let c = &analysis.counters;
        assert!(
            c[Counter::ExecutablesTried] >= 1,
            "at least the cloud agent was tried"
        );
        assert_eq!(c[Counter::ParseFailures], 0);
        assert_eq!(c[Counter::LiftFailures], 0);
        assert!(
            c[Counter::TaintQueries] >= analysis.messages.len() as u64,
            "one payload trace per delivery callsite at minimum"
        );
        assert!(c[Counter::SlicesRendered] > 0);
        assert!(c[Counter::FieldsMatched] > 0);
    }

    #[test]
    fn keyword_fallback_is_diagnosed() {
        let dev = generate_device(10, 7);
        let analysis = analyze_firmware(&dev.firmware, None, &AnalysisConfig::default());
        assert!(
            analysis
                .diagnostics
                .iter()
                .any(|d| d.stage == StageKind::Semantics && d.severity == Severity::Info),
            "running without a classifier is recorded: {:?}",
            analysis.diagnostics
        );
    }

    #[test]
    fn observer_sees_all_five_stages_in_order() {
        let dev = generate_device(10, 7);
        let mut obs = CollectingObserver::default();
        let analysis = analyze_firmware_cancellable(
            &dev.firmware,
            None,
            &AnalysisConfig::default(),
            1,
            &mut obs,
            &CancelToken::new(),
        )
        .expect("untripped token never fails the run");
        let kinds: Vec<StageKind> = obs.stages.iter().map(|(k, _)| *k).collect();
        assert_eq!(kinds, FIVE_STAGES);
        // The observer's view agrees with the result's own accounting.
        assert_eq!(obs.counters, analysis.counters);
        assert_eq!(obs.diagnostics, analysis.diagnostics);
        let observed_total: Duration = obs.stages.iter().map(|(_, d)| *d).sum();
        assert_eq!(observed_total, analysis.timings.total());
    }

    const FIVE_STAGES: [StageKind; 5] = [
        StageKind::ExeId,
        StageKind::FieldId,
        StageKind::Semantics,
        StageKind::Concat,
        StageKind::FormCheck,
    ];

    #[test]
    fn cancellable_run_with_untripped_token_matches_plain_analysis() {
        let config = AnalysisConfig::default();
        // Device 10 has handler echoes and flagged messages; 21 has no
        // executable at all.
        for id in [10, 21] {
            let dev = generate_device(id, 7);
            let plain = analyze_firmware(&dev.firmware, None, &config);
            for jobs in [1, 4] {
                let mut obs = CollectingObserver::default();
                let token = CancelToken::new();
                let cancellable = analyze_firmware_cancellable(
                    &dev.firmware,
                    None,
                    &config,
                    jobs,
                    &mut obs,
                    &token,
                )
                .expect("untripped token never fails the run");
                let at = format!("device {id}, jobs {jobs}");
                // Every field but the timings.
                assert_eq!(cancellable.executable, plain.executable, "{at}");
                assert_eq!(
                    format!("{:?}", cancellable.handlers),
                    format!("{:?}", plain.handlers),
                    "{at}"
                );
                assert_eq!(
                    format!("{:?}", cancellable.messages),
                    format!("{:?}", plain.messages),
                    "{at}"
                );
                assert_eq!(cancellable.counters, plain.counters, "{at}");
                assert_eq!(cancellable.diagnostics, plain.diagnostics, "{at}");
                // The observer saw the same run, stage by stage.
                let stages: Vec<StageKind> = obs.stages.iter().map(|(k, _)| *k).collect();
                let expected: &[StageKind] = if plain.executable.is_some() {
                    &FIVE_STAGES
                } else {
                    &FIVE_STAGES[..1]
                };
                assert_eq!(stages, expected, "{at}");
                assert_eq!(obs.counters, plain.counters, "{at}");
                assert_eq!(obs.diagnostics, plain.diagnostics, "{at}");
            }
        }
    }

    #[test]
    fn pre_tripped_token_cancels_before_any_work() {
        let dev = generate_device(10, 7);
        let token = CancelToken::new();
        token.cancel();
        let err = analyze_firmware_cancellable(
            &dev.firmware,
            None,
            &AnalysisConfig::default(),
            1,
            &mut NullObserver,
            &token,
        )
        .unwrap_err();
        assert_eq!(
            err,
            Error::Cancelled {
                deadline_exceeded: false
            }
        );
    }

    #[test]
    fn expired_deadline_reports_deadline_exceeded() {
        let dev = generate_device(10, 7);
        let token = CancelToken::with_deadline(Duration::ZERO);
        let err = analyze_firmware_cancellable(
            &dev.firmware,
            None,
            &AnalysisConfig::default(),
            1,
            &mut NullObserver,
            &token,
        )
        .unwrap_err();
        assert_eq!(
            err,
            Error::Cancelled {
                deadline_exceeded: true
            }
        );
    }

    #[test]
    fn packed_round_trip_matches_unpacked_analysis() {
        let dev = generate_device(15, 7);
        let packed = dev.firmware.pack();
        let a = analyze_packed(&packed, None, &AnalysisConfig::default());
        let b = analyze_firmware(&dev.firmware, None, &AnalysisConfig::default());
        assert_eq!(a.executable, b.executable);
        assert_eq!(a.identified().count(), b.identified().count());
        assert_eq!(a.identified_fields(), b.identified_fields());
    }

    #[test]
    fn truncated_packed_image_is_an_input_diagnostic() {
        let dev = generate_device(15, 7);
        let packed = dev.firmware.pack();
        let analysis = analyze_packed(
            &packed[..packed.len() / 2],
            None,
            &AnalysisConfig::default(),
        );
        assert!(analysis.executable.is_none());
        assert!(analysis.messages.is_empty());
        assert_eq!(analysis.worst_severity(), Some(Severity::Error));
        assert!(analysis
            .diagnostics
            .iter()
            .any(|d| d.stage == StageKind::Input));
        // The fallible variant surfaces the typed unpack error instead.
        let err = try_analyze_packed(&packed[..7], None, &AnalysisConfig::default());
        assert!(matches!(err, Err(Error::Firmware(_))));
    }
}
