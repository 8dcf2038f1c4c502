//! # firmres
//!
//! FIRMRES: automatic reconstruction of IoT device-cloud messages through
//! static firmware analysis — a full Rust reproduction of the DSN 2024
//! paper's pipeline (Fig. 3):
//!
//! 1. **Pinpoint device-cloud executables** ([`exeid`]): pair incoming
//!    (`recv`) and outgoing (`send`) anchor callsites on the call graph,
//!    score candidate handler sequences with the string-parsing factor
//!    `P_f = O_r / O` (Eq. 1), and keep asynchronously-invoked handlers.
//! 2. **Identify message fields**: backward inter-procedural taint from
//!    delivery callsites to field sources (`firmres-dataflow`).
//! 3. **Recover field semantics**: enriched code slices classified into
//!    the §II-B primitives (`firmres-mft` + `firmres-semantics`).
//! 4. **Concatenate message fields**: MFT simplification/inversion and
//!    format inference (`firmres-mft`).
//! 5. **Assess access control** ([`formcheck`], [`probe`]): message-form
//!    checks against the primitive compositions, hard-coded Dev-Secret
//!    tracking, and probing of the (simulated) vendor cloud.
//!
//! The pipeline is *staged* ([`stages`]): each step above is a stage
//! over a shared [`stages::AnalysisContext`] that accumulates
//! per-stage timings, work counters ([`StageCounters`]) and structured,
//! severity-tagged [`Diagnostic`]s, all streamed to a caller-supplied
//! [`Observer`]. The one-call entry point is [`analyze_firmware`]; see
//! also [`analyze_firmware_cancellable`] for an observed, cancellable run,
//! [`try_analyze_firmware`] for a fallible variant, [`analyze_packed`]
//! for packed containers, and [`analyze_corpus`] for parallel sweeps.
//!
//! # Examples
//!
//! ```
//! use firmres::{analyze_firmware, AnalysisConfig};
//! use firmres_corpus::generate_device;
//!
//! let device = generate_device(11, 7); // Teltonika RUT241
//! let analysis = analyze_firmware(&device.firmware, None, &AnalysisConfig::default());
//! assert!(analysis.executable.is_some(), "device-cloud executable found");
//! assert!(!analysis.messages.is_empty());
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod driver;
pub mod error;
pub mod exeid;
pub mod formcheck;
pub mod observe;
pub mod pipeline;
pub mod probe;
pub mod stages;

pub use cancel::CancelToken;
pub use driver::{analyze_corpus, run_pool, Parallelism};
pub use error::{Diagnostic, Error, Severity, StageKind};
pub use exeid::{identify_device_cloud, score_handlers, ExeIdConfig, HandlerInfo};
pub use formcheck::{check_message, FormFlaw, MessagePhase};
pub use observe::{
    CollectingObserver, Counter, Event, FnObserver, NullObserver, Observer, StageCounters,
    StageEvents,
};
pub use pipeline::{
    analyze_firmware, analyze_firmware_cancellable, analyze_firmware_jobs, analyze_packed,
    try_analyze_firmware, try_analyze_packed, AnalysisConfig, FirmwareAnalysis, MessageRecord,
    StageTimings,
};
pub use probe::{extract_endpoint, fill_message, probe_cloud, render_body, FilledMessage};
