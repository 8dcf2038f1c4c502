//! # firmres-perfbench
//!
//! One benchmark for the FIRMRES system, driven only through the
//! crates' public APIs. Three workloads stress different layers:
//!
//! * `fleet-cold` ([`fleet::cold`]) — batch sweeps of a synthesized
//!   fleet over `nproc` threads with no model, index or store: every
//!   image runs the five-stage pipeline from scratch.
//! * `fleet-update` ([`fleet::update`]) — 1%-mutated updates of a fleet
//!   re-analyzed through a store primed with the previous versions:
//!   store reads, unit splicing and the stage-1 re-probe do the work.
//! * `daemon-mixed` ([`daemon::mixed`]) — an in-process daemon in its
//!   deployed shape (trained model, known-library index, on-disk store,
//!   `nproc` workers) under two open-loop streams: warm repeats and
//!   never-seen images.
//!
//! Every run checks its outputs (see each workload) and reports the
//! end-to-end metrics of [`END_TO_END`]. A traced run ([`Options::trace`])
//! instead reports the per-layer metrics of [`PER_LAYER`], measured by
//! [`replay`]: the benchmark re-drives a sample of the workload's images
//! through each layer's public functions and times every call.
//!
//! Load comes from this one process: at most `nproc` worker threads
//! and two client connections.
#![forbid(unsafe_code)]

pub mod daemon;
pub mod fleet;
pub mod measure;
pub mod replay;
pub mod truth;

use measure::Metric;
use std::path::PathBuf;
use std::time::Duration;

/// End-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p99", "ms"),
    ("message_recall", "share"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run reports, with their units.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("firmware.unpack_ms", "ms"),
    ("isa.parse_ms", "ms"),
    ("isa.lift_ms", "ms"),
    ("exeid.identify_ms", "ms"),
    ("dataflow.taint_ms", "ms"),
    ("dataflow.queries", "count"),
    ("dataflow.memo_hit_ratio", "share"),
    ("libid.skip_ratio", "1/query"),
    ("mft.tree_ms", "ms"),
    ("mft.slice_ms", "ms"),
    ("mft.slices", "count"),
    ("mft.slice_kb", "KB"),
    ("concat.reconstruct_ms", "ms"),
    ("semantics.classify_ms", "ms"),
    ("semantics.prefilter_skip_ratio", "share"),
    ("semantics.class_cache_hit_ratio", "share"),
    ("formcheck.check_ms", "ms"),
    ("driver.busy_share", "share"),
    ("cache.key_ms", "ms"),
    ("cache.encode_ms", "ms"),
    ("cache.store_ms", "ms"),
    ("cache.load_ms", "ms"),
    ("cache.entry_kb", "KB"),
    ("cache.unit_reuse_ratio", "share"),
    ("cache.image_hit_ratio", "share"),
    ("service.warm_overhead_ms", "ms"),
    ("service.cold_overhead_ms", "ms"),
    ("service.response_kb", "KB"),
    ("trace.overhead_share", "share"),
];

/// The workloads, by their command-line names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold batch sweeps of a synthesized fleet.
    FleetCold,
    /// Incremental re-analysis of 1%-mutated updates.
    FleetUpdate,
    /// Mixed warm/cold open-loop traffic against the daemon.
    DaemonMixed,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::FleetCold,
        Workload::FleetUpdate,
        Workload::DaemonMixed,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetCold => "fleet-cold",
            Workload::FleetUpdate => "fleet-update",
            Workload::DaemonMixed => "daemon-mixed",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes and rates. [`Sizes::full`] is what the benchmark runs;
/// [`Sizes::smoke`] is a seconds-long miniature for the benchmark's own
/// tests.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// `fleet-cold` fleet size (swept repeatedly).
    pub cold_fleet: usize,
    /// `fleet-update` fleet size.
    pub update_fleet: usize,
    /// Every `n`-th update after the first pass is checked against a
    /// plain analysis (the first pass checks all of them).
    pub update_check_every: usize,
    /// `daemon-mixed`: images primed into the store during set-up, which
    /// the warm stream repeats.
    pub daemon_primed: usize,
    /// `daemon-mixed`: warm-stream arrival rate (requests per second).
    pub warm_rate: f64,
    /// `daemon-mixed`: cold-stream arrival rate (requests per second).
    pub cold_rate: f64,
    /// `daemon-mixed`: every `n`-th served payload is checked against a
    /// local analysis.
    pub daemon_check_every: usize,
    /// Devices of the fixed corpus the daemon's model trains on.
    pub train_devices: usize,
    /// Images the traced replay re-drives through each layer.
    pub replay_images: usize,
    /// Images the service probe of the traced run submits.
    pub probe_images: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn full() -> Sizes {
        Sizes {
            setup_reps: 3,
            cold_fleet: 600,
            update_fleet: 300,
            update_check_every: 16,
            daemon_primed: 96,
            warm_rate: 30.0,
            cold_rate: 8.0,
            daemon_check_every: 8,
            train_devices: 20,
            replay_images: 240,
            probe_images: 24,
        }
    }

    /// A miniature of every workload for the benchmark's own tests.
    pub fn smoke() -> Sizes {
        Sizes {
            setup_reps: 2,
            cold_fleet: 12,
            update_fleet: 8,
            update_check_every: 2,
            daemon_primed: 6,
            warm_rate: 40.0,
            cold_rate: 10.0,
            daemon_check_every: 2,
            train_devices: 3,
            replay_images: 4,
            probe_images: 3,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measured time of the run.
    pub seconds: Duration,
    /// Report per-layer metrics from a traced replay instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Input sizes and rates.
    pub sizes: Sizes,
    /// Worker threads and daemon workers (`nproc`).
    pub threads: usize,
    /// Scratch directory for stores and indexes; removed afterwards.
    pub work_dir: PathBuf,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (analyses, requests, checks of replays).
    pub attempted: u64,
    /// Operations that failed: panics, rejections, cancellations,
    /// wire/protocol errors and correctness mismatches.
    pub failed: u64,
    /// The subset of `failed` that are correctness mismatches.
    pub mismatches: u64,
    /// End-to-end metrics (the [`END_TO_END`] set plus workload-specific
    /// extras printed only in the human-readable report).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics of a traced run.
    pub per_layer: Vec<Metric>,
    /// Human-readable notes (sizes, rates, counters).
    pub notes: Vec<String>,
}

impl Report {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.mismatches == 0
    }

    /// Record `n` attempted operations of which `failed` failed and
    /// `mismatched` (a subset of `failed`) were wrong answers.
    pub fn tally(&mut self, n: u64, failed: u64, mismatched: u64) {
        self.attempted += n;
        self.failed += failed;
        self.mismatches += mismatched;
    }

    /// Look up a reported metric by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }

    /// The metrics the result object carries: [`PER_LAYER`] for a traced
    /// run, [`END_TO_END`] otherwise, in declaration order.
    pub fn declared(&self, trace: bool) -> Vec<Metric> {
        let (names, pool): (&[(&str, &str)], &[Metric]) = if trace {
            (&PER_LAYER, &self.per_layer)
        } else {
            (&END_TO_END, &self.end_to_end)
        };
        names
            .iter()
            .map(|(name, unit)| {
                let m = pool
                    .iter()
                    .find(|m| m.name == *name)
                    .unwrap_or_else(|| panic!("workload did not report {name}"));
                assert_eq!(m.unit, *unit, "unit of {name}");
                m.clone()
            })
            .collect()
    }

    /// The one-line JSON result object.
    pub fn result_json(&self, trace: bool) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            measure::metrics_json(&self.declared(trace))
        )
    }
}

/// Run one workload.
pub fn run(opts: &Options) -> Report {
    remove_settled(&opts.work_dir);
    std::fs::create_dir_all(&opts.work_dir).expect("create the benchmark work directory");
    let report = match opts.workload {
        Workload::FleetCold => fleet::cold(opts),
        Workload::FleetUpdate => fleet::update(opts),
        Workload::DaemonMixed => daemon::mixed(opts),
    };
    remove_settled(&opts.work_dir);
    report
}

/// Remove a scratch directory and wait for the filesystem to commit the
/// removal. Stores run to hundreds of megabytes; on a filesystem that
/// discards freed blocks at commit time, an uncommitted removal would
/// spend its IO inside the next timed section or the next run.
pub fn remove_settled(dir: &std::path::Path) {
    let _ = std::fs::remove_dir_all(dir);
    let parent = dir
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or(std::path::Path::new("."));
    if let Ok(handle) = std::fs::File::open(parent) {
        let _ = handle.sync_all();
    }
}

/// Median wall time of `reps` runs of `setup`, keeping the last result.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, Metric) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = std::time::Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), setup_metric(&times))
}

/// `setup_s`: the median of several set-up times, in seconds.
pub fn setup_metric(times: &[f64]) -> Metric {
    Metric::over("setup_s", measure::median(times), "s", times.len())
}
