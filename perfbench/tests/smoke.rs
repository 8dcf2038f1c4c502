//! The benchmark's own tests: a miniature of every workload, untraced
//! and traced, plus the replay-equals-pipeline check on a few devices.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use firmres::stages::UnitClassifier;
use firmres::{analyze_packed, AnalysisConfig};
use firmres_perfbench::measure::{Metric, Spans};
use firmres_perfbench::replay::{analyze_with_classes, replay_image, replay_matches};
use firmres_perfbench::truth::{canonical, PlanScore};
use firmres_perfbench::{daemon, run, Options, Report, Sizes, Workload, END_TO_END, PER_LAYER};
use firmres_semantics::ClassCache;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn work_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"))
}

fn smoke(workload: Workload, trace: bool) -> Report {
    let opts = Options {
        workload,
        seed: 3,
        seconds: Duration::from_millis(800),
        trace,
        sizes: Sizes::smoke(),
        threads: 2,
        work_dir: work_dir(&format!("{}-{}", workload.name(), u8::from(trace))),
    };
    run(&opts)
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn check_metrics(report: &Report, trace: bool) {
    let declared = if trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let metrics: Vec<Metric> = report.declared(trace);
    assert_eq!(metrics.len(), declared.len());
    for (m, (name, unit)) in metrics.iter().zip(declared) {
        assert!(valid_name(&m.name), "metric name {:?}", m.name);
        assert_eq!(m.name, *name);
        assert_eq!(m.unit, *unit, "{name} unit");
        assert!(m.value.is_finite(), "{name} = {}", m.value);
    }
    let json = report.result_json(trace);
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
    for (name, unit) in declared {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing from {json}"
        );
        assert!(json.contains(&format!("\"unit\": \"{unit}\"")));
    }
}

fn check_run(workload: Workload, trace: bool) {
    let report = smoke(workload, trace);
    assert!(
        report.correct(),
        "{} output checks: {report:?}",
        workload.name()
    );
    assert!(report.attempted > 0);
    check_metrics(&report, trace);
    let latency = report.metric("latency_ms_p50").expect("p50").value;
    assert!(latency > 0.0, "{} p50 {latency}", workload.name());
}

#[test]
fn fleet_cold_smoke() {
    check_run(Workload::FleetCold, false);
}

#[test]
fn fleet_update_smoke() {
    check_run(Workload::FleetUpdate, false);
}

#[test]
fn daemon_mixed_smoke() {
    let report = smoke(Workload::DaemonMixed, false);
    assert!(report.correct(), "{report:?}");
    check_metrics(&report, false);
    for name in ["warm_ms_p99", "cold_ms_p99", "behind_share", "failed_share"] {
        assert!(report.metric(name).is_some(), "{name}");
    }
    // The daemon keys its cache before it overlays the library index,
    // so every by-hash repeat is rejected: the benchmark must show it.
    assert!(
        report.failed > 0,
        "known index/cache-key defect not visible"
    );
}

#[test]
fn traced_runs_report_every_layer() {
    for workload in Workload::ALL {
        check_run(workload, true);
    }
}

#[test]
fn replay_reproduces_the_pipeline() {
    let dir = work_dir("replay-index");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let index = Arc::new(daemon::build_roster_index(&dir));
    let model = daemon::train_model(3);
    let plain = AnalysisConfig::default();
    let mut indexed = AnalysisConfig::default();
    indexed.taint.libid = firmres_dataflow::LibId::On;
    indexed.taint.lib_index = Some(index);
    let cache = Arc::new(ClassCache::new(0));
    for i in 0..4 {
        let devices = [
            (firmres_corpus::synth_device(i, 5), None, &plain),
            (
                firmres_corpus::synth_device_with_libraries(i, 5),
                Some(&model),
                &indexed,
            ),
        ];
        for (dev, classifier, config) in devices {
            let analysis = analyze_packed(&dev.packed, classifier, config);
            let shared =
                UnitClassifier::with_cache(classifier, config.taint.cold_path, Arc::clone(&cache));
            let cached = analyze_with_classes(&dev.packed, classifier, config, &shared).unwrap();
            assert!(
                canonical(cached) == canonical(analyze_packed(&dev.packed, classifier, config)),
                "device {i}: the shared-cache pipeline differs from analyze_packed"
            );
            let classes = UnitClassifier::new(classifier, config.taint.cold_path);
            let mut spans = Spans::default();
            let replayed = replay_image(&dev.packed, config, &classes, &mut spans).unwrap();
            assert!(
                replay_matches(&replayed, &analysis),
                "device {i}: replay differs from the pipeline"
            );
            assert!(spans.ms("dataflow.taint") > 0.0);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn plan_scores_catch_a_contradicted_plan() {
    let mut dev = firmres_corpus::synth_device(1, 3);
    let analysis = analyze_packed(&dev.packed, None, &AnalysisConfig::default());
    let score = PlanScore::of(&dev.plans, &analysis);
    assert_eq!(score.violated, 0, "{score:?}");
    assert!(score.found > 0 && score.found <= score.planned);
    // Claiming a cloud plan is LAN-addressed makes its identification
    // contradict the ground truth.
    let plan = dev.plans.iter_mut().find(|p| !p.lan).expect("a cloud plan");
    plan.lan = true;
    assert_eq!(PlanScore::of(&dev.plans, &analysis).violated, 1);
}
