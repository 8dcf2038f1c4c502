//! Known-library summary gate: Off-vs-On sweep of the `firmres-libid`
//! replay engine over a library-heavy synthetic fleet.
//!
//! Builds the roster `.flix` index from the in-tree fixture sources,
//! then analyzes the fleet cold twice — once with [`LibId::Off`] (full
//! taint traversal everywhere) and once with [`LibId::On`] plus the
//! index (hash-matched library functions replayed from recorded
//! summaries) — and verifies the two sweeps produce **byte-identical**
//! reports under the cache codec (timings zeroed — they measure, they
//! are not measured). The enforced floor applies to the field
//! identification stage time — the taint traversal replay removes work
//! from. Semantics renders slices from the (byte-identical) taint
//! trees, so it cannot move and is reported for context only, as is
//! whole-pipeline wall clock.
//!
//! Usage:
//! `cargo run --release -p firmres-bench --bin libid_bench [out.json] [min-speedup]`
//!
//! Exits non-zero when any device's summary-replay report differs from
//! its full-traversal report, or when the taint-stage speedup falls
//! below `min-speedup` (no floor is enforced when the argument is
//! omitted; `scripts/check.sh` passes the 1.3× acceptance floor).

use firmres::{analyze_firmware, AnalysisConfig, Counter, FirmwareAnalysis, StageTimings};
use firmres_cache::codec;
use firmres_corpus::{synth_corpus_with_libraries, SynthConfig};
use firmres_dataflow::{LibId, LibIndex};
use firmres_firmware::FirmwareImage;
use std::sync::Arc;
use std::time::Instant;

/// The cache codec's bytes for `analysis` with timings zeroed: the
/// strictest observable-equality check available.
fn canonical_bytes(mut analysis: FirmwareAnalysis) -> Vec<u8> {
    analysis.timings = Default::default();
    // The three libid counters meter the replay engine itself, so they
    // are nonzero only in the On sweep by construction; every other
    // counter and every analysis section must still match bit for bit.
    analysis.counters[Counter::LibFnsMatched] = 0;
    analysis.counters[Counter::LibTraversalsSkipped] = 0;
    analysis.counters[Counter::LibSummaryApplies] = 0;
    let mut out = Vec::new();
    codec::put_analysis(&mut out, &analysis);
    out
}

/// Assemble the roster fixture libraries in a scratch directory and
/// index them, so the bench exercises the same builder path operators
/// use. The scratch directory is removed before returning.
fn build_roster_index() -> LibIndex {
    let dir = std::env::temp_dir().join(format!("firmres-libid-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create fixture dir");
    for k in 0..firmres_corpus::ROSTER.len() {
        let path = dir.join(firmres_corpus::library_fixture_file(k));
        std::fs::write(&path, firmres_corpus::library_fixture_source(k)).expect("write fixture");
    }
    let (index, report) =
        firmres_libid::build_index_from_dir(&dir).expect("index the roster fixtures");
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!(
        "indexed {} roster function(s) ({} role(s) refused), fingerprint {:016x}",
        report.indexed(),
        report.rejected_roles(),
        index.fingerprint()
    );
    index
}

struct Sweep {
    /// Wall-clock of the whole corpus sweep, milliseconds.
    wall_ms: f64,
    /// Field-identification (taint traversal) stage time, ms.
    taint_ms: f64,
    /// Semantics stage time (context only; replay cannot move it), ms.
    semantics_ms: f64,
    /// Per-stage timing totals across all devices.
    totals: StageTimings,
    /// Canonical report bytes per device.
    reports: Vec<Vec<u8>>,
}

/// One cold sweep over the fleet: every device analyzed from scratch on
/// the calling thread, with or without the library index.
fn sweep(fleet: &[FirmwareImage], index: Option<&Arc<LibIndex>>) -> Sweep {
    let mut config = AnalysisConfig::default();
    if let Some(index) = index {
        config.taint.libid = LibId::On;
        config.taint.lib_index = Some(Arc::clone(index));
    }
    let mut totals = StageTimings::default();
    let mut reports = Vec::with_capacity(fleet.len());
    let t = Instant::now();
    for fw in fleet {
        let analysis = analyze_firmware(fw, None, &config);
        let timings = analysis.timings;
        totals.exeid += timings.exeid;
        totals.field_identification += timings.field_identification;
        totals.semantics += timings.semantics;
        totals.concatenation += timings.concatenation;
        totals.form_check += timings.form_check;
        reports.push(canonical_bytes(analysis));
    }
    Sweep {
        wall_ms: t.elapsed().as_secs_f64() * 1e3,
        taint_ms: totals.field_identification.as_secs_f64() * 1e3,
        semantics_ms: totals.semantics.as_secs_f64() * 1e3,
        totals,
        reports,
    }
}

/// Best-of-`reps` sweep ranked by taint-stage time (the gated number;
/// the reports are deterministic, so every rep encodes identically).
fn best_sweep(fleet: &[FirmwareImage], index: Option<&Arc<LibIndex>>, reps: usize) -> Sweep {
    let mut best: Option<Sweep> = None;
    for _ in 0..reps {
        let s = sweep(fleet, index);
        best = match best {
            Some(b) if b.taint_ms <= s.taint_ms => Some(b),
            _ => Some(s),
        };
    }
    best.expect("reps >= 1")
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_libid.json".to_string());
    let min_speedup: Option<f64> = std::env::args().nth(2).map(|s| {
        s.parse()
            .unwrap_or_else(|_| panic!("min-speedup must be a number, got {s:?}"))
    });

    eprintln!("building roster index…");
    let index = Arc::new(build_roster_index());

    eprintln!("synthesizing library-heavy fleet…");
    let fleet: Vec<FirmwareImage> = synth_corpus_with_libraries(&SynthConfig {
        count: 200,
        seed: 7,
    })
    .iter()
    .map(|dev| FirmwareImage::unpack(&dev.packed).expect("unpack synth device"))
    .collect();

    // Warm the allocator / page cache so the first timed sweep is not
    // penalized for going first.
    eprintln!("warmup sweep…");
    let _ = sweep(&fleet, Some(&index));

    let reps = 3;
    eprintln!(
        "full-traversal sweep: {} devices × {reps} reps…",
        fleet.len()
    );
    let off = best_sweep(&fleet, None, reps);
    eprintln!(
        "summary-replay sweep: {} devices × {reps} reps…",
        fleet.len()
    );
    let on = best_sweep(&fleet, Some(&index), reps);

    let speedup = off.taint_ms / on.taint_ms.max(1e-9);
    let wall_speedup = off.wall_ms / on.wall_ms.max(1e-9);
    let mut failures = 0;
    let mut identical = true;
    for (i, (r, o)) in off.reports.iter().zip(&on.reports).enumerate() {
        if r != o {
            eprintln!("FAIL: device {i} summary-replay report differs from full traversal");
            identical = false;
            failures += 1;
        }
    }
    if let Some(floor) = min_speedup {
        if speedup < floor {
            eprintln!("FAIL: {speedup:.2}x field-id (taint) speedup is below the {floor}x floor");
            failures += 1;
        }
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"libid_summary_replay\",\n",
            "  \"devices\": {devices},\n",
            "  \"indexed_functions\": {indexed},\n",
            "  \"threads\": 1,\n",
            "  \"reps\": {reps},\n",
            "  \"off\": {{ \"wall_ms\": {off_ms:.3}, \"taint_ms\": {off_taint:.3}, \"semantics_ms\": {off_sem:.3}, \"stage_total_ms\": {off_total:.3} }},\n",
            "  \"on\": {{ \"wall_ms\": {on_ms:.3}, \"taint_ms\": {on_taint:.3}, \"semantics_ms\": {on_sem:.3}, \"stage_total_ms\": {on_total:.3} }},\n",
            "  \"taint_speedup\": {speedup:.2},\n",
            "  \"wall_speedup\": {wall_speedup:.2},\n",
            "  \"byte_identical\": {identical}\n",
            "}}\n"
        ),
        devices = fleet.len(),
        indexed = index.len(),
        reps = reps,
        off_ms = off.wall_ms,
        off_taint = off.taint_ms,
        off_sem = off.semantics_ms,
        off_total = off.totals.total().as_secs_f64() * 1e3,
        on_ms = on.wall_ms,
        on_taint = on.taint_ms,
        on_sem = on.semantics_ms,
        on_total = on.totals.total().as_secs_f64() * 1e3,
        speedup = speedup,
        wall_speedup = wall_speedup,
        identical = identical,
    );
    std::fs::write(&out_path, &json).expect("write benchmark output");

    println!(
        "libid: taint off {:.1} ms | on {:.1} ms | {speedup:.2}x (wall {wall_speedup:.2}x) | byte-identical: {identical}",
        off.taint_ms, on.taint_ms
    );
    println!("wrote {out_path}");
    if failures > 0 {
        std::process::exit(1);
    }
}
