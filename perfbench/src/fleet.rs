//! The two batch workloads: `fleet-cold` and `fleet-update`.

use crate::measure::{latency_metrics, median, peak_rss_mb, process_cpu, ratio, Metric};
use crate::replay::{self, Layered, StorePath, WorkloadCounters};
use crate::truth::{canonical, fingerprint, guarded, PlanScore};
use crate::{remove_settled, timed_setup, Options, Report};
use firmres::{analyze_packed, run_pool, AnalysisConfig, FirmwareAnalysis, NullObserver};
use firmres_cache::{analyze_corpus_incremental, AnalysisCache, CacheStats};
use firmres_corpus::{mutate_firmware, synth_device, synth_device_with_libraries, SynthDevice};
use firmres_firmware::FirmwareImage;
use firmres_service::ServerConfig;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Percent of functions each update mutates.
pub const UPDATE_PERCENT: f64 = 1.0;

/// Synthesize devices `0..n` of the seeded fleet on `threads` workers.
pub fn synth_fleet(n: usize, seed: u64, threads: usize, libraries: bool) -> Vec<SynthDevice> {
    run_pool(n, threads, |i| {
        if libraries {
            synth_device_with_libraries(i as u32, seed)
        } else {
            synth_device(i as u32, seed)
        }
    })
}

/// A seed stream for pass `k` derived from the run seed.
fn derive_seed(seed: u64, k: u64) -> u64 {
    (seed ^ 0x9e37_79b9_7f4a_7c15)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9)
        .wrapping_add(k.wrapping_mul(0x94d0_49bb_1331_11eb))
}

/// Timing and outcome of one analysis inside a timed pass.
struct Timed<T> {
    wall: Duration,
    out: Option<T>,
}

/// Pass-level accumulators shared by both fleet workloads.
#[derive(Default)]
struct Passes {
    wall: Duration,
    cpu: Duration,
    /// Σ per-image wall time, for `driver.busy_share`.
    image_wall: Duration,
    latencies_ms: Vec<f64>,
    /// Images per second of each pass.
    pass_rates: Vec<f64>,
    ops: u64,
    passes: u64,
}

impl Passes {
    /// Run one timed pass of `count` analyses on `threads` workers.
    fn run<T: Send>(
        &mut self,
        count: usize,
        threads: usize,
        job: impl Fn(usize) -> T + Sync,
    ) -> Vec<Option<T>> {
        let cpu0 = process_cpu();
        let t = Instant::now();
        let outs: Vec<Timed<T>> = run_pool(count, threads, |i| {
            let t = Instant::now();
            let out = guarded(|| job(i));
            Timed {
                wall: t.elapsed(),
                out,
            }
        });
        let wall = t.elapsed();
        self.wall += wall;
        self.cpu += process_cpu().saturating_sub(cpu0);
        self.passes += 1;
        self.pass_rates
            .push(ratio(count as f64, wall.as_secs_f64()));
        outs.into_iter()
            .map(|o| {
                self.image_wall += o.wall;
                self.latencies_ms.push(o.wall.as_secs_f64() * 1e3);
                self.ops += 1;
                o.out
            })
            .collect()
    }

    fn busy_share(&self, threads: usize) -> f64 {
        ratio(
            self.image_wall.as_secs_f64(),
            self.wall.as_secs_f64() * threads as f64,
        )
    }

    /// The end-to-end metrics every fleet run reports: throughput is the
    /// median pass rate, latencies the median over windows of the
    /// per-image series (see [`latency_metrics`]).
    fn metrics(&self, setup: Metric, plans: &PlanScore) -> Vec<Metric> {
        let ops = self.ops as usize;
        let [p50, p99] = latency_metrics("latency_ms", &self.latencies_ms);
        vec![
            setup,
            Metric::over("throughput_per_s", median(&self.pass_rates), "1/s", ops),
            p50,
            p99,
            Metric::over(
                "message_recall",
                plans.recall(),
                "share",
                plans.planned as usize,
            ),
            Metric::over(
                "cpu_ms_per_op",
                ratio(self.cpu.as_secs_f64() * 1e3, self.ops as f64),
                "ms",
                ops,
            ),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    }
}

/// The share of the measured time the untraced workload gets: all of it,
/// or half in a traced run (the replay takes the other half).
pub fn workload_budget(opts: &Options) -> Duration {
    if opts.trace {
        opts.seconds / 2
    } else {
        opts.seconds
    }
}

/// `fleet-cold`: batch sweeps of one synthesized fleet over `nproc`
/// threads, no model, no index, no store. Every image runs the whole
/// pipeline (`analyze_packed`, which also unpacks), so the compute
/// layers do all the work. Sweeps repeat until the budget is spent.
/// Every image is scored against its device's message plans in every
/// sweep, and its canonical output must be the same in every sweep.
pub fn cold(opts: &Options) -> Report {
    let s = opts.sizes;
    let config = AnalysisConfig::default();
    let (fleet, setup) = timed_setup(s.setup_reps, || {
        synth_fleet(s.cold_fleet, opts.seed, opts.threads, false)
    });
    let mut report = Report::default();
    let mut passes = Passes::default();
    let mut first: Vec<Option<u64>> = Vec::new();
    let mut plans = PlanScore::default();
    let budget = workload_budget(opts);
    while passes.wall < budget {
        let outs = passes.run(fleet.len(), opts.threads, |i| {
            analyze_packed(&fleet[i].packed, None, &config)
        });
        // Untimed: score and fingerprint every output.
        let attempted = outs.len() as u64;
        let slots: Vec<Mutex<Option<FirmwareAnalysis>>> =
            outs.into_iter().map(Mutex::new).collect();
        let check = run_pool(slots.len(), opts.threads, |i| {
            let analysis = slots[i].lock().expect("slot lock").take();
            analysis.map(|a| {
                (
                    PlanScore::of(&fleet[i].plans, &a),
                    fingerprint(&canonical(a)),
                )
            })
        });
        let first_pass = first.is_empty();
        let (mut failed, mut mismatched) = (0, 0);
        for (i, c) in check.into_iter().enumerate() {
            let fp = match c {
                None => {
                    failed += 1;
                    None
                }
                Some((score, fp)) => {
                    if first_pass {
                        plans.add(score);
                    }
                    let drifted = !first_pass && first[i] != Some(fp);
                    if score.violated > 0 || drifted {
                        failed += 1;
                        mismatched += 1;
                    }
                    Some(fp)
                }
            };
            if first_pass {
                first.push(fp);
            }
        }
        report.tally(attempted, failed, mismatched);
    }
    report.notes.push(format!(
        "fleet {} devices (synth_device, seed {}), {} sweep(s) on {} thread(s), {} images",
        fleet.len(),
        opts.seed,
        passes.passes,
        opts.threads,
        passes.ops
    ));
    report.end_to_end = passes.metrics(setup, &plans);
    if opts.trace {
        let sample: Vec<&[u8]> = fleet
            .iter()
            .take(s.replay_images)
            .map(|d| d.packed.as_slice())
            .collect();
        let layered = Layered {
            packed: sample,
            classifier: None,
            config: config.clone(),
            client_config: config.clone(),
            shared_class_cache: false,
            server: ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
            store_path: StorePath::Image,
        };
        let counters = WorkloadCounters {
            busy_share: passes.busy_share(opts.threads),
            unit_reuse_ratio: 0.0,
            image_hit_ratio: 0.0,
            ops: passes.ops,
        };
        replay::traced(opts, &layered, &counters, &mut report);
    }
    report
}

/// `fleet-update`: set-up synthesizes a fleet, derives 1%-mutated
/// updates and primes a store with the previous versions. Each timed
/// pass re-analyzes a fresh set of updates (a new mutation seed per
/// pass, so every pass is a first sight of its images) one image per
/// `analyze_corpus_incremental` call on `nproc` threads. The first
/// pass's updates are all checked byte-for-byte against a plain
/// analysis computed untimed during set-up; later passes check every
/// `update_check_every`-th update.
pub fn update(opts: &Options) -> Report {
    let s = opts.sizes;
    let config = AnalysisConfig::default();
    let store_dir = opts.work_dir.join("update-store");
    let ((fleet, previous, cache), setup) = timed_setup(s.setup_reps, || {
        remove_settled(&store_dir);
        let fleet = synth_fleet(s.update_fleet, opts.seed, opts.threads, false);
        let previous: Vec<FirmwareImage> = fleet.iter().map(SynthDevice::unpack).collect();
        let cache = AnalysisCache::new(&store_dir);
        let refs: Vec<&FirmwareImage> = previous.iter().collect();
        analyze_corpus_incremental(
            &refs,
            None,
            &config,
            opts.threads,
            &cache,
            &mut NullObserver,
        );
        (fleet, previous, cache)
    });
    // Updates of the first `count` devices for pass `k`.
    let mutate_first = |k: u64, count: usize| -> Vec<FirmwareImage> {
        let seed = derive_seed(opts.seed, k);
        run_pool(count.min(previous.len()), opts.threads, |i| {
            mutate_firmware(&previous[i], UPDATE_PERCENT, seed ^ i as u64).image
        })
    };
    let mutate = |k: u64| mutate_first(k, previous.len());
    let reference = |images: &[FirmwareImage], pick: &(dyn Fn(usize) -> bool + Sync)| {
        run_pool(images.len(), opts.threads, |i| {
            pick(i).then(|| {
                guarded(|| {
                    fingerprint(&canonical(firmres::analyze_firmware(
                        &images[i], None, &config,
                    )))
                })
            })
        })
    };
    let mut updates = mutate(0);
    let mut expected = reference(&updates, &|_| true);

    let mut report = Report::default();
    let mut passes = Passes::default();
    let mut stats = CacheStats::default();
    let mut plans = PlanScore::default();
    let budget = workload_budget(opts);
    let mut k = 0u64;
    while passes.wall < budget {
        if k > 0 {
            updates = mutate(k);
            let every = s.update_check_every.max(1);
            let offset = k as usize % every;
            expected = reference(&updates, &|i| i % every == offset);
        }
        let outs = passes.run(updates.len(), opts.threads, |i| {
            analyze_corpus_incremental(&[&updates[i]], None, &config, 1, &cache, &mut NullObserver)
        });
        let mut failed = 0;
        let mut mismatched = 0;
        for (i, out) in outs.into_iter().enumerate() {
            let Some(mut out) = out else {
                failed += 1;
                continue;
            };
            add_stats(&mut stats, &out.stats);
            let analysis = out.analyses.pop().expect("one analysis per image");
            // A 1% mutation flips immediates only, so an update keeps its
            // device's message plans.
            let score = PlanScore::of(&fleet[i].plans, &analysis);
            if k == 0 {
                plans.add(score);
            }
            let differs = match &expected[i] {
                None => false,
                Some(Some(want)) => *want != fingerprint(&canonical(analysis)),
                Some(None) => true,
            };
            if score.violated > 0 || differs {
                failed += 1;
                mismatched += 1;
            }
        }
        report.tally(updates.len() as u64, failed, mismatched);
        k += 1;
    }
    report.notes.push(format!(
        "fleet {} devices (synth_device, seed {}), {}% mutated updates, {} pass(es) on {} thread(s); \
         units reused {}/{}, verdicts replayed {}/{}, image hits {}/{}",
        fleet.len(),
        opts.seed,
        UPDATE_PERCENT,
        passes.passes,
        opts.threads,
        stats.unit_hits,
        stats.unit_hits + stats.unit_misses,
        stats.verdict_hits,
        stats.verdict_hits + stats.verdict_misses,
        stats.hits,
        stats.hits + stats.misses,
    ));
    report.end_to_end = passes.metrics(setup, &plans);
    if opts.trace {
        // The traced half serves fresh updates of the sample through the
        // store the workload primed and ran against (seeds after every
        // workload pass's).
        let fresh = |pass: u64| mutate_first(k + pass, s.replay_images);
        let packed: Vec<Vec<u8>> = fresh(0).iter().map(|u| u.pack().to_vec()).collect();
        let layered = Layered {
            packed: packed.iter().map(Vec::as_slice).collect(),
            classifier: None,
            config: config.clone(),
            client_config: config.clone(),
            shared_class_cache: true,
            server: ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
            store_path: StorePath::Funnel {
                store: &cache,
                updates: &fresh,
            },
        };
        let counters = WorkloadCounters {
            busy_share: passes.busy_share(opts.threads),
            unit_reuse_ratio: stats.unit_reuse_rate(),
            image_hit_ratio: stats.hit_rate(),
            ops: passes.ops,
        };
        replay::traced(opts, &layered, &counters, &mut report);
    }
    report
}

fn add_stats(total: &mut CacheStats, s: &CacheStats) {
    total.hits += s.hits;
    total.misses += s.misses;
    total.unit_hits += s.unit_hits;
    total.unit_misses += s.unit_misses;
    total.verdict_hits += s.verdict_hits;
    total.verdict_misses += s.verdict_misses;
}
