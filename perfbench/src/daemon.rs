//! `daemon-mixed`: an in-process daemon in its deployed shape under two
//! open-loop request streams.

use crate::fleet::{synth_fleet, workload_budget};
use crate::measure::{latency_metrics, peak_rss_mb, process_cpu, ratio, Metric};
use crate::replay::{self, Layered, StorePath, WorkloadCounters};
use crate::truth::{canonical, canonical_payload, guarded, PlanScore};
use crate::{remove_settled, setup_metric, Options, Report};
use firmres::{analyze_firmware, run_pool, AnalysisConfig};
use firmres_corpus::SynthDevice;
use firmres_dataflow::{LibId, LibIndex};
use firmres_firmware::content_hash_packed_wide;
use firmres_semantics::Classifier;
use firmres_service::{Client, ClientError, Server, ServerConfig, ServiceStatus, SubmitImage};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A send that starts this long after its scheduled time counts as late.
const LATE: Duration = Duration::from_millis(1);

/// Train the deployed semantics model the way `firmres-cli train` does:
/// weak-labeled slices of the fixed evaluation corpus, seed 7.
pub fn train_model(devices: usize) -> Classifier {
    let corpus = firmres_corpus::generate_corpus(7);
    let analyses: Vec<_> = corpus
        .iter()
        .filter(|d| d.cloud_executable.is_some())
        .take(devices.max(1))
        .map(|d| {
            (
                d,
                analyze_firmware(&d.firmware, None, &AnalysisConfig::default()),
            )
        })
        .collect();
    let dataset = firmres_bench::build_slice_dataset(&analyses);
    firmres_bench::train_semantics_model(&dataset, 7).0
}

/// Build the roster `.flix` index from the in-tree library fixtures,
/// write it under `dir`, and load it back as the daemon would.
pub fn build_roster_index(dir: &Path) -> LibIndex {
    let libs = dir.join("libs");
    std::fs::create_dir_all(&libs).expect("create the fixture directory");
    for k in 0..firmres_corpus::ROSTER.len() {
        let path = libs.join(firmres_corpus::library_fixture_file(k));
        std::fs::write(&path, firmres_corpus::library_fixture_source(k)).expect("write a fixture");
    }
    let (index, _) = firmres_libid::build_index_from_dir(&libs).expect("index the roster");
    let path = dir.join("roster.flix");
    firmres_libid::write_index(&path, &index).expect("write the index");
    firmres_libid::load_index(&path).expect("load the index")
}

/// A running in-process daemon.
struct Daemon {
    addr: SocketAddr,
    thread: JoinHandle<ServiceStatus>,
}

impl Daemon {
    fn start(cfg: ServerConfig) -> Daemon {
        let server = Server::bind("127.0.0.1:0", cfg).expect("bind the daemon");
        let addr = server.local_addr().expect("daemon address");
        Daemon {
            addr,
            thread: std::thread::spawn(move || server.run()),
        }
    }

    /// Drain and join.
    fn stop(self) {
        if let Ok(mut c) = Client::connect(self.addr) {
            let _ = c.drain();
        }
        self.thread.join().expect("daemon thread");
    }
}

/// Everything set-up builds.
struct Deployment {
    fleet: Vec<SynthDevice>,
    model: Classifier,
    index: Arc<LibIndex>,
    server: ServerConfig,
    daemon: Daemon,
}

/// One open-loop stream's outcome.
#[derive(Default)]
struct Stream {
    latencies_ms: Vec<f64>,
    /// Σ send-to-reply time of completed requests.
    busy: Duration,
    sent: u64,
    completed: u64,
    late: u64,
    rejected: u64,
    cancelled: u64,
    wire_errors: u64,
    protocol_errors: u64,
    /// (fleet index, canonical payload) of the sampled replies.
    sampled: Vec<(usize, Vec<u8>)>,
    /// The first reply for each image, scored against its plans.
    plans: PlanScore,
    /// First replies that contradict their device's plans.
    violating: u64,
}

impl Stream {
    fn failed(&self) -> u64 {
        self.rejected + self.cancelled + self.wire_errors + self.protocol_errors
    }
}

/// Send `items` (fleet index, image) in order at `rate` per second over
/// one connection until `budget` has elapsed since `start`; latency
/// counts from each request's scheduled send, so a stall is charged to
/// every request it delays.
fn open_loop(
    addr: SocketAddr,
    items: &[(usize, SubmitImage)],
    fleet: &[SynthDevice],
    rate: f64,
    start: Instant,
    budget: Duration,
    check_every: usize,
) -> Stream {
    let mut s = Stream::default();
    let Ok(mut client) = Client::connect(addr) else {
        s.wire_errors += 1;
        s.sent += 1;
        return s;
    };
    let config = AnalysisConfig::default();
    let mut seen = std::collections::HashSet::new();
    for (k, (idx, image)) in items.iter().cycle().enumerate() {
        let due = start + Duration::from_secs_f64(k as f64 / rate);
        if due.duration_since(start) >= budget {
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        } else if now - due > LATE {
            s.late += 1;
        }
        s.sent += 1;
        let sent_at = Instant::now();
        let reply = client.submit(image.clone(), &config, false, 0);
        let done = Instant::now();
        match reply {
            Ok(served) => {
                s.completed += 1;
                s.busy += done - sent_at;
                s.latencies_ms.push((done - due).as_secs_f64() * 1e3);
                if seen.insert(*idx) {
                    let score = PlanScore::of(&fleet[*idx].plans, &served.analysis);
                    s.violating += u64::from(score.violated > 0);
                    s.plans.add(score);
                }
                // Counted over replies, not sends: the warm stream
                // alternates forms, and a send-indexed sample would land
                // on one form only.
                if (s.completed - 1) % check_every.max(1) as u64 == 0 {
                    s.sampled
                        .push((*idx, canonical_payload(&served.payload).unwrap_or_default()));
                }
            }
            Err(ClientError::Rejected(_)) => s.rejected += 1,
            Err(ClientError::Cancelled { .. }) => s.cancelled += 1,
            Err(ClientError::Protocol(_)) => s.protocol_errors += 1,
            Err(ClientError::Wire(_)) => {
                s.wire_errors += 1;
                match Client::connect(addr) {
                    Ok(c) => client = c,
                    Err(_) => break,
                }
            }
        }
    }
    s
}

/// `daemon-mixed`: set-up trains the model, builds and loads the roster
/// index, starts a daemon (`nproc` workers, on-disk store, model and
/// index) and primes it by bytes with the first `daemon_primed` images
/// of a library-linking fleet. Traffic is open loop on two connections:
/// a warm stream repeating primed images, alternating submit-by-hash
/// and submit-by-bytes, and a cold stream of never-seen images by bytes.
/// Every `daemon_check_every`-th reply is compared byte-for-byte, after
/// the traffic, with a local analysis under the daemon's effective
/// configuration.
///
/// With an index deployed, the daemon keys its cache lookup before it
/// overlays the index onto the job's configuration, so every by-hash
/// repeat is rejected as `UnknownImage` and every by-bytes repeat runs
/// again. Those rejections are counted as failed operations.
pub fn mixed(opts: &Options) -> Report {
    let s = opts.sizes;
    let budget = workload_budget(opts);
    let cold_images = (s.cold_rate * budget.as_secs_f64()).ceil() as usize + 1;
    let fleet_size = s.daemon_primed + cold_images;
    let store = opts.work_dir.join("daemon-store");
    let deploy = || {
        let fleet = synth_fleet(fleet_size, opts.seed, opts.threads, true);
        let model = train_model(s.train_devices);
        let index = Arc::new(build_roster_index(&opts.work_dir));
        let server = ServerConfig {
            workers: opts.threads,
            cache_dir: Some(store.clone()),
            classifier: Some(model.clone()),
            lib_index: Some(Arc::clone(&index)),
            ..ServerConfig::default()
        };
        let daemon = Daemon::start(server.clone());
        let conns = opts.threads.clamp(1, 2);
        run_pool(conns, conns, |c| {
            let mut client = Client::connect(daemon.addr).expect("connect to prime");
            for i in (c..s.daemon_primed).step_by(conns) {
                let image = SubmitImage::Bytes(fleet[i].packed.clone());
                client
                    .submit(image, &AnalysisConfig::default(), false, 0)
                    .expect("prime the store");
            }
        });
        Deployment {
            fleet,
            model,
            index,
            server,
            daemon,
        }
    };
    // Each set-up starts from nothing; stopping the previous daemon and
    // clearing its store are not part of the next set-up's time.
    let mut times = Vec::new();
    let mut dep: Option<Deployment> = None;
    for _ in 0..s.setup_reps.max(1) {
        if let Some(old) = dep.take() {
            old.daemon.stop();
        }
        remove_settled(&store);
        let t = Instant::now();
        dep = Some(deploy());
        times.push(t.elapsed().as_secs_f64());
    }
    let dep = dep.expect("at least one set-up");
    let setup = setup_metric(&times);

    let warm_items: Vec<(usize, SubmitImage)> = (0..s.daemon_primed)
        .flat_map(|i| {
            let packed = &dep.fleet[i].packed;
            [
                (i, SubmitImage::Hash(content_hash_packed_wide(packed))),
                (i, SubmitImage::Bytes(packed.clone())),
            ]
        })
        .collect();
    let cold_items: Vec<(usize, SubmitImage)> = (s.daemon_primed..dep.fleet.len())
        .map(|i| (i, SubmitImage::Bytes(dep.fleet[i].packed.clone())))
        .collect();

    let cpu0 = process_cpu();
    let start = Instant::now() + Duration::from_millis(5);
    let (warm, cold) = std::thread::scope(|scope| {
        let addr = dep.daemon.addr;
        let fleet = &dep.fleet;
        let (warm_items, cold_items) = (&warm_items, &cold_items);
        let warm = scope.spawn(move || {
            open_loop(
                addr,
                warm_items,
                fleet,
                s.warm_rate,
                start,
                budget,
                s.daemon_check_every,
            )
        });
        let cold = scope.spawn(move || {
            open_loop(
                addr,
                cold_items,
                fleet,
                s.cold_rate,
                start,
                budget,
                s.daemon_check_every,
            )
        });
        (
            warm.join().expect("warm stream"),
            cold.join().expect("cold stream"),
        )
    });
    let wall = start.elapsed();
    let cpu = process_cpu().saturating_sub(cpu0);
    let status = Client::connect(dep.daemon.addr)
        .and_then(|mut c| c.status())
        .unwrap_or_default();
    dep.daemon.stop();

    // Untimed: the sampled replies against local analyses under the
    // daemon's effective configuration.
    let mut effective = AnalysisConfig::default();
    effective.taint.libid = LibId::On;
    effective.taint.lib_index = Some(Arc::clone(&dep.index));
    let sampled: Vec<&(usize, Vec<u8>)> = warm.sampled.iter().chain(&cold.sampled).collect();
    let verdicts = run_pool(sampled.len(), opts.threads, |j| {
        let (i, served) = sampled[j];
        guarded(|| {
            let fw = dep.fleet[*i].unpack();
            canonical(analyze_firmware(&fw, Some(&dep.model), &effective)) == *served
        })
        .unwrap_or(false)
    });
    let payload_mismatches = verdicts.iter().filter(|ok| !**ok).count() as u64;
    let mismatched = payload_mismatches + warm.violating + cold.violating;

    let mut report = Report::default();
    let sent = warm.sent + cold.sent;
    let failed = warm.failed() + cold.failed();
    report.tally(sent, failed + mismatched, mismatched);
    let completed = warm.completed + cold.completed;
    let mut plans = warm.plans;
    plans.add(cold.plans);
    let all: Vec<f64> = warm
        .latencies_ms
        .iter()
        .chain(&cold.latencies_ms)
        .copied()
        .collect();
    let [p50, p99] = latency_metrics("latency_ms", &all);
    let [warm50, warm99] = latency_metrics("warm_ms", &warm.latencies_ms);
    let [cold50, cold99] = latency_metrics("cold_ms", &cold.latencies_ms);
    let secs = wall.as_secs_f64();
    report.end_to_end = vec![
        setup,
        Metric::over(
            "throughput_per_s",
            ratio(completed as f64, secs),
            "1/s",
            completed as usize,
        ),
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
            ratio(cpu.as_secs_f64() * 1e3, completed as f64),
            "ms",
            completed as usize,
        ),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        warm50,
        warm99,
        cold50,
        cold99,
        Metric::over(
            "behind_share",
            ratio((warm.late + cold.late) as f64, sent as f64),
            "share",
            sent as usize,
        ),
        Metric::over(
            "failed_share",
            ratio(report.failed as f64, report.attempted as f64),
            "share",
            report.attempted as usize,
        ),
    ];
    report.notes.push(format!(
        "fleet {} devices (synth_device_with_libraries, seed {}), {} primed; daemon {} worker(s), \
         model + roster index + store; warm {:.0}/s (hash/bytes alternating), cold {:.0}/s",
        dep.fleet.len(),
        opts.seed,
        s.daemon_primed,
        opts.threads,
        s.warm_rate,
        s.cold_rate,
    ));
    for (name, st) in [("warm", &warm), ("cold", &cold)] {
        report.notes.push(format!(
            "{name} stream: sent {} completed {} late {} | rejected {} cancelled {} wire {} protocol {}",
            st.sent,
            st.completed,
            st.late,
            st.rejected,
            st.cancelled,
            st.wire_errors,
            st.protocol_errors
        ));
    }
    report.notes.push(format!(
        "daemon status: cache {} hit / {} miss, units {} spliced / {} re-run, libid {} matched / {} skipped, \
         {} rejected; payload checks {} ({} mismatched); first replies contradicting plans {}",
        status.cache_hits,
        status.cache_misses,
        status.unit_hits,
        status.unit_misses,
        status.lib_fns_matched,
        status.lib_traversals_skipped,
        status.jobs_rejected,
        verdicts.len(),
        payload_mismatches,
        warm.violating + cold.violating,
    ));
    if opts.trace {
        let sample: Vec<&[u8]> = dep
            .fleet
            .iter()
            .skip(s.daemon_primed)
            .chain(&dep.fleet)
            .take(s.replay_images)
            .map(|d| d.packed.as_slice())
            .collect();
        let mut server = dep.server.clone();
        server.cache_dir = None;
        let layered = Layered {
            packed: sample,
            classifier: Some(&dep.model),
            config: effective.clone(),
            client_config: AnalysisConfig::default(),
            shared_class_cache: true,
            server,
            store_path: StorePath::Image,
        };
        let counters = WorkloadCounters {
            busy_share: ratio(
                (warm.busy + cold.busy).as_secs_f64(),
                secs * opts.threads as f64,
            ),
            unit_reuse_ratio: ratio(
                status.unit_hits as f64,
                (status.unit_hits + status.unit_misses) as f64,
            ),
            image_hit_ratio: ratio(
                status.cache_hits as f64,
                (status.cache_hits + status.cache_misses) as f64,
            ),
            ops: completed,
        };
        replay::traced(opts, &layered, &counters, &mut report);
    }
    report
}
