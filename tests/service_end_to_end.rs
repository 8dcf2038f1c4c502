//! End-to-end contract of the resident analysis daemon: a served
//! analysis is byte-identical (through the FRAC codec) to a local
//! `analyze_firmware` of the same image, config and model; a warm
//! submit-by-hash answers from the cache without re-running the
//! pipeline; a full queue rejects with a structured reason instead of
//! hanging; and drain finishes accounting for in-flight work before
//! refusing the world.

use firmres::{analyze_firmware, AnalysisConfig, Counter};
use firmres_cache::codec::put_analysis;
use firmres_firmware::content_hash_packed_wide;
use firmres_service::wire::{read_response, send_request, Request, Response};
use firmres_service::{
    Client, ClientError, JobState, RejectReason, Server, ServerConfig, SubmitImage,
    PROTOCOL_VERSION,
};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("firmres-service-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The exact bytes the cache codec persists, with the (run-dependent,
/// wall-clock) stage timings zeroed: the same canonical-equality form
/// the unit-parallelism suite uses.
fn canonical(mut analysis: firmres::FirmwareAnalysis) -> Vec<u8> {
    analysis.timings = Default::default();
    let mut out = Vec::new();
    put_analysis(&mut out, &analysis);
    out
}

fn spawn(
    cfg: ServerConfig,
) -> (
    SocketAddr,
    std::thread::JoinHandle<firmres_service::ServiceStatus>,
) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    (addr, std::thread::spawn(move || server.run()))
}

#[test]
fn served_analysis_is_byte_identical_and_hash_submits_reuse_the_cache() {
    let dev = firmres_corpus::generate_device(12, 3);
    let packed = dev.firmware.pack().to_vec();
    let mut config = AnalysisConfig::default();
    config.taint.max_depth = 32;

    let dir = temp_dir("byte-identity");
    let (addr, handle) = spawn(ServerConfig {
        workers: 2,
        unit_jobs: 2,
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });

    // The ground truth: a plain local run of the same inputs.
    let local = canonical(analyze_firmware(&dev.firmware, None, &config));

    let mut client = Client::connect(addr).expect("connect");

    // Cold submit runs the pipeline; through the cache codec the served
    // analysis is byte-identical to the local run (timings are the one
    // run-dependent field, zeroed on both sides as everywhere else).
    let cold = client
        .submit(SubmitImage::Bytes(packed.clone()), &config, true, 0)
        .expect("cold submit");
    assert!(!cold.from_cache);
    assert_eq!(
        canonical(cold.analysis),
        local,
        "served analysis differs from local"
    );
    assert!(
        !cold.events.is_empty(),
        "a streamed cold run reports progress events"
    );

    // Warm submit of the same bytes: answered from the cache, and the
    // shipped payload is the cold run's encoding exactly — raw bytes,
    // timings included, because it is the same stored entry.
    let warm = client
        .submit(SubmitImage::Bytes(packed.clone()), &config, false, 0)
        .expect("warm submit");
    assert!(warm.from_cache);
    assert_eq!(warm.payload, cold.payload);

    // Warm submit-by-hash: no image bytes shipped at all, still the
    // same payload, and the pipeline did not run again.
    let by_hash = client
        .submit(
            SubmitImage::Hash(content_hash_packed_wide(&packed)),
            &config,
            false,
            0,
        )
        .expect("hash submit");
    assert!(by_hash.from_cache);
    assert_eq!(by_hash.payload, cold.payload);
    assert_eq!(by_hash.analysis.executable, dev.cloud_executable);

    let status = client.status().expect("status");
    assert_eq!(status.cache_misses, 1, "pipeline ran exactly once");
    assert_eq!(status.cache_hits, 2);
    assert_eq!(status.jobs_served, 3);

    // A hash the server has never seen cannot be analyzed.
    match client.submit(SubmitImage::Hash(0xDEAD), &config, false, 0) {
        Err(ClientError::Rejected(RejectReason::UnknownImage)) => {}
        other => panic!("expected UnknownImage rejection, got {other:?}"),
    }

    let served = client.drain().expect("drain");
    assert_eq!(served, 3);
    let final_status = handle.join().expect("server thread");
    assert_eq!(final_status.jobs_served, 3);
    assert_eq!(final_status.jobs_rejected, 1);
    assert!(final_status.draining);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mutated_resubmit_reuses_unit_artifacts() {
    // Submit a firmware image, then a 1%-mutated update of it: the
    // second submit misses the image-level entry but the daemon diffs
    // it against its unit-granular store automatically, splicing every
    // unit the update did not dirty — and still serves bytes identical
    // to a from-scratch local run of the mutated image.
    let dev = firmres_corpus::generate_device(10, 7);
    let config = AnalysisConfig::default();
    let dir = temp_dir("unit-reuse");
    let (addr, handle) = spawn(ServerConfig {
        workers: 1,
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });

    let mut client = Client::connect(addr).expect("connect");
    client
        .submit(
            SubmitImage::Bytes(dev.firmware.pack().to_vec()),
            &config,
            false,
            0,
        )
        .expect("v1 submit");

    let update = firmres_corpus::mutate_firmware(&dev.firmware, 1.0, 42);
    let served = client
        .submit(
            SubmitImage::Bytes(update.image.pack().to_vec()),
            &config,
            false,
            0,
        )
        .expect("v2 submit");
    assert!(!served.from_cache, "a mutated image is not an image hit");

    let status = client.status().expect("status");
    assert_eq!(status.cache_misses, 2, "both versions ran the funnel");
    assert!(
        status.unit_hits > 0,
        "clean units spliced from the store: {status:?}"
    );
    assert!(status.unit_misses > 0, "the dirty closure re-ran");

    let local = canonical(analyze_firmware(&update.image, None, &config));
    assert_eq!(
        canonical(served.analysis),
        local,
        "spliced result differs from a from-scratch run"
    );

    client.drain().expect("drain");
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_queue_rejects_with_retry_hint_instead_of_hanging() {
    // queue_cap 0 and no workers: every by-bytes submit finds the queue
    // at capacity and must be answered, not parked.
    let (addr, handle) = spawn(ServerConfig {
        workers: 0,
        queue_cap: 0,
        retry_after_ms: 125,
        ..ServerConfig::default()
    });

    let dev = firmres_corpus::generate_device(6, 5);
    let packed = dev.firmware.pack().to_vec();
    let mut client = Client::connect(addr).expect("connect");
    match client.submit(
        SubmitImage::Bytes(packed),
        &AnalysisConfig::default(),
        false,
        0,
    ) {
        Err(ClientError::Rejected(RejectReason::QueueFull {
            depth,
            retry_after_ms,
        })) => {
            assert_eq!(depth, 0);
            assert_eq!(retry_after_ms, 125);
        }
        other => panic!("expected QueueFull rejection, got {other:?}"),
    }

    let status = client.status().expect("status");
    assert_eq!(status.jobs_rejected, 1);
    assert_eq!(status.jobs_served, 0);

    client.drain().expect("drain");
    handle.join().expect("server thread");
}

#[test]
fn many_idle_connections_share_a_fixed_io_pool() {
    // 80 concurrent connections against a 2-io-thread server: every one
    // is serviced (Hello + status round-trips) while the process thread
    // count stays flat — sockets are multiplexed onto the fixed shard
    // pool, not handed a thread each.
    let (addr, handle) = spawn(ServerConfig {
        workers: 1,
        io_threads: 2,
        ..ServerConfig::default()
    });

    let count_threads = || std::fs::read_dir("/proc/self/task").map(|d| d.count()).ok();

    // One connection first so the server's fixed threads all exist.
    let mut first = Client::connect(addr).expect("connect");
    first.status().expect("status");
    let before = count_threads();

    let mut idle: Vec<Client> = (0..79)
        .map(|i| Client::connect(addr).unwrap_or_else(|e| panic!("connect {i}: {e:?}")))
        .collect();
    for (i, conn) in idle.iter_mut().enumerate() {
        let status = conn
            .status()
            .unwrap_or_else(|e| panic!("status {i}: {e:?}"));
        assert!(!status.draining);
    }
    // The harness runs sibling tests (and their servers) concurrently,
    // so allow generous noise — the claim is only that 79 extra sockets
    // did not cost anywhere near 79 extra threads.
    if let (Some(before), Some(after)) = (before, count_threads()) {
        assert!(
            after < before + 40,
            "79 extra connections must not grow the thread pool: {before} -> {after}"
        );
    }

    // The crowded server still does real work: a submit on one of the
    // multiplexed connections runs while the other 79 sit parked.
    let dev = firmres_corpus::generate_device(6, 9);
    let served = idle[0]
        .submit(
            SubmitImage::Bytes(dev.firmware.pack().to_vec()),
            &AnalysisConfig::default(),
            false,
            0,
        )
        .expect("submit across a crowded server");
    assert!(!served.from_cache);

    drop(idle);
    first.drain().expect("drain");
    let final_status = handle.join().expect("server thread");
    assert_eq!(final_status.jobs_served, 1);
}

#[test]
fn drain_waits_for_the_queue_and_refuses_new_submissions() {
    // No workers: an admitted job sits in the queue forever, so a drain
    // issued after it deterministically blocks until the job is
    // cancelled — which lets us observe the draining state from a
    // second connection with no timing dependence.
    let (addr, handle) = spawn(ServerConfig {
        workers: 0,
        queue_cap: 4,
        ..ServerConfig::default()
    });

    let dev = firmres_corpus::generate_device(6, 5);
    let packed = dev.firmware.pack().to_vec();
    let config = AnalysisConfig::default();

    // Connection A, on raw frames so we can send Drain while our job is
    // still in flight.
    let mut a = TcpStream::connect(addr).expect("connect a");
    send_request(
        &mut a,
        &Request::Hello {
            version: PROTOCOL_VERSION,
        },
    )
    .expect("hello");
    assert!(matches!(
        read_response(&mut a).expect("hello ok"),
        Response::HelloOk { .. }
    ));
    send_request(
        &mut a,
        &Request::Submit {
            image: SubmitImage::Bytes(packed.clone()),
            config: config.clone(),
            want_events: false,
            deadline_ms: 0,
        },
    )
    .expect("submit");
    let job_id = match read_response(&mut a).expect("accepted") {
        Response::Accepted { job_id } => job_id,
        other => panic!("expected Accepted, got {other:?}"),
    };
    send_request(&mut a, &Request::Drain).expect("drain request");

    // Connection B: wait until A's Drain has set the draining flag
    // (status reads it directly), then submit — the drain is still
    // blocked on the queued job, so the refusal is deterministic.
    let mut b = Client::connect(addr).expect("connect b");
    while !b.status().expect("status").draining {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    match b.submit(SubmitImage::Bytes(packed.clone()), &config, false, 0) {
        Err(ClientError::Rejected(RejectReason::Draining)) => {}
        other => panic!("expected Draining rejection, got {other:?}"),
    }

    // Unblock the drain by cancelling the queued job.
    assert_eq!(b.cancel(job_id).expect("cancel"), JobState::Queued);

    // A's stream: the cancelled job's terminal frame, then DrainOk —
    // proving drain waited for the queue to empty before completing.
    match read_response(&mut a).expect("terminal") {
        Response::Cancelled { job_id: id, reason } => {
            assert_eq!(id, job_id);
            assert_eq!(reason, "cancelled while queued");
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
    match read_response(&mut a).expect("drain ok") {
        Response::DrainOk { jobs_served } => assert_eq!(jobs_served, 0),
        other => panic!("expected DrainOk, got {other:?}"),
    }

    let final_status = handle.join().expect("server thread");
    assert_eq!(final_status.jobs_cancelled, 1);
    assert!(final_status.jobs_rejected >= 1);
    assert!(final_status.draining);
    assert_eq!(final_status.queue_depth, 0);
}

/// A daemon with a trained model and a known-library index: the payload
/// it ships is exactly the local codec's encoding of the analysis it
/// carries (the daemon sends the unit funnel's bytes without
/// re-encoding), for the cold submit and for a by-bytes resubmit, and
/// both match a local run under the same model and index.
#[test]
fn model_and_index_payloads_are_the_local_encoding() {
    use firmres_dataflow::LibId;
    use std::sync::Arc;

    let devices = [4u8, 12].map(|id| firmres_corpus::generate_device(id, 7));
    let analyses: Vec<_> = devices
        .iter()
        .map(|d| {
            (
                d,
                analyze_firmware(&d.firmware, None, &AnalysisConfig::default()),
            )
        })
        .collect();
    let (model, _, _) =
        firmres_bench::train_semantics_model(&firmres_bench::build_slice_dataset(&analyses), 7);

    // The roster index, built exactly as `libid build` does.
    let fixtures = temp_dir("model-index-fixtures");
    std::fs::create_dir_all(&fixtures).unwrap();
    for k in 0..firmres_corpus::ROSTER.len() {
        std::fs::write(
            fixtures.join(firmres_corpus::library_fixture_file(k)),
            firmres_corpus::library_fixture_source(k),
        )
        .unwrap();
    }
    let index = Arc::new(firmres_libid::build_index_from_dir(&fixtures).unwrap().0);
    let _ = std::fs::remove_dir_all(&fixtures);

    let dev = (0..16)
        .map(|i| firmres_corpus::synth_device_with_libraries(i, 7))
        .find(|d| !d.spec.linked_libraries.is_empty())
        .expect("a device in the first 16 links a library");
    let fw = firmres_firmware::FirmwareImage::unpack(&dev.packed).unwrap();
    let mut indexed = AnalysisConfig::default();
    indexed.taint.libid = LibId::On;
    indexed.taint.lib_index = Some(Arc::clone(&index));
    let local = canonical(analyze_firmware(&fw, Some(&model), &indexed));

    let dir = temp_dir("model-index");
    let (addr, handle) = spawn(ServerConfig {
        workers: 1,
        cache_dir: Some(dir.clone()),
        classifier: Some(model),
        lib_index: Some(index),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    for pass in ["cold", "resubmit"] {
        let served = client
            .submit(
                SubmitImage::Bytes(dev.packed.clone()),
                &AnalysisConfig::default(),
                false,
                0,
            )
            .expect("submit");
        let mut encoded = Vec::new();
        put_analysis(&mut encoded, &served.analysis);
        assert_eq!(
            served.payload, encoded,
            "{pass}: payload is the local encoding"
        );
        assert!(
            served.analysis.counters[Counter::LibFnsMatched] > 0,
            "{pass}: index in use"
        );
        assert_eq!(
            canonical(served.analysis),
            local,
            "{pass}: matches a local run"
        );
    }
    client.drain().expect("drain");
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}
