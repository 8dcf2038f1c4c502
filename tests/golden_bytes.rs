//! Golden bytes for the FRAC analysis encoding and the wire protocol's
//! streamed event frames.
//!
//! `put_analysis` output is what the store persists and what the daemon
//! ships as an `Analysis` payload, so it must not move without a
//! `SCHEMA_VERSION` bump; an `Event` frame must not move without a
//! `PROTOCOL_VERSION` bump. These tests pin both literally:
//!
//! * a hand-built analysis with every counter set to a distinct nonzero
//!   value (the fixed 17 × u64 counter block in declaration order), plus
//!   fingerprints of real corpus analyses with their timings zeroed;
//! * one length-prefixed `Response::Event` frame per `StageKind` (started
//!   and finished), per `Counter` and per `Severity` (a diagnostic with
//!   and one without a subject);
//! * the `.frac` store entry of the hand-built analysis under a fixed
//!   key, and its layout: magic, schema, key echo, the `put_analysis`
//!   bytes, checksum.

use firmres::Event;
use firmres::{
    analyze_firmware, AnalysisConfig, Counter, Diagnostic, FirmwareAnalysis, HandlerInfo, Severity,
    StageCounters, StageKind, StageTimings,
};
use firmres_cache::codec::{get_analysis, put_analysis, Reader};
use firmres_cache::{AnalysisCache, CacheKey, SCHEMA_VERSION};
use firmres_corpus::generate_device;
use firmres_firmware::content_hash_packed;
use firmres_service::wire::{read_frame, write_frame, Response};
use std::time::Duration;

/// Every counter, in declaration order.
const COUNTERS: [Counter; 17] = [
    Counter::ExecutablesTried,
    Counter::ParseFailures,
    Counter::LiftFailures,
    Counter::TaintQueries,
    Counter::TaintCacheHits,
    Counter::SlicesRendered,
    Counter::FieldsMatched,
    Counter::CacheHits,
    Counter::CacheMisses,
    Counter::CacheBytesRead,
    Counter::CacheBytesWritten,
    Counter::LibFnsMatched,
    Counter::LibTraversalsSkipped,
    Counter::LibSummaryApplies,
    Counter::SlicesBatched,
    Counter::PrefilterSkips,
    Counter::ClassCacheHits,
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fixed_analysis() -> FirmwareAnalysis {
    let mut counters = StageCounters::default();
    for (i, c) in COUNTERS.iter().enumerate() {
        // Distinct per counter and per byte position.
        counters.record(*c, 0x0102_0304_0506_0700 + i as u64 + 1);
    }
    FirmwareAnalysis {
        executable: Some("/usr/bin/cloudd".to_string()),
        handlers: vec![HandlerInfo {
            handler_func: 0x1000,
            handler_name: "on_cmd".to_string(),
            recv_callsite: 0x1010,
            send_callsite: 0x1040,
            distance: 2,
            score: 0.75,
            is_async: true,
        }],
        messages: Vec::new(),
        timings: StageTimings {
            exeid: Duration::from_nanos(11),
            field_identification: Duration::from_nanos(22),
            semantics: Duration::from_nanos(33),
            concatenation: Duration::from_nanos(44),
            form_check: Duration::from_nanos(55),
        },
        counters,
        diagnostics: vec![
            Diagnostic::new(StageKind::ExeId, Severity::Warning, "/bin/x", "lift failed"),
            Diagnostic::bare(StageKind::Semantics, Severity::Info, "fallback"),
        ],
    }
}

const FIXED_ANALYSIS: &str = "\
010f0000002f7573722f62696e2f636c6f75646401000000001000000000000006000000\
6f6e5f636d64101000000000000040100000000000000200000000000000000000000000\
e83f01000000000b00000000000000160000000000000021000000000000002c00000000\
000000370000000000000001070605040302010207060504030201030706050403020104\
070605040302010507060504030201060706050403020107070605040302010807060504\
03020109070605040302010a070605040302010b070605040302010c070605040302010d\
070605040302010e070605040302010f0706050403020110070605040302011107060504\
03020102000000010101060000002f62696e2f780b0000006c696674206661696c656403\
00000800000066616c6c6261636b";

#[test]
fn fixed_analysis_bytes_are_pinned() {
    let mut out = Vec::new();
    put_analysis(&mut out, &fixed_analysis());
    assert_eq!(hex(&out), FIXED_ANALYSIS, "put_analysis bytes moved");
    // And they decode back to the same counters.
    let back = get_analysis(&mut Reader::new(&out)).expect("decodes");
    assert_eq!(back.counters, fixed_analysis().counters);
    for (i, c) in COUNTERS.iter().enumerate() {
        assert_eq!(back.counters.get(*c), 0x0102_0304_0506_0700 + i as u64 + 1);
    }
}

/// `(device id, FNV-1a of put_analysis with timings zeroed)` over
/// default-config, model-less analyses.
const CORPUS_FINGERPRINTS: [(u8, u64); 4] = [
    (6, 0xdf497eb39790f69b),
    (10, 0x0c6306b87f657c2d),
    (14, 0x872b6ffc0f8358fa),
    (21, 0x3f92796069308a44),
];

#[test]
fn corpus_analysis_bytes_are_pinned() {
    for (id, want) in CORPUS_FINGERPRINTS {
        let dev = generate_device(id, 7);
        let mut analysis = analyze_firmware(&dev.firmware, None, &AnalysisConfig::default());
        analysis.timings = StageTimings::default();
        let mut out = Vec::new();
        put_analysis(&mut out, &analysis);
        assert_eq!(fnv(&out), want, "device {id}: {:#x}", fnv(&out));
    }
}

const STAGES: [StageKind; 7] = [
    StageKind::Input,
    StageKind::ExeId,
    StageKind::FieldId,
    StageKind::Semantics,
    StageKind::Concat,
    StageKind::FormCheck,
    StageKind::Cache,
];

const SEVERITIES: [Severity; 3] = [Severity::Info, Severity::Warning, Severity::Error];

/// Every golden event, in the order of [`EVENT_FRAMES`].
fn golden_events() -> Vec<Event> {
    let mut events = Vec::new();
    for (i, stage) in STAGES.iter().enumerate() {
        events.push(Event::StageStarted(*stage));
        events.push(Event::StageFinished(
            *stage,
            Duration::from_nanos(1_500_000 + i as u64),
        ));
    }
    for (i, counter) in COUNTERS.iter().enumerate() {
        events.push(Event::Count(*counter, 0x0a0b_0c0d_0e0f_1000 + i as u64));
    }
    for (i, severity) in SEVERITIES.iter().enumerate() {
        let stage = STAGES[i + 1];
        events.push(Event::Diagnostic(Diagnostic::new(
            stage, *severity, "fn@0x40", "why",
        )));
        events.push(Event::Diagnostic(Diagnostic::bare(
            stage, *severity, "bare",
        )));
    }
    events
}

/// One framed `Response::Event { job_id: 0x0102030405060708, .. }` per
/// golden event, length prefix included.
const EVENT_FRAMES: [&str; 37] = [
    "0b0000000308070605040302010000",
    "13000000030807060504030201010060e3160000000000",
    "0b0000000308070605040302010001",
    "13000000030807060504030201010161e3160000000000",
    "0b0000000308070605040302010002",
    "13000000030807060504030201010262e3160000000000",
    "0b0000000308070605040302010003",
    "13000000030807060504030201010363e3160000000000",
    "0b0000000308070605040302010004",
    "13000000030807060504030201010464e3160000000000",
    "0b0000000308070605040302010005",
    "13000000030807060504030201010565e3160000000000",
    "0b0000000308070605040302010006",
    "13000000030807060504030201010666e3160000000000",
    "13000000030807060504030201020000100f0e0d0c0b0a",
    "13000000030807060504030201020101100f0e0d0c0b0a",
    "13000000030807060504030201020202100f0e0d0c0b0a",
    "13000000030807060504030201020303100f0e0d0c0b0a",
    "13000000030807060504030201020404100f0e0d0c0b0a",
    "13000000030807060504030201020505100f0e0d0c0b0a",
    "13000000030807060504030201020606100f0e0d0c0b0a",
    "13000000030807060504030201020707100f0e0d0c0b0a",
    "13000000030807060504030201020808100f0e0d0c0b0a",
    "13000000030807060504030201020909100f0e0d0c0b0a",
    "13000000030807060504030201020a0a100f0e0d0c0b0a",
    "13000000030807060504030201020b0b100f0e0d0c0b0a",
    "13000000030807060504030201020c0c100f0e0d0c0b0a",
    "13000000030807060504030201020d0d100f0e0d0c0b0a",
    "13000000030807060504030201020e0e100f0e0d0c0b0a",
    "13000000030807060504030201020f0f100f0e0d0c0b0a",
    "13000000030807060504030201021010100f0e0d0c0b0a",
    "1f0000000308070605040302010301000107000000666e403078343003000000776879",
    "15000000030807060504030201030100000400000062617265",
    "1f0000000308070605040302010302010107000000666e403078343003000000776879",
    "15000000030807060504030201030201000400000062617265",
    "1f0000000308070605040302010303020107000000666e403078343003000000776879",
    "15000000030807060504030201030302000400000062617265",
];

#[test]
fn event_frames_are_pinned() {
    let events = golden_events();
    assert_eq!(events.len(), EVENT_FRAMES.len());
    for (event, want) in events.into_iter().zip(EVENT_FRAMES) {
        let response = Response::Event {
            job_id: 0x0102_0304_0506_0708,
            event: event.clone(),
        };
        let mut frame = Vec::new();
        write_frame(&mut frame, &response.encode()).expect("in-memory write");
        assert_eq!(hex(&frame), want, "frame for {event:?} moved");
        let body = read_frame(&mut frame.as_slice()).expect("reads back");
        match Response::decode(&body).expect("decodes") {
            Response::Event {
                job_id,
                event: back,
            } => {
                assert_eq!(job_id, 0x0102_0304_0506_0708);
                assert_eq!(back, event);
            }
            other => panic!("decoded {other:?}"),
        }
    }
}

/// A fixed key for the pinned store entry. Its fields are literals, not
/// the live `PIPELINE_VERSION` or fingerprints, so the pin moves only
/// with the entry layout.
const FIXED_KEY: CacheKey = CacheKey {
    image: 0x0f0e_0d0c_0b0a_0908_0706_0504_0302_0100,
    pipeline: 0x1312_1110,
    config: 0x1b1a_1918_1716_1514,
    classifier: 0x2322_2120_1f1e_1d1c,
};

/// The `.frac` file the store writes for [`fixed_analysis`] under
/// [`FIXED_KEY`].
fn fixed_entry(tag: &str) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("firmres-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = AnalysisCache::new(&dir);
    let written = cache.store(&FIXED_KEY, &fixed_analysis()).expect("stores");
    let bytes = std::fs::read(cache.entry_path(&FIXED_KEY)).expect("entry file");
    assert_eq!(written, bytes.len() as u64);
    let loaded = cache.load(&FIXED_KEY).expect("loads back");
    assert_eq!(loaded.bytes, written);
    assert_eq!(loaded.analysis.counters, fixed_analysis().counters);
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

/// Lines: magic and schema, the key echo, the [`FIXED_ANALYSIS`] bytes,
/// the checksum.
const FIXED_ENTRY: &str = "\
465241430400\
000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20212223\
010f0000002f7573722f62696e2f636c6f75646401000000001000000000000006000000\
6f6e5f636d64101000000000000040100000000000000200000000000000000000000000\
e83f01000000000b00000000000000160000000000000021000000000000002c00000000\
000000370000000000000001070605040302010207060504030201030706050403020104\
070605040302010507060504030201060706050403020107070605040302010807060504\
03020109070605040302010a070605040302010b070605040302010c070605040302010d\
070605040302010e070605040302010f0706050403020110070605040302011107060504\
03020102000000010101060000002f62696e2f780b0000006c696674206661696c656403\
00000800000066616c6c6261636b\
2e890ec972e1e480";

#[test]
fn fixed_entry_bytes_are_pinned() {
    assert_eq!(hex(&fixed_entry("pin")), FIXED_ENTRY, ".frac bytes moved");
}

#[test]
fn an_entry_is_its_sealed_analysis_bytes() {
    let entry = fixed_entry("layout");
    let mut analysis = Vec::new();
    put_analysis(&mut analysis, &fixed_analysis());
    let mut echo = Vec::new();
    echo.extend(FIXED_KEY.image.to_le_bytes());
    echo.extend(FIXED_KEY.pipeline.to_le_bytes());
    echo.extend(FIXED_KEY.config.to_le_bytes());
    echo.extend(FIXED_KEY.classifier.to_le_bytes());
    assert_eq!(echo.len(), 36);

    // magic ‖ schema ‖ key echo ‖ put_analysis bytes ‖ FNV-64
    let (body, checksum) = entry.split_at(entry.len() - 8);
    assert_eq!(&body[..4], b"FRAC");
    assert_eq!(body[4..6], 4u16.to_le_bytes());
    assert_eq!(SCHEMA_VERSION, 4);
    assert_eq!(&body[6..42], echo.as_slice());
    assert_eq!(&body[42..], analysis.as_slice());
    assert_eq!(checksum, content_hash_packed(body).to_le_bytes());
}
