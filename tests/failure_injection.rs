//! Failure injection: corrupted inputs at every layer degrade into typed
//! errors or clean rejections — never panics, never silent garbage.

use firmres::{
    analyze_firmware, analyze_packed, try_analyze_firmware, try_analyze_packed, AnalysisConfig,
    Counter, Error, Severity, StageKind,
};
use firmres_cloud::{HttpRequest, ResponseStatus};
use firmres_corpus::generate_device;
use firmres_firmware::{FileEntry, FirmwareImage};
use firmres_isa::Executable;

/// Bit-flip every byte of a packed firmware image, one at a time (sampled
/// for speed), and confirm unpacking reports corruption.
#[test]
fn corrupted_firmware_images_are_rejected() {
    let dev = generate_device(15, 7);
    let packed = dev.firmware.pack();
    let mut rejected = 0;
    for i in (0..packed.len()).step_by(97) {
        let mut bad = packed.to_vec();
        bad[i] ^= 0xA5;
        if FirmwareImage::unpack(&bad).is_err() {
            rejected += 1;
        }
    }
    // Checksums catch essentially every flip.
    assert!(
        rejected >= packed.len() / 97,
        "all sampled corruptions rejected"
    );
}

#[test]
fn truncated_firmware_images_are_rejected() {
    let dev = generate_device(15, 7);
    let packed = dev.firmware.pack();
    for cut in [0, 1, 7, packed.len() / 2, packed.len() - 1] {
        assert!(
            FirmwareImage::unpack(&packed[..cut]).is_err(),
            "truncation at {cut} rejected"
        );
    }
}

#[test]
fn corrupted_executable_inside_valid_image_is_skipped() {
    let dev = generate_device(15, 7);
    let mut fw = dev.firmware.clone();
    // Replace the cloud agent with garbage that still parses as a file
    // entry but not as an MRE executable.
    fw.add_file(
        "/usr/bin/cloud_agent",
        FileEntry::Executable(vec![0xFF; 64]),
    );
    let analysis = analyze_firmware(&fw, None, &AnalysisConfig::default());
    assert!(
        analysis.executable.is_none(),
        "pipeline degrades to 'no device-cloud executable', no panic"
    );
    // The degradation is no longer silent: the skipped executable shows
    // up as a warning-severity stage-1 diagnostic naming the path.
    let exeid_warnings: Vec<_> = analysis
        .diagnostics
        .iter()
        .filter(|d| d.stage == StageKind::ExeId && d.severity == Severity::Warning)
        .collect();
    assert!(
        exeid_warnings
            .iter()
            .any(|d| d.subject.as_deref() == Some("/usr/bin/cloud_agent")),
        "skipped executable diagnosed: {:?}",
        analysis.diagnostics
    );
    assert!(
        analysis.counters[Counter::ParseFailures] >= 1,
        "parse failure counted"
    );
}

#[test]
fn image_whose_every_executable_is_corrupt_is_a_typed_error() {
    let dev = generate_device(15, 7);
    let mut fw = dev.firmware.clone();
    let paths: Vec<String> = fw.executables().map(|(p, _)| p.to_string()).collect();
    assert!(!paths.is_empty());
    for p in &paths {
        fw.add_file(p, FileEntry::Executable(vec![0xFF; 64]));
    }
    match try_analyze_firmware(&fw, None, &AnalysisConfig::default()) {
        Err(Error::NoUsableExecutable { tried, diagnostics }) => {
            assert_eq!(tried, paths.len());
            assert!(!diagnostics.is_empty(), "each failure carries a diagnostic");
        }
        other => panic!("expected NoUsableExecutable, got {other:?}"),
    }
}

#[test]
fn truncated_packed_image_degrades_into_input_diagnostic() {
    let dev = generate_device(15, 7);
    let packed = dev.firmware.pack();
    for cut in [0, 7, packed.len() / 2] {
        let analysis = analyze_packed(&packed[..cut], None, &AnalysisConfig::default());
        assert!(analysis.executable.is_none());
        assert!(analysis.messages.is_empty());
        let input_errors: Vec<_> = analysis
            .diagnostics
            .iter()
            .filter(|d| d.stage == StageKind::Input && d.severity == Severity::Error)
            .collect();
        assert_eq!(input_errors.len(), 1, "truncation at {cut} diagnosed");
        // The fallible entry point returns the typed unpack error.
        assert!(matches!(
            try_analyze_packed(&packed[..cut], None, &AnalysisConfig::default()),
            Err(Error::Firmware(_))
        ));
    }
}

#[test]
fn executable_with_reserved_opcodes_fails_to_lift_cleanly() {
    let dev = generate_device(15, 7);
    let path = dev.cloud_executable.as_deref().unwrap();
    let mut exe = dev.firmware.load_executable(path).unwrap();
    // Inject a reserved opcode (>= 32) into the middle of the image.
    let mid = exe.code.len() / 2;
    exe.code[mid] = 0xFFFF_FFFF;
    match firmres_isa::lift(&exe, "bad") {
        Err(firmres_isa::LiftError::Decode { .. }) => {}
        Err(other) => panic!("expected a decode error, got {other:?}"),
        Ok(_) => {
            // The word may fall between functions or in dead space of a
            // function whose extent ends earlier — also acceptable, as
            // long as nothing panicked.
        }
    }
}

#[test]
fn function_symbol_past_the_code_is_a_lift_error_not_a_panic() {
    let dev = generate_device(15, 7);
    let path = dev.cloud_executable.as_deref().unwrap();
    let mut exe = dev.firmware.load_executable(path).unwrap();
    // Shift the last function symbol past the end of the code: the
    // function before it now claims a body that runs off the image.
    let past = exe.code_end() + 64;
    exe.funcs
        .iter_mut()
        .max_by_key(|f| f.addr)
        .expect("agent has functions")
        .addr = past;
    // Resealing recomputes the checksum, so the damage reaches the
    // lifter instead of being caught by the container.
    let resealed = exe.to_bytes().to_vec();
    let parsed = Executable::from_bytes(&resealed).expect("resealed image parses");
    match firmres_isa::lift(&parsed, path) {
        Err(firmres_isa::LiftError::AddressOutsideCode { addr, .. }) => {
            assert!(addr >= parsed.code_end(), "{addr:#x}");
        }
        other => panic!("expected an out-of-code lift error, got {other:?}"),
    }
    let mut fw = dev.firmware.clone();
    fw.add_file(path, FileEntry::Executable(resealed));
    let analysis = analyze_firmware(&fw, None, &AnalysisConfig::default());
    assert!(
        analysis.counters[Counter::LiftFailures] >= 1,
        "lift failure counted"
    );
    assert!(
        analysis
            .diagnostics
            .iter()
            .any(|d| d.stage == StageKind::ExeId
                && d.severity == Severity::Warning
                && d.subject.as_deref() == Some(path)
                && d.detail.contains("outside the code image")),
        "lift failure diagnosed: {:?}",
        analysis.diagnostics
    );
}

#[test]
fn mre_truncation_and_checksum_errors() {
    let dev = generate_device(15, 7);
    let path = dev.cloud_executable.as_deref().unwrap();
    let FileEntry::Executable(bytes) = dev.firmware.file(path).unwrap() else {
        panic!("agent is an executable");
    };
    for cut in [0usize, 3, 16, bytes.len() / 2] {
        assert!(Executable::from_bytes(&bytes[..cut]).is_err());
    }
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 1;
    assert!(
        Executable::from_bytes(&flipped).is_err(),
        "checksum catches the flip"
    );
}

#[test]
fn cloud_handles_malformed_probes_gracefully() {
    let dev = generate_device(17, 7);
    // Garbage JSON.
    let r = dev
        .cloud
        .handle(&HttpRequest::new("/camera-cgi", "{\"uid\":"));
    assert_eq!(r.status, ResponseStatus::BadRequest);
    // Unknown path.
    let r = dev.cloud.handle(&HttpRequest::new("/../../etc/passwd", ""));
    assert_eq!(r.status, ResponseStatus::PathNotExists);
    // Huge body of junk.
    let junk = "x".repeat(1 << 16);
    let r = dev.cloud.handle(&HttpRequest::new("/camera-cgi", junk));
    assert!(matches!(
        r.status,
        ResponseStatus::BadRequest | ResponseStatus::AccessDenied
    ));
    // Empty everything.
    let r = dev.cloud.handle(&HttpRequest::new("", ""));
    assert_eq!(r.status, ResponseStatus::PathNotExists);
}

#[test]
fn emulator_faults_do_not_poison_subsequent_runs() {
    use firmres_isa::{Assembler, EmuError, Emulator, Mem};
    let exe = Assembler::new()
        .assemble(
            ".func crash\n li t0, 0x10\n lw rv, 0(t0)\n ret\n.endfunc\n\
             .func fine\n li rv, 7\n ret\n.endfunc\n.func main\n halt\n.endfunc\n",
        )
        .unwrap();
    let mut emu = Emulator::new(&exe, |_: &str, _: [u32; 6], _: &mut Mem| 0);
    assert!(matches!(
        emu.run_function("crash", &[]),
        Err(EmuError::MemFault { .. })
    ));
    assert_eq!(
        emu.run_function("fine", &[]).unwrap(),
        7,
        "emulator recovers"
    );
}

#[test]
fn corrupted_cache_entry_falls_back_to_reanalysis() {
    use firmres::{CollectingObserver, Counter};
    use firmres_cache::{analyze_corpus_incremental, AnalysisCache, CacheKey};

    let dev = generate_device(10, 7);
    let config = AnalysisConfig::default();
    let dir = std::env::temp_dir().join(format!("firmres-failinj-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = AnalysisCache::new(&dir);
    let image = &dev.firmware;

    // Populate, then damage the entry on disk.
    let cold = analyze_corpus_incremental(&[image], None, &config, 1, &cache, &mut obs());
    let key = CacheKey::compute(image, None, &config);
    let path = cache.entry_path(&key);
    let good = std::fs::read(&path).unwrap();
    std::fs::write(&path, &good[..good.len() / 3]).unwrap();

    // The damaged entry is not fatal: the image is re-analyzed and the
    // result matches the cold run, carrying one extra cache diagnostic.
    let mut observer = obs();
    let fallback = analyze_corpus_incremental(&[image], None, &config, 1, &cache, &mut observer);
    assert_eq!(fallback.stats.misses, 1);
    assert_eq!(fallback.stats.corrupt, 1);
    assert_eq!(observer.counters.get(Counter::CacheMisses), 1);
    let a = &fallback.analyses[0];
    assert_eq!(a.executable, cold.analyses[0].executable);
    assert_eq!(a.messages.len(), cold.analyses[0].messages.len());
    let cache_diags: Vec<_> = a
        .diagnostics
        .iter()
        .filter(|d| d.stage == StageKind::Cache && d.severity == Severity::Warning)
        .collect();
    assert_eq!(
        cache_diags.len(),
        1,
        "the damaged entry is diagnosed: {:?}",
        a.diagnostics
    );
    assert!(cache_diags[0].detail.contains("re-analyzing"));

    // The fallback overwrote the damaged entry; the next run hits again
    // and the stored result carries no cache diagnostics.
    let warm = analyze_corpus_incremental(&[image], None, &config, 1, &cache, &mut obs());
    assert_eq!(warm.stats.hits, 1);
    assert!(warm.analyses[0]
        .diagnostics
        .iter()
        .all(|d| d.stage != StageKind::Cache));
    let _ = std::fs::remove_dir_all(&dir);

    fn obs() -> CollectingObserver {
        CollectingObserver::default()
    }
}

#[test]
fn analysis_of_empty_firmware_is_empty() {
    let fw = FirmwareImage::new(firmres_firmware::DeviceInfo {
        vendor: "none".into(),
        model: "none".into(),
        device_type: firmres_firmware::DeviceType::Nas,
        firmware_version: "0".into(),
    });
    let analysis = analyze_firmware(&fw, None, &AnalysisConfig::default());
    assert!(analysis.executable.is_none());
    assert!(analysis.messages.is_empty());
}
