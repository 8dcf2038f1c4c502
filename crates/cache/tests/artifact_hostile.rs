//! Hostile-input contract of the store's sealed artifacts, in the style
//! of the `.flix` suite: `.frac` image entries, `.fru` unit banks and
//! `.frv` verdicts are read back from disk, so bit flips, truncation,
//! oversize length prefixes, and a wrong magic, schema or key echo under
//! a valid checksum must all come back as a typed [`CacheError`] or an
//! analysis — never a panic.
//!
//! Each case restores a store populated from one corpus device, damages
//! one artifact, and then:
//!
//! * `load` returns; when it fails, `analyze_corpus_incremental` serves
//!   the plain analysis (timings and the cache diagnostic aside);
//! * the unit funnel returns an analysis; when the damage is one the
//!   seal detects, that analysis is the plain one and the damage is
//!   diagnosed. A payload edit under a valid checksum is undetectable
//!   by design (the checksum is not a signature), so then the funnel
//!   only has to return.
//!
//! The vendored proptest runs a fixed 64 cases per property.

use firmres::{
    analyze_firmware, AnalysisConfig, CollectingObserver, FirmwareAnalysis, NullObserver, Severity,
    StageKind,
};
use firmres_cache::codec::{get_analysis, put_analysis, Reader};
use firmres_cache::{
    analyze_corpus_incremental, analyze_image_units_incremental, AnalysisCache, CacheError,
    CacheKey, SCHEMA_VERSION,
};
use firmres_corpus::generate_device;
use firmres_firmware::{content_hash_packed, FirmwareImage};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// One damage to a sealed artifact. Offsets are taken modulo the range
/// they address.
#[derive(Debug, Clone)]
enum Damage {
    /// Flip one bit anywhere, checksum left stale.
    FlipBit { at: usize, bit: u8 },
    /// Cut the file short, checksum gone.
    Truncate { keep: usize },
    /// Flip one payload bit and reseal.
    ResealedFlip { at: usize, bit: u8 },
    /// Write `u32::MAX` over four payload bytes (a length prefix, where
    /// one sits there) and reseal.
    OversizeLength { at: usize },
    /// Replace the magic and reseal.
    WrongMagic,
    /// Stamp another schema version and reseal.
    WrongSchema { schema: u16 },
    /// Flip one key-echo bit and reseal.
    WrongEcho { at: usize, bit: u8 },
}

impl Damage {
    /// Whether the seal itself catches this damage: everything but a
    /// payload edit under a fresh checksum.
    fn detectable(&self) -> bool {
        !matches!(
            self,
            Damage::ResealedFlip { .. } | Damage::OversizeLength { .. }
        )
    }

    /// Apply to a sealed artifact whose magic, schema and key echo take
    /// the first `header` bytes.
    fn apply(&self, data: &mut Vec<u8>, header: usize) {
        let body_len = data.len() - 8;
        let payload = body_len - header;
        match *self {
            Damage::FlipBit { at, bit } => {
                let i = at % data.len();
                data[i] ^= 1 << bit;
                return;
            }
            Damage::Truncate { keep } => {
                data.truncate(keep % data.len());
                return;
            }
            Damage::ResealedFlip { at, bit } => data[header + at % payload] ^= 1 << bit,
            Damage::OversizeLength { at } => {
                let i = header + at % (payload - 3);
                data[i..i + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            }
            Damage::WrongMagic => data[..4].copy_from_slice(b"JUNK"),
            Damage::WrongSchema { schema } => data[4..6].copy_from_slice(&schema.to_le_bytes()),
            Damage::WrongEcho { at, bit } => data[6 + at % (header - 6)] ^= 1 << bit,
        }
        let sum = content_hash_packed(&data[..body_len]);
        data[body_len..].copy_from_slice(&sum.to_le_bytes());
    }
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        (any::<usize>(), 0u8..8).prop_map(|(at, bit)| Damage::FlipBit { at, bit }),
        any::<usize>().prop_map(|keep| Damage::Truncate { keep }),
        (any::<usize>(), 0u8..8).prop_map(|(at, bit)| Damage::ResealedFlip { at, bit }),
        any::<usize>().prop_map(|at| Damage::OversizeLength { at }),
        Just(Damage::WrongMagic),
        any::<u16>().prop_map(|s| Damage::WrongSchema {
            schema: if s == SCHEMA_VERSION { s + 1 } else { s },
        }),
        (any::<usize>(), 0u8..8).prop_map(|(at, bit)| Damage::WrongEcho { at, bit }),
    ]
}

/// Magic, schema and key echo: a `.frac` entry echoes the 36-byte
/// [`CacheKey`], unit artifacts their 16-byte u128 key.
fn header_len(name: &str) -> usize {
    if name.ends_with(".frac") {
        4 + 2 + 36
    } else {
        4 + 2 + 16
    }
}

/// A store populated from one corpus device, kept as pristine bytes.
struct Fixture {
    fw: FirmwareImage,
    key: CacheKey,
    /// `(file name, bytes)` of every artifact, sorted by name.
    files: Vec<(String, Vec<u8>)>,
    /// [`canonical`] bytes of the plain pipeline's analysis.
    plain: Vec<u8>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let fw = generate_device(10, 7).firmware;
        let config = AnalysisConfig::default();
        let dir = temp_dir("fixture");
        let cache = AnalysisCache::new(&dir);
        let cold = analyze_corpus_incremental(&[&fw], None, &config, 1, &cache, &mut NullObserver);
        assert_eq!(cold.stats.misses, 1);
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let name = path.file_name().unwrap().to_str().unwrap().to_string();
                (name, std::fs::read(&path).unwrap())
            })
            .filter(|(name, _)| [".frac", ".fru", ".frv"].iter().any(|x| name.ends_with(x)))
            .collect();
        files.sort();
        let _ = std::fs::remove_dir_all(&dir);
        let plain = canonical(&analyze_firmware(&fw, None, &config));
        Fixture {
            key: CacheKey::compute(&fw, None, &config),
            fw,
            files,
            plain,
        }
    })
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("firmres-hostile-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The analysis encoding without timings and cache diagnostics: what
/// any correct answer for the fixture image encodes to.
fn canonical(a: &FirmwareAnalysis) -> Vec<u8> {
    let mut out = Vec::new();
    put_analysis(&mut out, a);
    let mut a = get_analysis(&mut Reader::new(&out)).expect("own encoding decodes");
    a.timings = Default::default();
    a.diagnostics.retain(|d| d.stage != StageKind::Cache);
    out.clear();
    put_analysis(&mut out, &a);
    out
}

/// Restore the pristine store in `dir`, then damage the `pick`-th file
/// whose name ends in `ext`. Returns the damaged file's name.
fn restore_and_damage(dir: &Path, ext: &str, pick: usize, damage: &Damage) -> String {
    std::fs::create_dir_all(dir).unwrap();
    let files = &fixture().files;
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    let candidates: Vec<&(String, Vec<u8>)> =
        files.iter().filter(|(n, _)| n.ends_with(ext)).collect();
    assert!(
        !candidates.is_empty(),
        "the fixture store holds a {ext} file"
    );
    let (name, bytes) = candidates[pick % candidates.len()];
    let mut data = bytes.clone();
    damage.apply(&mut data, header_len(name));
    std::fs::write(dir.join(name), &data).unwrap();
    name.clone()
}

/// Damage the image entry: `load` returns a typed error or an analysis,
/// and a failed load makes the corpus driver serve the plain analysis.
fn check_entry(dir: &Path, damage: &Damage) -> Result<(), TestCaseError> {
    let fx = fixture();
    restore_and_damage(dir, ".frac", 0, damage);
    let cache = AnalysisCache::new(dir);
    let loaded = cache.load(&fx.key);
    match (damage, &loaded) {
        (Damage::WrongMagic, Err(e)) => prop_assert_eq!(e, &CacheError::BadMagic),
        (Damage::WrongSchema { schema }, Err(e)) => {
            prop_assert_eq!(e, &CacheError::SchemaMismatch { found: *schema })
        }
        (Damage::WrongEcho { .. }, Err(e)) => prop_assert_eq!(e, &CacheError::KeyMismatch),
        (d, Ok(_)) => prop_assert!(!d.detectable(), "{d:?} was served"),
        _ => {}
    }
    if loaded.is_err() {
        let out = analyze_corpus_incremental(
            &[&fx.fw],
            None,
            &AnalysisConfig::default(),
            1,
            &cache,
            &mut NullObserver,
        );
        prop_assert_eq!(out.stats.corrupt, 1);
        prop_assert!(
            canonical(&out.analyses[0]) == fx.plain,
            "{damage:?}: the fallback is not the plain analysis"
        );
    }
    Ok(())
}

/// Damage one unit artifact: the funnel returns an analysis, and a
/// damage the seal detects is diagnosed and changes nothing.
fn check_unit(dir: &Path, ext: &str, pick: usize, damage: &Damage) -> Result<(), TestCaseError> {
    let fx = fixture();
    let name = restore_and_damage(dir, ext, pick, damage);
    let cache = AnalysisCache::new(dir);
    let mut obs = CollectingObserver::default();
    let out = analyze_image_units_incremental(
        &fx.fw,
        None,
        &AnalysisConfig::default(),
        1,
        &cache,
        &mut obs,
        None,
    );
    prop_assert!(out.is_ok(), "{damage:?}: no token, yet {:?}", out.err());
    let out = out.expect("checked above");
    if damage.detectable() {
        prop_assert!(
            obs.diagnostics.iter().any(|d| d.stage == StageKind::Cache
                && d.severity == Severity::Warning
                && d.subject.as_deref() == Some(name.as_str())),
            "{damage:?} on {name} is not diagnosed: {:?}",
            obs.diagnostics
        );
        let decoded = get_analysis(&mut Reader::new(&out.bytes));
        prop_assert!(decoded.is_ok(), "{damage:?}: funnel bytes do not decode");
        prop_assert!(
            canonical(&decoded.expect("checked above")) == fx.plain,
            "{damage:?} on {name} changed the analysis"
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn damaged_image_entries_are_typed_errors_or_fall_back(d in damage()) {
        check_entry(&temp_dir("frac"), &d)?;
    }

    #[test]
    fn damaged_unit_banks_never_panic_the_funnel(pick in any::<usize>(), d in damage()) {
        check_unit(&temp_dir("fru"), ".fru", pick, &d)?;
    }

    #[test]
    fn damaged_verdicts_never_panic_the_funnel(pick in any::<usize>(), d in damage()) {
        check_unit(&temp_dir("frv"), ".frv", pick, &d)?;
    }
}
