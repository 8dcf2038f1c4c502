//! Hostile-image properties of the analysis pipeline, in the style of
//! the wire codec's hostile-frame suite: a firmware image whose device-
//! cloud executable was damaged and then *resealed* — its MRE checksum
//! recomputed by `Executable::to_bytes`, the `.fwi` container re-packed —
//! passes every container check and reaches the parser, lifter and
//! analysis stages. Whatever the damage (code words, symbol addresses
//! and counts, truncation), the pipeline must return an analysis, never
//! panic.
//!
//! Each case applies one to four mutations to the cloud executable of a
//! corpus device and runs the result through both `analyze_packed` and
//! `analyze_firmware_cancellable` (two unit workers); the two must
//! agree on everything but timings.

use firmres::{
    analyze_firmware_cancellable, analyze_packed, AnalysisConfig, CancelToken, FirmwareAnalysis,
    NullObserver, Severity, StageKind,
};
use firmres_corpus::generate_device;
use firmres_firmware::{FileEntry, FirmwareImage};
use firmres_isa::Executable;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::OnceLock;

/// Corpus devices with a binary cloud executable: a small one, a
/// mid-size one with LAN and echo messages, and the largest.
const DEVICES: [u8; 3] = [6, 10, 14];

/// One damage applied to an executable before it is resealed. Indices
/// are taken modulo the length of the table they address.
#[derive(Debug, Clone)]
enum Mutation {
    /// Flip one bit of a code word.
    FlipBit { at: usize, bit: u32 },
    /// Overwrite a code word with an arbitrary value.
    SetWord { at: usize, word: u32 },
    /// Copy one code word over another: a valid instruction in the
    /// wrong place (branch targets, registers and calls go astray).
    CopyWord { from: usize, to: usize },
    /// Move a function symbol by a small signed byte offset (it may end
    /// up unaligned, out of order, or outside the code).
    ShiftFunc { at: usize, delta: i32 },
    /// Point a function symbol at an arbitrary address.
    SetFuncAddr { at: usize, addr: u32 },
    /// Keep only the first `keep` function symbols.
    DropFuncs { keep: usize },
    /// Give a second symbol the address of an existing one.
    DupFunc { at: usize },
    /// Truncate the code image to `keep` words.
    TruncateCode { keep: usize },
    /// Truncate the import table: calls through dropped imports dangle.
    TruncateImports { keep: usize },
    /// Truncate the data image to `keep` bytes.
    TruncateData { keep: usize },
    /// Point a data symbol at an arbitrary address.
    SetDataSym { at: usize, addr: u32 },
    /// Set the entry point to an arbitrary address.
    SetEntry { addr: u32 },
}

fn apply(exe: &mut Executable, m: &Mutation) {
    let code_len = exe.code.len();
    match *m {
        Mutation::FlipBit { at, bit } if code_len > 0 => exe.code[at % code_len] ^= 1 << bit,
        Mutation::SetWord { at, word } if code_len > 0 => exe.code[at % code_len] = word,
        Mutation::CopyWord { from, to } if code_len > 0 => {
            exe.code[to % code_len] = exe.code[from % code_len];
        }
        Mutation::ShiftFunc { at, delta } if !exe.funcs.is_empty() => {
            let n = exe.funcs.len();
            let f = &mut exe.funcs[at % n];
            f.addr = f.addr.wrapping_add_signed(delta);
        }
        Mutation::SetFuncAddr { at, addr } if !exe.funcs.is_empty() => {
            let n = exe.funcs.len();
            exe.funcs[at % n].addr = addr;
        }
        Mutation::DropFuncs { keep } => {
            // Locals name their function by index; drop the ones whose
            // function went, as a linker stripping symbols would.
            let keep = keep % (exe.funcs.len() + 1);
            exe.funcs.truncate(keep);
            exe.locals.retain(|l| (l.func_index as usize) < keep);
        }
        Mutation::DupFunc { at } if !exe.funcs.is_empty() => {
            let n = exe.funcs.len();
            let mut dup = exe.funcs[at % n].clone();
            dup.name.push_str("_dup");
            exe.funcs.push(dup);
        }
        Mutation::TruncateCode { keep } => exe.code.truncate(keep % (code_len + 1)),
        Mutation::TruncateImports { keep } => {
            let n = exe.imports.len();
            exe.imports.truncate(keep % (n + 1));
        }
        Mutation::TruncateData { keep } => {
            let n = exe.data.len();
            exe.data.truncate(keep % (n + 1));
        }
        Mutation::SetDataSym { at, addr } if !exe.data_syms.is_empty() => {
            let n = exe.data_syms.len();
            exe.data_syms[at % n].1 = addr;
        }
        Mutation::SetEntry { addr } => exe.entry = addr,
        // A table the mutation addresses is empty: nothing to damage.
        _ => {}
    }
}

fn code_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<usize>(), 0u32..32).prop_map(|(at, bit)| Mutation::FlipBit { at, bit }),
        (any::<usize>(), any::<u32>()).prop_map(|(at, word)| Mutation::SetWord { at, word }),
        (any::<usize>(), any::<usize>()).prop_map(|(from, to)| Mutation::CopyWord { from, to }),
    ]
}

fn symbol_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<usize>(), -64i32..64).prop_map(|(at, delta)| Mutation::ShiftFunc { at, delta }),
        (any::<usize>(), any::<u32>()).prop_map(|(at, addr)| Mutation::SetFuncAddr { at, addr }),
        any::<usize>().prop_map(|keep| Mutation::DropFuncs { keep }),
        any::<usize>().prop_map(|at| Mutation::DupFunc { at }),
        (any::<usize>(), any::<u32>()).prop_map(|(at, addr)| Mutation::SetDataSym { at, addr }),
        any::<u32>().prop_map(|addr| Mutation::SetEntry { addr }),
    ]
}

fn truncation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        any::<usize>().prop_map(|keep| Mutation::TruncateCode { keep }),
        any::<usize>().prop_map(|keep| Mutation::TruncateImports { keep }),
        any::<usize>().prop_map(|keep| Mutation::TruncateData { keep }),
    ]
}

/// The pristine firmware of each device in [`DEVICES`] with its cloud
/// executable's path, generated once per test process.
fn pristine() -> &'static [(FirmwareImage, String)] {
    static DEVS: OnceLock<Vec<(FirmwareImage, String)>> = OnceLock::new();
    DEVS.get_or_init(|| {
        DEVICES
            .iter()
            .map(|&id| {
                let dev = generate_device(id, 7);
                let path = dev.cloud_executable.expect("binary device");
                (dev.firmware, path)
            })
            .collect()
    })
}

/// Damage device `pick`'s cloud executable with `mutations`, reseal the
/// executable and the container, and run both entry points.
fn run_mutant(pick: usize, mutations: &[Mutation]) -> Result<(), TestCaseError> {
    let (fw, path) = &pristine()[pick % DEVICES.len()];
    let mut exe = fw.load_executable(path).expect("pristine agent loads");
    for m in mutations {
        apply(&mut exe, m);
    }
    let mut fw = fw.clone();
    fw.add_file(
        path.as_str(),
        FileEntry::Executable(exe.to_bytes().to_vec()),
    );
    let packed = fw.pack();
    let config = AnalysisConfig::default();

    let from_packed = analyze_packed(&packed, None, &config);
    prop_assert!(
        !from_packed
            .diagnostics
            .iter()
            .any(|d| d.stage == StageKind::Input),
        "a resealed container unpacks: {:?}",
        from_packed.diagnostics
    );
    let cancellable = analyze_firmware_cancellable(
        &fw,
        None,
        &config,
        2,
        &mut NullObserver,
        &CancelToken::new(),
    );
    prop_assert!(
        cancellable.is_ok(),
        "untripped token failed the run: {:?}",
        cancellable.err()
    );
    let cancellable = cancellable.expect("checked above");
    prop_assert!(
        same_analysis(&from_packed, &cancellable),
        "entry points disagree"
    );
    Ok(())
}

/// Everything but timings (which are measured, not computed).
fn same_analysis(a: &FirmwareAnalysis, b: &FirmwareAnalysis) -> bool {
    a.executable == b.executable
        && format!("{:?}", a.handlers) == format!("{:?}", b.handlers)
        && format!("{:?}", a.messages) == format!("{:?}", b.messages)
        && a.counters == b.counters
        && a.diagnostics == b.diagnostics
}

proptest! {
    /// Damaged code words: flipped bits, arbitrary words, valid
    /// instructions copied to the wrong place.
    #[test]
    fn resealed_code_damage_never_panics(
        pick in any::<usize>(),
        mutations in proptest::collection::vec(code_mutation(), 1..5),
    ) {
        run_mutant(pick, &mutations)?;
    }

    /// Damaged symbol tables: shifted, arbitrary, dropped and duplicated
    /// function symbols, moved data symbols and entry points.
    #[test]
    fn resealed_symbol_damage_never_panics(
        pick in any::<usize>(),
        mutations in proptest::collection::vec(symbol_mutation(), 1..5),
    ) {
        run_mutant(pick, &mutations)?;
    }

    /// Truncated code, import and data images, alone or mixed with the
    /// other damage.
    #[test]
    fn resealed_truncation_never_panics(
        pick in any::<usize>(),
        cut in truncation(),
        more in proptest::collection::vec(
            prop_oneof![code_mutation(), symbol_mutation(), truncation()],
            0..3,
        ),
    ) {
        let mut mutations = vec![cut];
        mutations.extend(more);
        run_mutant(pick, &mutations)?;
    }

    /// A truncated container is caught at unpacking and degrades into
    /// an input diagnostic.
    #[test]
    fn truncated_containers_are_an_input_diagnostic(pick in any::<usize>(), cut in any::<usize>()) {
        let (fw, _) = &pristine()[pick % DEVICES.len()];
        let packed = fw.pack();
        let analysis = analyze_packed(&packed[..cut % packed.len()], None, &AnalysisConfig::default());
        prop_assert!(analysis.executable.is_none());
        prop_assert_eq!(analysis.worst_severity(), Some(Severity::Error));
    }
}
