//! Cold-path slice rendering against its oracles, over the 22-device
//! corpus and synthesized fleets: a renderer that borrows the taint
//! engine's def-use cache emits the reference renderer's bytes, and the
//! one-pass path hashes equal the per-leaf path walk.

use firmres::stages::enumerate_units;
use firmres::{analyze_firmware, identify_device_cloud, AnalysisConfig, ExeIdConfig};
use firmres_corpus::{generate_corpus, synth_device};
use firmres_dataflow::TaintEngine;
use firmres_firmware::FirmwareImage;
use firmres_ir::{ColdPath, Program};
use firmres_isa::{lift, Executable};
use firmres_mft::{Mft, MftNodeId, SliceRenderer};

/// Every firmware the checks sweep: the corpus plus two synthesized
/// fleets.
fn firmwares() -> Vec<FirmwareImage> {
    let mut out: Vec<FirmwareImage> = generate_corpus(7)
        .into_iter()
        .map(|dev| dev.firmware)
        .collect();
    for seed in [3, 42] {
        out.extend((0..16).map(|i| synth_device(i, seed).unpack()));
    }
    out
}

/// Every lifted executable of `fw` that has device-cloud handlers.
fn handler_programs(fw: &FirmwareImage) -> Vec<(Program, Vec<firmres::HandlerInfo>)> {
    fw.executables()
        .filter_map(|(path, bytes)| {
            let program = lift(&Executable::from_bytes(bytes).ok()?, path).ok()?;
            let handlers = identify_device_cloud(&program, &ExeIdConfig::default());
            (!handlers.is_empty()).then_some((program, handlers))
        })
        .collect()
}

#[test]
fn engine_sharing_renderer_matches_reference_renderer() {
    let mut slices = 0;
    for fw in firmwares() {
        for (program, handlers) in handler_programs(&fw) {
            let engine = TaintEngine::new(&program);
            let shared = SliceRenderer::for_engine(&engine);
            let reference = SliceRenderer::with_mode(&program, ColdPath::Reference);
            for unit in enumerate_units(&program, &handlers) {
                let trace = engine.trace_shared(unit.function, unit.callsite, unit.payload_arg);
                for mft in [
                    Mft::from_taint(&trace.tree),
                    Mft::from_taint(&trace.tree).simplified(),
                ] {
                    let got = shared.slices_for_tree(&mft);
                    assert_eq!(
                        got,
                        reference.slices_for_tree(&mft),
                        "{}@{:#x}",
                        unit.function_name,
                        unit.callsite
                    );
                    slices += got.len();
                }
            }
        }
    }
    assert!(slices > 1000, "sweep rendered too little: {slices} slices");
}

#[test]
fn one_pass_path_hashes_equal_per_leaf_walks() {
    let mut leaves = 0;
    for fw in firmwares() {
        let analysis = analyze_firmware(&fw, None, &AnalysisConfig::default());
        for record in &analysis.messages {
            for mft in [record.mft.clone(), record.mft.simplified()] {
                let hashes = mft.path_hashes();
                assert_eq!(hashes.len(), mft.len());
                for (id, hash) in hashes.iter().enumerate() {
                    assert_eq!(*hash, mft.path_hash(MftNodeId(id)), "node {id}");
                }
                leaves += mft.leaves().len();
            }
        }
    }
    assert!(leaves > 1000, "sweep hashed too little: {leaves} leaves");
}
