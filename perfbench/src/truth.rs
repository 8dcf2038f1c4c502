//! Ground truth and output checks shared by the workloads.

use firmres::FirmwareAnalysis;
use firmres_cache::codec;
use firmres_corpus::MessagePlan;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// An analysis scored against its device's message plans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanScore {
    /// Plans the analysis identified.
    pub found: u64,
    /// Plans of the device, LAN-addressed ones included.
    pub planned: u64,
    /// Plans whose outcome contradicts the ground truth: a cloud plan
    /// that was not identified, or a LAN plan that was (the grouping
    /// step discards LAN-addressed messages by design).
    pub violated: u64,
}

impl PlanScore {
    /// Score `analysis` against `plans`. A plan counts as identified
    /// when an identified (non-LAN, non-echo) record comes from the
    /// plan's function.
    pub fn of(plans: &[MessagePlan], analysis: &FirmwareAnalysis) -> PlanScore {
        let mut score = PlanScore {
            planned: plans.len() as u64,
            ..PlanScore::default()
        };
        for plan in plans {
            let found = analysis.identified().any(|r| r.function == plan.func_name);
            score.found += u64::from(found);
            score.violated += u64::from(found == plan.lan);
        }
        score
    }

    /// Add another device's score.
    pub fn add(&mut self, other: PlanScore) {
        self.found += other.found;
        self.planned += other.planned;
        self.violated += other.violated;
    }

    /// `message_recall`: identified plans over all plans.
    pub fn recall(&self) -> f64 {
        crate::measure::ratio(self.found as f64, self.planned as f64)
    }
}

/// The persisted byte form with the one run-dependent field (stage
/// timings) zeroed: two analyses agree iff these bytes do.
pub fn canonical(mut analysis: FirmwareAnalysis) -> Vec<u8> {
    analysis.timings = Default::default();
    let mut out = Vec::new();
    codec::put_analysis(&mut out, &analysis);
    out
}

/// Canonical form of an encoded analysis (a served payload or a store
/// entry body): decode, zero the timings, re-encode. `None` when the
/// bytes do not decode.
pub fn canonical_payload(payload: &[u8]) -> Option<Vec<u8>> {
    let mut r = codec::Reader::new(payload);
    let analysis = codec::get_analysis(&mut r).ok()?;
    (r.remaining() == 0).then(|| canonical(analysis))
}

/// Run `f`, turning a panic into `None` so one failing operation is
/// counted instead of ending the run.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// FNV-1a over bytes: a compact fingerprint for comparing outputs of
/// repeated passes.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
