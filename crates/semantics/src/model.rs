//! The multi-class linear classifier and its SGD trainer.
//!
//! Weights live in one contiguous row-major matrix
//! (`classes × (FEATURE_DIM + 1)`, bias in the last column) rather than
//! a `Vec<Vec<f32>>` of per-class rows, so training and persistence
//! walk flat memory. At construction the matrix is additionally
//! *sparsified* for inference: SGD only ever updates weights of
//! features present in some training example, so most of the hashed
//! columns are exactly zero across every class, and an index map lets
//! the dot products touch only live columns.
//!
//! Both inference entry points — [`Classifier::predict`] and
//! [`Classifier::predict_batch`] — go through one shared raw-score
//! kernel over that sparsified form and take their label as the argmax
//! of the *raw* scores. Softmax is strictly monotone, so this is
//! provably the same label the probability vector yields, computed
//! without any `exp`; sharing the kernel means both paths perform the
//! identical sequence of float operations and can never diverge on ties.

use crate::token::{featurize, tokenize, Featurizer, FEATURE_DIM};
use crate::Primitive;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::OnceLock;

/// One weight row: all feature columns plus the bias column.
const ROW: usize = FEATURE_DIM + 1;

/// Safety margin for the certified None pre-filter (see
/// [`Classifier::prefilter_certifies_none`]). The gap bound is
/// accumulated in `f64` over exact `f32`-difference terms, but the
/// scores it reasons about are computed by the `f32` kernel, whose
/// rounding can deviate from the real-arithmetic sum. The margin is
/// sized generously above any realistic accumulation error (unit-norm
/// feature vectors, bounded weights, at most a few thousand terms);
/// a too-large margin only costs skip rate, never correctness.
const PREFILTER_SLACK: f64 = 1e-2;

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Epochs over the training set (paper: 100).
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// L2 regularization strength.
    pub l2: f32,
    /// RNG seed for shuffling (runs are deterministic given a seed).
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 100,
            learning_rate: 0.5,
            l2: 1e-6,
            seed: 0xF1A9,
        }
    }
}

/// Summary statistics of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Epochs actually run.
    pub epochs: usize,
    /// Accuracy on the training data after the final epoch.
    pub train_accuracy: f64,
    /// Cross-entropy loss after the final epoch (mean per example).
    pub final_loss: f64,
}

/// Labels for a batch of slice texts (see [`Classifier::predict_batch`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutcome {
    /// One label per input text, in input order.
    pub labels: Vec<Primitive>,
    /// Texts the certified None pre-filter resolved without scoring.
    pub prefilter_skips: u64,
}

/// A softmax linear classifier over hashed slice features.
#[derive(Debug, Clone)]
pub struct Classifier {
    /// Row-major `n_classes × ROW` weight matrix; the bias sits in
    /// column `FEATURE_DIM` of each row. This is the canonical form:
    /// training updates it and persistence serializes it verbatim.
    flat: Vec<f32>,
    n_classes: usize,
    /// Per-class biases (column `FEATURE_DIM` of each row).
    bias: Vec<f32>,
    /// Feature index → live-column index, `u32::MAX` for columns that
    /// are exactly zero in every class (skipped by the kernel).
    col_of: Vec<u32>,
    /// Feature-major live-column weights: live column `c`'s class
    /// weights occupy `lw[c * n_classes ..][.. n_classes]`, so one
    /// sparse feature updates all class scores from one cache line.
    lw: Vec<f32>,
    /// Per-live-column pre-filter bound:
    /// `max_{c ≠ None}(w[c][j] − w[None][j])`. Deliberately *not*
    /// clamped at zero — `x_j ≥ 0`, so a column every non-None class
    /// scores below None on contributes sound negative evidence.
    gap: Vec<f64>,
    /// `max_{c ≠ None}(bias[c] − bias[None])` (may be negative).
    bias_gap: f64,
    report: TrainReport,
    /// Memoized digest of [`Classifier::to_bytes`] (see
    /// [`Classifier::fingerprint_with`]). The weights never change after
    /// construction, so a clone may carry the memo along.
    fingerprint: OnceLock<u64>,
}

impl Classifier {
    /// Train on `(slice text, label)` pairs. See [`Classifier::train_with_report`].
    pub fn train(data: &[(String, Primitive)], config: &TrainConfig) -> Classifier {
        Self::train_with_report(data, config)
    }

    /// Train and keep the [`TrainReport`] (accessible via
    /// [`Classifier::report`]).
    pub fn train_with_report(data: &[(String, Primitive)], config: &TrainConfig) -> Classifier {
        let n_classes = Primitive::ALL.len();
        let mut flat = vec![0.0f32; n_classes * ROW];
        let mut fz = Featurizer::default();
        let features: Vec<(Vec<(usize, f32)>, usize)> = data
            .iter()
            .map(|(text, label)| (fz.features(text), label.index()))
            .collect();
        let mut order: Vec<usize> = (0..features.len()).collect();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut final_loss = 0.0f64;
        for epoch in 0..config.epochs {
            order.shuffle(&mut rng);
            let lr = config.learning_rate / (1.0 + 0.02 * epoch as f32);
            let mut loss_sum = 0.0f64;
            for &i in &order {
                let (fv, label) = &features[i];
                let probs = softmax_flat(&flat, n_classes, fv);
                loss_sum += -f64::from(probs[*label].max(1e-9).ln());
                for (c, prob) in probs.iter().enumerate() {
                    let err = prob - if c == *label { 1.0 } else { 0.0 };
                    let w = &mut flat[c * ROW..(c + 1) * ROW];
                    for (j, x) in fv {
                        w[*j] -= lr * (err * x + config.l2 * w[*j]);
                    }
                    w[FEATURE_DIM] -= lr * err;
                }
            }
            final_loss = if features.is_empty() {
                0.0
            } else {
                loss_sum / features.len() as f64
            };
        }
        let correct = features
            .iter()
            .filter(|(fv, label)| {
                let probs = softmax_flat(&flat, n_classes, fv);
                argmax(&probs) == *label
            })
            .count();
        let train_accuracy = if features.is_empty() {
            0.0
        } else {
            correct as f64 / features.len() as f64
        };
        Self::from_flat(
            flat,
            TrainReport {
                epochs: config.epochs,
                train_accuracy,
                final_loss,
            },
        )
    }

    /// Build the sparsified inference form from the canonical matrix.
    fn from_flat(flat: Vec<f32>, report: TrainReport) -> Classifier {
        debug_assert_eq!(flat.len() % ROW, 0);
        let n_classes = flat.len() / ROW;
        debug_assert_eq!(n_classes, Primitive::ALL.len());
        // `None` is last in `Primitive::ALL`; the pre-filter bound is
        // derived against it.
        let none = n_classes - 1;
        debug_assert_eq!(Primitive::from_index(none), Some(Primitive::None));
        let bias: Vec<f32> = (0..n_classes)
            .map(|c| flat[c * ROW + FEATURE_DIM])
            .collect();
        let mut col_of = vec![u32::MAX; FEATURE_DIM];
        let mut lw = Vec::new();
        let mut gap = Vec::new();
        for (j, slot) in col_of.iter_mut().enumerate() {
            if (0..n_classes).all(|c| flat[c * ROW + j] == 0.0) {
                continue;
            }
            *slot = gap.len() as u32;
            let wn = f64::from(flat[none * ROW + j]);
            let mut g = f64::NEG_INFINITY;
            for c in 0..n_classes {
                let w = flat[c * ROW + j];
                lw.push(w);
                if c != none {
                    g = g.max(f64::from(w) - wn);
                }
            }
            gap.push(g);
        }
        let bn = f64::from(bias[none]);
        let bias_gap = bias[..none]
            .iter()
            .map(|b| f64::from(*b) - bn)
            .fold(f64::NEG_INFINITY, f64::max);
        Classifier {
            flat,
            n_classes,
            bias,
            col_of,
            lw,
            gap,
            bias_gap,
            report,
            fingerprint: OnceLock::new(),
        }
    }

    /// `digest(&self.to_bytes())`, computed on the first call only.
    ///
    /// Serializing and hashing the full weight matrix costs far more
    /// than the lookups a cache key guards, and a daemon keys every job
    /// against the same model, so the digest is taken once per model and
    /// memoized. Later calls return the memo without calling `digest`:
    /// every caller must pass the same function (the cache crate's
    /// `classifier_fingerprint` is the one caller).
    pub fn fingerprint_with(&self, digest: impl FnOnce(&[u8]) -> u64) -> u64 {
        *self.fingerprint.get_or_init(|| digest(&self.to_bytes()))
    }

    /// Raw (pre-softmax) class scores for a feature vector. This is the
    /// single scoring kernel shared by every inference entry point, so
    /// the arithmetic — including which zero columns are skipped — is
    /// identical everywhere by construction.
    fn raw_scores(&self, fv: &[(usize, f32)], scores: &mut Vec<f32>) {
        scores.clear();
        scores.extend_from_slice(&self.bias);
        for (j, x) in fv {
            let col = self.col_of[*j];
            if col == u32::MAX {
                continue;
            }
            let ws = &self.lw[col as usize * self.n_classes..][..self.n_classes];
            for (s, w) in scores.iter_mut().zip(ws) {
                *s += w * x;
            }
        }
    }

    /// Whether the certified pre-filter proves the label is `None`.
    ///
    /// Every feature weight is non-negative in the input (`x_j ≥ 0`
    /// after L2 normalization), so for any non-None class `c`:
    ///
    /// ```text
    /// score_c − score_None = (bias_c − bias_None) + Σ_j (w[c][j] − w[None][j]) · x_j
    ///                      ≤ bias_gap + Σ_j gap[j] · x_j
    /// ```
    ///
    /// If that bound is strictly below `−PREFILTER_SLACK`, no non-None
    /// class can reach None's score and the argmax is None without
    /// scoring. Strictness matters: None is the *last* class, so a
    /// first-max-wins argmax would hand an exact tie to the non-None
    /// class — the slack keeps the skip decision safely inside the
    /// region where the full `f32` kernel agrees.
    pub(crate) fn prefilter_certifies_none(&self, fv: &[(usize, f32)]) -> bool {
        let mut bound = self.bias_gap;
        for (j, x) in fv {
            let col = self.col_of[*j];
            if col != u32::MAX {
                bound += self.gap[col as usize] * f64::from(*x);
            }
        }
        bound < -PREFILTER_SLACK
    }

    /// Class probabilities for a slice.
    pub fn probabilities(&self, text: &str) -> Vec<f32> {
        let fv = featurize(&tokenize(text));
        let mut scores = Vec::with_capacity(self.n_classes);
        self.raw_scores(&fv, &mut scores);
        softmax_in_place(&mut scores);
        scores
    }

    /// The most probable primitive and the full probability vector.
    ///
    /// The label comes from the raw-score argmax (softmax is monotone,
    /// so it is the same class), via the same kernel as
    /// [`Classifier::predict_batch`].
    pub fn predict(&self, text: &str) -> (Primitive, Vec<f32>) {
        let fv = featurize(&tokenize(text));
        let mut scores = Vec::with_capacity(self.n_classes);
        self.raw_scores(&fv, &mut scores);
        let label = Primitive::from_index(argmax(&scores)).expect("valid index");
        softmax_in_place(&mut scores);
        (label, scores)
    }

    /// Labels for a whole batch of slice texts in one call: one shared
    /// featurizer scratch, one reused score buffer, no softmax, and —
    /// with `prefilter` — the certified None pre-filter short-circuits
    /// slices provably labeled None. Labels are identical to calling
    /// [`Classifier::predict`] per text.
    pub fn predict_batch(&self, texts: &[&str], prefilter: bool) -> BatchOutcome {
        let mut fz = Featurizer::default();
        let mut scores: Vec<f32> = Vec::with_capacity(self.n_classes);
        let mut labels = Vec::with_capacity(texts.len());
        let mut prefilter_skips = 0u64;
        for text in texts {
            let fv = fz.features(text);
            if prefilter && self.prefilter_certifies_none(&fv) {
                prefilter_skips += 1;
                labels.push(Primitive::None);
                continue;
            }
            self.raw_scores(&fv, &mut scores);
            labels.push(Primitive::from_index(argmax(&scores)).expect("valid index"));
        }
        BatchOutcome {
            labels,
            prefilter_skips,
        }
    }

    /// Accuracy on labeled data.
    pub fn accuracy(&self, data: &[(String, Primitive)]) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct = data
            .iter()
            .filter(|(text, label)| self.predict(text).0 == *label)
            .count();
        correct as f64 / data.len() as f64
    }

    /// The training report.
    pub fn report(&self) -> &TrainReport {
        &self.report
    }

    /// The canonical row-major weight matrix, for persistence.
    pub(crate) fn flat(&self) -> &[f32] {
        &self.flat
    }

    /// The per-class weight rows `[w_0 … w_{FEATURE_DIM-1}, bias]` as
    /// independent vectors — the historical in-memory layout, rebuilt
    /// on demand for reference and benchmark paths that reproduce the
    /// pre-batching arithmetic (nested-row dot products, full softmax).
    pub fn dense_weights(&self) -> Vec<Vec<f32>> {
        self.flat.chunks(ROW).map(<[f32]>::to_vec).collect()
    }

    /// Number of output classes.
    pub(crate) fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Rebuild a classifier from persisted parts (a row-major matrix of
    /// `ROW`-length rows, as returned by [`Classifier::flat`]).
    pub(crate) fn from_parts(flat: Vec<f32>, report: TrainReport) -> Classifier {
        Self::from_flat(flat, report)
    }
}

/// Training-path scoring over the canonical matrix: raw scores for all
/// classes, softmax-normalized. Walks every feature of `fv` (the
/// sparsified form does not exist mid-training).
fn softmax_flat(flat: &[f32], n_classes: usize, fv: &[(usize, f32)]) -> Vec<f32> {
    let mut scores: Vec<f32> = (0..n_classes)
        .map(|c| {
            let w = &flat[c * ROW..(c + 1) * ROW];
            let mut s = w[FEATURE_DIM];
            for (j, x) in fv {
                s += w[*j] * x;
            }
            s
        })
        .collect();
    softmax_in_place(&mut scores);
    scores
}

fn softmax_in_place(scores: &mut [f32]) {
    let max = scores.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for s in scores.iter_mut() {
        *s = (*s - max).exp();
        sum += *s;
    }
    for s in scores.iter_mut() {
        *s /= sum;
    }
}

/// First-max-wins argmax under the `f32` total order.
///
/// The previous `max_by(partial_cmp(..).unwrap_or(Equal))` reduction
/// resolved ties last-max-wins and made a NaN score win or lose
/// depending on where it sat in the slice. Under `total_cmp` a (positive)
/// NaN compares greater than every number, so its resolution is a fixed
/// rule rather than an artifact of position, and exact ties always go to
/// the earliest class — batch and reference paths can never diverge.
fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    for (i, x) in xs.iter().enumerate().skip(1) {
        if x.total_cmp(&xs[best]) == std::cmp::Ordering::Greater {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_dataset() -> Vec<(String, Primitive)> {
        let mut data = Vec::new();
        let make = |s: &str| s.to_string();
        for i in 0..20 {
            data.push((
                make(&format!("CALL (Fun, get_mac_addr) mac addr {i}")),
                Primitive::DevIdentifier,
            ));
            data.push((
                make(&format!(
                    "CALL (Fun, nvram_get) (Cons, \"serial_{i}\") serial number"
                )),
                Primitive::DevIdentifier,
            ));
            data.push((
                make(&format!("(Cons, \"device_secret\") secret key {i}")),
                Primitive::DevSecret,
            ));
            data.push((
                make(&format!(
                    "(Cons, \"username\") (Cons, \"password\") login {i}"
                )),
                Primitive::UserCred,
            ));
            data.push((
                make(&format!("(Cons, \"access_token={i}\") token session")),
                Primitive::BindToken,
            ));
            data.push((
                make(&format!("CALL (Fun, hmac_sign) signature sig {i}")),
                Primitive::Signature,
            ));
            data.push((
                make(&format!("(Cons, \"cloud.example.com\") host server {i}")),
                Primitive::Address,
            ));
            data.push((
                make(&format!("(Cons, \"uptime={i}\") counter misc")),
                Primitive::None,
            ));
        }
        data
    }

    fn toy_model(epochs: usize) -> Classifier {
        Classifier::train(
            &toy_dataset(),
            &TrainConfig {
                epochs,
                ..Default::default()
            },
        )
    }

    #[test]
    fn learns_separable_toy_data() {
        let model = toy_model(30);
        assert!(
            model.report().train_accuracy > 0.95,
            "training accuracy {} too low",
            model.report().train_accuracy
        );
        let (label, _) = model.predict("CALL (Fun, get_mac_addr) mac addr 99");
        assert_eq!(label, Primitive::DevIdentifier);
        let (label, _) = model.predict("(Cons, \"password\") login credential");
        assert_eq!(label, Primitive::UserCred);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let model = toy_model(5);
        let probs = model.probabilities("anything at all");
        let sum: f32 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "sum {sum}");
        assert_eq!(probs.len(), 7);
        assert!(probs.iter().all(|p| *p >= 0.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let data = toy_dataset();
        let cfg = TrainConfig {
            epochs: 5,
            ..Default::default()
        };
        let m1 = Classifier::train(&data, &cfg);
        let m2 = Classifier::train(&data, &cfg);
        assert_eq!(m1.probabilities("mac"), m2.probabilities("mac"));
    }

    #[test]
    fn accuracy_on_held_out() {
        let model = toy_model(30);
        let held_out = vec![
            (
                "mac addr get_mac_addr".to_string(),
                Primitive::DevIdentifier,
            ),
            ("secret certificate".to_string(), Primitive::DevSecret),
        ];
        assert!(model.accuracy(&held_out) >= 0.5);
        assert_eq!(model.accuracy(&[]), 0.0);
    }

    #[test]
    fn empty_training_is_safe() {
        let model = Classifier::train(
            &[],
            &TrainConfig {
                epochs: 1,
                ..Default::default()
            },
        );
        let (label, probs) = model.predict("whatever");
        assert_eq!(probs.len(), 7);
        // Untrained model predicts *something* deterministic.
        let _ = label;
        // With all-zero weights nothing is live and the pre-filter
        // bound is exactly zero — it must not certify a skip.
        let batch = model.predict_batch(&["whatever"], true);
        assert_eq!(batch.labels, vec![label]);
        assert_eq!(batch.prefilter_skips, 0);
    }

    #[test]
    fn argmax_is_first_max_wins_total_order() {
        // Exact ties go to the earliest class.
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[2.0, 2.0, 2.0]), 0);
        // Total order distinguishes the zeros: +0.0 > -0.0.
        assert_eq!(argmax(&[-0.0, 0.0]), 1);
        assert_eq!(argmax(&[0.0, -0.0]), 0);
        // A NaN score always wins (positive NaN is greatest under
        // total_cmp) — a fixed rule, not a position artifact like the
        // old partial_cmp fallback.
        assert_eq!(argmax(&[f32::NAN, 1.0]), 0);
        assert_eq!(argmax(&[1.0, f32::NAN]), 1);
        assert_eq!(argmax(&[]), 0);
    }

    #[test]
    fn batch_labels_match_per_slice_predict() {
        let model = toy_model(10);
        let texts = [
            "CALL (Fun, get_mac_addr) mac addr 99",
            "(Cons, \"password\") login credential",
            "(Cons, \"uptime=77\") counter misc",
            "completely unrelated words here",
            "",
            "CALL (Fun, get_mac_addr) mac addr 99", // duplicate
        ];
        for prefilter in [false, true] {
            let batch = model.predict_batch(&texts, prefilter);
            assert_eq!(batch.labels.len(), texts.len());
            for (text, got) in texts.iter().zip(&batch.labels) {
                assert_eq!(*got, model.predict(text).0, "on {text:?}");
            }
            if !prefilter {
                assert_eq!(batch.prefilter_skips, 0);
            }
        }
    }

    #[test]
    fn prefilter_never_skips_a_non_none_slice() {
        let model = toy_model(30);
        let mut fz = Featurizer::default();
        let mut skipped_some = false;
        for (text, _) in &toy_dataset() {
            let fv = fz.features(text);
            if model.prefilter_certifies_none(&fv) {
                skipped_some = true;
                assert_eq!(
                    model.predict(text).0,
                    Primitive::None,
                    "pre-filter skipped a non-None slice: {text:?}"
                );
            }
        }
        // The None training slices are far from every other class on
        // this separable set, so the filter should actually fire.
        assert!(skipped_some, "pre-filter never fired on the toy set");
    }

    #[test]
    fn sparsification_skips_only_dead_columns() {
        let model = toy_model(5);
        let live = model.col_of.iter().filter(|c| **c != u32::MAX).count();
        assert!(live > 0, "trained model has live columns");
        assert!(
            live < FEATURE_DIM,
            "toy training touches a strict subset of the feature space"
        );
        assert_eq!(model.lw.len(), live * model.n_classes);
        assert_eq!(model.gap.len(), live);
        for (j, col) in model.col_of.iter().enumerate() {
            if *col == u32::MAX {
                for c in 0..model.n_classes {
                    assert_eq!(model.flat[c * ROW + j], 0.0, "dead column {j} is zero");
                }
            }
        }
    }

    /// One trained model shared across proptest cases (training per
    /// case would dominate the run).
    fn cached_model() -> &'static Classifier {
        static MODEL: std::sync::OnceLock<Classifier> = std::sync::OnceLock::new();
        MODEL.get_or_init(|| toy_model(10))
    }

    proptest::proptest! {
        #[test]
        fn batch_matches_predict_on_arbitrary_text(
            texts in proptest::collection::vec("[a-dA-D0-2_=%\", ]{0,40}", 0..8),
            prefilter in proptest::strategy::any::<bool>(),
        ) {
            let model = cached_model();
            let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
            let batch = model.predict_batch(&refs, prefilter);
            for (text, got) in refs.iter().zip(&batch.labels) {
                proptest::prop_assert_eq!(*got, model.predict(text).0, "on {:?}", text);
            }
        }

        #[test]
        fn batch_matches_predict_on_vocabulary_text(
            picks in proptest::collection::vec(0..18usize, 0..10),
        ) {
            const VOCAB: [&str; 18] = [
                "mac", "addr", "get_mac_addr", "password", "login", "username",
                "access_token", "session", "hmac_sign", "signature", "serial",
                "uptime", "counter", "misc", "cloud", "host", "server", "secret",
            ];
            let model = cached_model();
            let words: Vec<&str> = picks.iter().map(|i| VOCAB[*i]).collect();
            let text = words.join(" ");
            let batch = model.predict_batch(&[text.as_str()], true);
            proptest::prop_assert_eq!(batch.labels[0], model.predict(&text).0, "on {:?}", text);
        }
    }
}
