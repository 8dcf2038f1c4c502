//! Tokenization and hashed n-gram featurization of enriched code slices.

/// Dimensionality of the hashed feature space.
pub const FEATURE_DIM: usize = 1 << 13; // 8192

/// Split an enriched slice into lowercase tokens.
///
/// Identifier-ish runs (`get_mac_addr`, `serialNumber`) are kept whole
/// *and* additionally split on `_` and camelCase boundaries, so both the
/// full name and its words become features — important because vendor
/// key names compound freely (`cloudusername`, `deviceToken`).
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_token(text, |t| tokens.push(t.to_string()));
    tokens
}

/// Visit every token of `text` in [`tokenize`] order without
/// materializing a `Vec<String>`.
///
/// `tokenize` is implemented on top of this, so the token streams are
/// equivalent by construction; callers that only need to *look at* each
/// token (the featurizer) skip the per-token allocations entirely. The
/// `&str` passed to `f` borrows a scratch buffer and is only valid for
/// the duration of the call.
pub fn for_each_token(text: &str, mut f: impl FnMut(&str)) {
    // Runs are pure ASCII (the split keeps only `[A-Za-z0-9_]`), so
    // byte-indexed slicing and per-char lowercasing are safe below.
    let mut lower = String::new();
    // Compound parts of one run, concatenated; `bounds` delimits them.
    let mut parts = String::new();
    let mut bounds: Vec<(usize, usize)> = Vec::new();
    for run in text.split(|c: char| !c.is_ascii_alphanumeric() && c != '_') {
        if run.is_empty() {
            continue;
        }
        lower.clear();
        lower.push_str(run);
        lower.make_ascii_lowercase();
        f(&lower);
        // A run with no `_` and no lower→upper boundary splits into
        // exactly one part equal to `lower`, which the condition below
        // would discard — skip building the parts at all. One cheap
        // byte scan decides; most runs (plain words, hex ids, numbers)
        // take this path.
        let mut compound = false;
        let mut prev_lower = false;
        for &b in run.as_bytes() {
            compound |= b == b'_' || (b.is_ascii_uppercase() && prev_lower);
            prev_lower = b.is_ascii_lowercase() || b.is_ascii_digit();
        }
        if !compound {
            continue;
        }
        // Split compound identifiers on `_` and camelCase boundaries.
        parts.clear();
        bounds.clear();
        for chunk in run.split('_') {
            let mut start = parts.len();
            let mut prev_lower = false;
            for ch in chunk.chars() {
                if ch.is_ascii_uppercase() && prev_lower {
                    if parts.len() > start {
                        bounds.push((start, parts.len()));
                    }
                    start = parts.len();
                }
                prev_lower = ch.is_ascii_lowercase() || ch.is_ascii_digit();
                parts.push(ch.to_ascii_lowercase());
            }
            if parts.len() > start {
                bounds.push((start, parts.len()));
            }
        }
        if bounds.len() > 1 || (bounds.len() == 1 && parts[bounds[0].0..bounds[0].1] != *lower) {
            for &(s, e) in &bounds {
                f(&parts[s..e]);
            }
        }
    }
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold one window part into a running FNV-1a state: its bytes, then
/// the `0x1f` part separator.
fn fold_part(mut h: u64, part: &str) -> u64 {
    for b in part.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= 0x1f;
    h.wrapping_mul(0x0000_0100_0000_01b3)
}

fn hash_feature(parts: &[&str]) -> usize {
    let h = parts.iter().fold(FNV_BASIS, |h, p| fold_part(h, p));
    (h as usize) % FEATURE_DIM
}

/// Hash tokens into a sparse feature vector of `(index, weight)` pairs.
///
/// Features: unigrams plus windowed n-grams of widths 2–5 — the linear
/// analogue of TextCNN's convolution kernels of sizes (2,3,4,5) (paper
/// §IV-C). Duplicate indices are merged; the vector is L2-normalized so
/// slice length does not dominate.
pub fn featurize(tokens: &[String]) -> Vec<(usize, f32)> {
    use std::collections::BTreeMap;
    let mut counts: BTreeMap<usize, f32> = BTreeMap::new();
    for t in tokens {
        *counts.entry(hash_feature(&[t])).or_default() += 1.0;
    }
    for width in 2..=5usize {
        if tokens.len() < width {
            break;
        }
        for w in tokens.windows(width) {
            let parts: Vec<&str> = w.iter().map(String::as_str).collect();
            *counts.entry(hash_feature(&parts)).or_default() += 0.5;
        }
    }
    let norm: f32 = counts.values().map(|v| v * v).sum::<f32>().sqrt();
    if norm > 0.0 {
        for v in counts.values_mut() {
            *v /= norm;
        }
    }
    counts.into_iter().collect()
}

/// Reusable-buffer featurizer: the same output as
/// [`featurize`]`(&`[`tokenize`]`(text))` without allocating a
/// `Vec<String>` per slice.
///
/// Tokens are streamed into a flat character arena delimited by byte
/// ranges, and counts accumulate into a dense [`FEATURE_DIM`]-wide bin
/// array (32 KiB — cache-resident) instead of an ordered map: each bin
/// is touched at most a handful of times, so a first-touch index list
/// plus one sort replaces ~5 map probes per token. Every buffer is
/// reused across calls. Window hashes are chained: one running FNV
/// state per start position covers all five widths. Bit-identity with
/// [`featurize`] holds exactly: every count is a sum of 1.0s and 0.5s,
/// exact in f32 whatever the accumulation order, the norm sums squares
/// in ascending index order (the sorted touch list stands in for the
/// map's key order), and the output is emitted ascending — the
/// identical float operations on identical values, so the output is
/// bit-equal, not merely close.
#[derive(Debug, Default)]
pub(crate) struct Featurizer {
    arena: String,
    bounds: Vec<(usize, usize)>,
    /// Dense accumulation bins. Empty until first use, then exactly
    /// [`FEATURE_DIM`] long and zeroed between calls via `touched`.
    bins: Vec<f32>,
    /// Indices whose bin is nonzero, in first-touch order.
    touched: Vec<u32>,
}

impl Featurizer {
    /// Featurize `text`. Equal to `featurize(&tokenize(text))`.
    pub(crate) fn features(&mut self, text: &str) -> Vec<(usize, f32)> {
        self.arena.clear();
        self.bounds.clear();
        let (arena, bounds) = (&mut self.arena, &mut self.bounds);
        for_each_token(text, |t| {
            let start = arena.len();
            arena.push_str(t);
            bounds.push((start, arena.len()));
        });
        if self.bins.is_empty() {
            self.bins = vec![0.0; FEATURE_DIM];
        }
        self.touched.clear();
        let token = |i: usize| &self.arena[self.bounds[i].0..self.bounds[i].1];
        // Counts are sums of +1.0/+0.5, so a zero bin means untouched.
        let mut add = |idx: usize, w: f32| {
            if self.bins[idx] == 0.0 {
                self.touched.push(idx as u32);
            }
            self.bins[idx] += w;
        };
        // Windows starting at one token are prefixes of each other, so
        // one running FNV state per start position yields the unigram
        // and every wider window in turn: each token is folded once per
        // start position reaching it (≤ 5 times), not once per window
        // containing it (15 times). The adds arrive start-major rather
        // than `featurize`'s width-major order; see the type docs for
        // why that is exact.
        let n = self.bounds.len();
        for start in 0..n {
            let mut h = FNV_BASIS;
            for (k, i) in (start..n.min(start + 5)).enumerate() {
                h = fold_part(h, token(i));
                add((h as usize) % FEATURE_DIM, if k == 0 { 1.0 } else { 0.5 });
            }
        }
        self.touched.sort_unstable();
        let norm: f32 = self
            .touched
            .iter()
            .map(|&i| {
                let v = self.bins[i as usize];
                v * v
            })
            .sum::<f32>()
            .sqrt();
        let out = self
            .touched
            .iter()
            .map(|&i| {
                let v = self.bins[i as usize];
                (i as usize, if norm > 0.0 { v / norm } else { v })
            })
            .collect();
        for &i in &self.touched {
            self.bins[i as usize] = 0.0;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_enriched_slices() {
        let toks = tokenize("CALL (Fun, get_mac_addr), (Local, buf, v_1357)");
        assert!(toks.contains(&"call".to_string()));
        assert!(toks.contains(&"get_mac_addr".to_string()));
        assert!(
            toks.contains(&"mac".to_string()),
            "compound split: {toks:?}"
        );
        assert!(toks.contains(&"buf".to_string()));
    }

    #[test]
    fn camel_case_is_split() {
        let toks = tokenize("serialNumber deviceToken");
        assert!(toks.contains(&"serialnumber".to_string()));
        assert!(toks.contains(&"serial".to_string()));
        assert!(toks.contains(&"number".to_string()));
        assert!(toks.contains(&"token".to_string()));
    }

    #[test]
    fn featurize_is_normalized_and_deterministic() {
        let toks = tokenize("CALL (Fun, nvram_get), (Cons, \"password\")");
        let f1 = featurize(&toks);
        let f2 = featurize(&toks);
        assert_eq!(f1, f2);
        let norm: f32 = f1.iter().map(|(_, v)| v * v).sum::<f32>();
        assert!((norm - 1.0).abs() < 1e-4, "unit norm, got {norm}");
        assert!(f1.iter().all(|(i, _)| *i < FEATURE_DIM));
    }

    #[test]
    fn different_texts_differ() {
        let a = featurize(&tokenize("mac=%s"));
        let b = featurize(&tokenize("password=%s"));
        assert_ne!(a, b);
    }

    #[test]
    fn empty_text() {
        assert!(tokenize("").is_empty());
        assert!(featurize(&[]).is_empty());
    }

    #[test]
    fn ngram_windows_add_features() {
        let short = featurize(&tokenize("a"));
        let long = featurize(&tokenize("a b c d e f"));
        assert!(long.len() > short.len());
    }

    /// The pre-optimization tokenizer, kept verbatim as the oracle the
    /// streaming implementation is compared against.
    fn tokenize_reference(text: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        for run in text.split(|c: char| !c.is_ascii_alphanumeric() && c != '_') {
            if run.is_empty() {
                continue;
            }
            let lower = run.to_ascii_lowercase();
            tokens.push(lower.clone());
            let mut parts: Vec<String> = Vec::new();
            for chunk in run.split('_') {
                let mut word = String::new();
                let mut prev_lower = false;
                for ch in chunk.chars() {
                    if ch.is_ascii_uppercase() && prev_lower {
                        if !word.is_empty() {
                            parts.push(word.to_ascii_lowercase());
                        }
                        word = String::new();
                    }
                    prev_lower = ch.is_ascii_lowercase() || ch.is_ascii_digit();
                    word.push(ch);
                }
                if !word.is_empty() {
                    parts.push(word.to_ascii_lowercase());
                }
            }
            if parts.len() > 1 || (parts.len() == 1 && parts[0] != lower) {
                tokens.extend(parts);
            }
        }
        tokens
    }

    #[test]
    fn streaming_matches_reference_on_tricky_shapes() {
        for text in [
            "",
            "CALL (Fun, get_mac_addr), (Local, buf, v_1357)",
            "serialNumber deviceToken XMLHttpRequest __init__ _a_ A",
            "snake_case_name camelCase MixedUP mac=%s {\"mac\":\"%s\"}",
            "___ ABC abc123DEF x9Y 日本語 ü a_B_c",
        ] {
            assert_eq!(tokenize(text), tokenize_reference(text), "on {text:?}");
        }
    }

    #[test]
    fn featurizer_buffer_reuse_is_bit_identical() {
        let mut f = Featurizer::default();
        for text in [
            "CALL (Fun, nvram_get), (Cons, \"password\")",
            "a b c d e f",
            "",
            "serialNumber=%s&deviceToken=%s",
        ] {
            assert_eq!(f.features(text), featurize(&tokenize(text)), "on {text:?}");
        }
    }

    const LONG_VOCAB: [&str; 16] = [
        "CALL (Fun, nvram_get)",
        "(Cons, \"password\")",
        "get_mac_addr",
        "serialNumber",
        "deviceToken",
        "XMLHttpRequest",
        "__init__",
        "v_1357",
        "mac=%s&sign=%s",
        "{\"uid\":\"%s\"}",
        "日本語",
        "ü_key",
        "naïveCase",
        "ACCESS_TOKEN",
        "0x4012a0",
        "snprintf",
    ];

    /// Join vocabulary picks with one of four separators, stopping
    /// before the text passes 400 bytes.
    fn long_slice(picks: &[(usize, usize)]) -> String {
        let mut text = String::new();
        for &(word, sep) in picks {
            let sep = [" ", ", ", "_", "→"][sep];
            if text.len() + LONG_VOCAB[word].len() + sep.len() > 400 {
                break;
            }
            text.push_str(LONG_VOCAB[word]);
            text.push_str(sep);
        }
        text
    }

    proptest::proptest! {
        #[test]
        fn streaming_tokenizer_matches_reference(
            text in "[a-dA-D0-2_=%\", ]{0,60}",
        ) {
            proptest::prop_assert_eq!(tokenize(&text), tokenize_reference(&text));
        }

        #[test]
        fn featurizer_matches_allocating_path(
            text in "[a-dA-D0-2_=%\", ]{0,60}",
        ) {
            let mut f = Featurizer::default();
            proptest::prop_assert_eq!(f.features(&text), featurize(&tokenize(&text)));
        }

        /// Long slices (well past the 5-token window) over slice-like
        /// vocabulary, `_`/camelCase compounds and multi-byte UTF-8:
        /// the chained window hashing stays bit-identical to the
        /// reference, across one reused featurizer.
        #[test]
        fn chained_featurizer_matches_reference_on_long_slices(
            picks in proptest::collection::vec((0..LONG_VOCAB.len(), 0..4usize), 6..40),
        ) {
            let text = long_slice(&picks);
            if tokenize(&text).len() <= 5 {
                // Mostly non-ASCII picks: too short to exercise chaining.
                return Ok(());
            }
            let mut f = Featurizer::default();
            let reference = featurize(&tokenize(&text));
            proptest::prop_assert_eq!(f.features(&text), reference.clone());
            proptest::prop_assert_eq!(f.features(&text), reference);
        }
    }
}
