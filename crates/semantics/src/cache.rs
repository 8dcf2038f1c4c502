//! Corpus-wide sharded classification cache.
//!
//! Third-party component reuse means the same delivery wrappers render
//! byte-identical slices across many firmware images, so a memo scoped
//! to one image would still re-classify the same text once per device.
//! [`ClassCache`] keeps its memo at corpus scope: a fixed array of
//! `Mutex<HashMap>` shards keyed by FNV-128 of the slice text, resolved
//! by full-text comparison — the same hash-narrows/bytes-confirm
//! discipline as the FRAC store — and safe to share across worker
//! threads, images, and service requests.
//!
//! The cache affects *cost only, never labels*: a stored label is
//! exactly what the model (or the weak labeler) computes for that text,
//! so a hit replays the same answer a miss would have produced, and
//! reports stay byte-identical at any job count and any cache warmth.
//! An entry budget bounds memory: at capacity, new texts are classified
//! but not inserted (a full cache degrades to a pass-through, it never
//! evicts mid-run, so a text's hit/miss pattern is monotone).

use crate::fnv::fnv128;
use crate::label::{weak_label_streamed, KeywordHit};
use crate::model::BatchOutcome;
use crate::{Classifier, Primitive};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of lock shards. Power of two so the shard index is a mask of
/// the key's low bits; 64 keeps contention negligible at the repo's
/// worker counts while costing only 64 mutexes.
const SHARDS: usize = 64;

/// One lock shard: FNV-128 key → (stored text, its label). The text is
/// kept so a lookup can confirm bytes, not just the hash.
type Shard = Mutex<HashMap<u128, (Box<str>, Primitive)>>;

/// Point-in-time counters of a [`ClassCache`] (all monotone except
/// `entries`, which is the current population).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to classification.
    pub misses: u64,
    /// Slice texts that went through batched classification.
    pub batched: u64,
    /// Texts the certified None pre-filter resolved without scoring.
    pub prefilter_skips: u64,
    /// Distinct texts currently stored.
    pub entries: u64,
}

/// A sharded, bounded, corpus-wide slice-classification cache.
///
/// See the module docs for the identity argument. The type is `Sync`;
/// racing workers may classify the same text concurrently, but both
/// compute the identical deterministic label, so either insert wins
/// harmlessly.
#[derive(Debug)]
pub struct ClassCache {
    shards: Vec<Shard>,
    /// Total entry budget across shards; 0 = unbounded.
    capacity: usize,
    entries: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    batched: AtomicU64,
    prefilter_skips: AtomicU64,
}

impl ClassCache {
    /// An empty cache with a total entry budget (`0` = unbounded).
    pub fn new(capacity: usize) -> ClassCache {
        ClassCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            capacity,
            entries: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            batched: AtomicU64::new(0),
            prefilter_skips: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u128) -> &Shard {
        &self.shards[(key as usize) & (SHARDS - 1)]
    }

    /// Classify a batch of slice texts, consulting and filling the
    /// cache. Misses are classified in one [`Classifier::predict_batch`]
    /// call (pre-filter on) with the model, or weak-labeled without one
    /// — exactly the reference answer either way.
    pub fn classify_batch(
        &self,
        classifier: Option<&Classifier>,
        texts: &[&str],
    ) -> Vec<Primitive> {
        self.batched
            .fetch_add(texts.len() as u64, Ordering::Relaxed);
        // The cache exists to dedupe *model inference*. Without a model
        // the per-text work is one streamed keyword scan — cheaper than
        // the hash-and-verify a probe costs, let alone an insert — so
        // the cache degrades to a pass-through: weak labels are computed
        // directly and nothing is stored or counted as hit/miss.
        let Some(model) = classifier else {
            return texts
                .iter()
                .map(|t| {
                    weak_label_streamed(t).map_or(Primitive::None, |h: KeywordHit| h.primitive)
                })
                .collect();
        };
        let mut labels = vec![Primitive::None; texts.len()];
        // (input position, key) of every text the cache could not answer.
        let mut missing: Vec<(usize, u128)> = Vec::new();
        for (i, text) in texts.iter().enumerate() {
            let key = fnv128(text.as_bytes());
            let shard = self.shard(key).lock().expect("class cache shard");
            match shard.get(&key) {
                Some((stored, label)) if **stored == **text => labels[i] = *label,
                // Absent, or a 128-bit collision whose occupant is a
                // different text: classify fresh.
                _ => missing.push((i, key)),
            }
        }
        self.hits
            .fetch_add((texts.len() - missing.len()) as u64, Ordering::Relaxed);
        self.misses
            .fetch_add(missing.len() as u64, Ordering::Relaxed);
        if missing.is_empty() {
            return labels;
        }
        let miss_texts: Vec<&str> = missing.iter().map(|(i, _)| texts[*i]).collect();
        let BatchOutcome {
            labels: fresh,
            prefilter_skips,
        } = model.predict_batch(&miss_texts, true);
        self.prefilter_skips
            .fetch_add(prefilter_skips, Ordering::Relaxed);
        for ((i, key), label) in missing.into_iter().zip(fresh) {
            labels[i] = label;
            if self.capacity != 0 && self.entries.load(Ordering::Relaxed) >= self.capacity as u64 {
                continue;
            }
            let mut shard = self.shard(key).lock().expect("class cache shard");
            if let std::collections::hash_map::Entry::Vacant(slot) = shard.entry(key) {
                slot.insert((Box::from(texts[i]), label));
                self.entries.fetch_add(1, Ordering::Relaxed);
            }
        }
        labels
    }

    /// Current counters.
    pub fn stats(&self) -> ClassCacheStats {
        ClassCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            batched: self.batched.load(Ordering::Relaxed),
            prefilter_skips: self.prefilter_skips.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
        }
    }

    /// Distinct texts currently stored.
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed) as usize
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{weak_label, TrainConfig};

    fn model() -> Classifier {
        let data: Vec<(String, Primitive)> = (0..10)
            .flat_map(|i| {
                vec![
                    (format!("mac addr device {i}"), Primitive::DevIdentifier),
                    (format!("password login {i}"), Primitive::UserCred),
                    (format!("uptime counter {i}"), Primitive::None),
                ]
            })
            .collect();
        Classifier::train(
            &data,
            &TrainConfig {
                epochs: 10,
                ..TrainConfig::default()
            },
        )
    }

    #[test]
    fn cached_labels_match_the_model_exactly() {
        let model = model();
        let cache = ClassCache::new(0);
        let texts = [
            "mac addr device 42",
            "password login 9",
            "uptime counter 3",
            "nothing at all",
            "",
            "mac addr device 42", // duplicate within the batch
        ];
        let cold = cache.classify_batch(Some(&model), &texts);
        let warm = cache.classify_batch(Some(&model), &texts);
        assert_eq!(cold, warm);
        for (text, got) in texts.iter().zip(&cold) {
            assert_eq!(*got, model.predict(text).0, "on {text:?}");
        }
        let stats = cache.stats();
        assert_eq!(stats.batched, 12);
        // Second pass is all hits; the first pass may already hit on the
        // in-batch duplicate's second occurrence... it cannot: misses in
        // one batch are classified before insertion, so both occurrences
        // miss. 6 misses cold (5 distinct + 1 duplicate), 6 hits warm.
        assert_eq!(stats.hits, 6);
        assert_eq!(stats.misses, 6);
        assert_eq!(stats.entries, 5);
    }

    #[test]
    fn weak_label_fallback_matches_reference() {
        let cache = ClassCache::new(0);
        let texts = [
            "CALL (Fun, get_mac_addr) mac=%s",
            "(Cons, \"device_key\")",
            "(Cons, \"uploadType=%s\")",
            "",
        ];
        let labels = cache.classify_batch(None, &texts);
        for (text, got) in texts.iter().zip(&labels) {
            assert_eq!(*got, weak_label(text), "on {text:?}");
        }
        assert_eq!(cache.stats().prefilter_skips, 0);
    }

    #[test]
    fn capacity_bounds_insertion_but_not_correctness() {
        let model = model();
        let cache = ClassCache::new(2);
        let texts = ["mac addr device 1", "password login 2", "uptime counter 3"];
        let first = cache.classify_batch(Some(&model), &texts);
        assert!(cache.len() <= 2, "budget respected, len {}", cache.len());
        let second = cache.classify_batch(Some(&model), &texts);
        assert_eq!(first, second);
        for (text, got) in texts.iter().zip(&second) {
            assert_eq!(*got, model.predict(text).0, "on {text:?}");
        }
    }

    #[test]
    fn concurrent_batches_agree_with_the_single_threaded_answer() {
        let model = model();
        let cache = ClassCache::new(0);
        let texts: Vec<String> = (0..64)
            .map(|i| match i % 4 {
                0 => format!("mac addr device {}", i / 4),
                1 => format!("password login {}", i / 4),
                2 => format!("uptime counter {}", i / 4),
                _ => format!("misc text {}", i / 4),
            })
            .collect();
        let expected: Vec<Primitive> = texts.iter().map(|t| model.predict(t).0).collect();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
                    let got = cache.classify_batch(Some(&model), &refs);
                    assert_eq!(got, expected);
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.batched, 8 * 64);
        assert_eq!(stats.entries, 64);
        assert_eq!(stats.hits + stats.misses, 8 * 64);
    }
}
