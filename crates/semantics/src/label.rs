//! Weak labeling of slices via per-primitive keyword dictionaries.
//!
//! The paper bootstraps its training set by "searching for
//! manually-defined keywords about field semantics in each line through
//! regular matching", with a dictionary per primitive (e.g.
//! Dev-Identifier's keywords include "MAC", "deviceId", "modelId"), then
//! corrects labels by hand in Doccano. This module is that keyword stage;
//! in the reproduction pipeline the corpus ground truth plays the role of
//! the manual correction.

use crate::{tokenize, Primitive};
use std::sync::OnceLock;

/// A keyword match explaining a weak label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeywordHit {
    /// The primitive whose dictionary matched.
    pub primitive: Primitive,
    /// The matching keyword.
    pub keyword: &'static str,
}

/// Per-primitive keyword dictionaries, checked in priority order.
///
/// Order matters: more specific credentials win over generic identifiers
/// (e.g. `device_secret` must not fall into `Dev-Identifier` via
/// `device`).
const DICTIONARIES: &[(Primitive, &[&str])] = &[
    (
        Primitive::Signature,
        &[
            "signature",
            "sign",
            "hmac",
            "digest",
            "md5",
            "sha256",
            "tmpkey",
            "tempkey",
            "sig",
        ],
    ),
    (
        Primitive::DevSecret,
        &[
            "secret",
            "devicekey",
            "device_key",
            "devkey",
            "certificate",
            "cert",
            "privatekey",
            "private_key",
            "psk",
            "secretkey",
        ],
    ),
    (
        Primitive::UserCred,
        &[
            "password",
            "passwd",
            "username",
            "usercred",
            "user_cred",
            "login",
            "account",
            "cloudusername",
            "cloudpassword",
            "userid",
            "user_id",
            "verifycode",
            "verify_code",
        ],
    ),
    (
        Primitive::BindToken,
        &[
            "token",
            "accesstoken",
            "access_token",
            "bindtoken",
            "bind_token",
            "session",
            "sessionkey",
            "accesskey",
            "access_key",
        ],
    ),
    (
        Primitive::DevIdentifier,
        &[
            "mac",
            "macaddress",
            "mac_addr",
            "deviceid",
            "device_id",
            "devid",
            "serial",
            "serialno",
            "serialnumber",
            "serial_no",
            "sn",
            "uid",
            "uuid",
            "imei",
            "modelid",
            "model",
            "productid",
            "product_id",
            "hardwareversion",
            "firmwareversion",
            "fw_version",
        ],
    ),
    (
        Primitive::Address,
        &[
            "host", "hostname", "server", "addr", "address", "url", "domain", "endpoint", "ip",
            "port", "broker",
        ],
    ),
];

/// Weak-label a slice by keyword dictionaries; [`Primitive::None`] when no
/// dictionary matches.
pub fn weak_label(slice_text: &str) -> Primitive {
    weak_label_with_report(slice_text).map_or(Primitive::None, |h| h.primitive)
}

/// Weak-label with the matching keyword, for label auditing.
///
/// This is the reference implementation — materialize the token list,
/// then scan the dictionaries in priority order. The optimized cold path
/// uses [`weak_label_streamed`], which returns the same hit in one pass.
pub fn weak_label_with_report(slice_text: &str) -> Option<KeywordHit> {
    let tokens = tokenize(slice_text);
    for (primitive, keywords) in DICTIONARIES {
        for kw in *keywords {
            if tokens.iter().any(|t| t == kw) {
                return Some(KeywordHit {
                    primitive: *primitive,
                    keyword: kw,
                });
            }
        }
    }
    None
}

/// Longest keyword length the shape index can hold: lengths index a
/// 32-bit mask and a 32-slot bucket row.
const MAX_KEYWORD_LEN: usize = 31;

/// The dictionaries flattened into priority ranks and bucketed by shape.
///
/// A keyword's rank is the position of its first occurrence in the
/// `(dictionary, keyword)` scan order of [`weak_label_with_report`];
/// `flat[rank]` maps back to the primitive and keyword. Built once, on
/// first use.
struct KeywordIndex {
    flat: Vec<(Primitive, &'static str)>,
    /// Per-first-byte bitmask of keyword lengths (bit `len`): a run
    /// whose `(lowercased first byte, length)` pair clears its bit
    /// cannot be a keyword, so it is rejected without being compared or
    /// lowercased. Nearly every run of a real slice (registers, hex ids,
    /// glue) rejects here in two loads.
    len_masks: [u32; 256],
    /// Ranks bucketed by shape: the ranks of keywords starting with
    /// letter `c` and `n` bytes long are
    /// `ranks[starts[bucket(c, n)]..starts[bucket(c, n) + 1]]`.
    starts: Vec<u16>,
    ranks: Vec<u32>,
}

/// Every keyword starts with a lowercase ASCII letter.
fn bucket(first: u8, len: usize) -> usize {
    (first - b'a') as usize * (MAX_KEYWORD_LEN + 1) + len
}

impl KeywordIndex {
    /// The rank of `word` — a run of `[A-Za-z0-9_]` bytes, compared
    /// ASCII-case-insensitively — or `None` when it is no keyword.
    fn rank(&self, word: &[u8]) -> Option<u32> {
        let (&first, rest) = word.split_first()?;
        let first = first.to_ascii_lowercase();
        if word.len() > MAX_KEYWORD_LEN || self.len_masks[first as usize] >> word.len() & 1 == 0 {
            return None;
        }
        let b = bucket(first, word.len());
        self.ranks[self.starts[b] as usize..self.starts[b + 1] as usize]
            .iter()
            .copied()
            .find(|&rank| self.flat[rank as usize].1.as_bytes()[1..].eq_ignore_ascii_case(rest))
    }
}

fn keyword_index() -> &'static KeywordIndex {
    static INDEX: OnceLock<KeywordIndex> = OnceLock::new();
    INDEX.get_or_init(|| {
        let mut flat = Vec::new();
        let mut len_masks = [0u32; 256];
        // (bucket, rank) of each keyword's first occurrence.
        let mut shaped: Vec<(usize, u32)> = Vec::new();
        for (primitive, keywords) in DICTIONARIES {
            for kw in *keywords {
                let rank = flat.len() as u32;
                flat.push((*primitive, *kw));
                if flat[..rank as usize].iter().any(|(_, k)| k == kw) {
                    continue; // first occurrence wins, like the priority scan
                }
                let first = kw.as_bytes()[0];
                assert!(
                    first.is_ascii_lowercase() && kw.len() <= MAX_KEYWORD_LEN,
                    "keyword {kw:?} outside the shape index"
                );
                len_masks[first as usize] |= 1u32 << kw.len();
                shaped.push((bucket(first, kw.len()), rank));
            }
        }
        shaped.sort_unstable();
        let nbuckets = bucket(b'z', MAX_KEYWORD_LEN) + 1;
        let mut starts = vec![0u16; nbuckets + 1];
        for &(b, _) in &shaped {
            starts[b + 1] += 1;
        }
        for b in 0..nbuckets {
            starts[b + 1] += starts[b];
        }
        KeywordIndex {
            flat,
            len_masks,
            starts,
            ranks: shaped.into_iter().map(|(_, rank)| rank).collect(),
        }
    })
}

/// Single-pass [`weak_label_with_report`] over the bytes of the text:
/// find each token of [`crate::tokenize`] in place and keep the best
/// (lowest) priority rank seen.
///
/// The reference scan returns the first `(dictionary, keyword)` pair —
/// in priority order — matched by *any* token; that is exactly the
/// minimum rank over the matching tokens, so the two implementations
/// agree on every input (the property tests below check it). Tokens are
/// the maximal `[A-Za-z0-9_]` runs, plus — only for runs holding `_` or
/// a lower→upper boundary — their `_`/camelCase parts. A token is
/// checked against the shape mask before any comparison, and compared
/// case-insensitively, so nothing is lowercased, copied or hashed.
/// Every other byte, including all of a multi-byte UTF-8 character,
/// separates tokens, as the `char`-level split of `tokenize` does.
pub fn weak_label_streamed(slice_text: &str) -> Option<KeywordHit> {
    let index = keyword_index();
    let bytes = slice_text.as_bytes();
    let mut best = u32::MAX;
    let mut probe = |word: &[u8]| {
        if let Some(rank) = index.rank(word) {
            best = best.min(rank);
        }
    };
    let mut i = 0;
    while i < bytes.len() {
        if BYTE_CLASS[bytes[i] as usize] == SEP {
            i += 1;
            continue;
        }
        // One pass over the run: its `_`/camelCase parts are probed as
        // their boundaries are met, so a run with no boundary is never
        // split, and the whole run is probed at its end.
        let start = i;
        let mut part = i;
        let mut compound = false;
        let mut prev_lower = false;
        while i < bytes.len() {
            match BYTE_CLASS[bytes[i] as usize] {
                SEP => break,
                LOWER_OR_DIGIT => prev_lower = true,
                UPPER => {
                    if prev_lower {
                        probe(&bytes[part..i]);
                        part = i;
                        compound = true;
                    }
                    prev_lower = false;
                }
                _ => {
                    probe(&bytes[part..i]);
                    part = i + 1;
                    compound = true;
                    prev_lower = false;
                }
            }
            i += 1;
        }
        probe(&bytes[start..i]);
        if compound {
            probe(&bytes[part..i]);
        }
    }
    index
        .flat
        .get(best as usize)
        .map(|&(primitive, keyword)| KeywordHit { primitive, keyword })
}

/// Byte classes of the token scan: anything outside `[A-Za-z0-9_]`
/// (every byte of a multi-byte UTF-8 character included) separates.
const SEP: u8 = 0;
const LOWER_OR_DIGIT: u8 = 1;
const UPPER: u8 = 2;
const UNDERSCORE: u8 = 3;

static BYTE_CLASS: [u8; 256] = {
    let mut table = [SEP; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        table[b] = if c.is_ascii_lowercase() || c.is_ascii_digit() {
            LOWER_OR_DIGIT
        } else if c.is_ascii_uppercase() {
            UPPER
        } else if c == b'_' {
            UNDERSCORE
        } else {
            SEP
        };
        b += 1;
    }
    table
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identifier_keywords() {
        assert_eq!(
            weak_label("CALL (Fun, get_mac_addr) mac=%s"),
            Primitive::DevIdentifier
        );
        assert_eq!(
            weak_label("(Cons, \"serialNumber\")"),
            Primitive::DevIdentifier
        );
        assert_eq!(weak_label("(Cons, \"uid=%s\")"), Primitive::DevIdentifier);
    }

    #[test]
    fn secret_beats_identifier() {
        // "device_key" contains "device"-ish identifier tokens, but the
        // secret dictionary is checked first.
        assert_eq!(weak_label("(Cons, \"device_key\")"), Primitive::DevSecret);
        assert_eq!(
            weak_label("nvram_get (Cons, \"cert\")"),
            Primitive::DevSecret
        );
    }

    #[test]
    fn credential_and_token_keywords() {
        assert_eq!(weak_label("(Cons, \"cloudpassword\")"), Primitive::UserCred);
        assert_eq!(
            weak_label("(Cons, \"access_token=%s\")"),
            Primitive::BindToken
        );
        assert_eq!(weak_label("accessToken"), Primitive::BindToken);
    }

    #[test]
    fn signature_keywords() {
        assert_eq!(weak_label("CALL (Fun, hmac_sign)"), Primitive::Signature);
        assert_eq!(weak_label("(Cons, \"sig=%s\")"), Primitive::Signature);
    }

    #[test]
    fn address_and_none() {
        assert_eq!(
            weak_label("(Cons, \"Host: www.linksyssmartwifi.com\")"),
            Primitive::Address
        );
        assert_eq!(weak_label("(Cons, \"uploadType=%s\")"), Primitive::None);
        assert_eq!(weak_label(""), Primitive::None);
    }

    #[test]
    fn report_names_keyword() {
        let hit = weak_label_with_report("token=%s").unwrap();
        assert_eq!(hit.primitive, Primitive::BindToken);
        assert_eq!(hit.keyword, "token");
        assert!(weak_label_with_report("plain text with nothing").is_none());
    }

    #[test]
    fn matching_is_token_exact_not_substring() {
        // "snapshot" must not match the identifier keyword "sn".
        assert_eq!(weak_label("(Cons, \"snapshot\")"), Primitive::None);
    }

    #[test]
    fn streamed_matches_reference_on_priority_conflicts() {
        // Texts where several dictionaries match and only the priority
        // order decides — the streamed minimum-rank lookup must pick the
        // same winner as the reference scan.
        for text in [
            "mac token password sig secret",
            "host mac",
            "device_key deviceid",
            "accessToken serialNumber hmac",
            "uploadType=%s",
            "",
        ] {
            assert_eq!(
                weak_label_streamed(text),
                weak_label_with_report(text),
                "on {text:?}"
            );
        }
    }

    #[test]
    fn streamed_matches_reference_on_byte_level_edges() {
        for text in [
            "MAC",
            "Device_Key",
            "getAccessToken",
            "x_token_",
            "__sig__",
            "serialNumberIMEI",
            "token日本mac",
            "ümac",
            "host\u{00e9}name",
            "abcdefghijklmnopqrstuvwxyz_abcdefgh_token",
            "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
            "mac1Token",
            "SN",
            "_",
        ] {
            assert_eq!(
                weak_label_streamed(text),
                weak_label_with_report(text),
                "on {text:?}"
            );
        }
    }

    proptest::proptest! {
        #[test]
        fn byte_level_labeller_matches_reference_on_any_string(
            codes in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..80),
        ) {
            // Three in four characters ASCII, the rest any code point,
            // so runs, separators and multi-byte UTF-8 all appear.
            let text: String = codes
                .into_iter()
                .map(|c| match c % 4 {
                    0 => char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}'),
                    _ => char::from((c >> 2) as u8 & 0x7f),
                })
                .collect();
            proptest::prop_assert_eq!(
                weak_label_streamed(&text),
                weak_label_with_report(&text)
            );
        }

        #[test]
        fn byte_level_labeller_matches_reference_on_identifier_soup(
            // (word, separator, capitalize) triples: joining with `_`
            // or nothing builds compounds and camelCase runs, the
            // multi-byte separators exercise the UTF-8 split, and the
            // long pool words push runs past the 31-byte shape limit.
            picks in proptest::collection::vec(
                (0usize..20, 0usize..8, proptest::prelude::any::<bool>()),
                0..12,
            ),
        ) {
            const POOL: [&str; 20] = [
                "mac", "token", "password", "sig", "secret", "host", "sn", "ip",
                "device_key", "deviceId", "serialNumber", "snapshot", "uploadType",
                "hardwareversion", "firmwareversion", "v_12", "0x1f", "CALL",
                "averyveryverylongidentifierthatkeepsgoing", "abcdefghijklmnopqrstuvwxyzabcdef",
            ];
            const SEPS: [&str; 8] = [" ", "_", "", "=", " ; ", "é", "日", "__"];
            let mut text = String::new();
            for (word, sep, capitalize) in picks {
                let word = POOL[word];
                if capitalize {
                    text.push_str(&word[..1].to_ascii_uppercase());
                    text.push_str(&word[1..]);
                } else {
                    text.push_str(word);
                }
                text.push_str(SEPS[sep]);
            }
            proptest::prop_assert_eq!(
                weak_label_streamed(&text),
                weak_label_with_report(&text)
            );
        }

        #[test]
        fn streamed_always_matches_reference(
            // Indices into a pool of dictionary words, near-miss words
            // and glue tokens.
            picks in proptest::collection::vec(0usize..15, 0..8),
        ) {
            const POOL: [&str; 15] = [
                "mac", "token", "password", "sig", "secret", "host",
                "device_key", "deviceId", "serialNumber", "snapshot",
                "uploadType", "buf", "v_12", "%s", "CALL",
            ];
            let words: Vec<&str> = picks.iter().map(|&i| POOL[i]).collect();
            let text = words.join(" ");
            proptest::prop_assert_eq!(
                weak_label_streamed(&text),
                weak_label_with_report(&text)
            );
        }
    }
}
