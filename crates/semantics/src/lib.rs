//! # firmres-semantics
//!
//! Field semantic recovery (paper §IV-C): classify enriched code slices
//! into the access-control primitives of §II-B.
//!
//! The paper trains a BERT-TextCNN on 30,941 slices from 147k firmware
//! images on an RTX 4090. This reproduction substitutes a from-scratch
//! **linear classifier over hashed n-gram features** with TextCNN-style
//! window features (n-gram windows of widths 2–5, mirroring the paper's
//! convolution kernel sizes), trained with plain SGD on softmax
//! cross-entropy. The classification *task*, the label set
//! ({Dev-Identifier, Dev-Secret, User-Cred, Bind-Token, Signature,
//! Address, None}), the weak keyword labeling used to bootstrap the
//! dataset, and the 7:2:1 train/validation/test protocol are all the
//! paper's; only the model family changes (documented in DESIGN.md).
//!
//! # Examples
//!
//! ```
//! use firmres_semantics::{Classifier, Primitive, TrainConfig};
//!
//! let data = vec![
//!     ("CALL (Fun, get_mac_addr) ; FIELD (Cons, \"mac=%s\")".to_string(), Primitive::DevIdentifier),
//!     ("CALL (Fun, nvram_get), (Cons, \"password\")".to_string(), Primitive::UserCred),
//!     ("CALL (Fun, sprintf), (Cons, \"ts=%d\")".to_string(), Primitive::None),
//! ];
//! // Tiny corpus: train just to exercise the API.
//! let model = Classifier::train(&data, &TrainConfig { epochs: 50, ..TrainConfig::default() });
//! let (label, probs) = model.predict("CALL (Fun, get_mac_addr)");
//! assert_eq!(probs.len(), Primitive::ALL.len());
//! let _ = label;
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod dataset;
mod fnv;
mod label;
mod model;
mod persist;
mod token;

pub use cache::{ClassCache, ClassCacheStats};
pub use dataset::{split_dataset, DatasetSplit};
pub use label::{weak_label, weak_label_streamed, weak_label_with_report, KeywordHit};
pub use model::{BatchOutcome, Classifier, TrainConfig, TrainReport};
pub use persist::ModelError;
pub use token::{featurize, for_each_token, tokenize, FEATURE_DIM};

use std::fmt;

/// The access-control primitives (paper §II-B) plus `Address` and `None`
/// — the seven output classes of the semantics model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Primitive {
    /// Device identifier (MAC address, serial number, device/product id).
    DevIdentifier,
    /// Device secret (secret key, device key, device certificate).
    DevSecret,
    /// User login credential.
    UserCred,
    /// Binding/access/session token issued by the cloud.
    BindToken,
    /// Signature / temporary key derived from the device secret.
    Signature,
    /// Communication address (cloud host, IP, URL).
    Address,
    /// Not an access-control primitive.
    None,
}

impl Primitive {
    /// All classes in model output order.
    pub const ALL: [Primitive; 7] = [
        Primitive::DevIdentifier,
        Primitive::DevSecret,
        Primitive::UserCred,
        Primitive::BindToken,
        Primitive::Signature,
        Primitive::Address,
        Primitive::None,
    ];

    /// Model output index.
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|p| *p == self).expect("in ALL")
    }

    /// Class from a model output index.
    pub fn from_index(i: usize) -> Option<Primitive> {
        Self::ALL.get(i).copied()
    }

    /// Paper-style display name.
    pub fn label(self) -> &'static str {
        match self {
            Primitive::DevIdentifier => "Dev-Identifier",
            Primitive::DevSecret => "Dev-Secret",
            Primitive::UserCred => "User-Cred",
            Primitive::BindToken => "Bind-Token",
            Primitive::Signature => "Signature",
            Primitive::Address => "Address",
            Primitive::None => "None",
        }
    }

    /// Whether this class is one of the five access-control primitives
    /// (everything except `Address` and `None`).
    pub fn is_access_control(self) -> bool {
        !matches!(self, Primitive::Address | Primitive::None)
    }
}

impl fmt::Display for Primitive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_round_trip() {
        for p in Primitive::ALL {
            assert_eq!(Primitive::from_index(p.index()), Some(p));
        }
        assert_eq!(Primitive::from_index(7), None);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(Primitive::DevIdentifier.to_string(), "Dev-Identifier");
        assert_eq!(Primitive::BindToken.label(), "Bind-Token");
        assert_eq!(Primitive::None.label(), "None");
    }

    #[test]
    fn access_control_classification() {
        assert!(Primitive::DevSecret.is_access_control());
        assert!(Primitive::Signature.is_access_control());
        assert!(!Primitive::Address.is_access_control());
        assert!(!Primitive::None.is_access_control());
    }
}
