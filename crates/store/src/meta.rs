//! Privacy metadata carried by a released embedding store.
//!
//! The paper's release boundary (Theorem 5) is the embedding matrix:
//! downstream tasks are post-processing and add no privacy cost, but a
//! consumer still needs to know *what guarantee* the artifact carries.
//! [`PrivacyMeta`] records the variant that produced the vectors and, for
//! private variants, the `(epsilon, delta, sigma)` triple — `epsilon` is
//! the accountant's *spent* value at the target `delta` (stamped from
//! [`advsgm_privacy::RdpAccountant::snapshot`] via
//! `EmbeddingStore::from_outcome`), not the configured ceiling.

use std::fmt;

use advsgm_core::ModelVariant;

use crate::error::StoreError;

/// Privacy provenance of a stored embedding matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacyMeta {
    /// The model variant that produced the embeddings.
    pub variant: ModelVariant,
    /// `epsilon` actually spent at `delta` (None for non-private variants).
    pub epsilon: Option<f64>,
    /// Target failure probability `delta` (None for non-private variants).
    pub delta: Option<f64>,
    /// Noise multiplier `sigma` used in training (None for non-private
    /// variants).
    pub sigma: Option<f64>,
}

impl PrivacyMeta {
    /// Metadata for a non-private release (no DP guarantee attached).
    pub fn non_private(variant: ModelVariant) -> Self {
        Self {
            variant,
            epsilon: None,
            delta: None,
            sigma: None,
        }
    }

    /// Metadata for a private release.
    pub fn private(variant: ModelVariant, epsilon: f64, delta: f64, sigma: f64) -> Self {
        Self {
            variant,
            epsilon: Some(epsilon),
            delta: Some(delta),
            sigma: Some(sigma),
        }
    }

    /// Whether any DP guarantee is attached.
    pub fn is_private(&self) -> bool {
        self.epsilon.is_some()
    }
}

impl fmt::Display for PrivacyMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.variant.paper_name())?;
        // Keyed off the same predicate as `is_private`, so the two APIs
        // can never disagree about whether a guarantee is attached.
        // (Stores enforce all-or-none fields at construction and the
        // format rejects partial stamps, so the `?` fallbacks below are
        // only reachable on hand-assembled metadata.)
        match self.epsilon {
            Some(e) => {
                match self.delta {
                    Some(d) => write!(f, ", ({e:.4}, {d:.0e})-DP")?,
                    None => write!(f, ", ({e:.4}, ?)-DP")?,
                }
                if let Some(s) = self.sigma {
                    write!(f, ", sigma={s}")?;
                }
                Ok(())
            }
            None => write!(f, ", no DP guarantee"),
        }
    }
}

/// The wire code for a variant (`docs/FORMAT.md`, header byte 20).
/// Delegates to the one append-only registry in `advsgm-core`
/// ([`ModelVariant::wire_code`]), so the store and the trainer agree by
/// construction — adding a `ModelVariant` without a code is a compile
/// error in core, not a silent drift here.
pub(crate) fn variant_code(v: ModelVariant) -> u8 {
    v.wire_code()
}

/// Inverse of [`variant_code`]; unknown codes are a typed
/// [`StoreError::UnknownVariantCode`] (a reader newer than the writer is
/// corruption from this reader's perspective, but the code survives in
/// the error for forward-compatibility diagnostics).
pub(crate) fn variant_from_code(code: u8) -> Result<ModelVariant, StoreError> {
    ModelVariant::from_wire_code(code).ok_or(StoreError::UnknownVariantCode { code })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_codes_roundtrip() {
        for v in ModelVariant::all() {
            assert_eq!(variant_from_code(variant_code(v)).unwrap(), v);
        }
        let err = variant_from_code(250).unwrap_err();
        assert!(
            matches!(err, StoreError::UnknownVariantCode { code: 250 }),
            "{err}"
        );
    }

    #[test]
    fn store_codes_match_core_registry() {
        // The store must not re-encode: byte-for-byte the core table.
        for v in ModelVariant::all() {
            assert_eq!(variant_code(v), v.wire_code());
        }
    }

    #[test]
    fn display_names_the_guarantee() {
        let p = PrivacyMeta::private(ModelVariant::AdvSgm, 5.9123, 1e-5, 5.0);
        let s = p.to_string();
        assert!(s.contains("AdvSGM"), "{s}");
        assert!(s.contains("5.9123"), "{s}");
        assert!(s.contains("sigma=5"), "{s}");
        let np = PrivacyMeta::non_private(ModelVariant::Sgm);
        assert!(np.to_string().contains("no DP guarantee"));
        assert!(!np.is_private());
        assert!(p.is_private());
    }
}
