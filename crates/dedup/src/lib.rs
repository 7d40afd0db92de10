//! `ppet-dedup` — the similarity sketch behind the artifact store's
//! delta layer.
//!
//! `ppet-store` used to pick delta bases with a global inverted index of
//! fixed 64-byte chunk hashes: exact but purely local, first-fit, and
//! blind to artifact *families*. This crate replaces that with
//! SBC-style resemblance sketches, std-only:
//!
//! * [`feature`] — super-feature extraction: a rolling Gear hash samples
//!   content-defined features, [`feature::GROUPS`] min-hash transforms
//!   reduce them to group minima, and the minima fold into
//!   [`feature::SUPER_FEATURES`] super-features per artifact. Two
//!   artifacts sharing a super-feature are near-duplicates with high
//!   probability.
//!
//! The store's put path sketches the incoming artifact, looks up the
//! live artifacts sharing a super-feature in its own inverted index, and
//! encodes against the one sharing the most (smaller key on ties); see
//! `ppet-store` for the chain-depth and decode-budget gates layered on
//! top. Sketches are pure functions of the bytes, so an index rebuilt
//! from a log replay reproduces every decision bit-for-bit.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod feature;

pub use feature::{super_features, SUPER_FEATURES};
