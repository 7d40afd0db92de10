//! Canonical circuit bytes and content hashing.
//!
//! The compile service (`ppet-serve`) deduplicates requests through a
//! content-addressed cache: two requests naming the *same circuit* must
//! produce the same cache key even when their `.bench` sources differ in
//! comments, whitespace, or line order quirks. This module defines the
//! canonical byte form — the [`writer::to_bench`](crate::writer) emission,
//! which normalizes everything the parser discards — and a small
//! dependency-free 128-bit FNV-1a hasher over it. A [`HashedCircuit`]
//! carries a circuit together with its [`content_hash`], so a caller that
//! keys on the same circuit many times serializes it once.
//!
//! # Examples
//!
//! ```
//! use ppet_netlist::{bench_format, canonical};
//!
//! # fn main() -> Result<(), ppet_netlist::ParseBenchError> {
//! let a = bench_format::parse("toy", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")?;
//! let b = bench_format::parse("toy", "# a comment\nINPUT(a)\n\nOUTPUT(y)\n  y = NOT( a )\n")?;
//! assert_eq!(canonical::content_hash(&a), canonical::content_hash(&b));
//! # Ok(())
//! # }
//! ```

use std::ops::Deref;
use std::sync::Arc;

use crate::circuit::Circuit;
use crate::writer;

/// The canonical byte form of a circuit: its deterministic `.bench`
/// serialization. Comments, spacing, and blank lines of the original
/// source never survive a parse, so any two textual variants of the same
/// netlist canonicalize identically.
#[must_use]
pub fn canonical_bytes(circuit: &Circuit) -> Vec<u8> {
    writer::to_bench(circuit).into_bytes()
}

/// Streaming 128-bit FNV-1a hasher.
///
/// Not cryptographic — the service cache only needs a stable, well-mixed
/// key with a collision probability negligible at cache scale, without
/// pulling in a dependency. The 128-bit variant uses the standard FNV
/// offset basis and prime.
#[derive(Debug, Clone)]
pub struct Fnv128 {
    state: u128,
}

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

impl Fnv128 {
    /// A fresh hasher at the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self {
            state: FNV128_OFFSET,
        }
    }

    /// A hasher continuing from `state`, a digest an earlier hasher
    /// [`finish`](Self::finish)ed with: absorbing more bytes gives what
    /// the earlier hasher would have given. FNV-1a's state is its digest,
    /// so a prefix hashed once (say, a circuit's [`content_hash`]) can
    /// start many longer hashes.
    #[must_use]
    pub fn resume(state: u128) -> Self {
        Self { state }
    }

    /// Absorbs `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Absorbs a length-prefixed frame: the byte length first, then the
    /// bytes. Framing keeps concatenations unambiguous when hashing
    /// several variable-length fields (`hash("ab","c") ≠ hash("a","bc")`).
    pub fn write_frame(&mut self, bytes: &[u8]) {
        self.write(&(bytes.len() as u64).to_le_bytes());
        self.write(bytes);
    }

    /// The current 128-bit digest.
    #[must_use]
    pub fn finish(&self) -> u128 {
        self.state
    }
}

impl Default for Fnv128 {
    fn default() -> Self {
        Self::new()
    }
}

/// The 128-bit content hash of a circuit's [`canonical_bytes`].
#[must_use]
pub fn content_hash(circuit: &Circuit) -> u128 {
    let mut h = Fnv128::new();
    h.write_frame(&canonical_bytes(circuit));
    h.finish()
}

/// A circuit with its [`content_hash`], computed once when built.
///
/// The only constructor hashes, so the hash always belongs to the
/// circuit; the circuit sits behind an [`Arc`], so clones are cheap and
/// share it. Derefs to [`Circuit`].
#[derive(Debug, Clone)]
pub struct HashedCircuit {
    circuit: Arc<Circuit>,
    hash: u128,
}

impl HashedCircuit {
    /// Hashes `circuit`.
    #[must_use]
    pub fn new(circuit: Circuit) -> Self {
        let hash = content_hash(&circuit);
        Self {
            circuit: Arc::new(circuit),
            hash,
        }
    }

    /// The circuit's [`content_hash`].
    #[must_use]
    pub fn content_hash(&self) -> u128 {
        self.hash
    }
}

impl From<Circuit> for HashedCircuit {
    fn from(circuit: Circuit) -> Self {
        Self::new(circuit)
    }
}

impl Deref for HashedCircuit {
    type Target = Circuit;

    fn deref(&self) -> &Circuit {
        &self.circuit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_format;
    use crate::data;

    #[test]
    fn textual_variants_canonicalize_identically() {
        let a = bench_format::parse("t", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        let b = bench_format::parse(
            "t",
            "# noise\n\nINPUT( a )\nOUTPUT( y )\n\n  y  =  NOT( a )  \n",
        )
        .unwrap();
        assert_eq!(canonical_bytes(&a), canonical_bytes(&b));
        assert_eq!(content_hash(&a), content_hash(&b));
    }

    #[test]
    fn different_circuits_hash_differently() {
        let a = bench_format::parse("t", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        let b = bench_format::parse("t", "INPUT(a)\nOUTPUT(y)\ny = BUFF(a)\n").unwrap();
        assert_ne!(content_hash(&a), content_hash(&b));
        assert_ne!(content_hash(&data::s27()), content_hash(&a));
    }

    #[test]
    fn hash_is_stable_across_calls() {
        let c = data::s27();
        assert_eq!(content_hash(&c), content_hash(&c));
    }

    #[test]
    fn fnv_vectors() {
        // FNV-1a 128 of the empty input is the offset basis.
        assert_eq!(Fnv128::new().finish(), FNV128_OFFSET);
        let mut h = Fnv128::new();
        h.write(b"a");
        let single = h.finish();
        assert_ne!(single, FNV128_OFFSET);
        // Framing disambiguates concatenations.
        let mut ab_c = Fnv128::new();
        ab_c.write_frame(b"ab");
        ab_c.write_frame(b"c");
        let mut a_bc = Fnv128::new();
        a_bc.write_frame(b"a");
        a_bc.write_frame(b"bc");
        assert_ne!(ab_c.finish(), a_bc.finish());
    }

    #[test]
    fn resuming_a_digest_continues_the_hash() {
        let mut whole = Fnv128::new();
        whole.write_frame(b"prefix");
        whole.write_frame(b"suffix");
        let mut prefix = Fnv128::new();
        prefix.write_frame(b"prefix");
        let mut resumed = Fnv128::resume(prefix.finish());
        resumed.write_frame(b"suffix");
        assert_eq!(resumed.finish(), whole.finish());
    }

    #[test]
    fn a_hashed_circuit_carries_its_content_hash() {
        let hashed = HashedCircuit::from(data::s27());
        assert_eq!(hashed.content_hash(), content_hash(&data::s27()));
        assert_eq!(hashed.name(), "s27");
        assert_eq!(hashed.clone().content_hash(), hashed.content_hash());
    }
}
