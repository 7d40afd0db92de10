//! Byte-granular delta encoding against a base artifact.
//!
//! The op stream is the classic copy/insert vocabulary (the shape of
//! xdelta/gdelta, reduced to two ops). Since format v2 every integer is
//! a LEB128 varint and the two ops share one header:
//!
//! ```text
//! byte 0: 0x02                      — format tag (v2, varint ops)
//! header: varint h                  — kind = h & 1, len = h >> 1
//!   kind 0  copy    varint base_off — copy len bytes of the base
//!   kind 1  literal len bytes       — insert len new bytes
//! ```
//!
//! A typical copy op costs 3–6 bytes where the v1 fixed-width framing
//! paid 9 — on near-duplicate manifests the op overhead roughly halves.
//! Streams whose first byte is a v1 op tag (`0x00`/`0x01`: u32 fields)
//! still decode, so logs written before the format bump stay readable.
//!
//! Encoding is greedy: every [`INDEX_STRIDE`]-th base offset is indexed
//! by the FNV hash of its [`WINDOW`]-byte window, in one flat
//! open-addressing table sized to the base (no allocation per hash;
//! each hash keeps its lowest `MAX_CANDIDATES` offsets as candidates).
//! The scan over the new data looks its current window up at every byte
//! offset, verifies the candidates byte-for-byte, extends the longest
//! true match forward as far as it goes — and then *backward* into the
//! pending literal run while bytes agree, reclaiming the
//! up-to-`INDEX_STRIDE−1` bytes the strided index makes a resync land
//! late by. Byte-granular probing (rather than chunk-aligned) is what
//! makes insertions cheap: one inserted byte shifts every later offset,
//! which chunk alignment would turn into "everything differs".
//!
//! [`decode`] is bounds-checked everywhere — a corrupt delta yields
//! [`DeltaError`], never a panic or a wrong artifact. The caller passes
//! the record's declared decoded length and decode fails with
//! [`DeltaError::TooLarge`] the moment an op would push the output past
//! it, so a malicious op stream of repeated max-length copies cannot
//! balloon memory before a post-hoc length check runs.

use ppet_dedup::feature::fnv1a;

/// Match window width; also the minimum useful copy length.
pub const WINDOW: usize = 16;

/// Every `INDEX_STRIDE`-th base window is indexed. Probing stays
/// byte-granular, so a match can land at any data offset; backward
/// extension recovers the bytes a strided resync misses.
pub const INDEX_STRIDE: usize = 4;

/// Max base offsets tried per window hash (the lowest ones). Bounds
/// worst-case encoding time on pathological (highly repetitive) bases.
const MAX_CANDIDATES: usize = 8;

/// Format tag of the varint op encoding. v1 streams start with an op
/// tag (`0x00` copy / `0x01` literal) instead and take the legacy path.
const FORMAT_VARINT: u8 = 0x02;

/// Cap on speculative output preallocation (the declared length is
/// trusted for the *bound*, not for an up-front allocation).
const MAX_PREALLOC: usize = 1 << 20;

/// Why a delta op stream failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The op stream ended mid-op.
    Truncated,
    /// An op tag is not `copy`/`literal`.
    UnknownOp(u8),
    /// A copy op points outside the base.
    CopyOutOfRange,
    /// The ops produce more bytes than the record's declared decoded
    /// length — a corrupt or malicious stream, rejected before the
    /// output buffer can balloon.
    TooLarge,
    /// A varint ran past 10 bytes (64-bit range exceeded).
    BadVarint,
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::Truncated => write!(f, "delta op stream truncated"),
            DeltaError::UnknownOp(op) => write!(f, "unknown delta op {op}"),
            DeltaError::CopyOutOfRange => write!(f, "copy op exceeds base bounds"),
            DeltaError::TooLarge => write!(f, "delta output exceeds declared length"),
            DeltaError::BadVarint => write!(f, "varint exceeds 64-bit range"),
        }
    }
}

/// Encodes `data` as a delta against `base` (format v2).
///
/// The result always decodes back to `data` exactly; it is only *useful*
/// (smaller than `data`) when the two share long byte runs — the caller
/// compares sizes and keeps the raw bytes otherwise. Empty `data`
/// encodes as the empty stream.
#[must_use]
pub fn encode(base: &[u8], data: &[u8]) -> Vec<u8> {
    encode_impl(base, data, true)
}

/// The encoder proper. `backtrack` gates leftward match extension so
/// tests can pin exactly what it buys; production always extends.
fn encode_impl(base: &[u8], data: &[u8], backtrack: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 4 + 16);
    if data.is_empty() {
        return out;
    }
    out.push(FORMAT_VARINT);
    if base.len() < WINDOW || data.len() < WINDOW {
        push_literal(&mut out, data);
        return out;
    }

    let index = WindowIndex::new(base);

    let mut pos = 0usize;
    let mut lit_start = 0usize;
    while pos + WINDOW <= data.len() {
        let h = fnv1a(&data[pos..pos + WINDOW]);
        let mut best: Option<(usize, usize)> = None; // (base_off, len)
        for cand in index.candidates(h) {
            if base[cand..cand + WINDOW] != data[pos..pos + WINDOW] {
                continue; // hash collision
            }
            let mut len = WINDOW;
            while cand + len < base.len()
                && pos + len < data.len()
                && base[cand + len] == data[pos + len]
            {
                len += 1;
            }
            if best.map_or(true, |(_, b)| len > b) {
                best = Some((cand, len));
            }
        }
        match best {
            Some((mut off, mut len)) => {
                if backtrack {
                    // Extend leftward into the pending literal run: the
                    // strided index finds a resync up to INDEX_STRIDE−1
                    // bytes late, and those bytes are already part of
                    // the match.
                    while off > 0 && pos > lit_start && base[off - 1] == data[pos - 1] {
                        off -= 1;
                        pos -= 1;
                        len += 1;
                    }
                }
                push_literal(&mut out, &data[lit_start..pos]);
                push_copy(&mut out, off, len);
                pos += len;
                lit_start = pos;
            }
            None => pos += 1,
        }
    }
    push_literal(&mut out, &data[lit_start..]);
    out
}

/// The encoder's index of the base: every [`INDEX_STRIDE`]-th window,
/// keyed by its FNV hash in one flat open-addressing table.
///
/// Windows with the same hash form a list through `next`, in ascending
/// base offset; a lookup yields at most the first [`MAX_CANDIDATES`] of
/// them. The table is sized to at least twice the window count, so
/// linear probing always reaches an empty slot, and nothing is allocated
/// per hash.
struct WindowIndex {
    /// `(hash, head)` per slot: `head` is 1 + the number of the first
    /// window with that hash, 0 for an empty slot.
    slots: Vec<(u64, u32)>,
    /// Per window number: 1 + the number of the next window with the
    /// same hash, 0 at the end of the list.
    next: Vec<u32>,
    /// `64 − log2(slots.len())`: a hash's home slot is the top bits of
    /// its Fibonacci-scrambled value.
    shift: u32,
}

impl WindowIndex {
    /// Indexes `base`, which must hold at least one [`WINDOW`].
    fn new(base: &[u8]) -> Self {
        let windows = (base.len() - WINDOW) / INDEX_STRIDE + 1;
        let capacity = (2 * windows).next_power_of_two();
        let mut index = WindowIndex {
            slots: vec![(0, 0); capacity],
            next: vec![0; windows],
            shift: 64 - capacity.trailing_zeros(),
        };
        // Last window first: prepending keeps each list in ascending
        // offset order.
        for w in (0..windows).rev() {
            let off = w * INDEX_STRIDE;
            let h = fnv1a(&base[off..off + WINDOW]);
            let slot = index.slot(h);
            index.next[w] = index.slots[slot].1;
            index.slots[slot] = (h, w as u32 + 1);
        }
        index
    }

    /// The slot holding hash `h`, or the empty slot where it belongs.
    fn slot(&self, h: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = (h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            let (key, head) = self.slots[slot];
            if head == 0 || key == h {
                return slot;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The base offsets of the first [`MAX_CANDIDATES`] indexed windows
    /// whose hash is `h`, ascending.
    fn candidates(&self, h: u64) -> impl Iterator<Item = usize> + '_ {
        let mut link = self.slots[self.slot(h)].1;
        std::iter::from_fn(move || {
            let w = (link as usize).checked_sub(1)?;
            link = self.next[w];
            Some(w * INDEX_STRIDE)
        })
        .take(MAX_CANDIDATES)
    }
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn push_literal(out: &mut Vec<u8>, bytes: &[u8]) {
    if bytes.is_empty() {
        return;
    }
    push_varint(out, (bytes.len() as u64) << 1 | 1);
    out.extend_from_slice(bytes);
}

fn push_copy(out: &mut Vec<u8>, off: usize, len: usize) {
    push_varint(out, (len as u64) << 1);
    push_varint(out, off as u64);
}

/// Applies a delta op stream to `base`, reproducing the encoded
/// artifact. `expected_len` is the decoded length the enclosing record
/// declares; it bounds the output *during* decoding.
///
/// # Errors
///
/// [`DeltaError`] when the op stream is truncated, carries an unknown
/// op or over-long varint, copies outside the base, or produces more
/// than `expected_len` bytes. (Producing *fewer* bytes is left to the
/// caller's exact length check — a short stream is detectable there,
/// only overproduction has to be stopped mid-flight.)
pub fn decode(base: &[u8], delta: &[u8], expected_len: usize) -> Result<Vec<u8>, DeltaError> {
    if delta.first() == Some(&FORMAT_VARINT) {
        decode_varint_ops(base, delta, expected_len)
    } else {
        decode_legacy(base, delta, expected_len)
    }
}

fn decode_varint_ops(
    base: &[u8],
    delta: &[u8],
    expected_len: usize,
) -> Result<Vec<u8>, DeltaError> {
    let mut out = Vec::with_capacity(expected_len.min(MAX_PREALLOC));
    let mut pos = 1usize; // past the format tag
    while pos < delta.len() {
        let header = read_varint(delta, &mut pos)?;
        let len = usize::try_from(header >> 1).map_err(|_| DeltaError::TooLarge)?;
        if exceeds(out.len(), len, expected_len) {
            return Err(DeltaError::TooLarge);
        }
        if header & 1 == 0 {
            let off = usize::try_from(read_varint(delta, &mut pos)?)
                .map_err(|_| DeltaError::CopyOutOfRange)?;
            let end = off.checked_add(len).ok_or(DeltaError::CopyOutOfRange)?;
            let slice = base.get(off..end).ok_or(DeltaError::CopyOutOfRange)?;
            out.extend_from_slice(slice);
        } else {
            let end = pos.checked_add(len).ok_or(DeltaError::Truncated)?;
            let slice = delta.get(pos..end).ok_or(DeltaError::Truncated)?;
            out.extend_from_slice(slice);
            pos = end;
        }
    }
    Ok(out)
}

/// The v1 fixed-width op stream (`0x00 off:u32 len:u32` copies,
/// `0x01 len:u32` literals), kept so pre-bump logs replay.
fn decode_legacy(base: &[u8], delta: &[u8], expected_len: usize) -> Result<Vec<u8>, DeltaError> {
    let mut out = Vec::with_capacity(expected_len.min(MAX_PREALLOC));
    let mut pos = 0usize;
    while pos < delta.len() {
        let op = delta[pos];
        pos += 1;
        match op {
            0x00 => {
                let off = read_u32(delta, pos)? as usize;
                let len = read_u32(delta, pos + 4)? as usize;
                pos += 8;
                if exceeds(out.len(), len, expected_len) {
                    return Err(DeltaError::TooLarge);
                }
                let slice = base
                    .get(off..off.checked_add(len).ok_or(DeltaError::CopyOutOfRange)?)
                    .ok_or(DeltaError::CopyOutOfRange)?;
                out.extend_from_slice(slice);
            }
            0x01 => {
                let len = read_u32(delta, pos)? as usize;
                pos += 4;
                if exceeds(out.len(), len, expected_len) {
                    return Err(DeltaError::TooLarge);
                }
                let slice = delta
                    .get(pos..pos.checked_add(len).ok_or(DeltaError::Truncated)?)
                    .ok_or(DeltaError::Truncated)?;
                out.extend_from_slice(slice);
                pos += len;
            }
            other => return Err(DeltaError::UnknownOp(other)),
        }
    }
    Ok(out)
}

/// True when appending `len` more bytes to `have` would run past
/// `bound` — the mid-flight output-size gate.
fn exceeds(have: usize, len: usize, bound: usize) -> bool {
    have.checked_add(len).map_or(true, |total| total > bound)
}

fn read_varint(delta: &[u8], pos: &mut usize) -> Result<u64, DeltaError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *delta.get(*pos).ok_or(DeltaError::Truncated)?;
        *pos += 1;
        if shift >= 64 {
            return Err(DeltaError::BadVarint);
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

fn read_u32(delta: &[u8], at: usize) -> Result<u32, DeltaError> {
    delta
        .get(at..at + 4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4-byte slice")))
        .ok_or(DeltaError::Truncated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The encoder as it was before the flat index, kept as the spec:
    /// a `HashMap` from window hash to the first [`MAX_CANDIDATES`]
    /// indexed offsets. [`encode_impl`] must match it byte for byte.
    fn reference_encode(base: &[u8], data: &[u8], backtrack: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() / 4 + 16);
        if data.is_empty() {
            return out;
        }
        out.push(FORMAT_VARINT);
        if base.len() < WINDOW || data.len() < WINDOW {
            push_literal(&mut out, data);
            return out;
        }

        let mut index: std::collections::HashMap<u64, Vec<u32>> = std::collections::HashMap::new();
        for off in (0..=base.len() - WINDOW).step_by(INDEX_STRIDE) {
            let h = fnv1a(&base[off..off + WINDOW]);
            let slots = index.entry(h).or_default();
            if slots.len() < MAX_CANDIDATES {
                slots.push(off as u32);
            }
        }

        let mut pos = 0usize;
        let mut lit_start = 0usize;
        while pos + WINDOW <= data.len() {
            let h = fnv1a(&data[pos..pos + WINDOW]);
            let mut best: Option<(usize, usize)> = None; // (base_off, len)
            if let Some(cands) = index.get(&h) {
                for &cand in cands {
                    let cand = cand as usize;
                    if base[cand..cand + WINDOW] != data[pos..pos + WINDOW] {
                        continue; // hash collision
                    }
                    let mut len = WINDOW;
                    while cand + len < base.len()
                        && pos + len < data.len()
                        && base[cand + len] == data[pos + len]
                    {
                        len += 1;
                    }
                    if best.map_or(true, |(_, b)| len > b) {
                        best = Some((cand, len));
                    }
                }
            }
            match best {
                Some((mut off, mut len)) => {
                    if backtrack {
                        while off > 0 && pos > lit_start && base[off - 1] == data[pos - 1] {
                            off -= 1;
                            pos -= 1;
                            len += 1;
                        }
                    }
                    push_literal(&mut out, &data[lit_start..pos]);
                    push_copy(&mut out, off, len);
                    pos += len;
                    lit_start = pos;
                }
                None => pos += 1,
            }
        }
        push_literal(&mut out, &data[lit_start..]);
        out
    }

    /// `encode_impl` equals the reference at both `backtrack` settings,
    /// and its output decodes back to `data`.
    fn matches_reference(base: &[u8], data: &[u8]) -> Result<(), TestCaseError> {
        for backtrack in [true, false] {
            let delta = encode_impl(base, data, backtrack);
            prop_assert_eq!(&delta, &reference_encode(base, data, backtrack));
            prop_assert_eq!(decode(base, &delta, data.len()).unwrap(), data);
        }
        Ok(())
    }

    /// A manifest-shaped document: `lines` counter lines whose values
    /// come from `values`.
    fn manifest_text(lines: usize, values: &[u64]) -> Vec<u8> {
        let mut text = String::from("{\n  \"schema\": \"ppet-trace/v1\",\n  \"totals\": {\n");
        for i in 0..lines {
            let value = values[i % values.len()] % 100_000;
            text.push_str(&format!("    \"phase{}.counter_{i}\": {value},\n", i % 7));
        }
        text.push_str("  }\n}\n");
        text.into_bytes()
    }

    fn round_trip(base: &[u8], data: &[u8]) -> usize {
        let delta = encode(base, data);
        assert_eq!(decode(base, &delta, data.len()).expect("decodes"), data);
        delta.len()
    }

    #[test]
    fn identical_data_collapses_to_one_copy() {
        let data: Vec<u8> = (0..2048u32).flat_map(|i| i.to_le_bytes()).collect();
        let len = round_trip(&data, &data);
        // tag + header varint (len 8192 → 3 B) + offset varint (1 B).
        assert_eq!(len, 5, "one copy op: {len} bytes");
    }

    #[test]
    fn insertion_in_the_middle_stays_small() {
        let base: Vec<u8> = (0..2048u32).flat_map(|i| i.to_le_bytes()).collect();
        let mut data = base.clone();
        data.splice(4096..4096, b"INSERTED PAYLOAD".iter().copied());
        let len = round_trip(&base, &data);
        assert!(len < 40, "copy + literal + copy, got {len} bytes");
        assert!(len < data.len() / 10);
    }

    #[test]
    fn unrelated_data_degenerates_to_a_literal() {
        let base = vec![0xAAu8; 500];
        let data: Vec<u8> = (0..500u32).map(|i| (i % 251) as u8).collect();
        let delta = encode(&base, &data);
        assert_eq!(decode(&base, &delta, data.len()).unwrap(), data);
        // Never catastrophically larger than raw: see the proptest
        // `never_worse_than_pure_literals` for the general bound.
        assert!(delta.len() <= data.len() + 6);
    }

    #[test]
    fn short_inputs_are_pure_literals() {
        // tag + 1-byte header + bytes.
        assert_eq!(round_trip(b"abc", b"abc"), 5);
        assert_eq!(round_trip(&[], b"xyz"), 5);
        assert_eq!(round_trip(b"base", &[]), 0);
    }

    #[test]
    fn legacy_fixed_width_streams_still_decode() {
        let base = b"0123456789abcdef0123456789abcdef".to_vec();
        // v1 by hand: copy(0, 32) + literal "tail".
        let mut v1 = vec![0x00];
        v1.extend_from_slice(&0u32.to_le_bytes());
        v1.extend_from_slice(&32u32.to_le_bytes());
        v1.push(0x01);
        v1.extend_from_slice(&4u32.to_le_bytes());
        v1.extend_from_slice(b"tail");
        let mut expect = base.clone();
        expect.extend_from_slice(b"tail");
        assert_eq!(decode(&base, &v1, expect.len()).unwrap(), expect);
    }

    #[test]
    fn corrupt_deltas_error_instead_of_panicking() {
        let base: Vec<u8> = (0..2048u32).flat_map(|i| i.to_le_bytes()).collect();
        // 5 bytes: tag + 3-byte length varint + offset; cutting after
        // byte 2 leaves a continuation bit with nothing behind it.
        let good = encode(&base, &base);
        assert_eq!(good.len(), 5);
        assert_eq!(
            decode(&base, &[0x03], base.len()),
            Err(DeltaError::UnknownOp(3))
        );
        assert_eq!(
            decode(&base, &good[..3], base.len()),
            Err(DeltaError::Truncated)
        );
        // Legacy copy pointing far outside the base.
        let mut bad_copy = vec![0x00];
        bad_copy.extend_from_slice(&u32::MAX.to_le_bytes());
        bad_copy.extend_from_slice(&4u32.to_le_bytes());
        assert_eq!(
            decode(&base, &bad_copy, base.len()),
            Err(DeltaError::CopyOutOfRange)
        );
        // An unterminated varint.
        let unterminated = vec![FORMAT_VARINT, 0x80, 0x80];
        assert_eq!(
            decode(&base, &unterminated, base.len()),
            Err(DeltaError::Truncated)
        );
        // A varint that runs past 64 bits.
        let mut overlong = vec![FORMAT_VARINT];
        overlong.extend_from_slice(&[0x80; 10]);
        overlong.push(0x01);
        assert_eq!(
            decode(&base, &overlong, base.len()),
            Err(DeltaError::BadVarint)
        );
    }

    /// The regression for unbounded decoding: a tiny stream of repeated
    /// max-length copy ops must fail [`DeltaError::TooLarge`] the moment
    /// the declared length is exceeded — not after materializing
    /// gigabytes for the caller's post-hoc check to reject.
    #[test]
    fn bomb_delta_is_rejected_before_ballooning() {
        let base = vec![0x42u8; 64 << 10];
        // 40 bytes of ops declaring ~2.6 MiB of output against a record
        // that claims 100 bytes.
        let mut bomb = vec![FORMAT_VARINT];
        for _ in 0..20 {
            push_copy(&mut bomb, 0, base.len());
        }
        assert!(bomb.len() < 100, "the bomb itself is tiny");
        assert_eq!(decode(&base, &bomb, 100), Err(DeltaError::TooLarge));

        // Same attack through the legacy format.
        let mut legacy_bomb = Vec::new();
        for _ in 0..20 {
            legacy_bomb.push(0x00);
            legacy_bomb.extend_from_slice(&0u32.to_le_bytes());
            legacy_bomb.extend_from_slice(&(base.len() as u32).to_le_bytes());
        }
        assert_eq!(decode(&base, &legacy_bomb, 100), Err(DeltaError::TooLarge));

        // A literal bomb: header declares more than the record does.
        let mut lit_bomb = vec![FORMAT_VARINT];
        push_varint(&mut lit_bomb, (200u64 << 1) | 1);
        lit_bomb.extend_from_slice(&[0u8; 200]);
        assert_eq!(decode(&base, &lit_bomb, 100), Err(DeltaError::TooLarge));
    }

    /// Backward extension reclaims the literal bytes a strided-index
    /// resync pays: a point edit at an offset the stride makes the next
    /// match land late on must produce a strictly smaller delta than
    /// the forward-only encoder.
    #[test]
    fn backward_extension_shrinks_mid_window_edits() {
        let base: Vec<u8> = (0..128u32).flat_map(|i| i.to_le_bytes()).collect();
        let mut data = base.clone();
        // Edit at an INDEX_STRIDE-aligned offset: the post-edit resync
        // can only land INDEX_STRIDE bytes later, so the forward-only
        // encoder stores INDEX_STRIDE literal bytes where one suffices.
        data[256] ^= 0xFF;
        let forward_only = encode_impl(&base, &data, false);
        let with_backtrack = encode(&base, &data);
        assert_eq!(decode(&base, &forward_only, data.len()).unwrap(), data);
        assert_eq!(decode(&base, &with_backtrack, data.len()).unwrap(), data);
        assert!(
            with_backtrack.len() < forward_only.len(),
            "backtracking must win: {} vs {}",
            with_backtrack.len(),
            forward_only.len()
        );
    }

    proptest! {
        #[test]
        fn random_edits_round_trip(
            seedlen in 64usize..512,
            cut in 0usize..64,
            insert in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
        ) {
            let base: Vec<u8> = (0..seedlen as u32).flat_map(|i| i.to_le_bytes()).collect();
            let mut data = base.clone();
            let cut = cut.min(data.len());
            data.drain(..cut);
            let at = data.len() / 2;
            data.splice(at..at, insert.iter().copied());
            let delta = encode(&base, &data);
            prop_assert_eq!(decode(&base, &delta, data.len()).unwrap(), data);
        }

        #[test]
        fn arbitrary_pairs_round_trip(
            base in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300),
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300),
        ) {
            let delta = encode(&base, &data);
            prop_assert_eq!(decode(&base, &delta, data.len()).unwrap(), data);
        }

        /// The encoded delta never exceeds the pure-literal encoding
        /// plus the per-op overhead bound: every copy op (≤ 10 B +
        /// ≤ 5 B literal-split cost) replaces ≥ WINDOW = 16 literal
        /// bytes, so `len(delta) ≤ len(data) + 6` (tag + one literal
        /// header) for any input pair.
        #[test]
        fn never_worse_than_pure_literals(
            base in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..400),
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..400),
        ) {
            let delta = encode(&base, &data);
            prop_assert!(
                delta.len() <= data.len() + 6,
                "delta {} vs literal bound {}", delta.len(), data.len() + 6
            );
        }

        /// Chained decode (base → v1 → v2) equals direct decode of the
        /// flattened chain (base → v2): materializing through an
        /// intermediate delta is invisible in the bytes.
        #[test]
        fn chain_decode_equals_flattened_decode(
            base in proptest::collection::vec(proptest::prelude::any::<u8>(), 32..300),
            mid_edit in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..48),
            final_edit in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..48),
        ) {
            let mut v1 = base.clone();
            let at = v1.len() / 3;
            v1.splice(at..at, mid_edit.iter().copied());
            let mut v2 = v1.clone();
            let at = v2.len() / 2;
            v2.splice(at..at, final_edit.iter().copied());

            let d1 = encode(&base, &v1);
            let d2 = encode(&v1, &v2);
            let chained = decode(
                &decode(&base, &d1, v1.len()).unwrap(),
                &d2,
                v2.len(),
            ).unwrap();
            let flat = decode(&base, &encode(&base, &v2), v2.len()).unwrap();
            prop_assert_eq!(&chained, &v2);
            prop_assert_eq!(&flat, &v2);
            prop_assert_eq!(chained, flat);
        }
    }

    /// Repetitive inputs: one window recurs far more than
    /// [`MAX_CANDIDATES`] times, so the candidate cap decides the match.
    #[test]
    fn repetitive_inputs_match_the_reference() {
        let base = b"abcdefgh".repeat(64);
        let mut data = base.clone();
        data.splice(100..100, b"XY".iter().copied());
        data.extend_from_slice(b"tail of the data");
        matches_reference(&base, &data).unwrap();
        let run = vec![7u8; 300];
        matches_reference(&run, &run[..250]).unwrap();
        matches_reference(&run, &b"0123456789abcdef".repeat(9)).unwrap();

        // Twelve blocks open with the same window and go on differently:
        // the longest match for block 2 or 6 is among the first eight
        // candidates only, and block 10's lies past them.
        let block = |i: u8| -> Vec<u8> {
            let mut b = b"SAME WINDOW HERE".to_vec();
            b.extend((0..16).map(|j| i.wrapping_mul(31).wrapping_add(j * 7)));
            b
        };
        let base: Vec<u8> = (0..12).flat_map(block).collect();
        for i in [2, 6, 10] {
            matches_reference(&base, &[block(i), block(i)].concat()).unwrap();
        }
    }

    proptest! {
        /// Near-duplicate manifests: the same counter lines with a few
        /// values changed and a line inserted.
        #[test]
        fn near_duplicate_manifests_match_the_reference(
            lines in 0usize..120,
            values in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..40),
            edits in proptest::collection::vec((0usize..40, proptest::prelude::any::<u64>()), 0..6),
            insert_at in 0usize..4000,
        ) {
            let base = manifest_text(lines, &values);
            let mut edited = values.clone();
            for &(at, value) in &edits {
                let at = at % edited.len();
                edited[at] = value;
            }
            let mut data = manifest_text(lines, &edited);
            let at = insert_at % (data.len() + 1);
            data.splice(at..at, b"    \"inserted\": 1,\n".iter().copied());
            matches_reference(&base, &data)?;
        }

        /// Random bytes, including inputs shorter than a window.
        #[test]
        fn random_bytes_match_the_reference(
            base in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..400),
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..400),
            short in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..WINDOW),
        ) {
            matches_reference(&base, &data)?;
            matches_reference(&base, &short)?;
            matches_reference(&short, &data)?;
            // A prefix of the base, then random bytes: one long true match.
            let cut = data.len().min(base.len());
            let mut spliced = base[..base.len() - cut / 2].to_vec();
            spliced.extend_from_slice(&data[..cut / 2]);
            matches_reference(&base, &spliced)?;
        }

        /// A short pattern repeated well past [`MAX_CANDIDATES`] copies
        /// in both base and data, with point edits in the data.
        #[test]
        fn repetitive_bytes_match_the_reference(
            pattern in proptest::collection::vec(0u8..4, 1..24),
            copies in 40usize..120,
            edits in proptest::collection::vec((0usize..4000, proptest::prelude::any::<u8>()), 0..8),
        ) {
            let base = pattern.repeat(copies);
            let mut data = pattern.repeat(copies + 3);
            for &(at, byte) in &edits {
                let at = at % data.len();
                data[at] = byte;
            }
            matches_reference(&base, &data)?;
        }
    }
}
