//! Variable-byte integer coding for compressed inverted records.
//!
//! INQUERY stores each inverted record "as a vector of integers in a
//! compressed format. The average compression rate for the four collections
//! ... is about 60%." (Section 3.1). Document ids and positions are
//! delta-encoded and every integer is variable-byte coded: seven payload
//! bits per byte, high bit set on the final byte. Small, frequent values —
//! deltas of dense posting lists, term frequencies of 1 — take one byte.

/// Appends `value` to `out` in variable-byte form.
#[inline]
pub fn encode_vbyte(mut value: u32, out: &mut Vec<u8>) {
    loop {
        let low = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(low | 0x80);
            return;
        }
        out.push(low);
    }
}

/// Decodes one variable-byte integer starting at `pos`, advancing `pos`.
/// Returns `None` on truncated input.
#[inline]
pub fn decode_vbyte(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    let mut value: u32 = 0;
    let mut shift = 0;
    loop {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        value |= ((b & 0x7F) as u32) << shift;
        if b & 0x80 != 0 {
            return Some(value);
        }
        shift += 7;
        if shift >= 35 {
            return None; // would overflow u32: corrupt input
        }
    }
}

/// Bits needed to represent `value` (0 for 0). The per-block bit width of
/// a packed array is the width of its largest element.
#[inline]
pub fn bit_width(value: u32) -> u32 {
    32 - value.leading_zeros()
}

/// Bytes occupied by `count` values packed at `width` bits each: whole
/// little-endian `u64` words, so the decoder reads aligned 8-byte chunks.
/// At the full block size of 128 the bit count is always a multiple of 64
/// and no padding is wasted.
#[inline]
pub fn packed_len(count: usize, width: u32) -> usize {
    (count * width as usize).div_ceil(64) * 8
}

/// Appends `values` to `out` packed at `width` bits each, little-endian
/// within each 64-bit word, words in little-endian byte order. Every value
/// must fit in `width` bits; `width == 0` writes nothing (all zeros).
pub fn pack_bits(values: &[u32], width: u32, out: &mut Vec<u8>) {
    debug_assert!(width <= 32);
    if width == 0 {
        debug_assert!(values.iter().all(|&v| v == 0));
        return;
    }
    let mut acc: u64 = 0;
    let mut used: u32 = 0;
    for &v in values {
        debug_assert!(bit_width(v) <= width, "value {v} exceeds width {width}");
        acc |= (v as u64) << used;
        used += width;
        if used >= 64 {
            out.extend_from_slice(&acc.to_le_bytes());
            used -= 64;
            // Bits of `v` that did not fit in the flushed word.
            acc = if used == 0 { 0 } else { (v as u64) >> (width - used) };
        }
    }
    if used > 0 {
        out.extend_from_slice(&acc.to_le_bytes());
    }
}

/// Decodes `count` values packed by [`pack_bits`] into a caller-owned
/// scratch buffer, clearing it first. Word-at-a-time and branch-free in
/// the main loop: a value starting at bit `i * width` lives entirely
/// within the 8-byte window at byte `(i * width) / 8` (the in-byte shift
/// is at most 7, and 7 + 32 < 64), so each value is one unaligned word
/// read, a shift, and a mask. Values whose window would run past the
/// packed region decode from a zero-padded 16-byte tail copy. Returns
/// `None` when `width > 32` or `bytes` is shorter than
/// [`packed_len`]`(count, width)`.
pub fn unpack_bits(bytes: &[u8], count: usize, width: u32, out: &mut Vec<u32>) -> Option<()> {
    out.clear();
    if width > 32 {
        return None;
    }
    if width == 0 {
        out.resize(count, 0);
        return Some(());
    }
    let need = packed_len(count, width);
    if bytes.len() < need {
        return None;
    }
    let mask: u64 = (1u64 << width) - 1;
    let w = width as usize;
    // Largest prefix whose 8-byte read windows stay inside the region:
    // value i is safe iff (i*w)/8 + 8 <= need.
    let safe = if need >= 8 { count.min(((need - 8) * 8 + 7) / w + 1) } else { 0 };
    out.resize(count, 0);
    for (i, slot) in out[..safe].iter_mut().enumerate() {
        let bit = i * w;
        *slot = ((read_word(bytes, bit >> 3) >> (bit & 7)) & mask) as u32;
    }
    if safe < count {
        // Tail values start within the last 8 bytes; rebase their reads
        // onto a padded copy so the windows cannot overrun.
        let base = need.saturating_sub(8);
        let mut buf = [0u8; 16];
        buf[..need - base].copy_from_slice(&bytes[base..need]);
        for (i, slot) in out[safe..].iter_mut().enumerate() {
            let bit = (safe + i) * w;
            let at = (bit >> 3) - base;
            let word = u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
            *slot = ((word >> (bit & 7)) & mask) as u32;
        }
    }
    Some(())
}

#[inline]
fn read_word(bytes: &[u8], at: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_values_round_trip() {
        for v in [0u32, 1, 127, 128, 300, 16_383, 16_384, 1 << 20, u32::MAX] {
            let mut buf = Vec::new();
            encode_vbyte(v, &mut buf);
            let mut pos = 0;
            assert_eq!(decode_vbyte(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn streams_round_trip() {
        let values = vec![5u32, 0, 127, 128, 99999, 1, u32::MAX, 42];
        let mut buf = Vec::new();
        for &v in &values {
            encode_vbyte(v, &mut buf);
        }
        let mut pos = 0;
        let decoded: Vec<u32> =
            (0..values.len()).map(|_| decode_vbyte(&buf, &mut pos).unwrap()).collect();
        assert_eq!(decoded, values);
    }

    #[test]
    fn truncated_input_is_detected() {
        let mut buf = Vec::new();
        encode_vbyte(1_000_000, &mut buf);
        let mut pos = 0;
        assert_eq!(decode_vbyte(&buf[..buf.len() - 1], &mut pos), None);
        let mut pos = 0;
        assert_eq!(decode_vbyte(&[], &mut pos), None);
    }

    #[test]
    fn corrupt_overlong_encoding_is_rejected() {
        // Six continuation bytes would exceed 32 bits.
        let bad = [0x7F, 0x7F, 0x7F, 0x7F, 0x7F, 0xFF];
        let mut pos = 0;
        assert_eq!(decode_vbyte(&bad, &mut pos), None);
    }

    #[test]
    fn bit_width_covers_range() {
        assert_eq!(bit_width(0), 0);
        assert_eq!(bit_width(1), 1);
        assert_eq!(bit_width(2), 2);
        assert_eq!(bit_width(255), 8);
        assert_eq!(bit_width(256), 9);
        assert_eq!(bit_width(u32::MAX), 32);
    }

    #[test]
    fn packed_values_round_trip_at_every_width() {
        for width in 0u32..=32 {
            let max = if width == 0 { 0 } else { ((1u64 << width) - 1) as u32 };
            // A mix of extremes and a ramp, at an awkward non-multiple count.
            let values: Vec<u32> = (0..97u64)
                .map(|i| if i % 3 == 0 { max } else { (i % (max as u64 + 1)) as u32 })
                .collect();
            let mut buf = Vec::new();
            pack_bits(&values, width, &mut buf);
            assert_eq!(buf.len(), packed_len(values.len(), width), "width {width}");
            let mut out = Vec::new();
            unpack_bits(&buf, values.len(), width, &mut out).unwrap();
            assert_eq!(out, values, "width {width}");
        }
    }

    #[test]
    fn full_block_padding_is_zero() {
        // 128 values at any width is a whole number of 64-bit words.
        for width in [1u32, 7, 13, 20, 32] {
            assert_eq!(packed_len(128, width), 128 * width as usize / 8);
        }
    }

    #[test]
    fn unpack_rejects_truncated_and_overwide_input() {
        let values: Vec<u32> = (0..50).collect();
        let mut buf = Vec::new();
        pack_bits(&values, 6, &mut buf);
        let mut out = Vec::new();
        assert!(unpack_bits(&buf[..buf.len() - 1], 50, 6, &mut out).is_none());
        assert!(unpack_bits(&buf, 50, 33, &mut out).is_none());
        assert!(unpack_bits(&buf, 50, 6, &mut out).is_some());
    }

    #[test]
    fn zero_width_packs_nothing() {
        let zeros = vec![0u32; 12];
        let mut buf = Vec::new();
        pack_bits(&zeros, 0, &mut buf);
        assert!(buf.is_empty());
        let mut out = Vec::new();
        unpack_bits(&buf, 12, 0, &mut out).unwrap();
        assert_eq!(out, zeros);
    }
}
