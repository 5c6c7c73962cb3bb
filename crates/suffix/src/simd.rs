//! Occurrence-layer scan kernels: one per shape, chosen by the platform.
//!
//! Every in-block scan of the occurrence table ([`crate::rank`]) bottoms out
//! in one of six kernels: byte equality count and byte histogram (the
//! [`crate::rank::RankLayout::Bytes`] layout), 2-bit pattern count and 2-bit
//! histogram ([`crate::rank::RankLayout::PackedDna`]), and 4-bit (nibble)
//! pattern count and histogram ([`crate::rank::RankLayout::PackedNibble`]).
//!
//! Every kernel has a portable SWAR form: `u64` equality folds plus
//! `count_ones`.  On x86-64 the two 2-bit kernels run an SSE2 form instead,
//! 64 characters (two words) per step, selected at compile time; SSE2 is
//! part of the x86-64 baseline, so there is no runtime detection and no
//! knob, and the SWAR form is the reference the tests compare it with.
//! The SSE2 step pays: on a 2-vCPU Xeon,
//! served DNA search ran ~6% slower at the median with SWAR in its place.
//! Vector forms of the byte and nibble kernels measured no gain over SWAR,
//! so those shapes are SWAR only.  A scan spans at most one checkpoint
//! block (`BLOCK` = 128 characters), so a vector step wider than 64
//! characters would never run.
//!
//! The SSE2 kernels mask the last step of a span to its end and count
//! their match masks in vector registers, so results are exact for every
//! prefix length and no scalar software popcount runs on this path.
//!
//! This is the only module of the crate allowed to use `unsafe` (the SSE2
//! intrinsics); the crate root carries `#![deny(unsafe_code)]` and
//! `alae-lint` checks the confinement.
#![allow(unsafe_code)]

// ---------------------------------------------------------------------------
// Shared word geometry (used by the rank layouts and every kernel).
// ---------------------------------------------------------------------------

/// Characters per `u64` in the 2-bit packed layout.
pub(crate) const CHARS_PER_WORD: usize = 32;

/// Characters per `u64` in the 4-bit nibble layout.
pub(crate) const NIBBLE_CHARS_PER_WORD: usize = 16;

/// Low bit of every 2-bit group.
const GROUP_LOW_BITS: u64 = 0x5555_5555_5555_5555;

/// Low bit of every nibble.
const NIBBLE_LOW_BITS: u64 = 0x1111_1111_1111_1111;

/// Low bit of every byte.
const BYTE_LOW_BITS: u64 = 0x0101_0101_0101_0101;

// ---------------------------------------------------------------------------
// Entry points the rank layer calls.
// ---------------------------------------------------------------------------

/// Number of bytes of `data` equal to `c`, eight bytes per SWAR step.
#[inline]
pub(crate) fn count_eq_bytes(data: &[u8], c: u8) -> usize {
    let pattern = u64::from_ne_bytes([c; 8]);
    let mut count = 0usize;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_ne_bytes(chunk.try_into().unwrap());
        let x = word ^ pattern;
        // Fold each byte onto its low bit: low bit set iff the byte is
        // nonzero (all folds stay inside the byte, so this is exact — unlike
        // the borrow-based `haszero` trick, which is only a predicate).
        let mut folded = x | (x >> 4);
        folded |= folded >> 2;
        folded |= folded >> 1;
        count += 8 - (folded & BYTE_LOW_BITS).count_ones() as usize;
    }
    count + chunks.remainder().iter().filter(|&&b| b == c).count()
}

/// Byte histogram: `counts[b] += 1` for every byte `b` of `data` (all bytes
/// must be `< counts.len()`).
#[inline]
pub(crate) fn byte_histogram(data: &[u8], counts: &mut [u32]) {
    for &b in data {
        counts[b as usize] += 1;
    }
}

/// Occurrences of the 2-bit `pattern` in character positions `[start, end)`
/// of the packed `words`; `start` must be a multiple of [`CHARS_PER_WORD`].
#[inline]
pub(crate) fn count_pattern_2bit(words: &[u64], pattern: u64, start: usize, end: usize) -> usize {
    debug_assert_eq!(start % CHARS_PER_WORD, 0);
    #[cfg(target_arch = "x86_64")]
    {
        x86::count_pattern_2bit_sse2(words, pattern, start, end)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        count_pattern_2bit_swar(words, pattern, start, end)
    }
}

/// Histogram of all four 2-bit patterns over `[start, end)`; `start` must be
/// a multiple of [`CHARS_PER_WORD`].
#[inline]
pub(crate) fn count_all_2bit(words: &[u64], start: usize, end: usize, out: &mut [u32; 4]) {
    debug_assert_eq!(start % CHARS_PER_WORD, 0);
    #[cfg(target_arch = "x86_64")]
    {
        x86::count_all_2bit_sse2(words, start, end, out)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        count_all_2bit_swar(words, start, end, out)
    }
}

/// Occurrences of the 4-bit `pattern` in nibble positions `[start, end)` of
/// the packed `words`, one word per step; `start` must be a multiple of
/// [`NIBBLE_CHARS_PER_WORD`].
#[inline]
pub(crate) fn count_pattern_nibble(words: &[u64], pattern: u64, start: usize, end: usize) -> usize {
    debug_assert_eq!(start % NIBBLE_CHARS_PER_WORD, 0);
    let mut count = 0u32;
    let mut pos = start;
    let mut w = start / NIBBLE_CHARS_PER_WORD;
    while pos < end {
        let rem = (end - pos).min(NIBBLE_CHARS_PER_WORD);
        count += (eq4(words[w], pattern) & nibble_mask(rem)).count_ones();
        pos += rem;
        w += 1;
    }
    count as usize
}

/// Nibble histogram over `[start, end)`: `out[p] += 1` for every nibble
/// value `p` (every stored nibble must be `< out.len()`); `start` must be a
/// multiple of [`NIBBLE_CHARS_PER_WORD`].  Each storage word is loaded once
/// and its nibbles shifted out.
#[inline]
pub(crate) fn nibble_histogram_into(words: &[u64], start: usize, end: usize, out: &mut [u32]) {
    debug_assert_eq!(start % NIBBLE_CHARS_PER_WORD, 0);
    let mut pos = start;
    let mut w = start / NIBBLE_CHARS_PER_WORD;
    while pos < end {
        let rem = (end - pos).min(NIBBLE_CHARS_PER_WORD);
        let mut word = words[w];
        for _ in 0..rem {
            out[(word & 0xF) as usize] += 1;
            word >>= 4;
        }
        pos += rem;
        w += 1;
    }
}

/// Total set bits across `words` (the rank bit-vector's block scan).
#[inline]
pub(crate) fn popcount_words(words: &[u64]) -> u32 {
    words.iter().map(|w| w.count_ones()).sum()
}

// ---------------------------------------------------------------------------
// SWAR helpers and the 2-bit SWAR kernels (the whole 2-bit path off x86-64;
// on it, the reference the SSE2 kernels are tested against).
// ---------------------------------------------------------------------------

/// Low-bit-per-group equality mask: bit `2k` set iff 2-bit group `k` equals
/// `pattern`.
#[cfg(any(test, not(target_arch = "x86_64")))]
#[inline]
fn eq2(word: u64, pattern: u64) -> u64 {
    let lo = if pattern & 1 != 0 { word } else { !word };
    let hi = if pattern & 2 != 0 {
        word >> 1
    } else {
        !(word >> 1)
    };
    lo & hi & GROUP_LOW_BITS
}

/// Low-bit-per-nibble equality mask: bit `4k` set iff nibble `k` equals
/// `pattern` (`pattern < 16`).
#[inline]
fn eq4(word: u64, pattern: u64) -> u64 {
    // XOR leaves matching nibbles zero; fold each nibble onto its low bit
    // (all folds stay inside the nibble, so this is exact).
    let x = word ^ (pattern * NIBBLE_LOW_BITS);
    let mut folded = x | (x >> 2);
    folded |= folded >> 1;
    !folded & NIBBLE_LOW_BITS
}

/// Mask selecting the first `rem` 2-bit groups of a word.
#[inline]
fn group_mask(rem: usize) -> u64 {
    let groups = if rem >= CHARS_PER_WORD {
        !0
    } else {
        (1u64 << (2 * rem)) - 1
    };
    groups & GROUP_LOW_BITS
}

/// Mask selecting the first `rem` nibbles of a word.
#[inline]
fn nibble_mask(rem: usize) -> u64 {
    let nibbles = if rem >= NIBBLE_CHARS_PER_WORD {
        !0
    } else {
        (1u64 << (4 * rem)) - 1
    };
    nibbles & NIBBLE_LOW_BITS
}

/// [`count_pattern_2bit`], one word per step.
#[cfg(any(test, not(target_arch = "x86_64")))]
fn count_pattern_2bit_swar(words: &[u64], pattern: u64, start: usize, end: usize) -> usize {
    let mut count = 0u32;
    let mut pos = start;
    let mut w = start / CHARS_PER_WORD;
    while pos < end {
        let rem = (end - pos).min(CHARS_PER_WORD);
        count += (eq2(words[w], pattern) & group_mask(rem)).count_ones();
        pos += rem;
        w += 1;
    }
    count as usize
}

/// [`count_all_2bit`], one word per step.
#[cfg(any(test, not(target_arch = "x86_64")))]
fn count_all_2bit_swar(words: &[u64], start: usize, end: usize, out: &mut [u32; 4]) {
    let mut pos = start;
    let mut w = start / CHARS_PER_WORD;
    while pos < end {
        let rem = (end - pos).min(CHARS_PER_WORD);
        let word = words[w];
        let (lo, hi) = (word, word >> 1);
        let mask = group_mask(rem);
        out[0] += (!hi & !lo & mask).count_ones();
        out[1] += (!hi & lo & mask).count_ones();
        out[2] += (hi & !lo & mask).count_ones();
        out[3] += (hi & lo & mask).count_ones();
        pos += rem;
        w += 1;
    }
}

// ---------------------------------------------------------------------------
// x86-64 SSE2 kernels.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! SSE2 forms of the 2-bit kernels (x86-64 baseline, no detection).
    //!
    //! Each step covers two words (64 characters); the last step of a span
    //! masks off the characters past its end, so there is no scalar tail.
    //! Match masks are counted in vector registers too: the x86-64 baseline
    //! has no `popcnt` instruction, and a scalar `count_ones` there is a
    //! dozen-instruction software sequence per word.

    use super::{group_mask, CHARS_PER_WORD};
    use std::arch::x86_64::*;

    /// 2-bit characters per 128-bit step (2 words).
    const CHARS_PER_SSE2: usize = 2 * CHARS_PER_WORD;

    /// The step starting at word `w` with `rem` characters left in the
    /// span: the two words (the second zero when the span ends in the
    /// first) and the group mask selecting only the characters in the span.
    #[inline]
    fn load_step(words: &[u64], w: usize, rem: usize) -> (__m128i, __m128i) {
        let lo = words[w];
        let hi = if rem > CHARS_PER_WORD {
            words[w + 1]
        } else {
            0
        };
        let span_lo = group_mask(rem);
        let span_hi = group_mask(rem.saturating_sub(CHARS_PER_WORD));
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe {
            (
                _mm_set_epi64x(hi as i64, lo as i64),
                _mm_set_epi64x(span_hi as i64, span_lo as i64),
            )
        }
    }

    /// Set bits of `m` per 64-bit lane, for a mask whose set bits all sit
    /// at even positions (at most one per 2-bit group, as every match mask
    /// here does): sum the groups into nibbles, the nibbles into bytes and
    /// the bytes into the lanes with `psadbw`.
    #[inline]
    fn group_counts(m: __m128i) -> __m128i {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe {
            let pairs = _mm_set1_epi8(0x33);
            let nibbles = _mm_set1_epi8(0x0F);
            let x = _mm_add_epi8(
                _mm_and_si128(m, pairs),
                _mm_and_si128(_mm_srli_epi16(m, 2), pairs),
            );
            let x = _mm_and_si128(_mm_add_epi8(x, _mm_srli_epi16(x, 4)), nibbles);
            _mm_sad_epu8(x, _mm_setzero_si128())
        }
    }

    /// [`super::count_pattern_2bit`], two words (64 characters) per step.
    #[inline]
    pub fn count_pattern_2bit_sse2(words: &[u64], pattern: u64, start: usize, end: usize) -> usize {
        let mut pos = start;
        let mut w = start / CHARS_PER_WORD;
        // SAFETY: SSE2 is part of the x86-64 baseline; no intrinsic here
        // touches memory.
        unsafe {
            // eq2 vectorized: lo = word ^ (p&1 ? 0 : !0), hi = (word >> 1)
            // ^ (p&2 ? 0 : !0), mask = lo & hi & span.
            let flip_lo = _mm_set1_epi64x(if pattern & 1 != 0 { 0 } else { -1 });
            let flip_hi = _mm_set1_epi64x(if pattern & 2 != 0 { 0 } else { -1 });
            let mut counts = _mm_setzero_si128();
            while pos < end {
                let rem = end - pos;
                let (v, span) = load_step(words, w, rem);
                let lo = _mm_xor_si128(v, flip_lo);
                let hi = _mm_xor_si128(_mm_srli_epi64(v, 1), flip_hi);
                let m = _mm_and_si128(_mm_and_si128(lo, hi), span);
                counts = _mm_add_epi64(counts, group_counts(m));
                pos += rem.min(CHARS_PER_SSE2);
                w += 2;
            }
            let total = _mm_add_epi64(counts, _mm_srli_si128(counts, 8));
            _mm_cvtsi128_si64(total) as usize
        }
    }

    /// [`super::count_all_2bit`], two words per step.  Three counts give
    /// all four patterns: `H` characters with the high bit set, `L` with the
    /// low bit set and `B` with both, so pattern 3 occurs `B` times,
    /// pattern 2 `H - B`, pattern 1 `L - B` and pattern 0 `n - H - L + B`
    /// in a step of `n` characters.
    #[inline]
    pub fn count_all_2bit_sse2(words: &[u64], start: usize, end: usize, out: &mut [u32; 4]) {
        let mut pos = start;
        let mut w = start / CHARS_PER_WORD;
        while pos < end {
            let n = (end - pos).min(CHARS_PER_SSE2);
            let (v, span) = load_step(words, w, n);
            // SAFETY: SSE2 is part of the x86-64 baseline; no intrinsic
            // here touches memory.
            let packed = unsafe {
                let lo = _mm_and_si128(v, span);
                let hi = _mm_and_si128(_mm_srli_epi64(v, 1), span);
                let h = group_counts(hi);
                let l = group_counts(lo);
                let b = group_counts(_mm_and_si128(hi, lo));
                // A lane holds at most 32 characters, so the three counts
                // pack into 16-bit fields of one lane.
                let c = _mm_or_si128(
                    _mm_or_si128(h, _mm_slli_epi64(l, 16)),
                    _mm_slli_epi64(b, 32),
                );
                _mm_cvtsi128_si64(_mm_add_epi64(c, _mm_srli_si128(c, 8))) as u64
            };
            let h = (packed & 0xFFFF) as u32;
            let l = ((packed >> 16) & 0xFFFF) as u32;
            let b = (packed >> 32) as u32;
            out[0] += n as u32 + b - h - l;
            out[1] += l - b;
            out[2] += h - b;
            out[3] += b;
            pos += n;
            w += 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Ragged spans starting on word boundaries: empty, one character,
    /// either side of one and two SSE2 steps, a full checkpoint block and
    /// the whole (non-word-multiple) buffer.
    fn spans(chars: usize, word: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for start_word in [0usize, 1, 4] {
            let start = start_word * word;
            for len in [0usize, 1, 31, 32, 33, 63, 64, 65, 127, 128, 130] {
                if start + len <= chars {
                    out.push((start, start + len));
                }
            }
            out.push((start, chars));
        }
        out
    }

    #[test]
    fn byte_kernels_match_naive_counts() {
        let mut state = 11u64;
        for code_count in [6usize, 23, 31] {
            let data: Vec<u8> = (0..200)
                .map(|_| (xorshift(&mut state) % code_count as u64) as u8)
                .collect();
            for (start, end) in spans(data.len(), 8) {
                let span = &data[start..end];
                let mut expected = vec![0u32; code_count];
                for &b in span {
                    expected[b as usize] += 1;
                }
                let mut counts = vec![0u32; code_count];
                byte_histogram(span, &mut counts);
                assert_eq!(counts, expected, "code_count {code_count} [{start}, {end})");
                for c in 0..code_count as u8 {
                    assert_eq!(
                        count_eq_bytes(span, c) as u32,
                        expected[c as usize],
                        "c {c} [{start}, {end})"
                    );
                }
            }
        }
    }

    /// Naive 2-bit count over `[start, end)`.
    fn naive_2bit(words: &[u64], pattern: u64, start: usize, end: usize) -> usize {
        (start..end)
            .filter(|&i| (words[i / CHARS_PER_WORD] >> (2 * (i % CHARS_PER_WORD))) & 3 == pattern)
            .count()
    }

    /// Check one 2-bit kernel pair against the naive count on ragged spans.
    fn check_2bit(
        name: &str,
        count_pattern: fn(&[u64], u64, usize, usize) -> usize,
        count_all: fn(&[u64], usize, usize, &mut [u32; 4]),
    ) {
        let mut state = 77u64;
        let chars: usize = 512 + 13;
        let words: Vec<u64> = (0..chars.div_ceil(CHARS_PER_WORD))
            .map(|_| xorshift(&mut state))
            .collect();
        for (start, end) in spans(chars, CHARS_PER_WORD) {
            let mut all = [0u32; 4];
            count_all(&words, start, end, &mut all);
            for pattern in 0..4u64 {
                let expected = naive_2bit(&words, pattern, start, end);
                assert_eq!(
                    count_pattern(&words, pattern, start, end),
                    expected,
                    "{name} pattern {pattern} [{start}, {end})"
                );
                assert_eq!(all[pattern as usize] as usize, expected, "{name} histogram");
            }
        }
    }

    #[test]
    fn swar_two_bit_kernels_match_naive_counts() {
        check_2bit("swar", count_pattern_2bit_swar, count_all_2bit_swar);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_two_bit_kernels_match_naive_counts() {
        check_2bit(
            "sse2",
            x86::count_pattern_2bit_sse2,
            x86::count_all_2bit_sse2,
        );
    }

    #[test]
    fn nibble_kernels_match_naive_counts() {
        let mut state = 99u64;
        let nibbles: usize = 256 + 9;
        let words: Vec<u64> = (0..nibbles.div_ceil(NIBBLE_CHARS_PER_WORD))
            .map(|_| xorshift(&mut state))
            .collect();
        let nibble_at = |i: usize| -> usize {
            ((words[i / NIBBLE_CHARS_PER_WORD] >> (4 * (i % NIBBLE_CHARS_PER_WORD))) & 0xF) as usize
        };
        for (start, end) in spans(nibbles, NIBBLE_CHARS_PER_WORD) {
            let mut expected = [0u32; 16];
            for i in start..end {
                expected[nibble_at(i)] += 1;
            }
            let mut hist = [0u32; 16];
            nibble_histogram_into(&words, start, end, &mut hist);
            assert_eq!(hist, expected, "[{start}, {end})");
            for pattern in 0..16u64 {
                assert_eq!(
                    count_pattern_nibble(&words, pattern, start, end),
                    expected[pattern as usize] as usize,
                    "pattern {pattern} [{start}, {end})"
                );
            }
        }
    }

    #[test]
    fn popcount_words_matches_scalar() {
        let mut state = 5u64;
        let words: Vec<u64> = (0..17).map(|_| xorshift(&mut state)).collect();
        let expected: u32 = words.iter().map(|w| w.count_ones()).sum();
        assert_eq!(popcount_words(&words), expected);
        assert_eq!(popcount_words(&[]), 0);
    }
}
