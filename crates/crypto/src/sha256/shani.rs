//! SHA-256 compression on the x86 SHA extensions (SHA-NI).
//!
//! This is the only module in the workspace allowed to use `unsafe`. The
//! kernel and its helpers are safe `#[target_feature]` functions, so the
//! intrinsics need no `unsafe`. Two kinds of operation do: the call into
//! the kernel, which [`compress_blocks`] makes only after [`available`] has
//! confirmed every feature the kernel enables, and the 16-byte unaligned
//! loads and stores, each of which stays inside a bounds-checked slice of
//! the state, a message block or the round constants.
//!
//! The state lives in two registers across the whole run of blocks, in the
//! `ABEF`/`CDGH` layout `sha256rnds2` expects; it is shuffled in from and
//! out to FIPS order once per call.

use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128,
};

use super::K;

/// Whether this CPU has every feature [`kernel`] enables.
pub(super) fn available() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// Compresses `blocks` into `state` on SHA-NI. Returns `false`, leaving
/// `state` untouched, when the CPU lacks the extensions.
pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) -> bool {
    if !available() {
        return false;
    }
    // SAFETY: `available()` just confirmed sha, sse2, ssse3 and sse4.1 at
    // run time, which are exactly the features `kernel` is compiled with.
    unsafe { kernel(state, blocks) };
    true
}

/// `sha256rnds2` on four schedule words (`w + K`), two rounds per call.
#[inline]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
    // SAFETY: the load reads the 16 bytes of the bounds-checked slice
    // `K[4 * i..4 * i + 4]`; `loadu` needs no alignment, and its SSE2 is
    // enabled on this function.
    let k = unsafe { _mm_loadu_si128(K[4 * i..4 * i + 4].as_ptr().cast()) };
    let wk = _mm_add_epi32(w, k);
    *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
    *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

/// The next four schedule words from the previous sixteen.
#[inline]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
    let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
    _mm_sha256msg2_epu32(t, w3)
}

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn kernel(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    // Byte order: big-endian message words into little-endian lanes.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    // SAFETY: each load reads the 16 bytes of a four-word slice of `state`;
    // `loadu` needs no alignment, and its SSE2 is enabled on this function.
    let (dcba, hgfe) = unsafe {
        (_mm_loadu_si128(state[0..4].as_ptr().cast()), _mm_loadu_si128(state[4..8].as_ptr().cast()))
    };
    let cdab = _mm_shuffle_epi32(dcba, 0xB1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    for block in blocks {
        let (abef0, cdgh0) = (abef, cdgh);
        // SAFETY: each load reads the 16 bytes of a 16-byte slice of the
        // 64-byte `block`; `loadu` needs no alignment, and SSE2 and the
        // SSSE3 of the shuffle are enabled on this function.
        let [mut w0, mut w1, mut w2, mut w3] = unsafe {
            [
                _mm_shuffle_epi8(_mm_loadu_si128(block[0..16].as_ptr().cast()), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(block[16..32].as_ptr().cast()), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(block[32..48].as_ptr().cast()), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(block[48..64].as_ptr().cast()), bswap),
            ]
        };
        rounds4(&mut abef, &mut cdgh, w0, 0);
        rounds4(&mut abef, &mut cdgh, w1, 1);
        rounds4(&mut abef, &mut cdgh, w2, 2);
        rounds4(&mut abef, &mut cdgh, w3, 3);
        // Named registers rather than an indexed array, which the compiler
        // would keep on the stack.
        for i in [4, 8, 12] {
            w0 = schedule(w0, w1, w2, w3);
            rounds4(&mut abef, &mut cdgh, w0, i);
            w1 = schedule(w1, w2, w3, w0);
            rounds4(&mut abef, &mut cdgh, w1, i + 1);
            w2 = schedule(w2, w3, w0, w1);
            rounds4(&mut abef, &mut cdgh, w2, i + 2);
            w3 = schedule(w3, w0, w1, w2);
            rounds4(&mut abef, &mut cdgh, w3, i + 3);
        }
        abef = _mm_add_epi32(abef, abef0);
        cdgh = _mm_add_epi32(cdgh, cdgh0);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
    let hgef = _mm_alignr_epi8(dchg, feba, 8);
    // SAFETY: each store writes the 16 bytes of a four-word slice of the
    // mutably borrowed `state`; `storeu` needs no alignment, and its SSE2
    // is enabled on this function.
    unsafe {
        _mm_storeu_si128(state[0..4].as_mut_ptr().cast(), dcba);
        _mm_storeu_si128(state[4..8].as_mut_ptr().cast(), hgef);
    }
}
