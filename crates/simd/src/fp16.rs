//! FP16-specialised stages of the AxCore LUT tier around the fold: the
//! activation encoder, the per-element table build and the fused
//! Norm → AxScale finish on the fold's accumulator lanes.
//!
//! Each stage has a public scalar reference here (the bit-exactness
//! oracle the vector kernels are tested against) and an AVX2 kernel
//! behind a runtime-dispatching entry point; the table build and the
//! finish also have an AVX-512 body, which the finish runs on the fold's
//! 16-lane tiles. The references are written against FP16's fixed
//! geometry (10 mantissa bits, bias 15, largest finite
//! magnitude `0x7bff`); the engine only takes these kernels for FP16
//! activations with FPMA dequantization, and its tests pin every
//! reference bit-equal to the generic softfloat/PreAdd/PE/Norm/AxScale
//! path it replaces.

/// FP16 mantissa bits.
const MAN_BITS: u32 = 10;
/// Smallest normal magnitude (exponent field 1, mantissa 0).
const MIN_NORMAL: i32 = 1 << MAN_BITS;
/// Largest finite magnitude (exponent field 30, mantissa all ones): the
/// saturation value of the datapath.
const MAX_MAG: i32 = 0x7bff;
/// The exponent bias in integer-magnitude units (`B << MAN_BITS`).
const BIAS_UNITS: i32 = 15 << MAN_BITS;
/// Fraction bits of the partial accumulator's significand (`N_m + 2`).
const FRAC_BITS: i32 = MAN_BITS as i32 + 2;
/// `FP16.encode(NaN)`: max exponent, mantissa MSB, positive sign.
const CANONICAL_NAN: u32 = 0x7e00;
/// f32 → FP16 exponent rebias in magnitude bits: `(127 − 15) << 23`.
const REBIAS_F32: u32 = 112 << 23;
/// FP16 → f32 exponent rebias in FP16 magnitude units: `(127 − 15) << 10`.
const REBIAS_F16: u32 = 112 << MAN_BITS;
/// The table build narrows lane addends to i32 by clamping them to
/// `±ADDEND_CLAMP`. That is exact: PreAdd terms are below `2^16` in
/// magnitude, so any addend past the clamp already drives `t + addend`
/// below the first normal (a flush) or above the largest finite
/// magnitude (a saturation), and the clamped value does the same.
const ADDEND_CLAMP: i64 = 1 << 24;
/// Bound on the PreAdd compensation constant `C₁` the build accepts, so
/// `|t| < 2^16` holds for every FP16 activation.
const C1_LIMIT: u32 = 1 << 14;

use crate::Body;

/// Round `v` right by `shift` bits, ties to even (`1 ≤ shift ≤ 31`,
/// `v ≤ 2^31`, so the biased sum cannot leave u32).
#[inline(always)]
fn rne_shift(v: u32, shift: u32) -> u32 {
    let lsb = (v >> shift) & 1;
    (v + (1 << (shift - 1)) - 1 + lsb) >> shift
}

/// Scalar reference for [`encode_fp16`]: one `f32` to its FP16 bit
/// pattern, exactly as `FP16.encode(x as f64)` produces it — round to
/// nearest even, overflow *and* ±∞ saturating to `sign | 0x7bff`, every
/// NaN to the positive canonical `0x7e00`, signed zeros kept, values
/// below half the smallest subnormal rounding to a signed zero.
pub fn scalar_encode_fp16(x: f32) -> u32 {
    let bits = x.to_bits();
    let sign = (bits >> 16) & 0x8000;
    let abs = bits & 0x7fff_ffff;
    if abs > 0x7f80_0000 {
        return CANONICAL_NAN;
    }
    let h = if abs >= 0x3880_0000 {
        // FP16 normal range (≥ 2^-14): rebias the exponent and round the
        // 23-bit mantissa to 10 bits; a mantissa carry rolls into the
        // exponent field, and anything rounding past 0x7bff (including
        // ∞) is clamped below.
        let lsb = (abs >> 13) & 1;
        (abs - REBIAS_F32 + 0x0fff + lsb) >> 13
    } else {
        // FP16 subnormal range: round the value in units of 2^-24 (the
        // subnormal ulp). A normal f32 is `mant · 2^(e − 150)`, an f32
        // subnormal `mant · 2^-149`; shifts past 31 round to zero anyway
        // (`mant < 2^24`), and a result of 1024 is the first normal.
        let e = abs >> 23;
        let mant = (abs & 0x7f_ffff) | if e != 0 { 0x80_0000 } else { 0 };
        rne_shift(mant, (126 - e.max(1)).min(31))
    };
    sign | h.min(MAX_MAG as u32)
}

/// Encode a row of `f32` activations to FP16 bit patterns (one `u32`
/// each), bit-identical to [`scalar_encode_fp16`] per element. Runs the
/// AVX2 kernel over whole 8-element chunks when the CPU has AVX2 and the
/// scalar reference over the tail.
///
/// # Panics
///
/// Panics if `src.len() != dst.len()`.
pub fn encode_fp16(src: &[f32], dst: &mut [u32]) {
    assert_eq!(src.len(), dst.len(), "encode length mismatch");
    #[allow(unused_mut)]
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if crate::avx2_available() {
        done = src.len() / 8 * 8;
        // SAFETY: AVX2 confirmed at runtime; both slices hold exactly
        // `done` elements, a multiple of 8.
        unsafe { avx2_encode_fp16(&src[..done], &mut dst[..done]) };
    }
    for (d, &x) in dst[done..].iter_mut().zip(&src[done..]) {
        *d = scalar_encode_fp16(x);
    }
}

/// [`encode_fp16`] in AVX2, eight lanes per step: the normal-range and
/// subnormal-range roundings of [`scalar_encode_fp16`] are both computed
/// branch-free (variable shifts with `vpsrlvd`/`vpsllvd`) and blended by
/// range, then clamped to `0x7bff`, signed, and NaN lanes replaced by the
/// canonical pattern. Every step is the reference's integer arithmetic
/// on the same u32 values, so the lanes are bit-identical to it.
///
/// # Safety
///
/// Caller must guarantee AVX2 is available and
/// `src.len() == dst.len()`, a multiple of 8.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_encode_fp16(src: &[f32], dst: &mut [u32]) {
    use std::arch::x86_64::*;
    let abs_mask = _mm256_set1_epi32(0x7fff_ffff);
    let sign_mask = _mm256_set1_epi32(0x8000);
    let one = _mm256_set1_epi32(1);
    let rebias = _mm256_set1_epi32(REBIAS_F32 as i32);
    let round = _mm256_set1_epi32(0x0fff);
    let man23 = _mm256_set1_epi32(0x7f_ffff);
    let hidden = _mm256_set1_epi32(0x80_0000);
    let zero = _mm256_setzero_si256();
    let last_sub = _mm256_set1_epi32(0x387f_ffff);
    let inf = _mm256_set1_epi32(0x7f80_0000);
    let c126 = _mm256_set1_epi32(126);
    let c31 = _mm256_set1_epi32(31);
    let max_mag = _mm256_set1_epi32(MAX_MAG);
    let nan = _mm256_set1_epi32(CANONICAL_NAN as i32);
    for i in (0..src.len()).step_by(8) {
        let x = _mm256_castps_si256(_mm256_loadu_ps(src.as_ptr().add(i)));
        let sign = _mm256_and_si256(_mm256_srli_epi32::<16>(x), sign_mask);
        let abs = _mm256_and_si256(x, abs_mask);
        // Normal range.
        let lsb = _mm256_and_si256(_mm256_srli_epi32::<13>(abs), one);
        let hn = _mm256_srli_epi32::<13>(_mm256_add_epi32(
            _mm256_add_epi32(_mm256_sub_epi32(abs, rebias), round),
            lsb,
        ));
        // Subnormal range; the shift is kept in [1, 31] on every lane so
        // the rounding bias is well formed even where the lane is blended
        // away.
        let e = _mm256_srli_epi32::<23>(abs);
        let implicit = _mm256_and_si256(_mm256_cmpgt_epi32(e, zero), hidden);
        let mant = _mm256_or_si256(_mm256_and_si256(abs, man23), implicit);
        let sh = _mm256_max_epi32(
            _mm256_min_epi32(_mm256_sub_epi32(c126, _mm256_max_epi32(e, one)), c31),
            one,
        );
        let half_m1 = _mm256_sub_epi32(_mm256_sllv_epi32(one, _mm256_sub_epi32(sh, one)), one);
        let lsb_s = _mm256_and_si256(_mm256_srlv_epi32(mant, sh), one);
        let hs = _mm256_srlv_epi32(_mm256_add_epi32(_mm256_add_epi32(mant, half_m1), lsb_s), sh);
        let is_normal = _mm256_cmpgt_epi32(abs, last_sub);
        let h = _mm256_min_epi32(_mm256_blendv_epi8(hs, hn, is_normal), max_mag);
        let h = _mm256_or_si256(h, sign);
        let h = _mm256_blendv_epi8(h, nan, _mm256_cmpgt_epi32(abs, inf));
        _mm256_storeu_si256(dst.as_mut_ptr().add(i) as *mut __m256i, h);
    }
}

/// Scalar reference for [`build_rows_fp16`]: the packed-plane table
/// build of one mpFPMA unit over a run of FP16 activation elements.
///
/// For element `e` with bit pattern `bits[e]`, the PreAdd term is
/// `t = (bits & 0x7fff) + c1` with the sign, Guard-zero flag and
/// stochastic bit (mantissa MSB) of the pattern; the stochastic bit
/// picks the unit's SNC tie row (`addends[0..16]` ties down,
/// `addends[16..32]` ties up), and each of the 16 codes gets the
/// combined entry `(exp << 16) | (inc as u16)` of the clamped product
/// `min(t + addend, 0x7bff)` (flushed below the first normal), signed by
/// `tsign ^ signs[code]` (0 / −1 masks). A Guard-zero element writes 16
/// zero entries. This is the engine's straight-line table build for the
/// FP16 geometry, written to `out[e * 16..(e + 1) * 16]`.
///
/// # Panics
///
/// Panics unless `addends.len() == 32`, `signs.len() == 16` and
/// `out.len() == bits.len() * 16`.
pub fn scalar_build_rows_fp16(
    bits: &[u32],
    c1: i32,
    addends: &[i64],
    signs: &[i64],
    out: &mut [i32],
) {
    check_build_shapes(bits, addends, signs, out);
    for (&b, row) in bits.iter().zip(out.chunks_exact_mut(16)) {
        let mag_a = (b & 0x7fff) as i64;
        if mag_a == 0 {
            row.fill(0);
            continue;
        }
        let t = mag_a + c1 as i64;
        let v = ((b >> (MAN_BITS - 1)) & 1) as usize * 16;
        let tsign = -(((b >> 15) & 1) as i64);
        for (c, slot) in row.iter_mut().enumerate() {
            let r = (t + addends[v + c]).min(MAX_MAG as i64);
            let mag = if r < MIN_NORMAL as i64 { 0 } else { r };
            let nz = -((mag != 0) as i64);
            let s = tsign ^ signs[c];
            let val = ((mag & 0x3ff) | MIN_NORMAL as i64) << 2;
            let inc = ((val ^ s) - s) & nz;
            *slot = (((mag >> MAN_BITS) as i32) << 16) | ((inc as i32) & 0xffff);
        }
    }
}

fn check_build_shapes(bits: &[u32], addends: &[i64], signs: &[i64], out: &[i32]) {
    assert_eq!(addends.len(), 32, "addends must be the unit's two 16-code tie rows");
    assert_eq!(signs.len(), 16, "signs must be the unit's 16-code sign row");
    assert_eq!(out.len(), bits.len() * 16, "out must hold 16 entries per element");
}

/// Build one unit's packed LUT rows for a run of FP16 activation
/// elements: bit-identical to [`scalar_build_rows_fp16`]. Writes each
/// element's 16 entries as one AVX-512 register where
/// [`crate::fold_lanes`] is 16, as two AVX2 registers where the CPU has
/// AVX2, and runs the reference otherwise.
///
/// # Panics
///
/// Panics on the reference's shape violations, or unless
/// `|c1| < 2^14` (the bound that makes the kernels' i32 narrowing of
/// the addends exact).
pub fn build_rows_fp16(bits: &[u32], c1: i32, addends: &[i64], signs: &[i64], out: &mut [i32]) {
    build_rows_on(Body::for_lanes::<16>(), bits, c1, addends, signs, out);
}

/// [`build_rows_fp16`] on a named body — the self-test and the tests
/// check each body through this.
///
/// # Panics
///
/// As [`build_rows_fp16`], or unless the CPU has `body`'s instruction
/// set.
pub(crate) fn build_rows_on(
    body: Body,
    bits: &[u32],
    c1: i32,
    addends: &[i64],
    signs: &[i64],
    out: &mut [i32],
) {
    check_build_shapes(bits, addends, signs, out);
    assert!(c1.unsigned_abs() < C1_LIMIT, "compensation constant {c1} out of range");
    assert!(body.available(), "{body:?} cannot run here");
    match body {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX-512F confirmed above; shapes asserted above.
        Body::Avx512 => unsafe { avx512_build_rows_fp16(bits, c1, addends, signs, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 confirmed above; shapes asserted above.
        Body::Avx2 => unsafe { avx2_build_rows_fp16(bits, c1, addends, signs, out) },
        _ => scalar_build_rows_fp16(bits, c1, addends, signs, out),
    }
}

/// The unit's rows narrowed to i32 for the vector builds: addends
/// clamped to `±2^24`, sign masks truncated. Inlined into each build
/// body, so the narrowing runs in that body's vector width.
///
/// Bit-identity with the reference: the clamp is exact because
/// `|t| < 2^16` (see `ADDEND_CLAMP`), every later value fits i32
/// (`mag ≤ 0x7bff`, `|val| < 2^13`), and the low 16 bits of
/// `(val ^ s) − s` depend only on the low 16 bits of `s`, so truncating
/// the sign masks changes no stored bit.
#[inline(always)]
fn narrow_rows(addends: &[i64], signs: &[i64]) -> ([i32; 32], [i32; 16]) {
    let mut a32 = [0i32; 32];
    for (d, &a) in a32.iter_mut().zip(addends) {
        *d = a.clamp(-ADDEND_CLAMP, ADDEND_CLAMP) as i32;
    }
    let mut s32 = [0i32; 16];
    for (d, &s) in s32.iter_mut().zip(signs) {
        *d = s as i32;
    }
    (a32, s32)
}

/// [`build_rows_fp16`] in AVX2: the unit's rows are narrowed to i32
/// once per call ([`narrow_rows`]), then each element broadcasts its
/// PreAdd term and writes its 16 entries as two 8-lane vectors — add,
/// clamp, flush mask, sign fold, pack.
///
/// # Safety
///
/// Caller must guarantee AVX2 is available, `addends.len() == 32`,
/// `signs.len() == 16` and `out.len() == bits.len() * 16`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_build_rows_fp16(
    bits: &[u32],
    c1: i32,
    addends: &[i64],
    signs: &[i64],
    out: &mut [i32],
) {
    use std::arch::x86_64::*;
    let (a32, s32) = narrow_rows(addends, signs);
    let ap = a32.as_ptr() as *const __m256i;
    let sp = s32.as_ptr() as *const __m256i;
    let rows = [
        [_mm256_loadu_si256(ap), _mm256_loadu_si256(ap.add(1))],
        [_mm256_loadu_si256(ap.add(2)), _mm256_loadu_si256(ap.add(3))],
    ];
    let sg = [_mm256_loadu_si256(sp), _mm256_loadu_si256(sp.add(1))];
    let max_mag = _mm256_set1_epi32(MAX_MAG);
    let below = _mm256_set1_epi32(MIN_NORMAL - 1);
    let man = _mm256_set1_epi32(0x3ff);
    let hidden = _mm256_set1_epi32(MIN_NORMAL);
    let low16 = _mm256_set1_epi32(0xffff);
    let zero = _mm256_setzero_si256();
    let dst = out.as_mut_ptr() as *mut __m256i;
    for (e, &b) in bits.iter().enumerate() {
        let d = dst.add(2 * e);
        let mag_a = (b & 0x7fff) as i32;
        if mag_a == 0 {
            _mm256_storeu_si256(d, zero);
            _mm256_storeu_si256(d.add(1), zero);
            continue;
        }
        let t = _mm256_set1_epi32(mag_a + c1);
        let row = &rows[((b >> (MAN_BITS - 1)) & 1) as usize];
        let tsign = _mm256_set1_epi32(-(((b >> 15) & 1) as i32));
        for h in 0..2 {
            let r = _mm256_min_epi32(_mm256_add_epi32(t, row[h]), max_mag);
            let keep = _mm256_cmpgt_epi32(r, below);
            let mag = _mm256_and_si256(r, keep);
            let s = _mm256_xor_si256(tsign, sg[h]);
            let val = _mm256_slli_epi32::<2>(_mm256_or_si256(_mm256_and_si256(mag, man), hidden));
            let inc = _mm256_and_si256(_mm256_sub_epi32(_mm256_xor_si256(val, s), s), keep);
            let entry = _mm256_or_si256(
                _mm256_slli_epi32::<16>(_mm256_srli_epi32::<10>(mag)),
                _mm256_and_si256(inc, low16),
            );
            _mm256_storeu_si256(d.add(h), entry);
        }
    }
}

/// [`build_rows_fp16`] in AVX-512: the AVX2 build's steps with each
/// element's 16 entries in one register, the flush as a compare mask
/// (`mag` and `inc` zeroed under it, as the AVX2 build's `and` with the
/// compare vector does).
///
/// # Safety
///
/// Caller must guarantee AVX-512F is available, `addends.len() == 32`,
/// `signs.len() == 16` and `out.len() == bits.len() * 16`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn avx512_build_rows_fp16(
    bits: &[u32],
    c1: i32,
    addends: &[i64],
    signs: &[i64],
    out: &mut [i32],
) {
    use std::arch::x86_64::*;
    let (a32, s32) = narrow_rows(addends, signs);
    let ap = a32.as_ptr() as *const __m512i;
    let rows = [_mm512_loadu_si512(ap), _mm512_loadu_si512(ap.add(1))];
    let sg = _mm512_loadu_si512(s32.as_ptr() as *const __m512i);
    let max_mag = _mm512_set1_epi32(MAX_MAG);
    let below = _mm512_set1_epi32(MIN_NORMAL - 1);
    let man = _mm512_set1_epi32(0x3ff);
    let hidden = _mm512_set1_epi32(MIN_NORMAL);
    let low16 = _mm512_set1_epi32(0xffff);
    let dst = out.as_mut_ptr() as *mut __m512i;
    for (e, &b) in bits.iter().enumerate() {
        let d = dst.add(e);
        let mag_a = (b & 0x7fff) as i32;
        if mag_a == 0 {
            _mm512_storeu_si512(d, _mm512_setzero_si512());
            continue;
        }
        let t = _mm512_set1_epi32(mag_a + c1);
        let row = rows[((b >> (MAN_BITS - 1)) & 1) as usize];
        let tsign = _mm512_set1_epi32(-(((b >> 15) & 1) as i32));
        let r = _mm512_min_epi32(_mm512_add_epi32(t, row), max_mag);
        let keep = _mm512_cmpgt_epi32_mask(r, below);
        let mag = _mm512_maskz_mov_epi32(keep, r);
        let s = _mm512_xor_si512(tsign, sg);
        let val = _mm512_slli_epi32::<2>(_mm512_or_si512(_mm512_and_si512(mag, man), hidden));
        let inc = _mm512_maskz_sub_epi32(keep, _mm512_xor_si512(val, s), s);
        let entry = _mm512_or_si512(
            _mm512_slli_epi32::<16>(_mm512_srli_epi32::<10>(mag)),
            _mm512_and_si512(inc, low16),
        );
        _mm512_storeu_si512(d, entry);
    }
}

/// Scalar reference for [`finish_fp16`]: one accumulator lane's
/// `NormUnit::normalize` → `AxScale::apply` → FP16 decode, for FP16
/// results.
///
/// Normalization rounds `|sig|` to 11 significant bits, ties to even,
/// with the mantissa carry rolling into the exponent; the exponent
/// field `exp + msb − 12` (+ carry) flushes to a signed zero at ≤ 0 and
/// saturates to `0x7bff` above 30. AxScale is the FPMA multiply
/// `o + s − (15 << 10) + c2` on the two magnitudes, with the same
/// flush/saturate clamp, a signed zero when either operand is zero, and
/// the sign `sign(sig) ^ sign(scale)` (a zero accumulator counts as
/// positive). The FP16 result is widened to `f32` exactly.
///
/// Integer steps wrap in i32 like the vector kernel's lanes, so the two
/// agree on every input; the engine's lanes (`exp` an FP16 exponent,
/// `|sig| ≤ 2^31`) never come near the wrap.
pub fn scalar_finish_fp16(sig: i32, exp: i32, scale: u16, c2: i32) -> f32 {
    let a = sig.unsigned_abs();
    let o = if a == 0 {
        0
    } else {
        let p = 31 - a.leading_zeros() as i32;
        let drop = p - MAN_BITS as i32;
        let r = if drop > 0 { rne_shift(a, drop as u32) } else { a << -drop };
        // (e << 10) | (r − 1024) with the RNE carry (r == 2048) rolling
        // into the exponent field.
        let m = (exp.wrapping_add(p - FRAC_BITS) << MAN_BITS)
            .wrapping_add(r as i32)
            .wrapping_sub(MIN_NORMAL);
        if m < MIN_NORMAL {
            0
        } else {
            m.min(MAX_MAG)
        }
    };
    let sign = (((sig < 0) as u32) << 15) ^ (scale as u32 & 0x8000);
    let s = (scale & 0x7fff) as i32;
    let mag = if o == 0 || s == 0 {
        0
    } else {
        let r = o.wrapping_add(s).wrapping_add(c2.wrapping_sub(BIAS_UNITS));
        if r < MIN_NORMAL {
            0
        } else {
            r.min(MAX_MAG)
        }
    };
    let f = if mag == 0 { 0 } else { (mag as u32 + REBIAS_F16) << 13 };
    f32::from_bits((sign << 16) | f)
}

/// Finish eight accumulator lanes — one row's `(sig, exp)` as the fold
/// returns them — into `f32` group partials and add them into `out`:
/// `out[l] += scalar_finish_fp16(sig[l], exp[l], scales[l], c2)`,
/// bit-identical to that reference, running the AVX2 kernel when the
/// CPU has AVX2.
pub fn finish_fp16(
    sig: &[i32; 8],
    exp: &[i32; 8],
    scales: &[u16; 8],
    c2: i32,
    out: &mut [f32; 8],
) {
    finish_on(Body::for_lanes::<8>(), sig, exp, scales, c2, out);
}

/// [`finish_fp16`] on a named body and 8 or 16 lanes — the self-test
/// and the tests check each body through this; the fused fold runs the
/// same kernels on its registers.
///
/// # Panics
///
/// Unless the CPU has `body`'s instruction set and, for the AVX-512
/// body, `L == 16`.
pub(crate) fn finish_on<const L: usize>(
    body: Body,
    sig: &[i32; L],
    exp: &[i32; L],
    scales: &[u16; L],
    c2: i32,
    out: &mut [f32; L],
) {
    const { assert!(L == 8 || L == 16, "a finish takes 8 or 16 lanes") };
    assert!(body.runs::<L>(), "{body:?} cannot finish {L} lanes here");
    match body {
        #[cfg(target_arch = "x86_64")]
        Body::Avx512 => {
            // `runs` admits this body only at 16 lanes, so every
            // conversion below is 16 long and cannot fail.
            #[allow(clippy::unwrap_used)]
            let (scales, out): (&[u16; 16], &mut [f32; 16]) = (
                scales[..].try_into().unwrap(),
                (&mut out[..]).try_into().unwrap(),
            );
            // SAFETY: AVX-512F confirmed by `runs`; `sig` and `exp` hold
            // 16 lanes each.
            unsafe {
                use std::arch::x86_64::*;
                let s = _mm512_loadu_si512(sig.as_ptr() as *const __m512i);
                let e = _mm512_loadu_si512(exp.as_ptr() as *const __m512i);
                avx512_finish_add(s, e, scales, c2, out);
            }
        }
        #[cfg(target_arch = "x86_64")]
        Body::Avx2 => {
            for h in 0..L / 8 {
                // Each half is exactly 8 long, so the conversions cannot
                // fail.
                #[allow(clippy::unwrap_used)]
                let (scales, out): (&[u16; 8], &mut [f32; 8]) = (
                    scales[8 * h..8 * h + 8].try_into().unwrap(),
                    (&mut out[8 * h..8 * h + 8]).try_into().unwrap(),
                );
                // SAFETY: AVX2 confirmed by `runs`; lanes `8h..8h + 8` of
                // `sig` and `exp` exist (`L` is 8 or 16).
                unsafe {
                    use std::arch::x86_64::*;
                    let s = _mm256_loadu_si256(sig.as_ptr().add(8 * h) as *const __m256i);
                    let e = _mm256_loadu_si256(exp.as_ptr().add(8 * h) as *const __m256i);
                    avx2_finish_add(s, e, scales, c2, out);
                }
            }
        }
        _ => {
            for l in 0..L {
                out[l] += scalar_finish_fp16(sig[l], exp[l], scales[l], c2);
            }
        }
    }
}

/// [`crate::fold_rows`] with the [`finish_fp16`] epilogue fused on: fold
/// one group × `L` columns (8 or 16) for a block of `rows` activation
/// rows, then normalize, AxScale and widen each row's lanes and add them
/// into that row's outputs, `out[r * out_stride..r * out_stride + L]`.
/// The columns' `scales` serve every row. The body is the one
/// [`crate::fold_rows`] picks; on the vector bodies the accumulator
/// lanes never leave vector registers. Bit-identical to `fold_rows`
/// followed by [`scalar_finish_fp16`] per lane (the vector fold's `exp`
/// may differ on `sig == 0` lanes, which the finish maps to the same
/// signed zero whatever their anchor).
///
/// # Panics
///
/// Panics on [`crate::fold_rows`]'s bounds violations, or unless every
/// row's `L` outputs lie inside `out`.
#[allow(clippy::too_many_arguments)]
pub fn fold_rows_finish_fp16<const L: usize>(
    table: &[i32],
    row_stride: usize,
    rows: usize,
    bases: &[i32; L],
    planes: &[u8],
    offsets: &[usize; L],
    seg_len: usize,
    scales: &[u16; L],
    c2: i32,
    out: &mut [f32],
    out_stride: usize,
) {
    let body = Body::for_fold::<L>(seg_len);
    let (t, rs, p, sl) = (table, row_stride, planes, seg_len);
    fold_rows_finish_on(
        body, t, rs, rows, bases, p, offsets, sl, scales, c2, out, out_stride,
    );
}

/// [`fold_rows_finish_fp16`] on a named body — the self-test and the
/// tests check each body through this.
///
/// # Panics
///
/// As [`fold_rows_finish_fp16`], or unless `body` can fold this tile
/// here.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fold_rows_finish_on<const L: usize>(
    body: Body,
    table: &[i32],
    row_stride: usize,
    rows: usize,
    bases: &[i32; L],
    planes: &[u8],
    offsets: &[usize; L],
    seg_len: usize,
    scales: &[u16; L],
    c2: i32,
    out: &mut [f32],
    out_stride: usize,
) {
    crate::check_fold_bounds(table, row_stride, rows, bases, planes, offsets, seg_len);
    assert!(
        body.folds::<L>(seg_len),
        "{body:?} cannot fold {L} lanes of {seg_len} bytes here"
    );
    assert!(
        (rows - 1).saturating_mul(out_stride).saturating_add(L) <= out.len(),
        "{rows} rows of {L} outputs at stride {out_stride} escape out of {}",
        out.len()
    );
    let (t, rs, p, sl) = (table, row_stride, planes, seg_len);
    match body {
        #[cfg(target_arch = "x86_64")]
        Body::Avx512 => {
            crate::note_wide_fold();
            let units = crate::LaneUnits::of(bases);
            let o: [usize; 16] = std::array::from_fn(|l| offsets[l]);
            let sc: [u16; 16] = std::array::from_fn(|l| scales[l]);
            // SAFETY: AVX-512F confirmed by `folds`; `seg_len` is a
            // multiple of 8 and every code and table segment was
            // bounds-checked above — `avx512_fold`'s contract.
            unsafe {
                with_rows!(
                    rows,
                    avx512_fold_finish(t, rs, &units, p, &o, sl, &sc, c2, out, out_stride)
                )
            }
        }
        #[cfg(target_arch = "x86_64")]
        Body::Avx2 => {
            for h in 0..L / 8 {
                let units = crate::LaneUnits::of(&bases[8 * h..8 * h + 8]);
                let o: [usize; 8] = std::array::from_fn(|l| offsets[8 * h + l]);
                let sc: [u16; 8] = std::array::from_fn(|l| scales[8 * h + l]);
                let out = &mut out[8 * h..];
                // SAFETY: AVX2 confirmed by `folds`; `seg_len` is a
                // multiple of 8 and every code and table segment was
                // bounds-checked above — `avx2_fold`'s contract.
                unsafe {
                    with_rows!(
                        rows,
                        avx2_fold_finish(t, rs, &units, p, &o, sl, &sc, c2, out, out_stride)
                    )
                }
            }
        }
        _ => {
            let (sig, exp) = crate::fold_rows_on(body, t, rs, rows, bases, p, offsets, sl);
            for r in 0..rows {
                for l in 0..L {
                    out[r * out_stride + l] +=
                        scalar_finish_fp16(sig[r][l], exp[r][l], scales[l], c2);
                }
            }
        }
    }
}

/// [`fold_rows_finish_fp16`]'s AVX2 body for `R` rows of one 8-lane
/// tile: the fold, then [`avx2_finish_add`] on each row's lanes
/// straight from registers.
///
/// # Safety
///
/// `crate::avx2_fold`'s contract; the row outputs are slice-checked.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn avx2_fold_finish<const R: usize>(
    table: &[i32],
    row_stride: usize,
    units: &crate::LaneUnits,
    planes: &[u8],
    offsets: &[usize; 8],
    seg_len: usize,
    scales: &[u16; 8],
    c2: i32,
    out: &mut [f32],
    out_stride: usize,
) {
    let (sig, exp) = if units.is_mixed() {
        crate::avx2_fold::<R, true>(table, row_stride, units, planes, offsets, seg_len)
    } else {
        crate::avx2_fold::<R, false>(table, row_stride, units, planes, offsets, seg_len)
    };
    for r in 0..R {
        let o = r * out_stride;
        // The slice is exactly 8 long, so the conversion cannot fail.
        #[allow(clippy::unwrap_used)]
        let row: &mut [f32; 8] = (&mut out[o..o + 8]).try_into().unwrap();
        avx2_finish_add(sig[r], exp[r], scales, c2, row);
    }
}

/// [`fold_rows_finish_fp16`]'s AVX-512 body for `R` rows of one 16-lane
/// tile: the fold, then [`avx512_finish_add`] on each row's lanes
/// straight from registers.
///
/// # Safety
///
/// `crate::avx512_fold`'s contract; the row outputs are slice-checked.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn avx512_fold_finish<const R: usize>(
    table: &[i32],
    row_stride: usize,
    units: &crate::LaneUnits,
    planes: &[u8],
    offsets: &[usize; 16],
    seg_len: usize,
    scales: &[u16; 16],
    c2: i32,
    out: &mut [f32],
    out_stride: usize,
) {
    let (sig, exp) = if units.is_mixed() {
        crate::avx512_fold::<R, true>(table, row_stride, units, planes, offsets, seg_len)
    } else {
        crate::avx512_fold::<R, false>(table, row_stride, units, planes, offsets, seg_len)
    };
    for r in 0..R {
        let o = r * out_stride;
        // The slice is exactly 16 long, so the conversion cannot fail.
        #[allow(clippy::unwrap_used)]
        let row: &mut [f32; 16] = (&mut out[o..o + 16]).try_into().unwrap();
        avx512_finish_add(sig[r], exp[r], scales, c2, row);
    }
}

/// [`avx2_finish_add`] on sixteen lanes: the same steps, each compare
/// that the AVX2 form keeps as a lane mask held in a mask register (a
/// blend becomes a masked move, an `and` with a compare a zero-masking
/// move), so every lane computes what the AVX2 finish computes.
///
/// # Safety
///
/// Caller must guarantee AVX-512F is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn avx512_finish_add(
    sig: std::arch::x86_64::__m512i,
    exp: std::arch::x86_64::__m512i,
    scales: &[u16; 16],
    c2: i32,
    out: &mut [f32; 16],
) {
    use std::arch::x86_64::*;
    let zero = _mm512_setzero_si512();
    let one = _mm512_set1_epi32(1);
    let below = _mm512_set1_epi32(MIN_NORMAL - 1);
    let max_mag = _mm512_set1_epi32(MAX_MAG);
    let sign_bit = _mm512_set1_epi32(0x8000);
    // Normalize.
    let nonzero = _mm512_test_epi32_mask(sig, sig);
    let neg = _mm512_srai_epi32::<31>(sig);
    let a = _mm512_abs_epi32(sig);
    let big = _mm512_test_epi32_mask(_mm512_srli_epi32::<24>(a), _mm512_set1_epi32(0xff));
    let x = _mm512_mask_mov_epi32(a, big, _mm512_srli_epi32::<8>(a));
    let fx = _mm512_castps_si512(_mm512_cvtepi32_ps(x));
    let p0 = _mm512_sub_epi32(_mm512_srli_epi32::<23>(fx), _mm512_set1_epi32(127));
    let p = _mm512_mask_add_epi32(p0, big, p0, _mm512_set1_epi32(8));
    let drop = _mm512_sub_epi32(p, _mm512_set1_epi32(MAN_BITS as i32));
    let rsh = _mm512_max_epi32(drop, zero);
    let lsh = _mm512_max_epi32(_mm512_sub_epi32(zero, drop), zero);
    let lsb = _mm512_and_si512(_mm512_srlv_epi32(a, rsh), one);
    let half = _mm512_srli_epi32::<1>(_mm512_sllv_epi32(one, rsh));
    let rnd = _mm512_max_epi32(_mm512_add_epi32(_mm512_sub_epi32(half, one), lsb), zero);
    let r = _mm512_sllv_epi32(_mm512_srlv_epi32(_mm512_add_epi32(a, rnd), rsh), lsh);
    let e = _mm512_add_epi32(exp, _mm512_sub_epi32(p, _mm512_set1_epi32(FRAC_BITS)));
    let m = _mm512_sub_epi32(
        _mm512_add_epi32(_mm512_slli_epi32::<10>(e), r),
        _mm512_set1_epi32(MIN_NORMAL),
    );
    let live = _mm512_mask_cmpgt_epi32_mask(nonzero, m, below);
    let o = _mm512_maskz_mov_epi32(live, _mm512_min_epi32(m, max_mag));
    // AxScale (FPMA multiply by the FP16 scale).
    let sc = _mm512_cvtepu16_epi32(_mm256_loadu_si256(scales.as_ptr() as *const __m256i));
    let s = _mm512_and_si512(sc, _mm512_set1_epi32(0x7fff));
    let sign = _mm512_xor_si512(
        _mm512_and_si512(neg, sign_bit),
        _mm512_and_si512(sc, sign_bit),
    );
    let r2 = _mm512_add_epi32(
        _mm512_add_epi32(o, s),
        _mm512_set1_epi32(c2.wrapping_sub(BIAS_UNITS)),
    );
    let operands = _mm512_mask_cmpgt_epi32_mask(
        _mm512_mask_test_epi32_mask(_mm512_test_epi32_mask(o, o), s, s),
        r2,
        below,
    );
    let mag = _mm512_maskz_mov_epi32(operands, _mm512_min_epi32(r2, max_mag));
    // Widen FP16 → f32 (normal or zero), then accumulate.
    let f = _mm512_maskz_mov_epi32(
        operands,
        _mm512_slli_epi32::<13>(_mm512_add_epi32(mag, _mm512_set1_epi32(REBIAS_F16 as i32))),
    );
    let v = _mm512_castsi512_ps(_mm512_or_si512(f, _mm512_slli_epi32::<16>(sign)));
    let acc = _mm512_loadu_ps(out.as_ptr());
    _mm512_storeu_ps(out.as_mut_ptr(), _mm512_add_ps(acc, v));
}

/// The [`finish_fp16`] epilogue on eight lanes held in registers.
///
/// Bit-identity with [`scalar_finish_fp16`]: the leading-one position
/// comes from the exponent of an exact i32 → f32 conversion (lanes of
/// `|sig| ≥ 2^24` are converted after a right shift by 8, so no
/// conversion rounds up a binade); rounding is the reference's
/// `rne_shift` with the shift split into a right part (`vpsrlvd`, its
/// bias masked to 0 when the shift is 0) and a left part (`vpsllvd`);
/// every other step is the reference's wrapping i32 arithmetic and its
/// clamps as min/compare masks. `sig == 0` lanes are forced to a zero
/// magnitude, which also discards whatever their conversion produced.
/// The `f32` add is the same IEEE single add the scalar `+=` performs.
///
/// # Safety
///
/// Caller must guarantee AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn avx2_finish_add(
    sig: std::arch::x86_64::__m256i,
    exp: std::arch::x86_64::__m256i,
    scales: &[u16; 8],
    c2: i32,
    out: &mut [f32; 8],
) {
    use std::arch::x86_64::*;
    let zero = _mm256_setzero_si256();
    let one = _mm256_set1_epi32(1);
    let min_normal = _mm256_set1_epi32(MIN_NORMAL);
    let below = _mm256_set1_epi32(MIN_NORMAL - 1);
    let max_mag = _mm256_set1_epi32(MAX_MAG);
    let sign_bit = _mm256_set1_epi32(0x8000);
    // Normalize.
    let dead = _mm256_cmpeq_epi32(sig, zero);
    let neg = _mm256_srai_epi32::<31>(sig);
    let a = _mm256_abs_epi32(sig);
    let big = _mm256_cmpgt_epi32(_mm256_srli_epi32::<24>(a), zero);
    let x = _mm256_blendv_epi8(a, _mm256_srli_epi32::<8>(a), big);
    let fx = _mm256_castps_si256(_mm256_cvtepi32_ps(x));
    let p = _mm256_add_epi32(
        _mm256_sub_epi32(_mm256_srli_epi32::<23>(fx), _mm256_set1_epi32(127)),
        _mm256_and_si256(big, _mm256_set1_epi32(8)),
    );
    let drop = _mm256_sub_epi32(p, _mm256_set1_epi32(MAN_BITS as i32));
    let rsh = _mm256_max_epi32(drop, zero);
    let lsh = _mm256_max_epi32(_mm256_sub_epi32(zero, drop), zero);
    let lsb = _mm256_and_si256(_mm256_srlv_epi32(a, rsh), one);
    let half = _mm256_srli_epi32::<1>(_mm256_sllv_epi32(one, rsh));
    let rnd = _mm256_max_epi32(_mm256_add_epi32(_mm256_sub_epi32(half, one), lsb), zero);
    let r = _mm256_sllv_epi32(_mm256_srlv_epi32(_mm256_add_epi32(a, rnd), rsh), lsh);
    let e = _mm256_add_epi32(exp, _mm256_sub_epi32(p, _mm256_set1_epi32(FRAC_BITS)));
    let m = _mm256_sub_epi32(_mm256_add_epi32(_mm256_slli_epi32::<10>(e), r), min_normal);
    let live = _mm256_andnot_si256(dead, _mm256_cmpgt_epi32(m, below));
    let o = _mm256_and_si256(_mm256_min_epi32(m, max_mag), live);
    // AxScale (FPMA multiply by the FP16 scale).
    let sc = _mm256_cvtepu16_epi32(_mm_loadu_si128(scales.as_ptr() as *const __m128i));
    let s = _mm256_and_si256(sc, _mm256_set1_epi32(0x7fff));
    let sign = _mm256_xor_si256(_mm256_and_si256(neg, sign_bit), _mm256_and_si256(sc, sign_bit));
    let r2 = _mm256_add_epi32(
        _mm256_add_epi32(o, s),
        _mm256_set1_epi32(c2.wrapping_sub(BIAS_UNITS)),
    );
    let operands = _mm256_andnot_si256(
        _mm256_or_si256(_mm256_cmpeq_epi32(o, zero), _mm256_cmpeq_epi32(s, zero)),
        _mm256_cmpgt_epi32(r2, below),
    );
    let mag = _mm256_and_si256(_mm256_min_epi32(r2, max_mag), operands);
    // Widen FP16 → f32 (normal or zero), then accumulate.
    let f = _mm256_and_si256(
        _mm256_slli_epi32::<13>(_mm256_add_epi32(mag, _mm256_set1_epi32(REBIAS_F16 as i32))),
        operands,
    );
    let v = _mm256_castsi256_ps(_mm256_or_si256(f, _mm256_slli_epi32::<16>(sign)));
    let acc = _mm256_loadu_ps(out.as_ptr());
    _mm256_storeu_ps(out.as_mut_ptr(), _mm256_add_ps(acc, v));
}

/// One-shot check of the FP16 kernels against their scalar references
/// on fixed patterns, run by [`crate::self_test`]: encode, and the
/// table build and the finish on each body the CPU has (AVX2, and
/// AVX-512 at 16 lanes). Calls the bodies directly, never a
/// dispatching entry point.
pub(crate) fn self_check() -> bool {
    // Encode: specials, both ranges, the saturation edge and ties.
    let xs: Vec<f32> = [
        0.0f32, -0.0, 1.0, -1.5, 65504.0, 65520.0, -70000.0, f32::INFINITY, f32::NAN,
        6.0e-5, -3.0e-8, 2.98e-8, 1.0e-40, 0.33333334,
    ]
    .into_iter()
    .chain((0..18u32).map(|i| {
        f32::from_bits(0x3300_0000 + i.wrapping_mul(0x0123_4567) % 0x1480_0000)
    }))
    .collect();
    let mut got = vec![0u32; xs.len()];
    encode_fp16(&xs, &mut got);
    let encode_ok = xs.iter().zip(&got).all(|(&x, &g)| scalar_encode_fp16(x) == g);

    // Build: a mixed row of terms (zero, both tie variants, both signs)
    // against addends that flush, saturate and land in range.
    let bits = [0u32, 0x8000, 0x3c00, 0xbe00, 0x0201, 0x7bff, 0x1234, 0xc3ff];
    let addends: Vec<i64> = (0..32i64)
        .map(|i| match i % 5 {
            0 => i64::MIN / 4,
            1 => 1 << 40,
            _ => (i * 911) % 0x4000 - 0x2000,
        })
        .collect();
    let signs: Vec<i64> = (0..16).map(|i| -((i % 3 == 0) as i64)).collect();
    let mut want = vec![0i32; 128];
    scalar_build_rows_fp16(&bits, -37, &addends, &signs, &mut want);
    let build_ok = [Body::Avx2, Body::Avx512].iter().all(|&body| {
        if !body.available() {
            return true;
        }
        let mut have = vec![0i32; 128];
        build_rows_on(body, &bits, -37, &addends, &signs, &mut have);
        want == have
    });

    // Finish: lanes across flush, round, carry, binade and saturation,
    // eight lanes on the AVX2 body and sixteen on the AVX-512 one.
    let sig = [
        0,
        1,
        -1,
        4095,
        2047 << 4,
        -(1 << 30),
        0x7fff_ffff,
        3 << 9,
        i32::MIN,
        (1 << 24) - 1,
        -(1 << 24),
        (0x7ff << 5) | 0x10,
        (0x401 << 2) | 2,
        -3,
        1 << 12,
        0x00ff_ffff,
    ];
    let exp = [5, 0, 30, 17, 29, 3, 30, 1, 12, -12, 40, 15, 0, 31, 15, 3];
    let scales = [
        0x3c00, 0x8001, 0x7bff, 0x0400, 0xb555, 0x0000, 0x2e66, 0xfc00, 0x3c00, 0x0001, 0xfbff,
        0x8400, 0x3555, 0x8000, 0x2bff, 0x7c00,
    ];
    let finish_ok = |body: Body, lanes: usize| {
        let mut out = [0.25f32; 16];
        if lanes == 16 {
            finish_on(body, &sig, &exp, &scales, 29, &mut out);
        } else {
            let (s8, e8, c8): ([i32; 8], [i32; 8], [u16; 8]) = (
                std::array::from_fn(|l| sig[l]),
                std::array::from_fn(|l| exp[l]),
                std::array::from_fn(|l| scales[l]),
            );
            let mut o8 = [0.25f32; 8];
            finish_on(body, &s8, &e8, &c8, 29, &mut o8);
            out[..8].copy_from_slice(&o8);
        }
        (0..lanes).all(|l| {
            let want = 0.25f32 + scalar_finish_fp16(sig[l], exp[l], scales[l], 29);
            want.to_bits() == out[l].to_bits()
        })
    };
    let finish_ok = (!Body::Avx2.available() || finish_ok(Body::Avx2, 8))
        && (!Body::Avx512.available() || finish_ok(Body::Avx512, 16));
    encode_ok && build_ok && finish_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    /// The f32 images of every FP16 value, the midpoints between
    /// neighbours and the midpoints ± one f32 ulp — every rounding
    /// boundary the encoder has.
    fn encode_probes() -> Vec<f32> {
        let mut xs = Vec::new();
        for h in 0u32..0x7c00 {
            let v = f16_to_f32(h);
            let next = if h == 0x7bff { 65536.0 } else { f16_to_f32(h + 1) };
            let mid = ((v as f64 + next as f64) / 2.0) as f32;
            let below = f32::from_bits(mid.to_bits() - 1);
            let above = f32::from_bits(mid.to_bits() + 1);
            for x in [v, mid, below, above] {
                xs.push(x);
                xs.push(-x);
            }
        }
        xs
    }

    /// Exact FP16 → f32 for finite patterns (test-local helper).
    fn f16_to_f32(h: u32) -> f32 {
        let e = (h >> 10) & 0x1f;
        let m = h & 0x3ff;
        let v = if e == 0 {
            m as f32 * 2f32.powi(-24)
        } else {
            (1.0 + m as f32 / 1024.0) * 2f32.powi(e as i32 - 15)
        };
        if h & 0x8000 != 0 {
            -v
        } else {
            v
        }
    }

    #[test]
    fn encode_vector_matches_reference_on_every_boundary() {
        let mut xs = encode_probes();
        xs.extend([f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY, f32::MAX, f32::MIN]);
        xs.extend((1..4096u32).map(|i| f32::from_bits(i * 2047))); // f32 subnormals
        let mut rng = Rng(0x5eed_f00d_1234_5678);
        xs.extend((0..1 << 16).map(|_| f32::from_bits(rng.next() as u32)));
        // Odd length so the scalar tail runs too.
        xs.push(0.1);
        let mut got = vec![0u32; xs.len()];
        encode_fp16(&xs, &mut got);
        for (&x, &g) in xs.iter().zip(&got) {
            assert_eq!(g, scalar_encode_fp16(x), "x = {x:e} ({:#010x})", x.to_bits());
        }
    }

    #[test]
    fn encode_reference_spot_values() {
        assert_eq!(scalar_encode_fp16(1.0), 0x3c00);
        assert_eq!(scalar_encode_fp16(-0.0), 0x8000);
        assert_eq!(scalar_encode_fp16(65504.0), 0x7bff);
        assert_eq!(scalar_encode_fp16(65520.0), 0x7bff);
        assert_eq!(scalar_encode_fp16(f32::NEG_INFINITY), 0xfbff);
        assert_eq!(scalar_encode_fp16(-f32::NAN), 0x7e00);
        assert_eq!(scalar_encode_fp16(2f32.powi(-24)), 0x0001);
        assert_eq!(scalar_encode_fp16(2f32.powi(-25)), 0x0000); // tie → even (0)
        assert_eq!(scalar_encode_fp16(-1.5 * 2f32.powi(-24)), 0x8002); // tie → even (2)
        assert_eq!(scalar_encode_fp16(2f32.powi(-14) * (1.0 - 2f32.powi(-12))), 0x0400);
    }

    fn random_rows(rng: &mut Rng) -> (Vec<i64>, Vec<i64>) {
        let addends = (0..32)
            .map(|_| match rng.next() % 8 {
                0 => i64::MIN / 4, // a zero lane variant
                1 => (rng.next() >> 8) as i64 - (1 << 55),
                2 => ADDEND_CLAMP + (rng.next() % 3) as i64 - 1,
                3 => -ADDEND_CLAMP + (rng.next() % 3) as i64 - 1,
                _ => (rng.next() % 0x10000) as i64 - 0x8000,
            })
            .collect();
        let signs = (0..16).map(|_| -((rng.next() & 1) as i64)).collect();
        (addends, signs)
    }

    #[test]
    fn build_vector_matches_reference() {
        let mut rng = Rng(0xb111_d000_c0de_0001);
        let bodies = build_bodies("build_vector_matches_reference");
        for trial in 0..200 {
            let len = 1 + trial % 67;
            let bits: Vec<u32> = (0..len)
                .map(|i| match (rng.next() % 6, i) {
                    (0, _) => 0,      // Guard zero
                    (1, _) => 0x8000, // negative zero
                    _ => rng.next() as u32 & 0xffff,
                })
                .collect();
            let (addends, signs) = random_rows(&mut rng);
            let c1 = (rng.next() % 4001) as i32 - 2000;
            let mut want = vec![0i32; len * 16];
            scalar_build_rows_fp16(&bits, c1, &addends, &signs, &mut want);
            for &body in &bodies {
                let mut got = vec![7i32; len * 16];
                build_rows_on(body, &bits, c1, &addends, &signs, &mut got);
                assert_eq!(want, got, "{body:?} trial {trial}");
            }
            let mut got = vec![7i32; len * 16];
            build_rows_fp16(&bits, c1, &addends, &signs, &mut got);
            assert_eq!(want, got, "dispatch trial {trial}");
        }
    }

    #[test]
    fn build_vector_matches_reference_on_every_activation() {
        // Every FP16 pattern (both tie variants, Guard zeros, NaN/∞
        // patterns) through one random unit row.
        let mut rng = Rng(0x0dd_ba11);
        let bits: Vec<u32> = (0..=0xffffu32).collect();
        let (addends, signs) = random_rows(&mut rng);
        let mut want = vec![0i32; bits.len() * 16];
        scalar_build_rows_fp16(&bits, 83, &addends, &signs, &mut want);
        for body in build_bodies("build_vector_matches_reference_on_every_activation") {
            let mut got = vec![0i32; bits.len() * 16];
            build_rows_on(body, &bits, 83, &addends, &signs, &mut got);
            assert!(want == got, "{body:?} build differs from the reference");
        }
    }

    /// The vector table-build bodies this CPU runs; each absent one
    /// prints a skip line.
    fn build_bodies(test: &str) -> Vec<Body> {
        crate::tests::vector_bodies::<16>(test)
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn build_rejects_wide_compensation() {
        let mut out = vec![0i32; 16];
        build_rows_fp16(&[0x3c00], 1 << 20, &[0; 32], &[0; 16], &mut out);
    }

    /// Accumulator edge states: zero, ±1, 2^j − 1 and 2^j, RNE ties both
    /// ways, carry-out, and anchors from deep flush to past saturation.
    fn edge_lanes() -> Vec<(i32, i32)> {
        let mut sigs = vec![0i32, 1, -1, i32::MAX, i32::MIN + 1, i32::MIN];
        for j in 1..31 {
            sigs.extend([(1 << j) - 1, 1 << j, -(1 << j), 1 - (1 << j)]);
        }
        // Ties (a dropped half) at drop = 2, 3 and 5: an even significand
        // (rounds down), an odd one (rounds up), and all-ones
        // significands whose round carries out.
        sigs.extend([(0x400 << 2) | 2, (0x401 << 2) | 2, (0x7ff << 5) | 0x10]);
        sigs.extend([(0x400 << 5) | 0x10, -((0x401 << 5) | 0x10), (0x7ff << 3) | 4]);
        let mut lanes = Vec::new();
        for &s in &sigs {
            for e in [-40, -12, 0, 1, 3, 12, 15, 30, 31, 40, 1 << 20] {
                lanes.push((s, e));
            }
        }
        lanes
    }

    #[test]
    fn finish_vector_matches_reference_on_every_scale() {
        // The AVX2 body on 8-lane chunks, the AVX-512 body on 16-lane
        // ones: every edge lane meets every scale on each body.
        finish_matches_reference_at::<8>(Body::Avx2);
        finish_matches_reference_at::<16>(Body::Avx512);
    }

    fn finish_matches_reference_at<const L: usize>(body: Body) {
        if !body.available() {
            println!("finish_vector_matches_reference_on_every_scale: skipped the {body:?} body at {L} lanes (CPU feature absent)");
            return;
        }
        let lanes = edge_lanes();
        for c2 in [0, 29, -13] {
            for (li, chunk) in lanes.chunks(L).enumerate() {
                if chunk.len() < L {
                    continue;
                }
                let sig: [i32; L] = std::array::from_fn(|l| chunk[l].0);
                let exp: [i32; L] = std::array::from_fn(|l| chunk[l].1);
                // Every lane sees all 65 536 scale patterns, each vector
                // mixing signs and binades across its lanes.
                for base in 0..=0xffffu32 {
                    let scales: [u16; L] =
                        std::array::from_fn(|l| (base + (l as u32 * 8191 + li as u32)) as u16);
                    let mut out = [0.0f32; L];
                    finish_on(body, &sig, &exp, &scales, c2, &mut out);
                    for l in 0..L {
                        let want = scalar_finish_fp16(sig[l], exp[l], scales[l], c2);
                        assert_eq!(
                            out[l].to_bits(),
                            (0.0f32 + want).to_bits(),
                            "{body:?} sig {} exp {} scale {:#06x} c2 {c2}",
                            sig[l],
                            exp[l],
                            scales[l]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn finish_accumulates_into_existing_outputs() {
        let sig = [1 << 12; 8];
        let exp = [15; 8];
        let scales = [0x3c00u16; 8];
        let mut out = [1.0f32, -1.0, 0.5, 0.0, -0.0, 2.0, 3.0, -4.0];
        let before = out;
        finish_fp16(&sig, &exp, &scales, 0, &mut out);
        for l in 0..8 {
            assert_eq!(out[l], before[l] + 1.0, "lane {l}");
        }
    }

    /// The fused fold + finish on every vector body of `L`-lane tiles
    /// against the same body's fold followed by the scalar finish.
    fn fused_equals_split_at<const L: usize>(lane_units: [[usize; L]; 3], seed: u64) {
        let mut rng = Rng(seed);
        let bodies = crate::tests::vector_bodies::<L>("fused_fold_equals_fold_then_finish");
        for trial in 0..40 {
            let seg_len = 8 * (1 + trial % 4);
            let units = 3;
            let stride = units * seg_len * 32;
            let table: Vec<i32> = (0..crate::FOLD_ROWS * stride)
                .map(|_| {
                    let r = rng.next();
                    if r.is_multiple_of(5) {
                        return 0;
                    }
                    // Real entry shape: exponent 1..=30, |inc| = 1.M << 2.
                    let exp = 1 + (r >> 8) % 30;
                    let val = (((r >> 16) % 0x400) as i32 | 0x400) << 2;
                    let inc = if r & 1 == 0 { val } else { -val };
                    ((exp as i32) << 16) | (inc & 0xffff)
                })
                .collect();
            let plane_len = 2 * seg_len;
            let planes: Vec<u8> = (0..L * plane_len).map(|_| rng.next() as u8).collect();
            let lane_unit = lane_units[trial % 3];
            let bases: [i32; L] = std::array::from_fn(|l| (lane_unit[l] * seg_len * 32) as i32);
            let offsets: [usize; L] = std::array::from_fn(|l| l * plane_len + seg_len / 2);
            let scales: [u16; L] = std::array::from_fn(|_| rng.next() as u16);
            // Row outputs at a stride wider than the tile, pre-filled, so
            // the fused form must add into exactly its own slots.
            let out_stride = L + 3 * (trial % 2);
            for &body in &bodies {
                for rows in 1..=crate::FOLD_ROWS {
                    let fill: Vec<f32> = (0..rows * out_stride).map(|i| i as f32 * 0.25).collect();
                    let mut fused = fill.clone();
                    fold_rows_finish_on(
                        body, &table, stride, rows, &bases, &planes, &offsets, seg_len, &scales,
                        29, &mut fused, out_stride,
                    );
                    let (sig, exp) = crate::fold_rows_on(
                        body, &table, stride, rows, &bases, &planes, &offsets, seg_len,
                    );
                    let mut split = fill.clone();
                    for r in 0..rows {
                        for l in 0..L {
                            split[r * out_stride + l] +=
                                scalar_finish_fp16(sig[r][l], exp[r][l], scales[l], 29);
                        }
                    }
                    assert_eq!(
                        fused.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        split.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "{body:?} trial {trial} rows {rows}"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_fold_equals_fold_then_finish() {
        // Lane → unit maps with 1, 2 and 3 distinct units.
        fused_equals_split_at::<8>(
            [[0; 8], [0, 0, 0, 0, 1, 1, 1, 1], [2, 2, 0, 0, 1, 1, 2, 2]],
            0xf05e_d000_0000_0001,
        );
        fused_equals_split_at::<16>(
            [
                [0; 16],
                [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1],
                [2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2],
            ],
            0xf05e_d000_0000_0016,
        );
    }

    #[test]
    #[should_panic(expected = "escape out")]
    fn fused_fold_rejects_short_outputs() {
        let planes = vec![0u8; 64];
        let offsets: [usize; 8] = std::array::from_fn(|l| l * 8);
        let mut out = vec![0f32; 8 + 7];
        fold_rows_finish_fp16(
            &[0; 512], 256, 2, &[0; 8], &planes, &offsets, 8, &[0; 8], 0, &mut out, 8,
        );
    }

    #[test]
    #[should_panic(expected = "escape out")]
    fn sixteen_lane_fused_fold_rejects_short_outputs() {
        let planes = vec![0u8; 128];
        let offsets: [usize; 16] = std::array::from_fn(|l| l * 8);
        let mut out = vec![0f32; 16 + 15];
        fold_rows_finish_fp16(
            &[0; 512], 256, 2, &[0; 16], &planes, &offsets, 8, &[0; 16], 0, &mut out, 16,
        );
    }

    #[test]
    fn self_check_passes_on_healthy_hardware() {
        assert!(self_check());
    }
}
