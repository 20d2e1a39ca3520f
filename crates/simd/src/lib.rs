//! The one unsafe corner of the workspace: the AVX2 kernels for the
//! prepared decode hot loops in `axcore::engines` — the packed-plane
//! LUT gather (`vpgatherdd`), the FP16 stages around it (activation
//! encode, table build, fused Norm → AxScale finish) and the W4A8
//! integer block dot (`vpmaddubsw`).
//!
//! Everything else in the workspace builds under
//! `#![forbid(unsafe_code)]`; quarantining the vector kernels here keeps
//! that guarantee intact. Each kernel is semantically tiny and this
//! crate carries its own scalar reference implementation plus
//! exhaustive-ish randomized tests pinning the paths bit-equal, so the
//! unsafe surface is auditable in isolation from the engines it
//! accelerates.
//!
//! # Unsafe surface
//!
//! Every `unsafe` block is a call into one of these `target_feature`
//! functions (whose bodies do the raw pointer loads, stores and
//! gathers), made by a safe entry point after `avx2_available()` and the
//! checks that discharge the function's `# Safety` contract:
//!
//! | kernel | entry points | obligations checked by the entry point |
//! |---|---|---|
//! | `avx2_gather_group`, `avx2_fold` | [`gather_group`], [`gather_group_planes`], [`gather_group_planes_finish_fp16`] | equal code-slice lengths (a multiple of 8), every lane's table segment in bounds |
//! | `avx2_encode_fp16` | [`encode_fp16`] | equal lengths, a multiple of 8 (the tail runs scalar) |
//! | `avx2_build_rows_fp16` | [`build_rows_fp16`] | 32 addends, 16 signs, 16 outputs per element |
//! | `avx2_finish_add` | [`finish_fp16`], [`gather_group_planes_finish_fp16`] | none beyond AVX2: every operand is a fixed 8-lane array |
//! | `avx2_block_dots_u8i8` | [`block_dots_u8i8`] | equal lengths, whole 32-byte blocks |
//!
//! # Table entry layout
//!
//! Each i32 entry is `(exp << 16) | (inc as u16)`: a biased exponent in
//! the high half (≤ 255 by the caller's format gate) and a signed
//! significand increment in the low half (`|inc| < 2^15`). A zero entry
//! (`exp == 0`, `inc == 0`) is a no-op of the fold.
//!
//! # The fold
//!
//! The accumulator is the branchless max-anchor form of AxCore's
//! partial FP adder (`PartialAcc::add_prepared_unclamped`): align the
//! smaller-exponent operand by shifting its significand right, add, and
//! keep the larger anchor; a zero significand re-anchors on the
//! incoming entry. Fixed-width alignment *drops* the shifted-out bits,
//! exactly like the hardware adder — that's the approximation being
//! modeled, so bit-identity with the scalar engine is the correctness
//! bar, not closeness to an exact dot product.

#![warn(missing_docs)]

mod fp16;

pub use fp16::{
    build_rows_fp16, encode_fp16, finish_fp16, gather_group_planes_finish_fp16,
    scalar_build_rows_fp16, scalar_encode_fp16, scalar_finish_fp16,
};

/// True when the running CPU can execute [`gather_group`]'s vector path.
///
/// Callers may use this to predict which path runs (benchmark labels),
/// but they don't have to gate on it: [`gather_group`] dispatches
/// internally and always produces the same bits either way.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// One-shot power-on self test of the LUT tier's vector kernels: run a
/// small deterministic pattern through the AVX2 gather, FP16 encode,
/// table build and fused finish, and through their scalar references.
/// Returns `true` when every pair agrees bit-for-bit (or when the CPU
/// has no AVX2, in which case no vector path can run). Cached after the
/// first call; the reliability ladder consults it before trusting the
/// AVX2 tier, so a machine whose vector unit fails *any* of the four
/// kernels loses the whole rung instead of silently corrupting.
pub fn self_test() -> bool {
    use std::sync::OnceLock;
    static RESULT: OnceLock<bool> = OnceLock::new();
    *RESULT.get_or_init(|| {
        if !avx2_available() {
            return true;
        }
        // 2 "units" × 16 k-steps × 32 entries, filled with a fixed
        // mixed pattern: FP16-range exponents, signed increments, and
        // periodic zero entries to exercise the re-anchor blend.
        let nb = 8usize;
        let table: Vec<i32> = (0..2 * nb * 32)
            .map(|i| {
                if i % 7 == 0 {
                    return 0;
                }
                let exp = (i * 11 % 31) as i32;
                let inc = ((i * 2654435761usize % 8191) as i32) - 4095;
                (exp << 16) | (inc & 0xffff)
            })
            .collect();
        let mut bases = [0i32; 8];
        let mut store = [[0u8; 8]; 8];
        for l in 0..8 {
            bases[l] = ((l % 2) * nb * 32) as i32;
            for (b, slot) in store[l].iter_mut().enumerate() {
                *slot = (l * 37 + b * 101) as u8;
            }
        }
        let codes: [&[u8]; 8] = std::array::from_fn(|l| &store[l][..]);
        let scalar = scalar_gather_group(&table, &bases, &codes);
        let vector = gather_group(&table, &bases, &codes);
        (0..8).all(|l| {
            scalar.0[l] == vector.0[l] && (scalar.0[l] == 0 || scalar.1[l] == vector.1[l])
        }) && fp16::self_check()
    })
}

/// Fold one group × eight columns of packed 4-bit codes through the
/// entry table into eight `(sig, exp)` accumulator lanes.
///
/// For lane `l`, the fold visits `codes[l]` byte by byte (low nibble =
/// even k-step, high nibble = odd, matching the packed plane layout)
/// and for byte `bi` with nibble `c` looks up
/// `table[bases[l] + (2 * bi + half) * 16 + c]`, folding entries in
/// ascending k order. Lanes are independent columns; `bases[l]` points
/// at the lane's unit segment, laid out as 16-entry rows.
///
/// Dispatches to the AVX2 kernel when the CPU supports it and every
/// lane's code slice fills whole u64 words, and to the scalar reference
/// otherwise — results are bit-identical (the in-crate tests pin this).
///
/// # Panics
///
/// Panics if some `codes[l].len()` differs from `codes[0].len()`, or if
/// any lane's highest index (`bases[l] + codes[l].len() * 32 - 1`)
/// reaches past `table.len()` — the bounds that make the vector path's
/// raw gather sound.
pub fn gather_group(
    table: &[i32],
    bases: &[i32; 8],
    codes: &[&[u8]; 8],
) -> ([i32; 8], [i32; 8]) {
    check_gather_bounds(table, bases, codes);
    let nb = codes[0].len();
    #[cfg(target_arch = "x86_64")]
    if nb.is_multiple_of(8) && avx2_available() {
        // SAFETY: AVX2 confirmed at runtime; index bounds asserted above.
        return unsafe { avx2_gather_group(table, bases, codes) };
    }
    scalar_gather_group(table, bases, codes)
}

/// The bounds that make the vector fold's raw gather sound: equal-length
/// code slices, and every lane's table segment inside `table`.
fn check_gather_bounds(table: &[i32], bases: &[i32; 8], codes: &[&[u8]; 8]) {
    let nb = codes[0].len();
    for l in 0..8 {
        assert_eq!(codes[l].len(), nb, "ragged code slices");
        let end = bases[l] as usize + nb * 32;
        assert!(
            bases[l] >= 0 && end <= table.len(),
            "lane {l} segment [{}, {end}) escapes table of {}",
            bases[l],
            table.len()
        );
    }
}

/// Shard-local form of [`gather_group`]: the eight lanes' code slices
/// are carved out of **one contiguous plane shard** (`planes`, a
/// `PlaneShard`'s raw bytes) by per-lane byte offsets, instead of being
/// pre-sliced by the caller. `offsets[l]` is the start of lane `l`'s
/// group segment within `planes` and `seg_len` its length in packed
/// bytes (`group_size / 2`). This is the entry point the sharded GEMM
/// dispatch uses: handing the kernel the shard slice (rather than views
/// of the whole plane storage) makes "a worker only reads its own
/// shard's planes" a bounds-checked property, not a convention.
///
/// # Panics
///
/// Panics if any `offsets[l] + seg_len` reaches past `planes.len()`, in
/// addition to [`gather_group`]'s own table-bounds checks.
pub fn gather_group_planes(
    table: &[i32],
    bases: &[i32; 8],
    planes: &[u8],
    offsets: &[usize; 8],
    seg_len: usize,
) -> ([i32; 8], [i32; 8]) {
    let codes: [&[u8]; 8] = std::array::from_fn(|l| &planes[offsets[l]..offsets[l] + seg_len]);
    gather_group(table, bases, &codes)
}

/// Scalar reference for [`gather_group`]: the sequential-branch form of
/// the fold, one lane at a time. Public so the engine's non-AVX2 tests
/// and this crate's equivalence tests can call it directly.
pub fn scalar_gather_group(
    table: &[i32],
    bases: &[i32; 8],
    codes: &[&[u8]; 8],
) -> ([i32; 8], [i32; 8]) {
    let mut sig = [0i32; 8];
    let mut exp = [0i32; 8];
    for l in 0..8 {
        let base = bases[l] as usize;
        for (bi, &byte) in codes[l].iter().enumerate() {
            for (half, c) in [(0, byte as usize & 0xf), (1, byte as usize >> 4)] {
                let e = table[base + (2 * bi + half) * 16 + c];
                let (pexp, pinc) = (e >> 16, (e as i16) as i32);
                if sig[l] == 0 {
                    if pinc != 0 {
                        exp[l] = pexp;
                        sig[l] = pinc;
                    }
                    continue;
                }
                if pexp <= exp[l] {
                    // Entry exponents are < 256, so gaps fit a u32
                    // shift only after clamping like the wide fold.
                    sig[l] += pinc >> (exp[l] - pexp).min(31);
                } else {
                    sig[l] = (sig[l] >> (pexp - exp[l]).min(31)) + pinc;
                    exp[l] = pexp;
                }
            }
        }
    }
    (sig, exp)
}

/// One group × eight columns in AVX2: per k-step, extract each lane's
/// nibble code from its u64 code word, gather the eight combined i32
/// entries with `vpgatherdd`, and fold them into eight `(exp, sig)`
/// accumulator lanes held in vector registers.
///
/// Bit-identity with [`scalar_gather_group`]: the fold is the
/// branchless max-anchor form of the same adder, with the `sig == 0`
/// re-anchor expressed as a lane blend. i32 significand lanes are exact
/// because the engine bounds the running sum below 2^31
/// (`gs · 2^(man_bits+3)` gate), and `vpsravd` fills with sign bits for
/// shift counts ≥ 32 — the same result the `.min(31)` clamp gives for
/// i32 values. Blending `exp = pexp` on zero-significand lanes can
/// leave a different anchor than the scalar path's untouched `exp`, but
/// only while `sig == 0`, a state whose anchor the engine never
/// observes: the next non-zero add re-anchors, and normalization
/// returns 0 without reading it.
///
/// # Safety
///
/// Caller must guarantee AVX2 is available, `codes[l].len()` is equal
/// across lanes and a multiple of 8, and for every lane
/// `bases[l] >= 0 && bases[l] as usize + codes[l].len() * 32 <=
/// table.len()` (each code byte addresses two 16-entry rows).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_gather_group(
    table: &[i32],
    bases: &[i32; 8],
    codes: &[&[u8]; 8],
) -> ([i32; 8], [i32; 8]) {
    use std::arch::x86_64::*;
    let (sig, exp) = avx2_fold(table, bases, codes);
    let mut so = [0i32; 8];
    let mut eo = [0i32; 8];
    _mm256_storeu_si256(so.as_mut_ptr() as *mut __m256i, sig);
    _mm256_storeu_si256(eo.as_mut_ptr() as *mut __m256i, exp);
    (so, eo)
}

/// The fold behind [`avx2_gather_group`], leaving the `(sig, exp)` lanes
/// in registers for a fused epilogue.
///
/// # Safety
///
/// [`avx2_gather_group`]'s contract.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn avx2_fold(
    table: &[i32],
    bases: &[i32; 8],
    codes: &[&[u8]; 8],
) -> (std::arch::x86_64::__m256i, std::arch::x86_64::__m256i) {
    use std::arch::x86_64::*;
    let mut sig = _mm256_setzero_si256();
    let mut exp = _mm256_setzero_si256();
    let base_v = _mm256_loadu_si256(bases.as_ptr() as *const __m256i);
    let mask0f = _mm256_set1_epi64x(0xf);
    // Lane compaction: nibbles live in the low dword of each u64 lane;
    // this picks dwords 0,2,4,6 of each half into its low 128 bits.
    let even = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
    let sixteen = _mm256_set1_epi32(16);
    let tp = table.as_ptr();
    let nb = codes[0].len();
    for blk in 0..nb / 8 {
        let b = blk * 8;
        let mut w = [0u64; 8];
        for (l, wl) in w.iter_mut().enumerate() {
            // The slice is exactly 8 bytes, so the array conversion
            // cannot fail.
            #[allow(clippy::unwrap_used)]
            {
                *wl = u64::from_le_bytes(codes[l][b..b + 8].try_into().unwrap());
            }
        }
        let mut wlo = _mm256_loadu_si256(w.as_ptr() as *const __m256i);
        let mut whi = _mm256_loadu_si256(w.as_ptr().add(4) as *const __m256i);
        let mut row = _mm256_add_epi32(base_v, _mm256_set1_epi32((blk * 256) as i32));
        for _step in 0..16 {
            let nlo = _mm256_and_si256(wlo, mask0f);
            let nhi = _mm256_and_si256(whi, mask0f);
            wlo = _mm256_srli_epi64::<4>(wlo);
            whi = _mm256_srli_epi64::<4>(whi);
            let clo = _mm256_permutevar8x32_epi32(nlo, even);
            let chi = _mm256_permutevar8x32_epi32(nhi, even);
            let nib = _mm256_permute2x128_si256::<0x20>(clo, chi);
            let idx = _mm256_add_epi32(row, nib);
            row = _mm256_add_epi32(row, sixteen);
            let e = _mm256_i32gather_epi32::<4>(tp, idx);
            // Entry split: high half = biased exponent (≤ 255, so the
            // arithmetic shift is exact), low half = signed increment.
            let pexp = _mm256_srai_epi32::<16>(e);
            let pinc = _mm256_srai_epi32::<16>(_mm256_slli_epi32::<16>(e));
            let z = _mm256_cmpeq_epi32(sig, _mm256_setzero_si256());
            let anchor = _mm256_max_epi32(exp, pexp);
            let ssh = _mm256_srav_epi32(sig, _mm256_sub_epi32(anchor, exp));
            let ish = _mm256_srav_epi32(pinc, _mm256_sub_epi32(anchor, pexp));
            let sum = _mm256_add_epi32(ssh, ish);
            sig = _mm256_blendv_epi8(sum, pinc, z);
            exp = _mm256_blendv_epi8(anchor, pexp, z);
        }
    }
    (sig, exp)
}

/// One-shot self test of the W4A8 vector kernel: dot a deterministic
/// pattern through both the AVX2 `maddubs` path and the scalar
/// reference. `true` when they agree bit-for-bit (or when the CPU has
/// no AVX2). Cached; the W4A8 tier consults it before trusting the
/// vector rung, mirroring [`self_test`] for the LUT gather.
pub fn block_dots_self_test() -> bool {
    use std::sync::OnceLock;
    static RESULT: OnceLock<bool> = OnceLock::new();
    *RESULT.get_or_init(|| {
        if !avx2_available() {
            return true;
        }
        let n = 4 * 32;
        let w: Vec<u8> = (0..n).map(|i| ((i * 37 + 11) % 129) as u8).collect();
        let a: Vec<i8> = (0..n)
            .map(|i| (((i * 2654435761usize) % 255) as i32 - 127) as i8)
            .collect();
        let mut want = vec![0i32; 4];
        let mut got = vec![0i32; 4];
        block_dots_u8i8_scalar(&w, &a, &mut want);
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 confirmed above; slices sized to 4 whole blocks.
        unsafe {
            avx2_block_dots_u8i8(&w, &a, &mut got)
        };
        want == got
    })
}

/// Per-block integer dot products for the W4A8 tier: for each
/// 32-element block `b`, `dots[b] = Σ_j w[32b+j] · a[32b+j]` with `w`
/// read as unsigned bytes and `a` as signed bytes, in exact i32
/// arithmetic.
///
/// The engine stores 4-bit weight codes as offset integers
/// `w = wint + 64 ∈ [0, 128]` and Q8 activation codes `a ∈ [-127, 127]`;
/// the `+64` offset is folded back out by the caller via the block's
/// compensation sum. Keeping `w ≤ 128` bounds each adjacent pair at
/// `2 · 128 · 127 = 32512 < 2^15`, so the AVX2 `vpmaddubsw` path cannot
/// saturate and all three paths (AVX2, SWAR, scalar) are bit-identical
/// — the in-crate tests pin this.
///
/// # Panics
///
/// Panics unless `w.len() == a.len() == dots.len() * 32`. Debug builds
/// additionally assert the `w ≤ 128` no-saturation bound.
pub fn block_dots_u8i8(w: &[u8], a: &[i8], dots: &mut [i32]) {
    assert_eq!(w.len(), a.len(), "weight/activation length mismatch");
    assert_eq!(w.len(), dots.len() * 32, "inputs must be whole 32-blocks");
    debug_assert!(
        w.iter().all(|&x| x <= 128),
        "offset weight codes must stay ≤ 128 (maddubs saturation bound)"
    );
    #[cfg(target_arch = "x86_64")]
    if avx2_available() && block_dots_self_test() {
        // SAFETY: AVX2 confirmed at runtime; lengths asserted above.
        return unsafe { avx2_block_dots_u8i8(w, a, dots) };
    }
    block_dots_u8i8_swar(w, a, dots);
}

/// SWAR form of [`block_dots_u8i8`]: eight-byte word loads with in-word
/// byte extraction, four words per block. Same exact i32 result as the
/// scalar reference; this is the portable fast rung the dispatch falls
/// back to without AVX2.
pub fn block_dots_u8i8_swar(w: &[u8], a: &[i8], dots: &mut [i32]) {
    assert_eq!(w.len(), a.len(), "weight/activation length mismatch");
    assert_eq!(w.len(), dots.len() * 32, "inputs must be whole 32-blocks");
    for (b, d) in dots.iter_mut().enumerate() {
        let mut acc = 0i32;
        for word in 0..4 {
            let o = b * 32 + word * 8;
            // The slices are exactly 8 bytes, so the conversions cannot
            // fail.
            #[allow(clippy::unwrap_used)]
            let ww = u64::from_le_bytes(w[o..o + 8].try_into().unwrap());
            #[allow(clippy::unwrap_used)]
            let aw = u64::from_le_bytes(
                <[i8; 8]>::try_from(&a[o..o + 8]).unwrap().map(|v| v as u8),
            );
            for i in 0..8 {
                let wb = ((ww >> (8 * i)) & 0xff) as i32;
                let ab = ((aw >> (8 * i)) & 0xff) as u8 as i8 as i32;
                acc += wb * ab;
            }
        }
        *d = acc;
    }
}

/// Scalar reference for [`block_dots_u8i8`], one element at a time.
/// Public so the engine's tests and this crate's equivalence tests can
/// call it directly.
pub fn block_dots_u8i8_scalar(w: &[u8], a: &[i8], dots: &mut [i32]) {
    assert_eq!(w.len(), a.len(), "weight/activation length mismatch");
    assert_eq!(w.len(), dots.len() * 32, "inputs must be whole 32-blocks");
    for (b, d) in dots.iter_mut().enumerate() {
        let mut acc = 0i32;
        for j in 0..32 {
            acc += w[b * 32 + j] as i32 * a[b * 32 + j] as i32;
        }
        *d = acc;
    }
}

/// [`block_dots_u8i8`] in AVX2: one 256-bit load per operand per block,
/// `vpmaddubsw` (u8 × i8 → adjacent-pair i16 sums), `vpmaddwd` against
/// ones to widen to eight i32 lanes, then a horizontal add.
///
/// Exactness: the caller keeps `w ≤ 128`, so each adjacent pair is
/// bounded by `2 · 128 · 127 = 32512 < 2^15` and `vpmaddubsw` never
/// saturates; every later step is exact i32 addition.
///
/// # Safety
///
/// Caller must guarantee AVX2 is available and
/// `w.len() == a.len() == dots.len() * 32`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_block_dots_u8i8(w: &[u8], a: &[i8], dots: &mut [i32]) {
    use std::arch::x86_64::*;
    let ones = _mm256_set1_epi16(1);
    for (b, d) in dots.iter_mut().enumerate() {
        let wv = _mm256_loadu_si256(w.as_ptr().add(b * 32) as *const __m256i);
        let av = _mm256_loadu_si256(a.as_ptr().add(b * 32) as *const __m256i);
        let pairs = _mm256_maddubs_epi16(wv, av);
        let quads = _mm256_madd_epi16(pairs, ones);
        let lo = _mm256_castsi256_si128(quads);
        let hi = _mm256_extracti128_si256::<1>(quads);
        let s4 = _mm_add_epi32(lo, hi);
        let s2 = _mm_add_epi32(s4, _mm_shuffle_epi32::<0b00_00_11_10>(s4));
        let s1 = _mm_add_epi32(s2, _mm_shuffle_epi32::<0b00_00_00_01>(s2));
        *d = _mm_cvtsi128_si32(s1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift so the tests need no external RNG crate.
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

    /// Build a table whose entries look like real prepared products:
    /// FP16-ish exponents (0..=30), increments that fit 13 bits, with a
    /// sprinkling of exact-zero entries to exercise the re-anchor path.
    fn random_table(rng: &mut Rng, len: usize) -> Vec<i32> {
        (0..len)
            .map(|_| {
                let r = rng.next();
                if r.is_multiple_of(5) {
                    return 0;
                }
                let exp = (r >> 8) % 31;
                let inc = ((r >> 16) % 8191) as i32 - 4095;
                ((exp as i32) << 16) | (inc & 0xffff)
            })
            .collect()
    }

    #[test]
    fn vector_and_scalar_folds_are_bit_identical() {
        if !avx2_available() {
            return;
        }
        let mut rng = Rng(0x9e3779b97f4a7c15);
        for trial in 0..50 {
            let nb = 8 * (1 + trial % 4); // 16..64 k-steps per lane
            let units = 1 + (trial % 3) as i32;
            let table = random_table(&mut rng, (units as usize) * nb * 32);
            let mut bases = [0i32; 8];
            let mut code_store = [[0u8; 64]; 8];
            for l in 0..8 {
                bases[l] = (rng.next() as i32).rem_euclid(units) * (nb as i32) * 32;
                for b in code_store[l].iter_mut().take(nb) {
                    *b = rng.next() as u8;
                }
            }
            let codes: [&[u8]; 8] = std::array::from_fn(|l| &code_store[l][..nb]);
            let scalar = scalar_gather_group(&table, &bases, &codes);
            let vector = gather_group(&table, &bases, &codes);
            // Compare observable state: (sig, exp) pairs, except exp on
            // dead (sig == 0) lanes, which nothing downstream reads.
            for l in 0..8 {
                assert_eq!(scalar.0[l], vector.0[l], "sig lane {l} trial {trial}");
                if scalar.0[l] != 0 {
                    assert_eq!(scalar.1[l], vector.1[l], "exp lane {l} trial {trial}");
                }
            }
        }
    }

    #[test]
    fn sharded_plane_entry_matches_presliced_codes() {
        let mut rng = Rng(0x1234_5678_9abc_def1);
        let nb = 16usize; // 32 k-steps per lane
        let table = random_table(&mut rng, 2 * nb * 32);
        // One contiguous "shard" of 8 column planes, each `stride` bytes,
        // with the group segment at a common per-plane offset.
        let stride = 3 * nb;
        let seg0 = nb; // segment start within each plane
        let planes: Vec<u8> = (0..8 * stride).map(|_| rng.next() as u8).collect();
        let mut bases = [0i32; 8];
        let mut offsets = [0usize; 8];
        for l in 0..8 {
            bases[l] = ((l % 2) * nb * 32) as i32;
            offsets[l] = l * stride + seg0;
        }
        let codes: [&[u8]; 8] =
            std::array::from_fn(|l| &planes[offsets[l]..offsets[l] + nb]);
        let direct = gather_group(&table, &bases, &codes);
        let sharded = gather_group_planes(&table, &bases, &planes, &offsets, nb);
        assert_eq!(direct, sharded);
    }

    #[test]
    fn zero_codes_on_zero_table_stay_zero() {
        let table = vec![0i32; 32 * 8];
        let bases = [0i32; 8];
        let store = [[0u8; 8]; 8];
        let codes: [&[u8]; 8] = std::array::from_fn(|l| &store[l][..]);
        let (sig, _) = gather_group(&table, &bases, &codes);
        assert_eq!(sig, [0; 8]);
    }

    #[test]
    fn self_test_passes_on_healthy_hardware() {
        assert!(self_test());
        assert!(self_test(), "cached result stays true");
    }

    #[test]
    fn block_dot_paths_are_bit_identical() {
        let mut rng = Rng(0xD1CE_BA5E_0F0F_1234);
        for trial in 0..200 {
            let blocks = 1 + (trial % 9);
            let n = blocks * 32;
            // w spans the full offset-code range [0, 128] (the maddubs
            // no-saturation contract); a spans the Q8 range [-127, 127].
            let w: Vec<u8> = (0..n).map(|_| (rng.next() % 129) as u8).collect();
            let a: Vec<i8> = (0..n)
                .map(|_| ((rng.next() % 255) as i32 - 127) as i8)
                .collect();
            let mut scalar = vec![0i32; blocks];
            let mut swar = vec![0i32; blocks];
            let mut dispatch = vec![0i32; blocks];
            block_dots_u8i8_scalar(&w, &a, &mut scalar);
            block_dots_u8i8_swar(&w, &a, &mut swar);
            block_dots_u8i8(&w, &a, &mut dispatch);
            assert_eq!(scalar, swar, "swar diverged on trial {trial}");
            assert_eq!(scalar, dispatch, "dispatch diverged on trial {trial}");
        }
    }

    #[test]
    fn block_dot_extremes_are_exact() {
        // The worst case of the no-saturation bound: every pair at
        // ±(128 · 127 · 2). One block of all-max, one of all-min.
        let mut w = vec![128u8; 64];
        w[32..].fill(128);
        let mut a = vec![127i8; 64];
        a[32..].fill(-127);
        let mut dots = vec![0i32; 2];
        block_dots_u8i8(&w, &a, &mut dots);
        assert_eq!(dots, [32 * 128 * 127, -32 * 128 * 127]);
    }

    #[test]
    fn block_dot_self_test_passes_on_healthy_hardware() {
        assert!(block_dots_self_test());
        assert!(block_dots_self_test(), "cached result stays true");
    }

    #[test]
    #[should_panic(expected = "whole 32-blocks")]
    fn block_dot_rejects_ragged_lengths() {
        let w = vec![0u8; 33];
        let a = vec![0i8; 33];
        let mut dots = vec![0i32; 1];
        block_dots_u8i8(&w, &a, &mut dots);
    }

    #[test]
    #[should_panic(expected = "escapes table")]
    fn out_of_bounds_base_panics() {
        let table = vec![0i32; 64];
        let mut bases = [0i32; 8];
        bases[3] = 64;
        let store = [[0u8; 8]; 8];
        let codes: [&[u8]; 8] = std::array::from_fn(|l| &store[l][..]);
        gather_group(&table, &bases, &codes);
    }
}
