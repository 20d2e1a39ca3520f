//! Sealed KV code pages: where each 4-bit code and FP16 group scale of a
//! page sits, and how a word is rebuilt from them.
//!
//! A code page holds `block` positions of every layer's K and V rows as
//! 4-bit codes plus FP16 group scales, in one buffer of `u32` words.
//! [`CodeLayout`] is the only place that knows where a code or a scale
//! sits: the KV cache seals a page by writing through it, and the
//! attention kernel reads a page through [`CodePage`].
//!
//! Codes pack sixteen to a pair of words: of the codes `16p .. 16p + 16`,
//! code `16p + 2i` sits in bits `4i..4i + 4` of word `2p` and code
//! `16p + 2i + 1` in the same bits of word `2p + 1`. Read as one
//! little-endian `u64`, the pair spreads over 32-bit lanes in channel
//! order with one broadcast and one per-lane shift (lane `2i` takes the
//! low word, lane `2i + 1` the high one, both shifted by `4i`), which is
//! how the vector kernels unpack it. Scales pack two to a word, the first
//! in the low half. The buffer holds three regions, in this order:
//!
//! * **K codes**, position `r` and channel `c` of `layer` at code index
//!   `(layer · block + r) · d + c`;
//! * **V codes**, in the same order, from the first whole word pair after
//!   the K codes;
//! * **scales**: K group `g` (channels `g·gk ..`) of row `r` at
//!   `(layer · block + r) · (d / gk) + g`, then V group `t` (positions
//!   `t·gv ..`) of channel `c` at `(layer · (block / gv) + t) · d + c`.
//!
//! A word rebuilds as `table[code] × scale`, with the format's 16-entry
//! signed table (codes 8–15 negate codes 0–7, so the code's sign bit
//! keeps the sign of zero) and the FP16 scale's exact f32 value. For a
//! group the FP4 grid rounds, that product is exact and equals the
//! dequantized word the grid writes, bit for bit.

use std::ops::Range;

/// Where every code and scale of a sealed code page sits, plus the two
/// formats' signed tables; see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct CodeLayout {
    n_layers: usize,
    block: usize,
    d: usize,
    /// Channels per K group (one scale per row and group).
    gk: usize,
    /// Positions per V group (one scale per group and channel).
    gv: usize,
    k_table: [f32; 16],
    v_table: [f32; 16],
    /// Words of each code region (whole pairs).
    code_words: usize,
    /// K scales (all layers); the V scales follow them.
    k_scales: usize,
    /// All scales.
    scales: usize,
}

impl CodeLayout {
    /// The layout of a page of `block` positions × `n_layers` layers of
    /// `d`-wide K and V rows, K grouped by `gk` channels of a row and V by
    /// `gv` positions of a channel; `k_table`/`v_table` give each code's
    /// value.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is 0, `gk` does not divide `d`, `gv` does
    /// not divide `block`, or a table's codes 8–15 are not the negations
    /// of its codes 0–7 (the FP4 sign bit).
    pub fn new(
        n_layers: usize,
        block: usize,
        d: usize,
        (gk, gv): (usize, usize),
        (k_table, v_table): ([f32; 16], [f32; 16]),
    ) -> CodeLayout {
        assert!(n_layers >= 1 && block >= 1 && d >= 1, "empty code page");
        assert!(gk >= 1 && d.is_multiple_of(gk), "K groups of {gk} do not tile rows of {d}");
        assert!(gv >= 1 && block.is_multiple_of(gv), "V groups of {gv} do not tile {block} positions");
        for t in [&k_table, &v_table] {
            assert!(
                (0..8).all(|c| t[c + 8].to_bits() == (-t[c]).to_bits()),
                "code table {t:?} is not sign-symmetric in bit 3"
            );
        }
        let codes = n_layers * block * d;
        let k_scales = n_layers * block * (d / gk);
        CodeLayout {
            n_layers,
            block,
            d,
            gk,
            gv,
            k_table,
            v_table,
            code_words: 2 * codes.div_ceil(16),
            k_scales,
            scales: k_scales + n_layers * (block / gv) * d,
        }
    }

    /// Positions per page.
    pub(crate) fn block(&self) -> usize {
        self.block
    }

    /// Floats per K or V row.
    pub(crate) fn d(&self) -> usize {
        self.d
    }

    /// `u32` words of one page.
    pub fn words(&self) -> usize {
        2 * self.code_words + self.scales.div_ceil(2)
    }

    /// Bytes of the buffer (its words in little-endian order) that hold K
    /// codes, V codes and scales: the at-rest regions of a code page. Each
    /// region is every byte of its words, unused nibbles and halves of
    /// the last word pair or word included, so the regions tile the
    /// buffer.
    pub fn regions(&self) -> [Range<usize>; 3] {
        let v0 = 4 * self.code_words;
        let s0 = 8 * self.code_words;
        [0..v0, v0..s0, s0..4 * self.words()]
    }

    fn code_index(&self, layer: usize, r: usize, c: usize) -> usize {
        debug_assert!(layer < self.n_layers && r < self.block && c < self.d);
        (layer * self.block + r) * self.d + c
    }

    fn k_scale_index(&self, layer: usize, r: usize, g: usize) -> usize {
        (layer * self.block + r) * (self.d / self.gk) + g
    }

    fn v_scale_index(&self, layer: usize, t: usize, c: usize) -> usize {
        self.k_scales + (layer * (self.block / self.gv) + t) * self.d + c
    }

    /// Store K's code at position `r`, channel `c` of `layer`.
    pub fn set_k(&self, words: &mut [u32], layer: usize, r: usize, c: usize, code: u8) {
        set_nibble(words, self.code_index(layer, r, c), code);
    }

    /// Store V's code at position `r`, channel `c` of `layer`.
    pub fn set_v(&self, words: &mut [u32], layer: usize, r: usize, c: usize, code: u8) {
        set_nibble(&mut words[self.code_words..], self.code_index(layer, r, c), code);
    }

    /// Store the FP16 scale of K group `g` of position `r`.
    pub fn set_k_scale(&self, words: &mut [u32], layer: usize, r: usize, g: usize, bits: u16) {
        set_half(&mut words[2 * self.code_words..], self.k_scale_index(layer, r, g), bits);
    }

    /// Store the FP16 scale of V group `t` of channel `c`.
    pub fn set_v_scale(&self, words: &mut [u32], layer: usize, t: usize, c: usize, bits: u16) {
        set_half(&mut words[2 * self.code_words..], self.v_scale_index(layer, t, c), bits);
    }
}

/// The word and bit offset of code `i` (module docs).
fn code_slot(i: usize) -> (usize, usize) {
    (i / 16 * 2 + i % 2, 4 * (i % 16 / 2))
}

fn set_nibble(words: &mut [u32], i: usize, code: u8) {
    let (at, shift) = code_slot(i);
    let w = &mut words[at];
    *w = (*w & !(0xf << shift)) | (u32::from(code & 0xf) << shift);
}

fn nibble(words: &[u32], i: usize) -> usize {
    let (at, shift) = code_slot(i);
    ((words[at] >> shift) & 0xf) as usize
}

fn set_half(words: &mut [u32], i: usize, bits: u16) {
    let shift = 16 * (i % 2);
    let w = &mut words[i / 2];
    *w = (*w & !(0xffff << shift)) | (u32::from(bits) << shift);
}

fn half(words: &[u32], i: usize) -> u16 {
    (words[i / 2] >> (16 * (i % 2))) as u16
}

/// The f32 value of FP16 bits `h`, exactly as F16C's `vcvtph2ps`
/// converts it: finite values (subnormals included) exactly, infinities
/// as infinities, NaNs quiet with their payload.
pub(crate) fn f16_value(h: u16) -> f32 {
    let sign = u32::from(h & 0x8000) << 16;
    let (exp, man) = (u32::from(h >> 10) & 0x1f, u32::from(h & 0x3ff));
    let mag = match exp {
        0 => return f32::from_bits(sign | (man as f32 * f32::from_bits((127 - 24) << 23)).to_bits()),
        31 if man != 0 => 0x7fc0_0000 | (man << 13),
        31 => 0x7f80_0000,
        _ => ((exp + 112) << 23) | (man << 13),
    };
    f32::from_bits(sign | mag)
}

/// Which half of a page a read rebuilds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    K,
    V,
}

/// One layer of one sealed code page, checked against its layout.
#[derive(Debug, Clone, Copy)]
pub struct CodePage<'a> {
    layout: &'a CodeLayout,
    words: &'a [u32],
    layer: usize,
}

impl<'a> CodePage<'a> {
    /// Layer `layer` of the page stored in `words`.
    ///
    /// # Panics
    ///
    /// Panics unless `words` holds exactly [`CodeLayout::words`] words and
    /// `layer` is one of the layout's layers: what makes every read of a
    /// position `< block` and a channel `< d` land inside `words`.
    pub fn new(layout: &'a CodeLayout, words: &'a [u32], layer: usize) -> CodePage<'a> {
        assert_eq!(words.len(), layout.words(), "code page of {} words, layout needs {}", words.len(), layout.words());
        assert!(layer < layout.n_layers, "layer {layer} of a {}-layer page", layout.n_layers);
        CodePage { layout, words, layer }
    }

    /// The page's layout.
    pub(crate) fn layout(&self) -> &'a CodeLayout {
        self.layout
    }

    /// The code of `side` at position `r`, channel `c`.
    pub(crate) fn code(&self, side: Side, r: usize, c: usize) -> usize {
        let l = self.layout;
        let words = if side == Side::K { self.words } else { &self.words[l.code_words..] };
        nibble(words, l.code_index(self.layer, r, c))
    }

    /// K at position `r`, channel `c`: `table[code] × scale`.
    pub(crate) fn k(&self, r: usize, c: usize) -> f32 {
        let l = self.layout;
        let scale = half(&self.words[2 * l.code_words..], l.k_scale_index(self.layer, r, c / l.gk));
        l.k_table[self.code(Side::K, r, c)] * f16_value(scale)
    }

    /// V at position `r`, channel `c`: `table[code] × scale`.
    pub(crate) fn v(&self, r: usize, c: usize) -> f32 {
        let l = self.layout;
        let scale = half(&self.words[2 * l.code_words..], l.v_scale_index(self.layer, r / l.gv, c));
        l.v_table[self.code(Side::V, r, c)] * f16_value(scale)
    }

    /// Rebuild this layer's K and V rows `0..rows` into `k` and `v`, one
    /// row of `d` floats after another: each word as `table[code] ×
    /// scale`, bit for bit the f32 word the page would hold had it stayed
    /// f32.
    ///
    /// # Panics
    ///
    /// Panics if `rows` exceeds the page or `k` or `v` is shorter than
    /// `rows × d`.
    pub fn rows_into(&self, rows: usize, k: &mut [f32], v: &mut [f32]) {
        let l = self.layout;
        let d = l.d;
        assert!(rows <= l.block, "{rows} rows of a {}-position page", l.block);
        let scales = &self.words[2 * l.code_words..];
        for r in 0..rows {
            // [`CodePage::k`]/[`CodePage::v`], each K group's scale
            // converted once.
            for (g, kg) in k[r * d..(r + 1) * d].chunks_mut(l.gk).enumerate() {
                let s = f16_value(half(scales, l.k_scale_index(self.layer, r, g)));
                for (e, x) in kg.iter_mut().enumerate() {
                    *x = l.k_table[self.code(Side::K, r, g * l.gk + e)] * s;
                }
            }
            for (c, x) in v[r * d..(r + 1) * d].iter_mut().enumerate() {
                let s = f16_value(half(scales, l.v_scale_index(self.layer, r / l.gv, c)));
                *x = l.v_table[self.code(Side::V, r, c)] * s;
            }
        }
    }

    /// `side` of this page's layer as the vector kernels read it, or
    /// `None` unless every row is whole word pairs (`d` a multiple of 16)
    /// and, for K, every 8 channels share a scale (`gk` a multiple of 8).
    pub(crate) fn side_reads(&self, side: Side) -> Option<SideReads<'a>> {
        let l = self.layout;
        if !l.d.is_multiple_of(16) || (side == Side::K && !l.gk.is_multiple_of(8)) {
            return None;
        }
        let rows = l.block * l.d / 8;
        let first = l.code_index(self.layer, 0, 0) / 8 + if side == Side::K { 0 } else { l.code_words };
        let scale_words = &self.words[2 * l.code_words..];
        // SAFETY: `u16` has no invalid bit patterns and a smaller
        // alignment than `u32`, and the slice covers exactly the bytes of
        // `scale_words`, borrowed for the same lifetime.
        let halves: &'a [u16] =
            unsafe { std::slice::from_raw_parts(scale_words.as_ptr() as *const u16, 2 * scale_words.len()) };
        let (h0, n, group) = match side {
            Side::K => (l.k_scale_index(self.layer, 0, 0), l.block * (l.d / l.gk), l.gk),
            Side::V => (l.v_scale_index(self.layer, 0, 0), (l.block / l.gv) * l.d, l.gv),
        };
        Some(SideReads {
            words: &self.words[first..first + rows],
            halves: &halves[h0..h0 + n],
            table: if side == Side::K { &l.k_table } else { &l.v_table },
            d: l.d,
            group,
        })
    }
}

/// One side (K or V) of one layer of a code page, as the vector kernels
/// read it: row `r`'s codes are the word pairs `words[r·d/8 ..][..d/8]`
/// (channels `16p .. 16p + 16` in pair `p`, module docs), the FP16
/// scales are K's `halves[r · d/gk + g]` or V's `halves[t · d + c]`, and
/// `table` gives each code's value.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SideReads<'a> {
    pub(crate) words: &'a [u32],
    pub(crate) halves: &'a [u16],
    pub(crate) table: &'a [f32; 16],
    /// Channels per row (a multiple of 16).
    pub(crate) d: usize,
    /// Channels per K group (a multiple of 8), or positions per V group.
    pub(crate) group: usize,
}

/// True when the CPU converts FP16 in vectors (F16C), as the vector
/// reads of a code page's scales do.
pub(crate) fn f16c_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("f16c")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

impl SideReads<'_> {
    /// The code pair holding channels `c..c + 16` (`c` rounded down to a
    /// multiple of 16) of row `r`, as one `u64`.
    ///
    /// # Safety
    ///
    /// Caller must guarantee `r` is a row of the page and `c < d`.
    #[inline]
    pub(crate) unsafe fn pair(&self, r: usize, c: usize) -> u64 {
        (self.words.as_ptr().add((r * self.d + c) / 16 * 2) as *const u64).read_unaligned()
    }
}

/// A code table for the AVX2 lookup: the values of codes 0–7 in one
/// register, and the per-lane shifts that spread either half of a code
/// pair over 8 lanes in channel order.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct CodeTable {
    lo: std::arch::x86_64::__m256,
    shifts: [std::arch::x86_64::__m256i; 2],
}

#[cfg(target_arch = "x86_64")]
impl CodeTable {
    /// # Safety
    ///
    /// Caller must guarantee AVX2 is available.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(crate) unsafe fn load(table: &[f32; 16]) -> CodeTable {
        use std::arch::x86_64::*;
        CodeTable {
            lo: _mm256_loadu_ps(table.as_ptr()),
            shifts: [
                _mm256_setr_epi32(0, 0, 4, 4, 8, 8, 12, 12),
                _mm256_setr_epi32(16, 16, 20, 20, 24, 24, 28, 28),
            ],
        }
    }
}

/// The values of the 8 codes in half `half` of code pair `pair`
/// (channels `8·half ..`, module docs), in channel order: the pair
/// broadcast and shifted per lane (`vpsrlvd`), then a `vpermd` on the
/// values of codes 0–7 — the way `avx2_lookup` looks an 8-entry half up
/// — and the code's bit 3, moved to the sign bit, XORed in. The table is
/// sign-symmetric in bit 3 ([`CodeLayout::new`] checks it), so this is
/// `table[code]` bit for bit, `-0.0` for code 8 included, with one
/// permute and no blend.
///
/// # Safety
///
/// Caller must guarantee AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
pub(crate) unsafe fn avx2_codes(table: &CodeTable, pair: u64, half: usize) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let idx = _mm256_srlv_epi32(_mm256_set1_epi64x(pair as i64), table.shifts[half]);
    let sign = _mm256_and_si256(_mm256_slli_epi32::<28>(idx), _mm256_set1_epi32(i32::MIN));
    _mm256_xor_ps(_mm256_permutevar8x32_ps(table.lo, idx), _mm256_castsi256_ps(sign))
}

/// A code table for the AVX-512 lookup: all 16 signed values in one
/// register, and the per-lane shifts that spread a whole code pair over
/// 16 lanes in channel order.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct WideTable {
    values: std::arch::x86_64::__m512,
    shifts: std::arch::x86_64::__m512i,
}

#[cfg(target_arch = "x86_64")]
impl WideTable {
    /// # Safety
    ///
    /// Caller must guarantee AVX-512F is available.
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(crate) unsafe fn load(table: &[f32; 16]) -> WideTable {
        use std::arch::x86_64::*;
        WideTable {
            values: _mm512_loadu_ps(table.as_ptr()),
            shifts: _mm512_setr_epi32(0, 0, 4, 4, 8, 8, 12, 12, 16, 16, 20, 20, 24, 24, 28, 28),
        }
    }
}

/// The values of the 16 codes of code pair `pair`, in channel order: the
/// pair broadcast and shifted per lane, then one `vpermps` on the whole
/// 16-entry signed table (the permute reads an index's low four bits).
///
/// # Safety
///
/// Caller must guarantee AVX-512F is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
pub(crate) unsafe fn avx512_codes(table: &WideTable, pair: u64) -> std::arch::x86_64::__m512 {
    use std::arch::x86_64::*;
    let idx = _mm512_srlv_epi32(_mm512_set1_epi64(pair as i64), table.shifts);
    _mm512_permutexvar_ps(idx, table.values)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// E1M2's signed values: codes 0–7 the magnitudes, 8–15 their
    /// negatives, code 8 `-0.0`.
    pub(crate) const E1M2: [f32; 16] = [
        0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, -0.0, -0.5, -1.0, -1.5, -2.0, -2.5, -3.0, -3.5,
    ];
    /// E3M0's signed values.
    pub(crate) const E3M0: [f32; 16] = [
        0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, -0.0, -0.25, -0.5, -1.0, -2.0, -4.0, -8.0, -16.0,
    ];

    #[test]
    fn f16_value_is_the_hardware_conversion() {
        assert_eq!(f16_value(0x3c00), 1.0);
        assert_eq!(f16_value(0x0001), 2f32.powi(-24));
        assert_eq!(f16_value(0x7bff), 65504.0);
        assert_eq!(f16_value(0x8000).to_bits(), (-0.0f32).to_bits());
        assert_eq!(f16_value(0xfc00), f32::NEG_INFINITY);
        #[cfg(target_arch = "x86_64")]
        if f16c_available() {
            for h in 0..=u16::MAX {
                let got = f16_value(h);
                // SAFETY: F16C confirmed; the array holds 8 halves.
                let want = unsafe {
                    use std::arch::x86_64::*;
                    let x = _mm_cvtph_ps(_mm_set1_epi16(h as i16));
                    _mm_cvtss_f32(x)
                };
                assert_eq!(got.to_bits(), want.to_bits(), "h {h:#06x}");
            }
        }
    }

    #[test]
    fn every_slot_round_trips_and_regions_tile_the_buffer() {
        // 144 codes a side (whole word pairs, rows of 12 splitting them),
        // 24-code rows (the last pair half used), 6 codes with an odd
        // number of scales, and blocks 3 and 16 with rows of 24, 40 and 64.
        let layouts = [
            (2, 6, 12, (4, 3)),
            (1, 1, 24, (8, 1)),
            (1, 2, 3, (3, 2)),
            (2, 3, 24, (8, 3)),
            (3, 16, 40, (8, 16)),
            (1, 16, 64, (16, 16)),
        ];
        for (nl, block, d, (gk, gv)) in layouts {
            let l = CodeLayout::new(nl, block, d, (gk, gv), (E1M2, E3M0));
            let kc = |layer: usize, r: usize, c: usize| (layer + r * 12 + c) % 16;
            let vc = |layer: usize, r: usize, c: usize| (3 * layer + r + c) % 16;
            let ks = |layer: usize, r: usize, g: usize| 0x3c00 + (layer * 100 + r * 3 + g) as u16;
            let vs = |layer: usize, t: usize, c: usize| 0x2000 + (layer * 50 + t * 12 + c) as u16;
            let mut words = vec![0u32; l.words()];
            for layer in 0..nl {
                for r in 0..block {
                    for c in 0..d {
                        l.set_k(&mut words, layer, r, c, kc(layer, r, c) as u8);
                        l.set_v(&mut words, layer, r, c, vc(layer, r, c) as u8);
                    }
                    for g in 0..d / gk {
                        l.set_k_scale(&mut words, layer, r, g, ks(layer, r, g));
                    }
                }
                for t in 0..block / gv {
                    for c in 0..d {
                        l.set_v_scale(&mut words, layer, t, c, vs(layer, t, c));
                    }
                }
            }
            for layer in 0..nl {
                let p = CodePage::new(&l, &words, layer);
                for r in 0..block {
                    for c in 0..d {
                        let (k, v) = (f16_value(ks(layer, r, c / gk)), f16_value(vs(layer, r / gv, c)));
                        assert_eq!(p.k(r, c).to_bits(), (E1M2[kc(layer, r, c)] * k).to_bits());
                        assert_eq!(p.v(r, c).to_bits(), (E3M0[vc(layer, r, c)] * v).to_bits());
                    }
                }
                // `rows_into` equals the per-slot reads at every row count,
                // partial V groups included.
                for rows in 0..=block {
                    let (mut kr, mut vr) = (vec![0f32; rows * d], vec![0f32; rows * d]);
                    p.rows_into(rows, &mut kr, &mut vr);
                    let bits = |x: &[f32]| x.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let slots = |read: &dyn Fn(usize, usize) -> f32| {
                        (0..rows * d).map(|i| read(i / d, i % d).to_bits()).collect::<Vec<_>>()
                    };
                    assert_eq!(bits(&kr), slots(&|r, c| p.k(r, c)), "K of {rows} rows");
                    assert_eq!(bits(&vr), slots(&|r, c| p.v(r, c)), "V of {rows} rows");
                }
            }
            // The regions tile the buffer, and every code and scale lies
            // in its own: a fault site that flips a region's bytes can
            // reach each of them.
            let [k, v, s] = l.regions();
            assert!(k.start == 0 && k.end == v.start && v.end == s.start && s.end == 4 * l.words());
            for i in 0..nl * block * d {
                let (word, shift) = code_slot(i);
                let byte = 4 * word + shift / 8;
                assert!(k.contains(&byte) && v.contains(&(byte + k.len())), "code {i} at byte {byte}");
            }
            for j in 0..l.scales {
                assert!(s.contains(&(s.start + 2 * j + 1)), "scale {j}");
            }
        }
    }

    #[test]
    fn vector_lookups_return_the_table_entry_of_every_code() {
        // Pairs holding every code in every lane, against `table[code]`.
        let l = CodeLayout::new(1, 16, 16, (16, 16), (E1M2, E3M0));
        let mut words = vec![0u32; l.words()];
        for r in 0..16 {
            for c in 0..16 {
                l.set_k(&mut words, 0, r, c, ((r + c) % 16) as u8);
                l.set_v(&mut words, 0, r, c, ((r + 3 * c) % 16) as u8);
            }
        }
        let page = CodePage::new(&l, &words, 0);
        #[cfg(target_arch = "x86_64")]
        for side in [Side::K, Side::V] {
            let sr = page.side_reads(side).expect("whole pairs");
            let table = if side == Side::K { &E1M2 } else { &E3M0 };
            for r in 0..16 {
                let want: Vec<u32> = (0..16).map(|c| table[page.code(side, r, c)].to_bits()).collect();
                let mut got = [0f32; 16];
                if crate::avx2_available() {
                    for half in 0..2 {
                        // SAFETY: AVX2 confirmed; row `r` is in the page.
                        unsafe {
                            let x = avx2_codes(&CodeTable::load(table), sr.pair(r, 0), half);
                            std::arch::x86_64::_mm256_storeu_ps(got[8 * half..].as_mut_ptr(), x);
                        }
                    }
                    assert_eq!(got.map(f32::to_bits).to_vec(), want, "avx2 {side:?} row {r}");
                }
                if crate::avx512_available() {
                    // SAFETY: AVX-512F confirmed; row `r` is in the page.
                    unsafe {
                        let x = avx512_codes(&WideTable::load(table), sr.pair(r, 0));
                        std::arch::x86_64::_mm512_storeu_ps(got.as_mut_ptr(), x);
                    }
                    assert_eq!(got.map(f32::to_bits).to_vec(), want, "avx512 {side:?} row {r}");
                } else {
                    println!("skipped the Avx512 body of the code lookup: the CPU lacks AVX-512F");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "sign-symmetric")]
    fn tables_must_negate_in_bit_three() {
        let mut t = E1M2;
        t[8] = 0.0;
        CodeLayout::new(1, 4, 8, (8, 4), (t, E3M0));
    }

    #[test]
    #[should_panic(expected = "layout needs")]
    fn short_code_buffer_panics() {
        let l = CodeLayout::new(1, 4, 8, (8, 4), (E1M2, E3M0));
        let words = vec![0u32; l.words() - 1];
        CodePage::new(&l, &words, 0);
    }
}
