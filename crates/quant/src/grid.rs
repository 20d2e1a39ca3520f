//! Exact FP4 rounding by threshold comparison.
//!
//! Group quantization divides each value by its group's FP16 scale and
//! rounds the quotient onto a 4-bit FP grid (Eq. 1). [`FpFormat::encode`]
//! does that rounding in f64 softfloat, one call per value. An FP4 format
//! has only 8 non-negative magnitudes, so the rounding is decided by where
//! `|w|` falls among the 7 midpoints between them, scaled by the group's
//! scale. [`Fp4Grid`] holds those magnitudes, midpoints and the direction
//! each midpoint's tie rounds, all taken from the softfloat oracle when the
//! grid is built; [`ScaledGrid`] is one group's grid: thresholds
//! `midpoint × scale` and dequantized values `magnitude × scale`.
//!
//! **Why it is exact.** A midpoint has at most 4 significant bits and an
//! FP16 scale 11, so `midpoint × scale` and `magnitude × scale` are exact
//! in f32 (and in f64) for every positive FP16 scale. A finite f32 `w` that
//! is not equal to a threshold `t` differs from it by at least half an f32
//! ulp of `t`, a relative gap of 2⁻²⁵ — far more than the 2⁻⁵³ relative
//! error of the f64 quotient `w / scale` that `encode` rounds. So `|w|`
//! against `t` decides exactly what `encode(w / scale)` decides against the
//! midpoint, ties included, and the dequantized word `±(magnitude × scale)`
//! is bit for bit what `decode(code) × scale` rounds to in f32. The sign is
//! `w`'s sign bit, so `-0.0` and negatives that round to zero keep it, as
//! `encode` does.
//!
//! The argument needs a positive scale and a finite `w`: a group holding
//! NaN or ±inf, or whose scale rounds to FP16 zero, takes the per-value
//! path instead (`crate::group`).

use crate::formats::QuantFormat;
use axcore_softfloat::{FpFormat, FP4_E1M2, FP4_E2M1, FP4_E3M0};
use std::sync::OnceLock;

/// The rounding grid of one 4-bit FP format, derived from its softfloat
/// [`FpFormat::encode`]/[`FpFormat::decode`].
#[derive(Debug)]
pub struct Fp4Grid {
    /// The 8 non-negative magnitudes, increasing.
    magnitudes: [f32; 8],
    /// The code of each magnitude.
    codes: [u8; 8],
    /// `midpoints[i]` lies halfway between magnitudes `i` and `i + 1`.
    midpoints: [f32; 7],
    /// 1 where a value exactly on `midpoints[i]` rounds up to magnitude
    /// `i + 1` (as `encode` returns on it), else 0.
    ties_up: [u32; 7],
    /// The code's sign bit.
    sign: u8,
}

impl Fp4Grid {
    /// The grid of `format`, built once per process; `None` for formats
    /// other than the three finite-only FP4 formats (INT, FP8, IEEE-style
    /// 4-bit), which keep per-value rounding.
    #[inline]
    pub fn of(format: QuantFormat) -> Option<&'static Fp4Grid> {
        static GRIDS: [OnceLock<Fp4Grid>; 3] = [OnceLock::new(), OnceLock::new(), OnceLock::new()];
        let QuantFormat::Fp(f) = format else { return None };
        // The grid depends on the geometry only, not the format's name.
        let (slot, fmt) = match (f.exp_bits, f.man_bits, f.finite_only) {
            (1, 2, true) => (0, FP4_E1M2),
            (2, 1, true) => (1, FP4_E2M1),
            (3, 0, true) => (2, FP4_E3M0),
            _ => return None,
        };
        Some(GRIDS[slot].get_or_init(|| Fp4Grid::build(fmt)))
    }

    /// Derive the grid from the softfloat oracle.
    fn build(format: FpFormat) -> Fp4Grid {
        let mut magnitudes = [0f32; 8];
        let mut codes = [0u8; 8];
        let mut n = 0;
        for bits in format.nonneg_finite_patterns() {
            magnitudes[n] = format.decode(bits) as f32;
            codes[n] = bits as u8;
            n += 1;
        }
        assert!(n == 8, "{format} is not a 4-bit finite-only format");
        let mut midpoints = [0f32; 7];
        let mut ties_up = [0; 7];
        for i in 0..7 {
            let (lo, hi) = (magnitudes[i] as f64, magnitudes[i + 1] as f64);
            assert!(lo < hi, "{format} magnitudes must increase");
            let mid = (lo + hi) / 2.0;
            midpoints[i] = mid as f32;
            ties_up[i] = (format.encode(mid) == codes[i + 1] as u32) as u32;
        }
        Fp4Grid {
            magnitudes,
            codes,
            midpoints,
            ties_up,
            sign: format.sign_mask() as u8,
        }
    }

    /// The largest magnitude, `F_max`.
    #[inline]
    pub(crate) fn max_abs(&self) -> f32 {
        self.magnitudes[7]
    }

    /// The value of every 4-bit code: `table[code]` is `±magnitude` for
    /// the magnitude the code's low bits name, negative when the code's
    /// sign bit is set (so the negative zero code reads `-0.0`). A
    /// [`ScaledGrid::code`] `c` of a group with FP16 scale `s` dequantizes
    /// as `table[c] * s`, which is exact in f32 and equals
    /// [`ScaledGrid::value`] bit for bit.
    pub fn signed_table(&self) -> [f32; 16] {
        let mut table = [0f32; 16];
        for (&m, &c) in self.magnitudes.iter().zip(&self.codes) {
            table[usize::from(c)] = m;
            table[usize::from(c | self.sign)] = -m;
        }
        table
    }

    /// The grid of one group with FP16 scale `scale` (positive and finite:
    /// an FP16 value, so every product below is exact in f32).
    #[inline]
    pub fn scaled(&self, scale: f32) -> ScaledGrid {
        debug_assert!(scale > 0.0 && scale <= 65504.0, "scale {scale} is not a positive FP16 value");
        let bounds = std::array::from_fn(|i| {
            let t = self.midpoints[i] * scale;
            // `|w| > next_down(t)` is `|w| >= t` on f32, so one strict
            // comparison per threshold carries the tie direction (`t` is
            // positive and normal, so its predecessor is one bit below).
            f32::from_bits(t.to_bits() - self.ties_up[i])
        });
        let values = self.magnitudes.map(|m| m * scale);
        ScaledGrid {
            bounds,
            steps: std::array::from_fn(|i| values[i + 1] - values[i]),
            codes: self.codes,
            sign: self.sign,
        }
    }
}

/// One group's rounding grid: see [`Fp4Grid::scaled`].
#[derive(Debug)]
pub struct ScaledGrid {
    /// `|w| > bounds[i]` exactly when `w` rounds past magnitude `i`.
    bounds: [f32; 7],
    /// `steps[i]` takes dequantized magnitude `i` (`magnitude × scale`) to
    /// magnitude `i + 1`. Every partial sum from magnitude 0 (zero) is a
    /// dequantized magnitude, so each addition is exact.
    steps: [f32; 7],
    codes: [u8; 8],
    sign: u8,
}

impl ScaledGrid {
    /// Index (0..8) of the magnitude finite `w` rounds to.
    #[inline]
    fn index(&self, w: f32) -> usize {
        let a = w.abs();
        self.bounds.iter().filter(|&&b| a > b).count()
    }

    /// The code of finite `w`: `encode(w / scale)`.
    #[inline]
    pub fn code(&self, w: f32) -> u8 {
        let sign = if w.is_sign_negative() { self.sign } else { 0 };
        self.codes[self.index(w)] | sign
    }

    /// The dequantized value of finite `w`: `decode(code) × scale`,
    /// rounded to f32 (exactly, with `w`'s sign).
    #[inline]
    pub fn value(&self, w: f32) -> f32 {
        // The bounds increase, so the ones `|w|` passes are a prefix and
        // their steps sum to its magnitude: compares and adds with no
        // table lookup, which vectorize across a group's values.
        let a = w.abs();
        let mut v = 0f32;
        for (&b, &step) in self.bounds.iter().zip(&self.steps) {
            v += if a > b { step } else { 0.0 };
        }
        f32::from_bits(v.to_bits() | (w.to_bits() & 0x8000_0000))
    }
}

/// `FP16.encode(x)` for the group scales of Eq. 1 (`x ≥ 0`, +inf
/// included), at bit level: round to nearest even, saturating to 65504
/// (`0x7bff`) above the FP16 range as the softfloat encode does.
#[inline]
pub(crate) fn fp16_bits(x: f64) -> u16 {
    debug_assert!(x >= 0.0, "group scale {x} is negative or NaN");
    if x >= 65504.0 {
        return 0x7bff;
    }
    if x < f64::from_bits((1023 - 14) << 52) {
        // Subnormal (or rounding up into the first normal, 0x400): whole
        // units of 2⁻²⁴, exact to scale.
        return round_half_even(x * f64::from_bits((1023 + 24) << 52)) as u16;
    }
    let e = ((x.to_bits() >> 52) & 0x7ff) as i64 - 1023;
    // 2^(10 - e) · x lies in [1024, 2048); a carry to 2048 rolls into the
    // next exponent through the addition below.
    let units = round_half_even(x * f64::from_bits(((1023 + 10 - e) as u64) << 52)) as u16;
    (((e + 15) as u16) << 10) + (units - 1024)
}

/// `y.round_ties_even()` for `0 ≤ y < 2⁵²`, without a libm call: adding
/// 2⁵² leaves no fraction bits, so the f64 addition itself rounds to
/// nearest even.
#[inline]
fn round_half_even(y: f64) -> f64 {
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    (y + TWO_52) - TWO_52
}

/// The value of [`fp16_bits`]' output `h` (non-negative, finite), as an
/// exact f32.
#[inline]
pub(crate) fn fp16_value(h: u16) -> f32 {
    let (exp, man) = ((h >> 10) & 0x1f, (h & 0x3ff) as u32);
    if exp == 0 {
        man as f32 * f32::from_bits((127 - 24) << 23)
    } else {
        f32::from_bits(((exp as u32 + 112) << 23) | (man << 13))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axcore_softfloat::FP16;

    #[test]
    fn grids_come_from_the_oracle() {
        let e1m2 = Fp4Grid::of(QuantFormat::E1M2).expect("E1M2 grid");
        assert_eq!(e1m2.magnitudes, [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5]);
        assert_eq!(e1m2.midpoints, [0.25, 0.75, 1.25, 1.75, 2.25, 2.75, 3.25]);
        let e2m1 = Fp4Grid::of(QuantFormat::E2M1).expect("E2M1 grid");
        assert_eq!(e2m1.magnitudes, [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]);
        // Ties go to the even code in E1M2/E2M1, so the direction
        // alternates; E3M0 has no mantissa bit and always rounds down.
        for g in [e1m2, e2m1] {
            assert_eq!(g.ties_up, [0, 1, 0, 1, 0, 1, 0]);
        }
        let e3m0 = Fp4Grid::of(QuantFormat::E3M0).expect("E3M0 grid");
        assert_eq!(e3m0.magnitudes, [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!(e3m0.ties_up, [0; 7]);
        assert_eq!((e1m2.sign, e3m0.codes), (0x8, [0, 1, 2, 3, 4, 5, 6, 7]));
        assert!(Fp4Grid::of(QuantFormat::INT4).is_none());
        assert!(Fp4Grid::of(QuantFormat::E4M3).is_none());
    }

    #[test]
    fn signed_tables_times_the_scale_are_the_dequantized_values() {
        for fmt in [QuantFormat::E1M2, QuantFormat::E2M1, QuantFormat::E3M0] {
            let grid = Fp4Grid::of(fmt).expect("FP4 grid");
            let table = grid.signed_table();
            assert_eq!(table[usize::from(grid.sign)].to_bits(), (-0.0f32).to_bits());
            for h in [0x0001u16, 0x03ff, 0x0400, 0x3c00, 0x5a3b, 0x7bff] {
                let scale = fp16_value(h);
                let g = grid.scaled(scale);
                for w in (-300..=300).map(|i| i as f32 * scale / 40.0).chain([-0.0, 0.0]) {
                    let want = g.value(w);
                    let got = table[usize::from(g.code(w))] * scale;
                    assert_eq!(got.to_bits(), want.to_bits(), "{fmt} w {w} scale {scale}");
                }
            }
        }
    }

    #[test]
    fn fp16_bits_equals_softfloat_encode() {
        let check = |x: f64| assert_eq!(fp16_bits(x), FP16.encode(x) as u16, "x = {x:e}");
        for h in 0..=0x7bffu32 {
            let v = FP16.decode(h);
            let up = FP16.decode(h + 1);
            // Every value, the midpoint to its successor, and the f64
            // neighbours of that midpoint.
            let mid = (v + up) / 2.0;
            for x in [v, mid, mid.next_down(), mid.next_up(), v.next_up()] {
                check(x);
            }
        }
        for x in [0.0, 65504.0, 65519.99, 65520.0, 1e9, f64::INFINITY, f64::MIN_POSITIVE, 1e-300] {
            check(x);
        }
    }

    #[test]
    fn fp16_value_equals_softfloat_decode() {
        for h in 0..=0x7bffu16 {
            assert_eq!(fp16_value(h) as f64, FP16.decode(h as u32), "h = {h:#06x}");
        }
    }
}
