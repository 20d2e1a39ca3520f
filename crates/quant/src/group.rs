//! Symmetric group-wise round-to-nearest quantization (paper Eq. 1 with
//! grouped scales, §2.2).
//!
//! Every group, whatever caller it serves, rounds through one
//! implementation, `GroupRounding`: the FP16 scale from the group's
//! largest magnitude, then each value's code — by the exact threshold grid
//! ([`crate::grid`]) for the three FP4 formats, by per-value softfloat
//! [`QuantFormat::encode`] for the other formats and for groups the grid
//! does not cover (NaN or ±inf inside, or a scale that rounds to FP16
//! zero). [`GroupQuantizer`] writes the codes, format selection scores the
//! reconstruction, and [`qdq_group`] writes the reconstruction back in place
//! (the KV cache's quantize-on-fill).

use crate::format_select::{CalibrationStats, FormatPolicy};
use crate::formats::QuantFormat;
use crate::grid::{fp16_bits, fp16_value, Fp4Grid, ScaledGrid};
use crate::matrix::QuantizedMatrix;

/// A configured weight quantizer.
///
/// ```
/// use axcore_quant::{GroupQuantizer, QuantFormat};
///
/// let weights: Vec<f32> = (0..128 * 16).map(|i| ((i % 17) as f32 - 8.0) / 10.0).collect();
/// let q = GroupQuantizer::fixed(QuantFormat::E2M1, 64).quantize(&weights, 128, 16);
/// assert!(q.mse(&weights) < 0.01);
/// ```
#[derive(Debug, Clone)]
pub struct GroupQuantizer {
    group_size: usize,
    policy: FormatPolicy,
}

impl GroupQuantizer {
    /// A quantizer that uses one fixed format for every block.
    pub fn fixed(format: QuantFormat, group_size: usize) -> Self {
        GroupQuantizer {
            group_size,
            policy: FormatPolicy::Fixed(format),
        }
    }

    /// AxCore's adaptive format-aware quantizer (§4.4): per block of
    /// `group_size × block_cols`, pick the FP4 format minimizing the
    /// (optionally activation-weighted) reconstruction error.
    pub fn adaptive_fp4(group_size: usize, block_cols: usize, calib: Option<CalibrationStats>) -> Self {
        GroupQuantizer {
            group_size,
            policy: FormatPolicy::AdaptiveFp4 { block_cols, calib },
        }
    }

    /// The configured group size along the input-channel dimension.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// The configured format policy.
    pub fn policy(&self) -> &FormatPolicy {
        &self.policy
    }

    /// Quantize a row-major `k × n` weight matrix.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != k * n`, if `k` is not a multiple of the
    /// group size, or if `n` is not a multiple of the policy's block width
    /// ([`fit_group`] picks a group size that divides an axis).
    pub fn quantize(&self, weights: &[f32], k: usize, n: usize) -> QuantizedMatrix {
        assert_eq!(weights.len(), k * n, "weight shape mismatch");
        assert!(
            k.is_multiple_of(self.group_size),
            "k = {k} not a multiple of group size {}",
            self.group_size
        );
        let block_cols = match &self.policy {
            FormatPolicy::Fixed(_) => n,
            FormatPolicy::AdaptiveFp4 { block_cols, .. } => {
                assert!(
                    n.is_multiple_of(*block_cols),
                    "n = {n} not a multiple of block width {block_cols}"
                );
                *block_cols
            }
        };

        let groups = k / self.group_size;
        let nblocks = n / block_cols;
        let mut q = QuantizedMatrix {
            k,
            n,
            group_size: self.group_size,
            block_cols,
            codes: vec![0u8; k * n],
            scales: vec![0u16; groups * n],
            formats: Vec::with_capacity(groups * nblocks),
        };

        for g in 0..groups {
            for bc in 0..nblocks {
                let format = self.policy.select(weights, k, n, g, self.group_size, bc, block_cols);
                q.formats.push(format);
                for col in bc * block_cols..(bc + 1) * block_cols {
                    self.quantize_group(weights, k, n, g, col, format, &mut q);
                }
            }
        }
        q
    }

    /// Quantize one (group, column) slice: the FP16 scale from the group
    /// maximum, then every element's code.
    #[allow(clippy::too_many_arguments)]
    fn quantize_group(
        &self,
        weights: &[f32],
        _k: usize,
        n: usize,
        g: usize,
        col: usize,
        format: QuantFormat,
        q: &mut QuantizedMatrix,
    ) {
        let rows = g * self.group_size..(g + 1) * self.group_size;
        let column = weights[rows.start * n + col..].iter().step_by(n).take(self.group_size).copied();
        let r = GroupRounding::new(format, column.clone());
        q.scales[g * n + col] = r.scale_bits;
        for (kk, w) in rows.zip(column) {
            q.codes[kk * n + col] = r.code(w);
        }
    }
}

/// Largest group size ≤ `group` that divides `dim`: the group that fits an
/// axis whose length is not a multiple of the nominal group size (small
/// proxy layers, a KV page of `block` positions, a short window). It is
/// `group` itself when `group` divides `dim`, and `dim` when `dim ≤ group`.
pub fn fit_group(dim: usize, group: usize) -> usize {
    (1..=group.min(dim)).rev().find(|g| dim.is_multiple_of(*g)).unwrap_or(1)
}

/// Quantize one group of `len` values, `data[0]`, `data[stride]`, …, onto
/// `format` and write each back dequantized, in place and without
/// allocating. The result is bit for bit what
/// `GroupQuantizer::fixed(format, len)` followed by
/// [`QuantizedMatrix::dequant_all`] gives for that group.
///
/// # Panics
///
/// Panics if `data` is too short for `len` values at `stride`.
#[inline]
pub fn qdq_group(format: QuantFormat, data: &mut [f32], len: usize, stride: usize) {
    assert!(
        len == 0 || (len - 1) * stride < data.len(),
        "group of {len} at stride {stride} overruns {} values",
        data.len()
    );
    if stride == 1 {
        // Contiguous (a KV page's K groups): plain slice loops vectorize.
        let group = &mut data[..len];
        GroupRounding::new(format, group.iter().copied()).write_values(group.iter_mut());
    } else {
        let r = GroupRounding::new(format, data.iter().step_by(stride).take(len).copied());
        r.write_values(data.iter_mut().step_by(stride).take(len));
    }
}

/// Round one group of `len` values, `data[0]`, `data[stride]`, …, onto
/// `format`'s FP4 grid as codes: calls `put(i, code)` for each value and
/// returns the group's FP16 scale bits. The codes and scale are the ones
/// [`GroupQuantizer`] stores, and `table[code] × scale` (with the
/// format's [`Fp4Grid::signed_table`] and the scale's f32 value) is bit
/// for bit the word [`qdq_group`] writes.
///
/// Returns `None` without calling `put` when the grid does not cover the
/// group: a format other than the three FP4 formats, a group holding NaN
/// or ±inf, or a scale that rounds to FP16 zero.
///
/// # Panics
///
/// Panics if `data` is too short for `len` values at `stride`.
#[inline]
pub fn code_group(
    format: QuantFormat,
    data: &[f32],
    len: usize,
    stride: usize,
    mut put: impl FnMut(usize, u8),
) -> Option<u16> {
    assert!(
        len == 0 || (len - 1) * stride < data.len(),
        "group of {len} at stride {stride} overruns {} values",
        data.len()
    );
    let values = data.iter().step_by(stride).take(len).copied();
    let r = GroupRounding::new(format, values.clone());
    let grid = r.grid.as_ref()?;
    for (i, w) in values.enumerate() {
        put(i, grid.code(w));
    }
    Some(r.scale_bits)
}

/// How one group rounds onto a format (Eq. 1): its FP16 scale and, for the
/// FP4 formats, its [`ScaledGrid`].
pub(crate) struct GroupRounding {
    format: QuantFormat,
    /// FP16 bits of the group scale.
    pub(crate) scale_bits: u16,
    /// The scale the codes are taken against (the FP16 value).
    scale: f64,
    /// `None` sends every value through softfloat `encode`.
    grid: Option<ScaledGrid>,
}

impl GroupRounding {
    /// The rounding of the group `values` onto `format`.
    #[inline]
    pub(crate) fn new(format: QuantFormat, values: impl Iterator<Item = f32> + Clone) -> Self {
        // |w|'s bits order as |w| does, with NaN and ±inf above every
        // finite value, so one integer max finds the group maximum.
        let top = values.clone().fold(0u32, |m, w| m.max(w.to_bits() & 0x7fff_ffff));
        let finite = top < 0x7f80_0000;
        let max_abs = if finite {
            f32::from_bits(top) as f64
        } else {
            // f64::max skips NaN: the scale comes from the other values.
            values.fold(0f64, |m, w| m.max((w as f64).abs()))
        };
        let grid = Fp4Grid::of(format);
        // Scale = w_max / F_max, stored (and therefore applied) in FP16 —
        // the same value the AxScale unit will stream (Eq. 1).
        let scale = if max_abs == 0.0 {
            1.0
        } else {
            max_abs / grid.map_or_else(|| format.max_abs(), |g| g.max_abs() as f64)
        };
        let scale_bits = fp16_bits(scale);
        let scale = fp16_value(scale_bits);
        let grid = grid.filter(|_| finite && scale > 0.0).map(|g| g.scaled(scale));
        GroupRounding {
            format,
            scale_bits,
            scale: scale as f64,
            grid,
        }
    }

    /// The code of `w`.
    #[inline]
    pub(crate) fn code(&self, w: f32) -> u8 {
        match &self.grid {
            Some(g) => g.code(w),
            None => self.format.encode(w as f64 / self.scale),
        }
    }

    /// The reconstruction `decode(code) × scale` of `w`.
    #[inline]
    pub(crate) fn value(&self, w: f32) -> f64 {
        match &self.grid {
            Some(g) => g.value(w) as f64,
            None => self.format.decode(self.code(w)) * self.scale,
        }
    }

    /// Replace each value of the group with its reconstruction, in f32.
    #[inline]
    fn write_values<'a>(&self, group: impl Iterator<Item = &'a mut f32>) {
        match &self.grid {
            Some(g) => group.for_each(|x| *x = g.value(*x)),
            None => group.for_each(|x| *x = self.value(*x) as f32),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::QuantFormat;

    fn ramp(k: usize, n: usize) -> Vec<f32> {
        (0..k * n).map(|i| ((i * 31 % 101) as f32 - 50.0) / 37.0).collect()
    }

    #[test]
    fn error_bounded_by_half_ulp_times_scale() {
        let (k, n) = (64, 8);
        let w = ramp(k, n);
        for fmt in [QuantFormat::E1M2, QuantFormat::E2M1, QuantFormat::INT4] {
            let q = GroupQuantizer::fixed(fmt, 32).quantize(&w, k, n);
            for kk in 0..k {
                for c in 0..n {
                    let scale = q.scale(kk, c);
                    let err = (q.dequant(kk, c) - w[kk * n + c] as f64).abs();
                    // Grid spacing ≤ max_abs/3.5-ish for FP4; a loose but
                    // sound bound: half the coarsest grid step.
                    let step = match fmt {
                        QuantFormat::Int { .. } => 1.0,
                        QuantFormat::Fp(f) => f.ulp_at(f.max_finite()),
                    };
                    assert!(
                        err <= scale * step * 0.5 + 1e-9,
                        "{fmt} ({kk},{c}): err {err} scale {scale}"
                    );
                }
            }
        }
    }

    #[test]
    fn group_max_is_representable() {
        // The element with |w| = group max must quantize to ±F_max·scale,
        // preserving the group's dynamic range.
        let (k, n) = (32, 4);
        let mut w = ramp(k, n);
        w[5 * n + 2] = 9.0; // clear group max for group 0, col 2
        let q = GroupQuantizer::fixed(QuantFormat::E2M1, 32).quantize(&w, k, n);
        let d = q.dequant(5, 2);
        let rel = (d - 9.0f64).abs() / 9.0;
        assert!(rel < 0.002, "max element reconstructed as {d}");
    }

    #[test]
    fn zero_group_stays_zero() {
        let (k, n) = (32, 2);
        let w = vec![0f32; k * n];
        let q = GroupQuantizer::fixed(QuantFormat::E2M1, 16).quantize(&w, k, n);
        assert!(q.dequant_all().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn int4_matches_classic_rtn() {
        let (k, n) = (16, 1);
        let w: Vec<f32> = (0..16).map(|i| i as f32 - 7.5).collect();
        let q = GroupQuantizer::fixed(QuantFormat::INT4, 16).quantize(&w, k, n);
        // Scale = 8.5/7; codes = round(w/scale).
        let scale = q.scale(0, 0);
        for (i, &wv) in w.iter().enumerate() {
            let expect = (wv as f64 / scale).round_ties_even().clamp(-7.0, 7.0) * scale;
            assert!((q.dequant(i, 0) - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn per_group_scales_differ() {
        let (k, n) = (64, 1);
        let mut w = vec![0.01f32; k * n];
        w[32..64].fill(5.0);
        let q = GroupQuantizer::fixed(QuantFormat::E2M1, 32).quantize(&w, k, n);
        assert!(q.scale(0, 0) < q.scale(32, 0) / 100.0);
        // Fine-grained scale keeps the small group accurate.
        assert!((q.dequant(3, 0) - 0.01).abs() < 0.002);
    }

    #[test]
    fn codes_dequantize_to_the_qdq_words() {
        let w = ramp(64, 3);
        for fmt in [QuantFormat::E1M2, QuantFormat::E2M1, QuantFormat::E3M0] {
            let table = Fp4Grid::of(fmt).expect("FP4 grid").signed_table();
            for stride in [1, 3] {
                let mut codes = [0u8; 16];
                let bits = code_group(fmt, &w, 16, stride, |i, c| codes[i] = c).expect("covered");
                let mut qdq = w.clone();
                qdq_group(fmt, &mut qdq, 16, stride);
                for (i, &c) in codes.iter().enumerate() {
                    let got = table[usize::from(c)] * fp16_value(bits);
                    assert_eq!(got.to_bits(), qdq[i * stride].to_bits(), "{fmt} stride {stride} i {i}");
                }
            }
        }
        let mut hit = false;
        assert_eq!(code_group(QuantFormat::INT4, &w, 16, 1, |_, _| hit = true), None);
        let nan = [1.0, f32::NAN, 2.0, 0.5];
        assert_eq!(code_group(QuantFormat::E2M1, &nan, 4, 1, |_, _| hit = true), None);
        let tiny = [1e-9f32, -1e-9, 0.0, 1e-10];
        assert_eq!(code_group(QuantFormat::E1M2, &tiny, 4, 1, |_, _| hit = true), None);
        assert!(!hit, "an uncovered group writes no code");
    }

    #[test]
    #[should_panic(expected = "not a multiple of group size")]
    fn rejects_ragged_groups() {
        GroupQuantizer::fixed(QuantFormat::E2M1, 48).quantize(&ramp(64, 2), 64, 2);
    }
}
