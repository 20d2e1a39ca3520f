//! Block-wise adaptive format-aware selection — §4.4.1 of the paper
//! (Eq. 12): for each weight block, evaluate candidate FP4 formats and keep
//! the one minimizing the reconstruction error under the calibration
//! activation distribution.

use crate::formats::QuantFormat;
use crate::group::GroupRounding;

/// Calibration statistics driving Eq. 12.
///
/// The full objective `argmin_d ‖A·Ŵ_d − A·W‖²` expands (for zero-mean,
/// uncorrelated calibration channels — the standard static-quantization
/// assumption) to a *channel-energy-weighted* weight MSE:
/// `Σ_k E[a_k²] · (ŵ_k − w_k)²`. We therefore carry one second moment per
/// input channel, computed from calibration activations.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationStats {
    /// `E[a_k²]` per input channel, length `k`.
    pub channel_energy: Vec<f32>,
}

impl CalibrationStats {
    /// Build from raw calibration activations (row-major `samples × k`).
    ///
    /// # Panics
    ///
    /// Panics if `acts.len()` is not a multiple of `k` or is empty.
    pub fn from_activations(acts: &[f32], k: usize) -> Self {
        assert!(k > 0 && !acts.is_empty() && acts.len().is_multiple_of(k), "bad calibration shape");
        let samples = acts.len() / k;
        let mut energy = vec![0f32; k];
        for s in 0..samples {
            for c in 0..k {
                let a = acts[s * k + c];
                energy[c] += a * a;
            }
        }
        for e in &mut energy {
            *e /= samples as f32;
        }
        CalibrationStats { channel_energy: energy }
    }

    /// Uniform (unweighted) statistics — plain weight MSE.
    pub fn uniform(k: usize) -> Self {
        CalibrationStats {
            channel_energy: vec![1.0; k],
        }
    }
}

/// How the quantizer assigns a format to each block.
#[derive(Debug, Clone)]
pub enum FormatPolicy {
    /// One fixed format everywhere.
    Fixed(QuantFormat),
    /// Adaptive per-block FP4 selection among {E3M0, E2M1, E1M2} (Eq. 12).
    AdaptiveFp4 {
        /// Block width along the output-channel dimension.
        block_cols: usize,
        /// Optional calibration statistics; `None` falls back to plain MSE.
        calib: Option<CalibrationStats>,
    },
}

impl FormatPolicy {
    /// The candidate set of the adaptive policy, in the paper's order.
    pub fn fp4_candidates() -> [QuantFormat; 3] {
        [QuantFormat::E3M0, QuantFormat::E2M1, QuantFormat::E1M2]
    }

    /// Select the format for block `(g, bc)` of the weight matrix.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn select(
        &self,
        weights: &[f32],
        k: usize,
        n: usize,
        g: usize,
        group_size: usize,
        bc: usize,
        block_cols: usize,
    ) -> QuantFormat {
        match self {
            FormatPolicy::Fixed(f) => *f,
            FormatPolicy::AdaptiveFp4 { calib, .. } => {
                debug_assert!(k.is_multiple_of(group_size) && n.is_multiple_of(block_cols));
                let mut best = QuantFormat::E2M1;
                let mut best_err = f64::INFINITY;
                for cand in Self::fp4_candidates() {
                    let err = block_error(weights, n, g, group_size, bc, block_cols, cand, calib);
                    if err < best_err {
                        best_err = err;
                        best = cand;
                    }
                }
                best
            }
        }
    }
}

/// Activation-weighted squared reconstruction error of quantizing one block
/// with `format` (the inner term of Eq. 12 under the diagonal-covariance
/// expansion).
#[allow(clippy::too_many_arguments)]
fn block_error(
    weights: &[f32],
    n: usize,
    g: usize,
    group_size: usize,
    bc: usize,
    block_cols: usize,
    format: QuantFormat,
    calib: &Option<CalibrationStats>,
) -> f64 {
    let mut err = 0.0;
    for col in bc * block_cols..(bc + 1) * block_cols {
        // Rounded exactly as the quantizer will round it.
        let rows = g * group_size..(g + 1) * group_size;
        let column = weights[rows.start * n + col..].iter().step_by(n).take(group_size).copied();
        let r = GroupRounding::new(format, column.clone());
        for (kk, w) in rows.zip(column) {
            let (w, rec) = (w as f64, r.value(w));
            let weight = match calib {
                Some(c) => c.channel_energy[kk] as f64,
                None => 1.0,
            };
            err += weight * (rec - w) * (rec - w);
        }
    }
    err
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::GroupQuantizer;

    /// A "sharp peaks" block: values clustered at powers of two — E3M0
    /// territory per the paper's Fig. 7 (layer-0 style distributions).
    fn pow2_block(k: usize, n: usize) -> Vec<f32> {
        (0..k * n)
            .map(|i| {
                let mag = [0.25f32, 0.5, 1.0, 2.0][i % 4];
                if i % 3 == 0 {
                    -mag
                } else {
                    mag
                }
            })
            .collect()
    }

    /// A uniform-ish block: dense near-linear grid — E1M2 territory.
    fn uniform_block(k: usize, n: usize) -> Vec<f32> {
        (0..k * n).map(|i| (i * 7919 % 1000) as f32 / 500.0 - 1.0).collect()
    }

    #[test]
    fn selects_e3m0_for_power_of_two_weights() {
        let (k, n) = (32, 4);
        let w = pow2_block(k, n);
        let q = GroupQuantizer::adaptive_fp4(32, 4, None).quantize(&w, k, n);
        assert_eq!(q.formats[0], QuantFormat::E3M0);
        assert!(q.mse(&w) < 1e-9, "power-of-two weights must be lossless in E3M0");
    }

    #[test]
    fn selects_mantissa_rich_format_for_uniform_weights() {
        let (k, n) = (32, 4);
        let w = uniform_block(k, n);
        let q = GroupQuantizer::adaptive_fp4(32, 4, None).quantize(&w, k, n);
        assert!(
            matches!(q.formats[0], QuantFormat::E1M2 | QuantFormat::E2M1),
            "got {}",
            q.formats[0]
        );
        // And adaptive beats forcing E3M0.
        let q_pow2 = GroupQuantizer::fixed(QuantFormat::E3M0, 32).quantize(&w, k, n);
        assert!(q.mse(&w) < q_pow2.mse(&w));
    }

    #[test]
    fn adaptive_never_loses_to_any_fixed_format() {
        // By construction adaptive picks the per-block argmin, so full-matrix
        // (unweighted) MSE is ≤ every fixed FP4 choice.
        let (k, n) = (64, 8);
        let mut w = pow2_block(k, n);
        w.extend(uniform_block(k, n));
        let (k2, n2) = (128, 8);
        let adaptive = GroupQuantizer::adaptive_fp4(32, 4, None).quantize(&w, k2, n2);
        for f in FormatPolicy::fp4_candidates() {
            let fixed = GroupQuantizer::fixed(f, 32).quantize(&w, k2, n2);
            assert!(
                adaptive.mse(&w) <= fixed.mse(&w) + 1e-12,
                "adaptive {} > fixed {} ({f})",
                adaptive.mse(&w),
                fixed.mse(&w)
            );
        }
    }

    #[test]
    fn blocks_select_independently() {
        let (k, n) = (32, 8);
        let mut w = vec![0f32; k * n];
        // Columns 0..4: powers of two; columns 4..8: uniform.
        for kk in 0..k {
            for c in 0..4 {
                w[kk * n + c] = [0.25, 0.5, 1.0, 2.0][(kk + c) % 4];
            }
            for c in 4..8 {
                w[kk * n + c] = ((kk * 13 + c * 7) % 100) as f32 / 50.0 - 1.0;
            }
        }
        let q = GroupQuantizer::adaptive_fp4(32, 4, None).quantize(&w, k, n);
        assert_eq!(q.formats.len(), 2);
        assert_eq!(q.formats[0], QuantFormat::E3M0);
        assert_ne!(q.formats[1], QuantFormat::E3M0);
    }

    #[test]
    fn calibration_energy_steers_selection() {
        // A handcrafted group where the two formats fail on *different*
        // channels (block scale: E1M2 → 1.0, E3M0 → 3.5/16 = 0.21875):
        //   row 0: 3.5       — exact in both formats;
        //   row 1: 2.5       — exact in E1M2, badly off E3M0's log grid;
        //   rows 2–3: 3.5/32 — exact in E3M0, rounds to 0 in E1M2.
        // Unweighted MSE favours E1M2 (its error is the small one); putting
        // the calibration energy on rows 2–3 flips the choice to E3M0.
        let (k, n) = (4, 1);
        let w = vec![3.5f32, 2.5, 0.109375, 0.109375];
        let q_plain = GroupQuantizer::adaptive_fp4(4, 1, None).quantize(&w, k, n);
        assert_eq!(q_plain.formats[0], QuantFormat::E1M2);
        let calib = CalibrationStats {
            channel_energy: vec![1.0, 0.01, 100.0, 100.0],
        };
        let q = GroupQuantizer::adaptive_fp4(4, 1, Some(calib)).quantize(&w, k, n);
        assert_eq!(q.formats[0], QuantFormat::E3M0);
    }

    #[test]
    fn stats_from_activations() {
        let acts = [1.0f32, 0.0, 3.0, 0.0, 1.0, 4.0];
        let s = CalibrationStats::from_activations(&acts, 3);
        assert_eq!(s.channel_energy, vec![0.5, 0.5, 12.5]);
    }

    #[test]
    #[should_panic(expected = "bad calibration shape")]
    fn stats_reject_ragged() {
        CalibrationStats::from_activations(&[1.0, 2.0, 3.0], 2);
    }
}
