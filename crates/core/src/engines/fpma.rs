//! The uniform-FPMA baseline (§6.1.3): an FPC whose multipliers are
//! replaced by original (same-precision) FPMA adders.
//!
//! Weights are dequantized to the activation format first (indirect GEMM,
//! Fig. 3b), each product is approximated with `R = X + Y − B`, and partial
//! sums accumulate through activation-format adders — the configuration the
//! paper describes for its FPMA baseline. No subnormal handling, no
//! compensation.

use crate::engines::prepared::{check_prepared_shapes, drive, drive_lut, verified_single_tier};
use crate::engines::{act, check_shapes, lut, GemmEngine, PreparedGemm};
use crate::error::GemmError;
use crate::reliability::{self, Verifier};
use axcore_fpma::uniform::fpma_mul;
use axcore_parallel::arena;
use axcore_quant::QuantizedMatrix;
use axcore_softfloat::{FpFormat, FP32};
use std::collections::HashMap;

/// ABFT relative tolerance: the FPMA product approximation (`X + Y − B`)
/// carries up to ~11% per-product error on top of quantization.
const ABFT_REL: f64 = 0.5;

/// Uniform-precision FPMA GEMM core.
#[derive(Debug, Clone, Copy)]
pub struct FpmaEngine {
    act: FpFormat,
}

impl FpmaEngine {
    /// An FPMA core for the given activation format.
    pub fn new(act: FpFormat) -> Self {
        FpmaEngine { act }
    }
}

impl GemmEngine for FpmaEngine {
    fn name(&self) -> String {
        format!("FPMA-{}", self.act.name)
    }

    fn try_gemm(
        &self,
        a: &[f32],
        m: usize,
        w: &QuantizedMatrix,
        out: &mut [f32],
    ) -> Result<(), GemmError> {
        check_shapes(a, m, w, out)?;
        self.preload(w).try_gemm(a, m, out)
    }

    fn clone_box(&self) -> Box<dyn GemmEngine> {
        Box::new(*self)
    }

    fn try_prepare(&self, w: &QuantizedMatrix) -> Result<Box<dyn PreparedGemm>, GemmError> {
        Ok(Box::new(self.preload(w)))
    }
}

impl FpmaEngine {
    /// Dequantize into activation-format bit patterns (indirect GEMM),
    /// stored column-major so the MAC loop walks contiguously.
    fn preload(&self, w: &QuantizedMatrix) -> FpmaPrepared {
        let act = self.act;
        let mut wr = vec![0u32; w.k * w.n];
        for c in 0..w.n {
            for k in 0..w.k {
                wr[c * w.k + k] = act.encode(w.dequant(k, c));
            }
        }
        // LUT-tier palette: scales are baked into the dequantized bit
        // patterns, so the table cannot key on raw codes — but group
        // quantization reuses scale values heavily, so the set of
        // *distinct* patterns stays small. Dedup it and keep a per-element
        // palette index alongside the patterns.
        let mut palette: Vec<u32> = Vec::new();
        let mut seen: HashMap<u32, u32> = HashMap::new();
        let pidx: Vec<u32> = wr
            .iter()
            .map(|&bits| {
                *seen.entry(bits).or_insert_with(|| {
                    palette.push(bits);
                    palette.len() as u32 - 1
                })
            })
            .collect();
        let state_sum = state_checksum(&wr, &palette, &pidx);
        FpmaPrepared {
            act,
            // Accumulation format: FP16/BF16 activations use same-width
            // adders, FP32 activations use FP32 adders (paper §6.1.3).
            acc_fmt: if act == FP32 { FP32 } else { act },
            wr,
            palette,
            pidx,
            k: w.k,
            n: w.n,
            state_sum,
            w4a8: super::w4a8::W4a8Prep::try_new(w),
            verifier: Verifier::new(w, ABFT_REL),
        }
    }
}

/// Integrity checksum over every weight-derived table the two execution
/// paths read (direct: `wr`; LUT: `palette` + `pidx`).
fn state_checksum(wr: &[u32], palette: &[u32], pidx: &[u32]) -> u64 {
    let h = reliability::fold(reliability::CHECKSUM_SEED, wr, |v| v as u64);
    let h = reliability::fold(h, palette, |v| v as u64);
    reliability::fold(h, pidx, |v| v as u64)
}

/// FPMA-engine prepared weights: activation-format bit patterns of the
/// dequantized matrix, plus their deduplicated palette for the LUT tier.
#[derive(Debug)]
pub struct FpmaPrepared {
    act: FpFormat,
    acc_fmt: FpFormat,
    wr: Vec<u32>,
    /// Distinct dequantized bit patterns.
    palette: Vec<u32>,
    /// Palette index per element, same column-major layout as `wr`.
    pidx: Vec<u32>,
    k: usize,
    n: usize,
    /// Integrity checksum of `wr` + `palette` + `pidx` at preload.
    state_sum: u64,
    /// W4A8 integer-activation planes, present when every block format
    /// decodes onto the tier's integer grid (see [`super::w4a8`]).
    w4a8: Option<super::w4a8::W4a8Prep>,
    verifier: Verifier,
}

/// Arena-recycled: `arow` is fully rewritten for each new row.
struct FpmaScratch {
    row: usize,
    arow: arena::ArenaVec<u32>,
}

/// LUT-tier table: the encoded activation row and one product per
/// (activation element, palette entry), laid out `kk * palette_len + p`.
/// Arena-recycled: the build rewrites every `(element, palette)` slot.
struct FpmaLutTable {
    arow: arena::ArenaVec<u32>,
    tbl: arena::ArenaVec<u32>,
}

impl PreparedGemm for FpmaPrepared {
    fn k(&self) -> usize {
        self.k
    }

    fn n(&self) -> usize {
        self.n
    }

    fn try_gemm(&self, a: &[f32], m: usize, out: &mut [f32]) -> Result<(), GemmError> {
        check_prepared_shapes(a, m, self.k, self.n, out)?;
        // W4A8 integer-activation tier (opt-in, lossy): verified like any
        // single-tier run, recovering onto the FP direct path — which also
        // serves as the quarantine fallback.
        if let Some(w4a8) = self
            .w4a8
            .as_ref()
            .filter(|_| act::use_w4a8(true, m, self.n))
            .filter(|_| !axcore_parallel::health::is_quarantined(axcore_parallel::Tier::W4a8))
        {
            return verified_single_tier(
                &self.verifier,
                axcore_parallel::Tier::W4a8,
                "fpma prepared gemm",
                a,
                m,
                self.n,
                out,
                |o| w4a8.gemm(a, m, o),
                || w4a8.checksum_ok(),
                |o| self.gemm_direct(a, m, o),
            );
        }
        verified_single_tier(
            &self.verifier,
            if lut::use_lut(self.n, self.palette.len()) {
                axcore_parallel::Tier::SwarLut
            } else {
                axcore_parallel::Tier::Direct
            },
            "fpma prepared gemm",
            a,
            m,
            self.n,
            out,
            |o| self.run(a, m, o),
            || state_checksum(&self.wr, &self.palette, &self.pidx) == self.state_sum,
            |o| {
                FpmaEngine::new(self.act)
                    .preload(self.verifier.pristine())
                    .gemm_direct(a, m, o)
            },
        )
    }

    fn fault_sites(&self) -> &'static [&'static str] {
        &["weights", "palette"]
    }

    fn fault_surface(&self, site: &str) -> (usize, u32) {
        match site {
            "weights" => (self.wr.len(), 32),
            "palette" => (self.palette.len(), 32),
            _ => (0, 0),
        }
    }

    fn inject_fault(&mut self, site: &str, word: usize, bit: u32) -> bool {
        match site {
            "weights" => {
                self.wr[word] ^= 1 << (bit % 32);
                true
            }
            "palette" => {
                self.palette[word] ^= 1 << (bit % 32);
                true
            }
            _ => false,
        }
    }
}

impl FpmaPrepared {
    /// The unverified execution path (LUT/direct dispatch).
    fn run(&self, a: &[f32], m: usize, out: &mut [f32]) {
        if lut::use_lut(self.n, self.palette.len()) {
            self.gemm_lut(a, m, out);
        } else {
            self.gemm_direct(a, m, out);
        }
    }

    fn gemm_direct(&self, a: &[f32], m: usize, out: &mut [f32]) {
        let (k, n) = (self.k, self.n);
        let mk = || FpmaScratch { row: usize::MAX, arow: arena::take(k, 0u32) };
        drive(m, k, n, 1, out, mk, |s: &mut FpmaScratch, i, col0, cols| {
            if s.row != i {
                for (kk, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
                    s.arow[kk] = self.act.encode(av as f64);
                }
                s.row = i;
            }
            for (j, o) in cols.iter_mut().enumerate() {
                let c = col0 + j;
                let wcol = &self.wr[c * k..(c + 1) * k];
                // Accumulate with format-width adds (each partial sum is
                // rounded back to the accumulation format, as the baseline's
                // in-PE adders would).
                let mut acc_bits = self.acc_fmt.encode(0.0);
                for (&av, &wv) in s.arow.iter().zip(wcol) {
                    let p = fpma_mul(self.act, av, wv, 0);
                    let sum = self.acc_fmt.decode(acc_bits) + self.act.decode(p);
                    acc_bits = self.acc_fmt.encode(sum);
                }
                *o = self.acc_fmt.decode(acc_bits) as f32;
            }
        });
    }

    /// LUT-tier path: one `fpma_mul` per (element, distinct weight
    /// pattern) instead of per (element, column); the column loop gathers
    /// products by palette index and runs the identical format-width add
    /// chain, so results are bit-identical to the direct path.
    fn gemm_lut(&self, a: &[f32], m: usize, out: &mut [f32]) {
        let (k, n) = (self.k, self.n);
        let np = self.palette.len();
        let mk_table =
            || FpmaLutTable { arow: arena::take(k, 0u32), tbl: arena::take(k * np, 0u32) };
        // The product table is palette-global (one entry per distinct
        // weight pattern), so a shard cannot build less than all of it;
        // the column range is ignored and each shard builds the full
        // table in its own arena slot, in parallel.
        let build = |t: &mut FpmaLutTable, _slot: usize, i: usize, _col0: usize, _cols: usize| {
            for (kk, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
                t.arow[kk] = self.act.encode(av as f64);
            }
            for (kk, &ab) in t.arow.iter().enumerate() {
                let row = &mut t.tbl[kk * np..(kk + 1) * np];
                for (slot, &wv) in row.iter_mut().zip(&self.palette) {
                    *slot = fpma_mul(self.act, ab, wv, 0);
                }
            }
        };
        let gather = |t: &mut FpmaLutTable, _row0, _rows, col0: usize, cols: &mut [f32]| {
            for (j, o) in cols.iter_mut().enumerate() {
                let c = col0 + j;
                let idxs = &self.pidx[c * k..(c + 1) * k];
                let mut acc_bits = self.acc_fmt.encode(0.0);
                for (kk, &p) in idxs.iter().enumerate() {
                    let prod = t.tbl[kk * np + p as usize];
                    let sum = self.acc_fmt.decode(acc_bits) + self.act.decode(prod);
                    acc_bits = self.acc_fmt.encode(sum);
                }
                *o = self.acc_fmt.decode(acc_bits) as f32;
            }
        };
        drive_lut(m, k, n, 1, 1, out, mk_table, build, gather);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::ExactEngine;
    use axcore_quant::{GroupQuantizer, QuantFormat};
    use axcore_softfloat::FP16;

    #[test]
    fn approximates_exact_engine() {
        let (m, k, n) = (2, 64, 4);
        let w: Vec<f32> = (0..k * n)
            .map(|i| ((i * 37 % 101) as f32 / 50.0 - 1.0) * 0.3)
            .collect();
        let q = GroupQuantizer::fixed(QuantFormat::E2M1, 64).quantize(&w, k, n);
        let a: Vec<f32> = (0..m * k).map(|i| (i * 53 % 97) as f32 / 48.0 - 1.0).collect();
        let (mut o_fpma, mut o_exact) = (vec![0f32; m * n], vec![0f32; m * n]);
        FpmaEngine::new(FP16).gemm(&a, m, &q, &mut o_fpma);
        ExactEngine::new(FP16).gemm(&a, m, &q, &mut o_exact);
        for j in 0..m * n {
            let rel = (o_fpma[j] - o_exact[j]).abs() / o_exact[j].abs().max(0.5);
            assert!(rel < 0.2, "elem {j}: {} vs {}", o_fpma[j], o_exact[j]);
        }
        // And it is *not* exact (the approximation must show).
        assert!(o_fpma.iter().zip(&o_exact).any(|(a, b)| a != b));
    }

    #[test]
    fn lut_tier_is_bit_identical_to_direct() {
        use crate::engines::{with_lut_policy, LutPolicy};
        let (m, k, n) = (2, 96, 8);
        let w: Vec<f32> = (0..k * n)
            .map(|i| ((i * 41 % 113) as f32 / 56.0 - 1.0) * 0.4)
            .collect();
        let q = GroupQuantizer::fixed(QuantFormat::E2M1, 32).quantize(&w, k, n);
        let mut a: Vec<f32> = (0..m * k).map(|i| (i * 59 % 89) as f32 / 44.0 - 1.0).collect();
        let mut out_d = vec![0f32; m * n];
        let mut out_l = vec![0f32; m * n];
        a[3] = 0.0;
        let p = FpmaEngine::new(FP16).preload(&q);
        with_lut_policy(LutPolicy::Never, || p.gemm(&a, m, &mut out_d));
        with_lut_policy(LutPolicy::Always, || p.gemm(&a, m, &mut out_l));
        assert_eq!(
            out_d.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            out_l.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn exact_on_powers_of_two() {
        let (k, n) = (32, 1);
        let w = vec![0.5f32; k * n];
        let q = GroupQuantizer::fixed(QuantFormat::E2M1, 32).quantize(&w, k, n);
        let a = vec![2.0f32; k];
        let mut out = vec![0f32; 1];
        FpmaEngine::new(FP16).gemm(&a, 1, &q, &mut out);
        assert_eq!(out[0], 32.0);
    }
}
