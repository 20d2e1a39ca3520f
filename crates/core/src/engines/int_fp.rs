//! FIGNA- and FIGLUT-style baselines (§6.1.3): exact FP-INT mixed-precision
//! GEMM units for weight-only-quantized LLMs.
//!
//! Both designs compute the *numerically exact* sum
//! `Σ a_k · code_k × scale_g` — FIGNA by converting the FP activation to
//! fixed point and using integer multipliers, FIGLUT by precomputing lookup
//! tables of activation sums and streaming weight bits serially. They
//! differ in hardware cost (modelled in `axcore-hwmodel`), not numerics, so
//! both share this implementation with different names.

use crate::engines::prepared::{check_prepared_shapes, drive, drive_lut, verified_single_tier};
use crate::engines::{act, check_shapes, lut, GemmEngine, PreparedGemm};
use crate::error::GemmError;
use crate::reliability::{self, Verifier};
use axcore_parallel::arena;
use axcore_quant::{CodePlanes, QuantFormat, QuantizedMatrix};
use axcore_softfloat::FpFormat;

/// ABFT relative tolerance: the INT-FP datapath is numerically exact up
/// to activation quantization and FP32 group accumulation.
const ABFT_REL: f64 = 0.1;

/// Shared prepared state for the exact INT-FP engines: integer codes
/// decoded once, plus the per-(group, column) scales.
#[derive(Debug)]
pub struct IntFpPrepared {
    act: FpFormat,
    /// Decoded integer code per element (`k × n`, column-major).
    dec: Vec<i32>,
    /// Decoded scale per (group, column).
    scales: Vec<f64>,
    /// Largest *positive* decoded value over all block formats. The
    /// two's-complement minimum is `-(vmax + 1)` (a symmetric quantizer
    /// never emits it, but hand-built matrices may), so LUT entries
    /// cover decoded values `-(vmax + 1) ..= vmax`.
    vmax: i32,
    /// Per-column planes of LUT offsets (`dec + vmax + 1`): the gather's
    /// weight stream. Nibble-packed (two offsets per byte, SWAR-expanded)
    /// when the offset span fits 4 bits and the shape allows it; byte
    /// planes otherwise.
    planes: CodePlanes,
    k: usize,
    n: usize,
    group_size: usize,
    /// Integrity checksum of `dec` + `scales` + `planes` at preload.
    state_sum: u64,
    /// W4A8 integer-activation planes, present when every block format
    /// decodes onto the tier's integer grid — INT4, not INT8 (see
    /// [`super::w4a8`]).
    w4a8: Option<super::w4a8::W4a8Prep>,
    verifier: Verifier,
}

/// Shared weight preload for the exact INT-FP engines (panicking shim
/// over [`try_int_fp_preload`], kept for tests and legacy call sites).
fn int_fp_preload(act: FpFormat, w: &QuantizedMatrix) -> IntFpPrepared {
    try_int_fp_preload(act, w).unwrap_or_else(|e| panic!("{e}"))
}

/// Integrity checksum over every weight-derived table the two execution
/// paths read (direct: `dec` + `scales`; LUT: `planes` + `scales`).
fn state_checksum(dec: &[i32], scales: &[f64], planes: &CodePlanes) -> u64 {
    let h = reliability::fold(reliability::CHECKSUM_SEED, dec, |v| v as u32 as u64);
    let h = reliability::fold(h, scales, f64::to_bits);
    reliability::mix(h, planes.checksum())
}

/// Shared weight preload for the exact INT-FP engines.
fn try_int_fp_preload(act: FpFormat, w: &QuantizedMatrix) -> Result<IntFpPrepared, GemmError> {
    for f in &w.formats {
        if !matches!(f, QuantFormat::Int { .. }) {
            return Err(GemmError::FormatOverflow {
                engine: "INT-FP engines",
                requirement: "require INT-quantized weights",
                got: f.to_string(),
            });
        }
    }
    // Column-major (`col * k + k`) so the group MAC loop is contiguous.
    let mut dec = vec![0i32; w.k * w.n];
    for c in 0..w.n {
        for k in 0..w.k {
            dec[c * w.k + k] = w.format(k, c).decode_int(w.code(k, c));
        }
    }
    let groups = w.num_groups();
    let mut scales = vec![0f64; groups * w.n];
    for g in 0..groups {
        for c in 0..w.n {
            scales[g * w.n + c] = w.scale(g * w.group_size, c);
        }
    }
    let vmax = w.formats.iter().map(|f| f.max_abs() as i32).max().unwrap_or(0);
    // Plane the gather offsets (`dec + vlo`, always in `0..span` with
    // `span = 2 * vmax + 2`) once at preload. INT4 spans 16 values, so
    // its offsets nibble-pack; INT8 falls back to byte planes — either
    // way the weight stream shrinks 4–8× versus re-reading `dec`.
    let span = 2 * vmax as usize + 2;
    let vlo = vmax + 1;
    let width = if span <= 16 && w.k.is_multiple_of(2) && w.group_size.is_multiple_of(2) { 4 } else { 8 };
    let planes = CodePlanes::from_fn(w.k, w.n, w.group_size, width, |kk, col| {
        (dec[col * w.k + kk] + vlo) as u8
    });
    let state_sum = state_checksum(&dec, &scales, &planes);
    Ok(IntFpPrepared {
        act,
        dec,
        scales,
        vmax,
        planes,
        k: w.k,
        n: w.n,
        group_size: w.group_size,
        state_sum,
        w4a8: super::w4a8::W4a8Prep::try_new(w),
        verifier: Verifier::new(w, ABFT_REL),
    })
}

/// Arena-recycled: `arow` is fully rewritten for each new row.
struct IntFpScratch {
    row: usize,
    arow: arena::ArenaVec<f64>,
}

/// LUT-tier table: the quantized activation row and one product per
/// (activation element, decoded code value), laid out
/// `kk * span + (value + vmax + 1)` with `span = 2 * vmax + 2` (the
/// extra slot is the two's-complement minimum `-(vmax + 1)`). Keying on
/// the decoded value (not the raw code) keeps the table format-agnostic
/// even across mixed-width blocks.
/// Arena-recycled: the build rewrites every `(element, value)` slot.
struct IntFpLutTable {
    arow: arena::ArenaVec<f64>,
    tbl: arena::ArenaVec<f64>,
}

impl PreparedGemm for IntFpPrepared {
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
                "int-fp prepared gemm",
                a,
                m,
                self.n,
                out,
                |o| w4a8.gemm(a, m, o),
                || w4a8.checksum_ok(),
                |o| self.gemm_direct(a, m, o),
            );
        }
        let span = 2 * self.vmax as usize + 2;
        verified_single_tier(
            &self.verifier,
            if lut::use_lut(self.n, span) {
                axcore_parallel::Tier::SwarLut
            } else {
                axcore_parallel::Tier::Direct
            },
            "int-fp prepared gemm",
            a,
            m,
            self.n,
            out,
            |o| self.run(a, m, o),
            || state_checksum(&self.dec, &self.scales, &self.planes) == self.state_sum,
            |o| {
                int_fp_preload(self.act, self.verifier.pristine()).gemm_direct(a, m, o);
            },
        )
    }

    fn fault_sites(&self) -> &'static [&'static str] {
        &["dec", "scales", "planes"]
    }

    fn fault_surface(&self, site: &str) -> (usize, u32) {
        match site {
            "dec" => (self.dec.len(), 32),
            "scales" => (self.scales.len(), 64),
            "planes" => (self.planes.raw_bytes(), 8),
            _ => (0, 0),
        }
    }

    fn inject_fault(&mut self, site: &str, word: usize, bit: u32) -> bool {
        match site {
            "dec" => {
                self.dec[word] ^= 1 << (bit % 32);
                true
            }
            "scales" => {
                self.scales[word] =
                    f64::from_bits(self.scales[word].to_bits() ^ (1 << (bit % 64)));
                true
            }
            "planes" => {
                self.planes.flip_bit(word, bit);
                true
            }
            _ => false,
        }
    }
}

impl IntFpPrepared {
    /// The unverified execution path (LUT/direct dispatch).
    fn run(&self, a: &[f32], m: usize, out: &mut [f32]) {
        let span = 2 * self.vmax as usize + 2;
        if lut::use_lut(self.n, span) {
            self.gemm_lut(a, m, out);
        } else {
            self.gemm_direct(a, m, out);
        }
    }

    fn gemm_direct(&self, a: &[f32], m: usize, out: &mut [f32]) {
        let (k, n) = (self.k, self.n);
        let gs = self.group_size;
        let groups = k / gs;
        let mk = || IntFpScratch { row: usize::MAX, arow: arena::take(k, 0f64) };
        drive(m, k, n, 1, out, mk, |s: &mut IntFpScratch, i, col0, cols| {
            if s.row != i {
                for (kk, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
                    s.arow[kk] = self.act.quantize(av as f64);
                }
                s.row = i;
            }
            for (j, o) in cols.iter_mut().enumerate() {
                let c = col0 + j;
                let wcol = &self.dec[c * k..(c + 1) * k];
                let mut acc = 0f32; // FP32 accumulator across groups
                for g in 0..groups {
                    // Wide fixed-point accumulation inside the group is
                    // exact: activation (≤ 24 significand bits) × small
                    // integer code.
                    let mut group_acc = 0f64;
                    let r = g * gs..(g + 1) * gs;
                    for (av, &wv) in s.arow[r.clone()].iter().zip(&wcol[r]) {
                        group_acc += av * wv as f64;
                    }
                    acc += (group_acc * self.scales[g * n + c]) as f32;
                }
                *o = acc;
            }
        });
    }

    /// LUT-tier path: one multiply per (element, decoded code value)
    /// instead of per (element, column). The gathered entries are the
    /// exact `f64` products the direct path multiplies out, added in the
    /// same order, so results are bit-identical.
    fn gemm_lut(&self, a: &[f32], m: usize, out: &mut [f32]) {
        let (k, n) = (self.k, self.n);
        let gs = self.group_size;
        let groups = k / gs;
        let vmax = self.vmax;
        let span = 2 * vmax as usize + 2;
        let vlo = vmax + 1;
        let mk_table =
            || IntFpLutTable { arow: arena::take(k, 0f64), tbl: arena::take(k * span, 0f64) };
        // The product table is activation-only (one row of `span` entries
        // per k element), independent of which columns gather from it, so
        // the shard's column range is ignored: each shard builds the full
        // table in its own arena slot, in parallel.
        let build = |t: &mut IntFpLutTable, _slot: usize, i: usize, _col0: usize, _cols: usize| {
            for (kk, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
                t.arow[kk] = self.act.quantize(av as f64);
            }
            for (kk, &aq) in t.arow.iter().enumerate() {
                let row = &mut t.tbl[kk * span..(kk + 1) * span];
                for (off, slot) in row.iter_mut().enumerate() {
                    *slot = aq * (off as i32 - vlo) as f64;
                }
            }
        };
        // The weight stream is the preplaned offset plane: one byte (or
        // packed nibble pair) per element instead of a 4-byte `dec` read.
        // Either plane width indexes the same table rows in the same
        // ascending-k order, so results stay bit-identical.
        let packed = self.planes.is_packed();
        // The `try_into().unwrap()` below converts an exactly-8-byte
        // slice, so it cannot fail.
        #[allow(clippy::unwrap_used)]
        let gather = |t: &mut IntFpLutTable, _row0, _rows, col0: usize, cols: &mut [f32]| {
            // This worker's contiguous slice of the offset planes.
            let planes = self.planes.shard(col0, cols.len());
            for (j, o) in cols.iter_mut().enumerate() {
                let c = col0 + j;
                let pl = planes.plane(c);
                let mut acc = 0f32;
                for g in 0..groups {
                    let es = &t.tbl[g * gs * span..(g + 1) * gs * span];
                    let mut group_acc = 0f64;
                    if packed {
                        // u64 SWAR expansion: 16 offsets per 8-byte load.
                        let cd = &pl[g * gs / 2..(g + 1) * gs / 2];
                        let full = cd.len() / 8;
                        for blk in 0..full {
                            let b = blk * 8;
                            let w = u64::from_le_bytes(cd[b..b + 8].try_into().unwrap());
                            let ebase = blk * 16 * span;
                            for step in 0..16 {
                                let off = (w >> (4 * step)) as usize & 0xf;
                                group_acc += es[ebase + step * span + off];
                            }
                        }
                        for (bi, &byte) in cd.iter().enumerate().skip(full * 8) {
                            let b = byte as usize;
                            let row = 2 * bi * span;
                            group_acc += es[row + (b & 0xf)];
                            group_acc += es[row + span + (b >> 4)];
                        }
                    } else {
                        let cd = &pl[g * gs..(g + 1) * gs];
                        for (row, &off) in es.chunks_exact(span).zip(cd) {
                            group_acc += row[off as usize];
                        }
                    }
                    acc += (group_acc * self.scales[g * n + c]) as f32;
                }
                *o = acc;
            }
        };
        drive_lut(m, k, n, 1, 1, out, mk_table, build, gather);
    }
}

/// FIGNA: integer-unit FP-INT GEMM preserving numerical accuracy.
#[derive(Debug, Clone, Copy)]
pub struct FignaEngine {
    act: FpFormat,
}

impl FignaEngine {
    /// A FIGNA-style engine for the given activation format.
    pub fn new(act: FpFormat) -> Self {
        FignaEngine { act }
    }
}

impl GemmEngine for FignaEngine {
    fn name(&self) -> String {
        format!("FIGNA-{}", self.act.name)
    }

    fn try_gemm(
        &self,
        a: &[f32],
        m: usize,
        w: &QuantizedMatrix,
        out: &mut [f32],
    ) -> Result<(), GemmError> {
        check_shapes(a, m, w, out)?;
        try_int_fp_preload(self.act, w)?.try_gemm(a, m, out)
    }

    fn clone_box(&self) -> Box<dyn GemmEngine> {
        Box::new(*self)
    }

    fn try_prepare(&self, w: &QuantizedMatrix) -> Result<Box<dyn PreparedGemm>, GemmError> {
        Ok(Box::new(try_int_fp_preload(self.act, w)?))
    }
}

/// FIGLUT: LUT-based FP-INT GEMM (numerically identical to FIGNA; the
/// hardware differences live in `axcore-hwmodel`).
#[derive(Debug, Clone, Copy)]
pub struct FiglutEngine {
    act: FpFormat,
}

impl FiglutEngine {
    /// A FIGLUT-style engine for the given activation format.
    pub fn new(act: FpFormat) -> Self {
        FiglutEngine { act }
    }
}

impl GemmEngine for FiglutEngine {
    fn name(&self) -> String {
        format!("FIGLUT-{}", self.act.name)
    }

    fn try_gemm(
        &self,
        a: &[f32],
        m: usize,
        w: &QuantizedMatrix,
        out: &mut [f32],
    ) -> Result<(), GemmError> {
        check_shapes(a, m, w, out)?;
        try_int_fp_preload(self.act, w)?.try_gemm(a, m, out)
    }

    fn clone_box(&self) -> Box<dyn GemmEngine> {
        Box::new(*self)
    }

    fn try_prepare(&self, w: &QuantizedMatrix) -> Result<Box<dyn PreparedGemm>, GemmError> {
        Ok(Box::new(try_int_fp_preload(self.act, w)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::reference_gemm;
    use axcore_quant::GroupQuantizer;
    use axcore_softfloat::FP16;

    #[test]
    fn matches_dequantized_reference() {
        let (m, k, n) = (3, 64, 4);
        let w: Vec<f32> = (0..k * n).map(|i| ((i * 73 % 199) as f32 / 100.0 - 1.0) * 0.2).collect();
        let q = GroupQuantizer::fixed(QuantFormat::INT4, 32).quantize(&w, k, n);
        let a: Vec<f32> = (0..m * k).map(|i| FP16.quantize(((i * 29 % 83) as f32 / 40.0 - 1.0) as f64) as f32).collect();
        let mut out = vec![0f32; m * n];
        FignaEngine::new(FP16).gemm(&a, m, &q, &mut out);
        let wq = q.dequant_all();
        let mut reference = vec![0f64; m * n];
        reference_gemm(&a, m, &wq, k, n, &mut reference);
        for j in 0..m * n {
            let rel = (out[j] as f64 - reference[j]).abs() / reference[j].abs().max(1e-3);
            assert!(rel < 1e-4, "elem {j}");
        }
    }

    #[test]
    fn figlut_equals_figna() {
        let (m, k, n) = (2, 32, 4);
        let w: Vec<f32> = (0..k * n).map(|i| (i as f32).sin() * 0.3).collect();
        let q = GroupQuantizer::fixed(QuantFormat::INT4, 32).quantize(&w, k, n);
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.7).cos()).collect();
        let (mut o1, mut o2) = (vec![0f32; m * n], vec![0f32; m * n]);
        FignaEngine::new(FP16).gemm(&a, m, &q, &mut o1);
        FiglutEngine::new(FP16).gemm(&a, m, &q, &mut o2);
        assert_eq!(o1, o2);
    }

    #[test]
    fn lut_tier_is_bit_identical_to_direct() {
        use crate::engines::{with_lut_policy, LutPolicy};
        for fmt in [QuantFormat::INT4, QuantFormat::INT8] {
            let (m, k, n) = (2, 64, 8);
            let w: Vec<f32> = (0..k * n).map(|i| ((i * 91 % 181) as f32 / 90.0 - 1.0) * 0.3).collect();
            let q = GroupQuantizer::fixed(fmt, 32).quantize(&w, k, n);
            let mut a: Vec<f32> = (0..m * k).map(|i| (i * 47 % 71) as f32 / 35.0 - 1.0).collect();
            a[7] = 0.0;
            let p = int_fp_preload(FP16, &q);
            let mut out_d = vec![0f32; m * n];
            let mut out_l = vec![0f32; m * n];
            with_lut_policy(LutPolicy::Never, || p.gemm(&a, m, &mut out_d));
            with_lut_policy(LutPolicy::Always, || p.gemm(&a, m, &mut out_l));
            assert_eq!(
                out_d.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                out_l.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{fmt}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "require INT-quantized weights")]
    fn rejects_fp_weights() {
        let (k, n) = (32, 2);
        let q = GroupQuantizer::fixed(QuantFormat::E2M1, 32).quantize(&vec![0.1; k * n], k, n);
        let mut out = vec![0f32; n];
        FignaEngine::new(FP16).gemm(&vec![1.0; k], 1, &q, &mut out);
    }
}
