//! The AxCore GEMM engine: direct mixed-precision GEMM on compressed FP
//! weights through the full modelled datapath — PreAdd → PE (SNC + integer
//! add + Guard + partial FP adder) → shared Norm → AxScale → FP32
//! accumulator (Fig. 8).

use crate::accum::{NormUnit, PartialAcc, PreparedProduct};
use crate::axscale::AxScale;
use crate::engines::prepared::{check_prepared_shapes, drive, drive_lut};
use crate::engines::{act, check_shapes, lut, GemmEngine, PreparedGemm};
use crate::error::GemmError;
use crate::pe::{Pe, WeightLane};
use crate::preadd::{PreAdd, PreAddTerm};
use crate::reliability::{self, Verifier};
use axcore_fpma::snc::SncPolicy;
use axcore_fpma::MpFpma;
use axcore_parallel::arena;
use axcore_quant::{CodePlanes, PlaneShard, QuantFormat, QuantizedMatrix};
use axcore_softfloat::{FpFormat, FP16};

/// Stand-in addend for a [`WeightLane`] variant whose product is zero
/// (Guard zero / SNC tie rounding a subnormal away): so negative that
/// `t + addend` always lands below the clamp's first normal binade, which
/// flushes the magnitude — and with it the table entry — to zero without
/// a per-code branch in the LUT build. PreAdd terms are at most a few
/// magnitude-mask widths (≪ 2⁶⁰), so the sum can neither overflow nor
/// come back positive.
const ZERO_ADDEND: i64 = i64::MIN / 4;

/// ABFT relative tolerance: the approximate datapath (Mitchell products,
/// partial FP adds, AxScale dequantization) carries a few percent of
/// relative error per group partial; the row sum is looser still.
const ABFT_REL: f64 = 0.5;

/// Datapath configuration, covering the paper's ablation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AxCoreConfig {
    /// Subnormal number conversion on weight ingestion (§4.2). Off = the
    /// paper's naive *mpFPMA* baseline row.
    pub snc: bool,
    /// Tie policy when SNC is on (`Stochastic` = AxCore; `RoundUp` = the
    /// paper's “-SR” ablation).
    pub snc_policy: SncPolicy,
    /// Mean-based constant compensation `C₁`/`C₂` (§4.3).
    pub compensation: bool,
    /// Dequantize group partial sums with the AxScale FPMA adder (true,
    /// the paper's design) or an exact multiplier (ablation).
    pub fpma_dequant: bool,
}

impl Default for AxCoreConfig {
    fn default() -> Self {
        AxCoreConfig {
            snc: true,
            snc_policy: SncPolicy::Stochastic,
            compensation: true,
            fpma_dequant: true,
        }
    }
}

impl AxCoreConfig {
    /// The paper's base `mpFPMA` row: no SNC, no compensation.
    pub fn mp_fpma_base() -> Self {
        AxCoreConfig {
            snc: false,
            snc_policy: SncPolicy::RoundUp,
            compensation: false,
            fpma_dequant: true,
        }
    }

    /// `mpFPMA+S`: SNC only.
    pub fn with_snc_only() -> Self {
        AxCoreConfig {
            snc: true,
            snc_policy: SncPolicy::Stochastic,
            compensation: false,
            fpma_dequant: true,
        }
    }

    /// `mpFPMA+S+C`: SNC + compensation (= AxCore minus format-aware
    /// quantization, which lives on the quantizer side).
    pub fn with_snc_and_compensation() -> Self {
        AxCoreConfig::default()
    }

    /// `mpFPMA+S(−SR)+C`: deterministic tie rounding (Fig. 18 ablation).
    pub fn without_stochastic_rounding() -> Self {
        AxCoreConfig {
            snc_policy: SncPolicy::RoundUp,
            ..AxCoreConfig::default()
        }
    }
}

/// The AxCore systolic GEMM unit (functional model).
///
/// ```
/// use axcore::engines::{AxCoreEngine, GemmEngine};
/// use axcore_quant::{GroupQuantizer, QuantFormat};
/// use axcore_softfloat::FP16;
///
/// let w: Vec<f32> = (0..64 * 4).map(|i| ((i % 13) as f32 - 6.0) * 0.1).collect();
/// let q = GroupQuantizer::fixed(QuantFormat::E2M1, 32).quantize(&w, 64, 4);
/// let a = vec![0.5f32; 2 * 64];
/// let mut out = vec![0f32; 2 * 4];
/// AxCoreEngine::new(FP16).gemm(&a, 2, &q, &mut out);
/// ```
#[derive(Debug, Clone)]
pub struct AxCoreEngine {
    act: FpFormat,
    cfg: AxCoreConfig,
    packed_planes: bool,
}

impl AxCoreEngine {
    /// AxCore with the full default datapath (SNC + stochastic ties +
    /// compensation + AxScale).
    pub fn new(act: FpFormat) -> Self {
        AxCoreEngine {
            act,
            cfg: AxCoreConfig::default(),
            packed_planes: true,
        }
    }

    /// AxCore with an explicit configuration (ablation rows).
    pub fn with_config(act: FpFormat, cfg: AxCoreConfig) -> Self {
        AxCoreEngine {
            act,
            cfg,
            packed_planes: true,
        }
    }

    /// Control nibble-packing of the LUT gather's code planes (on by
    /// default; FP8 matrices fall back to byte planes regardless).
    /// `false` forces byte planes — the pre-SWAR layout, kept for A/B
    /// benchmarking and plane-equivalence tests.
    pub fn with_packed_planes(mut self, on: bool) -> Self {
        self.packed_planes = on;
        self
    }

    /// The activation/result format.
    pub fn act_format(&self) -> FpFormat {
        self.act
    }

    /// The active configuration.
    pub fn config(&self) -> AxCoreConfig {
        self.cfg
    }

    /// Build the per-format mpFPMA unit for a block format.
    fn unit_for(&self, wf: FpFormat) -> MpFpma {
        let mut u = MpFpma::new(self.act, wf).with_compensation(self.cfg.compensation);
        if self.cfg.snc {
            u = u.with_snc(self.cfg.snc_policy);
        } else {
            u = u.without_snc();
        }
        u
    }
}

impl GemmEngine for AxCoreEngine {
    fn name(&self) -> String {
        let c = &self.cfg;
        match (c.snc, c.compensation) {
            (false, false) => "mpFPMA".into(),
            (true, false) => "mpFPMA+S".into(),
            (false, true) => "mpFPMA+C".into(),
            (true, true) => {
                if c.snc_policy == SncPolicy::Stochastic {
                    "AxCore".into()
                } else {
                    "mpFPMA+S(-SR)+C".into()
                }
            }
        }
    }

    fn try_gemm(
        &self,
        a: &[f32],
        m: usize,
        w: &QuantizedMatrix,
        out: &mut [f32],
    ) -> Result<(), GemmError> {
        check_shapes(a, m, w, out)?;
        self.try_preload(w)?.try_gemm(a, m, out)
    }

    fn clone_box(&self) -> Box<dyn GemmEngine> {
        Box::new(self.clone())
    }

    fn try_prepare(&self, w: &QuantizedMatrix) -> Result<Box<dyn PreparedGemm>, GemmError> {
        Ok(Box::new(self.try_preload(w)?))
    }
}

impl AxCoreEngine {
    /// Panicking shim over [`AxCoreEngine::try_preload`] (exercised by
    /// the in-module tier-equivalence tests).
    #[cfg_attr(not(test), allow(dead_code))]
    fn preload(&self, w: &QuantizedMatrix) -> AxCorePrepared {
        self.try_preload(w).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build the prepared (weight-stationary) form of a matrix: per-format
    /// mpFPMA units, the flat block→unit index, and all decoded weight
    /// lanes — the weight preload phase of the systolic schedule.
    fn try_preload(&self, w: &QuantizedMatrix) -> Result<AxCorePrepared, GemmError> {
        let act = self.act;
        // Per distinct block format: an mpFPMA unit and its PreAdd,
        // referenced by a flat per-block index (formats repeat heavily, so
        // `units` stays tiny — at most the number of distinct FP4 formats).
        let mut unit_fmts: Vec<&'static str> = Vec::new();
        let mut units: Vec<(MpFpma, PreAdd)> = Vec::new();
        let mut block_unit = Vec::with_capacity(w.formats.len());
        for f in &w.formats {
            let QuantFormat::Fp(wf) = f else {
                return Err(GemmError::FormatOverflow {
                    engine: "AxCoreEngine",
                    requirement: "requires FP-quantized weights",
                    got: f.to_string(),
                });
            };
            let idx = unit_fmts.iter().position(|n| *n == wf.name).unwrap_or_else(|| {
                let u = self.unit_for(*wf);
                let p = PreAdd::for_unit(&u);
                unit_fmts.push(wf.name);
                units.push((u, p));
                units.len() - 1
            });
            block_unit.push(idx as u16);
        }

        // Stationary weight lanes, decoded once per prepared matrix.
        // Stored column-major (`col * k + k`) so the MAC loop over `k`
        // walks contiguous memory.
        let nbc = w.num_block_cols();
        let mut lanes = Vec::with_capacity(w.k * w.n);
        for col in 0..w.n {
            let bc = col / w.block_cols;
            for k in 0..w.k {
                let unit_idx = block_unit[(k / w.group_size) * nbc + bc] as usize;
                lanes.push(WeightLane::new(&units[unit_idx].0, w.code(k, col)));
            }
        }

        // LUT-tier state (§: Execution model / LUT tier): per-unit code
        // spaces, flattened SNC lane constants over each unit's whole
        // code space, the per-column code planes the gather walks, and a
        // per-group bitmask of the units its blocks select (also used by
        // the direct path's term fill).
        //
        // The lane constants are stored as straight-line-math operands so
        // the table build needs no per-code branches: `code_addends`
        // holds each [`WeightLane`] tie variant's integer addend
        // (`[unit][variant][code]`), with zero variants replaced by
        // [`ZERO_ADDEND`] — so negative the clamp is guaranteed to flush
        // the product; `code_signs` holds the weight sign as an all-ones
        // XOR/subtract mask.
        let unit_cs: Vec<usize> = units.iter().map(|(u, _)| u.code_space()).collect();
        let code_space = unit_cs.iter().copied().max().unwrap_or(0);
        let mut code_addends = Vec::with_capacity(units.len() * 2 * code_space);
        let mut code_signs = Vec::with_capacity(units.len() * code_space);
        for ((u, _), &ucs) in units.iter().zip(&unit_cs) {
            // Codes at or above a unit's own space are never emitted for
            // its blocks; pad those slots with the zero code.
            let lanes: Vec<WeightLane> = (0..code_space)
                .map(|code| WeightLane::new(u, if code < ucs { code as u8 } else { 0 }))
                .collect();
            for lane in &lanes {
                code_addends.push(if lane.zero_down { ZERO_ADDEND } else { lane.addend_down });
            }
            for lane in &lanes {
                code_addends.push(if lane.zero_up { ZERO_ADDEND } else { lane.addend_up });
            }
            code_signs.extend(lanes.iter().map(|lane| -(lane.sign as i64)));
        }
        assert!(units.len() <= 32, "group unit mask is a u32");
        let groups = w.num_groups();
        let mut group_unit_masks = vec![0u32; groups];
        for g in 0..groups {
            for bc in 0..nbc {
                group_unit_masks[g] |= 1 << block_unit[g * nbc + bc];
            }
        }
        // The per-element table width the build really fills: only the
        // units a group's blocks select get rows, so the widest group
        // sets the cost the LUT heuristic weighs.
        let lut_width = group_unit_masks.iter().map(|m| m.count_ones() as usize).max().unwrap_or(0)
            * code_space;

        // Decoded scale values for the exact-dequant ablation path.
        let scale_vals = w
            .scales
            .iter()
            .map(|&s| axcore_softfloat::FP16.decode(s as u32))
            .collect();

        let mut p = AxCorePrepared {
            src_engine: self.clone(),
            act,
            fpma_dequant: self.cfg.fpma_dequant,
            pe: Pe::new(act),
            norm: NormUnit::new(act),
            axscale: if self.cfg.compensation {
                AxScale::new(act)
            } else {
                AxScale::new(act).without_compensation()
            },
            units,
            block_unit,
            lanes,
            code_addends,
            code_signs,
            unit_cs,
            code_space,
            lut_width,
            // Packed planes additionally require the activation format
            // to fit the combined i32 LUT entry: exponent field ≤ 255
            // and `man_bits ≤ 12` so the increment fits i16 — true for
            // FP16 (30, 10) and BF16 (254, 7); wider formats (FP32
            // activations, hypothetical >8-exp-bit formats) take byte
            // planes instead.
            planes: if self.packed_planes && act.max_exp_field() <= 0xff && act.man_bits <= 12 {
                CodePlanes::new(w)
            } else {
                CodePlanes::with_width(w, 8)
            },
            group_unit_masks,
            scales: w.scales.clone(),
            scale_vals,
            k: w.k,
            n: w.n,
            group_size: w.group_size,
            block_cols: w.block_cols,
            lut_sum: 0,
            direct_sum: 0,
            w4a8: super::w4a8::W4a8Prep::try_new(w),
            verifier: Verifier::new(w, ABFT_REL),
        };
        p.lut_sum = p.lut_region_checksum();
        p.direct_sum = p.direct_region_checksum();
        Ok(p)
    }
}

/// AxCore weights preloaded into the array: per-format mpFPMA/PreAdd
/// units, the flat `(group, block-column) → unit` index, and every
/// element's decoded [`WeightLane`].
#[derive(Debug)]
pub struct AxCorePrepared {
    /// Owning engine configuration — the recovery path re-prepares from
    /// it after an unrecoverable state corruption.
    src_engine: AxCoreEngine,
    act: FpFormat,
    fpma_dequant: bool,
    pe: Pe,
    norm: NormUnit,
    axscale: AxScale,
    units: Vec<(MpFpma, PreAdd)>,
    /// Unit index per (group, block-column), replacing the per-element
    /// format-name hash lookup of the unprepared path.
    block_unit: Vec<u16>,
    /// Decoded weight lanes, column-major (`col * k + k`).
    lanes: Vec<WeightLane>,
    /// Lane addends flattened for the LUT build, laid out
    /// `(unit * 2 + variant) * code_space + code` with variant 0 = SNC
    /// ties down, 1 = ties up; zero variants hold [`ZERO_ADDEND`].
    code_addends: Vec<i64>,
    /// Weight sign per (unit, code) as a 0 / −1 mask.
    code_signs: Vec<i64>,
    /// Each unit's own code space (`2^code_bits` of its weight format).
    unit_cs: Vec<usize>,
    /// Table stride per activation element: the widest unit code space.
    code_space: usize,
    /// Table entries the build fills per activation element: the most
    /// units any one group selects × `code_space` (the LUT heuristic's
    /// `entries_per_k`).
    lut_width: usize,
    /// Per-column contiguous code planes for the LUT gather.
    planes: CodePlanes,
    /// Bit `u` set ⇔ some block column of group `g` uses unit `u`.
    group_unit_masks: Vec<u32>,
    /// Raw FP16 scale bits per (group, column).
    scales: Vec<u16>,
    /// Decoded scales (exact-dequant ablation path only).
    scale_vals: Vec<f64>,
    k: usize,
    n: usize,
    group_size: usize,
    block_cols: usize,
    /// Integrity checksum over the LUT tiers' prepared state, recorded at
    /// preload (planes + lane constants + scales).
    lut_sum: u64,
    /// Integrity checksum over the direct tier's prepared state, recorded
    /// at preload (weight lanes + scales).
    direct_sum: u64,
    /// W4A8 integer-activation planes, present when every block format
    /// decodes onto the tier's integer grid (see [`super::w4a8`]). Dark
    /// unless the per-call [`super::act::ActPolicy`] engages the tier.
    w4a8: Option<super::w4a8::W4a8Prep>,
    verifier: Verifier,
}

/// Per-worker scratch for the direct path: the current row's encoded
/// activation bits and its precomputed PreAdd terms, one run per unit.
/// Buffers come from the worker's recycled arena: `bits` is fully
/// rewritten per row, and stale `terms` are never read (a term is only
/// read for groups whose unit mask selected it, after being written for
/// the current row), so recycled contents are harmless.
struct AxScratch {
    row: usize,
    bits: arena::ArenaVec<u32>,
    terms: arena::ArenaVec<PreAddTerm>,
}

/// Per-worker LUT-tier table: encoded activation bits plus one pre-split
/// product per (unit, activation element, weight code), laid out
/// `(unit * k + kk) * code_space + code`. Each entry packs
/// [`PreparedProduct`] into a single word — `exp` in the high 32 bits,
/// `inc` in the low 32 (it fits: `|inc| < 2^(man_bits + 3)` and every
/// activation format has `man_bits ≤ 28`) — so the gather issues one
/// 8-byte load per MAC and a group's live segments stay L1-resident.
///
/// Arena-recycled like [`AxScratch`]: the build rewrites, per element,
/// the first `unit_cs[u]` codes of every (group-selected unit, element)
/// row, and the gather reads only those slots (codes are validated
/// against each unit's space at quantization/plane-build time), so stale
/// entries from a previous call are never observed. The one exception —
/// units with a narrower code space than the table stride — is handled
/// at take time with an explicit zero fill.
struct AxLutTable {
    bits: arena::ArenaVec<u32>,
    /// Byte-plane gather entries, `(exp << 32) | inc` packed — empty for
    /// packed-plane engines.
    tbl: arena::ArenaVec<i64>,
    /// Packed-plane gather entries, `(exp << 16) | (inc as u16)` in one
    /// i32 — packed planes are only selected when the activation format
    /// guarantees both fields fit (exponent field ≤ 255, `man_bits ≤ 12`
    /// so `|inc| < 2^15`). Quarter the bytes of the i64 layout: a unit's
    /// per-group segment drops to 4 KB (L1-resident). Empty for
    /// byte-plane engines.
    tcomb: arena::ArenaVec<i32>,
}

/// Per-worker table of the AVX2 rung: the encoded activations of a block
/// of up to [`axcore_simd::FOLD_ROWS`] rows (`bits[slot * k + kk]`) and
/// one group's packed entries for each of them, laid out
/// `((slot * units + unit) * group_size + kk) * code_space + code` — one
/// group deep, rebuilt group by group right before each fold. A 16-entry
/// row fills two `ymm` registers for the fold's in-register lookup.
///
/// Arena-recycled like [`AxLutTable`]: for each group the fold first
/// rewrites the segments of every unit the shard's columns reference,
/// for every row of the block, and reads only those; narrower-than-stride
/// units are zero-filled at take time.
struct AxFoldTable {
    bits: arena::ArenaVec<u32>,
    entries: arena::ArenaVec<i32>,
}

/// Unpack one packed LUT entry back into the partial adder's operands.
#[inline(always)]
fn unpack_entry(e: i64) -> PreparedProduct {
    PreparedProduct { exp: (e >> 32) as i32, inc: e as i32 as i64 }
}

/// Rebuild the partial adder's operands from one combined i32 entry.
#[inline(always)]
fn split_entry(e: i32) -> PreparedProduct {
    PreparedProduct { exp: e >> 16, inc: (e as i16) as i64 }
}

impl PreparedGemm for AxCorePrepared {
    fn k(&self) -> usize {
        self.k
    }

    fn n(&self) -> usize {
        self.n
    }

    /// The graceful-degradation ladder: try the fastest eligible tier,
    /// and on a caught panic or a failed check fall through to the next
    /// (W4A8 when the activation policy engages it → AVX2-LUT →
    /// SWAR-LUT → direct), quarantining tiers whose *state* proved
    /// corrupt. If every tier fails, re-prepare from the pristine
    /// quantized matrix and run the direct path serially. Healthy calls
    /// run exactly the old single-dispatch path (the ladder's first rung)
    /// and stay bit-identical and allocation-free.
    fn try_gemm(&self, a: &[f32], m: usize, out: &mut [f32]) -> Result<(), GemmError> {
        use axcore_parallel::{health, FailReason, Tier};
        use std::panic::{catch_unwind, AssertUnwindSafe};

        check_prepared_shapes(a, m, self.k, self.n, out)?;
        let plan = self.verifier.plan();
        let use_lut = lut::use_lut(self.n, self.lut_width);
        let mut ladder = [Tier::Direct; 4];
        let mut len = 0;
        if act::use_w4a8(self.w4a8.is_some(), m, self.n) && !health::is_quarantined(Tier::W4a8) {
            ladder[len] = Tier::W4a8;
            len += 1;
        }
        if use_lut {
            if self.planes.is_packed()
                && self.avx2_fold_eligible()
                && !health::is_quarantined(Tier::Avx2Lut)
            {
                ladder[len] = Tier::Avx2Lut;
                len += 1;
            }
            if !health::is_quarantined(Tier::SwarLut) {
                ladder[len] = Tier::SwarLut;
                len += 1;
            }
        }
        ladder[len] = Tier::Direct;
        len += 1;

        let mut report = health::ExecReport::new(ladder[0]);
        for idx in 0..len {
            let tier = ladder[idx];
            let next = if idx + 1 < len { ladder[idx + 1] } else { Tier::Direct };
            // At `Full`, prove the tier's at-rest state before spending
            // the GEMM on it.
            if plan.integrity && !self.integrity_ok(tier) {
                health::quarantine(tier);
                report.push_downgrade(tier, next, FailReason::ChecksumMismatch);
                continue;
            }
            // The panic guard runs at every policy (it costs nothing on
            // the success path). Weight codes never address memory on
            // any rung — the AVX2 fold looks them up in registers, the
            // scalar folds mask them to the table row — but corrupted
            // indexing state can: a `block_unit` entry naming a unit
            // past the table trips the fold's bounds checks (or a slice
            // index on the scalar rungs), and that must degrade, not
            // take the process down.
            let ran = catch_unwind(AssertUnwindSafe(|| self.run_tier(tier, a, m, out)));
            if ran.is_err() {
                health::quarantine(tier);
                report.push_downgrade(tier, next, FailReason::Panic);
                continue;
            }
            if plan.abft && !self.verifier.abft_ok(a, m, self.n, out) {
                // An ABFT miss alone may be transient (or a tolerance
                // false positive): quarantine only if the tier's state
                // is provably corrupt.
                if !self.integrity_ok(tier) {
                    health::quarantine(tier);
                }
                report.push_downgrade(tier, next, FailReason::AbftMismatch);
                continue;
            }
            report.tier = tier;
            report.verified = plan.any();
            if plan.any() || report.n_downgrades() > 0 {
                health::publish_report(report);
            }
            return Ok(());
        }

        // Every tier failed: the prepared state itself is suspect.
        // Re-prepare from the pristine quantized weights and run the
        // direct path serially.
        let rerun = catch_unwind(AssertUnwindSafe(|| {
            axcore_parallel::with_threads(1, || {
                self.src_engine
                    .try_preload(self.verifier.pristine())
                    .map(|fresh| fresh.gemm_direct(a, m, out))
            })
        }));
        match rerun {
            Ok(Ok(())) => {
                report.tier = Tier::Direct;
                report.verified = plan.any();
                report.recovered = true;
                health::publish_report(report);
                Ok(())
            }
            Ok(Err(e)) => Err(e),
            Err(_) => Err(GemmError::PoolPanicked { context: "axcore prepared gemm" }),
        }
    }

    fn fault_sites(&self) -> &'static [&'static str] {
        &[
            "lanes",
            "lut-addends",
            "code-signs",
            "block-unit",
            "planes",
            "scales",
        ]
    }

    fn fault_surface(&self, site: &str) -> (usize, u32) {
        match site {
            "lanes" => (self.lanes.len(), 64),
            "lut-addends" => (self.code_addends.len(), 64),
            "code-signs" => (self.code_signs.len(), 64),
            "block-unit" => (self.block_unit.len(), 16),
            "planes" => (self.planes.raw_bytes(), 8),
            "scales" => (self.scales.len(), 16),
            _ => (0, 0),
        }
    }

    fn inject_fault(&mut self, site: &str, word: usize, bit: u32) -> bool {
        match site {
            "lanes" => {
                self.lanes[word].addend_down ^= 1 << (bit % 64);
                true
            }
            "lut-addends" => {
                self.code_addends[word] ^= 1 << (bit % 64);
                true
            }
            "code-signs" => {
                self.code_signs[word] ^= 1 << (bit % 64);
                true
            }
            "block-unit" => {
                self.block_unit[word] ^= 1 << (bit % 16);
                true
            }
            "planes" => {
                self.planes.flip_bit(word, bit);
                true
            }
            "scales" => {
                self.scales[word] ^= 1 << (bit % 16);
                true
            }
            _ => false,
        }
    }
}

/// One checksum word per stationary [`WeightLane`]; any single-bit change
/// to any field changes the word (the fields occupy disjoint ranges).
fn lane_word(l: WeightLane) -> u64 {
    (l.addend_down as u64)
        ^ (l.addend_up as u64).rotate_left(21)
        ^ ((l.sign as u64) | (l.zero_down as u64) << 1 | (l.zero_up as u64) << 2).rotate_left(42)
}

impl AxCorePrepared {
    /// Integrity checksum over the state the LUT tiers read: the code
    /// planes, the flattened lane constants, and the shared scales.
    fn lut_region_checksum(&self) -> u64 {
        let h = reliability::mix(reliability::CHECKSUM_SEED, self.planes.checksum());
        let h = reliability::fold(h, &self.code_addends, |v| v as u64);
        let h = reliability::fold(h, &self.code_signs, |v| v as u64);
        self.shared_state_checksum(h)
    }

    /// Integrity checksum over the state the direct tier reads: the
    /// stationary weight lanes and the shared scales.
    fn direct_region_checksum(&self) -> u64 {
        let h = reliability::fold(reliability::CHECKSUM_SEED, &self.lanes, lane_word);
        self.shared_state_checksum(h)
    }

    /// Fold the state every tier shares (scales, block→unit index, group
    /// unit masks) into a running checksum.
    fn shared_state_checksum(&self, h: u64) -> u64 {
        let h = reliability::fold(h, &self.scales, |v| v as u64);
        let h = reliability::fold(h, &self.scale_vals, f64::to_bits);
        let h = reliability::fold(h, &self.block_unit, |v| v as u64);
        reliability::fold(h, &self.group_unit_masks, |v| v as u64)
    }

    /// Whether `tier`'s at-rest state still matches its preload checksum.
    fn integrity_ok(&self, tier: axcore_parallel::Tier) -> bool {
        use axcore_parallel::Tier;
        match tier {
            Tier::W4a8 => self.w4a8.as_ref().is_some_and(|p| p.checksum_ok()),
            Tier::Avx2Lut | Tier::SwarLut => self.lut_region_checksum() == self.lut_sum,
            Tier::Direct => self.direct_region_checksum() == self.direct_sum,
        }
    }

    /// Execute one ladder rung.
    fn run_tier(&self, tier: axcore_parallel::Tier, a: &[f32], m: usize, out: &mut [f32]) {
        use axcore_parallel::Tier;
        match tier {
            // The ladder only holds W4a8 when the prep exists; a bare
            // match still degrades sanely (direct) rather than panicking.
            Tier::W4a8 => match &self.w4a8 {
                Some(p) => p.gemm(a, m, out),
                None => self.gemm_direct(a, m, out),
            },
            Tier::Avx2Lut => self.gemm_lut(a, m, out, true),
            Tier::SwarLut => self.gemm_lut(a, m, out, false),
            Tier::Direct => self.gemm_direct(a, m, out),
        }
    }
    /// Direct per-MAC path: every (element, column) product runs the
    /// PreAdd → PE pipeline against the element's stationary lane.
    fn gemm_direct(&self, a: &[f32], m: usize, out: &mut [f32]) {
        let (k, n) = (self.k, self.n);
        let gs = self.group_size;
        let groups = k / gs;
        let nbc = n / self.block_cols;
        let zero_term = PreAddTerm { t: 0, sign: false, zero: true, stochastic_bit: false };
        let mk_scratch = || AxScratch {
            row: usize::MAX,
            bits: arena::take(k, 0u32),
            terms: arena::take(self.units.len() * k, zero_term),
        };
        drive(m, k, n, self.block_cols, out, mk_scratch, |s: &mut AxScratch, i, col0, cols| {
            if s.row != i {
                // Encode the activation row once, then advance each group
                // slice through the PreAdds of only the units that group's
                // block columns select (the per-group unit mask) — not
                // every unit per element. Terms for units a group never
                // uses stay stale and are never read below.
                for (kk, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
                    s.bits[kk] = self.act.encode(av as f64);
                }
                for g in 0..groups {
                    let mut mask = self.group_unit_masks[g];
                    while mask != 0 {
                        let u = mask.trailing_zeros() as usize;
                        mask &= mask - 1;
                        let preadd = &self.units[u].1;
                        for kk in g * gs..(g + 1) * gs {
                            s.terms[u * k + kk] = preadd.term(s.bits[kk]);
                        }
                    }
                }
                s.row = i;
            }
            for (j, o) in cols.iter_mut().enumerate() {
                let col = col0 + j;
                let bc = col / self.block_cols;
                let col_lanes = &self.lanes[col * k..(col + 1) * k];
                let mut acc_out = 0f32;
                for g in 0..groups {
                    let u = self.block_unit[g * nbc + bc] as usize;
                    let terms = &s.terms[u * k..(u + 1) * k];
                    let mut pacc = PartialAcc::new(self.act);
                    for kk in g * gs..(g + 1) * gs {
                        let term = terms[kk];
                        self.pe.mac(
                            &mut pacc,
                            term.t,
                            term.sign,
                            term.zero,
                            term.stochastic_bit,
                            &col_lanes[kk],
                        );
                    }
                    let o_bits = self.norm.normalize(&pacc);
                    let scaled = if self.fpma_dequant {
                        self.act.decode(self.axscale.apply(o_bits, self.scales[g * n + col]))
                    } else {
                        self.act.decode(o_bits) * self.scale_vals[g * n + col]
                    };
                    // FP32 final accumulator (Fig. 8, bottom).
                    acc_out += scaled as f32;
                }
                *o = acc_out;
            }
        });
    }

    /// LUT-tier path: per activation element, push the product against
    /// *every* weight code through the PreAdd → PE pipeline once, store
    /// it pre-split for the partial adder, and turn the column loop into
    /// a gather. Entries come from the same units and lane constants as
    /// the direct path and the gather accumulates in the same ascending-k
    /// order per group, so results are bit-identical by construction.
    ///
    /// `allow_avx2` gates the AVX2 rung ([`Self::gemm_lut_avx2`]) so the
    /// tier ladder can address the SWAR fallback explicitly (a
    /// quarantined AVX2 tier must not be re-entered through the generic
    /// dispatch). The scalar rung below runs one row at a time.
    fn gemm_lut(&self, a: &[f32], m: usize, out: &mut [f32], allow_avx2: bool) {
        if allow_avx2 && self.planes.is_packed() && self.avx2_fold_eligible() {
            self.gemm_lut_avx2(a, m, out);
            return;
        }
        let (k, n) = (self.k, self.n);
        let gs = self.group_size;
        let groups = k / gs;
        let cs = self.code_space;
        let nu = self.units.len();
        // The PE's clamp bounds in the activation's integer domain.
        let min_normal = 1i64 << self.act.man_bits;
        let max_mag =
            ((self.act.max_exp_field() as i64) << self.act.man_bits) | self.act.man_mask() as i64;
        let man_bits = self.act.man_bits;
        let man_mask = self.act.man_mask() as i64;
        // Stale recycled entries are only reachable when a unit's code
        // space is narrower than the table stride (mixed-width matrices,
        // which the quantizer never produces); zero-fill in that case.
        let needs_zero_fill = self.unit_cs.iter().any(|&ucs| ucs < cs);
        let packed = self.planes.is_packed();
        let mk_table = || AxLutTable {
            bits: arena::take(k, 0u32),
            tbl: match (packed, needs_zero_fill) {
                (true, _) => arena::take(0, 0i64),
                (false, true) => arena::take_filled(nu * k * cs, 0i64),
                (false, false) => arena::take(nu * k * cs, 0i64),
            },
            tcomb: match (packed, needs_zero_fill) {
                (false, _) => arena::take(0, 0i32),
                (true, true) => arena::take_filled(nu * k * cs, 0i32),
                (true, false) => arena::take(nu * k * cs, 0i32),
            },
        };
        let build = |t: &mut AxLutTable, _slot: usize, i: usize, col0: usize, ncols: usize| {
            for (kk, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
                t.bits[kk] = self.act.encode(av as f64);
            }
            for g in 0..groups {
                // Shard-restricted build: only the units referenced by
                // the columns this worker will gather. Segments of other
                // units stay stale in this worker's table slot and are
                // never read by its gather.
                let mut mask = self.shard_unit_mask(g, col0, ncols);
                while mask != 0 {
                    let u = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    if packed {
                        let bits = &t.bits[g * gs..(g + 1) * gs];
                        let seg = (u * k + g * gs) * cs..(u * k + (g + 1) * gs) * cs;
                        self.build_packed_rows(bits, u, false, &mut t.tcomb[seg]);
                        continue;
                    }
                    let preadd = &self.units[u].1;
                    let ucs = self.unit_cs[u];
                    let signs = &self.code_signs[u * cs..u * cs + ucs];
                    for kk in g * gs..(g + 1) * gs {
                        let term = preadd.term(t.bits[kk]);
                        let base = (u * k + kk) * cs;
                        let row = &mut t.tbl[base..base + ucs];
                        if term.zero {
                            // Guard zero: every code's product is zero.
                            row.fill(0);
                            continue;
                        }
                        // Tie variant selected once per element by the
                        // activation's stochastic bit, as in the PE.
                        let v = (u * 2 + term.stochastic_bit as usize) * cs;
                        let addends = &self.code_addends[v..v + ucs];
                        let tsign = -(term.sign as i64);
                        // Straight-line clamp + split per code: exactly
                        // `Pe::multiply` + `PreparedProduct::new`, with
                        // zero products falling out of the clamp (the
                        // `nz` mask) instead of branching.
                        for ((slot, &addend), &wsign) in
                            row.iter_mut().zip(addends).zip(signs)
                        {
                            let r = (term.t + addend).min(max_mag);
                            let mag = if r < min_normal { 0 } else { r };
                            let nz = -((mag != 0) as i64);
                            let s = tsign ^ wsign;
                            let val = ((mag & man_mask) | min_normal) << 2;
                            let inc = ((val ^ s) - s) & nz;
                            *slot = ((mag >> man_bits) << 32) | (inc & 0xFFFF_FFFF);
                        }
                    }
                }
            }
        };
        // The gather is instantiated with the unclamped partial adder
        // whenever the activation format's exponent gaps are provably
        // under 64 (FP16 and narrower), and with the saturating one
        // otherwise — bit-identical either way. The packed path takes
        // the sequential-shift unclamped form (one data-dependent shift
        // per MAC instead of two); `add_prepared_unclamped_seq` is
        // bit-identical by construction and the packed-vs-byte gather
        // test pins it.
        if self.act.max_exp_field() < 64 {
            let gather = |t: &mut AxLutTable, _row0, _rows, col0: usize, cols: &mut [f32]| {
                if packed {
                    self.lut_gather_cols_packed(t, col0, cols, |acc, e| {
                        acc.add_prepared_unclamped_seq(split_entry(e))
                    });
                } else {
                    self.lut_gather_cols_bytes(t, col0, cols, |acc, e| {
                        acc.add_prepared_unclamped(unpack_entry(e))
                    });
                }
            };
            drive_lut(m, k, n, self.block_cols, 1, out, mk_table, build, gather);
        } else {
            let gather = |t: &mut AxLutTable, _row0, _rows, col0: usize, cols: &mut [f32]| {
                if packed {
                    self.lut_gather_cols_packed(t, col0, cols, |acc, e| {
                        acc.add_prepared(split_entry(e))
                    });
                } else {
                    self.lut_gather_cols_bytes(t, col0, cols, |acc, e| {
                        acc.add_prepared(unpack_entry(e))
                    });
                }
            };
            drive_lut(m, k, n, self.block_cols, 1, out, mk_table, build, gather);
        }
    }

    /// One unit's packed entries for one group of one activation row:
    /// `bits` holds the group's encoded elements and `dst` gets their
    /// rows of `code_space` combined entries, `(exp << 16) | (inc as
    /// u16)` — both fit by the packed-plane selection gate (exp field
    /// ≤ 255, `|inc| < 2^15` for `man_bits ≤ 12`). Per element: the
    /// PreAdd term, the tie variant picked by its stochastic bit, and the
    /// straight-line clamp + split per code — exactly `Pe::multiply` +
    /// `PreparedProduct::new`, with zero products falling out of the
    /// clamp (the `nz` mask) instead of branching. With `fused` the FP16
    /// vector build writes the same entries (every unit spans exactly 16
    /// codes there, so its rows are its two tie rows and sign row).
    fn build_packed_rows(&self, bits: &[u32], u: usize, fused: bool, dst: &mut [i32]) {
        let cs = self.code_space;
        let preadd = &self.units[u].1;
        if fused {
            axcore_simd::build_rows_fp16(
                bits,
                preadd.c1(),
                &self.code_addends[2 * u * cs..2 * (u + 1) * cs],
                &self.code_signs[u * cs..(u + 1) * cs],
                dst,
            );
            return;
        }
        let min_normal = 1i64 << self.act.man_bits;
        let max_mag =
            ((self.act.max_exp_field() as i64) << self.act.man_bits) | self.act.man_mask() as i64;
        let man_bits = self.act.man_bits;
        let man_mask = self.act.man_mask() as i64;
        let ucs = self.unit_cs[u];
        let signs = &self.code_signs[u * cs..u * cs + ucs];
        for (&b, row) in bits.iter().zip(dst.chunks_exact_mut(cs)) {
            let term = preadd.term(b);
            let crow = &mut row[..ucs];
            if term.zero {
                // Guard zero: every code's product is zero.
                crow.fill(0);
                continue;
            }
            let v = (u * 2 + term.stochastic_bit as usize) * cs;
            let addends = &self.code_addends[v..v + ucs];
            let tsign = -(term.sign as i64);
            for ((slot, &addend), &wsign) in crow.iter_mut().zip(addends).zip(signs) {
                let r = (term.t + addend).min(max_mag);
                let mag = if r < min_normal { 0 } else { r };
                let nz = -((mag != 0) as i64);
                let s = tsign ^ wsign;
                let val = ((mag & man_mask) | min_normal) << 2;
                let inc = ((val ^ s) - s) & nz;
                *slot = (((mag >> man_bits) as i32) << 16) | ((inc as i32) & 0xffff);
            }
        }
    }

    /// The AVX2 rung of the LUT tier: rows run in blocks of up to
    /// [`axcore_simd::FOLD_ROWS`], and each block is folded group by
    /// group ([`Self::lut_fold_cols_avx2`]) — the weight-stationary form:
    /// every decoded weight code serves the whole block. Per row only the
    /// activation encode runs up front; a group's entries are built for
    /// the whole block right before that group is folded, so the table
    /// is one group deep and L1-hot when read.
    ///
    /// The FP16 vector stages (encode, table build, fused finish) run
    /// when [`Self::fused_fp16_eligible`] holds, and never while a
    /// transient fault plan is armed: the fused finish bypasses
    /// `NormUnit::normalize` and its accumulator tap, so such calls keep
    /// the tapped scalar stages around the same fold.
    fn gemm_lut_avx2(&self, a: &[f32], m: usize, out: &mut [f32]) {
        let (k, n) = (self.k, self.n);
        let block = axcore_simd::FOLD_ROWS;
        let fused = self.fused_fp16_eligible() && !reliability::faults::armed();
        let slot_len = self.units.len() * self.group_size * self.code_space;
        // As in the scalar rung: zero-fill when a unit's code space is
        // narrower than the table stride.
        let needs_zero_fill = self.unit_cs.iter().any(|&ucs| ucs < self.code_space);
        let mk_table = || AxFoldTable {
            bits: arena::take(block * k, 0u32),
            entries: if needs_zero_fill {
                arena::take_filled(block * slot_len, 0i32)
            } else {
                arena::take(block * slot_len, 0i32)
            },
        };
        let encode = |t: &mut AxFoldTable, slot: usize, i: usize, _col0: usize, _cols: usize| {
            let row = &a[i * k..(i + 1) * k];
            let bits = &mut t.bits[slot * k..(slot + 1) * k];
            if fused {
                axcore_simd::encode_fp16(row, bits);
            } else {
                for (b, &av) in bits.iter_mut().zip(row) {
                    *b = self.act.encode(av as f64);
                }
            }
        };
        let fold = |t: &mut AxFoldTable, _row0, rows: usize, col0: usize, out: &mut [f32]| {
            self.lut_fold_cols_avx2(t, rows, col0, out, fused);
        };
        drive_lut(m, k, n, self.block_cols, block, out, mk_table, encode, fold);
    }

    /// The format units referenced by output columns
    /// `[col0, col0 + ncols)` in group `g`: the precomputed whole-row
    /// mask when the range covers every column, otherwise the OR over
    /// just the range's block columns — what lets a shard build only the
    /// table segments its own gather will read.
    fn shard_unit_mask(&self, g: usize, col0: usize, ncols: usize) -> u32 {
        if col0 == 0 && ncols == self.n {
            return self.group_unit_masks[g];
        }
        let nbc = self.n / self.block_cols;
        let bc0 = col0 / self.block_cols;
        let bc1 = (col0 + ncols - 1) / self.block_cols;
        let mut mask = 0u32;
        for bc in bc0..=bc1 {
            mask |= 1 << self.block_unit[g * nbc + bc];
        }
        mask
    }

    /// Byte-plane gather: fold every group's table segments into `cols`,
    /// in the direct path's exact accumulation order.
    ///
    /// Group-major sweep: for one group at a time, only that group's
    /// table segments (one per unit its blocks use) are live, so they
    /// stay cache-hot across the whole column pass. Column outputs
    /// accumulate group partials in ascending-g order, same as the
    /// direct path's inner loop.
    ///
    /// Columns are walked four at a time: the partial adder is a short
    /// serial dependency chain, so interleaving independent per-column
    /// accumulators lets the core overlap the chains. Each column still
    /// folds its group's entries in ascending-k order, so the interleave
    /// does not change any result bit.
    fn lut_gather_cols_bytes(
        &self,
        t: &AxLutTable,
        col0: usize,
        cols: &mut [f32],
        add: impl Fn(&mut PartialAcc, i64) + Copy,
    ) {
        const LANES: usize = 4;
        let (k, n) = (self.k, self.n);
        let gs = self.group_size;
        let groups = k / gs;
        let nbc = n / self.block_cols;
        let cs = self.code_space;
        // This worker's contiguous slice of the code planes: all plane
        // reads below stay provably inside the shard's columns.
        let planes = self.planes.shard(col0, cols.len());
        let seg_of = |g: usize, col: usize| {
            let u = self.block_unit[g * nbc + col / self.block_cols] as usize;
            let r = (u * k + g * gs) * cs..(u * k + (g + 1) * gs) * cs;
            (&t.tbl[r], &planes.plane(col)[g * gs..(g + 1) * gs])
        };
        cols.fill(0.0);
        for g in 0..groups {
            let mut j = 0;
            while j + LANES <= cols.len() {
                let (es0, cd0) = seg_of(g, col0 + j);
                let (es1, cd1) = seg_of(g, col0 + j + 1);
                let (es2, cd2) = seg_of(g, col0 + j + 2);
                let (es3, cd3) = seg_of(g, col0 + j + 3);
                // Named accumulators (not an array) so each lane's
                // `(sig, exp)` pair stays in registers across the whole
                // k-loop; `chunks_exact` rows indexed by the masked code
                // keep every access provably in bounds.
                let mut a0 = PartialAcc::new(self.act);
                let mut a1 = PartialAcc::new(self.act);
                let mut a2 = PartialAcc::new(self.act);
                let mut a3 = PartialAcc::new(self.act);
                // Two k-steps per iteration: per-lane order is still
                // ascending k, the unroll just halves the iterator
                // bookkeeping per MAC.
                let pair = 2 * cs;
                let it01 = es0
                    .chunks_exact(pair)
                    .zip(cd0.chunks_exact(2))
                    .zip(es1.chunks_exact(pair).zip(cd1.chunks_exact(2)));
                let it23 = es2
                    .chunks_exact(pair)
                    .zip(cd2.chunks_exact(2))
                    .zip(es3.chunks_exact(pair).zip(cd3.chunks_exact(2)));
                for (((r0, c0), (r1, c1)), ((r2, c2), (r3, c3))) in it01.zip(it23) {
                    add(&mut a0, r0[c0[0] as usize & (cs - 1)]);
                    add(&mut a1, r1[c1[0] as usize & (cs - 1)]);
                    add(&mut a2, r2[c2[0] as usize & (cs - 1)]);
                    add(&mut a3, r3[c3[0] as usize & (cs - 1)]);
                    add(&mut a0, r0[cs + (c0[1] as usize & (cs - 1))]);
                    add(&mut a1, r1[cs + (c1[1] as usize & (cs - 1))]);
                    add(&mut a2, r2[cs + (c2[1] as usize & (cs - 1))]);
                    add(&mut a3, r3[cs + (c3[1] as usize & (cs - 1))]);
                }
                if gs % 2 == 1 {
                    // Odd group depth: one trailing k-step per lane.
                    let off = (gs - 1) * cs;
                    add(&mut a0, es0[off + (cd0[gs - 1] as usize & (cs - 1))]);
                    add(&mut a1, es1[off + (cd1[gs - 1] as usize & (cs - 1))]);
                    add(&mut a2, es2[off + (cd2[gs - 1] as usize & (cs - 1))]);
                    add(&mut a3, es3[off + (cd3[gs - 1] as usize & (cs - 1))]);
                }
                for (l, acc) in [a0, a1, a2, a3].iter().enumerate() {
                    cols[j + l] += self.lut_finish(acc, g, col0 + j + l);
                }
                j += LANES;
            }
            // Remainder columns (< LANES) run the scalar chain.
            for (jj, o) in cols.iter_mut().enumerate().skip(j) {
                let (es, cd) = seg_of(g, col0 + jj);
                let mut pacc = PartialAcc::new(self.act);
                for (row, &c) in es.chunks_exact(cs).zip(cd) {
                    add(&mut pacc, row[c as usize & (cs - 1)]);
                }
                *o += self.lut_finish(&pacc, g, col0 + jj);
            }
        }
    }

    /// Nibble-packed gather: same group-major, 4-column-interleaved
    /// sweep as [`Self::lut_gather_cols_bytes`], but the code stream
    /// carries two 4-bit codes per byte, so each lane expands **16
    /// codes from one u64 SWAR load** (low nibble = even k, matching the
    /// plane layout), and the table is read from the combined i32 entry
    /// plane (4 bytes per entry instead of 8 — a unit's per-group
    /// segment drops to 4 KB and stays L1-resident). Weight-side
    /// traffic halves; per-lane accumulation order is still ascending
    /// k, so results are bit-identical to the byte-plane gather.
    ///
    /// This is the portable scalar form (the SWAR rung); on x86-64 with
    /// AVX2 the LUT tier takes [`Self::lut_fold_cols_avx2`] instead.
    fn lut_gather_cols_packed(
        &self,
        t: &AxLutTable,
        col0: usize,
        cols: &mut [f32],
        add: impl Fn(&mut PartialAcc, i32) + Copy,
    ) {
        const LANES: usize = 4;
        let (k, n) = (self.k, self.n);
        let gs = self.group_size;
        let groups = k / gs;
        let nbc = n / self.block_cols;
        let cs = self.code_space;
        let cmask = cs - 1;
        // Packed planes exist only for ≤ 4-bit formats, whose mpFPMA
        // code space is exactly 16 — so a nibble can never index past a
        // table row.
        debug_assert!(cs >= 16, "packed planes imply a 16-entry code space");
        // This worker's contiguous slice of the nibble-packed planes.
        let planes = self.planes.shard(col0, cols.len());
        // A group's table segment (gs rows of cs entries) and its packed
        // code bytes (gs/2: plane construction guarantees gs is even).
        let seg_of = |g: usize, col: usize| {
            let u = self.block_unit[g * nbc + col / self.block_cols] as usize;
            let r = (u * k + g * gs) * cs..(u * k + (g + 1) * gs) * cs;
            (&t.tcomb[r], &planes.plane(col)[g * gs / 2..(g + 1) * gs / 2])
        };
        // One 4-lane tile of one group: 16 k-steps per u64 code load.
        // Every `try_into().unwrap()` below converts a slice whose length
        // is fixed by the enclosing loop bounds (8 bytes / 256 entries),
        // so the conversions cannot fail.
        #[allow(clippy::unwrap_used)]
        let do_tile = |g: usize, j: usize, cols: &mut [f32]| {
            let (es0, cd0) = seg_of(g, col0 + j);
            let (es1, cd1) = seg_of(g, col0 + j + 1);
            let (es2, cd2) = seg_of(g, col0 + j + 2);
            let (es3, cd3) = seg_of(g, col0 + j + 3);
            let mut a0 = PartialAcc::new(self.act);
            let mut a1 = PartialAcc::new(self.act);
            let mut a2 = PartialAcc::new(self.act);
            let mut a3 = PartialAcc::new(self.act);
            let full = cd0.len() / 8;
            if cs == 16 {
                // The only width packed planes produce in practice.
                // Fixed-size block refs let the compiler prove every
                // index in bounds (`step * 16 + nibble ≤ 255`), so the
                // unrolled chain carries no bounds checks.
                for blk in 0..full {
                    let b = blk * 8;
                    let w0 = u64::from_le_bytes(cd0[b..b + 8].try_into().unwrap());
                    let w1 = u64::from_le_bytes(cd1[b..b + 8].try_into().unwrap());
                    let w2 = u64::from_le_bytes(cd2[b..b + 8].try_into().unwrap());
                    let w3 = u64::from_le_bytes(cd3[b..b + 8].try_into().unwrap());
                    let e = blk * 256;
                    let t0: &[i32; 256] = es0[e..e + 256].try_into().unwrap();
                    let t1: &[i32; 256] = es1[e..e + 256].try_into().unwrap();
                    let t2: &[i32; 256] = es2[e..e + 256].try_into().unwrap();
                    let t3: &[i32; 256] = es3[e..e + 256].try_into().unwrap();
                    for step in 0..16 {
                        let row = step * 16;
                        let sh = 4 * step;
                        add(&mut a0, t0[row + ((w0 >> sh) as usize & 0xf)]);
                        add(&mut a1, t1[row + ((w1 >> sh) as usize & 0xf)]);
                        add(&mut a2, t2[row + ((w2 >> sh) as usize & 0xf)]);
                        add(&mut a3, t3[row + ((w3 >> sh) as usize & 0xf)]);
                    }
                }
            } else {
                for blk in 0..full {
                    let b = blk * 8;
                    let w0 = u64::from_le_bytes(cd0[b..b + 8].try_into().unwrap());
                    let w1 = u64::from_le_bytes(cd1[b..b + 8].try_into().unwrap());
                    let w2 = u64::from_le_bytes(cd2[b..b + 8].try_into().unwrap());
                    let w3 = u64::from_le_bytes(cd3[b..b + 8].try_into().unwrap());
                    let ebase = blk * 16 * cs;
                    for step in 0..16 {
                        let row = ebase + step * cs;
                        let sh = 4 * step;
                        add(&mut a0, es0[row + ((w0 >> sh) as usize & 0xf & cmask)]);
                        add(&mut a1, es1[row + ((w1 >> sh) as usize & 0xf & cmask)]);
                        add(&mut a2, es2[row + ((w2 >> sh) as usize & 0xf & cmask)]);
                        add(&mut a3, es3[row + ((w3 >> sh) as usize & 0xf & cmask)]);
                    }
                }
            }
            // Leftover packed bytes (gs % 16 != 0): two k-steps each.
            for bi in full * 8..cd0.len() {
                let row = 2 * bi * cs;
                let (b0, b1) = (cd0[bi] as usize, cd1[bi] as usize);
                let (b2, b3) = (cd2[bi] as usize, cd3[bi] as usize);
                add(&mut a0, es0[row + (b0 & 0xf & cmask)]);
                add(&mut a1, es1[row + (b1 & 0xf & cmask)]);
                add(&mut a2, es2[row + (b2 & 0xf & cmask)]);
                add(&mut a3, es3[row + (b3 & 0xf & cmask)]);
                add(&mut a0, es0[row + cs + ((b0 >> 4) & cmask)]);
                add(&mut a1, es1[row + cs + ((b1 >> 4) & cmask)]);
                add(&mut a2, es2[row + cs + ((b2 >> 4) & cmask)]);
                add(&mut a3, es3[row + cs + ((b3 >> 4) & cmask)]);
            }
            for (l, acc) in [a0, a1, a2, a3].iter().enumerate() {
                cols[j + l] += self.lut_finish(acc, g, col0 + j + l);
            }
        };
        cols.fill(0.0);
        let full_tiles = cols.len() / LANES;
        for g in 0..groups {
            // Tile visit order: grouped by the unit of each tile's first
            // column, so one unit's table segment (`gs × cs` entries —
            // 8 KB for FP4) stays L1-hot across every column that reads
            // it, instead of ping-ponging between units as adjacent
            // blocks alternate formats. Column order within a group is
            // free: each column gets exactly one `+=` per group, still
            // in ascending-g order, so the reorder changes no result
            // bit (the gather loads are latency-bound, making this the
            // dominant lever on wide decode rows).
            if self.units.len() > 1 {
                for u_pass in 0..self.units.len() {
                    for tile in 0..full_tiles {
                        let j = tile * LANES;
                        let u0 =
                            self.block_unit[g * nbc + (col0 + j) / self.block_cols] as usize;
                        if u0 == u_pass {
                            do_tile(g, j, cols);
                        }
                    }
                }
            } else {
                for tile in 0..full_tiles {
                    do_tile(g, tile * LANES, cols);
                }
            }
            // Remainder columns (< LANES) run the scalar chain.
            for (jj, col) in cols.iter_mut().enumerate().skip(full_tiles * LANES) {
                let (es, cd) = seg_of(g, col0 + jj);
                let mut pacc = PartialAcc::new(self.act);
                for (bi, &byte) in cd.iter().enumerate() {
                    let row = 2 * bi * cs;
                    add(&mut pacc, es[row + (byte as usize & 0xf & cmask)]);
                    add(&mut pacc, es[row + cs + ((byte as usize >> 4) & cmask)]);
                }
                *col += self.lut_finish(&pacc, g, col0 + jj);
            }
        }
    }

    /// Whether the AVX2 rung can take the row-block fold in
    /// [`axcore_simd`]: requires the standard 16-entry code space, a
    /// group depth that fills whole u64 code words, accumulator
    /// significands that provably fit the kernel's i32 lanes
    /// (`gs · 2^(man_bits+3)` bounds the running sum), and a vector fold
    /// on this host ([`axcore_simd::fold_lanes`] non-zero: the CPU has
    /// the instructions and passed the one-shot kernel self-test, so a
    /// faulty vector unit demotes the tier instead of corrupting
    /// silently).
    fn avx2_fold_eligible(&self) -> bool {
        self.code_space == 16
            && self.group_size.is_multiple_of(16)
            && (self.group_size as u64) << (self.act.man_bits + 3) <= 1 << 31
            && axcore_simd::fold_lanes() != 0
    }

    /// Whether the AVX2 rung also takes the FP16 vector stages around the
    /// fold ([`axcore_simd::encode_fp16`], [`axcore_simd::build_rows_fp16`]
    /// and the fused finish [`axcore_simd::fold_rows_finish_fp16`]): FP16
    /// activations, FPMA dequantization, packed planes with every unit
    /// on the full 16-code space, on top of the fold's own eligibility
    /// — which includes the one-shot self-test covering every kernel.
    /// BF16 and the exact-dequant ablation keep the scalar stages and
    /// the fold's unfused `(sig, exp)` form.
    fn fused_fp16_eligible(&self) -> bool {
        self.act == FP16
            && self.fpma_dequant
            && self.planes.is_packed()
            && self.unit_cs.iter().all(|&c| c == 16)
            && self.avx2_fold_eligible()
    }

    /// Vector fold over the nibble-packed planes for a block of `rows`
    /// activation rows, whose encoded activations sit in `t.bits`; row
    /// `r`'s outputs are `out[r * cols..(r + 1) * cols]`, `cols =
    /// out.len() / rows`. Group by group: first the group's entries are
    /// built for every row of the block (only the units this shard's
    /// columns reference), then the columns are folded in 16-column
    /// tiles, a final 8–15 columns as one 8-column tile, each tile one
    /// [`axcore_simd::fold_rows`] call ([`Self::fold_tile`]). Fewer than
    /// 8 columns left over run the scalar chain. Groups are visited in
    /// ascending order, so each column adds its group partials in the
    /// direct path's order.
    fn lut_fold_cols_avx2(
        &self,
        t: &mut AxFoldTable,
        rows: usize,
        col0: usize,
        out: &mut [f32],
        fused: bool,
    ) {
        let (k, n) = (self.k, self.n);
        let gs = self.group_size;
        let groups = k / gs;
        let nbc = n / self.block_cols;
        let cs = self.code_space;
        let cols = out.len() / rows;
        // One row's slot: one group's segment of every unit.
        let seg = gs * cs;
        let slot_len = self.units.len() * seg;
        debug_assert!(cs == 16 && gs.is_multiple_of(16));
        // This worker's contiguous slice of the nibble-packed planes:
        // the vector kernel receives only these bytes, so a lane can
        // never read codes from another shard's columns.
        let planes = self.planes.shard(col0, cols);
        out.fill(0.0);
        for g in 0..groups {
            // Shard-restricted build: only the units referenced by the
            // columns this worker folds. Other units' segments stay stale
            // and are never read.
            let units = self.shard_unit_mask(g, col0, cols);
            crate::kmetrics::record_lut_build(|| {
                for slot in 0..rows {
                    let bits = &t.bits[slot * k + g * gs..slot * k + (g + 1) * gs];
                    let mut mask = units;
                    while mask != 0 {
                        let u = mask.trailing_zeros() as usize;
                        mask &= mask - 1;
                        let dst = slot * slot_len + u * seg;
                        self.build_packed_rows(bits, u, fused, &mut t.entries[dst..dst + seg]);
                    }
                }
            });
            let tiles = FoldTiles {
                // Exactly the block's slots: a unit index past the table
                // fails the kernel's bounds check even on the last row.
                table: &t.entries[..rows * slot_len],
                slot_len,
                rows,
                planes,
                g,
                col0,
                cols,
                fused,
            };
            // Walk the block columns incrementally (no division per lane).
            let mut cursor = (col0 / self.block_cols, col0 % self.block_cols);
            let mut j = 0;
            while cols - j >= 8 {
                j += if cols - j >= 16 {
                    self.fold_tile::<16>(&tiles, j, &mut cursor, out)
                } else {
                    self.fold_tile::<8>(&tiles, j, &mut cursor, out)
                };
            }
            // Remainder columns (< 8) run the scalar chain on the same
            // entries, with the saturating adder (this rung also serves
            // BF16, whose exponent gaps can pass 63).
            for r in 0..rows {
                let rt = &tiles.table[r * slot_len..(r + 1) * slot_len];
                for jj in j..cols {
                    let col = col0 + jj;
                    let u = self.block_unit[g * nbc + col / self.block_cols] as usize;
                    let es = &rt[u * seg..(u + 1) * seg];
                    let cd = &planes.plane(col)[g * gs / 2..(g + 1) * gs / 2];
                    let mut pacc = PartialAcc::new(self.act);
                    for (bi, &byte) in cd.iter().enumerate() {
                        let row = 2 * bi * cs;
                        pacc.add_prepared(split_entry(es[row + (byte as usize & 0xf)]));
                        pacc.add_prepared(split_entry(es[row + cs + (byte as usize >> 4)]));
                    }
                    out[r * cols + jj] += self.lut_finish(&pacc, g, col);
                }
            }
        }
    }

    /// One `L`-column tile (8 or 16) of one group at column `j` of the
    /// shard: the lanes' unit bases and code offsets, advancing the
    /// block-column `cursor`, then one [`axcore_simd::fold_rows`] call —
    /// the kernel decodes the tile's codes once for the whole block and
    /// looks entries up in registers; a tile spanning several units is
    /// handled inside the kernel, which groups its lanes by the unit
    /// segment `block_unit` names. With `fused` the Norm → AxScale →
    /// decode epilogue runs in the same kernel
    /// ([`axcore_simd::fold_rows_finish_fp16`], bit-identical to
    /// [`Self::lut_finish`]); otherwise the lanes come back and finish one
    /// by one. Returns `L`, the columns folded.
    fn fold_tile<const L: usize>(
        &self,
        tiles: &FoldTiles<'_>,
        j: usize,
        cursor: &mut (usize, usize),
        out: &mut [f32],
    ) -> usize {
        let (n, gs, g) = (self.n, self.group_size, tiles.g);
        let nbc = n / self.block_cols;
        let seg = gs * self.code_space;
        let seg_len = gs / 2;
        let col = tiles.col0 + j;
        // A base past i32 (a corrupt `block_unit`) saturates, so the
        // fold's bounds check rejects it.
        let base_of = |bc: usize| {
            i32::try_from(self.block_unit[g * nbc + bc] as usize * seg).unwrap_or(i32::MAX)
        };
        let mut bases = [0i32; L];
        if self.block_cols - cursor.1 >= L {
            // The whole tile inside one block column: one unit.
            bases = [base_of(cursor.0); L];
            cursor.1 += L;
        } else {
            for base in bases.iter_mut() {
                *base = base_of(cursor.0);
                cursor.1 += 1;
                if cursor.1 == self.block_cols {
                    *cursor = (cursor.0 + 1, 0);
                }
            }
        }
        if cursor.1 == self.block_cols {
            *cursor = (cursor.0 + 1, 0);
        }
        let off0 = tiles.planes.offset_of(col) + g * seg_len;
        let offsets: [usize; L] = std::array::from_fn(|l| off0 + l * tiles.planes.stride());
        let (table, stride, rows) = (tiles.table, tiles.slot_len, tiles.rows);
        let bytes = tiles.planes.bytes();
        if tiles.fused {
            let sc = g * n + col;
            // The slice is exactly L long by construction, so the array
            // conversion cannot fail.
            #[allow(clippy::unwrap_used)]
            axcore_simd::fold_rows_finish_fp16(
                table,
                stride,
                rows,
                &bases,
                bytes,
                &offsets,
                seg_len,
                self.scales[sc..sc + L].try_into().unwrap(),
                self.axscale.c2(),
                &mut out[j..],
                tiles.cols,
            );
            return L;
        }
        let (sig, exp) =
            axcore_simd::fold_rows(table, stride, rows, &bases, bytes, &offsets, seg_len);
        for r in 0..rows {
            for l in 0..L {
                let acc = PartialAcc::from_parts(exp[r][l], sig[r][l] as i64, self.act);
                out[r * tiles.cols + j + l] += self.lut_finish(&acc, g, col + l);
            }
        }
        L
    }

    /// Norm → dequantize → widen of one column's group partial: AxScale
    /// on the FP16 scale with FPMA dequantization, an exact product with
    /// the scale's value otherwise.
    #[inline(always)]
    fn lut_finish(&self, pacc: &PartialAcc, g: usize, col: usize) -> f32 {
        let o_bits = self.norm.normalize(pacc);
        let scaled = if self.fpma_dequant {
            self.act
                .decode(self.axscale.apply(o_bits, self.scales[g * self.n + col]))
        } else {
            self.act.decode(o_bits) * self.scale_vals[g * self.n + col]
        };
        scaled as f32
    }
}

/// One group's fold state shared by the tiles of
/// [`AxCorePrepared::lut_fold_cols_avx2`]: the block's built table, the
/// shard's planes and where the shard sits.
struct FoldTiles<'a> {
    table: &'a [i32],
    slot_len: usize,
    rows: usize,
    planes: PlaneShard<'a>,
    g: usize,
    col0: usize,
    cols: usize,
    fused: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::reference_gemm;
    use axcore_quant::GroupQuantizer;

    fn toy_weights(k: usize, n: usize) -> Vec<f32> {
        (0..k * n)
            .map(|i| ((i * 2654435761usize % 997) as f32 / 498.5 - 1.0) * 0.4)
            .collect()
    }

    fn toy_acts(m: usize, k: usize) -> Vec<f32> {
        (0..m * k)
            .map(|i| ((i * 40503 % 65536) as f32 / 32768.0 - 1.0) * 1.3)
            .collect()
    }

    #[test]
    fn close_to_reference_on_random_gemm() {
        let (m, k, n) = (4, 128, 8);
        let wf = toy_weights(k, n);
        let q = GroupQuantizer::adaptive_fp4(64, 4, None).quantize(&wf, k, n);
        let a = toy_acts(m, k);
        let mut out = vec![0f32; m * n];
        AxCoreEngine::new(FP16).gemm(&a, m, &q, &mut out);

        let wq = q.dequant_all();
        let mut reference = vec![0f64; m * n];
        reference_gemm(&a, m, &wq, k, n, &mut reference);
        let sig: f64 = reference.iter().map(|x| x * x).sum();
        let noise: f64 = reference
            .iter()
            .zip(&out)
            .map(|(r, o)| (r - *o as f64).powi(2))
            .sum();
        let snr = 10.0 * (sig / noise).log10();
        assert!(snr > 20.0, "SNR only {snr:.1} dB");
    }

    #[test]
    fn ablation_ladder_on_e1m2() {
        // The paper's Fig. 18 ordering — mpFPMA < mpFPMA+S < mpFPMA+S+C —
        // on E1M2-quantized weights (the format with the most subnormal
        // codes) and zero-mean data, at a sample size where the ordering is
        // statistically stable.
        let (m, k, n) = (16, 512, 32);
        let wf: Vec<f32> = (0..k * n)
            .map(|i| ((i * 2654435761usize % 9973) as f32 / 4986.5 - 1.0) * 0.4)
            .collect();
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 48271 % 65521) as f32 / 32760.5 - 1.0) * 1.3)
            .collect();
        let q = GroupQuantizer::fixed(QuantFormat::E1M2, 64).quantize(&wf, k, n);
        let wq = q.dequant_all();
        let mut reference = vec![0f64; m * n];
        reference_gemm(&a, m, &wq, k, n, &mut reference);
        let sig: f64 = reference.iter().map(|x| x * x).sum();
        let snr_of = |cfg: AxCoreConfig| {
            let mut out = vec![0f32; m * n];
            AxCoreEngine::with_config(FP16, cfg).gemm(&a, m, &q, &mut out);
            let noise: f64 = reference
                .iter()
                .zip(&out)
                .map(|(r, o)| (r - *o as f64).powi(2))
                .sum();
            10.0 * (sig / noise).log10()
        };
        let base = snr_of(AxCoreConfig::mp_fpma_base());
        let s = snr_of(AxCoreConfig::with_snc_only());
        let sc = snr_of(AxCoreConfig::default());
        assert!(s > base + 0.5, "SNC gain: {base:.2} → {s:.2} dB");
        assert!(sc > s + 0.5, "compensation gain: {s:.2} → {sc:.2} dB");
    }

    #[test]
    fn compensation_removes_coherent_bias() {
        // Positive (uniform) data, as in the paper's Fig. 18: systematic
        // per-product errors accumulate *coherently* across the fan-in.
        // Uncompensated mpFPMA carries the Mitchell bias in both the PE
        // products and the AxScale dequantization; the C₁/C₂ constants
        // cancel it, collapsing both the bias and the total error.
        let (m, k, n) = (4, 256, 8);
        let wf: Vec<f32> = toy_weights(k, n).iter().map(|w| w.abs() + 0.01).collect();
        let q = GroupQuantizer::fixed(QuantFormat::E1M2, 64).quantize(&wf, k, n);
        let a: Vec<f32> = toy_acts(m, k).iter().map(|a| a.abs()).collect();
        let wq = q.dequant_all();
        let mut reference = vec![0f64; m * n];
        reference_gemm(&a, m, &wq, k, n, &mut reference);
        let stats_of = |cfg: AxCoreConfig| {
            let mut out = vec![0f32; m * n];
            AxCoreEngine::with_config(FP16, cfg).gemm(&a, m, &q, &mut out);
            let rels: Vec<f64> = reference
                .iter()
                .zip(&out)
                .map(|(r, o)| (*o as f64 - r) / r)
                .collect();
            let bias = rels.iter().sum::<f64>() / rels.len() as f64;
            let rms = (rels.iter().map(|x| x * x).sum::<f64>() / rels.len() as f64).sqrt();
            (bias, rms)
        };
        let (bias_s, rms_s) = stats_of(AxCoreConfig::with_snc_only());
        let (bias_sc, rms_sc) = stats_of(AxCoreConfig::default());
        assert!(bias_s < -0.04, "uncompensated bias should be clearly negative: {bias_s}");
        assert!(
            bias_sc.abs() < bias_s.abs() / 3.0,
            "compensation must collapse the bias: {bias_s:+.4} → {bias_sc:+.4}"
        );
        assert!(rms_sc < rms_s * 0.5, "total error: {rms_s:.4} → {rms_sc:.4}");
    }

    #[test]
    fn zero_activations_give_zero_output() {
        let (m, k, n) = (2, 64, 4);
        let q = GroupQuantizer::fixed(QuantFormat::E2M1, 32).quantize(&toy_weights(k, n), k, n);
        let a = vec![0f32; m * k];
        let mut out = vec![1f32; m * n];
        AxCoreEngine::new(FP16).gemm(&a, m, &q, &mut out);
        assert!(out.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn zero_weights_give_zero_output() {
        let (m, k, n) = (2, 64, 4);
        let q = GroupQuantizer::fixed(QuantFormat::E2M1, 32).quantize(&vec![0f32; k * n], k, n);
        let a = toy_acts(m, k);
        let mut out = vec![1f32; m * n];
        AxCoreEngine::new(FP16).gemm(&a, m, &q, &mut out);
        assert!(out.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn linearity_in_activations() {
        // Doubling A doubles O (the datapath is exponent-linear and the
        // doubling is exact in FP16).
        let (m, k, n) = (1, 64, 4);
        let q = GroupQuantizer::fixed(QuantFormat::E2M1, 64).quantize(&toy_weights(k, n), k, n);
        let a = toy_acts(m, k);
        let a2: Vec<f32> = a.iter().map(|x| x * 2.0).collect();
        let (mut o1, mut o2) = (vec![0f32; n], vec![0f32; n]);
        let eng = AxCoreEngine::with_config(FP16, AxCoreConfig::without_stochastic_rounding());
        eng.gemm(&a, m, &q, &mut o1);
        eng.gemm(&a2, m, &q, &mut o2);
        for j in 0..n {
            let rel = (o2[j] - 2.0 * o1[j]).abs() / o1[j].abs().max(1e-6);
            assert!(rel < 1e-3, "col {j}: {} vs 2×{}", o2[j], o1[j]);
        }
    }

    #[test]
    fn lut_tier_is_bit_identical_to_direct() {
        use crate::engines::{with_lut_policy, LutPolicy};
        // Adaptive FP4 mixes per-block formats, so the LUT table spans
        // several units with distinct code spaces and tie behaviour.
        let (m, k, n) = (3, 128, 16);
        let q = GroupQuantizer::adaptive_fp4(64, 4, None).quantize(&toy_weights(k, n), k, n);
        let mut a = toy_acts(m, k);
        a[5] = 0.0; // Guard-zero activations must hit the table fill path
        a[k + 9] = 6.1e-5; // FP16 subnormal range
        let p = AxCoreEngine::new(FP16).preload(&q);
        let (mut direct, mut via_lut) = (vec![0f32; m * n], vec![0f32; m * n]);
        with_lut_policy(LutPolicy::Never, || p.gemm(&a, m, &mut direct));
        with_lut_policy(LutPolicy::Always, || p.gemm(&a, m, &mut via_lut));
        assert_eq!(
            direct.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            via_lut.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn packed_and_byte_plane_gathers_are_bit_identical() {
        use crate::engines::{with_lut_policy, LutPolicy};
        let (m, k, n) = (2, 128, 16);
        let q = GroupQuantizer::adaptive_fp4(64, 4, None).quantize(&toy_weights(k, n), k, n);
        let a = toy_acts(m, k);
        let packed = AxCoreEngine::new(FP16).preload(&q);
        let bytes = AxCoreEngine::new(FP16).with_packed_planes(false).preload(&q);
        assert!(packed.planes.is_packed());
        assert!(!bytes.planes.is_packed());
        let (mut o1, mut o2) = (vec![0f32; m * n], vec![0f32; m * n]);
        with_lut_policy(LutPolicy::Always, || {
            packed.gemm(&a, m, &mut o1);
            bytes.gemm(&a, m, &mut o2);
        });
        assert_eq!(
            o1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            o2.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    const FP4S: [QuantFormat; 3] = [QuantFormat::E1M2, QuantFormat::E2M1, QuantFormat::E3M0];

    /// An all-codes matrix: codes cycle each block's 16-code space, one
    /// block format per entry of `formats` in turn, unit FP16 scales.
    fn cycling_matrix(k: usize, n: usize, bc: usize, formats: &[QuantFormat]) -> QuantizedMatrix {
        let gs = 32;
        let fmts: Vec<QuantFormat> =
            (0..(k / gs) * (n / bc)).map(|i| formats[i % formats.len()]).collect();
        QuantizedMatrix {
            k,
            n,
            group_size: gs,
            block_cols: bc,
            codes: (0..k * n).map(|i| (i * 7 % 16) as u8).collect(),
            scales: vec![0x3C00; (k / gs) * n],
            formats: fmts,
        }
    }

    #[test]
    fn lut_width_counts_only_the_units_a_group_selects() {
        use crate::engines::{with_lut_policy, LutPolicy};
        use crate::reliability::{with_verify_policy, VerifyPolicy};
        use axcore_parallel::{health, Tier};
        // Three formats, but one 64-wide block column per group: each
        // group's table build fills a single unit's 16 codes.
        let (m, k, n) = (2, 96, 64);
        let q = cycling_matrix(k, n, 64, &FP4S);
        let p = AxCoreEngine::new(FP16).preload(&q);
        assert_eq!(p.units.len(), 3);
        assert_eq!(p.lut_width, 16);
        with_lut_policy(LutPolicy::Auto, || {
            assert!(lut::use_lut(n, p.lut_width), "n = 64 amortizes a 16-entry build");
            let all_units = p.units.len() * p.code_space;
            assert!(!lut::use_lut(n, all_units), "the old 48-entry width did not");
        });
        let a = toy_acts(m, k);
        let (mut direct, mut auto) = (vec![0f32; m * n], vec![0f32; m * n]);
        with_lut_policy(LutPolicy::Never, || p.gemm(&a, m, &mut direct));
        let ((), report) = health::capture_report(|| {
            with_verify_policy(VerifyPolicy::Full, || {
                with_lut_policy(LutPolicy::Auto, || p.gemm(&a, m, &mut auto))
            })
        });
        let tier = report.map(|r| r.tier);
        assert!(matches!(tier, Some(Tier::Avx2Lut | Tier::SwarLut)), "ran on {tier:?}");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&direct), bits(&auto));
    }

    /// `axcore_simd::scalar_encode_fp16` is `FP16.encode(x as f64)` on
    /// every rounding boundary: every FP16 value, every midpoint between
    /// neighbours (and past the largest finite), each midpoint ± 1 f32
    /// ulp, plus NaN, ±∞, −0 and f32 subnormals.
    #[test]
    fn fp16_encode_reference_equals_softfloat() {
        let mut xs = vec![f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0];
        xs.extend((0..1 << 12).map(|i| f32::from_bits(1 + i * 2039))); // f32 subnormals
        for h in 0u32..0x7c00 {
            let v = FP16.decode(h);
            let next = if h == 0x7bff { 65536.0 } else { FP16.decode(h + 1) };
            let mid = ((v + next) / 2.0) as f32;
            assert_eq!(mid as f64, (v + next) / 2.0, "midpoints are exact in f32");
            let below = f32::from_bits(mid.to_bits() - 1);
            let above = f32::from_bits(mid.to_bits() + 1);
            for x in [v as f32, mid, below, above] {
                xs.extend([x, -x]);
            }
        }
        for x in xs {
            assert_eq!(
                axcore_simd::scalar_encode_fp16(x),
                FP16.encode(x as f64),
                "x = {x:e} ({:#010x})",
                x.to_bits()
            );
        }
    }

    /// `axcore_simd::scalar_build_rows_fp16` over a prepared unit's
    /// `code_addends`/`code_signs` rows is the PreAdd → PE multiply →
    /// pre-split pipeline, entry for entry: every FP16 activation
    /// pattern (Guard zeros, both tie variants, NaN/∞ patterns) against
    /// all 16 codes of every FP4 unit, under SNC/compensation ablations.
    #[test]
    fn fp16_build_reference_equals_pe_pipeline() {
        let q = cycling_matrix(96, 8, 8, &FP4S);
        let bits: Vec<u32> = (0..=0xffff).collect();
        let mut rows = vec![0i32; bits.len() * 16];
        let cfgs = [
            AxCoreConfig::default(),
            AxCoreConfig::mp_fpma_base(),
            AxCoreConfig::without_stochastic_rounding(),
        ];
        for cfg in cfgs {
            let p = AxCoreEngine::with_config(FP16, cfg).preload(&q);
            assert_eq!(p.code_space, 16);
            for (u, (unit, preadd)) in p.units.iter().enumerate() {
                axcore_simd::scalar_build_rows_fp16(
                    &bits,
                    preadd.c1(),
                    &p.code_addends[32 * u..32 * (u + 1)],
                    &p.code_signs[16 * u..16 * (u + 1)],
                    &mut rows,
                );
                for (&b, row) in bits.iter().zip(rows.chunks_exact(16)) {
                    let term = preadd.term(b);
                    for (code, &entry) in row.iter().enumerate() {
                        let lane = WeightLane::new(unit, code as u8);
                        let product = p.pe.multiply(
                            term.t,
                            term.sign,
                            term.zero,
                            term.stochastic_bit,
                            &lane,
                        );
                        let want = match product {
                            Some((mag, sign)) => {
                                let pp = PreparedProduct::new(FP16, mag, sign);
                                (pp.exp << 16) | (pp.inc as i32 & 0xffff)
                            }
                            None => 0,
                        };
                        assert_eq!(entry, want, "{cfg:?} unit {u} a {b:#06x} code {code}");
                    }
                }
            }
        }
    }

    /// Accumulator states at the normalization edges: zero, ±1, 2^j − 1
    /// and 2^j, RNE ties rounding down and up, carry-out, and anchors
    /// that flush (e_out ≤ 0) or saturate (e_out > 30).
    fn finish_edge_lanes() -> Vec<(i32, i32)> {
        let mut sigs = vec![0i32, 1, -1, i32::MAX];
        for j in [1, 9, 10, 11, 12, 13, 20, 30] {
            sigs.extend([(1 << j) - 1, 1 << j, -(1 << j) + 1, -(1 << j)]);
        }
        // 11 significant bits + a dropped half: even → down, odd → up,
        // all-ones → carry-out; and a dropped half plus sticky bit.
        sigs.extend([(0x400 << 1) | 1, (0x401 << 1) | 1, -((0x7ff << 1) | 1)]);
        sigs.push(((0x400 << 2) | 3) << 3);
        let mut lanes = Vec::new();
        for &s in &sigs {
            for e in [-20, 0, 1, 12, 15, 30, 45] {
                lanes.push((s, e));
            }
        }
        lanes
    }

    /// `axcore_simd::scalar_finish_fp16` is `NormUnit::normalize` →
    /// `AxScale::apply` → FP16 decode → f32 for all 65 536 scale
    /// patterns against the accumulator edge states, with and without
    /// compensation.
    #[test]
    fn fp16_finish_reference_equals_norm_axscale() {
        let norm = NormUnit::new(FP16);
        for ax in [AxScale::new(FP16), AxScale::new(FP16).without_compensation()] {
            for (sig, exp) in finish_edge_lanes() {
                let o = norm.normalize(&PartialAcc::from_parts(exp, sig as i64, FP16));
                for scale in 0..=0xffffu16 {
                    let want = FP16.decode(ax.apply(o, scale)) as f32;
                    let got = axcore_simd::scalar_finish_fp16(sig, exp, scale, ax.c2());
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "sig {sig} exp {exp} scale {scale:#06x} c2 {}",
                        ax.c2()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "requires FP-quantized weights")]
    fn rejects_int_weights() {
        let (k, n) = (32, 2);
        let q = GroupQuantizer::fixed(QuantFormat::INT4, 32).quantize(&toy_weights(k, n), k, n);
        let mut out = vec![0f32; n];
        AxCoreEngine::new(FP16).gemm(&vec![1.0; k], 1, &q, &mut out);
    }

    #[test]
    fn names_follow_ablation_ladder() {
        assert_eq!(AxCoreEngine::new(FP16).name(), "AxCore");
        assert_eq!(
            AxCoreEngine::with_config(FP16, AxCoreConfig::mp_fpma_base()).name(),
            "mpFPMA"
        );
        assert_eq!(
            AxCoreEngine::with_config(FP16, AxCoreConfig::with_snc_only()).name(),
            "mpFPMA+S"
        );
        assert_eq!(
            AxCoreEngine::with_config(FP16, AxCoreConfig::without_stochastic_rounding()).name(),
            "mpFPMA+S(-SR)+C"
        );
    }
}
