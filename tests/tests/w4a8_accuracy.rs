//! Accuracy and fallback contract of the W4A8 integer-activation tier.
//!
//! The tier is the runtime's only *lossy* execution rung: activations are
//! Q8 block-quantized (per-32 scale + compensation sum), weight codes are
//! folded in as exact integer dots, and the result is reconstructed
//! through per-block scales. DESIGN.md §10 documents the error model this
//! file pins down:
//!
//! * **Tolerance** — per output element `j`, the W4A8 result must sit
//!   within `rel · mag_j + 1e-5` of the same engine's FP-activation
//!   result, where `mag_j = Σ_k |a_k| · |W_deq(k, j)|` bounds the
//!   absolute-value dot. `rel` is per engine family: `0.02` for the
//!   exact-integer FIGNA path (the only error source is Q8 activation
//!   rounding, ≤ 1/254 of each block's magnitude) and `0.10` for the
//!   approximate FPMA/AxCore paths (their FP tiers carry mantissa-add
//!   approximation error the integer tier does not share).
//! * **Shard invariance** — within the tier, the column-sharded result is
//!   bit-identical to the serial result at every worker count, same as
//!   the bit-exact tiers (proptested at 1/2/4/8 workers below).
//! * **Fallback** — quarantining the tier, or pointing `Always` at
//!   weights the integer grid cannot represent (INT8, E4M3, group size
//!   not a multiple of 32), degrades to the FP path **bit-identically**:
//!   a disengaged W4A8 tier must be invisible.
//!
//! Tier quarantine is process-global: the quarantine test takes the
//! shared tier-health lock exclusively and every other test holds it
//! shared, so no quarantine can land between a check's serial and
//! sharded calls.

use axcore::engines::{
    with_act_policy, ActPolicy, AxCoreEngine, FignaEngine, FiglutEngine, FpmaEngine, GemmEngine,
};
use axcore_parallel::{health, ExecMode, Tier};
use axcore_quant::{GroupQuantizer, QuantFormat, QuantizedMatrix};
use axcore_softfloat::FP16;
use axcore_xtests::{tier_health_exclusive, tier_health_shared};
use proptest::prelude::*;

const K: usize = 128;
const N: usize = 96;
const M: usize = 2;

fn activations(seed: u64) -> Vec<f32> {
    (0..M * K)
        .map(|i| ((i as u64 * 31 + seed) * 48271 % 65521) as f32 / 32760.5 - 1.0)
        .collect()
}

fn weights(seed: u64, scale: f32) -> Vec<f32> {
    (0..K * N)
        .map(|i| (((i as u64 * 7 + seed) * 2654435761 % 1009) as f32 / 504.5 - 1.0) * scale)
        .collect()
}

/// FP-activation reference: the engine's own prepared path with the
/// integer tier disengaged (serial, so the reference is unambiguous).
fn fp_reference(engine: &dyn GemmEngine, a: &[f32], q: &QuantizedMatrix) -> Vec<f32> {
    let prepared = engine.prepare(q);
    let mut out = vec![0f32; M * q.n];
    axcore_parallel::with_threads(1, || {
        with_act_policy(ActPolicy::Never, || prepared.gemm(a, M, &mut out));
    });
    out
}

/// The DESIGN.md §10 tolerance check at 1/2/4/8 workers, plus in-tier
/// shard bit-invariance against the serial W4A8 run.
fn assert_w4a8_within_tolerance(
    engine: &dyn GemmEngine,
    a: &[f32],
    q: &QuantizedMatrix,
    rel: f64,
) -> Result<(), TestCaseError> {
    let _health = tier_health_shared();
    let fp = fp_reference(engine, a, q);
    let wdeq = q.dequant_all();
    let prepared = engine.prepare(q);
    let mut serial_w4a8 = vec![0f32; M * q.n];
    axcore_parallel::with_threads(1, || {
        with_act_policy(ActPolicy::Always, || prepared.gemm(a, M, &mut serial_w4a8));
    });
    for i in 0..M {
        for j in 0..q.n {
            let mag: f64 = (0..K)
                .map(|k| f64::from(a[i * K + k].abs()) * f64::from(wdeq[k * q.n + j].abs()))
                .sum();
            let tol = rel * mag + 1e-5;
            let (f, w) = (fp[i * q.n + j], serial_w4a8[i * q.n + j]);
            prop_assert!(
                (f64::from(f) - f64::from(w)).abs() <= tol,
                "{} elem ({i}, {j}): FP {f} vs W4A8 {w}, tol {tol:.3e}",
                engine.name()
            );
        }
    }
    for workers in [2usize, 4, 8] {
        for mode in [ExecMode::Pooled, ExecMode::Scoped] {
            let mut sharded = vec![f32::NAN; M * q.n];
            axcore_parallel::with_threads(workers, || {
                axcore_parallel::with_exec_mode(mode, || {
                    with_act_policy(ActPolicy::Always, || prepared.gemm(a, M, &mut sharded));
                });
            });
            for (j, (s, p)) in serial_w4a8.iter().zip(&sharded).enumerate() {
                prop_assert_eq!(
                    s.to_bits(),
                    p.to_bits(),
                    "{} elem {} at {} workers ({:?}): W4A8 serial {} != sharded {}",
                    engine.name(),
                    j,
                    workers,
                    mode,
                    s,
                    p
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// AxCore over every eligible fixed FP4 format and the adaptive mix.
    #[test]
    fn axcore_w4a8_within_tolerance(seed in 0u64..200, fmt_idx in 0usize..4) {
        let w = weights(seed, 0.4);
        let q = match fmt_idx {
            0 => GroupQuantizer::fixed(QuantFormat::E2M1, 32).quantize(&w, K, N),
            1 => GroupQuantizer::fixed(QuantFormat::E1M2, 32).quantize(&w, K, N),
            2 => GroupQuantizer::fixed(QuantFormat::E3M0, 32).quantize(&w, K, N),
            _ => GroupQuantizer::adaptive_fp4(32, 8, None).quantize(&w, K, N),
        };
        assert_w4a8_within_tolerance(&AxCoreEngine::new(FP16), &activations(seed), &q, 0.10)?;
    }

    /// FPMA (uniform-format indirect GEMM) over fixed FP4 formats.
    #[test]
    fn fpma_w4a8_within_tolerance(seed in 0u64..200, fmt_idx in 0usize..3) {
        let fmt = [QuantFormat::E2M1, QuantFormat::E1M2, QuantFormat::E3M0][fmt_idx];
        let q = GroupQuantizer::fixed(fmt, 32).quantize(&weights(seed, 0.4), K, N);
        assert_w4a8_within_tolerance(&FpmaEngine::new(FP16), &activations(seed), &q, 0.10)?;
    }

    /// FIGNA over INT4: the weight path is exact integer arithmetic, so
    /// the only divergence from the FP-activation path is Q8 rounding.
    #[test]
    fn figna_w4a8_within_tolerance(seed in 0u64..200) {
        let q = GroupQuantizer::fixed(QuantFormat::INT4, 32).quantize(&weights(seed, 0.3), K, N);
        assert_w4a8_within_tolerance(&FignaEngine::new(FP16), &activations(seed), &q, 0.02)?;
    }
}

/// `Always` over weights the integer grid cannot host (INT8 codes are 8
/// bits wide; a 16-wide group is not a multiple of the Q8 block) must
/// fall back to the FP path bit-identically — not approximately.
#[test]
fn ineligible_weights_fall_back_bit_identically() {
    let _health = tier_health_shared();
    let cases: Vec<(Box<dyn GemmEngine>, QuantizedMatrix)> = vec![
        (
            Box::new(FiglutEngine::new(FP16)),
            GroupQuantizer::fixed(QuantFormat::INT8, 32).quantize(&weights(11, 0.3), K, N),
        ),
        (
            Box::new(AxCoreEngine::new(FP16)),
            GroupQuantizer::fixed(QuantFormat::E2M1, 16).quantize(&weights(12, 0.4), K, N),
        ),
    ];
    let a = activations(5);
    for (engine, q) in &cases {
        let fp = fp_reference(engine.as_ref(), &a, q);
        let prepared = engine.prepare(q);
        let mut out = vec![f32::NAN; M * q.n];
        axcore_parallel::with_threads(1, || {
            with_act_policy(ActPolicy::Always, || prepared.gemm(&a, M, &mut out));
        });
        for (j, (f, w)) in fp.iter().zip(&out).enumerate() {
            assert_eq!(
                f.to_bits(),
                w.to_bits(),
                "{} elem {j}: ineligible-weight fallback diverged from the FP path",
                engine.name()
            );
        }
    }
}

/// A quarantined W4A8 tier must disengage completely: `Always` then
/// produces output bit-identical to `Never`, on every engine family.
#[test]
fn quarantined_tier_falls_back_bit_identically() {
    let _health = tier_health_exclusive();
    let a = activations(9);
    let q = GroupQuantizer::adaptive_fp4(32, 8, None).quantize(&weights(21, 0.4), K, N);
    let engines: Vec<Box<dyn GemmEngine>> = vec![
        Box::new(AxCoreEngine::new(FP16)),
        Box::new(FpmaEngine::new(FP16)),
    ];
    for engine in &engines {
        let fp = fp_reference(engine.as_ref(), &a, &q);
        let prepared = engine.prepare(&q);
        health::quarantine(Tier::W4a8);
        let mut out = vec![f32::NAN; M * N];
        axcore_parallel::with_threads(1, || {
            with_act_policy(ActPolicy::Always, || prepared.gemm(&a, M, &mut out));
        });
        health::reset();
        for (j, (f, w)) in fp.iter().zip(&out).enumerate() {
            assert_eq!(
                f.to_bits(),
                w.to_bits(),
                "{} elem {j}: quarantined-tier fallback diverged from the FP path",
                engine.name()
            );
        }
    }
}

/// `Always` on eligible weights really runs the integer tier — the
/// kmetrics activation-quantization counter advances, so the tolerance
/// assertions above are comparing two genuinely different paths.
#[test]
fn always_policy_engages_the_integer_tier() {
    let _health = tier_health_shared();
    let a = activations(3);
    let q = GroupQuantizer::fixed(QuantFormat::E2M1, 32).quantize(&weights(33, 0.4), K, N);
    let engine = AxCoreEngine::new(FP16);
    let prepared = engine.prepare(&q);
    let mut out = vec![0f32; M * N];
    let ((), timing) = axcore::kmetrics::with_kernel_timing(|| {
        axcore_parallel::with_threads(1, || {
            with_act_policy(ActPolicy::Always, || prepared.gemm(&a, M, &mut out));
        });
    });
    assert!(
        timing.act_quant_ns > 0,
        "ActPolicy::Always on eligible weights never quantized an activation row"
    );
}
