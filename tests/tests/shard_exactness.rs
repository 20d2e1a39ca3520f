//! Bit-exactness of column-sharded prepared execution (proptest).
//!
//! Sharding is a pure partition of the output columns: each worker owns
//! a contiguous, cache-line-aligned column range, per-column accumulation
//! order is unchanged from the serial kernel, and writeback targets
//! disjoint output slices. So at *any* worker count, in either execution
//! mode, on either kernel tier, every engine must produce output
//! byte-identical to the one-worker serial path. These properties pin
//! that down for all six prepared engines at 2/4/8 workers (8 deliberately
//! oversubscribes small matrices so the shard-count cap is exercised)
//! against the serial reference, on both the decode shape (`m = 1`, wide
//! `n` — one shard per worker across the output row) and a prefill shape
//! (the L2-blocked panel path).
//!
//! The quarantine test at the bottom checks the reliability ladder from
//! PR 4 composes with sharding: a corrupted LUT region degrades to the
//! direct tier *per call*, the sharded output stays byte-identical to the
//! pristine serial run, and the failing tier lands in quarantine.

use axcore::engines::{
    with_lut_policy, AxCoreEngine, ExactEngine, FignaEngine, FiglutEngine, FpmaEngine, GemmEngine,
    LutPolicy, TenderEngine,
};
use axcore::{with_verify_policy, VerifyPolicy};
use axcore_parallel::ExecMode;
use axcore_quant::{GroupQuantizer, QuantFormat, QuantizedMatrix};
use axcore_softfloat::FP16;
use proptest::prelude::*;

/// Decode: one activation row over enough columns for up to 8 shards
/// (and past the 32Ki-MAC serial threshold, so workers really dispatch).
const DEC_K: usize = 256;
const DEC_N: usize = 128;
/// Prefill: several rows through the panel-tiled drive loop. `n = 32`
/// yields only 2 aligned shard boundaries — the plan must cap the shard
/// count below the worker count without dropping or doubling columns.
const PRE_M: usize = 8;
const PRE_K: usize = 192;
const PRE_N: usize = 32;

fn activations(seed: u64, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((i as u64 * 31 + seed) * 48271 % 65521) as f32 / 32760.5 - 1.0)
        .collect()
}

fn weights(seed: u64, len: usize, scale: f32) -> Vec<f32> {
    (0..len)
        .map(|i| (((i as u64 * 7 + seed) * 2654435761 % 1009) as f32 / 504.5 - 1.0) * scale)
        .collect()
}

/// Serial reference at one worker, then 2/4/8 workers in both execution
/// modes; every element must agree bit-for-bit.
fn assert_shard_bit_exact(engine: &dyn GemmEngine, a: &[f32], m: usize, w: &QuantizedMatrix) {
    let prepared = engine.prepare(w);
    let n = w.n;
    let mut serial = vec![0f32; m * n];
    axcore_parallel::with_threads(1, || {
        engine.gemm_prepared(&*prepared, a, m, &mut serial);
    });
    for threads in [2usize, 4, 8] {
        for mode in [ExecMode::Pooled, ExecMode::Scoped] {
            let mut sharded = vec![f32::NAN; m * n];
            axcore_parallel::with_threads(threads, || {
                axcore_parallel::with_exec_mode(mode, || {
                    engine.gemm_prepared(&*prepared, a, m, &mut sharded);
                });
            });
            for (j, (s, p)) in serial.iter().zip(&sharded).enumerate() {
                assert_eq!(
                    s.to_bits(),
                    p.to_bits(),
                    "engine {} elem {j} at {threads} workers ({mode:?}): serial {s} != sharded {p}",
                    engine.name()
                );
            }
        }
    }
}

/// Both shapes through one engine/format pairing.
fn assert_both_shapes(engine: &dyn GemmEngine, seed: u64, format: QuantFormat, scale: f32) {
    let qd = GroupQuantizer::fixed(format, 32).quantize(&weights(seed, DEC_K * DEC_N, scale), DEC_K, DEC_N);
    assert_shard_bit_exact(engine, &activations(seed, DEC_K), 1, &qd);
    let qp = GroupQuantizer::fixed(format, 32).quantize(&weights(seed, PRE_K * PRE_N, scale), PRE_K, PRE_N);
    assert_shard_bit_exact(engine, &activations(seed, PRE_M * PRE_K), PRE_M, &qp);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// AxCore over mixed-format adaptive FP4: the shard-restricted LUT
    /// build (only the units a shard's columns reference) and the
    /// shard-local packed-plane gathers, pinned on both kernel tiers.
    #[test]
    fn axcore_sharded_equals_serial(seed in 0u64..500, scale in 0.05f32..2.0) {
        let engine = AxCoreEngine::new(FP16);
        for policy in [LutPolicy::Always, LutPolicy::Never] {
            with_lut_policy(policy, || {
                let qd = GroupQuantizer::adaptive_fp4(32, 4, None)
                    .quantize(&weights(seed, DEC_K * DEC_N, scale), DEC_K, DEC_N);
                assert_shard_bit_exact(&engine, &activations(seed, DEC_K), 1, &qd);
                let qp = GroupQuantizer::adaptive_fp4(32, 4, None)
                    .quantize(&weights(seed, PRE_K * PRE_N, scale), PRE_K, PRE_N);
                assert_shard_bit_exact(&engine, &activations(seed, PRE_M * PRE_K), PRE_M, &qp);
            });
        }
    }

    /// AxCore with byte code planes (the legacy gather layout).
    #[test]
    fn axcore_byte_planes_sharded_equals_serial(seed in 0u64..500) {
        let engine = AxCoreEngine::new(FP16).with_packed_planes(false);
        let qd = GroupQuantizer::adaptive_fp4(32, 4, None)
            .quantize(&weights(seed, DEC_K * DEC_N, 0.4), DEC_K, DEC_N);
        assert_shard_bit_exact(&engine, &activations(seed, DEC_K), 1, &qd);
    }

    /// Exact FPC engine.
    #[test]
    fn exact_sharded_equals_serial(seed in 0u64..500) {
        assert_both_shapes(&ExactEngine::new(FP16), seed, QuantFormat::E2M1, 0.4);
    }

    /// Uniform-FPMA engine.
    #[test]
    fn fpma_sharded_equals_serial(seed in 0u64..500) {
        assert_both_shapes(&FpmaEngine::new(FP16), seed, QuantFormat::E2M1, 0.4);
    }

    /// FIGNA over INT4 weights.
    #[test]
    fn figna_sharded_equals_serial(seed in 0u64..500) {
        assert_both_shapes(&FignaEngine::new(FP16), seed, QuantFormat::INT4, 0.3);
    }

    /// FIGLUT over INT8 weights (span-table LUT tier).
    #[test]
    fn figlut_sharded_equals_serial(seed in 0u64..500) {
        assert_both_shapes(&FiglutEngine::new(FP16), seed, QuantFormat::INT8, 0.3);
    }

    /// Tender (per-worker requantization scratch).
    #[test]
    fn tender_sharded_equals_serial(seed in 0u64..500) {
        assert_both_shapes(&TenderEngine::new(8, 4), seed, QuantFormat::INT8, 0.3);
    }
}

/// Quarantined-tier fallback under sharding: corrupt a prepared matrix's
/// LUT region, run sharded at 4 workers with full verification — the
/// ladder must degrade to the direct tier, quarantine the failing rung,
/// and still produce output byte-identical to a pristine serial run.
#[test]
fn quarantined_tier_fallback_stays_bit_exact_under_shards() {
    use axcore_parallel::{health, Tier};
    let _health = axcore_xtests::tier_health_exclusive();
    let _ = health::take_report();

    let engine = AxCoreEngine::new(FP16);
    let w = weights(9, DEC_K * DEC_N, 0.4);
    let q = GroupQuantizer::adaptive_fp4(32, 4, None).quantize(&w, DEC_K, DEC_N);
    let a = activations(9, DEC_K);

    let pristine = engine.prepare(&q);
    let mut reference = vec![0f32; DEC_N];
    axcore_parallel::with_threads(1, || {
        with_lut_policy(LutPolicy::Always, || pristine.gemm(&a, 1, &mut reference));
    });

    let mut corrupt = engine.prepare(&q);
    assert!(corrupt.inject_fault("planes", 3, 5));
    let mut sharded = vec![f32::NAN; DEC_N];
    axcore_parallel::with_threads(4, || {
        axcore_parallel::with_exec_mode(ExecMode::Pooled, || {
            with_lut_policy(LutPolicy::Always, || {
                with_verify_policy(VerifyPolicy::Full, || {
                    corrupt.try_gemm(&a, 1, &mut sharded).unwrap_or_else(|e| panic!("{e}"));
                })
            })
        });
    });
    let report = health::take_report().expect("degraded call must publish a report");
    assert_eq!(report.tier, Tier::Direct, "must land on the direct tier");
    assert!(
        health::is_quarantined(Tier::SwarLut),
        "corrupt LUT tier must be quarantined"
    );
    for (j, (r, s)) in reference.iter().zip(&sharded).enumerate() {
        assert_eq!(r.to_bits(), s.to_bits(), "elem {j}: pristine {r} != degraded sharded {s}");
    }

    // And once quarantined, the sharded path keeps serving bit-exact
    // results straight from the healthy tier.
    let mut again = vec![f32::NAN; DEC_N];
    axcore_parallel::with_threads(4, || {
        with_lut_policy(LutPolicy::Always, || {
            with_verify_policy(VerifyPolicy::Full, || {
                corrupt.try_gemm(&a, 1, &mut again).unwrap_or_else(|e| panic!("{e}"));
            })
        });
    });
    for (r, s) in reference.iter().zip(&again) {
        assert_eq!(r.to_bits(), s.to_bits());
    }
    health::reset();
}
