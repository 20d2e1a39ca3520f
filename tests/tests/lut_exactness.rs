//! Bit-exactness of the LUT execution tier (proptest).
//!
//! The LUT tier replaces the prepared engines' inner column loops with
//! per-activation-element product tables gathered by weight code. Every
//! entry is produced by the same datapath as the direct kernel and the
//! gather folds entries in the direct kernel's exact accumulation order,
//! so pinning `LutPolicy::Always` against `LutPolicy::Never` must give
//! byte-identical `f32` outputs — for every engine, weight format, mixed
//! format block layout, and worker count.
//!
//! Tie coverage: the SNC tie codes only occur for specific (activation,
//! weight-code) pairs, so alongside quantizer-produced matrices these
//! properties run *all-codes* matrices — codes cycling the full code
//! space with unit FP16 scales — guaranteeing every table row (both tie
//! variants, zero codes, saturating codes) is gathered. Activations
//! include exact zeros, an FP16 subnormal, and a value that underflows
//! FP16 entirely (the PreAdd Guard-zero path).

use axcore::engines::{
    with_lut_policy, AxCoreConfig, AxCoreEngine, ExactEngine, FiglutEngine, FignaEngine,
    FpmaEngine, GemmEngine, LutPolicy, TenderEngine,
};
use axcore_quant::{GroupQuantizer, QuantFormat, QuantizedMatrix};
use axcore_softfloat::{BF16, FP16};
use proptest::prelude::*;

/// Defaults chosen so `m·k·n` clears `MIN_PARALLEL_MACS` (32·1024): the
/// 2- and 4-worker runs genuinely split work instead of degenerating to
/// the serial path.
const M: usize = 8;
const K: usize = 192;
const N: usize = 32;

/// Pseudo-random activations with the LUT edge cases injected: an exact
/// zero, an FP16 subnormal (just under the 2⁻¹⁴ normal threshold), and a
/// magnitude below even FP16's subnormal range (encodes to zero — the
/// Guard-zero table row).
fn activations(len: usize, seed: u64) -> Vec<f32> {
    let mut a: Vec<f32> = (0..len)
        .map(|i| ((i as u64 * 31 + seed) * 48271 % 65521) as f32 / 32760.5 - 1.0)
        .collect();
    a[len / 3] = 0.0;
    a[len / 2] = 6.05e-5;
    a[2 * len / 3] = 1.0e-7;
    a
}

fn weights(len: usize, seed: u64, scale: f32) -> Vec<f32> {
    (0..len)
        .map(|i| (((i as u64 * 7 + seed) * 2654435761 % 1009) as f32 / 504.5 - 1.0) * scale)
        .collect()
}

/// A hand-built matrix whose codes cycle each block's *entire* code
/// space (offset by `seed` so proptest shifts the phase), with unit FP16
/// scales (`0x3C00`): every LUT table row — both SNC tie variants, the
/// zero codes, the saturating codes — is guaranteed to be gathered.
fn all_codes_matrix(
    k: usize,
    n: usize,
    gs: usize,
    bc: usize,
    formats: &[QuantFormat],
    seed: u64,
) -> QuantizedMatrix {
    let groups = k / gs;
    let nbc = n / bc;
    let fmts: Vec<QuantFormat> =
        (0..groups * nbc).map(|i| formats[i % formats.len()]).collect();
    let mut codes = vec![0u8; k * n];
    for kk in 0..k {
        for col in 0..n {
            let f = fmts[(kk / gs) * nbc + col / bc];
            let space = 1u64 << f.code_bits();
            codes[kk * n + col] = ((kk as u64 + col as u64 + seed) % space) as u8;
        }
    }
    QuantizedMatrix {
        k,
        n,
        group_size: gs,
        block_cols: bc,
        codes,
        scales: vec![0x3C00; groups * n],
        formats: fmts,
    }
}

/// Prepare once, take the direct kernel (`LutPolicy::Never`, one worker)
/// as the reference, then demand byte identity from the LUT tier at 1, 2
/// and 4 workers and from the `Auto` heuristic.
fn assert_lut_bit_exact(engine: &dyn GemmEngine, a: &[f32], m: usize, q: &QuantizedMatrix) {
    let prepared = engine.prepare(q);
    let mut reference = vec![0f32; m * q.n];
    axcore_parallel::with_threads(1, || {
        with_lut_policy(LutPolicy::Never, || {
            engine.gemm_prepared(&*prepared, a, m, &mut reference)
        });
    });
    let mut got = vec![0f32; m * q.n];
    for threads in [1usize, 2, 4] {
        got.fill(f32::NAN);
        axcore_parallel::with_threads(threads, || {
            with_lut_policy(LutPolicy::Always, || {
                engine.gemm_prepared(&*prepared, a, m, &mut got)
            });
        });
        for (j, (r, l)) in reference.iter().zip(&got).enumerate() {
            assert_eq!(
                r.to_bits(),
                l.to_bits(),
                "engine {} threads {threads} elem {j}: direct {r} != lut {l}",
                engine.name()
            );
        }
    }
    // Whatever tier the Auto heuristic picks for this shape must agree.
    got.fill(f32::NAN);
    axcore_parallel::with_threads(4, || {
        with_lut_policy(LutPolicy::Auto, || engine.gemm_prepared(&*prepared, a, m, &mut got));
    });
    for (j, (r, l)) in reference.iter().zip(&got).enumerate() {
        assert_eq!(
            r.to_bits(),
            l.to_bits(),
            "engine {} auto elem {j}: direct {r} != auto {l}",
            engine.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// AxCore over block-adaptive FP4: mixed E1M2/E2M1/E3M0 blocks, so
    /// the per-unit table segments and the group unit masks are
    /// exercised together.
    #[test]
    fn axcore_adaptive_lut_bit_exact(seed in 0u64..500, scale in 0.05f32..2.0) {
        let q = GroupQuantizer::adaptive_fp4(32, 4, None)
            .quantize(&weights(K * N, seed, scale), K, N);
        let fmts: std::collections::HashSet<_> =
            q.formats.iter().map(|f| format!("{f}")).collect();
        prop_assume!(fmts.len() > 1); // genuinely mixed-format matrix
        assert_lut_bit_exact(&AxCoreEngine::new(FP16), &activations(M * K, seed), M, &q);
    }

    /// AxCore over an all-codes matrix cycling every FP4 format: every
    /// (tie variant, code) table entry of all three units is gathered.
    #[test]
    fn axcore_all_codes_lut_bit_exact(seed in 0u64..500) {
        let q = all_codes_matrix(
            K, N, 32, 4,
            &[QuantFormat::E1M2, QuantFormat::E2M1, QuantFormat::E3M0],
            seed,
        );
        assert_lut_bit_exact(&AxCoreEngine::new(FP16), &activations(M * K, seed), M, &q);
    }

    /// AxCore over FP8 E4M3 weights: the 256-code table layout.
    #[test]
    fn axcore_fp8_lut_bit_exact(seed in 0u64..200) {
        let q = all_codes_matrix(K, N, 32, 4, &[QuantFormat::E4M3], seed);
        assert_lut_bit_exact(&AxCoreEngine::new(FP16), &activations(M * K, seed), M, &q);
    }

    /// Uniform-FPMA: the palette-keyed LUT (scales baked into the
    /// dequantized patterns), over both quantizer output and all-codes
    /// matrices in each FP4 format.
    #[test]
    fn fpma_lut_bit_exact(seed in 0u64..500) {
        let a = activations(M * K, seed);
        let engine = FpmaEngine::new(FP16);
        let q = GroupQuantizer::fixed(QuantFormat::E2M1, 32)
            .quantize(&weights(K * N, seed, 0.4), K, N);
        assert_lut_bit_exact(&engine, &a, M, &q);
        for f in [QuantFormat::E1M2, QuantFormat::E2M1, QuantFormat::E3M0] {
            assert_lut_bit_exact(&engine, &a, M, &all_codes_matrix(K, N, 32, 4, &[f], seed));
        }
    }

    /// FIGNA (INT4) and FIGLUT (INT8): the value-keyed integer LUT,
    /// including mixed INT4/INT8 blocks in one matrix.
    #[test]
    fn int_fp_lut_bit_exact(seed in 0u64..500) {
        let a = activations(M * K, seed);
        let q4 = all_codes_matrix(K, N, 32, 4, &[QuantFormat::INT4], seed);
        assert_lut_bit_exact(&FignaEngine::new(FP16), &a, M, &q4);
        let q8 = all_codes_matrix(K, N, 32, 4, &[QuantFormat::INT8], seed);
        assert_lut_bit_exact(&FiglutEngine::new(FP16), &a, M, &q8);
        let mixed = all_codes_matrix(K, N, 32, 4, &[QuantFormat::INT4, QuantFormat::INT8], seed);
        assert_lut_bit_exact(&FiglutEngine::new(FP16), &a, M, &mixed);
    }

    /// AxScale edge scales on an all-codes three-format matrix, at the
    /// decode and a small prefill height: scales that saturate (the
    /// largest finite, large powers of two), flush (FP16 subnormals and
    /// the smallest normal), negative and signed-zero scales, so the
    /// fused Norm → AxScale finish of the AVX2 rung meets every clamp.
    /// `k · n` is sized so even `m = 1` clears the parallel threshold
    /// and the 2- and 4-worker runs really shard the columns.
    #[test]
    fn axcore_edge_scales_lut_bit_exact(seed in 0u64..500) {
        let (k, n) = (256usize, 128usize);
        let mut q = all_codes_matrix(
            k, n, 32, 4,
            &[QuantFormat::E1M2, QuantFormat::E2M1, QuantFormat::E3M0],
            seed,
        );
        const EDGES: [u16; 14] = [
            0x7bff, 0xfbff, 0x7800, 0x6c00, // saturating
            0x0001, 0x83ff, 0x0400, 0x1000, // subnormal / flushing
            0x0000, 0x8000,                 // signed zeros
            0xbc00, 0xc500, 0x3c00, 0x2e66, // negative and ordinary
        ];
        for (i, s) in q.scales.iter_mut().enumerate() {
            *s = EDGES[(i + seed as usize) % EDGES.len()];
        }
        for m in [1usize, 3] {
            assert_lut_bit_exact(&AxCoreEngine::new(FP16), &activations(m * k, seed), m, &q);
        }
    }

    /// Decode shape (m = 1, wide n): the shared-table column-tile split
    /// in `drive_lut` — one build on the calling thread, read-only
    /// gathers across workers.
    #[test]
    fn decode_shape_lut_bit_exact(seed in 0u64..200) {
        let (k, n) = (512usize, 128usize);
        let q = GroupQuantizer::adaptive_fp4(64, 4, None)
            .quantize(&weights(k * n, seed, 0.4), k, n);
        let a = activations(k, seed);
        assert_lut_bit_exact(&AxCoreEngine::new(FP16), &a, 1, &q);
    }
}

/// Row blocking of the AVX2 fold: the tier folds up to four activation
/// rows per pass against each 8-column tile, so heights around the
/// block size (1–5, 8, 9) and a long ragged one (33) meet every full and
/// partial block, alone and split across 2 and 4 column shards. Block
/// widths 1 and 2 put three units in every tile, 4 two, 8 and 64 one;
/// widths below 8 also leave 4 remainder columns past the last tile
/// (`n = 100`). FP16 and BF16 activations, each with FPMA (AxScale) and
/// exact dequantization, so the fused FP16 finish and the unfused
/// `(sig, exp)` form both run. `k = 384` keeps even `m = 1` above the
/// parallel threshold, so the 2- and 4-worker runs really shard.
#[test]
fn axcore_row_blocks_lut_bit_exact() {
    let k = 384;
    let fp4s = [QuantFormat::E1M2, QuantFormat::E2M1, QuantFormat::E3M0];
    let exact_dequant = AxCoreConfig {
        fpma_dequant: false,
        ..AxCoreConfig::default()
    };
    for bc in [1usize, 2, 4, 8, 64] {
        let n = if bc == 64 {
            128
        } else {
            100usize.next_multiple_of(bc)
        };
        let q = all_codes_matrix(k, n, 32, bc, &fp4s, bc as u64);
        for act in [FP16, BF16] {
            for cfg in [AxCoreConfig::default(), exact_dequant] {
                let engine = AxCoreEngine::with_config(act, cfg);
                for m in [1usize, 2, 3, 4, 5, 8, 9, 33] {
                    assert_lut_bit_exact(&engine, &activations(m * k, (m * bc) as u64), m, &q);
                }
            }
        }
    }
}

/// Activation rows built to stress the encode/Guard/normalize paths:
/// NaN, ±∞, a row of negative zeros, a row of f32 subnormals (below
/// even FP16's subnormal range — the Guard-zero path), and a row of
/// FP16-subnormal magnitudes. One pathological value or row each, the
/// rest pseudo-random.
fn pathological_activations() -> Vec<f32> {
    let mut a = activations(M * K, 97);
    a[0] = f32::NAN;
    a[K + 1] = f32::INFINITY;
    a[2 * K + 2] = f32::NEG_INFINITY;
    for v in a[3 * K..4 * K].iter_mut() {
        *v = -0.0;
    }
    for (i, v) in a[4 * K..5 * K].iter_mut().enumerate() {
        *v = f32::from_bits(1 + (i as u32 % 127)); // f32 subnormals
    }
    for (i, v) in a[5 * K..6 * K].iter_mut().enumerate() {
        *v = 3.0e-5 + i as f32 * 1.0e-7; // FP16 subnormal magnitudes
    }
    a
}

/// Pathological rows through every engine: no panics on any tier, and
/// the LUT tiers stay byte-identical to the direct kernel even when the
/// outputs are NaN/∞ (compared as bits, so NaN payloads count too).
#[test]
fn pathological_activations_bit_identical_across_tiers() {
    let a = pathological_activations();
    let q_ax = GroupQuantizer::adaptive_fp4(32, 4, None).quantize(&weights(K * N, 3, 0.4), K, N);
    assert_lut_bit_exact(&AxCoreEngine::new(FP16), &a, M, &q_ax);
    let q_fp4 = GroupQuantizer::fixed(QuantFormat::E2M1, 32).quantize(&weights(K * N, 3, 0.4), K, N);
    assert_lut_bit_exact(&ExactEngine::new(FP16), &a, M, &q_fp4);
    assert_lut_bit_exact(&FpmaEngine::new(FP16), &a, M, &q_fp4);
    let q_i4 = GroupQuantizer::fixed(QuantFormat::INT4, 32).quantize(&weights(K * N, 3, 0.3), K, N);
    assert_lut_bit_exact(&FignaEngine::new(FP16), &a, M, &q_i4);
    let q_i8 = GroupQuantizer::fixed(QuantFormat::INT8, 32).quantize(&weights(K * N, 3, 0.3), K, N);
    assert_lut_bit_exact(&FiglutEngine::new(FP16), &a, M, &q_i8);
    assert_lut_bit_exact(&TenderEngine::new(8, 4), &a, M, &q_i8);
}

/// The same pathological rows must also survive `Full` verification
/// without spurious degradation: the ABFT row check is NaN/∞-tolerant
/// (a non-finite checksum discrepancy never *exceeds* the tolerance
/// comparison), so a healthy engine must not downgrade or recover.
#[test]
fn pathological_activations_survive_full_verification() {
    use axcore::{with_verify_policy, VerifyPolicy};
    let a = pathological_activations();
    let q = GroupQuantizer::adaptive_fp4(32, 4, None).quantize(&weights(K * N, 3, 0.4), K, N);
    let engine = AxCoreEngine::new(FP16);
    let prepared = engine.prepare(&q);
    let mut reference = vec![0f32; M * N];
    axcore_parallel::with_threads(1, || {
        with_lut_policy(LutPolicy::Never, || prepared.gemm(&a, M, &mut reference))
    });
    for policy in [LutPolicy::Never, LutPolicy::Always] {
        let mut out = vec![f32::NAN; M * N];
        axcore_parallel::with_threads(1, || {
            with_lut_policy(policy, || {
                with_verify_policy(VerifyPolicy::Full, || {
                    prepared.try_gemm(&a, M, &mut out).unwrap_or_else(|e| panic!("{e}"));
                })
            })
        });
        let report = axcore_parallel::health::take_report();
        if let Some(r) = report {
            assert_eq!(r.n_downgrades(), 0, "healthy call must not degrade: {r:?}");
            assert!(!r.recovered, "healthy call must not recover: {r:?}");
        }
        for (j, (r, o)) in reference.iter().zip(&out).enumerate() {
            assert_eq!(r.to_bits(), o.to_bits(), "policy {policy:?} elem {j}");
        }
    }
}

/// On a host whose LUT fold runs 16 columns per instruction
/// (`axcore_simd::fold_lanes() == 16`), the AxCore LUT tier really takes
/// the AVX-512 body: every 16-column tile of a 64-column GEMM is one
/// counted wide fold, fused (FP16) and unfused (BF16) alike, and the
/// output is the direct kernel's, bit for bit. Elsewhere no wide fold
/// may run at all.
#[test]
fn lut_tier_takes_the_sixteen_lane_body_where_the_host_has_it() {
    let (k, n) = (128, 64);
    let fp4s = [QuantFormat::E1M2, QuantFormat::E2M1, QuantFormat::E3M0];
    let q = all_codes_matrix(k, n, 32, 64, &fp4s, 5);
    let lanes = axcore_simd::fold_lanes();
    if lanes != 16 {
        println!("fold_lanes() = {lanes}: this host has no 16-lane body to take");
    }
    for act in [FP16, BF16] {
        let engine = AxCoreEngine::new(act);
        let prepared = engine.prepare(&q);
        for m in [1usize, 4, 5] {
            let a = activations(m * k, m as u64);
            let mut reference = vec![0f32; m * n];
            axcore_parallel::with_threads(1, || {
                with_lut_policy(LutPolicy::Never, || prepared.gemm(&a, m, &mut reference))
            });
            let mut got = vec![f32::NAN; m * n];
            let ((), wide) = axcore_simd::count_wide_folds(|| {
                axcore_parallel::with_threads(1, || {
                    with_lut_policy(LutPolicy::Always, || prepared.gemm(&a, m, &mut got))
                })
            });
            // One fold per (row block, group, 16-column tile).
            let tiles = m.div_ceil(4) * (k / 32) * (n / 16);
            if lanes == 16 {
                assert!(
                    wide >= tiles as u64,
                    "{act:?} m {m}: {wide} wide folds, want {tiles}"
                );
            } else {
                assert_eq!(wide, 0, "{act:?} m {m}: a wide fold ran without AVX-512");
            }
            for (j, (r, g)) in reference.iter().zip(&got).enumerate() {
                assert_eq!(r.to_bits(), g.to_bits(), "{act:?} m {m} elem {j}");
            }
        }
    }
}
