//! Acceptance tests for the reliability layer: forced tier-state
//! corruption must degrade gracefully (AVX2-LUT → SWAR-LUT → direct, or
//! a pristine-state recovery), the final output must stay bit-identical
//! to a fault-free run, and the downgrade must be recorded in the
//! published [`ExecReport`].
//!
//! Tier quarantine and the downgrade counter are process-global, so
//! every test here holds the shared tier-health lock exclusively, which
//! resets health state on both sides.

use axcore::engines::{with_lut_policy, AxCoreEngine, GemmEngine, LutPolicy};
use axcore::{with_verify_policy, VerifyPolicy};
use axcore_faults::{run_campaign, CampaignConfig};
use axcore_parallel::{health, ExecReport, FailReason, Tier};
use axcore_quant::GroupQuantizer;
use axcore_softfloat::FP16;
use axcore_xtests::{tier_health_exclusive, TierHealthGuard};

/// Serialize the test and start from clean global health state.
fn health_guard() -> TierHealthGuard {
    let g = tier_health_exclusive();
    let _ = health::take_report();
    g
}

const M: usize = 4;
const K: usize = 64;
const N: usize = 32;

/// A packed-plane adaptive-FP4 matrix (the layout with a real LUT
/// ladder) plus activations.
fn setup(seed: u64) -> (Vec<f32>, axcore_quant::QuantizedMatrix) {
    let w: Vec<f32> = (0..K * N)
        .map(|i| (((i as u64 * 7 + seed) * 2654435761 % 1009) as f32 / 504.5 - 1.0) * 0.4)
        .collect();
    let q = GroupQuantizer::adaptive_fp4(32, 4, None).quantize(&w, K, N);
    let a: Vec<f32> = (0..M * K)
        .map(|i| ((i as u64 * 31 + seed) * 48271 % 65521) as f32 / 32760.5 - 1.0)
        .collect();
    (a, q)
}

/// Run one prepared GEMM serially under the given pins; returns the
/// published report (if any).
fn run_full(
    p: &dyn axcore::engines::PreparedGemm,
    a: &[f32],
    out: &mut [f32],
    policy: LutPolicy,
) -> Option<ExecReport> {
    let _ = health::take_report();
    axcore_parallel::with_threads(1, || {
        with_lut_policy(policy, || {
            with_verify_policy(VerifyPolicy::Full, || {
                p.try_gemm(a, M, out).unwrap_or_else(|e| panic!("{e}"));
            })
        })
    });
    health::take_report()
}

/// Forced LUT-region corruption at `Full`: every LUT rung fails its
/// integrity pre-check, the ladder walks down to the pristine direct
/// tier, the output is bit-identical, and the walk is recorded.
#[test]
fn corrupted_lut_state_degrades_to_direct_with_report() {
    let _g = health_guard();
    let (a, q) = setup(5);
    let engine = AxCoreEngine::new(FP16);

    let pristine = engine.prepare(&q);
    let mut reference = vec![0f32; M * N];
    axcore_parallel::with_threads(1, || {
        with_lut_policy(LutPolicy::Always, || pristine.gemm(&a, M, &mut reference))
    });

    let mut p = engine.prepare(&q);
    assert!(p.inject_fault("planes", 3, 5));
    let mut out = vec![f32::NAN; M * N];
    let report = run_full(p.as_ref(), &a, &mut out, LutPolicy::Always)
        .expect("degraded call must publish a report");

    assert_eq!(report.tier, Tier::Direct, "must land on the direct tier");
    assert!(report.n_downgrades() >= 1, "downgrade walk must be recorded");
    assert!(!report.recovered, "direct tier state is pristine; no recovery needed");
    for d in report.downgrades() {
        assert_eq!(d.reason, FailReason::ChecksumMismatch, "{d:?}");
        assert_ne!(d.from, Tier::Direct, "only LUT rungs may fail here");
    }
    for (j, (r, o)) in reference.iter().zip(&out).enumerate() {
        assert_eq!(r.to_bits(), o.to_bits(), "elem {j}: {r} != {o}");
    }

    // The failing tiers are quarantined: the next call skips them
    // silently (no new downgrade walk) and stays correct.
    assert!(
        health::is_quarantined(Tier::SwarLut),
        "corrupt LUT tier must be quarantined"
    );
    let mut again = vec![f32::NAN; M * N];
    let report2 = run_full(p.as_ref(), &a, &mut again, LutPolicy::Always);
    assert_eq!(report2.map(|r| r.n_downgrades()), Some(0), "quarantined rungs are skipped");
    for (r, o) in reference.iter().zip(&again) {
        assert_eq!(r.to_bits(), o.to_bits());
    }
    health::reset();
}

/// Forced direct-tier corruption with the LUT tiers pinned off: the
/// ladder exhausts and the call recovers by re-preparing from the
/// pristine quantized matrix — still bit-identical, `recovered` set.
#[test]
fn corrupted_direct_lanes_recover_from_pristine() {
    let _g = health_guard();
    let (a, q) = setup(9);
    let engine = AxCoreEngine::new(FP16);

    let pristine = engine.prepare(&q);
    let mut reference = vec![0f32; M * N];
    axcore_parallel::with_threads(1, || {
        with_lut_policy(LutPolicy::Never, || pristine.gemm(&a, M, &mut reference))
    });

    let mut p = engine.prepare(&q);
    assert!(p.inject_fault("lanes", 7, 13));
    let mut out = vec![f32::NAN; M * N];
    let report = run_full(p.as_ref(), &a, &mut out, LutPolicy::Never)
        .expect("recovered call must publish a report");

    assert!(report.recovered, "must re-execute from pristine state");
    assert_eq!(report.tier, Tier::Direct);
    assert!(report.n_downgrades() >= 1);
    for (j, (r, o)) in reference.iter().zip(&out).enumerate() {
        assert_eq!(r.to_bits(), o.to_bits(), "elem {j}: {r} != {o}");
    }
    health::reset();
}

/// After a degraded call, the worker pool itself stays reusable: a
/// clean multi-threaded GEMM on fresh prepared state still matches the
/// serial reference bit-for-bit.
#[test]
fn pool_stays_usable_after_degradation() {
    let _g = health_guard();
    let (a, q) = setup(13);
    let engine = AxCoreEngine::new(FP16);

    let mut p = engine.prepare(&q);
    assert!(p.inject_fault("planes", 1, 2));
    let mut out = vec![f32::NAN; M * N];
    axcore_parallel::with_threads(4, || {
        with_lut_policy(LutPolicy::Always, || {
            with_verify_policy(VerifyPolicy::Full, || {
                p.try_gemm(&a, M, &mut out).unwrap_or_else(|e| panic!("{e}"));
            })
        })
    });
    health::reset();
    let _ = health::take_report();

    let clean = engine.prepare(&q);
    let mut serial = vec![0f32; M * N];
    axcore_parallel::with_threads(1, || clean.gemm(&a, M, &mut serial));
    let mut pooled = vec![f32::NAN; M * N];
    axcore_parallel::with_threads(4, || clean.gemm(&a, M, &mut pooled));
    for (j, (s, o)) in serial.iter().zip(&pooled).enumerate() {
        assert_eq!(s.to_bits(), o.to_bits(), "elem {j} after degradation");
    }
    health::reset();
}

/// A `block_unit` flip naming a unit the table does not have, with
/// verification off: no integrity pre-check stands between the corrupt
/// index and the folds, so the AVX2 fold's bounds check (slice indexing
/// on the SWAR and direct rungs) must turn the would-be out-of-table
/// read into a panic. The ladder's guard catches it on every rung, and
/// the call recovers from the pristine weights, bit-identically.
#[test]
fn missing_unit_in_block_index_degrades_through_the_panic_guard() {
    let _g = health_guard();
    let (a, q) = setup(21);
    let engine = AxCoreEngine::new(FP16);

    let pristine = engine.prepare(&q);
    let mut reference = vec![0f32; M * N];
    axcore_parallel::with_threads(1, || {
        with_lut_policy(LutPolicy::Always, || pristine.gemm(&a, M, &mut reference))
    });

    let mut p = engine.prepare(&q);
    let (words, bits) = p.fault_surface("block-unit");
    assert_eq!(bits, 16, "block_unit entries are u16");
    // Bit 15 names unit ≥ 32768: far past any prepared unit.
    assert!(p.inject_fault("block-unit", words / 2, 15));
    let mut out = vec![f32::NAN; M * N];
    let _ = health::take_report();
    axcore_parallel::with_threads(1, || {
        with_lut_policy(LutPolicy::Always, || {
            with_verify_policy(VerifyPolicy::Off, || {
                p.try_gemm(&a, M, &mut out)
                    .unwrap_or_else(|e| panic!("{e}"));
            })
        })
    });
    let report = health::take_report().expect("degraded call must publish a report");
    let downgrades: Vec<_> = report.downgrades().collect();
    assert!(
        report.recovered,
        "every rung reads the index; recovery must answer"
    );
    assert!(
        matches!(
            downgrades.first().map(|d| d.from),
            Some(Tier::Avx2Lut | Tier::SwarLut)
        ),
        "the walk must start on a LUT rung: {downgrades:?}"
    );
    for d in &downgrades {
        assert_eq!(d.reason, FailReason::Panic, "{d:?}");
    }
    for (j, (r, o)) in reference.iter().zip(&out).enumerate() {
        assert_eq!(r.to_bits(), o.to_bits(), "elem {j}: {r} != {o}");
    }
    health::reset();
}

/// A call made while a transient fault plan is armed keeps the scalar
/// Norm → AxScale finish on the LUT tier: the AVX2 rung's fused finish
/// has no accumulator tap, so without that fallback an armed `acc`
/// upset would silently never fire on the default decode path.
#[test]
fn armed_accumulator_fault_reaches_the_lut_tier() {
    use axcore::reliability::faults::{self, FaultPlan, TransientSite};
    let _g = health_guard();
    let (a, q) = setup(17);
    let p = AxCoreEngine::new(FP16).prepare(&q);
    faults::arm(FaultPlan { site: TransientSite::Accumulator, event: 5, bit: 3 });
    let mut out = vec![f32::NAN; M * N];
    axcore_parallel::with_threads(1, || {
        with_lut_policy(LutPolicy::Always, || {
            with_verify_policy(VerifyPolicy::Off, || p.gemm(&a, M, &mut out))
        })
    });
    assert!(faults::disarm(), "the accumulator tap never fired on the LUT tier");
}

/// The reduced campaign sweep (the CI smoke gate): every injected
/// single-bit fault in a checksummed region, across all six engines,
/// must be detected-and-corrected or provably masked under `Full`.
#[test]
fn smoke_campaign_gate_holds() {
    let _g = health_guard();
    let report = run_campaign(&CampaignConfig::smoke(3));
    report.check().unwrap_or_else(|e| panic!("campaign gate failed: {e}"));
    assert!(report.at_rest_totals().injections > 0);
    health::reset();
}
