//! The reliability layer: verification policies, integrity checksums,
//! ABFT row checks, and the transient-fault injection taps.
//!
//! AxCore's premise is *designed* approximation error (FPMA bias, SNC
//! rounding). This module gives the stack the means to tell that apart
//! from *undesigned* error — bit flips in prepared weight state, a bug in
//! the AVX2 kernels, a worker dying mid-tile. Three mechanisms compose:
//!
//! * **Integrity checksums** over weight-derived prepared state. A
//!   sequential mix fold in which every step is a bijection of the
//!   running 64-bit state, so *any* single-bit change to *any* folded
//!   word changes the final value — detection of at-rest corruption is
//!   deterministic, not probabilistic. Checked only at
//!   [`VerifyPolicy::Full`] (the fold walks the whole prepared image).
//! * **ABFT row checks** (Huang–Abraham style, adapted to an approximate
//!   datapath). At `prepare()` time the column-summed weight vector
//!   `w_sum[k] = Σ_j W[k][j]` is computed in `f64`; after a call, each
//!   output row must satisfy `Σ_j out[i][j] ≈ Σ_k a[i][k] · w_sum[k]`
//!   within a tolerance scaled by `Σ_k |a[i][k]| · Σ_j |W[k][j]|` and the
//!   engine's approximation envelope. Classic ABFT uses equality; here
//!   the datapath is approximate *by design*, so the row check is a
//!   tolerance test that catches high-order corruption (exponent-bit
//!   flips, dropped tiles) cheaply on every sampled call.
//! * **Transient-fault taps** ([`faults`]) — single-event-upset hooks in
//!   the accumulator normalize path, the PE multiply output, and the
//!   systolic column outputs, compiled in permanently but guarded by one
//!   relaxed atomic load so the disarmed cost is unmeasurable.
//!
//! The policy knob is [`VerifyPolicy`], settable per-thread with
//! [`with_verify_policy`] or process-wide with the `AXCORE_VERIFY`
//! environment variable (`off` / `full` / `sample:<p>`).

use axcore_quant::QuantizedMatrix;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// How much verification a prepared-GEMM call performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyPolicy {
    /// No checks. The tier-degradation ladder still catches panics.
    Off,
    /// Run the ABFT row check on one call in `p` (per prepared matrix).
    /// Integrity checksums are skipped — sampling is the cheap
    /// steady-state mode, bounded by the bench gate.
    Sample(u32),
    /// Every call: integrity checksums over the executing tier's prepared
    /// state *and* the ABFT row check. Detection of single-bit at-rest
    /// faults in checksummed regions is deterministic in this mode.
    Full,
}

thread_local! {
    /// Per-thread override installed by [`with_verify_policy`].
    static OVERRIDE: Cell<Option<VerifyPolicy>> = const { Cell::new(None) };
}

fn parse_policy(s: &str) -> Option<VerifyPolicy> {
    let s = s.trim();
    match s.to_ascii_lowercase().as_str() {
        "off" | "0" | "" => Some(VerifyPolicy::Off),
        "full" | "1" => Some(VerifyPolicy::Full),
        "sample" => Some(VerifyPolicy::Sample(16)),
        other => {
            let p = other.strip_prefix("sample:")?;
            p.parse::<u32>().ok().map(|p| VerifyPolicy::Sample(p.max(1)))
        }
    }
}

/// The process-wide policy from `AXCORE_VERIFY`, read once. Unset or
/// unparsable values mean [`VerifyPolicy::Off`].
fn env_policy() -> VerifyPolicy {
    static ENV: OnceLock<VerifyPolicy> = OnceLock::new();
    *ENV.get_or_init(|| {
        axcore_parallel::env::parse("AXCORE_VERIFY", "off|full|sample|sample:<period>", parse_policy)
            .unwrap_or(VerifyPolicy::Off)
    })
}

/// Process-wide *runtime* policy override, encoded into one atomic so
/// readers on the decode hot path pay a single relaxed load:
/// `0` = unset, `1` = Off, `2` = Full, `3 + p` = Sample(p).
static RUNTIME_POLICY: AtomicU64 = AtomicU64::new(0);

fn encode_policy(p: Option<VerifyPolicy>) -> u64 {
    match p {
        None => 0,
        Some(VerifyPolicy::Off) => 1,
        Some(VerifyPolicy::Full) => 2,
        Some(VerifyPolicy::Sample(n)) => 3u64 + u64::from(n),
    }
}

fn decode_policy(bits: u64) -> Option<VerifyPolicy> {
    match bits {
        0 => None,
        1 => Some(VerifyPolicy::Off),
        2 => Some(VerifyPolicy::Full),
        n => Some(VerifyPolicy::Sample((n - 3).min(u64::from(u32::MAX)) as u32)),
    }
}

/// Install (or with `None`, clear) a process-wide verification policy
/// override that outranks the `AXCORE_VERIFY` environment setting but is
/// still outranked by a thread's [`with_verify_policy`] scope.
///
/// This is the overload controller's knob: a serving runtime under
/// pressure steps `Full → Sample → Off` across *all* request threads at
/// once, then restores the previous rung when the queue drains —
/// something neither the thread-scoped override (wrong extent) nor the
/// environment variable (read once) can express. Takes effect on the
/// next GEMM call; in-flight calls keep the policy they started with.
pub fn set_runtime_verify_policy(policy: Option<VerifyPolicy>) {
    RUNTIME_POLICY.store(encode_policy(policy), Ordering::Relaxed);
}

/// The currently installed runtime override, if any.
pub fn runtime_verify_policy() -> Option<VerifyPolicy> {
    decode_policy(RUNTIME_POLICY.load(Ordering::Relaxed))
}

/// The verification policy in effect on this thread: the
/// [`with_verify_policy`] override if one is installed, else the
/// [`set_runtime_verify_policy`] process-wide override, else the
/// `AXCORE_VERIFY` environment setting, else [`VerifyPolicy::Off`].
pub fn current_verify_policy() -> VerifyPolicy {
    OVERRIDE
        .with(|c| c.get())
        .or_else(runtime_verify_policy)
        .unwrap_or_else(env_policy)
}

/// Run `f` with the thread's verification policy overridden to `policy`,
/// restoring the previous override afterwards (on unwind too).
pub fn with_verify_policy<R>(policy: VerifyPolicy, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<VerifyPolicy>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = OVERRIDE.with(|c| c.replace(Some(policy)));
    let _restore = Restore(prev);
    f()
}

/// Seed for the integrity mix fold.
pub const CHECKSUM_SEED: u64 = 0xA076_1D64_78BD_642F;

/// One step of the integrity fold. For any fixed `v`, the map
/// `h → mix(h, v)` is a bijection (XOR, multiply by an odd constant, and
/// rotate are all invertible on `u64`), and for any fixed `h` so is
/// `v → mix(h, v)` — hence a single-bit change in any folded word always
/// changes the final checksum.
#[inline]
pub fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31)
}

/// Fold a slice into the running checksum, one word per element.
pub fn fold<T: Copy>(mut h: u64, xs: &[T], to_bits: impl Fn(T) -> u64) -> u64 {
    for &x in xs {
        h = mix(h, to_bits(x));
    }
    h
}

/// The ABFT row check: precomputed column-summed weight vectors plus the
/// engine's approximation envelope.
#[derive(Debug)]
pub struct AbftCheck {
    /// `w_sum[kk] = Σ_j W[kk][j]` over the dequantized weights (f64).
    w_sum: Vec<f64>,
    /// `w_abs[kk] = Σ_j |W[kk][j]|` — scales the tolerance.
    w_abs: Vec<f64>,
    /// Relative tolerance: the engine's worst-case approximation envelope
    /// (tight for exact engines, wide for the approximate ones).
    rel: f64,
}

impl AbftCheck {
    /// Precompute the checksum vectors for `w`, with relative tolerance
    /// `rel` matching the owning engine's approximation envelope.
    pub fn from_matrix(w: &QuantizedMatrix, rel: f64) -> Self {
        let mut w_sum = vec![0f64; w.k];
        let mut w_abs = vec![0f64; w.k];
        for kk in 0..w.k {
            let (mut s, mut ab) = (0f64, 0f64);
            for j in 0..w.n {
                let v = w.dequant(kk, j);
                s += v;
                ab += v.abs();
            }
            w_sum[kk] = s;
            w_abs[kk] = ab;
        }
        AbftCheck { w_sum, w_abs, rel }
    }

    /// Check every output row of a finished call. Returns `false` iff
    /// some row's sum provably disagrees with the checksum prediction.
    ///
    /// Rows whose prediction, magnitude bound, or output sum is non-finite
    /// are skipped (NaN/Inf activations make the row sum meaningless, and
    /// a `NaN > tol` comparison must never flag — the comparison is
    /// written so NaN passes).
    pub fn check(&self, a: &[f32], m: usize, n: usize, out: &[f32]) -> bool {
        let k = self.w_sum.len();
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let mut pred = 0f64;
            let mut mag = 0f64;
            for (av, (ws, wa)) in arow.iter().zip(self.w_sum.iter().zip(&self.w_abs)) {
                pred += *av as f64 * ws;
                mag += (*av as f64).abs() * wa;
            }
            if !pred.is_finite() || !mag.is_finite() {
                continue;
            }
            let got: f64 = out[i * n..(i + 1) * n].iter().map(|&v| v as f64).sum();
            if !got.is_finite() {
                continue;
            }
            let tol = self.rel * mag + 1e-6;
            // NaN-safe: `diff > tol` is false for NaN, so a pathological
            // row can never trigger an endless recovery loop.
            if (got - pred).abs() > tol {
                return false;
            }
        }
        true
    }
}

/// What one call should verify, resolved from the active policy.
#[derive(Debug, Clone, Copy)]
pub struct VerifyPlan {
    /// Run the ABFT row check on the output.
    pub abft: bool,
    /// Recompute integrity checksums over the executing tier's state.
    pub integrity: bool,
}

impl VerifyPlan {
    /// Whether any verification runs at all this call.
    #[inline]
    pub fn any(&self) -> bool {
        self.abft || self.integrity
    }
}

/// Per-prepared-matrix verification state: the ABFT vectors, the pristine
/// weight matrix (the recovery source when every tier fails integrity),
/// and the sampling counter.
#[derive(Debug)]
pub struct Verifier {
    abft: AbftCheck,
    pristine: QuantizedMatrix,
    calls: AtomicU64,
}

impl Verifier {
    /// Build the verifier for `w`. `rel` is the owning engine's
    /// approximation envelope for the ABFT tolerance.
    pub fn new(w: &QuantizedMatrix, rel: f64) -> Self {
        // Resolve the env knobs once, at prepare time, so the first hot
        // call never pays the getenv.
        let _ = env_policy();
        faults::arm_from_env();
        Verifier {
            abft: AbftCheck::from_matrix(w, rel),
            pristine: w.clone(),
            calls: AtomicU64::new(0),
        }
    }

    /// Resolve the active policy into this call's [`VerifyPlan`]
    /// (advancing the sampling counter when sampling).
    pub fn plan(&self) -> VerifyPlan {
        match current_verify_policy() {
            VerifyPolicy::Off => VerifyPlan { abft: false, integrity: false },
            VerifyPolicy::Full => VerifyPlan { abft: true, integrity: true },
            VerifyPolicy::Sample(p) => {
                let c = self.calls.fetch_add(1, Ordering::Relaxed);
                VerifyPlan { abft: c.is_multiple_of(p as u64), integrity: false }
            }
        }
    }

    /// Run the ABFT row check on a finished output.
    pub fn abft_ok(&self, a: &[f32], m: usize, n: usize, out: &[f32]) -> bool {
        self.abft.check(a, m, n, out)
    }

    /// The pristine weight matrix captured at prepare time — the recovery
    /// source for re-preparation after an unrecoverable integrity failure.
    pub fn pristine(&self) -> &QuantizedMatrix {
        &self.pristine
    }
}

/// Transient single-event-upset injection: taps inside the datapath that
/// flip one bit of one in-flight value, once, at a chosen event index.
///
/// The taps compile in unconditionally but cost a single relaxed atomic
/// load when disarmed (the global [`ARMED`] flag), so the hot path keeps
/// its shape. Arming installs a [`FaultPlan`]; the fault fires at the
/// `event`-th tap hit on the matching site and then self-disarms, which
/// makes campaigns deterministic — the same plan always corrupts the same
/// in-flight value.
pub mod faults {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock, PoisonError};

    /// Which datapath value the transient fault corrupts.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TransientSite {
        /// The partial accumulator significand entering `NormUnit`.
        Accumulator,
        /// The PE multiply output magnitude (direct tier / systolic).
        PeOutput,
        /// A normalized column output of the systolic array.
        SystolicOutput,
    }

    impl TransientSite {
        /// Short lowercase name for reports.
        pub fn name(self) -> &'static str {
            match self {
                TransientSite::Accumulator => "acc",
                TransientSite::PeOutput => "pe",
                TransientSite::SystolicOutput => "sys",
            }
        }
    }

    /// One planned single-event upset.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct FaultPlan {
        /// Where the bit flips.
        pub site: TransientSite,
        /// Fire at the `event`-th tap hit on the site (0-based).
        pub event: u64,
        /// Bit position to flip (taken modulo the value's width).
        pub bit: u32,
    }

    static ARMED: AtomicBool = AtomicBool::new(false);
    static FIRED: AtomicBool = AtomicBool::new(false);
    static EVENTS: AtomicU64 = AtomicU64::new(0);
    static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);

    /// Arm the harness with one planned upset (resets the event counter).
    pub fn arm(plan: FaultPlan) {
        *PLAN.lock().unwrap_or_else(PoisonError::into_inner) = Some(plan);
        EVENTS.store(0, Ordering::Relaxed);
        FIRED.store(false, Ordering::Relaxed);
        ARMED.store(true, Ordering::Release);
    }

    /// Disarm without firing. Returns whether the planned fault had fired.
    pub fn disarm() -> bool {
        ARMED.store(false, Ordering::Relaxed);
        *PLAN.lock().unwrap_or_else(PoisonError::into_inner) = None;
        FIRED.load(Ordering::Relaxed)
    }

    /// Whether the armed fault has fired.
    pub fn fired() -> bool {
        FIRED.load(Ordering::Relaxed)
    }

    /// Whether a planned upset is armed and has not fired yet. Vector
    /// kernels that bypass the taps (the LUT tier's fused FP16 finish
    /// skips `NormUnit::normalize`) check this per call and take the
    /// tapped scalar path while it holds.
    #[inline]
    pub fn armed() -> bool {
        ARMED.load(Ordering::Relaxed)
    }

    /// Arm from `AXCORE_FAULTS` (`acc:<event>:<bit>` / `pe:<event>:<bit>`
    /// / `sys:<event>:<bit>`), once per process. Unset or malformed
    /// values arm nothing.
    pub fn arm_from_env() {
        static ONCE: OnceLock<()> = OnceLock::new();
        ONCE.get_or_init(|| {
            if let Some(plan) = axcore_parallel::env::parse(
                "AXCORE_FAULTS",
                "acc:<event>:<bit> | pe:<event>:<bit> | sys:<event>:<bit>",
                parse,
            ) {
                arm(plan);
            }
        });
    }

    fn parse(s: &str) -> Option<FaultPlan> {
        let mut it = s.trim().split(':');
        let site = match it.next()? {
            "acc" => TransientSite::Accumulator,
            "pe" => TransientSite::PeOutput,
            "sys" => TransientSite::SystolicOutput,
            _ => return None,
        };
        let event = it.next()?.parse().ok()?;
        let bit = it.next()?.parse().ok()?;
        Some(FaultPlan { site, event, bit })
    }

    /// The slow path behind an armed tap: count the event and, at the
    /// planned index, self-disarm and return the bit to flip.
    #[cold]
    fn fire_bit(site: TransientSite) -> Option<u32> {
        let plan = (*PLAN.lock().unwrap_or_else(PoisonError::into_inner))?;
        if plan.site != site {
            return None;
        }
        let e = EVENTS.fetch_add(1, Ordering::Relaxed);
        if e == plan.event {
            ARMED.store(false, Ordering::Relaxed);
            FIRED.store(true, Ordering::Relaxed);
            return Some(plan.bit);
        }
        None
    }

    /// Accumulator-significand tap (called from `NormUnit::normalize`).
    /// The flipped bit is taken modulo 64.
    #[inline]
    pub fn tap_acc(sig: i64) -> i64 {
        if !ARMED.load(Ordering::Relaxed) {
            return sig;
        }
        match fire_bit(TransientSite::Accumulator) {
            Some(b) => sig ^ (1i64 << (b % 64)),
            None => sig,
        }
    }

    /// PE multiply-output tap (called from `Pe::multiply`). Modulo 32.
    #[inline]
    pub fn tap_pe(mag: u32) -> u32 {
        if !ARMED.load(Ordering::Relaxed) {
            return mag;
        }
        match fire_bit(TransientSite::PeOutput) {
            Some(b) => mag ^ (1u32 << (b % 32)),
            None => mag,
        }
    }

    /// Systolic column-output tap (normalized bits). Modulo 32.
    #[inline]
    pub fn tap_systolic(bits: u32) -> u32 {
        if !ARMED.load(Ordering::Relaxed) {
            return bits;
        }
        match fire_bit(TransientSite::SystolicOutput) {
            Some(b) => bits ^ (1u32 << (b % 32)),
            None => bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axcore_quant::{GroupQuantizer, QuantFormat};

    #[test]
    fn runtime_policy_encoding_round_trips() {
        for p in [
            None,
            Some(VerifyPolicy::Off),
            Some(VerifyPolicy::Full),
            Some(VerifyPolicy::Sample(1)),
            Some(VerifyPolicy::Sample(16)),
            Some(VerifyPolicy::Sample(u32::MAX)),
        ] {
            assert_eq!(decode_policy(encode_policy(p)), p);
        }
    }

    #[test]
    fn policy_parses_every_form() {
        assert_eq!(parse_policy("off"), Some(VerifyPolicy::Off));
        assert_eq!(parse_policy("full"), Some(VerifyPolicy::Full));
        assert_eq!(parse_policy("sample"), Some(VerifyPolicy::Sample(16)));
        assert_eq!(parse_policy("sample:4"), Some(VerifyPolicy::Sample(4)));
        assert_eq!(parse_policy("sample:0"), Some(VerifyPolicy::Sample(1)));
        assert_eq!(parse_policy("nonsense"), None);
    }

    // The runtime-override assertions live inside this same test because
    // they mutate a process-global slot the surrounding assertions also
    // observe; the parallel test runner would otherwise interleave them.
    #[test]
    fn override_restores_on_unwind() {
        assert_eq!(current_verify_policy(), VerifyPolicy::Off);
        with_verify_policy(VerifyPolicy::Full, || {
            assert_eq!(current_verify_policy(), VerifyPolicy::Full);
        });
        assert_eq!(current_verify_policy(), VerifyPolicy::Off);
        let r = std::panic::catch_unwind(|| {
            with_verify_policy(VerifyPolicy::Full, || panic!("boom"));
        });
        assert!(r.is_err());
        assert_eq!(current_verify_policy(), VerifyPolicy::Off);

        // Runtime override outranks env (Off here) but not the
        // thread-scoped override.
        set_runtime_verify_policy(Some(VerifyPolicy::Sample(4)));
        assert_eq!(current_verify_policy(), VerifyPolicy::Sample(4));
        with_verify_policy(VerifyPolicy::Full, || {
            assert_eq!(current_verify_policy(), VerifyPolicy::Full);
        });
        set_runtime_verify_policy(None);
        assert_eq!(runtime_verify_policy(), None);
        assert_eq!(current_verify_policy(), VerifyPolicy::Off);
    }

    #[test]
    fn mix_fold_detects_every_single_bit_flip() {
        let words = [0u64, 1, 0xdead_beef, u64::MAX, 42];
        let base = fold(CHECKSUM_SEED, &words, |w| w);
        for i in 0..words.len() {
            for bit in 0..64 {
                let mut flipped = words;
                flipped[i] ^= 1 << bit;
                assert_ne!(base, fold(CHECKSUM_SEED, &flipped, |w| w), "word {i} bit {bit}");
            }
        }
    }

    fn sample_matrix() -> axcore_quant::QuantizedMatrix {
        let (k, n) = (32, 8);
        let w: Vec<f32> = (0..k * n).map(|i| ((i * 7 % 23) as f32 - 11.0) * 0.05).collect();
        GroupQuantizer::fixed(QuantFormat::E2M1, 16).quantize(&w, k, n)
    }

    #[test]
    fn abft_accepts_exact_output_and_rejects_gross_corruption() {
        let q = sample_matrix();
        let abft = AbftCheck::from_matrix(&q, 1e-3);
        let (m, k, n) = (2, q.k, q.n);
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.1).sin()).collect();
        let mut out = vec![0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[i * n + j] =
                    (0..k).map(|kk| a[i * k + kk] as f64 * q.dequant(kk, j)).sum::<f64>() as f32;
            }
        }
        assert!(abft.check(&a, m, n, &out));
        out[3] += 100.0;
        assert!(!abft.check(&a, m, n, &out));
    }

    #[test]
    fn abft_skips_nonfinite_rows() {
        let q = sample_matrix();
        let abft = AbftCheck::from_matrix(&q, 1e-3);
        let (m, k, n) = (1, q.k, q.n);
        let mut a = vec![f32::NAN; m * k];
        a[1] = f32::INFINITY;
        let out = vec![f32::NAN; m * n];
        assert!(abft.check(&a, m, n, &out), "non-finite rows must pass, not loop");
    }

    // The taps share process-global state, so every scenario lives in
    // one test (the parallel test runner would otherwise interleave
    // arm/disarm calls).
    #[test]
    fn transient_fault_fires_once_and_filters_by_site() {
        faults::disarm();
        faults::arm(faults::FaultPlan {
            site: faults::TransientSite::Accumulator,
            event: 2,
            bit: 5,
        });
        assert_eq!(faults::tap_acc(10), 10, "event 0 passes");
        assert_eq!(faults::tap_acc(10), 10, "event 1 passes");
        assert_eq!(faults::tap_acc(10), 10 ^ (1 << 5), "event 2 fires");
        assert!(faults::fired());
        assert_eq!(faults::tap_acc(10), 10, "self-disarmed");
        assert!(faults::disarm());

        faults::arm(faults::FaultPlan {
            site: faults::TransientSite::PeOutput,
            event: 0,
            bit: 3,
        });
        assert_eq!(faults::tap_acc(7), 7, "acc tap ignores pe plan");
        assert_eq!(faults::tap_pe(7), 7 ^ (1 << 3), "pe tap fires");
        faults::disarm();
    }
}
