//! Deterministic seeded fault-injection campaigns (single-event-upset
//! model) over the prepared GEMM engines.
//!
//! The harness sweeps two fault classes:
//!
//! - **At-rest faults**: one bit of one word of a prepared engine's
//!   stationary state (weight copies, LUT entries, code planes, scale
//!   words) is flipped through
//!   [`PreparedGemm::inject_fault`](axcore::engines::PreparedGemm::inject_fault),
//!   then a
//!   GEMM runs under [`VerifyPolicy::Full`]. Every at-rest surface is
//!   covered by an integrity checksum recorded at prepare time, so the
//!   expectation — which [`CampaignReport::check`] gates on — is that
//!   every injected flip is *detected and corrected*: the engine
//!   downgrades or re-prepares from the pristine matrix and the output
//!   stays bit-identical to a fault-free run.
//! - **Transient faults**: one in-flight datapath value (accumulator
//!   significand, PE product magnitude, systolic column output) is
//!   flipped once at a planned event index through
//!   [`axcore::reliability::faults`]. These are *not* covered by at-rest
//!   checksums; the ABFT row check catches the large flips and the
//!   campaign reports the silent-corruption rate of the rest, which is
//!   the scientific output (an SDC-rate characterization), not a gate.
//! - **KV at-rest faults**: one bit of a live paged decode's KV state —
//!   a sealed K/V page word, the committed hot-tail, a block-table
//!   entry, the uncommitted append→commit hot window, or an XOR parity
//!   page — is flipped mid-decode through the scheduler's injection
//!   hooks, with the arena's per-page checksums pinned to
//!   [`VerifyPolicy::Full`], parity groups on, and the scrubber given a
//!   budget covering the whole arena. The gate
//!   ([`CampaignReport::check`]) is the self-healing contract: every
//!   hit detected, zero silent corruptions, and the repaired completion
//!   identical to the recompute path's fault-free output (for exact FP
//!   pages that is the undisturbed completion itself). Single sealed
//!   flips in a parity-protected group heal by in-place
//!   *reconstruction* — bit-identical to the clean run with no
//!   re-prefill — while a **double fault in one group**
//!   (`kv-group-double`) pins the typed fallback to recompute.
//!
//! Everything is driven by one [`XorShift`] stream seeded from
//! [`CampaignConfig::seed`], and the engines run serially
//! ([`axcore_parallel::with_threads`]`(1)`), so a campaign is exactly
//! reproducible: same seed, same injections, same outcomes.

use axcore::engines::{
    with_lut_policy, AxCoreConfig, AxCoreEngine, ExactEngine, FignaEngine, FiglutEngine,
    FpmaEngine, GemmEngine, LutPolicy, TenderEngine,
};
use axcore::reliability::faults::{self, FaultPlan, TransientSite};
use axcore::reliability::{with_verify_policy, VerifyPolicy};
use axcore::systolic::systolic_gemm;
use axcore_nn::eval::{quantize_model, QuantizedLm, Scheme};
use axcore_nn::generate::Decoding;
use axcore_nn::kvcache::{KvArena, KvPageConfig, KV_FAULT_SITES};
use axcore_nn::layers::ActKind;
use axcore_nn::model::{LmConfig, TransformerLm};
use axcore_nn::scheduler::{DecodeScheduler, StepEvent};
use axcore_parallel::health;
use axcore_quant::{GroupQuantizer, KvQuantConfig, QuantFormat, QuantizedMatrix};
use axcore_softfloat::FP16;

/// Small deterministic RNG (xorshift64*): the campaign's only source of
/// randomness, so a `(seed, config)` pair pins every injection site.
#[derive(Debug, Clone)]
pub struct XorShift {
    state: u64,
}

impl XorShift {
    /// Seed the stream (any seed is fine; zero is remapped).
    pub fn new(seed: u64) -> Self {
        XorShift { state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1 }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `[0, n)` (`n = 0` yields 0).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// How one injected fault played out, classified against the fault-free
/// reference output bits and the engine's own failure report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Flagged (downgrade/recovery reported) and the final output is
    /// bit-identical to the fault-free run: detected **and** corrected.
    DetectedCorrected,
    /// Not flagged, but the output is bit-identical anyway: the fault
    /// was architecturally masked (e.g. a flipped low accumulator bit
    /// rounded away).
    Masked,
    /// Not flagged and the output differs: silent data corruption — the
    /// outcome the checksums exist to rule out.
    SilentCorruption,
    /// Flagged but the output still differs (or the call errored).
    DetectedUncorrected,
}

/// Classify one run: `flagged` is the engine's own signal (a published
/// downgrade/recovery report or an `Err`), `bit_equal` compares output
/// bits against the fault-free reference.
pub fn classify(flagged: bool, bit_equal: bool) -> Outcome {
    match (flagged, bit_equal) {
        (true, true) => Outcome::DetectedCorrected,
        (false, true) => Outcome::Masked,
        (false, false) => Outcome::SilentCorruption,
        (true, false) => Outcome::DetectedUncorrected,
    }
}

/// Outcome tallies for one `(engine, site)` pair.
#[derive(Debug, Clone)]
pub struct SiteTally {
    /// Engine display name.
    pub engine: String,
    /// Fault-site name (see
    /// [`PreparedGemm::fault_sites`](axcore::engines::PreparedGemm::fault_sites) /
    /// [`TransientSite::name`]).
    pub site: String,
    /// Injections that actually ran (for transient sites, that fired).
    pub injections: usize,
    /// Flagged and bit-identical after degradation/recovery.
    pub detected_corrected: usize,
    /// Unflagged but bit-identical (architecturally masked).
    pub masked: usize,
    /// Unflagged and wrong: silent data corruption.
    pub silent_corruption: usize,
    /// Flagged but wrong (or errored).
    pub detected_uncorrected: usize,
    /// Transient plans whose event index was never reached (the fault
    /// never entered the datapath); excluded from `injections`.
    pub not_hit: usize,
}

impl SiteTally {
    fn new(engine: &str, site: &str) -> Self {
        SiteTally {
            engine: engine.to_string(),
            site: site.to_string(),
            injections: 0,
            detected_corrected: 0,
            masked: 0,
            silent_corruption: 0,
            detected_uncorrected: 0,
            not_hit: 0,
        }
    }

    /// Record one classified injection.
    pub fn record(&mut self, o: Outcome) {
        self.injections += 1;
        match o {
            Outcome::DetectedCorrected => self.detected_corrected += 1,
            Outcome::Masked => self.masked += 1,
            Outcome::SilentCorruption => self.silent_corruption += 1,
            Outcome::DetectedUncorrected => self.detected_uncorrected += 1,
        }
    }
}

/// Campaign shape: GEMM problem size and per-site sample counts.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Seed for the injection-site stream.
    pub seed: u64,
    /// Activation rows.
    pub m: usize,
    /// Accumulation depth (must be a multiple of 16, the group size).
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Sampled `(word, bit)` flips per at-rest fault site.
    pub samples_per_site: usize,
    /// Sampled `(event, bit)` upsets per transient site.
    pub transient_samples: usize,
}

impl CampaignConfig {
    /// Reduced sweep for CI smoke runs (seconds, not minutes).
    pub fn smoke(seed: u64) -> Self {
        CampaignConfig { seed, m: 3, k: 32, n: 32, samples_per_site: 8, transient_samples: 6 }
    }

    /// The checked-in `RESULTS_faults.json` sweep.
    pub fn full(seed: u64) -> Self {
        CampaignConfig { seed, m: 4, k: 64, n: 64, samples_per_site: 32, transient_samples: 24 }
    }
}

/// Quantization group size used for every campaign matrix.
const GROUP: usize = 16;

/// The engine roster: every functional engine, with a weight format it
/// accepts.
fn roster() -> Vec<(Box<dyn GemmEngine>, QuantFormat)> {
    vec![
        (Box::new(ExactEngine::new(FP16)), QuantFormat::E2M1),
        (Box::new(FpmaEngine::new(FP16)), QuantFormat::E2M1),
        (Box::new(AxCoreEngine::new(FP16)), QuantFormat::E2M1),
        (Box::new(FignaEngine::new(FP16)), QuantFormat::INT4),
        (Box::new(FiglutEngine::new(FP16)), QuantFormat::INT4),
        (Box::new(TenderEngine::new(8, 4)), QuantFormat::INT4),
    ]
}

/// LUT-policy pin per fault site, so the tier that actually *reads* the
/// corrupted state is the one exercised: LUT-side surfaces — and the
/// block→unit index that addresses the LUT fold's table segments — force
/// the LUT tiers on, the direct tier's stationary lanes force them off,
/// other shared surfaces run the default dispatch.
fn policy_for(site: &str) -> LutPolicy {
    match site {
        "planes" | "lut-addends" | "code-signs" | "block-unit" | "palette" => LutPolicy::Always,
        "lanes" => LutPolicy::Never,
        _ => LutPolicy::Auto,
    }
}

/// Deterministic activation / weight data in roughly `[-1, 1]`.
fn test_data(cfg: &CampaignConfig, rng: &mut XorShift) -> (Vec<f32>, Vec<f32>) {
    let a: Vec<f32> =
        (0..cfg.m * cfg.k).map(|_| rng.below(2001) as f32 / 1000.0 - 1.0).collect();
    let w: Vec<f32> =
        (0..cfg.k * cfg.n).map(|_| (rng.below(2001) as f32 / 1000.0 - 1.0) * 0.5).collect();
    (a, w)
}

fn bits_equal(out: &[f32], reference: &[u32]) -> bool {
    out.len() == reference.len()
        && out.iter().zip(reference).all(|(o, r)| o.to_bits() == *r)
}

/// Whether the engine reported the fault: an error return, a recorded
/// tier downgrade, or a pristine-state recovery all count as detection.
fn flagged(res: &Result<(), axcore::GemmError>, report: Option<&health::ExecReport>) -> bool {
    res.is_err() || report.is_some_and(|r| r.n_downgrades() > 0 || r.recovered)
}

/// Full campaign results plus the config that produced them.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The sweep configuration (embedded so the JSON is self-describing).
    pub config: CampaignConfig,
    /// Per-`(engine, site)` tallies for at-rest (stored-state) faults.
    pub at_rest: Vec<SiteTally>,
    /// Per-`(engine, site)` tallies for transient (in-flight) faults.
    pub transient: Vec<SiteTally>,
    /// Per-`(page-mode, site)` tallies for at-rest faults in live paged
    /// KV-cache state, swept during continuous decode.
    pub kv: Vec<SiteTally>,
    /// Corrupt KV pages healed **in place** from the group parity page
    /// plus surviving siblings across the whole KV sweep — the O(one
    /// page) repair path.
    pub kv_reconstructed: u64,
    /// KV repairs that fell back to the reset-and-re-prefill recompute
    /// path (ungrouped pages, flipped block tables, degraded groups).
    pub kv_recompute_fallbacks: u64,
}

/// Aggregate counts over a tally slice.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Total injections that ran.
    pub injections: usize,
    /// Detected-and-corrected count.
    pub detected_corrected: usize,
    /// Masked count.
    pub masked: usize,
    /// Silent-corruption count.
    pub silent_corruption: usize,
    /// Detected-but-uncorrected count.
    pub detected_uncorrected: usize,
}

impl Totals {
    fn over(tallies: &[SiteTally]) -> Totals {
        let mut t = Totals::default();
        for s in tallies {
            t.injections += s.injections;
            t.detected_corrected += s.detected_corrected;
            t.masked += s.masked;
            t.silent_corruption += s.silent_corruption;
            t.detected_uncorrected += s.detected_uncorrected;
        }
        t
    }

    /// Fraction of injections that were flagged by the engine.
    pub fn detection_rate(&self) -> f64 {
        if self.injections == 0 {
            return 1.0;
        }
        (self.detected_corrected + self.detected_uncorrected) as f64 / self.injections as f64
    }
}

impl CampaignReport {
    /// Aggregate over the at-rest (checksummed-region) tallies.
    pub fn at_rest_totals(&self) -> Totals {
        Totals::over(&self.at_rest)
    }

    /// Aggregate over the transient tallies.
    pub fn transient_totals(&self) -> Totals {
        Totals::over(&self.transient)
    }

    /// Aggregate over the KV at-rest tallies.
    pub fn kv_totals(&self) -> Totals {
        Totals::over(&self.kv)
    }

    /// Gate the at-rest (checksummed-region) results: every injected
    /// flip must be detected-and-corrected or masked, with zero silent
    /// corruptions and ≥ 99% detection under `Full` verification.
    pub fn check(&self) -> Result<(), String> {
        // Every section must be present before its totals mean
        // anything: an empty tally list is a sweep that never ran, not
        // a clean one.
        for (name, tallies) in
            [("at_rest", &self.at_rest), ("transient", &self.transient), ("kv", &self.kv)]
        {
            if tallies.is_empty() {
                return Err(format!("required section `{name}` is missing from the report"));
            }
        }
        let t = self.at_rest_totals();
        if t.injections == 0 {
            return Err("at-rest campaign ran zero injections".to_string());
        }
        if t.silent_corruption != 0 {
            return Err(format!(
                "{} silent corruption(s) in checksummed regions",
                t.silent_corruption
            ));
        }
        if t.detected_uncorrected != 0 {
            return Err(format!(
                "{} detected fault(s) were not corrected",
                t.detected_uncorrected
            ));
        }
        if t.detection_rate() < 0.99 {
            return Err(format!(
                "at-rest detection rate {:.4} below 0.99",
                t.detection_rate()
            ));
        }
        let k = self.kv_totals();
        if k.injections == 0 {
            return Err("KV campaign ran zero injections".to_string());
        }
        if k.silent_corruption != 0 {
            return Err(format!(
                "{} silent corruption(s) in checksummed KV pages",
                k.silent_corruption
            ));
        }
        if k.detected_uncorrected != 0 {
            return Err(format!(
                "{} detected KV fault(s) whose repair was not bit-identical",
                k.detected_uncorrected
            ));
        }
        if k.detection_rate() < 0.99 {
            return Err(format!("KV detection rate {:.4} below 0.99", k.detection_rate()));
        }
        // Site coverage: every KV surface — including the hot window,
        // the parity pages, and the degraded double-fault case — must
        // have taken real injections.
        for site in [
            "kv-k-sealed",
            "kv-v-sealed",
            "kv-k-tail",
            "kv-v-tail",
            "kv-table",
            "kv-hot",
            "kv-parity",
            "kv-scales",
            "kv-group-double",
        ] {
            if !self.kv.iter().any(|t| t.site == site && t.injections > 0) {
                return Err(format!("KV sweep ran zero injections at required site `{site}`"));
            }
        }
        // Both repair paths must have been exercised: parity
        // reconstruction for single losses, recompute for everything
        // parity cannot arbitrate.
        if self.kv_reconstructed == 0 {
            return Err("no KV page was repaired by parity reconstruction".to_string());
        }
        if self.kv_recompute_fallbacks == 0 {
            return Err("no KV fault exercised the recompute fallback".to_string());
        }
        Ok(())
    }

    /// Serialize to a self-describing JSON document (hand-rolled: the
    /// build environment has no serde).
    pub fn to_json(&self) -> String {
        fn tally(t: &SiteTally, transient: bool) -> String {
            let extra = if transient {
                format!(", \"not_hit\": {}", t.not_hit)
            } else {
                String::new()
            };
            format!(
                "    {{\"engine\": \"{}\", \"site\": \"{}\", \"injections\": {}, \
                 \"detected_corrected\": {}, \"masked\": {}, \"silent_corruption\": {}, \
                 \"detected_uncorrected\": {}{}}}",
                t.engine,
                t.site,
                t.injections,
                t.detected_corrected,
                t.masked,
                t.silent_corruption,
                t.detected_uncorrected,
                extra
            )
        }
        let c = &self.config;
        let ar = self.at_rest_totals();
        let tr = self.transient_totals();
        let kt = self.kv_totals();
        let at_rest: Vec<String> = self.at_rest.iter().map(|t| tally(t, false)).collect();
        let transient: Vec<String> = self.transient.iter().map(|t| tally(t, true)).collect();
        let kv: Vec<String> = self.kv.iter().map(|t| tally(t, true)).collect();
        format!(
            "{{\n  \"schema\": \"axcore-fault-campaign-v3\",\n  \"policy\": \"full\",\n  \
             \"config\": {{\"seed\": {}, \"m\": {}, \"k\": {}, \"n\": {}, \
             \"samples_per_site\": {}, \"transient_samples\": {}}},\n  \
             \"at_rest\": [\n{}\n  ],\n  \"transient\": [\n{}\n  ],\n  \
             \"kv\": [\n{}\n  ],\n  \
             \"summary\": {{\n    \"at_rest_injections\": {},\n    \
             \"at_rest_detected_corrected\": {},\n    \"at_rest_masked\": {},\n    \
             \"at_rest_silent_corruption\": {},\n    \"at_rest_detection_rate\": {:.4},\n    \
             \"transient_injections\": {},\n    \"transient_detection_rate\": {:.4},\n    \
             \"transient_silent_corruption\": {},\n    \
             \"kv_injections\": {},\n    \"kv_detected_corrected\": {},\n    \
             \"kv_masked\": {},\n    \"kv_silent_corruption\": {},\n    \
             \"kv_detection_rate\": {:.4},\n    \
             \"kv_reconstructed\": {},\n    \"kv_recompute_fallbacks\": {}\n  }}\n}}\n",
            c.seed,
            c.m,
            c.k,
            c.n,
            c.samples_per_site,
            c.transient_samples,
            at_rest.join(",\n"),
            transient.join(",\n"),
            kv.join(",\n"),
            ar.injections,
            ar.detected_corrected,
            ar.masked,
            ar.silent_corruption,
            ar.detection_rate(),
            tr.injections,
            tr.detection_rate(),
            tr.silent_corruption,
            kt.injections,
            kt.detected_corrected,
            kt.masked,
            kt.silent_corruption,
            kt.detection_rate(),
            self.kv_reconstructed,
            self.kv_recompute_fallbacks,
        )
    }
}

/// Run the at-rest sweep for one engine: every fault site, sampled
/// `(word, bit)` flips, each against a freshly prepared copy.
fn sweep_at_rest(
    engine: &dyn GemmEngine,
    q: &QuantizedMatrix,
    a: &[f32],
    cfg: &CampaignConfig,
    rng: &mut XorShift,
    tallies: &mut Vec<SiteTally>,
) {
    let name = engine.name();
    let pristine = engine.try_prepare(q).unwrap_or_else(|e| panic!("{e}"));
    let sites: Vec<&'static str> = pristine.fault_sites().to_vec();
    for site in sites {
        let policy = policy_for(site);
        let (words, bits) = pristine.fault_surface(site);
        if words == 0 {
            continue;
        }
        // Fault-free reference bits under the same dispatch pin.
        health::reset();
        let _ = health::take_report();
        let mut reference = vec![0f32; cfg.m * cfg.n];
        with_lut_policy(policy, || {
            with_verify_policy(VerifyPolicy::Off, || {
                pristine.gemm(a, cfg.m, &mut reference);
            })
        });
        let ref_bits: Vec<u32> = reference.iter().map(|v| v.to_bits()).collect();

        let mut tally = SiteTally::new(&name, site);
        for _ in 0..cfg.samples_per_site {
            let word = rng.below(words as u64) as usize;
            let bit = rng.below(bits as u64) as u32;
            let mut p = engine.try_prepare(q).unwrap_or_else(|e| panic!("{e}"));
            assert!(p.inject_fault(site, word, bit), "site {site} rejected injection");
            health::reset();
            let _ = health::take_report();
            let mut out = vec![f32::NAN; cfg.m * cfg.n];
            let res = with_lut_policy(policy, || {
                with_verify_policy(VerifyPolicy::Full, || p.try_gemm(a, cfg.m, &mut out))
            });
            let report = health::take_report();
            let hit = flagged(&res, report.as_ref());
            let equal = res.is_ok() && bits_equal(&out, &ref_bits);
            tally.record(classify(hit, equal));
        }
        tallies.push(tally);
    }
    health::reset();
}

/// Run the transient sweep: planned single upsets in the accumulator and
/// PE datapath of AxCore's direct tier (under `Full` verification, where
/// the ABFT row check is the only net), plus the systolic tile model's
/// column outputs (no verification — pure SDC characterization).
fn sweep_transient(cfg: &CampaignConfig, rng: &mut XorShift, tallies: &mut Vec<SiteTally>) {
    let (a, w) = test_data(cfg, rng);
    let q = GroupQuantizer::fixed(QuantFormat::E2M1, GROUP).quantize(&w, cfg.k, cfg.n);
    let engine = AxCoreEngine::new(FP16);
    let p = engine.try_prepare(&q).unwrap_or_else(|e| panic!("{e}"));

    // Reference on the direct tier (the tier the acc/pe taps live in).
    health::reset();
    let _ = health::take_report();
    let mut reference = vec![0f32; cfg.m * cfg.n];
    with_lut_policy(LutPolicy::Never, || {
        with_verify_policy(VerifyPolicy::Off, || p.gemm(&a, cfg.m, &mut reference))
    });
    let ref_bits: Vec<u32> = reference.iter().map(|v| v.to_bits()).collect();

    for (site, width) in [(TransientSite::Accumulator, 64u32), (TransientSite::PeOutput, 32)] {
        let mut tally = SiteTally::new(&engine.name(), site.name());
        for _ in 0..cfg.transient_samples {
            // Both taps fire at least once per output element, so an
            // event index below m·n is always reached.
            let event = rng.below((cfg.m * cfg.n) as u64);
            let bit = rng.below(width as u64) as u32;
            health::reset();
            let _ = health::take_report();
            faults::arm(FaultPlan { site, event, bit });
            let mut out = vec![f32::NAN; cfg.m * cfg.n];
            let res = with_lut_policy(LutPolicy::Never, || {
                with_verify_policy(VerifyPolicy::Full, || p.try_gemm(&a, cfg.m, &mut out))
            });
            let fired = faults::disarm();
            let report = health::take_report();
            if !fired {
                tally.not_hit += 1;
                continue;
            }
            let hit = flagged(&res, report.as_ref());
            let equal = res.is_ok() && bits_equal(&out, &ref_bits);
            tally.record(classify(hit, equal));
        }
        tallies.push(tally);
    }

    // Systolic tile model: column-output upsets, no verification layer.
    let (sm, sk, sn) = (2usize, GROUP, 8usize);
    let sw: Vec<f32> =
        (0..sk * sn).map(|_| (rng.below(2001) as f32 / 1000.0 - 1.0) * 0.5).collect();
    let sq = GroupQuantizer::fixed(QuantFormat::E2M1, sk).quantize(&sw, sk, sn);
    let sa: Vec<f32> = (0..sm * sk).map(|_| rng.below(2001) as f32 / 1000.0 - 1.0).collect();
    let scfg = AxCoreConfig::default();
    let mut reference = vec![0f32; sm * sn];
    systolic_gemm(FP16, sk, 4, &sa, sm, &sq, scfg, &mut reference);
    let ref_bits: Vec<u32> = reference.iter().map(|v| v.to_bits()).collect();
    let mut tally = SiteTally::new("SystolicModel", TransientSite::SystolicOutput.name());
    for _ in 0..cfg.transient_samples {
        let event = rng.below((sm * sn) as u64);
        let bit = rng.below(32) as u32;
        faults::arm(FaultPlan { site: TransientSite::SystolicOutput, event, bit });
        let mut out = vec![f32::NAN; sm * sn];
        systolic_gemm(FP16, sk, 4, &sa, sm, &sq, scfg, &mut out);
        let fired = faults::disarm();
        if !fired {
            tally.not_hit += 1;
            continue;
        }
        // The tile model has no verification net: every upset is either
        // masked by rounding or silent.
        tally.record(classify(false, bits_equal(&out, &ref_bits)));
    }
    tallies.push(tally);
    health::reset();
}

/// Drive a single-sequence scheduler to completion (at most `max_steps`
/// decode steps), calling `at_boundary` before each step with the count
/// of steps already taken. Returns the finished token sequence, or
/// `None` if the sequence failed or never finished.
fn drive(
    sched: &mut DecodeScheduler<'_>,
    max_steps: usize,
    mut at_boundary: impl FnMut(&mut DecodeScheduler<'_>, usize),
) -> Option<Vec<usize>> {
    for steps in 0..max_steps {
        if sched.live() == 0 {
            return None;
        }
        at_boundary(sched, steps);
        match sched.step(|_| true).into_iter().next() {
            Some(StepEvent::Finished { outcome, .. }) => return Some(outcome.tokens),
            Some(StepEvent::Failed { .. }) => return None,
            None => {}
        }
    }
    None
}

/// The campaign's little decode workload, shared by every KV sweep.
fn kv_workload() -> (TransformerLm, Vec<usize>) {
    let lm_cfg = LmConfig {
        vocab: 17,
        d_model: 16,
        n_layers: 2,
        n_heads: 2,
        d_ff: 24,
        max_seq: 48,
        act: ActKind::Relu,
    };
    (TransformerLm::new(lm_cfg, 13), vec![1, 2, 3, 4, 5])
}

/// Run the KV at-rest sweep: a tiny transformer decodes through the
/// paged arena (checksums pinned to [`VerifyPolicy::Full`], parity
/// groups at the default size, scrub budget covering the whole arena);
/// at a random step boundary one bit of one committed KV fault site is
/// flipped, and the decode runs to completion through the scheduler's
/// self-healing path. `kv-hot` is excluded here — the hot window is
/// empty at step boundaries — and swept by [`sweep_kv_hot`] instead.
///
/// Single flips in a sealed, parity-grouped page should heal by
/// in-place reconstruction, leaving the completion equal to the
/// undisturbed one. Repairs that fall back to recompute (tail pages,
/// flipped tables) are judged against the recompute path's own
/// fault-free output: a clean run that evicts-and-resumes the sequence
/// at the same boundary re-prefills exactly the state the repair
/// rebuilds, so the two runs must agree bit-for-bit. With exact FP
/// pages that reference also equals the undisturbed completion; with
/// quantized pages re-prefill legitimately reads pre-seal values, so
/// only the recompute-path reference is exact.
fn sweep_kv(
    cfg: &CampaignConfig,
    rng: &mut XorShift,
    tallies: &mut Vec<SiteTally>,
    kv_reconstructed: &mut u64,
    kv_recompute_fallbacks: &mut u64,
) {
    let (model, prompt) = kv_workload();
    let qlm: QuantizedLm = quantize_model(&model, Scheme::AxCore, 8, None);
    let budget = 8usize;
    // One extra step per repair cycle; a single injection needs at most
    // one repair, so a small slack covers every healthy completion.
    let cap = budget + 4;
    // Scrub budget 16 covers every page and parity group of this tiny
    // arena each step, so scrub-only surfaces (parity pages) are always
    // caught before the decode finishes.
    let modes: [(&str, KvPageConfig); 2] = [
        (
            "fp32",
            KvPageConfig {
                block: 4,
                verify: Some(VerifyPolicy::Full),
                scrub: 16,
                ..Default::default()
            },
        ),
        (
            "q4-opt",
            KvPageConfig {
                quant: Some(KvQuantConfig::opt()),
                block: 4,
                verify: Some(VerifyPolicy::Full),
                scrub: 16,
                ..Default::default()
            },
        ),
    ];
    for (mode, kv) in modes {
        let mut sched = DecodeScheduler::new(&qlm, Decoding::Greedy, kv);
        sched.admit(&prompt, budget).unwrap_or_else(|e| panic!("{e}"));
        let clean = drive(&mut sched, cap, |_, _| {})
            .unwrap_or_else(|| panic!("clean {mode} decode did not finish"));
        // Evict-and-resume reference completions, keyed by the boundary
        // step; computed lazily since most samples share boundaries.
        let mut evict_ref: Vec<Option<Vec<usize>>> = vec![None; budget];
        for site in KV_FAULT_SITES {
            // The hot window has its own arena-level sweep, and an FP32
            // arena seals no code page, so it has no scales.
            if site == "kv-hot" || (site == "kv-scales" && kv.quant.is_none()) {
                continue;
            }
            let mut tally = SiteTally::new(&format!("KvArena[{mode}]"), site);
            for _ in 0..cfg.samples_per_site {
                // Inject after `after` completed steps, with at least one
                // step left so a verified gather sees the flip.
                let after = 1 + rng.below(budget as u64 - 1) as usize;
                let word_draw = rng.next_u64();
                let bit_draw = rng.next_u64();
                let mut sched = DecodeScheduler::new(&qlm, Decoding::Greedy, kv);
                sched.admit(&prompt, budget).unwrap_or_else(|e| panic!("{e}"));
                let mut injected = false;
                let tokens = drive(&mut sched, cap, |sch, steps| {
                    if steps == after {
                        let surface = sch.kv_fault_surface(site);
                        if surface > 0 {
                            let word = (word_draw % surface as u64) as usize;
                            let bits = if site == "kv-table" { 64 } else { 32 };
                            let bit = (bit_draw % bits) as u32;
                            injected = sch.inject_kv_fault(site, word, bit);
                        }
                    }
                });
                if !injected {
                    tally.not_hit += 1;
                    continue;
                }
                let detected = sched.kv_corruptions_detected() > 0;
                let recomputed = sched.kv_repairs_recomputed() > 0;
                *kv_reconstructed += sched.kv_repairs_reconstructed();
                *kv_recompute_fallbacks += sched.kv_repairs_recomputed();
                let equal = match &tokens {
                    None => false,
                    Some(t) if *t == clean => true,
                    Some(t) if detected && recomputed => {
                        let r = &mut evict_ref[after];
                        if r.is_none() {
                            let mut s2 = DecodeScheduler::new(&qlm, Decoding::Greedy, kv);
                            s2.admit(&prompt, budget).unwrap_or_else(|e| panic!("{e}"));
                            *r = drive(&mut s2, cap, |sch, steps| {
                                if steps == after && sch.evict_longest_idle().is_some() {
                                    sch.resume_one();
                                }
                            });
                        }
                        r.as_deref() == Some(t)
                    }
                    Some(_) => false,
                };
                tally.record(classify(detected, equal));
            }
            tallies.push(tally);
        }
    }
}

/// Sweep the append→first-commit hot window at the arena level: append
/// one more position than gets committed (exactly the mid-pass state a
/// forward pass sees), flip one bit of the uncommitted FP rows, and
/// require the next verified gather to trip on the rolling hot-window
/// checksum. The heal is the scheduler's own retry move — re-appending
/// the pristine rows over the window — after which the gathered bits
/// must equal the pre-fault reference exactly.
fn sweep_kv_hot(cfg: &CampaignConfig, rng: &mut XorShift, tallies: &mut Vec<SiteTally>) {
    let (nl, d) = (2usize, 16usize);
    let kvc = KvPageConfig { block: 4, verify: Some(VerifyPolicy::Full), ..Default::default() };
    let mut tally = SiteTally::new("KvArena[fp32]", "kv-hot");
    for sample in 0..cfg.samples_per_site {
        let mut a = KvArena::new(nl, d, 2, kvc);
        let id = a.try_join().unwrap_or_else(|e| panic!("{e}"));
        // Six appended positions, five committed: one hot row per layer.
        let rows = |salt: f32| -> Vec<f32> {
            (0..6 * d).map(|i| (i as f32 * 0.31 + salt + sample as f32).sin()).collect()
        };
        let per_layer: Vec<(Vec<f32>, Vec<f32>)> =
            (0..nl).map(|l| (rows(l as f32), rows(l as f32 + 0.5))).collect();
        for (l, (k, v)) in per_layer.iter().enumerate() {
            a.try_append(id, l, 0, k, v).unwrap_or_else(|e| panic!("{e}"));
        }
        a.try_commit(id, 5).unwrap_or_else(|e| panic!("{e}"));
        let (mut k, mut v) = (Vec::new(), Vec::new());
        let mut reference: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
        for l in 0..nl {
            a.try_gather(id, l, 6, &mut k, &mut v).unwrap_or_else(|e| panic!("{e}"));
            reference.push((
                k.iter().map(|x| x.to_bits()).collect(),
                v.iter().map(|x| x.to_bits()).collect(),
            ));
        }
        let surface = a.seq_fault_surface(id, "kv-hot");
        assert_eq!(surface, nl * d * 2, "one uncommitted position per layer");
        let word = rng.below(surface as u64) as usize;
        let bit = rng.below(32) as u32;
        assert!(a.inject_seq_fault(id, "kv-hot", word, bit));
        let detected = (0..nl).any(|l| a.try_gather(id, l, 6, &mut k, &mut v).is_err());
        if detected {
            // The scheduler's repair for a poisoned hot window is to
            // redo the pass: re-append the pristine uncommitted rows.
            for (l, (kr, vr)) in per_layer.iter().enumerate() {
                a.try_append(id, l, 5, &kr[5 * d..], &vr[5 * d..])
                    .unwrap_or_else(|e| panic!("{e}"));
            }
        }
        let equal = (0..nl).all(|l| {
            a.try_gather(id, l, 6, &mut k, &mut v).is_ok()
                && k.iter().map(|x| x.to_bits()).eq(reference[l].0.iter().copied())
                && v.iter().map(|x| x.to_bits()).eq(reference[l].1.iter().copied())
        });
        tally.record(classify(detected, equal));
    }
    tallies.push(tally);
}

/// Double fault inside one parity group: flip one bit in each of two
/// *distinct* sealed pages of the same group at the same boundary. XOR
/// parity can rebuild exactly one lost member, so the arena must refuse
/// in-place reconstruction (degraded group) and the scheduler must take
/// the typed reset-and-re-prefill recompute fallback — still detected,
/// still healed, just at prefix cost instead of page cost.
fn sweep_kv_group(
    cfg: &CampaignConfig,
    rng: &mut XorShift,
    tallies: &mut Vec<SiteTally>,
    kv_reconstructed: &mut u64,
    kv_recompute_fallbacks: &mut u64,
) {
    let (model, prompt) = kv_workload();
    let qlm: QuantizedLm = quantize_model(&model, Scheme::AxCore, 8, None);
    let budget = 8usize;
    let cap = budget + 4;
    let kv = KvPageConfig {
        block: 4,
        verify: Some(VerifyPolicy::Full),
        scrub: 16,
        ..Default::default()
    };
    // One page's worth of sealed K words: layers × block × d_model.
    let per_page = 2 * 4 * 16;
    let mut sched = DecodeScheduler::new(&qlm, Decoding::Greedy, kv);
    sched.admit(&prompt, budget).unwrap_or_else(|e| panic!("{e}"));
    let clean = drive(&mut sched, cap, |_, _| {})
        .unwrap_or_else(|| panic!("clean decode did not finish"));
    let mut evict_ref: Vec<Option<Vec<usize>>> = vec![None; budget];
    let mut tally = SiteTally::new("KvArena[fp32]", "kv-group-double");
    for _ in 0..cfg.samples_per_site {
        // From step 3 on the sequence holds ≥ 2 sealed pages (prompt 5
        // + `after` tokens ≥ 8 positions at block 4), all members of
        // the same (size-8) parity group.
        let after = 3 + rng.below(budget as u64 - 3) as usize;
        let draws: [u64; 4] = [rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()];
        let mut sched = DecodeScheduler::new(&qlm, Decoding::Greedy, kv);
        sched.admit(&prompt, budget).unwrap_or_else(|e| panic!("{e}"));
        let mut injected = false;
        let tokens = drive(&mut sched, cap, |sch, steps| {
            if steps == after {
                let sealed = sch.kv_fault_surface("kv-k-sealed") / per_page;
                if sealed >= 2 {
                    let pa = (draws[0] % sealed as u64) as usize;
                    let pb = (pa + 1 + (draws[1] % (sealed as u64 - 1)) as usize) % sealed;
                    let wa = pa * per_page + (draws[2] % per_page as u64) as usize;
                    let wb = pb * per_page + (draws[3] % per_page as u64) as usize;
                    injected = sch.inject_kv_fault("kv-k-sealed", wa, (draws[2] >> 32) as u32 % 32)
                        && sch.inject_kv_fault("kv-k-sealed", wb, (draws[3] >> 32) as u32 % 32);
                }
            }
        });
        if !injected {
            tally.not_hit += 1;
            continue;
        }
        let detected = sched.kv_corruptions_detected() > 0;
        let recomputed = sched.kv_repairs_recomputed() > 0;
        assert_eq!(
            sched.kv_repairs_reconstructed(),
            0,
            "a degraded group must never reconstruct"
        );
        *kv_reconstructed += sched.kv_repairs_reconstructed();
        *kv_recompute_fallbacks += sched.kv_repairs_recomputed();
        let equal = match &tokens {
            None => false,
            Some(t) if *t == clean => true,
            Some(t) if detected && recomputed => {
                let r = &mut evict_ref[after];
                if r.is_none() {
                    let mut s2 = DecodeScheduler::new(&qlm, Decoding::Greedy, kv);
                    s2.admit(&prompt, budget).unwrap_or_else(|e| panic!("{e}"));
                    *r = drive(&mut s2, cap, |sch, steps| {
                        if steps == after && sch.evict_longest_idle().is_some() {
                            sch.resume_one();
                        }
                    });
                }
                r.as_deref() == Some(t)
            }
            Some(_) => false,
        };
        tally.record(classify(detected, equal));
    }
    tallies.push(tally);
}

/// Run the full campaign described by `cfg`. Serial and deterministic:
/// the same config always produces the same report.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    axcore_parallel::with_threads(1, || {
        let mut rng = XorShift::new(cfg.seed);
        let mut at_rest = Vec::new();
        for (engine, fmt) in roster() {
            let (a, w) = test_data(cfg, &mut rng);
            let q = GroupQuantizer::fixed(fmt, GROUP).quantize(&w, cfg.k, cfg.n);
            sweep_at_rest(engine.as_ref(), &q, &a, cfg, &mut rng, &mut at_rest);
        }
        let mut transient = Vec::new();
        sweep_transient(cfg, &mut rng, &mut transient);
        let mut kv = Vec::new();
        let (mut kv_reconstructed, mut kv_recompute_fallbacks) = (0u64, 0u64);
        sweep_kv(cfg, &mut rng, &mut kv, &mut kv_reconstructed, &mut kv_recompute_fallbacks);
        sweep_kv_hot(cfg, &mut rng, &mut kv);
        sweep_kv_group(
            cfg,
            &mut rng,
            &mut kv,
            &mut kv_reconstructed,
            &mut kv_recompute_fallbacks,
        );
        CampaignReport {
            config: *cfg,
            at_rest,
            transient,
            kv,
            kv_reconstructed,
            kv_recompute_fallbacks,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// A campaign arms process-global fault plans and quarantines tiers,
    /// while tests run on parallel threads: two overlapping campaigns
    /// fire each other's planned upsets and lift each other's
    /// quarantines. Every test that runs one holds this.
    static CAMPAIGN: Mutex<()> = Mutex::new(());

    fn campaign_guard() -> MutexGuard<'static, ()> {
        CAMPAIGN.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = XorShift::new(42);
        let mut b = XorShift::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(XorShift::new(1).next_u64(), XorShift::new(2).next_u64());
    }

    #[test]
    fn classification_matrix() {
        assert_eq!(classify(true, true), Outcome::DetectedCorrected);
        assert_eq!(classify(false, true), Outcome::Masked);
        assert_eq!(classify(false, false), Outcome::SilentCorruption);
        assert_eq!(classify(true, false), Outcome::DetectedUncorrected);
    }

    #[test]
    fn smoke_campaign_is_clean_and_deterministic() {
        let _serial = campaign_guard();
        let cfg = CampaignConfig::smoke(7);
        let r1 = run_campaign(&cfg);
        // Every at-rest fault in a checksummed region must be detected
        // and corrected (or provably masked) under Full verification.
        r1.check().unwrap_or_else(|e| panic!("campaign gate failed: {e}"));
        assert!(r1.at_rest_totals().injections > 0);
        assert!(!r1.transient.is_empty());
        assert!(r1.kv_totals().injections > 0, "KV sweep injected");
        // Same seed ⇒ byte-identical report.
        let r2 = run_campaign(&cfg);
        assert_eq!(r1.to_json(), r2.to_json());
    }

    #[test]
    fn kv_sweep_covers_both_page_modes_and_heals_every_hit() {
        let _serial = campaign_guard();
        let cfg = CampaignConfig::smoke(23);
        let r = run_campaign(&cfg);
        for mode in ["KvArena[fp32]", "KvArena[q4-opt]"] {
            assert!(
                r.kv.iter().any(|t| t.engine == mode && t.injections > 0),
                "no KV injections ran for {mode}"
            );
        }
        let k = r.kv_totals();
        assert_eq!(k.silent_corruption, 0, "no silent KV corruption");
        assert_eq!(k.detected_uncorrected, 0, "every detected KV fault repaired bit-identically");
        assert!(k.detection_rate() >= 0.99, "rate {}", k.detection_rate());
        // Both repair paths exercised: single sealed losses reconstruct
        // in place, degraded cases fall back to recompute.
        assert!(r.kv_reconstructed > 0, "parity reconstruction never ran");
        assert!(r.kv_recompute_fallbacks > 0, "recompute fallback never ran");
        for site in ["kv-hot", "kv-parity", "kv-scales", "kv-group-double"] {
            assert!(
                r.kv.iter().any(|t| t.site == site && t.injections > 0),
                "no KV injections ran at {site}"
            );
        }
        let dbl = r.kv.iter().find(|t| t.site == "kv-group-double").unwrap();
        assert_eq!(dbl.silent_corruption, 0);
        assert_eq!(dbl.detected_uncorrected, 0);
        assert!(dbl.detected_corrected > 0, "double faults heal via recompute");
    }

    #[test]
    fn at_rest_sweep_covers_every_engine_roster_site() {
        let _serial = campaign_guard();
        let cfg = CampaignConfig::smoke(11);
        let r = run_campaign(&cfg);
        for (engine, _) in roster() {
            let name = engine.name();
            assert!(
                r.at_rest.iter().any(|t| t.engine == name),
                "no at-rest tallies for {name}"
            );
        }
    }
}
