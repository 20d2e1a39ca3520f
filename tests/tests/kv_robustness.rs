//! Lifecycle and capacity robustness of the paged KV arena and the
//! continuous scheduler on top of it (DESIGN.md §13).
//!
//! The arena's hardening contract is that misuse and pressure are
//! **typed, recoverable conditions**: `leave` is idempotent, a reset
//! sequence reads as empty instead of serving stale pages, zero-length
//! commits are no-ops, the page free list recycles under churn instead
//! of growing the slab, and a capacity-bounded scheduler under admission
//! pressure stalls/evicts/resumes without ever exceeding `max_pages` —
//! and still retires every sequence bit-identical to serial decoding at
//! every worker count.

use axcore::reliability::VerifyPolicy;
use axcore_nn::eval::{quantize_model, QuantizedLm, Scheme};
use axcore_nn::generate::{try_generate, Decoding, GenerateError};
use axcore_nn::kvcache::{KvArena, KvError, KvPageConfig, SeqId};
use axcore_nn::layers::ActKind;
use axcore_nn::model::{LmConfig, TransformerLm};
use axcore_nn::scheduler::{DecodeScheduler, SeqHandle, StepEvent};
use axcore_quant::KvQuantConfig;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Arena geometry used by the direct lifecycle tests: 2 layers, d=8,
/// 2 heads, 4 positions per page.
fn arena(max_pages: usize) -> KvArena {
    let cfg = KvPageConfig { block: 4, ..Default::default() }
        .with_max_pages(max_pages)
        .expect("nonzero capacity");
    KvArena::new(2, 8, 2, cfg)
}

/// Append `n` positions (both layers) to `id` and commit them.
fn fill(a: &mut KvArena, id: axcore_nn::kvcache::SeqId, n: usize) {
    let start = a.len(id);
    let rows: Vec<f32> = (0..n * 8).map(|x| x as f32 * 0.25 - 1.0).collect();
    for layer in 0..2 {
        a.try_append(id, layer, start, &rows, &rows).expect("append in capacity");
    }
    a.try_commit(id, start + n).expect("commit appended positions");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `leave` is idempotent for any committed length: the first call
    /// frees exactly the sequence's pages, the second (and a leave of a
    /// never-joined slot) frees nothing, and page accounting returns to
    /// zero.
    #[test]
    fn double_leave_is_idempotent(n in 0usize..17) {
        let mut a = arena(8);
        let id = a.try_join().expect("capacity for one sequence");
        if n > 0 {
            fill(&mut a, id, n.min(8 * 4));
        }
        let owned = a.seq_pages(id);
        prop_assert_eq!(a.live_pages(), owned);
        prop_assert_eq!(a.leave(id), owned, "first leave frees the sequence's pages");
        prop_assert_eq!(a.leave(id), 0, "second leave is a no-op");
        prop_assert_eq!(a.live_pages(), 0);
        prop_assert_eq!(a.len(id), 0, "a dead id reads as empty");
        prop_assert!(matches!(
            a.try_commit(id, 1),
            Err(KvError::DeadSequence)
        ), "a dead id stays typed-dead");
    }
}

/// After `reset` (preemption by recomputation) the sequence is still
/// registered but owns nothing: a gather of any prior position is a
/// typed `OutOfBounds`, never stale pages — and the sequence is
/// immediately reusable.
#[test]
fn gather_after_reset_is_typed_out_of_bounds() {
    let mut a = arena(8);
    let id = a.try_join().expect("join");
    fill(&mut a, id, 10);
    assert_eq!(a.len(id), 10);
    let freed = a.reset(id);
    assert_eq!(freed, 3, "10 positions / block 4 = 3 pages reclaimed");
    assert_eq!(a.live_pages(), 0);
    let (mut k, mut v) = (Vec::new(), Vec::new());
    match a.try_gather(id, 0, 1, &mut k, &mut v) {
        Err(KvError::OutOfBounds { pos: 1, capacity: 0 }) => {}
        other => panic!("gather after reset must be OutOfBounds, got {other:?}"),
    }
    // Re-prefill path: the slot is live and writable again.
    fill(&mut a, id, 4);
    a.try_gather(id, 1, 4, &mut k, &mut v).expect("gather after re-fill");
    assert_eq!(k.len(), 4 * 8);
}

/// A zero-length commit on a fresh sequence is a no-op: no pages, no
/// checksums, no error — and commits stay monotonic afterwards.
#[test]
fn zero_length_commit_is_a_noop() {
    let mut a = arena(8);
    let id = a.try_join().expect("join");
    a.try_commit(id, 0).expect("zero-length commit is Ok");
    assert_eq!(a.len(id), 0);
    assert_eq!(a.live_pages(), 0);
    fill(&mut a, id, 5);
    a.try_commit(id, 3).expect("shrinking commit is a monotonic no-op");
    assert_eq!(a.len(id), 5, "committed length never goes backwards");
}

/// Join/leave churn recycles pages through the free list: the slab's
/// high-water mark is the working set of one round, not the cumulative
/// total across rounds.
#[test]
fn free_list_recycles_pages_under_churn() {
    let mut a = arena(16);
    for round in 0..12 {
        let ids: Vec<_> = (0..3).map(|_| a.try_join().expect("join")).collect();
        for (j, &id) in ids.iter().enumerate() {
            fill(&mut a, id, 4 * (j + 1)); // 1, 2, 3 pages
        }
        assert_eq!(a.live_pages(), 6);
        for &id in &ids {
            a.leave(id);
        }
        assert_eq!(a.live_pages(), 0, "round {round} drained");
    }
    assert_eq!(
        a.peak_pages(),
        6,
        "12 rounds of churn never grew the slab past one round's working set"
    );
}

/// A `max_pages` of zero is rejected at config construction — there is
/// no way to build an arena that could never hold a token.
#[test]
fn zero_page_capacity_is_a_typed_config_error() {
    assert_eq!(
        KvPageConfig::default().with_max_pages(0).unwrap_err(),
        KvError::ZeroCapacity
    );
}

// --- erasure-coded parity groups (DESIGN.md §14) --------------------

/// Verified arena with default parity groups for the erasure tests.
fn parity_arena(max_pages: usize) -> KvArena {
    let cfg = KvPageConfig {
        block: 4,
        verify: Some(VerifyPolicy::Full),
        ..Default::default()
    }
    .with_max_pages(max_pages)
    .expect("nonzero capacity");
    KvArena::new(2, 8, 2, cfg)
}

/// Append `n` positions of salted (per-call distinct) rows and commit.
fn fill_salted(a: &mut KvArena, id: SeqId, n: usize, salt: &mut u32) {
    let start = a.len(id);
    *salt += 1;
    let s = *salt as f32;
    let k: Vec<f32> = (0..n * 8).map(|x| (x as f32 * 0.31 + s).sin()).collect();
    let v: Vec<f32> = (0..n * 8).map(|x| (x as f32 * 0.17 + s).cos()).collect();
    for layer in 0..2 {
        a.try_append(id, layer, start, &k, &v).expect("append in capacity");
    }
    a.try_commit(id, start + n).expect("commit appended positions");
}

/// Flip one bit in every sealed page of `id`, one page at a time, and
/// require each verified gather to heal it by parity reconstruction
/// with bit-identical bytes. Returns how many pages were exercised.
fn reconstruct_each_sealed_page(a: &mut KvArena, id: SeqId, flip: &mut u32) -> u64 {
    let len = a.len(id);
    let sealed = len / 4;
    if sealed == 0 {
        return 0;
    }
    // Pristine reference bits, both layers.
    let (mut k, mut v) = (Vec::new(), Vec::new());
    let mut reference = Vec::new();
    for layer in 0..2 {
        a.try_gather(id, layer, len, &mut k, &mut v).expect("pristine gather");
        reference.push((
            k.iter().map(|x| x.to_bits()).collect::<Vec<u32>>(),
            v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>(),
        ));
    }
    let per_page = 2 * 4 * 8; // layers × block × d
    let mut exercised = 0u64;
    for page in 0..sealed {
        *flip = flip.wrapping_mul(0x9E37).wrapping_add(1);
        let site = if page % 2 == 0 { "kv-k-sealed" } else { "kv-v-sealed" };
        let word = page * per_page + (*flip as usize) % per_page;
        let before = a.reconstructions();
        assert!(a.inject_seq_fault(id, site, word, *flip % 32));
        for (layer, (rk, rv)) in reference.iter().enumerate() {
            a.try_gather(id, layer, len, &mut k, &mut v)
                .expect("single sealed flip reconstructs in place");
            assert!(
                k.iter().map(|x| x.to_bits()).eq(rk.iter().copied())
                    && v.iter().map(|x| x.to_bits()).eq(rv.iter().copied()),
                "reconstructed bytes bit-identical (page {page}, layer {layer})"
            );
        }
        assert_eq!(a.reconstructions(), before + 1, "exactly one reconstruction per flip");
        exercised += 1;
    }
    exercised
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Parity groups stay consistent under join/leave/reset churn with
    /// free-list page recycling: after **every** operation, flipping a
    /// bit in any single sealed page of any sequence must heal by
    /// reconstruction to bit-identical bytes. Group membership — XOR-in
    /// at seal, XOR-out (or rebuild) at free, recycled parity buffers —
    /// can never drift from the data, or some flip here would
    /// reconstruct garbage and fail the owner-bound re-verification.
    #[test]
    fn parity_reconstructs_any_single_page_under_churn(
        seed in 1u64..u64::MAX, n_ops in 4usize..16
    ) {
        // Derive the op sequence from the drawn seed (the vendored
        // proptest has no collection strategies).
        let mut state = seed;
        let mut draw = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        let ops: Vec<(u8, usize, usize)> = (0..n_ops)
            .map(|_| (draw(4) as u8, draw(4) as usize, 1 + draw(6) as usize))
            .collect();
        let mut a = parity_arena(64);
        let mut slots: [Option<SeqId>; 4] = [None; 4];
        let (mut salt, mut flip) = (0u32, 1u32);
        let mut exercised = 0u64;
        for (op, slot, n) in ops {
            match op {
                0 => {
                    if slots[slot].is_none() {
                        slots[slot] = a.try_join().ok();
                    }
                }
                1 => {
                    if let Some(id) = slots[slot] {
                        if a.len(id) + n <= 24 {
                            fill_salted(&mut a, id, n, &mut salt);
                        }
                    }
                }
                2 => {
                    if let Some(id) = slots[slot].take() {
                        a.leave(id);
                    }
                }
                _ => {
                    if let Some(id) = slots[slot] {
                        a.reset(id);
                    }
                }
            }
            for id in slots.into_iter().flatten() {
                exercised += reconstruct_each_sealed_page(&mut a, id, &mut flip);
            }
        }
        // Churn plus healing never silently failed a reconstruction.
        prop_assert_eq!(a.reconstruct_failures(), 0);
        prop_assert_eq!(a.reconstructions(), exercised);
    }

    /// Two flips in distinct sealed pages of the *same* parity group:
    /// XOR parity cannot arbitrate a double loss, so the arena must
    /// refuse reconstruction and surface the typed `CorruptPage` — the
    /// scheduler's cue to recompute.
    #[test]
    fn double_fault_in_one_group_is_typed_fallback(
        wa in 0usize..64, wb in 0usize..64, bit_a in 0u32..32, bit_b in 0u32..32
    ) {
        let mut a = parity_arena(16);
        let id = a.try_join().expect("join");
        let mut salt = 9;
        fill_salted(&mut a, id, 8, &mut salt); // two sealed pages, one group
        let per_page = 2 * 4 * 8;
        assert!(a.inject_seq_fault(id, "kv-k-sealed", wa % per_page, bit_a));
        assert!(a.inject_seq_fault(id, "kv-k-sealed", per_page + wb % per_page, bit_b));
        let (mut k, mut v) = (Vec::new(), Vec::new());
        let hit = (0..2).any(|layer| matches!(
            a.try_gather(id, layer, 8, &mut k, &mut v),
            Err(KvError::CorruptPage { .. })
        ));
        prop_assert!(hit, "degraded group surfaces the typed error");
        prop_assert_eq!(a.reconstructions(), 0, "no reconstruction from a degraded group");
        prop_assert!(a.reconstruct_failures() >= 1);
    }
}

/// A corrupt *parity* page also degrades the group: a subsequent data
/// loss cannot be reconstructed (the fold no longer matches), and the
/// failure is typed rather than silently accepting garbage.
#[test]
fn corrupt_parity_page_degrades_to_typed_fallback() {
    let mut a = parity_arena(16);
    let id = a.try_join().expect("join");
    let mut salt = 3;
    fill_salted(&mut a, id, 8, &mut salt);
    assert!(a.inject_seq_fault(id, "kv-parity", 11, 7));
    assert!(a.inject_seq_fault(id, "kv-k-sealed", 2, 19));
    let (mut k, mut v) = (Vec::new(), Vec::new());
    let hit = (0..2).any(|layer| a.try_gather(id, layer, 8, &mut k, &mut v).is_err());
    assert!(hit, "data loss under corrupt parity is a typed error");
    assert_eq!(a.reconstructions(), 0);
    assert!(a.reconstruct_failures() >= 1);
}

/// Scheduler-level pin of the degraded-group fallback: a double fault
/// in one group mid-decode heals through the reset-and-re-prefill
/// recompute path — counted as such, with zero reconstructions — and
/// the completion stays bit-identical to serial decoding.
#[test]
fn scheduler_recomputes_degraded_group_bit_exact() {
    let q = qlm();
    let kv = KvPageConfig {
        block: 4,
        verify: Some(VerifyPolicy::Full),
        scrub: 0,
        ..Default::default()
    };
    let mut sched = DecodeScheduler::new(&q, Decoding::Greedy, kv);
    let budget = 12usize;
    let h = sched.admit(&prompt_for(1), budget).expect("admit");
    let mut tokens = None;
    let per_page = 2 * 4 * 16; // layers × block × d_model
    for step in 0..budget + 4 {
        if step == 6 {
            // len = 3 prompt + 6 tokens = 9 → two sealed pages, same group.
            assert!(sched.inject_kv_fault("kv-k-sealed", 3, 5));
            assert!(sched.inject_kv_fault("kv-k-sealed", per_page + 3, 5));
        }
        for ev in sched.step(|_| true) {
            match ev {
                StepEvent::Finished { handle, outcome } => {
                    assert_eq!(handle, h);
                    tokens = Some(outcome.tokens);
                }
                StepEvent::Failed { error, .. } => panic!("must heal, not fail: {error}"),
            }
        }
        if tokens.is_some() {
            break;
        }
    }
    assert!(sched.kv_corruptions_detected() >= 1, "double fault detected");
    assert_eq!(sched.kv_repairs_reconstructed(), 0, "degraded group never reconstructs");
    assert!(sched.kv_repairs_recomputed() >= 1, "healed via recompute fallback");
    let serial = try_generate(&q, &prompt_for(1), budget, Decoding::Greedy).expect("serial");
    assert_eq!(tokens.expect("finished"), serial, "recompute repair is bit-exact");
}

/// The forward path verifies through the page-walk view exactly as a
/// gather does: a flipped sealed-page bit read by `try_forward_paged`
/// under `VerifyPolicy::Full` is detected and reconstructed in place —
/// the logits equal an undisturbed arena's bit for bit — and the
/// arena's `pages_verified` / `corruptions_detected` / `reconstructions`
/// counters advance exactly as the same reads through `try_gather` do.
/// A `q4-opt` arena (2 layers, d 16, 2 heads, 4 positions per page,
/// parity 8, every read verified) holding one sequence of 9 committed
/// positions: page 0 stayed f32 (a NaN in one K group keeps the FP4 grid
/// off it), page 1 sealed into codes and scales, page 2 the f32 tail.
fn mixed_sealed_arena() -> (KvArena, SeqId) {
    let cfg = KvPageConfig {
        quant: Some(KvQuantConfig::opt()),
        block: 4,
        verify: Some(VerifyPolicy::Full),
        ..Default::default()
    };
    let (d, n) = (16, 9);
    let mut a = KvArena::new(2, d, 2, cfg);
    let id = a.try_join().expect("join");
    for layer in 0..2 {
        let mut k: Vec<f32> = (0..n * d).map(|x| ((x * 7 + layer) as f32 * 0.37).sin()).collect();
        let v: Vec<f32> = (0..n * d).map(|x| ((x * 3 + layer) as f32 * 0.61).cos()).collect();
        if layer == 0 {
            k[d + 3] = f32::NAN;
        }
        a.try_append(id, layer, 0, &k, &v).expect("append");
    }
    a.try_commit(id, n).expect("commit seals pages 0 and 1");
    (a, id)
}

/// Every unit of every region a page checksum or a parity fold covers —
/// the f32 rows of a sealed page that stayed f32 and of the committed
/// tail, a code page's K and V code bytes and its FP16 scales, and both
/// kinds of parity page — is caught by the next verified view or scrub
/// after a one-bit flip through `inject_seq_fault`. A flip in a sealed
/// page (either kind) or its scales is repaired from parity, bit for bit.
#[test]
fn a_flip_in_every_folded_region_is_caught() {
    let (clean, id) = mixed_sealed_arena();
    // Mixed arena: 1 f32 page and 1 code page sealed, so the sealed
    // sites cover both kinds and the parity pages are one of each.
    assert_eq!(clean.parity_groups_live(), 2, "one parity group per page kind");
    let (nl, d, block) = (2usize, 16usize, 4usize);
    let f32_words = nl * block * d;
    for site in ["kv-k-sealed", "kv-v-sealed", "kv-scales", "kv-k-tail", "kv-v-tail", "kv-parity"] {
        let surface = clean.seq_fault_surface(id, site);
        assert!(surface > 0, "{site} has a surface");
        if site.ends_with("-sealed") {
            // The f32 page's words, then the code page's bytes.
            assert!(surface > f32_words && surface < 2 * f32_words, "{site} surface {surface}");
        }
        for unit in 0..surface {
            let (mut a, _) = mixed_sealed_arena();
            let mut reference = Vec::new();
            for layer in 0..nl {
                let (mut k, mut v) = (Vec::new(), Vec::new());
                a.try_gather(id, layer, 9, &mut k, &mut v).expect("pristine");
                reference.push((k, v));
            }
            let before = a.corruptions_detected();
            let bit = (unit * 7 % 32) as u32;
            assert!(a.inject_seq_fault(id, site, unit, bit), "{site} unit {unit}");
            for layer in 0..nl {
                let _ = a.try_view(id, layer, 9);
            }
            a.scrub(64);
            assert!(a.corruptions_detected() > before, "{site} unit {unit} bit {bit} went unseen");
            if site.ends_with("-sealed") || site == "kv-scales" {
                for (layer, (rk, rv)) in reference.iter().enumerate() {
                    let (mut k, mut v) = (Vec::new(), Vec::new());
                    a.try_gather(id, layer, 9, &mut k, &mut v).expect("repaired from parity");
                    let bits = |x: &[f32]| x.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&k), bits(rk), "{site} unit {unit}: K restored");
                    assert_eq!(bits(&v), bits(rv), "{site} unit {unit}: V restored");
                }
            }
        }
    }
}

#[test]
fn resident_bytes_fall_fivefold_on_code_pages() {
    // The benchmark's geometry: 3 layers, d 64, 4 heads, 16 positions per
    // page, parity groups of 8, 448 committed positions (28 sealed pages),
    // appended in one burst of f32 pages before the commit seals them.
    let (nl, d, nh, block, n) = (3usize, 64usize, 4usize, 16usize, 448usize);
    let per_token = |quant: Option<KvQuantConfig>| -> f64 {
        let cfg = KvPageConfig { quant, block, parity: Some(8), ..Default::default() };
        let mut a = KvArena::new(nl, d, nh, cfg);
        let id = a.try_join().expect("join");
        for layer in 0..nl {
            let rows: Vec<f32> = (0..n * d).map(|x| ((x * 5 + layer) as f32 * 0.013).sin()).collect();
            a.try_append(id, layer, 0, &rows, &rows).expect("append");
        }
        a.try_commit(id, n).expect("commit");
        a.resident_bytes() as f64 / n as f64
    };
    let fp32 = per_token(None);
    let q4 = per_token(Some(KvQuantConfig::opt()));
    // Every buffer the arena holds: 28 pages + 4 parity pages of 24 KiB;
    // or of 3840 B as codes and scales, plus the one pair of f32 rows it
    // keeps for the live sequence's next hot page (the other 27 pairs the
    // burst used are freed when the commit seals their pages).
    assert_eq!(fp32, (32.0 * 24576.0) / 448.0, "FP32 pages: {fp32} B per token");
    assert_eq!(q4, (32.0 * 3840.0 + 24576.0) / 448.0, "q4-opt code pages: {q4} B per token");
    assert!(q4 <= 450.0 && (fp32 - 1755.4).abs() < 0.1, "fp32 {fp32}, q4 {q4}");
}

#[test]
fn forward_through_the_view_detects_and_reconstructs_like_a_gather() {
    let q = qlm();
    let kv = KvPageConfig { block: 4, verify: Some(VerifyPolicy::Full), ..Default::default() };
    let prompt = [1usize, 4, 2, 7, 3, 3, 9, 5, 6];
    let next = 8usize;
    let prefilled = || {
        let mut a = q.kv_arena(kv);
        let id = a.try_join().expect("join");
        q.try_forward_paged(&prompt, 0, &mut a, id).expect("prefill");
        a.try_commit(id, prompt.len()).expect("commit");
        (a, id)
    };
    let (mut clean, cid) = prefilled();
    let want = q.try_forward_paged(&[next], prompt.len(), &mut clean, cid).expect("clean decode");
    let per_page = 2 * 4 * 16; // layers × block × d_model
    for (site, word, bit) in [("kv-k-sealed", 5, 22u32), ("kv-v-sealed", per_page + 37, 30)] {
        let (mut viewed, vid) = prefilled();
        let (mut gathered, gid) = prefilled();
        assert!(viewed.inject_seq_fault(vid, site, word, bit));
        assert!(gathered.inject_seq_fault(gid, site, word, bit));
        let before = (viewed.pages_verified(), viewed.corruptions_detected());
        let got = q
            .try_forward_paged(&[next], prompt.len(), &mut viewed, vid)
            .expect("a single sealed flip heals in place");
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "{site}: healed logits equal the clean run");
        // The same reads through the gather: each layer appends its new
        // row, then reads the prefix plus that row.
        assert_eq!((gathered.pages_verified(), gathered.corruptions_detected()), before);
        let row = vec![0.5f32; 16];
        let (mut k, mut v) = (Vec::new(), Vec::new());
        for layer in 0..2 {
            gathered.try_append(gid, layer, prompt.len(), &row, &row).expect("append");
            gathered
                .try_gather(gid, layer, prompt.len() + 1, &mut k, &mut v)
                .expect("a single sealed flip heals in place");
        }
        assert_eq!(viewed.corruptions_detected(), before.1 + 1, "{site}: detected once");
        assert_eq!(viewed.reconstructions(), 1, "{site}: reconstructed once");
        assert_eq!(viewed.pages_verified(), gathered.pages_verified(), "{site}");
        assert_eq!(viewed.corruptions_detected(), gathered.corruptions_detected(), "{site}");
        assert_eq!(viewed.reconstructions(), gathered.reconstructions(), "{site}");
    }
}

// --- scheduler under capacity pressure ------------------------------

const PROMPTS: usize = 5;

fn qlm() -> Arc<QuantizedLm> {
    static QLM: OnceLock<Arc<QuantizedLm>> = OnceLock::new();
    Arc::clone(QLM.get_or_init(|| {
        let cfg = LmConfig {
            vocab: 19,
            d_model: 16,
            n_layers: 2,
            n_heads: 2,
            d_ff: 32,
            max_seq: 32,
            act: ActKind::Relu,
        };
        let model = TransformerLm::new(cfg, 41);
        Arc::new(quantize_model(&model, Scheme::AxCore, 8, None))
    }))
}

fn prompt_for(i: usize) -> Vec<usize> {
    vec![1 + (i % PROMPTS), 2 + (i % 3), 3]
}

/// An admission whose full extent could never fit the arena even alone
/// is refused typed at `admit` — the guarantee that a stalled sequence
/// always eventually runs.
#[test]
fn oversized_admission_is_refused_typed() {
    let q = qlm();
    let kv = KvPageConfig { block: 4, ..Default::default() }
        .with_max_pages(2)
        .expect("nonzero");
    let mut sched = DecodeScheduler::new(&q, Decoding::Greedy, kv);
    // 3 prompt + 9 budget = 12 positions = 3 pages > max 2.
    match sched.admit(&prompt_for(0), 9) {
        Err(GenerateError::Kv(KvError::CapacityExhausted { needed: 3, max_pages: 2, .. })) => {}
        other => panic!("oversized request must be refused typed, got {other:?}"),
    }
    // The same prompt with a fitting budget is admitted.
    sched.admit(&prompt_for(0), 5).expect("fitting request admitted");
}

/// The capacity tentpole, at 1/2/4 attention workers: a scheduler with a
/// page cap far under the offered load (plus periodic forced evictions)
/// must stall/evict/resume its way through every sequence, never exceed
/// `max_pages` at any step boundary, record the stalls, and retire every
/// sequence bit-identical to serial `try_generate`.
#[test]
fn capacity_pressure_stall_evict_resume_is_bit_exact_at_every_worker_count() {
    for workers in [1usize, 2, 4] {
        axcore_parallel::with_threads(workers, || {
            let q = qlm();
            // Each request: 3 prompt + 6 budget = 9 positions = 3 pages
            // (block 4). Cap at 4 pages: only one sequence can ever hold
            // its full extent, so the rest must stall and take turns.
            let kv = KvPageConfig { block: 4, ..Default::default() }
                .with_max_pages(4)
                .expect("nonzero");
            let mut sched = DecodeScheduler::new(&q, Decoding::Greedy, kv);
            // 4 concurrent sequences is also `try_join`'s limit at 4
            // pages (each live sequence must be able to hold a page).
            let reqs = 4usize;
            let mut handles: HashMap<SeqHandle, usize> = HashMap::new();
            for i in 0..reqs {
                let h = sched.admit(&prompt_for(i), 6).expect("admissible request");
                handles.insert(h, i);
            }
            let mut finished: HashMap<usize, Vec<usize>> = HashMap::new();
            let mut rounds = 0usize;
            while sched.live() > 0 {
                rounds += 1;
                assert!(rounds <= 400, "capacity-bounded schedule must drain (livelock?)");
                if rounds.is_multiple_of(7) {
                    // Forced eviction on top of capacity stalls: the
                    // preemption and backpressure paths compose.
                    sched.evict_longest_idle();
                    sched.resume_one();
                }
                for ev in sched.step(|_| true) {
                    match ev {
                        StepEvent::Finished { handle, outcome } => {
                            let i = handles.remove(&handle).expect("known handle");
                            assert!(outcome.completed);
                            finished.insert(i, outcome.tokens);
                        }
                        StepEvent::Failed { handle, error } => {
                            panic!("{handle:?} failed under capacity pressure: {error}");
                        }
                    }
                }
                assert!(
                    sched.kv_pages_live() <= sched.kv_max_pages(),
                    "page cap held at every step boundary ({} > {})",
                    sched.kv_pages_live(),
                    sched.kv_max_pages()
                );
            }
            assert_eq!(sched.kv_pages_live(), 0, "all pages freed at drain");
            assert!(
                sched.kv_capacity_stalls() > 0,
                "the cap was actually hit (stalls recorded)"
            );
            assert!(sched.kv_pages_peak() <= 4, "high-water respects the cap");
            for i in 0..reqs {
                let serial =
                    try_generate(&q, &prompt_for(i), 6, Decoding::Greedy).expect("serial");
                assert_eq!(
                    finished.get(&i),
                    Some(&serial),
                    "sequence {i} bit-exact vs serial at {workers} workers"
                );
            }
        });
    }
}
