//! Timed probes into single layers at fixed shapes, each call wrapped in
//! a span. `short` is a chat context (64 positions); `long` is a
//! long-context one (448 positions).

use crate::gen::Rng;
use crate::stats::median;
use crate::trace;
use axcore::engines::{AxCoreEngine, GemmEngine};
use axcore_nn::attention::attention_context_rows_sharded;
use axcore_nn::kvcache::{KvArena, KvPageConfig};
use axcore_nn::{QuantizedLm, TransformerLm};
use axcore_quant::{GroupQuantizer, KvQuantConfig};
use axcore_softfloat::FP16;
use std::time::{Duration, Instant};

pub const SHORT: usize = 64;
pub const LONG: usize = 448;
/// Rows of the stacked decode probe (the chat concurrency).
pub const DECODE_ROWS: usize = 4;
/// GEMM row counts probed: decode batches and a prefill.
pub const GEMM_ROWS: [usize; 4] = [1, 4, 8, 256];

/// Call `f` at least 5 times and for at least 30 ms (at most 2000
/// times), each call in a span; the median call time in microseconds.
pub fn time_us(name: &'static str, mut f: impl FnMut()) -> f64 {
    let begin = Instant::now();
    let mut times = Vec::new();
    while times.len() < 5 || (begin.elapsed() < Duration::from_millis(30) && times.len() < 2000) {
        let t0 = Instant::now();
        trace::span(name, None, &mut f);
        times.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    median(&times)
}

fn random_rows(rng: &mut Rng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.unit()).collect()
}

/// The model's three linear shapes (64×64, 64×256, 256×64), prepared
/// from its public weights through the public engine API.
pub struct GemmProbe {
    /// Microseconds per row for one call of each shape, at each row
    /// count of [`GEMM_ROWS`].
    pub us_per_row: [f64; 4],
    /// One-row time at one thread over one-row time at the host's
    /// available parallelism.
    pub decode_speedup: f64,
    pub macs_per_row: f64,
    pub weight_bytes: f64,
}

pub fn gemm(model: &TransformerLm, rng: &mut Rng) -> GemmProbe {
    let engine = AxCoreEngine::new(FP16);
    let block = &model.blocks[0];
    let layers = [&block.attn.wq, &block.fc1, &block.fc2];
    let prepared: Vec<_> = layers
        .iter()
        .map(|l| {
            let q = GroupQuantizer::adaptive_fp4(crate::setup::GROUP, l.out_dim.min(64), None)
                .quantize(&l.w, l.in_dim, l.out_dim);
            (engine.prepare(&q), l.in_dim, l.out_dim)
        })
        .collect();
    let run_all = |m: usize, rng: &mut Rng| {
        let (prepared, engine) = (&prepared, &engine);
        let inputs: Vec<Vec<f32>> = prepared
            .iter()
            .map(|(_, k, _)| random_rows(rng, m * k))
            .collect();
        let mut outs: Vec<Vec<f32>> = prepared.iter().map(|(_, _, n)| vec![0f32; m * n]).collect();
        move || {
            for ((p, _, _), (a, out)) in prepared.iter().zip(inputs.iter().zip(outs.iter_mut())) {
                let r = engine.try_gemm_prepared(&**p, std::hint::black_box(a), m, out);
                assert!(r.is_ok(), "probe GEMM failed: {r:?}");
            }
        }
    };
    let mut us_per_row = [0.0; 4];
    for (slot, &m) in us_per_row.iter_mut().zip(&GEMM_ROWS) {
        *slot = time_us("core.gemm", run_all(m, rng)) / m as f64;
    }
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let one_thread = axcore_parallel::with_threads(1, || time_us("core.gemm", run_all(1, rng)));
    let all_threads = axcore_parallel::with_threads(host, || time_us("core.gemm", run_all(1, rng)));
    let macs: usize = layers.iter().map(|l| l.in_dim * l.out_dim).sum();
    // 4-bit codes plus one FP16 scale per (group, column).
    let weight_bytes: usize = layers
        .iter()
        .map(|l| l.in_dim * l.out_dim / 2 + 2 * (l.in_dim / crate::setup::GROUP) * l.out_dim)
        .sum();
    GemmProbe {
        us_per_row,
        decode_speedup: one_thread / all_threads,
        macs_per_row: macs as f64,
        weight_bytes: weight_bytes as f64,
    }
}

/// Microseconds for one query row of causal attention over `len`
/// cached positions (all heads).
pub fn attention_row_us(model: &TransformerLm, len: usize, rng: &mut Rng) -> f64 {
    let c = model.cfg;
    let q = random_rows(rng, c.d_model);
    let k = random_rows(rng, len * c.d_model);
    let v = random_rows(rng, len * c.d_model);
    time_us("attention.rows", || {
        std::hint::black_box(attention_context_rows_sharded(
            &q,
            &k,
            &v,
            len - 1,
            1,
            c.d_model,
            c.n_heads,
            c.d_model / c.n_heads,
        ));
    })
}

/// Arena costs at `LONG` positions for one page format.
pub struct KvProbe {
    pub commit_us_per_page: f64,
    pub gather_us: f64,
    pub scrub_us: f64,
    pub resident_bytes_per_token: f64,
}

pub fn kvcache(
    qlm: &QuantizedLm,
    model: &TransformerLm,
    quant: Option<KvQuantConfig>,
    rng: &mut Rng,
) -> KvProbe {
    let c = model.cfg;
    let cfg = KvPageConfig {
        quant,
        ..KvPageConfig::default()
    };
    let mut commits = Vec::new();
    let mut filled: Option<(KvArena, _)> = None;
    for _ in 0..3 {
        let mut a = qlm.kv_arena(cfg);
        let seq = a.try_join().expect("fresh arena admits a sequence");
        for page in 0..LONG / cfg.block {
            let start = page * cfg.block;
            for layer in 0..c.n_layers {
                let k = random_rows(rng, cfg.block * c.d_model);
                let v = random_rows(rng, cfg.block * c.d_model);
                a.try_append(seq, layer, start, &k, &v)
                    .expect("append within capacity");
            }
            let t0 = Instant::now();
            trace::span("kvcache.commit", None, || {
                a.try_commit(seq, start + cfg.block)
            })
            .expect("commit of appended rows");
            commits.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        filled = Some((a, seq));
    }
    let (mut a, seq) = filled.expect("three arenas were filled");
    let (mut kf, mut vf) = (Vec::new(), Vec::new());
    let gather_us = time_us("kvcache.gather", || {
        a.try_gather(seq, 0, LONG, &mut kf, &mut vf)
            .expect("gather of committed rows");
    });
    let scrub_us = time_us("kvcache.scrub", || {
        std::hint::black_box(a.scrub(cfg.scrub.max(1)));
    });
    let page_bytes = 2 * c.n_layers * cfg.block * c.d_model * std::mem::size_of::<f32>();
    let resident = (a.live_pages() + a.parity_groups_live()) * page_bytes;
    KvProbe {
        commit_us_per_page: median(&commits),
        gather_us,
        scrub_us,
        resident_bytes_per_token: resident as f64 / LONG as f64,
    }
}

/// Microseconds per token of one `m`-token prefill through
/// `try_forward_paged` into a fresh sequence.
pub fn prefill_us_per_token(qlm: &QuantizedLm, kv: KvPageConfig, m: usize, rng: &mut Rng) -> f64 {
    let tokens = rng.tokens(m, qlm.vocab());
    let mut arena = qlm.kv_arena(kv);
    time_us("eval.forward_paged", || {
        let seq = arena.try_join().expect("arena admits a sequence");
        qlm.try_forward_paged(&tokens, 0, &mut arena, seq)
            .expect("prefill forward");
        arena.leave(seq);
    }) / m as f64
}

/// Microseconds per row of one stacked decode step
/// (`try_forward_paged_batch`) of `DECODE_ROWS` sequences at position
/// `len - 1`.
pub fn decode_us_per_row(qlm: &QuantizedLm, kv: KvPageConfig, len: usize, rng: &mut Rng) -> f64 {
    let mut arena = qlm.kv_arena(kv);
    let mut items = Vec::new();
    for _ in 0..DECODE_ROWS {
        let tokens = rng.tokens(len, qlm.vocab());
        let seq = arena.try_join().expect("arena admits a sequence");
        qlm.try_forward_paged(&tokens[..len - 1], 0, &mut arena, seq)
            .expect("prefix forward");
        arena.try_commit(seq, len - 1).expect("prefix commit");
        items.push((seq, len - 1, tokens[len - 1]));
    }
    // Appends past the committed length stay uncommitted, so every
    // repetition decodes the same position.
    time_us("eval.forward_paged_batch", || {
        std::hint::black_box(
            qlm.try_forward_paged_batch(&items, &mut arena)
                .expect("decode forward"),
        );
    }) / DECODE_ROWS as f64
}

/// Microseconds per token of a full-window `try_forward`.
pub fn window_us_per_token(qlm: &QuantizedLm, window: &[usize]) -> f64 {
    time_us("eval.forward", || {
        std::hint::black_box(qlm.try_forward(window).expect("window forward"));
    }) / window.len() as f64
}
