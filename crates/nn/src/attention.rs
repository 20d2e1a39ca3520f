//! Multi-head causal self-attention with a hand-written backward pass.

use crate::kvcache::{KvArena, KvError, SeqId};
use crate::layers::Linear;
use crate::ops::softmax_rows;
use axcore::GemmError;
use axcore_simd::{attend_heads, score_rows_len, KvPages, KvRows};
use rand::rngs::StdRng;

/// Multi-head causal self-attention over a single sequence of length `s`.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    /// Query projection.
    pub wq: Linear,
    /// Key projection.
    pub wk: Linear,
    /// Value projection.
    pub wv: Linear,
    /// Output projection.
    pub wo: Linear,
    /// Model width.
    pub d_model: usize,
    /// Number of heads.
    pub n_heads: usize,
    cache: Option<AttnCache>,
}

#[derive(Debug, Clone)]
struct AttnCache {
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    probs: Vec<f32>, // per head: s×s
    s: usize,
}

impl MultiHeadAttention {
    /// Build with the given width and head count.
    ///
    /// # Panics
    ///
    /// Panics if `d_model` is not divisible by `n_heads`.
    pub fn new(d_model: usize, n_heads: usize, rng: &mut StdRng) -> Self {
        assert!(d_model.is_multiple_of(n_heads), "d_model must divide into heads");
        MultiHeadAttention {
            wq: Linear::new(d_model, d_model, rng),
            wk: Linear::new(d_model, d_model, rng),
            wv: Linear::new(d_model, d_model, rng),
            wo: Linear::new(d_model, d_model, rng),
            d_model,
            n_heads,
            cache: None,
        }
    }

    /// Head dimension.
    pub fn head_dim(&self) -> usize {
        self.d_model / self.n_heads
    }

    /// Forward over one sequence (`s × d_model`), caching for backward.
    pub fn forward(&mut self, x: &[f32], s: usize) -> Vec<f32> {
        let d = self.d_model;
        let dh = self.head_dim();
        let q = self.wq.forward(x, s);
        let k = self.wk.forward(x, s);
        let v = self.wv.forward(x, s);
        let scale = 1.0 / (dh as f32).sqrt();

        let mut ctx = vec![0f32; s * d];
        let mut probs_all = vec![0f32; self.n_heads * s * s];
        for h in 0..self.n_heads {
            // scores[i][j] = q_i · k_j for j ≤ i.
            let mut scores = vec![f32::NEG_INFINITY; s * s];
            for i in 0..s {
                for j in 0..=i {
                    let mut acc = 0f32;
                    for e in 0..dh {
                        acc += q[i * d + h * dh + e] * k[j * d + h * dh + e];
                    }
                    scores[i * s + j] = acc * scale;
                }
            }
            softmax_rows(&mut scores, s, s);
            probs_all[h * s * s..(h + 1) * s * s].copy_from_slice(&scores);
            for i in 0..s {
                for j in 0..=i {
                    let p = scores[i * s + j];
                    if p == 0.0 {
                        continue;
                    }
                    for e in 0..dh {
                        ctx[i * d + h * dh + e] += p * v[j * d + h * dh + e];
                    }
                }
            }
        }
        self.cache = Some(AttnCache {
            q,
            k,
            v,
            probs: probs_all,
            s,
        });
        self.wo.forward(&ctx, s)
    }

    /// Backward: propagate through the output projection, attention
    /// weights, and the Q/K/V projections; returns `dx`.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &[f32]) -> Vec<f32> {
        let Some(cache) = self.cache.take() else { panic!("backward before forward") };
        let AttnCache { q, k, v, probs, s } = cache;
        let d = self.d_model;
        let dh = self.head_dim();
        let scale = 1.0 / (dh as f32).sqrt();

        let dctx = self.wo.backward(dy);
        let mut dq = vec![0f32; s * d];
        let mut dk = vec![0f32; s * d];
        let mut dv = vec![0f32; s * d];
        for h in 0..self.n_heads {
            let p = &probs[h * s * s..(h + 1) * s * s];
            // dV = Pᵀ · dctx ; dP = dctx · Vᵀ.
            let mut dp = vec![0f32; s * s];
            for i in 0..s {
                for j in 0..=i {
                    let mut acc = 0f32;
                    for e in 0..dh {
                        acc += dctx[i * d + h * dh + e] * v[j * d + h * dh + e];
                    }
                    dp[i * s + j] = acc;
                    let pij = p[i * s + j];
                    if pij != 0.0 {
                        for e in 0..dh {
                            dv[j * d + h * dh + e] += pij * dctx[i * d + h * dh + e];
                        }
                    }
                }
            }
            // Softmax backward per row: ds = p ⊙ (dp − Σ p·dp).
            for i in 0..s {
                let row_p = &p[i * s..i * s + s];
                let row_dp = &dp[i * s..i * s + s];
                let dot: f32 = row_p.iter().zip(row_dp).map(|(a, b)| a * b).sum();
                for j in 0..=i {
                    let ds = row_p[j] * (row_dp[j] - dot) * scale;
                    if ds == 0.0 {
                        continue;
                    }
                    for e in 0..dh {
                        dq[i * d + h * dh + e] += ds * k[j * d + h * dh + e];
                        dk[j * d + h * dh + e] += ds * q[i * d + h * dh + e];
                    }
                }
            }
        }
        let dx_q = self.wq.backward(&dq);
        let dx_k = self.wk.backward(&dk);
        let dx_v = self.wv.backward(&dv);
        dx_q.iter()
            .zip(&dx_k)
            .zip(&dx_v)
            .map(|((a, b), c)| a + b + c)
            .collect()
    }

    /// Inference-only forward returning `(output, q, k, v)` — the eval
    /// stack reuses the projections it computed through its own engine, so
    /// this exact-path variant exists for parity testing.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches (shim over
    /// [`MultiHeadAttention::try_forward_infer`]).
    pub fn forward_infer(&self, x: &[f32], s: usize) -> Vec<f32> {
        self.try_forward_infer(x, s).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Inference-only forward; shape mismatches in the four projection
    /// GEMMs surface as a typed [`GemmError`].
    pub fn try_forward_infer(&self, x: &[f32], s: usize) -> Result<Vec<f32>, GemmError> {
        let d = self.d_model;
        let dh = self.head_dim();
        let q = self.wq.try_forward_infer(x, s)?;
        let k = self.wk.try_forward_infer(x, s)?;
        let v = self.wv.try_forward_infer(x, s)?;
        let ctx = attention_context(&q, &k, &v, s, d, self.n_heads, dh);
        self.wo.try_forward_infer(&ctx, s)
    }

    /// Visit (param, grad) pairs.
    pub fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Vec<f32>, &mut Vec<f32>)) {
        self.wq.for_each_param(f);
        self.wk.for_each_param(f);
        self.wv.for_each_param(f);
        self.wo.for_each_param(f);
    }
}

/// Pure-function causal attention context (shared by the exact inference
/// path and the eval stack): per head, softmax(QKᵀ/√dh with causal mask)·V.
pub fn attention_context(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    s: usize,
    d: usize,
    n_heads: usize,
    dh: usize,
) -> Vec<f32> {
    attention_context_rows(q, k, v, 0, s, d, n_heads, dh)
}

/// Reusable scratch of the attention kernel: one score row per head and
/// a sealed code page's K scales as f32. Buffers grow to the
/// largest call seen and are reused after that, so a warm scratch makes
/// attention allocation-free.
#[derive(Debug, Default)]
pub struct AttnScratch {
    scores: Vec<f32>,
    page: Vec<f32>,
}

impl AttnScratch {
    /// Grow the score rows to what [`attend_heads`] needs for `heads`
    /// heads up to query position `last`.
    fn fit(&mut self, heads: usize, last: usize) {
        let scores = score_rows_len(heads, last);
        if self.scores.len() < scores {
            self.scores.resize(scores, 0.0);
        }
    }
}

/// Causal attention for the `m` newest query rows (absolute positions
/// `start..start + m`) against `start + m` cached K/V rows, on the
/// calling thread: `q` is `m × d`, `k`/`v` are `(start + m) × d`, and
/// the returned context is `m × d`. With `start = 0` this is exactly
/// [`attention_context`]; it equals [`attend`] over the same rows at any
/// page size and worker count.
#[allow(clippy::too_many_arguments)] // bare geometry of the kernel: q/k/v + 5 dims
pub fn attention_context_rows(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    start: usize,
    m: usize,
    d: usize,
    n_heads: usize,
    dh: usize,
) -> Vec<f32> {
    let mut ctx = vec![0f32; m * d];
    let kv = KvRows::new(k, v, d);
    attend_serial(q, &kv, start, m, d, n_heads, dh, &mut AttnScratch::default(), &mut ctx);
    ctx
}

/// [`attention_context_rows`] sharded across heads over the worker pool
/// ([`attend`] over contiguous rows).
#[allow(clippy::too_many_arguments)] // bare geometry of the kernel: q/k/v + 5 dims
pub fn attention_context_rows_sharded(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    start: usize,
    m: usize,
    d: usize,
    n_heads: usize,
    dh: usize,
) -> Vec<f32> {
    let mut ctx = vec![0f32; m * d];
    let kv = KvRows::new(k, v, d);
    attend(q, &kv, start, m, d, n_heads, dh, &mut AttnScratch::default(), &mut ctx);
    ctx
}

/// Causal attention of the `m` query rows at absolute positions
/// `start..start + m` (`q` is `m × d`) against the first `start + m`
/// K/V rows of `kv`, written to `ctx` (`m × d`).
///
/// Row `i` is one [`axcore_simd::attend_heads`] pass over positions
/// `0..=start + i` for every head: no masked scores, each page read (and
/// a sealed code page rebuilt) once per row, and every reduction over
/// positions in absolute position order, head by head. So a row computes
/// the same bits whatever `start`/`m` split, page size, page kind or
/// worker count produced it — incremental decode equals the
/// full-sequence recompute.
///
/// Above a work floor the heads are sharded over the worker pool through
/// a `ShardPlan`: each shard owns whole heads — shard boundaries align
/// to `dh` — and runs the same pass over its own head range into its own
/// context columns, so the result is bit-identical to the serial path at
/// every worker count. Below the floor the rows run on the calling
/// thread in `scratch`, allocating nothing once it is warm.
#[allow(clippy::too_many_arguments)] // bare geometry of the kernel: q/kv + 5 dims + scratch/out
pub fn attend<P: KvPages + Sync + ?Sized>(
    q: &[f32],
    kv: &P,
    start: usize,
    m: usize,
    d: usize,
    n_heads: usize,
    dh: usize,
    scratch: &mut AttnScratch,
    ctx: &mut [f32],
) {
    if m == 0 {
        return;
    }
    let s = start + m;
    // Mirror the GEMM layer's parallelism floor (ops.rs): below it the
    // dispatch overhead dominates the head loop.
    const MIN_PARALLEL_MACS: usize = 32 * 1024;
    let workers = if m * s * d < MIN_PARALLEL_MACS || n_heads < 2 {
        1
    } else {
        axcore_parallel::current_threads().min(n_heads)
    };
    if workers == 1 {
        attend_serial(q, kv, start, m, d, n_heads, dh, scratch, ctx);
        return;
    }
    let plan = axcore_parallel::ShardPlan::new(d, workers, dh);
    axcore_parallel::par_shards_with(ctx, m, &plan, AttnScratch::default, |scratch, shard, slice| {
        let heads = shard.col0 / dh..(shard.col0 + shard.cols) / dh;
        scratch.fit(heads.len(), s - 1);
        for i in 0..m {
            let qs = &q[i * d + shard.col0..i * d + shard.col0 + shard.cols];
            let (scores, page) = (&mut scratch.scores, &mut scratch.page);
            attend_heads(qs, kv, heads.clone(), dh, start + i, scores, page, slice.row(i));
        }
    });
}

/// [`attend`] on the calling thread, in `scratch`.
#[allow(clippy::too_many_arguments)] // as `attend`
fn attend_serial<P: KvPages + ?Sized>(
    q: &[f32],
    kv: &P,
    start: usize,
    m: usize,
    d: usize,
    n_heads: usize,
    dh: usize,
    scratch: &mut AttnScratch,
    ctx: &mut [f32],
) {
    let Some(last) = (start + m).checked_sub(1) else { return };
    scratch.fit(n_heads, last);
    for (i, (qr, out)) in q.chunks_exact(d).zip(ctx.chunks_exact_mut(d)).take(m).enumerate() {
        attend_heads(qr, kv, 0..n_heads, dh, start + i, &mut scratch.scores, &mut scratch.page, out);
    }
}

/// One layer of a stacked decode step's attention: for each item
/// `(seq, pos)` (one new token per sequence, whose query, key and value
/// rows are row `r` of `q`/`k`/`v`), append the K/V row at `pos`, then
/// attend the query through the sequence's page-walk view
/// ([`KvArena::try_view`]) into row `r` of `ctx`. Rows are the arena's
/// `d` floats wide. One `scratch` serves every item, so a warm stacked
/// loop allocates nothing below the sharding floor.
///
/// Stops at the first failing item with its [`KvError`].
#[allow(clippy::too_many_arguments)] // arena/layer/items + q/k/v + scratch/out
pub fn try_attend_stacked(
    arena: &mut KvArena,
    layer: usize,
    items: impl IntoIterator<Item = (SeqId, usize)>,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    scratch: &mut AttnScratch,
    ctx: &mut [f32],
) -> Result<(), KvError> {
    let d = arena.shape().0;
    for (r, (seq, pos)) in items.into_iter().enumerate() {
        let row = r * d..(r + 1) * d;
        let kv = (&k[row.clone()], &v[row.clone()]);
        try_attend_item(arena, layer, seq, pos, kv, &q[row.clone()], scratch, &mut ctx[row])?;
    }
    Ok(())
}

/// One layer of attention for one item of a paged forward: append the
/// item's K/V rows `k`/`v` (absolute positions `start..start + m`) to
/// `seq`'s cache, then attend the query rows `q` — the item's last
/// `q.len() / d` rows, each at its absolute position — through the
/// sequence's page-walk view over all `start + m` rows into `ctx`.
///
/// Every new row is appended, so the cache is the same whichever rows
/// query it; each query row reads only positions up to its own
/// ([`attend`]), so its context does not depend on the rows left out.
#[allow(clippy::too_many_arguments)] // arena/layer/item + k/v + q + scratch/out
pub(crate) fn try_attend_item(
    arena: &mut KvArena,
    layer: usize,
    seq: SeqId,
    start: usize,
    (k, v): (&[f32], &[f32]),
    q: &[f32],
    scratch: &mut AttnScratch,
    ctx: &mut [f32],
) -> Result<(), KvError> {
    let (d, n_heads) = arena.shape();
    let (m, n) = (k.len() / d, q.len() / d);
    arena.try_append(seq, layer, start, k, v)?;
    let view = arena.try_view(seq, layer, start + m)?;
    attend(q, &view, start + m - n, n, d, n_heads, d / n_heads, scratch, ctx);
    Ok(())
}

/// Exact attention probabilities for one head (used by the KV-quantized
/// eval path, which recomputes scores through a GEMM engine).
pub fn causal_softmax(scores: &mut [f32], s: usize) {
    for i in 0..s {
        for j in (i + 1)..s {
            scores[i * s + j] = f32::NEG_INFINITY;
        }
    }
    softmax_rows(scores, s, s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn causality_holds() {
        // Changing a future token must not change earlier outputs.
        let mut rng = StdRng::seed_from_u64(3);
        let (s, d, h) = (6, 8, 2);
        let mut attn = MultiHeadAttention::new(d, h, &mut rng);
        let x: Vec<f32> = (0..s * d).map(|_| rng.random_range(-1.0..1.0f32)).collect();
        let y1 = attn.forward(&x, s);
        let mut x2 = x.clone();
        for e in 0..d {
            x2[(s - 1) * d + e] += 1.0; // perturb the last position
        }
        let y2 = attn.forward(&x2, s);
        for i in 0..(s - 1) * d {
            assert!((y1[i] - y2[i]).abs() < 1e-6, "position {}", i / d);
        }
        assert!((0..d).any(|e| (y1[(s - 1) * d + e] - y2[(s - 1) * d + e]).abs() > 1e-6));
    }

    #[test]
    fn forward_infer_matches_forward() {
        let mut rng = StdRng::seed_from_u64(5);
        let (s, d, h) = (5, 12, 3);
        let mut attn = MultiHeadAttention::new(d, h, &mut rng);
        let x: Vec<f32> = (0..s * d).map(|_| rng.random_range(-1.0..1.0f32)).collect();
        let y1 = attn.forward(&x, s);
        let y2 = attn.forward_infer(&x, s);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(11);
        let (s, d, h) = (4, 6, 2);
        let mut attn = MultiHeadAttention::new(d, h, &mut rng);
        let x: Vec<f32> = (0..s * d).map(|_| rng.random_range(-1.0..1.0f32)).collect();
        let y = attn.forward(&x, s);
        let dx = attn.backward(&y); // loss = Σ y²/2
        let h_step = 1e-3;
        for idx in (0..x.len()).step_by(5) {
            let mut xp = x.clone();
            xp[idx] += h_step;
            let lp: f32 = attn.forward_infer(&xp, s).iter().map(|v| v * v).sum::<f32>() / 2.0;
            xp[idx] -= 2.0 * h_step;
            let lm: f32 = attn.forward_infer(&xp, s).iter().map(|v| v * v).sum::<f32>() / 2.0;
            let num = (lp - lm) / (2.0 * h_step);
            assert!(
                (num - dx[idx]).abs() < 3e-2 * (1.0 + num.abs()),
                "idx {idx}: numeric {num} vs analytic {}",
                dx[idx]
            );
        }
    }

    #[test]
    fn incremental_rows_match_full_recompute_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(23);
        let (s, d, nh, dh) = (9, 16, 4, 4);
        let gen = |rng: &mut StdRng| -> Vec<f32> {
            (0..s * d).map(|_| rng.random_range(-1.0..1.0f32)).collect()
        };
        let (q, k, v) = (gen(&mut rng), gen(&mut rng), gen(&mut rng));
        let full = attention_context(&q, &k, &v, s, d, nh, dh);
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // One token at a time against the growing cache — the decode
        // shape: row p computed with width p+1 must equal row p of the
        // full s-wide recompute (trailing -inf softmaxes to +0.0).
        for p in 0..s {
            let row = attention_context_rows(
                &q[p * d..(p + 1) * d],
                &k[..(p + 1) * d],
                &v[..(p + 1) * d],
                p,
                1,
                d,
                nh,
                dh,
            );
            assert_eq!(bits(&row), bits(&full[p * d..(p + 1) * d]), "decode row {p}");
        }
        // Every prefill/decode split, serial and sharded at 1/2/4 workers.
        for start in 0..s {
            let m = s - start;
            let rows = attention_context_rows(&q[start * d..], &k, &v, start, m, d, nh, dh);
            assert_eq!(bits(&rows), bits(&full[start * d..]), "split at {start}");
            for workers in [1, 2, 4] {
                let sharded = axcore_parallel::with_threads(workers, || {
                    attention_context_rows_sharded(&q[start * d..], &k, &v, start, m, d, nh, dh)
                });
                assert_eq!(bits(&sharded), bits(&rows), "split {start}, {workers} workers");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Attention through the page-walk view equals attention over the
        /// same rows copied out by `try_gather`, bit for bit: committed
        /// pages, a partly filled tail page and an uncommitted hot window,
        /// at every page size, prefill/decode split and worker count.
        #[test]
        fn view_attention_equals_gathered_rows(
            block_pick in 0usize..3, dh_pick in 0usize..4, len in 1usize..40, m_pick in 0usize..3,
            seed in 0u64..1_000_000
        ) {
            let block = [1, 3, 16][block_pick];
            let dh = [2, 3, 4, 16][dh_pick];
            let m = [1, 2, 7][m_pick].min(len);
            let (nh, nl) = (3, 2);
            let d = nh * dh;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut gen =
                |n: usize| -> Vec<f32> { (0..n).map(|_| rng.random_range(-2.0..2.0f32)).collect() };
            let (k, v, q) = (gen(len * d), gen(len * d), gen(m * d));
            let cfg = crate::kvcache::KvPageConfig {
                block,
                verify: Some(axcore::reliability::VerifyPolicy::Full),
                ..Default::default()
            };
            let mut arena = KvArena::new(nl, d, nh, cfg);
            let seq = arena.try_join().expect("join");
            let committed = len - m;
            for layer in 0..nl {
                let (kc, vc) = (&k[..committed * d], &v[..committed * d]);
                arena.try_append(seq, layer, 0, kc, vc).expect("append");
            }
            arena.try_commit(seq, committed).expect("commit");
            for layer in 0..nl {
                let (kh, vh) = (&k[committed * d..], &v[committed * d..]);
                arena.try_append(seq, layer, committed, kh, vh).expect("hot append");
            }
            let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let (mut kf, mut vf) = (Vec::new(), Vec::new());
            arena.try_gather(seq, 1, len, &mut kf, &mut vf).expect("gather");
            let want = attention_context_rows(&q, &kf, &vf, committed, m, d, nh, dh);
            for workers in [1, 2, 4] {
                let mut ctx = vec![0f32; m * d];
                let view = arena.try_view(seq, 1, len).expect("view");
                axcore_parallel::with_threads(workers, || {
                    let mut scratch = AttnScratch::default();
                    attend(&q, &view, committed, m, d, nh, dh, &mut scratch, &mut ctx);
                });
                prop_assert_eq!(bits(&ctx), bits(&want), "block {} dh {} x{}", block, dh, workers);
            }
        }
    }

    #[test]
    fn sharded_view_attention_matches_serial_rows() {
        // 8 rows at 300 positions, d = 64: past the sharding floor, so
        // 2 and 4 workers split the heads over the pool.
        let (nh, dh, len, m) = (4, 16, 300, 8);
        let d = nh * dh;
        let mut rng = StdRng::seed_from_u64(77);
        let mut gen =
            |n: usize| -> Vec<f32> { (0..n).map(|_| rng.random_range(-2.0..2.0f32)).collect() };
        let (k, v, q) = (gen(len * d), gen(len * d), gen(m * d));
        let mut arena = KvArena::new(1, d, nh, crate::kvcache::KvPageConfig::default());
        let seq = arena.try_join().expect("join");
        arena.try_append(seq, 0, 0, &k, &v).expect("append");
        arena.try_commit(seq, len).expect("commit");
        let want = attention_context_rows(&q, &k, &v, len - m, m, d, nh, dh);
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for workers in [1, 2, 4] {
            let mut ctx = vec![0f32; m * d];
            let view = arena.try_view(seq, 0, len).expect("view");
            axcore_parallel::with_threads(workers, || {
                attend(&q, &view, len - m, m, d, nh, dh, &mut AttnScratch::default(), &mut ctx);
            });
            assert_eq!(bits(&ctx), bits(&want), "{workers} workers");
        }
    }

    #[test]
    fn attention_rows_are_convex_combinations() {
        // With V = identity-ish rows, outputs stay within the convex hull.
        let (s, d, h, dh) = (4, 4, 1, 4);
        let q = vec![0f32; s * d]; // uniform attention
        let k = vec![0f32; s * d];
        let mut v = vec![0f32; s * d];
        for i in 0..s {
            v[i * d + i % d] = 1.0;
        }
        let ctx = attention_context(&q, &k, &v, s, d, h, dh);
        // Row i is the average of v rows 0..=i.
        assert_eq!(ctx[0], 1.0);
        assert!((ctx[1] - 0.0).abs() < 1e-6);
        assert!((ctx[d] - 0.5).abs() < 1e-6);
        assert!((ctx[d + 1] - 0.5).abs() < 1e-6);
    }
}
