//! Causal attention for one query row, read straight from paged K/V:
//! scores over the causal prefix, a softmax, then P·V, for every head of
//! a head range in one pass.
//!
//! A page holds f32 rows ([`KvPage::Rows`]) or 4-bit codes and FP16
//! scales ([`KvPage::Codes`], a sealed page; see [`CodePage`]). A code
//! page's words are rebuilt as `table[code] × scale`, which is exactly
//! the f32 word the page would hold had it stayed f32, so the kind of a
//! page never changes a bit.
//!
//! Two bodies compute the same bits:
//!
//! * the **portable** body (`attend_row_portable`) takes one head of any
//!   width `dh ≥ 1` and reads each word where it lies; it is the
//!   fallback and the reference;
//! * the **vector** body takes `dh` a multiple of 8 and every head of
//!   the range in one pass: each page's K and V rows are read (a code
//!   page's words rebuilt in registers as they are read) once per query
//!   row, the heads' scores come from them eight positions at a time,
//!   and the heads' P·V chains run side by side, one 8-lane column group
//!   each (16-lane with AVX-512, where [`fold_lanes`](crate::fold_lanes)
//!   is 16 and `dh` a multiple of 16; lanes never mix, and a 16-lane dot
//!   product splits into the two 8-lane chunks the dot adds in order).
//!   Separate multiplies and adds (no FMA) and the same polynomial
//!   `exp`.
//!
//! Every floating-point operation of a head has one fixed order, so the
//! bodies agree bit for bit on any host:
//!
//! * **Dot.** Element `e` of `q·k` lands in lane `e % 8`: lane `l` is
//!   `q[l]·k[l]`, then adds `q[l + 8c]·k[l + 8c]` for `c = 1, 2, …`
//!   (lanes past a short `dh` stay `+0.0`). The lanes reduce as
//!   `((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))`, and the
//!   score is that times `1/√dh`.
//! * **Softmax.** Position `j`'s score lands in lane `j % 8` for the
//!   max and for the sum of `exp(score − max)`; both reduce with the
//!   dot's tree. Lanes follow the absolute position, never the page, so
//!   page boundaries cannot change a bit.
//! * **P·V.** The unnormalised weights multiply V rows one position at
//!   a time in absolute position order; each output element is divided
//!   by the sum at the end. Heads never share a chain, so running them
//!   side by side changes no bit either.
//!
//! The vector body reads a code page in registers when the host has F16C,
//! its rows are whole 16-code word pairs and the head range splits no K
//! group or 8-channel word; a call with any other code page in its
//! prefix runs the portable body.
//!
//! The scratch is one score row per head, which holds the scores, then
//! the weights and their sum, plus a buffer for a code page's K scales
//! as f32, grown on first use.

use crate::codepage::{f16_value, CodeLayout, CodePage, Side, SideReads};
#[cfg(target_arch = "x86_64")]
use crate::codepage::{avx2_codes, avx512_codes, CodeTable, WideTable};
use std::ops::Range;

/// Where an attention call reads its cached K and V rows: consecutive
/// positions in pages of [`block`](KvPages::block) rows.
pub trait KvPages {
    /// Positions per page (at least 1). Page `idx` holds positions
    /// `idx * block ..`; only the last page a call reads may be partial.
    fn block(&self) -> usize;
    /// Floats from the start of one f32 row to the start of the next.
    fn stride(&self) -> usize;
    /// Page `idx`'s K and V rows of the layer read.
    fn page(&self, idx: usize) -> KvPage<'_>;
}

/// One page of K and V rows.
#[derive(Debug, Clone, Copy)]
pub enum KvPage<'a> {
    /// f32 K and V rows: position `idx * block + r` starts at float
    /// `r * stride` of each slice.
    Rows(&'a [f32], &'a [f32]),
    /// A sealed page of codes and scales.
    Codes(CodePage<'a>),
}

/// Contiguous K/V rows (`positions × stride`), read as one page.
#[derive(Debug, Clone, Copy)]
pub struct KvRows<'a> {
    k: &'a [f32],
    v: &'a [f32],
    stride: usize,
}

impl<'a> KvRows<'a> {
    /// K and V rows `stride` floats apart.
    pub fn new(k: &'a [f32], v: &'a [f32], stride: usize) -> KvRows<'a> {
        KvRows { k, v, stride }
    }
}

impl KvPages for KvRows<'_> {
    fn block(&self) -> usize {
        usize::MAX
    }

    fn stride(&self) -> usize {
        self.stride
    }

    fn page(&self, _idx: usize) -> KvPage<'_> {
        KvPage::Rows(self.k, self.v)
    }
}

/// `exp(x)` for softmax weights, `x ≤ 0`: Cephes' degree-5 polynomial
/// after a Cody–Waite reduction by `ln 2`, evaluated with separate
/// multiplies and adds, exactly as the AVX2 body evaluates it per lane.
/// `x` is clamped to `[ln f32::MIN_POSITIVE, 0]` (NaN to the low end),
/// so the result is never 0 and `exp(0)` is exactly 1.
pub(crate) fn exp(x: f32) -> f32 {
    let x = lane_min(lane_max(x, EXP_LO), 0.0);
    let fx = (x * LOG2E + 0.5).floor();
    let r = (x - fx * LN2_HI) - fx * LN2_LO;
    let z = r * r;
    let mut y = EXP_POLY[0];
    for &c in &EXP_POLY[1..] {
        y = y * r + c;
    }
    let y = (y * z + r) + 1.0;
    // `fx` is an integer in [-126, 0], so the scale is a normal power of 2.
    y * f32::from_bits(((fx as i32 + 127) as u32) << 23)
}

const EXP_LO: f32 = -87.336_54;
const LOG2E: f32 = std::f32::consts::LOG2_E;
/// `ln 2` split so that `fx * LN2_HI` is exact for every `fx` the clamp
/// allows.
const LN2_HI: f32 = 0.693_359_4;
const LN2_LO: f32 = -2.121_944_4e-4;
const EXP_POLY: [f32; 6] = [
    1.987_569_1e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    0.166_666_65,
    0.5,
];

/// `_mm256_max_ps` on one lane: the first operand when it is greater,
/// else the second (so a NaN first operand yields the second).
fn lane_max(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

/// `_mm256_min_ps` on one lane.
fn lane_min(a: f32, b: f32) -> f32 {
    if a < b {
        a
    } else {
        b
    }
}

/// The lane reduction of every sum, `((l0 + l1) + (l2 + l3)) + ((l4 +
/// l5) + (l6 + l7))`: what two `hadd` rounds and a cross-half add
/// compute.
fn tree_sum(l: [f32; 8]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// `q · k` in the fixed 8-lane order (module docs), `k(e)` giving
/// element `e` of the key.
fn dot(q: &[f32], k: impl Fn(usize) -> f32) -> f32 {
    let mut lanes = [0f32; 8];
    for (e, &a) in q.iter().enumerate() {
        let l = e % 8;
        lanes[l] = if e < 8 { a * k(e) } else { lanes[l] + a * k(e) };
    }
    tree_sum(lanes)
}

/// Fold `xs` into the max lanes by index `% 8` and reduce with the sum's
/// tree shape. The vector body passes the lanes of its whole 8-chunks
/// and the tail after them; the portable body passes `-∞` lanes and the
/// whole row.
fn max_lanes(mut lanes: [f32; 8], xs: &[f32]) -> f32 {
    for (j, &x) in xs.iter().enumerate() {
        lanes[j % 8] = lane_max(lanes[j % 8], x);
    }
    lane_max(
        lane_max(lane_max(lanes[0], lanes[1]), lane_max(lanes[2], lanes[3])),
        lane_max(lane_max(lanes[4], lanes[5]), lane_max(lanes[6], lanes[7])),
    )
}

/// Replace each score in `xs` by its weight `exp(x − max)`, fold the
/// weights into the sum lanes by index `% 8`, and reduce (`lanes` as in
/// [`max_lanes`], starting from `+0.0`).
fn exp_sum_lanes(mut lanes: [f32; 8], xs: &mut [f32], max: f32) -> f32 {
    for (j, x) in xs.iter_mut().enumerate() {
        *x = exp(*x - max);
        lanes[j % 8] += *x;
    }
    tree_sum(lanes)
}

/// The causal prefix `0..n` page by page, for the row columns `cols`:
/// each page's first position, the page and the number of rows read. An
/// f32 page's slices start at column `cols.start` of its first row and
/// end right after column `cols.end` of its last row read: the bounds
/// both bodies rely on, checked here by the slicing. A code page is
/// checked to hold the rows and columns read.
///
/// # Panics
///
/// Panics if a page is too short for its rows or the geometry
/// overflows.
fn prefix_pages<'a, P: KvPages + ?Sized>(
    kv: &'a P,
    cols: Range<usize>,
    n: usize,
) -> impl Iterator<Item = (usize, KvPage<'a>, usize)> + 'a {
    let (block, stride) = (kv.block(), kv.stride());
    let (c0, c1) = (cols.start, cols.end);
    let mut p0 = 0;
    std::iter::from_fn(move || {
        if p0 >= n {
            return None;
        }
        let rows = (n - p0).min(block);
        let idx = p0 / block;
        let page = match kv.page(idx) {
            KvPage::Rows(k, v) => {
                let end = (rows - 1)
                    .checked_mul(stride)
                    .and_then(|x| x.checked_add(c1))
                    .unwrap_or_else(|| panic!("{rows} rows at stride {stride} overflow"));
                assert!(
                    end <= k.len() && end <= v.len(),
                    "page {idx} holds {}/{} K/V floats; {rows} rows of columns {c0}..{c1} need {end}",
                    k.len(),
                    v.len()
                );
                KvPage::Rows(&k[c0..end], &v[c0..end])
            }
            KvPage::Codes(c) => {
                let l = c.layout();
                assert!(
                    rows <= l.block() && c1 <= l.d(),
                    "code page {idx} of {} positions × {} channels; {rows} rows of columns {c0}..{c1} need more",
                    l.block(),
                    l.d()
                );
                KvPage::Codes(c)
            }
        };
        let item = (p0, page, rows);
        p0 += rows;
        Some(item)
    })
}

/// The argument checks of [`attend_row_portable`]; returns the head width.
fn check_row<P: KvPages + ?Sized>(
    q: &[f32],
    kv: &P,
    col: usize,
    pos: usize,
    scores: &[f32],
    out: &[f32],
) -> usize {
    let dh = q.len();
    assert!(dh >= 1, "empty query row");
    assert_eq!(out.len(), dh, "output row of {} floats for a {dh}-wide head", out.len());
    assert!(
        scores.len() > pos,
        "score row of {} floats for {} positions",
        scores.len(),
        pos.saturating_add(1)
    );
    assert!(kv.block() >= 1, "KV pages of 0 rows");
    assert!(
        col.checked_add(dh).is_some_and(|end| end <= kv.stride()),
        "head column {col}..+{dh} outside rows of stride {}",
        kv.stride()
    );
    dh
}

/// Floats of score scratch [`attend_heads`] needs for `heads` heads at
/// query position `pos`: one row of `pos + 2` per head (the weights of
/// positions `0..=pos`, then their sum).
pub fn score_rows_len(heads: usize, pos: usize) -> usize {
    heads.saturating_mul(pos.saturating_add(2))
}

/// Causal attention of one query row at absolute position `pos` for the
/// heads `heads` (each `dh` wide): for each head `h`,
/// `softmax(q_h · Kᵀ / √dh) · V` over positions `0..=pos`, reading the
/// head's K/V elements at columns `h·dh ..` of each row of `kv`. `q` and
/// `out` hold the range's `heads.len() × dh` elements, head after head.
/// `scores` is scratch of at least [`score_rows_len`] floats; `page` is
/// scratch for a code page's K scales, grown on first use (a warm one
/// never allocates, and calls over f32 pages never touch it).
///
/// Each head's output is bit for bit the per-head portable body's over
/// the same rows, whatever the kind of each page. Runs the vector body
/// when `dh` is a multiple of 8, the CPU has AVX2, the vector kernels
/// passed [`self_test`](crate::self_test) and every code page of the
/// prefix reads in registers (module docs), 16 lanes wide where
/// [`fold_lanes`](crate::fold_lanes) is 16 and `dh` a multiple of 16;
/// the portable body head by head otherwise.
///
/// # Panics
///
/// Panics if the range or `q` is empty, `q`, `out` or `scores` is too
/// short, the heads' columns do not fit in a row, or a page is too short
/// for the rows the prefix reads from it (the bounds the vector body's
/// raw loads rely on).
#[allow(clippy::too_many_arguments)] // query/pages/heads + 2 dims + 2 scratch + out
pub fn attend_heads<P: KvPages + ?Sized>(
    q: &[f32],
    kv: &P,
    heads: Range<usize>,
    dh: usize,
    pos: usize,
    scores: &mut [f32],
    page: &mut Vec<f32>,
    out: &mut [f32],
) {
    let nh = heads.len();
    let w = nh.checked_mul(dh).unwrap_or_else(|| panic!("{nh} heads of {dh} overflow"));
    assert!(w >= 1, "empty head range {heads:?} of width {dh}");
    assert_eq!(q.len(), w, "query of {} floats for {nh} heads of {dh}", q.len());
    assert_eq!(out.len(), w, "output row of {} floats for {nh} heads of {dh}", out.len());
    assert!(
        scores.len() >= score_rows_len(nh, pos),
        "score rows of {} floats for {nh} heads at {} positions",
        scores.len(),
        pos.saturating_add(1)
    );
    assert!(kv.block() >= 1, "KV pages of 0 rows");
    assert!(
        heads.end.checked_mul(dh).is_some_and(|end| end <= kv.stride()),
        "heads {heads:?} of {dh} outside rows of stride {}",
        kv.stride()
    );
    #[cfg(target_arch = "x86_64")]
    if dh.is_multiple_of(8) && crate::avx2_available() && crate::self_test() {
        // SAFETY: AVX2 confirmed at runtime (AVX-512F too where `wide`),
        // `dh` is a multiple of 8 and the checks above passed —
        // `attend_heads_avx2`'s contract.
        let wide = crate::fold_lanes() == 16;
        if unsafe { attend_heads_avx2(q, kv, (heads.start, nh, dh), pos, scores, page, out, wide) } {
            return;
        }
    }
    for (j, (qh, oh)) in q.chunks_exact(dh).zip(out.chunks_exact_mut(dh)).enumerate() {
        attend_row_portable(qh, kv, (heads.start + j) * dh, pos, scores, oh);
    }
}

/// The portable body: one head's causal attention for the query row at
/// absolute position `pos`, reading the head's K/V elements at column
/// `col` of each row of `kv`, any `dh ≥ 1`. `q` and `out` are the head's
/// `dh` elements; `scores` is scratch of at least `pos + 1` floats. The
/// reference the AVX2 body is tested against, operation for operation.
///
/// # Panics
///
/// Panics if `q` is empty, `out.len() != q.len()`, `scores` is shorter
/// than `pos + 1`, the head's columns do not fit in a row, or a page is
/// too short for the rows the prefix reads from it.
pub(crate) fn attend_row_portable<P: KvPages + ?Sized>(
    q: &[f32],
    kv: &P,
    col: usize,
    pos: usize,
    scores: &mut [f32],
    out: &mut [f32],
) {
    let dh = check_row(q, kv, col, pos, scores, out);
    let (scale, stride) = (1.0 / (dh as f32).sqrt(), kv.stride());
    let s = &mut scores[..=pos];
    for (p0, page, rows) in prefix_pages(kv, col..col + dh, s.len()) {
        for (r, x) in s[p0..p0 + rows].iter_mut().enumerate() {
            *x = match page {
                KvPage::Rows(k, _) => dot(q, |e| k[r * stride + e]),
                KvPage::Codes(c) => dot(q, |e| c.k(r, col + e)),
            } * scale;
        }
    }
    let max = max_lanes([f32::NEG_INFINITY; 8], s);
    let total = exp_sum_lanes([0.0; 8], s, max);
    out.fill(0.0);
    for (p0, page, rows) in prefix_pages(kv, col..col + dh, s.len()) {
        for (r, &w) in s[p0..p0 + rows].iter().enumerate() {
            for (e, o) in out.iter_mut().enumerate() {
                let x = match page {
                    KvPage::Rows(_, v) => v[r * stride + e],
                    KvPage::Codes(c) => c.v(r, col + e),
                };
                *o += w * x;
            }
        }
    }
    for o in out.iter_mut() {
        *o /= total;
    }
}

/// The AVX2 body of [`attend_heads`]: `nh` heads of `dh` from head `h0`;
/// with `wide`, heads 16 channels wide are read 16 lanes at a time by the
/// AVX-512 kernels, which give the same bits.
/// One walk over the pages scores every head, then each head's row gets
/// its max, its weights and their sum (stored after the weights), and a
/// second walk runs every head's P·V side by side. A code page's words
/// are rebuilt in registers as they are read (its K scales converted
/// into `page` first). Returns `false`, with `scores` and `out` left
/// unfinished, at the first code page whose K or V the registers cannot
/// read ([`code_reads`]); the caller then runs the portable body.
///
/// # Safety
///
/// Caller must guarantee AVX2 is available (and AVX-512F with `wide`),
/// `dh` is a multiple of 8 and [`attend_heads`]' checks passed for the
/// arguments.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)] // as `attend_heads`, with the range split and the body
unsafe fn attend_heads_avx2<P: KvPages + ?Sized>(
    q: &[f32],
    kv: &P,
    (h0, nh, dh): (usize, usize, usize),
    pos: usize,
    scores: &mut [f32],
    page: &mut Vec<f32>,
    out: &mut [f32],
    wide: bool,
) -> bool {
    // 16-lane reads need heads of whole 16-channel chunks.
    let wide = wide && dh.is_multiple_of(16);
    let (w, n, c0) = (nh * dh, pos + 1, h0 * dh);
    let (scale, stride) = (1.0 / (dh as f32).sqrt(), kv.stride());
    // Head `j`'s row: the weights of positions 0..n, then their sum.
    let rs = n + 1;
    for (p0, pg, rows) in prefix_pages(kv, c0..c0 + w, n) {
        let head_scores = |j: usize| j * rs + p0..j * rs + p0 + rows;
        let KvPage::Rows(k, _) = pg else {
            // Both halves of a code page must read in registers; the P·V
            // walk below takes the V half.
            let (Some(kr), Some(_)) = (code_reads(&pg, Side::K, c0, w), code_reads(&pg, Side::V, c0, w)) else {
                return false;
            };
            // The range's K scales of every row as f32, then each head's
            // rows rebuilt in registers.
            let (per_row, g0, ng) = (kr.d / kr.group, c0 / kr.group, w / kr.group);
            let ks = grown(page, rows * ng);
            avx2_k_scales(kr.halves, (per_row, g0, ng), rows, ks);
            for (j, qh) in q.chunks_exact(dh).enumerate() {
                let (hs, col, s) = ((&ks[j * dh / kr.group..], ng), c0 + j * dh, &mut scores[head_scores(j)]);
                if wide && kr.group.is_multiple_of(16) {
                    avx512_code_scores(qh, &kr, col, hs, scale, s);
                } else {
                    avx2_code_scores(qh, &kr, col, hs, scale, s);
                }
            }
            continue;
        };
        for (j, qh) in q.chunks_exact(dh).enumerate() {
            // `k` holds `(rows - 1) * stride + w` floats from the range's
            // first column, so head `j`'s rows are inside it.
            if wide {
                avx512_scores(qh, &k[j * dh..], stride, scale, &mut scores[head_scores(j)]);
            } else {
                avx2_scores(qh, &k[j * dh..], stride, scale, &mut scores[head_scores(j)]);
            }
        }
    }
    for row in scores[..nh * rs].chunks_exact_mut(rs) {
        let (s, total) = row.split_at_mut(n);
        let max = avx2_max(s);
        total[0] = avx2_exp_sum(s, max);
    }
    out.fill(0.0);
    for (p0, pg, rows) in prefix_pages(kv, c0..c0 + w, n) {
        let KvPage::Rows(_, v) = pg else {
            let Some(vr) = code_reads(&pg, Side::V, c0, w) else { return false };
            avx2_pv_codes(&scores[..nh * rs], rs, p0, rows, dh, &vr, c0, out, wide);
            continue;
        };
        // `v` holds `(rows - 1) * stride + w` floats, each head's weights
        // `p0 .. p0 + rows` lie inside its score row, and `out` holds `w`.
        avx2_pv_heads(&scores[..nh * rs], rs, p0, rows, dh, v, stride, out, wide);
    }
    for (j, o) in out.chunks_exact_mut(dh).enumerate() {
        let total = scores[j * rs + n];
        for x in o {
            *x /= total;
        }
    }
    true
}

/// Scores of `out.len()` consecutive rows, eight rows per step: each
/// row's 8-lane dot accumulates in its own register, then two `hadd`
/// rounds and a cross-half add reduce eight rows at once, leaving row
/// `j`'s [`tree_sum`] in lane `j`. Rows past the end of a short step
/// keep zero accumulators and their lanes are not stored.
///
/// # Safety
///
/// Caller must guarantee AVX2 is available, `q.len()` is a positive
/// multiple of 8 and `k.len() >= (out.len() - 1) * stride + q.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_scores(q: &[f32], k: &[f32], stride: usize, scale: f32, out: &mut [f32]) {
    use std::arch::x86_64::*;
    let dh = q.len();
    let (qp, kp) = (q.as_ptr(), k.as_ptr());
    let sc = _mm256_set1_ps(scale);
    for (g, step) in out.chunks_mut(8).enumerate() {
        let mut acc = [_mm256_setzero_ps(); 8];
        for (j, a) in acc.iter_mut().enumerate().take(step.len()) {
            let row = kp.add((g * 8 + j) * stride);
            let mut x = _mm256_mul_ps(_mm256_loadu_ps(qp), _mm256_loadu_ps(row));
            for c in (8..dh).step_by(8) {
                let p = _mm256_mul_ps(_mm256_loadu_ps(qp.add(c)), _mm256_loadu_ps(row.add(c)));
                x = _mm256_add_ps(x, p);
            }
            *a = x;
        }
        avx2_store_scores(&acc, sc, step);
    }
}

/// [`avx2_scores`] 16 channels at a time: each 16-channel product splits
/// into the two 8-lane chunks the 8-lane dot adds in order (low half,
/// then high half), so each row's lanes, and its score, are
/// [`avx2_scores`]' bits.
///
/// # Safety
///
/// Caller must guarantee AVX-512F is available, `q.len()` is a positive
/// multiple of 16 and `k.len() >= (out.len() - 1) * stride + q.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2")]
unsafe fn avx512_scores(q: &[f32], k: &[f32], stride: usize, scale: f32, out: &mut [f32]) {
    use std::arch::x86_64::*;
    let chunks = q.len() / 16;
    let (qp, kp) = (q.as_ptr(), k.as_ptr());
    let sc = _mm256_set1_ps(scale);
    for (g, step) in out.chunks_mut(8).enumerate() {
        let mut acc = [_mm256_setzero_ps(); 8];
        for (j, a) in acc.iter_mut().enumerate().take(step.len()) {
            let row = kp.add((g * 8 + j) * stride);
            let mut x = _mm256_setzero_ps();
            for c in 0..chunks {
                let p = _mm512_mul_ps(_mm512_loadu_ps(qp.add(16 * c)), _mm512_loadu_ps(row.add(16 * c)));
                x = avx512_add_halves(x, p, c == 0);
            }
            *a = x;
        }
        avx2_store_scores(&acc, sc, step);
    }
}

/// The 8-lane dot's next two chunks from a 16-lane product `p`: `lo +
/// hi` for the first, else `(x + lo) + hi`.
///
/// # Safety
///
/// Caller must guarantee AVX-512F is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2")]
#[inline]
unsafe fn avx512_add_halves(
    x: std::arch::x86_64::__m256,
    p: std::arch::x86_64::__m512,
    first: bool,
) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let lo = _mm512_castps512_ps256(p);
    let hi = _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(_mm512_castps_pd(p)));
    if first {
        _mm256_add_ps(lo, hi)
    } else {
        _mm256_add_ps(_mm256_add_ps(x, lo), hi)
    }
}

/// Reduce eight rows' dot lanes with two `hadd` rounds and a cross-half
/// add, leaving row `j`'s [`tree_sum`] in lane `j`, scale them and store
/// the first `step.len()` (at most 8).
///
/// # Safety
///
/// Caller must guarantee AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn avx2_store_scores(acc: &[std::arch::x86_64::__m256; 8], sc: std::arch::x86_64::__m256, step: &mut [f32]) {
    use std::arch::x86_64::*;
    let h01 = _mm256_hadd_ps(acc[0], acc[1]);
    let h23 = _mm256_hadd_ps(acc[2], acc[3]);
    let h45 = _mm256_hadd_ps(acc[4], acc[5]);
    let h67 = _mm256_hadd_ps(acc[6], acc[7]);
    // Lanes: rows 0–3's (l0+l1)+(l2+l3), then their (l4+l5)+(l6+l7);
    // likewise rows 4–7.
    let g0 = _mm256_hadd_ps(h01, h23);
    let g1 = _mm256_hadd_ps(h45, h67);
    let lo = _mm256_permute2f128_ps::<0x20>(g0, g1);
    let hi = _mm256_permute2f128_ps::<0x31>(g0, g1);
    let dots = _mm256_mul_ps(_mm256_add_ps(lo, hi), sc);
    if step.len() == 8 {
        _mm256_storeu_ps(step.as_mut_ptr(), dots);
    } else {
        let mut lanes = [0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), dots);
        let n = step.len();
        step.copy_from_slice(&lanes[..n]);
    }
}

/// [`avx2_scores`] over one code page's K codes: rows `0..out.len()` of
/// head columns `col..col + q.len()`, each 8-channel chunk rebuilt in
/// registers as `table[code] × scale` ([`avx2_codes`]) and multiplied by
/// the query as an f32 row's chunk would be. `ks` holds the head's K
/// scales as f32, row `r`'s groups from `ks[r * ks_stride]`.
///
/// # Safety
///
/// Caller must guarantee AVX2 is available, `q.len()` is a positive
/// multiple of 8, `col` a multiple of `kr.group` with `col + q.len() ≤
/// kr.d`, `kr` holds `out.len()` rows, and `ks` holds
/// `(out.len() - 1) * ks_stride + q.len() / kr.group` floats.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_code_scores(
    q: &[f32],
    kr: &SideReads,
    col: usize,
    (ks, ks_stride): (&[f32], usize),
    scale: f32,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let (chunks, per_group) = (q.len() / 8, kr.group / 8);
    let table = CodeTable::load(kr.table);
    let (qp, sp) = (q.as_ptr(), ks.as_ptr());
    let sc = _mm256_set1_ps(scale);
    for (g, step) in out.chunks_mut(8).enumerate() {
        let mut acc = [_mm256_setzero_ps(); 8];
        for (j, a) in acc.iter_mut().enumerate().take(step.len()) {
            let r = g * 8 + j;
            let scales = sp.add(r * ks_stride);
            let (mut s, mut left) = (_mm256_set1_ps(*scales), per_group);
            let mut x = _mm256_setzero_ps();
            for c in 0..chunks {
                if left == 0 {
                    s = _mm256_set1_ps(*scales.add(c / per_group));
                    left = per_group;
                }
                left -= 1;
                let ch = col + 8 * c;
                let k = _mm256_mul_ps(avx2_codes(&table, kr.pair(r, ch), ch / 8 % 2), s);
                let p = _mm256_mul_ps(_mm256_loadu_ps(qp.add(8 * c)), k);
                x = if c == 0 { p } else { _mm256_add_ps(x, p) };
            }
            *a = x;
        }
        avx2_store_scores(&acc, sc, step);
    }
}

/// [`avx2_code_scores`] 16 channels at a time: each 16-channel chunk is
/// one code pair rebuilt by one `vpermps` over the whole signed table
/// ([`avx512_codes`]); its product with the query splits into the two
/// 8-lane chunks the 8-lane dot adds in order (low half, then high half),
/// so each row's lanes, and its score, are [`avx2_code_scores`]' bits.
///
/// # Safety
///
/// Caller must guarantee AVX-512F is available, `q.len()` is a positive
/// multiple of 16, `kr.group` a multiple of 16, `col` a multiple of
/// `kr.group` with `col + q.len() ≤ kr.d`, `kr` holds `out.len()` rows,
/// and `ks` holds `(out.len() - 1) * ks_stride + q.len() / kr.group`
/// floats.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2")]
unsafe fn avx512_code_scores(
    q: &[f32],
    kr: &SideReads,
    col: usize,
    (ks, ks_stride): (&[f32], usize),
    scale: f32,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let (chunks, per_group) = (q.len() / 16, kr.group / 16);
    let table = WideTable::load(kr.table);
    let (qp, sp) = (q.as_ptr(), ks.as_ptr());
    let sc = _mm256_set1_ps(scale);
    for (g, step) in out.chunks_mut(8).enumerate() {
        let mut acc = [_mm256_setzero_ps(); 8];
        for (j, a) in acc.iter_mut().enumerate().take(step.len()) {
            let r = g * 8 + j;
            let scales = sp.add(r * ks_stride);
            let (mut s, mut left) = (_mm512_set1_ps(*scales), per_group);
            let mut x = _mm256_setzero_ps();
            for c in 0..chunks {
                if left == 0 {
                    s = _mm512_set1_ps(*scales.add(c / per_group));
                    left = per_group;
                }
                left -= 1;
                let k = _mm512_mul_ps(avx512_codes(&table, kr.pair(r, col + 16 * c)), s);
                let p = _mm512_mul_ps(_mm512_loadu_ps(qp.add(16 * c)), k);
                x = avx512_add_halves(x, p, c == 0);
            }
            *a = x;
        }
        avx2_store_scores(&acc, sc, step);
    }
}

/// The range's K scales of rows `0..rows` as f32, row `r`'s `ng` groups
/// from group `g0` into `out[r * ng..]`: `vcvtph2ps` on whole runs of 8,
/// [`f16_value`] on the rest (the same bits).
///
/// # Safety
///
/// Caller must guarantee AVX2 and F16C are available, `halves` holds
/// `(rows - 1) * per_row + g0 + ng` scales and `out` `rows * ng` floats.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c")]
unsafe fn avx2_k_scales(halves: &[u16], (per_row, g0, ng): (usize, usize, usize), rows: usize, out: &mut [f32]) {
    use std::arch::x86_64::*;
    // The whole range of every row is one run when it spans the row.
    let (runs, len) = if ng == per_row { (1, rows * ng) } else { (rows, ng) };
    for r in 0..runs {
        let (src, dst) = (halves.as_ptr().add(r * per_row + g0), out.as_mut_ptr().add(r * ng));
        let mut i = 0;
        while i + 8 <= len {
            _mm256_storeu_ps(dst.add(i), _mm256_cvtph_ps(_mm_loadu_si128(src.add(i) as *const __m128i)));
            i += 8;
        }
        for j in i..len {
            *dst.add(j) = f16_value(*src.add(j));
        }
    }
}

/// [`max_lanes`] over a score row, whole 8-chunks in one register.
///
/// # Safety
///
/// Caller must guarantee AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_max(s: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let chunks = s.chunks_exact(8);
    let tail = chunks.remainder();
    let mut mx = _mm256_set1_ps(f32::NEG_INFINITY);
    for c in chunks {
        mx = _mm256_max_ps(mx, _mm256_loadu_ps(c.as_ptr()));
    }
    let mut lanes = [0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), mx);
    max_lanes(lanes, tail)
}

/// [`exp_sum_lanes`] over a score row, whole 8-chunks through
/// [`avx2_exp`].
///
/// # Safety
///
/// Caller must guarantee AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_exp_sum(s: &mut [f32], max: f32) -> f32 {
    use std::arch::x86_64::*;
    let full = s.len() / 8 * 8;
    let (body, tail) = s.split_at_mut(full);
    let m = _mm256_set1_ps(max);
    let mut sum = _mm256_setzero_ps();
    for c in body.chunks_exact_mut(8) {
        let e = avx2_exp(_mm256_sub_ps(_mm256_loadu_ps(c.as_ptr()), m));
        _mm256_storeu_ps(c.as_mut_ptr(), e);
        sum = _mm256_add_ps(sum, e);
    }
    let mut lanes = [0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), sum);
    exp_sum_lanes(lanes, tail, max)
}

/// [`exp`] on eight lanes, operation for operation.
///
/// # Safety
///
/// Caller must guarantee AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn avx2_exp(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let x = _mm256_min_ps(_mm256_max_ps(x, _mm256_set1_ps(EXP_LO)), _mm256_setzero_ps());
    let fx = _mm256_floor_ps(_mm256_add_ps(
        _mm256_mul_ps(x, _mm256_set1_ps(LOG2E)),
        _mm256_set1_ps(0.5),
    ));
    let r = _mm256_sub_ps(
        _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(LN2_HI))),
        _mm256_mul_ps(fx, _mm256_set1_ps(LN2_LO)),
    );
    let z = _mm256_mul_ps(r, r);
    let mut y = _mm256_set1_ps(EXP_POLY[0]);
    for &c in &EXP_POLY[1..] {
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(c));
    }
    let y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(y, z), r), _mm256_set1_ps(1.0));
    let n = _mm256_add_epi32(_mm256_cvttps_epi32(fx), _mm256_set1_epi32(127));
    _mm256_mul_ps(y, _mm256_castsi256_ps(_mm256_slli_epi32::<23>(n)))
}

/// The first `len` floats of `buf`, grown to hold them if it is shorter.
fn grown(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// A code page's `side` for the vector kernels that read it in
/// registers, when the host converts FP16 in vectors and columns
/// `c0..c0 + w` are whole 8-code words and, for K, whole groups; `None`
/// for an f32 page or any other code page, which the kernels read
/// rebuilt into scratch instead.
fn code_reads<'a>(page: &KvPage<'a>, side: Side, c0: usize, w: usize) -> Option<SideReads<'a>> {
    let KvPage::Codes(c) = page else { return None };
    let reads = c.side_reads(side)?;
    let whole = |g: usize| c0.is_multiple_of(g) && w.is_multiple_of(g);
    (crate::codepage::f16c_available() && whole(8) && (side == Side::V || whole(reads.group))).then_some(reads)
}

/// `acc += Σ_r w_h[p0 + r] · v_r` for every head `h` of the range at
/// once, the rows in order: the columns in sweeps of up to eight 8-lane
/// groups (with `wide`, up to four 16-lane groups), each group taking
/// its head's weight (`w[h * rs + p0 + r]`), so each head's chain is its
/// own. Lanes never mix, so both widths give the same bits.
///
/// # Safety
///
/// Caller must guarantee AVX2 is available (and AVX-512F with `wide`),
/// `dh` and `acc.len()` are positive multiples of 8 (of 16 with `wide`),
/// `v.len() >= (rows - 1) * vs + acc.len()`, and `w` holds `p0 + rows`
/// weights at every head's row start `h * rs`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)] // weights + geometry + rows + acc + body
unsafe fn avx2_pv_heads(
    w: &[f32],
    rs: usize,
    p0: usize,
    rows: usize,
    dh: usize,
    v: &[f32],
    vs: usize,
    acc: &mut [f32],
    wide: bool,
) {
    let (width, lanes) = (acc.len(), if wide { 16 } else { 8 });
    let mut c = 0;
    while c < width {
        let most = if wide { 4 } else { 8 };
        let g = [8, 4, 2, 1].into_iter().filter(|&g| g <= most).find(|g| lanes * g <= width - c).unwrap_or(1);
        let weights = |t: usize| w.as_ptr().add((c + lanes * t) / dh * rs + p0);
        let (vp, ap) = (v.as_ptr().add(c), acc.as_mut_ptr().add(c));
        match (wide, g) {
            (true, 4) => avx512_pv_cols::<4>(std::array::from_fn(weights), rows, vp, vs, ap),
            (true, 2) => avx512_pv_cols::<2>(std::array::from_fn(weights), rows, vp, vs, ap),
            (true, _) => avx512_pv_cols::<1>(std::array::from_fn(weights), rows, vp, vs, ap),
            (false, 8) => avx2_pv_cols::<8>(std::array::from_fn(weights), rows, vp, vs, ap),
            (false, 4) => avx2_pv_cols::<4>(std::array::from_fn(weights), rows, vp, vs, ap),
            (false, 2) => avx2_pv_cols::<2>(std::array::from_fn(weights), rows, vp, vs, ap),
            (false, _) => avx2_pv_cols::<1>(std::array::from_fn(weights), rows, vp, vs, ap),
        }
        c += lanes * g;
    }
}

/// [`avx2_pv_cols`] for `G` 16-lane column groups.
///
/// # Safety
///
/// Caller must guarantee AVX-512F is available, `acc[0..16G]` is
/// writable, `v[r * vs .. r * vs + 16G]` and `w[t][r]` readable for every
/// `r < rows`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn avx512_pv_cols<const G: usize>(
    w: [*const f32; G],
    rows: usize,
    v: *const f32,
    vs: usize,
    acc: *mut f32,
) {
    use std::arch::x86_64::*;
    let mut a = [_mm512_setzero_ps(); G];
    for (t, x) in a.iter_mut().enumerate() {
        *x = _mm512_loadu_ps(acc.add(16 * t));
    }
    for r in 0..rows {
        let row = v.add(r * vs);
        for (t, x) in a.iter_mut().enumerate() {
            let wv = _mm512_set1_ps(*w[t].add(r));
            *x = _mm512_add_ps(*x, _mm512_mul_ps(wv, _mm512_loadu_ps(row.add(16 * t))));
        }
    }
    for (t, x) in a.iter().enumerate() {
        _mm512_storeu_ps(acc.add(16 * t), *x);
    }
}

/// [`avx2_pv_heads`] for `G` column groups starting at `v` and `acc`;
/// group `t` takes row `r`'s weight from `w[t][r]`.
///
/// # Safety
///
/// Caller must guarantee AVX2 is available, `acc[0..8G]` is writable,
/// `v[r * vs .. r * vs + 8G]` and `w[t][r]` readable for every
/// `r < rows`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn avx2_pv_cols<const G: usize>(
    w: [*const f32; G],
    rows: usize,
    v: *const f32,
    vs: usize,
    acc: *mut f32,
) {
    use std::arch::x86_64::*;
    let mut a = [_mm256_setzero_ps(); G];
    for (t, x) in a.iter_mut().enumerate() {
        *x = _mm256_loadu_ps(acc.add(8 * t));
    }
    for r in 0..rows {
        let row = v.add(r * vs);
        for (t, x) in a.iter_mut().enumerate() {
            let wv = _mm256_set1_ps(*w[t].add(r));
            *x = _mm256_add_ps(*x, _mm256_mul_ps(wv, _mm256_loadu_ps(row.add(8 * t))));
        }
    }
    for (t, x) in a.iter().enumerate() {
        _mm256_storeu_ps(acc.add(8 * t), *x);
    }
}

/// [`avx2_pv_heads`] over one code page's V codes: columns `c0 ..
/// c0 + acc.len()` of rows `0..rows`, each chunk rebuilt in registers as
/// `table[code] × scale`, the group's scales converted once per position
/// group. With `wide`, 16-channel chunks through [`avx512_codes`] in
/// sweeps of up to four; otherwise 8-channel chunks through
/// [`avx2_codes`], likewise. Lanes never mix, so both widths give the
/// same bits.
///
/// # Safety
///
/// Caller must guarantee AVX2 and F16C are available (and AVX-512F with
/// `wide`), `dh` and `acc.len()` are positive multiples of 8 (of 16 with
/// `wide`), `c0` is a multiple of 8 (16) with `c0 + acc.len() ≤ vr.d`,
/// `vr` holds `rows` rows, and `w` holds `p0 + rows` weights at every
/// head's row start `h * rs`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c")]
#[allow(clippy::too_many_arguments)] // weights + geometry + rows + acc + body
unsafe fn avx2_pv_codes(
    w: &[f32],
    rs: usize,
    p0: usize,
    rows: usize,
    dh: usize,
    vr: &SideReads,
    c0: usize,
    acc: &mut [f32],
    wide: bool,
) {
    let (width, lanes) = (acc.len(), if wide { 16 } else { 8 });
    let mut c = 0;
    while c < width {
        let g = [4, 2, 1].into_iter().find(|g| lanes * g <= width - c).unwrap_or(1);
        let weights = |t: usize| w.as_ptr().add((c + lanes * t) / dh * rs + p0);
        let (cb, ap) = (c0 + c, acc.as_mut_ptr().add(c));
        match (wide, g) {
            (true, 4) => avx512_pv_code_cols::<4>(std::array::from_fn(weights), rows, vr, cb, ap),
            (true, 2) => avx512_pv_code_cols::<2>(std::array::from_fn(weights), rows, vr, cb, ap),
            (true, _) => avx512_pv_code_cols::<1>(std::array::from_fn(weights), rows, vr, cb, ap),
            (false, 4) => avx2_pv_code_cols::<4>(std::array::from_fn(weights), rows, vr, cb, ap),
            (false, 2) => avx2_pv_code_cols::<2>(std::array::from_fn(weights), rows, vr, cb, ap),
            (false, _) => avx2_pv_code_cols::<1>(std::array::from_fn(weights), rows, vr, cb, ap),
        }
        c += lanes * g;
    }
}

/// [`avx2_pv_codes`] for `G` 8-channel groups from channel `cb`; group
/// `t` takes row `r`'s weight from `w[t][r]`.
///
/// # Safety
///
/// Caller must guarantee AVX2 and F16C are available, `acc[0..8G]` is
/// writable, channels `cb .. cb + 8G` (`cb` a multiple of 8) of `rows`
/// rows readable from `vr`, and `w[t][r]` readable for every `r < rows`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c")]
#[inline]
unsafe fn avx2_pv_code_cols<const G: usize>(
    w: [*const f32; G],
    rows: usize,
    vr: &SideReads,
    cb: usize,
    acc: *mut f32,
) {
    use std::arch::x86_64::*;
    let table = CodeTable::load(vr.table);
    let mut a = [_mm256_setzero_ps(); G];
    for (t, x) in a.iter_mut().enumerate() {
        *x = _mm256_loadu_ps(acc.add(8 * t));
    }
    let mut scales = [_mm256_setzero_ps(); G];
    for (grp, r0) in (0..rows).step_by(vr.group).enumerate() {
        let halves = vr.halves.as_ptr().add(grp * vr.d + cb);
        for (t, s) in scales.iter_mut().enumerate() {
            *s = _mm256_cvtph_ps(_mm_loadu_si128(halves.add(8 * t) as *const __m128i));
        }
        for r in r0..(r0 + vr.group).min(rows) {
            for (t, x) in a.iter_mut().enumerate() {
                let ch = cb + 8 * t;
                let v = _mm256_mul_ps(avx2_codes(&table, vr.pair(r, ch), ch / 8 % 2), scales[t]);
                *x = _mm256_add_ps(*x, _mm256_mul_ps(_mm256_set1_ps(*w[t].add(r)), v));
            }
        }
    }
    for (t, x) in a.iter().enumerate() {
        _mm256_storeu_ps(acc.add(8 * t), *x);
    }
}

/// [`avx2_pv_code_cols`] for `G` 16-channel groups from channel `cb`.
///
/// # Safety
///
/// Caller must guarantee AVX-512F is available, `acc[0..16G]` is
/// writable, channels `cb .. cb + 16G` (`cb` a multiple of 16) of `rows`
/// rows readable from `vr`, and `w[t][r]` readable for every `r < rows`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,f16c")]
#[inline]
unsafe fn avx512_pv_code_cols<const G: usize>(
    w: [*const f32; G],
    rows: usize,
    vr: &SideReads,
    cb: usize,
    acc: *mut f32,
) {
    use std::arch::x86_64::*;
    let table = WideTable::load(vr.table);
    let mut a = [_mm512_setzero_ps(); G];
    for (t, x) in a.iter_mut().enumerate() {
        *x = _mm512_loadu_ps(acc.add(16 * t));
    }
    let mut scales = [_mm512_setzero_ps(); G];
    for (grp, r0) in (0..rows).step_by(vr.group).enumerate() {
        let halves = vr.halves.as_ptr().add(grp * vr.d + cb);
        for (t, s) in scales.iter_mut().enumerate() {
            *s = _mm512_cvtph_ps(_mm256_loadu_si256(halves.add(16 * t) as *const __m256i));
        }
        for r in r0..(r0 + vr.group).min(rows) {
            for (t, x) in a.iter_mut().enumerate() {
                let v = _mm512_mul_ps(avx512_codes(&table, vr.pair(r, cb + 16 * t)), scales[t]);
                *x = _mm512_add_ps(*x, _mm512_mul_ps(_mm512_set1_ps(*w[t].add(r)), v));
            }
        }
    }
    for (t, x) in a.iter().enumerate() {
        _mm512_storeu_ps(acc.add(16 * t), *x);
    }
}

/// One f32 page's K and V rows.
type RowPage = (Vec<f32>, Vec<f32>);

/// Pages of a fixed pattern for the self-check and the tests: the first
/// `codes.len()` pages are code pages of `layer`, the rest f32 pages.
pub(crate) struct MixedPages<'a> {
    pub(crate) layout: &'a CodeLayout,
    pub(crate) codes: &'a [Vec<u32>],
    pub(crate) rows: &'a [RowPage],
    pub(crate) layer: usize,
    pub(crate) stride: usize,
}

impl KvPages for MixedPages<'_> {
    fn block(&self) -> usize {
        self.layout.block()
    }

    fn stride(&self) -> usize {
        self.stride
    }

    fn page(&self, idx: usize) -> KvPage<'_> {
        match self.codes.get(idx) {
            Some(words) => KvPage::Codes(CodePage::new(self.layout, words, self.layer)),
            None => {
                let (k, v) = &self.rows[idx - self.codes.len()];
                KvPage::Rows(k, v)
            }
        }
    }
}

/// E1M2's values by code (K of `q4-opt`): codes 8–15 negate 0–7, so
/// code 8 is `-0.0`.
const SELF_K_TABLE: [f32; 16] = [
    0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, -0.0, -0.5, -1.0, -1.5, -2.0, -2.5, -3.0, -3.5,
];
/// E3M0's values by code (V of `q4-opt`).
const SELF_V_TABLE: [f32; 16] = [
    0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, -0.0, -0.25, -0.5, -1.0, -2.0, -4.0, -8.0, -16.0,
];

/// Two code pages of `layout` (2 layers of rows `d` wide, K groups of 16
/// channels) holding every code in K and V, FP16 scales from subnormal
/// to 2, then one f32 page: the self-check's fixed pattern.
fn pattern_pages(layout: &CodeLayout, d: usize) -> (Vec<Vec<u32>>, Vec<RowPage>) {
    const K_SCALES: [u16; 5] = [0x3800, 0x0001, 0x3c00, 0x3400, 0x2e66];
    const V_SCALES: [u16; 4] = [0x3c00, 0x0200, 0x4000, 0x3555];
    let block = layout.block();
    let codes = (0..2)
        .map(|p| {
            let mut w = vec![0u32; layout.words()];
            for layer in 0..2 {
                for r in 0..block {
                    for c in 0..d {
                        layout.set_k(&mut w, layer, r, c, ((r * d + c + 5 * p + layer) % 16) as u8);
                        layout.set_v(&mut w, layer, r, c, ((7 * r + 3 * c + p) % 16) as u8);
                    }
                    for g in 0..d / 16 {
                        layout.set_k_scale(&mut w, layer, r, g, K_SCALES[(r + g + p) % 5]);
                    }
                }
                for c in 0..d {
                    layout.set_v_scale(&mut w, layer, 0, c, V_SCALES[(c + p) % 4]);
                }
            }
            w
        })
        .collect();
    let fill = |salt: usize| -> Vec<f32> {
        (0..2 * block * d)
            .map(|i| ((i * 2654435761usize + salt) % 2001) as f32 / 250.0 - 4.0)
            .collect()
    };
    (codes, vec![(fill(7), fill(11))])
}

/// The vector bodies against the portable ones on fixed patterns; `true`
/// when every bit agrees: `exp` against its vector form, every code of
/// two code pages (`±0` included) looked up in registers against its
/// table, and the all-heads body against the per-head portable body over
/// those code pages (subnormal scales included) and an f32 page, with
/// the prefix ending before, inside and after a page boundary; each at
/// 8 lanes and, where the CPU has AVX-512F, 16. Calls the bodies
/// directly, never the dispatching entry point, so
/// [`self_test`](crate::self_test) can run it.
pub(crate) fn self_check() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if !crate::avx2_available() {
            return true;
        }
        let xs: [f32; 8] = [0.0, -0.0, -1e-8, -0.5, -3.75, -40.0, -87.0, -1000.0];
        let mut ys = [0f32; 8];
        // SAFETY: AVX2 confirmed above; both arrays hold 8 floats.
        unsafe {
            use std::arch::x86_64::*;
            let e = avx2_exp(_mm256_loadu_ps(xs.as_ptr()));
            _mm256_storeu_ps(ys.as_mut_ptr(), e);
        }
        let exp_ok = xs.iter().zip(&ys).all(|(&x, y)| exp(x).to_bits() == y.to_bits());
        let (block, dh, d) = (4, 16, 48);
        let layout = CodeLayout::new(2, block, d, (16, block), (SELF_K_TABLE, SELF_V_TABLE));
        let (codes, rows) = pattern_pages(&layout, d);
        let same = |a: &[f32], b: &[f32]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        let bodies = [false, true].into_iter().filter(|&wide| !wide || crate::avx512_available());
        // Every code of both pages, read by each lookup against its table.
        let lookup_ok = bodies.clone().all(|wide| {
            codes.iter().all(|w| {
                let page = CodePage::new(&layout, w, 1);
                [Side::K, Side::V].into_iter().all(|side| {
                    let Some(sr) = page.side_reads(side) else { return false };
                    let tbl = if side == Side::K { &SELF_K_TABLE } else { &SELF_V_TABLE };
                    let mut lanes = [0f32; 16];
                    (0..block).all(|r| {
                        (0..d).step_by(16).all(|c| {
                            // SAFETY: AVX2 confirmed above (AVX-512F where
                            // `wide`); `r` and `c` lie inside the page and
                            // `lanes` holds 16 floats.
                            unsafe {
                                use std::arch::x86_64::*;
                                if wide {
                                    let x = avx512_codes(&WideTable::load(sr.table), sr.pair(r, c));
                                    _mm512_storeu_ps(lanes.as_mut_ptr(), x);
                                } else {
                                    let table = CodeTable::load(sr.table);
                                    for half in 0..2 {
                                        let x = avx2_codes(&table, sr.pair(r, c), half);
                                        _mm256_storeu_ps(lanes[8 * half..].as_mut_ptr(), x);
                                    }
                                }
                            }
                            (0..16).all(|e| lanes[e].to_bits() == tbl[page.code(side, r, c + e)].to_bits())
                        })
                    })
                })
            })
        });
        let kv = MixedPages { layout: &layout, codes: &codes, rows: &rows, layer: 1, stride: d };
        let q: Vec<f32> = (0..d).map(|e| (e as f32 * 0.37).sin() * 1.5).collect();
        let heads_ok = bodies.into_iter().all(|wide| {
            [(0, 3), (1, 2)].iter().all(|&(h0, nh)| {
                [0, 5, 9, 11].iter().all(|&pos| {
                    let (w, c0) = (nh * dh, h0 * dh);
                    let qh = &q[c0..c0 + w];
                    let mut want = vec![0f32; w];
                    let mut s = vec![0f32; pos + 1];
                    for (j, o) in want.chunks_exact_mut(dh).enumerate() {
                        let col = c0 + j * dh;
                        attend_row_portable(&q[col..col + dh], &kv, col, pos, &mut s, o);
                    }
                    let mut scores = vec![0f32; score_rows_len(nh, pos)];
                    let (mut page, mut got) = (Vec::new(), vec![0f32; w]);
                    // SAFETY: AVX2 (and AVX-512F where `wide`) confirmed;
                    // `dh` is 16 and the geometry passes `attend_heads`'
                    // checks (the portable calls above read the same pages
                    // and panic otherwise).
                    let ran = unsafe {
                        attend_heads_avx2(qh, &kv, (h0, nh, dh), pos, &mut scores, &mut page, &mut got, wide)
                    };
                    // Without F16C the code pages go to the portable body.
                    if ran {
                        same(&want, &got)
                    } else {
                        !crate::codepage::f16c_available()
                    }
                })
            })
        });
        exp_ok && lookup_ok && heads_ok
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift so the tests need no external RNG crate.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        /// Uniform in [-2, 2), with exact ±0.0 mixed in.
        fn value(&mut self) -> f32 {
            match self.next() % 29 {
                0 => 0.0,
                1 => -0.0,
                _ => (self.next() % 4096) as f32 / 1024.0 - 2.0,
            }
        }
    }

    /// Rows cut into f32 pages of `block` positions, each page its own
    /// buffer: the paged arena's shape.
    fn cut(k: &[f32], v: &[f32], stride: usize, block: usize) -> Vec<RowPage> {
        k.chunks(block * stride).zip(v.chunks(block * stride)).map(|(a, b)| (a.to_vec(), b.to_vec())).collect()
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// The per-head portable body over `heads`, then the dispatching
    /// all-heads entry and (with AVX2, `dh` a multiple of 8) the AVX2
    /// body directly, asserting equal bits, or that the AVX2 body turned
    /// down only a prefix holding a code page it cannot read; returns the
    /// output.
    fn both<P: KvPages>(q: &[f32], kv: &P, heads: Range<usize>, dh: usize, pos: usize) -> Vec<f32> {
        let nh = heads.len();
        let mut want = vec![0f32; nh * dh];
        let mut s = vec![0f32; pos + 1];
        for (j, (qh, o)) in q.chunks_exact(dh).zip(want.chunks_exact_mut(dh)).enumerate() {
            attend_row_portable(qh, kv, (heads.start + j) * dh, pos, &mut s, o);
        }
        let mut scores = vec![0f32; score_rows_len(nh, pos)];
        let mut page = Vec::new();
        let mut got = vec![0f32; nh * dh];
        attend_heads(q, kv, heads.clone(), dh, pos, &mut scores, &mut page, &mut got);
        assert_eq!(bits(&got), bits(&want), "dh {dh} heads {heads:?} pos {pos}");
        #[cfg(target_arch = "x86_64")]
        if dh.is_multiple_of(8) && crate::avx2_available() {
            for wide in [false, true].into_iter().filter(|&w| !w || crate::avx512_available()) {
                let mut direct = vec![0f32; nh * dh];
                // SAFETY: AVX2 (and AVX-512F where `wide`) confirmed, `dh`
                // a multiple of 8, and the dispatching call above passed
                // the same checks.
                let ran = unsafe {
                    let shape = (heads.start, nh, dh);
                    attend_heads_avx2(q, kv, shape, pos, &mut scores, &mut page, &mut direct, wide)
                };
                if ran {
                    assert_eq!(bits(&direct), bits(&want), "wide {wide} dh {dh} heads {heads:?} pos {pos}");
                } else {
                    let (c0, w) = (heads.start * dh, nh * dh);
                    let declined = prefix_pages(kv, c0..c0 + w, pos + 1).any(|(_, pg, _)| {
                        let read = |side| code_reads(&pg, side, c0, w).is_some();
                        matches!(pg, KvPage::Codes(_)) && !(read(Side::K) && read(Side::V))
                    });
                    assert!(declined, "wide {wide} dh {dh} heads {heads:?} pos {pos}: pages declined");
                }
            }
        }
        want
    }

    #[test]
    fn avx2_and_portable_bodies_are_bit_identical() {
        // 1–8 heads of 8/16/32/64 in rows exactly as wide as the range,
        // rows of 64 and 72 floats where the range fits (72 is no multiple
        // of the head width past 8), and rows one head wider; the range
        // ends at the row's last whole head. Every prefill/decode split
        // shape for 1–2 heads, a third of them above.
        let mut rng = Rng(0x5eed_a77e_0000_0001);
        for dh in [8, 16, 32, 64] {
            for nh in 1..=8 {
                let mut strides = vec![nh * dh, 64, 72, (nh + 1) * dh];
                strides.retain(|&s| s >= nh * dh);
                strides.sort_unstable();
                strides.dedup();
                for stride in strides {
                    let h0 = stride / dh - nh;
                    let shapes = [0, 1, 7, 447].into_iter().flat_map(|s| [1, 2, 5, 33].map(|m| (s, m)));
                    for (start, m) in shapes.filter(|&(s, m)| nh <= 2 || (s + m + nh) % 3 == 0) {
                        let n = start + m;
                        let k: Vec<f32> = (0..n * stride).map(|_| rng.value()).collect();
                        let v: Vec<f32> = (0..n * stride).map(|_| rng.value()).collect();
                        let q: Vec<f32> = (0..m * stride).map(|_| rng.value()).collect();
                        let kv = KvRows::new(&k, &v, stride);
                        for i in 0..m {
                            let row = i * stride + h0 * dh;
                            both(&q[row..row + nh * dh], &kv, h0..h0 + nh, dh, start + i);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tied_maxima_zeros_and_clamped_gaps_agree() {
        // Scores built from identical K rows (tied maxima), all-zero rows
        // (±0.0 scores), and rows 200× larger, whose score gaps push
        // `exp` past its clamp; two heads see the same rows.
        let (dh, n) = (16, 40);
        let d = 2 * dh;
        let q: Vec<f32> = (0..d).map(|e| if e % 3 == 0 { -0.0 } else { 1.0 }).collect();
        let mut k = vec![0f32; n * d];
        let mut v = vec![0f32; n * d];
        for j in 0..n {
            for e in 0..d {
                k[j * d + e] = match j % 5 {
                    0 => 0.75,
                    1 => -0.0,
                    2 => 200.0,
                    3 => -150.0,
                    _ => 0.75,
                };
                v[j * d + e] = if (j + e) % 4 == 0 { -0.0 } else { (j * d + e) as f32 * 0.01 };
            }
        }
        let kv = KvRows::new(&k, &v, d);
        for pos in 0..n {
            let out = both(&q, &kv, 0..2, dh, pos);
            assert!(out.iter().all(|x| x.is_finite()), "pos {pos}");
        }
    }

    #[test]
    fn pages_never_change_a_bit() {
        // f32 pages, and code pages (codes plus scales, then an f32 tail)
        // against the same rows rebuilt into `KvRows`, at every block.
        // Code pages of `dh` 16 read in registers; those of `dh` 8 (rows
        // of 24 codes, no whole word pairs) send the call to the portable
        // body.
        let mut rng = Rng(0x000b_10c5);
        for dh in [2, 3, 4, 8, 16] {
            let (d, n) = (3 * dh, 37);
            let k: Vec<f32> = (0..n * d).map(|_| rng.value()).collect();
            let v: Vec<f32> = (0..n * d).map(|_| rng.value()).collect();
            let rows = KvRows::new(&k, &v, d);
            for block in [1, 3, 8, 16] {
                let pages = cut(&k, &v, d, block);
                let layout = CodeLayout::new(1, block, d, (1, 1), (SELF_K_TABLE, SELF_V_TABLE));
                let paged = MixedPages { layout: &layout, codes: &[], rows: &pages, layer: 0, stride: d };
                let layout = CodeLayout::new(2, block, d, (dh, block), (SELF_K_TABLE, SELF_V_TABLE));
                let sealed = n / block;
                let codes: Vec<Vec<u32>> = (0..sealed)
                    .map(|_| {
                        let mut w: Vec<u32> = (0..layout.words()).map(|_| rng.next() as u32).collect();
                        for layer in 0..2 {
                            for r in 0..block {
                                for h in 0..3 {
                                    let s = [0x3800, 0x0013, 0x3c00, 0x3266][(rng.next() % 4) as usize];
                                    layout.set_k_scale(&mut w, layer, r, h, s);
                                }
                            }
                            for c in 0..d {
                                let s = [0x3c00, 0x2a00, 0x0101, 0x4000][(rng.next() % 4) as usize];
                                layout.set_v_scale(&mut w, layer, 0, c, s);
                            }
                        }
                        w
                    })
                    .collect();
                let (mut kr, mut vr) = (k.clone(), v.clone());
                for (p, w) in codes.iter().enumerate() {
                    let page = CodePage::new(&layout, w, 1);
                    for r in 0..block {
                        for c in 0..d {
                            kr[(p * block + r) * d + c] = page.k(r, c);
                            vr[(p * block + r) * d + c] = page.v(r, c);
                        }
                    }
                }
                let rebuilt = KvRows::new(&kr, &vr, d);
                let tail = cut(&kr[sealed * block * d..], &vr[sealed * block * d..], d, block);
                let coded = MixedPages { layout: &layout, codes: &codes, rows: &tail, layer: 1, stride: d };
                for pos in [0, 1, 2, 9, 17, 36] {
                    let q = &k[pos * d..(pos + 1) * d];
                    let want = both(q, &rows, 0..3, dh, pos);
                    let got = both(q, &paged, 0..3, dh, pos);
                    assert_eq!(bits(&got), bits(&want), "dh {dh} block {block} pos {pos}");
                    let want = both(q, &rebuilt, 0..3, dh, pos);
                    let got = both(q, &coded, 0..3, dh, pos);
                    assert_eq!(bits(&got), bits(&want), "codes: dh {dh} block {block} pos {pos}");
                    for h in 0..3 {
                        let one = both(&q[h * dh..(h + 1) * dh], &coded, h..h + 1, dh, pos);
                        assert_eq!(bits(&one), bits(&got[h * dh..(h + 1) * dh]), "head {h} alone");
                    }
                }
            }
        }
    }

    #[test]
    fn small_heads_match_a_plain_softmax() {
        // dh 1–5 take the portable body; against an f64 softmax the
        // result must be close (the bits are pinned by the tests above).
        let mut rng = Rng(0x0dd_da7a);
        for dh in [1, 2, 3, 4, 5, 12] {
            let n = 23;
            let k: Vec<f32> = (0..n * dh).map(|_| rng.value()).collect();
            let v: Vec<f32> = (0..n * dh).map(|_| rng.value()).collect();
            let kv = KvRows::new(&k, &v, dh);
            for pos in 0..n {
                let q = &v[pos * dh..(pos + 1) * dh];
                let got = both(q, &kv, 0..1, dh, pos);
                let scale = 1.0 / (dh as f64).sqrt();
                let dot = |j: usize| {
                    (0..dh).map(|e| q[e] as f64 * k[j * dh + e] as f64).sum::<f64>()
                };
                let s: Vec<f64> = (0..=pos).map(|j| dot(j) * scale).collect();
                let mx = s.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let w: Vec<f64> = s.iter().map(|x| (x - mx).exp()).collect();
                let total: f64 = w.iter().sum();
                for e in 0..dh {
                    let want = (0..=pos).map(|j| w[j] * v[j * dh + e] as f64).sum::<f64>() / total;
                    assert!((got[e] as f64 - want).abs() < 1e-5, "dh {dh} pos {pos} e {e}");
                }
            }
        }
    }

    #[test]
    fn exp_is_exact_at_zero_and_close_on_its_domain() {
        assert_eq!(exp(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1.0f32.to_bits());
        let mut worst = 0f64;
        let steps = 1_000_000;
        for i in 0..=steps {
            let x = -87.0 * i as f32 / steps as f32;
            let want = (x as f64).exp();
            worst = worst.max(((exp(x) as f64 - want) / want).abs());
        }
        assert!(worst < 2f64.powi(-22), "max relative error {worst:e}");
        assert!(exp(-1e4) > 0.0 && exp(f32::NEG_INFINITY) > 0.0, "clamped, never 0");
        #[cfg(target_arch = "x86_64")]
        if crate::avx2_available() {
            let xs: Vec<f32> = [f32::NAN, 3.0]
                .into_iter()
                .chain((0..4094).map(|i| -0.0213 * i as f32))
                .collect();
            for c in xs.chunks(8).filter(|c| c.len() == 8) {
                let mut ys = [0f32; 8];
                // SAFETY: AVX2 confirmed; `c` and `ys` hold 8 floats.
                unsafe {
                    use std::arch::x86_64::*;
                    _mm256_storeu_ps(ys.as_mut_ptr(), avx2_exp(_mm256_loadu_ps(c.as_ptr())));
                }
                for (x, y) in c.iter().zip(&ys) {
                    assert_eq!(exp(*x).to_bits(), y.to_bits(), "x {x}");
                }
            }
        }
    }

    #[test]
    fn self_check_passes_on_healthy_hardware() {
        assert!(self_check());
    }

    #[test]
    #[should_panic(expected = "score rows")]
    fn short_score_row_panics() {
        let kv = [0f32; 64];
        let kv = KvRows::new(&kv, &kv, 8);
        attend_heads(&[0.0; 8], &kv, 0..1, 8, 7, &mut [0.0; 8], &mut Vec::new(), &mut [0.0; 8]);
    }

    #[test]
    #[should_panic(expected = "need")]
    fn short_page_panics() {
        let kv = [0f32; 63];
        let kv = KvRows::new(&kv, &kv, 8);
        attend_heads(&[0.0; 8], &kv, 0..1, 8, 7, &mut [0.0; 9], &mut Vec::new(), &mut [0.0; 8]);
    }

    #[test]
    #[should_panic(expected = "outside rows")]
    fn head_past_the_row_panics() {
        let kv = [0f32; 64];
        let kv = KvRows::new(&kv, &kv, 8);
        attend_heads(&[0.0; 8], &kv, 1..2, 8, 0, &mut [0.0; 2], &mut Vec::new(), &mut [0.0; 8]);
    }

    #[test]
    #[should_panic(expected = "output row")]
    fn mismatched_output_panics() {
        let kv = [0f32; 64];
        let kv = KvRows::new(&kv, &kv, 8);
        attend_heads(&[0.0; 8], &kv, 0..1, 8, 0, &mut [0.0; 2], &mut Vec::new(), &mut [0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "code page 0")]
    fn code_page_past_the_layout_panics() {
        let layout = CodeLayout::new(1, 2, 8, (8, 2), (SELF_K_TABLE, SELF_V_TABLE));
        let codes = vec![vec![0u32; layout.words()]];
        // Rows of stride 16 read head 1 at columns 8..16 of 8-wide codes.
        let kv = MixedPages { layout: &layout, codes: &codes, rows: &[], layer: 0, stride: 16 };
        attend_heads(&[0.0; 8], &kv, 1..2, 8, 1, &mut [0.0; 3], &mut Vec::new(), &mut [0.0; 8]);
    }
}
