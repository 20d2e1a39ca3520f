//! Causal attention for one query row and one head, read straight from
//! paged K/V rows: scores over the causal prefix, a softmax, then P·V.
//!
//! Two bodies compute the same bits:
//!
//! * the **portable** body (`attend_row_portable`) takes any head
//!   width `dh ≥ 1`; it is the fallback and the reference;
//! * the **AVX2** body takes `dh` a multiple of 8 and runs the same
//!   operations eight lanes at a time, with separate multiplies and adds
//!   (no FMA) and the same polynomial `exp`.
//!
//! Every floating-point operation has one fixed order, so the bodies
//! agree bit for bit on any host:
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
//!   by the sum at the end.
//!
//! The only scratch is one score row of `pos + 1` floats, which holds
//! the scores and then the weights.

/// Where an attention call reads its cached K and V rows: consecutive
/// positions in pages of [`block`](KvPages::block) rows, each row
/// [`stride`](KvPages::stride) floats after the one before it.
pub trait KvPages {
    /// Positions per page (at least 1). Page `idx` holds positions
    /// `idx * block ..`; only the last page a call reads may be partial.
    fn block(&self) -> usize;
    /// Floats from the start of one row to the start of the next.
    fn stride(&self) -> usize;
    /// Page `idx`'s K and V rows: position `idx * block + r` starts at
    /// float `r * stride` of each slice.
    fn page(&self, idx: usize) -> (&[f32], &[f32]);
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

    fn page(&self, _idx: usize) -> (&[f32], &[f32]) {
        (self.k, self.v)
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

/// `q · k` in the fixed 8-lane order (module docs).
fn dot(q: &[f32], k: &[f32]) -> f32 {
    let mut lanes = [0f32; 8];
    for (c, (qc, kc)) in q.chunks(8).zip(k.chunks(8)).enumerate() {
        for (l, (a, b)) in qc.iter().zip(kc).enumerate() {
            lanes[l] = if c == 0 { a * b } else { lanes[l] + a * b };
        }
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

/// One page of a head's causal prefix: its first position, the K and V
/// slices and the number of rows read.
type HeadPage<'a> = (usize, &'a [f32], &'a [f32], usize);

/// The causal prefix `0..n` of head column `col` page by page. Each K/V
/// slice starts at the head's first element in the page's first row
/// and ends right after its last row's `dh` elements: the bounds both
/// bodies rely on, checked here by the slicing.
///
/// # Panics
///
/// Panics if a page is too short for its rows or the geometry
/// overflows.
fn head_pages<'a, P: KvPages + ?Sized>(
    kv: &'a P,
    col: usize,
    dh: usize,
    n: usize,
) -> impl Iterator<Item = HeadPage<'a>> + 'a {
    let (block, stride) = (kv.block(), kv.stride());
    let mut p0 = 0;
    std::iter::from_fn(move || {
        if p0 >= n {
            return None;
        }
        let rows = (n - p0).min(block);
        let (k, v) = kv.page(p0 / block);
        let end = (rows - 1)
            .checked_mul(stride)
            .and_then(|x| x.checked_add(col + dh))
            .unwrap_or_else(|| panic!("{rows} rows at stride {stride} overflow"));
        assert!(
            end <= k.len() && end <= v.len(),
            "page {} holds {}/{} K/V floats; {rows} rows of head column {col} need {end}",
            p0 / block,
            k.len(),
            v.len()
        );
        let page = (p0, &k[col..end], &v[col..end], rows);
        p0 += rows;
        Some(page)
    })
}

/// The argument checks of [`attend_row`]; returns the head width.
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

/// One head's causal attention for the query row at absolute position
/// `pos`: `out = softmax(q · Kᵀ / √dh) · V` over positions `0..=pos`,
/// reading the head's K/V elements at column `col` of each row of `kv`.
/// `q` and `out` are the head's `dh` elements; `scores` is scratch of
/// at least `pos + 1` floats.
///
/// Dispatches to the AVX2 body when `dh` is a multiple of 8, the CPU
/// has AVX2 and the vector kernels passed [`self_test`](crate::self_test),
/// and to the portable body otherwise. Both give the same bits.
///
/// # Panics
///
/// Panics if `q` is empty, `out.len() != q.len()`, `scores` is shorter
/// than `pos + 1`, the head's columns do not fit in a row, or a page is
/// too short for the rows the prefix reads from it: the bounds the
/// vector body's raw loads rely on.
pub fn attend_row<P: KvPages + ?Sized>(
    q: &[f32],
    kv: &P,
    col: usize,
    pos: usize,
    scores: &mut [f32],
    out: &mut [f32],
) {
    let dh = check_row(q, kv, col, pos, scores, out);
    #[cfg(target_arch = "x86_64")]
    if dh.is_multiple_of(8) && crate::avx2_available() && crate::self_test() {
        // SAFETY: AVX2 confirmed at runtime, `dh` is a multiple of 8 and
        // `check_row` passed — `attend_row_avx2`'s contract.
        unsafe { attend_row_avx2(q, kv, col, pos, scores, out) };
        return;
    }
    attend_row_portable(q, kv, col, pos, scores, out);
}

/// The portable body of [`attend_row`], for any `dh ≥ 1`: the
/// reference the AVX2 body is tested against, operation for operation.
///
/// # Panics
///
/// As [`attend_row`].
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
    for (p0, k, _, rows) in head_pages(kv, col, dh, s.len()) {
        for (r, x) in s[p0..p0 + rows].iter_mut().enumerate() {
            *x = dot(q, &k[r * stride..r * stride + dh]) * scale;
        }
    }
    let max = max_lanes([f32::NEG_INFINITY; 8], s);
    let total = exp_sum_lanes([0.0; 8], s, max);
    out.fill(0.0);
    for (p0, _, v, rows) in head_pages(kv, col, dh, s.len()) {
        for (r, &w) in s[p0..p0 + rows].iter().enumerate() {
            for (o, &x) in out.iter_mut().zip(&v[r * stride..r * stride + dh]) {
                *o += w * x;
            }
        }
    }
    for o in out.iter_mut() {
        *o /= total;
    }
}

/// The AVX2 body of [`attend_row`]: the portable body's skeleton with
/// each stage eight lanes wide.
///
/// # Safety
///
/// Caller must guarantee AVX2 is available, `q.len()` is a multiple of
/// 8 and [`check_row`] passes for the arguments.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn attend_row_avx2<P: KvPages + ?Sized>(
    q: &[f32],
    kv: &P,
    col: usize,
    pos: usize,
    scores: &mut [f32],
    out: &mut [f32],
) {
    let dh = q.len();
    let (scale, stride) = (1.0 / (dh as f32).sqrt(), kv.stride());
    let s = &mut scores[..=pos];
    for (p0, k, _, rows) in head_pages(kv, col, dh, s.len()) {
        // `head_pages` sliced `k` to `(rows - 1) * stride + dh` floats.
        avx2_scores(q, k, stride, scale, &mut s[p0..p0 + rows]);
    }
    let max = avx2_max(s);
    let total = avx2_exp_sum(s, max);
    out.fill(0.0);
    for (p0, _, v, rows) in head_pages(kv, col, dh, s.len()) {
        // `v` is sliced the same way, and `out` holds the `dh` floats
        // `check_row` asserted.
        avx2_pv(&s[p0..p0 + rows], v, stride, out);
    }
    for o in out.iter_mut() {
        *o /= total;
    }
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

/// `acc += Σ_r w[r] · v_r` over the page's rows in order, up to four
/// 8-lane column groups per sweep so each row's weight is broadcast
/// once per sweep.
///
/// # Safety
///
/// Caller must guarantee AVX2 is available, `acc.len()` is a positive
/// multiple of 8 and `v.len() >= (w.len() - 1) * stride + acc.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_pv(w: &[f32], v: &[f32], stride: usize, acc: &mut [f32]) {
    let dh = acc.len();
    let mut e0 = 0;
    while e0 < dh {
        let groups = ((dh - e0) / 8).min(4);
        let (vp, ap) = (v.as_ptr().add(e0), acc.as_mut_ptr().add(e0));
        match groups {
            4 => avx2_pv_cols::<4>(w, vp, stride, ap),
            3 => avx2_pv_cols::<3>(w, vp, stride, ap),
            2 => avx2_pv_cols::<2>(w, vp, stride, ap),
            _ => avx2_pv_cols::<1>(w, vp, stride, ap),
        }
        e0 += 8 * groups;
    }
}

/// [`avx2_pv`] for `G` column groups starting at `v` and `acc`.
///
/// # Safety
///
/// Caller must guarantee AVX2 is available, `acc[0..8G]` is writable and
/// `v[r * stride .. r * stride + 8G]` readable for every `r < w.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn avx2_pv_cols<const G: usize>(w: &[f32], v: *const f32, stride: usize, acc: *mut f32) {
    use std::arch::x86_64::*;
    let mut a = [_mm256_setzero_ps(); G];
    for (t, x) in a.iter_mut().enumerate() {
        *x = _mm256_loadu_ps(acc.add(8 * t));
    }
    for (r, &wr) in w.iter().enumerate() {
        let wv = _mm256_set1_ps(wr);
        let row = v.add(r * stride);
        for (t, x) in a.iter_mut().enumerate() {
            *x = _mm256_add_ps(*x, _mm256_mul_ps(wv, _mm256_loadu_ps(row.add(8 * t))));
        }
    }
    for (t, x) in a.iter().enumerate() {
        _mm256_storeu_ps(acc.add(8 * t), *x);
    }
}

/// One deterministic two-row case through the AVX2 body and the
/// portable body, plus [`exp`] against its vector form; `true` when
/// every bit agrees. Calls the bodies directly, never the dispatching
/// entry point, so [`self_test`](crate::self_test) can run it.
pub(crate) fn self_check() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if !crate::avx2_available() {
            return true;
        }
        let (dh, stride, col) = (16, 24, 8);
        let rows = 21;
        let fill = |salt: usize| -> Vec<f32> {
            (0..rows * stride)
                .map(|i| ((i * 2654435761usize + salt) % 2001) as f32 / 250.0 - 4.0)
                .collect()
        };
        let (k, v, q) = (fill(7), fill(11), fill(13));
        let kv = KvRows::new(&k, &v, stride);
        let rows_ok = [0, 10, 20].iter().all(|&pos| {
            let qh = &q[pos * stride + col..pos * stride + col + dh];
            let (mut sa, mut sb) = (vec![0f32; rows], vec![0f32; rows]);
            let (mut oa, mut ob) = (vec![0f32; dh], vec![0f32; dh]);
            attend_row_portable(qh, &kv, col, pos, &mut sa, &mut oa);
            // SAFETY: AVX2 confirmed above; `dh` is 16 and the geometry
            // passes `check_row` (the portable call above runs the same
            // checks and panics otherwise).
            unsafe { attend_row_avx2(qh, &kv, col, pos, &mut sb, &mut ob) };
            oa.iter().zip(&ob).all(|(a, b)| a.to_bits() == b.to_bits())
        });
        let xs: [f32; 8] = [0.0, -0.0, -1e-8, -0.5, -3.75, -40.0, -87.0, -1000.0];
        let mut ys = [0f32; 8];
        // SAFETY: as above; both arrays hold 8 floats.
        unsafe {
            use std::arch::x86_64::*;
            let e = avx2_exp(_mm256_loadu_ps(xs.as_ptr()));
            _mm256_storeu_ps(ys.as_mut_ptr(), e);
        }
        let exp_ok = xs.iter().zip(&ys).all(|(&x, y)| exp(x).to_bits() == y.to_bits());
        rows_ok && exp_ok
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

    /// Rows cut into pages of `block` positions, each page its own
    /// buffer: the paged arena's shape.
    struct Paged {
        k: Vec<Vec<f32>>,
        v: Vec<Vec<f32>>,
        block: usize,
        stride: usize,
    }

    impl Paged {
        fn from_rows(k: &[f32], v: &[f32], stride: usize, block: usize) -> Paged {
            let cut = |x: &[f32]| -> Vec<Vec<f32>> {
                x.chunks(block * stride).map(<[f32]>::to_vec).collect()
            };
            Paged { k: cut(k), v: cut(v), block, stride }
        }
    }

    impl KvPages for Paged {
        fn block(&self) -> usize {
            self.block
        }

        fn stride(&self) -> usize {
            self.stride
        }

        fn page(&self, idx: usize) -> (&[f32], &[f32]) {
            (&self.k[idx], &self.v[idx])
        }
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// Both bodies on one row, asserting equal bits; returns the output.
    fn both<P: KvPages>(q: &[f32], kv: &P, col: usize, pos: usize) -> Vec<f32> {
        let dh = q.len();
        let (mut sa, mut sb) = (vec![0f32; pos + 1], vec![0f32; pos + 1]);
        let (mut oa, mut ob) = (vec![0f32; dh], vec![0f32; dh]);
        attend_row_portable(q, kv, col, pos, &mut sa, &mut oa);
        attend_row(q, kv, col, pos, &mut sb, &mut ob);
        assert_eq!(bits(&oa), bits(&ob), "dh {dh} col {col} pos {pos}");
        #[cfg(target_arch = "x86_64")]
        if dh.is_multiple_of(8) && crate::avx2_available() {
            let (mut sc, mut oc) = (vec![0f32; pos + 1], vec![0f32; dh]);
            // SAFETY: AVX2 confirmed, `dh` a multiple of 8, and the
            // portable call above passed the same checks.
            unsafe { attend_row_avx2(q, kv, col, pos, &mut sc, &mut oc) };
            assert_eq!(bits(&oa), bits(&oc), "avx2 dh {dh} col {col} pos {pos}");
        }
        oa
    }

    #[test]
    fn avx2_and_portable_bodies_are_bit_identical() {
        let mut rng = Rng(0x5eed_a77e_0000_0001);
        for dh in [8, 16, 32, 64] {
            for stride in [dh, 64, 72].into_iter().filter(|&s| s >= dh) {
                let shapes = [0, 1, 7, 447].into_iter().flat_map(|s| [1, 2, 5, 33].map(|m| (s, m)));
                for (start, m) in shapes {
                    let n = start + m;
                    let col = stride - dh;
                    let k: Vec<f32> = (0..n * stride).map(|_| rng.value()).collect();
                    let v: Vec<f32> = (0..n * stride).map(|_| rng.value()).collect();
                    let q: Vec<f32> = (0..m * stride).map(|_| rng.value()).collect();
                    let kv = KvRows::new(&k, &v, stride);
                    for i in 0..m {
                        both(&q[i * stride + col..i * stride + col + dh], &kv, col, start + i);
                    }
                }
            }
        }
    }

    #[test]
    fn tied_maxima_zeros_and_clamped_gaps_agree() {
        // Scores built from identical K rows (tied maxima), all-zero rows
        // (±0.0 scores), and rows 200× larger, whose score gaps push
        // `exp` past its clamp.
        let (dh, n) = (16, 40);
        let q: Vec<f32> = (0..dh).map(|e| if e % 3 == 0 { -0.0 } else { 1.0 }).collect();
        let mut k = vec![0f32; n * dh];
        let mut v = vec![0f32; n * dh];
        for j in 0..n {
            for e in 0..dh {
                k[j * dh + e] = match j % 5 {
                    0 => 0.75,
                    1 => -0.0,
                    2 => 200.0,
                    3 => -150.0,
                    _ => 0.75,
                };
                v[j * dh + e] = if (j + e) % 4 == 0 { -0.0 } else { (j * dh + e) as f32 * 0.01 };
            }
        }
        let kv = KvRows::new(&k, &v, dh);
        for pos in 0..n {
            let out = both(&q, &kv, 0, pos);
            assert!(out.iter().all(|x| x.is_finite()), "pos {pos}");
        }
    }

    #[test]
    fn pages_never_change_a_bit() {
        let mut rng = Rng(0x000b_10c5);
        for dh in [2, 3, 4, 16] {
            let (d, n) = (3 * dh, 37);
            let k: Vec<f32> = (0..n * d).map(|_| rng.value()).collect();
            let v: Vec<f32> = (0..n * d).map(|_| rng.value()).collect();
            let rows = KvRows::new(&k, &v, d);
            for block in [1, 3, 8, 16] {
                let paged = Paged::from_rows(&k, &v, d, block);
                for pos in [0, 1, 2, 9, 17, 36] {
                    for h in 0..3 {
                        let q = &k[pos * d + h * dh..pos * d + (h + 1) * dh];
                        let want = both(q, &rows, h * dh, pos);
                        let got = both(q, &paged, h * dh, pos);
                        assert_eq!(bits(&got), bits(&want), "dh {dh} block {block} pos {pos}");
                    }
                }
            }
        }
    }

    #[test]
    fn small_heads_match_a_plain_softmax() {
        // dh 2–4 take the portable body; against an f64 softmax the
        // result must be close (the bits are pinned by the tests above).
        let mut rng = Rng(0x0dd_da7a);
        for dh in [1, 2, 3, 4, 5, 12] {
            let n = 23;
            let k: Vec<f32> = (0..n * dh).map(|_| rng.value()).collect();
            let v: Vec<f32> = (0..n * dh).map(|_| rng.value()).collect();
            let kv = KvRows::new(&k, &v, dh);
            for pos in 0..n {
                let q = &v[pos * dh..(pos + 1) * dh];
                let got = both(q, &kv, 0, pos);
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
    #[should_panic(expected = "score row")]
    fn short_score_row_panics() {
        let kv = [0f32; 64];
        attend_row(&[0.0; 8], &KvRows::new(&kv, &kv, 8), 0, 7, &mut [0.0; 7], &mut [0.0; 8]);
    }

    #[test]
    #[should_panic(expected = "need")]
    fn short_page_panics() {
        let kv = [0f32; 63];
        attend_row(&[0.0; 8], &KvRows::new(&kv, &kv, 8), 0, 7, &mut [0.0; 8], &mut [0.0; 8]);
    }

    #[test]
    #[should_panic(expected = "outside rows")]
    fn head_past_the_row_panics() {
        let kv = [0f32; 64];
        attend_row(&[0.0; 8], &KvRows::new(&kv, &kv, 8), 4, 0, &mut [0.0; 1], &mut [0.0; 8]);
    }

    #[test]
    #[should_panic(expected = "output row")]
    fn mismatched_output_panics() {
        let kv = [0f32; 64];
        attend_row(&[0.0; 8], &KvRows::new(&kv, &kv, 8), 0, 0, &mut [0.0; 1], &mut [0.0; 4]);
    }
}
