//! The one unsafe corner of the workspace: the vector kernels for the
//! prepared decode hot loops in `axcore::engines` — the packed-plane
//! LUT fold (in-register table lookup, a block of activation rows per
//! call), the FP16 stages around it (activation encode, table build,
//! fused Norm → AxScale finish) and the W4A8 integer block dot
//! (`vpmaddubsw`) — and the causal attention kernel every `axcore-nn`
//! inference path calls, which reads K/V in place from the paged KV
//! cache: f32 rows, or sealed pages of 4-bit codes and FP16 scales whose
//! layout ([`CodeLayout`]) lives here too.
//!
//! Everything else in the workspace builds under
//! `#![forbid(unsafe_code)]`; quarantining the vector kernels here keeps
//! that guarantee intact. Each kernel is semantically tiny and this
//! crate carries its own scalar reference implementation plus
//! exhaustive-ish randomized tests pinning the paths bit-equal, so the
//! unsafe surface is auditable in isolation from the engines it
//! accelerates.
//!
//! # Two fold bodies
//!
//! The fold, the table build and the FP16 finish each have an AVX2 body
//! (8 columns, or one element's 16 entries as two `ymm`) and an AVX-512
//! body (16 columns per instruction, one element's entries as one
//! `zmm`). The fold entry points take 8- or 16-column tiles.
//! A 16-column call runs the AVX-512 body when the CPU has `avx512f`
//! and [`self_test`] passed, and the AVX2 body on each 8-column half
//! otherwise; columns are independent, so both give the same bits.
//! [`fold_lanes`] reports which body the host runs. Callers never name
//! an instruction set. The attention kernel reads heads of 16 channels
//! 16 lanes at a time on the same condition, and 8 otherwise.
//!
//! # Unsafe surface
//!
//! Every `unsafe` block is a call into one of these `target_feature`
//! functions (whose bodies do the raw pointer loads and stores), made
//! by a safe entry point after the CPU-feature check and the checks that
//! discharge the function's `# Safety` contract. No load address in
//! any of them depends on data: the LUT fold and the code-page reads
//! look codes up in registers (`vpermd`/`vpermps`), never in memory, and
//! attention reads rows and code words at fixed strides from the pages
//! the caller hands it.
//!
//! | kernel | entry points | obligations checked by the entry point |
//! |---|---|---|
//! | `avx2_fold` (+ `avx2_lookup`) | [`fold_rows`], [`fold_rows_finish_fp16`] (8 lanes, or each half of 16) | 1 to [`FOLD_ROWS`] rows, code segments inside the plane shard (length a multiple of 8), every lane's unit segment of every row inside the table |
//! | `avx512_fold` | [`fold_rows`], [`fold_rows_finish_fp16`] (16 lanes) | as `avx2_fold`, plus AVX-512F |
//! | `avx2_encode_fp16` | [`encode_fp16`] | equal lengths, a multiple of 8 (the tail runs scalar) |
//! | `avx2_build_rows_fp16`, `avx512_build_rows_fp16` | [`build_rows_fp16`] | 32 addends, 16 signs, 16 outputs per element; AVX-512F for the second |
//! | `avx2_finish_add` | [`finish_fp16`], [`fold_rows_finish_fp16`] (8 lanes, or each half of 16) | none beyond AVX2: every operand is a fixed 8-lane array |
//! | `avx512_finish_add` | [`fold_rows_finish_fp16`] (16 lanes) | none beyond AVX-512F: every operand is a fixed 16-lane array |
//! | `avx2_block_dots_u8i8` | [`block_dots_u8i8`] | equal lengths, whole 32-byte blocks |
//! | `attend_heads_avx2` (+ `avx2_scores`, `avx2_pv_heads`; on code pages `avx2_code_scores`, `avx2_pv_codes`, `avx2_k_scales`) | [`attend_heads`] | `dh` a multiple of 8 (else the portable body runs), query and output of `heads × dh` floats, score rows of at least [`score_rows_len`] floats, the heads' columns inside the row stride, every f32 page sliced to exactly the rows the causal prefix reads from it (`(rows − 1) · stride + width` floats past the range's first column, checked arithmetic) and every code page checked to hold those rows and columns (`CodePage::new` checks its buffer against the layout) before anything is loaded; code pages read only with F16C, rows of whole 16-code word pairs and a head range that splits no K group or 8-channel word (any other code page in the prefix sends the call to the portable body); K scales into the page scratch, grown to fit |
//! | `avx512_scores`, `avx512_pv_cols`, `avx512_code_scores`, `avx512_pv_code_cols` | [`attend_heads`] (16-lane reads) | as above, plus [`fold_lanes`] 16 (AVX-512F and the self-test) and heads (and, on code pages, K groups) of whole 16-channel chunks |
//!
//! # Table entry layout
//!
//! Each i32 entry is `(exp << 16) | (inc as u16)`: a biased exponent in
//! the high half (≤ 255 by the caller's format gate) and a signed
//! significand increment in the low half (`|inc| < 2^15`). A zero entry
//! (`exp == 0`, `inc == 0`) is a no-op of the fold.
//!
//! # The fold
//!
//! The accumulator is the branchless max-anchor form of AxCore's
//! partial FP adder (`PartialAcc::add_prepared_unclamped`): align the
//! smaller-exponent operand by shifting its significand right, add, and
//! keep the larger anchor; a zero significand re-anchors on the
//! incoming entry. Fixed-width alignment *drops* the shifted-out bits,
//! exactly like the hardware adder — that's the approximation being
//! modeled, so bit-identity with the scalar engine is the correctness
//! bar, not closeness to an exact dot product.

#![warn(missing_docs)]

/// `$f::<R>(args)` with the const row count `R` equal to `$rows` (1 to
/// [`FOLD_ROWS`], checked by the caller): the vector folds keep one
/// register pair per row, so the row count is a type parameter.
macro_rules! with_rows {
    ($rows:expr, $f:ident($($arg:expr),* $(,)?)) => {
        match $rows {
            1 => $f::<1>($($arg),*),
            2 => $f::<2>($($arg),*),
            3 => $f::<3>($($arg),*),
            _ => $f::<4>($($arg),*),
        }
    };
}

mod attention;
mod codepage;
mod fp16;

pub use attention::{attend_heads, score_rows_len, KvPage, KvPages, KvRows};
pub use codepage::{CodeLayout, CodePage};
pub use fp16::{
    build_rows_fp16, encode_fp16, finish_fp16, fold_rows_finish_fp16, scalar_build_rows_fp16,
    scalar_encode_fp16, scalar_finish_fp16,
};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// True when the running CPU can execute the AVX2 kernels.
///
/// Callers may use this to predict which path runs (benchmark labels),
/// but they don't have to gate on it: every entry point dispatches
/// internally and always produces the same bits either way.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when the running CPU has AVX-512F, the instruction set of the
/// 16-lane fold and table-build bodies.
fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Columns one instruction of the LUT fold covers on this host: 16 (the
/// AVX-512 body), 8 (the AVX2 body) or 0 (no vector fold: the CPU lacks
/// AVX2, or [`self_test`] failed).
///
/// The engine takes its vector LUT rung only when this is non-zero. A
/// 16-column [`fold_rows`] or [`fold_rows_finish_fp16`] call runs the
/// AVX-512 body, and [`build_rows_fp16`] writes each element's entries
/// as one 16-lane register, exactly when it is 16.
/// Benchmarks record it to name the body behind their numbers.
pub fn fold_lanes() -> usize {
    static LANES: OnceLock<usize> = OnceLock::new();
    *LANES.get_or_init(|| {
        if !avx2_available() || !self_test() {
            0
        } else if avx512_available() {
            16
        } else {
            8
        }
    })
}

/// Which body an entry point runs: the scalar reference, the AVX2 body
/// (on each 8-lane half of a 16-lane tile) or the AVX-512 body (16-lane
/// tiles, the table build and the finish). The dispatching entry points
/// pick one; the self-test and the tests name one to check it directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Body {
    Scalar,
    Avx2,
    Avx512,
}

impl Body {
    /// Whether the running CPU has this body's instruction set.
    pub(crate) fn available(self) -> bool {
        match self {
            Body::Scalar => true,
            Body::Avx2 => avx2_available(),
            Body::Avx512 => avx512_available(),
        }
    }

    /// Whether this body can take `L` lanes here: the AVX-512 body takes
    /// 16 lanes only.
    pub(crate) fn runs<const L: usize>(self) -> bool {
        self.available() && (self != Body::Avx512 || L == 16)
    }

    /// Whether this body can fold an `L`-lane tile of `seg_len` code
    /// bytes per lane here: [`Body::runs`], and the vector bodies read
    /// whole u64 code words.
    pub(crate) fn folds<const L: usize>(self, seg_len: usize) -> bool {
        self.runs::<L>() && (self == Body::Scalar || seg_len.is_multiple_of(8))
    }

    /// The body a dispatching entry point runs on `L` lanes: AVX-512 at
    /// 16 lanes where [`fold_lanes`] is 16, else AVX2 where the CPU has
    /// it, else the scalar reference.
    pub(crate) fn for_lanes<const L: usize>() -> Body {
        if L == 16 && fold_lanes() == 16 {
            Body::Avx512
        } else if avx2_available() {
            Body::Avx2
        } else {
            Body::Scalar
        }
    }

    /// The body [`fold_rows`] and [`fold_rows_finish_fp16`] run for an
    /// `L`-lane tile of `seg_len` code bytes per lane: [`Body::for_lanes`],
    /// or the scalar reference for a segment of partial code words.
    pub(crate) fn for_fold<const L: usize>(seg_len: usize) -> Body {
        if seg_len.is_multiple_of(8) {
            Body::for_lanes::<L>()
        } else {
            Body::Scalar
        }
    }
}

/// Set while a [`count_wide_folds`] probe runs.
static COUNT_WIDE: AtomicBool = AtomicBool::new(false);
/// AVX-512 tile folds made while [`COUNT_WIDE`] was set.
static WIDE_FOLDS: AtomicU64 = AtomicU64::new(0);

/// Count one AVX-512 tile fold if a probe is running.
fn note_wide_fold() {
    if COUNT_WIDE.load(Ordering::Relaxed) {
        WIDE_FOLDS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Run `f` and return its result with the number of tile folds the
/// AVX-512 body ran meanwhile, on any thread: how a test shows that an
/// engine call really took the 16-lane body. While no probe runs, the
/// count costs one relaxed load per 16-lane fold. Nesting restores the
/// previous state on exit, including on panic; concurrent probes see
/// each other's folds (the counter is process-global).
pub fn count_wide_folds<R>(f: impl FnOnce() -> R) -> (R, u64) {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            COUNT_WIDE.store(self.0, Ordering::Relaxed);
        }
    }
    let _restore = Restore(COUNT_WIDE.swap(true, Ordering::Relaxed));
    let before = WIDE_FOLDS.load(Ordering::Relaxed);
    let r = f();
    (r, WIDE_FOLDS.load(Ordering::Relaxed).wrapping_sub(before))
}

/// One-shot power-on self test of the vector kernels: run small
/// deterministic patterns through every vector body of the fold (the
/// AVX2 body at 8 lanes and, with AVX-512, the AVX-512 body at 16; one
/// to [`FOLD_ROWS`] rows, one- and mixed-unit tiles, a forced
/// cancellation), FP16 encode, the table build and the finish on each
/// body, and the attention kernel with its `exp` and its code-page
/// lookups, and through their portable references.
/// Returns `true` when every pair agrees bit-for-bit (or when the CPU
/// has no AVX2, in which case no vector path can run). Cached after the
/// first call; the reliability ladder consults it (through
/// [`fold_lanes`]) before trusting the vector LUT rung, and
/// [`attend_heads`] before taking its AVX2 body, so a machine whose
/// vector unit fails *any* of the kernels loses the whole rung instead
/// of silently corrupting. It calls the bodies directly, never a
/// dispatching entry point.
pub fn self_test() -> bool {
    static RESULT: OnceLock<bool> = OnceLock::new();
    *RESULT.get_or_init(|| {
        if !avx2_available() {
            return true;
        }
        fold_self_check::<8>(Body::Avx2)
            && (!avx512_available() || fold_self_check::<16>(Body::Avx512))
            && fp16::self_check()
            && attention::self_check()
    })
}

/// The fold part of [`self_test`]: `body` at `L` lanes against
/// [`scalar_gather_group`] on a fixed pattern.
///
/// 3 "units" × 16 k-steps × 16 entries per row, [`FOLD_ROWS`] rows,
/// filled with a fixed mixed pattern: FP16-range exponents, signed
/// increments, and periodic zero entries. Each unit's k-step 1 negates
/// k-step 0, and every lane reads one code at both, so every running sum
/// cancels to 0 and must re-anchor at k-step 2. Tiles read one unit, a
/// unit changing every column, and three units changing every four
/// columns, at one to four rows.
fn fold_self_check<const L: usize>(body: Body) -> bool {
    let seg_len = 8usize;
    let seg = seg_len * 32;
    let stride = 3 * seg;
    let mut table: Vec<i32> = (0..FOLD_ROWS * stride)
        .map(|i| {
            if i % 7 == 0 {
                return 0;
            }
            let exp = (i * 11 % 31) as i32;
            let inc = ((i * 2654435761usize % 8191) as i32) - 4095;
            (exp << 16) | (inc & 0xffff)
        })
        .collect();
    for unit in (0..FOLD_ROWS * stride).step_by(seg) {
        for c in 0..16 {
            let e = table[unit + c];
            table[unit + 16 + c] = (e & !0xffff) | (-(e as i16 as i32) & 0xffff);
        }
    }
    let mut planes: Vec<u8> = (0..L * seg_len)
        .map(|i| (i * 37 + i / 8 * 101) as u8)
        .collect();
    for l in 0..L {
        planes[l * seg_len] = (3 + l as u8) % 16 * 0x11;
    }
    let offsets: [usize; L] = std::array::from_fn(|l| l * seg_len);
    let codes = lane_codes(&planes, &offsets, seg_len);
    let unit_of: [fn(usize) -> usize; 3] = [|_| 1, |l| l % 2, |l| l / 4 % 3];
    unit_of.iter().all(|unit_of| {
        let bases: [i32; L] = std::array::from_fn(|l| (unit_of(l) * seg) as i32);
        (1..=FOLD_ROWS).all(|rows| {
            let (sig, exp) = fold_rows_on(
                body, &table, stride, rows, &bases, &planes, &offsets, seg_len,
            );
            (0..rows).all(|r| {
                let (s, e) = scalar_gather_group(&table[r * stride..], &bases, &codes);
                (0..L).all(|l| s[l] == sig[r][l] && (s[l] == 0 || e[l] == exp[r][l]))
            })
        })
    })
}

/// Most activation rows one [`fold_rows`] call folds: each row keeps an
/// `(sig, exp)` register pair, and four pairs leave room for the tile's
/// codes, lookup temporaries and unit masks.
pub const FOLD_ROWS: usize = 4;

/// Accumulator lanes of one row block of an `L`-column tile as
/// [`fold_rows`] returns them: `.0[r][l]` is row `r`'s significand in
/// column lane `l`, `.1[r][l]` its anchor exponent. Rows at or past the
/// call's `rows` stay zero.
pub type FoldLanes<const L: usize> = ([[i32; L]; FOLD_ROWS], [[i32; L]; FOLD_ROWS]);

/// Fold one group × `L` columns (8 or 16) of packed 4-bit codes for a
/// block of `rows` activation rows (1 to [`FOLD_ROWS`]) — the
/// weight-stationary step: each column's codes are decoded once and
/// serve every row.
///
/// Row `r`'s table starts at `table[r * row_stride]`. Lane `l` reads its
/// codes from `planes[offsets[l]..offsets[l] + seg_len]` (low nibble =
/// even k-step, the packed plane layout) and its entries from the
/// 16-entry rows starting at `bases[l]` inside each row's table — the
/// lane's unit segment. For every row `r` and lane `l` the result is
/// [`scalar_gather_group`] on `&table[r * row_stride..]` with the same
/// bases and codes, bit for bit (except `exp` where `sig == 0`, a dead
/// anchor nothing downstream reads).
///
/// When `seg_len` fills whole u64 code words, a 16-lane call runs the
/// AVX-512 body where [`fold_lanes`] is 16 and the AVX2 body on each
/// 8-lane half otherwise; an 8-lane call runs the AVX2 body. Without
/// AVX2, or on a ragged segment, the scalar reference runs.
///
/// # Panics
///
/// Panics unless `1 ≤ rows ≤ FOLD_ROWS`, every lane's code segment lies
/// inside `planes`, and every lane's unit segment of every row
/// (`r * row_stride + bases[l] .. + seg_len * 32`) lies inside `table` —
/// the bounds that make the vector paths' raw loads sound.
pub fn fold_rows<const L: usize>(
    table: &[i32],
    row_stride: usize,
    rows: usize,
    bases: &[i32; L],
    planes: &[u8],
    offsets: &[usize; L],
    seg_len: usize,
) -> FoldLanes<L> {
    let body = Body::for_fold::<L>(seg_len);
    fold_rows_on(
        body, table, row_stride, rows, bases, planes, offsets, seg_len,
    )
}

/// [`fold_rows`] on a named body — the self-test and the tests check
/// each body through this.
///
/// # Panics
///
/// On [`fold_rows`]'s bounds violations, or unless `body` can fold this
/// tile here ([`Body::folds`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn fold_rows_on<const L: usize>(
    body: Body,
    table: &[i32],
    row_stride: usize,
    rows: usize,
    bases: &[i32; L],
    planes: &[u8],
    offsets: &[usize; L],
    seg_len: usize,
) -> FoldLanes<L> {
    check_fold_bounds(table, row_stride, rows, bases, planes, offsets, seg_len);
    assert!(
        body.folds::<L>(seg_len),
        "{body:?} cannot fold {L} lanes of {seg_len} bytes here"
    );
    let mut lanes: FoldLanes<L> = ([[0; L]; FOLD_ROWS], [[0; L]; FOLD_ROWS]);
    let (t, rs, p, sl) = (table, row_stride, planes, seg_len);
    match body {
        #[cfg(target_arch = "x86_64")]
        Body::Avx512 => {
            note_wide_fold();
            let units = LaneUnits::of(bases);
            let offs: [usize; 16] = std::array::from_fn(|l| offsets[l]);
            // SAFETY: AVX-512F confirmed by `folds`; `seg_len` is a
            // multiple of 8 and every code and table segment was
            // bounds-checked above — `avx512_fold`'s contract.
            let got = unsafe { with_rows!(rows, avx512_fold_store(t, rs, &units, p, &offs, sl)) };
            place(&mut lanes, &got, 0);
        }
        #[cfg(target_arch = "x86_64")]
        Body::Avx2 => {
            for h in 0..L / 8 {
                let units = LaneUnits::of(&bases[8 * h..8 * h + 8]);
                let offs: [usize; 8] = std::array::from_fn(|l| offsets[8 * h + l]);
                // SAFETY: AVX2 confirmed by `folds`; `seg_len` is a
                // multiple of 8 and every code and table segment was
                // bounds-checked above — `avx2_fold`'s contract.
                let got = unsafe { with_rows!(rows, avx2_fold_store(t, rs, &units, p, &offs, sl)) };
                place(&mut lanes, &got, 8 * h);
            }
        }
        _ => {
            let codes = lane_codes(planes, offsets, seg_len);
            for r in 0..rows {
                (lanes.0[r], lanes.1[r]) =
                    scalar_gather_group(&table[r * row_stride..], bases, &codes);
            }
        }
    }
    lanes
}

/// Copy a body's `W` lanes into lanes `lane0..lane0 + W` of an
/// `L`-lane result.
#[cfg(target_arch = "x86_64")]
fn place<const W: usize, const L: usize>(
    lanes: &mut FoldLanes<L>,
    part: &FoldLanes<W>,
    lane0: usize,
) {
    for r in 0..FOLD_ROWS {
        lanes.0[r][lane0..lane0 + W].copy_from_slice(&part.0[r]);
        lanes.1[r][lane0..lane0 + W].copy_from_slice(&part.1[r]);
    }
}

/// The lanes' code segments carved out of one plane shard.
fn lane_codes<'a, const L: usize>(
    planes: &'a [u8],
    offsets: &[usize; L],
    seg_len: usize,
) -> [&'a [u8]; L] {
    std::array::from_fn(|l| &planes[offsets[l]..offsets[l] + seg_len])
}

/// The bounds that make the vector folds' raw loads sound: a tile of 8
/// or 16 lanes, a row count the kernels are instantiated for, every
/// lane's code segment inside `planes`, and every lane's unit segment of
/// the block's last row (hence of every row) inside `table`. The widest
/// lane on each side decides, so the passing case costs a min/max sweep;
/// on a failure the per-lane checks name the lane. Sums saturate, so no
/// wrap can sneak an escaping segment past the comparison.
pub(crate) fn check_fold_bounds<const L: usize>(
    table: &[i32],
    row_stride: usize,
    rows: usize,
    bases: &[i32; L],
    planes: &[u8],
    offsets: &[usize; L],
    seg_len: usize,
) {
    const { assert!(L == 8 || L == 16, "a fold tile is 8 or 16 columns") };
    assert!(
        (1..=FOLD_ROWS).contains(&rows),
        "row block of {rows} rows (1..={FOLD_ROWS})"
    );
    let last_row = (rows - 1).saturating_mul(row_stride);
    let seg_entries = seg_len.saturating_mul(32);
    let max_offset = offsets.iter().fold(0, |m, &o| m.max(o));
    let (min_base, max_base) = bases
        .iter()
        .fold((i32::MAX, i32::MIN), |(lo, hi), &b| (lo.min(b), hi.max(b)));
    if max_offset.saturating_add(seg_len) <= planes.len()
        && min_base >= 0
        && last_row
            .saturating_add(max_base as usize)
            .saturating_add(seg_entries)
            <= table.len()
    {
        return;
    }
    for l in 0..L {
        assert!(
            offsets[l].saturating_add(seg_len) <= planes.len(),
            "lane {l} codes [{}, +{seg_len}) escape planes of {}",
            offsets[l],
            planes.len()
        );
        let start = last_row.saturating_add(bases[l] as usize);
        let end = start.saturating_add(seg_entries);
        assert!(
            bases[l] >= 0 && end <= table.len(),
            "lane {l} segment [{start}, {end}) escapes table of {}",
            table.len()
        );
    }
}

/// Scalar reference for [`fold_rows`] (one row): the sequential-branch
/// form of the fold, one lane at a time.
///
/// For lane `l`, the fold visits `codes[l]` byte by byte (low nibble =
/// even k-step, high nibble = odd, matching the packed plane layout)
/// and for byte `bi` with nibble `c` looks up
/// `table[bases[l] + (2 * bi + half) * 16 + c]`, folding entries in
/// ascending k order. Lanes are independent columns; `bases[l]` points
/// at the lane's unit segment, laid out as 16-entry rows. Public so the
/// engine's tests and this crate's equivalence tests can call it
/// directly.
pub fn scalar_gather_group<const L: usize>(
    table: &[i32],
    bases: &[i32; L],
    codes: &[&[u8]; L],
) -> ([i32; L], [i32; L]) {
    let mut sig = [0i32; L];
    let mut exp = [0i32; L];
    for l in 0..L {
        let base = bases[l] as usize;
        for (bi, &byte) in codes[l].iter().enumerate() {
            for (half, c) in [(0, byte as usize & 0xf), (1, byte as usize >> 4)] {
                let e = table[base + (2 * bi + half) * 16 + c];
                let (pexp, pinc) = (e >> 16, (e as i16) as i32);
                if sig[l] == 0 {
                    if pinc != 0 {
                        exp[l] = pexp;
                        sig[l] = pinc;
                    }
                    continue;
                }
                if pexp <= exp[l] {
                    // Entry exponents are < 256, so gaps fit a u32
                    // shift only after clamping like the wide fold.
                    sig[l] += pinc >> (exp[l] - pexp).min(31);
                } else {
                    sig[l] = (sig[l] >> (pexp - exp[l]).min(31)) + pinc;
                    exp[l] = pexp;
                }
            }
        }
    }
    (sig, exp)
}

/// The distinct unit segments among a tile's lanes (at most 16): `base[u]`
/// is segment `u`'s start in a row's table and bit `l` of `mask[u]` is
/// set for the lanes reading it. Derived per call from the lane bases,
/// so a tile whose columns span several units needs no stored state.
pub(crate) struct LaneUnits {
    count: usize,
    base: [usize; 16],
    mask: [u16; 16],
}

impl LaneUnits {
    /// Group the lanes by base (bases are assumed non-negative — the
    /// bounds check runs first).
    pub(crate) fn of(bases: &[i32]) -> LaneUnits {
        let mut units = LaneUnits {
            count: 0,
            base: [0; 16],
            mask: [0; 16],
        };
        let bases = &bases[..bases.len().min(16)];
        if let Some(&b0) = bases.first() {
            if bases.iter().all(|&b| b == b0) {
                // The common tile: one unit (`block_cols` ≥ the tile).
                units.count = 1;
                units.base[0] = b0 as usize;
                units.mask[0] = ((1u32 << bases.len()) - 1) as u16;
                return units;
            }
        }
        for (l, &b) in bases.iter().enumerate() {
            let b = b as usize;
            let u = match units.base[..units.count].iter().position(|&x| x == b) {
                Some(u) => u,
                None => {
                    units.base[units.count] = b;
                    units.count += 1;
                    units.count - 1
                }
            };
            units.mask[u] |= 1 << l;
        }
        units
    }

    /// Whether the tile spans more than one unit segment.
    pub(crate) fn is_mixed(&self) -> bool {
        self.count > 1
    }
}

/// [`fold_rows`]'s AVX2 body with the lanes stored out, for `R` rows.
///
/// # Safety
///
/// [`avx2_fold`]'s contract.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_fold_store<const R: usize>(
    table: &[i32],
    row_stride: usize,
    units: &LaneUnits,
    planes: &[u8],
    offsets: &[usize; 8],
    seg_len: usize,
) -> FoldLanes<8> {
    use std::arch::x86_64::*;
    let (sig, exp) = if units.is_mixed() {
        avx2_fold::<R, true>(table, row_stride, units, planes, offsets, seg_len)
    } else {
        avx2_fold::<R, false>(table, row_stride, units, planes, offsets, seg_len)
    };
    let mut lanes: FoldLanes<8> = ([[0; 8]; FOLD_ROWS], [[0; 8]; FOLD_ROWS]);
    for r in 0..R {
        _mm256_storeu_si256(lanes.0[r].as_mut_ptr() as *mut __m256i, sig[r]);
        _mm256_storeu_si256(lanes.1[r].as_mut_ptr() as *mut __m256i, exp[r]);
    }
    lanes
}

/// One group × eight columns × `R` rows in AVX2, leaving the `(sig,
/// exp)` lanes in registers for the caller's epilogue.
///
/// **Lookup.** Per k-step the tile's eight code nibbles are extracted
/// once, for every row: the lanes' u64 code words are transposed into
/// two 8 × u32 vectors (k-steps 0–7 and 8–15), so k-step `s`'s nibbles
/// sit in bits `4s..4s+4` of each lane. A unit's 16-entry table row is
/// two `ymm` registers; `vpermd` on each half picks entry `c & 7` per
/// lane (it reads only an index's low three bits, so the nibbles need
/// no masking), and a `blendv` on bit 3 of the nibble (shifted to the
/// sign bit) chooses the half. With `MIXED`, every distinct unit of the
/// tile is looked up this way and blended in by its lane mask. Every
/// load address is the row's table segment plus the k-step — none
/// depends on a weight code.
///
/// **Fold.** The rows' adder chains run side by side. Each is the
/// branchless max-anchor form of [`scalar_gather_group`]'s adder with a
/// blend-free re-anchor: a `sig == 0` lane's exponent is cleared
/// (`andnot`) before the max, so the anchor becomes the entry's own
/// exponent (entry exponents are ≥ 0), the zero significand shifts to
/// 0 and the increment shifts by 0 — the scalar re-anchor, result for
/// result. On a zero entry it leaves `exp = pexp` where the scalar
/// path keeps its old anchor, but only while `sig == 0`, whose anchor
/// nothing observes: the next non-zero add re-anchors, and
/// normalization returns 0 without reading it. i32 significand lanes
/// are exact because the engine bounds the running sum below 2^31
/// (`gs · 2^(man_bits+3)` gate), and `vpsravd` fills with sign bits for
/// shift counts ≥ 32 — what the reference's `.min(31)` gives on i32.
///
/// # Safety
///
/// Caller must guarantee AVX2 is available, `seg_len` is a multiple of
/// 8, every `offsets[l] + seg_len <= planes.len()`, and for every unit
/// `(R - 1) * row_stride + units.base[u] + seg_len * 32 <= table.len()`
/// (each code byte addresses two 16-entry rows).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
pub(crate) unsafe fn avx2_fold<const R: usize, const MIXED: bool>(
    table: &[i32],
    row_stride: usize,
    units: &LaneUnits,
    planes: &[u8],
    offsets: &[usize; 8],
    seg_len: usize,
) -> (
    [std::arch::x86_64::__m256i; R],
    [std::arch::x86_64::__m256i; R],
) {
    use std::arch::x86_64::*;
    let zero = _mm256_setzero_si256();
    let mut sig = [zero; R];
    let mut exp = [zero; R];
    let tp = table.as_ptr();
    let pp = planes.as_ptr();
    // The tile's other units (none unless `MIXED`), blended in by lane
    // mask over the first unit's entries.
    let nu = if MIXED { units.count } else { 1 };
    let lane_bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    let mut umask = [zero; 8];
    for (m, &bits) in umask.iter_mut().zip(&units.mask).take(nu) {
        let sel = _mm256_and_si256(_mm256_set1_epi32(bits as i32), lane_bit);
        *m = _mm256_cmpeq_epi32(sel, lane_bit);
    }
    let (other_bases, other_masks) = (&units.base[1..nu], &umask[1..nu]);
    for blk in 0..seg_len / 8 {
        // The eight lanes' code words, transposed into one u32 per lane
        // for k-steps 0–7 (`words[0]`) and 8–15 (`words[1]`).
        let mut w = [0u64; 8];
        for (l, wl) in w.iter_mut().enumerate() {
            *wl = (pp.add(offsets[l] + blk * 8) as *const u64).read_unaligned();
        }
        let a = _mm256_castsi256_ps(_mm256_loadu_si256(w.as_ptr() as *const __m256i));
        let b = _mm256_castsi256_ps(_mm256_loadu_si256(w.as_ptr().add(4) as *const __m256i));
        // `shufps` leaves lane order 0 1 4 5 2 3 6 7; `vpermq` restores it.
        let words = [
            _mm256_permute4x64_epi64::<0xd8>(_mm256_castps_si256(_mm256_shuffle_ps::<0x88>(a, b))),
            _mm256_permute4x64_epi64::<0xd8>(_mm256_castps_si256(_mm256_shuffle_ps::<0xdd>(a, b))),
        ];
        for (half, &word) in words.iter().enumerate() {
            let mut idx = word;
            for s in 0..8 {
                let sel = _mm256_slli_epi32::<28>(idx);
                let step = (blk * 16 + half * 8 + s) * 16;
                for r in 0..R {
                    let row = tp.add(r * row_stride + step);
                    let mut e = avx2_lookup(row.add(units.base[0]), idx, sel);
                    for (&base, &mask) in other_bases.iter().zip(other_masks) {
                        e = _mm256_blendv_epi8(e, avx2_lookup(row.add(base), idx, sel), mask);
                    }
                    // Entry split: high half = biased exponent (≤ 255, so
                    // the arithmetic shift is exact), low half = signed
                    // increment.
                    let pexp = _mm256_srai_epi32::<16>(e);
                    let pinc = _mm256_srai_epi32::<16>(_mm256_slli_epi32::<16>(e));
                    let live = _mm256_andnot_si256(_mm256_cmpeq_epi32(sig[r], zero), exp[r]);
                    let anchor = _mm256_max_epi32(live, pexp);
                    let ssh = _mm256_srav_epi32(sig[r], _mm256_sub_epi32(anchor, live));
                    let ish = _mm256_srav_epi32(pinc, _mm256_sub_epi32(anchor, pexp));
                    sig[r] = _mm256_add_epi32(ssh, ish);
                    exp[r] = anchor;
                }
                idx = _mm256_srli_epi32::<4>(idx);
            }
        }
    }
    (sig, exp)
}

/// Entry of the 16-entry table row at `row` for every lane's nibble:
/// `vpermd` on each 8-entry half (`idx`'s low three bits), then the
/// sign bit of `sel` — the nibble's bit 3 — picks the half.
///
/// # Safety
///
/// Caller must guarantee AVX2 is available and `row[0..16]` readable.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn avx2_lookup(
    row: *const i32,
    idx: std::arch::x86_64::__m256i,
    sel: std::arch::x86_64::__m256i,
) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    let lo = _mm256_permutevar8x32_epi32(_mm256_loadu_si256(row as *const __m256i), idx);
    let hi = _mm256_permutevar8x32_epi32(_mm256_loadu_si256(row.add(8) as *const __m256i), idx);
    _mm256_castps_si256(_mm256_blendv_ps(
        _mm256_castsi256_ps(lo),
        _mm256_castsi256_ps(hi),
        _mm256_castsi256_ps(sel),
    ))
}

/// [`fold_rows`]'s AVX-512 body with the lanes stored out, for `R` rows.
///
/// # Safety
///
/// [`avx512_fold`]'s contract.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn avx512_fold_store<const R: usize>(
    table: &[i32],
    row_stride: usize,
    units: &LaneUnits,
    planes: &[u8],
    offsets: &[usize; 16],
    seg_len: usize,
) -> FoldLanes<16> {
    use std::arch::x86_64::*;
    let (sig, exp) = if units.is_mixed() {
        avx512_fold::<R, true>(table, row_stride, units, planes, offsets, seg_len)
    } else {
        avx512_fold::<R, false>(table, row_stride, units, planes, offsets, seg_len)
    };
    let mut lanes: FoldLanes<16> = ([[0; 16]; FOLD_ROWS], [[0; 16]; FOLD_ROWS]);
    for r in 0..R {
        _mm512_storeu_si512(lanes.0[r].as_mut_ptr() as *mut __m512i, sig[r]);
        _mm512_storeu_si512(lanes.1[r].as_mut_ptr() as *mut __m512i, exp[r]);
    }
    lanes
}

/// One group × sixteen columns × `R` rows in AVX-512, leaving the
/// `(sig, exp)` lanes in registers for the caller's epilogue.
///
/// **Lookup.** As in [`avx2_fold`], the lanes' u64 code words are
/// transposed once per 16 k-steps (two `vpermt2d` pick the low and the
/// high u32 of each word), so k-step `s`'s nibbles sit in bits
/// `4s..4s+4` of each lane. A unit's 16-entry table row is one `zmm`,
/// and `vpermd` on a `zmm` reads only an index's low four bits: one
/// load and one permute look the row up for all sixteen columns, with
/// no blend and no masking. With `MIXED`, each further unit of the tile
/// is merged in by a masked permute under that unit's lane mask. Every
/// load address is the row's table segment plus the k-step — none
/// depends on a weight code.
///
/// **Fold.** The re-anchor takes a mask instead of `andnot`:
/// `anchor = max(exp, pexp)` on lanes with `sig != 0` and `pexp` on the
/// others, then `sig = (sig >> (anchor − exp)) + (pinc >> (anchor −
/// pexp))` and `exp = anchor`. This is [`avx2_fold`]'s result for
/// result: on a live lane both anchors are the max of the same pair,
/// and on a dead lane both are `pexp` (the AVX2 form's cleared exponent
/// is 0 ≤ `pexp`), where the zero significand shifts to 0 whatever the
/// count. `vpsravd` on a `zmm` fills with sign bits for counts ≥ 32
/// exactly as on a `ymm`, and the i32 bound on the running sum is the
/// engine's same `gs · 2^(man_bits+3)` gate.
///
/// # Safety
///
/// Caller must guarantee AVX-512F is available, `seg_len` is a multiple
/// of 8, every `offsets[l] + seg_len <= planes.len()`, and for every
/// unit `(R - 1) * row_stride + units.base[u] + seg_len * 32 <=
/// table.len()` (each code byte addresses two 16-entry rows).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
pub(crate) unsafe fn avx512_fold<const R: usize, const MIXED: bool>(
    table: &[i32],
    row_stride: usize,
    units: &LaneUnits,
    planes: &[u8],
    offsets: &[usize; 16],
    seg_len: usize,
) -> (
    [std::arch::x86_64::__m512i; R],
    [std::arch::x86_64::__m512i; R],
) {
    use std::arch::x86_64::*;
    let zero = _mm512_setzero_si512();
    let mut sig = [zero; R];
    let mut exp = [zero; R];
    let tp = table.as_ptr();
    let pp = planes.as_ptr();
    let nu = if MIXED { units.count } else { 1 };
    let (other_bases, other_masks) = (&units.base[1..nu], &units.mask[1..nu]);
    // Word `l` of the low (high) transpose is u32 `2l` (`2l + 1`) of the
    // 16 code words held in two registers (lanes 0–7, then 8–15).
    let low_words = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
    let high_words = _mm512_add_epi32(low_words, _mm512_set1_epi32(1));
    for blk in 0..seg_len / 8 {
        let mut w = [0u64; 16];
        for (l, wl) in w.iter_mut().enumerate() {
            *wl = (pp.add(offsets[l] + blk * 8) as *const u64).read_unaligned();
        }
        let a = _mm512_loadu_si512(w.as_ptr() as *const __m512i);
        let b = _mm512_loadu_si512(w.as_ptr().add(8) as *const __m512i);
        let words = [
            _mm512_permutex2var_epi32(a, low_words, b),
            _mm512_permutex2var_epi32(a, high_words, b),
        ];
        for (half, &word) in words.iter().enumerate() {
            let mut idx = word;
            for s in 0..8 {
                let step = (blk * 16 + half * 8 + s) * 16;
                for r in 0..R {
                    let row = tp.add(r * row_stride + step);
                    let first = _mm512_loadu_si512(row.add(units.base[0]) as *const __m512i);
                    let mut e = _mm512_permutexvar_epi32(idx, first);
                    for (&base, &mask) in other_bases.iter().zip(other_masks) {
                        let unit = _mm512_loadu_si512(row.add(base) as *const __m512i);
                        e = _mm512_mask_permutexvar_epi32(e, mask, idx, unit);
                    }
                    let pexp = _mm512_srai_epi32::<16>(e);
                    let pinc = _mm512_srai_epi32::<16>(_mm512_slli_epi32::<16>(e));
                    let live = _mm512_test_epi32_mask(sig[r], sig[r]);
                    let anchor = _mm512_mask_max_epi32(pexp, live, exp[r], pexp);
                    let ssh = _mm512_srav_epi32(sig[r], _mm512_sub_epi32(anchor, exp[r]));
                    let ish = _mm512_srav_epi32(pinc, _mm512_sub_epi32(anchor, pexp));
                    sig[r] = _mm512_add_epi32(ssh, ish);
                    exp[r] = anchor;
                }
                idx = _mm512_srli_epi32::<4>(idx);
            }
        }
    }
    (sig, exp)
}

/// One-shot self test of the W4A8 vector kernel: dot a deterministic
/// pattern through both the AVX2 `maddubs` path and the scalar
/// reference. `true` when they agree bit-for-bit (or when the CPU has
/// no AVX2). Cached; the W4A8 tier consults it before trusting the
/// vector rung, mirroring [`self_test`] for the LUT fold.
pub fn block_dots_self_test() -> bool {
    use std::sync::OnceLock;
    static RESULT: OnceLock<bool> = OnceLock::new();
    *RESULT.get_or_init(|| {
        if !avx2_available() {
            return true;
        }
        let n = 4 * 32;
        let w: Vec<u8> = (0..n).map(|i| ((i * 37 + 11) % 129) as u8).collect();
        let a: Vec<i8> = (0..n)
            .map(|i| (((i * 2654435761usize) % 255) as i32 - 127) as i8)
            .collect();
        let mut want = vec![0i32; 4];
        let mut got = vec![0i32; 4];
        block_dots_u8i8_scalar(&w, &a, &mut want);
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 confirmed above; slices sized to 4 whole blocks.
        unsafe {
            avx2_block_dots_u8i8(&w, &a, &mut got)
        };
        want == got
    })
}

/// Per-block integer dot products for the W4A8 tier: for each
/// 32-element block `b`, `dots[b] = Σ_j w[32b+j] · a[32b+j]` with `w`
/// read as unsigned bytes and `a` as signed bytes, in exact i32
/// arithmetic.
///
/// The engine stores 4-bit weight codes as offset integers
/// `w = wint + 64 ∈ [0, 128]` and Q8 activation codes `a ∈ [-127, 127]`;
/// the `+64` offset is folded back out by the caller via the block's
/// compensation sum. Keeping `w ≤ 128` bounds each adjacent pair at
/// `2 · 128 · 127 = 32512 < 2^15`, so the AVX2 `vpmaddubsw` path cannot
/// saturate and all three paths (AVX2, SWAR, scalar) are bit-identical
/// — the in-crate tests pin this.
///
/// # Panics
///
/// Panics unless `w.len() == a.len() == dots.len() * 32`. Debug builds
/// additionally assert the `w ≤ 128` no-saturation bound.
pub fn block_dots_u8i8(w: &[u8], a: &[i8], dots: &mut [i32]) {
    assert_eq!(w.len(), a.len(), "weight/activation length mismatch");
    assert_eq!(w.len(), dots.len() * 32, "inputs must be whole 32-blocks");
    debug_assert!(
        w.iter().all(|&x| x <= 128),
        "offset weight codes must stay ≤ 128 (maddubs saturation bound)"
    );
    #[cfg(target_arch = "x86_64")]
    if avx2_available() && block_dots_self_test() {
        // SAFETY: AVX2 confirmed at runtime; lengths asserted above.
        return unsafe { avx2_block_dots_u8i8(w, a, dots) };
    }
    block_dots_u8i8_swar(w, a, dots);
}

/// SWAR form of [`block_dots_u8i8`]: eight-byte word loads with in-word
/// byte extraction, four words per block. Same exact i32 result as the
/// scalar reference; this is the portable fast rung the dispatch falls
/// back to without AVX2.
pub fn block_dots_u8i8_swar(w: &[u8], a: &[i8], dots: &mut [i32]) {
    assert_eq!(w.len(), a.len(), "weight/activation length mismatch");
    assert_eq!(w.len(), dots.len() * 32, "inputs must be whole 32-blocks");
    for (b, d) in dots.iter_mut().enumerate() {
        let mut acc = 0i32;
        for word in 0..4 {
            let o = b * 32 + word * 8;
            // The slices are exactly 8 bytes, so the conversions cannot
            // fail.
            #[allow(clippy::unwrap_used)]
            let ww = u64::from_le_bytes(w[o..o + 8].try_into().unwrap());
            #[allow(clippy::unwrap_used)]
            let aw = u64::from_le_bytes(
                <[i8; 8]>::try_from(&a[o..o + 8]).unwrap().map(|v| v as u8),
            );
            for i in 0..8 {
                let wb = ((ww >> (8 * i)) & 0xff) as i32;
                let ab = ((aw >> (8 * i)) & 0xff) as u8 as i8 as i32;
                acc += wb * ab;
            }
        }
        *d = acc;
    }
}

/// Scalar reference for [`block_dots_u8i8`], one element at a time.
/// Public so the engine's tests and this crate's equivalence tests can
/// call it directly.
pub fn block_dots_u8i8_scalar(w: &[u8], a: &[i8], dots: &mut [i32]) {
    assert_eq!(w.len(), a.len(), "weight/activation length mismatch");
    assert_eq!(w.len(), dots.len() * 32, "inputs must be whole 32-blocks");
    for (b, d) in dots.iter_mut().enumerate() {
        let mut acc = 0i32;
        for j in 0..32 {
            acc += w[b * 32 + j] as i32 * a[b * 32 + j] as i32;
        }
        *d = acc;
    }
}

/// [`block_dots_u8i8`] in AVX2: one 256-bit load per operand per block,
/// `vpmaddubsw` (u8 × i8 → adjacent-pair i16 sums), `vpmaddwd` against
/// ones to widen to eight i32 lanes, then a horizontal add.
///
/// Exactness: the caller keeps `w ≤ 128`, so each adjacent pair is
/// bounded by `2 · 128 · 127 = 32512 < 2^15` and `vpmaddubsw` never
/// saturates; every later step is exact i32 addition.
///
/// # Safety
///
/// Caller must guarantee AVX2 is available and
/// `w.len() == a.len() == dots.len() * 32`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_block_dots_u8i8(w: &[u8], a: &[i8], dots: &mut [i32]) {
    use std::arch::x86_64::*;
    let ones = _mm256_set1_epi16(1);
    for (b, d) in dots.iter_mut().enumerate() {
        let wv = _mm256_loadu_si256(w.as_ptr().add(b * 32) as *const __m256i);
        let av = _mm256_loadu_si256(a.as_ptr().add(b * 32) as *const __m256i);
        let pairs = _mm256_maddubs_epi16(wv, av);
        let quads = _mm256_madd_epi16(pairs, ones);
        let lo = _mm256_castsi256_si128(quads);
        let hi = _mm256_extracti128_si256::<1>(quads);
        let s4 = _mm_add_epi32(lo, hi);
        let s2 = _mm_add_epi32(s4, _mm_shuffle_epi32::<0b00_00_11_10>(s4));
        let s1 = _mm_add_epi32(s2, _mm_shuffle_epi32::<0b00_00_00_01>(s2));
        *d = _mm_cvtsi128_si32(s1);
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
    }

    /// The vector bodies that fold `L`-lane tiles — the AVX2 body (on
    /// each 8-lane half) and, at 16 lanes, the AVX-512 body — minus those
    /// the CPU lacks, each of which prints a skip line (shown under
    /// `--nocapture`), so a run says which bodies it tested.
    pub(crate) fn vector_bodies<const L: usize>(test: &str) -> Vec<Body> {
        let wanted: &[Body] = if L == 16 {
            &[Body::Avx2, Body::Avx512]
        } else {
            &[Body::Avx2]
        };
        wanted
            .iter()
            .copied()
            .filter(|&body| {
                let runs = body.available();
                if !runs {
                    println!("{test}: skipped the {body:?} body at {L} lanes (CPU feature absent)");
                }
                runs
            })
            .collect()
    }

    /// Build a table whose entries look like real prepared products:
    /// FP16-ish exponents (0..=30), increments that fit 13 bits, with a
    /// sprinkling of exact-zero entries to exercise the re-anchor path.
    fn random_table(rng: &mut Rng, len: usize) -> Vec<i32> {
        (0..len)
            .map(|_| {
                let r = rng.next();
                if r.is_multiple_of(5) {
                    return 0;
                }
                let exp = (r >> 8) % 31;
                let inc = ((r >> 16) % 8191) as i32 - 4095;
                ((exp as i32) << 16) | (inc & 0xffff)
            })
            .collect()
    }

    /// A row block laid out like the engine's: `rows` row tables of
    /// `stride` entries, each holding `units` unit segments of
    /// `seg_len * 32` entries after a `pad`-entry gap, plus one plane
    /// shard of `L` columns (`plane_len` bytes each) and the lane
    /// bases/offsets of one group segment inside it. Lane `l` reads unit
    /// `lane_unit[l]`.
    struct Block<const L: usize> {
        table: Vec<i32>,
        stride: usize,
        planes: Vec<u8>,
        bases: [i32; L],
        offsets: [usize; L],
        seg_len: usize,
    }

    impl<const L: usize> Block<L> {
        fn new(rng: &mut Rng, rows: usize, lane_unit: [usize; L], seg_len: usize) -> Block<L> {
            let units = 1 + lane_unit.iter().max().copied().unwrap_or(0);
            let pad = 16 * (rng.next() % 3) as usize;
            let stride = pad + units * seg_len * 32 + 16 * (rng.next() % 2) as usize;
            let table = random_table(rng, rows * stride);
            let plane_len = seg_len + 8 * (rng.next() % 3) as usize;
            let seg0 = (rng.next() as usize) % (plane_len - seg_len + 1);
            let planes = (0..L * plane_len).map(|_| rng.next() as u8).collect();
            Block {
                table,
                stride,
                planes,
                bases: std::array::from_fn(|l| (pad + lane_unit[l] * seg_len * 32) as i32),
                offsets: std::array::from_fn(|l| l * plane_len + seg0),
                seg_len,
            }
        }

        fn fold(&self, body: Body, rows: usize) -> FoldLanes<L> {
            fold_rows_on(
                body,
                &self.table,
                self.stride,
                rows,
                &self.bases,
                &self.planes,
                &self.offsets,
                self.seg_len,
            )
        }

        /// Every row of a `rows`-row fold on `body` against the scalar
        /// reference: `(sig, exp)` pairs, except `exp` on dead (`sig ==
        /// 0`) lanes, which nothing downstream reads.
        fn assert_matches_reference(&self, body: Body, rows: usize, what: &str) {
            let got = self.fold(body, rows);
            let codes = lane_codes(&self.planes, &self.offsets, self.seg_len);
            for r in 0..rows {
                let (sig, exp) =
                    scalar_gather_group(&self.table[r * self.stride..], &self.bases, &codes);
                for l in 0..L {
                    assert_eq!(got.0[r][l], sig[l], "{body:?} sig row {r} lane {l}: {what}");
                    if sig[l] != 0 {
                        assert_eq!(got.1[r][l], exp[l], "{body:?} exp row {r} lane {l}: {what}");
                    }
                }
            }
            for r in rows..FOLD_ROWS {
                assert_eq!(
                    (got.0[r], got.1[r]),
                    ([0; L], [0; L]),
                    "{body:?} unused row {r}: {what}"
                );
            }
        }
    }

    /// 8-lane lane → unit maps with exactly 1, 2 and 3 distinct units:
    /// uniform, `block_cols` 4 and 2 style runs, and scattered.
    const LANE_UNITS_8: [[usize; 8]; 6] = [
        [0; 8],
        [0, 0, 0, 0, 1, 1, 1, 1],
        [1, 1, 0, 0, 1, 1, 0, 0],
        [0, 0, 1, 1, 2, 2, 0, 0],
        [2, 0, 1, 2, 0, 1, 2, 0],
        [1, 2, 2, 2, 2, 2, 2, 2],
    ];

    /// 16-lane maps with 1, 2 and 3 units, the unit changing every 8, 4,
    /// 2 and 1 columns (`block_cols` 8, 4, 2, 1), and one odd lane out.
    const LANE_UNITS_16: [[usize; 16]; 6] = [
        [0; 16],
        [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1],
        [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 0, 0, 0, 0],
        [1, 1, 0, 0, 2, 2, 1, 1, 0, 0, 2, 2, 1, 1, 0, 0],
        [2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2],
        [1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
    ];

    /// Random blocks over `maps`, 16–64 k-steps per lane, 1–4 rows, on
    /// every vector body of `L`-lane tiles.
    fn folds_match_reference<const L: usize>(maps: &[[usize; L]], seed: u64) {
        let mut rng = Rng(seed);
        let bodies = vector_bodies::<L>("vector_and_scalar_folds_are_bit_identical");
        for trial in 0..40 {
            let seg_len = 8 * (1 + trial % 4);
            for &lane_unit in maps {
                let block = Block::new(&mut rng, FOLD_ROWS, lane_unit, seg_len);
                for &body in &bodies {
                    for rows in 1..=FOLD_ROWS {
                        block.assert_matches_reference(
                            body,
                            rows,
                            &format!("trial {trial} {lane_unit:?}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn vector_and_scalar_folds_are_bit_identical() {
        folds_match_reference::<8>(&LANE_UNITS_8, 0x9e3779b97f4a7c15);
        folds_match_reference::<16>(&LANE_UNITS_16, 0x7f4a_7c15_9e37_79b9);
    }

    fn every_code_in_every_lane_at<const L: usize>(maps: &[[usize; L]]) {
        // 32 k-steps: lane l's nibble at k-step s is (s + 3l) mod 16, so
        // every lane reads all 16 codes, each at two different k-steps,
        // through every entry of every unit's rows.
        let mut rng = Rng(0xc0de_c0de_0000_0001);
        let bodies = vector_bodies::<L>("every_code_in_every_lane");
        for &lane_unit in maps {
            let mut block = Block::new(&mut rng, FOLD_ROWS, lane_unit, 16);
            for l in 0..L {
                for bi in 0..16 {
                    let nib = |s: usize| ((s + 3 * l) % 16) as u8;
                    block.planes[block.offsets[l] + bi] = nib(2 * bi) | (nib(2 * bi + 1) << 4);
                }
            }
            for &body in &bodies {
                for rows in 1..=FOLD_ROWS {
                    block.assert_matches_reference(body, rows, &format!("{lane_unit:?}"));
                }
            }
        }
    }

    #[test]
    fn every_code_in_every_lane() {
        every_code_in_every_lane_at::<8>(&LANE_UNITS_8);
        every_code_in_every_lane_at::<16>(&LANE_UNITS_16);
    }

    fn cancellation_re_anchors_at<const L: usize>() {
        // Per row, lane l folds: +x (exp 20), −x (exp 20) — the running
        // sum cancels to 0 at k-step 1 — then zero entries, then a
        // smaller-exponent entry that must re-anchor the lane (the
        // scalar path's `sig == 0` branch, the AVX2 body's cleared
        // exponent, the AVX-512 body's masked max), then ordinary
        // entries. Rows and lanes vary x and the step at which the
        // re-anchoring entry arrives.
        let entry = |exp: i32, inc: i32| (exp << 16) | (inc & 0xffff);
        let seg_len = 16; // 32 k-steps
        let steps = 2 * seg_len;
        let stride = seg_len * 32;
        let mut table = vec![0i32; FOLD_ROWS * stride];
        let mut planes = vec![0u8; L * seg_len];
        let offsets: [usize; L] = std::array::from_fn(|l| l * seg_len);
        for r in 0..FOLD_ROWS {
            for step in 0..steps {
                for c in 0..16 {
                    // Code c at k-step `step` of row r.
                    let x = 0x1000 + 8 * (c as i32) + r as i32;
                    let e = match (step, c % 4) {
                        (0, _) => entry(20, x),
                        (1, _) => entry(20, -x),
                        (_, 0) => 0,
                        (_, 1) => entry(3 + (c as i32) % 5, -(x >> 2)),
                        _ => entry(10 + step as i32, x >> 1),
                    };
                    table[r * stride + step * 16 + c] = e;
                }
            }
        }
        for l in 0..L {
            // Codes ≡ 0 (mod 4) hit zero entries, ≡ 1 the re-anchor
            // entry; lane l re-anchors at k-step 2 + l.
            for step in 0..steps {
                let code = match step {
                    0 | 1 => l as u8 % 16,
                    s if s < 2 + l => 0,
                    s if s == 2 + l => 1 + 4 * (l as u8 % 4),
                    _ => (step as u8 * 7) % 16,
                };
                planes[offsets[l] + step / 2] |= code << (4 * (step % 2));
            }
        }
        let bases = [0i32; L];
        let codes = lane_codes(&planes, &offsets, seg_len);
        for body in vector_bodies::<L>("zero_entries_and_mid_group_cancellation_re_anchor") {
            for rows in 1..=FOLD_ROWS {
                let got = fold_rows_on(
                    body, &table, stride, rows, &bases, &planes, &offsets, seg_len,
                );
                for r in 0..rows {
                    let (sig, exp) = scalar_gather_group(&table[r * stride..], &bases, &codes);
                    assert_eq!(got.0[r], sig, "{body:?} sig row {r} of {rows}");
                    for l in 0..L {
                        assert_ne!(sig[l], 0, "lane {l} must end live");
                        assert_eq!(got.1[r][l], exp[l], "{body:?} exp row {r} lane {l}");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_entries_and_mid_group_cancellation_re_anchor() {
        cancellation_re_anchors_at::<8>();
        cancellation_re_anchors_at::<16>();
    }

    fn ragged_segments_at<const L: usize>(maps: &[[usize; L]]) {
        // A 12-byte segment does not fill whole code words: the entry
        // point folds it with the reference, with the same bounds.
        let mut rng = Rng(0x5ca1_ab1e);
        for &lane_unit in maps {
            let block = Block::new(&mut rng, 3, lane_unit, 12);
            assert_eq!(Body::for_fold::<L>(12), Body::Scalar);
            for rows in 1..=3 {
                block.assert_matches_reference(Body::Scalar, rows, &format!("{lane_unit:?}"));
                let public = fold_rows(
                    &block.table,
                    block.stride,
                    rows,
                    &block.bases,
                    &block.planes,
                    &block.offsets,
                    block.seg_len,
                );
                assert_eq!(public, block.fold(Body::Scalar, rows), "{lane_unit:?}");
            }
        }
    }

    #[test]
    fn ragged_segments_take_the_scalar_path() {
        ragged_segments_at::<8>(&LANE_UNITS_8);
        ragged_segments_at::<16>(&LANE_UNITS_16);
    }

    #[test]
    fn sixteen_lane_calls_take_the_widest_body_the_host_runs() {
        // The entry point's choice follows `fold_lanes`: AVX-512 exactly
        // when it reads 16, else the AVX2 halves; 8-lane calls stay AVX2.
        let wide = Body::for_fold::<16>(8);
        match fold_lanes() {
            16 => assert_eq!(wide, Body::Avx512),
            _ if avx2_available() => assert_eq!(wide, Body::Avx2),
            _ => assert_eq!(wide, Body::Scalar),
        }
        let narrow = Body::for_fold::<8>(8);
        assert_eq!(
            narrow,
            if avx2_available() {
                Body::Avx2
            } else {
                Body::Scalar
            }
        );
        assert_eq!(
            fold_lanes() == 16,
            avx512_available() && avx2_available() && self_test()
        );
        // And the public entry folds through it: the probe counts one
        // wide fold per 16-lane call exactly when AVX-512 runs.
        let mut rng = Rng(0x1616);
        let block = Block::new(&mut rng, 2, LANE_UNITS_16[3], 8);
        let (got, wide_folds) = count_wide_folds(|| {
            fold_rows(
                &block.table,
                block.stride,
                2,
                &block.bases,
                &block.planes,
                &block.offsets,
                8,
            )
        });
        assert!(wide_folds >= u64::from(wide == Body::Avx512));
        assert_eq!(got, block.fold(Body::Scalar, 2));
    }

    #[test]
    fn zero_codes_on_zero_table_stay_zero() {
        let planes = vec![0u8; 128];
        let offsets: [usize; 16] = std::array::from_fn(|l| l * 8);
        let (sig, _) = fold_rows(&[0; 2 * 8 * 32], 8 * 32, 2, &[0; 16], &planes, &offsets, 8);
        assert_eq!(sig, [[0; 16]; FOLD_ROWS]);
        let narrow: [usize; 8] = std::array::from_fn(|l| offsets[l]);
        let (sig, _) = fold_rows(&[0; 2 * 8 * 32], 8 * 32, 2, &[0; 8], &planes, &narrow, 8);
        assert_eq!(sig, [[0; 8]; FOLD_ROWS]);
    }

    #[test]
    fn self_test_passes_on_healthy_hardware() {
        assert!(self_test());
        assert!(self_test(), "cached result stays true");
        for body in vector_bodies::<16>("self_test_passes_on_healthy_hardware") {
            match body {
                Body::Avx512 => assert!(fold_self_check::<16>(body)),
                _ => assert!(fold_self_check::<8>(body) && fold_self_check::<16>(body)),
            }
        }
    }
    #[test]
    fn block_dot_paths_are_bit_identical() {
        let mut rng = Rng(0xD1CE_BA5E_0F0F_1234);
        for trial in 0..200 {
            let blocks = 1 + (trial % 9);
            let n = blocks * 32;
            // w spans the full offset-code range [0, 128] (the maddubs
            // no-saturation contract); a spans the Q8 range [-127, 127].
            let w: Vec<u8> = (0..n).map(|_| (rng.next() % 129) as u8).collect();
            let a: Vec<i8> = (0..n)
                .map(|_| ((rng.next() % 255) as i32 - 127) as i8)
                .collect();
            let mut scalar = vec![0i32; blocks];
            let mut swar = vec![0i32; blocks];
            let mut dispatch = vec![0i32; blocks];
            block_dots_u8i8_scalar(&w, &a, &mut scalar);
            block_dots_u8i8_swar(&w, &a, &mut swar);
            block_dots_u8i8(&w, &a, &mut dispatch);
            assert_eq!(scalar, swar, "swar diverged on trial {trial}");
            assert_eq!(scalar, dispatch, "dispatch diverged on trial {trial}");
        }
    }

    #[test]
    fn block_dot_extremes_are_exact() {
        // The worst case of the no-saturation bound: every pair at
        // ±(128 · 127 · 2). One block of all-max, one of all-min.
        let mut w = vec![128u8; 64];
        w[32..].fill(128);
        let mut a = vec![127i8; 64];
        a[32..].fill(-127);
        let mut dots = vec![0i32; 2];
        block_dots_u8i8(&w, &a, &mut dots);
        assert_eq!(dots, [32 * 128 * 127, -32 * 128 * 127]);
    }

    #[test]
    fn block_dot_self_test_passes_on_healthy_hardware() {
        assert!(block_dots_self_test());
        assert!(block_dots_self_test(), "cached result stays true");
    }

    #[test]
    #[should_panic(expected = "whole 32-blocks")]
    fn block_dot_rejects_ragged_lengths() {
        let w = vec![0u8; 33];
        let a = vec![0i8; 33];
        let mut dots = vec![0i32; 1];
        block_dots_u8i8(&w, &a, &mut dots);
    }

    /// A minimal one-unit block for the bounds tests: one 8-byte code
    /// word per lane, one 256-entry segment per row, `L` lanes.
    fn bounds_case<const L: usize>(rows: usize, table_rows: usize, base3: i32, offset3: usize) {
        let table = vec![0i32; table_rows * 256];
        let planes = vec![0u8; L * 8];
        let mut bases = [0i32; L];
        bases[3] = base3;
        let mut offsets: [usize; L] = std::array::from_fn(|l| l * 8);
        offsets[3] = offset3;
        fold_rows(&table, 256, rows, &bases, &planes, &offsets, 8);
    }

    #[test]
    fn in_bounds_block_passes_the_checks() {
        bounds_case::<8>(4, 4, 0, 24);
        bounds_case::<16>(4, 4, 0, 120);
    }

    #[test]
    #[should_panic(expected = "escapes table")]
    fn out_of_bounds_base_panics() {
        bounds_case::<8>(1, 1, 16, 24);
    }

    #[test]
    #[should_panic(expected = "escapes table")]
    fn last_row_past_the_table_panics() {
        bounds_case::<8>(3, 2, 0, 24);
    }

    #[test]
    #[should_panic(expected = "escapes table")]
    fn sixteen_lane_last_row_past_the_table_panics() {
        bounds_case::<16>(3, 2, 0, 24);
    }

    #[test]
    #[should_panic(expected = "escapes table")]
    fn negative_base_panics() {
        bounds_case::<8>(1, 4, -16, 24);
    }

    #[test]
    #[should_panic(expected = "escapes table")]
    fn sixteen_lane_negative_base_panics() {
        bounds_case::<16>(1, 4, -16, 24);
    }

    #[test]
    #[should_panic(expected = "escape planes")]
    fn codes_past_the_shard_panic() {
        bounds_case::<8>(1, 1, 0, 57);
    }

    #[test]
    #[should_panic(expected = "escape planes")]
    fn sixteen_lane_codes_past_the_shard_panic() {
        bounds_case::<16>(1, 1, 0, 121);
    }

    #[test]
    #[should_panic(expected = "row block")]
    fn oversized_row_block_panics() {
        bounds_case::<8>(FOLD_ROWS + 1, FOLD_ROWS + 1, 0, 24);
    }

    #[test]
    #[should_panic(expected = "cannot fold")]
    fn a_body_never_folds_a_tile_it_cannot_take() {
        // The AVX-512 body takes 16 lanes only, and no vector body takes
        // a ragged segment: the check holds whatever the CPU.
        let planes = vec![0u8; 8 * 12];
        let offsets: [usize; 8] = std::array::from_fn(|l| l * 12);
        fold_rows_on(
            Body::Avx2,
            &[0; 384],
            384,
            1,
            &[0; 8],
            &planes,
            &offsets,
            12,
        );
    }
}
