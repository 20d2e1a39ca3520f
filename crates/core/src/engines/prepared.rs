//! Prepared-weight GEMM execution: the weight-preload phase of the
//! systolic schedule, factored out of [`GemmEngine::gemm`] so it runs
//! once per weight matrix instead of once per call.
//!
//! In the hardware, weights are loaded into the array once and stay
//! stationary while many activation tiles stream past (prefill batches,
//! or thousands of single-row decode steps). The functional engines
//! previously rebuilt all weight-derived state — mpFPMA units, decoded
//! [`WeightLane`]s, dequantized weight copies — inside every `gemm`
//! call, which dominates the cost of decode-shaped (`m = 1`) GEMMs.
//! [`GemmEngine::prepare`] now returns a [`PreparedGemm`] object holding
//! exactly that state; callers that reuse a weight matrix hold on to it
//! and call [`PreparedGemm::gemm`] per activation tile.
//!
//! # Parallel execution and determinism
//!
//! Prepared GEMMs execute on the persistent worker pool (see
//! [`axcore_parallel`]; the legacy per-call scoped spawn survives as
//! [`axcore_parallel::ExecMode::Scoped`] for A/B runs), partitioned into
//! **column shards**: every shape — prefill and decode alike — splits
//! the `n` output columns into one contiguous, cache-line-aligned shard
//! per worker with stable shard→thread affinity
//! ([`axcore_parallel::ShardPlan`]), so each worker owns its slice of
//! the code planes, builds its LUT table in its own arena slot, and
//! writes disjoint output columns with no barrier and no false sharing.
//! Prefill additionally blocks each shard into row panels × column
//! tiles so weight state is re-read from L2, not DRAM. Per-worker
//! scratch (activation encodes, LUT tables) is drawn from the
//! thread-local [`axcore_parallel::arena`], so
//! steady-state decode calls allocate nothing. Every engine in
//! this crate computes each output element `(i, col)` independently —
//! including AxCore's stochastic SNC tie bit, which is a deterministic
//! function of the activation mantissa MSB (§5.2.2), not of any shared
//! RNG state — and each chunk's placement in the output buffer is a
//! function of its chunk index alone. Results are therefore
//! **bit-identical at any thread count**, which
//! `tests/parallel_exactness.rs` locks in property-tests.
//!
//! [`WeightLane`]: crate::pe::WeightLane
//! [`GemmEngine::gemm`]: crate::engines::GemmEngine::gemm
//! [`GemmEngine::prepare`]: crate::engines::GemmEngine::prepare

use crate::engines::GemmEngine;
use crate::error::GemmError;
use axcore_quant::QuantizedMatrix;

/// A weight matrix preloaded into one engine's stationary form.
///
/// Created by [`GemmEngine::prepare`]; all weight-only preprocessing
/// (format-unit construction, lane decoding, dequantization) happened at
/// creation time, so [`PreparedGemm::gemm`] only streams activations.
///
/// [`GemmEngine::prepare`]: crate::engines::GemmEngine::prepare
pub trait PreparedGemm: std::fmt::Debug + Send + Sync {
    /// Input-channel (accumulation) dimension of the prepared weights.
    fn k(&self) -> usize;

    /// Output-channel dimension of the prepared weights.
    fn n(&self) -> usize;

    /// Multiply an `m × k` activation tile against the prepared weights,
    /// overwriting `out` (`m × n`, row-major), reporting shape problems
    /// (and unrecoverable execution failures) as a [`GemmError`]. When
    /// verification is active (see [`crate::reliability::VerifyPolicy`]),
    /// a healthy call's output stays bit-identical to the owning
    /// engine's [`GemmEngine::gemm`] on the same matrix.
    ///
    /// [`GemmEngine::gemm`]: crate::engines::GemmEngine::gemm
    fn try_gemm(&self, a: &[f32], m: usize, out: &mut [f32]) -> Result<(), GemmError>;

    /// Multiply an `m × k` activation tile against the prepared weights,
    /// overwriting `out` (`m × n`, row-major). Bit-identical to the
    /// owning engine's [`GemmEngine::gemm`] on the same matrix.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != m * self.k()` or `out.len() != m * self.n()`
    /// (shim over [`try_gemm`](PreparedGemm::try_gemm)).
    ///
    /// [`GemmEngine::gemm`]: crate::engines::GemmEngine::gemm
    fn gemm(&self, a: &[f32], m: usize, out: &mut [f32]) {
        self.try_gemm(a, m, out).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Named at-rest fault-injection surfaces of this prepared state
    /// (empty when the engine exposes none).
    fn fault_sites(&self) -> &'static [&'static str] {
        &[]
    }

    /// Size of one fault surface as `(words, bits_per_word)`; `(0, 0)`
    /// for unknown sites.
    fn fault_surface(&self, _site: &str) -> (usize, u32) {
        (0, 0)
    }

    /// Flip one bit of one word of an at-rest fault surface (stored
    /// integrity checksums deliberately go stale). Returns whether the
    /// site exists and the flip was applied.
    fn inject_fault(&mut self, _site: &str, _word: usize, _bit: u32) -> bool {
        false
    }
}

/// Shape check shared by the prepared implementations.
pub(crate) fn check_prepared_shapes(
    a: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &[f32],
) -> Result<(), GemmError> {
    if a.len() != m * k {
        return Err(GemmError::DimMismatch {
            what: "activation shape mismatch",
            expected: m * k,
            got: a.len(),
        });
    }
    if out.len() != m * n {
        return Err(GemmError::DimMismatch {
            what: "output shape mismatch",
            expected: m * n,
            got: out.len(),
        });
    }
    Ok(())
}

/// GEMMs below this many MACs run serially: thread spawns would dominate.
/// The cutover is purely a scheduling decision — results are bit-identical
/// either way.
const MIN_PARALLEL_MACS: usize = 32 * 1024;

/// Rows per activation panel in the sharded prefill loop: 32 rows of a
/// `k ≤ 4096` activation keep the panel within ~512 KiB, so it stays
/// cache-resident while a shard's weight tiles stream past it.
const PANEL_ROWS: usize = 32;

/// Columns per weight tile inside a shard: small enough that one tile's
/// weight-derived state (lanes / planes over the full depth) stays
/// L2-resident across a whole row panel, so prefill re-reads weights
/// from cache instead of DRAM once per panel rather than once per row.
const TILE_COLS: usize = 64;

/// How many worker shards a GEMM of this size should use: 1 (serial)
/// below the MAC threshold or when the caller's thread budget is 1,
/// otherwise a [`ShardPlan`](axcore_parallel::ShardPlan) over the
/// current thread count.
fn shard_plan(m: usize, k: usize, n: usize, col_align: usize) -> axcore_parallel::ShardPlan {
    let threads = if (m * n).saturating_mul(k) < MIN_PARALLEL_MACS {
        1
    } else {
        axcore_parallel::current_threads()
    };
    axcore_parallel::ShardPlan::new(n, threads, col_align)
}

/// Drive a per-element GEMM kernel over the output, sharded by columns.
///
/// `kernel(scratch, row, col0, cols)` fills `cols` with output columns
/// `col0 .. col0 + cols.len()` of activation row `row`; `mk_scratch`
/// builds one per-worker scratch (activation-encode buffers) that is
/// reused across every tile the worker processes.
///
/// Parallel execution partitions the `n` output columns into contiguous
/// shards (one per worker, boundaries aligned to `col_align` columns and
/// a full output cache line — see [`axcore_parallel::ShardPlan`]), with
/// stable shard→thread affinity and a single barrier-free writeback into
/// disjoint columns. Inside a shard the loop is L2-blocked: row panels
/// of [`PANEL_ROWS`] × column tiles of [`TILE_COLS`], rows innermost, so
/// a tile's weight state is re-read from cache across the whole panel
/// and the activation panel stays hot across the shard's tiles. Every
/// output element is computed independently, so the shard/tile walk is
/// bit-identical to the serial loop at any thread count.
///
/// `k` is the accumulation depth, used only to size the work estimate:
/// GEMMs too small to amortize a pool dispatch run serially
/// (bit-identical either way, so the cutover is purely scheduling).
pub(crate) fn drive<S, MkS, F>(
    m: usize,
    k: usize,
    n: usize,
    col_align: usize,
    out: &mut [f32],
    mk_scratch: MkS,
    kernel: F,
) where
    MkS: Fn() -> S + Sync,
    F: Fn(&mut S, usize, usize, &mut [f32]) + Sync,
{
    if m == 0 || n == 0 {
        return;
    }
    let plan = shard_plan(m, k, n, col_align);
    if plan.num_shards() <= 1 {
        let mut s = mk_scratch();
        for (i, row_out) in out.chunks_mut(n).enumerate() {
            kernel(&mut s, i, 0, row_out);
        }
        return;
    }
    axcore_parallel::par_shards_with(out, m, &plan, &mk_scratch, |s, sh, view| {
        for row0 in (0..m).step_by(PANEL_ROWS) {
            let rows = PANEL_ROWS.min(m - row0);
            let mut c0 = sh.col0;
            while c0 < sh.col0 + sh.cols {
                // Cooperative cancellation between tiles (partial output;
                // only discarded results are ever cancelled).
                if axcore_parallel::cancel_requested() {
                    return;
                }
                let tc = TILE_COLS.min(sh.col0 + sh.cols - c0);
                let local = c0 - sh.col0;
                for r in row0..row0 + rows {
                    let row_out = view.row(r);
                    kernel(s, r, c0, &mut row_out[local..local + tc]);
                }
                c0 += tc;
            }
        }
    });
}

/// Drive a LUT-tier GEMM kernel over the output, sharded by columns.
///
/// Like [`drive`], but each row's work is split into a table **build**
/// (`build(table, slot, row, col0, cols)` — row `row`'s per-activation-
/// element product tables, written to the table's row slot `slot` and
/// amortized over the columns `col0 .. col0 + cols` the worker will
/// fold) and a column **fold** (`fold(table, row0, rows, col0, out)` —
/// table lookups + accumulate for the `rows` rows from `row0`, whose
/// builds sit in slots `0 .. rows`). A kernel may also leave part of the
/// build to its fold: AxCore's AVX2 rung only encodes each row in
/// `build` and fills a group's entries for the whole block right before
/// folding that group.
///
/// Rows run in blocks of up to `block` (the number of row slots
/// `mk_table` provides): every row of a block is built, then the block
/// is folded in one pass, so a kernel can decode each weight code once
/// and reuse it across the block's rows — the weight-stationary reuse
/// of the paper's array. `out` holds the block's `rows × cols` outputs,
/// row-major: the block's rows of the output matrix on the serial path,
/// a staging buffer copied out row by row on a shard (a single row
/// folds straight into the shard's view). Every output element still
/// depends only on its own row, so blocking changes no result bit.
///
/// Each shard builds its rows' tables **in its own arena slot**
/// restricted to its column range (engines whose table segments are
/// per-format-unit build only the units their columns reference;
/// engines with global tables ignore the range). That keeps the build on
/// the parallel region, and the stable shard→thread affinity keeps each
/// shard's table in the same thread-local arena call after call, so
/// steady-state decode still allocates nothing.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive_lut<T, MkT, B, G>(
    m: usize,
    k: usize,
    n: usize,
    col_align: usize,
    block: usize,
    out: &mut [f32],
    mk_table: MkT,
    build: B,
    fold: G,
) where
    T: Send + Sync,
    MkT: Fn() -> T + Sync,
    B: Fn(&mut T, usize, usize, usize, usize) + Sync,
    G: Fn(&mut T, usize, usize, usize, &mut [f32]) + Sync,
{
    if m == 0 || n == 0 {
        return;
    }
    let plan = shard_plan(m, k, n, col_align);
    if plan.num_shards() <= 1 {
        let mut table = mk_table();
        for (b, rows_out) in out.chunks_mut(block * n).enumerate() {
            let (row0, rows) = (b * block, rows_out.len() / n);
            for slot in 0..rows {
                crate::kmetrics::record_lut_build(|| build(&mut table, slot, row0 + slot, 0, n));
            }
            fold(&mut table, row0, rows, 0, rows_out);
        }
        return;
    }
    axcore_parallel::par_shards_with(out, m, &plan, &mk_table, |t, sh, view| {
        // A `ShardSlice` lends one output row at a time, so multi-row
        // blocks fold into this staging buffer first.
        let mut staged =
            axcore_parallel::arena::take(if block > 1 { block * sh.cols } else { 0 }, 0f32);
        for row0 in (0..m).step_by(block) {
            if axcore_parallel::cancel_requested() {
                return;
            }
            let rows = block.min(m - row0);
            for slot in 0..rows {
                crate::kmetrics::record_lut_build(|| build(t, slot, row0 + slot, sh.col0, sh.cols));
            }
            if rows == 1 {
                fold(t, row0, 1, sh.col0, view.row(row0));
                continue;
            }
            let buf = &mut staged[..rows * sh.cols];
            fold(t, row0, rows, sh.col0, buf);
            for (r, src) in buf.chunks_exact(sh.cols).enumerate() {
                view.row(row0 + r).copy_from_slice(src);
            }
        }
    });
}

/// Shared verified-execution wrapper for the single-ladder engines
/// (everything except AxCore, which walks a three-tier ladder instead).
///
/// Runs `run(out)` under a panic guard, then applies the active
/// [`VerifyPlan`]: `state_ok()` recomputes the engine's integrity
/// checksum at `Full`, the ABFT row check runs per the plan. On any
/// failure the call **recovers**: `recover(out)` re-executes from
/// pristine weight state, serially, and the downgrade is published as an
/// [`axcore_parallel::ExecReport`]. The caller gets `Ok` with a correct
/// output unless even the recovery re-execution panics.
///
/// [`VerifyPlan`]: crate::reliability::VerifyPlan
#[allow(clippy::too_many_arguments)]
pub(crate) fn verified_single_tier<Run, StateOk, Recover>(
    verifier: &crate::reliability::Verifier,
    tier: axcore_parallel::Tier,
    context: &'static str,
    a: &[f32],
    m: usize,
    n: usize,
    out: &mut [f32],
    run: Run,
    state_ok: StateOk,
    recover: Recover,
) -> Result<(), GemmError>
where
    Run: Fn(&mut [f32]),
    StateOk: Fn() -> bool,
    Recover: FnOnce(&mut [f32]),
{
    use axcore_parallel::{health, FailReason, Tier};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let plan = verifier.plan();
    let ran = catch_unwind(AssertUnwindSafe(|| run(out)));
    let integ_ok = !plan.integrity || state_ok();
    let abft_ok = ran.is_ok() && (!plan.abft || verifier.abft_ok(a, m, n, out));
    if ran.is_ok() && integ_ok && abft_ok {
        if plan.any() {
            let mut report = health::ExecReport::new(tier);
            report.verified = true;
            health::publish_report(report);
        }
        return Ok(());
    }
    let reason = if ran.is_err() {
        FailReason::Panic
    } else if !integ_ok {
        FailReason::ChecksumMismatch
    } else {
        FailReason::AbftMismatch
    };
    let rerun = catch_unwind(AssertUnwindSafe(|| {
        axcore_parallel::with_threads(1, || recover(out))
    }));
    if rerun.is_err() {
        return Err(GemmError::PoolPanicked { context });
    }
    let mut report = health::ExecReport::new(tier);
    report.push_downgrade(tier, Tier::Direct, reason);
    report.verified = plan.any();
    report.recovered = true;
    health::publish_report(report);
    Ok(())
}

/// The default [`GemmEngine::prepare`] result for engines without a
/// specialized prepared form: owns a clone of the engine and the weight
/// matrix and routes every call through the plain `gemm` path.
///
/// [`GemmEngine::prepare`]: crate::engines::GemmEngine::prepare
#[derive(Debug)]
pub struct FallbackPrepared {
    engine: Box<dyn GemmEngine>,
    w: QuantizedMatrix,
}

impl FallbackPrepared {
    /// Wrap an engine and a weight matrix.
    pub fn new(engine: Box<dyn GemmEngine>, w: QuantizedMatrix) -> Self {
        FallbackPrepared { engine, w }
    }
}

impl PreparedGemm for FallbackPrepared {
    fn k(&self) -> usize {
        self.w.k
    }

    fn n(&self) -> usize {
        self.w.n
    }

    fn try_gemm(&self, a: &[f32], m: usize, out: &mut [f32]) -> Result<(), GemmError> {
        self.engine.try_gemm(a, m, &self.w, out)
    }
}
