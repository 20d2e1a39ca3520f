//! # axcore-parallel
//!
//! The execution runtime for the GEMM engines: rayon-style
//! `par_chunks_mut` over disjoint output slices plus the scratch arena,
//! built with no dependencies (the build environment has no registry
//! access, so rayon itself cannot be pulled in; this crate provides the
//! small slice-parallel subset the engines need).
//!
//! Work is dispatched to a lazily-started **persistent worker pool**
//! ([`pool`]): workers park on a condvar between calls, so the
//! steady-state decode path pays one wake/park round-trip instead of
//! re-spawning OS threads on every `gemm` call, and dispatch itself
//! performs no heap allocation (chunks are claimed off an atomic
//! counter). The pre-pool `std::thread::scope` implementation is kept
//! selectable as [`ExecMode::Scoped`] — it is the A/B baseline for the
//! pool-equivalence proptests and the benchmark's legacy rows.
//!
//! Guarantees:
//!
//! * **Determinism** — each chunk's output location is a function of its
//!   chunk index alone, never of thread scheduling; callers that compute
//!   each output element independently of iteration order get
//!   bit-identical results at any thread count in either mode.
//! * **No nesting blowup** — a worker thread that itself calls into the
//!   parallel API runs serially, so parallel GEMMs inside parallel row
//!   sweeps do not oversubscribe the machine.
//! * **Control** — [`with_threads`] scopes an explicit thread count (1 =
//!   force serial, used by benches and the bit-exactness tests); the
//!   `AXCORE_THREADS` environment variable caps the default, and
//!   `AXCORE_POOL=scoped` (or `0`/`off`) falls back to per-call scoped
//!   threads.

#![deny(unsafe_code)] // narrowly allowed in the pool dispatch path only

pub mod arena;
pub mod env;
pub mod health;
pub mod pool;
pub mod shard;

pub use health::{ExecReport, FailReason, Tier};
pub use pool::{
    cancel_requested, clear_cancel, force_restart as force_restart_pool, request_cancel,
    restarts as pool_restarts, shutdown as shutdown_pool, spawned_workers,
};
pub use shard::{Shard, ShardPlan};

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

thread_local! {
    /// Per-thread override installed by [`with_threads`].
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set inside pool workers: nested parallel calls run serial.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Per-thread override installed by [`with_exec_mode`].
    static MODE_OVERRIDE: Cell<Option<ExecMode>> = const { Cell::new(None) };
}

/// How parallel work is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Persistent worker pool + recycled scratch arena (the default).
    Pooled,
    /// Per-call `std::thread::scope` spawning and per-call scratch
    /// allocation — the pre-pool runtime, kept as the A/B baseline.
    Scoped,
}

/// The machine-level default thread count: `AXCORE_THREADS` if set,
/// otherwise the available hardware parallelism.
pub fn max_threads() -> usize {
    static MAX: OnceLock<usize> = OnceLock::new();
    *MAX.get_or_init(|| {
        env::parse_usize("AXCORE_THREADS")
            .map(|n| n.max(1))
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
            })
    })
}

/// The process-default execution mode: `AXCORE_POOL=scoped|off|0` picks
/// the legacy scoped runtime, anything else (or unset) the pool.
fn default_exec_mode() -> ExecMode {
    static MODE: OnceLock<ExecMode> = OnceLock::new();
    *MODE.get_or_init(|| {
        env::parse("AXCORE_POOL", "pooled|on|1 or scoped|off|0", |s| {
            match s.to_ascii_lowercase().as_str() {
                "scoped" | "off" | "0" => Some(ExecMode::Scoped),
                "pooled" | "on" | "1" | "" => Some(ExecMode::Pooled),
                _ => None,
            }
        })
        .unwrap_or(ExecMode::Pooled)
    })
}

/// The execution mode parallel calls on this thread will use right now.
pub fn current_exec_mode() -> ExecMode {
    MODE_OVERRIDE.with(|m| m.get()).unwrap_or_else(default_exec_mode)
}

/// Run `f` with the execution mode on this thread forced to `mode`. The
/// previous setting is restored on exit, including on panic.
pub fn with_exec_mode<R>(mode: ExecMode, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<ExecMode>);
    impl Drop for Restore {
        fn drop(&mut self) {
            MODE_OVERRIDE.with(|m| m.set(self.0));
        }
    }
    let prev = MODE_OVERRIDE.with(|m| m.replace(Some(mode)));
    let _restore = Restore(prev);
    f()
}

/// Thread counts worth sweeping in benchmarks: always `1, 2, 4, 8`
/// (so every `BENCH_gemm.json` carries a comparable scaling curve, even
/// from a small runner where the high rows are oversubscribed), plus
/// [`max_threads`] when the machine exceeds 8. Counts above the hardware
/// parallelism still execute — `with_threads` is an explicit override —
/// they just report sub-linear `scaling_efficiency`.
pub fn thread_sweep() -> Vec<usize> {
    let mut counts = vec![1, 2, 4, 8];
    let max = max_threads();
    if max > 8 {
        counts.push(max);
    }
    counts
}

/// The thread count parallel calls on this thread will use right now:
/// 1 inside a worker, the [`with_threads`] override if one is active,
/// otherwise [`max_threads`].
pub fn current_threads() -> usize {
    if IN_WORKER.with(|w| w.get()) {
        return 1;
    }
    THREAD_OVERRIDE.with(|o| o.get()).unwrap_or_else(max_threads)
}

/// Run `f` with parallel calls on this thread capped at `n` threads
/// (`1` forces the serial path). The previous setting is restored on
/// exit, including on panic.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let prev = THREAD_OVERRIDE.with(|o| o.replace(Some(n.max(1))));
    let _restore = Restore(prev);
    f()
}

/// Mark the current thread as a pool worker for its whole lifetime.
pub(crate) fn mark_worker_thread() {
    IN_WORKER.with(|w| w.set(true));
}

/// Run `f` with this thread temporarily marked as a worker (nested
/// parallel calls inside `f` take the serial path), restoring the
/// previous state afterwards — used when the submitting thread
/// participates in its own pooled job.
pub(crate) fn enter_worker<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_WORKER.with(|w| w.set(self.0));
        }
    }
    let prev = IN_WORKER.with(|w| w.replace(true));
    let _restore = Restore(prev);
    f()
}

/// Split `data` into contiguous chunks of `chunk_len` elements and call
/// `f(chunk_index, chunk)` for every chunk, distributing chunks over up
/// to [`current_threads`] workers. Equivalent to
/// `data.chunks_mut(chunk_len).enumerate().for_each(...)` in any order.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    par_chunks_mut_with(data, chunk_len, || (), |(), i, c| f(i, c));
}

/// [`par_chunks_mut`] with per-worker scratch state: each worker thread
/// builds one `S` via `mk_scratch` and reuses it across all the chunks
/// it processes — the hook GEMM kernels use to amortize row-encode
/// buffers instead of allocating per chunk.
pub fn par_chunks_mut_with<T, S, MkS, F>(data: &mut [T], chunk_len: usize, mk_scratch: MkS, f: F)
where
    T: Send,
    MkS: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let num_chunks = data.len().div_ceil(chunk_len);
    let threads = current_threads().min(num_chunks.max(1));
    if threads <= 1 {
        let mut scratch = mk_scratch();
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(&mut scratch, i, chunk);
        }
        return;
    }
    match current_exec_mode() {
        ExecMode::Pooled => pooled_chunks(data, chunk_len, num_chunks, threads, &mk_scratch, &f),
        ExecMode::Scoped => scoped_chunks(data, chunk_len, threads, &mk_scratch, &f),
    }
}

/// Pool dispatch: all participants (caller + `threads - 1` pool workers)
/// claim chunk indices off one atomic counter. Claiming is dynamic (load
/// balances uneven chunks) but output placement is by chunk index, so
/// scheduling cannot affect results. No allocation happens on this path.
fn pooled_chunks<T, S, MkS, F>(
    data: &mut [T],
    chunk_len: usize,
    num_chunks: usize,
    threads: usize,
    mk_scratch: &MkS,
    f: &F,
) where
    T: Send,
    MkS: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [T]) + Sync,
{
    /// The output slice as a shareable base pointer. Participants carve
    /// disjoint sub-slices out of it by claimed chunk index.
    struct RawChunks<T> {
        base: *mut T,
        len: usize,
    }
    // SAFETY: shared only for the duration of `pool::run`; every access
    // goes through a uniquely claimed chunk index, so no two threads
    // ever touch the same element (`T: Send` moves element access to
    // the claiming thread).
    #[allow(unsafe_code)]
    unsafe impl<T: Send> Sync for RawChunks<T> {}

    let raw = RawChunks {
        base: data.as_mut_ptr(),
        len: data.len(),
    };
    // Capture the Sync wrapper by reference (closure field-capture would
    // otherwise grab the raw pointer itself, which is not Sync).
    let raw = &raw;
    let next = AtomicUsize::new(0);
    /// Fail-fast drain: if a participant unwinds out of `f`, exhaust the
    /// claim counter so no other participant claims further chunks. The
    /// panicking chunk's claim is thereby never "leaked" into a counter
    /// state other threads keep working past — the dispatch converges and
    /// the panic propagates from `pool::run` with the pool reusable.
    struct DrainOnUnwind<'a> {
        next: &'a AtomicUsize,
        num_chunks: usize,
    }
    impl Drop for DrainOnUnwind<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.next.store(self.num_chunks, Ordering::Relaxed);
            }
        }
    }
    let body = || {
        let mut i = next.fetch_add(1, Ordering::Relaxed);
        if i >= num_chunks {
            return; // late participant: all chunks already claimed
        }
        let _drain = DrainOnUnwind {
            next: &next,
            num_chunks,
        };
        let mut scratch = mk_scratch();
        loop {
            // Cooperative cancellation: stop claiming further chunks.
            // The output is partial — only callers that will discard the
            // result ever request this (see `pool::request_cancel`).
            if pool::cancel_requested() {
                return;
            }
            let start = i * chunk_len;
            let len = chunk_len.min(raw.len - start);
            // SAFETY: `i` was claimed exactly once via fetch_add, so the
            // [start, start + len) ranges handed out are pairwise
            // disjoint sub-slices of the caller's exclusive borrow, which
            // outlives `pool::run` (it blocks until all participants
            // finish).
            #[allow(unsafe_code)]
            let chunk = unsafe { std::slice::from_raw_parts_mut(raw.base.add(start), len) };
            f(&mut scratch, i, chunk);
            i = next.fetch_add(1, Ordering::Relaxed);
            if i >= num_chunks {
                return;
            }
        }
    };
    pool::run(threads - 1, &body);
}

/// Legacy dispatch: per-call `std::thread::scope` spawning with a shared
/// chunk queue — the pre-pool runtime, kept for A/B comparison.
fn scoped_chunks<T, S, MkS, F>(data: &mut [T], chunk_len: usize, threads: usize, mk_scratch: &MkS, f: &F)
where
    T: Send,
    MkS: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [T]) + Sync,
{
    // Dynamic scheduling: workers pop chunks from a shared queue, which
    // balances load when chunks differ in cost. Output placement is by
    // chunk index, so scheduling cannot affect results.
    let queue: Mutex<Vec<(usize, &mut [T])>> =
        Mutex::new(data.chunks_mut(chunk_len).enumerate().collect());
    let queue = &queue;
    /// On unwind, empty the queue so surviving workers stop claiming
    /// chunks instead of grinding through work whose result the caller
    /// will never see (the panic is about to propagate out of the scope).
    struct DrainQueue<'q, 'd, T>(&'q Mutex<Vec<(usize, &'d mut [T])>>);
    impl<T> Drop for DrainQueue<'_, '_, T> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clear();
            }
        }
    }
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                let _drain = DrainQueue(queue);
                let mut scratch = mk_scratch();
                loop {
                    // Cooperative cancellation, mirroring the pooled path.
                    if pool::cancel_requested() {
                        break;
                    }
                    // A panicking sibling poisons the mutex; the payload
                    // already propagates via the scope, so keep popping
                    // from the (drained) queue rather than double-panic.
                    let item = queue
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .pop();
                    match item {
                        Some((i, chunk)) => f(&mut scratch, i, chunk),
                        None => break,
                    }
                }
            });
        }
    });
}

/// A mutable view of one shard's columns of a row-major `rows × n`
/// output matrix. [`row`](ShardSlice::row) hands out the shard's slice
/// of one output row; different shards' views alias no elements (their
/// column ranges are disjoint by [`ShardPlan`] construction), and shard
/// boundaries are cache-line aligned, so concurrent writeback needs no
/// barrier and causes no false sharing.
pub struct ShardSlice<'a, T> {
    base: *mut T,
    rows: usize,
    row_stride: usize,
    col0: usize,
    cols: usize,
    _borrow: std::marker::PhantomData<&'a mut [T]>,
}

impl<T> ShardSlice<'_, T> {
    /// Rows in the underlying matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns owned by this shard.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// This shard's columns of output row `r`.
    pub fn row(&mut self, r: usize) -> &mut [T] {
        assert!(r < self.rows, "row {r} out of range ({} rows)", self.rows);
        // SAFETY: the view was constructed over a live exclusive borrow
        // of the full matrix (kept alive by `par_shards_with`'s
        // completion wait); `r < rows` and `col0 + cols <= row_stride`,
        // so the range is in bounds, and no other shard's view overlaps
        // these columns.
        #[allow(unsafe_code)]
        unsafe {
            std::slice::from_raw_parts_mut(
                self.base.add(r * self.row_stride + self.col0),
                self.cols,
            )
        }
    }
}

/// Run `f` once per shard of `plan` over the row-major `rows × plan.n()`
/// matrix `out`, with **stable shard→thread affinity**: shard `s` always
/// executes on pool slot `s` (slot 0 is the calling thread), i.e. on the
/// same OS thread call after call, so that thread's scratch arena keeps
/// the shard's tables warm. Each shard worker builds one `S` via
/// `mk_scratch` and writes only its own disjoint output columns through
/// the provided [`ShardSlice`] — a single barrier-free writeback.
///
/// With a one-shard plan this degenerates to a plain serial call on the
/// current thread (the bit-exactness baseline; sharding never changes
/// results because every output element is computed independently).
pub fn par_shards_with<T, S, MkS, F>(out: &mut [T], rows: usize, plan: &ShardPlan, mk_scratch: MkS, f: F)
where
    T: Send,
    MkS: Fn() -> S + Sync,
    F: Fn(&mut S, shard::Shard, &mut ShardSlice<'_, T>) + Sync,
{
    let n = plan.n();
    assert!(out.len() >= rows * n, "output shorter than rows × n");
    let nshards = plan.num_shards();
    if nshards <= 1 {
        let sh = plan.shard(0);
        let mut view = ShardSlice {
            base: out.as_mut_ptr(),
            rows,
            row_stride: n,
            col0: sh.col0,
            cols: sh.cols,
            _borrow: std::marker::PhantomData,
        };
        let mut scratch = mk_scratch();
        f(&mut scratch, sh, &mut view);
        return;
    }
    /// The matrix base pointer as a shareable handle; every access goes
    /// through a shard view whose column range is unique to its slot.
    struct RawMatrix<T> {
        base: *mut T,
    }
    // SAFETY: shared only for the duration of the dispatch below; slots
    // are executed exactly once per job and their shards' column ranges
    // are pairwise disjoint, so no element is reachable from two threads.
    #[allow(unsafe_code)]
    unsafe impl<T: Send> Sync for RawMatrix<T> {}

    let raw = RawMatrix { base: out.as_mut_ptr() };
    let raw = &raw;
    let body = |slot: usize| {
        let sh = plan.shard(slot);
        if sh.cols == 0 {
            return;
        }
        let mut view = ShardSlice {
            base: raw.base,
            rows,
            row_stride: n,
            col0: sh.col0,
            cols: sh.cols,
            _borrow: std::marker::PhantomData,
        };
        let mut scratch = mk_scratch();
        f(&mut scratch, sh, &mut view);
    };
    match current_exec_mode() {
        ExecMode::Pooled => pool::run_indexed(nshards - 1, &body),
        ExecMode::Scoped => {
            std::thread::scope(|s| {
                for slot in 1..nshards {
                    let body = &body;
                    s.spawn(move || {
                        IN_WORKER.with(|w| w.set(true));
                        body(slot);
                    });
                }
                enter_worker(|| body(0));
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

    /// The pool instance, its worker count and the cancel flag are
    /// process-global while tests run on parallel threads. A test that
    /// shuts the pool down, force-restarts it or raises the cancel flag
    /// holds this exclusively; a test that dispatches holds it shared, so
    /// it never sees workers vanish, threads change or chunk claims stop
    /// mid-call.
    static POOL_STATE: RwLock<()> = RwLock::new(());

    pub(crate) fn pool_exclusive() -> RwLockWriteGuard<'static, ()> {
        POOL_STATE.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn pool_shared() -> RwLockReadGuard<'static, ()> {
        POOL_STATE.read().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn covers_every_chunk_exactly_once() {
        let _pool = pool_shared();
        let mut data = vec![0u32; 1003];
        par_chunks_mut(&mut data, 10, |i, chunk| {
            for v in chunk.iter_mut() {
                *v += i as u32 + 1;
            }
        });
        for (j, &v) in data.iter().enumerate() {
            assert_eq!(v, (j / 10) as u32 + 1, "elem {j}");
        }
    }

    #[test]
    fn covers_every_chunk_in_both_modes() {
        let _pool = pool_shared();
        for mode in [ExecMode::Pooled, ExecMode::Scoped] {
            with_exec_mode(mode, || {
                with_threads(4, || {
                    let mut data = vec![0u32; 777];
                    par_chunks_mut(&mut data, 13, |i, chunk| {
                        for v in chunk.iter_mut() {
                            *v += i as u32 + 1;
                        }
                    });
                    for (j, &v) in data.iter().enumerate() {
                        assert_eq!(v, (j / 13) as u32 + 1, "{mode:?} elem {j}");
                    }
                });
            });
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let _pool = pool_shared();
        let work = |i: usize, chunk: &mut [f32]| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = ((i * 31 + j) as f32).sin();
            }
        };
        let mut serial = vec![0f32; 500];
        with_threads(1, || par_chunks_mut(&mut serial, 7, work));
        let mut parallel = vec![0f32; 500];
        with_threads(8, || par_chunks_mut(&mut parallel, 7, work));
        assert_eq!(
            serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            parallel.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn thread_sweep_is_increasing_and_covers_1_2_4_8() {
        let sweep = thread_sweep();
        assert_eq!(&sweep[..4], &[1, 2, 4, 8]);
        assert!(sweep.windows(2).all(|w| w[0] < w[1]));
        if max_threads() > 8 {
            assert_eq!(*sweep.last().unwrap(), max_threads());
        }
    }

    #[test]
    fn shards_cover_every_column_in_both_modes() {
        let _pool = pool_shared();
        for mode in [ExecMode::Pooled, ExecMode::Scoped] {
            with_exec_mode(mode, || {
                with_threads(4, || {
                    let (rows, n) = (3usize, 100usize);
                    let plan = ShardPlan::new(n, current_threads(), 1);
                    let mut out = vec![0u32; rows * n];
                    par_shards_with(&mut out, rows, &plan, || (), |(), sh, view| {
                        for r in 0..view.rows() {
                            for (j, v) in view.row(r).iter_mut().enumerate() {
                                *v = (r * n + sh.col0 + j) as u32 + 1;
                            }
                        }
                    });
                    for (i, &v) in out.iter().enumerate() {
                        assert_eq!(v, i as u32 + 1, "{mode:?} elem {i}");
                    }
                });
            });
        }
    }

    #[test]
    fn sharded_and_serial_agree_bitwise() {
        let _pool = pool_shared();
        let work = |_s: &mut (), sh: Shard, view: &mut ShardSlice<'_, f32>| {
            for r in 0..view.rows() {
                for (j, v) in view.row(r).iter_mut().enumerate() {
                    *v = (((r * 31 + sh.col0 + j) as f32) * 0.37).sin();
                }
            }
        };
        let (rows, n) = (2usize, 230usize);
        let mut serial = vec![0f32; rows * n];
        with_threads(1, || {
            par_shards_with(&mut serial, rows, &ShardPlan::new(n, 1, 4), || (), work);
        });
        let mut sharded = vec![0f32; rows * n];
        with_threads(8, || {
            par_shards_with(&mut sharded, rows, &ShardPlan::new(n, 8, 4), || (), work);
        });
        assert_eq!(
            serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            sharded.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn shard_slots_keep_stable_thread_affinity() {
        let _pool = pool_shared();
        use std::sync::Mutex;
        use std::thread::ThreadId;
        with_exec_mode(ExecMode::Pooled, || {
            with_threads(4, || {
                let n = 256usize;
                let plan = ShardPlan::new(n, 4, 1);
                assert_eq!(plan.num_shards(), 4);
                let observed: Mutex<Vec<Vec<ThreadId>>> = Mutex::new(vec![Vec::new(); 4]);
                let mut out = vec![0u8; n];
                for _ in 0..5 {
                    par_shards_with(&mut out, 1, &plan, || (), |(), sh, _view| {
                        observed
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)[sh.index]
                            .push(std::thread::current().id());
                    });
                }
                let observed = observed.lock().unwrap_or_else(PoisonError::into_inner);
                for (slot, ids) in observed.iter().enumerate() {
                    assert_eq!(ids.len(), 5, "slot {slot} ran once per call");
                    assert!(
                        ids.iter().all(|id| *id == ids[0]),
                        "slot {slot} must stay on one OS thread across calls"
                    );
                }
            });
        });
    }

    #[test]
    fn shard_panic_propagates_and_pool_stays_usable() {
        let _pool = pool_shared();
        with_exec_mode(ExecMode::Pooled, || {
            with_threads(4, || {
                let n = 256usize;
                let plan = ShardPlan::new(n, 4, 1);
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut out = vec![0u8; n];
                    par_shards_with(&mut out, 1, &plan, || (), |(), sh, _v| {
                        if sh.index == 2 {
                            panic!("shard 2 failed");
                        }
                    });
                }));
                assert!(result.is_err(), "shard panic must propagate");
                let mut out = vec![0u8; n];
                par_shards_with(&mut out, 1, &plan, || (), |(), _sh, view| {
                    view.row(0).fill(7);
                });
                assert!(out.iter().all(|&v| v == 7), "pool reusable after shard panic");
            });
        });
    }

    #[test]
    fn with_threads_restores_previous_setting() {
        let before = current_threads();
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(1, || assert_eq!(current_threads(), 1));
            assert_eq!(current_threads(), 3);
        });
        assert_eq!(current_threads(), before);
    }

    #[test]
    fn with_exec_mode_restores_previous_setting() {
        let before = current_exec_mode();
        with_exec_mode(ExecMode::Scoped, || {
            assert_eq!(current_exec_mode(), ExecMode::Scoped);
            with_exec_mode(ExecMode::Pooled, || {
                assert_eq!(current_exec_mode(), ExecMode::Pooled);
            });
            assert_eq!(current_exec_mode(), ExecMode::Scoped);
        });
        assert_eq!(current_exec_mode(), before);
    }

    #[test]
    fn nested_calls_run_serially_in_workers() {
        let _pool = pool_shared();
        for mode in [ExecMode::Pooled, ExecMode::Scoped] {
            let nested_threads = AtomicUsize::new(usize::MAX);
            let mut data = vec![0u8; 64];
            with_exec_mode(mode, || {
                with_threads(4, || {
                    par_chunks_mut(&mut data, 1, |_, _| {
                        nested_threads.fetch_min(current_threads(), Ordering::Relaxed);
                    });
                });
            });
            assert_eq!(nested_threads.load(Ordering::Relaxed), 1, "{mode:?}");
        }
    }

    #[test]
    fn scratch_is_reused_within_a_worker() {
        let _pool = pool_shared();
        let builds = AtomicUsize::new(0);
        let mut data = vec![0u8; 100];
        with_threads(2, || {
            par_chunks_mut_with(
                &mut data,
                1,
                || builds.fetch_add(1, Ordering::Relaxed),
                |_, _, _| {},
            );
        });
        // One scratch per worker, not per chunk.
        assert!(builds.load(Ordering::Relaxed) <= 2);
    }

    #[test]
    fn pool_workers_persist_across_calls() {
        let _pool = pool_shared();
        with_exec_mode(ExecMode::Pooled, || {
            with_threads(3, || {
                let mut data = vec![0u8; 96];
                par_chunks_mut(&mut data, 4, |_, c| c.fill(1));
                let after_first = spawned_workers();
                assert!(after_first >= 2, "pool should have started helpers");
                for _ in 0..5 {
                    par_chunks_mut(&mut data, 4, |_, c| c.fill(2));
                }
                assert_eq!(spawned_workers(), after_first, "no re-spawning per call");
                assert!(data.iter().all(|&v| v == 2));
            });
        });
    }

    #[test]
    fn panicking_task_propagates_and_pool_stays_usable() {
        let _pool = pool_shared();
        with_exec_mode(ExecMode::Pooled, || {
            with_threads(2, || {
                let mut data = vec![0u32; 32];
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut poisoned = vec![0u32; 32];
                    par_chunks_mut(&mut poisoned, 1, |i, _| {
                        if i == 17 {
                            panic!("task 17 failed");
                        }
                    });
                }));
                let err = result.expect_err("panic must propagate to the caller");
                let msg = err
                    .downcast_ref::<&str>()
                    .copied()
                    .map(String::from)
                    .or_else(|| err.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                assert!(msg.contains("task 17 failed"), "payload preserved: {msg}");
                // The pool must be parked and reusable after the panic.
                par_chunks_mut(&mut data, 1, |i, c| c[0] = i as u32 + 1);
                for (i, &v) in data.iter().enumerate() {
                    assert_eq!(v, i as u32 + 1);
                }
            });
        });
    }

    #[test]
    fn panic_in_first_worker_drains_claims_and_pool_is_reusable() {
        let _pool = pool_shared();
        for mode in [ExecMode::Pooled, ExecMode::Scoped] {
            with_exec_mode(mode, || {
                with_threads(4, || {
                    let processed = AtomicUsize::new(0);
                    let claims = AtomicUsize::new(0);
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let mut data = vec![0u8; 256];
                        par_chunks_mut(&mut data, 1, |_, _| {
                            // The very first chunk claimed (worker 0's
                            // first pick in either dispatch mode) dies.
                            if claims.fetch_add(1, Ordering::Relaxed) == 0 {
                                panic!("worker 0 failed");
                            }
                            std::thread::sleep(std::time::Duration::from_millis(1));
                            processed.fetch_add(1, Ordering::Relaxed);
                        });
                    }));
                    assert!(result.is_err(), "{mode:?}: panic must propagate");
                    // Fail-fast drain: once chunk 0 panicked, the claim
                    // counter/queue was exhausted so the survivors stopped
                    // claiming instead of grinding through all 255
                    // remaining chunks.
                    let done = processed.load(Ordering::Relaxed);
                    assert!(done < 200, "{mode:?}: drained on unwind (processed {done})");
                    // The dispatcher serves subsequent calls normally.
                    let mut again = vec![0u8; 64];
                    par_chunks_mut(&mut again, 4, |_, c| c.fill(7));
                    assert!(again.iter().all(|&v| v == 7), "{mode:?}: reusable");
                });
            });
        }
    }

    #[test]
    fn shutdown_joins_workers_and_pool_restarts() {
        let _pool = pool_exclusive();
        with_exec_mode(ExecMode::Pooled, || {
            with_threads(2, || {
                let mut data = vec![0u8; 64];
                par_chunks_mut(&mut data, 2, |_, c| c.fill(1));
            });
        });
        shutdown_pool();
        assert_eq!(spawned_workers(), 0);
        with_exec_mode(ExecMode::Pooled, || {
            with_threads(2, || {
                let mut data = vec![0u8; 64];
                par_chunks_mut(&mut data, 2, |_, c| c.fill(3));
                assert!(data.iter().all(|&v| v == 3));
            });
        });
        assert!(spawned_workers() >= 1);
    }

    #[test]
    fn pooled_and_scoped_agree_bitwise() {
        let _pool = pool_shared();
        let work = |i: usize, chunk: &mut [f64]| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = ((i * 17 + j) as f64).cos() * 0.5;
            }
        };
        let mut pooled = vec![0f64; 300];
        with_exec_mode(ExecMode::Pooled, || {
            with_threads(4, || par_chunks_mut(&mut pooled, 9, work));
        });
        let mut scoped = vec![0f64; 300];
        with_exec_mode(ExecMode::Scoped, || {
            with_threads(4, || par_chunks_mut(&mut scoped, 9, work));
        });
        assert_eq!(
            pooled.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            scoped.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }
}
