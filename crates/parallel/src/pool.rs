//! The persistent worker pool behind [`crate::par_chunks_mut`].
//!
//! Workers are OS threads spawned lazily on first parallel dispatch and
//! then parked on a condvar between jobs, so the steady-state cost of a
//! parallel call is one mutex/condvar round-trip instead of `threads - 1`
//! `clone(2)` + `join(2)` pairs per call. A *job* is a type-erased
//! `&(dyn Fn(usize) + Sync)` body that every participant (the submitting
//! thread as slot 0, pool worker `idx` as slot `idx + 1`) runs
//! concurrently with its own stable slot index. Slot-indexed bodies
//! (shard dispatch) get per-slot thread affinity: worker `idx` always
//! executes the same slot, so its thread-local scratch arena stays warm
//! for that shard's working set. Slot-agnostic bodies ([`run`]) instead
//! claim work items off a shared atomic counter. Either way dispatch
//! allocates nothing.
//!
//! Guarantees:
//!
//! * **Borrow safety** — [`run`] does not return until every participant
//!   has finished the body, so the erased pointer never outlives the
//!   caller's borrows (enforced by the completion wait, including on
//!   panic).
//! * **Panic propagation** — a panic in the body on any thread is caught,
//!   carried back, and re-thrown on the submitting thread; the pool
//!   itself stays parked and reusable afterwards.
//! * **Graceful shutdown** — [`shutdown`] wakes and joins every worker;
//!   the next dispatch restarts the pool from scratch.
//!
//! # Cancellation and forced restart (the watchdog hooks)
//!
//! Two additional, deliberately blunt instruments exist for a serving
//! runtime that must never wedge forever behind one poisoned request:
//!
//! * **Cancellation** ([`request_cancel`]): a process-global flag the
//!   chunk-claim loops poll between chunks. Setting it makes an
//!   in-flight dispatch stop claiming further chunks and converge, so
//!   [`run`] returns to the submitter. The output of a cancelled
//!   dispatch is partial — callers must only cancel work whose result
//!   they will discard. The flag is cleared automatically when the next
//!   job is submitted (and explicitly via [`clear_cancel`]). The serial
//!   path does not poll it: cancellation is a parallel-dispatch escape
//!   hatch, not a general abort.
//! * **Forced restart** ([`force_restart`]): abandons the *current* pool
//!   instance — workers are detached, not joined — and installs a fresh
//!   one, so later dispatches run on healthy threads even if a worker is
//!   stuck inside a chunk that never returns. The abandoned submitter
//!   (if any) keeps waiting on its own completion condition and keeps
//!   its borrows alive, so memory safety is unaffected; the stuck
//!   threads leak until (unless) their chunk finishes. This is the
//!   watchdog's last rung, after cancellation has been given a chance.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// Type-erased job body, called with the participant's stable slot index
/// (0 = the submitting thread, `idx + 1` for pool worker `idx`). The
/// `'static` on the trait object is a lie told through [`run_indexed`]'s
/// transmute; the completion wait makes it safe.
type Body = *const (dyn Fn(usize) + Sync);

/// Wrapper so the raw body pointer can live inside the state mutex.
struct Job(Body);
// SAFETY: the pointer is only dereferenced between job submission and the
// submitter's completion wait, during which the pointee is alive and the
// `Sync` bound makes concurrent calls sound.
#[allow(unsafe_code)]
unsafe impl Send for Job {}

#[derive(Default)]
struct State {
    /// The active job, if any. Present from submission until completion.
    job: Option<Job>,
    /// Monotonic job counter. Each worker remembers the last epoch it
    /// observed, so every participant runs every job exactly once — and
    /// worker `idx` always runs slot `idx + 1`, giving shards a stable
    /// thread (and therefore a stable thread-local scratch arena).
    epoch: u64,
    /// Workers `0..participants` take part in the active job; workers
    /// with higher indices just acknowledge the epoch and keep parking.
    participants: usize,
    /// Participants that have not yet finished the active job.
    running: usize,
    /// First panic payload caught from the active job.
    panic: Option<Box<dyn Any + Send>>,
    /// Worker threads currently spawned.
    spawned: usize,
    /// Set by [`shutdown`]; workers exit their loop when they see it.
    shutting_down: bool,
    handles: Vec<JoinHandle<()>>,
}

struct Pool {
    /// Serializes whole jobs: the pool has a single job slot, so two
    /// top-level parallel calls from different threads queue up here.
    submit: Mutex<()>,
    state: Mutex<State>,
    /// Workers park here waiting for `starts_left > 0` or shutdown.
    work_cv: Condvar,
    /// The submitter parks here waiting for `running == 0`.
    done_cv: Condvar,
}

impl Pool {
    fn new() -> Pool {
        Pool {
            submit: Mutex::new(()),
            state: Mutex::new(State::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        }
    }
}

/// Poison-proof lock: a panic payload is already being propagated by the
/// catch/rethrow protocol, so a poisoned mutex carries no extra danger.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Best-effort cancellation flag polled by the chunk-claim loops.
static CANCEL: AtomicBool = AtomicBool::new(false);

/// Number of [`force_restart`] calls since process start.
static RESTARTS: AtomicU64 = AtomicU64::new(0);

/// The registry holding the *current* pool instance. [`force_restart`]
/// swaps in a fresh [`Pool`]; abandoned instances stay alive only as long
/// as their (possibly stuck) participants hold `Arc` clones.
fn registry() -> &'static Mutex<Arc<Pool>> {
    static REGISTRY: OnceLock<Mutex<Arc<Pool>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Arc::new(Pool::new())))
}

/// The current pool instance.
fn current() -> Arc<Pool> {
    Arc::clone(&lock(registry()))
}

fn worker_loop(pool: Arc<Pool>, idx: usize) {
    // Pool threads are workers for life: nested parallel calls made by
    // engine code running on them must take the serial path.
    crate::mark_worker_thread();
    // Epochs start at 0 and the first job bumps to 1, so a fresh worker
    // never mistakes the idle state for a pending job.
    let mut seen = 0u64;
    let mut st = lock(&pool.state);
    loop {
        // A pending job comes before the shutdown flag: `force_restart`
        // can mark the pool shutting-down after a job was published but
        // before this worker claimed its slot, and the submitter waits
        // for every participant's slot.
        if st.epoch != seen {
            seen = st.epoch;
            if idx < st.participants {
                // Invariant: a participant that has not yet acknowledged
                // the epoch still counts in `running`, so the job cannot
                // have been cleared — `job` is always `Some` here.
                #[allow(clippy::expect_used)]
                let body = st.job.as_ref().expect("job present while participants pending").0;
                drop(st);
                // SAFETY: the submitter keeps the body alive until
                // `running` reaches zero, which cannot happen before this
                // call returns. Slot `idx + 1` is this worker's alone for
                // the job (slot 0 is the submitter), so indexed bodies
                // see each slot exactly once.
                #[allow(unsafe_code)]
                let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*body)(idx + 1) }));
                st = lock(&pool.state);
                if let Err(payload) = result {
                    if st.panic.is_none() {
                        st.panic = Some(payload);
                    }
                }
                st.running -= 1;
                if st.running == 0 {
                    pool.done_cv.notify_one();
                }
            }
        } else if st.shutting_down {
            return;
        } else {
            st = pool
                .work_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Spawn workers until at least `want` exist. Called with the submit
/// lock held, so the count cannot race with another submitter.
fn ensure_workers(pool: &Arc<Pool>, want: usize) {
    let mut st = lock(&pool.state);
    while st.spawned < want {
        let idx = st.spawned;
        let worker_pool = Arc::clone(pool);
        // OS-level spawn failure (resource exhaustion) has no recovery
        // path that preserves the pool contract; fail loudly.
        #[allow(clippy::expect_used)]
        let handle = std::thread::Builder::new()
            .name(format!("axcore-pool-{idx}"))
            .spawn(move || worker_loop(worker_pool, idx))
            .expect("failed to spawn pool worker");
        st.handles.push(handle);
        st.spawned += 1;
    }
}

/// Run `body` concurrently on this thread plus `helpers` pool workers,
/// returning once every participant has finished. Each participant is
/// handed a stable slot index: the submitting thread runs slot 0, pool
/// worker `idx` runs slot `idx + 1` — the same OS thread (and therefore
/// the same thread-local scratch arena) for a given slot on every call.
/// Panics from any participant are re-thrown here after all are done.
pub(crate) fn run_indexed(helpers: usize, body: &(dyn Fn(usize) + Sync)) {
    debug_assert!(helpers >= 1, "run_indexed() needs at least one helper");
    let pool = current();
    let submit = lock(&pool.submit);
    ensure_workers(&pool, helpers);
    // A new job must never inherit a stale cancellation aimed at its
    // predecessor; the submit lock orders this clear before the job's
    // own chunk claims begin.
    CANCEL.store(false, Ordering::Release);
    {
        let mut st = lock(&pool.state);
        debug_assert!(st.job.is_none() && st.running == 0);
        // SAFETY (lifetime erasure): `body` lives for the whole of this
        // function, and this function does not return before the
        // completion wait below observes `running == 0` — after which no
        // worker can still dereference the pointer.
        #[allow(unsafe_code)]
        let erased = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), Body>(body)
        };
        st.job = Some(Job(erased));
        st.participants = helpers;
        st.running = helpers;
        st.epoch = st.epoch.wrapping_add(1);
        pool.work_cv.notify_all();
    }
    // The submitting thread participates as slot 0. Even if the body
    // panics here, the completion wait below must still happen before the
    // borrows behind `body` can be invalidated.
    let caller_result = catch_unwind(AssertUnwindSafe(|| crate::enter_worker(|| body(0))));
    let worker_panic = {
        let mut st = lock(&pool.state);
        while st.running > 0 {
            st = pool
                .done_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.job = None;
        st.panic.take()
    };
    drop(submit);
    if let Err(payload) = caller_result {
        resume_unwind(payload);
    }
    if let Some(payload) = worker_panic {
        resume_unwind(payload);
    }
}

/// Slot-agnostic [`run_indexed`]: every participant runs the same body
/// (the chunk-claim dispatch, where work assignment is dynamic anyway).
pub(crate) fn run(helpers: usize, body: &(dyn Fn() + Sync)) {
    run_indexed(helpers, &|_slot| body());
}

/// Number of pool workers currently spawned (0 before first parallel
/// dispatch and after [`shutdown`]).
pub fn spawned_workers() -> usize {
    lock(&current().state).spawned
}

/// Gracefully stop and join every pool worker. Blocks until all workers
/// have exited; the next parallel dispatch restarts the pool lazily.
/// Safe to call at any time from a non-worker thread — in-flight jobs
/// finish first because shutdown takes the submission lock. For a pool
/// that may be wedged behind a stuck job, use [`force_restart`] instead:
/// this function would block behind the same job.
pub fn shutdown() {
    let pool = current();
    let _submit = lock(&pool.submit);
    let handles = {
        let mut st = lock(&pool.state);
        if st.spawned == 0 {
            return;
        }
        st.shutting_down = true;
        pool.work_cv.notify_all();
        std::mem::take(&mut st.handles)
    };
    for handle in handles {
        let _ = handle.join();
    }
    let mut st = lock(&pool.state);
    st.spawned = 0;
    st.shutting_down = false;
}

/// Request cancellation of the in-flight parallel dispatch: its
/// chunk-claim loops stop claiming further chunks and the dispatch
/// converges, returning control to the submitter with a **partial**
/// output. Only cancel work whose result will be discarded. The flag is
/// sticky until [`clear_cancel`] or the next pooled job submission.
pub fn request_cancel() {
    CANCEL.store(true, Ordering::Release);
}

/// Clear a pending cancellation request (also happens automatically when
/// the next pooled job is submitted).
pub fn clear_cancel() {
    CANCEL.store(false, Ordering::Release);
}

/// Whether a cancellation request is pending. Polled by the dispatch
/// loops between chunk claims; long-running custom bodies may poll it
/// too.
pub fn cancel_requested() -> bool {
    CANCEL.load(Ordering::Acquire)
}

/// Number of [`force_restart`] abandonments since process start — a
/// health signal for long-running services (each one leaked at least the
/// abandoned pool's threads).
pub fn restarts() -> u64 {
    RESTARTS.load(Ordering::Relaxed)
}

/// Abandon the current pool instance and install a fresh one, without
/// joining (or waiting for) the old workers. Returns `true` if a pool
/// with spawned workers was abandoned.
///
/// This is the watchdog's last-resort recovery for a pool wedged behind
/// a chunk that never returns: [`shutdown`] would block behind the stuck
/// job, while this call lets *future* dispatches proceed on new threads
/// immediately. The abandoned instance is marked shutting-down so its
/// healthy workers exit once they have run any slot already published
/// to them (or are parked); a truly stuck worker — and the submitter
/// blocked waiting for it — leak. The
/// submitter's completion wait is what keeps the job's borrows alive, so
/// abandonment never invalidates memory; it only stops *new* work from
/// queueing behind the wedge.
pub fn force_restart() -> bool {
    // Also raise the cancel flag: if the wedge is many chunks rather
    // than one stuck chunk, this lets the old job converge on its own.
    CANCEL.store(true, Ordering::Release);
    let old = {
        let mut slot = lock(registry());
        std::mem::replace(&mut *slot, Arc::new(Pool::new()))
    };
    RESTARTS.fetch_add(1, Ordering::Relaxed);
    let mut st = lock(&old.state);
    let had_workers = st.spawned > 0;
    st.shutting_down = true;
    // Detach: dropping the handles leaks nothing extra — the threads
    // exit via shutting_down when parked or on job completion.
    st.handles.clear();
    old.work_cv.notify_all();
    had_workers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_restart_on_idle_pool_swaps_instance() {
        let _pool = crate::tests::pool_exclusive();
        // Spin the pool up, force-restart, and prove later dispatches
        // run on the fresh instance.
        crate::with_exec_mode(crate::ExecMode::Pooled, || {
            crate::with_threads(2, || {
                let mut data = vec![0u8; 64];
                crate::par_chunks_mut(&mut data, 2, |_, c| c.fill(1));
            });
        });
        let before = restarts();
        force_restart();
        clear_cancel();
        assert_eq!(restarts(), before + 1);
        // Fresh instance: no workers yet, and dispatch works again.
        crate::with_exec_mode(crate::ExecMode::Pooled, || {
            crate::with_threads(2, || {
                let mut data = vec![0u8; 64];
                crate::par_chunks_mut(&mut data, 2, |_, c| c.fill(9));
                assert!(data.iter().all(|&v| v == 9));
            });
        });
    }

    #[test]
    fn restart_before_a_helper_claims_its_slot_still_runs_the_slot() {
        let _pool = crate::tests::pool_exclusive();
        // Slot 0 abandons the pool right after the job is published, so
        // the helper usually wakes to find both the job and the shutdown
        // flag: it must still run its slot (the submitter waits for it)
        // rather than exit and wedge the submitter for good.
        crate::with_exec_mode(crate::ExecMode::Pooled, || {
            crate::with_threads(2, || {
                let mut data = vec![0u8; 8];
                crate::par_chunks_mut(&mut data, 2, |_, c| c.fill(1));
            });
        });
        let (tx, rx) = std::sync::mpsc::channel();
        let submitter = std::thread::spawn(move || {
            let helper_ran = AtomicBool::new(false);
            run_indexed(1, &|slot| {
                if slot == 0 {
                    force_restart();
                } else {
                    helper_ran.store(true, Ordering::SeqCst);
                }
            });
            let _ = tx.send(helper_ran.load(Ordering::SeqCst));
        });
        let helper_ran = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("submitter wedged behind an abandoned helper"));
        clear_cancel();
        assert!(helper_ran, "the helper's slot never ran");
        assert!(submitter.join().is_ok());
    }

    #[test]
    fn cancel_flag_round_trip() {
        let _pool = crate::tests::pool_exclusive();
        clear_cancel();
        assert!(!cancel_requested());
        request_cancel();
        assert!(cancel_requested());
        clear_cancel();
        assert!(!cancel_requested());
    }
}
