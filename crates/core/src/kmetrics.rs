//! Kernel-phase timing for the prepared decode path.
//!
//! The decode benchmark wants the per-call cost *breakdown* — how much
//! of a decode GEMM goes into LUT table builds versus activation
//! quantization versus the gather/dot itself — not just the total. The
//! interesting phases run **on pool workers**, so thread-local
//! accounting on the calling thread would miss them; instead this
//! module keeps process-global atomic nanosecond counters that the
//! instrumented sections add into from whichever thread runs them.
//!
//! Timing is off by default and costs one relaxed atomic load per
//! instrumented section when off. [`with_kernel_timing`] turns it on
//! for the extent of a closure and returns the counter deltas; it is a
//! measurement harness for benchmarks, not a steady-state profiler, and
//! concurrent harness calls would read each other's sections (the
//! counters are global by design).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static LUT_BUILD_NS: AtomicU64 = AtomicU64::new(0);
static ACT_QUANT_NS: AtomicU64 = AtomicU64::new(0);

/// Nanoseconds spent in instrumented kernel phases during one
/// [`with_kernel_timing`] extent, summed across all participating
/// threads (a two-worker build of 2 × 50 µs reports 100 µs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelTiming {
    /// Time inside LUT table builds (`drive_lut`'s build phase).
    pub lut_build_ns: u64,
    /// Time inside Q8 activation-row quantization (the W4A8 tier).
    pub act_quant_ns: u64,
}

/// Run `f` inside the named counter when timing is enabled.
fn record<R>(counter: &'static AtomicU64, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let t0 = Instant::now();
    let r = f();
    counter.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    r
}

/// Instrument one LUT table build (called from `drive_lut`).
pub(crate) fn record_lut_build<R>(f: impl FnOnce() -> R) -> R {
    record(&LUT_BUILD_NS, f)
}

/// Instrument one activation-row quantization (called from the W4A8
/// tier).
pub(crate) fn record_act_quant<R>(f: impl FnOnce() -> R) -> R {
    record(&ACT_QUANT_NS, f)
}

/// Run `f` with kernel-phase timing enabled and return its result
/// together with the phase nanoseconds accumulated during the call
/// (across all threads). Nesting restores the previous enabled state on
/// exit, including on panic.
pub fn with_kernel_timing<R>(f: impl FnOnce() -> R) -> (R, KernelTiming) {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            ENABLED.store(self.0, Ordering::Relaxed);
        }
    }
    let _restore = Restore(ENABLED.swap(true, Ordering::Relaxed));
    let lut0 = LUT_BUILD_NS.load(Ordering::Relaxed);
    let act0 = ACT_QUANT_NS.load(Ordering::Relaxed);
    let r = f();
    let timing = KernelTiming {
        lut_build_ns: LUT_BUILD_NS.load(Ordering::Relaxed).wrapping_sub(lut0),
        act_quant_ns: ACT_QUANT_NS.load(Ordering::Relaxed).wrapping_sub(act0),
    };
    (r, timing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, PoisonError};

    /// `ENABLED` and the counters are process-global while tests run on
    /// parallel threads: a timing extent open in one test makes another
    /// test's "disabled" section record. Every test here holds this.
    static TIMING: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_sections_record_nothing() {
        let _serial = TIMING.lock().unwrap_or_else(PoisonError::into_inner);
        let before = LUT_BUILD_NS.load(Ordering::Relaxed);
        record_lut_build(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        assert_eq!(LUT_BUILD_NS.load(Ordering::Relaxed), before);
    }

    #[test]
    fn timing_extent_captures_section_deltas() {
        let _serial = TIMING.lock().unwrap_or_else(PoisonError::into_inner);
        let ((), t) = with_kernel_timing(|| {
            record_lut_build(|| std::thread::sleep(std::time::Duration::from_millis(2)));
            record_act_quant(|| std::thread::sleep(std::time::Duration::from_millis(1)));
        });
        assert!(t.lut_build_ns >= 1_000_000, "build section timed: {t:?}");
        assert!(t.act_quant_ns >= 500_000, "quant section timed: {t:?}");
        // Outside the extent the sections are dark again.
        let before = ACT_QUANT_NS.load(Ordering::Relaxed);
        record_act_quant(|| ());
        assert_eq!(ACT_QUANT_NS.load(Ordering::Relaxed), before);
    }
}
