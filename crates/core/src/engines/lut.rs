//! LUT-tier dispatch: per-call policy and the amortization heuristic.
//!
//! AxCore's weights are group-quantized into a tiny code space (16 FP4
//! codes, 256 FP8 codes), so each activation element's product against
//! *every possible weight code* can be computed once per row and the inner
//! column loop becomes a table gather — the execution style of FIGLUT and
//! LUT Tensor Core (see PAPERS.md). The table entries come from the exact
//! same per-MAC pipeline the direct path runs, so the tier is bit-exact by
//! construction; choosing it is purely a performance decision.
//!
//! The decision is made **once per `gemm` call on the calling thread**,
//! from the output shape and the per-element table width alone — never
//! from the thread count — so the chosen path (and therefore all observed
//! behaviour) is reproducible at any parallelism. Pool workers never read
//! this module's thread-local override: the caller resolves the policy
//! before fanning out, and the workers only see the already-chosen kernel.
//!
//! The tables themselves live in [`axcore_parallel::arena`] buffers, so in
//! pooled steady state a decode call pays only the table *build* cost —
//! the (re)allocation and zeroing of the table storage happen once per
//! thread per shape, not once per call.

use std::cell::Cell;
use std::sync::OnceLock;

/// Per-call choice of the LUT execution tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LutPolicy {
    /// The shape heuristic decides (the default).
    #[default]
    Auto,
    /// Force the LUT tier regardless of shape (exactness tests, benches).
    Always,
    /// Force the direct per-MAC path.
    Never,
}

thread_local! {
    /// Override installed by [`with_lut_policy`] on this thread.
    static OVERRIDE: Cell<Option<LutPolicy>> = const { Cell::new(None) };
}

/// Process-wide default from the `AXCORE_LUT` environment variable
/// (`always` / `never` / `auto`; unset or unrecognized = auto, the
/// latter with a warning).
fn env_policy() -> LutPolicy {
    static ENV: OnceLock<LutPolicy> = OnceLock::new();
    *ENV.get_or_init(|| {
        axcore_parallel::env::parse("AXCORE_LUT", "auto|always|never", |s| {
            match s.to_ascii_lowercase().as_str() {
                "always" => Some(LutPolicy::Always),
                "never" => Some(LutPolicy::Never),
                "auto" | "" => Some(LutPolicy::Auto),
                _ => None,
            }
        })
        .unwrap_or(LutPolicy::Auto)
    })
}

/// The LUT policy in effect on the current thread.
pub fn current_lut_policy() -> LutPolicy {
    OVERRIDE.with(|o| o.get()).unwrap_or_else(env_policy)
}

/// Run `f` with the LUT policy pinned on this thread (restored on exit,
/// including on panic). Engines resolve the policy before fanning work
/// out to the pool, so pinning the calling thread governs the whole call.
pub fn with_lut_policy<R>(policy: LutPolicy, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<LutPolicy>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let prev = OVERRIDE.with(|o| o.replace(Some(policy)));
    let _restore = Restore(prev);
    f()
}

/// How many gather columns each table entry must serve before the build
/// cost amortizes. A table entry costs roughly one direct MAC to build
/// and each gather saves well under one direct MAC, so the break-even
/// sits near `n == entries_per_k`; 4× leaves margin so the tier only
/// engages where it clearly wins (decode `n = 512` against FP4's
/// `≤ 3 units × 16 codes = 48` entries qualifies; tiny-`n` layer calls
/// and FP8's 256-wide tables fall back to the direct path).
const AMORTIZE_FACTOR: usize = 4;

/// Decide LUT vs direct for one prepared-GEMM call. `entries_per_k` is
/// the per-activation-element table width the build fills: for AxCore
/// the most units any one group selects × the code space, the
/// dequantized-weight palette size for FPMA, the code space for the
/// INT-FP engines.
pub(crate) fn use_lut(n: usize, entries_per_k: usize) -> bool {
    match current_lut_policy() {
        LutPolicy::Always => true,
        LutPolicy::Never => false,
        LutPolicy::Auto => entries_per_k > 0 && n >= AMORTIZE_FACTOR * entries_per_k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_requires_amortization() {
        with_lut_policy(LutPolicy::Auto, || {
            assert!(use_lut(512, 48)); // decode shape, FP4 tables
            assert!(!use_lut(512, 256)); // FP8 table too wide for n
            assert!(!use_lut(8, 16)); // tiny-n layer call
            assert!(!use_lut(512, 0)); // degenerate table
        });
    }

    #[test]
    fn overrides_pin_and_restore() {
        let outer = current_lut_policy();
        with_lut_policy(LutPolicy::Always, || {
            assert!(use_lut(1, 1 << 20));
            with_lut_policy(LutPolicy::Never, || {
                assert!(!use_lut(1 << 20, 1));
                assert_eq!(current_lut_policy(), LutPolicy::Never);
            });
            assert_eq!(current_lut_policy(), LutPolicy::Always);
        });
        assert_eq!(current_lut_policy(), outer);
    }
}
