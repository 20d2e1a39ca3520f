//! Integration test host crate; see tests/ directory.
//!
//! The library half holds what the test binaries share: the lock that
//! serializes tests around the process-global tier health state.

use axcore_parallel::health;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Tier quarantine flags and the downgrade counter are process-global,
/// while the tests of one binary run on parallel threads. A test that
/// quarantines a tier — directly, or by corrupting prepared state under
/// `VerifyPolicy::Full` — must not overlap a test whose assertions
/// depend on which tier runs: a W4A8 quarantine landing between the
/// serial and the sharded call of the tier's serial == sharded check
/// sends one of them down the FP path, and the lossy tier's outputs
/// then differ.
static TIER_HEALTH: RwLock<()> = RwLock::new(());

/// Exclusive hold on the tier health state, for a test that quarantines
/// tiers (or reads the process-wide downgrade counter). Health is reset
/// when the hold starts and again when it ends, so no quarantine leaks
/// into the next test.
pub fn tier_health_exclusive() -> TierHealthGuard {
    let guard = TIER_HEALTH.write().unwrap_or_else(PoisonError::into_inner);
    health::reset();
    TierHealthGuard { _hold: guard }
}

/// Shared hold on the tier health state, for a test that needs every
/// tier it addresses to stay unquarantined while it runs. Shared holds
/// run in parallel with each other, never with an exclusive one.
pub fn tier_health_shared() -> RwLockReadGuard<'static, ()> {
    TIER_HEALTH.read().unwrap_or_else(PoisonError::into_inner)
}

/// The exclusive hold of [`tier_health_exclusive`]; resets tier health
/// on drop, before the lock is released.
pub struct TierHealthGuard {
    _hold: RwLockWriteGuard<'static, ()>,
}

impl Drop for TierHealthGuard {
    fn drop(&mut self) {
        health::reset();
    }
}
