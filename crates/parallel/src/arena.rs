//! Thread-local scratch arena: recycled `Vec` buffers for the per-call
//! working state of the GEMM engines (LUT tables, row-encode buffers,
//! partial-accumulator tiles).
//!
//! Every prepared-GEMM call needs a handful of short-lived buffers whose
//! sizes repeat call after call for a given layer shape. Allocating them
//! fresh each call puts a malloc + page-fault + memset tax on the decode
//! path (m = 1), where the buffers are a large fraction of the work.
//! [`take`] instead pops a cached buffer from a per-thread, per-type free
//! list and the returned [`ArenaVec`] pushes it back on drop — so a
//! steady-state decode call performs **zero heap allocations** (enforced
//! by the `zero_alloc_decode` counting-allocator test).
//!
//! Contract: the buffer returned by [`take`] has exactly `len` elements,
//! but elements that survived from an earlier use keep their **stale
//! values** — only growth past the cached length is filled with `fill`.
//! Callers must either overwrite every element they read (the engines'
//! scratch invariant already guarantees this) or use [`take_filled`].
//!
//! In [`crate::ExecMode::Scoped`] (legacy) mode the arena hands out fresh
//! allocations and drops them on return, faithfully reproducing the
//! pre-pool per-call allocation behavior for A/B benchmarking.

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::mem;
use std::ops::{Deref, DerefMut};

/// Free-list depth per element type per thread. Bounds worst-case cached
/// memory while comfortably covering one engine call's buffer count.
const MAX_CACHED_PER_TYPE: usize = 8;

thread_local! {
    /// Per-thread free lists: `TypeId::of::<Vec<T>>()` → `Vec<Vec<T>>`.
    static CACHE: RefCell<HashMap<TypeId, Box<dyn Any>>> = RefCell::new(HashMap::new());
}

/// A recycled buffer. Derefs to `Vec<T>`; returns its storage to the
/// current thread's arena when dropped.
pub struct ArenaVec<T: 'static> {
    buf: Vec<T>,
    recycle: bool,
}

/// Take a buffer of exactly `len` elements from the current thread's
/// arena, allocating only if no cached buffer exists. Elements reused
/// from a cached buffer keep their previous (stale) values; only newly
/// grown elements are set to `fill`.
pub fn take<T: Clone + 'static>(len: usize, fill: T) -> ArenaVec<T> {
    if crate::current_exec_mode() == crate::ExecMode::Scoped {
        // Legacy mode: per-call allocation, exactly like the pre-pool
        // engines (`vec![fill; len]` at every call site).
        return ArenaVec {
            buf: vec![fill; len],
            recycle: false,
        };
    }
    // Buckets are keyed by `TypeId::of::<Vec<T>>`, so the downcast to
    // `Vec<Vec<T>>` cannot fail.
    #[allow(clippy::expect_used)]
    let mut buf: Vec<T> = CACHE
        .with(|c| {
            c.borrow_mut()
                .get_mut(&TypeId::of::<Vec<T>>())
                .and_then(|b| b.downcast_mut::<Vec<Vec<T>>>().expect("bucket type").pop())
        })
        .unwrap_or_default();
    if buf.len() < len {
        buf.resize(len, fill);
    } else {
        buf.truncate(len);
    }
    ArenaVec { buf, recycle: true }
}

/// A new buffer of `len` elements equal to `fill` that never passes
/// through the thread's free list: not taken from it, and freed to the
/// allocator when dropped. For long-lived buffers (KV pages), whose churn
/// would otherwise take and displace the per-call scratch the free list
/// is for.
pub fn fresh<T: Clone + 'static>(len: usize, fill: T) -> ArenaVec<T> {
    ArenaVec {
        buf: vec![fill; len],
        recycle: false,
    }
}

/// [`take`], but every element is guaranteed to equal `fill` — for
/// callers that rely on initialized contents.
pub fn take_filled<T: Clone + 'static>(len: usize, fill: T) -> ArenaVec<T> {
    let mut v = take(len, fill.clone());
    v.buf.clear();
    v.buf.resize(len, fill);
    v
}

/// Drop every buffer cached by the current thread (test hygiene; the
/// arena refills lazily).
pub fn trim() {
    let _ = CACHE.try_with(|c| c.borrow_mut().clear());
}

impl<T: 'static> Drop for ArenaVec<T> {
    fn drop(&mut self) {
        if !self.recycle {
            return;
        }
        let buf = mem::take(&mut self.buf);
        // `try_with`: if the thread is being torn down, just free.
        let _ = CACHE.try_with(|c| {
            let mut map = c.borrow_mut();
            // Same `TypeId` keying as `take`: the downcast cannot fail.
            #[allow(clippy::expect_used)]
            let bucket = map
                .entry(TypeId::of::<Vec<T>>())
                .or_insert_with(|| Box::new(Vec::<Vec<T>>::new()) as Box<dyn Any>)
                .downcast_mut::<Vec<Vec<T>>>()
                .expect("bucket type");
            if bucket.len() < MAX_CACHED_PER_TYPE {
                bucket.push(buf);
            }
        });
    }
}

impl<T: 'static> Deref for ArenaVec<T> {
    type Target = Vec<T>;
    #[inline]
    fn deref(&self) -> &Vec<T> {
        &self.buf
    }
}

impl<T: 'static> DerefMut for ArenaVec<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.buf
    }
}

impl<T: std::fmt::Debug + 'static> std::fmt::Debug for ArenaVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.buf.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_requested_length() {
        trim();
        let a = take(10, 7u32);
        assert_eq!(a.len(), 10);
        assert!(a.iter().all(|&v| v == 7));
    }

    #[test]
    fn buffers_are_recycled_with_stale_contents() {
        crate::with_exec_mode(crate::ExecMode::Pooled, || {
            trim();
            {
                let mut a = take(4, 0u64);
                a[0] = 42;
            }
            // Same thread, same type: the recycled buffer comes back with
            // its old contents in the reused prefix.
            let b = take::<u64>(4, 0);
            assert_eq!(b[0], 42);
            let c = take_filled::<u64>(4, 0);
            assert!(c.iter().all(|&v| v == 0));
        });
    }

    #[test]
    fn fresh_buffers_skip_the_free_list() {
        crate::with_exec_mode(crate::ExecMode::Pooled, || {
            trim();
            {
                let mut a = take(4, 0i64);
                a[0] = 42;
            }
            // A fresh buffer leaves the cached one in place, and is not
            // cached in turn when dropped.
            {
                let mut f = fresh(4, 1i64);
                assert!(f.iter().all(|&v| v == 1));
                f[0] = 7;
            }
            let cached = take::<i64>(4, 0);
            assert_eq!(cached[0], 42);
            assert_eq!(take::<i64>(4, 0)[0], 0, "a fresh buffer must not come back");
        });
    }

    #[test]
    fn scoped_mode_hands_out_fresh_buffers() {
        crate::with_exec_mode(crate::ExecMode::Scoped, || {
            trim();
            {
                let mut a = take(4, 0u16);
                a[0] = 9;
            }
            let b = take::<u16>(4, 0);
            assert_eq!(b[0], 0, "legacy mode must not recycle");
        });
    }

    #[test]
    fn growth_past_cached_length_is_filled() {
        crate::with_exec_mode(crate::ExecMode::Pooled, || {
            trim();
            {
                let mut a = take(2, 0i32);
                a[0] = -5;
                a[1] = -6;
            }
            let b = take(5, 1i32);
            assert_eq!(&b[..], &[-5, -6, 1, 1, 1]);
        });
    }
}
