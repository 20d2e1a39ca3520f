//! Counting-allocator proof that steady-state decode allocates nothing.
//!
//! A `#[global_allocator]` wrapper around `System` counts every
//! `alloc`/`alloc_zeroed`/`realloc` while armed. The test prepares an
//! AxCore decode engine, runs a few warmup calls so the per-thread
//! scratch arena and the prepared-LUT cache are populated, then arms
//! the counter and asserts that repeated `m = 1` decode calls perform
//! **zero** heap allocations — on the LUT tier (`LutPolicy::Always`,
//! packed planes + SWAR/AVX2 fold, also at 4 and 8 stacked rows per
//! call, the continuous-batching shape), on the
//! direct per-MAC tier (`LutPolicy::Never`), and on the W4A8
//! integer-activation tier (`ActPolicy::Always`, Q8 codes, scales,
//! compensation sums and block dots all in arena-recycled buffers).
//!
//! Two dispatch regimes are covered:
//!
//! * **serial** (`threads = 1`) — how decode runs below the 32Ki-MAC
//!   parallel threshold;
//! * **sharded** (`threads = 4`, pooled) — the column-shard fan-out.
//!   The shard plan is pure arithmetic, the indexed pool dispatch
//!   installs one borrowed job pointer (no per-call queue), and each
//!   worker's LUT table comes back out of its own thread-local arena
//!   slot — so once the pool and every participant's arena are warm,
//!   multi-worker decode must also be allocation-free.
//!
//! Attention over the paged KV cache is covered the same way, serially:
//! a warm `m = 1` call through a multi-page view (verification included)
//! and the 4-item stacked loop of a continuous-batching decode step
//! (append, view, attend per item, one scratch for all) must both make
//! zero heap allocations, over f32 pages and over a 4-bit (`q4-opt`)
//! arena's sealed code pages. So must a `try_commit` that seals a page
//! of a warm `q4-opt` arena into codes and scales.
//!
//! The whole test binary is one `#[test]` so no other test can race
//! the global armed flag.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use axcore::engines::{with_act_policy, with_lut_policy, ActPolicy, AxCoreEngine, GemmEngine, LutPolicy};
use axcore::reliability::VerifyPolicy;
use axcore_nn::attention::{attend, try_attend_stacked, AttnScratch};
use axcore_nn::kvcache::{KvArena, KvPageConfig};
use axcore_parallel::ExecMode;
use axcore_quant::{GroupQuantizer, KvQuantConfig};
use axcore_softfloat::FP16;

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f` with the counter armed and return how many allocations it made.
fn allocations_during(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn steady_state_decode_allocates_nothing() {
    let (k, n) = (512usize, 512usize);
    let w: Vec<f32> = (0..k * n)
        .map(|i| ((i as u64 * 2654435761 % 1009) as f32 / 504.5 - 1.0) * 0.4)
        .collect();
    let q = GroupQuantizer::adaptive_fp4(32, 4, None).quantize(&w, k, n);
    let a: Vec<f32> = (0..k)
        .map(|i| (i as u64 * 48271 % 65521) as f32 / 32760.5 - 1.0)
        .collect();

    let engine = AxCoreEngine::new(FP16);
    let prepared = engine.prepare(&q);
    let mut out = vec![0f32; n];

    axcore_parallel::with_threads(1, || {
        axcore_parallel::with_exec_mode(ExecMode::Pooled, || {
            for policy in [LutPolicy::Always, LutPolicy::Never] {
                with_lut_policy(policy, || {
                    // Warmup: populate the prepared-LUT cache and grow
                    // the per-thread scratch arena to steady-state size.
                    for _ in 0..3 {
                        prepared.gemm(&a, 1, &mut out);
                    }
                    let count = allocations_during(|| {
                        for _ in 0..50 {
                            prepared.gemm(&a, 1, &mut out);
                        }
                    });
                    assert_eq!(
                        count, 0,
                        "steady-state decode under {policy:?} made {count} heap \
                         allocations across 50 calls; expected zero"
                    );
                });
            }
        });
    });

    // Sharded decode: four pool workers, each owning a column shard with
    // its own arena-recycled LUT table. Warmup spawns the workers and
    // fills every participant's arena slot; stable slot→thread affinity
    // then keeps each worker reusing its own warm table, so the armed
    // window must see zero allocations from any thread.
    axcore_parallel::with_threads(4, || {
        axcore_parallel::with_exec_mode(ExecMode::Pooled, || {
            with_lut_policy(LutPolicy::Always, || {
                for _ in 0..3 {
                    prepared.gemm(&a, 1, &mut out);
                }
                let count = allocations_during(|| {
                    for _ in 0..50 {
                        prepared.gemm(&a, 1, &mut out);
                    }
                });
                assert_eq!(
                    count, 0,
                    "steady-state sharded decode at 4 workers made {count} heap \
                     allocations across 50 calls; expected zero"
                );
            });
        });
    });

    // Stacked decode (a continuous batch: 4 or 8 rows per call) on the
    // LUT tier: the AVX2 fold builds a block of row tables in the
    // worker's table slot, and a column shard stages multi-row blocks in
    // an arena buffer before writing them back — both recycled, so
    // stacked decode must be as allocation-free as single rows, serially
    // and across a 4-worker fan-out.
    let a_stacked: Vec<f32> = (0..8 * k)
        .map(|i| (i as u64 * 40503 % 65521) as f32 / 32760.5 - 1.0)
        .collect();
    let mut out_stacked = vec![0f32; 8 * n];
    for threads in [1usize, 4] {
        for m in [4usize, 8] {
            axcore_parallel::with_threads(threads, || {
                axcore_parallel::with_exec_mode(ExecMode::Pooled, || {
                    with_lut_policy(LutPolicy::Always, || {
                        let (a, out) = (&a_stacked[..m * k], &mut out_stacked[..m * n]);
                        for _ in 0..3 {
                            prepared.gemm(a, m, out);
                        }
                        let count = allocations_during(|| {
                            for _ in 0..50 {
                                prepared.gemm(a, m, out);
                            }
                        });
                        assert_eq!(
                            count, 0,
                            "steady-state stacked decode (m = {m}) at {threads} worker(s) \
                             made {count} heap allocations across 50 calls; expected zero"
                        );
                    });
                });
            });
        }
    }

    // Paged attention, serial: the page-walk view borrows the block
    // table and the kernel's only scratch is one score row plus the head
    // context, reused across calls and across a stacked batch's items.
    let (d, nh, layers) = (64usize, 4usize, 2usize);
    let dh = d / nh;
    let kv_cfg = KvPageConfig { block: 16, verify: Some(VerifyPolicy::Full), ..Default::default() };
    let mut arena = KvArena::new(layers, d, nh, kv_cfg);
    let rows = |n: usize, salt: u64| -> Vec<f32> {
        (0..n * d)
            .map(|i| ((i as u64 * 2654435761 + salt) % 2003) as f32 / 1001.5 - 1.0)
            .collect()
    };
    let mut items = Vec::new();
    for (i, len) in [40usize, 77, 16, 130].into_iter().enumerate() {
        let seq = arena.try_join().expect("arena admits a sequence");
        for layer in 0..layers {
            let (k, v) = (rows(len, i as u64), rows(len, 7 + i as u64));
            arena.try_append(seq, layer, 0, &k, &v).expect("prefix append");
        }
        arena.try_commit(seq, len).expect("prefix commit");
        items.push((seq, len));
    }
    let (q, k, v) = (rows(4, 11), rows(4, 12), rows(4, 13));
    let mut ctx = vec![0f32; 4 * d];
    let mut scratch = AttnScratch::default();
    axcore_parallel::with_threads(1, || {
        let (seq, len) = items[3];
        let mut one = || {
            let view = arena.try_view(seq, 1, len).expect("verified view");
            attend(&q[..d], &view, len - 1, 1, d, nh, dh, &mut scratch, &mut ctx[..d]);
        };
        for _ in 0..3 {
            one();
        }
        let count = allocations_during(|| {
            for _ in 0..50 {
                one();
            }
        });
        assert_eq!(
            count, 0,
            "warm m = 1 attention through a {}-page view made {count} heap allocations \
             across 50 calls; expected zero",
            len.div_ceil(16)
        );

        // The stacked loop appends each item's new row at its uncommitted
        // position (an idempotent re-append after the first call), so
        // every repetition is the same decode step.
        let mut step = || {
            for layer in 0..layers {
                let items = items.iter().copied();
                try_attend_stacked(&mut arena, layer, items, &q, &k, &v, &mut scratch, &mut ctx)
                    .expect("stacked attention");
            }
        };
        for _ in 0..3 {
            step();
        }
        let count = allocations_during(|| {
            for _ in 0..50 {
                step();
            }
        });
        assert_eq!(
            count, 0,
            "warm 4-item stacked attention made {count} heap allocations across 50 \
             steps; expected zero"
        );
    });

    // The same loops over a 4-bit arena, whose committed pages are
    // sealed code pages (codes and FP16 scales, rebuilt by the kernel as
    // it reads them) behind the f32 hot tail.
    let q4_view_cfg = KvPageConfig { quant: Some(KvQuantConfig::opt()), ..kv_cfg };
    let mut coded = KvArena::new(layers, d, nh, q4_view_cfg);
    let mut coded_items = Vec::new();
    for (i, len) in [40usize, 77, 16, 130].into_iter().enumerate() {
        let seq = coded.try_join().expect("arena admits a sequence");
        for layer in 0..layers {
            let (k, v) = (rows(len, i as u64), rows(len, 7 + i as u64));
            coded.try_append(seq, layer, 0, &k, &v).expect("prefix append");
        }
        coded.try_commit(seq, len).expect("prefix commit seals the full pages");
        coded_items.push((seq, len));
    }
    assert!(
        coded.resident_bytes() < arena.resident_bytes(),
        "sealed code pages hold fewer bytes than f32 pages ({} vs {})",
        coded.resident_bytes(),
        arena.resident_bytes()
    );
    axcore_parallel::with_threads(1, || {
        let (seq, len) = coded_items[3];
        let mut one = || {
            let view = coded.try_view(seq, 1, len).expect("verified view");
            attend(&q[..d], &view, len - 1, 1, d, nh, dh, &mut scratch, &mut ctx[..d]);
        };
        for _ in 0..3 {
            one();
        }
        let count = allocations_during(|| {
            for _ in 0..50 {
                one();
            }
        });
        assert_eq!(
            count, 0,
            "warm m = 1 attention over {} sealed code pages made {count} heap allocations \
             across 50 calls; expected zero",
            len / 16
        );
        let mut step = || {
            for layer in 0..layers {
                let items = coded_items.iter().copied();
                try_attend_stacked(&mut coded, layer, items, &q, &k, &v, &mut scratch, &mut ctx)
                    .expect("stacked attention");
            }
        };
        for _ in 0..3 {
            step();
        }
        let count = allocations_during(|| {
            for _ in 0..50 {
                step();
            }
        });
        assert_eq!(
            count, 0,
            "warm 4-item stacked attention over code pages made {count} heap allocations \
             across 50 steps; expected zero"
        );
    });

    // Quantize-on-fill: a commit that seals a page rounds every K and V
    // group of it into codes and scales, in a code buffer the arena set
    // aside when it claimed the page, and keeps the page's f32 rows for
    // the next hot page. Parity is off (a new parity group allocates),
    // and each page's rows are appended before the counter is armed, so
    // the counted region is the commit alone.
    let q4_cfg = KvPageConfig {
        quant: Some(KvQuantConfig::opt()),
        block: 16,
        parity: None,
        ..Default::default()
    };
    let mut q4 = KvArena::new(layers, d, nh, q4_cfg);
    let seq = q4.try_join().expect("arena admits a sequence");
    let page_rows = (rows(16, 21), rows(16, 22));
    let mut seal_next = |count: bool| -> u64 {
        let start = q4.len(seq);
        for layer in 0..layers {
            q4.try_append(seq, layer, start, &page_rows.0, &page_rows.1)
                .expect("page append");
        }
        let mut commit = || q4.try_commit(seq, start + 16).expect("sealing commit");
        if count {
            allocations_during(commit)
        } else {
            commit();
            0
        }
    };
    for _ in 0..3 {
        seal_next(false);
    }
    let count: u64 = (0..20).map(|_| seal_next(true)).sum();
    assert_eq!(
        count, 0,
        "20 page-sealing q4 commits made {count} heap allocations; expected zero"
    );

    // W4A8 integer-activation tier: the per-call Q8 row quantization and
    // the per-column block dots all land in arena-recycled buffers, so
    // once warm the integer tier must be just as allocation-free as the
    // LUT tiers — serially and across a 4-worker column-shard fan-out.
    for threads in [1usize, 4] {
        axcore_parallel::with_threads(threads, || {
            axcore_parallel::with_exec_mode(ExecMode::Pooled, || {
                with_act_policy(ActPolicy::Always, || {
                    for _ in 0..3 {
                        prepared.gemm(&a, 1, &mut out);
                    }
                    let count = allocations_during(|| {
                        for _ in 0..50 {
                            prepared.gemm(&a, 1, &mut out);
                        }
                    });
                    assert_eq!(
                        count, 0,
                        "steady-state W4A8 decode at {threads} worker(s) made {count} \
                         heap allocations across 50 calls; expected zero"
                    );
                });
            });
        });
    }
}
