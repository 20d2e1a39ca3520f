//! Soak and recovery acceptance tests for the serving runtime: many
//! concurrent submitters, execution-tier faults injected mid-flight, a
//! forced wedge with watchdog recovery — and through all of it, every
//! ticket must resolve (no deadlock), every served answer must be
//! bit-identical to the serial single-request path, and the worker pool
//! must remain usable afterwards.
//!
//! Tier quarantine, the runtime verify policy, and the worker pool are
//! process-global, so the tests serialize on the shared tier-health
//! lock, held exclusively, which resets health state on both sides
//! (same discipline as `fault_tolerance.rs`).

use axcore::reliability::VerifyPolicy;
use axcore_nn::eval::{quantize_model, QuantizedLm, Scheme};
use axcore_nn::generate::{try_generate, Decoding};
use axcore_nn::kvcache::KvPageConfig;
use axcore_nn::layers::ActKind;
use axcore_nn::model::{LmConfig, TransformerLm};
use axcore_parallel::{health, Tier};
use axcore_serve::{Incident, ServeConfig, ServeError, ServeFault, Server};
use std::collections::HashMap;
use axcore_xtests::tier_health_exclusive;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::Duration;

const BUDGETS: [usize; 2] = [3, 5];
const PROMPTS: usize = 6;

fn qlm() -> Arc<QuantizedLm> {
    static QLM: OnceLock<Arc<QuantizedLm>> = OnceLock::new();
    Arc::clone(QLM.get_or_init(|| {
        let cfg = LmConfig {
            vocab: 23,
            d_model: 24,
            n_layers: 1,
            n_heads: 2,
            d_ff: 48,
            max_seq: 32,
            act: ActKind::Relu,
        };
        let model = TransformerLm::new(cfg, 29);
        Arc::new(quantize_model(&model, Scheme::AxCore, 8, None))
    }))
}

fn prompt_for(i: usize) -> Vec<usize> {
    vec![1 + (i % PROMPTS), 2 + (i % 3), 4]
}

/// Serial single-request references for every (prompt, budget) shape the
/// soak submits — computed before any fault churn starts, used to check
/// bit-exactness of everything the server completes.
fn references(model: &QuantizedLm) -> HashMap<(usize, usize), Vec<usize>> {
    let mut map = HashMap::new();
    for i in 0..PROMPTS {
        for &b in &BUDGETS {
            let want = try_generate(model, &prompt_for(i), b, Decoding::Greedy)
                .expect("serial reference");
            map.insert((i % PROMPTS, b), want);
        }
    }
    map
}

/// The soak proper: 4 submitter threads × 30 requests against a chaos
/// thread that quarantines the LUT tiers and lifts the quarantines again
/// mid-flight (the at-rest-fault degradation path, exercised while
/// batches are decoding). Assertions: every ticket resolves inside a
/// hard timeout, every completion is bit-exact with the serial
/// reference, the queue respects its bound, and the pool still serves
/// after the churn.
#[test]
fn soak_under_tier_fault_churn_is_deadlock_free_and_bit_exact() {
    let _g = tier_health_exclusive();
    let model = qlm();
    let refs = Arc::new(references(&model));
    let server = Arc::new(Server::start(Arc::clone(&model), ServeConfig {
        queue_depth: 32,
        max_batch: 4,
        batch_window: Duration::from_millis(1),
        default_deadline: Duration::from_secs(60),
        watchdog_interval: Duration::from_millis(10),
        ..ServeConfig::default()
    }));

    let stop_chaos = Arc::new(AtomicBool::new(false));
    let chaos = {
        let stop = Arc::clone(&stop_chaos);
        thread::spawn(move || {
            while !stop.load(Relaxed) {
                health::quarantine(Tier::Avx2Lut);
                thread::sleep(Duration::from_millis(3));
                health::quarantine(Tier::SwarLut);
                thread::sleep(Duration::from_millis(3));
                // Lift the quarantines: the engines climb back onto the
                // LUT tiers while requests are still in flight.
                health::reset();
                thread::sleep(Duration::from_millis(3));
            }
            health::reset();
        })
    };

    let served = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let mut submitters = Vec::new();
    for t in 0..4usize {
        let server = Arc::clone(&server);
        let refs = Arc::clone(&refs);
        let served = Arc::clone(&served);
        let failed = Arc::clone(&failed);
        submitters.push(thread::spawn(move || {
            for i in 0..30usize {
                let idx = t * 30 + i;
                let p = prompt_for(idx);
                let b = BUDGETS[idx % BUDGETS.len()];
                match server.submit(&p, b, None) {
                    Ok(ticket) => {
                        let resolved = ticket
                            .wait_for(Duration::from_secs(60))
                            .expect("ticket resolved inside the liveness bound (no deadlock)");
                        match resolved {
                            Ok(c) => {
                                let want = &refs[&(idx % PROMPTS, b)];
                                assert_eq!(
                                    &c.tokens, want,
                                    "served output diverged from the serial reference \
                                     under tier fault churn (prompt {idx}, budget {b})"
                                );
                                served.fetch_add(1, Relaxed);
                            }
                            Err(e) => {
                                // Typed failures are acceptable under
                                // churn; silent wrong answers are not.
                                assert!(
                                    matches!(
                                        e,
                                        ServeError::DeadlineExceeded
                                            | ServeError::Wedged
                                            | ServeError::Invalid(_)
                                    ),
                                    "unexpected failure type: {e}"
                                );
                                failed.fetch_add(1, Relaxed);
                            }
                        }
                    }
                    Err(_) => {
                        failed.fetch_add(1, Relaxed);
                    }
                }
            }
        }));
    }
    for s in submitters {
        s.join().expect("submitter finished");
    }
    stop_chaos.store(true, Relaxed);
    chaos.join().expect("chaos thread finished");

    // The pool (and the whole serving path) must still work after the
    // churn: one more round of requests, still bit-exact.
    for i in 0..4usize {
        let p = prompt_for(i);
        let got = server
            .submit(&p, 3, None)
            .expect("admitted after churn")
            .wait()
            .expect("served after churn");
        assert_eq!(&got.tokens, &refs[&(i % PROMPTS, 3)]);
    }

    let server = Arc::try_unwrap(server).expect("all submitters joined");
    let report = server.shutdown();
    assert_eq!(
        report.completed,
        served.load(Relaxed) + 4,
        "server accounting matches client observations"
    );
    assert!(report.max_queue_depth <= 32, "queue stayed within its bound");
    assert!(
        served.load(Relaxed) > 0,
        "soak must actually serve traffic (served {}, failed {})",
        served.load(Relaxed),
        failed.load(Relaxed)
    );
    health::reset();
}

/// Forced wedge under concurrent load: the first batch stalls past every
/// deadline, the watchdog abandons it with typed `Wedged` errors and
/// force-restarts the pool, and the replacement batcher serves
/// subsequent requests bit-exactly. The pool restart must be visible in
/// the report and the pool reusable afterwards.
#[test]
fn wedge_under_load_recovers_via_watchdog_pool_restart() {
    let _g = tier_health_exclusive();
    let model = qlm();
    let refs = references(&model);
    let restarts_before = axcore_parallel::pool_restarts();
    let server = Server::start(Arc::clone(&model), ServeConfig {
        queue_depth: 16,
        max_batch: 4,
        batch_window: Duration::from_millis(1),
        default_deadline: Duration::from_millis(80),
        watchdog_interval: Duration::from_millis(10),
        wedge_grace: Duration::from_millis(30),
        fault: Some(ServeFault::WedgeFirstBatch {
            hold: Duration::from_millis(400),
        }),
        ..ServeConfig::default()
    });

    // The first wave lands in (or queues behind) the wedged batch.
    let wave: Vec<_> = (0..3)
        .map(|i| server.submit(&prompt_for(i), 3, None).expect("admitted"))
        .collect();
    let mut wedged = 0u32;
    for t in wave {
        match t.wait_for(Duration::from_secs(20)).expect("no deadlock on wedge") {
            Err(ServeError::Wedged) => wedged += 1,
            Err(ServeError::DeadlineExceeded) => {}
            other => panic!("wedged-era request must fail typed, got {other:?}"),
        }
    }
    assert!(wedged >= 1, "the stalled batch reports Wedged");
    assert!(
        axcore_parallel::pool_restarts() > restarts_before,
        "watchdog force-restarted the worker pool"
    );

    // The replacement batcher (and restarted pool) serves new load.
    for i in 0..6usize {
        let got = server
            .submit(&prompt_for(i), 5, Some(Duration::from_secs(30)))
            .expect("admitted after recovery")
            .wait()
            .expect("served by the replacement batcher");
        assert_eq!(
            &got.tokens,
            &refs[&(i % PROMPTS, 5)],
            "post-recovery output bit-exact"
        );
    }

    let report = server.shutdown();
    assert!(report.wedged >= 1);
    assert!(report.incidents.iter().any(|i| matches!(i, Incident::BatchOverdue { .. })));
    assert!(report.incidents.iter().any(|i| matches!(i, Incident::PoolRestarted { .. })));
    assert_eq!(report.completed, 6, "recovery wave fully served");
    health::reset();
}

/// KV corruption injected mid-flight (a random committed page/table bit
/// flipped every few batches) under full verification: every corruption
/// must be *detected* by the page checksums and *healed* by
/// recomputation — every ticket still resolves, every completion is
/// bit-identical to the serial reference (which is the proof there were
/// zero silent corruptions), and the report carries the detection,
/// repair, and incident evidence.
#[test]
fn kv_corruption_mid_flight_is_detected_healed_and_bit_exact() {
    let _g = tier_health_exclusive();
    let model = qlm();
    let refs = references(&model);
    let server = Server::start(Arc::clone(&model), ServeConfig {
        queue_depth: 64,
        max_batch: 4,
        batch_window: Duration::from_millis(1),
        default_deadline: Duration::from_secs(60),
        watchdog_interval: Duration::from_millis(10),
        kv: KvPageConfig { verify: Some(VerifyPolicy::Full), ..KvPageConfig::default() },
        fault: Some(ServeFault::CorruptKvEvery { period: 3, seed: 0xA5A5_5A5A }),
        ..ServeConfig::default()
    });

    // Enough overlapping traffic that injection steps land on batches
    // with committed KV state to corrupt.
    let tickets: Vec<_> = (0..24usize)
        .map(|i| {
            let b = BUDGETS[i % BUDGETS.len()];
            (i, b, server.submit(&prompt_for(i), b, None).expect("admitted"))
        })
        .collect();
    for (i, b, t) in tickets {
        let got = t
            .wait_for(Duration::from_secs(60))
            .expect("ticket resolved inside the liveness bound")
            .expect("request served despite KV corruption (healed, not failed)");
        assert_eq!(
            &got.tokens,
            &refs[&(i % PROMPTS, b)],
            "completion bit-exact under mid-flight KV corruption \
             (prompt {i}, budget {b}) — any silent corruption would show here"
        );
    }

    let report = server.shutdown();
    assert_eq!(report.completed, 24, "every request completed");
    assert!(report.kv_pages_verified > 0, "gathers actually verified checksums");
    assert!(
        report.kv_corruptions_detected >= 1,
        "at least one injected corruption was detected (detected {})",
        report.kv_corruptions_detected
    );
    assert!(
        report.kv_repairs_reconstructed + report.kv_repairs_recomputed >= 1,
        "at least one corruption was healed (reconstructed {}, recomputed {})",
        report.kv_repairs_reconstructed,
        report.kv_repairs_recomputed
    );
    assert!(
        report.incidents.iter().any(|i| matches!(i, Incident::KvCorruption { .. })),
        "KV corruption surfaced in the incident log"
    );
    health::reset();
}
