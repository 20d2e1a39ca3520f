//! The per-layer metrics of a traced run, from its spans, its scheduler
//! replay and the layer probes.

use crate::gen::Rng;
use crate::metrics::Values;
use crate::probes::{self, LONG, SHORT};
use crate::replay::Replay;
use crate::serving::Phase;
use crate::stats::{median, percentile};
use axcore_nn::eval::ExecStats;
use axcore_nn::kvcache::KvPageConfig;
use axcore_nn::{QuantizedLm, TransformerLm};
use axcore_quant::KvQuantConfig;

/// What the traced serving phase observed, at the serve layer.
#[derive(Debug)]
pub struct Served {
    pub steps: f64,
    pub mean_batch: f64,
    pub max_queue_depth: f64,
    pub peak_level: f64,
    pub pages_peak: f64,
    pub submit_us_p50: f64,
    /// The workload's latency (`latency_ms_p50`) through the server.
    pub latency_ms_p50: f64,
}

impl Served {
    /// The serve layer over consecutive load phases of one server.
    pub fn from_phases(phases: &[Phase], latency_ms_p50: f64) -> Served {
        let steps: u64 = phases.iter().map(Phase::steps).sum();
        let rows: f64 = phases
            .iter()
            .map(|p| p.mean_batch() * p.steps() as f64)
            .sum();
        let submit_us: Vec<f64> = phases
            .iter()
            .flat_map(|p| p.submit_us.iter().copied())
            .collect();
        let last = &phases[phases.len() - 1].after;
        Served {
            steps: steps as f64,
            mean_batch: rows / steps.max(1) as f64,
            max_queue_depth: last.max_queue_depth as f64,
            peak_level: last.peak_level as f64,
            pages_peak: last.kv_pages_peak as f64,
            submit_us_p50: median(&submit_us),
            latency_ms_p50,
        }
    }
}

/// One traced run's inputs to the per-layer metrics.
pub struct Traced<'a> {
    pub model: &'a TransformerLm,
    /// The AxCore model the workload ran.
    pub qlm: &'a QuantizedLm,
    /// The same weights under `Scheme::AxCoreKv`.
    pub qlm_kv: &'a QuantizedLm,
    /// The workload's page format and prompt length.
    pub kv: KvPageConfig,
    pub prefill_len: usize,
    /// A seeded window of the evaluation stream.
    pub window: &'a [usize],
    pub served: Served,
    pub replay: &'a Replay,
    /// The workload's latency (`latency_ms_p50`) in the replay.
    pub replay_latency_ms_p50: f64,
    /// Kernel time in LUT builds over the workload's compute time.
    pub lut_build_share: f64,
    pub exec: ExecStats,
    /// Traced over untraced `latency_ms_p50`, minus one, in percent.
    pub overhead_pct: f64,
}

/// Every per-layer metric: probes run now, inside spans.
pub fn measure(t: &Traced<'_>, rng: &mut Rng) -> Values {
    let mut v = Values::default();
    v.set("serve.submit_us_p50", t.served.submit_us_p50);
    v.set(
        "serve.overhead_ms_p50",
        t.served.latency_ms_p50 - t.replay_latency_ms_p50,
    );
    v.set("serve.steps", t.served.steps);
    v.set("serve.mean_batch", t.served.mean_batch);
    v.set("serve.max_queue_depth", t.served.max_queue_depth);
    v.set("serve.peak_level", t.served.peak_level);

    let r = t.replay;
    let steps = r.steps.max(1) as f64;
    v.set("scheduler.step_ms_p50", median(&r.step_ms));
    // A short run may not support a p90; the median then stands in.
    v.set(
        "scheduler.step_ms_p90",
        percentile(&r.step_ms, 0.9).unwrap_or_else(|| median(&r.step_ms)),
    );
    v.set(
        "scheduler.prefill_rows_per_step",
        r.prefill_rows as f64 / steps,
    );
    v.set(
        "scheduler.decode_rows_per_step",
        r.decode_rows as f64 / steps,
    );
    v.set("scheduler.queue_wait_ms_p50", median(&r.queue_wait_ms));
    v.set("scheduler.ttft_ms_p50", median(&r.ttft_ms));
    // Requests of one token have no inter-token gap: 0 then.
    v.set("scheduler.itl_ms_p50", median(&r.itl_ms));
    v.set("scheduler.tokens_peak", r.tokens_peak as f64);

    v.set(
        "eval.prefill_us_per_token",
        probes::prefill_us_per_token(t.qlm, t.kv, t.prefill_len, rng),
    );
    v.set(
        "eval.decode_us_per_row.short",
        probes::decode_us_per_row(t.qlm, t.kv, SHORT, rng),
    );
    v.set(
        "eval.decode_us_per_row.long",
        probes::decode_us_per_row(t.qlm, t.kv, LONG, rng),
    );
    let window_ax = probes::window_us_per_token(t.qlm, t.window);
    let window_kv = probes::window_us_per_token(t.qlm_kv, t.window);
    v.set("eval.window_us_per_token.axcore", window_ax);
    v.set("eval.window_us_per_token.axcore_kv", window_kv);

    let fp = probes::kvcache(t.qlm, t.model, None, rng);
    let q4 = probes::kvcache(t.qlm, t.model, Some(KvQuantConfig::opt()), rng);
    let workload_kv = if t.kv.quant.is_some() { &q4 } else { &fp };
    let d = t.model.cfg.d_model;
    v.set("kvcache.gather_us.long", workload_kv.gather_us);
    v.set(
        "kvcache.gather_bytes.long",
        (2 * LONG * d * std::mem::size_of::<f32>()) as f64,
    );
    v.set("kvcache.commit_us_per_page.fp32", fp.commit_us_per_page);
    v.set("kvcache.commit_us_per_page.q4", q4.commit_us_per_page);
    v.set("kvcache.scrub_us_per_step", workload_kv.scrub_us);
    v.set(
        "kvcache.resident_bytes_per_token",
        workload_kv.resident_bytes_per_token,
    );
    v.set("kvcache.pages_peak", t.served.pages_peak);

    v.set(
        "attention.us_per_row.short",
        probes::attention_row_us(t.model, SHORT, rng),
    );
    v.set(
        "attention.us_per_row.long",
        probes::attention_row_us(t.model, LONG, rng),
    );
    // q·Kᵀ and P·V each take one multiply-add per cached position and
    // model dimension.
    v.set("attention.macs_per_row.long", (2 * LONG * d) as f64);

    let g = probes::gemm(t.model, rng);
    let names = [
        "core.gemm_us_per_row.m1",
        "core.gemm_us_per_row.m4",
        "core.gemm_us_per_row.m8",
        "core.gemm_us_per_row.m256",
    ];
    for (name, us) in names.into_iter().zip(g.us_per_row) {
        v.set(name, us);
    }
    v.set("core.gemm_macs_per_row", g.macs_per_row);
    v.set("core.weight_bytes", g.weight_bytes);
    v.set("core.lut_build_share", t.lut_build_share);
    v.set("core.verified_calls", t.exec.verified_calls as f64);
    v.set("core.downgrades", t.exec.downgrades as f64);

    v.set(
        "parallel.threads",
        axcore_parallel::current_threads() as f64,
    );
    v.set("parallel.decode_speedup", g.decode_speedup);
    v.set(
        "parallel.pool_restarts",
        axcore_parallel::pool_restarts() as f64,
    );

    v.set(
        "quant.kv_requant_share",
        (window_kv - window_ax) / window_kv,
    );
    v.set(
        "quant.seal_us_per_page",
        q4.commit_us_per_page - fp.commit_us_per_page,
    );
    v.set("trace.overhead_pct", t.overhead_pct);
    v
}
