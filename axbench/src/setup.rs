//! The one model every workload runs, its serving configurations, and
//! what each result records about the host.

use axcore_nn::kvcache::KvPageConfig;
use axcore_nn::{quantize_model, Corpus, LmConfig, MarkovSpec, QuantizedLm, Scheme, TransformerLm};
use axcore_quant::KvQuantConfig;
use axcore_serve::ServeConfig;
use std::time::{Duration, Instant};

/// Seed of the model's random weights (fixed: the workload seed only
/// shapes the inputs).
pub const MODEL_SEED: u64 = 30;
/// Weight-group size of the AxCore quantizer.
pub const GROUP: usize = 32;
/// Length of the fixed calibration stream.
pub const CALIB_TOKENS: usize = 256;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

/// The `OPT-30B*` proxy shape (d_model 64, 3 layers, 4 heads, d_ff 256,
/// vocab 64, ReLU) with the context raised to 512.
pub fn model_config() -> LmConfig {
    LmConfig {
        max_seq: 512,
        ..LmConfig::proxy_ladder()[3]
    }
}

/// The proxy with seeded random weights: no training, no cache file.
pub fn build_model() -> TransformerLm {
    TransformerLm::new(model_config(), MODEL_SEED)
}

/// `model` lowered onto `scheme` with group 32 and the calibration
/// stream.
pub fn quantize(model: &TransformerLm, scheme: Scheme) -> QuantizedLm {
    let calib = Corpus::generate(MarkovSpec::default_language(), CALIB_TOKENS, 0).train;
    quantize_model(model, scheme, GROUP, Some(&calib))
}

/// `chat`: the default serving configuration (FP32 pages).
pub fn chat_config() -> ServeConfig {
    ServeConfig::default()
}

/// Requests per `long_context` batch: one full `max_batch`, so a batch's
/// makespan is its prefill plus its longest output, and varies little
/// with the seed.
pub const LONG_BATCH: usize = 8;

/// `long_context`: 4-bit `q4-opt` KV pages, room for `max_batch`
/// full-context requests in flight, deadlines that never expire, and a
/// coalescing window long enough that the whole batch is queued before
/// the first admission (the replay's step count depends on it).
pub fn long_config() -> ServeConfig {
    let base = ServeConfig::default();
    ServeConfig {
        max_tokens_in_flight: base.max_batch * model_config().max_seq,
        kv: KvPageConfig {
            quant: Some(KvQuantConfig::opt()),
            ..KvPageConfig::default()
        },
        default_deadline: Duration::from_secs(600),
        batch_window: Duration::from_millis(20),
        ..base
    }
}

/// Run `make` `SETUP_REPEATS` times, timing each; keep the last result,
/// hand the others to `discard`, and return the median time in seconds.
pub fn timed_setups<T>(mut make: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let made = make();
        times.push(t0.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(made) {
            discard(old);
        }
    }
    let kept = kept.expect("SETUP_REPEATS is positive");
    (kept, crate::stats::median(&times))
}

/// Process peak resident memory (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// JSON-escape `s` as a string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// What every result records: host parallelism, the pool's thread
/// count, every set `AXCORE_*` variable, the model, the run's
/// arguments, and the workload's serving and page configuration.
pub fn meta_fields(configs: &[(&str, String)]) -> Vec<(String, String)> {
    let mut env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("AXCORE_"))
        .collect();
    env.sort();
    let env = env
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect::<Vec<_>>();
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut fields = vec![
        ("available_parallelism".to_string(), parallelism.to_string()),
        (
            "threads".to_string(),
            axcore_parallel::current_threads().to_string(),
        ),
        ("axcore_env".to_string(), format!("{{{}}}", env.join(","))),
        (
            "model".to_string(),
            json_str(&format!("{:?}", model_config())),
        ),
        ("model_seed".to_string(), MODEL_SEED.to_string()),
        (
            "scheme".to_string(),
            json_str(&format!(
                "AxCore group {GROUP}, {CALIB_TOKENS}-token calibration"
            )),
        ),
    ];
    fields.extend(configs.iter().map(|(k, v)| (k.to_string(), json_str(v))));
    fields
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_is_the_30b_proxy_with_a_long_context() {
        let c = model_config();
        assert_eq!(
            (c.d_model, c.n_layers, c.n_heads, c.d_ff, c.vocab),
            (64, 3, 4, 256, 64)
        );
        assert_eq!(c.max_seq, 512);
    }

    #[test]
    fn long_batch_stays_below_the_escalation_threshold() {
        let cfg = long_config();
        // The controller escalates once the queue reaches 3/4 of its
        // depth; the whole batch queued at once must stay under it.
        assert!(4 * LONG_BATCH < 3 * cfg.queue_depth);
        assert!(cfg.max_tokens_in_flight >= cfg.max_batch * model_config().max_seq);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
