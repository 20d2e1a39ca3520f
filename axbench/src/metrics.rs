//! Every metric the benchmark reports, with its unit, and the result
//! line. The lists match `BENCHMARK.json`; a run prints exactly one of
//! them in full.

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("output_tok_s", "tok/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.submit_us_p50", "us"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.steps", "count"),
    ("serve.mean_batch", "seqs"),
    ("serve.max_queue_depth", "count"),
    ("serve.peak_level", "level"),
    ("scheduler.step_ms_p50", "ms"),
    ("scheduler.step_ms_p90", "ms"),
    ("scheduler.prefill_rows_per_step", "rows"),
    ("scheduler.decode_rows_per_step", "rows"),
    ("scheduler.queue_wait_ms_p50", "ms"),
    ("scheduler.ttft_ms_p50", "ms"),
    ("scheduler.itl_ms_p50", "ms"),
    ("scheduler.tokens_peak", "tokens"),
    ("eval.prefill_us_per_token", "us"),
    ("eval.decode_us_per_row.short", "us"),
    ("eval.decode_us_per_row.long", "us"),
    ("eval.window_us_per_token.axcore", "us"),
    ("eval.window_us_per_token.axcore_kv", "us"),
    ("kvcache.gather_us.long", "us"),
    ("kvcache.gather_bytes.long", "bytes"),
    ("kvcache.commit_us_per_page.fp32", "us"),
    ("kvcache.commit_us_per_page.q4", "us"),
    ("kvcache.scrub_us_per_step", "us"),
    ("kvcache.resident_bytes_per_token", "bytes"),
    ("kvcache.pages_peak", "pages"),
    ("attention.us_per_row.short", "us"),
    ("attention.us_per_row.long", "us"),
    ("attention.macs_per_row.long", "MAC"),
    ("core.gemm_us_per_row.m1", "us"),
    ("core.gemm_us_per_row.m4", "us"),
    ("core.gemm_us_per_row.m8", "us"),
    ("core.gemm_us_per_row.m256", "us"),
    ("core.gemm_macs_per_row", "MAC"),
    ("core.weight_bytes", "bytes"),
    ("core.lut_build_share", "share"),
    ("core.verified_calls", "count"),
    ("core.downgrades", "count"),
    ("parallel.threads", "threads"),
    ("parallel.decode_speedup", "x"),
    ("parallel.pool_restarts", "count"),
    ("quant.kv_requant_share", "share"),
    ("quant.seal_us_per_page", "us"),
    ("trace.overhead_pct", "%"),
];

/// Metric values collected by one run, in any order.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// The result line: every metric of `list`, in list order. Fails when a
/// metric is missing, unlisted or not finite — a defect of the
/// benchmark, not of the program.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &Values,
    list: &[(&'static str, &'static str)],
) -> Result<String, String> {
    if let Some((name, _)) = values
        .0
        .iter()
        .find(|(n, _)| !list.iter().any(|(l, _)| l == n))
    {
        return Err(format!("metric {name} is not in the reported list"));
    }
    let mut fields = Vec::with_capacity(list.len());
    for (name, unit) in list {
        let value = values
            .get(name)
            .ok_or(format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        fields.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        fields.join(",")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
        }
        for (i, (a, _)) in all.iter().enumerate() {
            assert!(all[i + 1..].iter().all(|(b, _)| a != b), "{a} listed twice");
        }
    }

    #[test]
    fn lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = spec.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = compact.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists other metrics"
        );
    }

    #[test]
    fn result_line_needs_every_metric_and_only_finite_values() {
        let list: &[(&str, &str)] = &[("a", "s"), ("b", "ms")];
        let mut v = Values::default();
        v.set("a", 1.5);
        assert!(result_json(true, 1, 0, &v, list).is_err(), "b missing");
        v.set("b", f64::NAN);
        assert!(result_json(true, 1, 0, &v, list).is_err(), "NaN refused");
        v.set("b", 2.0);
        assert_eq!(
            result_json(true, 3, 0, &v, list).expect("complete"),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"a\":{\"value\":1.5,\"unit\":\"s\"},\"b\":{\"value\":2,\"unit\":\"ms\"}}}"
        );
        v.set("c", 1.0);
        assert!(
            result_json(true, 1, 0, &v, list).is_err(),
            "unlisted metric refused"
        );
    }
}
