//! `long_context`: offline batches of document jobs. Each batch is a
//! seeded list of requests with 256–320 prompt tokens and 128–192
//! output tokens, submitted at once, on `q4-opt` 4-bit KV pages. Prefill
//! GEMMs run with hundreds of rows, and the KV arena and attention run
//! at 256–512 positions.

use crate::gen::{self, Rng};
use crate::layers::{self, Served, Traced};
use crate::replay::{self, Arrivals, Replay};
use crate::serving::{self, Phase};
use crate::setup::LONG_BATCH;
use crate::stats::median;
use crate::{setup, trace, Args, Outcome};
use axcore_nn::scheduler::decode_continuous;
use axcore_nn::{QuantizedLm, Scheme};
use axcore_serve::{ServeConfig, Server};
use std::sync::Arc;

/// Completions re-decoded alone per run.
const CHECKED: usize = 2;

/// Batches back to back until `seconds` have been spent serving them;
/// `after` sees each batch as soon as it has been served.
fn batches(
    server: &Server,
    rng: &mut Rng,
    vocab: usize,
    seconds: f64,
    mut after: impl FnMut(&Phase),
) -> Vec<Phase> {
    let mut phases: Vec<Phase> = Vec::new();
    while phases.iter().map(|p| p.elapsed_s).sum::<f64>() < seconds {
        let list = (0..LONG_BATCH)
            .map(|_| gen::long_request(rng, vocab))
            .collect();
        let phase = serving::batch(server, list);
        after(&phase);
        phases.push(phase);
    }
    phases
}

fn makespans_ms(phases: &[Phase]) -> Vec<f64> {
    phases.iter().map(|p| p.elapsed_s * 1e3).collect()
}

/// Account for every batch; the overload controller must stay at level
/// 0 throughout.
fn check_phases(phases: &[Phase], out: &mut Outcome) {
    for p in phases {
        p.account(out);
    }
    let level = phases[phases.len() - 1].after.peak_level;
    if level > 0 {
        out.problems.push(format!(
            "the overload controller left level 0 (peak {level})"
        ));
    }
}

/// The replay must take exactly the server's steps for each batch: it
/// then models the server's admission.
fn check_steps(phases: &[Phase], replayed: &replay::Replay, out: &mut Outcome) {
    for (i, (p, &steps)) in phases.iter().zip(&replayed.batch_steps).enumerate() {
        if p.steps() != steps {
            out.problems.push(format!(
                "batch {i}: the server took {} steps, the replay {steps}",
                p.steps()
            ));
        }
    }
    if replayed.anomalies > 0 {
        out.problems.push(format!(
            "replay: {} sequences failed, stalled or were repaired",
            replayed.anomalies
        ));
    }
}

/// Re-decode a seeded sample of completions alone through a
/// `DecodeScheduler` with the same page configuration.
fn check_outputs(
    phases: &[Phase],
    qlm: &QuantizedLm,
    cfg: &ServeConfig,
    seed: u64,
    out: &mut Outcome,
) {
    let mut pick = Rng::new(seed, "long_context-check");
    for _ in 0..CHECKED {
        let p = &phases[pick.range(0, phases.len() - 1)];
        let i = pick.range(0, p.issued.len() - 1);
        let Some(served) = &p.outputs[i] else {
            continue;
        };
        let req = &p.issued[i];
        let alone = decode_continuous(qlm, &[&req.prompt], req.new_tokens, cfg.decoding, cfg.kv);
        if alone[0].as_ref().ok().map(|o| &o.tokens) != Some(served) {
            out.failed += 1;
            out.problems.push(
                "a long_context completion differs from the same request decoded alone".into(),
            );
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let cfg = setup::long_config();
    let mut out = Outcome::default();
    let ((model, qlm, server, warm), setup_s) = setup::timed_setups(
        || {
            let model = setup::build_model();
            let qlm = Arc::new(setup::quantize(&model, Scheme::AxCore));
            let server = Server::start(Arc::clone(&qlm), cfg);
            let warm = serving::warm_up(&server, &cfg);
            (model, qlm, server, warm)
        },
        |(_, _, server, _)| {
            server.shutdown();
        },
    );
    out.problems.extend(warm.err());
    out.configs.push(("serve_config", format!("{cfg:?}")));
    let vocab = qlm.vocab();

    let phases = batches(
        &server,
        &mut Rng::new(args.seed, "long_context"),
        vocab,
        args.phase_seconds(),
        |_| (),
    );
    check_phases(&phases, &mut out);
    let makespan_p50 = median(&makespans_ms(&phases));
    let generated: u64 = phases.iter().map(|p| p.generated).sum();
    let busy_s: f64 = phases.iter().map(|p| p.elapsed_s).sum();
    out.notes.push(format!(
        "long_context: {} batches of {LONG_BATCH}, {} sent, {} failed; batch makespan p50 {makespan_p50:.1} ms; {generated} tokens in {busy_s:.3} s",
        phases.len(),
        out.attempted,
        out.failed,
    ));

    if !args.trace {
        server.shutdown();
        let mut pick = Rng::new(args.seed, "long_context-replay");
        let i = pick.range(0, phases.len() - 1);
        let one = &phases[i..=i];
        let replayed = replay::replay(
            &qlm,
            &cfg,
            &one[0].issued,
            &Arrivals::Batches(vec![LONG_BATCH]),
        );
        check_steps(one, &replayed, &mut out);
        check_outputs(&phases, &qlm, &cfg, args.seed, &mut out);
        out.values.set("setup_s", setup_s);
        out.values.set("latency_ms_p50", makespan_p50);
        let rates: Vec<f64> = phases
            .iter()
            .map(|p| p.generated as f64 / p.elapsed_s)
            .collect();
        out.values.set("output_tok_s", median(&rates));
        match setup::peak_rss_mb() {
            Ok(mb) => out.values.set("peak_rss_mb", mb),
            Err(e) => out.problems.push(e),
        }
        return out;
    }

    // Each traced batch is replayed as soon as it has been served, so
    // drift in host speed hits both alike.
    trace::start();
    let _ = qlm.take_exec_stats();
    let mut replayed = Replay::default();
    let traced = batches(
        &server,
        &mut Rng::new(args.seed, "long_context"),
        vocab,
        args.phase_seconds(),
        |p| {
            replayed.absorb(replay::replay(
                &qlm,
                &cfg,
                &p.issued,
                &Arrivals::Batches(vec![p.issued.len()]),
            ))
        },
    );
    check_phases(&traced, &mut out);
    server.shutdown();
    check_steps(&traced, &replayed, &mut out);
    check_outputs(&traced, &qlm, &cfg, args.seed, &mut out);
    let traced_p50 = median(&makespans_ms(&traced));
    let exec = qlm.take_exec_stats();
    let qlm_kv = setup::quantize(&model, Scheme::AxCoreKv);
    let window = gen::eval_window(args.seed);
    out.values = layers::measure(
        &Traced {
            model: &model,
            qlm: &qlm,
            qlm_kv: &qlm_kv,
            kv: cfg.kv,
            prefill_len: (gen::LONG_PROMPT.0 + gen::LONG_PROMPT.1) / 2,
            window: &window,
            served: Served::from_phases(&traced, traced_p50),
            replay: &replayed,
            replay_latency_ms_p50: median(&replayed.batch_ms),
            lut_build_share: replayed.lut_build_share(),
            exec,
            overhead_pct: (traced_p50 / makespan_p50 - 1.0) * 100.0,
        },
        &mut Rng::new(args.seed, "probes"),
    );
    out.spans = trace::stop();
    out
}
