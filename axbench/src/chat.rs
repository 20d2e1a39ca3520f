//! `chat`: a closed loop of 4 interactive sessions; every request is 32
//! prompt tokens plus 32 output tokens, on FP32 pages, with the default
//! `ServeConfig`. Short contexts make it bound by GEMMs and per-step
//! overhead, with new prefills joining the running batch at token
//! boundaries.

use crate::gen::{self, Rng};
use crate::layers::{self, Served, Traced};
use crate::replay::{self, Arrivals, Replay};
use crate::serving::{self, Phase};
use crate::stats::{median, percentile};
use crate::{setup, trace, Args, Outcome};
use axcore_nn::generate::try_generate;
use axcore_nn::Scheme;
use axcore_serve::Server;
use std::sync::Arc;

/// Concurrent sessions.
pub const SESSIONS: usize = 4;
/// Completions re-decoded through `try_generate` per run.
const CHECKED: usize = 3;
/// Seconds of each served closed loop in the traced phase.
const CHUNK_S: f64 = 2.0;

pub fn run(args: &Args) -> Outcome {
    let cfg = setup::chat_config();
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
    let requests = |seed| {
        let mut rng = Rng::new(seed, "chat");
        move || Some(gen::chat_request(&mut rng, vocab))
    };
    let phase = serving::closed_loop(&server, SESSIONS, args.phase_seconds(), requests(args.seed));
    let client_p50 = median(&phase.latency_ms);
    phase.account(&mut out);
    // Oldest-first redemption observes each completion when it happens
    // only while FIFO admission finishes requests in order; the server's
    // own p50 over the same requests (and one warm-up) must agree.
    let server_p50 = phase.after.p50_ms;
    if (client_p50 - server_p50).abs() > 0.05 * server_p50 + 1.0 {
        out.problems.push(format!(
            "client p50 {client_p50:.3} ms disagrees with server p50 {server_p50:.3} ms"
        ));
    }
    check_outputs(&phase, &qlm, cfg.decoding, args.seed, &mut out);
    out.notes.push(format!(
        "chat: {} sent, {} succeeded, {} failed; latency p50 {client_p50:.3} ms, p90 {} over {} samples; server p50 {server_p50:.3} ms",
        phase.sent(),
        phase.succeeded,
        phase.failed(),
        percentile(&phase.latency_ms, 0.9).map_or("n/a (fewer than 100 samples)".into(), |p| format!("{p:.3} ms")),
        phase.latency_ms.len(),
    ));

    if !args.trace {
        out.values.set("setup_s", setup_s);
        out.values.set("latency_ms_p50", client_p50);
        out.values
            .set("output_tok_s", phase.generated as f64 / phase.elapsed_s);
        match setup::peak_rss_mb() {
            Ok(mb) => out.values.set("peak_rss_mb", mb),
            Err(e) => out.problems.push(e),
        }
        server.shutdown();
        return out;
    }

    // The traced phase alternates short closed loops through the server
    // with their replay, so drift in host speed hits both alike.
    trace::start();
    let _ = qlm.take_exec_stats();
    let mut next = requests(args.seed);
    let (mut chunks, mut replayed) = (Vec::new(), Replay::default());
    let mut served_s = 0.0;
    while served_s < args.phase_seconds() {
        let chunk = serving::closed_loop(&server, SESSIONS, CHUNK_S, &mut next);
        chunk.account(&mut out);
        let r = replay::replay(&qlm, &cfg, &chunk.issued, &Arrivals::ClosedLoop(SESSIONS));
        let mismatched = (0..chunk.issued.len())
            .filter(|&i| chunk.outputs[i].is_some() && chunk.outputs[i] != r.outputs[i])
            .count();
        if mismatched > 0 {
            out.failed += mismatched as u64;
            out.problems.push(format!(
                "{mismatched} served completions differ from the scheduler replay"
            ));
        }
        served_s += chunk.elapsed_s;
        replayed.absorb(r);
        chunks.push(chunk);
    }
    server.shutdown();
    if replayed.anomalies > 0 {
        out.problems.push(format!(
            "replay: {} sequences failed, stalled or were repaired",
            replayed.anomalies
        ));
    }
    let latencies: Vec<f64> = chunks
        .iter()
        .flat_map(|c| c.latency_ms.iter().copied())
        .collect();
    let traced_p50 = median(&latencies);
    let exec = qlm.take_exec_stats();
    let qlm_kv = setup::quantize(&model, Scheme::AxCoreKv);
    let window = gen::eval_window(args.seed);
    out.values = layers::measure(
        &Traced {
            model: &model,
            qlm: &qlm,
            qlm_kv: &qlm_kv,
            kv: cfg.kv,
            prefill_len: gen::CHAT_PROMPT,
            window: &window,
            served: Served::from_phases(&chunks, traced_p50),
            replay: &replayed,
            replay_latency_ms_p50: median(&replayed.latency_ms),
            lut_build_share: replayed.lut_build_share(),
            exec,
            overhead_pct: (traced_p50 / client_p50 - 1.0) * 100.0,
        },
        &mut Rng::new(args.seed, "probes"),
    );
    out.spans = trace::stop();
    out
}

/// Re-decode a seeded sample of completions alone through
/// `try_generate`: with FP pages serving is bit-exact to it.
fn check_outputs(
    phase: &Phase,
    qlm: &axcore_nn::QuantizedLm,
    decoding: axcore_nn::generate::Decoding,
    seed: u64,
    out: &mut Outcome,
) {
    let served: Vec<usize> = (0..phase.issued.len())
        .filter(|&i| phase.outputs[i].is_some())
        .collect();
    if served.is_empty() {
        return;
    }
    let mut pick = Rng::new(seed, "chat-check");
    for _ in 0..CHECKED.min(served.len()) {
        let i = served[pick.range(0, served.len() - 1)];
        let req = &phase.issued[i];
        let expected = try_generate(qlm, &req.prompt, req.new_tokens, decoding).ok();
        if expected.as_ref() != phase.outputs[i].as_ref() {
            out.failed += 1;
            out.problems
                .push(format!("chat request {i} differs from try_generate"));
        }
    }
}
