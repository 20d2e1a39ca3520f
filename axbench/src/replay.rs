//! A replay of the served requests through `DecodeScheduler` alone,
//! under the server's admission rule (FIFO, `max_batch`,
//! `max_tokens_in_flight`), with spans around `admit` and `step` and
//! each step inside `with_kernel_timing`.

use crate::gen::Request;
use crate::trace;
use axcore::kmetrics::with_kernel_timing;
use axcore_nn::scheduler::{DecodeScheduler, SeqHandle, StepEvent};
use axcore_nn::QuantizedLm;
use axcore_serve::ServeConfig;
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// When replayed requests arrive.
#[derive(Debug, Clone)]
pub enum Arrivals {
    /// `n` sessions, each sending its next request (in list order) as
    /// soon as its previous one finishes.
    ClosedLoop(usize),
    /// Batches of the given sizes, each submitted at once when the
    /// previous batch has finished.
    Batches(Vec<usize>),
}

/// What the replay measured. Times are wall-clock milliseconds.
#[derive(Debug, Default)]
pub struct Replay {
    pub steps: u64,
    pub step_ms: Vec<f64>,
    pub prefill_rows: u64,
    pub decode_rows: u64,
    pub queue_wait_ms: Vec<f64>,
    pub ttft_ms: Vec<f64>,
    pub itl_ms: Vec<f64>,
    /// Arrival to finish, per request.
    pub latency_ms: Vec<f64>,
    /// Submit to last finish, per batch (`Arrivals::Batches` only).
    pub batch_ms: Vec<f64>,
    /// Scheduler steps per batch (`Arrivals::Batches` only).
    pub batch_steps: Vec<u64>,
    pub tokens_peak: usize,
    pub lut_build_ns: u64,
    pub step_ns: u64,
    /// Prompt plus generated tokens, per request.
    pub outputs: Vec<Option<Vec<usize>>>,
    /// Failed, cut-short, stalled, evicted or repaired sequences: the
    /// replay models the server only while this stays 0.
    pub anomalies: u64,
}

struct Live {
    idx: usize,
    arrived: Instant,
    prefilling: bool,
    last_token: Instant,
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}

impl Replay {
    /// Add a later replay's measurements to this one.
    pub fn absorb(&mut self, later: Replay) {
        self.steps += later.steps;
        self.step_ms.extend(later.step_ms);
        self.prefill_rows += later.prefill_rows;
        self.decode_rows += later.decode_rows;
        self.queue_wait_ms.extend(later.queue_wait_ms);
        self.ttft_ms.extend(later.ttft_ms);
        self.itl_ms.extend(later.itl_ms);
        self.latency_ms.extend(later.latency_ms);
        self.batch_ms.extend(later.batch_ms);
        self.batch_steps.extend(later.batch_steps);
        self.tokens_peak = self.tokens_peak.max(later.tokens_peak);
        self.lut_build_ns += later.lut_build_ns;
        self.step_ns += later.step_ns;
        self.outputs.extend(later.outputs);
        self.anomalies += later.anomalies;
    }

    /// LUT-build time over step time.
    pub fn lut_build_share(&self) -> f64 {
        self.lut_build_ns as f64 / self.step_ns.max(1) as f64
    }
}

/// Replay `reqs` arriving as `arrivals` under `cfg`'s admission rule.
pub fn replay(
    qlm: &QuantizedLm,
    cfg: &ServeConfig,
    reqs: &[Request],
    arrivals: &Arrivals,
) -> Replay {
    let mut sched = DecodeScheduler::new(qlm, cfg.decoding, cfg.kv);
    let mut out = Replay {
        outputs: vec![None; reqs.len()],
        ..Replay::default()
    };
    let mut live: HashMap<SeqHandle, Live> = HashMap::new();
    let mut queue: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut next = 0usize;
    let mut batches = match arrivals {
        Arrivals::ClosedLoop(_) => VecDeque::new(),
        Arrivals::Batches(sizes) => sizes.iter().copied().collect(),
    };
    let mut batch_start = Instant::now();
    let mut batch_steps = 0u64;
    let closed = matches!(arrivals, Arrivals::ClosedLoop(_));
    let mut arrive = |queue: &mut VecDeque<(usize, Instant)>, n: usize, at: Instant| {
        for _ in 0..n.min(reqs.len() - next) {
            queue.push_back((next, at));
            next += 1;
        }
    };
    match arrivals {
        Arrivals::ClosedLoop(sessions) => arrive(&mut queue, *sessions, Instant::now()),
        Arrivals::Batches(_) => arrive(&mut queue, batches.pop_front().unwrap_or(0), batch_start),
    }
    loop {
        while sched.live() < cfg.max_batch {
            let Some(&(idx, arrived)) = queue.front() else {
                break;
            };
            let r = &reqs[idx];
            let fits = sched.live() == 0
                || sched.tokens_committed() + r.prompt.len() + r.new_tokens
                    <= cfg.max_tokens_in_flight;
            if !fits {
                break;
            }
            queue.pop_front();
            let admitted = trace::span("scheduler.admit", Some(idx as u64), || {
                sched.admit(&r.prompt, r.new_tokens)
            });
            let now = Instant::now();
            out.queue_wait_ms.push(ms(arrived, now));
            match admitted {
                Ok(h) => {
                    live.insert(
                        h,
                        Live {
                            idx,
                            arrived,
                            prefilling: true,
                            last_token: now,
                        },
                    );
                }
                Err(_) => {
                    out.anomalies += 1;
                    if closed {
                        arrive(&mut queue, 1, now);
                    }
                }
            }
        }
        if sched.live() == 0 {
            if !queue.is_empty() {
                continue;
            }
            if !closed {
                out.batch_ms.push(ms(batch_start, Instant::now()));
                out.batch_steps.push(batch_steps);
                batch_steps = 0;
                if let Some(n) = batches.pop_front() {
                    batch_start = Instant::now();
                    arrive(&mut queue, n, batch_start);
                    continue;
                }
            }
            break;
        }
        for l in live.values() {
            if l.prefilling {
                out.prefill_rows += reqs[l.idx].prompt.len() as u64;
            } else {
                out.decode_rows += 1;
            }
        }
        let t0 = Instant::now();
        let (events, timing) =
            with_kernel_timing(|| trace::span("scheduler.step", None, || sched.step(|_| true)));
        let t1 = Instant::now();
        out.steps += 1;
        batch_steps += 1;
        out.step_ms.push(ms(t0, t1));
        out.step_ns += t1.duration_since(t0).as_nanos() as u64;
        out.lut_build_ns += timing.lut_build_ns;
        for l in live.values_mut() {
            if l.prefilling {
                out.ttft_ms.push(ms(l.arrived, t1));
                l.prefilling = false;
            } else {
                out.itl_ms.push(ms(l.last_token, t1));
            }
            l.last_token = t1;
        }
        for ev in events {
            let (handle, tokens) = match ev {
                StepEvent::Finished { handle, outcome } => {
                    if !outcome.completed {
                        out.anomalies += 1;
                    }
                    (handle, Some(outcome.tokens))
                }
                StepEvent::Failed { handle, .. } => {
                    out.anomalies += 1;
                    (handle, None)
                }
            };
            if let Some(l) = live.remove(&handle) {
                out.latency_ms.push(ms(l.arrived, t1));
                out.outputs[l.idx] = tokens;
            }
            if closed {
                arrive(&mut queue, 1, t1);
            }
        }
    }
    out.tokens_peak = sched.tokens_peak();
    out.anomalies += sched.kv_capacity_stalls()
        + sched.kv_repairs_recomputed()
        + sched.kv_repairs_reconstructed()
        + sched.kv_corruptions_detected();
    out
}
