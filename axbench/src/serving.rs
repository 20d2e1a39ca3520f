//! The load generator: one client thread driving `axcore_serve::Server`,
//! with spans around `Server::submit` and `Ticket::wait`, and the
//! checks of its own counts against `ServeReport`.

use crate::gen::Request;
use crate::{trace, Outcome};
use axcore_serve::{ServeConfig, ServeError, ServeReport, Server, Ticket};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// The server flushes a queued request at once, without waiting out its
/// coalescing window, when the request's deadline is nearer than this
/// many windows (the serve crate's deadline-pressure rule).
const PRESSURE_WINDOWS: u32 = 4;

/// What one load phase sent and observed.
#[derive(Debug)]
pub struct Phase {
    pub issued: Vec<Request>,
    /// Prompt plus generated tokens, per issued request that succeeded.
    pub outputs: Vec<Option<Vec<usize>>>,
    /// Submit to observed completion, per succeeded request.
    pub latency_ms: Vec<f64>,
    /// Time inside `Server::submit`, per request.
    pub submit_us: Vec<f64>,
    /// Submit of the first request to the last observed completion.
    pub elapsed_s: f64,
    pub generated: u64,
    pub succeeded: u64,
    /// Refused at submit.
    pub rejected: u64,
    /// Failed through their ticket.
    pub errored: u64,
    /// Served, but with the wrong length or a changed prompt.
    pub malformed: u64,
    pub before: ServeReport,
    pub after: ServeReport,
}

impl Phase {
    fn start(server: &Server) -> Phase {
        let before = server.report();
        Phase {
            issued: Vec::new(),
            outputs: Vec::new(),
            latency_ms: Vec::new(),
            submit_us: Vec::new(),
            elapsed_s: 0.0,
            generated: 0,
            succeeded: 0,
            rejected: 0,
            errored: 0,
            malformed: 0,
            after: before.clone(),
            before,
        }
    }

    pub fn sent(&self) -> u64 {
        self.issued.len() as u64
    }

    /// Requests that did not come back correct.
    pub fn failed(&self) -> u64 {
        self.rejected + self.errored + self.malformed
    }

    /// Server steps taken during the phase.
    pub fn steps(&self) -> u64 {
        self.after.batches - self.before.batches
    }

    /// Mean sequences per server step during the phase.
    pub fn mean_batch(&self) -> f64 {
        let rows = |r: &ServeReport| r.mean_batch * r.batches as f64;
        (rows(&self.after) - rows(&self.before)) / self.steps().max(1) as f64
    }

    /// Submit `req`; a refused request is counted and yields `None`.
    fn submit(&mut self, server: &Server, req: Request) -> Option<(usize, Ticket, Instant)> {
        let id = self.issued.len();
        let t0 = Instant::now();
        let ticket = trace::span("serve.submit", Some(id as u64), || {
            server.submit(&req.prompt, req.new_tokens, None)
        });
        self.submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
        self.issued.push(req);
        self.outputs.push(None);
        match ticket {
            Ok(t) => Some((id, t, t0)),
            Err(_) => {
                self.rejected += 1;
                None
            }
        }
    }

    /// Block on `ticket` and record what came back.
    fn redeem(&mut self, id: usize, ticket: Ticket, submitted: Instant) -> Instant {
        let result = trace::span("serve.wait", Some(id as u64), || ticket.wait());
        let done = Instant::now();
        let req = &self.issued[id];
        match result {
            Ok(c)
                if c.generated == req.new_tokens
                    && c.tokens.len() == req.prompt.len() + req.new_tokens
                    && c.tokens.starts_with(&req.prompt) =>
            {
                self.succeeded += 1;
                self.generated += c.generated as u64;
                self.latency_ms
                    .push(done.duration_since(submitted).as_secs_f64() * 1e3);
                self.outputs[id] = Some(c.tokens);
            }
            Ok(_) => self.malformed += 1,
            Err(_) => self.errored += 1,
        }
        done
    }

    /// Problems with the phase's own counts: every request sent must
    /// show up in the server's counters exactly once, as it was observed.
    pub fn count_problems(&self) -> Vec<String> {
        let (b, a) = (&self.before, &self.after);
        let mut problems = Vec::new();
        let submitted = a.submitted - b.submitted;
        if submitted != self.sent() {
            problems.push(format!(
                "sent {} but the server counted {submitted} submits",
                self.sent()
            ));
        }
        let completed = a.completed - b.completed;
        if completed != self.succeeded + self.malformed {
            problems.push(format!(
                "{} requests came back served but the server completed {completed}",
                self.succeeded + self.malformed
            ));
        }
        let shed = (a.shed_queue_full + a.shed_overload + a.shed_draining)
            - (b.shed_queue_full + b.shed_overload + b.shed_draining);
        if shed != self.rejected {
            problems.push(format!(
                "{} refused submits but the server shed {shed}",
                self.rejected
            ));
        }
        let server_failed = (a.deadline_missed + a.request_errors + a.wedged)
            - (b.deadline_missed + b.request_errors + b.wedged);
        if server_failed != self.errored {
            problems.push(format!(
                "{} tickets failed but the server failed {server_failed}",
                self.errored
            ));
        }
        problems
    }

    /// Add the phase's requests to `out`, with every failed request and
    /// every disagreement with the server's counters as a problem.
    pub fn account(&self, out: &mut Outcome) {
        out.attempted += self.sent();
        out.failed += self.failed();
        out.problems.extend(self.count_problems());
        if self.failed() > 0 {
            out.problems
                .push(format!("{} requests failed", self.failed()));
        }
    }
}

/// One one-token request, waited for: afterwards the worker pool and
/// the server's KV arena exist. Its deadline is near enough that the
/// idle server skips the coalescing window, so set-up time holds no
/// configured sleep. Should the host stall the request past that
/// deadline, it is sent once more without one.
pub fn warm_up(server: &Server, cfg: &ServeConfig) -> Result<(), String> {
    let urgent = (!cfg.batch_window.is_zero()).then(|| cfg.batch_window * (PRESSURE_WINDOWS - 1));
    let send = |deadline| {
        server
            .submit(&[0], 1, deadline)
            .map_err(|e| format!("warm-up refused: {e}"))
            .map(Ticket::wait)
    };
    let result = match send(urgent)? {
        Err(ServeError::DeadlineExceeded) => send(None)?,
        other => other,
    };
    result
        .map(|_| ())
        .map_err(|e| format!("warm-up failed: {e}"))
}

/// A closed loop of `sessions` clients: each sends its next request as
/// soon as its reply arrives, until `seconds` have passed or `next`
/// runs dry. One thread redeems tickets oldest-first, which observes
/// every completion on time only while all requests share one shape
/// (FIFO admission then finishes them in submission order).
pub fn closed_loop(
    server: &Server,
    sessions: usize,
    seconds: f64,
    mut next: impl FnMut() -> Option<Request>,
) -> Phase {
    let mut phase = Phase::start(server);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut inflight = VecDeque::new();
    let mut last_done = start;
    let mut issue = |phase: &mut Phase, inflight: &mut VecDeque<_>| {
        while Instant::now() < deadline {
            let Some(req) = next() else { return };
            if let Some(t) = phase.submit(server, req) {
                inflight.push_back(t);
                return;
            }
        }
    };
    for _ in 0..sessions {
        issue(&mut phase, &mut inflight);
    }
    while let Some((id, ticket, submitted)) = inflight.pop_front() {
        last_done = phase.redeem(id, ticket, submitted);
        issue(&mut phase, &mut inflight);
    }
    phase.elapsed_s = last_done.duration_since(start).as_secs_f64();
    phase.after = server.report();
    phase
}

/// Submit every request of `batch` at once, then redeem them all in
/// submission order; the phase's elapsed time is the batch's makespan.
pub fn batch(server: &Server, requests: Vec<Request>) -> Phase {
    let mut phase = Phase::start(server);
    let start = Instant::now();
    let tickets: Vec<_> = requests
        .into_iter()
        .filter_map(|r| phase.submit(server, r))
        .collect();
    let mut last_done = start;
    for (id, ticket, submitted) in tickets {
        last_done = phase.redeem(id, ticket, submitted);
    }
    phase.elapsed_s = last_done.duration_since(start).as_secs_f64();
    phase.after = server.report();
    phase
}
