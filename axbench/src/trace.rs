//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded on the calling thread only (the benchmark drives
//! every layer from one client thread) and written out when the run
//! ends. With tracing off, [`span`] costs one thread-local check.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `name` is `layer.call`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording spans on this thread.
pub fn start() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Stop recording and hand back every span recorded since [`start`].
pub fn stop() -> Vec<Span> {
    REC.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Run `f` inside a span named `name`, tied to request `req`.
pub fn span<R>(name: &'static str, req: Option<u64>, f: impl FnOnce() -> R) -> R {
    let opened = REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let idx = rec.spans.len();
        let start_ns = rec.origin.elapsed().as_nanos() as u64;
        let parent = rec.open.last().copied();
        rec.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        rec.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = opened {
        REC.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[idx].end_ns = rec.origin.elapsed().as_nanos() as u64;
                rec.open.pop();
            }
        });
    }
    out
}

/// Per span name: calls, total time and self time (total minus the part
/// covered by direct child spans), in first-seen order.
pub fn summary(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
    for (s, child) in spans.iter().zip(&child_ns) {
        let total = s.dur_ns() as f64 / 1e6;
        let own = s.dur_ns().saturating_sub(*child) as f64 / 1e6;
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += total;
                r.3 += own;
            }
            None => rows.push((s.name, 1, total, own)),
        }
    }
    rows
}

/// The spans and their summary as one JSON document.
pub fn to_json(header: &str, spans: &[Span]) -> String {
    let mut out = format!("{{{header},\"summary\":[");
    for (i, (name, calls, total, own)) in summary(spans).iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}{{\"name\":\"{name}\",\"calls\":{calls},\"total_ms\":{total},\"self_ms\":{own}}}"
        );
    }
    out.push_str("],\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let req = s.req.map_or("null".to_string(), |r| r.to_string());
        let _ = write!(
            out,
            "{sep}{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{req}}}",
            s.name, s.start_ns, s.end_ns
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        start();
        span("outer", None, || {
            span("inner", Some(3), || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        span("untraced-sibling", None, || ());
        let spans = stop();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].req, Some(3));
        assert_eq!(spans[2].parent, None);
        let rows = summary(&spans);
        let outer = rows.iter().find(|r| r.0 == "outer").expect("outer row");
        assert!(outer.3 < outer.2, "self time leaves out the child");
        assert!(to_json("\"k\":1", &spans).starts_with("{\"k\":1,\"summary\":["));
    }

    #[test]
    fn off_records_nothing() {
        assert_eq!(span("x", None, || 5), 5);
        assert!(stop().is_empty());
    }
}
