//! The repository benchmark: drives the serving path
//! (`axcore_serve::Server`) on one fixed model, with probes into each
//! layer, checks every output, and prints every metric by name with its
//! unit. The last line of standard output is the JSON result. See
//! `README.md` for the workloads and metrics.
//!
//! ```text
//! env AXCORE_THREADS=1 cargo run --release --offline --manifest-path axbench/Cargo.toml -- \
//!     --workload chat --seed 1 --seconds 30 --trace 0
//! ```

mod chat;
mod gen;
mod layers;
mod long_context;
mod metrics;
mod probes;
mod replay;
mod serving;
mod setup;
mod stats;
mod trace;

use metrics::Values;
use std::io::Write as _;
use std::process::ExitCode;

/// The command line, checked.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Seconds of load per phase: a traced run splits its time between
    /// an untraced phase and a traced one (the tracing overhead is their
    /// difference), so it takes about as long as an untraced run.
    pub fn phase_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Chat,
    LongContext,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Chat => "chat",
            Workload::LongContext => "long_context",
        }
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "chat" => Workload::Chat,
                    "long_context" => Workload::LongContext,
                    other => {
                        return Err(format!("unknown workload {other:?} (chat, long_context)"))
                    }
                })
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(1..=3600).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=3600"));
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?} must be 0 or 1")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests attempted, and those that failed, were shed, missed a
    /// deadline or failed an output check.
    pub attempted: u64,
    pub failed: u64,
    /// Every failed check, requests and the load generator's own.
    pub problems: Vec<String>,
    /// End-to-end metrics untraced, per-layer metrics traced.
    pub values: Values,
    /// Human-readable lines printed ahead of the result.
    pub notes: Vec<String>,
    /// Configuration recorded with the result.
    pub configs: Vec<(&'static str, String)>,
    pub spans: Vec<trace::Span>,
}

fn write_trace(args: &Args, out: &Outcome) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.json", args.workload.name(), args.seed));
    let header = format!(
        "\"workload\":\"{}\",\"seed\":{}",
        args.workload.name(),
        args.seed
    );
    let mut file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    file.write_all(trace::to_json(&header, &out.spans).as_bytes())
        .and_then(|()| file.flush())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("axbench: {e}");
            eprintln!(
                "usage: axbench --workload chat|long_context --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let mut out = match args.workload {
        Workload::Chat => chat::run(&args),
        Workload::LongContext => long_context::run(&args),
    };
    if args.trace {
        match write_trace(&args, &out) {
            Ok(path) => out
                .notes
                .push(format!("trace: {} spans in {path}", out.spans.len())),
            Err(e) => eprintln!("axbench: trace not written: {e}"),
        }
    }
    out.notes.push(format!(
        "attempted {}, succeeded {}, failed {}: failed_share {}",
        out.attempted,
        out.attempted.saturating_sub(out.failed),
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    ));
    let list = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let result = metrics::result_json(
        out.problems.is_empty(),
        out.attempted,
        out.failed,
        &out.values,
        list,
    );
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("axbench: {e}");
            return ExitCode::from(1);
        }
    };
    let mut meta = vec![
        (
            "workload".to_string(),
            setup::json_str(args.workload.name()),
        ),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), u8::from(args.trace).to_string()),
    ];
    meta.extend(setup::meta_fields(&out.configs));
    let meta: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}:{v}", setup::json_str(k)))
        .collect();
    for note in &out.notes {
        println!("# {note}");
    }
    for problem in &out.problems {
        println!("# FAILED: {problem}");
    }
    println!("{{\"meta\":{{{}}}}}", meta.join(","));
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_are_checked() {
        let a = parse_args(&argv(
            "--workload long_context --seed 9 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::LongContext, 9, 10.0, true)
        );
        assert!(parse_args(&argv("--workload burst --seed 9 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload chat --seed 9 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload chat --seed 9 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload chat --seed 9 --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload chat --seed -1 --seconds 10 --trace 0")).is_err());
    }
}
