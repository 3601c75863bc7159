//! The repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <figures|service-fresh|service-repeat> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload through the public APIs of
//! `dvi-experiments`, `dvi-service`, `dvi-sim` and `dvi-program`, checks
//! the outputs, and prints as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: every end-to-end metric
//! with `--trace 0`, every per-layer metric with `--trace 1` (a separate
//! run that wraps each public call in a span and times the lower layers).
//! `BENCHMARK.json` at the repository root documents the workloads and
//! metrics. Scratch files go to `.bench_work/` under the current
//! directory; the traced run leaves its spans there.

#![forbid(unsafe_code)]

mod figures;
mod host;
mod inputs;
mod layers;
mod metrics;
mod service;
mod spans;
mod stats;

use metrics::{Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

/// Panics seen anywhere in the process (sweep members included).
static PANICS: AtomicU64 = AtomicU64::new(0);

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &["figures", "service-fresh", "service-repeat"];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_: ()| format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad(()))?,
            "--seconds" => seconds = value.parse().map_err(|_| bad(()))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(())),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}' (one of {WORKLOADS:?})"));
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// Counts every panic and reports it in one line instead of a backtrace.
fn install_panic_counter() {
    std::panic::set_hook(Box::new(|info| {
        PANICS.fetch_add(1, Ordering::Relaxed);
        let payload = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_default();
        let at = info.location().map(|l| format!("{}:{}", l.file(), l.line())).unwrap_or_default();
        eprintln!("benchmark: panic counted at {at}: {}", payload.lines().next().unwrap_or(""));
    }));
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    install_panic_counter();
    // The figures must simulate every member, not read a memo.
    std::env::remove_var("DVI_RESULT_CACHE");
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("benchmark: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let mut report = Report::default();
    match args.workload.as_str() {
        "figures" => figures::run(&args, &mut report, &work),
        "service-fresh" => service::run(&args, service::Mix::Fresh, &mut report, &work),
        _ => service::run(&args, service::Mix::Repeat, &mut report, &work),
    }
    let panics = PANICS.load(Ordering::Relaxed);
    let failed = (report.failed + report.mismatches + panics).min(report.attempted);
    report.set("ok_share", 1.0 - failed as f64 / report.attempted.max(1) as f64);
    report.failed += report.mismatches;
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    // Keep the spans; drop the scratch service and memo directories.
    for scratch in ["service", "memo-scratch"] {
        std::fs::remove_dir_all(work.join(scratch)).ok();
    }
    // Directories left empty (no spans written) go too.
    std::fs::remove_dir(&work).ok();
    std::fs::remove_dir(".bench_work").ok();
    println!("{}", report.result_line(declared, panics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let args = parse_args(&argv("--workload figures --seed 7 --seconds 10 --trace 1"))
            .expect("parses");
        assert_eq!(args, Args { workload: "figures".into(), seed: 7, seconds: 10.0, trace: true });
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload figures --trace 2")).is_err());
        assert!(parse_args(&argv("--workload figures --seconds")).is_err());
    }

    #[test]
    fn workload_names_are_valid() {
        assert!(WORKLOADS.iter().all(|w| metrics::valid_name(w)));
    }
}
