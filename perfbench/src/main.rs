//! Design-point benchmark of the HALO simulator.
//!
//! ```text
//! cargo run --release -q --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload stream_96ch --seed 7 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `stream_96ch` and `fleet_armed` (see `perfbench/README.md`).
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics of the workload. `--trace 1` is a separate run that
//! records spans around every call into the simulator and reports every
//! per-layer metric: the named workload fills `--seconds`, the other runs
//! its minimum passes, and the paper artifacts run once.
//!
//! Other entry points:
//! * `self-test` runs every workload and the paper artifacts briefly with
//!   one output byte flipped before the first check, and exits non-zero
//!   unless each counts exactly that operation as failed;
//! * `record-digests` prints `perfbench/digests.tsv` from the current code;
//! * `experiment <name>` runs one paper artifact (the child process of the
//!   traced run).

mod digests;
mod fleet;
mod host;
mod paper;
mod report;
mod spans;
mod stream;

use std::process::ExitCode;

use report::Report;
use spans::Spans;

/// Options shared by every workload run.
#[derive(Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Flip one output byte before the first check (set by `self-test`).
    pub corrupt: bool,
}

const WORKLOADS: [&str; 2] = ["stream_96ch", "fleet_armed"];

const USAGE: &str = "usage: halo-perfbench --workload <stream_96ch|fleet_armed> \
--seed <n> --seconds <s> --trace <0|1>\n       halo-perfbench self-test | \
record-digests | experiment <name>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("experiment") => paper::child(args.get(1).map(String::as_str)),
        Some("record-digests") => digests::record(),
        Some("self-test") => self_test(),
        _ => match parse(&args) {
            Ok((workload, opts)) => match run(&workload, &opts) {
                Ok(report) => {
                    report.print(&workload, &opts);
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("halo-perfbench: {workload}: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("halo-perfbench: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
    }
}

fn parse(args: &[String]) -> Result<(String, RunOpts), String> {
    let mut workload = None;
    let mut opts = RunOpts {
        seed: 0,
        seconds: 10.0,
        trace: false,
        corrupt: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok((workload, opts))
}

fn run(workload: &str, opts: &RunOpts) -> Result<Report, String> {
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let mut spans = Spans::new(opts.trace, opts.seed);
    let mut report = Report::default();
    // Untraced: the named workload only. Traced: every layer.
    let other = RunOpts {
        seconds: 0.0,
        ..*opts
    };
    let opts_for = |w: &str| if w == workload { opts } else { &other };
    if workload == "stream_96ch" || opts.trace {
        stream::run(opts_for("stream_96ch"), &mut spans, &mut report)?;
    }
    if workload == "fleet_armed" || opts.trace {
        fleet::run(opts_for("fleet_armed"), &mut spans, &mut report)?;
    }
    if opts.trace {
        paper::run(&mut spans, &mut report, opts.corrupt)?;
        spans.report_self_time(&mut report);
        spans.write(workload);
    }
    Ok(report)
}

/// Runs each workload once, briefly, with one output byte corrupted: the
/// checks must count exactly that operation as failed. The paper
/// artifacts, which only the traced run checks, are tested the same way.
fn self_test() -> ExitCode {
    let opts = RunOpts {
        seed: 0,
        seconds: 0.001,
        trace: false,
        corrupt: true,
    };
    let mut ok = true;
    for part in ["stream_96ch", "fleet_armed", "paper artifacts"] {
        let mut spans = Spans::new(false, 0);
        let mut r = Report::default();
        let result = match part {
            "stream_96ch" => stream::run(&opts, &mut spans, &mut r),
            "fleet_armed" => fleet::run(&opts, &mut spans, &mut r),
            _ => paper::run(&mut spans, &mut r, true),
        };
        match result {
            Ok(()) if r.failed == 1 => {
                println!(
                    "self-test {part}: corrupted operation counted as failed (1 of {})",
                    r.attempted
                )
            }
            Ok(()) => {
                println!(
                    "self-test {part}: FAILED, {} of {} operations failed, want 1",
                    r.failed, r.attempted
                );
                ok = false;
            }
            Err(e) => {
                println!("self-test {part}: FAILED, {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
