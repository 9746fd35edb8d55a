//! The `bench` layer: all ten paper artifacts, as `experiments all` runs
//! them, once per traced run.
//!
//! Each artifact runs in a child process of this binary, so its standard
//! output can be compared with the recorded digest.

use std::io::Write;
use std::process::{Command, ExitCode, Stdio};

use crate::digests;
use crate::report::{Fnv, Report};
use crate::spans::Spans;

/// The artifacts in `experiments all` order.
const EXPERIMENTS: [&str; 10] = [
    "table1", "table3", "table4", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "ablate",
];
/// Per-layer groups; the three tables take a few milliseconds each.
const GROUPS: [(&str, &[&str]); 8] = [
    ("tables", &["table1", "table3", "table4"]),
    ("fig4", &["fig4"]),
    ("fig5", &["fig5"]),
    ("fig6", &["fig6"]),
    ("fig7", &["fig7"]),
    ("fig8", &["fig8"]),
    ("fig9", &["fig9"]),
    ("ablate", &["ablate"]),
];

/// Child entry point: runs one artifact.
pub fn child(name: Option<&str>) -> ExitCode {
    use halo_bench::{ablate, fig4, fig5, fig6, fig7, fig8, fig9, table1, table3, table4};
    match name {
        Some("table1") => table1::run(),
        Some("table3") => table3::run(),
        Some("table4") => table4::run(),
        Some("fig4") => fig4::run(),
        Some("fig5") => fig5::run(),
        Some("fig6") => fig6::run(),
        Some("fig7") => fig7::run(),
        Some("fig8") => fig8::run(),
        Some("fig9") => fig9::run(),
        Some("ablate") => ablate::run(),
        other => {
            eprintln!(
                "unknown experiment {other:?}; one of {}",
                EXPERIMENTS.join(" ")
            );
            return ExitCode::from(2);
        }
    }
    if std::io::stdout().flush().is_err() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Runs one artifact in a child process, waits for it and returns its
/// standard output.
fn experiment(name: &str) -> Result<Vec<u8>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["experiment", name])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("{name}: spawn: {e}"))?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!("{name}: {}: {stderr}", out.status));
    }
    Ok(out.stdout)
}

fn digest(stdout: &[u8]) -> u64 {
    Fnv::new().bytes(stdout).finish()
}

/// Standard-output digest of every artifact.
pub fn digests() -> Result<Vec<(&'static str, u64)>, String> {
    EXPERIMENTS
        .iter()
        .map(|&name| Ok((name, digest(&experiment(name)?))))
        .collect()
}

/// Runs every artifact once, checks its output and adds `bench.<group>_s`.
pub fn run(spans: &mut Spans, report: &mut Report, corrupt: bool) -> Result<(), String> {
    spans.set_on(true);
    let mut seconds = Vec::new();
    for (i, name) in EXPERIMENTS.iter().enumerate() {
        let (stdout, s) = spans.time("bench", &format!("bench.{name}"), || experiment(name));
        let mut stdout = stdout?;
        seconds.push(s);
        // Checked outside the timed call.
        if corrupt && i == 0 {
            stdout[0] ^= 0x01;
        }
        report.check(
            digests::experiment(name) == Some(digest(&stdout)),
            &format!("paper artifact {name}: stdout digest mismatch"),
        );
    }
    for (group, members) in GROUPS {
        let s: f64 = EXPERIMENTS
            .iter()
            .zip(&seconds)
            .filter(|(name, _)| members.contains(name))
            .map(|(_, s)| s)
            .sum();
        report.metric(format!("bench.{group}_s"), s, "s", 1);
    }
    Ok(())
}
