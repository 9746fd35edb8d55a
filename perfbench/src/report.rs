//! Run results, summary statistics and the result line.

use crate::RunOpts;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarises.
    pub samples: usize,
}

impl Metric {
    pub fn row(&self) -> String {
        format!(
            "{:<40} {:>16.6} {:<6} n={}",
            self.name, self.value, self.unit, self.samples
        )
    }
}

/// Outcome of one workload run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Lines for the readable table only, not the JSON result.
    pub notes: Vec<String>,
}

impl Report {
    /// Counts one checked operation; `ok == false` counts it as failed.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// `chunk_p50_us` and `chunk_p99_us` over per-call host times.
    pub fn chunk_percentiles(&mut self, per_call: &[f64]) {
        for (name, p) in [("chunk_p50_us", 0.50), ("chunk_p99_us", 0.99)] {
            self.metric(name, percentile(per_call, p) * 1e6, "us", per_call.len());
        }
    }

    /// Prints a readable table, then the JSON result as the last line.
    pub fn print(&self, workload: &str, opts: &RunOpts) {
        println!(
            "# {workload} seed={} seconds={} trace={} attempted={} failed={}",
            opts.seed, opts.seconds, opts.trace as u8, self.attempted, self.failed
        );
        for m in &self.metrics {
            println!("#   {}", m.row());
        }
        for note in &self.notes {
            println!("#   {note}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Per-call medians over passes that made the same calls on the same
/// inputs: `passes[p][k]` is call `k` of pass `p`. An interruption of the
/// host that hits one pass drops out.
pub fn per_call_medians(passes: &[Vec<f64>]) -> Result<Vec<f64>, String> {
    let calls = passes[0].len();
    if passes.iter().any(|p| p.len() != calls) {
        return Err("passes made different numbers of calls".to_string());
    }
    Ok((0..calls)
        .map(|k| median(&passes.iter().map(|p| p[k]).collect::<Vec<f64>>()))
        .collect())
}

/// Nearest-rank percentile, `p` in (0, 1].
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "percentile of an empty sample");
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

fn status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(f64::NAN)
}

/// FNV-1a, 64 bit: the digest the recorded outputs are compared by.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(mut self, data: &[u8]) -> Self {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}
