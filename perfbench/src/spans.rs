//! Host-time spans recorded around the benchmark's calls into each layer.
//!
//! Every timed call goes through [`Spans::open`]/[`Spans::close`] in both
//! modes, so the untraced and traced runs execute the same code; only the
//! traced run keeps the spans. They stay in memory and are written out,
//! one JSON object per line, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::report::Report;

struct Span {
    layer: &'static str,
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// An open span; close it with [`Spans::close`].
pub struct Open {
    start: Instant,
    index: Option<usize>,
}

pub struct Spans {
    on: bool,
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    pub fn new(on: bool, run_id: u64) -> Self {
        Spans {
            on,
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans opened from here on.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Starts timing a call into `layer`. The span's parent is the
    /// innermost span still open.
    pub fn open(&mut self, layer: &'static str, name: &str) -> Open {
        let start = Instant::now();
        let index = self.on.then(|| {
            self.spans.push(Span {
                layer,
                name: name.to_string(),
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied(),
            });
            let i = self.spans.len() - 1;
            self.stack.push(i);
            i
        });
        Open { start, index }
    }

    /// Ends the span and returns its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(i) = open.index {
            self.spans[i].end_ns = (end - self.origin).as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(i), "spans must close innermost first");
        }
        (end - open.start).as_secs_f64()
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, layer: &'static str, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.open(layer, name);
        let r = f();
        (r, self.close(open))
    }

    /// Adds `self.<layer>_s` for every layer: the time its spans cover
    /// minus the part their child spans cover.
    pub fn report_self_time(&self, report: &mut Report) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_layer: BTreeMap<&str, (u64, usize)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let e = by_layer.entry(s.layer).or_default();
            e.0 += (s.end_ns - s.start_ns).saturating_sub(*child);
            e.1 += 1;
        }
        for (layer, (ns, n)) in by_layer {
            report.metric(format!("self.{layer}_s"), ns as f64 * 1e-9, "s", n);
        }
    }

    /// Writes the spans as JSON lines under `perfbench/out/`.
    pub fn write(&self, workload: &str) {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{workload}-{}.jsonl", self.run_id));
        let result = std::fs::create_dir_all(&dir).and_then(|()| {
            let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
            for (i, s) in self.spans.iter().enumerate() {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                writeln!(
                    out,
                    "{{\"run\": {}, \"id\": {i}, \"parent\": {parent}, \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                    self.run_id, s.layer, s.name, s.start_ns, s.end_ns
                )?;
            }
            out.flush()
        });
        match result {
            Ok(()) => eprintln!("spans: {} written to {}", self.spans.len(), path.display()),
            Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
        }
    }
}
