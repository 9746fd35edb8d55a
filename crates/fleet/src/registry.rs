//! Sharded fleet registry and the merged telemetry rollup.
//!
//! Workers admit finished sessions concurrently, so reports land in a
//! sharded [`FleetRegistry`] (lock contention scales with shard count,
//! not fleet size). The rollup side is pure: [`FleetRollup::from_reports`]
//! merges per-session counters, log-bucket latency histograms (exact
//! bucket-wise merge via [`LogHistogram::merge`]), and power totals;
//! [`render_exposition`] turns that into one Prometheus text exposition
//! carrying both pre-aggregated `halo_fleet_*` families and per-session
//! series labeled `session`/`pipeline`.

use std::sync::Mutex;

use halo_telemetry::expose::{escape_label, Exposition};
use halo_telemetry::{CycleProfile, LogHistogram, Severity};

use crate::session::SessionReport;

/// Concurrent collection point for finished sessions.
#[derive(Debug)]
pub struct FleetRegistry {
    shards: Vec<Mutex<Vec<SessionReport>>>,
}

impl FleetRegistry {
    /// A registry with `shards` independent completion buckets.
    pub fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards.max(1)).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Admits one finished session (shard chosen by session id).
    pub fn admit(&self, report: SessionReport) {
        let shard = (report.spec.id % self.shards.len() as u64) as usize;
        self.shards[shard].lock().unwrap().push(report);
    }

    /// Sessions admitted so far.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// Whether no session has been admitted yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains every shard into one list ordered by session id.
    pub fn into_reports(self) -> Vec<SessionReport> {
        let mut out = Vec::new();
        for shard in self.shards {
            out.append(&mut shard.into_inner().unwrap());
        }
        out.sort_by_key(|r| r.spec.id);
        out
    }
}

/// Per-pipeline slice of the fleet rollup.
#[derive(Debug)]
pub struct PipelineRollup {
    /// Pipeline display label.
    pub pipeline: &'static str,
    /// Sessions configured into this pipeline.
    pub sessions: u64,
    /// Frames streamed across those sessions.
    pub frames: u64,
    /// Radio bytes across those sessions.
    pub radio_bytes: u64,
    /// Summed modeled device power, milliwatts.
    pub device_mw: f64,
    /// Merged end-to-end frame-latency histogram.
    pub latency: LogHistogram,
}

/// Fleet-wide aggregation of every session report.
#[derive(Debug)]
pub struct FleetRollup {
    /// Sessions in the fleet.
    pub sessions: u64,
    /// Sessions that finalized cleanly.
    pub completed: u64,
    /// Sessions that ended in an error.
    pub failed: u64,
    /// Total frames streamed (sum of per-session recorder counters).
    pub frames: u64,
    /// Total radio bytes.
    pub radio_bytes: u64,
    /// Total NoC bytes.
    pub noc_bytes: u64,
    /// Alert totals indexed by [`Severity`] as usize.
    pub severity_counts: [u64; 3],
    /// Summed modeled device power, milliwatts.
    pub device_mw: f64,
    /// Summed modeled processing power, milliwatts.
    pub processing_mw: f64,
    /// Merged frame-latency histogram across every session and pipeline.
    pub latency: LogHistogram,
    /// Per-pipeline slices in first-seen (session-id) order.
    pub pipelines: Vec<PipelineRollup>,
    /// Exemplar frames tagged for tracing across the fleet.
    pub traces_sampled: u64,
    /// Exemplar traces completed across the fleet.
    pub traces_completed: u64,
}

impl FleetRollup {
    /// Aggregates `reports` (any order; grouping is by session id order).
    pub fn from_reports(reports: &[SessionReport]) -> FleetRollup {
        let mut ordered: Vec<&SessionReport> = reports.iter().collect();
        ordered.sort_by_key(|r| r.spec.id);

        let mut rollup = FleetRollup {
            sessions: ordered.len() as u64,
            completed: 0,
            failed: 0,
            frames: 0,
            radio_bytes: 0,
            noc_bytes: 0,
            severity_counts: [0; 3],
            device_mw: 0.0,
            processing_mw: 0.0,
            latency: LogHistogram::new(),
            pipelines: Vec::new(),
            traces_sampled: 0,
            traces_completed: 0,
        };
        for report in ordered {
            if report.completed() {
                rollup.completed += 1;
            } else {
                rollup.failed += 1;
            }
            let snap = report.recorder.snapshot();
            rollup.frames += snap.frames;
            rollup.radio_bytes += snap.radio_bytes;
            rollup.noc_bytes += snap.noc_bytes();
            let status = report.monitor.status();
            for (total, n) in rollup
                .severity_counts
                .iter_mut()
                .zip(status.severity_counts)
            {
                *total += n;
            }
            rollup.device_mw += report.device_mw;
            rollup.processing_mw += report.processing_mw;
            let stats = report.tracer.stats();
            rollup.traces_sampled += stats.sampled;
            rollup.traces_completed += stats.completed;

            let label = report.spec.task.label();
            let slot = match rollup.pipelines.iter().position(|p| p.pipeline == label) {
                Some(i) => i,
                None => {
                    rollup.pipelines.push(PipelineRollup {
                        pipeline: label,
                        sessions: 0,
                        frames: 0,
                        radio_bytes: 0,
                        device_mw: 0.0,
                        latency: LogHistogram::new(),
                    });
                    rollup.pipelines.len() - 1
                }
            };
            let slice = &mut rollup.pipelines[slot];
            slice.sessions += 1;
            slice.frames += snap.frames;
            slice.radio_bytes += snap.radio_bytes;
            slice.device_mw += report.device_mw;
            for (_, hist) in report.recorder.pipeline_histograms() {
                slice.latency.merge(&hist);
                rollup.latency.merge(&hist);
            }
        }
        rollup
    }
}

const SEVERITIES: [Severity; 3] = [Severity::Info, Severity::Warning, Severity::Critical];

/// Renders the fleet as one Prometheus text exposition: pre-aggregated
/// `halo_fleet_*` families first, then per-session series labeled
/// `session="<id>",pipeline="<label>"`. Output over the same reports is
/// byte-identical (insertion-ordered families, id-ordered sessions).
pub fn render_exposition(reports: &[SessionReport]) -> String {
    let rollup = FleetRollup::from_reports(reports);
    let mut ordered: Vec<&SessionReport> = reports.iter().collect();
    ordered.sort_by_key(|r| r.spec.id);

    let mut e = Exposition::new();

    e.family(
        "halo_fleet_sessions",
        "gauge",
        "Patient sessions in the fleet.",
    );
    e.value("halo_fleet_sessions", "", rollup.sessions);
    e.family(
        "halo_fleet_sessions_completed",
        "gauge",
        "Sessions whose stream finalized cleanly.",
    );
    e.value("halo_fleet_sessions_completed", "", rollup.completed);
    e.family(
        "halo_fleet_sessions_failed",
        "gauge",
        "Sessions that ended in a runtime error.",
    );
    e.value("halo_fleet_sessions_failed", "", rollup.failed);

    e.family(
        "halo_fleet_frames_total",
        "counter",
        "Sample frames ingested across every session.",
    );
    e.value("halo_fleet_frames_total", "", rollup.frames);
    e.family(
        "halo_fleet_radio_bytes_total",
        "counter",
        "Radio bytes transmitted across every session.",
    );
    e.value("halo_fleet_radio_bytes_total", "", rollup.radio_bytes);
    e.family(
        "halo_fleet_noc_bytes_total",
        "counter",
        "NoC bytes moved across every session.",
    );
    e.value("halo_fleet_noc_bytes_total", "", rollup.noc_bytes);

    e.family(
        "halo_fleet_alerts_total",
        "counter",
        "Watchdog alerts raised across the fleet, by severity.",
    );
    for sev in SEVERITIES {
        e.value(
            "halo_fleet_alerts_total",
            &format!("severity=\"{}\"", sev.label()),
            rollup.severity_counts[sev as usize],
        );
    }

    e.family(
        "halo_fleet_power_mw",
        "gauge",
        "Summed modeled whole-device power across the fleet, milliwatts.",
    );
    e.value(
        "halo_fleet_power_mw",
        "",
        halo_telemetry::expose::sample(rollup.device_mw),
    );
    e.family(
        "halo_fleet_processing_power_mw",
        "gauge",
        "Summed modeled processing power across the fleet, milliwatts.",
    );
    e.value(
        "halo_fleet_processing_power_mw",
        "",
        halo_telemetry::expose::sample(rollup.processing_mw),
    );

    e.family(
        "halo_fleet_frame_latency_ns",
        "histogram",
        "End-to-end frame latency merged across every session, nanoseconds.",
    );
    if rollup.latency.count() != 0 {
        for (bound, cumulative) in rollup.latency.cumulative_buckets() {
            e.value(
                "halo_fleet_frame_latency_ns_bucket",
                &format!("le=\"{bound}\""),
                cumulative,
            );
        }
        e.value(
            "halo_fleet_frame_latency_ns_bucket",
            "le=\"+Inf\"",
            rollup.latency.count(),
        );
        e.value("halo_fleet_frame_latency_ns_sum", "", rollup.latency.sum());
        e.value(
            "halo_fleet_frame_latency_ns_count",
            "",
            rollup.latency.count(),
        );
    }

    e.family(
        "halo_fleet_frame_latency_quantile_ns",
        "gauge",
        "Per-pipeline fleet frame-latency quantiles, nanoseconds.",
    );
    for p in &rollup.pipelines {
        if p.latency.count() == 0 {
            continue;
        }
        let s = p.latency.summary();
        let pl = escape_label(p.pipeline);
        for (q, v) in [
            ("0.5", s.p50),
            ("0.9", s.p90),
            ("0.99", s.p99),
            ("1", s.max),
        ] {
            e.value(
                "halo_fleet_frame_latency_quantile_ns",
                &format!("pipeline=\"{pl}\",quantile=\"{q}\""),
                v,
            );
        }
    }

    e.family(
        "halo_fleet_traces_sampled_total",
        "counter",
        "Frames tagged for exemplar tracing across the fleet.",
    );
    e.value("halo_fleet_traces_sampled_total", "", rollup.traces_sampled);
    e.family(
        "halo_fleet_traces_completed_total",
        "counter",
        "Exemplar span trees completed across the fleet.",
    );
    e.value(
        "halo_fleet_traces_completed_total",
        "",
        rollup.traces_completed,
    );

    // --- Per-session series ---
    e.family(
        "halo_session_up",
        "gauge",
        "1 when the session finalized cleanly, 0 when it failed.",
    );
    for r in &ordered {
        e.value(
            "halo_session_up",
            &session_labels(r),
            u64::from(r.completed()),
        );
    }
    e.family(
        "halo_session_frames_total",
        "counter",
        "Sample frames ingested per session.",
    );
    for r in &ordered {
        e.value(
            "halo_session_frames_total",
            &session_labels(r),
            r.recorder.snapshot().frames,
        );
    }
    e.family(
        "halo_session_radio_bytes_total",
        "counter",
        "Radio bytes transmitted per session.",
    );
    for r in &ordered {
        e.value(
            "halo_session_radio_bytes_total",
            &session_labels(r),
            r.recorder.snapshot().radio_bytes,
        );
    }
    e.family(
        "halo_session_power_mw",
        "gauge",
        "Modeled whole-device power per session, milliwatts.",
    );
    for r in &ordered {
        e.value(
            "halo_session_power_mw",
            &session_labels(r),
            halo_telemetry::expose::sample(r.device_mw),
        );
    }
    e.family(
        "halo_session_alerts_total",
        "counter",
        "Watchdog alerts per session, by severity.",
    );
    for r in &ordered {
        let counts = r.monitor.status().severity_counts;
        for sev in SEVERITIES {
            e.value(
                "halo_session_alerts_total",
                &format!("session=\"{}\",severity=\"{}\"", r.spec.id, sev.label()),
                counts[sev as usize],
            );
        }
    }
    e.family(
        "halo_session_frame_latency_ns",
        "gauge",
        "Per-session end-to-end frame-latency quantiles, nanoseconds.",
    );
    for r in &ordered {
        let mut merged = LogHistogram::new();
        for (_, hist) in r.recorder.pipeline_histograms() {
            merged.merge(&hist);
        }
        if merged.count() == 0 {
            continue;
        }
        let s = merged.summary();
        for (q, v) in [
            ("0.5", s.p50),
            ("0.9", s.p90),
            ("0.99", s.p99),
            ("1", s.max),
        ] {
            e.value(
                "halo_session_frame_latency_ns",
                &format!("{},quantile=\"{q}\"", session_labels(r)),
                v,
            );
        }
    }

    // The merged fleet flamegraph: one `halo_profile_*` family set rooted
    // at `device="fleet"`, summed frame-for-frame over the id-ordered
    // session profiles (so the render is byte-stable at any worker
    // count, like everything else here).
    fleet_profile(reports).render_exposition_into(&mut e);

    e.finish()
}

/// Merges every session's cycle profile into one fleet-rooted
/// [`CycleProfile`] (device `"fleet"`). Merge order is session-id order,
/// and since merging is commutative cell-wise the result is byte-stable
/// across worker counts.
pub fn fleet_profile(reports: &[SessionReport]) -> CycleProfile {
    let mut ordered: Vec<&SessionReport> = reports.iter().collect();
    ordered.sort_by_key(|r| r.spec.id);
    let mut fleet = CycleProfile::new("fleet");
    for report in ordered {
        fleet.merge(&report.profile);
    }
    fleet
}

fn session_labels(report: &SessionReport) -> String {
    format!(
        "session=\"{}\",pipeline=\"{}\"",
        report.spec.id,
        escape_label(report.spec.task.label())
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn registry_orders_reports_by_id() {
        let config = crate::FleetConfig::default().frames_per_session(120);
        let mut specs = crate::SessionSpec::mixed(5, &config);
        specs.reverse(); // admit out of order
        let registry = crate::run(specs, &config).unwrap();
        let reports = registry.into_reports();
        let ids: Vec<u64> = reports.iter().map(|r| r.spec.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }
}
