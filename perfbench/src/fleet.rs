//! `fleet_armed`: many short 8-channel sessions under the full observer
//! stack.
//!
//! `SessionSpec::mixed` sessions of all eight pipelines at `small_test`
//! geometry, each carrying the fleet's default observers (health,
//! continuous telemetry, escalation tracer, profiler), stepped one
//! scheduler quantum at a time by one caller, and followed by the rollup
//! (`render_exposition`, `render_triage`, `fleet_profile`).
//!
//! The caller steps the sessions in the order `scheduler::run_sessions`
//! steps them with one worker (front of the queue, one quantum, back of
//! the queue), so every quantum can be timed on its own. The traced run
//! also times `run_sessions` itself, with one worker and with all cores.

use halo_core::{HaloConfig, HaloSystem, Task, TaskMetrics};
use halo_fleet::registry::render_exposition;
use std::collections::VecDeque;

use halo_fleet::scheduler::{resolve_threads, run_sessions};
use halo_fleet::session::train_shared_svm;
use halo_fleet::triage::render_triage;
use halo_fleet::{fleet_profile, FleetConfig, FleetRegistry, FleetSession, SessionSpec};
use halo_kernels::LinearSvm;
use halo_signal::{Recording, RecordingConfig, RegionProfile};

use crate::digests;
use crate::host::{HostSpeed, NOMINAL_PROBE_S};
use crate::report::{median, peak_rss_mb, per_call_medians, Fnv, Report};
use crate::spans::Spans;
use crate::RunOpts;

const SESSIONS: usize = 32;
/// One second of signal per session.
const FRAMES: usize = 30_000;
/// Each quantum's time is its median over at least `MIN_PASSES` passes.
/// That is also what the traced run needs: a warm-up pass, then one
/// traced and one untraced.
const MIN_PASSES: usize = 3;
/// The observer-cost ablation runs after the first `ABLATION_PASSES`
/// passes of a traced run, `ABLATION_REPS` times each.
const ABLATION_PASSES: usize = 2;
const ABLATION_REPS: usize = 5;

/// Metric names of the eight pipelines, in `Task::all()` order.
fn short_name(task: Task) -> &'static str {
    match task {
        Task::SpikeDetectNeo => "neo",
        Task::SpikeDetectDwt => "dwt",
        Task::CompressLz4 => "lz4",
        Task::CompressLzma => "lzma",
        Task::CompressDwtma => "dwtma",
        Task::MovementIntent => "move",
        Task::SeizurePrediction => "seizure",
        Task::EncryptRaw => "aes",
    }
}

fn config(seed: u64, threads: usize) -> FleetConfig {
    FleetConfig::default()
        .threads(threads)
        .frames_per_session(FRAMES)
        .seed(seed)
}

/// Set-up: the shared SVM and every session. Returns the sessions, the
/// SVM, and the seconds spent training and building.
fn build(
    spans: &mut Spans,
    cfg: &FleetConfig,
) -> Result<(Vec<FleetSession>, LinearSvm, f64, f64), String> {
    let (svm, train_s) = spans.time("core", "core.svm_train", || train_shared_svm(cfg));
    let svm = svm.map_err(|e| format!("svm training: {e}"))?;
    let mut sessions = Vec::with_capacity(SESSIONS);
    let mut build_s = 0.0;
    for spec in SessionSpec::mixed(SESSIONS, cfg) {
        let (session, s) = spans.time("fleet", "fleet.build", || {
            FleetSession::build(spec, cfg, Some(&svm))
        });
        sessions.push(session.map_err(|e| format!("session build: {e}"))?);
        build_s += s;
    }
    Ok((sessions, svm, train_s, build_s))
}

struct Rollup {
    completed: Vec<bool>,
    stim_events: usize,
    exposition: String,
    profile: String,
    metrics: Vec<Option<TaskMetrics>>,
}

/// The timed phase, first part: every session stepped to completion, one
/// quantum per call. Returns each quantum's host time, in call order.
fn step_all(
    spans: &mut Spans,
    sessions: Vec<FleetSession>,
    cfg: &FleetConfig,
    registry: &FleetRegistry,
) -> Vec<f64> {
    let mut queue = VecDeque::from(sessions);
    let mut quanta = Vec::new();
    while let Some(mut session) = queue.pop_front() {
        let (done, s) = spans.time("fleet", "fleet.step", || session.step(cfg.batch_frames));
        quanta.push(s);
        if done {
            registry.admit(session.into_report());
        } else {
            queue.push_back(session);
        }
    }
    quanta
}

/// The timed phase, second part: the rollup of every session's report.
fn roll_up(spans: &mut Spans, registry: FleetRegistry) -> (Rollup, f64) {
    spans.time("fleet", "fleet.rollup", || {
        let reports = registry.into_reports();
        let exposition = render_exposition(&reports);
        std::hint::black_box(render_triage(&reports, 3));
        let profile = fleet_profile(&reports).to_json();
        Rollup {
            completed: reports.iter().map(|r| r.completed()).collect(),
            stim_events: reports
                .iter()
                .filter_map(|r| r.metrics.as_ref())
                .map(|m| m.stim_events.len())
                .sum(),
            exposition,
            profile,
            metrics: reports.into_iter().map(|r| r.metrics).collect(),
        }
    })
}

fn rollup_digests(r: &Rollup) -> [u64; 2] {
    [
        Fnv::new().bytes(r.exposition.as_bytes()).finish(),
        Fnv::new().bytes(r.profile.as_bytes()).finish(),
    ]
}

/// Exposition and profile digests of one pass over pool entry `input`.
pub fn digests(input: usize) -> Result<Vec<u64>, String> {
    let mut spans = Spans::new(false, 0);
    let cfg = config(digests::input_seed(input), 1);
    let (sessions, ..) = build(&mut spans, &cfg)?;
    let registry = FleetRegistry::new(cfg.shards);
    step_all(&mut spans, sessions, &cfg, &registry);
    Ok(rollup_digests(&roll_up(&mut spans, registry).0).to_vec())
}

/// The recording `FleetSession::build` generates for `spec`, and the
/// device configuration it builds, regenerated for the bare-system
/// ablation.
fn session_input(spec: &SessionSpec, svm: &LinearSvm) -> (HaloConfig, Recording) {
    let mut halo = HaloConfig::small_test(spec.channels).channels(spec.channels);
    if spec.task == Task::SeizurePrediction {
        halo = halo.with_svm(svm.clone());
    }
    let window = halo.feature_window_frames();
    let mut rec = RecordingConfig::new(RegionProfile::arm())
        .channels(spec.channels)
        .samples(spec.frames);
    if spec.task.uses_stimulation() && spec.frames > 4 * window {
        rec = rec.seizure_at(2 * window, spec.frames / 2);
    }
    (halo, rec.generate(spec.patient_seed))
}

/// Streams one session through a bare `HaloSystem` (no observers) in the
/// scheduler's quanta. Returns its metrics, total and finalize seconds.
fn bare(
    spans: &mut Spans,
    task: Task,
    halo: &HaloConfig,
    rec: &Recording,
    batch: usize,
) -> Result<(TaskMetrics, f64, f64), String> {
    let mut sys = HaloSystem::new(task, halo.clone()).map_err(|e| e.to_string())?;
    let name = format!("core.{}.bare", short_name(task));
    let whole = spans.open("core", &name);
    for chunk in rec.samples().chunks(batch * rec.channels()) {
        sys.push_block(chunk).map_err(|e| e.to_string())?;
    }
    let (metrics, finalize_s) = spans.time(
        "core",
        &format!("core.{}.finalize", short_name(task)),
        || sys.finalize(),
    );
    let metrics = metrics.map_err(|e| e.to_string())?;
    std::hint::black_box(sys.power_report(&metrics));
    Ok((metrics, spans.close(whole), finalize_s))
}

/// The same session built with the fleet's observers and stepped to
/// completion. Returns its metrics and the seconds spent stepping.
fn armed(
    spans: &mut Spans,
    spec: &SessionSpec,
    cfg: &FleetConfig,
    svm: &LinearSvm,
) -> Result<(Option<TaskMetrics>, f64), String> {
    let mut session =
        FleetSession::build(spec.clone(), cfg, Some(svm)).map_err(|e| e.to_string())?;
    let (_, s) = spans.time(
        "fleet",
        &format!("fleet.{}.armed", short_name(spec.task)),
        || {
            while !session.step(cfg.batch_frames) {}
        },
    );
    Ok((session.into_report().metrics, s))
}

#[derive(Default)]
struct Traced {
    train_s: Vec<f64>,
    build_s: Vec<f64>,
    run_s: Vec<f64>,
    rollup_s: Vec<f64>,
    generate_s: Vec<f64>,
    closed_loop_finalize_s: Vec<f64>,
    /// Per task, in `Task::all()` order: (armed, bare) seconds.
    ab: Vec<(Vec<f64>, Vec<f64>)>,
    stim_events: usize,
}

/// Untraced, adds the end-to-end metrics; traced, the fleet layers'
/// metrics and `trace.overhead.fleet_armed`.
pub fn run(opts: &RunOpts, spans: &mut Spans, report: &mut Report) -> Result<(), String> {
    let input = digests::pool_index(opts.seed);
    let cfg = config(digests::input_seed(input), 1);
    let expected = digests::fleet(input);
    let mut t = Traced {
        ab: Task::all()
            .iter()
            .map(|_| (Vec::new(), Vec::new()))
            .collect(),
        ..Traced::default()
    };

    let mut measured = Samples::default();
    let mut nominal = Samples::default();
    // Timed-phase seconds of the [untraced, traced] passes.
    let mut wall = [Vec::new(), Vec::new()];
    // Read after a fixed number of passes, so the figure does not depend
    // on how many passes fit into `--seconds`.
    let mut peak_rss = 0.0;
    let mut host = HostSpeed::new();
    let mut timed_total = 0.0;
    let mut passes = 0;
    while passes < MIN_PASSES || timed_total < opts.seconds {
        // As in `stream_96ch`: untraced and traced passes alternate, and
        // the cold first pass is left out of the tracing overhead.
        let traced = opts.trace && passes % 2 == 1;
        spans.set_on(traced);
        let whole = spans.open("harness", "fleet_armed.pass");
        // The host-speed probe runs before and after the set-up and after
        // the timed phase; each is scaled by the host speed around it.
        let before = host.probe();
        let setup = spans.open("harness", "fleet_armed.setup");
        let (sessions, svm, train_s, build_s) = build(spans, &cfg)?;
        let setup_s = spans.close(setup);
        let between = host.probe();
        let registry = FleetRegistry::new(cfg.shards);
        let steps = spans.open("harness", "fleet_armed.step_all");
        let q = step_all(spans, sessions, &cfg, &registry);
        let run_s = spans.close(steps);
        let (mut rollup, roll_s) = roll_up(spans, registry);
        let setup_factor = HostSpeed::factor(before, between);
        let run_factor = HostSpeed::factor(between, host.probe());
        timed_total += run_s + roll_s;
        if passes > 0 {
            wall[traced as usize].push(run_s + roll_s);
        }
        nominal.setup_s.push(setup_s * setup_factor);
        nominal.rollup_s.push(roll_s * run_factor);
        nominal
            .quanta
            .push(q.iter().map(|s| s * run_factor).collect());
        measured.setup_s.push(setup_s);
        measured.rollup_s.push(roll_s);
        measured.quanta.push(q);

        // Checks, outside the timed phase.
        if opts.corrupt && passes == 0 {
            rollup.exposition.replace_range(0..1, "!");
        }
        for (id, done) in rollup.completed.iter().enumerate() {
            report.check(
                *done,
                &format!("fleet_armed session {id} pass {passes} did not complete"),
            );
        }
        let digest_ok = expected.as_deref() == Some(&rollup_digests(&rollup)[..]);
        report.check(
            digest_ok,
            &format!("fleet_armed pass {passes}: exposition/profile digest mismatch"),
        );

        if opts.trace {
            t.train_s.push(train_s);
            t.build_s.push(build_s);
            t.run_s.push(run_s);
            t.rollup_s.push(roll_s);
            t.stim_events = rollup.stim_events;
            if passes < ABLATION_PASSES {
                ablate(spans, &cfg, &svm, &rollup, &mut t, report)?;
            }
        }
        spans.close(whole);
        passes += 1;
        if passes == MIN_PASSES {
            peak_rss = peak_rss_mb();
        }
    }

    let session_seconds = (SESSIONS * FRAMES) as f64 / f64::from(cfg.sample_rate_hz);
    if !opts.trace {
        let mut at_measured = Report::default();
        end_to_end(&mut at_measured, &measured, session_seconds)?;
        report.notes.push(format!(
            "host probe median {:.3} ms (nominal {:.3} ms); at measured host speed:",
            median(&host.probes) * 1e3,
            NOMINAL_PROBE_S * 1e3
        ));
        report
            .notes
            .extend(at_measured.metrics.iter().map(|m| m.row()));
        end_to_end(report, &nominal, session_seconds)?;
        report.metric("peak_rss_mb", peak_rss, "MB", MIN_PASSES);
        return Ok(());
    }

    let n = passes;
    report.metric("core.svm_train_ms", median(&t.train_s) * 1e3, "ms", n);
    report.metric("fleet.build_s", median(&t.build_s), "s", n);
    report.metric("fleet.run_s", median(&t.run_s), "s", n);
    report.metric("fleet.rollup_ms", median(&t.rollup_s) * 1e3, "ms", n);
    scaling(spans, &cfg, expected.as_deref(), report)?;
    for (task, (a, b)) in Task::all().into_iter().zip(&t.ab) {
        let name = format!("telemetry.armed_overhead.{}", short_name(task));
        report.metric(name, median(a) / median(b) - 1.0, "ratio", a.len());
    }
    report.metric(
        "signal.fleet_generate_s",
        median(&t.generate_s),
        "s",
        t.generate_s.len(),
    );
    report.metric("riscv.stim_events", t.stim_events as f64, "count", 1);
    report.metric(
        "core.closed_loop.finalize_ms",
        median(&t.closed_loop_finalize_s) * 1e3,
        "ms",
        t.closed_loop_finalize_s.len(),
    );
    report.metric(
        "host.fleet_probe_ms",
        median(&host.probes) * 1e3,
        "ms",
        host.probes.len(),
    );
    report.metric(
        "trace.overhead.fleet_armed",
        median(&wall[1]) / median(&wall[0]) - 1.0,
        "ratio",
        n,
    );
    Ok(())
}

/// Per-pass times of the untraced run.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    rollup_s: Vec<f64>,
    /// Per pass, in call order.
    quanta: Vec<Vec<f64>>,
}

/// `rtf`, `chunk_p50_us`, `chunk_p99_us`, `wall_s` and `setup_s`.
fn end_to_end(report: &mut Report, s: &Samples, session_seconds: f64) -> Result<(), String> {
    // Quantum k of every pass is the same call on the same input.
    let per_quantum = per_call_medians(&s.quanta)?;
    let run_s: f64 = per_quantum.iter().sum();
    let passes = s.quanta.len();
    report.metric("rtf", session_seconds / run_s, "x", passes);
    report.chunk_percentiles(&per_quantum);
    report.metric("wall_s", run_s + median(&s.rollup_s), "s", passes);
    report.metric("setup_s", median(&s.setup_s), "s", passes);
    Ok(())
}

/// `scheduler::run_sessions` on freshly built sessions, with one worker
/// and with one per core: its own time, batches and steals, and how well
/// it scales. Both runs must reproduce the recorded rollup.
fn scaling(
    spans: &mut Spans,
    cfg: &FleetConfig,
    expected: Option<&[u64]>,
    report: &mut Report,
) -> Result<(), String> {
    let workers = resolve_threads(0);
    let mut run_s = Vec::new();
    for threads in [1, workers] {
        let wide = config(cfg.seed, threads);
        let (sessions, ..) = build(spans, &wide)?;
        let registry = FleetRegistry::new(wide.shards);
        let (stats, s) = spans.time("fleet", "fleet.run_sessions", || {
            run_sessions(sessions, &wide, &registry)
        });
        let (rollup, _) = roll_up(spans, registry);
        report.check(
            expected == Some(&rollup_digests(&rollup)[..]),
            &format!("fleet_armed run_sessions with {threads} workers: rollup digest mismatch"),
        );
        if threads == 1 {
            report.metric("fleet.batches", stats.batches as f64, "count", 1);
        } else {
            report.metric("fleet.steals", stats.steals as f64, "count", 1);
        }
        run_s.push(s);
    }
    report.metric("fleet.run_sessions_s", run_s[0], "s", 1);
    report.metric("fleet.scaling_workers", workers as f64, "count", 1);
    report.metric(
        "fleet.scaling_efficiency",
        run_s[0] / (workers as f64 * run_s[1]),
        "ratio",
        1,
    );
    Ok(())
}

/// Observer-cost ablation: the first session of each pipeline, armed as
/// the fleet arms it and bare, alternating which runs first. The bare
/// run's modelled outputs must equal the fleet's.
fn ablate(
    spans: &mut Spans,
    cfg: &FleetConfig,
    svm: &LinearSvm,
    rollup: &Rollup,
    t: &mut Traced,
    report: &mut Report,
) -> Result<(), String> {
    let specs = SessionSpec::mixed(SESSIONS, cfg);
    let open = spans.open("signal", "signal.generate");
    let inputs: Vec<(HaloConfig, Recording)> =
        specs.iter().map(|s| session_input(s, svm)).collect();
    t.generate_s.push(spans.close(open));

    for rep in 0..ABLATION_REPS {
        let mut closed_loop_finalize = 0.0;
        for (k, task) in Task::all().into_iter().enumerate() {
            let spec = &specs[k];
            debug_assert_eq!(spec.task, task);
            let (halo, rec) = &inputs[k];
            let run_bare = |spans: &mut Spans| bare(spans, task, halo, rec, cfg.batch_frames);
            let (bare_out, armed_out) = if rep % 2 == 0 {
                let b = run_bare(spans)?;
                (b, armed(spans, spec, cfg, svm)?)
            } else {
                let a = armed(spans, spec, cfg, svm)?;
                (run_bare(spans)?, a)
            };
            let (bare_metrics, bare_s, finalize_s) = bare_out;
            let (armed_metrics, armed_s) = armed_out;
            t.ab[k].0.push(armed_s);
            t.ab[k].1.push(bare_s);
            if task.uses_stimulation() {
                closed_loop_finalize += finalize_s;
            }
            let fleet_metrics = rollup.metrics[k].as_ref();
            let same = |m: Option<&TaskMetrics>| {
                m.is_some_and(|m| {
                    m.radio_stream == bare_metrics.radio_stream
                        && m.detections == bare_metrics.detections
                })
            };
            report.check(
                same(fleet_metrics) && same(armed_metrics.as_ref()),
                &format!(
                    "fleet_armed {}: bare and armed outputs differ",
                    short_name(task)
                ),
            );
        }
        t.closed_loop_finalize_s.push(closed_loop_finalize);
    }
    Ok(())
}
