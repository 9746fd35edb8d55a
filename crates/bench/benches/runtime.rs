//! End-to-end streaming-runtime throughput: frames/s per pipeline family.
//!
//! This is the repo's throughput baseline for the hot path exercised by
//! every Figure 4–9 experiment: `HaloSystem::process` replaying a
//! synthetic ADC stream through a PE graph. Each result is the median of
//! repeated full-stream replays, reported as ADC frames per second and
//! as a multiple of the 30 kHz real-time rate the hardware must sustain.
//!
//! Run with `--json <path>` to also write the machine-readable
//! `BENCH_runtime.json` consumed by `docs/performance.md` and the CI
//! bench smoke step.

use std::sync::Arc;
use std::time::{Duration, Instant};

use halo_core::runtime::{FaultAction, ScheduledFault};
use halo_core::{HaloConfig, HaloSystem, Task};
use halo_signal::{Recording, RecordingConfig, RegionProfile};
use halo_telemetry::{
    json, AlertPolicy, ContinuousConfig, ContinuousTelemetry, CycleProfile, HealthConfig,
    HealthMonitor, NullSink, ProfileDiff, Recorder, Tracer,
};

/// Frames/s measured at the pre-optimization baseline commit (route
/// table, bulk FIFO drains, dense link matrix, and thin-LTO release
/// profile all absent). Medians of six runs interleaved with the
/// optimized binary on the same machine, so both sides saw the same
/// load; regenerate by grafting this bench onto the parent of the
/// hot-path commit and alternating the two binaries. Keyed by task
/// label.
const BASELINE_FRAMES_PER_S: &[(&str, f64)] = &[
    ("SpikeDet(NEO)", 660_000.0),
    ("SpikeDet(DWT)", 1_044_000.0),
    ("Compr(LZ4)", 535_000.0),
    ("Compr(LZMA)", 218_000.0),
    ("Compr(DWTMA)", 480_000.0),
    ("MoveIntent", 7_114_000.0),
    ("SeizurePred", 2_201_000.0),
    ("Encrypt(Raw)", 1_710_000.0),
];

struct PipelineResult {
    task: Task,
    frames: u64,
    median_s: f64,
    frames_per_s: f64,
    /// Relative interquartile spread of the replicate times — the run's
    /// own noise estimate, recorded beside its median.
    spread: f64,
}

fn median_run(task: Task, channels: usize, rec: &Recording) -> PipelineResult {
    let config = HaloConfig::small_test(channels);
    // One warm-up replay, then size the sample count for ~300 ms.
    let mut sys = HaloSystem::new(task, config.clone()).unwrap();
    let t0 = Instant::now();
    let metrics = sys.process(std::hint::black_box(rec)).unwrap();
    let once = t0.elapsed().max(Duration::from_nanos(1));
    let frames = metrics.frames;

    let samples = (Duration::from_millis(300).as_nanos() / once.as_nanos()).clamp(3, 200) as usize;
    let mut times: Vec<Duration> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut sys = HaloSystem::new(task, config.clone()).unwrap();
        let t = Instant::now();
        std::hint::black_box(sys.process(std::hint::black_box(rec)).unwrap());
        times.push(t.elapsed());
    }
    times.sort_unstable();
    let median_s = times[times.len() / 2].as_secs_f64().max(1e-12);
    let spread = (times[times.len() * 3 / 4].as_secs_f64() - times[times.len() / 4].as_secs_f64())
        / median_s;
    PipelineResult {
        task,
        frames,
        median_s,
        frames_per_s: frames as f64 / median_s,
        spread,
    }
}

/// A named set-up of the device under test in an interleaved A/B.
type Variant<'a> = (&'static str, &'a dyn Fn(&mut HaloSystem));

/// Interleaved A/B over named device set-ups, one row per task. After
/// one warm-up replay per variant, every round replays each variant once
/// in turn (round-robin), so slow drift on the host hits every variant
/// equally; only `process` is timed. Prints one line per task and returns
/// the section as a JSON member `"<section>":[rows]`, each row holding
/// the median replay time `<variant>_s` of every variant, then
/// `<variant>_overhead` of each later variant against the first.
fn ab_section(
    section: &str,
    tasks: &[Task],
    rounds: usize,
    channels: usize,
    rec: &Recording,
    variants: &[Variant],
) -> String {
    let config = HaloConfig::small_test(channels);
    let replay = |task: Task, setup: &dyn Fn(&mut HaloSystem)| {
        let mut sys = HaloSystem::new(task, config.clone()).unwrap();
        setup(&mut sys);
        let t = Instant::now();
        std::hint::black_box(sys.process(std::hint::black_box(rec)).unwrap());
        t.elapsed()
    };
    let mut rows = Vec::new();
    for &task in tasks {
        let mut times: Vec<Vec<Duration>> = vec![Vec::with_capacity(rounds); variants.len()];
        for (_, setup) in variants {
            replay(task, *setup);
        }
        for _ in 0..rounds {
            for (i, (_, setup)) in variants.iter().enumerate() {
                times[i].push(replay(task, *setup));
            }
        }
        let medians: Vec<f64> = times
            .iter_mut()
            .map(|v| {
                v.sort_unstable();
                v[v.len() / 2].as_secs_f64().max(1e-12)
            })
            .collect();
        let mut line = format!("{section}/{:<16}", task.label());
        let mut row = format!("{{\"task\":\"{}\"", task.label());
        for ((name, _), median) in variants.iter().zip(&medians) {
            line.push_str(&format!("  {name} {:>8.3} ms", median * 1e3));
            row.push_str(&format!(",\"{name}_s\":{median:.6}"));
        }
        for ((name, _), median) in variants.iter().zip(&medians).skip(1) {
            let overhead = median / medians[0] - 1.0;
            line.push_str(&format!("  {name} {:>+5.1}%", overhead * 100.0));
            row.push_str(&format!(",\"{name}_overhead\":{overhead:.4}"));
        }
        row.push('}');
        println!("{line}");
        rows.push(row);
    }
    format!("\"{section}\":[{}]", rows.join(","))
}

/// The watchdog every health and continuous-telemetry variant runs.
fn record_monitor() -> Arc<HealthMonitor> {
    let recorder = Arc::new(Recorder::new(4096).with_sample_rate_hz(30_000));
    Arc::new(HealthMonitor::new(
        recorder,
        HealthConfig {
            policy: AlertPolicy::Record,
            ..HealthConfig::default()
        },
    ))
}

/// One profiled replay of `task`. The profile is deterministic — pure
/// cost-model cycle attribution, no wall clock — so a single replay is
/// exact and byte-stable across machines, which is what lets `--check`
/// diff it against the committed baseline.
fn deterministic_profile(task: Task, channels: usize, rec: &Recording) -> CycleProfile {
    let config = HaloConfig::small_test(channels);
    let mut sys = HaloSystem::new(task, config).unwrap();
    sys.process(rec).unwrap();
    sys.profile("bench")
}

/// Regression-sentinel mode. For each pipeline, replays a baseline and a
/// fresh side alternately — one of each per round, after a warm-up, the
/// first of each pair swapping every round — so both sides see the same
/// host at the same moment. (A baseline measured minutes earlier is not
/// comparable on a shared 2-core host: the gate failed 2 of 3 times on
/// unchanged code that way.) Both sides run this build, so on an unchanged
/// tree they differ only by noise; `slowdown` inflates the fresh times
/// only, which is how the must-fail probe proves the gate bites. A
/// pipeline fails when the median per-pair ratio fresh/baseline exceeds 1
/// by more than `max(threshold_floor, interquartile range of the
/// ratios)`. The committed baseline's frames/s are printed alongside for
/// reference; they do not decide. Returns the regressed pipelines.
///
/// `HALO_BENCH_SYNTHETIC_SLOWDOWN` (a fraction, e.g. `0.10`) is the
/// `slowdown` CI uses to prove the gate actually fails on a slowdown.
fn check_interleaved(
    baseline: &json::Value,
    threshold_floor: f64,
    slowdown: f64,
    channels: usize,
    rec: &Recording,
) -> Vec<String> {
    let pipelines = baseline
        .get("pipelines")
        .and_then(|v| v.as_array())
        .unwrap_or_else(|| panic!("baseline has no pipelines array"));
    if slowdown != 0.0 {
        println!(
            "check: applying synthetic slowdown of {:.1}% to the fresh side",
            slowdown * 100.0
        );
    }
    let config = HaloConfig::small_test(channels);
    let mut regressed = Vec::new();
    for task in Task::all() {
        let replay = || {
            let mut sys = HaloSystem::new(task, config.clone()).unwrap();
            let t = Instant::now();
            std::hint::black_box(sys.process(std::hint::black_box(rec)).unwrap());
            t.elapsed().as_secs_f64().max(1e-12)
        };
        replay();
        let once = replay();
        // ~0.6 s of pairs per pipeline, at least 15 of them.
        let pairs = ((0.3 / once) as usize).clamp(15, 201);
        let mut ratios = Vec::with_capacity(pairs);
        let mut fresh_times = Vec::with_capacity(pairs);
        for round in 0..pairs {
            let (base, fresh) = if round % 2 == 0 {
                let base = replay();
                (base, replay())
            } else {
                let fresh = replay();
                (replay(), fresh)
            };
            let fresh = fresh * (1.0 + slowdown);
            ratios.push(fresh / base);
            fresh_times.push(fresh);
        }
        ratios.sort_by(f64::total_cmp);
        fresh_times.sort_by(f64::total_cmp);
        let ratio = ratios[pairs / 2];
        let spread = ratios[pairs * 3 / 4] - ratios[pairs / 4];
        let threshold = threshold_floor.max(spread);
        let delta = ratio - 1.0;
        let verdict = if delta > threshold {
            regressed.push(task.label().to_string());
            "FAIL"
        } else {
            "ok"
        };
        let frames = rec.samples_per_channel() as f64;
        let fresh_fps = frames / fresh_times[pairs / 2];
        let committed = pipelines
            .iter()
            .find(|p| p.get("task").and_then(|t| t.as_str()) == Some(task.label()))
            .and_then(|p| p.get("frames_per_s"))
            .and_then(|v| v.as_f64())
            .map_or(String::new(), |base| {
                format!(
                    "  (committed {base:.0} frames/s, {:+.1}%)",
                    (fresh_fps / base - 1.0) * 100.0
                )
            });
        println!(
            "check/{:<16} fresh/baseline {:>+5.1}% over {pairs} pairs, threshold {:>4.1}%  {verdict}  {fresh_fps:>10.0} frames/s{committed}",
            task.label(),
            delta * 100.0,
            threshold * 100.0,
        );
    }
    regressed
}

/// Differential regression explanation: replay every stock pipeline,
/// diff the merged cycle profile against the
/// `profiles` section of the committed baseline, and write the verdict
/// (`verdict.json`) plus the fresh folded flamegraph
/// (`profile_fresh.folded`) under `target/bench_check/` for CI to
/// archive. Returns the top-k annotation lines so the sentinel can name
/// the regressed attribution frame in its failure message.
///
/// The profile is deterministic, so a synthetic slowdown would otherwise
/// be invisible to it; when `HALO_BENCH_SYNTHETIC_SLOWDOWN` is set the
/// fresh profile's dominant frame is scaled by the same factor, modeling
/// a slowdown concentrated in the hottest section — which is exactly
/// what the CI probe asserts the diff can name.
fn explain_check(
    baseline: &json::Value,
    regressed: &[String],
    channels: usize,
    rec: &Recording,
    slowdown: f64,
) -> Vec<String> {
    let base = baseline
        .get("profiles")
        .and_then(|v| v.as_array())
        .map(|entries| {
            let mut merged = CycleProfile::new("bench");
            for entry in entries {
                let profile = entry
                    .get("profile")
                    .and_then(CycleProfile::from_json)
                    .unwrap_or_else(|| panic!("baseline profiles entry is malformed"));
                merged.merge(&profile);
            }
            merged
        });

    let mut fresh = CycleProfile::new("bench");
    for task in Task::all() {
        fresh.merge(&deterministic_profile(task, channels, rec));
    }
    if slowdown != 0.0 {
        if let Some((frame, _)) = fresh.dominant_frame() {
            for row in &mut fresh.rows {
                if row.frame() == frame {
                    row.cycles = (row.cycles as f64 * (1.0 + slowdown)) as u64;
                }
            }
        }
    }

    let diff = match &base {
        Some(base) => ProfileDiff::between(base, &fresh, 0.02),
        None => {
            println!("check: baseline has no profiles section; skipping profile diff");
            ProfileDiff::default()
        }
    };
    let annotations = diff.annotate(5);
    for line in &annotations {
        println!("check/profile  {line}");
    }
    if base.is_some() && diff.is_empty() {
        println!("check/profile  no attribution frame moved past 2% cycles/frame");
    }

    let dir = halo_bench::workspace_path("target/bench_check");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
    let mut verdict = String::from("{");
    verdict.push_str(&format!(
        "\"synthetic_slowdown\":{slowdown},\"regressed\":[{}],",
        regressed
            .iter()
            .map(|t| json::string(t))
            .collect::<Vec<_>>()
            .join(",")
    ));
    verdict.push_str(&format!(
        "\"profile_diff\":{},\"annotations\":[{}]}}",
        diff.to_json(),
        annotations
            .iter()
            .map(|a| json::string(a))
            .collect::<Vec<_>>()
            .join(",")
    ));
    debug_assert!(json::validate(&verdict).is_ok());
    std::fs::write(dir.join("verdict.json"), verdict)
        .unwrap_or_else(|e| panic!("writing verdict.json: {e}"));
    std::fs::write(dir.join("profile_fresh.folded"), fresh.folded())
        .unwrap_or_else(|e| panic!("writing profile_fresh.folded: {e}"));
    println!("check: wrote {}", dir.join("verdict.json").display());
    annotations
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let check = args.iter().any(|a| a == "--check");
    let check_baseline = args
        .iter()
        .position(|a| a == "--check-baseline")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_runtime.json".to_string());
    let check_threshold: f64 = args
        .iter()
        .position(|a| a == "--check-threshold")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.05);

    let channels = 8;
    let rec = RecordingConfig::new(RegionProfile::arm())
        .channels(channels)
        .duration_ms(100)
        .generate(21);

    if check {
        let path = halo_bench::workspace_path(&check_baseline);
        let doc = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading baseline {}: {e}", path.display()));
        let baseline = json::parse(&doc)
            .unwrap_or_else(|e| panic!("parsing baseline {}: {e:?}", path.display()));
        let slowdown: f64 = std::env::var("HALO_BENCH_SYNTHETIC_SLOWDOWN")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0);
        let regressed = check_interleaved(&baseline, check_threshold, slowdown, channels, &rec);
        let annotations = explain_check(&baseline, &regressed, channels, &rec, slowdown);
        if !regressed.is_empty() {
            eprintln!(
                "check: {} pipeline(s) regressed past the noise-aware threshold: {}",
                regressed.len(),
                regressed.join(", ")
            );
            match annotations.first() {
                Some(top) => eprintln!("check: dominant attribution delta: {top}"),
                None => eprintln!("check: no attribution frame moved past 2% cycles/frame"),
            }
            std::process::exit(1);
        }
        println!("check: all pipelines within threshold of {check_baseline}");
        return;
    }

    let mut results = Vec::new();
    for task in Task::all() {
        let r = median_run(task, channels, &rec);
        let baseline = BASELINE_FRAMES_PER_S
            .iter()
            .find(|(label, _)| *label == r.task.label())
            .map(|&(_, f)| f);
        let speedup = baseline.map_or(String::new(), |b| format!("  {:>5.2}x", r.frames_per_s / b));
        println!(
            "runtime/{:<16} {:>10.0} frames/s  ({:>6.1}x real-time, {:>9.3} ms/replay){speedup}",
            r.task.label(),
            r.frames_per_s,
            r.frames_per_s / 30_000.0,
            r.median_s * 1e3,
        );
        results.push(r);
    }

    let no_setup = |_: &mut HaloSystem| {};
    let both = [Task::SeizurePrediction, Task::CompressLz4];
    let sections = [
        // Health-monitor overhead: the watchdog must be free when
        // telemetry is disabled (NullSink within noise of no sink at all)
        // and cheap when recording. Two representative tasks: the
        // flagship closed-loop pipeline and the heaviest throughput
        // pipeline.
        ab_section(
            "health_overhead",
            &both,
            41,
            channels,
            &rec,
            &[
                ("bare", &no_setup),
                ("null", &|sys| sys.attach_telemetry(Arc::new(NullSink))),
                ("health", &|sys| sys.attach_health(record_monitor())),
            ],
        ),
        // Continuous-telemetry overhead: keeping history (tsdb scrape +
        // SLO budgets + drift detection) on top of the watchdog must cost
        // ≤2% over the watchdog alone. More rounds than the other A/Bs:
        // the seizure replay is ~0.2 ms, so its median needs the extra
        // samples to settle inside that envelope.
        ab_section(
            "continuous_telemetry",
            &both,
            101,
            channels,
            &rec,
            &[
                ("health", &|sys| sys.attach_health(record_monitor())),
                ("continuous", &|sys| {
                    sys.attach_continuous(Arc::new(ContinuousTelemetry::new(
                        record_monitor(),
                        ContinuousConfig::default(),
                    )))
                }),
            ],
        ),
        // Causal-tracing overhead: an attached tracer with sampling off
        // must stay within the <2% envelope of no tracer at all; 1-in-64
        // production sampling should remain cheap.
        ab_section(
            "tracing_overhead",
            &both,
            41,
            channels,
            &rec,
            &[
                ("bare", &no_setup),
                ("off", &|sys| {
                    sys.attach_tracing(Arc::new(Tracer::new(7, 0)))
                }),
                ("sampled", &|sys| {
                    sys.attach_tracing(Arc::new(Tracer::new(7, 64)))
                }),
            ],
        ),
        // Fault-hook overhead: the injection hook must be free when no
        // schedule is attached (the shipped default) and within the ≤2%
        // envelope armed-but-idle — a schedule whose only fault sits past
        // the end of the stream, so every frame pays the cursor check but
        // nothing ever fires.
        ab_section(
            "fault_overhead",
            &both,
            41,
            channels,
            &rec,
            &[
                ("off", &no_setup),
                ("armed", &|sys| {
                    sys.runtime_mut().attach_faults(vec![ScheduledFault {
                        frame: u64::MAX,
                        action: FaultAction::FifoBitFlip { slot: 0, bit: 0 },
                    }])
                }),
            ],
        ),
        // Batched dispatch: quiet-chunk SoA dispatch vs the per-frame
        // scalar path on the two short feature pipelines it targets. The
        // outputs are byte-identical (the `kernel_batching` suite); this
        // measures only the speed difference.
        ab_section(
            "block_dispatch",
            &[Task::MovementIntent, Task::SeizurePrediction],
            41,
            channels,
            &rec,
            &[
                ("off", &|sys| sys.set_block_dispatch(false)),
                ("on", &|sys| sys.set_block_dispatch(true)),
            ],
        ),
    ];

    if let Some(path) = json_path {
        let mut json = String::from("{\"bench\":\"runtime\",\"channels\":8,\"pipelines\":[");
        for (i, r) in results.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            let baseline = BASELINE_FRAMES_PER_S
                .iter()
                .find(|(label, _)| *label == r.task.label())
                .map(|&(_, f)| f);
            json.push_str(&format!(
                "{{\"task\":\"{}\",\"frames\":{},\"median_s\":{:.6},\"frames_per_s\":{:.0},\"spread\":{:.4},\"baseline_frames_per_s\":{},\"speedup\":{}}}",
                r.task.label(),
                r.frames,
                r.median_s,
                r.frames_per_s,
                r.spread,
                baseline.map_or("null".to_string(), |b| format!("{b:.0}")),
                baseline.map_or("null".to_string(), |b| format!(
                    "{:.2}",
                    r.frames_per_s / b
                )),
            ));
        }
        json.push(']');
        for section in &sections {
            json.push(',');
            json.push_str(section);
        }
        // Deterministic per-pipeline cycle profiles: the committed
        // attribution baseline `--check` diffs fresh profiles against.
        let profiles: Vec<String> = Task::all()
            .into_iter()
            .map(|task| {
                format!(
                    "{{\"task\":\"{}\",\"profile\":{}}}",
                    task.label(),
                    deterministic_profile(task, channels, &rec).to_json(),
                )
            })
            .collect();
        json.push_str(&format!(",\"profiles\":[{}]}}", profiles.join(",")));
        let out = halo_bench::workspace_path(&path);
        std::fs::write(&out, json).unwrap_or_else(|e| panic!("writing {}: {e}", out.display()));
        println!("wrote {}", out.display());
    }
}
