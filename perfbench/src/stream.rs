//! `stream_96ch`: one bare implant at the paper's design point.
//!
//! A seeded 96-channel, 30 kHz arm recording streams through six
//! pipelines in 10 ms chunks (300 frames per `push_block`), one call at a
//! time. Each pass regenerates the recording and rebuilds every system
//! (the set-up sample), streams, then checks every output outside the
//! timed phase.

use halo_bench::data::{interleaved_bytes, interleaved_samples};
use halo_core::{HaloConfig, HaloSystem, PowerReport, Task, TaskMetrics};
use halo_kernels::{Aes128, Dwt, DwtmaCodec, Lz4Codec, LzmaCodec, Neo};
use halo_signal::{Recording, RecordingConfig, RegionProfile};

use crate::digests;
use crate::host::{HostSpeed, NOMINAL_PROBE_S};
use crate::report::{geomean, median, peak_rss_mb, per_call_medians, Fnv, Report};
use crate::spans::Spans;
use crate::RunOpts;

/// The six open-loop pipelines and their metric names.
pub const PIPELINES: [(Task, &str); 6] = [
    (Task::CompressLzma, "lzma"),
    (Task::CompressLz4, "lz4"),
    (Task::CompressDwtma, "dwtma"),
    (Task::SpikeDetectNeo, "neo"),
    (Task::SpikeDetectDwt, "dwt"),
    (Task::EncryptRaw, "aes"),
];
/// Signal per pass: 170 chunks per pipeline, 1020 per pass, so the chunk
/// p99 has at least ten chunks beyond it.
const SIGNAL_MS: usize = 1700;
const CHUNK_FRAMES: usize = 300;
/// Every pass streams the same chunks; each chunk's time is its median
/// over at least `MIN_PASSES` (5) passes of an untraced run.
const MIN_PASSES: usize = 5;

struct Pass {
    rec: Recording,
    setup_s: f64,
    /// Scales the set-up time to nominal host speed.
    setup_factor: f64,
    generate_s: f64,
    system_new_s: f64,
    streamed: Vec<Streamed>,
    /// Every chunk's time, in stream order, as measured and at nominal
    /// host speed.
    chunk_s: Vec<f64>,
    chunk_nominal_s: Vec<f64>,
}

struct Streamed {
    metrics: TaskMetrics,
    power: PowerReport,
    push_s: f64,
    finalize_s: f64,
    /// Scales this pipeline's times to nominal host speed.
    factor: f64,
}

fn recording(seed: u64) -> Recording {
    RecordingConfig::new(RegionProfile::arm())
        .channels(HaloConfig::new().channels)
        .duration_ms(SIGNAL_MS)
        .generate(seed)
}

/// Set-up, then the timed phase: every pipeline over the whole recording.
/// The host-speed probe runs before and after the set-up and after every
/// pipeline, so each pipeline is scaled by the host speed around it.
fn pass(spans: &mut Spans, host: &mut HostSpeed, seed: u64) -> Result<Pass, String> {
    let mut probe = host.probe();
    let setup = spans.open("harness", "setup");
    let (rec, generate_s) = spans.time("signal", "signal.generate", || recording(seed));
    let mut systems = Vec::new();
    let mut system_new_s = 0.0;
    for (task, name) in PIPELINES {
        let (sys, s) = spans.time("core", &format!("core.{name}.system_new"), || {
            HaloSystem::new(task, HaloConfig::new())
        });
        systems.push(sys.map_err(|e| format!("{name}: {e}"))?);
        system_new_s += s;
    }
    let setup_s = spans.close(setup);
    let next = host.probe();
    let setup_factor = HostSpeed::factor(probe, next);
    probe = next;

    let channels = rec.channels();
    let mut out = Vec::new();
    let mut chunk_s = Vec::new();
    let mut chunk_nominal_s = Vec::new();
    for ((_, name), mut sys) in PIPELINES.into_iter().zip(systems) {
        let first = chunk_s.len();
        let push_name = format!("core.{name}.push_block");
        let mut push_s = 0.0;
        for chunk in rec.samples().chunks(CHUNK_FRAMES * channels) {
            let (r, s) = spans.time("runtime", &push_name, || sys.push_block(chunk));
            r.map_err(|e| format!("{name}: push_block: {e}"))?;
            chunk_s.push(s);
            push_s += s;
        }
        let (metrics, finalize_s) =
            spans.time("core", &format!("core.{name}.finalize"), || sys.finalize());
        let metrics = metrics.map_err(|e| format!("{name}: finalize: {e}"))?;
        let power = sys.power_report(&metrics);
        let next = host.probe();
        let factor = HostSpeed::factor(probe, next);
        probe = next;
        chunk_nominal_s.extend(chunk_s[first..].iter().map(|s| s * factor));
        out.push(Streamed {
            metrics,
            power,
            push_s,
            finalize_s,
            factor,
        });
    }
    Ok(Pass {
        rec,
        setup_s,
        setup_factor,
        generate_s,
        system_new_s,
        streamed: out,
        chunk_s,
        chunk_nominal_s,
    })
}

/// Digest of every modelled output of one pipeline run: radio stream,
/// detections, bus bytes, per-PE busy and stall cycles, controller
/// cycles and the power report.
fn digest(s: &Streamed) -> u64 {
    let m = &s.metrics;
    let mut h = Fnv::new()
        .bytes(m.task.label().as_bytes())
        .u64(m.frames)
        .bytes(&m.radio_stream);
    for &(frame, flag) in &m.detections {
        h = h.u64(frame).bytes(&[flag as u8]);
    }
    h = h.u64(m.bus_bytes).u64(m.controller_cycles);
    for a in &m.pe_activity {
        h = h.u64(a.busy_cycles).u64(a.stall_cycles);
    }
    h.bytes(format!("{:?}", s.power).as_bytes()).finish()
}

/// The modelled-output digests of one pass over pool input `input`.
pub fn digests(input: usize) -> Result<Vec<u64>, String> {
    let mut spans = Spans::new(false, 0);
    let p = pass(
        &mut spans,
        &mut HostSpeed::new(),
        digests::input_seed(input),
    )?;
    Ok(p.streamed.iter().map(digest).collect())
}

/// What the pipelines were fed, in the layouts each kernel takes.
struct Inputs {
    /// Depth-128 interleaved bytes (the compressors' input).
    bytes: Vec<u8>,
    /// The same, as samples (DWTMA and the spike DWT).
    samples: Vec<i16>,
    /// Raw frame-major bytes (the AES input).
    raw: Vec<u8>,
    /// One sample vector per channel (the NEO input), for the kernel-only
    /// ablation of the traced run.
    channels: Vec<Vec<i16>>,
}

impl Inputs {
    fn new(rec: &Recording, trace: bool) -> Self {
        let depth = HaloConfig::new().interleave_depth;
        Inputs {
            bytes: interleaved_bytes(rec, depth),
            samples: interleaved_samples(rec, depth),
            raw: rec.to_bytes_le(),
            channels: if trace {
                (0..rec.channels()).map(|c| rec.channel(c)).collect()
            } else {
                Vec::new()
            },
        }
    }
}

// The codecs as the design-point pipelines configure them.
fn lzma(c: &HaloConfig) -> LzmaCodec {
    LzmaCodec::new(c.lz_history)
        .expect("design-point history is valid")
        .with_block_size(c.block_bytes)
        .with_counter_bits(c.counter_bits)
}

fn lz4(c: &HaloConfig) -> Lz4Codec {
    Lz4Codec::new(c.lz_history)
        .expect("design-point history is valid")
        .with_block_size(c.block_bytes)
}

fn dwtma(c: &HaloConfig) -> DwtmaCodec {
    DwtmaCodec::new(c.dwt_levels_compress)
        .expect("design-point levels are valid")
        .with_block_samples(c.block_bytes / 2)
        .with_counter_bits(c.counter_bits)
}

/// Decodes a compression pipeline's radio stream (or decrypts AES) and
/// compares it with what the pipeline was fed. `None` for detectors,
/// whose outputs only the digest covers.
fn round_trip(name: &str, radio: &[u8], inputs: &Inputs) -> Option<bool> {
    let c = HaloConfig::new();
    Some(match name {
        "lzma" => lzma(&c).decompress(radio).is_ok_and(|d| d == inputs.bytes),
        "lz4" => lz4(&c).decompress(radio).is_ok_and(|d| d == inputs.bytes),
        "dwtma" => dwtma(&c)
            .decompress(radio)
            .is_ok_and(|d| d == inputs.samples),
        "aes" => {
            let plain = Aes128::new(c.aes_key).decrypt_ecb(radio);
            plain.get(..inputs.raw.len()) == Some(&inputs.raw[..])
        }
        _ => return None,
    })
}

/// The monolithic kernel of pipeline `name` over the bytes the pipeline
/// sees; returns its output for the compressors and AES.
fn kernel_only(name: &str, inputs: &Inputs) -> Option<Vec<u8>> {
    let c = HaloConfig::new();
    match name {
        "lzma" => Some(lzma(&c).compress(&inputs.bytes)),
        "lz4" => Some(lz4(&c).compress(&inputs.bytes)),
        "dwtma" => Some(dwtma(&c).compress(&inputs.samples)),
        // The AES PE encrypts block by block with the scalar cipher.
        "aes" => {
            let aes = Aes128::new(c.aes_key);
            let mut out = Vec::with_capacity(inputs.raw.len().div_ceil(16) * 16);
            for chunk in inputs.raw.chunks(16) {
                let mut block = [0u8; 16];
                block[..chunk.len()].copy_from_slice(chunk);
                aes.encrypt_block(&mut block);
                out.extend_from_slice(&block);
            }
            Some(out)
        }
        "neo" => {
            for channel in &inputs.channels {
                std::hint::black_box(Neo::process_block(channel));
            }
            None
        }
        "dwt" => {
            let dwt = Dwt::new(c.dwt_levels_spike).expect("design-point levels are valid");
            let granule = dwt.block_multiple();
            for run in inputs.samples.chunks(c.interleave_depth) {
                let whole = run.len() / granule * granule;
                std::hint::black_box(dwt.forward_i16(&run[..whole]));
            }
            None
        }
        _ => unreachable!("unknown pipeline {name}"),
    }
}

#[derive(Default)]
struct PerPipeline {
    finalize_s: Vec<f64>,
    finalize_nominal_s: Vec<f64>,
    codec_s: Vec<f64>,
    decode_s: Vec<f64>,
}

/// The traced run needs a warm-up pass, then one traced and one untraced.
const MIN_PASSES_TRACED: usize = 3;

/// Untraced, adds the end-to-end metrics; traced, the stream layers'
/// metrics and `trace.overhead.stream_96ch`.
pub fn run(opts: &RunOpts, spans: &mut Spans, report: &mut Report) -> Result<(), String> {
    let input = digests::pool_index(opts.seed);
    let seed = digests::input_seed(input);
    let expected = digests::stream(input);
    let min_passes = if opts.trace {
        MIN_PASSES_TRACED
    } else {
        MIN_PASSES
    };

    let mut setup_s = Vec::new();
    let mut setup_nominal_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut system_new_s = Vec::new();
    // Timed-phase seconds of the [untraced, traced] passes.
    let mut wall = [Vec::new(), Vec::new()];
    // Per pass, in stream order: as measured and at nominal host speed.
    let mut chunks: Vec<Vec<f64>> = Vec::new();
    let mut chunks_nominal: Vec<Vec<f64>> = Vec::new();
    let mut per: Vec<PerPipeline> = PIPELINES.iter().map(|_| PerPipeline::default()).collect();
    let signal_s = SIGNAL_MS as f64 / 1000.0;
    // Read after a fixed number of passes, so the figure does not depend
    // on how many passes fit into `--seconds`.
    let mut peak_rss = 0.0;
    let mut host = HostSpeed::new();
    let mut timed_total = 0.0;
    let mut passes = 0;
    while passes < min_passes || timed_total < opts.seconds {
        // The traced run alternates untraced and traced passes; the gap
        // between their wall times, leaving out the cold first pass, is
        // the tracing overhead.
        let traced = opts.trace && passes % 2 == 1;
        spans.set_on(traced);
        let whole = spans.open("harness", "stream_96ch.pass");
        let mut p = pass(spans, &mut host, seed)?;
        let pass_wall: f64 = p.streamed.iter().map(|s| s.push_s + s.finalize_s).sum();
        timed_total += pass_wall;
        if passes > 0 {
            wall[traced as usize].push(pass_wall);
        }
        setup_s.push(p.setup_s);
        setup_nominal_s.push(p.setup_s * p.setup_factor);
        generate_s.push(p.generate_s);
        system_new_s.push(p.system_new_s);
        chunks.push(std::mem::take(&mut p.chunk_s));
        chunks_nominal.push(std::mem::take(&mut p.chunk_nominal_s));

        // Checks and ablations, outside the timed phase.
        if opts.corrupt && passes == 0 {
            p.streamed[0].metrics.radio_stream[0] ^= 0x01;
        }
        let inputs = Inputs::new(&p.rec, opts.trace);
        for (i, ((_, name), s)) in PIPELINES.iter().zip(&p.streamed).enumerate() {
            let radio = &s.metrics.radio_stream;
            let (decoded, decode_s) =
                spans.time("kernels", &format!("kernels.{name}.decode"), || {
                    round_trip(name, radio, &inputs)
                });
            let digest_ok = expected.as_ref().is_some_and(|e| e[i] == digest(s));
            report.check(
                decoded != Some(false) && digest_ok,
                &format!("stream_96ch {name} pass {passes}: round trip {decoded:?}, digest match {digest_ok}"),
            );
            let q = &mut per[i];
            q.finalize_s.push(s.finalize_s);
            q.finalize_nominal_s.push(s.finalize_s * s.factor);
            q.decode_s.push(decode_s);
            if opts.trace {
                let (kernel_out, codec_s) =
                    spans.time("kernels", &format!("kernels.{name}.codec"), || {
                        kernel_only(name, &inputs)
                    });
                q.codec_s.push(codec_s);
                // The pipeline must stay bit-identical to its monolithic kernel.
                if let Some(k) = kernel_out {
                    report.check(
                        k == *radio,
                        &format!("stream_96ch {name} pass {passes}: pipeline output differs from the kernel's"),
                    );
                }
            }
        }
        spans.close(whole);
        passes += 1;
        if passes == MIN_PASSES {
            peak_rss = peak_rss_mb();
        }
    }

    if !opts.trace {
        let finalize: Vec<Vec<f64>> = per.iter().map(|q| q.finalize_s.clone()).collect();
        let mut measured = Report::default();
        end_to_end(&mut measured, &chunks, &finalize, &setup_s, passes)?;
        report.notes.push(format!(
            "host probe median {:.3} ms (nominal {:.3} ms); at measured host speed:",
            median(&host.probes) * 1e3,
            NOMINAL_PROBE_S * 1e3
        ));
        report
            .notes
            .extend(measured.metrics.iter().map(|m| m.row()));
        let finalize: Vec<Vec<f64>> = per.iter().map(|q| q.finalize_nominal_s.clone()).collect();
        end_to_end(report, &chunks_nominal, &finalize, &setup_nominal_s, passes)?;
        report.metric("peak_rss_mb", peak_rss, "MB", MIN_PASSES);
        return Ok(());
    }

    // Chunk k of every pass is the same call on the same input.
    let per_chunk = per_call_medians(&chunks)?;
    let per_pipeline = per_chunk.len() / PIPELINES.len();
    let push_s: Vec<f64> = per_chunk
        .chunks(per_pipeline)
        .map(|c| c.iter().sum())
        .collect();
    let host_s: Vec<f64> = push_s
        .iter()
        .zip(&per)
        .map(|(p, q)| p + median(&q.finalize_s))
        .collect();
    let n = passes;
    report.metric("signal.stream_generate_s", median(&generate_s), "s", n);
    report.metric("core.system_new_ms", median(&system_new_s) * 1e3, "ms", n);
    let c = HaloConfig::new();
    let input_mb = signal_s * c.channels as f64 * f64::from(c.sample_rate_hz) * 2.0 / 1e6;
    for (((_, name), q), (&push, host)) in
        PIPELINES.iter().zip(&per).zip(push_s.iter().zip(&host_s))
    {
        let codec = median(&q.codec_s);
        report.metric(format!("core.{name}.push_block_s"), push, "s", n);
        report.metric(
            format!("core.{name}.finalize_ms"),
            median(&q.finalize_s) * 1e3,
            "ms",
            n,
        );
        report.metric(format!("core.{name}.rtf"), signal_s / host, "x", n);
        report.metric(format!("kernels.{name}.codec_s"), codec, "s", n);
        report.metric(
            format!("runtime.{name}.outside_kernel_share"),
            1.0 - codec / push,
            "ratio",
            n,
        );
        if matches!(*name, "lzma" | "lz4" | "dwtma") {
            report.metric(
                format!("kernels.{name}.encode_mb_s"),
                input_mb / codec,
                "MB/s",
                n,
            );
            report.metric(
                format!("kernels.{name}.decode_mb_s"),
                input_mb / median(&q.decode_s),
                "MB/s",
                n,
            );
        }
    }
    report.metric(
        "host.stream_probe_ms",
        median(&host.probes) * 1e3,
        "ms",
        host.probes.len(),
    );
    report.metric(
        "trace.overhead.stream_96ch",
        median(&wall[1]) / median(&wall[0]) - 1.0,
        "ratio",
        n,
    );
    Ok(())
}

/// `rtf`, `chunk_p50_us`, `chunk_p99_us`, `wall_s` and `setup_s`.
/// `chunks[p]` are the chunk times of pass `p` in stream order,
/// `finalize[i][p]` pipeline `i`'s `finalize` time in pass `p`.
fn end_to_end(
    report: &mut Report,
    chunks: &[Vec<f64>],
    finalize: &[Vec<f64>],
    setup_s: &[f64],
    passes: usize,
) -> Result<(), String> {
    // Chunk k of every pass is the same call on the same input.
    let per_chunk = per_call_medians(chunks)?;
    let per_pipeline = per_chunk.len() / PIPELINES.len();
    let host_s: Vec<f64> = per_chunk
        .chunks(per_pipeline)
        .zip(finalize)
        .map(|(c, f)| c.iter().sum::<f64>() + median(f))
        .collect();
    let signal_s = SIGNAL_MS as f64 / 1000.0;
    let rtf: Vec<f64> = host_s.iter().map(|h| signal_s / h).collect();
    report.metric("rtf", geomean(&rtf), "x", passes * rtf.len());
    report.chunk_percentiles(&per_chunk);
    report.metric("wall_s", host_s.iter().sum(), "s", passes);
    report.metric("setup_s", median(setup_s), "s", setup_s.len());
    Ok(())
}
