//! Cycle-profile integration: exact phase tiling, batched-dispatch
//! equivalence, reconfiguration epochs and pinned contents over real
//! end-to-end streams.

use halo::core::{HaloConfig, HaloSystem, Task};
use halo::signal::{Recording, RecordingConfig, RegionProfile};
use halo::telemetry::{json, CycleProfile, Phase, ProfileDiff};

const CHANNELS: usize = 8;

fn recording(ms: usize, seed: u64) -> Recording {
    RecordingConfig::new(RegionProfile::arm())
        .channels(CHANNELS)
        .duration_ms(ms)
        .generate(seed)
}

fn profiled_run(task: Task, rec: &Recording) -> (HaloSystem, CycleProfile) {
    let mut sys = HaloSystem::new(task, HaloConfig::small_test(CHANNELS)).unwrap();
    sys.process(rec).unwrap();
    let profile = sys.profile("dev");
    (sys, profile)
}

#[test]
fn phases_tile_busy_cycles_exactly() {
    // ingest + compute + drain + quiet-skip must equal the slot's busy
    // cycles with no residue — the attribution is a partition, not an
    // estimate.
    let rec = recording(60, 12);
    for task in Task::all() {
        let (sys, profile) = profiled_run(task, &rec);
        let busy: u64 = sys
            .runtime()
            .slot_totals()
            .iter()
            .map(|t| t.busy_cycles)
            .sum();
        assert_eq!(
            profile.total_cycles(),
            busy,
            "{}: phases do not tile busy cycles",
            task.label()
        );
        assert!(profile.total_energy_uj().is_finite());
        assert!(profile.total_energy_uj() >= 0.0);
    }
}

#[test]
fn batched_dispatch_shifts_phases_but_preserves_totals() {
    // Quiet chunks dispatched on the batched fast path are attributed to
    // quiet-skip in one charge; the scalar path attributes the same
    // frames to ingest/compute. Either way the totals must agree — the
    // two paths are bit-identical, so their attribution mass is too.
    let rec = recording(80, 13);
    for task in [Task::SeizurePrediction, Task::MovementIntent] {
        let run = |block_dispatch: bool| {
            let mut sys = HaloSystem::new(task, HaloConfig::small_test(CHANNELS)).unwrap();
            sys.set_block_dispatch(block_dispatch);
            sys.process(&rec).unwrap();
            sys.profile("dev")
        };
        let batched = run(true);
        let scalar = run(false);
        assert_eq!(batched.frames, scalar.frames);
        assert_eq!(
            batched.total_cycles(),
            scalar.total_cycles(),
            "{}: dispatch mode changed total attribution",
            task.label()
        );
        let quiet = |p: &CycleProfile| -> u64 {
            p.rows
                .iter()
                .filter(|r| r.phase == Phase::QuietSkip)
                .map(|r| r.cycles)
                .sum()
        };
        assert_eq!(
            quiet(&scalar),
            0,
            "scalar path must never charge quiet-skip"
        );
        assert!(
            quiet(&batched) > 0,
            "{}: batched path found no quiet chunks",
            task.label()
        );
    }
}

#[test]
fn identical_runs_diff_empty_and_profiles_are_deterministic() {
    let rec = recording(60, 14);
    let (_, a) = profiled_run(Task::CompressLzma, &rec);
    let (_, b) = profiled_run(Task::CompressLzma, &rec);
    assert_eq!(a.folded(), b.folded());
    assert_eq!(a.to_json(), b.to_json());
    json::parse(&a.to_json()).expect("profile JSON parses");
    assert!(ProfileDiff::between(&a, &b, 0.001).is_empty());
    // A run twice as long pays the same per-frame ingest cost: the
    // diff's normalization must cancel the length difference out of the
    // steady-state phases. (Drain is a fixed end-of-stream cost and the
    // adaptive compressor's compute is data-dependent, so those phases
    // may genuinely move — that is signal, not noise.)
    let (_, long) = profiled_run(Task::CompressLzma, &recording(120, 14));
    let diff = ProfileDiff::between(&a, &long, 0.05);
    let steady: Vec<&str> = diff
        .rows
        .iter()
        .map(|r| r.frame.as_str())
        .filter(|f| f.ends_with(";ingest") || f.ends_with(";quiet-skip"))
        .collect();
    assert!(
        steady.is_empty(),
        "run length leaked into steady-state per-frame deltas: {steady:?}"
    );
}

#[test]
fn reconfigure_banks_attribution_across_pipeline_epochs() {
    // Swapping tasks mid-session must not lose the retiring pipeline's
    // cycles: the profile accumulates one subtree per pipeline epoch.
    let rec = recording(50, 15);
    let mut sys = HaloSystem::new(Task::CompressLz4, HaloConfig::small_test(CHANNELS)).unwrap();
    sys.process(&rec).unwrap();
    let first_epoch = sys.profile("dev");
    sys.reconfigure(Task::SpikeDetectNeo).unwrap();
    sys.process(&rec).unwrap();
    let both = sys.profile("dev");

    let pipelines: Vec<&str> = {
        let mut p: Vec<&str> = both.rows.iter().map(|r| r.pipeline.as_str()).collect();
        p.sort();
        p.dedup();
        p
    };
    assert_eq!(pipelines, vec!["Compr(LZ4)", "SpikeDet(NEO)"]);
    assert_eq!(both.frames, 2 * first_epoch.frames);
    let lz4_cycles = |p: &CycleProfile| -> u64 {
        p.rows
            .iter()
            .filter(|r| r.pipeline == "Compr(LZ4)")
            .map(|r| r.cycles)
            .sum()
    };
    assert_eq!(
        lz4_cycles(&both),
        lz4_cycles(&first_epoch),
        "reconfigure lost the retiring epoch's attribution"
    );
    assert!(both.folded().starts_with("dev;"));
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn profile_contents_are_pinned() {
    // The exact folded stacks and JSON of every stock pipeline, pinned
    // as one digest: any change to the phase accounting, the energy
    // apportionment or the export format moves it.
    let rec = recording(60, 24);
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for task in Task::all() {
        let (_, profile) = profiled_run(task, &rec);
        digest = fnv1a(digest, profile.folded().as_bytes());
        digest = fnv1a(digest, profile.to_json().as_bytes());
    }
    assert_eq!(digest, 0xc15e_1750_09ed_12e5, "got {digest:#018x}");
}
