//! Recorded digests of the modelled outputs, the correctness oracle.
//!
//! Inputs come from a pool of [`POOL`] seeds: `--seed n` selects pool
//! entry `n % POOL`, so every seed has a digest recorded for it. The
//! simulator is deterministic, so a digest only moves when a modelled
//! output (radio stream, detections, cycles, power, exposition, profile,
//! experiment output) changes, and such a change is a correctness failure.
//! `record-digests` regenerates `digests.tsv` from the code.

use std::process::ExitCode;

/// Input pool size.
pub const POOL: u64 = 64;

const TABLE: &str = include_str!("../digests.tsv");

pub fn pool_index(seed: u64) -> usize {
    (seed % POOL) as usize
}

/// The generator seed of pool entry `input` (SplitMix64 of its index).
pub fn input_seed(input: usize) -> u64 {
    let mut z = (input as u64)
        .wrapping_add(1)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The digests recorded under `kind` and `key`, if any.
fn lookup(kind: &str, key: &str) -> Option<Vec<u64>> {
    TABLE.lines().find_map(|line| {
        let mut f = line.split('\t');
        (f.next() == Some(kind) && f.next() == Some(key))
            .then(|| {
                f.map(|d| u64::from_str_radix(d, 16).ok())
                    .collect::<Option<Vec<u64>>>()
            })
            .flatten()
    })
}

/// Per-pipeline digests of `stream_96ch` for pool entry `input`.
pub fn stream(input: usize) -> Option<Vec<u64>> {
    lookup("stream_96ch", &input.to_string())
}

/// Exposition and profile digests of `fleet_armed` for pool entry `input`.
pub fn fleet(input: usize) -> Option<Vec<u64>> {
    lookup("fleet_armed", &input.to_string())
}

/// Standard-output digest of one paper experiment.
pub fn experiment(name: &str) -> Option<u64> {
    lookup("paper_repro", name).and_then(|d| d.first().copied())
}

fn line(kind: &str, key: &str, digests: &[u64]) {
    let hex: Vec<String> = digests.iter().map(|d| format!("{d:016x}")).collect();
    println!("{kind}\t{key}\t{}", hex.join("\t"));
}

/// Prints the digest table: the paper experiments, then every pool entry.
pub fn record() -> ExitCode {
    let result = (|| -> Result<(), String> {
        for (name, digest) in crate::paper::digests()? {
            line("paper_repro", name, &[digest]);
        }
        for input in 0..POOL as usize {
            line(
                "stream_96ch",
                &input.to_string(),
                &crate::stream::digests(input)?,
            );
            line(
                "fleet_armed",
                &input.to_string(),
                &crate::fleet::digests(input)?,
            );
        }
        Ok(())
    })();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("record-digests: {e}");
            ExitCode::FAILURE
        }
    }
}
