//! Host-speed probe: a fixed piece of work timed between passes, so the
//! end-to-end times can be given at one nominal host speed.
//!
//! The benchmark host is a virtual machine on a shared physical machine.
//! The speed its memory system gives one thread changes by up to 1.8×
//! from one second to the next, while a register-only loop stays within
//! 15%: the neighbours contend for caches and memory, not for the core.
//! Signal generation and streaming slow down together, and with them any
//! loop that misses the L2 cache. The probe is such a loop: data-dependent
//! loads and stores over a 4 MiB table, unpredictable branches and
//! integer multiplies. It is the benchmark's own code, so no change to
//! the simulator can move it.

use std::hint::black_box;
use std::time::Instant;

use crate::report::median;

/// 4 MiB of `u64`.
const TABLE_WORDS: usize = 1 << 19;
/// Operations per probe block; one block takes about 3.5 ms.
const BLOCK_OPS: usize = 1 << 19;
/// Blocks per probe; the probe is their median.
const BLOCKS: usize = 9;
/// The probe's time at nominal speed: about its median over runs on the
/// 2-vCPU host the benchmark was written on.
pub const NOMINAL_PROBE_S: f64 = 0.0035;

pub struct HostSpeed {
    table: Vec<u64>,
    state: u64,
    /// Every probe taken, in seconds.
    pub probes: Vec<f64>,
}

impl HostSpeed {
    pub fn new() -> Self {
        let mut host = HostSpeed {
            table: (0..TABLE_WORDS as u64).collect(),
            state: 0x2545_f491_4f6c_dd1d,
            probes: Vec::new(),
        };
        // Fault the table in before the first timed probe.
        host.block();
        host
    }

    fn block(&mut self) {
        let mut x = self.state;
        let mut acc = 0u64;
        for i in 0..BLOCK_OPS as u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x as usize) & (TABLE_WORDS - 1);
            acc = acc.wrapping_add(self.table[j]).rotate_left(5) ^ i;
            if acc & 3 == 0 {
                acc = acc.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            }
            self.table[j] = acc;
        }
        self.state = x;
        black_box(acc);
    }

    /// Times one probe: the median of `BLOCKS` blocks, in seconds.
    pub fn probe(&mut self) -> f64 {
        let blocks: Vec<f64> = (0..BLOCKS)
            .map(|_| {
                let start = Instant::now();
                self.block();
                start.elapsed().as_secs_f64()
            })
            .collect();
        let s = median(&blocks);
        self.probes.push(s);
        s
    }

    /// The factor that scales a time measured between probes `before` and
    /// `after` to nominal host speed.
    pub fn factor(before: f64, after: f64) -> f64 {
        NOMINAL_PROBE_S / ((before + after) / 2.0)
    }
}
