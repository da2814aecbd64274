//! Host-speed calibration.
//!
//! The hosts this benchmark runs on are shared: the same trial list can
//! take 25 % longer from one minute to the next while the process is never
//! descheduled (user time tracks wall time), so the slowdown is in the
//! core itself — a busy sibling hyperthread, memory bandwidth, clock
//! frequency. A fixed benchmark-owned workload, run between trials, sees
//! the same slowdown. Host times are reported scaled by
//! `NOMINAL_S / median(calibration times of the run)`: seconds on a host
//! whose calibration slice takes `NOMINAL_S`. The calibration code is not
//! part of the simulator, so a change to the simulator cannot move it.

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Calibration slice time of the reference host (Intel Xeon, 2 vCPU).
pub const NOMINAL_S: f64 = 0.002;

/// Table entries (512 KiB): beyond the first-level caches, small enough
/// not to move the resident-set metric.
const TABLE: usize = 1 << 16;

/// One calibration slice: random reads and writes over a table, a heap
/// of timestamped entries and floating-point math — the simulator's mix
/// of event-queue, table and channel work, without any of its code.
/// Returns the host seconds it took.
pub fn slice(table: &mut Vec<u64>) -> f64 {
    if table.len() != TABLE {
        *table = (0..TABLE as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
    }
    let t0 = Instant::now();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut acc = 0u64;
    for _ in 0..100_000 {
        let i = (next() as usize) & (TABLE - 1);
        acc = acc.wrapping_add(table[i]);
        table[i] = acc ^ (i as u64);
    }
    let mut heap = BinaryHeap::with_capacity(4096);
    for _ in 0..20_000 {
        heap.push(std::cmp::Reverse(next() >> 40));
        if heap.len() > 200 {
            acc = acc.wrapping_add(heap.pop().map_or(0, |r| r.0));
        }
    }
    let mut f = 0.0f64;
    for k in 0..50_000 {
        let d = (next() >> 11) as f64 / (1u64 << 53) as f64 * 250.0 + 1.0;
        f += (-(d / 15.0)).exp() * (d * d + k as f64).sqrt().ln();
    }
    black_box((acc, f));
    t0.elapsed().as_secs_f64()
}

/// Calibration slices taken during one run.
#[derive(Default)]
pub struct Calibration {
    table: Vec<u64>,
    pub samples: Vec<f64>,
}

impl Calibration {
    pub fn take(&mut self) {
        let s = slice(&mut self.table);
        self.samples.push(s);
    }
}
