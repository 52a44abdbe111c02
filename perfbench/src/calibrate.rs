//! Host-speed calibration of the end-to-end times.
//!
//! The benchmark runs on a 2-vCPU VM of a shared host whose speed moves in
//! steps of up to 2× over tens of seconds to minutes, so the raw times of
//! identical runs spread by up to 70%. A fixed kernel, part of this package
//! and never of the program, is timed between ops throughout the run; each
//! end-to-end time is multiplied by `(REFERENCE_MS / median kernel time)`
//! raised to [`HOST_EXPONENT`], so it reads as if measured at the host speed
//! where the kernel takes [`REFERENCE_MS`]. A change to the program moves
//! the scaled times exactly as it moves the raw ones; the kernel only
//! tracks the host.

use crate::sys::quantile;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median kernel time, in ms, at the reference host speed: its median over
/// runs of every workload on an Intel Xeon 2-vCPU VM.
pub const REFERENCE_MS: f64 = 0.85;

/// How much more than the kernel the program's ops slow down when the host
/// does: across 92 runs of the four workloads, spanning kernel medians of
/// 0.58–1.09 ms, the log of every raw time metric followed the log of the
/// kernel median with slopes of 1.35–1.63 (the ops feel the host's slow
/// phases more than the small kernel does).
pub const HOST_EXPONENT: f64 = 1.4;

/// Op time between two kernel samples: about 1% of a run goes to the kernel.
const EVERY: Duration = Duration::from_millis(50);

/// Kernel samples before the first op.
const FIRST_SAMPLES: usize = 5;

/// Kernel times taken during one run.
pub struct HostSpeed {
    samples_ms: Vec<f64>,
    since: Duration,
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        let mut host = HostSpeed {
            samples_ms: Vec::new(),
            since: Duration::ZERO,
        };
        for _ in 0..FIRST_SAMPLES {
            host.sample();
        }
        host
    }

    /// Account for an op that took `op`; time the kernel once per
    /// [`EVERY`] of op time.
    pub fn after_op(&mut self, op: Duration) {
        self.since += op;
        if self.since >= EVERY {
            self.since = Duration::ZERO;
            self.sample();
        }
    }

    fn sample(&mut self) {
        let t = Instant::now();
        black_box(kernel(black_box(0x9E37_79B9_7F4A_7C15)));
        self.samples_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    /// Median kernel time of the run, in ms.
    pub fn median_ms(&self) -> f64 {
        quantile(&self.samples_ms, 0.5)
    }

    /// Factor that turns a time measured in this run into one at the
    /// reference host speed.
    pub fn scale(&self) -> f64 {
        (REFERENCE_MS / self.median_ms()).powf(HOST_EXPONENT)
    }
}

/// Two halves, each about half of the kernel's time, that bracket the
/// program's ops: register-only bit arithmetic (like the push kernel's
/// word sweeps), and small allocations, an ordered map and short sorts
/// (branchy, cache-resident, like the searches' bookkeeping).
fn kernel(seed: u64) -> u64 {
    let mut x = seed;
    let mut acc = 0u64;
    for _ in 0..150_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(u64::from(x.count_ones() + x.trailing_zeros()));
    }
    let mut map = BTreeMap::new();
    for i in 0..2_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let small: Vec<u64> = (0..x % 24).collect();
        acc = acc.wrapping_add(small.iter().sum::<u64>());
        map.insert(x % 4096, i);
        if x & 3 == 0 {
            if let Some(v) = map.get(&(acc % 4096)) {
                acc ^= v;
            }
        }
        let mut words = [x, x.rotate_left(17), x ^ acc, acc];
        words.sort_unstable();
        acc = acc.wrapping_add(words[1] >> 3);
    }
    acc ^ map.len() as u64
}
