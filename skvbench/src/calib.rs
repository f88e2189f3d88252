//! Host-speed calibration for the host-time metrics.
//!
//! The host this benchmark runs on may be shared, and its speed for
//! memory-bound code drifts by tens of percent over seconds. Every timed
//! section is therefore bracketed by a fixed reference kernel (ordered
//! map churn and small allocations, the simulator's kind of work) owned
//! by this benchmark, so it never changes with the code under test. A
//! section's scaled time is its raw wall time times
//! `REFERENCE_S / mean(reference before, reference after)`: seconds on a
//! host where the kernel takes exactly `REFERENCE_S`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Nominal reference-kernel time: about what the kernel takes on the
/// 2-vCPU Xeon guest the benchmark was tuned on, when that host is quiet.
pub const REFERENCE_S: f64 = 0.03;

/// Run the reference kernel once; its wall time in seconds.
fn reference() -> f64 {
    let start = Instant::now();
    let mut map = BTreeMap::new();
    let mut bufs: Vec<Vec<u8>> = Vec::with_capacity(4096);
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..200_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % 1_000_000;
        if i % 3 == 0 {
            map.remove(&key);
        } else {
            map.insert(key, i);
        }
        if i % 4 == 0 {
            let len = 64 + usize::from(x.to_le_bytes()[1] & 63);
            let buf = vec![x.to_le_bytes()[0]; len];
            if bufs.len() < 4096 {
                bufs.push(buf);
            } else {
                let slot = usize::from(x.to_le_bytes()[2]) * 16;
                bufs[slot] = buf;
            }
        }
    }
    black_box((&map, &bufs));
    start.elapsed().as_secs_f64()
}

/// Raw and reference-scaled seconds of one section.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    pub raw: f64,
    pub scaled: f64,
}

/// Times sections back to back, each between two reference runs (the
/// run after one section is the run before the next).
pub struct Calibrated {
    last_reference: f64,
}

impl Calibrated {
    pub fn new() -> Calibrated {
        Calibrated {
            last_reference: reference(),
        }
    }

    /// Take a fresh reference before the next section, after untimed
    /// work that made the last one stale.
    pub fn refresh(&mut self) {
        self.last_reference = reference();
    }

    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timing) {
        let start = Instant::now();
        let out = f();
        let raw = start.elapsed().as_secs_f64();
        let after = reference();
        let mean = (self.last_reference + after) / 2.0;
        self.last_reference = after;
        (
            out,
            Timing {
                raw,
                scaled: raw * REFERENCE_S / mean,
            },
        )
    }
}
