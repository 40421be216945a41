//! Host-speed probe: a fixed CPU and memory workload timed next to every
//! repetition, so host times can be corrected for how fast the host ran.
//!
//! On a shared 2-core container the host's speed drifts by ±15 % over
//! minutes (CPU time drifts with wall time, so it is not descheduling).
//! Repetitions within one run cannot average that out; timing a fixed
//! workload beside each repetition can. The probe runs only code of this
//! package, so a change to the simulator moves the corrected times fully.

use std::time::Instant;

use crate::stats::median;

/// Words in the probe's working set (8 MiB, larger than a core's L2).
const WORDS: usize = 1 << 20;

/// Dependent random reads per probe.
const STEPS: u64 = 1 << 21;

/// The probe's time on the 2-core container the benchmark was tuned on;
/// corrected times are in that host's seconds.
pub const REFERENCE_PROBE_SECS: f64 = 0.05;

/// Seconds one probe takes: the median of three timed chains of dependent
/// random reads over a working set larger than L2, mixed with integer
/// hashing, like the simulator's pointer-heavy code.
pub fn probe_secs() -> f64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let words: Vec<u64> = (0..WORDS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    let mask = (WORDS - 1) as u64;
    let chain = || {
        let start = Instant::now();
        let (mut i, mut acc) = (0u64, 0u64);
        for _ in 0..STEPS {
            let w = words[i as usize];
            acc = acc.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ w;
            i = (w ^ acc) & mask;
        }
        std::hint::black_box(acc);
        start.elapsed().as_secs_f64()
    };
    median(&[chain(), chain(), chain()])
}

/// How fast the host ran relative to the reference host, given the probe
/// times taken just before and just after a measurement.
pub fn host_speed(before_s: f64, after_s: f64) -> f64 {
    REFERENCE_PROBE_SECS / ((before_s + after_s) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_takes_measurable_time() {
        let s = probe_secs();
        assert!(s > 0.0 && s < 10.0, "{s}");
    }

    #[test]
    fn speed_is_relative_to_the_reference() {
        assert_eq!(host_speed(REFERENCE_PROBE_SECS, REFERENCE_PROBE_SECS), 1.0);
        assert_eq!(host_speed(0.1, 0.12), REFERENCE_PROBE_SECS / 0.11);
    }
}
