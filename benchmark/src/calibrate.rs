//! Host-speed calibration.
//!
//! The boxes this benchmark runs on are shared virtual machines whose
//! effective CPU speed drifts by tens of percent over tens of seconds
//! (measured on the reference box: within five minutes the median wall
//! time of ten consecutive `hot_loops` samples moved from 0.80 s to
//! 1.23 s, with nothing else running in the VM).  Raw wall-clock medians
//! of consecutive runs of one commit then differ by more than any useful
//! bound.  Most of that drift is common to everything the process
//! executes, so the harness times a fixed host kernel before and after
//! every sample and reports wall time *at reference host speed*:
//! `t × CALIBRATION_REF_S / mean(calibration before, calibration after)`.
//! On an undisturbed reference box the factor is 1 and the numbers are
//! plain wall-clock.  Result files keep the raw times and every
//! calibration time, so the un-normalised medians can be recomputed.
//!
//! The kernel has two halves because the disturbance has two faces: a
//! latency-bound half (one dependent multiply chain through a 256 KiB
//! table) tracks clock-speed changes, and a throughput-bound half (six
//! independent chains, a data-dependent branch) tracks contention for
//! issue slots — which is what slows an interpreter loop the most.
//! Measured over 200 interleaved `hot_loops` samples, dividing by either
//! half alone cut the spread of ten-sample medians from 11 % to 4–5 %, by
//! both to 3 %.

use std::hint::black_box;
use std::time::Instant;

/// What [`calibrate`] takes on the reference box (2-core shared VM, see
/// README) when nothing disturbs it.
pub const CALIBRATION_REF_S: f64 = 0.19;

const LATENCY_ITERATIONS: u64 = 60_000_000;
const THROUGHPUT_ITERATIONS: u64 = 45_000_000;

/// Runs the fixed host kernel and returns its wall time in seconds.
pub fn calibrate() -> f64 {
    let t = Instant::now();
    let mut table = vec![0u64; 1 << 15];

    // Latency-bound half.
    let (mut x, mut acc) = (1u64, 0u64);
    for i in 0..LATENCY_ITERATIONS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = (x >> 49) as usize;
        table[j] = table[j].wrapping_add(i);
        acc ^= table[(j + 7) & 0x7FFF];
    }

    // Throughput-bound half.
    let (mut a, mut b, mut c, mut d, mut e, mut f) = (1u64, 2u64, 3u64, 4u64, 5u64, 6u64);
    for i in 0..THROUGHPUT_ITERATIONS {
        a = a.wrapping_add(i) ^ (a >> 7);
        b = b.wrapping_add(a) ^ (b << 3);
        c = c.wrapping_sub(i) ^ (c >> 11);
        d = (d ^ c).wrapping_add(0x9E37);
        e = e.rotate_left(5).wrapping_add(i);
        f ^= e >> 3;
        let (j, k) = ((a as usize) & 0x7FFF, (c as usize) & 0x7FFF);
        table[j] = table[j].wrapping_add(b);
        acc = acc.wrapping_add(table[k]) ^ d ^ f;
        if (b ^ i) & 0x40 != 0 {
            acc = acc.rotate_left(1);
        }
    }
    black_box((acc, table));
    t.elapsed().as_secs_f64()
}

/// Factor that brings a time measured between calibrations `before_s` and
/// `after_s` to reference host speed.
pub fn to_reference(before_s: f64, after_s: f64) -> f64 {
    CALIBRATION_REF_S / ((before_s + after_s) / 2.0)
}
