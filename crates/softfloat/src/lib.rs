//! Software IEEE-754 binary64 arithmetic: the seven operations the engines
//! and the figures call.
//!
//! Guest floating point reaches these functions instead of host FP
//! instructions through one set of helper arms, `guest_aarch64::sys`'
//! `SOFT_FP`, `SOFT_SQRT` and `VEC_OP`, which the one soft-FP lowering
//! (`guest_aarch64::gen::generate_soft_fp`) calls on both engines: the
//! QEMU-style baseline (Section 2.5 of the paper) and Captive's software-FP
//! mode (the Section 3.6.2 ablation).  They compute what an AArch64 guest
//! sees with FPCR.DN = 1 and round-to-nearest-even, the configuration Linux
//! runs: every NaN result is the positive default NaN
//! `0x7FF8_0000_0000_0000`, whatever the signs and payloads of the NaN
//! operands.
//!
//! * [`f64_add`], [`f64_sub`], [`f64_mul`], [`f64_div`] and [`f64_fma`]
//!   (fused `a * b + c`, rounded once);
//! * [`f64_sqrt_arm`] and [`f64_sqrt_x86`], which differ only in the NaN they
//!   return (Table 2 of the paper): `figures -- table2` prints the two side
//!   by side, and Captive's inline `FSQRT` fix-up is tested against the Arm
//!   one.
//!
//! Every function is pure and uses integer arithmetic only, so a result
//! does not depend on the host FPU.  Each one decomposes its operands into
//! an integer significand and a power of two, computes exactly (or keeps a
//! sticky bit for what it discards), and rounds once: the structure of
//! Berkeley SoftFloat.  No exception flags are kept: no guest reads FPSR.

mod arch;
mod ops;
mod round;

pub use arch::{f64_sqrt_arm, f64_sqrt_x86};
pub use ops::{f64_add, f64_div, f64_fma, f64_mul, f64_sub};

/// The Arm default NaN: positive, quiet, no payload.
const DEFAULT_NAN: u64 = 0x7FF8_0000_0000_0000;
/// The sign bit.
const SIGN: u64 = 1 << 63;
/// Positive infinity; with [`SIGN`] cleared, every NaN compares above it.
const INF: u64 = 0x7FF0_0000_0000_0000;

fn is_nan(bits: u64) -> bool {
    bits & !SIGN > INF
}

fn is_inf(bits: u64) -> bool {
    bits & !SIGN == INF
}

fn is_zero(bits: u64) -> bool {
    bits & !SIGN == 0
}

fn sign(bits: u64) -> bool {
    bits & SIGN != 0
}

/// `magnitude` with the sign bit set when `negative`.
fn signed(negative: bool, magnitude: u64) -> u64 {
    (negative as u64) << 63 | magnitude
}

/// A finite value `(-1)^sign * mant * 2^exp` whose `mant` has its leading
/// bit at bit 52 (the hidden bit), or is zero.
#[derive(Debug, Clone, Copy)]
struct Finite {
    sign: bool,
    exp: i32,
    mant: u64,
}

/// Decomposes a finite binary64 value.  A subnormal is normalised, so a
/// quotient or a square root of it keeps all the bits it needs to round.
fn finite(bits: u64) -> Finite {
    let exp = ((bits >> 52) & 0x7FF) as i32;
    let frac = bits & ((1 << 52) - 1);
    let (exp, mant) = match (exp, frac) {
        (0, 0) => (-1074, 0),
        (0, _) => {
            let shift = frac.leading_zeros() - 11;
            (-1074 - shift as i32, frac << shift)
        }
        _ => (exp - 1023 - 52, frac | 1 << 52),
    };
    Finite {
        sign: sign(bits),
        exp,
        mant,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_covers_all_classes() {
        let snan = 0x7FF0_0000_0000_0001;
        let cases = [
            // (bits, zero, infinite, NaN)
            (0, true, false, false),
            (SIGN, true, false, false),
            (1, false, false, false),
            (1.0f64.to_bits(), false, false, false),
            (INF, false, true, false),
            (SIGN | INF, false, true, false),
            (DEFAULT_NAN, false, false, true),
            (SIGN | DEFAULT_NAN, false, false, true),
            (snan, false, false, true),
        ];
        for (bits, zero, inf, nan) in cases {
            assert_eq!(is_zero(bits), zero, "{bits:#x}");
            assert_eq!(is_inf(bits), inf, "{bits:#x}");
            assert_eq!(is_nan(bits), nan, "{bits:#x}");
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        // Decomposing a finite value and rounding the parts back is exact,
        // subnormals and signed zeros included.
        for bits in [
            0u64,
            SIGN,
            1,
            SIGN | 0x000F_FFFF_FFFF_FFFF,
            0x3FF0_0000_0000_0000,
            f64::MAX.to_bits(),
            (-f64::MIN_POSITIVE).to_bits(),
        ] {
            let x = finite(bits);
            let back = round::norm_round_pack(x.sign, x.exp, x.mant as u128, false);
            assert_eq!(back, bits, "{bits:#x}");
        }
    }

    /// `n` triples of binary64 bit patterns from `seed`, biased to the edges
    /// of the format: signed zeros, subnormals, the smallest and largest
    /// normal exponents, exponents near one (so sums tie and products carry),
    /// infinities and NaNs (quiet and signalling, any payload).
    pub(crate) fn edge_triples(seed: u64, n: usize) -> impl Iterator<Item = [u64; 3]> {
        let mut state = seed;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut pattern = move || {
            let r = next();
            let frac = next() & ((1 << 52) - 1);
            let exp = match r % 8 {
                0 => return r & SIGN,
                1 => return r & SIGN | frac.max(1),
                2 => 1,
                3 => 0x7FE,
                4 => return r & SIGN | INF,
                5 => return r & SIGN | INF | frac.max(1),
                6 => 0x3FC + (r >> 8) % 8,
                _ => 1 + (r >> 8) % 0x7FE,
            };
            r & SIGN | exp << 52 | frac
        };
        (0..n).map(move |_| [pattern(), pattern(), pattern()])
    }
}
