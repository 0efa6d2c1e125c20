//! Normalisation, rounding and packing, round-to-nearest-even only.
//!
//! An exact intermediate is an integer significand, a power of two and a
//! sticky bit for anything already discarded.  [`norm_round_pack`] puts its
//! leading bit at bit 62 of a `u64`, which leaves ten rounding bits below
//! the 53-bit significand, and [`round_pack`] rounds that once: overflow to
//! infinity, gradual underflow to subnormals, ties to even.

use crate::{signed, INF};

/// Shifts `value` right by `amount`, ORing every bit shifted out into bit
/// 0 ("jamming"), so a later rounding still sees that something was lost.
pub(crate) fn shift_right_jam(value: u128, amount: u32) -> u128 {
    if amount == 0 {
        value
    } else if amount < 128 {
        let lost = value & ((1 << amount) - 1);
        (value >> amount) | (lost != 0) as u128
    } else {
        (value != 0) as u128
    }
}

/// Integer square root of a `u128`, returning `(root, exact)`.
pub(crate) fn isqrt_u128(value: u128) -> (u128, bool) {
    if value == 0 {
        return (0, true);
    }
    // Newton-Raphson seeded from a power-of-two over-estimate; converges in a
    // handful of iterations for 128-bit inputs.
    let mut x: u128 = 1u128 << ((128 - value.leading_zeros()).div_ceil(2));
    loop {
        let next = (x + value / x) >> 1;
        if next >= x {
            break;
        }
        x = next;
    }
    (x, x * x == value)
}

/// Rounds and packs a binary64 result.
///
/// `sig` has its most significant bit at bit 62 and any sticky information
/// already in bit 0; `biased_exp` is the IEEE biased exponent of that
/// leading bit.
fn round_pack(sign: bool, mut biased_exp: i32, mut sig: u64) -> u64 {
    const ROUND_MASK: u64 = 0x3FF;
    const ROUND_HALF: u64 = 0x200;

    // Overflow: the exponent is too large, or rounding would carry past the
    // largest representable significand at the largest exponent.
    if biased_exp >= 0x7FF || (biased_exp == 0x7FE && sig + ROUND_HALF >= 1 << 63) {
        return signed(sign, INF);
    }

    // Underflow: shift the significand into the subnormal range, keeping
    // sticky information, and round at the subnormal precision.
    if biased_exp <= 0 {
        sig = shift_right_jam(sig as u128, (1 - biased_exp) as u32) as u64;
        biased_exp = 0;
    }

    // Ties to even: an exact half rounds up, then loses its last bit.
    let tie = sig & ROUND_MASK == ROUND_HALF;
    sig = ((sig + ROUND_HALF) >> 10) & !(tie as u64);

    // Pack by addition so a significand carry-out bumps the exponent field.
    let exp_field = (biased_exp.max(1) - 1) as u64;
    signed(sign, (exp_field << 52) + sig)
}

/// Rounds `(-1)^sign * mant * 2^exp` to binary64, `sticky` standing for a
/// nonzero remainder below `mant`'s last bit.  A zero `mant` is a signed
/// zero.
pub(crate) fn norm_round_pack(sign: bool, exp: i32, mant: u128, sticky: bool) -> u64 {
    if mant == 0 {
        return signed(sign, 0);
    }
    let msb = 127 - mant.leading_zeros() as i32;
    let sig = if msb > 62 {
        shift_right_jam(mant, (msb - 62) as u32) as u64
    } else {
        (mant as u64) << (62 - msb)
    };
    // The leading bit sits at binary weight 2^(exp + msb).
    round_pack(sign, exp + msb + 1023, sig | sticky as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_right_jam_preserves_stickiness() {
        assert_eq!(shift_right_jam(0b1000, 3), 0b1);
        assert_eq!(shift_right_jam(0b1001, 3), 0b1, "lost bits jam into bit 0");
        assert_eq!(shift_right_jam(0b10100, 3), 0b11);
        assert_eq!(shift_right_jam(1, 64), 1);
        assert_eq!(shift_right_jam(0, 64), 0);
        assert_eq!(shift_right_jam(1, 128), 1);
        assert_eq!(shift_right_jam(0x10, 4), 1);
    }

    #[test]
    fn isqrt_exact_and_inexact() {
        assert_eq!(isqrt_u128(0), (0, true));
        assert_eq!(isqrt_u128(1), (1, true));
        assert_eq!(isqrt_u128(144), (12, true));
        assert_eq!(isqrt_u128(150), (12, false));
        let big = (1u128 << 100) + 12345;
        let (r, _) = isqrt_u128(big);
        assert!(r * r <= big && (r + 1) * (r + 1) > big);
    }

    #[test]
    fn norm_round_pack_simple_values() {
        // 1.0 = 1 * 2^0.
        assert_eq!(norm_round_pack(false, 0, 1, false), 1.0f64.to_bits());
        // 2.5 = 5 * 2^-1.
        assert_eq!(norm_round_pack(false, -1, 5, false), 2.5f64.to_bits());
        // -8 = 8 * 2^0 with sign.
        assert_eq!(norm_round_pack(true, 0, 8, false), (-8.0f64).to_bits());
    }

    #[test]
    fn rounding_inexact_flag() {
        // No flag is kept: an inexact result shows only as a value that
        // differs from the exact one, rounded to nearest even.
        // 2^53 + 1 is not representable: the tie goes to the even 2^53.
        let v = norm_round_pack(false, 0, (1 << 53) + 1, false);
        assert_eq!(v, ((1u64 << 53) as f64).to_bits());
        // 2^53 + 3 ties too, and goes up to the even 2^53 + 4.
        let v = norm_round_pack(false, 0, (1 << 53) + 3, false);
        assert_eq!(v, (((1u64 << 53) + 4) as f64).to_bits());
        // A sticky bit below the tie breaks it upwards.
        let v = norm_round_pack(false, 0, (1 << 53) + 1, true);
        assert_eq!(v, (((1u64 << 53) + 2) as f64).to_bits());
    }

    #[test]
    fn overflow_to_infinity_and_largest_finite() {
        assert_eq!(norm_round_pack(false, 2000, 1, false), INF);
        assert_eq!(norm_round_pack(true, 2000, 1, false), signed(true, INF));
        // f64::MAX is (2^53 - 1) * 2^971.  Half an ulp above it ties, and
        // the even neighbour is 2^1024: infinity.  Anything less than half
        // an ulp above it rounds back to the largest finite value.
        let max = (1u128 << 53) - 1;
        assert_eq!(norm_round_pack(false, 970, 2 * max + 1, false), INF);
        assert_eq!(
            norm_round_pack(false, 969, 4 * max + 1, false),
            f64::MAX.to_bits()
        );
        assert_eq!(norm_round_pack(false, 971, max, true), f64::MAX.to_bits());
    }

    #[test]
    fn underflow_to_subnormal() {
        // 2^-1074 is the smallest subnormal.
        assert_eq!(norm_round_pack(false, -1074, 1, false), 1);
        // 2^-1075 is exactly half of it: the tie goes to the even zero.
        assert_eq!(norm_round_pack(false, -1075, 1, false), 0);
        // 3 * 2^-1075 ties between 1 and 2 ulps: the even 2.
        assert_eq!(norm_round_pack(false, -1075, 3, false), 2);
        // Just above half an ulp rounds up.
        assert_eq!(norm_round_pack(false, -1075, 1, true), 1);
    }
}
