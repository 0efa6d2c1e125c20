//! Addition, subtraction, multiplication, division and fused multiply-add.

use crate::round::{norm_round_pack, shift_right_jam};
use crate::{finite, is_inf, is_nan, is_zero, sign, signed, DEFAULT_NAN, INF, SIGN};
use std::cmp::Ordering;

/// Rounds the sum of two exact terms `(-1)^sign * mant * 2^exp` once.
///
/// The term with the larger exponent is shifted left as far as `u128`
/// allows, keeping two bits free for the carry, and the other right,
/// jamming what falls off into a sticky bit far below the rounding point.
/// A zero term from [`finite`] has exponent -1074, at most 52 above any
/// other finite's, so it never forces a jam.  An exact cancellation is +0,
/// as round-to-nearest requires.
fn add_terms(a: (bool, u128, i32), b: (bool, u128, i32)) -> u64 {
    let ((hi_s, mut hi_m, mut hi_e), (lo_s, mut lo_m, lo_e)) =
        if a.2 >= b.2 { (a, b) } else { (b, a) };
    let mut diff = (hi_e - lo_e) as u32;
    let headroom = hi_m.leading_zeros().saturating_sub(2);
    if diff > headroom {
        lo_m = shift_right_jam(lo_m, diff - headroom);
        diff = headroom;
    }
    hi_m <<= diff;
    hi_e -= diff as i32;
    if hi_s == lo_s {
        return norm_round_pack(hi_s, hi_e, hi_m + lo_m, false);
    }
    match hi_m.cmp(&lo_m) {
        Ordering::Greater => norm_round_pack(hi_s, hi_e, hi_m - lo_m, false),
        Ordering::Less => norm_round_pack(lo_s, hi_e, lo_m - hi_m, false),
        Ordering::Equal => 0,
    }
}

/// Adds two binary64 values.
pub fn f64_add(a: u64, b: u64) -> u64 {
    if is_nan(a) || is_nan(b) {
        return DEFAULT_NAN;
    }
    match (is_inf(a), is_inf(b)) {
        // Infinities of opposite signs.
        (true, true) if a != b => return DEFAULT_NAN,
        (true, _) => return a,
        (_, true) => return b,
        _ => {}
    }
    let (x, y) = (finite(a), finite(b));
    add_terms(
        (x.sign, x.mant as u128, x.exp),
        (y.sign, y.mant as u128, y.exp),
    )
}

/// Subtracts `b` from `a` (binary64).
pub fn f64_sub(a: u64, b: u64) -> u64 {
    f64_add(a, b ^ SIGN)
}

/// Multiplies two binary64 values.
pub fn f64_mul(a: u64, b: u64) -> u64 {
    if is_nan(a) || is_nan(b) {
        return DEFAULT_NAN;
    }
    let negative = sign(a) != sign(b);
    if is_inf(a) || is_inf(b) {
        return if is_zero(a) || is_zero(b) {
            DEFAULT_NAN
        } else {
            signed(negative, INF)
        };
    }
    let (x, y) = (finite(a), finite(b));
    norm_round_pack(
        negative,
        x.exp + y.exp,
        x.mant as u128 * y.mant as u128,
        false,
    )
}

/// Divides `a` by `b` (binary64).
pub fn f64_div(a: u64, b: u64) -> u64 {
    if is_nan(a) || is_nan(b) {
        return DEFAULT_NAN;
    }
    let negative = sign(a) != sign(b);
    match (is_inf(a), is_inf(b)) {
        (true, true) => return DEFAULT_NAN,
        (true, false) => return signed(negative, INF),
        (false, true) => return signed(negative, 0),
        _ => {}
    }
    if is_zero(b) {
        return if is_zero(a) {
            DEFAULT_NAN
        } else {
            signed(negative, INF)
        };
    }
    let (x, y) = (finite(a), finite(b));
    let num = (x.mant as u128) << 62;
    let den = y.mant as u128;
    norm_round_pack(
        negative,
        x.exp - y.exp - 62,
        num / den,
        !num.is_multiple_of(den),
    )
}

/// Fused multiply-add: `a * b + c` with a single rounding (binary64).
pub fn f64_fma(a: u64, b: u64, c: u64) -> u64 {
    if is_nan(a) || is_nan(b) || is_nan(c) {
        return DEFAULT_NAN;
    }
    let prod_sign = sign(a) != sign(b);
    if is_inf(a) || is_inf(b) {
        // inf * 0, or an infinite product plus the opposite infinity.
        return if is_zero(a) || is_zero(b) || (is_inf(c) && sign(c) != prod_sign) {
            DEFAULT_NAN
        } else {
            signed(prod_sign, INF)
        };
    }
    if is_inf(c) {
        return c;
    }
    // A zero product or addend is not a term `add_terms` may align: its
    // exponent can lie far above the other's.
    if is_zero(a) || is_zero(b) {
        // The exact product is a signed zero.
        return f64_add(signed(prod_sign, 0), c);
    }
    if is_zero(c) {
        return f64_mul(a, b);
    }
    let (x, y, z) = (finite(a), finite(b), finite(c));
    let prod = x.mant as u128 * y.mant as u128;
    add_terms(
        (prod_sign, prod, x.exp + y.exp),
        (z.sign, z.mant as u128, z.exp),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check64(op: impl Fn(u64, u64) -> u64, native: impl Fn(f64, f64) -> f64, a: f64, b: f64) {
        let got = op(a.to_bits(), b.to_bits());
        let want = native(a, b);
        if want.is_nan() {
            assert_eq!(got, DEFAULT_NAN, "{a} ? {b}");
        } else {
            assert_eq!(
                got,
                want.to_bits(),
                "{a} ? {b}: got {} want {}",
                f64::from_bits(got),
                want
            );
        }
    }

    #[test]
    fn add_matches_native_on_representative_values() {
        let vals = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            1.5,
            2.5,
            1e300,
            -1e300,
            1e-300,
            std::f64::consts::PI,
            f64::MIN_POSITIVE,
            f64::MAX,
            1e16,
            1.0000000000000002,
        ];
        for &a in &vals {
            for &b in &vals {
                check64(f64_add, |x, y| x + y, a, b);
                check64(f64_sub, |x, y| x - y, a, b);
                check64(f64_mul, |x, y| x * y, a, b);
                check64(f64_div, |x, y| x / y, a, b);
            }
        }
    }

    #[test]
    fn special_values() {
        let inf = f64::INFINITY.to_bits();
        let ninf = f64::NEG_INFINITY.to_bits();
        let zero = 0f64.to_bits();
        assert_eq!(f64_add(inf, ninf), DEFAULT_NAN);
        assert_eq!(f64_sub(inf, inf), DEFAULT_NAN);
        assert_eq!(f64_mul(inf, zero), DEFAULT_NAN);
        assert_eq!(f64_div(zero, zero), DEFAULT_NAN);
        assert_eq!(f64_div(inf, ninf), DEFAULT_NAN);
        assert_eq!(f64_div(1f64.to_bits(), zero), inf);
        assert_eq!(f64_div((-1f64).to_bits(), zero), ninf);
        // x - x is +0 under round-to-nearest, whatever the sign of x.
        assert_eq!(f64_sub((-1f64).to_bits(), (-1f64).to_bits()), zero);
        // A NaN operand of either sign or payload gives the default NaN.
        let payload = SIGN | 0x7FF8_0000_0000_1234;
        assert_eq!(f64_add(payload, 1f64.to_bits()), DEFAULT_NAN);
        assert_eq!(f64_fma(1f64.to_bits(), payload, zero), DEFAULT_NAN);
    }

    #[test]
    fn sqrt_matches_native() {
        for v in [
            0.25f64, 0.5, 1.0, 2.0, 4.0, 144.0, 1e100, 1e-100, 0.707, 3.0,
        ] {
            let got = crate::f64_sqrt_arm(v.to_bits());
            assert_eq!(got, v.sqrt().to_bits(), "sqrt({v})");
        }
    }

    #[test]
    fn fma_single_rounding() {
        let eps = f64::powi(2.0, -27);
        let cases: [(f64, f64, f64); 6] = [
            (1.0, 1.0, 1.0),
            (1.5, 2.5, -3.75),
            (1e16, 1e16, -1e32),
            (3.0, 1.0 / 3.0, -1.0),
            (1.0000000000000002, 1.0000000000000002, 0.0),
            // The product 1 - 2^-54 rounds to 1.0 on its own, so
            // multiply-then-add gives 0; fused, it is -2^-54.
            (1.0 + eps, 1.0 - eps, -1.0),
        ];
        for (a, b, c) in cases {
            let got = f64_fma(a.to_bits(), b.to_bits(), c.to_bits());
            let want = f64::mul_add(a, b, c);
            assert_eq!(
                got,
                want.to_bits(),
                "fma({a},{b},{c}) got {} want {}",
                f64::from_bits(got),
                want
            );
        }
    }

    #[test]
    fn subnormal_results() {
        let tiny = f64::MIN_POSITIVE; // smallest normal
        let got = f64_div(tiny.to_bits(), 4f64.to_bits());
        assert_eq!(got, (tiny / 4.0).to_bits());
        let got = f64_mul(tiny.to_bits(), 0.5f64.to_bits());
        assert_eq!(got, (tiny * 0.5).to_bits());
    }

    #[test]
    fn every_op_matches_the_host_on_seeded_edge_patterns() {
        // The host's SSE arithmetic and libm's `fma` round to nearest-even
        // and keep subnormals, so they are an independent reference for
        // every non-NaN result; every NaN result must be the default NaN.
        let host = |r: f64| {
            if r.is_nan() {
                DEFAULT_NAN
            } else {
                r.to_bits()
            }
        };
        for [a, b, c] in crate::tests::edge_triples(0x5EED, 100_000) {
            let (x, y, z) = (f64::from_bits(a), f64::from_bits(b), f64::from_bits(c));
            let cases = [
                ("add", f64_add(a, b), host(x + y)),
                ("sub", f64_sub(a, b), host(x - y)),
                ("mul", f64_mul(a, b), host(x * y)),
                ("div", f64_div(a, b), host(x / y)),
                ("fma", f64_fma(a, b, c), host(x.mul_add(y, z))),
                ("sqrt", crate::f64_sqrt_arm(a), host(x.sqrt())),
            ];
            for (op, got, want) in cases {
                assert_eq!(got, want, "{op} {a:#018x} {b:#018x} {c:#018x}");
            }
        }
    }
}
