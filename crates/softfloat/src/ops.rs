//! Arithmetic and comparison operations on binary32 / binary64 values.

use crate::arch::propagate_nan32;
use crate::arch::propagate_nan64;
use crate::round::{isqrt_u128, norm_round_pack_f32, norm_round_pack_f64, shift_right_jam_u128};
use crate::{
    classify32, classify64, is_nan32, is_nan64, is_snan32, is_snan64, pack32, pack64, unpack32,
    unpack64, FpClass, FpEnv, Rounding, F32_DEFAULT_NAN, F64_DEFAULT_NAN,
};

/// A finite value decomposed as `(-1)^sign * mant * 2^exp` with an integer
/// significand (`mant` includes the hidden bit for normal numbers).
#[derive(Debug, Clone, Copy)]
struct Decomp {
    sign: bool,
    exp: i32,
    mant: u64,
}

/// Decomposes a finite (possibly zero / subnormal) binary64 value.
fn decomp64(bits: u64) -> Decomp {
    let u = unpack64(bits);
    if u.exp == 0 {
        Decomp {
            sign: u.sign,
            exp: -1074,
            mant: u.frac,
        }
    } else {
        Decomp {
            sign: u.sign,
            exp: u.exp - 1023 - 52,
            mant: u.frac | (1u64 << 52),
        }
    }
}

/// Decomposes a finite (possibly zero / subnormal) binary32 value.
fn decomp32(bits: u32) -> Decomp {
    let u = unpack32(bits);
    if u.exp == 0 {
        Decomp {
            sign: u.sign,
            exp: -149,
            mant: u.frac as u64,
        }
    } else {
        Decomp {
            sign: u.sign,
            exp: u.exp - 127 - 23,
            mant: (u.frac | (1u32 << 23)) as u64,
        }
    }
}

/// Aligns two magnitudes to a common exponent, clamping extreme exponent
/// differences so only stickiness of the far-smaller operand survives.
///
/// Returns `(mant_a, mant_b, exp)` such that `a = mant_a * 2^exp` (possibly
/// with an infinitesimal perturbation when clamped) and likewise for `b`.
fn align(a: Decomp, b: Decomp) -> (u128, u128, i32) {
    // Keep 53-bit significands shifted by MAX_SHIFT comfortably inside u128
    // while staying far enough below the rounding point that only stickiness
    // of the smaller operand can matter.
    const MAX_SHIFT: i32 = 70;
    let (hi, lo) = if a.exp >= b.exp { (a, b) } else { (b, a) };
    let mut diff = hi.exp - lo.exp;
    let mut lo_mant = lo.mant as u128;
    if diff > MAX_SHIFT {
        // The low operand is far below the rounding point of any possible
        // result; collapse it to a sticky epsilon.
        diff = MAX_SHIFT;
        if lo_mant != 0 {
            lo_mant = 1;
        }
    }
    let hi_mant = (hi.mant as u128) << diff;
    let exp = hi.exp - diff;
    if a.exp >= b.exp {
        (hi_mant, lo_mant, exp)
    } else {
        (lo_mant, hi_mant, exp)
    }
}

// ---------------------------------------------------------------------------
// binary64
// ---------------------------------------------------------------------------

/// Adds two binary64 values.
pub fn f64_add(a: u64, b: u64, env: &mut FpEnv) -> u64 {
    f64_add_inner(a, b, false, env)
}

/// Subtracts `b` from `a` (binary64).
pub fn f64_sub(a: u64, b: u64, env: &mut FpEnv) -> u64 {
    f64_add_inner(a, b, true, env)
}

fn f64_add_inner(a: u64, b: u64, negate_b: bool, env: &mut FpEnv) -> u64 {
    let b = if negate_b { b ^ (1u64 << 63) } else { b };
    let ca = classify64(a);
    let cb = classify64(b);
    if is_nan64(a) || is_nan64(b) {
        return propagate_nan64(a, b, env);
    }
    match (ca, cb) {
        (FpClass::Infinite, FpClass::Infinite) => {
            if (a >> 63) != (b >> 63) {
                env.flags.invalid = true;
                return F64_DEFAULT_NAN;
            }
            return a;
        }
        (FpClass::Infinite, _) => return a,
        (_, FpClass::Infinite) => return b,
        _ => {}
    }
    let da = decomp64(a);
    let db = decomp64(b);
    let (ma, mb, exp) = align(da, db);
    if da.sign == db.sign {
        norm_round_pack_f64(da.sign, exp, ma + mb, false, env.rounding, &mut env.flags)
    } else {
        // Magnitude subtraction; the sign follows the larger magnitude.
        let (sign, mag) = if ma > mb {
            (da.sign, ma - mb)
        } else if mb > ma {
            (db.sign, mb - ma)
        } else {
            // Exact cancellation: +0 except in round-toward-negative mode.
            let zero_sign = matches!(env.rounding, Rounding::TowardNegative);
            return pack64(zero_sign, 0, 0);
        };
        norm_round_pack_f64(sign, exp, mag, false, env.rounding, &mut env.flags)
    }
}

/// Multiplies two binary64 values.
pub fn f64_mul(a: u64, b: u64, env: &mut FpEnv) -> u64 {
    let ca = classify64(a);
    let cb = classify64(b);
    if is_nan64(a) || is_nan64(b) {
        return propagate_nan64(a, b, env);
    }
    let sign = (a >> 63) ^ (b >> 63) != 0;
    match (ca, cb) {
        (FpClass::Infinite, FpClass::Zero) | (FpClass::Zero, FpClass::Infinite) => {
            env.flags.invalid = true;
            return F64_DEFAULT_NAN;
        }
        (FpClass::Infinite, _) | (_, FpClass::Infinite) => return pack64(sign, 0x7FF, 0),
        (FpClass::Zero, _) | (_, FpClass::Zero) => return pack64(sign, 0, 0),
        _ => {}
    }
    let da = decomp64(a);
    let db = decomp64(b);
    let product = (da.mant as u128) * (db.mant as u128);
    norm_round_pack_f64(
        sign,
        da.exp + db.exp,
        product,
        false,
        env.rounding,
        &mut env.flags,
    )
}

/// Divides `a` by `b` (binary64).
pub fn f64_div(a: u64, b: u64, env: &mut FpEnv) -> u64 {
    let ca = classify64(a);
    let cb = classify64(b);
    if is_nan64(a) || is_nan64(b) {
        return propagate_nan64(a, b, env);
    }
    let sign = (a >> 63) ^ (b >> 63) != 0;
    match (ca, cb) {
        (FpClass::Infinite, FpClass::Infinite) | (FpClass::Zero, FpClass::Zero) => {
            env.flags.invalid = true;
            return F64_DEFAULT_NAN;
        }
        (FpClass::Infinite, _) => return pack64(sign, 0x7FF, 0),
        (_, FpClass::Infinite) => return pack64(sign, 0, 0),
        (FpClass::Zero, _) => return pack64(sign, 0, 0),
        (_, FpClass::Zero) => {
            env.flags.div_by_zero = true;
            return pack64(sign, 0x7FF, 0);
        }
        _ => {}
    }
    let da = decomp64(a);
    let db = decomp64(b);
    let num = (da.mant as u128) << 62;
    let den = db.mant as u128;
    let quot = num / den;
    let rem = num % den;
    norm_round_pack_f64(
        sign,
        da.exp - db.exp - 62,
        quot,
        rem != 0,
        env.rounding,
        &mut env.flags,
    )
}

/// Square root of a binary64 value, following the generic IEEE-754 rules
/// (negative non-zero inputs are invalid and yield a NaN whose flavour is
/// decided by the environment's NaN policy; see `crate::arch`).
pub fn f64_sqrt(a: u64, env: &mut FpEnv) -> u64 {
    let ca = classify64(a);
    if is_nan64(a) {
        return propagate_nan64(a, a, env);
    }
    match ca {
        FpClass::Zero => return a,
        FpClass::Infinite => {
            if a >> 63 == 0 {
                return a;
            }
            env.flags.invalid = true;
            return crate::arch::invalid_sqrt_nan64(env);
        }
        _ => {}
    }
    if a >> 63 != 0 {
        env.flags.invalid = true;
        return crate::arch::invalid_sqrt_nan64(env);
    }
    let mut d = decomp64(a);
    // Make the exponent even so the square root has an integral power of two.
    if d.exp & 1 != 0 {
        d.mant <<= 1;
        d.exp -= 1;
    }
    // sqrt(mant * 2^exp) = isqrt(mant << 2t) * 2^(exp/2 - t).
    const T: i32 = 32;
    let scaled = (d.mant as u128) << (2 * T);
    let (root, exact) = isqrt_u128(scaled);
    norm_round_pack_f64(
        false,
        d.exp / 2 - T,
        root,
        !exact,
        env.rounding,
        &mut env.flags,
    )
}

/// Fused multiply-add: `a * b + c` with a single rounding (binary64).
pub fn f64_fma(a: u64, b: u64, c: u64, env: &mut FpEnv) -> u64 {
    let ca = classify64(a);
    let cb = classify64(b);
    let cc = classify64(c);
    if is_nan64(a) || is_nan64(b) || is_nan64(c) {
        // Propagate from the first NaN operand in (a, b, c) order.
        let first = if is_nan64(a) {
            a
        } else if is_nan64(b) {
            b
        } else {
            c
        };
        return propagate_nan64(first, first, env);
    }
    let prod_sign = (a >> 63) ^ (b >> 63) != 0;
    // Invalid: inf * 0, or (inf*finite) + opposite inf.
    if matches!(
        (ca, cb),
        (FpClass::Infinite, FpClass::Zero) | (FpClass::Zero, FpClass::Infinite)
    ) {
        env.flags.invalid = true;
        return F64_DEFAULT_NAN;
    }
    let prod_inf = matches!(ca, FpClass::Infinite) || matches!(cb, FpClass::Infinite);
    if prod_inf {
        if matches!(cc, FpClass::Infinite) && (c >> 63 != 0) != prod_sign {
            env.flags.invalid = true;
            return F64_DEFAULT_NAN;
        }
        return pack64(prod_sign, 0x7FF, 0);
    }
    if matches!(cc, FpClass::Infinite) {
        return c;
    }
    let da = decomp64(a);
    let db = decomp64(b);
    let dc = decomp64(c);
    let prod = (da.mant as u128) * (db.mant as u128);
    let prod_exp = da.exp + db.exp;
    if prod == 0 {
        // 0 + c; respect the sign rules for exact zero sums.
        if dc.mant == 0 {
            let sign = if prod_sign == dc.sign {
                prod_sign
            } else {
                matches!(env.rounding, Rounding::TowardNegative)
            };
            return pack64(sign, 0, 0);
        }
        return c;
    }
    if dc.mant == 0 {
        return norm_round_pack_f64(
            prod_sign,
            prod_exp,
            prod,
            false,
            env.rounding,
            &mut env.flags,
        );
    }
    // Align the addend with the 106-bit product.  The product has at most
    // 106 significant bits, so keeping ~116 bits of either operand and
    // jamming the rest preserves correct rounding.
    let (mut hi_m, mut hi_e, hi_s, mut lo_m, lo_e, lo_s) = if prod_exp >= dc.exp {
        (prod, prod_exp, prod_sign, dc.mant as u128, dc.exp, dc.sign)
    } else {
        (dc.mant as u128, dc.exp, dc.sign, prod, prod_exp, prod_sign)
    };
    let mut diff = (hi_e - lo_e) as u32;
    let headroom = hi_m.leading_zeros().saturating_sub(2);
    let mut sticky = false;
    if diff > headroom {
        let excess = diff - headroom;
        let jammed = shift_right_jam_u128(lo_m, excess);
        sticky = jammed & 1 != 0 && excess > 0 && (lo_m & ((1u128 << excess.min(127)) - 1)) != 0;
        lo_m = jammed & !1 | (jammed & 1);
        // After jamming the low operand has been shifted up by `excess`
        // relative to its own exponent; account for it by reducing diff.
        diff = headroom;
    }
    hi_m <<= diff;
    hi_e -= diff as i32;
    let _ = sticky;
    if hi_s == lo_s {
        norm_round_pack_f64(hi_s, hi_e, hi_m + lo_m, false, env.rounding, &mut env.flags)
    } else {
        let (sign, mag) = if hi_m > lo_m {
            (hi_s, hi_m - lo_m)
        } else if lo_m > hi_m {
            (lo_s, lo_m - hi_m)
        } else {
            let zero_sign = matches!(env.rounding, Rounding::TowardNegative);
            return pack64(zero_sign, 0, 0);
        };
        norm_round_pack_f64(sign, hi_e, mag, false, env.rounding, &mut env.flags)
    }
}

/// IEEE equality comparison (quiet: only signalling NaNs raise invalid).
pub fn f64_eq(a: u64, b: u64, env: &mut FpEnv) -> bool {
    if is_nan64(a) || is_nan64(b) {
        if is_snan64(a) || is_snan64(b) {
            env.flags.invalid = true;
        }
        return false;
    }
    if ((a | b) << 1) == 0 {
        return true; // +0 == -0
    }
    a == b
}

/// IEEE less-than comparison (signalling: any NaN raises invalid).
pub fn f64_lt(a: u64, b: u64, env: &mut FpEnv) -> bool {
    if is_nan64(a) || is_nan64(b) {
        env.flags.invalid = true;
        return false;
    }
    f64_ordered_lt(a, b)
}

/// IEEE less-than-or-equal comparison (signalling).
pub fn f64_le(a: u64, b: u64, env: &mut FpEnv) -> bool {
    if is_nan64(a) || is_nan64(b) {
        env.flags.invalid = true;
        return false;
    }
    if ((a | b) << 1) == 0 {
        return true;
    }
    a == b || f64_ordered_lt(a, b)
}

fn f64_ordered_lt(a: u64, b: u64) -> bool {
    let sa = a >> 63 != 0;
    let sb = b >> 63 != 0;
    if ((a | b) << 1) == 0 {
        return false;
    }
    match (sa, sb) {
        (false, false) => a < b,
        (true, true) => a > b,
        (true, false) => true,
        (false, true) => false,
    }
}

// ---------------------------------------------------------------------------
// binary32
// ---------------------------------------------------------------------------

/// Adds two binary32 values.
pub fn f32_add(a: u32, b: u32, env: &mut FpEnv) -> u32 {
    f32_add_inner(a, b, false, env)
}

/// Subtracts `b` from `a` (binary32).
pub fn f32_sub(a: u32, b: u32, env: &mut FpEnv) -> u32 {
    f32_add_inner(a, b, true, env)
}

fn f32_add_inner(a: u32, b: u32, negate_b: bool, env: &mut FpEnv) -> u32 {
    let b = if negate_b { b ^ (1u32 << 31) } else { b };
    let ca = classify32(a);
    let cb = classify32(b);
    if is_nan32(a) || is_nan32(b) {
        return propagate_nan32(a, b, env);
    }
    match (ca, cb) {
        (FpClass::Infinite, FpClass::Infinite) => {
            if (a >> 31) != (b >> 31) {
                env.flags.invalid = true;
                return F32_DEFAULT_NAN;
            }
            return a;
        }
        (FpClass::Infinite, _) => return a,
        (_, FpClass::Infinite) => return b,
        _ => {}
    }
    let da = decomp32(a);
    let db = decomp32(b);
    let (ma, mb, exp) = align(da, db);
    if da.sign == db.sign {
        norm_round_pack_f32(da.sign, exp, ma + mb, false, env.rounding, &mut env.flags)
    } else {
        let (sign, mag) = if ma > mb {
            (da.sign, ma - mb)
        } else if mb > ma {
            (db.sign, mb - ma)
        } else {
            let zero_sign = matches!(env.rounding, Rounding::TowardNegative);
            return pack32(zero_sign, 0, 0);
        };
        norm_round_pack_f32(sign, exp, mag, false, env.rounding, &mut env.flags)
    }
}

/// Multiplies two binary32 values.
pub fn f32_mul(a: u32, b: u32, env: &mut FpEnv) -> u32 {
    let ca = classify32(a);
    let cb = classify32(b);
    if is_nan32(a) || is_nan32(b) {
        return propagate_nan32(a, b, env);
    }
    let sign = (a >> 31) ^ (b >> 31) != 0;
    match (ca, cb) {
        (FpClass::Infinite, FpClass::Zero) | (FpClass::Zero, FpClass::Infinite) => {
            env.flags.invalid = true;
            return F32_DEFAULT_NAN;
        }
        (FpClass::Infinite, _) | (_, FpClass::Infinite) => return pack32(sign, 0xFF, 0),
        (FpClass::Zero, _) | (_, FpClass::Zero) => return pack32(sign, 0, 0),
        _ => {}
    }
    let da = decomp32(a);
    let db = decomp32(b);
    let product = (da.mant as u128) * (db.mant as u128);
    norm_round_pack_f32(
        sign,
        da.exp + db.exp,
        product,
        false,
        env.rounding,
        &mut env.flags,
    )
}

/// Divides `a` by `b` (binary32).
pub fn f32_div(a: u32, b: u32, env: &mut FpEnv) -> u32 {
    let ca = classify32(a);
    let cb = classify32(b);
    if is_nan32(a) || is_nan32(b) {
        return propagate_nan32(a, b, env);
    }
    let sign = (a >> 31) ^ (b >> 31) != 0;
    match (ca, cb) {
        (FpClass::Infinite, FpClass::Infinite) | (FpClass::Zero, FpClass::Zero) => {
            env.flags.invalid = true;
            return F32_DEFAULT_NAN;
        }
        (FpClass::Infinite, _) => return pack32(sign, 0xFF, 0),
        (_, FpClass::Infinite) => return pack32(sign, 0, 0),
        (FpClass::Zero, _) => return pack32(sign, 0, 0),
        (_, FpClass::Zero) => {
            env.flags.div_by_zero = true;
            return pack32(sign, 0xFF, 0);
        }
        _ => {}
    }
    let da = decomp32(a);
    let db = decomp32(b);
    let num = (da.mant as u128) << 62;
    let den = db.mant as u128;
    let quot = num / den;
    let rem = num % den;
    norm_round_pack_f32(
        sign,
        da.exp - db.exp - 62,
        quot,
        rem != 0,
        env.rounding,
        &mut env.flags,
    )
}

/// Square root of a binary32 value.
pub fn f32_sqrt(a: u32, env: &mut FpEnv) -> u32 {
    let ca = classify32(a);
    if is_nan32(a) {
        return propagate_nan32(a, a, env);
    }
    match ca {
        FpClass::Zero => return a,
        FpClass::Infinite => {
            if a >> 31 == 0 {
                return a;
            }
            env.flags.invalid = true;
            return crate::arch::invalid_sqrt_nan32(env);
        }
        _ => {}
    }
    if a >> 31 != 0 {
        env.flags.invalid = true;
        return crate::arch::invalid_sqrt_nan32(env);
    }
    let mut d = decomp32(a);
    if d.exp & 1 != 0 {
        d.mant <<= 1;
        d.exp -= 1;
    }
    const T: i32 = 24;
    let scaled = (d.mant as u128) << (2 * T);
    let (root, exact) = isqrt_u128(scaled);
    norm_round_pack_f32(
        false,
        d.exp / 2 - T,
        root,
        !exact,
        env.rounding,
        &mut env.flags,
    )
}

/// IEEE equality comparison for binary32.
pub fn f32_eq(a: u32, b: u32, env: &mut FpEnv) -> bool {
    if is_nan32(a) || is_nan32(b) {
        if is_snan32(a) || is_snan32(b) {
            env.flags.invalid = true;
        }
        return false;
    }
    if ((a | b) << 1) == 0 {
        return true;
    }
    a == b
}

/// IEEE less-than comparison for binary32 (signalling).
pub fn f32_lt(a: u32, b: u32, env: &mut FpEnv) -> bool {
    if is_nan32(a) || is_nan32(b) {
        env.flags.invalid = true;
        return false;
    }
    if ((a | b) << 1) == 0 {
        return false;
    }
    let sa = a >> 31 != 0;
    let sb = b >> 31 != 0;
    match (sa, sb) {
        (false, false) => a < b,
        (true, true) => a > b,
        (true, false) => true,
        (false, true) => false,
    }
}

/// IEEE less-than-or-equal comparison for binary32 (signalling).
pub fn f32_le(a: u32, b: u32, env: &mut FpEnv) -> bool {
    if is_nan32(a) || is_nan32(b) {
        env.flags.invalid = true;
        return false;
    }
    if ((a | b) << 1) == 0 {
        return true;
    }
    a == b || f32_lt(a, b, env)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check64(
        op: impl Fn(u64, u64, &mut FpEnv) -> u64,
        native: impl Fn(f64, f64) -> f64,
        a: f64,
        b: f64,
    ) {
        let mut env = FpEnv::arm();
        let got = op(a.to_bits(), b.to_bits(), &mut env);
        let want = native(a, b);
        if want.is_nan() {
            assert!(is_nan64(got), "{a} ? {b}: expected NaN, got {got:#x}");
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
        let mut env = FpEnv::arm();
        let inf = f64::INFINITY.to_bits();
        let ninf = f64::NEG_INFINITY.to_bits();
        assert!(is_nan64(f64_add(inf, ninf, &mut env)));
        assert!(env.flags.invalid);
        env.clear_flags();
        assert_eq!(f64_mul(inf, 0f64.to_bits(), &mut env), F64_DEFAULT_NAN);
        assert!(env.flags.invalid);
        env.clear_flags();
        assert_eq!(f64_div(1f64.to_bits(), 0f64.to_bits(), &mut env), inf);
        assert!(env.flags.div_by_zero);
    }

    #[test]
    fn sqrt_matches_native() {
        let mut env = FpEnv::arm();
        for v in [
            0.25f64, 0.5, 1.0, 2.0, 4.0, 144.0, 1e100, 1e-100, 0.707, 3.0,
        ] {
            let got = f64_sqrt(v.to_bits(), &mut env);
            assert_eq!(got, v.sqrt().to_bits(), "sqrt({v})");
        }
        for v in [0.25f32, 2.0, 100.0, 0.1, 7.5] {
            let got = f32_sqrt(v.to_bits(), &mut env);
            assert_eq!(got, v.sqrt().to_bits(), "sqrt32({v})");
        }
    }

    #[test]
    fn fma_single_rounding() {
        let mut env = FpEnv::arm();
        let cases: [(f64, f64, f64); 5] = [
            (1.0, 1.0, 1.0),
            (1.5, 2.5, -3.75),
            (1e16, 1e16, -1e32),
            (3.0, 1.0 / 3.0, -1.0),
            (1.0000000000000002, 1.0000000000000002, 0.0),
        ];
        for (a, b, c) in cases {
            let got = f64_fma(a.to_bits(), b.to_bits(), c.to_bits(), &mut env);
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
    fn comparisons() {
        let mut env = FpEnv::arm();
        assert!(f64_eq(0f64.to_bits(), (-0f64).to_bits(), &mut env));
        assert!(f64_lt((-1f64).to_bits(), 1f64.to_bits(), &mut env));
        assert!(!f64_lt(1f64.to_bits(), 1f64.to_bits(), &mut env));
        assert!(f64_le(1f64.to_bits(), 1f64.to_bits(), &mut env));
        assert!(!f64_eq(f64::NAN.to_bits(), f64::NAN.to_bits(), &mut env));
        assert!(f32_eq(0f32.to_bits(), (-0f32).to_bits(), &mut env));
        assert!(f32_lt((-2f32).to_bits(), 3f32.to_bits(), &mut env));
        assert!(f32_le(3f32.to_bits(), 3f32.to_bits(), &mut env));
    }

    #[test]
    fn f32_ops_match_native() {
        let vals = [
            0.0f32, -0.0, 1.0, -1.0, 1.5, 3.25, 1e30, 1e-30, 0.1, 123456.78,
        ];
        let mut env = FpEnv::arm();
        for &a in &vals {
            for &b in &vals {
                assert_eq!(
                    f32_add(a.to_bits(), b.to_bits(), &mut env),
                    (a + b).to_bits(),
                    "{a}+{b}"
                );
                assert_eq!(
                    f32_mul(a.to_bits(), b.to_bits(), &mut env),
                    (a * b).to_bits(),
                    "{a}*{b}"
                );
                let want = a / b;
                let got = f32_div(a.to_bits(), b.to_bits(), &mut env);
                if want.is_nan() {
                    assert!(is_nan32(got));
                } else {
                    assert_eq!(got, want.to_bits(), "{a}/{b}");
                }
            }
        }
    }

    #[test]
    fn subnormal_results() {
        let mut env = FpEnv::arm();
        let tiny = f64::MIN_POSITIVE; // smallest normal
        let got = f64_div(tiny.to_bits(), 4f64.to_bits(), &mut env);
        assert_eq!(got, (tiny / 4.0).to_bits());
        let got = f64_mul(tiny.to_bits(), 0.5f64.to_bits(), &mut env);
        assert_eq!(got, (tiny * 0.5).to_bits());
    }
}
