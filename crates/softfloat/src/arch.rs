//! The two square roots of the paper's Table 2.
//!
//! The paper motivates inline fix-up code in Captive's JIT with the
//! observation that x86 `SQRTSD` and Arm `FSQRT` agree on every input except
//! in the NaN they return: for a negative operand x86 returns a *negative*
//! quiet NaN and Arm the (positive) default NaN, and for a NaN operand x86
//! returns the operand quietened and Arm the default NaN.

use crate::round::{isqrt_u128, norm_round_pack};
use crate::{finite, is_inf, is_nan, is_zero, sign, DEFAULT_NAN, SIGN};

/// The square root of `a`, or `None` where the result is a NaN: a NaN
/// operand, or one below zero (`-0` is its own root).
fn sqrt(a: u64) -> Option<u64> {
    if is_nan(a) || (sign(a) && !is_zero(a)) {
        return None;
    }
    if is_zero(a) || is_inf(a) {
        return Some(a);
    }
    let mut x = finite(a);
    // Make the exponent even so the square root has an integral power of two.
    if x.exp & 1 != 0 {
        x.mant <<= 1;
        x.exp -= 1;
    }
    // sqrt(mant * 2^exp) = isqrt(mant << 2t) * 2^(exp/2 - t).
    const T: i32 = 32;
    let (root, exact) = isqrt_u128((x.mant as u128) << (2 * T));
    Some(norm_round_pack(false, x.exp / 2 - T, root, !exact))
}

/// Arm `FSQRT` (binary64, default-NaN mode): every NaN result is the
/// positive default NaN.
pub fn f64_sqrt_arm(a: u64) -> u64 {
    sqrt(a).unwrap_or(DEFAULT_NAN)
}

/// x86 `SQRTSD`: a negative operand gives a *negative* quiet NaN, and a NaN
/// operand comes back quietened with its sign and payload.
pub fn f64_sqrt_x86(a: u64) -> u64 {
    match sqrt(a) {
        Some(root) => root,
        None if is_nan(a) => a | DEFAULT_NAN,
        None => SIGN | DEFAULT_NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvm::{FpOp, MachInsn, Machine, MachineConfig, NullRuntime, Xmm};

    /// Reproduces Table 2 of the paper: per-input behaviour of the x86 and
    /// Arm square-root instructions, differing only in the NaN sign bit for
    /// negative inputs.
    #[test]
    fn table2_sqrt_differences() {
        let inputs: [(f64, &str); 8] = [
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (f64::INFINITY, "inf"),
            (f64::NEG_INFINITY, "-inf"),
            (0.5, "0.5"),
            (-0.5, "-0.5"),
            (f64::from_bits(DEFAULT_NAN), "NaN"),
            (f64::from_bits(DEFAULT_NAN | SIGN), "-NaN"),
        ];
        for (v, name) in inputs {
            let x86 = f64_sqrt_x86(v.to_bits());
            let arm = f64_sqrt_arm(v.to_bits());
            match name {
                "-inf" | "-0.5" => {
                    // The sign bit is the only difference.
                    assert_ne!(x86 >> 63, arm >> 63, "{name}: sign bits should differ");
                    assert_eq!(x86 & !SIGN, arm & !SIGN, "{name}");
                    assert_eq!(arm >> 63, 0, "{name}: Arm returns +NaN");
                    assert_eq!(x86 >> 63, 1, "{name}: x86 returns -NaN");
                }
                "-NaN" => {
                    // x86 propagates the input (negative), Arm returns the
                    // default NaN (positive).
                    assert_eq!(x86 >> 63, 1, "{name}");
                    assert_eq!(arm >> 63, 0, "{name}");
                }
                _ => {
                    assert_eq!(x86, arm, "{name}: x86 and Arm agree");
                }
            }
        }
    }

    #[test]
    fn nan_propagation_policies() {
        // Arm's default-NaN mode drops sign and payload on every operation;
        // x86's square root keeps both and only sets the quiet bit.
        let payload_nan = SIGN | 0x7FF8_0000_0000_1234;
        let signalling = 0x7FF0_0000_0000_0001;
        assert_eq!(crate::f64_add(payload_nan, 1.0f64.to_bits()), DEFAULT_NAN);
        assert_eq!(f64_sqrt_arm(payload_nan), DEFAULT_NAN);
        assert_eq!(f64_sqrt_arm(signalling), DEFAULT_NAN);
        assert_eq!(
            f64_sqrt_x86(payload_nan),
            payload_nan,
            "x86 keeps sign and payload"
        );
        assert_eq!(f64_sqrt_x86(signalling), 0x7FF8_0000_0000_0001);
    }

    #[test]
    fn the_x86_root_is_the_modelled_sqrtsd_on_seeded_edge_patterns() {
        // `hvm`'s `SQRTSD` is the host square root Captive's fix-up corrects.
        let mut m = Machine::new(MachineConfig {
            phys_mem: 64 * 1024,
            ..Default::default()
        });
        let code = [
            MachInsn::Fp {
                op: FpOp::SqrtD,
                dst: Xmm(0),
                src: Xmm(1),
            },
            MachInsn::Ret,
        ];
        for [a, ..] in crate::tests::edge_triples(0x5027, 100_000) {
            m.set_xmm(Xmm(1), [a, 0]);
            m.run_block(&code, &mut NullRuntime);
            let sqrtsd = m.xmm_reg(Xmm(0)).unwrap()[0];
            assert_eq!(f64_sqrt_x86(a), sqrtsd, "sqrt {a:#018x}");
        }
    }
}
