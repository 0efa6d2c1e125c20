//! Assembler for the ARMv8-lite guest ISA.
//!
//! Used by the workload, SimBench and example crates to build guest programs.
//! Provides raw encoders (one function per instruction) and an [`Assembler`]
//! with labels and branch fixups.

use crate::isa::Cond;
use std::collections::HashMap;

fn r(v: u32) -> u32 {
    v & 0x1F
}

fn op(o: u32) -> u32 {
    o << 25
}

/// `nop`
pub fn nop() -> u32 {
    op(0x00)
}
/// `hlt` — stops the guest machine (bare-metal test programs).
pub fn hlt() -> u32 {
    op(0x01)
}
/// `movz xd, #imm16, lsl #(16*hw)`
pub fn movz(rd: u32, imm16: u32, hw: u32) -> u32 {
    op(0x02) | ((hw & 3) << 21) | ((imm16 & 0xFFFF) << 5) | r(rd)
}
/// `movk xd, #imm16, lsl #(16*hw)`
pub fn movk(rd: u32, imm16: u32, hw: u32) -> u32 {
    op(0x03) | ((hw & 3) << 21) | ((imm16 & 0xFFFF) << 5) | r(rd)
}
/// `add xd, xn, #imm12`
pub fn addi(rd: u32, rn: u32, imm: u32) -> u32 {
    op(0x05) | ((imm & 0xFFF) << 10) | (r(rn) << 5) | r(rd)
}
/// `sub xd, xn, #imm12`
pub fn subi(rd: u32, rn: u32, imm: u32) -> u32 {
    op(0x06) | ((imm & 0xFFF) << 10) | (r(rn) << 5) | r(rd)
}
/// `subs xd, xn, #imm12` (`cmp xn, #imm` when rd = 31)
pub fn subis(rd: u32, rn: u32, imm: u32) -> u32 {
    op(0x07) | ((imm & 0xFFF) << 10) | (r(rn) << 5) | r(rd)
}
/// `cmp xn, #imm12`
pub fn cmpi(rn: u32, imm: u32) -> u32 {
    subis(31, rn, imm)
}
/// `add xd, xn, xm`
pub fn add(rd: u32, rn: u32, rm: u32) -> u32 {
    op(0x08) | (r(rm) << 10) | (r(rn) << 5) | r(rd)
}
/// `sub xd, xn, xm`
pub fn sub(rd: u32, rn: u32, rm: u32) -> u32 {
    op(0x09) | (r(rm) << 10) | (r(rn) << 5) | r(rd)
}
/// `adds xd, xn, xm`
pub fn adds(rd: u32, rn: u32, rm: u32) -> u32 {
    op(0x0A) | (r(rm) << 10) | (r(rn) << 5) | r(rd)
}
/// `subs xd, xn, xm` (`cmp xn, xm` when rd = 31)
pub fn subs(rd: u32, rn: u32, rm: u32) -> u32 {
    op(0x0B) | (r(rm) << 10) | (r(rn) << 5) | r(rd)
}
/// `cmp xn, xm`
pub fn cmp(rn: u32, rm: u32) -> u32 {
    subs(31, rn, rm)
}
/// `and xd, xn, xm`
pub fn and(rd: u32, rn: u32, rm: u32) -> u32 {
    op(0x0C) | (r(rm) << 10) | (r(rn) << 5) | r(rd)
}
/// `orr xd, xn, xm`
pub fn orr(rd: u32, rn: u32, rm: u32) -> u32 {
    op(0x0D) | (r(rm) << 10) | (r(rn) << 5) | r(rd)
}
/// `eor xd, xn, xm`
pub fn eor(rd: u32, rn: u32, rm: u32) -> u32 {
    op(0x0E) | (r(rm) << 10) | (r(rn) << 5) | r(rd)
}
/// `ands xd, xn, xm`
pub fn ands(rd: u32, rn: u32, rm: u32) -> u32 {
    op(0x0F) | (r(rm) << 10) | (r(rn) << 5) | r(rd)
}
/// `mul xd, xn, xm`
pub fn mul(rd: u32, rn: u32, rm: u32) -> u32 {
    op(0x10) | (r(rm) << 10) | (r(rn) << 5) | r(rd)
}
/// `udiv xd, xn, xm`
pub fn udiv(rd: u32, rn: u32, rm: u32) -> u32 {
    op(0x11) | (r(rm) << 10) | (r(rn) << 5) | r(rd)
}
/// `sdiv xd, xn, xm`
pub fn sdiv(rd: u32, rn: u32, rm: u32) -> u32 {
    op(0x12) | (r(rm) << 10) | (r(rn) << 5) | r(rd)
}
/// `umulh xd, xn, xm`
pub fn umulh(rd: u32, rn: u32, rm: u32) -> u32 {
    op(0x13) | (r(rm) << 10) | (r(rn) << 5) | r(rd)
}
/// `smulh xd, xn, xm`
pub fn smulh(rd: u32, rn: u32, rm: u32) -> u32 {
    op(0x14) | (r(rm) << 10) | (r(rn) << 5) | r(rd)
}
/// `lsl xd, xn, xm`
pub fn lslv(rd: u32, rn: u32, rm: u32) -> u32 {
    op(0x15) | (r(rm) << 10) | (r(rn) << 5) | r(rd)
}
/// `lsr xd, xn, xm`
pub fn lsrv(rd: u32, rn: u32, rm: u32) -> u32 {
    op(0x16) | (r(rm) << 10) | (r(rn) << 5) | r(rd)
}
/// `asr xd, xn, xm`
pub fn asrv(rd: u32, rn: u32, rm: u32) -> u32 {
    op(0x17) | (r(rm) << 10) | (r(rn) << 5) | r(rd)
}
/// `lsl xd, xn, #imm6`
pub fn lsli(rd: u32, rn: u32, imm: u32) -> u32 {
    op(0x18) | ((imm & 0x3F) << 10) | (r(rn) << 5) | r(rd)
}
/// `lsr xd, xn, #imm6`
pub fn lsri(rd: u32, rn: u32, imm: u32) -> u32 {
    op(0x19) | ((imm & 0x3F) << 10) | (r(rn) << 5) | r(rd)
}
/// `asr xd, xn, #imm6`
pub fn asri(rd: u32, rn: u32, imm: u32) -> u32 {
    op(0x1A) | ((imm & 0x3F) << 10) | (r(rn) << 5) | r(rd)
}
/// `ldr xt, [xn, #imm12]`
pub fn ldr(rt: u32, rn: u32, imm: u32) -> u32 {
    op(0x1B) | ((imm & 0xFFF) << 10) | (r(rn) << 5) | r(rt)
}
/// `str xt, [xn, #imm12]`
pub fn str(rt: u32, rn: u32, imm: u32) -> u32 {
    op(0x1C) | ((imm & 0xFFF) << 10) | (r(rn) << 5) | r(rt)
}
/// `ldr wt, [xn, #imm12]`
pub fn ldrw(rt: u32, rn: u32, imm: u32) -> u32 {
    op(0x1D) | ((imm & 0xFFF) << 10) | (r(rn) << 5) | r(rt)
}
/// `str wt, [xn, #imm12]`
pub fn strw(rt: u32, rn: u32, imm: u32) -> u32 {
    op(0x1E) | ((imm & 0xFFF) << 10) | (r(rn) << 5) | r(rt)
}
/// `ldrb wt, [xn, #imm12]`
pub fn ldrb(rt: u32, rn: u32, imm: u32) -> u32 {
    op(0x1F) | ((imm & 0xFFF) << 10) | (r(rn) << 5) | r(rt)
}
/// `strb wt, [xn, #imm12]`
pub fn strb(rt: u32, rn: u32, imm: u32) -> u32 {
    op(0x20) | ((imm & 0xFFF) << 10) | (r(rn) << 5) | r(rt)
}
/// `ldrh wt, [xn, #imm12]`
pub fn ldrh(rt: u32, rn: u32, imm: u32) -> u32 {
    op(0x21) | ((imm & 0xFFF) << 10) | (r(rn) << 5) | r(rt)
}
/// `strh wt, [xn, #imm12]`
pub fn strh(rt: u32, rn: u32, imm: u32) -> u32 {
    op(0x22) | ((imm & 0xFFF) << 10) | (r(rn) << 5) | r(rt)
}
/// `ldrsw xt, [xn, #imm12]`
pub fn ldrsw(rt: u32, rn: u32, imm: u32) -> u32 {
    op(0x23) | ((imm & 0xFFF) << 10) | (r(rn) << 5) | r(rt)
}
/// `ldr xt, [xn, xm]`
pub fn ldr_reg(rt: u32, rn: u32, rm: u32) -> u32 {
    op(0x24) | (r(rm) << 10) | (r(rn) << 5) | r(rt)
}
/// `str xt, [xn, xm]`
pub fn str_reg(rt: u32, rn: u32, rm: u32) -> u32 {
    op(0x25) | (r(rm) << 10) | (r(rn) << 5) | r(rt)
}
/// `ldp xt, xt2, [xn, #imm]` (imm is a signed multiple of 8)
pub fn ldp(rt: u32, rt2: u32, rn: u32, imm: i32) -> u32 {
    let scaled = ((imm / 8) as u32) & 0x7F;
    op(0x26) | (scaled << 15) | (r(rt2) << 10) | (r(rn) << 5) | r(rt)
}
/// `stp xt, xt2, [xn, #imm]`
pub fn stp(rt: u32, rt2: u32, rn: u32, imm: i32) -> u32 {
    let scaled = ((imm / 8) as u32) & 0x7F;
    op(0x27) | (scaled << 15) | (r(rt2) << 10) | (r(rn) << 5) | r(rt)
}
/// `b #offset` (byte offset, multiple of 4)
pub fn b(offset: i64) -> u32 {
    op(0x28) | ((((offset / 4) as u32) & 0xFF_FFFF) << 1)
}
/// `bl #offset`
pub fn bl(offset: i64) -> u32 {
    op(0x29) | ((((offset / 4) as u32) & 0xFF_FFFF) << 1)
}
/// `b.cond #offset`
pub fn bcond(cond: Cond, offset: i64) -> u32 {
    op(0x2A) | ((((offset / 4) as u32) & 0x7FFFF) << 5) | (cond as u32)
}
/// `cbz xt, #offset`
pub fn cbz(rt: u32, offset: i64) -> u32 {
    op(0x2B) | ((((offset / 4) as u32) & 0x7FFFF) << 5) | r(rt)
}
/// `cbnz xt, #offset`
pub fn cbnz(rt: u32, offset: i64) -> u32 {
    op(0x2C) | ((((offset / 4) as u32) & 0x7FFFF) << 5) | r(rt)
}
/// `br xn`
pub fn br(rn: u32) -> u32 {
    op(0x2D) | (r(rn) << 5)
}
/// `blr xn`
pub fn blr(rn: u32) -> u32 {
    op(0x2E) | (r(rn) << 5)
}
/// `ret` (returns through X30)
pub fn ret() -> u32 {
    op(0x2F) | (30 << 5)
}
/// `svc #imm16`
pub fn svc(imm: u32) -> u32 {
    op(0x30) | ((imm & 0xFFFF) << 5)
}
/// `mrs xt, <sysreg>`
pub fn mrs(rt: u32, sysreg: u32) -> u32 {
    op(0x31) | ((sysreg & 0x3FF) << 5) | r(rt)
}
/// `msr <sysreg>, xt`
pub fn msr(sysreg: u32, rt: u32) -> u32 {
    op(0x32) | ((sysreg & 0x3FF) << 5) | r(rt)
}
/// `tlbi vmalle1`
pub fn tlbi() -> u32 {
    op(0x33)
}
/// `eret`
pub fn eret() -> u32 {
    op(0x34)
}
/// `fmov dd, #imm8` (A64 8-bit FP immediate encoding)
pub fn fmov_imm(vd: u32, imm8: u32) -> u32 {
    op(0x35) | ((imm8 & 0xFF) << 5) | r(vd)
}
/// `fadd dd, dn, dm`
pub fn fadd(vd: u32, vn: u32, vm: u32) -> u32 {
    op(0x36) | (r(vm) << 10) | (r(vn) << 5) | r(vd)
}
/// `fsub dd, dn, dm`
pub fn fsub(vd: u32, vn: u32, vm: u32) -> u32 {
    op(0x37) | (r(vm) << 10) | (r(vn) << 5) | r(vd)
}
/// `fmul dd, dn, dm`
pub fn fmul(vd: u32, vn: u32, vm: u32) -> u32 {
    op(0x38) | (r(vm) << 10) | (r(vn) << 5) | r(vd)
}
/// `fdiv dd, dn, dm`
pub fn fdiv(vd: u32, vn: u32, vm: u32) -> u32 {
    op(0x39) | (r(vm) << 10) | (r(vn) << 5) | r(vd)
}
/// `fsqrt dd, dn`
pub fn fsqrt(vd: u32, vn: u32) -> u32 {
    op(0x3A) | (r(vn) << 5) | r(vd)
}
/// `fcmp dn, dm`
pub fn fcmp(vn: u32, vm: u32) -> u32 {
    op(0x3B) | (r(vm) << 10) | (r(vn) << 5)
}
/// `fmov xd, dn`
pub fn fmov_to_gpr(rd: u32, vn: u32) -> u32 {
    op(0x3C) | (r(vn) << 5) | r(rd)
}
/// `fmov dd, xn`
pub fn fmov_from_gpr(vd: u32, rn: u32) -> u32 {
    op(0x3D) | (r(rn) << 5) | r(vd)
}
/// `scvtf dd, xn`
pub fn scvtf(vd: u32, rn: u32) -> u32 {
    op(0x3E) | (r(rn) << 5) | r(vd)
}
/// `fcvtzs xd, dn`
pub fn fcvtzs(rd: u32, vn: u32) -> u32 {
    op(0x3F) | (r(vn) << 5) | r(rd)
}
/// `fmadd dd, dn, dm, da`
pub fn fmadd(vd: u32, vn: u32, vm: u32, va: u32) -> u32 {
    op(0x40) | (r(va) << 15) | (r(vm) << 10) | (r(vn) << 5) | r(vd)
}
/// `ldr dd, [xn, #imm12]`
pub fn ldr_d(vt: u32, rn: u32, imm: u32) -> u32 {
    op(0x41) | ((imm & 0xFFF) << 10) | (r(rn) << 5) | r(vt)
}
/// `str dd, [xn, #imm12]`
pub fn str_d(vt: u32, rn: u32, imm: u32) -> u32 {
    op(0x42) | ((imm & 0xFFF) << 10) | (r(rn) << 5) | r(vt)
}
/// `fadd vd.2d, vn.2d, vm.2d`
pub fn vadd2d(vd: u32, vn: u32, vm: u32) -> u32 {
    op(0x43) | (r(vm) << 10) | (r(vn) << 5) | r(vd)
}
/// `fmul vd.2d, vn.2d, vm.2d`
pub fn vmul2d(vd: u32, vn: u32, vm: u32) -> u32 {
    op(0x44) | (r(vm) << 10) | (r(vn) << 5) | r(vd)
}
/// `ldr qd, [xn, #imm12]`
pub fn ldr_q(vt: u32, rn: u32, imm: u32) -> u32 {
    op(0x45) | ((imm & 0xFFF) << 10) | (r(rn) << 5) | r(vt)
}
/// `str qd, [xn, #imm12]`
pub fn str_q(vt: u32, rn: u32, imm: u32) -> u32 {
    op(0x46) | ((imm & 0xFFF) << 10) | (r(rn) << 5) | r(vt)
}
/// `dup vd.2d, xn`
pub fn dup2d(vd: u32, rn: u32) -> u32 {
    op(0x47) | (r(rn) << 5) | r(vd)
}
/// `csel xd, xn, xm, cond`
pub fn csel(rd: u32, rn: u32, rm: u32, cond: Cond) -> u32 {
    op(0x48) | ((cond as u32) << 15) | (r(rm) << 10) | (r(rn) << 5) | r(rd)
}
/// `adr xd, #offset`
pub fn adr(rd: u32, offset: i64) -> u32 {
    op(0x49) | ((((offset / 4) as u32) & 0x7FFFF) << 5) | r(rd)
}

/// Kinds of label references that need fixing up.
#[derive(Debug, Clone)]
enum Fixup {
    B {
        at: usize,
        label: String,
    },
    Bl {
        at: usize,
        label: String,
    },
    BCond {
        at: usize,
        label: String,
        cond: Cond,
    },
    Cbz {
        at: usize,
        label: String,
        rt: u32,
    },
    Cbnz {
        at: usize,
        label: String,
        rt: u32,
    },
    Adr {
        at: usize,
        label: String,
        rd: u32,
    },
}

/// A small two-pass assembler with labels.
#[derive(Debug, Default)]
pub struct Assembler {
    words: Vec<u32>,
    labels: HashMap<String, usize>,
    fixups: Vec<Fixup>,
}

impl Assembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a raw instruction word.
    pub fn push(&mut self, word: u32) -> &mut Self {
        self.words.push(word);
        self
    }

    /// Appends several raw instruction words.
    pub fn extend(&mut self, words: &[u32]) -> &mut Self {
        self.words.extend_from_slice(words);
        self
    }

    /// Defines a label at the current position.
    pub fn label(&mut self, name: &str) -> &mut Self {
        self.labels.insert(name.to_string(), self.words.len());
        self
    }

    /// Current position, in instructions.
    pub fn here(&self) -> usize {
        self.words.len()
    }

    /// Emits `movz`/`movk` sequence loading an arbitrary 64-bit immediate.
    pub fn mov_imm64(&mut self, rd: u32, value: u64) -> &mut Self {
        self.push(movz(rd, (value & 0xFFFF) as u32, 0));
        for hw in 1..4u32 {
            let part = ((value >> (16 * hw)) & 0xFFFF) as u32;
            if part != 0 {
                self.push(movk(rd, part, hw));
            }
        }
        self
    }

    /// Emits a branch to a label.
    pub fn b_to(&mut self, label: &str) -> &mut Self {
        self.fixups.push(Fixup::B {
            at: self.words.len(),
            label: label.to_string(),
        });
        self.push(nop())
    }

    /// Emits a branch-and-link to a label.
    pub fn bl_to(&mut self, label: &str) -> &mut Self {
        self.fixups.push(Fixup::Bl {
            at: self.words.len(),
            label: label.to_string(),
        });
        self.push(nop())
    }

    /// Emits a conditional branch to a label.
    pub fn bcond_to(&mut self, cond: Cond, label: &str) -> &mut Self {
        self.fixups.push(Fixup::BCond {
            at: self.words.len(),
            label: label.to_string(),
            cond,
        });
        self.push(nop())
    }

    /// Emits a compare-and-branch-if-zero to a label.
    pub fn cbz_to(&mut self, rt: u32, label: &str) -> &mut Self {
        self.fixups.push(Fixup::Cbz {
            at: self.words.len(),
            label: label.to_string(),
            rt,
        });
        self.push(nop())
    }

    /// Emits a compare-and-branch-if-non-zero to a label.
    pub fn cbnz_to(&mut self, rt: u32, label: &str) -> &mut Self {
        self.fixups.push(Fixup::Cbnz {
            at: self.words.len(),
            label: label.to_string(),
            rt,
        });
        self.push(nop())
    }

    /// Emits a PC-relative address of a label into a register.
    pub fn adr_to(&mut self, rd: u32, label: &str) -> &mut Self {
        self.fixups.push(Fixup::Adr {
            at: self.words.len(),
            label: label.to_string(),
            rd,
        });
        self.push(nop())
    }

    /// Resolves fixups and returns the final instruction words.
    ///
    /// # Panics
    ///
    /// Panics if a referenced label was never defined.
    pub fn finish(mut self) -> Vec<u32> {
        for fix in std::mem::take(&mut self.fixups) {
            let (at, label) = match &fix {
                Fixup::B { at, label }
                | Fixup::Bl { at, label }
                | Fixup::BCond { at, label, .. }
                | Fixup::Cbz { at, label, .. }
                | Fixup::Cbnz { at, label, .. }
                | Fixup::Adr { at, label, .. } => (*at, label.clone()),
            };
            let target = *self
                .labels
                .get(&label)
                .unwrap_or_else(|| panic!("undefined label {label}"));
            let offset = (target as i64 - at as i64) * 4;
            self.words[at] = match fix {
                Fixup::B { .. } => b(offset),
                Fixup::Bl { .. } => bl(offset),
                Fixup::BCond { cond, .. } => bcond(cond, offset),
                Fixup::Cbz { rt, .. } => cbz(rt, offset),
                Fixup::Cbnz { rt, .. } => cbnz(rt, offset),
                Fixup::Adr { rd, .. } => adr(rd, offset),
            };
        }
        self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{decode, AccessSize, AluKind, Insn};

    #[test]
    fn encode_decode_roundtrip_for_representative_instructions() {
        let cases = vec![
            (
                add(1, 2, 3),
                Insn::AluReg {
                    kind: AluKind::Add,
                    rd: 1,
                    rn: 2,
                    rm: 3,
                    set_flags: false,
                },
            ),
            (
                subs(4, 5, 6),
                Insn::AluReg {
                    kind: AluKind::Sub,
                    rd: 4,
                    rn: 5,
                    rm: 6,
                    set_flags: true,
                },
            ),
            (
                addi(1, 2, 100),
                Insn::AluImm {
                    kind: AluKind::Add,
                    rd: 1,
                    rn: 2,
                    imm: 100,
                    set_flags: false,
                },
            ),
            (
                movz(7, 0xBEEF, 1),
                Insn::Movz {
                    rd: 7,
                    imm16: 0xBEEF,
                    hw: 1,
                },
            ),
            (
                ldr(3, 4, 64),
                Insn::Load {
                    rt: 3,
                    rn: 4,
                    imm: 64,
                    size: AccessSize::Double,
                    sext: false,
                },
            ),
            (
                strb(3, 4, 7),
                Insn::Store {
                    rt: 3,
                    rn: 4,
                    imm: 7,
                    size: AccessSize::Byte,
                },
            ),
            (
                ldp(1, 2, 31, -16),
                Insn::Ldp {
                    rt: 1,
                    rt2: 2,
                    rn: 31,
                    imm: -16,
                },
            ),
            (
                fmul(0, 1, 2),
                Insn::FpReg {
                    kind: crate::isa::FpKind::Mul,
                    vd: 0,
                    vn: 1,
                    vm: 2,
                },
            ),
            (svc(42), Insn::Svc { imm: 42 }),
            (ret(), Insn::Ret { rn: 30 }),
        ];
        for (word, expected) in cases {
            assert_eq!(decode(word).unwrap(), expected, "word {word:#010x}");
        }
    }

    #[test]
    fn assembler_resolves_forward_and_backward_labels() {
        let mut a = Assembler::new();
        a.label("start");
        a.push(addi(0, 0, 1));
        a.cbnz_to(1, "end");
        a.b_to("start");
        a.label("end");
        a.push(ret());
        let words = a.finish();
        match decode(words[1]).unwrap() {
            Insn::Cbnz { rt: 1, offset } => assert_eq!(offset, 8),
            other => panic!("{other:?}"),
        }
        match decode(words[2]).unwrap() {
            Insn::B { offset } => assert_eq!(offset, -8),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mov_imm64_builds_wide_constants() {
        let mut a = Assembler::new();
        a.mov_imm64(5, 0x1234_5678_9ABC_DEF0);
        let words = a.finish();
        assert_eq!(words.len(), 4, "four 16-bit chunks");
        let mut a = Assembler::new();
        a.mov_imm64(5, 0x42);
        assert_eq!(a.finish().len(), 1, "small constants need only movz");
    }

    #[test]
    #[should_panic(expected = "undefined label")]
    fn undefined_label_panics() {
        let mut a = Assembler::new();
        a.b_to("nowhere");
        let _ = a.finish();
    }
}
