//! Generator functions for the ARMv8-lite guest.
//!
//! Each function here corresponds to the machine-generated generator function
//! the paper's offline tool produces from the ADL description (Fig. 7): it is
//! invoked at JIT compilation time with a decoded instruction and emits IR by
//! calling into the invocation-DAG builder.  Fixed values (instruction
//! fields, immediates, the instruction's own PC) are evaluated here, at
//! translation time; dynamic values (register and memory contents) become
//! DAG nodes.

use crate::isa::{expand_fp_imm8, AccessSize, AluKind, Cond, FpKind, Insn};
use crate::regs::{self, SysReg};
use dbt::emitter::{BinOp, FpBinOp, ValueType};
use dbt::{Emitter, GuestIsa, NodeId};
use hvm::{Cond as HCond, MemSize, VecOp};

/// Runtime helper identifiers shared between the generator functions and the
/// hypervisor that implements them.
pub mod helpers {
    /// Take a synchronous guest exception: args = (class, iss, preferred return PC).
    pub const TAKE_EXCEPTION: u16 = 1;
    /// Guest TLB invalidate.
    pub const TLBI: u16 = 2;
    /// A system register was written: arg = sysreg id.
    pub const MSR_NOTIFY: u16 = 3;
    /// Double-precision compare returning an NZCV nibble: args = (a bits, b bits).
    pub const FCMP: u16 = 4;
    /// Exception return (restores EL and PC from SPSR/ELR).
    pub const ERET: u16 = 5;
    /// Halt the guest machine.
    pub const HLT: u16 = 6;
    /// Softfloat op ([`generate_soft_fp`](super::generate_soft_fp)): args
    /// (op, a, b) where op 0–3 selects add/sub/mul/div, or (4, a, b, c) for
    /// the fused `a * b + c` of `fmadd`, rounded once.
    pub const SOFT_FP: u16 = 42;
    /// Softfloat square root: arg (a).
    pub const SOFT_SQRT: u16 = 43;
    /// Packed f64 add (op 0) or mul (op 1), lane by lane through the
    /// register file: args (op, vd offset, vn offset, vm offset).
    pub const VEC_OP: u16 = 44;
}

/// A decoded instruction plus the address it was fetched from (the generator
/// needs the PC to compute branch targets and PC-relative addresses — both
/// are *fixed* values).
#[derive(Debug, Clone, Copy)]
pub struct Decoded {
    /// Guest virtual address of the instruction.
    pub pc: u64,
    /// The decoded instruction.
    pub insn: Insn,
}

/// The guest ISA plugged into the DBT.
#[derive(Debug, Clone, Copy, Default)]
pub struct Aarch64Isa;

impl GuestIsa for Aarch64Isa {
    type Insn = Decoded;

    fn decode(&self, word: u32, pc: u64) -> Option<Decoded> {
        crate::isa::decode(word).map(|insn| Decoded { pc, insn })
    }

    fn generate(&self, insn: &Decoded, e: &mut Emitter) -> bool {
        generate(insn, e)
    }

    fn generate_undefined(&self, pc: u64, e: &mut Emitter) {
        let class = e.const_u64(crate::esr_class::UNDEFINED);
        let iss = e.const_u64(0);
        let ret = e.const_u64(pc);
        e.call_helper(helpers::TAKE_EXCEPTION, &[class, iss, ret]);
        e.set_end_of_block();
    }
}

fn size_to_type(size: AccessSize) -> ValueType {
    match size {
        AccessSize::Byte => ValueType::U8,
        AccessSize::Half => ValueType::U16,
        AccessSize::Word => ValueType::U32,
        AccessSize::Double => ValueType::U64,
        AccessSize::Quad => ValueType::V128,
    }
}

/// Reads general register `i` as a data-processing operand (register 31 reads
/// as zero, matching A64's XZR convention).
fn read_x(e: &mut Emitter, i: u32) -> NodeId {
    if i == 31 {
        e.const_u64(0)
    } else {
        e.load_register(regs::x_off(i), ValueType::U64)
    }
}

/// Reads general register `i` as a base address (register 31 is SP).
fn read_x_sp(e: &mut Emitter, i: u32) -> NodeId {
    e.load_register(regs::x_off(i), ValueType::U64)
}

/// Writes general register `i` (writes to register 31 are discarded, matching
/// XZR as a data-processing destination).
fn write_x(e: &mut Emitter, i: u32, value: NodeId) {
    if i != 31 {
        e.store_register(regs::x_off(i), value);
    }
}

/// Writes register `i` treating 31 as SP (loads/stores with writeback, moves).
fn write_x_sp(e: &mut Emitter, i: u32, value: NodeId) {
    e.store_register(regs::x_off(i), value);
}

/// Reads the low 64 bits of SIMD&FP register `i` as a double.
fn read_d(e: &mut Emitter, i: u32) -> NodeId {
    e.load_register(regs::v_off(i), ValueType::F64)
}

/// Writes the low 64 bits of SIMD&FP register `i` and zeroes the high lane
/// (scalar writes clear the upper bits, as on real hardware).
fn write_d(e: &mut Emitter, i: u32, value: NodeId) {
    e.store_register(regs::v_off(i), value);
    let zero = e.const_u64(0);
    e.store_register_sized(regs::v_off(i) + 8, zero, MemSize::U64);
}

/// Computes and stores NZCV for an add or subtract.
///
/// The flags are folded into one accumulator in V, C, Z, N order rather
/// than computed side by side and combined at the end.  V is the only flag
/// that needs both operands *and* the result, so producing it first lets
/// the operand values die before the remaining flags are materialised; the
/// left-deep accumulator chain then keeps at most five values live where
/// the compute-all-then-combine shape kept eight.  That head-room is what
/// lets unrolled loop bodies coexist with the optimiser's promoted loop
/// carriers inside the eight-register allocator pool.
fn set_nzcv_addsub(e: &mut Emitter, is_sub: bool, rn: NodeId, op2: NodeId, result: NodeId) {
    let v = {
        let a_xor = if is_sub {
            e.binary(BinOp::Xor, rn, op2)
        } else {
            e.binary(BinOp::Xor, rn, result)
        };
        let b_xor = if is_sub {
            e.binary(BinOp::Xor, rn, result)
        } else {
            e.binary(BinOp::Xor, op2, result)
        };
        let both = e.binary(BinOp::And, a_xor, b_xor);
        let c63 = e.const_u64(63);
        e.binary(BinOp::Shr, both, c63)
    };
    let c = if is_sub {
        // Carry = no borrow = rn >= op2 (unsigned).
        e.compare(HCond::Ge, rn, op2)
    } else {
        // Carry = unsigned overflow = result < rn.
        e.compare(HCond::Lt, result, rn)
    };
    let one = e.const_u64(1);
    let c_sh = e.binary(BinOp::Shl, c, one);
    let acc = e.binary(BinOp::Or, v, c_sh);
    let zero = e.const_u64(0);
    let z = e.compare(HCond::Eq, result, zero);
    let two = e.const_u64(2);
    let z_sh = e.binary(BinOp::Shl, z, two);
    let acc = e.binary(BinOp::Or, acc, z_sh);
    let n = e.compare(HCond::SLt, result, zero);
    let three = e.const_u64(3);
    let n_sh = e.binary(BinOp::Shl, n, three);
    let nzcv = e.binary(BinOp::Or, acc, n_sh);
    e.store_register(regs::NZCV_OFF, nzcv);
}

/// Computes and stores NZCV for a logical operation (C and V cleared).
fn set_nzcv_logic(e: &mut Emitter, result: NodeId) {
    let zero = e.const_u64(0);
    let n = e.compare(HCond::SLt, result, zero);
    let z = e.compare(HCond::Eq, result, zero);
    let three = e.const_u64(3);
    let two = e.const_u64(2);
    let n_sh = e.binary(BinOp::Shl, n, three);
    let z_sh = e.binary(BinOp::Shl, z, two);
    let nzcv = e.binary(BinOp::Or, n_sh, z_sh);
    e.store_register(regs::NZCV_OFF, nzcv);
}

/// Evaluates a guest condition code against the stored NZCV, returning a 0/1
/// node.
fn cond_value(e: &mut Emitter, cond: Cond) -> NodeId {
    let nzcv = e.load_register(regs::NZCV_OFF, ValueType::U64);
    let one = e.const_u64(1);
    let bit = |e: &mut Emitter, sh: u64| {
        let s = e.const_u64(sh);
        let v = e.binary(BinOp::Shr, nzcv, s);
        e.binary(BinOp::And, v, one)
    };
    let invert = |e: &mut Emitter, v: NodeId| e.binary(BinOp::Xor, v, one);
    match cond {
        Cond::Eq => bit(e, 2),
        Cond::Ne => {
            let z = bit(e, 2);
            invert(e, z)
        }
        Cond::Cs => bit(e, 1),
        Cond::Cc => {
            let c = bit(e, 1);
            invert(e, c)
        }
        Cond::Mi => bit(e, 3),
        Cond::Pl => {
            let n = bit(e, 3);
            invert(e, n)
        }
        Cond::Vs => bit(e, 0),
        Cond::Vc => {
            let v = bit(e, 0);
            invert(e, v)
        }
        Cond::Hi => {
            let c = bit(e, 1);
            let z = bit(e, 2);
            let nz = invert(e, z);
            e.binary(BinOp::And, c, nz)
        }
        Cond::Ls => {
            let c = bit(e, 1);
            let z = bit(e, 2);
            let nz = invert(e, z);
            let hi = e.binary(BinOp::And, c, nz);
            invert(e, hi)
        }
        Cond::Ge => {
            let n = bit(e, 3);
            let v = bit(e, 0);
            let ne = e.binary(BinOp::Xor, n, v);
            invert(e, ne)
        }
        Cond::Lt => {
            let n = bit(e, 3);
            let v = bit(e, 0);
            e.binary(BinOp::Xor, n, v)
        }
        Cond::Gt => {
            let n = bit(e, 3);
            let v = bit(e, 0);
            let z = bit(e, 2);
            let ge = {
                let ne = e.binary(BinOp::Xor, n, v);
                invert(e, ne)
            };
            let nz = invert(e, z);
            e.binary(BinOp::And, ge, nz)
        }
        Cond::Le => {
            let n = bit(e, 3);
            let v = bit(e, 0);
            let z = bit(e, 2);
            let lt = e.binary(BinOp::Xor, n, v);
            e.binary(BinOp::Or, lt, z)
        }
        Cond::Al => e.const_u64(1),
    }
}

fn alu_binop(kind: AluKind) -> BinOp {
    match kind {
        AluKind::Add => BinOp::Add,
        AluKind::Sub => BinOp::Sub,
        AluKind::And => BinOp::And,
        AluKind::Orr => BinOp::Or,
        AluKind::Eor => BinOp::Xor,
        AluKind::Mul => BinOp::Mul,
        AluKind::UDiv => BinOp::DivU,
        AluKind::SDiv => BinOp::DivS,
        AluKind::UMulH => BinOp::MulHiU,
        AluKind::SMulH => BinOp::MulHiS,
        AluKind::Lsl => BinOp::Shl,
        AluKind::Lsr => BinOp::Shr,
        AluKind::Asr => BinOp::Sar,
    }
}

/// The soft-FP lowering (Section 2.5's QEMU approach, Captive's Section
/// 3.6.2 ablation): every FP arithmetic instruction — `FpReg`, `Fsqrt`,
/// `Fmadd` and the packed `VAdd2D` / `VMul2D` — calls a softfloat helper
/// ([`helpers::SOFT_FP`], [`helpers::SOFT_SQRT`], [`helpers::VEC_OP`],
/// implemented by `sys::GuestSys::helper`); everything else is
/// [`generate`].
pub fn generate_soft_fp(d: &Decoded, e: &mut Emitter) -> bool {
    let bits = |e: &mut Emitter, v: u32| e.load_register(regs::v_off(v), ValueType::U64);
    match d.insn {
        Insn::FpReg { kind, vd, vn, vm } => {
            let op = e.const_u64(match kind {
                FpKind::Add => 0,
                FpKind::Sub => 1,
                FpKind::Mul => 2,
                FpKind::Div => 3,
            });
            let a = bits(e, vn);
            let b = bits(e, vm);
            let r = e.call_helper(helpers::SOFT_FP, &[op, a, b]);
            write_d(e, vd, r);
        }
        Insn::Fsqrt { vd, vn } => {
            let a = bits(e, vn);
            let r = e.call_helper(helpers::SOFT_SQRT, &[a]);
            write_d(e, vd, r);
        }
        Insn::Fmadd { vd, vn, vm, va } => {
            let fma = e.const_u64(4);
            let a = bits(e, vn);
            let b = bits(e, vm);
            let c = bits(e, va);
            let r = e.call_helper(helpers::SOFT_FP, &[fma, a, b, c]);
            write_d(e, vd, r);
        }
        Insn::VAdd2D { vd, vn, vm } | Insn::VMul2D { vd, vn, vm } => {
            let op = e.const_u64(matches!(d.insn, Insn::VMul2D { .. }) as u64);
            let vd_off = e.const_u64(regs::v_off(vd) as u64);
            let vn_off = e.const_u64(regs::v_off(vn) as u64);
            let vm_off = e.const_u64(regs::v_off(vm) as u64);
            e.call_helper(helpers::VEC_OP, &[op, vd_off, vn_off, vm_off]);
        }
        _ => return generate(d, e),
    }
    false
}

/// The generator dispatcher: emits IR for one decoded instruction.  Returns
/// `true` when the instruction ends the basic block.
pub fn generate(d: &Decoded, e: &mut Emitter) -> bool {
    let pc = d.pc;
    match d.insn {
        Insn::Nop => false,
        Insn::Hlt => {
            e.call_helper(helpers::HLT, &[]);
            e.set_end_of_block();
            true
        }
        Insn::Movz { rd, imm16, hw } => {
            let v = e.const_u64((imm16 as u64) << (16 * hw as u64));
            write_x(e, rd, v);
            false
        }
        Insn::Movk { rd, imm16, hw } => {
            let old = read_x(e, rd);
            let mask = e.const_u64(!(0xFFFFu64 << (16 * hw as u64)));
            let keep = e.binary(BinOp::And, old, mask);
            let imm = e.const_u64((imm16 as u64) << (16 * hw as u64));
            let v = e.binary(BinOp::Or, keep, imm);
            write_x(e, rd, v);
            false
        }
        Insn::AluImm {
            kind,
            rd,
            rn,
            imm,
            set_flags,
        } => {
            let a = if kind == AluKind::Add || kind == AluKind::Sub {
                read_x_sp(e, rn)
            } else {
                read_x(e, rn)
            };
            let b = e.const_u64(imm as u64);
            let r = e.binary(alu_binop(kind), a, b);
            if set_flags {
                set_nzcv_addsub(e, kind == AluKind::Sub, a, b, r);
                write_x(e, rd, r);
            } else {
                // Unflagged ADD/SUB immediate may target SP (stack adjustment).
                write_x_sp(e, rd, r);
            }
            false
        }
        Insn::AluReg {
            kind,
            rd,
            rn,
            rm,
            set_flags,
        } => {
            let a = read_x(e, rn);
            let b = read_x(e, rm);
            let r = e.binary(alu_binop(kind), a, b);
            if set_flags {
                match kind {
                    AluKind::Add | AluKind::Sub => {
                        set_nzcv_addsub(e, kind == AluKind::Sub, a, b, r)
                    }
                    _ => set_nzcv_logic(e, r),
                }
            }
            write_x(e, rd, r);
            false
        }
        Insn::ShiftImm { kind, rd, rn, imm } => {
            let a = read_x(e, rn);
            let b = e.const_u64(imm as u64);
            let r = e.binary(alu_binop(kind), a, b);
            write_x(e, rd, r);
            false
        }
        Insn::Load {
            rt,
            rn,
            imm,
            size,
            sext,
        } => {
            let base = read_x_sp(e, rn);
            let off = e.const_u64(imm as u64);
            let addr = e.add(base, off);
            let ty = size_to_type(size);
            let v = e.load_memory(addr, ty, sext);
            let v = if sext { e.sext(v, ty) } else { v };
            write_x(e, rt, v);
            false
        }
        Insn::Store { rt, rn, imm, size } => {
            let base = read_x_sp(e, rn);
            let off = e.const_u64(imm as u64);
            let addr = e.add(base, off);
            let v = read_x(e, rt);
            e.store_memory(addr, v, size_to_type(size));
            false
        }
        Insn::LoadReg { rt, rn, rm } => {
            let base = read_x_sp(e, rn);
            let idx = read_x(e, rm);
            let addr = e.add(base, idx);
            let v = e.load_memory(addr, ValueType::U64, false);
            write_x(e, rt, v);
            false
        }
        Insn::StoreReg { rt, rn, rm } => {
            let base = read_x_sp(e, rn);
            let idx = read_x(e, rm);
            let addr = e.add(base, idx);
            let v = read_x(e, rt);
            e.store_memory(addr, v, ValueType::U64);
            false
        }
        Insn::Ldp { rt, rt2, rn, imm } => {
            let base = read_x_sp(e, rn);
            let off = e.const_u64(imm as i64 as u64);
            let addr = e.add(base, off);
            let v1 = e.load_memory(addr, ValueType::U64, false);
            write_x(e, rt, v1);
            let eight = e.const_u64(8);
            let addr2 = e.add(addr, eight);
            let v2 = e.load_memory(addr2, ValueType::U64, false);
            write_x(e, rt2, v2);
            false
        }
        Insn::Stp { rt, rt2, rn, imm } => {
            let base = read_x_sp(e, rn);
            let off = e.const_u64(imm as i64 as u64);
            let addr = e.add(base, off);
            let v1 = read_x(e, rt);
            e.store_memory(addr, v1, ValueType::U64);
            let eight = e.const_u64(8);
            let addr2 = e.add(addr, eight);
            let v2 = read_x(e, rt2);
            e.store_memory(addr2, v2, ValueType::U64);
            false
        }
        Insn::B { offset } => {
            let target = e.const_u64(pc.wrapping_add(offset as u64));
            e.store_pc(target);
            true
        }
        Insn::Bl { offset } => {
            let link = e.const_u64(pc.wrapping_add(4));
            write_x(e, 30, link);
            let target = e.const_u64(pc.wrapping_add(offset as u64));
            e.store_pc(target);
            true
        }
        Insn::BCond { cond, offset } => {
            let c = cond_value(e, cond);
            e.branch_cond(c, pc.wrapping_add(offset as u64), pc.wrapping_add(4));
            true
        }
        Insn::Cbz { rt, offset } => {
            let v = read_x(e, rt);
            let zero = e.const_u64(0);
            let c = e.compare(HCond::Eq, v, zero);
            e.branch_cond(c, pc.wrapping_add(offset as u64), pc.wrapping_add(4));
            true
        }
        Insn::Cbnz { rt, offset } => {
            let v = read_x(e, rt);
            let zero = e.const_u64(0);
            let c = e.compare(HCond::Ne, v, zero);
            e.branch_cond(c, pc.wrapping_add(offset as u64), pc.wrapping_add(4));
            true
        }
        Insn::Br { rn } | Insn::Ret { rn } => {
            let t = read_x(e, rn);
            e.store_pc(t);
            true
        }
        Insn::Blr { rn } => {
            let t = read_x(e, rn);
            let link = e.const_u64(pc.wrapping_add(4));
            write_x(e, 30, link);
            e.store_pc(t);
            true
        }
        Insn::Svc { imm } => {
            let class = e.const_u64(regs::esr_class::SVC);
            let iss = e.const_u64(imm as u64);
            let ret_pc = e.const_u64(pc.wrapping_add(4));
            e.call_helper(helpers::TAKE_EXCEPTION, &[class, iss, ret_pc]);
            e.set_end_of_block();
            true
        }
        Insn::Mrs { rt, sysreg } => {
            if let Some(sr) = SysReg::from_id(sysreg) {
                let v = e.load_register(sr.offset(), ValueType::U64);
                write_x(e, rt, v);
            }
            false
        }
        Insn::Msr { sysreg, rt } => {
            if let Some(sr) = SysReg::from_id(sysreg) {
                let v = read_x(e, rt);
                e.store_register(sr.offset(), v);
                let id = e.const_u64(sysreg as u64);
                e.call_helper(helpers::MSR_NOTIFY, &[id]);
            }
            // System register writes can change translation state; end the
            // block so the dispatcher re-evaluates the environment.
            e.inc_pc(4);
            e.set_end_of_block();
            true
        }
        Insn::Tlbi => {
            e.call_helper(helpers::TLBI, &[]);
            e.inc_pc(4);
            e.set_end_of_block();
            true
        }
        Insn::Eret => {
            e.call_helper(helpers::ERET, &[]);
            e.set_end_of_block();
            true
        }
        Insn::FmovImm { vd, imm8 } => {
            let bits = e.const_f64_bits(expand_fp_imm8(imm8));
            write_d(e, vd, bits);
            false
        }
        Insn::FpReg { kind, vd, vn, vm } => {
            let a = read_d(e, vn);
            let b = read_d(e, vm);
            let op = match kind {
                FpKind::Add => FpBinOp::Add,
                FpKind::Sub => FpBinOp::Sub,
                FpKind::Mul => FpBinOp::Mul,
                FpKind::Div => FpBinOp::Div,
            };
            let r = e.fp_binary(op, a, b);
            write_d(e, vd, r);
            false
        }
        Insn::Fsqrt { vd, vn } => {
            // Host square root plus the inline bit-accuracy fix-up of Table 2:
            // for negative (non-zero) inputs the Arm result is the positive
            // default NaN, whereas the host produces a negative NaN.
            let a = read_d(e, vn);
            let root = e.fp_sqrt(a);
            let root_bits = e.fp_to_gpr(root);
            let in_bits = e.fp_to_gpr(a);
            let minus_zero = e.const_u64(0x8000_0000_0000_0000);
            let is_neg = e.compare(HCond::Gt, in_bits, minus_zero);
            let default_nan = e.const_u64(0x7FF8_0000_0000_0000);
            let fixed = e.select(is_neg, default_nan, root_bits);
            let result = e.gpr_to_fp(fixed);
            write_d(e, vd, result);
            false
        }
        Insn::Fcmp { vn, vm } => {
            let a = read_d(e, vn);
            let b = read_d(e, vm);
            let ab = e.fp_to_gpr(a);
            let bb = e.fp_to_gpr(b);
            let nzcv = e.call_helper(helpers::FCMP, &[ab, bb]);
            e.store_register(regs::NZCV_OFF, nzcv);
            false
        }
        Insn::FmovToGpr { rd, vn } => {
            let v = read_d(e, vn);
            let bits = e.fp_to_gpr(v);
            write_x(e, rd, bits);
            false
        }
        Insn::FmovFromGpr { vd, rn } => {
            let v = read_x(e, rn);
            let bits = e.gpr_to_fp(v);
            write_d(e, vd, bits);
            false
        }
        Insn::Scvtf { vd, rn } => {
            let v = read_x(e, rn);
            let f = e.int_to_fp(v);
            write_d(e, vd, f);
            false
        }
        Insn::Fcvtzs { rd, vn } => {
            let v = read_d(e, vn);
            let i = e.fp_to_int(v);
            write_x(e, rd, i);
            false
        }
        Insn::Fmadd { vd, vn, vm, va } => {
            let a = read_d(e, vn);
            let b = read_d(e, vm);
            let c = read_d(e, va);
            let r = e.fp_mul_add(a, b, c);
            write_d(e, vd, r);
            false
        }
        Insn::LoadFp { vt, rn, imm, size } => {
            let base = read_x_sp(e, rn);
            let off = e.const_u64(imm as u64);
            let addr = e.add(base, off);
            let ty = size_to_type(size);
            let v = e.load_memory(
                addr,
                if size == AccessSize::Quad {
                    ValueType::V128
                } else {
                    ValueType::F64
                },
                false,
            );
            if size == AccessSize::Quad {
                e.store_register_sized(regs::v_off(vt), v, MemSize::U128);
            } else {
                write_d(e, vt, v);
            }
            let _ = ty;
            false
        }
        Insn::StoreFp { vt, rn, imm, size } => {
            let base = read_x_sp(e, rn);
            let off = e.const_u64(imm as u64);
            let addr = e.add(base, off);
            if size == AccessSize::Quad {
                let v = e.load_register(regs::v_off(vt), ValueType::V128);
                e.store_memory(addr, v, ValueType::V128);
            } else {
                let v = read_d(e, vt);
                e.store_memory(addr, v, ValueType::F64);
            }
            false
        }
        Insn::VAdd2D { vd, vn, vm } => {
            let a = e.load_register(regs::v_off(vn), ValueType::V128);
            let b = e.load_register(regs::v_off(vm), ValueType::V128);
            let r = e.vec_binary(VecOp::AddPd, a, b);
            e.store_register_sized(regs::v_off(vd), r, MemSize::U128);
            false
        }
        Insn::VMul2D { vd, vn, vm } => {
            let a = e.load_register(regs::v_off(vn), ValueType::V128);
            let b = e.load_register(regs::v_off(vm), ValueType::V128);
            let r = e.vec_binary(VecOp::MulPd, a, b);
            e.store_register_sized(regs::v_off(vd), r, MemSize::U128);
            false
        }
        Insn::Dup2D { vd, rn } => {
            let v = read_x(e, rn);
            let x = e.gpr_to_fp(v);
            let r = e.vec_binary(VecOp::Dup64, x, x);
            e.store_register_sized(regs::v_off(vd), r, MemSize::U128);
            false
        }
        Insn::Csel { rd, rn, rm, cond } => {
            let c = cond_value(e, cond);
            let a = read_x(e, rn);
            let b = read_x(e, rm);
            let r = e.select(c, a, b);
            write_x(e, rd, r);
            false
        }
        Insn::Adr { rd, offset } => {
            let v = e.const_u64(pc.wrapping_add(offset as u64));
            write_x(e, rd, v);
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm;
    use dbt::lir::LirInsn;

    fn translate(word: u32, pc: u64) -> (Vec<LirInsn>, bool) {
        let isa = Aarch64Isa;
        let d = isa.decode(word, pc).expect("decode");
        let mut e = Emitter::new();
        let end = generate(&d, &mut e);
        if !end {
            e.inc_pc(4);
        }
        (e.finish(), end)
    }

    #[test]
    fn add_register_translation_shape() {
        let (lir, end) = translate(asm::add(0, 1, 2), 0x1000);
        assert!(!end);
        // Loads of x1 and x2, an add, a store to x0, a PC increment.
        assert!(lir
            .iter()
            .any(|i| matches!(i, LirInsn::Load { addr, .. } if addr.disp == 8)));
        assert!(lir
            .iter()
            .any(|i| matches!(i, LirInsn::Load { addr, .. } if addr.disp == 16)));
        assert!(lir
            .iter()
            .any(|i| matches!(i, LirInsn::Store { addr, .. } if addr.disp == 0)));
        assert!(lir.iter().any(|i| matches!(i, LirInsn::IncPc { imm: 4 })));
    }

    #[test]
    fn fmul_uses_host_fp_not_helpers() {
        let (lir, _) = translate(asm::fmul(0, 1, 2), 0x1000);
        assert!(lir.iter().any(|i| matches!(i, LirInsn::Fp { .. })));
        assert!(!lir.iter().any(|i| matches!(i, LirInsn::CallHelper { .. })));
    }

    #[test]
    fn fsqrt_emits_inline_fixup_not_helper() {
        let (lir, _) = translate(asm::fsqrt(0, 1), 0x1000);
        assert!(lir.iter().any(|i| matches!(
            i,
            LirInsn::Fp {
                op: hvm::FpOp::SqrtD,
                ..
            }
        )));
        assert!(
            lir.iter().any(|i| matches!(i, LirInsn::CmovCc { .. })),
            "fix-up select"
        );
        assert!(!lir.iter().any(|i| matches!(i, LirInsn::CallHelper { .. })));
    }

    #[test]
    fn branches_end_the_block_and_set_pc() {
        let (lir, end) = translate(asm::b(-16), 0x2000);
        assert!(end);
        assert!(lir
            .iter()
            .any(|i| matches!(i, LirInsn::SetPcImm { imm } if *imm == 0x2000 - 16)));

        let (lir, end) = translate(asm::bcond(Cond::Ne, 32), 0x2000);
        assert!(end);
        let sets: Vec<u64> = lir
            .iter()
            .filter_map(|i| match i {
                LirInsn::SetPcImm { imm } => Some(*imm),
                _ => None,
            })
            .collect();
        assert!(sets.contains(&(0x2000 + 32)));
        assert!(sets.contains(&(0x2000 + 4)));
    }

    #[test]
    fn svc_goes_through_the_exception_helper() {
        let (lir, end) = translate(asm::svc(7), 0x3000);
        assert!(end);
        assert!(lir.iter().any(
            |i| matches!(i, LirInsn::CallHelper { helper } if *helper == helpers::TAKE_EXCEPTION)
        ));
    }

    #[test]
    fn xzr_semantics() {
        // add x0, x31, x31 → x0 = 0; the generator folds the zero operands.
        let (lir, _) = translate(asm::add(0, 31, 31), 0x1000);
        assert!(
            lir.iter()
                .any(|i| matches!(i, LirInsn::StoreImm { imm: 0, addr, .. } if addr.disp == 0)),
            "constant-folded zero store, got {lir:?}"
        );
        // Writes to x31 as a data-processing destination are discarded.
        let (lir, _) = translate(asm::add(31, 1, 2), 0x1000);
        assert!(!lir
            .iter()
            .any(|i| matches!(i, LirInsn::Store { addr, .. } if addr.disp == 248)));
    }

    #[test]
    fn movz_movk_build_constants() {
        let (lir, _) = translate(asm::movz(5, 0xBEEF, 1), 0x1000);
        assert!(lir.iter().any(
            |i| matches!(i, LirInsn::StoreImm { imm, addr, .. } if *imm == 0xBEEF_0000 && addr.disp == 40)
        ));
    }
}
