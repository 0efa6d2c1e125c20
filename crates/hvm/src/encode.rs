//! Binary encoding of HVM64 instructions.
//!
//! The JIT's final phase lowers register-allocated instructions into this
//! byte format (the analogue of x86-64 machine code emission in the paper),
//! which is what makes the "bytes of host code per guest instruction"
//! statistic of Section 3.4 measurable.  The format is not x86, but its
//! operand sizes are chosen to match x86-64 closely: one opcode byte,
//! one byte per register, a mode byte plus 1/4 bytes of displacement for
//! memory operands, 4-byte branch offsets and 4- or 8-byte immediates.
//!
//! The bytes are a size model and nothing decodes them: the machine runs
//! the [`MachInsn`] values themselves, and only the length of an encoding
//! (and, in `golden_pipeline`, its digest) is ever read.

use crate::insn::{AluOp, Cond, FpOp, Gpr, MachInsn, MemRef, MemSize, Operand, VecOp, Xmm};

fn size_code(s: MemSize) -> u8 {
    match s {
        MemSize::U8 => 0,
        MemSize::U16 => 1,
        MemSize::U32 => 2,
        MemSize::U64 => 3,
        MemSize::U128 => 4,
    }
}

fn alu_code(op: AluOp) -> u8 {
    match op {
        AluOp::Add => 0,
        AluOp::Sub => 1,
        AluOp::And => 2,
        AluOp::Or => 3,
        AluOp::Xor => 4,
        AluOp::Mul => 5,
        AluOp::MulHiU => 6,
        AluOp::MulHiS => 7,
        AluOp::DivU => 8,
        AluOp::DivS => 9,
        AluOp::Shl => 12,
        AluOp::Shr => 13,
        AluOp::Sar => 14,
    }
}

fn cond_code(c: Cond) -> u8 {
    match c {
        Cond::Eq => 0,
        Cond::Ne => 1,
        Cond::Lt => 2,
        Cond::Le => 3,
        Cond::Ge => 4,
        Cond::Gt => 5,
        Cond::SLt => 6,
        Cond::SLe => 7,
        Cond::SGe => 8,
        Cond::SGt => 9,
        Cond::Mi => 10,
        Cond::Pl => 11,
        Cond::Vs => 12,
        Cond::Vc => 13,
    }
}

fn fp_code(op: FpOp) -> u8 {
    match op {
        FpOp::AddD => 0,
        FpOp::SubD => 1,
        FpOp::MulD => 2,
        FpOp::DivD => 3,
        FpOp::SqrtD => 4,
    }
}

fn vec_code(op: VecOp) -> u8 {
    match op {
        VecOp::AddPd => 4,
        VecOp::MulPd => 5,
        VecOp::Dup64 => 10,
    }
}

/// A byte writer used by the encoder.
struct Writer<'a>(&'a mut Vec<u8>);

impl Writer<'_> {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn i32(&mut self, v: i32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn gpr(&mut self, r: Gpr) {
        self.u8(r.index());
    }
    fn xmm(&mut self, x: Xmm) {
        self.u8(x.0);
    }
    fn mem(&mut self, m: &MemRef) {
        // Mode byte: bit0 = has index, bit1 = disp fits in i8, bit2 = disp is
        // zero.  This mirrors x86's disp0/disp8/disp32 encodings.
        let disp = m.disp();
        let disp_zero = disp == 0;
        let disp8 = i8::try_from(disp).is_ok();
        let index = m.index();
        let mode = (index.is_some() as u8) | ((disp8 as u8) << 1) | ((disp_zero as u8) << 2);
        self.u8(mode);
        self.gpr(m.base);
        if let Some((idx, scale)) = index {
            self.u8(idx.index() | (scale.trailing_zeros() as u8) << 6);
        }
        if !disp_zero {
            if disp8 {
                self.u8(disp as i8 as u8);
            } else {
                self.i32(disp);
            }
        }
    }
    fn operand(&mut self, o: Operand) {
        match o {
            Operand::Reg(r) => {
                self.u8(0);
                self.gpr(r);
            }
            Operand::Imm(v) => {
                let v = v.get();
                if v as i64 >= i32::MIN as i64 && v as i64 <= i32::MAX as i64 {
                    self.u8(1);
                    self.i32(v as i64 as i32);
                } else {
                    self.u8(2);
                    self.u64(v);
                }
            }
        }
    }
}

/// Encodes one instruction, appending its bytes to `out`.  Returns the number
/// of bytes written.
pub fn encode(insn: &MachInsn, out: &mut Vec<u8>) -> usize {
    let start = out.len();
    let mut w = Writer(out);
    match insn {
        MachInsn::MovImm { dst, imm } => {
            w.u8(0x01);
            w.gpr(*dst);
            w.u64(*imm);
        }
        MachInsn::MovReg { dst, src } => {
            w.u8(0x02);
            w.gpr(*dst);
            w.gpr(*src);
        }
        MachInsn::Load { dst, addr, size } => {
            w.u8(0x03);
            w.u8(size_code(*size));
            w.gpr(*dst);
            w.mem(addr);
        }
        MachInsn::LoadSx { dst, addr, size } => {
            w.u8(0x04);
            w.u8(size_code(*size));
            w.gpr(*dst);
            w.mem(addr);
        }
        MachInsn::Store { src, addr, size } => {
            w.u8(0x05);
            w.u8(size_code(*size));
            w.gpr(*src);
            w.mem(addr);
        }
        MachInsn::StoreImm { imm, addr, size } => {
            w.u8(0x06);
            w.u8(size_code(*size));
            w.u64(*imm);
            w.mem(addr);
        }
        MachInsn::Lea { dst, addr } => {
            w.u8(0x07);
            w.gpr(*dst);
            w.mem(addr);
        }
        MachInsn::Alu { op, dst, src } => {
            w.u8(0x08);
            w.u8(alu_code(*op));
            w.gpr(*dst);
            w.operand(*src);
        }
        MachInsn::Cmp { a, b } => {
            w.u8(0x09);
            w.gpr(*a);
            w.operand(*b);
        }
        MachInsn::Test { a, b } => {
            w.u8(0x0A);
            w.gpr(*a);
            w.operand(*b);
        }
        MachInsn::Neg { dst } => {
            w.u8(0x0B);
            w.gpr(*dst);
        }
        MachInsn::Not { dst } => {
            w.u8(0x0C);
            w.gpr(*dst);
        }
        MachInsn::MovZx { dst, src, size } => {
            w.u8(0x0D);
            w.u8(size_code(*size));
            w.gpr(*dst);
            w.gpr(*src);
        }
        MachInsn::MovSx { dst, src, size } => {
            w.u8(0x0E);
            w.u8(size_code(*size));
            w.gpr(*dst);
            w.gpr(*src);
        }
        MachInsn::SetCc { cond, dst } => {
            w.u8(0x0F);
            w.u8(cond_code(*cond));
            w.gpr(*dst);
        }
        MachInsn::CmovCc { cond, dst, src } => {
            w.u8(0x10);
            w.u8(cond_code(*cond));
            w.gpr(*dst);
            w.gpr(*src);
        }
        MachInsn::Jmp { target } => {
            w.u8(0x11);
            w.i32(*target);
        }
        MachInsn::Jcc { cond, target } => {
            w.u8(0x12);
            w.u8(cond_code(*cond));
            w.i32(*target);
        }
        MachInsn::CallHelper { helper } => {
            w.u8(0x13);
            w.u8((*helper & 0xFF) as u8);
            w.u8((*helper >> 8) as u8);
            // Real call instructions carry a 4-byte displacement; pad so the
            // code-size statistics stay comparable.
            w.i32(0);
        }
        MachInsn::Ret => w.u8(0x14),
        MachInsn::LoadXmm { dst, addr, size } => {
            w.u8(0x15);
            w.u8(size_code(*size));
            w.xmm(*dst);
            w.mem(addr);
        }
        MachInsn::StoreXmm { src, addr, size } => {
            w.u8(0x16);
            w.u8(size_code(*size));
            w.xmm(*src);
            w.mem(addr);
        }
        MachInsn::MovGprToXmm { dst, src } => {
            w.u8(0x17);
            w.xmm(*dst);
            w.gpr(*src);
        }
        MachInsn::MovXmmToGpr { dst, src } => {
            w.u8(0x18);
            w.gpr(*dst);
            w.xmm(*src);
        }
        MachInsn::Fp { op, dst, src } => {
            w.u8(0x19);
            w.u8(fp_code(*op));
            w.xmm(*dst);
            w.xmm(*src);
        }
        MachInsn::FpFma { dst, a, b } => {
            w.u8(0x1A);
            w.xmm(*dst);
            w.xmm(*a);
            w.xmm(*b);
        }
        MachInsn::FpCmp { a, b } => {
            w.u8(0x1B);
            w.xmm(*a);
            w.xmm(*b);
        }
        MachInsn::CvtI2D { dst, src } => {
            w.u8(0x1C);
            w.xmm(*dst);
            w.gpr(*src);
        }
        MachInsn::CvtD2I { dst, src } => {
            w.u8(0x1D);
            w.gpr(*dst);
            w.xmm(*src);
        }
        MachInsn::Vec { op, dst, src } => {
            w.u8(0x20);
            w.u8(vec_code(*op));
            w.xmm(*dst);
            w.xmm(*src);
        }
        MachInsn::TraceEdge => w.u8(0x2D),
        MachInsn::BackEdge {
            pc,
            target,
            reconcile,
        } => {
            w.u8(0x2E);
            w.u8(*reconcile as u8);
            w.u64(*pc);
            w.i32(*target);
        }
        MachInsn::MovXmm { dst, src, size } => {
            w.u8(0x2F);
            w.u8(size_code(*size));
            w.xmm(*dst);
            w.xmm(*src);
        }
    }
    out.len() - start
}

/// Encodes a whole block of instructions, returning the byte buffer.
pub fn encode_block(insns: &[MachInsn]) -> Vec<u8> {
    let mut out = Vec::with_capacity(insns.len() * 6);
    for i in insns {
        encode(i, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_insns() -> Vec<MachInsn> {
        vec![
            MachInsn::MovImm {
                dst: Gpr::Rax,
                imm: 0x3FF8_0000_0000_0000,
            },
            MachInsn::MovReg {
                dst: Gpr::Rbx,
                src: Gpr::R9,
            },
            MachInsn::Load {
                dst: Gpr::Rcx,
                addr: MemRef::base_disp(Gpr::Rbp, 0x100),
                size: MemSize::U64,
            },
            MachInsn::LoadSx {
                dst: Gpr::Rcx,
                addr: MemRef::base_index(Gpr::Rbp, Gpr::Rdx, 8, -16),
                size: MemSize::U16,
            },
            MachInsn::Store {
                src: Gpr::Rdi,
                addr: MemRef::base(Gpr::Rsi),
                size: MemSize::U8,
            },
            MachInsn::StoreImm {
                imm: 0,
                addr: MemRef::base_disp(Gpr::Rbp, 0x108),
                size: MemSize::U64,
            },
            MachInsn::Lea {
                dst: Gpr::R8,
                addr: MemRef::base_disp(Gpr::R15, 4),
            },
            MachInsn::Alu {
                op: AluOp::Add,
                dst: Gpr::Rax,
                src: Operand::imm(1),
            },
            MachInsn::Alu {
                op: AluOp::Shl,
                dst: Gpr::Rax,
                src: Operand::Reg(Gpr::Rcx),
            },
            MachInsn::Alu {
                op: AluOp::Xor,
                dst: Gpr::Rdx,
                src: Operand::imm(0xDEAD_BEEF_CAFE_F00D),
            },
            MachInsn::Cmp {
                a: Gpr::Rax,
                b: Operand::imm(42),
            },
            MachInsn::Test {
                a: Gpr::Rax,
                b: Operand::Reg(Gpr::Rax),
            },
            MachInsn::Neg { dst: Gpr::R10 },
            MachInsn::Not { dst: Gpr::R11 },
            MachInsn::MovZx {
                dst: Gpr::Rax,
                src: Gpr::Rbx,
                size: MemSize::U32,
            },
            MachInsn::MovSx {
                dst: Gpr::Rax,
                src: Gpr::Rbx,
                size: MemSize::U8,
            },
            MachInsn::SetCc {
                cond: Cond::SLt,
                dst: Gpr::Rax,
            },
            MachInsn::CmovCc {
                cond: Cond::Ne,
                dst: Gpr::Rax,
                src: Gpr::Rcx,
            },
            MachInsn::Jmp { target: -3 },
            MachInsn::Jcc {
                cond: Cond::Eq,
                target: 7,
            },
            MachInsn::CallHelper { helper: 0x1234 },
            MachInsn::Ret,
            MachInsn::LoadXmm {
                dst: Xmm(0),
                addr: MemRef::base_disp(Gpr::Rbp, 0x110),
                size: MemSize::U64,
            },
            MachInsn::StoreXmm {
                src: Xmm(1),
                addr: MemRef::base_disp(Gpr::Rbp, 0x120),
                size: MemSize::U128,
            },
            MachInsn::MovGprToXmm {
                dst: Xmm(2),
                src: Gpr::Rax,
            },
            MachInsn::MovXmmToGpr {
                dst: Gpr::Rax,
                src: Xmm(3),
            },
            MachInsn::Fp {
                op: FpOp::MulD,
                dst: Xmm(0),
                src: Xmm(1),
            },
            MachInsn::FpFma {
                dst: Xmm(0),
                a: Xmm(1),
                b: Xmm(2),
            },
            MachInsn::FpCmp {
                a: Xmm(0),
                b: Xmm(1),
            },
            MachInsn::CvtI2D {
                dst: Xmm(0),
                src: Gpr::Rax,
            },
            MachInsn::CvtD2I {
                dst: Gpr::Rax,
                src: Xmm(0),
            },
            MachInsn::Vec {
                op: VecOp::MulPd,
                dst: Xmm(4),
                src: Xmm(5),
            },
            MachInsn::TraceEdge,
            MachInsn::BackEdge {
                pc: 0x1000,
                target: -9,
                reconcile: false,
            },
            MachInsn::BackEdge {
                pc: 0x2000,
                target: -3,
                reconcile: true,
            },
            MachInsn::MovXmm {
                dst: Xmm(4),
                src: Xmm(5),
                size: MemSize::U64,
            },
            MachInsn::MovXmm {
                dst: Xmm(6),
                src: Xmm(7),
                size: MemSize::U128,
            },
        ]
    }

    #[test]
    fn every_sample_encodes_to_a_byte_string_of_its_own() {
        // `encode` reports exactly the bytes it appended, and no two
        // different instructions share an encoding: what the code-size
        // statistics and `golden_pipeline`'s digests of encoded blocks rely on.
        let insns = sample_insns();
        let mut out = Vec::new();
        let mut seen = std::collections::HashMap::new();
        for insn in &insns {
            let start = out.len();
            let n = encode(insn, &mut out);
            assert!(n > 0, "{insn:?}");
            assert_eq!(out.len() - start, n, "{insn:?}");
            if let Some(other) = seen.insert(out[start..].to_vec(), insn) {
                panic!("{insn:?} encodes like {other:?}");
            }
        }
        assert_eq!(encode_block(&insns), out);
    }

    #[test]
    fn encoding_sizes_resemble_x86() {
        let mut buf = Vec::new();
        // movabs imm64 into a register is 10 bytes on x86-64.
        let n = encode(
            &MachInsn::MovImm {
                dst: Gpr::Rax,
                imm: u64::MAX,
            },
            &mut buf,
        );
        assert_eq!(n, 10);
        // A register-register move is tiny.
        buf.clear();
        let n = encode(
            &MachInsn::MovReg {
                dst: Gpr::Rax,
                src: Gpr::Rbx,
            },
            &mut buf,
        );
        assert_eq!(n, 3);
        // A load with a small displacement uses the disp8 form.
        buf.clear();
        let small = encode(
            &MachInsn::Load {
                dst: Gpr::Rax,
                addr: MemRef::base_disp(Gpr::Rbp, 0x10),
                size: MemSize::U64,
            },
            &mut buf,
        );
        buf.clear();
        let large = encode(
            &MachInsn::Load {
                dst: Gpr::Rax,
                addr: MemRef::base_disp(Gpr::Rbp, 0x1000),
                size: MemSize::U64,
            },
            &mut buf,
        );
        assert!(small < large);
    }
}
