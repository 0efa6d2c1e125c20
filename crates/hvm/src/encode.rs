//! Binary encoding of HVM64 instructions.
//!
//! The JIT's final phase lowers register-allocated instructions into this
//! byte format (the analogue of x86-64 machine code emission in the paper),
//! which is what makes the "bytes of host code per guest instruction"
//! statistic of Section 3.4 measurable.  The format is not x86, but its
//! operand sizes are chosen to match x86-64 closely: one opcode byte,
//! one byte per register, a mode byte plus 1/4 bytes of displacement for
//! memory operands, 4-byte branch offsets and 4- or 8-byte immediates.

use crate::insn::{AluOp, Cond, FpOp, Gpr, MachInsn, MemRef, MemSize, Operand, VecOp, Xmm};

/// Encoding/decoding error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Ran out of bytes while decoding.
    Truncated,
    /// An opcode or field value is not valid.
    Invalid(u8),
}

fn size_code(s: MemSize) -> u8 {
    match s {
        MemSize::U8 => 0,
        MemSize::U16 => 1,
        MemSize::U32 => 2,
        MemSize::U64 => 3,
        MemSize::U128 => 4,
    }
}

fn size_from(c: u8) -> Result<MemSize, CodecError> {
    Ok(match c {
        0 => MemSize::U8,
        1 => MemSize::U16,
        2 => MemSize::U32,
        3 => MemSize::U64,
        4 => MemSize::U128,
        v => return Err(CodecError::Invalid(v)),
    })
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

fn alu_from(c: u8) -> Result<AluOp, CodecError> {
    Ok(match c {
        0 => AluOp::Add,
        1 => AluOp::Sub,
        2 => AluOp::And,
        3 => AluOp::Or,
        4 => AluOp::Xor,
        5 => AluOp::Mul,
        6 => AluOp::MulHiU,
        7 => AluOp::MulHiS,
        8 => AluOp::DivU,
        9 => AluOp::DivS,
        12 => AluOp::Shl,
        13 => AluOp::Shr,
        14 => AluOp::Sar,
        v => return Err(CodecError::Invalid(v)),
    })
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

fn cond_from(c: u8) -> Result<Cond, CodecError> {
    Ok(match c {
        0 => Cond::Eq,
        1 => Cond::Ne,
        2 => Cond::Lt,
        3 => Cond::Le,
        4 => Cond::Ge,
        5 => Cond::Gt,
        6 => Cond::SLt,
        7 => Cond::SLe,
        8 => Cond::SGe,
        9 => Cond::SGt,
        10 => Cond::Mi,
        11 => Cond::Pl,
        12 => Cond::Vs,
        13 => Cond::Vc,
        v => return Err(CodecError::Invalid(v)),
    })
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

fn fp_from(c: u8) -> Result<FpOp, CodecError> {
    Ok(match c {
        0 => FpOp::AddD,
        1 => FpOp::SubD,
        2 => FpOp::MulD,
        3 => FpOp::DivD,
        4 => FpOp::SqrtD,
        v => return Err(CodecError::Invalid(v)),
    })
}

fn vec_code(op: VecOp) -> u8 {
    match op {
        VecOp::AddPd => 4,
        VecOp::MulPd => 5,
        VecOp::Dup64 => 10,
    }
}

fn vec_from(c: u8) -> Result<VecOp, CodecError> {
    Ok(match c {
        4 => VecOp::AddPd,
        5 => VecOp::MulPd,
        10 => VecOp::Dup64,
        v => return Err(CodecError::Invalid(v)),
    })
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
        let disp_zero = m.disp == 0;
        let disp8 = i8::try_from(m.disp).is_ok();
        let mode = (m.index.is_some() as u8) | ((disp8 as u8) << 1) | ((disp_zero as u8) << 2);
        self.u8(mode);
        self.gpr(m.base);
        if let Some((idx, scale)) = m.index {
            self.u8(idx.index() | (scale.trailing_zeros() as u8) << 6);
        }
        if !disp_zero {
            if disp8 {
                self.u8(m.disp as i8 as u8);
            } else {
                self.i32(m.disp);
            }
        }
    }
    fn operand(&mut self, o: &Operand) {
        match o {
            Operand::Reg(r) => {
                self.u8(0);
                self.gpr(*r);
            }
            Operand::Imm(v) => {
                if *v as i64 >= i32::MIN as i64 && *v as i64 <= i32::MAX as i64 {
                    self.u8(1);
                    self.i32(*v as i64 as i32);
                } else {
                    self.u8(2);
                    self.u64(*v);
                }
            }
        }
    }
}

/// A byte reader used by the decoder.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn u8(&mut self) -> Result<u8, CodecError> {
        let v = *self.buf.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(v)
    }
    fn i32(&mut self) -> Result<i32, CodecError> {
        let b = self
            .buf
            .get(self.pos..self.pos + 4)
            .ok_or(CodecError::Truncated)?;
        self.pos += 4;
        Ok(i32::from_le_bytes(b.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self
            .buf
            .get(self.pos..self.pos + 8)
            .ok_or(CodecError::Truncated)?;
        self.pos += 8;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }
    fn gpr(&mut self) -> Result<Gpr, CodecError> {
        let v = self.u8()?;
        Gpr::from_index(v).ok_or(CodecError::Invalid(v))
    }
    fn xmm(&mut self) -> Result<Xmm, CodecError> {
        let v = self.u8()?;
        if v < Xmm::COUNT {
            Ok(Xmm(v))
        } else {
            Err(CodecError::Invalid(v))
        }
    }
    fn mem(&mut self) -> Result<MemRef, CodecError> {
        let mode = self.u8()?;
        let base = self.gpr()?;
        let index = if mode & 1 != 0 {
            let b = self.u8()?;
            let reg = Gpr::from_index(b & 0x3F).ok_or(CodecError::Invalid(b))?;
            let scale = 1u8 << (b >> 6);
            Some((reg, scale))
        } else {
            None
        };
        let disp = if mode & 4 != 0 {
            0
        } else if mode & 2 != 0 {
            self.u8()? as i8 as i32
        } else {
            self.i32()?
        };
        Ok(MemRef { base, index, disp })
    }
    fn operand(&mut self) -> Result<Operand, CodecError> {
        match self.u8()? {
            0 => Ok(Operand::Reg(self.gpr()?)),
            1 => Ok(Operand::Imm(self.i32()? as i64 as u64)),
            2 => Ok(Operand::Imm(self.u64()?)),
            v => Err(CodecError::Invalid(v)),
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
            w.operand(src);
        }
        MachInsn::Cmp { a, b } => {
            w.u8(0x09);
            w.gpr(*a);
            w.operand(b);
        }
        MachInsn::Test { a, b } => {
            w.u8(0x0A);
            w.gpr(*a);
            w.operand(b);
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

/// Decodes one instruction starting at `buf[*pos]`, advancing `pos`.
pub fn decode(buf: &[u8], pos: &mut usize) -> Result<MachInsn, CodecError> {
    let mut r = Reader { buf, pos: *pos };
    let op = r.u8()?;
    let insn = match op {
        0x01 => MachInsn::MovImm {
            dst: r.gpr()?,
            imm: r.u64()?,
        },
        0x02 => MachInsn::MovReg {
            dst: r.gpr()?,
            src: r.gpr()?,
        },
        0x03 => {
            let size = size_from(r.u8()?)?;
            MachInsn::Load {
                dst: r.gpr()?,
                addr: r.mem()?,
                size,
            }
        }
        0x04 => {
            let size = size_from(r.u8()?)?;
            MachInsn::LoadSx {
                dst: r.gpr()?,
                addr: r.mem()?,
                size,
            }
        }
        0x05 => {
            let size = size_from(r.u8()?)?;
            MachInsn::Store {
                src: r.gpr()?,
                addr: r.mem()?,
                size,
            }
        }
        0x06 => {
            let size = size_from(r.u8()?)?;
            MachInsn::StoreImm {
                imm: r.u64()?,
                addr: r.mem()?,
                size,
            }
        }
        0x07 => MachInsn::Lea {
            dst: r.gpr()?,
            addr: r.mem()?,
        },
        0x08 => {
            let op = alu_from(r.u8()?)?;
            MachInsn::Alu {
                op,
                dst: r.gpr()?,
                src: r.operand()?,
            }
        }
        0x09 => MachInsn::Cmp {
            a: r.gpr()?,
            b: r.operand()?,
        },
        0x0A => MachInsn::Test {
            a: r.gpr()?,
            b: r.operand()?,
        },
        0x0B => MachInsn::Neg { dst: r.gpr()? },
        0x0C => MachInsn::Not { dst: r.gpr()? },
        0x0D => {
            let size = size_from(r.u8()?)?;
            MachInsn::MovZx {
                dst: r.gpr()?,
                src: r.gpr()?,
                size,
            }
        }
        0x0E => {
            let size = size_from(r.u8()?)?;
            MachInsn::MovSx {
                dst: r.gpr()?,
                src: r.gpr()?,
                size,
            }
        }
        0x0F => MachInsn::SetCc {
            cond: cond_from(r.u8()?)?,
            dst: r.gpr()?,
        },
        0x10 => MachInsn::CmovCc {
            cond: cond_from(r.u8()?)?,
            dst: r.gpr()?,
            src: r.gpr()?,
        },
        0x11 => MachInsn::Jmp { target: r.i32()? },
        0x12 => MachInsn::Jcc {
            cond: cond_from(r.u8()?)?,
            target: r.i32()?,
        },
        0x13 => {
            let lo = r.u8()? as u16;
            let hi = r.u8()? as u16;
            let _pad = r.i32()?;
            MachInsn::CallHelper {
                helper: lo | (hi << 8),
            }
        }
        0x14 => MachInsn::Ret,
        0x15 => {
            let size = size_from(r.u8()?)?;
            MachInsn::LoadXmm {
                dst: r.xmm()?,
                addr: r.mem()?,
                size,
            }
        }
        0x16 => {
            let size = size_from(r.u8()?)?;
            MachInsn::StoreXmm {
                src: r.xmm()?,
                addr: r.mem()?,
                size,
            }
        }
        0x17 => MachInsn::MovGprToXmm {
            dst: r.xmm()?,
            src: r.gpr()?,
        },
        0x18 => MachInsn::MovXmmToGpr {
            dst: r.gpr()?,
            src: r.xmm()?,
        },
        0x19 => {
            let op = fp_from(r.u8()?)?;
            MachInsn::Fp {
                op,
                dst: r.xmm()?,
                src: r.xmm()?,
            }
        }
        0x1A => MachInsn::FpFma {
            dst: r.xmm()?,
            a: r.xmm()?,
            b: r.xmm()?,
        },
        0x1B => MachInsn::FpCmp {
            a: r.xmm()?,
            b: r.xmm()?,
        },
        0x1C => MachInsn::CvtI2D {
            dst: r.xmm()?,
            src: r.gpr()?,
        },
        0x1D => MachInsn::CvtD2I {
            dst: r.gpr()?,
            src: r.xmm()?,
        },
        0x20 => {
            let op = vec_from(r.u8()?)?;
            MachInsn::Vec {
                op,
                dst: r.xmm()?,
                src: r.xmm()?,
            }
        }
        0x2D => MachInsn::TraceEdge,
        0x2E => {
            let reconcile = r.u8()? != 0;
            MachInsn::BackEdge {
                pc: r.u64()?,
                target: r.i32()?,
                reconcile,
            }
        }
        0x2F => {
            let size = size_from(r.u8()?)?;
            MachInsn::MovXmm {
                dst: r.xmm()?,
                src: r.xmm()?,
                size,
            }
        }
        v => return Err(CodecError::Invalid(v)),
    };
    *pos = r.pos;
    Ok(insn)
}

/// Decodes an entire encoded block.
pub fn decode_block(buf: &[u8]) -> Result<Vec<MachInsn>, CodecError> {
    let mut pos = 0;
    let mut out = Vec::new();
    while pos < buf.len() {
        out.push(decode(buf, &mut pos)?);
    }
    Ok(out)
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
                src: Operand::Imm(1),
            },
            MachInsn::Alu {
                op: AluOp::Shl,
                dst: Gpr::Rax,
                src: Operand::Reg(Gpr::Rcx),
            },
            MachInsn::Alu {
                op: AluOp::Xor,
                dst: Gpr::Rdx,
                src: Operand::Imm(0xDEAD_BEEF_CAFE_F00D),
            },
            MachInsn::Cmp {
                a: Gpr::Rax,
                b: Operand::Imm(42),
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
    fn encode_decode_roundtrip_every_variant() {
        let insns = sample_insns();
        let bytes = encode_block(&insns);
        let decoded = decode_block(&bytes).expect("decode");
        assert_eq!(insns, decoded);
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

    #[test]
    fn truncated_input_is_an_error() {
        let insns = [MachInsn::MovImm {
            dst: Gpr::Rax,
            imm: 42,
        }];
        let bytes = encode_block(&insns);
        assert_eq!(
            decode_block(&bytes[..bytes.len() - 1]),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn invalid_opcode_is_an_error() {
        assert!(matches!(
            decode_block(&[0xFF]),
            Err(CodecError::Invalid(0xFF))
        ));
        // The bytes of the system instructions no translator emits stay free:
        // followed by operand bytes that would have decoded, each is refused.
        for op in [0x00, 0x1E, 0x1F].into_iter().chain(0x21..=0x2C) {
            let buf = [op, 0, 0, 0, 0];
            assert_eq!(
                decode(&buf, &mut 0),
                Err(CodecError::Invalid(op)),
                "{op:#x}"
            );
        }
        // So do the codes of the operators no translator emits, inside an
        // instruction that is otherwise well formed: ALU (register operand),
        // scalar FP, packed vector.
        let freed = [
            (0x08, vec![10, 11, 15]),
            (0x19, (5..=12).collect()),
            (0x20, vec![0, 1, 2, 3, 6, 7, 8, 9]),
        ];
        for (opcode, codes) in freed {
            for code in codes {
                let buf = [opcode, code, 0, 0, 0];
                assert_eq!(
                    decode(&buf, &mut 0),
                    Err(CodecError::Invalid(code)),
                    "{opcode:#x} {code}"
                );
            }
        }
    }
}
