//! ARMv8-lite guest architecture model.
//!
//! This crate plays the role of the paper's offline-generated ARMv8-A module:
//! it provides the decoded-instruction type, the instruction decoder, the
//! per-instruction generator functions invoked by the JIT (the equivalent of
//! Fig. 7's machine-generated C++), the guest MMU model, the exception model,
//! the guest register-file layout, the guest-system core and run loop every
//! engine shares ([`sys`], [`dispatch`]) and an assembler used by the
//! workload and benchmark crates to build guest programs.
//!
//! The ISA is a compact subset of A64: fixed 32-bit instructions, 31 general
//! registers plus SP, NZCV flags, 32 SIMD&FP registers, a 3-level 4 KiB-page
//! MMU behind `TTBR0`/`SCTLR`, and an EL0/EL1 exception model with
//! `SVC`/`ERET` and a vector base register.  Encodings are this crate's own
//! (documented in [`isa`]) rather than real A64 bit patterns — the decode
//! *structure* (class field plus per-class operand fields) matches how a
//! generated decoder would carve up A64, which is what matters for the DBT.

pub mod asm;
pub mod dispatch;
pub mod gen;
pub mod isa;
pub mod mmu;
pub mod regs;
pub mod sys;

pub use asm::Assembler;
pub use gen::Aarch64Isa;
pub use isa::{decode, Cond as GuestCond, Insn};
pub use mmu::{walk_guest, GuestPageFlags, GuestWalkError};
pub use regs::*;
