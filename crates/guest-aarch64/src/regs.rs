//! Guest register-file layout.
//!
//! The guest register file lives in host memory and is addressed relative to
//! the register-file base pointer (`%rbp` in the generated code), exactly as
//! in the paper's examples (`0x8c0(%r14)` style operands in Fig. 12/13).
//! Every offset below is a byte offset into that block.

/// Total size of the guest register file block in bytes.
pub const REGFILE_SIZE: usize = 1024;

/// Number of general-purpose registers (X0..X30 plus SP encoded as 31).
pub const NUM_X_REGS: u32 = 32;

/// Byte offset of general-purpose register `Xi` (i = 31 is SP).
pub const fn x_off(i: u32) -> i32 {
    (i as i32) * 8
}

/// Byte offset of the stack pointer.
pub const SP_OFF: i32 = x_off(31);

/// Byte offset of the NZCV flags (stored as a single u64, N=bit3, Z=bit2,
/// C=bit1, V=bit0).
pub const NZCV_OFF: i32 = 256;

/// Byte offset of SIMD & FP register `Vi` (128 bits each).
pub const fn v_off(i: u32) -> i32 {
    272 + (i as i32) * 16
}

/// System register offsets.
pub const TTBR0_OFF: i32 = 784;
/// System control register (bit 0 = MMU enable).
pub const SCTLR_OFF: i32 = 792;
/// Vector base address register.
pub const VBAR_OFF: i32 = 800;
/// Exception syndrome register.
pub const ESR_OFF: i32 = 808;
/// Fault address register.
pub const FAR_OFF: i32 = 816;
/// Exception link register.
pub const ELR_OFF: i32 = 824;
/// Saved program status register.
pub const SPSR_OFF: i32 = 832;
/// Current exception level (0 = EL0 user, 1 = EL1 kernel).
pub const CURRENT_EL_OFF: i32 = 840;
/// Slot used to synchronise the guest PC with the register file when the
/// generated code exits to the hypervisor.
pub const PC_SLOT_OFF: i32 = 848;
/// Timer compare value: an `MSR` arms a one-shot timer IRQ this many cycles
/// in the future.
pub const CNT_TVAL_OFF: i32 = 856;
/// Timer control: an `MSR` of 0 cancels the timer; a non-zero value arms a
/// periodic timer with that cycle interval.
pub const CNT_CTL_OFF: i32 = 864;
/// Virtio-blk queue notification: an `MSR` kicks the block device, which
/// consumes newly-published available-ring entries.
pub const VBLK_NOTIFY_OFF: i32 = 872;

/// System register identifiers used by `MRS`/`MSR`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysReg {
    /// Translation table base (guest page-table root).
    Ttbr0 = 0,
    /// System control (MMU enable).
    Sctlr = 1,
    /// Vector base address.
    Vbar = 2,
    /// Exception syndrome.
    Esr = 3,
    /// Fault address.
    Far = 4,
    /// Exception link register.
    Elr = 5,
    /// Saved program status.
    Spsr = 6,
    /// Current exception level.
    CurrentEl = 7,
    /// Timer compare value (one-shot deadline, cycles from now).
    CntTval = 8,
    /// Timer control (0 = cancel, non-zero = periodic interval).
    CntCtl = 9,
    /// Virtio-blk queue notification (any value kicks the device).
    VblkNotify = 10,
}

impl SysReg {
    /// Decodes a system-register id.
    pub fn from_id(id: u32) -> Option<SysReg> {
        Some(match id {
            0 => SysReg::Ttbr0,
            1 => SysReg::Sctlr,
            2 => SysReg::Vbar,
            3 => SysReg::Esr,
            4 => SysReg::Far,
            5 => SysReg::Elr,
            6 => SysReg::Spsr,
            7 => SysReg::CurrentEl,
            8 => SysReg::CntTval,
            9 => SysReg::CntCtl,
            10 => SysReg::VblkNotify,
            _ => return None,
        })
    }

    /// Register-file byte offset backing this system register.
    pub fn offset(self) -> i32 {
        match self {
            SysReg::Ttbr0 => TTBR0_OFF,
            SysReg::Sctlr => SCTLR_OFF,
            SysReg::Vbar => VBAR_OFF,
            SysReg::Esr => ESR_OFF,
            SysReg::Far => FAR_OFF,
            SysReg::Elr => ELR_OFF,
            SysReg::Spsr => SPSR_OFF,
            SysReg::CurrentEl => CURRENT_EL_OFF,
            SysReg::CntTval => CNT_TVAL_OFF,
            SysReg::CntCtl => CNT_CTL_OFF,
            SysReg::VblkNotify => VBLK_NOTIFY_OFF,
        }
    }
}

/// Exception syndrome classes written to ESR when an exception is taken.
pub mod esr_class {
    /// Supervisor call.
    pub const SVC: u64 = 0x15;
    /// Undefined instruction.
    pub const UNDEFINED: u64 = 0x00;
    /// Instruction abort (fetch fault).
    pub const INSTR_ABORT: u64 = 0x21;
    /// PC alignment fault: an instruction fetch from a PC that is not a
    /// multiple of four.
    pub const PC_ALIGN: u64 = 0x22;
    /// Data abort (load/store fault).
    pub const DATA_ABORT: u64 = 0x25;
    /// Asynchronous interrupt (IRQ); the ISS carries the interrupt line.
    pub const IRQ: u64 = 0x3F;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_do_not_overlap() {
        assert_eq!(x_off(0), 0);
        assert_eq!(x_off(31), 248);
        assert!(NZCV_OFF >= x_off(31) + 8);
        assert!(v_off(0) >= NZCV_OFF + 8);
        assert_eq!(v_off(31), 272 + 31 * 16);
        assert!(TTBR0_OFF >= v_off(31) + 16);
        assert!((VBLK_NOTIFY_OFF as usize) + 8 <= REGFILE_SIZE);
    }

    #[test]
    fn sysreg_roundtrip() {
        for id in 0..11u32 {
            let r = SysReg::from_id(id).unwrap();
            assert_eq!(r as u32, id);
        }
        assert!(SysReg::from_id(99).is_none());
    }
}
