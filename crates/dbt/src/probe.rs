//! Translated code run with its observers recorded: the one harness the
//! differential tests of lowering, allocation and [`crate::opt`]'s last
//! rewrites run units on (a machine started from one fixed state, plus a
//! probe that can stop the code at the k-th guest memory access as if that
//! access had faulted).
//!
//! [`probed`] puts a `CallHelper` of [`PROBE`] in front of every guest
//! memory access (any memory operand not based on the register-file
//! pointer) and re-aims every jump.  The probe's helper touches no register
//! and no flag, so a probed unit computes what the unit computes; at the
//! chosen access it returns `Exit`, which leaves the machine exactly as a
//! data abort there would find it.  [`Rig::run`] then stores the unit's
//! dirty promoted carriers into the register file, as the dispatcher does
//! before it delivers an abort, and reports what an abort handler would
//! see.  Not a product path: nothing outside tests calls it.

use crate::cache::Carrier;
use hvm::{ExitReason, Gpr, MachInsn, Machine, MachineConfig, MemRef};

/// The helper id of the probe.
pub const PROBE: u16 = 0xFFFF;

/// Where a [`Rig`] keeps the register file and the guest data the units
/// read and write.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    /// Register-file base (`%rbp`); the page below it is the spill area.
    pub regfile: u64,
    /// Register-file bytes compared.
    pub regfile_len: usize,
    /// Guest data window.
    pub data: u64,
    /// Guest data bytes compared.
    pub data_len: usize,
    /// Bytes of host memory.
    pub phys_mem: u64,
    /// `%r15` at entry.
    pub entry_pc: u64,
}

/// What an observer of one run saw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    /// How the run ended (`HelperExit` at the injected fault).
    pub exit: ExitReason,
    /// The register file at the end, promoted carriers stored at a fault.
    pub regfile: Vec<u8>,
    /// The guest data window at the end.
    pub data: Vec<u8>,
    /// `%r15` at the end: the faulting access's PC at a fault.
    pub pc: u64,
    /// `%r15` at every real helper call.
    pub helper_pcs: Vec<u64>,
    /// Guest memory accesses the run reached.
    pub accesses: u64,
}

/// `code` with the probe in front of every guest memory access.
pub fn probed(code: &[MachInsn]) -> Vec<MachInsn> {
    let guest = |m: &MemRef| m.base != Gpr::Rbp;
    let accesses = |insn: &MachInsn| match insn {
        MachInsn::Load { addr, .. }
        | MachInsn::LoadSx { addr, .. }
        | MachInsn::Store { addr, .. }
        | MachInsn::StoreImm { addr, .. }
        | MachInsn::LoadXmm { addr, .. }
        | MachInsn::StoreXmm { addr, .. } => guest(addr),
        _ => false,
    };
    // Where each old index starts in the new code (its probe, if any), and
    // where the instruction itself lands.
    let mut start = Vec::with_capacity(code.len() + 1);
    let mut at = 0i64;
    for insn in code {
        start.push(at);
        at += 1 + accesses(insn) as i64;
    }
    start.push(at);
    let own = |i: usize| start[i + 1] - 1;
    let mut out = Vec::with_capacity(at as usize);
    for (i, insn) in code.iter().enumerate() {
        if accesses(insn) {
            out.push(MachInsn::CallHelper { helper: PROBE });
        }
        // A jump at `i` goes to `i + target` (the machine counts from the
        // instruction after it, minus one).
        let aim = |target: i32| {
            let to = (i as i64 + target as i64).clamp(0, code.len() as i64) as usize;
            (start[to] - own(i)) as i32
        };
        out.push(match *insn {
            MachInsn::Jmp { target } => MachInsn::Jmp {
                target: aim(target),
            },
            MachInsn::Jcc { cond, target } => MachInsn::Jcc {
                cond,
                target: aim(target),
            },
            MachInsn::BackEdge {
                pc,
                target,
                reconcile,
            } => MachInsn::BackEdge {
                pc,
                target: aim(target),
                reconcile,
            },
            other => other,
        });
    }
    out
}

/// The runtime of a probed run.
struct Probe {
    fault_at: Option<u64>,
    accesses: u64,
    helper_pcs: Vec<u64>,
}

impl hvm::Runtime for Probe {
    fn helper(&mut self, id: u16, m: &mut Machine) -> hvm::HelperResult {
        if id == PROBE {
            self.accesses += 1;
            return if Some(self.accesses) == self.fault_at {
                hvm::HelperResult::Exit { cost: 0 }
            } else {
                hvm::HelperResult::Continue { cost: 0 }
            };
        }
        // A real helper answers a function of its argument, so a `ReadRet`
        // reads a value no allocation chooses.
        self.helper_pcs.push(m.reg(Gpr::R15));
        let arg = m.reg(Gpr::Rdi);
        m.set_reg(Gpr::Rax, arg.wrapping_mul(0x9E37_79B9).rotate_left(7));
        hvm::HelperResult::Continue { cost: 0 }
    }
}

/// A machine that runs probed units from one fixed initial state.
pub struct Rig {
    machine: Machine,
    layout: Layout,
    regfile: Vec<u8>,
    data: Vec<u8>,
}

impl Rig {
    /// A rig whose every run starts from `regfile` and `data` (at most the
    /// layout's lengths) with the spill area filled with a byte no value
    /// repeats.
    pub fn new(layout: Layout, regfile: Vec<u8>, data: Vec<u8>) -> Rig {
        let mut machine = Machine::new(MachineConfig {
            phys_mem: layout.phys_mem,
            ..MachineConfig::default()
        });
        machine.fuel_per_block = 20_000;
        machine.loop_trip_limit = 6;
        Rig {
            machine,
            layout,
            regfile,
            data,
        }
    }

    /// Runs `code` (already [`probed`]), stopping at the `fault_at`-th
    /// guest memory access if given; `None` when it ran out of fuel.
    pub fn run(
        &mut self,
        code: &[MachInsn],
        promoted: &[(i32, Carrier)],
        fault_at: Option<u64>,
    ) -> Option<Observation> {
        let l = self.layout;
        let m = &mut self.machine;
        m.gpr = [0; 16];
        m.xmm = [[0; 2]; 16];
        m.flags = Default::default();
        m.mem.fill(l.regfile - 0x1000, 0x1000, 0xA5).ok()?;
        m.mem.fill(l.regfile, l.regfile_len as u64, 0).ok()?;
        m.mem.write(l.regfile, &self.regfile).ok()?;
        m.mem.fill(l.data, l.data_len as u64, 0).ok()?;
        m.mem.write(l.data, &self.data).ok()?;
        m.set_reg(Gpr::Rbp, l.regfile);
        m.set_reg(Gpr::R15, l.entry_pc);
        let mut rt = Probe {
            fault_at,
            accesses: 0,
            helper_pcs: Vec::new(),
        };
        let exit = m.run_block(code, &mut rt);
        if exit == ExitReason::FuelExhausted {
            return None;
        }
        if exit == ExitReason::HelperExit && fault_at == Some(rt.accesses) {
            for &(off, carrier) in promoted {
                let at = l.regfile + off as u64;
                match carrier {
                    Carrier::Gpr(g) => m.mem.write_u64(at, m.reg(g)).ok()?,
                    Carrier::Xmm(x) => {
                        let lanes = m.xmm_reg(x)?;
                        m.mem.write_u128(at, lanes).ok()?
                    }
                }
            }
        }
        let mut regfile = vec![0; l.regfile_len];
        m.mem.read(l.regfile, &mut regfile).ok()?;
        let mut data = vec![0; l.data_len];
        m.mem.read(l.data, &mut data).ok()?;
        Some(Observation {
            exit,
            regfile,
            data,
            pc: m.reg(Gpr::R15),
            helper_pcs: rt.helper_pcs,
            accesses: rt.accesses,
        })
    }

    /// Runs `got` and `want` from the same state, stopping at the
    /// `fault_at`-th guest access if given.  `Ok(None)` when both ran out
    /// of fuel (a random loop that never ends); an error, naming the side,
    /// when only one did.
    fn run_both(
        &mut self,
        got: (&[MachInsn], &[(i32, Carrier)]),
        want: (&[MachInsn], &[(i32, Carrier)]),
        fault_at: Option<u64>,
    ) -> Result<Option<(Observation, Observation)>, String> {
        match (
            self.run(got.0, got.1, fault_at),
            self.run(want.0, want.1, fault_at),
        ) {
            (Some(g), Some(w)) => Ok(Some((g, w))),
            (None, None) => Ok(None),
            (None, Some(_)) => {
                Err("the code under test ran out of fuel, the reference did not".into())
            }
            (Some(_), None) => {
                Err("the reference ran out of fuel, the code under test did not".into())
            }
        }
    }

    /// Holds `got` to `want` at every observer: the same end state without
    /// a fault, and the same state at a fault injected at each of the
    /// first `faults` guest memory accesses and at the last one (`faults`
    /// 0: the end state only).  `Ok(false)` when both ran out of fuel, so
    /// nothing was compared; otherwise the first difference, named by what
    /// saw it.
    pub fn compare(
        &mut self,
        got: (&[MachInsn], &[(i32, Carrier)]),
        want: (&[MachInsn], &[(i32, Carrier)]),
        faults: u64,
    ) -> Result<bool, String> {
        let (got_code, want_code) = (probed(got.0), probed(want.0));
        let (got, want) = ((&got_code[..], got.1), (&want_code[..], want.1));
        let at_exit = |e: String| format!("at the exit: {e}");
        let Some((g, w)) = self.run_both(got, want, None).map_err(at_exit)? else {
            return Ok(false);
        };
        describe(&g, &w, "the exit")?;
        let last = w.accesses;
        let beyond = (faults > 0 && last > faults).then_some(last);
        for k in (1..=faults.min(last)).chain(beyond) {
            let observer = format!("a fault at guest access {k}");
            let at_fault = |e: String| format!("at {observer}: {e}");
            if let Some((g, w)) = self.run_both(got, want, Some(k)).map_err(at_fault)? {
                describe(&g, &w, &observer)?;
            }
        }
        Ok(true)
    }
}

/// The rig the crate's generated units run on, `fuel` host instructions
/// a run: the register file at 0x8000 (the spill area is the page below)
/// and the guest data at [`crate::units::FP_DATA`], both holding a pattern
/// no stored value repeats.
#[cfg(test)]
pub(crate) fn unit_rig(fuel: u64) -> Rig {
    let layout = Layout {
        regfile: 0x8000,
        regfile_len: 0x400,
        data: crate::units::FP_DATA,
        data_len: 0x100,
        phys_mem: 0x10000,
        entry_pc: 0x4_0000,
    };
    let pattern: Vec<u8> = (0..0x400u32).map(|i| (i * 37 + 11) as u8).collect();
    let mut rig = Rig::new(
        layout,
        pattern[..0x200].to_vec(),
        pattern[0x80..0x180].to_vec(),
    );
    rig.machine.fuel_per_block = fuel;
    rig
}

/// The first way `got` differs from `want`, as seen at `observer`.
fn describe(got: &Observation, want: &Observation, observer: &str) -> Result<(), String> {
    let what = if got.exit != want.exit {
        format!("exit {:?}, want {:?}", got.exit, want.exit)
    } else if got.pc != want.pc {
        format!("guest PC {:#x}, want {:#x}", got.pc, want.pc)
    } else if got.helper_pcs != want.helper_pcs {
        format!(
            "guest PC at helper calls {:x?}, want {:x?}",
            got.helper_pcs, want.helper_pcs
        )
    } else if got.regfile != want.regfile {
        let at = (0..got.regfile.len())
            .find(|&i| got.regfile[i] != want.regfile[i])
            .unwrap_or(0);
        format!("register file differs at byte {at:#x}")
    } else if got.data != want.data {
        "guest memory differs".to_string()
    } else {
        return Ok(());
    };
    Err(format!("at {observer}: {what}"))
}
