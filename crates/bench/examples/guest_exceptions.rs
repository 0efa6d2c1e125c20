//! Demonstrates the full-system side of the hypervisor: a guest "kernel"
//! installs an exception vector, takes SVCs from "user" code, services them
//! at EL1 and returns with ERET — all running as translated code inside the
//! host VM, with the guest's exception level tracked in the host's
//! protection ring.
//!
//! Run with: `cargo run -p bench --example guest_exceptions`

use captive::{Captive, CaptiveConfig};
use guest_aarch64::asm::{self, Assembler};
use guest_aarch64::isa::Cond;
use guest_aarch64::SysReg;

fn main() {
    // Main flow: set VBAR, then issue 5 SVCs in a loop; each SVC increments
    // x20 in the handler.  Finally exit with x20 as the code.
    let mut a = Assembler::new();
    a.adr_to(1, "vector");
    a.push(asm::msr(SysReg::Vbar as u32, 1));
    a.push(asm::movz(20, 0, 0));
    a.push(asm::movz(21, 5, 0));
    a.label("loop");
    a.push(asm::svc(7));
    a.push(asm::subi(21, 21, 1));
    a.cbnz_to(21, "loop");
    a.push(asm::orr(0, 20, 20));
    a.push(asm::svc(guest_aarch64::sys::SVC_EXIT));
    a.push(asm::nop());
    a.label("vector");
    // EL1 handler: check the ESR class is SVC, bump x20, return.
    a.push(asm::mrs(9, SysReg::Esr as u32));
    a.push(asm::lsri(9, 9, 26));
    a.push(asm::cmpi(9, 0x15));
    a.bcond_to(Cond::Ne, "bad");
    a.push(asm::addi(20, 20, 1));
    a.push(asm::eret());
    a.label("bad");
    a.push(asm::hlt());
    let program = a.finish();

    let mut vm = Captive::new(CaptiveConfig::default());
    vm.load_program(0x1000, &program);
    vm.set_entry(0x1000);
    let exit = vm.run(1_000_000);
    println!("guest exit: {exit:?} (expected code 5 after five serviced SVCs)");
    println!(
        "guest exceptions delivered: {}",
        vm.stats().guest_exceptions
    );
    assert_eq!(exit, captive::RunExit::GuestHalted { code: 5 });
}
