//! Quickstart: assemble a tiny guest program, boot it under the Captive
//! hypervisor, and read back the results.
//!
//! Run with: `cargo run -p bench --example quickstart`

use captive::{Captive, CaptiveConfig, RunExit};
use guest_aarch64::asm::{self, Assembler};

fn main() {
    // Guest program: print "hello from the guest\n" through the hypervisor
    // console hypercall, compute 6 * 7, then exit with that code.
    let mut a = Assembler::new();
    for ch in b"hello from the guest\n" {
        a.push(asm::movz(0, *ch as u32, 0));
        a.push(asm::svc(guest_aarch64::sys::SVC_PUTCHAR));
    }
    a.push(asm::movz(1, 6, 0));
    a.push(asm::movz(2, 7, 0));
    a.push(asm::mul(0, 1, 2));
    a.push(asm::svc(guest_aarch64::sys::SVC_EXIT));
    let program = a.finish();

    let mut vm = Captive::new(CaptiveConfig::default());
    vm.load_program(0x1000, &program);
    vm.set_entry(0x1000);
    let exit = vm.run(1_000_000);

    print!("{}", String::from_utf8_lossy(vm.console()));
    println!("guest exit: {exit:?}");
    let stats = vm.stats();
    println!(
        "executed {} guest instructions in {} simulated host cycles ({} translations)",
        stats.guest_insns, stats.cycles, stats.translations
    );
    assert_eq!(exit, RunExit::GuestHalted { code: 42 });
}
