//! SimBench-style micro-benchmarks (Fig. 19).
//!
//! SimBench [Wagstaff et al., ISPASS'17] stresses one full-system-emulation
//! subsystem per benchmark.  This crate re-creates the categories that the
//! reproduction's guest model can express; each returns a small guest program
//! plus the number of "operations" it performs so results can be reported as
//! speedups per category, as in the paper.  Categories requiring guest-MMU
//! setup build their page tables from guest code before enabling the MMU.

use guest_aarch64::asm::{self, Assembler};

/// A micro-benchmark guest program.
#[derive(Debug, Clone)]
pub struct MicroBench {
    /// Category name, matching the paper's Fig. 19 labels where applicable.
    pub name: &'static str,
    /// Instruction words (load at 0x1000).
    pub words: Vec<u32>,
    /// Entry point.
    pub entry: u64,
}

fn mb(name: &'static str, a: Assembler) -> MicroBench {
    MicroBench {
        name,
        words: a.finish(),
        entry: 0x1000,
    }
}

/// Mem-Hot: repeatedly touch a small, already-mapped buffer.
pub fn mem_hot(iters: u32) -> MicroBench {
    let mut a = Assembler::new();
    a.mov_imm64(1, 0x20_0000);
    a.mov_imm64(2, iters as u64);
    a.label("loop");
    a.push(asm::str(2, 1, 0));
    a.push(asm::ldr(3, 1, 0));
    a.push(asm::ldr(3, 1, 8));
    a.push(asm::str(3, 1, 16));
    a.push(asm::subi(2, 2, 1));
    a.cbnz_to(2, "loop");
    a.push(asm::hlt());
    mb("Mem-Hot-NoMMU", a)
}

/// Mem-Cold: touch a new page on every iteration (demand-mapping /
/// soft-TLB-miss stress).
pub fn mem_cold(pages: u32) -> MicroBench {
    let mut a = Assembler::new();
    a.mov_imm64(1, 0x40_0000);
    a.mov_imm64(2, pages as u64);
    a.mov_imm64(4, 4096);
    a.label("loop");
    a.push(asm::str(2, 1, 0));
    a.push(asm::add(1, 1, 4));
    a.push(asm::subi(2, 2, 1));
    a.cbnz_to(2, "loop");
    a.push(asm::hlt());
    mb("Mem-Cold-NoMMU", a)
}

/// Syscall: SVC in a tight loop with a trivial EL1 handler that ERETs.
pub fn syscall(iters: u32) -> MicroBench {
    let mut a = Assembler::new();
    // Install the vector (placed after the main loop, label "vector").
    a.adr_to(1, "vector");
    a.push(asm::msr(guest_aarch64::SysReg::Vbar as u32, 1));
    a.mov_imm64(2, iters as u64);
    a.label("loop");
    a.push(asm::svc(1));
    a.push(asm::subi(2, 2, 1));
    a.cbnz_to(2, "loop");
    a.push(asm::hlt());
    a.label("vector");
    a.push(asm::eret());
    mb("Syscall", a)
}

/// Undef-Instruction: execute an undefined encoding repeatedly; the EL1
/// handler skips over it by advancing ELR.
pub fn undef_instruction(iters: u32) -> MicroBench {
    let mut a = Assembler::new();
    a.adr_to(1, "vector");
    a.push(asm::msr(guest_aarch64::SysReg::Vbar as u32, 1));
    a.mov_imm64(2, iters as u64);
    a.label("loop");
    a.push(0x7F << 25); // undefined opcode
    a.push(asm::subi(2, 2, 1));
    a.cbnz_to(2, "loop");
    a.push(asm::hlt());
    a.label("vector");
    a.push(asm::mrs(3, guest_aarch64::SysReg::Elr as u32));
    a.push(asm::addi(3, 3, 4));
    a.push(asm::msr(guest_aarch64::SysReg::Elr as u32, 3));
    a.push(asm::eret());
    mb("Undef-Instruction", a)
}

/// TLB-Flush: guest TLB invalidations interleaved with memory accesses.
pub fn tlb_flush(iters: u32) -> MicroBench {
    let mut a = Assembler::new();
    a.mov_imm64(1, 0x30_0000);
    a.mov_imm64(2, iters as u64);
    a.label("loop");
    a.push(asm::str(2, 1, 0));
    a.push(asm::tlbi());
    a.push(asm::ldr(3, 1, 0));
    a.push(asm::subi(2, 2, 1));
    a.cbnz_to(2, "loop");
    a.push(asm::hlt());
    mb("TLB-Flush", a)
}

/// TLB-Evict: touch more pages than the host TLB holds, repeatedly.
pub fn tlb_evict(pages: u32, passes: u32) -> MicroBench {
    let mut a = Assembler::new();
    a.mov_imm64(10, passes as u64);
    a.mov_imm64(4, 4096);
    a.label("pass");
    a.mov_imm64(1, 0x40_0000);
    a.mov_imm64(2, pages as u64);
    a.label("loop");
    a.push(asm::ldr(3, 1, 0));
    a.push(asm::add(1, 1, 4));
    a.push(asm::subi(2, 2, 1));
    a.cbnz_to(2, "loop");
    a.push(asm::subi(10, 10, 1));
    a.cbnz_to(10, "pass");
    a.push(asm::hlt());
    mb("TLB-Evict", a)
}

/// Small-Blocks: a long chain of tiny basic blocks, each executed once
/// (translation-throughput stress).
pub fn small_blocks(count: u32) -> MicroBench {
    let mut a = Assembler::new();
    for _ in 0..count {
        a.push(asm::addi(0, 0, 1));
        a.push(asm::b(4)); // branch to the next instruction: ends the block
    }
    a.push(asm::hlt());
    mb("Small-Blocks", a)
}

/// Large-Blocks: straight-line blocks of ~48 instructions, each executed once.
pub fn large_blocks(count: u32) -> MicroBench {
    let mut a = Assembler::new();
    for _ in 0..count {
        for i in 0..47u32 {
            a.push(asm::addi(i % 8, i % 8, 1));
        }
        a.push(asm::b(4));
    }
    a.push(asm::hlt());
    mb("Large-Blocks", a)
}

/// Same-Page-Direct: direct branches that stay within one guest page.
pub fn same_page_direct(iters: u32) -> MicroBench {
    let mut a = Assembler::new();
    a.mov_imm64(2, iters as u64);
    a.label("loop");
    a.b_to("a");
    a.label("a");
    a.b_to("b");
    a.label("b");
    a.push(asm::subi(2, 2, 1));
    a.cbnz_to(2, "loop");
    a.push(asm::hlt());
    mb("Same-Page-Direct", a)
}

/// Inter-Page-Direct: direct branches bouncing between two pages — the
/// shape only links across pages, like TCG's `goto_tb`, can chain.
pub fn inter_page_direct(iters: u32) -> MicroBench {
    let mut a = Assembler::new();
    a.mov_imm64(2, iters as u64);
    a.label("loop");
    a.b_to("far");
    a.label("back");
    a.push(asm::subi(2, 2, 1));
    a.cbnz_to(2, "loop");
    a.push(asm::hlt());
    // Pad to push "far" onto the next page.
    while a.here() < 1024 {
        a.push(asm::nop());
    }
    a.label("far");
    a.b_to("back");
    mb("Inter-Page-Direct", a)
}

/// Inter-Page-Indirect: indirect branches bouncing between two pages.
pub fn inter_page_indirect(iters: u32) -> MicroBench {
    let mut a = Assembler::new();
    a.mov_imm64(2, iters as u64);
    a.adr_to(3, "far");
    a.label("loop");
    a.push(asm::blr(3));
    a.push(asm::subi(2, 2, 1));
    a.cbnz_to(2, "loop");
    a.push(asm::hlt());
    // Pad to push "far" onto the next page.
    while a.here() < 1024 {
        a.push(asm::nop());
    }
    a.label("far");
    a.push(asm::ret());
    mb("Inter-Page-Indirect", a)
}

/// The full suite in Fig. 19 order (categories this reproduction implements).
pub fn suite() -> Vec<MicroBench> {
    vec![
        mem_hot(30_000),
        mem_cold(4_000),
        undef_instruction(2_000),
        syscall(3_000),
        small_blocks(1_500),
        large_blocks(120),
        same_page_direct(10_000),
        inter_page_direct(5_000),
        inter_page_indirect(5_000),
        tlb_flush(2_000),
        tlb_evict(1024, 20),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_assemble_and_decode() {
        for b in suite() {
            assert!(!b.words.is_empty(), "{}", b.name);
            // Undef-Instruction deliberately contains an undefined encoding.
            if b.name != "Undef-Instruction" {
                for w in &b.words {
                    assert!(guest_aarch64::decode(*w).is_some(), "{}: {w:#010x}", b.name);
                }
            }
            assert!(b.words.contains(&asm::hlt()), "{}", b.name);
        }
    }

    #[test]
    fn suite_has_distinct_names() {
        let s = suite();
        let mut names: Vec<_> = s.iter().map(|b| b.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), s.len());
    }
}
