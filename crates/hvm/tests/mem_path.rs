//! The translated-code memory path: every way an access leaves the TLB-hit
//! path must charge the counters and produce the exit it always did.

use hvm::paging::{map_page, FrameAlloc, LEVELS};
use hvm::{
    ExitReason, FaultAction, FpOp, Gpr, HelperResult, MachInsn, Machine, MachineConfig, MemRef,
    MemSize, NullRuntime, PageFlags, PerfCounters, PhysMem, Ring, Runtime, VecOp, Xmm, PAGE_SIZE,
};
use proptest::prelude::*;

const RAM: u64 = 8 * 1024 * 1024;
const VA: u64 = 0x4000_0000;
const DATA: u64 = 0x10_0000;
const PAGES: u64 = 8;
const RO: PageFlags = PageFlags {
    present: true,
    writable: false,
    user: false,
};

/// A paging-enabled machine with `tlb_entries` TLB slots and an allocator
/// for its page tables; nothing is mapped yet.
fn paged_machine(tlb_entries: usize) -> (Machine, u64, FrameAlloc) {
    let mut m = Machine::new(MachineConfig {
        phys_mem: RAM,
        tlb_entries,
        ..Default::default()
    });
    let mut alloc = FrameAlloc::new(0x40_0000, 0x48_0000);
    let root = alloc.alloc(&mut m.mem).unwrap();
    m.enable_paging(root, 3);
    (m, root, alloc)
}

fn map(m: &mut Machine, root: u64, alloc: &mut FrameAlloc, va: u64, pa: u64, flags: PageFlags) {
    assert!(map_page(&mut m.mem, root, va, pa, flags, alloc));
}

fn load(dst: Gpr, va: u64, size: MemSize) -> [MachInsn; 2] {
    let addr = MemRef::base(Gpr::Rsi);
    [
        MachInsn::MovImm {
            dst: Gpr::Rsi,
            imm: va,
        },
        MachInsn::Load { dst, addr, size },
    ]
}

fn store(src: Gpr, va: u64, size: MemSize) -> [MachInsn; 2] {
    let addr = MemRef::base(Gpr::Rsi);
    [
        MachInsn::MovImm {
            dst: Gpr::Rsi,
            imm: va,
        },
        MachInsn::Store { src, addr, size },
    ]
}

/// Counters of the memory path, in the order the assertions below list them.
fn mem_counters(p: &PerfCounters) -> [u64; 4] {
    [p.mem_accesses, p.tlb_hits, p.tlb_misses, p.page_faults]
}

/// Demand pager: maps the faulting page of the `VA` window onto its `DATA`
/// frame, writable, and asks for a retry.
struct Pager {
    root: u64,
    alloc: FrameAlloc,
    faults: Vec<(u64, bool, u64)>,
}

impl Runtime for Pager {
    fn helper(&mut self, _id: u16, _m: &mut Machine) -> HelperResult {
        HelperResult::Continue { cost: 0 }
    }
    fn page_fault(&mut self, vaddr: u64, write: bool, m: &mut Machine) -> FaultAction {
        self.faults.push((vaddr, write, m.perf.cycles));
        let page = vaddr & !(PAGE_SIZE - 1);
        let frame = DATA + (page - VA);
        let flags = PageFlags::kernel_rw();
        assert!(map_page(
            &mut m.mem,
            self.root,
            page,
            frame,
            flags,
            &mut self.alloc
        ));
        FaultAction::Retry { cost: 500 }
    }
}

/// A seeded program of all six memory-op variants at every width, each
/// access on a different page from the one before it (so a 1-entry TLB
/// misses every time) and at an arbitrary, possibly unaligned offset.
fn mixed_program(len: usize) -> Vec<MachInsn> {
    let mut rng = TestRng::deterministic();
    let gprs = [Gpr::Rax, Gpr::Rbx, Gpr::Rcx, Gpr::Rdx];
    let narrow = [MemSize::U8, MemSize::U16, MemSize::U32, MemSize::U64];
    let mut code = vec![
        MachInsn::MovImm {
            dst: Gpr::Rsi,
            imm: VA,
        },
        MachInsn::MovImm {
            dst: Gpr::Rax,
            imm: 0x8877_6655_4433_2211,
        },
        MachInsn::MovGprToXmm {
            dst: Xmm(1),
            src: Gpr::Rax,
        },
    ];
    let mut page = 0;
    for _ in 0..len {
        let r = rng.next_u64();
        page = (page + 1 + (r >> 8) % (PAGES - 1)) % PAGES;
        let offset = (r >> 16) % (PAGE_SIZE - 16);
        let addr = MemRef::base_disp(Gpr::Rsi, (page * PAGE_SIZE + offset) as i32);
        let gpr = gprs[(r >> 32) as usize % 4];
        let xmm = Xmm((r >> 34) as u8 % 4);
        let size = narrow[(r >> 40) as usize % 4];
        let vsize = [MemSize::U32, MemSize::U64, MemSize::U128][(r >> 42) as usize % 3];
        code.push(match r % 6 {
            0 => MachInsn::Load {
                dst: gpr,
                addr,
                size,
            },
            1 => MachInsn::LoadSx {
                dst: gpr,
                addr,
                size,
            },
            2 => MachInsn::Store {
                src: gpr,
                addr,
                size,
            },
            3 => MachInsn::StoreImm { imm: r, addr, size },
            4 => MachInsn::LoadXmm {
                dst: xmm,
                addr,
                size: vsize,
            },
            _ => MachInsn::StoreXmm {
                src: xmm,
                addr,
                size: vsize,
            },
        });
    }
    code.push(MachInsn::Ret);
    code
}

/// Runs `code` over the demand-paged `VA` window (half the pages mapped up
/// front, half left to the pager) and returns everything observable.
fn run_mixed(code: &[MachInsn], tlb_entries: usize) -> (Machine, Vec<(u64, bool, u64)>, Vec<u8>) {
    let (mut m, root, mut alloc) = paged_machine(tlb_entries);
    for page in (0..PAGES).step_by(2) {
        let (va, pa) = (VA + page * PAGE_SIZE, DATA + page * PAGE_SIZE);
        map(&mut m, root, &mut alloc, va, pa, PageFlags::kernel_rw());
    }
    for i in 0..PAGES * PAGE_SIZE / 8 {
        let v = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        m.mem.write_u64(DATA + i * 8, v).unwrap();
    }
    let mut rt = Pager {
        root,
        alloc,
        faults: Vec::new(),
    };
    assert_eq!(m.run_block(code, &mut rt), ExitReason::BlockEnd);
    let mut data = vec![0; (PAGES * PAGE_SIZE) as usize];
    m.mem.read(DATA, &mut data).unwrap();
    (m, rt.faults, data)
}

#[test]
fn one_entry_tlb_and_default_tlb_agree_on_everything_but_the_hit_split() {
    let code = mixed_program(600);
    let (slow, slow_faults, slow_data) = run_mixed(&code, 1);
    let (fast, fast_faults, fast_data) = run_mixed(&code, 512);
    assert_eq!(slow.gpr, fast.gpr);
    assert_eq!(slow.xmm, fast.xmm);
    assert_eq!(slow_data, fast_data);
    assert_eq!(slow.perf.mem_accesses, 600);
    assert_eq!(fast.perf.mem_accesses, 600);
    assert_eq!(slow.perf.page_faults, PAGES / 2);
    assert_eq!(fast.perf.page_faults, PAGES / 2);
    assert_eq!(
        slow.perf.tlb_hits + slow.perf.tlb_misses,
        fast.perf.tlb_hits + fast.perf.tlb_misses
    );
    // The two runs really took different paths...
    assert_eq!(slow.perf.tlb_hits, 0, "a 1-entry TLB never hits here");
    assert_eq!(fast.perf.tlb_misses, PAGES + PAGES / 2);
    // ...and the cycle difference is exactly hits-instead-of-walks.
    let walks = slow.perf.tlb_misses - fast.perf.tlb_misses;
    assert_eq!(
        slow.perf.cycles - fast.perf.cycles,
        walks * LEVELS as u64 * slow.cost.page_walk_per_level
            - fast.perf.tlb_hits * fast.cost.tlb_hit
    );
    // The pager is called for the same accesses in the same order.
    let key = |f: &[(u64, bool, u64)]| f.iter().map(|&(va, w, _)| (va, w)).collect::<Vec<_>>();
    assert_eq!(key(&slow_faults), key(&fast_faults));
}

#[test]
fn store_through_a_read_only_tlb_entry_rewalks_and_faults() {
    let (mut m, root, mut alloc) = paged_machine(512);
    map(&mut m, root, &mut alloc, VA, DATA, RO);
    let mut code = Vec::new();
    code.extend(load(Gpr::Rax, VA + 8, MemSize::U64));
    code.extend(store(Gpr::Rax, VA + 8, MemSize::U64));
    code.push(MachInsn::Ret);
    assert_eq!(
        m.run_block(&code, &mut NullRuntime),
        ExitReason::MemFault {
            vaddr: VA + 8,
            write: true
        }
    );
    // The load walked and filled; the store found the entry, could not use
    // it, walked again, and faulted before touching memory.
    assert_eq!(mem_counters(&m.perf), [1, 0, 2, 1]);
    assert_eq!((m.tlb.fills, m.tlb.evictions), (1, 0));
    assert_eq!(m.perf.insns, 4);
}

#[test]
fn store_through_a_read_only_tlb_entry_upgrades_when_the_runtime_repairs_it() {
    let (mut m, root, mut alloc) = paged_machine(512);
    map(&mut m, root, &mut alloc, VA, DATA, RO);
    m.mem.write_u64(DATA + 8, 77).unwrap();
    let mut code = Vec::new();
    code.extend(load(Gpr::Rax, VA + 8, MemSize::U64));
    code.extend(store(Gpr::Rax, VA + 16, MemSize::U64));
    code.extend(store(Gpr::Rax, VA + 24, MemSize::U64));
    code.push(MachInsn::Ret);
    let mut rt = Pager {
        root,
        alloc,
        faults: Vec::new(),
    };
    assert_eq!(m.run_block(&code, &mut rt), ExitReason::BlockEnd);
    assert_eq!(m.mem.read_u64(DATA + 16).unwrap(), 77);
    assert_eq!(m.mem.read_u64(DATA + 24).unwrap(), 77);
    // load: miss.  First store: stale entry, walk, fault, repair, walk, fill
    // over the stale entry.  Second store: hit.
    assert_eq!(mem_counters(&m.perf), [3, 1, 3, 1]);
    assert_eq!((m.tlb.fills, m.tlb.evictions), (2, 1));
    assert_eq!(rt.faults.len(), 1);
    assert_eq!((rt.faults[0].0, rt.faults[0].1), (VA + 16, true));
}

#[test]
fn ring3_access_to_a_supervisor_page_cached_in_the_tlb_faults() {
    let (mut m, root, mut alloc) = paged_machine(512);
    map(&mut m, root, &mut alloc, VA, DATA, PageFlags::kernel_rw());
    let mut code = Vec::new();
    code.extend(load(Gpr::Rax, VA, MemSize::U32));
    code.push(MachInsn::Ret);
    assert_eq!(m.run_block(&code, &mut NullRuntime), ExitReason::BlockEnd);
    assert_eq!(mem_counters(&m.perf), [1, 0, 1, 0]);
    m.ring = Ring::Ring3;
    assert_eq!(
        m.run_block(&code, &mut NullRuntime),
        ExitReason::MemFault {
            vaddr: VA,
            write: false
        }
    );
    assert_eq!(mem_counters(&m.perf), [1, 0, 2, 1]);
    m.ring = Ring::Ring0;
    assert_eq!(m.run_block(&code, &mut NullRuntime), ExitReason::BlockEnd);
    assert_eq!(mem_counters(&m.perf), [2, 1, 2, 1]);
}

#[test]
fn tlb_hit_on_a_frame_past_the_end_of_ram_is_an_error_and_still_counted() {
    let (mut m, root, mut alloc) = paged_machine(512);
    map(
        &mut m,
        root,
        &mut alloc,
        VA,
        RAM + 0x1000,
        PageFlags::kernel_rw(),
    );
    let mut code = Vec::new();
    code.extend(load(Gpr::Rax, VA, MemSize::U64));
    code.push(MachInsn::Ret);
    // First time through the walk, second time through the TLB entry the
    // walk left behind: the access is counted, then refused.
    assert!(matches!(
        m.run_block(&code, &mut NullRuntime),
        ExitReason::Error(_)
    ));
    assert_eq!(mem_counters(&m.perf), [1, 0, 1, 0]);
    let before = m.perf.cycles;
    assert!(matches!(
        m.run_block(&code, &mut NullRuntime),
        ExitReason::Error(_)
    ));
    assert_eq!(mem_counters(&m.perf), [2, 1, 1, 0]);
    let c = &m.cost;
    assert_eq!(
        m.perf.cycles - before,
        c.dispatch + c.alu + c.mem + c.tlb_hit
    );
}

#[test]
fn sixteen_byte_access_straddling_the_last_page_of_ram_is_refused_whole() {
    let (mut m, root, mut alloc) = paged_machine(512);
    let last = RAM - PAGE_SIZE;
    map(&mut m, root, &mut alloc, VA, last, PageFlags::kernel_rw());
    m.set_xmm(Xmm(2), [0x1111, 0x2222]);
    let store_at = |offset: i32| {
        [
            MachInsn::MovImm {
                dst: Gpr::Rsi,
                imm: VA,
            },
            MachInsn::StoreXmm {
                src: Xmm(2),
                addr: MemRef::base_disp(Gpr::Rsi, offset),
                size: MemSize::U128,
            },
            MachInsn::LoadXmm {
                dst: Xmm(3),
                addr: MemRef::base_disp(Gpr::Rsi, offset),
                size: MemSize::U128,
            },
            MachInsn::Ret,
        ]
    };
    assert_eq!(
        m.run_block(&store_at(0xFF0), &mut NullRuntime),
        ExitReason::BlockEnd
    );
    assert_eq!(m.xmm_reg(Xmm(3)), Some([0x1111, 0x2222]));
    m.set_xmm(Xmm(2), [0x3333, 0x4444]);
    assert!(matches!(
        m.run_block(&store_at(0xFF8), &mut NullRuntime),
        ExitReason::Error(_)
    ));
    assert_eq!(m.mem.read_u64(RAM - 8).unwrap(), 0x2222, "no partial store");
    assert_eq!(mem_counters(&m.perf), [3, 2, 1, 0]);
}

#[test]
fn unsupported_widths_are_typed_errors_not_shift_overflows() {
    let mut mem = PhysMem::new(64);
    for size in [0, 3, 5, 7, 9, 16, 64, u64::MAX] {
        let e = mem.read_uint(8, size).unwrap_err();
        assert_eq!((e.addr, e.size), (8, size));
        assert_eq!(mem.write_uint(8, u64::MAX, size).unwrap_err(), e);
    }
    assert_eq!(
        mem.read_u128(0).unwrap(),
        [0, 0],
        "refused stores wrote nothing"
    );

    let addr = MemRef::base(Gpr::Rsi);
    let size = MemSize::U128;
    let gpr_forms = [
        MachInsn::Load {
            dst: Gpr::Rax,
            addr,
            size,
        },
        MachInsn::LoadSx {
            dst: Gpr::Rax,
            addr,
            size,
        },
        MachInsn::Store {
            src: Gpr::Rax,
            addr,
            size,
        },
        MachInsn::StoreImm { imm: 1, addr, size },
        MachInsn::MovSx {
            dst: Gpr::Rax,
            src: Gpr::Rbx,
            size,
        },
    ];
    for insn in gpr_forms {
        let mut m = Machine::new(MachineConfig {
            phys_mem: RAM,
            ..Default::default()
        });
        m.set_reg(Gpr::Rsi, 0x2000);
        m.set_reg(Gpr::Rax, 0xAB);
        let exit = m.run_block(&[insn, MachInsn::Ret], &mut NullRuntime);
        assert!(matches!(exit, ExitReason::Error(_)), "{insn:?} -> {exit:?}");
        assert_eq!(m.reg(Gpr::Rax), 0xAB, "{insn:?}");
        assert_eq!(m.mem.read_u128(0x2000).unwrap(), [0, 0], "{insn:?}");
    }

    // `Xmm` wraps any `u8`: a vector register past the sixteen the machine
    // has is one more malformed operand, on every arm that takes one — an
    // error exit with nothing loaded or stored, not a host panic.
    let (ok, bad) = (Xmm(1), Xmm(16));
    let vector_forms = [
        MachInsn::LoadXmm {
            dst: bad,
            addr,
            size,
        },
        MachInsn::StoreXmm {
            src: bad,
            addr,
            size,
        },
        MachInsn::MovGprToXmm {
            dst: bad,
            src: Gpr::Rax,
        },
        MachInsn::MovXmmToGpr {
            dst: Gpr::Rax,
            src: bad,
        },
        MachInsn::MovXmm {
            dst: ok,
            src: bad,
            size,
        },
        MachInsn::MovXmm {
            dst: Xmm(255),
            src: ok,
            size,
        },
        MachInsn::Fp {
            op: FpOp::AddD,
            dst: ok,
            src: bad,
        },
        MachInsn::FpFma {
            dst: ok,
            a: ok,
            b: bad,
        },
        MachInsn::FpCmp { a: bad, b: ok },
        MachInsn::CvtI2D {
            dst: bad,
            src: Gpr::Rax,
        },
        MachInsn::CvtD2I {
            dst: Gpr::Rax,
            src: bad,
        },
        MachInsn::Vec {
            op: VecOp::AddPd,
            dst: bad,
            src: ok,
        },
    ];
    for insn in vector_forms {
        let mut m = Machine::new(MachineConfig {
            phys_mem: RAM,
            ..Default::default()
        });
        m.set_reg(Gpr::Rsi, 0x2000);
        m.set_reg(Gpr::Rax, 0xAB);
        m.set_xmm(ok, [7, 9]);
        let exit = m.run_block(&[insn, MachInsn::Ret], &mut NullRuntime);
        assert!(matches!(exit, ExitReason::Error(_)), "{insn:?} -> {exit:?}");
        assert_eq!(m.reg(Gpr::Rax), 0xAB, "{insn:?}");
        assert_eq!(m.xmm_reg(ok), Some([7, 9]), "{insn:?}");
        assert_eq!(m.mem.read_u128(0x2000).unwrap(), [0, 0], "{insn:?}");
        assert_eq!(mem_counters(&m.perf), [0, 0, 0, 0], "{insn:?}");
    }

    // The public accessors take the same untrusted operand: a runtime or a
    // test handing them `Xmm(16..)` gets `None` / a dropped write, not an
    // index panic, and the real registers are untouched.
    let mut m = Machine::new(MachineConfig {
        phys_mem: RAM,
        ..Default::default()
    });
    m.set_xmm(Xmm(15), [5, 6]);
    for past_the_file in [bad, Xmm(255)] {
        m.set_xmm(past_the_file, [1, 2]);
        assert_eq!(m.xmm_reg(past_the_file), None);
    }
    assert_eq!(m.xmm_reg(Xmm(15)), Some([5, 6]));
    assert_eq!(m.xmm_reg(Xmm(0)), Some([0, 0]));
}

/// A fixed memory-heavy block: a 64-iteration loop of a load, a
/// sign-extending load, two stores and a vector load/store pair striding
/// across five pages, one of which the pager has to supply.
fn golden_block() -> Vec<MachInsn> {
    let at = |disp: i32| MemRef::base_index(Gpr::Rsi, Gpr::Rcx, 8, disp);
    vec![
        MachInsn::MovImm {
            dst: Gpr::Rsi,
            imm: VA,
        },
        MachInsn::MovImm {
            dst: Gpr::Rcx,
            imm: 64,
        },
        // loop:
        MachInsn::Load {
            dst: Gpr::Rax,
            addr: at(0),
            size: MemSize::U64,
        },
        MachInsn::LoadSx {
            dst: Gpr::Rbx,
            addr: at(0x1003),
            size: MemSize::U16,
        },
        MachInsn::Store {
            src: Gpr::Rbx,
            addr: at(0x2000),
            size: MemSize::U32,
        },
        MachInsn::StoreImm {
            imm: 0x5A,
            addr: at(0x4001),
            size: MemSize::U8,
        },
        MachInsn::LoadXmm {
            dst: Xmm(0),
            addr: at(0x3000),
            size: MemSize::U128,
        },
        MachInsn::StoreXmm {
            src: Xmm(0),
            addr: at(0x2800),
            size: MemSize::U64,
        },
        MachInsn::Alu {
            op: hvm::AluOp::Sub,
            dst: Gpr::Rcx,
            src: hvm::Operand::imm(1),
        },
        MachInsn::Jcc {
            cond: hvm::Cond::Ne,
            target: -7,
        },
        MachInsn::Ret,
    ]
}

#[test]
fn golden_perf_counters_of_a_memory_heavy_block() {
    let (m, faults, data) = run_mixed(&golden_block(), 512);
    let p = &m.perf;
    // Values recorded at the parent of the change that flattened the memory
    // path (commit 8610b0e); the path may get faster, never differently
    // priced.
    assert_eq!(
        [p.cycles, p.insns, p.mem_accesses, p.tlb_hits, p.tlb_misses],
        GOLDEN
    );
    assert_eq!([p.page_faults, p.helper_calls], [2, 0]);
    assert_eq!((m.tlb.fills, m.tlb.evictions), (5, 0));
    assert_eq!(faults, GOLDEN_FAULTS);
    let digest = data.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    });
    assert_eq!(digest, GOLDEN_DIGEST);
}

const GOLDEN: [u64; 5] = [3082, 515, 384, 379, 7];
/// (address, write, `perf.cycles` as the pager saw it).
const GOLDEN_FAULTS: &[(u64, bool, u64)] = &[(VA + 0x1203, false, 102), (VA + 0x3200, false, 854)];
const GOLDEN_DIGEST: u64 = 0xf5f1_c389_ed3e_8e41;

/// The byte loop `read_uint`/`write_uint` used to be.
fn read_ref(bytes: &[u8], addr: u64, size: u64) -> Option<u64> {
    let end = addr.checked_add(size)?;
    let span = bytes.get(addr as usize..usize::try_from(end).ok()?)?;
    Some(
        span.iter()
            .enumerate()
            .fold(0, |v, (i, &b)| v | (b as u64) << (8 * i)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn uint_accessors_match_the_byte_loop_reference(
        len in 1u64..80,
        pick in 0u64..1_000,
        size_idx in 0usize..4,
        value in 0u64..u64::MAX,
        fill in 0u64..u64::MAX,
    ) {
        let size = [1u64, 2, 4, 8][size_idx];
        // Half the cases crowd the end of memory, some of them past it or
        // wrapping the address space.
        let addr = match pick % 4 {
            0 => pick % len,
            1 => (len + 2).saturating_sub(pick % 12),
            2 => u64::MAX - pick % 12,
            _ => len - 1 - (pick / 4) % len.min(9),
        };
        let mut mem = PhysMem::new(len);
        let image: Vec<u8> = (0..len).map(|i| (fill >> (i % 8 * 8)) as u8 ^ i as u8).collect();
        mem.write(0, &image).unwrap();

        let expect = read_ref(&image, addr, size);
        prop_assert_eq!(mem.read_uint(addr, size).ok(), expect);

        let wrote = mem.write_uint(addr, value, size).is_ok();
        prop_assert_eq!(wrote, expect.is_some());
        let mut after = image.clone();
        if wrote {
            for i in 0..size {
                after[(addr + i) as usize] = (value >> (8 * i)) as u8;
            }
        }
        let mut now = vec![0; len as usize];
        mem.read(0, &mut now).unwrap();
        prop_assert_eq!(now, after);
    }
}
