//! Cross-engine virtio-blk tests: the I/O kernels, the fault-injecting
//! disk, and device-originated code invalidation must leave every Captive
//! configuration byte-identical to the QEMU-style baseline.
//!
//! The `io.smc` kernel is the sharp case: its one read request DMAs disk
//! sector 0 over the kernel's own spin loop *while the loop is hot* — by
//! the time the completion retires, the loop is a formed (and, on the
//! default configuration, promoted) looping region.  The sector holds an
//! almost-identical copy of the code with the spin's back-edge replaced by
//! a NOP, so the loop terminates only if the engine notices the external
//! store, invalidates the region, reconciles any promoted loop carriers,
//! and retranslates.

use bench::chaos::chaos_captive_configs;
use captive::{Captive, CaptiveConfig, RunExit};
use guest_aarch64::sys::{Engine, RunStats};
use hvm::{FaultKind, FaultPlan, VirtioBlkConfig};
use qemu_ref::QemuRef;
use workloads::{io_kernels, vblk_config, vblk_read, vblk_smc, vblk_smc_config, Workload};
use workloads::{CODE_BASE, DATA_BASE};

const CODE_DIGEST_LEN: u64 = 16 * 1024;
const DATA_DIGEST_LEN: u64 = 64 * 1024;

/// Final architectural state after an I/O run; must be engine-independent.
#[derive(Debug, Clone, PartialEq, Eq)]
struct IoOutcome {
    regs: [u64; 31],
    nzcv: u64,
    code_digest: u64,
    data_digest: u64,
}

/// Runs `w` on an engine (device already attached) to its halt and captures
/// the architectural outcome; the engine comes back for its counters.
fn run_io<E: Engine>(w: &Workload, mut e: E) -> (IoOutcome, E) {
    e.load_program(CODE_BASE, &w.words);
    e.set_entry(w.entry);
    let exit = e.run(bench::BLOCK_BUDGET);
    assert!(
        matches!(exit, RunExit::GuestHalted { .. }),
        "{}: unexpected exit {exit:?}",
        w.name
    );
    let outcome = IoOutcome {
        regs: std::array::from_fn(|i| e.guest_reg(i as u32)),
        nzcv: e.guest_nzcv(),
        code_digest: e.guest_mem_digest(CODE_BASE, CODE_DIGEST_LEN),
        data_digest: e.guest_mem_digest(DATA_BASE, DATA_DIGEST_LEN),
    };
    (outcome, e)
}

fn run_captive_io(
    w: &Workload,
    vcfg: &VirtioBlkConfig,
    cfg: CaptiveConfig,
) -> (IoOutcome, RunStats) {
    let (outcome, c) = run_io(
        w,
        Captive::new(CaptiveConfig {
            virtio: Some(vcfg.clone()),
            ..cfg
        }),
    );
    (outcome, c.stats())
}

/// The plain baseline's run, held to the benchmark's baseline (which links
/// across pages) on the way.
fn run_qemu_io(w: &Workload, vcfg: &VirtioBlkConfig) -> (IoOutcome, RunStats) {
    let on = |mut q: QemuRef| {
        q.attach_virtio(vcfg.clone());
        let (outcome, q) = run_io(w, q);
        (outcome, q.stats())
    };
    let reference = on(QemuRef::new(bench::guest_ram()));
    let (outcome, linked) = on(QemuRef::with_goto_tb(bench::guest_ram()));
    assert_eq!(outcome, reference.0, "{}: goto_tb QemuRef diverged", w.name);
    assert_eq!(
        linked.differs_across_engines(&reference.1),
        None,
        "{}",
        w.name
    );
    reference
}

#[test]
fn io_kernels_agree_across_engines_on_a_clean_disk() {
    let vcfg = vblk_config();
    for w in io_kernels() {
        let (reference, qs) = run_qemu_io(&w, &vcfg);
        assert!(qs.virtio_completions > 0, "{}: device did work", w.name);
        assert_eq!(qs.virtio_io_errors, 0, "{}: clean disk", w.name);
        assert_eq!(
            qs.virtio_completions, qs.virtio_submissions,
            "{}: every request retires",
            w.name
        );
        for (name, cfg) in chaos_captive_configs() {
            let (outcome, cs) = run_captive_io(&w, &vcfg, cfg);
            assert_eq!(outcome, reference, "{}: {name} diverged", w.name);
            assert_eq!(cs.differs_across_engines(&qs), None, "{}: {name}", w.name);
        }
    }
}

#[test]
fn smc_kernel_invalidates_a_live_looping_region_on_every_engine() {
    let (w, sector0) = vblk_smc();
    let vcfg = vblk_smc_config(sector0);
    let (reference, qs) = run_qemu_io(&w, &vcfg);
    assert!(
        qs.external_invalidations > 0,
        "device DMA over live code must flush the baseline's cache"
    );
    for (name, cfg) in chaos_captive_configs() {
        let (outcome, cs) = run_captive_io(&w, &vcfg, cfg);
        assert_eq!(outcome, reference, "{name} diverged on io.smc");
        assert_eq!(cs.differs_across_engines(&qs), None, "{name} on io.smc");
        if name == "default" {
            assert!(
                cs.external_invalidations > 0,
                "device DMA must invalidate the translated page"
            );
            assert!(
                cs.loop_regions_formed > 0,
                "the spin loop must actually be a formed looping region"
            );
        }
    }
}

#[test]
fn promoted_loop_carriers_reconcile_across_device_invalidation() {
    // The spin loop promotes its registers into host loop carriers on the
    // default configuration; the device's asynchronous invalidation forces a
    // region exit, so the carriers must reconcile back to the register file
    // before retranslation.  Promotion on vs off must be invisible.
    let (w, sector0) = vblk_smc();
    let vcfg = vblk_smc_config(sector0);
    let (with_promote, ps) = run_captive_io(&w, &vcfg, CaptiveConfig::default());
    let (without_promote, _) = run_captive_io(&w, &vcfg, bench::captive_config("nopromote"));
    assert_eq!(with_promote, without_promote);
    assert!(
        ps.jit.opt_promoted_slots > 0,
        "the default config must have promoted loop carriers to reconcile"
    );
    assert!(ps.external_invalidations > 0);
}

#[test]
fn injected_faults_degrade_to_typed_errors_identically() {
    // Find a fault seed that actually bites inside the first three requests
    // (the fourth is exempt so a Reordered fault can never wait on a kick
    // that will not come), then hold every engine to one outcome.
    let fault_seed = (1u64..)
        .find(|&s| {
            let plan = FaultPlan::seeded(s, 3);
            (0..3).any(|q| plan.decide(q, false) != FaultKind::None)
        })
        .unwrap();
    let vcfg = VirtioBlkConfig {
        fault_seed: Some(fault_seed),
        exempt_after: 3,
        ..vblk_config()
    };
    let w = vblk_read(4);
    let (reference, qs) = run_qemu_io(&w, &vcfg);
    assert!(qs.virtio_fault_injections > 0, "the chosen seed injects");
    assert_eq!(qs.virtio_completions, 4, "faults never lose completions");
    for (name, cfg) in chaos_captive_configs() {
        let (outcome, cs) = run_captive_io(&w, &vcfg, cfg);
        assert_eq!(outcome, reference, "{name} diverged under injected faults");
        assert_eq!(cs.differs_across_engines(&qs), None, "{name}");
    }
}

#[test]
fn attached_but_idle_device_changes_nothing() {
    // A non-I/O workload with the device attached must behave — and cost —
    // exactly as if the device were absent: the poll path may not perturb
    // the modeled cycle count.  The data digest stops short of the MMIO
    // window, which legitimately differs (init_mmio populates the device ID
    // registers there).
    let data_len = workloads::VBLK_MMIO_BASE - DATA_BASE;
    let w = workloads::loop_flood(4, 8, 20);
    let run = |virtio: Option<VirtioBlkConfig>| {
        let mut c = Captive::new(CaptiveConfig {
            virtio,
            ..CaptiveConfig::default()
        });
        c.load_program(CODE_BASE, &w.words);
        c.set_entry(w.entry);
        let exit = c.run(bench::BLOCK_BUDGET);
        assert!(matches!(exit, RunExit::GuestHalted { .. }));
        let mut regs = [0u64; 31];
        for (i, r) in regs.iter_mut().enumerate() {
            *r = c.guest_reg(i as u32);
        }
        let outcome = IoOutcome {
            regs,
            nzcv: c.guest_nzcv(),
            code_digest: c.guest_mem_digest(CODE_BASE, CODE_DIGEST_LEN),
            data_digest: c.guest_mem_digest(DATA_BASE, data_len),
        };
        (outcome, c.stats())
    };
    let (with_dev, ds) = run(Some(vblk_config()));
    let (without_dev, ns) = run(None);
    assert_eq!(ds.virtio_kicks, 0);
    assert_eq!(ds.virtio_completions, 0);
    assert_eq!(with_dev, without_dev);
    assert_eq!(ds.cycles, ns.cycles, "idle device is cycle-free");
}
