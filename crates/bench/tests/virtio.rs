//! Cross-engine virtio-blk tests: the I/O kernels, the fault-injecting
//! disk, and device-originated code invalidation must leave every engine of
//! `bench::EQUIVALENT` byte-identical to the QEMU-style baseline.
//!
//! The `io.smc` kernel is the sharp case: its one read request DMAs disk
//! sector 0 over the kernel's own spin loop *while the loop is hot* — by
//! the time the completion retires, the loop is a formed (and, on the
//! default configuration, promoted) looping region.  The sector holds an
//! almost-identical copy of the code with the spin's back-edge replaced by
//! a NOP, so the loop terminates only if the engine notices the external
//! store, invalidates the region, reconciles any promoted loop carriers,
//! and retranslates.

use bench::{assert_agree, Guest, CODE_WINDOW, DATA_WINDOW, EQUIVALENT};
use hvm::{FaultKind, FaultPlan, VirtioBlkConfig};
use workloads::{io_kernels, vblk_config, vblk_read, vblk_smc, vblk_smc_config, Workload};

/// `w` with the device `vcfg` attached, digesting its code and data.
fn io_guest(w: &Workload, vcfg: &VirtioBlkConfig) -> Guest {
    Guest {
        virtio: Some(vcfg.clone()),
        digests: vec![CODE_WINDOW, DATA_WINDOW],
        ..w.into()
    }
}

#[test]
fn io_kernels_agree_across_engines_on_a_clean_disk() {
    let vcfg = vblk_config();
    for w in io_kernels() {
        let qs = &assert_agree(&io_guest(&w, &vcfg), &EQUIVALENT)[0].1.stats;
        assert!(qs.virtio_completions > 0, "{}: device did work", w.name);
        assert_eq!(qs.virtio_io_errors, 0, "{}: clean disk", w.name);
        assert_eq!(
            qs.virtio_completions, qs.virtio_submissions,
            "{}: every request retires",
            w.name
        );
    }
}

#[test]
fn smc_kernel_invalidates_a_live_looping_region_on_every_engine() {
    let (w, sector0) = vblk_smc();
    let runs = assert_agree(&io_guest(&w, &vblk_smc_config(sector0)), &EQUIVALENT);
    assert!(
        runs[0].1.stats.external_invalidations > 0,
        "device DMA over live code must flush the baseline's cache"
    );
    let default = bench::by_name(&runs, "default");
    assert!(
        default.stats.external_invalidations > 0,
        "device DMA must invalidate the translated page"
    );
    assert!(
        default.stats.loop_regions_formed > 0,
        "the spin loop must actually be a formed looping region"
    );
}

#[test]
fn promoted_loop_carriers_reconcile_across_device_invalidation() {
    // The spin loop promotes its registers into host loop carriers on the
    // default configuration; the device's asynchronous invalidation forces a
    // region exit, so the carriers must reconcile back to the register file
    // before retranslation.  Promotion on vs off must be invisible.
    let (w, sector0) = vblk_smc();
    let runs = assert_agree(
        &io_guest(&w, &vblk_smc_config(sector0)),
        &["default", "nopromote"],
    );
    let ps = &runs[0].1.stats;
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
    let qs = &assert_agree(&io_guest(&vblk_read(4), &vcfg), &EQUIVALENT)[0]
        .1
        .stats;
    assert!(qs.virtio_fault_injections > 0, "the chosen seed injects");
    assert_eq!(qs.virtio_completions, 4, "faults never lose completions");
}

#[test]
fn attached_but_idle_device_changes_nothing() {
    // A non-I/O workload with the device attached must behave — and cost —
    // exactly as if the device were absent: the poll path may not perturb
    // the modeled cycle count.  The data digest stops short of the MMIO
    // window, which legitimately differs (init_mmio populates the device ID
    // registers there).
    let data = (DATA_WINDOW.0, workloads::VBLK_MMIO_BASE - DATA_WINDOW.0);
    let without = Guest {
        digests: vec![CODE_WINDOW, data],
        ..(&workloads::loop_flood(4, 8, 20)).into()
    };
    let with = Guest {
        virtio: Some(vblk_config()),
        ..without.clone()
    };
    let (dev, none) = (
        bench::run(&with, "default"),
        bench::run(&without, "default"),
    );
    assert_eq!(dev.stats.virtio_kicks, 0);
    assert_eq!(dev.stats.virtio_completions, 0);
    assert_eq!(dev.differs(&none), None);
    assert_eq!(
        dev.stats.cycles, none.stats.cycles,
        "idle device is cycle-free"
    );
}
