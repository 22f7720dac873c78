//! Golden full-system digests for the runs no committed campaign
//! artifact reaches: a 4×4 mesh with the recovery layer armed under
//! every injected fault kind, a QSL+OCOR run recording its phase
//! timeline, and a 12×12 iNPG hot lock wider than one 64-bit word.
//!
//! Each digest is an FNV-1a hash over the run's [`RunResult`], every
//! statistics getter of [`System`] and the per-thread phase counters, so
//! a changed count anywhere in the machine changes it. Tick-scheduling
//! changes (which tiles step in a cycle, in what order) must reproduce
//! these digests exactly. The 4×4 digests were recorded with the ungated
//! per-tile tick loop that preceded activity-gated ticking, and the
//! 12×12 digest with the per-tile sweeps that preceded the activity sets.

use inpg_locks::LockPrimitive;
use inpg_manycore::{LockPlacement, RunResult, System, SystemConfig, ThreadProgram};
use inpg_noc::{BigRouterPlacement, FaultKind, FaultPlan, NocConfig};
use inpg_sim::{CoreId, LockId};

/// FNV-1a over the debug rendering of every observable the run exposes.
fn digest(system: &System, result: RunResult) -> u64 {
    let parts = [
        format!("{result:?}"),
        format!("{:?}", system.now()),
        format!("{:?}", system.noc_stats()),
        format!("{:?}", system.barrier_stats()),
        format!("{:?}", system.l1_stats()),
        format!("{:?}", system.home_stats()),
        format!("{:?}", system.invack_roundtrips_split()),
        format!("{:?}", system.lco_cycles()),
        format!("{:?}", system.roi_finish()),
        format!("{:?}", system.cs_completed()),
        format!("{:?}", system.sleeping_threads()),
        format!("{:?}", system.thread_counters()),
        format!("{:?}", system.timeline()),
    ];
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for part in &parts {
        for byte in part.bytes().chain([0xff]) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// A 4×4 mesh with a big router on every tile and the recovery layer
/// armed, checked by the watchdog and the invariant sweep.
fn recovering_cfg(primitive: LockPrimitive, faults: FaultPlan) -> SystemConfig {
    let mut cfg = SystemConfig::baseline();
    cfg.noc = NocConfig {
        width: 4,
        height: 4,
        placement: BigRouterPlacement::All,
        faults,
        ..NocConfig::baseline()
    };
    cfg.primitive = primitive;
    cfg.max_cycles = 3_000_000;
    cfg.sleep_entry_cycles = 200;
    cfg.wakeup_cycles = 300;
    cfg.watchdog_cycles = Some(200_000);
    cfg.invariant_check_interval = Some(256);
    cfg.recover = true;
    cfg.recovery_timeout = 4_096;
    cfg.recovery_retry_budget = 4;
    cfg
}

/// Runs 16 threads of `rounds` critical sections on one lock homed at
/// tile 5 and returns the finished system and its result.
fn run(cfg: SystemConfig, rounds: usize, compute: u64, cs: u64) -> (System, RunResult) {
    let cores = cfg.cores();
    let programs =
        (0..cores).map(|_| ThreadProgram::new().rounds(rounds, compute, LockId::new(0), cs)).collect();
    let mut system = System::new(cfg, programs, 1, LockPlacement::At(CoreId::new(5)))
        .expect("valid configuration");
    let result = system.run_checked().expect("the run must complete");
    assert!(result.completed);
    assert_eq!(system.cs_completed(), cores * rounds);
    (system, result)
}

fn faulted(primitive: LockPrimitive, fault: FaultKind) -> (System, RunResult) {
    let faults = FaultPlan::none().seeded(7).with(fault);
    match primitive {
        LockPrimitive::Ticket => run(recovering_cfg(primitive, faults), 8, 0, 10),
        _ => run(recovering_cfg(primitive, faults), 4, 20, 20),
    }
}

#[test]
fn link_drop_under_recovery_is_pinned() {
    let (system, result) = faulted(LockPrimitive::Tas, FaultKind::LinkDrop { nth: 17 });
    assert_eq!(system.noc_stats().requests_dropped_by_fault, 1, "the drop must fire");
    assert!(system.l1_stats().retransmits >= 1, "recovery must retransmit");
    assert_eq!(digest(&system, result), 1_626_048_802_185_147_430);
}

#[test]
fn drop_ack_under_recovery_is_pinned() {
    let (system, result) = faulted(LockPrimitive::Ticket, FaultKind::DropAck { nth: 12 });
    assert_eq!(system.noc_stats().acks_dropped_by_fault, 1, "the drop must fire");
    assert_eq!(digest(&system, result), 15_818_810_803_081_235_983);
}

#[test]
fn jitter_under_recovery_is_pinned() {
    let (system, result) = faulted(LockPrimitive::Tas, FaultKind::DelayJitter { max_extra: 12 });
    assert!(system.noc_stats().jitter_delays > 0);
    assert_eq!(digest(&system, result), 2_411_202_548_975_352_264);
}

#[test]
fn router_fail_under_recovery_is_pinned() {
    let (system, result) = faulted(LockPrimitive::Tas, FaultKind::RouterFail { at_cycle: 1_000 });
    assert_eq!(system.barrier_stats().in_pass_through, 16);
    assert_eq!(digest(&system, result), 10_723_095_110_448_901_303);
}

#[test]
fn barrier_off_under_recovery_is_pinned() {
    let (system, result) = faulted(LockPrimitive::Tas, FaultKind::BarrierOff { at_cycle: 2_000 });
    assert_eq!(digest(&system, result), 4_555_087_994_746_405_922);
}

#[test]
fn ttl_storm_under_recovery_is_pinned() {
    let (system, result) = faulted(LockPrimitive::Tas, FaultKind::TtlStorm { at_cycle: 1_500 });
    assert_eq!(digest(&system, result), 1_727_151_672_115_713_852);
}

/// QSL under OCOR with a small retry budget, so threads walk the whole
/// sleep path (falling asleep, sleeping, waking) while the timeline
/// records every phase transition.
#[test]
fn qsl_ocor_timeline_run_is_pinned() {
    let mut cfg = SystemConfig::paper_default().with_ocor(true);
    cfg.noc = NocConfig { width: 4, height: 4, ..cfg.noc };
    cfg.retry_budget = 4;
    cfg.max_cycles = 3_000_000;
    cfg.sleep_entry_cycles = 200;
    cfg.wakeup_cycles = 300;
    cfg.record_timeline = true;
    let (system, result) = run(cfg, 4, 50, 40);
    let slept: u64 = system.thread_counters().iter().map(|c| c.sleep_cycles).sum();
    assert!(slept > 0, "the run must exercise the sleep path");
    assert!(system.timeline().is_some());
    assert_eq!(digest(&system, result), 4_955_000_263_391_145_401);
}

/// A 12×12 iNPG hot lock: 144 tiles span three 64-bit words of every
/// per-tile index, with the lock homed past the first word boundary.
#[test]
fn wide_mesh_inpg_hot_lock_is_pinned() {
    let mut cfg = SystemConfig::paper_default();
    cfg.noc = NocConfig { width: 12, height: 12, ..cfg.noc };
    cfg.primitive = LockPrimitive::Tas;
    cfg.max_cycles = 3_000_000;
    cfg.invariant_check_interval = Some(512);
    let cores = cfg.cores();
    let programs =
        (0..cores).map(|_| ThreadProgram::new().rounds(2, 30, LockId::new(0), 20)).collect();
    let mut system = System::new(cfg, programs, 1, LockPlacement::At(CoreId::new(77)))
        .expect("valid configuration");
    let result = system.run_checked().expect("the run must complete");
    assert!(result.completed);
    assert_eq!(system.cs_completed(), cores * 2);
    assert!(system.barrier_stats().requests_stopped > 0, "big routers must stop requests");
    assert_eq!(digest(&system, result), 3_387_485_542_686_834_393);
}
