//! Fault-recovery acceptance tests: every fault the harness can inject
//! is *survived* when the recovery layer is armed — the run terminates
//! with the full lock-handoff count and the same final lock state as a
//! fault-free run — while the identical fault with recovery off still
//! reproduces the structured abort the watchdog / invariant-checker
//! subsystem was built to raise.

use inpg_locks::LockPrimitive;
use inpg_manycore::{
    InvariantViolation, LockPlacement, SimError, System, SystemConfig, ThreadProgram,
};
use inpg_noc::{BigRouterPlacement, FaultKind, FaultPlan, NocConfig};
use inpg_sim::{CoreId, LockId};
use proptest::prelude::*;

const RECOVERY_TIMEOUT: u64 = 4_096;

fn inpg_cfg(primitive: LockPrimitive) -> SystemConfig {
    let mut cfg = SystemConfig::baseline();
    cfg.noc = NocConfig {
        width: 4,
        height: 4,
        placement: BigRouterPlacement::All,
        ..NocConfig::baseline()
    };
    cfg.primitive = primitive;
    cfg.max_cycles = 3_000_000;
    cfg.sleep_entry_cycles = 200;
    cfg.wakeup_cycles = 300;
    cfg
}

fn recovering(mut cfg: SystemConfig, budget: u32) -> SystemConfig {
    cfg.recover = true;
    cfg.recovery_timeout = RECOVERY_TIMEOUT;
    cfg.recovery_retry_budget = budget;
    cfg
}

fn hot_lock_programs(cores: usize, rounds: usize, compute: u64, cs: u64) -> Vec<ThreadProgram> {
    (0..cores).map(|_| ThreadProgram::new().rounds(rounds, compute, LockId::new(0), cs)).collect()
}

/// The ticket-lock storm of the PR-1 robustness tests: spinners hold
/// shared copies of the hot line, so every acquire collects a full
/// round of invalidation acknowledgements — dropping one wedges the
/// winner unless recovery retransmits around it.
fn ticket_system(cfg: SystemConfig, faults: FaultPlan) -> System {
    let mut cfg = cfg;
    cfg.noc.faults = faults;
    cfg.watchdog_cycles = Some(200_000);
    cfg.invariant_check_interval = Some(256);
    let programs = hot_lock_programs(16, 8, 0, 10);
    System::new(cfg, programs, 1, LockPlacement::At(CoreId::new(5))).unwrap()
}

/// A TAS storm on one hot line. The TAS lock machine spins on plain
/// `GetS` loads between its test-and-set RMWs, so REQUEST-class packets
/// mix exclusive requests, which the recovery layer retransmits, with
/// spin reads, which it does not: recovery re-arms only on exclusive
/// requests. A dropped spin read therefore wedges the run even with
/// recovery armed. With recovery on (4×4, budget 4), only link-drop
/// ordinals 17, 30 and 34-39 in 1..=39 recover; the others hit a spin
/// read and stall in `TasSpinWait`.
fn tas_system(cfg: SystemConfig, faults: FaultPlan) -> System {
    let mut cfg = cfg;
    cfg.noc.faults = faults;
    cfg.watchdog_cycles = Some(200_000);
    cfg.invariant_check_interval = Some(256);
    let programs = hot_lock_programs(16, 4, 20, 20);
    System::new(cfg, programs, 1, LockPlacement::At(CoreId::new(5))).unwrap()
}

/// Scans drop-ack ordinals until one wedges the recovery-off ticket
/// workload (the PR-1 canonical scenario). Deterministic, so the
/// ordinal reproduces the identical wedge in every test below.
fn first_wedging_ack_ordinal() -> u64 {
    for nth in 1..=64u64 {
        let cfg = inpg_cfg(LockPrimitive::Ticket);
        let mut system =
            ticket_system(cfg, FaultPlan::none().with(FaultKind::DropAck { nth }));
        if system.run_checked().is_err() {
            return nth;
        }
    }
    panic!("no dropped ack in 1..=64 wedged the ticket workload");
}

/// Scans link-drop ordinals for one that swallows an *exclusive*
/// request: recovery-off wedges, recovery-on completes. Ordinals that
/// hit a plain load (the test-and-test-and-set spin reads) also wedge,
/// but are outside recovery's charter — the retransmission timer only
/// arms on exclusive transactions — so the scan skips them.
fn wedging_recoverable_request_ordinal() -> u64 {
    for nth in 1..=64u64 {
        let fault = FaultPlan::none().with(FaultKind::LinkDrop { nth });
        let mut off = tas_system(inpg_cfg(LockPrimitive::Tas), fault.clone());
        if off.run_checked().is_ok() {
            continue;
        }
        let mut on = tas_system(recovering(inpg_cfg(LockPrimitive::Tas), 4), fault);
        if on.run_checked().is_ok() {
            return nth;
        }
    }
    panic!("no link-drop ordinal in 1..=64 swallowed a recoverable exclusive request");
}

/// The acceptance demo: PR 1's canonical dropped-`InvAck` scenario.
/// Recovery off reproduces the ack-conservation abort exactly as
/// before; recovery on completes every handoff and leaves the lock in
/// the same final state as a fault-free run.
#[test]
fn canonical_dropped_invack_recovers_with_correct_final_state() {
    let nth = first_wedging_ack_ordinal();
    let fault = FaultPlan::none().with(FaultKind::DropAck { nth });

    // Recovery off: the structured abort is unchanged.
    let mut wedged = ticket_system(inpg_cfg(LockPrimitive::Ticket), fault.clone());
    match wedged.run_checked() {
        Err(SimError::Invariant(InvariantViolation::AckConservation { .. }))
        | Err(SimError::Stall(_)) => {}
        other => panic!("recovery-off must abort as in PR 1, got {other:?}"),
    }

    // The fault-free reference run fixes the expected final state.
    let mut clean = ticket_system(inpg_cfg(LockPrimitive::Ticket), FaultPlan::none());
    let clean_result = clean.run_checked().expect("fault-free run passes");
    assert!(clean_result.completed);
    let lock_addr = clean.lock_primary(LockId::new(0));
    let clean_word = clean.read_word(lock_addr);

    // Recovery on: the same fault is survived.
    let cfg = recovering(inpg_cfg(LockPrimitive::Ticket), 4);
    let mut recovered = ticket_system(cfg, fault);
    let result = recovered
        .run_checked()
        .expect("the canonical dropped-InvAck scenario must complete under recovery");
    assert!(result.completed, "recovered run must terminate");
    assert_eq!(recovered.cs_completed(), 16 * 8, "every lock handoff must complete");
    assert_eq!(
        recovered.read_word(lock_addr),
        clean_word,
        "final lock-owner state must match the fault-free run"
    );
    assert_eq!(recovered.noc_stats().acks_dropped_by_fault, 1, "the drop really fired");
    let l1 = recovered.l1_stats();
    assert!(l1.retransmits >= 1, "recovery must have retransmitted: {l1:?}");
    assert_eq!(l1.recovery_exhausted, 0, "the budget must cover a single drop");
    // The recovered run pays for the timeout but not much more.
    assert!(
        result.cycles <= clean_result.cycles + 64 * RECOVERY_TIMEOUT,
        "recovered run ({}) must stay near the fault-free run ({})",
        result.cycles,
        clean_result.cycles
    );
}

/// A swallowed exclusive request (transient link loss) wedges the
/// recovery-off run and is survived with recovery on.
#[test]
fn dropped_request_recovers_with_full_handoff_count() {
    let nth = wedging_recoverable_request_ordinal();
    let fault = FaultPlan::none().with(FaultKind::LinkDrop { nth });

    let mut wedged = tas_system(inpg_cfg(LockPrimitive::Tas), fault.clone());
    assert!(wedged.run_checked().is_err(), "recovery-off must abort");

    let cfg = recovering(inpg_cfg(LockPrimitive::Tas), 4);
    let mut recovered = tas_system(cfg, fault);
    let result = recovered.run_checked().expect("link drop must be survived under recovery");
    assert!(result.completed);
    assert_eq!(recovered.cs_completed(), 16 * 4);
    assert_eq!(recovered.noc_stats().requests_dropped_by_fault, 1);
    assert!(recovered.l1_stats().retransmits >= 1);
}

/// Big-router failure degrades gracefully: every table flushes to
/// permanent pass-through (Original behaviour) and the run completes —
/// with and without the recovery layer armed.
#[test]
fn router_failure_degrades_to_pass_through_and_completes() {
    for recover in [false, true] {
        let mut cfg = inpg_cfg(LockPrimitive::Tas);
        if recover {
            cfg = recovering(cfg, 4);
        }
        let mut system =
            tas_system(cfg, FaultPlan::none().with(FaultKind::RouterFail { at_cycle: 1_000 }));
        let result = system
            .run_checked()
            .unwrap_or_else(|e| panic!("recover={recover}: router failure must be survived: {e}"));
        assert!(result.completed, "recover={recover}");
        assert_eq!(system.cs_completed(), 16 * 4, "recover={recover}");
        let barrier = system.barrier_stats();
        assert_eq!(
            barrier.in_pass_through, 16,
            "recover={recover}: every big router must be in pass-through"
        );
    }
}

/// Arming recovery must not disturb the scenarios that already degrade
/// gracefully without it: same termination, same handoff counts, and
/// no spurious retransmissions (their service latency never approaches
/// the timeout).
#[test]
fn graceful_fault_scenarios_still_complete_with_recovery_armed() {
    let scenarios: Vec<(&str, FaultPlan)> = vec![
        (
            "jitter",
            FaultPlan::none().seeded(7).with(FaultKind::DelayJitter { max_extra: 12 }),
        ),
        ("barrier-off", FaultPlan::none().with(FaultKind::BarrierOff { at_cycle: 2_000 })),
        ("ttl-storm", FaultPlan::none().with(FaultKind::TtlStorm { at_cycle: 1_500 })),
        ("ei-exhaust", FaultPlan::none().with(FaultKind::EiExhaust { capacity: 0 })),
    ];
    for (name, faults) in scenarios {
        let cfg = recovering(inpg_cfg(LockPrimitive::Tas), 4);
        let mut system = tas_system(cfg, faults);
        let result = system
            .run_checked()
            .unwrap_or_else(|e| panic!("{name}: must stay recoverable with recovery armed: {e}"));
        assert!(result.completed, "{name}");
        assert_eq!(system.cs_completed(), 16 * 4, "{name}");
        assert_eq!(
            system.l1_stats().retransmits,
            0,
            "{name}: a graceful fault must not trip the recovery timer"
        );
    }
}

/// Recovery preserves determinism: the same faulty configuration run
/// twice produces identical cycle counts, handoff counts, deliveries
/// and retransmission telemetry.
#[test]
fn recovered_runs_are_deterministic() {
    let nth = first_wedging_ack_ordinal();
    let run = || {
        let cfg = recovering(inpg_cfg(LockPrimitive::Ticket), 4);
        let mut system =
            ticket_system(cfg, FaultPlan::none().with(FaultKind::DropAck { nth }));
        let result = system.run_checked().expect("recovers");
        let l1 = system.l1_stats();
        (
            result.cycles,
            system.cs_completed(),
            system.noc_stats().delivered,
            l1.retransmits,
            system.home_stats().recovery_regrants,
        )
    };
    assert_eq!(run(), run());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// With recovery armed, *every* dropped-ack ordinal is survivable —
    /// load-bearing or harmless — across fault seeds, retry budgets and
    /// timeouts: the run always terminates with the full handoff count.
    #[test]
    fn any_dropped_ack_is_survived_under_recovery(
        nth in 1u64..24,
        seed in 0u64..1_000,
        budget in 1u32..6,
        timeout_shift in 0u32..3,
    ) {
        let mut cfg = recovering(inpg_cfg(LockPrimitive::Ticket), budget);
        cfg.recovery_timeout = RECOVERY_TIMEOUT << timeout_shift;
        let faults = FaultPlan::none()
            .seeded(seed)
            .with(FaultKind::DelayJitter { max_extra: seed % 8 })
            .with(FaultKind::DropAck { nth });
        let mut system = ticket_system(cfg, faults);
        let result = system
            .run_checked()
            .unwrap_or_else(|e| panic!("nth={nth} seed={seed} budget={budget}: {e}"));
        prop_assert!(result.completed, "nth={nth} seed={seed} budget={budget}");
        prop_assert_eq!(system.cs_completed(), 16 * 8);
        prop_assert_eq!(system.l1_stats().recovery_exhausted, 0);
    }
}
