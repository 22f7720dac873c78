//! One simulated cell: how its programs are made, how its system is
//! built, how it is driven cycle by cycle, and the checks its outputs
//! must pass.

use crate::calib::{self, Calibrator};
use crate::trace::{Span, Tracer};
use inpg::{LockPrimitive, Mechanism};
use inpg_campaign::{CellConfig, CellRecord, CellWorkload};
use inpg_manycore::{LockPlacement, System, SystemConfig, ThreadProgram};
use inpg_noc::{BigRouterPlacement, NocStats};
use inpg_sim::{CoreId, LockId, SimRng};
use inpg_workloads::{generate, BenchmarkSpec, GenOptions};
use std::time::Instant;

/// Flag bit set on a recorded tick duration when the cycle was idle.
pub const IDLE_BIT: u32 = 1 << 31;

/// Every this many ticks one tick is also written to the trace file as
/// its own span; all ticks feed the per-layer percentiles.
pub const TICK_SPAN_STRIDE: usize = 64;

/// Consecutive empty-network cycles that count as drained.
const DRAIN_QUIET_CYCLES: u32 = 64;

/// Cycles a finished run may take to drain before the check fails.
const DRAIN_LIMIT_CYCLES: u64 = 200_000;

/// How a cell's per-thread programs are made.
#[derive(Debug, Clone)]
pub enum Programs {
    /// Every thread hammers lock 0; each thread's compute before each
    /// acquire is drawn from `[compute_lo, compute_hi]` by the seed.
    SeededHotLock {
        rounds: usize,
        compute_lo: u64,
        compute_hi: u64,
        cs_cycles: u64,
        seed: u64,
    },
    /// The campaign's fixed hot lock (identical rounds on every thread).
    FixedHotLock {
        rounds: usize,
        compute: u64,
        cs_cycles: u64,
    },
    /// A Figure-8 program model, from `inpg_workloads::generate`.
    Benchmark {
        spec: &'static BenchmarkSpec,
        scale: f64,
        seed: u64,
    },
}

/// Everything needed to build and run one cell.
#[derive(Debug, Clone)]
pub struct CellPlan {
    pub label: String,
    pub mechanism: Mechanism,
    pub cfg: SystemConfig,
    pub programs: Programs,
    pub locks: usize,
    pub placement: LockPlacement,
}

impl CellPlan {
    /// A cell on a `width`×`height` mesh under `mechanism` and `primitive`.
    pub fn new(
        label: impl Into<String>,
        mechanism: Mechanism,
        primitive: LockPrimitive,
        (width, height): (u8, u8),
        programs: Programs,
        placement: LockPlacement,
    ) -> Self {
        let mut cfg = SystemConfig::baseline();
        cfg.noc.width = width;
        cfg.noc.height = height;
        cfg.primitive = primitive;
        cfg.max_cycles = 50_000_000;
        let locks = match &programs {
            Programs::Benchmark { spec, .. } => spec.locks,
            Programs::SeededHotLock { .. } | Programs::FixedHotLock { .. } => 1,
        };
        CellPlan {
            label: label.into(),
            mechanism,
            cfg: mechanism.apply(cfg),
            programs,
            locks,
            placement,
        }
    }

    /// The direct-drive equivalent of a campaign cell, built the way
    /// `Experiment::run` builds it (the replay cross-checks that the two
    /// agree on every recorded count).
    pub fn from_cell_config(label: &str, c: &CellConfig) -> Result<Self, String> {
        let mut cfg = SystemConfig::baseline();
        cfg.noc.width = c.width;
        cfg.noc.height = c.height;
        cfg.noc.barrier_entries = c.barrier_entries;
        cfg.primitive = c.primitive;
        cfg.retry_budget = c.retry_budget;
        cfg.record_timeline = c.record_timeline;
        cfg.max_cycles = c.max_cycles;
        let mut cfg = c.mechanism.apply(cfg);
        if let Some(count) = c.big_routers {
            cfg.noc.placement = if count == 0 {
                BigRouterPlacement::None
            } else {
                BigRouterPlacement::Spread(count)
            };
        }
        let (programs, locks) = match &c.workload {
            CellWorkload::Benchmark { name } => {
                let spec = inpg_workloads::benchmark(name)
                    .ok_or_else(|| format!("cell `{label}`: unknown benchmark `{name}`"))?;
                (
                    Programs::Benchmark {
                        spec,
                        scale: c.scale,
                        seed: c.seed,
                    },
                    spec.locks,
                )
            }
            CellWorkload::HotLock {
                rounds,
                compute,
                cs_cycles,
            } => (
                Programs::FixedHotLock {
                    rounds: *rounds as usize,
                    compute: *compute,
                    cs_cycles: *cs_cycles,
                },
                1,
            ),
        };
        let placement = match c.lock_home {
            Some(core) => LockPlacement::At(CoreId::new(core)),
            None => LockPlacement::Interleaved,
        };
        Ok(CellPlan {
            label: label.to_string(),
            mechanism: c.mechanism,
            cfg,
            programs,
            locks,
            placement,
        })
    }

    /// The per-thread programs (the workload-generation step).
    pub fn programs(&self) -> Vec<ThreadProgram> {
        let threads = self.cfg.cores();
        match &self.programs {
            Programs::SeededHotLock {
                rounds,
                compute_lo,
                compute_hi,
                cs_cycles,
                seed,
            } => {
                let mut rng = SimRng::seed_from_u64(*seed ^ 0x686f_745f_6c6f_636b);
                (0..threads)
                    .map(|_| {
                        let mut thread_rng = rng.fork();
                        (0..*rounds).fold(ThreadProgram::new(), |p, _| {
                            p.compute(thread_rng.next_range(*compute_lo, *compute_hi))
                                .critical(LockId::new(0), *cs_cycles)
                        })
                    })
                    .collect()
            }
            Programs::FixedHotLock {
                rounds,
                compute,
                cs_cycles,
            } => (0..threads)
                .map(|_| ThreadProgram::new().rounds(*rounds, *compute, LockId::new(0), *cs_cycles))
                .collect(),
            Programs::Benchmark { spec, scale, seed } => generate(
                spec,
                GenOptions {
                    threads,
                    scale: *scale,
                    seed: *seed,
                },
            ),
        }
    }

    /// Generates the programs and builds the system: everything before
    /// the first simulated cycle. Returns the system, the expected
    /// critical-section count, and the two step times in nanoseconds.
    pub fn set_up(&self) -> Result<(System, usize, u64, u64), String> {
        let t = Instant::now();
        let programs = std::hint::black_box(self.programs());
        let generate_ns = t.elapsed().as_nanos() as u64;
        let expected_cs = programs.iter().map(ThreadProgram::cs_count).sum();
        let t = Instant::now();
        let system = System::new(self.cfg.clone(), programs, self.locks, self.placement)
            .map_err(|e| format!("cell `{}`: System::new: {e}", self.label))?;
        let new_ns = t.elapsed().as_nanos() as u64;
        Ok((system, expected_cs, generate_ns, new_ns))
    }
}

/// The NoC's packet books: every packet injected by a tile or generated
/// by a big router is delivered to an NI, consumed inside a router
/// (early-invalidation acks, stopped requests, and the NoC's own drops
/// are all counted as consumed), or still in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocBalance {
    pub injected: u64,
    pub generated: u64,
    pub delivered: u64,
    pub consumed: u64,
    pub in_flight: u64,
}

impl NocBalance {
    pub fn of(stats: &NocStats) -> Self {
        NocBalance {
            injected: stats.injected,
            generated: stats.generated_packets,
            delivered: stats.delivered,
            consumed: stats.consumed,
            in_flight: stats.in_flight,
        }
    }

    /// Conservation at drain: nothing in flight, and every packet that
    /// entered the network left it.
    pub fn check_drained(&self) -> Result<(), String> {
        if self.in_flight != 0 {
            return Err(format!(
                "{} packet(s) still in flight at drain",
                self.in_flight
            ));
        }
        let entered = self.injected + self.generated;
        let left = self.delivered + self.consumed;
        if entered != left {
            return Err(format!(
                "NoC conservation broken: injected {} + generated {} != delivered {} + consumed {}",
                self.injected, self.generated, self.delivered, self.consumed
            ));
        }
        Ok(())
    }
}

/// Every simulated count one cell produces, read through the system's
/// public stats getters when the last thread finishes. Equal configs
/// give equal counts; the traced run must reproduce them exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellCounts {
    pub completed: bool,
    /// Cycles simulated until the last thread finished (the ROI).
    pub cycles: u64,
    pub cs_completed: u64,
    /// Mean critical-section access time (COH + CSE per CS), cycles.
    pub cs_access_time: f64,
    pub injected: u64,
    pub delivered: u64,
    pub generated: u64,
    pub consumed: u64,
    pub flit_hops: u64,
    pub total_latency: u64,
    pub max_latency: u64,
    pub early_invs: u64,
    pub delivered_per_vnet: [u64; 4],
    pub barriers_installed: u64,
    pub requests_stopped: u64,
    pub acks_relayed: u64,
    pub passes_table_full: u64,
    pub home_getx: u64,
    pub home_invs_sent: u64,
    pub home_invs_saved: u64,
    pub home_queue_wait: u64,
    pub home_max_queue: u64,
    pub l1_misses: u64,
    pub l1_getx: u64,
    pub l1_invs_received: u64,
    pub lock_txn_cycles: u64,
    /// All round trips (direct and early merged), as campaign records keep them.
    pub invack_count: u64,
    pub invack_mean: f64,
    pub invack_max: u64,
    /// Early (router-closed) round trips only.
    pub early_count: u64,
    pub early_mean: f64,
    pub early_max: u64,
}

impl CellCounts {
    pub fn collect(sys: &System) -> Self {
        let noc = sys.noc_stats();
        let barrier = sys.barrier_stats();
        let home = sys.home_stats();
        let l1 = sys.l1_stats();
        let merged = sys.invack_roundtrips();
        let (_, early) = sys.invack_roundtrips_split();
        let (mut cs, mut coh, mut cse) = (0u64, 0u64, 0u64);
        for t in sys.thread_counters() {
            cs += t.cs_count() as u64;
            coh += t.total_cs_coh();
            cse += t.total_cs_cse();
        }
        let per_cs = |total: u64| {
            if cs == 0 {
                0.0
            } else {
                total as f64 / cs as f64
            }
        };
        let mut delivered_per_vnet = [0u64; 4];
        delivered_per_vnet.copy_from_slice(&noc.delivered_per_vnet[..4]);
        CellCounts {
            completed: sys.all_done(),
            cycles: sys.now().as_u64(),
            cs_completed: cs,
            cs_access_time: per_cs(coh) + per_cs(cse),
            injected: noc.injected,
            delivered: noc.delivered,
            generated: noc.generated_packets,
            consumed: noc.consumed,
            flit_hops: noc.flit_hops,
            total_latency: noc.total_latency,
            max_latency: noc.max_latency,
            early_invs: noc.early_invs_generated,
            delivered_per_vnet,
            barriers_installed: barrier.barriers_installed,
            requests_stopped: barrier.requests_stopped,
            acks_relayed: barrier.acks_relayed,
            passes_table_full: barrier.passes_table_full,
            home_getx: home.getx,
            home_invs_sent: home.invs_sent,
            home_invs_saved: home.invs_saved_by_early,
            home_queue_wait: home.queue_wait_cycles,
            home_max_queue: home.max_queue_len,
            l1_misses: l1.misses,
            l1_getx: l1.getx_issued,
            l1_invs_received: l1.invs_received,
            lock_txn_cycles: l1.lock_txn_cycles,
            invack_count: merged.total_count(),
            invack_mean: merged.mean(),
            invack_max: merged.max(),
            early_count: early.total_count(),
            early_mean: early.mean(),
            early_max: early.max(),
        }
    }

    /// The first field on which a campaign record disagrees with these
    /// directly driven counts, if any.
    pub fn record_mismatch(&self, r: &CellRecord) -> Option<String> {
        let pairs: [(&str, u64, u64); 12] = [
            ("roi_cycles", r.roi_cycles, self.cycles),
            ("cs_count", r.cs_count, self.cs_completed),
            ("delivered", r.delivered, self.delivered),
            ("generated", r.generated, self.generated),
            ("early_invs", r.early_invs, self.early_invs),
            (
                "requests_stopped",
                r.requests_stopped,
                self.requests_stopped,
            ),
            ("acks_relayed", r.acks_relayed, self.acks_relayed),
            ("home_invs_sent", r.home_invs_sent, self.home_invs_sent),
            ("home_invs_saved", r.home_invs_saved, self.home_invs_saved),
            ("lco_cycles", r.lco_cycles, self.lock_txn_cycles),
            ("invack.count", r.invack.count, self.invack_count),
            ("invack_early.count", r.invack_early.count, self.early_count),
        ];
        if r.completed != self.completed {
            return Some(format!(
                "completed: record {} vs replay {}",
                r.completed, self.completed
            ));
        }
        pairs
            .iter()
            .find(|(_, rec, direct)| rec != direct)
            .map(|(name, rec, direct)| format!("{name}: record {rec} vs replay {direct}"))
    }
}

/// The outcome of running one cell.
#[derive(Debug, Clone)]
pub struct CellRun {
    pub label: String,
    pub mechanism: Mechanism,
    /// Tiles on the cell's mesh.
    pub nodes: usize,
    pub counts: CellCounts,
    /// Failed output checks; empty when the cell passed.
    pub failures: Vec<String>,
    pub generate_ns: u64,
    pub new_ns: u64,
    /// Host time in the `try_tick` loop.
    pub run_ns: u64,
    pub wall_ns: u64,
    /// Traced runs only: each tick's host nanoseconds, `IDLE_BIT` set
    /// on cycles where no packet was injected or delivered and no flit
    /// hopped.
    pub ticks: Vec<u32>,
}

/// Sum of the NoC counters whose change marks a busy cycle.
fn activity(stats: &NocStats) -> u64 {
    stats.injected + stats.delivered + stats.flit_hops
}

/// Builds, runs and checks one cell. With a tracer, every step gets a
/// span under one cell span and every tick is timed.
///
/// With a calibrator, reference slices are timed between ticks when
/// due; their host time is left out of `run_ns` and `wall_ns`, and a
/// traced run records each as a span of its own.
pub fn run_cell(
    plan: &CellPlan,
    mut tracer: Option<&mut Tracer>,
    mut calib: Option<&mut Calibrator>,
    cell_id: u64,
) -> CellRun {
    let start = Instant::now();
    let mut calib_ns = 0;
    let cell_span = tracer
        .as_deref_mut()
        .map(|t| t.open(plan.label.clone(), "bench", cell_id, None));
    let mut run = CellRun {
        label: plan.label.clone(),
        mechanism: plan.mechanism,
        nodes: plan.cfg.cores(),
        counts: CellCounts::default(),
        failures: Vec::new(),
        generate_ns: 0,
        new_ns: 0,
        run_ns: 0,
        wall_ns: 0,
        ticks: Vec::new(),
    };
    let setup = plan.set_up();
    let (mut sys, expected_cs) = match setup {
        Ok((sys, expected_cs, generate_ns, new_ns)) => {
            run.generate_ns = generate_ns;
            run.new_ns = new_ns;
            if let Some(t) = tracer.as_deref_mut() {
                let base = t.ns_of(start);
                t.push(Span {
                    name: "generate".into(),
                    layer: "workloads",
                    cell: cell_id,
                    parent: cell_span,
                    start_ns: base,
                    dur_ns: generate_ns,
                    args: Vec::new(),
                });
                t.push(Span {
                    name: "System::new".into(),
                    layer: "manycore",
                    cell: cell_id,
                    parent: cell_span,
                    start_ns: base + generate_ns,
                    dur_ns: new_ns,
                    args: Vec::new(),
                });
            }
            (sys, expected_cs)
        }
        Err(e) => {
            run.failures.push(e);
            run.wall_ns = start.elapsed().as_nanos() as u64;
            return run;
        }
    };

    let max_cycles = sys.config().max_cycles;
    let mut tick_error = None;
    let loop_start = Instant::now();
    match tracer.as_deref_mut() {
        None => {
            while !sys.all_done() && sys.now().as_u64() < max_cycles {
                if let Err(e) = sys.try_tick() {
                    tick_error = Some(e);
                    break;
                }
                if let Some(c) = calib.as_deref_mut() {
                    if sys.now().as_u64().is_multiple_of(calib::CHECK_CYCLES) {
                        calib_ns += c.poll();
                    }
                }
            }
            run.run_ns = loop_start.elapsed().as_nanos() as u64 - calib_ns;
        }
        Some(t) => {
            let loop_span = t.open("run", "manycore", cell_id, cell_span);
            let mut before = activity(sys.noc_stats());
            while !sys.all_done() && sys.now().as_u64() < max_cycles {
                let cycle = sys.now().as_u64();
                let t0 = Instant::now();
                let ticked = sys.try_tick();
                let dur = t0.elapsed().as_nanos().min(u128::from(IDLE_BIT - 1)) as u32;
                let after = activity(sys.noc_stats());
                let idle = after == before;
                before = after;
                if run.ticks.len().is_multiple_of(TICK_SPAN_STRIDE) {
                    t.push(Span {
                        name: "try_tick".into(),
                        layer: "manycore",
                        cell: cell_id,
                        parent: Some(loop_span),
                        start_ns: t.ns_of(t0),
                        dur_ns: u64::from(dur),
                        args: vec![("idle", idle.to_string()), ("cycle", cycle.to_string())],
                    });
                }
                run.ticks.push(if idle { dur | IDLE_BIT } else { dur });
                if let Err(e) = ticked {
                    tick_error = Some(e);
                    break;
                }
                if let Some(c) = calib.as_deref_mut() {
                    if sys.now().as_u64().is_multiple_of(calib::CHECK_CYCLES) {
                        let at = Instant::now();
                        let ns = c.poll();
                        if ns > 0 {
                            calib_ns += ns;
                            t.push(Span {
                                name: "calibration slice".into(),
                                layer: "calib",
                                cell: cell_id,
                                parent: Some(loop_span),
                                start_ns: t.ns_of(at),
                                dur_ns: ns,
                                args: Vec::new(),
                            });
                        }
                    }
                }
            }
            run.run_ns = loop_start.elapsed().as_nanos() as u64 - calib_ns;
            t.close(loop_span);
            t.arg(loop_span, "cycles", sys.now().as_u64());
        }
    }
    run.counts = CellCounts::collect(&sys);

    let check_span = tracer
        .as_deref_mut()
        .map(|t| t.open("checks", "manycore", cell_id, cell_span));
    check_outputs(
        &mut sys,
        &run.counts,
        expected_cs,
        tick_error,
        &mut run.failures,
    );
    for f in &mut run.failures {
        *f = format!("cell `{}`: {f}", plan.label);
    }
    if let Some(t) = tracer {
        if let Some(s) = check_span {
            t.close(s);
        }
        if let Some(s) = cell_span {
            t.close(s);
            t.arg(
                s,
                "mechanism",
                crate::trace::json_string(&plan.mechanism.to_string()),
            );
        }
    }
    run.wall_ns = start.elapsed().as_nanos() as u64 - calib_ns;
    run
}

/// The end-of-run output checks. A cell fails when it errors or hits
/// its cycle bound, when its critical-section count is not the
/// programs' total, when big routers stopped a different number of
/// requests than they generated early invalidations for, when the NoC
/// does not drain with its packet books balanced, or when the protocol
/// invariant checker rejects the final state.
fn check_outputs(
    sys: &mut System,
    counts: &CellCounts,
    expected_cs: usize,
    tick_error: Option<inpg_manycore::SimError>,
    failures: &mut Vec<String>,
) {
    if let Some(e) = tick_error {
        failures.push(format!("try_tick failed: {e}"));
        return;
    }
    if !counts.completed {
        failures.push(format!(
            "hit max_cycles ({}) with threads unfinished",
            sys.config().max_cycles
        ));
        return;
    }
    if counts.cs_completed != expected_cs as u64 {
        failures.push(format!(
            "cs_completed {} != programs' critical sections {expected_cs}",
            counts.cs_completed
        ));
    }
    if counts.requests_stopped != counts.early_invs {
        failures.push(format!(
            "requests_stopped {} != early_invs_generated {}",
            counts.requests_stopped, counts.early_invs
        ));
    }
    let mut quiet = 0;
    let mut drained = 0;
    while quiet < DRAIN_QUIET_CYCLES && drained < DRAIN_LIMIT_CYCLES {
        if let Err(e) = sys.try_tick() {
            failures.push(format!("try_tick failed while draining: {e}"));
            return;
        }
        drained += 1;
        quiet = if sys.noc_stats().in_flight == 0 {
            quiet + 1
        } else {
            0
        };
    }
    if let Err(e) = NocBalance::of(sys.noc_stats()).check_drained() {
        failures.push(e);
    }
    if let Err(v) = sys.check_protocol_invariants() {
        failures.push(format!("protocol invariant violated: {v}"));
    }
}
