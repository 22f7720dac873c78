//! The repository benchmark: simulator host throughput and simulated
//! iNPG speed-ups on three workloads, with per-layer probes and a traced
//! mode. See `perfbench/README.md` for what is measured and why.
//!
//! A run repeats its workload's unit of work until `--seconds` have
//! passed and reports medians over the repetitions. Host times are
//! measured from outside each layer, by timing calls into that layer's
//! public functions; simulated counts come from the public stats
//! getters and repeat exactly for one seed.

pub mod calib;
pub mod cells;
pub mod probes;
pub mod stats;
pub mod trace;
pub mod workloads;

use calib::Calibrator;
use cells::{CellRun, IDLE_BIT};
use stats::{geomean, median, percentile_sorted, tail_percentile};
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;
use workloads::{
    campaign_replay, campaign_unit, direct_plans, direct_unit, Sizes, UnitFingerprint, UnitResult,
    Workload,
};

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_cycles_per_s", "cycles/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("roi_speedup", "ratio"),
    ("cs_expedition", "ratio"),
];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.generate_s", "s"),
    ("manycore.new_s", "s"),
    ("manycore.tick_ns.p50", "ns"),
    ("manycore.tick_ns.p99", "ns"),
    ("manycore.busy_tick_ns.p50", "ns"),
    ("manycore.idle_tick_ns.p50", "ns"),
    ("manycore.idle_cycle_share", "ratio"),
    ("noc.flit_hops", "count"),
    ("noc.packets_injected", "count"),
    ("noc.packets_delivered", "count"),
    ("noc.mean_latency_cycles", "cycles"),
    ("noc.max_latency_cycles", "cycles"),
    ("noc.probe_idle_tick_ns", "ns"),
    ("noc.probe_loaded_tick_ns", "ns"),
    ("noc.early_invs_generated", "count"),
    ("barrier.installed", "count"),
    ("barrier.requests_stopped", "count"),
    ("barrier.acks_relayed", "count"),
    ("barrier.passes_table_full", "count"),
    ("home.getx", "count"),
    ("home.invs_sent", "count"),
    ("home.invs_saved_by_early", "count"),
    ("home.queue_wait_cycles", "cycles"),
    ("home.max_queue_len", "count"),
    ("home.probe_getx_ns", "ns"),
    ("l1.misses", "count"),
    ("l1.getx_issued", "count"),
    ("l1.invs_received", "count"),
    ("l1.lock_txn_cycles", "cycles"),
    ("invack.mean_cycles", "cycles"),
    ("invack.max_cycles", "cycles"),
    ("invack.early_mean_cycles", "cycles"),
    ("invack.early_max_cycles", "cycles"),
    ("campaign.cache_hit_ratio", "ratio"),
    ("campaign.pool_busy_share", "ratio"),
    ("campaign.cell_wall_s.p50", "s"),
    ("campaign.cell_wall_s.tail", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Where the campaign cache and the trace file go.
    pub out_dir: PathBuf,
}

/// The outcome of a run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    /// Failed checks, one line each.
    pub failures: Vec<String>,
    /// `(name, unit, value)` in print order.
    pub metrics: Vec<(String, &'static str, f64)>,
    /// Human-readable context printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty() && self.attempted > 0
    }

    fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    fn absorb(&mut self, unit: &UnitResult) {
        self.attempted += unit.attempted;
        self.failed += unit.failed;
        self.failures.extend(unit.failures.iter().cloned());
    }

    fn metric(&mut self, name: &str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| *u);
        self.metrics.push((name.to_string(), unit, value));
    }

    /// The result line: one JSON object.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!(
                    "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                    trace::json_string(name),
                    trace::json_string(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Host peak resident memory (VmHWM) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs the benchmark.
///
/// # Errors
///
/// Fails when the scratch directory cannot be created or the trace file
/// cannot be written; failed output checks are reported in the
/// [`Report`] instead.
pub fn run(opts: &Options) -> Result<Report, String> {
    let scratch = opts.out_dir.join(format!(
        "run-{}-{}",
        opts.workload.name(),
        std::process::id()
    ));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let result = if opts.trace {
        run_traced(opts, &scratch)
    } else {
        run_untraced(opts, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

/// Runs one unit of the workload.
fn unit(
    opts: &Options,
    scratch: &std::path::Path,
    tracer: Option<&mut Tracer>,
    calib: Option<&mut Calibrator>,
    first_cell_id: u64,
) -> UnitResult {
    match opts.workload {
        Workload::Campaign => campaign_unit(opts.seed, &opts.sizes, scratch, tracer),
        Workload::HotLock | Workload::ParsecQsl => direct_unit(
            &direct_plans(opts.workload, opts.seed, &opts.sizes),
            tracer,
            calib,
            first_cell_id,
        ),
    }
}

/// The campaign's direct replay (checks and per-layer counts); `None`
/// for the directly driven workloads, whose units already are direct.
fn replay(
    opts: &Options,
    cold: &UnitResult,
    tracer: Option<&mut Tracer>,
    first_cell_id: u64,
) -> Option<UnitResult> {
    (opts.workload == Workload::Campaign)
        .then(|| campaign_replay(opts.seed, &opts.sizes, &cold.records, tracer, first_cell_id))
}

/// One round of the traced run: a unit and, on `campaign`, the direct
/// replay that carries its per-layer counts.
struct Round {
    unit: UnitResult,
    replay: Option<UnitResult>,
}

impl Round {
    fn wall_s(&self) -> f64 {
        secs(self.unit.wall_ns + self.unit.warm_ns + self.replay.as_ref().map_or(0, |r| r.wall_ns))
    }

    fn attempted(&self) -> usize {
        self.unit.attempted + self.replay.as_ref().map_or(0, |r| r.attempted)
    }

    fn fingerprint(&self) -> (UnitFingerprint<'_>, Option<UnitFingerprint<'_>>) {
        (
            self.unit.fingerprint(),
            self.replay.as_ref().map(UnitResult::fingerprint),
        )
    }
}

/// Runs a round, then the calibration slices it is still owed (see
/// [`owed_slices`]); returns it with its start and end on the
/// calibrator's clock.
fn round(
    opts: &Options,
    scratch: &std::path::Path,
    mut tracer: Option<&mut Tracer>,
    calib: &mut Calibrator,
    first_cell_id: u64,
) -> (Round, f64, f64) {
    let from = calib.now_s();
    let slices = calib.slices();
    let unit = unit(
        opts,
        scratch,
        tracer.as_deref_mut(),
        Some(calib),
        first_cell_id,
    );
    let replay = replay(opts, &unit, tracer, first_cell_id + 500);
    let to = calib.now_s();
    owed_slices(calib, slices, from, to);
    (Round { unit, replay }, from, to)
}

/// Every unit gets a slice per interval of its host time, at least one;
/// those it could not poll for (the campaign's pool cannot stop between
/// ticks) are timed after it. `slices` is the count before it began.
fn owed_slices(calib: &mut Calibrator, slices: usize, from: f64, to: f64) {
    let due = ((to - from) / calib::INTERVAL.as_secs_f64())
        .ceil()
        .max(1.0) as usize;
    while calib.slices() - slices < due {
        calib.slice();
    }
}

/// One untraced unit's host timings, as measured.
struct UnitTiming {
    /// Seconds on the calibrator's clock when the unit's set-up began
    /// and when the unit ended.
    from: f64,
    to: f64,
    /// Set-up samples taken before the unit, in seconds.
    setup: Vec<f64>,
    rate: f64,
    wall: f64,
    warm: f64,
    outside_cells: f64,
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn labels_note(opts: &Options, report: &mut Report) {
    report.notes.push(format!(
        "workload {} seed {} (campaign workers {})",
        opts.workload.name(),
        opts.seed,
        workloads::CAMPAIGN_WORKERS
    ));
    match opts.workload {
        Workload::HotLock => {}
        Workload::ParsecQsl | Workload::Campaign => report.notes.push(
            "simulated results here come from unvalidated synthetic program models (DESIGN.md §2): no error figure against the paper".into(),
        ),
    }
}

fn run_untraced(opts: &Options, scratch: &std::path::Path) -> Result<Report, String> {
    let mut report = Report::default();
    labels_note(opts, &mut report);

    // Host times are rescaled by the host's slowdown during the same
    // unit, from the reference slices timed beside it (see `calib`).
    // Set-up is sampled before every unit, so its median spans the run
    // rather than one moment of it. Only the first unit is kept whole;
    // later ones are compared with it and reduced to their timings, so
    // memory does not grow with the run.
    let mut calib = Calibrator::new();
    calib.warm_up();
    let sample_setup = |report: &mut Report| {
        let mut samples = Vec::new();
        for _ in 0..opts.sizes.setup_reps.max(1) {
            match workloads::set_up_once(opts.workload, opts.seed, &opts.sizes) {
                Ok(ns) => samples.push(secs(ns)),
                Err(e) => report.fail(format!("set-up failed: {e}")),
            }
        }
        samples
    };
    let mut timings: Vec<UnitTiming> = Vec::new();
    let measure = |calib: &mut Calibrator, report: &mut Report| {
        let from = calib.now_s();
        let slices = calib.slices();
        let setup = sample_setup(report);
        let u = unit(opts, scratch, None, Some(calib), 1);
        let to = calib.now_s();
        owed_slices(calib, slices, from, to);
        let timing = UnitTiming {
            from,
            to,
            setup,
            rate: u.sim_cycles as f64 / secs(u.sim_ns.max(1)),
            wall: secs(u.wall_ns),
            warm: secs(u.warm_ns),
            outside_cells: 1.0 - u.pool_busy_share,
        };
        report.absorb(&u);
        (u, timing)
    };
    let loop_start = Instant::now();
    let (first, timing) = measure(&mut calib, &mut report);
    timings.push(timing);
    while loop_start.elapsed().as_secs_f64() < opts.seconds {
        let (u, timing) = measure(&mut calib, &mut report);
        if u.fingerprint() != first.fingerprint() {
            report.fail(format!(
                "unit {} simulated different outputs than unit 0 of the same seed",
                timings.len()
            ));
        }
        timings.push(timing);
    }
    if calib.mismatch {
        report.fail("the reference model's checksum changed between calibration slices");
    }
    let units = timings.len();
    let slowdowns: Vec<f64> = timings
        .iter()
        .map(|t| {
            calib
                .slowdown(t.from, t.to)
                .expect("every unit has a slice between its start and end")
        })
        .collect();
    let per_unit = |f: &dyn Fn(&UnitTiming, f64) -> f64| -> Vec<f64> {
        timings
            .iter()
            .zip(&slowdowns)
            .map(|(t, &s)| f(t, s))
            .collect()
    };
    let rates = per_unit(&|t, s| t.rate * s);
    let walls = per_unit(&|t, s| t.wall / s);
    let raw_rates = per_unit(&|t, _| t.rate);
    let raw_walls = per_unit(&|t, _| t.wall);
    let warm = per_unit(&|t, s| t.warm / s);
    let outside_cells = per_unit(&|t, _| t.outside_cells);
    let setup_of = |scale: &dyn Fn(f64) -> f64| -> Vec<f64> {
        timings
            .iter()
            .zip(&slowdowns)
            .flat_map(|(t, &s)| t.setup.iter().map(move |&v| v / scale(s)))
            .collect()
    };
    let setup_norm = setup_of(&|s| s);
    let setup_raw = setup_of(&|_| 1.0);
    if let Some(r) = replay(opts, &first, None, 1) {
        report.absorb(&r);
    }
    report.notes.push(format!(
        "host slowdown per unit {slowdowns:.3?} (median reference slice time / {} s; {} slices)",
        calib::REFERENCE_SLICE_S,
        calib.slices()
    ));
    report.notes.push(format!(
        "per-unit sim_cycles_per_s {rates:.0?} (raw {raw_rates:.0?})"
    ));
    report
        .notes
        .push(format!("per-unit wall_s {walls:.4?} (raw {raw_walls:.4?})"));
    report.notes.push(format!(
        "raw_sim_cycles_per_s {} cycles/s, raw_wall_s {} s, raw_setup_s {} s (host time as measured, medians)",
        median(&raw_rates).unwrap_or(0.0),
        median(&raw_walls).unwrap_or(0.0),
        median(&setup_raw).unwrap_or(0.0)
    ));
    report.metric("sim_cycles_per_s", median(&rates).unwrap_or(0.0));
    report.metric("wall_s", median(&walls).unwrap_or(0.0));
    report.metric("setup_s", median(&setup_norm).unwrap_or(0.0));
    match peak_rss_mib() {
        Some(mib) => report.metric("peak_rss_mib", mib),
        None => {
            report.fail("cannot read VmHWM from /proc/self/status");
            report.metric("peak_rss_mib", 0.0);
        }
    }
    let pairs = &first.pairs;
    let roi = geomean(
        &pairs
            .iter()
            .map(|p| p.original_roi as f64 / p.inpg_roi.max(1) as f64)
            .collect::<Vec<_>>(),
    );
    let cs = geomean(
        &pairs
            .iter()
            .map(|p| p.original_cs_access / p.inpg_cs_access)
            .collect::<Vec<_>>(),
    );
    if roi.is_none() || cs.is_none() {
        report.fail("no complete Original/iNPG pair to compute roi_speedup and cs_expedition from");
    }
    report.metric("roi_speedup", roi.unwrap_or(0.0));
    report.metric("cs_expedition", cs.unwrap_or(0.0));

    let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
    report.notes.push(format!(
        "{} unit(s) in {:.2} s; {} Original/iNPG pair(s); fail_ratio {} ratio ({} failed of {} attempted cells)",
        units,
        loop_start.elapsed().as_secs_f64(),
        pairs.len(),
        failed_share,
        report.failed,
        report.attempted
    ));
    if opts.workload == Workload::Campaign {
        report.notes.push(format!(
            "warm_wall_s {} s (median warm, all-hit pass; printed here because only this workload has one)",
            median(&warm).unwrap_or(0.0)
        ));
        report.notes.push(format!(
            "outside_cells_share {} ratio (median share of the cold pass's worker time spent outside the cells: pool start and tail idle, cache store, merge)",
            median(&outside_cells).unwrap_or(0.0)
        ));
    }
    Ok(report)
}

fn sum(cells: &[&CellRun], f: impl Fn(&cells::CellCounts) -> u64) -> u64 {
    cells.iter().map(|c| f(&c.counts)).sum()
}

/// Count-weighted mean of a per-cell mean.
fn weighted(
    cells: &[&CellRun],
    count: impl Fn(&cells::CellCounts) -> u64,
    mean: impl Fn(&cells::CellCounts) -> f64,
) -> f64 {
    let n: u64 = cells.iter().map(|c| count(&c.counts)).sum();
    if n == 0 {
        return 0.0;
    }
    cells
        .iter()
        .map(|c| count(&c.counts) as f64 * mean(&c.counts))
        .sum::<f64>()
        / n as f64
}

fn run_traced(opts: &Options, scratch: &std::path::Path) -> Result<Report, String> {
    let mut report = Report::default();
    labels_note(opts, &mut report);

    // Untraced and traced rounds alternate U T T U U T T U …, so a
    // steady drift in host speed cancels out of trace.overhead_ratio, and
    // each round's wall is divided by the host's slowdown around it, as
    // in the untraced run. They run until `seconds` have passed, and at
    // least once through U T T U. Every round must simulate what the
    // first one did.
    let mut tracer = Tracer::new();
    let mut calib = Calibrator::new();
    calib.warm_up();
    let mut untraced: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    // (rescaled, as measured) round walls in seconds.
    let mut untraced_wall: Vec<(f64, f64)> = Vec::new();
    let mut traced_wall: Vec<(f64, f64)> = Vec::new();
    let start = Instant::now();
    let mut k = 0u64;
    while k < 4 || start.elapsed().as_secs_f64() < opts.seconds {
        let is_traced = matches!(k % 4, 1 | 2);
        let (r, from, to) = round(
            opts,
            scratch,
            is_traced.then_some(&mut tracer),
            &mut calib,
            1 + 1000 * k,
        );
        let wall = r.wall_s();
        let slowdown = calib
            .slowdown(from, to)
            .expect("every round has a slice between its start and end");
        report.absorb(&r.unit);
        if let Some(replay) = &r.replay {
            report.absorb(replay);
        }
        if let Some(first) = untraced.first() {
            if r.fingerprint() != first.fingerprint() {
                if is_traced {
                    report.fail("tracing changed the simulated counts of the same seed");
                    report.failed += r.attempted();
                } else {
                    report.fail(format!(
                        "round {k} simulated different outputs than round 0 of the same seed"
                    ));
                }
            }
        }
        if is_traced {
            traced.push(r);
            traced_wall.push((wall / slowdown, wall));
        } else {
            untraced.push(r);
            untraced_wall.push((wall / slowdown, wall));
        }
        k += 1;
    }
    if calib.mismatch {
        report.fail("the reference model's checksum changed between calibration slices");
    }

    // Direct cells: the traced units' own, or the campaign replay's.
    let layer_units: Vec<&UnitResult> = traced
        .iter()
        .map(|r| r.replay.as_ref().unwrap_or(&r.unit))
        .collect();
    let first: Vec<&CellRun> = layer_units[0].cells.iter().collect();
    let per_unit = |f: &dyn Fn(&CellRun) -> u64| -> f64 {
        let v: Vec<f64> = layer_units
            .iter()
            .map(|u| secs(u.cells.iter().map(f).sum()))
            .collect();
        median(&v).unwrap_or(0.0)
    };
    report.metric("workloads.generate_s", per_unit(&|c| c.generate_ns));
    report.metric("manycore.new_s", per_unit(&|c| c.new_ns));

    let mut all: Vec<u32> = Vec::new();
    let mut busy: Vec<u32> = Vec::new();
    let mut idle: Vec<u32> = Vec::new();
    for u in &layer_units {
        for c in &u.cells {
            for &t in &c.ticks {
                let ns = t & !IDLE_BIT;
                all.push(ns);
                if t & IDLE_BIT != 0 {
                    idle.push(ns);
                } else {
                    busy.push(ns);
                }
            }
        }
    }
    let first_ticks: usize = first.iter().map(|c| c.ticks.len()).sum();
    let first_idle: usize = first
        .iter()
        .map(|c| c.ticks.iter().filter(|&&t| t & IDLE_BIT != 0).count())
        .sum();
    for v in [&mut all, &mut busy, &mut idle] {
        v.sort_unstable();
    }
    report.metric(
        "manycore.tick_ns.p50",
        f64::from(percentile_sorted(&all, 50.0)),
    );
    report.metric(
        "manycore.tick_ns.p99",
        f64::from(percentile_sorted(&all, 99.0)),
    );
    report.metric(
        "manycore.busy_tick_ns.p50",
        f64::from(percentile_sorted(&busy, 50.0)),
    );
    report.metric(
        "manycore.idle_tick_ns.p50",
        f64::from(percentile_sorted(&idle, 50.0)),
    );
    report.metric(
        "manycore.idle_cycle_share",
        first_idle as f64 / first_ticks.max(1) as f64,
    );
    report.notes.push(format!(
        "ticks timed: {} ({} busy, {} idle) over {} traced unit(s)",
        all.len(),
        busy.len(),
        idle.len(),
        layer_units.len()
    ));

    let cycles = sum(&first, |c| c.cycles);
    let delivered = sum(&first, |c| c.delivered);
    report.metric("noc.flit_hops", sum(&first, |c| c.flit_hops) as f64);
    report.metric("noc.packets_injected", sum(&first, |c| c.injected) as f64);
    report.metric("noc.packets_delivered", delivered as f64);
    report.metric(
        "noc.mean_latency_cycles",
        sum(&first, |c| c.total_latency) as f64 / delivered.max(1) as f64,
    );
    report.metric(
        "noc.max_latency_cycles",
        first
            .iter()
            .map(|c| c.counts.max_latency)
            .max()
            .unwrap_or(0) as f64,
    );

    // The probes run on the workload's mesh (the campaign's largest), at
    // the load its cells of that size offered.
    let (width, height) = opts.sizes.mesh;
    let nodes = usize::from(width) * usize::from(height);
    let big: Vec<&CellRun> = first.iter().copied().filter(|c| c.nodes == nodes).collect();
    let big_cycles = sum(&big, |c| c.cycles).max(1);
    let vnets: Vec<u64> = (0..4)
        .map(|v| sum(&big, |c| c.delivered_per_vnet[v]))
        .collect();
    let vnet_total = vnets.iter().sum::<u64>().max(1) as f64;
    let load = probes::OfferedLoad {
        width,
        height,
        rate: sum(&big, |c| c.injected) as f64 / (big_cycles as f64 * nodes as f64),
        vnet_share: [0, 1, 2, 3].map(|v| vnets[v] as f64 / vnet_total),
        data_share: (sum(&big, |c| c.l1_misses) as f64 / vnets[2].max(1) as f64).min(1.0),
        hot_dst: (opts.workload == Workload::HotLock).then(|| workloads::hot_home((width, height))),
    };
    let span = tracer.open("noc probe", "noc", 0, None);
    match probes::noc_probe(&load, opts.sizes.noc_probe_batches, opts.seed) {
        Ok(p) => {
            report.metric("noc.probe_idle_tick_ns", p.idle_tick_ns);
            report.metric("noc.probe_loaded_tick_ns", p.loaded_tick_ns);
            report.notes.push(format!(
                "noc probe: {width}x{height} mesh, {:.5} packets/node/cycle, vnet shares {:.3?}, data share {:.3}, hot destination {:?}; {} injected, {} delivered",
                load.rate, load.vnet_share, load.data_share, load.hot_dst, p.loaded_injected, p.loaded_delivered
            ));
        }
        Err(e) => {
            report.fail(e);
            report.metric("noc.probe_idle_tick_ns", 0.0);
            report.metric("noc.probe_loaded_tick_ns", 0.0);
        }
    }
    tracer.close(span);

    report.metric(
        "noc.early_invs_generated",
        sum(&first, |c| c.early_invs) as f64,
    );
    report.metric(
        "barrier.installed",
        sum(&first, |c| c.barriers_installed) as f64,
    );
    report.metric(
        "barrier.requests_stopped",
        sum(&first, |c| c.requests_stopped) as f64,
    );
    report.metric(
        "barrier.acks_relayed",
        sum(&first, |c| c.acks_relayed) as f64,
    );
    report.metric(
        "barrier.passes_table_full",
        sum(&first, |c| c.passes_table_full) as f64,
    );
    let getx = sum(&first, |c| c.home_getx);
    let invs = sum(&first, |c| c.home_invs_sent);
    report.metric("home.getx", getx as f64);
    report.metric("home.invs_sent", invs as f64);
    report.metric(
        "home.invs_saved_by_early",
        sum(&first, |c| c.home_invs_saved) as f64,
    );
    report.metric(
        "home.queue_wait_cycles",
        sum(&first, |c| c.home_queue_wait) as f64,
    );
    report.metric(
        "home.max_queue_len",
        first
            .iter()
            .map(|c| c.counts.home_max_queue)
            .max()
            .unwrap_or(0) as f64,
    );
    let sharers = (invs as f64 / getx.max(1) as f64).round().max(1.0) as usize;
    let span = tracer.open("home probe", "coherence.home", 0, None);
    match probes::home_probe(nodes, sharers, opts.sizes.home_probe_iterations) {
        Ok(p) => {
            report.metric("home.probe_getx_ns", p.getx_ns);
            report.notes.push(format!(
                "home probe: {} sharers per exclusive request (workload invs_sent/getx = {invs}/{getx}), {:.2} invalidations+forwards emitted each",
                p.sharers, p.invs_per_getx
            ));
        }
        Err(e) => {
            report.fail(e);
            report.metric("home.probe_getx_ns", 0.0);
        }
    }
    tracer.close(span);

    report.metric("l1.misses", sum(&first, |c| c.l1_misses) as f64);
    report.metric("l1.getx_issued", sum(&first, |c| c.l1_getx) as f64);
    report.metric(
        "l1.invs_received",
        sum(&first, |c| c.l1_invs_received) as f64,
    );
    report.metric(
        "l1.lock_txn_cycles",
        sum(&first, |c| c.lock_txn_cycles) as f64,
    );
    let original: Vec<&CellRun> = first
        .iter()
        .copied()
        .filter(|c| c.mechanism == inpg::Mechanism::Original)
        .collect();
    let inpg_cells: Vec<&CellRun> = first
        .iter()
        .copied()
        .filter(|c| c.mechanism == inpg::Mechanism::Inpg)
        .collect();
    let inv_mean = weighted(&original, |c| c.invack_count, |c| c.invack_mean);
    let inv_max = original
        .iter()
        .map(|c| c.counts.invack_max)
        .max()
        .unwrap_or(0);
    let early_mean = weighted(&inpg_cells, |c| c.early_count, |c| c.early_mean);
    let early_max = inpg_cells
        .iter()
        .map(|c| c.counts.early_max)
        .max()
        .unwrap_or(0);
    report.metric("invack.mean_cycles", inv_mean);
    report.metric("invack.max_cycles", inv_max as f64);
    report.metric("invack.early_mean_cycles", early_mean);
    report.metric("invack.early_max_cycles", early_max as f64);
    if opts.workload == Workload::HotLock {
        report.notes.push(format!(
            "invack (Original, all trips): mean {inv_mean:.1} max {inv_max} cycles — paper Fig. 10a/b: mean 39.2, max 97"
        ));
        report.notes.push(format!(
            "invack (iNPG, early trips): mean {early_mean:.1} max {early_max} cycles — paper Fig. 10c/d: mean 9.5, max 15"
        ));
    }

    let hits: usize = traced.iter().map(|r| r.unit.cache_hits).sum();
    let cells: usize = traced.iter().map(|r| r.unit.attempted).sum();
    report.metric(
        "campaign.cache_hit_ratio",
        hits as f64 / cells.max(1) as f64,
    );
    let busy_share: Vec<f64> = traced.iter().map(|r| r.unit.pool_busy_share).collect();
    report.metric(
        "campaign.pool_busy_share",
        median(&busy_share).unwrap_or(0.0),
    );
    let mut walls: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.unit.cell_wall_ns.iter().map(|&n| secs(n)))
        .collect();
    walls.sort_by(f64::total_cmp);
    let tail = tail_percentile(walls.len());
    let at = |p: f64| {
        walls
            .get(((p / 100.0) * walls.len() as f64).ceil().max(1.0) as usize - 1)
            .copied()
            .unwrap_or(0.0)
    };
    report.metric("campaign.cell_wall_s.p50", at(50.0));
    report.metric("campaign.cell_wall_s.tail", at(tail));
    report
        .notes
        .push(format!("cell walls: {} cells, tail = p{tail}", walls.len()));
    let rescaled = |walls: &[(f64, f64)]| -> Vec<f64> { walls.iter().map(|w| w.0).collect() };
    let (traced_med, untraced_med) = (
        median(&rescaled(&traced_wall)).unwrap_or(0.0),
        median(&rescaled(&untraced_wall)).unwrap_or(0.0),
    );
    report.metric(
        "trace.overhead_ratio",
        traced_med / untraced_med.max(f64::MIN_POSITIVE),
    );
    report.notes.push(format!(
        "simulated cycles in the first traced unit: {cycles}; round walls (s, rescaled and as measured) traced {traced_wall:.3?} vs untraced {untraced_wall:.3?}"
    ));

    let mut self_times: Vec<(String, (u64, u64))> =
        tracer.self_time_by_name().into_iter().collect();
    self_times.sort_by_key(|(_, (_, ns))| std::cmp::Reverse(*ns));
    for (name, (count, ns)) in self_times.iter().take(12) {
        report.notes.push(format!(
            "self time {name}: {:.4} s over {count} span(s)",
            secs(*ns)
        ));
    }
    let path = opts.out_dir.join(format!(
        "trace-{}-seed{}.json",
        opts.workload.name(),
        opts.seed
    ));
    std::fs::write(&path, tracer.to_chrome_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    report.notes.push(format!(
        "trace: {} spans written to {}",
        tracer.spans().len(),
        path.display()
    ));
    Ok(report)
}
