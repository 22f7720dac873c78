//! The three benchmark workloads and the unit of work each repeats.
//!
//! * `hot_lock` — the Figure-10 scenario: every core of the 8×8 mesh
//!   spins on one TAS lock homed at tile (5, 6); each thread's compute
//!   before each acquire is drawn from the seed. One Original/iNPG
//!   pair.
//! * `parsec_qsl` — Figure-8 program models (`generate` with the seed)
//!   under QSL on the 8×8 mesh, Original and iNPG, interleaved locks:
//!   two 1-lock, two 2-lock and two 8-lock programs.
//! * `campaign` — a fixed cell list from the campaign suite builders
//!   (the 4×4 smoke set plus 8×8 cells covering all five primitives and
//!   all four mechanisms) run through `engine::execute` cold into a
//!   fresh cache directory, then warm.
//!
//! Cells run back to back (a closed loop) on one thread; the campaign
//! engine runs them on one pool worker.

use crate::calib::Calibrator;
use crate::cells::{run_cell, CellCounts, CellPlan, CellRun, Programs};
use crate::trace::Tracer;
use inpg::{LockPrimitive, Mechanism};
use inpg_campaign::{engine, suites, Campaign, CellRecord, ExecOptions};
use inpg_manycore::LockPlacement;
use inpg_sim::CoreId;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotLock,
    ParsecQsl,
    Campaign,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::HotLock, Workload::ParsecQsl, Workload::Campaign];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotLock => "hot_lock",
            Workload::ParsecQsl => "parsec_qsl",
            Workload::Campaign => "campaign",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. `standard` is what the benchmark measures; `tiny`
/// shrinks every workload for the benchmark's own tests.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub mesh: (u8, u8),
    pub hot_rounds: usize,
    /// `(program, scale)`: each scale gives about three critical
    /// sections per thread.
    pub parsec_programs: &'static [(&'static str, f64)],
    pub smoke_scale: f64,
    /// Whether the campaign adds its 8×8 cells ([`FIG13_CELLS`] and
    /// [`FIG11_CELLS`]).
    pub campaign_8x8: bool,
    /// Set-up repetitions before each unit; `setup_s` is their median.
    pub setup_reps: usize,
    /// Timed batches per NoC probe phase.
    pub noc_probe_batches: usize,
    /// Exclusive requests the home probe serves.
    pub home_probe_iterations: usize,
}

impl Sizes {
    pub fn standard() -> Self {
        Sizes {
            mesh: (8, 8),
            hot_rounds: 8,
            parsec_programs: &[
                ("face", 0.02),
                ("kdtree", 0.02),
                ("fluid", 0.02),
                ("freq", 0.03),
                ("swim", 0.1),
                ("can", 0.085),
            ],
            smoke_scale: 0.02,
            campaign_8x8: true,
            setup_reps: 8,
            noc_probe_batches: 30,
            home_probe_iterations: 3_000,
        }
    }

    pub fn tiny() -> Self {
        Sizes {
            mesh: (4, 4),
            hot_rounds: 2,
            parsec_programs: &[("face", 0.002), ("fluid", 0.002), ("swim", 0.01)],
            smoke_scale: 0.002,
            campaign_8x8: false,
            setup_reps: 2,
            noc_probe_batches: 2,
            home_probe_iterations: 50,
        }
    }
}

/// Per-acquire compute range of the hot lock (the Figure-10 mean of 500
/// cycles, ±5% from the seed) and its critical-section length.
const HOT_COMPUTE: (u64, u64) = (475, 525);
const HOT_CS_CYCLES: u64 = 100;

/// The campaign's 8×8 cells, `(program, scale)`: the Figure-13 program
/// runs under every primitive, Original and iNPG; the Figure-11 program
/// under all four mechanisms.
const FIG13_CELLS: (&str, f64) = ("vips", 0.03);
const FIG11_CELLS: (&str, f64) = ("x264", 0.03);

/// The Figure-10 lock home, tile (5, 6), on a mesh of `width`×`height`
/// (clamped onto small test meshes).
pub fn hot_home((width, height): (u8, u8)) -> usize {
    let x = 5.min(usize::from(width) - 1);
    let y = 6.min(usize::from(height) - 1);
    y * usize::from(width) + x
}

/// The directly driven cells of `hot_lock` or `parsec_qsl`.
pub fn direct_plans(workload: Workload, seed: u64, sizes: &Sizes) -> Vec<CellPlan> {
    let pair = [Mechanism::Original, Mechanism::Inpg];
    match workload {
        Workload::HotLock => pair
            .into_iter()
            .map(|m| {
                CellPlan::new(
                    format!("hot_lock/{m}"),
                    m,
                    LockPrimitive::Tas,
                    sizes.mesh,
                    Programs::SeededHotLock {
                        rounds: sizes.hot_rounds,
                        compute_lo: HOT_COMPUTE.0,
                        compute_hi: HOT_COMPUTE.1,
                        cs_cycles: HOT_CS_CYCLES,
                        seed,
                    },
                    LockPlacement::At(CoreId::new(hot_home(sizes.mesh))),
                )
            })
            .collect(),
        Workload::ParsecQsl => sizes
            .parsec_programs
            .iter()
            .flat_map(|&(name, scale)| {
                let spec =
                    inpg_workloads::benchmark(name).expect("parsec_qsl names modelled programs");
                pair.into_iter().map(move |m| {
                    CellPlan::new(
                        format!("{name}/{m}"),
                        m,
                        LockPrimitive::Qsl,
                        sizes.mesh,
                        Programs::Benchmark { spec, scale, seed },
                        LockPlacement::Interleaved,
                    )
                })
            })
            .collect(),
        Workload::Campaign => Vec::new(),
    }
}

/// The campaign's cell list, taken from the suite builders: the smoke
/// set, the Figure-13 cells of one program (five primitives × Original
/// and iNPG) and the Figure-11 cells of another (four mechanisms). The
/// seed goes into every cell.
pub fn campaign_suite(seed: u64, sizes: &Sizes) -> Campaign {
    let mut c = Campaign::new("perfbench");
    let mut take = |suite: &str, from: Campaign, prefix: Option<&str>| {
        for mut cell in from.cells {
            if prefix.is_some_and(|p| !cell.label.starts_with(p)) {
                continue;
            }
            cell.config.seed = seed;
            c.push(format!("{suite}:{}", cell.label), cell.config);
        }
    };
    take("smoke", suites::smoke(sizes.smoke_scale), None);
    if sizes.campaign_8x8 {
        let (program, scale) = FIG13_CELLS;
        take("fig13", suites::fig13(scale), Some(&format!("{program}/")));
        let (program, scale) = FIG11_CELLS;
        take(
            "fig11",
            suites::fig11(scale, &[seed]),
            Some(&format!("{program}/")),
        );
    }
    c
}

/// The direct-drive plans of every campaign cell.
pub fn campaign_plans(campaign: &Campaign) -> Result<Vec<CellPlan>, String> {
    campaign
        .cells
        .iter()
        .map(|c| CellPlan::from_cell_config(&c.label, &c.config))
        .collect()
}

/// One set-up of the workload, in nanoseconds: suite build (campaign),
/// program generation and `System::new` for every cell.
pub fn set_up_once(workload: Workload, seed: u64, sizes: &Sizes) -> Result<u64, String> {
    let t = Instant::now();
    let plans = match workload {
        Workload::Campaign => campaign_plans(&campaign_suite(seed, sizes))?,
        Workload::HotLock | Workload::ParsecQsl => direct_plans(workload, seed, sizes),
    };
    for plan in &plans {
        std::hint::black_box(plan.set_up()?);
    }
    Ok(t.elapsed().as_nanos() as u64)
}

/// An Original/iNPG pair's simulated results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pair {
    pub original_roi: u64,
    pub inpg_roi: u64,
    pub original_cs_access: f64,
    pub inpg_cs_access: f64,
}

/// Pairs every `…Original…` label with its `…iNPG…` twin.
pub fn pairs<'a>(cells: impl Iterator<Item = (&'a str, u64, f64)> + Clone) -> Vec<Pair> {
    let orig = Mechanism::Original.to_string();
    let inpg = Mechanism::Inpg.to_string();
    cells
        .clone()
        .filter(|(label, _, _)| label.split('/').any(|part| part == orig))
        .filter_map(|(label, roi, cs)| {
            let twin: Vec<String> = label
                .split('/')
                .map(|part| {
                    if part == orig {
                        inpg.clone()
                    } else {
                        part.to_string()
                    }
                })
                .collect();
            let twin = twin.join("/");
            cells
                .clone()
                .find(|(l, _, _)| *l == twin)
                .map(|(_, inpg_roi, inpg_cs)| Pair {
                    original_roi: roi,
                    inpg_roi,
                    original_cs_access: cs,
                    inpg_cs_access: inpg_cs,
                })
        })
        .collect()
}

/// One repetition of a workload's unit of work.
#[derive(Debug, Clone)]
pub struct UnitResult {
    /// Host time of the whole unit (`campaign`: suite build, cold pass
    /// and its checks).
    pub wall_ns: u64,
    /// `campaign` only: the warm pass and the artifact comparison.
    pub warm_ns: u64,
    /// Simulated cycles, and host time spent simulating them (`try_tick`
    /// loops, or the cold `execute`).
    pub sim_cycles: u64,
    pub sim_ns: u64,
    /// Directly driven cells (`hot_lock`, `parsec_qsl`).
    pub cells: Vec<CellRun>,
    /// `campaign` only: cold records in canonical order.
    pub records: Vec<(String, CellRecord)>,
    /// `campaign` only: the cold merged artifact.
    pub artifact: Vec<u8>,
    /// Per-cell host times (executed campaign cells, or direct cells).
    pub cell_wall_ns: Vec<u64>,
    /// Σ cell wall ÷ (workers × pass wall).
    pub pool_busy_share: f64,
    /// Cells the warm pass served from the cache, of all cells.
    pub cache_hits: usize,
    pub attempted: usize,
    pub failures: Vec<String>,
    /// Cells with at least one failure.
    pub failed: usize,
    pub pairs: Vec<Pair>,
}

/// A unit's simulated outputs: per-cell counts and the merged artifact.
pub type UnitFingerprint<'a> = (Vec<CellCounts>, &'a [u8]);

impl UnitResult {
    /// The simulated outputs, for determinism and tracing-neutrality
    /// comparisons between units.
    pub fn fingerprint(&self) -> UnitFingerprint<'_> {
        (
            self.cells.iter().map(|c| c.counts.clone()).collect(),
            &self.artifact,
        )
    }
}

/// Runs the direct cells of `hot_lock` / `parsec_qsl` once. Reference
/// slices the calibrator times meanwhile are left out of the timings.
pub fn direct_unit(
    plans: &[CellPlan],
    mut tracer: Option<&mut Tracer>,
    mut calib: Option<&mut Calibrator>,
    first_cell_id: u64,
) -> UnitResult {
    let calib_before = calib.as_deref().map_or(0, Calibrator::spent_ns);
    let start = Instant::now();
    let cells: Vec<CellRun> = plans
        .iter()
        .enumerate()
        .map(|(i, p)| {
            run_cell(
                p,
                tracer.as_deref_mut(),
                calib.as_deref_mut(),
                first_cell_id + i as u64,
            )
        })
        .collect();
    let calib_ns = calib.as_deref().map_or(0, Calibrator::spent_ns) - calib_before;
    let wall_ns = start.elapsed().as_nanos() as u64 - calib_ns;
    let cell_wall_ns: Vec<u64> = cells.iter().map(|c| c.wall_ns).collect();
    let failures: Vec<String> = cells.iter().flat_map(|c| c.failures.clone()).collect();
    let failed = cells.iter().filter(|c| !c.failures.is_empty()).count();
    let pairs = pairs(
        cells
            .iter()
            .map(|c| (c.label.as_str(), c.counts.cycles, c.counts.cs_access_time)),
    );
    UnitResult {
        wall_ns,
        warm_ns: 0,
        sim_cycles: cells.iter().map(|c| c.counts.cycles).sum(),
        sim_ns: cells.iter().map(|c| c.run_ns).sum(),
        pool_busy_share: cell_wall_ns.iter().sum::<u64>() as f64 / wall_ns.max(1) as f64,
        cell_wall_ns,
        records: Vec::new(),
        artifact: Vec::new(),
        cache_hits: 0,
        attempted: cells.len(),
        failed,
        failures,
        pairs,
        cells,
    }
}

/// Worker threads for the campaign engine. One: the command pins
/// itself to one CPU, so that the host-speed calibration slices, timed
/// on the main thread, judge the CPU the cells run on; a second worker
/// would only share that CPU.
pub const CAMPAIGN_WORKERS: usize = 1;

/// Runs the campaign cold into a fresh cache under `scratch`, then
/// warm, and checks that the warm pass hit the cache for every cell and
/// merged the same artifact.
pub fn campaign_unit(
    seed: u64,
    sizes: &Sizes,
    scratch: &Path,
    mut tracer: Option<&mut Tracer>,
) -> UnitResult {
    let workers = CAMPAIGN_WORKERS;
    let cache = scratch.join("cache");
    let _ = std::fs::remove_dir_all(&cache);
    let cold_out = scratch.join("cold.jsonl");
    let warm_out = scratch.join("warm.jsonl");
    let opts = |out: &PathBuf| ExecOptions {
        workers,
        resume: true,
        cache: Some(cache.clone()),
        merged_out: Some(out.clone()),
        filter: None,
        progress: false,
        cell_jsonl: false,
    };
    let mut failures = Vec::new();
    let mut failed_labels = std::collections::BTreeSet::new();

    let start = Instant::now();
    let span = tracer
        .as_deref_mut()
        .map(|t| t.open("suite build", "campaign", 0, None));
    let campaign = campaign_suite(seed, sizes);
    if let (Some(t), Some(s)) = (tracer.as_deref_mut(), span) {
        t.close(s);
    }
    let cells = campaign.cells.len();

    let span = tracer
        .as_deref_mut()
        .map(|t| t.open("execute cold", "campaign", 0, None));
    let exec_start = Instant::now();
    let cold = engine::execute(&campaign, &opts(&cold_out));
    let sim_ns = exec_start.elapsed().as_nanos() as u64;
    if let (Some(t), Some(s)) = (tracer.as_deref_mut(), span) {
        t.close(s);
    }
    let mut records = Vec::new();
    let mut cell_wall_ns = Vec::new();
    let mut sim_cycles = 0;
    match &cold {
        Err(e) => {
            failures.push(format!("cold execute failed: {e}"));
            failed_labels.insert("<execute>".to_string());
        }
        Ok(report) => {
            for f in &report.failed {
                failures.push(format!("cell `{}` panicked: {}", f.label, f.reason));
                failed_labels.insert(f.label.clone());
            }
            // The per-cell output checks run in the replay, which must
            // agree with every record of this pass.
            for o in &report.outcomes {
                let r = &o.record;
                if !o.cached {
                    sim_cycles += r.roi_cycles;
                    cell_wall_ns.push(o.wall_nanos);
                }
                records.push((o.spec.label.clone(), r.clone()));
            }
        }
    }
    let wall_ns = start.elapsed().as_nanos() as u64;

    let warm_start = Instant::now();
    let span = tracer
        .as_deref_mut()
        .map(|t| t.open("execute warm", "campaign", 0, None));
    let warm = engine::execute(&campaign, &opts(&warm_out));
    if let (Some(t), Some(s)) = (tracer, span) {
        t.close(s);
    }
    let mut cache_hits = 0;
    match &warm {
        Err(e) => {
            failures.push(format!("warm execute failed: {e}"));
            failed_labels.insert("<execute>".to_string());
        }
        Ok(report) => {
            cache_hits = report.outcomes.iter().filter(|o| o.cached).count();
            if report.executed != 0 {
                failures.push(format!(
                    "warm pass executed {} cell(s) instead of hitting the cache",
                    report.executed
                ));
            }
        }
    }
    let artifact = std::fs::read(&cold_out).unwrap_or_default();
    let warm_artifact = std::fs::read(&warm_out).unwrap_or_default();
    if artifact.is_empty() || artifact != warm_artifact {
        // Every cell is in the merged artifact, so a mismatch fails them all.
        failures.push("warm merged artifact is not byte-identical to the cold one".into());
        for (label, _) in &records {
            failed_labels.insert(label.clone());
        }
    }
    let warm_ns = warm_start.elapsed().as_nanos() as u64;
    let _ = std::fs::remove_dir_all(&cache);

    let pool_busy_share =
        cell_wall_ns.iter().sum::<u64>() as f64 / (workers as f64 * sim_ns.max(1) as f64);
    let pairs = pairs(
        records
            .iter()
            .map(|(l, r)| (l.as_str(), r.roi_cycles, r.cs_access_time())),
    );
    UnitResult {
        wall_ns,
        warm_ns,
        sim_cycles,
        sim_ns,
        cells: Vec::new(),
        records,
        artifact,
        cell_wall_ns,
        pool_busy_share,
        cache_hits,
        attempted: cells,
        failed: failed_labels.len().min(cells.max(1)),
        failures,
        pairs,
    }
}

/// Drives every campaign cell directly (the replay), checks each one
/// like a direct cell, and cross-checks its counts against the cold
/// record of the same cell.
pub fn campaign_replay(
    seed: u64,
    sizes: &Sizes,
    records: &[(String, CellRecord)],
    tracer: Option<&mut Tracer>,
    first_cell_id: u64,
) -> UnitResult {
    let plans = match campaign_plans(&campaign_suite(seed, sizes)) {
        Ok(p) => p,
        Err(e) => {
            return UnitResult {
                failures: vec![e],
                failed: 1,
                attempted: 1,
                ..direct_unit(&[], None, None, 0)
            }
        }
    };
    let mut unit = direct_unit(&plans, tracer, None, first_cell_id);
    for cell in &mut unit.cells {
        let record = records
            .iter()
            .find(|(l, _)| *l == cell.label)
            .map(|(_, r)| r);
        let mismatch = match record {
            None => Some("no cold record to compare with".to_string()),
            Some(r) => cell.counts.record_mismatch(r),
        };
        if let Some(why) = mismatch {
            if cell.failures.is_empty() {
                unit.failed += 1;
            }
            cell.failures.push(format!(
                "cell `{}`: replay disagrees with the campaign record: {why}",
                cell.label
            ));
            unit.failures
                .push(cell.failures.last().cloned().unwrap_or_default());
        }
    }
    unit
}
