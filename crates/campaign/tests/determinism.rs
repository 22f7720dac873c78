//! End-to-end determinism guarantees of the campaign engine: the merged
//! artifact is byte-identical across worker counts and cache states, a
//! warm cache executes nothing, and a corrupted cache entry is
//! quarantined and re-run rather than trusted.

use inpg::Mechanism;
use inpg_campaign::{execute, Campaign, CellConfig, ExecOptions};
use std::path::PathBuf;

/// Splits a merged artifact into its cell body and its trailing footer
/// line. The body is a pure function of the campaign definition; the
/// footer additionally reports what cache corruption the producing run
/// encountered, so runs that differ only in encountered corruption have
/// identical bodies and differing footers.
fn body_and_footer(path: &PathBuf) -> (String, String) {
    let text = std::fs::read_to_string(path).unwrap();
    let trimmed = text.strip_suffix('\n').expect("artifact ends with a newline");
    let (body, footer) =
        trimmed.rsplit_once('\n').expect("artifact has at least body and footer");
    assert!(footer.contains("\"footer\":true"), "last line is the footer: {footer}");
    (body.to_string(), footer.to_string())
}

fn tiny_campaign() -> Campaign {
    let mut c = Campaign::new("tiny");
    for mechanism in Mechanism::ALL {
        for rounds in [2u64, 3] {
            let mut cfg = CellConfig::hot_lock(rounds, 80, 30);
            cfg.mechanism = mechanism;
            cfg.width = 4;
            cfg.height = 4;
            cfg.max_cycles = 5_000_000;
            c.push(format!("{mechanism}/r{rounds}"), cfg);
        }
    }
    c
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("inpg-determinism-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts(workers: usize, cache: Option<PathBuf>, merged: PathBuf) -> ExecOptions {
    let mut o = ExecOptions::quiet();
    o.workers = workers;
    o.cache = cache;
    o.merged_out = Some(merged);
    o
}

#[test]
fn merged_artifact_is_byte_identical_across_worker_counts() {
    let dir = scratch("workers");
    let campaign = tiny_campaign();
    let mut artifacts = Vec::new();
    for workers in [1usize, 8] {
        let merged = dir.join(format!("w{workers}.jsonl"));
        let report = execute(&campaign, &opts(workers, None, merged.clone())).unwrap();
        assert_eq!(report.executed, campaign.cells.len());
        assert_eq!(report.cached, 0);
        assert!(report.incomplete().is_empty());
        artifacts.push(std::fs::read(&merged).unwrap());
    }
    assert!(!artifacts[0].is_empty());
    assert_eq!(
        artifacts[0], artifacts[1],
        "1-worker and 8-worker merged artifacts must match byte for byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_cache_executes_zero_cells_and_reproduces_the_artifact() {
    let dir = scratch("warm");
    let cache = dir.join("cache");
    let campaign = tiny_campaign();

    let cold_merged = dir.join("cold.jsonl");
    let cold =
        execute(&campaign, &opts(4, Some(cache.clone()), cold_merged.clone())).unwrap();
    assert_eq!(cold.executed, campaign.cells.len());

    let warm_merged = dir.join("warm.jsonl");
    let warm =
        execute(&campaign, &opts(4, Some(cache.clone()), warm_merged.clone())).unwrap();
    assert_eq!(warm.executed, 0, "a warm cache must execute nothing");
    assert_eq!(warm.cached, campaign.cells.len());
    assert!(warm.outcomes.iter().all(|o| o.cached && o.fresh.is_none()));

    assert_eq!(
        std::fs::read(&cold_merged).unwrap(),
        std::fs::read(&warm_merged).unwrap(),
        "cold and warm merged artifacts must match byte for byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_cache_entry_is_detected_and_rerun() {
    let dir = scratch("corrupt");
    let cache_dir = dir.join("cache");
    let campaign = tiny_campaign();

    let cold_merged = dir.join("cold.jsonl");
    execute(&campaign, &opts(2, Some(cache_dir.clone()), cold_merged.clone())).unwrap();

    // Flip a payload digit inside one entry: its record hash no longer
    // checks out, so the engine must re-run exactly that cell.
    let victim = &campaign.cells[3];
    let entry_path = cache_dir.join(format!("{}.json", victim.config.content_hash()));
    let text = std::fs::read_to_string(&entry_path).unwrap();
    let tampered = text.replacen("\"roi_cycles\":", "\"roi_cycles\":9", 1);
    assert_ne!(text, tampered);
    std::fs::write(&entry_path, tampered).unwrap();

    let again_merged = dir.join("again.jsonl");
    let again =
        execute(&campaign, &opts(2, Some(cache_dir.clone()), again_merged.clone())).unwrap();
    assert_eq!(again.executed, 1, "only the corrupted cell re-runs");
    assert_eq!(again.cached, campaign.cells.len() - 1);
    assert_eq!(again.quarantined, 1, "the tampered entry was quarantined");
    assert!(again.summary_line().contains("1 quarantined"), "{}", again.summary_line());
    let rerun = again.outcome(&victim.label).unwrap();
    assert!(!rerun.cached);

    // The tampered bytes were moved aside for inspection, not deleted.
    let quarantined_entry = cache_dir
        .join("quarantine")
        .join(format!("{}.json", victim.config.content_hash()));
    assert!(quarantined_entry.exists(), "quarantine keeps the corrupt bytes");

    // The cell body is reproduced byte for byte; only the footer's
    // corruption tally may differ between the runs.
    let (cold_body, cold_footer) = body_and_footer(&cold_merged);
    let (again_body, again_footer) = body_and_footer(&again_merged);
    assert_eq!(cold_body, again_body, "the re-run must reproduce the cell body");
    assert!(cold_footer.contains("\"quarantined\":0"), "{cold_footer}");
    assert!(again_footer.contains("\"quarantined\":1"), "{again_footer}");

    // And the store-back repaired the entry: a third run is fully warm
    // and its artifact (footer included) matches the cold one again.
    let third_merged = dir.join("3.jsonl");
    let third =
        execute(&campaign, &opts(2, Some(cache_dir), third_merged.clone())).unwrap();
    assert_eq!(third.executed, 0);
    assert_eq!(third.quarantined, 0);
    assert_eq!(
        std::fs::read(&cold_merged).unwrap(),
        std::fs::read(&third_merged).unwrap(),
        "a repaired cache reproduces the artifact byte for byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_and_bitflipped_cache_entries_are_demoted_to_misses() {
    let dir = scratch("mangle");
    let cache_dir = dir.join("cache");
    let campaign = tiny_campaign();

    let cold_merged = dir.join("cold.jsonl");
    execute(&campaign, &opts(2, Some(cache_dir.clone()), cold_merged.clone())).unwrap();

    // Two distinct corruption modes on two distinct entries: a
    // mid-write crash leaves a truncated file, and disk rot flips a
    // raw bit. Neither may be served from cache.
    let truncated = &campaign.cells[1];
    let path = cache_dir.join(format!("{}.json", truncated.config.content_hash()));
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

    let flipped = &campaign.cells[5];
    let path = cache_dir.join(format!("{}.json", flipped.config.content_hash()));
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();

    let again_merged = dir.join("again.jsonl");
    let again =
        execute(&campaign, &opts(2, Some(cache_dir.clone()), again_merged.clone())).unwrap();
    assert_eq!(again.executed, 2, "both mangled cells re-run");
    assert_eq!(again.cached, campaign.cells.len() - 2);
    assert_eq!(again.quarantined, 2, "both corruption modes are quarantined");
    assert!(!again.outcome(&truncated.label).unwrap().cached);
    assert!(!again.outcome(&flipped.label).unwrap().cached);

    // Cell bodies reproduce byte for byte; the footers report the tally.
    let (cold_body, cold_footer) = body_and_footer(&cold_merged);
    let (again_body, again_footer) = body_and_footer(&again_merged);
    assert_eq!(cold_body, again_body, "the re-runs must reproduce the cell body");
    assert!(cold_footer.contains("\"quarantined\":0"), "{cold_footer}");
    assert!(again_footer.contains("\"quarantined\":2"), "{again_footer}");

    // Store-back repaired both entries: a third run is fully warm and
    // byte-identical to the cold artifact, footer included.
    let third_merged = dir.join("3.jsonl");
    let third =
        execute(&campaign, &opts(2, Some(cache_dir), third_merged.clone())).unwrap();
    assert_eq!(third.executed, 0);
    assert_eq!(
        std::fs::read(&cold_merged).unwrap(),
        std::fs::read(&third_merged).unwrap(),
        "a repaired cache reproduces the artifact byte for byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_orphaned_tmp_from_a_writer_killed_mid_store_is_swept_and_harmless() {
    let dir = scratch("orphan-tmp");
    let cache_dir = dir.join("cache");
    let campaign = tiny_campaign();

    let cold_merged = dir.join("cold.jsonl");
    execute(&campaign, &opts(2, Some(cache_dir.clone()), cold_merged.clone())).unwrap();

    // A writer SIGKILLed mid-store leaves a half-written `.tmp` that
    // never got renamed into place. Simulate one next to a real entry.
    let victim = &campaign.cells[2];
    let entry = cache_dir.join(format!("{}.json", victim.config.content_hash()));
    let bytes = std::fs::read(&entry).unwrap();
    let orphan = cache_dir.join(format!(
        ".{}.99999.tmp",
        victim.config.content_hash()
    ));
    std::fs::write(&orphan, &bytes[..bytes.len() / 3]).unwrap();

    let again_merged = dir.join("again.jsonl");
    let again =
        execute(&campaign, &opts(2, Some(cache_dir.clone()), again_merged.clone())).unwrap();
    assert_eq!(again.executed, 0, "the orphan never shadows the real entry");
    assert_eq!(again.quarantined, 0, "an orphaned tmp is debris, not corruption");
    assert!(!orphan.exists(), "startup GC must collect the orphan");
    assert!(entry.exists(), "the committed entry must survive the sweep");
    assert_eq!(
        std::fs::read(&cold_merged).unwrap(),
        std::fs::read(&again_merged).unwrap(),
        "the swept run reproduces the artifact byte for byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_configs_execute_once_and_share_the_record() {
    let mut campaign = tiny_campaign();
    let clone_of = campaign.cells[1].clone();
    campaign.push("alias-of-cell-1", clone_of.config.clone());

    let report = execute(&campaign, &ExecOptions::quiet()).unwrap();
    assert_eq!(report.executed, campaign.cells.len() - 1, "the alias must not execute");
    assert_eq!(report.cached, 1);
    let owner = report.outcome(&clone_of.label).unwrap();
    let alias = report.outcome("alias-of-cell-1").unwrap();
    assert!(!owner.cached);
    assert!(alias.cached);
    assert_eq!(owner.record, alias.record);
    assert_eq!(owner.hash, alias.hash);
}

#[test]
fn timeline_cells_always_run_fresh() {
    let mut campaign = Campaign::new("timeline");
    let mut cfg = CellConfig::benchmark("freq");
    cfg.width = 4;
    cfg.height = 4;
    cfg.scale = 0.02;
    cfg.record_timeline = true;
    campaign.push("freq/timeline", cfg);

    let dir = scratch("timeline");
    let cache = dir.join("cache");
    for _ in 0..2 {
        let report =
            execute(&campaign, &opts(2, Some(cache.clone()), dir.join("m.jsonl"))).unwrap();
        assert_eq!(report.executed, 1, "uncacheable cells execute every run");
        let outcome = report.outcome("freq/timeline").unwrap();
        let fresh = outcome.fresh.as_ref().expect("fresh result present");
        assert!(fresh.timeline.is_some(), "timeline recorded");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_panicking_cell_is_reported_and_excluded_deterministically() {
    // An unknown benchmark name panics inside the pool task; the
    // campaign must survive, report the failure, and keep the merged
    // artifact byte-identical across worker counts without it.
    let dir = scratch("panic");
    let mut campaign = Campaign::new("poisoned");
    for rounds in [2u64, 3] {
        let mut cfg = CellConfig::hot_lock(rounds, 80, 30);
        cfg.width = 4;
        cfg.height = 4;
        cfg.max_cycles = 5_000_000;
        campaign.push(format!("good/r{rounds}"), cfg);
    }
    campaign.push("bad/benchmark", CellConfig::benchmark("no-such-benchmark"));

    let mut artifacts = Vec::new();
    for workers in [1usize, 4] {
        let merged = dir.join(format!("w{workers}.jsonl"));
        let report = execute(&campaign, &opts(workers, None, merged.clone())).unwrap();
        assert_eq!(report.executed, 2, "the good cells still run");
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.failed[0].label, "bad/benchmark");
        assert!(
            report.failed[0].reason.contains("no-such-benchmark"),
            "reason carries the panic message: {}",
            report.failed[0].reason
        );
        assert!(report.outcome("bad/benchmark").is_none(), "failed cell has no outcome");
        assert!(report.summary_line().contains("1 FAILED"), "{}", report.summary_line());
        let text = std::fs::read(&merged).unwrap();
        assert!(
            !String::from_utf8_lossy(&text).contains("bad/benchmark"),
            "failed cell excluded from the merged artifact"
        );
        artifacts.push(text);
    }
    assert_eq!(artifacts[0], artifacts[1], "artifacts match despite the failure");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn smoke_suite_reproduces_the_committed_artifact() {
    // The committed smoke artifact pins the simulated results: a change
    // that only makes the simulator faster must leave every byte alone.
    let committed = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/campaign/smoke.jsonl");
    let dir = scratch("smoke-golden");
    let merged = dir.join("smoke.jsonl");
    let campaign = inpg_campaign::suites::build("smoke", None, &[0x1a9e_4711]).unwrap();
    let report = execute(&campaign, &opts(2, None, merged.clone())).unwrap();
    assert_eq!(report.executed, campaign.cells.len());
    assert!(report.failed.is_empty());
    assert!(
        std::fs::read(&merged).unwrap() == std::fs::read(&committed).unwrap(),
        "smoke artifact drifted from results/campaign/smoke.jsonl"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
