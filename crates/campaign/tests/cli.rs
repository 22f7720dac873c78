//! `inpg campaign` command-line behaviour that the library tests cannot
//! see: where a run writes its perf trajectory.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("inpg-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `inpg campaign smoke` on one cell in `dir` with `extra` options.
fn campaign_smoke(dir: &Path, extra: &[&str]) {
    let status = Command::new(env!("CARGO_BIN_EXE_inpg"))
        .current_dir(dir)
        .args(["campaign", "smoke", "--no-cache", "--workers", "1", "--quiet"])
        .args(["--filter", "Original"])
        .args(extra)
        .status()
        .expect("spawn inpg");
    assert!(status.success(), "inpg campaign failed: {status}");
}

#[test]
fn probe_with_out_leaves_the_working_directory_trajectory_alone() {
    let dir = scratch("bench-out");
    let tracked = dir.join("BENCH_campaign.json");
    let before = b"{\"schema\":1,\"runs\":[]}\n";
    std::fs::write(&tracked, before).unwrap();

    // --out alone: the trajectory entry lands next to the artifact.
    campaign_smoke(&dir, &["--out", "probe.jsonl"]);
    assert_eq!(std::fs::read(&tracked).unwrap(), before, "BENCH_campaign.json was modified");
    assert!(dir.join("probe.jsonl").metadata().unwrap().len() > 0);
    let sidecar = std::fs::read_to_string(dir.join("probe.bench.json")).unwrap();
    assert!(sidecar.contains("\"campaign\":\"smoke\""), "{sidecar}");

    // An explicit --bench-out still wins.
    campaign_smoke(&dir, &["--out", "second.jsonl", "--bench-out", "explicit.json"]);
    assert!(dir.join("explicit.json").exists());
    assert!(!dir.join("second.bench.json").exists());
    assert_eq!(std::fs::read(&tracked).unwrap(), before);

    // Without --out the default trajectory is written, as before.
    std::fs::remove_file(&tracked).unwrap();
    campaign_smoke(&dir, &[]);
    assert!(tracked.exists());
    assert!(dir.join("results/campaign/smoke.jsonl").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
