//! `perfbench --workload <hot_lock|parsec_qsl|campaign> --seed <n>
//! --seconds <s> --trace <0|1> [--tiny]`
//!
//! Prints context lines, one `metric <name> <value> <unit>` line per
//! metric, and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits 0 when every output check
//! passed, 1 when one failed (the result line is still printed), and 2
//! on a usage or I/O error (no result line).

use perfbench::workloads::{Sizes, Workload};
use perfbench::{run, Options};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <hot_lock|parsec_qsl|campaign> --seed <n> --seconds <s> --trace <0|1> [--tiny]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        sizes: if tiny {
            Sizes::tiny()
        } else {
            Sizes::standard()
        },
        out_dir: PathBuf::from("perfbench/out"),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned = perfbench::calib::pin_to_current_cpu();
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match pinned {
        Some(cpu) => println!("# host available_parallelism {parallelism}; pinned to CPU {cpu}"),
        None => println!(
            "# host available_parallelism {parallelism}; could not pin to one CPU, running unpinned"
        ),
    }
    for note in &report.notes {
        println!("# {note}");
    }
    for failure in &report.failures {
        println!("FAILED {failure}");
    }
    for (name, unit, value) in &report.metrics {
        println!("metric {name} {value} {unit}");
    }
    println!("{}", report.json_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
