#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end
metric's median, quartiles and spread (interquartile range as a share of
the median), against the bound in BENCHMARK.json.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 10]
        [--first-seed 1] [--seconds S] [--out FILE]

Run from the repository root. A spread above a third of its bound is
flagged (setup_s is exempt: only its median is compared between runs).
Note-line figures (the host times as measured, raw_*, and the
campaign's warm_wall_s and outside_cells_share) are summarised the same
way, without a bound. With --out, the per-workload summary is written
there as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys

# Figures printed as `<name> <value>` on `# ...` note lines.
NOTE_FIGURES = ("raw_sim_cycles_per_s", "raw_wall_s", "raw_setup_s",
                "warm_wall_s", "outside_cells_share")


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    summary = {}
    steady = True
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        notes = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=False)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: checks failed\n{out.stdout}", file=sys.stderr)
                return 1
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            for line in out.stdout.splitlines():
                words = line.split()
                if not words or words[0] != "#":
                    continue
                for name, value in zip(words[1:], words[2:]):
                    if name in NOTE_FIGURES:
                        notes.setdefault(name, []).append(float(value))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
        summary[workload] = {}
        for m in metrics:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = m["name"] == "setup_s" or spread < m["bound"] / 3
            steady &= ok
            summary[workload][m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": round(spread, 4), "n": len(v)}
            print(f"  {workload:11} {m['name']:17} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.3f} (bound {m['bound']}){'' if ok else '  <-- above bound/3'}")
        for name, v in notes.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            summary[workload][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": round((q3 - q1) / med, 4),
                "n": len(v), "bound": None}
            print(f"  {workload:11} {name:17} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {(q3 - q1) / med:.3f} (note line)")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
