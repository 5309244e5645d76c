#!/usr/bin/env python3
"""Run each workload N times with N different seeds and print, per
end-to-end metric, the median and the interquartile spread as a share of the
median (statistics.quantiles, n=4) next to the bound BENCHMARK.json declares.

This is the acceptance rule the benchmark is held to: every spread except
setup_s's must stay within its bound (aim for a third of it).

    python3 benchmark/tools/spread.py [--runs 10] [--first-seed 1] [--workload NAME ...] [--bin PATH]

Without --bin the command from BENCHMARK.json is used (from the repo root).
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--bin", help="a built ledger binary to run instead of the declared command")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [args.bin] if args.bin else decl["command"]
    bounds = {m["name"]: m["bound"] for m in decl["end_to_end"]}
    workloads = args.workload or [w["name"] for w in decl["workloads"]]
    worst = 0.0
    for w in workloads:
        values = {}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t = time.time()
            out = subprocess.run(
                command + ["--workload", w, "--seed", str(seed), "--seconds", str(decl["run_seconds"]), "--trace", args.trace],
                cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout.strip().splitlines()[-1]
            walls.append(time.time() - t)
            result = json.loads(out)
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: correct={result['correct']} failed={result['failed']}", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w}: {args.runs} runs, {statistics.median(walls):.1f} s median wall per run")
        for name, vs in values.items():
            q1, q2, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / q2 if q2 else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "  OVER BOUND" if spread > bound else ("  over bound/3" if spread > bound / 3 else "")
            bound_txt = f"{bound:.3f}" if bound is not None else "  -  "
            print(f"  {name:<22} median {q2:>14.6f}  spread {spread:>8.4f}  bound {bound_txt}{flag}")
    print(f"worst spread/bound ratio: {worst:.2f}")


if __name__ == "__main__":
    main()
