#!/usr/bin/env python3
"""Runs the benchmark as the driver does and reports run-to-run spread.

For each workload: ten untraced runs, each with another --seed; for every
end-to-end metric the distance between the first and third quartile of its
ten values (statistics.quantiles(values, n=4)) as a share of their median,
against the metric's bound in /BENCHMARK.json. The acceptance check does the
same; a spread should stay below a third of its bound.

    python3 arm_bench/tools/spread.py [--runs 10] [--first-seed 1] [workload ...]

Run from the repo root. Needs the release binary built (any run of the
benchmark command builds it).
"""
import json, statistics, subprocess, sys, time

def main():
    args = sys.argv[1:]
    runs, first = 10, 1
    while args and args[0].startswith("--"):
        flag, value, args = args[0], int(args[1]), args[2:]
        if flag == "--runs": runs = value
        elif flag == "--first-seed": first = value
        else: sys.exit(f"unknown flag {flag}")
    spec = json.load(open("BENCHMARK.json"))
    workloads = args or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for w in workloads:
        values = {name: [] for name in bounds}
        for seed in range(first, first + runs):
            started = time.time()
            out = subprocess.run(
                spec["command"] + ["--workload", w, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, (w, seed, result)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"# {w} seed {seed}: {time.time() - started:.1f} s", file=sys.stderr)
        print(f"{w}")
        for name, v in values.items():
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            mark = "" if name == "setup_s" else ("  <-- above a third of the bound" if spread > bounds[name] / 3 else "")
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"  {name:<22} median {med:>14.6g}  spread {spread*100:6.2f}%  bound {bounds[name]*100:5.1f}%"
                  f"  min {min(v):.6g} max {max(v):.6g}{mark}")
    print(f"worst spread/bound: {worst:.2f} (want below 0.33)")

main()
