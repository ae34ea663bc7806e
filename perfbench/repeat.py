"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload NAME [--runs 10] [--first-seed 1]

Runs the command from ``BENCHMARK.json`` once per seed, one run at a time,
and prints for every end-to-end metric the median, the quartiles (as
``statistics.quantiles(n=4)`` gives them) and the quartile distance as a
share of the median, next to the metric's bound. The summary goes to
``perfbench/out/repeat-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import quartile_spread  # noqa: E402


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args()

    values: dict[str, list[float]] = {}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "run_s": time.perf_counter() - t0, **line})
        for name, metric in line["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: {time.perf_counter() - t0:.1f} s, correct={line['correct']}, "
              f"failed={line['failed']}/{line['attempted']}", flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for name, xs in values.items():
        q1, med, q3, spread = quartile_spread(xs)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds[name], "values": xs}
        flag = "" if spread <= bounds[name] / 3 else "  <-- above a third of the bound"
        print(f"{name:12s} median {med:.4g}  q1 {q1:.4g}  q3 {q3:.4g}  "
              f"spread {spread:.3f}  bound {bounds[name]}{flag}")
    out = ROOT / "perfbench" / "out" / f"repeat-{args.workload}.json"
    out.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                               "metrics": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
