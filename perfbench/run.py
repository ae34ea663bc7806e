"""geoent benchmark: one command that runs a workload, checks it and prints metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The launcher pins the BLAS thread count in
the environment of the processes it starts, times set-up in several fresh
processes (interpreter start through ``import geoent`` and building the
inputs, in reference seconds as below) and reports the median, then runs the workload in one more fresh
process (``perfbench/worker.py``). It writes a result file with provenance to
``perfbench/out/`` and prints, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

``ops_per_s`` divides the correct ops by the worker's reference seconds over
them: each op's CPU time scaled by the calibration kernel run around it (see
``worker``), so that the drifting speed of a shared machine's cores cancels
out in part. The wall and CPU time of every op and ``ops_per_wall_s`` stay in
the result file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import tail_percentile  # noqa: E402
from perfbench.worker import CALIBRATION_REF_S  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

OUT = ROOT / "perfbench" / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_SAMPLES_BEFORE = 3
SETUP_SAMPLES_AFTER = 2
BLAS_THREADS = 1               # the deterministic serial path; never above nproc
RUN_LIMIT_S = 170.0            # the whole run, set-up samples included


class BenchError(Exception):
    pass


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _provenance(nproc: int) -> dict:
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
    }


def _environment(nproc: int) -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, nproc))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _worker_command(args, *extra) -> list[str]:
    return [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]


def _deadline_left(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
    return left


def _time_setup(args, env, deadline) -> tuple[float, float]:
    """(wall seconds, reference seconds) from spawning a fresh process until it
    has built the inputs; the process's calibration run scales the second."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(_worker_command(args, "--setup-only"), cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        calibration_s = proc.stdout.read()
        code = proc.wait(timeout=_deadline_left(deadline))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"set-up process failed (exit {code})")
    return elapsed, elapsed * CALIBRATION_REF_S / float(calibration_s)


def _run_worker(args, env, deadline, spans: Path | None) -> dict:
    extra = ["--spans", str(spans)] if spans is not None else []
    proc = subprocess.Popen(_worker_command(args, *extra), cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=_deadline_left(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {RUN_LIMIT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="geoent benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "geoent" / "__init__.py").is_file():
        print(f"error: no geoent sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_LIMIT_S
    nproc = os.cpu_count() or 1
    env = _environment(nproc)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = OUT / f"{stem}-spans.jsonl" if args.trace else None
    try:
        # set-up is sampled before and after the workload, so a slow spell on a
        # shared machine does not set every sample
        setups = [_time_setup(args, env, deadline) for _ in range(SETUP_SAMPLES_BEFORE)]
        worker = _run_worker(args, env, deadline, spans)
        setups += [_time_setup(args, env, deadline) for _ in range(SETUP_SAMPLES_AFTER)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    times = [seconds for _, seconds, _, _ in worker["ops"]]
    correct_ops = sum(ok for _, _, _, ok in worker["ops"])
    tail = tail_percentile(times)
    end_to_end = {
        "ops_per_s": (correct_ops / worker["reference_s"], "1/s"),
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
        "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
    }
    # print exactly the metrics BENCHMARK.json lists for this mode; the result
    # file keeps every layer metric, including the times of layers that some
    # workloads never reach (those read 0 on every run)
    available = worker["layers"] if args.trace else end_to_end
    listed = SPEC["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: dict(zip(("value", "unit"), available[m["name"]])) for m in listed}

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {**_provenance(nproc), **worker.pop("versions")},
        "metrics": metrics,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "ops_per_wall_s": correct_ops / worker["wall_s"],
        "op_p50_s": statistics.median(times),
        "op_tail_s": (None if tail is None else
                      {"value": tail[1], "percentile": tail[0], "samples_beyond": tail[2],
                       "samples": len(times)}),
        "failed_frac": worker["failed"] / worker["attempted"],
        "setup_samples_s": [wall for wall, _ in setups],
        "setup_reference_samples_s": [ref for _, ref in setups],
        "spans_file": None if spans is None else str(spans.relative_to(ROOT)),
        **worker,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    for problem in worker["problems"]:
        print(f"check failed: {problem}")
    print(json.dumps({"correct": worker["failed"] == 0, "attempted": worker["attempted"],
                      "failed": worker["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
