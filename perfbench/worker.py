"""One benchmark run inside a fresh process: set up, measure, check, report.

``run.py`` starts this as ``python -m perfbench.worker`` from the checkout
root. With ``--setup-only`` it imports geoent, builds the workload's inputs,
prints ``ready``, then the median CPU time of three calibration runs (see
below), and exits, so the launcher can time set-up. Otherwise it
prints ``ready`` after set-up, runs the closed loop (one caller; the next op
starts when the previous one returns) in whole passes over the workload's
ops, checks every output after the timed loop, and prints one JSON object as
its last line. Each op's wall time and CPU time (``time.process_time``) are
recorded, and a short fixed calibration kernel runs between ops. On a shared
machine the speed of a core drifts by up to 2x within minutes; an op's CPU
time divided by the mean of the calibration times just before and after it,
times ``CALIBRATION_REF_S``, is its cost in reference seconds, which drifts
about half as much.

With ``--trace 1`` it runs one pass in which every op runs twice back to
back, untraced and with every public entry point wrapped, alternating which
goes first, so the difference of the two wall times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any

import numpy as np

from .tracing import OP_SPAN, Tracer, summarize
from .workloads import WORKLOADS, Op, build

ROOT = Path(__file__).resolve().parent.parent
MAX_REPORTED_PROBLEMS = 20
# CPU seconds of ``calibration()`` on a 2-core Xeon at a quiet moment; it only
# scales the reference seconds, so it is fixed and never re-measured.
CALIBRATION_REF_S = 0.025


@dataclass
class Record:
    op: Op
    seconds: float
    cpu_seconds: float
    calibration_seconds: float   # mean of the kernel's CPU time before and after
    output: Any
    error: str | None


def import_geoent():
    """Import geoent from this checkout's ``src``, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import geoent
    import geoent.reports  # noqa: F401  (so its entry points can be wrapped)

    if Path(geoent.__file__).resolve().parent != (src / "geoent").resolve():
        raise ImportError(f"geoent imported from {geoent.__file__}, not from {src}")
    return geoent


def _geoent_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "geoent" or name.startswith("geoent.")]


def calibration() -> float:
    """CPU seconds of a fixed kernel that mixes small numpy calls and exact
    rational arithmetic, as the workloads do; it reads the core's current speed."""
    c0 = time.process_time()
    rng = np.random.default_rng(0)
    m = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    v = np.ones(32, dtype=np.complex128)
    for _ in range(1500):
        v = m @ v
        v /= np.linalg.norm(v)
    x = Fraction(0)
    for i in range(1, 1500):
        x += Fraction(1, i * i + 1)
    return time.process_time() - c0


def run_ops(ops, tracer: Tracer | None = None):
    records = []
    before = calibration()
    for op in ops:
        if tracer is not None:
            tracer.op = 0 if tracer.op is None else tracer.op + 1
            sid = tracer.open(OP_SPAN)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            output, error = op.run(), None
        except Exception:  # an op that raises counts as failed; the run goes on
            output, error = None, traceback.format_exc(limit=3)
        seconds, cpu_seconds = time.perf_counter() - t0, time.process_time() - c0
        if tracer is not None:
            tracer.close(sid)
            tracer.spans[sid].attrs = {"op": op.name}
        after = calibration()
        records.append(Record(op, seconds, cpu_seconds, (before + after) / 2, output, error))
        before = after
    return records


def measure(workload, seconds: float):
    """Closed loop over whole passes of ``workload.ops``; returns the records.

    Every run measures the same op mix. One pass always runs; another starts
    only if, at the mean pass time so far, it would end within ``seconds``.
    """
    records = []
    start = time.perf_counter()
    passes = 0
    while not passes or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        records += run_ops(workload.ops)
        passes += 1
    return records


def run_traced(workload, tracer: Tracer):
    """Run one pass, each op untraced and traced back to back; both record lists.

    The two runs of an op see the same spell of a shared machine, and which
    goes first alternates, so their difference is the tracing overhead.
    """
    untraced, traced = [], []
    for i, op in enumerate(workload.ops):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install(_geoent_modules())
                traced += run_ops([op], tracer)
                tracer.uninstall()
            else:
                untraced += run_ops([op])
    return untraced, traced


def check(records) -> dict[int, list]:
    """Problems of every op that raised or failed its check, by record index."""
    failures = {}
    for i, rec in enumerate(records):
        if rec.error is not None:
            failures[i] = [rec.error]
            continue
        try:
            problems = rec.op.check(rec.output)
        except Exception:  # a malformed output counts as a failed op
            problems = [traceback.format_exc(limit=3)]
        if problems:
            failures[i] = problems
    return failures


def _versions():
    import numpy
    import scipy

    def blas(cfg):
        info = cfg.get("Build Dependencies", {}).get("blas", {})
        return {k: info.get(k) for k in ("name", "version", "openblas configuration")}

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", type=Path, help="write the traced spans here (JSON lines)")
    args = p.parse_args(argv)

    ge = import_geoent()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        # set-up is traced too, so the calls that make the inputs (random_state,
        # superpose) show
        tracer.install(_geoent_modules())
    workload = build(args.workload, args.seed, ge)
    if tracer is not None:
        tracer.uninstall()
    print("ready", flush=True)
    if args.setup_only:
        print(json.dumps(statistics.median(calibration() for _ in range(3))))
        return 0

    out: dict = {"versions": _versions()}
    if tracer is None:
        records, traced = measure(workload, args.seconds), []
    else:
        records, traced = run_traced(workload, tracer)
        wall = sum(r.seconds for r in records)
        traced_wall = sum(r.seconds for r in traced)
        layers, breakdown = summarize(tracer.spans, tracer.counters)
        layers["trace.overhead_s"] = (traced_wall - wall, "s")
        layers["trace.overhead_frac"] = ((traced_wall - wall) / wall, "ratio")
        out.update(layers=layers, best_overlap_by_shape=breakdown,
                   traced_wall_s=traced_wall, span_count=len(tracer.spans))
        if args.spans is not None:
            with open(args.spans, "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps([span.name, span.start, span.end, span.parent,
                                         span.op, span.attrs]) + "\n")

    # the program's high-water mark, before the checks allocate their own arrays
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t0 = time.perf_counter()
    failures = check(records + traced)
    out.update(
        check_s=time.perf_counter() - t0,
        wall_s=sum(r.seconds for r in records),
        cpu_s=sum(r.cpu_seconds for r in records),
        reference_s=sum(r.cpu_seconds * CALIBRATION_REF_S / r.calibration_seconds
                        for r in records),
        calibration_p50_s=statistics.median(r.calibration_seconds for r in records),
        ops=[[r.op.name, r.seconds, r.cpu_seconds, i not in failures]
             for i, r in enumerate(records)],
        traced_ops=[[r.op.name, r.seconds] for r in traced],
        attempted=len(records) + len(traced),
        failed=len(failures),
        problems=[f"{(records + traced)[i].op.name}: {msg}" for i, problems in failures.items()
                  for msg in problems][:MAX_REPORTED_PROBLEMS],
        peak_rss_mb=peak_rss_mb,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
