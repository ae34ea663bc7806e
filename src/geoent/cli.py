"""Command-line front end.

Subcommands: state (build a state file), egk (one measure), hierarchy
(full K = 2..N report), tables (reference tables as CSV/JSON), curves
(figure datasets), verify (the verification suite).

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 size cap,
4 numerical fault (the ascent broke its monotonicity invariant).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import reports
from .errors import DomainError, NumericalFaultError, ResourceCapError
from .hierarchy import egk_absolute, full_hierarchy
from .optimizer import OptimizerConfig, best_overlap
from .partitions import Partition
from .reports import fmt
from .states import StateRecipe, load_state, save_state

USAGE_ERROR = 2
CAP_ERROR = 3
NUMERIC_ERROR = 4


def _worker_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"workers must be an int >= 1, got {count}")
    return count


def _add_optimizer_flags(parser, workers=False):
    parser.add_argument("--restarts", type=int, default=64,
                        help="starts of the K >= 3 ascent per partition (default: 64)")
    parser.add_argument("--max-iterations", type=int, default=10000,
                        help="sweep cap of each ascent restart (default: 10000)")
    parser.add_argument("--tol", type=float, default=1e-12,
                        help="stop a restart when a sweep gains less (default: 1e-12)")
    parser.add_argument("--seed", type=int, default=0,
                        help="random seed (default: 0)")
    if workers:
        parser.add_argument("--workers", type=_worker_count, default=1,
                            help="worker processes, an int >= 1 (default: 1): egk and "
                                 "hierarchy map a scan's shape batches over them, verify "
                                 "its independent states and cases")


def _config(args) -> OptimizerConfig:
    return OptimizerConfig(
        restarts=args.restarts,
        max_iterations=args.max_iterations,
        tol=args.tol,
        seed=args.seed,
    )


def _write_output(text: str, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_floats(text):
    return tuple(float(x) for x in text.split(","))


def cmd_state(args) -> int:
    kwargs = {"family": args.family}
    if args.n is not None:
        kwargs["n"] = args.n
    if args.k is not None:
        kwargs["k"] = args.k
    if args.eta is not None:
        kwargs["eta"] = args.eta
    if args.phi is not None:
        kwargs["phi"] = args.phi
    if args.gamma is not None:
        kwargs["gamma"] = _parse_floats(args.gamma)
    if args.xi is not None:
        kwargs["xi"] = _parse_floats(args.xi)
    if args.amplitudes is not None:
        kwargs["amplitudes"] = tuple(
            (float(re), float(im)) for re, im in json.loads(args.amplitudes)
        )
    recipe = StateRecipe(**kwargs)
    psi = recipe.build()
    save_state(psi, args.output, recipe=recipe)
    print(f"n={psi.num_qubits} support={psi.support().size} -> {args.output}")
    return 0


def cmd_egk(args) -> int:
    psi = load_state(args.state)
    config = _config(args)
    if args.partition:
        partition = Partition.from_text(args.partition)
        if partition.k != args.k:
            raise DomainError(
                f"partition {partition.text} has K={partition.k}, "
                f"but --k {args.k} was given"
            )
        result = best_overlap(psi, partition, config)
        record = {
            "k": args.k,
            "partition": partition.text,
            "relative_e": result.e_g,
            "lambda2": result.lambda2,
        }
        text_line = f"E^({args.k})({partition.text}) = {fmt(result.e_g)}"
    else:
        scan = "shapes" if args.shapes_only else "auto"
        value, argmin = egk_absolute(psi, args.k, config, scan=scan,
                                     workers=args.workers)
        record = {
            "k": args.k,
            "absolute_e": value,
            "lambda2": 1.0 - value,
            "argmin_partitions": [p.text for p in argmin],
        }
        text_line = (f"E^({args.k}) = {fmt(value)}  "
                     f"argmin: {'; '.join(p.text for p in argmin)}")
    if args.format == "json":
        _write_output(json.dumps(record, indent=2) + "\n", args.output)
    elif args.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(record)
        writer.writerow(fmt(v) if isinstance(v, float) else json.dumps(v) if isinstance(v, list)
                        else v for v in record.values())
        _write_output(out.getvalue(), args.output)
    else:
        _write_output(text_line + "\n", args.output)
    return 0


def cmd_hierarchy(args) -> int:
    psi = load_state(args.state)
    config = _config(args)
    scan = "shapes" if args.shapes_only else "auto"
    report = full_hierarchy(psi, config, scan=scan, workers=args.workers)
    doc = report.to_dict()
    if args.format == "csv":
        lines = ["k,absolute_e,argmin_partitions,monotonic"]
        for entry in doc["entries"]:
            partitions = ";".join(entry["argmin_partitions"])
            lines.append(
                f"{entry['k']},{fmt(entry['absolute_e'])},\"{partitions}\","
                f"{doc['monotonic']}"
            )
        _write_output("\n".join(lines) + "\n", args.output)
    else:
        _write_output(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.output)
    if not report.monotonic:
        print("warning: monotonicity violations detected (optimizer failure)",
              file=sys.stderr)
    return 0


def cmd_tables(args) -> int:
    config = _config(args)
    result = reports.compute_table(args.table, config)
    if args.format == "json":
        _write_output(json.dumps(reports.table_to_dict(result), indent=2) + "\n",
                      args.output)
    else:
        _write_output(reports.table_to_csv(result), args.output)
    return 0


def cmd_curves(args) -> int:
    config = _config(args)
    n_list = [int(x) for x in args.n_list.split(",")] if args.n_list else None
    data = reports.compute_curve(
        args.figure, config,
        eta_points=args.eta_points,
        gamma_points=args.gamma_points,
        n_list=n_list,
    )
    if args.format == "json":
        _write_output(json.dumps(reports.curve_to_dict(data), indent=2) + "\n",
                      args.output)
    else:
        _write_output(reports.curve_to_csv(data), args.output)
    return 0


def cmd_verify(args) -> int:
    config = _config(args)
    report = reports.run_verify(config, suites=args.suite or None, workers=args.workers)
    _write_output(reports.render_report(report), args.output)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoent",
        description="Geometric entanglement hierarchies for N-qubit pure states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("state", help="build a state family and write the JSON file")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--eta", type=float)
    p.add_argument("--phi", type=float)
    p.add_argument("--gamma", help="comma-separated qubit-ordered weights")
    p.add_argument("--xi", help="comma-separated phases (radians)")
    p.add_argument("--amplitudes", help='JSON list of [re, im] pairs (family "explicit")')
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("egk", help="one measure: absolute, or relative with --partition")
    p.add_argument("state")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--partition", help="e.g. 1,2|3,4|5,6")
    p.add_argument("--shapes-only", action="store_true")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("-o", "--output")
    _add_optimizer_flags(p, workers=True)
    p.set_defaults(func=cmd_egk)

    p = sub.add_parser("hierarchy", help="full K = 2..N report")
    p.add_argument("state")
    p.add_argument("--shapes-only", action="store_true")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("-o", "--output")
    _add_optimizer_flags(p, workers=True)
    p.set_defaults(func=cmd_hierarchy)

    p = sub.add_parser("tables", help="emit a reference table")
    p.add_argument("--table", required=True, choices=("I", "II", "III", "IV", "V"))
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("-o", "--output")
    _add_optimizer_flags(p)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("curves", help="emit a figure dataset")
    p.add_argument("--figure", required=True, choices=tuple("1234567"))
    p.add_argument("--eta-points", type=int, default=101)
    p.add_argument("--gamma-points", type=int, default=61)
    p.add_argument("--n-list", help="comma-separated N values (figure 3)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("-o", "--output")
    _add_optimizer_flags(p)
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--suite", action="append", choices=reports.SUITE_NAMES,
                   help="restrict to named suites (repeatable)")
    p.add_argument("-o", "--output")
    _add_optimizer_flags(p, workers=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CAP_ERROR
    except NumericalFaultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
