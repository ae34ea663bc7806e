"""Record the hierarchy values of the fixed-input states the checks compare against.

    python3 -m perfbench.record

Writes ``perfbench/recorded.json``: for each state of ``random-asym`` (at 16
restarts) and ``symmetric-families`` (at the default config), the absolute E
per K and the relative E per partition or shape from ``full_hierarchy``. The
checks accept any later value at most 1e-7 above these, so a better optimizer
may find lower values. Re-record only to add a state, never to absorb a
regression.
"""

from __future__ import annotations

import json

from .worker import import_geoent
from .workloads import RANDOM_RESTARTS, RECORDED, random_states, symmetric_states


def main() -> None:
    ge = import_geoent()
    out = {}
    for states, config in ((random_states(ge), ge.OptimizerConfig(restarts=RANDOM_RESTARTS)),
                           (symmetric_states(ge), ge.OptimizerConfig())):
        for name, psi in states:
            report = ge.full_hierarchy(psi, config)
            out[name] = {
                "absolute": {str(e.k): e.absolute_e for e in report.entries},
                "relative": {key: value for e in report.entries for key, value in e.relative.items()},
            }
    RECORDED.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
