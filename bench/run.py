"""Benchmark of replicator-lab: one workload, one seed, one run.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout on Linux; the package is imported
from ``src/`` there and the CLI runs as ``python3 -c`` subprocesses with
``PYTHONPATH=src``, so nothing needs installing. Workloads:

- ``raster-converging``: ``basins`` on the scenario sets S1-S9.
- ``raster-tail``: ``basins`` on CYCLE_SET and MULTI_DIAGONAL_SET, whose
  few never-converging cells run the full iteration budget.
- ``analysis-draws``: the equilibrium, stability and policy pipeline on
  seeded random parameter draws, with the scalar CLI commands.

Every workload reports every metric, each measured on its own inputs.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones. The second-to-last line of stdout is a JSON report (environment,
sample counts, tail percentiles, output hashes, counters, failures); the
last line is the result: ``{"correct", "attempted", "failed", "metrics"}``.
Scratch files go to ``bench/.work`` and are removed at the end, except the
span dump of a traced run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns ``(result, report)``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import measure

    return measure.Run(ROOT, workload, seed, seconds, trace, tiny).execute()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "replicator_lab" / "__init__.py").is_file():
        print(f"error: no replicator_lab package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
