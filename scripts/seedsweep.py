"""Run the Tier-1 test suite under several Hypothesis seeds and tally failures.

Usage::

    python3 scripts/seedsweep.py [--seeds N] [--start S]

Runs ``pytest`` once per seed ``S .. S+N-1`` with ``--hypothesis-seed``.
Each run starts in a fresh temporary working directory, so Hypothesis's
example database (``.hypothesis`` under the working directory) starts empty
and no earlier failure is replayed. The script only measures: it prints one
line per seed and then the seeds on which each failing test failed. Exit
status is 1 if any run had a failure, else 0.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
FAILED_LINE = re.compile(r"^(FAILED|ERROR) (\S+)")


def run_seed(seed: int) -> tuple[list[str], str, float]:
    """One Tier-1 run; returns the failing test ids, the summary line and wall time."""
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    cmd = [
        sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
        "--continue-on-collection-errors", f"--hypothesis-seed={seed}",
        "--rootdir", str(REPO), str(REPO / "tests"),
    ]
    with tempfile.TemporaryDirectory(prefix="seedsweep-") as cwd:
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
        elapsed = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    failed = [m.group(2) for m in map(FAILED_LINE.match, lines) if m]
    summary = lines[-1].strip("= ") if lines else f"no output (exit {proc.returncode})"
    if proc.returncode not in (0, 1) and not failed:
        failed = [f"<pytest exit {proc.returncode}>"]
    return failed, summary, elapsed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="number of seeds (default 10)")
    parser.add_argument("--start", type=int, default=0, help="first seed (default 0)")
    args = parser.parse_args(argv)

    failures: dict[str, list[int]] = defaultdict(list)
    for seed in range(args.start, args.start + args.seeds):
        failed, summary, elapsed = run_seed(seed)
        print(f"seed {seed}: {summary} ({elapsed:.1f} s)", flush=True)
        for test in failed:
            failures[test].append(seed)

    print(f"{len(failures)} failing test(s) over {args.seeds} seed(s)")
    for test, seeds in sorted(failures.items()):
        print(f"  {test}: seeds {', '.join(map(str, seeds))}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
