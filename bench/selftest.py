"""Self-test of the benchmark: every workload at a tiny size.

    python3 bench/selftest.py

Runs each workload untraced and traced at a tiny size and checks that the
run is correct, that it reports exactly the metrics ``BENCHMARK.json``
declares, each with its declared unit, that metric names are well formed,
that two traced runs with one seed give identical work counters, and that
the benchmark refuses to run without the package sources. Timings are never
compared, so machine noise cannot fail it; it is not part of the test suite
for the same reason. Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys

import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def declared(spec: dict, key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(label: str, result: dict, units: dict[str, str], problems: list[str]) -> None:
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(units):
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(units))}")
    for name, metric in metrics.items():
        value = metric.get("value")
        if not NAME.fullmatch(name):
            problems.append(f"{label}: bad metric name {name!r}")
        if metric.get("unit") != units.get(name) or not UNIT.fullmatch(str(metric.get("unit"))):
            problems.append(f"{label}: {name} has unit {metric.get('unit')!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} has value {value!r}")


def check_refuses_without_sources(problems: list[str]) -> None:
    """The benchmark fails, printing no result, in a tree without ``src/``."""
    bare = run.ROOT / "bench" / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", run.WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append(f"bare tree: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    mapping = json.loads((run.ROOT / "bench" / "metric_map.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    e2e, layers = declared(spec, "end_to_end"), declared(spec, "per_layer")
    mapped = [m for group in mapping["layers"] for m in group["metrics"]]
    if sorted(mapped) != sorted(layers):
        problems.append(f"metric_map.json covers {sorted(set(mapped) ^ set(layers))} wrongly")
    for group in mapping["layers"]:
        for move in group["moves"]:
            if move["metric"] not in e2e or move["workload"] not in run.WORKLOADS:
                problems.append(f"metric_map.json: unknown target {move}")

    for workload in run.WORKLOADS:
        result, _ = run.run_workload(workload, 1, 1, False, tiny=True)
        check_result(f"{workload} untraced", result, e2e, problems)
        counters = []
        for _ in range(2):
            result, report = run.run_workload(workload, 1, 1, True, tiny=True)
            check_result(f"{workload} traced", result, layers, problems)
            counters.append(report["counters"])
        if counters[0] != counters[1]:
            problems.append(f"{workload}: counters differ between runs: {counters}")
        print(f"{workload}: checked, counters {counters[0]}", file=sys.stderr)

    check_refuses_without_sources(problems)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
