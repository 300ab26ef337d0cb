"""Measurement of one benchmark run: set-up, checks, timed phases, metrics.

A run is a closed loop in one process. It drives the ``replicator-lab`` CLI
as subprocesses, one at a time, each waited for before the next starts, and
calls the library in-process. Layers are timed from outside, around the
calls into each module's public functions; nothing inside the library is
instrumented.

An untraced run (``trace=False``) reports the end-to-end metrics. A traced
run reports the per-layer metrics: it replays every CLI command in-process
with a span around each public call, times the raster at one thread and at
the default thread count, and runs the analysis pipeline with and without
spans to measure the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import logging
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from replicator_lab import basins, cli_io, equilibria, model_core, policy, stability
from replicator_lab.errors import ValidationError

import checks
from tracing import NULL_TRACER, Tracer
from workloads import (
    COMMANDS, CYCLE_SET, MULTI_DIAGONAL_SET, MULTI_INNER_SET, SCENARIO_SETS, TWO_FIRM_KEYS,
    Inputs, build_inputs, plan_for,
)

THREADS_ENV = "REPLICATOR_LAB_THREADS"
PEAK_RSS_FD_ENV = "BENCH_PEAK_RSS_FD"
# The console entry point, plus an exit hook that reports the process's own
# peak RSS (VmHWM) on a pipe. getrusage() on the child cannot give it: a
# child started by vfork+exec inherits the parent's RSS high-water mark.
CLI_SNIPPET = f"""\
import atexit, os
def _report_peak_rss():
    with open("/proc/self/status") as status:
        line = next(line for line in status if line.startswith("VmHWM:"))
    os.write(int(os.environ["{PEAK_RSS_FD_ENV}"]), line.split()[1].encode())
atexit.register(_report_peak_rss)
from replicator_lab.cli_io import console_main
console_main()
"""
#: Longest a single CLI subprocess may run before it is killed and failed.
CLI_TIMEOUT_S = 60.0
SETUP_REPEATS = 9
STARTUP_SAMPLES = 9
MICRO_BATCHES = 7
POLICY_UNREACHABLE = "no finite both-states tax reaches scenario S9"
WEAK_THREAD_EVIDENCE = (
    "thread-scaling numbers (basins.thread_speedup, compute_basins_ms.t1 vs tauto) "
    "from a 2-CPU box are weak evidence"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "basins_cli_p50_ms": "ms",
    "basins_cli_tail_ms": "ms",
    "basins_cli_peak_rss_mb": "MB",
    "raster_cells_per_s": "1/s",
    "equilibria_cli_p50_ms": "ms",
    "equilibria_cli_tail_ms": "ms",
    "scalar_cli_p50_ms": "ms",
    "scalar_cli_tail_ms": "ms",
    "draws_per_s": "1/s",
}

PER_LAYER_UNITS = {
    "cli_io.interpreter_ms": "ms",
    "cli_io.numpy_import_ms": "ms",
    "cli_io.startup_ms": "ms",
    "cli_io.parse_config_us": "us",
    "cli_io.write_basin_ppm_ms": "ms",
    "cli_io.write_csv_ms": "ms",
    **{f"cli_io.dispatch_ms.{c}": "ms" for c in COMMANDS},
    "cli_io.self_ms": "ms",
    "basins.compute_basins_ms.t1": "ms",
    "basins.compute_basins_ms.tauto": "ms",
    "basins.ns_per_cell": "ns",
    "basins.thread_speedup": "ratio",
    "basins.cells": "count",
    "basins.nonconvergent_cells": "count",
    "basins.tail_cell_steps_min": "count",
    "basins.simulate_us": "us",
    "basins.basin_areas_us": "us",
    "basins.self_ms": "ms",
    "equilibria.edge_equilibria_us": "us",
    "equilibria.find_diagonal_us": "us",
    "equilibria.find_inner_us": "us",
    "equilibria.find_period2_us": "us",
    "equilibria.found_diagonal": "count",
    "equilibria.found_inner": "count",
    "equilibria.found_cycles": "count",
    "equilibria.dropped_candidates": "count",
    "equilibria.diag_inner_disagreements": "count",
    "equilibria.self_ms": "ms",
    "stability.classify_scenario_us": "us",
    "stability.stability_at_us": "us",
    "stability.vertex_eigenvalues_us": "us",
    "stability.jacobian_us": "us",
    "stability.self_ms": "ms",
    "policy.minimal_s9_tax_us": "us",
    "policy.feasible_scenarios_us": "us",
    "policy.s9_unreachable": "count",
    "policy.self_ms": "ms",
    "model_core.step_full_us": "us",
    "model_core.step_adjusted_1d_us": "us",
    "model_core.self_ms": "ms",
    "trace.spans_per_draw": "count",
    "trace.overhead_us_per_draw": "us",
}

LAYERS = ("cli_io", "basins", "equilibria", "stability", "policy", "model_core")


# ---------------------------------------------------------------------------
# Bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class Ledger:
    """Operations attempted and failed, with the first failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(what)

    @contextlib.contextmanager
    def op(self, label: str):
        """One operation: it fails if the body raises."""
        self.attempted += 1
        try:
            yield
        except Exception:  # noqa: BLE001 - a crash is a failed operation, not the end of the run
            self.fail(f"{label}: {traceback.format_exc(limit=3).strip().splitlines()[-1]}")

    def check(self, ok: bool, label: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(label)


class DropCounter(logging.Handler):
    """Counts candidates the equilibria module reports as dropped."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.dropped = 0

    def emit(self, record: logging.LogRecord) -> None:
        if not record.msg.startswith("dropped"):
            return
        first = record.args[0] if record.args else None
        counted = "%d" in record.msg and isinstance(first, int)
        self.dropped += first if counted else 1


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it.

    Returns ``(value, percentile)``. With ten samples or fewer no such
    percentile exists and the maximum is returned as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def params_of(values) -> model_core.ModelParams:
    return model_core.ModelParams.from_values(*values)


@contextlib.contextmanager
def thread_env(value: str | None):
    """Sets (or, for None, unsets) the raster thread variable in-process."""
    old = os.environ.pop(THREADS_ENV, None)
    if value is not None:
        os.environ[THREADS_ENV] = value
    try:
        yield
    finally:
        os.environ.pop(THREADS_ENV, None)
        if old is not None:
            os.environ[THREADS_ENV] = old


# ---------------------------------------------------------------------------
# Subprocesses
# ---------------------------------------------------------------------------

@dataclass
class Proc:
    code: int
    stdout: str
    stderr: str
    seconds: float
    peak_rss_kb: int | None


def run_process(argv: list[str], env: dict[str, str], cwd: Path) -> Proc:
    """Run one child to completion and time it.

    Output comes back through pipes: rewriting a scratch file instead would
    make ext4 flush it on every truncation, which costs more than the child.
    A third pipe carries the peak RSS the CLI snippet reports, if any.
    """
    rss_read, rss_write = os.pipe()
    start = time.perf_counter()
    try:
        child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=cwd,
                                 env={**env, PEAK_RSS_FD_ENV: str(rss_write)},
                                 pass_fds=(rss_write,))
    except BaseException:
        os.close(rss_read)
        raise
    finally:
        os.close(rss_write)
    killer = threading.Timer(CLI_TIMEOUT_S, child.kill)
    killer.start()
    out_fd, err_fd = child.stdout.fileno(), child.stderr.fileno()
    streams: dict[int, list[bytes]] = {out_fd: [], err_fd: [], rss_read: []}
    try:
        with selectors.DefaultSelector() as selector:
            for fd in streams:
                selector.register(fd, selectors.EVENT_READ)
            while selector.get_map():
                for key, _ in selector.select():
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        streams[key.fd].append(data)
                    else:
                        selector.unregister(key.fd)
        child.wait()
    except BaseException:
        child.kill()
        child.wait()
        raise
    finally:
        killer.cancel()
        os.close(rss_read)
        child.stdout.close()
        child.stderr.close()
    seconds = time.perf_counter() - start
    out, err, rss = (b"".join(streams[fd]).decode("utf-8", "replace")
                     for fd in (out_fd, err_fd, rss_read))
    return Proc(child.returncode, out, err, seconds, int(rss) if rss else None)


def child_env(src: Path) -> dict[str, str]:
    """The user's environment with the package on the path and threads at default."""
    env = {k: v for k, v in os.environ.items() if k != THREADS_ENV}
    env["PYTHONPATH"] = str(src)
    return env


# ---------------------------------------------------------------------------
# CLI jobs and their expected outputs
# ---------------------------------------------------------------------------

@dataclass
class Outputs:
    """What one command produced, with the out directory written as <out>."""

    code: int
    stdout: str
    stderr: str
    files: dict[str, bytes]

    def digest(self) -> tuple:
        return (self.code, self.stdout, self.stderr,
                tuple(sorted((k, sha256(v)) for k, v in self.files.items())))


def collect(out_dir: Path, code: int, stdout: str, stderr: str) -> Outputs:
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}
    text = str(out_dir)
    return Outputs(code, stdout.replace(text, "<out>"), stderr.replace(text, "<out>"), files)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def dispatch_in_process(command: str, config_text: str, out_dir: Path) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_io.dispatch(command, cli_io.parse_config(config_text), out_dir)
    return code, out.getvalue(), err.getvalue()


def check_outputs(job, params, expected: Outputs, ledger: Ledger) -> None:
    """Semantic checks on what a command wrote, beyond matching the CLI."""
    label = f"{job.command} {job.key}"
    allowed = expected.code == 0 or (
        job.command == "policy" and expected.code == 1 and POLICY_UNREACHABLE in expected.stderr
    )
    ledger.check(allowed, f"{label}: exit code {expected.code} ({expected.stderr.strip()})")
    if job.command == "basins":
        with ledger.op(f"{label}: basins.ppm"):
            cells = checks.decode_ppm(expected.files["basins.ppm"])
            if not checks.swap_symmetric(cells):
                raise AssertionError("raster is not swap-symmetric")
        with ledger.op(f"{label}: basin_areas.csv"):
            rows = checks.read_csv(expected.files["basin_areas.csv"])
            if not checks.fractions_sum_to_one(float(r["fraction"]) for r in rows):
                raise AssertionError("basin areas do not sum to 1")
    elif job.command == "equilibria":
        with ledger.op(f"{label}: equilibria.csv residuals"):
            for row in checks.read_csv(expected.files["equilibria.csv"]):
                res = checks.fixed_point_residual(params, float(row["eta1"]), float(row["eta2"]))
                if res > checks.RESIDUAL_TOL:
                    raise AssertionError(f"{row['kind']} residual {res:.3g}")
    elif job.command == "classify" and job.key in SCENARIO_SETS:
        ledger.check(f"scenario = {job.key}\n" in expected.stdout,
                     f"{label}: classified as {expected.stdout.splitlines()[:1]}")


# ---------------------------------------------------------------------------
# The analysis pipeline
# ---------------------------------------------------------------------------

@dataclass
class PipelineResult:
    edges: list
    diagonal: list
    inner: list
    cycles: list
    tax: float | None


def pipeline(params, tr) -> PipelineResult:
    """Every finder, stability at every point found, scenario and S9 tax."""
    tr.call("equilibria.vertex_equilibria", equilibria.vertex_equilibria)
    tr.call("stability.vertex_eigenvalues", stability.vertex_eigenvalues, params)
    edges = tr.call("equilibria.edge_equilibria", equilibria.edge_equilibria, params)
    diagonal = tr.call("equilibria.find_diagonal_equilibria",
                       equilibria.find_diagonal_equilibria, params)
    inner = tr.call("equilibria.find_inner_equilibria", equilibria.find_inner_equilibria, params)
    cycles = tr.call("equilibria.find_period2_diagonal", equilibria.find_period2_diagonal, params)
    for eq in (*edges, *diagonal, *inner):
        tr.call("stability.stability_at", stability.stability_at, params, eq.location)
    tr.call("stability.classify_scenario", stability.classify_scenario, params)
    flags = policy.StructureFlags.from_payoffs(params.payoffs)
    tr.call("policy.feasible_scenarios", policy.feasible_scenarios, flags)
    try:
        tax = tr.call("policy.minimal_s9_tax", policy.minimal_s9_tax, params)
    except ValidationError as exc:
        if POLICY_UNREACHABLE not in str(exc):
            raise
        tax = None
    return PipelineResult(edges, diagonal, inner, cycles, tax)


def check_pipeline(params, result: PipelineResult) -> None:
    """Raises AssertionError unless every finder met its documented bound."""
    bounds = ((result.edges, checks.RESIDUAL_TOL), (result.diagonal, checks.DIAGONAL_REFINE_TOL),
              (result.inner, checks.RESIDUAL_TOL))
    for found, bound in bounds:
        for eq in found:
            res = checks.fixed_point_residual(params, eq.location.eta1, eq.location.eta2)
            if res > bound:
                raise AssertionError(f"{eq.kind.value} residual {res:.3g} > {bound:g}")
    for cyc in result.cycles:
        res = checks.cycle_residual(params, cyc.point_a, cyc.point_b)
        if res > checks.RESIDUAL_TOL:
            raise AssertionError(f"2-cycle residual {res:.3g}")
    if result.tax is not None:
        taxed = policy.apply_brown_tax(params, result.tax, policy.TaxMode.BOTH_STATES)
        if stability.classify_scenario(taxed) is not stability.ScenarioId.S9:
            raise AssertionError(f"tax {result.tax!r} does not reach S9")


def disagreements(result: PipelineResult) -> int:
    """Diagonal points found by the 2-D finder that the diagonal finder missed."""
    kind = equilibria.EquilibriumKind.DIAGONAL_INNER
    return sum(
        1 for eq in result.inner if eq.kind is kind and not any(
            abs(eq.location.eta1 - d.location.eta1) <= checks.MERGE_TOL for d in result.diagonal)
    )


# ---------------------------------------------------------------------------
# Command replays: what each CLI command calls, one span per public call
# ---------------------------------------------------------------------------

def replay(command: str, text: str, out_dir: Path, tr: Tracer) -> None:
    """What ``dispatch`` does for ``command``, with a span per public call."""
    config = tr.call("cli_io.parse_config", cli_io.parse_config, text)
    REPLAYS[command](config, out_dir, tr)


def _replay_basins(config, out_dir, tr) -> None:
    params = config.to_model_params()
    raster = tr.call("basins.compute_basins", basins.compute_basins, params,
                     resolution=config.resolution, eps=config.eps, max_iter=config.max_iter)
    areas = tr.call("basins.basin_areas", basins.basin_areas, raster)
    tr.call("cli_io.write_basin_ppm", cli_io.write_basin_ppm, raster, out_dir / "basins.ppm")
    codes = list(basins.OutcomeCode)
    table = {"outcome": codes, "fraction": [areas.get(c, 0.0) for c in codes]}
    tr.call("cli_io.write_csv", cli_io.write_csv, table, out_dir / "basin_areas.csv")


def _replay_equilibria(config, out_dir, tr) -> None:
    params = config.to_model_params()
    vertices = tr.call("equilibria.vertex_equilibria", equilibria.vertex_equilibria)
    reports = tr.call("stability.vertex_eigenvalues", stability.vertex_eigenvalues, params)
    rows = [(eq, reports[eq.kind]) for eq in vertices]
    for eq in tr.call("equilibria.edge_equilibria", equilibria.edge_equilibria, params):
        rows.append((eq, tr.call("stability.edge_eigenvalues", stability.edge_eigenvalues,
                                 params, eq.kind)))
    interior = tr.call("equilibria.find_diagonal_equilibria",
                       equilibria.find_diagonal_equilibria, params)
    interior += tr.call("equilibria.find_inner_equilibria", equilibria.find_inner_equilibria,
                        params, config.scan_resolution)
    for eq in interior:
        rows.append((eq, tr.call("stability.stability_at", stability.stability_at,
                                 params, eq.location)))
    table = {
        "kind": [eq.kind for eq, _ in rows],
        "eta1": [eq.location.eta1 for eq, _ in rows],
        "eta2": [eq.location.eta2 for eq, _ in rows],
        "class": [rep.classification for _, rep in rows],
    }
    tr.call("cli_io.write_csv", cli_io.write_csv, table, out_dir / "equilibria.csv")


def _replay_classify(config, out_dir, tr) -> None:
    params = config.to_model_params()
    tr.call("stability.discriminants", stability.discriminants, params)
    tr.call("stability.classify_scenario", stability.classify_scenario, params)


def _replay_step(config, out_dir, tr) -> None:
    tr.call("model_core.step_full", model_core.step_full, config.to_model_params(),
            model_core.State(config.eta1, config.eta2))


def _replay_simulate(config, out_dir, tr) -> None:
    tr.call("basins.simulate", basins.simulate, config.to_model_params(),
            model_core.State(config.eta1, config.eta2), max_iter=config.max_iter, eps=config.eps)


def _replay_policy(config, out_dir, tr) -> None:
    params = config.to_model_params()
    tr.call("stability.classify_scenario", stability.classify_scenario, params)
    flags = policy.StructureFlags.from_payoffs(params.payoffs)
    tr.call("policy.feasible_scenarios", policy.feasible_scenarios, flags)
    tr.call("policy.ordering_scenarios", policy.ordering_scenarios, params)
    try:
        tax = tr.call("policy.minimal_s9_tax", policy.minimal_s9_tax, params)
    except ValidationError:
        return
    taxed = tr.call("policy.apply_brown_tax", policy.apply_brown_tax,
                    params, tax, config.tax_mode)
    tr.call("stability.classify_scenario", stability.classify_scenario, taxed)


def _replay_staircase(config, out_dir, tr) -> None:
    pairs = tr.call("basins.staircase", basins.staircase, config.to_params_1d(), config.model,
                    config.eta0, config.n_steps)
    table = {"t": list(range(len(pairs))), "eta_t": [x for x, _ in pairs],
             "eta_next": [y for _, y in pairs]}
    tr.call("cli_io.write_csv", cli_io.write_csv, table, out_dir / "staircase.csv")


def _replay_sweep(config, out_dir, tr) -> None:
    base = {key: getattr(config, key) for key in TWO_FIRM_KEYS}
    grid = np.linspace(config.sweep_start, config.sweep_stop, config.sweep_count)
    rows: dict[str, list] = {config.sweep_param: [], "scenario": []}
    for v in grid:
        point = dict(base, **{config.sweep_param: float(v)})
        p = tr.call("model_core.ModelParams", model_core.ModelParams.from_values, **point)
        tr.call("stability.discriminants", stability.discriminants, p)
        rows[config.sweep_param].append(float(v))
        rows["scenario"].append(tr.call("stability.classify_scenario",
                                        stability.classify_scenario, p))
    tr.call("cli_io.write_csv", cli_io.write_csv, rows, out_dir / "sweep.csv")


REPLAYS = {
    "basins": _replay_basins,
    "equilibria": _replay_equilibria,
    "classify": _replay_classify,
    "step": _replay_step,
    "simulate": _replay_simulate,
    "policy": _replay_policy,
    "staircase": _replay_staircase,
    "sweep": _replay_sweep,
}


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

class Run:
    """One benchmark run of one workload."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> None:
        self.root = root
        self.src = root / "src"
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.plan = plan_for(workload, seconds, tiny)
        self.work = root / "bench" / ".work" / f"{workload}-{seed}-{os.getpid()}"
        self.env = child_env(self.src)
        self.ledger = Ledger()
        self.metrics: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.report: dict[str, object] = {"samples": {}, "phase_s": {}}
        self.tracer = Tracer()
        self.expected: dict[int, Outputs] = {}
        self.setup_times: list[float] = []
        self.first_rasters: dict[str, np.ndarray] = {}
        self.inputs: Inputs | None = None

    def execute(self) -> tuple[dict, dict]:
        try:
            with thread_env(None):
                fresh_dir(self.work)
                self._phase("setup", self.setup)
                self._phase("verify", self.verify)
                if self.trace:
                    self._phase("startup", self.measure_startup)
                    self._phase("dispatch", self.measure_dispatch)
                    self._phase("replay", self.measure_replay)
                    self._phase("threads", self.measure_threads)
                    self._phase("pipeline", self.measure_pipeline_traced)
                    self._phase("micro", self.measure_micro)
                    self.tracer.write(self.work.parent / f"spans-{self.workload}-{self.seed}.json")
                else:
                    self._phase("measure", self.measure)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        return self.result(), self.describe()

    def _phase(self, name: str, fn) -> None:
        start = time.perf_counter()
        fn()
        self.report["phase_s"][name] = round(time.perf_counter() - start, 3)

    # -- set-up and checks ---------------------------------------------------

    def _setup_once(self, config_dir: Path) -> Inputs:
        """Generate configs and draws, then import the package in a fresh interpreter."""
        start = time.perf_counter()
        inputs = build_inputs(self.workload, self.seed, self.plan, fresh_dir(config_dir))
        proc = run_process([sys.executable, "-c", "import replicator_lab"], self.env, self.work)
        self.setup_times.append(time.perf_counter() - start)
        self.ledger.check(proc.code == 0, f"cold import: exit {proc.code} {proc.stderr[-200:]}")
        return inputs

    def setup(self) -> None:
        self.inputs = self._setup_once(self.work / "configs")

    def verify(self) -> None:
        """Reference checks plus the expected outputs of every CLI job."""
        ledger = self.ledger
        for name, values in SCENARIO_SETS.items():
            got = stability.classify_scenario(params_of(values)).value
            ledger.check(got == name, f"{name} classified as {got}")
        with ledger.op("criterion 9: inner"):
            inner = equilibria.find_inner_equilibria(params_of(MULTI_INNER_SET))
            n_diag = sum(eq.kind is equilibria.EquilibriumKind.DIAGONAL_INNER for eq in inner)
            if len(inner) != 3 or n_diag != 1:
                raise AssertionError(f"{len(inner)} inner, {n_diag} on the diagonal")
        with ledger.op("criterion 9: diagonal"):
            diag = equilibria.find_diagonal_equilibria(params_of(MULTI_DIAGONAL_SET))
            if len(diag) != 3:
                raise AssertionError(f"{len(diag)} diagonal")
        with ledger.op("criterion 9: cycle"):
            cycles = equilibria.find_period2_diagonal(params_of(CYCLE_SET))
            if len(cycles) != 1:
                raise AssertionError(f"{len(cycles)} cycles")

        hashes: dict[str, dict[str, str]] = {}
        out_dir = self.work / "expected"
        for idx, job in enumerate(self.inputs.jobs):
            with ledger.op(f"expected {job.command} {job.key}"):
                fresh_dir(out_dir)
                code, out, err = dispatch_in_process(
                    job.command, job.config.read_text(encoding="utf-8"), out_dir)
                self.expected[idx] = collect(out_dir, code, out, err)
                check_outputs(job, params_of(self.inputs.sets[job.key]), self.expected[idx],
                              ledger)
                if job.command in ("basins", "equilibria") and self.workload != "analysis-draws":
                    hashes.setdefault(job.key, {}).update(
                        {k: sha256(v) for k, v in self.expected[idx].files.items()})
        self.report["sha256"] = hashes
        for chunk in self.inputs.chunks():  # warm-up, and the reference raster of each set
            self._raster_chunk(chunk)

    def _census(self, tr) -> None:
        """One pass of the pipeline over every set: checks and exact work counters."""
        counts = dict.fromkeys(("found_diagonal", "found_inner", "found_cycles",
                                "diag_inner_disagreements", "s9_unreachable"), 0)
        # Attached only here: elsewhere the warnings reach stderr as they do
        # for a user, so in-process dispatch prints what the CLI prints.
        drops = DropCounter()
        logger = logging.getLogger(equilibria.__name__)
        logger.addHandler(drops)
        try:
            for key, values in self.inputs.sets.items():
                params = params_of(values)
                with self.ledger.op(f"pipeline {key}"):
                    result = pipeline(params, tr)
                    check_pipeline(params, result)
                    counts["found_diagonal"] += len(result.diagonal)
                    counts["found_inner"] += len(result.inner)
                    counts["found_cycles"] += len(result.cycles)
                    counts["diag_inner_disagreements"] += disagreements(result)
                    counts["s9_unreachable"] += result.tax is None
        finally:
            logger.removeHandler(drops)
        unreachable = counts.pop("s9_unreachable")
        self.counters.update({f"equilibria.{k}": v for k, v in counts.items()})
        self.counters["equilibria.dropped_candidates"] = drops.dropped
        self.counters["policy.s9_unreachable"] = unreachable
        nonconvergent = sum(int((c == checks.NON_CONVERGENT).sum())
                            for c in self.first_rasters.values())
        self.counters["basins.cells"] = len(self.inputs.sets) * self.plan.resolution ** 2
        self.counters["basins.nonconvergent_cells"] = nonconvergent
        self.counters["basins.tail_cell_steps_min"] = nonconvergent * self.plan.max_iter
        self.report["counters"] = self.counters

    # -- timed tasks -----------------------------------------------------------

    def _raster_chunk(self, chunk) -> float:
        """Checked compute_basins calls on one chunk; returns their wall time."""
        total = 0.0
        for key, values in chunk:
            params = params_of(values)
            with self.ledger.op(f"raster {key}"):
                start = time.perf_counter()
                raster = basins.compute_basins(params, resolution=self.plan.resolution,
                                               max_iter=self.plan.max_iter)
                total += time.perf_counter() - start
                cells, first = raster.cells, self.first_rasters.get(key)
                if first is None:
                    if not checks.swap_symmetric(cells):
                        raise AssertionError("raster is not swap-symmetric")
                    if not checks.fractions_sum_to_one(basins.basin_areas(raster).values()):
                        raise AssertionError("basin areas do not sum to 1")
                    self.first_rasters[key] = cells
                elif not np.array_equal(cells, first):
                    raise AssertionError("raster differs from the first one of this set")
        return total

    def _pipeline_chunk(self, chunk, tr) -> float | None:
        """The pipeline on one chunk; its wall time, or None if it failed."""
        with self.ledger.op(f"pipeline {chunk[0][0]}"):
            start = time.perf_counter()
            for _, values in chunk:
                pipeline(params_of(values), tr)
            return time.perf_counter() - start
        return None

    def _cli_job(self, idx: int) -> Proc | None:
        """One CLI subprocess, checked against in-process dispatch."""
        job = self.inputs.jobs[idx]
        cwd = self.work / "cli"
        out_dir = fresh_dir(cwd / "out")
        argv = [sys.executable, "-c", CLI_SNIPPET, job.command, "--config", str(job.config),
                "--out", str(out_dir)]
        with self.ledger.op(f"cli {job.command} {job.key}"):
            proc = run_process(argv, self.env, cwd)
            got = collect(out_dir, proc.code, proc.stdout, proc.stderr)
            if got.digest() != self.expected[idx].digest():
                raise AssertionError(
                    f"differs from in-process dispatch: exit {proc.code}, "
                    f"stderr {proc.stderr.strip()[-200:]!r}")
            if proc.peak_rss_kb is None:
                raise AssertionError("the CLI reported no peak RSS")
            return proc
        return None

    def measure(self) -> None:
        """Every timed task in one seeded shuffled order.

        CLI jobs, raster chunks, pipeline chunks and set-up repeats are
        interleaved over the whole run, so a slow spell of the machine
        touches a few samples of every metric, which the medians then drop,
        instead of all samples of one metric.
        """
        self._census(NULL_TRACER)
        plan, jobs, chunks = self.plan, self.inputs.jobs, self.inputs.chunks()
        rounds = {"basins": plan.basins_rounds, "equilibria": plan.equilibria_rounds}
        tasks = [("cli", i) for i, job in enumerate(jobs)
                 for _ in range(rounds.get(job.command, 1))]
        tasks += [("raster", c) for c in range(len(chunks)) for _ in range(plan.raster_rounds)]
        tasks += [("pipeline", c) for c in range(len(chunks)) for _ in range(plan.pipeline_rounds)]
        tasks += [("setup", 0)] * (SETUP_REPEATS - 1)
        np.random.default_rng([self.seed, 7]).shuffle(tasks)

        cli: dict[str, list[float]] = {"basins": [], "equilibria": [], "scalar": []}
        rss: list[float] = []
        raster: dict[int, list[float]] = {c: [] for c in range(len(chunks))}
        draws: dict[int, list[float]] = {c: [] for c in range(len(chunks))}
        fresh_dir(self.work / "cli")
        busy = dict.fromkeys(("cli", "raster", "pipeline", "setup"), 0.0)
        for kind, arg in tasks:
            started = time.perf_counter()
            if kind == "cli":
                proc = self._cli_job(arg)
                if proc is not None:
                    command = jobs[arg].command
                    cli[command if command in cli else "scalar"].append(proc.seconds * 1e3)
                    if command == "basins":
                        rss.append(proc.peak_rss_kb / 1024.0)
            elif kind == "raster":
                raster[arg].append(self._raster_chunk(chunks[arg]))
            elif kind == "pipeline":
                seconds = self._pipeline_chunk(chunks[arg], NULL_TRACER)
                if seconds is not None:
                    draws[arg].append(seconds)
            else:
                self._setup_once(self.work / "setup")
            busy[kind] += time.perf_counter() - started
        self.report["task_s"] = {k: round(v, 3) for k, v in busy.items()}

        samples = self.report["samples"]
        for kind, values in cli.items():
            value, pct = tail(values)
            self.metrics[f"{kind}_cli_p50_ms"] = median(values)
            self.metrics[f"{kind}_cli_tail_ms"] = value
            samples[f"{kind}_cli_p50_ms"] = {"n": len(values)}
            samples[f"{kind}_cli_tail_ms"] = {"n": len(values), "percentile": pct}
        self.metrics["basins_cli_peak_rss_mb"] = median(rss)
        samples["basins_cli_peak_rss_mb"] = {"n": len(rss), "stat": "median of per-process peaks"}
        self.metrics["setup_s"] = median(self.setup_times)
        samples["setup_s"] = {"n": len(self.setup_times)}
        # Rates over one pass of every set, each chunk timed by its median.
        n_sets = len(self.inputs.sets)
        self.metrics["raster_cells_per_s"] = (
            n_sets * plan.resolution ** 2 / sum(median(v) for v in raster.values()))
        self.metrics["draws_per_s"] = n_sets / sum(median(v) for v in draws.values())
        stat = f"sum over {len(chunks)} chunks of the median chunk time"
        samples["raster_cells_per_s"] = {"n": plan.raster_rounds * len(chunks), "stat": stat,
                                         "cells_per_pass": n_sets * plan.resolution ** 2}
        samples["draws_per_s"] = {"n": plan.pipeline_rounds * len(chunks), "stat": stat,
                                  "draws_per_pass": n_sets}

    # -- traced phases -----------------------------------------------------

    def measure_startup(self) -> None:
        probes = {"cli_io.interpreter_ms": "pass", "cli_io.numpy_import_ms": "import numpy",
                  "cli_io.startup_ms": "import replicator_lab"}
        samples: dict[str, list[float]] = {k: [] for k in probes}
        for _ in range(STARTUP_SAMPLES):
            for name, code in probes.items():
                proc = run_process([sys.executable, "-c", code], self.env, self.work)
                self.ledger.check(proc.code == 0, f"{code}: exit {proc.code}")
                samples[name].append(proc.seconds * 1e3)
        for name, values in samples.items():
            self.metrics[name] = median(values)

    def _replay_rounds(self) -> int:
        """Rounds over the jobs giving each command about five samples."""
        return max(1, -(-5 // len(self.inputs.cli_keys)))

    def measure_dispatch(self) -> None:
        """In-process ``dispatch`` per command, stdout captured."""
        samples: dict[str, list[float]] = {c: [] for c in COMMANDS}
        out_dir = self.work / "dispatch"
        for _ in range(self._replay_rounds()):
            for job in self.inputs.jobs:
                fresh_dir(out_dir)
                text = job.config.read_text(encoding="utf-8")
                with self.ledger.op(f"dispatch {job.command} {job.key}"):
                    start = time.perf_counter()
                    dispatch_in_process(job.command, text, out_dir)
                    samples[job.command].append(time.perf_counter() - start)
        for command, values in samples.items():
            self.metrics[f"cli_io.dispatch_ms.{command}"] = median(values) * 1e3

    def measure_replay(self) -> None:
        """Every command replayed with spans; self time per layer per round."""
        tr = self.tracer
        out_dir = self.work / "replay"
        per_round: dict[str, list[float]] = {layer: [] for layer in LAYERS}
        since = tr.mark()
        for _ in range(self._replay_rounds()):
            mark = tr.mark()
            for job in self.inputs.jobs:
                fresh_dir(out_dir)
                text = job.config.read_text(encoding="utf-8")
                with self.ledger.op(f"replay {job.command} {job.key}"):
                    with tr.span(f"cmd.{job.command}"):
                        replay(job.command, text, out_dir, tr)
            self_time = tr.self_time_by_layer(mark)
            for layer in LAYERS:
                per_round[layer].append(self_time.get(layer, 0.0))
        for layer, values in per_round.items():
            self.metrics[f"{layer}.self_ms"] = median(values) * 1e3
        for metric, span, scale in (
            ("cli_io.parse_config_us", "cli_io.parse_config", 1e6),
            ("cli_io.write_basin_ppm_ms", "cli_io.write_basin_ppm", 1e3),
            ("cli_io.write_csv_ms", "cli_io.write_csv", 1e3),
            ("basins.basin_areas_us", "basins.basin_areas", 1e6),
            ("basins.simulate_us", "basins.simulate", 1e6),
        ):
            self.metrics[metric] = median(tr.durations(span, since)) * scale

    def measure_threads(self) -> None:
        """compute_basins per chunk at one thread and at the default count."""
        chunks = self.inputs.chunks()
        times: dict[str, list[list[float]]] = {"t1": [[] for _ in chunks],
                                               "tauto": [[] for _ in chunks]}
        for _ in range(self.plan.raster_rounds):
            for c, chunk in enumerate(chunks):
                for label, env in (("t1", "1"), ("tauto", None)):
                    with thread_env(env):
                        times[label][c].append(self._raster_chunk(chunk))
        per_chunk = {label: [median(v) * 1e3 for v in by_chunk]
                     for label, by_chunk in times.items()}
        t1, tauto = sum(per_chunk["t1"]), sum(per_chunk["tauto"])
        self.metrics.update({
            "basins.compute_basins_ms.t1": t1,
            "basins.compute_basins_ms.tauto": tauto,
            "basins.thread_speedup": t1 / tauto,
            "basins.ns_per_cell": tauto * 1e6 / (len(self.inputs.sets) * self.plan.resolution ** 2),
        })
        if self.plan.chunk == 1:
            self.report["per_set_ms"] = {
                label: {chunk[0][0]: ms for chunk, ms in zip(chunks, values)}
                for label, values in per_chunk.items()}
            self.report["per_set_nonconvergent"] = {
                k: int((c == checks.NON_CONVERGENT).sum()) for k, c in self.first_rasters.items()}

    def measure_pipeline_traced(self) -> None:
        """Per-call times from the census spans; overhead from paired chunks."""
        tr = self.tracer
        since = tr.mark()
        self._census(tr)
        n_sets = len(self.inputs.sets)
        self.metrics["trace.spans_per_draw"] = (tr.mark() - since) / n_sets
        for metric, span in (
            ("equilibria.edge_equilibria_us", "equilibria.edge_equilibria"),
            ("equilibria.find_diagonal_us", "equilibria.find_diagonal_equilibria"),
            ("equilibria.find_inner_us", "equilibria.find_inner_equilibria"),
            ("equilibria.find_period2_us", "equilibria.find_period2_diagonal"),
            ("stability.classify_scenario_us", "stability.classify_scenario"),
            ("stability.stability_at_us", "stability.stability_at"),
            ("stability.vertex_eigenvalues_us", "stability.vertex_eigenvalues"),
            ("policy.minimal_s9_tax_us", "policy.minimal_s9_tax"),
            ("policy.feasible_scenarios_us", "policy.feasible_scenarios"),
        ):
            self.metrics[metric] = median(tr.durations(span, since)) * 1e6
        chunks = self.inputs.chunks()
        plain: list[list[float]] = [[] for _ in chunks]
        traced: list[list[float]] = [[] for _ in chunks]
        for _ in range(self.plan.pipeline_rounds):
            for c, chunk in enumerate(chunks):
                for tracer, times in ((NULL_TRACER, plain[c]), (tr, traced[c])):
                    seconds = self._pipeline_chunk(chunk, tracer)
                    if seconds is not None:
                        times.append(seconds)
        overhead = sum(map(median, traced)) - sum(map(median, plain))
        self.metrics["trace.overhead_us_per_draw"] = overhead / n_sets * 1e6

    def measure_micro(self) -> None:
        """Per-call cost of the scalar kernels, from batches of calls."""
        states = [model_core.State(*s) for s in self.inputs.micro_states]
        params = params_of(next(iter(self.inputs.sets.values())))
        p1 = model_core.Params1D.from_values(*self.inputs.one_pop_sets[0])
        etas = [s.eta1 for s in states]
        batches = (
            ("model_core.step_full_us", lambda: [model_core.step_full(params, s) for s in states]),
            ("model_core.step_adjusted_1d_us",
             lambda: [model_core.step_adjusted_1d(p1, e) for e in etas]),
            ("stability.jacobian_us", lambda: [stability.jacobian(params, s) for s in states]),
        )
        repeat = 16
        for metric, batch in batches:
            per_call = []
            for _ in range(MICRO_BATCHES):
                start = time.perf_counter()
                for _ in range(repeat):
                    batch()
                per_call.append((time.perf_counter() - start) / (repeat * len(states)))
            self.metrics[metric] = median(per_call) * 1e6

    # -- output --------------------------------------------------------------

    def result(self) -> dict:
        if self.trace:
            self.metrics.update(self.counters)
            units = PER_LAYER_UNITS
        else:
            units = END_TO_END_UNITS
        missing = sorted(set(units) - set(self.metrics))
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        return {
            "correct": self.ledger.failed == 0,
            "attempted": self.ledger.attempted,
            "failed": self.ledger.failed,
            "metrics": {name: {"value": float(self.metrics[name]), "unit": unit}
                        for name, unit in units.items()},
        }

    def describe(self) -> dict:
        self.report.update(
            workload=self.workload,
            seed=self.seed,
            seconds=self.seconds,
            trace=self.trace,
            plan=self.plan.__dict__,
            failed_ratio=self.ledger.failed / max(self.ledger.attempted, 1),
            failures=self.ledger.messages,
            environment={
                "cpu_count": os.cpu_count(),
                "raster_threads": basins.resolve_thread_count(),
                "threads_env": "unset",
                "python": platform.python_version(),
                "numpy": np.__version__,
                "commit": git_commit(self.root),
                "src_sha256": tree_digest(self.src),
                "machine": platform.machine(),
            },
            note=WEAK_THREAD_EVIDENCE,
        )
        return self.report


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tree_digest(src: Path) -> str:
    """SHA-256 over the package sources, to identify the code measured."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()
