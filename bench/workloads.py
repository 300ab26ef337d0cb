"""Inputs of the three benchmark workloads, generated from a seed.

The reference parameter sets are copied from the test suite's fixtures so
that the benchmark never imports test code. Everything a workload feeds the
program is built here: the parameter sets it rasters and analyses, the
config files its CLI jobs read, and the random draws of ``analysis-draws``.
Only numpy's seeded ``Generator`` is used, so one seed always yields the
same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

WORKLOADS = ("raster-converging", "raster-tail", "analysis-draws")

# Argument order: pi_gg, pi_gb, pi_bg, pi_bb, c_g, c_b, beta.
SCENARIO_SETS: dict[str, tuple[float, ...]] = {
    "S1": (2.75, 2.3, 2.5, 2.2, 0.3, 0.4, 1.0),
    "S2": (2.75, 2.2, 2.5, 2.4, 0.3, 0.1, 1.0),
    "S3": (2.75, 2.05, 2.5, 2.2, 0.2, 0.1, 1.0),
    "S4": (2.0, 2.3, 2.5, 2.2, 0.3, 0.4, 1.0),
    "S5": (1.0, 1.0, 2.5, 2.0, 0.5, 0.4, 1.0),
    "S6": (2.75, 2.2, 2.5, 2.2, 0.2, 0.1, 1.0),
    "S7": (2.4, 2.3, 2.5, 1.9, 0.3, 0.4, 1.0),
    "S8": (2.3, 2.3, 2.5, 2.1, 0.1, 0.1, 1.0),
    "S9": (2.75, 2.3, 2.5, 2.0, 0.2, 0.4, 1.0),
}
MULTI_INNER_SET = (2.75, 1.7, 2.5, 1.9, 0.3, 0.4, 5.0)
MULTI_DIAGONAL_SET = (5.3, 1.95, 5.1, 1.0, 1.2, 0.01, 4.0)
CYCLE_SET = (4.0, 1.95, 5.1, 0.8, 0.1, 0.01, 4.0)
TAIL_SETS = {"CYCLE_SET": CYCLE_SET, "MULTI_DIAGONAL_SET": MULTI_DIAGONAL_SET}

# One-population sets: pi_g, pi_b, c_g, c_b, beta.
ONE_POP_SETS = (
    (0.95, 1.3, 0.3, 0.3, 4.0),
    (0.95, 1.0, 0.3, 0.3, 4.0),
    (0.95, 0.6, 0.3, 0.3, 4.0),
)

TWO_FIRM_KEYS = ("pi_gg", "pi_gb", "pi_bg", "pi_bb", "c_g", "c_b", "beta")
ONE_POP_KEYS = ("pi_g", "pi_b", "c_g", "c_b", "beta")
SCALAR_COMMANDS = ("classify", "step", "simulate", "policy", "staircase", "sweep")
COMMANDS = ("basins", "equilibria") + SCALAR_COMMANDS

# Random-draw box of the analysis workload.
PAYOFF_RANGE = (0.5, 3.0)
COST_RANGE = (0.0, 1.0)
BETA_RANGE = (0.2, 8.0)


@dataclass(frozen=True)
class Plan:
    """How much work one run does.

    The in-process loops work on chunks of ``chunk`` parameter sets; each
    ``*_rounds`` count says how often every CLI job of one kind, or every
    chunk, runs. Scalar CLI commands instead get ``scalar_inputs`` distinct
    seeded configs per set, each run once. The counts follow from the run
    length, not from a clock,
    so every run of a workload takes the same number of samples and reports
    the same tail percentile.
    """

    resolution: int
    max_iter: int
    chunk: int
    n_draws: int
    n_cli_draws: int
    basins_rounds: int
    equilibria_rounds: int
    scalar_inputs: int
    raster_rounds: int
    pipeline_rounds: int
    sweep_count: int = 40
    n_steps: int = 50


def plan_for(workload: str, seconds: float, tiny: bool = False) -> Plan:
    """Work sized so that a run takes about ``seconds`` on a 2-CPU box.

    ``tiny`` shrinks every count to its minimum, for the self-test.
    """
    k = max(seconds / 30.0, 1.0 / 30.0)

    def scaled(base: int, least: int = 1) -> int:
        return max(least, round(base * k))

    if workload == "raster-converging":
        plan = Plan(resolution=400, max_iter=5000, chunk=1, n_draws=0, n_cli_draws=0,
                    basins_rounds=scaled(4), equilibria_rounds=scaled(4),
                    scalar_inputs=scaled(2), raster_rounds=scaled(7),
                    pipeline_rounds=scaled(25, 3))
    elif workload == "raster-tail":
        plan = Plan(resolution=400, max_iter=5000, chunk=1, n_draws=0, n_cli_draws=0,
                    basins_rounds=scaled(18), equilibria_rounds=scaled(18),
                    scalar_inputs=scaled(4), raster_rounds=scaled(10, 3),
                    pipeline_rounds=scaled(100, 3))
    elif workload == "analysis-draws":
        # The basin probes are tiny rasters with a short iteration budget:
        # this workload measures the analysis layers, not the raster kernel.
        # Three CLI draws at least, so that all six scalar commands run.
        plan = Plan(resolution=16, max_iter=100, chunk=25, n_draws=scaled(200, 25),
                    n_cli_draws=scaled(48, 3), basins_rounds=1, equilibria_rounds=1,
                    scalar_inputs=1, raster_rounds=scaled(5, 3), pipeline_rounds=3)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if tiny:
        plan = replace(plan, resolution=min(plan.resolution, 32), chunk=min(plan.chunk, 3),
                       n_draws=min(plan.n_draws, 6), n_cli_draws=min(plan.n_cli_draws, 3),
                       basins_rounds=1, equilibria_rounds=1, scalar_inputs=1,
                       raster_rounds=1, pipeline_rounds=1, sweep_count=5, n_steps=5)
    return plan


@dataclass
class CliJob:
    """One CLI invocation: ``replicator-lab <command> --config <config>``."""

    key: str
    command: str
    config: Path


@dataclass
class Inputs:
    """Everything one run feeds the program.

    ``sets`` are the two-firm parameter sets the in-process loops use, in
    chunks of ``plan.chunk``; the CLI jobs use the first ``len(cli_keys)``.
    """

    plan: Plan
    sets: dict[str, tuple[float, ...]]
    cli_keys: list[str]
    one_pop_sets: list[tuple[float, ...]]
    jobs: list[CliJob] = field(default_factory=list)
    micro_states: list[tuple[float, float]] = field(default_factory=list)

    def chunks(self) -> list[list[tuple[str, tuple[float, ...]]]]:
        items = list(self.sets.items())
        size = self.plan.chunk
        return [items[i:i + size] for i in range(0, len(items), size)]


def _draw_two_firm(rng: np.random.Generator) -> tuple[float, ...]:
    pi = rng.uniform(*PAYOFF_RANGE, size=4)
    c_g, c_b = rng.uniform(*COST_RANGE, size=2)
    beta = rng.uniform(*BETA_RANGE)
    return (*(float(v) for v in pi), float(c_g), float(c_b), float(beta))


def _draw_one_pop(rng: np.random.Generator) -> tuple[float, ...]:
    pi_g, pi_b = rng.uniform(*PAYOFF_RANGE, size=2)
    c_g, c_b = rng.uniform(*COST_RANGE, size=2)
    beta = rng.uniform(*BETA_RANGE)
    return (float(pi_g), float(pi_b), float(c_g), float(c_b), float(beta))


def _render(pairs: dict[str, object]) -> str:
    return "".join(
        f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n" for k, v in pairs.items()
    )


def two_firm_config(values: tuple[float, ...], plan: Plan, **extra: object) -> str:
    pairs: dict[str, object] = dict(zip(TWO_FIRM_KEYS, values))
    pairs.update(resolution=plan.resolution, max_iter=plan.max_iter)
    pairs.update(extra)
    return _render(pairs)


def one_pop_config(values: tuple[float, ...], plan: Plan, **extra: object) -> str:
    pairs: dict[str, object] = dict(zip(ONE_POP_KEYS, values))
    pairs.update(n_steps=plan.n_steps)
    pairs.update(extra)
    return _render(pairs)


def _scalar_config(
    command: str,
    values: tuple[float, ...],
    one_pop: tuple[float, ...],
    plan: Plan,
    rng: np.random.Generator,
) -> str:
    """Config text for one scalar command, with its seeded free inputs."""
    eta1, eta2 = (float(v) for v in rng.uniform(0.0, 1.0, size=2))
    if command == "staircase":
        model = "classic" if rng.uniform() < 0.5 else "adjusted"
        return one_pop_config(one_pop, plan, eta0=float(rng.uniform()), model=model)
    if command == "sweep":
        idx = int(rng.integers(len(TWO_FIRM_KEYS)))
        base = values[idx]
        return two_firm_config(
            values, plan, sweep_param=TWO_FIRM_KEYS[idx], sweep_start=0.5 * base,
            sweep_stop=1.5 * base, sweep_count=plan.sweep_count,
        )
    return two_firm_config(values, plan, eta1=eta1, eta2=eta2)


def build_inputs(workload: str, seed: int, plan: Plan, config_dir: Path) -> Inputs:
    """Generate the workload's parameter sets, draws and CLI config files."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "raster-converging":
        sets = dict(SCENARIO_SETS)
    elif workload == "raster-tail":
        sets = dict(TAIL_SETS)
    elif workload == "analysis-draws":
        sets = {f"draw{i}": _draw_two_firm(rng) for i in range(plan.n_draws)}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    cli_keys = list(sets)[: plan.n_cli_draws] if plan.n_cli_draws else list(sets)
    if workload == "analysis-draws":
        one_pop_sets = [_draw_one_pop(rng) for _ in cli_keys]
    else:
        one_pop_sets = [ONE_POP_SETS[i % len(ONE_POP_SETS)] for i in range(len(cli_keys))]

    inputs = Inputs(plan, sets, cli_keys, one_pop_sets)
    config_dir.mkdir(parents=True, exist_ok=True)

    def add(key: str, command: str, text: str, tag: int = 0) -> None:
        path = config_dir / f"{key}.{command}.{tag}.cfg"
        path.write_text(text, encoding="utf-8")
        inputs.jobs.append(CliJob(key, command, path))

    for n, key in enumerate(cli_keys):
        values = sets[key]
        add(key, "basins", two_firm_config(values, plan))
        add(key, "equilibria", two_firm_config(values, plan))
        if workload == "analysis-draws":
            # Two scalar commands per draw, cycling through all six.
            commands = [SCALAR_COMMANDS[(2 * n + k) % len(SCALAR_COMMANDS)] for k in (0, 1)]
        else:
            commands = list(SCALAR_COMMANDS) * plan.scalar_inputs
        for tag, command in enumerate(commands):
            add(key, command, _scalar_config(command, values, one_pop_sets[n], plan, rng), tag)

    inputs.micro_states = [tuple(float(v) for v in rng.uniform(0.0, 1.0, size=2))
                           for _ in range(64)]
    return inputs
