"""Config parsing, file outputs, and the ``replicator-lab`` command line.

Configs are flat ``key = value`` text files with ``#`` comments. Commands
read one config, print their headline numbers to stdout with full
precision, and write any bulk output as CSV tables or binary PPM images
rooted at the ``--out`` directory. Exit codes: 0 success, 1 validation or
usage error, 2 I/O error.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .basins import (
    BasinRaster,
    MapKind,
    OutcomeCode,
    basin_areas,
    compute_basins,
    simulate,
    staircase,
)
from .equilibria import (
    Equilibrium,
    EquilibriumKind,
    edge_equilibria,
    find_diagonal_equilibria,
    find_inner_equilibria,
    inner_equilibrium_1d,
    eta_in_limits,
    vertex_equilibria,
)
from .errors import (
    InternalError,
    KnifeEdgeError,
    ParseError,
    ReplicatorLabError,
    ValidationError,
)
from .model_core import ModelParams, Params1D, State, step_full
from .policy import (
    StructureFlags,
    TaxMode,
    apply_brown_tax,
    feasible_scenarios,
    minimal_s9_tax,
    ordering_scenarios,
    required_transition_risk,
    tax_thresholds_1d,
)
from .stability import (
    classify_scenario,
    discriminants,
    stability_at,
    vertex_eigenvalues,
    edge_eigenvalues,
)

USAGE = """\
usage: replicator-lab <command> --config <path> [--out <dir>]
commands:
  step        advance a two-firm state by one period
  simulate    follow a trajectory to its outcome
  equilibria  locate fixed points and report their stability
  classify    name the scenario of a parameter set
  basins      raster the basins of attraction (PPM image + CSV areas)
  staircase   tabulate a one-population cobweb path
  policy      report tax thresholds and feasible scenario sets
  sweep       classify scenarios along a one-parameter grid
"""

#: RGB palette for basin rasters, indexed by OutcomeCode value.
BASIN_PALETTE = {
    OutcomeCode.TO_GG: (0, 160, 0),
    OutcomeCode.TO_BB: (139, 69, 19),
    OutcomeCode.TO_GB: (230, 200, 0),
    OutcomeCode.TO_BG: (40, 90, 200),
    OutcomeCode.NON_CONVERGENT: (128, 128, 128),
}

_SWEEPABLE = ("pi_gg", "pi_gb", "pi_bg", "pi_bb", "c_g", "c_b", "beta")


@dataclass
class RunConfig:
    """Fully validated inputs for one CLI command.

    Model parameters come in two groups: the two-firm payoffs
    (``pi_gg`` .. ``pi_bb``) and the one-population profits
    (``pi_g``, ``pi_b``); each group must be complete when used and both
    require ``c_g``, ``c_b``, ``beta``. Solver settings carry defaults.
    """

    pi_gg: float | None = None
    pi_gb: float | None = None
    pi_bg: float | None = None
    pi_bb: float | None = None
    pi_g: float | None = None
    pi_b: float | None = None
    c_g: float | None = None
    c_b: float | None = None
    beta: float | None = None
    eta1: float | None = None
    eta2: float | None = None
    eta0: float | None = None
    pi_hat_b: float | None = None
    model: MapKind = MapKind.ADJUSTED
    tax_mode: TaxMode = TaxMode.BOTH_STATES
    n_steps: int = 50
    resolution: int = 400
    scan_resolution: int = 256
    eps: float = 1e-6
    max_iter: int = 5000
    sweep_param: str | None = None
    sweep_start: float | None = None
    sweep_stop: float | None = None
    sweep_count: int | None = None
    out_ppm: str | None = None
    out_csv: str | None = None

    def to_model_params(self) -> ModelParams:
        needed = ("pi_gg", "pi_gb", "pi_bg", "pi_bb", "c_g", "c_b", "beta")
        missing = [k for k in needed if getattr(self, k) is None]
        if missing:
            raise ValidationError(
                f"two-firm model keys missing from config: {', '.join(missing)}"
            )
        return ModelParams.from_values(
            self.pi_gg, self.pi_gb, self.pi_bg, self.pi_bb, self.c_g, self.c_b, self.beta
        )

    def to_params_1d(self) -> Params1D:
        needed = ("pi_g", "pi_b", "c_g", "c_b", "beta")
        missing = [k for k in needed if getattr(self, k) is None]
        if missing:
            raise ValidationError(
                f"one-population model keys missing from config: {', '.join(missing)}"
            )
        return Params1D.from_values(self.pi_g, self.pi_b, self.c_g, self.c_b, self.beta)


_FLOAT_KEYS = {
    "pi_gg", "pi_gb", "pi_bg", "pi_bb", "pi_g", "pi_b", "c_g", "c_b", "beta",
    "eta1", "eta2", "eta0", "pi_hat_b", "eps", "sweep_start", "sweep_stop",
}
_INT_KEYS = {"n_steps", "resolution", "scan_resolution", "max_iter", "sweep_count"}
_ENUM_KEYS = {"model": MapKind, "tax_mode": TaxMode}
_STR_KEYS = {"sweep_param", "out_ppm", "out_csv"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | set(_ENUM_KEYS) | _STR_KEYS


def parse_config(text: str) -> RunConfig:
    """Parse and validate flat ``key = value`` config text.

    ``#`` starts a comment, blank lines are skipped, keys may appear once.
    Malformed lines raise ParseError carrying the line number; recognized
    keys with out-of-range values raise ValidationError naming the
    constraint; unknown keys raise ValidationError naming the key.
    """
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ParseError("missing key before '='", lineno)
        if not value:
            raise ParseError(f"missing value for key '{key}'", lineno)
        if key not in _ALL_KEYS:
            raise ValidationError(f"unknown config key '{key}' (line {lineno})")
        if key in values:
            raise ParseError(f"duplicate key '{key}'", lineno)
        if key in _FLOAT_KEYS:
            try:
                num = float(value)
            except ValueError as exc:
                raise ParseError(f"invalid number for '{key}': {value!r}", lineno) from exc
            if not math.isfinite(num):
                raise ValidationError(f"{key} must be finite, got {value!r}")
            values[key] = num
        elif key in _INT_KEYS:
            try:
                values[key] = int(value, 10)
            except ValueError as exc:
                raise ParseError(f"invalid integer for '{key}': {value!r}", lineno) from exc
        elif key in _ENUM_KEYS:
            enum_type = _ENUM_KEYS[key]
            try:
                values[key] = enum_type(value)
            except ValueError as exc:
                allowed = ", ".join(m.value for m in enum_type)
                raise ValidationError(
                    f"{key} must be one of: {allowed}; got {value!r}"
                ) from exc
        else:
            values[key] = value

    config = RunConfig(**values)
    _validate_config(config)
    return config


def _validate_config(config: RunConfig) -> None:
    for key in ("pi_gg", "pi_gb", "pi_bg", "pi_bb", "pi_g", "pi_b", "pi_hat_b", "beta"):
        v = getattr(config, key)
        if v is not None and v <= 0.0:
            raise ValidationError(f"{key} must be > 0, got {v!r}")
    for key in ("c_g", "c_b"):
        v = getattr(config, key)
        if v is not None and v < 0.0:
            raise ValidationError(f"{key} must be >= 0, got {v!r}")
    for key in ("eta1", "eta2", "eta0"):
        v = getattr(config, key)
        if v is not None and not 0.0 <= v <= 1.0:
            raise ValidationError(f"{key} must lie in [0, 1], got {v!r}")
    if not 0.0 < config.eps < 0.5:
        raise ValidationError(f"eps must be in (0, 0.5), got {config.eps!r}")
    if config.max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {config.max_iter!r}")
    if config.resolution < 16:
        raise ValidationError(f"resolution must be >= 16, got {config.resolution!r}")
    if config.scan_resolution < 64:
        raise ValidationError(
            f"scan_resolution must be >= 64, got {config.scan_resolution!r}"
        )
    if config.n_steps < 1:
        raise ValidationError(f"n_steps must be >= 1, got {config.n_steps!r}")

    two_firm = ("pi_gg", "pi_gb", "pi_bg", "pi_bb")
    present = [k for k in two_firm if getattr(config, k) is not None]
    if present and len(present) < len(two_firm):
        missing = sorted(set(two_firm) - set(present))
        raise ValidationError(
            f"two-firm payoffs are all-or-none; missing: {', '.join(missing)}"
        )
    one_pop = ("pi_g", "pi_b")
    present_1d = [k for k in one_pop if getattr(config, k) is not None]
    if present_1d and len(present_1d) < len(one_pop):
        missing = sorted(set(one_pop) - set(present_1d))
        raise ValidationError(
            f"one-population profits are all-or-none; missing: {', '.join(missing)}"
        )

    sweep_keys = ("sweep_param", "sweep_start", "sweep_stop", "sweep_count")
    sweep_present = [k for k in sweep_keys if getattr(config, k) is not None]
    if sweep_present and len(sweep_present) < len(sweep_keys):
        missing = sorted(set(sweep_keys) - set(sweep_present))
        raise ValidationError(f"sweep keys are all-or-none; missing: {', '.join(missing)}")
    if config.sweep_param is not None:
        if config.sweep_param not in _SWEEPABLE:
            raise ValidationError(
                f"sweep_param must be one of: {', '.join(_SWEEPABLE)}; "
                f"got {config.sweep_param!r}"
            )
        if config.sweep_count < 2:
            raise ValidationError(f"sweep_count must be >= 2, got {config.sweep_count!r}")


_RENDER_ORDER = (
    "pi_gg", "pi_gb", "pi_bg", "pi_bb", "pi_g", "pi_b", "c_g", "c_b", "beta",
    "eta1", "eta2", "eta0", "pi_hat_b", "model", "tax_mode", "n_steps",
    "resolution", "scan_resolution", "eps", "max_iter",
    "sweep_param", "sweep_start", "sweep_stop", "sweep_count",
    "out_ppm", "out_csv",
)


def render_config(config: RunConfig) -> str:
    """Config text that parses back to an equal RunConfig."""
    lines = []
    for key in _RENDER_ORDER:
        v = getattr(config, key)
        if v is None:
            continue
        if isinstance(v, Enum):
            v = v.value
        elif isinstance(v, float):
            v = repr(v)
        lines.append(f"{key} = {v}")
    return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    """Decimal with 17 significant digits (round-trips float64 exactly)."""
    return f"{x:.17g}"


def write_basin_ppm(raster: BasinRaster, path: str | Path) -> None:
    """Write a basin raster as a binary (P6) PPM image.

    Pixel columns run along eta1 and rows top-down along decreasing eta2,
    so the image shows the unit square with (0, 0) at the bottom-left.
    Colors follow BASIN_PALETTE.
    """
    lut = np.array([BASIN_PALETTE[OutcomeCode(k)] for k in range(5)], dtype=np.uint8)
    image = lut[raster.cells.T[::-1, :]]
    header = f"P6\n{raster.resolution} {raster.resolution}\n255\n".encode("ascii")
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(image.tobytes())
    except OSError as exc:
        raise OSError(f"failed to write PPM image {path}: {exc}") from exc


def _format_cell(value: object) -> str:
    if isinstance(value, OutcomeCode):
        return value.label
    if isinstance(value, Enum):
        return str(value.value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt(float(value))
    if isinstance(value, complex):
        return f"{value.real:.17g}{value.imag:+.17g}j"
    return str(value)


def write_csv(table: dict[str, list], path: str | Path) -> None:
    """Write named columns as an RFC-4180-style CSV file.

    One header row of column names, comma separators, LF line endings, and
    decimals rendered with 17 significant digits. All columns must share
    one length.
    """
    lengths = {len(col) for col in table.values()}
    if len(lengths) > 1:
        raise ValidationError(f"CSV columns must share one length, got {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    names = list(table)
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(names)
            for r in range(n_rows):
                writer.writerow([_format_cell(table[name][r]) for name in names])
    except OSError as exc:
        raise OSError(f"failed to write CSV table {path}: {exc}") from exc


def _resolve_out(out_dir: Path, configured: str | None, default_name: str) -> Path:
    p = Path(configured) if configured is not None else Path(default_name)
    resolved = p if p.is_absolute() else out_dir / p
    try:
        resolved.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {resolved.parent}: {exc}") from exc
    return resolved


def _require(config: RunConfig, *keys: str) -> None:
    missing = [k for k in keys if getattr(config, k) is None]
    if missing:
        raise ValidationError(f"this command requires config keys: {', '.join(missing)}")


def _cmd_step(config: RunConfig, out_dir: Path) -> None:
    params = config.to_model_params()
    _require(config, "eta1", "eta2")
    nxt = step_full(params, State(config.eta1, config.eta2))
    print(f"eta1_next = {_fmt(nxt.eta1)}")
    print(f"eta2_next = {_fmt(nxt.eta2)}")


def _cmd_simulate(config: RunConfig, out_dir: Path) -> None:
    params = config.to_model_params()
    _require(config, "eta1", "eta2")
    record = config.out_csv is not None
    outcome, trajectory = simulate(
        params,
        State(config.eta1, config.eta2),
        max_iter=config.max_iter,
        eps=config.eps,
        record_trajectory=record,
    )
    print(f"outcome = {outcome.code.label}")
    print(f"iterations = {outcome.iterations_used}")
    if record:
        path = _resolve_out(out_dir, config.out_csv, "trajectory.csv")
        write_csv(
            {
                "t": list(range(len(trajectory))),
                "eta1": [s.eta1 for s in trajectory],
                "eta2": [s.eta2 for s in trajectory],
            },
            path,
        )
        print(f"wrote {path}")


def _cmd_classify(config: RunConfig, out_dir: Path) -> None:
    params = config.to_model_params()
    d1, d2, d3, d4 = discriminants(params)
    print(f"scenario = {classify_scenario(params).value}")
    print(f"d1 = {_fmt(d1)}")
    print(f"d2 = {_fmt(d2)}")
    print(f"d3 = {_fmt(d3)}")
    print(f"d4 = {_fmt(d4)}")


def _equilibrium_rows(params: ModelParams, scan_resolution: int) -> dict[str, list]:
    rows: dict[str, list] = {
        "kind": [], "eta1": [], "eta2": [], "lambda1": [], "lambda2": [], "class": [],
    }

    def add(eq: Equilibrium, report) -> None:
        lam1, lam2 = (complex(v) for v in report.eigenvalues)
        rows["kind"].append(eq.kind)
        rows["eta1"].append(eq.location.eta1)
        rows["eta2"].append(eq.location.eta2)
        rows["lambda1"].append(lam1.real if lam1.imag == 0.0 else lam1)
        rows["lambda2"].append(lam2.real if lam2.imag == 0.0 else lam2)
        rows["class"].append(report.classification)

    vertex_reports = vertex_eigenvalues(params)
    for eq in vertex_equilibria():
        add(eq, vertex_reports[eq.kind])
    for eq in edge_equilibria(params):
        add(eq, edge_eigenvalues(params, eq.kind))

    # Diagonal points come from the diagonal finder, whose roots of B - id
    # are refined to DIAGONAL_REFINE_TOL; the inner finder reports the same
    # points as roots of B(B(y)) - y and adds only the off-diagonal ones.
    off_diagonal = [
        eq for eq in find_inner_equilibria(params, scan_resolution)
        if eq.kind is EquilibriumKind.OFF_DIAGONAL_INNER
    ]
    for eq in find_diagonal_equilibria(params) + off_diagonal:
        add(eq, stability_at(params, eq.location))
    return rows


def _cmd_equilibria(config: RunConfig, out_dir: Path) -> None:
    params = config.to_model_params()
    rows = _equilibrium_rows(params, config.scan_resolution)
    path = _resolve_out(out_dir, config.out_csv, "equilibria.csv")
    write_csv(rows, path)
    print(f"equilibria = {len(rows['kind'])}")
    print(f"wrote {path}")


def _cmd_basins(config: RunConfig, out_dir: Path) -> None:
    params = config.to_model_params()
    raster = compute_basins(
        params, resolution=config.resolution, eps=config.eps, max_iter=config.max_iter
    )
    areas = basin_areas(raster)
    for code in OutcomeCode:
        print(f"area_{code.label} = {_fmt(areas.get(code, 0.0))}")
    ppm_path = _resolve_out(out_dir, config.out_ppm, "basins.ppm")
    write_basin_ppm(raster, ppm_path)
    print(f"wrote {ppm_path}")
    csv_path = _resolve_out(out_dir, config.out_csv, "basin_areas.csv")
    write_csv(
        {
            "outcome": list(OutcomeCode),
            "fraction": [areas.get(code, 0.0) for code in OutcomeCode],
        },
        csv_path,
    )
    print(f"wrote {csv_path}")


def _cmd_staircase(config: RunConfig, out_dir: Path) -> None:
    p = config.to_params_1d()
    _require(config, "eta0")
    pairs = staircase(p, config.model, config.eta0, config.n_steps)
    path = _resolve_out(out_dir, config.out_csv, "staircase.csv")
    write_csv(
        {
            "t": list(range(len(pairs))),
            "eta_t": [x for x, _ in pairs],
            "eta_next": [y for _, y in pairs],
        },
        path,
    )
    print(f"eta_final = {_fmt(pairs[-1][1])}")
    print(f"wrote {path}")


def _cmd_policy(config: RunConfig, out_dir: Path) -> None:
    has_1d = config.pi_g is not None
    has_2d = config.pi_gg is not None
    if not has_1d and not has_2d:
        raise ValidationError(
            "policy requires one-population (pi_g, pi_b) or two-firm "
            "(pi_gg .. pi_bb) model keys"
        )
    if has_1d:
        p = config.to_params_1d()
        thresholds = tax_thresholds_1d(p)
        print(f"tau1 = {_fmt(thresholds.tau1)}")
        print(f"tau2 = {_fmt(thresholds.tau2)}")
        print(f"tau3 = {_fmt(thresholds.tau3)}")
        eta_in = inner_equilibrium_1d(p)
        if eta_in is None:
            print("eta_in = none")
        else:
            print(f"eta_in = {_fmt(eta_in)}")
            try:
                limit_zero, limit_inf = eta_in_limits(p)
                print(f"limit_beta_zero = {_fmt(limit_zero)}")
                print(f"limit_beta_inf = {_fmt(limit_inf)}")
            except KnifeEdgeError:
                print("limit_beta_inf = knife_edge")
    if has_2d:
        params = config.to_model_params()
        scenario = classify_scenario(params)
        flags = StructureFlags.from_payoffs(params.payoffs)
        print(f"scenario = {scenario.value}")
        print(f"green_progress = {'true' if flags.green_progress else 'false'}")
        print(f"dynamic_risk = {'true' if flags.dynamic_risk else 'false'}")
        feasible = ",".join(sorted(s.value for s in feasible_scenarios(flags)))
        print(f"feasible = {feasible}")
        ordering = ",".join(sorted(s.value for s in ordering_scenarios(params)))
        print(f"ordering = {ordering}")
        tax = minimal_s9_tax(params)
        print(f"s9_tax_both_states = {_fmt(tax)}")
        taxed = classify_scenario(apply_brown_tax(params, tax, config.tax_mode))
        print(f"taxed_scenario_{config.tax_mode.value} = {taxed.value}")
        if config.pi_hat_b is not None:
            risk = required_transition_risk(
                config.pi_hat_b, params.payoffs.pi_gb, params.costs.c_g
            )
            print(f"required_transition_risk = {_fmt(risk)}")


def _cmd_sweep(config: RunConfig, out_dir: Path) -> None:
    _require(config, "sweep_param", "sweep_start", "sweep_stop", "sweep_count")
    base = config.to_model_params()
    grid = np.linspace(config.sweep_start, config.sweep_stop, config.sweep_count)
    values = {
        "pi_gg": base.payoffs.pi_gg,
        "pi_gb": base.payoffs.pi_gb,
        "pi_bg": base.payoffs.pi_bg,
        "pi_bb": base.payoffs.pi_bb,
        "c_g": base.costs.c_g,
        "c_b": base.costs.c_b,
        "beta": base.beta,
    }
    rows: dict[str, list] = {
        config.sweep_param: [], "d1": [], "d2": [], "d3": [], "d4": [], "scenario": [],
    }
    for v in grid:
        point = dict(values)
        point[config.sweep_param] = float(v)
        params = ModelParams.from_values(**point)
        d1, d2, d3, d4 = discriminants(params)
        rows[config.sweep_param].append(float(v))
        rows["d1"].append(d1)
        rows["d2"].append(d2)
        rows["d3"].append(d3)
        rows["d4"].append(d4)
        rows["scenario"].append(classify_scenario(params))
    path = _resolve_out(out_dir, config.out_csv, "sweep.csv")
    write_csv(rows, path)
    print(f"rows = {len(grid)}")
    print(f"wrote {path}")


_COMMANDS = {
    "step": _cmd_step,
    "simulate": _cmd_simulate,
    "equilibria": _cmd_equilibria,
    "classify": _cmd_classify,
    "basins": _cmd_basins,
    "staircase": _cmd_staircase,
    "policy": _cmd_policy,
    "sweep": _cmd_sweep,
}


def dispatch(command: str, config: RunConfig, out_dir: str | Path = ".") -> int:
    """Run one command against a parsed config; returns the exit code."""
    handler = _COMMANDS.get(command)
    if handler is None:
        print(f"error: unknown command '{command}'", file=sys.stderr)
        print(USAGE, file=sys.stderr, end="")
        return 1
    try:
        handler(config, Path(out_dir))
        return 0
    except InternalError:
        raise
    except ReplicatorLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point; returns the process exit code."""
    args = list(sys.argv[1:] if argv is None else argv)
    if not args:
        print(USAGE, file=sys.stderr, end="")
        return 1
    if args[0] in ("-h", "--help"):
        print(USAGE, end="")
        return 0
    command = args[0]
    if command not in _COMMANDS:
        print(f"error: unknown command '{command}'", file=sys.stderr)
        print(USAGE, file=sys.stderr, end="")
        return 1

    config_path: str | None = None
    out_dir = "."
    rest = args[1:]
    i = 0
    while i < len(rest):
        flag = rest[i]
        if flag in ("--config", "--out"):
            if i + 1 >= len(rest):
                print(f"error: {flag} needs a value", file=sys.stderr)
                return 1
            if flag == "--config":
                config_path = rest[i + 1]
            else:
                out_dir = rest[i + 1]
            i += 2
        else:
            print(f"error: unexpected argument '{flag}'", file=sys.stderr)
            print(USAGE, file=sys.stderr, end="")
            return 1
    if config_path is None:
        print("error: --config <path> is required", file=sys.stderr)
        return 1

    try:
        text = Path(config_path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"I/O error: cannot read config {config_path}: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
    except ReplicatorLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return dispatch(command, config, out_dir)


def console_main() -> None:
    sys.exit(main())
