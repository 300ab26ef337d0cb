"""Trajectory simulation, basin-of-attraction rasters, and staircase data.

``simulate`` follows a single trajectory of the full two-firm map until it
enters an eps-ball around one of the four vertices. ``compute_basins``
classifies a whole grid of starting points with one single-threaded,
vectorized kernel that iterates all not-yet-converged cells at once. It
iterates only the half ``i <= j`` of the grid and mirrors it, since the map
is exactly swap-equivariant, and retires cells early once they lie in a
proven trapping box of an attracting vertex. ``staircase`` tabulates
(eta_t, eta_{t+1}) pairs for the one-population maps.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from .errors import DomainError, ValidationError
from .model_core import (
    EXP_CLAMP,
    ModelParams,
    Params1D,
    State,
    _bounded_exp,
    derived_coefficients,
    step_adjusted_1d,
    step_classic_1d,
    step_full,
)

#: Former raster thread-count variable; the raster ignores it (see
#: resolve_thread_count).
THREADS_ENV_VAR = "REPLICATOR_LAB_THREADS"


class OutcomeCode(IntEnum):
    """Asymptotic fate of a trajectory; values are the raster cell codes."""

    TO_GG = 0
    TO_BB = 1
    TO_GB = 2
    TO_BG = 3
    NON_CONVERGENT = 4

    @property
    def label(self) -> str:
        return _OUTCOME_LABELS[self]


_OUTCOME_LABELS = {
    OutcomeCode.TO_GG: "ToGG",
    OutcomeCode.TO_BB: "ToBB",
    OutcomeCode.TO_GB: "ToGB",
    OutcomeCode.TO_BG: "ToBG",
    OutcomeCode.NON_CONVERGENT: "NonConvergent",
}

#: Vertex targeted by each convergent outcome, as (eta1, eta2).
OUTCOME_VERTICES = {
    OutcomeCode.TO_GG: (1.0, 1.0),
    OutcomeCode.TO_BB: (0.0, 0.0),
    OutcomeCode.TO_GB: (1.0, 0.0),
    OutcomeCode.TO_BG: (0.0, 1.0),
}


@dataclass(frozen=True)
class Outcome:
    """Final classification of one trajectory and the steps it took."""

    code: OutcomeCode
    iterations_used: int


@dataclass(eq=False)
class BasinRaster:
    """Grid of outcome codes over the unit square of starting states.

    ``cells[i, j]`` holds the OutcomeCode value for the start
    ``((i + 0.5) / resolution, (j + 0.5) / resolution)``, i.e. the first
    index runs over eta1 and the second over eta2.
    """

    resolution: int
    cells: np.ndarray
    params_used: ModelParams
    eps: float
    max_iter: int


def _check_solver_args(eps: float, max_iter: int) -> None:
    if not 0.0 < eps < 0.5:
        raise ValidationError(f"eps must be in (0, 0.5), got {eps!r}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {max_iter!r}")


def simulate(
    params: ModelParams,
    s0: State,
    max_iter: int = 5000,
    eps: float = 1e-6,
    record_trajectory: bool = False,
) -> tuple[Outcome, list[State] | None]:
    """Iterate the full map from ``s0`` until a vertex eps-ball is entered.

    Returns the outcome (NON_CONVERGENT with ``iterations_used == max_iter``
    if no vertex is approached in time) and, when requested, the visited
    states including both endpoints. Convergence is checked in the max
    norm, starting with the initial state itself.
    """
    _check_solver_args(eps, max_iter)
    trajectory: list[State] | None = [s0] if record_trajectory else None
    s = s0
    for t in range(max_iter + 1):
        for code, (vx, vy) in OUTCOME_VERTICES.items():
            if max(abs(s.eta1 - vx), abs(s.eta2 - vy)) < eps:
                return (Outcome(code, t), trajectory)
        if t == max_iter:
            break
        s = step_full(params, s)
        if trajectory is not None:
            trajectory.append(s)
    return (Outcome(OutcomeCode.NON_CONVERGENT, max_iter), trajectory)


#: GB<->BG swap of outcome codes: cell (j, i) holds _SWAP_CODES[cell (i, j)].
_SWAP_CODES = np.array([0, 1, 3, 2, 4], dtype=np.uint8)

#: Trapping-box radii tried per vertex, largest first, and the largest
#: per-step contraction bound a box may have.
_BOX_RADII = (0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002)
_BOX_MAX_RATE = 0.995

#: Bound on the absolute float64 error of one kernel step (a few ulps of a
#: value <= 1) and of the kernel's ``1 - eps`` and ``1 - r`` thresholds.
_STEP_ERROR = 2.0**-50

#: The box test runs only for the first _BOX_LAST_STEP steps and while at
#: least _BOX_MIN_ACTIVE cells are active. By then the cells near attractors
#: are gone, and on small arrays each extra numpy call costs its fixed
#: overhead while retiring almost nothing.
_BOX_LAST_STEP = 256
_BOX_MIN_ACTIVE = 512


@dataclass(frozen=True)
class _TrappingBox:
    """Max-norm box of ``radius`` around the vertex of ``code``.

    One map step sends the box into itself and shrinks the distance to the
    vertex by a factor of at most ``rate``, so a cell in the box enters the
    vertex's eps-ball within ``steps`` steps and cannot meet another vertex.
    """

    code: OutcomeCode
    radius: float
    rate: float
    steps: int

    def contains(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        vx, vy = OUTCOME_VERTICES[self.code]
        in_x = x >= 1.0 - self.radius if vx else x <= self.radius
        in_y = y >= 1.0 - self.radius if vy else y <= self.radius
        return in_x & in_y


def _coordinate_rate(params: ModelParams, own: float, other: float, r: float) -> float:
    """Contraction bound of one coordinate within ``r`` of the vertex value ``own``.

    With ``u = a*other_state + b`` the gap, ``e1 = exp(beta*(u - c_b))`` and
    ``e2 = exp(beta*(u + c_g))``, the map satisfies exactly::

        1 - x' = (1 - x) * [x*e1/(x + (1-x)*e1) + (1-x)*e2/(x + (1-x)*e2)]
            x' = x * [x/(x + (1-x)*e1) + (1-x)/(x + (1-x)*e2)]

    For ``1 - x <= r`` the first bracket is at most ``e1 + r/(1-r)*e2``; for
    ``x <= r`` the second is at most ``1/e2 + r/((1-r)*e1)``. Both are
    monotone in ``u``, so the bound takes ``u`` at the worst end of
    ``a*[opponent interval] + b``, with the opponent within ``r`` of ``other``.
    """
    a, b = derived_coefficients(params)
    c_g, c_b, beta = params.costs.c_g, params.costs.c_b, params.beta
    far = other - r if other else other + r
    if own:
        u = max(a * other + b, a * far + b)
        return _bounded_exp(beta * (u - c_b)) + r / (1.0 - r) * _bounded_exp(beta * (u + c_g))
    u = min(a * other + b, a * far + b)
    return 1.0 / _bounded_exp(beta * (u + c_g)) + r / (
        (1.0 - r) * _bounded_exp(beta * (u - c_b))
    )


def _trapping_boxes(params: ModelParams, eps: float) -> list[_TrappingBox]:
    """The largest trapping box with rate <= _BOX_MAX_RATE at each vertex that has one.

    Only an attracting vertex can have one, since both coordinates must
    contract. The budget ``steps = ceil(log(eps/r)/log(rate)) + 2`` brings
    the exact distance bound down to ``rate**steps * r <= rate**2 * eps``,
    below eps by ``(1 - rate**2) * eps >= (1 - rate) * eps``, which is 5e-9
    for the default eps. Those two spare steps absorb float64 rounding: one
    kernel step is off by at most _STEP_ERROR (~1e-16 in practice) in
    absolute terms, so after t steps the distance is at most
    ``rate**t * r + _STEP_ERROR / (1 - rate)``, which adds 2e-13 at most. A
    box is kept only if that total stays below eps less the rounding of the
    kernel's ``1 - eps`` threshold, which can fail only for eps below 2e-11.
    The same slack keeps the box invariant in float64: ``(1 - rate) * r >=
    1e-5`` dwarfs one step's error and the rounding of ``1 - r``.
    """
    boxes = []
    for code, (vx, vy) in OUTCOME_VERTICES.items():
        for r in _BOX_RADII:
            if r <= eps:
                break
            rate = max(_coordinate_rate(params, vx, vy, r), _coordinate_rate(params, vy, vx, r))
            if rate <= _BOX_MAX_RATE:
                steps = math.ceil(math.log(eps / r) / math.log(rate)) + 2
                reach = rate**steps * r + _STEP_ERROR / (1.0 - rate)
                if reach < eps - _STEP_ERROR:
                    boxes.append(_TrappingBox(code, r, rate, steps))
                break
    return boxes


def _iterate_grid(
    params: ModelParams, x0: np.ndarray, y0: np.ndarray, eps: float, max_iter: int
) -> np.ndarray:
    """Vectorized outcome codes for a batch of starting points.

    Keeps an active set of unconverged cells and applies the map to the
    whole set each iteration, so converged cells stop costing work. After
    the eps check at step ``t``, an active cell inside a vertex's trapping
    box is retired with that vertex's code when ``t + box.steps <=
    max_iter``: it would enter the eps-ball within the budget anyway, so the
    codes equal those of plain iteration.
    """
    a, b = derived_coefficients(params)
    c_g, c_b, beta = params.costs.c_g, params.costs.c_b, params.beta
    boxes = _trapping_boxes(params, eps)

    n = x0.size
    codes = np.full(n, OutcomeCode.NON_CONVERGENT.value, dtype=np.uint8)
    x = x0.astype(np.float64).ravel().copy()
    y = y0.astype(np.float64).ravel().copy()
    alive = np.arange(n)

    def coordinate_step(s: np.ndarray, gap: np.ndarray) -> np.ndarray:
        e1 = np.exp(np.clip(beta * (gap - c_b), -EXP_CLAMP, EXP_CLAMP))
        e2 = np.exp(np.clip(beta * (gap + c_g), -EXP_CLAMP, EXP_CLAMP))
        comp = 1.0 - s
        return s * s / (s + comp * e1) + s * comp / (s + comp * e2)

    for t in range(max_iter + 1):
        near_1x = x > 1.0 - eps
        near_0x = x < eps
        near_1y = y > 1.0 - eps
        near_0y = y < eps
        done = (near_1x | near_0x) & (near_1y | near_0y)
        retired = bool(done.any())
        if retired:
            hit = np.where(done)[0]
            cell_codes = np.where(
                near_1x[hit],
                np.where(near_1y[hit], OutcomeCode.TO_GG.value, OutcomeCode.TO_GB.value),
                np.where(near_1y[hit], OutcomeCode.TO_BG.value, OutcomeCode.TO_BB.value),
            )
            codes[alive[hit]] = cell_codes.astype(np.uint8)
        if t < _BOX_LAST_STEP and alive.size >= _BOX_MIN_ACTIVE:
            for box in boxes:
                if t + box.steps > max_iter:
                    continue
                inside = box.contains(x, y)
                if inside.any():
                    codes[alive[inside]] = box.code.value
                    done |= inside
                    retired = True
        if retired:
            keep = ~done
            x, y, alive = x[keep], y[keep], alive[keep]
        if t == max_iter or alive.size == 0:
            break
        gap_x = a * y + b
        gap_y = a * x + b
        x, y = coordinate_step(x, gap_x), coordinate_step(y, gap_y)
    return codes


def resolve_thread_count() -> int:
    """Worker count from REPLICATOR_LAB_THREADS (0 = auto).

    The basin raster is single-threaded and ignores this setting; the
    function stays for callers that record it.
    """
    raw = os.environ.get(THREADS_ENV_VAR, "0").strip() or "0"
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValidationError(
            f"{THREADS_ENV_VAR} must be a nonnegative integer, got {raw!r}"
        ) from exc
    if value < 0:
        raise ValidationError(
            f"{THREADS_ENV_VAR} must be a nonnegative integer, got {raw!r}"
        )
    if value == 0:
        return os.cpu_count() or 1
    return value


def compute_basins(
    params: ModelParams,
    resolution: int = 400,
    eps: float = 1e-6,
    max_iter: int = 5000,
) -> BasinRaster:
    """Classify every cell of a resolution x resolution grid of starts.

    Cell (i, j) starts at the cell center ((i+0.5)/res, (j+0.5)/res). The
    map is exactly swap-equivariant in float64, so only the cells with
    ``i <= j`` are iterated, in one single-threaded pass; cell (j, i) gets
    the mirror image of cell (i, j)'s code (ToGB and ToBG exchanged). Cells
    that reach a proven trapping box of an attracting vertex early are
    retired there, with the code plain iteration would give them.
    """
    if resolution < 16:
        raise ValidationError(f"resolution must be >= 16, got {resolution!r}")
    _check_solver_args(eps, max_iter)

    centers = (np.arange(resolution) + 0.5) / resolution
    rows, cols = np.triu_indices(resolution)
    codes = _iterate_grid(params, centers[rows], centers[cols], eps, max_iter)
    cells = np.empty((resolution, resolution), dtype=np.uint8)
    cells[rows, cols] = codes
    cells[cols, rows] = _SWAP_CODES[codes]

    return BasinRaster(
        resolution=resolution,
        cells=cells,
        params_used=params,
        eps=eps,
        max_iter=max_iter,
    )


def basin_areas(raster: BasinRaster) -> dict[OutcomeCode, float]:
    """Fraction of grid cells per outcome, for the outcomes that occur.

    Fractions are counts over resolution**2 and sum to 1 up to float
    round-off.
    """
    counts = np.bincount(raster.cells.ravel(), minlength=5)
    total = raster.resolution * raster.resolution
    return {
        OutcomeCode(code): int(counts[code]) / total
        for code in range(5)
        if counts[code] > 0
    }


class MapKind(Enum):
    """Which one-population map a staircase should iterate."""

    CLASSIC = "classic"
    ADJUSTED = "adjusted"


def staircase(
    p: Params1D, model: MapKind, s0: float, n_steps: int
) -> list[tuple[float, float]]:
    """(eta_t, eta_{t+1}) pairs along a one-population trajectory.

    Returns ``n_steps`` pairs chaining consecutively: the second entry of
    each pair is the first entry of the next.
    """
    if n_steps < 1:
        raise ValidationError(f"n_steps must be >= 1, got {n_steps!r}")
    if not isinstance(model, MapKind):
        raise DomainError(f"model must be a MapKind, got {model!r}")
    step = step_classic_1d if model == MapKind.CLASSIC else step_adjusted_1d
    pairs: list[tuple[float, float]] = []
    eta = s0
    for _ in range(n_steps):
        nxt = step(p, eta)
        pairs.append((eta, nxt))
        eta = nxt
    return pairs
