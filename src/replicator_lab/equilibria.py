"""Fixed points and 2-cycles of the replicator maps.

Provides the closed-form equilibria (the four vertices of the unit square,
the mixed equilibria on its edges, and the interior equilibrium of the
one-population cost-adjusted map) together with numerical root finders for
diagonal fixed points, general interior fixed points, and period-2 cycles
on the diagonal of the full two-firm map.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, KnifeEdgeError, ValidationError
from .model_core import (
    EXP_CLAMP,
    ModelParams,
    Params1D,
    State,
    derived_coefficients,
    step_full,
)

logger = logging.getLogger(__name__)

#: Residual bound every reported equilibrium or cycle must satisfy.
RESIDUAL_TOL = 1e-10

#: Tighter refinement target for one-dimensional (diagonal) bisection roots.
DIAGONAL_REFINE_TOL = 1e-12

#: Reported locations closer than this (max-norm) are merged as duplicates.
MERGE_TOL = 1e-6

#: An interior point this close to the diagonal is classified as diagonal.
DIAGONAL_TOL = 1e-9


class EquilibriumKind(Enum):
    """Structural position of a fixed point of the full two-firm map."""

    VERTEX_00 = "vertex_00"  # both firms all-brown
    VERTEX_10 = "vertex_10"  # first firm all-green, second all-brown
    VERTEX_01 = "vertex_01"  # first firm all-brown, second all-green
    VERTEX_11 = "vertex_11"  # both firms all-green
    EDGE_BROWN = "edge_brown"  # first firm locked all-brown: (0, eta*)
    EDGE_BROWN_SYM = "edge_brown_sym"  # swap twin: (eta*, 0)
    EDGE_GREEN = "edge_green"  # first firm locked all-green: (1, eta+)
    EDGE_GREEN_SYM = "edge_green_sym"  # swap twin: (eta+, 1)
    DIAGONAL_INNER = "diagonal_inner"
    OFF_DIAGONAL_INNER = "off_diagonal_inner"


@dataclass(frozen=True)
class Equilibrium:
    """A fixed point of the full map with its verified residual.

    ``residual`` is the max-norm one-step defect ``||step(s) - s||`` and is
    at most RESIDUAL_TOL for every equilibrium this package reports.
    """

    location: State
    kind: EquilibriumKind
    residual: float


@dataclass(frozen=True)
class Cycle2:
    """A period-2 orbit {point_a, point_b} on the diagonal, point_a < point_b.

    Both points are given by their common coordinate (the orbit lives on the
    diagonal, where the two firms stay identical). ``residual`` bounds
    ``max(|g(a) - b|, |g(b) - a|)`` for the diagonal one-step map ``g``.
    """

    point_a: float
    point_b: float
    residual: float


def _fixed_point_residual(params: ModelParams, s: State) -> float:
    nxt = step_full(params, s)
    return max(abs(nxt.eta1 - s.eta1), abs(nxt.eta2 - s.eta2))


#: The interior doubles closest to 0 and to 1.
_TINY = math.ulp(0.0)
_BELOW_ONE = math.nextafter(1.0, 0.0)


def _clamped_expm1(z: float) -> float:
    return math.expm1(min(max(z, -EXP_CLAMP), EXP_CLAMP))


def _eta_inner(delta: float, c_g: float, c_b: float, beta: float) -> float | None:
    """Interior rest point of a cost-adjusted replicator coordinate.

    ``delta`` is the (state-independent) brown-minus-green profit gap the
    coordinate faces. The rest point::

        eta = expm1(beta*(delta + c_g))
              / (expm1(beta*(delta + c_g)) + expm1(beta*(-delta + c_b)))

    lies in (0, 1) exactly when ``-c_g < delta < c_b`` (both strictly);
    outside that window the function returns None. expm1 keeps the value
    accurate for small beta.
    """
    if not (delta + c_g > 0.0 and -delta + c_b > 0.0):
        return None
    n_green = _clamped_expm1(beta * (delta + c_g))
    n_brown = _clamped_expm1(beta * (-delta + c_b))
    if n_green + n_brown == 0.0:
        # Both products underflowed to zero; expm1(z) ~ z there, and beta
        # cancels from the quotient.
        n_green, n_brown = delta + c_g, -delta + c_b
    # The exact root can lie closer to 0 or 1 than any double in (0, 1)
    # (e.g. c_b = 1e-45 puts it at 1 - ~1e-45), and the quotient then rounds
    # onto the vertex. Clamp it to the nearest interior doubles so that the
    # root exists exactly on the window above and is never a vertex.
    return min(max(n_green / (n_green + n_brown), _TINY), _BELOW_ONE)


def vertex_equilibria() -> list[Equilibrium]:
    """The four vertices of the unit square; always fixed, residual zero."""
    return [
        Equilibrium(State(0.0, 0.0), EquilibriumKind.VERTEX_00, 0.0),
        Equilibrium(State(1.0, 0.0), EquilibriumKind.VERTEX_10, 0.0),
        Equilibrium(State(1.0, 1.0), EquilibriumKind.VERTEX_11, 0.0),
        Equilibrium(State(0.0, 1.0), EquilibriumKind.VERTEX_01, 0.0),
    ]


def edge_eta_star(params: ModelParams) -> float | None:
    """Mixed coordinate of the brown-edge equilibria (0, eta*) and (eta*, 0).

    Exists iff ``pi_gb + c_b > pi_bb > pi_gb - c_g`` (both strict), i.e. the
    baseline gap ``b`` falls inside the switching-cost window.
    """
    _, b = derived_coefficients(params)
    return _eta_inner(b, params.costs.c_g, params.costs.c_b, params.beta)


def edge_eta_plus(params: ModelParams) -> float | None:
    """Mixed coordinate of the green-edge equilibria (1, eta+) and (eta+, 1).

    Exists iff ``pi_bg + c_g > pi_gg > pi_bg - c_b`` (both strict), i.e. the
    gap against an all-green opponent, ``a + b``, falls inside the window.
    """
    a, b = derived_coefficients(params)
    return _eta_inner(a + b, params.costs.c_g, params.costs.c_b, params.beta)


def edge_equilibria(params: ModelParams) -> list[Equilibrium]:
    """All edge equilibria of the full map (zero to four points).

    Each existing mixed coordinate yields a swap-symmetric pair: eta* pairs
    with an all-brown partner, eta+ with an all-green partner.
    """
    out: list[Equilibrium] = []
    eta_star = edge_eta_star(params)
    if eta_star is not None:
        for loc, kind in (
            (State(0.0, eta_star), EquilibriumKind.EDGE_BROWN),
            (State(eta_star, 0.0), EquilibriumKind.EDGE_BROWN_SYM),
        ):
            out.append(Equilibrium(loc, kind, _fixed_point_residual(params, loc)))
    eta_plus = edge_eta_plus(params)
    if eta_plus is not None:
        for loc, kind in (
            (State(1.0, eta_plus), EquilibriumKind.EDGE_GREEN),
            (State(eta_plus, 1.0), EquilibriumKind.EDGE_GREEN_SYM),
        ):
            out.append(Equilibrium(loc, kind, _fixed_point_residual(params, loc)))
    return out


def inner_equilibrium_1d(p: Params1D) -> float | None:
    """Interior fixed point of the one-population cost-adjusted map.

    Exists iff ``pi_g + c_b > pi_b > pi_g - c_g`` (both strict); returns
    None otherwise. With both costs zero no interior fixed point exists.
    """
    return _eta_inner(p.pi_b - p.pi_g, p.c_g, p.c_b, p.beta)


def eta_in_limits(p: Params1D) -> tuple[float, float]:
    """Limits of the interior 1-D fixed point as beta goes to 0 and infinity.

    Returns ``(limit_beta_zero, limit_beta_inf)``. The zero-intensity limit
    is ``(pi_b - pi_g + c_g) / (c_g + c_b)``. The high-intensity limit is 1
    when ``2*(pi_g - pi_b) + c_b - c_g < 0`` and 0 when it is positive;
    exactly zero is a knife edge and raises KnifeEdgeError. Raises
    DomainError when the interior fixed point does not exist.
    """
    delta = p.pi_b - p.pi_g
    if not (delta + p.c_g > 0.0 and -delta + p.c_b > 0.0):
        raise DomainError(
            "interior fixed point requires pi_g + c_b > pi_b > pi_g - c_g"
        )
    limit_zero = (delta + p.c_g) / (p.c_g + p.c_b)
    margin = 2.0 * (p.pi_g - p.pi_b) + p.c_b - p.c_g
    if margin == 0.0:
        raise KnifeEdgeError(
            "high-intensity limit undefined: 2*(pi_g - pi_b) + c_b - c_g == 0"
        )
    limit_inf = 1.0 if margin < 0.0 else 0.0
    return (limit_zero, limit_inf)


def _diagonal_step(params: ModelParams, eta: float) -> float:
    """Restriction of the full map to the diagonal eta1 == eta2."""
    return step_full(params, State(eta, eta)).eta1


def _bisect(f, lo: float, hi: float, f_lo: float, *, iters: int = 100) -> float:
    """Bisection on a bracketing interval; returns the midpoint at stop."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi or hi - lo < 1e-16:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) == (f_mid < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _merge_sorted(values: list[float], tol: float = MERGE_TOL) -> list[float]:
    merged: list[float] = []
    for v in sorted(values):
        if not merged or v - merged[-1] > tol:
            merged.append(v)
    return merged


def find_diagonal_equilibria(
    params: ModelParams, *, scan_resolution: int = 1024
) -> list[Equilibrium]:
    """Interior fixed points of the full map on the diagonal, sorted ascending.

    Scans the one-step defect of the diagonal restriction on an interior
    grid and refines every sign change by bisection. The vertices (always
    fixed) are excluded. Every returned point is refined to residual
    <= DIAGONAL_REFINE_TOL (tighter than the generic reporting bound).
    """
    if scan_resolution < 64:
        raise DomainError(f"scan_resolution must be >= 64, got {scan_resolution}")

    def defect(eta: float) -> float:
        return _diagonal_step(params, eta) - eta

    n = scan_resolution
    grid = [i / n for i in range(1, n)]
    values = [defect(x) for x in grid]

    roots: list[float] = []
    for k in range(len(grid) - 1):
        f0, f1 = values[k], values[k + 1]
        if f0 == 0.0:
            roots.append(grid[k])
        elif (f0 < 0.0) != (f1 < 0.0):
            roots.append(_bisect(defect, grid[k], grid[k + 1], f0))
    if values and values[-1] == 0.0:
        roots.append(grid[-1])

    # Symmetric-threshold parameters pin the midpoint exactly; guarantee it
    # is reported even if the scan refinement landed slightly off.
    p, c = params.payoffs, params.costs
    if p.pi_gg - c.c_g - p.pi_bg == p.pi_bb - c.c_b - p.pi_gb:
        if abs(defect(0.5)) <= DIAGONAL_REFINE_TOL:
            roots.append(0.5)

    out: list[Equilibrium] = []
    for eta in _merge_sorted(roots):
        loc = State(eta, eta)
        residual = _fixed_point_residual(params, loc)
        if residual <= DIAGONAL_REFINE_TOL:
            out.append(Equilibrium(loc, EquilibriumKind.DIAGONAL_INNER, residual))
        else:
            logger.warning(
                "dropped diagonal candidate at eta=%.12g (residual %.3g)", eta, residual
            )
    return out


def _interior_condition_grids(
    params: ModelParams, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate the two interior-equilibrium conditions on an (n+1)^2 lattice.

    A point (x, y) with both coordinates in (0, 1) is fixed iff
    ``h(x, a*y + b) = 0`` and ``h(y, a*x + b) = 0`` where::

        h(x, u) = x*(E1 - 1) + (1 - x)*E1*(E2 - 1)
        E1 = exp(beta*(u - c_b)),  E2 = exp(beta*(u + c_g))

    Returns (lattice, H1, H2) with H1[i, j] = h(x_i, a*y_j + b) and
    H2[i, j] = h(y_j, a*x_i + b).
    """
    a, b = derived_coefficients(params)
    c_g, c_b, beta = params.costs.c_g, params.costs.c_b, params.beta
    xs = np.linspace(0.0, 1.0, n + 1)
    u = a * xs + b
    e1 = np.exp(np.clip(beta * (u - c_b), -EXP_CLAMP, EXP_CLAMP))
    e2 = np.exp(np.clip(beta * (u + c_g), -EXP_CLAMP, EXP_CLAMP))
    col = xs[:, None]
    # h(x_i, u(y_j)): x varies down rows, the exponential factors across columns
    h1 = col * (e1[None, :] - 1.0) + (1.0 - col) * e1[None, :] * (e2[None, :] - 1.0)
    # h(y_j, u(x_i)): y varies across columns, factors down rows
    row = xs[None, :]
    h2 = row * (e1[:, None] - 1.0) + (1.0 - row) * e1[:, None] * (e2[:, None] - 1.0)
    return xs, h1, h2


def _newton_refine(
    params: ModelParams, x0: float, y0: float
) -> tuple[float, float, float] | None:
    """Damped Newton iteration on the fixed-point defect from (x0, y0).

    Returns (x, y, residual) on success, None on failure. Steps that leave
    the open unit square or fail to shrink the defect are halved.
    """
    from .stability import jacobian  # deferred: stability imports this module

    lo, hi = 1e-12, 1.0 - 1e-12

    def defect(x: float, y: float) -> tuple[float, float]:
        nxt = step_full(params, State(x, y))
        return (nxt.eta1 - x, nxt.eta2 - y)

    x, y = x0, y0
    fx, fy = defect(x, y)
    norm = max(abs(fx), abs(fy))
    for _ in range(100):
        if norm <= 1e-13:
            return (x, y, norm)
        j = jacobian(params, State(x, y))
        m = np.array([[j[0, 0] - 1.0, j[0, 1]], [j[1, 0], j[1, 1] - 1.0]])
        try:
            dx, dy = np.linalg.solve(m, [-fx, -fy])
        except np.linalg.LinAlgError:
            return None
        scale = 1.0
        for _ in range(60):
            xn = min(max(x + scale * dx, lo), hi)
            yn = min(max(y + scale * dy, lo), hi)
            fxn, fyn = defect(xn, yn)
            norm_n = max(abs(fxn), abs(fyn))
            if norm_n < norm:
                x, y, fx, fy, norm = xn, yn, fxn, fyn, norm_n
                break
            scale *= 0.5
        else:
            return None
    return (x, y, norm) if norm <= RESIDUAL_TOL else None


def _segment_bisect_refine(
    params: ModelParams,
    corners: list[tuple[float, float]],
    h1_vals: list[float],
) -> tuple[float, float, float] | None:
    """Fallback for a stubborn cell: bisect the first condition along the
    segment joining two corners where it changes sign, then hand the point
    back to the Newton polisher."""
    for i in range(4):
        for j in range(i + 1, 4):
            if (h1_vals[i] < 0.0) != (h1_vals[j] < 0.0):
                (x0, y0), (x1, y1) = corners[i], corners[j]

                def along(t: float) -> float:
                    return _h_value(params, x0 + t * (x1 - x0), y0 + t * (y1 - y0))

                t = _bisect(along, 0.0, 1.0, h1_vals[i])
                return _newton_refine(
                    params, x0 + t * (x1 - x0), y0 + t * (y1 - y0)
                )
    return None


def _h_value(params: ModelParams, x: float, y: float) -> float:
    """First interior condition h(x, a*y + b) at a single point."""
    a, b = derived_coefficients(params)
    u = a * y + b
    e1 = math.exp(min(max(params.beta * (u - params.costs.c_b), -EXP_CLAMP), EXP_CLAMP))
    e2 = math.exp(min(max(params.beta * (u + params.costs.c_g), -EXP_CLAMP), EXP_CLAMP))
    return x * (e1 - 1.0) + (1.0 - x) * e1 * (e2 - 1.0)


def find_inner_equilibria(
    params: ModelParams, scan_resolution: int = 256
) -> list[Equilibrium]:
    """All interior fixed points of the full map, diagonal or not.

    Both interior-equilibrium conditions are evaluated on a scan lattice;
    every cell where each condition changes sign is refined with damped
    Newton iteration on the two-dimensional fixed-point defect (with a
    segment-bisection fallback). Duplicates within MERGE_TOL are merged and
    candidates that fail to reach RESIDUAL_TOL are dropped with a warning.
    Results are sorted by location; the map's swap symmetry means interior
    points appear in mirror pairs unless they sit on the diagonal.
    """
    if scan_resolution < 64:
        raise DomainError(f"scan_resolution must be >= 64, got {scan_resolution}")
    n = scan_resolution
    xs, h1, h2 = _interior_condition_grids(params, n)

    neg1 = h1 < 0.0
    neg2 = h2 < 0.0
    # A cell is a candidate when neither condition keeps one sign on all
    # four of its corners.
    c1 = neg1[:-1, :-1] | neg1[1:, :-1] | neg1[:-1, 1:] | neg1[1:, 1:]
    a1 = neg1[:-1, :-1] & neg1[1:, :-1] & neg1[:-1, 1:] & neg1[1:, 1:]
    c2 = neg2[:-1, :-1] | neg2[1:, :-1] | neg2[:-1, 1:] | neg2[1:, 1:]
    a2 = neg2[:-1, :-1] & neg2[1:, :-1] & neg2[:-1, 1:] & neg2[1:, 1:]
    candidates = np.argwhere((c1 & ~a1) & (c2 & ~a2))

    found: list[tuple[float, float, float]] = []
    dropped = 0
    for i, j in candidates:
        cx = 0.5 * (xs[i] + xs[i + 1])
        cy = 0.5 * (xs[j] + xs[j + 1])
        refined = _newton_refine(params, cx, cy)
        if refined is None:
            corners = [
                (xs[i], xs[j]),
                (xs[i + 1], xs[j]),
                (xs[i], xs[j + 1]),
                (xs[i + 1], xs[j + 1]),
            ]
            h1_vals = [float(h1[i, j]), float(h1[i + 1, j]), float(h1[i, j + 1]), float(h1[i + 1, j + 1])]
            refined = _segment_bisect_refine(params, corners, h1_vals)
        if refined is None:
            dropped += 1
            continue
        found.append(refined)
    if dropped:
        logger.warning("dropped %d interior candidate cells that failed to refine", dropped)

    # Merge duplicates (several cells can refine to the same root) and
    # discard points that collapsed onto the boundary.
    edge_tol = 1e-9
    unique: list[tuple[float, float, float]] = []
    for x, y, res in sorted(found):
        if min(x, y) <= edge_tol or max(x, y) >= 1.0 - edge_tol:
            continue
        if any(max(abs(x - ux), abs(y - uy)) <= MERGE_TOL for ux, uy, _ in unique):
            continue
        unique.append((x, y, res))

    out = []
    for x, y, res in unique:
        kind = (
            EquilibriumKind.DIAGONAL_INNER
            if abs(x - y) <= DIAGONAL_TOL
            else EquilibriumKind.OFF_DIAGONAL_INNER
        )
        out.append(Equilibrium(State(x, y), kind, res))
    return out


def find_period2_diagonal(
    params: ModelParams, *, scan_resolution: int = 1024
) -> list[Cycle2]:
    """Period-2 orbits of the diagonal restriction, sorted by lower point.

    Scans the second-iterate defect ``g(g(eta)) - eta`` on an interior grid,
    refines sign changes by bisection, and discards fixed points of ``g``
    itself. Each orbit is reported once with point_a < point_b.
    """
    if scan_resolution < 64:
        raise DomainError(f"scan_resolution must be >= 64, got {scan_resolution}")

    def defect2(eta: float) -> float:
        return _diagonal_step(params, _diagonal_step(params, eta)) - eta

    n = scan_resolution
    grid = [i / n for i in range(1, n)]
    values = [defect2(x) for x in grid]
    roots: list[float] = []
    for k in range(len(grid) - 1):
        f0, f1 = values[k], values[k + 1]
        if f0 == 0.0:
            roots.append(grid[k])
        elif (f0 < 0.0) != (f1 < 0.0):
            roots.append(_bisect(defect2, grid[k], grid[k + 1], f0))
    if values and values[-1] == 0.0:
        roots.append(grid[-1])

    cycles: list[tuple[float, float, float]] = []
    for eta in roots:
        partner = _diagonal_step(params, eta)
        if abs(partner - eta) <= MERGE_TOL:
            continue  # fixed point of g, not a genuine 2-cycle
        lo, hi = min(eta, partner), max(eta, partner)
        residual = max(
            abs(_diagonal_step(params, lo) - hi), abs(_diagonal_step(params, hi) - lo)
        )
        if residual > RESIDUAL_TOL:
            logger.warning(
                "dropped 2-cycle candidate at eta=%.12g (residual %.3g)", eta, residual
            )
            continue
        if any(abs(lo - a) <= MERGE_TOL and abs(hi - b) <= MERGE_TOL for a, b, _ in cycles):
            continue
        cycles.append((lo, hi, residual))

    cycles.sort()
    return [Cycle2(a, b, r) for a, b, r in cycles]
