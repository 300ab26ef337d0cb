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

from .errors import DomainError, KnifeEdgeError
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

#: A root this close to the boundary is an edge point, not an interior one.
EDGE_TOL = 1e-9


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


def _scan_roots(f, n: int, *, closed: bool) -> list[float]:
    """Roots of ``f`` from a sign scan on the grid ``i/n``, refined by bisection.

    The grid is ``0, 1/n, ..., 1`` when ``closed`` and the interior points
    ``1/n, ..., (n-1)/n`` otherwise. A grid point where ``f`` is exactly
    zero is returned as it is; every sign change between neighbours is
    bisected. The result is in grid order and may hold a root twice.
    Raises DomainError when ``n < 64``.
    """
    if n < 64:
        raise DomainError(f"scan_resolution must be >= 64, got {n}")
    first = 0 if closed else 1
    grid = [i / n for i in range(first, n + 1 - first)]
    values = [f(x) for x in grid]
    roots: list[float] = []
    for k in range(len(grid) - 1):
        f0, f1 = values[k], values[k + 1]
        if f0 == 0.0:
            roots.append(grid[k])
        elif (f0 < 0.0) != (f1 < 0.0):
            roots.append(_bisect(f, grid[k], grid[k + 1], f0))
    if values and values[-1] == 0.0:
        roots.append(grid[-1])
    return roots


def _rest_point_map(params: ModelParams):
    """``B(y) = _eta_inner(a*y + b)``, extended continuously to all of [0, 1]
    by 0 where ``a*y + b <= -c_g`` and 1 where ``a*y + b >= c_b``."""
    a, b = derived_coefficients(params)
    c_g, c_b, beta = params.costs.c_g, params.costs.c_b, params.beta

    def rest_point(y: float) -> float:
        u = a * y + b
        eta = _eta_inner(u, c_g, c_b, beta)
        if eta is None:
            return 0.0 if u + c_g <= 0.0 else 1.0
        return eta

    return rest_point


def _is_interior(eta: float) -> bool:
    return EDGE_TOL < eta < 1.0 - EDGE_TOL


def find_diagonal_equilibria(
    params: ModelParams, *, scan_resolution: int = 1024
) -> list[Equilibrium]:
    """Interior fixed points of the full map on the diagonal, sorted ascending.

    Each coordinate's update ``eta' - eta`` vanishes in (0, 1) exactly where
    ``h(eta, u) = eta*(E1 - 1) + (1 - eta)*E1*(E2 - 1)`` does, with
    ``E1 = exp(beta*(u - c_b))`` and ``E2 = exp(beta*(u + c_g))``. ``h`` is
    linear in ``eta``; its root is the logit rest point ``_eta_inner(u)``
    (Brock & Hommes 1997). Against an opponent at ``y`` the gap is
    ``u = a*y + b``, so a point ``(x, y)`` is an interior fixed point exactly
    when ``x = B(y)`` and ``y = B(x)`` for the rest-point map
    ``B(y) = _eta_inner(a*y + b)``. On the diagonal that is ``B(y) = y``.

    ``B(y) - y`` is scanned on the ``scan_resolution + 1`` points
    ``i / scan_resolution`` including 0 and 1 (``B`` is finite there), and
    every sign change is bisected. Roots within EDGE_TOL of the boundary
    are not reported. Every returned point has residual
    <= DIAGONAL_REFINE_TOL (tighter than the generic reporting bound);
    candidates above it are dropped with a warning.
    """
    rest_point = _rest_point_map(params)
    roots = _scan_roots(lambda y: rest_point(y) - y, scan_resolution, closed=True)

    out: list[Equilibrium] = []
    for eta in _merge_sorted([r for r in roots if _is_interior(r)]):
        loc = State(eta, eta)
        residual = _fixed_point_residual(params, loc)
        if residual <= DIAGONAL_REFINE_TOL:
            out.append(Equilibrium(loc, EquilibriumKind.DIAGONAL_INNER, residual))
        else:
            logger.warning(
                "dropped diagonal candidate at eta=%.12g (residual %.3g)", eta, residual
            )
    return out


def find_inner_equilibria(
    params: ModelParams, scan_resolution: int = 256
) -> list[Equilibrium]:
    """All interior fixed points of the full map, diagonal or not.

    With the rest-point map ``B`` of :func:`find_diagonal_equilibria`, a
    point ``(x, y)`` is an interior fixed point exactly when ``y`` is a
    root of ``B(B(y)) - y`` and ``x = B(y)``: diagonal points are fixed
    points of ``B``, off-diagonal ones its 2-cycles. ``B(B(y)) - y`` is
    scanned on the ``scan_resolution + 1`` points ``i / scan_resolution``
    including 0 and 1, and every sign change is bisected; each root ``y``
    gives the point ``(B(y), y)``. Points with a coordinate within EDGE_TOL
    of the boundary (edge equilibria) are not reported, and candidates
    above RESIDUAL_TOL are dropped with a warning. A point is labelled
    DIAGONAL_INNER when ``|x - y| <= DIAGONAL_TOL``. Results are sorted by
    location; the map's swap symmetry means interior points appear in
    mirror pairs unless they sit on the diagonal.
    """
    rest_point = _rest_point_map(params)
    roots = _scan_roots(
        lambda y: rest_point(rest_point(y)) - y, scan_resolution, closed=True
    )

    out: list[Equilibrium] = []
    dropped = 0
    for y in _merge_sorted(roots):
        x = rest_point(y)
        if not (_is_interior(x) and _is_interior(y)):
            continue
        loc = State(x, y)
        residual = _fixed_point_residual(params, loc)
        if residual > RESIDUAL_TOL:
            dropped += 1
            continue
        diagonal = abs(x - y) <= DIAGONAL_TOL
        kind = EquilibriumKind.DIAGONAL_INNER if diagonal else EquilibriumKind.OFF_DIAGONAL_INNER
        out.append(Equilibrium(loc, kind, residual))
    if dropped:
        logger.warning("dropped %d interior candidates above the residual bound", dropped)
    out.sort(key=lambda eq: eq.location.as_tuple())
    return out


def find_period2_diagonal(
    params: ModelParams, *, scan_resolution: int = 1024
) -> list[Cycle2]:
    """Period-2 orbits of the diagonal restriction, sorted by lower point.

    Scans the second-iterate defect ``g(g(eta)) - eta`` on the interior
    grid ``i / scan_resolution``, ``0 < i < scan_resolution`` (``g - id``
    vanishes at the vertices), refines sign changes by bisection, and
    discards fixed points of ``g`` itself. These are orbits of the dynamics,
    not 2-cycles of the rest-point map ``B``. Each orbit is reported once
    with point_a < point_b.
    """

    def defect2(eta: float) -> float:
        return _diagonal_step(params, _diagonal_step(params, eta)) - eta

    roots = _scan_roots(defect2, scan_resolution, closed=False)

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
