"""Parameter types and map steps for replicator dynamics with switching costs.

Two firms repeatedly choose between a green and a brown technology. A
firm's state is the probability ``eta`` with which it runs green, and
states update by a discrete-time exponential replicator rule in which a
firm pays a one-time adjustment cost whenever it abandons its current
technology: ``c_g`` to move from brown to green and ``c_b`` to move from
green to brown.

This module provides the validated parameter containers, the derived
interaction coefficients, expected-profit formulas, and the three map
steps: the full two-firm map, its one-population cost-adjusted reduction,
and the classic (cost-free) exponential replicator map used as a baseline.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

from .errors import DomainError, ValidationError

#: Exponents fed to exp() are clamped to this symmetric range so that
#: extreme beta values saturate instead of overflowing.
EXP_CLAMP = 700.0

#: States within this distance outside [0, 1] are snapped to the boundary;
#: anything further out is rejected.
SNAP_SLACK = 1e-12


def _bounded_exp(z: float) -> float:
    """exp(z) with the argument clamped to [-EXP_CLAMP, EXP_CLAMP]."""
    return math.exp(min(max(z, -EXP_CLAMP), EXP_CLAMP))


def _snap_unit(value: float, name: str) -> float:
    """Return value snapped into [0, 1], allowing SNAP_SLACK of round-off.

    Raises DomainError if the value lies more than SNAP_SLACK outside the
    unit interval (or is not a number).
    """
    v = float(value)
    if 0.0 <= v <= 1.0:
        return v
    if -SNAP_SLACK <= v < 0.0:
        return 0.0
    if 1.0 < v <= 1.0 + SNAP_SLACK:
        return 1.0
    raise DomainError(f"{name} must lie in [0, 1], got {value!r}")


def _require_positive(value: float, name: str) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    if value <= 0.0:
        raise ValidationError(f"{name} must be > 0, got {value!r}")


def _require_nonnegative(value: float, name: str) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    if value < 0.0:
        raise ValidationError(f"{name} must be >= 0, got {value!r}")


@dataclass(frozen=True)
class PayoffMatrix:
    """Per-period profits of the four technology pairings.

    ``pi_xy`` is the profit of a firm running technology ``x`` while its
    opponent runs ``y`` (``g`` = green, ``b`` = brown). Profits must be
    strictly positive; pass ``validate=False`` to permit non-positive
    entries, e.g. for net profits after a tax.
    """

    pi_gg: float
    pi_gb: float
    pi_bg: float
    pi_bb: float
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool) -> None:
        if validate:
            for name in ("pi_gg", "pi_gb", "pi_bg", "pi_bb"):
                _require_positive(getattr(self, name), name)


@dataclass(frozen=True)
class AdjustmentCosts:
    """One-time switching costs: ``c_g`` brown-to-green, ``c_b`` green-to-brown."""

    c_g: float
    c_b: float

    def __post_init__(self) -> None:
        _require_nonnegative(self.c_g, "c_g")
        _require_nonnegative(self.c_b, "c_b")


@dataclass(frozen=True)
class ModelParams:
    """Full two-firm model: payoffs, switching costs, and choice intensity.

    ``beta`` must be positive, and at least one switching cost must be
    nonzero (with both costs zero the map degenerates to the classic
    replicator, handled by :func:`step_classic_1d`).
    """

    payoffs: PayoffMatrix
    costs: AdjustmentCosts
    beta: float

    def __post_init__(self) -> None:
        _require_positive(self.beta, "beta")
        if self.costs.c_g == 0.0 and self.costs.c_b == 0.0:
            raise ValidationError(
                "at least one of c_g, c_b must be nonzero (use the classic map "
                "for the cost-free model)"
            )

    @classmethod
    def from_values(
        cls,
        pi_gg: float,
        pi_gb: float,
        pi_bg: float,
        pi_bb: float,
        c_g: float,
        c_b: float,
        beta: float,
    ) -> "ModelParams":
        return cls(
            payoffs=PayoffMatrix(pi_gg, pi_gb, pi_bg, pi_bb),
            costs=AdjustmentCosts(c_g, c_b),
            beta=beta,
        )


@dataclass(frozen=True)
class Params1D:
    """One-population model with state-independent profits.

    ``pi_g`` and ``pi_b`` are the per-period profits of green and brown;
    both switching costs may be zero here so the classic map is covered.
    """

    pi_g: float
    pi_b: float
    costs: AdjustmentCosts
    beta: float

    def __post_init__(self) -> None:
        _require_positive(self.pi_g, "pi_g")
        _require_positive(self.pi_b, "pi_b")
        _require_positive(self.beta, "beta")

    @property
    def c_g(self) -> float:
        return self.costs.c_g

    @property
    def c_b(self) -> float:
        return self.costs.c_b

    @classmethod
    def from_values(
        cls, pi_g: float, pi_b: float, c_g: float, c_b: float, beta: float
    ) -> "Params1D":
        """Build from bare floats, wrapping the two costs."""
        return cls(pi_g, pi_b, AdjustmentCosts(c_g, c_b), beta)


@dataclass(frozen=True)
class State:
    """Pair of green-choice probabilities, one per firm.

    Values within SNAP_SLACK outside [0, 1] are snapped to the boundary;
    anything further out raises DomainError.
    """

    eta1: float
    eta2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "eta1", _snap_unit(self.eta1, "eta1"))
        object.__setattr__(self, "eta2", _snap_unit(self.eta2, "eta2"))

    def as_tuple(self) -> tuple[float, float]:
        return (self.eta1, self.eta2)

    def swapped(self) -> "State":
        return State(self.eta2, self.eta1)


def derived_coefficients(params: ModelParams) -> tuple[float, float]:
    """Return ``(a, b)`` with the brown-minus-green profit gap ``a*eta + b``.

    Against an opponent playing green with probability ``eta``, the expected
    per-period profit advantage of brown over green (before any switching
    cost) is ``a*eta + b`` where::

        a = pi_bg - pi_gg - pi_bb + pi_gb
        b = pi_bb - pi_gb
    """
    p = params.payoffs
    a = p.pi_bg - p.pi_gg - p.pi_bb + p.pi_gb
    b = p.pi_bb - p.pi_gb
    return (a, b)


def expected_profits(
    params: ModelParams, own_is_green: bool, eta_opponent: float
) -> tuple[float, float]:
    """Expected (green, brown) profits net of the applicable switching cost.

    The opponent plays green with probability ``eta_opponent``. A firm
    currently green pays ``c_b`` if it chooses brown; a firm currently
    brown pays ``c_g`` if it chooses green. The technology already held is
    free to keep.
    """
    eta = _snap_unit(eta_opponent, "eta_opponent")
    p = params.payoffs
    green = p.pi_gg * eta + p.pi_gb * (1.0 - eta)
    brown = p.pi_bg * eta + p.pi_bb * (1.0 - eta)
    if own_is_green:
        return (green, brown - params.costs.c_b)
    return (green - params.costs.c_g, brown)


def _switch_mix(eta: float, gap: float, c_g: float, c_b: float, beta: float) -> float:
    """One coordinate of the cost-adjusted exponential replicator update.

    ``gap`` is the expected brown-minus-green profit difference before
    adjustment costs. Green incumbents (weight ``eta``) compare green
    against brown net of ``c_b``; brown incumbents (weight ``1 - eta``)
    compare green net of ``c_g`` against brown. Each group chooses green
    with exponential-choice probability ``eta / (eta + (1-eta) * exp(z))``
    where ``z`` is its own cost-adjusted gap times ``beta``::

        eta' = eta^2 / (eta + (1-eta)*exp(beta*(gap - c_b)))
             + eta*(1-eta) / (eta + (1-eta)*exp(beta*(gap + c_g)))

    The boundary states 0 and 1 are returned exactly.
    """
    if eta <= 0.0:
        return 0.0
    if eta >= 1.0:
        return 1.0
    e_green_owner = _bounded_exp(beta * (gap - c_b))
    e_brown_owner = _bounded_exp(beta * (gap + c_g))
    stay = eta * eta / (eta + (1.0 - eta) * e_green_owner)
    adopt = eta * (1.0 - eta) / (eta + (1.0 - eta) * e_brown_owner)
    return stay + adopt


def step_full(params: ModelParams, s: State) -> State:
    """Advance the two-firm state by one period.

    Each firm's gap is evaluated against the opponent's current mix, so the
    map is symmetric under swapping the two firms and leaves the diagonal
    invariant. All four vertices of the unit square are fixed points.
    """
    a, b = derived_coefficients(params)
    c_g, c_b, beta = params.costs.c_g, params.costs.c_b, params.beta
    gap1 = a * s.eta2 + b
    gap2 = a * s.eta1 + b
    return State(
        _switch_mix(s.eta1, gap1, c_g, c_b, beta),
        _switch_mix(s.eta2, gap2, c_g, c_b, beta),
    )


def step_adjusted_1d(p: Params1D, eta: float) -> float:
    """One step of the one-population cost-adjusted replicator map."""
    eta = _snap_unit(eta, "eta")
    return _switch_mix(eta, p.pi_b - p.pi_g, p.c_g, p.c_b, p.beta)


def step_classic_1d(p: Params1D, eta: float) -> float:
    """One step of the classic (cost-free) exponential replicator map.

    ``eta' = eta / (eta + (1-eta) * exp(beta*(pi_b - pi_g)))``; switching
    costs are ignored entirely.
    """
    eta = _snap_unit(eta, "eta")
    if eta <= 0.0:
        return 0.0
    if eta >= 1.0:
        return 1.0
    return eta / (eta + (1.0 - eta) * _bounded_exp(p.beta * (p.pi_b - p.pi_g)))
