"""Policy levers: brown-technology taxes, thresholds, and feasible scenarios.

Connects the payoff structure to interventions: tax thresholds that
reshape the one-population dynamics, the tax on brown profits that turns
the two-firm game into the all-green scenario, the anticipated-profit
penalty required to make a brown incumbent switch, and the scenario sets
compatible with qualitative payoff structure assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .errors import InvalidTaxError, ValidationError
from .model_core import ModelParams, Params1D, PayoffMatrix, derived_coefficients
from .stability import ScenarioId, classify_scenario


@dataclass(frozen=True)
class TaxThresholds:
    """Brown-profit tax levels that qualitatively reshape the 1-D dynamics.

    With a tax ``tau`` on brown profits, the effective gap becomes
    ``pi_b - tau - pi_g``. The thresholds (each clamped at zero):

    - ``tau1``: at or above it the all-green state is the only attractor
      (even a brown incumbent prefers switching despite paying ``c_g``).
    - ``tau2``: above it the all-brown state stops being attracting (a
      green incumbent no longer gains from switching after paying ``c_b``).
    - ``tau3``: the level putting the interior equilibrium exactly at 1/2,
      so higher taxes make green the majority choice.

    Always ``tau2 <= tau3 <= tau1``.
    """

    tau1: float
    tau2: float
    tau3: float


def tax_thresholds_1d(p: Params1D) -> TaxThresholds:
    """The three brown-tax thresholds for the one-population model."""
    gap = p.pi_b - p.pi_g
    return TaxThresholds(
        tau1=max(gap + p.c_g, 0.0),
        tau2=max(gap - p.c_b, 0.0),
        tau3=max(gap - (p.c_b - p.c_g) / 2.0, 0.0),
    )


def required_transition_risk(pi_hat_b: float, pi_gb: float, c_g: float) -> float:
    """Anticipated brown-profit reduction needed to flip a brown incumbent.

    A brown incumbent facing a brown opponent switches when its anticipated
    brown profit ``pi_hat_b`` falls below ``pi_gb - c_g``; the returned
    value is the shortfall ``max(pi_hat_b - pi_gb + c_g, 0)`` that a
    credible transition risk must impose.
    """
    if not pi_hat_b > 0.0:
        raise ValidationError(f"pi_hat_b must be > 0, got {pi_hat_b!r}")
    if not pi_gb > 0.0:
        raise ValidationError(f"pi_gb must be > 0, got {pi_gb!r}")
    if c_g < 0.0:
        raise ValidationError(f"c_g must be >= 0, got {c_g!r}")
    return max(pi_hat_b - pi_gb + c_g, 0.0)


@dataclass(frozen=True)
class StructureFlags:
    """Qualitative payoff structure of the two-firm game.

    - ``green_progress``: a green firm earns more against a green opponent
      than against a brown one (``pi_gg > pi_gb``).
    - ``dynamic_risk``: a brown firm earns more against a green opponent
      than against a brown one (``pi_bg > pi_bb``).

    A False flag, in the structural sense used by ``feasible_scenarios``,
    means the two payoffs are *equal*, not merely unordered: the
    feasibility guarantee covers payoff matrices where each False flag's
    pair coincides and each True flag's inequality is strict.
    ``from_payoffs`` maps any matrix onto flags via strict comparison, but
    a matrix with a strict *reverse* inequality satisfies neither reading
    of that flag and is outside the guarantee.
    """

    green_progress: bool
    dynamic_risk: bool

    @classmethod
    def from_payoffs(cls, payoffs: PayoffMatrix) -> "StructureFlags":
        return cls(
            green_progress=payoffs.pi_gg > payoffs.pi_gb,
            dynamic_risk=payoffs.pi_bg > payoffs.pi_bb,
        )


_ALL_SCENARIOS = frozenset(
    {
        ScenarioId.S1,
        ScenarioId.S2,
        ScenarioId.S3,
        ScenarioId.S4,
        ScenarioId.S5,
        ScenarioId.S6,
        ScenarioId.S7,
        ScenarioId.S8,
        ScenarioId.S9,
    }
)

#: Scenarios requiring green_progress (pi_gg > pi_gb) to be possible.
_NEEDS_GREEN_PROGRESS = frozenset({ScenarioId.S2, ScenarioId.S3, ScenarioId.S6})

#: Scenarios requiring dynamic_risk (pi_bg > pi_bb) to be possible.
_NEEDS_DYNAMIC_RISK = frozenset({ScenarioId.S4, ScenarioId.S7, ScenarioId.S8})


def feasible_scenarios(flags: StructureFlags) -> frozenset[ScenarioId]:
    """Scenarios compatible with the given qualitative payoff structure.

    Without green progress (``pi_gg == pi_gb``), scenarios S2, S3, and S6
    cannot occur; without dynamic risk (``pi_bg == pi_bb``), S4, S7, and
    S8 cannot. S1, S5, and S9 are feasible under every flag combination.
    False flags are read as payoff equalities (see StructureFlags): with
    both pairs equal the interaction coefficient ``a`` vanishes and the
    discriminants collapse pairwise, which is what confines the scenario
    to {S1, S5, S9}.
    """
    out = _ALL_SCENARIOS
    if not flags.green_progress:
        out -= _NEEDS_GREEN_PROGRESS
    if not flags.dynamic_risk:
        out -= _NEEDS_DYNAMIC_RISK
    return out


def ordering_scenarios(params: ModelParams) -> frozenset[ScenarioId]:
    """Scenarios reachable under the parameters' payoff ordering and costs.

    Two strict profit orderings admit sharp cost-based statements; the
    classification of ``params`` always belongs to the returned set unless
    it is Degenerate.

    - Green-dominant ordering ``pi_gg > pi_gb > pi_bg > pi_bb``: the
      scenario is decided by ``c_g`` alone. With ``c_g == 0`` only S9 is
      possible; with ``c_g`` above ``max(pi_gb - pi_bb, pi_gg - pi_bg)``
      only S1. In between, S1 and S9 can occur, joined by S6 when the
      interaction coefficient ``a`` is negative or S7 when it is positive
      (at ``a == 0`` the two intermediate discriminants coincide).
    - Brown-dominant ordering ``pi_bg > pi_bb > pi_gg > pi_gb``: decided by
      ``c_b``. With ``c_b == 0`` only S5; above
      ``max(pi_bg - pi_gg, pi_bb - pi_gb)`` only S1; in between any of
      S1, S2, S4, S5.

    For any other ordering, falls back to the qualitative feasible set.
    """
    p = params.payoffs
    c_g, c_b = params.costs.c_g, params.costs.c_b
    a, _ = derived_coefficients(params)

    if p.pi_gg > p.pi_gb > p.pi_bg > p.pi_bb:
        bound = max(p.pi_gb - p.pi_bb, p.pi_gg - p.pi_bg)
        if c_g == 0.0:
            return frozenset({ScenarioId.S9})
        if c_g > bound:
            return frozenset({ScenarioId.S1})
        out = {ScenarioId.S1, ScenarioId.S9}
        if a < 0.0:
            out.add(ScenarioId.S6)
        elif a > 0.0:
            out.add(ScenarioId.S7)
        return frozenset(out)

    if p.pi_bg > p.pi_bb > p.pi_gg > p.pi_gb:
        bound = max(p.pi_bg - p.pi_gg, p.pi_bb - p.pi_gb)
        if c_b == 0.0:
            return frozenset({ScenarioId.S5})
        if c_b > bound:
            return frozenset({ScenarioId.S1})
        return frozenset({ScenarioId.S1, ScenarioId.S2, ScenarioId.S4, ScenarioId.S5})

    return feasible_scenarios(StructureFlags.from_payoffs(p))


class TaxMode(Enum):
    """Which brown payoffs a tax reduces."""

    BOTH_STATES = "both_states"  # tax brown profit against any opponent
    BB_ONLY = "bb_only"  # tax brown profit only against a brown opponent


def apply_brown_tax(params: ModelParams, tau: float, mode: TaxMode) -> ModelParams:
    """Parameters with a per-period tax ``tau`` subtracted from brown payoffs.

    BOTH_STATES reduces both ``pi_bg`` and ``pi_bb``; BB_ONLY reduces only
    ``pi_bb``. Post-tax payoffs are net profits and may be non-positive;
    the dynamics and classification remain well defined. Negative ``tau``
    raises InvalidTaxError.
    """
    if tau < 0.0:
        raise InvalidTaxError(f"tax must be >= 0, got {tau!r}")
    p = params.payoffs
    if mode == TaxMode.BOTH_STATES:
        taxed = PayoffMatrix(p.pi_gg, p.pi_gb, p.pi_bg - tau, p.pi_bb - tau, validate=False)
    elif mode == TaxMode.BB_ONLY:
        taxed = PayoffMatrix(p.pi_gg, p.pi_gb, p.pi_bg, p.pi_bb - tau, validate=False)
    else:
        raise ValidationError(f"mode must be a TaxMode, got {mode!r}")
    return replace(params, payoffs=taxed)


def minimal_s9_tax(params: ModelParams, tol: float = 1e-6) -> float:
    """Smallest both-states tax (within ``tol``) that yields scenario S9.

    Every discriminant moves monotonically in the tax, so membership in S9
    is upward closed: the function doubles an upper bound until the taxed
    parameters classify as S9, then bisects. The returned tax classifies
    as S9 and exceeds the infimum by at most ``tol``.
    """
    if tol <= 0.0:
        raise ValidationError(f"tol must be > 0, got {tol!r}")

    def is_s9(tau: float) -> bool:
        return classify_scenario(apply_brown_tax(params, tau, TaxMode.BOTH_STATES)) is ScenarioId.S9

    if is_s9(0.0):
        return 0.0
    hi = 1.0
    for _ in range(80):
        if is_s9(hi):
            break
        hi *= 2.0
    else:
        raise ValidationError("no finite both-states tax reaches scenario S9")
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if is_s9(mid):
            hi = mid
        else:
            lo = mid
    return hi
