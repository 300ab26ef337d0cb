"""Unit and property tests for the core parameter types and map steps."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from replicator_lab import (
    AdjustmentCosts,
    DomainError,
    ModelParams,
    Params1D,
    PayoffMatrix,
    State,
    ValidationError,
    derived_coefficients,
    expected_profits,
    step_adjusted_1d,
    step_classic_1d,
    step_full,
)

from conftest import (
    SCENARIO_SETS,
    model_params_st,
    params_1d_st,
    random_interior_state,
    random_model_params,
    state_st,
    unit_closed_st,
)


# ---------------------------------------------------------------------------
# Type validation
# ---------------------------------------------------------------------------

def test_payoff_matrix_rejects_non_positive_entries():
    with pytest.raises(ValidationError):
        PayoffMatrix(0.0, 2.3, 2.5, 2.2)
    with pytest.raises(ValidationError):
        PayoffMatrix(2.75, 2.3, -0.1, 2.2)


def test_payoff_matrix_validation_can_be_disabled():
    m = PayoffMatrix(2.75, 2.3, 2.5, -1.0, validate=False)
    assert m.pi_bb == -1.0


def test_adjustment_costs_reject_negative():
    with pytest.raises(ValidationError):
        AdjustmentCosts(-0.1, 0.4)
    with pytest.raises(ValidationError):
        AdjustmentCosts(0.1, -0.4)


def test_model_params_reject_non_positive_beta():
    with pytest.raises(ValidationError, match="beta"):
        ModelParams.from_values(2.75, 2.3, 2.5, 2.2, 0.3, 0.4, 0.0)
    with pytest.raises(ValidationError, match="beta"):
        ModelParams.from_values(2.75, 2.3, 2.5, 2.2, 0.3, 0.4, -1.0)


def test_model_params_reject_both_costs_zero():
    with pytest.raises(ValidationError, match="cost"):
        ModelParams.from_values(2.75, 2.3, 2.5, 2.2, 0.0, 0.0, 1.0)


def test_params_1d_allows_both_costs_zero():
    p = Params1D.from_values(1.0, 1.2, 0.0, 0.0, 2.0)
    assert p.c_g == 0.0 and p.c_b == 0.0


def test_params_1d_requires_positive_profits():
    with pytest.raises(ValidationError):
        Params1D.from_values(0.0, 1.2, 0.1, 0.1, 2.0)
    with pytest.raises(ValidationError):
        Params1D.from_values(1.0, -0.5, 0.1, 0.1, 2.0)


def test_state_snaps_tiny_overshoot_and_rejects_large():
    s = State(1.0 + 1e-13, -1e-13)
    assert s.eta1 == 1.0 and s.eta2 == 0.0
    with pytest.raises(DomainError):
        State(1.0 + 1e-9, 0.5)
    with pytest.raises(DomainError):
        State(0.5, -1e-9)


def test_state_helpers():
    s = State(0.25, 0.75)
    assert s.as_tuple() == (0.25, 0.75)
    assert s.swapped() == State(0.75, 0.25)


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------

def test_derived_coefficients_reference_values():
    a, b = derived_coefficients(SCENARIO_SETS["S1"])
    assert a == pytest.approx(-0.15, abs=1e-15)
    assert b == pytest.approx(-0.1, abs=1e-15)


def test_expected_profits_reference_values():
    # Opponent half green: green profit 0.5*2.75 + 0.5*2.3, brown profit
    # 0.5*2.5 + 0.5*2.2, with the switch away from the held technology
    # charged its one-time cost.
    green, brown = expected_profits(SCENARIO_SETS["S1"], True, 0.5)
    assert green == pytest.approx(2.525, abs=1e-12)
    assert brown == pytest.approx(2.35 - 0.4, abs=1e-12)
    green2, brown2 = expected_profits(SCENARIO_SETS["S1"], False, 0.5)
    assert green2 == pytest.approx(2.525 - 0.3, abs=1e-12)
    assert brown2 == pytest.approx(2.35, abs=1e-12)


@given(params=model_params_st(), eta=unit_closed_st)
def test_expected_profits_match_gap_decomposition(params, eta):
    a, b = derived_coefficients(params)
    green, brown = expected_profits(params, True, eta)
    # Raw (cost-free) brown-minus-green advantage is a*eta + b.
    assert (brown + params.costs.c_b) - green == pytest.approx(
        a * eta + b, abs=1e-12
    )


# ---------------------------------------------------------------------------
# Two-population map
# ---------------------------------------------------------------------------

def test_step_full_reference_value():
    nxt = step_full(SCENARIO_SETS["S1"], State(0.5, 0.5))
    assert nxt.eta1 == pytest.approx(0.5543533616819889, abs=1e-15)
    assert nxt.eta2 == pytest.approx(0.5543533616819889, abs=1e-15)


def test_step_full_fixes_vertices_exactly():
    for x in (0.0, 1.0):
        for y in (0.0, 1.0):
            nxt = step_full(SCENARIO_SETS["S2"], State(x, y))
            assert nxt.as_tuple() == (x, y)


def test_step_full_box_invariance_bulk():
    rng = np.random.default_rng(20240811)
    for _ in range(10_000):
        params = random_model_params(rng)
        s = State(*rng.uniform(0.0, 1.0, size=2))
        nxt = step_full(params, s)
        assert 0.0 <= nxt.eta1 <= 1.0
        assert 0.0 <= nxt.eta2 <= 1.0


@given(params=model_params_st(), s=state_st())
def test_step_full_box_invariance(params, s):
    nxt = step_full(params, s)
    assert 0.0 <= nxt.eta1 <= 1.0
    assert 0.0 <= nxt.eta2 <= 1.0


@given(params=model_params_st(), eta=unit_closed_st)
def test_step_full_diagonal_invariance(params, eta):
    nxt = step_full(params, State(eta, eta))
    assert nxt.eta1 == nxt.eta2


@given(params=model_params_st(), s=state_st())
def test_step_full_swap_equivariance(params, s):
    assert step_full(params, s.swapped()) == step_full(params, s).swapped()


def test_step_full_extreme_beta_stays_finite():
    params = ModelParams.from_values(2.75, 2.3, 2.5, 2.2, 0.3, 0.4, 1e6)
    nxt = step_full(params, State(0.3, 0.7))
    assert math.isfinite(nxt.eta1) and math.isfinite(nxt.eta2)
    assert 0.0 <= nxt.eta1 <= 1.0 and 0.0 <= nxt.eta2 <= 1.0


def test_step_full_decouples_to_1d_map_when_interaction_vanishes():
    # With pi_gg == pi_gb and pi_bg == pi_bb the interaction coefficient a
    # is zero and each coordinate follows the one-population adjusted map
    # with profits (pi_gg, pi_bb).
    rng = np.random.default_rng(7)
    for _ in range(200):
        g, b = rng.uniform(0.5, 3.0, size=2)
        c_g, c_b = rng.uniform(0.0, 1.0, size=2)
        if c_g + c_b == 0.0:
            c_b = 0.5
        beta = rng.uniform(0.2, 5.0)
        params = ModelParams.from_values(g, g, b, b, c_g, c_b, beta)
        p1 = Params1D.from_values(g, b, c_g, c_b, beta)
        s = random_interior_state(rng)
        nxt = step_full(params, s)
        assert nxt.eta1 == pytest.approx(step_adjusted_1d(p1, s.eta1), abs=1e-12)
        assert nxt.eta2 == pytest.approx(step_adjusted_1d(p1, s.eta2), abs=1e-12)


# ---------------------------------------------------------------------------
# One-population maps
# ---------------------------------------------------------------------------

def test_step_classic_reference_value():
    p = Params1D.from_values(1.0, 0.5, 0.0, 0.0, 1.0)
    assert step_classic_1d(p, 0.5) == pytest.approx(0.6224593312018546, abs=1e-15)


def test_step_classic_fixes_boundary():
    p = Params1D.from_values(1.0, 0.5, 0.0, 0.0, 1.0)
    assert step_classic_1d(p, 0.0) == 0.0
    assert step_classic_1d(p, 1.0) == 1.0


@given(p=params_1d_st(), eta=unit_closed_st)
def test_step_classic_stays_in_unit_interval(p, eta):
    assert 0.0 <= step_classic_1d(p, eta) <= 1.0


@given(p=params_1d_st(), eta=unit_closed_st)
def test_step_adjusted_stays_in_unit_interval(p, eta):
    assert 0.0 <= step_adjusted_1d(p, eta) <= 1.0


@given(p=params_1d_st(), eta=st.floats(min_value=1e-3, max_value=1 - 1e-3))
@example(p=Params1D.from_values(0.5 + 2.0**-53, 0.5, 0.0, 0.0, 1.0), eta=0.5)
@example(p=Params1D.from_values(0.5, 0.5 + 2.0**-53, 0.0, 0.0, 1.0), eta=0.5)
def test_classic_flow_moves_toward_more_profitable_technology(p, eta):
    nxt = step_classic_1d(p, eta)
    # A move below half an ulp of eta rounds back to eta under any formula,
    # so the strict direction is asserted only where the first-order move
    # eta*(1-eta)*beta*|pi_g - pi_b| is several ulps.
    strict = eta * (1.0 - eta) * p.beta * abs(p.pi_g - p.pi_b) > 4.0 * math.ulp(eta)
    if p.pi_g > p.pi_b:
        assert nxt >= eta
        assert nxt > eta or not strict
    elif p.pi_g < p.pi_b:
        assert nxt <= eta
        assert nxt < eta or not strict
    else:
        assert nxt == pytest.approx(eta, abs=1e-15)


@settings(max_examples=200)
@given(p=params_1d_st(), eta=unit_closed_st)
def test_cost_free_adjusted_map_equals_classic_formula(p, eta):
    # Numerical-formula check only: the adjusted map is derived under
    # nonzero switching costs, but setting both costs to zero must reduce
    # the formula to the classic map.
    free = Params1D(p.pi_g, p.pi_b, AdjustmentCosts(0.0, 0.0), p.beta)
    assert step_adjusted_1d(free, eta) == pytest.approx(
        step_classic_1d(free, eta), abs=1e-12
    )
