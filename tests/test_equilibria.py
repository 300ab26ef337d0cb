"""Unit and property tests for fixed-point finders and closed forms."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings

from replicator_lab import (
    DomainError,
    EquilibriumKind,
    KnifeEdgeError,
    ModelParams,
    Params1D,
    State,
    edge_equilibria,
    edge_eta_plus,
    edge_eta_star,
    eta_in_limits,
    find_diagonal_equilibria,
    find_inner_equilibria,
    find_period2_diagonal,
    inner_equilibrium_1d,
    step_adjusted_1d,
    step_full,
    vertex_equilibria,
)

from conftest import (
    CYCLE_SET,
    EQUAL_BASIN_SET,
    MULTI_DIAGONAL_SET,
    MULTI_INNER_SET,
    SCENARIO_SETS,
    ONE_POP_HIGH_BROWN,
    ONE_POP_MID_BROWN,
    params_1d_st,
    random_model_params,
)


def fixed_point_defect(params: ModelParams, s: State) -> float:
    nxt = step_full(params, s)
    return max(abs(nxt.eta1 - s.eta1), abs(nxt.eta2 - s.eta2))


def bisect_interior_fixed_point(p: Params1D) -> float:
    """Independent bracketing bisection for the 1D adjusted map's root."""
    def defect(eta: float) -> float:
        return step_adjusted_1d(p, eta) - eta

    lo, hi = 1e-9, 1.0 - 1e-9
    f_lo = defect(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = defect(mid)
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Vertices and edges
# ---------------------------------------------------------------------------

def test_vertex_equilibria_order_and_residuals():
    vertices = vertex_equilibria()
    assert [e.kind for e in vertices] == [
        EquilibriumKind.VERTEX_00,
        EquilibriumKind.VERTEX_10,
        EquilibriumKind.VERTEX_11,
        EquilibriumKind.VERTEX_01,
    ]
    assert [e.location.as_tuple() for e in vertices] == [
        (0.0, 0.0),
        (1.0, 0.0),
        (1.0, 1.0),
        (0.0, 1.0),
    ]
    assert all(e.residual == 0.0 for e in vertices)


def test_edge_coordinates_reference_values():
    s1 = SCENARIO_SETS["S1"]
    assert edge_eta_star(s1) == pytest.approx(0.25444965409145986, abs=1e-14)
    assert edge_eta_plus(s1) == pytest.approx(0.05303109635862852, abs=1e-14)


def test_edge_equilibria_pairs_and_kinds():
    eqs = edge_equilibria(SCENARIO_SETS["S1"])
    assert [e.kind for e in eqs] == [
        EquilibriumKind.EDGE_BROWN,
        EquilibriumKind.EDGE_BROWN_SYM,
        EquilibriumKind.EDGE_GREEN,
        EquilibriumKind.EDGE_GREEN_SYM,
    ]
    star = eqs[0].location.eta2
    plus = eqs[2].location.eta2
    assert eqs[0].location.as_tuple() == (0.0, star)
    assert eqs[1].location.as_tuple() == (star, 0.0)
    assert eqs[2].location.as_tuple() == (1.0, plus)
    assert eqs[3].location.as_tuple() == (plus, 1.0)
    assert all(e.residual <= 1e-10 for e in eqs)


def test_edge_equilibria_absent_for_one_sided_profits():
    # Brown strictly dominant on both edges: no interior edge roots.
    s5 = SCENARIO_SETS["S5"]
    assert edge_eta_star(s5) is None
    assert edge_eta_plus(s5) is None
    assert edge_equilibria(s5) == []


def test_edge_existence_matches_interior_window_over_draws():
    # The closed form exists exactly when both window margins are strictly
    # positive; draws inside a 1e-9 exclusion band around the margins are
    # skipped so float rounding cannot flip the verdict.
    rng = np.random.default_rng(20240812)
    checked = 0
    for _ in range(10_000):
        params = random_model_params(rng)
        a, b = (
            params.payoffs.pi_bg - params.payoffs.pi_gg
            - params.payoffs.pi_bb + params.payoffs.pi_gb,
            params.payoffs.pi_bb - params.payoffs.pi_gb,
        )
        for delta, coord in ((b, edge_eta_star), (a + b, edge_eta_plus)):
            m1 = delta + params.costs.c_g
            m2 = -delta + params.costs.c_b
            if min(abs(m1), abs(m2)) <= 1e-9:
                continue
            value = coord(params)
            if m1 > 0.0 and m2 > 0.0:
                assert value is not None and 0.0 < value < 1.0
            else:
                assert value is None
            checked += 1
    assert checked > 15_000


def test_edge_points_are_fixed_points_of_the_full_map():
    rng = np.random.default_rng(99)
    found = 0
    while found < 200:
        params = random_model_params(rng)
        for eq in edge_equilibria(params):
            assert fixed_point_defect(params, eq.location) <= 1e-10
            found += 1


# ---------------------------------------------------------------------------
# One-population interior fixed point
# ---------------------------------------------------------------------------

def test_inner_equilibrium_reference_value():
    assert inner_equilibrium_1d(ONE_POP_MID_BROWN) == pytest.approx(
        0.6400359523420541, abs=1e-14
    )


def test_inner_equilibrium_none_outside_window():
    assert inner_equilibrium_1d(ONE_POP_HIGH_BROWN) is None
    assert inner_equilibrium_1d(Params1D.from_values(1.0, 1.0, 0.0, 0.0, 2.0)) is None


def test_inner_equilibrium_matches_bisection():
    cases = [
        ONE_POP_MID_BROWN,
        Params1D.from_values(1.1, 1.0, 0.3, 0.3, 2.0),
        Params1D.from_values(2.0, 2.2, 0.5, 0.3, 0.7),
        Params1D.from_values(0.6, 0.8, 0.4, 0.3, 3.0),
    ]
    for p in cases:
        closed = inner_equilibrium_1d(p)
        assert closed is not None
        assert closed == pytest.approx(bisect_interior_fixed_point(p), abs=1e-9)


@given(p=params_1d_st())
@example(p=Params1D.from_values(1.0, 1.0, 1.0, 1.4e-45, 1.0))
@example(p=Params1D.from_values(1.0, 1.0, 1.0, 1.175494351e-38, 1.0))
def test_inner_equilibrium_is_interior_fixed_point_when_present(p):
    eta = inner_equilibrium_1d(p)
    if eta is not None:
        assert 0.0 < eta < 1.0
        assert step_adjusted_1d(p, eta) == pytest.approx(eta, abs=1e-10)


@given(p=params_1d_st())
@example(p=Params1D.from_values(1.0, 1.0, 5e-324, 5e-324, 0.5))
@example(p=Params1D.from_values(0.5, 1.375, 1.0, 1.0, 6.0))
def test_inner_equilibrium_satisfies_defining_balance(p):
    # The closed form solves eta * expm1(beta*(-delta + c_b)) ==
    # (1 - eta) * expm1(beta*(delta + c_g)) with delta = pi_b - pi_g.
    eta = inner_equilibrium_1d(p)
    if eta is None:
        return
    delta = p.pi_b - p.pi_g
    n_brown = math.expm1(p.beta * (-delta + p.c_b))
    n_green = math.expm1(p.beta * (delta + p.c_g))
    lhs = eta * n_brown
    rhs = (1.0 - eta) * n_green
    tol = max(1e-12, 1e-12 * abs(rhs))
    # One ulp of eta moves lhs - rhs by ulp(eta) * (n_green + n_brown).
    if math.ulp(eta) * abs(n_green + n_brown) <= 0.1 * tol:
        assert lhs == pytest.approx(rhs, abs=1e-12, rel=1e-12)
        return
    # Near eta = 1 one ulp exceeds the tolerance, so even the correctly
    # rounded root can miss the balance (pi_g = 0.5, pi_b = 1.375, c = 1,
    # beta = 6: by 1.7e-12). There eta must equal the exact root of the
    # balance up to the error of one rounded sum and one rounded quotient.
    exact = Fraction(n_green) / (Fraction(n_green) + Fraction(n_brown))
    u = Fraction(2) ** -53
    assert abs(Fraction(eta) - exact) <= exact * 2 * u / (1 - u)


def test_eta_in_limits_reference_values():
    lo, hi = eta_in_limits(ONE_POP_MID_BROWN)
    assert lo == pytest.approx(0.5833333333333334, abs=1e-15)
    assert hi == 1.0
    # Slow-switching limit agrees with the closed form at tiny beta.
    tiny = Params1D.from_values(0.95, 1.0, 0.3, 0.3, 1e-8)
    assert inner_equilibrium_1d(tiny) == pytest.approx(lo, abs=1e-6)


def test_eta_in_limits_zero_branch():
    p = Params1D.from_values(1.1, 1.0, 0.3, 0.3, 4.0)
    lo, hi = eta_in_limits(p)
    assert lo == pytest.approx((1.0 - 1.1 + 0.3) / 0.6, abs=1e-15)
    assert hi == 0.0
    big = Params1D.from_values(1.1, 1.0, 0.3, 0.3, 300.0)
    assert inner_equilibrium_1d(big) == pytest.approx(0.0, abs=1e-3)


def test_eta_in_limits_errors():
    with pytest.raises(DomainError):
        eta_in_limits(ONE_POP_HIGH_BROWN)  # no interior window
    with pytest.raises(KnifeEdgeError):
        eta_in_limits(Params1D.from_values(1.0, 1.0, 0.3, 0.3, 4.0))


def test_inner_equilibrium_monotone_in_choice_intensity():
    # The interior fixed point moves monotonically in beta, toward the
    # high-intensity limit picked by the sign of 2*(pi_g - pi_b) + c_b - c_g.
    rng = np.random.default_rng(20240813)
    betas = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    checked = 0
    while checked < 300:
        pi_g, pi_b = rng.uniform(0.5, 3.0, size=2)
        c_g, c_b = rng.uniform(0.05, 1.0, size=2)
        margin = 2.0 * (pi_g - pi_b) + c_b - c_g
        base = Params1D.from_values(pi_g, pi_b, c_g, c_b, 1.0)
        if inner_equilibrium_1d(base) is None or abs(margin) < 1e-6:
            continue
        values = [
            inner_equilibrium_1d(Params1D.from_values(pi_g, pi_b, c_g, c_b, beta))
            for beta in betas
        ]
        diffs = np.diff(values)
        if margin > 0.0:  # limit 0: decreasing in beta
            assert np.all(diffs < 1e-12)
        else:  # limit 1: increasing in beta
            assert np.all(diffs > -1e-12)
        checked += 1


# ---------------------------------------------------------------------------
# Diagonal and interior finders for the full map
# ---------------------------------------------------------------------------

def test_diagonal_finder_symmetric_threshold_midpoint():
    eqs = find_diagonal_equilibria(EQUAL_BASIN_SET)
    assert len(eqs) == 1
    assert eqs[0].location.eta1 == pytest.approx(0.5, abs=1e-9)
    assert eqs[0].kind is EquilibriumKind.DIAGONAL_INNER
    assert eqs[0].residual <= 1e-12


def test_diagonal_finder_three_roots():
    eqs = find_diagonal_equilibria(MULTI_DIAGONAL_SET)
    assert [e.location.eta1 for e in eqs] == pytest.approx(
        [0.0538059834042276, 0.4314397290501963, 0.9694412075133196], abs=1e-9
    )
    assert all(e.residual <= 1e-12 for e in eqs)
    assert all(e.location.eta1 == e.location.eta2 for e in eqs)


def test_diagonal_finder_finds_root_inside_first_scan_cell():
    # The root lies in (0, 1/1024); a scan that starts at the first interior
    # grid point misses it. Value from a 30-digit mpmath bisection.
    params = ModelParams.from_values(
        0.8449201821673884, 2.4700989862599796, 2.1759014602562097,
        1.780955783707901, 0.8167364359696581, 0.5490752688700263, 7.851126386518983,
    )
    etas = [e.location.eta1 for e in find_diagonal_equilibria(params)]
    assert etas == pytest.approx([1.037927889542319e-4, 0.23846790503304627], rel=1e-12)


def test_finders_report_one_point_near_green_vertex_at_high_beta():
    # At beta ~ 37 the fixed-point conditions are nearly flat near (1, 1); a
    # 30-digit mpmath scan of B(B(y)) - y finds one root in [0.985, 1), on
    # the diagonal.
    params = ModelParams.from_values(
        2.833059750563584, 0.714564477717075, 2.612317003684025,
        1.419701847278792, 0.9510229811957994, 0.3994252615788064, 37.47039406131172,
    )
    root = 0.9912671248413889
    near = [
        e for e in find_inner_equilibria(params)
        if max(e.location.as_tuple()) >= 0.985
    ]
    assert len(near) == 1
    assert near[0].kind is EquilibriumKind.DIAGONAL_INNER
    assert near[0].location.as_tuple() == pytest.approx((root, root), abs=1e-12)
    etas = [e.location.eta1 for e in find_diagonal_equilibria(params)]
    assert etas == pytest.approx([root], abs=1e-12)


def test_diagonal_finder_results_sorted_and_interior():
    rng = np.random.default_rng(4242)
    for _ in range(150):
        params = random_model_params(rng)
        etas = [e.location.eta1 for e in find_diagonal_equilibria(params)]
        assert etas == sorted(etas)
        assert all(0.0 < eta < 1.0 for eta in etas)


def test_inner_finder_three_interior_points():
    eqs = find_inner_equilibria(MULTI_INNER_SET)
    assert len(eqs) == 3
    kinds = [e.kind for e in eqs]
    assert kinds.count(EquilibriumKind.DIAGONAL_INNER) == 1
    assert kinds.count(EquilibriumKind.OFF_DIAGONAL_INNER) == 2
    locs = sorted(e.location.as_tuple() for e in eqs)
    assert locs[0] == pytest.approx((0.05126259361685653, 0.8277664251264283), abs=1e-8)
    assert locs[1] == pytest.approx((0.4043592769108696, 0.4043592769108705), abs=1e-8)
    assert locs[2] == pytest.approx((0.8277664251264247, 0.05126259361685968), abs=1e-8)
    assert all(e.residual <= 1e-10 for e in eqs)


def test_inner_finder_reports_swap_symmetric_sets():
    for params in (MULTI_INNER_SET, SCENARIO_SETS["S1"], SCENARIO_SETS["S9"]):
        locs = {e.location.as_tuple() for e in find_inner_equilibria(params)}
        mirrored = {(y, x) for x, y in locs}
        for x, y in mirrored:
            assert any(
                max(abs(x - u), abs(y - v)) <= 1e-8 for u, v in locs
            ), f"missing swap twin of {(y, x)} for {params}"


def test_inner_finder_agrees_with_diagonal_finder_on_the_diagonal():
    rng = np.random.default_rng(2024)
    draws = [random_model_params(rng, beta_range=(0.2, 8.0)) for _ in range(200)]
    for params in [SCENARIO_SETS[name] for name in ("S1", "S3", "S9")] + draws:
        diag = sorted(e.location.eta1 for e in find_diagonal_equilibria(params))
        inner_diag = sorted(
            e.location.eta1
            for e in find_inner_equilibria(params)
            if e.kind is EquilibriumKind.DIAGONAL_INNER
        )
        assert inner_diag == pytest.approx(diag, abs=1e-8)


def test_all_reported_equilibria_meet_residual_bound():
    for params in SCENARIO_SETS.values():
        reported = (
            vertex_equilibria()
            + edge_equilibria(params)
            + find_diagonal_equilibria(params)
            + find_inner_equilibria(params)
        )
        for eq in reported:
            assert eq.residual <= 1e-10
            assert fixed_point_defect(params, eq.location) <= 1e-10


# ---------------------------------------------------------------------------
# Period-2 diagonal cycles
# ---------------------------------------------------------------------------

def test_period2_cycle_reference_values():
    cycles = find_period2_diagonal(CYCLE_SET)
    assert len(cycles) == 1
    cycle = cycles[0]
    assert cycle.point_a == pytest.approx(0.2830085120421632, abs=1e-9)
    assert cycle.point_b == pytest.approx(0.698415034712538, abs=1e-9)
    assert abs(cycle.point_a - cycle.point_b) > 1e-6
    assert cycle.residual <= 1e-10


def test_period2_cycle_points_map_to_each_other():
    cycle = find_period2_diagonal(CYCLE_SET)[0]
    for here, there in ((cycle.point_a, cycle.point_b), (cycle.point_b, cycle.point_a)):
        nxt = step_full(CYCLE_SET, State(here, here))
        assert nxt.eta1 == pytest.approx(there, abs=1e-9)
        assert nxt.eta1 == nxt.eta2


def test_period2_absent_for_monotone_diagonal_dynamics():
    assert find_period2_diagonal(SCENARIO_SETS["S1"]) == []
    assert find_period2_diagonal(SCENARIO_SETS["S9"]) == []
