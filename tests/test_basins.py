"""Unit tests for trajectory simulation, rasters, areas, and staircases."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from replicator_lab import (
    BasinRaster,
    DomainError,
    MapKind,
    ModelParams,
    OutcomeCode,
    Params1D,
    State,
    ValidationError,
    basin_areas,
    compute_basins,
    inner_equilibrium_1d,
    resolve_thread_count,
    simulate,
    staircase,
    step_adjusted_1d,
    step_full,
)
from replicator_lab import basins as basins_mod
from replicator_lab.basins import OUTCOME_VERTICES, THREADS_ENV_VAR

from conftest import (
    CYCLE_SET,
    MULTI_DIAGONAL_SET,
    MULTI_INNER_SET,
    ONE_POP_HIGH_BROWN,
    ONE_POP_MID_BROWN,
    SCENARIO_SETS,
    model_params_st,
)

SWAP_CODE = {
    OutcomeCode.TO_GG: OutcomeCode.TO_GG,
    OutcomeCode.TO_BB: OutcomeCode.TO_BB,
    OutcomeCode.TO_GB: OutcomeCode.TO_BG,
    OutcomeCode.TO_BG: OutcomeCode.TO_GB,
    OutcomeCode.NON_CONVERGENT: OutcomeCode.NON_CONVERGENT,
}


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_vertex_is_immediate():
    out, traj = simulate(SCENARIO_SETS["S1"], State(1.0, 1.0))
    assert out.code is OutcomeCode.TO_GG
    assert out.iterations_used == 0
    assert traj is None


def test_simulate_reference_outcomes():
    out9, _ = simulate(SCENARIO_SETS["S9"], State(0.1, 0.9))
    assert out9.code is OutcomeCode.TO_GG
    out5, _ = simulate(SCENARIO_SETS["S5"], State(0.9, 0.9))
    assert out5.code is OutcomeCode.TO_BB


def test_simulate_converged_state_is_near_reported_vertex():
    rng = np.random.default_rng(20240818)
    eps = 1e-6
    for name in ("S1", "S5", "S9"):
        params = SCENARIO_SETS[name]
        for _ in range(20):
            s0 = State(*rng.uniform(0.0, 1.0, size=2))
            out, traj = simulate(params, s0, eps=eps, record_trajectory=True)
            assert traj is not None and len(traj) == out.iterations_used + 1
            if out.code is OutcomeCode.NON_CONVERGENT:
                continue
            vx, vy = OUTCOME_VERTICES[out.code]
            final = traj[-1]
            assert max(abs(final.eta1 - vx), abs(final.eta2 - vy)) < eps


def test_simulate_budget_exhaustion_is_non_convergent():
    out, _ = simulate(SCENARIO_SETS["S1"], State(0.45, 0.55), max_iter=1)
    assert out.code is OutcomeCode.NON_CONVERGENT
    assert out.iterations_used == 1


def test_simulate_validates_solver_settings():
    s = State(0.5, 0.5)
    with pytest.raises(ValidationError):
        simulate(SCENARIO_SETS["S1"], s, eps=0.0)
    with pytest.raises(ValidationError):
        simulate(SCENARIO_SETS["S1"], s, eps=0.5)
    with pytest.raises(ValidationError):
        simulate(SCENARIO_SETS["S1"], s, max_iter=0)


# ---------------------------------------------------------------------------
# compute_basins / basin_areas
# ---------------------------------------------------------------------------

def test_raster_swap_symmetry_exact():
    raster = compute_basins(SCENARIO_SETS["S1"], resolution=24, max_iter=2000)
    res = raster.resolution
    for i in range(res):
        for j in range(res):
            assert (
                SWAP_CODE[OutcomeCode(raster.cells[i, j])]
                == OutcomeCode(raster.cells[j, i])
            )


def test_raster_cells_match_direct_simulation():
    raster = compute_basins(SCENARIO_SETS["S2"], resolution=16, max_iter=2000)
    rng = np.random.default_rng(5)
    for _ in range(25):
        i, j = rng.integers(0, raster.resolution, size=2)
        s0 = State((i + 0.5) / raster.resolution, (j + 0.5) / raster.resolution)
        out, _ = simulate(SCENARIO_SETS["S2"], s0, max_iter=2000, eps=raster.eps)
        assert raster.cells[i, j] == out.code


def test_raster_determinism_across_thread_counts(monkeypatch):
    results = []
    for threads in ("1", "3"):
        monkeypatch.setenv(THREADS_ENV_VAR, threads)
        raster = compute_basins(SCENARIO_SETS["S3"], resolution=20, max_iter=1500)
        results.append(raster.cells.tobytes())
    assert results[0] == results[1]


def test_raster_repeated_run_is_bit_identical():
    first = compute_basins(SCENARIO_SETS["S6"], resolution=18, max_iter=1500)
    second = compute_basins(SCENARIO_SETS["S6"], resolution=18, max_iter=1500)
    assert first.cells.tobytes() == second.cells.tobytes()


def test_raster_classification_survives_larger_budget():
    params = SCENARIO_SETS["S1"]
    raster = compute_basins(params, resolution=16, max_iter=2000)
    for i in range(raster.resolution):
        for j in range(raster.resolution):
            code = OutcomeCode(raster.cells[i, j])
            if code is OutcomeCode.NON_CONVERGENT:
                continue
            s0 = State((i + 0.5) / 16, (j + 0.5) / 16)
            out, _ = simulate(params, s0, max_iter=20_000, eps=raster.eps)
            assert out.code is code


def test_compute_basins_validates_arguments():
    params = SCENARIO_SETS["S1"]
    with pytest.raises(ValidationError):
        compute_basins(params, resolution=8)
    with pytest.raises(ValidationError):
        compute_basins(params, resolution=32, eps=0.0)
    with pytest.raises(ValidationError):
        compute_basins(params, resolution=32, max_iter=0)


def test_basin_areas_sum_to_one_and_drop_absent_codes():
    raster = compute_basins(SCENARIO_SETS["S9"], resolution=32, max_iter=2000)
    areas = basin_areas(raster)
    assert sum(areas.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(fraction > 0.0 for fraction in areas.values())


def test_basin_areas_all_one_code():
    cells = np.zeros((16, 16), dtype=np.uint8)  # all ToGG
    raster = BasinRaster(16, cells, SCENARIO_SETS["S9"], 1e-6, 5000)
    assert basin_areas(raster) == {OutcomeCode.TO_GG: 1.0}


def test_basin_area_ordering_matches_regime():
    # High transition risk: failed transition dominates; wide green basin
    # in the opposite regime.
    risky = basin_areas(compute_basins(SCENARIO_SETS["S2"], resolution=64, max_iter=3000))
    assert risky[OutcomeCode.TO_BB] > risky[OutcomeCode.TO_GG]
    green = basin_areas(compute_basins(SCENARIO_SETS["S6"], resolution=64, max_iter=3000))
    assert green[OutcomeCode.TO_GG] > green[OutcomeCode.TO_BB]


@settings(max_examples=50, deadline=None)
@given(
    params=model_params_st(),
    resolution=st.integers(min_value=40, max_value=64),
    max_iter=st.integers(min_value=50, max_value=1500),
    eps=st.sampled_from([1e-6, 1e-3, 1e-16]),
)
# At eps = 1e-16 float64 rounding can stall a trajectory one ulp short of
# a vertex, so a box must not claim it.
@example(params=SCENARIO_SETS["S1"], resolution=48, max_iter=1500, eps=1e-16)
def test_raster_equals_box_free_full_grid(params, resolution, max_iter, eps):
    raster = compute_basins(params, resolution=resolution, eps=eps, max_iter=max_iter)
    centers = (np.arange(resolution) + 0.5) / resolution
    x, y = np.meshgrid(centers, centers, indexing="ij")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(basins_mod, "_trapping_boxes", lambda *args: [])
        plain = basins_mod._iterate_grid(params, x, y, eps, max_iter)
    assert np.array_equal(raster.cells, plain.reshape(resolution, resolution))


def test_trapping_boxes_are_invariant_and_contracting():
    rng = np.random.default_rng(11)
    sets = [*SCENARIO_SETS.values(), MULTI_INNER_SET, MULTI_DIAGONAL_SET, CYCLE_SET]
    checked = 0
    for params in sets:
        for box in basins_mod._trapping_boxes(params, 1e-6):
            vx, vy = OUTCOME_VERTICES[box.code]
            assert box.rate <= 0.995
            # Corners of the box, then uniform draws inside it.
            offsets = [(box.radius, box.radius), (box.radius, 0.0), (0.0, box.radius)]
            offsets += [tuple(d) for d in rng.uniform(0.0, box.radius, size=(40, 2))]
            for dx, dy in offsets:
                s0 = State(abs(vx - dx), abs(vy - dy))
                s1 = step_full(params, s0)
                d0 = max(abs(s0.eta1 - vx), abs(s0.eta2 - vy))
                d1 = max(abs(s1.eta1 - vx), abs(s1.eta2 - vy))
                assert d1 <= box.radius
                assert d1 <= box.rate * d0 + 1e-15
                checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# resolve_thread_count
# ---------------------------------------------------------------------------

def test_resolve_thread_count_defaults_and_overrides(monkeypatch):
    monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
    assert resolve_thread_count() >= 1
    monkeypatch.setenv(THREADS_ENV_VAR, "3")
    assert resolve_thread_count() == 3
    monkeypatch.setenv(THREADS_ENV_VAR, "0")
    assert resolve_thread_count() >= 1


def test_resolve_thread_count_rejects_bad_values(monkeypatch):
    monkeypatch.setenv(THREADS_ENV_VAR, "-2")
    with pytest.raises(ValidationError):
        resolve_thread_count()
    monkeypatch.setenv(THREADS_ENV_VAR, "lots")
    with pytest.raises(ValidationError):
        resolve_thread_count()


# ---------------------------------------------------------------------------
# staircase
# ---------------------------------------------------------------------------

def test_staircase_constant_at_equal_profits():
    p = Params1D.from_values(1.0, 1.0, 0.0, 0.0, 2.0)
    pairs = staircase(p, MapKind.CLASSIC, 0.25, 5)
    assert pairs == [(0.25, 0.25)] * 5


def test_staircase_pairs_chain():
    pairs = staircase(ONE_POP_MID_BROWN, MapKind.ADJUSTED, 0.7, 40)
    assert len(pairs) == 40
    for (x0, y0), (x1, _) in zip(pairs, pairs[1:]):
        assert y0 == x1
    assert pairs[0][1] == step_adjusted_1d(ONE_POP_MID_BROWN, 0.7)


def test_staircase_monotone_decline_when_brown_dominates():
    pairs = staircase(ONE_POP_HIGH_BROWN, MapKind.ADJUSTED, 0.9, 200)
    values = [pairs[0][0]] + [y for _, y in pairs]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(0.0, abs=1e-3)


def test_staircase_monotone_on_each_side_of_interior_split():
    eta_in = inner_equilibrium_1d(ONE_POP_MID_BROWN)
    assert eta_in is not None
    up = staircase(ONE_POP_MID_BROWN, MapKind.ADJUSTED, 0.7, 300)
    ups = [up[0][0]] + [y for _, y in up]
    assert all(b >= a for a, b in zip(ups, ups[1:]))
    assert ups[-1] == pytest.approx(1.0, abs=1e-3)
    down = staircase(ONE_POP_MID_BROWN, MapKind.ADJUSTED, eta_in - 0.05, 300)
    downs = [down[0][0]] + [y for _, y in down]
    assert all(b <= a for a, b in zip(downs, downs[1:]))
    assert downs[-1] == pytest.approx(0.0, abs=1e-3)


def test_staircase_rejects_invalid_model():
    with pytest.raises(DomainError):
        staircase(ONE_POP_MID_BROWN, "classic", 0.5, 3)  # type: ignore[arg-type]
