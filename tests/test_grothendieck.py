"""Tests for truncated Grothendieck lower bounds and the KKT maximum.

Oracles: the d=1 case reduces to exact sign enumeration (so values are
exact floats), the d=2 bilinear 2x2 case is checked against a dense angle
grid on the circle (support.angle_grid_bilinear_max), the constrained KKT
objective is pinned at hand-evaluated feasible points, and its proof must
reject a mutated identity. The alternating inner solver is heuristic, so
every assertion on it is of lower-bound or reproducibility form.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from extremeforms import grothendieck
from extremeforms.core import FormVector
from extremeforms.grothendieck import (
    BleiPoint,
    SphereConfig,
    blei_kkt_max,
    blei_objective,
    inner_sphere_max,
    kg_lower_bound,
)
from extremeforms.search import InternalInvariantError, extreme_points

from support import angle_grid_bilinear_max

F = Fraction

SQRT2 = math.sqrt(2.0)

CHSH = FormVector((F(1, 2), F(1, 2), F(1, 2), F(-1, 2)), 2, 2)


def bilinear(coeffs, k):
    return FormVector(tuple(coeffs), 2, k)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def test_sphere_config_validates_unit_norms():
    SphereConfig(((1.0, 0.0), (0.0, 1.0)), ((1.0, 0.0), (0.0, 1.0)), 0.0)
    with pytest.raises(ValueError):
        SphereConfig(((2.0, 0.0),), ((1.0, 0.0),), 0.0)
    with pytest.raises(ValueError):
        SphereConfig(((1.0, 0.0),), ((0.5, 0.5),), 0.0)


def test_blei_point_accepts_feasible():
    BleiPoint(1.0, 0.0, 0.0, 0.0, 0.0)
    BleiPoint(0.25, 0.25, 0.25, 0.25, 0.0)
    BleiPoint(0.25, 0.25, 0.25, 0.25, 0.25)


def test_blei_point_rejects_infeasible():
    with pytest.raises(ValueError):
        BleiPoint(0.5, 0.0, 0.0, 0.0, 0.0)  # coordinates sum to 1/2
    with pytest.raises(ValueError):
        BleiPoint(0.8, -0.6, 0.5, 0.3, 0.0)  # pair sum b+d < 0
    with pytest.raises(ValueError):
        BleiPoint(1.0, 0.0, 0.0, 0.0, 0.5)  # h^2 exceeds the cubic bound


def test_blei_objective_values():
    assert abs(blei_objective(BleiPoint(1.0, 0.0, 0.0, 0.0, 0.0)) - 1.0) \
        < 1e-12
    assert abs(blei_objective(BleiPoint(0.25, 0.25, 0.25, 0.25, 0.0))
               - SQRT2 / 2) < 1e-12
    assert abs(blei_objective(BleiPoint(0.25, 0.25, 0.25, 0.25, 0.25))
               - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# inner sphere maximization
# ---------------------------------------------------------------------------

def test_rank_one_form():
    T = bilinear((1, 0, 0, 0), 2)
    exact = inner_sphere_max(T, d=1)
    assert exact.value == 1.0
    for d in (2, 3):
        config = inner_sphere_max(T, d=d, restarts=8, seed=1)
        assert abs(config.value - 1.0) < 1e-9


def test_d1_is_exact_on_extreme_points(set22):
    # S^0 = {-1, +1}: the inner maximum is the sup norm, exactly 1 for
    # every extreme point, computed by sign enumeration without floats.
    for point in set22.points:
        config = inner_sphere_max(point, d=1)
        assert config.value == 1.0
        assert all(len(v) == 1 and abs(v[0]) == 1.0
                   for v in config.x_vectors + config.y_vectors)


def test_chsh_reaches_sqrt2_at_d2():
    config = inner_sphere_max(CHSH, d=2, restarts=16, seed=7)
    oracle = angle_grid_bilinear_max([[0.5, 0.5], [0.5, -0.5]], steps=64)
    assert abs(config.value - SQRT2) < 1e-6
    assert config.value >= oracle - 1e-6
    # the configuration's value matches the bilinear evaluation formula
    recomputed = 0.0
    for i in range(2):
        for j in range(2):
            coeff = float(CHSH.coeffs[2 * i + j])
            dot = sum(a * b for a, b in zip(config.x_vectors[i],
                                            config.y_vectors[j]))
            recomputed += coeff * dot
    assert abs(recomputed - config.value) < 1e-9


def test_monotone_in_dimension():
    values = [inner_sphere_max(CHSH, d=d, restarts=16, seed=3).value
              for d in (1, 2, 3)]
    for lower, higher in zip(values, values[1:]):
        assert higher >= lower - 1e-9


def test_seed_determinism():
    first = inner_sphere_max(CHSH, d=2, restarts=8, seed=11)
    second = inner_sphere_max(CHSH, d=2, restarts=8, seed=11)
    assert first.value == second.value
    assert first.x_vectors == second.x_vectors
    assert first.y_vectors == second.y_vectors
    other = inner_sphere_max(CHSH, d=2, restarts=8, seed=12)
    assert abs(other.value - first.value) < 1e-6


def test_zero_form():
    config = inner_sphere_max(bilinear((0, 0, 0, 0), 2), d=2)
    assert config.value == 0.0


def test_rejects_non_bilinear():
    cubic = FormVector((1,) + (0,) * 7, 3, 2)
    with pytest.raises(ValueError):
        inner_sphere_max(cubic, d=2)


def per_restart_reference(T, d, restarts, seed):
    """The solver one restart at a time, as (value, x_vectors, y_vectors)."""
    k = T.n
    matrix = np.array([[float(T.coeffs[i * k + j]) for j in range(k)]
                       for i in range(k)])

    def half_step(mat, sources, previous):
        image = mat @ sources
        norms = np.linalg.norm(image, axis=1)
        out = previous.copy()
        moving = norms > 1e-300
        out[moving] = image[moving] / norms[moving, None]
        return out

    best = None
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(child)
        y = rng.normal(size=(k, d))
        norms = np.linalg.norm(y, axis=1)
        while (norms < 1e-12).any():
            y[norms < 1e-12] = rng.normal(size=(int((norms < 1e-12).sum()), d))
            norms = np.linalg.norm(y, axis=1)
        y /= norms[:, None]
        x = np.zeros((k, d))
        x[:, 0] = 1.0
        value = -math.inf
        for _ in range(grothendieck.MAX_ITERATIONS):
            x = half_step(matrix, y, x)
            y = half_step(matrix.T, x, y)
            full = float(np.sum(y * (matrix.T @ x)))
            if abs(full - value) <= (grothendieck.CONVERGENCE_TOL
                                     * max(1.0, abs(full))):
                value = full
                break
            value = full
        if best is None or value > best[0]:
            best = (value, x.copy(), y.copy())
    value, x, y = best
    return (value, tuple(map(tuple, x.tolist())),
            tuple(map(tuple, y.tolist())))


def solved(T, d, restarts, seed):
    config = inner_sphere_max(T, d, restarts=restarts, seed=seed)
    return config.value, config.x_vectors, config.y_vectors


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("restarts", [1, 7, 64])
@pytest.mark.parametrize("seed", [0, 4])
def test_batched_solver_matches_per_restart_reference(set23, d, restarts,
                                                      seed):
    for point in set23:
        assert solved(point, d, restarts, seed) == per_restart_reference(
            point, d, restarts, seed), point


def test_batched_solver_matches_reference_on_kg_scan(partial24):
    for point in partial24:
        assert solved(point, 2, 64, 1) == per_restart_reference(
            point, 2, 64, 1), point


def test_monotone_check_still_fires(monkeypatch):
    # with a large negative slack every step counts as a decrease; the
    # y half-step of the first iteration is the first one checked
    monkeypatch.setattr(grothendieck, "_MONOTONE_SLACK", -1e9)
    with pytest.raises(InternalInvariantError,
                       match=r"^y half-step decreased the objective: "):
        inner_sphere_max(CHSH, d=2, restarts=4, seed=0)


def test_cached_starts_are_read_only_and_calls_do_not_leak():
    starts = grothendieck._sphere_starts(2, 2, 8, 11)
    assert starts is grothendieck._sphere_starts(2, 2, 8, 11)
    assert starts.shape == (8, 2, 2)
    with pytest.raises(ValueError):
        starts[0, 0, 0] = 0.0
    first = inner_sphere_max(CHSH, d=2, restarts=8, seed=11)
    inner_sphere_max(bilinear((1, 2, -3, 1), 2), d=2, restarts=8, seed=11)
    assert inner_sphere_max(CHSH, d=2, restarts=8, seed=11) == first
    assert np.array_equal(starts, grothendieck._sphere_starts(2, 2, 8, 11))


# ---------------------------------------------------------------------------
# truncated Grothendieck lower bounds
# ---------------------------------------------------------------------------

def test_kg_d1_is_exactly_one(set22):
    report = kg_lower_bound(2, 1, set22)
    assert report.value == 1.0


def test_kg_m1_any_d():
    C = extreme_points(2, 1)
    for d in (1, 2, 3):
        report = kg_lower_bound(1, d, C, restarts=4, seed=0)
        assert abs(report.value - 1.0) < 1e-9


def test_kg_m2_d2_reaches_sqrt2(set22):
    report = kg_lower_bound(2, 2, set22, restarts=16, seed=5)
    assert report.value >= 1.414213 - 1e-6
    assert report.value < 1.8  # cannot exceed the untruncated constant
    assert report.argmax in set22
    assert "d2" in report.name


def test_kg_monotone_in_d(set22):
    v1 = kg_lower_bound(2, 1, set22).value
    v2 = kg_lower_bound(2, 2, set22, restarts=8, seed=2).value
    assert v2 >= v1 - 1e-9


@pytest.mark.parametrize("seed", [0, 1])
def test_kg_on_partial_2_4_pinned(partial24, seed):
    # value bits and argmax recorded with the per-restart solver
    report = kg_lower_bound(4, 2, partial24, seed=seed)
    assert report.value.hex() == "0x1.6a09e667f3bcep+0"
    assert report.argmax == partial24.point(1)
    assert [str(c) for c in report.argmax.coeffs] == [
        "-1/2", "-1/2", "0", "0", "-1/2", "1/2"] + ["0"] * 10


def test_kg_rejects_mismatched_set(planar3):
    with pytest.raises(ValueError):
        kg_lower_bound(3, 2, planar3)


def test_kg_report_serializes(set22):
    payload = kg_lower_bound(2, 1, set22).to_json_dict()
    assert payload["value"] == 1.0
    assert len(payload["argmax"]) == 4


# ---------------------------------------------------------------------------
# Blei KKT maximization
# ---------------------------------------------------------------------------

def test_blei_kkt_max_is_one():
    assert blei_kkt_max() == 1.0


def test_blei_identities_hold_on_the_grid():
    for left, right in grothendieck._BLEI_IDENTITIES:
        assert grothendieck._agree_on_grid(left, right)


def mutated_slack(a, b, c):
    """1 - X - Y with 3h^2 in place of 2h^2 in X."""

    d = 1 - a - b - c
    h2 = b * c * d + a * c * d + a * b * d + a * b * c
    return 1 - (a * a + b * b + 3 * h2) - (c * c + d * d + 2 * h2)


def test_agree_on_grid_rejects_a_mutated_identity():
    _, right = grothendieck._BLEI_IDENTITIES[0]
    assert not grothendieck._agree_on_grid(mutated_slack, right)


def test_blei_kkt_max_raises_on_a_failed_identity(monkeypatch):
    _, right = grothendieck._BLEI_IDENTITIES[0]
    monkeypatch.setattr(grothendieck, "_BLEI_IDENTITIES",
                        ((mutated_slack, right),))
    with pytest.raises(InternalInvariantError, match="identity"):
        blei_kkt_max()


def test_blei_witnesses_give_exactly_one():
    assert blei_objective(BleiPoint(1, 0, 0, 0, 0)) == 1.0
    assert blei_objective(BleiPoint(0.25, 0.25, 0.25, 0.25, 0.25)) == 1.0
