"""Tests for the extreme-point search pipeline.

Frozen values come from hand computation on the 2x2 bilinear case, from the
complete reference list in known_points.py, and from brute-force oracles in
support.py (subset rank scans, raw polytope vertex enumeration). The planar
fast path and the general pipeline are checked against each other, which is
the strongest internal consistency statement available for m = 3.
"""

from array import array
from fractions import Fraction
from functools import lru_cache
import hashlib
import importlib
import importlib.util
import inspect
import json
from itertools import combinations, islice, product
import math
import os
from pathlib import Path
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from extremeforms.core import (
    FormVector,
    ResourceBudgetError,
    act,
    enumerate_group,
    enumerate_tensor_vertices,
    inner,
)
from extremeforms import dd, search
from extremeforms.search import (
    MAX_PIPELINE_DIMENSION,
    BudgetExceeded,
    ExtremeSet,
    InternalInvariantError,
    _anchored_walk,
    _det_adjugate,
    _kernel_exact,
    _process_basis,
    _tables,
    brute_force_vertices,
    extreme_points,
    in_unit_ball,
    is_extreme,
    orbit,
    planar_extreme_points,
)
from known_points import (
    BILINEAR_2x2_ALL,
    QUADRILINEAR_2_MISPRINT,
    QUADRILINEAR_2_MISPRINT_CORRECTED,
    QUADRILINEAR_2_VERIFIED,
    TRILINEAR_2_SAMPLE,
)
from support import fraction_rank, fraction_solve

F = Fraction

ROOT = Path(__file__).resolve().parents[1]


def form(coeffs, m, n):
    return FormVector(tuple(coeffs), m, n)


def assert_orthogonal_to_tight_rows(a, offset):
    tight = [v for v in enumerate_tensor_vertices(a.m, a.n)
             if abs(inner(a.coeffs, v)) == 1]
    assert tight
    assert all(inner(offset.coeffs, v) == 0 for v in tight)


# ---------------------------------------------------------------------------
# the anchored-basis walk
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,n", [(2, 2), (1, 3), (2, 3)])
def test_anchored_bases_are_valid(m, n):
    # the walk yields ascending tuples of distinct representatives that
    # complete the anchor to a basis, as many as a float rank count over
    # every subset of the representatives finds
    tables = _tables(m, n)
    vmat, representatives = tables["vmat"], tables["representatives"]
    size = n ** m
    bases = list(_anchored_walk(m, n, None)[1])
    for chosen in bases:
        assert list(chosen) == sorted(set(chosen)), chosen
        assert set(chosen) <= set(representatives), chosen
    assert len(set(bases)) == len(bases), "basis emitted twice"
    ranks = np.linalg.matrix_rank(vmat[[[0, *chosen] for chosen in bases]])
    assert (ranks == size).all()
    subsets = vmat[[[0, *chosen] for chosen
                    in combinations(representatives, size - 1)]]
    oracle_count = int((np.linalg.matrix_rank(subsets) == size).sum())
    assert len(bases) == oracle_count
    assert oracle_count == {(2, 2): 1, (1, 3): 3, (2, 3): 2304}[m, n]


def test_anchored_bases_2_2_count_matches_subset_oracle():
    # exact rank scan: over all of V the anchor completes to 8 bases; the
    # walk draws only from the sign-group representatives, and yields
    # exactly the bases an exact scan over those finds
    vertices = enumerate_tensor_vertices(2, 2)
    anchor = vertices[0]
    full_count = sum(1 for triple in combinations(vertices[1:], 3)
                     if fraction_rank([anchor, *triple]) == 4)
    assert full_count == 8
    representatives = _tables(2, 2)["representatives"]
    oracle = [triple for triple in combinations(representatives, 3)
              if fraction_rank([anchor, *(vertices[i] for i in triple)]) == 4]
    bases = list(_anchored_walk(2, 2, None)[1])
    assert bases == oracle
    assert len(bases) == 1


def test_anchored_bases_budget_and_resume(set23):
    # four chained budgets of 700 bases walk the 2304 bases of (2,3): each
    # cursor names the last basis walked, the fourth run completes, and
    # the partial sets together are the complete set
    full = list(_anchored_walk(2, 3, None)[1])
    assert len(full) == 2304
    gathered = set()
    resume = None
    for k in range(1, 4):
        with pytest.raises(BudgetExceeded) as info:
            extreme_points(2, 3, budget=700, resume=resume)
        resume = info.value.resume
        assert resume["last_basis"] == list(full[700 * k - 1])
        assert not info.value.partial.complete
        gathered |= set(info.value.partial.pairs())
    last = extreme_points(2, 3, budget=700, resume=resume)
    assert last.complete
    gathered |= set(last.pairs())
    assert gathered == set(set23.pairs())

    with pytest.raises(BudgetExceeded) as info:
        extreme_points(2, 3, budget=0)
    assert info.value.resume["last_basis"] is None


def test_budget_boundary_of_the_2_3_walk(set23):
    # a budget of exactly the 2304 bases completes; one basis fewer stops,
    # and a budget of 1 from its cursor walks the last basis and completes
    whole = extreme_points(2, 3, budget=2304)
    assert whole.complete and whole == set23
    with pytest.raises(BudgetExceeded) as info:
        extreme_points(2, 3, budget=2303)
    assert str(info.value) == "pipeline budget 2303 exhausted"
    assert not info.value.partial.complete
    rest = extreme_points(2, 3, budget=1, resume=info.value.resume)
    assert rest.complete
    assert set(info.value.partial.pairs()) | set(rest.pairs()) \
        == set(set23.pairs())


@pytest.mark.parametrize("bad", ["descending", "repeated", "past-end",
                                 "anchor"])
def test_anchored_bases_reject_cursor_outside_walk(bad):
    tables = _tables(2, 3)
    first = tables["representatives"][:8]
    last_basis = {"descending": first[::-1],
                  "repeated": [first[0], *first[:7]],
                  "past-end": [*first[:7], len(tables["vertices"])],
                  "anchor": [0, *first[:7]]}[bad]
    with pytest.raises(BudgetExceeded) as info:
        extreme_points(2, 3, budget=0)
    cursor = {**info.value.resume, "last_basis": last_basis}
    with pytest.raises(ValueError, match="resume cursor"):
        extreme_points(2, 3, resume=cursor)


def test_resume_cursor_of_another_search_or_depth_is_refused():
    with pytest.raises(BudgetExceeded) as info:
        extreme_points(2, 3, budget=1)
    foreign = {**info.value.resume, "n": 4}  # a cursor of (2,4)
    with pytest.raises(ValueError, match="belongs to a different search"):
        extreme_points(2, 3, resume=foreign)
    cursor = {**info.value.resume,
              "last_basis": info.value.resume["last_basis"][:-1]}
    with pytest.raises(ValueError, match="wrong depth"):
        extreme_points(2, 3, resume=cursor)


def test_pipeline_rejects_cursor_off_the_representatives():
    # the pipeline walks one row per antipodal pair; the negation of a
    # representative is a vertex of V but not a candidate of this walk
    tables = _tables(2, 3)
    negated = sorted(set(range(1, len(tables["vertices"])))
                     - set(tables["representatives"]))
    with pytest.raises(BudgetExceeded) as info:
        extreme_points(2, 3, budget=0)
    cursor = {**info.value.resume, "last_basis": negated[:8]}
    with pytest.raises(ValueError, match="resume cursor"):
        extreme_points(2, 3, resume=cursor)
    with pytest.raises(ValueError, match="unsupported resume format"):
        extreme_points(2, 3, resume=[1])


def test_imports_leave_the_process_pool_unloaded(tmp_path):
    # the basis scan runs in one process: not even a --workers 2 scan
    # loads the pool module
    out = tmp_path / "points.json"
    code = ("import sys\n"
            "import extremeforms.cli, extremeforms.search, "
            "extremeforms.storage, extremeforms.constants, "
            "extremeforms.grothendieck\n"
            "assert extremeforms.cli.main(['enum', '--m', '2', '--n', '3', "
            f"'--workers', '2', '--no-cache', '--out', {str(out)!r}]) == 0\n"
            "sys.exit('concurrent.futures' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert out.exists()


def test_certificate_layer_is_core_reexported():
    # the exact layer lives in core, which loads no numpy; search keeps
    # the old names bound to the same objects
    from extremeforms import core

    for name in ("is_extreme", "in_unit_ball", "InBallResult",
                 "ExtremalityCertificate", "InternalInvariantError",
                 "_IntEliminator", "_exact_solve"):
        assert getattr(search, name) is getattr(core, name), name


# ---------------------------------------------------------------------------
# ball membership
# ---------------------------------------------------------------------------

def test_in_unit_ball_frozen():
    inside = in_unit_ball(form((0, 0, 0, 1), 2, 2))
    assert inside and inside.value == 1 and inside.witness is None

    outside = in_unit_ball(form((1, 1, 0, 0), 2, 2))
    assert not outside
    assert outside.witness == (1, 1, 1, 1)
    assert outside.value == 2

    zero = in_unit_ball(form((0, 0, 0, 0), 2, 2))
    assert zero and zero.value == 0


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

def test_orbit_frozen_examples():
    a = form((0, 0, 0, 1), 2, 2)
    assert orbit(a) == {a, form((0, 0, 0, -1), 2, 2)}

    h = F(1, 2)
    half = form((h, h, h, -h), 2, 2)
    expected = {form(p, 2, 2) for p in BILINEAR_2x2_ALL
                if {abs(c) for c in p} == {h}}
    assert len(expected) == 8
    assert orbit(half) == expected

    zero = form((0, 0, 0, 0), 2, 2)
    assert orbit(zero) == {zero}


def test_orbit_is_the_group_orbit(set22, set32):
    nonextreme = form((0, F(1, 3), 0, F(-1, 2)), 2, 2)
    for a in (*set22.points, *set32.points, nonextreme):
        assert orbit(a) == {act(g, a) for g in enumerate_group(a.m, a.n)}


def test_orbit_refuses_shapes_past_the_cell_limit():
    # |V| n^m = 2^19 * 100 cells for (2, 10), past CELL_LIMIT = 2^24
    with pytest.raises(ResourceBudgetError):
        orbit(form((0,) * 100, 2, 10))


# ---------------------------------------------------------------------------
# the full pipeline on small shapes
# ---------------------------------------------------------------------------

def test_extreme_points_1_1():
    got = extreme_points(1, 1)
    assert got.coefficient_tuples() == {(F(1),), (F(-1),)}


def test_extreme_points_1_2_cross_polytope():
    got = extreme_points(1, 2)
    assert got.coefficient_tuples() == {
        (F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1))}


def test_extreme_points_2_2_matches_reference_list(set22):
    assert set22.coefficient_tuples() == set(BILINEAR_2x2_ALL)
    assert len(set22) == 16


# (1,2), (1,3), (1,4), (2,1) and (3,1) are the cross-polytope
@pytest.mark.parametrize("m,n", [(1, 2), (1, 3), (2, 2), (3, 2), (1, 4),
                                 (2, 1), (3, 1)])
def test_oracle_equivalence(m, n):
    direct = brute_force_vertices(m, n)
    pipeline = extreme_points(m, n)
    assert direct == pipeline
    assert direct.coefficient_tuples() == pipeline.coefficient_tuples()


def fraction_ball_vertices(m, n):
    """Vertices of the unit ball by a filter in Fractions: every
    invertible n^m-subset of V, every sign vector, fraction_solve, kept
    when |<a, v>| <= 1 over all of V."""
    vertices = sorted(enumerate_tensor_vertices(m, n))
    size = n ** m
    found = set()
    for subset in combinations(vertices, size):
        if fraction_rank(subset) < size:
            continue
        for signs in product((1, -1), repeat=size):
            a = fraction_solve(subset, signs)
            if all(abs(sum(x * y for x, y in zip(a, v))) <= 1
                   for v in vertices):
                found.add(a)
    return found


@pytest.mark.parametrize("m,n", [(2, 2), (1, 3)])
def test_oracle_matches_a_fraction_ball_filter(m, n):
    expected = fraction_ball_vertices(m, n)
    assert brute_force_vertices(m, n).coefficient_tuples() == expected
    assert brute_force_vertices(m, n) \
        == ExtremeSet.from_points(m, n, expected)


def test_brute_force_guard():
    with pytest.raises(ResourceBudgetError) as caught:
        brute_force_vertices(2, 3)
    assert str(caught.value) \
        == "brute force would need 5857280 solves; guard is 2000000"


def test_extreme_points_sorted_and_deduplicated(set22, set32):
    for got in (set22, set32):
        keys = [p.coeffs for p in got.points]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))


def test_extreme_points_closed_under_negation_and_action(set22, set32):
    rng = random.Random(23)
    for got in (set22, set32):
        coeffs = got.coefficient_tuples()
        assert {tuple(-c for c in p) for p in coeffs} == coeffs
        elements = enumerate_group(got.m, got.n)
        for _ in range(12):
            g = rng.choice(elements)
            assert {act(g, p) for p in coeffs} == coeffs


def test_midpoints_are_never_extreme(set32):
    rng = random.Random(41)
    points = list(set32.points)
    for _ in range(100):
        a, b = rng.sample(points, 2)
        mid = form(
            tuple((x + y) / 2 for x, y in zip(a.coeffs, b.coeffs)), 3, 2)
        assert not is_extreme(mid)


# ---------------------------------------------------------------------------
# the planar fast path
# ---------------------------------------------------------------------------

# every n = 2 run takes planar_extreme_points, so the walk's own
# functions, which find one anchored basis here, are checked against it

def test_planar_matches_general_bilinear(planar2):
    walked, cursor = per_basis_points(2, 2)
    assert cursor is None and walked == planar2
    assert planar2.coefficient_tuples() == walked.coefficient_tuples()


def test_planar_matches_general_trilinear(planar3):
    walked, cursor = per_basis_points(3, 2)
    assert cursor is None and walked == planar3
    assert planar3.coefficient_tuples() == walked.coefficient_tuples()


def test_planar_matches_general_quadrilinear(planar4):
    # the largest set _finalize is handed: 65536 points from 32768 keys
    walked, cursor = per_basis_points(4, 2)
    assert cursor is None and walked.complete
    assert walked == planar4


def test_planar_trilinear_frozen(planar3):
    assert len(planar3) == 256
    for point in TRILINEAR_2_SAMPLE:
        assert point in planar3


def test_planar_quadrilinear_frozen(planar4):
    assert len(planar4) == 65536
    for point in QUADRILINEAR_2_VERIFIED:
        assert point in planar4


def test_planar_quadrilinear_misprint(planar4):
    # The remaining pair of the literal sample is a misprint: coefficient
    # sum +-3/2, hence |value at the all-ones vertex tuple| = 3/2 > 1 and
    # the point is outside the unit ball.  Exactly one genuine extreme
    # point differs from it in a single coordinate.
    for point in QUADRILINEAR_2_MISPRINT:
        assert point not in planar4
        assert abs(sum(point)) == Fraction(3, 2)
        report = in_unit_ball(FormVector(point, 4, 2))
        assert not report
        assert report.value == Fraction(3, 2)
    for point in QUADRILINEAR_2_MISPRINT_CORRECTED:
        assert point in planar4
        assert abs(sum(point)) == 1
    keys = planar4.coefficient_tuples()
    misprint = QUADRILINEAR_2_MISPRINT[0]
    one_flip = [k for k in keys
                if sum(1 for a, b in zip(k, misprint) if a != b) == 1]
    assert one_flip == [QUADRILINEAR_2_MISPRINT_CORRECTED[0]]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_planar_denominators_divide_power_of_two(planar2, planar3, planar4, m):
    planar = {2: planar2, 3: planar3, 4: planar4}[m]
    for p in planar.points:
        for c in p.coeffs:
            assert (2 ** m) % c.denominator == 0


def test_planar_budget_guard():
    # the one size limit of every engine: 2^5 = 32 coefficients
    with pytest.raises(ResourceBudgetError,
                       match="n\\^m = 32 exceeds supported dimension"):
        planar_extreme_points(5)


def planar_reference(m):
    """a = H^t f / 2^m for every f = 1 - 2 bits, formed by an int64
    matmul and sorted by a 2^m-key int64 lexsort."""
    count, size = 2 ** (2 ** m), 2 ** m
    h = _tables(m, 2)["ball"]
    bits = (np.arange(count, dtype=np.int64)[:, None]
            >> np.arange(size - 1, -1, -1, dtype=np.int64)[None, :]) & 1
    numerators = (1 - 2 * bits) @ h
    nums = numerators[np.lexsort(numerators.T[::-1])]
    g = np.gcd(np.gcd.reduce(nums, axis=1), size)
    return ExtremeSet(m, 2, size // g, nums // g[:, None])


def assert_same_planar_set(got, reference):
    # |u_i| <= 16: both sets hold their numerators in int8
    assert got.dens.dtype == reference.dens.dtype == np.int64
    assert got.nums.dtype == reference.nums.dtype == np.int8
    assert np.array_equal(got.dens, reference.dens)
    assert np.array_equal(got.nums, reference.nums)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_planar_kernel_matches_int64_reference(m):
    assert_same_planar_set(planar_extreme_points(m), planar_reference(m))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("path", ["python", "numpy"])
def test_planar_paths_match_int64_reference_at_the_block_boundary(
        m, path, monkeypatch):
    # the set has 2^(2^m) rows: BLOCK_ROWS at that count takes the Python
    # kernel, one below it the numpy kernel, and the other is refused
    count = 2 ** (2 ** m)
    monkeypatch.setattr(search, "BLOCK_ROWS",
                        count if path == "python" else count - 1)
    reference = planar_reference(m)
    kernel = search._planar_kernel
    calls = []
    monkeypatch.setattr(search, "_planar_kernel",
                        lambda m, h: calls.append(m) or kernel(m, h))
    assert_same_planar_set(planar_extreme_points(m), reference)
    assert calls == ([] if path == "python" else [m])


def test_planar_int8_bound_refuses_before_any_array(monkeypatch):
    # with the dimension limit lifted, m = 7 would give numerators up to
    # 128, past int8: the bound refuses before the tables or any array
    # exist
    def no_tables(m, n):
        raise AssertionError("an array was formed before the int8 bound")

    monkeypatch.setattr(search, "MAX_PIPELINE_DIMENSION", 2 ** 7)
    monkeypatch.setattr(search, "_tables", no_tables)
    with pytest.raises(ResourceBudgetError, match="int8"):
        planar_extreme_points(7)


# ---------------------------------------------------------------------------
# exact double description
# ---------------------------------------------------------------------------

def dd_points(m, n):
    return ExtremeSet.from_pairs(
        m, n, dd.double_description(_tables(m, n)["vertices"]))


def refuse_dd(rows):
    raise AssertionError("double description ran")


@pytest.mark.parametrize("m, n", [(2, 2), (3, 2), (1, 3), (1, 4)])
def test_double_description_matches_brute_force(m, n):
    assert dd_points(m, n) == brute_force_vertices(m, n)


def test_double_description_matches_the_complete_walk(set23):
    # the first check of (2,3) by a second route: brute force refuses it
    with pytest.raises(ResourceBudgetError, match="5857280"):
        brute_force_vertices(2, 3)
    walked, cursor = orbit_points(2, 3)
    assert cursor is None and walked.complete
    assert dd_points(2, 3) == walked == set23
    assert len(set23) == 90


@pytest.mark.parametrize("m", [1, 2, 3])
def test_double_description_matches_planar(m):
    assert dd_points(m, 2) == planar_extreme_points(m)


@pytest.mark.parametrize("n", range(3, 9))
def test_complete_linear_balls_are_cross_polytopes(n):
    # the unit ball of linear forms is the l1 ball, whose vertices are the
    # signed unit vectors: the closed form is what double description
    # finds (the walk took 10 s on (1,6))
    got = extreme_points(1, n)
    assert got == dd_points(1, n) and got.complete
    assert len(got) == 2 * n


@pytest.mark.parametrize("m, n", [(1, 3), (2, 1), (2, 2), (3, 2), (1, 16)])
def test_closed_forms_ignore_a_budget_and_refuse_a_cursor(m, n, monkeypatch):
    # a closed-form shape is complete at any budget, and no run of it
    # writes a cursor, so any cursor is refused
    with pytest.raises(BudgetExceeded) as info:
        extreme_points(2, 3, budget=1)
    cursor = {**info.value.resume, "m": m, "n": n}
    monkeypatch.setattr(search, "_anchored_walk", None)
    complete = extreme_points(m, n)
    for budget in (0, 1, 5):
        got = extreme_points(m, n, budget=budget)
        assert got == complete and got.complete
    for resume in (cursor, {}, [1]):
        with pytest.raises(ValueError,
                           match="resume state belongs to a different search"):
            extreme_points(m, n, budget=1, resume=resume)


# budgeted runs of the closed-form shapes (3,2) and (1,6), in a fresh
# interpreter with numpy blocked; prints each set's size and completeness
CLOSED_FORMS_WITHOUT_NUMPY = (
    "import json, sys\n"
    "sys.modules['numpy'] = None\n"
    "from extremeforms.search import extreme_points\n"
    "sets = [extreme_points(3, 2, budget=1), extreme_points(1, 6, budget=5)]\n"
    "print(json.dumps([[len(s), s.complete] for s in sets]))")


def test_budgeted_closed_forms_load_no_numpy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", CLOSED_FORMS_WITHOUT_NUMPY],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[256, True], [12, True]]


def test_complete_runs_route_by_shape(monkeypatch, set32, planar3):
    # complete runs of (2,3) and (2,4) go to double description, those of
    # n = 2 (m > 1) to planar_extreme_points, those of m = 1 or n = 1 to
    # the cross-polytope, and budgeted and resumed runs of (2,3) and (2,4)
    # to the walk
    dd_calls = []
    engine = dd.double_description

    def counting(rows):
        dd_calls.append(len(rows))
        return engine(rows)

    planar_calls = []
    planar = search.planar_extreme_points

    def counting_planar(m):
        planar_calls.append(m)
        return planar(m)

    monkeypatch.setattr(dd, "double_description", counting)
    monkeypatch.setattr(search, "planar_extreme_points", counting_planar)
    # a complete run builds no walk table
    monkeypatch.setattr(search, "_tables", None)
    monkeypatch.setattr(search, "_anchored_walk", None)
    extreme_points(2, 3)
    assert dd_calls == [32]
    # the parallelotopes on R^2 take the planar closed form, and the
    # linear forms the cross-polytope
    assert extreme_points(3, 2) == set32 == planar3
    assert len(extreme_points(1, 5)) == 10
    assert len(extreme_points(1, 2)) == 4
    assert planar_calls == [3] and dd_calls == [32]
    monkeypatch.undo()
    monkeypatch.setattr(dd, "double_description", refuse_dd)
    monkeypatch.setattr(search, "planar_extreme_points", None)
    # budgeted and resumed runs walk; n = 1 gives its two points either way
    assert extreme_points(3, 1).coefficient_tuples() == {(1,), (-1,)}
    assert len(extreme_points(2, 3, budget=walk_bound(2, 3))) == 90
    with pytest.raises(BudgetExceeded) as info:
        extreme_points(2, 3, budget=0)
    assert len(extreme_points(2, 3, resume=info.value.resume)) == 90


@pytest.mark.parametrize("m", range(1, 5))
def test_complete_runs_of_n_1_take_no_walk(m, monkeypatch):
    # the ball of n = 1 is [-1, 1]; the walk's own functions give the same
    # two points
    walked, cursor = per_basis_points(m, 1)
    assert cursor is None
    monkeypatch.setattr(search, "_tables", None)
    monkeypatch.setattr(search, "_anchored_walk", None)
    got = extreme_points(m, 1)
    assert got == walked == brute_force_vertices(m, 1)
    assert got.pairs() == [(1, (-1,)), (1, (1,))] and got.complete


@pytest.mark.parametrize("m, n", [(2, 5), (1, 17), (3, 3)])
def test_complete_runs_refuse_past_the_dimension_before_any_work(
        m, n, monkeypatch):
    monkeypatch.setattr(dd, "double_description", refuse_dd)
    monkeypatch.setattr(search, "_tables", None)
    monkeypatch.setattr(search, "_anchored_walk", None)
    with pytest.raises(ResourceBudgetError,
                       match=f"n\\^m = {n ** m} exceeds supported dimension"):
        extreme_points(m, n)


def polytope_vertices(rows):
    """Vertices of {a : <v, a> <= 1} by every square subsystem, solved
    by plain Gauss-Jordan and kept when feasible, as (d, u) pairs."""
    dim = len(rows[0])
    found = set()
    for subset in combinations(rows, dim):
        if fraction_rank(subset) < dim:
            continue
        a = fraction_solve(subset, [1] * dim)
        if all(inner(a, v) <= 1 for v in rows):
            d = math.lcm(*(x.denominator for x in a))
            found.add((d, tuple(int(x * d) for x in a)))
    return found


@pytest.mark.parametrize("seed", range(12))
def test_double_description_matches_subsystems_on_random_polytopes(seed):
    # small integer rows inside a box: many ties and degenerate vertices,
    # where the combinatorial pair test must still find every edge
    rng = random.Random(seed)
    dim = 2 + seed % 3
    box = [tuple(s * (i == j) for j in range(dim))
           for i in range(dim) for s in (1, -1)]
    rows = box + [tuple(rng.randint(-2, 2) for _ in range(dim))
                  for _ in range(3 + seed % 4)]
    rows = list(dict.fromkeys(r for r in rows if any(r)))
    assert set(dd.double_description(rows)) == polytope_vertices(rows)


def test_double_description_loads_no_numpy():
    code = ("import sys, extremeforms.dd\n"
            "sys.exit('numpy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_double_description_refuses_rows_that_cut_no_polytope():
    # an interval's two rays share no tight row, which the test needs
    with pytest.raises(ValueError, match="length >= 2"):
        dd.double_description([(1,), (-1,), (2,)])
    with pytest.raises(InternalInvariantError, match="do not span"):
        dd.double_description([(1, 0), (-1, 0)])
    # a1 <= 1, -a1 <= 1, a2 <= 1 is unbounded below in a2: a ray at t = 0
    with pytest.raises(InternalInvariantError, match="not a vertex"):
        dd.double_description([(1, 0), (-1, 0), (0, 1)])


# ---------------------------------------------------------------------------
# budget and resume
# ---------------------------------------------------------------------------

def test_extreme_points_budget_and_resume(set23):
    # five budgets of 500 bases cover the 2304 bases of (2,3), and their
    # points are the complete run's, which double description lists
    gathered = set()
    resume = None
    rounds = 0
    while True:
        try:
            part = extreme_points(2, 3, budget=500, resume=resume)
        except BudgetExceeded as stop:
            part = stop.partial
            resume = stop.resume
            assert not part.complete
            gathered |= part.coefficient_tuples()
            for p in part.points:
                assert is_extreme(p)
            rounds += 1
            assert rounds < 10
        else:
            gathered |= part.coefficient_tuples()
            break
    assert rounds == 4
    assert gathered == set23.coefficient_tuples()


def test_extreme_points_budget_zero():
    with pytest.raises(BudgetExceeded) as info:
        extreme_points(2, 3, budget=0)
    assert len(info.value.partial) == 0
    assert info.value.resume is not None


def test_resume_at_final_basis_is_empty():
    # a cursor at the last basis leaves nothing to scan
    *_, last = _anchored_walk(2, 3, None)[1]
    with pytest.raises(BudgetExceeded) as info:
        extreme_points(2, 3, budget=0)
    cursor = {**info.value.resume, "last_basis": list(last)}
    resumed = extreme_points(2, 3, resume=cursor)
    assert len(resumed) == 0
    assert resumed.complete


def _first_bases_points(m, n, count):
    """The extreme points that the first count bases of the walk reach,
    through the walk's own functions: extreme_points takes the closed
    forms for (1,2), (2,2), (1,3) and (3,2)."""
    return per_basis_points(m, n, budget=count)[0]


@pytest.mark.parametrize("m, n", [(1, 2), (2, 2), (1, 3), (3, 2), (2, 3)])
def test_det_adjugate_exact_branch(m, n, monkeypatch):
    # the float guess verifies on every basis the pipeline meets, so a float
    # determinant of 0 is the only way to reach the exact branch; the first
    # 50 bases of each walk (every basis below (2,3)) go through both
    size = n ** m
    vmat = _tables(m, n)["vmat"]
    mats = [vmat[[0, *chosen]]
            for chosen in islice(_anchored_walk(m, n, None)[1], 50)]
    float_pairs = [_det_adjugate(h) for h in mats]
    expected = _first_bases_points(m, n, 50)
    monkeypatch.setattr(np.linalg, "det", lambda a: 0.0)
    for h, (det, adj) in zip(mats, float_pairs):
        d, exact = _det_adjugate(h)
        assert d > 0
        assert np.array_equal(h @ exact, d * np.eye(size, dtype=np.int64))
        assert det % d == 0
        assert np.array_equal(adj, (det // d) * exact)
    assert _first_bases_points(m, n, 50) == expected
    with pytest.raises(InternalInvariantError):
        _det_adjugate(np.ones((2, 2), dtype=np.int64))


# ---------------------------------------------------------------------------
# the basis kernel
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def int_sign_block(size):
    return np.array([(1, *rest) for rest in product((1, -1), repeat=size - 1)],
                    dtype=np.int64)


def kernel_keys(m, n, row_indices):
    """The keys _process_basis returns for one basis, as a set of
    (d, u) pairs."""
    dens, nums = _process_basis(m, n, row_indices)
    assert dens.dtype == nums.dtype == np.int64
    assert nums.shape == (len(dens), n ** m)
    keys = set(zip(dens.tolist(), map(tuple, nums.tolist())))
    assert len(keys) == len(dens), "a key returned twice"
    return keys


def reference_basis_keys(m, n, row_indices):
    """The kernel without reassociation: numerators for every sign vector,
    tested against every ball row, in int64 (exact for n^m <= 16)."""
    tables = _tables(m, n)
    det, adj = _det_adjugate(tables["vmat"][row_indices])
    numerators = int_sign_block(n ** m) @ adj.T
    values = numerators @ tables["ball"].T
    feasible = numerators[np.abs(values).max(axis=1) <= det]
    keys = set()
    for row in feasible.tolist():
        g = 0
        for x in [det, *row]:
            g = math.gcd(g, x)
        keys.add((det // g, tuple(x // g for x in row)))
    return keys


@pytest.mark.parametrize("m, n, count", [(2, 2, None), (3, 2, None),
                                         (2, 3, None), (4, 2, None),
                                         (2, 4, 20), (1, 5, None),
                                         (1, 10, 40)])
def test_process_basis_matches_reference_kernel(m, n, count):
    # (4, 2): no ball row lies outside its one basis, so every prefix passes
    # the slack test on empty partial sums and all 2^15 sign vectors are
    # solved; (1, 10): ten coordinates, each tested on its own
    bases = list(islice(_anchored_walk(m, n, None)[1], count))
    assert len(bases) == count if count else bases
    for chosen in bases:
        rows = [0, *chosen]
        assert kernel_keys(m, n, rows) == reference_basis_keys(m, n, rows), \
            rows


def test_process_basis_matches_reference_on_the_kg_scan():
    # every 10th of the 300 bases that kg --m 4 scans by default
    bases = list(islice(_anchored_walk(2, 4, None)[1], 300))
    for chosen in bases[::10]:
        rows = [0, *chosen]
        assert kernel_keys(2, 4, rows) == reference_basis_keys(2, 4, rows), \
            rows


def test_kernel_never_materializes_all_sign_vectors():
    # the (2,4) kernel prunes prefixes instead of testing 2^15 sign vectors:
    # on every 10th basis of the kg scan one call traces at most 1 MB of
    # heap (0.47 MB), where 2^15 sign vectors and their 48 outside products
    # alone take 16.8 MB in float64
    bases = list(islice(_anchored_walk(2, 4, None)[1], 300))
    peaks = []
    for chosen in bases[::10]:
        tracemalloc.start()
        try:
            _process_basis(2, 4, [0, *chosen])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 1 << 20, max(peaks)


def test_kernel_with_no_surviving_prefix_returns_empty_keys(monkeypatch):
    # a negative denominator fails every prefix at the first coordinate:
    # the early exit returns empty int64 arrays in the shape of the keys
    det_adjugate = search._det_adjugate
    monkeypatch.setattr(search, "_det_adjugate",
                        lambda mat: (-1, det_adjugate(mat)[1]))
    chosen = next(_anchored_walk(2, 3, None)[1])
    dens, nums = _process_basis(2, 3, [0, *chosen])
    assert dens.dtype == nums.dtype == np.int64
    assert dens.shape == (0,) and nums.shape == (0, 9)
    keys = set()
    search._basis_keys(2, 3, chosen, keys, {})
    assert keys == set()


def test_ball_position_pairs_antipodes():
    for m, n in [(2, 2), (2, 3), (2, 4), (4, 2)]:
        tables = _tables(m, n)
        vertices, ball = tables["vertices"], tables["ball"]
        for i, v in enumerate(vertices):
            row = ball[tables["ball_position"][i]].tolist()
            assert row in (list(v), [-c for c in v])


def test_trace_basis_counter_names_the_kernel():
    # bench/trace_cli.py counts bases by wrapping this function by name; a
    # rename would silently zero search.bases in traced runs
    spec = importlib.util.spec_from_file_location(
        "trace_cli", ROOT / "bench" / "trace_cli.py")
    trace_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_cli)
    module, name = trace_cli.BASIS_COUNTER
    func = getattr(importlib.import_module(module), name)
    assert callable(func)
    assert list(inspect.signature(func).parameters) == [
        "m", "n", "row_indices"]


def test_partial_2_4_pinned(partial24):
    # 320 points and their digest, recorded before the float64 kernel
    part = partial24
    lines = sorted(",".join(str(c) for c in p.coeffs) for p in part)
    assert len(part) == 320
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "764568e45115caf04aa18622f33a44d1a1ddfa536498d84cc1396a25b1302ce7")


def test_finalize_ignores_extra_members_of_known_orbits(set23):
    # orbits partition the keys: adding further members of orbits already
    # present must leave the expanded set unchanged
    pairs = set(set23.pairs())
    vmat = _tables(2, 3)["vmat"]
    keys = set(sorted(pairs)[::7])
    extra = {(d, tuple((vmat[i] * u).tolist()))
             for d, u in keys for i in (1, 5, 17, 30)}
    assert extra - keys
    base = search._finalize(2, 3, keys, complete=False)
    assert search._finalize(2, 3, keys | extra, complete=False) == base
    assert search._finalize(2, 3, pairs, complete=True) == set23


def test_kernel_bound_covers_every_admitted_size():
    # the integer test agrees with size^2 (size-1)^((size-1)/2) < 2^53
    for size in range(1, 40):
        bound = size ** 2 * (size - 1) ** ((size - 1) / 2)
        assert _kernel_exact(size) == (bound < 2 ** 53), size
    assert all(_kernel_exact(s) for s in range(1, MAX_PIPELINE_DIMENSION + 1))
    assert not _kernel_exact(25)


def test_kernel_bound_refuses_before_any_basis(monkeypatch):
    def never(*args):
        raise AssertionError("a basis was processed")

    monkeypatch.setattr(search, "MAX_PIPELINE_DIMENSION", 27)
    monkeypatch.setattr(search, "_process_basis", never)
    with pytest.raises(ResourceBudgetError, match="2\\^53"):
        extreme_points(3, 3, budget=1)


# ---------------------------------------------------------------------------
# orbits of bases under the anchor's stabilizer
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m, n, order", [(2, 2, 8), (3, 2, 48), (2, 3, 72),
                                         (2, 4, 1152), (4, 2, 384)])
def test_stabilizer_is_the_coordinate_group(m, n, order):
    perms, table = search._stabilizer(m, n)
    size = n ** m
    assert order == math.factorial(n) ** m * math.factorial(m)
    assert perms.shape == (order, size)
    assert table.shape == (order, len(_tables(m, n)["vertices"]))
    assert table.dtype == np.uint8
    assert (np.sort(perms, axis=1) == np.arange(size)).all()
    # distinct, and closed under composition: h after g sends i to
    # perms[h, perms[g, i]]; entries are below 16, so 4 bits each
    weights = np.left_shift(np.uint64(1),
                            4 * np.arange(size, dtype=np.uint64))

    def codes(rows):
        return (rows.astype(np.uint64) * weights).sum(axis=-1)

    elements = np.sort(codes(perms))
    assert (elements[1:] != elements[:-1]).all()
    for g in perms:
        assert np.isin(codes(perms[:, g]), elements).all()
    # each element fixes the anchor, maps V onto V, and the table holds
    # the ball position of each image
    tables = _tables(m, n)
    vertices = tables["vertices"]
    index = {v: i for i, v in enumerate(vertices)}
    for g, positions in zip(perms, table):
        images = np.empty_like(tables["vmat"])
        images[:, g] = tables["vmat"]
        targets = [index[v] for v in map(tuple, images.tolist())]
        assert targets[0] == 0
        assert sorted(targets) == list(range(len(vertices)))
        assert positions.tolist() == tables["ball_position"][targets].tolist()


def _orbit_path_keys(m, n, chosen, monkeypatch):
    """The keys _basis_keys adds for one basis, and the rows it solved."""
    solved = []
    kernel = search._process_basis

    def recording(m, n, row_indices):
        solved.append(list(row_indices))
        return kernel(m, n, row_indices)

    monkeypatch.setattr(search, "_process_basis", recording)
    keys = set()
    search._basis_keys(m, n, chosen, keys, {})
    monkeypatch.setattr(search, "_process_basis", kernel)
    return keys, solved


@pytest.mark.parametrize("m, n, count", [(2, 3, None), (2, 4, 300)])
def test_orbit_keys_match_the_kernel_on_each_basis(m, n, count, monkeypatch):
    # g^-1 applied to the keys of the canonical image of B is keys(B)
    moved = 0
    for chosen in islice(_anchored_walk(m, n, None)[1], count):
        keys, solved = _orbit_path_keys(m, n, chosen, monkeypatch)
        assert len(solved) == 1
        moved += solved[0] != [0, *chosen]
        assert keys == kernel_keys(m, n, [0, *chosen]), chosen
    assert moved > 0


# a (2,4) extreme point of the 1/6 class, found by a linear program and
# certified by is_extreme; it is tight on 48 vertices, the anchor among them
SIXTH_CLASS_2_4 = (6, (1, 1, 1, 1, 1, -1, 1, 1, -1, 0, -1, 2, -1, 0, 1, 0))


def test_orbit_keys_match_the_kernel_off_the_two_scan_classes(monkeypatch):
    # every point of (2,3) and of the 300-basis (2,4) scan is tight on all
    # of V, so each of those bases finds a group-invariant key set and
    # cannot tell g from g^-1; a basis tight for a 1/6-class point can
    d, u = SIXTH_CLASS_2_4
    point = form([F(x, d) for x in u], 2, 4)
    assert is_extreme(point).extreme
    tables = _tables(2, 4)
    tight = [int(i) for i in tables["ball_rows"][1:]
             if abs(inner(point.coeffs, tables["vertices"][i])) == 1]
    chosen = []
    for i in tight:
        if np.linalg.matrix_rank(tables["vmat"][[0, *chosen, i]]) \
                == len(chosen) + 2:
            chosen.append(i)
    assert len(chosen) == 15
    assert SIXTH_CLASS_2_4 in kernel_keys(2, 4, [0, *chosen])
    perms, table = search._stabilizer(2, 4)
    images = [tables["ball_rows"][np.sort(positions[chosen])].tolist()
              for positions in table[::97]]
    key_sets = set()
    for basis in [chosen, *images]:
        found, _ = _orbit_path_keys(2, 4, tuple(basis), monkeypatch)
        assert found == kernel_keys(2, 4, [0, *basis]), basis
        key_sets.add(frozenset(found))
    assert len(key_sets) > 1  # the images do not all share one key set


def per_basis_points(m, n, budget=None, resume=None):
    """The pipeline as it ran before orbits of bases: the kernel on every
    basis of the walk. (points, cursor), cursor None for a complete run;
    the cursor names the last basis walked when one is left over."""
    last, bases = _anchored_walk(m, n, resume)
    keys = set()
    for chosen in islice(bases, budget):
        keys |= kernel_keys(m, n, [0, *chosen])
        last = chosen
    if budget is not None and next(bases, None) is not None:
        cursor = {"format-version": 1, "kind": "pipeline", "m": m, "n": n,
                  "last_basis": None if last is None else list(last)}
        return search._finalize(m, n, keys, complete=False), cursor
    return search._finalize(m, n, keys, complete=True), None


def walk_bound(m, n):
    """A budget the walk cannot exhaust: the (n^m - 1)-subsets of its
    candidate rows, at least the anchored bases (2304 for (2,3))."""
    return math.comb(len(_tables(m, n)["representatives"]), n ** m - 1)


def orbit_points(m, n, budget=None, resume=None):
    """The orbit walk's points and cursor. A complete run of a ball that
    is not a parallelotope takes double description, so budget None gives
    the walk a budget that completes it."""
    if budget is None:
        budget = walk_bound(m, n)
    try:
        return extreme_points(m, n, budget, resume), None
    except BudgetExceeded as stop:
        return stop.partial, stop.resume


@pytest.mark.parametrize("m, n, budget", [
    (2, 4, 1), (2, 4, 15), (2, 4, 16), (2, 4, 17), (2, 4, 25), (2, 4, 300)])
def test_orbit_walk_matches_the_per_basis_walk(m, n, budget):
    # budgets of one basis, of a few around 16 and of the kg scan, each
    # with a resume
    expected, cursor = per_basis_points(m, n, budget)
    points, resume = orbit_points(m, n, budget)
    assert cursor is not None
    assert resume == cursor
    assert points == expected
    assert points.complete == expected.complete
    assert orbit_points(m, n, budget, resume) == per_basis_points(
        m, n, budget, cursor)


def test_orbit_walk_matches_the_per_basis_walk_unbudgeted():
    expected, _ = per_basis_points(2, 3)
    points, cursor = orbit_points(2, 3)
    assert cursor is None
    assert points == expected


@pytest.mark.parametrize("m, n, budget, runs", [(2, 3, None, 42),
                                                (2, 4, 300, 58),
                                                (2, 4, 25, 13)])
def test_kernel_runs_once_per_orbit(m, n, budget, runs, monkeypatch):
    # the orbit counts of the walked bases; the walk calls the kernel by
    # its module-global name, which bench/trace_cli.py wraps as well
    calls = []
    kernel = search._process_basis

    def counting(*args):
        calls.append(args[2])
        return kernel(*args)

    monkeypatch.setattr(search, "_process_basis", counting)
    orbit_points(m, n, budget)
    assert len(calls) == runs
    assert len({tuple(rows) for rows in calls}) == runs


# ---------------------------------------------------------------------------
# extremality certificates
# ---------------------------------------------------------------------------

def test_is_extreme_frozen_positive():
    cert = is_extreme(form((0, 0, 0, 1), 2, 2))
    assert cert
    assert cert.in_ball
    assert cert.norm_value == 1
    assert cert.tight_count == 8  # every tensor vertex has |last entry| = 1
    assert cert.tight_rank == 4
    assert len(cert.tight_basis) == 4
    assert fraction_rank(cert.tight_basis) == 4


def test_is_extreme_frozen_midpoint():
    h = F(1, 2)
    cert = is_extreme(form((h, h, 0, 0), 2, 2))
    assert not cert
    assert cert.in_ball
    assert cert.tight_count == 4
    assert cert.tight_rank == 2
    offset = cert.midpoint_offset
    assert offset is not None
    assert any(c != 0 for c in offset.coeffs)
    up = form(tuple(a + b for a, b in zip((h, h, 0, 0), offset.coeffs)), 2, 2)
    down = form(tuple(a - b for a, b in zip((h, h, 0, 0), offset.coeffs)), 2, 2)
    assert in_unit_ball(up)
    assert in_unit_ball(down)
    # frozen: null vector with x[free] = 1 at the first non-pivot column
    assert offset.coeffs == (-h, h, 0, 0)
    assert_orthogonal_to_tight_rows(form((h, h, 0, 0), 2, 2), offset)


def test_is_extreme_frozen_midpoint_r3(set23):
    h = F(1, 2)
    a = (-h, -h, 0, -h, h, 0, 0, 0, 0)
    b = (0, 0, 0, 0, -1, 0, 0, 0, 0)
    assert a in set23 and b in set23
    mid = form((F(x + y) / 2 for x, y in zip(a, b)), 2, 3)
    cert = is_extreme(mid)
    assert not cert
    assert cert.in_ball
    assert (cert.tight_count, cert.tight_rank) == (8, 4)
    assert cert.midpoint_offset.coeffs == (-h, h, 0, 0, 0, 0, 0, 0, 0)
    assert_orthogonal_to_tight_rows(mid, cert.midpoint_offset)


def test_is_extreme_frozen_outside():
    h = F(1, 2)
    cert = is_extreme(form((h, h, h, h), 2, 2))
    assert not cert
    assert not cert.in_ball
    assert cert.norm_value == 2
    assert cert.norm_witness == (1, 1, 1, 1)
    assert cert.midpoint_offset is None


def test_every_emitted_point_is_certified(set22, set32):
    for got in (set22, set32):
        size = got.n ** got.m
        for p in got.points:
            cert = is_extreme(p)
            assert cert
            assert cert.norm_value == 1
            assert cert.tight_rank == size


# ---------------------------------------------------------------------------
# general-case regression: bilinear forms on R^3
# ---------------------------------------------------------------------------
# No complete reference list exists for (m, n) = (2, 3) and brute-force
# vertex enumeration exceeds its work guard, so this case is accepted by
# properties (certificates, closure, denominators) and its count is frozen
# as a regression value.

def test_bilinear_r3_regression_count(set23):
    assert len(set23) == 90


def test_bilinear_r3_denominators(set23):
    assert {c.denominator for p in set23.points for c in p.coeffs} == {1, 2}


def test_bilinear_r3_closures(set23):
    keys = set23.coefficient_tuples()
    for k in keys:
        assert tuple(-c for c in k) in keys
        transposed = tuple(k[3 * j + i] for i in range(3) for j in range(3))
        assert transposed in keys


def test_bilinear_r3_contains_coordinate_and_half_points(set23):
    e11 = tuple(F(int(i == 0)) for i in range(9))
    assert e11 in set23
    chsh_embedded = (F(1, 2), F(1, 2), F(0), F(1, 2), F(-1, 2),
                     F(0), F(0), F(0), F(0))
    assert chsh_embedded in set23


def test_bilinear_r3_sampled_certificates(set23):
    rng = random.Random(23)
    for p in rng.sample(list(set23.points), 12):
        cert = is_extreme(p)
        assert cert
        assert cert.norm_value == 1
        assert cert.tight_rank == 9


# ---------------------------------------------------------------------------
# type validation
# ---------------------------------------------------------------------------

def test_max_denominator_is_per_cell():
    # 2/6 = 1/3 and 3/6 = 1/2: the row's denominator 6 is no cell's
    hand_built = ExtremeSet(1, 2, [6], [[2, 3]])
    assert hand_built.max_denominator() == 3
    assert hand_built.points[0].coeffs == (F(1, 3), F(1, 2))
    # the smaller denominator wins: 1/5 beats the cells 1/3 and 1/2 of
    # the row over 6, which is visited first
    smaller_wins = ExtremeSet.from_pairs(1, 2, [(6, (2, 3)), (5, (1, 0))])
    assert smaller_wins.max_denominator() == 5
    assert ExtremeSet.from_points(1, 2, ()).max_denominator() == 1


def numpy_max_denominator(extreme_set):
    """max_denominator by a whole-set numpy scan, the reference."""
    dens = extreme_set.dens.astype(np.int64)
    nums = extreme_set.nums.astype(np.int64)
    if not len(dens):
        return 1
    return max(1, int((dens // np.gcd(nums, dens[:, None]).min(axis=1))
                      .max()))


@pytest.mark.parametrize("block", [1, 2, 7])
def test_max_denominator_matches_numpy_at_the_block_boundary(
        monkeypatch, set23, planar3, block):
    # sets of exactly BLOCK_ROWS and BLOCK_ROWS + 1 rows, from windows of
    # sets with denominators 1 to 4 and of hand-built rows up to 12
    monkeypatch.setattr(search, "BLOCK_ROWS", block)
    hand_built = [(6, (2, 3, 0, 0)), (5, (1, 0, 0, 0)), (1, (0, 0, 1, 0)),
                  (6, (0, 0, 2, 3)), (10, (5, 2, 0, 0)), (4, (2, 1, 0, 0)),
                  (3, (1, 1, 1, 0)), (12, (4, 3, 0, 0)), (9, (3, 1, 0, 0))]
    sources = [(2, 3, set23.pairs()), (3, 2, planar3.pairs()),
               (2, 2, hand_built)]
    for m, n, pairs in sources:
        for size in (block, block + 1):
            for start in range(0, len(pairs) - size + 1, 5):
                window = ExtremeSet.from_pairs(m, n,
                                               pairs[start:start + size])
                assert window.max_denominator() \
                    == numpy_max_denominator(window)


def test_double_description_refuses_past_its_ray_cap(monkeypatch):
    # (2,3) peaks at 252 live rays, (1,8) at 22
    monkeypatch.setattr(dd, "MAX_DD_RAYS", 252)
    assert len(extreme_points(2, 3)) == 90
    monkeypatch.setattr(dd, "MAX_DD_RAYS", 251)
    with pytest.raises(ResourceBudgetError,
                       match="passed 251 live rays at row 23 of 32"):
        extreme_points(2, 3)
    monkeypatch.setattr(dd, "MAX_DD_RAYS", 22)
    assert len(extreme_points(1, 8)) == 16


def test_from_points_sorts_and_rejects_rows_past_int64(set22):
    shuffled = list(set22.points)
    random.Random(3).shuffle(shuffled)
    assert ExtremeSet.from_points(2, 2, shuffled + shuffled[:3]) == set22
    with pytest.raises(ValueError, match="point 1: does not fit int64"):
        ExtremeSet.from_points(1, 2, [(F(1), F(0)),
                                      (F(1, 2 ** 63), F(0))])
    wide = (F(2 ** 63 - 1), F(0))
    assert ExtremeSet.from_points(1, 2, [wide]).nums.tolist() == [
        [2 ** 63 - 1, 0]]


@pytest.mark.parametrize("rows", [search.BLOCK_ROWS, search.BLOCK_ROWS + 1],
                         ids=["one-block", "past-one-block"])
def test_int64_numerators_that_fit_are_stored_as_int8(monkeypatch, rows):
    # past one block the narrowing is one numpy copy into a writable view
    writable_views, int_view = [], search.int_view

    def recording_view(flat, shape, writable=False):
        writable_views.append(writable)
        return int_view(flat, shape, writable)

    monkeypatch.setattr(search, "int_view", recording_view)
    nums = array("q", [i % 255 - 127 for i in range(rows * 4)])
    dens = array("q", [1] * rows)
    narrow = ExtremeSet(2, 2, dens, nums)
    assert narrow._nums.typecode == "b"
    assert narrow._nums.tolist() == nums.tolist()
    assert writable_views.count(True) == (rows > search.BLOCK_ROWS)
    # one entry past int8 keeps the int64 array itself, with no copy
    nums[-1] = 128
    assert ExtremeSet(2, 2, dens, nums)._nums is nums
