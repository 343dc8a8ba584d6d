"""Tests for the extreme-point search pipeline.

Frozen values come from hand computation on the 2x2 bilinear case, from the
complete reference list in known_points.py, and from brute-force oracles in
support.py (subset rank scans, raw polytope vertex enumeration). The planar
fast path and the general pipeline are checked against each other, which is
the strongest internal consistency statement available for m = 3.
"""

from fractions import Fraction
from functools import lru_cache
import hashlib
import importlib
import importlib.util
import inspect
from itertools import combinations, islice, product
import math
import os
from pathlib import Path
import random
import subprocess
import sys

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
from extremeforms import search
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
from support import fraction_rank

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
    bases = list(_anchored_walk(m, n, None, None))
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
    bases = list(_anchored_walk(2, 2, None, None))
    assert bases == oracle
    assert len(bases) == 1


def test_anchored_bases_budget_and_resume():
    # budget-1 steps, each resumed from the previous cursor, reassemble the
    # unbudgeted (2,3) walk
    full = list(_anchored_walk(2, 3, None, None))
    collected = []
    resume = None
    for _ in range(len(full) + 1):
        try:
            for chosen in _anchored_walk(2, 3, 1, resume):
                collected.append(chosen)
        except BudgetExceeded as stop:
            resume = stop.resume
        else:
            break
    assert collected == full

    with pytest.raises(BudgetExceeded) as info:
        list(_anchored_walk(2, 3, 0, None))
    assert info.value.resume is not None


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


def test_imports_leave_the_process_pool_unloaded():
    # the pool module is imported only when a parallel scan starts
    code = ("import sys\n"
            "import extremeforms.cli, extremeforms.search, "
            "extremeforms.storage, extremeforms.constants, "
            "extremeforms.grothendieck\n"
            "sys.exit('concurrent.futures.process' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


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


@pytest.mark.parametrize("m,n", [(1, 2), (1, 3), (2, 2)])
def test_oracle_equivalence(m, n):
    direct = brute_force_vertices(m, n)
    pipeline = extreme_points(m, n)
    assert direct.coefficient_tuples() == pipeline.coefficient_tuples()


def test_brute_force_guard():
    with pytest.raises(ResourceBudgetError):
        brute_force_vertices(2, 3)


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

def test_planar_matches_general_bilinear(set22, planar2):
    assert planar2.coefficient_tuples() == set22.coefficient_tuples()


def test_planar_matches_general_trilinear(set32, planar3):
    assert planar3.coefficient_tuples() == set32.coefficient_tuples()


def test_planar_matches_general_quadrilinear(planar4):
    # the largest set _finalize is handed: 65536 points from 32768 keys
    assert extreme_points(4, 2) == planar4


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
    with pytest.raises(ResourceBudgetError):
        planar_extreme_points(5)


# ---------------------------------------------------------------------------
# budget, resume, workers
# ---------------------------------------------------------------------------

def test_extreme_points_budget_and_resume():
    full = extreme_points(1, 3)
    assert len(full) == 6  # cross-polytope in R^3

    gathered = set()
    resume = None
    rounds = 0
    while True:
        try:
            part = extreme_points(1, 3, budget=1, resume=resume)
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
    assert gathered == full.coefficient_tuples()


def test_extreme_points_budget_zero():
    with pytest.raises(BudgetExceeded) as info:
        extreme_points(1, 3, budget=0)
    assert len(info.value.partial) == 0
    assert info.value.resume is not None


def test_resume_at_final_basis_is_empty_for_any_worker_count():
    # a cursor at the last basis leaves nothing to scan; a resumed run must
    # walk its cursor even when workers > 1 asks for the process pool
    *_, last = _anchored_walk(2, 3, None, None)
    with pytest.raises(BudgetExceeded) as info:
        extreme_points(2, 3, budget=0)
    cursor = {**info.value.resume, "last_basis": list(last)}
    serial = extreme_points(2, 3, resume=cursor, workers=1)
    pooled = extreme_points(2, 3, resume=cursor, workers=2)
    assert len(serial) == 0
    assert pooled.coefficient_tuples() == serial.coefficient_tuples()


def test_extreme_points_workers_deterministic(set32):
    two = extreme_points(3, 2, workers=2)
    assert [p.coeffs for p in two.points] == [p.coeffs for p in set32.points]


def _first_bases_points(m, n, count):
    """The extreme points that the first count bases of the walk reach."""
    try:
        return extreme_points(m, n, budget=count)
    except BudgetExceeded as stop:
        return stop.partial


@pytest.mark.parametrize("m, n", [(1, 2), (2, 2), (1, 3), (3, 2), (2, 3)])
def test_det_adjugate_exact_branch(m, n, monkeypatch):
    # the float guess verifies on every basis the pipeline meets, so a float
    # determinant of 0 is the only way to reach the exact branch; the first
    # 50 bases of each walk (every basis below (2,3)) go through both
    size = n ** m
    vmat = _tables(m, n)["vmat"]
    mats = [vmat[[0, *chosen]]
            for chosen in islice(_anchored_walk(m, n, None, None), 50)]
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
                                         (2, 4, 20)])
def test_process_basis_matches_reference_kernel(m, n, count):
    # (4, 2): no ball row lies outside its one basis, and the sign vectors
    # are longer than the kernel's head, so the prefix loop runs on empty
    # partial sums
    bases = list(islice(_anchored_walk(m, n, None, None), count))
    assert len(bases) == count if count else bases
    for chosen in bases:
        rows = [0, *chosen]
        keys = set()
        _process_basis(m, n, rows, keys)
        assert keys == reference_basis_keys(m, n, rows), rows


def test_process_basis_matches_reference_on_the_kg_scan():
    # every 10th of the 300 bases that kg --m 4 scans by default
    bases = list(islice(_anchored_walk(2, 4, None, None), 300))
    for chosen in bases[::10]:
        rows = [0, *chosen]
        keys = set()
        _process_basis(2, 4, rows, keys)
        assert keys == reference_basis_keys(2, 4, rows), rows


def test_kernel_never_materializes_all_sign_vectors(monkeypatch):
    # the (2,4) kernel prunes prefixes instead of testing 2^15 sign vectors
    sizes = []
    block = search._sign_block

    def recording(size):
        out = block(size)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(search, "_sign_block", recording)
    with pytest.raises(BudgetExceeded):
        extreme_points(2, 4, budget=5)
    assert sizes and max(sizes) <= 2 ** 8


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
        "m", "n", "row_indices", "keys"]


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


def test_stabilizer_is_trivial_for_linear_forms():
    perms, table = search._stabilizer(1, 3)
    assert perms.tolist() == [[0, 1, 2]]
    assert table is None
    assert search._stabilizer(1, 10)[1] is None  # 512 pairs, past 64 bits


def _orbit_path_keys(m, n, chosen, monkeypatch):
    """The keys _orbit_keys adds for one basis, and the rows it solved."""
    solved = []
    kernel = search._process_basis

    def recording(m, n, row_indices, keys):
        solved.append(list(row_indices))
        kernel(m, n, row_indices, keys)

    monkeypatch.setattr(search, "_process_basis", recording)
    keys = set()
    search._orbit_keys(m, n, [chosen], keys)
    monkeypatch.setattr(search, "_process_basis", kernel)
    return keys, solved


@pytest.mark.parametrize("m, n, count", [(2, 3, None), (2, 4, 300)])
def test_orbit_keys_match_the_kernel_on_each_basis(m, n, count, monkeypatch):
    # g^-1 applied to the keys of the canonical image of B is keys(B)
    moved = 0
    for chosen in islice(_anchored_walk(m, n, None, None), count):
        keys, solved = _orbit_path_keys(m, n, chosen, monkeypatch)
        assert len(solved) == 1
        moved += solved[0] != [0, *chosen]
        direct = set()
        _process_basis(m, n, [0, *chosen], direct)
        assert keys == direct, chosen
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
    keys = set()
    _process_basis(2, 4, [0, *chosen], keys)
    assert SIXTH_CLASS_2_4 in keys
    perms, table = search._stabilizer(2, 4)
    images = [tables["ball_rows"][np.sort(positions[chosen])].tolist()
              for positions in table[::97]]
    key_sets = set()
    for basis in [chosen, *images]:
        found, _ = _orbit_path_keys(2, 4, tuple(basis), monkeypatch)
        direct = set()
        _process_basis(2, 4, [0, *basis], direct)
        assert found == direct, basis
        key_sets.add(frozenset(found))
    assert len(key_sets) > 1  # the images do not all share one key set


def per_basis_points(m, n, budget=None, resume=None):
    """The pipeline as it ran before orbits of bases: the kernel on every
    basis of the walk. (points, cursor), cursor None for a complete run."""
    walk = _anchored_walk(m, n, budget, resume)
    keys = set()
    try:
        for chosen in walk:
            _process_basis(m, n, [0, *chosen], keys)
    except BudgetExceeded as stop:
        return search._finalize(m, n, keys, complete=False), stop.resume
    return search._finalize(m, n, keys, complete=True), None


def orbit_points(m, n, budget=None, resume=None, workers=1):
    try:
        return extreme_points(m, n, budget, resume, workers), None
    except BudgetExceeded as stop:
        return stop.partial, stop.resume


@pytest.mark.parametrize("m, n, budget", [
    (2, 4, 1), (2, 4, 15), (2, 4, 16), (2, 4, 17), (2, 4, 25), (2, 4, 300),
    (1, 10, 5)])
def test_orbit_walk_matches_the_per_basis_walk(m, n, budget):
    # budgets on both sides of the chunk edges, and a resume; (1,10) has
    # 512 antipodal pairs, past a 64-bit mask, and takes the identity group
    expected, cursor = per_basis_points(m, n, budget)
    points, resume = orbit_points(m, n, budget)
    assert cursor is not None
    assert resume == cursor
    assert points == expected
    assert points.complete == expected.complete
    assert orbit_points(m, n, budget, resume) == per_basis_points(
        m, n, budget, cursor)


@pytest.mark.parametrize("workers", [1, 2])
def test_orbit_walk_matches_the_per_basis_walk_unbudgeted(workers):
    expected, _ = per_basis_points(2, 3)
    points, cursor = orbit_points(2, 3, workers=workers)
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
        kernel(*args)

    monkeypatch.setattr(search, "_process_basis", counting)
    orbit_points(m, n, budget, workers=1)
    assert len(calls) == runs
    assert len({tuple(rows) for rows in calls}) == runs


def test_pool_tasks_of_one_process_share_the_orbit_cache(monkeypatch, set23):
    # the 8 first-row tasks of (2,3), run as one worker process runs them,
    # solve each of the 42 orbits once; their union is the serial set
    calls = []
    kernel = search._process_basis

    def counting(*args):
        calls.append(args[2])
        kernel(*args)

    monkeypatch.setattr(search, "_process_basis", counting)
    search._orbit_cache.cache_clear()
    tasks = [(2, 3, p) for p in
             range(len(_tables(2, 3)["representatives"]) - 9 + 2)]
    assert len(tasks) == 8
    keys = set().union(*map(search._subtree_keys, tasks))
    search._orbit_cache.cache_clear()
    assert len({tuple(rows) for rows in calls}) == len(calls) == 42
    assert search._finalize(2, 3, keys, complete=True) == set23


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
    assert ExtremeSet.from_points(1, 2, ()).max_denominator() == 1


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
