"""Tests for the sharp-constant computations.

Expected values come from closed-form hand computation (powers of two),
from exhaustive scans over complete extreme-point sets re-evaluated inline
with plain float arithmetic (independent of the module's evaluation path),
and from the classical two-branch Khinchin formula. The trilinear
Bohnenblust-Hille value is additionally frozen as a regression constant.
"""

import json
import math
from fractions import Fraction

import pytest

from extremeforms.core import FormVector, InternalInvariantError
from extremeforms.constants import (
    ConstantReport,
    bh_constant,
    f_lambda,
    khinchin_Aq,
    khinchin_branch_point,
    maximize_convex,
    mixed_littlewood_constant,
    two_slot_constant,
)
from extremeforms.search import ExtremeSet, in_unit_ball

F = Fraction

SQRT2 = math.sqrt(2.0)


def form(coeffs, m, n):
    return FormVector(tuple(coeffs), m, n)


# ---------------------------------------------------------------------------
# f_lambda
# ---------------------------------------------------------------------------

def test_f_lambda_coordinate_form():
    a = form((0, 0, 0, 1), 2, 2)
    for lam in (1, F(4, 3), 2, 3, 10):
        assert f_lambda(a, lam) == 1.0


def test_f_lambda_half_point():
    a = form((F(1, 2), F(1, 2), F(1, 2), F(-1, 2)), 2, 2)
    assert abs(f_lambda(a, F(4, 3)) - SQRT2) < 1e-12
    assert f_lambda(a, 1) == 2.0
    assert f_lambda(a, 2) == 1.0


def test_f_lambda_zero_form():
    a = form((0, 0, 0, 0), 2, 2)
    assert f_lambda(a, F(4, 3)) == 0.0


def test_f_lambda_rejects_small_exponent():
    a = form((0, 0, 0, 1), 2, 2)
    with pytest.raises(ValueError):
        f_lambda(a, F(1, 2))
    with pytest.raises(ValueError):
        f_lambda(a, 0.99)


def test_f_lambda_monotone_in_exponent(set22):
    grid = [1, F(4, 3), F(3, 2), 2, 3, 8]
    for point in set22.points:
        values = [f_lambda(point, lam) for lam in grid]
        for lower, higher in zip(values, values[1:]):
            assert higher <= lower + 1e-12


# ---------------------------------------------------------------------------
# maximize_convex
# ---------------------------------------------------------------------------

def test_maximize_norm_functional(set22):
    def sup_norm(a):
        return float(in_unit_ball(a).value)

    report = maximize_convex(set22, sup_norm, name="sup-norm")
    assert report.value == 1.0
    assert report.argmax in set22
    assert report.name == "sup-norm"
    assert report.m == 2 and report.n == 2


def test_maximize_f43(set22):
    report = maximize_convex(set22, lambda a: f_lambda(a, F(4, 3)),
                             name="f-4/3", exponent=F(4, 3))
    assert abs(report.value - SQRT2) < 1e-12
    # 1e-12 tie window plus lexicographically-largest tie-break pins the
    # reported maximizer among the eight equal-value half-integer points.
    assert report.argmax.coeffs == (F(1, 2), F(1, 2), F(1, 2), F(-1, 2))


def test_maximize_first_coefficient(set22):
    report = maximize_convex(set22, lambda a: abs(float(a.coeffs[0])),
                             name="first-coeff")
    assert report.value == 1.0
    assert report.argmax.coeffs == (F(1), F(0), F(0), F(0))


def test_maximize_evaluates_once_per_point(set22):
    calls = []

    def functional(a):
        calls.append(a)
        return f_lambda(a, F(4, 3))

    report = maximize_convex(set22, functional, name="counted")
    assert len(calls) == len(set22)
    assert abs(report.value - SQRT2) < 1e-12
    assert report.argmax.coeffs == (F(1, 2), F(1, 2), F(1, 2), F(-1, 2))


def test_maximize_rejects_empty():
    empty = ExtremeSet.from_points(2, 2, ())
    with pytest.raises(ValueError):
        maximize_convex(empty, lambda a: 0.0, name="empty")


def test_maximize_envelope(set22):
    # Convexity: the reported max dominates the functional on any sample
    # of the ball boundary, and the extreme points themselves attain it.
    functional = lambda a: f_lambda(a, F(4, 3))
    report = maximize_convex(set22, functional, name="envelope")
    sample = list(set22.points)
    points = set22.points
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            mid = tuple((a + b) / 2 for a, b in zip(points[i].coeffs,
                                                    points[j].coeffs))
            if all(c == 0 for c in mid):
                continue
            norm = in_unit_ball(form(mid, 2, 2)).value
            boundary = tuple(c / norm for c in mid)
            sample.append(form(boundary, 2, 2))
    sample_max = max(functional(a) for a in sample)
    assert sample_max <= report.value + 1e-12
    assert report.value <= sample_max + 1e-12


# ---------------------------------------------------------------------------
# Bohnenblust-Hille and mixed constants
# ---------------------------------------------------------------------------

def test_bh_bilinear(set22):
    report = bh_constant(2, 2, set22)
    assert abs(report.value - SQRT2) < 1e-9
    assert report.exponent == F(4, 3)
    assert report.exact_note == "2^(1/2)"
    assert report.argmax.coeffs == (F(1, 2), F(1, 2), F(1, 2), F(-1, 2))


def test_bh_linear_is_one():
    from extremeforms.search import extreme_points

    for n in (1, 2, 3):
        report = bh_constant(1, n, extreme_points(1, n))
        assert report.value == 1.0
        assert report.exponent == 1


def test_bh_trilinear_regression(planar3):
    # Exhaustive scan over all 256 planar extreme points, re-evaluated
    # here with plain float arithmetic as an independent oracle; the
    # literal is additionally frozen as a regression value.
    lam = 1.5
    oracle = max((math.fsum(abs(float(c)) ** lam for c in p.coeffs))
                 ** (1.0 / lam) for p in planar3.points)
    report = bh_constant(3, 2, planar3)
    assert abs(report.value - oracle) < 1e-12
    assert abs(report.value - 1.3246116516982822) < 1e-12
    assert report.exact_note is None
    assert report.argmax.coeffs == (F(3, 4), F(1, 4), F(1, 4), F(-1, 4),
                                    F(1, 4), F(-1, 4), F(-1, 4), F(1, 4))


def test_bh_at_least_one(set22, planar3):
    assert bh_constant(2, 2, set22).value >= 1.0
    assert bh_constant(3, 2, planar3).value >= 1.0


def test_bh_bilinear_r3_regression(set23):
    # for bilinear forms the maximum over R^3 is already attained at the
    # embedded R^2 maximizer, so the value stays sqrt(2)
    report = bh_constant(2, 3, set23)
    assert abs(report.value - SQRT2) < 1e-9
    assert report.exact_note == "2^(1/2)"


def test_bh_embedding_monotone(set22, set23):
    assert bh_constant(2, 3, set23).value >= \
        bh_constant(2, 2, set22).value - 1e-12


def test_bh_rejects_mismatched_set(set22):
    with pytest.raises(ValueError):
        bh_constant(3, 2, set22)


def test_mixed_littlewood_bilinear(set22):
    report = mixed_littlewood_constant(2, 2, set22)
    assert abs(report.value - 2 ** 0.75) < 1e-9
    assert report.exact_note == "2^(3/4)"


def test_mixed_littlewood_linear():
    from extremeforms.search import extreme_points

    report = mixed_littlewood_constant(1, 2, extreme_points(1, 2))
    assert abs(report.value - SQRT2) < 1e-12


def test_mixed_littlewood_formula(planar3):
    bh = bh_constant(3, 2, planar3)
    mixed = mixed_littlewood_constant(3, 2, planar3)
    assert abs(mixed.value - 2 ** (1 / 6) * bh.value) < 1e-15
    assert mixed.argmax.coeffs == bh.argmax.coeffs


# ---------------------------------------------------------------------------
# Khinchin constants
# ---------------------------------------------------------------------------

def test_khinchin_q2_is_one():
    assert khinchin_Aq(2) == 1.0


def test_khinchin_q43():
    assert abs(khinchin_Aq(F(4, 3)) - 2 ** -0.25) < 1e-12


def test_khinchin_branch_point_location():
    q0 = khinchin_branch_point()
    assert abs(q0 - 1.8474) < 5e-4
    # the defining equation holds to root-finding accuracy
    assert abs(math.gamma((q0 + 1) / 2) - math.sqrt(math.pi) / 2) < 1e-10


def test_khinchin_branch_point_checks_its_bracket(monkeypatch):
    # a Gamma with no sign change on [1.5, 1.9] leaves nothing to bisect
    monkeypatch.setattr(math, "gamma", lambda x: 0.0)
    with pytest.raises(InternalInvariantError, match="no sign change"):
        khinchin_branch_point()


def test_khinchin_continuous_at_branch_point():
    q0 = khinchin_branch_point()
    below = khinchin_Aq(q0 - 1e-9)
    above = khinchin_Aq(q0 + 1e-9)
    assert abs(below - above) < 1e-6


def test_khinchin_monotone_and_bounded():
    grid = [0.1, 0.5, 1.0, 1.5, 1.8, 1.9, 2.0]
    values = [khinchin_Aq(q) for q in grid]
    for lower, higher in zip(values, values[1:]):
        assert lower <= higher + 1e-12
    assert all(0 < v <= 1.0 + 1e-12 for v in values)


def test_khinchin_domain():
    for bad in (0, -1, 2.0001, 3):
        with pytest.raises(ValueError):
            khinchin_Aq(bad)


# ---------------------------------------------------------------------------
# two-slot constant
# ---------------------------------------------------------------------------

def test_two_slot_values():
    assert two_slot_constant(1) == 1.0
    assert abs(two_slot_constant(2) - SQRT2) < 1e-15
    assert abs(two_slot_constant(4) - 2 ** 0.75) < 1e-15
    with pytest.raises(ValueError):
        two_slot_constant(0)


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def test_report_json_shape(set22):
    report = bh_constant(2, 2, set22)
    payload = report.to_json_dict()
    assert set(payload) == {"name", "m", "n", "lambda", "value", "argmax",
                            "exact_note"}
    assert payload["lambda"] == "4/3"
    assert payload["argmax"] == ["1/2", "1/2", "1/2", "-1/2"]
    assert payload["exact_note"] == "2^(1/2)"
    json.dumps(payload)


def test_report_json_without_exponent(set22):
    report = maximize_convex(set22, lambda a: 0.5, name="constant")
    payload = report.to_json_dict()
    assert payload["lambda"] is None
    assert payload["exact_note"] is None
    json.dumps(payload)


# ---------------------------------------------------------------------------
# the per-row kernel against a per-FormVector reference
# ---------------------------------------------------------------------------

def reference_f_lambda(a, lam):
    """f_lambda evaluated on the point's Fractions, one cell at a time."""

    if lam == 1:
        return float(sum(abs(c) for c in a.coeffs))
    if lam == 2:
        return math.sqrt(float(sum(c * c for c in a.coeffs)))
    lam_f = float(lam)
    total = math.fsum(float(abs(c)) ** lam_f for c in a.coeffs if c != 0)
    return total ** (1.0 / lam_f) if total else 0.0


def reference_maximum(extreme_set, lam):
    values = [reference_f_lambda(p, lam) for p in extreme_set.points]
    best = max(values)
    tied = [p for p, value in zip(extreme_set.points, values)
            if value >= best - 1e-12]
    return values, best, max(tied, key=lambda p: p.coeffs)


@pytest.fixture
def wide_rows():
    """Hand-built rows (m = 1, n = 2) with entries near +-2^62, some equal
    up to sign or order, so their class keys differ only in high bytes or
    not at all; float64 cannot tell 2^62 from 2^62 + 1, so some values tie."""

    big = 2 ** 62
    return ExtremeSet.from_pairs(1, 2, [
        (1, (big, -(big - 1))), (1, (-big, big - 1)), (1, (big - 1, big)),
        (1, (big + 1, 0)), (1, (-(big + 1), 0)), (1, (big, 0)),
        (3, (big + 1, -1)), (3, (-(big + 1), 1)), (7, (1, -big))])


@pytest.fixture
def near_tie():
    """Two classes whose values differ by 1e-13, inside TIE_WINDOW; the
    smaller value belongs to the lexicographically larger point."""

    d = 10 ** 13
    return ExtremeSet.from_pairs(1, 2, [(1, (0, 1)), (d, (d - 1, 0))])


# planar m = 4 (65536 points) runs only the Bohnenblust-Hille exponent 8/5,
# which keeps the Fraction reference to a few seconds. For m = 1 the
# Bohnenblust-Hille exponent is 1.
@pytest.mark.parametrize("name, exponents", [
    ("set23", (F(1), F(2), F(4, 3), F(8, 5), F(3, 2))),
    ("planar3", (F(1), F(2), F(8, 5), F(3, 2))),
    ("planar4", (F(8, 5),)),
    ("wide_rows", (F(1), F(2), F(3, 2))),
    ("near_tie", (F(1), F(2), F(3, 2))),
], ids=["set23", "planar3", "planar4", "wide_rows", "near_tie"])
def test_row_kernel_matches_per_point_reference(name, exponents, request):
    from extremeforms.constants import _f_lambda_rows

    extreme_set = request.getfixturevalue(name)
    m, n = extreme_set.m, extreme_set.n
    for lam in exponents:
        values, best, argmax = reference_maximum(extreme_set, lam)
        rows = _f_lambda_rows(extreme_set, lam)
        assert all(type(value) is float for value in rows)
        assert rows == values
        if len(extreme_set) <= 256:
            assert [f_lambda(p, lam) for p in extreme_set.points] == values
        if lam != F(2 * m, m + 1):
            continue
        bh = bh_constant(m, n, extreme_set)
        assert bh.value == best
        assert bh.argmax.coeffs == argmax.coeffs
        mixed = mixed_littlewood_constant(m, n, extreme_set)
        assert mixed.value == 2 ** (1 / (2 * m)) * best
        assert mixed.argmax.coeffs == argmax.coeffs
        if len(extreme_set) <= 256:
            # maximize_convex scores FormVectors, bh_constant integer rows
            listed = maximize_convex(extreme_set, lambda a: f_lambda(a, lam),
                                     name="listed")
            assert listed.value == bh.value
            assert listed.argmax.coeffs == bh.argmax.coeffs


def test_near_tie_straddles_the_window(near_tie):
    from extremeforms.constants import TIE_WINDOW

    low, high = sorted(set(f_lambda(p, 1) for p in near_tie.points))
    assert 0 < high - low < TIE_WINDOW
    report = bh_constant(1, 2, near_tie)
    assert report.value == high
    assert report.argmax.coeffs == (F(10 ** 13 - 1, 10 ** 13), F(0))
    assert f_lambda(report.argmax, 1) == low


# ---------------------------------------------------------------------------
# the block scans against one block
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["planar1", "planar2", "planar3", "planar4",
                                  "set23", "partial24", "per_cell",
                                  "smaller_wins"])
def test_block_scans_match_one_block(name, request, monkeypatch):
    # max_denominator and the f_lambda classes scan one block of rows at a
    # time; every block size gives what one block over the whole set gives.
    # The whole set in one block takes the Python path of _f_lambda_rows,
    # and blocks shorter than the set take its numpy path.
    from extremeforms import search
    from extremeforms.constants import _f_lambda_rows

    if name == "planar1":
        extreme_set = search.planar_extreme_points(1)
    elif name == "per_cell":  # the hand-built sets of max_denominator
        extreme_set = ExtremeSet(1, 2, [6], [[2, 3]])
    elif name == "smaller_wins":
        extreme_set = ExtremeSet.from_pairs(1, 2, [(6, (2, 3)), (5, (1, 0))])
    else:
        extreme_set = request.getfixturevalue(name)
    m, n = extreme_set.m, extreme_set.n
    exponents = (F(1), F(2), F(3, 2), F(2 * m, m + 1))

    def scans():
        return (extreme_set.max_denominator(),
                [_f_lambda_rows(extreme_set, lam) for lam in exponents],
                bh_constant(m, n, extreme_set).to_json_dict(),
                mixed_littlewood_constant(m, n, extreme_set).to_json_dict())

    monkeypatch.setattr(search, "BLOCK_ROWS", len(extreme_set))
    whole = scans()
    # planar m = 4 in one-row blocks would take seconds a scan
    for rows in (7,) if len(extreme_set) > 4096 else (1, 2, 7):
        monkeypatch.setattr(search, "BLOCK_ROWS", rows)
        assert scans() == whole, rows
