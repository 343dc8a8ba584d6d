"""Sharp constants of multilinear inequalities as finite maximizations.

A convex continuous functional on the unit ball of m-linear forms attains
its maximum at an extreme point, so once the extreme points are enumerated
every such sharp constant reduces to a finite scan. This module provides
the scan (with a deterministic tie-break), the power-sum functionals f_lambda,
the Bohnenblust-Hille and mixed-Littlewood constants they induce, the best
Khinchin constants A_q with a computed branch point, and the two-slot
constant 2^(1 - 1/m).

Inputs stay exact rationals throughout; only the final power and root
evaluations use binary64. Maximizer selection uses a 1e-12 tie window and
then picks the lexicographically largest coefficient tuple, which makes
reports reproducible across platforms. The
Bohnenblust-Hille and mixed constants score the integer rows of the
ExtremeSet directly, once per class of equal (d, sorted |u|), with the
same kernel that f_lambda applies to one FormVector. The module follows
the package's rule for numpy, "Python ints up to one block of rows
(search.BLOCK_ROWS), numpy past it": only the class keys of a set past
one block are built in numpy, imported there, and the maximum is taken
over a list of floats at any size.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import FormVector, InternalInvariantError, Record
from .search import ExtremeSet, exact_keys, reduced_row, row_blocks

TIE_WINDOW = 1e-12

__all__ = [
    "ConstantReport",
    "bh_constant",
    "f_lambda",
    "khinchin_Aq",
    "khinchin_branch_point",
    "maximize_convex",
    "mixed_littlewood_constant",
    "two_slot_constant",
]


# ---------------------------------------------------------------------------
# report type
# ---------------------------------------------------------------------------

class ConstantReport(Record):
    """Result of maximizing a functional over an extreme-point set.

    value is the binary64 maximum, argmax an attaining extreme point, and
    exact_note an optional recognized closed form (powers of two only; the
    general values are algebraic numbers without a recognized pattern).
    """

    _fields = ("name", "m", "n", "exponent", "value", "argmax",
               "exact_note")

    def __init__(self, name: str, m: int, n: int,
                 exponent: Fraction | None, value: float,
                 argmax: FormVector, exact_note: str | None = None):
        vars(self).update(name=name, m=m, n=n, exponent=exponent,
                          value=value, argmax=argmax, exact_note=exact_note)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "m": self.m,
            "n": self.n,
            "lambda": None if self.exponent is None else str(self.exponent),
            "value": self.value,
            "argmax": [str(c) for c in self.argmax.coeffs],
            "exact_note": self.exact_note,
        }


def _recognize_closed_form(value: float) -> str | None:
    """Match ``value`` against 2^(p/q) for small p, q; None otherwise."""

    if value <= 0.0:
        return None
    for q in range(1, 13):
        for p in range(-24, 25):
            if math.gcd(abs(p), q) != 1 and not (p == 0 and q == 1):
                continue
            if abs(value - 2.0 ** (p / q)) < 1e-9:
                if p == 0:
                    return "1"
                if q == 1:
                    return f"2^{p}" if p != 1 else "2"
                return f"2^({p}/{q})"
    return None


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

def _exponent(exponent) -> Fraction:
    lam = Fraction(exponent)
    if lam < 1:
        raise ValueError(f"exponent must be >= 1, got {exponent}")
    return lam


def _f_lambda_row(row, lam: Fraction) -> float:
    """f_lambda of a point u / d from row = [d, *|u|], Python ints.

    lambda = 1 and lambda = 2 are summed exactly before the one final
    conversion (and square root); other exponents take one correctly
    rounded power per entry and one math.fsum, so the value depends only
    on the multiset.
    """

    d, magnitudes = row[0], row[1:]
    if lam == 1:
        return float(Fraction(sum(magnitudes), d))
    if lam == 2:
        return math.sqrt(float(Fraction(sum(x * x for x in magnitudes),
                                        d * d)))
    lam_f = float(lam)
    total = math.fsum(float(Fraction(x, d)) ** lam_f
                      for x in magnitudes if x)
    if total == 0.0:
        return 0.0
    return total ** (1.0 / lam_f)


def f_lambda(a: FormVector, exponent) -> float:
    """ell_lambda norm of the coefficient vector, lambda >= 1, in binary64.

    The lambda = 1 and lambda = 2 cases are accumulated exactly in rational
    arithmetic before the single final conversion (and square root).
    """

    lam = _exponent(exponent)
    d, u = reduced_row(a.coeffs)
    return _f_lambda_row([d, *map(abs, u)], lam)


def _f_lambda_rows(extreme_set: ExtremeSet, exponent) -> list:
    """f_lambda of every row as a list of floats, once per class of equal
    (d, sorted |u|).

    Up to one block of rows (search.BLOCK_ROWS) the class key is the tuple
    (d, *sorted |u|) of the row's Python ints. Past it the keys are built
    in numpy a block of rows at a time, widened to int64 whatever the
    dtype of nums: a key is the bytes of the contiguous int64 row
    [d, sorted |u|], read through a void view, so no tuple is formed per
    row. One dict of classes serves every block.
    """
    from .search import BLOCK_ROWS

    lam = _exponent(exponent)
    if len(extreme_set) <= BLOCK_ROWS:
        keys = [(d, *sorted(map(abs, u))) for d, u in extreme_set.pairs()]
        classes = {key: _f_lambda_row(key, lam) for key in set(keys)}
        return list(map(classes.__getitem__, keys))
    import numpy as np

    classes, values = {}, []
    for rows in row_blocks(len(extreme_set)):
        magnitudes = np.abs(extreme_set.nums[rows].astype(np.int64))
        magnitudes.sort(axis=1)
        block = np.column_stack([extreme_set.dens[rows], magnitudes])
        size = block.itemsize * block.shape[1]
        keys = block.view(f"V{size}").ravel().tolist()
        for key in set(keys).difference(classes):
            classes[key] = _f_lambda_row(np.frombuffer(key, np.int64).tolist(),
                                         lam)
        values.extend(map(classes.__getitem__, keys))
    return values


# ---------------------------------------------------------------------------
# finite maximization over extreme points
# ---------------------------------------------------------------------------

def _maximum(extreme_set: ExtremeSet, values, name: str,
             exponent: Fraction | None) -> ConstantReport:
    """Report the best of per-row values with the deterministic tie-break.

    values holds one float per row, in a Python sequence. Rows within
    TIE_WINDOW of the best value are tied; the winner is the
    lexicographically largest coefficient vector among them, compared on
    exact integer keys.
    """

    if len(extreme_set) == 0:
        raise ValueError("cannot maximize over an empty extreme-point set")
    best_value = max(values)
    low = best_value - TIE_WINDOW
    tied = [row for row, value in enumerate(values) if value >= low]
    keys = exact_keys(map(extreme_set.row, tied))
    winner = max(range(len(tied)), key=keys.__getitem__)
    return ConstantReport(name=name, m=extreme_set.m, n=extreme_set.n,
                          exponent=exponent, value=best_value,
                          argmax=extreme_set.point(tied[winner]))


def maximize_convex(extreme_set: ExtremeSet, functional, name: str,
                    exponent: Fraction | None = None) -> ConstantReport:
    """Maximize a convex continuous functional over an extreme-point set.

    By convexity the result is the maximum over the whole unit ball. All
    candidates within TIE_WINDOW of the best value are considered tied and
    the lexicographically largest coefficient tuple is reported, so the
    argmax is deterministic even when the maximum is attained many times.
    The functional is evaluated once per point.
    """

    values = [float(functional(point)) for point in extreme_set.points]
    return _maximum(extreme_set, values, name, exponent)


def _require_matching(m: int, n: int, extreme_set: ExtremeSet) -> None:
    if extreme_set.m != m or extreme_set.n != n:
        raise ValueError(f"extreme set is for (m={extreme_set.m}, "
                         f"n={extreme_set.n}), expected ({m}, {n})")


def bh_constant(m: int, n: int, extreme_set: ExtremeSet) -> ConstantReport:
    """Sharp Bohnenblust-Hille constant: max of f_{2m/(m+1)} over the ball."""

    _require_matching(m, n, extreme_set)
    exponent = Fraction(2 * m, m + 1)
    report = _maximum(extreme_set, _f_lambda_rows(extreme_set, exponent),
                      name="bohnenblust-hille", exponent=exponent)
    return ConstantReport(report.name, report.m, report.n, report.exponent,
                          report.value, report.argmax,
                          _recognize_closed_form(report.value))


def mixed_littlewood_constant(m: int, n: int,
                              extreme_set: ExtremeSet) -> ConstantReport:
    """Sharp mixed (ell_1, ell_2) Littlewood constant: 2^(1/(2m)) * BH."""

    bh = bh_constant(m, n, extreme_set)
    value = 2 ** (1 / (2 * m)) * bh.value
    return ConstantReport("mixed-littlewood", bh.m, bh.n, bh.exponent, value,
                          bh.argmax, _recognize_closed_form(value))


# ---------------------------------------------------------------------------
# Khinchin constants
# ---------------------------------------------------------------------------

def khinchin_branch_point() -> float:
    """The exponent q0 where Gamma((q+1)/2) = sqrt(pi)/2, about 1.8474.

    Below q0 the best Khinchin constant is 2^(1/2 - 1/q); at and above it,
    the Gamma expression takes over. The root is isolated in [1.5, 1.9]:
    the function is positive at 1.5, negative at 1.9, and the bracket stays
    left of the Gamma minimum so the second root at q = 2 is excluded.
    """

    def above(q):
        return math.gamma((q + 1) / 2) > math.sqrt(math.pi) / 2

    lo, hi = 1.5, 1.9
    if not above(lo) or above(hi):
        raise InternalInvariantError(f"no sign change on [{lo}, {hi}]")
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return mid


def khinchin_Aq(q) -> float:
    """Best constant A_q in the Khinchin inequality for 0 < q <= 2."""

    q_f = float(q)
    if not 0 < q_f <= 2:
        raise ValueError(f"Khinchin exponent must lie in (0, 2], got {q}")
    if q_f < khinchin_branch_point():
        return 2.0 ** (0.5 - 1.0 / q_f)
    return (2 ** (q_f / 2) * math.gamma((1 + q_f) / 2)
            / math.sqrt(math.pi)) ** (1 / q_f)


# ---------------------------------------------------------------------------
# two-slot constant
# ---------------------------------------------------------------------------

def two_slot_constant(m: int) -> float:
    """The constant 2^(1 - 1/m) (sup over two-valued slot collapses)."""

    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return 2.0 ** (1.0 - 1.0 / m)
