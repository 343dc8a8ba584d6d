"""Truncated Grothendieck lower bounds and the constrained KKT maximum.

The truncated constant for bilinear forms on R^m with vectors restricted
to the sphere S^(d-1) is an exact finite maximum over the extreme points
of the bilinear unit ball; the inner sphere maximization is solved exactly
by sign enumeration when d = 1 and otherwise by alternating maximization
(each half-problem has the closed-form normalize-the-image solution) over
seeded random restarts. Values from the alternating solver are binary64
values of attained configurations: lower bounds up to rounding, never
claimed maxima, and not certified (one can land a few ulps above the true
maximum; ROADMAP item 4 plans rational bounds). The restarts run as one
batch: their starting vectors are drawn once per (k, d, restarts, seed)
and shared by every form of that size, and each restart leaves the batch
when its value settles. Only that float solver imports numpy, inside its
functions, so the zero form, d = 1 and blei_kkt_max never load it.

The KKT objective f = sqrt(X) + sqrt(Y), X = a^2+b^2+2h^2, Y = c^2+d^2+2h^2,
has maximum 1 over a+b+c+d = 1, all pairwise sums of {a,b,c,d} nonnegative,
h^2 <= e_3 = bcd+acd+abd+abc; the associated 2x2 constants collapse to 1.
The maximum is proved by two polynomial identities checked exactly.
"""

from __future__ import annotations

import math
from functools import lru_cache
from fractions import Fraction
from itertools import combinations, product

from .constants import ConstantReport
from .core import FormVector, Record
from .search import ExtremeSet, InternalInvariantError

SIGN_ENUM_LIMIT = 20
CONVERGENCE_TOL = 1e-12
MAX_ITERATIONS = 1000
_MONOTONE_SLACK = 1e-9

__all__ = [
    "BleiPoint",
    "SphereConfig",
    "blei_kkt_max",
    "blei_objective",
    "inner_sphere_max",
    "kg_lower_bound",
]


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class SphereConfig(Record):
    """A pair of unit-vector families on S^(d-1) and the attained value."""

    _fields = ("x_vectors", "y_vectors", "value")

    def __init__(self, x_vectors: tuple, y_vectors: tuple, value: float):
        xs = tuple(tuple(float(c) for c in v) for v in x_vectors)
        ys = tuple(tuple(float(c) for c in v) for v in y_vectors)
        vars(self).update(x_vectors=xs, y_vectors=ys, value=value)
        for vector in xs + ys:
            norm = math.sqrt(math.fsum(c * c for c in vector))
            if abs(norm - 1.0) > 1e-12:
                raise ValueError(f"vector {vector} has norm {norm}, "
                                 "expected 1 within 1e-12")


class BleiPoint(Record):
    """A feasible point of the constrained KKT problem.

    Constraint violations beyond the stated tolerances raise immediately;
    points are never clamped into feasibility.
    """

    _fields = ("a", "b", "c", "d", "h")

    def __init__(self, a: float, b: float, c: float, d: float, h: float):
        a, b, c, d, h = float(a), float(b), float(c), float(d), float(h)
        vars(self).update(a=a, b=b, c=c, d=d, h=h)
        if abs(a + b + c + d - 1.0) > 1e-10:
            raise ValueError(f"coordinates sum to {a + b + c + d}, not 1")
        pairs = {"a+b": a + b, "c+d": c + d, "a+c": a + c,
                 "b+d": b + d, "a+d": a + d, "b+c": b + c}
        for label, total in pairs.items():
            if total < -1e-12:
                raise ValueError(f"pair sum {label} = {total} is negative")
        bound = b * c * d + a * c * d + a * b * d + a * b * c
        if h * h > bound + 1e-12:
            raise ValueError(f"h^2 = {h * h} exceeds the cubic bound {bound}")


def blei_objective(point: BleiPoint) -> float:
    """f(a,b,c,d,h) = sqrt(a^2+b^2+2h^2) + sqrt(c^2+d^2+2h^2)."""

    h2 = 2.0 * point.h * point.h
    return (math.sqrt(point.a ** 2 + point.b ** 2 + h2)
            + math.sqrt(point.c ** 2 + point.d ** 2 + h2))


# ---------------------------------------------------------------------------
# inner sphere maximization
# ---------------------------------------------------------------------------

def _unit(d: int) -> tuple:
    return (1.0,) + (0.0,) * (d - 1)


def _sign_enumeration(coeffs, k: int):
    """Exact d = 1 maximum over sign vectors, in rational arithmetic."""

    rows = [[coeffs[i * k + j] for j in range(k)] for i in range(k)]
    best_value = None
    best_x = best_y = None
    for x in product((1, -1), repeat=k):
        columns = [sum(x[i] * rows[i][j] for i in range(k))
                   for j in range(k)]
        value = sum(abs(c) for c in columns)
        if best_value is None or value > best_value:
            best_value = value
            best_x = x
            best_y = tuple(1 if c >= 0 else -1 for c in columns)
    return best_value, best_x, best_y


@lru_cache(maxsize=16)
def _sphere_starts(k: int, d: int, restarts: int, seed: int):
    """Seeded unit starting rows for every restart, a read-only float64
    array (R, k, d).

    Restart r draws from the r-th child of SeedSequence(seed) and redraws
    any row too short to normalize, so the starts depend only on the
    arguments and are shared by every form of the same size.
    """
    import numpy as np

    starts = np.empty((restarts, k, d))
    for r, child in enumerate(np.random.SeedSequence(seed).spawn(restarts)):
        rng = np.random.default_rng(child)
        y_vectors = rng.normal(size=(k, d))
        norms = np.linalg.norm(y_vectors, axis=1)
        while (norms < 1e-12).any():
            y_vectors[norms < 1e-12] = rng.normal(
                size=(int((norms < 1e-12).sum()), d))
            norms = np.linalg.norm(y_vectors, axis=1)
        starts[r] = y_vectors / norms[:, None]
    starts.flags.writeable = False
    return starts


def _half_step(matrix, sources, previous):
    """Closed-form half-problem solution for a batch of restarts.

    Normalizes each image row of matrix @ sources[r]; a row with zero image
    keeps its previous vector. Returns the new vectors and the objective
    sum_ij <new_i, image_i> of each restart.
    """
    import numpy as np

    image = matrix @ sources
    norms = np.sqrt(np.add.reduce(image * image, axis=2))[:, :, None]
    out = np.divide(image, norms, out=previous, where=norms > 1e-300)
    value = np.add.reduce((out * image).reshape(len(out), -1), axis=1)
    return out, value


def _check_monotone(side, before, after):
    """Raise if any restart's half-step lowered its objective."""
    import numpy as np

    drops = np.flatnonzero(after + _MONOTONE_SLACK < before)
    if len(drops):
        r = drops[0]
        raise InternalInvariantError(
            f"{side} half-step decreased the objective: "
            f"{float(before[r])} -> {float(after[r])}")


def inner_sphere_max(T: FormVector, d: int, restarts: int = 64,
                     seed: int = 0) -> SphereConfig:
    """Maximize sum_ij T_ij <x_i, y_j> over unit vectors on S^(d-1).

    Exact by sign enumeration when d = 1 (and the form is small enough);
    otherwise alternating maximization from seeded random starts, whose
    value is the binary64 value of an attained configuration: a lower
    bound up to rounding, not a certified one. All restarts alternate
    together; each leaves the batch once its value settles, and the first
    restart with the largest value wins. Identical (seed, restarts) inputs
    give identical outputs.
    """

    if T.m != 2:
        raise ValueError(f"inner_sphere_max needs a bilinear form, got m={T.m}")
    if d < 1:
        raise ValueError(f"sphere dimension d must be >= 1, got {d}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    k = T.n
    if all(c == 0 for c in T.coeffs):
        vectors = tuple(_unit(d) for _ in range(k))
        return SphereConfig(vectors, vectors, 0.0)
    if d == 1 and k <= SIGN_ENUM_LIMIT:
        value, x_signs, y_signs = _sign_enumeration(T.coeffs, k)
        return SphereConfig(tuple((float(s),) for s in x_signs),
                            tuple((float(s),) for s in y_signs),
                            float(value))

    import numpy as np

    matrix = np.array([[float(T.coeffs[i * k + j]) for j in range(k)]
                       for i in range(k)])
    y_vectors = _sphere_starts(k, d, restarts, seed).copy()
    x_vectors = np.zeros((restarts, k, d))
    x_vectors[:, :, 0] = 1.0
    value = np.full(restarts, -math.inf)
    active = np.arange(restarts)
    for _ in range(MAX_ITERATIONS):
        if not len(active):
            break
        before = value[active]
        xs, half = _half_step(matrix, y_vectors[active], x_vectors[active])
        _check_monotone("x", before, half)
        ys, full = _half_step(matrix.T, xs, y_vectors[active])
        _check_monotone("y", half, full)
        x_vectors[active] = xs
        y_vectors[active] = ys
        value[active] = full
        settled = (np.abs(full - before)
                   <= CONVERGENCE_TOL * np.maximum(1.0, np.abs(full)))
        active = active[~settled]

    best = int(np.argmax(value))
    return SphereConfig(tuple(map(tuple, x_vectors[best])),
                        tuple(map(tuple, y_vectors[best])),
                        float(value[best]))


# ---------------------------------------------------------------------------
# truncated constants
# ---------------------------------------------------------------------------

def kg_lower_bound(m: int, d: int, extreme_set: ExtremeSet | None = None,
                   restarts: int = 64, seed: int = 0) -> ConstantReport:
    """Lower bound for the truncated Grothendieck constant K_G^(m)(d).

    Scans every extreme point of the bilinear ball on R^m (the outer
    maximum is exactly a finite maximum there) and takes the best inner
    sphere value. Exact at d = 1, where the result is 1; for d >= 2 the
    inner solver is heuristic, so the report is labeled a lower bound.
    Ties resolve to the earliest point in canonical order.
    """

    if extreme_set is None:
        from .search import extreme_points

        extreme_set = extreme_points(2, m)
    if extreme_set.m != 2 or extreme_set.n != m:
        raise ValueError(f"extreme set is for (m={extreme_set.m}, "
                         f"n={extreme_set.n}), expected (2, {m})")
    if len(extreme_set) == 0:
        raise ValueError("cannot bound over an empty extreme-point set")
    best_value = -math.inf
    best_point = None
    for point in extreme_set.points:
        config = inner_sphere_max(point, d, restarts=restarts, seed=seed)
        if config.value > best_value:
            best_value = config.value
            best_point = point
    return ConstantReport(name=f"kg-lower-bound-d{d}", m=2, n=m,
                          exponent=None, value=best_value, argmax=best_point,
                          exact_note="1" if d == 1 else None)


# ---------------------------------------------------------------------------
# constrained KKT maximum, by proof
# ---------------------------------------------------------------------------

def _blei_xy(a, b, c):
    d = 1 - a - b - c
    h2 = b * c * d + a * c * d + a * b * d + a * b * c
    return a * a + b * b + 2 * h2, c * c + d * d + 2 * h2


# With d = 1 - a - b - c and h^2 = e_3 in X and Y (_blei_xy), the identities
# 1 - X - Y = sum over triples {i,j,k} of (x_i+x_j)(x_j+x_k)(x_i+x_k) and
# (1 - X - Y)^2 - 4XY = 4(ab - cd)^2, as (left, right) functions of (a, b, c)
_BLEI_IDENTITIES = (
    (lambda a, b, c: 1 - sum(_blei_xy(a, b, c)),
     lambda a, b, c: sum((p + q) * (q + r) * (p + r) for p, q, r
                         in combinations((a, b, c, 1 - a - b - c), 3))),
    (lambda a, b, c: (1 - sum(_blei_xy(a, b, c))) ** 2
     - 4 * math.prod(_blei_xy(a, b, c)),
     lambda a, b, c: 4 * (a * b - c * (1 - a - b - c)) ** 2),
)


def _agree_on_grid(left, right) -> bool:
    """Whether left(a, b, c) == right(a, b, c) on {k/6 - 1/2 : k = 0..6}^3.

    In Fractions, so agreement proves an identity of degree <= 6 in each
    variable (Alon, "Combinatorial Nullstellensatz", 1999).
    """

    grid = [Fraction(k - 3, 6) for k in range(7)]
    return all(left(*p) == right(*p) for p in product(grid, repeat=3))


def blei_kkt_max() -> float:
    """The maximum of the KKT objective f over the feasible region: 1.

    f grows with h^2, so h^2 = e_3 at a maximum. There _BLEI_IDENTITIES give
    1 - X - Y >= 0 (as pair sums are) and then 1 - X - Y >= 2 sqrt(XY), so
    sqrt(X) + sqrt(Y) <= 1; two dyadic witnesses attain 1 exactly. Raises
    InternalInvariantError if an identity or a witness fails.
    """

    if not all(_agree_on_grid(*sides) for sides in _BLEI_IDENTITIES):
        raise InternalInvariantError("a Blei identity fails on the grid")
    for witness in (BleiPoint(1, 0, 0, 0, 0), BleiPoint(*[0.25] * 5)):
        if blei_objective(witness) != 1.0:
            raise InternalInvariantError(f"{witness} does not give exactly 1")
    return blei_objective(BleiPoint(1, 0, 0, 0, 0))
