"""Exact double description: the vertices of a polytope given by rows.

double_description(rows) lists the vertices of {a : <v, a> <= 1 for v in
rows} in Python ints, with no numpy and no float; the unit ball of
m-linear forms is the case rows = V, which search.extreme_points hands
it for every complete run with n >= 3. The method is that of Motzkin,
Raiffa, Thompson and Thrall ("The double description method", 1953),
with the combinatorial adjacency test of Fukuda and Prodon ("Double
description method revisited", 1996). It is a module of its own, which
search imports only when it runs it, so no other command compiles it.

The number of live rays is capped at MAX_DD_RAYS: past it the run raises
ResourceBudgetError rather than grow without a bound it can state. The
complete sizes stay far below it ((2,3) peaks at 252 rays, (1,n) at 37
for n <= 13); (2,4) passes it at row 75 of 128, in about a second.
"""

from __future__ import annotations

import math
import operator

from extremeforms.core import (
    InternalInvariantError,
    ResourceBudgetError,
    _exact_solve,
    _IntEliminator,
)

# Most rays a double description keeps alive at once.
MAX_DD_RAYS = 1 << 10


def double_description(rows) -> list:
    """Vertices of {a : <v, a> <= 1 for v in rows} as gcd-reduced (d, u).

    Exact double description in Python ints. A vertex a is the ray (t, a),
    t > 0, of the cone {t - <v, a> >= 0}. The start is the simplicial cone
    of the first independent homogenized rows (_IntEliminator), whose rays
    are the columns of its exact inverse; every other row is then added
    in order. A row splits the rays by the sign of its value; the rays on
    its nonnegative side stay, and a positive ray p and a negative ray q
    give the new ray value_p q - value_q p when they are adjacent. Tight
    sets are int bitmasks over the rows, and the test is combinatorial:
    p and q share at least dim - 1 tight rows (dim = len(a)) and no third
    ray's tight set contains the shared ones. It is exact while the rays
    are exactly the extreme rays of the cone cut so far, which each step
    keeps. The rows must have at least two coordinates (ValueError), so
    that a shared set is never empty, and cut out a bounded
    full-dimensional polytope (InternalInvariantError). A row that would
    leave more than MAX_DD_RAYS rays raises ResourceBudgetError as soon as
    its rays pass the cap.
    """
    cone = [(1, *(-x for x in v)) for v in rows]
    dim = len(cone[0]) - 1
    if dim < 2:
        raise ValueError("double description needs rows of length >= 2")
    eliminator, start = _IntEliminator(), []
    for i, row in enumerate(cone):
        if len(start) <= dim and eliminator.push(row):
            start.append(i)
    if len(start) <= dim:
        raise InternalInvariantError("the rows do not span")
    inverse = _exact_solve([cone[i] for i in start],
                           [[int(i == j) for j in range(dim + 1)]
                            for i in range(dim + 1)])
    full = sum(1 << i for i in start)
    rays, tights = [], []
    for j, column in enumerate(zip(*inverse)):
        scale = math.lcm(*(x.denominator for x in column))
        rays.append(_gcd_reduced([int(x * scale) for x in column]))
        tights.append(full & ~(1 << start[j]))
    chosen = set(start)
    for i, row in enumerate(cone):
        if i in chosen:
            continue
        values = [sum(map(operator.mul, row, ray)) for ray in rays]
        positive = [k for k, x in enumerate(values) if x > 0]
        negative = [k for k, x in enumerate(values) if x < 0]
        bit = 1 << i
        kept = [k for k, x in enumerate(values) if x >= 0]
        new_rays = [rays[k] for k in kept]
        new_tights = [tights[k] | bit if values[k] == 0 else tights[k]
                      for k in kept]
        for p in positive:
            tight_p, value_p, ray_p = tights[p], values[p], rays[p]
            # the tight sets of the rays other than p and q, with 0 (which
            # contains no shared set of dim - 1 >= 1 rows) for p and q
            others = tights.copy()
            others[p] = 0
            for q in negative:
                common = tight_p & tights[q]
                if common.bit_count() < dim - 1:
                    continue
                others[q] = 0
                third = common in map(common.__and__, others)
                others[q] = tights[q]
                if third:
                    continue
                value_q, ray_q = values[q], rays[q]
                new_rays.append(_gcd_reduced(
                    [value_p * y - value_q * x for x, y in zip(ray_p, ray_q)]))
                new_tights.append(common | bit)
                if len(new_rays) > MAX_DD_RAYS:
                    raise ResourceBudgetError(
                        f"double description passed {MAX_DD_RAYS} live rays "
                        f"at row {i + 1} of {len(cone)}")
        rays, tights = new_rays, new_tights
    for ray, tight in zip(rays, tights):
        if ray[0] <= 0 or tight.bit_count() < dim:
            raise InternalInvariantError(
                "a double-description ray is not a vertex")
    return [(ray[0], tuple(ray[1:])) for ray in rays]


def _gcd_reduced(ray) -> tuple:
    g = math.gcd(*ray)
    return tuple(x // g for x in ray) if g > 1 else tuple(ray)
