"""Constructive enumeration of the extreme points of the unit ball.

A coefficient vector a (an m-linear form on R^n) of sup norm at most one is
extreme in the unit ball exactly when the tensor vertices v with
|<a, v>| = 1 span R^(n^m). That criterion drives a four-step pipeline:

1. enumerate bases of R^(n^m) drawn from the tensor-vertex set V that
   contain the all-ones anchor w(e, ..., e);
2. for each basis H and each sign vector f solve H a^t = f^t exactly,
   once per orbit of bases under the anchor's stabilizer;
3. keep the solutions whose sup norm is at most one (checked against all
   of V);
4. expand the survivors by the sign-group orbit, deduplicate, sort.

Every solution kept in step 3 is tight on an entire basis, so it is a true
extreme point regardless of how much of step 1 has completed; budgeted
runs therefore return honest partial subsets together with a resume
cursor.

Three exact-arithmetic reductions keep the search small without changing
the result set. Bases differing only by row negations produce identical
solution sets as f ranges over all sign vectors, so only rows from one
representative per antipodal pair {v, -v} are enumerated. The anchor
entry of f is pinned to +1: the omitted half yields exactly the negated
solutions, which step 4 restores because the all-minus-ones diagonal lies
in the group. And the coordinate permutations (S_n)^m x| S_m map V onto V
and fix the anchor, so a permutation g turns the solutions of a basis B
into those of g B: keys(g B) = g keys(B). The walk still yields every
basis, but the kernel runs only on the first basis of each orbit in the
walk's order, and every other basis of the orbit takes the permuted keys
(_stabilizer, _chunk_keys). The 2304 bases of (2,3) fall into 42 orbits,
the 300 bases of the kg --m 4 scan into 58.

The hot loop works on integer numerators u = D H^-1 f with a common
denominator D: the basis determinant, from a float inverse verified exactly
in integers, or, only when that check fails, the least common denominator
of the exact inverse. Since H (D H^-1) = D I exactly, every basis row gives
|<u, v>| = D, so only the ball rows outside the basis are tested. Their
products with the adjugate are formed once per basis, and the sign vectors
are tested against them prefix by prefix in float64: a prefix whose partial
sum already exceeds D by more than the remaining coordinates can reach is
dropped with all its completions. A Hadamard bound proves every value
involved an integer below 2^53, so the float64 results are exact for any
summation order; _anchored_walk refuses any size where the bound fails.
Numerators are formed only for the surviving sign vectors. For
n = 2 the representative rows are mutually orthogonal, the anchored basis
is unique (a Walsh-Hadamard matrix), and every solution is automatically
extreme; planar_extreme_points exploits that shortcut to reach 2^(2^m)
points directly.

Both searches end in an ExtremeSet of gcd-reduced integer rows (d, u) in
two int64 arrays, sorted on exact integer keys. Fractions appear only
where a caller asks for FormVectors (ExtremeSet.points, iteration,
point(i)), in _det_adjugate's exact fallback, and in the
brute_force_vertices oracle, which keeps its own exact Fraction solve and
only uses the container.

The certificates (in_unit_ball, is_extreme), the exact eliminator and
InternalInvariantError live in core and are re-exported here. This module
loads numpy, so the commands that never load numpy (verify, --help, and
JSON cache hits) never import it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, permutations, product
from typing import Iterator

import numpy as np

# The exact certificate layer lives in core, which loads no numpy; it is
# imported here for the pipeline and re-exported under its old home.
from extremeforms.core import (  # noqa: F401
    ExtremalityCertificate,
    FormVector,
    InBallResult,
    InternalInvariantError,
    ResourceBudgetError,
    _exact_solve,
    _IntEliminator,
    enumerate_tensor_vertices,
    in_unit_ball,
    inner,
    is_extreme,
)

RESUME_FORMAT_VERSION = 1
# Largest n^m the general pipeline attempts: a resource limit (2^15 sign
# systems per basis at 16) inside the float64 exactness bound of
# _kernel_exact. The bound is 2^37.3 at 16 and reaches 2^53 from 22 on;
# the next n^m with m >= 2, 25, would give 2^64.3, past int64 as well.
MAX_PIPELINE_DIMENSION = 16
# Branch-and-bound widths of the basis kernel, chosen by measurement: the
# first KERNEL_HEAD_WIDTH coordinates of the sign vectors are enumerated
# whole (2^8 rows), the rest in blocks of KERNEL_BLOCK_WIDTH.
KERNEL_HEAD_WIDTH = 9
KERNEL_BLOCK_WIDTH = 4
# Largest point count planar_extreme_points lists: 2^(2^m) for m <= 4.
MAX_PLANAR_POINTS = 1 << 17


class BudgetExceeded(RuntimeError):
    """Search budget ran out; carries a resume cursor and any partial set."""

    def __init__(self, message, resume, partial=None):
        super().__init__(message)
        self.resume = resume
        self.partial = partial


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------

# _fraction(num, den) is Fraction(num, den), built once per distinct value
_fraction = lru_cache(maxsize=1 << 16)(Fraction)


def reduced_row(coeffs) -> tuple:
    """(d, u) with coeffs == u / d, gcd-reduced, d > 0, as Python ints."""
    coeffs = [Fraction(c) for c in coeffs]
    d = math.lcm(*(c.denominator for c in coeffs))
    return d, tuple(c.numerator * (d // c.denominator) for c in coeffs)


def int64_row(coeffs) -> tuple:
    """reduced_row, or ValueError unless d and every |u_i| are below 2^63.

    ExtremeSet stores its rows in int64; this is its stated size limit.
    """
    d, u = reduced_row(coeffs)
    if (d >> 63) or any(abs(x) >> 63 for x in u):
        raise ValueError(f"does not fit int64 (denominator {d})")
    return d, u


def exact_keys(pairs) -> list:
    """Integer keys that compare like the rational vectors u / d.

    The key of (d, u) is u * (L // d), L the lcm of all the denominators,
    so lexicographic order needs no Fraction.
    """
    pairs = list(pairs)
    lcm = math.lcm(*{d for d, _ in pairs})
    return [tuple(x * (lcm // d) for x in u) for d, u in pairs]


def exact_order(pairs) -> list:
    """(d, u) pairs sorted by the rational vectors u / d, duplicates kept."""
    pairs = list(pairs)
    keys = exact_keys(pairs)
    return [pairs[i] for i in sorted(range(len(pairs)),
                                     key=keys.__getitem__)]


@dataclass(frozen=True, eq=False)
class ExtremeSet:
    """Canonically sorted, deduplicated set of extreme coefficient vectors.

    Row i is the point nums[i] / dens[i]: dens is int64[k], nums is
    int64[k, n^m], each row gcd-reduced with a positive denominator, rows
    in the lexicographic order of the rational vectors. The constructor
    trusts its arrays; from_pairs and from_points reduce, deduplicate and
    sort. FormVectors are built only on demand and cached. complete=False
    marks a budget-truncated run; the points present are still genuine
    extreme points. Equality compares m, n and the arrays.
    """

    m: int
    n: int
    dens: np.ndarray
    nums: np.ndarray
    complete: bool = True

    def __post_init__(self):
        dens = np.asarray(self.dens, dtype=np.int64)
        nums = np.asarray(self.nums, dtype=np.int64).reshape(
            len(dens), self.n ** self.m)
        object.__setattr__(self, "dens", dens)
        object.__setattr__(self, "nums", nums)

    @classmethod
    def from_pairs(cls, m, n, pairs, complete=True) -> "ExtremeSet":
        """From gcd-reduced (d, u) integer pairs with d > 0 and |u| < 2^63."""
        rows = exact_order(set(pairs))
        return cls(m, n, [d for d, _ in rows], [u for _, u in rows],
                   complete=complete)

    @classmethod
    def from_points(cls, m, n, points, complete=True) -> "ExtremeSet":
        """From FormVectors or rational sequences, reduced and sorted.

        ValueError names the point whose row does not fit int64.
        """
        pairs = []
        for index, point in enumerate(points):
            if not isinstance(point, FormVector):
                point = FormVector(tuple(point), m, n)
            if (point.m, point.n) != (m, n):
                raise ValueError(f"point {index} has shape "
                                 f"(m={point.m}, n={point.n})")
            try:
                pairs.append(int64_row(point.coeffs))
            except ValueError as err:
                raise ValueError(f"point {index}: {err}") from None
        return cls.from_pairs(m, n, pairs, complete=complete)

    def __len__(self) -> int:
        return len(self.dens)

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtremeSet):
            return NotImplemented
        return ((self.m, self.n) == (other.m, other.n)
                and np.array_equal(self.dens, other.dens)
                and np.array_equal(self.nums, other.nums))

    def __contains__(self, item) -> bool:
        coeffs = item.coeffs if isinstance(item, FormVector) else tuple(item)
        return reduced_row(coeffs) in self._pair_set

    @cached_property
    def _pair_set(self) -> frozenset:
        return frozenset(self.pairs())

    def _form(self, d, u) -> FormVector:
        return FormVector(tuple(_fraction(x, d) for x in u), self.m, self.n)

    def point(self, index) -> FormVector:
        """Row index as a FormVector, without building the others."""
        return self._form(int(self.dens[index]), self.nums[index].tolist())

    @cached_property
    def points(self) -> tuple:
        return tuple(self._form(d, u) for d, u in self.pairs())

    def pairs(self) -> list:
        """The rows as (d, u) pairs of Python ints."""
        return list(zip(self.dens.tolist(), map(tuple, self.nums.tolist())))

    def max_denominator(self) -> int:
        """Largest reduced denominator of any coordinate, d // gcd(u_i, d)."""
        cells = self.dens[:, None] // np.gcd(self.nums, self.dens[:, None])
        return int(cells.max(initial=1))

    def coefficient_tuples(self) -> frozenset:
        return frozenset(p.coeffs for p in self.points)


# ---------------------------------------------------------------------------
# exact linear algebra helpers
# ---------------------------------------------------------------------------

def _det_adjugate(mat):
    """(D, D * mat^-1), D a positive integer, for an invertible sign matrix.

    A float inverse guess verified exactly in integers gives D = |det|; on
    any mismatch the exact route gives the least common denominator. Both
    yield the same keys, since _process_basis gcd-reduces them against D.
    """
    size = mat.shape[0]
    as_float = mat.astype(np.float64)
    detf = np.linalg.det(as_float)
    det = int(round(detf))
    if det != 0:
        guess = np.rint(np.linalg.inv(as_float) * detf).astype(np.int64)
        if np.array_equal(mat @ guess, det * np.eye(size, dtype=np.int64)):
            return (det, guess) if det > 0 else (-det, -guess)
    try:
        inverse = _exact_solve(mat.tolist(), np.eye(size, dtype=int).tolist())
    except ValueError:
        raise InternalInvariantError("basis matrix is singular") from None
    det = math.lcm(*(x.denominator for row in inverse for x in row))
    return det, np.array([[int(x * det) for x in row] for row in inverse],
                         dtype=np.int64)


def _kernel_exact(size) -> bool:
    """Whether every value _process_basis forms at this size is below 2^53.

    An adjugate entry is a (size-1)-minor of a sign matrix, so Hadamard's
    inequality gives |adj| <= (size-1)^((size-1)/2). A reach entry sums
    size adjugate entries and a value sums size reach entries, so
    |values| <= size^2 (size-1)^((size-1)/2). A prefix partial sum and a
    slack (a sum of |reach| over a tail of coordinates) each sum at most
    size reach entries and obey the same bound, and |partial| - slack,
    a difference of two values in [0, bound], does too. Every
    intermediate sum is of the same kind, so float64 is exact in any
    summation order. Compared squared, in integers.
    """
    return size ** 4 * (size - 1) ** (size - 1) < 1 << 106


# ---------------------------------------------------------------------------
# shared tables and the depth-first basis search
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _tables(m, n):
    vertices = enumerate_tensor_vertices(m, n)
    index = {v: i for i, v in enumerate(vertices)}
    negated = [index[tuple(-c for c in v)] for v in vertices]
    representatives = [i for i in range(1, len(vertices)) if i < negated[i]]
    vmat = np.array(vertices, dtype=np.int64)
    ball_rows = np.array([0] + representatives)  # one per antipodal pair
    # each vertex's antipodal pair as a position in ball_rows
    pair = np.minimum(np.arange(len(vertices)), negated)
    return {
        "vertices": vertices,
        "vmat": vmat,
        "representatives": representatives,
        "ball_rows": ball_rows,
        "ball": vmat[ball_rows],
        "ball_position": np.searchsorted(ball_rows, pair),
    }


@lru_cache(maxsize=8)
def _sign_block(size):
    """All sign vectors of the given length whose first entry is +1.

    float64, the dtype of the basis kernel's products. The kernel takes
    its head from here and, dropping the first column, every sign vector
    of a block's width, so it never asks for more than
    2^(KERNEL_HEAD_WIDTH - 1) rows.
    """
    count = 1 << (size - 1)
    bits = (np.arange(count, dtype=np.int64)[:, None]
            >> np.arange(size - 2, -1, -1, dtype=np.int64)[None, :]) & 1
    block = np.empty((count, size), dtype=np.float64)
    block[:, 0] = 1
    block[:, 1:] = 1 - 2 * bits
    return block


def _independent_subsets(rows, candidates, need, seek, prefix=(0,)):
    """Ascending candidate tuples that extend the prefix rows to a basis.

    prefix holds the row indices pushed first, by default the anchor.
    seek is a previously completed tuple; everything up to and including
    it in depth-first order is skipped, which implements resume.
    """
    eliminator = _IntEliminator()
    if not all(eliminator.push(rows[i]) for i in prefix):
        raise InternalInvariantError("prefix rows are dependent")
    path = []

    def recurse(pos, need, seek) -> Iterator[tuple]:
        if need == 0:
            if seek is None:
                yield tuple(path)
            return
        for q in range(pos, len(candidates) - need + 1):
            idx = candidates[q]
            sub = None
            if seek is not None:
                if idx < seek[0]:
                    continue
                sub = seek[1:] if idx == seek[0] else None
            if not eliminator.push(rows[idx]):
                continue
            path.append(idx)
            yield from recurse(q + 1, need - 1, sub)
            path.pop()
            eliminator.pop()

    yield from recurse(0, need, seek)


def _anchored_walk(m, n, budget, resume) -> Iterator[tuple]:
    """Budgeted depth-first walk over anchored bases, anchor index omitted.

    Rows are drawn from one representative per antipodal pair. The
    dimension and the resume cursor are checked at the call; the returned
    iterator raises BudgetExceeded, carrying a cursor that a later call
    accepts as resume, once budget bases have been yielded. The cursor
    names its search "kind": "pipeline", and enum resume files store it
    byte for byte.
    """
    size = n ** m
    if size > MAX_PIPELINE_DIMENSION:
        raise ResourceBudgetError(f"n^m = {size} exceeds supported dimension")
    if not _kernel_exact(size):
        raise ResourceBudgetError(
            f"n^m = {size}: basis kernel values may reach 2^53")
    tables = _tables(m, n)
    candidates = tables["representatives"]
    seek = None
    if resume is not None:
        if not isinstance(resume, dict) \
                or resume.get("format-version") != RESUME_FORMAT_VERSION:
            raise ValueError("unsupported resume format")
        if (resume.get("kind"), resume.get("m"), resume.get("n")) \
                != ("pipeline", m, n):
            raise ValueError("resume state belongs to a different search")
        if resume.get("last_basis") is not None:
            seek = resume["last_basis"]
            if not isinstance(seek, (list, tuple)) or len(seek) != size - 1:
                raise ValueError("resume cursor has the wrong depth")
            if not all(type(x) is int and x in candidates for x in seek) \
                    or any(a >= b for a, b in zip(seek, seek[1:])):
                raise ValueError("resume cursor is not an ascending tuple "
                                 "of this walk's candidate rows")
            seek = tuple(seek)
    subsets = _independent_subsets(tables["vertices"], candidates, size - 1,
                                   seek)

    def walk():
        last = seek
        for count, chosen in enumerate(subsets):
            if budget is not None and count >= budget:
                cursor = {"format-version": RESUME_FORMAT_VERSION,
                          "kind": "pipeline", "m": m, "n": n,
                          "last_basis": None if last is None else list(last)}
                raise BudgetExceeded(f"pipeline budget {budget} exhausted",
                                     resume=cursor)
            yield chosen
            last = chosen

    return walk()


# ---------------------------------------------------------------------------
# orbits of bases under the anchor's stabilizer
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _stabilizer(m, n):
    """The anchor's stabilizer (S_n)^m x| S_m as (perms, table).

    Element g permutes the slots and, within each slot, the n coordinates:
    (g a)[perms[g, i]] = a[i], so g^-1 a = a[perms[g]]. perms is int64
    [(n!)^m m!, n^m], the identity first. g maps V onto V and fixes the
    anchor w(e, ..., e), and <g v, g a> = <v, a>, so it maps the unit ball
    onto itself and g B is an anchored basis with g a its solution for
    each solution a of B: keys(g B) = g keys(B). table[g, j] is the ball
    position (the antipodal pair) of g v_j, as uint8; with at most 64
    pairs a basis is a 64-bit mask. For m = 1 (S_n has up to 16!
    elements), n = 1, and any size past 64 pairs, the group is the
    identity alone and table is None.
    """
    size = n ** m
    tables = _tables(m, n)
    if m == 1 or n == 1 or len(tables["ball"]) > 64:
        return np.arange(size)[None, :], None
    axes = np.indices((n,) * m).reshape(m, size)
    sym = np.array(list(permutations(range(n))))
    blocks = []
    for order in permutations(range(m)):
        image = np.zeros((1,) * m + (size,), dtype=np.int64)
        for k, axis in enumerate(order):
            shape = [1] * m + [size]
            shape[k] = len(sym)
            image = image + (sym[:, axes[axis]] * n ** (m - 1 - k)
                             ).reshape(shape)
        blocks.append(image.reshape(-1, size))
    perms = np.concatenate(blocks)
    # a vertex as a bit code, bit i set where v_i = -1; g moves bit i to
    # bit perms[g, i]
    bits = (tables["vmat"] < 0).astype(np.uint16)
    position = np.zeros(1 << size, dtype=np.uint8)
    position[bits @ (1 << np.arange(size, dtype=np.uint16))] = \
        tables["ball_position"]
    return perms, position[(1 << perms.astype(np.uint16)) @ bits.T]


# the bit of a 64-bit mask that stands for each ball position: lower
# positions take higher bits, so of two bases the one with the greater mask
# comes first in the walk's order. Built from Python ints: a uint64 ufunc
# at import time would grow the resident memory of every command that
# imports this module.
_POSITION_BIT = np.array([1 << bit for bit in range(63, -1, -1)],
                         dtype=np.uint64)
# bases _orbit_keys takes from its walk per call of _chunk_keys
ORBIT_CHUNK = 16


def _orbit_keys(m, n, bases, keys):
    """Add the keys of every basis the walk yields, one kernel run per orbit.

    bases yields tuples of row indices, anchor omitted; they reach
    _chunk_keys ORBIT_CHUNK at a time, and a BudgetExceeded from the walk
    is raised again after the bases already drawn are added.
    """
    cache = {}
    chunk = []
    try:
        for basis in bases:
            chunk.append(basis)
            if len(chunk) == ORBIT_CHUNK:
                _chunk_keys(m, n, chunk, keys, cache)
                chunk = []
    except BudgetExceeded:
        _chunk_keys(m, n, chunk, keys, cache)
        raise
    _chunk_keys(m, n, chunk, keys, cache)


def _chunk_keys(m, n, chunk, keys, cache):
    """Add the keys of the bases in chunk, from cache where it can.

    A basis B is the mask of its ball positions; its canonical image is
    g B with the greatest mask over the group, the orbit's first basis in
    the walk's order. g permutes V and fixes the anchor, so g maps the
    solutions of B's anchored sign systems onto those of g B (the anchor
    entry of f stays +1, and a row of g B that is the negation of a
    representative only negates an entry of f), and the ball filter onto
    itself: keys(g B) = g keys(B). So keys(B) = g^-1 keys(g B), and
    _process_basis runs once per canonical basis; cache maps its mask to
    the keys as int64 arrays (dens, nums). A permutation keeps a key
    gcd-reduced, so the images are keys again. For the identity group
    every basis is its own orbit and goes to the kernel directly.
    """
    perms, table = _stabilizer(m, n)
    if table is None or not chunk:
        for basis in chunk:
            _process_basis(m, n, [0, *basis], keys)
        return
    rows = np.array(chunk)
    masks = np.zeros((len(table), len(rows)), dtype=np.uint64)
    for column in rows.T:
        masks |= _POSITION_BIT[table[:, column]]
    best = masks.argmax(axis=0)
    ball_rows = _tables(m, n)["ball_rows"]
    for basis, g, mask in zip(rows, best.tolist(),
                              masks[best, np.arange(len(rows))].tolist()):
        if mask not in cache:
            canonical = ball_rows[np.sort(table[g, basis])].tolist()
            found = set()
            _process_basis(m, n, [0, *canonical], found)
            cache[mask] = (np.array([d for d, _ in found], dtype=np.int64),
                           np.array([u for _, u in found], dtype=np.int64
                                    ).reshape(len(found), n ** m))
        dens, nums = cache[mask]
        keys.update(zip(dens.tolist(),
                        map(tuple, nums[:, perms[g]].tolist())))


# ---------------------------------------------------------------------------
# step 4: orbits
# ---------------------------------------------------------------------------

def orbit(a: FormVector) -> set:
    """The sign-group orbit {v * a : v in V}; always contains -a."""
    return {FormVector(tuple(s * c for s, c in zip(v, a.coeffs)), a.m, a.n)
            for v in _tables(a.m, a.n)["vertices"]}


# ---------------------------------------------------------------------------
# the assembled pipeline
# ---------------------------------------------------------------------------

def _process_basis(m, n, row_indices, keys):
    """Solve all anchored sign systems for one basis; record feasible keys.

    The solution of H a = f is u / D with u = adj f. A basis row gives
    <u, v> = D f_i exactly, so only the ball rows outside the basis are
    tested: reach = outside @ adj once, then |f . reach| <= D for every
    sign vector f, and u only for the survivors. The sign vectors grow
    prefix by prefix: the head of KERNEL_HEAD_WIDTH coordinates (f_0 = +1)
    is enumerated whole, then each surviving prefix is extended by every
    block of KERNEL_BLOCK_WIDTH signs. slack[:, i] is the sum of |reach|
    over the coordinates from i on, the most any completion can add, so a
    prefix with |partial| - slack > D on some row has no feasible
    completion and is dropped. After the last coordinate the slack is 0
    and the test is exactly |f . reach| <= D, so the survivors are the
    feasible sign vectors; all values are exact (_kernel_exact). Keys are
    gcd-reduced (denominator, numerator tuple) pairs with the denominator
    positive, a unique representation of the rational vector.
    """
    tables = _tables(m, n)
    size = n ** m
    det, adj = _det_adjugate(tables["vmat"][row_indices])
    inside = np.zeros(len(tables["ball"]), dtype=bool)
    inside[tables["ball_position"][row_indices]] = True
    reach = (tables["ball"][~inside] @ adj).astype(np.float64)
    rows = len(reach)
    slack = np.zeros((rows, size + 1))
    slack[:, :size] = np.abs(reach[:, ::-1]).cumsum(axis=1)[:, ::-1]
    width = min(KERNEL_HEAD_WIDTH, size)
    signs = _sign_block(width)
    partial = signs @ reach[:, :width].T
    while True:
        live = (np.abs(partial) - slack[:, width]).max(axis=1, initial=0) \
            <= det
        signs, partial = signs[live], partial[live]
        if not len(signs):
            return
        if width == size:
            break
        step = min(KERNEL_BLOCK_WIDTH, size - width)
        block = _sign_block(step + 1)[:, 1:]
        grown = len(signs) * len(block)
        partial = (partial[:, None, :]
                   + (block @ reach[:, width:width + step].T)[None]
                   ).reshape(grown, rows)
        signs = np.hstack([np.repeat(signs, len(block), axis=0),
                           np.tile(block, (len(signs), 1))])
        width += step
    feasible = (signs @ adj.T).astype(np.int64)
    g = np.gcd(np.gcd.reduce(feasible, axis=1), det)
    reduced = feasible // g[:, None]
    keys.update(zip((det // g).tolist(), map(tuple, reduced.tolist())))


def _finalize(m, n, keys, complete):
    """Orbit-expand candidate keys, deduplicate, sort, build the set.

    Sign flips keep a key (d, u) gcd-reduced, so the images of all keys
    deduplicate as integer pairs in one set, and no Fraction is built.
    Orbits partition the keys, so a key already among the images has its
    whole orbit there and is skipped.
    """
    vmat = _tables(m, n)["vmat"]
    images = set()
    for key in keys:
        if key not in images:
            d, u = key
            images.update((d, tuple(row)) for row in (vmat * u).tolist())
    return ExtremeSet.from_pairs(m, n, images, complete=complete)


def _subtree_keys(args):
    """Worker task: all candidate keys whose basis starts at one position."""
    m, n, position = args
    tables = _tables(m, n)
    first = tables["representatives"][position]
    keys = set()
    _orbit_keys(m, n, ((first, *chosen) for chosen in _independent_subsets(
        tables["vertices"], tables["representatives"][position + 1:],
        n ** m - 2, None, prefix=(0, first))), keys)
    return keys


def extreme_points(m, n, budget=None, resume=None, workers=1) -> ExtremeSet:
    """All extreme points of the unit ball of m-linear forms on R^n.

    budget bounds the number of (reduced) bases walked in this call, of
    which the kernel solves one per orbit (_chunk_keys); exceeding it
    raises BudgetExceeded whose .partial is an honest subset and whose
    .resume continues the search. workers > 1 parallelizes
    fresh, unbudgeted runs over first-row subtrees; a budgeted or resumed
    run walks its cursor in this process. Output is byte-identical for any
    worker count because the merge is a set union followed by one
    canonical sort.
    """
    walk = _anchored_walk(m, n, budget, resume)
    size = n ** m
    if budget is None and resume is None and workers > 1 and size > 1:
        positions = range(len(_tables(m, n)["representatives"]) - size + 2)
        tasks = [(m, n, p) for p in positions]
        if len(tasks) > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(
                    max_workers=min(workers, len(tasks))) as pool:
                keys = set().union(*pool.map(_subtree_keys, tasks))
            return _finalize(m, n, keys, complete=True)

    keys = set()
    try:
        _orbit_keys(m, n, walk, keys)
    except BudgetExceeded as stop:
        stop.partial = _finalize(m, n, keys, complete=False)
        raise
    return _finalize(m, n, keys, complete=True)


def planar_extreme_points(m) -> ExtremeSet:
    """Fast path for n = 2: one orthogonal anchored basis, no filtering.

    The 2^m representative rows are mutually orthogonal (each slot
    contributes an orthogonal vertex pair), so a = H^t f / 2^m solves the
    anchored system for every sign vector f, and |<a, v>| = 1 for all of
    V; all 2^(2^m) solutions are extreme and distinct.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    count = 2 ** (2 ** m)
    if count > MAX_PLANAR_POINTS:
        raise ResourceBudgetError(
            f"planar set for m={m} has {count} points, "
            f"cap {MAX_PLANAR_POINTS}")
    h = _tables(m, 2)["ball"]
    size = 2 ** m
    if not np.array_equal(h @ h.T, size * np.eye(size, dtype=np.int64)):
        raise InternalInvariantError("planar basis rows are not orthogonal")
    bits = (np.arange(count, dtype=np.int64)[:, None]
            >> np.arange(size - 1, -1, -1, dtype=np.int64)[None, :]) & 1
    signs = 1 - 2 * bits
    numerators = signs @ h
    # one common denominator, so this order is the exact rational order
    nums = numerators[np.lexsort(numerators.T[::-1])]
    g = np.gcd(np.gcd.reduce(nums, axis=1), size)
    return ExtremeSet(m, 2, size // g, nums // g[:, None])


# ---------------------------------------------------------------------------
# independent oracle
# ---------------------------------------------------------------------------

def brute_force_vertices(m, n) -> ExtremeSet:
    """Vertex enumeration of {a : |<a, v>| <= 1 for all v in V}.

    Independent route: every full-rank n^m-subset of the constraint
    vectors, every sign pattern, exact solve, exact feasibility filter.
    Intentionally shares no search structure with extreme_points beyond
    the vertex tables, so agreement between the two is meaningful.
    """
    size = n ** m
    tables = _tables(m, n)
    constraints = [tuple(int(x) for x in row) for row in tables["ball"]]
    work = math.comb(len(constraints), size) * 2 ** size
    if size > 9 or work > 2_000_000:
        raise ResourceBudgetError(
            f"brute force would need {work} solves; guard is 2000000")
    sign_rows = list(zip(*product((1, -1), repeat=size)))
    found = set()
    for subset in combinations(constraints, size):
        eliminator = _IntEliminator()
        if not all(eliminator.push(row) for row in subset):
            continue
        # one elimination of [subset | all sign vectors as columns]
        for candidate in zip(*_exact_solve(subset, sign_rows)):
            if all(abs(inner(candidate, c)) <= 1 for c in constraints):
                found.add(candidate)
    return ExtremeSet.from_points(m, n, found)
