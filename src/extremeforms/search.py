"""Constructive enumeration of the extreme points of the unit ball.

A coefficient vector a (an m-linear form on R^n) of sup norm at most one is
extreme in the unit ball exactly when the tensor vertices v with
|<a, v>| = 1 span R^(n^m). extreme_points picks its engine from the shape
(m, n) first and from the kind of run second, with no flag. Two families
of shapes have closed forms, complete at any budget, that refuse a
resume cursor:

* m = 1 or n = 1: every sign vector is a tensor vertex, so the ball is
  the cross-polytope, whose 2 n^m points are the signed unit vectors;
* n = 2: the parallelotope, planar_extreme_points, the closed form below.

Every other shape within MAX_PIPELINE_DIMENSION, which leaves (2,3) and
(2,4), takes

* in a complete run (no budget, no resume), a double description of the
  rows of V in Python ints (dd.double_description): 90 points of (2,3)
  from at most 252 rays;
* in a budgeted or resumed run, the basis walk below.

The basis walk is a four-step pipeline:

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
grow one coordinate at a time in float64, each live prefix one row of its
sums on those rows and of its partial numerator: a prefix whose partial
sum already exceeds D by more than the remaining coordinates can reach is
dropped with all its completions, and after the last coordinate the
partial numerators are the numerators. A Hadamard bound proves every value
involved an integer below 2^53, so the float64 results are exact for any
summation order; _anchored_walk refuses any size where the bound fails. For
n = 2 the representative rows are mutually orthogonal, the anchored basis
is unique (a Walsh-Hadamard matrix), and every solution is automatically
extreme; planar_extreme_points exploits that shortcut to reach 2^(2^m)
points directly.

Every search ends in an ExtremeSet of gcd-reduced integer rows (d, u),
held in two flat stdlib arrays, sorted on exact integer keys. Fractions
appear only where a caller asks for FormVectors (ExtremeSet.points,
iteration, point(i)), in _det_adjugate's exact fallback, in the exact
inverse that starts a double description, and in the exact solve of the
brute_force_vertices oracle, which then filters each solution as a
reduced row (d, u) in ints and only uses the container.

The rule for numpy is "Python ints up to one block of rows (BLOCK_ROWS),
numpy past it". Only the basis walk's kernels, the m = 4 planar kernel
and the scans over sets of more than one block import numpy, each inside
the function, so every run of at most BLOCK_ROWS points that takes no
walk (the double description, planar m <= 3, the cross-polytope,
brute_force_vertices) and the ExtremeSet it returns never load it. The
certificates (in_unit_ball, is_extreme), the exact eliminator and
InternalInvariantError live in core and are re-exported here.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, combinations, permutations, product, repeat
from operator import add, mul, sub
from typing import Iterator

# The exact certificate layer lives in core, which loads no numpy; it is
# imported here for the pipeline and re-exported under its old home.
from extremeforms.core import (  # noqa: F401
    ExtremalityCertificate,
    FormVector,
    InBallResult,
    InternalInvariantError,
    Record,
    ResourceBudgetError,
    _exact_solve,
    _IntEliminator,
    enumerate_tensor_vertices,
    in_unit_ball,
    is_extreme,
)

RESUME_FORMAT_VERSION = 1
# Largest n^m any engine attempts: a resource limit (2^15 sign systems
# per basis at 16) inside the float64 exactness bound of the walk's
# _kernel_exact. The bound is 2^37.3 at 16 and reaches 2^53 from 22 on;
# the next n^m with m >= 2, 25, would give 2^64.3, past int64 as well.
MAX_PIPELINE_DIMENSION = 16
# Rows per block (row_blocks) of the scans over a whole ExtremeSet, which
# bounds their temporaries by the block, not by the set. A set of at most
# one block is built, scanned, written and read in Python ints alone.
BLOCK_ROWS = 1024


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
    ratios = [(c if isinstance(c, Fraction) else Fraction(c))
              .as_integer_ratio() for c in coeffs]
    d = math.lcm(*[q for _, q in ratios])
    return d, tuple(p * (d // q) for p, q in ratios)


def int64_row(coeffs) -> tuple:
    """reduced_row, or ValueError unless d and every |u_i| are below 2^63.

    ExtremeSet stores its rows in int64; this is its stated size limit.
    """
    d, u = reduced_row(coeffs)
    if (d >> 63) or max(map(abs, u), default=0) >> 63:
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


def fits_int8(nums) -> bool:
    """Whether every entry of the flat sequence of ints nums lies in
    [-127, 127], scanned in Python."""
    return not nums or (min(nums) >= -127 and max(nums) <= 127)


def array_fits_int8(nums) -> bool:
    """fits_int8 for an integer numpy array, scanned in numpy."""
    return nums.size == 0 or (int(nums.min()) >= -127
                              and int(nums.max()) <= 127)


def row_blocks(count) -> list:
    """Slices of BLOCK_ROWS consecutive rows that cover range(count)."""
    return [slice(start, start + BLOCK_ROWS)
            for start in range(0, count, BLOCK_ROWS)]


def pairs_of(dens, nums, width) -> list:
    """(d, u) pairs of Python ints from flat int arrays: row i is
    dens[i] over the width entries of nums from i * width."""
    return list(zip(dens.tolist(), zip(*[iter(nums.tolist())] * width)))


def int_view(flat, shape, writable=False):
    """A numpy view of a flat array.array ('b' as int8, 'q' as int64) in
    the given shape, sharing its buffer; read-only unless writable."""
    import numpy as np

    view = np.frombuffer(flat, dtype=np.int8 if flat.typecode == "b"
                         else np.int64).reshape(shape)
    view.flags.writeable = writable
    return view


def exact_order(pairs) -> list:
    """(d, u) pairs sorted by the rational vectors u / d, duplicates kept."""
    pairs = list(pairs)
    keys = exact_keys(pairs)
    return [pairs[i] for i in sorted(range(len(pairs)),
                                     key=keys.__getitem__)]


def antipodal_representatives(vertices) -> list:
    """One row per antipodal pair {v, -v} of vertices, the first of each
    pair in their order: the rows that cut out the unit ball."""
    rows, negations = [], set()
    for v in vertices:
        if v not in negations:
            rows.append(v)
            negations.add(tuple(-x for x in v))
    return rows


def _stored_nums(nums, rows):
    """nums, the numerators of rows rows, as one flat array.array: 'b'
    when every entry fits int8 (fits_int8), else 'q'.

    nums is a flat array.array, kept as it is when its typecode is right;
    a numpy array, copied once through its buffer; or a sequence of rows
    or of ints. Past one block of rows the int8 test reads a numpy view,
    and a 'q' array that fits is narrowed by one numpy copy.
    """
    if not hasattr(nums, "dtype"):
        if not isinstance(nums, array) or nums.typecode not in "bq":
            nums = list(nums)
            if nums and hasattr(nums[0], "__iter__"):
                nums = list(chain.from_iterable(nums))
            nums = array("q", nums)
        if nums.typecode == "b":
            return nums
        if rows <= BLOCK_ROWS:
            return array("b", nums) if fits_int8(nums) else nums
    source = (int_view(nums, -1) if isinstance(nums, array)
              else nums.reshape(-1))
    narrow = array_fits_int8(source)
    if isinstance(nums, array) and not narrow:
        return nums
    flat = array("b" if narrow else "q", [0]) * source.size
    int_view(flat, -1, writable=True)[:] = source
    return flat


class ExtremeSet(Record):
    """Canonically sorted, deduplicated set of extreme coefficient vectors.

    Row i is the point u / d with d = dens[i] and u the n^m numerators
    from nums[i]: each row gcd-reduced with a positive denominator, rows in
    the lexicographic order of the rational vectors. The rows are held in
    two flat stdlib arrays: the denominators as 'q' (int64) and the
    numerators as 'b' (int8) when every entry lies in [-127, 127]
    (fits_int8), as 'q' otherwise, so -nums and abs(nums) never overflow.
    dens and nums are read-only numpy views of them, int64[k] and
    int8 or int64 [k, n^m], made on access with no copy; only numpy code
    reads them, so a set of at most one block of rows never imports numpy.
    A scan widens one block of rows (row_blocks) to int64 before any other
    arithmetic. The constructor takes arrays, numpy arrays or sequences
    and trusts their order; from_pairs and from_points reduce, deduplicate
    and sort. FormVectors are built only on demand and cached.
    complete=False marks a budget-truncated run; the points present are
    still genuine extreme points. Equality compares m, n and the rows'
    values; a set is not hashable.
    """

    _fields = ("m", "n", "complete")

    def __init__(self, m, n, dens, nums, complete=True):
        if not isinstance(dens, array) or dens.typecode != "q":
            dens = array("q", dens.tolist() if hasattr(dens, "dtype")
                         else dens)
        nums = _stored_nums(nums, len(dens))
        if len(nums) != len(dens) * n ** m:
            raise ValueError(f"{len(nums)} numerators for {len(dens)} rows "
                             f"of {n ** m}")
        vars(self).update(m=m, n=n, complete=complete, _dens=dens,
                          _nums=nums)

    @property
    def dens(self):
        return int_view(self._dens, len(self._dens))

    @property
    def nums(self):
        return int_view(self._nums, (len(self._dens), self.n ** self.m))

    @classmethod
    def from_pairs(cls, m, n, pairs, complete=True) -> "ExtremeSet":
        """From gcd-reduced (d, u) integer pairs with d > 0 and |u| < 2^63."""
        rows = exact_order(set(pairs))
        return cls(m, n, [d for d, _ in rows],
                   list(chain.from_iterable(u for _, u in rows)),
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
        return len(self._dens)

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtremeSet):
            return NotImplemented
        return ((self.m, self.n) == (other.m, other.n)
                and self._dens == other._dens and self._nums == other._nums)

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
        row, width = range(len(self))[index], self.n ** self.m
        return self._form(self._dens[row],
                          self._nums[row * width:(row + 1) * width])

    @cached_property
    def points(self) -> tuple:
        return tuple(self._form(d, u) for d, u in self.pairs())

    def pairs(self) -> list:
        """The rows as (d, u) pairs of Python ints."""
        return pairs_of(self._dens, self._nums, self.n ** self.m)

    def max_denominator(self) -> int:
        """Largest reduced denominator of any coordinate, d // gcd(u_i, d).

        Per row that is d // min_i gcd(u_i, d), over the rows with d above
        the best so far (no other beats it), in Python ints."""
        best, width = 1, self.n ** self.m
        for row, d in enumerate(self._dens):
            if d > best:
                u = self._nums[row * width:(row + 1) * width]
                best = max(best, d // min(map(math.gcd, u, repeat(d))))
        return best

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
    import numpy as np

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
    a difference of two values in [0, bound], does too. A numerator, or a
    prefix of one, sums at most size adjugate entries, so it lies far
    inside the bound. Every intermediate sum is of the same kind, so
    float64 is exact in any summation order. Compared squared, in integers.
    """
    return size ** 4 * (size - 1) ** (size - 1) < 1 << 106


# ---------------------------------------------------------------------------
# shared tables and the depth-first basis search
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _tables(m, n):
    import numpy as np

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


def _independent_subsets(rows, candidates, need, seek):
    """Ascending candidate tuples that extend the anchor row to a basis.

    seek is a previously completed tuple; everything up to and including
    it in depth-first order is skipped, which implements resume.
    """
    eliminator = _IntEliminator()
    eliminator.push(rows[0])
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


def _refuse_past_dimension(size):
    if size > MAX_PIPELINE_DIMENSION:
        raise ResourceBudgetError(f"n^m = {size} exceeds supported dimension")


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
    _refuse_past_dimension(size)
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
    position (the antipodal pair) of g v_j, as uint8, and _chunk_keys
    holds a basis as a 64-bit mask of them. The walk takes only (2,3),
    with 16 pairs, and (2,4), with 64.
    """
    import numpy as np

    size = n ** m
    tables = _tables(m, n)
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


# bases extreme_points takes from its walk per call of _chunk_keys
ORBIT_CHUNK = 16


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
    gcd-reduced, so the images are keys again.
    """
    import numpy as np

    if not chunk:
        return
    perms, table = _stabilizer(m, n)
    rows = np.array(chunk)
    masks = np.zeros((len(table), len(rows)), dtype=np.uint64)
    # the bit that stands for each ball position: lower positions take
    # higher bits, so of two bases the one with the greater mask comes
    # first in the walk's order
    position_bit = np.array([1 << bit for bit in range(63, -1, -1)],
                            dtype=np.uint64)
    for column in rows.T:
        masks |= position_bit[table[:, column]]
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
            for v in enumerate_tensor_vertices(a.m, a.n)}


# ---------------------------------------------------------------------------
# the assembled pipeline
# ---------------------------------------------------------------------------

def _process_basis(m, n, row_indices, keys):
    """Solve all anchored sign systems for one basis; record feasible keys.

    The solution of H a = f is u / D with u = adj f. A basis row gives
    <u, v> = D f_i exactly, so only the ball rows outside the basis are
    tested: reach = outside @ adj once, then |f . reach| <= D for every
    sign vector f. Row i of steps is coordinate i's reach on those rows,
    then column i of adj, so a prefix of f is one row of state, the sum of
    f_i steps[i] over its coordinates. The prefix f_0 = +1 is steps[0];
    each later coordinate stacks state + steps[i] over state - steps[i].
    slack[i] is the sum of |reach| over the coordinates from i on, the
    most any completion can add, so a prefix with |partial| - slack > D on
    some row has no feasible completion and is dropped before it grows.
    After the last coordinate the slack is 0 and the test is exactly
    |f . reach| <= D, so the rows left are the feasible sign vectors and
    their trailing columns are adj f; all values are exact (_kernel_exact).
    Keys are gcd-reduced (denominator, numerator tuple) pairs with the
    denominator positive, a unique representation of the rational vector.
    """
    import numpy as np

    tables = _tables(m, n)
    size = n ** m
    det, adj = _det_adjugate(tables["vmat"][row_indices])
    inside = np.zeros(len(tables["ball"]), dtype=bool)
    inside[tables["ball_position"][row_indices]] = True
    reach = tables["ball"][~inside] @ adj
    rows = len(reach)
    steps = np.hstack([reach.T, adj.T]).astype(np.float64)
    slack = np.zeros((size + 1, rows))
    slack[:size] = np.abs(steps[::-1, :rows]).cumsum(axis=0)[::-1]
    state = steps[:1]
    for i in range(1, size + 1):
        live = (np.abs(state[:, :rows]) - slack[i]).max(axis=1, initial=0) \
            <= det
        state = state[live]
        if not len(state):
            return
        if i < size:
            state = np.vstack([state + steps[i], state - steps[i]])
    feasible = state[:, rows:].astype(np.int64)
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


def extreme_points(m, n, budget=None, resume=None) -> ExtremeSet:
    """All extreme points of the unit ball of m-linear forms on R^n.

    The dimension is refused (n^m > MAX_PIPELINE_DIMENSION) before any
    engine runs. Then the shape picks the engine: for m = 1 or n = 1 the
    ball is the cross-polytope, whose points are the 2 n^m signed unit
    vectors, and for n = 2 it is planar_extreme_points(m). Both closed
    forms are complete whatever budget says, and a resume cursor for one
    is refused: no run writes one. Every other shape, (2,3) or (2,4), is
    an exact double description of the rows of V (dd.double_description)
    in a complete run (no budget, no resume). None of these three engines
    loads numpy for a set of at most one block of rows. A budgeted or resumed run of
    those shapes is one depth-first walk over the anchored bases, in this
    process. budget bounds the number of (reduced) bases walked in this
    call, of which the kernel solves one per orbit (_chunk_keys);
    exceeding it raises BudgetExceeded whose .partial is an honest subset
    and whose .resume continues the search.
    """
    size = n ** m
    _refuse_past_dimension(size)
    if m == 1 or n <= 2:
        if resume is not None:
            raise ValueError("resume state belongs to a different search")
        if m > 1 and n == 2:
            return planar_extreme_points(m)
        return ExtremeSet.from_pairs(m, n, [
            (1, tuple(s if j == i else 0 for j in range(size)))
            for i in range(size) for s in (1, -1)])
    if budget is None and resume is None:
        # imported here, so that only the runs that use it compile it
        from extremeforms import dd

        return ExtremeSet.from_pairs(m, n, dd.double_description(
            enumerate_tensor_vertices(m, n)))
    walk = _anchored_walk(m, n, budget, resume)
    keys, cache, chunk = set(), {}, []
    try:
        for basis in walk:
            chunk.append(basis)
            if len(chunk) == ORBIT_CHUNK:
                _chunk_keys(m, n, chunk, keys, cache)
                chunk = []
        _chunk_keys(m, n, chunk, keys, cache)
    except BudgetExceeded as stop:
        # the bases drawn before the budget ran out still count
        _chunk_keys(m, n, chunk, keys, cache)
        stop.partial = _finalize(m, n, keys, complete=False)
        raise
    return _finalize(m, n, keys, complete=True)


def planar_extreme_points(m) -> ExtremeSet:
    """Fast path for n = 2: one orthogonal anchored basis, no filtering.

    The 2^m representative rows are mutually orthogonal (each slot
    contributes an orthogonal vertex pair), so a = H^t f / 2^m solves the
    anchored system for every sign vector f, and |<a, v>| = 1 for all of
    V; all 2^(2^m) solutions are extreme and distinct.

    The numerators u = H^t f are doubled up, nums + h_j above nums - h_j
    from the last row h_j to the first: the row order of f = 1 - 2 bits,
    bit 0 most significant. Up to BLOCK_ROWS points (m <= 3) this runs in
    Python ints, and past it (m = 4) in numpy int8 (_planar_kernel), in the
    same rows and order. 2^m past MAX_PIPELINE_DIMENSION is refused, as in
    every engine, so |u_i| <= 2^m <= 16; int8 holds it up to m = 6, and
    m >= 7 is refused before any row is formed. The ExtremeSet keeps the
    numerators in int8.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    size = 2 ** m
    _refuse_past_dimension(size)
    if size > 127:  # |u_i| <= size must fit int8
        raise ResourceBudgetError(f"m={m}: planar numerators pass int8")
    h = antipodal_representatives(enumerate_tensor_vertices(m, 2))
    if any(sum(map(mul, a, b)) != (size if i == j else 0)
           for i, a in enumerate(h) for j, b in enumerate(h)):
        raise InternalInvariantError("planar basis rows are not orthogonal")
    if 2 ** size > BLOCK_ROWS:
        return _planar_kernel(m, h)
    nums = [(0,) * size]
    for row in reversed(h):
        nums = ([tuple(map(add, u, row)) for u in nums]
                + [tuple(map(sub, u, row)) for u in nums])
    # one common denominator, so this order is the exact rational order
    nums.sort()
    dens, flat = [], []
    for u in nums:
        g = math.gcd(size, *u)
        dens.append(size // g)
        flat.extend(x // g for x in u)
    return ExtremeSet(m, 2, dens, flat)


def _planar_kernel(m, h) -> ExtremeSet:
    """planar_extreme_points(m) in numpy int8 from its checked basis rows
    h, for the sizes past one block of rows."""
    import numpy as np

    size = 2 ** m
    nums = np.zeros((1, size), dtype=np.int8)
    for row in np.array(h[::-1], dtype=np.int8):
        nums = np.concatenate([nums + row, nums - row])
    # one common denominator, so this order is the exact rational order
    nums = nums[np.lexsort(nums.T[::-1])]
    g = np.gcd(np.gcd.reduce(nums, axis=1), np.int8(size))
    return ExtremeSet(m, 2, size // g, nums // g[:, None])


# ---------------------------------------------------------------------------
# independent oracle
# ---------------------------------------------------------------------------

def brute_force_vertices(m, n) -> ExtremeSet:
    """Vertex enumeration of {a : |<a, v>| <= 1 for all v in V}.

    Independent route: every full-rank n^m-subset of the constraint
    vectors, every sign pattern, exact solve, then a feasibility filter
    in integers: each solution is reduced to (d, u) once and kept when
    |<u, c>| <= d for every constraint c. Intentionally shares no search
    structure with extreme_points beyond the vertex list of core and its
    antipodal representatives (antipodal_representatives),
    so agreement between the two is meaningful.
    """
    size = n ** m
    constraints = antipodal_representatives(enumerate_tensor_vertices(m, n))
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
            d, u = reduced_row(candidate)
            if all(abs(sum(map(mul, u, c))) <= d for c in constraints):
                found.add((d, u))
    return ExtremeSet.from_pairs(m, n, found)
