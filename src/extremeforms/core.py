"""Exact combinatorial algebra of cube vertices and their sign tensors.

An m-linear form on R^n is identified with its coefficient vector in
Q^(n^m) through a fixed flattening of multi-indices (j_1, ..., j_m), j_1
most significant. The sup-norm geometry of such forms is controlled by the
finite set V of flattened tensor products w(x_1, ..., x_m) of cube vertices
x_i in {-1,+1}^n, and by the group G of diagonal +-1 matrices whose
diagonals are themselves members of V. G acts on coefficient vectors by
coordinatewise sign flips; the action is free and transitive on V, so G
is V itself under coordinatewise product, and GroupElement holds each
element by its row of V.

The module also holds the exact certificate layer: fraction-free integer
elimination (_IntEliminator, _exact_solve), the sup-norm test in_unit_ball
and the extremality certificate is_extreme, and the strict parsers of
single "p/q" values (parse_rational, parse_point_list). Everything in
this module is exact: integers for sign data, Fractions for
coefficients, no floating point anywhere, and it imports no numpy. The
CLI commands that need nothing else (verify, --help, and JSON cache
hits) therefore never load numpy, and verify needs nothing but this
module. All values are immutable and all functions pure. The value
types derive from Record, a few lines here in place of dataclasses,
which no command imports.

Two normalization rules are fixed here and relied on everywhere else:

* w(x) = w(y) exactly when y differs from x by factor sign flips with an
  even number of -1 flips; the canonical representative forces factors
  1..m-1 to have first coordinate +1, leaving the last factor free. This
  gives |V| = 2^(nm-m+1) distinct elements.
* The canonical order of V (and of G) enumerates those representatives
  lexicographically with +1 sorting before -1, so the all-ones tensor
  comes first.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import product
from typing import Iterator, Sequence

Vertex = tuple  # n signs, each -1 or +1
TensorVector = tuple  # n^m signs
MultiIndex = tuple  # m entries in [1, n]

CELL_LIMIT = 1 << 24  # |V| * n^m cells allowed in one enumeration

_RATIONAL_PATTERN = re.compile(r"-?\d+(/\d+)?\Z")


class ResourceBudgetError(RuntimeError):
    """Raised when an enumeration would exceed its configured size limit."""


class InternalInvariantError(RuntimeError):
    """An invariant the pipeline guarantees by construction failed."""


class Record:
    """Immutable value: ==, hash and repr over the names in _fields.

    A subclass's __init__ stores its fields with vars(self).update; any
    later assignment raises AttributeError, as on a frozen dataclass.
    """

    _fields = ()

    def _values(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# multi-index flattening
# ---------------------------------------------------------------------------

def flatten(j: Sequence[int], n: int) -> int:
    """Flat position of the multi-index j in [n]^m, j_1 most significant."""
    if len(j) == 0:
        raise ValueError("empty multi-index")
    out = 0
    for entry in j:
        if not isinstance(entry, int) or not 1 <= entry <= n:
            raise ValueError(f"multi-index entry {entry!r} outside [1, {n}]")
        out = out * n + (entry - 1)
    return out


def unflatten(index: int, m: int, n: int) -> MultiIndex:
    """Inverse of flatten for the shape (m, n)."""
    if not 0 <= index < n ** m:
        raise ValueError(f"flat index {index} outside [0, {n ** m})")
    entries = []
    for _ in range(m):
        index, rem = divmod(index, n)
        entries.append(rem + 1)
    return tuple(reversed(entries))


# ---------------------------------------------------------------------------
# vertices and their tensors
# ---------------------------------------------------------------------------

def _check_vertex(x: Sequence[int], n: int | None = None) -> None:
    if n is not None and len(x) != n:
        raise ValueError(f"vertex has dimension {len(x)}, expected {n}")
    for c in x:
        if c not in (-1, 1):
            raise ValueError(f"vertex coordinate {c!r} is not a sign")


def vertex_from_code(code: int, n: int) -> Vertex:
    """Vertex for a bit code; bit 0 of the code flips the last coordinate."""
    return tuple(-1 if (code >> (n - 1 - j)) & 1 else 1 for j in range(n))


def omega(factors: Sequence[Vertex]) -> TensorVector:
    """Flattened tensor product of m vertices, first factor most significant."""
    if len(factors) == 0:
        raise ValueError("need at least one factor")
    n = len(factors[0])
    out = (1,)
    for x in factors:
        _check_vertex(x, n)
        out = tuple(o * c for o in out for c in x)
    return out


def inner(a, v):
    """Exact dot product; accepts sign tuples, rational tuples, FormVectors."""
    if isinstance(a, FormVector):
        a = a.coeffs
    if isinstance(v, FormVector):
        v = v.coeffs
    if len(a) != len(v):
        raise ValueError(f"length mismatch: {len(a)} vs {len(v)}")
    return sum(x * y for x, y in zip(a, v))


def tensor_vertex_count(m: int, n: int) -> int:
    return 2 ** (n * m - m + 1)


def canonical_factor_tuples(m: int, n: int) -> Iterator[tuple[Vertex, ...]]:
    """Canonical factor representatives in the order that defines V and G.

    Factors 1..m-1 range over vertices with first coordinate +1, the last
    factor over all vertices; codes increase lexicographically, so the
    all-ones tuple is first.
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    codes = product(*[range(2 ** (n - 1))] * (m - 1), range(2 ** n))
    return (tuple(vertex_from_code(c, n) for c in t) for t in codes)


def enumerate_tensor_vertices(m: int, n: int) -> list[TensorVector]:
    """The set V of all distinct vertex tensors, canonically ordered."""
    count = tensor_vertex_count(m, n)
    if count * n ** m > CELL_LIMIT:
        raise ResourceBudgetError(
            f"V for (m={m}, n={n}) needs {count * n ** m} cells, "
            f"limit {CELL_LIMIT}")
    return [omega(t) for t in canonical_factor_tuples(m, n)]


def factorize(v: Sequence[int], m: int, n: int) -> tuple[Vertex, ...]:
    """Canonical factors of a tensor vertex; ValueError if v is not one.

    Coordinates along the axis lines of v determine each factor up to the
    shared sign, which the canonical representative pushes into the last
    factor.
    """
    if len(v) != n ** m:
        raise ValueError(f"length {len(v)} does not match n^m = {n ** m}")
    for c in v:
        if c not in (-1, 1):
            raise ValueError("tensor vertex coordinates must be signs")
    stride = n ** (m - 1)
    factors = []
    for i in range(m - 1):
        factors.append(tuple(v[(j - 1) * stride] * v[0] for j in range(1, n + 1)))
        stride //= n
    factors.append(tuple(v[j - 1] for j in range(1, n + 1)))
    candidate = tuple(factors)
    if omega(candidate) != tuple(v):
        raise ValueError("not a tensor product of vertices")
    return candidate


def is_tensor_vertex(v: Sequence[int], m: int, n: int) -> bool:
    try:
        factorize(v, m, n)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# the sign group
# ---------------------------------------------------------------------------

class GroupElement(Record):
    """Diagonal +-1 matrix diag(v), held by its sign vector v in V.

    G is V under coordinatewise product. Construction takes any factor
    representative x_1, ..., x_m and stores v = w(x_1, ..., x_m), so
    representatives of one diagonal are equal; .factors gives the
    canonical ones back.
    """

    _fields = ("signs", "m", "n")

    def __init__(self, factors):
        factors = tuple(factors)
        vars(self).update(signs=omega(factors), m=len(factors),
                          n=len(factors[0]))

    @property
    def factors(self) -> tuple[Vertex, ...]:
        return factorize(self.signs, self.m, self.n)

    def diagonal(self) -> TensorVector:
        return self.signs


def group_identity(m: int, n: int) -> GroupElement:
    return GroupElement(tuple(tuple([1] * n) for _ in range(m)))


def enumerate_group(m: int, n: int) -> list[GroupElement]:
    """All of G in canonical order; same cardinality as V."""
    return [GroupElement(t) for t in canonical_factor_tuples(m, n)]


def group_compose(g: GroupElement, h: GroupElement) -> GroupElement:
    if (g.m, g.n) != (h.m, h.n):
        raise ValueError("group elements have different shapes")
    product = tuple(a * b for a, b in zip(g.signs, h.signs))
    return GroupElement(factorize(product, g.m, g.n))


def act(g: GroupElement, v):
    """Multiply a tensor vertex or a coefficient vector by g's signs."""
    if isinstance(v, FormVector):
        if (v.m, v.n) != (g.m, g.n):
            raise ValueError("group element and form have different shapes")
        return FormVector(act(g, v.coeffs), v.m, v.n)
    if len(v) != len(g.signs):
        raise ValueError(f"length mismatch: {len(v)} vs {len(g.signs)}")
    return tuple(d * c for d, c in zip(g.signs, v))


def transporter(u: Sequence[int], w: Sequence[int], m: int, n: int
                ) -> GroupElement:
    """The unique g with act(g, u) = w, for u, w in V."""
    return group_compose(GroupElement(factorize(u, m, n)),
                         GroupElement(factorize(w, m, n)))


# ---------------------------------------------------------------------------
# coefficient vectors
# ---------------------------------------------------------------------------

class FormVector(Record):
    """Exact rational coefficient vector of an m-linear form on R^n.

    T(y_1, ..., y_m) = <coeffs, w(y_1, ..., y_m)> under the fixed
    flattening. Coefficients are reduced Fractions; floats are rejected to
    keep the exactness guarantee visible at the boundary.
    """

    _fields = ("coeffs", "m", "n")

    def __init__(self, coeffs: tuple, m: int, n: int):
        vars(self).update(coeffs=coeffs, m=m, n=n)
        self.__post_init__()

    def __post_init__(self):
        """Validation, once per construction; it stores exact coeffs."""
        if len(self.coeffs) != self.n ** self.m:
            raise ValueError(
                f"{len(self.coeffs)} coefficients for shape "
                f"(m={self.m}, n={self.n}); expected {self.n ** self.m}")
        exact = []
        for c in self.coeffs:
            if isinstance(c, float):
                raise ValueError("coefficients must be exact rationals")
            exact.append(c if isinstance(c, Fraction) else Fraction(c))
        vars(self)["coeffs"] = tuple(exact)

    def evaluate(self, *vertices: Vertex) -> Fraction:
        if len(vertices) != self.m:
            raise ValueError(f"form takes {self.m} arguments")
        return inner(self.coeffs, omega(vertices))

    def __neg__(self) -> "FormVector":
        return FormVector(tuple(-c for c in self.coeffs), self.m, self.n)


# ---------------------------------------------------------------------------
# rational wire format
# ---------------------------------------------------------------------------

def parse_rational(text: str) -> Fraction:
    """Parse a "p/q" string strictly: no whitespace, signs, or decimals."""

    if not isinstance(text, str) or _RATIONAL_PATTERN.fullmatch(text) is None:
        raise ValueError(f"not a p/q rational: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational: {text!r}") from None


def parse_point_list(text: str) -> tuple:
    """Parse a comma-separated coefficient list such as "1/2,1/2,0,0".

    Errors carry the one-based position of the offending entry so CLI
    users can locate the problem inside long coordinate strings.
    """

    values = []
    for position, chunk in enumerate(text.split(","), start=1):
        try:
            values.append(parse_rational(chunk))
        except ValueError as err:
            raise ValueError(f"entry {position}: {err}") from None
    return tuple(values)


# ---------------------------------------------------------------------------
# exact elimination
# ---------------------------------------------------------------------------

class _IntEliminator:
    """Incremental fraction-free Gaussian elimination over the integers.

    Rows are reduced against previously accepted rows in insertion order;
    each accepted row keeps a private pivot column, so a new row is
    independent exactly when its reduction is nonzero. push/pop follow the
    depth-first search stack; solution() gives exact solves, inverses and
    null vectors.
    """

    def __init__(self):
        self.rows = []
        self.pivots = []

    def _reduced(self, row, start=0):
        row = list(row)
        for stored, pivot in zip(self.rows[start:], self.pivots[start:]):
            coeff = row[pivot]
            if coeff:
                lead = stored[pivot]
                row = [x * lead - y * coeff for x, y in zip(row, stored)]
                g = math.gcd(*row)
                if g > 1:
                    row = [x // g for x in row]
        return row

    def push(self, row) -> bool:
        reduced = self._reduced(row)
        for col, x in enumerate(reduced):
            if x:
                self.rows.append(reduced)
                self.pivots.append(col)
                return True
        return False

    def pop(self):
        self.rows.pop()
        self.pivots.pop()

    def solution(self) -> dict:
        """Reduced row echelon form as {pivot column: row of Fractions}.

        A stored row is already zero at every earlier pivot; reducing it
        against the later rows clears it at every other pivot.
        """
        out = {}
        for i, pivot in enumerate(self.pivots):
            row = self._reduced(self.rows[i], i + 1)
            out[pivot] = [Fraction(x, row[pivot]) for x in row]
        return out


def _exact_solve(rows, rhs_rows):
    """A^-1 B as rows of Fractions, from one elimination of [A | B]."""
    size = len(rows)
    eliminator = _IntEliminator()
    for row, rhs in zip(rows, rhs_rows):
        eliminator.push([*row, *rhs])
    if sorted(eliminator.pivots) != list(range(size)):
        raise ValueError("singular system")
    solution = eliminator.solution()
    return [solution[p][size:] for p in range(size)]


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

class InBallResult(Record):
    """Outcome of the exact sup-norm test, with a violating witness if any."""

    _fields = ("inside", "value", "witness")

    def __init__(self, inside: bool, value: Fraction,
                 witness: tuple | None = None):
        vars(self).update(inside=inside, value=value, witness=witness)

    def __bool__(self) -> bool:
        return self.inside


class ExtremalityCertificate(Record):
    """Exact evidence for or against extremality of a coefficient vector.

    When the point is inside the ball but not extreme, midpoint_offset is a
    nonzero vector b with both a + b and a - b still in the ball, which
    exhibits a as a proper midpoint.
    """

    _fields = ("extreme", "in_ball", "norm_value", "norm_witness",
               "dimension", "tight_count", "tight_rank", "tight_basis",
               "midpoint_offset")

    def __init__(self, extreme: bool, in_ball: bool, norm_value: Fraction,
                 norm_witness: tuple | None, dimension: int,
                 tight_count: int, tight_rank: int, tight_basis: tuple,
                 midpoint_offset: FormVector | None):
        vars(self).update(
            extreme=extreme, in_ball=in_ball, norm_value=norm_value,
            norm_witness=norm_witness, dimension=dimension,
            tight_count=tight_count, tight_rank=tight_rank,
            tight_basis=tight_basis, midpoint_offset=midpoint_offset)

    def __bool__(self) -> bool:
        return self.extreme


def in_unit_ball(a: FormVector) -> InBallResult:
    """Exact test of max |<a, v>| <= 1 over V, first violator as witness."""
    best = Fraction(0)
    witness = None
    for v in enumerate_tensor_vertices(a.m, a.n):
        value = abs(inner(a.coeffs, v))
        if value > best:
            best = value
            if value > 1:
                witness = v
                break
    inside = best <= 1
    return InBallResult(inside, best, None if inside else witness)


def is_extreme(a: FormVector) -> ExtremalityCertificate:
    """Exact extremality certificate via the tight-set rank criterion."""
    size = a.n ** a.m
    ball = in_unit_ball(a)
    vertices = enumerate_tensor_vertices(a.m, a.n)
    tight = [v for v in vertices if abs(inner(a.coeffs, v)) == 1]
    eliminator = _IntEliminator()
    basis = [v for v in tight if eliminator.push(v)]
    rank = len(basis)
    extreme = bool(ball) and rank == size
    offset = None
    if ball and not extreme:
        # x[free] = 1 at the first non-pivot column, x[p] = -rref[p][free]
        rref = eliminator.solution()
        free = next(c for c in range(size) if c not in rref)
        direction = [Fraction(int(c == free)) for c in range(size)]
        for p, row in rref.items():
            direction[p] = -row[free]
        slack = [(1 - abs(inner(a.coeffs, v))) / abs(inner(direction, v))
                 for v in vertices if inner(direction, v) != 0]
        if not slack:
            raise InternalInvariantError("tensor vertices failed to span")
        eps = min(slack)
        offset = FormVector(tuple(eps * b for b in direction), a.m, a.n)
    return ExtremalityCertificate(
        extreme=extreme,
        in_ball=bool(ball),
        norm_value=ball.value,
        norm_witness=ball.witness,
        dimension=size,
        tight_count=len(tight),
        tight_rank=rank,
        tight_basis=tuple(basis),
        midpoint_offset=offset,
    )
