"""Oracle tests for the exact vertex-tensor algebra.

Expected values were frozen first, from hand expansion of the small tensor
products and from brute-force enumeration (see support.py); the module under
test has to reproduce them, not the other way around.
"""

from fractions import Fraction
from itertools import product
import math
import random

import pytest

from extremeforms.core import (
    FormVector,
    GroupElement,
    act,
    enumerate_group,
    enumerate_tensor_vertices,
    factorize,
    flatten,
    group_compose,
    group_identity,
    inner,
    is_tensor_vertex,
    omega,
    tensor_vertex_count,
    transporter,
    unflatten,
)
from extremeforms.core import _IntEliminator
from support import brute_force_tensor_vertices, gram_factorization_holds

SMALL_SHAPES = [(1, 1), (1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (4, 2),
                (2, 4), (1, 4)]


# ---------------------------------------------------------------------------
# index flattening
# ---------------------------------------------------------------------------

def test_flatten_frozen_values():
    assert flatten((1, 1), 2) == 0
    assert flatten((2, 1), 2) == 2  # first slot most significant
    assert flatten((2, 2, 2), 2) == 7
    assert flatten((1, 2, 1), 3) == 3


@pytest.mark.parametrize("m,n", SMALL_SHAPES)
def test_flatten_is_a_bijection(m, n):
    images = [flatten(j, n) for j in product(range(1, n + 1), repeat=m)]
    assert sorted(images) == list(range(n ** m))
    for j in product(range(1, n + 1), repeat=m):
        assert unflatten(flatten(j, n), m, n) == j


def test_flatten_rejects_bad_entries():
    with pytest.raises(ValueError):
        flatten((0, 1), 2)
    with pytest.raises(ValueError):
        flatten((1, 3), 2)
    with pytest.raises(ValueError):
        unflatten(4, 2, 2)


# ---------------------------------------------------------------------------
# tensor products of vertices
# ---------------------------------------------------------------------------

def test_omega_frozen_values():
    e = (1, 1)
    assert omega((e, e)) == (1, 1, 1, 1)
    # hand expansion: entries (j1,j2) are x1[j1]*x2[j2]
    assert omega(((1, -1), (1, 1))) == (1, 1, -1, -1)
    assert omega(((-1, 1), (-1, 1))) == (1, -1, -1, 1)


def test_omega_rejects_mismatched_dimensions():
    with pytest.raises(ValueError):
        omega(((1, 1), (1, -1, 1)))
    with pytest.raises(ValueError):
        omega(((1, 0),))


def test_inner_frozen_values():
    assert inner((0, 0, 0, 1), (1, 1, 1, 1)) == 1
    u = omega(((1, 1), (-1, 1)))
    w = omega(((-1, 1), (1, 1)))
    # slot factorization: <(1,1),(-1,1)> * <(-1,1),(1,1)> = 0 * 0
    assert inner(u, w) == 0
    for v in enumerate_tensor_vertices(2, 2):
        assert inner(v, v) == 4


def test_inner_rejects_length_mismatch():
    with pytest.raises(ValueError):
        inner((1, 1), (1, 1, 1))


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (1, 3), (3, 2)])
def test_inner_factorizes_slotwise_exhaustive(m, n):
    verts = list(product((1, -1), repeat=n))
    for vs in product(verts, repeat=m):
        for us in product(verts, repeat=m):
            expected = 1
            for a, b in zip(vs, us):
                expected *= inner(a, b)
            assert inner(omega(vs), omega(us)) == expected


@pytest.mark.parametrize("m,n", [(2, 3), (4, 2), (2, 4), (3, 3)])
def test_inner_factorizes_slotwise_vectorized(m, n):
    assert gram_factorization_holds(m, n)


# ---------------------------------------------------------------------------
# the set of tensor vertices
# ---------------------------------------------------------------------------

def test_tensor_vertex_counts_frozen():
    assert len(enumerate_tensor_vertices(1, 1)) == 2
    assert len(enumerate_tensor_vertices(2, 2)) == 8
    assert len(enumerate_tensor_vertices(3, 2)) == 16


@pytest.mark.parametrize("m,n", SMALL_SHAPES)
def test_tensor_vertices_match_brute_force(m, n):
    emitted = enumerate_tensor_vertices(m, n)
    assert len(emitted) == len(set(emitted)), "duplicates emitted"
    assert set(emitted) == brute_force_tensor_vertices(m, n)
    assert len(emitted) == tensor_vertex_count(m, n) == 2 ** (n * m - m + 1)


@pytest.mark.parametrize("m,n", SMALL_SHAPES)
def test_tensor_vertices_anchor_first(m, n):
    first = enumerate_tensor_vertices(m, n)[0]
    assert first == tuple([1] * n ** m)


@pytest.mark.parametrize("m,n", SMALL_SHAPES)
def test_factorize_roundtrip_and_canonical(m, n):
    for v in enumerate_tensor_vertices(m, n):
        factors = factorize(v, m, n)
        assert omega(factors) == v
        for x in factors[:m - 1]:
            assert x[0] == 1  # canonical representative
    assert is_tensor_vertex(tuple([1] * n ** m), m, n)


def test_is_tensor_vertex_rejects_non_members():
    assert not is_tensor_vertex((1, 1, 1, -1), 2, 2)  # odd sign pattern
    assert not is_tensor_vertex((1, 1, 1, 0), 2, 2)


# ---------------------------------------------------------------------------
# the sign group and its action
# ---------------------------------------------------------------------------

def test_group_compose_frozen_example():
    g = GroupElement(((1, -1),))
    h = GroupElement(((-1, -1),))
    assert group_compose(g, h) == GroupElement(((-1, 1),))


def test_group_identity_and_involution():
    for m, n in [(1, 2), (2, 2), (3, 2), (2, 3)]:
        e = group_identity(m, n)
        for g in enumerate_group(m, n):
            assert group_compose(g, e) == g
            assert group_compose(e, g) == g
            assert group_compose(g, g) == e


def test_group_closure_and_associativity_sampled():
    rng = random.Random(7)
    for m, n in [(2, 2), (3, 2), (2, 3)]:
        elements = enumerate_group(m, n)
        for _ in range(50):
            g, h, k = (rng.choice(elements) for _ in range(3))
            gh = group_compose(g, h)
            assert gh in elements
            assert group_compose(gh, k) == group_compose(g, group_compose(h, k))


def test_group_element_canonicalizes_factors():
    g = GroupElement(((-1, 1), (1, 1)))
    assert g.factors == ((1, -1), (-1, -1))
    assert g == GroupElement(((1, -1), (-1, -1)))
    assert g.diagonal() == (-1, -1, 1, 1)


def test_act_frozen_example():
    g = GroupElement(((-1, 1), (1, 1)))
    a = FormVector((Fraction(0), Fraction(0), Fraction(0), Fraction(1)), 2, 2)
    assert act(g, a).coeffs == (Fraction(0), Fraction(0), Fraction(0), Fraction(1))
    assert act(g, (1, 1, 1, 1)) == (-1, -1, 1, 1)


def test_act_identity_and_involution():
    for m, n in [(2, 2), (3, 2)]:
        e = group_identity(m, n)
        for g in enumerate_group(m, n):
            for v in enumerate_tensor_vertices(m, n):
                assert act(e, v) == v
                assert act(g, act(g, v)) == v


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (3, 2), (2, 3), (1, 3)])
def test_act_preserves_tensor_vertices_setwise(m, n):
    vertex_set = set(enumerate_tensor_vertices(m, n))
    for g in enumerate_group(m, n):
        assert {act(g, v) for v in vertex_set} == vertex_set


@pytest.mark.parametrize("m,n",
                         [(m, n) for m in range(1, 9) for n in range(1, 9)
                          if m * n <= 8])
def test_action_is_free_and_transitive(m, n):
    # |G| = |V| plus injectivity of g -> act(g, u) gives exactly one
    # transporter for every ordered pair (u, w).
    vertices = enumerate_tensor_vertices(m, n)
    elements = enumerate_group(m, n)
    assert len(elements) == len(vertices)
    for u in vertices:
        images = {act(g, u) for g in elements}
        assert len(images) == len(elements)
        assert images == set(vertices)


def test_transporter_frozen_examples():
    e = (1, 1)
    u = omega((e, e))
    w = omega(((-1, 1), (1, 1)))
    g = transporter(u, w, 2, 2)
    assert g == GroupElement(((-1, 1), (1, 1)))
    assert act(g, u) == w
    assert transporter(w, w, 2, 2) == group_identity(2, 2)


def test_transporter_defining_property_sampled():
    rng = random.Random(11)
    for m, n in [(2, 2), (3, 2), (2, 3)]:
        vertices = enumerate_tensor_vertices(m, n)
        for _ in range(40):
            u, w = rng.choice(vertices), rng.choice(vertices)
            assert act(transporter(u, w, m, n), u) == w


def test_transporter_rejects_non_vertices():
    with pytest.raises(ValueError):
        transporter((1, 1, 1, -1), (1, 1, 1, 1), 2, 2)


def test_act_is_self_adjoint_for_forms():
    rng = random.Random(3)
    for m, n in [(2, 2), (3, 2)]:
        vertices = enumerate_tensor_vertices(m, n)
        elements = enumerate_group(m, n)
        for _ in range(30):
            coeffs = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 9))
                           for _ in range(n ** m))
            a = FormVector(coeffs, m, n)
            g = rng.choice(elements)
            v = rng.choice(vertices)
            assert inner(act(g, a).coeffs, v) == inner(coeffs, act(g, v))


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (3, 2), (2, 3), (1, 3)])
def test_group_is_v_in_canonical_order(m, n):
    assert [g.diagonal() for g in enumerate_group(m, n)] \
        == enumerate_tensor_vertices(m, n)


def test_transporter_diagonal_is_coordinatewise_product_sampled():
    rng = random.Random(13)
    for m, n in [(2, 2), (3, 2), (2, 3), (1, 3)]:
        vertices = enumerate_tensor_vertices(m, n)
        for _ in range(30):
            u, w = rng.choice(vertices), rng.choice(vertices)
            assert transporter(u, w, m, n).diagonal() \
                == tuple(a * b for a, b in zip(u, w))


def test_factor_representatives_are_one_element():
    assert len({GroupElement(((-1, 1), (1, 1))),
                GroupElement(((1, -1), (-1, -1)))}) == 1


# ---------------------------------------------------------------------------
# form vectors
# ---------------------------------------------------------------------------

def test_form_vector_validation():
    a = FormVector((1, 0, 0, Fraction(1, 2)), 2, 2)
    assert a.coeffs == (Fraction(1), Fraction(0), Fraction(0), Fraction(1, 2))
    with pytest.raises(ValueError):
        FormVector((1, 0, 0), 2, 2)  # wrong length


def test_form_vector_evaluates_forms():
    a = FormVector((0, 0, 0, 1), 2, 2)
    # the form x_2 * y_2
    assert a.evaluate((1, -1), (1, -1)) == 1
    assert a.evaluate((1, -1), (1, 1)) == -1


# ---------------------------------------------------------------------------
# exact elimination
# ---------------------------------------------------------------------------

class _GcdLoopEliminator(_IntEliminator):
    """_IntEliminator with the gcd of a reduced row taken entry by entry."""

    def _reduced(self, row, start=0):
        row = list(row)
        for stored, pivot in zip(self.rows[start:], self.pivots[start:]):
            coeff = row[pivot]
            if coeff:
                lead = stored[pivot]
                row = [x * lead - y * coeff for x, y in zip(row, stored)]
                g = 0
                for x in row:
                    g = math.gcd(g, x)
                if g > 1:
                    row = [x // g for x in row]
        return row


@pytest.mark.parametrize("seed", range(6))
def test_eliminator_matches_the_gcd_loop_and_reduces_to_primitive_rows(seed):
    # seeded rows with common factors, a repeated row and a zero row,
    # pushed and popped like the depth-first walk does
    rng = random.Random(seed)
    width = 6
    rows = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(10)]
    for _ in range(5):  # a common factor and no zero entry, so they are
        factor = rng.choice((2, 3, 6))  # reduced unless the stack is empty
        rows.append([factor * rng.choice((-2, -1, 1, 2))
                     for _ in range(width)])
    rows += [rows[1], [0] * width]
    rng.shuffle(rows)
    new, old = _IntEliminator(), _GcdLoopEliminator()
    pushed = []
    scaled_reduced = 0
    for row in rows:
        if pushed and rng.random() < 0.3:
            new.pop()
            old.pop()
            pushed.pop()
        accepted = new.push(row)
        assert accepted == old.push(row)
        assert (new.rows, new.pivots) == (old.rows, old.pivots)
        if accepted:
            pushed.append(row)
        # a row nonzero at an earlier pivot went through a reduction step,
        # which leaves it primitive; any other row is stored as pushed
        for i, (stored, original) in enumerate(zip(new.rows, pushed)):
            if any(original[pivot] for pivot in new.pivots[:i]):
                assert math.gcd(*stored) == 1
                scaled_reduced += math.gcd(*original) > 1
            else:
                assert stored == original
    assert new.solution() == old.solution()
    assert not new.push([0] * width)
    assert scaled_reduced

