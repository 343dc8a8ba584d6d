"""Independent oracles shared by the unit and acceptance tests.

Everything here is deliberately written against the raw definitions
(itertools products, numpy kron, dense angle grids, Fraction elimination)
rather than against the package, so that agreement between package output
and these helpers is evidence, not circularity.
"""

from array import array
from fractions import Fraction
from functools import reduce
from itertools import product
import sys

import numpy as np


def brute_force_tensor_vertices(m, n):
    """All distinct sign tensors of m cube vertices, by raw dedup."""
    seen = set()
    for xs in product(product((1, -1), repeat=n), repeat=m):
        row = reduce(np.kron, [np.array(x, dtype=np.int64) for x in xs])
        seen.add(tuple(int(t) for t in row))
    return seen


def gram_factorization_holds(m, n):
    """Check <w(v), w(u)> = prod_i <v_i, u_i> for every pair of tuples.

    Both sides are computed exhaustively: the left as the Gram matrix of
    all 2^(nm) flattened tensors, the right as the Kronecker product of
    the m slot-level vertex Gram matrices. Entries are bounded by n^m, so
    float32 arithmetic is exact whenever n^m < 2^24.
    """
    verts = np.array(list(product((1.0, -1.0), repeat=n)), dtype=np.float32)
    rows = verts
    for _ in range(m - 1):
        # Kronecker product of every row pair, slot 0 most significant
        rows = (rows[:, None, :, None] * verts[None, :, None, :]).reshape(
            rows.shape[0] * verts.shape[0], -1)
    gram_direct = rows @ rows.T
    slot_gram = verts @ verts.T
    gram_product = reduce(np.kron, [slot_gram] * m)
    return np.array_equal(gram_direct, gram_product)


def angle_grid_bilinear_max(matrix, steps=64):
    """Dense-grid lower bound for max sum_ij M_ij <x_i, y_j> on the circle.

    Only for 2x2 matrices with unit vectors x_i, y_j on S^1. The value at
    angles reduces to sum_ij M_ij cos(t_i - p_j).
    """
    M = np.asarray(matrix, dtype=float)
    assert M.shape == (2, 2)
    t = np.linspace(0.0, 2.0 * np.pi, steps, endpoint=False)
    C = np.cos(t[:, None] - t[None, :])  # C[a, b] = cos(t_a - t_b)
    val = (M[0, 0] * C[:, None, :, None] + M[0, 1] * C[:, None, None, :]
           + M[1, 0] * C[None, :, :, None] + M[1, 1] * C[None, :, None, :])
    return float(val.max())


def fraction_rank(rows):
    """Rank over the rationals by plain Gaussian elimination."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    col = 0
    while rank < len(mat) and col < ncols:
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0),
                     None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        lead = mat[rank][col]
        for r in range(rank + 1, len(mat)):
            if mat[r][col] != 0:
                factor = mat[r][col] / lead
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return rank


def fraction_solve(rows, rhs):
    """Solve a square exact system by Gauss-Jordan over Fractions."""
    size = len(rows)
    mat = [[Fraction(x) for x in row] + [Fraction(rhs[i])]
           for i, row in enumerate(rows)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if mat[r][col] != 0)
        mat[col], mat[pivot] = mat[pivot], mat[col]
        lead = mat[col][col]
        mat[col] = [a / lead for a in mat[col]]
        for r in range(size):
            if r != col and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[col])]
    return tuple(mat[r][size] for r in range(size))


def spell_entry(m, n, dens, rows, code="b", count=None):
    """A cache entry of an extreme set spelled by hand: its one-line head,
    then dens as int64 and the numerators of rows in typecode code ('b'
    or 'q'), in this machine's byte order."""

    head = (f"rows m={m} n={n} count={len(dens) if count is None else count}"
            f" nums={code} byteorder={sys.byteorder}\n")
    return (head.encode() + array("q", dens).tobytes()
            + array(code, [x for row in rows for x in row]).tobytes())
