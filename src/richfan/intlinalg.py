"""Exact integer linear algebra helpers.

Vectors are plain tuples of ints, matrices are lists of row tuples.  Nothing
here ever touches floats or Fractions: ranks and lattices come from Hermite
bases, and determinants use the Bareiss scheme so values stay integral.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Iterable, Sequence

Vec = tuple[int, ...]


def vec_gcd(v: Iterable[int]) -> int:
    return gcd(*v)


def primitive(v: Sequence[int]) -> Vec:
    """Scale a nonzero integer vector down to its primitive representative."""
    g = vec_gcd(v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    if g == 1:
        return tuple(v)
    return tuple(x // g for x in v)


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    if len(a) != len(b):
        raise ValueError("dot of vectors of different lengths")
    return sum(map(mul, a, b))


def vsub(a: Sequence[int], b: Sequence[int]) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vscale(c: int, a: Sequence[int]) -> Vec:
    return tuple(c * x for x in a)


def is_zero(a: Sequence[int]) -> bool:
    return all(x == 0 for x in a)


def rank_of(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals: the number of rows of the Hermite basis."""
    return len(hnf_rows(rows))


def det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix (Bareiss, exact)."""
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def integer_kernel(rows: Sequence[Sequence[int]]) -> list[Vec]:
    """Basis of the saturated integer kernel {x : A x = 0}.

    The rows (A e_j, e_j) of [A^T | I] span the lattice {(A x, x) : x in Z^n},
    so the Hermite rows of [A^T | I] are a basis of it too.  They are in
    echelon form: an integer combination that uses a row whose pivot lies in
    the A-part is nonzero at the first such pivot.  So the lattice points with
    A-part zero are exactly the combinations of the Hermite rows with A-part
    zero, and the identity parts of those rows are a basis of ker(A) cap Z^n,
    saturated by construction (Cohen, *A Course in Computational Algebraic
    Number Theory*, 1993, section 2.4).
    """
    if not rows:
        return []
    m, n = len(rows), len(rows[0])
    aug = [tuple(r[j] for r in rows) + tuple(int(i == j) for i in range(n)) for j in range(n)]
    return [h[m:] for h in hnf_rows(aug) if is_zero(h[:m])]


def hnf_rows(rows: Sequence[Sequence[int]]) -> list[Vec]:
    """Canonical (row-style Hermite) basis of the lattice spanned by rows.

    Zero rows are dropped; pivots are positive and entries above a pivot are
    reduced to lie in [0, pivot).  Two row sets span the same lattice iff their
    hnf_rows agree.
    """
    m = [list(r) for r in rows if not is_zero(r)]
    if not m:
        return []
    ncols = len(m[0])
    out: list[list[int]] = []
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, len(m)):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        # euclid the column below the pivot to zero
        for r in range(row + 1, len(m)):
            while m[r][col] != 0:
                if abs(m[r][col]) < abs(m[row][col]):
                    m[row], m[r] = m[r], m[row]
                q = m[r][col] // m[row][col]
                for c in range(ncols):
                    m[r][c] -= q * m[row][c]
        if m[row][col] < 0:
            m[row] = [-x for x in m[row]]
        row += 1
        if row == len(m):
            break
    m = m[:row]
    # reduce entries above each pivot
    pivots = []
    for r in range(len(m)):
        c = next(i for i, x in enumerate(m[r]) if x != 0)
        pivots.append(c)
    # top-down: reducing by row r only touches columns right of the pivots
    # of rows above it, so their reductions stay done
    for r in range(len(m)):
        c = pivots[r]
        for rr in range(r):
            q = m[rr][c] // m[r][c]
            if q:
                for cc in range(ncols):
                    m[rr][cc] -= q * m[r][cc]
    return [tuple(r) for r in m]


def saturated_span(rows: Sequence[Sequence[int]]) -> list[Vec]:
    """HNF basis of the saturation of the row span: span_Q(rows) cap Z^n."""
    live = [r for r in rows if not is_zero(r)]
    if not live:
        return []
    n = len(live[0])
    k = integer_kernel(live)
    if not k:
        # full span; kernel-of-kernel would lose the ambient dimension
        return [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    return hnf_rows(integer_kernel(k))
