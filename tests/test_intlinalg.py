"""Exact integer linear algebra: the Hermite-form kernel against column
operations."""

from hypothesis import given, settings, strategies as st

from richfan.intlinalg import dot, hnf_rows, integer_kernel, rank_of, saturated_span


def column_op_kernel(rows):
    """Saturated integer kernel by unimodular column operations on A stacked
    over an identity matrix; columns whose A-part becomes zero give kernel
    vectors.  The reference for integer_kernel."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if ncols == 0:
        return []
    # work columns: each is (A column, identity column)
    acols = [[rows[r][c] for r in range(nrows)] for c in range(ncols)]
    icols = [[1 if r == c else 0 for r in range(ncols)] for c in range(ncols)]
    top = 0
    for r in range(nrows):
        # clear row r to a single pivot among columns top..ncols-1
        while True:
            nz = [c for c in range(top, ncols) if acols[c][r] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda c: abs(acols[c][r]))
            c0 = nz[0]
            for c in nz[1:]:
                q = acols[c][r] // acols[c0][r]
                if q:
                    for i in range(nrows):
                        acols[c][i] -= q * acols[c0][i]
                    for i in range(ncols):
                        icols[c][i] -= q * icols[c0][i]
        nz = [c for c in range(top, ncols) if acols[c][r] != 0]
        if nz:
            c0 = nz[0]
            acols[top], acols[c0] = acols[c0], acols[top]
            icols[top], icols[c0] = icols[c0], icols[top]
            top += 1
    return [tuple(icols[c]) for c in range(top, ncols)]


def column_op_saturated_span(rows):
    """saturated_span with the reference kernel: the kernel of the kernel."""
    live = [r for r in rows if any(r)]
    if not live:
        return []
    n = len(live[0])
    k = column_op_kernel(live)
    if not k:
        return [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return hnf_rows(column_op_kernel(k))


@st.composite
def low_rank_matrices(draw):
    """Up to 8 base rows with entries in [-50, 50], then extra rows that are
    small integer combinations of them, shuffled: rank at most 8."""
    n = draw(st.integers(1, 10))
    vec = st.lists(st.integers(-50, 50), min_size=n, max_size=n)
    base = draw(st.lists(vec, min_size=1, max_size=8))
    combos = draw(
        st.lists(
            st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base)),
            max_size=4,
        )
    )
    extra = [[sum(c * b[j] for c, b in zip(cs, base)) for j in range(n)] for cs in combos]
    return [tuple(r) for r in draw(st.permutations(base + extra))]


@given(low_rank_matrices())
@settings(max_examples=300, deadline=None)
def test_kernel_matches_column_operations(a):
    k = integer_kernel(a)
    assert all(dot(row, x) == 0 for x in k for row in a)
    assert rank_of(k) == len(k) == len(a[0]) - rank_of(a)
    assert hnf_rows(k) == hnf_rows(column_op_kernel(a))
    assert saturated_span(a) == column_op_saturated_span(a)


def test_kernel_is_saturated():
    # 2x - 4y = 0: the kernel lattice is spanned by (2, 1), not (4, 2)
    assert hnf_rows(integer_kernel([(2, -4)])) == [(2, 1)]
    assert saturated_span([(4, 2)]) == [(2, 1)]


def test_kernel_edge_cases():
    assert integer_kernel([]) == []
    assert integer_kernel([(0, 0)]) == [(1, 0), (0, 1)]
    assert integer_kernel([(1, 0), (0, 1)]) == []
    assert saturated_span([(0, 0, 0)]) == []
    assert saturated_span([(3, 0), (0, 5)]) == [(1, 0), (0, 1)]
