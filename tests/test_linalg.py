from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcore.errors import InnerNotContained, NoConstrainedComplement
from hopfcore.linalg import (
    QMatrix,
    Subspace,
    complement,
    dot,
    rat,
    rat_str,
    unit_vec,
    vec,
)


def M(rows):
    return QMatrix([[F(x) for x in r] for r in rows])


def product(a, b):
    return QMatrix(
        [[sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*b.rows)]
         for row in a.rows],
        b.ncols,
    )


small_entries = st.integers(min_value=-4, max_value=4).map(F)
small_matrix = st.integers(min_value=1, max_value=5).flatmap(
    lambda cols: st.lists(
        st.lists(small_entries, min_size=cols, max_size=cols), min_size=1, max_size=5
    )
)


def test_rat_roundtrip():
    assert rat("3/4") == F(3, 4)
    assert rat("-7") == F(-7)
    assert rat_str(F(3, 4)) == "3/4"
    assert rat_str(F(-2)) == "-2"


def test_rref_identity_fixed_point():
    ident = QMatrix.identity(2)
    assert ident.rref() == ident


def test_rref_dependent_rows():
    assert M([[1, 2], [2, 4]]).rref() == M([[1, 2], [0, 0]])
    assert M([[1, 2], [2, 4]]).rank() == 1


def test_rref_row_swap():
    assert M([[0, 1], [1, 0]]).rref() == QMatrix.identity(2)


@settings(max_examples=100)
@given(small_matrix)
def test_rref_idempotent(rows):
    m = QMatrix(rows)
    assert m.rref().rref() == m.rref()


@settings(max_examples=100)
@given(small_matrix)
def test_rank_nullity(rows):
    m = QMatrix(rows)
    assert m.rank() + m.kernel().dim == m.ncols


def test_kernel_examples():
    assert QMatrix.identity(2).kernel().dim == 0
    k = M([[1, 1]]).kernel()
    assert k.dim == 1 and k.basis[0] == vec([1, -1])
    assert M([[0, 0, 0], [0, 0, 0]]).kernel().dim == 3


def test_kernel_annihilates():
    m = M([[1, 2, 3], [0, 1, 1]])
    for v in m.kernel().basis:
        assert all(dot(row, v) == 0 for row in m.rows)


def test_inverse():
    m = M([[1, 2], [3, 5]])
    assert product(m, m.inverse()) == QMatrix.identity(2)
    with pytest.raises(ValueError):
        M([[1, 2], [2, 4]]).inverse()


def test_subspace_canonical_equality():
    a = Subspace.from_vectors([[1, 1], [0, 2]], 2)
    b = Subspace.from_vectors([[3, 0], [1, 5]], 2)
    assert a == b == Subspace.full(2)


def test_complement_pivot_greedy():
    inner = Subspace.from_vectors([[1, 0]], 2)
    w = complement(inner, Subspace.full(2))
    assert w.basis == (vec([0, 1]),)


def test_complement_of_itself_is_zero():
    s = Subspace.from_vectors([[1, 2], [0, 1]], 2)
    assert complement(s, s).dim == 0


def test_complement_requires_containment():
    inner = Subspace.from_vectors([[1, 1, 0]], 3)
    outer = Subspace.from_vectors([[1, 0, 0], [0, 0, 1]], 3)
    with pytest.raises(InnerNotContained):
        complement(inner, outer)


def test_complement_with_constraint_adjusts():
    # pivot-greedy pick (0,1) violates the functional x+y; corrected by the
    # inner vector (1,0) to (-1,1), canonically (1,-1).
    inner = Subspace.from_vectors([[1, 0]], 2)
    constraint = vec([1, 1])
    w = complement(inner, Subspace.full(2), constraint)
    assert all(dot(constraint, row) == 0 for row in w.basis)
    assert inner.sum(w) == Subspace.full(2)
    # oracle: exhaustive scan over small integer vectors finds exactly one
    # echelon line solving both requirements
    solutions = set()
    for a in range(-3, 4):
        for b in range(-3, 4):
            v = vec([a, b])
            if v == vec([0, 0]) or inner.contains(v):
                continue
            if dot(constraint, v) == 0:
                solutions.add(Subspace.from_vectors([v], 2).basis)
    assert solutions == {w.basis}


def test_complement_constraint_without_adjuster_raises():
    # no inner vector can absorb the violation, so no complement satisfies
    # the constraint: an error, not the unconstrained complement
    inner = Subspace.zero(2)
    outer = Subspace.from_vectors([[1, 1]], 2)
    constraint = vec([1, 1])
    with pytest.raises(NoConstrainedComplement):
        complement(inner, outer, constraint)
    # inner nonzero but annihilated by the constraint: still no adjuster
    inner = Subspace.from_vectors([[1, -1, 0]], 3)
    outer = Subspace.from_vectors([[1, -1, 0], [0, 1, 0]], 3)
    with pytest.raises(NoConstrainedComplement):
        complement(inner, outer, vec([1, 1, 0]))
    # a constraint that already vanishes on the complement needs no adjuster
    w = complement(inner, outer, vec([0, 0, 1]))
    assert inner.sum(w) == outer


@settings(max_examples=60)
@given(small_matrix, small_matrix)
def test_complement_dimensions(rows_a, rows_b):
    cols = max(len(rows_a[0]), len(rows_b[0]))
    pad = lambda rows: [list(r) + [F(0)] * (cols - len(r)) for r in rows]
    outer = Subspace.from_vectors(pad(rows_a) + pad(rows_b), cols)
    inner = Subspace.from_vectors(pad(rows_a), cols)
    w = complement(inner, outer)
    assert inner.dim + w.dim == outer.dim
    assert inner.sum(w) == outer
    # trivial intersection: any vector of w inside inner must be zero
    for row in w.basis:
        assert not inner.contains(row)


def test_quotient_unit_sparse_membership():
    s = Subspace.from_vectors([[1, 0, 2], [0, 1, -1]], 3)
    q = s.quotient_unit_sparse()

    def in_s(v):
        acc = {}
        for j, x in enumerate(v):
            if x:
                for k, c in q[j].items():
                    acc[k] = acc.get(k, F(0)) + x * c
        return all(value == 0 for value in acc.values())

    assert in_s(vec([1, 0, 2]))
    assert in_s(vec([1, 1, 1]))
    assert not in_s(unit_vec(3, 2))
