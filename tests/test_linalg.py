import importlib.util
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcore.errors import HopfcoreError
from hopfcore.linalg import (
    Rational,
    Subspace,
    _rref_rows,
    complement,
    inverse,
    kernel,
    rank,
    rat,
    rat_str,
)
from conftest import dense_of, full_space, sparse_of, span


def M(rows):
    """Dense integer rows as sparse rows."""
    return [{c: x for c, x in enumerate(r) if x} for r in rows]


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), F(0))


def product(a, b):
    """The product of two dense matrices given by their rows."""
    return [tuple(dot(row, col) for col in zip(*b)) for row in a]


def dense(rows, ncols):
    return [dense_of(r, ncols) for r in rows]


IDENTITY_2 = [{0: 1}, {1: 1}]


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
    assert _rref_rows(IDENTITY_2, 2) == (IDENTITY_2, (0, 1))


def test_rref_dependent_rows():
    # the dependent row vanishes and is dropped
    assert _rref_rows(M([[1, 2], [2, 4]]), 2) == (M([[1, 2]]), (0,))
    assert rank(M([[1, 2], [2, 4]]), 2) == 1


def test_rref_row_swap():
    assert _rref_rows(M([[0, 1], [1, 0]]), 2) == (IDENTITY_2, (0, 1))


@settings(max_examples=100)
@given(small_matrix)
def test_rref_idempotent(rows):
    ncols = len(rows[0])
    reduced = _rref_rows([sparse_of(r) for r in rows], ncols)
    assert _rref_rows(reduced[0], ncols) == reduced


@settings(max_examples=100)
@given(small_matrix)
def test_rank_nullity(rows):
    ncols = len(rows[0])
    sparse_rows = [sparse_of(r) for r in rows]
    assert rank(sparse_rows, ncols) + kernel(sparse_rows, ncols).dim == ncols


def test_kernel_examples():
    assert kernel(IDENTITY_2, 2).dim == 0
    k = kernel(M([[1, 1]]), 2)
    assert k.dim == 1 and k.rows[0] == {0: 1, 1: -1}
    assert kernel(M([[0, 0, 0], [0, 0, 0]]), 3).dim == 3


def test_kernel_annihilates():
    rows = [[1, 2, 3], [0, 1, 1]]
    for v in kernel(M(rows), 3).rows:
        assert all(dot(row, dense_of(v, 3)) == 0 for row in rows)


def test_inverse():
    m = [[1, 2], [3, 5]]
    assert product(m, dense(inverse(M(m), 2), 2)) == dense(IDENTITY_2, 2)
    with pytest.raises(ValueError):
        inverse(M([[1, 2], [2, 4]]), 2)
    with pytest.raises(ValueError):
        inverse(M([[1, 2]]), 2)


def test_subspace_stores_sorted_sparse_echelon_rows():
    s = span([[0, 3, 0, 6], [2, 0, 0, 1], [2, 3, 0, 7]], 4)
    assert s.pivots == (0, 1)
    assert s.rows == ({0: 1, 3: F(1, 2)}, {1: 1, 3: 2})
    assert all(list(r) == sorted(r) for r in s.rows)
    assert s.dim == 2
    # rows are dicts: nothing hashes a subspace
    with pytest.raises(TypeError):
        hash(s)


def test_subspace_canonical_equality():
    a = span([[1, 1], [0, 2]], 2)
    b = span([[3, 0], [1, 5]], 2)
    assert a == b == full_space(2)


def test_complement_pivot_greedy():
    inner = span([[1, 0]], 2)
    w = complement(inner, full_space(2))
    assert w.rows == ({1: 1},)


def test_complement_of_itself_is_zero():
    s = span([[1, 2], [0, 1]], 2)
    assert complement(s, s).dim == 0


def no_constrained_complement(inner_dim, outer_dim):
    """The pattern of complement()'s whole message when no complement lies
    in the kernel of the constraint."""
    message = (
        f"no complement of inner (dim {inner_dim}) in outer (dim {outer_dim}) "
        f"lies in the kernel of the constraint"
    )
    return f"^{re.escape(message)}$"


def test_complement_requires_containment():
    inner = span([[1, 1, 0]], 3)
    outer = span([[1, 0, 0], [0, 0, 1]], 3)
    with pytest.raises(
        HopfcoreError, match=r"^inner \(dim 1\) is not contained in outer \(dim 2\)$"
    ):
        complement(inner, outer)


def test_complement_with_constraint_adjusts():
    # pivot-greedy pick (0,1) violates the functional x+y; corrected by the
    # inner vector (1,0) to (-1,1), canonically (1,-1).
    inner = span([[1, 0]], 2)
    constraint = (1, 1)
    w = complement(inner, full_space(2), constraint)
    assert all(dot(constraint, dense_of(row, 2)) == 0 for row in w.rows)
    assert Subspace.from_sparse(inner.rows + w.rows, 2) == full_space(2)
    # oracle: exhaustive scan over small integer vectors finds exactly one
    # echelon line solving both requirements
    solutions = set()
    for a in range(-3, 4):
        for b in range(-3, 4):
            v = sparse_of([a, b])
            if not v or inner.contains(v):
                continue
            if dot(constraint, dense_of(v, 2)) == 0:
                solutions.add(tuple(dense(span([dense_of(v, 2)], 2).rows, 2)))
    assert solutions == {tuple(dense(w.rows, 2))}


def test_complement_constraint_without_adjuster_raises():
    # no inner vector can absorb the violation, so no complement satisfies
    # the constraint: an error, not the unconstrained complement
    inner = Subspace.from_sparse([], 2)
    outer = span([[1, 1]], 2)
    constraint = (1, 1)
    with pytest.raises(HopfcoreError, match=no_constrained_complement(0, 1)):
        complement(inner, outer, constraint)
    # inner nonzero but annihilated by the constraint: still no adjuster
    inner = span([[1, -1, 0]], 3)
    outer = span([[1, -1, 0], [0, 1, 0]], 3)
    with pytest.raises(HopfcoreError, match=no_constrained_complement(1, 2)):
        complement(inner, outer, (1, 1, 0))
    # a constraint that already vanishes on the complement needs no adjuster
    w = complement(inner, outer, (0, 0, 1))
    assert Subspace.from_sparse(inner.rows + w.rows, inner.ambient_dim) == outer


@settings(max_examples=60)
@given(small_matrix, small_matrix)
def test_complement_dimensions(rows_a, rows_b):
    cols = max(len(rows_a[0]), len(rows_b[0]))
    pad = lambda rows: [list(r) + [F(0)] * (cols - len(r)) for r in rows]
    outer = span(pad(rows_a) + pad(rows_b), cols)
    inner = span(pad(rows_a), cols)
    w = complement(inner, outer)
    assert inner.dim + w.dim == outer.dim
    assert Subspace.from_sparse(inner.rows + w.rows, inner.ambient_dim) == outer
    # trivial intersection: any vector of w inside inner must be zero
    for row in w.rows:
        assert not inner.contains(row)


# -- int rows against rational rows -------------------------------------------

int_matrix = st.integers(min_value=1, max_value=6).flatmap(
    lambda cols: st.lists(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=cols, max_size=cols),
        min_size=1,
        max_size=6,
    )
)


def _typed(rows):
    """The scalars of sparse or dense rows with their types."""
    items = (r.values() if isinstance(r, dict) else r for r in rows)
    return [(x, type(x)) for row in items for x in row]


@settings(max_examples=60, deadline=None)
@given(int_matrix)
def test_int_and_fraction_rows_agree(rows):
    """Integer rows and the same rows halved, whose odd entries are
    ``Rational``, span the same space: the echelon and the kernel agree
    down to the type of every scalar, the inverse of the halved matrix is
    twice the inverse, and no float appears."""
    ncols = len(rows[0])
    as_int = [{c: x for c, x in enumerate(r) if x} for r in rows]
    halved = [{c: Rational(x, 2) for c, x in r.items()} for r in as_int]
    assert rank(as_int, ncols) == rank(halved, ncols)
    for build in (kernel, Subspace.from_sparse):
        a, b = build(as_int, ncols), build(halved, ncols)
        assert a == b and _typed(a.rows) == _typed(b.rows)
        assert {t for _, t in _typed(a.rows)} <= {int, Rational}
    if len(rows) == ncols:
        try:
            inv = inverse(as_int, ncols)
        except ValueError:
            with pytest.raises(ValueError):
                inverse(halved, ncols)
            return
        doubled = [{c: 2 * x for c, x in row.items()} for row in inv]
        assert _typed(doubled) == _typed(inverse(halved, ncols))
        assert {t for _, t in _typed(inv)} <= {int, Rational}


def test_quotient_units_membership():
    s = span([[1, 0, 2], [0, 1, -1]], 3)
    q = s.quotient_units()

    def in_s(v):
        acc = {}
        for j, x in enumerate(v):
            if x:
                for k, c in q[j].items():
                    acc[k] = acc.get(k, 0) + x * c
        return all(value == 0 for value in acc.values())

    assert in_s((1, 0, 2))
    assert in_s((1, 1, 1))
    assert not in_s((0, 0, 1))


@st.composite
def ordered_spans(draw):
    """Sparse rows, a column order and a vector on up to six columns."""
    n = draw(st.integers(1, 6))
    scalars = st.integers(-3, 3) | st.fractions(-2, 2, max_denominator=3).map(rat)
    vectors = st.dictionaries(st.integers(0, n - 1), scalars, max_size=n)
    rows = draw(st.lists(vectors, max_size=5))
    return n, rows, draw(st.permutations(range(n))), draw(vectors)


@settings(max_examples=60, deadline=None)
@given(ordered_spans())
def test_subspace_in_a_column_order(case):
    n, rows, order, v = case
    plain = Subspace.from_sparse(rows, n)
    ordered = Subspace.from_sparse(rows, n, order)
    assert all(plain.contains(r) for r in ordered.rows)
    assert all(ordered.contains(r) for r in plain.rows)
    rank_in_order = {t: r for r, t in enumerate(order)}
    for p, row in zip(ordered.pivots, ordered.rows):
        assert min(row, key=rank_in_order.get) == p and row[p] == 1
    assert sorted(ordered.pivots + ordered.normal) == list(range(n))
    for space in (plain, ordered):
        residual = space.reduce(v)
        assert set(residual) <= set(space.normal)
        difference = {**v, **{t: v.get(t, 0) - c for t, c in residual.items()}}
        assert space.contains(difference)
        assert space.lift(space.quotient_coords(v)) == residual
        units = space.quotient_units()
        assert units == [space.quotient_coords({j: 1}) for j in range(n)]


# -- differential test against sympy ------------------------------------------

needs_sympy = pytest.mark.skipif(
    importlib.util.find_spec("sympy") is None, reason="sympy is not installed"
)


def _random_matrices():
    """Seeded rational matrices: tall stacks of duplicate, scaled and summed
    rows with zero rows mixed in, the zero matrix, and squares, some made
    singular by a dependent row."""
    rng = random.Random(7)

    def entry():
        return F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))

    out = [("zero", [[F(0)] * 4 for _ in range(3)]), ("empty-row", [[F(0)] * 5])]
    for i in range(25):
        ncols = rng.randint(1, 8)
        base = [[entry() for _ in range(ncols)] for _ in range(rng.randint(1, 4))]
        rows = []
        for _ in range(rng.randint(ncols, 3 * ncols + 3)):
            kind = rng.random()
            if kind < 0.15:
                rows.append([F(0)] * ncols)
            elif kind < 0.6:
                s = F(rng.choice((1, -1, 2, -3)), rng.choice((1, 5)))
                rows.append([s * x for x in rng.choice(base)])
            else:
                a, b = rng.choice(base), rng.choice(base)
                rows.append([x + 2 * y for x, y in zip(a, b)])
        out.append((f"tall-{i}", rows))
    for i in range(20):
        n = rng.randint(1, 7)
        rows = [[entry() for _ in range(n)] for _ in range(n)]
        if i % 2 and n > 1:
            a, b = rng.sample(range(n), 2)
            rows[a] = [F(3, 2) * x - y for x, y in zip(rows[b], rows[(b + 1) % n])]
        out.append((f"square-{i}", rows))
    # full rank early, then many redundant rows: a few sparse rows span
    # every column that occurs (the last column never does), and the denser
    # combinations of them that follow reduce to zero
    rng = random.Random(11)
    for i in range(4):
        ncols = rng.randint(3, 7)
        base = [[F(0)] * ncols for _ in range(ncols - 1)]
        for c, row in enumerate(base):
            row[c] = entry() or F(1)
            if c + 1 < ncols - 1:
                row[c + 1] = entry()
        rows = list(base)
        for _ in range(40):
            rows.append([sum((rng.randint(-3, 3) * b[c] for b in base), F(0))
                         for c in range(ncols)])
        out.append((f"redundant-{i}", rows))
    return out


MATRICES = _random_matrices()


def _sym(rows):
    import sympy

    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])


def _frac_rows(m):
    return [tuple(F(int(x.p), int(x.q)) for x in m.row(i)) for i in range(m.rows)]


def _sym_rref(rows, ncols):
    """Nonzero rows and pivots of sympy's rref of the stacked rows."""
    if not rows:
        return (), ()
    reduced, pivots = _sym(rows).rref()
    return tuple(_frac_rows(reduced)[: len(pivots)]), tuple(pivots)


@pytest.mark.parametrize("name, rows", MATRICES, ids=[n for n, _ in MATRICES])
def test_rref_is_independent_of_row_order(name, rows):
    """The echelon is canonical: shuffled, sorted and reversed copies of a
    stack give the same rows with the same keys in the same order, the same
    pivots and the same type for every scalar."""
    ncols = len(rows[0])
    given = [sparse_of(r) for r in rows]
    shuffled = list(given)
    random.Random(name).shuffle(shuffled)
    by_len = sorted(given, key=len)

    def rref(stack):
        reduced, pivots = _rref_rows(stack, ncols)
        return [list(row.items()) for row in reduced], _typed(reduced), pivots

    expected = rref(given)
    for stack in (shuffled, by_len, by_len[::-1], given[::-1]):
        assert rref(stack) == expected


class CountingRow(dict):
    """A sparse row that counts the passes over its entries."""

    reads = 0

    def items(self):
        self.reads += 1
        return super().items()


def test_rref_stops_once_every_column_holds_a_pivot():
    """Rows after full rank on the columns that occur are read once, for
    their columns, and never reduced."""
    base = [{0: 1}, {1: 2}, {0: 1, 2: 3}]
    redundant = [CountingRow({0: a, 1: 1, 2: -a}) for a in range(1, 9)]
    reduced, pivots = _rref_rows(base + redundant, 4)
    assert pivots == (0, 1, 2)
    assert reduced == [{0: 1}, {1: 1}, {2: 1}]
    assert [r.reads for r in redundant] == [1] * len(redundant)


@needs_sympy
@pytest.mark.parametrize("name, rows", MATRICES, ids=[n for n, _ in MATRICES])
def test_rank_kernel_rref_against_sympy(name, rows):
    ncols = len(rows[0])
    sparse_rows = [sparse_of(r) for r in rows]
    sym = _sym(rows)
    assert rank(sparse_rows, ncols) == sym.rank()
    reduced, pivots = _sym_rref(rows, ncols)
    space = span(rows, ncols)
    assert (tuple(dense(space.rows, ncols)), space.pivots) == (reduced, pivots)
    got, got_pivots = _rref_rows(sparse_rows, ncols)
    assert (tuple(dense(got, ncols)), got_pivots) == (reduced, pivots)
    # the kernel in sympy's own canonical form: rref of its nullspace basis
    null = [tuple(v) for v in sym.nullspace()]
    null_rows = [[F(int(x.p), int(x.q)) for x in v] for v in null]
    k = kernel(sparse_rows, ncols)
    assert k == span(null_rows, ncols)
    assert (tuple(dense(k.rows, ncols)), k.pivots) == _sym_rref(null_rows, ncols)


@needs_sympy
@pytest.mark.parametrize(
    "name, rows",
    [c for c in MATRICES if c[0].startswith(("square", "zero"))],
    ids=[n for n, _ in MATRICES if n.startswith(("square", "zero"))],
)
def test_inverse_against_sympy(name, rows):
    n = len(rows[0])
    sym = _sym(rows) if len(rows) == n else None
    if sym is None or sym.det() == 0:
        with pytest.raises(ValueError):
            inverse([sparse_of(r) for r in rows], n)
        return
    expected = _frac_rows(sym.inv())
    got = inverse([sparse_of(r) for r in rows], n)
    assert dense(got, n) == expected
    assert [tuple(row.get(j, F(0)) for j in range(n)) for row in got] == expected


@needs_sympy
@pytest.mark.parametrize("name, rows", MATRICES[2:], ids=[n for n, _ in MATRICES[2:]])
def test_complement_against_sympy(name, rows):
    """The pivot-greedy complement, with and without a counit-like
    constraint, rebuilt from sympy's rref of inner and outer."""
    ncols = len(rows[0])
    rng = random.Random(name)
    inner_rows = rows[: len(rows) // 2]
    inner, outer = span(inner_rows, ncols), span(rows, ncols)
    in_basis, in_piv = _sym_rref(inner_rows, ncols)
    out_basis, out_piv = _sym_rref(rows, ncols)
    chosen = [r for r, p in zip(out_basis, out_piv) if p not in in_piv]
    assert tuple(dense(complement(inner, outer).rows, ncols)) == _sym_rref(chosen, ncols)[0]

    constraint = tuple(rng.randint(-2, 2) for _ in range(ncols))
    adjuster = next((r for r in in_basis if dot(constraint, r)), None)
    if adjuster is None and any(dot(constraint, r) for r in chosen):
        message = no_constrained_complement(inner.dim, outer.dim)
        with pytest.raises(HopfcoreError, match=message):
            complement(inner, outer, constraint)
        return
    if adjuster is not None:
        chosen = [
            tuple(a - dot(constraint, r) / dot(constraint, adjuster) * b
                  for a, b in zip(r, adjuster))
            for r in chosen
        ]
    got = complement(inner, outer, constraint)
    assert tuple(dense(got.rows, ncols)) == _sym_rref(chosen, ncols)[0]
