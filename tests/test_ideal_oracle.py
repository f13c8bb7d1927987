"""The one ``Ideal`` against the dense classes it replaced.

``DenseMonomialIdeal``, ``DensePrincipalIdeal`` and ``DenseSubspaceIdeal``
are the earlier implementations, each with its own membership algorithm
(divisibility, degree-lex division and a subspace echelon) and its own
``contains``, ``reduce``, ``quotient_coords``, ``lift`` and
``normal_labels`` on dense tuples, and ``dense_quotient_table`` is the
earlier ``QuotientAlgebra`` table built from dense products.  Each case
builds an ``Ideal`` and its dense oracle from the same inputs; they must
give the same normal basis, membership, residuals, quotient coordinates
and lifts (each a sparse vector without zeros, compared with the oracle's
dense tuple) and quotient tables, for every coordinate vector and for
sparse vectors that hold explicit zeros.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from hopfcore import cli
from hopfcore.action import Ideal, QuotientAlgebra
from hopfcore.errors import TruncationError
from hopfcore.linalg import Q0, Rational, complement, rat
from hopfcore.table import PolynomialAlgebra, TableAlgebra
from conftest import (
    dense_mul, dense_of, full_space, load_fixture, normal_labels, sparse_of, span,
)


# -- the earlier dense classes ---------------------------------------------------------


class DenseMonomialIdeal:
    def __init__(self, algebra, generators):
        self.algebra = algebra
        self.generators = tuple(tuple(g) for g in generators)
        self._normal = tuple(
            t for t, e in enumerate(algebra.monomials) if not self._divisible(e)
        )

    def _divisible(self, exps):
        return any(all(x >= y for x, y in zip(exps, g)) for g in self.generators)

    def contains(self, v):
        return all(
            not c or self._divisible(self.algebra.monomials[i]) for i, c in enumerate(v)
        )

    def reduce(self, v):
        return tuple(
            c if not self._divisible(self.algebra.monomials[i]) else Q0
            for i, c in enumerate(v)
        )

    @property
    def normal_labels(self):
        return tuple(self.algebra.basis_labels[t] for t in self._normal)

    def quotient_coords(self, v):
        return tuple(v[t] for t in self._normal)

    def lift(self, coords):
        out = [Q0] * self.algebra.dim
        for pos, c in enumerate(coords):
            out[self._normal[pos]] = c
        return tuple(out)


class DensePrincipalIdeal:
    def __init__(self, algebra, element):
        self.algebra = algebra
        self.generator = tuple(element)
        lead = max(
            (t for t, c in enumerate(element) if c),
            key=lambda t: (sum(algebra.monomials[t]), algebra.monomials[t]),
        )
        self._lt_exps = algebra.monomials[lead]
        self._lt_coeff = element[lead]
        self._normal = tuple(
            t
            for t, e in enumerate(algebra.monomials)
            if not all(x >= y for x, y in zip(e, self._lt_exps))
        )

    def _order_key(self, t):
        return (sum(self.algebra.monomials[t]), self.algebra.monomials[t])

    def reduce(self, v):
        alg = self.algebra
        work = {t: c for t, c in enumerate(v) if c}
        remainder = {}
        while work:
            t = max(work, key=self._order_key)
            c = work.pop(t)
            exps = alg.monomials[t]
            if all(x >= y for x, y in zip(exps, self._lt_exps)):
                q = tuple(x - y for x, y in zip(exps, self._lt_exps))
                scale = Rational(c, self._lt_coeff)
                for s, gc in enumerate(self.generator):
                    if not gc:
                        continue
                    target = tuple(x + y for x, y in zip(q, alg.monomials[s]))
                    tt = alg.index[target]
                    if tt == t:
                        continue
                    val = work.get(tt, Q0) - scale * gc
                    if val:
                        work[tt] = val
                    else:
                        work.pop(tt, None)
            else:
                remainder[t] = c
        out = [Q0] * alg.dim
        for t, c in remainder.items():
            out[t] = c
        return tuple(out)

    def contains(self, v):
        return not any(self.reduce(v))

    @property
    def normal_labels(self):
        return tuple(self.algebra.basis_labels[t] for t in self._normal)

    def quotient_coords(self, v):
        reduced = self.reduce(v)
        return tuple(reduced[t] for t in self._normal)

    def lift(self, coords):
        out = [Q0] * self.algebra.dim
        for pos, c in enumerate(coords):
            out[self._normal[pos]] = c
        return tuple(out)


class DenseSubspaceIdeal:
    """The normal basis is the pivot-greedy complement of the subspace in
    the full space; residuals clear the pivots over every coordinate."""

    def __init__(self, algebra, subspace):
        self.algebra = algebra
        self.subspace = subspace
        self._complement = complement(subspace, full_space(algebra.dim))
        dim = algebra.dim
        self._rows = [dense_of(r, dim) for r in subspace.rows]
        self._complement_rows = [dense_of(r, dim) for r in self._complement.rows]

    def reduce(self, v):
        out = list(v)
        for row, p in zip(self._rows, self.subspace.pivots):
            c = out[p]
            if c:
                for j in range(self.algebra.dim):
                    if row[j]:
                        out[j] -= c * row[j]
        return tuple(out)

    def contains(self, v):
        return not any(self.reduce(v))

    @property
    def normal_labels(self):
        return tuple(self.algebra.basis_labels[p] for p in self._complement.pivots)

    def quotient_coords(self, v):
        residual = self.reduce(v)
        return tuple(residual[p] for p in self._complement.pivots)

    def lift(self, coords):
        out = [Q0] * self.algebra.dim
        for c, row in zip(coords, self._complement_rows):
            for j, x in enumerate(row):
                out[j] += c * x
        return tuple(out)


def dense_quotient_table(oracle):
    """(p, q) -> the class of the product of the lifted normal basis vectors
    p and q, as sorted nonzero terms; pairs whose product truncates are left
    out."""
    algebra = oracle.algebra
    n = len(oracle.normal_labels)
    lifts = [oracle.lift(dense_of({p: 1}, n)) for p in range(n)]
    table = {}
    for p, lp in enumerate(lifts):
        for q, lq in enumerate(lifts):
            try:
                prod = dense_mul(algebra, lp, lq)
            except TruncationError:
                continue
            coords = oracle.quotient_coords(prod)
            table[(p, q)] = tuple((k, c) for k, c in enumerate(coords) if c)
    return table


# -- the ideals --------------------------------------------------------------------------


def monomial_case(algebra, generators):
    return (
        Ideal.monomial(algebra, generators),
        DenseMonomialIdeal(algebra, generators),
    )


def principal_case(algebra, element):
    return (
        Ideal.principal(algebra, element),
        DensePrincipalIdeal(algebra, dense_of(element, algebra.dim)),
    )


def subspace_case(algebra, vectors):
    """vectors as lists of values."""
    return (
        Ideal.subspace(algebra, [sparse_of(v) for v in vectors]),
        DenseSubspaceIdeal(algebra, span(vectors, algebra.dim)),
    )


def fixture_case(name):
    """The ideal of an action fixture as the reader builds it, and the dense
    oracle of the fixture's generators."""
    spec = load_fixture(f"actions/{name}.json")
    algebra = cli._algebra_from_json(spec["algebra"])
    ideal = spec["ideal"]
    if ideal["kind"] == "principal":
        oracle = DensePrincipalIdeal(
            algebra, dense_of(cli._poly_vector(algebra, ideal["element"]), algebra.dim)
        )
    else:
        generators = [cli._exponents(algebra, m, "a monomial") for m in ideal["generators"]]
        oracle = DenseMonomialIdeal(algebra, generators)
    return cli._ideal_from_json(algebra, ideal), oracle


def _upper_triangular():
    """Upper triangular 2x2 matrices on E11, E12, E22."""
    return TableAlgebra.finite(
        ["E11", "E12", "E22"],
        {(0, 0): [(0, 1)], (0, 1): [(1, 1)], (1, 2): [(1, 1)], (2, 2): [(2, 1)]},
        {0: 1, 2: 1},
    )


def _principal_xy(bound, terms):
    """The principal ideal of sum c x^a y^b over the (c, (a, b)) terms."""
    algebra = PolynomialAlgebra(["x", "y"], bound)
    return principal_case(algebra, {algebra.index[e]: c for c, e in terms})


IDEALS = {
    "sl2_qxy_ix": lambda: fixture_case("sl2_qxy_ix"),
    "dq_qx_ix": lambda: fixture_case("dq_qx_ix"),
    "xyw_qu": lambda: fixture_case("xyw_qu"),
    "principal-x+y^2": lambda: _principal_xy(6, [(1, (1, 0)), (1, (0, 2))]),
    # the constant term is the least column: an echelon that pivots there
    # puts xy, not 1, in the normal basis
    "principal-1+2y-xy/3": lambda: _principal_xy(
        6, [(1, (0, 0)), (2, (0, 1)), (Rational(-1, 3), (1, 1))]
    ),
    "monomial-x^2,y^3": lambda: monomial_case(
        PolynomialAlgebra(["x", "y"], 5), [(2, 0), (0, 3)]
    ),
    "monomial-unit": lambda: monomial_case(PolynomialAlgebra(["x", "y"], 3), [(0, 0)]),
    "subspace-zero": lambda: subspace_case(_upper_triangular(), []),
    "subspace-unit": lambda: subspace_case(
        _upper_triangular(), [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    ),
    "subspace-E12": lambda: subspace_case(_upper_triangular(), [[0, 1, 0]]),
    "subspace-E11+E12,E12": lambda: subspace_case(
        _upper_triangular(), [[1, 1, 0], [0, 1, 0]]
    ),
}


@functools.cache
def case_named(name):
    """The ideal of a case and its dense oracle."""
    return IDEALS[name]()


scalars = st.integers(-3, 3) | st.fractions(
    min_value=-3, max_value=3, max_denominator=4
).map(rat)


def assert_matches_oracle(ideal, oracle, v):
    """v a sparse vector, zeros allowed."""
    dense = dense_of(v, ideal.algebra.dim)
    assert ideal.contains(v) == oracle.contains(dense)
    residual = ideal.reduce(v)
    assert residual == sparse_of(oracle.reduce(dense))
    assert all(residual.values())
    coords = ideal.quotient_coords(v)
    dense_coords = oracle.quotient_coords(dense)
    assert coords == sparse_of(dense_coords)
    assert all(coords.values())
    lift = ideal.lift(coords)
    assert lift == sparse_of(oracle.lift(dense_coords))
    assert all(lift.values())


@pytest.mark.parametrize("name", IDEALS)
def test_ideal_matches_dense_oracle_on_coordinate_vectors(name):
    ideal, oracle = case_named(name)
    assert normal_labels(ideal) == oracle.normal_labels
    assert len(ideal.normal) == len(oracle.normal_labels)
    for i in range(ideal.algebra.dim):
        assert_matches_oracle(ideal, oracle, {i: 1})
        assert_matches_oracle(ideal, oracle, {i: 0})
    n = len(ideal.normal)
    for p in range(n):
        assert ideal.lift({p: 1}) == sparse_of(oracle.lift(dense_of({p: 1}, n)))


@pytest.mark.parametrize("name", IDEALS)
def test_quotient_algebra_matches_dense_oracle(name):
    ideal, oracle = case_named(name)
    ring = QuotientAlgebra(ideal)
    assert ring.basis_labels == oracle.normal_labels
    assert ring.mult == dense_quotient_table(oracle)
    unit = dense_of(ideal.algebra.one, ideal.algebra.dim)
    assert ring.one == sparse_of(oracle.quotient_coords(unit))


@pytest.mark.parametrize("name", IDEALS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ideal_matches_dense_oracle_on_sparse_vectors(name, data):
    ideal, oracle = case_named(name)
    dim = ideal.algebra.dim
    v = data.draw(st.dictionaries(st.integers(0, dim - 1), scalars, max_size=8))
    assert_matches_oracle(ideal, oracle, v)
    # the same vector with every other coordinate an explicit zero
    assert_matches_oracle(ideal, oracle, {i: v.get(i, 0) for i in range(dim)})
