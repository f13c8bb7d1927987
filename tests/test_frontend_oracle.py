"""The shared front end against the dense code the sparse echelon replaced.

``dense_rref_rows`` is the earlier dense elimination loop, and the helpers
below rebuild the filtration, the pivot-greedy complement, the splitting's
inverse, the associated graded product table and the stable-core chain the
way the earlier code did: every condition row, matrix and product densified
first.  The sparse pipeline must give the same layers, splitting vectors,
split coordinates, gr tables and core chains, and ``Subspace.reduce`` the
same residuals as the earlier dense ``dense_reduce``.  Division goes
through ``Rational``, since the pipeline hands over ``int`` scalars.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from hopfcore import cli
from hopfcore.action import KILLED, Ideal, ModuleAlgebraAction, hcore
from hopfcore.coalgebra import (
    build_ueg,
    coradical_filtration,
    gr_structure,
    graded_splitting,
    instance_from_json,
)
from hopfcore.linalg import Q0, Q1, Rational
from hopfcore.pbw import PBWStructure
from hopfcore.table import PolynomialAlgebra, SparseVec
from conftest import assert_matches_dense_operators, dense_mul, dense_of, load_fixture


def dense_space(space):
    """A subspace as its dense echelon rows and its pivots."""
    return tuple(dense_of(r, space.ambient_dim) for r in space.rows), space.pivots


def dot(u, v):
    return sum((a * b for a, b in zip(u, v) if a and b), Q0)


def dense_rref_rows(rows, ncols):
    work = [list(r) for r in rows if any(r)]
    pivots = []
    piv_r = 0
    for col in range(ncols):
        pr = None
        for r in range(piv_r, len(work)):
            if work[r][col]:
                pr = r
                break
        if pr is None:
            continue
        work[piv_r], work[pr] = work[pr], work[piv_r]
        lead = work[piv_r][col]
        if lead != 1:
            work[piv_r] = [Rational(x, lead) for x in work[piv_r]]
        prow = work[piv_r]
        for r in range(len(work)):
            if r == piv_r:
                continue
            f = work[r][col]
            if f:
                row = work[r]
                for c in range(col, ncols):
                    if prow[c]:
                        row[c] -= f * prow[c]
        pivots.append(col)
        piv_r += 1
        if piv_r == len(work):
            break
    return tuple(tuple(work[i]) for i in range(len(pivots))), tuple(pivots)


def dense_kernel(rows, ncols):
    reduced, pivots = dense_rref_rows(rows, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Q0] * ncols
        v[free] = Q1
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][free]
        basis.append(v)
    return dense_rref_rows(basis, ncols)


def quotient_units(basis, pivots, dim):
    rank_of = {p: i for i, p in enumerate(pivots)}
    out = []
    for j in range(dim):
        if j in rank_of:
            row = basis[rank_of[j]]
            out.append({a: -row[a] for a in range(dim) if a not in rank_of and row[a]})
        else:
            out.append({j: Q1})
    return out


def dense_filtration(data):
    """Layers as (basis, pivots) from span{1} until they stall or reach
    the bound."""
    dim = data.dim
    base = dense_rref_rows([dense_of(data.one, dim)], dim)
    qbase = quotient_units(*base, dim)
    layers = [base]
    for _ in range(data.degree_bound):
        prev = layers[-1]
        if len(prev[0]) == dim:
            layers.append(prev)
            continue
        qprev = quotient_units(*prev, dim)
        rows = {}
        for t in range(dim):
            for j, k, c in data.comult[t]:
                for a, ca in qprev[j].items():
                    for b, cb in qbase[k].items():
                        rows.setdefault((a, b), [Q0] * dim)[t] += c * ca * cb
        nxt = dense_kernel([rows[key] for key in sorted(rows)], dim)
        if len(nxt[0]) == len(prev[0]):
            break
        layers.append(nxt)
    return layers


def dense_complement(inner, outer, constraint):
    rows = [r for r, p in zip(*outer) if p not in inner[1]]
    if any(dot(constraint, r) for r in rows):
        adjuster = next(r for r in inner[0] if dot(constraint, r))
        denom = dot(constraint, adjuster)
        rows = [
            tuple(a - Rational(dot(constraint, r), denom) * b
                  for a, b in zip(r, adjuster))
            for r in rows
        ]
    return dense_rref_rows(rows, len(constraint))[0]


def dense_split_units(vectors, dim):
    """Column j of the inverse of the matrix whose columns are the vectors,
    from the dense rref of [B | I]."""
    aug = [
        [v[i] for v in vectors] + list(dense_of({i: Q1}, dim)) for i in range(dim)
    ]
    reduced, _ = dense_rref_rows(aug, 2 * dim)
    return tuple(
        {k: reduced[k][dim + j] for k in range(dim) if reduced[k][dim + j]}
        for j in range(dim)
    )


def dense_gr_table(split) -> dict[tuple[int, int], SparseVec]:
    degrees, bound = split.degrees, split.data.degree_bound
    table = {}
    for a in range(split.dim):
        for b in range(split.dim):
            target = degrees[a] + degrees[b]
            if target > bound:
                continue
            prod = dense_mul(
                split.data,
                dense_of(split.vectors[a], split.data.dim),
                dense_of(split.vectors[b], split.data.dim),
            )
            coords = dense_of(split.to_split(dict(enumerate(prod))), split.dim)
            table[(a, b)] = tuple(
                (k, c) for k, c in enumerate(coords) if c and degrees[k] == target
            )
    return table


def dense_hcore_chain(action, ideal, core_cap, conv_cap):
    host, alg = action.host, action.algebra
    cols = [i for i in range(alg.dim) if alg.degrees[i] <= core_cap]
    rows, chain = [], []
    for d in range(conv_cap + 1):
        for p, degree in enumerate(host.degrees):
            if degree != d:
                continue
            dense = [
                dense_of(
                    ideal.quotient_coords({i: action.columns(p)[c].get(i, Q0)
                                           for i in range(alg.dim)}),
                    len(ideal.normal),
                )
                for c in cols
            ]
            for pos in range(len(ideal.normal)):
                row = tuple(dense[t][pos] for t in range(len(cols)))
                if any(row):
                    rows.append(row)
        small, pivots = dense_kernel(rows, len(cols))
        chain.append(
            (
                tuple(
                    tuple(row[cols.index(i)] if i in cols else Q0 for i in range(alg.dim))
                    for row in small
                ),
                tuple(cols[p] for p in pivots),
            )
        )
    return chain


def dense_reduce(space, v):
    """Residual of v: at each pivot in turn, subtract the multiple of the
    basis row that clears it, over every coordinate."""
    out = list(v)
    for row, p in zip(*dense_space(space)):
        c = out[p]
        if c:
            for j in range(space.ambient_dim):
                if row[j]:
                    out[j] -= c * row[j]
    return tuple(out)


def assert_reduce_matches_dense(spaces, vectors):
    for space in spaces:
        for v in vectors:
            expected = dense_reduce(space, v)
            residual = space.reduce(dict(enumerate(v)))
            assert residual == {j: x for j, x in enumerate(expected) if x}
            assert space.contains(dict(enumerate(v))) == (not any(expected))
            assert space.contains({j: x for j, x in enumerate(v) if x}) == (
                not any(expected)
            )


def sample_vectors(dim, seed):
    """Every coordinate vector and a few seeded integer and rational
    combinations."""
    rng = random.Random(seed)
    out = [dense_of({j: Q1}, dim) for j in range(dim)]
    for _ in range(6):
        out.append(tuple(rng.choice((0, 0, 1, -2, Rational(1, 3))) for _ in range(dim)))
    return out


def _data(name, degree):
    return instance_from_json(load_fixture(f"instances/{name}.json"), degree)


@pytest.mark.parametrize(
    "name, degree",
    [("sl2", 8), ("xyw", 8), ("heis", 7), ("grouplike", None), ("shifted_line", None)],
)
def test_front_end_matches_dense_oracle(name, degree):
    data = _data(name, degree)
    filt = coradical_filtration(data)
    oracle = dense_filtration(data)
    assert [dense_space(layer) for layer in filt.layers] == oracle
    assert_reduce_matches_dense(filt.layers, sample_vectors(data.dim, name))
    if not filt.exhaustive:
        assert name == "grouplike"  # the stall: nothing past the filtration
        return

    split = graded_splitting(filt, data)
    vectors = [oracle[0][0][0]]
    for n in range(1, len(oracle)):
        vectors += dense_complement(oracle[n - 1], oracle[n], data.counit)
    assert [dense_of(v, data.dim) for v in split.vectors] == vectors
    assert all(all(v.values()) for v in split.vectors)
    assert split.to_split_units == dense_split_units(vectors, data.dim)

    gr = gr_structure(split)
    table = dense_gr_table(split)
    assert {key: gr.mult[key] for key in table} == table
    assert all((key in gr.mult) == (key in table)
               for key in ((a, b) for a in range(gr.dim) for b in range(gr.dim)))


@pytest.mark.parametrize(
    "action_name, host_name, degree",
    [("sl2_qxy_ix", "sl2", 6), ("dq_qx_ix", "dq", 8), ("xyw_qu", "xyw", 8)],
)
def test_hcore_chain_matches_dense_oracle(host_at, action_name, host_name, degree):
    host = host_at(host_name, degree)
    spec = load_fixture(f"actions/{action_name}.json")
    algebra = cli._algebra_from_json(spec["algebra"])
    ops = {
        gid: cli._operator_columns(algebra, gid, op)
        for gid, op in spec["generators"].items()
    }
    action = ModuleAlgebraAction(host, algebra, ops)
    ideal = cli._ideal_from_json(algebra, spec["ideal"])
    cap = spec["core_degree_cap"]
    result = hcore(action, ideal, cap)
    chain = dense_hcore_chain(action, ideal, cap, degree)
    assert [dense_space(core) for core in result.by_cap] == chain
    assert_reduce_matches_dense(result.by_cap, sample_vectors(algebra.dim, action_name))
    assert len({core.dim for core in result.by_cap}) > 1  # the chain moves


# -- drawn operators -----------------------------------------------------------


DQ_BOUND = 4
# the host U(Q d) truncated at degree 4: one generator, indices d^(k)
DQ = PBWStructure.from_bialgebra(build_ueg(["d"], {}, DQ_BOUND))
ENTRIES = st.sampled_from([1, -1, 2, Rational(1, 2), Rational(-2, 3), Rational(5, 4)])


@st.composite
def drawn_actions(draw):
    """An operator for d on a small truncated polynomial algebra: each
    column killed or holding one to three terms, some of them not
    integral; an ideal spanned by the multiples of a monomial or of a
    binomial; and a core cap."""
    variables, bound = draw(st.sampled_from([(["x"], 5), (["x", "y"], 3)]))
    algebra = PolynomialAlgebra(variables, bound)
    n = algebra.dim
    columns = []
    for _ in range(n):
        rows = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
        columns.append({r: draw(ENTRIES) for r in sorted(rows)})
    a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    if draw(st.booleans()):
        ideal = Ideal.monomial(algebra, [algebra.monomials[a]])
    else:
        ideal = Ideal.principal(algebra, {a: Q1, b: draw(ENTRIES)})
    action = ModuleAlgebraAction(DQ, algebra, {"d": columns})
    return action, columns, ideal, draw(st.integers(0, bound))


@settings(max_examples=40, deadline=None)
@given(drawn_actions())
def test_drawn_operators_match_dense_oracles(drawn):
    """Every operator of the host, composed from a drawn generator operator,
    matches the dense sympy product of its powers, holds each column it
    kills as the one shared ``KILLED`` mapping, and gives the core chain of
    the dense stacked kernel."""
    sympy = pytest.importorskip("sympy")
    action, columns, ideal, cap = drawn
    assert_matches_dense_operators(sympy, action, {"d": columns})
    for p in range(len(DQ.indices)):
        assert all(col is KILLED for col in action.columns(p) if not col)
    result = hcore(action, ideal, cap)
    chain = dense_hcore_chain(action, ideal, cap, DQ_BOUND)
    assert [dense_space(core) for core in result.by_cap] == chain
