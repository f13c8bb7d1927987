"""The sparse span-closure and level-closure samplers against the dense
implementations they replaced.

``dense_span_closure``, ``dense_level_closure`` and ``dense_in_primitive_set``
are the earlier dense code, kept here as oracles: every coordinate of every
sampled element is accumulated, and the primitivity defect is computed in
full before it is tested.  The sparse samplers must produce the same report
lines from the same random draws.
"""

import random
from fractions import Fraction

import pytest

from hopfcore.coalgebra import (
    FilteredBialgebraData,
    _in_primitive_set,
    _level_table,
    check_level_closure,
)
from hopfcore.linalg import Q0, Q1
from hopfcore.monoid import weighted_degree
from hopfcore.pbw import PBWStructure
from hopfcore.report import FAIL, PASS, Report
from conftest import (
    GREATER, add, compare, dense_mul, dense_of, front_end, rational_monomial,
    sparse_of,
)

# fixture instances at their own degree bounds
HOSTS = [("sl2", 4), ("heis", 4), ("xyw", 4), ("dq", 4), ("qt", 3)]


def le(p, m, n):
    """m <= n in the reference well-order."""
    return compare(p.gens, m, n) != GREATER


def dense_span_closure(p, rng, samples):
    rep = Report()

    def degree(m):
        return weighted_degree(m, p.gens.weights)

    small = [m for m in p.indices if 2 * degree(m) <= p.data.degree_bound]
    for trial in range(samples):
        n = small[rng.randrange(len(small))]
        choices = [
            m for m in p.indices if degree(m) + degree(n) <= p.data.degree_bound
        ]
        m = choices[rng.randrange(len(choices))]
        total = add(n, m)

        def sample_elem(top):
            v = (Q0,) * p.data.dim
            for i in [i for i in p.indices if le(p, i, top)]:
                c = rng.randint(-2, 2)
                if c:
                    v = tuple(
                        x + Fraction(c) * y
                        for x, y in zip(
                            v, dense_of(rational_monomial(p, p.index_pos[i]), p.data.dim)
                        )
                    )
            return v

        u, w = sample_elem(n), sample_elem(m)
        prod = dense_mul(p.data, u, w)
        support = [p.indices[i] for i in p.pbw_coords(sparse_of(prod))]
        bad = [i for i in support if not le(p, i, total)]
        rep.add(
            "span-closure",
            f"trial {trial} (n={p.gens.label(n)}, m={p.gens.label(m)})",
            PASS if not bad else FAIL,
            f"escaped at {p.gens.label(bad[0])}" if bad else "",
        )
    return rep


def dense_in_primitive_set(gr, v, n):
    degrees = gr.degrees
    if max((degrees[k] for k, c in enumerate(v) if c), default=0) > n:
        return False
    tmap = gr.comult_map(dict(enumerate(v)))
    for k, c in enumerate(v):
        if not c:
            continue
        for key in ((0, k), (k, 0)):
            val = tmap.get(key, Q0) - c
            if val:
                tmap[key] = val
            else:
                tmap.pop(key, None)
    for (p, q), c in tmap.items():
        dp, dq = degrees[p], degrees[q]
        if c and (dp + dq > n or dp > n - 1 or dq > n - 1):
            return False
    return True


def dense_level_closure(gr, rng, samples):
    rep = Report()
    degrees = gr.degrees
    bound = gr.degree_bound

    def random_level_element(n):
        coords = [Q0] * gr.dim
        nonzero = False
        for k in range(gr.dim):
            if degrees[k] <= n:
                c = rng.randint(-2, 2)
                if c:
                    coords[k] = Fraction(c)
                    nonzero = True
        if not nonzero:
            coords[0] = Q1
        return tuple(coords)

    for trial in range(samples):
        n = rng.randint(1, bound)
        m = rng.randint(1, bound)
        b = random_level_element(n)
        c = random_level_element(m)
        ok_b = dense_in_primitive_set(gr, b, n)
        ok_c = dense_in_primitive_set(gr, c, m)
        checks = [("membership", ok_b and ok_c)]
        if n + m <= bound:
            prod = dense_mul(gr, b, c)
            ok_prod = dense_in_primitive_set(gr, prod, n + m)
            checks.append(("product", ok_prod))
        total = tuple(x + y for x, y in zip(b, c))
        ok_sum = dense_in_primitive_set(gr, total, max(n, m))
        checks.append(("sum", ok_sum))
        bad = [name for name, ok in checks if not ok]
        rep.add(
            "level-closure",
            f"trial {trial} (n={n}, m={m})",
            PASS if not bad else FAIL,
            ",".join(bad),
        )
    return rep


def _same_run(sparse, dense, subject, seed, samples):
    """Both samplers on equal generators: identical lines, and the
    generators end in the same state (the same draws were made)."""
    rng_s, rng_d = random.Random(seed), random.Random(seed)
    got = sparse(subject, rng_s, samples)
    want = dense(subject, rng_d, samples)
    assert got.lines == want.lines
    assert rng_s.random() == rng_d.random()
    return got


@pytest.mark.parametrize("name, degree", HOSTS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_span_closure_matches_dense_oracle(host_at, name, degree, seed):
    p = host_at(name, degree)
    rep = _same_run(PBWStructure.check_span_closure, dense_span_closure, p, seed, 25)
    assert rep.passed


def test_span_closure_failure_lines_match_dense_oracle(host_at, monkeypatch):
    """Move every expansion coefficient one index up the well-order, so that
    products escape; both samplers report the same FAIL lines."""
    p = host_at("sl2", 4)
    true_coords = PBWStructure.pbw_coords

    def shifted(self, v):
        last = len(self.indices) - 1
        return {min(i + 1, last): c for i, c in true_coords(self, v).items()}

    monkeypatch.setattr(PBWStructure, "pbw_coords", shifted)
    rep = _same_run(PBWStructure.check_span_closure, dense_span_closure, p, 4, 25)
    statuses = {line.status for line in rep.lines}
    assert FAIL in statuses and statuses != {FAIL}


@pytest.mark.parametrize("name, degree", HOSTS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_level_closure_matches_dense_oracle(host_at, name, degree, seed):
    _, gr, _ = front_end(host_at(name, degree))
    rep = _same_run(check_level_closure, dense_level_closure, gr, seed, 40)
    assert rep.passed


def _table(labels, degrees, mult, comult):
    return FilteredBialgebraData(
        basis_labels=labels,
        degree_bound=max(degrees),
        mult={key: tuple(terms) for key, terms in mult.items()},
        comult=tuple(tuple(row) for row in comult),
        counit=(Q1,) + (Q0,) * (len(labels) - 1),
        unit_index=0,
        filtration_hint=degrees,
    )


def _unit_products(dim):
    return {
        **{(0, k): [(k, Q1)] for k in range(dim)},
        **{(k, 0): [(k, Q1)] for k in range(dim)},
    }


# not graded: the degree-1 element x has the illegal term x (x) x
X_SQUARED = _table(
    ("1", "x", "x2"),
    (0, 1, 2),
    {**_unit_products(3), (1, 1): [(2, Fraction(2))]},
    [
        [(0, 0, Q1)],
        [(1, 0, Q1), (0, 1, Q1), (1, 1, Q1)],
        [(2, 0, Q1), (0, 2, Q1), (1, 1, Q1)],
    ],
)

# as X_SQUARED, plus a primitive y whose square z carries z (x) z, so that
# products of members of level 1 leave level 2
Y_SQUARED = _table(
    ("1", "x", "y", "z"),
    (0, 1, 1, 2),
    {**_unit_products(4), (1, 1): [], (1, 2): [], (2, 1): [], (2, 2): [(3, Q1)]},
    [
        [(0, 0, Q1)],
        [(1, 0, Q1), (0, 1, Q1), (1, 1, Q1)],
        [(2, 0, Q1), (0, 2, Q1)],
        [(3, 0, Q1), (0, 3, Q1), (3, 3, Q1)],
    ],
)


# the degree-1 element w has Delta(w) = 2 w (x) 1 + 1 (x) w: its defect
# w (x) 1 sits at bidegree (1, 0), which level 1 rejects
LOPSIDED = _table(
    ("1", "w"),
    (0, 1),
    {**_unit_products(2), (1, 1): []},
    [[(0, 0, Q1)], [(1, 0, Fraction(2)), (0, 1, Q1)]],
)

ILLEGAL = {"x-squared": X_SQUARED, "y-squared": Y_SQUARED, "lopsided": LOPSIDED}


def test_level_closure_fails_on_illegal_comult_term():
    # expected lines computed by the dense implementation (seed 0)
    rep = check_level_closure(X_SQUARED, random.Random(0), 8)
    assert [(line.subject, line.status, line.detail) for line in rep.lines] == [
        ("trial 0 (n=2, m=2)", PASS, ""),
        ("trial 1 (n=2, m=2)", PASS, ""),
        ("trial 2 (n=1, m=2)", FAIL, "membership"),
        ("trial 3 (n=1, m=2)", FAIL, "membership"),
        ("trial 4 (n=2, m=1)", PASS, ""),
        ("trial 5 (n=1, m=1)", FAIL, "membership,sum"),
        ("trial 6 (n=2, m=2)", PASS, ""),
        ("trial 7 (n=1, m=1)", FAIL, "membership,sum"),
    ]
    rep = check_level_closure(Y_SQUARED, random.Random(0), 12)
    assert [(line.subject, line.status, line.detail) for line in rep.lines] == [
        ("trial 0 (n=2, m=2)", FAIL, "membership,sum"),
        ("trial 1 (n=1, m=1)", FAIL, "membership,product,sum"),
        ("trial 2 (n=1, m=2)", FAIL, "membership"),
        ("trial 3 (n=2, m=2)", FAIL, "membership,sum"),
        ("trial 4 (n=1, m=1)", FAIL, "membership,product,sum"),
        ("trial 5 (n=2, m=1)", FAIL, "membership,sum"),
        ("trial 6 (n=1, m=1)", FAIL, "membership,product,sum"),
        ("trial 7 (n=2, m=1)", FAIL, "membership,sum"),
        ("trial 8 (n=2, m=2)", FAIL, "membership,sum"),
        ("trial 9 (n=1, m=1)", FAIL, "membership"),
        ("trial 10 (n=1, m=1)", FAIL, "membership"),
        ("trial 11 (n=1, m=1)", FAIL, "membership,product,sum"),
    ]


@pytest.mark.parametrize("table", list(ILLEGAL))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_level_closure_illegal_table_matches_dense_oracle(table, seed):
    rep = _same_run(check_level_closure, dense_level_closure, ILLEGAL[table], seed, 30)
    assert not rep.passed


@pytest.mark.parametrize("table", [*ILLEGAL, "sl2"])
def test_in_primitive_set_matches_full_defect(sl2, table):
    gr = front_end(sl2)[1] if table == "sl2" else ILLEGAL[table]
    rng = random.Random(5)
    verdicts = set()
    for _ in range(300):
        size = rng.randint(1, min(gr.dim, 6))
        # explicit zeros included: the verdict must ignore them
        v = {k: Fraction(rng.randint(-2, 2)) for k in rng.sample(range(gr.dim), size)}
        n = rng.randint(1, gr.degree_bound)
        verdict = _in_primitive_set(_level_table(gr, n), v)
        assert verdict == dense_in_primitive_set(gr, dense_of(v, gr.dim), n)
        verdicts.add(verdict)
    assert verdicts == {True, False}
