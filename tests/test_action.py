import random
from fractions import Fraction as F
from math import comb

import pytest

from hopfcore.action import (
    KILLED,
    ModuleAlgebraAction,
    Ideal,
    core_primeness_probe,
    QuotientAlgebra,
    hcore,
    conv_map,
    verify_module_algebra,
)
from hopfcore import cli
from hopfcore.coalgebra import build_ueg
from hopfcore.convolution import convolve
from hopfcore.errors import InputFormatError, TruncationError
from hopfcore.linalg import Subspace, combine, kernel
from hopfcore.pbw import PBWStructure
from hopfcore.table import PolynomialAlgebra, TableAlgebra
from conftest import (
    assert_matches_dense_operators, at, full_space, generator_operators, load_fixture,
    normal_labels,
    sparse_of,
)


def operator(algebra, image_of_monomial):
    """The sparse columns of the operator sending each monomial to the
    given (exponents, coefficient) terms."""
    cols = []
    for exps in algebra.monomials:
        img = {}
        for target, coeff in image_of_monomial(exps):
            if coeff:
                t = algebra.index[target]
                img[t] = img.get(t, F(0)) + coeff
        cols.append({t: c for t, c in sorted(img.items()) if c})
    return cols


@pytest.fixture(scope="module")
def qxy():
    return PolynomialAlgebra(["x", "y"], 8)


@pytest.fixture(scope="module")
def sl2_action(sl2, qxy):
    e = operator(qxy, lambda ab: [((ab[0] + 1, ab[1] - 1), F(ab[1]))] if ab[1] else [])
    f = operator(qxy, lambda ab: [((ab[0] - 1, ab[1] + 1), F(ab[0]))] if ab[0] else [])
    h = operator(qxy, lambda ab: [(ab, F(ab[0] - ab[1]))])
    return ModuleAlgebraAction(sl2, qxy, {"e": e, "f": f, "h": h})


@pytest.fixture(scope="module")
def ideal_x(qxy):
    return Ideal.principal(qxy, {qxy.index[(1, 0)]: 1})


@pytest.fixture(scope="module")
def dq_action():
    host = PBWStructure.from_bialgebra(build_ueg(["d"], {}, 4))
    A = PolynomialAlgebra(["x"], 8)
    d = operator(A, lambda e: [((e[0] - 1,), F(e[0]))] if e[0] else [])
    return ModuleAlgebraAction(host, A, {"d": d})


# -- desk algebras -------------------------------------------------------------


def test_polynomial_algebra_truncation(qxy):
    x4 = {qxy.index[(4, 0)]: 1}
    y4 = {qxy.index[(0, 4)]: 1}
    prod = qxy.mul(x4, y4)
    assert prod == {qxy.index[(4, 4)]: 1}
    x5 = {qxy.index[(5, 0)]: 1}
    with pytest.raises(TruncationError):
        qxy.mul(x5, y4)


def test_finite_algebra():
    A = TableAlgebra.finite(
        ["1", "u"],
        {
            (0, 0): [(0, F(1))],
            (0, 1): [(1, F(1))],
            (1, 0): [(1, F(1))],
            (1, 1): [(0, F(1))],
        },
        {0: 1},
    )
    u = {1: 1}
    assert A.mul(u, u) == {0: 1}


# -- ideal oracles ---------------------------------------------------------------


def test_monomial_ideal_membership(qxy):
    ideal = Ideal.monomial(qxy, [(1, 0)])
    x2y = {qxy.index[(2, 1)]: 1}
    y3 = {qxy.index[(0, 3)]: 1}
    assert ideal.contains(x2y)
    assert not ideal.contains({**x2y, **y3})
    assert ideal.reduce({**x2y, **y3}) == y3
    assert normal_labels(ideal) == tuple(
        f"y^{k}" if k > 1 else ("y" if k else "1") for k in range(9)
    )


def test_monomial_ideal_zero_and_unit(qxy):
    zero = Ideal.monomial(qxy, [])
    unit = Ideal.monomial(qxy, [(0, 0)])
    assert len(zero.normal) == qxy.dim and not zero.is_unit
    assert unit.is_unit and len(unit.normal) == 0
    assert not zero.contains({1: 1})
    assert unit.contains({0: 1})


def test_principal_ideal_division(qxy):
    ideal = Ideal.principal(qxy, {qxy.index[(1, 0)]: 1})
    v = {qxy.index[(2, 1)]: 1, qxy.index[(0, 3)]: 1}
    assert ideal.reduce(v) == {qxy.index[(0, 3)]: 1}
    # non-monomial generator: x - y; x^2 - y^2 = (x+y)(x-y) is inside
    pid = Ideal.principal(qxy, {qxy.index[(1, 0)]: F(1), qxy.index[(0, 1)]: F(-1)})
    diff_sq = {qxy.index[(2, 0)]: F(1), qxy.index[(0, 2)]: F(-1)}
    assert pid.contains(diff_sq)
    assert not pid.contains({qxy.index[(1, 0)]: 1})


def test_subspace_ideal_two_sidedness():
    A = TableAlgebra.finite(
        ["1", "u"],
        {
            (0, 0): [(0, F(1))],
            (0, 1): [(1, F(1))],
            (1, 0): [(1, F(1))],
            (1, 1): [],
        },
        {0: 1},
    )
    ok = Ideal.subspace(A, [{1: 1}])
    assert ok.contains({1: 1})
    with pytest.raises(InputFormatError):
        Ideal.subspace(A, [{0: 1}])


def test_quotient_ring_arithmetic(qxy, ideal_x):
    ring = QuotientAlgebra(ideal_x)
    y = ideal_x.quotient_coords({qxy.index[(0, 1)]: 1})
    y2 = ring.mul(y, y)
    assert y2 == ideal_x.quotient_coords({qxy.index[(0, 2)]: 1})
    assert ring.format(y2) == "y^2"
    x = ideal_x.quotient_coords({qxy.index[(1, 0)]: 1})
    assert x == {}



def _upper_triangular():
    """Upper triangular 2x2 matrices on E11, E12, E22."""
    return TableAlgebra.finite(
        ["E11", "E12", "E22"],
        {
            (0, 0): [(0, F(1))],
            (0, 1): [(1, F(1))],
            (1, 2): [(1, F(1))],
            (2, 2): [(2, F(1))],
        },
        {0: F(1), 2: F(1)},
    )


@pytest.mark.parametrize(
    "make_ideal",
    [
        lambda: Ideal.monomial(PolynomialAlgebra(["x", "y"], 5), [(2, 0), (0, 3)]),
        lambda: Ideal.principal(
            PolynomialAlgebra(["x", "y"], 4),
            {1: F(1), 2: F(-1)},
        ),
        lambda: Ideal.subspace(_upper_triangular(), [{1: 1}]),
        lambda: Ideal.subspace(_upper_triangular(), [{0: 1, 1: 1}, {1: 1}]),
    ],
    ids=["monomial", "principal", "subspace", "subspace-2"],
)
def test_quotient_table_matches_lifted_products(make_ideal):
    """Every product in A/I is the class of the product of the lifts, and
    truncates on exactly the pairs where the lifted product does."""
    ideal = make_ideal()
    algebra = ideal.algebra
    ring = QuotientAlgebra(ideal)
    n = len(ideal.normal)
    assert ring.basis_labels == normal_labels(ideal)
    truncated = 0
    for p in range(n):
        for q in range(n):
            ep, eq = {p: 1}, {q: 1}
            try:
                expected = ideal.quotient_coords(
                    algebra.mul(ideal.lift(ep), ideal.lift(eq))
                )
            except TruncationError:
                truncated += 1
                with pytest.raises(TruncationError):
                    ring.mul(ep, eq)
                continue
            assert ring.mul(ep, eq) == expected
    polynomial = isinstance(algebra, PolynomialAlgebra)
    assert (truncated > 0) == polynomial


# -- actions ---------------------------------------------------------------------


def test_module_algebra_verifies(sl2_action, dq_action):
    assert verify_module_algebra(sl2_action).passed
    assert verify_module_algebra(dq_action).passed


def test_action_rejects_unknown_and_missing_operators(sl2, qxy):
    zero = [{} for _ in range(qxy.dim)]
    with pytest.raises(InputFormatError, match="^operator for unknown generator 'zz'$"):
        ModuleAlgebraAction(sl2, qxy, {"e": zero, "f": zero, "h": zero, "zz": zero})
    with pytest.raises(InputFormatError):
        ModuleAlgebraAction(sl2, qxy, {"e": zero})


def test_action_rejects_misshapen_operators(sl2, qxy):
    zero = [{} for _ in range(qxy.dim)]
    # one column short, and a column with an entry past the last row
    for bad in (zero[1:], [{qxy.dim: 1}] + zero[1:]):
        with pytest.raises(InputFormatError, match="wrong shape"):
            ModuleAlgebraAction(sl2, qxy, {"e": bad, "f": zero, "h": zero})


@pytest.mark.parametrize("t", range(3))
def test_generator_operators_are_held_once_in_normal_form(heis, t):
    """The operator given for a generator is held at the generator's
    position, once: values through ``exact`` (the int 2, not Fraction(2, 1)),
    zeros dropped and an empty column as ``KILLED``; the operator of the
    generator's square is composed from it as (1/2) op o op."""
    A = PolynomialAlgebra(["x"], 3)
    given = [{}, {0: F(2, 1), 1: 0}, {1: F(1, 2), 2: F(-3)}, {2: 1, 3: F(5, 3)}]
    other = [{j: 1} for j in range(A.dim)]
    ops = {gid: given if s == t else other for s, gid in enumerate(heis.gens.ids)}
    act = ModuleAlgebraAction(heis, A, ops)
    g = heis.gen_pos[t]
    assert heis.indices[g] == tuple(int(s == t) for s in range(3))
    held = act.columns(g)
    assert held[0] is KILLED
    assert held[1:] == [{0: 2}, {1: F(1, 2), 2: -3}, {2: 1, 3: F(5, 3)}]
    assert type(held[1][0]) is int and type(held[2][2]) is int
    assert act.columns(g) is held
    square = act.columns(heis.index_pos[tuple(2 * int(s == t) for s in range(3))])
    for col, sq in zip(held, square):
        expected = {r: c / 2 for r, c in combine(held, col).items()}
        assert sq == expected
        assert sq or sq is KILLED


def test_module_algebra_fails_on_bad_unit(sl2, qxy):
    # an operator that does not kill 1 violates the unit law
    bad = operator(qxy, lambda ab: [(ab, F(1))])
    act = ModuleAlgebraAction(
        sl2,
        qxy,
        {
            "e": bad,
            "f": [{} for _ in range(qxy.dim)],
            "h": [{} for _ in range(qxy.dim)],
        },
    )
    rep = verify_module_algebra(act)
    assert any(
        (l.check, l.subject, l.status) == ("unit-law", "e", "FAIL") for l in rep.lines
    )


def test_module_algebra_product_law_failure_lines(sl2, qxy, sl2_action):
    # e = x*y*d^2/dy^2 kills 1 but is no derivation: e(y*y) = 2xy, e(y) = 0
    bad_e = operator(
        qxy,
        lambda ab: [((ab[0] + 1, ab[1] - 1), F(ab[1] * (ab[1] - 1)))] if ab[1] >= 2 else [],
    )
    act = ModuleAlgebraAction(sl2, qxy, {**generator_operators(sl2_action), "e": bad_e})
    lines = [
        (l.check, l.subject, l.status, l.detail)
        for l in verify_module_algebra(act).lines
        if l.check in ("product-law", "relation-compatibility")
    ]
    law = "checked 495, skipped 1530"
    assert lines == [
        ("product-law", "e", "FAIL", law + ", first failure at y,y"),
        ("product-law", "f", "PASS", law),
        ("product-law", "h", "PASS", law),
    ] + [
        ("relation-compatibility", f"{g},{h}", "FAIL" if (g, h) == ("f", "e") else "PASS", "")
        for g in "efh"
        for h in "efh"
    ]


def test_module_algebra_skips_truncated_images(sl2, qxy, sl2_action):
    # e = x^2 d/dy raises the degree: a pair is skipped when e_a e_b or a
    # product of image supports lies past degree 8
    raising_e = operator(
        qxy,
        lambda ab: [((ab[0] + 2, ab[1] - 1), F(ab[1]))] if ab[1] and sum(ab) < 8 else [],
    )
    act = ModuleAlgebraAction(sl2, qxy, {**generator_operators(sl2_action), "e": raising_e})
    lines = {
        (l.check, l.subject): (l.status, l.detail)
        for l in verify_module_algebra(act).lines
    }
    assert lines["product-law", "e"] == ("PASS", "checked 355, skipped 1670")
    assert lines["product-law", "f"] == ("PASS", "checked 495, skipped 1530")
    failing = [key for key, (status, _) in lines.items() if status == "FAIL"]
    assert failing == [("relation-compatibility", "f,e"), ("relation-compatibility", "h,e")]


def fixture_action(host, name):
    """The file ``fixtures/actions/<name>.json`` and its action over host,
    read the way ``hcore`` reads them."""
    spec = load_fixture(f"actions/{name}.json")
    algebra = cli._algebra_from_json(spec["algebra"])
    ops = {
        gid: cli._operator_columns(algebra, gid, op)
        for gid, op in spec["generators"].items()
    }
    return spec, ops, ModuleAlgebraAction(host, algebra, ops)


@pytest.mark.parametrize(
    "action_name, host_name",
    [("sl2_qxy_ix", "sl2"), ("dq_qx_ix", "dq"), ("xyw_qu", "xyw")],
)
def test_act_matches_dense_oracle(host_at, action_name, host_name):
    """The operator columns and act against the product of dense generator powers,
    each divided by k!, in generator order, for every index up to degree 6."""
    sympy = pytest.importorskip("sympy")
    host = host_at(host_name, 6)
    _, ops, action = fixture_action(host, action_name)
    assert host.degrees[-1] == 6
    assert_matches_dense_operators(sympy, action, ops)


def test_act_divided_derivative(dq_action):
    A = dq_action.algebra
    for n in range(6):
        for k in range(5):
            img = dq_action.act(at(dq_action.host, d=k), {A.index[(n,)]: 1})
            expected = {}
            if n >= k:
                expected = {A.index[(n - k,)]: F(comb(n, k))}
            assert img == expected


def test_act_sl2_example(sl2_action, qxy):
    host = sl2_action.host
    img = sl2_action.act(at(host, e=1), {qxy.index[(0, 2)]: 1})
    assert qxy.format(img) == "2*x*y"
    assert host.indices[0] == (0, 0, 0)
    assert sl2_action.act(0, {5: 1}) == {5: 1}


def test_xyw_action_module_law(xyw):
    A = PolynomialAlgebra(["u"], 8)
    d1 = operator(A, lambda e: [((e[0] - 1,), F(e[0]))] if e[0] else [])
    d2 = operator(
        A,
        lambda e: [((e[0] - 2,), F(e[0] * (e[0] - 1), 2))] if e[0] >= 2 else [],
    )
    act = ModuleAlgebraAction(xyw, A, {"x": d1, "y": d1, "w": d2})
    assert verify_module_algebra(act).passed


# -- the map into the convolution algebra ------------------------------------------


def test_conv_map_examples(dq_action):
    A = dq_action.algebra
    ideal = Ideal.monomial(A, [(1,)])
    ring = QuotientAlgebra(ideal)
    r = conv_map(dq_action, ring, {A.index[(1,)]: 1})
    host = dq_action.host
    assert r.value(at(host)) == {}
    assert r.value(at(host, d=1)) == {0: 1}
    unit = {A.index[(0,)]: 1}
    one = conv_map(dq_action, ring, unit)
    assert one.support() == [at(host)]
    assert one.value(0) == ideal.quotient_coords(unit) == {0: 1}


def test_conv_map_kills_stable_ideal(sl2_action, qxy):
    # (x, y) is stable under degree-preserving operators
    ideal = Ideal.monomial(qxy, [(1, 0), (0, 1)])
    ring = QuotientAlgebra(ideal)
    r = conv_map(sl2_action, ring, {qxy.index[(2, 1)]: 1})
    assert r.is_zero


def test_conv_map_is_algebra_map(sl2_action, qxy, ideal_x):
    ring = QuotientAlgebra(ideal_x)
    rng = random.Random(53)
    low = [i for i in range(qxy.dim) if qxy.degrees[i] <= 2]
    for _ in range(10):
        # a coefficient drawn as 0 stays an explicit zero entry
        a = {i: F(rng.randint(-2, 2)) for i in rng.sample(low, 3)}
        b = {i: F(rng.randint(-2, 2)) for i in rng.sample(low, 3)}
        left = conv_map(sl2_action, ring, qxy.mul(a, b))
        right = convolve(conv_map(sl2_action, ring, a), conv_map(sl2_action, ring, b))
        assert left == right
        assert conv_map(sl2_action, ring, a).value(0) == ideal_x.quotient_coords(a)


@pytest.mark.parametrize(
    "action_name, host_name, degree, pairs, core_dim",
    [
        ("sl2_qxy_ix", "sl2", 6, 495, 0),
        ("dq_qx_ix", "dq", 6, 45, 0),
        ("xyw_qu", "xyw", 6, 45, 0),
        ("dq_qxz_ixz", "dq", 7, 330, 21),
        ("dq_qxz_ix2z", "dq", 7, 330, 15),
        ("dq_qxyz_ixyz", "dq", 6, 924, 20),
    ],
)
def test_bridge_lemma(host_at, action_name, host_name, degree, pairs, core_dim):
    """phi(a) = (index -> class of its image in A/I) is multiplicative for
    the convolution product on every basis pair with a product in A, and
    its kernel on the columns of degree <= the core cap is the stable
    core."""
    host = host_at(host_name, degree)
    spec, _, action = fixture_action(host, action_name)
    algebra = action.algebra
    ideal = cli._ideal_from_json(algebra, spec["ideal"])
    ring = QuotientAlgebra(ideal)
    phi = [conv_map(action, ring, {i: 1}) for i in range(algebra.dim)]

    checked = 0
    for a in range(algebra.dim):
        for b in range(algebra.dim):
            if (a, b) in algebra.mult:
                ab = dict(algebra.mult[a, b])
                assert conv_map(action, ring, ab) == convolve(phi[a], phi[b])
                checked += 1
    assert checked == pairs

    cap = spec["core_degree_cap"]
    cols = [i for i in range(algebra.dim) if algebra.degrees[i] <= cap]
    rows = {}
    for t, i in enumerate(cols):
        for p, value in phi[i].terms():
            for k, c in value.items():
                rows.setdefault((p, k), {})[t] = c
    small = kernel(list(rows.values()), len(cols))
    kernel_of_phi = Subspace.from_sparse(
        [{cols[t]: c for t, c in row.items()} for row in small.rows], algebra.dim
    )
    core = hcore(action, ideal, cap).core
    assert kernel_of_phi == core
    assert core.dim == core_dim


# -- cores --------------------------------------------------------------------------


def test_hcore_trivial_ideals(sl2_action, qxy):
    zero = Ideal.monomial(qxy, [])
    unit = Ideal.monomial(qxy, [(0, 0)])
    assert hcore(sl2_action, zero, 4).core.dim == 0
    full = hcore(sl2_action, unit, 4).core
    assert full.dim == sum(1 for d in qxy.degrees if d <= 4)


def test_hcore_stable_ideal_is_its_own_core(sl2_action, qxy):
    ideal = Ideal.monomial(qxy, [(1, 0), (0, 1)])
    result = hcore(sl2_action, ideal, 4)
    expected = Subspace.from_sparse(
        [{i: 1} for i in range(qxy.dim) if 1 <= qxy.degrees[i] <= 4],
        qxy.dim,
    )
    assert result.core == expected
    assert result.stabilized


def test_hcore_sl2_chain(sl2_action, ideal_x, qxy):
    result = hcore(sl2_action, ideal_x, 4)
    # hand count: (x^(k+1)) cap degrees<=4 has dims 10, 6, 3; then the single
    # monomial x^4 survives order-3 operators, and nothing survives order 4
    assert result.dims == (10, 6, 3, 1, 0)
    assert result.core.dim == 0
    assert [qxy.format(r) for r in result.by_cap[3].rows] == ["x^4"]
    # the core shrinks at every cap
    assert all(a != b for a, b in zip(result.by_cap, result.by_cap[1:]))


def test_hcore_oracle_intersection(sl2_action, ideal_x, qxy):
    # independent route: intersect the kernels of the per-index conditions
    host = sl2_action.host
    cols = [i for i in range(qxy.dim) if qxy.degrees[i] <= 3]
    current = full_space(len(cols))
    for p, degree in enumerate(host.degrees):
        if degree > 3:
            continue
        columns = sl2_action.columns(p)
        rows = []
        for pos in range(len(ideal_x.normal)):
            row = []
            for c in cols:
                row.append(ideal_x.quotient_coords(columns[c]).get(pos, 0))
            rows.append(row)
        single = kernel([sparse_of(r) for r in rows], len(cols))
        # intersection via stacking both quotient condition sets
        qa, qb = current.quotient_units(), single.quotient_units()
        cond = {}
        for tag, q in (("a", qa), ("b", qb)):
            for j in range(len(cols)):
                for k, c in q[j].items():
                    cond.setdefault((tag, k), [F(0)] * len(cols))[j] += c
        current = kernel([sparse_of(cond[k]) for k in sorted(cond)], len(cols))
    result = hcore(sl2_action, ideal_x, 3)
    embedded = Subspace.from_sparse(
        [{cols[t]: c for t, c in row.items()} for row in current.rows], qxy.dim
    )
    assert embedded == result.by_cap[3]


def test_hcore_small_cap_stabilizes(sl2_action, qxy, ideal_x):
    result = hcore(sl2_action, ideal_x, 2)
    assert result.dims == (3, 1, 0, 0, 0)
    assert result.stabilized
    # cap 3 is the first whose core equals the one before
    repeats = [d for d in range(1, len(result.by_cap))
               if result.by_cap[d] == result.by_cap[d - 1]]
    assert repeats[0] == 3


def test_hcore_monotone(dq_action):
    A = dq_action.algebra
    ideal = Ideal.monomial(A, [(1,)])
    result = hcore(dq_action, ideal, 4)
    assert result.dims == (4, 3, 2, 1, 0)
    for small, large in zip(result.by_cap[1:], result.by_cap):
        assert all(large.contains(row) for row in small.rows)


def test_core_inside_ideal(sl2_action, qxy, ideal_x, dq_action):
    # the zero-index condition alone forces the core into the ideal
    core = hcore(sl2_action, ideal_x, 3).by_cap[2]
    for row in core.rows:
        assert ideal_x.contains(row)
    A = dq_action.algebra
    ideal = Ideal.monomial(A, [(1,)])
    for row in hcore(dq_action, ideal, 4).by_cap[1].rows:
        assert ideal.contains(row)


def test_core_is_ideal(sl2_action, qxy, ideal_x):
    # images of core elements under low-degree multiplications stay in the
    # degree-3 truncated core conditions
    core3 = hcore(sl2_action, ideal_x, 3).by_cap[3]
    host = sl2_action.host
    for row in core3.rows:
        for i in range(qxy.dim):
            if qxy.degrees[i] > 1:
                continue
            prod = qxy.mul({i: 1}, row)
            for p, degree in enumerate(host.degrees):
                if degree > 3:
                    continue
                assert ideal_x.contains(sl2_action.act(p, prod))


# -- probes -------------------------------------------------------------------------


def test_domain_probe_sl2(sl2_action, ideal_x):
    ring = QuotientAlgebra(ideal_x)
    rep = core_primeness_probe(sl2_action, ring, "domain", 3)
    assert rep.passed
    assert rep.counts["PASS"] > 0


def test_domain_probe_dq(dq_action):
    A = dq_action.algebra
    ideal = Ideal.monomial(A, [(1,)])
    ring = QuotientAlgebra(ideal)
    core = hcore(dq_action, ideal, 4).core
    assert core.dim == 0
    rep = core_primeness_probe(dq_action, ring, "domain", 3)
    assert rep.passed


def test_prime_and_semiprime_probes(sl2_action, ideal_x):
    ring = QuotientAlgebra(ideal_x)
    assert core_primeness_probe(sl2_action, ring, "prime", 2).passed
    assert core_primeness_probe(sl2_action, ring, "semiprime", 2).passed


def test_degenerate_ideal_skipped(sl2_action, qxy):
    unit = Ideal.monomial(qxy, [(0, 0)])
    ring = QuotientAlgebra(unit)
    rep = core_primeness_probe(sl2_action, ring, "domain", 2)
    assert rep.lines[0].status == "SKIP"
    assert "DegenerateIdeal" in rep.lines[0].detail
