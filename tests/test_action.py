import random
from fractions import Fraction as F
from math import comb

import pytest

from hopfcore.action import (
    ModuleAlgebraAction,
    MonomialIdeal,
    PrincipalIdeal,
    SubspaceIdeal,
    core_primeness_probe,
    hcore,
    quotient_ring,
    conv_map,
    verify_module_algebra,
)
from hopfcore import cli
from hopfcore.coalgebra import build_ueg
from hopfcore.convolution import convolve, u_star
from hopfcore.errors import ForeignGenerator, InputFormatError, TruncationError
from hopfcore.linalg import QMatrix, Subspace, to_dense, unit_vec, zero_vec
from hopfcore.monoid import MultiIndex, ZERO_INDEX
from hopfcore.pbw import PBWStructure
from hopfcore.table import PolynomialAlgebra, TableAlgebra
from conftest import load_fixture


def mi(**kw):
    return MultiIndex.make(kw)


def operator(algebra, image_of_monomial):
    cols = []
    for exps in algebra.monomials:
        img = [F(0)] * algebra.dim
        for target, coeff in image_of_monomial(exps):
            if coeff:
                img[algebra.index[target]] += coeff
        cols.append(tuple(img))
    return QMatrix.from_columns(cols)


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
    return PrincipalIdeal(qxy, unit_vec(qxy.dim, qxy.index[(1, 0)]))


@pytest.fixture(scope="module")
def dq_action():
    host = PBWStructure.from_bialgebra(build_ueg(["d"], {}, 4))
    A = PolynomialAlgebra(["x"], 8)
    d = operator(A, lambda e: [((e[0] - 1,), F(e[0]))] if e[0] else [])
    return ModuleAlgebraAction(host, A, {"d": d})


# -- desk algebras -------------------------------------------------------------


def test_polynomial_algebra_truncation(qxy):
    x4 = unit_vec(qxy.dim, qxy.index[(4, 0)])
    y4 = unit_vec(qxy.dim, qxy.index[(0, 4)])
    prod = qxy.mul(x4, y4)
    assert prod[qxy.index[(4, 4)]] == 1
    x5 = unit_vec(qxy.dim, qxy.index[(5, 0)])
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
        unit_vec(2, 0),
    )
    u = unit_vec(2, 1)
    assert A.mul(u, u) == unit_vec(2, 0)


# -- ideal oracles ---------------------------------------------------------------


def test_monomial_ideal_membership(qxy):
    ideal = MonomialIdeal(qxy, [(1, 0)])
    x2y = unit_vec(qxy.dim, qxy.index[(2, 1)])
    y3 = unit_vec(qxy.dim, qxy.index[(0, 3)])
    assert ideal.contains(x2y)
    assert not ideal.contains(tuple(a + b for a, b in zip(x2y, y3)))
    assert ideal.reduce(tuple(a + b for a, b in zip(x2y, y3))) == y3
    assert ideal.normal_labels == tuple(
        f"y^{k}" if k > 1 else ("y" if k else "1") for k in range(9)
    )


def test_monomial_ideal_zero_and_unit(qxy):
    zero = MonomialIdeal(qxy, [])
    unit = MonomialIdeal(qxy, [(0, 0)])
    assert zero.is_zero and not zero.is_unit
    assert unit.is_unit and unit.quotient_dim == 0
    assert not zero.contains(unit_vec(qxy.dim, 1))
    assert unit.contains(unit_vec(qxy.dim, 0))


def test_principal_ideal_division(qxy):
    ideal = PrincipalIdeal(qxy, unit_vec(qxy.dim, qxy.index[(1, 0)]))
    v = zero_vec(qxy.dim)
    v = tuple(
        1 if i in (qxy.index[(2, 1)], qxy.index[(0, 3)]) else F(0)
        for i in range(qxy.dim)
    )
    assert ideal.reduce(v) == unit_vec(qxy.dim, qxy.index[(0, 3)])
    # non-monomial generator: x - y; x^2 - y^2 = (x+y)(x-y) is inside
    g = tuple(
        F(1) if i == qxy.index[(1, 0)] else (F(-1) if i == qxy.index[(0, 1)] else F(0))
        for i in range(qxy.dim)
    )
    pid = PrincipalIdeal(qxy, g)
    diff_sq = tuple(
        F(1)
        if i == qxy.index[(2, 0)]
        else (F(-1) if i == qxy.index[(0, 2)] else F(0))
        for i in range(qxy.dim)
    )
    assert pid.contains(diff_sq)
    assert not pid.contains(unit_vec(qxy.dim, qxy.index[(1, 0)]))


def test_subspace_ideal_two_sidedness():
    A = TableAlgebra.finite(
        ["1", "u"],
        {
            (0, 0): [(0, F(1))],
            (0, 1): [(1, F(1))],
            (1, 0): [(1, F(1))],
            (1, 1): [],
        },
        unit_vec(2, 0),
    )
    ok = SubspaceIdeal(A, Subspace.from_vectors([[0, 1]], 2))
    assert ok.contains(unit_vec(2, 1))
    with pytest.raises(InputFormatError):
        SubspaceIdeal(A, Subspace.from_vectors([[1, 0]], 2))


def test_quotient_ring_arithmetic(qxy, ideal_x):
    ring = quotient_ring(ideal_x)
    y = ring.project(unit_vec(qxy.dim, qxy.index[(0, 1)]))
    y2 = ring.mul(y, y)
    assert y2 == ring.project(unit_vec(qxy.dim, qxy.index[(0, 2)]))
    x = ring.project(unit_vec(qxy.dim, qxy.index[(1, 0)]))
    assert ring.is_zero(x)



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
        (F(1), F(0), F(1)),
    )


@pytest.mark.parametrize(
    "make_ideal",
    [
        lambda: MonomialIdeal(PolynomialAlgebra(["x", "y"], 5), [(2, 0), (0, 3)]),
        lambda: PrincipalIdeal(
            PolynomialAlgebra(["x", "y"], 4),
            tuple(F(1) if i == 1 else (F(-1) if i == 2 else F(0)) for i in range(15)),
        ),
        lambda: SubspaceIdeal(
            _upper_triangular(), Subspace.from_vectors([[0, 1, 0]], 3)
        ),
        lambda: SubspaceIdeal(
            _upper_triangular(), Subspace.from_vectors([[1, 1, 0], [0, 1, 0]], 3)
        ),
    ],
    ids=["monomial", "principal", "subspace", "subspace-2"],
)
def test_quotient_table_matches_lifted_products(make_ideal):
    """Every product in A/I is the class of the product of the lifts, and
    truncates on exactly the pairs where the lifted product does."""
    ideal = make_ideal()
    algebra = ideal.algebra
    ring = quotient_ring(ideal)
    n = ideal.quotient_dim
    assert ring.basis_labels == ideal.normal_labels
    truncated = 0
    for p in range(n):
        for q in range(n):
            ep, eq = unit_vec(n, p), unit_vec(n, q)
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
    zero = QMatrix([zero_vec(qxy.dim)] * qxy.dim)
    with pytest.raises(ForeignGenerator):
        ModuleAlgebraAction(sl2, qxy, {"e": zero, "f": zero, "h": zero, "zz": zero})
    with pytest.raises(InputFormatError):
        ModuleAlgebraAction(sl2, qxy, {"e": zero})


def test_module_algebra_fails_on_bad_unit(sl2, qxy):
    # an operator that does not kill 1 violates the unit law
    bad = operator(qxy, lambda ab: [(ab, F(1))])
    act = ModuleAlgebraAction(
        sl2,
        qxy,
        {
            "e": bad,
            "f": QMatrix([zero_vec(qxy.dim)] * qxy.dim),
            "h": QMatrix([zero_vec(qxy.dim)] * qxy.dim),
        },
    )
    rep = verify_module_algebra(act)
    assert any(l.check == "unit-law" and l.subject == "e" for l in rep.failures())


def test_module_algebra_product_law_failure_lines(sl2, qxy, sl2_action):
    # e = x*y*d^2/dy^2 kills 1 but is no derivation: e(y*y) = 2xy, e(y) = 0
    bad_e = operator(
        qxy,
        lambda ab: [((ab[0] + 1, ab[1] - 1), F(ab[1] * (ab[1] - 1)))] if ab[1] >= 2 else [],
    )
    act = ModuleAlgebraAction(sl2, qxy, {**sl2_action.gen_ops, "e": bad_e})
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
    act = ModuleAlgebraAction(sl2, qxy, {**sl2_action.gen_ops, "e": raising_e})
    lines = {
        (l.check, l.subject): (l.status, l.detail)
        for l in verify_module_algebra(act).lines
    }
    assert lines["product-law", "e"] == ("PASS", "checked 355, skipped 1670")
    assert lines["product-law", "f"] == ("PASS", "checked 495, skipped 1530")
    failing = [key for key, (status, _) in lines.items() if status == "FAIL"]
    assert failing == [("relation-compatibility", "f,e"), ("relation-compatibility", "h,e")]


@pytest.mark.parametrize(
    "action_name, host_name",
    [("sl2_qxy_ix", "sl2"), ("dq_qx_ix", "dq"), ("xyw_qu", "xyw")],
)
def test_act_matches_dense_oracle(host_at, action_name, host_name):
    """The operator columns and act against the product of dense generator powers,
    each divided by k!, in generator order, for every index up to degree 6."""
    sympy = pytest.importorskip("sympy")
    host = host_at(host_name, 6)
    spec = load_fixture(f"actions/{action_name}.json")
    algebra = cli._algebra_from_json(spec["algebra"])
    ops = {
        gid: cli._operator_matrix(algebra, op)
        for gid, op in spec["generators"].items()
    }
    action = ModuleAlgebraAction(host, algebra, ops)

    def dense(op):
        return sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in op.rows]
        )

    n = algebra.dim
    powers = {}
    for gid, op in ops.items():
        g = dense(op)
        powers[gid, 0] = sympy.eye(n)
        for k in range(1, 7):
            powers[gid, k] = powers[gid, k - 1] * g / k
    assert host.gens.degree(host.indices[-1]) == 6
    for m in host.indices:
        oracle = sympy.eye(n)
        for gid, _ in host.gens.generators:
            oracle = oracle * powers[gid, m.mult(gid)]
        expected = [[F(int(x.p), int(x.q)) for x in row] for row in oracle.tolist()]
        columns = [to_dense(col, n) for col in action.columns(m)]
        assert [list(row) for row in zip(*columns)] == expected
        for c in range(n):
            assert list(action.act(m, unit_vec(n, c))) == [row[c] for row in expected]


def test_act_divided_derivative(dq_action):
    A = dq_action.algebra
    for n in range(6):
        for k in range(5):
            img = dq_action.act(mi(d=k), unit_vec(A.dim, A.index[(n,)]))
            expected = zero_vec(A.dim)
            if n >= k:
                expected = tuple(
                    F(comb(n, k)) if i == A.index[(n - k,)] else F(0)
                    for i in range(A.dim)
                )
            assert img == expected


def test_act_sl2_example(sl2_action, qxy):
    img = sl2_action.act(mi(e=1), unit_vec(qxy.dim, qxy.index[(0, 2)]))
    assert qxy.format(img) == "2*x*y"
    assert sl2_action.act(ZERO_INDEX, unit_vec(qxy.dim, 5)) == unit_vec(qxy.dim, 5)


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
    ideal = MonomialIdeal(A, [(1,)])
    ring = quotient_ring(ideal)
    r = conv_map(dq_action, ring, unit_vec(A.dim, A.index[(1,)]))
    assert r.value(ZERO_INDEX) == ring.zero()
    assert not ring.is_zero(r.value(mi(d=1)))
    one = conv_map(dq_action, ring, A.unit_vector())
    assert one.support() == [ZERO_INDEX]
    assert u_star(one) == ring.project(A.unit_vector())


def test_conv_map_kills_stable_ideal(sl2_action, qxy):
    # (x, y) is stable under degree-preserving operators
    ideal = MonomialIdeal(qxy, [(1, 0), (0, 1)])
    ring = quotient_ring(ideal)
    r = conv_map(sl2_action, ring, unit_vec(qxy.dim, qxy.index[(2, 1)]))
    assert r.is_zero


def test_conv_map_is_algebra_map(sl2_action, qxy, ideal_x):
    ring = quotient_ring(ideal_x)
    rng = random.Random(53)
    low = [i for i in range(qxy.dim) if qxy.degrees[i] <= 2]
    for _ in range(10):
        a = zero_vec(qxy.dim)
        b = zero_vec(qxy.dim)
        for i in rng.sample(low, 3):
            a = tuple(x + F(rng.randint(-2, 2)) * y for x, y in zip(a, unit_vec(qxy.dim, i)))
        for i in rng.sample(low, 3):
            b = tuple(x + F(rng.randint(-2, 2)) * y for x, y in zip(b, unit_vec(qxy.dim, i)))
        left = conv_map(sl2_action, ring, qxy.mul(a, b))
        right = convolve(conv_map(sl2_action, ring, a), conv_map(sl2_action, ring, b))
        assert left == right
        assert u_star(conv_map(sl2_action, ring, a)) == ring.project(a)


# -- cores --------------------------------------------------------------------------


def test_hcore_trivial_ideals(sl2_action, qxy):
    zero = MonomialIdeal(qxy, [])
    unit = MonomialIdeal(qxy, [(0, 0)])
    assert hcore(sl2_action, zero, 4, 4).core.dim == 0
    full = hcore(sl2_action, unit, 4, 4).core
    assert full.dim == sum(1 for d in qxy.degrees if d <= 4)


def test_hcore_stable_ideal_is_its_own_core(sl2_action, qxy):
    ideal = MonomialIdeal(qxy, [(1, 0), (0, 1)])
    result = hcore(sl2_action, ideal, 4, 4)
    expected = Subspace.from_vectors(
        [
            unit_vec(qxy.dim, i)
            for i in range(qxy.dim)
            if 1 <= qxy.degrees[i] <= 4
        ],
        qxy.dim,
    )
    assert result.core == expected
    assert result.stabilized


def test_hcore_sl2_chain(sl2_action, ideal_x, qxy):
    result = hcore(sl2_action, ideal_x, 4, 4)
    # hand count: (x^(k+1)) cap degrees<=4 has dims 10, 6, 3; then the single
    # monomial x^4 survives order-3 operators, and nothing survives order 4
    assert result.dims == (10, 6, 3, 1, 0)
    assert result.core.dim == 0
    assert [qxy.format(r) for r in result.by_cap[3].basis] == ["x^4"]
    assert result.stabilized_at is None


def test_hcore_oracle_intersection(sl2_action, ideal_x, qxy):
    # independent route: intersect the kernels of the per-index conditions
    from hopfcore.linalg import QMatrix as QM

    host = sl2_action.host
    cols = [i for i in range(qxy.dim) if qxy.degrees[i] <= 3]
    current = Subspace.full(len(cols))
    for m in host.indices:
        if host.gens.degree(m) > 3:
            continue
        columns = sl2_action.columns(m)
        rows = []
        for pos in range(ideal_x.quotient_dim):
            row = []
            for c in cols:
                row.append(ideal_x.quotient_coords(to_dense(columns[c], qxy.dim))[pos])
            rows.append(row)
        single = QM(rows, len(cols)).kernel()
        # intersection via stacking both quotient condition sets
        qa, qb = current.quotient_unit_sparse(), single.quotient_unit_sparse()
        cond = {}
        for tag, q in (("a", qa), ("b", qb)):
            for j in range(len(cols)):
                for k, c in q[j].items():
                    cond.setdefault((tag, k), [F(0)] * len(cols))[j] += c
        current = QM([cond[k] for k in sorted(cond)], len(cols)).kernel()
    result = hcore(sl2_action, ideal_x, 3, 3)
    embedded = Subspace.from_vectors(
        [
            [row[cols.index(i)] if i in cols else F(0) for i in range(qxy.dim)]
            for row in current.basis
        ],
        qxy.dim,
    )
    assert embedded == result.core


def test_hcore_small_cap_stabilizes(sl2_action, qxy, ideal_x):
    result = hcore(sl2_action, ideal_x, 2, 4)
    assert result.dims == (3, 1, 0, 0, 0)
    assert result.stabilized
    assert result.stabilized_at == 3


def test_hcore_monotone(dq_action):
    A = dq_action.algebra
    ideal = MonomialIdeal(A, [(1,)])
    result = hcore(dq_action, ideal, 4, 4)
    assert result.dims == (4, 3, 2, 1, 0)
    for small, large in zip(result.by_cap[1:], result.by_cap):
        assert large.contains_subspace(small)


def test_core_inside_ideal(sl2_action, qxy, ideal_x, dq_action):
    # the zero-index condition alone forces the core into the ideal
    core = hcore(sl2_action, ideal_x, 3, 2).core
    for row in core.basis:
        assert ideal_x.contains(row)
    A = dq_action.algebra
    ideal = MonomialIdeal(A, [(1,)])
    for row in hcore(dq_action, ideal, 4, 1).core.basis:
        assert ideal.contains(row)


def test_core_is_ideal(sl2_action, qxy, ideal_x):
    # images of core elements under low-degree multiplications stay in the
    # degree-3 truncated core conditions
    core3 = hcore(sl2_action, ideal_x, 3, 3).core
    host = sl2_action.host
    for row in core3.basis:
        for i in range(qxy.dim):
            if qxy.degrees[i] > 1:
                continue
            prod = qxy.mul(unit_vec(qxy.dim, i), row)
            for m in host.indices:
                if host.gens.degree(m) > 3:
                    continue
                assert ideal_x.contains(sl2_action.act(m, prod))


# -- probes -------------------------------------------------------------------------


def test_domain_probe_sl2(sl2_action, ideal_x):
    ring = quotient_ring(ideal_x)
    core = hcore(sl2_action, ideal_x, 4, 4).core
    rep = core_primeness_probe(sl2_action, ideal_x, ring, core, "domain", 3)
    assert rep.passed
    assert rep.counts["PASS"] > 0


def test_domain_probe_dq(dq_action):
    A = dq_action.algebra
    ideal = MonomialIdeal(A, [(1,)])
    ring = quotient_ring(ideal)
    core = hcore(dq_action, ideal, 4, 4).core
    assert core.dim == 0
    rep = core_primeness_probe(dq_action, ideal, ring, core, "domain", 3)
    assert rep.passed


def test_prime_and_semiprime_probes(sl2_action, ideal_x):
    ring = quotient_ring(ideal_x)
    core = hcore(sl2_action, ideal_x, 4, 4).core
    assert core_primeness_probe(sl2_action, ideal_x, ring, core, "prime", 2).passed
    assert core_primeness_probe(sl2_action, ideal_x, ring, core, "semiprime", 2).passed


def test_degenerate_ideal_skipped(sl2_action, qxy):
    unit = MonomialIdeal(qxy, [(0, 0)])
    ring = quotient_ring(unit)
    rep = core_primeness_probe(
        sl2_action, unit, ring, Subspace.full(qxy.dim), "domain", 2
    )
    assert rep.lines[0].status == "SKIP"
    assert "DegenerateIdeal" in rep.lines[0].detail
