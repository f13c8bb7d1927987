"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
measured times.  Every tolerance (exact equalities, trial counts, wall-clock
budgets) is pinned here.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F
from math import factorial

import pytest

from hopfcore.cli import main
from hopfcore.coalgebra import (
    build_grouplike,
    build_ueg,
    build_xyw,
    check_primitivity_defects,
    check_connected,
    coradical_filtration,
)
from hopfcore.convolution import (
    builtin_ring,
    check_leading_law,
    convolve,
    counit_pullback,
    leading,
    prime_witness,
    random_conv_element,
    semiprime_witness,
)
from hopfcore.action import (
    ModuleAlgebraAction,
    MonomialIdeal,
    PrincipalIdeal,
    core_primeness_probe,
    hcore,
    quotient_ring,
)
from hopfcore.errors import NoWitnessFound, TruncationError
from hopfcore.linalg import QMatrix, Subspace, unit_vec
from hopfcore.monoid import EQUAL, GREATER, LESS, GeneratorSet, MultiIndex, ZERO_INDEX
from hopfcore.pbw import PBWStructure
from hopfcore.table import PolynomialAlgebra
from conftest import FIXTURES, HEIS_BRACKETS, SL2_BRACKETS


@contextmanager
def criterion(tag: str, label: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nFAIL criterion {tag}: {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"\nPASS criterion {tag}: {label} ({elapsed:.2f}s, budget {budget}s)")
    assert elapsed < budget, f"criterion {tag} exceeded its {budget}s budget"


def _fresh_heis():
    return PBWStructure.from_bialgebra(build_ueg(["x", "y", "z"], HEIS_BRACKETS, 4))


def _fresh_sl2():
    return PBWStructure.from_bialgebra(build_ueg(["e", "f", "h"], SL2_BRACKETS, 4))


def _sl2_operators(algebra):
    def operator(image_of_monomial):
        cols = []
        for exps in algebra.monomials:
            img = [F(0)] * algebra.dim
            for target, coeff in image_of_monomial(exps):
                if coeff:
                    img[algebra.index[target]] += coeff
            cols.append(tuple(img))
        return QMatrix.from_columns(cols)

    e = operator(lambda ab: [((ab[0] + 1, ab[1] - 1), F(ab[1]))] if ab[1] else [])
    f = operator(lambda ab: [((ab[0] - 1, ab[1] + 1), F(ab[0]))] if ab[0] else [])
    h = operator(lambda ab: [(ab, F(ab[0] - ab[1]))])
    return {"e": e, "f": f, "h": h}


# -- criterion 1: order laws -----------------------------------------------------


def test_acceptance_1_order_laws():
    gens = GeneratorSet(
        [("a", 1), ("b", 1), ("c", 1), ("p", 2), ("q", 2), ("r", 3)]
    )
    rng = random.Random(0)

    def rand_index():
        return gens.index(
            {gid: rng.randint(0, 3) for gid, _ in gens.generators}
        )

    with criterion("1", "order laws on 10,000 random pairs/triples", 5.0):
        for _ in range(10_000):
            m, n, r = rand_index(), rand_index(), rand_index()
            c = gens.compare(m, n)
            assert c in (LESS, EQUAL, GREATER)
            assert c == -gens.compare(n, m)
            assert (c == EQUAL) == (m == n)
            if c != GREATER and gens.compare(n, r) != GREATER:
                assert gens.compare(m, r) != GREATER
            assert gens.compare(gens.add(m, r), gens.add(n, r)) == c

        # random strictly descending chains terminate within the enumeration
        for _ in range(25):
            current = gens.index(
                {gid: rng.randint(0, 1) for gid, _ in gens.generators}
            )
            pool = gens.enumerate_up_to(gens.degree(current))
            steps = 0
            while True:
                smaller = [p for p in pool if gens.compare(p, current) == LESS]
                if not smaller:
                    break
                current = smaller[rng.randrange(len(smaller))]
                steps += 1
                assert steps <= len(pool)
            assert current == ZERO_INDEX


# -- criterion 2: coradical pipeline -----------------------------------------------


def test_acceptance_2_coradical_pipeline():
    with criterion("2", "Heisenberg layer dims and group-like rejection", 10.0):
        data = build_ueg(["x", "y", "z"], HEIS_BRACKETS, 4)
        filt = coradical_filtration(data)
        assert filt.dims == (1, 4, 10, 20, 35)
        assert check_connected(build_grouplike()) is False


# -- criterion 3: ordered divided-power bases ----------------------------------------


def test_acceptance_3_pbw_bases():
    with criterion("3", "bases at every degree plus 500 product defects", 60.0):
        structures = [
            _fresh_heis(),
            _fresh_sl2(),
            PBWStructure.from_bialgebra(build_xyw(4)),
        ]
        for p in structures:
            p.verify_all_bases()
            for n in range(p.data.degree_bound + 1):
                assert p.basis_change[n].nrows == p.filt.layers[n].dim

        rng = random.Random(1)
        counts = [170, 165, 165]
        for p, count in zip(structures, counts):
            bound = p.data.degree_bound
            for _ in range(count):
                n = p.indices[rng.randrange(len(p.indices))]
                room = bound - p.gens.degree(n)
                choices = [m for m in p.indices if p.gens.degree(m) <= room]
                m = choices[rng.randrange(len(choices))]
                c, defect = p.structure_constant(n, m)
                # multinomial value, recomputed from scratch
                expected = F(1)
                for gid in set(n.support) | set(m.support):
                    a, b = n.mult(gid), m.mult(gid)
                    expected *= F(factorial(a + b), factorial(a) * factorial(b))
                assert c == expected
                # defect expands strictly below the sum degree
                total = p.gens.add(n, m)
                for i, coeff in p.pbw_coords(defect).items():
                    assert coeff and p.gens.degree(i) < p.gens.degree(total)


# -- criterion 4: primitivity defects and expansion shape -----------------------------


def test_acceptance_4_membership_and_expansion():
    with criterion("4", "membership checks on every element and index", 60.0):
        structures = [
            _fresh_heis(),
            _fresh_sl2(),
            PBWStructure.from_bialgebra(build_xyw(4)),
        ]
        for p in structures:
            assert check_primitivity_defects(p.data, p.filt, p.split).passed
            assert p.check_all_split_expansions().passed

        xyw = structures[2]
        dw = MultiIndex.make({"w": 1})
        cross = xyw.gens.add(
            MultiIndex.make({"x": 1}), MultiIndex.make({"y": 1})
        )
        assert xyw.gens.compare(cross, dw) == LESS
        terms = xyw.expand_comult(dw)
        assert (MultiIndex.make({"x": 1}), MultiIndex.make({"y": 1}), F(1)) in terms


# -- criterion 5: leading-term law over all rings --------------------------------------


def test_acceptance_5_leading_law_trials():
    with criterion("5", "1,000 leading-term trials per ring, none inconclusive", 120.0):
        host = _fresh_heis()
        cap = host.data.degree_bound // 2
        for name in ("q", "m2q", "qxq", "qx2"):
            ring = builtin_ring(name)
            rng = random.Random(5)
            inconclusive = 0
            for _ in range(1000):
                f = random_conv_element(host, ring, rng, cap)
                g = random_conv_element(host, ring, rng, cap)
                try:
                    assert check_leading_law(f, g).passed
                except TruncationError:
                    inconclusive += 1
            assert inconclusive == 0, name


# -- criterion 6: witness procedure ----------------------------------------------------


def test_acceptance_6_witnesses():
    with criterion("6", "witnesses over all four coefficient rings", 60.0):
        host = _fresh_heis()
        cap = host.data.degree_bound // 2

        m2 = builtin_ring("m2q")
        rng = random.Random(6)
        for _ in range(100):
            s = random_conv_element(host, m2, rng, cap)
            t = random_conv_element(host, m2, rng, cap)
            w = prime_witness(s, t)
            expected = m2.mul(m2.mul(leading(s).value, w.r), leading(t).value)
            total = host.gens.add(leading(s).index, leading(t).index)
            assert w.proof.index == total and w.proof.value == expected

        q = builtin_ring("q")
        rng = random.Random(7)
        for _ in range(200):
            f = random_conv_element(host, q, rng, cap)
            g = random_conv_element(host, q, rng, cap)
            assert not convolve(f, g).is_zero

        qxq = builtin_ring("qxq")
        rng = random.Random(8)
        for _ in range(100):
            s = random_conv_element(host, qxq, rng, cap)
            semiprime_witness(s)
        s = counit_pullback(host, qxq, qxq.basis_vec(0))
        t = counit_pullback(host, qxq, qxq.basis_vec(1))
        with pytest.raises(NoWitnessFound):
            prime_witness(s, t)

        qx2 = builtin_ring("qx2")
        u = counit_pullback(host, qx2, qx2.basis_vec(1))
        assert convolve(u, u).is_zero


# -- criterion 7: stable cores ----------------------------------------------------------


def _sl2_setup():
    host = _fresh_sl2()
    algebra = PolynomialAlgebra(["x", "y"], 8)
    act = ModuleAlgebraAction(host, algebra, _sl2_operators(algebra))
    ideal = PrincipalIdeal(algebra, unit_vec(algebra.dim, algebra.index[(1, 0)]))
    return host, algebra, act, ideal


def test_acceptance_7_hcore_and_probe():
    with criterion("7", "stable core of (x) under sl2 with probes", 120.0):
        host, algebra, act, ideal = _sl2_setup()

        chain = hcore(act, ideal, 4, 4)
        assert chain.core.dim == 0
        for small, large in zip(chain.by_cap[1:], chain.by_cap):
            assert large.contains_subspace(small)

        ring = quotient_ring(ideal)
        probe = core_primeness_probe(act, ideal, ring, chain.core, "domain", 3)
        assert probe.counts["FAIL"] == 0
        assert probe.counts["PASS"] > 0

        # stable and degenerate ideals reproduce themselves
        stable = MonomialIdeal(algebra, [(1, 0), (0, 1)])
        got = hcore(act, stable, 4, 4)
        expected = Subspace.from_vectors(
            [
                unit_vec(algebra.dim, i)
                for i in range(algebra.dim)
                if 1 <= algebra.degrees[i] <= 4
            ],
            algebra.dim,
        )
        assert got.core == expected and got.stabilized
        assert hcore(act, MonomialIdeal(algebra, []), 4, 4).core.dim == 0
        full = hcore(act, MonomialIdeal(algebra, [(0, 0)]), 4, 4).core
        assert full.dim == sum(1 for d in algebra.degrees if d <= 4)


def test_acceptance_7_hcore_zero_by_cap_three():
    """Pinned: when the truncated stable core of (x) under sl2 empties.

    e = x*d/dy, f = y*d/dx and h = x*d/dx - y*d/dy lower the x-degree of a
    monomial by at most one, and f^(j) sends x^a y^b to a nonzero multiple
    of x^(a-j) y^(b+j), so the cap-k core is (x^(k+1)) degree by degree.
    Hence the degree-<=3 core is zero by cap 3, while the degree-4 core at
    cap 3 is exactly span{x^4}: f^(4) = f^4/4! is the first operator to take
    x^4 out of (x), sending it to y^4.  An earlier version of this test
    expected the degree-4 core to be zero at cap 3; that was off by one cap,
    and this test pins the witness instead.
    """
    with criterion("7", "cap-3 core of (x) is span{x^4}, emptied by f^(4)", 60.0):
        host, algebra, act, ideal = _sl2_setup()
        x4 = unit_vec(algebra.dim, algebra.index[(4, 0)])
        y4 = unit_vec(algebra.dim, algebra.index[(0, 4)])

        assert hcore(act, ideal, 3, 3).core.dim == 0
        assert hcore(act, ideal, 4, 3).core == Subspace.from_vectors(
            [x4], algebra.dim
        )

        f4 = MultiIndex((("f", 4),))
        image = act.act(f4, x4)
        assert image == y4
        assert not ideal.contains(image)
        assert hcore(act, ideal, 4, 4).core.dim == 0


# -- criterion 8: determinism -------------------------------------------------------------


def test_acceptance_8_determinism(tmp_path):
    instances = FIXTURES / "instances"
    actions = FIXTURES / "actions"
    commands = [
        ["build", "--instance", str(instances / "heis.json"), "--seed", "11"],
        [
            "verify",
            "--instance", str(instances / "xyw.json"),
            "--trials", "30",
            "--seed", "11",
        ],
        [
            "conv",
            "--instance", str(instances / "heis.json"),
            "--ring", "m2q",
            "--trials", "30",
            "--seed", "11",
        ],
        [
            "hcore",
            "--instance", str(instances / "sl2.json"),
            "--action", str(actions / "sl2_qxy_ix.json"),
            "--probe-bound", "2",
            "--seed", "11",
        ],
    ]
    with criterion("8", "byte-identical reports for every command", 120.0):
        for i, argv in enumerate(commands):
            first = tmp_path / f"first_{i}.json"
            second = tmp_path / f"second_{i}.json"
            main([*argv, "--out", str(first)])
            main([*argv, "--out", str(second)])
            assert first.read_bytes() == second.read_bytes(), argv[0]
