"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
measured times.  Every tolerance (exact equalities, trial counts, wall-clock
budgets) is pinned here.
"""

import json
import random
import time
from contextlib import contextmanager
from math import factorial

import pytest

from hopfcore.cli import main
from hopfcore.coalgebra import (
    build_ueg,
    build_xyw,
    check_primitivity_defects,
    coradical_filtration,
    instance_from_json,
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
    Ideal,
    core_primeness_probe,
    QuotientAlgebra,
    hcore,
)
from hopfcore.errors import NoWitnessFound, TruncationError
from hopfcore.linalg import Rational, Subspace, rank
from hopfcore.monoid import GeneratorSet, weighted_degree
from hopfcore.pbw import PBWStructure
from hopfcore.table import PolynomialAlgebra
from conftest import (
    EQUAL,
    FIXTURES,
    GREATER,
    HEIS_BRACKETS,
    LESS,
    SL2_BRACKETS,
    add,
    at,
    compare,
    front_end,
    load_fixture,
    rational_monomial,
    run_check,
)


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
            img = {}
            for target, coeff in image_of_monomial(exps):
                if coeff:
                    t = algebra.index[target]
                    img[t] = img.get(t, 0) + coeff
            cols.append({t: c for t, c in sorted(img.items()) if c})
        return cols

    e = operator(lambda ab: [((ab[0] + 1, ab[1] - 1), ab[1])] if ab[1] else [])
    f = operator(lambda ab: [((ab[0] - 1, ab[1] + 1), ab[0])] if ab[0] else [])
    h = operator(lambda ab: [(ab, ab[0] - ab[1])])
    return {"e": e, "f": f, "h": h}


# -- criterion 1: order laws -----------------------------------------------------


def test_acceptance_1_order_laws():
    gens = GeneratorSet(
        [("a", 1), ("b", 1), ("c", 1), ("p", 2), ("q", 2), ("r", 3)]
    )
    rng = random.Random(0)

    def rand_index():
        return tuple(rng.randint(0, 3) for _ in gens.generators)

    with criterion("1", "order laws on 10,000 random pairs/triples", 5.0):
        for _ in range(10_000):
            m, n, r = rand_index(), rand_index(), rand_index()
            c = compare(gens, m, n)
            assert c in (LESS, EQUAL, GREATER)
            assert c == -compare(gens, n, m)
            assert (c == EQUAL) == (m == n)
            if c != GREATER and compare(gens, n, r) != GREATER:
                assert compare(gens, m, r) != GREATER
            assert compare(gens, add(m, r), add(n, r)) == c

        # random strictly descending chains terminate within the enumeration
        for _ in range(25):
            current = tuple(rng.randint(0, 1) for _ in gens.generators)
            pool = gens.enumerate_up_to(weighted_degree(current, gens.weights))
            steps = 0
            while True:
                smaller = [p for p in pool if compare(gens, p, current) == LESS]
                if not smaller:
                    break
                current = smaller[rng.randrange(len(smaller))]
                steps += 1
                assert steps <= len(pool)
            assert current == (0,) * len(gens)


# -- criterion 2: coradical pipeline -----------------------------------------------


def test_acceptance_2_coradical_pipeline():
    with criterion("2", "Heisenberg layer dims and group-like rejection", 10.0):
        data = build_ueg(["x", "y", "z"], HEIS_BRACKETS, 4)
        filt = coradical_filtration(data)
        assert filt.dims == (1, 4, 10, 20, 35)
        grouplike = instance_from_json(load_fixture("instances/grouplike.json"))
        assert coradical_filtration(grouplike).exhaustive is False


# -- criterion 3: ordered divided-power bases ----------------------------------------


def test_acceptance_3_pbw_bases():
    with criterion("3", "bases at every degree plus 500 product defects", 60.0):
        structures = [
            _fresh_heis(),
            _fresh_sl2(),
            PBWStructure.from_bialgebra(build_xyw(4)),
        ]
        for p in structures:
            run_check(p.verify_all_bases)
            for n in range(p.data.degree_bound + 1):
                rows = [rational_monomial(p, q) for q in range(p.count_up_to(n))]
                assert rank(rows, p.data.dim) == p.filt.layers[n].dim

        rng = random.Random(1)
        counts = [170, 165, 165]
        for p, count in zip(structures, counts):
            bound = p.data.degree_bound
            for _ in range(count):
                pn = rng.randrange(len(p.indices))
                n = p.indices[pn]
                room = bound - weighted_degree(n, p.gens.weights)
                choices = [
                    q
                    for q, m in enumerate(p.indices)
                    if weighted_degree(m, p.gens.weights) <= room
                ]
                pm = choices[rng.randrange(len(choices))]
                m = p.indices[pm]
                c, defect = p.structure_constant(pn, pm)
                # multinomial value, recomputed from scratch
                expected = 1
                for a, b in zip(n, m):
                    expected *= Rational(factorial(a + b), factorial(a) * factorial(b))
                assert c == expected
                # defect expands strictly below the sum degree
                total = weighted_degree(add(n, m), p.gens.weights)
                for i, coeff in p.pbw_coords(defect).items():
                    assert coeff
                    assert weighted_degree(p.indices[i], p.gens.weights) < total


# -- criterion 4: primitivity defects and expansion shape -----------------------------


def test_acceptance_4_membership_and_expansion():
    with criterion("4", "membership checks on every element and index", 60.0):
        structures = [
            _fresh_heis(),
            _fresh_sl2(),
            PBWStructure.from_bialgebra(build_xyw(4)),
        ]
        for p in structures:
            assert run_check(check_primitivity_defects, p.data, front_end(p)[0]).passed
            for m in range(len(p.indices)):
                assert run_check(p.check_split_expansion, m).passed

        xyw = structures[2]
        cross = xyw.indices[at(xyw, x=1, y=1)]
        assert compare(xyw.gens, cross, xyw.indices[at(xyw, w=1)]) == LESS
        terms = xyw.expand_comult(at(xyw, w=1))
        assert (at(xyw, x=1), at(xyw, y=1), 1) in terms


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
            total = add(
                host.indices[leading(s).index], host.indices[leading(t).index]
            )
            assert host.indices[w.proof.index] == total and w.proof.value == expected

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
        s = counit_pullback(host, qxq, {0: 1})
        t = counit_pullback(host, qxq, {1: 1})
        with pytest.raises(NoWitnessFound):
            prime_witness(s, t)

        qx2 = builtin_ring("qx2")
        u = counit_pullback(host, qx2, {1: 1})
        assert convolve(u, u).is_zero


# -- criterion 7: stable cores ----------------------------------------------------------


def _sl2_setup():
    host = _fresh_sl2()
    algebra = PolynomialAlgebra(["x", "y"], 8)
    act = ModuleAlgebraAction(host, algebra, _sl2_operators(algebra))
    ideal = Ideal.principal(algebra, {algebra.index[(1, 0)]: 1})
    return host, algebra, act, ideal


def test_acceptance_7_hcore_and_probe():
    with criterion("7", "stable core of (x) under sl2 with probes", 120.0):
        host, algebra, act, ideal = _sl2_setup()

        chain = hcore(act, ideal, 4)
        assert chain.core.dim == 0
        for small, large in zip(chain.by_cap[1:], chain.by_cap):
            assert all(large.contains(row) for row in small.rows)

        ring = QuotientAlgebra(ideal)
        probe = run_check(core_primeness_probe, act, ring, "domain", 3)
        assert probe.counts["FAIL"] == 0
        assert probe.counts["PASS"] > 0

        # stable and degenerate ideals reproduce themselves
        stable = Ideal.monomial(algebra, [(1, 0), (0, 1)])
        got = hcore(act, stable, 4)
        expected = Subspace.from_sparse(
            [{i: 1} for i in range(algebra.dim) if 1 <= algebra.degrees[i] <= 4],
            algebra.dim,
        )
        assert got.core == expected and got.stabilized
        assert hcore(act, Ideal.monomial(algebra, []), 4).core.dim == 0
        full = hcore(act, Ideal.monomial(algebra, [(0, 0)]), 4).core
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
        x4 = {algebra.index[(4, 0)]: 1}
        y4 = {algebra.index[(0, 4)]: 1}

        assert hcore(act, ideal, 3).by_cap[3].dim == 0
        assert hcore(act, ideal, 4).by_cap[3] == Subspace.from_sparse(
            [x4], algebra.dim
        )

        image = act.act(at(host, f=4), x4)
        assert image == y4
        assert not ideal.contains(image)
        assert hcore(act, ideal, 4).core.dim == 0


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
