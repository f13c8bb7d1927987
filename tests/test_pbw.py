import random
from fractions import Fraction as F
from math import factorial

import pytest

from hopfcore.coalgebra import FilteredBialgebraData, build_ueg
from hopfcore.errors import NotPolynomial, ExpansionViolation, TruncationError
from hopfcore.linalg import Q1, rank, unit_vec, zero_vec
from hopfcore.monoid import MultiIndex, ZERO_INDEX
from hopfcore.pbw import PBWStructure, extract_generators
from conftest import SL2_BRACKETS, load_fixture


def mi(**kw):
    return MultiIndex.make(kw)


# -- generator extraction -----------------------------------------------------


def test_extract_generators_heis(heis):
    assert heis.gens.generators == (("x", 1), ("y", 1), ("z", 1))


def test_extract_generators_xyw(xyw):
    assert xyw.gens.generators == (("x", 1), ("y", 1), ("w", 2))


def test_extract_generators_line(qt):
    assert qt.gens.generators == (("t", 1),)


def test_extract_rejects_non_polynomial_counts():
    # a graded line with a truncated square: the degree-2 level is missing,
    # so monomial counting cannot match
    data = FilteredBialgebraData(
        basis_labels=("1", "t"),
        degree_bound=2,
        mult={
            (0, 0): [(0, Q1)],
            (0, 1): [(1, Q1)],
            (1, 0): [(1, Q1)],
            (1, 1): [],
        },
        comult=[[(0, 0, Q1)], [(0, 1, Q1), (1, 0, Q1)]],
        counit=(Q1, F(0)),
        unit_index=0,
        filtration_hint=(0, 1),
    )
    with pytest.raises(NotPolynomial):
        extract_generators(data)


def test_lifts_are_canonical(heis, xyw):
    for p in (heis, xyw):
        for gid, d in p.gens.generators:
            lift = p.lifts[gid]
            assert p.filt.layer_of(lift) == d
            assert p.data.counit_of(lift) == 0


# -- monomials -----------------------------------------------------------------


def test_monomial_zero_index(heis):
    assert heis.pbw_monomial(ZERO_INDEX) == heis.data.unit_vector()


def test_monomial_divided_power(qt):
    v = qt.pbw_monomial(mi(t=3))
    assert v == unit_vec(qt.data.dim, qt.data.position("t^(3)"))


def test_monomial_order_and_straightening(sl2):
    # increasing order e < f: the ordered product is the basis monomial itself
    v = sl2.pbw_monomial(mi(e=1, f=1))
    assert v == unit_vec(sl2.data.dim, sl2.data.position("e*f"))


def test_monomial_truncation(heis):
    with pytest.raises(TruncationError):
        heis.pbw_monomial(mi(x=5))


# -- basis ---------------------------------------------------------------------


def test_verify_basis_all_instances(heis, sl2, xyw, qt):
    for p, dims in (
        (heis, [1, 4, 10, 20, 35]),
        (sl2, [1, 4, 10, 20, 35]),
        (xyw, [1, 3, 7, 13, 22]),
        (qt, [1, 2, 3, 4]),
    ):
        p.verify_all_bases()
        got = [
            rank([p.sparse_monomial(m) for m in p.indices[: p.count_up_to(n)]], p.data.dim)
            for n in range(p.data.degree_bound + 1)
        ]
        assert got == dims


def test_basis_change_identity_for_line(qt):
    qt.verify_all_bases()
    for i, m in enumerate(qt.indices):
        assert qt.pbw_monomial(m) == unit_vec(qt.data.dim, i)


def test_pbw_coords_roundtrip(heis):
    rng = random.Random(3)
    for _ in range(10):
        coeffs = {
            m: F(rng.randint(-3, 3))
            for m in rng.sample(heis.indices, 4)
        }
        v = zero_vec(heis.data.dim)
        for m, c in coeffs.items():
            v = tuple(x + c * y for x, y in zip(v, heis.pbw_monomial(m)))
        got = heis.pbw_coords(v)
        assert got == {m: c for m, c in coeffs.items() if c}


# -- structure constants ----------------------------------------------------------


def test_structure_constant_multinomial(qt):
    qt5 = PBWStructure.from_bialgebra(build_ueg(["t"], {}, 5))
    c, defect = qt5.structure_constant(mi(t=2), mi(t=3))
    assert c == F(factorial(5), factorial(2) * factorial(3)) == 10
    assert all(x == 0 for x in defect)


def test_structure_constant_zero_index(heis):
    c, defect = heis.structure_constant(ZERO_INDEX, mi(x=1, y=1))
    assert c == 1
    assert all(x == 0 for x in defect)


def test_structure_constant_truncation(heis):
    with pytest.raises(TruncationError):
        heis.structure_constant(mi(x=3), mi(y=3))


def test_structure_constant_sl2_defect(sl2):
    # f*e = e*f - h: ordered monomial plus a strictly lower defect
    c, defect = sl2.structure_constant(mi(f=1), mi(e=1))
    assert c == 1
    expansion = sl2.pbw_coords(defect)
    assert expansion == {mi(h=1): F(-1)}
    assert sl2.filt.layers[1].contains(defect)


def test_structure_constants_random(heis, sl2, xyw):
    rng = random.Random(17)
    for p in (heis, sl2, xyw):
        candidates = [m for m in p.indices if p.gens.degree(m) <= 2]
        for _ in range(25):
            n = candidates[rng.randrange(len(candidates))]
            m = candidates[rng.randrange(len(candidates))]
            c, defect = p.structure_constant(n, m)
            # independent route: the expansion coefficient at the sum index
            prod = p.data.multiply(p.pbw_monomial(n), p.pbw_monomial(m))
            coords = p.pbw_coords(prod)
            total = p.gens.add(n, m)
            assert coords.get(total, F(0)) == c
            for i in coords:
                if i != total:
                    assert p.gens.degree(i) < p.gens.degree(total)


# -- comultiplication expansion -----------------------------------------------------


def test_expand_comult_zero(heis):
    assert heis.expand_comult(ZERO_INDEX) == [(ZERO_INDEX, ZERO_INDEX, Q1)]


def test_expand_comult_line(qt):
    got = qt.expand_comult(mi(t=2))
    assert got == [
        (ZERO_INDEX, mi(t=2), Q1),
        (mi(t=1), mi(t=1), Q1),
        (mi(t=2), ZERO_INDEX, Q1),
    ]


def test_expand_comult_xyw_cross_term(xyw):
    got = xyw.expand_comult(mi(w=1))
    assert (mi(x=1), mi(y=1), Q1) in got
    assert (ZERO_INDEX, mi(w=1), Q1) in got
    assert (mi(w=1), ZERO_INDEX, Q1) in got
    assert len(got) == 3
    # the cross term is strictly below the split index: they differ at w
    assert xyw.gens.lt(xyw.gens.add(mi(x=1), mi(y=1)), mi(w=1))


def test_unit_coefficients(heis):
    for m in heis.indices:
        terms = {(i, j): c for i, j, c in heis.expand_comult(m)}
        assert terms[(ZERO_INDEX, m)] == 1
        assert terms[(m, ZERO_INDEX)] == 1


def test_split_expansion_all_indices(heis, sl2, xyw, qt):
    for p in (heis, sl2, xyw, qt):
        assert p.check_all_split_expansions().passed


def test_expansion_violation_on_corrupted_tables():
    from hopfcore.coalgebra import instance_from_json

    data = instance_from_json(load_fixture("instances/xyw_corrupt.json"))
    p = PBWStructure.from_bialgebra(data)
    with pytest.raises(ExpansionViolation):
        for m in p.indices:
            p.check_split_expansion(m)


def test_span_closure(heis, xyw):
    rng = random.Random(23)
    assert heis.check_span_closure(rng, 30).passed
    assert xyw.check_span_closure(rng, 30).passed


def test_reordered_generators_same_verdicts():
    # permuting the order within a degree class changes the basis but not
    # one pass/fail outcome
    p = PBWStructure.from_bialgebra(
        build_ueg(["f", "e", "h"], SL2_BRACKETS, 3)
    )
    assert p.gens.ids == ("f", "e", "h")
    p.verify_all_bases()
    assert p.check_all_split_expansions().passed
    rng = random.Random(1)
    assert p.check_span_closure(rng, 20).passed
