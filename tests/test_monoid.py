import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcore.monoid import GeneratorSet, splittings, weighted_degree
from hopfcore.table import graded_monomials
from conftest import EQUAL, GREATER, LESS, add, compare, exps

AB = GeneratorSet([("a", 1), ("b", 1)])
MIXED = GeneratorSet([("x", 1), ("y", 1), ("w", 2)])
BIG = GeneratorSet(
    [("a", 1), ("b", 1), ("c", 1), ("p", 2), ("q", 2), ("r", 3)]
)


def random_index(gens, rng, max_mult=3):
    return tuple(rng.randint(0, max_mult) for _ in gens.generators)


def test_generator_set_validation():
    with pytest.raises(ValueError):
        GeneratorSet([("a", 0)])
    with pytest.raises(ValueError):
        GeneratorSet([("a", 2), ("b", 1)])
    with pytest.raises(ValueError):
        GeneratorSet([("a", 1), ("a", 1)])


def test_degree_examples():
    assert weighted_degree((0, 0), AB.weights) == 0
    assert weighted_degree(exps(MIXED, w=1), MIXED.weights) == 2
    two = GeneratorSet([("a", 1), ("b", 2)])
    assert weighted_degree(exps(two, a=2, b=1), two.weights) == 4


def test_compare_degree_first():
    one = GeneratorSet([("s", 1), ("t", 2)])
    assert compare(one, exps(one, s=1), exps(one, t=1)) == LESS
    m = exps(AB, a=1, b=1)
    assert compare(AB, m, m) == EQUAL


def test_compare_tiebreak_at_largest_difference():
    # 2a vs a+b: they differ at b where 0 < 1
    assert compare(AB, exps(AB, a=2), exps(AB, a=1, b=1)) == LESS
    # the degree-2 index on the degree-2 generator is the largest of its degree
    assert compare(MIXED, exps(MIXED, x=1, y=1), exps(MIXED, w=1)) == LESS
    assert compare(MIXED, exps(MIXED, x=2), exps(MIXED, x=1, y=1)) == LESS


def test_enumerate_up_to_examples():
    assert AB.enumerate_up_to(0) == [(0, 0)]
    got = AB.enumerate_up_to(2)
    assert got == [
        (0, 0),
        exps(AB, a=1),
        exps(AB, b=1),
        exps(AB, a=2),
        exps(AB, a=1, b=1),
        exps(AB, b=2),
    ]
    mixed = MIXED.enumerate_up_to(2)
    assert len(mixed) == 7
    assert mixed[-1] == exps(MIXED, w=1)


def test_enumerate_counts_match_brute_force_and_series():
    for gens in (AB, MIXED, BIG):
        for d in range(5):
            listed = gens.enumerate_up_to(d)
            # brute force: all multiplicity tuples within the degree budget
            limit = [d // deg for _, deg in gens.generators]
            brute = 0
            for mults in itertools.product(*(range(l + 1) for l in limit)):
                deg = sum(
                    m * deg for m, (_, deg) in zip(mults, gens.generators)
                )
                brute += deg <= d
            assert len(listed) == brute == sum(gens.count_exact(t) for t in range(d + 1))
            assert len(set(listed)) == len(listed)


def test_enumerate_up_to_sorts_by_the_reference_order():
    """enumerate_up_to lists every index of degree <= d in the reference
    well-order, so positions in its list compare as the indices do."""
    key = functools.cmp_to_key(functools.partial(compare, BIG))
    for d in range(7):
        limit = [d // deg for _, deg in BIG.generators]
        brute = [
            m
            for m in itertools.product(*(range(l + 1) for l in limit))
            if weighted_degree(m, BIG.weights) <= d
        ]
        assert BIG.enumerate_up_to(d) == sorted(brute, key=key)


def test_splittings():
    m = exps(AB, a=2, b=1)
    pairs = splittings(m)
    assert len(pairs) == 6
    for left, right in pairs:
        assert add(left, right) == m
    # every pair of the alphabet's indices that sums to m, once each
    pool = AB.enumerate_up_to(3)
    brute = [(p, q) for p in pool for q in pool if add(p, q) == m]
    assert sorted(pairs) == sorted(brute)
    assert splittings((0, 0)) == [((0, 0), (0, 0))]


def test_labels_sort_factors_by_id():
    assert AB.label((0, 0)) == "1"
    assert AB.label(exps(AB, a=2, b=1)) == "a^2*b"
    # ids sort w < x < y, against the generator order x, y, w
    assert MIXED.label(exps(MIXED, x=1, w=1)) == "w*x"
    assert MIXED.label(exps(MIXED, x=2, y=1, w=3)) == "w^3*x^2*y"


def test_one_enumeration_in_two_orders():
    """The raw monomial basis of ``graded_monomials`` and the well-ordered
    indices are the same exponent vectors, sorted by degree and then by
    descending exponents or by multiplicities from the last generator
    down."""
    for gens in (AB, MIXED, BIG):
        for d in range(6):
            names = gens.ids
            raw, labels = graded_monomials(names, d, gens.weights)
            ordered = gens.enumerate_up_to(d)
            assert sorted(raw) == sorted(ordered)
            keys = [(weighted_degree(e, gens.weights), [-k for k in e]) for e in raw]
            assert keys == sorted(keys)
            assert len(set(labels)) == len(labels)


@st.composite
def big_index(draw):
    return tuple(
        draw(st.integers(min_value=0, max_value=3)) for _ in BIG.generators
    )


@settings(max_examples=200)
@given(big_index(), big_index())
def test_compare_total_and_antisymmetric(m, n):
    c = compare(BIG, m, n)
    assert c in (LESS, EQUAL, GREATER)
    assert c == -compare(BIG, n, m)
    assert (c == EQUAL) == (m == n)


@settings(max_examples=200)
@given(big_index(), big_index(), big_index())
def test_compare_transitive(m, n, r):
    if compare(BIG, m, n) != GREATER and compare(BIG, n, r) != GREATER:
        assert compare(BIG, m, r) != GREATER


@settings(max_examples=200)
@given(big_index(), big_index(), big_index())
def test_translation_invariance(m, n, r):
    assert compare(BIG, m, n) == compare(BIG, add(m, r), add(n, r))


def test_descending_chains_terminate():
    rng = random.Random(5)
    for _ in range(50):
        current = random_index(BIG, rng, max_mult=1)
        pool = BIG.enumerate_up_to(weighted_degree(current, BIG.weights))
        bound = len(pool)
        steps = 0
        while True:
            smaller = [p for p in pool if compare(BIG, p, current) == LESS]
            if not smaller:
                break
            current = smaller[rng.randrange(len(smaller))]
            steps += 1
            assert steps <= bound
        assert current == (0,) * len(BIG)
