import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcore.errors import ForeignGenerator
from hopfcore.monoid import GeneratorSet, MultiIndex, ZERO_INDEX
from conftest import EQUAL, GREATER, LESS, compare

AB = GeneratorSet([("a", 1), ("b", 1)])
MIXED = GeneratorSet([("x", 1), ("y", 1), ("w", 2)])
BIG = GeneratorSet(
    [("a", 1), ("b", 1), ("c", 1), ("p", 2), ("q", 2), ("r", 3)]
)


def idx(gens, **mults):
    return gens.index(mults)


def random_index(gens, rng, max_mult=3):
    return gens.index(
        {gid: rng.randint(0, max_mult) for gid, _ in gens.generators}
    )


def test_generator_set_validation():
    with pytest.raises(ValueError):
        GeneratorSet([("a", 0)])
    with pytest.raises(ValueError):
        GeneratorSet([("a", 2), ("b", 1)])
    with pytest.raises(ValueError):
        GeneratorSet([("a", 1), ("a", 1)])


def test_add_identity_and_examples():
    m = idx(AB, a=2, b=1)
    assert AB.add(ZERO_INDEX, m) == m
    assert AB.add(AB.delta("a"), AB.delta("a")) == idx(AB, a=2)
    assert AB.add(idx(AB, a=2, b=1), AB.delta("b")) == idx(AB, a=2, b=2)


def test_foreign_generator():
    with pytest.raises(ForeignGenerator):
        AB.add(MultiIndex.make({"zz": 1}), ZERO_INDEX)
    with pytest.raises(ForeignGenerator):
        AB.degree(MultiIndex.make({"zz": 1}))


def test_degree_examples():
    assert AB.degree(ZERO_INDEX) == 0
    assert MIXED.degree(MIXED.delta("w")) == 2
    two = GeneratorSet([("a", 1), ("b", 2)])
    assert two.degree(two.index({"a": 2, "b": 1})) == 4


def test_compare_degree_first():
    one = GeneratorSet([("s", 1), ("t", 2)])
    assert compare(one, one.delta("s"), one.delta("t")) == LESS
    m = idx(AB, a=1, b=1)
    assert compare(AB, m, m) == EQUAL


def test_compare_tiebreak_at_largest_difference():
    # 2a vs a+b: they differ at b where 0 < 1
    assert compare(AB, idx(AB, a=2), idx(AB, a=1, b=1)) == LESS
    # the degree-2 index on the degree-2 generator is the largest of its degree
    assert compare(MIXED, idx(MIXED, x=1, y=1), MIXED.delta("w")) == LESS
    assert compare(MIXED, idx(MIXED, x=2), idx(MIXED, x=1, y=1)) == LESS


def test_enumerate_up_to_examples():
    assert AB.enumerate_up_to(0) == [ZERO_INDEX]
    got = AB.enumerate_up_to(2)
    assert got == [
        ZERO_INDEX,
        idx(AB, a=1),
        idx(AB, b=1),
        idx(AB, a=2),
        idx(AB, a=1, b=1),
        idx(AB, b=2),
    ]
    mixed = MIXED.enumerate_up_to(2)
    assert len(mixed) == 7
    assert mixed[-1] == MIXED.delta("w")


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
            BIG.index(dict(zip(BIG.ids, mults)))
            for mults in itertools.product(*(range(l + 1) for l in limit))
        ]
        brute = [m for m in brute if BIG.degree(m) <= d]
        assert BIG.enumerate_up_to(d) == sorted(brute, key=key)


def test_splittings():
    m = idx(AB, a=2, b=1)
    pairs = AB.splittings(m)
    assert len(pairs) == 6
    for left, right in pairs:
        assert AB.add(left, right) == m


@st.composite
def big_index(draw):
    return BIG.index(
        {
            gid: draw(st.integers(min_value=0, max_value=3))
            for gid, _ in BIG.generators
        }
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
    assert compare(BIG, m, n) == compare(BIG, BIG.add(m, r), BIG.add(n, r))


def test_descending_chains_terminate():
    rng = random.Random(5)
    for _ in range(50):
        current = random_index(BIG, rng, max_mult=1)
        pool = BIG.enumerate_up_to(BIG.degree(current))
        bound = len(pool)
        steps = 0
        while True:
            smaller = [p for p in pool if compare(BIG, p, current) == LESS]
            if not smaller:
                break
            current = smaller[rng.randrange(len(smaller))]
            steps += 1
            assert steps <= bound
        assert current == ZERO_INDEX


def test_json_roundtrip():
    again = GeneratorSet.from_json(MIXED.to_json())
    assert again == MIXED
