"""The enveloping-algebra builder against an independent Fraction model.

``fraction_ueg_tables`` works on words in the generators: it rewrites every
product of monomials with ``straighten`` (x_j x_i = x_i x_j + [x_j, x_i]
for j > i) and adds ``c * Fraction(1, divfact(ei) * divfact(ej)) *
divfact(e)`` to its product entry, and ``sign * c * Fraction(1, divfact(e))
* divfact(ew)`` to its antipode entry.  The builder instead recurses on the
divided powers and divides once per entry; with the model's values read
by ``rat`` (an integral value as ``int``, any other as ``Rational``) both
must hold the same values with the same scalar types.
"""

import itertools
from fractions import Fraction
from math import factorial

import pytest

from hopfcore.coalgebra import build_ueg
from hopfcore.linalg import Q0, Q1, Rational, rat
from hopfcore.table import graded_monomials
from conftest import HEIS_BRACKETS, SL2_BRACKETS

HALF_BRACKETS = {
    "h": {"e": {"e": "1/2"}, "f": {"f": "-1/2"}},
    "e": {"f": {"h": "1/2"}},
}
THIRD_BRACKETS = {"x": {"y": {"z": "1/3"}}}
# so(3): [b, c] = a lands below both of its factors in the generator order;
# n4: [a, b] = c and [a, c] = d, so brackets nest; gl2: sl2 with a central
# generator z
SO3_BRACKETS = {"a": {"b": {"c": "1"}}, "b": {"c": {"a": "1"}}, "c": {"a": {"b": "1"}}}
N4_BRACKETS = {"a": {"b": {"c": "1"}, "c": {"d": "1"}}}
RATIONAL = {"sl2-half", "heis-third"}
CASES = {
    "sl2": (["e", "f", "h"], SL2_BRACKETS),
    "heis": (["x", "y", "z"], HEIS_BRACKETS),
    "dq": (["d"], {}),
    "sl2-half": (["e", "f", "h"], HALF_BRACKETS),
    "heis-third": (["x", "y", "z"], THIRD_BRACKETS),
    "so3": (["a", "b", "c"], SO3_BRACKETS),
    "n4": (["a", "b", "c", "d"], N4_BRACKETS),
    "gl2": (["e", "f", "h", "z"], SL2_BRACKETS),
}


def straighten(word, bracket, memo):
    """A word in the generators as a combination of nondecreasing words."""
    if all(word[t] <= word[t + 1] for t in range(len(word) - 1)):
        return {word: Q1}
    if word in memo:
        return memo[word]
    p = next(t for t in range(len(word) - 1) if word[t] > word[t + 1])
    head, a, b, tail = word[:p], word[p], word[p + 1], word[p + 2 :]
    out = {}
    for w, c in straighten(head + (b, a) + tail, bracket, memo).items():
        out[w] = out.get(w, Q0) + c
    for k, ck in bracket.get((a, b), {}).items():
        for w, c in straighten(head + (k,) + tail, bracket, memo).items():
            out[w] = out.get(w, Q0) + c * ck
    memo[word] = out = {w: c for w, c in out.items() if c}
    return out


def fraction_ueg_tables(names, brackets, degree_bound):
    pos = {g: i for i, g in enumerate(names)}
    g = len(names)
    bracket = {}
    for a, row in brackets.items():
        for b, combo in row.items():
            entry = {pos[k]: Fraction(c) for k, c in combo.items() if Fraction(c)}
            bracket[(pos[a], pos[b])] = entry
            bracket[(pos[b], pos[a])] = {t: -c for t, c in entry.items()}
    monos, _ = graded_monomials(names, degree_bound, divided=True)
    index = {e: t for t, e in enumerate(monos)}

    def word_of(e):
        return tuple(itertools.chain.from_iterable((i,) * e[i] for i in range(g)))

    def exps_of(word):
        e = [0] * g
        for t in word:
            e[t] += 1
        return tuple(e)

    def divfact(e):
        out = 1
        for x in e:
            out *= factorial(x)
        return out

    memo = {}
    mult = {}
    for ti, ei in enumerate(monos):
        for tj, ej in enumerate(monos):
            if sum(ei) + sum(ej) > degree_bound:
                continue
            scale = Fraction(1, divfact(ei) * divfact(ej))
            entry = {}
            for w, c in straighten(word_of(ei) + word_of(ej), bracket, memo).items():
                e = exps_of(w)
                entry[index[e]] = entry.get(index[e], Q0) + c * scale * divfact(e)
            mult[(ti, tj)] = tuple((k, rat(c)) for k, c in sorted(entry.items()) if c)
    antipode = {}
    for t, e in enumerate(monos):
        sign = Q1 if sum(e) % 2 == 0 else -Q1
        scale = Fraction(1, divfact(e))
        entry = {}
        for w, c in straighten(tuple(reversed(word_of(e))), bracket, memo).items():
            ew = exps_of(w)
            entry[index[ew]] = entry.get(index[ew], Q0) + sign * c * scale * divfact(ew)
        antipode[t] = tuple((k, rat(c)) for k, c in sorted(entry.items()) if c)
    return mult, antipode


def typed(table):
    return {
        key: [(k, type(c), c) for k, c in terms] for key, terms in table.items()
    }


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("degree", range(1, 9))
def test_ueg_tables_match_fraction_builder(case, degree):
    names, brackets = CASES[case]
    data = build_ueg(names, brackets, degree)
    mult, antipode = fraction_ueg_tables(names, brackets, degree)
    assert typed(data.mult) == typed(mult)
    assert typed(data.antipode) == typed(antipode)
    if case in RATIONAL and degree >= 2:
        scalars = [c for terms in mult.values() for _, c in terms]
        assert any(type(c) is Rational for c in scalars)
