import functools
import random
import subprocess
import sys
from fractions import Fraction as F
from math import factorial

import pytest

from hopfcore.coalgebra import CoradicalFiltration, FilteredBialgebraData, build_ueg
from hopfcore.errors import (
    BasisDefect, ExpansionViolation, HopfcoreError, TruncationError,
)
from hopfcore.linalg import Q1, dot, rank
from hopfcore.monoid import splittings, weighted_degree
from hopfcore.pbw import PBWStructure, extract_generators
from conftest import (
    HEIS_BRACKETS, LESS, SL2_BRACKETS, add, at, compare, dense_mul, dense_of, exps,
    front_end, load_fixture, rational_monomial, run_check, subprocess_env,
)


def named(p, terms):
    """expand_comult's terms on positions as (exponents, exponents, c)."""
    return [(p.indices[i], p.indices[j], c) for i, j, c in terms]


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
            (0, 0): ((0, Q1),),
            (0, 1): ((1, Q1),),
            (1, 0): ((1, Q1),),
            (1, 1): (),
        },
        comult=[((0, 0, Q1),), ((0, 1, Q1), (1, 0, Q1))],
        counit=(Q1, F(0)),
        unit_index=0,
        filtration_hint=(0, 1),
    )
    message = "degree 2: graded dimension 0 but 1 monomials in the extracted generators"
    with pytest.raises(HopfcoreError, match=f"^{message}$"):
        extract_generators(data)


def test_lifts_are_canonical(heis, xyw):
    for p in (heis, xyw):
        split, _, _ = front_end(p)
        for gid, d in p.gens.generators:
            lift = p.lifts[gid]
            assert split.max_degree(split.to_split(lift)) == d
            assert dot(p.data.counit, lift) == 0


# -- monomials -----------------------------------------------------------------


def test_monomial_zero_index(heis):
    assert heis.indices[0] == (0, 0, 0)
    assert rational_monomial(heis, 0) == {heis.data.unit_index: 1}


def test_monomial_divided_power(qt):
    v = rational_monomial(qt, at(qt, t=3))
    assert v == {qt.data.basis_labels.index("t^(3)"): 1}


def test_monomial_order_and_straightening(sl2):
    # increasing order e < f: the ordered product is the basis monomial itself
    v = rational_monomial(sl2, at(sl2, e=1, f=1))
    assert v == {sl2.data.basis_labels.index("e*f"): 1}


def test_monomial_truncation(heis):
    # x^5 lies past the bound: it has no position, and a position past the
    # last index names an index past the bound
    assert exps(heis.gens, x=5) not in heis.index_pos
    with pytest.raises(TruncationError):
        rational_monomial(heis, len(heis.indices))
    with pytest.raises(TruncationError):
        heis.expand_comult(len(heis.indices))


# -- basis ---------------------------------------------------------------------


def test_verify_basis_all_instances(heis, sl2, xyw, qt):
    for p, dims in (
        (heis, [1, 4, 10, 20, 35]),
        (sl2, [1, 4, 10, 20, 35]),
        (xyw, [1, 3, 7, 13, 22]),
        (qt, [1, 2, 3, 4]),
    ):
        run_check(p.verify_all_bases)
        got = [
            rank([rational_monomial(p, q) for q in range(p.count_up_to(n))], p.data.dim)
            for n in range(p.data.degree_bound + 1)
        ]
        assert got == dims


def fresh_heis():
    """The Heisenberg PBW structure at D2, built for one test to break."""
    return PBWStructure.from_bialgebra(build_ueg(["x", "y", "z"], HEIS_BRACKETS, 2))


def test_basis_count_mismatch_is_a_defect():
    p = fresh_heis()
    layers = p.filt.layers
    p.filt = CoradicalFiltration((layers[0], layers[0], layers[2]))
    with pytest.raises(BasisDefect) as exc:
        run_check(p.verify_all_bases)
    assert str(exc.value) == "degree 1: 4 monomials vs layer dimension 1"


def test_basis_monomial_escaping_its_layer_is_a_defect(monkeypatch):
    # e_x comes back as the vector of e_(x^2), which lies past layer 1
    p = fresh_heis()
    original, x_squared = p.integral_monomial, p.integral_monomial(4)
    monkeypatch.setattr(
        p, "integral_monomial", lambda q: x_squared if q == 1 else original(q)
    )
    with pytest.raises(BasisDefect) as exc:
        run_check(p.verify_all_bases)
    assert str(exc.value) == "degree 1: e_x escapes the layer"


def test_basis_dependent_monomials_are_a_defect(monkeypatch):
    # e_y comes back as e_x: every count and layer holds, the span does not
    p = fresh_heis()
    original, x = p.integral_monomial, p.integral_monomial(1)
    monkeypatch.setattr(p, "integral_monomial", lambda q: x if q == 2 else original(q))
    with pytest.raises(BasisDefect) as exc:
        run_check(p.verify_all_bases)
    assert str(exc.value) == "degree 1: monomials are dependent"


def test_basis_change_identity_for_line(qt):
    run_check(qt.verify_all_bases)
    for i in range(len(qt.indices)):
        assert rational_monomial(qt, i) == {i: 1}


def test_pbw_coords_roundtrip(heis):
    rng = random.Random(3)
    for _ in range(10):
        coeffs = {
            m: F(rng.randint(-3, 3))
            for m in rng.sample(heis.indices, 4)
        }
        v = {}
        for m, c in coeffs.items():
            for k, x in rational_monomial(heis, heis.index_pos[m]).items():
                v[k] = v.get(k, 0) + c * x
        got = heis.pbw_coords(v)
        assert got == {heis.index_pos[m]: c for m, c in coeffs.items() if c}
        assert list(got) == sorted(got)


# -- structure constants ----------------------------------------------------------


def test_structure_constant_multinomial(qt):
    qt5 = PBWStructure.from_bialgebra(build_ueg(["t"], {}, 5))
    c, defect = qt5.structure_constant(at(qt5, t=2), at(qt5, t=3))
    assert c == F(factorial(5), factorial(2) * factorial(3)) == 10
    assert defect == {}


def test_structure_constant_zero_index(heis):
    c, defect = heis.structure_constant(0, at(heis, x=1, y=1))
    assert c == 1
    assert defect == {}


def test_structure_constant_truncation(heis):
    with pytest.raises(TruncationError):
        heis.structure_constant(at(heis, x=3), at(heis, y=3))
    assert heis.index_sum(at(heis, x=3), at(heis, y=3)) is None


def test_structure_constant_sl2_defect(sl2):
    # f*e = e*f - h: ordered monomial plus a strictly lower defect
    c, defect = sl2.structure_constant(at(sl2, f=1), at(sl2, e=1))
    assert c == 1
    expansion = sl2.pbw_coords(defect)
    assert expansion == {at(sl2, h=1): F(-1)}
    assert sl2.filt.layers[1].contains(defect)


def test_structure_constants_random(heis, sl2, xyw):
    rng = random.Random(17)
    for p in (heis, sl2, xyw):
        candidates = [q for q, d in enumerate(p.degrees) if d <= 2]
        for _ in range(25):
            n = candidates[rng.randrange(len(candidates))]
            m = candidates[rng.randrange(len(candidates))]
            c, defect = p.structure_constant(n, m)
            # independent route: the expansion coefficient at the sum index
            prod = p.data.mul(rational_monomial(p, n), rational_monomial(p, m))
            coords = {p.indices[i]: a for i, a in p.pbw_coords(prod).items()}
            total = add(p.indices[n], p.indices[m])
            assert p.index_sum(n, m) == p.index_pos[total]
            assert coords.get(total, F(0)) == c
            top = weighted_degree(total, p.gens.weights)
            for i in coords:
                if i != total:
                    assert weighted_degree(i, p.gens.weights) < top


@pytest.mark.parametrize("name", ["heis", "sl2", "xyw"])
def test_index_arithmetic_against_brute_force(host_at, name):
    """At degree 6, over every pair of positions: index_sum is the position
    of the entrywise sum, or None past the bound; the splittings of each
    index are exactly the pairs that sum to it, each once; and each label
    is the id-sorted text of its exponents."""
    p = host_at(name, 6)
    sums = {}
    for i, m in enumerate(p.indices):
        for j, n in enumerate(p.indices):
            total = add(m, n)
            if weighted_degree(total, p.gens.weights) > 6:
                assert p.index_sum(i, j) is None
            else:
                assert p.indices[p.index_sum(i, j)] == total
                sums.setdefault(total, set()).add((i, j))
    for q, m in enumerate(p.indices):
        pairs = [(p.index_pos[left], p.index_pos[right]) for left, right in splittings(m)]
        assert len(set(pairs)) == len(pairs)
        assert set(pairs) == sums[m]
        factors = sorted((gid, k) for gid, k in zip(p.gens.ids, m) if k)
        text = "*".join(gid if k == 1 else f"{gid}^{k}" for gid, k in factors)
        assert p.labels[q] == (text or "1")
    if name == "xyw":
        # ids sort w < x, against the generator order x, y, w of the raw
        # basis label x*w
        assert p.labels[at(p, x=1, w=1)] == "w*x"
        assert "x*w" in p.data.basis_labels


@pytest.mark.parametrize("name", ["heis", "xyw", "dq"])
def test_count_up_to_at_its_edges(host_at, name):
    """count_up_to(d) counts the indices of degree <= d, below degree 0 and
    past the bound too."""
    p = host_at(name, 6)
    for d in range(-1, p.data.degree_bound + 2):
        assert p.count_up_to(d) == sum(x <= d for x in p.degrees)


# -- comultiplication expansion -----------------------------------------------------


def test_expand_comult_zero(heis):
    assert heis.expand_comult(0) == [(0, 0, Q1)]
    zero = (0, 0, 0)
    assert named(heis, heis.expand_comult(0)) == [(zero, zero, Q1)]


def test_expand_comult_line(qt):
    got = named(qt, qt.expand_comult(at(qt, t=2)))
    assert got == [((0,), (2,), Q1), ((1,), (1,), Q1), ((2,), (0,), Q1)]


def test_expand_comult_xyw_cross_term(xyw):
    def mi(**kw):
        return exps(xyw.gens, **kw)

    got = named(xyw, xyw.expand_comult(at(xyw, w=1)))
    assert (mi(x=1), mi(y=1), Q1) in got
    assert (mi(), mi(w=1), Q1) in got
    assert (mi(w=1), mi(), Q1) in got
    assert len(got) == 3
    # the cross term is strictly below the split index: they differ at w
    assert compare(xyw.gens, add(mi(x=1), mi(y=1)), mi(w=1)) == LESS
    assert xyw.index_sum(at(xyw, x=1), at(xyw, y=1)) < at(xyw, w=1)


def oracle_expansions(p):
    """Delta(e_m) for every index m within the bound, keyed by pairs of
    exponent vectors: e_m is the product of the generator lifts divided by the
    factorials, the raw basis is expanded on the monomials through a sympy
    inverse, and the terms are sorted by the reference order on the left
    index, then on the right."""
    sympy = pytest.importorskip("sympy")
    data = p.data

    def monomial(m):
        v = dense_of(data.one, data.dim)
        for gid, k in zip(p.gens.ids, m):
            for _ in range(k):
                v = dense_mul(data, v, dense_of(p.lifts[gid], data.dim))
            v = tuple(F(x) / factorial(k) for x in v)
        return v

    indices = p.gens.enumerate_up_to(data.degree_bound)
    monomials = [monomial(m) for m in indices]
    inv = sympy.Matrix(monomials).inv()
    # raw e_a is the sum over q of inv[a, q] e_(indices[q])
    coords = [
        {q: F(int(x.p), int(x.q)) for q, x in enumerate(inv.row(a)) if x}
        for a in range(data.dim)
    ]
    key = functools.cmp_to_key(functools.partial(compare, p.gens))
    out = {}
    for m, v in zip(indices, monomials):
        acc = {}
        for (a, b), c in data.comult_map(dict(enumerate(v))).items():
            for q, x in coords[a].items():
                for r, y in coords[b].items():
                    pair = (indices[q], indices[r])
                    acc[pair] = acc.get(pair, 0) + c * x * y
        out[m] = sorted(
            ((i, j, c) for (i, j), c in acc.items() if c),
            key=lambda t: (key(t[0]), key(t[1])),
        )
    return out


def test_expand_comult_matches_multi_index_oracle(heis, sl2, xyw, qt):
    for p in (heis, sl2, xyw, qt):
        oracle = oracle_expansions(p)
        assert list(oracle) == p.indices
        for pos, m in enumerate(p.indices):
            assert named(p, p.expand_comult(pos)) == oracle[m]


# The Heisenberg ueg at degree 4 with the splittings x (x) y*z and
# y (x) x*z of x*y*z dropped from the expansion of x*y*z.
MISSING_SPLITTINGS = """
import io

from hopfcore.coalgebra import build_ueg
from hopfcore.errors import ExpansionViolation
from hopfcore.pbw import PBWStructure
from hopfcore.report import Report

p = PBWStructure.from_bialgebra(build_ueg(["x", "y", "z"], {"x": {"y": {"z": "1"}}}, 4))


def at(ids):
    return p.index_pos[tuple(int(g in ids) for g in p.gens.ids)]


xyz = at("xyz")
dropped = {(at("x"), at("yz")), (at("y"), at("xz"))}
terms = [t for t in p.expand_comult(xyz) if t[:2] not in dropped]
expand = p.expand_comult
p.expand_comult = lambda q: terms if q == xyz else expand(q)
try:
    p.check_split_expansion(Report(io.StringIO()), xyz)
except ExpansionViolation as exc:
    print(exc)
"""


def test_missing_splitting_message_ignores_the_hash_seed():
    """The first missing splitting in position order is named, whatever
    order the hash seed gives the set of missing pairs."""
    messages = [
        subprocess.run(
            [sys.executable, "-c", MISSING_SPLITTINGS],
            capture_output=True, text=True, timeout=120,
            env=subprocess_env(PYTHONHASHSEED=seed),
        ).stdout
        for seed in ("1", "2")
    ]
    assert messages == ["splitting e_x (x) e_y*z of e_x*y*z is missing\n"] * 2


@pytest.mark.parametrize(
    "edit, message",
    [
        # y^2 directly follows x*y in the well-order
        (lambda terms, y: terms + [(y, y, 1)],
         "term e_y (x) e_y of Delta(e_x*y) is not strictly below x*y"),
        (lambda terms, y: [(i, j, 2 if j == y else c) for i, j, c in terms],
         "splitting e_x (x) e_y of e_x*y has coefficient 2 != 1"),
    ],
    ids=["term-above", "coefficient-two"],
)
def test_split_expansion_violations(edit, message):
    p = PBWStructure.from_bialgebra(build_ueg(["x", "y", "z"], {"x": {"y": {"z": "1"}}}, 2))
    xy, y = at(p, x=1, y=1), at(p, y=1)
    assert p.indices[xy + 1] == exps(p.gens, y=2)
    terms, expand = edit(p.expand_comult(xy), y), p.expand_comult
    p.expand_comult = lambda q: terms if q == xy else expand(q)
    with pytest.raises(ExpansionViolation) as info:
        run_check(p.check_split_expansion, xy)
    assert str(info.value) == message


def test_unit_coefficients(heis):
    for p in range(len(heis.indices)):
        terms = {(i, j): c for i, j, c in heis.expand_comult(p)}
        assert terms[(0, p)] == 1
        assert terms[(p, 0)] == 1


def test_split_expansion_all_indices(heis, sl2, xyw, qt):
    for p in (heis, sl2, xyw, qt):
        for m in range(len(p.indices)):
            assert run_check(p.check_split_expansion, m).passed


def test_expansion_violation_on_corrupted_tables():
    from hopfcore.coalgebra import instance_from_json

    data = instance_from_json(load_fixture("instances/xyw_corrupt.json"))
    p = PBWStructure.from_bialgebra(data)
    with pytest.raises(ExpansionViolation):
        for m in range(len(p.indices)):
            run_check(p.check_split_expansion, m)


def test_span_closure(heis, xyw):
    rng = random.Random(23)
    assert run_check(heis.check_span_closure, rng, 30).passed
    assert run_check(xyw.check_span_closure, rng, 30).passed


def test_reordered_generators_same_verdicts():
    # permuting the order within a degree class changes the basis but not
    # one pass/fail outcome
    p = PBWStructure.from_bialgebra(
        build_ueg(["f", "e", "h"], SL2_BRACKETS, 3)
    )
    assert p.gens.ids == ("f", "e", "h")
    run_check(p.verify_all_bases)
    for m in range(len(p.indices)):
        assert run_check(p.check_split_expansion, m).passed
    rng = random.Random(1)
    assert run_check(p.check_span_closure, rng, 20).passed
