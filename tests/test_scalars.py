"""The scalar convention: an exact scalar is an ``int`` when it is integral
and the package's ``Rational`` otherwise, and no float appears anywhere.

Every stored scalar of the pipeline, from the input tables through the
filtration, splitting, associated graded algebra, divided-power monomials,
comultiplication expansions, coefficient rings, convolutions and stable
cores, is walked and checked to be an ``int`` or a ``Rational``; a float or
a ``fractions.Fraction`` fails the walk.  At the places that create scalars
(``rat``, ``table.sparse``, the echelon and ``expand_comult``) an integral
value is moreover an ``int``.  A value of a
coefficient ring, like every other vector, is a sparse dict without zeros
whose integral values are ``int``.
"""

import inspect
import random
from collections.abc import Mapping
from fractions import Fraction

import pytest

from hopfcore import cli
from hopfcore.action import (
    ModuleAlgebraAction,
    Ideal,
    QuotientAlgebra,
    hcore,
)
from hopfcore.coalgebra import (
    FilteredBialgebraData,
    build_ueg,
    build_xyw,
    coradical_filtration,
    gr_structure,
    instance_from_json,
)
from hopfcore.convolution import (
    BUILTIN_RINGS,
    ConvElement,
    builtin_ring,
    convolve,
    counit_pullback,
    leading,
    prime_witness,
    random_conv_element,
    ring_from_tables,
)
from hopfcore.errors import HopfcoreError, InputFormatError, TruncationError
from hopfcore.linalg import Rational, Subspace, inverse, kernel, rat
from hopfcore.pbw import PBWStructure
from hopfcore.table import PolynomialAlgebra, TableAlgebra, sparse
from conftest import (
    FIXTURES, HEIS_BRACKETS, SL2_BRACKETS, front_end, load_fixture, run_check,
)

INSTANCES = sorted(p.stem for p in (FIXTURES / "instances").glob("*.json"))
ACTIONS = [("sl2_qxy_ix", "sl2", 6), ("dq_qx_ix", "dq", 8), ("xyw_qu", "xyw", 8)]
HALF_RING = {
    "name": "half",
    "basis": ["1", "h"],
    "one": {"1": "1"},
    "mult": {"1": {"1": {"1": "1"}, "h": {"h": "1"}},
             "h": {"1": {"h": "1"}, "h": {"1": "1/4"}}},
}


def scalars(obj):
    """Every scalar held in obj: the values of mappings and the entries of
    tuples and lists, through the sparse rows of Subspaces."""
    if isinstance(obj, (int, Rational, Fraction, float)):
        yield obj
    elif isinstance(obj, Mapping):
        for value in obj.values():
            yield from scalars(value)
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            yield from scalars(value)
    elif isinstance(obj, Subspace):
        yield from scalars(obj.rows)
    else:
        raise TypeError(f"unexpected {type(obj).__name__} among scalars")


def assert_exact(obj):
    """No float and no stdlib Fraction: every scalar is an int or a
    Rational."""
    kinds = {type(x) for x in scalars(obj)}
    assert kinds <= {int, Rational}, kinds


def assert_normal(obj):
    """Exact and in normal form: no Rational with denominator 1."""
    assert_exact(obj)
    bad = [x for x in scalars(obj) if type(x) is Rational and x.denominator == 1]
    assert not bad, bad[:3]


def test_the_walk_refuses_floats_and_fractions():
    for stray in (0.5, Fraction(1, 2), Fraction(2, 1)):
        with pytest.raises(AssertionError):
            assert_exact({0: 1, 1: stray})
    with pytest.raises(AssertionError):
        assert_normal([(0, Rational(1, 2)), (1, 2.0)])


def _data(name):
    return instance_from_json(load_fixture(f"instances/{name}.json"))


# -- unit cases -------------------------------------------------------------------


def test_rat_normal_form():
    assert rat("3") == 3 and type(rat("3")) is int
    assert type(rat("6/3")) is int and rat("6/3") == 2
    assert type(rat(Fraction(4, 2))) is int and rat(Fraction(4, 2)) == 2
    assert type(rat(7)) is int
    assert rat("1/2") == Fraction(1, 2) and type(rat("1/2")) is Rational
    assert type(rat(Fraction(1, 2))) is Rational
    for value in (0.5, True, None, [2], "zz"):
        with pytest.raises(InputFormatError, match="as a rational"):
            rat(value)


def test_echelon_divides_exactly():
    space = Subspace.from_sparse([{0: 2, 1: 1}], 2)
    assert space.rows == ({0: 1, 1: Fraction(1, 2)},)
    assert [type(x) for x in space.rows[0].values()] == [int, Rational]
    assert inverse([{0: 2}], 1) == [{0: Fraction(1, 2)}]
    assert_normal(Subspace.from_sparse([{0: Rational(2, 3), 1: Rational(4, 3)}], 2).rows)
    assert_normal(kernel([{0: 3, 1: 6}, {1: Rational(3, 3)}], 3).rows)


def test_sparse_normal_form():
    merged = sparse([(1, Rational(1, 2)), (0, Rational(6, 3)), (1, Rational(1, 2))])
    assert merged == ((0, 2), (1, 1))
    assert_normal(merged)


def test_principal_reduction_divides_exactly():
    """3y^2 modulo (2y^2 + x) leaves -3x/2: the division by the integral
    leading coefficient is exact."""
    alg = PolynomialAlgebra(["x", "y"], 3)
    gen = {alg.monomial_index([0, 2]): 2, alg.monomial_index([1, 0]): 1}
    ideal = Ideal.principal(alg, gen)
    residual = ideal.reduce({alg.monomial_index([0, 2]): 3})
    assert residual[alg.monomial_index([1, 0])] == Fraction(-3, 2)
    assert_exact(residual)
    assert ideal.contains({t: 2 * c for t, c in gen.items()})


# -- tables handed over in normal form --------------------------------------------


@pytest.fixture
def handed(monkeypatch):
    """Every product table, comultiplication and antipode handed to the
    ``TableAlgebra`` and ``FilteredBialgebraData`` constructors, which keep
    them as given."""
    seen = {"mult": [], "comult": [], "antipode": []}
    table_init, data_init = TableAlgebra.__init__, FilteredBialgebraData.__init__

    def record_table(self, labels, table, *args, **kwargs):
        seen["mult"].append(table)
        table_init(self, labels, table, *args, **kwargs)

    def record_data(self, *args, **kwargs):
        given = inspect.signature(data_init).bind(self, *args, **kwargs).arguments
        seen["comult"].append(given["comult"])
        seen["antipode"].append(given.get("antipode") or {})
        data_init(self, *args, **kwargs)

    monkeypatch.setattr(TableAlgebra, "__init__", record_table)
    monkeypatch.setattr(FilteredBialgebraData, "__init__", record_data)
    return seen


def _typed_terms(terms):
    return [(k, type(c), c) for k, c in terms]


def assert_handed_normal(seen):
    """Products and antipode images are tuples equal, down to the type of
    every scalar, to their ``sparse`` normal form; comultiplication rows are
    tuples of sorted triples without zeros, in normal form."""
    assert seen["mult"]
    for table in seen["mult"] + seen["antipode"]:
        for terms in table.values():
            assert type(terms) is tuple
            assert _typed_terms(terms) == _typed_terms(sparse(terms)), terms
    for comult in seen["comult"]:
        for row in comult:
            assert type(row) is tuple and list(row) == sorted(row)
            assert all(c for _, _, c in row)
            assert_normal(row)


UEG_CASES = [
    (["e", "f", "h"], SL2_BRACKETS),
    (["x", "y", "z"], HEIS_BRACKETS),
    (["d"], {}),
    (["e", "f", "h"], {"h": {"e": {"e": "1/2"}, "f": {"f": "-1/2"}},
                       "e": {"f": {"h": "1/2"}}}),
]


@pytest.mark.parametrize("degree", range(1, 7))
def test_builders_hand_over_normal_tables(handed, degree):
    for names, brackets in UEG_CASES:
        build_ueg(names, brackets, degree)
    if degree >= 2:
        build_xyw(degree)
    instance_from_json(load_fixture("instances/grouplike.json"))
    PolynomialAlgebra(["x", "y"], degree)
    assert_handed_normal(handed)


@pytest.mark.parametrize("name", ["sl2", "heis", "dq", "xyw", "qt", "shifted_line"])
def test_gr_structure_hands_over_normal_tables(handed, name):
    pbw = PBWStructure.from_bialgebra(_data(name))
    handed["mult"].clear()
    handed["comult"].clear()
    handed["antipode"].clear()
    gr_structure(front_end(pbw)[0])
    assert_handed_normal(handed)


def test_rings_and_quotients_hand_over_normal_tables(handed):
    for name in ("q", "m2q", "qxq", "qx2"):
        ring_from_tables(BUILTIN_RINGS[name])
    ring_from_tables(HALF_RING)
    for action_name, _, _ in ACTIONS:
        spec = load_fixture(f"actions/{action_name}.json")
        algebra = cli._algebra_from_json(spec["algebra"])
        QuotientAlgebra(cli._ideal_from_json(algebra, spec["ideal"]))
    assert_handed_normal(handed)


# -- the pipeline ---------------------------------------------------------------------


@pytest.mark.parametrize("name", INSTANCES)
def test_pipeline_scalars_are_exact(name):
    data = _data(name)
    assert_normal([data.mult, data.comult, data.counit, data.one])
    if data.antipode is not None:
        assert_normal(data.antipode)
    filt = coradical_filtration(data)
    assert_normal(filt.layers)
    try:
        pbw = PBWStructure.from_bialgebra(data)
    except HopfcoreError:
        assert name in ("grouplike", "xyw_corrupt")
        return
    split, gr, gr_gens = front_end(pbw)
    assert_normal([split.vectors, split.to_split_units])
    assert_exact(split.comult)
    assert_normal([gr.mult, gr.comult, gr_gens])
    assert_exact(pbw.lifts)
    positions = range(len(pbw.indices))
    assert_normal([pbw.integral_monomial(p) for p in positions])
    assert_normal([pbw.expand_comult(p) for p in positions])
    assert_normal(pbw.transposed_comult())
    run_check(pbw.verify_all_bases)
    assert_normal(pbw._raw_to_pbw)
    assert_exact([pbw.structure_constant(n, m) for n in positions[:4]
                  for m in positions[:4]
                  if pbw.degrees[n] + pbw.degrees[m] <= data.degree_bound])


@pytest.mark.parametrize("name", ["sl2", "xyw", "qt"])
def test_rings_and_convolutions_are_exact(name):
    pbw = PBWStructure.from_bialgebra(_data(name))
    rings = [builtin_ring(r) for r in ("q", "m2q", "qxq", "qx2")]
    rings.append(ring_from_tables(HALF_RING))
    rng = random.Random(name)
    for ring in rings:
        assert_normal([ring.mult, ring.one])
        bound = pbw.data.degree_bound // 2
        f, g = (random_conv_element(pbw, ring, rng, bound) for _ in range(2))
        assert_exact([f._map, g._map, convolve(f, g)._map, convolve(g, f)._map])


@pytest.mark.parametrize("action_name, host_name, degree", ACTIONS)
def test_hcore_chain_is_exact(host_at, action_name, host_name, degree):
    host = host_at(host_name, degree)
    spec = load_fixture(f"actions/{action_name}.json")
    algebra = cli._algebra_from_json(spec["algebra"])
    ops = {
        gid: cli._operator_columns(algebra, gid, op)
        for gid, op in spec["generators"].items()
    }
    assert_normal(ops)
    action = ModuleAlgebraAction(host, algebra, ops)
    ideal = cli._ideal_from_json(algebra, spec["ideal"])
    result = hcore(action, ideal, spec["core_degree_cap"])
    assert_normal(result.by_cap)
    assert_exact([action.columns(p) for p in range(len(host.indices))])
    assert_exact(algebra.mult)


def assert_sparse(vectors):
    """Each vector is a dict {index: coefficient} without zero values."""
    for v in vectors:
        assert isinstance(v, dict), type(v)
        assert all(v.values()), v


@pytest.mark.parametrize("action_name, host_name, degree", ACTIONS)
def test_vectors_below_the_ring_are_sparse(host_at, action_name, host_name, degree):
    """Every vector the pipeline hands out below the coefficient ring is a
    sparse dict without zeros, also for inputs that hold explicit zeros."""
    host = host_at(host_name, degree)
    split, _, gr_gens = front_end(host)
    assert_sparse(split.vectors)
    assert_sparse(host.lifts.values())
    assert_sparse(gr_gens.values())
    positions = range(len(host.indices))
    assert_sparse(host.integral_monomial(p)[1] for p in positions)
    spec = load_fixture(f"actions/{action_name}.json")
    algebra = cli._algebra_from_json(spec["algebra"])
    ops = {
        gid: cli._operator_columns(algebra, gid, op)
        for gid, op in spec["generators"].items()
    }
    action = ModuleAlgebraAction(host, algebra, ops)
    ideal = cli._ideal_from_json(algebra, spec["ideal"])
    padded = [
        {i: 1 if i == j else 0 for i in range(algebra.dim)} for j in range(algebra.dim)
    ]
    images = [action.act(p, v) for p in positions for v in padded]
    assert_sparse(images)
    assert_sparse(ideal.reduce(v) for v in images + padded)
    assert_sparse(ideal.lift(ideal.quotient_coords(v)) for v in images + padded)


# -- coefficient-ring values ------------------------------------------------------------


def assert_ring_value(v):
    """A value of a coefficient ring: a dict {index: coefficient} without
    zeros, its integral values ``int``."""
    assert isinstance(v, dict), type(v)
    assert all(v.values()), v
    assert_normal(v)


def _value_rings():
    """The built-in rings, a ring with a fractional product, and quotients
    A/I by a monomial and by a principal ideal with a non-unit leading
    coefficient, the first of them truncating."""
    rings = [builtin_ring(r) for r in ("q", "m2q", "qxq", "qx2")]
    rings.append(ring_from_tables(HALF_RING))
    rings.append(QuotientAlgebra(Ideal.monomial(PolynomialAlgebra(["x"], 2), [])))
    alg = PolynomialAlgebra(["x", "y"], 3)
    gen = {alg.monomial_index([0, 2]): 2, alg.monomial_index([1, 0]): 1}
    rings.append(QuotientAlgebra(Ideal.principal(alg, gen)))
    return rings


def test_quotient_tables_and_units_are_normal():
    for ring in _value_rings()[-2:]:
        assert_ring_value(ring.one)
        for terms in ring.mult.values():
            assert type(terms) is tuple
            assert _typed_terms(terms) == _typed_terms(sparse(terms))


def test_products_are_normal_ring_values():
    """mul drops the terms that cancel and gives an integral product of
    Rationals as an int."""
    for ring in _value_rings():
        values = [{i: Rational(2, 1 + i % 2)} for i in range(ring.dim)]
        values.append({i: Rational(1, 2) for i in range(ring.dim)})
        values.append({i: (-1) ** i * 2 for i in range(ring.dim)})
        products = 0
        for u in values:
            for v in values:
                try:
                    assert_ring_value(ring.mul(u, v))
                    products += 1
                except TruncationError:
                    pass
        assert products
    half = ring_from_tables(HALF_RING)
    assert half.mul({1: Rational(2, 3)}, {1: 6}) == {0: 1}
    assert type(half.mul({1: Rational(2, 3)}, {1: 6})[0]) is int
    # (1 + h)(1 - h) = 1 - h^2 = 3/4: the h terms cancel and are dropped
    assert half.mul({0: 1, 1: 1}, {0: 1, 1: -1}) == {0: Fraction(3, 4)}


@pytest.mark.parametrize("name", ["sl2", "xyw", "qt"])
def test_convolution_values_are_normal_ring_values(name):
    pbw = PBWStructure.from_bialgebra(_data(name))
    rng = random.Random(f"values/{name}")
    bound = pbw.data.degree_bound // 2
    for ring in _value_rings():
        elements = [random_conv_element(pbw, ring, rng, bound) for _ in range(6)]
        # explicit zeros, and integral quotients
        zeros = {k: 0 for k in range(ring.dim)}
        pullback = counit_pullback(pbw, ring, {**zeros, 0: Rational(4, 2)})
        assert pullback._map == {0: {0: 2}}
        elements.append(pullback)
        elements.append(ConvElement(pbw, ring, {1: {**zeros, 0: Rational(3, 3)}}))
        for f in elements:
            for g in elements:
                try:
                    elements_and_product = [f, g, convolve(f, g)]
                except TruncationError:
                    elements_and_product = [f, g]
                for h in elements_and_product:
                    for _, value in h.terms():
                        assert_ring_value(value)
                    if not h.is_zero:
                        assert_ring_value(leading(h).value)
                if ring.flags is not None and ring.flags["prime"]:
                    try:
                        witness = prime_witness(f, g)
                    except TruncationError:
                        continue
                    assert_ring_value(witness.r)
                    assert witness.r == {next(iter(witness.r)): 1}
