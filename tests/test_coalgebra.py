import json
import random
from fractions import Fraction as F

import pytest

from hopfcore.coalgebra import (
    FilteredBialgebraData,
    build_ueg,
    build_xyw,
    check_primitivity_defects,
    check_coradically_graded,
    check_delta_consistency,
    check_level_closure,
    coradical_filtration,
    graded_splitting,
    gr_structure,
    instance_from_json,
    require_connected,
    verify_axioms,
    verify_gr_facts,
)
from hopfcore.errors import HopfcoreError, InputFormatError, NotExhaustive, TruncationError
from hopfcore.report import PASS
from hopfcore.linalg import Q1, combine, dot
from conftest import (
    HEIS_BRACKETS, SL2_BRACKETS, front_end, instance_to_json, load_fixture,
)


# -- builders -----------------------------------------------------------------


def test_ueg_line_tables():
    qt = build_ueg(["t"], {}, 3)
    assert qt.basis_labels == ("1", "t", "t^(2)", "t^(3)")
    # divided powers multiply with binomial coefficients
    t1 = qt.basis_labels.index("t")
    t2 = qt.basis_labels.index("t^(2)")
    t3 = qt.basis_labels.index("t^(3)")
    assert qt.mult[t1, t2] == ((t3, F(3)),)
    # binomial comultiplication
    assert qt.comult[t2] == ((0, t2, Q1), (t1, t1, Q1), (t2, 0, Q1))
    with pytest.raises(TruncationError):
        qt.mul({t2: 1}, {t2: 1})


def test_ueg_heisenberg_dimension():
    heis = build_ueg(["x", "y", "z"], HEIS_BRACKETS, 2)
    assert heis.dim == 10
    # straightening: y*x = x*y - z
    x, y = heis.basis_labels.index("x"), heis.basis_labels.index("y")
    xy, z = heis.basis_labels.index("x*y"), heis.basis_labels.index("z")
    assert dict(heis.mult[y, x]) == {xy: F(1), z: F(-1)}


def test_ueg_sl2_commutator():
    sl2 = build_ueg(["e", "f", "h"], SL2_BRACKETS, 2)
    e, f, h = map(sl2.basis_labels.index, ("e", "f", "h"))
    ef = dict(sl2.mult[e, f])
    fe = dict(sl2.mult[f, e])
    diff = {k: ef.get(k, F(0)) - fe.get(k, F(0)) for k in set(ef) | set(fe)}
    assert {k: v for k, v in diff.items() if v} == {h: F(1)}


def test_ueg_rejects_non_lie():
    with pytest.raises(HopfcoreError, match=r"^\[a,a\] must vanish$"):
        build_ueg(["a"], {"a": {"a": {"a": "1"}}}, 2)
    # antisymmetry violation
    with pytest.raises(
        HopfcoreError, match=r"^inconsistent antisymmetric pair for \[b,a\]$"
    ):
        build_ueg(
            ["a", "b"],
            {"a": {"b": {"a": "1"}}, "b": {"a": {"a": "1"}}},
            2,
        )
    # Jacobi violation: [a,b]=c, [b,c]=a, [c,a]=a
    with pytest.raises(HopfcoreError, match=r"^Jacobi identity fails on \(a,b,c\)$"):
        build_ueg(
            ["a", "b", "c"],
            {
                "a": {"b": {"c": "1"}},
                "b": {"c": {"a": "1"}},
                "c": {"a": {"a": "1"}},
            },
            2,
        )


def test_xyw_tables():
    data = build_xyw(2)
    assert data.basis_labels == ("1", "x", "y", "x^2", "x*y", "y^2", "w")
    w = data.basis_labels.index("w")
    x, y = data.basis_labels.index("x"), data.basis_labels.index("y")
    assert data.comult[w] == ((0, w, Q1), (x, y, Q1), (w, 0, Q1))
    # not cocommutative: the x(x)y term has no mirror
    terms = {(j, k): c for j, k, c in data.comult[w]}
    assert (y, x) not in terms
    assert dot(data.counit, {w: 1}) == 0


def test_axioms_pass_on_builtins():
    for data in (
        build_ueg(["t"], {}, 3),
        build_ueg(["x", "y", "z"], HEIS_BRACKETS, 3),
        build_xyw(3),
        instance_from_json(load_fixture("instances/grouplike.json")),
    ):
        assert verify_axioms(data).passed


COUNIT_FAILURE = dict(
    basis_labels=("1", "t"),
    degree_bound=1,
    mult={(0, 0): ((0, Q1),), (0, 1): ((1, Q1),), (1, 0): ((1, Q1),)},
    comult=[((0, 0, Q1),), ((1, 1, Q1),)],
    counit=(Q1, F(0)),
    unit_index=0,
)


def test_axioms_catch_counit_failure():
    # group-like comultiplication with a counit that vanishes
    rep = verify_axioms(FilteredBialgebraData(**COUNIT_FAILURE))
    failures = {(l.check, l.subject) for l in rep.lines if l.status == "FAIL"}
    assert ("counit", "t") in failures
    # the unit law holds: only the counit is wrong
    unit_lines = [l for l in rep.lines if l.check == "unit-law"]
    assert len(unit_lines) == 2 and all(l.status == PASS for l in unit_lines)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("mult", {(0, 0): ((0, Q1),), (0, 1): [(1, Q1)], (1, 0): ((1, Q1),)},
         "product row of 1 * t must be a tuple, got list"),
        ("comult", [((0, 0, Q1),), [(1, 1, Q1)]],
         "comultiplication row of t must be a tuple, got list"),
    ],
    ids=["product-row", "comult-row"],
)
def test_rows_handed_over_as_lists_are_refused(field, value, message):
    """A table is kept as handed over, so a row that is a list, which the
    checks would misread, is an input error naming the pair or element."""
    with pytest.raises(InputFormatError) as info:
        FilteredBialgebraData(**{**COUNIT_FAILURE, field: value})
    assert str(info.value) == message


# -- filtration ----------------------------------------------------------------


def test_filtration_line():
    filt = coradical_filtration(build_ueg(["t"], {}, 3))
    assert filt.dims == (1, 2, 3, 4)


def test_filtration_xyw():
    assert coradical_filtration(build_xyw(2)).dims == (1, 3, 7)
    assert coradical_filtration(build_xyw(4)).dims == (1, 3, 7, 13, 22)


def test_filtration_grouplike_not_exhaustive():
    data = instance_from_json(load_fixture("instances/grouplike.json"))
    with pytest.raises(NotExhaustive):
        require_connected(coradical_filtration(data), data.degree_bound)
    assert coradical_filtration(data).exhaustive is False
    assert coradical_filtration(build_xyw(2)).exhaustive is True


def test_filtration_matches_degree_hint(heis):
    data = heis.data
    split, _, _ = front_end(heis)
    for i in range(data.dim):
        layer = split.max_degree(split.to_split_units[i])
        assert layer == data.degrees[i]


# -- splitting and gr ------------------------------------------------------------


def test_splitting_line_components(qt):
    split, _, _ = front_end(qt)
    assert [split.degrees.count(n) for n in range(4)] == [1, 1, 1, 1]
    assert split.labels == ("1", "t", "t^(2)", "t^(3)")


def test_splitting_counit_vanishes(xyw):
    data = xyw.data
    split, _, _ = front_end(xyw)
    for k, v in enumerate(split.vectors):
        if split.degrees[k] >= 1:
            assert dot(data.counit, v) == 0


def test_splitting_xyw_level_two(xyw):
    # graded_splitting names each splitting vector by its pivot's label
    split, _, _ = front_end(xyw)
    labels = {s for s, d in zip(split.labels, split.degrees) if d == 2}
    assert labels == {"x^2", "x*y", "y^2", "w"}


def test_splitting_delta_drops_lower_terms():
    # s = t^(3) + t^(2) in the divided-power coalgebra on t: Delta(s) carries
    # t (x) t, of total degree 2 < 3, which the degree-preserving part (gr's
    # comult) drops; gr multiplies the pairs within the bound, so the table
    # holds those: t t = 2 t^(2) and t t^(2) = 3 t^(3) = 3 s - 3 t2
    data = instance_from_json({
        "kind": "raw", "degree_bound": 3, "tables": {
            "basis": ["1", "t", "t2", "s"], "unit": "1",
            "mult": {
                "1": {a: {a: "1"} for a in ("1", "t", "t2", "s")},
                "t": {"1": {"t": "1"}, "t": {"t2": "2"}, "t2": {"s": "3", "t2": "-3"}},
                "t2": {"1": {"t2": "1"}, "t": {"s": "3", "t2": "-3"}},
                "s": {"1": {"s": "1"}},
            },
            "comult": {
                "1": [["1", "1", "1"]],
                "t": [["t", "1", "1"], ["1", "t", "1"]],
                "t2": [["t2", "1", "1"], ["t", "t", "1"], ["1", "t2", "1"]],
                "s": [["s", "1", "1"], ["t2", "t", "1"], ["t", "t2", "1"],
                      ["1", "s", "1"], ["t", "t", "1"]],
            },
            "counit": {"1": "1"},
        },
    })
    split = graded_splitting(coradical_filtration(data), data)
    assert split.labels == ("1", "t", "t2", "s")
    assert check_delta_consistency(split).passed
    # the check reads the stored tensors without changing them
    assert split.comult[3] == {
        (3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1, (1, 1): 1,
    }
    assert gr_structure(split).comult[3] == ((0, 3, 1), (1, 2, 1), (2, 1, 1), (3, 0, 1))


def test_splitting_counit_adjustment():
    data = instance_from_json(load_fixture("instances/shifted_line.json"))
    filt = coradical_filtration(data)
    split = graded_splitting(filt, data)
    # the greedy complement span{s} has counit 1; the corrected vector is
    # 1 - s, the primitive line
    assert split.vectors[1] == {0: 1, 1: -1}
    assert dot(data.counit, split.vectors[1]) == 0


def test_gr_of_line_is_itself(qt):
    _, gr, _ = front_end(qt)
    for (i, j), terms in gr.mult.items():
        assert terms == qt.data.mult[i, j]


def test_gr_xyw_keeps_cross_term(xyw):
    _, gr, _ = front_end(xyw)
    w = gr.basis_labels.index("w")
    x, y = gr.basis_labels.index("x"), gr.basis_labels.index("y")
    assert (x, y, Q1) in gr.comult[w]


def test_gr_heisenberg_commutative(heis):
    _, gr, _ = front_end(heis)
    x, y = gr.basis_labels.index("x"), gr.basis_labels.index("y")
    assert gr.mult[x, y] == gr.mult[y, x]
    # while the filtered algebra itself is not commutative
    hx, hy = heis.data.basis_labels.index("x"), heis.data.basis_labels.index("y")
    assert heis.data.mult[hx, hy] != heis.data.mult[hy, hx]


def test_gr_facts_and_gradedness(heis, xyw, qt):
    for p in (heis, xyw, qt):
        split, gr, _ = front_end(p)
        assert verify_gr_facts(gr, p.data, split).passed
        assert check_coradically_graded(gr).passed


def test_antipode_raising_the_degree_fails_stability_there_only():
    """S(e) = -e + e^(2) leaves C_1: antipode-stability fails at e and
    passes everywhere else, and gr carries no antipode."""
    data = build_ueg(["e", "f", "h"], SL2_BRACKETS, 4)
    e, e2 = data.basis_labels.index("e"), data.basis_labels.index("e^(2)")
    data.antipode[e] = ((e, -Q1), (e2, Q1))
    split = graded_splitting(require_connected(coradical_filtration(data), 4), data)
    gr = gr_structure(split)
    lines = [line for line in verify_gr_facts(gr, data, split).lines
             if line.check == "antipode-stability"]
    assert len(lines) == split.dim
    assert [line.subject for line in lines if line.status != PASS] == ["e"]
    assert [line.status for line in lines if line.subject == "e"] == ["FAIL"]
    assert gr.antipode is None


def test_antipode_image_computed_once_per_splitting_vector(monkeypatch):
    """verify_gr_facts computes the antipode image of each splitting vector
    once, and gr_structure computes none: one antipode_of call per
    vector."""
    data = build_ueg(["e", "f", "h"], SL2_BRACKETS, 4)
    split = graded_splitting(require_connected(coradical_filtration(data), 4), data)
    calls = []
    antipode_of = FilteredBialgebraData.antipode_of

    def counted(self, v):
        calls.append(self)
        return antipode_of(self, v)

    monkeypatch.setattr(FilteredBialgebraData, "antipode_of", counted)
    gr = gr_structure(split)
    rep = verify_gr_facts(gr, data, split)
    assert rep.passed
    assert sum(line.check == "antipode-stability" for line in rep.lines) == split.dim
    assert len(calls) == split.dim == 35
    assert all(owner is data for owner in calls)


def test_gr_is_a_bialgebra(heis, xyw, qt):
    for p in (heis, xyw, qt):
        assert verify_axioms(front_end(p)[1]).passed


# -- membership checks ------------------------------------------------------------


def test_primitivity_defects_on_builtins(heis, xyw, qt):
    for p in (heis, xyw, qt):
        assert check_primitivity_defects(p.data, front_end(p)[0]).passed


def test_delta_consistency(heis, xyw):
    assert check_delta_consistency(front_end(heis)[0]).passed
    assert check_delta_consistency(front_end(xyw)[0]).passed


@pytest.mark.parametrize(
    "host, square, remainder", [("heis", "x^(2)", "(2, 4)"), ("xyw", "x^2", "(2, 3)")]
)
def test_membership_checks_name_the_first_bad_entry(request, host, square, remainder):
    """Two entries of too high bidegree injected into the split Delta of x,
    the one at the larger key first: both checks fail on x alone and name
    the first entry in insertion order, not the least key."""
    split, _, _ = front_end(request.getfixturevalue(host))
    x, y, x2 = (split.labels.index(s) for s in ("x", "y", square))
    comult = list(split.comult)
    comult[x] = {**comult[x], (y, x2): -7, (x, y): 5}
    bad = split._replace(comult=tuple(comult))
    reports = (check_primitivity_defects(bad.data, bad), check_delta_consistency(bad))
    failures = [
        (line.check, line.subject, line.detail)
        for rep in reports
        for line in rep.lines
        if line.status == "FAIL"
    ]
    assert failures == [
        ("primitivity-defect", "x (n=1)", "illegal entry at bidegree (1,2) coeff -7"),
        ("delta-consistency", "x", f"non-lower remainder at {remainder}"),
    ]
    # the shared splitting is left as it was
    assert check_delta_consistency(split).passed


def test_level_closure_sampled(heis, xyw):
    rng = random.Random(11)
    assert check_level_closure(front_end(heis)[1], rng, 30).passed
    assert check_level_closure(front_end(xyw)[1], rng, 30).passed


def test_layer_comult_containment(heis):
    # Delta(C_j) sits inside sum_{i<=j} C_i (x) C_{j-i}: on split coordinates
    # every term of Delta of a basis vector in C_j has bidegrees summing
    # within j
    split, _, _ = front_end(heis)
    for units in split.to_split_units:
        j = split.max_degree(units)
        tmap = combine(split.comult, units)
        assert tmap
        for (p, q), _ in tmap.items():
            assert split.degrees[p] + split.degrees[q] <= j


# -- serialization -----------------------------------------------------------------


def test_raw_roundtrip():
    data = build_xyw(2)
    obj = instance_to_json(data)
    again = instance_from_json(obj)
    assert again.basis_labels == data.basis_labels
    assert verify_axioms(again).passed
    assert coradical_filtration(again).dims == (1, 3, 7)


def test_instance_kinds(fixtures_dir):
    heis = instance_from_json(load_fixture("instances/heis.json"))
    assert heis.dim == 35
    small = instance_from_json(load_fixture("instances/heis.json"), 2)
    assert small.dim == 10
    raw = instance_from_json(load_fixture("instances/grouplike.json"))
    assert raw.dim == 2
