"""The integer-scaled axiom check against the Fraction code it replaced.

``fraction_verify_axioms`` is the earlier ``verify_axioms``: every law is
accumulated and compared in ``Fraction`` arithmetic.  The scaled check must
give the same (check, subject, status, detail) lines, in the same order, on
the fixtures, on the builders over a range of degrees, and on raw tables
whose denominators are not 1.
"""

import copy
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcore.coalgebra import (
    build_ueg,
    build_xyw,
    instance_from_json,
    verify_axioms,
)
from hopfcore.linalg import Q0, Q1, rat, rat_str
from hopfcore.report import FAIL, PASS, SKIP, Report
from hopfcore.table import TableAlgebra
from conftest import (
    FIXTURES, HEIS_BRACKETS, SL2_BRACKETS, dense_of, instance_to_json, load_fixture,
)


def _tensor3_eq(a: dict, b: dict) -> bool:
    keys = set(a) | set(b)
    return all(a.get(k, Q0) == b.get(k, Q0) for k in keys)


def fraction_verify_axioms(data) -> Report:
    rep = Report()
    dim = data.dim
    eps = data.counit

    if eps[data.unit_index] != 1:
        rep.add("counit-unit", data.basis_labels[data.unit_index], FAIL, "eps(1) != 1")
    else:
        rep.add("counit-unit", data.basis_labels[data.unit_index], PASS)

    for i in range(dim):
        left = [Q0] * dim
        right = [Q0] * dim
        for j, k, c in data.comult[i]:
            if eps[j]:
                left[k] += c * eps[j]
            if eps[k]:
                right[j] += c * eps[k]
        unit = dense_of({i: Q1}, dim)
        ok = tuple(left) == unit and tuple(right) == unit
        rep.add("counit", data.basis_labels[i], PASS if ok else FAIL)

    for i in range(dim):
        lhs: dict = {}
        rhs: dict = {}
        for j, k, c in data.comult[i]:
            for a, b, c2 in data.comult[j]:
                key = (a, b, k)
                lhs[key] = lhs.get(key, Q0) + c * c2
            for a, b, c2 in data.comult[k]:
                key = (j, a, b)
                rhs[key] = rhs.get(key, Q0) + c * c2
        rep.add(
            "coassociativity",
            data.basis_labels[i],
            PASS if _tensor3_eq(lhs, rhs) else FAIL,
        )

    u = data.unit_index
    for i in range(dim):
        ok = True
        detail = ""
        for pair in ((u, i), (i, u)):
            if pair not in data.mult:
                ok = False
                detail = "unit product undefined"
                break
            if data.mult[pair] != ((i, Q1),):
                ok = False
                detail = "unit law violated"
                break
        rep.add("unit-law", data.basis_labels[i], PASS if ok else FAIL, detail)

    pairs = sorted(key for key in data.mult)
    for i, j in pairs:
        prod = data.mult[i, j]
        eps_prod = sum((c * eps[k] for k, c in prod if eps[k]), Q0)
        rep.add(
            "counit-multiplicative",
            f"{data.basis_labels[i]},{data.basis_labels[j]}",
            PASS if eps_prod == eps[i] * eps[j] else FAIL,
        )

        lhs: dict = {}
        for k, c in prod:
            for a, b, c2 in data.comult[k]:
                key = (a, b)
                lhs[key] = lhs.get(key, Q0) + c * c2
        rhs: dict = {}
        skipped = False
        for a, b, c1 in data.comult[i]:
            if skipped:
                break
            for a2, b2, c2 in data.comult[j]:
                if not ((a, a2) in data.mult and (b, b2) in data.mult):
                    skipped = True
                    break
                cc = c1 * c2
                for kl, cl in data.mult[a, a2]:
                    for kr, cr in data.mult[b, b2]:
                        key = (kl, kr)
                        rhs[key] = rhs.get(key, Q0) + cc * cl * cr
        subject = f"{data.basis_labels[i]},{data.basis_labels[j]}"
        if skipped:
            rep.add("comult-multiplicative", subject, SKIP, "tensor factor truncated")
        else:
            lhs = {k: c for k, c in lhs.items() if c}
            rhs = {k: c for k, c in rhs.items() if c}
            rep.add(
                "comult-multiplicative",
                subject,
                PASS if lhs == rhs else FAIL,
            )
    return rep


def lines(rep: Report) -> list[tuple[str, str, str, str]]:
    return [(l.check, l.subject, l.status, l.detail) for l in rep.lines]


def assert_same_lines(data) -> list[tuple[str, str, str, str]]:
    got = lines(verify_axioms(data))
    assert got == lines(fraction_verify_axioms(data))
    return got


def failures(got):
    return [(check, subject) for check, subject, status, _ in got if status == FAIL]


INSTANCES = sorted(p.stem for p in (FIXTURES / "instances").glob("*.json"))


@pytest.mark.parametrize("name", INSTANCES)
def test_fixture_lines_match_oracle(name):
    assert_same_lines(instance_from_json(load_fixture(f"instances/{name}.json")))


BUILDERS = {
    "sl2": lambda d: build_ueg(["e", "f", "h"], SL2_BRACKETS, d),
    "heis": lambda d: build_ueg(["x", "y", "z"], HEIS_BRACKETS, d),
    "xyw": build_xyw,
}


@pytest.mark.parametrize("degree", range(2, 8))
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builder_lines_match_oracle(name, degree):
    got = assert_same_lines(BUILDERS[name](degree))
    assert not failures(got)


def test_comult_coefficient_one_half():
    obj = instance_to_json(BUILDERS["sl2"](3))
    terms = obj["tables"]["comult"]["e^(2)"]
    index = next(t for t, (j, k, _) in enumerate(terms) if (j, k) == ("e", "e"))
    terms[index][2] = "1/2"
    got = assert_same_lines(instance_from_json(obj))
    assert ("comult-multiplicative", "e,e") in failures(got)


def test_counit_one_third():
    obj = instance_to_json(BUILDERS["sl2"](3))
    obj["tables"]["counit"]["e"] = "1/3"
    got = assert_same_lines(instance_from_json(obj))
    assert ("counit", "e") in failures(got)
    assert ("counit-multiplicative", "e,e") in failures(got)


def load_past_associativity(obj):
    """instance_from_json without the raw reader's associativity check: a
    perturbed product is rejected when it loads, before the axiom checks
    compared here would see it."""
    with mock.patch.object(TableAlgebra, "first_nonassociative", return_value=None):
        return instance_from_json(obj)


def test_product_off_by_one_over_1260_fails_once():
    # e^(2) * f^(2) reaches the bound, so no other pair reads it as a tensor
    # factor; its e^(2)*f^(2) term has middle terms in its coproduct, which
    # the perturbed product cannot match
    obj = instance_to_json(BUILDERS["sl2"](4))
    row = obj["tables"]["mult"]["e^(2)"]["f^(2)"]
    row["e^(2)*f^(2)"] = rat_str(rat(row["e^(2)*f^(2)"]) + Fraction(1, 1260))
    got = assert_same_lines(load_past_associativity(obj))
    assert failures(got) == [("comult-multiplicative", "e^(2),f^(2)")]


def test_truncated_tensor_factor_skips():
    # without x*y, Delta(x)Delta(y^(2)) has the factor (x, y) undefined
    obj = instance_to_json(BUILDERS["heis"](3))
    del obj["tables"]["mult"]["x"]["y"]
    got = assert_same_lines(instance_from_json(obj))
    assert ("comult-multiplicative", "x,y^(2)", SKIP, "tensor factor truncated") in got


# -- perturbed raw tables ---------------------------------------------------

RAW = {
    "shifted_line": load_fixture("instances/shifted_line.json"),
    "grouplike": load_fixture("instances/grouplike.json"),
    "xyw_corrupt": load_fixture("instances/xyw_corrupt.json"),
    "heis_d2": instance_to_json(BUILDERS["heis"](2)),
}


def coefficient_slots(tables: dict) -> list[tuple]:
    """Every place one coefficient can be changed: a comultiplication
    term, the counit of any basis element, a product term."""
    slots = [
        ("comult", a, t) for a, terms in tables["comult"].items() for t in range(len(terms))
    ]
    slots += [("counit", a) for a in tables["basis"]]
    slots += [
        ("mult", a, b, k)
        for a, row in tables["mult"].items()
        for b, combo in row.items()
        for k in combo
    ]
    return slots


def perturbed(obj: dict, slot: tuple, delta: Fraction) -> dict:
    obj = copy.deepcopy(obj)
    tables = obj["tables"]
    kind, *where = slot
    if kind == "comult":
        term = tables["comult"][where[0]][where[1]]
        term[2] = rat_str(rat(term[2]) + delta)
    elif kind == "counit":
        counit = tables.setdefault("counit", {})
        counit[where[0]] = rat_str(rat(counit.get(where[0], "0")) + delta)
    else:
        combo = tables["mult"][where[0]][where[1]]
        combo[where[2]] = rat_str(rat(combo[where[2]]) + delta)
    return obj


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(RAW)),
    pick=st.integers(min_value=0, max_value=10_000),
    delta=st.fractions(min_value=-3, max_value=3, max_denominator=60),
)
def test_perturbed_coefficient_lines_match_oracle(name, pick, delta):
    obj = RAW[name]
    slots = coefficient_slots(obj["tables"])
    data = load_past_associativity(perturbed(obj, slots[pick % len(slots)], delta))
    assert_same_lines(data)
