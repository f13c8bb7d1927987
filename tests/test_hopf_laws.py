"""Associativity and the antipode law of the built tables.

The ueg and xyw builders satisfy both laws by construction, and these
tests pin that at several degrees.  The helpers compare exact sides and
return the first failing triple or basis element; the broken raw instances
show that they can fail.  A raw instance is checked for associativity when
it loads (``TableAlgebra.first_nonassociative``), and the command line
checks the antipode law with ``check_antipode`` once the axioms pass; both
are tested against the helpers here.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from hopfcore.coalgebra import (
    build_xyw,
    check_antipode,
    instance_from_json,
)
from hopfcore.errors import InputFormatError, TruncationError
from hopfcore.linalg import Q1
from hopfcore.table import TableAlgebra, sparse
from conftest import instance_to_json, load_fixture


def first_associativity_failure(data):
    """The first basis triple (i, j, k), as labels, with (e_i e_j) e_k !=
    e_i (e_j e_k); triples where either side leaves the truncation are
    not compared."""
    for i, j in sorted(data.mult):
        for k in range(data.dim):
            if (j, k) not in data.mult:
                continue
            try:
                left = data.mul(dict(data.mult[i, j]), {k: Q1})
                right = data.mul({i: Q1}, dict(data.mult[j, k]))
            except TruncationError:
                continue
            diff = dict(left)
            for t, c in right.items():
                diff[t] = diff.get(t, 0) - c
            if any(diff.values()):
                return tuple(data.basis_labels[t] for t in (i, j, k))
    return None


def first_antipode_failure(data):
    """The first basis element h, as a label, with m(S (x) id)Delta(h) or
    m(id (x) S)Delta(h) different from eps(h) 1."""
    unit = data.unit_index
    for h in range(data.dim):
        expected = {unit: data.counit[h]} if data.counit[h] else {}
        for side in ("left", "right"):
            total = {}
            for j, k, c in data.comult[h]:
                if side == "left":
                    prod = data.mul(dict(data.antipode.get(j, ())), {k: c})
                else:
                    prod = data.mul({j: c}, dict(data.antipode.get(k, ())))
                for t, x in prod.items():
                    total[t] = total.get(t, 0) + x
            if {t: x for t, x in total.items() if x} != expected:
                return data.basis_labels[h]
    return None


def instance(name, degree=None):
    return instance_from_json(load_fixture(f"instances/{name}.json"), degree)


@pytest.mark.parametrize("degree", range(2, 7))
@pytest.mark.parametrize("name", ["dq", "heis", "sl2"])
def test_ueg_tables_are_hopf(name, degree):
    data = instance(name, degree)
    assert first_associativity_failure(data) is None
    assert first_antipode_failure(data) is None


@pytest.mark.parametrize("degree", range(2, 7))
def test_xyw_tables_are_hopf(degree):
    data = build_xyw(degree)
    assert first_associativity_failure(data) is None
    assert first_antipode_failure(data) is None


def test_raw_fixtures_are_hopf():
    for name in ("grouplike", "shifted_line"):
        data = instance(name)
        assert first_associativity_failure(data) is None
        assert first_antipode_failure(data) is None


def test_antipode_helper_rejects_wrong_shifted_line_antipode():
    # Delta(s) = s (x) 1 + 1 (x) s - 1 (x) 1, so S(s) = 2 - s; with
    # S(s) = -s the law reads -1 = eps(s) = 1 at s
    obj = copy.deepcopy(load_fixture("instances/shifted_line.json"))
    obj["tables"]["antipode"]["s"] = {"s": "-1"}
    assert first_antipode_failure(instance_from_json(obj)) == "s"


def test_antipode_helper_flags_xyw_corrupt_at_x_squared():
    # the corrupt Delta(x^2) carries 3 x (x) x instead of 2 x (x) x
    assert first_antipode_failure(instance("xyw_corrupt")) == "x^2"


def xyw_with_doubled_xy():
    """The xyw tables at degree 3 with x * y = 2 xy, built past the raw
    reader, which rejects them."""
    data = build_xyw(3)
    pos = data.basis_labels.index
    data.mult[(pos("x"), pos("y"))] = ((pos("x*y"), 2),)
    return data


def test_associativity_helper_flags_a_changed_product():
    # with x * y = 2 xy, x(xy) = 2 x^2y but (xx)y = x^2y
    assert first_associativity_failure(xyw_with_doubled_xy()) == ("x", "x", "y")


def test_raw_reader_rejects_a_changed_product():
    obj = instance_to_json(build_xyw(3))
    obj["tables"]["mult"]["x"]["y"] = {"x*y": "2"}
    with pytest.raises(
        InputFormatError,
        match=r"^multiplication is not associative: \(x\*x\)\*y != x\*\(x\*y\)$",
    ):
        instance_from_json(obj)


def nonassociative_labels(data):
    triple = data.first_nonassociative()
    return None if triple is None else tuple(data.basis_labels[t] for t in triple)


@pytest.mark.parametrize(
    "data",
    [
        *(instance(name, 4) for name in ("dq", "heis", "sl2", "xyw")),
        *(instance(name) for name in ("grouplike", "shifted_line", "xyw_corrupt")),
        xyw_with_doubled_xy(),
    ],
    ids=["dq", "heis", "sl2", "xyw", "grouplike", "shifted_line", "xyw_corrupt",
         "xyw_doubled_xy"],
)
def test_first_nonassociative_agrees_with_the_helper(data):
    assert nonassociative_labels(data) == first_associativity_failure(data)


# a partial product table on three basis elements: each present pair maps to
# a sparse combination with small integer coefficients
partial_tables = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.lists(st.tuples(st.integers(0, 2), st.sampled_from([-1, 1, 2])), max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(partial_tables)
def test_first_nonassociative_prunes_no_checked_triple(table):
    """On any partial table the scan finds the same first triple as the
    helper, which tries every k for every pair in the table.  The
    constructor takes tables in normal form, as ``parse_table`` hands them
    over, so the drawn products are normalised first."""
    normal = {key: sparse(terms) for key, terms in table.items()}
    data = TableAlgebra(("a", "b", "c"), normal, {0: 1})
    assert nonassociative_labels(data) == first_associativity_failure(data)


def bad_shifted_line():
    obj = copy.deepcopy(load_fixture("instances/shifted_line.json"))
    obj["tables"]["antipode"]["s"] = {"s": "-1"}
    return instance_from_json(obj)


@pytest.mark.parametrize(
    "data",
    [
        *(instance(name, 4) for name in ("dq", "heis", "sl2", "xyw")),
        *(instance(name) for name in ("grouplike", "shifted_line", "xyw_corrupt")),
        bad_shifted_line(),
    ],
    ids=["dq", "heis", "sl2", "xyw", "grouplike", "shifted_line", "xyw_corrupt",
         "shifted_line_bad_antipode"],
)
def test_check_antipode_agrees_with_the_helper(data):
    """check_antipode passes exactly where the helper finds no failure,
    and otherwise names the same first element."""
    failure = first_antipode_failure(data)
    if failure is None:
        check_antipode(data)
    else:
        with pytest.raises(InputFormatError) as info:
            check_antipode(data)
        assert str(info.value).endswith(f"fails at {failure}")


def test_check_antipode_skips_truncated_laws():
    """With the product x * y left out of the xyw tables at degree 2, the
    laws at w and x*y need it and are skipped, so a wrong S(w) goes
    unseen; with the product present S(w) is caught."""
    obj = instance_to_json(build_xyw(2))
    obj["tables"]["antipode"]["w"] = {"w": "1"}
    with pytest.raises(InputFormatError, match="fails at w$"):
        check_antipode(instance_from_json(obj))
    # tables that give degrees must hold every product within the bound,
    # so the omission is a truncation only once the degrees are gone
    del obj["tables"]["mult"]["x"]["y"], obj["tables"]["degrees"]
    data = instance_from_json(obj)
    with pytest.raises(TruncationError):
        first_antipode_failure(data)
    check_antipode(data)
