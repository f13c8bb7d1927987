"""The witness scans against the scan they replaced.

``prime_witness`` tries the basis elements r = e_i of the coefficient ring
only.  The reference below is the earlier scan: the basis elements first and
then every sum e_i + e_j of two of them, with ``semiprime_witness`` convolving
s * u * s once more after the two-sided scan.  Since s_min * r * t_min is
bilinear in r and ``TableAlgebra.mul`` raises on the first support pair
without a product, a pair can neither be the first candidate to succeed nor
the first to truncate, so both scans must end the same way: the same
witness, the same ``NoWitnessFound`` message or the same ``TruncationError``.
The rings are the four built-ins and a truncating quotient, A/(x) for the
sl2 action on Q[x, y] at bound 8, which is Q[y] cut off past y^8.
"""

import pytest
from hypothesis import given, settings, strategies as st

from hopfcore import cli
from hopfcore.action import ModuleAlgebraAction, QuotientAlgebra, conv_map
from hopfcore.convolution import (
    ConvElement,
    LeadingTerm,
    Witness,
    builtin_ring,
    convolve,
    counit_pullback,
    leading,
    prime_witness,
    semiprime_witness,
)
from hopfcore.errors import HopfcoreError, NoWitnessFound, TruncationError
from hopfcore.linalg import Q1
from conftest import load_fixture


def reference_prime_witness(s, t):
    """The singles-then-pairs scan."""
    ls, lt = leading(s), leading(t)
    host, ring = s.host, s.ring
    total = host.index_sum(ls.index, lt.index)
    if total is None:
        raise TruncationError("leading sum degree exceeds the bound")
    singles = [{i: Q1} for i in range(ring.dim)]
    pairs = [
        {i: Q1, j: Q1} for i in range(ring.dim) for j in range(i + 1, ring.dim)
    ]
    for r in singles + pairs:
        value = ring.mul(ring.mul(ls.value, r), lt.value)
        if not value:
            continue
        u = counit_pullback(host, ring, r)
        proof = leading(convolve(convolve(s, u), t))
        if proof != LeadingTerm(total, value):
            raise HopfcoreError("witness product has the wrong leading term")
        return Witness(r, u, proof)
    raise NoWitnessFound(
        f"no middle factor r with s_min r t_min != 0 over {ring.name} "
        f"(s_min={ring.format(ls.value)}, t_min={ring.format(lt.value)})"
    )


def reference_semiprime_witness(s):
    witness = reference_prime_witness(s, s)
    if convolve(convolve(s, witness.u), s).is_zero:
        raise HopfcoreError("witness product vanished despite a nonzero leading term")
    return witness


def outcome(scan, *args):
    """The scan's witness as (r, u's terms, proof), or the kind and message
    of the error that ended it."""
    try:
        w = scan(*args)
    except (NoWitnessFound, TruncationError) as exc:
        return type(exc).__name__, str(exc)
    return "witness", w.r, w.u.terms(), w.proof


def assert_same_scans(s, t):
    """Both scans agree on (s, t) and on s alone; returns the kind of the
    two-sided outcome."""
    got = outcome(prime_witness, s, t)
    assert got == outcome(reference_prime_witness, s, t)
    assert outcome(semiprime_witness, s) == outcome(reference_semiprime_witness, s)
    return got[0]


@pytest.fixture(scope="module")
def sl2_quotient(host_at):
    """The sl2 action on Q[x, y] at bound 8 and the ring A/(x)."""
    spec = load_fixture("actions/sl2_qxy_ix.json")
    algebra = cli._algebra_from_json(spec["algebra"])
    ops = {
        gid: cli._operator_columns(algebra, gid, op)
        for gid, op in spec["generators"].items()
    }
    action = ModuleAlgebraAction(host_at("sl2", 6), algebra, ops)
    ring = QuotientAlgebra(cli._ideal_from_json(algebra, spec["ideal"]))
    return action, ring


def ring_values(dim):
    """Nonzero sparse ring values with at most three nonzero coordinates in
    -2..2, so that basis vectors and annihilated pairs come up often."""
    return st.dictionaries(
        st.integers(0, dim - 1), st.integers(-2, 2).filter(bool), min_size=1, max_size=3
    )


def elements(host, ring, max_degree):
    """Elements with one to three terms on the indices up to max_degree."""
    positions = st.integers(0, host.count_up_to(max_degree) - 1)
    return st.dictionaries(positions, ring_values(ring.dim), min_size=1, max_size=3).map(
        lambda values: ConvElement(host, ring, values)
    )


BUILTINS = ["q", "m2q", "qxq", "qx2"]


@pytest.mark.parametrize("name", BUILTINS)
def test_builtin_rings_scan_like_the_pair_scan(heis, name):
    ring = builtin_ring(name)

    @settings(max_examples=60, deadline=None)
    @given(s=elements(heis, ring, 4), t=elements(heis, ring, 4))
    def check(s, t):
        assert_same_scans(s, t)

    check()


@pytest.mark.parametrize(
    "name, left, right, kind",
    [
        *[(name, 0, 0, "witness") for name in BUILTINS],
        ("m2q", 1, 2, "witness"),
        ("qxq", 0, 1, "NoWitnessFound"),
        ("qx2", 1, 1, "NoWitnessFound"),
        *[(name, 0, 0, "TruncationError") for name in BUILTINS],
    ],
)
def test_each_outcome_on_counit_pullbacks(heis, name, left, right, kind):
    """s and t with the basis values e_left and e_right at one index: the
    zero index, or the first index of degree 3, whose doubled degree is
    past the bound 4."""
    ring = builtin_ring(name)
    p = heis.count_up_to(2) if kind == "TruncationError" else 0
    s = ConvElement(heis, ring, {p: {left: Q1}})
    t = ConvElement(heis, ring, {p: {right: Q1}})
    assert assert_same_scans(s, t) == kind


def test_truncating_quotient_scans_like_the_pair_scan(sl2_quotient):
    action, ring = sl2_quotient
    host = action.host

    @settings(max_examples=60, deadline=None)
    @given(s=elements(host, ring, 2), t=elements(host, ring, 2))
    def check(s, t):
        assert_same_scans(s, t)

    check()


def test_probe_images_scan_like_the_pair_scan(sl2_quotient):
    """Images that ``core_primeness_probe`` scans: the monomials of degree
    <= 3 and the powers of y up to y^8, mapped into the convolution algebra
    over A/(x); two powers of y past y^8 together truncate the scan."""
    action, ring = sl2_quotient
    algebra = action.algebra
    images = [
        conv_map(action, ring, {i: Q1})
        for i, exps in enumerate(algebra.monomials)
        if algebra.degrees[i] <= 3 or exps[0] == 0
    ]
    kinds = {assert_same_scans(s, t) for s in images for t in images}
    assert kinds == {"witness", "TruncationError"}
