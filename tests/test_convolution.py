import random
from fractions import Fraction as F

import pytest

from hopfcore.convolution import (
    ConvElement,
    LeadingTerm,
    builtin_ring,
    check_leading_law,
    convolve,
    counit_pullback,
    leading,
    prime_refuter,
    prime_witness,
    random_conv_element,
    ring_check,
    ring_from_tables,
    semiprime_refuter,
    semiprime_witness,
    u_star,
    unit_conv,
)
from hopfcore.errors import (
    HostMismatch,
    NoWitnessFound,
    RingMismatch,
    TruncationError,
    ZeroElement,
)
from hopfcore.monoid import MultiIndex, ZERO_INDEX


def mi(**kw):
    return MultiIndex.make(kw)


# -- rings -------------------------------------------------------------------


def test_ring_check_builtins():
    for name in ("q", "m2q", "qxq", "qx2"):
        assert ring_check(builtin_ring(name)).passed


def test_m2q_table():
    m2 = builtin_ring("m2q")
    e11, e12, e21, e22 = (m2.basis_vec(i) for i in range(4))
    assert m2.mul(e11, e12) == e12
    assert m2.mul(e12, e21) == e11
    assert m2.mul(e12, e12) == m2.zero()
    assert m2.mul(e11, e22) == m2.zero()


def test_ring_check_flags_correction():
    wrong = ring_from_tables(
        {
            "name": "bad",
            "basis": ["e1", "e2"],
            "one": {"e1": "1", "e2": "1"},
            "mult": {"e1": {"e1": {"e1": "1"}}, "e2": {"e2": {"e2": "1"}}},
            "flags": {"prime": True, "semiprime": True, "domain": False},
        }
    )
    rep = ring_check(wrong)
    assert not rep.passed
    assert any(l.check == "flag-prime" for l in rep.failures())



@pytest.mark.parametrize(
    "name, pair, nil",
    [("q", None, None), ("m2q", None, None), ("qxq", (0, 1), None), ("qx2", (1, 1), 1)],
)
def test_refuters(name, pair, nil):
    """The refuter scans, and the ring_check details that report them."""
    ring = builtin_ring(name)
    assert prime_refuter(ring) == pair
    assert semiprime_refuter(ring) == nil
    details = {line.check: line.detail for line in ring_check(ring).lines}
    if pair is not None:
        a, b = ring.label(pair[0]), ring.label(pair[1])
        assert details["flag-prime"] == f"refuted by pair {a},{b}"
    else:
        assert details["flag-prime"] == "witness for every basis pair"
    if nil is not None:
        assert details["flag-semiprime"] == f"refuted by {ring.label(nil)}"
    else:
        assert details["flag-semiprime"] == ""


# -- convolution --------------------------------------------------------------


def test_unit_convolution_identity(qt):
    q = builtin_ring("q")
    u = unit_conv(qt, q)
    assert u.value(ZERO_INDEX) == q.unit_vector()
    assert u.value(mi(t=1)) == q.zero()
    assert convolve(u, u) == u
    f = ConvElement(qt, q, {mi(t=1): (F(3),), mi(t=2): (F(-1),)})
    assert convolve(f, u) == f
    assert convolve(u, f) == f


def test_convolution_divided_line(qt):
    q = builtin_ring("q")
    f = ConvElement(qt, q, {mi(t=1): (F(2),)})
    g = ConvElement(qt, q, {mi(t=1): (F(7),)})
    fg = convolve(f, g)
    assert fg.value(ZERO_INDEX) == q.zero()
    assert fg.value(mi(t=1)) == q.zero()
    assert fg.value(mi(t=2)) == (F(14),)


def test_counit_pullback_scales(qt):
    q = builtin_ring("q")
    f = counit_pullback(qt, q, (F(5),))
    g = ConvElement(qt, q, {mi(t=1): (F(2),), mi(t=3): (F(1),)})
    fg = convolve(f, g)
    for m in qt.indices:
        assert fg.value(m) == tuple(F(5) * x for x in g.value(m))


def test_mismatch_errors(qt, heis):
    q = builtin_ring("q")
    m2 = builtin_ring("m2q")
    f = unit_conv(qt, q)
    with pytest.raises(HostMismatch):
        convolve(f, unit_conv(heis, q))
    with pytest.raises(RingMismatch):
        convolve(f, unit_conv(qt, m2))


def test_associativity_random(heis):
    m2 = builtin_ring("m2q")
    rng = random.Random(19)
    for _ in range(20):
        f = random_conv_element(heis, m2, rng, 2)
        g = random_conv_element(heis, m2, rng, 1)
        h = random_conv_element(heis, m2, rng, 1)
        assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))


def test_u_star_multiplicative(heis):
    m2 = builtin_ring("m2q")
    rng = random.Random(29)
    for _ in range(30):
        f = random_conv_element(heis, m2, rng, 2)
        g = random_conv_element(heis, m2, rng, 2)
        assert u_star(convolve(f, g)) == m2.mul(u_star(f), u_star(g))


# -- leading terms -------------------------------------------------------------


def test_leading_examples(qt, heis):
    q = builtin_ring("q")
    assert leading(unit_conv(qt, q)) == LeadingTerm(ZERO_INDEX, q.unit_vector())
    f = ConvElement(qt, q, {mi(t=1): (F(4),), mi(t=2): (F(9),)})
    assert leading(f) == LeadingTerm(mi(t=1), (F(4),))
    with pytest.raises(ZeroElement):
        leading(ConvElement(qt, q, {}))
    # tie at equal degree resolves at the largest differing generator
    g = ConvElement(heis, q, {mi(x=2): (F(1),), mi(x=1, y=1): (F(2),)})
    assert leading(g).index == mi(x=2)


# -- the leading-term law --------------------------------------------------------


def test_leading_law_line_pair(qt):
    q = builtin_ring("q")
    f = ConvElement(qt, q, {mi(t=1): (F(2),)})
    g = ConvElement(qt, q, {mi(t=1): (F(7),)})
    out = check_leading_law(f, g)
    assert out.passed and out.product_nonzero and out.leading_term_ok


def test_leading_law_annihilating_leads(heis):
    m2 = builtin_ring("m2q")
    s = ConvElement(
        heis,
        m2,
        {ZERO_INDEX: m2.basis_vec(0), mi(x=1): m2.basis_vec(1)},
    )
    t = ConvElement(heis, m2, {ZERO_INDEX: m2.basis_vec(3)})
    out = check_leading_law(s, t)
    # E11 * E22 = 0: the vanishing clause still holds, clause (b) inapplicable
    assert out.vanishing_ok and out.leading_value_ok
    assert not out.product_nonzero and out.leading_term_ok is None


def test_leading_law_with_unit(heis):
    m2 = builtin_ring("m2q")
    rng = random.Random(37)
    g = random_conv_element(heis, m2, rng, 2)
    out = check_leading_law(unit_conv(heis, m2), g)
    assert out.passed
    assert out.lead_right.index == leading(g).index


def test_leading_law_truncation(heis):
    q = builtin_ring("q")
    f = ConvElement(heis, q, {mi(x=3): (F(1),)})
    g = ConvElement(heis, q, {mi(y=3): (F(1),)})
    with pytest.raises(TruncationError):
        check_leading_law(f, g)


def test_leading_law_random_all_rings(heis):
    rng = random.Random(41)
    for name in ("q", "m2q", "qxq", "qx2"):
        ring = builtin_ring(name)
        for _ in range(50):
            f = random_conv_element(heis, ring, rng, 2)
            g = random_conv_element(heis, ring, rng, 2)
            assert check_leading_law(f, g).passed


# -- witnesses ------------------------------------------------------------------


def test_prime_witness_matrix_units(heis):
    m2 = builtin_ring("m2q")
    s = counit_pullback(heis, m2, m2.basis_vec(0))
    t = counit_pullback(heis, m2, m2.basis_vec(3))
    w = prime_witness(s, t)
    assert w.r == m2.basis_vec(1)  # E12: E11*E12*E22 = E12
    assert w.proof == LeadingTerm(ZERO_INDEX, m2.basis_vec(1))


def test_prime_witness_domain_case(heis):
    q = builtin_ring("q")
    rng = random.Random(43)
    s = random_conv_element(heis, q, rng, 2)
    t = random_conv_element(heis, q, rng, 2)
    w = prime_witness(s, t)
    assert w.r == q.unit_vector()
    expected = q.mul(q.mul(leading(s).value, w.r), leading(t).value)
    assert w.proof.value == expected


def test_prime_witness_refutes_qxq(heis):
    qxq = builtin_ring("qxq")
    s = counit_pullback(heis, qxq, qxq.basis_vec(0))
    t = counit_pullback(heis, qxq, qxq.basis_vec(1))
    with pytest.raises(NoWitnessFound):
        prime_witness(s, t)


def test_semiprime_witness_qxq(heis):
    qxq = builtin_ring("qxq")
    s = counit_pullback(heis, qxq, qxq.basis_vec(0))
    w = semiprime_witness(s)
    value = qxq.mul(qxq.mul(qxq.basis_vec(0), w.r), qxq.basis_vec(0))
    assert not qxq.is_zero(value)


def test_semiprime_refuted_qx2(heis):
    qx2 = builtin_ring("qx2")
    s = counit_pullback(heis, qx2, qx2.basis_vec(1))
    with pytest.raises(NoWitnessFound):
        semiprime_witness(s)
    assert convolve(s, s).is_zero


def test_semiprime_witness_m2q(heis):
    m2 = builtin_ring("m2q")
    rng = random.Random(47)
    for _ in range(10):
        s = random_conv_element(heis, m2, rng, 2)
        w = semiprime_witness(s)
        assert not convolve(convolve(s, w.u), s).is_zero
