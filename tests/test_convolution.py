import random
from fractions import Fraction as F

import pytest

from hopfcore.action import Ideal, QuotientAlgebra
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
)
from hopfcore.errors import (
    HopfcoreError,
    InputFormatError,
    NoWitnessFound,
    TruncationError,
)
from hopfcore.table import PolynomialAlgebra
from conftest import at, run_check


def mi(**kw):
    """An index named by its multiplicities, as a hashable key."""
    return tuple(sorted(kw.items()))


def conv(host, ring, values):
    """A ConvElement from values keyed by ``mi`` names."""
    return ConvElement(host, ring, {at(host, **dict(m)): v for m, v in values.items()})


# -- rings -------------------------------------------------------------------


def test_ring_check_builtins():
    for name in ("q", "m2q", "qxq", "qx2"):
        assert run_check(ring_check, builtin_ring(name)).passed


def test_m2q_table():
    m2 = builtin_ring("m2q")
    e11, e12, e21, e22 = ({i: 1} for i in range(4))
    assert m2.mul(e11, e12) == e12
    assert m2.mul(e12, e21) == e11
    assert m2.mul(e12, e12) == {}
    assert m2.mul(e11, e22) == {}


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
    rep = run_check(ring_check, wrong)
    assert not rep.passed
    assert any(l.check == "flag-prime" and l.status == "FAIL" for l in rep.lines)



@pytest.mark.parametrize(
    "name, pair, nil",
    [("q", None, None), ("m2q", None, None), ("qxq", (0, 1), None), ("qx2", (1, 1), 1)],
)
def test_refuters(name, pair, nil):
    """The refuter scans, and the ring_check details that report them."""
    ring = builtin_ring(name)
    assert prime_refuter(ring) == pair
    assert semiprime_refuter(ring) == nil
    details = {line.check: line.detail for line in run_check(ring_check, ring).lines}
    if pair is not None:
        a, b = ring.basis_labels[pair[0]], ring.basis_labels[pair[1]]
        assert details["flag-prime"] == f"refuted by pair {a},{b}"
    else:
        assert details["flag-prime"] == "witness for every basis pair"
    if nil is not None:
        assert details["flag-semiprime"] == f"refuted by {ring.basis_labels[nil]}"
    else:
        assert details["flag-semiprime"] == ""


# -- convolution --------------------------------------------------------------


def test_unit_convolution_identity(qt):
    q = builtin_ring("q")
    u = counit_pullback(qt, q, q.one)
    assert qt.indices[0] == (0,)
    assert u.value(0) == q.one
    assert u.value(at(qt, t=1)) == {}
    assert convolve(u, u) == u
    f = conv(qt, q, {mi(t=1): {0: F(3)}, mi(t=2): {0: F(-1)}})
    assert convolve(f, u) == f
    assert convolve(u, f) == f


def test_convolution_divided_line(qt):
    q = builtin_ring("q")
    f = conv(qt, q, {mi(t=1): {0: F(2)}})
    g = conv(qt, q, {mi(t=1): {0: F(7)}})
    fg = convolve(f, g)
    assert fg.value(0) == {}
    assert fg.value(at(qt, t=1)) == {}
    assert fg.value(at(qt, t=2)) == {0: F(14)}


def test_counit_pullback_scales(qt):
    q = builtin_ring("q")
    f = counit_pullback(qt, q, {0: F(5)})
    g = conv(qt, q, {mi(t=1): {0: F(2)}, mi(t=3): {0: F(1)}})
    fg = convolve(f, g)
    for p in range(len(qt.indices)):
        assert fg.value(p) == {k: F(5) * x for k, x in g.value(p).items()}


def test_positions_outside_the_host(qt):
    q = builtin_ring("q")
    for p in (-1, len(qt.indices)):
        with pytest.raises(InputFormatError, match="does not live on this host"):
            ConvElement(qt, q, {p: {0: F(1)}})


def test_mismatch_errors(qt, heis):
    q = builtin_ring("q")
    m2 = builtin_ring("m2q")
    f = counit_pullback(qt, q, q.one)
    with pytest.raises(HopfcoreError, match="^operands live over different hosts$"):
        convolve(f, counit_pullback(heis, q, q.one))
    with pytest.raises(HopfcoreError, match="^q vs m2q$"):
        convolve(f, counit_pullback(qt, m2, m2.one))


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
        # evaluation at the unit, the value at position 0, is multiplicative
        assert convolve(f, g).value(0) == m2.mul(f.value(0), g.value(0))


def _by_definition(f, g):
    """(f * g)(e_n) = sum of c f(e_i) g(e_j) over the terms c e_i (x) e_j
    of Delta(e_n), index by index."""
    host, ring = f.host, f.ring
    values = {}
    for n in range(len(host.indices)):
        acc = {}
        for i, j, c in host.expand_comult(n):
            fi, gj = f.value(i), g.value(j)
            if not fi or not gj:
                continue
            for k, x in ring.mul(fi, gj).items():
                acc[k] = acc.get(k, 0) + c * x
        values[n] = acc
    return ConvElement(host, ring, values)


@pytest.mark.parametrize("host_name", ["sl2", "heis", "xyw"])
def test_convolve_matches_definition(host_at, host_name):
    host = host_at(host_name, 6)
    rng = random.Random(f"convolve/{host_name}")
    for ring_name in ("q", "m2q", "qxq", "qx2"):
        ring = builtin_ring(ring_name)
        for _ in range(8):
            f = random_conv_element(host, ring, rng, 4)
            g = random_conv_element(host, ring, rng, 3)
            product = convolve(f, g)
            assert product == _by_definition(f, g)
            # values come out in host-index order
            support = [n for n, _ in product.terms()]
            assert support == [n for n in range(len(host.indices)) if n in support]


def test_convolve_truncating_quotient_ring(host_at):
    # Q[x] truncated at degree 2 modulo the zero ideal: the lifted
    # products x * x^2, x^2 * x and x^2 * x^2 truncate
    ring = QuotientAlgebra(Ideal.monomial(PolynomialAlgebra(["x"], 2), []))
    assert ring.basis_labels == ("1", "x", "x^2")
    host = host_at("heis", 6)
    rng = random.Random(7)

    def below_x2(f):
        return ConvElement(
            host, ring, {m: {k: c for k, c in v.items() if k < 2} for m, v in f.terms()}
        )

    raised = agreed = 0
    for trial in range(30):
        f = random_conv_element(host, ring, rng, 3)
        g = random_conv_element(host, ring, rng, 3)
        if trial % 2:
            f, g = below_x2(f), below_x2(g)
        try:
            expected = _by_definition(f, g)
        except TruncationError:
            with pytest.raises(TruncationError):
                convolve(f, g)
            raised += 1
        else:
            assert convolve(f, g) == expected
            agreed += 1
    assert raised and agreed


# -- leading terms -------------------------------------------------------------


def test_leading_examples(qt, heis):
    q = builtin_ring("q")
    one = q.one
    assert leading(counit_pullback(qt, q, one)) == LeadingTerm(0, one)
    f = conv(qt, q, {mi(t=1): {0: F(4)}, mi(t=2): {0: F(9)}})
    assert leading(f) == LeadingTerm(at(qt, t=1), {0: F(4)})
    with pytest.raises(HopfcoreError, match="^leading term of the zero element$"):
        leading(ConvElement(qt, q, {}))
    # tie at equal degree resolves at the largest differing generator
    g = conv(heis, q, {mi(x=2): {0: F(1)}, mi(x=1, y=1): {0: F(2)}})
    assert leading(g).index == at(heis, x=2)


# -- the leading-term law --------------------------------------------------------


def test_leading_law_line_pair(qt):
    q = builtin_ring("q")
    f = conv(qt, q, {mi(t=1): {0: F(2)}})
    g = conv(qt, q, {mi(t=1): {0: F(7)}})
    out = check_leading_law(f, g)
    assert out.passed and out.product_nonzero and out.leading_term_ok


def test_leading_law_annihilating_leads(heis):
    m2 = builtin_ring("m2q")
    s = conv(
        heis,
        m2,
        {mi(): {0: 1}, mi(x=1): {1: 1}},
    )
    t = conv(heis, m2, {mi(): {3: 1}})
    out = check_leading_law(s, t)
    # E11 * E22 = 0: the vanishing clause still holds, clause (b) inapplicable
    assert out.vanishing_ok and out.leading_value_ok
    assert not out.product_nonzero and out.leading_term_ok is None


def test_leading_law_with_unit(heis):
    m2 = builtin_ring("m2q")
    rng = random.Random(37)
    g = random_conv_element(heis, m2, rng, 2)
    out = check_leading_law(counit_pullback(heis, m2, m2.one), g)
    assert out.passed
    assert out.lead_right.index == leading(g).index


def test_leading_law_truncation(heis):
    q = builtin_ring("q")
    f = conv(heis, q, {mi(x=3): {0: F(1)}})
    g = conv(heis, q, {mi(y=3): {0: F(1)}})
    with pytest.raises(TruncationError):
        check_leading_law(f, g)


def test_leading_law_flags_a_broken_product(heis, monkeypatch):
    """A product with a term below the leading sum, or a wrong value at
    it, fails the law."""
    from hopfcore import convolution

    q = builtin_ring("q")
    f = conv(heis, q, {mi(x=1): {0: F(2)}})
    g = conv(heis, q, {mi(y=1): {0: F(3)}})
    real = convolution.convolve
    # the position just below the leading sum x + y
    below = at(heis, x=1, y=1) - 1
    for extra, clauses in (
        ({below: {0: F(1)}}, (False, True, False)),
        ({at(heis, x=1, y=1): {0: F(5)}}, (True, False, False)),
    ):
        monkeypatch.setattr(
            convolution,
            "convolve",
            lambda a, b: ConvElement(heis, q, {**dict(real(a, b).terms()), **extra}),
        )
        out = check_leading_law(f, g)
        assert (out.vanishing_ok, out.leading_value_ok, out.leading_term_ok) == clauses
        assert not out.passed


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
    s = counit_pullback(heis, m2, {0: 1})
    t = counit_pullback(heis, m2, {3: 1})
    w = prime_witness(s, t)
    assert w.r == {1: 1}  # E12: E11*E12*E22 = E12
    assert w.proof == LeadingTerm(0, {1: 1})


def test_prime_witness_domain_case(heis):
    q = builtin_ring("q")
    rng = random.Random(43)
    s = random_conv_element(heis, q, rng, 2)
    t = random_conv_element(heis, q, rng, 2)
    w = prime_witness(s, t)
    assert w.r == q.one
    expected = q.mul(q.mul(leading(s).value, w.r), leading(t).value)
    assert w.proof.value == expected


def test_prime_witness_refutes_qxq(heis):
    qxq = builtin_ring("qxq")
    s = counit_pullback(heis, qxq, {0: 1})
    t = counit_pullback(heis, qxq, {1: 1})
    with pytest.raises(NoWitnessFound):
        prime_witness(s, t)


def test_semiprime_witness_qxq(heis):
    qxq = builtin_ring("qxq")
    s = counit_pullback(heis, qxq, {0: 1})
    w = semiprime_witness(s)
    value = qxq.mul(qxq.mul({0: 1}, w.r), {0: 1})
    assert value


def test_semiprime_refuted_qx2(heis):
    qx2 = builtin_ring("qx2")
    s = counit_pullback(heis, qx2, {1: 1})
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
