"""The position-keyed convolution layer against the code it replaced.

The oracle below is the earlier convolution layer: elements are
``{exponent vector: value}`` maps, the transposed comultiplication is
keyed by pairs of exponent vectors, leading indices are the minimum under
the reference well-order ``conftest.compare``, random elements sample the
exponent vectors themselves, values are dense tuples, and ring products
are the earlier dense product.  Library results, which are keyed by
position in ``host.indices`` and hold sparse values, are named by their
exponent vectors and made dense before they are compared.  The library must draw the same elements from the same rng
state, and give the same products, leading terms, leading-law outcomes and
witnesses, on sl2, heis and xyw at degree 6 over the four built-in rings and
a quotient ring whose lifted products truncate.  ``TableAlgebra.mul`` must
equal the dense product in value, with integral values as ``int``, and
raise ``TruncationError`` on the same pairs.
"""

import functools
import random

import pytest

from hopfcore.action import Ideal, QuotientAlgebra
from hopfcore.convolution import (
    ConvElement,
    LeadingLawOutcome,
    LeadingTerm,
    builtin_ring,
    check_leading_law,
    convolve,
    leading,
    prime_witness,
    random_conv_element,
    ring_from_tables,
)
from hopfcore.errors import NoWitnessFound, TruncationError
from hopfcore.linalg import Q0, Q1, Rational
from hopfcore.monoid import weighted_degree
from hopfcore.table import PolynomialAlgebra
from conftest import LESS, add, compare as reference_compare, dense_of, sparse_of

HOSTS = ["sl2", "heis", "xyw"]
RINGS = ["q", "m2q", "qxq", "qx2", "trunc"]
HALF_RING = {
    "name": "half",
    "basis": ["1", "h"],
    "one": {"1": "1"},
    "mult": {"1": {"1": {"1": "1"}, "h": {"h": "1"}},
             "h": {"1": {"h": "1"}, "h": {"1": "1/4"}}},
}


def ring_named(name):
    if name == "trunc":
        # Q[x] truncated at degree 2 modulo the zero ideal: x * x^2,
        # x^2 * x and x^2 * x^2 truncate
        return QuotientAlgebra(Ideal.monomial(PolynomialAlgebra(["x"], 2), []))
    if name == "half":
        return ring_from_tables(HALF_RING)
    return builtin_ring(name)


# -- the earlier code -----------------------------------------------------------


def oracle_mul(ring, u, v):
    """The earlier dense product of two dense values, accumulated over the
    table; a missing pair of the supports raises TruncationError."""
    out = [Q0] * ring.dim
    right = [(j, b) for j, b in enumerate(v) if b]
    for i, a in enumerate(u):
        if not a:
            continue
        for j, b in right:
            if (i, j) not in ring.mult:
                raise TruncationError(f"product of {i} and {j} is truncated")
            ab = a * b
            for k, c in ring.mult[i, j]:
                out[k] += ab * c
    return tuple(out)


def order_key(host):
    return functools.cmp_to_key(functools.partial(reference_compare, host.gens))


def oracle_random(host, ring, rng, max_degree, max_terms=3):
    count = sum(host.gens.count_exact(d) for d in range(max_degree + 1))
    candidates = host.indices[:count]
    count = rng.randint(1, min(max_terms, len(candidates)))
    chosen = rng.sample(candidates, count)
    values = {}
    for m in chosen:
        coords = [rng.randint(-2, 2) for _ in range(ring.dim)]
        if all(c == 0 for c in coords):
            coords[rng.randrange(ring.dim)] = Q1
        values[m] = tuple(coords)
    return values


def oracle_transposed(host):
    table = {}
    indices = host.indices
    for n, m in enumerate(indices):
        for i, j, c in host.expand_comult(n):
            table.setdefault((indices[i], indices[j]), []).append((m, c))
    return table


def oracle_convolve(host, ring, table, f, g):
    acc = {}
    for i, fv in f.items():
        for j, gv in g.items():
            targets = table.get((i, j))
            if targets is None:
                continue
            term = oracle_mul(ring, fv, gv)
            for n, c in targets:
                value = acc.get(n)
                if value is None:
                    acc[n] = [c * x for x in term]
                else:
                    for k, x in enumerate(term):
                        if x:
                            value[k] += c * x
    return {n: tuple(acc[n]) for n in sorted(acc, key=order_key(host)) if any(acc[n])}


def oracle_leading(host, f):
    idx = min(f.keys(), key=order_key(host))
    return LeadingTerm(idx, f[idx])


def oracle_leading_law(host, ring, table, f, g):
    lf, lg = oracle_leading(host, f), oracle_leading(host, g)
    total = add(lf.index, lg.index)
    if weighted_degree(total, host.gens.weights) > host.data.degree_bound:
        raise TruncationError("leading sum degree exceeds the bound")
    prod = oracle_convolve(host, ring, table, f, g)
    vanish = not any(reference_compare(host.gens, n, total) == LESS for n in prod)
    expected = oracle_mul(ring, lf.value, lg.value)
    value_ok = prod.get(total, (Q0,) * ring.dim) == expected
    nonzero = any(expected)
    term_ok = None
    if nonzero:
        term_ok = bool(prod) and oracle_leading(host, prod) == LeadingTerm(
            total, expected
        )
    return LeadingLawOutcome(lf, lg, vanish, value_ok, nonzero, term_ok)


def oracle_prime_witness(host, ring, table, s, t):
    ls, lt = oracle_leading(host, s), oracle_leading(host, t)
    total = add(ls.index, lt.index)
    if weighted_degree(total, host.gens.weights) > host.data.degree_bound:
        raise TruncationError("leading sum degree exceeds the bound")
    dim = ring.dim
    candidates = [dense_of({i: Q1}, dim) for i in range(dim)] + [
        tuple(Q1 if k in (i, j) else Q0 for k in range(dim))
        for i in range(dim)
        for j in range(i + 1, dim)
    ]
    for r in candidates:
        value = oracle_mul(ring, oracle_mul(ring, ls.value, r), lt.value)
        if not any(value):
            continue
        u = {(0,) * len(host.gens): r}
        su = oracle_convolve(host, ring, table, s, u)
        proof = oracle_leading(host, oracle_convolve(host, ring, table, su, t))
        return r, u, proof
    raise NoWitnessFound("no middle factor")


def named_terms(f):
    """A library element's terms keyed by exponent vectors, with dense
    values."""
    return [(f.host.indices[p], dense_of(v, f.ring.dim)) for p, v in f.terms()]


def named_lead(host, ring, lead):
    return LeadingTerm(host.indices[lead.index], dense_of(lead.value, ring.dim))


def named_outcome(f, g):
    """check_leading_law with its leading terms named by exponent vectors."""
    out = check_leading_law(f, g)
    return out._replace(
        lead_left=named_lead(f.host, f.ring, out.lead_left),
        lead_right=named_lead(f.host, f.ring, out.lead_right),
    )


def outcome(fn, *args):
    """fn's result, or the type of the library error it raised."""
    try:
        return fn(*args)
    except (TruncationError, NoWitnessFound) as exc:
        return type(exc)


# -- the comparisons --------------------------------------------------------------


def compare(host, ring, table, f, g, seen):
    """The library on f and g against the oracle on their terms."""
    f0, g0 = dict(named_terms(f)), dict(named_terms(g))
    assert named_lead(host, ring, leading(f)) == oracle_leading(host, f0)
    assert named_lead(host, ring, leading(g)) == oracle_leading(host, g0)

    expected = outcome(oracle_convolve, host, ring, table, f0, g0)
    product = outcome(convolve, f, g)
    if isinstance(expected, dict):
        assert named_terms(product) == list(expected.items())
    else:
        assert product is expected

    assert outcome(named_outcome, f, g) == outcome(
        oracle_leading_law, host, ring, table, f0, g0
    )

    witness = outcome(prime_witness, f, g)
    expected = outcome(oracle_prime_witness, host, ring, table, f0, g0)
    if isinstance(expected, tuple):
        r, u, proof = expected
        assert (
            dense_of(witness.r, ring.dim),
            named_terms(witness.u),
            named_lead(host, ring, witness.proof),
        ) == (r, list(u.items()), proof)
        seen.add("witness")
    else:
        assert witness is expected
        seen.add(expected)


@pytest.mark.parametrize("host_name", HOSTS)
def test_kernels_match_oracle(host_at, host_name):
    host = host_at(host_name, 6)
    table = oracle_transposed(host)
    seen = set()
    for ring_name in RINGS:
        ring = ring_named(ring_name)
        rng = random.Random(f"oracle/{host_name}/{ring_name}")
        twin = random.Random(f"oracle/{host_name}/{ring_name}")
        for trial in range(9):
            # a leading sum past degree 6 truncates from cap 4 on
            cap = (2, 3, 4)[trial % 3]
            f = random_conv_element(host, ring, rng, cap)
            g = random_conv_element(host, ring, rng, cap)
            f0 = oracle_random(host, ring, twin, cap)
            g0 = oracle_random(host, ring, twin, cap)
            # the same rng state draws the same elements, in the well-order
            assert rng.getstate() == twin.getstate()
            assert named_terms(f) == sorted(f0.items(), key=lambda e: order_key(host)(e[0]))
            assert g == ConvElement(
                host, ring, {host.index_pos[m]: sparse_of(v) for m, v in g0.items()}
            )
            compare(host, ring, table, f, g, seen)
        # basis values, which annihilate each other in qxq and qx2
        m, n = 1, len(host.indices) - 1
        for a in range(ring.dim):
            for b in range(ring.dim):
                f = ConvElement(host, ring, {m: {a: Q1}, n: ring.one})
                g = ConvElement(host, ring, {m: {b: Q1}})
                compare(host, ring, table, f, g, seen)
    assert seen == {"witness", TruncationError, NoWitnessFound}


def typed(v):
    return [(type(x), x) for x in v]


@pytest.mark.parametrize("ring_name", RINGS + ["half"])
def test_table_mul_matches_sparse_round_trip(ring_name):
    """Dense values through sparse_of, mul and dense_of against the dense
    product."""
    ring = ring_named(ring_name)
    rng = random.Random(f"mul/{ring_name}")
    vectors = [dense_of({i: Q1}, ring.dim) for i in range(ring.dim)]
    vectors += [
        tuple(rng.choice((0, 1, -2, Rational(1, 2), Rational(-3, 4)))
              for _ in range(ring.dim))
        for _ in range(8)
    ]
    truncated = 0
    for u in vectors:
        for v in vectors:
            expected = outcome(oracle_mul, ring, u, v)
            got = outcome(ring.mul, sparse_of(u), sparse_of(v))
            if expected is TruncationError:
                truncated += 1
                assert got is TruncationError
            else:
                assert all(got.values())
                assert typed(dense_of(got, ring.dim)) == typed(expected)
    assert bool(truncated) == (ring_name == "trunc")
