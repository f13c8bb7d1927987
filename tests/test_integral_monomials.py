"""Divided-power monomials kept as an integral vector over one denominator,
against the rational arithmetic they replace.

``RationalOracle`` is the rational form of the checks: every monomial
built as (1/k) lift_g e_(m - g) in ``Fraction`` coordinates, the expansion
by the inverse of the matrix of those coordinates, and ``structure_constant``,
``expand_comult`` and ``check_span_closure`` computed on them as they were
before the monomials became integral."""

import random
from fractions import Fraction as F
from math import comb, gcd, prod

import pytest

from hopfcore.coalgebra import SAMPLE_COEFFS, build_xyw, instance_from_json
from hopfcore.errors import (
    BasisDefect,
    ExpansionViolation,
    HopfcoreError,
    TruncationError,
)
from hopfcore.linalg import Q0, Q1, combine, exact, integral, inverse, nonzero
from hopfcore.pbw import PBWStructure
from hopfcore.report import FAIL, PASS, Report
from conftest import instance_to_json, load_fixture, rational_monomial, run_check


class RationalOracle:
    def __init__(self, host: PBWStructure):
        self.host = host
        self.monomials = {}
        self.raw_to_pbw = None

    def monomial(self, p):
        if p not in self.monomials:
            host = self.host
            if p == 0:
                v = {host.data.unit_index: Q1}
            else:
                t, k, rest = host.first_factor(p)
                v = host.data.mul(host.lifts[host.gens.ids[t]], self.monomial(rest))
                v = {i: exact(a * F(1, k)) for i, a in v.items()}
            self.monomials[p] = v
        return self.monomials[p]

    def pbw_coords(self, v):
        self.host._basis_change()  # raises BasisDefect where the library does
        if self.raw_to_pbw is None:
            rows = [self.monomial(p) for p in range(len(self.host.indices))]
            self.raw_to_pbw = inverse(rows, self.host.data.dim)
        return dict(sorted(combine(self.raw_to_pbw, v).items()))

    def structure_constant(self, p, q):
        host = self.host
        total = host.index_sum(p, q)
        if total is None:
            raise TruncationError("product degree exceeds the bound")
        c = prod(comb(a + b, a) for a, b in zip(host.indices[p], host.indices[q]))
        defect = host.data.mul(self.monomial(p), self.monomial(q))
        for k, a in self.monomial(total).items():
            defect[k] = defect.get(k, Q0) - c * a
        deg = host.degrees[total]
        if deg == 0:
            ok = not any(defect.values())
        else:
            ok = host.filt.layers[deg - 1].contains(defect)
        if not ok:
            name = host.labels
            raise BasisDefect(f"defect of e_{name[p]} e_{name[q]} escapes layer {deg - 1}")
        return c, nonzero(defect)

    def expand_comult(self, p):
        self.pbw_coords({})
        host = self.host
        tmap = host.data.comult_map(self.monomial(p))
        acc = {}
        for (a, b), coeff in tmap.items():
            for i, ci in self.raw_to_pbw[a].items():
                for j, cj in self.raw_to_pbw[b].items():
                    acc[i, j] = acc.get((i, j), Q0) + coeff * ci * cj
        out = []
        degrees, name = host.degrees, host.labels
        for (i, j), c in sorted(acc.items()):
            if not c:
                continue
            if degrees[i] + degrees[j] > degrees[p]:
                raise ExpansionViolation(
                    f"term e_{name[i]} (x) e_{name[j]} of "
                    f"Delta(e_{name[p]}) exceeds degree {degrees[p]}"
                )
            out.append((i, j, exact(c)))
        return out

    def check_span_closure(self, rep: Report, rng, samples):
        host = self.host
        bound = host.data.degree_bound

        def sample_elem(top):
            coeffs = {i: rng.randint(-2, 2) for i in range(top + 1)}
            return combine({i: self.monomial(i) for i, c in coeffs.items() if c}, coeffs)

        for trial in range(samples):
            n = rng.randrange(host.count_up_to(bound // 2))
            m = rng.randrange(host.count_up_to(bound - host.degrees[n]))
            top = host.index_sum(n, m)
            u, w = sample_elem(n), sample_elem(m)
            support = self.pbw_coords(host.data.mul(u, w))
            bad = [i for i in support if i > top]
            rep.add(
                "span-closure",
                f"trial {trial} (n={host.labels[n]}, m={host.labels[m]})",
                PASS if not bad else FAIL,
                f"escaped at {host.labels[bad[0]]}" if bad else "",
            )


def outcome(fn, *args):
    """The value of fn(*args), or the type and text of the error it raises."""
    try:
        return "value", fn(*args)
    except HopfcoreError as exc:
        return "error", type(exc).__name__, str(exc)


def is_exact(x):
    return type(x) is int or x.denominator > 1


def rescaled_xyw(degree, scales):
    """The raw instance of xyw on the basis b_i = s_i e_i, with s_i from
    ``scales`` by label (1 elsewhere): rational tables whose monomials and
    products have denominators that are not factorials."""
    obj = instance_to_json(build_xyw(degree))
    tables = obj["tables"]
    s = {label: F(scales.get(label, 1)) for label in tables["basis"]}

    def text(x):
        return str(exact(x))

    tables["mult"] = {
        a: {
            b: {k: text(s[a] * s[b] * F(c) / s[k]) for k, c in terms.items()}
            for b, terms in row.items()
        }
        for a, row in tables["mult"].items()
    }
    tables["comult"] = {
        a: [[j, k, text(s[a] * F(c) / (s[j] * s[k]))] for j, k, c in row]
        for a, row in tables["comult"].items()
    }
    tables["counit"] = {a: text(s[a] * F(c)) for a, c in tables["counit"].items()}
    tables["antipode"] = {
        a: {k: text(s[a] * F(c) / s[k]) for k, c in terms.items()}
        for a, terms in tables["antipode"].items()
    }
    return instance_from_json(obj)


def fixture_host(name, degree):
    return PBWStructure.from_bialgebra(
        instance_from_json(load_fixture(f"instances/{name}.json"), degree)
    )


CASES = [
    (name, degree)
    for name in ("dq", "heis", "qt", "sl2", "xyw")
    for degree in (3, 4, 5, 6)
] + [("shifted_line", None), ("xyw_corrupt", None), ("xyw", 8)]
SCALES = {"x": "1/3", "y": "2/5", "w": 6, "x^2": "1/2", "x*w": "3/7"}


def host_of(case):
    if case == "xyw-rescaled":
        return PBWStructure.from_bialgebra(rescaled_xyw(5, SCALES))
    if case == "heis-bent-lift":
        # x lifted with a degree-2 term: its monomials leave their layers,
        # and the checks raise
        host = fixture_host("heis", 4)
        bent = host.data.basis_labels.index("x*y")
        host.lifts["x"] = {**host.lifts["x"], bent: Q1}
        return host
    return fixture_host(*case)


ALL_CASES = CASES + ["xyw-rescaled", "heis-bent-lift"]
IDS = [c if isinstance(c, str) else f"{c[0]}-D{c[1]}" for c in ALL_CASES]


@pytest.mark.parametrize("case", ALL_CASES, ids=IDS)
def test_integral_monomials_scale_the_rational_ones(case):
    """d e_m is the integral vector, with d the least such denominator, and
    the integral vector over d is the rational monomial the oracle builds."""
    host = host_of(case)
    oracle = RationalOracle(host)
    for p in range(len(host.indices)):
        got = outcome(rational_monomial, host, p)
        assert got == outcome(oracle.monomial, p)
        if got[0] == "error":
            continue
        rational = got[1]
        assert all(is_exact(a) for a in rational.values())
        d, v = host.integral_monomial(p)
        assert type(d) is int and d > 0
        assert all(type(a) is int and a for a in v.values())
        assert gcd(d, *v.values()) == 1
        assert {i: d * a for i, a in rational.items()} == v


def test_rescaled_xyw_has_denominators_past_the_factorials():
    host = host_of("xyw-rescaled")
    dens = {host.integral_monomial(p)[0] for p in range(len(host.indices))}
    assert any(d % 5 == 0 or d % 7 == 0 for d in dens), dens


@pytest.mark.parametrize("case", ALL_CASES, ids=IDS)
def test_structure_constants_match_rational_oracle(case):
    host = host_of(case)
    oracle = RationalOracle(host)
    n = len(host.indices)
    for p in range(n):
        for q in range(n):
            if host.index_sum(p, q) is None:
                continue
            got = outcome(host.structure_constant, p, q)
            assert got == outcome(oracle.structure_constant, p, q)
            if got[0] == "value":
                assert all(is_exact(a) for a in got[1][1].values())


@pytest.mark.parametrize("case", ALL_CASES, ids=IDS)
def test_comult_expansions_match_rational_oracle(case):
    host = host_of(case)
    oracle = RationalOracle(host)
    for p in range(len(host.indices)):
        got = outcome(host.expand_comult, p)
        assert got == outcome(oracle.expand_comult, p)
        if got[0] == "value":
            assert all(is_exact(c) for _, _, c in got[1])


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", ALL_CASES, ids=IDS)
def test_span_closure_matches_rational_oracle(case, seed):
    """The same lines from the same draws: both generators end in the same
    state."""
    host = host_of(case)
    oracle = RationalOracle(host)
    trials = 15 if case == ("xyw", 8) else 40
    mine, theirs = random.Random(seed), random.Random(seed)
    expected = outcome(lambda: run_check(oracle.check_span_closure, theirs, trials).lines)
    got = outcome(lambda: run_check(host.check_span_closure, mine, trials).lines)
    assert got == expected
    if got[0] == "value":
        assert mine.getstate() == theirs.getstate()


def count_fractions(monkeypatch, fn):
    """The number of ``Fraction`` objects fn() creates."""
    created = 0

    def counting(original):
        def wrapper(*args, **kwargs):
            nonlocal created
            created += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(F, "__new__", counting(F.__new__))
    if hasattr(F, "_from_coprime_ints"):  # arithmetic bypasses __new__ here
        original = F._from_coprime_ints.__func__
        monkeypatch.setattr(
            F, "_from_coprime_ints", classmethod(counting(original))
        )
    fn()
    monkeypatch.undo()
    return created


def test_span_closure_makes_no_fractions(monkeypatch):
    """On xyw D5, 200 trials of the span closure made 11,575 ``Fraction``
    objects when the monomials were rational; integral monomials leave at
    most one per monomial (their first rational views), so a return to
    rational inner loops fails here without a timer."""
    host = PBWStructure.from_bialgebra(build_xyw(5))
    host.pbw_coords({})  # the expansion basis, as the checks before it leave it
    assert max(host.integral_monomial(p)[0] for p in range(len(host.indices))) > 1
    created = count_fractions(
        monkeypatch, lambda: run_check(host.check_span_closure, random.Random(0), 200)
    )
    assert created <= len(host.indices), created
    oracle = RationalOracle(host)
    rational = count_fractions(
        monkeypatch, lambda: run_check(oracle.check_span_closure, random.Random(0), 200)
    )
    assert rational > 100 * len(host.indices), rational


def test_integral_lowest_terms():
    assert integral({0: F(1, 2), 3: F(-1, 3)}) == (6, {0: 3, 3: -2})
    assert integral({0: F(3, 2), 1: 1}) == (2, {0: 3, 1: 2})
    assert integral({0: 4, 1: -6}, 4) == (2, {0: 2, 1: -3})
    assert integral({0: F(2, 3)}, 4) == (6, {0: 1})
    v = {0: 3, 2: 5}
    d, w = integral(v, 2)
    assert (d, w) == (2, v) and w is v


def test_choice_draws_as_randint_does():
    """rng.choice over the values randint(a, b) takes, or over a range, calls
    _randbelow once with the same bound, so the values and the generator
    state agree draw for draw."""
    for seed in range(200):
        old, new = random.Random(seed), random.Random(seed)
        for bound in range(1, 9):
            assert old.randint(-2, 2) == new.choice(SAMPLE_COEFFS)
            assert old.randint(1, bound) == new.choice(range(1, bound + 1))
            assert old.randrange(bound) == new.choice(range(bound))
        assert old.getstate() == new.getstate()
