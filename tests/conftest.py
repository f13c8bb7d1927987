import io
import json
import os
import pathlib
from collections import namedtuple
from fractions import Fraction
from functools import cache

import pytest

from hopfcore import build_ueg, build_xyw
from hopfcore.coalgebra import instance_from_json
from hopfcore.linalg import Q0, Subspace, exact, rat, rat_str
from hopfcore.monoid import weighted_degree
from hopfcore.pbw import PBWStructure
from hopfcore.report import FAIL, Report

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"

LESS, EQUAL, GREATER = -1, 0, 1

# one checked subject of a report; every field is a string
CheckLine = namedtuple("CheckLine", "check subject status detail", defaults=("",))


class Checked(namedtuple("Checked", "lines counts")):
    """The check lines of one finished report, read back from its text, and
    the report's counts by status."""

    __slots__ = ()

    @property
    def passed(self):
        return all(line.status != FAIL for line in self.lines)


def run_check(check, *args):
    """Run ``check(rep, *args)`` into a ``Report`` on a text stream, finish
    the report and read its ``checks`` back as ``CheckLine``s.  A report
    without lines has no ``checks``, which reads as no lines."""
    out = io.StringIO()
    rep = Report(out)
    check(rep, *args)
    rep.finish({})
    lines = [CheckLine(**line) for line in json.loads(out.getvalue()).get("checks", [])]
    assert sum(rep.counts.values()) == len(lines)
    return Checked(lines, rep.counts)


def compare(gens, m, n):
    """The well-order on the exponent vectors of a generator set: degree
    first, then the multiplicity at the largest generator where m and n
    differ.  This is the reference that the library's position order (the
    order of ``GeneratorSet.enumerate_up_to``) is tested against."""
    dm, dn = weighted_degree(m, gens.weights), weighted_degree(n, gens.weights)
    if dm != dn:
        return LESS if dm < dn else GREATER
    differing = [t for t in range(len(gens)) if m[t] != n[t]]
    if not differing:
        return EQUAL
    t = differing[-1]
    return LESS if m[t] < n[t] else GREATER


def exps(gens, **mults):
    """The exponent vector of gens with these multiplicities, by id."""
    assert set(mults) <= set(gens.ids), mults
    return tuple(mults.get(gid, 0) for gid in gens.ids)


def add(m, n):
    """The entrywise sum of two exponent vectors."""
    return tuple(a + b for a, b in zip(m, n))


def at(host, **mults):
    """The position in host.indices of the index with these
    multiplicities."""
    return host.index_pos[exps(host.gens, **mults)]


def instance_to_json(data):
    """The raw instance file of a built instance, which
    ``instance_from_json`` reads back to the same tables."""
    labels = data.basis_labels
    mult: dict[str, dict[str, dict[str, str]]] = {}
    for (i, j), terms in sorted(data.mult.items()):
        mult.setdefault(labels[i], {})[labels[j]] = {
            labels[k]: rat_str(c) for k, c in terms
        }
    comult = {
        labels[i]: [[labels[j], labels[k], rat_str(c)] for j, k, c in row]
        for i, row in enumerate(data.comult)
    }
    out = {
        "kind": "raw",
        "degree_bound": data.degree_bound,
        "tables": {
            "basis": list(labels),
            "unit": labels[data.unit_index],
            "mult": mult,
            "comult": comult,
            "counit": {
                labels[i]: rat_str(c) for i, c in enumerate(data.counit) if c
            },
        },
    }
    if data.antipode is not None:
        out["tables"]["antipode"] = {
            labels[i]: {labels[k]: rat_str(c) for k, c in terms}
            for i, terms in sorted(data.antipode.items())
        }
    if data.degrees is not None:
        out["tables"]["degrees"] = {
            labels[i]: d for i, d in enumerate(data.degrees)
        }
    return out


def sparse_of(values):
    """The sparse vector {index: coefficient} of a list of values, each read
    by ``rat``, without zeros."""
    return {i: c for i, c in enumerate(map(rat, values)) if c}


def rational_monomial(pbw, p):
    """e_m for the index m at position p as its nonzero raw coordinates:
    the vector of ``PBWStructure.integral_monomial`` over its denominator."""
    d, v = pbw.integral_monomial(p)
    return {i: exact(Fraction(a, d)) for i, a in v.items()}


def normal_labels(ideal):
    """The basis labels of A/I: the labels of A at the ideal's normal
    columns."""
    return tuple(ideal.algebra.basis_labels[t] for t in ideal.normal)


def dense_of(v, n):
    """The n coefficients of a sparse vector as a tuple, zeros included, for
    comparing with a dense reference."""
    out = [Q0] * n
    for i, c in v.items():
        out[i] = c
    return tuple(out)


def dense_mul(algebra, u, v):
    """The product of two dense coefficient lists, through the sparse
    ``mul``, as a dense tuple."""
    return dense_of(algebra.mul(sparse_of(u), sparse_of(v)), algebra.dim)


def generator_operators(action):
    """{generator id: the columns of its operator}, as the action holds them
    at the generators' host positions."""
    host = action.host
    return {gid: action.columns(p) for gid, p in zip(host.gens.ids, host.gen_pos)}


def held_columns(action):
    """{(p, j): column j of the operator at host position p} for every
    operator column the action holds so far."""
    return {
        (p, j): col
        for p, cols in enumerate(action._columns)
        if cols is not None
        for j, col in enumerate(cols)
        if col is not None
    }


def assert_matches_dense_operators(sympy, action, gen_ops):
    """The operator columns and ``act`` of every host index m against the
    dense oracle: the product, in generator order, of the dense generator
    powers g^k / k! for the multiplicities k of m, computed in sympy from
    the columns of the given generator operators gen_ops."""
    host, n = action.host, action.algebra.dim

    def dense(op):
        # op holds the sparse columns: entry (i, j) is op[j][i]
        def entry(i, j):
            x = op[j].get(i, 0)
            return sympy.Rational(x.numerator, x.denominator)

        return sympy.Matrix(n, n, entry)

    powers = {}
    for gid, op in gen_ops.items():
        g = dense(op)
        powers[gid, 0] = sympy.eye(n)
        for k in range(1, host.data.degree_bound + 1):
            powers[gid, k] = powers[gid, k - 1] * g / k
    for p, m in enumerate(host.indices):
        oracle = sympy.eye(n)
        for gid, k in zip(host.gens.ids, m):
            oracle = oracle * powers[gid, k]
        expected = [[Fraction(int(x.p), int(x.q)) for x in row] for row in oracle.tolist()]
        columns = [dense_of(col, n) for col in action.columns(p)]
        assert [list(row) for row in zip(*columns)] == expected
        for c in range(n):
            column = {i: row[c] for i, row in enumerate(expected) if row[c]}
            assert action.act(p, {c: 1}) == column


def span(vectors, n):
    """The subspace of Q^n spanned by vectors given as lists of values."""
    return Subspace.from_sparse([sparse_of(v) for v in vectors], n)


def full_space(n):
    """Q^n as a ``Subspace``."""
    return Subspace.from_sparse([{i: 1} for i in range(n)], n)


HEIS_BRACKETS = {"x": {"y": {"z": "1"}}}
SL2_BRACKETS = {"h": {"e": {"e": "2"}, "f": {"f": "-2"}}, "e": {"f": {"h": "1"}}}


@cache
def front_end(host):
    """(split, gr, gr_gens): the splitting, the associated graded algebra and
    the generators of gr as its vectors, as the pipeline builds them on the
    bialgebra of host, kept by a stage recorder.  The PBW structure holds
    none of them."""
    steps = {}

    def keep(name, step):
        steps[name] = step()
        return steps[name]

    PBWStructure.from_bialgebra(host.data, keep)
    _, gr_gens = steps["extract_generators"]
    return steps["graded_splitting"], steps["gr_structure"], gr_gens


@pytest.fixture(scope="session")
def qt():
    return PBWStructure.from_bialgebra(build_ueg(["t"], {}, 3))


@pytest.fixture(scope="session")
def heis():
    return PBWStructure.from_bialgebra(build_ueg(["x", "y", "z"], HEIS_BRACKETS, 4))


@pytest.fixture(scope="session")
def sl2():
    return PBWStructure.from_bialgebra(build_ueg(["e", "f", "h"], SL2_BRACKETS, 4))


@pytest.fixture(scope="session")
def xyw():
    return PBWStructure.from_bialgebra(build_xyw(4))


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


def subprocess_env(**extra):
    """The environment for a child Python that imports this checkout's
    hopfcore, with the given variables added."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def load_fixture(name):
    with open(FIXTURES / name, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="session")
def host_at():
    """The PBW structure of a fixture instance at a given degree bound,
    built once per (instance, degree)."""
    cache = {}

    def get(name, degree):
        if (name, degree) not in cache:
            data = instance_from_json(load_fixture(f"instances/{name}.json"), degree)
            cache[name, degree] = PBWStructure.from_bialgebra(data)
        return cache[name, degree]

    return get
