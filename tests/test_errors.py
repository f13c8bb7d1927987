"""Every error the program raises is one of the classes it catches or tells
apart: each site below raises a bare ``HopfcoreError`` or an
``InputFormatError`` with its own message, and through ``cli.main`` the
class alone decides the exit code."""

import json

import pytest

from hopfcore import cli, convolution
from hopfcore.action import ModuleAlgebraAction
from hopfcore.coalgebra import FilteredBialgebraData, build_ueg
from hopfcore.convolution import ConvElement, builtin_ring, convolve, counit_pullback, leading
from hopfcore.errors import HopfcoreError, InputFormatError
from hopfcore.linalg import Q1, Subspace, complement
from hopfcore.pbw import extract_generators
from hopfcore.table import PolynomialAlgebra
from conftest import FIXTURES, at, load_fixture, span

JACOBI = {"a": {"b": {"c": "1"}}, "b": {"c": {"a": "1"}}, "c": {"a": {"a": "1"}}}
ANTISYMMETRY = {"a": {"b": {"a": "1"}}, "b": {"a": {"a": "1"}}}
SQUARE = {"a": {"a": {"a": "1"}}}


def _line(filtration_hint):
    """The line Q{1, t} with t*t = 0 and t primitive, at degree bound 2,
    graded by the hint when there is one."""
    return FilteredBialgebraData(
        basis_labels=("1", "t"),
        degree_bound=2,
        mult={(0, 0): ((0, Q1),), (0, 1): ((1, Q1),), (1, 0): ((1, Q1),), (1, 1): ()},
        comult=[((0, 0, Q1),), ((0, 1, Q1), (1, 0, Q1))],
        counit=(Q1, 0),
        unit_index=0,
        filtration_hint=filtration_hint,
    )


def _foreign_operator(qt):
    zero = [{} for _ in range(2)]
    ModuleAlgebraAction(qt, PolynomialAlgebra(["x"], 1), {"t": zero, "zz": zero})


def _host_mismatch(qt, heis):
    q = builtin_ring("q")
    convolve(counit_pullback(qt, q, q.one), counit_pullback(heis, q, q.one))


def _ring_mismatch(qt, heis):
    q, m2 = builtin_ring("q"), builtin_ring("m2q")
    convolve(counit_pullback(qt, q, q.one), counit_pullback(qt, m2, m2.one))


def _witness_anomaly(qt, heis, monkeypatch):
    # a product that returns its left factor has the wrong leading term
    monkeypatch.setattr(convolution, "convolve", lambda f, g: f)
    s = ConvElement(qt, builtin_ring("q"), {at(qt, t=1): {0: Q1}})
    convolution.prime_witness(s, s)


# (site, the class it raises, its message)
SITES = {
    "unknown-generator": (
        lambda qt, heis, mp: _foreign_operator(qt),
        InputFormatError, "operator for unknown generator 'zz'",
    ),
    "inner-not-contained": (
        lambda qt, heis, mp: complement(span([[1, 1, 0]], 3), span([[1, 0, 0], [0, 0, 1]], 3)),
        HopfcoreError, "inner (dim 1) is not contained in outer (dim 2)",
    ),
    "no-constrained-complement": (
        lambda qt, heis, mp: complement(
            Subspace.from_sparse([], 2), span([[1, 1]], 2), (1, 1)
        ),
        HopfcoreError,
        "no complement of inner (dim 0) in outer (dim 1) lies in the kernel "
        "of the constraint",
    ),
    "bracket-square": (
        lambda qt, heis, mp: build_ueg(["a"], SQUARE, 2),
        HopfcoreError, "[a,a] must vanish",
    ),
    "antisymmetry": (
        lambda qt, heis, mp: build_ueg(["a", "b"], ANTISYMMETRY, 2),
        HopfcoreError, "inconsistent antisymmetric pair for [b,a]",
    ),
    "jacobi": (
        lambda qt, heis, mp: build_ueg(["a", "b", "c"], JACOBI, 2),
        HopfcoreError, "Jacobi identity fails on (a,b,c)",
    ),
    "ungraded": (
        lambda qt, heis, mp: extract_generators(_line(None)),
        HopfcoreError, "graded instance carries no degree labels",
    ),
    "not-polynomial": (
        lambda qt, heis, mp: extract_generators(_line((0, 1))),
        HopfcoreError,
        "degree 2: graded dimension 0 but 1 monomials in the extracted generators",
    ),
    "zero-element": (
        lambda qt, heis, mp: leading(ConvElement(qt, builtin_ring("q"), {})),
        HopfcoreError, "leading term of the zero element",
    ),
    "host-mismatch": (
        lambda qt, heis, mp: _host_mismatch(qt, heis),
        HopfcoreError, "operands live over different hosts",
    ),
    "ring-mismatch": (
        lambda qt, heis, mp: _ring_mismatch(qt, heis),
        HopfcoreError, "q vs m2q",
    ),
    "witness-anomaly": (
        _witness_anomaly,
        HopfcoreError, "witness product has leading t:1, expected t^2:1",
    ),
}


@pytest.mark.parametrize("site", SITES)
def test_former_raise_sites_keep_class_and_message(site, qt, heis, monkeypatch):
    trigger, cls, message = SITES[site]
    with pytest.raises(HopfcoreError) as info:
        trigger(qt, heis, monkeypatch)
    assert type(info.value) is cls
    assert str(info.value) == message


def _main(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = cli.main([*argv, "--out", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", ["build", "verify", "conv", "hcore"])
@pytest.mark.parametrize(
    "brackets, generators, message",
    [
        (JACOBI, ["a", "b", "c"], "Jacobi identity fails on (a,b,c)"),
        (ANTISYMMETRY, ["a", "b"], "inconsistent antisymmetric pair for [b,a]"),
        (SQUARE, ["a"], "[a,a] must vanish"),
    ],
    ids=["jacobi", "antisymmetry", "bracket-square"],
)
def test_broken_brackets_exit_fail(tmp_path, command, brackets, generators, message):
    """A ueg whose brackets are no Lie algebra stops every command with
    status ``fail``, its message as the error, and exit 1 (``build`` in its
    own report, the others in the bare one)."""
    instance = tmp_path / "ueg.json"
    instance.write_text(json.dumps({
        "kind": "ueg", "degree_bound": 2,
        "lie": {"generators": generators, "brackets": brackets},
    }))
    extra = {
        "conv": ["--ring", "q"],
        "hcore": ["--action", str(FIXTURES / "actions" / "sl2_qxy_ix.json")],
    }.get(command, [])
    code, rep = _main(tmp_path, command, "--instance", str(instance), *extra)
    assert (code, rep["status"], rep["error"]) == (1, "fail", message)


def test_operator_on_unknown_generator_is_an_input_error(tmp_path):
    spec = load_fixture("actions/sl2_qxy_ix.json")
    spec["generators"]["zz"] = spec["generators"]["e"]
    action = tmp_path / "action.json"
    action.write_text(json.dumps(spec))
    code, rep = _main(
        tmp_path, "hcore", "--instance", str(FIXTURES / "instances" / "sl2.json"),
        "--action", str(action),
    )
    assert code == 2
    assert rep == {
        "command": "hcore",
        "schema": 1,
        "error": "operator for unknown generator 'zz'",
        "status": "input-error",
    }
