import contextlib
import io
import json
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from hopfcore import build_ueg, cli, coalgebra, convolution
from hopfcore.cli import main
from hopfcore.coalgebra import instance_from_json
from hopfcore.errors import HopfcoreError
from hopfcore.pbw import PBWStructure
from conftest import FIXTURES, instance_to_json, load_fixture, subprocess_env

INSTANCES = FIXTURES / "instances"
ACTIONS = FIXTURES / "actions"


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    with open(out, "r", encoding="utf-8") as handle:
        return code, json.load(handle)


def test_build_heisenberg(tmp_path):
    code, rep = run(
        tmp_path, "build", "--instance", str(INSTANCES / "heis.json")
    )
    assert code == 0
    assert rep["status"] == "ok"
    assert rep["instance"]["layer_dims"] == [1, 4, 10, 20, 35]
    assert rep["instance"]["basis_dims"] == [1, 4, 10, 20, 35]
    assert [g["id"] for g in rep["instance"]["generators"]] == ["x", "y", "z"]


def test_build_degree_override(tmp_path):
    code, rep = run(
        tmp_path,
        "build",
        "--instance",
        str(INSTANCES / "heis.json"),
        "--degree",
        "2",
    )
    assert code == 0
    assert rep["instance"]["layer_dims"] == [1, 4, 10]


def test_build_xyw_generators(tmp_path):
    code, rep = run(
        tmp_path, "build", "--instance", str(INSTANCES / "xyw.json")
    )
    assert code == 0
    assert rep["instance"]["generators"] == [
        {"degree": 1, "id": "x"},
        {"degree": 1, "id": "y"},
        {"degree": 2, "id": "w"},
    ]


def test_build_grouplike_fails_at_connectedness(tmp_path):
    code, rep = run(
        tmp_path, "build", "--instance", str(INSTANCES / "grouplike.json")
    )
    assert code == 1
    stages = {s["stage"]: s["status"] for s in rep["stages"]}
    assert stages["coradical_filtration"] == "ok"
    assert stages["check_connected"] == "fail"


def test_verify_builtins_pass(tmp_path):
    for name in ("qt.json", "xyw.json", "shifted_line.json"):
        code, rep = run(
            tmp_path,
            "verify",
            "--instance",
            str(INSTANCES / name),
            "--trials",
            "20",
        )
        assert code == 0, name
        assert rep["summary"]["FAIL"] == 0


def test_verify_corrupted_stops_at_the_axioms(tmp_path):
    """verify refuses the corrupted tables as build does, before the
    pipeline; the split-expansion fault behind them is pinned by
    test_pbw.py::test_expansion_violation_on_corrupted_tables."""
    code, rep = run(
        tmp_path,
        "verify",
        "--instance",
        str(INSTANCES / "xyw_corrupt.json"),
        "--trials",
        "10",
    )
    assert (code, rep["status"]) == (2, "input-error")
    assert rep["error"] == "bialgebra axioms fail; see checks"
    fails = {(c["check"], c["subject"]) for c in rep["checks"] if c["status"] == "FAIL"}
    assert ("comult-multiplicative", "x,x") in fails
    assert not [c for c in rep["checks"] if c["check"] == "split-expansion"]


def test_conv_m2q(tmp_path):
    code, rep = run(
        tmp_path,
        "conv",
        "--instance",
        str(INSTANCES / "heis.json"),
        "--ring",
        "m2q",
        "--trials",
        "100",
        "--seed",
        "42",
    )
    assert code == 0
    trials = [c for c in rep["checks"] if c["check"] == "leading-law"]
    witnesses = [c for c in rep["checks"] if c["check"] == "prime-witness"]
    assert len(trials) == 100 and all(c["status"] == "PASS" for c in trials)
    assert len(witnesses) == 100 and all(c["status"] == "PASS" for c in witnesses)


def test_conv_qxq_refutes_primeness(tmp_path):
    code, rep = run(
        tmp_path,
        "conv",
        "--instance",
        str(INSTANCES / "qt.json"),
        "--ring",
        "qxq",
        "--trials",
        "50",
    )
    assert code == 0
    refutation = [c for c in rep["checks"] if c["check"] == "prime-refutation"]
    assert refutation and refutation[0]["status"] == "PASS"
    assert "(e1,e2)" in refutation[0]["detail"]


def test_conv_qx2_nilpotent(tmp_path):
    code, rep = run(
        tmp_path,
        "conv",
        "--instance",
        str(INSTANCES / "qt.json"),
        "--ring",
        "qx2",
        "--trials",
        "30",
    )
    assert code == 0
    nил = [c for c in rep["checks"] if c["check"] == "nilpotent"]
    assert nил and nил[0]["status"] == "PASS"


def test_conv_inconclusive_exit_code(tmp_path):
    # forcing the support cap to the full bound makes some leading sums
    # exceed the bound: inconclusive-only runs exit with 3
    code, rep = run(
        tmp_path,
        "conv",
        "--instance",
        str(INSTANCES / "qt.json"),
        "--ring",
        "q",
        "--trials",
        "60",
        "--support-cap",
        "3",
    )
    assert code == 3
    assert rep["status"] == "inconclusive"
    assert rep["summary"]["FAIL"] == 0
    assert rep["summary"]["INCONCLUSIVE"] > 0


def test_conv_negative_support_cap_is_an_input_error(tmp_path):
    code, rep = run(
        tmp_path, "conv", "--instance", str(INSTANCES / "heis.json"),
        "--ring", "q", "--support-cap", "-1", "--trials", "2",
    )
    assert code == 2
    assert rep == {
        "command": "conv",
        "schema": 1,
        "error": "--support-cap must be >= 0, got -1",
        "status": "input-error",
    }


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "--instance", str(INSTANCES / "heis.json"), "--trials", "-3"],
         "--trials"),
        (["conv", "--instance", str(INSTANCES / "heis.json"), "--ring", "q",
          "--trials", "-3"], "--trials"),
        (["hcore", "--instance", str(INSTANCES / "dq.json"),
          "--action", str(ACTIONS / "dq_qx_ix.json"), "--probe-bound", "-1"],
         "--probe-bound"),
    ],
    ids=["verify-trials", "conv-trials", "hcore-probe-bound"],
)
def test_negative_counts_are_input_errors(tmp_path, argv, flag):
    """A negative count would run nothing and report ok; it is rejected
    like a negative --support-cap."""
    code, rep = run(tmp_path, *argv)
    assert code == 2
    assert rep == {
        "command": argv[0],
        "schema": 1,
        "error": f"{flag} must be >= 0, got {argv[-1]}",
        "status": "input-error",
    }


def test_conv_and_hcore_check_raw_instances_only(tmp_path, monkeypatch):
    """The ueg and xyw builders make bialgebras by construction, so conv and
    hcore run the axiom check on raw instances only; build and verify run
    it on every instance."""
    checked = []
    real = coalgebra.verify_axioms
    monkeypatch.setattr(
        coalgebra, "verify_axioms", lambda data: checked.append(data.raw) or real(data)
    )
    # the check runs before hcore reads its action file, so the action's
    # generator need not belong to the instance
    for name in ("dq.json", "xyw.json", "shifted_line.json"):
        instance = str(INSTANCES / name)
        run(tmp_path, "conv", "--instance", instance, "--ring", "q", "--trials", "2")
        run(tmp_path, "hcore", "--instance", instance,
            "--action", str(ACTIONS / "dq_qx_ix.json"))
    assert checked == [True, True]
    run(tmp_path, "build", "--instance", str(INSTANCES / "dq.json"))
    run(tmp_path, "verify", "--instance", str(INSTANCES / "xyw.json"), "--trials", "2")
    assert checked == [True, True, False, False]


def test_antipode_law_failure_stops_build(tmp_path):
    """build on the shifted line with S(s) = -s passes the axioms and stops
    at the antipode law, before the pipeline runs; the correct antipode
    passes."""
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(SHIFTED_LINE_BAD_ANTIPODE))
    code, rep = run(tmp_path, "build", "--instance", str(path))
    assert code == 2
    assert rep["status"] == "input-error"
    assert rep["error"] == "antipode law S * id = eta eps = id * S fails at s"
    assert [s["stage"] for s in rep["stages"]] == ["load", "verify_axioms"]
    assert all(s["status"] == "ok" for s in rep["stages"])
    code, rep = run(tmp_path, "build", "--instance", str(INSTANCES / "shifted_line.json"))
    assert code == 0 and rep["status"] == "ok"


NOT_BIALGEBRAS = {
    "xyw-corrupt": (INSTANCES / "xyw_corrupt.json", "bialgebra axioms fail; see checks"),
    "shifted-line-bad-antipode": (
        None, "antipode law S * id = eta eps = id * S fails at s"),
}
OTHER_ARGS = {
    "verify": ["--trials", "3"],
    "conv": ["--ring", "q", "--trials", "3"],
    "hcore": ["--action", str(ACTIONS / "dq_qx_ix.json")],
}


@pytest.mark.parametrize("command", list(OTHER_ARGS))
@pytest.mark.parametrize("name", list(NOT_BIALGEBRAS))
def test_every_command_refuses_tables_that_are_not_a_bialgebra(tmp_path, name, command):
    """Raw tables that fail a bialgebra axiom or the antipode law stop every
    command with exit 2.  verify lists the axiom lines as build does;
    conv and hcore list them only when an axiom fails."""
    path, message = NOT_BIALGEBRAS[name]
    if path is None:
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(SHIFTED_LINE_BAD_ANTIPODE))
    _, built = run(tmp_path, "build", "--instance", str(path))
    code, rep = run(tmp_path, command, "--instance", str(path), *OTHER_ARGS[command])
    assert (code, rep["status"], rep["error"]) == (2, "input-error", message)
    axioms = built["checks"]
    failed = any(c["status"] == "FAIL" for c in axioms)
    assert rep["checks"] == (axioms if command == "verify" or failed else [])
    if name == "xyw-corrupt":
        assert ("comult-multiplicative", "x,x", "FAIL") in {
            (c["check"], c["subject"], c["status"]) for c in rep["checks"]
        }


def test_conv_user_ring_table(tmp_path):
    table = {
        "name": "dual-numbers",
        "basis": ["1", "eps"],
        "one": {"1": "1"},
        "mult": {
            "1": {"1": {"1": "1"}, "eps": {"eps": "1"}},
            "eps": {"1": {"eps": "1"}},
        },
        "flags": {"prime": False, "semiprime": False, "domain": False},
    }
    ring_file = tmp_path / "ring.json"
    ring_file.write_text(json.dumps(table))
    code, rep = run(
        tmp_path,
        "conv",
        "--instance",
        str(INSTANCES / "qt.json"),
        "--ring",
        str(ring_file),
        "--trials",
        "20",
    )
    assert code == 0
    assert rep["ring"]["name"] == "dual-numbers"


Q_PRIME_ONLY = {
    "name": "q-prime", "basis": ["1"], "one": {"1": "1"},
    "mult": {"1": {"1": {"1": "1"}}}, "flags": {"prime": True},
}
QXQ_IDEMPOTENT_BASIS = {
    "name": "qxq-e", "basis": ["1", "e"], "one": {"1": "1"},
    "mult": {"1": {"1": {"1": "1"}, "e": {"e": "1"}},
             "e": {"1": {"e": "1"}, "e": {"e": "1"}}},
}
NO_ZERO_PAIR = "no zero divisors among basis pairs"
EVERY_PAIR = "witness for every basis pair"


@pytest.mark.parametrize(
    "ring, flags, lines",
    [
        # an undeclared flag's line passes with the scan's detail, and no
        # refutation runs for it (that Q x Q on the basis {1, e} scans as
        # prime is the basis-pair scan's own limit)
        (QXQ_IDEMPOTENT_BASIS, {"prime": None, "semiprime": None, "domain": None}, [
            ("flag-domain", "PASS", NO_ZERO_PAIR),
            ("flag-prime", "PASS", EVERY_PAIR),
            ("flag-semiprime", "PASS", ""),
        ]),
        (Q_PRIME_ONLY, {"prime": True, "semiprime": None, "domain": None}, [
            ("flag-domain", "PASS", NO_ZERO_PAIR),
            ("flag-prime", "PASS", EVERY_PAIR),
            ("flag-semiprime", "PASS", ""),
        ]),
        # flags declared false are refuted as before
        ("qx2", {"prime": False, "semiprime": False, "domain": False}, [
            ("flag-domain", "PASS", "refuted by x,x"),
            ("flag-prime", "PASS", "refuted by pair x,x"),
            ("flag-semiprime", "PASS", "refuted by x"),
            ("prime-refutation", "PASS", "pair (x,x)"),
            ("nilpotent", "PASS", "pullback of x squares to zero"),
        ]),
    ],
    ids=["undeclared", "prime-only", "qx2"],
)
def test_conv_ring_flag_lines(tmp_path, ring, flags, lines):
    if isinstance(ring, dict):
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(ring))
        ring = str(path)
    code, rep = run(
        tmp_path, "conv", "--instance", str(INSTANCES / "sl2.json"),
        "--degree", "2", "--ring", ring, "--trials", "1",
    )
    assert code == 0 and rep["status"] == "ok"
    assert rep["ring"]["flags"] == flags
    assert [
        (c["check"], c["status"], c["detail"])
        for c in rep["checks"]
        if c["check"].startswith("flag-") or c["check"] in ("prime-refutation", "nilpotent")
    ] == lines


def test_hcore_sl2(tmp_path):
    code, rep = run(
        tmp_path,
        "hcore",
        "--instance",
        str(INSTANCES / "sl2.json"),
        "--action",
        str(ACTIONS / "sl2_qxy_ix.json"),
        "--probe-bound",
        "3",
    )
    assert code == 3  # a few probe pairs exceed the truncation bound
    assert rep["core"]["dims_by_cap"] == [10, 6, 3, 1, 0]
    assert rep["core"]["dim"] == 0
    assert rep["summary"]["FAIL"] == 0


def test_hcore_probe_within_bound(tmp_path):
    code, rep = run(
        tmp_path,
        "hcore",
        "--instance",
        str(INSTANCES / "sl2.json"),
        "--action",
        str(ACTIONS / "sl2_qxy_ix.json"),
        "--probe-bound",
        "2",
    )
    assert code == 0
    assert rep["status"] == "ok"


def test_hcore_dq(tmp_path):
    code, rep = run(
        tmp_path,
        "hcore",
        "--instance",
        str(INSTANCES / "dq.json"),
        "--action",
        str(ACTIONS / "dq_qx_ix.json"),
        "--probe-bound",
        "2",
    )
    assert code == 0
    assert rep["core"]["dim"] == 0


def test_hcore_ideal_override(tmp_path):
    override = tmp_path / "ideal.json"
    override.write_text(json.dumps({"ideal": {"kind": "unit"}}))
    code, rep = run(
        tmp_path,
        "hcore",
        "--instance",
        str(INSTANCES / "dq.json"),
        "--action",
        str(ACTIONS / "dq_qx_ix.json"),
        "--ideal",
        str(override),
    )
    assert code == 0
    assert rep["core"]["dim"] == 5  # everything of degree <= 4
    assert rep["core"]["ideal"] == "(1)"


def test_input_error_exit_code(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["build", "--instance", str(tmp_path / "missing.json"), "--out", str(out)]
    )
    assert code == 2
    rep = json.loads(out.read_text())
    assert rep["status"] == "input-error"


def test_raw_degree_override_rejected(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "build",
            "--instance",
            str(INSTANCES / "grouplike.json"),
            "--degree",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--instance", str(INSTANCES / "heis.json")],
        ["verify", "--instance", str(INSTANCES / "xyw.json"), "--trials", "25", "--seed", "3"],
        ["conv", "--instance", str(INSTANCES / "heis.json"), "--ring", "qxq", "--trials", "25", "--seed", "3"],
        [
            "hcore",
            "--instance", str(INSTANCES / "sl2.json"),
            "--action", str(ACTIONS / "sl2_qxy_ix.json"),
            "--probe-bound", "2",
            "--seed", "3",
        ],
    ],
    ids=["build", "verify", "conv", "hcore"],
)
def test_reports_are_deterministic(tmp_path, argv):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    main([*argv, "--out", str(out1)])
    main([*argv, "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


UEG_HEIS = {"generators": ["x", "y", "z"], "brackets": {"x": {"y": {"z": "1"}}}}
# the shifted line with S(s) = -s; the antipode law needs S(s) = 2 - s
SHIFTED_LINE_BAD_ANTIPODE = load_fixture("instances/shifted_line.json")
SHIFTED_LINE_BAD_ANTIPODE["tables"]["antipode"]["s"] = {"s": "-1"}
DUAL_NUMBERS_MULT = {"1": {"1": {"1": "1"}, "t": {"t": "1"}}, "t": {"1": {"t": "1"}}}
# x * x = y, x * y = 0 and y * x = y, so (x x) x = y but x (x x) = 0
NONASSOCIATIVE_RAW = {"kind": "raw", "degree_bound": 2, "tables": {
    "basis": ["1", "x", "y"], "unit": "1",
    "mult": {"1": {"1": {"1": "1"}, "x": {"x": "1"}, "y": {"y": "1"}},
             "x": {"1": {"x": "1"}, "x": {"y": "1"}, "y": {}},
             "y": {"1": {"y": "1"}, "x": {"y": "1"}}},
    "comult": {"1": [["1", "1", "1"]],
               "x": [["x", "1", "1"], ["1", "x", "1"]],
               "y": [["y", "1", "1"], ["1", "y", "1"], ["x", "x", "2"]]},
    "counit": {"1": "1"}}}


def sl2_with_ef(coeff):
    """sl2.json with the coefficient of h in [e,f] replaced."""
    instance = load_fixture("instances/sl2.json")
    instance["lie"]["brackets"]["e"]["f"]["h"] = coeff
    return instance


MALFORMED_COEFFS = ["zz", 2.0, [2], None, True]

SHIFTED_LINE_FRACTIONAL_DEGREE = load_fixture("instances/shifted_line.json")
SHIFTED_LINE_FRACTIONAL_DEGREE["tables"]["degrees"] = {"1": 0, "s": 1.5}
M2Q_MULT = {"E11": {"E11": {"E11": "1"}, "E12": {"E12": "1"}},
            "E12": {"E21": {"E11": "1"}, "E22": {"E12": "1"}},
            "E21": {"E11": {"E21": "1"}, "E12": {"E22": "1"}},
            "E22": {"E21": {"E21": "1"}, "E22": {"E22": "1"}}}


def finite_action(basis, one, mult, generators=None):
    """An action file on a finite algebra: the zero operator unless
    generators are given, the zero ideal and the completely-prime probe."""
    zero = [[0] * len(basis) for _ in basis]
    return {"algebra": {"kind": "finite", "basis": basis, "one": one, "mult": mult},
            "generators": generators or {"d": zero}, "ideal": {"kind": "zero"},
            "ideal_properties": ["completely_prime"]}


@pytest.mark.parametrize(
    "kind, payload, message",
    [
        ("instance", {"kind": "ueg", "degree_bound": 3,
                      "lie": {**UEG_HEIS, "brackets": {"x": {"y": {"z": "1/0"}}}}}, None),
        ("instance", {"kind": "ueg", "degree_bound": -3, "lie": UEG_HEIS}, None),
        ("instance", {"kind": "ueg", "degree_bound": 3,
                      "lie": {**UEG_HEIS, "generators": "xyz"}}, None),
        ("ring", {"name": "bad", "basis": ["1"], "one": {"1": "1"},
                  "mult": {"1": {"1": {"1": "1/0"}}},
                  "flags": {"prime": True, "semiprime": True, "domain": True}}, None),
        ("action", {"algebra": {"kind": "polynomial", "variables": ["x"], "bound": 4},
                    "generators": {"d": {"kind": "operator", "terms": [
                        {"coeff": "1/0", "derivatives": {"x": 1}}]}},
                    "ideal": {"kind": "monomial", "generators": [{"x": 1}]}}, None),
        ("ring", {"name": "bad", "basis": ["1"], "one": {"1": "1"},
                  "mult": {"1": 5}, "flags": {}}, None),
        ("action", {"algebra": {"kind": "finite", "basis": ["1"], "one": "1",
                                "mult": {"1": 5}},
                    "generators": {"d": [["0"]]}, "ideal": {"kind": "zero"}}, None),
        ("action", {"algebra": {"kind": "polynomial", "variables": "x", "bound": 4},
                    "generators": {"d": {"kind": "operator", "terms": [
                        {"coeff": "1", "derivatives": {"x": 1}}]}},
                    "ideal": {"kind": "monomial", "generators": [{"x": 1}]}}, None),
        ("action", {"algebra": {"kind": "polynomial", "variables": ["x"], "bound": -1},
                    "generators": {"d": {"kind": "operator", "terms": [
                        {"coeff": "1", "derivatives": {"x": 1}}]}},
                    "ideal": {"kind": "zero"}}, None),
        ("action", {"algebra": {"kind": "finite", "basis": "1t", "one": "1",
                                "mult": DUAL_NUMBERS_MULT},
                    "generators": {"d": [["0", "0"], ["0", "0"]]},
                    "ideal": {"kind": "zero"}}, None),
        ("ring", {"name": "bad", "basis": "1t", "one": {"1": "1"},
                  "mult": DUAL_NUMBERS_MULT,
                  "flags": {"prime": False, "semiprime": False, "domain": False}}, None),
        ("instance", {"kind": "raw", "degree_bound": 1, "tables": {
            "basis": "1s", "unit": "1",
            "mult": {"1": {"1": {"1": "1"}, "s": {"s": "1"}}, "s": {"1": {"s": "1"}}},
            "comult": {"1": [["1", "1", "1"]],
                       "s": [["s", "1", "1"], ["1", "s", "1"], ["1", "1", "-1"]]},
            "counit": {"1": "1", "s": "1"}}}, None),
        ("instance", {"kind": "raw", "degree_bound": 1, "tables": {
            "basis": ["1", "s"], "unit": "1",
            "mult": {"1": {"1": {"1": "1"}, "s": {"s": "1"}}, "s": {"1": {"s": "1"}}},
            "comult": {"1": ["111"],
                       "s": [["s", "1", "1"], ["1", "s", "1"], ["1", "1", "-1"]]},
            "counit": {"1": "1", "s": "1"}}}, None),
        ("action", {**load_fixture("actions/dq_qx_ix.json"),
                    "ideal_properties": "completely_prime"}, None),
        ("ideal", {"ideal": {"kind": "monomial", "generators": [{"x": 1}]},
                   "ideal_properties": "prime"}, None),
        ("action", {**load_fixture("actions/dq_qx_ix.json"), "generators": [
            {"kind": "operator", "terms": [{"coeff": "1", "derivatives": {"x": 1}}]}]}, None),
        ("action", {**load_fixture("actions/dq_qx_ix.json"), "ideal": "(x)"}, None),
        ("action", {**load_fixture("actions/dq_qx_ix.json"),
                    "generators": {"d": {"kind": "operator", "terms": ["d/dx"]}}}, None),
        ("action", {**load_fixture("actions/dq_qx_ix.json"),
                    "generators": {"d": [[0, 1], [0]]}}, None),
        ("action", {**load_fixture("actions/dq_qx_ix.json"),
                    "generators": {"d": [[0, 1], [0, 0]]}}, None),
        ("instance", {"kind": "ueg", "degree_bound": 3,
                      "lie": {**UEG_HEIS, "brackets": []}}, None),
        ("instance", {"kind": "raw", "degree_bound": 1, "tables": {
            "basis": ["1", "s"], "unit": "1",
            "mult": {"1": {"1": {"1": "1"}, "s": {"s": "1"}}, "s": {"1": {"s": "1"}}},
            "comult": {"1": [["1", "1", "1"]],
                       "s": [["s", "1", "1"], ["1", "s", "1"]]},
            "counit": ["1"]}}, None),
        ("ring", {"name": "bad", "basis": ["1"], "one": {"1": "1"},
                  "mult": {"1": {"1": {"1": "1"}}}, "flags": []}, None),
        ("ring", {"name": "bad", "basis": ["1"], "one": ["1"],
                  "mult": {"1": {"1": {"1": "1"}}}, "flags": {}}, None),
        ("action", {**load_fixture("actions/dq_qx_ix.json"),
                    "ideal": {"kind": "monomial", "generators": [{"x": -1}]}},
         "exponent of 'x' in a monomial must be an integer >= 0, got -1"),
        ("action", {**load_fixture("actions/dq_qx_ix.json"),
                    "ideal": {"kind": "monomial", "generators": [{"x": 1.5}]}},
         "exponent of 'x' in a monomial must be an integer >= 0, got 1.5"),
        ("ideal", {"ideal": {"kind": "monomial", "generators": [{"x": True}]}},
         "exponent of 'x' in a monomial must be an integer >= 0, got True"),
        ("ideal", {"ideal": {"kind": "principal",
                             "element": [{"coeff": "1", "monomial": {"y": 1}}]}},
         "unknown variable 'y' in a monomial"),
        ("action", {**load_fixture("actions/dq_qx_ix.json"),
                    "generators": {"d": {"kind": "operator", "terms": [
                        {"coeff": "1", "derivatives": {"z": 1}}]}}},
         "unknown variable 'z' in \"derivatives\""),
        ("action", {**load_fixture("actions/dq_qx_ix.json"),
                    "generators": {"d": {"kind": "operator", "terms": [
                        {"coeff": "1", "derivatives": {"x": -1}}]}}},
         "exponent of 'x' in \"derivatives\" must be an integer >= 0, got -1"),
        ("action", {**load_fixture("actions/dq_qx_ix.json"),
                    "generators": {"d": {"kind": "operator", "terms": [
                        {"coeff": "1", "monomial": {"x": "1"}}]}}},
         "exponent of 'x' in a monomial must be an integer >= 0, got '1'"),
        ("instance", SHIFTED_LINE_BAD_ANTIPODE,
         "antipode law S * id = eta eps = id * S fails at s"),
        ("action", {**load_fixture("actions/dq_qx_ix.json"), "core_degree_cap": -1},
         '"core_degree_cap" must be an integer >= 0, got -1'),
        ("action", {**load_fixture("actions/dq_qx_ix.json"), "core_degree_cap": 2.7},
         '"core_degree_cap" must be an integer >= 0, got 2.7'),
        ("action", {**load_fixture("actions/dq_qx_ix.json"), "core_degree_cap": True},
         '"core_degree_cap" must be an integer >= 0, got True'),
        ("action", {**load_fixture("actions/dq_qx_ix.json"), "core_degree_cap": "3"},
         '"core_degree_cap" must be an integer >= 0, got \'3\''),
        ("instance", {**load_fixture("instances/heis.json"), "degree_bound": 3.9},
         '"degree_bound" must be an integer >= 1, got 3.9'),
        ("instance", {**load_fixture("instances/heis.json"), "degree_bound": "3"},
         '"degree_bound" must be an integer >= 1, got \'3\''),
        ("instance", {**load_fixture("instances/heis.json"), "degree_bound": True},
         '"degree_bound" must be an integer >= 1, got True'),
        ("instance", SHIFTED_LINE_FRACTIONAL_DEGREE,
         "degree of 's' must be an integer >= 0, got 1.5"),
        ("instance", NONASSOCIATIVE_RAW,
         "multiplication is not associative: (x*x)*x != x*(x*x)"),
        ("ring", {"basis": ["1"], "one": {"1": "1"}, "mult": {"1": {"1": {"1": "1"}}},
                  "flags": {"prime": "no", "semiprime": True, "domain": True}},
         "ring flag 'prime' must be true, false or null, got 'no'"),
        ("ring", {"basis": ["1"], "one": {"1": "1"}, "mult": {"1": {"1": {"1": "1"}}},
                  "flags": {"prime": True, "semiprime": 1, "domain": True}},
         "ring flag 'semiprime' must be true, false or null, got 1"),
        ("ring", {"basis": ["1"], "one": {"1": "1"}, "mult": {"1": {"1": {"1": "1"}}},
                  "flags": {"prime": True, "semiprime": True, "domain": [True]}},
         "ring flag 'domain' must be true, false or null, got [True]"),
        ("ring", {"basis": [], "mult": {}, "one": {}},
         'ring "basis" must not be empty'),
        *[("instance", sl2_with_ef(c), f"cannot interpret {c!r} as a rational")
          for c in MALFORMED_COEFFS],
        ("action", finite_action(["1", "t"], "1", DUAL_NUMBERS_MULT,
                                 {"d": ["00", "10"]}),
         "a row of the matrix of 'd' must be a list of rationals, got '00'"),
        ("action", finite_action(["E11", "E12", "E21", "E22"], "E11", M2Q_MULT),
         "'E11' is not a two-sided unit of the finite algebra: E12*E11 != E12"),
        ("action", finite_action(
            ["1", "x", "y"], "1", NONASSOCIATIVE_RAW["tables"]["mult"]),
         "multiplication is not associative: (x*x)*x != x*(x*x)"),
        ("action", finite_action(["1", "t"], ["1"], DUAL_NUMBERS_MULT),
         'finite algebra "one" must be a basis label, got [\'1\']'),
        ("action", {k: v for k, v in load_fixture("actions/dq_qx_ix.json").items()
                    if k != "algebra"},
         'malformed action file: missing "algebra"'),
        ("action", {k: v for k, v in load_fixture("actions/dq_qx_ix.json").items()
                    if k != "ideal"},
         'malformed action file: missing "ideal"'),
        ("action", [load_fixture("actions/dq_qx_ix.json")],
         "the action file must be an object, got list"),
    ],
    ids=["bracket-zero-denominator", "negative-bound", "generators-string",
         "ring-zero-denominator", "operator-zero-denominator",
         "ring-table-row-not-object", "algebra-table-row-not-object",
         "polynomial-variables-string", "polynomial-negative-bound",
         "finite-basis-string", "ring-basis-string", "raw-basis-string",
         "raw-comult-term-string", "ideal-properties-string",
         "ideal-file-properties-string", "action-generators-list",
         "action-ideal-string", "operator-term-string", "matrix-ragged",
         "matrix-not-square", "ueg-brackets-list", "raw-counit-list",
         "ring-flags-list", "ring-one-list", "ideal-negative-exponent",
         "ideal-fractional-exponent", "ideal-bool-exponent",
         "principal-unknown-variable", "derivative-unknown-variable",
         "derivative-negative-exponent", "monomial-string-exponent",
         "raw-antipode-law", "core-cap-negative", "core-cap-fractional",
         "core-cap-bool", "core-cap-string", "degree-bound-fractional",
         "degree-bound-string", "degree-bound-bool", "raw-degree-fractional",
         "raw-nonassociative", "ring-flag-string", "ring-flag-number",
         "ring-flag-list", "ring-basis-empty", "bracket-coeff-string",
         "bracket-coeff-float", "bracket-coeff-list", "bracket-coeff-null",
         "bracket-coeff-bool", "matrix-row-string", "finite-one-not-a-unit",
         "finite-nonassociative", "finite-one-list", "action-missing-algebra",
         "action-missing-ideal", "action-file-list"],
)
def test_malformed_input_reports(tmp_path, kind, payload, message):
    """Malformed input ends in exit 2 with a JSON report, never a traceback,
    and the report names the fault where a message is given.  All four
    commands refuse a malformed instance alike."""
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(payload))
    argv = {
        "instance": ["verify", "--instance", str(path)],
        "ring": ["conv", "--instance", str(INSTANCES / "dq.json"), "--ring", str(path)],
        "action": [
            "hcore", "--instance", str(INSTANCES / "dq.json"), "--action", str(path)
        ],
        "ideal": [
            "hcore", "--instance", str(INSTANCES / "dq.json"),
            "--action", str(ACTIONS / "dq_qx_ix.json"), "--ideal", str(path),
        ],
    }[kind]
    proc = subprocess.run(
        [sys.executable, "-m", "hopfcore.cli", *argv],
        capture_output=True, text=True, env=subprocess_env(), timeout=120,
    )
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert report["status"] == "input-error"
    assert proc.stderr == ""
    if message is not None:
        assert report["error"] == message
    if kind == "instance":
        for command, *rest in (
            ["build"],
            ["conv", "--ring", "q"],
            ["hcore", "--action", str(ACTIONS / "dq_qx_ix.json")],
        ):
            code, rep = run(tmp_path, command, "--instance", str(path), *rest)
            assert (code, rep["status"], rep["error"]) == (
                2, "input-error", report["error"]
            ), command


@pytest.mark.parametrize(
    "coeff", MALFORMED_COEFFS, ids=["string", "float", "list", "null", "bool"]
)
def test_malformed_coefficient_stops_build_at_load(tmp_path, coeff):
    """A bracket coefficient that is not a rational literal, a bool among
    them, fails the load stage of build as an input error."""
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(sl2_with_ef(coeff)))
    code, rep = run(tmp_path, "build", "--instance", str(path))
    assert code == 2
    assert rep["status"] == "input-error"
    assert rep["error"] == f"cannot interpret {coeff!r} as a rational"
    assert rep["stages"] == [
        {"stage": "load", "status": "fail", "detail": rep["error"]}
    ]


@pytest.mark.parametrize(
    "lie, message",
    [
        ({**UEG_HEIS, "generators": ["x", "x", "z"]}, "duplicate generator names"),
        ({**UEG_HEIS, "brackets": {"x": {"w": {"z": "1"}}}},
         "bracket on unknown generators [x,w]"),
        ({**UEG_HEIS, "brackets": {"x": {"y": {"w": "1"}}}},
         "bracket value on unknown generator 'w'"),
    ],
    ids=["duplicate-names", "unknown-bracket-pair", "unknown-bracket-value"],
)
def test_bad_generator_names_are_input_errors(tmp_path, lie, message):
    """Duplicate ueg generator names and brackets on unknown generators are
    input errors: build fails its load stage and verify stops, both with
    exit 2."""
    path = tmp_path / "heis.json"
    path.write_text(json.dumps({"kind": "ueg", "degree_bound": 3, "lie": lie}))
    code, rep = run(tmp_path, "build", "--instance", str(path))
    assert (code, rep["status"], rep["error"]) == (2, "input-error", message)
    assert rep["stages"] == [{"stage": "load", "status": "fail", "detail": message}]
    code, rep = run(tmp_path, "verify", "--instance", str(path))
    assert (code, rep["status"], rep["error"]) == (2, "input-error", message)


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[0, 1], [0]], "inconsistent row lengths"),
        ([[0, 1], [0, 0]], "operator for 'd' has the wrong shape"),
        ([[0] * 9] * 8, "operator for 'd' has the wrong shape"),
        ([], "operator for 'd' has the wrong shape"),
    ],
    ids=["ragged", "two-by-two", "eight-by-nine", "empty"],
)
def test_matrix_operator_shape_errors(tmp_path, matrix, message):
    """A matrix operator on Q[x] at bound 8 must be 9 x 9."""
    path = tmp_path / "action.json"
    path.write_text(json.dumps(
        {**load_fixture("actions/dq_qx_ix.json"), "generators": {"d": matrix}}
    ))
    argv = ["hcore", "--instance", str(INSTANCES / "dq.json"), "--action", str(path)]
    code, rep = run(tmp_path, *argv)
    assert code == 2
    assert rep["status"] == "input-error" and rep["error"] == message


def test_operator_spellings_agree(tmp_path):
    """d/dx on Q[x] at bound 8, once as operator sugar and once as the
    explicit 9 x 9 matrix sending x^j to j x^(j-1), gives the same core."""
    sugar = load_fixture("actions/dq_qx_ix.json")
    matrix = [[j if i == j - 1 else 0 for j in range(9)] for i in range(9)]
    reports = []
    for name, generators in (("sugar", sugar["generators"]), ("matrix", {"d": matrix})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**sugar, "generators": generators}))
        reports.append(run(
            tmp_path, "hcore", "--instance", str(INSTANCES / "dq.json"),
            "--action", str(path), "--probe-bound", "2",
        ))
    (code, rep), (matrix_code, matrix_rep) = reports
    assert code == matrix_code == 0
    for block in ("checks", "summary", "core"):
        assert rep[block] == matrix_rep[block]
    assert rep["core"]["dims_by_cap"] == [4, 3, 2, 1, 0]
    assert rep["summary"]["PASS"] > 0


DUAL_NUMBERS = {
    # Q[t, u]/(t, u)^2: t and u square and multiply to zero
    "kind": "finite",
    "basis": ["1", "t", "u"],
    "one": "1",
    "mult": {"1": {"1": {"1": "1"}, "t": {"t": "1"}, "u": {"u": "1"}},
             "t": {"1": {"t": "1"}}, "u": {"1": {"u": "1"}}},
}


@pytest.mark.parametrize(
    "vectors, code, core, error",
    [
        # A/(t + u/4) keeps the nilpotent class of u: the semiprime probe fails
        ([[0, "2", "1/2"]], 1, ["t + 1/4*u"], None),
        ([[0, 1, 0], [0, 0, "1/2"]], 0, ["t", "u"], None),
        ([[0, 1]], 2, None, "vector length does not match ambient dimension"),
        ([[1, 1, 0]], 2, None, "subspace is not a two-sided ideal"),
        (["010"], 2, None,
         "a row of subspace \"vectors\" must be a list of rationals, got '010'"),
    ],
    ids=["line", "plane", "wrong-length", "not-an-ideal", "row-string"],
)
def test_subspace_ideal_on_a_finite_algebra(tmp_path, vectors, code, core, error):
    """A subspace ideal's rows are read as sparse vectors: the core's basis
    text is its echelon rows, and a row of the wrong length or a subspace
    that is not an ideal is an input error."""
    path = tmp_path / "action.json"
    path.write_text(json.dumps({
        "algebra": DUAL_NUMBERS,
        "generators": {"d": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]},
        "ideal": {"kind": "subspace", "vectors": vectors},
        "ideal_properties": ["semiprime"],
    }))
    argv = ["hcore", "--instance", str(INSTANCES / "dq.json"), "--action", str(path)]
    got, rep = run(tmp_path, *argv)
    assert got == code
    if error is not None:
        assert rep["status"] == "input-error" and rep["error"] == error
        return
    assert rep["core"]["basis"] == core
    # the zero operator keeps every ideal: the core is the ideal itself
    assert rep["core"]["dims_by_cap"] == [len(core)] * 5


@pytest.mark.parametrize(
    "algebra, field",
    [
        ({"kind": "polynomial", "variables": "x", "bound": 4}, '"variables"'),
        ({"kind": "polynomial", "variables": ["x", 1], "bound": 4}, '"variables"'),
        ({"kind": "polynomial", "variables": ["x"], "bound": -1}, '"bound"'),
        ({"kind": "polynomial", "variables": ["x"], "bound": "4"}, '"bound"'),
    ],
    ids=["variables-string", "variables-not-strings", "bound-negative", "bound-string"],
)
def test_polynomial_algebra_errors_name_the_field(tmp_path, algebra, field):
    path = tmp_path / "action.json"
    path.write_text(json.dumps({
        "algebra": algebra,
        "generators": {"d": {"kind": "operator", "terms": [
            {"coeff": "1", "derivatives": {"x": 1}}]}},
        "ideal": {"kind": "zero"},
    }))
    out = tmp_path / "report.json"
    argv = ["hcore", "--instance", str(INSTANCES / "dq.json"), "--action", str(path)]
    assert main([*argv, "--out", str(out)]) == 2
    report = json.loads(out.read_text())
    assert report["status"] == "input-error"
    assert field in report["error"]


def test_splitting_without_counit_adjuster_fails_the_pipeline(tmp_path):
    """With eps(1) = 0 no complement of C_0 in C_1 lies in the kernel of the
    counit; the pipeline raises instead of going on with a splitting that
    ignores the counit.  verify refuses these tables at the counit-unit
    axiom, before the pipeline."""
    instance = load_fixture("instances/shifted_line.json")
    instance["tables"]["counit"] = {"s": "1"}
    with pytest.raises(HopfcoreError) as info:
        PBWStructure.from_bialgebra(instance_from_json(instance))
    assert str(info.value) == (
        "no complement of inner (dim 1) in outer (dim 2) lies in the "
        "kernel of the constraint"
    )
    path = tmp_path / "eps0.json"
    path.write_text(json.dumps(instance))
    code, rep = run(tmp_path, "verify", "--instance", str(path), "--trials", "3")
    assert (code, rep["status"]) == (2, "input-error")
    assert rep["checks"][0] == {
        "check": "counit-unit", "detail": "eps(1) != 1", "status": "FAIL", "subject": "1",
    }
    assert "pipeline" not in {c["check"] for c in rep["checks"]}


FILE = object()  # the place of the input file in an argv


def assert_main_reports(argv):
    """``main(argv)`` must end in a JSON report on stdout with a documented
    exit code and write nothing to stderr; the exit code and the report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    report = json.loads(out.getvalue())
    assert {"schema", "status"} <= set(report)
    assert err.getvalue() == ""
    return code, report


def assert_ends_in_a_report(payload, argv):
    """``assert_main_reports`` on argv with ``FILE`` replaced by the path of
    a temporary JSON file holding payload."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "input.json"
        path.write_text(json.dumps(payload))
        assert_main_reports([str(path) if arg is FILE else arg for arg in argv])


# every command, with FILE in place of the one input file it reads
READS_A_FILE = {
    "build": ["build", "--instance", FILE],
    "verify": ["verify", "--instance", FILE],
    "conv": ["conv", "--instance", str(INSTANCES / "dq.json"), "--ring", FILE],
    "hcore": [
        "hcore", "--instance", str(INSTANCES / "dq.json"),
        "--action", str(ACTIONS / "dq_qx_ix.json"), "--ideal", FILE,
    ],
}
# every command on valid input
RUNS = {
    "build": ["build", "--instance", str(INSTANCES / "qt.json")],
    "verify": ["verify", "--instance", str(INSTANCES / "qt.json"), "--trials", "2"],
    "conv": [
        "conv", "--instance", str(INSTANCES / "qt.json"), "--ring", "q", "--trials", "2"
    ],
    "hcore": [
        "hcore", "--instance", str(INSTANCES / "dq.json"),
        "--action", str(ACTIONS / "dq_qx_ix.json"),
    ],
}


@pytest.mark.parametrize("command", list(READS_A_FILE))
def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, command):
    """A file that does not decode as UTF-8 is refused like one that is not
    valid JSON, with exit 2 and a report, under every command."""
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    argv = [str(path) if arg is FILE else arg for arg in READS_A_FILE[command]]
    code, report = assert_main_reports(argv)
    assert (code, report["status"]) == (2, "input-error")
    assert report["error"] == (
        f"{path} is not valid JSON: 'utf-8' codec can't decode byte 0xff in "
        "position 0: invalid start byte"
    )


@pytest.mark.parametrize(
    "argv",
    [
        READS_A_FILE["build"],
        READS_A_FILE["verify"],
        ["conv", "--instance", FILE, "--ring", "q"],
        READS_A_FILE["conv"],
        ["hcore", "--instance", str(INSTANCES / "dq.json"), "--action", FILE],
        READS_A_FILE["hcore"],
    ],
    ids=["build", "verify", "conv-instance", "conv-ring", "hcore-action", "hcore-ideal"],
)
def test_an_integer_past_the_digit_limit_is_an_input_error(tmp_path, argv):
    """An integer literal of more digits than Python converts (4,300) is
    refused like any other file that is not valid JSON, with exit 2 and a
    report, wherever a command reads a file."""
    path = tmp_path / "huge.json"
    path.write_text('{"kind": "raw", "degree_bound": ' + "9" * 5000 + "}")
    code, report = assert_main_reports([str(path) if arg is FILE else arg for arg in argv])
    assert (code, report["status"]) == (2, "input-error")
    assert report["error"].startswith(f"{path} is not valid JSON: ")


@pytest.mark.parametrize("command", list(RUNS))
@pytest.mark.parametrize("where", ["in-a-missing-directory", "a-directory"])
def test_an_out_that_cannot_be_opened_is_an_input_error(
    tmp_path, monkeypatch, command, where
):
    """An --out that cannot be opened stops the command before it loads its
    instance: the bare input-error report, naming the path, goes to stdout."""
    out = tmp_path if where == "a-directory" else tmp_path / "missing" / "r.json"

    def load_instance(path, degree):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "load_instance", load_instance)
    code, report = assert_main_reports([*RUNS[command], "--out", str(out)])
    assert (code, set(report)) == (2, {"command", "schema", "status", "error"})
    assert report["status"] == "input-error"
    assert report["error"].startswith(f"cannot write {out}: ")


@pytest.mark.parametrize("command", list(RUNS))
def test_a_report_written_to_out_is_the_stdout_report(tmp_path, command):
    """--out holds the bytes the command writes to stdout, replacing what
    the file held before."""
    out = tmp_path / "report.json"
    out.write_text("x" * 100_000)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(RUNS[command]) == main([*RUNS[command], "--out", str(out)])
    assert out.read_text(encoding="utf-8") == stdout.getvalue()


DUAL_RING = {
    "name": "dual",
    "basis": ["1", "t"],
    "one": {"1": "1"},
    "mult": {"1": {"1": {"1": "1"}, "t": {"t": "1"}}, "t": {"1": {"t": "1"}}},
    "flags": {"prime": False, "semiprime": False, "domain": False},
}
ABSENT = object()

_labels = st.sampled_from(["1", "t", "x"]) | st.text(max_size=2)
_leaves = (
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(width=16)
    | st.sampled_from(["1", "-1", "1/2", "0", "2/0", "x"])
)
_json = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_labels, inner, max_size=3),
    max_leaves=8,
)
_combos = st.dictionaries(_labels, _leaves, max_size=2)
_ring_fields = {
    "basis": st.lists(_labels, max_size=4),
    "mult": st.dictionaries(
        _labels, st.dictionaries(_labels, _combos, max_size=3), max_size=3
    ),
    "one": _combos,
    "flags": st.dictionaries(
        st.sampled_from(["prime", "semiprime", "domain"]) | _labels,
        _leaves,
        max_size=3,
    ),
    "name": _leaves,
}
mutated_rings = st.fixed_dictionaries(
    {
        key: st.just(DUAL_RING.get(key, ABSENT)) | st.just(ABSENT) | typed | _json
        for key, typed in _ring_fields.items()
    }
).map(lambda ring: {k: v for k, v in ring.items() if v is not ABSENT})


@settings(max_examples=60, deadline=None)
@given(ring=mutated_rings)
def test_mutated_ring_tables_end_in_a_report(ring):
    """A ring table with any of its fields replaced, mistyped or removed
    ends in a JSON report with a documented exit code, never a traceback."""
    assert_ends_in_a_report(ring, [
        "conv", "--instance", str(INSTANCES / "dq.json"), "--ring", FILE, "--trials", "2",
    ])


POLY_ACTION = json.loads((ACTIONS / "dq_qx_ix.json").read_text())
FINITE_ACTION = {
    "algebra": {
        "kind": "finite",
        "basis": ["1", "t", "u"],
        "one": "1",
        "mult": {"1": {"1": {"1": "1"}, "t": {"t": "1"}, "u": {"u": "1"}},
                 "t": {"1": {"t": "1"}}, "u": {"1": {"u": "1"}}},
    },
    "generators": {"d": [[0, 0, 0], [0, 0, 0], [0, 1, 0]]},
    "ideal": {"kind": "subspace", "vectors": [[0, "2", "1/2"]]},
    "ideal_properties": ["completely_prime"],
}
_small = st.integers(-2, 2) | st.sampled_from(["1/2", "-1", "0"])
_exps = st.dictionaries(
    st.sampled_from(["x", "y"]) | _labels, st.integers(0, 3) | _leaves, max_size=2
)
_terms = st.lists(
    st.fixed_dictionaries(
        {}, optional={"coeff": _small | _leaves, "monomial": _exps, "derivatives": _exps}
    ),
    max_size=3,
)
_action_fields = {
    "algebra": st.fixed_dictionaries({
        "kind": st.just("polynomial"),
        "variables": st.lists(st.sampled_from(["x", "y"]) | _labels, max_size=2),
        "bound": st.integers(0, 4) | _leaves,
    }) | st.fixed_dictionaries({
        "kind": st.just("finite"),
        "basis": st.just(["1", "t", "u"]) | st.lists(_labels, max_size=3),
        "one": st.sampled_from(["1", "t"]) | _leaves,
        "mult": st.just(FINITE_ACTION["algebra"]["mult"]) | _json,
    }),
    "generators": st.dictionaries(
        st.sampled_from(["d", "e"]),
        st.lists(st.lists(_small, min_size=3, max_size=3), min_size=3, max_size=3)
        | st.fixed_dictionaries({"kind": st.just("operator"), "terms": _terms}),
        max_size=2,
    ),
    "ideal": st.sampled_from([{"kind": "zero"}, {"kind": "unit"}])
    | st.fixed_dictionaries({
        "kind": st.just("subspace"),
        "vectors": st.lists(st.lists(_small, min_size=3, max_size=3), max_size=3),
    })
    | st.fixed_dictionaries({"kind": st.just("monomial"),
                             "generators": st.lists(_exps, max_size=2)})
    | st.fixed_dictionaries({"kind": st.just("principal"), "element": _terms}),
    "ideal_properties": st.lists(
        st.sampled_from(["completely_prime", "prime", "semiprime", "domain"]), max_size=2
    ),
}


@st.composite
def mutated_actions(draw):
    """One of the two action files with one or two of its fields replaced,
    mistyped or removed."""
    spec = dict(draw(st.sampled_from([POLY_ACTION, FINITE_ACTION])))
    keys = st.sampled_from(sorted(_action_fields))
    for key in draw(st.sets(keys, min_size=1, max_size=2)):
        spec[key] = draw(_action_fields[key] | st.just(ABSENT) | _json)
    return {k: v for k, v in spec.items() if v is not ABSENT}


@settings(max_examples=60, deadline=None)
@given(spec=mutated_actions())
def test_mutated_action_files_end_in_a_report(spec):
    """An action file with its algebra, generators, ideal or ideal
    properties replaced, mistyped or removed ends in a JSON report with a
    documented exit code, never a traceback."""
    assert_ends_in_a_report(spec, [
        "hcore", "--instance", str(INSTANCES / "dq.json"),
        "--action", FILE, "--probe-bound", "2",
    ])


UEG_INSTANCE = load_fixture("instances/heis.json")
# the divided-power line at degree 2 as raw tables, antipode and degrees
# included, so an unmutated table runs the whole pipeline
RAW_INSTANCE = instance_to_json(build_ueg(["t"], {}, 2))
_generators = st.sampled_from(["x", "y", "z"]) | _labels
_instance_fields = {
    "kind": st.sampled_from(["ueg", "xyw", "raw"]),
    # a large bound costs time and memory, which is not a fault
    "degree_bound": st.integers(-1, 4),
    "lie.generators": st.lists(_generators, max_size=3),
    "lie.brackets": st.dictionaries(
        _generators, st.dictionaries(_generators, _combos, max_size=2), max_size=2
    ),
    "tables.basis": st.lists(st.sampled_from(["1", "t", "t^(2)"]) | _labels, max_size=4),
    "tables.unit": _labels,
    "tables.mult": _ring_fields["mult"],
    "tables.comult": st.dictionaries(
        _labels, st.lists(st.lists(_labels | _leaves, max_size=3), max_size=3), max_size=3
    ),
    "tables.counit": _combos,
    "tables.antipode": st.dictionaries(_labels, _combos, max_size=3),
    "tables.degrees": st.dictionaries(_labels, st.integers(-1, 3) | _leaves, max_size=3),
}


@st.composite
def mutated_instances(draw):
    """A ueg, xyw or raw instance file with one or two of its kind, degree
    bound, Lie data or raw tables replaced, mistyped or removed."""
    spec = json.loads(json.dumps(
        draw(st.sampled_from([UEG_INSTANCE, {"kind": "xyw", "degree_bound": 3}, RAW_INSTANCE]))
    ))
    paths = [p for p in sorted(_instance_fields) if "." not in p or p.split(".")[0] in spec]
    for path in draw(st.sets(st.sampled_from(paths), min_size=1, max_size=2)):
        *parent, key = path.split(".")
        target = spec[parent[0]] if parent else spec
        value = draw(_instance_fields[path] | st.just(ABSENT) | _json)
        if value is ABSENT:
            target.pop(key, None)
        else:
            target[key] = value
    return spec


@settings(max_examples=60, deadline=None)
@given(
    spec=mutated_instances(),
    command=st.sampled_from([
        ["build"], ["verify", "--trials", "2"],
        ["conv", "--ring", "qx2", "--trials", "2"], ["conv", "--ring", "m2q", "--trials", "2"],
    ]),
)
def test_mutated_instance_files_end_in_a_report(spec, command):
    """An instance file with its kind, degree bound, Lie data or raw tables
    replaced, mistyped or removed ends in a JSON report with a documented
    exit code under build, verify and conv, never a traceback."""
    assert_ends_in_a_report(spec, [command[0], "--instance", FILE, *command[1:]])


HCORE_HOSTS = [("dq", "dq_qx_ix"), ("sl2", "sl2_qxy_ix"), ("xyw", "xyw_qu")]


@st.composite
def integer_argvs(draw):
    """A command on the fixtures with drawn integer options: --degree 1-4,
    --trials 0-5, --support-cap -1-6, --probe-bound -1-9 (above every core
    cap) and any --seed.  hcore runs the three actions on their hosts."""
    command = draw(st.sampled_from(["build", "verify", "conv", "hcore"]))
    if command == "hcore":
        host, action = draw(st.sampled_from(HCORE_HOSTS))
        argv = ["hcore", "--instance", str(INSTANCES / f"{host}.json"),
                "--action", str(ACTIONS / f"{action}.json"),
                "--probe-bound", str(draw(st.integers(-1, 9)))]
    else:
        instance = draw(st.sampled_from(sorted(INSTANCES.glob("*.json"))))
        argv = [command, "--instance", str(instance)]
    if command in ("verify", "conv"):
        argv += ["--trials", str(draw(st.integers(0, 5)))]
    if command == "conv":
        argv += ["--ring", draw(st.sampled_from(sorted(convolution.BUILTIN_RINGS))),
                 "--support-cap", str(draw(st.integers(-1, 6)))]
    return argv + ["--degree", str(draw(st.integers(1, 4))),
                   "--seed", str(draw(st.integers()))]


@settings(max_examples=60, deadline=None)
@given(argv=integer_argvs())
def test_cli_integers_end_in_a_report(argv):
    """Any degree, trial count, support cap, probe bound and seed in range
    ends in a JSON report with a documented exit code, never a traceback."""
    assert_main_reports(argv)


def test_other_errors_end_in_a_report(tmp_path, monkeypatch):
    """A HopfcoreError other than an input error is reported with exit 1."""

    def anomaly(s, t):
        raise HopfcoreError("leading term mismatch")

    monkeypatch.setattr(convolution, "prime_witness", anomaly)
    code, rep = run(
        tmp_path, "conv", "--instance", str(INSTANCES / "heis.json"),
        "--ring", "m2q", "--trials", "5",
    )
    assert code == 1
    assert rep == {
        "command": "conv",
        "schema": 1,
        "error": "leading term mismatch",
        "status": "fail",
    }


JACOBI_BROKEN = {
    # [[a, b], c] + [[b, c], a] + [[c, a], b] = [c, c] + [a, a] + [a, b] = c
    "kind": "ueg", "degree_bound": 3,
    "lie": {"generators": ["a", "b", "c"],
            "brackets": {"a": {"b": {"c": "1"}}, "b": {"c": {"a": "1"}},
                         "c": {"a": {"a": "1"}}}},
}


@pytest.mark.parametrize(
    "instance, error",
    [
        (load_fixture("instances/grouplike.json"),
         "filtration stalls at dimension 1 of 2 (layer dims so far: [1])"),
        (JACOBI_BROKEN, "Jacobi identity fails on (a,b,c)"),
    ],
    ids=["not-connected", "not-a-lie-algebra"],
)
@pytest.mark.parametrize(
    "command",
    [["build"], ["verify", "--trials", "2"], ["conv", "--ring", "q", "--trials", "2"],
     ["hcore", "--action", str(ACTIONS / "dq_qx_ix.json")]],
    ids=["build", "verify", "conv", "hcore"],
)
def test_setup_errors_are_typed_alike_in_every_command(tmp_path, instance, error, command):
    """An instance that is not connected, or whose brackets break the
    Jacobi identity, fails every command with exit 1: it is no input error.
    verify reports the first as its pipeline line, the rest as the error."""
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    code, rep = run(tmp_path, command[0], "--instance", str(path), *command[1:])
    assert (code, rep["status"]) == (1, "fail")
    if "error" in rep:
        assert rep["error"] == error
    else:
        assert command[0] == "verify"
        assert rep["checks"][-1]["detail"] == error


def test_operator_for_an_unknown_generator_is_an_input_error(tmp_path):
    path = tmp_path / "action.json"
    spec = load_fixture("actions/dq_qx_ix.json")
    path.write_text(json.dumps(
        {**spec, "generators": {**spec["generators"], "e": spec["generators"]["d"]}}
    ))
    argv = ["hcore", "--instance", str(INSTANCES / "dq.json"), "--action", str(path)]
    code, rep = run(tmp_path, *argv)
    assert (code, rep["status"]) == (2, "input-error")
    assert rep["error"] == "operator for unknown generator 'e'"


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--instance", str(INSTANCES / "heis.json")],
        ["verify", "--instance", str(INSTANCES / "xyw.json"), "--trials", "30"],
        ["conv", "--instance", str(INSTANCES / "heis.json"), "--ring", "m2q",
         "--trials", "30"],
        ["hcore", "--instance", str(INSTANCES / "sl2.json"),
         "--action", str(ACTIONS / "sl2_qxy_ix.json"), "--probe-bound", "2"],
    ],
    ids=["build", "verify", "conv", "hcore"],
)
def test_reports_do_not_depend_on_the_hash_seed(argv):
    """The same command under two hash seeds writes the same bytes, so no
    report depends on the iteration order of a set or of a dict keyed by
    strings or exponent vectors."""
    outputs = [
        subprocess.run(
            [sys.executable, "-m", "hopfcore.cli", *argv, "--seed", "11"],
            capture_output=True, timeout=120,
            env=subprocess_env(PYTHONHASHSEED=seed),
        )
        for seed in ("0", "1")
    ]
    assert outputs[0].returncode in (0, 3)
    assert [p.returncode for p in outputs] == [outputs[0].returncode] * 2
    assert outputs[0].stdout == outputs[1].stdout


def test_import_leaves_out_dataclasses_and_inspect():
    """Every job is a fresh process, so the command line's import is paid
    per job; ``dataclasses`` would bring in ``inspect``, ``ast`` and ``dis``
    and exec generated methods for each record."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import hopfcore.cli, sys; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, env=subprocess_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
