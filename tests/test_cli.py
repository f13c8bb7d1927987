import contextlib
import io
import json
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from hopfcore import convolution
from hopfcore.cli import main
from hopfcore.errors import ProbeAnomaly
from conftest import FIXTURES, load_fixture, subprocess_env

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


def test_verify_corrupted_reports_expansion_violation(tmp_path):
    code, rep = run(
        tmp_path,
        "verify",
        "--instance",
        str(INSTANCES / "xyw_corrupt.json"),
        "--trials",
        "10",
    )
    assert code == 1
    fails = {(c["check"], c["subject"]) for c in rep["checks"] if c["status"] == "FAIL"}
    assert ("split-expansion", "x^2") in fails
    assert ("comult-multiplicative", "x,x") in fails


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
         "finite-nonassociative"],
)
def test_malformed_input_reports(tmp_path, kind, payload, message):
    """Malformed input ends in exit 2 with a JSON report, never a traceback,
    and the report names the fault where a message is given."""
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
    counit; verify reports that as a pipeline FAIL line instead of going on
    with a splitting that ignores the counit."""
    instance = load_fixture("instances/shifted_line.json")
    instance["tables"]["counit"] = {"s": "1"}
    path = tmp_path / "eps0.json"
    path.write_text(json.dumps(instance))
    code, rep = run(tmp_path, "verify", "--instance", str(path), "--trials", "3")
    assert code == 1
    assert rep["checks"][-1] == {
        "check": "pipeline",
        "detail": "no complement of inner (dim 1) in outer (dim 2) lies in the "
                  "kernel of the constraint",
        "status": "FAIL",
        "subject": "construction",
    }


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
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "ring.json"
        path.write_text(json.dumps(ring))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([
                "conv", "--instance", str(INSTANCES / "dq.json"),
                "--ring", str(path), "--trials", "2",
            ])
    assert code in (0, 1, 2, 3)
    report = json.loads(out.getvalue())
    assert {"schema", "status"} <= set(report)
    assert err.getvalue() == ""


def test_other_errors_end_in_a_report(tmp_path, monkeypatch):
    """A HopfcoreError other than an input error is reported with exit 1."""

    def anomaly(s, t):
        raise ProbeAnomaly("leading term mismatch")

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
