import json
import os
import subprocess
import sys

import pytest

from hopfcore import convolution
from hopfcore.cli import main
from hopfcore.errors import ProbeAnomaly
from conftest import FIXTURES, ROOT, load_fixture

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
DUAL_NUMBERS_MULT = {"1": {"1": {"1": "1"}, "t": {"t": "1"}}, "t": {"1": {"t": "1"}}}


@pytest.mark.parametrize(
    "kind, payload",
    [
        ("instance", {"kind": "ueg", "degree_bound": 3,
                      "lie": {**UEG_HEIS, "brackets": {"x": {"y": {"z": "1/0"}}}}}),
        ("instance", {"kind": "ueg", "degree_bound": -3, "lie": UEG_HEIS}),
        ("instance", {"kind": "ueg", "degree_bound": 3,
                      "lie": {**UEG_HEIS, "generators": "xyz"}}),
        ("ring", {"name": "bad", "basis": ["1"], "one": {"1": "1"},
                  "mult": {"1": {"1": {"1": "1/0"}}},
                  "flags": {"prime": True, "semiprime": True, "domain": True}}),
        ("action", {"algebra": {"kind": "polynomial", "variables": ["x"], "bound": 4},
                    "generators": {"d": {"kind": "operator", "terms": [
                        {"coeff": "1/0", "derivatives": {"x": 1}}]}},
                    "ideal": {"kind": "monomial", "generators": [{"x": 1}]}}),
        ("ring", {"name": "bad", "basis": ["1"], "one": {"1": "1"},
                  "mult": {"1": 5}, "flags": {}}),
        ("action", {"algebra": {"kind": "finite", "basis": ["1"], "one": "1",
                                "mult": {"1": 5}},
                    "generators": {"d": [["0"]]}, "ideal": {"kind": "zero"}}),
        ("action", {"algebra": {"kind": "polynomial", "variables": "x", "bound": 4},
                    "generators": {"d": {"kind": "operator", "terms": [
                        {"coeff": "1", "derivatives": {"x": 1}}]}},
                    "ideal": {"kind": "monomial", "generators": [{"x": 1}]}}),
        ("action", {"algebra": {"kind": "polynomial", "variables": ["x"], "bound": -1},
                    "generators": {"d": {"kind": "operator", "terms": [
                        {"coeff": "1", "derivatives": {"x": 1}}]}},
                    "ideal": {"kind": "zero"}}),
        ("action", {"algebra": {"kind": "finite", "basis": "1t", "one": "1",
                                "mult": DUAL_NUMBERS_MULT},
                    "generators": {"d": [["0", "0"], ["0", "0"]]},
                    "ideal": {"kind": "zero"}}),
        ("ring", {"name": "bad", "basis": "1t", "one": {"1": "1"},
                  "mult": DUAL_NUMBERS_MULT,
                  "flags": {"prime": False, "semiprime": False, "domain": False}}),
        ("instance", {"kind": "raw", "degree_bound": 1, "tables": {
            "basis": "1s", "unit": "1",
            "mult": {"1": {"1": {"1": "1"}, "s": {"s": "1"}}, "s": {"1": {"s": "1"}}},
            "comult": {"1": [["1", "1", "1"]],
                       "s": [["s", "1", "1"], ["1", "s", "1"], ["1", "1", "-1"]]},
            "counit": {"1": "1", "s": "1"}}}),
        ("instance", {"kind": "raw", "degree_bound": 1, "tables": {
            "basis": ["1", "s"], "unit": "1",
            "mult": {"1": {"1": {"1": "1"}, "s": {"s": "1"}}, "s": {"1": {"s": "1"}}},
            "comult": {"1": ["111"],
                       "s": [["s", "1", "1"], ["1", "s", "1"], ["1", "1", "-1"]]},
            "counit": {"1": "1", "s": "1"}}}),
        ("action", {**load_fixture("actions/dq_qx_ix.json"),
                    "ideal_properties": "completely_prime"}),
        ("ideal", {"ideal": {"kind": "monomial", "generators": [{"x": 1}]},
                   "ideal_properties": "prime"}),
    ],
    ids=["bracket-zero-denominator", "negative-bound", "generators-string",
         "ring-zero-denominator", "operator-zero-denominator",
         "ring-table-row-not-object", "algebra-table-row-not-object",
         "polynomial-variables-string", "polynomial-negative-bound",
         "finite-basis-string", "ring-basis-string", "raw-basis-string",
         "raw-comult-term-string", "ideal-properties-string",
         "ideal-file-properties-string"],
)
def test_malformed_input_reports(tmp_path, kind, payload):
    """Malformed input ends in exit 2 with a JSON report, never a traceback."""
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "hopfcore.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["status"] == "input-error"
    assert "Traceback" not in proc.stderr


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
