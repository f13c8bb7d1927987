"""The theorem checked on A/core where it says something: the three
``fixtures/actions/dq_*z*.json`` cases, with d = ∂_z acting on a
polynomial algebra through the one-generator host ``dq.json``.

(a) I = (x, z) in Q[x, z] is prime; the core is (x) and A/core = Q[z].
(b) I = (x², z) is not prime; the core is (x²) and the probes fail on
    (x, x).
(c) I = (xy, z) in Q[x, y, z] is semiprime but not prime; the core is (xy).

Each report's values and sha256 digest are pinned, so the witness lines
written over a quotient A/I stay byte-identical.  The reports embed the
input paths, so the commands run from the repository root.

The digests and exit codes of six ``--ideal`` overrides on sl2 and of one
``subspace`` ideal on a finite algebra are pinned too: every ideal kind's
normal basis, normal forms and quotient table reach those reports.
"""

import collections
import contextlib
import hashlib
import io
import json

import pytest

from hopfcore.cli import main
from hopfcore.table import PolynomialAlgebra
from conftest import ROOT

CASES = {
    "dq_qxz_ixz": dict(
        degree=7,
        probe_bound=3,
        exit=0,
        ideal="(x, z)",
        core=(["x", "z"], 7, 6, (1, 0)),
        dims_by_cap=[27, 26, 25, 24, 23, 22, 21, 21],
        lines={
            ("domain-probe", "PASS"): 10,
            ("prime-witness", "PASS"): 10,
            ("semiprime-witness", "PASS"): 4,
        },
        digest="a9954864daceca1d26730f75245e9a1b9d3a35aaf1a4ad0e85779c41672da4a6",
    ),
    "dq_qxz_ix2z": dict(
        degree=7,
        probe_bound=2,
        exit=1,
        ideal="(x^2, z)",
        core=(["x", "z"], 7, 6, (2, 0)),
        dims_by_cap=[26, 24, 22, 20, 18, 16, 15, 15],
        lines={
            ("domain-probe", "PASS"): 12,
            ("domain-probe", "FAIL"): 3,
            ("prime-witness", "PASS"): 12,
            ("prime-witness", "FAIL"): 3,
            ("semiprime-witness", "PASS"): 3,
            ("semiprime-witness", "FAIL"): 2,
        },
        digest="cbc9067e80db2cd46a5c433b3b78c75886e77c200673680627713d9606d242a3",
    ),
    "dq_qxyz_ixyz": dict(
        degree=6,
        probe_bound=3,
        exit=3,
        ideal="(x*y, z)",
        core=(["x", "y", "z"], 6, 5, (1, 1, 0)),
        dims_by_cap=[45, 36, 29, 24, 21, 20, 20],
        lines={
            ("prime-witness", "PASS"): 100,
            ("prime-witness", "INCONCLUSIVE"): 36,
            ("semiprime-witness", "PASS"): 16,
        },
        digest="9db88ece8ab9c826842a159fb8066a9f972aed8340dc3b7eecef2babac4e7686",
    ),
}


def _run(monkeypatch, name, case):
    monkeypatch.chdir(ROOT)
    argv = [
        "hcore",
        "--instance", "fixtures/instances/dq.json",
        "--degree", str(case["degree"]),
        "--action", f"fixtures/actions/{name}.json",
        "--probe-bound", str(case["probe_bound"]),
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", list(CASES))
def test_dq_core_fixture(monkeypatch, name):
    case = CASES[name]
    code, text = _run(monkeypatch, name, case)
    report = json.loads(text)
    assert code == case["exit"]
    core = report["core"]
    assert core["ideal"] == case["ideal"]
    assert core["dims_by_cap"] == case["dims_by_cap"]
    assert core["stabilized"] is True
    assert core["dim"] == case["dims_by_cap"][-1]
    # the core is the principal monomial ideal (x^g) up to the core cap
    variables, bound, cap, g = case["core"]
    algebra = PolynomialAlgebra(variables, bound)
    assert core["basis"] == [
        algebra.basis_labels[t]
        for t, e in enumerate(algebra.monomials)
        if sum(e) <= cap and all(a >= b for a, b in zip(e, g))
    ]
    probes = collections.Counter(
        (line["check"], line["status"])
        for line in report["checks"]
        if line["check"].endswith(("-probe", "-witness"))
    )
    assert dict(probes) == case["lines"]
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == case["digest"]


def test_dq_not_prime_fails_on_x_x(monkeypatch):
    """In case (b) the prime scan over A/(x^2, z) finds no middle factor
    for (x, x), and names the leading values it scanned."""
    _, text = _run(monkeypatch, "dq_qxz_ix2z", CASES["dq_qxz_ix2z"])
    lines = {
        (line["check"], line["subject"]): line for line in json.loads(text)["checks"]
    }
    fail = lines[("prime-witness", "x,x")]
    assert fail["status"] == "FAIL"
    assert fail["detail"] == (
        "no middle factor r with s_min r t_min != 0 over A/(x^2, z) "
        "(s_min=x, t_min=x)"
    )
    assert lines[("semiprime-witness", "z")]["detail"] == "r=1"


# probe bounds above the action's core cap: (instance, degree, action,
# probe bound) -> (exit code, check-line count).  An element past the cap is
# probed only when its image under ``conv_map`` is nonzero, so none of these
# reaches the leading term of a zero element.
ABOVE_CAP = {
    ("dq", 2, "dq_qx_ix", 6): (3, 10),
    ("xyw", 4, "xyw_qu", 8): (3, 31),
    ("sl2", 2, "sl2_qxy_ix", 6): (3, 187),
    ("dq", 3, "dq_qxz_ix2z", 7): (1, 84),
}


@pytest.mark.parametrize(
    "key", list(ABOVE_CAP), ids=lambda key: f"{key[2]}-D{key[1]}-p{key[3]}"
)
def test_probe_bound_above_the_core_cap(monkeypatch, key):
    instance, degree, action, bound = key
    spec = json.loads((ROOT / "fixtures" / "actions" / f"{action}.json").read_text())
    assert bound > spec.get("core_degree_cap", degree)
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([
            "hcore",
            "--instance", f"fixtures/instances/{instance}.json",
            "--degree", str(degree),
            "--action", f"fixtures/actions/{action}.json",
            "--probe-bound", str(bound),
        ])
    report = json.loads(out.getvalue())
    assert "error" not in report
    assert (code, len(report["checks"])) == ABOVE_CAP[key]


# ``hcore --ideal`` overrides on sl2 acting on Q[x, y] at --degree 6, and one
# ``subspace`` ideal on Q[t, u]/(t, u)^2 with d sending t to u.  The reports
# embed the input paths, so each run writes its inputs into a temporary
# directory and names them relative to it.
PROPERTIES = ["completely_prime", "prime", "semiprime"]


def _term(coeff, monomial):
    return {"coeff": coeff, "monomial": monomial}


OVERRIDES = {
    "principal-x+y^2": (
        {"kind": "principal", "element": [_term("1", {"x": 1}), _term("1", {"y": 2})]},
        0,
        "c273042dd863de788765ca0afa2afe94f5e9574883f9baf499aa473232e71388",
    ),
    "principal-1+2y-xy/3": (
        {"kind": "principal", "element": [
            _term("1", {}), _term("2", {"y": 1}), _term("-1/3", {"x": 1, "y": 1})]},
        0,
        "e9194fc1551101400dee1e683cfe365a25b33b94470595c5d90b936f80b7dd24",
    ),
    "principal-x^2-3xy": (
        {"kind": "principal", "element": [
            _term("1", {"x": 2}), _term("-3", {"x": 1, "y": 1})]},
        0,
        "4981d39c68c0bd8babeed5eeb517da5d39d8bd876d9edff43e96b29312d14a78",
    ),
    "monomial-x^2,xy": (
        {"kind": "monomial", "generators": [{"x": 2}, {"x": 1, "y": 1}]},
        1,
        "a9ea95b0ae73908e0eeb0e3ffa28a38bf2ef03200bf7cfd59b8256e5bec7c186",
    ),
    "zero": (
        {"kind": "zero"},
        0,
        "72e4e59186bbfe5332ae3fb7055d4f491ee519de79f663fec23229811de62a2b",
    ),
    "unit": (
        {"kind": "unit"},
        0,
        "0d3311a0054d73717ea46caa06b73ce37e7b6a239d3ac4d46caa94d032369636",
    ),
}


def _run_in(monkeypatch, tmp_path, files, argv):
    """main(argv) run in tmp_path, after writing each (relative path, JSON)
    of files there; returns the exit code and the report text."""
    for name, payload in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", list(OVERRIDES))
def test_ideal_override_report(monkeypatch, tmp_path, name):
    ideal, exit_code, digest = OVERRIDES[name]
    fixtures = ROOT / "fixtures"
    files = {
        "sl2.json": json.loads((fixtures / "instances" / "sl2.json").read_text()),
        "action.json": json.loads(
            (fixtures / "actions" / "sl2_qxy_ix.json").read_text()
        ),
        "ideal.json": {"ideal": ideal, "ideal_properties": PROPERTIES},
    }
    code, text = _run_in(monkeypatch, tmp_path, files, [
        "hcore", "--instance", "sl2.json", "--degree", "6",
        "--action", "action.json", "--ideal", "ideal.json",
    ])
    assert code == exit_code
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_subspace_ideal_report(monkeypatch, tmp_path):
    """span{t + u/4} is an ideal of Q[t, u]/(t, u)^2 that d leaves at cap 1."""
    algebra = {
        "kind": "finite",
        "basis": ["1", "t", "u"],
        "one": "1",
        "mult": {"1": {"1": {"1": "1"}, "t": {"t": "1"}, "u": {"u": "1"}},
                 "t": {"1": {"t": "1"}}, "u": {"1": {"u": "1"}}},
    }
    files = {
        "dq.json": json.loads((ROOT / "fixtures" / "instances" / "dq.json").read_text()),
        "action.json": {
            "algebra": algebra,
            "generators": {"d": [[0, 0, 0], [0, 0, 0], [0, 1, 0]]},
            "ideal": {"kind": "subspace", "vectors": [[0, "2", "1/2"]]},
            "ideal_properties": PROPERTIES,
        },
    }
    code, text = _run_in(monkeypatch, tmp_path, files, [
        "hcore", "--instance", "dq.json", "--action", "action.json",
    ])
    assert code == 1
    assert json.loads(text)["core"]["dims_by_cap"] == [1, 0, 0, 0, 0]
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "46f992fd8b2ccd2b4a2730855ca8bc367c1a1042fa25b6eb77b42423e40962aa"
    )


# Upper-triangular T2 on {1, E12, E22} with d acting as ad(E12), which sends
# E22 to E12 and kills 1 and E12.  In a finite-dimensional algebra every
# prime ideal is maximal, and the core of a prime ideal is prime, so the core
# of each maximal ideal is the ideal itself: the theorem checked exactly,
# with nothing truncated.
T2_MULT = {
    "1": {"1": {"1": "1"}, "E12": {"E12": "1"}, "E22": {"E22": "1"}},
    "E12": {"1": {"E12": "1"}, "E22": {"E12": "1"}},
    "E22": {"1": {"E22": "1"}, "E22": {"E22": "1"}},
}
T2_MAXIMAL = {
    "span(E12,E22)": [[0, 1, 0], [0, 0, 1]],
    "span(E12,1-E22)": [[0, 1, 0], [1, 0, -1]],
}


@pytest.mark.parametrize("name", list(T2_MAXIMAL))
def test_core_of_a_maximal_ideal_of_t2_is_the_ideal(tmp_path, name):
    action = {
        "algebra": {"kind": "finite", "basis": ["1", "E12", "E22"], "one": "1",
                    "mult": T2_MULT},
        "core_degree_cap": 4,
        "generators": {"d": [[0, 0, 0], [0, 0, 1], [0, 0, 0]]},
        "ideal": {"kind": "subspace", "vectors": T2_MAXIMAL[name]},
        "ideal_properties": ["prime", "completely_prime", "semiprime"],
    }
    path = tmp_path / "t2.json"
    path.write_text(json.dumps(action))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([
            "hcore", "--instance", str(ROOT / "fixtures" / "instances" / "dq.json"),
            "--action", str(path),
        ])
    report = json.loads(out.getvalue())
    assert (code, report["status"]) == (0, "ok")
    # the core lies in I, so equal dimensions make it I
    assert report["core"]["dims_by_cap"] == [2, 2, 2, 2, 2]
    assert report["core"]["dim"] == 2
    probes = {line["check"] for line in report["checks"]}
    assert {"domain-probe", "prime-witness", "semiprime-witness"} <= probes
