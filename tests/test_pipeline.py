"""The construction pipeline's record: for every way it can stop, `build`
reports the stages that ran, the instance facts those stages established,
the status and the exit code, and `verify` reports the same failure as its
`pipeline`/`construction` line."""

import gc
import json
import weakref
from functools import cached_property

import pytest

from hopfcore import coalgebra, errors, pbw
from hopfcore.cli import main
from hopfcore.coalgebra import (
    GradedSplitting,
    coradical_filtration,
    graded_splitting,
    gr_structure,
    instance_from_json,
)
from conftest import FIXTURES, load_fixture, run_check

INSTANCES = FIXTURES / "instances"

STAGES = [
    "load", "verify_axioms", "coradical_filtration", "check_connected",
    "graded_splitting", "gr_structure", "verify_gr_facts",
    "extract_generators", "lift_generators", "verify_basis",
]

# Delta(x) = x (x) 1 + 1 (x) x with the product x * x absent at bound 2: the
# filtration reaches everything by degree 1, and the associated graded
# algebra needs the missing product
RAW_NO_SQUARE = {
    "kind": "raw",
    "degree_bound": 2,
    "tables": {
        "basis": ["1", "x"],
        "unit": "1",
        "mult": {"1": {"1": {"1": "1"}, "x": {"x": "1"}}, "x": {"1": {"x": "1"}}},
        "comult": {"1": [["1", "1", "1"]], "x": [["x", "1", "1"], ["1", "x", "1"]]},
        "counit": {"1": "1"},
    },
}

# a primitive x and a grouplike g: the filtration stalls at C_1 = span{1, x},
# the last step the bound 2 allows
RAW_LATE_STALL = {
    "kind": "raw",
    "degree_bound": 2,
    "tables": {
        "basis": ["1", "x", "g"],
        "unit": "1",
        "mult": {"1": {"1": {"1": "1"}, "x": {"x": "1"}, "g": {"g": "1"}},
                 "x": {"1": {"x": "1"}}, "g": {"1": {"g": "1"}, "g": {"1": "1"}}},
        "comult": {"1": [["1", "1", "1"]], "x": [["x", "1", "1"], ["1", "x", "1"]],
                   "g": [["g", "g", "1"]]},
        "counit": {"1": "1", "g": "1"},
    },
}

# Delta(y) = y (x) 1 + 1 (x) y + x (x) x puts y in C_2, past the bound 1
RAW_SHORT_OF_BOUND = {
    "kind": "raw",
    "degree_bound": 1,
    "tables": {
        "basis": ["1", "x", "y"],
        "unit": "1",
        "mult": {"1": {"1": {"1": "1"}, "x": {"x": "1"}, "y": {"y": "1"}},
                 "x": {"1": {"x": "1"}}, "y": {"1": {"y": "1"}}},
        "comult": {"1": [["1", "1", "1"]], "x": [["x", "1", "1"], ["1", "x", "1"]],
                   "y": [["y", "1", "1"], ["1", "y", "1"], ["x", "x", "1"]]},
        "counit": {"1": "1"},
    },
}

HEIS_D2 = {"dim": 10, "degree_bound": 2, "layer_dims": [1, 4, 10], "connected": True}
HEIS_GENS = {
    "generators": [
        {"degree": 1, "id": "x"}, {"degree": 1, "id": "y"}, {"degree": 1, "id": "z"}
    ],
    "index_counts": [1, 3, 6],
}
STALL = "filtration stalls at dimension 1 of 2 (layer dims so far: [1])"
LATE_STALL = "filtration stalls at dimension 2 of 3 (layer dims so far: [1, 2])"
SHORT = "filtration reaches dimension 2 of 3 at the bound"
NO_SQUARE = "product x * x exceeds the truncation bound 2"

# name: (instance, injected step and error, failing stage, detail, status,
#        exit code, instance block)
CASES = {
    "grouplike": (
        "grouplike.json", None, "check_connected", STALL, "fail", 1,
        {"dim": 2, "degree_bound": 2},
    ),
    "late-stall": (
        RAW_LATE_STALL, None, "check_connected", LATE_STALL, "fail", 1,
        {"dim": 3, "degree_bound": 2},
    ),
    "short-of-bound": (
        RAW_SHORT_OF_BOUND, None, "check_connected", SHORT, "fail", 1,
        {"dim": 3, "degree_bound": 1},
    ),
    "no-square": (
        RAW_NO_SQUARE, None, "gr_structure", NO_SQUARE, "fail", 1,
        {"dim": 2, "degree_bound": 2, "layer_dims": [1, 2, 2], "connected": True,
         "splitting_dims": [1, 1, 0]},
    ),
    "splitting": (
        "heis.json", ("graded_splitting", errors.HopfcoreError),
        "graded_splitting", "injected at graded_splitting", "fail", 1, HEIS_D2,
    ),
    "generators": (
        "heis.json", ("extract_generators", errors.HopfcoreError),
        "extract_generators", "injected at extract_generators", "fail", 1,
        {**HEIS_D2, "splitting_dims": [1, 3, 6]},
    ),
    "lifts": (
        "heis.json", ("lift_generators", errors.BasisDefect),
        "lift_generators", "injected at lift_generators", "fail", 1,
        {**HEIS_D2, "splitting_dims": [1, 3, 6]},
    ),
    "basis": (
        "heis.json", ("verify_all_bases", errors.BasisDefect),
        "verify_basis", "injected at verify_all_bases", "fail", 1,
        {**HEIS_D2, "splitting_dims": [1, 3, 6], **HEIS_GENS},
    ),
    "complete": (
        "heis.json", None, None, "", "ok", 0,
        {**HEIS_D2, "splitting_dims": [1, 3, 6], **HEIS_GENS,
         "basis_dims": [1, 4, 10]},
    ),
}


def _run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


def _inject(monkeypatch, step, error):
    def fail(*args, **kwargs):
        raise error(f"injected at {step}")

    if step == "verify_all_bases":
        monkeypatch.setattr(pbw.PBWStructure, step, fail)
    else:
        monkeypatch.setattr(pbw, step, fail)


def _instance_args(tmp_path, instance):
    if isinstance(instance, dict):
        path = tmp_path / "raw.json"
        path.write_text(json.dumps(instance))
        return ["--instance", str(path)]
    if instance == "heis.json":
        return ["--instance", str(INSTANCES / instance), "--degree", "2"]
    return ["--instance", str(INSTANCES / instance)]


@pytest.mark.parametrize("case", list(CASES))
def test_build_stages_record_the_pipeline(tmp_path, monkeypatch, case):
    instance, inject, failed, detail, status, code, info = CASES[case]
    if inject:
        _inject(monkeypatch, *inject)
    got_code, rep = _run(tmp_path, "build", *_instance_args(tmp_path, instance))
    reached = STAGES.index(failed) if failed else len(STAGES)
    expected = [{"stage": s, "status": "ok", "detail": ""} for s in STAGES[:reached]]
    if failed:
        expected.append({"stage": failed, "status": "fail", "detail": detail})
        assert rep["error"] == detail
    else:
        assert "error" not in rep
    assert rep["stages"] == expected
    assert rep["instance"] == info
    assert (rep["status"], got_code) == (status, code)


@pytest.mark.parametrize(
    "case",
    ["grouplike", "late-stall", "short-of-bound", "no-square", "splitting",
     "generators", "lifts"],
)
def test_verify_reports_the_construction_failure(tmp_path, monkeypatch, case):
    instance, inject, _, detail, _, _, _ = CASES[case]
    if inject:
        _inject(monkeypatch, *inject)
    argv = ["verify", *_instance_args(tmp_path, instance), "--trials", "5"]
    code, rep = _run(tmp_path, *argv)
    pipeline = [c for c in rep["checks"] if c["check"] == "pipeline"]
    assert pipeline == [
        {"check": "pipeline", "subject": "construction", "status": "FAIL", "detail": detail}
    ]
    assert (rep["status"], code) == ("fail", 1)


def test_a_dependence_found_late_adds_no_basis_line(tmp_path, monkeypatch):
    """``verify_all_bases`` adds its lines only once the whole basis change
    is built: monomials found dependent at the top degree, after every lower
    degree passed, leave no ``basis degree n`` line, in ``verify`` (its one
    basis FAIL line) and in ``build`` (its failed ``verify_basis`` stage)."""
    real = pbw.PBWStructure.integral_monomial

    def collapsed(self, p):
        # the last monomial becomes the unit, which every layer holds, so
        # only the inverse finds the monomials dependent
        if p == len(self.indices) - 1:
            return 1, {self.data.unit_index: 1}
        return real(self, p)

    monkeypatch.setattr(pbw.PBWStructure, "integral_monomial", collapsed)
    args = _instance_args(tmp_path, "heis.json")
    defect = "degree 2: monomials are dependent"
    code, rep = _run(tmp_path, "verify", *args)
    assert [c for c in rep["checks"] if c["check"] == "basis"] == [
        {"check": "basis", "subject": "-", "status": "FAIL", "detail": defect}
    ]
    assert code == 1
    code, rep = _run(tmp_path, "build", *args)
    assert rep["stages"][-1] == {"stage": "verify_basis", "status": "fail", "detail": defect}
    assert not [c for c in rep["checks"] if c["check"] == "basis"]
    assert (rep["error"], code) == (defect, 1)


def test_verify_basis_defect_stops_verify(tmp_path, monkeypatch):
    # verify reports the defect as its basis line and skips the two checks
    # that expand on the monomial basis; every other line is the clean run's,
    # except level closure, whose random draws no longer follow span closure's
    _, clean = _run(tmp_path, "verify", *_instance_args(tmp_path, "heis.json"))
    _inject(monkeypatch, "verify_all_bases", errors.BasisDefect)
    code, rep = _run(tmp_path, "verify", *_instance_args(tmp_path, "heis.json"))
    moved = {"basis", "split-expansion", "span-closure", "level-closure"}
    kept = [c for c in clean["checks"] if c["check"] not in moved]
    assert kept and [c for c in rep["checks"] if c["check"] not in moved] == kept
    assert [c for c in rep["checks"] if c["check"] in moved - {"level-closure"}] == [
        {"check": "basis", "subject": "-", "status": "FAIL",
         "detail": "injected at verify_all_bases"},
        {"check": "split-expansion", "subject": "-", "status": "SKIP",
         "detail": "no monomial basis"},
        {"check": "span-closure", "subject": "-", "status": "SKIP",
         "detail": "no monomial basis"},
    ]
    assert any(c["check"] == "level-closure" for c in rep["checks"])
    assert "error" not in rep
    assert (rep["status"], code) == ("fail", 1)


def test_load_failure(tmp_path):
    missing = str(tmp_path / "missing.json")
    reason = f"cannot read {missing}: [Errno 2] No such file or directory: '{missing}'"
    code, rep = _run(tmp_path, "build", "--instance", missing)
    assert rep["stages"] == [{"stage": "load", "status": "fail", "detail": reason}]
    assert (rep["instance"], rep["checks"], rep["status"], code) == ({}, [], "input-error", 2)
    code, rep = _run(tmp_path, "verify", "--instance", missing)
    assert rep == {"command": "verify", "schema": 1, "status": "input-error", "error": reason}
    assert code == 2


def test_axiom_failure(tmp_path):
    code, rep = _run(tmp_path, "build", "--instance", str(INSTANCES / "xyw_corrupt.json"))
    assert rep["stages"] == [
        {"stage": s, "status": "ok", "detail": ""} for s in ("load", "verify_axioms")
    ]
    assert rep["instance"] == {"dim": 7, "degree_bound": 2}
    assert rep["error"] == "bialgebra axioms fail; see checks"
    assert (rep["status"], code) == ("input-error", 2)
    # verify stops there too, with the axiom lines as its checks
    axioms = rep["checks"]
    code, rep = _run(
        tmp_path, "verify", "--instance", str(INSTANCES / "xyw_corrupt.json"),
        "--trials", "5",
    )
    assert rep["checks"] == axioms
    assert rep["error"] == "bialgebra axioms fail; see checks"
    assert (rep["status"], code) == ("input-error", 2)


def _escape_degree_one_products(monkeypatch):
    """Patch the splitting's product so that a product of two degree-1
    vectors picks up the top splitting vector, escaping its degree 2."""
    product = GradedSplitting.product

    def escaping(self, a, b):
        coords = dict(product(self, a, b))
        if self.degrees[a] == self.degrees[b] == 1:
            top = self.dim - 1
            coords[top] = coords.get(top, 0) + 1
        return coords

    monkeypatch.setattr(GradedSplitting, "product", escaping)


ESCAPE = "product t * t escapes filtration degree 2"


def test_escaping_product_fails_gr_structure(tmp_path, monkeypatch):
    """`filtration-multiplicative` is checked where the associated graded
    algebra is built: a product that escapes its degree stops
    `gr_structure`, so `build` records that stage as failed and `verify`
    reports it as its pipeline line."""
    data = instance_from_json(load_fixture("instances/qt.json"))
    split = graded_splitting(coradical_filtration(data), data)
    assert split.degrees == (0, 1, 2, 3)
    _escape_degree_one_products(monkeypatch)
    with pytest.raises(errors.HopfcoreError) as caught:
        gr_structure(split)
    assert str(caught.value) == ESCAPE

    argv = ["--instance", str(INSTANCES / "qt.json")]
    code, rep = _run(tmp_path, "build", *argv)
    reached = STAGES.index("gr_structure")
    assert rep["stages"] == [
        {"stage": s, "status": "ok", "detail": ""} for s in STAGES[:reached]
    ] + [{"stage": "gr_structure", "status": "fail", "detail": ESCAPE}]
    assert (rep["status"], rep["error"], code) == ("fail", ESCAPE, 1)

    code, rep = _run(tmp_path, "verify", *argv, "--trials", "5")
    assert [c for c in rep["checks"] if c["check"] == "pipeline"] == [
        {"check": "pipeline", "subject": "construction", "status": "FAIL",
         "detail": ESCAPE}
    ]
    assert not [c for c in rep["checks"] if c["check"] == "filtration-multiplicative"]
    assert (rep["status"], code) == ("fail", 1)


def test_construction_releases_gr():
    """Once ``from_bialgebra`` has returned, the associated graded algebra
    lives on only where the recorder keeps it: the structure it returns
    does not pin the front end.  (The splitting, a tuple, takes no weak
    reference.)"""
    seen = {}

    def watch(name, step):
        result = step()
        if name == "gr_structure":
            seen["gr"] = weakref.ref(result)
        return result

    data = instance_from_json(load_fixture("instances/heis.json"), 3)
    host = pbw.PBWStructure.from_bialgebra(data, watch)
    gc.collect()
    assert seen["gr"]() is None
    assert run_check(host.verify_all_bases).passed


@pytest.fixture
def delta_builds(monkeypatch):
    """The names of the classes whose Delta table was built, in order: the
    splitting's (``GradedSplitting.comult``) and gr's
    (``GradedBialgebra.comult``), each built on first read."""
    built = []
    for cls in (coalgebra.GradedSplitting, coalgebra.GradedBialgebra):
        build = cls.comult.func

        def counted(self, build=build, name=cls.__name__):
            built.append(name)
            return build(self)

        spy = cached_property(counted)
        spy.__set_name__(cls, "comult")
        monkeypatch.setattr(cls, "comult", spy)
    return built


ACTIONS = FIXTURES / "actions"


@pytest.mark.parametrize(
    "argv, built",
    [
        (["build", "--instance", str(INSTANCES / "heis.json")], []),
        (
            ["verify", "--instance", str(INSTANCES / "heis.json"), "--trials", "3"],
            ["GradedSplitting", "GradedBialgebra"],
        ),
        (["conv", "--instance", str(INSTANCES / "sl2.json"), "--ring", "m2q",
          "--trials", "3"], []),
        (["hcore", "--instance", str(INSTANCES / "sl2.json"),
          "--action", str(ACTIONS / "sl2_qxy_ix.json")], []),
    ],
    ids=["build", "verify", "conv", "hcore"],
)
def test_only_the_checks_of_verify_build_the_delta_tables(tmp_path, delta_builds, argv, built):
    """Neither the splitting's Delta nor gr's is built unless a command
    reads it: only the checks of verify do, and they build each once.
    build's stages and its gr facts read neither."""
    main([*argv, "--out", str(tmp_path / "report.json")])
    assert delta_builds == built
