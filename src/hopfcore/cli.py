"""Batch command line: build pipelines, verification suites, convolution
trials, and stable-core computations, with machine-readable JSON reports.

Commands
    build   construct the full pipeline for an instance and report stages
    verify  run every membership / basis / expansion check on an instance
    conv    coefficient-ring checks, leading-term trials, and witnesses
    hcore   module-algebra action: stable core of an ideal plus probes

Exit codes: 0 all pass, 1 some check failed, 2 input or format error,
3 no failures but some checks were inconclusive under truncation.
Reports are byte-identical for identical configurations and seeds.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from contextlib import nullcontext
from math import perm
from typing import Mapping, Optional

from . import action as action_mod
from . import coalgebra, convolution
from .errors import (
    BasisDefect,
    HopfcoreError,
    InputFormatError,
    NotABialgebra,
    NoWitnessFound,
    ExpansionViolation,
    TruncationError,
)
from .linalg import Q0, Q1, SparseRow, exact, nonzero, rat, rat_str
from .pbw import PBWStructure
from .report import FAIL, INCONCLUSIVE, PASS, SKIP, Report, write
from .table import (
    PolynomialAlgebra,
    TableAlgebra,
    json_int,
    json_object,
    parse_table,
    rational_list,
    string_list,
)

SCHEMA = 1


# ---------------------------------------------------------------------------
# input loading


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, UnicodeDecodeError, or an int past the digit limit
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc


def load_instance(path: str, degree: Optional[int]) -> coalgebra.FilteredBialgebraData:
    return coalgebra.instance_from_json(_load_json(path), degree)


def _load_bialgebra(args, report: Report, stage=None) -> coalgebra.FilteredBialgebraData:
    """Load --instance and decide whether the command may use it: its
    bialgebra axioms and its antipode law must hold, else NotABialgebra.
    ``build`` and ``verify`` check every instance and list the axiom lines;
    ``conv`` and ``hcore`` check raw instances only and list the lines only
    when they fail.  A recorder ``stage`` (see ``PBWStructure.from_bialgebra``)
    sees the load and the axioms as steps and takes their report."""
    run = stage or (lambda name, step: step())
    data = run("load", lambda: load_instance(args.instance, args.degree))
    if args.command in ("conv", "hcore") and not data.raw:
        return data
    axioms = run("verify_axioms", lambda: coalgebra.verify_axioms(data))
    if stage is None and (args.command == "verify" or not axioms.passed):
        report.extend(axioms)
    if not axioms.passed:
        raise NotABialgebra("bialgebra axioms fail; see checks")
    coalgebra.check_antipode(data)
    return data


def _exponents(algebra: PolynomialAlgebra, mono, what: str) -> list[int]:
    """The exponent vector of a JSON monomial {variable: k}, one entry per
    variable of the algebra.  An unknown variable, or an exponent that is
    not an integer >= 0, raises InputFormatError naming what is read."""
    exps = [0] * len(algebra.variables)
    for var, k in json_object(mono, what).items():
        if var not in algebra.variables:
            raise InputFormatError(f"unknown variable {var!r} in {what}")
        exps[algebra.variables.index(var)] = json_int(
            k, f"exponent of {var!r} in {what}", 0
        )
    return exps


def _poly_vector(algebra: PolynomialAlgebra, terms) -> SparseRow:
    coords: SparseRow = {}
    for term in terms:
        term = json_object(term, "a term")
        exps = _exponents(algebra, term.get("monomial", {}), "a monomial")
        t = algebra.monomial_index(exps)
        coords[t] = coords.get(t, Q0) + rat(term.get("coeff", "1"))
    return nonzero(coords)


def _operator_columns(algebra: TableAlgebra, gid: str, spec) -> list[SparseRow]:
    """The sparse columns of the operator of generator gid, spelled as a
    dim x dim matrix (a list of rows) or as a ``"kind": "operator"`` object
    of terms monomial * derivatives."""
    dim = algebra.dim
    if isinstance(spec, list):
        rows = [rational_list(row, f"a row of the matrix of {gid!r}") for row in spec]
        if any(len(row) != len(rows[0]) for row in rows):
            raise InputFormatError("inconsistent row lengths")
        if len(rows) != dim or len(rows[0]) != dim:
            raise InputFormatError(f"operator for {gid!r} has the wrong shape")
        return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(dim)]
    if not isinstance(spec, Mapping) or spec.get("kind") != "operator":
        raise InputFormatError("operator spec must be a matrix or an operator object")
    if not isinstance(algebra, PolynomialAlgebra):
        raise InputFormatError("operator sugar needs a polynomial algebra")
    terms = []
    for term in spec.get("terms", []):
        term = json_object(term, "an operator term")
        terms.append((
            rat(term.get("coeff", "1")),
            _exponents(algebra, term.get("monomial", {}), "a monomial"),
            _exponents(algebra, term.get("derivatives", {}), '"derivatives"'),
        ))
    columns = []
    for alpha in algebra.monomials:
        image: SparseRow = {}
        for coeff, mu, beta in terms:
            if any(a < b for a, b in zip(alpha, beta)):
                continue
            scale = coeff
            for a, b in zip(alpha, beta):
                scale *= perm(a, b)
            if not scale:
                continue
            target = tuple(a - b + m for a, b, m in zip(alpha, beta, mu))
            if sum(target) > algebra.degree_bound:
                raise InputFormatError(
                    "operator raises degree beyond the algebra truncation"
                )
            t = algebra.index[target]
            image[t] = image.get(t, Q0) + scale
        columns.append({t: exact(c) for t, c in sorted(image.items()) if c})
    return columns


def _algebra_from_json(obj: Mapping) -> TableAlgebra:
    kind = json_object(obj, '"algebra"').get("kind")
    if kind == "polynomial":
        variables = string_list(obj["variables"], 'polynomial "variables"')
        bound = json_int(obj["bound"], 'polynomial "bound"', 0)
        return PolynomialAlgebra(variables, bound)
    if kind == "finite":
        labels = string_list(obj["basis"], 'finite algebra "basis"')
        pos = {s: i for i, s in enumerate(labels)}
        one = obj["one"]
        if not isinstance(one, str):
            raise InputFormatError(
                f'finite algebra "one" must be a basis label, got {one!r}'
            )
        if one not in pos:
            raise InputFormatError(f"unit label {one!r} not in basis")
        table = parse_table(obj.get("mult", {}), pos)
        algebra = TableAlgebra.finite(labels, table, {pos[one]: Q1})
        for b, label in enumerate(labels):
            for left, right in ((one, label), (label, one)):
                if algebra.mul({pos[left]: Q1}, {pos[right]: Q1}) != {b: Q1}:
                    raise InputFormatError(
                        f"{one!r} is not a two-sided unit of the finite algebra: "
                        f"{left}*{right} != {label}"
                    )
        algebra.require_associative()
        return algebra
    raise InputFormatError(f"unknown algebra kind {kind!r}")


def _ideal_from_json(algebra: TableAlgebra, obj) -> action_mod.Ideal:
    kind = json_object(obj, '"ideal"').get("kind")
    Ideal = action_mod.Ideal
    if isinstance(algebra, PolynomialAlgebra):
        if kind == "zero":
            return Ideal.monomial(algebra, [])
        if kind == "unit":
            return Ideal.monomial(algebra, [[0] * len(algebra.variables)])
        if kind == "monomial":
            return Ideal.monomial(
                algebra,
                [_exponents(algebra, m, "a monomial") for m in obj["generators"]],
            )
        if kind == "principal":
            return Ideal.principal(algebra, _poly_vector(algebra, obj["element"]))
        raise InputFormatError(f"ideal kind {kind!r} needs a finite algebra")
    if kind == "zero":
        return Ideal.subspace(algebra, [])
    if kind == "unit":
        return Ideal.subspace(algebra, [{i: Q1} for i in range(algebra.dim)])
    if kind == "subspace":
        rows = [
            rational_list(row, 'a row of subspace "vectors"') for row in obj["vectors"]
        ]
        if any(len(row) != algebra.dim for row in rows):
            raise InputFormatError("vector length does not match ambient dimension")
        return Ideal.subspace(
            algebra, [{i: c for i, c in enumerate(row) if c} for row in rows]
        )
    raise InputFormatError(f"ideal kind {kind!r} needs a polynomial algebra")


# ---------------------------------------------------------------------------
# report assembly


EXIT_CODES = {"ok": 0, "fail": 1, "input-error": 2, "inconclusive": 3}


def _status(report: Report) -> str:
    counts = report.counts
    if counts[FAIL]:
        return "fail"
    if counts[INCONCLUSIVE]:
        return "inconclusive"
    return "ok"


def _error_status(exc: Exception) -> str:
    return "input-error" if isinstance(exc, InputFormatError) else "fail"


def _emit(args, payload: dict) -> int:
    """Write payload as the report of the command in args; the exit code of
    its status."""
    payload = {"command": args.command, "schema": SCHEMA, **payload}
    target = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    with target as out:
        write(payload, out)
    return EXIT_CODES[payload["status"]]


def _finish(args, report: Report, error: Optional[Exception] = None, **extra) -> int:
    """Write a command's report: its configuration (the values of its
    options), its check lines and their status, the error that stopped it
    if any, and the command's own blocks in extra."""
    if error is not None:
        extra["error"] = str(error)
    return _emit(args, {
        "config": {
            key: value for key, value in vars(args).items()
            if key not in ("command", "out", "func")
        },
        "checks": report.lines,
        "summary": report.counts,
        "status": _status(report) if error is None else _error_status(error),
        **extra,
    })


def _error(args, exc: Exception) -> int:
    """Write the bare report of a command stopped before its checks."""
    return _emit(args, {"error": str(exc), "status": _error_status(exc)})


# ---------------------------------------------------------------------------
# build


def cmd_build(args, report: Report) -> int:
    """Load and check the instance, then run the construction pipeline with
    a recorder: the report's stages are the pipeline's record, with the
    checks ``verify_gr_facts`` (as soon as gr exists) and
    ``verify_all_bases`` (at the end, as ``verify_basis``) as stages too,
    and its checks the reports those stages returned."""
    stages: list[dict] = []
    done: dict = {}

    def stage(name: str, fn):
        try:
            result = fn()
        except HopfcoreError as exc:
            stages.append({"stage": name, "status": "fail", "detail": str(exc)})
            raise
        stages.append({"stage": name, "status": "ok", "detail": ""})
        if isinstance(result, Report):
            report.extend(result)
        done[name] = result
        if name == "gr_structure":
            data, split = done["load"], done["graded_splitting"]
            stage("verify_gr_facts", lambda: coalgebra.verify_gr_facts(result, data, split))
        return result

    error = None
    try:
        pbw = PBWStructure.from_bialgebra(_load_bialgebra(args, report, stage), stage)
        stage("verify_basis", pbw.verify_all_bases)
    except HopfcoreError as exc:
        error = exc

    info: dict = {}
    if "load" in done:
        bound = done["load"].degree_bound
        info["dim"] = done["load"].dim
        info["degree_bound"] = bound
    if "check_connected" in done:
        info["layer_dims"] = list(done["check_connected"].dims)
        info["connected"] = True
    if "graded_splitting" in done:
        degrees = done["graded_splitting"].degrees
        info["splitting_dims"] = [degrees.count(d) for d in range(bound + 1)]
    if "lift_generators" in done:
        gens, _ = done["extract_generators"]
        info["generators"] = gens.to_json()
        info["index_counts"] = [gens.count_exact(d) for d in range(bound + 1)]
    if "verify_basis" in done:
        # verify_all_bases raises unless every layer has a basis of monomials
        info["basis_dims"] = info["layer_dims"]
    return _finish(args, report, error, stages=stages, instance=info)


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args, report: Report) -> int:
    data = _load_bialgebra(args, report)
    # the structure holds neither the splitting nor gr; a recorder keeps them
    steps: dict = {}

    def keep(name: str, step):
        steps[name] = step()
        return steps[name]

    try:
        pbw = PBWStructure.from_bialgebra(data, keep)
    except HopfcoreError as exc:
        report.add("pipeline", "construction", FAIL, str(exc))
        return _finish(args, report)

    split, gr = steps["graded_splitting"], steps["gr_structure"]
    report.extend(coalgebra.check_primitivity_defects(data, split))
    report.extend(coalgebra.check_delta_consistency(split))
    report.extend(coalgebra.check_coradically_graded(gr))
    report.extend(coalgebra.verify_gr_facts(gr, data, split))

    try:
        report.extend(pbw.verify_all_bases())
        has_basis = True
    except BasisDefect as exc:
        report.add("basis", "-", FAIL, str(exc))
        has_basis = False

    bound, labels = data.degree_bound, pbw.labels
    for n in range(len(labels)):
        # the indices m with deg n + deg m <= bound are a prefix
        for m in range(pbw.count_up_to(bound - pbw.degrees[n])):
            subject = f"{labels[n]},{labels[m]}"
            try:
                c, _ = pbw.structure_constant(n, m)
                report.add("structure-constant", subject, PASS, f"c={rat_str(c)}")
            except BasisDefect as exc:
                report.add("structure-constant", subject, FAIL, str(exc))

    rng = random.Random(args.seed)
    if has_basis:
        for p, label in enumerate(pbw.labels):
            try:
                report.extend(pbw.check_split_expansion(p))
            except ExpansionViolation as exc:
                report.add("split-expansion", label, FAIL, str(exc))
        report.extend(pbw.check_span_closure(rng, args.trials))
    else:
        # both expand on the monomial basis, which does not exist here
        for check in ("split-expansion", "span-closure"):
            report.add(check, "-", SKIP, "no monomial basis")
    report.extend(coalgebra.check_level_closure(gr, rng, args.trials))

    return _finish(args, report)


# ---------------------------------------------------------------------------
# conv


def cmd_conv(args, report: Report) -> int:
    data = _load_bialgebra(args, report)
    if args.ring in convolution.BUILTIN_RINGS:
        ring = convolution.builtin_ring(args.ring)
    else:
        ring = convolution.ring_from_tables(_load_json(args.ring))
    pbw = PBWStructure.from_bialgebra(data)

    report.extend(convolution.ring_check(ring))
    rng = random.Random(args.seed)
    cap = args.support_cap if args.support_cap is not None else data.degree_bound // 2

    for trial in range(args.trials):
        f = convolution.random_conv_element(pbw, ring, rng, cap)
        g = convolution.random_conv_element(pbw, ring, rng, cap)
        try:
            outcome = convolution.check_leading_law(f, g)
            left, right = outcome.lead_left.index, outcome.lead_right.index
            report.add(
                "leading-law",
                f"trial {trial}",
                PASS if outcome.passed else FAIL,
                f"lead {pbw.labels[left]}+{pbw.labels[right]}",
            )
        except TruncationError:
            report.add("leading-law", f"trial {trial}", INCONCLUSIVE, "beyond the bound")

    if ring.flags["domain"]:
        for trial in range(args.trials):
            f = convolution.random_conv_element(pbw, ring, rng, cap)
            g = convolution.random_conv_element(pbw, ring, rng, cap)
            leads = convolution.leading(f).index, convolution.leading(g).index
            if pbw.index_sum(*leads) is None:
                report.add(
                    "domain-product", f"trial {trial}", INCONCLUSIVE, "beyond the bound"
                )
                continue
            ok = not convolution.convolve(f, g).is_zero
            report.add("domain-product", f"trial {trial}", PASS if ok else FAIL)

    if ring.flags["prime"]:
        for trial in range(args.trials):
            s = convolution.random_conv_element(pbw, ring, rng, cap)
            t = convolution.random_conv_element(pbw, ring, rng, cap)
            convolution.add_witness_line(report, f"trial {trial}", s, t)

    if ring.flags["semiprime"]:
        for trial in range(args.trials):
            s = convolution.random_conv_element(pbw, ring, rng, cap)
            convolution.add_witness_line(report, f"trial {trial}", s)

    if ring.flags["prime"] is False:
        refuter = convolution.prime_refuter(ring)
        if refuter is None:
            report.add("prime-refutation", ring.name, FAIL, "no refuting pair found")
        else:
            a, b = refuter
            s = convolution.counit_pullback(pbw, ring, {a: Q1})
            t = convolution.counit_pullback(pbw, ring, {b: Q1})
            try:
                convolution.prime_witness(s, t)
                report.add("prime-refutation", ring.name, FAIL, "witness unexpectedly found")
            except NoWitnessFound:
                report.add(
                    "prime-refutation",
                    ring.name,
                    PASS,
                    f"pair ({ring.basis_labels[a]},{ring.basis_labels[b]})",
                )

    if ring.flags["semiprime"] is False:
        nil = convolution.semiprime_refuter(ring)
        if nil is None:
            report.add("nilpotent", ring.name, FAIL, "no refuting element found")
        else:
            u = convolution.counit_pullback(pbw, ring, {nil: Q1})
            ok = convolution.convolve(u, u).is_zero
            report.add(
                "nilpotent",
                ring.name,
                PASS if ok else FAIL,
                f"pullback of {ring.basis_labels[nil]} squares to zero",
            )

    return _finish(args, report, ring={"name": ring.name, "flags": ring.flags})


# ---------------------------------------------------------------------------
# hcore


def cmd_hcore(args, report: Report) -> int:
    data = _load_bialgebra(args, report)
    pbw = PBWStructure.from_bialgebra(data)
    what = "action file"
    try:
        spec = json_object(_load_json(args.action), "the action file")
        algebra = _algebra_from_json(spec["algebra"])
        generators = json_object(spec.get("generators", {}), '"generators"')
        gen_ops = {
            gid: _operator_columns(algebra, gid, op) for gid, op in generators.items()
        }
        act = action_mod.ModuleAlgebraAction(pbw, algebra, gen_ops)
        core_cap = json_int(
            spec.get("core_degree_cap", data.degree_bound), '"core_degree_cap"', 0
        )
        if args.ideal:
            what = "ideal file"
            spec = json_object(_load_json(args.ideal), "the ideal file")
        ideal = _ideal_from_json(algebra, spec["ideal"])
        properties = string_list(spec.get("ideal_properties", []), '"ideal_properties"')
    except (KeyError, TypeError, ValueError) as exc:
        # a malformed file; HopfcoreError is typed by ``main``
        fault = f"missing {json.dumps(exc.args[0])}" if isinstance(exc, KeyError) else exc
        return _error(args, InputFormatError(f"malformed {what}: {fault}"))

    report.extend(action_mod.verify_module_algebra(act))

    result = action_mod.hcore(act, ideal, core_cap)
    core_info = {
        "dims_by_cap": list(result.dims),
        "stabilized": result.stabilized,
        "dim": result.core.dim,
        "basis": [algebra.format(row) for row in result.core.rows],
        "ideal": ideal.text,
    }
    detail = f"dim {result.core.dim}, stabilized={result.stabilized}"
    report.add("hcore", ideal.text, PASS, detail)

    ring = action_mod.QuotientAlgebra(ideal)
    modes = {"completely_prime": "domain", "prime": "prime", "semiprime": "semiprime"}
    for prop in properties:
        mode = modes.get(prop)
        if mode is None:
            report.add("probe", prop, FAIL, "unknown ideal property")
            continue
        report.extend(action_mod.core_primeness_probe(act, ring, mode, args.probe_bound))

    return _finish(args, report, core=core_info)


# ---------------------------------------------------------------------------
# entry


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfcore",
        description="Exact engine for connected truncated bialgebras over Q",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--instance", required=True, help="instance JSON file")
        p.add_argument("--degree", type=int, default=None, help="degree bound override")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="report file (default stdout)")

    p_build = sub.add_parser("build", help="run the construction pipeline")
    common(p_build)
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    common(p_verify)
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.set_defaults(func=cmd_verify)

    p_conv = sub.add_parser("conv", help="convolution trials and witnesses")
    common(p_conv)
    p_conv.add_argument("--ring", required=True, help="q | m2q | qxq | qx2 | table file")
    p_conv.add_argument("--trials", type=int, default=200)
    p_conv.add_argument(
        "--support-cap",
        dest="support_cap",
        type=int,
        default=None,
        help="max support degree for random elements (default: bound // 2)",
    )
    p_conv.set_defaults(func=cmd_conv)

    p_hcore = sub.add_parser("hcore", help="stable core of an ideal under an action")
    common(p_hcore)
    p_hcore.add_argument("--action", required=True, help="action JSON file")
    p_hcore.add_argument("--ideal", default=None, help="ideal override JSON file")
    p_hcore.add_argument("--probe-bound", dest="probe_bound", type=int, default=3)
    p_hcore.set_defaults(func=cmd_hcore)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    report = Report()
    if args.out:
        # an --out that cannot be opened stops the command before it runs,
        # with the report on stdout
        try:
            with open(args.out, "a", encoding="utf-8"):
                pass
        except OSError as exc:
            path, args.out = args.out, None
            return _error(args, InputFormatError(f"cannot write {path}: {exc}"))
    try:
        # a negative count would silently run nothing
        for key in ("trials", "support_cap", "probe_bound"):
            value = getattr(args, key, None)
            if value is not None and value < 0:
                flag = key.replace("_", "-")
                raise InputFormatError(f"--{flag} must be >= 0, got {value}")
        return args.func(args, report)
    except NotABialgebra as exc:
        # build reports it itself; the other commands stop with the axiom
        # lines they listed as their checks
        return _finish(args, report, exc)
    except HopfcoreError as exc:
        return _error(args, exc)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
