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
from math import perm
from typing import Mapping, Optional

from . import action as action_mod
from . import coalgebra, convolution
from .errors import (
    BasisDefect,
    HopfcoreError,
    InputFormatError,
    NoWitnessFound,
    ExpansionViolation,
    TruncationError,
)
from .linalg import Q0, QMatrix, Subspace, rat, rat_str, unit_vec
from .pbw import PBWStructure
from .report import FAIL, INCONCLUSIVE, PASS, Report
from .table import PolynomialAlgebra, TableAlgebra, parse_table, string_list

SCHEMA = 1


# ---------------------------------------------------------------------------
# input loading


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc


def load_instance(path: str, degree: Optional[int]) -> coalgebra.FilteredBialgebraData:
    return coalgebra.instance_from_json(_load_json(path), degree)


def _poly_vector(algebra: PolynomialAlgebra, terms) -> tuple:
    coords = [Q0] * algebra.dim
    for term in terms:
        exps = [0] * len(algebra.variables)
        for var, k in term.get("monomial", {}).items():
            if var not in algebra.variables:
                raise InputFormatError(f"unknown variable {var!r}")
            exps[algebra.variables.index(var)] = int(k)
        coords[algebra.monomial_index(exps)] += rat(term.get("coeff", "1"))
    return tuple(coords)


def _operator_matrix(algebra: TableAlgebra, spec) -> QMatrix:
    if isinstance(spec, list):
        return QMatrix([[rat(x) for x in row] for row in spec])
    if not isinstance(spec, Mapping) or spec.get("kind") != "operator":
        raise InputFormatError("operator spec must be a matrix or an operator object")
    if not isinstance(algebra, PolynomialAlgebra):
        raise InputFormatError("operator sugar needs a polynomial algebra")
    nvars = len(algebra.variables)
    columns = []
    for alpha in algebra.monomials:
        image = [Q0] * algebra.dim
        for term in spec.get("terms", []):
            coeff = rat(term.get("coeff", "1"))
            mu = [0] * nvars
            beta = [0] * nvars
            for var, k in term.get("monomial", {}).items():
                mu[algebra.variables.index(var)] = int(k)
            for var, k in term.get("derivatives", {}).items():
                beta[algebra.variables.index(var)] = int(k)
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
            image[algebra.index[target]] += scale
        columns.append(tuple(image))
    return QMatrix.from_columns(columns)


def _algebra_from_json(obj: Mapping) -> TableAlgebra:
    kind = obj.get("kind")
    if kind == "polynomial":
        variables = string_list(obj["variables"], 'polynomial "variables"')
        bound = obj["bound"]
        if not isinstance(bound, int) or isinstance(bound, bool) or bound < 0:
            raise InputFormatError(
                f'polynomial "bound" must be an integer >= 0, got {bound!r}'
            )
        return PolynomialAlgebra(variables, bound)
    if kind == "finite":
        labels = string_list(obj["basis"], 'finite algebra "basis"')
        pos = {s: i for i, s in enumerate(labels)}
        one = obj["one"]
        if one not in pos:
            raise InputFormatError(f"unit label {one!r} not in basis")
        table = parse_table(obj.get("mult", {}), pos)
        return TableAlgebra.finite(labels, table, unit_vec(len(labels), pos[one]))
    raise InputFormatError(f"unknown algebra kind {kind!r}")


def _ideal_from_json(algebra: TableAlgebra, obj: Mapping) -> action_mod.IdealOracle:
    kind = obj.get("kind")
    if isinstance(algebra, PolynomialAlgebra):
        nvars = len(algebra.variables)

        def exps_of(mono: Mapping) -> list[int]:
            exps = [0] * nvars
            for var, k in mono.items():
                if var not in algebra.variables:
                    raise InputFormatError(f"unknown variable {var!r}")
                exps[algebra.variables.index(var)] = int(k)
            return exps

        if kind == "zero":
            return action_mod.MonomialIdeal(algebra, [])
        if kind == "unit":
            return action_mod.MonomialIdeal(algebra, [[0] * nvars])
        if kind == "monomial":
            return action_mod.MonomialIdeal(
                algebra, [exps_of(m) for m in obj["generators"]]
            )
        if kind == "principal":
            return action_mod.PrincipalIdeal(
                algebra, _poly_vector(algebra, obj["element"])
            )
        raise InputFormatError(f"ideal kind {kind!r} needs a finite algebra")
    if kind == "zero":
        return action_mod.SubspaceIdeal(algebra, Subspace.zero(algebra.dim))
    if kind == "unit":
        return action_mod.SubspaceIdeal(algebra, Subspace.full(algebra.dim))
    if kind == "subspace":
        vectors = [[rat(x) for x in row] for row in obj["vectors"]]
        return action_mod.SubspaceIdeal(
            algebra, Subspace.from_vectors(vectors, algebra.dim)
        )
    raise InputFormatError(f"ideal kind {kind!r} needs a polynomial algebra")


# ---------------------------------------------------------------------------
# report assembly


def _emit(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


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


def _finish(
    args, keys, report: Report, error: Optional[Exception] = None, **extra
) -> int:
    """Write a command's report: its configuration (the argument values
    named by keys), its check lines and their status, the error that
    stopped it if any, and the command's own blocks in extra."""
    status = _status(report) if error is None else _error_status(error)
    if error is not None:
        extra["error"] = str(error)
    payload = {
        "command": args.command,
        "schema": SCHEMA,
        "config": {key: getattr(args, key) for key in keys},
        "checks": [line.as_json() for line in report.lines],
        "summary": report.counts,
        "status": status,
        **extra,
    }
    _emit(payload, args.out)
    return EXIT_CODES[status]


def _error(args, exc: Exception, status: str = "input-error") -> int:
    """Write the bare report of a command stopped before its checks."""
    _emit(
        {"command": args.command, "schema": SCHEMA, "error": str(exc), "status": status},
        args.out,
    )
    return EXIT_CODES[status]


# ---------------------------------------------------------------------------
# build


def cmd_build(args) -> int:
    """Load, check the axioms, then run the construction pipeline with a
    recorder: the report's stages are the pipeline's record and its checks
    the reports those stages returned."""
    report = Report("build")
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
        return result

    error = None
    try:
        data = stage("load", lambda: load_instance(args.instance, args.degree))
        if not stage("verify_axioms", lambda: coalgebra.verify_axioms(data)).passed:
            raise InputFormatError("bialgebra axioms fail; see checks")
        PBWStructure.from_bialgebra(data, stage)
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
        # verify_basis raises unless every layer has a basis of monomials
        info["basis_dims"] = info["layer_dims"]
    keys = ("instance", "degree", "seed")
    return _finish(args, keys, report, error, stages=stages, instance=info)


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    report = Report("verify")
    try:
        data = load_instance(args.instance, args.degree)
    except InputFormatError as exc:
        return _error(args, exc)

    report.extend(coalgebra.verify_axioms(data))

    try:
        pbw = PBWStructure.from_bialgebra(data)
    except HopfcoreError as exc:
        report.add("pipeline", "construction", FAIL, str(exc))
        pbw = None

    if pbw is not None:
        report.extend(coalgebra.check_primitivity_defects(data, pbw.filt, pbw.split))
        report.extend(coalgebra.check_delta_consistency(pbw.split))
        report.extend(coalgebra.check_coradically_graded(pbw.gr))
        report.extend(coalgebra.verify_gr_facts(pbw.gr, data, pbw.filt, pbw.split))

        try:
            report.extend(pbw.verify_all_bases())
        except BasisDefect as exc:
            report.add("basis", "-", FAIL, str(exc))

        bound = data.degree_bound
        for n in pbw.indices:
            for m in pbw.indices:
                if pbw.gens.degree(n) + pbw.gens.degree(m) > bound:
                    continue
                try:
                    c, _ = pbw.structure_constant(n, m)
                    report.add(
                        "structure-constant", f"{n},{m}", PASS, f"c={rat_str(c)}"
                    )
                except BasisDefect as exc:
                    report.add("structure-constant", f"{n},{m}", FAIL, str(exc))

        for m in pbw.indices:
            try:
                report.extend(pbw.check_split_expansion(m))
            except ExpansionViolation as exc:
                report.add("split-expansion", str(m), FAIL, str(exc))

        rng = random.Random(args.seed)
        report.extend(pbw.check_span_closure(rng, args.trials))
        report.extend(coalgebra.check_level_closure(pbw.gr, rng, args.trials))

    return _finish(args, ("instance", "degree", "seed", "trials"), report)


# ---------------------------------------------------------------------------
# conv


def _resolve_ring(name: str) -> TableAlgebra:
    if name in ("q", "m2q", "qxq", "qx2"):
        return convolution.builtin_ring(name)
    return convolution.ring_from_tables(_load_json(name))


def cmd_conv(args) -> int:
    report = Report("conv")
    try:
        data = load_instance(args.instance, args.degree)
        ring = _resolve_ring(args.ring)
        pbw = PBWStructure.from_bialgebra(data)
    except HopfcoreError as exc:
        return _error(args, exc)

    report.extend(convolution.ring_check(ring))
    rng = random.Random(args.seed)
    cap = args.support_cap if args.support_cap is not None else data.degree_bound // 2

    for trial in range(args.trials):
        f = convolution.random_conv_element(pbw, ring, rng, cap)
        g = convolution.random_conv_element(pbw, ring, rng, cap)
        try:
            outcome = convolution.check_leading_law(f, g)
            report.add(
                "leading-law",
                f"trial {trial}",
                PASS if outcome.passed else FAIL,
                f"lead {outcome.lead_left.index}+{outcome.lead_right.index}",
            )
        except TruncationError:
            report.add("leading-law", f"trial {trial}", INCONCLUSIVE, "beyond the bound")

    if ring.flags.is_domain:
        for trial in range(args.trials):
            f = convolution.random_conv_element(pbw, ring, rng, cap)
            g = convolution.random_conv_element(pbw, ring, rng, cap)
            total = pbw.gens.add(
                convolution.leading(f).index, convolution.leading(g).index
            )
            if pbw.gens.degree(total) > data.degree_bound:
                report.add(
                    "domain-product", f"trial {trial}", INCONCLUSIVE, "beyond the bound"
                )
                continue
            ok = not convolution.convolve(f, g).is_zero
            report.add("domain-product", f"trial {trial}", PASS if ok else FAIL)

    if ring.flags.is_prime:
        for trial in range(args.trials):
            s = convolution.random_conv_element(pbw, ring, rng, cap)
            t = convolution.random_conv_element(pbw, ring, rng, cap)
            try:
                witness = convolution.prime_witness(s, t)
                report.add(
                    "prime-witness",
                    f"trial {trial}",
                    PASS,
                    f"r={ring.format(witness.r)}",
                )
            except TruncationError:
                report.add("prime-witness", f"trial {trial}", INCONCLUSIVE, "")
            except NoWitnessFound as exc:
                report.add("prime-witness", f"trial {trial}", FAIL, str(exc))

    if ring.flags.is_semiprime:
        for trial in range(args.trials):
            s = convolution.random_conv_element(pbw, ring, rng, cap)
            try:
                witness = convolution.semiprime_witness(s)
                report.add(
                    "semiprime-witness",
                    f"trial {trial}",
                    PASS,
                    f"r={ring.format(witness.r)}",
                )
            except TruncationError:
                report.add("semiprime-witness", f"trial {trial}", INCONCLUSIVE, "")
            except NoWitnessFound as exc:
                report.add("semiprime-witness", f"trial {trial}", FAIL, str(exc))

    if not ring.flags.is_prime:
        refuter = convolution.prime_refuter(ring)
        if refuter is None:
            report.add("prime-refutation", ring.name, FAIL, "no refuting pair found")
        else:
            a, b = refuter
            s = convolution.counit_pullback(pbw, ring, ring.basis_vec(a))
            t = convolution.counit_pullback(pbw, ring, ring.basis_vec(b))
            try:
                convolution.prime_witness(s, t)
                report.add("prime-refutation", ring.name, FAIL, "witness unexpectedly found")
            except NoWitnessFound:
                report.add(
                    "prime-refutation",
                    ring.name,
                    PASS,
                    f"pair ({ring.label(a)},{ring.label(b)})",
                )

    if not ring.flags.is_semiprime:
        nil = convolution.semiprime_refuter(ring)
        if nil is None:
            report.add("nilpotent", ring.name, FAIL, "no refuting element found")
        else:
            u = convolution.counit_pullback(pbw, ring, ring.basis_vec(nil))
            ok = convolution.convolve(u, u).is_zero
            report.add(
                "nilpotent",
                ring.name,
                PASS if ok else FAIL,
                f"pullback of {ring.label(nil)} squares to zero",
            )

    flags = {
        "prime": ring.flags.is_prime,
        "semiprime": ring.flags.is_semiprime,
        "domain": ring.flags.is_domain,
    }
    keys = ("instance", "degree", "ring", "seed", "trials", "support_cap")
    return _finish(args, keys, report, ring={"name": ring.name, "flags": flags})


# ---------------------------------------------------------------------------
# hcore


def cmd_hcore(args) -> int:
    report = Report("hcore")
    try:
        data = load_instance(args.instance, args.degree)
        pbw = PBWStructure.from_bialgebra(data)
        spec = _load_json(args.action)
        algebra = _algebra_from_json(spec["algebra"])
        gen_ops = {
            gid: _operator_matrix(algebra, op)
            for gid, op in spec.get("generators", {}).items()
        }
        act = action_mod.ModuleAlgebraAction(pbw, algebra, gen_ops)
        source = _load_json(args.ideal) if args.ideal else spec
        ideal = _ideal_from_json(algebra, source["ideal"])
        properties = string_list(
            source.get("ideal_properties", []), '"ideal_properties"'
        )
        core_cap = int(spec.get("core_degree_cap", data.degree_bound))
    except (HopfcoreError, KeyError, TypeError, ValueError) as exc:
        return _error(args, exc)

    report.extend(action_mod.verify_module_algebra(act))

    result = action_mod.hcore(act, ideal, core_cap, data.degree_bound)
    core_info = {
        "dims_by_cap": list(result.dims),
        "stabilized": result.stabilized,
        "dim": result.core.dim,
        "basis": [algebra.format(row) for row in result.core.basis],
        "ideal": ideal.describe(),
    }
    report.add(
        "hcore",
        ideal.describe(),
        PASS,
        f"dim {result.core.dim}, stabilized={result.stabilized}",
    )

    ring = action_mod.quotient_ring(ideal)
    mode_map = {
        "completely_prime": "domain",
        "prime": "prime",
        "semiprime": "semiprime",
    }
    for prop in properties:
        mode = mode_map.get(prop)
        if mode is None:
            report.add("probe", prop, FAIL, "unknown ideal property")
            continue
        report.extend(
            action_mod.core_primeness_probe(
                act, ideal, ring, result.core, mode, args.probe_bound
            )
        )

    keys = ("instance", "degree", "action", "ideal", "seed", "probe_bound")
    return _finish(args, keys, report, core=core_info)


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
    try:
        return args.func(args)
    except HopfcoreError as exc:
        return _error(args, exc, _error_status(exc))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
