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

import io
import json
import os
import random
import re
import sys
from contextlib import nullcontext
from math import perm
from types import SimpleNamespace
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
from .linalg import Q0, Q1, SparseRow, nonzero, rat, rat_str
from .pbw import PBWStructure
from .report import FAIL, INCONCLUSIVE, PASS, SKIP, Report
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
    ``conv`` and ``hcore`` check raw instances only, into a report of their
    own, and list the lines, by a second run, only when they fail.  A
    recorder ``stage`` (see ``PBWStructure.from_bialgebra``) sees the load
    and the axioms as steps."""
    run = stage or (lambda name, step: step())
    data = run("load", lambda: load_instance(args.instance, args.degree))
    listed = args.command in ("build", "verify")
    if not (listed or data.raw):
        return data
    checked = report if listed else Report(io.StringIO())
    run("verify_axioms", lambda: coalgebra.verify_axioms(checked, data))
    if checked.counts[FAIL]:
        if not listed:
            coalgebra.verify_axioms(report, data)
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
        columns.append({t: c for t, c in sorted(image.items()) if c})
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


def _emit(command: Optional[str], report: Report, status: str, **blocks) -> int:
    """Finish report with blocks as the rest of the report of command, whose
    status is given; the exit code of that status."""
    report.finish({"command": command, "schema": SCHEMA, "status": status, **blocks})
    return EXIT_CODES[status]


def _error_status(exc: Exception) -> str:
    return "input-error" if isinstance(exc, InputFormatError) else "fail"


def _finish(args, report: Report, error: Optional[Exception] = None, **extra) -> int:
    """Write the rest of a command's report: its configuration (the values
    of its options), the counts of its check lines and their status, the
    error that stopped it if any, and the command's own blocks in extra."""
    counts = report.counts
    if error is None:
        status = "fail" if counts[FAIL] else "inconclusive" if counts[INCONCLUSIVE] else "ok"
    else:
        status, extra["error"] = _error_status(error), str(error)
    if not any(counts.values()):
        extra["checks"] = []
    config = {
        key: value for key, value in vars(args).items()
        if key not in ("command", "out", "func")
    }
    return _emit(args.command, report, status, config=config, summary=counts, **extra)


# ---------------------------------------------------------------------------
# build


def cmd_build(args, report: Report) -> int:
    """Load and check the instance, then run the construction pipeline with
    a recorder: the report's stages are the pipeline's record, with the
    checks ``verify_gr_facts`` (as soon as gr exists) and
    ``verify_all_bases`` (at the end, as ``verify_basis``) as stages too,
    and its checks the lines those stages added."""
    stages: list[dict] = []
    done: dict = {}

    def stage(name: str, fn):
        try:
            result = fn()
        except HopfcoreError as exc:
            stages.append({"stage": name, "status": "fail", "detail": str(exc)})
            raise
        stages.append({"stage": name, "status": "ok", "detail": ""})
        done[name] = result
        if name == "gr_structure":
            data, split = done["load"], done["graded_splitting"]
            stage(
                "verify_gr_facts",
                lambda: coalgebra.verify_gr_facts(report, result, data, split),
            )
        return result

    error = None
    try:
        pbw = PBWStructure.from_bialgebra(_load_bialgebra(args, report, stage), stage)
        stage("verify_basis", lambda: pbw.verify_all_bases(report))
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
    coalgebra.check_primitivity_defects(report, data, split)
    coalgebra.check_delta_consistency(report, split)
    coalgebra.check_coradically_graded(report, gr)
    coalgebra.verify_gr_facts(report, gr, data, split)

    try:
        pbw.verify_all_bases(report)
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
                pbw.check_split_expansion(report, p)
            except ExpansionViolation as exc:
                report.add("split-expansion", label, FAIL, str(exc))
        pbw.check_span_closure(report, rng, args.trials)
    else:
        # both expand on the monomial basis, which does not exist here
        for check in ("split-expansion", "span-closure"):
            report.add(check, "-", SKIP, "no monomial basis")
    coalgebra.check_level_closure(report, gr, rng, args.trials)

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

    convolution.ring_check(report, ring)
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


# the probe mode of each ideal property an action or ideal file may declare
PROBE_MODES = {"completely_prime": "domain", "prime": "prime", "semiprime": "semiprime"}


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
        for prop in properties:
            if prop not in PROBE_MODES:
                raise InputFormatError(f"unknown ideal property {prop!r} in the {what}")
    except (KeyError, TypeError, ValueError) as exc:
        # a malformed file; HopfcoreError is typed by ``main``
        fault = f"missing {json.dumps(exc.args[0])}" if isinstance(exc, KeyError) else exc
        raise InputFormatError(f"malformed {what}: {fault}") from None

    action_mod.verify_module_algebra(report, act)

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
    for prop in properties:
        action_mod.core_primeness_probe(report, act, ring, PROBE_MODES[prop], args.probe_bound)

    return _finish(args, report, core=core_info)


# ---------------------------------------------------------------------------
# entry


# the flags of each command: (flag, dest, type, default, required); a count
# is an int that must be >= 0
COUNT = "count"
_COMMON = (
    ("--instance", "instance", str, None, True),
    ("--degree", "degree", int, None, False),
    ("--seed", "seed", int, 0, False),
    ("--out", "out", str, None, False),
)
COMMANDS = {
    "build": _COMMON,
    "verify": _COMMON + (("--trials", "trials", COUNT, 200, False),),
    "conv": _COMMON + (
        ("--ring", "ring", str, None, True),
        ("--trials", "trials", COUNT, 200, False),
        ("--support-cap", "support_cap", COUNT, None, False),
    ),
    "hcore": _COMMON + (
        ("--action", "action", str, None, True),
        ("--ideal", "ideal", str, None, False),
        ("--probe-bound", "probe_bound", COUNT, 3, False),
    ),
}
# a negative number, which is a value and not a flag
_NEGATIVE = re.compile(r"-\d+$|-\d*\.\d+$")


def _is_flag(token: str, flags) -> bool:
    """Whether token is read as a flag, not as a value, as argparse tells
    them apart: a lone "-", a negative number and a token with a space in
    it are values unless they begin with a known flag."""
    if token[:1] != "-" or token == "-":
        return False
    name = token.split("=", 1)[0]
    if token.startswith("-h") or any(flag.startswith(name) for flag in flags):
        return True
    return not (_NEGATIVE.match(token) or " " in token)


def _read_args(argv: list[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse would read from argv, or None when it asks
    for help: the command first, then its flags in any order, each as
    ``--flag VALUE`` or ``--flag=VALUE``, spelled out or as a unique prefix;
    a repeated flag keeps its last value.  Any other line raises
    InputFormatError."""
    command, tokens = argv[0] if argv else None, iter(argv[1:])
    if command in ("-h", "--h", "--he", "--hel", "--help"):
        return None
    if command not in COMMANDS:
        commands = ", ".join(COMMANDS)
        raise InputFormatError(f"the command must be one of {commands}, got {command!r}")
    table = {flag: entry for flag, *entry in COMMANDS[command]}
    flags = [*table, "-h", "--help"]
    args = SimpleNamespace(command=command, func=globals()["cmd_" + command])
    vars(args).update((dest, default) for dest, _, default, _ in table.values())
    stray = []
    for token in tokens:
        if not _is_flag(token, flags):
            stray.append(token)
            continue
        name, eq, value = token.partition("=")
        matches = [f for f in flags if f == name or name[:2] == "--" and f.startswith(name)]
        if len(matches) != 1:
            raise InputFormatError(f"{'ambiguous' if matches else 'unknown'} flag {name!r}")
        flag = matches[0]
        if flag in ("-h", "--help"):
            if eq:
                raise InputFormatError(f"{flag} takes no value")
            return None
        if not eq:
            value = next(tokens, None)
            if value is None or _is_flag(value, flags):
                raise InputFormatError(f"{flag} needs a value")
        dest, kind, _, _ = table[flag]
        try:
            setattr(args, dest, value if kind is str else int(value))
        except ValueError:
            raise InputFormatError(f"{flag} must be an integer, got {value!r}") from None
    for flag, (dest, _, _, required) in table.items():
        if required and getattr(args, dest) is None:
            raise InputFormatError(f"{command} needs {flag}")
    if stray:
        raise InputFormatError(f"unexpected argument {stray[0]!r}")
    return args


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read_args(argv)
    except InputFormatError as exc:
        # the report of a line that cannot be read goes to stdout, whatever
        # its --out says
        command = argv[0] if argv and argv[0] in COMMANDS else None
        return _emit(command, Report(sys.stdout), "input-error", error=str(exc))
    if args is None:
        for command, flags in COMMANDS.items():
            print("usage: hopfcore", command, *(
                f"{flag} {dest.upper()}" if required else f"[{flag} {dest.upper()}]"
                for flag, dest, _, _, required in flags
            ))
        return 0
    try:
        # an --out that cannot be opened stops the command before it runs,
        # with the report on stdout; opened for appending, it is emptied at
        # the report's first write, once the command has read its inputs
        target = open(args.out, "a", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    except OSError as exc:
        error = f"cannot write {args.out}: {exc}"
        return _emit(args.command, Report(sys.stdout), "input-error", error=error)
    with target as out:
        report = Report(out)
        try:
            # a negative count would silently run nothing
            for flag, dest, kind, _, _ in COMMANDS[args.command]:
                value = getattr(args, dest)
                if kind is COUNT and value is not None and value < 0:
                    raise InputFormatError(f"{flag} must be >= 0, got {value}")
            return args.func(args, report)
        except HopfcoreError as exc:
            # a written line stands, so an error after one ends the full
            # report; so does NotABialgebra, with the axiom lines listed
            if isinstance(exc, NotABialgebra) or any(report.counts.values()):
                return _finish(args, report, exc)
            return _emit(args.command, report, _error_status(exc), error=str(exc))


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: as a process killed by SIGPIPE, exit
        # 141, with stdout on os.devnull so that the final flush is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entry()
