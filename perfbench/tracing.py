"""In-process job runner and the span recorder for the traced pass.

Spans are recorded from wrappers that live here, around the public
functions of each hopfcore module; nothing inside the package changes.  A
wrapper replaces the name wherever callers look it up: in every hopfcore
module namespace that holds the function (``from .x import f`` copies
included), or on the class for methods.  Each span stores its name, start,
end and parent in flat arrays that stay in memory until the run writes them
out; self time is a span's duration minus the time its child spans cover.

The wrapper's own bookkeeping outside the span it records (frame set-up,
array appends, dict updates) would otherwise land in the caller's self time.
``Tracer.calibrate`` times it on a wrapped no-op; each call then charges that
cost to ``trace.wrappers`` instead of to its caller.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback
from array import array
from collections import defaultdict
from statistics import median
from time import perf_counter

PACKAGE = "hopfcore"


# (metric prefix, module, attribute path, counter hook name)
TARGETS = [
    ("coalgebra.verify_axioms", "coalgebra", "verify_axioms", None),
    ("coalgebra.coradical_filtration", "coalgebra", "coradical_filtration", None),
    ("coalgebra.graded_splitting", "coalgebra", "graded_splitting", None),
    ("coalgebra.gr_structure", "coalgebra", "gr_structure", None),
    ("coalgebra.verify_gr_facts", "coalgebra", "verify_gr_facts", None),
    ("coalgebra.check_coradically_graded", "coalgebra", "check_coradically_graded", None),
    ("coalgebra.check_level_closure", "coalgebra", "check_level_closure", None),
    ("coalgebra.check_primitivity_defects", "coalgebra", "check_primitivity_defects", None),
    ("coalgebra.check_delta_consistency", "coalgebra", "check_delta_consistency", None),
    ("coalgebra.FilteredBialgebraData.multiply", "coalgebra", "FilteredBialgebraData.multiply", None),
    ("coalgebra.FilteredBialgebraData.comult_map", "coalgebra", "FilteredBialgebraData.comult_map", None),
    ("pbw.extract_generators", "pbw", "extract_generators", None),
    ("pbw.lift_generators", "pbw", "lift_generators", None),
    ("pbw.verify_all_bases", "pbw", "PBWStructure.verify_all_bases", None),
    ("pbw.structure_constant", "pbw", "PBWStructure.structure_constant", None),
    ("pbw.check_split_expansion", "pbw", "PBWStructure.check_split_expansion", None),
    ("pbw.check_span_closure", "pbw", "PBWStructure.check_span_closure", None),
    ("pbw.pbw_coords", "pbw", "PBWStructure.pbw_coords", None),
    ("pbw.expand_comult", "pbw", "PBWStructure.expand_comult", "repeat"),
    ("pbw.pbw_monomial", "pbw", "PBWStructure.pbw_monomial", "repeat"),
    ("linalg.rref", "linalg", "_rref_rows", "rref"),
    ("linalg.matmul", "linalg", "QMatrix.__matmul__", "matmul"),
    ("linalg.apply", "linalg", "QMatrix.apply", None),
    ("linalg.subspace_contains", "linalg", "Subspace.contains", None),
    ("linalg.complement", "linalg", "complement", None),
    ("convolution.ring_check", "convolution", "ring_check", None),
    ("convolution.check_leading_law", "convolution", "check_leading_law", None),
    ("convolution.prime_witness", "convolution", "prime_witness", None),
    ("convolution.semiprime_witness", "convolution", "semiprime_witness", None),
    ("convolution.random_conv_element", "convolution", "random_conv_element", None),
    ("convolution.convolve", "convolution", "convolve", "convolve"),
    ("action.verify_module_algebra", "action", "verify_module_algebra", None),
    ("action.hcore", "action", "hcore", None),
    ("action.core_primeness_probe", "action", "core_primeness_probe", None),
    ("action.conv_map", "action", "conv_map", None),
    ("action.act_matrix", "action", "ModuleAlgebraAction.act_matrix", "repeat"),
    ("cli.load_instance", "cli", "load_instance", None),
    ("cli.cmd_build", "cli", "cmd_build", None),
    ("cli.cmd_verify", "cli", "cmd_verify", None),
    ("cli.cmd_conv", "cli", "cmd_conv", None),
    ("cli.cmd_hcore", "cli", "cmd_hcore", None),
]

COUNTERS_SPAN = "trace.counters"
WRAPPERS_SPAN = "trace.wrappers"


def _nnz(matrix) -> int:
    return sum(1 for row in matrix.rows for x in row if x)


class Tracer:
    """Spans in flat arrays, plus per-name self time, calls and counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # [span index, time covered by children]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._seen: dict[str, dict[int, tuple[object, set]]] = defaultdict(dict)
        self.missing: list[str] = []
        self._installed: list[tuple[object, str, object]] = []
        # per-call wrapper cost outside the span, plain and with a counter hook
        self.wrapper_cost = {"plain": 0.0, "hooked": 0.0}
        self.cost_of: dict[str, float] = {}  # span name -> cost charged per call

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin_job(self) -> None:
        """Repeat counting is per job: objects of one job are never reused."""
        self._seen.clear()

    # -- counter hooks, run after the span closes --------------------------

    def _count_repeat(self, name, args, kwargs, result):
        owner = args[0]
        per_owner = self._seen[name].get(id(owner))
        if per_owner is None:
            per_owner = self._seen[name][id(owner)] = (owner, set())
        key = (args[1:], tuple(sorted(kwargs.items())))
        if key in per_owner[1]:
            self.counts[name + ".repeats"] += 1
        else:
            per_owner[1].add(key)

    def _count_rref(self, name, args, kwargs, result):
        rows, ncols = args[0], args[1]
        self.counts[name + ".rows"] += len(rows)
        self.counts[name + ".cells"] += len(rows) * ncols
        self.counts[name + ".rank"] += len(result[0])

    def _count_matmul(self, name, args, kwargs, result):
        a, b = args[0], args[1]
        self.counts[name + ".cells"] += a.nrows * a.ncols + b.nrows * b.ncols
        self.counts[name + ".nonzeros"] += _nnz(a) + _nnz(b)

    def _count_convolve(self, name, args, kwargs, result):
        self.counts[name + ".scanned"] += len(args[0].host.indices)
        self.counts[name + ".support"] += len(result.support())

    # -- wrappers ------------------------------------------------------------

    def calibrate(self, calls: int = 20000, batches: int = 7) -> None:
        """Time the wrapper's bookkeeping outside its span: a wrapped no-op,
        minus a bare no-op call, minus what the spans themselves recorded;
        the median of several batches, per call."""
        def noop(*args, **kwargs):
            return None

        probe = Tracer()
        for kind, hook in (("plain", None), ("hooked", noop)):
            wrapped = probe.wrap(kind, noop, hook)
            per_call = []
            for _ in range(batches):
                start = perf_counter()
                for _ in range(calls):
                    noop()
                bare = perf_counter() - start
                recorded = sum(probe.self_s.values())
                start = perf_counter()
                for _ in range(calls):
                    wrapped()
                outside = perf_counter() - start - (sum(probe.self_s.values()) - recorded)
                per_call.append((outside - bare) / calls)
                probe.drop_spans()
            self.wrapper_cost[kind] = max(0.0, median(per_call))

    def wrap(self, name: str, fn, hook=None):
        nid = self.name_id(name)
        counters_id = self.name_id(COUNTERS_SPAN)
        cost = self.cost_of[name] = self.wrapper_cost["plain" if hook is None else "hooked"]
        stack = self.stack
        names_arr, parents, starts, ends = (
            self.span_name, self.span_parent, self.span_start, self.span_end
        )
        self_s, calls = self.self_s, self.calls

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(starts)
            names_arr.append(nid)
            parents.append(parent[0] if parent is not None else -1)
            frame = [index, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            starts.append(t0)
            ends.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                ends[index] = t1
                stack.pop()
                self_s[name] += (t1 - t0) - frame[1]
                calls[name] += 1
                self_s[WRAPPERS_SPAN] += cost
                if parent is not None:
                    parent[1] += t1 - t0 + cost
            if hook is not None:
                # counting is a child span of the caller, not of this call
                hook(name, args, kwargs, result)
                t2 = perf_counter()
                names_arr.append(counters_id)
                parents.append(parent[0] if parent is not None else -1)
                starts.append(t1)
                ends.append(t2)
                self_s[COUNTERS_SPAN] += t2 - t1
                calls[COUNTERS_SPAN] += 1
                if parent is not None:
                    parent[1] += t2 - t1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        self.missing = []
        modules = {
            key: mod
            for key, mod in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        }
        hooks = {
            "repeat": self._count_repeat,
            "rref": self._count_rref,
            "matmul": self._count_matmul,
            "convolve": self._count_convolve,
        }
        for name, modname, path, hook in TARGETS:
            owner = modules.get(f"{PACKAGE}.{modname}")
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, parts[-1], None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original, hooks.get(hook))
            if len(parts) > 1:  # a method: callers find it on the class
                self._installed.append((owner, parts[-1], original))
                setattr(owner, parts[-1], wrapper)
                continue
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- results -------------------------------------------------------------

    def _span_costs(self) -> list[float]:
        by_id = [self.cost_of.get(name, 0.0) for name in self.names]
        return [by_id[nid] for nid in self.span_name]

    def top_level_time(self) -> float:
        """Time of the top-level spans plus their wrappers' bookkeeping."""
        costs = self._span_costs()
        return sum(
            self.span_end[i] - self.span_start[i] + costs[i]
            for i in range(len(self.span_start))
            if self.span_parent[i] < 0
        )

    def self_times_from_spans(self) -> dict[str, float]:
        """Self times recomputed from the stored span tree and the
        per-name wrapper costs alone."""
        costs = self._span_costs()
        covered = [0.0] * len(self.span_start)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                covered[parent] += self.span_end[i] - self.span_start[i] + costs[i]
        out: dict[str, float] = defaultdict(float)
        for i, nid in enumerate(self.span_name):
            out[self.names[nid]] += self.span_end[i] - self.span_start[i] - covered[i]
            out[WRAPPERS_SPAN] += costs[i]
        return out

    def write_spans(self, path: str) -> None:
        """The span arrays as raw machine values, in the order name id
        (int32), parent index (int32, -1 at top level), start and end
        (float64, perf_counter seconds); `path`.json holds the names."""
        with open(path, "wb") as out:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(out)
        with open(path + ".json", "w", encoding="utf-8") as out:
            json.dump({"spans": len(self.span_start), "names": self.names,
                       "wrapper_cost_s": self.cost_of,
                       "arrays": ["name:int32", "parent:int32", "start:float64",
                                  "end:float64"]}, out)

    def drop_spans(self) -> None:
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]


def run_in_process(cli_main, argv: list[str]) -> tuple[int, bytes, str]:
    """Run one CLI job in this process; returns (exit code, report bytes,
    captured error text).  An escaping exception counts as exit 1 with its
    traceback, as the interpreter would report it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue().encode("utf-8"), err.getvalue()
