"""hopfcore benchmark: one workload of CLI jobs, run the way users run them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a hopfcore checkout.  The seed makes the job list; the
inputs are written under ``.perfbench/inputs``.

``--trace 0`` measures end to end: the benchmark process starts one fresh
Python process per job that runs ``hopfcore.cli`` as ``python3 -m`` does
(``JOB_MAIN``), waits for it and starts the next (a closed loop with one
client).  It runs whole rounds of the job list, so
every class of job runs equally often, for S seconds: a round starts only
when the mean round so far would end within S, and at least MIN_JOBS jobs
run.  Set-up is timed on its own, by fresh processes that import the CLI
and load every instance of the workload, spread over the run.

``--trace 1`` gives per-module numbers.  It runs one round as subprocesses,
then the same jobs in this process, job by job traced, untraced and traced
again, with wrappers around the public functions of each hopfcore module
(see ``tracing.py``).  Reports must be byte-identical across all passes, and the
counts of the two traced passes must be identical.

Every job's report is checked (``jobs.py``); the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Run details, with the environment stamp, go to ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import jobs as jobs_mod  # noqa: E402
import tracing  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench"
SETUP_PROBES = 15
# enough jobs that the tail percentile, ten samples from the top, lies well
# above the median
MIN_JOBS = 30
TRACED_PASSES = 2

END_TO_END = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("peak_rss_mb", "MB"),
]

# per-module metrics: (name, unit); values come from the traced passes
PER_LAYER = [
    (f"{name}.{kind}", "count" if kind in ("calls", "cells", "rows", "scanned")
     else "ratio" if kind.endswith("ratio") or kind == "density" else "s")
    for name, kinds in [
        ("coalgebra.verify_axioms", ["self_s"]),
        ("coalgebra.coradical_filtration", ["self_s"]),
        ("coalgebra.graded_splitting", ["self_s"]),
        ("coalgebra.gr_structure", ["self_s"]),
        ("coalgebra.verify_gr_facts", ["self_s"]),
        ("coalgebra.check_coradically_graded", ["self_s"]),
        ("coalgebra.check_level_closure", ["self_s"]),
        ("coalgebra.check_primitivity_defects", ["self_s"]),
        ("coalgebra.check_delta_consistency", ["self_s"]),
        ("coalgebra.FilteredBialgebraData.multiply", ["calls", "self_s"]),
        ("coalgebra.FilteredBialgebraData.comult_map", ["calls", "self_s"]),
        ("pbw.extract_generators", ["self_s"]),
        ("pbw.lift_generators", ["self_s"]),
        ("pbw.verify_all_bases", ["self_s"]),
        ("pbw.structure_constant", ["self_s"]),
        ("pbw.check_split_expansion", ["self_s"]),
        ("pbw.check_span_closure", ["self_s"]),
        ("pbw.pbw_coords", ["self_s"]),
        ("pbw.expand_comult", ["calls", "hit_ratio", "self_s"]),
        ("pbw.pbw_monomial", ["calls", "hit_ratio", "self_s"]),
        ("linalg.rref", ["calls", "rows", "cells", "rank_ratio", "self_s"]),
        ("linalg.matmul", ["calls", "cells", "density", "self_s"]),
        ("linalg.apply", ["calls", "self_s"]),
        ("linalg.subspace_contains", ["calls", "self_s"]),
        ("linalg.complement", ["calls", "self_s"]),
        ("convolution.ring_check", ["self_s"]),
        ("convolution.check_leading_law", ["self_s"]),
        ("convolution.prime_witness", ["self_s"]),
        ("convolution.semiprime_witness", ["self_s"]),
        ("convolution.random_conv_element", ["self_s"]),
        ("convolution.convolve", ["calls", "scanned", "useful_ratio", "self_s"]),
        ("action.verify_module_algebra", ["self_s"]),
        ("action.hcore", ["self_s"]),
        ("action.core_primeness_probe", ["self_s"]),
        ("action.act_matrix", ["calls", "hit_ratio", "self_s"]),
        ("action.conv_map", ["calls"]),
        ("cli.load_instance", ["self_s"]),
        ("cli.cmd_build", ["self_s"]),
        ("cli.cmd_verify", ["self_s"]),
        ("cli.cmd_conv", ["self_s"]),
        ("cli.cmd_hcore", ["self_s"]),
        ("trace.counters", ["self_s"]),
        ("trace.wrappers", ["self_s"]),
    ]
    for kind in kinds
] + [
    ("process.start_s", "s"),
    ("unattributed_s", "s"),
    ("trace.loop_s", "s"),
    ("trace.untraced_loop_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

# the workloads each wrapped function is meant to load; the traced run
# checks that it is called there
_BY_MODULE = {
    "coalgebra": ["verify-build"],
    "pbw": ["verify-build"],
    "linalg": ["verify-build"],
    "convolution": ["conv-hcore"],
    "action": ["conv-hcore"],
    "cli": list(jobs_mod.WORKLOADS),
}
MEANT_FOR = {name: _BY_MODULE[name.split(".")[0]] for name, *_ in tracing.TARGETS}
MEANT_FOR.update({
    "pbw.expand_comult": ["verify-build", "conv-hcore"],
    "linalg.matmul": ["conv-hcore"],
    "linalg.apply": ["conv-hcore"],
    "cli.cmd_build": ["verify-build"],
    "cli.cmd_verify": ["verify-build"],
    "cli.cmd_conv": ["conv-hcore"],
    "cli.cmd_hcore": ["conv-hcore"],
})

# the group of modules each workload is meant to load most
DOMINANT = {
    "verify-build": ("coalgebra", "pbw", "linalg.rref"),
    "conv-hcore": ("convolution", "pbw.expand_comult", "action", "linalg.matmul"),
}


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# -- environment ----------------------------------------------------------------


def source_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "hopfcore")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def env_stamp(root: str) -> dict:
    commit = "unavailable"  # an exported checkout has no .git; src_digest still names the code
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_commit": commit,
        "src_digest": source_digest(root),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
    }


# -- subprocess jobs -------------------------------------------------------------


# A job is `python3 -m hopfcore.cli ARGS`, run through runpy as -m does, plus
# an exit hook that writes the process's own peak resident set (VmHWM, kB) to
# the file named by PERFBENCH_HWM.  The ru_maxrss that wait4 returns cannot
# serve: it includes the high-water mark of the process that spawned the job,
# and this one is about as large as a job.
JOB_MAIN = """\
import atexit, os, runpy
def _write_hwm():
    with open("/proc/self/status") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(os.environ["PERFBENCH_HWM"], "w") as out:
        out.write(kb)
atexit.register(_write_hwm)
runpy.run_module("hopfcore.cli", run_name="__main__", alter_sys=True)
"""


def child_env(root: str, tmp: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PERFBENCH_HWM"] = os.path.join(tmp, f"job-{os.getpid()}.hwm")
    return env


def run_subprocess(argv: list[str], env: dict, tmp: str) -> dict:
    """One fresh process per job; wall time is launch to exit, CPU time is
    the child's user plus system time, peak RSS the child's own (0 if the
    job died before its exit hook ran)."""
    stem = os.path.join(tmp, f"job-{os.getpid()}")
    hwm_path = env["PERFBENCH_HWM"]
    with contextlib.suppress(FileNotFoundError):
        os.remove(hwm_path)
    with open(stem + ".out", "wb") as out, open(stem + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", JOB_MAIN, *argv],
            stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no job running
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stem + ".out", "rb") as out:
        stdout = out.read()
    with open(stem + ".err", "r", encoding="utf-8", errors="replace") as err:
        stderr = err.read()
    try:
        with open(hwm_path, encoding="ascii") as hwm:
            rss_kb = int(hwm.read())
    except (FileNotFoundError, ValueError):
        rss_kb = 0
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_kb": rss_kb, "code": proc.returncode,
            "stdout": stdout, "stderr": stderr}


def setup_probe(pairs: str, env: dict) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), pairs],
        capture_output=True, text=True, env=env, timeout=120,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        fail_setup(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    phases = json.loads(proc.stdout.strip().splitlines()[-1])
    if phases["load_errors"]:
        fail_setup("an instance of the workload failed to load in the set-up probe")
    phases["wall_s"] = wall
    phases["start_s"] = wall - phases["import_s"] - phases["load_s"]
    return phases


def closed_loop(jobs: list[dict], env: dict, tmp: str, seconds: float, min_jobs: int):
    """Closed loop, one client: whole rounds of the job list for `seconds`
    of loop time, and at least `min_jobs` jobs.  The set-up probes are
    spread over the run, so that both sample the same stretch of machine
    time; their time is not part of the loop time."""
    pairs = json.dumps(jobs_mod.distinct_instances(jobs))
    samples, probes, loop_s, rounds = [], [], 0.0, 0
    while len(samples) < min_jobs or loop_s + loop_s / rounds <= seconds:
        done = loop_s / seconds if seconds > 0 else 1.0
        due = min(SETUP_PROBES, 1 + int(SETUP_PROBES * done))
        probes += [setup_probe(pairs, env) for _ in range(due - len(probes))]
        start = time.perf_counter()
        for job in jobs:
            result = run_subprocess(job["argv"], env, tmp)
            result["job"] = job
            samples.append(result)
        loop_s += time.perf_counter() - start
        rounds += 1
    probes += [setup_probe(pairs, env) for _ in range(SETUP_PROBES - len(probes))]
    return samples, probes, loop_s


# -- checks ------------------------------------------------------------------------


def load_pins() -> dict:
    with open(os.path.join(BENCH_DIR, "pinned_reports.json"), encoding="utf-8") as f:
        return json.load(f)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_samples(samples: list[dict], pins: dict, reference: dict) -> list[str]:
    """Check every job outcome; `reference` maps job key to the first
    report digest seen, so repeats and later passes must match it."""
    problems = []
    for sample in samples:
        job = sample["job"]
        try:
            found = jobs_mod.check_report(
                job, sample["code"], sample["stdout"], sample["stderr"])
        except (KeyError, TypeError, IndexError, AttributeError) as exc:
            found = [f"report has an unexpected shape: {exc!r}"]
        if sample.get("rss_kb") == 0:
            found.append("the job wrote no peak RSS at exit")
        got = digest(sample["stdout"])
        first = reference.setdefault(job["key"], got)
        if got != first:
            found.append("report differs from the first run of the same job")
        if job["key"] in pins and pins[job["key"]] != got:
            found.append("report differs from its pinned digest")
        sample["ok"] = not found
        problems += [f"{job['key']}: {p}" for p in found]
    return problems


# -- end-to-end metrics ---------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """The value at the highest percentile with at least ten samples beyond
    it: (value, percentile, samples beyond).  With ten samples or fewer no
    such percentile exists, and the maximum is reported with none beyond."""
    xs = sorted(values)
    n = len(xs)
    if n > 10:
        return xs[n - 11], 100.0 * (n - 10) / n, 10
    return xs[-1], 100.0, 0


def end_to_end(probes, samples, loop_s) -> tuple[dict, dict]:
    walls = [s["wall"] for s in samples]
    tail_value, tail_pct, beyond = tail(walls)
    values = {
        "setup_s": statistics.median(p["wall_s"] for p in probes),
        "jobs_per_s": len(samples) / loop_s,
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail_value,
        "peak_rss_mb": max(s["rss_kb"] for s in samples) / 1024.0,
    }
    per_job: dict[str, list[float]] = {}
    for s in samples:
        per_job.setdefault(s["job"]["key"], []).append(s["wall"])
    notes = {"jobs": len(samples), "loop_s": loop_s, "probes": probes,
             "job_cpu_p50_s": statistics.median(s["cpu"] for s in samples),
             "tail_percentile": tail_pct, "tail_beyond": beyond, "job_walls": per_job}
    return values, notes


# -- traced passes -----------------------------------------------------------------------


def in_process_job(cli_main, job: dict, tracer=None) -> tuple[dict, float]:
    """One job in this process, traced when a tracer is given; the time
    covers the job only, not installing the wrappers."""
    gc.collect()
    if tracer is not None:
        tracer.begin_job()
        tracer.install()
    try:
        start = time.perf_counter()
        code, stdout, stderr = tracing.run_in_process(cli_main, job["argv"])
        elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"job": job, "code": code, "stdout": stdout, "stderr": stderr}, elapsed


def layer_values(tracer, loop_s: float) -> dict:
    calls, counts, self_s = tracer.calls, tracer.counts, tracer.self_s

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {}
    for metric, _ in PER_LAYER:
        name, _, kind = metric.rpartition(".")
        if kind == "self_s":
            out[metric] = self_s.get(name, 0.0)
        elif kind == "calls":
            out[metric] = calls.get(name, 0)
        elif kind == "hit_ratio":
            out[metric] = ratio(counts.get(name + ".repeats", 0), calls.get(name, 0))
        elif kind in ("rows", "cells", "scanned"):
            out[metric] = int(counts.get(f"{name}.{kind}", 0))
        elif kind == "rank_ratio":
            out[metric] = ratio(counts.get(name + ".rank", 0), counts.get(name + ".rows", 0))
        elif kind == "density":
            out[metric] = ratio(counts.get(name + ".nonzeros", 0), counts.get(name + ".cells", 0))
        elif kind == "useful_ratio":
            out[metric] = ratio(counts.get(name + ".support", 0), counts.get(name + ".scanned", 0))
    out["unattributed_s"] = loop_s - sum(self_s.values())
    out["trace.loop_s"] = loop_s
    return out


def account(tracer, loop_s: float) -> list[str]:
    """Self times plus unattributed time must equal the traced loop time,
    and the self times must follow from the stored span tree alone."""
    problems = []
    total_self = sum(tracer.self_s.values())
    if total_self > loop_s * (1 + 1e-9):
        problems.append(f"self times {total_self:.6f}s exceed the loop {loop_s:.6f}s")
    if abs(total_self - tracer.top_level_time()) > 1e-6 * max(loop_s, 1.0):
        problems.append("self times do not add up to the top-level spans")
    rebuilt = tracer.self_times_from_spans()
    for name, value in tracer.self_s.items():
        if abs(rebuilt.get(name, 0.0) - value) > 1e-6 * max(loop_s, 1.0):
            problems.append(f"{name}: self time differs when rebuilt from spans")
    return problems


def shares(layer: dict, process_start: float, njobs: int) -> dict:
    """Self-time share of each module over the traced loop plus the process
    start every job pays outside it."""
    process = process_start * njobs
    total = layer["trace.loop_s"] + process
    groups: dict[str, float] = {"process": process, "unattributed": layer["unattributed_s"]}
    for metric, value in layer.items():
        if metric.endswith(".self_s"):
            name = metric[: -len(".self_s")]
            groups[name] = groups.get(name, 0.0) + value
    return {name: value / total for name, value in groups.items()}


def dominant_check(workload: str, share: dict) -> tuple[float, str, float, bool]:
    """Share of the workload's intended group against the largest module
    outside it (modules are the first component of each span name)."""
    meant = DOMINANT[workload]

    def in_group(name: str) -> bool:
        return any(name == g or name.startswith(g + ".") for g in meant)

    group = sum(v for k, v in share.items() if in_group(k))
    others: dict[str, float] = {}
    for name, value in share.items():
        if not in_group(name):
            module = name.split(".")[0]
            others[module] = others.get(module, 0.0) + value
    rival, rival_share = max(others.items(), key=lambda kv: kv[1])
    return group, rival, rival_share, group > rival_share


def traced_run(root, workload, jobs, env, tmp, pins, log):
    reference: dict = {}
    sub_samples, probes, _ = closed_loop(jobs, env, tmp, 0, len(jobs))
    problems = check_samples(sub_samples, pins, reference)

    sys.path.insert(0, os.path.join(root, "src"))
    from hopfcore import cli  # the checkout's own package

    # traced, untraced, traced, job by job: the machine's speed drifts over
    # tens of seconds, so the three runs of a job see nearly the same speed,
    # and neither kind runs only on a cold process
    tracers = [tracing.Tracer() for _ in range(TRACED_PASSES)]
    for tracer in tracers:
        tracer.calibrate()
    traced: list[list[dict]] = [[] for _ in tracers]
    loops = [0.0 for _ in tracers]
    plain, plain_s = [], 0.0
    for job in jobs:
        for turn, tracer in enumerate(tracers):
            if turn == 1:
                sample, elapsed = in_process_job(cli.main, job)
                plain.append(sample)
                plain_s += elapsed
            sample, elapsed = in_process_job(cli.main, job, tracer)
            traced[turn].append(sample)
            loops[turn] += elapsed
    problems += check_samples(plain, pins, reference)
    for tracer, samples, loop_s in zip(tracers, traced, loops):
        problems += check_samples(samples, pins, reference)
        problems += account(tracer, loop_s)
    for tracer in tracers[:-1]:
        tracer.drop_spans()  # only the last pass's spans are written out
    if tracers[0].missing:
        log(f"wrappers not installed (name not found): {', '.join(tracers[0].missing)}")

    first, second = tracers[0], tracers[-1]
    if dict(first.calls) != dict(second.calls) or dict(first.counts) != dict(second.counts):
        diff = sorted(
            k for k in set(first.calls) | set(first.counts) | set(second.counts)
            if first.calls.get(k) != second.calls.get(k)
            or first.counts.get(k) != second.counts.get(k)
        )
        problems.append(f"counts differ between identical traced passes: {diff[:8]}")

    passes = [layer_values(t, s) for t, s in zip(tracers, loops)]
    layer = {
        metric: statistics.median(p[metric] for p in passes) for metric in passes[0]
    }
    layer["process.start_s"] = statistics.median(p["start_s"] for p in probes)
    layer["trace.untraced_loop_s"] = plain_s
    layer["trace.overhead_ratio"] = layer["trace.loop_s"] / plain_s

    uncovered = [
        name for name, meant in MEANT_FOR.items()
        if workload in meant and not second.calls.get(name)
    ]
    share = shares(layer, layer["process.start_s"], len(jobs))
    group, rival, rival_share, holds = dominant_check(workload, share)

    os.makedirs(os.path.join(root, WORK_DIR, "spans"), exist_ok=True)
    spans_path = os.path.join(WORK_DIR, "spans", f"{workload}.bin")
    second.write_spans(os.path.join(root, spans_path))
    details = {
        "jobs": len(jobs),
        "coverage_missing": uncovered,
        "shares": share,
        "dominant": {"group": list(DOMINANT[workload]), "share": group,
                     "largest_other": rival, "other_share": rival_share,
                     "holds": holds},
        "spans_file": spans_path,
        "spans": len(second.span_start),
        "passes": passes,
    }
    log(f"traced loop {layer['trace.loop_s']:.3f}s vs untraced in-process "
        f"{plain_s:.3f}s: overhead ratio {layer['trace.overhead_ratio']:.3f}")
    log(f"unattributed {layer['unattributed_s']:.4f}s; spans kept {len(second.span_start)}"
        f" -> {spans_path}")
    log(f"coverage: {'every meant-for function called' if not uncovered else 'NOT CALLED: ' + ', '.join(uncovered)}")
    log(f"dominant group {'+'.join(DOMINANT[workload])}: share {group:.3f}; "
        f"largest other module {rival} {rival_share:.3f} -> "
        f"{'holds' if holds else 'DIFFERS'}")
    for name, value in sorted(share.items(), key=lambda kv: -kv[1])[:12]:
        log(f"  share {name:45s} {value:6.3f}")
    return layer, details, problems, sub_samples


# -- main ---------------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs_mod.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    for needed in ("src/hopfcore/cli.py", "fixtures/instances", "fixtures/actions"):
        if not os.path.exists(os.path.join(root, needed)):
            fail_setup(f"{needed} not found; run from the root of a hopfcore checkout")
    build = subprocess.run([sys.executable, "-m", "compileall", "-q", "src"],
                           cwd=root, capture_output=True, text=True, timeout=600)
    if build.returncode != 0:
        fail_setup(f"byte-compiling src failed: {build.stdout[-400:]}{build.stderr[-400:]}")

    def log(line: str) -> None:
        print(f"[{args.workload}] {line}", flush=True)

    stamp = env_stamp(root)
    load_before = os.getloadavg()
    jobs_mod.write_inputs(root)
    jobs = jobs_mod.make_jobs(args.workload, args.seed)
    job_list = jobs_mod.write_job_list(root, args.workload, args.seed, jobs)
    tmp = os.path.join(root, WORK_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = child_env(root, tmp)
    pins = load_pins()
    log(f"seed {args.seed}: {len(jobs)} jobs per round, list in {job_list}")

    if args.trace:
        metrics, details, problems, samples = traced_run(
            root, args.workload, jobs, env, tmp, pins, log)
        units = dict(PER_LAYER)
    else:
        samples, probes, loop_s = closed_loop(jobs, env, tmp, args.seconds, MIN_JOBS)
        problems = check_samples(samples, pins, {})
        metrics, details = end_to_end(probes, samples, loop_s)
        units = dict(END_TO_END)

    for ext in (".out", ".err", ".hwm"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(tmp, f"job-{os.getpid()}{ext}"))
    load_after = os.getloadavg()
    attempted = len(samples)
    failed = sum(1 for s in samples if not s["ok"])
    loaded = max(load_before[0], load_after[0]) > stamp["nproc"]
    stamp.update(load_before=load_before, load_after=load_after, overloaded=loaded)
    log("env " + json.dumps(stamp, sort_keys=True))
    if loaded:
        log(f"WARNING: load average above nproc={stamp['nproc']}; figures are suspect")
    for line in problems[:20]:
        log(f"CHECK FAILED {line}")
    log(f"error_rate {failed}/{attempted} = {failed / attempted:.4f} (ratio)")
    if not args.trace:
        log(f"{details['jobs']} jobs in {details['loop_s']:.3f}s; tail is p"
            f"{details['tail_percentile']:.1f} with {details['tail_beyond']} samples beyond")
        log(f"child CPU time (user+sys) per job: median {details['job_cpu_p50_s']:.4f} s")
    for name, value in metrics.items():
        log(f"{name} {value:.6g} {units[name]}")

    os.makedirs(os.path.join(root, WORK_DIR, "results"), exist_ok=True)
    result_path = os.path.join(
        root, WORK_DIR, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as out:
        json.dump({"workload": args.workload, "seed": args.seed, "env": stamp,
                   "metrics": metrics, "details": details, "problems": problems,
                   "attempted": attempted, "failed": failed}, out, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
