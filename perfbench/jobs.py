"""Workloads: seeded job lists, the input files they read, and the checks
each report must pass.

A workload is a fixed multiset of job classes.  The seed orders the jobs and
draws the ``--seed`` of every seeded command, so every seed runs the same
kind and amount of work.  Expected answers come from closed formulas and
from well-known facts about the inputs, never from the code under test:

* the enveloping algebra of a Lie algebra on k generators has filtration
  layers of dimension C(k+j, j) (PBW), and each layer has as many basis
  monomials as its dimension;
* the built-in xyw example has generators of weights 1, 1, 2, so its layer
  j is spanned by the x^a y^b w^c with a + b + 2c <= j (1, 3, 7, 13, 22, ...);
* Q is a domain, M2(Q) is prime but has zero divisors, Q x Q is semiprime
  but not prime, and Q[x]/(x^2) is not semiprime;
* for the ideal (x) under operators that each lower the x-degree by at most
  one, x^a y^b of degree <= 4 survives cap j exactly when a > j, which gives
  the core chain (10, 6, 3, 1, 0, ...) on Q[x, y] and (4, 3, 2, 1, 0, ...)
  on Q[x];
* the group algebra of Z/2 is not connected, and the corrupted xyw tables
  break a bialgebra axiom.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from math import comb

INPUT_DIR = os.path.join(".perfbench", "inputs")

INSTANCE_FIXTURES = [
    "sl2", "heis", "xyw", "dq", "grouplike", "xyw_corrupt",
]
ACTION_FIXTURES = ["sl2_qxy_ix", "dq_qx_ix", "xyw_qu"]

# host -> ("ueg", number of Lie generators) or ("xyw", None)
HOSTS = {
    "sl2": ("ueg", 3),
    "heis": ("ueg", 3),
    "dq": ("ueg", 1),
    "xyw": ("xyw", None),
}

RING_FLAGS = {  # (prime, semiprime, domain)
    "q": (True, True, True),
    "m2q": (True, True, False),
    "qxq": (False, True, False),
    "qx2": (False, False, False),
}

# action fixture -> (variables of the acted-on algebra, core degree cap)
ACTIONS = {"sl2_qxy_ix": (2, 4), "dq_qx_ix": (1, 4), "xyw_qu": (1, 4)}

# Each workload is a list of job classes; see BENCHMARK.json for why.  An
# odd number of classes keeps the median job inside one class.
#   ("verify", host, degree, trials)    ("conv", host, degree, ring, trials)
#   ("build", host, degree)             ("hcore", host, degree, action,
#                                                  probe bound, exit code)
WORKLOADS = {
    "verify-build": [
        ("verify", "sl2", 5, 50),
        ("verify", "heis", 5, 50),
        ("verify", "xyw", 6, 50),
        ("verify", "xyw", 5, 200),
        # short jobs where fixed costs and the error paths dominate
        ("build", "heis", 5),
        ("build", "grouplike", None),
        ("build", "xyw_corrupt", None),
    ],
    "conv-hcore": [
        ("conv", "sl2", 6, "m2q", 200),
        ("conv", "heis", 6, "qxq", 200),
        ("conv", "xyw", 6, "q", 200),
        ("conv", "heis", 6, "qx2", 200),
        ("conv", "sl2", 6, "qx2", 200),
        ("conv", "xyw", 6, "m2q", 200),
        ("hcore", "sl2", 4, "sl2_qxy_ix", 3, 3),
        ("hcore", "sl2", 6, "sl2_qxy_ix", 3, 0),
        ("hcore", "xyw", 6, "xyw_qu", 3, 0),
        ("hcore", "xyw", 7, "xyw_qu", 3, 0),
        ("hcore", "xyw", 8, "xyw_qu", 4, 0),
        ("hcore", "dq", 6, "dq_qx_ix", 3, 0),
        ("hcore", "dq", 8, "dq_qx_ix", 4, 0),
    ],
}


def instance_path(name: str) -> str:
    return os.path.join(INPUT_DIR, "instances", name + ".json")


def action_path(name: str) -> str:
    return os.path.join(INPUT_DIR, "actions", name + ".json")


def write_inputs(root: str) -> None:
    """Copy the instance and action fixtures the workloads read into the
    benchmark's input directory, so jobs see only generated inputs."""
    for sub, names in (("instances", INSTANCE_FIXTURES), ("actions", ACTION_FIXTURES)):
        os.makedirs(os.path.join(root, INPUT_DIR, sub), exist_ok=True)
        for name in names:
            with open(os.path.join(root, "fixtures", sub, name + ".json"), "rb") as src:
                data = src.read()
            with open(os.path.join(root, INPUT_DIR, sub, name + ".json"), "wb") as dst:
                dst.write(data)


# -- closed-form answers ------------------------------------------------------


def index_counts(host: str, degree: int) -> list[int]:
    """Basis monomials of each exact degree 0..degree."""
    kind, k = HOSTS[host]
    if kind == "ueg":
        return [comb(k + d - 1, d) for d in range(degree + 1)]
    return [
        sum(d - 2 * c + 1 for c in range(d // 2 + 1)) for d in range(degree + 1)
    ]


def layer_dims(host: str, degree: int) -> list[int]:
    counts = index_counts(host, degree)
    return [sum(counts[: j + 1]) for j in range(degree + 1)]


def structure_pairs(host: str, degree: int) -> int:
    counts = index_counts(host, degree)
    return sum(
        counts[a] * counts[b]
        for a in range(degree + 1)
        for b in range(degree + 1 - a)
    )


def core_chain(action: str, degree: int) -> list[int]:
    nvars, cap = ACTIONS[action]
    def surviving(j: int) -> int:
        # monomials x^a * (rest of total degree <= cap - a) with a > j
        return sum(comb(cap - a + nvars - 1, nvars - 1) for a in range(j + 1, cap + 1))
    return [surviving(j) for j in range(degree + 1)]


# -- job lists -----------------------------------------------------------------


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The seeded job list of one round of the workload."""
    rng = random.Random(f"{workload}/{seed}")
    jobs = []
    for spec in WORKLOADS[workload]:
        command, host = spec[0], spec[1]
        argv = [command, "--instance", instance_path(host)]
        if spec[2] is not None:
            argv += ["--degree", str(spec[2])]
        expect: dict = {"command": command, "host": host, "degree": spec[2]}
        if command == "verify":
            argv += ["--trials", str(spec[3]), "--seed", str(rng.randrange(10**6))]
            expect["trials"] = spec[3]
        elif command == "conv":
            ring, trials = spec[3], spec[4]
            argv += ["--ring", ring, "--trials", str(trials),
                     "--seed", str(rng.randrange(10**6))]
            expect.update(ring=ring, trials=trials)
        elif command == "hcore":
            argv += ["--action", action_path(spec[3]), "--probe-bound", str(spec[4])]
            expect.update(action=spec[3], exit=spec[5])
        jobs.append({"key": " ".join(argv), "argv": argv, "expect": expect})
    rng.shuffle(jobs)
    return jobs


def write_job_list(root: str, workload: str, seed: int, jobs: list[dict]) -> str:
    path = os.path.join(INPUT_DIR, f"{workload}-seed{seed}.jobs.json")
    with open(os.path.join(root, path), "w", encoding="utf-8") as out:
        json.dump(jobs, out, indent=1, sort_keys=True)
    return path


def distinct_instances(jobs: list[dict]) -> list[tuple[str, int | None]]:
    seen = []
    for job in jobs:
        pair = (instance_path(job["expect"]["host"]), job["expect"]["degree"])
        if pair not in seen:
            seen.append(pair)
    return seen


# -- checks ---------------------------------------------------------------------


def check_report(job: dict, code: int, stdout: bytes, stderr: str) -> list[str]:
    """Problems with one job's outcome; an empty list means it passed."""
    exp = job["expect"]
    problems = []
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    try:
        report = json.loads(stdout)
    except ValueError:
        return problems + [f"exit {code}: report is not JSON"]
    if not isinstance(report, dict) or "schema" not in report or "status" not in report:
        return problems + ["report lacks schema or status"]
    checks = report.get("checks", [])
    names = Counter(c["check"] for c in checks)
    fails = sum(1 for c in checks if c["status"] == "FAIL")
    host, degree, command = exp["host"], exp["degree"], exp["command"]

    def want(label, got, expected):
        if got != expected:
            problems.append(f"{label}: got {got!r}, expected {expected!r}")

    if command == "build" and host == "grouplike":
        want("exit", code, 1)
        want("status", report["status"], "fail")
        want("failed stage", report["stages"][-1]["stage"], "check_connected")
        return problems
    if command == "build" and host == "xyw_corrupt":
        want("exit", code, 2)
        want("status", report["status"], "input-error")
        if not fails:
            problems.append("corrupted tables passed every axiom")
        return problems

    want("exit", code, exp.get("exit", 0))
    want("FAIL lines", fails, 0)
    if command == "build":
        info = report.get("instance", {})
        dims = layer_dims(host, degree)
        want("layer dims", info.get("layer_dims"), dims)
        want("basis dims", info.get("basis_dims"), dims)
        want("index counts", info.get("index_counts"), index_counts(host, degree))
        want("stages", [s["status"] for s in report["stages"]], ["ok"] * 10)
    elif command == "verify":
        want("structure-constant checks", names["structure-constant"],
             structure_pairs(host, degree))
        want("split-expansion checks", names["split-expansion"],
             layer_dims(host, degree)[-1])
        want("basis checks", names["basis"], degree + 1)
        want("span-closure checks", names["span-closure"], exp["trials"])
        want("level-closure checks", names["level-closure"], exp["trials"])
    elif command == "conv":
        prime, semiprime, domain = RING_FLAGS[exp["ring"]]
        want("ring flags", report["ring"]["flags"],
             {"prime": prime, "semiprime": semiprime, "domain": domain})
        trials = exp["trials"]
        want("leading-law checks", names["leading-law"], trials)
        want("domain-product checks", names["domain-product"], trials * domain)
        want("prime-witness checks", names["prime-witness"], trials * prime)
        want("semiprime-witness checks", names["semiprime-witness"], trials * semiprime)
        want("prime-refutation checks", names["prime-refutation"], int(not prime))
        want("nilpotent checks", names["nilpotent"], int(not semiprime))
    elif command == "hcore":
        chain = core_chain(exp["action"], degree)
        want("core chain", report["core"]["dims_by_cap"], chain)
        want("stabilized", report["core"]["stabilized"], chain[-1] == chain[-2])
    return problems
