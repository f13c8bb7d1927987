"""Set-up probe: a fresh interpreter imports the hopfcore CLI and loads every
distinct instance of a workload, which is what each job pays before its
first pipeline stage.  Prints its own phase times as one JSON line.

Usage: python3 perfbench/setup_probe.py '[["path", degree_or_null], ...]'
"""

import json
import sys
import time

t0 = time.perf_counter()
from hopfcore.cli import load_instance  # noqa: E402
from hopfcore.errors import HopfcoreError  # noqa: E402

t1 = time.perf_counter()
errors = 0
for path, degree in json.loads(sys.argv[1]):
    try:
        load_instance(path, degree)
    except HopfcoreError:
        errors += 1
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "load_errors": errors}))
