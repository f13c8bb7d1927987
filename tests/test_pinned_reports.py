"""The conv and hcore reports of the benchmark's pinned seed-0 jobs are
byte-identical to their pinned digests.

perfbench/pinned_reports.json maps each job's command line to the sha256 of
its report.  The command lines read their inputs from .perfbench/inputs/,
and the reports embed those paths, so the fixtures are copied there under a
temporary directory that becomes the working directory.
"""

import contextlib
import hashlib
import io
import json
import shutil

import pytest

from hopfcore.cli import main
from conftest import FIXTURES, ROOT

INPUTS = ".perfbench/inputs/"


def _pins():
    with open(ROOT / "perfbench" / "pinned_reports.json", encoding="utf-8") as handle:
        pins = json.load(handle)
    return {
        key: digest
        for key, digest in sorted(pins.items())
        if key.split()[0] in ("conv", "hcore")
    }


PINS = _pins()


def test_pins_cover_conv_and_hcore():
    commands = [key.split()[0] for key in PINS]
    assert (commands.count("conv"), commands.count("hcore")) == (6, 7)


@pytest.mark.parametrize("key", list(PINS))
def test_pinned_report_digest(tmp_path, monkeypatch, key):
    argv = key.split()
    for arg in argv:
        if arg.startswith(INPUTS):
            target = tmp_path / arg
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(FIXTURES / arg[len(INPUTS):], target)
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    report = out.getvalue().encode("utf-8")
    assert hashlib.sha256(report).hexdigest() == PINS[key]
    assert code == (3 if "sl2.json --degree 4" in key else 0)
