"""The reports of the benchmark's pinned seed-0 jobs are byte-identical to
their pinned digests.

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


def _pins(commands):
    with open(ROOT / "perfbench" / "pinned_reports.json", encoding="utf-8") as handle:
        pins = json.load(handle)
    return {
        key: digest
        for key, digest in sorted(pins.items())
        if key.split()[0] in commands
    }


PINS = _pins(("conv", "hcore"))
VERIFY_BUILD_PINS = _pins(("verify", "build"))


def test_pins_cover_conv_and_hcore():
    commands = [key.split()[0] for key in PINS]
    assert (commands.count("conv"), commands.count("hcore")) == (6, 7)


def _replay(tmp_path, monkeypatch, key):
    """Run a pinned command line in process; its report's sha256 and the
    exit code."""
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
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), code


@pytest.mark.parametrize("key", list(PINS))
def test_pinned_report_digest(tmp_path, monkeypatch, key):
    digest, code = _replay(tmp_path, monkeypatch, key)
    assert digest == PINS[key]
    assert code == (3 if "sl2.json --degree 4" in key else 0)


def test_pins_cover_verify_and_build():
    commands = [key.split()[0] for key in VERIFY_BUILD_PINS]
    assert (commands.count("verify"), commands.count("build")) == (4, 3)


@pytest.mark.parametrize("key", list(VERIFY_BUILD_PINS))
def test_pinned_verify_build_digest(tmp_path, monkeypatch, key):
    digest, code = _replay(tmp_path, monkeypatch, key)
    assert digest == VERIFY_BUILD_PINS[key]
    expected = 1 if "grouplike" in key else 2 if "xyw_corrupt" in key else 0
    assert code == expected
