"""The command line is read from one flag table, ``cli.COMMANDS``.

``argparse_reference`` is the argparse parser that read it before, kept as
the reference: every line it accepts must read to the same values, and
every line it refuses (exit 2) must end in exit 2 with an input-error
report on stdout and nothing on stderr.
"""

import argparse
import contextlib
import io
import json
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from hopfcore import cli
from hopfcore.errors import InputFormatError
from conftest import ROOT, subprocess_env


def argparse_reference() -> argparse.ArgumentParser:
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
    p_build.set_defaults(func=cli.cmd_build)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    common(p_verify)
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.set_defaults(func=cli.cmd_verify)

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
    p_conv.set_defaults(func=cli.cmd_conv)

    p_hcore = sub.add_parser("hcore", help="stable core of an ideal under an action")
    common(p_hcore)
    p_hcore.add_argument("--action", required=True, help="action JSON file")
    p_hcore.add_argument("--ideal", default=None, help="ideal override JSON file")
    p_hcore.add_argument("--probe-bound", dest="probe_bound", type=int, default=3)
    p_hcore.set_defaults(func=cli.cmd_hcore)
    return parser


def reference(argv):
    """The attributes argparse reads from argv, each as (type, value), or
    None when it refuses the line."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            namespace = argparse_reference().parse_args(argv)
        except SystemExit as exc:
            assert exc.code == 2
            return None
    return {key: (type(value), value) for key, value in vars(namespace).items()}


def read(argv):
    """The attributes ``cli._read_args`` reads from argv, as ``reference``
    gives them, or None when it refuses the line."""
    try:
        namespace = cli._read_args(argv)
    except InputFormatError:
        return None
    return {key: (type(value), value) for key, value in vars(namespace).items()}


def readme_lines():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()]


def benchmark_lines():
    with open(ROOT / "perfbench" / "pinned_reports.json", encoding="utf-8") as handle:
        return [key.split() for key in sorted(json.load(handle))]


HEIS = "fixtures/instances/heis.json"
HCORE = ("hcore --instance fixtures/instances/sl2.json --degree 6 "
         "--action fixtures/actions/sl2_qxy_ix.json")
# the lines of the workflow's console-script step, and lines that reorder,
# join, abbreviate or repeat flags, or give a value that begins with "-"
OTHER_LINES = [
    f"build --instance {HEIS} --degree 2",
    f"build --instance {HEIS} --degree 2 --out out.json",
    HCORE,
    f"{HCORE} --out out.json",
    f"verify --seed 3 --trials 25 --instance {HEIS}",
    f"conv --ring=m2q --instance={HEIS} --trials=100 --seed=42",
    "hcore --inst a.json --act b.json --probe 2 --ide c.json",
    "build --d 3 --i a.json --s 1 --o b.json",
    "conv --instance a.json --ring q --su 3 --se 4 --t 5",
    "build --instance a.json --instance b.json --degree 2 --degree 3",
    "verify --instance a.json --trials -1",
    "conv --instance a.json --ring q --support-cap=-1 --seed -5",
    "hcore --instance a.json --action b.json --probe-bound -2",
    "build --instance - --out -",
    "build --instance=--x --out= --degree=-0",
    "conv --instance a.json --ring -.5",
    "build --instance '-x y' --seed ' 7'",
]
VALID = readme_lines() + benchmark_lines() + [shlex.split(line) for line in OTHER_LINES]


@pytest.mark.parametrize("argv", VALID, ids=" ".join)
def test_accepted_lines_read_as_argparse_reads_them(argv):
    expected = reference(argv)
    assert expected is not None
    assert read(argv) == expected


# refused lines, with the command their report names
REFUSED = [
    ("", None),
    ("bogus --instance a.json", None),
    ("Build --instance a.json", None),
    ("--instance a.json build", None),
    ("build", "build"),
    (f"conv --instance {HEIS}", "conv"),
    (f"hcore --instance {HEIS}", "hcore"),
    ("build --instance a.json --bogus 1", "build"),
    ("build --instance a.json --trials 1", "build"),
    ("conv --instance a.json --ring q --s 1", "conv"),
    ("hcore --i a.json --action b.json", "hcore"),
    ("build --instance", "build"),
    ("build --instance --degree 2", "build"),
    ("build --instance -x", "build"),
    ("build --instance a.json --degree x", "build"),
    ("build --instance a.json --degree 2.5", "build"),
    ("build --instance a.json --degree=", "build"),
    ("verify --instance a.json --trials=-x", "verify"),
    ("build --instance a.json stray", "build"),
    ("build --instance a.json -1", "build"),
    ("build -x --instance a.json", "build"),
    ("build --help=1 --instance a.json", "build"),
]


@pytest.mark.parametrize("line, command", REFUSED, ids=[line for line, _ in REFUSED])
def test_refused_lines_end_in_an_input_error_report(line, command):
    """A line argparse refuses ends in exit 2 with the bare input-error
    report on stdout, naming the command when one of the four was given,
    and nothing on stderr; no file is read."""
    argv = shlex.split(line)
    assert reference(argv) is None
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    report = json.loads(out.getvalue())
    assert (code, err.getvalue()) == (2, "")
    assert set(report) == {"command", "schema", "error", "status"}
    assert (report["command"], report["status"]) == (command, "input-error")


def test_a_refused_line_writes_its_report_to_stdout_not_to_out(tmp_path):
    out = tmp_path / "report.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["conv", "--instance", HEIS, "--out", str(out)])
    assert (code, json.loads(stdout.getvalue())["error"]) == (2, "conv needs --ring")
    assert not out.exists()


def test_refused_lines_of_the_module_end_in_a_report():
    """As a process: no traceback and no usage text on stderr."""
    for argv in ([], ["conv", "--instance", HEIS], ["build", "--instance", HEIS, "--degree", "x"]):
        proc = subprocess.run(
            [sys.executable, "-m", "hopfcore.cli", *argv], cwd=ROOT,
            capture_output=True, text=True, env=subprocess_env(), timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (2, ""), argv
        assert json.loads(proc.stdout)["status"] == "input-error"


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["-h"], ["--he"], ["build", "-h"], ["conv", "--instance", HEIS, "--help"],
     ["hcore", "--h"], ["verify", "stray", "-h"]],
    ids=" ".join,
)
def test_help_prints_the_usage_and_exits_0(argv, capsys):
    with contextlib.redirect_stdout(io.StringIO()), pytest.raises(SystemExit) as exc:
        argparse_reference().parse_args(argv)
    assert exc.value.code == 0
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: hopfcore build --instance INSTANCE ") and err == ""
    for flags in cli.COMMANDS.values():
        for flag, dest, *_ in flags:
            assert f"{flag} {dest.upper()}" in out


# the required flags of each command, with a value
REQUIRED = {
    "build": ["--instance", "a"],
    "verify": ["--instance", "a"],
    "conv": ["--instance", "a", "--ring", "q"],
    "hcore": ["--instance", "a", "--action", "b"],
}


def test_func_is_looked_up_when_the_line_is_read(monkeypatch):
    """A wrapper bound to ``cli.cmd_*`` after import, as the benchmark's
    tracer binds one, is the command a line runs."""
    for command, required in REQUIRED.items():
        wrapped = object()
        monkeypatch.setattr(cli, f"cmd_{command}", wrapped)
        assert cli._read_args([command, *required]).func is wrapped


FLAGS = ["--instance", "--inst", "--i", "--degree", "--d", "--seed", "--s", "--se",
         "--out", "--o", "--trials", "--t", "--ring", "--r", "--support-cap", "--su",
         "--action", "--a", "--ideal", "--id", "--probe-bound", "--p", "--bogus"]
VALUES = ["a", "3", "0", "-1", "-.5", "", "2.5", "x y", "-x y", "-x", "-", " 4", "-0"]


@st.composite
def lines(draw):
    """A command (or not), its required flags or not, and flags, values and
    ``--flag=value`` tokens in any order; no help flag and no lone "--"."""
    command = draw(st.sampled_from([*REQUIRED, "bogus"]))
    required = REQUIRED.get(command, []) if draw(st.integers(0, 3)) else []
    items = [required[i:i + 2] for i in range(0, len(required), 2)]
    pair = st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES))
    items += draw(st.lists(st.one_of(
        pair.map(list),
        pair.map(lambda fv: ["=".join(fv)]),
        st.sampled_from(FLAGS + VALUES).map(lambda token: [token]),
    ), max_size=4))
    items = draw(st.permutations(items))
    return [command, *(token for item in items for token in item)]


@settings(max_examples=400, deadline=None)
@given(argv=lines())
def test_drawn_lines_read_as_argparse_reads_them(argv):
    assert read(argv) == reference(argv)
