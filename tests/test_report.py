"""The report writer against the standard encoder.

A ``Report`` with an output stream writes each check line through one
template as it is added, and ``finish`` writes every other block through
``json.dumps``; the output must be byte for byte what
``json.dumps(payload, sort_keys=True, indent=2)`` writes when each check
line is the object {check, subject, status, detail}, and the report must
never be held whole.
"""

import io
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from hopfcore import cli
from hopfcore.report import Report
from conftest import FIXTURES, CheckLine, subprocess_env

INSTANCES = FIXTURES / "instances"
ACTIONS = FIXTURES / "actions"


def reference_dumps(payload):
    plain = {
        key: [line._asdict() for line in value] if key == "checks" else value
        for key, value in payload.items()
    }
    return json.dumps(plain, sort_keys=True, indent=2) + "\n"


# text with what the encoder escapes: quotes, backslashes, control
# characters, non-ASCII text and lone surrogates
fields = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7fé \U0001f600'),
        st.integers(0xD800, 0xDFFF).map(chr),
    ),
    max_size=12,
)
check_lines = st.builds(CheckLine, fields, fields, fields, fields)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | fields,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(fields, inner, max_size=3),
    max_leaves=10,
)
blocks = {
    "command": fields,
    "schema": st.integers(),
    "config": st.dictionaries(fields, st.none() | st.integers() | fields, max_size=4),
    "summary": st.dictionaries(fields, st.integers(0, 5000), max_size=4),
    "status": fields,
    "error": fields,
    "stages": st.lists(
        st.fixed_dictionaries({"stage": fields, "status": fields, "detail": fields}),
        max_size=4,
    ),
    "instance": json_values,
    "ring": st.fixed_dictionaries({
        "name": fields,
        "flags": st.dictionaries(fields, st.none() | st.booleans(), max_size=3),
    }),
    "core": st.fixed_dictionaries({
        "dims_by_cap": st.lists(st.integers(0, 50), max_size=6),
        "stabilized": st.booleans(),
        "dim": st.integers(0, 50),
        "basis": st.lists(fields, max_size=3),
        "ideal": fields,
    }),
}
payloads = st.builds(
    lambda extra, named: {**extra, **named},
    st.dictionaries(fields, json_values, max_size=3),
    st.fixed_dictionaries({}, optional={"checks": st.lists(check_lines, max_size=6),
                                        **blocks}),
)


def write(payload, out):
    """Write payload through a Report on out: its check lines, if any, one
    ``add`` each, then the rest of it through ``finish``."""
    report = Report(out)
    rest = dict(payload)
    if payload.get("checks"):
        for line in rest.pop("checks"):
            report.add(*line)
    report.finish(rest)


@settings(max_examples=60, deadline=None)
@given(payloads)
@example({})
@example({"checks": []})
@example({"checks": [CheckLine('a"b\\c', "\x00\né", "PASS", "\ud800\U0001f600")]})
@example({"command": "verify", "schema": 1, "error": "x", "status": "input-error"})
@example({"checks": [CheckLine("c", "s", "PASS")], "a": 1, "status": "ok"})
def test_write_matches_the_standard_encoder(payload):
    """After check lines are written, a key that sorts before ``checks``
    cannot follow them and raises ValueError; otherwise the bytes are the
    standard encoder's."""
    out = io.StringIO()
    if payload.get("checks") and any(key < "checks" for key in payload):
        with pytest.raises(ValueError):
            write(payload, out)
        return
    write(payload, out)
    assert out.getvalue() == reference_dumps(payload)


class CountingSink(io.TextIOBase):
    """A text stream that keeps nothing but the number of characters."""

    def __init__(self):
        self.chars = 0

    def writable(self):
        return True

    def write(self, text):
        self.chars += len(text)
        return len(text)


def big_payload(lines=20_000):
    return {
        "command": "verify",
        "checks": [
            CheckLine("comult-coassociative", f"e{i},e{i + 1}", "PASS", f"checked {i}")
            for i in range(lines)
        ],
        "summary": {"PASS": lines, "FAIL": 0},
        "status": "ok",
    }


def test_write_holds_no_more_than_a_tenth_of_the_report():
    """Writing each line as it is added keeps the peak allocation far below
    the text written; building the report as one string costs about three
    times it."""
    payload = big_payload()
    sink = CountingSink()
    tracemalloc.start()
    try:
        report = Report(sink)
        for line in payload["checks"]:
            report.add(*line)
        report.finish({key: payload[key] for key in payload if key != "checks"})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.chars == len(reference_dumps(payload))
    assert peak < sink.chars / 10
    assert not hasattr(report, "__dict__") and not hasattr(report, "lines")


def test_unserialisable_block_raises_before_anything_is_written():
    """``finish`` formats the whole tail before it writes any of it, with
    or without check lines before it; the lines already written stay."""
    for lines in (0, 3):
        sink = CountingSink()
        report = Report(sink)
        for line in big_payload(lines)["checks"]:
            report.add(*line)
        written = sink.chars
        with pytest.raises(TypeError):
            report.finish({"status": "ok", "zeta": {"bad": object()}})
        assert sink.chars == written


def jobs():
    for path in sorted(INSTANCES.glob("*.json")):
        yield ["build", "--instance", str(path)]
        yield ["verify", "--instance", str(path), "--trials", "5"]
        yield ["conv", "--instance", str(path), "--ring", "m2q", "--trials", "3"]
    for action, instance in (("dq_qx_ix", "dq"), ("sl2_qxy_ix", "sl2"),
                             ("xyw_qu", "xyw")):
        yield ["hcore", "--instance", str(INSTANCES / f"{instance}.json"),
               "--action", str(ACTIONS / f"{action}.json")]
    yield ["verify", "--instance", str(INSTANCES / "missing.json")]


def job_id(argv):
    """The command and the names of its input files."""
    return " ".join([argv[0], *(Path(a).stem for a in argv if a.endswith(".json"))])


@pytest.mark.parametrize("argv", list(jobs()), ids=job_id)
def test_every_command_writes_the_standard_bytes(tmp_path, argv):
    """Each command on each fixture writes one report, in the bytes the
    standard encoder gives for it."""
    out = tmp_path / "report.json"
    cli.main([*argv, "--out", str(out)])
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_out_file_and_stdout_get_the_same_bytes(tmp_path):
    argv = [sys.executable, "-m", "hopfcore.cli", "verify",
            "--instance", str(INSTANCES / "heis.json"), "--trials", "5"]
    out = tmp_path / "report.json"
    to_file = subprocess.run([*argv, "--out", str(out)], capture_output=True,
                             env=subprocess_env(), timeout=120)
    to_stdout = subprocess.run(argv, capture_output=True, env=subprocess_env(),
                               timeout=120)
    assert to_file.returncode == to_stdout.returncode == 0
    assert to_file.stdout == b""
    assert out.read_bytes() == to_stdout.stdout
    assert json.loads(to_stdout.stdout)["checks"]
