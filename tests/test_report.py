"""The report writer against the standard encoder.

``report.dumps`` writes check lines through one template and every other
block through ``json.dumps``; its output must be byte for byte what
``json.dumps(payload, sort_keys=True, indent=2)`` writes when each check
line is the object {check, subject, status, detail}.
"""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from hopfcore import cli
from hopfcore.report import CheckLine, dumps
from conftest import FIXTURES

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


@settings(max_examples=60, deadline=None)
@given(payloads)
@example({})
@example({"checks": []})
@example({"checks": [CheckLine('a"b\\c', "\x00\né", "PASS", "\ud800\U0001f600")]})
@example({"command": "verify", "schema": 1, "error": "x", "status": "input-error"})
def test_dumps_matches_the_standard_encoder(payload):
    assert dumps(payload) == reference_dumps(payload)


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
def test_every_command_writes_the_standard_bytes(tmp_path, monkeypatch, argv):
    """Each command on each fixture writes the same report, and exits the
    same way, with the template writer and with the standard encoder."""
    out = tmp_path / "report.json"
    code = cli.main([*argv, "--out", str(out)])
    written = out.read_bytes()
    monkeypatch.setattr(cli, "dumps", reference_dumps)
    assert cli.main([*argv, "--out", str(out)]) == code
    assert out.read_bytes() == written
