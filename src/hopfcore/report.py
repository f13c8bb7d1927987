"""Check reports: one line per checked subject, in a stable text format."""

from __future__ import annotations

import json
from collections import namedtuple
from json.encoder import encode_basestring_ascii as _quote

PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"
INCONCLUSIVE = "INCONCLUSIVE"

# one checked subject; every field is a string
CheckLine = namedtuple("CheckLine", "check subject status detail", defaults=("",))


class Report:
    """A named list of check lines."""

    __slots__ = ("name", "lines")

    def __init__(self, name: str):
        self.name = name
        self.lines: list[CheckLine] = []

    def add(self, check: str, subject: str, status: str, detail: str = "") -> None:
        self.lines.append(CheckLine(check, subject, status, detail))

    def extend(self, other: "Report") -> None:
        self.lines.extend(other.lines)

    @property
    def passed(self) -> bool:
        return all(line.status != FAIL for line in self.lines)

    @property
    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, SKIP: 0, INCONCLUSIVE: 0}
        for line in self.lines:
            out[line.status] = out.get(line.status, 0) + 1
        return out

    def failures(self) -> list[CheckLine]:
        return [line for line in self.lines if line.status == FAIL]


# a check line as json.dumps(indent=2) writes it one level down, keys sorted
_LINE = (
    '    {\n      "check": %s,\n      "detail": %s,\n'
    '      "status": %s,\n      "subject": %s\n    }'
)


def _value(value) -> str:
    """A top-level value as json.dumps(indent=2) writes it under its key."""
    if isinstance(value, list) and value and isinstance(value[0], CheckLine):
        body = ",\n".join(
            _LINE % (_quote(c), _quote(d), _quote(st), _quote(su))
            for c, su, st, d in value
        )
        return "[\n" + body + "\n  ]"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")


def dumps(payload: dict) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2) + "\\n"`` for a
    report payload with string keys, where a list of check lines is written
    as the list of their {check, subject, status, detail} objects.  The
    standard encoder runs in pure Python once ``indent`` is set; the check
    lines, nearly all of a report, go through one template instead."""
    if not payload:
        return "{}\n"
    items = ",\n".join(
        f"  {_quote(key)}: {_value(payload[key])}" for key in sorted(payload)
    )
    return "{\n" + items + "\n}\n"
