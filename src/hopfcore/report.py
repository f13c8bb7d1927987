"""Check reports: one line per checked subject, in a stable text format.

``write`` streams a command's report to its output as the JSON text that
``json.dumps(sort_keys=True, indent=2)`` gives, one check line at a time.
"""

from __future__ import annotations

import json
from collections import namedtuple
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterator, TextIO

PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"
INCONCLUSIVE = "INCONCLUSIVE"

# one checked subject; every field is a string
CheckLine = namedtuple("CheckLine", "check subject status detail", defaults=("",))


class Report:
    """A list of check lines."""

    __slots__ = ("lines",)

    def __init__(self):
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


# a check line as json.dumps(indent=2) writes it one level down, keys sorted
_LINE = (
    '    {\n      "check": %s,\n      "detail": %s,\n'
    '      "status": %s,\n      "subject": %s\n    }'
)


def _check_lines(lines: list[CheckLine]) -> Iterator[str]:
    """A non-empty list of check lines as json.dumps(indent=2) writes it
    under its key, one line at a time."""
    sep = "[\n"
    for c, su, st, d in lines:
        yield sep + _LINE % (_quote(c), _quote(d), _quote(st), _quote(su))
        sep = ",\n"
    yield "\n  ]"


def write(payload: dict, out: TextIO) -> None:
    """Write ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"`` to
    out for a report payload with string keys, where the ``checks`` block
    is a list of check lines written as the list of their {check, subject,
    status, detail} objects.  The standard encoder runs in pure Python
    once ``indent`` is set; the check lines, nearly all of a report, go
    through one template instead, each written as soon as it is formatted,
    so the report is never held whole.  Every other block is formatted
    before the first write, so an unserialisable block raises with
    nothing written."""
    blocks = {
        key: json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")
        for key, value in payload.items()
        if key != "checks" or not value
    }
    sep = "{\n"
    for key in sorted(payload):
        out.write(f"{sep}  {_quote(key)}: ")
        sep = ",\n"
        if key in blocks:
            out.write(blocks[key])
        else:
            out.writelines(_check_lines(payload[key]))
    out.write("\n}\n" if payload else "{}\n")
