"""Check reports: one line per checked subject, in a stable text format.

A ``Report`` writes each check line to its output stream as it is added
and keeps only the counts by status; ``finish`` then writes the rest of
the report.  The text is what ``json.dumps(sort_keys=True, indent=2)``
gives for the whole report, so ``checks`` comes first.  Every check of the
library takes the report it adds its lines to.
"""

from __future__ import annotations

import json
from contextlib import suppress
from json.encoder import encode_basestring_ascii as _quote
from typing import TextIO

PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"
INCONCLUSIVE = "INCONCLUSIVE"

# the text before the first check line, and a check line as json.dumps
# (indent=2) writes it one level down, keys sorted
_HEAD = '{\n  "checks": [\n'
_LINE = (
    '    {\n      "check": %s,\n      "detail": %s,\n'
    '      "status": %s,\n      "subject": %s\n    }'
)


class Report:
    """Check lines, written to the output stream as they are added, and
    their counts by status."""

    __slots__ = ("counts", "_out", "_sep")

    def __init__(self, out: TextIO):
        self.counts = {PASS: 0, FAIL: 0, SKIP: 0, INCONCLUSIVE: 0}
        self._out, self._sep = out, _HEAD

    def add(self, check: str, subject: str, status: str, detail: str = "") -> None:
        """One check line; every field is a string."""
        self.counts[status] = self.counts.get(status, 0) + 1
        self._write(self._sep + _LINE % tuple(map(_quote, (check, detail, status, subject))))
        self._sep = ",\n"

    def _write(self, text: str) -> None:
        # a file opened for appending is emptied at the first write, so a
        # command reads all its inputs before its --out file is emptied; a
        # pipe or a device, which "w" would not empty either, stays as it is
        if self._sep is _HEAD and getattr(self._out, "mode", "") == "a":
            with suppress(OSError):
                self._out.truncate(0)
        self._out.write(text)

    def finish(self, payload: dict) -> None:
        """Write the rest of the report: the string-keyed blocks of payload,
        after the check lines written, whose keys must then all sort after
        ``checks`` (else ValueError), or as the whole report when no line
        was written.  The tail is formatted before it is written, so a
        block that cannot be serialised raises with none of it written."""
        if self._sep is _HEAD:
            self._write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
            return
        if payload and min(payload) <= "checks":
            raise ValueError(f"key {min(payload)!r} does not sort after the check lines")
        tail = "".join(
            f",\n  {_quote(key)}: "
            + json.dumps(payload[key], sort_keys=True, indent=2).replace("\n", "\n  ")
            for key in sorted(payload)
        )
        self._write("\n  ]" + tail + "\n}\n")
