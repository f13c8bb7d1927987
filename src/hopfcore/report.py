"""Check reports: one line per checked subject, in a stable text format."""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class CheckLine:
    check: str
    subject: str
    status: str
    detail: str = ""

    def as_json(self) -> dict:
        return {
            "check": self.check,
            "subject": self.subject,
            "status": self.status,
            "detail": self.detail,
        }


@dataclass
class Report:
    name: str
    lines: list[CheckLine] = field(default_factory=list)

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

    def as_json(self) -> dict:
        return {
            "name": self.name,
            "lines": [line.as_json() for line in self.lines],
            "counts": self.counts,
            "passed": self.passed,
        }
