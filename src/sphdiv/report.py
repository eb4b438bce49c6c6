"""Pass/fail findings emitted by validation and audit routines."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Finding:
    check: str
    subject: str
    expected: str
    actual: str
    passed: bool

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "subject": self.subject,
            "expected": self.expected,
            "actual": self.actual,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class Report:
    """The findings of a set of checks, in a deterministic order, plus
    the checks skipped for lack of data, each with its reason."""
    findings: tuple[Finding, ...]
    skipped: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all_passed(self.findings)

    def to_json(self) -> dict:
        return {
            "findings": [f.to_json() for f in self.findings],
            "skipped": list(self.skipped),
            "pass": self.passed,
        }


def vector_text(xs) -> str:
    """A vector as it appears in findings and tables: "(1, 0, 2)"."""
    return "(" + ", ".join(str(x) for x in xs) + ")"


def all_passed(findings: list[Finding]) -> bool:
    return all(f.passed for f in findings)


def sort_findings(findings: list[Finding]) -> list[Finding]:
    """Deterministic, order-independent presentation of a findings set."""
    return sorted(findings, key=lambda f: (f.check, f.subject))
