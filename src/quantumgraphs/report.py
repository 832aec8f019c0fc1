"""Structured pass/fail reports shared by all verifiers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Check:
    """A single named residual compared against a tolerance."""

    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol

    def line(self) -> str:
        verdict = "ok" if self.passed else "FAIL"
        return "  %-26s residual %.3e  tol %.1e  %s" % (
            self.name, self.residual, self.tol, verdict)


@dataclass
class VerificationReport:
    """An ordered list of checks plus free-form notes.

    The report passes iff every check passes. Verifiers never raise on a
    failed check; they record the residual and leave the verdict here.
    """

    title: str
    checks: list[Check] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, name: str, residual: float, tol: float) -> None:
        self.checks.append(Check(name, float(residual), float(tol)))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return float(np.max([c.residual for c in self.checks], initial=0.0))

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def lines(self) -> list[str]:
        out = [self.title]
        out.extend(c.line() for c in self.checks)
        out.extend("  note: " + n for n in self.notes)
        out.append("result: %s" % ("PASS" if self.passed else "FAIL"))
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())

    def to_obj(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "residual": c.residual, "tol": c.tol,
                 "passed": c.passed}
                for c in self.checks
            ],
            "notes": list(self.notes),
        }


class VerificationFailure(RuntimeError):
    """Raised when a construction or precondition fails verification.

    Carries the report (and the offending object, when one was built) so a
    failed construction is still inspectable.
    """

    def __init__(self, message: str, report: VerificationReport | None = None,
                 artifact=None):
        super().__init__(message)
        self.report = report
        self.artifact = artifact
